//! # parsdd-linalg
//!
//! Linear-algebra substrate for the `parsdd` reproduction of *Near
//! Linear-Work Parallel SDD Solvers* (SPAA 2011).
//!
//! The paper's solver operates on graph Laplacians and, via Gremban's
//! reduction, on general symmetric diagonally dominant (SDD) matrices.
//! This crate provides:
//!
//! * [`vector`] — parallel dense vector kernels (dot, axpy, norms,
//!   projections onto `1⊥`).
//! * [`block`] — the column-blocked [`MultiVector`] and blocked kernels:
//!   `k` right-hand sides travel together so sparse products, elimination
//!   traces and dense factors stream their matrix once per block (the
//!   substrate of the solver's `solve_many`).
//! * [`operator`] — the [`LinearOperator`] and
//!   [`Preconditioner`] abstractions shared by
//!   every iterative method and by the recursive solver chain.
//! * [`csr`] — symmetric sparse matrices in CSR form with parallel
//!   matrix–vector products.
//! * [`laplacian`] — graph ↔ Laplacian conversions and the fast
//!   Laplacian-apply operator that works directly on a
//!   [`parsdd_graph::Graph`].
//! * [`sdd`] — SDD matrix classification and Gremban's reduction of an SDD
//!   system to a Laplacian system (Section 2 / Section 6 of the paper).
//! * [`cholesky`] — dense LDLᵀ factorisation: the reference direct solver
//!   the sparse factor and the baselines are checked against.
//! * [`sparse_ldl`] — sparse LDLᵀ factorisation over the elimination tree:
//!   the chain's bottom factor (Fact 6.4), built in a fill-reducing
//!   (minimum-degree) order. [`envelope`] re-exports it under its old
//!   name, [`envelope::EnvelopeLdl`].
//! * [`permuted`] — merged diag+offdiag chain-level storage
//!   ([`permuted::PermutedLevel`]) and the fused Chebyshev/residual sweep
//!   kernels the solver's inner loops run on.
//! * [`scalar`] — the [`Scalar`] trait the chain's per-application
//!   kernels are generic over (f64 or f32 storage), and the one place
//!   their precision-specific arithmetic lives.
//! * [`breakdown`] — typed reasons iterative kernels stop early (NaN/Inf
//!   residuals, indefinite directions, divergence, stalls) instead of
//!   spinning their budget.
//! * [`cg`] — conjugate gradient and preconditioned conjugate gradient.
//! * [`jacobi`] — diagonal (Jacobi) preconditioner baseline.
//! * [`power`] — power iteration / generalized Rayleigh quotient bounds
//!   used to verify `G ⪯ H ⪯ κG` relations experimentally.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod block;
pub mod breakdown;
pub mod cg;
pub mod cholesky;
pub mod csr;
pub mod envelope;
pub mod jacobi;
pub mod laplacian;
pub mod operator;
pub mod permuted;
pub mod power;
pub mod scalar;
pub mod sdd;
pub mod sparse_ldl;
pub mod vector;

pub use block::MultiVector;
pub use breakdown::{BreakdownReason, DIVERGENCE_FACTOR};
pub use cg::{block_pcg_solve, cg_solve, pcg_solve, CgOptions, CgOutcome};
pub use cholesky::DenseLdl;
pub use csr::CsrMatrix;
pub use laplacian::{laplacian_of, LaplacianOp};
pub use operator::{IdentityPreconditioner, LinearOperator, Preconditioner};
pub use permuted::PermutedLevel;
pub use scalar::Scalar;
pub use sdd::{GrembanReduction, SddClass, SddInputError};
pub use sparse_ldl::SparseLdl;
