//! # parsdd-solver
//!
//! The parallel SDD solver — Section 6 of *Near Linear-Work Parallel SDD
//! Solvers, Low-Diameter Decomposition, and Low-Stretch Subgraphs*
//! (SPAA 2011), Theorem 1.1.
//!
//! The solver follows the Spielman–Teng / Koutis–Miller–Peng
//! preconditioner-chain framework, with the paper's two parallel
//! ingredients: a *low-stretch ultra-sparse subgraph* (instead of a
//! low-stretch tree) feeding the incremental sparsifier, and a parallel
//! greedy elimination.
//!
//! * [`sparsify`] — `IncrementalSparsify` (Lemma 6.1/6.2) with KMP10-style
//!   tree scaling: keep the low-stretch subgraph, scale its forest up so it
//!   absorbs condition number, sample the remaining edges by stretch.
//! * [`elimination`] — `GreedyElimination` (Lemma 6.5): partial Cholesky
//!   elimination of degree-1/2 vertices, bounded-fill stars, and
//!   weighted-degree-dominated vertices, with a recorded trace that
//!   `CompiledTrace<T>` compiles into the forward/backward substitution
//!   passes at the chain's storage precision.
//! * [`chain`] — the preconditioner chain (Definition 6.3) and the
//!   recursive W-cycle Chebyshev solver (Lemmas 6.6–6.8, Section 6.3's
//!   `m^{1/3}` termination, depth driven by measured shrink), one
//!   implementation generic over the storage precision
//!   ([`parsdd_linalg::Scalar`]).
//! * [`sdd_solve`] — `SDDSolve` (Theorem 1.1): the public solver for graph
//!   Laplacians and general SDD matrices (via Gremban's reduction), with
//!   both panicking and fallible (`try_*`) entry points.
//! * [`error`] — the typed [`error::BuildError`] / [`error::SolveError`]
//!   taxonomy and the recovery-ladder trace vocabulary of the fallible
//!   front door (DESIGN.md §2.5).
//! * [`baseline`] — CG / Jacobi-PCG / MST-preconditioned CG / dense
//!   baselines used by the experiments.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod baseline;
pub mod chain;
pub mod elimination;
pub mod error;
pub mod sdd_solve;
pub mod sparsify;

pub use chain::{
    build_chain, ChainOptions, ChainPreconditioner, ChainQuality, ChainStats, Level0Decision,
    Level0Path, LevelQuality, Precision, SolveOutcome, SolverChain,
};
pub use elimination::{
    greedy_elimination, greedy_elimination_with_params, EliminationParams, EliminationResult,
    EliminationStep,
};
pub use error::{BuildError, RecoveryRung, RecoveryStep, SolveError};
pub use sdd_solve::{SddSolver, SddSolverOptions};
pub use sparsify::{
    incremental_sparsify, incremental_sparsify_with_target, Sparsifier, SparsifyParams,
};
