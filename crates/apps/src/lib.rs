//! # parsdd-apps
//!
//! Applications of the parallel SDD solver, mirroring the application list
//! of the paper's introduction ("Some Applications", Section 1):
//!
//! * [`resistance`] — effective resistances via `O(log n)` solves against
//!   random projections (Spielman–Srivastava), the primitive behind
//!   spectral sparsification.
//!
//! Every module here is a many-right-hand-side workload against one
//! prebuilt chain, so the apps batch their systems through
//! [`parsdd_solver::sdd_solve::SddSolver::solve_many`] — the chain's
//! matrices stream once per block of right-hand sides — and the batched
//! answers are bitwise identical to one-solve-at-a-time loops.
//! * [`sparsifier`] — spectral/cut sparsifiers by sampling edges with
//!   probability proportional to `w_e · R_eff(e)` \[SS08\].
//! * [`electrical`] — electrical flows / potentials (one solve per flow),
//!   the inner loop of the Christiano–Kelner–Mądry–Spielman–Teng
//!   approximate max-flow algorithm [CKM+10].
//! * [`maxflow`] — approximate undirected max-flow via multiplicative
//!   weights over electrical flows, plus an exact augmenting-path max-flow
//!   used as the ground-truth comparator in tests and experiments.
//! * [`spectral`] — Fiedler vectors by inverse power iteration through the
//!   solver, and spectral bisection.
//! * [`harmonic`] — harmonic interpolation / discrete Dirichlet problems
//!   (grounded-Laplacian solves through the SDD path), the kernel of
//!   Poisson image editing and label propagation.
//! * [`poisson`] — discrete Poisson problems on grids (the vision/graphics
//!   motivation), a convenience layer used by the examples.
//! * [`mod@pagerank`] — PageRank / weighted SpMV over the frontier traversal
//!   core (the Ligra `SPMV` workload) on a [`Graph`](parsdd_graph::Graph),
//!   dense-pull pinned for bitwise width-determinism.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod electrical;
pub mod harmonic;
pub mod maxflow;
pub mod pagerank;
pub mod poisson;
pub mod resistance;
pub mod sparsifier;
pub mod spectral;

pub use electrical::{electrical_flow, electrical_flows, ElectricalFlow};
pub use harmonic::{harmonic_interpolation, harmonic_interpolation_many, HarmonicResult};
pub use maxflow::{approx_max_flow, exact_max_flow, ApproxMaxFlowResult};
pub use pagerank::{pagerank, spmv, PageRankResult};
pub use resistance::{approximate_effective_resistances, exact_effective_resistances};
pub use sparsifier::{spectral_sparsify, SparsifierResult};
pub use spectral::{fiedler_vector, spectral_bisection, FiedlerResult};
