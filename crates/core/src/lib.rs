//! # parsdd
//!
//! A Rust reproduction of *Near Linear-Work Parallel SDD Solvers,
//! Low-Diameter Decomposition, and Low-Stretch Subgraphs* (Blelloch,
//! Gupta, Koutis, Miller, Peng, Tangwongsan; SPAA 2011).
//!
//! This facade crate re-exports the full public API of the per-subsystem
//! crates and adds a handful of high-level convenience entry points. The
//! subsystems map one-to-one onto the paper:
//!
//! | Paper | Crate / module |
//! |---|---|
//! | Section 2 (ball growing, Laplacians, Gremban) | [`graph`], [`linalg`] |
//! | Section 4 (low-diameter decomposition) | [`decomp`] |
//! | Section 5 (AKPW trees, low-stretch subgraphs) | [`lsst`] |
//! | Section 6 / Theorem 1.1 (SDD solver) | [`solver`] |
//! | Section 1 applications (sparsifiers, flows, …) | [`apps`] |
//!
//! ## Quick start
//!
//! ```
//! use parsdd::prelude::*;
//!
//! // A 2-D grid Laplacian (the classic SDD benchmark) ...
//! let graph = parsdd::graph::generators::grid2d(20, 20, |_, _| 1.0);
//!
//! // ... a balanced right-hand side ...
//! let mut b: Vec<f64> = (0..graph.n()).map(|i| (i % 5) as f64).collect();
//! parsdd::linalg::vector::project_out_constant(&mut b);
//!
//! // ... build the preconditioner chain once and solve.
//! let solver = SddSolver::new_laplacian(&graph, SddSolverOptions::default());
//! let solution = solver.solve(&b);
//! assert!(solution.converged);
//!
//! // Many right-hand sides? Batch them through the chain: one blocked
//! // W-cycle pass per group of rhs, bitwise identical to looping
//! // `solve` — and several times faster per rhs (DESIGN.md §2.2).
//! let mut b2 = b.clone();
//! b2.reverse();
//! parsdd::linalg::vector::project_out_constant(&mut b2);
//! let solutions = solver.solve_many(&[b, b2]);
//! assert!(solutions.iter().all(|s| s.converged));
//! ```
//!
//! ## Error handling
//!
//! The infallible API above panics on malformed input. Production
//! callers use the fallible front door: every failure is a typed
//! [`BuildError`]/[`SolveError`], and a struggling solve escalates
//! through a deterministic recovery ladder (iterate refresh → stronger
//! chain → direct sparse factor) before giving up, recording each
//! rung in [`SolveOutcome::recovery`] (DESIGN.md §2.5).
//!
//! ```
//! use parsdd::prelude::*;
//!
//! let graph = parsdd::graph::generators::grid2d(20, 20, |_, _| 1.0);
//! let mut b: Vec<f64> = (0..graph.n()).map(|i| (i % 5) as f64).collect();
//! parsdd::linalg::vector::project_out_constant(&mut b);
//!
//! let solver = SddSolver::try_new_laplacian(&graph, SddSolverOptions::default())
//!     .expect("validated build");
//! let out = solver.try_solve(&b).expect("well-posed system");
//! assert!(out.converged);
//! assert!(out.recovery.is_empty()); // non-empty iff the ladder rescued it
//!
//! // Malformed inputs are typed errors, not panics:
//! let bad = vec![f64::NAN; graph.n()];
//! assert!(matches!(
//!     solver.try_solve(&bad),
//!     Err(SolveError::NonFiniteRhs { column: 0, index: 0 })
//! ));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

/// Graph substrate (CSR graphs, generators, BFS, MST, forests, orderings).
pub use parsdd_graph as graph;

/// Linear-algebra substrate (vectors, CSR matrices, Laplacians, CG,
/// Chebyshev, dense LDLᵀ, Gremban reduction).
pub use parsdd_linalg as linalg;

/// Parallel low-diameter decomposition (Section 4).
pub use parsdd_decomp as decomp;

/// Low-stretch spanning trees and ultra-sparse subgraphs (Section 5).
pub use parsdd_lsst as lsst;

/// The SDD solver: sparsification, elimination, preconditioner chains,
/// recursive preconditioned Chebyshev (Section 6).
pub use parsdd_solver as solver;

/// Applications: effective resistances, spectral sparsifiers, electrical
/// flows, approximate max-flow, spectral partitioning, Poisson problems.
pub use parsdd_apps as apps;

pub use parsdd_decomp::{partition, split_graph, PartitionParams, SplitParams};
pub use parsdd_graph::{Edge, Graph, GraphBuilder};
pub use parsdd_linalg::CsrMatrix;
pub use parsdd_lsst::{akpw, ls_subgraph, AkpwParams, LsSubgraphParams};
pub use parsdd_solver::{
    BuildError, ChainOptions, RecoveryRung, RecoveryStep, SddSolver, SddSolverOptions, SolveError,
    SolveOutcome,
};

/// Commonly used items, for `use parsdd::prelude::*`.
pub mod prelude {
    pub use parsdd_decomp::{partition, split_graph, PartitionParams, SplitParams};
    pub use parsdd_graph::{Edge, Graph, GraphBuilder};
    pub use parsdd_linalg::operator::{LinearOperator, Preconditioner};
    pub use parsdd_linalg::CsrMatrix;
    pub use parsdd_lsst::{akpw, ls_subgraph, AkpwParams, LsSubgraphParams};
    pub use parsdd_solver::{
        BuildError, ChainOptions, RecoveryRung, RecoveryStep, SddSolver, SddSolverOptions,
        SolveError, SolveOutcome,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work_together() {
        let g = crate::graph::generators::grid2d(12, 12, |_, _| 1.0);
        let split = split_graph(&g, &SplitParams::new(10));
        assert!(split.component_count >= 1);
        let tree = akpw(&g, &AkpwParams::practical(16.0));
        assert_eq!(tree.tree_edges.len(), g.n() - 1);
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default());
        let mut b: Vec<f64> = (0..g.n()).map(|i| (i % 3) as f64).collect();
        crate::linalg::vector::project_out_constant(&mut b);
        assert!(solver.solve(&b).converged);
    }
}
