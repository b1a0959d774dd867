//! Baseline solvers for the experiments.
//!
//! The paper's claim is a parallel solver that is work-efficient relative
//! to sequential near-linear-time solvers. The practical baselines the
//! experiments (E8/E9, ablation A1) compare against are:
//!
//! * plain conjugate gradient,
//! * Jacobi(diagonal)-preconditioned CG,
//! * a *spanning-tree preconditioned* CG (one-level chain: the tree is
//!   eliminated exactly, no recursion) — the classical Vaidya-style
//!   baseline the preconditioner-chain literature starts from,
//! * dense LDLᵀ (exact, cubic work) for small systems.

use parsdd_graph::mst::kruskal;
use parsdd_graph::Graph;
use parsdd_linalg::cg::{cg_solve, pcg_solve, CgOptions, CgOutcome};
use parsdd_linalg::cholesky::DenseLdl;
use parsdd_linalg::jacobi::JacobiPreconditioner;
use parsdd_linalg::laplacian::{laplacian_of, LaplacianOp};
use parsdd_linalg::operator::Preconditioner;

use crate::elimination::{greedy_elimination, CompiledTrace};

/// Solves the Laplacian system of `g` with plain CG.
pub fn solve_cg(g: &Graph, b: &[f64], tol: f64, max_iters: usize) -> CgOutcome {
    let op = LaplacianOp::new(g);
    cg_solve(&op, b, &CgOptions { max_iters, tol })
}

/// Solves the Laplacian system of `g` with Jacobi-preconditioned CG.
pub fn solve_jacobi_pcg(g: &Graph, b: &[f64], tol: f64, max_iters: usize) -> CgOutcome {
    let op = LaplacianOp::new(g);
    let jac = JacobiPreconditioner::from_laplacian(&op);
    pcg_solve(&op, &jac, b, &CgOptions { max_iters, tol })
}

/// A spanning-tree preconditioner: the minimum spanning tree of the graph,
/// solved *exactly* by greedy elimination (a tree always eliminates fully),
/// used as a preconditioner for CG. This is the classical support-graph
/// baseline that low-stretch trees improve upon.
pub struct TreePreconditioner {
    trace: CompiledTrace<f64>,
    dim: usize,
}

impl TreePreconditioner {
    /// Builds the spanning-tree preconditioner of `g`: the tree of minimum
    /// total *resistance* (maximum conductance), i.e. the Kruskal tree of
    /// the reciprocal-weight view, eliminated exactly.
    pub fn new(g: &Graph) -> Self {
        let lengths = Graph::from_edges_unchecked(
            g.n(),
            g.edges()
                .iter()
                .map(|e| parsdd_graph::Edge::new(e.u, e.v, 1.0 / e.w))
                .collect(),
        );
        let tree_edges = kruskal(&lengths);
        let tree = g.edge_subgraph(&tree_edges);
        TreePreconditioner {
            trace: CompiledTrace::from_elimination(&greedy_elimination(&tree, 0x7ee)),
            dim: g.n(),
        }
    }
}

impl Preconditioner for TreePreconditioner {
    fn dim(&self) -> usize {
        self.dim
    }

    fn precondition(&self, r: &[f64], z: &mut [f64]) {
        let (reduced, work) = self.trace.forward_rhs(r);
        // A tree eliminates (almost) completely; any residual reduced
        // system is tiny and solved by zero (it has no edges) — its rhs is
        // ~0 for balanced inputs.
        let x_reduced = vec![0.0; reduced.len()];
        let x = self.trace.back_substitute(&work, &x_reduced);
        z.copy_from_slice(&x);
    }
}

/// Solves the Laplacian system of `g` with MST-preconditioned CG.
pub fn solve_tree_pcg(g: &Graph, b: &[f64], tol: f64, max_iters: usize) -> CgOutcome {
    let op = LaplacianOp::new(g);
    let pre = TreePreconditioner::new(g);
    pcg_solve(&op, &pre, b, &CgOptions { max_iters, tol })
}

/// Solves the Laplacian system of `g` exactly with a dense LDLᵀ
/// factorisation (only sensible for small `n`).
pub fn solve_dense(g: &Graph, b: &[f64]) -> Vec<f64> {
    let ldl = DenseLdl::from_csr(&laplacian_of(g), 1e-10);
    ldl.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsdd_graph::generators;
    use parsdd_linalg::operator::LinearOperator;
    use parsdd_linalg::vector::{norm2, project_out_constant};

    fn rhs(n: usize) -> Vec<f64> {
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 13) % 17) as f64 - 8.0).collect();
        project_out_constant(&mut b);
        b
    }

    #[test]
    fn all_baselines_agree_with_dense() {
        let g = generators::weighted_random_graph(120, 400, 1.0, 6.0, 4);
        let b = rhs(g.n());
        let dense = solve_dense(&g, &b);
        let op = LaplacianOp::new(&g);
        for (name, out) in [
            ("cg", solve_cg(&g, &b, 1e-10, 5000)),
            ("jacobi", solve_jacobi_pcg(&g, &b, 1e-10, 5000)),
            ("tree", solve_tree_pcg(&g, &b, 1e-10, 5000)),
        ] {
            assert!(out.converged, "{name} did not converge");
            // Compare after removing the nullspace component.
            let mut x1 = out.x.clone();
            let mut x2 = dense.clone();
            project_out_constant(&mut x1);
            project_out_constant(&mut x2);
            let diff: Vec<f64> = x1.iter().zip(&x2).map(|(a, b)| a - b).collect();
            assert!(
                norm2(&diff) <= 1e-5 * norm2(&x2).max(1.0),
                "{name} deviates from dense by {}",
                norm2(&diff)
            );
            let r = op.residual(&out.x, &b);
            assert!(norm2(&r) <= 1e-8 * norm2(&b));
        }
    }

    #[test]
    fn tree_preconditioner_helps_on_path_plus_noise() {
        // A long path with a few extra edges is where tree preconditioning
        // shines compared to plain CG.
        let g = generators::ultra_sparse(800, 15, 1.0, 1.0, 9);
        let b = rhs(g.n());
        let plain = solve_cg(&g, &b, 1e-8, 20_000);
        let tree = solve_tree_pcg(&g, &b, 1e-8, 20_000);
        assert!(plain.converged && tree.converged);
        assert!(
            tree.iterations <= plain.iterations,
            "tree {} vs plain {}",
            tree.iterations,
            plain.iterations
        );
    }

    #[test]
    fn tree_preconditioner_is_exact_on_trees() {
        let g = generators::random_tree(300, 1.0, 5);
        let b = rhs(g.n());
        let out = solve_tree_pcg(&g, &b, 1e-10, 50);
        assert!(out.converged);
        // Preconditioner equals the system itself: CG converges immediately
        // (a handful of iterations for numerical cleanup).
        assert!(out.iterations <= 5, "iterations {}", out.iterations);
    }
}
