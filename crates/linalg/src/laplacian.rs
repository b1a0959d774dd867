//! Graph Laplacians.
//!
//! The Laplacian of a weighted graph `G = (V, E, w)` is
//! `L(i,j) = -w_{ij}` for `i ≠ j` and `L(i,i) = Σ_j w_{ij}` (Section 2 of
//! the paper). The solver treats graphs and their Laplacians
//! interchangeably; [`LaplacianOp`] applies `L x` directly from the CSR
//! graph without materialising a matrix, which is both faster and keeps the
//! graph structure available to the preconditioner machinery.

use rayon::prelude::*;

use parsdd_graph::Graph;

use crate::block::{fill_rows_blocked, MultiVector};
use crate::csr::CsrMatrix;
use crate::operator::LinearOperator;

/// Builds the Laplacian of `g` as an explicit [`CsrMatrix`].
pub fn laplacian_of(g: &Graph) -> CsrMatrix {
    let mut triplets: Vec<(u32, u32, f64)> = Vec::with_capacity(4 * g.m() + g.n());
    for e in g.edges() {
        triplets.push((e.u, e.v, -e.w));
        triplets.push((e.v, e.u, -e.w));
        triplets.push((e.u, e.u, e.w));
        triplets.push((e.v, e.v, e.w));
    }
    // Ensure every vertex has a diagonal entry (possibly zero) so the
    // matrix has a full diagonal even for isolated vertices.
    for v in 0..g.n() as u32 {
        triplets.push((v, v, 0.0));
    }
    CsrMatrix::from_triplets(g.n(), g.n(), &triplets)
}

/// A matrix-free Laplacian operator over a graph.
#[derive(Debug, Clone)]
pub struct LaplacianOp<'a> {
    graph: &'a Graph,
    weighted_degree: Vec<f64>,
}

impl<'a> LaplacianOp<'a> {
    /// Creates the operator (precomputes weighted degrees).
    pub fn new(graph: &'a Graph) -> Self {
        let weighted_degree = (0..graph.n())
            .into_par_iter()
            .map(|v| graph.weighted_degree(v as u32))
            .collect();
        LaplacianOp {
            graph,
            weighted_degree,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The weighted degree (diagonal of the Laplacian).
    pub fn diagonal(&self) -> &[f64] {
        &self.weighted_degree
    }
}

impl LinearOperator for LaplacianOp<'_> {
    fn dim(&self) -> usize {
        self.graph.n()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.graph.n());
        assert_eq!(y.len(), self.graph.n());
        let kernel = |v: usize| {
            let mut acc = self.weighted_degree[v] * x[v];
            for (u, w, _e) in self.graph.arcs(v as u32) {
                acc -= w * x[u as usize];
            }
            acc
        };
        // Parallel dispatch only pays off for systems large enough to
        // amortise the fork-join overhead; 512-vertex leaves keep each
        // task at several microseconds of adjacency traversal.
        if self.graph.n() < 1 << 13 {
            for (v, yv) in y.iter_mut().enumerate() {
                *yv = kernel(v);
            }
        } else {
            y.par_iter_mut()
                .with_min_len(1 << 9)
                .enumerate()
                .for_each(|(v, yv)| *yv = kernel(v));
        }
    }

    fn apply_block(&self, x: &MultiVector, y: &mut MultiVector) {
        laplacian_apply_block(self.graph, &self.weighted_degree, x, y);
    }
}

/// Blocked Laplacian product `Y ← L X` for `k` vectors at once, given the
/// graph and its cached weighted-degree diagonal: each row's adjacency
/// list is streamed **once** and reused for all `k` columns (the
/// memory-traffic amortisation that motivates blocking — a single-vector
/// loop streams the arcs `k` times). Per column the arithmetic is exactly
/// the single-vector kernel's (same per-row accumulation order), so a
/// column's result is bitwise identical whether it travels alone or in a
/// block, at every pool width.
pub fn laplacian_apply_block(graph: &Graph, diag: &[f64], x: &MultiVector, y: &mut MultiVector) {
    let n = graph.n();
    assert_eq!(diag.len(), n);
    assert_eq!(x.nrows(), n);
    assert_eq!(y.nrows(), n);
    assert_eq!(x.ncols(), y.ncols());
    let parallel = n >= 1 << 13;
    if x.ncols() == 1 {
        // Width-1 fast path: the per-row accumulator lives in a register
        // instead of a length-1 block accumulator.
        let xs = x.col(0);
        let kernel = |v: usize| {
            let mut acc = diag[v] * xs[v];
            for (u, w, _e) in graph.arcs(v as u32) {
                acc -= w * xs[u as usize];
            }
            acc
        };
        let ys = y.col_mut(0);
        if !parallel {
            for (v, yv) in ys.iter_mut().enumerate() {
                *yv = kernel(v);
            }
        } else {
            ys.par_iter_mut()
                .with_min_len(1 << 9)
                .enumerate()
                .for_each(|(v, yv)| *yv = kernel(v));
        }
        return;
    }
    fill_rows_blocked(y, parallel, |v, acc| {
        let dv = diag[v];
        for (j, a) in acc.iter_mut().enumerate() {
            *a = dv * x.col(j)[v];
        }
        for (u, w, _e) in graph.arcs(v as u32) {
            let u = u as usize;
            for (j, a) in acc.iter_mut().enumerate() {
                *a -= w * x.col(j)[u];
            }
        }
    });
}

/// Quadratic form `xᵀ L_G x = Σ_e w_e (x_u - x_v)²`, computed edge-wise
/// (numerically the most stable way to evaluate Laplacian energies).
pub fn laplacian_quadratic_form(g: &Graph, x: &[f64]) -> f64 {
    assert_eq!(x.len(), g.n());
    g.edges()
        .par_iter()
        .with_min_len(1 << 11)
        .map(|e| {
            let d = x[e.u as usize] - x[e.v as usize];
            e.w * d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsdd_graph::generators;

    #[test]
    fn laplacian_matrix_of_path() {
        let g = generators::path(3, 1.0);
        let l = laplacian_of(&g);
        let d = l.to_dense();
        let expect = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]];
        for r in 0..3 {
            for c in 0..3 {
                assert!((d[r][c] - expect[r][c]).abs() < 1e-12, "({r},{c})");
            }
        }
        assert!(l.is_symmetric(1e-12));
    }

    #[test]
    fn operator_matches_matrix() {
        let g = generators::weighted_random_graph(50, 150, 0.5, 4.0, 3);
        let l = laplacian_of(&g);
        let op = LaplacianOp::new(&g);
        let x: Vec<f64> = (0..g.n()).map(|i| (i as f64 * 0.37).sin()).collect();
        let y_matrix = l.apply_vec(&x);
        let y_op = op.apply_vec(&x);
        for (a, b) in y_matrix.iter().zip(&y_op) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn quadratic_form_matches_operator() {
        let g = generators::grid2d(6, 6, |_, _| 2.0);
        let op = LaplacianOp::new(&g);
        let x: Vec<f64> = (0..g.n()).map(|i| ((i * 7) % 11) as f64).collect();
        let via_edges = laplacian_quadratic_form(&g, &x);
        let lx = op.apply_vec(&x);
        let via_op: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        assert!((via_edges - via_op).abs() < 1e-7 * via_edges.abs().max(1.0));
    }

    #[test]
    fn blocked_apply_matches_single_bitwise() {
        // Large enough to hit the parallel row-chunk path.
        let g = generators::grid2d(100, 100, |_, _| 1.0);
        let op = LaplacianOp::new(&g);
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|j| {
                (0..g.n())
                    .map(|i| ((i * (j + 2)) % 17) as f64 - 8.0)
                    .collect()
            })
            .collect();
        let x = MultiVector::from_columns(&cols);
        let mut y = MultiVector::zeros(g.n(), 3);
        op.apply_block(&x, &mut y);
        for (j, col) in cols.iter().enumerate() {
            let single = op.apply_vec(col);
            for (a, b) in y.col(j).iter().zip(&single) {
                assert_eq!(a.to_bits(), b.to_bits(), "column {j} diverged");
            }
        }
    }

    #[test]
    fn laplacian_annihilates_constants() {
        let g = generators::cycle(7, 3.0);
        let op = LaplacianOp::new(&g);
        let ones = vec![1.0; 7];
        let y = op.apply_vec(&ones);
        assert!(y.iter().all(|v| v.abs() < 1e-12));
    }
}
