//! Dense LDLᵀ factorisation: the reference direct solver.
//!
//! Fact 6.4 of the paper bottoms the chain out in a direct factorisation
//! of a graph with ~m^{1/3} vertices. The chain's bottom factor is the
//! envelope (skyline) [`crate::envelope::EnvelopeLdl`]; this dense
//! factor (O(n³) work, every entry of `L` stored) is the independent
//! reference that tests and `solve_dense` in the solver's baselines
//! check it against.
//!
//! Laplacians are only positive *semi*-definite: the all-ones vector of
//! every connected component is in the null space. The factorisation
//! handles this by treating pivots below a relative tolerance as zero,
//! which yields a particular solution whenever the right-hand side lies in
//! the range (callers project it there).

use crate::csr::CsrMatrix;

/// A dense LDLᵀ factorisation of a symmetric positive semi-definite matrix.
#[derive(Debug, Clone)]
pub struct DenseLdl {
    n: usize,
    /// Unit lower-triangular factor, row-major (only the strict lower part
    /// is meaningful).
    l: Vec<f64>,
    /// Diagonal factor; zero entries mark (numerically) null directions.
    d: Vec<f64>,
}

impl DenseLdl {
    /// Factors a dense symmetric PSD matrix given as row-major rows.
    ///
    /// `rel_tol` controls when a pivot is treated as zero (relative to the
    /// largest diagonal magnitude encountered).
    pub fn from_dense(a: &[Vec<f64>], rel_tol: f64) -> Self {
        let n = a.len();
        for row in a {
            assert_eq!(row.len(), n, "matrix must be square");
        }
        let max_diag = (0..n)
            .map(|i| a[i][i].abs())
            .fold(0.0f64, f64::max)
            .max(1e-300);
        let tol = rel_tol * max_diag;
        let mut l = vec![0.0f64; n * n];
        let mut d = vec![0.0f64; n];
        for j in 0..n {
            // d_j = a_jj - sum_k l_jk^2 d_k
            let mut dj = a[j][j];
            for k in 0..j {
                dj -= l[j * n + k] * l[j * n + k] * d[k];
            }
            if dj.abs() <= tol {
                d[j] = 0.0;
                // Null direction: leave column j of L as zeros below the
                // diagonal (the corresponding solution coordinate is free
                // and will be set to zero).
                l[j * n + j] = 1.0;
                continue;
            }
            d[j] = dj;
            l[j * n + j] = 1.0;
            for i in (j + 1)..n {
                let mut v = a[i][j];
                for k in 0..j {
                    v -= l[i * n + k] * l[j * n + k] * d[k];
                }
                l[i * n + j] = v / dj;
            }
        }
        DenseLdl { n, l, d }
    }

    /// Factors a sparse symmetric PSD matrix by densifying it (intended for
    /// the small bottom-level systems only).
    pub fn from_csr(a: &CsrMatrix, rel_tol: f64) -> Self {
        Self::from_dense(&a.to_dense(), rel_tol)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of zero pivots (dimension of the detected null space).
    pub fn null_dim(&self) -> usize {
        self.d.iter().filter(|&&d| d == 0.0).count()
    }

    /// Solves `A x = b` (in the least-squares / particular-solution sense
    /// when `A` is singular and `b` is in the range).
    // Triangular solves index `l` with row/column strides; explicit indices
    // are clearer than iterator chains here.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let n = self.n;
        // Forward solve L z = b.
        let mut z = b.to_vec();
        for i in 0..n {
            let mut zi = z[i];
            for k in 0..i {
                zi -= self.l[i * n + k] * z[k];
            }
            z[i] = zi;
        }
        // Diagonal solve.
        for i in 0..n {
            if self.d[i] == 0.0 {
                z[i] = 0.0;
            } else {
                z[i] /= self.d[i];
            }
        }
        // Backward solve Lᵀ x = z, in scatter form: once x[k] is final,
        // its updates to every earlier coordinate walk *row* k of `L`
        // contiguously (the gather form walks a column — one cache line
        // per entry on the row-major factor).
        let mut x = z;
        for k in (0..n).rev() {
            let xk = x[k];
            let row = &self.l[k * n..k * n + k];
            for (xi, &lki) in x[..k].iter_mut().zip(row) {
                *xi -= lki * xk;
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::laplacian_of;
    use crate::operator::LinearOperator;
    use crate::vector::{norm2, project_out_constant, sub};
    use parsdd_graph::generators;

    #[test]
    fn spd_solve_exact() {
        // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11]
        let a = vec![vec![4.0, 1.0], vec![1.0, 3.0]];
        let f = DenseLdl::from_dense(&a, 1e-12);
        assert_eq!(f.null_dim(), 0);
        let x = f.solve(&[1.0, 2.0]);
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_particular_solution() {
        let g = generators::cycle(8, 1.0);
        let l = laplacian_of(&g);
        let f = DenseLdl::from_csr(&l, 1e-10);
        assert_eq!(f.null_dim(), 1);
        let mut b: Vec<f64> = (0..8).map(|i| i as f64).collect();
        project_out_constant(&mut b);
        let x = f.solve(&b);
        // Check A x = b.
        let ax = l.apply_vec(&x);
        let r = sub(&b, &ax);
        assert!(
            norm2(&r) < 1e-8 * norm2(&b).max(1.0),
            "residual too large: {}",
            norm2(&r)
        );
    }

    #[test]
    fn grid_laplacian_solution() {
        let g = generators::grid2d(5, 5, |_, _| 1.0);
        let l = laplacian_of(&g);
        let f = DenseLdl::from_csr(&l, 1e-10);
        let mut b: Vec<f64> = (0..25).map(|i| ((i * 13) % 7) as f64).collect();
        project_out_constant(&mut b);
        let x = f.solve(&b);
        let r = sub(&b, &l.apply_vec(&x));
        assert!(norm2(&r) < 1e-8);
    }

    #[test]
    fn disconnected_graph_two_null_dirs() {
        use parsdd_graph::{Edge, Graph};
        let g = Graph::from_edges(4, vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 2.0)]);
        let l = laplacian_of(&g);
        let f = DenseLdl::from_csr(&l, 1e-10);
        assert_eq!(f.null_dim(), 2);
        // b orthogonal to each component's indicator.
        let b = vec![1.0, -1.0, 2.0, -2.0];
        let x = f.solve(&b);
        let r = sub(&b, &l.apply_vec(&x));
        assert!(norm2(&r) < 1e-9);
    }
}
