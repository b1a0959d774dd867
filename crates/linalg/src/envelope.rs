//! The chain's bottom factor under the name it had as an envelope
//! (skyline) factor: [`EnvelopeLdl`] is [`crate::sparse_ldl::SparseLdl`],
//! with the same `from_graph` / `solve_rowmajor_into` surface. The
//! benchmark package imports the factor by this path, so its bottom-solve
//! replica times the chain's real factor. The tests below pin the factor
//! through that name.

pub use crate::sparse_ldl::SparseLdl as EnvelopeLdl;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::DenseLdl;
    use crate::laplacian::laplacian_of;
    use crate::operator::LinearOperator;
    use crate::vector::{norm2, project_out_constant, sub};
    use parsdd_graph::generators;
    use parsdd_graph::reorder::{min_degree_order, rcm_order, relabel};

    fn balanced_rhs(n: usize, s: usize) -> Vec<f64> {
        let mut b: Vec<f64> = (0..n).map(|i| ((i * (13 + s)) % 17) as f64 - 8.0).collect();
        project_out_constant(&mut b);
        b
    }

    #[test]
    fn matches_dense_ldl_on_grid() {
        let g = generators::grid2d(9, 7, |x, y| 1.0 + ((x + y) % 3) as f64);
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        let dense = DenseLdl::from_csr(&laplacian_of(&g), 1e-10);
        assert_eq!(env.null_dim(), dense.null_dim());
        let b = balanced_rhs(g.n(), 0);
        let xe = env.solve(&b);
        let xd = dense.solve(&b);
        for (a, c) in xe.iter().zip(&xd) {
            assert!((a - c).abs() < 1e-9, "{a} vs {c}");
        }
    }

    #[test]
    fn residual_small_on_rcm_ordered_graph() {
        let g = generators::weighted_random_graph(300, 900, 0.5, 8.0, 5);
        let g = relabel(&g, &rcm_order(&g));
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        assert!(env.nnz() <= g.n() * (g.n() - 1) / 2);
        let l = laplacian_of(&g);
        let b = balanced_rhs(g.n(), 1);
        let x = env.solve(&b);
        let r = sub(&b, &l.apply_vec(&x));
        assert!(
            norm2(&r) < 1e-7 * norm2(&b).max(1.0),
            "residual {}",
            norm2(&r)
        );
    }

    #[test]
    fn disconnected_components_two_null_dirs() {
        use parsdd_graph::{Edge, Graph};
        let g = Graph::from_edges(
            5,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(2, 3, 2.0),
                Edge::new(3, 4, 1.5),
            ],
        );
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        assert_eq!(env.null_dim(), 2);
        let b = vec![1.0, -1.0, 1.0, 0.5, -1.5];
        let x = env.solve(&b);
        let l = laplacian_of(&g);
        let r = sub(&b, &l.apply_vec(&x));
        assert!(norm2(&r) < 1e-9);
    }

    #[test]
    fn rowmajor_block_matches_single_bitwise() {
        let g = generators::grid2d(8, 8, |_, _| 1.0);
        let g = relabel(&g, &rcm_order(&g));
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        let n = g.n();
        for k in [2usize, 3, 4, 16] {
            let cols: Vec<Vec<f64>> = (0..k).map(|s| balanced_rhs(n, s)).collect();
            let mut br = vec![0.0; n * k];
            for (j, c) in cols.iter().enumerate() {
                for i in 0..n {
                    br[i * k + j] = c[i];
                }
            }
            let xr = env.solve_rowmajor(&br, k);
            for (j, c) in cols.iter().enumerate() {
                let single = env.solve(c);
                for i in 0..n {
                    assert_eq!(
                        xr[i * k + j].to_bits(),
                        single[i].to_bits(),
                        "k={k} col {j} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn envelope_much_smaller_than_dense_on_band_graph() {
        // A grid in minimum-degree order: fill ~n log n, dense triangle
        // ~n²/2.
        let g = generators::grid2d(20, 20, |_, _| 1.0);
        let (order, _) = min_degree_order(&g, usize::MAX).expect("no budget");
        let g = relabel(&g, &order);
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        let dense_triangle = g.n() * (g.n() - 1) / 2;
        assert!(
            env.nnz() * 8 < dense_triangle,
            "factor {} vs dense {}",
            env.nnz(),
            dense_triangle
        );
    }

    /// The ordering's entry count is exactly the size the factor
    /// allocates in that order, on a grid and a random graph, from their
    /// generator numbering and from a bandwidth-reducing one.
    #[test]
    fn min_degree_count_matches_factor_size() {
        let grid = generators::grid2d(20, 20, |_, _| 1.0);
        let random = generators::weighted_random_graph(300, 900, 0.5, 8.0, 5);
        for g in [&grid, &random] {
            for h in [g.clone(), relabel(g, &rcm_order(g))] {
                let (order, entries) = min_degree_order(&h, usize::MAX).expect("no budget");
                let factor = EnvelopeLdl::from_graph(&relabel(&h, &order), 1e-10);
                assert_eq!(entries, factor.nnz());
            }
        }
    }

    #[test]
    fn empty_and_edgeless() {
        use parsdd_graph::Graph;
        let g = Graph::from_edges(3, vec![]);
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        assert_eq!(env.null_dim(), 3);
        assert_eq!(env.solve(&[1.0, 2.0, 3.0]), vec![0.0, 0.0, 0.0]);
        let g0 = Graph::from_edges(0, vec![]);
        let env0 = EnvelopeLdl::from_graph(&g0, 1e-10);
        assert!(env0.solve(&[]).is_empty());
    }

    fn rhs32(n: usize, s: usize) -> Vec<f32> {
        balanced_rhs(n, s).iter().map(|&v| v as f32).collect()
    }

    /// The f32 tier preserves structure (envelope size, null directions)
    /// and its all-f32 solve leaves a residual bounded by f32 rounding of
    /// the factor.
    #[test]
    fn f32_demotion_solves_close_to_f64() {
        let g = generators::weighted_random_graph(300, 900, 0.5, 8.0, 5);
        let g = relabel(&g, &rcm_order(&g));
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        let env32 = EnvelopeLdl::<f32>::from_f64(&env);
        assert_eq!(env32.dim(), env.dim());
        assert_eq!(env32.nnz(), env.nnz());
        assert_eq!(env32.null_dim(), env.null_dim());
        let b32 = rhs32(g.n(), 1);
        let mut x32 = Vec::new();
        env32.solve_rowmajor_into(&b32, 1, &mut x32);
        let b: Vec<f64> = b32.iter().map(|&v| v as f64).collect();
        let x: Vec<f64> = x32.iter().map(|&v| v as f64).collect();
        let r = sub(&b, &laplacian_of(&g).apply_vec(&x));
        assert!(
            norm2(&r) < 1e-5 * norm2(&b),
            "relative residual {}",
            norm2(&r) / norm2(&b)
        );
    }

    /// The all-f32 solve stays within f32 rounding of the f64 factor's
    /// solve, column by column, at a monomorphised and a generic width.
    #[test]
    fn f32_vector_path_close_to_f64_vector_path() {
        let g = generators::weighted_random_graph(300, 900, 0.5, 8.0, 5);
        let g = relabel(&g, &rcm_order(&g));
        let env = EnvelopeLdl::from_graph(&g, 1e-10);
        let env32 = EnvelopeLdl::<f32>::from_f64(&env);
        let n = g.n();
        for k in [1usize, 3, 4] {
            let cols: Vec<Vec<f32>> = (0..k).map(|s| rhs32(n, s + 2)).collect();
            let br: Vec<f32> = (0..n * k).map(|i| cols[i % k][i / k]).collect();
            let mut xr = Vec::new();
            env32.solve_rowmajor_into(&br, k, &mut xr);
            for (j, c) in cols.iter().enumerate() {
                let x64 = env.solve(&c.iter().map(|&v| v as f64).collect::<Vec<_>>());
                let scale = x64.iter().fold(1.0f64, |a, &v| a.max(v.abs()));
                for (i, &c) in x64.iter().enumerate() {
                    let a = xr[i * k + j] as f64;
                    assert!(
                        (a - c).abs() <= 1e-4 * scale,
                        "k={k} col {j}: {a} vs {c} (scale {scale})"
                    );
                }
            }
        }
    }

    /// Batched all-f32 solves are bitwise identical to looped single
    /// solves at every width, monomorphised or generic.
    #[test]
    fn f32_vector_block_matches_single_bitwise() {
        let g = generators::grid2d(8, 8, |_, _| 1.0);
        let g = relabel(&g, &rcm_order(&g));
        let env32 = EnvelopeLdl::<f32>::from_f64(&EnvelopeLdl::from_graph(&g, 1e-10));
        let n = g.n();
        for k in [2usize, 3, 4, 16, 32] {
            let cols: Vec<Vec<f32>> = (0..k).map(|s| rhs32(n, s)).collect();
            let mut br = vec![0.0f32; n * k];
            for (j, c) in cols.iter().enumerate() {
                for i in 0..n {
                    br[i * k + j] = c[i];
                }
            }
            let mut xr = Vec::new();
            env32.solve_rowmajor_into(&br, k, &mut xr);
            let mut single = Vec::new();
            for (j, c) in cols.iter().enumerate() {
                env32.solve_rowmajor_into(c, 1, &mut single);
                for i in 0..n {
                    assert_eq!(
                        xr[i * k + j].to_bits(),
                        single[i].to_bits(),
                        "k={k} col {j} row {i}"
                    );
                }
            }
        }
    }

    /// Null directions survive demotion: zero pivots stay exactly zero,
    /// the corresponding solution coordinates stay exactly 0, and the
    /// residual is at f32 rounding.
    #[test]
    fn f32_null_directions_preserved() {
        use parsdd_graph::{Edge, Graph};
        let g = Graph::from_edges(
            5,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(2, 3, 2.0),
                Edge::new(3, 4, 1.5),
            ],
        );
        let env32 = EnvelopeLdl::<f32>::from_f64(&EnvelopeLdl::from_graph(&g, 1e-10));
        assert_eq!(env32.null_dim(), 2);
        let b = [1.0f32, -1.0, 1.0, 0.5, -1.5];
        let mut x = Vec::new();
        env32.solve_rowmajor_into(&b, 1, &mut x);
        // The last vertex of each component is its elimination-tree root,
        // where the zero pivot lands.
        for i in [1, 4] {
            assert_eq!(x[i], 0.0, "null direction {i}");
        }
        let x64: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let b64: Vec<f64> = b.iter().map(|&v| v as f64).collect();
        let r = sub(&b64, &laplacian_of(&g).apply_vec(&x64));
        assert!(norm2(&r) < 1e-5);
    }
}
