//! Property-based tests (proptest) on the core invariants of the paper's
//! algorithms, run across randomly generated graphs and parameters.

use proptest::prelude::*;

use parsdd::prelude::*;
use parsdd_decomp::split_graph;
use parsdd_graph::unionfind::UnionFind;
use parsdd_linalg::laplacian::{laplacian_quadratic_form, LaplacianOp};
use parsdd_linalg::operator::LinearOperator;
use parsdd_linalg::vector::{norm2, project_out_constant};
use parsdd_lsst::stretch::stretch_over_tree;

/// Strategy: a connected weighted random graph with n in [10, 120] and a
/// moderate number of extra edges.
fn connected_graph_strategy() -> impl Strategy<Value = Graph> {
    (10usize..120, 0usize..200, 1u64..1_000_000).prop_map(|(n, extra, seed)| {
        let m = (n - 1) + extra.min(n * (n - 1) / 2 - (n - 1));
        parsdd::graph::generators::weighted_random_graph(n, m, 1.0, 16.0, seed)
    })
}

/// Strategy: a structurally diverse connected graph drawn from the zoo
/// generator families — power-law (rMAT), small-world, road-like skewed
/// planar mesh, 3D lattice, and near-disconnected clusters — plus the
/// uniform random family, all at proptest-drawn seeds. Every generator
/// here guarantees a connected output (rMAT restricts to its giant
/// component).
fn diverse_graph_strategy() -> impl Strategy<Value = Graph> {
    (0usize..6, 1u64..1_000_000).prop_map(|(kind, seed)| match kind {
        0 => parsdd::graph::generators::rmat(7, 700, seed),
        1 => parsdd::graph::generators::watts_strogatz(120 + (seed % 80) as usize, 6, 0.1, seed),
        2 => parsdd::graph::generators::road_mesh(12, 12, 0.6, 1.2, seed),
        3 => parsdd::graph::generators::lattice3d(5, 5, 4, 4.0, seed),
        4 => parsdd::graph::generators::near_disconnected_clusters(3, 40, 80, 1e-3, seed),
        _ => parsdd::graph::generators::weighted_random_graph(80, 300, 1.0, 16.0, seed),
    })
}

fn seeded_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n)
        .map(|i| (((i as u64).wrapping_mul(seed.wrapping_add(3))) % 17) as f64 - 8.0)
        .collect();
    project_out_constant(&mut b);
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// splitGraph produces a partition: every vertex gets a label, centers
    /// own themselves, BFS-tree parents stay in-component, and the tree
    /// edges form a forest (Theorem 4.1 (1)–(2) structural invariants).
    #[test]
    fn split_graph_partition_invariants(g in connected_graph_strategy(), rho in 2u32..40, seed in 0u64..1000) {
        let split = split_graph(&g, &SplitParams::new(rho).with_seed(seed));
        prop_assert_eq!(split.labels.len(), g.n());
        prop_assert!(split.labels.iter().all(|&l| (l as usize) < split.component_count));
        for (c, &center) in split.centers.iter().enumerate() {
            prop_assert_eq!(split.labels[center as usize] as usize, c);
            prop_assert_eq!(split.dist_to_center[center as usize], 0);
        }
        let tree = split.tree_edges();
        prop_assert_eq!(tree.len(), g.n() - split.component_count);
        let mut uf = UnionFind::new(g.n());
        for &e in &tree {
            let edge = g.edge(e);
            prop_assert!(uf.unite(edge.u, edge.v));
            prop_assert_eq!(split.labels[edge.u as usize], split.labels[edge.v as usize]);
        }
    }

    /// AKPW always outputs a spanning tree (on connected inputs) whose
    /// total stretch is finite and at least m (every edge has stretch >= 1
    /// against d_G; over a tree contained in G the tree distance of an
    /// edge's endpoints is at least the shortest path, which for the
    /// *minimum-weight* normalisation used here is bounded below by a
    /// positive value).
    #[test]
    fn akpw_spanning_tree_invariants(g in connected_graph_strategy(), z in 8f64..64.0, seed in 0u64..1000) {
        let tree = akpw(&g, &AkpwParams::practical(z).with_seed(seed));
        prop_assert_eq!(tree.tree_edges.len(), g.n() - 1);
        let mut uf = UnionFind::new(g.n());
        for &e in &tree.tree_edges {
            let edge = g.edge(e);
            prop_assert!(uf.unite(edge.u, edge.v), "cycle in AKPW tree");
        }
        let report = stretch_over_tree(&g, &tree.tree_edges);
        prop_assert!(report.total_stretch.is_finite());
        prop_assert!(report.min_stretch > 0.0);
    }

    /// LSSubgraph outputs a connected subgraph whose edge count lies
    /// between n-1 and m (Theorem 5.9 (1) structural bound).
    #[test]
    fn ls_subgraph_edge_count_bounds(g in connected_graph_strategy(), lambda in 1u32..4, seed in 0u64..1000) {
        let out = ls_subgraph(&g, &LsSubgraphParams::practical(16.0, lambda).with_seed(seed));
        let edges = out.all_edges();
        prop_assert!(edges.len() >= g.n() - 1);
        prop_assert!(edges.len() <= g.m());
        let sub = g.edge_subgraph(&edges);
        prop_assert!(parsdd::graph::components::is_connected(&sub));
    }

    /// The Laplacian quadratic form is non-negative and vanishes exactly on
    /// constants; the operator and the edge-wise form agree.
    #[test]
    fn laplacian_psd_invariants(g in connected_graph_strategy(), shift in -5.0f64..5.0) {
        let op = LaplacianOp::new(&g);
        let x: Vec<f64> = (0..g.n()).map(|i| ((i as f64) * 0.37).sin() + shift).collect();
        let qf = laplacian_quadratic_form(&g, &x);
        prop_assert!(qf >= -1e-9);
        let lx = op.apply_vec(&x);
        let via_op: f64 = x.iter().zip(&lx).map(|(a, b)| a * b).sum();
        prop_assert!((qf - via_op).abs() <= 1e-6 * qf.abs().max(1.0));
        let constant = vec![shift; g.n()];
        // The constant vector is in the null space; allow for floating-point
        // cancellation error proportional to the weight magnitudes.
        let scale = (1.0 + shift.abs()) * (1.0 + g.total_weight()).sqrt();
        prop_assert!(op.a_norm(&constant) <= 1e-6 * scale);
    }

    /// Greedy elimination preserves the solution: eliminating, solving the
    /// reduced system exactly (CG to high tolerance), and back-substituting
    /// satisfies the original system.
    #[test]
    fn elimination_preserves_solutions(g in connected_graph_strategy(), seed in 0u64..1000) {
        use parsdd_solver::elimination::{greedy_elimination, CompiledTrace};
        let elim = greedy_elimination(&g, seed);
        let trace = CompiledTrace::<f64>::from_elimination(&elim);
        let mut b: Vec<f64> = (0..g.n()).map(|i| ((i * 31 + 7) % 23) as f64 - 11.0).collect();
        project_out_constant(&mut b);
        let (reduced, work) = trace.forward_rhs(&b);
        let x_reduced = if elim.reduced_graph.m() == 0 {
            vec![0.0; elim.reduced_graph.n()]
        } else {
            let op = LaplacianOp::new(&elim.reduced_graph);
            parsdd_linalg::cg::cg_solve(
                &op,
                &reduced,
                &parsdd_linalg::cg::CgOptions { max_iters: 50_000, tol: 1e-13 },
            )
            .x
        };
        let x = trace.back_substitute(&work, &x_reduced);
        let op = LaplacianOp::new(&g);
        let r = op.residual(&x, &b);
        prop_assert!(norm2(&r) <= 1e-5 * norm2(&b).max(1.0), "residual {}", norm2(&r));
    }

    /// The end-to-end solver reaches its tolerance on random connected
    /// graphs (Theorem 1.1's accuracy contract, empirically).
    #[test]
    fn solver_converges_on_random_graphs(g in connected_graph_strategy(), seed in 0u64..1000) {
        let mut b: Vec<f64> = (0..g.n())
            .map(|i| (((i as u64).wrapping_mul(seed + 3)) % 17) as f64 - 8.0)
            .collect();
        project_out_constant(&mut b);
        if norm2(&b) < 1e-12 {
            return Ok(());
        }
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default().with_tolerance(1e-7));
        let out = solver.solve(&b);
        prop_assert!(out.converged, "rel residual {}", out.relative_residual);
        let op = LaplacianOp::new(&g);
        prop_assert!(norm2(&op.residual(&out.x, &b)) <= 1e-5 * norm2(&b));
    }

    /// The solver reaches its tolerance on every zoo generator family, not
    /// just grids and uniform random graphs (the workload-zoo accuracy
    /// contract at property-test scale).
    #[test]
    fn solver_converges_on_diverse_families(g in diverse_graph_strategy(), seed in 0u64..1000) {
        let b = seeded_rhs(g.n(), seed);
        if norm2(&b) < 1e-12 {
            return Ok(());
        }
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default().with_tolerance(1e-7));
        let out = solver.solve(&b);
        prop_assert!(
            out.converged && out.relative_residual <= 1e-7,
            "rel residual {} after {} iterations on n={} m={}",
            out.relative_residual, out.iterations, g.n(), g.m()
        );
    }

    /// Batched multi-RHS solves are bitwise identical to looped
    /// single-RHS solves on arbitrary connected families — the
    /// block-composition contract holds beyond the grid, including on
    /// near-disconnected inputs where per-column deflation and stall
    /// tracking diverge between columns.
    #[test]
    fn batched_solve_matches_looped_bitwise_on_diverse_families(g in diverse_graph_strategy(), seed in 0u64..1000) {
        let bs: Vec<Vec<f64>> = (0..3)
            .map(|s| seeded_rhs(g.n(), seed.wrapping_add(s * 101)))
            .collect();
        let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default().with_tolerance(1e-7));
        let batched = solver.solve_many(&bs);
        prop_assert_eq!(batched.len(), bs.len());
        for (b, out) in bs.iter().zip(&batched) {
            let single = solver.solve(b);
            let batched_bits: Vec<u64> = out.x.iter().map(|v| v.to_bits()).collect();
            let single_bits: Vec<u64> = single.x.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(batched_bits, single_bits);
            prop_assert_eq!(single.iterations, out.iterations);
            prop_assert_eq!(single.converged, out.converged);
        }
    }
}
