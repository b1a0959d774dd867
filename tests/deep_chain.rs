//! Deep preconditioner chain tests: the KMP10 tree-scaling + partial
//! Cholesky + W-cycle pipeline must produce chains of depth ≥ 3 that
//! converge, do no more work than the old depth-2 configuration, and stay
//! bitwise reproducible across pool widths (DESIGN.md §2.1, §3.1). Where
//! the chain stops is the cost cut's choice (DESIGN.md §2.10), so the
//! mid-size test forces depth with a candidate cap and checks the cut
//! against it.
//!
//! The `#[ignore]`d test is the release-mode "deep-chain" CI job's
//! workload (200×200 grid ≈ 40k vertices); run it with
//! `cargo test --release --test deep_chain -- --ignored --nocapture`.

use proptest::prelude::*;

use parsdd_graph::generators;
use parsdd_graph::parutil::with_threads;
use parsdd_solver::chain::{build_chain, ChainOptions, ChainStats, SolverChain};
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};

fn rhs(n: usize) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n).map(|i| ((i * 37) % 23) as f64 - 11.0).collect();
    parsdd_linalg::vector::project_out_constant(&mut b);
    b
}

/// The pre-tree-scaling configuration: two levels, unscaled forests (what
/// `ChainOptions::default()` was before the deep-chain work).
fn depth2_options() -> ChainOptions {
    ChainOptions {
        max_levels: 2,
        tree_scale: 1.0,
        min_shrink: 1.5,
        ..Default::default()
    }
}

fn print_chain(tag: &str, chain: &SolverChain, stats: &ChainStats) {
    eprintln!(
        "[{tag}] depth={} vertices={:?} edges={:?} k={:?} κ_eff={:?} t={:?} work/app={:.3e} (bottom {:.3e}, dense={})",
        chain.depth(),
        stats.level_vertices,
        stats.level_edges,
        stats.inner_iterations,
        stats
            .kappa_eff
            .iter()
            .map(|k| (k * 10.0).round() / 10.0)
            .collect::<Vec<_>>(),
        stats.tree_scales,
        stats.work_per_application,
        stats.level_work.last().copied().unwrap_or(0.0),
        stats.direct_bottom,
    );
}

/// Debug-friendly scale. The default chain on a 120×120 grid stops where
/// its work model says the direct bottom is cheapest (depth 2 over a
/// ~2k-vertex bottom); a candidate cap of 900 vertices leaves the cut
/// only the small levels below, so the same build recurses to depth ≥ 4.
/// Both converge, and the cut chain models no more work per application.
#[test]
fn capped_bottom_keeps_depth_4_and_default_cut_is_cheaper_on_midsize_grid() {
    let g = generators::grid2d(120, 120, |_, _| 1.0);
    let b = rhs(g.n());

    let deep = build_chain(
        &g,
        &ChainOptions {
            dense_bottom_limit: 900,
            ..Default::default()
        },
    );
    let deep_stats = deep.stats();
    print_chain("120x120 capped", &deep, &deep_stats);
    assert!(
        deep.depth() >= 4,
        "expected depth ≥ 4, got {} (levels {:?})",
        deep.depth(),
        deep_stats.level_vertices
    );
    let out = deep.solve(&b, 1e-8, 300);
    assert!(
        out.converged,
        "deep chain diverged: rel={} iters={}",
        out.relative_residual, out.iterations
    );

    let cut = build_chain(&g, &ChainOptions::default());
    let cut_stats = cut.stats();
    print_chain("120x120 default", &cut, &cut_stats);
    assert!(
        cut_stats.work_per_application <= deep_stats.work_per_application,
        "the cost cut must not model more work: default={:.3e} capped={:.3e}",
        cut_stats.work_per_application,
        deep_stats.work_per_application
    );
    let out = cut.solve(&b, 1e-8, 300);
    assert!(
        out.converged,
        "default chain diverged: rel={} iters={}",
        out.relative_residual, out.iterations
    );
}

/// The release-mode CI workload (acceptance criteria of the deep-chain
/// refactor): on a 200×200 grid the chain reaches depth ≥ 3, converges,
/// spends no more total solve work (per the `ChainStats` model) than the
/// depth-2 configuration, and solves bitwise identically at 1 and 4
/// threads.
#[test]
#[ignore = "release-mode deep-chain CI job (multi-second workload)"]
fn large_grid_deep_chain_beats_depth2_and_is_width_independent() {
    let g = generators::grid2d(200, 200, |_, _| 1.0);
    let b = rhs(g.n());

    // Deep (default) configuration.
    let deep = build_chain(&g, &ChainOptions::default());
    let deep_stats = deep.stats();
    print_chain("deep", &deep, &deep_stats);
    assert!(
        deep.depth() >= 3,
        "expected depth ≥ 3, got {} (levels {:?})",
        deep.depth(),
        deep_stats.level_vertices
    );
    let deep_out = deep.solve(&b, 1e-8, 300);
    eprintln!(
        "[deep] iters={} rel={:.3e}",
        deep_out.iterations, deep_out.relative_residual
    );
    assert!(
        deep_out.converged,
        "deep chain diverged: rel={}",
        deep_out.relative_residual
    );

    // Depth-2 (old default) configuration.
    let shallow = build_chain(&g, &depth2_options());
    let shallow_stats = shallow.stats();
    print_chain("depth2", &shallow, &shallow_stats);
    let shallow_out = shallow.solve(&b, 1e-8, 300);
    eprintln!(
        "[depth2] iters={} rel={:.3e}",
        shallow_out.iterations, shallow_out.relative_residual
    );

    // Work comparison under the ChainStats model: outer iterations × flops
    // per preconditioner application.
    let deep_work = deep_out.iterations as f64 * deep_stats.work_per_application;
    let shallow_work = shallow_out.iterations as f64 * shallow_stats.work_per_application;
    eprintln!("[work] deep={deep_work:.3e} depth2={shallow_work:.3e}");
    assert!(
        deep_work <= shallow_work,
        "deep chain must not do more solve work: deep={deep_work:.3e} depth2={shallow_work:.3e}"
    );

    // Bitwise width-independence at depth ≥ 3: a fixed-work solve through
    // the whole deep pipeline produces identical bits at 1 and 4 threads.
    let options = SddSolverOptions {
        tolerance: 0.0,
        max_iterations: 4,
        ..SddSolverOptions::default()
    };
    let run = |threads: usize| {
        with_threads(threads, || {
            let solver = SddSolver::new_laplacian(&g, options);
            assert!(
                solver.chain().depth() >= 3,
                "determinism run must exercise a deep chain"
            );
            solver.solve(&b)
        })
    };
    let seq = run(1);
    let par = run(4);
    assert_eq!(
        seq.relative_residual.to_bits(),
        par.relative_residual.to_bits(),
        "residual differs between 1 and 4 threads: {} vs {}",
        seq.relative_residual,
        par.relative_residual
    );
    for (i, (a, b)) in seq.x.iter().zip(&par.x).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "solution component {i} differs between 1 and 4 threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Deep chains and the depth-2 configuration agree on the solution of
    /// random weighted graphs (both solve the same SPD system to a tight
    /// tolerance, so their answers must coincide to well within the
    /// conditioning slack).
    #[test]
    fn deep_chain_matches_depth2_solution(n in 300usize..600, extra in 2usize..4, seed in 0u64..500) {
        let g = generators::weighted_random_graph(n, extra * n, 1.0, 8.0, seed);
        let b = rhs(g.n());
        let deep = build_chain(&g, &ChainOptions { bottom_size: 60, ..Default::default() });
        let shallow = build_chain(&g, &ChainOptions { bottom_size: 60, ..depth2_options() });
        let out_deep = deep.solve(&b, 1e-10, 400);
        let out_shallow = shallow.solve(&b, 1e-10, 400);
        prop_assert!(out_deep.converged, "deep rel {}", out_deep.relative_residual);
        prop_assert!(out_shallow.converged, "depth2 rel {}", out_shallow.relative_residual);
        let diff: f64 = out_deep
            .x
            .iter()
            .zip(&out_shallow.x)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let norm = parsdd_linalg::vector::norm2(&out_shallow.x).max(1e-300);
        prop_assert!(
            diff / norm <= 1e-3,
            "solutions diverge: rel diff {} (deep depth {}, shallow depth {})",
            diff / norm,
            deep.depth(),
            shallow.depth()
        );
    }
}
