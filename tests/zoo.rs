//! Workload-zoo conformance harness: the solver must hold up beyond the
//! grid (DESIGN.md §2.4).
//!
//! Every family × tier in `parsdd_bench::zoo` is pinned to a quality
//! envelope: it must converge to the 1e-8 tolerance, its chain depth must
//! stay bounded, and its work per preconditioner application must stay
//! within a per-family budget (expressed as a multiple of the input edge
//! count, with ≈2× headroom over the measured value so envelopes catch
//! regressions without flaking on incidental drift). The barbell family
//! additionally must exercise the sparsifier's κ clamp on its medium tier
//! — that path exists for near-disconnected inputs and would otherwise be
//! dead in CI. The default chain's cost cut stops above the clamped
//! level, so a dedicated test keeps it in the chain with a lower
//! candidate cap.
//!
//! Small tiers run everywhere, including debug `cargo test`. Medium and
//! large tiers are `#[ignore]`d and run in the release "deep-chain" CI
//! job:
//! `cargo test --release --test zoo -- --include-ignored --nocapture`.

use parsdd_bench::zoo::{self, Tier};
use parsdd_graph::parutil::with_threads;
use parsdd_solver::chain::{build_chain, ChainOptions};
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};

const TOLERANCE: f64 = 1e-8;

/// Per-case quality envelope. `max_work_per_edge` bounds
/// `work_per_application / m`; `min_clamp_hits` forces the κ-clamp path
/// to stay exercised where the family is designed to hit it.
struct Envelope {
    family: &'static str,
    tier: Tier,
    max_depth: usize,
    max_iterations: usize,
    max_work_per_edge: f64,
    min_clamp_hits: usize,
}

/// Measured values (release, defaults) are recorded next to each row so a
/// future regression is diagnosable from the diff alone.
const ENVELOPES: &[Envelope] = &[
    // Iterative bottoms are charged the iterations of their build-time
    // probe solve at the preconditioner-application tolerance.
    //
    // rmat: measured depth 0/0/0, it 17/23/26, work 4.0/4.0/4.0×m. The
    // level-0 cut (DESIGN.md §2.10) sends every tier to Jacobi-PCG
    // (probe 4 sweeps); the chain was depth 1/1/2, it 27/31/40, work
    // 14.5/50.5/11.4×m. Iterations are Jacobi-PCG's at depth 0.
    env("rmat", Tier::Small, 3, 60, 40.0, 0),
    env("rmat", Tier::Medium, 2, 80, 100.0, 0),
    env("rmat", Tier::Large, 4, 80, 25.0, 0),
    // smallworld: measured depth 0/0/0, it 70/64/54, work 11.0/10.0/8.0×m.
    // Expanders resist both elimination and sparsification, and
    // Jacobi-PCG converges fast on them: the level-0 cut takes every
    // tier there (probe 11/10/8 sweeps). The chain was depth 1/1/1, it
    // 30/42/54, work 75.3/7.6/6.4×m.
    env("smallworld", Tier::Small, 2, 80, 150.0, 0),
    env("smallworld", Tier::Medium, 3, 90, 16.0, 0),
    env("smallworld", Tier::Large, 3, 110, 13.0, 0),
    // road: measured depth 1/1/2, it 33/91/155, work 8.1/12.1/19.7×m.
    // The cut shortens every tier (was depth 2/5/6 at 16.9/127.1/
    // 139.3×m): direct bottoms of 2.5k–3.5k vertices beat the W-cycle
    // tails that led to ~300–900-vertex bottoms.
    env("road", Tier::Small, 2, 80, 16.0, 0),
    env("road", Tier::Medium, 2, 160, 25.0, 0),
    env("road", Tier::Large, 4, 190, 40.0, 0),
    // lattice3d: measured depth 1/1/1, it 32/45/41, work 41.6/27.3/39.6×m.
    // Degree-6 stencils starve greedy elimination, so medium falls back
    // to an iterative bottom; the large tier runs the adaptive schedule
    // (see `zoo::chain_options` — the fixed schedule leaf-blows-up there)
    // and must stay in the same iterative-bottom regime.
    env("lattice3d", Tier::Small, 3, 70, 90.0, 0),
    env("lattice3d", Tier::Medium, 3, 90, 55.0, 0),
    env("lattice3d", Tier::Large, 3, 90, 80.0, 0),
    // barbell: measured depth 1/1/1, it 24/29/63, work 11.5/43.6/1001×m.
    // The cut stops the medium tier at depth 1 (was depth 6 at 1637×m,
    // 45 it), above its κ-clamped level; `barbell_medium_exercises_kappa_clamp`
    // keeps that path covered. The large tier's feeble bridges make its
    // iterative bottom slow.
    env("barbell", Tier::Small, 3, 50, 25.0, 0),
    env("barbell", Tier::Medium, 2, 90, 90.0, 0),
    env("barbell", Tier::Large, 3, 80, 2_000.0, 0),
];

const fn env(
    family: &'static str,
    tier: Tier,
    max_depth: usize,
    max_iterations: usize,
    max_work_per_edge: f64,
    min_clamp_hits: usize,
) -> Envelope {
    Envelope {
        family,
        tier,
        max_depth,
        max_iterations,
        max_work_per_edge,
        min_clamp_hits,
    }
}

fn envelope(family: &str, tier: Tier) -> &'static Envelope {
    ENVELOPES
        .iter()
        .find(|e| e.family == family && e.tier == tier)
        .unwrap_or_else(|| panic!("no envelope pinned for {family}/{}", tier.name()))
}

/// Builds, solves, and asserts one zoo case against its envelope.
fn check(family: &str, tier: Tier) {
    let e = envelope(family, tier);
    let g = zoo::build(family, tier);
    let run = zoo::run(&g, zoo::chain_options(family, tier), TOLERANCE);
    let q = &run.quality;
    eprintln!(
        "[zoo {family}/{}] n={} m={} it={} res={:.3e} · {}",
        tier.name(),
        g.n(),
        g.m(),
        run.iterations,
        run.relative_residual,
        q.summary()
    );
    assert!(
        run.converged && run.relative_residual <= TOLERANCE,
        "{family}/{}: not converged (it={} res={:.3e})",
        tier.name(),
        run.iterations,
        run.relative_residual
    );
    assert!(
        run.iterations <= e.max_iterations,
        "{family}/{}: {} iterations exceeds envelope {}",
        tier.name(),
        run.iterations,
        e.max_iterations
    );
    assert!(
        q.depth <= e.max_depth,
        "{family}/{}: depth {} exceeds envelope {}",
        tier.name(),
        q.depth,
        e.max_depth
    );
    let work_per_edge = q.work_per_input_edge;
    assert!(
        work_per_edge.is_finite() && work_per_edge <= e.max_work_per_edge,
        "{family}/{}: work/app {:.1}×m exceeds envelope {:.1}×m",
        tier.name(),
        work_per_edge,
        e.max_work_per_edge
    );
    assert!(
        q.kappa_clamp_hits >= e.min_clamp_hits,
        "{family}/{}: κ-clamp hit {} levels, envelope requires ≥ {} — the \
         clamp path this family exists to exercise has gone dead",
        tier.name(),
        q.kappa_clamp_hits,
        e.min_clamp_hits
    );
}

// ---------------------------------------------------------------------------
// Small tiers: run everywhere, one test per family for readable failures.
// ---------------------------------------------------------------------------

#[test]
fn rmat_small_within_envelope() {
    check("rmat", Tier::Small);
}

#[test]
fn smallworld_small_within_envelope() {
    check("smallworld", Tier::Small);
}

#[test]
fn road_small_within_envelope() {
    check("road", Tier::Small);
}

#[test]
fn lattice3d_small_within_envelope() {
    check("lattice3d", Tier::Small);
}

#[test]
fn barbell_small_within_envelope() {
    check("barbell", Tier::Small);
}

// ---------------------------------------------------------------------------
// Medium/large tiers: release-mode territory, run by the deep-chain CI job
// via `--include-ignored`.
// ---------------------------------------------------------------------------

#[test]
#[ignore = "release-mode deep-chain job workload"]
fn rmat_upper_tiers_within_envelope() {
    check("rmat", Tier::Medium);
    check("rmat", Tier::Large);
}

#[test]
#[ignore = "release-mode deep-chain job workload"]
fn smallworld_upper_tiers_within_envelope() {
    check("smallworld", Tier::Medium);
    check("smallworld", Tier::Large);
}

#[test]
#[ignore = "release-mode deep-chain job workload"]
fn road_upper_tiers_within_envelope() {
    check("road", Tier::Medium);
    check("road", Tier::Large);
}

#[test]
#[ignore = "release-mode deep-chain job workload"]
fn lattice3d_upper_tiers_within_envelope() {
    check("lattice3d", Tier::Medium);
    check("lattice3d", Tier::Large);
}

#[test]
#[ignore = "release-mode deep-chain job workload"]
fn barbell_upper_tiers_within_envelope() {
    check("barbell", Tier::Medium);
    check("barbell", Tier::Large);
}

/// Light intra-cluster extras starve barbell/medium's stretch budget into
/// the sampler's κ floor at its 495-vertex level. The default chain's cost
/// cut stops above that level, so a bottom-factor cap below the fill of
/// every level down to it keeps the level in the chain: the clamp path
/// must still fire and the chain converge.
#[test]
#[ignore = "release-mode deep-chain job workload"]
fn barbell_medium_exercises_kappa_clamp() {
    let g = zoo::build("barbell", Tier::Medium);
    let options = ChainOptions {
        direct_bottom_entry_limit: 5_000,
        ..zoo::chain_options("barbell", Tier::Medium)
    };
    let run = zoo::run(&g, options, TOLERANCE);
    let q = &run.quality;
    eprintln!(
        "[zoo barbell/medium, cap 5000] it={} res={:.3e} · {}",
        run.iterations,
        run.relative_residual,
        q.summary()
    );
    assert!(
        q.kappa_clamp_hits >= 1,
        "κ-clamp hit {} levels — the clamp path this family exists to \
         exercise has gone dead",
        q.kappa_clamp_hits
    );
    assert!(
        run.converged && run.relative_residual <= TOLERANCE,
        "not converged (it={} res={:.3e})",
        run.iterations,
        run.relative_residual
    );
}

// ---------------------------------------------------------------------------
// Generator determinism: every zoo graph is bitwise-identical across thread
// counts and across repeated runs at a fixed seed. The generators are
// sequential by construction; this pins that contract so a future
// parallelisation cannot silently break reproducibility.
// ---------------------------------------------------------------------------

fn edge_bits(g: &parsdd_graph::Graph) -> Vec<(u32, u32, u64)> {
    g.edges()
        .iter()
        .map(|e| (e.u, e.v, e.w.to_bits()))
        .collect()
}

#[test]
fn zoo_generators_deterministic_across_threads_and_runs() {
    for &family in zoo::FAMILIES {
        let reference = edge_bits(&zoo::build(family, Tier::Small));
        let repeat = edge_bits(&zoo::build(family, Tier::Small));
        assert_eq!(
            reference, repeat,
            "{family}: repeated build at fixed seed differs"
        );
        for threads in [1usize, 2, 4] {
            let built = with_threads(threads, || edge_bits(&zoo::build(family, Tier::Small)));
            assert_eq!(
                reference, built,
                "{family}: build differs at {threads} threads"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Adaptive per-level parameter selection: opt-in only. Defaults stay
// pinned (grid-path bitwise contract), and the adaptive schedule must
// build a working chain on structurally different families.
// ---------------------------------------------------------------------------

#[test]
fn adaptive_selection_is_opt_in_and_defaults_are_pinned() {
    let d = ChainOptions::default();
    assert!(!d.adaptive, "adaptive selection must stay opt-in");
    assert_eq!(d.adaptive_kappa_target, 256.0);
    assert_eq!(d.tree_scale, 8.0);
    assert_eq!(d.extra_fraction, 0.35);
    // A default build must be bitwise-independent of the adaptive knobs'
    // values (they are dead unless `adaptive` is set).
    let g = zoo::build("road", Tier::Small);
    let base = build_chain(&g, &ChainOptions::default());
    let tweaked = ChainOptions {
        adaptive_kappa_target: 64.0,
        ..Default::default()
    };
    let same = build_chain(&g, &tweaked);
    assert_eq!(base.stats().level_edges, same.stats().level_edges);
    assert_eq!(base.stats().kappa_eff, same.stats().kappa_eff);
}

#[test]
fn adaptive_selection_converges_off_grid() {
    for family in ["road", "barbell"] {
        let g = zoo::build(family, Tier::Small);
        let mut opts = SddSolverOptions::default().with_tolerance(TOLERANCE);
        opts.chain = ChainOptions::default().with_adaptive();
        let solver = SddSolver::new_laplacian(&g, opts);
        let b = parsdd_bench::workloads::rhs(g.n(), 7);
        let out = solver.solve(&b);
        eprintln!(
            "[zoo adaptive {family}/small] it={} res={:.3e} · {}",
            out.iterations,
            out.relative_residual,
            solver.chain().quality().summary()
        );
        assert!(
            out.converged && out.relative_residual <= TOLERANCE,
            "{family}/small with adaptive selection: not converged \
             (it={} res={:.3e})",
            out.iterations,
            out.relative_residual
        );
    }
}
