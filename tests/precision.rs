//! Conformance contracts of the mixed-precision chain tier
//! (`ChainOptions::precision = F32`, DESIGN.md §2.7).
//!
//! The f32 tier trades streamed bytes, not answers or reproducibility:
//!
//! 1. f32 chains converge to the same 1e-8 outer tolerance as f64 across
//!    the zoo small tiers, with iteration counts inside a pinned ≤1.5×
//!    envelope — the flexible outer PCG absorbs the approximate
//!    preconditioner.
//! 2. The f32 path is itself bitwise-reproducible across pool widths
//!    {1, 2, 4} — every kernel (f64-accumulating or all-f32) uses a
//!    fixed width-independent reduction tree — and batched solves match
//!    looped single solves bitwise.
//! 3. The f64 default is bitwise-identical with the knob absent and with
//!    it explicitly set to `F64` — the determinism-pinned path gains no
//!    new behavior.
//! 4. The residency claim is measured: both tiers drop their per-level
//!    CSR graphs after calibration, so each demoted f32 level holds
//!    ≤ 0.72× the matrix-stream bytes of its f64 counterpart (level 0
//!    stays f64 on both tiers and is byte-identical).

use parsdd_bench::zoo::{self, Tier};
use parsdd_graph::parutil::with_threads;
use parsdd_solver::chain::{build_chain, ChainOptions, Precision};

const TOLERANCE: f64 = 1e-8;

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n)
        .map(|i| (((i as u64).wrapping_mul(seed.wrapping_add(13)) % 29) as f64) - 14.0)
        .collect();
    let mean = b.iter().sum::<f64>() / n as f64;
    b.iter_mut().for_each(|v| *v -= mean);
    b
}

/// Zoo small tiers: the f32 chain reaches the same 1e-8 tolerance with an
/// iteration count within 1.5× of the f64 chain's, and each demoted chain
/// level holds at most 0.72× the resident bytes (level 0 stays f64 on
/// both tiers, so it is byte-identical).
#[test]
fn f32_zoo_small_converges_within_iteration_envelope() {
    for &family in zoo::FAMILIES {
        let g = zoo::build(family, Tier::Small);
        let opts = zoo::chain_options(family, Tier::Small);
        let f64_run = zoo::run(&g, opts.with_precision(Precision::F64), TOLERANCE);
        let f32_run = zoo::run(&g, opts.with_precision(Precision::F32), TOLERANCE);
        eprintln!(
            "[precision {family}/small] f64 it={} f32 it={} res={:.3e}",
            f64_run.iterations, f32_run.iterations, f32_run.relative_residual
        );
        assert!(
            f32_run.converged && f32_run.relative_residual <= TOLERANCE,
            "{family}: f32 chain did not converge (it={} res={:.3e})",
            f32_run.iterations,
            f32_run.relative_residual
        );
        assert!(
            f32_run.iterations as f64 <= 1.5 * f64_run.iterations.max(1) as f64,
            "{family}: f32 took {} iterations vs f64's {} — outside the 1.5× envelope",
            f32_run.iterations,
            f64_run.iterations
        );
        // The residency acceptance bound, per chain level (the bottom
        // keeps its f64 matrix + graph for the iterative fallback and is
        // only required to shrink).
        let s64 = build_chain(&g, &opts.with_precision(Precision::F64)).stats();
        let s32 = build_chain(&g, &opts.with_precision(Precision::F32)).stats();
        let depth = s32.level_resident_bytes.len() - 1;
        if depth > 0 {
            assert_eq!(
                s32.level_resident_bytes[0], s64.level_resident_bytes[0],
                "{family}: level 0 stays f64 on both tiers"
            );
        }
        for i in 1..depth {
            assert!(
                s32.level_resident_bytes[i] as f64 <= 0.72 * s64.level_resident_bytes[i] as f64,
                "{family} level {i}: f32 resident {} vs f64 {}",
                s32.level_resident_bytes[i],
                s64.level_resident_bytes[i]
            );
        }
        if depth > 0 {
            assert!(
                s32.resident_bytes < s64.resident_bytes,
                "{family}: no total saving"
            );
            assert!(
                s32.streamed_bytes_per_application < s64.streamed_bytes_per_application,
                "{family}: no streamed-byte saving"
            );
        }
    }
}

/// Chain structure, calibration, and solve iterates of the f32 tier as
/// comparable bits.
fn f32_solve_bits(g: &parsdd_graph::Graph, b: &[f64]) -> Vec<u64> {
    let chain = build_chain(g, &ChainOptions::default().with_precision(Precision::F32));
    let mut fp = vec![chain.depth() as u64];
    for lvl in chain.levels() {
        fp.push(lvl.n() as u64);
        fp.push(lvl.m() as u64);
        fp.push(lvl.cheb_bounds.0.to_bits());
        fp.push(lvl.cheb_bounds.1.to_bits());
        fp.push(lvl.inner_iterations as u64);
    }
    let out = chain.solve(b, TOLERANCE, 300);
    fp.push(out.iterations as u64);
    fp.push(out.relative_residual.to_bits());
    fp.extend(out.x.iter().map(|v| v.to_bits()));
    fp
}

/// The f32 path holds the same width-independence contract as the f64
/// path: builds and solves are bitwise identical at pool widths 1, 2, 4.
#[test]
fn f32_chains_bitwise_identical_across_pool_widths() {
    let grid = parsdd_graph::generators::grid2d(40, 40, |x, y| 1.0 + ((x * 3 + y) % 5) as f64);
    let road = zoo::build("road", Tier::Small);
    for g in [&grid, &road] {
        let b = rhs(g.n(), 17);
        let base = with_threads(1, || f32_solve_bits(g, &b));
        for threads in [2usize, 4] {
            let fp = with_threads(threads, || f32_solve_bits(g, &b));
            assert_eq!(base, fp, "f32 solve differs at pool width {threads}");
        }
    }
}

/// Batched f32 solves are bitwise identical to looped single solves —
/// the block kernels' per-column arithmetic is width-invariant in the
/// f32 tier exactly as in the f64 tier.
#[test]
fn f32_batched_solves_match_looped_bitwise() {
    use parsdd_linalg::MultiVector;
    let g = parsdd_graph::generators::grid2d(36, 36, |_, _| 1.0);
    let chain = build_chain(&g, &ChainOptions::default().with_precision(Precision::F32));
    let cols: Vec<Vec<f64>> = (0..4).map(|s| rhs(g.n(), 31 + s as u64)).collect();
    let batched = chain.solve_block(&MultiVector::from_columns(&cols), TOLERANCE, 300);
    for (j, b) in cols.iter().enumerate() {
        let single = chain.solve(b, TOLERANCE, 300);
        assert_eq!(batched[j].iterations, single.iterations, "column {j}");
        assert_eq!(
            batched[j].relative_residual.to_bits(),
            single.relative_residual.to_bits(),
            "column {j}"
        );
        for (a, s) in batched[j].x.iter().zip(&single.x) {
            assert_eq!(a.to_bits(), s.to_bits(), "column {j} solution");
        }
    }
}

/// FNV-1a over the little-endian bytes of one 64-bit word.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &byte| {
        (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One `u64` over everything a chain of `precision` computes: structure
/// (level sizes, W-cycle widths, bottom kind and size), calibrated
/// `cheb_bounds`, and outcome bits (iterations, residual, every solution
/// entry) of a width-1 solve and a width-3 block solve. Runs a 48×48
/// weighted grid (direct bottom) and zoo smallworld/small with
/// `direct_bottom_entry_limit: 0` (iterative bottom).
fn golden_fingerprint(precision: Precision) -> u64 {
    use parsdd_linalg::MultiVector;
    let grid = parsdd_graph::generators::grid2d(48, 48, |x, y| 1.0 + ((x * 3 + y) % 5) as f64);
    let smallworld = zoo::build("smallworld", Tier::Small);
    let iterative_bottom = ChainOptions {
        direct_bottom_entry_limit: 0,
        ..ChainOptions::default()
    };
    let mut words: Vec<u64> = Vec::new();
    for (g, options) in [
        (&grid, ChainOptions::default()),
        (&smallworld, iterative_bottom),
    ] {
        let chain = build_chain(g, &options.with_precision(precision));
        let stats = chain.stats();
        words.extend([
            stats.direct_bottom as u64,
            stats.bottom_factor_nnz as u64,
            stats.bottom_iterations as u64,
        ]);
        words.extend(
            (stats.level_vertices.iter())
                .chain(&stats.level_edges)
                .chain(&stats.inner_iterations)
                .map(|&v| v as u64),
        );
        for lvl in chain.levels() {
            words.extend([lvl.cheb_bounds.0.to_bits(), lvl.cheb_bounds.1.to_bits()]);
        }
        let cols: Vec<Vec<f64>> = (0..3).map(|s| rhs(g.n(), 41 + s)).collect();
        let single = chain.solve(&cols[0], TOLERANCE, 300);
        let block = chain.solve_block(&MultiVector::from_columns(&cols), TOLERANCE, 300);
        for out in std::iter::once(&single).chain(&block) {
            words.extend([out.iterations as u64, out.relative_residual.to_bits()]);
            words.extend(out.x.iter().map(|v| v.to_bits()));
        }
    }
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, fnv1a)
}

/// Absolute golden bits of both precisions. Every other bitwise pin
/// compares a build with itself (pool widths, batched vs looped, knob
/// absent vs explicit), so a change that moves the arithmetic the same
/// way in every run passes them all; this one does not. The constants
/// change only together with a numeric change stated in CHANGES.md.
/// Gated to x86-64, where they were captured (the libm calls of the build
/// may round differently elsewhere).
#[cfg(target_arch = "x86_64")]
#[test]
fn golden_fingerprints_match_committed_bits() {
    assert_eq!(
        golden_fingerprint(Precision::F64),
        0x9909_9978_0df1_16b0,
        "f64 golden fingerprint moved"
    );
    assert_eq!(
        golden_fingerprint(Precision::F32),
        0x544e_b9b0_d0e1_5b73,
        "f32 golden fingerprint moved"
    );
}

/// The committed f64 behavior is unchanged by the knob's existence: a
/// default build and an explicit `F64` build produce bitwise-identical
/// structure and solves, and every level drops its build-time CSR after
/// calibration (the streamed matrices are the only resident state).
#[test]
fn f64_default_unchanged_with_knob_absent_or_explicit() {
    let g = zoo::build("rmat", Tier::Small);
    let b = rhs(g.n(), 3);
    let implicit = build_chain(&g, &ChainOptions::default());
    let explicit = build_chain(&g, &ChainOptions::default().with_precision(Precision::F64));
    assert_eq!(implicit.stats().level_edges, explicit.stats().level_edges);
    assert_eq!(implicit.stats().kappa_eff, explicit.stats().kappa_eff);
    assert_eq!(
        implicit.stats().level_resident_bytes,
        explicit.stats().level_resident_bytes
    );
    let xa = implicit.solve(&b, TOLERANCE, 300);
    let xb = explicit.solve(&b, TOLERANCE, 300);
    assert_eq!(xa.iterations, xb.iterations);
    for (u, v) in xa.x.iter().zip(&xb.x) {
        assert_eq!(u.to_bits(), v.to_bits());
    }
    for lvl in implicit.levels() {
        assert_eq!(lvl.storage_precision(), Precision::F64);
    }
}
