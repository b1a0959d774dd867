//! Conformance suite for the CSR `edge_map` traversal core and the
//! refactored pipeline built on it.
//!
//! Two contracts are pinned here:
//!
//! 1. `edge_map` under forced sparse push, forced dense pull, and the
//!    direction-optimizing auto switch produces **bitwise identical**
//!    output frontiers and per-vertex claim values vs the sequential
//!    reference [`edge_map_seq`], at pool widths 1, 2 and 4.
//! 2. The refactored `build_chain` + `solve` pipeline is numerically
//!    unchanged: width-deterministic on grid + zoo small tiers, and its
//!    solutions agree with a conjugate-gradient reference to 1e-10.

use parsdd_graph::parutil::with_threads;
use parsdd_graph::{
    edge_map, edge_map_seq, generators, Direction, EdgeMapOp, Frontier, Graph, VertexId,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Deterministic per-arc claim key: a pure function of the *source*, so a
/// destination's final value is `min` over its frontier in-neighbours —
/// commutative and order-free, hence width-deterministic under atomics.
fn claim_key(src: VertexId) -> u64 {
    let mut z = (src as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead_beef;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    // Keep strictly below the u64::MAX sentinel.
    z >> 1
}

/// Min-claim relaxation: every destination keeps the smallest key among
/// the frontier sources that reach it. The canonical commutative-
/// deterministic `EdgeMapOp` (the BFS/components claim pattern).
struct MinClaim<'a> {
    values: &'a [AtomicU64],
}

impl EdgeMapOp for MinClaim<'_> {
    fn update(&self, src: VertexId, dst: VertexId, _w: f64, _arc: usize) -> bool {
        let key = claim_key(src);
        let slot = &self.values[dst as usize];
        let cur = slot.load(Ordering::Relaxed);
        if key < cur {
            slot.store(key, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn update_atomic(&self, src: VertexId, dst: VertexId, _w: f64, _arc: usize) -> bool {
        let key = claim_key(src);
        self.values[dst as usize].fetch_min(key, Ordering::Relaxed) > key
    }

    fn cond(&self, _dst: VertexId) -> bool {
        true
    }
}

fn fresh_values(n: usize) -> Vec<AtomicU64> {
    (0..n).map(|_| AtomicU64::new(u64::MAX)).collect()
}

fn snapshot(values: &[AtomicU64]) -> Vec<u64> {
    values.iter().map(|v| v.load(Ordering::Relaxed)).collect()
}

/// Runs one `edge_map` configuration and returns (sorted frontier,
/// post-state values).
fn run_parallel(
    g: &Graph,
    frontier: &Frontier,
    forced: Option<Direction>,
) -> (Vec<VertexId>, Vec<u64>) {
    let values = fresh_values(g.n());
    let op = MinClaim { values: &values };
    let out = edge_map(g, frontier, &op, forced);
    (out.frontier.to_sorted_vec(), snapshot(&values))
}

fn run_sequential(g: &Graph, frontier: &Frontier) -> (Vec<VertexId>, Vec<u64>) {
    let values = fresh_values(g.n());
    let op = MinClaim { values: &values };
    let out = edge_map_seq(g, frontier, &op);
    (out, snapshot(&values))
}

/// A random weighted graph plus a random subset frontier (drawn with the
/// counter RNG so the shim's strategy surface suffices).
fn graph_and_frontier() -> impl Strategy<Value = (Graph, Vec<VertexId>)> {
    (2usize..120, 0usize..300, 0u64..1_000, 0u64..1_000).prop_map(|(n, extra, seed, fseed)| {
        let g = generators::weighted_random_graph(n, n - 1 + extra, 0.5, 4.0, seed);
        let count = (generators::counter_u64(fseed, 0) as usize) % n.max(1);
        let picks: Vec<VertexId> = (0..count)
            .map(|i| (generators::counter_u64(fseed, 1 + i as u64) as usize % n) as VertexId)
            .collect();
        (g, picks)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sparse push, dense pull, and the auto switch all match the
    /// sequential reference bitwise — frontier and values — at pool
    /// widths 1, 2 and 4.
    #[test]
    fn edge_map_matches_sequential_reference(case in graph_and_frontier()) {
        let (g, mut picks) = case;
        picks.sort_unstable();
        picks.dedup();
        let frontier = Frontier::from_sorted(picks);
        let (seq_frontier, seq_values) = run_sequential(&g, &frontier);
        for threads in [1usize, 2, 4] {
            for forced in [Some(Direction::SparsePush), Some(Direction::DensePull), None] {
                let (f, v) = with_threads(threads, || run_parallel(&g, &frontier, forced));
                prop_assert_eq!(&f, &seq_frontier);
                prop_assert_eq!(&v, &seq_values);
            }
        }
    }
}

#[test]
fn edge_map_dense_and_sparse_agree_on_full_frontier() {
    // The full frontier forces the auto switch dense; confirm both forced
    // directions still agree with it and the reference.
    let g = generators::grid2d(24, 24, |x, y| 1.0 + ((x + 2 * y) % 7) as f64);
    let frontier = Frontier::all(g.n());
    let (seq_f, seq_v) = run_sequential(&g, &frontier);
    let (auto_f, auto_v) = run_parallel(&g, &frontier, None);
    let (push_f, push_v) = run_parallel(&g, &frontier, Some(Direction::SparsePush));
    let (pull_f, pull_v) = run_parallel(&g, &frontier, Some(Direction::DensePull));
    assert_eq!(auto_f, seq_f);
    assert_eq!(push_f, seq_f);
    assert_eq!(pull_f, seq_f);
    assert_eq!(auto_v, seq_v);
    assert_eq!(push_v, seq_v);
    assert_eq!(pull_v, seq_v);
}

#[test]
fn repeated_sparse_ids_match_the_deduplicated_frontier() {
    // `Frontier::Sparse` is public, so a caller may build one with
    // repeated ids; both directions must treat it as its set. The
    // repeated list is longer than `SEQ_CUTOFF`, so a parallel scatter
    // of its flags would split it across tasks.
    let g = generators::grid2d(80, 80, |x, y| 1.0 + ((x + 2 * y) % 7) as f64);
    let ids: Vec<VertexId> = (0..g.n() as VertexId).step_by(3).collect();
    let repeated: Vec<VertexId> = ids.iter().flat_map(|&v| [v, v, v]).collect();
    assert!(repeated.len() > parsdd_graph::parutil::SEQ_CUTOFF);
    let repeated = Frontier::Sparse(repeated);
    let dedup = Frontier::from_sorted(ids);
    for threads in [1usize, 2, 4] {
        for forced in [Direction::SparsePush, Direction::DensePull] {
            let got = with_threads(threads, || run_parallel(&g, &repeated, Some(forced)));
            let expect = with_threads(threads, || run_parallel(&g, &dedup, Some(forced)));
            assert_eq!(got, expect, "{forced:?} at width {threads}");
        }
    }
}

#[test]
fn edge_map_empty_frontier_is_a_no_op() {
    let g = generators::grid2d(8, 8, |_, _| 1.0);
    let (f, v) = run_parallel(&g, &Frontier::empty(), None);
    assert!(f.is_empty());
    assert!(v.iter().all(|&x| x == u64::MAX));
}

// ---------------------------------------------------------------------------
// Full-pipeline pin: the CSR-era `build_chain`/`solve` is numerically
// unchanged.
// ---------------------------------------------------------------------------

use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};

fn pipeline_rhs(n: usize) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n)
        .map(|i| (((i as u64).wrapping_mul(29) % 17) as f64) - 8.0)
        .collect();
    let mean = b.iter().sum::<f64>() / n as f64;
    for x in b.iter_mut() {
        *x -= mean;
    }
    b
}

/// Solve through the chain and return the solution bits.
fn solve_bits(g: &Graph, b: &[f64]) -> Vec<u64> {
    let solver = SddSolver::new_laplacian(g, SddSolverOptions::default().with_tolerance(1e-10));
    let out = solver.solve(b);
    assert!(
        out.converged,
        "pipeline solve failed: {}",
        out.relative_residual
    );
    out.x.iter().map(|v| v.to_bits()).collect()
}

/// `build_chain` + `solve` are bitwise width-deterministic on the grid and
/// zoo small tiers, and the solutions agree with a CG reference to 1e-10
/// in relative L2 terms.
#[test]
fn pipeline_unchanged_on_grid_and_zoo_small_tiers() {
    let cases: Vec<(&str, Graph)> = vec![
        (
            "grid",
            generators::grid2d(32, 32, |x, y| 1.0 + ((x * 5 + y) % 9) as f64),
        ),
        (
            "rmat",
            parsdd_bench::zoo::build("rmat", parsdd_bench::zoo::Tier::Small),
        ),
        (
            "road",
            parsdd_bench::zoo::build("road", parsdd_bench::zoo::Tier::Small),
        ),
    ];
    for (name, g) in cases {
        let b = pipeline_rhs(g.n());
        let base = with_threads(1, || solve_bits(&g, &b));
        for threads in [2usize, 4] {
            let bits = with_threads(threads, || solve_bits(&g, &b));
            assert_eq!(base, bits, "{name}: solution diverges at width {threads}");
        }
        // Numerical pin against the conjugate-gradient reference: both
        // answer the same singular system, so compare after projecting out
        // the nullspace component.
        let x: Vec<f64> = base.iter().map(|&bits| f64::from_bits(bits)).collect();
        let cg = parsdd_solver::baseline::solve_cg(&g, &b, 1e-12, 50_000);
        assert!(cg.converged, "{name}: CG reference failed");
        let xm = x.iter().sum::<f64>() / x.len() as f64;
        let cm = cg.x.iter().sum::<f64>() / cg.x.len() as f64;
        let mut diff2 = 0.0;
        let mut ref2 = 0.0;
        for (a, c) in x.iter().zip(&cg.x) {
            let d = (a - xm) - (c - cm);
            diff2 += d * d;
            ref2 += (c - cm) * (c - cm);
        }
        let rel = (diff2 / ref2.max(1e-300)).sqrt();
        assert!(rel < 1e-6, "{name}: chain vs CG relative gap {rel}");
    }
}
