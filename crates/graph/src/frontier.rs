//! Ligra/GBBS-style frontier traversal primitives: [`edge_map`] and
//! [`vertex_map`] over any flat-CSR graph, with a direction-optimizing
//! dense/sparse switch.
//!
//! An [`edge_map`] relaxes every arc leaving the input frontier through a
//! user [`EdgeMapOp`] and returns the frontier of destinations whose update
//! succeeded. Two execution strategies implement the same mathematical
//! map:
//!
//! * **Sparse push** — parallelise over frontier vertices, relaxing their
//!   out-arcs with [`EdgeMapOp::update_atomic`] (which must be a
//!   commutative-deterministic atomic: `fetch_min`/`fetch_max`/CAS-claim),
//!   then sort + dedup the claimed destinations. Cost ∝ |frontier| + its
//!   out-degrees.
//! * **Dense pull** — parallelise over *all* vertices still eligible
//!   ([`EdgeMapOp::cond`]); each destination scans its in-arcs for frontier
//!   sources and applies [`EdgeMapOp::update`] sequentially in arc order
//!   (the task owns the destination, so plain writes are safe). Cost ∝ m
//!   but with perfect locality and no sort.
//!
//! The switch follows Ligra: push while `|frontier| + Σ out-degrees <
//! arcs/20`, pull otherwise (`EdgeMapOptions::threshold_divisor`).
//!
//! **Determinism contract.** For ops whose updates are commutative and
//! deterministic (every op in this repo), both directions produce bitwise
//! identical frontiers and per-vertex values at every pool width, equal to
//! the sequential reference [`edge_map_seq`]: sparse output is sorted and
//! deduplicated, dense output is a flag vector, and the direction choice
//! itself depends only on deterministic counts. All parallel loops ride the
//! work-stealing shim whose reductions are integer (order-free) sums.

use crate::csr::Csr;
use crate::graph::{Graph, VertexId};
use crate::parutil::{SyncMutPtr, SEQ_CUTOFF};
use rayon::prelude::*;

/// Anything that exposes a flat CSR view: [`Graph`], [`Csr`], and the
/// zero-copy mmap views in [`io`](crate::io).
pub trait CsrLike: Sync {
    /// Number of vertices.
    fn n(&self) -> usize;
    /// Number of directed arcs (`2m` for an undirected graph).
    fn arc_count(&self) -> usize;
    /// Half-open arc range of vertex `v` in the flat arc arrays.
    fn arc_range(&self, v: VertexId) -> (usize, usize);
    /// The flat arc-target array, length [`arc_count`](Self::arc_count).
    fn arc_targets(&self) -> &[VertexId];
    /// The flat arc-weight array, aligned with the targets.
    fn arc_weights(&self) -> &[f64];

    /// Degree of vertex `v`.
    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let (lo, hi) = self.arc_range(v);
        hi - lo
    }
}

impl CsrLike for Graph {
    #[inline]
    fn n(&self) -> usize {
        Graph::n(self)
    }
    #[inline]
    fn arc_count(&self) -> usize {
        self.csr_targets().len()
    }
    #[inline]
    fn arc_range(&self, v: VertexId) -> (usize, usize) {
        let o = self.csr_offsets();
        (o[v as usize], o[v as usize + 1])
    }
    #[inline]
    fn arc_targets(&self) -> &[VertexId] {
        self.csr_targets()
    }
    #[inline]
    fn arc_weights(&self) -> &[f64] {
        self.csr_weights()
    }
}

impl CsrLike for Csr {
    #[inline]
    fn n(&self) -> usize {
        Csr::n(self)
    }
    #[inline]
    fn arc_count(&self) -> usize {
        Csr::arc_count(self)
    }
    #[inline]
    fn arc_range(&self, v: VertexId) -> (usize, usize) {
        let o = self.offsets();
        (o[v as usize] as usize, o[v as usize + 1] as usize)
    }
    #[inline]
    fn arc_targets(&self) -> &[VertexId] {
        self.raw_neighbors()
    }
    #[inline]
    fn arc_weights(&self) -> &[f64] {
        self.raw_weights()
    }
}

/// A set of active vertices, in sparse (sorted id list) or dense (flag
/// vector) representation. [`edge_map`] produces sparse output from a push
/// and dense output from a pull; both canonicalise via
/// [`to_sorted_vec`](Frontier::to_sorted_vec).
#[derive(Debug, Clone)]
pub enum Frontier {
    /// Strictly increasing vertex ids.
    Sparse(Vec<VertexId>),
    /// One flag per vertex plus the number of set flags.
    Dense {
        /// Membership flags, length `n`.
        flags: Vec<bool>,
        /// Number of `true` flags.
        count: usize,
    },
}

impl Frontier {
    /// The empty frontier.
    pub fn empty() -> Self {
        Frontier::Sparse(Vec::new())
    }

    /// A single-vertex frontier.
    pub fn singleton(v: VertexId) -> Self {
        Frontier::Sparse(vec![v])
    }

    /// Builds a sparse frontier from a strictly increasing id list.
    pub fn from_sorted(vs: Vec<VertexId>) -> Self {
        debug_assert!(vs.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        Frontier::Sparse(vs)
    }

    /// The full vertex set `0..n` as a dense frontier.
    pub fn all(n: usize) -> Self {
        Frontier::Dense {
            flags: vec![true; n],
            count: n,
        }
    }

    /// Number of active vertices.
    pub fn len(&self) -> usize {
        match self {
            Frontier::Sparse(v) => v.len(),
            Frontier::Dense { count, .. } => *count,
        }
    }

    /// True when no vertex is active.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, v: VertexId) -> bool {
        match self {
            Frontier::Sparse(list) => list.binary_search(&v).is_ok(),
            Frontier::Dense { flags, .. } => flags[v as usize],
        }
    }

    /// Canonical sorted id list (parallel compaction for dense frontiers).
    pub fn to_sorted_vec(&self) -> Vec<VertexId> {
        match self {
            Frontier::Sparse(list) => list.clone(),
            Frontier::Dense { flags, .. } => (0..flags.len())
                .into_par_iter()
                .with_min_len(SEQ_CUTOFF)
                .filter(|&i| flags[i])
                .map(|i| i as VertexId)
                .collect(),
        }
    }

    /// Membership flags of length `n` (borrowless copy for sparse input).
    fn to_flags(&self, n: usize) -> Vec<bool> {
        match self {
            Frontier::Dense { flags, .. } => flags.clone(),
            Frontier::Sparse(list) => {
                let mut flags = vec![false; n];
                let fp = SyncMutPtr(flags.as_mut_ptr());
                list.par_iter().with_min_len(SEQ_CUTOFF).for_each(|&v| {
                    // SAFETY: ids in a sparse frontier are distinct, so the
                    // writes are disjoint.
                    unsafe { fp.write(v as usize, true) };
                });
                flags
            }
        }
    }
}

/// The relaxation applied to each frontier arc by [`edge_map`].
///
/// For the frontier output and per-vertex values to be deterministic (the
/// contract every caller in this repo pins), updates must be *commutative
/// and deterministic*: the post-state may not depend on the order in which
/// concurrent updates of the same destination land. `fetch_min`/`fetch_max`
/// claims and CAS-once visits qualify; floating-point accumulation does not
/// (run such ops dense-only, where each destination is updated sequentially
/// in arc order by a single task — see the PageRank app).
pub trait EdgeMapOp: Sync {
    /// Relax the arc `src → dst` with weight `w`. `arc` is the index of the
    /// scanned arc in the direction-specific flat arrays (an out-arc of
    /// `src` under sparse push, an out-arc of `dst` under dense pull; for
    /// undirected graphs both mirror arcs carry the same weight and edge
    /// id). Called from a context that owns `dst` exclusively — plain
    /// writes to per-destination state are safe. Returns true when the
    /// update succeeded (i.e. `dst` belongs in the output frontier).
    fn update(&self, src: VertexId, dst: VertexId, w: f64, arc: usize) -> bool;

    /// Like [`update`](Self::update), but `dst` may be relaxed concurrently
    /// by other sources; the implementation must use commutative atomics.
    fn update_atomic(&self, src: VertexId, dst: VertexId, w: f64, arc: usize) -> bool;

    /// Whether destination `dst` should still be processed. Checked before
    /// each relaxation; a dense pull stops scanning a destination's arcs as
    /// soon as this flips to false.
    fn cond(&self, dst: VertexId) -> bool;
}

/// Execution strategy chosen (or forced) for one [`edge_map`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Parallel over frontier vertices, atomic pushes to destinations.
    SparsePush,
    /// Parallel over destinations, sequential pulls from frontier sources.
    DensePull,
}

/// Tuning knobs for [`edge_map`].
#[derive(Debug, Clone, Copy)]
pub struct EdgeMapOptions {
    /// Pull when `|frontier| + Σ out-degrees ≥ arcs / threshold_divisor`
    /// (Ligra's default is 20).
    pub threshold_divisor: usize,
    /// Minimum items per parallel task (per-frontier grain control).
    pub grain: usize,
    /// Force a direction (used by the conformance tests; `None` = switch).
    pub forced: Option<Direction>,
}

impl Default for EdgeMapOptions {
    fn default() -> Self {
        EdgeMapOptions {
            threshold_divisor: 20,
            grain: 512,
            forced: None,
        }
    }
}

/// What one [`edge_map`] call did.
#[derive(Debug)]
pub struct EdgeMapResult {
    /// Destinations whose update succeeded (sparse and sorted after a push,
    /// dense after a pull).
    pub frontier: Frontier,
    /// The strategy that ran.
    pub direction: Direction,
    /// Arcs examined (work proxy; deterministic at every pool width).
    pub arcs_scanned: u64,
}

/// Sum of out-degrees over the frontier.
fn frontier_degree_sum<G: CsrLike>(g: &G, frontier: &Frontier, grain: usize) -> u64 {
    match frontier {
        Frontier::Sparse(list) => list
            .par_iter()
            .with_min_len(grain)
            .map(|&v| g.degree(v) as u64)
            .sum(),
        Frontier::Dense { flags, .. } => (0..g.n())
            .into_par_iter()
            .with_min_len(grain.max(SEQ_CUTOFF / 4))
            .map(|v| {
                if flags[v] {
                    g.degree(v as VertexId) as u64
                } else {
                    0
                }
            })
            .sum(),
    }
}

/// Applies `op` to every arc leaving `frontier`, returning the output
/// frontier plus what ran. See the module docs for the two strategies and
/// the determinism contract.
pub fn edge_map<G: CsrLike, O: EdgeMapOp>(
    g: &G,
    frontier: &Frontier,
    op: &O,
    opts: EdgeMapOptions,
) -> EdgeMapResult {
    let degree_sum = frontier_degree_sum(g, frontier, opts.grain);
    let work = frontier.len() as u64 + degree_sum;
    let threshold = (g.arc_count() / opts.threshold_divisor.max(1)) as u64;
    let direction = match opts.forced {
        Some(d) => d,
        None => {
            if work < threshold {
                Direction::SparsePush
            } else {
                Direction::DensePull
            }
        }
    };
    match direction {
        Direction::SparsePush => edge_map_sparse(g, frontier, op, opts.grain, degree_sum),
        Direction::DensePull => edge_map_dense(g, frontier, op, opts.grain),
    }
}

fn edge_map_sparse<G: CsrLike, O: EdgeMapOp>(
    g: &G,
    frontier: &Frontier,
    op: &O,
    grain: usize,
    degree_sum: u64,
) -> EdgeMapResult {
    let list = frontier.to_sorted_vec();
    let targets = g.arc_targets();
    let weights = g.arc_weights();
    let mut out: Vec<VertexId> = list
        .par_iter()
        .with_min_len(grain)
        .flat_map_iter(|&s| {
            let (lo, hi) = g.arc_range(s);
            (lo..hi).filter_map(move |arc| {
                let d = targets[arc];
                if op.cond(d) && op.update_atomic(s, d, weights[arc], arc) {
                    Some(d)
                } else {
                    None
                }
            })
        })
        .collect();
    out.par_sort_unstable();
    out.dedup();
    EdgeMapResult {
        frontier: Frontier::Sparse(out),
        direction: Direction::SparsePush,
        arcs_scanned: degree_sum,
    }
}

fn edge_map_dense<G: CsrLike, O: EdgeMapOp>(
    g: &G,
    frontier: &Frontier,
    op: &O,
    grain: usize,
) -> EdgeMapResult {
    let n = g.n();
    let in_flags = frontier.to_flags(n);
    let targets = g.arc_targets();
    let weights = g.arc_weights();
    let mut out_flags = vec![false; n];
    let ofp = SyncMutPtr(out_flags.as_mut_ptr());
    let arcs_scanned: u64 = (0..n)
        .into_par_iter()
        .with_min_len(grain)
        .map(|du| {
            let d = du as VertexId;
            if !op.cond(d) {
                return 0u64;
            }
            let (lo, hi) = g.arc_range(d);
            let mut any = false;
            let mut scanned = 0u64;
            for arc in lo..hi {
                let s = targets[arc];
                scanned += 1;
                if in_flags[s as usize] && op.update(s, d, weights[arc], arc) {
                    any = true;
                }
                if !op.cond(d) {
                    break;
                }
            }
            if any {
                // SAFETY: this task owns destination `du` exclusively.
                unsafe { ofp.write(du, true) };
            }
            scanned
        })
        .sum();
    let count = out_flags
        .par_iter()
        .with_min_len(SEQ_CUTOFF)
        .filter(|&&f| f)
        .count();
    EdgeMapResult {
        frontier: Frontier::Dense {
            flags: out_flags,
            count,
        },
        direction: Direction::DensePull,
        arcs_scanned,
    }
}

/// Sequential reference for [`edge_map`]: frontier vertices in sorted
/// order, arcs in CSR order, [`EdgeMapOp::update`] only. The conformance
/// suites pin both parallel directions bitwise against this.
pub fn edge_map_seq<G: CsrLike, O: EdgeMapOp>(g: &G, frontier: &Frontier, op: &O) -> Vec<VertexId> {
    let targets = g.arc_targets();
    let weights = g.arc_weights();
    let mut out = Vec::new();
    for s in frontier.to_sorted_vec() {
        let (lo, hi) = g.arc_range(s);
        for arc in lo..hi {
            let d = targets[arc];
            if op.cond(d) && op.update(s, d, weights[arc], arc) {
                out.push(d);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Applies `f` to every vertex of the frontier, in parallel with the given
/// grain. `f` must be safe to run concurrently on distinct vertices.
pub fn vertex_map<F: Fn(VertexId) + Sync>(frontier: &Frontier, grain: usize, f: F) {
    match frontier {
        Frontier::Sparse(list) => {
            list.par_iter().with_min_len(grain).for_each(|&v| f(v));
        }
        Frontier::Dense { flags, .. } => {
            (0..flags.len())
                .into_par_iter()
                .with_min_len(grain)
                .for_each(|v| {
                    if flags[v] {
                        f(v as VertexId);
                    }
                });
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::generators;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// BFS-style visit op: claim unvisited destinations with
    /// `fetch_min(source id)` — commutative and deterministic.
    pub(crate) struct MinClaim {
        label: Vec<AtomicU64>,
    }

    impl MinClaim {
        pub(crate) fn new(n: usize) -> Self {
            MinClaim {
                label: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
            }
        }
        pub(crate) fn labels(&self) -> Vec<u64> {
            self.label
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect()
        }
    }

    impl EdgeMapOp for MinClaim {
        fn update(&self, src: VertexId, dst: VertexId, _w: f64, _arc: usize) -> bool {
            let prev = self.label[dst as usize].fetch_min(src as u64, Ordering::AcqRel);
            (src as u64) < prev
        }
        fn update_atomic(&self, src: VertexId, dst: VertexId, w: f64, arc: usize) -> bool {
            self.update(src, dst, w, arc)
        }
        fn cond(&self, dst: VertexId) -> bool {
            self.label[dst as usize].load(Ordering::Acquire) == u64::MAX
        }
    }

    #[test]
    fn sparse_and_dense_match_sequential() {
        let g = generators::grid2d(15, 11, |_, _| 1.0);
        let frontier = Frontier::from_sorted(vec![0, 7, 40, 100]);
        let seq_op = MinClaim::new(g.n());
        let expect = edge_map_seq(&g, &frontier, &seq_op);
        for forced in [Direction::SparsePush, Direction::DensePull] {
            let op = MinClaim::new(g.n());
            let r = edge_map(
                &g,
                &frontier,
                &op,
                EdgeMapOptions {
                    forced: Some(forced),
                    ..Default::default()
                },
            );
            assert_eq!(r.frontier.to_sorted_vec(), expect, "{forced:?}");
            assert_eq!(op.labels(), seq_op.labels(), "{forced:?}");
            assert!(r.arcs_scanned > 0);
        }
    }

    #[test]
    fn switch_picks_sparse_for_tiny_frontiers() {
        let g = generators::grid2d(40, 40, |_, _| 1.0);
        let op = MinClaim::new(g.n());
        let r = edge_map(&g, &Frontier::singleton(0), &op, EdgeMapOptions::default());
        assert_eq!(r.direction, Direction::SparsePush);
        let op2 = MinClaim::new(g.n());
        let r2 = edge_map(&g, &Frontier::all(g.n()), &op2, EdgeMapOptions::default());
        assert_eq!(r2.direction, Direction::DensePull);
    }

    #[test]
    fn frontier_representations_agree() {
        let f = Frontier::from_sorted(vec![1, 5, 9]);
        let flags = f.to_flags(12);
        let d = Frontier::Dense { flags, count: 3 };
        assert_eq!(f.len(), d.len());
        assert_eq!(f.to_sorted_vec(), d.to_sorted_vec());
        assert!(d.contains(5) && !d.contains(4));
        assert!(f.contains(9) && !f.contains(0));
    }

    #[test]
    fn vertex_map_visits_exactly_frontier() {
        let seen: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(0)).collect();
        let f = Frontier::from_sorted(vec![2, 3, 8]);
        vertex_map(&f, 4, |v| {
            seen[v as usize].fetch_add(1, Ordering::Relaxed);
        });
        let counts: Vec<u64> = seen.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        assert_eq!(counts, vec![0, 0, 1, 1, 0, 0, 0, 0, 1, 0]);
    }
}
