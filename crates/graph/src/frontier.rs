//! Ligra/GBBS-style frontier traversal: [`edge_map`] over a [`Graph`]'s
//! CSR arrays, with a direction-optimizing dense/sparse switch.
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
//! arcs/20`, pull otherwise. A caller may pin either direction instead.
//!
//! **Determinism contract.** For ops whose updates are commutative and
//! deterministic (every op in this repo), both directions produce bitwise
//! identical frontiers and per-vertex values at every pool width, equal to
//! the sequential reference [`edge_map_seq`]: sparse output is sorted and
//! deduplicated, dense output is a flag vector, and the direction choice
//! itself depends only on deterministic counts. All parallel loops ride the
//! work-stealing shim whose reductions are integer (order-free) sums.

use crate::graph::{Graph, VertexId};
use crate::parutil::{SyncMutPtr, SEQ_CUTOFF};
use rayon::prelude::*;

/// Pull when `|frontier| + Σ out-degrees ≥ arcs / THRESHOLD_DIVISOR`
/// (Ligra's default).
const THRESHOLD_DIVISOR: usize = 20;

/// Minimum items per parallel task.
const GRAIN: usize = 512;

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
    /// A sequential scatter: `Frontier::Sparse` is public, so its ids may
    /// repeat, and a repeated id written by two tasks would be a race.
    fn to_flags(&self, n: usize) -> Vec<bool> {
        match self {
            Frontier::Dense { flags, .. } => flags.clone(),
            Frontier::Sparse(list) => {
                let mut flags = vec![false; n];
                for &v in list {
                    flags[v as usize] = true;
                }
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
fn frontier_degree_sum(g: &Graph, frontier: &Frontier) -> u64 {
    match frontier {
        Frontier::Sparse(list) => list
            .par_iter()
            .with_min_len(GRAIN)
            .map(|&v| g.degree(v) as u64)
            .sum(),
        Frontier::Dense { flags, .. } => (0..g.n())
            .into_par_iter()
            .with_min_len(GRAIN.max(SEQ_CUTOFF / 4))
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
/// frontier plus what ran. `forced` pins a direction (`None` lets the
/// switch pick). See the module docs for the two strategies and the
/// determinism contract.
pub fn edge_map<O: EdgeMapOp>(
    g: &Graph,
    frontier: &Frontier,
    op: &O,
    forced: Option<Direction>,
) -> EdgeMapResult {
    let degree_sum = frontier_degree_sum(g, frontier);
    let work = frontier.len() as u64 + degree_sum;
    let threshold = (g.csr_targets().len() / THRESHOLD_DIVISOR) as u64;
    let direction = forced.unwrap_or(if work < threshold {
        Direction::SparsePush
    } else {
        Direction::DensePull
    });
    match direction {
        Direction::SparsePush => edge_map_sparse(g, frontier, op, degree_sum),
        Direction::DensePull => edge_map_dense(g, frontier, op),
    }
}

fn edge_map_sparse<O: EdgeMapOp>(
    g: &Graph,
    frontier: &Frontier,
    op: &O,
    degree_sum: u64,
) -> EdgeMapResult {
    let list = frontier.to_sorted_vec();
    let offsets = g.csr_offsets();
    let targets = g.csr_targets();
    let weights = g.csr_weights();
    let mut out: Vec<VertexId> = list
        .par_iter()
        .with_min_len(GRAIN)
        .flat_map_iter(|&s| {
            (offsets[s as usize]..offsets[s as usize + 1]).filter_map(move |arc| {
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

fn edge_map_dense<O: EdgeMapOp>(g: &Graph, frontier: &Frontier, op: &O) -> EdgeMapResult {
    let n = g.n();
    let in_flags = frontier.to_flags(n);
    let offsets = g.csr_offsets();
    let targets = g.csr_targets();
    let weights = g.csr_weights();
    let mut out_flags = vec![false; n];
    let ofp = SyncMutPtr(out_flags.as_mut_ptr());
    let arcs_scanned: u64 = (0..n)
        .into_par_iter()
        .with_min_len(GRAIN)
        .map(|du| {
            let d = du as VertexId;
            if !op.cond(d) {
                return 0u64;
            }
            let mut any = false;
            let mut scanned = 0u64;
            for arc in offsets[du]..offsets[du + 1] {
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
pub fn edge_map_seq<O: EdgeMapOp>(g: &Graph, frontier: &Frontier, op: &O) -> Vec<VertexId> {
    let offsets = g.csr_offsets();
    let targets = g.csr_targets();
    let weights = g.csr_weights();
    let mut out = Vec::new();
    for s in frontier.to_sorted_vec() {
        for arc in offsets[s as usize]..offsets[s as usize + 1] {
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::generators;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Claim op: each destination keeps the smallest source id that
    /// reaches it, by `fetch_min` — commutative and deterministic. `cond`
    /// never closes a destination, so a smaller source still lowers a
    /// label another source claimed first, and the labels and the output
    /// frontier are the same in every order.
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
        fn cond(&self, _dst: VertexId) -> bool {
            true
        }
    }

    #[test]
    fn sparse_and_dense_match_sequential() {
        // Every third vertex of an 80×80 grid: 2 134 sources, so a sparse
        // push splits into several tasks of at most `GRAIN` sources.
        let g = generators::grid2d(80, 80, |_, _| 1.0);
        let frontier = Frontier::from_sorted((0..g.n() as VertexId).step_by(3).collect());
        assert!(frontier.len() > 4 * GRAIN);
        let seq_op = MinClaim::new(g.n());
        let expect = edge_map_seq(&g, &frontier, &seq_op);
        for threads in [1, 2, 4] {
            for forced in [Direction::SparsePush, Direction::DensePull] {
                let op = MinClaim::new(g.n());
                let r = crate::parutil::with_threads(threads, || {
                    edge_map(&g, &frontier, &op, Some(forced))
                });
                let tag = format!("{forced:?} at width {threads}");
                assert_eq!(r.frontier.to_sorted_vec(), expect, "{tag}");
                assert_eq!(op.labels(), seq_op.labels(), "{tag}");
                assert!(r.arcs_scanned > 0);
            }
        }
    }

    #[test]
    fn switch_picks_sparse_for_tiny_frontiers() {
        let g = generators::grid2d(40, 40, |_, _| 1.0);
        let op = MinClaim::new(g.n());
        let r = edge_map(&g, &Frontier::singleton(0), &op, None);
        assert_eq!(r.direction, Direction::SparsePush);
        let op2 = MinClaim::new(g.n());
        let r2 = edge_map(&g, &Frontier::all(g.n()), &op2, None);
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
}
