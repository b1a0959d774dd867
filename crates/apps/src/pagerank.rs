//! PageRank and weighted-adjacency SpMV over the frontier traversal core.
//!
//! This is the Ligra `SPMV_F`/`edgeMap` workload ported onto
//! [`edge_map`]: each iteration is one edge map of
//! the full vertex frontier, accumulating `Σ w(u,v) · x(u)` into every
//! destination. Floating-point accumulation is *not* a commutative-
//! deterministic atomic, so the map is pinned to the dense-pull direction:
//! there each destination's arcs are scanned sequentially in CSR order by
//! the single task that owns it, making the result bitwise identical at
//! every pool width — the same determinism contract the solver pins.

use parsdd_graph::{edge_map, Direction, EdgeMapOp, Frontier, Graph, VertexId};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// `y[dst] += w · x[src]` over every arc. Correct only under dense pull
/// (exclusive destination ownership); the atomic variant exists to satisfy
/// the trait but is never reached because callers force
/// [`Direction::DensePull`].
struct SpmvOp<'a> {
    x: &'a [f64],
    y: &'a [AtomicU64],
}

impl EdgeMapOp for SpmvOp<'_> {
    #[inline]
    fn update(&self, src: VertexId, dst: VertexId, w: f64, _arc: usize) -> bool {
        let slot = &self.y[dst as usize];
        // The dense-pull task owns `dst`, so this load/store pair is a
        // plain read-modify-write in arc order — deterministic.
        let cur = f64::from_bits(slot.load(Ordering::Relaxed));
        slot.store(
            (cur + w * self.x[src as usize]).to_bits(),
            Ordering::Relaxed,
        );
        true
    }

    fn update_atomic(&self, src: VertexId, dst: VertexId, w: f64, _arc: usize) -> bool {
        // CAS-loop add: mathematically correct under contention but not
        // bitwise order-invariant; kept for trait completeness only.
        let slot = &self.y[dst as usize];
        let add = w * self.x[src as usize];
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match slot.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    #[inline]
    fn cond(&self, _dst: VertexId) -> bool {
        true
    }
}

/// Weighted-adjacency sparse matrix–vector product `y = A·x` (one
/// [`edge_map`] of the full frontier, dense-pull pinned). Bitwise
/// deterministic at every pool width.
pub fn spmv(g: &Graph, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), g.n());
    let y: Vec<AtomicU64> = (0..g.n())
        .into_par_iter()
        .with_min_len(4096)
        .map(|_| AtomicU64::new(0f64.to_bits()))
        .collect();
    let op = SpmvOp { x, y: &y };
    edge_map(g, &Frontier::all(g.n()), &op, Some(Direction::DensePull));
    y.into_par_iter()
        .with_min_len(4096)
        .map(|v| f64::from_bits(v.into_inner()))
        .collect()
}

/// Result of a [`pagerank`] run.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Per-vertex rank; sums to 1 over each connected region that holds
    /// any mass.
    pub ranks: Vec<f64>,
    /// Power iterations executed.
    pub iterations: usize,
    /// L1 distance between the last two iterates.
    pub l1_delta: f64,
    /// Whether `l1_delta ≤ tol` was reached within the iteration budget.
    pub converged: bool,
}

/// Weighted PageRank with damping `d`: iterates
/// `p ← (1 − d)/n + d · Aᵀ D⁻¹ p` (weighted-degree normalisation) until
/// the L1 change drops to `tol` or `max_iters` is hit. One dense-pull
/// [`edge_map`] per iteration; bitwise deterministic at every pool width.
pub fn pagerank(g: &Graph, damping: f64, tol: f64, max_iters: usize) -> PageRankResult {
    assert!((0.0..1.0).contains(&damping));
    let n = g.n();
    if n == 0 {
        return PageRankResult {
            ranks: Vec::new(),
            iterations: 0,
            l1_delta: 0.0,
            converged: true,
        };
    }
    // Weighted out-degree reciprocals (isolated vertices keep 0: their
    // mass share is re-injected uniformly by the teleport term only).
    let inv_deg: Vec<f64> = (0..n)
        .into_par_iter()
        .with_min_len(1024)
        .map(|v| {
            let wd = g.weighted_degree(v as VertexId);
            if wd > 0.0 {
                1.0 / wd
            } else {
                0.0
            }
        })
        .collect();
    let teleport = (1.0 - damping) / n as f64;
    let mut p = vec![1.0 / n as f64; n];
    let mut iterations = 0;
    let mut l1_delta = f64::INFINITY;
    while iterations < max_iters && l1_delta > tol {
        // x = D⁻¹ p, then one SpMV gathers Σ w·x over in-arcs.
        let x: Vec<f64> = p
            .par_iter()
            .zip(inv_deg.par_iter())
            .with_min_len(4096)
            .map(|(&pv, &idv)| pv * idv)
            .collect();
        let gathered = spmv(g, &x);
        let next: Vec<f64> = gathered
            .into_par_iter()
            .with_min_len(4096)
            .map(|s| teleport + damping * s)
            .collect();
        // Shim reductions use input-length-only split trees, so this sum
        // is bitwise reproducible at every width.
        l1_delta = next
            .par_iter()
            .zip(p.par_iter())
            .with_min_len(4096)
            .map(|(a, b)| (a - b).abs())
            .sum();
        p = next;
        iterations += 1;
    }
    PageRankResult {
        converged: l1_delta <= tol,
        ranks: p,
        iterations,
        l1_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsdd_graph::generators;

    fn spmv_reference(g: &Graph, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; g.n()];
        for v in 0..g.n() as VertexId {
            // Same order as the dense pull: v's arcs in CSR order.
            let mut acc = 0.0;
            for (u, w, _) in g.arcs(v) {
                acc += w * x[u as usize];
            }
            y[v as usize] = acc;
        }
        y
    }

    #[test]
    fn spmv_matches_sequential_reference_bitwise() {
        let g = generators::weighted_random_graph(300, 900, 0.5, 4.0, 7);
        let x: Vec<f64> = (0..g.n()).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let y = spmv(&g, &x);
        let r = spmv_reference(&g, &x);
        for (a, b) in y.iter().zip(&r) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pagerank_converges_and_sums_to_one() {
        let g = generators::weighted_random_graph(500, 1800, 1.0, 3.0, 13);
        let pr = pagerank(&g, 0.85, 1e-10, 200);
        assert!(pr.converged, "l1 delta {}", pr.l1_delta);
        assert!(pr.iterations > 2);
        let total: f64 = pr.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        assert!(pr.ranks.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn pagerank_ranks_follow_degree_on_stars() {
        // Hub of a star concentrates rank mass.
        let g = generators::star(50, 1.0);
        let pr = pagerank(&g, 0.85, 1e-12, 300);
        assert!(pr.converged);
        let hub = pr.ranks[0];
        let leaf = pr.ranks[1];
        assert!(hub > 10.0 * leaf, "hub {hub} vs leaf {leaf}");
        // All leaves identical by symmetry.
        for &r in &pr.ranks[1..] {
            assert_eq!(r.to_bits(), leaf.to_bits());
        }
    }

    #[test]
    fn pagerank_is_width_deterministic() {
        let g = generators::weighted_random_graph(400, 1400, 0.5, 5.0, 21);
        let base = pagerank(&g, 0.85, 1e-9, 120);
        for threads in [1usize, 2, 4] {
            let pr = parsdd_graph::parutil::with_threads(threads, || pagerank(&g, 0.85, 1e-9, 120));
            assert_eq!(pr.iterations, base.iterations, "width {threads}");
            for (a, b) in pr.ranks.iter().zip(&base.ranks) {
                assert_eq!(a.to_bits(), b.to_bits(), "width {threads}");
            }
        }
    }

    #[test]
    fn pagerank_handles_isolated_vertices() {
        use parsdd_graph::Edge;
        // Two-vertex edge plus two isolated vertices: isolated ranks decay
        // to the pure teleport share; no NaNs from zero degrees.
        let g = Graph::from_edges(4, vec![Edge::new(0, 1, 1.0)]);
        let pr = pagerank(&g, 0.85, 1e-12, 500);
        assert!(pr.ranks.iter().all(|r| r.is_finite()));
        let teleport = 0.15 / 4.0;
        assert!((pr.ranks[2] - teleport).abs() < 1e-10);
        assert!(pr.ranks[0] > pr.ranks[2]);
    }
}
