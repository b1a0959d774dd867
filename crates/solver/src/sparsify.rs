//! `IncrementalSparsify` — Lemma 6.1 / Lemma 6.2, with KMP10-style tree
//! scaling.
//!
//! Given a graph `G` and a low-stretch subgraph `Ĝ` (from `LSSubgraph`,
//! Theorem 5.9), the incremental sparsifier keeps every edge of `Ĝ`,
//! scales the spanning-forest part of `Ĝ` up by `tree_scale`, and samples
//! each remaining edge `e` independently with probability
//! `p_e = min(1, c·str̃(e)·log n / κ)`, re-weighting kept edges by `1/p_e`
//! — where `str̃(e) = str(e)/tree_scale` is the stretch measured against
//! the *scaled* forest.
//!
//! **Tree scaling** is the work-balance lever of \[KMP10\] ("Approaching
//! Optimality for Solving SDD Linear Systems"): the output `B` spectrally
//! approximates `Ĝ_t = G + (t−1)·F` (the input with its forest `F` scaled
//! by `t = tree_scale`), and `G ⪯ Ĝ_t ⪯ t·G` holds *deterministically* —
//! the forest absorbs a factor `t` of condition number with certainty,
//! instead of relying on the sampled tail of the stretch distribution to
//! cap `λ_max(B⁻¹G)`. The price is a `t×` heavier forest; the prize is
//! that the off-forest sample budget needed for a given per-level κ
//! shrinks by `t`, which is what lets a deep preconditioner chain shrink
//! geometrically (see `crate::chain` and DESIGN.md §2.1).
//!
//! The expected number of sampled edges is `O(S·log n / (t·κ))` where `S`
//! is the total (unscaled) stretch; the observed relative condition
//! number grows linearly with `t·κ` — experiment E7 measures it directly.
//!
//! This follows the stretch-proportional oversampling of \[KMP10\] with
//! independent per-edge sampling in place of sampling with replacement
//! (documented in DESIGN.md). Sampling decisions use a counter-based hash
//! of `(seed, edge id)` rather than a sequential RNG stream, so the
//! sampling/weight pass runs as a parallel map whose output is bitwise
//! identical at every pool width.
//!
//! **Weight conventions.** In the solver pipeline the graph's weights are
//! Laplacian *conductances*; the stretch that controls the sparsifier's
//! spectral quality is the *resistance* stretch
//! `str(e) = w_e · Σ_{f ∈ tree path} 1/w_f`, i.e. the metric stretch of the
//! reciprocal-weight (length) graph. This module builds that reciprocal
//! view internally, so callers pass conductance graphs throughout.

use rayon::prelude::*;

use parsdd_graph::{Edge, EdgeId, Graph};
use parsdd_lsst::stretch::per_edge_stretch_over_tree_lengths;

/// The reciprocal-weight ("length") view of a conductance graph, used for
/// resistance-stretch computation (and by the chain for the low-stretch
/// subgraph construction). Edge ids are preserved.
pub(crate) fn length_view(g: &Graph) -> Graph {
    let edges = g
        .edges()
        .par_iter()
        .with_min_len(2048)
        .map(|e| Edge::new(e.u, e.v, 1.0 / e.w))
        .collect();
    Graph::from_edges_unchecked(g.n(), edges)
}

/// Per-edge *resistance* stretch of every edge of the conductance graph `g`
/// with respect to the spanning forest `forest_edges` scaled up by
/// `tree_scale`: `w_e · Σ_{f ∈ path} 1/(t·w_f) = str(e)/t`. Pass
/// `tree_scale = 1.0` for the classic unscaled stretch.
pub fn per_edge_resistance_stretch(
    g: &Graph,
    forest_edges: &[EdgeId],
    tree_scale: f64,
) -> Vec<f64> {
    let inv_scale = 1.0 / tree_scale.max(1.0);
    // Length-mapped forest straight over the conductance graph: bitwise the
    // same values as stretching over `length_view(g)`, without assembling a
    // second m-edge CSR per call.
    let mut stretch = per_edge_stretch_over_tree_lengths(g, forest_edges);
    if inv_scale != 1.0 {
        stretch
            .par_iter_mut()
            .with_min_len(2048)
            .for_each(|s| *s *= inv_scale);
    }
    stretch
}

/// Counter-based coin in `[0, 1)` for item `id` under `seed`: two
/// SplitMix64 finalisation rounds over `(seed, id)`. Order-independent by
/// construction — each item's coin is a pure function of `(seed, id)` —
/// which is what makes a sampling pass a parallel map (DESIGN.md §3.1's
/// determinism contract) instead of a sequential RNG stream. Shared with
/// the application layer (e.g. the projection signs of the batched
/// effective-resistance estimator), so batched and looped consumers see
/// identical randomness at every pool width.
pub fn counter_coin(seed: u64, id: u64) -> f64 {
    let mut z = seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..2 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    ((z >> 11) as f64) / (1u64 << 53) as f64
}

/// Parameters of the incremental sparsifier.
#[derive(Debug, Clone, Copy)]
pub struct SparsifyParams {
    /// Target relative condition number `κ` carried by the *sampled*
    /// off-forest edges (Definition 6.3's `κ_i` is `tree_scale · κ`).
    pub kappa: f64,
    /// Oversampling constant `c` in `p_e = min(1, c·str̃(e)·log n/κ)`.
    pub oversample: f64,
    /// Factor by which the spanning-forest edges of the subgraph are scaled
    /// up in the output (`t` of \[KMP10\]; `1.0` disables scaling).
    pub tree_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SparsifyParams {
    /// Default parameters for a target condition number (no tree scaling).
    pub fn new(kappa: f64) -> Self {
        SparsifyParams {
            kappa: kappa.max(1.0),
            oversample: 4.0,
            tree_scale: 1.0,
            seed: 0x1bc_0001,
        }
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the forest scale factor.
    pub fn with_tree_scale(mut self, tree_scale: f64) -> Self {
        self.tree_scale = if tree_scale.is_finite() {
            tree_scale.max(1.0)
        } else {
            1.0
        };
        self
    }
}

/// The output of `IncrementalSparsify`.
#[derive(Debug, Clone)]
pub struct Sparsifier {
    /// The preconditioner graph `H` (same vertex set as the input).
    pub graph: Graph,
    /// Number of edges inherited from the low-stretch subgraph.
    pub subgraph_edges: usize,
    /// Number of sampled off-subgraph edges.
    pub sampled_edges: usize,
    /// Total *scaled* stretch of the off-subgraph edges (the `m·S` of
    /// Lemma 6.1, divided by `tree_scale`).
    pub total_offsubgraph_stretch: f64,
    /// Forest scale factor the sparsifier was built with.
    pub tree_scale: f64,
    /// True when the κ derivation of
    /// [`incremental_sparsify_with_target`] saturated a clamp: the derived
    /// κ overflowed the `1e12` ceiling (vanishing sample budget relative
    /// to the total stretch makes the sample probabilities collapse to ~0,
    /// so this level's preconditioner is the bare subgraph), hit the κ = 8
    /// floor (stretch-starved levels — light off-subgraph edges whose
    /// sampled stretch can't fill the budget, so the level sparsifies
    /// harder than the budget asked), or degenerated to the
    /// no-finite-stretch case. Either way the level is *not* operating at
    /// its configured quality target; the chain surfaces this through
    /// `ChainQuality` instead of silently degrading. Always `false` for
    /// the fixed-κ [`incremental_sparsify`] entry point.
    pub kappa_clamped: bool,
}

impl Sparsifier {
    /// Total edge count of `H`.
    pub fn edge_count(&self) -> usize {
        self.graph.m()
    }
}

/// Floor of the derived sampling κ. A raw κ below 1 means the budget is
/// larger than the expected sample count at κ = 1 — i.e. the level's
/// off-subgraph edges carry so little stretch that "sample to the budget"
/// degenerates to "keep everything", producing a wrapper level that solves
/// the same system again through extra inner iterations (3D lattices and
/// skewed road meshes hit this; 2D grids never do — their derived κ sits
/// in the tens). Flooring well above the chain builder's wrapper cutoff
/// keeps such levels genuinely sparsifying; the `kappa_clamped` flag
/// records that the budget was not met.
const KAPPA_FLOOR: f64 = 8.0;

/// Ceiling of the derived sampling κ, an overflow guard. With an AKPW
/// low-stretch forest the total stretch `S` is near-linear in `m`, so the
/// ceiling is unreachable from the chain builder (its budget is a fixed
/// fraction of the off-subgraph edge count); it exists for direct callers
/// whose `target_samples` is vanishingly small relative to `S` — there the
/// sample probabilities collapse to ~0 and the sparsifier degrades to the
/// bare subgraph, which the `kappa_clamped` flag surfaces.
const KAPPA_CEILING: f64 = 1e12;

/// Like [`incremental_sparsify`], but instead of a condition number takes a
/// *target number of sampled off-subgraph edges* and derives the κ that
/// achieves it in expectation (`κ = c·log n·(S/t) / target`, clamped to
/// `[KAPPA_FLOOR, KAPPA_CEILING]`). This is how the chain picks its
/// per-level κ in practice: the expected sample count is what controls how
/// much the next level shrinks (Lemma 6.2's trade-off read backwards),
/// while the scaled forest absorbs a further factor `t` of condition
/// number deterministically. Returns the sparsifier and the sampled-edge κ
/// that was used (the level's full condition target is `t · κ`).
pub fn incremental_sparsify_with_target(
    g: &Graph,
    subgraph_edges: &[EdgeId],
    forest_edges: &[EdgeId],
    target_samples: usize,
    oversample: f64,
    tree_scale: f64,
    seed: u64,
) -> (Sparsifier, f64) {
    let log_n = (g.n().max(2) as f64).ln();
    // Total off-subgraph resistance stretch over the scaled forest; the
    // sampling pass reuses both the stretches and the subgraph flags.
    let stretched = StretchedEdges::new(g, subgraph_edges, forest_edges, tree_scale);
    let total = stretched.total;
    let (kappa, clamped) = if total <= 0.0 {
        // No off-subgraph edge has finite stretch: the subgraph already
        // carries every edge that matters and the sparsifier equals the
        // input (plus forest scaling), so the honest sampling κ is 1.
        (1.0, true)
    } else if target_samples == 0 {
        // "Sample nothing" — keep only the subgraph. Large but finite so
        // downstream √κ / 1/κ arithmetic stays meaningful.
        (KAPPA_CEILING, true)
    } else {
        let raw = oversample * total * log_n / target_samples as f64;
        (
            raw.clamp(KAPPA_FLOOR, KAPPA_CEILING),
            !(KAPPA_FLOOR..=KAPPA_CEILING).contains(&raw),
        )
    };
    let params = SparsifyParams {
        kappa,
        oversample,
        tree_scale,
        seed,
    };
    let mut sp = sample(g, forest_edges, &params, stretched);
    sp.kappa_clamped = clamped;
    (sp, kappa)
}

/// Every edge's resistance stretch over the forest scaled by the tree
/// scale (at least 1, and 1 when not finite), which edges the subgraph
/// holds, and the total finite off-subgraph stretch: what both the κ
/// derivation and the sampling pass read.
struct StretchedEdges {
    tree_scale: f64,
    stretch: Vec<f64>,
    in_subgraph: Vec<bool>,
    total: f64,
}

impl StretchedEdges {
    fn new(g: &Graph, subgraph_edges: &[EdgeId], forest_edges: &[EdgeId], tree_scale: f64) -> Self {
        let tree_scale = if tree_scale.is_finite() {
            tree_scale.max(1.0)
        } else {
            1.0
        };
        let stretch = per_edge_resistance_stretch(g, forest_edges, tree_scale);
        let in_subgraph = subgraph_flags(g.m(), subgraph_edges);
        let total = total_finite_offsubgraph_stretch(&stretch, &in_subgraph);
        StretchedEdges {
            tree_scale,
            stretch,
            in_subgraph,
            total,
        }
    }
}

fn subgraph_flags(m: usize, subgraph_edges: &[EdgeId]) -> Vec<bool> {
    let mut flag = vec![false; m];
    for &e in subgraph_edges {
        flag[e as usize] = true;
    }
    flag
}

/// Width-independent parallel sum of the finite off-subgraph stretches.
fn total_finite_offsubgraph_stretch(stretch: &[f64], in_subgraph: &[bool]) -> f64 {
    stretch
        .par_iter()
        .with_min_len(2048)
        .zip(in_subgraph.par_iter())
        .map(|(&s, &sub)| if !sub && s.is_finite() { s } else { 0.0 })
        .sum()
}

/// Builds the incremental sparsifier `H` of `g` with respect to the
/// subgraph given by `subgraph_edges` (edge ids of `g`), whose spanning
/// forest part is `forest_edges` (used for stretch computation *and* tree
/// scaling; typically the `tree_edges` of the `LSSubgraph` output plus,
/// when the subgraph is disconnected on some component, any spanning
/// forest of it).
pub fn incremental_sparsify(
    g: &Graph,
    subgraph_edges: &[EdgeId],
    forest_edges: &[EdgeId],
    params: &SparsifyParams,
) -> Sparsifier {
    let stretched = StretchedEdges::new(g, subgraph_edges, forest_edges, params.tree_scale);
    sample(g, forest_edges, params, stretched)
}

/// The sampling pass of [`incremental_sparsify`] over precomputed
/// stretches (`params.tree_scale` is read through `stretched`).
fn sample(
    g: &Graph,
    forest_edges: &[EdgeId],
    params: &SparsifyParams,
    stretched: StretchedEdges,
) -> Sparsifier {
    let (n, m) = (g.n(), g.m());
    let log_n = (n.max(2) as f64).ln();
    let StretchedEdges {
        tree_scale,
        stretch,
        in_subgraph,
        total: total_stretch,
    } = stretched;
    let in_forest = subgraph_flags(m, forest_edges);

    // Sampling/weight sweep as one order-preserving parallel compaction:
    // each edge's fate is a pure function of (seed, edge id, stretch), so
    // the pass is embarrassingly parallel and — with the shim's
    // length-only split trees — bitwise reproducible at every pool width.
    // Fusing the decision into the filter keeps peak memory at the kept
    // edges only (no m-element decision buffer, no sequential drain).
    let seed = params.seed;
    let kappa = params.kappa;
    let oversample = params.oversample;
    let decide = |id: usize| -> Option<Edge> {
        let e = g.edge(id as EdgeId);
        if in_forest[id] {
            return Some(Edge::new(e.u, e.v, e.w * tree_scale));
        }
        if in_subgraph[id] {
            return Some(e);
        }
        let s = stretch[id];
        if !s.is_finite() {
            // The forest does not connect this edge's endpoints
            // (possible only if the caller passed a non-spanning
            // forest); keep the edge to stay conservative.
            return Some(e);
        }
        let p = (oversample * s * log_n / kappa).min(1.0);
        if p > 0.0 && counter_coin(seed, id as u64) < p {
            Some(Edge::new(e.u, e.v, e.w / p))
        } else {
            None
        }
    };
    let kept: Vec<(u32, Edge)> = (0..m)
        .into_par_iter()
        .with_min_len(2048)
        .filter_map(|id| decide(id).map(|e| (id as u32, e)))
        .collect();
    let subgraph_count =
        parsdd_graph::parutil::par_count(&kept, |(id, _)| in_subgraph[*id as usize]);
    let sampled_count = kept.len() - subgraph_count;
    let edges: Vec<Edge> = kept
        .into_par_iter()
        .with_min_len(2048)
        .map(|(_, e)| e)
        .collect();

    Sparsifier {
        graph: Graph::from_edges_unchecked(n, edges),
        subgraph_edges: subgraph_count,
        sampled_edges: sampled_count,
        total_offsubgraph_stretch: total_stretch,
        tree_scale,
        kappa_clamped: false,
    }
}

/// Total finite off-subgraph resistance stretch over the *unscaled* forest
/// and the number of off-subgraph edges — the per-level measurement the
/// chain's adaptive parameter selection derives `tree_scale` and the
/// sampling budget from (see `ChainOptions::adaptive`).
pub fn offsubgraph_stretch_summary(
    g: &Graph,
    subgraph_edges: &[EdgeId],
    forest_edges: &[EdgeId],
) -> (f64, usize) {
    let stretch = per_edge_resistance_stretch(g, forest_edges, 1.0);
    let in_subgraph = subgraph_flags(g.m(), subgraph_edges);
    let total = total_finite_offsubgraph_stretch(&stretch, &in_subgraph);
    (total, g.m().saturating_sub(subgraph_edges.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsdd_graph::components::parallel_connected_components;
    use parsdd_graph::generators;
    use parsdd_graph::mst::kruskal;
    use parsdd_linalg::power::quadratic_form_ratio_bounds;

    fn tree_and_sparsifier(g: &Graph, kappa: f64, seed: u64) -> (Vec<EdgeId>, Sparsifier) {
        let tree = kruskal(g);
        let sp = incremental_sparsify(g, &tree, &tree, &SparsifyParams::new(kappa).with_seed(seed));
        (tree, sp)
    }

    #[test]
    fn sparsifier_keeps_subgraph_and_connectivity() {
        let g = generators::weighted_random_graph(300, 2000, 1.0, 4.0, 3);
        let (tree, sp) = tree_and_sparsifier(&g, 50.0, 1);
        assert_eq!(sp.subgraph_edges, tree.len());
        assert!(sp.edge_count() >= tree.len());
        assert!(sp.edge_count() <= g.m());
        assert_eq!(
            parallel_connected_components(&sp.graph).count,
            parallel_connected_components(&g).count
        );
    }

    #[test]
    fn larger_kappa_means_fewer_sampled_edges() {
        let g = generators::weighted_random_graph(400, 3000, 1.0, 2.0, 5);
        let (_, sp_small) = tree_and_sparsifier(&g, 10.0, 2);
        let (_, sp_large) = tree_and_sparsifier(&g, 1000.0, 2);
        assert!(
            sp_large.sampled_edges < sp_small.sampled_edges,
            "kappa=1000 sampled {} vs kappa=10 sampled {}",
            sp_large.sampled_edges,
            sp_small.sampled_edges
        );
    }

    #[test]
    fn kappa_one_keeps_almost_everything() {
        // With κ = 1 the sampling probability is ≥ min(1, c·log n·str) = 1
        // for every edge with stretch ≥ 1/(c log n): the sparsifier is
        // essentially the whole graph and spectrally identical to it.
        let g = generators::grid2d(15, 15, |_, _| 1.0);
        let (_, sp) = tree_and_sparsifier(&g, 1.0, 3);
        assert_eq!(sp.edge_count(), g.m());
        let (lo, hi) = quadratic_form_ratio_bounds(&g, &sp.graph, 20, 4);
        assert!((lo - 1.0).abs() < 1e-9 && (hi - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spectral_quality_degrades_gracefully_with_kappa() {
        let g = generators::weighted_random_graph(300, 2500, 1.0, 3.0, 9);
        let (_, sp_tight) = tree_and_sparsifier(&g, 4.0, 7);
        let (_, sp_loose) = tree_and_sparsifier(&g, 400.0, 7);
        let (lo_t, hi_t) = quadratic_form_ratio_bounds(&g, &sp_tight.graph, 30, 8);
        let (lo_l, hi_l) = quadratic_form_ratio_bounds(&g, &sp_loose.graph, 30, 8);
        let spread_tight = hi_t / lo_t;
        let spread_loose = hi_l / lo_l;
        assert!(
            spread_tight <= spread_loose * 1.5,
            "tight κ spread {spread_tight} should not be much worse than loose κ spread {spread_loose}"
        );
    }

    #[test]
    fn stretch_total_reported() {
        let g = generators::weighted_random_graph(200, 1000, 1.0, 5.0, 11);
        let (_, sp) = tree_and_sparsifier(&g, 100.0, 5);
        assert!(sp.total_offsubgraph_stretch > 0.0);
        assert!(sp.total_offsubgraph_stretch.is_finite());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::weighted_random_graph(200, 1500, 1.0, 2.0, 13);
        let (_, a) = tree_and_sparsifier(&g, 30.0, 21);
        let (_, b) = tree_and_sparsifier(&g, 30.0, 21);
        assert_eq!(a.graph.m(), b.graph.m());
        assert_eq!(a.sampled_edges, b.sampled_edges);
    }

    #[test]
    fn zero_target_clamps_kappa_at_ceiling() {
        // "Sample nothing" is the overflow-guard path: unreachable from the
        // chain builder (its budget is floored at 8), but direct callers
        // can ask for it and must get a finite κ plus the clamp flag.
        let g = generators::weighted_random_graph(200, 1200, 1.0, 4.0, 23);
        let tree = kruskal(&g);
        let (sp, kappa) = incremental_sparsify_with_target(&g, &tree, &tree, 0, 2.0, 1.0, 31);
        assert_eq!(kappa, 1e12);
        assert!(sp.kappa_clamped, "ceiling clamp must be flagged");
        assert_eq!(
            sp.sampled_edges, 0,
            "at the ceiling the sparsifier keeps only the subgraph"
        );
        assert_eq!(sp.edge_count(), tree.len());
    }

    #[test]
    fn starved_stretch_clamps_kappa_at_floor() {
        // A heavy spanning path with feather-light extra edges: each
        // off-tree edge's resistance stretch is ~1e-6, so a generous
        // sample target drives the raw κ far below 1 and the floor clamp
        // engages — the near-disconnected-clusters ("barbell") regime.
        let n = 200usize;
        let mut edges: Vec<parsdd_graph::Edge> = (0..n - 1)
            .map(|i| parsdd_graph::Edge::new(i as u32, (i + 1) as u32, 1000.0))
            .collect();
        let tree: Vec<EdgeId> = (0..(n - 1) as EdgeId).collect();
        for i in 0..n - 10 {
            edges.push(parsdd_graph::Edge::new(i as u32, (i + 9) as u32, 1e-3));
        }
        let g = Graph::from_edges(n, edges);
        let off = g.m() - tree.len();
        let (sp, kappa) = incremental_sparsify_with_target(&g, &tree, &tree, off, 2.0, 1.0, 37);
        assert_eq!(kappa, 8.0, "raw κ below the floor must clamp to it");
        assert!(sp.kappa_clamped, "floor clamp must be flagged");
    }

    #[test]
    fn healthy_target_reports_unclamped_kappa() {
        let g = generators::weighted_random_graph(300, 2400, 1.0, 4.0, 29);
        let tree = kruskal(&g);
        let target = (g.m() - tree.len()) / 3;
        let (sp, kappa) = incremental_sparsify_with_target(&g, &tree, &tree, target, 2.0, 1.0, 41);
        assert!(
            kappa > 8.0 && kappa < 1e12,
            "expected an interior κ, got {kappa}"
        );
        assert!(!sp.kappa_clamped);
    }

    #[test]
    fn tree_scaling_scales_forest_weights() {
        let g = generators::grid2d(10, 10, |_, _| 1.0);
        let tree = kruskal(&g);
        let params = SparsifyParams::new(50.0).with_seed(5).with_tree_scale(8.0);
        let sp = incremental_sparsify(&g, &tree, &tree, &params);
        assert_eq!(sp.tree_scale, 8.0);
        // Every forest edge must appear in the output scaled by 8 (the
        // input is simple, so an endpoint pair identifies the edge).
        let out: std::collections::HashMap<(u32, u32), f64> = (0..sp.graph.m())
            .map(|i| {
                let e = sp.graph.edge(i as EdgeId);
                ((e.u.min(e.v), e.u.max(e.v)), e.w)
            })
            .collect();
        for &id in &tree {
            let orig = g.edge(id);
            let key = (orig.u.min(orig.v), orig.u.max(orig.v));
            let &w = out.get(&key).expect("forest edge missing from output");
            assert!(
                (w - 8.0 * orig.w).abs() < 1e-12,
                "forest edge {id} not scaled: {} vs {}",
                w,
                orig.w
            );
        }
    }

    #[test]
    fn tree_scaling_shrinks_sample_count_at_fixed_kappa() {
        // Scaled stretch is str/t, so p drops by t and so does the expected
        // number of sampled off-forest edges.
        let g = generators::weighted_random_graph(400, 3000, 1.0, 2.0, 5);
        let tree = kruskal(&g);
        let unscaled =
            incremental_sparsify(&g, &tree, &tree, &SparsifyParams::new(40.0).with_seed(9));
        let scaled = incremental_sparsify(
            &g,
            &tree,
            &tree,
            &SparsifyParams::new(40.0).with_seed(9).with_tree_scale(16.0),
        );
        assert!(
            scaled.sampled_edges < unscaled.sampled_edges,
            "tree_scale=16 sampled {} vs unscaled {}",
            scaled.sampled_edges,
            unscaled.sampled_edges
        );
        assert!(
            scaled.total_offsubgraph_stretch < unscaled.total_offsubgraph_stretch / 8.0,
            "scaled total stretch {} should be ~16x below unscaled {}",
            scaled.total_offsubgraph_stretch,
            unscaled.total_offsubgraph_stretch
        );
    }

    #[test]
    fn scaled_sparsifier_dominates_input_spectrally() {
        // With the forest scaled up, B ⪰ A holds up to sampling noise:
        // the observed ratio x'L_A x / x'L_B x stays ≲ 1, and the spread is
        // bounded by roughly t·κ.
        let g = generators::grid2d(14, 14, |_, _| 1.0);
        let tree = kruskal(&g);
        let sp = incremental_sparsify(
            &g,
            &tree,
            &tree,
            &SparsifyParams::new(8.0).with_seed(3).with_tree_scale(6.0),
        );
        let (lo, hi) = quadratic_form_ratio_bounds(&g, &sp.graph, 25, 7);
        assert!(hi <= 1.5, "scaled sparsifier should dominate: hi={hi}");
        assert!(lo > 0.0 && lo.is_finite());
    }

    #[test]
    fn with_target_derives_smaller_kappa_under_scaling() {
        let g = generators::weighted_random_graph(300, 2400, 1.0, 3.0, 15);
        let tree = kruskal(&g);
        let (_, kappa_unscaled) =
            incremental_sparsify_with_target(&g, &tree, &tree, 200, 2.0, 1.0, 31);
        let (_, kappa_scaled) =
            incremental_sparsify_with_target(&g, &tree, &tree, 200, 2.0, 16.0, 31);
        assert!(
            kappa_scaled <= kappa_unscaled,
            "same budget must need a smaller sampling κ under scaling: {kappa_scaled} vs {kappa_unscaled}"
        );
    }

    #[test]
    fn sampling_pass_matches_across_pool_widths() {
        // The counter-based coins + ordered parallel map make the output
        // bitwise identical at any width.
        let g = generators::weighted_random_graph(500, 4000, 1.0, 4.0, 23);
        let tree = kruskal(&g);
        let params = SparsifyParams::new(30.0).with_seed(77).with_tree_scale(4.0);
        let run = |threads: usize| {
            parsdd_graph::parutil::with_threads(threads, || {
                incremental_sparsify(&g, &tree, &tree, &params)
            })
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.graph.m(), b.graph.m());
        for id in 0..a.graph.m() {
            let ea = a.graph.edge(id as EdgeId);
            let eb = b.graph.edge(id as EdgeId);
            assert_eq!((ea.u, ea.v), (eb.u, eb.v));
            assert_eq!(ea.w.to_bits(), eb.w.to_bits(), "edge {id} weight differs");
        }
    }
}
