//! Construction: the shared prologue, the level loop, the bottom, f32
//! demotion and the Chebyshev calibration.

use parsdd_graph::components::{parallel_connected_components, Components};
use parsdd_graph::reorder::{rcm_order, relabel, simplify_relabel};
use parsdd_graph::{EdgeId, Graph};
use parsdd_linalg::permuted::PermutedLevel;
use parsdd_linalg::power::{quadratic_form_ratio_bounds, spectrum_bounds_of_map};
use parsdd_linalg::vector::project_out_componentwise_constant;
use parsdd_linalg::SparseLdl;
use parsdd_lsst::subgraph::{ls_subgraph, LsSubgraphParams};

use super::cut::{self, direct_bottom_order, ChainCut};
use super::cycle::{BottomSolver, ChainCycle, Cycle, JacobiBottom};
use super::{ChainLevel, ChainOptions, Level0Decision, Level0Path, Precision, SolverChain};
use crate::elimination::{greedy_elimination, EliminationResult};
use crate::sparsify::{incremental_sparsify, Sparsifier, SparsifyParams};

/// Builds the preconditioner chain for the Laplacian of `g`. The options
/// are [`ChainOptions::sanitized`] first, so out-of-range values are
/// clamped instead of diverging mid-build.
///
/// Every level is stored in its reverse Cuthill–McKee order
/// ([`rcm_order`]): the ordering is computed here once per level and
/// baked into the level's graph, merged-row matrix and elimination maps.
/// A direct bottom is stored in its minimum-degree order instead, baked
/// the same way into the elimination above it. So the solve path never
/// permutes anything except the top-level boundary vectors.
pub fn build_chain(g: &Graph, options: &ChainOptions) -> SolverChain {
    let options = options.sanitized();
    build_from_top(TopLevel::new(g, &options), options)
}

/// The chain [`SddSolver`](crate::sdd_solve::SddSolver) solves with at
/// tolerance `tol`: the level-0 cut (DESIGN.md §2.10). When the level
/// loop would build a level, a seeded Jacobi-PCG probe runs on level 0's
/// merged-row matrix for at most
/// [`level0_probe_cap`](cut::level0_probe_cap)`(tol)` sweeps. If it
/// converges, the chain is the depth-0 chain with an iterative bottom on
/// that matrix, whose probe it reuses. Otherwise the matrix is dropped
/// (holding it through the loop raises the build's peak memory) and the
/// chain is [`build_chain`]'s, bit for bit. Either way the decision is
/// recorded in [`ChainQuality::level0`](super::ChainQuality::level0).
pub(crate) fn build_solver_chain(g: &Graph, options: &ChainOptions, tol: f64) -> SolverChain {
    let options = options.sanitized();
    let top = TopLevel::new(g, &options);
    let cap = cut::level0_probe_cap(tol);
    let (n, m) = (top.graph.n(), top.graph.m());
    if cap == 0 || !cut::grows_level(n, m, 0, top.bottom_target, options.max_levels) {
        return build_from_top(top, options);
    }
    let matrix = PermutedLevel::from_graph(&top.graph);
    let (labels, count) = (&top.comps.labels, top.comps.count);
    let seed = options.seed ^ JacobiBottom::PROBE_SEED;
    let (jacobi, converged) = JacobiBottom::probe(&matrix, labels, count, seed, cap);
    let probe_sweeps = jacobi.probe_iterations;
    let decision = Level0Decision {
        path: if converged {
            Level0Path::JacobiPcg
        } else {
            Level0Path::Chain
        },
        probe_sweeps,
        cap,
        predicted_iterations: converged.then(|| cut::predicted_iterations(probe_sweeps, tol)),
    };
    let mut chain = if converged {
        top.into_depth0(matrix, BottomSolver::Iterative(jacobi), None, options)
    } else {
        drop(matrix);
        build_from_top(top, options)
    };
    chain.level0 = Some(decision);
    chain
}

/// Level 0 as every chain starts it, built once: the input simplified
/// and relabelled into its reverse Cuthill–McKee order, and its
/// components. [`build_chain`] builds its levels on it; the level-0 cut
/// probes it first.
struct TopLevel {
    /// The simplified input in its baked-in order.
    graph: Graph,
    /// Boundary permutation (`original id → internal id`).
    perm: Vec<u32>,
    /// Connected components of `graph`.
    comps: Components,
    /// Size floor of the level loop ([`cut::size_floor`]).
    bottom_target: usize,
}

impl TopLevel {
    /// The prologue of a build under sanitized `options`.
    fn new(g: &Graph, options: &ChainOptions) -> Self {
        let bottom_target = cut::size_floor(g.m(), options.bottom_size);
        // Bake the boundary permutation into the top system before
        // anything downstream (subgraph, sampling, elimination) sees it.
        // The order is the simple graph's, and one build merges and
        // relabels the input into it.
        let perm = rcm_order(g);
        let graph = simplify_relabel(g, &perm);
        // Every solve projects its right-hand sides with the components:
        // recomputing an O(n + m) labelling per solve is exactly the
        // per-RHS overhead blocking is meant to remove.
        let comps = parallel_connected_components(&graph);
        TopLevel {
            graph,
            perm,
            comps,
            bottom_target,
        }
    }

    /// The depth-0 chain whose bottom is this system, with merged-row
    /// matrix `matrix`, solved by `bottom` (`factor` is a direct bottom's
    /// sparse factor). It has no cycle to demote or calibrate.
    fn into_depth0(
        self,
        matrix: PermutedLevel,
        bottom: BottomSolver,
        factor: Option<SparseLdl>,
        options: ChainOptions,
    ) -> SolverChain {
        SolverChain {
            levels: Vec::new(),
            top_matrix: None,
            bottom_graph: self.graph,
            bottom_matrix: matrix,
            bottom,
            bottom_labels: self.comps.labels.clone(),
            bottom_components: self.comps.count,
            top_labels: self.comps.labels,
            top_components: self.comps.count,
            top_perm: self.perm,
            options,
            cycle: ChainCycle::F64(Cycle::new(Vec::new(), &mut [], factor)),
            level0: None,
        }
    }
}

/// The bottom solver of a bottom system: trivial without edges, direct
/// when it was `factored`, otherwise Jacobi-PCG with its build-time probe.
fn bottom_solver(
    g: &Graph,
    matrix: &PermutedLevel,
    comps: &Components,
    factored: bool,
    seed: u64,
) -> BottomSolver {
    if g.m() == 0 {
        BottomSolver::Trivial
    } else if factored {
        BottomSolver::Direct
    } else {
        let seed = seed ^ JacobiBottom::PROBE_SEED;
        let (labels, count) = (&comps.labels, comps.count);
        BottomSolver::Iterative(JacobiBottom::probe(matrix, labels, count, seed, usize::MAX).0)
    }
}

/// Per-level sampled condition target `t·κ` of the adaptive schedule
/// ([`ChainOptions::adaptive`]).
const ADAPTIVE_KAPPA_TARGET: f64 = 256.0;

/// The spanning forest of the low-stretch subgraph `sub_edges` of
/// `lengths` (the level's reciprocal-weight view) for resistance stretch
/// and tree scaling: the *low-stretch* AKPW `tree_edges` — a generic MST
/// can have orders-of-magnitude larger stretch, which inflates every κ
/// estimate and starves the sampler — completed, lightest first, with
/// the subgraph edges the well-spacing set-aside disconnected.
fn subgraph_forest(lengths: &Graph, tree_edges: &[EdgeId], sub_edges: &[EdgeId]) -> Vec<EdgeId> {
    let mut uf = parsdd_graph::unionfind::UnionFind::new(lengths.n());
    let mut forest = Vec::with_capacity(lengths.n().saturating_sub(1));
    for &e in tree_edges {
        let edge = lengths.edge(e);
        if uf.unite(edge.u, edge.v) {
            forest.push(e);
        }
    }
    let mut rest: Vec<EdgeId> = sub_edges
        .iter()
        .copied()
        .filter(|&e| !uf.same(lengths.edge(e).u, lengths.edge(e).v))
        .collect();
    rest.sort_by(|&a, &b| {
        lengths
            .edge(a)
            .w
            .partial_cmp(&lengths.edge(b).w)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for e in rest {
        let edge = lengths.edge(e);
        if uf.unite(edge.u, edge.v) {
            forest.push(e);
        }
    }
    forest
}

/// Incremental sparsification of level `g` around its low-stretch
/// subgraph `sub_edges` and `forest`, with tree scaling. Returns the
/// sparsifier and the sampling κ it used. The per-level κ is either fixed
/// (the paper's uniform schedule) or derived so that the expected number
/// of sampled off-subgraph edges is a fraction of the off-subgraph edge
/// count — which is what makes the next level shrink. The scaled forest
/// absorbs a further `tree_scale` factor of condition number with
/// certainty.
fn sparsify_level(
    g: &Graph,
    sub_edges: &[EdgeId],
    forest: &[EdgeId],
    options: &ChainOptions,
    seed: u64,
) -> (Sparsifier, f64) {
    if !options.auto_kappa {
        let params = SparsifyParams {
            kappa: options.kappa,
            oversample: options.oversample,
            tree_scale: options.tree_scale,
            seed,
        };
        return (
            incremental_sparsify(g, sub_edges, forest, &params),
            options.kappa,
        );
    }
    // Budget the sample count as a fraction of the *off-subgraph* edges.
    // (An earlier schedule budgeted `extra_fraction · n` minus the
    // subgraph's own extras, which routinely collapsed to ~0 samples; the
    // subgraph alone is a κ ≈ 10³ preconditioner at bench sizes — the
    // sampled tail of the stretch distribution is what caps λ_max of
    // `B⁻¹A`.)
    let off_subgraph = g.m().saturating_sub(sub_edges.len());
    let (budget, level_tree_scale) = if options.adaptive {
        // Stretch-adaptive schedule: measure the level's mean
        // off-subgraph resistance stretch s̄ and derive both knobs from
        // it. The full condition target t·κ = c·S·ln n/(f·q) is
        // independent of t under the target-based sampler, so t only
        // trades sampled-κ against forest weight — matching it to
        // √(s̄·ln n) splits that factor evenly. The sample fraction f then
        // pins t·κ at `ADAPTIVE_KAPPA_TARGET` whenever the clamps don't
        // bind.
        let (total, q) = crate::sparsify::offsubgraph_stretch_summary(g, sub_edges, forest);
        let q = q.max(1);
        let log_n = (g.n().max(2) as f64).ln();
        let s_mean = (total / q as f64).max(1.0);
        let t = (s_mean * log_n).sqrt().clamp(1.0, 64.0);
        let f = (options.oversample * s_mean * log_n / ADAPTIVE_KAPPA_TARGET).clamp(0.02, 1.0);
        (((f * q as f64) as usize).max(8), t)
    } else {
        (
            ((options.extra_fraction * off_subgraph as f64) as usize).max(8),
            options.tree_scale,
        )
    };
    crate::sparsify::incremental_sparsify_with_target(
        g,
        sub_edges,
        forest,
        budget,
        options.oversample,
        level_tree_scale,
        seed,
    )
}

/// [`build_chain`] on its prologue.
fn build_from_top(top: TopLevel, options: ChainOptions) -> SolverChain {
    let TopLevel {
        graph: mut current,
        perm: mut top_perm,
        comps: mut top_comps,
        bottom_target,
    } = top;
    let mut levels: Vec<ChainLevel> = Vec::new();
    let mut seed = options.seed;
    // Where the chain stops is the cut's call, asked as each level's
    // graph appears: the loop stops at the first graph below the top whose
    // factor fits, or else at the natural bottom.
    let mut cut = ChainCut::new(&options, bottom_target);

    loop {
        let (n, m) = (current.n(), current.m());
        if cut.stops_at(n, m, |limit| direct_bottom_order(&current, limit)) {
            break;
        }
        seed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);

        // 1. Low-stretch ultra-sparse subgraph of the current level.
        //    The level's weights are Laplacian *conductances*; the
        //    low-stretch machinery of Section 5 works on *lengths*, so it
        //    runs on the reciprocal-weight view (edge ids are shared).
        let lengths = crate::sparsify::length_view(&current);
        let sub_params = LsSubgraphParams::practical(options.subgraph_z, options.subgraph_lambda)
            .with_seed(seed);
        let sub = ls_subgraph(&lengths, &sub_params);
        let sub_edges = sub.all_edges();
        let forest = subgraph_forest(&lengths, &sub.subgraph.tree_edges, &sub_edges);

        // 2. Incremental sparsification with tree scaling.
        let (sparsifier, kappa_used) =
            sparsify_level(&current, &sub_edges, &forest, &options, seed);

        // The spectral check (Definition 6.3) and the elimination pipeline
        // are independent pure functions of `(current, sparsifier, seed)`
        // with disjoint outputs, so they run concurrently under the
        // runtime's scope API. Scheduling order cannot leak into the built
        // chain: each task's value is a deterministic function of its
        // inputs (counter-based RNG, length-only split trees), so the
        // chain stays bitwise identical at every pool width — the contract
        // `tests/parallel.rs` pins for builds as well as solves.
        let mut measured_ratio = (f64::INFINITY, 0.0);
        let mut elim_slot: Option<EliminationResult> = None;
        rayon::scope(|s| {
            s.spawn(|_| {
                measured_ratio = quadratic_form_ratio_bounds(&current, &sparsifier.graph, 12, seed);
            });
            // 3. Partial Cholesky elimination of the sparsifier, with the
            //    next level's bandwidth-reducing order baked into the
            //    reduced vertex space (the elimination then emits reduced
            //    right-hand sides directly in the next level's internal
            //    order).
            s.spawn(|_| {
                let mut elimination = greedy_elimination(&sparsifier.graph, seed);
                let next_perm = rcm_order(&elimination.reduced_graph);
                elimination.relabel_reduced(&next_perm);
                elim_slot = Some(elimination);
            });
        });
        // No `simplify`: the reduced graph is already simple, and `relabel`
        // left it canonical.
        let (next, trace) = elim_slot.expect("scope completed elimination").into_parts();

        // Provisional iteration budget from the configured κ target
        // (sampling κ × tree scale); replaced by the calibration pass below
        // with √κ_eff of the *measured* effective preconditioned spectrum
        // (under-iterating makes the recursion compound its own error,
        // over-iterating breaks the work balance).
        let kappa_target = kappa_used * sparsifier.tree_scale;
        let inner_iterations = cycle_width(kappa_target, &options);
        let below = (next.n(), next.m());
        if !cut.keeps((n, m), below, kappa_used, |limit| {
            direct_bottom_order(&current, limit)
        }) {
            break;
        }
        // Provisional bounds from the sampled ratio; replaced by the
        // power-iteration calibration below once the chain is complete.
        let cheb_bounds = provisional_bounds(measured_ratio, kappa_target);
        levels.push(ChainLevel {
            graph: Some(current),
            n,
            m,
            stream_bytes: 0,
            storage_precision: Precision::F64,
            trace: Some(trace),
            kappa: kappa_used,
            tree_scale: sparsifier.tree_scale,
            kappa_clamped: sparsifier.kappa_clamped,
            measured_ratio,
            sparsifier_edges: sparsifier.edge_count(),
            subgraph_edges: sparsifier.subgraph_edges,
            inner_iterations,
            cheb_bounds,
        });
        current = next;
    }

    // The bottom is the last graph offered, the one below the kept levels.
    let direct_order = cut.finish();
    // A direct bottom is relabelled once, into its minimum-degree order,
    // and so is whatever hands vectors to it: the elimination above it, or
    // at depth 0 the boundary permutation and component labels. Solves
    // then never permute at the bottom. An iterative bottom keeps the
    // level order.
    if let Some(order) = &direct_order {
        current = relabel(&current, order);
        match levels.last_mut() {
            Some(above) => above
                .trace
                .as_mut()
                .expect("traces compile after the cut")
                .relabel_kept(order),
            None => {
                for p in top_perm.iter_mut() {
                    *p = order[*p as usize];
                }
                let mut labels = vec![0; order.len()];
                for (&new, &label) in order.iter().zip(&top_comps.labels) {
                    labels[new as usize] = label;
                }
                top_comps.labels = labels;
            }
        }
    }
    let factor_bottom = |g: &Graph| {
        direct_order
            .is_some()
            .then(|| SparseLdl::from_graph(g, 1e-10))
    };

    if levels.is_empty() {
        // The loop built no level: the top system is the bottom.
        let top = TopLevel {
            graph: current,
            perm: top_perm,
            comps: top_comps,
            bottom_target,
        };
        let (matrix, factor) = rayon::join(
            || PermutedLevel::from_graph(&top.graph),
            || factor_bottom(&top.graph),
        );
        let bottom = bottom_solver(
            &top.graph,
            &matrix,
            &top.comps,
            factor.is_some(),
            options.seed,
        );
        return top.into_depth0(matrix, bottom, factor, options);
    }

    // Bottom solver. The bottom graph is already in the order the last
    // elimination emits: a direct bottom's minimum-degree order, which the
    // factor takes as given. The merged-row matrix, the sparse
    // factorization, and the component labelling are
    // independent pure functions of the finished graph, so they run
    // concurrently under the scope (same width-independence argument as
    // the per-level passes above).
    let mut bottom_matrix_slot: Option<PermutedLevel> = None;
    let mut factor_slot: Option<SparseLdl> = None;
    let mut comps_slot = None;
    rayon::scope(|s| {
        s.spawn(|_| bottom_matrix_slot = Some(PermutedLevel::from_graph(&current)));
        s.spawn(|_| factor_slot = factor_bottom(&current));
        comps_slot = Some(parallel_connected_components(&current));
    });
    let bottom_matrix = bottom_matrix_slot.expect("scope completed bottom matrix");
    let comps = comps_slot.expect("scope completed components");
    let bottom = bottom_solver(
        &current,
        &bottom_matrix,
        &comps,
        factor_slot.is_some(),
        options.seed,
    );

    let mut matrices: Vec<PermutedLevel> = levels
        .iter()
        .map(|l| {
            PermutedLevel::from_graph(
                l.graph
                    .as_ref()
                    .expect("level graphs are resident during build"),
            )
        })
        .collect();
    let top_matrix = matrices.remove(0);
    levels[0].stream_bytes = top_matrix.stream_bytes();
    // Demote once, after the all-f64 build: the matrices of levels ≥ 1,
    // the bottom factor and the elimination traces are what the
    // preconditioner streams per application. Level 0's matrix and the
    // bottom matrix stay f64 — the outer PCG measures true residuals
    // through them, and an f32 top operator would cap the reachable
    // residual near single-precision ε, above the 1e-8 outer tolerances
    // the solver pins. Level 0's trace demotes too: it is
    // preconditioner-internal even at the top. A depth-0 chain (above)
    // has no cycle: its bottom solve is the final answer, which must hit
    // the caller's tolerance, and a single f32-factor solve caps out near
    // 1e-7 relative.
    let cycle = if options.precision == Precision::F32 {
        for lvl in levels.iter_mut().skip(1) {
            lvl.storage_precision = Precision::F32;
        }
        let matrices = matrices.iter().map(PermutedLevel::from_level).collect();
        let factor = factor_slot.as_ref().map(SparseLdl::from_f64);
        ChainCycle::F32(Cycle::new(matrices, &mut levels, factor))
    } else {
        ChainCycle::F64(Cycle::new(matrices, &mut levels, factor_slot))
    };

    let mut chain = SolverChain {
        levels,
        top_matrix: Some(top_matrix),
        bottom_graph: current,
        bottom_matrix,
        bottom,
        bottom_labels: comps.labels,
        bottom_components: comps.count,
        top_labels: top_comps.labels,
        top_components: top_comps.count,
        top_perm,
        options,
        cycle,
        level0: None,
    };
    // Calibration runs *after* demotion so the Chebyshev intervals bracket
    // the spectrum of the operator the inner iteration actually applies.
    chain.calibrate_chebyshev_bounds();
    // The per-level Graph CSR is only consulted at build/calibration time
    // — every per-application sweep runs on the cycle's matrices — so it
    // is dropped here and a long-lived chain stops holding ~2× the matrix
    // memory it streams. (The bottom keeps its graph: `bottom_graph()`
    // and the stats read it.)
    for lvl in chain.levels.iter_mut() {
        lvl.graph = None;
    }
    chain
}

/// The floor of the W-cycle width clamp: every level below the top is
/// solved at least this many times per solve of the level above.
const MIN_INNER_ITERATIONS: usize = 2;

/// The W-cycle width of a level whose preconditioned operator has
/// condition number `kappa`: `⌈√κ⌉ + inner_extra_iterations` Chebyshev
/// steps, clamped to `[2, max_inner_iterations]` (sanitized `options`).
fn cycle_width(kappa: f64, options: &ChainOptions) -> usize {
    (kappa.sqrt().ceil() as usize + options.inner_extra_iterations)
        .clamp(MIN_INNER_ITERATIONS, options.max_inner_iterations)
}

/// Fallback Chebyshev interval from the sampled quadratic-form ratio.
fn provisional_bounds(measured_ratio: (f64, f64), kappa: f64) -> (f64, f64) {
    let (lo, hi) = measured_ratio;
    if lo.is_finite() && lo > 0.0 && hi > lo {
        (lo / 2.0, hi * 2.0)
    } else {
        (1.0 / kappa.clamp(1.0, 1e12), 1.0)
    }
}

impl SolverChain {
    /// Calibrates every level's Chebyshev interval bottom-up.
    ///
    /// Chebyshev polynomials are bounded on `[λ_min, λ_max]` but grow
    /// exponentially outside it, so the inner iteration *amplifies* any
    /// spectral mass of the effective preconditioned operator that escapes
    /// the assumed interval — with two or more levels the amplification
    /// compounds and the outer solve diverges. The effective operator at
    /// level `i` (elimination + inexact recursive solve of `A_{i+1}` +
    /// back-substitution) depends only on levels below `i`, so calibrating
    /// deepest-first is well defined; the measurement itself is
    /// [`spectrum_bounds_of_map`] on `v ↦ M_i⁻¹ A_i v`.
    fn calibrate_chebyshev_bounds(&mut self) {
        const POWER_ITERS: usize = 14;
        // Level 0 is driven by the adaptive outer flexible PCG, which needs
        // no spectrum interval — only levels >= 1 run the fixed Chebyshev
        // inner iteration. Skipping level 0 avoids the most expensive
        // calibration pass (two power iterations through the full recursion
        // on the largest graph); its cheb_bounds keep the provisional value.
        for level in (1..self.levels.len()).rev() {
            let n = self.levels[level].n();
            if n == 0 {
                continue;
            }
            // `build_chain` calibrates before dropping graphs, so the
            // component labelling always has its CSR — and the matrix
            // applied below is the (possibly demoted) operator the inner
            // iteration will actually run on.
            let comps = parallel_connected_components(
                self.levels[level]
                    .graph
                    .as_ref()
                    .expect("calibration runs before level graphs are dropped"),
            );
            let seed = self
                .options
                .seed
                .wrapping_add(0x51ab_0000 + level as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let bounds = {
                let this: &SolverChain = self;
                let mut av = vec![0.0; n];
                spectrum_bounds_of_map(
                    n,
                    |v| {
                        match &this.cycle {
                            ChainCycle::F64(c) => c.matrices[level - 1].apply(v, &mut av),
                            ChainCycle::F32(c) => c.matrices[level - 1].apply(v, &mut av),
                        }
                        let mut out = Vec::new();
                        this.precondition_rm_into(level, &av, 1, &mut out);
                        out
                    },
                    |x| project_out_componentwise_constant(x, &comps.labels, comps.count),
                    POWER_ITERS,
                    seed,
                )
            };
            let Some((lambda_min, lambda_max)) = bounds else {
                // Degenerate level (e.g. edgeless): keep provisional bounds.
                continue;
            };
            // Widen both ends: power iteration underestimates extremes, and
            // an interval that over-covers only slows Chebyshev down while
            // one that under-covers makes it diverge.
            let bounds = (lambda_min * 0.5, lambda_max * 1.4);
            self.levels[level].cheb_bounds = bounds;
            // Re-derive this level's iteration budget from the *measured*
            // effective condition number: Chebyshev needs ≈ √κ_eff steps to
            // be a constant-factor solve (Lemma 6.7), and κ_eff here — the
            // scaled sparsifier quality composed with the inexact recursion
            // below — is what the configured `tree_scale · κ` target only
            // approximates. Must happen before the level above is
            // calibrated, since its effective operator includes this
            // level's solve.
            let kappa_eff = bounds.1 / bounds.0;
            self.levels[level].inner_iterations = cycle_width(kappa_eff, &self.options);
        }
    }
}
