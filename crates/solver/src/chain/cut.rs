//! Where the chain stops (DESIGN.md §2.10). Section 6.3 builds levels
//! "until the level is small enough"; here that decision is the level-0
//! probe cap, the size floor, the shrink stall, the wrapper level and the
//! first graph whose factor fits the entry cap, and [`ChainCut`] asks the
//! last four in the level loop's order, so the loop itself compares no
//! sizes.

use parsdd_graph::reorder::min_degree_order;
use parsdd_graph::Graph;

use super::{ChainOptions, SolverChain};

/// The chain's per-solve floor in level-0 sweeps, the price the level-0
/// cut holds Jacobi-PCG's predicted iterations against (DESIGN.md
/// §2.10): at 1e-8 no chain in the zoo or the benchmark converges in
/// fewer than ~25 outer iterations, and each costs at least ~3 level-0
/// sweeps (the outer product, level 0's elimination passes and the
/// W-cycle's ≥ 2 sweeps of level 1). The floor leaves out the chain's
/// build, so it errs toward the chain.
const CHAIN_FLOOR_SWEEPS: f64 = 75.0;

/// Jacobi-PCG iterations to a depth-0 chain's final tolerance at solve
/// tolerance `tol`, per probe sweep to
/// [`SolverChain::PRECOND_BOTTOM_TOL`]: `ln(1/tol_final) / ln(1/3e-2)`.
fn iterations_per_probe_sweep(tol: f64) -> f64 {
    SolverChain::final_bottom_tol(tol).ln() / SolverChain::PRECOND_BOTTOM_TOL.ln()
}

/// Most probe sweeps that still send level 0 to Jacobi-PCG at solve
/// tolerance `tol`: the largest whose extrapolated iteration count stays
/// within [`CHAIN_FLOOR_SWEEPS`] (12 at 1e-8). Zero, so no probe, at
/// `tol = 0`, which asks for the full iteration budget.
pub(super) fn level0_probe_cap(tol: f64) -> usize {
    if tol > 0.0 {
        (CHAIN_FLOOR_SWEEPS / iterations_per_probe_sweep(tol)).floor() as usize
    } else {
        0
    }
}

/// Jacobi-PCG iterations to the final tolerance at solve tolerance `tol`,
/// extrapolated from a probe that converged in `probe_sweeps` sweeps.
pub(super) fn predicted_iterations(probe_sweeps: usize, tol: f64) -> usize {
    (probe_sweeps as f64 * iterations_per_probe_sweep(tol)).ceil() as usize
}

/// Exponent of Section 6.3's size floor, `m^{1/3}` vertices.
const BOTTOM_EXPONENT: f64 = 1.0 / 3.0;

/// Size floor of the level loop on an input of `input_m` edges:
/// `max(bottom_size, m^{1/3})` vertices.
pub(super) fn size_floor(input_m: usize, bottom_size: usize) -> usize {
    let input_m = input_m.max(1);
    bottom_size.max((input_m as f64).powf(BOTTOM_EXPONENT).ceil() as usize)
}

/// Whether the level loop builds another level on a graph of `n`
/// vertices and `m` edges with `depth` levels above it: the graph is
/// above the size `floor`, has more edges than a forest, and the depth
/// backstop allows it.
pub(super) fn grows_level(
    n: usize,
    m: usize,
    depth: usize,
    floor: usize,
    max_levels: usize,
) -> bool {
    n > floor && m > n && depth < max_levels
}

/// The shrink stall: recursing past a level `(n, m)` whose reduced graph
/// `next` stopped shrinking, by `min_shrink` in vertices or 1.05× in
/// edges, only multiplies the W-cycle's work without reducing the
/// bottom, so `next` is the natural bottom.
fn stalls(level: (usize, usize), next: (usize, usize), min_shrink: f64) -> bool {
    let shrink_n = level.0 as f64 / next.0.max(1) as f64;
    let shrink_m = level.1 as f64 / next.1.max(1) as f64;
    shrink_n < min_shrink || shrink_m < 1.05
}

/// The wrapper level: a level on `n` vertices whose sampler kept every
/// off-subgraph edge (`kappa_used` ≈ 1, not the tree-scaled target) and
/// whose elimination left `next_n` > 0.85·n vertices solves the same
/// system through extra inner iterations, so the bottom takes its graph.
fn is_wrapper(kappa_used: f64, n: usize, next_n: usize) -> bool {
    kappa_used <= 1.5 && next_n as f64 > 0.85 * n as f64
}

/// Where the chain stops (DESIGN.md §2.10): the level loop's stop rules,
/// asked in the loop's order — before a level is built on a graph
/// ([`Self::stops_at`]) and once its reduced graph exists
/// ([`Self::keeps`]).
///
/// The loop stops at the first graph `j ≥ 1` whose minimum-degree factor
/// fits the entry cap, which becomes the direct bottom; no level below it
/// is built and no graph below it ordered. A natural bottom (size floor,
/// stall or wrapper) ends the loop whether or not it fits; one that does
/// not is solved iteratively. `O` is the bottom's stored order.
pub(super) struct ChainCut<O> {
    /// The build's options: `max_levels`, `min_shrink` and the entry cap
    /// `direct_bottom_entry_limit`.
    options: ChainOptions,
    /// The loop's [`size_floor`].
    floor: usize,
    /// Set when the last level kept stalled ([`stalls`]).
    stalled: bool,
    /// Index of the next graph the loop offers.
    next: usize,
    /// The bottom's minimum-degree order, once a graph fits.
    order: Option<O>,
}

impl<O> ChainCut<O> {
    /// The cut of a build under sanitized `options` whose loop stops at
    /// `floor` vertices.
    pub(super) fn new(options: &ChainOptions, floor: usize) -> Self {
        ChainCut {
            options: *options,
            floor,
            stalled: false,
            next: 0,
            order: None,
        }
    }

    /// Offers the graph below the levels kept so far (`n` vertices, `m`
    /// edges) as the bottom; whether the loop stops on it, because its
    /// factor fits or because it is the natural bottom.
    pub(super) fn stops_at(
        &mut self,
        n: usize,
        m: usize,
        order: impl FnOnce(usize) -> Option<O>,
    ) -> bool {
        let max_levels = self.options.max_levels;
        let natural = self.stalled || !grows_level(n, m, self.next, self.floor, max_levels);
        self.offer(natural, order)
    }

    /// Whether the loop keeps the level just built on the last graph
    /// offered, `level = (n, m)`, sampled at `kappa_used`, with reduced
    /// graph `next`. A wrapper ([`is_wrapper`]) stops the loop and its
    /// graph is the natural bottom: below the top its factor was already
    /// found not to fit, so it is solved iteratively; the top graph is
    /// offered now.
    pub(super) fn keeps(
        &mut self,
        level: (usize, usize),
        next: (usize, usize),
        kappa_used: f64,
        order: impl FnOnce(usize) -> Option<O>,
    ) -> bool {
        if is_wrapper(kappa_used, level.0, next.0) {
            if self.next == 0 {
                self.offer(true, order);
            }
            return false;
        }
        self.next += 1;
        self.stalled = stalls(level, next, self.options.min_shrink);
        true
    }

    /// Offers the graph at index `next` as the bottom and returns whether
    /// the loop stops on it. `order(limit)` orders it, returning `None`
    /// when it has no edges or its factor stores more than `limit`
    /// entries. Below the top, a graph whose factor fits stops the loop;
    /// the top graph is offered only as a `natural` bottom, since a cut
    /// keeps at least one level.
    pub(super) fn offer(&mut self, natural: bool, order: impl FnOnce(usize) -> Option<O>) -> bool {
        if self.next == 0 && !natural {
            return false;
        }
        self.order = order(self.options.direct_bottom_entry_limit);
        natural || self.order.is_some()
    }

    /// The bottom's order once the loop has stopped: `Some` when it is to
    /// be factored. The bottom is the last graph offered.
    pub(super) fn finish(self) -> Option<O> {
        self.order
    }
}

/// Solves of each level per top-level preconditioner application under
/// the W-cycle recursion — the work model of
/// [`ChainStats`](super::ChainStats), read by [`SolverChain::stats`].
/// `inner_iterations` holds each level's
/// W-cycle width `k_i`, top first. Entry 0 is the top application
/// itself; it sweeps level 0's elimination once and solves level 1 once,
/// and a solve of level `i ≥ 1` runs `k_i` inner iterations, each one
/// sweep of `A_i` and one solve of level `i+1`. So entry `i+1` is both
/// the solves of level `i+1` (the bottom for the last entry: the
/// recursion leaves) and the sweeps of level `i`'s matrix.
pub(super) fn w_cycle_solves(inner_iterations: impl IntoIterator<Item = usize>) -> Vec<f64> {
    let mut solves = vec![1.0f64];
    for (i, k) in inner_iterations.into_iter().enumerate() {
        solves.push(solves_below(i, solves[i], k));
    }
    solves
}

/// Solves of level `i + 1` per application, given level `i`'s `solves`
/// and W-cycle width `k` (see [`w_cycle_solves`]).
fn solves_below(i: usize, solves: f64, k: usize) -> f64 {
    if i == 0 {
        solves
    } else {
        solves * k as f64
    }
}

/// Modelled flops of one direct bottom solve: both triangular passes over
/// a factor of `entries` stored entries plus the diagonal scaling of `n`.
pub(super) fn direct_bottom_flops(n: usize, entries: usize) -> f64 {
    2.0 * entries as f64 + 2.0 * n as f64
}

/// The minimum-degree order of a bottom candidate `g` (a simple graph)
/// whose direct factor stores at most `limit` entries; `None` when it has
/// no edges or its factor would be larger. Every edge is an entry of the
/// factor, so a level with more than `limit` edges is out without being
/// ordered.
pub(super) fn direct_bottom_order(g: &Graph, limit: usize) -> Option<Vec<u32>> {
    if g.m() == 0 || g.m() > limit {
        return None;
    }
    min_degree_order(g, limit).map(|(order, _)| order)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built graph as the stop rules see it: `n` vertices, `m`
    /// edges and the sampling κ of the level built on it.
    #[derive(Debug, Clone, Copy)]
    struct Shape {
        n: usize,
        m: usize,
        kappa: f64,
    }

    fn shape(n: usize, m: usize, kappa: f64) -> Shape {
        Shape { n, m, kappa }
    }

    /// Runs `shapes` through the level loop's stop protocol, graph `j`'s
    /// factor storing `entries[j]` entries under an entry cap `cap` and a
    /// size floor `floor`. Returns the levels built, the bottom's index
    /// and whether the bottom is factored.
    fn replay(
        shapes: &[Shape],
        entries: &[usize],
        cap: usize,
        floor: usize,
    ) -> (usize, usize, bool) {
        let options = ChainOptions {
            direct_bottom_entry_limit: cap,
            ..ChainOptions::default()
        };
        let mut cut = ChainCut::new(&options, floor);
        let order = |j: usize| move |limit: usize| (entries[j] <= limit).then_some(());
        let mut built = 0;
        for (j, pair) in shapes.windows(2).enumerate() {
            let (s, next) = (pair[0], pair[1]);
            if cut.stops_at(s.n, s.m, order(j))
                || !cut.keeps((s.n, s.m), (next.n, next.m), s.kappa, order(j))
            {
                return (built, j, cut.finish().is_some());
            }
            built += 1;
        }
        let last = shapes.len() - 1;
        let s = shapes[last];
        assert!(
            cut.stops_at(s.n, s.m, order(last)),
            "the last shape ends the loop"
        );
        (built, last, cut.finish().is_some())
    }

    #[test]
    fn a_level_that_stops_shrinking_makes_the_graph_below_it_the_natural_bottom() {
        // Level 1 leaves 7 000 of its 8 000 vertices (1.14× < 1.3): graph
        // 2 is the natural bottom although it is above the floor, so the
        // loop builds two levels and factors graph 2, the only graph whose
        // factor fits the cap.
        let shapes = [
            shape(64_000, 128_000, 8.0),
            shape(8_000, 16_000, 8.0),
            shape(7_000, 14_000, 8.0),
            shape(2_000, 4_000, 8.0),
        ];
        let entries = [0, 200_000, 50_000, 1_000];
        assert_eq!(replay(&shapes, &entries, 100_000, 2_000), (2, 2, true));
        // Edges alone stall it too: vertices halve, edges shrink 1.04×.
        let mut edges_stall = shapes;
        edges_stall[2] = shape(4_000, 15_385, 8.0);
        assert_eq!(replay(&edges_stall, &entries, 100_000, 2_000), (2, 2, true));
        // A level that shrinks by min_shrink or more is no stall: graph 2
        // is an ordinary candidate, whose factor fits, so the loop stops
        // there too; with graph 2 over the cap it goes on to the floor.
        let mut shrinking = shapes;
        shrinking[2] = shape(6_000, 12_000, 8.0);
        assert_eq!(replay(&shrinking, &entries, 100_000, 2_000), (2, 2, true));
        let unfactorable = [0, 200_000, 200_000, 0];
        assert_eq!(
            replay(&shrinking, &unfactorable, 100_000, 2_000),
            (3, 3, true)
        );
        // A stalled natural bottom whose factor passes the cap is solved
        // iteratively where it stands.
        assert_eq!(
            replay(&shapes, &unfactorable, 100_000, 2_000),
            (2, 2, false)
        );
    }

    #[test]
    fn a_wrapper_level_is_dropped_and_its_graph_re_offered_as_the_natural_bottom() {
        // Graph 1's factor fits: the loop stops on it before building the
        // level that would be a wrapper (κ ≤ 1.5, 90% of the vertices
        // left), so one level stays and graph 1 is the bottom.
        let shapes = [
            shape(64_000, 128_000, 8.0),
            shape(8_000, 16_000, 1.5),
            shape(7_200, 14_000, 8.0),
            shape(2_000, 4_000, 8.0),
        ];
        assert_eq!(
            replay(&shapes, &[0, 80_000, 0, 0], 100_000, 2_000),
            (1, 1, true)
        );
        // Its factor passes the cap: the level on it is built, is a
        // wrapper and is dropped, and graph 1 is the iterative natural
        // bottom.
        let oversized = [0, 200_000, 0, 0];
        assert_eq!(replay(&shapes, &oversized, 100_000, 2_000), (1, 1, false));
        // A sampling κ above 1.5, or an elimination that leaves no more
        // than 85% of the vertices, is no wrapper: the level is kept (and
        // stalls, so graph 2 is the natural bottom).
        let mut sampled = shapes;
        sampled[1].kappa = 1.6;
        assert_eq!(replay(&sampled, &oversized, 100_000, 2_000).0, 2);
        let mut eliminated = shapes;
        eliminated[2] = shape(6_800, 14_000, 8.0);
        assert_eq!(replay(&eliminated, &oversized, 100_000, 2_000).0, 2);
        // The level on graph 2 would be a wrapper, but graph 1 fits, so
        // the loop stops there whether or not graph 2 would fit. With
        // neither fitting, the wrapper on graph 2 is dropped and graph 2
        // is the iterative natural bottom.
        let deeper = [
            shape(64_000, 128_000, 8.0),
            shape(8_000, 16_000, 8.0),
            shape(4_000, 8_000, 1.0),
            shape(3_900, 7_800, 8.0),
        ];
        assert_eq!(
            replay(&deeper, &[0, 80_000, 20_000, 0], 100_000, 2_000),
            (1, 1, true)
        );
        assert_eq!(
            replay(&deeper, &[0, 80_000, 200_000, 0], 100_000, 2_000),
            (1, 1, true)
        );
        assert_eq!(
            replay(&deeper, &[0, 200_000, 200_000, 0], 100_000, 2_000),
            (2, 2, false)
        );
        // At the top, a wrapper leaves a depth-0 chain on the input.
        let top = [shape(8_000, 16_000, 1.0), shape(7_900, 15_000, 8.0)];
        assert_eq!(
            replay(&top, &[50_000, 40_000], 100_000, 2_000),
            (0, 0, true)
        );
    }
}
