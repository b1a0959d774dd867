//! The preconditioner chain (Definition 6.3, Section 6.1–6.3) and the
//! recursive W-cycle solver built on it (rPCh, Lemmas 6.6–6.8).
//!
//! Construction (`build_chain`): starting from `A_1 = A`,
//!
//! 1. `Ĝ_i  = LSSubgraph(A_i)` — low-stretch ultra-sparse subgraph
//!    (Theorem 5.9, crate `parsdd-lsst`);
//! 2. `B_i  = IncrementalSparsify(A_i, Ĝ_i, κ_i, t_i)` — keep `Ĝ_i` with
//!    its forest scaled up by `t_i`, sample the remaining edges by scaled
//!    stretch (Lemma 6.1 + KMP10 tree scaling, [`crate::sparsify`]);
//! 3. `A_{i+1} = GreedyElimination(B_i)` — partial Cholesky of low-degree,
//!    bounded-fill-star, and weighted-degree-dominated vertices
//!    (Lemma 6.5, [`crate::elimination`]);
//!
//! until the level is small enough: the first graph below the top whose
//! direct factor fits the entry cap, the size floor (Section 6.3 stops
//! at ≈ `m^{1/3}`), or levels that stop shrinking. The bottom system is
//! then factored directly (Fact 6.4, a sparse LDLᵀ in minimum-degree
//! order) or, if that factor would store too many entries, solved
//! iteratively.
//!
//! Solving (`SolverChain::solve`): the top level runs the chain's one
//! block PCG (`pcg.rs`, flexible β; a depth-0 chain runs it with its
//! bottom's own preconditioner); below it the chain is a uniform
//! recursive **W-cycle** — each preconditioner application forwards the
//! residual through level `i`'s elimination, solves level `i+1` with
//! that level's *fixed* number `k_{i+1}` of preconditioned Chebyshev
//! iterations (a linear operator, as rPCh requires; `k ≥ 2` makes the
//! recursion tree a W shape), and back-substitutes, down to the bottom
//! solver. Per-level iteration counts
//! are derived from the *measured* effective condition number of the
//! scaled preconditioner: the Chebyshev interval of every level is
//! calibrated after construction by power iteration on the effective
//! preconditioned operator
//! ([`parsdd_linalg::power::spectrum_bounds_of_map`]): Chebyshev
//! polynomials explode outside their interval, so sampled-quadratic-form
//! bounds alone make deep chains diverge.
//!
//! The work balance that lets the chain go deep (DESIGN.md §2.1): with the
//! forest of level `i` scaled by `t_i`, the level's condition target is
//! `t_i·κ_i` *with certainty*, so `k_i ≈ √(t_i·κ_i)` stays small and the
//! off-forest sample budget `c·S_i·log n/(t_i·κ_i)` shrinks geometrically
//! as the levels (and their total stretch `S_i`) shrink; the stronger
//! elimination keeps the per-level vertex shrink at or above `k_i`, which
//! is the condition for `Σ_i (∏_{j≤i} k_j)·m_i` — the W-cycle's work — to
//! stay near-linear.
//!
//! Each file owns one concern — options, build, cut, cycle, pcg, report
//! and solver; DESIGN.md §2 maps them.

mod build;
mod cut;
mod cycle;
mod options;
mod pcg;
mod report;
mod solver;

pub use build::build_chain;
pub(crate) use build::build_solver_chain;
pub use options::{ChainOptions, Precision};
pub use report::{ChainQuality, ChainStats, Level0Decision, Level0Path, LevelQuality};
pub use solver::{ChainLevel, ChainPreconditioner, SolveOutcome, SolverChain};

#[cfg(test)]
mod tests {
    use super::cut::ChainCut;
    use super::*;
    use parsdd_graph::generators;
    use parsdd_graph::Graph;
    use parsdd_linalg::block::MultiVector;
    use parsdd_linalg::laplacian::LaplacianOp;
    use parsdd_linalg::operator::LinearOperator;
    use parsdd_linalg::vector::project_out_constant;
    use parsdd_linalg::SparseLdl;

    fn random_rhs(n: usize) -> Vec<f64> {
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 37) % 23) as f64 - 11.0).collect();
        project_out_constant(&mut b);
        b
    }

    fn check_solve(g: &Graph, options: &ChainOptions, tol: f64) -> SolveOutcome {
        let chain = build_chain(g, options);
        let b = random_rhs(g.n());
        let out = chain.solve(&b, tol, 300);
        assert!(
            out.converged,
            "chain solve did not converge: rel={} iters={} levels={}",
            out.relative_residual,
            out.iterations,
            chain.depth()
        );
        // Cross-check the residual against an independent operator.
        let op = LaplacianOp::new(g);
        let r = op.residual(&out.x, &b);
        assert!(parsdd_linalg::vector::norm2(&r) <= tol * 10.0 * parsdd_linalg::vector::norm2(&b));
        out
    }

    #[test]
    fn small_graph_uses_bottom_solver_only() {
        let g = generators::grid2d(8, 8, |_, _| 1.0);
        let chain = build_chain(&g, &ChainOptions::default());
        assert_eq!(
            chain.depth(),
            0,
            "64 vertices should go straight to the bottom"
        );
        let b = random_rhs(g.n());
        let out = chain.solve(&b, 1e-10, 10);
        assert!(out.converged);
    }

    #[test]
    fn depth0_iterative_bottom_reaches_caller_tolerance() {
        // m ≤ n builds no levels, and an entry cap below the cycle's fill
        // leaves the bottom iterative: its solve is the final answer, so
        // it must reach the caller's tolerance, not the loose one a bottom
        // solve inside a preconditioner application stops at, within the
        // caller's budget (Jacobi-PCG takes ~n/2 iterations on a cycle).
        // 2100 rows keep the solve's blocked reductions, 2048 rows a
        // block, above one block.
        let g = generators::cycle(2100, 1.0);
        let options = ChainOptions {
            direct_bottom_entry_limit: g.m(),
            ..Default::default()
        };
        let chain = build_chain(&g, &options);
        assert_eq!(chain.depth(), 0);
        assert!(!chain.stats().direct_bottom);
        let b = random_rhs(g.n());
        let out = chain.solve(&b, 1e-10, 4000);
        assert!(out.converged, "rel {}", out.relative_residual);
        let r = LaplacianOp::new(&g).residual(&out.x, &b);
        assert!(
            parsdd_linalg::vector::norm2(&r) <= 1e-10 * parsdd_linalg::vector::norm2(&b),
            "true residual too large"
        );
    }

    #[test]
    fn medium_grid_builds_levels_and_solves() {
        let g = generators::grid2d(32, 32, |_, _| 1.0);
        let opts = ChainOptions {
            bottom_size: 200,
            ..Default::default()
        };
        let chain = build_chain(&g, &opts);
        assert!(
            chain.depth() >= 1,
            "1600 vertices should create at least one level"
        );
        let stats = chain.stats();
        assert_eq!(stats.level_vertices.len(), chain.depth() + 1);
        // Level sizes decrease.
        for w in stats.level_vertices.windows(2) {
            assert!(
                w[1] <= w[0],
                "level sizes must not grow: {:?}",
                stats.level_vertices
            );
        }
        check_solve(&g, &opts, 1e-8);
    }

    #[test]
    fn weighted_random_graph_solve() {
        let g = generators::weighted_random_graph(700, 2800, 1.0, 20.0, 5);
        let opts = ChainOptions {
            bottom_size: 250,
            ..Default::default()
        };
        check_solve(&g, &opts, 1e-8);
    }

    #[test]
    fn high_spread_graph_solve() {
        let base = generators::grid2d(30, 30, |_, _| 1.0);
        let g = generators::with_power_law_weights(&base, 6, 7);
        let opts = ChainOptions::default();
        check_solve(&g, &opts, 1e-8);
    }

    #[test]
    fn unscaled_chain_still_converges() {
        // tree_scale = 1 recovers the pre-KMP10 behaviour.
        let g = generators::grid2d(30, 30, |_, _| 1.0);
        let opts = ChainOptions {
            tree_scale: 1.0,
            bottom_size: 200,
            ..Default::default()
        };
        check_solve(&g, &opts, 1e-8);
    }

    #[test]
    fn disconnected_graph_solve() {
        use parsdd_graph::{Edge, Graph};
        // Two grids glued into one disconnected graph.
        let g1 = generators::grid2d(12, 12, |_, _| 1.0);
        let mut edges: Vec<Edge> = g1.edges().to_vec();
        let off = g1.n() as u32;
        for e in g1.edges() {
            edges.push(Edge::new(e.u + off, e.v + off, e.w));
        }
        let g = Graph::from_edges(2 * g1.n(), edges);
        let chain = build_chain(&g, &ChainOptions::default());
        // Per-component balanced rhs.
        let mut b = vec![0.0; g.n()];
        b[0] = 1.0;
        b[10] = -1.0;
        b[g1.n()] = 2.0;
        b[g1.n() + 5] = -2.0;
        let out = chain.solve(&b, 1e-9, 200);
        assert!(out.converged, "rel {}", out.relative_residual);
    }

    #[test]
    fn solve_block_matches_single_solves_bitwise() {
        // A deep-enough grid so the blocked W-cycle really recurses, plus a
        // zero column to exercise the short-circuit inside a block.
        let g = generators::grid2d(32, 32, |_, _| 1.0);
        let opts = ChainOptions {
            bottom_size: 200,
            ..Default::default()
        };
        let chain = build_chain(&g, &opts);
        let mut cols: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                let mut b: Vec<f64> = (0..g.n())
                    .map(|i| (((i * (3 * s + 7)) % 29) as f64) - 14.0)
                    .collect();
                project_out_constant(&mut b);
                b
            })
            .collect();
        cols.insert(1, vec![0.0; g.n()]);
        let outs = chain.solve_block(&MultiVector::from_columns(&cols), 1e-9, 300);
        for (j, b) in cols.iter().enumerate() {
            let single = chain.solve(b, 1e-9, 300);
            assert!(single.converged, "column {j} single did not converge");
            assert_eq!(outs[j].iterations, single.iterations, "column {j}");
            assert_eq!(
                outs[j].relative_residual.to_bits(),
                single.relative_residual.to_bits(),
                "column {j} residual"
            );
            for (a, s) in outs[j].x.iter().zip(&single.x) {
                assert_eq!(a.to_bits(), s.to_bits(), "column {j} solution");
            }
        }
        assert_eq!(outs[1].iterations, 0, "zero column short-circuits");
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let g = generators::grid2d(20, 20, |_, _| 1.0);
        let chain = build_chain(&g, &ChainOptions::default());
        let out = chain.solve(&vec![0.0; g.n()], 1e-12, 50);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn chain_preconditioner_with_external_cg() {
        let g = generators::grid2d(32, 32, |_, _| 1.0);
        let opts = ChainOptions {
            bottom_size: 150,
            ..Default::default()
        };
        let chain = build_chain(&g, &opts);
        let op = LaplacianOp::new(&g);
        let pre = ChainPreconditioner::new(&chain);
        let b = random_rhs(g.n());
        let out = parsdd_linalg::cg::pcg_solve(
            &op,
            &pre,
            &b,
            &parsdd_linalg::cg::CgOptions {
                max_iters: 300,
                tol: 1e-9,
            },
        );
        assert!(out.converged, "rel {}", out.relative_residual);
    }

    #[test]
    fn stats_reflect_options() {
        let g = generators::weighted_random_graph(800, 3200, 1.0, 5.0, 9);
        let mut opts = ChainOptions::default().with_kappa(36.0);
        opts.bottom_size = 200;
        let chain = build_chain(&g, &opts);
        let stats = chain.stats();
        for k in &stats.kappas {
            assert_eq!(*k, 36.0);
        }
        assert!(stats.recursion_leaves >= 1.0);
        assert_eq!(stats.sparsifier_edges.len(), chain.depth());
        // The new accounting is shape-consistent with the chain.
        assert_eq!(stats.level_applications.len(), chain.depth() + 1);
        assert_eq!(stats.level_work.len(), chain.depth() + 1);
        assert_eq!(stats.tree_scales.len(), chain.depth());
        assert_eq!(stats.kappa_eff.len(), chain.depth());
        assert!(stats.work_per_application > 0.0);
        assert_eq!(
            *stats.level_applications.last().unwrap(),
            stats.recursion_leaves
        );
    }

    /// One level's shape as the bottom cut sees it: `n` vertices and `m`
    /// edges.
    #[derive(Debug, Clone, Copy)]
    struct CutLevel {
        n: usize,
        m: usize,
    }

    fn cut_level(n: usize, m: usize) -> CutLevel {
        CutLevel { n, m }
    }

    /// Synthetic chain shapes for the bottom cut: each level shrinks by
    /// `shrink` and keeps `m = 2n`; its factor stores `n · fill` entries.
    fn cut_shapes(
        n0: usize,
        shrink: usize,
        depth: usize,
        fill: usize,
    ) -> (Vec<CutLevel>, Vec<usize>) {
        (0..=depth as u32)
            .map(|i| {
                let n = n0 / shrink.pow(i);
                (cut_level(n, 2 * n), n * fill)
            })
            .unzip()
    }

    /// The cut when level `j`'s factor stores `entries[j]` entries and
    /// only factors of at most `cap` entries may be built: `shapes` run
    /// through the level loop's protocol, the last one the natural bottom.
    fn cut(shapes: &[CutLevel], entries: &[usize], cap: usize) -> usize {
        cut_and_levels_built(shapes, entries, cap).0
    }

    /// [`cut`] and the number of levels the loop built before it stopped.
    fn cut_and_levels_built(shapes: &[CutLevel], entries: &[usize], cap: usize) -> (usize, usize) {
        let options = ChainOptions {
            direct_bottom_entry_limit: cap,
            ..Default::default()
        };
        let mut cut = ChainCut::new(&options, 0);
        let mut built = 0;
        for (j, l) in shapes.iter().enumerate() {
            let natural = j + 1 == shapes.len();
            if cut.offer(natural, |limit| (entries[j] <= limit).then_some(())) {
                return (j, built);
            }
            let next = shapes[j + 1];
            let kept = cut.keeps((l.n, l.m), (next.n, next.m), 8.0, |_| None);
            assert!(kept, "no level of these shapes is a wrapper");
            built += usize::from(kept);
        }
        unreachable!("the natural bottom ends the loop")
    }

    #[test]
    fn bottom_cut_shortens_a_bottom_heavy_tail() {
        // Levels halve and the factor grows like n^1.5 (a bandwidth-
        // ordered grid): the loop stops at the first level whose factor
        // fits, and builds nothing below it.
        let (shapes, _) = cut_shapes(64_000, 2, 7, 0);
        let entries: Vec<usize> = shapes
            .iter()
            .map(|l| (l.n as f64).powf(1.5) as usize)
            .collect();
        let cap = 1 << 18;
        let first_candidate = entries.iter().position(|&e| e <= cap).unwrap();
        assert_eq!(first_candidate, 4);
        assert_eq!(cut(&shapes, &entries, cap), first_candidate);
    }

    #[test]
    fn bottom_cut_keeps_a_balanced_chain() {
        // Levels shrink 8× over a small fill. Graph 1's factor fits, so
        // the loop stops there rather than add three levels, each of
        // which costs outer iterations.
        let (shapes, entries) = cut_shapes(64_000, 8, 4, 20);
        assert_eq!(cut(&shapes, &entries, 1 << 18), 1);
        // Under a cap only the natural bottom meets, the whole balanced
        // chain is kept.
        assert_eq!(cut(&shapes, &entries, 300), shapes.len() - 1);
    }

    #[test]
    fn bottom_cut_never_picks_level_0_or_an_oversized_level() {
        // Level 0 would be the cheapest bottom by far, yet a cut keeps at
        // least one level.
        let (shapes, mut entries) = cut_shapes(3000, 2, 4, 1000);
        entries[0] = 0;
        assert_eq!(cut(&shapes, &entries, usize::MAX), 1);
        // A level whose factor passes the cap is skipped: the first level
        // that fits is the bottom.
        let (shapes, mut entries) = cut_shapes(64_000, 2, 6, 400);
        entries[2] = 100_000;
        assert_eq!(cut(&shapes, &entries, usize::MAX), 1);
        assert_eq!(cut(&shapes, &entries, 100_000), 2);
        assert_ne!(cut(&shapes, &entries, 99_999), 2);
        // An iterative natural bottom is never cut.
        assert_eq!(cut(&shapes, &entries, 100), shapes.len() - 1);
        // Depth 0 stays depth 0.
        assert_eq!(cut(&shapes[..1], &entries, usize::MAX), 0);
    }

    #[test]
    fn bottom_cut_breaks_ties_toward_the_deeper_level() {
        // Level 1 as bottom (200 + (2·30 + 2·10) = 280 flops) and the
        // natural bottom (200 + 2·20 + 2·(2·5 + 2·5) = 280 flops) cost the
        // same per application; with 29 entries level 1 costs two flops
        // less. Either way level 1 fits, so the loop stops there.
        let shapes = [cut_level(100, 200), cut_level(10, 20), cut_level(5, 10)];
        assert_eq!(cut(&shapes, &[0, 30, 5], usize::MAX), 1);
        assert_eq!(cut(&shapes, &[0, 29, 5], usize::MAX), 1);
        // Only a cap that level 1's factor passes sends the chain deeper.
        assert_eq!(cut(&shapes, &[0, 30, 5], 29), 2);
    }

    #[test]
    fn bottom_cut_prefers_a_shallow_level_with_a_small_factor() {
        // The 200×200 grid's chain: level 1's minimum-degree factor fits
        // the cap, so it is the bottom.
        let shapes = [
            cut_level(40_000, 79_600),
            cut_level(12_101, 30_000),
            cut_level(4_672, 12_000),
            cut_level(2_028, 5_200),
        ];
        let entries = [0, 186_880, 62_348, 24_836];
        assert_eq!(cut(&shapes, &entries, 1 << 18), 1);
        // A cap below level 1's factor pushes the chain deeper.
        assert_eq!(cut(&shapes, &entries, 100_000), 2);
    }

    #[test]
    fn bottom_cut_stops_the_loop_once_no_deeper_level_can_win() {
        // The 200×200 grid's chain with its tail: graph 1's factor fits,
        // so the loop stops on it with one level built and never builds
        // levels 1 and 2 or orders graphs 2–6.
        let shapes = [
            cut_level(40_000, 79_600),
            cut_level(12_101, 30_000),
            cut_level(4_672, 12_000),
            cut_level(2_028, 5_200),
            cut_level(967, 2_400),
            cut_level(450, 1_100),
            cut_level(210, 500),
        ];
        let mut entries = vec![0, 186_880, 62_348, 24_836, 10_415, 4_000, 1_500];
        assert_eq!(cut_and_levels_built(&shapes, &entries, 1 << 18), (1, 1));
        // The natural bottom the loop never reaches would be iterative:
        // it cannot cancel the cut.
        entries[6] = usize::MAX;
        assert_eq!(cut_and_levels_built(&shapes, &entries, 1 << 18), (1, 1));
        // With nothing within the cap the loop runs to the natural
        // bottom, and an iterative one keeps the whole chain.
        assert_eq!(cut_and_levels_built(&shapes, &entries, 100), (6, 6));
    }

    #[test]
    fn bottom_cut_cap_excludes_a_3d_like_level() {
        // A 3-D-like level 1 whose factor stores more than the cap: the
        // cut takes the next level.
        let shapes = [
            cut_level(64_000, 190_000),
            cut_level(20_000, 60_000),
            cut_level(8_000, 24_000),
            cut_level(3_000, 9_000),
        ];
        let entries = [0, 490_672, 150_000, 40_000];
        assert_eq!(cut(&shapes, &entries, usize::MAX), 1);
        assert_eq!(cut(&shapes, &entries, 1 << 18), 2);
    }

    #[test]
    fn min_degree_shrinks_the_bottom_factor() {
        // A direct bottom is factored in minimum-degree order: the factor
        // stays far below the dense triangle, and `bottom_graph()` is in
        // that order, so factoring it again reproduces the chain's factor.
        let g = generators::grid2d(40, 40, |_, _| 1.0);
        let chain = build_chain(&g, &ChainOptions::default());
        let stats = chain.stats();
        assert!(stats.direct_bottom);
        let bottom = chain.bottom_graph();
        let dense_triangle = bottom.n() * (bottom.n() - 1) / 2;
        assert!(
            stats.bottom_factor_nnz * 4 < dense_triangle,
            "factor {} vs dense {dense_triangle}",
            stats.bottom_factor_nnz
        );
        assert_eq!(
            SparseLdl::from_graph(bottom, 1e-10).nnz(),
            stats.bottom_factor_nnz
        );
    }

    #[test]
    fn depth0_chain_keeps_its_matrix_and_o_n_arrays_resident() {
        // Zoo rmat/small: the level-0 cut sends it to Jacobi-PCG, a
        // depth-0 chain over the whole input. It keeps the merged-row
        // matrix and the inverse diagonal, and no copy of the input graph.
        let g = generators::rmat(9, 4_096, 0x2001);
        let chain = build_solver_chain(&g, &ChainOptions::default(), 1e-8);
        assert_eq!(chain.depth(), 0);
        let (n, matrix) = (chain.bottom_matrix.n(), chain.bottom_matrix.stream_bytes());
        let resident = chain.stats().resident_bytes;
        assert!(
            resident <= matrix + 8 * n,
            "{resident} B vs matrix {matrix} B"
        );
        // The input graph alone would cost more than the O(n) arrays.
        assert!(chain.bottom_graph().resident_bytes() > 8 * n);
    }

    #[test]
    fn external_preconditioner_boundary_permutes_coherently() {
        // ChainPreconditioner speaks the *original* vertex order; its
        // single and blocked applications must agree with each other
        // bitwise (the blocked path is the row-major one).
        use parsdd_linalg::operator::Preconditioner as _;
        let g = generators::grid2d(26, 26, |_, _| 1.0);
        let chain = build_chain(
            &g,
            &ChainOptions {
                bottom_size: 150,
                ..Default::default()
            },
        );
        let pre = ChainPreconditioner::new(&chain);
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                let mut b: Vec<f64> = (0..g.n())
                    .map(|i| (((i * (5 + s)) % 19) as f64) - 9.0)
                    .collect();
                project_out_constant(&mut b);
                b
            })
            .collect();
        let block = MultiVector::from_columns(&cols);
        let mut zb = MultiVector::zeros(g.n(), cols.len());
        pre.precondition_block(&block, &mut zb);
        for (j, c) in cols.iter().enumerate() {
            let mut z1 = vec![0.0; g.n()];
            pre.precondition(c, &mut z1);
            for (a, b) in zb.col(j).iter().zip(&z1) {
                assert_eq!(a.to_bits(), b.to_bits(), "column {j}");
            }
        }
    }

    #[test]
    fn f32_chain_converges_and_slims_residency() {
        // The default cut stops this grid at depth 1, where only the
        // bottom factor demotes; a bottom-factor cap keeps levels ≥ 1 in
        // the chain, so their demotion is what the bounds below measure.
        let g = generators::grid2d(32, 32, |_, _| 1.0);
        let opts = ChainOptions {
            bottom_size: 200,
            direct_bottom_entry_limit: 3_000,
            ..Default::default()
        };
        let f64_chain = build_chain(&g, &opts);
        let f32_chain = build_chain(&g, &opts.with_precision(Precision::F32));
        assert!(f32_chain.depth() >= 2);
        // Level 0 stays f64 (the outer PCG's residual operator); every
        // deeper level demotes.
        assert_eq!(
            f32_chain.levels()[0].storage_precision(),
            Precision::F64,
            "level 0 must stay f64"
        );
        for (i, lvl) in f32_chain.levels().iter().enumerate().skip(1) {
            assert_eq!(lvl.storage_precision(), Precision::F32, "level {i}");
        }
        // The acceptance bound: demoted levels resident ≤ 0.72× f64.
        // Levels keep no graph, so the comparison is matrix-stream vs
        // matrix-stream — nnz·(4+4)+offsets·4 over nnz·(4+8)+offsets·4,
        // strictly under 2/3 plus slack. Level 0 stays f64 on both tiers
        // and must match exactly. (The last entry is the bottom, which
        // keeps its f64 matrix — only its factor's entries halve, so it is
        // bounded separately.)
        let s64 = f64_chain.stats();
        let s32 = f32_chain.stats();
        let depth = f32_chain.depth();
        assert_eq!(s32.level_resident_bytes[0], s64.level_resident_bytes[0]);
        for i in 1..depth {
            let (a, b) = (s32.level_resident_bytes[i], s64.level_resident_bytes[i]);
            assert!(
                (a as f64) <= 0.72 * (b as f64),
                "level {i}: f32 resident {a} vs f64 {b}"
            );
        }
        assert!(s32.level_resident_bytes[depth] < s64.level_resident_bytes[depth]);
        assert!(s32.resident_bytes < s64.resident_bytes);
        assert!(s32.streamed_bytes_per_application < 0.75 * s64.streamed_bytes_per_application);
        // Full outer accuracy through the f64 top operator.
        let b = random_rhs(g.n());
        let out = f32_chain.solve(&b, 1e-8, 300);
        assert!(out.converged, "rel {}", out.relative_residual);
        let op = LaplacianOp::new(&g);
        let r = op.residual(&out.x, &b);
        assert!(
            parsdd_linalg::vector::norm2(&r) <= 1e-7 * parsdd_linalg::vector::norm2(&b),
            "true residual too large"
        );
        // Iteration envelope vs the f64 chain.
        let out64 = f64_chain.solve(&b, 1e-8, 300);
        assert!(
            out.iterations as f64 <= 1.5 * out64.iterations.max(1) as f64,
            "f32 {} iters vs f64 {}",
            out.iterations,
            out64.iterations
        );
    }

    #[test]
    fn f32_knob_keeps_f64_bottom_on_shallow_chains() {
        // A bottom-only chain returns its bottom solve as the final
        // answer, so the knob must leave the bottom factor in f64 —
        // tight tolerances stay reachable in one solve.
        let g = generators::grid2d(12, 12, |x, y| 1.0 + ((x + 2 * y) % 3) as f64);
        let chain = build_chain(&g, &ChainOptions::default().with_precision(Precision::F32));
        assert_eq!(chain.depth(), 0);
        let stats = chain.stats();
        assert!(stats.direct_bottom);
        let b = random_rhs(g.n());
        let out = chain.solve(&b, 1e-10, 60);
        assert!(out.converged, "rel {}", out.relative_residual);
    }

    #[test]
    fn f32_block_solve_matches_single_solves_bitwise() {
        let g = generators::grid2d(30, 30, |_, _| 1.0);
        let opts = ChainOptions {
            bottom_size: 200,
            ..Default::default()
        }
        .with_precision(Precision::F32);
        let chain = build_chain(&g, &opts);
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|s| {
                let mut b: Vec<f64> = (0..g.n())
                    .map(|i| (((i * (2 * s + 5)) % 31) as f64) - 15.0)
                    .collect();
                project_out_constant(&mut b);
                b
            })
            .collect();
        let outs = chain.solve_block(&MultiVector::from_columns(&cols), 1e-9, 300);
        for (j, b) in cols.iter().enumerate() {
            let single = chain.solve(b, 1e-9, 300);
            assert_eq!(outs[j].iterations, single.iterations, "column {j}");
            for (a, s) in outs[j].x.iter().zip(&single.x) {
                assert_eq!(a.to_bits(), s.to_bits(), "column {j}");
            }
        }
    }

    #[test]
    fn f64_default_is_knob_independent() {
        // ChainOptions::default() must behave bitwise-identically to an
        // explicit F64 knob — the default path is determinism-pinned.
        let g = generators::grid2d(28, 28, |x, y| 1.0 + ((x + 2 * y) % 3) as f64);
        let a = build_chain(&g, &ChainOptions::default());
        let b = build_chain(&g, &ChainOptions::default().with_precision(Precision::F64));
        let rhs = random_rhs(g.n());
        let xa = a.solve(&rhs, 1e-9, 300);
        let xb = b.solve(&rhs, 1e-9, 300);
        assert_eq!(xa.iterations, xb.iterations);
        for (u, v) in xa.x.iter().zip(&xb.x) {
            assert_eq!(u.to_bits(), v.to_bits());
        }
        // And every f64 level streams f64.
        for lvl in a.levels() {
            assert_eq!(lvl.storage_precision(), Precision::F64);
        }
    }

    // `from_env` itself is not exercised here: tests run in parallel and
    // `SddSolverOptions::default` reads the variable, so mutating the
    // process environment would race with every other test.
    #[test]
    fn precision_env_value_parses_case_insensitively() {
        for (v, p) in [
            ("f32", Precision::F32),
            ("F32", Precision::F32),
            ("f64", Precision::F64),
            ("F64", Precision::F64),
        ] {
            assert_eq!(Precision::parse_env_value(v), p, "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "PARSDD_PRECISION=\"fp32\" is not a precision")]
    fn precision_env_value_rejects_a_typo() {
        Precision::parse_env_value("fp32");
    }

    #[test]
    fn options_validation_rejects_bad_fields() {
        let good = ChainOptions::default();
        assert!(good.validate().is_ok());
        let mut bad = good;
        bad.kappa = 0.5;
        assert!(bad.validate().is_err());
        bad = good;
        bad.extra_fraction = f64::NAN;
        assert!(bad.validate().is_err());
        bad = good;
        bad.tree_scale = f64::INFINITY;
        assert!(bad.validate().is_err());
        bad = good;
        bad.bottom_size = 0;
        assert!(bad.validate().is_err());
        bad = good;
        bad.min_shrink = 1.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn sanitized_options_are_valid_and_build_safely() {
        let bad = ChainOptions {
            kappa: 0.0,
            extra_fraction: f64::INFINITY,
            tree_scale: f64::NAN,
            oversample: -3.0,
            bottom_size: 0,
            min_shrink: f64::NAN,
            ..Default::default()
        };
        let clean = bad.sanitized();
        assert!(clean.validate().is_ok(), "{:?}", clean.validate());
        // build_chain sanitizes internally: garbage options still converge
        // instead of diverging deep inside the build.
        let g = generators::grid2d(24, 24, |_, _| 1.0);
        let chain = build_chain(&g, &bad);
        let b = random_rhs(g.n());
        let out = chain.solve(&b, 1e-8, 300);
        assert!(out.converged, "rel {}", out.relative_residual);
    }
}
