//! E1–E10 and A1: the paper's theorem-level claims. Each table
//! regenerates the quantity one theorem bounds; each headline times the
//! layer on the 96×96 grid (64×64 for E2, 48×48 for E10, an ultra-sparse
//! graph for E6).

use parsdd_apps::electrical::electrical_flow;
use parsdd_apps::maxflow::{approx_max_flow, exact_max_flow};
use parsdd_apps::sparsifier::spectral_sparsify;
use parsdd_decomp::partition::{partition, partition_single_class};
use parsdd_decomp::stats::decomposition_stats;
use parsdd_decomp::{split_graph, PartitionParams, SplitParams, SplitResult};
use parsdd_graph::bfs::bfs;
use parsdd_graph::mst::kruskal;
use parsdd_graph::{generators, Graph};
use parsdd_linalg::power::quadratic_form_ratio_bounds;
use parsdd_lsst::stretch::{stretch_over_subgraph_sampled, stretch_over_tree};
use parsdd_lsst::{akpw, ls_subgraph, AkpwParams, LsSubgraphParams};
use parsdd_solver::baseline;
use parsdd_solver::chain::{build_chain, ChainOptions};
use parsdd_solver::elimination::greedy_elimination;
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};
use parsdd_solver::sparsify::{incremental_sparsify, Sparsifier, SparsifyParams};

use super::{fmt, grid, header, row, timed, Record, Timer};
use crate::workloads;

/// The solve tolerance of E8, E9 and A1.
const TOL: f64 = 1e-8;

fn solver(g: &Graph, tol: f64) -> SddSolver {
    SddSolver::new_laplacian(g, SddSolverOptions::default().with_tolerance(tol))
}

/// `splitGraph` at ρ = 24: E1's and E3's decomposition.
fn split24(g: &Graph) -> SplitResult {
    split_graph(g, &SplitParams::new(24).with_seed(1))
}

/// E1 — Theorem 4.1(2): the decomposition's strong radius is at most ρ
/// (strong diameter below 2ρ) in the paper's regime ρ ≥ 2·log₂ n.
pub(super) fn e1(timer: &Timer) -> Record {
    header(
        "E1: strong radius vs rho (Theorem 4.1(2))",
        &[
            "graph",
            "n",
            "m",
            "rho",
            "components",
            "max radius",
            "strong diameter",
            "radius <= rho",
        ],
    );
    for wl in workloads::small_suite() {
        for rho in [8u32, 16, 32, 64] {
            let res = partition_single_class(&wl.graph, &PartitionParams::new(rho).with_seed(1));
            let stats = decomposition_stats(&wl.graph, &res.split, false);
            let paper_regime = rho as f64 >= 2.0 * (wl.graph.n() as f64).log2();
            row(&[
                wl.name.to_string(),
                wl.graph.n().to_string(),
                wl.graph.m().to_string(),
                rho.to_string(),
                stats.components.to_string(),
                stats.max_radius.to_string(),
                stats.max_strong_diameter.to_string(),
                format!(
                    "{}{}",
                    stats.max_radius <= rho,
                    if paper_regime {
                        ""
                    } else {
                        " (below paper regime)"
                    }
                ),
            ]);
        }
    }
    let g = grid(96);
    timer.headline(
        || split24(&g),
        |s| {
            format!(
                "components={} bfs_rounds={}",
                s.component_count, s.bfs_rounds_total
            )
        },
    )
}

/// E2 — Theorem 4.1(3): the fraction of edges cut per class decays like
/// `c₁·k·log³n / ρ`, so `fraction × ρ` stays roughly flat as ρ grows. A
/// two-class run (light/heavy edges) shows the per-class guarantee.
pub(super) fn e2(timer: &Timer) -> Record {
    header(
        "E2: cut fraction vs rho (Theorem 4.1(3); expect fraction ~ 1/rho)",
        &["graph", "rho", "cut fraction", "fraction x rho"],
    );
    let suite = workloads::small_suite();
    for wl in &suite {
        for rho in [6u32, 12, 24, 48, 96] {
            let res = partition_single_class(&wl.graph, &PartitionParams::new(rho).with_seed(3));
            let f = res.cut_fraction(0);
            row(&[
                wl.name.to_string(),
                rho.to_string(),
                fmt(f),
                fmt(f * rho as f64),
            ]);
        }
    }
    header(
        "E2b: per-class cut fractions with k = 2 classes (light/heavy edges)",
        &[
            "graph",
            "rho",
            "light-class fraction",
            "heavy-class fraction",
            "attempts",
        ],
    );
    for wl in &suite {
        let mut w: Vec<f64> = wl.graph.edges().iter().map(|e| e.w).collect();
        w.sort_by(f64::total_cmp);
        let median = w[w.len() / 2];
        let classes: Vec<u32> = wl
            .graph
            .edges()
            .iter()
            .map(|e| (e.w > median) as u32)
            .collect();
        for rho in [12u32, 48] {
            let res = partition(
                &wl.graph,
                &classes,
                2,
                &PartitionParams::new(rho).with_seed(5),
            );
            row(&[
                wl.name.to_string(),
                rho.to_string(),
                fmt(res.cut_fraction(0)),
                fmt(res.cut_fraction(1)),
                res.attempts.to_string(),
            ]);
        }
    }
    let g = grid(64);
    timer.headline(
        || partition_single_class(&g, &PartitionParams::new(24).with_seed(2)),
        |p| format!("cut_fraction={:.4}", p.max_cut_fraction()),
    )
}

/// E3 — Theorem 4.1 work/depth: `O(m log²n)` work and `O(ρ log²n)`
/// depth. Decomposition time as the grid grows should be near-linear in
/// m; total BFS rounds (≈ ρ·log n) are the machine-independent depth
/// proxy. The headline's two widths are the thread scaling.
pub(super) fn e3(timer: &Timer) -> Record {
    header(
        "E3: work scaling with graph size (expect ~linear in m)",
        &[
            "n",
            "m",
            "time (ms)",
            "time / m (us)",
            "BFS rounds (depth proxy)",
            "arcs traversed / m",
        ],
    );
    for (n, g) in workloads::grid_scaling_suite() {
        let (split, ms) = timed(|| split24(&g));
        row(&[
            n.to_string(),
            g.m().to_string(),
            fmt(ms),
            fmt(ms * 1000.0 / g.m() as f64),
            split.bfs_rounds_total.to_string(),
            fmt(split.arcs_traversed as f64 / g.m() as f64),
        ]);
    }
    let g = grid(96);
    timer.headline(
        || split24(&g).bfs_rounds_total,
        |r| format!("bfs_rounds={r}"),
    )
}

/// E4 — Theorem 5.1: AKPW spanning trees have average stretch
/// `2^{O(√(log n log log n))}`, against the Θ(√n) average stretch of an
/// MST on a grid (and a BFS tree for comparison).
pub(super) fn e4(timer: &Timer) -> Record {
    header(
        "E4: average stretch of AKPW trees vs baselines (Theorem 5.1)",
        &[
            "graph",
            "n",
            "m",
            "MST avg",
            "BFS-tree avg",
            "AKPW avg",
            "AKPW max",
            "iterations",
        ],
    );
    let mut cases: Vec<(String, Graph)> = [24usize, 48, 96]
        .iter()
        .map(|&side| (format!("grid-{side}x{side}"), grid(side)))
        .collect();
    cases.push((
        "weighted-grid-48".into(),
        generators::with_power_law_weights(&grid(48), 5, 3),
    ));
    cases.push((
        "rand-regular-4 (n=2048)".into(),
        generators::random_regular(2048, 4, 9),
    ));
    for (name, g) in &cases {
        let mst = stretch_over_tree(g, &kruskal(g));
        let bfs_tree = stretch_over_tree(g, &bfs(g, 0).tree_edges());
        let tree = akpw(g, &AkpwParams::practical(32.0).with_seed(5));
        let rep = stretch_over_tree(g, &tree.tree_edges);
        row(&[
            name.clone(),
            g.n().to_string(),
            g.m().to_string(),
            fmt(mst.average_stretch),
            fmt(bfs_tree.average_stretch),
            fmt(rep.average_stretch),
            fmt(rep.max_stretch),
            tree.iterations.to_string(),
        ]);
    }
    let g = grid(96);
    timer.headline(
        || {
            let t = akpw(&g, &AkpwParams::practical(16.0).with_seed(2));
            stretch_over_tree(&g, &t.tree_edges).average_stretch
        },
        |s| format!("avg_stretch={s:.3}"),
    )
}

/// E5 — Theorem 5.9: the low-stretch subgraph trades extra edges for
/// stretch, `n−1+m(c·log³n/β)^λ` edges against `m·β²·log^{3λ+3}n` total
/// stretch. The bucket base z plays β and the promotion lag λ sets how
/// fast the extra-edge count falls.
pub(super) fn e5(timer: &Timer) -> Record {
    header(
        "E5: edges vs stretch trade-off of LSSubgraph (Theorem 5.9)",
        &[
            "graph",
            "z",
            "lambda",
            "edges",
            "extra vs tree",
            "avg stretch (sampled)",
            "AKPW tree avg stretch",
        ],
    );
    let cases = [
        (
            "weighted-grid-64x64",
            generators::with_power_law_weights(&grid(64), 6, 11),
        ),
        (
            "weighted-random (n=2000, m=8000)",
            generators::weighted_random_graph(2000, 8_000, 1.0, 1e4, 13),
        ),
    ];
    for (name, g) in &cases {
        let tree = akpw(g, &AkpwParams::practical(16.0).with_seed(3));
        let tree_rep = stretch_over_tree(g, &tree.tree_edges);
        for (z, lambda) in [(8.0f64, 1u32), (8.0, 2), (16.0, 2), (32.0, 3)] {
            let edges =
                ls_subgraph(g, &LsSubgraphParams::practical(z, lambda).with_seed(3)).all_edges();
            let rep = stretch_over_subgraph_sampled(g, &edges, 400, 7);
            row(&[
                name.to_string(),
                fmt(z),
                lambda.to_string(),
                edges.len().to_string(),
                format!("{:+}", edges.len() as i64 - (g.n() as i64 - 1)),
                fmt(rep.average_stretch),
                fmt(tree_rep.average_stretch),
            ]);
        }
    }
    let g = grid(96);
    timer.headline(
        || ls_subgraph(&g, &LsSubgraphParams::practical(16.0, 2).with_seed(3)),
        |s| format!("subgraph_edges={}", s.all_edges().len()),
    )
}

/// E6 — Lemma 6.5: greedy elimination reduces a graph with `n` vertices
/// and `n−1+j` edges to at most `2j−2` vertices, in O(log n) randomized
/// rounds.
pub(super) fn e6(timer: &Timer) -> Record {
    header(
        "E6: greedy elimination on ultra-sparse graphs (Lemma 6.5)",
        &[
            "n",
            "extra edges j",
            "reduced vertices",
            "bound 2j",
            "rounds",
            "log2 n",
        ],
    );
    let suite = workloads::ultra_sparse_suite();
    for (n, extra, g) in &suite {
        let elim = greedy_elimination(g, 7);
        row(&[
            n.to_string(),
            extra.to_string(),
            elim.reduced_graph.n().to_string(),
            (2 * extra).to_string(),
            elim.rounds.to_string(),
            fmt((*n as f64).log2()),
        ]);
    }
    // n = 10 000 with 200 extra edges.
    let ultra = &suite[1].2;
    timer.headline(
        || greedy_elimination(ultra, 5),
        |e| format!("kept={}", e.kept.len()),
    )
}

/// The incremental sparsifier of `g` over its low-stretch subgraph (z =
/// 16, λ = 2) and that subgraph's spanning forest.
fn sparsify(g: &Graph, kappa: f64) -> Sparsifier {
    let sub_edges = ls_subgraph(g, &LsSubgraphParams::practical(16.0, 2).with_seed(3)).all_edges();
    let forest: Vec<u32> = kruskal(&g.edge_subgraph(&sub_edges))
        .into_iter()
        .map(|e| sub_edges[e as usize])
        .collect();
    let params = SparsifyParams {
        kappa,
        oversample: 2.0,
        tree_scale: 1.0,
        seed: 11,
    };
    incremental_sparsify(g, &sub_edges, &forest, &params)
}

/// E7 — Lemma 6.1/6.2: the incremental sparsifier's size shrinks like
/// `|E(Ĝ)| + O(S·log n/κ)` as κ grows, while the spectral distance to the
/// input (sampled quadratic-form ratios) widens in proportion.
pub(super) fn e7(timer: &Timer) -> Record {
    header(
        "E7: sparsifier size and spectral spread vs kappa (Lemma 6.1/6.2)",
        &[
            "graph",
            "kappa",
            "subgraph edges",
            "sampled edges",
            "total",
            "ratio spread hi/lo",
        ],
    );
    let cases = [
        (
            "weighted-random (n=1500, m=7500)",
            generators::weighted_random_graph(1500, 7_500, 1.0, 8.0, 5),
        ),
        (
            "grid-48 weighted",
            generators::with_power_law_weights(&grid(48), 4, 9),
        ),
    ];
    for (name, g) in &cases {
        for kappa in [4.0f64, 16.0, 64.0, 256.0, 1024.0] {
            let sp = sparsify(g, kappa);
            let (lo, hi) = quadratic_form_ratio_bounds(g, &sp.graph, 20, 13);
            row(&[
                name.to_string(),
                fmt(kappa),
                sp.subgraph_edges.to_string(),
                sp.sampled_edges.to_string(),
                sp.edge_count().to_string(),
                fmt(hi / lo),
            ]);
        }
    }
    let g = grid(96);
    timer.headline(
        || sparsify(&g, 64.0),
        |sp| format!("sparsifier_edges={}", sp.graph.m()),
    )
}

/// E8 — Theorem 1.1 (work): the chain's time grows near-linearly in m,
/// against the CG baselines at ε = 1e-8. The headline builds and solves.
pub(super) fn e8(timer: &Timer) -> Record {
    header(
        "E8: solver vs baselines at eps = 1e-8 (Theorem 1.1, work)",
        &[
            "graph",
            "n",
            "m",
            "chain build (ms)",
            "chain solve (ms)",
            "chain iters",
            "CG (ms/iters)",
            "Jacobi-PCG (ms/iters)",
            "Tree-PCG (ms/iters)",
        ],
    );
    for wl in workloads::small_suite() {
        let g = &wl.graph;
        let b = workloads::rhs(g.n(), 3);
        let (s, build_ms) = timed(|| solver(g, TOL));
        let (out, solve_ms) = timed(|| s.solve(&b));
        let mut cols = vec![
            wl.name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            fmt(build_ms),
            fmt(solve_ms),
            format!("{} (conv={})", out.iterations, out.converged),
        ];
        for solve in [
            baseline::solve_cg,
            baseline::solve_jacobi_pcg,
            baseline::solve_tree_pcg,
        ] {
            let (o, ms) = timed(|| solve(g, &b, TOL, 20_000));
            cols.push(format!("{}/{}", fmt(ms), o.iterations));
        }
        row(&cols);
    }
    header(
        "E8b: solve-time scaling with size (grids; expect ~linear in m)",
        &[
            "n",
            "m",
            "build (ms)",
            "solve (ms)",
            "solve time / m (us)",
            "chain levels",
        ],
    );
    for (n, g) in workloads::grid_scaling_suite() {
        let b = workloads::rhs(g.n(), 5);
        let (s, build_ms) = timed(|| solver(&g, TOL));
        let (out, solve_ms) = timed(|| s.solve(&b));
        row(&[
            n.to_string(),
            g.m().to_string(),
            fmt(build_ms),
            fmt(solve_ms),
            fmt(solve_ms * 1000.0 / g.m() as f64),
            format!("{} (conv={})", s.chain().depth(), out.converged),
        ]);
    }
    let g = grid(96);
    let b = workloads::rhs(g.n(), 7);
    timer.headline(
        || solver(&g, TOL).solve(&b),
        |o| {
            format!(
                "iterations={} residual={:.3e}",
                o.iterations, o.relative_residual
            )
        },
    )
}

/// E9 — Theorem 1.1 (depth) and Section 6.3: the chain's shape (level
/// sizes, m^{1/3} termination, recursion width ∏√κ_i). The headline
/// times the solve alone against a chain built once; its two widths are
/// the thread scaling.
pub(super) fn e9(timer: &Timer) -> Record {
    header(
        "E9: chain shape (Definition 6.3 / Section 6.3 termination)",
        &[
            "graph",
            "level vertices",
            "level edges",
            "kappas",
            "recursion width",
            "dense bottom",
            "m^(1/3)",
        ],
    );
    for wl in workloads::small_suite() {
        let stats = solver(&wl.graph, TOL).stats();
        let kappas: Vec<f64> = stats.kappas.iter().map(|k| k.round()).collect();
        row(&[
            wl.name.to_string(),
            format!("{:?}", stats.level_vertices),
            format!("{:?}", stats.level_edges),
            format!("{kappas:?}"),
            fmt(stats.recursion_leaves),
            stats.direct_bottom.to_string(),
            fmt((wl.graph.m() as f64).powf(1.0 / 3.0)),
        ]);
    }
    let g = grid(96);
    let b = workloads::rhs(g.n(), 7);
    let s = solver(&g, TOL);
    timer.headline(|| s.solve(&b).iterations, |i| format!("iterations={i}"))
}

/// E10 — the applications of Section 1: spectral sparsification by
/// effective resistances [SS08] and approximate max-flow by electrical
/// flows [CKM+10], both driven by the solver. The headline is one s–t
/// electrical flow.
pub(super) fn e10(timer: &Timer) -> Record {
    header(
        "E10a: spectral sparsifier quality (Spielman–Srivastava via the solver)",
        &[
            "graph",
            "m",
            "samples",
            "distinct edges",
            "quadratic-form band",
            "time (ms)",
        ],
    );
    let cases = [
        ("complete-100", generators::complete(100, 1.0)),
        (
            "erdos-renyi (n=1000, m=12000)",
            generators::erdos_renyi_gnm(1000, 12_000, 3),
        ),
    ];
    for (name, g) in &cases {
        let s = solver(g, TOL);
        let (sp, ms) = timed(|| spectral_sparsify(g, &s, 25 * g.n(), 40, 7));
        let (lo, hi) = quadratic_form_ratio_bounds(g, &sp.graph, 25, 9);
        row(&[
            name.to_string(),
            g.m().to_string(),
            sp.samples.to_string(),
            sp.distinct_edges.to_string(),
            format!("[{}, {}]", fmt(lo), fmt(hi)),
            fmt(ms),
        ]);
    }
    header(
        "E10b: approximate max-flow via electrical flows (CKM+10 inner loop)",
        &[
            "graph",
            "eps",
            "exact flow",
            "approx flow",
            "ratio",
            "electrical flows",
            "time (ms)",
        ],
    );
    let flow_cases = [
        ("grid-8x8", grid(8)),
        (
            "grid-10x10-weighted",
            generators::grid2d(10, 10, |u, v| 1.0 + ((u + v) % 3) as f64),
        ),
    ];
    for (name, g) in &flow_cases {
        let t = (g.n() - 1) as u32;
        let exact = exact_max_flow(g, 0, t);
        for eps in [0.3f64, 0.15] {
            let (approx, ms) = timed(|| approx_max_flow(g, 0, t, eps, 8));
            row(&[
                name.to_string(),
                fmt(eps),
                fmt(exact),
                fmt(approx.flow_value),
                fmt(approx.flow_value / exact),
                approx.iterations.to_string(),
                fmt(ms),
            ]);
        }
    }
    let g = grid(48);
    timer.headline(
        || electrical_flow(&g, &solver(&g, 1e-6), 0, (g.n() - 1) as u32),
        |f| format!("effective_resistance={:.4}", f.effective_resistance),
    )
}

/// A1 — ablation of the solver's design choices: the κ schedule
/// (stretch-adaptive default against the uniform κ of Lemma 6.9) with an
/// MST-preconditioned CG for context, and practical against paper AKPW
/// constants. The inner iteration is not ablated: the chain runs the
/// paper's preconditioned Chebyshev (rPCh) only. The headline builds the
/// default chain.
pub(super) fn a1(timer: &Timer) -> Record {
    header(
        "A1a: kappa schedule ablation (solve time / outer iterations)",
        &[
            "graph",
            "configuration",
            "build (ms)",
            "solve (ms)",
            "outer iters",
            "converged",
        ],
    );
    let wl = &workloads::small_suite()[0];
    let b = workloads::rhs(wl.graph.n(), 11);
    for (name, chain) in [
        ("adaptive kappa (default)", ChainOptions::default()),
        (
            "uniform kappa=64 (Lemma 6.9)",
            ChainOptions::default().with_kappa(64.0),
        ),
        ("uniform kappa=16", ChainOptions::default().with_kappa(16.0)),
    ] {
        let options = SddSolverOptions::default()
            .with_tolerance(TOL)
            .with_chain(chain);
        let (s, build_ms) = timed(|| SddSolver::new_laplacian(&wl.graph, options));
        let (out, solve_ms) = timed(|| s.solve(&b));
        row(&[
            wl.name.to_string(),
            name.to_string(),
            fmt(build_ms),
            fmt(solve_ms),
            out.iterations.to_string(),
            out.converged.to_string(),
        ]);
    }
    let (tree, ms) = timed(|| baseline::solve_tree_pcg(&wl.graph, &b, TOL, 50_000));
    row(&[
        wl.name.to_string(),
        "MST-preconditioned CG (no chain)".into(),
        "-".into(),
        fmt(ms),
        tree.iterations.to_string(),
        tree.converged.to_string(),
    ]);
    header(
        "A1b: AKPW constants — paper schedule vs practical bucket bases (average stretch)",
        &[
            "graph",
            "z (practical) / paper",
            "avg stretch",
            "iterations",
        ],
    );
    let g = generators::with_power_law_weights(&grid(48), 5, 3);
    for (label, params) in [
        ("z=8", AkpwParams::practical(8.0)),
        ("z=32", AkpwParams::practical(32.0)),
        ("z=128", AkpwParams::practical(128.0)),
        ("paper schedule", AkpwParams::paper(g.n())),
    ] {
        let t = akpw(&g, &params.with_seed(3));
        row(&[
            "weighted-grid-48".into(),
            label.into(),
            fmt(stretch_over_tree(&g, &t.tree_edges).average_stretch),
            t.iterations.to_string(),
        ]);
    }
    let g = grid(96);
    timer.headline(
        || build_chain(&g, &ChainOptions::default()),
        |c| format!("levels={}", c.stats().level_vertices.len()),
    )
}
