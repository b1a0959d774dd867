//! E11–E13, E15, E16 and the workload zoo: how the implementation
//! performs, recorded beside the paper's claims. `--quick` shrinks the
//! workloads that have a quick size.

use std::hint::black_box;

use parsdd_graph::reorder::{rcm_order, relabel};
use parsdd_graph::{generators, Csr};
use parsdd_linalg::laplacian::laplacian_apply_rowmajor;
use parsdd_linalg::permuted::PermutedLevel;
use parsdd_linalg::vector::{axpy, colwise_dots_rm};
use parsdd_linalg::Scalar;
use parsdd_solver::chain::{build_chain, ChainOptions, Precision};
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};
use parsdd_solver::sparsify::counter_coin;

use super::json::Json;
use super::{fmt, grid, header, row, timed, Record, Timer};
use crate::{workloads, zoo};

/// [`workloads::rhs`] with its mean subtracted once more.
fn balanced_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut b = workloads::rhs(n, seed);
    let mean = b.iter().sum::<f64>() / b.len() as f64;
    b.iter_mut().for_each(|v| *v -= mean);
    b
}

/// E11 — blocked multi-RHS solves: time per right-hand side of
/// `SddSolver::solve_many` against the block width k, on the
/// Spielman–Srivastava effective-resistance workload (projection
/// right-hand sides `Bᵀ W^{1/2} q_p` with counter-based ±1 coins, against
/// one prebuilt chain). Blocking streams each chain level's matrix once
/// per block, a memory-bound saving measurable at one thread on one CPU,
/// so the sweep runs on a 1-wide pool. The blocked-solve refactor's bar:
/// per-RHS time at k = 16 at most half the k = 1 time.
pub(super) fn multi_rhs(timer: &Timer) -> Record {
    let (side, num_rhs) = if timer.quick { (60, 8) } else { (120, 16) };
    let g = grid(side);
    let solver = SddSolver::new_laplacian(&g, SddSolverOptions::default().with_tolerance(1e-8));
    let rhs: Vec<Vec<f64>> = (0..num_rhs)
        .map(|p| {
            let mut y = vec![0.0f64; g.n()];
            for (id, e) in g.edges().iter().enumerate() {
                let coin = counter_coin(
                    0x55ab_0001 ^ (p as u64).wrapping_mul(0xd1b5_4a32_d192_ed03),
                    id as u64,
                );
                let w = e.w.sqrt() * if coin < 0.5 { 1.0 } else { -1.0 };
                y[e.u as usize] += w;
                y[e.v as usize] -= w;
            }
            y
        })
        .collect();
    header(
        &format!("E11: time per RHS vs block width (grid {side}x{side}, {num_rhs} projection rhs, eps = 1e-8)"),
        &["k", "total (ms)", "per-rhs (ms)", "vs k=1"],
    );
    let mut points = Vec::new();
    let mut per_rhs = Vec::new();
    for k in [1usize, 4, 16] {
        let t = timer.time_at(1, || {
            for chunk in rhs.chunks(k) {
                black_box(solver.solve_many(chunk));
            }
        });
        let per = t.min_ms / num_rhs as f64;
        per_rhs.push(per);
        row(&[
            k.to_string(),
            fmt(t.min_ms),
            fmt(per),
            format!("{:.2}x", per_rhs[0] / per),
        ]);
        points.push(Json::obj([
            ("k", k.into()),
            ("min_ms", Json::ms(t.min_ms)),
            ("mean_ms", Json::ms(t.mean_ms)),
            ("ms_per_rhs", Json::ms(per)),
        ]));
    }
    Record::Section(Json::obj([
        (
            "workload",
            format!("grid2d {side}x{side} unit weights, {num_rhs} Spielman-Srivastava projection rhs, tol 1e-8").into(),
        ),
        ("num_rhs", num_rhs.into()),
        ("threads", 1usize.into()),
        ("points", Json::Arr(points)),
        ("per_rhs_ratio_k16_vs_k1", Json::f64(per_rhs[2] / per_rhs[0])),
    ]))
}

/// E12 — one Chebyshev inner step's memory traffic, fused against
/// unfused, on the E8-sized top level (96×96 grid) and a mid-chain-sized
/// one (48×48), at one thread:
///
/// * `unfused`: graph-walk SpMV (separate diagonal array, 16-byte arcs)
///   plus two separate axpy passes, with `A·p` materialised in between;
/// * `merged_spmv`: the merged-row [`PermutedLevel`] apply plus the same
///   two axpys (the merged diag+offdiag stream's saving alone);
/// * `fused` / `fused_f32`: [`PermutedLevel::cheb_fused_sweep`], the
///   kernel the chain's W-cycle runs, at f64 and f32 storage (8 against
///   12 bytes per matrix entry, half-width vectors);
/// * `apply_then_dot` / `fused_apply_dot`: the top-level PCG's `A·p` and
///   `pᵀAp`, unfused and fused.
pub(super) fn e12(timer: &Timer) -> Record {
    /// Sweeps per timed sample: one sweep is tens of µs.
    const REPS: usize = 100;
    const ALPHA: f64 = 0.37;
    header(
        "E12: fused vs unfused inner-step kernels (1 thread)",
        &[
            "side",
            "n",
            "kernel",
            "min (us/sweep)",
            "mean (us/sweep)",
            "matrix bytes/sweep",
        ],
    );
    for side in [96usize, 48] {
        let g = grid(side);
        let g = relabel(&g, &rcm_order(&g));
        let n = g.n();
        let m = PermutedLevel::from_graph(&g);
        let m32 = PermutedLevel::<f32>::from_level(&m);
        let diag: Vec<f64> = (0..n).map(|v| g.weighted_degree(v as u32)).collect();
        let p: Vec<f64> = (0..n).map(|i| ((i * 13) % 37) as f64 - 18.0).collect();
        let x0: Vec<f64> = (0..n).map(|i| ((i * 7) % 29) as f64 - 14.0).collect();
        let r0: Vec<f64> = (0..n).map(|i| ((i * 11) % 31) as f64 - 15.0).collect();
        // Graph walk: 16 B per arc (target, weight, unused edge id) over
        // 2m arcs, usize offsets, and the separate 8-byte diagonal.
        let walk_bytes = 2 * g.m() * 16 + (n + 1) * 8 + n * 8;
        let report = |kernel: &str, bytes: usize, sweep: &mut dyn FnMut()| {
            let t = timer.time_at(1, || (0..REPS).for_each(|_| sweep()));
            let us = |ms: f64| fmt(ms * 1000.0 / REPS as f64);
            row(&[
                side.to_string(),
                n.to_string(),
                kernel.to_string(),
                us(t.min_ms),
                us(t.mean_ms),
                bytes.to_string(),
            ]);
        };
        let (mut x, mut r, mut ap) = (x0.clone(), r0.clone(), vec![0.0f64; n]);
        report("unfused", walk_bytes, &mut || {
            axpy(ALPHA, &p, &mut x);
            laplacian_apply_rowmajor(&g, &diag, &p, &mut ap, 1);
            axpy(-ALPHA, &ap, &mut r);
            black_box(r[0]);
        });
        let (mut x, mut r, mut ap) = (x0.clone(), r0.clone(), vec![0.0f64; n]);
        report("merged_spmv", m.stream_bytes(), &mut || {
            axpy(ALPHA, &p, &mut x);
            m.apply(&p, &mut ap);
            axpy(-ALPHA, &ap, &mut r);
            black_box(r[0]);
        });
        report(
            "fused",
            m.stream_bytes(),
            &mut fused_sweep(&m, [&p, &x0, &r0], ALPHA),
        );
        report(
            "fused_f32",
            m32.stream_bytes(),
            &mut fused_sweep(&m32, [&p, &x0, &r0], ALPHA),
        );
        let mut ap = vec![0.0f64; n];
        report("apply_then_dot", m.stream_bytes(), &mut || {
            m.apply(&p, &mut ap);
            black_box(colwise_dots_rm(&p, &ap, 1)[0]);
        });
        let mut ap = vec![0.0f64; n];
        report("fused_apply_dot", m.stream_bytes(), &mut || {
            black_box(m.fused_apply_dot(&p, &mut ap, 1)[0]);
        });
    }
    Record::TableOnly
}

/// One fused Chebyshev sweep at storage precision `T`, on `vectors`
/// (`p`, `x`, `r`) rounded to `T`.
fn fused_sweep<'a, T: Scalar>(
    m: &'a PermutedLevel<T>,
    vectors: [&[f64]; 3],
    alpha: f64,
) -> impl FnMut() + 'a {
    let [p, mut x, mut r] = vectors.map(|v| v.iter().map(|&x| T::from_f64(x)).collect::<Vec<T>>());
    move || {
        m.cheb_fused_sweep(alpha, &p, &mut x, &mut r, 1);
        black_box(r[0]);
    }
}

/// E13 — chain construction: `build_chain` wall time on a grid large
/// enough that every build stage (decomposition, AKPW clustering,
/// sparsifier sampling, eliminations, bottom factorisation, Chebyshev
/// calibration) crosses its parallel cutoff. The build is pinned bitwise
/// identical across widths (tests/parallel.rs), so the width columns
/// measure pure runtime overhead or speedup. The metric also times one
/// solve on the built chain: build ÷ solve is what the one-time cost
/// amortises against.
pub(super) fn e13(timer: &Timer) -> Record {
    let (side, tol) = if timer.quick {
        (96usize, 1e-6)
    } else {
        (200, 1e-8)
    };
    let g = grid(side);
    let b = balanced_rhs(g.n(), 9);
    timer.headline(
        || build_chain(&g, &ChainOptions::default()),
        |c| {
            let (outcome, solve_ms) = timed(|| c.solve(&b, tol, 1000));
            header(
                &format!("E13: chain build on grid {side}x{side}"),
                &[
                    "n",
                    "m",
                    "depth",
                    "work/app",
                    "solve (ms)",
                    "solve iters",
                    "residual",
                ],
            );
            row(&[
                g.n().to_string(),
                g.m().to_string(),
                c.depth().to_string(),
                fmt(c.stats().work_per_application),
                fmt(solve_ms),
                outcome.iterations.to_string(),
                fmt(outcome.relative_residual),
            ]);
            format!(
                "side={side} levels={} solve_ms={solve_ms:.1} solve_iterations={} residual={:.3e}",
                c.depth(),
                outcome.iterations,
                outcome.relative_residual
            )
        },
    )
}

/// The workload zoo's chain-quality record. Not a timing experiment: for
/// every family × tier, the solved chain's quality report and solve
/// outcome, the reference the conformance envelopes in tests/zoo.rs were
/// pinned from. `--quick` runs the small tier only.
pub(super) fn zoo(timer: &Timer) -> Record {
    let tiers: &[zoo::Tier] = if timer.quick {
        &[zoo::Tier::Small]
    } else {
        &zoo::Tier::ALL
    };
    header(
        "Zoo: chain quality per family x tier (eps = 1e-8)",
        &[
            "family",
            "tier",
            "n",
            "m",
            "iters",
            "residual",
            "build+solve (ms)",
            "quality",
        ],
    );
    let mut records = Vec::new();
    for &family in zoo::FAMILIES {
        for &tier in tiers {
            let g = zoo::build(family, tier);
            let (run, ms) = timed(|| zoo::run(&g, zoo::chain_options(family, tier), 1e-8));
            let q = &run.quality;
            row(&[
                family.to_string(),
                tier.name().to_string(),
                g.n().to_string(),
                g.m().to_string(),
                run.iterations.to_string(),
                fmt(run.relative_residual),
                fmt(ms),
                q.summary(),
            ]);
            records.push(Json::obj([
                ("family", family.into()),
                ("tier", tier.name().into()),
                ("vertices", g.n().into()),
                ("edges", g.m().into()),
                ("iterations", run.iterations.into()),
                ("relative_residual", Json::f64(run.relative_residual)),
                ("converged", run.converged.into()),
                (
                    "breakdown",
                    run.breakdown.clone().map_or(Json::Null, Json::from),
                ),
                ("stalled", run.stalled.into()),
                ("depth", q.depth.into()),
                ("bottom_vertices", q.bottom_vertices.into()),
                ("direct_bottom", q.direct_bottom.into()),
                ("work_per_application", Json::f64(q.work_per_application)),
                ("work_per_input_edge", Json::f64(q.work_per_input_edge)),
                ("recursion_leaves", Json::f64(q.recursion_leaves)),
                ("max_kappa_eff", Json::f64(q.max_kappa_eff())),
                ("kappa_clamp_hits", q.kappa_clamp_hits.into()),
                ("level0", Json::level0(q.level0)),
                ("build_solve_ms", Json::ms(ms)),
            ]));
        }
    }
    Record::Section(Json::Arr(records))
}

/// E15 — f64 against f32 chain storage (`ChainOptions::precision`) on
/// the E8 grid and an rMAT zoo case: per-solve wall time at one thread
/// against a prebuilt chain, outer iterations and residual at 1e-8, and
/// the chain's resident and streamed bytes. The precision knob's bars
/// (f32 ≥ 20% faster per solve on the E8 grid, per-level residency ≤
/// 0.55×) are pinned by tests/precision.rs; this is the measurement.
pub(super) fn e15(timer: &Timer) -> Record {
    let rmat_tier = if timer.quick {
        zoo::Tier::Small
    } else {
        zoo::Tier::Medium
    };
    let cases = [
        (
            "grid2d_96x96".to_string(),
            grid(96),
            ChainOptions::default(),
        ),
        (
            format!("rmat_{}", rmat_tier.name()),
            zoo::build("rmat", rmat_tier),
            zoo::chain_options("rmat", rmat_tier),
        ),
    ];
    header(
        "E15: f64 vs f32 chain storage (1 thread, eps = 1e-8)",
        &[
            "case",
            "precision",
            "solve (ms)",
            "iters",
            "residual",
            "resident (B)",
            "streamed (B/app)",
        ],
    );
    let mut records = Vec::new();
    for (case, g, options) in cases {
        let b = balanced_rhs(g.n(), 21);
        let mut points = Vec::new();
        let mut solve_ms = Vec::new();
        let mut resident = Vec::new();
        for (name, precision) in [("f64", Precision::F64), ("f32", Precision::F32)] {
            let chain = build_chain(&g, &options.with_precision(precision));
            let t = timer.time_at(1, || chain.solve(&b, 1e-8, 1000));
            let out = chain.solve(&b, 1e-8, 1000);
            let stats = chain.stats();
            row(&[
                case.clone(),
                name.to_string(),
                fmt(t.min_ms),
                out.iterations.to_string(),
                fmt(out.relative_residual),
                stats.resident_bytes.to_string(),
                fmt(stats.streamed_bytes_per_application),
            ]);
            solve_ms.push(t.min_ms);
            resident.push(stats.resident_bytes as f64);
            points.push(Json::obj([
                ("precision", name.into()),
                ("solve_min_ms", Json::ms(t.min_ms)),
                ("solve_mean_ms", Json::ms(t.mean_ms)),
                ("iterations", out.iterations.into()),
                ("relative_residual", Json::f64(out.relative_residual)),
                ("resident_bytes", stats.resident_bytes.into()),
                (
                    "streamed_bytes_per_application",
                    Json::f64(stats.streamed_bytes_per_application),
                ),
            ]));
        }
        records.push(Json::obj([
            ("case", case.into()),
            ("vertices", g.n().into()),
            ("edges", g.m().into()),
            ("points", Json::Arr(points)),
            ("solve_speedup_f32", Json::f64(solve_ms[0] / solve_ms[1])),
            ("resident_ratio_f32", Json::f64(resident[1] / resident[0])),
        ]));
    }
    Record::Section(Json::Arr(records))
}

/// Current resident set in bytes, from `/proc/self/status` (0 when the
/// platform has no procfs).
fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmRSS:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// E16 — large-scale end to end: one ≥10M-edge graph (~1M edges under
/// `--quick`) through the counter-RNG generator, the lean CSR, the PCSR
/// binary writer, PageRank over the zero-copy mmap view (the `edge_map`
/// layer off-heap), `build_chain` and `solve`. Each phase records its
/// wall time and the resident set right after it, so the memory story
/// (flat SoA arrays, dropped per-level graphs, streamed loaders) is a
/// measurement rather than a claim.
pub(super) fn e16(timer: &Timer) -> Record {
    // Random-geometric at average degree 8 gives m ≈ 4n (boundary cells
    // shave ~0.2%), so 2.6M vertices lands above the 10M-edge floor.
    let n: usize = if timer.quick { 250_000 } else { 2_600_000 };
    let mut phases: Vec<(&str, f64, u64)> = Vec::new();
    let mut phase = |name, ms| phases.push((name, ms, rss_bytes()));
    let (g, ms) = timed(|| generators::random_geometric(n, 8.0, 16));
    phase("generate", ms);
    let (csr, ms) = timed(|| Csr::from_graph(&g));
    phase("lean_csr", ms);
    let graph_bpe = g.resident_bytes() as f64 / g.m().max(1) as f64;
    let csr_bpe = csr.bytes_per_edge();
    let path = std::env::temp_dir().join(format!("parsdd_e16_{n}.pcsr"));
    let ((), ms) =
        timed(|| parsdd_graph::io::write_binary_csr_file(&csr, &path).expect("pcsr write"));
    phase("pcsr_write", ms);
    // Five fixed PageRank iterations: this phase times the SpMV sweeps,
    // not convergence.
    #[cfg(all(unix, target_endian = "little"))]
    let (pagerank, ms) = timed(|| {
        let mapped = parsdd_graph::MappedCsr::open(&path).expect("mmap");
        parsdd_apps::pagerank(&mapped, 0.85, 0.0, 5)
    });
    #[cfg(not(all(unix, target_endian = "little")))]
    let (pagerank, ms) = timed(|| {
        let c = parsdd_graph::io::read_binary_csr_file(&path).expect("pcsr read");
        parsdd_apps::pagerank(&c, 0.85, 0.0, 5)
    });
    phase(
        if cfg!(all(unix, target_endian = "little")) {
            "mmap_pagerank"
        } else {
            "streamed_pagerank"
        },
        ms,
    );
    let _ = std::fs::remove_file(&path);
    drop(csr);
    let (chain, ms) = timed(|| build_chain(&g, &ChainOptions::default()));
    phase("chain_build", ms);
    let b = balanced_rhs(g.n(), 33);
    let (out, ms) = timed(|| chain.solve(&b, 1e-8, 1000));
    phase("solve", ms);
    header(
        &format!("E16: end to end at scale (n={} m={})", g.n(), g.m()),
        &["phase", "time (ms)", "rss after (MiB)"],
    );
    for &(name, ms, rss) in &phases {
        row(&[
            name.to_string(),
            fmt(ms),
            fmt(rss as f64 / (1024.0 * 1024.0)),
        ]);
    }
    eprintln!(
        "e16 solve: it={} res={:.3e} converged={}  bytes/edge graph {graph_bpe:.1} csr {csr_bpe:.1}",
        out.iterations, out.relative_residual, out.converged
    );
    let phases = phases.iter().map(|&(name, ms, rss)| {
        Json::obj([
            ("name", name.into()),
            ("ms", Json::ms(ms)),
            ("rss_bytes", Json::Num(rss.to_string())),
        ])
    });
    Record::Section(Json::obj([
        (
            "workload",
            format!("random_geometric n={n} avg_degree=8 seed=16").into(),
        ),
        ("vertices", g.n().into()),
        ("edges", g.m().into()),
        ("phases", Json::Arr(phases.collect())),
        ("solve_iterations", out.iterations.into()),
        ("relative_residual", Json::f64(out.relative_residual)),
        ("converged", out.converged.into()),
        ("pagerank_iterations", pagerank.iterations.into()),
        ("graph_bytes_per_edge", Json::f64(graph_bpe)),
        ("csr_bytes_per_edge", Json::f64(csr_bpe)),
        ("csr_over_graph", Json::f64(csr_bpe / graph_bpe)),
    ]))
}
