//! A1 — ablation of the solver's design choices:
//!
//! * preconditioner substrate: low-stretch subgraph chain vs a single MST
//!   (tree) preconditioner;
//! * κ schedule: stretch-adaptive (default) vs the uniform κ of Lemma 6.9;
//! * practical vs paper AKPW constants for the underlying tree.
//!
//! The inner iteration is not ablated: the chain runs the paper's
//! preconditioned Chebyshev (rPCh) only. The timed group solves the
//! default chain.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use parsdd_bench::{fmt, report_header, report_row, workloads};
use parsdd_lsst::stretch::stretch_over_tree;
use parsdd_lsst::{akpw, AkpwParams};
use parsdd_solver::baseline;
use parsdd_solver::chain::ChainOptions;
use parsdd_solver::sdd_solve::{SddSolver, SddSolverOptions};

const TOL: f64 = 1e-8;

fn quality_table() {
    report_header(
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
    for wl in workloads::small_suite().into_iter().take(1) {
        let b = workloads::rhs(wl.graph.n(), 11);
        let configs: Vec<(&str, ChainOptions)> = vec![
            (
                "chebyshev + adaptive kappa (default)",
                ChainOptions::default(),
            ),
            (
                "chebyshev + uniform kappa=64 (Lemma 6.9)",
                ChainOptions::default().with_kappa(64.0),
            ),
            (
                "chebyshev + uniform kappa=16",
                ChainOptions::default().with_kappa(16.0),
            ),
        ];
        for (name, chain) in configs {
            let t0 = Instant::now();
            let solver = SddSolver::new_laplacian(
                &wl.graph,
                SddSolverOptions::default()
                    .with_tolerance(TOL)
                    .with_chain(chain),
            );
            let build = t0.elapsed().as_secs_f64() * 1000.0;
            let t1 = Instant::now();
            let out = solver.solve(&b);
            let solve = t1.elapsed().as_secs_f64() * 1000.0;
            report_row(&[
                wl.name.to_string(),
                name.to_string(),
                fmt(build),
                fmt(solve),
                out.iterations.to_string(),
                out.converged.to_string(),
            ]);
        }
        // Baselines for context.
        let t2 = Instant::now();
        let tree = baseline::solve_tree_pcg(&wl.graph, &b, TOL, 50_000);
        report_row(&[
            wl.name.to_string(),
            "MST-preconditioned CG (no chain)".into(),
            "-".into(),
            fmt(t2.elapsed().as_secs_f64() * 1000.0),
            tree.iterations.to_string(),
            tree.converged.to_string(),
        ]);
    }

    report_header(
        "A1b: AKPW constants — paper schedule vs practical bucket bases (average stretch)",
        &[
            "graph",
            "z (practical) / paper",
            "avg stretch",
            "iterations",
        ],
    );
    let g = parsdd_graph::generators::with_power_law_weights(
        &parsdd_graph::generators::grid2d(48, 48, |_, _| 1.0),
        5,
        3,
    );
    for (label, params) in [
        ("z=8", AkpwParams::practical(8.0).with_seed(3)),
        ("z=32", AkpwParams::practical(32.0).with_seed(3)),
        ("z=128", AkpwParams::practical(128.0).with_seed(3)),
        ("paper schedule", AkpwParams::paper(g.n()).with_seed(3)),
    ] {
        let t = akpw(&g, &params);
        let rep = stretch_over_tree(&g, &t.tree_edges);
        report_row(&[
            "weighted-grid-48".into(),
            label.into(),
            fmt(rep.average_stretch),
            t.iterations.to_string(),
        ]);
    }
}

fn bench(c: &mut Criterion) {
    quality_table();
    let mut group = c.benchmark_group("a1_ablation");
    group.sample_size(10);
    let g = parsdd_graph::generators::grid2d(64, 64, |_, _| 1.0);
    let b = workloads::rhs(g.n(), 11);
    let solver = SddSolver::new_laplacian(
        &g,
        SddSolverOptions::default()
            .with_tolerance(TOL)
            .with_chain(ChainOptions::default()),
    );
    group.bench_function("chebyshev", |bch| {
        bch.iter(|| black_box(solver.solve(&b).iterations))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
