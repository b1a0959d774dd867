//! The benchmark every performance claim in this repository is measured
//! with: four solver workloads, end-to-end set-up, solve and memory metrics
//! behind a correctness gate, Jacobi-PCG at the same tolerance beside every
//! solve, and a traced pass that times each layer from outside.
//!
//! # Running
//!
//! ```text
//! cargo run --offline --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! cargo run --profile opt-bench -p parsdd_bench --bin benchmark -- [same flags]
//! ```
//!
//! Both commands build the same `main.rs` with the same settings. The first
//! is the command `BENCHMARK.json` names: it builds a package of its own,
//! whose manifest and profile sit beside this file, so a later change to
//! the repository's manifests cannot change how the benchmark is built. The
//! second builds it as a bin of `parsdd_bench`, which is how the
//! workspace's `cargo test` runs its unit tests.
//!
//! - `--seed N` (default 1) seeds the right-hand sides. Each workload's
//!   graph is one fixed instance, so runs with different seeds do the same
//!   work up to the iteration count. The solver receives only the generated
//!   inputs; its own options stay at their defaults.
//! - `--seconds S` (default 20, the `run_seconds` of `BENCHMARK.json`) is
//!   how long each workload takes timed samples, after its untimed warm-up.
//! - With `--workload NAME` this process runs that workload alone. It prints
//!   one line per metric, `workload metric value unit [n=samples]`, then as
//!   its last line `{"correct", "attempted", "failed", "metrics"}` with the
//!   end-to-end metrics (`--trace 0`, the default) or the per-layer ones
//!   (`--trace 1`). A traced run also writes its spans to
//!   `target/benchmark/trace-<workload>-seed<S>.json`.
//! - Without `--workload` it runs every workload traced, each in a child
//!   process of its own, one after another, so `peak_rss_mb` belongs to one
//!   workload. It echoes their lines and writes all metrics to `--out`
//!   (default `target/benchmark/results.json`).
//!
//! A workload runs on a rayon pool of one worker, whatever
//! `RAYON_NUM_THREADS` says, which runs every parallel call inline: the
//! end-to-end times are the solver's work done in order. Only the
//! `parallel.*` samples of the traced pass run on a pool of two workers
//! (fewer on a one-core host). On the 2-vCPU VM the numbers below come
//! from, two workers were no faster than one (solve 0.94–0.98×, set-up
//! 0.70–1.14× the one-worker speed), and between runs their `solve_s`
//! medians spread 3–18% against one worker's 1–5%.
//!
//! # Run rules
//!
//! A run generates its workload, solves every right-hand side with
//! Jacobi-PCG (the gate's reference), then does one untimed warm-up build
//! and a two-iteration warm-up solve, which grows the chain's scratch to the
//! workload's block width. It then alternates timed set-ups and solves,
//! about a quarter of the time on set-ups, until the next sample would end
//! past `--seconds` and each has at least three samples. Every timing is
//! reported as its median with the sample count: a run has too few samples
//! for any other percentile. A traced run then runs the traced pass.
//!
//! # End-to-end metrics (tracing off)
//!
//! | metric | unit | definition |
//! |---|---|---|
//! | `setup_s` | s | median wall time of `SddSolver::new_laplacian` (the chain build) |
//! | `solve_s` | s/rhs | median wall time of one solve call to relative residual 1e-8 on the prebuilt solver, per right-hand side: one `solve`, or for `grid120-ss32` one `solve_many` of 32 divided by 32 |
//! | `peak_rss_mb` | MiB | `VmHWM` of the process, which runs one workload |
//!
//! A solve fails when it does not converge, reports a breakdown, has a
//! residual above 1.1 × 1e-8 recomputed with `LaplacianOp` on the input
//! graph, or, with component means removed, differs from the converged
//! Jacobi-PCG solution by more than 1e-6 relative. That reference is
//! refined once (a second Jacobi-PCG solve on its residual), so the check
//! measures the chain's error rather than the reference's. Each failure
//! prints `FAIL workload rhs reason` and counts in the result's `failed`.
//!
//! # Workloads
//!
//! Every working set fits in the 105 MiB last-level cache of the host the
//! numbers below come from: a 2-vCPU x86-64 VM shared with other tenants,
//! whose load can slow a run by 5–60% for minutes at a time: one seed's
//! `rmat131k` solve took 0.80–0.95 s in three runs a minute apart. Over ten
//! seeds, `solve_s` spread (quartile distance over median) 1–5% between
//! runs in a quiet set, 15–16% in sets with such a spell, and once 31%,
//! which is why the end-to-end bounds in `BENCHMARK.json` are 10–25%.
//!
//! | name | input | why |
//! |---|---|---|
//! | `grid200` | `grid2d(200, 200)`, n = 40k, m = 79.6k | deep chain (depth 6) with a direct envelope bottom; 111 outer iterations at ~25 ms per W-cycle make a ~2.9 s solve against ~0.43 s set-up; Jacobi-PCG ~0.33 s |
//! | `rmat131k` | `rmat(14, 131072, 1)`, n = 11.3k, m = 131k | power law, shallow chain (depth 2, iterative 4.7k-vertex bottom) where set-up is ~35% of time to solution; the widest gap to Jacobi-PCG (~0.78 s against ~11 ms) |
//! | `smallworld200k` | `watts_strogatz(40000, 10, 0.1, 1)`, n = 40k, m = 200k | depth 1 over a 32k-vertex iterative bottom, whose Jacobi-PCG is nearly all of each ~52 ms W-cycle; Jacobi-PCG on the whole graph ~56 ms |
//! | `grid120-ss32` | `grid2d(120, 120)`, 32 projection right-hand sides | the blocked W-cycle at width 32 (~2.4 ms per column per application) with set-up amortised over 32 solves; a k = 1 kernel gain that costs the blocked kernels shows here |
//!
//! # Layers, metrics and what they move
//!
//! The traced pass runs one traced solve, then one outer PCG (`pcg_solve`,
//! or `block_pcg_solve` for a block) preconditioned by the chain through
//! `ChainPreconditioner`, with a span per W-cycle application, then 20
//! rounds, then the `parallel.*` samples, whose solves the gate checks too.
//! `solver.precondition_s` is the median application; every other
//! per-layer time up to `trace.overhead` is the median self time of one
//! span per round. The
//! level-0 phases re-run the public calls `build_chain` makes at level 0, on
//! the same inputs and seed. Names ending in `_s` are times; the solve's
//! times are per right-hand side.
//!
//! | metrics | layer | moves | dominant on → idle on |
//! |---|---|---|---|
//! | `graph.simplify_s`, `graph.rcm_s`, `graph.components_s` | graph | `setup_s` | `rmat131k`, `smallworld200k` → `grid120-ss32` |
//! | `decomp.partition_s`, `decomp.bfs_rounds`, `decomp.cut_fraction` (`partition_single_class`, radius 8) | decomp | `setup_s` | `rmat131k` → `grid200` |
//! | `lsst.ls_subgraph_s`, `lsst.forest_s`, `lsst.subgraph_edges`, `lsst.avg_stretch` | lsst | `setup_s` | `rmat131k`, `smallworld200k` → `grid120-ss32` |
//! | `solver.sparsify_s`, `solver.sparsifier_edges`, `solver.elimination_s`, `solver.elimination_kept` | solver build | `setup_s` | `smallworld200k` → `grid200` |
//! | `solver.build_rest_s` = `setup_s` − the level-0 phases (levels ≥ 1, bottom factor, calibration, and level 0's spectral check, see below) | solver build | `setup_s` | `grid200` → `smallworld200k` |
//! | `linalg.bottom_factor_s`, `linalg.bottom_solve_s` (envelope factor and solve when the bottom is direct, Jacobi set-up and Jacobi-PCG to 1e-8 when it is iterative) | linalg | `setup_s`, `solve_s` | `smallworld200k` (iterative), `grid200` (× `chain.recursion_leaves` per application) → `rmat131k` |
//! | `solver.precondition_s` (one W-cycle application at the workload's block width), `solver.precondition_share` = iterations × precondition / solve | solver W-cycle | `solve_s` | every workload |
//! | `linalg.matvec_s` (the outer PCG's fused level-0 product), `solver.outer_other_s` = solve − iterations × (precondition + matvec) | linalg, outer PCG | `solve_s` | `grid120-ss32` → `smallworld200k` |
//! | `solver.outer_iterations` | solver | `solve_s` (multiplier) | every workload |
//! | `chain.depth`, `chain.recursion_leaves`, `chain.bottom_vertices`, `chain.direct_bottom`, `chain.work_per_edge`, `chain.streamed_bytes_per_application`, `chain.resident_bytes` (from `ChainStats`, computed, not measured) | model counts | `solve_s`, `peak_rss_mb` | every workload |
//! | `solver.precondition_gbs` = computed streamed bytes ÷ precondition time; with an iterative bottom the model counts that bottom's whole iteration budget, so the rate means nothing there | derived | `solve_s` | `grid200` → iterative bottoms |
//! | `baseline.jacobi_pcg_s`, `baseline.jacobi_pcg_iterations` (same tolerance and right-hand sides) | comparator | none | every workload |
//! | `trace.overhead` = traced solve ÷ untraced median − 1 | benchmark | none | every workload |
//! | `parallel.setup_s`, `parallel.solve_s` (medians of 3 on two workers), `parallel.setup_speedup`, `parallel.solve_speedup` (one-worker median ÷ two-worker median) | rayon runtime, every parallel kernel | none (the end-to-end times run on one worker) | `grid200` (1024 recursion leaves of small kernels per application) → `grid120-ss32` (block width 32) |
//!
//! If the level-0 replica's sparsifier differs from the chain's
//! (`ChainStats::sparsifier_edges[0]`) by more than 5%, a warning says the
//! per-layer times may not describe the chain's build.
//!
//! The replica leaves out one level-0 call: `build_chain` runs the spectral
//! check `quadratic_form_ratio_bounds` concurrently with the elimination,
//! while the replica runs the elimination alone. So `solver.build_rest_s`
//! also holds the part of that check the elimination does not overlap, and
//! `solver.elimination_s` is the elimination with both workers to itself.
//!
//! # Reading a trace
//!
//! A trace file holds the run id every span shares and the spans, each
//! `{id, parent, name, start_ns, end_ns}` with times in nanoseconds since
//! the traced pass began. Four root spans follow each other:
//!
//! - `solver.solve`, one traced solve call;
//! - `solver.outer_pcg`, holding one `solver.precondition` per iteration;
//!   its self time is the outer PCG's own work, matrix products included;
//! - `run`, holding 20 `round` spans. A `round` holds `build.level0`, whose
//!   children are the level-0 phases in build order, then one span per
//!   kernel;
//! - `parallel`, holding a `parallel.setup` and a `parallel.solve` per
//!   sample on the two-worker pool.
//!
//! A span's self time is its duration minus the part its children cover;
//! for `run`, `round` and `build.level0` that is the benchmark's own
//! overhead.

mod layers;
mod measure;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use measure::Metric;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("solve_s", "s/rhs"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 37] = [
    ("graph.simplify_s", "s"),
    ("graph.rcm_s", "s"),
    ("graph.components_s", "s"),
    ("decomp.partition_s", "s"),
    ("decomp.bfs_rounds", "count"),
    ("decomp.cut_fraction", "ratio"),
    ("lsst.ls_subgraph_s", "s"),
    ("lsst.forest_s", "s"),
    ("lsst.subgraph_edges", "count"),
    ("lsst.avg_stretch", "ratio"),
    ("solver.sparsify_s", "s"),
    ("solver.sparsifier_edges", "count"),
    ("solver.elimination_s", "s"),
    ("solver.elimination_kept", "count"),
    ("solver.build_rest_s", "s"),
    ("linalg.bottom_factor_s", "s"),
    ("linalg.bottom_solve_s", "s"),
    ("solver.precondition_s", "s/rhs"),
    ("solver.precondition_share", "ratio"),
    ("linalg.matvec_s", "s/rhs"),
    ("solver.outer_other_s", "s/rhs"),
    ("solver.outer_iterations", "count"),
    ("chain.depth", "count"),
    ("chain.recursion_leaves", "count"),
    ("chain.bottom_vertices", "count"),
    ("chain.direct_bottom", "bool"),
    ("chain.work_per_edge", "flop/edge"),
    ("chain.streamed_bytes_per_application", "B"),
    ("chain.resident_bytes", "B"),
    ("solver.precondition_gbs", "GB/s"),
    ("baseline.jacobi_pcg_s", "s/rhs"),
    ("baseline.jacobi_pcg_iterations", "count"),
    ("trace.overhead", "ratio"),
    ("parallel.setup_s", "s"),
    ("parallel.solve_s", "s/rhs"),
    ("parallel.setup_speedup", "ratio"),
    ("parallel.solve_speedup", "ratio"),
];

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: String,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
        out: "target/benchmark/results.json".to_string(),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let name = workloads::NAMES
                    .into_iter()
                    .find(|n| *n == value)
                    .ok_or_else(|| bad(&format!("one of {:?}", workloads::NAMES)))?;
                args.workload = Some(name);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (0.0..=86_400.0).contains(s))
                    .ok_or_else(|| bad("at most 86400 seconds"))?;
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => {
            run_workload(workload, &args);
            ExitCode::SUCCESS
        }
        None => run_all(&args),
    }
}

/// Runs one workload in this process and prints its lines and result.
fn run_workload(workload: &'static str, args: &Args) {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build the rayon pool");
    let budget = Duration::from_secs_f64(args.seconds);
    let (metrics, counts, rec) = pool.install(|| {
        let inputs = workloads::generate(workload, args.seed).expect("known workload");
        let run_id = format!("{workload}-seed{}-pid{}", args.seed, std::process::id());
        measure_workload(workload, &inputs, budget, args.traced.then_some(run_id))
    });
    if let Some(rec) = rec {
        let path = format!("target/benchmark/trace-{workload}-seed{}.json", args.seed);
        std::fs::create_dir_all("target/benchmark").expect("create target/benchmark");
        std::fs::write(&path, rec.to_json(workload, args.seed)).expect("write the trace");
        eprintln!("wrote {path}");
    }

    for m in &metrics {
        let unit = unit_of(m.name);
        match m.samples {
            Some(n) => println!("{workload} {} {} {unit} n={n}", m.name, m.value),
            None => println!("{workload} {} {} {unit}", m.name, m.value),
        }
    }
    let reported = if args.traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut json = String::new();
    let mut finite = true;
    for (i, (name, unit)) in reported.iter().enumerate() {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        finite &= m.value.is_finite();
        let value = json_number(m.value);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        counts.failed == 0 && finite,
        counts.attempted,
        counts.failed
    );
}

/// Measures one workload: the Jacobi-PCG references, the warm-up, the
/// untraced samples and, given a run id, the traced pass. Returns the
/// metrics, the gate's counts and the trace.
fn measure_workload(
    workload: &'static str,
    inputs: &workloads::Inputs,
    budget: Duration,
    run_id: Option<String>,
) -> (Vec<Metric>, measure::Counts, Option<trace::Recorder>) {
    let (mut gate, jacobi_iterations) = measure::Gate::new(workload, inputs);
    let solver = measure::build(&inputs.graph);
    measure::warm_up(&solver, &inputs.rhs);
    let e2e = measure::end_to_end(inputs, &solver, &mut gate, budget);
    let mut metrics = vec![
        Metric::timing("setup_s", e2e.setup),
        Metric::timing("solve_s", e2e.solve),
        Metric::plain("peak_rss_mb", measure::peak_rss_mb()),
    ];
    let rec = run_id.map(|run_id| {
        let mut rec = trace::Recorder::new(run_id);
        metrics.extend(layers::traced_pass(
            &mut rec,
            inputs,
            &solver,
            &e2e,
            &mut gate,
            jacobi_iterations,
        ));
        rec
    });
    (metrics, gate.counts(), rec)
}

/// `x` as a JSON number, or `null` when it is not finite: JSON has no
/// `NaN` or `inf`.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        "null".to_string()
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
}

/// Runs every workload traced in a child process of its own, one after
/// another, and writes all their metrics to `args.out`.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut ok = true;
    let mut records = Vec::new();
    for workload in workloads::NAMES {
        let child = Command::new(&exe)
            .args(["--workload", workload, "--trace", "1"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("start a workload process");
        let output = child.wait_with_output().expect("wait for the workload");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let result = stdout.lines().last().unwrap_or("");
        if !output.status.success() || !result.starts_with("{\"correct\": true") {
            eprintln!("benchmark: {workload} failed ({})", output.status);
            ok = false;
        }
        let metrics: Vec<String> = stdout
            .lines()
            .filter_map(|line| {
                let mut tokens = line.split_whitespace();
                if tokens.next() != Some(workload) {
                    return None;
                }
                let (name, value, unit) = (tokens.next()?, tokens.next()?, tokens.next()?);
                let value = value.parse().map_or("null".to_string(), json_number);
                Some(format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        records.push(format!(
            "    \"{workload}\": {{\"result\": {result}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        ));
    }
    let json = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        args.seed,
        args.seconds,
        records.join(",\n")
    );
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        std::fs::create_dir_all(dir).expect("create the output directory");
    }
    std::fs::write(&args.out, json).expect("write the results");
    eprintln!("wrote {}", args.out);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        let spec = include_str!("../../../../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = spec.matches("\"unit\": ").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len(),
            "undeclared metrics"
        );
        for name in workloads::NAMES {
            assert!(spec.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }

    #[test]
    fn a_traced_run_emits_every_metric_once() {
        let graph = parsdd_graph::generators::grid2d(24, 24, |_, _| 1.0);
        let mut b: Vec<f64> = (0..graph.n()).map(|i| (i % 11) as f64).collect();
        parsdd_linalg::vector::project_out_constant(&mut b);
        let inputs = workloads::Inputs {
            graph,
            rhs: vec![b],
        };
        let (metrics, counts, rec) =
            measure_workload("grid24", &inputs, Duration::ZERO, Some("test".to_string()));
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let mut expected: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        expected.sort_unstable();
        assert_eq!(names, expected);
        assert!(metrics.iter().all(|m| m.value.is_finite()));
        assert_eq!(counts.failed, 0);
        assert!(counts.attempted >= 3);
        assert!(rec.is_some());
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload rmat131k --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (Some("rmat131k"), 7, 2.5, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--seed").is_err());
    }
}
