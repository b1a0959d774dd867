//! Regenerates `BENCH_BASELINE.json` by running the experiments of
//! [`parsdd_bench::experiments`]: each prints its Markdown tables to
//! stderr, and each headline is timed at 1 thread and at the widest pool.
//! The file also records machine info and the default chain's per-level
//! work and residency accounting: the fixed reference point perf PRs diff
//! against.
//!
//! Usage (run with the `opt-bench` profile — or at least `--release` —
//! or the numbers are meaningless):
//!
//! ```text
//! cargo run --profile opt-bench -p parsdd_bench --bin baseline \
//!     [-- [--quick] [--threads N] [--experiments LIST] OUTPUT_PATH]
//! ```
//!
//! `--quick` takes a single timed sample per point on shrunken workloads
//! (a CI smoke mode that only proves the binary still runs end to end;
//! don't commit its output). `--threads N` overrides the wide end of the
//! thread sweep (default: all hardware threads, min 4) — the committed
//! baseline was captured on a 1-CPU container whose thread columns show
//! time-slicing, so multicore hosts should regenerate with their real
//! width on record. `--experiments LIST` (comma-separated, e.g.
//! `--experiments e8,e11`) reruns only the named experiments — short
//! prefixes (`e8`) and full names (`e8_solver_work`; `e11`/`multi_rhs`
//! select the multi-RHS sweep) both work — so a hot-path experiment can
//! be re-measured without the full ~10-minute sweep; the active filter is
//! recorded in the JSON (`"filter"`), marking the output as partial.
//!
//! Timing protocol: one warm-up run, then three timed runs per
//! (experiment, width); the JSON records the minimum (the least-noise
//! estimator on a shared machine) and the mean. The thread sweep uses one
//! [`rayon::ThreadPool`] per width, reused across samples.

use parsdd_bench::experiments::{self, Timer};

fn main() {
    let mut quick = false;
    let mut threads_override: Option<usize> = None;
    let mut filter: Option<Vec<String>> = None;
    let mut out_path = "BENCH_BASELINE.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--threads" {
            let n: usize = args
                .next()
                .expect("--threads needs a value")
                .parse()
                .expect("--threads needs an integer");
            threads_override = Some(n.max(1));
        } else if arg == "--experiments" {
            let list = args.next().expect("--experiments needs a comma list");
            filter = Some(
                list.split(',')
                    .map(|s| s.trim().to_ascii_lowercase())
                    .filter(|s| !s.is_empty())
                    .collect(),
            );
        } else {
            out_path = arg;
        }
    }
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Always include a ≥4-thread point so speedup-at-4 is on record even
    // when the hardware has fewer cores (the JSON carries `cpus` so the
    // reader can tell a real speedup from time-slicing); `--threads`
    // overrides both the env and the hardware default.
    let wide = threads_override.unwrap_or(hw.max(4));
    let json = experiments::run(&Timer::new(quick, wide), filter.as_deref());
    std::fs::write(&out_path, json).expect("write baseline json");
    eprintln!("wrote {out_path} (cpus={hw}, wide width={wide})");
}
