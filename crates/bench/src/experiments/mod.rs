//! The experiment registry: each experiment of the reproduction, defined
//! once.
//!
//! The paper is a theory paper whose "evaluation" is its set of theorem
//! statements. Experiments E1–E10 and A1 regenerate the quantity one
//! theorem bounds (DESIGN.md §4 has the index); E11–E13, E15, E16 and the
//! workload zoo record how the implementation performs. Each experiment
//! prints its Markdown tables to stderr and returns one record:
//!
//! * a headline closure timed at pool widths `[1, wide]`, with a metric
//!   that pins down what was computed (the `experiments` array of
//!   `BENCH_BASELINE.json`);
//! * a section of its own in that file (`multi_rhs`, `zoo`,
//!   `e15_precision`, `e16_scale`);
//! * or only its table (E12's kernel comparison).
//!
//! The `baseline` bin is the only runner: it parses the flags, calls
//! [`run`] and writes the JSON it returns.

use std::hint::black_box;
use std::time::Instant;

use parsdd_graph::{generators, Graph};
use parsdd_solver::chain::{build_chain, ChainOptions};

mod claims;
mod json;
mod records;

use json::Json;

/// Timed samples per point of a full run; `--quick` takes one.
const SAMPLES: usize = 3;

/// How a run measures: the pool widths of a headline, the samples per
/// point, and whether workloads take their quick (CI smoke) size.
pub struct Timer {
    widths: [usize; 2],
    samples: usize,
    quick: bool,
}

impl Timer {
    /// Headlines are timed at widths `[1, wide]`. `quick` takes one
    /// sample per point instead of three and shrinks the workloads
    /// that have a quick size.
    pub fn new(quick: bool, wide: usize) -> Self {
        Timer {
            widths: [1, wide],
            samples: if quick { 1 } else { SAMPLES },
            quick,
        }
    }

    /// One warm-up run, then `samples` timed runs of `f` on one
    /// `threads`-wide pool, reused across the samples.
    pub(crate) fn time_at<R>(&self, threads: usize, mut f: impl FnMut() -> R) -> Timing {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            black_box(f());
        });
        let times: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                pool.install(|| {
                    black_box(f());
                });
                t0.elapsed().as_secs_f64() * 1000.0
            })
            .collect();
        Timing {
            threads,
            min_ms: times.iter().copied().fold(f64::INFINITY, f64::min),
            mean_ms: times.iter().sum::<f64>() / times.len() as f64,
        }
    }

    /// Times the headline `f` at every width; `metric` reads one more
    /// run's result.
    fn headline<R>(&self, mut f: impl FnMut() -> R, metric: impl FnOnce(&R) -> String) -> Record {
        let timings = self.widths.map(|w| self.time_at(w, &mut f));
        Record::Headline {
            timings,
            metric: metric(&f()),
        }
    }
}

/// Minimum and mean wall time of one point.
pub(crate) struct Timing {
    pub(crate) threads: usize,
    pub(crate) min_ms: f64,
    pub(crate) mean_ms: f64,
}

impl Timing {
    fn to_json(&self) -> Json {
        Json::obj([
            ("threads", self.threads.into()),
            ("min_ms", Json::ms(self.min_ms)),
            ("mean_ms", Json::ms(self.mean_ms)),
        ])
    }
}

/// What an experiment contributes to `BENCH_BASELINE.json`.
enum Record {
    /// The headline's timing at widths `[1, wide]`, and its metric.
    Headline {
        timings: [Timing; 2],
        metric: String,
    },
    /// A top-level section named after the experiment.
    Section(Json),
    /// Nothing: the experiment's table is its whole output.
    TableOnly,
}

/// One registry entry.
struct Experiment {
    name: &'static str,
    /// Other names the `--experiments` filter accepts.
    aliases: &'static [&'static str],
    run: fn(&Timer) -> Record,
}

impl Experiment {
    const fn new(name: &'static str, run: fn(&Timer) -> Record) -> Self {
        Experiment {
            name,
            aliases: &[],
            run,
        }
    }

    /// Does the filter key `key` select this experiment? A key matches
    /// the name or an alias, in full or by its short prefix (the part
    /// before the first `_`).
    fn matches(&self, key: &str) -> bool {
        std::iter::once(&self.name)
            .chain(self.aliases)
            .any(|name| key == *name || name.split('_').next() == Some(key))
    }
}

/// Every experiment, in run order. Headlines reach the JSON's
/// `experiments` array in this order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("e1_decomposition_radius", claims::e1),
    Experiment::new("e2_decomposition_cut", claims::e2),
    Experiment::new("e3_decomposition_scaling", claims::e3),
    Experiment::new("e4_akpw_stretch", claims::e4),
    Experiment::new("e5_subgraph_tradeoff", claims::e5),
    Experiment::new("e6_elimination", claims::e6),
    Experiment::new("e7_sparsify", claims::e7),
    Experiment::new("e8_solver_work", claims::e8),
    Experiment::new("e9_solver_scaling", claims::e9),
    Experiment::new("e10_applications", claims::e10),
    Experiment {
        name: "multi_rhs",
        aliases: &["e11_multi_rhs"],
        run: records::multi_rhs,
    },
    Experiment::new("e12_fused_sweep", records::e12),
    Experiment::new("a1_ablation", claims::a1),
    Experiment::new("e13_build_chain", records::e13),
    Experiment::new("zoo", records::zoo),
    Experiment::new("e15_precision", records::e15),
    Experiment::new("e16_scale", records::e16),
];

/// Runs every experiment `filter` selects (all of them when `None`),
/// printing each one's tables and headline to stderr, and returns the
/// schema-v9 `BENCH_BASELINE.json` content.
pub fn run(timer: &Timer, filter: Option<&[String]>) -> String {
    let mut records = Vec::new();
    for e in EXPERIMENTS {
        if filter.is_some_and(|keys| !keys.iter().any(|k| e.matches(k))) {
            continue;
        }
        let record = (e.run)(timer);
        if let Record::Headline {
            timings: [t1, tn],
            metric,
        } = &record
        {
            eprintln!(
                "{:28} 1t {:9.2} ms | {}t {:9.2} ms | speedup {:.2}x | {metric}",
                e.name,
                t1.min_ms,
                tn.threads,
                tn.min_ms,
                t1.min_ms / tn.min_ms
            );
        }
        records.push((e.name, record));
    }
    let chain = build_chain(&grid(96), &ChainOptions::default());
    let stats = chain.stats();
    eprintln!(
        "chain: depth={} k={:?} work/app={:.3e} leaves={}",
        chain.depth(),
        stats.inner_iterations,
        stats.work_per_application,
        stats.recursion_leaves
    );
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    json::baseline(timer, filter, cpus, records, &chain)
}

/// The unit-weight `side × side` grid most experiments run on.
fn grid(side: usize) -> Graph {
    generators::grid2d(side, side, |_, _| 1.0)
}

/// `f`'s result and its wall time in ms, for a single-shot table cell.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1000.0)
}

/// Prints a Markdown table header to stderr.
fn header(title: &str, cols: &[&str]) {
    eprintln!("\n### {title}");
    eprintln!("| {} |", cols.join(" | "));
    eprintln!("|{}|", vec!["---"; cols.len()].join("|"));
}

/// Prints a Markdown table row to stderr.
fn row(cols: &[String]) {
    eprintln!("| {} |", cols.join(" | "));
}

/// Formats a float compactly for a table cell.
fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 || x.abs() < 0.01 {
        format!("{x:.3e}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../../BENCH_BASELINE.json");

    /// The `"name"` values of the committed `experiments` array.
    fn committed_headline_names() -> Vec<&'static str> {
        let start = COMMITTED
            .find("\"experiments\": [")
            .expect("experiments array");
        let end = start + COMMITTED[start..].find("\n  ]").expect("array end");
        COMMITTED[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect()
    }

    #[test]
    fn registry_names_match_the_committed_baseline() {
        let headlines = committed_headline_names();
        assert_eq!(headlines.len(), 12);
        for key in json::SECTIONS {
            assert!(COMMITTED.contains(&format!("\n  \"{key}\": ")), "{key}");
        }
        // Every registry entry is a committed headline, a committed
        // section, or E12 (its table is its whole output); headlines keep
        // the committed order.
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let in_order: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| headlines.contains(n))
            .collect();
        assert_eq!(in_order, headlines);
        let mut rest: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| !headlines.contains(n))
            .collect();
        rest.sort_unstable();
        let mut expected = json::SECTIONS.to_vec();
        expected.push("e12_fused_sweep");
        expected.sort_unstable();
        assert_eq!(rest, expected);
    }

    /// The top-level keys of a document the writer produced or committed.
    fn top_level_keys(doc: &str) -> Vec<&str> {
        doc.lines()
            .filter_map(|l| l.strip_prefix("  \"")?.split_once("\": "))
            .map(|(key, _)| key)
            .collect()
    }

    #[test]
    fn writer_records_the_samples_taken_under_the_committed_keys() {
        let chain = build_chain(&grid(8), &ChainOptions::default());
        let timing = |threads| Timing {
            threads,
            min_ms: 2.0,
            mean_ms: 3.0,
        };
        let records = vec![
            (
                "e8_solver_work",
                Record::Headline {
                    timings: [timing(1), timing(4)],
                    metric: "iterations=1".into(),
                },
            ),
            ("zoo", Record::Section(Json::Arr(Vec::new()))),
        ];
        let filter = ["e8".to_string(), "zoo".to_string()];
        let quick = json::baseline(&Timer::new(true, 4), Some(&filter), 2, records, &chain);
        assert!(quick.contains("\n  \"samples_per_point\": 1,\n"), "{quick}");
        assert!(quick.contains("\n  \"filter\": \"e8,zoo\",\n"));
        assert!(quick.contains("\n  \"thread_widths\": [ 1, 4 ],\n"));
        assert!(quick.contains("\"name\": \"e8_solver_work\""));
        assert!(quick.contains("\"t1\": { \"threads\": 1, \"min_ms\": 2.000, \"mean_ms\": 3.000 }"));
        assert!(quick.contains("\n  \"zoo\": [],\n"));
        assert!(quick.contains("\n  \"multi_rhs\": null,\n"));
        assert_eq!(top_level_keys(&quick), top_level_keys(COMMITTED));
        let full = json::baseline(&Timer::new(false, 4), None, 2, Vec::new(), &chain);
        assert!(full.contains("\n  \"samples_per_point\": 3,\n"));
        assert!(full.contains("\n  \"filter\": null,\n"));
    }

    #[test]
    fn filter_matches_short_prefix_full_name_and_alias() {
        let selected = |key: &str| -> Vec<&str> {
            EXPERIMENTS
                .iter()
                .filter(|e| e.matches(key))
                .map(|e| e.name)
                .collect()
        };
        assert_eq!(selected("e8"), ["e8_solver_work"]);
        assert_eq!(selected("e1"), ["e1_decomposition_radius"]);
        assert_eq!(selected("e9_solver_scaling"), ["e9_solver_scaling"]);
        assert_eq!(selected("zoo"), ["zoo"]);
        assert_eq!(selected("e11"), ["multi_rhs"]);
        assert_eq!(selected("multi_rhs"), ["multi_rhs"]);
        assert_eq!(selected("e11_multi_rhs"), ["multi_rhs"]);
        assert!(selected("e14").is_empty());
        assert!(selected("solver").is_empty());
    }
}
