//! The `BENCH_BASELINE.json` writer (hand-rolled; the workspace has no
//! serde).

use std::fmt::Write as _;

use parsdd_solver::chain::{Level0Decision, Level0Path, SolverChain};

use super::{Record, Timer};

/// The top-level sections an experiment can own, in file order. A
/// section the `--experiments` filter skipped is written as `null`.
pub(super) const SECTIONS: [&str; 4] = ["multi_rhs", "zoo", "e15_precision", "e16_scale"];

/// A JSON value. Numbers are kept as their formatted text.
pub(super) enum Json {
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
    Null,
}

impl Json {
    pub(super) fn obj<const N: usize>(fields: [(&'static str, Json); N]) -> Json {
        Json::Obj(fields.into())
    }

    /// A float in scientific notation; non-finite values have no JSON
    /// encoding and become `null`.
    pub(super) fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:.6e}"))
        } else {
            Json::Null
        }
    }

    /// A wall time in ms, to the µs.
    pub(super) fn ms(v: f64) -> Json {
        Json::Num(format!("{v:.3}"))
    }

    pub(super) fn f64s(vs: &[f64]) -> Json {
        Json::Arr(vs.iter().map(|&v| Json::f64(v)).collect())
    }

    pub(super) fn usizes(vs: &[usize]) -> Json {
        Json::Arr(vs.iter().map(|&v| v.into()).collect())
    }

    /// The level-0 cut's decision, `null` when no probe ran.
    pub(super) fn level0(decision: Option<Level0Decision>) -> Json {
        decision.map_or(Json::Null, |d| {
            Json::obj([
                (
                    "path",
                    match d.path {
                        Level0Path::Chain => "chain",
                        Level0Path::JacobiPcg => "jacobi_pcg",
                    }
                    .into(),
                ),
                ("probe_sweeps", d.probe_sweeps.into()),
                ("cap", d.cap.into()),
                (
                    "predicted_iterations",
                    d.predicted_iterations.map_or(Json::Null, Json::from),
                ),
            ])
        })
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Writes `self` at nesting depth `depth`. An array or object whose
    /// items are all scalars goes on one line; any other puts one item
    /// per line.
    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Num(s) => return out.push_str(s),
            Json::Str(s) => return write!(out, "{s:?}").expect("write to String"),
            Json::Null => return out.push_str("null"),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            ),
        };
        let inline = items.iter().all(|(_, v)| v.is_scalar());
        let break_to = |out: &mut String, depth: usize| {
            if inline {
                out.push(' ');
            } else {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
        };
        out.push(open);
        for (i, (key, value)) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            break_to(out, depth + 1);
            if let Some(key) = key {
                write!(out, "\"{key}\": ").expect("write to String");
            }
            value.write(out, depth + 1);
        }
        if !items.is_empty() {
            break_to(out, depth);
        }
        out.push(close);
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Num(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

/// The schema-v9 document: run metadata, every headline, every section
/// (`null` when skipped), and the default chain's per-level accounting on
/// the E8/E9 workload.
pub(super) fn baseline(
    timer: &Timer,
    filter: Option<&[String]>,
    cpus: usize,
    records: Vec<(&'static str, Record)>,
    chain: &SolverChain,
) -> String {
    let mut headlines = Vec::new();
    let mut sections = Vec::new();
    for (name, record) in records {
        match record {
            Record::Headline {
                timings: [t1, tn],
                metric,
            } => headlines.push(Json::obj([
                ("name", name.into()),
                ("metric", metric.into()),
                ("t1", t1.to_json()),
                ("tN", tn.to_json()),
                (
                    "speedup_min",
                    Json::Num(format!("{:.3}", t1.min_ms / tn.min_ms)),
                ),
            ])),
            Record::Section(json) => sections.push((name, json)),
            Record::TableOnly => {}
        }
    }
    let mut doc = vec![
        ("schema", "parsdd-bench-baseline-v9".into()),
        // When machine.cpus == 1 the tN column measures scheduler
        // overhead under time-slicing, not parallel speedup.
        (
            "note",
            "when machine.cpus == 1 the tN columns are time-sliced on one core; \
             they bound scheduling overhead and say nothing about speedup"
                .into(),
        ),
        (
            "generated_by",
            "cargo run --profile opt-bench -p parsdd_bench --bin baseline".into(),
        ),
        // A non-null filter marks the file as a partial rerun that should
        // not be committed wholesale.
        (
            "filter",
            filter.map_or(Json::Null, |keys| keys.join(",").into()),
        ),
        (
            "machine",
            Json::obj([
                ("cpus", cpus.into()),
                ("os", std::env::consts::OS.into()),
                ("arch", std::env::consts::ARCH.into()),
                (
                    "profile",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }
                    .into(),
                ),
            ]),
        ),
        ("samples_per_point", timer.samples.into()),
        ("thread_widths", Json::usizes(&timer.widths)),
        ("experiments", Json::Arr(headlines)),
    ];
    for key in SECTIONS {
        let section = sections.iter().position(|(name, _)| *name == key);
        doc.push((
            key,
            section.map_or(Json::Null, |i| sections.swap_remove(i).1),
        ));
    }
    let stats = chain.stats();
    doc.push((
        "chain",
        Json::obj([
            ("workload", "grid2d 96x96 unit weights".into()),
            ("depth", chain.depth().into()),
            ("level_vertices", Json::usizes(&stats.level_vertices)),
            ("level_edges", Json::usizes(&stats.level_edges)),
            ("sparsifier_edges", Json::usizes(&stats.sparsifier_edges)),
            ("kappas", Json::f64s(&stats.kappas)),
            ("tree_scales", Json::f64s(&stats.tree_scales)),
            ("kappa_eff", Json::f64s(&stats.kappa_eff)),
            ("inner_iterations", Json::usizes(&stats.inner_iterations)),
            ("level_applications", Json::f64s(&stats.level_applications)),
            ("level_work", Json::f64s(&stats.level_work)),
            (
                "level_resident_bytes",
                Json::usizes(&stats.level_resident_bytes),
            ),
            ("resident_bytes", stats.resident_bytes.into()),
            (
                "streamed_bytes_per_application",
                Json::f64(stats.streamed_bytes_per_application),
            ),
            (
                "work_per_application",
                Json::f64(stats.work_per_application),
            ),
            ("recursion_leaves", Json::f64(stats.recursion_leaves)),
            ("direct_bottom", stats.direct_bottom.into()),
            ("bottom_factor_nnz", stats.bottom_factor_nnz.into()),
        ]),
    ));
    let mut out = String::new();
    Json::Obj(doc).write(&mut out, 0);
    out.push('\n');
    out
}
