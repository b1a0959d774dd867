//! In-memory span recorder for the traced pass.
//!
//! A span is `{id, parent, name, start_ns, end_ns}`, with times in
//! nanoseconds since the recorder was made. Spans stay in memory and are
//! written out once, at exit, so recording costs two clock reads and a push.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records the spans of one workload run; they all share `run_id`.
pub struct Recorder {
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(run_id: String) -> Self {
        Recorder {
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span. `f` gets the recorder back so it can open child spans; its
    /// result passes through `black_box`, so the timed work is not elided.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = std::hint::black_box(f(self));
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Self times in seconds of every span named `name`, in record order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_time_ns(&self.spans, s.id) as f64 * 1e-9)
            .collect()
    }

    /// The trace file: the run id and every span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"run_id\": \"{}\", \"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [",
            self.run_id
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.id,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Duration of span `id` minus the part of its interval that its children
/// cover (overlapping children count once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let s = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = s.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (s.end_ns - s.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // root [0,100) holds two overlapping children [10,40) and [30,50)
        // and one [90,120) that runs past its end; child 1 has its own
        // child [15,25).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            span(3, Some(0), 90, 120),
            span(4, Some(1), 15, 25),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans, 1), 30 - 10);
        assert_eq!(self_time_ns(&spans, 2), 20);
        assert_eq!(self_time_ns(&spans, 4), 10);
    }

    #[test]
    fn recorder_nests_spans_and_writes_them() {
        let mut rec = Recorder::new("run-1".to_string());
        let v = rec.span("outer", |rec| rec.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].start_ns <= rec.spans[1].start_ns);
        assert!(rec.spans[1].end_ns <= rec.spans[0].end_ns);
        assert_eq!(rec.self_times("inner").len(), 1);
        let json = rec.to_json("grid200", 3);
        assert!(json.starts_with("{\"run_id\": \"run-1\", \"workload\": \"grid200\", \"seed\": 3"));
        assert!(json.contains("\"name\": \"inner\""));
    }
}
