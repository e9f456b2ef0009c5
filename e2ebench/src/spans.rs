//! In-memory spans of the traced run: name, start, end, parent and the
//! request each belongs to. They are kept in memory while the run
//! measures and written out once at the end, as flat JSON lines that
//! `esvm query` loads:
//!
//! ```text
//! esvm query "load e2ebench/run/spans-….jsonl | agg sum:self_us by:name"
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, `crate.module[.function]`.
    pub name: &'static str,
    /// The request (or VM, or figure) the span worked on, if any.
    pub req: Option<u64>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// The span recorder. Spans opened with [`Spans::enter`] nest under the
/// innermost open span; [`Spans::record`] adds a span measured
/// elsewhere (a client request, a worker thread's item) under a given
/// parent.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder started.
    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// `at` as nanoseconds since the recorder started.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Room for `n` more spans, so a hot loop never grows the buffer
    /// between its clock reads.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: Option<u64>) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration in nanoseconds.
    pub fn exit(&mut self, id: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        self.spans[id].dur_ns()
    }

    /// Runs `f` inside a span and returns its result and the span's
    /// duration in seconds.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let id = self.enter(name, None);
        let out = f(self);
        let ns = self.exit(id);
        (out, ns as f64 / 1e9)
    }

    /// Adds a closed span measured elsewhere, under the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, req: Option<u64>, start: Instant, end: Instant) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
        });
    }

    /// Each span's self time: its duration minus the part of it that
    /// its children cover. Children may overlap one another (worker
    /// threads), so the covered part is the union of their intervals.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.dur_ns() - covered
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.dur_ns();
            t.self_ns += own;
        }
        out
    }

    /// The share of span `id` that none of its children cover.
    pub fn unattributed_share(&self, id: usize) -> f64 {
        let dur = self.spans[id].dur_ns();
        if dur == 0 {
            return 0.0;
        }
        self.self_ns()[id] as f64 / dur as f64
    }

    /// One flat JSON object per span, in start order of recording.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ((id, s), own) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let _ = write!(out, "{{\"type\":\"span\",\"id\":{id},\"parent\":");
            match s.parent {
                Some(p) => write!(out, "{p}"),
                None => write!(out, "null"),
            }
            .expect("writing to a String cannot fail");
            let _ = write!(out, ",\"name\":\"{}\",\"req\":", s.name);
            match s.req {
                Some(r) => write!(out, "{r}"),
                None => write!(out, "null"),
            }
            .expect("writing to a String cannot fail");
            let _ = writeln!(
                out,
                ",\"start_us\":{},\"end_us\":{},\"dur_us\":{},\"self_us\":{}}}",
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                own as f64 / 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut spans = Spans::new();
        let t0 = Instant::now();
        let root = spans.enter("root", None);
        // Two overlapping children (as from two worker threads) cover
        // [t0+1, t0+4) together.
        let at = |ms| t0 + Duration::from_millis(ms);
        spans.record("child", Some(1), at(1), at(3));
        spans.record("child", Some(2), at(2), at(4));
        spans.spans[root].start_ns = spans.ns_at(t0);
        spans.open.pop();
        spans.spans[root].end_ns = spans.ns_at(at(10));
        let own = spans.self_ns();
        assert_eq!(own[root], 7_000_000);
        assert_eq!(own[1], 2_000_000);
        let totals = spans.totals();
        assert_eq!(totals["child"].count, 2);
        assert_eq!(totals["child"].total_ns, 4_000_000);
        assert!((spans.unattributed_share(root) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn jsonl_loads_in_esvm_query() {
        let mut spans = Spans::new();
        let root = spans.enter("workload.demo", None);
        for req in 0..3 {
            let id = spans.enter("layer.step", Some(req));
            spans.exit(id);
        }
        spans.exit(root);
        let path =
            std::env::temp_dir().join(format!("e2ebench-spans-{}.jsonl", std::process::id()));
        std::fs::write(&path, spans.to_jsonl()).unwrap();
        let out = esvm_exper::query::run_query(&format!(
            "load {} | filter name == layer.step | agg count,sum:self_us by:name",
            path.display()
        ))
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("layer.step"), "{out}");
        assert!(
            out.lines()
                .any(|l| l.contains("layer.step") && l.contains(" 3 ")),
            "{out}"
        );
    }
}
