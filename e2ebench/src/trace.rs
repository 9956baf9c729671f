//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is named after the layer call it brackets (`lang.parse`,
//! `core.translate`, `machine.run`, ...) and carries its start, end,
//! parent and op id. Spans of set-up work have no op id. The tracer is
//! off in the runs that produce end-to-end numbers: there it records
//! nothing and reads no clock.

use cf2df_bench::json::{self, Obj};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
struct Span {
    /// The layer call, e.g. `core.translate` or `core.pass`.
    layer: &'static str,
    /// A sub-name within the layer (the pass name for `core.pass`), or
    /// empty.
    detail: &'static str,
    /// The op this span belongs to; `None` for set-up work.
    op: Option<u64>,
    /// Index of the enclosing span.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    /// The span's full name: `layer` or `layer.detail`.
    fn name(&self) -> String {
        if self.detail.is_empty() {
            self.layer.to_owned()
        } else {
            format!("{}.{}", self.layer, self.detail)
        }
    }

    /// Duration in ns.
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when on; a no-op when off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start or stop recording.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `layer` and return its value.
    pub fn span<R>(&mut self, layer: &'static str, op: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(layer, "", op, None, start, end);
        r
    }

    /// Record a span whose bounds were taken elsewhere (another thread,
    /// or a layer's own records). Returns its index (`None` when off).
    pub fn record(
        &mut self,
        layer: &'static str,
        detail: &'static str,
        op: Option<u64>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            layer,
            detail,
            op,
            parent,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Durations (ns) of every span named `layer`/`detail`, set-up spans
    /// (`setup == true`) or per-op spans (`setup == false`).
    pub fn durations(&self, layer: &str, detail: &str, setup: bool) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.detail == detail && s.op.is_none() == setup)
            .map(Span::ns)
            .collect()
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.ns() - covered.min(s.ns())
            })
            .collect()
    }

    /// Every span as a JSON array of objects with name, op, parent,
    /// start, end and self time.
    pub fn to_json(&self) -> String {
        let selfs = self.self_ns();
        json::array(self.spans.iter().zip(selfs).map(|(s, self_ns)| {
            let mut o = Obj::new();
            o.str("name", &s.name());
            match s.op {
                Some(op) => o.num("op", op),
                None => o.raw("op", "null"),
            };
            match s.parent {
                Some(p) => o.num("parent", p as u64),
                None => o.raw("parent", "null"),
            };
            o.num("start_ns", s.start_ns)
                .num("end_ns", s.end_ns)
                .num("self_ns", self_ns);
            o.finish()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut tr = Tracer::new(true);
        let t0 = tr.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let p = tr.record("core.translate", "", Some(0), None, at(0), at(100));
        tr.record("core.pass", "a", Some(0), p, at(10), at(40));
        // Overlaps the first child: only its uncovered 10 µs count.
        tr.record("core.pass", "b", Some(0), p, at(30), at(50));
        let selfs = tr.self_ns();
        assert_eq!(selfs[0], 60_000);
        assert_eq!(selfs[1], 30_000);
        assert_eq!(tr.durations("core.pass", "a", false), vec![30_000]);
        assert!(tr.durations("core.pass", "a", true).is_empty());
        json::parse(&tr.to_json()).expect("span dump is valid JSON");
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("lang.parse", Some(1), || 7), 7);
        assert!(tr.durations("lang.parse", "", false).is_empty());
    }
}
