//! Execution traces: a per-firing event log with a text timeline renderer.
//!
//! Tracing is opt-in and has no cost on ordinary runs. Both backends emit
//! the same [`TraceEvent`]: the simulator records every firing
//! ([`crate::exec::run_traced`]), the threaded engine keeps the last
//! `ParConfig::trace_capacity` firings of a solo run
//! ([`crate::parallel::run_threaded_compiled_pooled_with`]).

use cf2df_dfg::{Dfg, OpId};

/// One operator firing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The simulator's issue step, or the threaded engine's global firing
    /// sequence number (a total order across workers).
    pub time: u64,
    /// Worker that fired the operator (always 0 in the simulator).
    pub worker: usize,
    /// The operator.
    pub op: OpId,
    /// The iteration tag, rendered (e.g. `root.L0[3]`).
    pub tag: String,
}

/// A full execution trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in issue order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing fired.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events grouped by time step.
    pub fn by_step(&self) -> Vec<(u64, Vec<&TraceEvent>)> {
        let mut out: Vec<(u64, Vec<&TraceEvent>)> = Vec::new();
        for e in &self.events {
            match out.last_mut() {
                Some((t, v)) if *t == e.time => v.push(e),
                _ => out.push((e.time, vec![e])),
            }
        }
        out
    }

    /// Render a compact text timeline: one line per time step listing the
    /// operators issued.
    pub fn timeline(&self, g: &Dfg) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (t, events) in self.by_step() {
            let ops: Vec<String> = events
                .iter()
                .map(|e| {
                    let label = g.label(e.op);
                    if label.is_empty() {
                        g.kind(e.op).mnemonic().to_string()
                    } else {
                        format!("{}[{}]", g.kind(e.op).mnemonic(), label)
                    }
                })
                .collect();
            let _ = writeln!(s, "t={t:<6} | {}", ops.join("  "));
        }
        s
    }

    /// Firings of a particular operator, as `(time, tag)` pairs — the
    /// per-instruction activity a hardware pipeline view would show.
    pub fn activity_of(&self, op: OpId) -> Vec<(u64, &str)> {
        self.events
            .iter()
            .filter(|e| e.op == op)
            .map(|e| (e.time, e.tag.as_str()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_traced, MachineConfig};
    use cf2df_cfg::{MemLayout, VarId, VarTable};
    use cf2df_dfg::graph::ArcKind;
    use cf2df_dfg::{OpKind, Port};

    fn tiny() -> (Dfg, MemLayout) {
        let mut t = VarTable::new();
        t.scalar("x");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld = g.add_labeled(OpKind::Load { var: VarId(0) }, "x");
        let st = g.add(OpKind::Store { var: VarId(0) });
        g.set_imm(st, 0, 3);
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(ld, 0), ArcKind::Access);
        g.connect(Port::new(ld, 1), Port::new(st, 1), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);
        (g, layout)
    }

    #[test]
    fn trace_records_every_firing() {
        let (g, layout) = tiny();
        let (out, trace) = run_traced(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(trace.len() as u64, out.stats.fired);
        // load at t=0, store at t=1, end at t=2.
        assert_eq!(trace.events[0].time, 0);
        assert_eq!(trace.events.last().unwrap().time, out.stats.makespan);
        assert!(trace.events.iter().all(|e| e.tag == "root"));
    }

    #[test]
    fn timeline_renders_one_line_per_step() {
        let (g, layout) = tiny();
        let (_, trace) = run_traced(&g, &layout, MachineConfig::unbounded()).unwrap();
        let tl = trace.timeline(&g);
        assert_eq!(tl.lines().count(), trace.by_step().len());
        assert!(tl.contains("load"));
        assert!(tl.contains("[x]"), "labels shown: {tl}");
    }

    #[test]
    fn activity_filters_by_op() {
        let (g, layout) = tiny();
        let (_, trace) = run_traced(&g, &layout, MachineConfig::unbounded()).unwrap();
        let ld = g
            .op_ids()
            .find(|&o| matches!(g.kind(o), OpKind::Load { .. }))
            .unwrap();
        assert_eq!(trace.activity_of(ld).len(), 1);
    }
}
