//! Structural validation of dataflow graphs.
//!
//! The translations must produce graphs in which every operator can
//! actually fire: every non-immediate input port is fed by exactly one arc
//! (merge-like ports: one or more), and every operator is reachable from
//! `Start`. Violations here are translator bugs, so the checks are strict.

use crate::graph::{ArcIndex, Dfg, OpId};
use crate::op::OpKind;
use std::fmt;

/// A structural defect in a dataflow graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DfgError {
    /// There is not exactly one `Start` operator.
    StartCount(usize),
    /// There is not exactly one `End` operator.
    EndCount(usize),
    /// An input port has no arc and no immediate: the operator can never
    /// fire.
    UnfedInput(OpId, usize),
    /// A non-merge-like input port is fed by more than one arc: tokens
    /// would collide.
    MultiplyFedInput(OpId, usize),
    /// An arc feeds a port that carries an immediate.
    ArcIntoImmediate(OpId, usize),
    /// Every input port of the operator is immediate: it would either never
    /// fire or fire unboundedly.
    AllImmediate(OpId),
    /// The operator is not reachable from `Start` along arcs.
    Unreachable(OpId),
    /// The 32-bit operator id space is exhausted: a graph already holding
    /// `ops` operators cannot assign another id.
    OpSpaceExhausted {
        /// Number of operators already in the graph.
        ops: usize,
    },
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::StartCount(n) => write!(f, "expected 1 Start operator, found {n}"),
            DfgError::EndCount(n) => write!(f, "expected 1 End operator, found {n}"),
            DfgError::UnfedInput(op, p) => write!(f, "input port {p} of {op:?} is unfed"),
            DfgError::MultiplyFedInput(op, p) => {
                write!(f, "non-merge input port {p} of {op:?} fed by multiple arcs")
            }
            DfgError::ArcIntoImmediate(op, p) => {
                write!(f, "arc feeds immediate port {p} of {op:?}")
            }
            DfgError::AllImmediate(op) => write!(f, "{op:?} has only immediate inputs"),
            DfgError::Unreachable(op) => write!(f, "{op:?} unreachable from Start"),
            DfgError::OpSpaceExhausted { ops } => {
                write!(f, "operator id space exhausted at {ops} operators")
            }
        }
    }
}

impl std::error::Error for DfgError {}

/// Validate a dataflow graph; returns every defect found.
pub fn validate(g: &Dfg) -> Result<(), Vec<DfgError>> {
    validate_indexed(g, &g.arc_index())
}

/// [`validate`] over a prebuilt arc index of `g`, for callers that walk
/// the graph again afterwards.
pub(crate) fn validate_indexed(g: &Dfg, index: &ArcIndex) -> Result<(), Vec<DfgError>> {
    let mut errs = Vec::new();
    let (mut starts, mut ends, mut start) = (0, 0, None);
    for o in g.op_ids() {
        match g.kind(o) {
            OpKind::Start => {
                starts += 1;
                start = Some(o);
            }
            OpKind::End { .. } => ends += 1,
            _ => {}
        }
    }
    if starts != 1 {
        errs.push(DfgError::StartCount(starts));
    }
    if ends != 1 {
        errs.push(DfgError::EndCount(ends));
    }

    for op in g.op_ids() {
        let kind = g.kind(op);
        let n_in = kind.n_inputs();
        let mut live_inputs = 0usize;
        for p in 0..n_in {
            let fed = index.ins(op, p).len();
            let imm = g.imm(op, p).is_some();
            if imm {
                if fed > 0 {
                    errs.push(DfgError::ArcIntoImmediate(op, p));
                }
                continue;
            }
            live_inputs += 1;
            if fed == 0 {
                errs.push(DfgError::UnfedInput(op, p));
            } else if fed > 1 && !kind.is_merge_like(p) {
                errs.push(DfgError::MultiplyFedInput(op, p));
            }
        }
        if n_in > 0 && live_inputs == 0 {
            errs.push(DfgError::AllImmediate(op));
        }
    }

    // Reachability from Start along arcs (any port).
    if let (1, Some(start)) = (starts, start) {
        let mut seen = vec![false; g.len()];
        seen[start.index()] = true;
        let mut stack = vec![start];
        while let Some(v) = stack.pop() {
            for &s in index.succs(v) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        for op in g.op_ids() {
            if !seen[op.index()] {
                errs.push(DfgError::Unreachable(op));
            }
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// The paper's redundant-switch criterion (§4): a switch is *redundant* if
/// both of its outputs feed (only) the same merge — eliminating it and
/// wiring its input straight to the merge's output changes no behaviour.
/// The optimized construction must produce none of these.
pub fn redundant_switches(g: &Dfg) -> Vec<OpId> {
    let index = g.arc_index();
    let mut redundant = Vec::new();
    for op in g.op_ids() {
        if !matches!(g.kind(op), OpKind::Switch) {
            continue;
        }
        // Exactly one arc on each arm.
        let &[a, b] = index.outs(op) else {
            continue;
        };
        let (a, b) = (g.arcs()[a as usize], g.arcs()[b as usize]);
        if a.from.port != b.from.port && a.to == b.to && matches!(g.kind(a.to.op), OpKind::Merge) {
            redundant.push(op);
        }
    }
    redundant
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ArcKind, Port};
    use cf2df_cfg::VarId;

    fn start_end(g: &mut Dfg) -> (OpId, OpId) {
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        (s, e)
    }

    #[test]
    fn minimal_valid_graph() {
        let mut g = Dfg::new();
        let (s, e) = start_end(&mut g);
        g.connect(Port::new(s, 0), Port::new(e, 0), ArcKind::Access);
        validate(&g).unwrap();
    }

    #[test]
    fn missing_end_detected() {
        let mut g = Dfg::new();
        g.add(OpKind::Start);
        let errs = validate(&g).unwrap_err();
        assert!(errs.contains(&DfgError::EndCount(0)));
    }

    #[test]
    fn unfed_input_detected() {
        let mut g = Dfg::new();
        let (s, e) = start_end(&mut g);
        let l = g.add(OpKind::Load { var: VarId(0) });
        g.connect(Port::new(s, 0), Port::new(e, 0), ArcKind::Access);
        let errs = validate(&g).unwrap_err();
        assert!(errs.contains(&DfgError::UnfedInput(l, 0)));
        assert!(errs.contains(&DfgError::Unreachable(l)));
    }

    #[test]
    fn multiply_fed_non_merge_detected() {
        let mut g = Dfg::new();
        let (s, e) = start_end(&mut g);
        let id = g.add(OpKind::Identity);
        g.connect(Port::new(s, 0), Port::new(id, 0), ArcKind::Access);
        g.connect(Port::new(s, 0), Port::new(id, 0), ArcKind::Access);
        g.connect(Port::new(id, 0), Port::new(e, 0), ArcKind::Access);
        let errs = validate(&g).unwrap_err();
        assert!(errs.contains(&DfgError::MultiplyFedInput(id, 0)));
    }

    #[test]
    fn merge_accepts_multiple_arcs() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        let m = g.add(OpKind::Merge);
        g.connect(Port::new(s, 0), Port::new(m, 0), ArcKind::Access);
        g.connect(Port::new(s, 0), Port::new(m, 0), ArcKind::Access);
        g.connect(Port::new(m, 0), Port::new(e, 0), ArcKind::Access);
        validate(&g).unwrap();
    }

    #[test]
    fn arc_into_immediate_detected() {
        let mut g = Dfg::new();
        let (s, e) = start_end(&mut g);
        let st = g.add(OpKind::Store { var: VarId(0) });
        g.set_imm(st, 0, 42);
        g.connect(Port::new(s, 0), Port::new(st, 0), ArcKind::Value); // feeds imm port!
        g.connect(Port::new(s, 0), Port::new(st, 1), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);
        let errs = validate(&g).unwrap_err();
        assert!(errs.contains(&DfgError::ArcIntoImmediate(st, 0)));
    }

    #[test]
    fn all_immediate_operator_detected() {
        let mut g = Dfg::new();
        let (s, e) = start_end(&mut g);
        g.connect(Port::new(s, 0), Port::new(e, 0), ArcKind::Access);
        let id = g.add(OpKind::Identity);
        g.set_imm(id, 0, 1);
        let errs = validate(&g).unwrap_err();
        assert!(errs.contains(&DfgError::AllImmediate(id)));
    }

    #[test]
    fn redundant_switch_recognized() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        let sw = g.add(OpKind::Switch);
        let m = g.add(OpKind::Merge);
        g.set_imm(sw, 1, 1); // constant predicate, irrelevant here
        g.connect(Port::new(s, 0), Port::new(sw, 0), ArcKind::Access);
        g.connect(Port::new(sw, 0), Port::new(m, 0), ArcKind::Access);
        g.connect(Port::new(sw, 1), Port::new(m, 0), ArcKind::Access);
        g.connect(Port::new(m, 0), Port::new(e, 0), ArcKind::Access);
        assert_eq!(redundant_switches(&g), vec![sw]);
    }

    #[test]
    fn useful_switch_not_flagged() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 2 });
        let sw = g.add(OpKind::Switch);
        g.set_imm(sw, 1, 1);
        g.connect(Port::new(s, 0), Port::new(sw, 0), ArcKind::Access);
        g.connect(Port::new(sw, 0), Port::new(e, 0), ArcKind::Access);
        g.connect(Port::new(sw, 1), Port::new(e, 1), ArcKind::Access);
        assert!(redundant_switches(&g).is_empty());
    }
}
