//! Graph statistics: the size and operator-mix measurements behind the
//! paper's O(E·V) size claim (§3) and the switch-elimination comparison
//! (§4).

use crate::graph::{ArcKind, Dfg};
use crate::op::OpKind;

/// Operator and arc counts of a dataflow graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DfgStats {
    /// Total operators.
    pub ops: usize,
    /// `switch` operators.
    pub switches: usize,
    /// `merge` operators.
    pub merges: usize,
    /// `synch` operators (any arity).
    pub synchs: usize,
    /// Memory operations (loads + stores, including array and I-structure).
    pub memory_ops: usize,
    /// Loads only.
    pub loads: usize,
    /// Stores only.
    pub stores: usize,
    /// Arithmetic/logic operators.
    pub alu: usize,
    /// Loop-control operators (entry + exit + iteration collectors).
    pub loop_control: usize,
    /// Compound macro operators produced by the fusion pass.
    pub macros: usize,
    /// Operators folded *inside* macros (micro-program steps in total);
    /// `ops + fused_ops - macros` recovers the unfused operator count.
    pub fused_ops: usize,
    /// Total arcs.
    pub arcs: usize,
    /// Arcs carrying dummy access tokens.
    pub access_arcs: usize,
    /// Arcs carrying values.
    pub value_arcs: usize,
}

impl DfgStats {
    /// Gather statistics from a graph.
    pub fn of(g: &Dfg) -> DfgStats {
        let mut s = DfgStats {
            ops: g.len(),
            arcs: g.arc_count(),
            ..DfgStats::default()
        };
        for op in g.op_ids() {
            match g.kind(op) {
                OpKind::Switch | OpKind::CaseSwitch { .. } => s.switches += 1,
                OpKind::Merge => s.merges += 1,
                OpKind::Synch { .. } => s.synchs += 1,
                OpKind::Unary { .. } | OpKind::Binary { .. } => s.alu += 1,
                OpKind::LoopEntry { .. }
                | OpKind::LoopExit { .. }
                | OpKind::PrevIter { .. }
                | OpKind::IterIndex { .. } => s.loop_control += 1,
                OpKind::Macro { steps, .. } => {
                    s.macros += 1;
                    s.fused_ops += steps.len();
                }
                // A fused loop-entry/switch pair is both loop control and
                // a compound: one node standing for two unfused operators.
                OpKind::LoopSwitch { .. } => {
                    s.loop_control += 1;
                    s.macros += 1;
                    s.fused_ops += 2;
                }
                k if k.is_memory() => {
                    s.memory_ops += 1;
                    if k.is_store() {
                        s.stores += 1;
                    } else {
                        s.loads += 1;
                    }
                }
                _ => {}
            }
        }
        for a in g.arcs() {
            match a.kind {
                ArcKind::Access => s.access_arcs += 1,
                ArcKind::Value => s.value_arcs += 1,
            }
        }
        s
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "ops={} (switch={} merge={} synch={} mem={} alu={} loopctl={} macro={}/{}) arcs={} (access={} value={})",
            self.ops,
            self.switches,
            self.merges,
            self.synchs,
            self.memory_ops,
            self.alu,
            self.loop_control,
            self.macros,
            self.fused_ops,
            self.arcs,
            self.access_arcs,
            self.value_arcs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Port;
    use cf2df_cfg::{BinOp, LoopId, VarId};

    #[test]
    fn counts_each_category() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        let sw = g.add(OpKind::Switch);
        let m = g.add(OpKind::Merge);
        let sy = g.add(OpKind::Synch { inputs: 2 });
        let ld = g.add(OpKind::Load { var: VarId(0) });
        let st = g.add(OpKind::Store { var: VarId(0) });
        let b = g.add(OpKind::Binary { op: BinOp::Add });
        let le = g.add(OpKind::LoopEntry { loop_id: LoopId(0) });
        g.connect(Port::new(s, 0), Port::new(e, 0), ArcKind::Access);
        g.connect(Port::new(ld, 0), Port::new(b, 0), ArcKind::Value);
        let stats = DfgStats::of(&g);
        assert_eq!(stats.ops, 9);
        assert_eq!(stats.switches, 1);
        assert_eq!(stats.merges, 1);
        assert_eq!(stats.synchs, 1);
        assert_eq!(stats.memory_ops, 2);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.alu, 1);
        assert_eq!(stats.loop_control, 1);
        assert_eq!(stats.arcs, 2);
        assert_eq!(stats.access_arcs, 1);
        assert_eq!(stats.value_arcs, 1);
        let _ = (sw, m, sy, st, le);
        assert!(stats.summary().contains("ops=9"));
    }
}
