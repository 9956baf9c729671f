//! Graphviz DOT export: access-token arcs are drawn dotted, as in the
//! paper's figures.

use crate::graph::{ArcKind, Dfg};
use crate::op::OpKind;
use std::fmt::Write as _;

/// Render a dataflow graph in DOT format.
pub fn dfg_to_dot(g: &Dfg, title: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "digraph \"{title}\" {{");
    let _ = writeln!(s, "  node [fontname=\"monospace\"];");
    for op in g.op_ids() {
        let mut label = g.kind(op).mnemonic();
        if !g.label(op).is_empty() {
            label.push_str("\\n");
            label.push_str(g.label(op));
        }
        let shape = match g.kind(op) {
            OpKind::Switch | OpKind::CaseSwitch { .. } => "invtriangle",
            OpKind::Merge => "triangle",
            OpKind::Synch { .. } | OpKind::End { .. } => "house",
            OpKind::Load { .. }
            | OpKind::Store { .. }
            | OpKind::LoadIdx { .. }
            | OpKind::StoreIdx { .. }
            | OpKind::IstLoad { .. }
            | OpKind::IstStore { .. } => "box3d",
            OpKind::LoopEntry { .. }
            | OpKind::LoopSwitch { .. }
            | OpKind::LoopExit { .. }
            | OpKind::PrevIter { .. }
            | OpKind::IterIndex { .. } => "hexagon",
            _ => "box",
        };
        let _ = writeln!(
            s,
            "  op{} [label=\"{}\", shape={}];",
            op.0,
            label.replace('"', "\\\""),
            shape
        );
    }
    for a in g.arcs() {
        let style = match a.kind {
            ArcKind::Access => ", style=dotted",
            ArcKind::Value => "",
        };
        let label = match g.kind(a.from.op) {
            OpKind::Switch => {
                if a.from.port == 0 {
                    "T".to_owned()
                } else {
                    "F".to_owned()
                }
            }
            OpKind::CaseSwitch { arms } => {
                if a.from.port as u32 + 1 == *arms {
                    "else".to_owned()
                } else {
                    a.from.port.to_string()
                }
            }
            OpKind::LoopSwitch { .. } => {
                if a.from.port == 0 {
                    "next".to_owned()
                } else {
                    "exit".to_owned()
                }
            }
            _ => String::new(),
        };
        let _ = writeln!(
            s,
            "  op{} -> op{} [label=\"{}\"{}];",
            a.from.op.0, a.to.op.0, label, style
        );
    }
    let _ = writeln!(s, "}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Port;
    use cf2df_cfg::VarId;

    #[test]
    fn dot_renders_dotted_access_arcs() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let l = g.add_labeled(OpKind::Load { var: VarId(0) }, "x line");
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(l, 0), ArcKind::Access);
        g.connect(Port::new(l, 1), Port::new(e, 0), ArcKind::Access);
        let dot = dfg_to_dot(&g, "t");
        assert_eq!(dot.matches("style=dotted").count(), 2);
        assert!(dot.contains("x line"));
        assert!(dot.contains("box3d"));
    }

    #[test]
    fn switch_arcs_labelled_by_direction() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let sw = g.add(OpKind::Switch);
        let e = g.add(OpKind::End { inputs: 2 });
        g.set_imm(sw, 1, 1);
        g.connect(Port::new(s, 0), Port::new(sw, 0), ArcKind::Access);
        g.connect(Port::new(sw, 0), Port::new(e, 0), ArcKind::Access);
        g.connect(Port::new(sw, 1), Port::new(e, 1), ArcKind::Access);
        let dot = dfg_to_dot(&g, "t");
        assert!(dot.contains("label=\"T\""));
        assert!(dot.contains("label=\"F\""));
    }
}
