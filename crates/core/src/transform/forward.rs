//! Store-to-load forwarding (§6.2).
//!
//! "If a store to a variable z is followed sequentially by a read from z,
//! with no intervening stores to any variable that could be aliased to z,
//! then the value stored can be passed directly to the output of the
//! load."
//!
//! On the dataflow graph the condition is a *direct* access arc from a
//! scalar store's completion to a load of the same variable: any
//! intervening (possibly aliased) operation would sit on that token line
//! between them, and aliased access sets route through synch trees rather
//! than direct arcs — so the arc test is exactly the paper's condition.
//! The load is deleted; its value consumers take the stored value, its
//! access consumers take the store's completion.

use cf2df_dfg::{ArcIndex, ArcKind, Dfg, OpId, OpKind, Port};

/// The first (store, load) pair `Store{v}.0 --access--> Load{v}.0`, in
/// store then arc order.
fn find_pair(g: &Dfg, index: &ArcIndex) -> Option<(OpId, OpId)> {
    g.op_ids().find_map(|st| {
        let OpKind::Store { var } = *g.kind(st) else {
            return None;
        };
        // A store's only output port is its completion.
        index
            .outs(st)
            .iter()
            .find_map(|&ai| {
                let to = g.arcs()[ai as usize].to;
                match *g.kind(to.op) {
                    OpKind::Load { var: lv } if to.port == 0 && lv == var => Some(to.op),
                    _ => None,
                }
            })
            .map(|ld| (st, ld))
    })
}

/// Apply the rewrite; returns the number of loads forwarded. The graph is
/// compacted afterwards, so **operator ids change**; the id map is
/// returned for callers holding references. Each round indexes the
/// graph once, reads every arc it will edit, then forwards one pair.
pub fn forward_stores(g: &mut Dfg) -> (usize, Vec<Option<OpId>>) {
    let mut forwarded = 0;
    loop {
        let index = g.arc_index();
        let Some((st, ld)) = find_pair(g, &index) else {
            break;
        };

        // The stored value: either an immediate or a source port.
        let st_value_imm = g.imm(st, 0);
        let st_value_src = index
            .ins(st, 0)
            .first()
            .map(|&ai| g.arcs()[ai as usize].from);

        // Value (port 0) and access (port 1) consumers of the load.
        let dests = |port: usize| -> Vec<(Port, ArcKind)> {
            index
                .outs_on(g, Port::new(ld, port))
                .map(|ai| (g.arcs()[ai].to, g.arcs()[ai].kind))
                .collect()
        };
        let (value_dests, access_dests) = (dests(0), dests(1));

        // The forwarded value's source port: the store's value input, or —
        // for an immediate — a gate that emits the constant once per store
        // completion (keeping per-tag token discipline intact).
        let value_src = if value_dests.is_empty() {
            None
        } else {
            match (st_value_imm, st_value_src) {
                (Some(c), _) => {
                    let gate = g.add_labeled(OpKind::Gate, "fwd const".to_owned());
                    g.set_imm(gate, 0, c);
                    g.connect(Port::new(st, 0), Port::new(gate, 1), ArcKind::Access);
                    Some(Port::new(gate, 0))
                }
                (None, Some(src)) => Some(src),
                (None, None) => unreachable!("store has a value input"),
            }
        };

        // Rewire: value.
        for (dest, kind) in &value_dests {
            g.disconnect(Port::new(ld, 0), *dest);
            g.connect(value_src.expect("non-empty dests"), *dest, *kind);
        }
        // Rewire: access chain skips the load.
        for (dest, kind) in &access_dests {
            g.disconnect(Port::new(ld, 1), *dest);
            g.connect(Port::new(st, 0), *dest, *kind);
        }
        // Remove the store→load arc; the load is now isolated.
        g.disconnect(Port::new(st, 0), Port::new(ld, 0));
        forwarded += 1;
    }
    if forwarded > 0 {
        (forwarded, g.compact())
    } else {
        (forwarded, g.op_ids().map(Some).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::{MemLayout, VarId, VarTable};
    use cf2df_dfg::graph::ArcKind;
    use cf2df_machine::{run, MachineConfig};

    /// start → store x := 7 → load x → store y := loaded → end.
    fn graph() -> (Dfg, MemLayout) {
        let mut t = VarTable::new();
        t.scalar("x");
        t.scalar("y");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let st_x = g.add(OpKind::Store { var: VarId(0) });
        g.set_imm(st_x, 0, 7);
        let ld_x = g.add(OpKind::Load { var: VarId(0) });
        let st_y = g.add(OpKind::Store { var: VarId(1) });
        let e = g.add(OpKind::End { inputs: 2 });
        g.connect(Port::new(s, 0), Port::new(st_x, 1), ArcKind::Access);
        g.connect(Port::new(st_x, 0), Port::new(ld_x, 0), ArcKind::Access);
        g.connect(Port::new(ld_x, 0), Port::new(st_y, 0), ArcKind::Value);
        g.connect(Port::new(s, 0), Port::new(st_y, 1), ArcKind::Access);
        g.connect(Port::new(ld_x, 1), Port::new(e, 0), ArcKind::Access);
        g.connect(Port::new(st_y, 0), Port::new(e, 1), ArcKind::Access);
        (g, layout)
    }

    #[test]
    fn forwarding_removes_the_load() {
        let (mut g, layout) = graph();
        let before = run(&g, &layout, MachineConfig::unbounded().mem_latency(10)).unwrap();
        let (n, _) = forward_stores(&mut g);
        assert_eq!(n, 1);
        cf2df_dfg::validate(&g).unwrap();
        assert!(
            !g.op_ids().any(|o| matches!(g.kind(o), OpKind::Load { .. })),
            "load deleted"
        );
        let after = run(&g, &layout, MachineConfig::unbounded().mem_latency(10)).unwrap();
        assert_eq!(after.memory, before.memory);
        assert_eq!(after.stats.mem_reads, 0);
        assert!(after.stats.makespan < before.stats.makespan);
    }

    #[test]
    fn different_variable_not_forwarded() {
        // store x → load y (y's load just happens to be threaded after —
        // only possible when they share a line, i.e. aliasing): must not
        // forward.
        let mut t = VarTable::new();
        t.scalar("x");
        t.scalar("y");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let st_x = g.add(OpKind::Store { var: VarId(0) });
        g.set_imm(st_x, 0, 7);
        let ld_y = g.add(OpKind::Load { var: VarId(1) });
        let e = g.add(OpKind::End { inputs: 2 });
        g.connect(Port::new(s, 0), Port::new(st_x, 1), ArcKind::Access);
        g.connect(Port::new(st_x, 0), Port::new(ld_y, 0), ArcKind::Access);
        g.connect(Port::new(ld_y, 0), Port::new(e, 0), ArcKind::Value);
        g.connect(Port::new(ld_y, 1), Port::new(e, 1), ArcKind::Access);
        let (n, _) = forward_stores(&mut g);
        assert_eq!(n, 0);
        let _ = layout;
    }

    #[test]
    fn chain_of_forwards_converges() {
        // store x := 1 → load x → (value feeds a +1) → store x → load x …
        let mut t = VarTable::new();
        t.scalar("x");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        let mut access = Port::new(s, 0);
        let mut last_store = None;
        for i in 0..3 {
            let st = g.add(OpKind::Store { var: VarId(0) });
            match last_store {
                None => g.set_imm(st, 0, 1),
                Some(prev_val) => {
                    let add = g.add(OpKind::Binary {
                        op: cf2df_cfg::BinOp::Add,
                    });
                    g.set_imm(add, 1, i);
                    g.connect(prev_val, Port::new(add, 0), ArcKind::Value);
                    g.connect(Port::new(add, 0), Port::new(st, 0), ArcKind::Value);
                }
            }
            g.connect(access, Port::new(st, 1), ArcKind::Access);
            let ld = g.add(OpKind::Load { var: VarId(0) });
            g.connect(Port::new(st, 0), Port::new(ld, 0), ArcKind::Access);
            access = Port::new(ld, 1);
            last_store = Some(Port::new(ld, 0));
        }
        // Terminal: feed the last loaded value into a store to x again so
        // it is consumed, then end.
        let st = g.add(OpKind::Store { var: VarId(0) });
        g.connect(last_store.unwrap(), Port::new(st, 0), ArcKind::Value);
        g.connect(access, Port::new(st, 1), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);

        let before = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let (n, _) = forward_stores(&mut g);
        assert_eq!(n, 3, "every load forwarded");
        cf2df_dfg::validate(&g).unwrap();
        let after = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(after.memory, before.memory);
    }
}
