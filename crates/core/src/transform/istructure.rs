//! Write-once arrays on I-structure memory (§6.3).
//!
//! "A further enhancement … is to detect when an array is 'write-once'. If
//! the dataflow machine has I-structure memory, array reads and writes can
//! be done concurrently, since I-structure memory takes care of delaying
//! premature read requests until the corresponding writes have occurred."
//!
//! The transform converts a chosen array's element operations to
//! I-structure operations and releases them from the access-token line:
//!
//! * stores fire as soon as index and value are ready (not gated on the
//!   line); the line instead *synchronizes with* each store's completion,
//!   so the program still cannot terminate before all writes land;
//! * loads fire as soon as their index is ready; premature reads are
//!   deferred by the memory until the matching write.
//!
//! **Preconditions are the caller's responsibility** (the paper gives no
//! detection algorithm either): every cell of the array must be written at
//! most once per execution, and every cell that is read must eventually be
//! written. Violations are *detected, not silent*: a double write faults
//! with a memory fault (`IStructureRewrite`), and an unmatched read leaves the machine
//! deadlocked with a diagnostic. Note the final values live in the
//! machine's I-structure memory snapshot (`Outcome::ist_memory`).

use cf2df_dfg::{ArcKind, Dfg, OpId, OpKind, Port};
use cf2df_cfg::VarId;

/// Convert every element operation on the given arrays to I-structure
/// operations. Returns the number of operations converted; the graph is
/// compacted, and the id map is returned for callers holding op ids.
pub fn convert_arrays(g: &mut Dfg, arrays: &[VarId]) -> (usize, Vec<Option<OpId>>) {
    let mut converted = 0;
    let sites: Vec<OpId> = g
        .op_ids()
        .filter(|&o| match g.kind(o) {
            OpKind::LoadIdx { var } | OpKind::StoreIdx { var } => arrays.contains(var),
            _ => false,
        })
        .collect();
    for op in sites {
        let index = g.arc_index();
        // Gather everything (pure reads of arc indices) before mutating:
        // `disconnect` invalidates arc indices.
        let gather_in = |port: usize| -> (Option<i64>, Vec<(Port, ArcKind)>) {
            (
                g.imm(op, port),
                index
                    .ins(op, port)
                    .iter()
                    .map(|&ai| (g.arcs()[ai as usize].from, g.arcs()[ai as usize].kind))
                    .collect(),
            )
        };
        let gather_out = |port: usize| -> Vec<(Port, ArcKind)> {
            index
                .outs_on(g, Port::new(op, port))
                .map(|ai| (g.arcs()[ai].to, g.arcs()[ai].kind))
                .collect()
        };
        match *g.kind(op) {
            OpKind::StoreIdx { var } => {
                // Old ports: in [index, value, access]; out [access].
                let (idx_imm, idx_arcs) = gather_in(0);
                let (val_imm, val_arcs) = gather_in(1);
                let (_, line_arcs) = gather_in(2);
                let dests = gather_out(0);

                let ist = g.add_labeled(OpKind::IstStore { var }, "write-once".to_owned());
                if let (Some(idx_c), Some(val_c)) = (idx_imm, val_imm) {
                    // Both operands constant: the store needs *some*
                    // trigger — gate the index on the line token (no
                    // early-fire benefit for this corner, but correct).
                    let gate = g.add(OpKind::Gate);
                    g.set_imm(gate, 0, idx_c);
                    if let Some((src, _)) = line_arcs.first() {
                        g.connect(*src, Port::new(gate, 1), ArcKind::Access);
                    }
                    g.connect(Port::new(gate, 0), Port::new(ist, 0), ArcKind::Value);
                    g.set_imm(ist, 1, val_c);
                } else {
                    rewire_input(g, op, 0, ist, 0, idx_imm, &idx_arcs);
                    rewire_input(g, op, 1, ist, 1, val_imm, &val_arcs);
                }
                // The line bypasses the store but synchronizes with its
                // completion.
                for (src, _) in &line_arcs {
                    g.disconnect(*src, Port::new(op, 2));
                }
                for (d, _) in &dests {
                    g.disconnect(Port::new(op, 0), *d);
                }
                let sy = g.add(OpKind::Synch { inputs: 2 });
                if let Some((src, _)) = line_arcs.first() {
                    g.connect(*src, Port::new(sy, 0), ArcKind::Access);
                }
                g.connect(Port::new(ist, 0), Port::new(sy, 1), ArcKind::Access);
                for (d, kind) in dests {
                    g.connect(Port::new(sy, 0), d, kind);
                }
                converted += 1;
            }
            OpKind::LoadIdx { var } => {
                // Old ports: in [index, access]; out [value, access].
                let (idx_imm, idx_arcs) = gather_in(0);
                let (_, line_arcs) = gather_in(1);
                let value_dests = gather_out(0);
                let access_dests = gather_out(1);

                let ist = g.add_labeled(OpKind::IstLoad { var }, "write-once".to_owned());
                if let Some(idx_c) = idx_imm {
                    // Constant index: gate on the line token as the trigger.
                    let gate = g.add(OpKind::Gate);
                    g.set_imm(gate, 0, idx_c);
                    if let Some((src, _)) = line_arcs.first() {
                        g.connect(*src, Port::new(gate, 1), ArcKind::Access);
                    }
                    g.connect(Port::new(gate, 0), Port::new(ist, 0), ArcKind::Value);
                } else {
                    rewire_input(g, op, 0, ist, 0, idx_imm, &idx_arcs);
                }
                for (to, _) in &value_dests {
                    g.disconnect(Port::new(op, 0), *to);
                    g.connect(Port::new(ist, 0), *to, ArcKind::Value);
                }
                // The line bypasses the load entirely.
                for (src, _) in &line_arcs {
                    g.disconnect(*src, Port::new(op, 1));
                }
                for (d, kind) in &access_dests {
                    g.disconnect(Port::new(op, 1), *d);
                    if let Some((src, _)) = line_arcs.first() {
                        g.connect(*src, *d, *kind);
                    }
                }
                converted += 1;
            }
            _ => unreachable!("filtered above"),
        }
    }
    if converted > 0 {
        (converted, g.compact())
    } else {
        (0, g.op_ids().map(Some).collect())
    }
}

/// Move an input (immediate or arcs) from `old`'s port to `new`'s port.
fn rewire_input(
    g: &mut Dfg,
    old: OpId,
    from_port: usize,
    new: OpId,
    to_port: usize,
    imm: Option<i64>,
    arcs: &[(Port, ArcKind)],
) {
    if let Some(c) = imm {
        g.set_imm(new, to_port, c);
        return;
    }
    for (src, kind) in arcs {
        g.disconnect(*src, Port::new(old, from_port));
        g.connect(*src, Port::new(new, to_port), *kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::{MemLayout, VarTable};
    use cf2df_machine::{run, MachineConfig, MachineError};

    /// start → store a[0] := 5 (slow path) ∥ load a[0] → store result in
    /// a[1]: with ordinary memory the load must be sequenced; with
    /// I-structures the read defers and still gets 5.
    fn graph(t: &mut VarTable) -> (Dfg, VarId) {
        let a = t.array("a", 2);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        let st = g.add(OpKind::StoreIdx { var: a });
        g.set_imm(st, 0, 0);
        g.set_imm(st, 1, 5);
        let ld = g.add(OpKind::LoadIdx { var: a });
        g.set_imm(ld, 0, 0);
        let st2 = g.add(OpKind::StoreIdx { var: a });
        g.set_imm(st2, 0, 1);
        // line: start → st → ld → st2 → end; ld value feeds st2's value.
        g.connect(Port::new(s, 0), Port::new(st, 2), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(ld, 1), ArcKind::Access);
        g.connect(Port::new(ld, 0), Port::new(st2, 1), ArcKind::Value);
        g.connect(Port::new(ld, 1), Port::new(st2, 2), ArcKind::Access);
        g.connect(Port::new(st2, 0), Port::new(e, 0), ArcKind::Access);
        (g, a)
    }

    #[test]
    fn conversion_preserves_values_in_ist_memory() {
        let mut t = VarTable::new();
        let (mut g, a) = graph(&mut t);
        let layout = MemLayout::distinct(&t);
        let before = run(&g, &layout, MachineConfig::unbounded().mem_latency(10)).unwrap();
        let (n, _) = convert_arrays(&mut g, &[a]);
        assert_eq!(n, 3);
        cf2df_dfg::validate(&g).unwrap();
        let after = run(&g, &layout, MachineConfig::unbounded().mem_latency(10)).unwrap();
        // Values now live in I-structure memory.
        assert_eq!(after.ist_memory, before.memory);
        assert_eq!(after.stats.leftover_tokens, 0);
    }

    #[test]
    fn double_write_faults() {
        let mut t = VarTable::new();
        let a = t.array("a", 2);
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        let st1 = g.add(OpKind::StoreIdx { var: a });
        g.set_imm(st1, 0, 0);
        g.set_imm(st1, 1, 1);
        let st2 = g.add(OpKind::StoreIdx { var: a });
        g.set_imm(st2, 0, 0); // same cell!
        g.set_imm(st2, 1, 2);
        g.connect(Port::new(s, 0), Port::new(st1, 2), ArcKind::Access);
        g.connect(Port::new(st1, 0), Port::new(st2, 2), ArcKind::Access);
        g.connect(Port::new(st2, 0), Port::new(e, 0), ArcKind::Access);
        let (n, _) = convert_arrays(&mut g, &[a]);
        assert_eq!(n, 2);
        let err = run(&g, &layout, MachineConfig::unbounded()).unwrap_err();
        assert!(matches!(err, MachineError::Memory(_)), "{err}");
    }

    #[test]
    fn unmatched_read_deadlocks_with_diagnostic() {
        let mut t = VarTable::new();
        let a = t.array("a", 2);
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        let ld = g.add(OpKind::LoadIdx { var: a });
        g.set_imm(ld, 0, 1);
        let st = g.add(OpKind::StoreIdx { var: a });
        g.set_imm(st, 0, 0);
        g.connect(Port::new(s, 0), Port::new(ld, 1), ArcKind::Access);
        g.connect(Port::new(ld, 0), Port::new(st, 1), ArcKind::Value);
        g.connect(Port::new(ld, 1), Port::new(st, 2), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);
        let (_, _) = convert_arrays(&mut g, &[a]);
        // a[1] is never written: the read defers forever → deadlock.
        let err = run(&g, &layout, MachineConfig::unbounded()).unwrap_err();
        assert!(matches!(err, MachineError::Deadlock { .. }), "{err}");
    }
}
