//! Conventional compiler optimizations *on the dataflow graph* — common
//! subexpression elimination and dead code elimination.
//!
//! The paper's abstract claims "dataflow graphs can serve as an executable
//! intermediate representation in parallelizing compilers"; its conclusion
//! adds that the Typhoon project would show usefulness "for conventional
//! optimizations and for parallelization". These two passes substantiate
//! the claim: both are ordinary value-numbering/liveness ideas, and both
//! are *sound by construction* on the dataflow IR because arcs are exactly
//! the dependences — no separate alias or control analysis is needed.

use cf2df_dfg::{ArcIndex, ArcKind, Dfg, OpId, OpKind, Port};

/// Is the operator a pure value function of its inputs (same inputs ⇒ same
/// output, no effects, exactly one output port, not merge-like)?
fn is_pure_value_op(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Unary { .. } | OpKind::Binary { .. } | OpKind::Identity
    )
}

/// Append the value-numbering key of pure operator `op` to `key`: its
/// kind and operator, then per input port its immediate (if any) and
/// its sources, counted and sorted. Every part is length-prefixed or
/// fixed-width, so two operators get equal keys exactly when their
/// kinds, immediates and per-port source sets are equal.
fn push_key(key: &mut Vec<u64>, g: &Dfg, index: &ArcIndex, op: OpId) {
    key.push(match *g.kind(op) {
        OpKind::Unary { op } => (1 << 8) | op as u64,
        OpKind::Binary { op } => (2 << 8) | op as u64,
        OpKind::Identity => 3 << 8,
        _ => unreachable!("only pure value operators are numbered"),
    });
    for (p, imm) in g.imms(op).iter().enumerate() {
        match *imm {
            Some(c) => key.extend([1, c as u64]),
            None => key.push(0),
        }
        let arcs = index.ins(op, p);
        key.push(arcs.len() as u64);
        let first = key.len();
        key.extend(arcs.iter().map(|&ai| {
            let from = g.arcs()[ai as usize].from;
            (u64::from(from.op.0) << 16) | u64::from(from.port)
        }));
        key[first..].sort_unstable();
    }
}

/// The arcs into every input port of `op`, as (source, destination)
/// endpoint pairs in port then arc order.
fn in_arcs_of(g: &Dfg, index: &ArcIndex, op: OpId) -> Vec<(Port, Port)> {
    (0..g.kind(op).n_inputs())
        .flat_map(|p| {
            index
                .ins(op, p)
                .iter()
                .map(move |&ai| (g.arcs()[ai as usize].from, Port::new(op, p)))
        })
        .collect()
}

/// Common subexpression elimination: two pure operators with identical
/// kinds, immediates, and input sources compute identical values under
/// every tag, so one can serve all consumers. Runs to fixpoint; returns
/// the number of operators eliminated (the graph is compacted, id map
/// returned).
///
/// Each round indexes the graph once and merges the lowest-numbered
/// operator whose key an earlier operator already has into that earlier
/// one, then starts over on the edited graph.
pub fn eliminate_common_subexpressions(g: &mut Dfg) -> (usize, Vec<Option<OpId>>) {
    let mut eliminated = 0;
    // Reused across rounds: every numbered operator's key, end to end,
    // and per operator its (start, end, id).
    let mut keys: Vec<u64> = Vec::new();
    let mut spans: Vec<(u32, u32, OpId)> = Vec::new();
    loop {
        let index = g.arc_index();
        keys.clear();
        spans.clear();
        for op in g.op_ids() {
            // Skip fully-detached operators (left behind by earlier merges
            // until compaction): "merging" two of them would loop forever.
            if is_pure_value_op(g.kind(op)) && index.in_degree(op) > 0 {
                let start = keys.len() as u32;
                push_key(&mut keys, g, &index, op);
                spans.push((start, keys.len() as u32, op));
            }
        }
        // Equal keys end up adjacent, each run in id order. Scanning the
        // operators in id order, the first repeat is the run whose second
        // member has the lowest id; the run's first member is kept.
        let key = |&(s, e, _): &(u32, u32, OpId)| &keys[s as usize..e as usize];
        spans.sort_unstable_by(|a, b| key(a).cmp(key(b)).then(a.2.cmp(&b.2)));
        let victim = spans
            .windows(2)
            .filter(|w| key(&w[0]) == key(&w[1]))
            .map(|w| (w[0].2, w[1].2))
            .min_by_key(|&(_, dup)| dup);
        let Some((keep, dup)) = victim else { break };
        // Read every arc to edit before the first edit moves any: rewire
        // the duplicate's consumers to the kept op, then detach it.
        let dests: Vec<(Port, ArcKind)> = index
            .outs(dup)
            .iter()
            .map(|&ai| (g.arcs()[ai as usize].to, g.arcs()[ai as usize].kind))
            .collect();
        let in_arcs = in_arcs_of(g, &index, dup);
        for (d, kind) in dests {
            g.disconnect(Port::new(dup, 0), d);
            g.connect(Port::new(keep, 0), d, kind);
        }
        for (src, to) in in_arcs {
            g.disconnect(src, to);
        }
        eliminated += 1;
    }
    if eliminated > 0 {
        (eliminated, g.compact())
    } else {
        (0, g.op_ids().map(Some).collect())
    }
}

/// Dead code elimination: pure operators (and switches) none of whose
/// outputs reach a consumer can never influence memory or termination —
/// remove them and the arcs feeding them, iterating as removals expose
/// more dead operators. Returns the count removed and the id map.
pub fn eliminate_dead_code(g: &mut Dfg) -> (usize, Vec<Option<OpId>>) {
    let mut removed = 0;
    loop {
        let index = g.arc_index();
        // An op with no inputs connected is already detached; skip it
        // (compaction drops it).
        let victim = g.op_ids().find(|&op| {
            let kind = g.kind(op);
            (is_pure_value_op(kind) || matches!(kind, OpKind::Switch))
                && index.outs(op).is_empty()
                && index.in_degree(op) > 0
        });
        let Some(op) = victim else { break };
        for (src, to) in in_arcs_of(g, &index, op) {
            g.disconnect(src, to);
        }
        removed += 1;
    }
    if removed > 0 {
        (removed, g.compact())
    } else {
        (0, g.op_ids().map(Some).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::{BinOp, MemLayout, UnOp, VarId, VarTable};
    use cf2df_machine::{run, MachineConfig};

    /// x loaded once, (x+1) computed twice feeding two stores.
    fn duplicated_graph() -> (Dfg, MemLayout) {
        let mut t = VarTable::new();
        t.scalar("x");
        t.scalar("y");
        t.scalar("z");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld = g.add(OpKind::Load { var: VarId(0) });
        let add1 = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(add1, 1, 1);
        let add2 = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(add2, 1, 1);
        let st_y = g.add(OpKind::Store { var: VarId(1) });
        let st_z = g.add(OpKind::Store { var: VarId(2) });
        let e = g.add(OpKind::End { inputs: 2 });
        g.connect(Port::new(s, 0), Port::new(ld, 0), ArcKind::Access);
        g.connect(Port::new(ld, 0), Port::new(add1, 0), ArcKind::Value);
        g.connect(Port::new(ld, 0), Port::new(add2, 0), ArcKind::Value);
        g.connect(Port::new(add1, 0), Port::new(st_y, 0), ArcKind::Value);
        g.connect(Port::new(add2, 0), Port::new(st_z, 0), ArcKind::Value);
        g.connect(Port::new(ld, 1), Port::new(st_y, 1), ArcKind::Access);
        g.connect(Port::new(st_y, 0), Port::new(st_z, 1), ArcKind::Access);
        g.connect(Port::new(st_z, 0), Port::new(e, 0), ArcKind::Access);
        g.connect(Port::new(s, 0), Port::new(e, 1), ArcKind::Access);
        (g, layout)
    }

    #[test]
    fn cse_merges_identical_adds() {
        let (mut g, layout) = duplicated_graph();
        let before = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let (n, _) = eliminate_common_subexpressions(&mut g);
        assert_eq!(n, 1);
        cf2df_dfg::validate(&g).unwrap();
        let adds = g
            .op_ids()
            .filter(|&o| matches!(g.kind(o), OpKind::Binary { .. }))
            .count();
        assert_eq!(adds, 1);
        let after = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(after.memory, before.memory);
        assert_eq!(after.stats.fired, before.stats.fired - 1);
    }

    /// The duplicate's input arc is the last arc, so rewiring its consumer
    /// (`disconnect` swap-removes, `connect` appends) moves that arc. Its
    /// inputs must be read before the rewiring, or the detach misses and
    /// a later round counts the same operator again.
    #[test]
    fn cse_counts_a_duplicate_whose_input_arc_is_last_once() {
        let mut t = VarTable::new();
        t.scalar("x");
        t.scalar("y");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld = g.add(OpKind::Load { var: VarId(0) });
        let neg1 = g.add(OpKind::Unary { op: UnOp::Neg });
        let neg2 = g.add(OpKind::Unary { op: UnOp::Neg });
        let add = g.add(OpKind::Binary { op: BinOp::Add });
        let st = g.add(OpKind::Store { var: VarId(1) });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(ld, 0), ArcKind::Access);
        g.connect(Port::new(ld, 0), Port::new(neg1, 0), ArcKind::Value);
        g.connect(Port::new(neg1, 0), Port::new(add, 0), ArcKind::Value);
        g.connect(Port::new(neg2, 0), Port::new(add, 1), ArcKind::Value);
        g.connect(Port::new(add, 0), Port::new(st, 0), ArcKind::Value);
        g.connect(Port::new(ld, 1), Port::new(st, 1), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);
        g.connect(Port::new(ld, 0), Port::new(neg2, 0), ArcKind::Value);
        cf2df_dfg::validate(&g).unwrap();
        let before = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let (n, map) = eliminate_common_subexpressions(&mut g);
        assert_eq!(n, 1, "one operator eliminated, counted once");
        assert_eq!(g.len(), 6);
        assert_eq!(map[neg2.index()], None);
        cf2df_dfg::validate(&g).unwrap();
        let after = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(after.memory, before.memory);
    }

    #[test]
    fn cse_respects_different_immediates() {
        let (mut g, _) = duplicated_graph();
        // Change one immediate: no longer a common subexpression.
        let add2 = g
            .op_ids()
            .filter(|&o| matches!(g.kind(o), OpKind::Binary { .. }))
            .nth(1)
            .unwrap();
        g.set_imm(add2, 1, 2);
        let (n, _) = eliminate_common_subexpressions(&mut g);
        assert_eq!(n, 0);
    }

    #[test]
    fn dce_removes_unused_chain() {
        let (mut g, layout) = duplicated_graph();
        // Orphan one add: its store's value consumer goes away → first make
        // the add dead by detaching its consumer store's value input and
        // feeding the store an immediate instead.
        let add2 = g
            .op_ids()
            .filter(|&o| matches!(g.kind(o), OpKind::Binary { .. }))
            .nth(1)
            .unwrap();
        let st_z = g
            .op_ids()
            .filter(|&o| matches!(g.kind(o), OpKind::Store { .. }))
            .nth(1)
            .unwrap();
        g.disconnect(Port::new(add2, 0), Port::new(st_z, 0));
        g.set_imm(st_z, 0, 99);
        let before = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let (n, _) = eliminate_dead_code(&mut g);
        assert_eq!(n, 1, "the dangling add disappears");
        cf2df_dfg::validate(&g).unwrap();
        let after = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(after.memory, before.memory);
    }

    #[test]
    fn passes_are_idempotent_on_clean_graphs() {
        for (_, src) in cf2df_lang::corpus::all() {
            let parsed = cf2df_lang::parse_to_cfg(src).unwrap();
            let t = crate::pipeline::translate(
                &parsed.cfg,
                &parsed.alias,
                &crate::pipeline::TranslateOptions::schema3(
                    cf2df_cfg::CoverStrategy::Singletons,
                )
                    .with_memory_elimination(true),
            )
            .unwrap();
            let mut g = t.dfg.clone();
            let (c, _) = eliminate_common_subexpressions(&mut g);
            let (d, _) = eliminate_dead_code(&mut g);
            cf2df_dfg::validate(&g).unwrap();
            let mut g2 = g.clone();
            let (c2, _) = eliminate_common_subexpressions(&mut g2);
            let (d2, _) = eliminate_dead_code(&mut g2);
            assert_eq!((c2, d2), (0, 0), "second run must be a no-op");
            let _ = (c, d);
        }
    }

    #[test]
    fn cse_preserves_semantics_across_corpus() {
        let mc = MachineConfig::unbounded();
        for (name, src) in cf2df_lang::corpus::all() {
            let parsed = cf2df_lang::parse_to_cfg(src).unwrap();
            let layout = MemLayout::distinct(&parsed.cfg.vars);
            let t = crate::pipeline::translate(
                &parsed.cfg,
                &parsed.alias,
                &crate::pipeline::TranslateOptions::schema3(
                    cf2df_cfg::CoverStrategy::Singletons,
                )
                    .with_memory_elimination(true),
            )
            .unwrap();
            let before = run(&t.dfg, &layout, mc.clone()).unwrap();
            let mut g = t.dfg.clone();
            eliminate_common_subexpressions(&mut g);
            eliminate_dead_code(&mut g);
            let after = run(&g, &layout, mc.clone()).unwrap();
            assert_eq!(after.memory, before.memory, "{name}");
        }
    }
}
