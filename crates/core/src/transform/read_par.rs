//! Read parallelization (§6.2).
//!
//! "Consider a sequence of load operations, each of which receives the
//! access from its predecessor and passes it directly to its successor.
//! The predecessor of the first load can safely replicate access and pass
//! it to every operation in the sequence. The replicas must be collected
//! and passed to the successor of the last operation. By parallelizing
//! maximal sequences of load operations, read parallelism is maximized."
//!
//! This is a pure graph rewrite: it finds maximal chains of loads linked
//! by access arcs and fans the incoming access token out to all of them,
//! collecting their completions in a synch tree.

use cf2df_dfg::build::synch_tree;
use cf2df_dfg::{ArcKind, Dfg, OpId, OpKind, Port};

/// The (access-in, access-out) port indices of a load, or `None` if the
/// operator is not an access-threaded load.
fn load_access_ports(kind: &OpKind) -> Option<(usize, usize)> {
    match kind {
        OpKind::Load { .. } => Some((0, 1)),
        OpKind::LoadIdx { .. } => Some((1, 1)),
        _ => None,
    }
}

/// Apply the rewrite; returns the number of chains parallelized.
///
/// Every chain is planned against the unedited graph (one arc index),
/// then rewritten in turn. A plan names the arcs it edits by their
/// endpoints, read before any edit, so an earlier chain's `disconnect`s
/// (which move arcs in the list) cannot redirect a later chain's edits.
pub fn parallelize_reads(g: &mut Dfg) -> usize {
    let index = g.arc_index();

    // next[load] = the load that receives our access token, when that
    // handoff is a simple one-to-one arc.
    let mut next: Vec<Option<OpId>> = vec![None; g.len()];
    let mut has_prev: Vec<bool> = vec![false; g.len()];
    for op in g.op_ids() {
        let Some((_, out_p)) = load_access_ports(g.kind(op)) else {
            continue;
        };
        let mut out_arcs = index.outs_on(g, Port::new(op, out_p));
        let (Some(ai), None) = (out_arcs.next(), out_arcs.next()) else {
            continue; // completion already fans out: leave it alone
        };
        let to = g.arcs()[ai].to;
        let Some((in_p, _)) = load_access_ports(g.kind(to.op)) else {
            continue;
        };
        if to.port as usize != in_p {
            continue; // feeds the value port of another load, not its access
        }
        next[op.index()] = Some(to.op);
        has_prev[to.op.index()] = true;
    }

    // Walk maximal chains from heads, and plan each: the source feeding
    // the head's access input, the link arcs between the loads, and the
    // tail's completion arcs.
    struct Plan {
        source: Port,
        /// (link arc's source, the load it feeds), head excluded.
        links: Vec<(Port, Port)>,
        tail_dests: Vec<Port>,
        completions: Vec<Port>,
    }
    let mut plans: Vec<Plan> = Vec::new();
    for op in g.op_ids() {
        if load_access_ports(g.kind(op)).is_none() {
            continue;
        }
        if has_prev[op.index()] {
            continue; // not a head
        }
        let mut chain = vec![op];
        let mut cur = op;
        while let Some(n) = next[cur.index()] {
            chain.push(n);
            cur = n;
        }
        if chain.len() < 2 {
            continue;
        }
        let ports = |ld: OpId| load_access_ports(g.kind(ld)).expect("load");
        let (head_in, _) = ports(op);
        let head_in_arcs = index.ins(op, head_in);
        assert_eq!(head_in_arcs.len(), 1, "access ports are single-fed");
        let completions: Vec<Port> = chain.iter().map(|&ld| Port::new(ld, ports(ld).1)).collect();
        let tail_out = *completions.last().expect("non-empty");
        plans.push(Plan {
            source: g.arcs()[head_in_arcs[0] as usize].from,
            links: chain
                .windows(2)
                .map(|w| {
                    (
                        Port::new(w[0], ports(w[0]).1),
                        Port::new(w[1], ports(w[1]).0),
                    )
                })
                .collect(),
            tail_dests: index
                .outs_on(g, tail_out)
                .map(|ai| g.arcs()[ai].to)
                .collect(),
            completions,
        });
    }

    // Rewire: source fans to every load; completions synch; tree output
    // feeds the old destinations.
    for plan in &plans {
        for &(prev, load) in &plan.links {
            let ok = g.disconnect(prev, load);
            debug_assert!(ok, "chain arc must exist");
            g.connect(plan.source, load, ArcKind::Access);
        }
        let tail_out = *plan.completions.last().expect("non-empty");
        for &d in &plan.tail_dests {
            let ok = g.disconnect(tail_out, d);
            debug_assert!(ok);
        }
        let tree = synch_tree(g, &plan.completions, ArcKind::Access).expect("≥2 loads");
        for &d in &plan.tail_dests {
            g.connect(tree, d, ArcKind::Access);
        }
    }
    plans.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::{MemLayout, VarId, VarTable};
    use cf2df_machine::{run, MachineConfig};

    /// start → load v0 → load v0 → load v0 → end (access chain), values
    /// discarded into a sum for determinism.
    fn chain_graph(n: usize) -> (Dfg, MemLayout) {
        let mut t = VarTable::new();
        t.scalar("x");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        let mut prev = Port::new(s, 0);
        for _ in 0..n {
            let ld = g.add(OpKind::Load { var: VarId(0) });
            g.connect(prev, Port::new(ld, 0), ArcKind::Access);
            prev = Port::new(ld, 1);
        }
        g.connect(prev, Port::new(e, 0), ArcKind::Access);
        (g, layout)
    }

    #[test]
    fn chain_is_flattened() {
        let (mut g, layout) = chain_graph(4);
        let before = run(&g, &layout, MachineConfig::unbounded().mem_latency(10)).unwrap();
        let n = parallelize_reads(&mut g);
        assert_eq!(n, 1);
        cf2df_dfg::validate(&g).unwrap();
        let after = run(&g, &layout, MachineConfig::unbounded().mem_latency(10)).unwrap();
        // 4 sequential loads at latency 10 ≈ 40+; parallel ≈ 10 + tree.
        assert!(
            after.stats.makespan < before.stats.makespan / 2,
            "sequential {} vs parallel {}",
            before.stats.makespan,
            after.stats.makespan
        );
        assert_eq!(after.memory, before.memory);
    }

    #[test]
    fn single_load_untouched() {
        let (mut g, _) = chain_graph(1);
        let ops_before = g.len();
        assert_eq!(parallelize_reads(&mut g), 0);
        assert_eq!(g.len(), ops_before);
    }

    #[test]
    fn store_breaks_the_chain() {
        // load → store → load: not parallelizable across the store.
        let mut t = VarTable::new();
        t.scalar("x");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        let l1 = g.add(OpKind::Load { var: VarId(0) });
        let st = g.add(OpKind::Store { var: VarId(0) });
        g.set_imm(st, 0, 9);
        let l2 = g.add(OpKind::Load { var: VarId(0) });
        g.connect(Port::new(s, 0), Port::new(l1, 0), ArcKind::Access);
        g.connect(Port::new(l1, 1), Port::new(st, 1), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(l2, 0), ArcKind::Access);
        g.connect(Port::new(l2, 1), Port::new(e, 0), ArcKind::Access);
        assert_eq!(parallelize_reads(&mut g), 0);
        let _ = layout;
    }

    #[test]
    fn mixed_load_kinds_chain() {
        let mut t = VarTable::new();
        t.scalar("x");
        let a = t.array("a", 4);
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        let l1 = g.add(OpKind::Load { var: VarId(0) });
        let l2 = g.add(OpKind::LoadIdx { var: a });
        g.set_imm(l2, 0, 2);
        g.connect(Port::new(s, 0), Port::new(l1, 0), ArcKind::Access);
        g.connect(Port::new(l1, 1), Port::new(l2, 1), ArcKind::Access);
        g.connect(Port::new(l2, 1), Port::new(e, 0), ArcKind::Access);
        assert_eq!(parallelize_reads(&mut g), 1);
        cf2df_dfg::validate(&g).unwrap();
        run(&g, &layout, MachineConfig::unbounded()).unwrap();
    }
}
