//! Macro-op fusion: collapse maximal linear chains of strict operators
//! into compound [`OpKind::Macro`] actors.
//!
//! The paper's fine-grain ETS cost model pays a rendezvous slot, a
//! token per arc, and a scheduler round-trip for every operator — even
//! along purely serial arithmetic chains where no parallelism exists to
//! buy. This pass coarsens the graph the way Labyrinth-style compilers
//! coarsen control flow into compound dataflow actors: a chain
//! `a → b → c` where each link is the producer's *only* consumer
//! becomes one `Macro` node carrying the straight-line micro-program
//! `[a; b; c]`. The macro fires once per tag with the union of the
//! chain's external live inputs and emits only the chain's final value:
//! every interior token, slot, and firing is elided.
//!
//! # Chain eligibility
//!
//! A chain member must be one of `Unary`, `Binary`, `Identity`, `Gate`,
//! or `Synch` — the *strict, single-output, tag-transparent* operators.
//! Everything else terminates a chain, by design:
//!
//! * `Switch`/`CaseSwitch`/`Merge` steer or join token streams — their
//!   per-arc firing discipline has no straight-line equivalent;
//! * `LoopEntry`/`LoopExit`/`PrevIter`/`IterIndex` create, strip, or
//!   read iteration tags, so fusing across them would change Schema 3
//!   tag allocation;
//! * memory operators (`Load`/`Store`/`*Idx`/`Ist*`) have side effects
//!   and split-phase latency the machine must schedule individually;
//! * `Start`/`End` are the machine's seed and halt points.
//!
//! A link `x → y` exists when `x`'s single output port has exactly one
//! outgoing arc, landing on an eligible `y`. The chain tail may fan out
//! freely — its consumers just read the macro's output port 0. Because
//! every fused operator is tag-transparent, all tokens consumed and
//! produced by one macro firing carry the *same* tag the unfused chain
//! would have used: rendezvous keys, loop tags, and Schema 1–3
//! semantics are untouched.
//!
//! Immediates on fused ports are baked into the micro-program as
//! [`MacroSrc::Imm`]; arc-fed external inputs become fresh macro input
//! ports. The rewrite is validated downstream both by `validate()` and
//! by the `certify` token-rate analysis, which treats a macro as an
//! ordinary strict operator.
//!
//! # Loop-entry/switch pairing
//!
//! Chains stop at tag boundaries, so the dominant *residual* traffic in
//! loop-heavy graphs is the per-variable circulation step
//! `loop-entry → switch`: every iteration of every circulating variable
//! pays a loop-entry firing, an intermediate token, and a switch
//! rendezvous. A second fusion rule collapses the pair into one
//! [`OpKind::LoopSwitch`] compound when the loop-entry's output feeds
//! *only* that switch's data port and the switch's predicate is a plain
//! arc: the compound retags the incoming token exactly as the
//! loop-entry would (so Schema 3 tag allocation is unchanged), joins
//! the predicate directly at the iteration tag, and steers in a single
//! firing. A loop-entry whose value is also read by the loop's
//! predicate or body fans out and is left alone.

use crate::graph::{Arc, Dfg, OpId, Port};
use crate::op::{MacroSrc, MacroStep, OpKind};

/// What the fusion pass did to a graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// Chains collapsed (= macro operators created).
    pub chains: usize,
    /// Loop-entry/switch pairs collapsed into `LoopSwitch` compounds.
    pub pairs: usize,
    /// Operators eliminated (interior chain members plus one eliminated
    /// switch per pair; this is the machine's `ops_elided` per firing,
    /// summed over compounds).
    pub ops_fused: usize,
}

/// Is `kind` allowed inside a fused chain?
fn eligible(kind: &OpKind) -> bool {
    matches!(
        kind,
        OpKind::Unary { .. }
            | OpKind::Binary { .. }
            | OpKind::Identity
            | OpKind::Gate
            | OpKind::Synch { .. }
    )
}

/// Where each arc of the unedited graph sits in the arc list now.
/// [`Dfg::disconnect`] removes by `swap_remove`, so removing an arc moves
/// the last one into its slot. Replaying that here keeps every planned
/// arc addressable by its original index in O(1) and leaves the list in
/// exactly the order endpoint-keyed `disconnect` calls would.
struct ArcSlots {
    /// Current position of each original arc (`u32::MAX` once removed).
    pos: Vec<u32>,
    /// Original index of the arc at each current position.
    at: Vec<u32>,
}

impl ArcSlots {
    fn new(arcs: usize) -> ArcSlots {
        let ids: Vec<u32> = (0..arcs as u32).collect();
        ArcSlots {
            pos: ids.clone(),
            at: ids,
        }
    }

    /// The current position of original arc `id`.
    fn pos(&self, id: u32) -> usize {
        debug_assert_ne!(self.pos[id as usize], u32::MAX, "arc {id} was removed");
        self.pos[id as usize] as usize
    }

    /// Remove original arc `id` from `g`, as `disconnect` would.
    fn remove(&mut self, g: &mut Dfg, id: u32) {
        let p = self.pos(id);
        g.remove_arc(p);
        let last = self.at.pop().expect("arc lists agree");
        if last != id {
            self.at[p] = last;
            self.pos[last as usize] = p as u32;
        }
        self.pos[id as usize] = u32::MAX;
    }
}

/// How many arcs of `g` satisfy `pred` (for debug assertions).
fn count_arcs(g: &Dfg, pred: impl Fn(&Arc) -> bool) -> usize {
    g.arcs().iter().filter(|a| pred(a)).count()
}

/// Fuse maximal linear chains of eligible operators into `Macro` nodes.
///
/// Returns the statistics and, for each old operator id, its new id in
/// the compacted graph (`None` for eliminated interior operators; a
/// chain head keeps its id slot and becomes the macro).
///
/// Every rewrite is planned against the unedited graph through one
/// [`ArcIndex`](crate::graph::ArcIndex) and then applied by arc id,
/// leaving the arc list exactly as the same edits keyed on endpoints
/// would (`Dfg::disconnect`'s `swap_remove` for removals, an arc's end
/// moved in place for retargets); the graph is compacted in place.
pub fn fuse(g: &mut Dfg) -> (FuseStats, Vec<Option<OpId>>) {
    let n = g.len();
    let index = g.arc_index();

    // The link function: next[x] = y when x's only consumer is an
    // eligible y (and x itself is eligible with a single out arc).
    let mut next: Vec<Option<OpId>> = vec![None; n];
    let mut has_pred_link = vec![false; n];
    for op in g.op_ids() {
        if !eligible(g.kind(op)) {
            continue;
        }
        // All eligible kinds have exactly one output port.
        let &[ai] = index.outs(op) else {
            continue;
        };
        let succ = g.arcs()[ai as usize].to.op;
        if succ != op && eligible(g.kind(succ)) {
            next[op.index()] = Some(succ);
            has_pred_link[succ.index()] = true;
        }
    }

    // Walk chains from their heads. `owner` (the head of the chain that
    // claimed an operator) keeps chains disjoint (two producers can each
    // have the same op as their single consumer, on different ports) and
    // doubles as the cycle guard.
    const FREE: u32 = u32::MAX;
    let mut owner = vec![FREE; n];
    let mut chains: Vec<Vec<OpId>> = Vec::new();
    for op in g.op_ids() {
        if next[op.index()].is_none() || has_pred_link[op.index()] || owner[op.index()] != FREE {
            continue;
        }
        let mut chain = vec![op];
        owner[op.index()] = op.0;
        let mut cur = op;
        while let Some(succ) = next[cur.index()] {
            if owner[succ.index()] != FREE {
                break;
            }
            owner[succ.index()] = op.0;
            chain.push(succ);
            cur = succ;
        }
        if chain.len() >= 2 {
            chains.push(chain);
        }
    }

    // Phase 1: plan every chain against the *pristine* graph — arc
    // indices name arcs of the unedited list.
    struct Plan<'i> {
        head: OpId,
        tail: OpId,
        /// Internal link arcs (both ends chain-private), with their ends.
        links: Vec<(u32, Port, Port)>,
        /// (external input arc, its old port, new macro input port).
        moves: Vec<(u32, Port, u16)>,
        /// The tail's fan-out, re-sourced to the macro's output.
        tail_outs: &'i [u32],
        kind: OpKind,
        fused: usize,
    }
    let mut plans: Vec<Plan> = Vec::new();
    'chains: for chain in &chains {
        let head = chain[0];
        let mut steps: Vec<MacroStep> = Vec::with_capacity(chain.len());
        let mut moves: Vec<(u32, Port, u16)> = Vec::new();
        let mut n_ext: u32 = 0;
        for (ci, &op) in chain.iter().enumerate() {
            let kind = g.kind(op).clone();
            let chain_port: Option<usize> = if ci == 0 {
                None
            } else {
                // The unique arc from the predecessor's output port 0.
                let link = index.outs(chain[ci - 1])[0];
                Some(g.arcs()[link as usize].to.port as usize)
            };
            let mut srcs: Vec<MacroSrc> = Vec::with_capacity(kind.n_inputs());
            for p in 0..kind.n_inputs() {
                if chain_port == Some(p) {
                    srcs.push(MacroSrc::Chain);
                } else if let Some(c) = g.imm(op, p) {
                    srcs.push(MacroSrc::Imm(c));
                } else {
                    // An arc-fed external input. A source inside the
                    // chain itself would mean a same-tag cycle (the
                    // unfused graph would deadlock identically, and
                    // certify rejects it) — skip such chains outright.
                    let &[feed] = index.ins(op, p) else {
                        continue 'chains;
                    };
                    if owner[g.arcs()[feed as usize].from.op.index()] == head.0 {
                        continue 'chains;
                    }
                    if n_ext > u16::MAX as u32 {
                        continue 'chains;
                    }
                    moves.push((feed, Port::new(op, p), n_ext as u16));
                    srcs.push(MacroSrc::In(n_ext as u16));
                    n_ext += 1;
                }
            }
            steps.push(match kind {
                OpKind::Unary { op } => MacroStep::Un(op, srcs[0]),
                OpKind::Binary { op } => MacroStep::Bin(op, srcs[0], srcs[1]),
                OpKind::Identity | OpKind::Gate => MacroStep::Fwd(srcs[0]),
                OpKind::Synch { .. } => MacroStep::Zero,
                _ => unreachable!("chain members are eligible"),
            });
        }
        // A macro with no arc-fed input would never fire.
        if n_ext == 0 {
            continue 'chains;
        }
        let links = chain
            .windows(2)
            .map(|w| {
                let id = index.outs(w[0])[0];
                let a = g.arcs()[id as usize];
                (id, a.from, a.to)
            })
            .collect();
        let tail = *chain.last().expect("chains are non-empty");
        plans.push(Plan {
            head,
            tail,
            links,
            moves,
            tail_outs: index.outs(tail),
            kind: OpKind::Macro {
                inputs: n_ext,
                steps,
            },
            fused: chain.len() - 1,
        });
    }

    // Loop-entry/switch pairs, planned against the same pristine graph.
    // Eligible when the entry's single output arc is the switch's data
    // port, the switch's data port has no other feeder, and the
    // predicate is a plain single arc (no immediate). Switches are never
    // chain members, so pairs and chains are automatically disjoint.
    struct Pair {
        le: OpId,
        sw: OpId,
        loop_id: cf2df_cfg::LoopId,
        /// The entry → switch-data arc.
        link: u32,
        /// The predicate arc into the switch.
        pred: u32,
    }
    let mut pairs: Vec<Pair> = Vec::new();
    for le in g.op_ids() {
        let OpKind::LoopEntry { loop_id } = *g.kind(le) else {
            continue;
        };
        let &[link] = index.outs(le) else {
            continue;
        };
        let to = g.arcs()[link as usize].to;
        let sw = to.op;
        if to.port != 0 || !matches!(g.kind(sw), OpKind::Switch) {
            continue;
        }
        if index.ins(sw, 0).len() != 1 {
            continue;
        }
        let &[pred] = index.ins(sw, 1) else {
            continue;
        };
        if g.imm(sw, 1).is_some() {
            continue;
        }
        pairs.push(Pair {
            le,
            sw,
            loop_id,
            link,
            pred,
        });
    }

    // Phase 2: rewrite, by arc id. Each step is keyed so chains cannot
    // interfere: internal link arcs are private to their chain (both
    // endpoints claimed) and are their source's only out arc; each
    // external input is its port's only feeder and no other edit moves
    // an arc into that port; the tail's fan-out is every arc leaving its
    // port 0, and no edit adds or removes one. Retargets change an arc
    // in place and removals replay `disconnect`'s `swap_remove`, so the
    // arc list ends up exactly as the endpoint-keyed edits would leave it.
    let mut slots = ArcSlots::new(g.arc_count());
    let mut stats = FuseStats::default();
    for plan in plans {
        for (id, from, to) in plan.links {
            debug_assert_eq!(
                count_arcs(g, |a| a.from == from && a.to == to),
                1,
                "chain link arc present once"
            );
            debug_assert_eq!(
                (g.arcs()[slots.pos(id)].from, g.arcs()[slots.pos(id)].to),
                (from, to)
            );
            slots.remove(g, id);
        }
        g.replace_kind(plan.head, plan.kind);
        for (id, old, q) in plan.moves {
            debug_assert_eq!(
                count_arcs(g, |a| a.to == old),
                1,
                "external input arc present once"
            );
            let arc = g.arc_mut(slots.pos(id));
            debug_assert_eq!(arc.to, old);
            arc.to = Port {
                op: plan.head,
                port: q,
            };
        }
        let (tail_port, head_port) = (Port::new(plan.tail, 0), Port::new(plan.head, 0));
        for &id in plan.tail_outs {
            let arc = g.arc_mut(slots.pos(id));
            debug_assert_eq!(arc.from, tail_port);
            arc.from = head_port;
        }
        debug_assert_eq!(
            count_arcs(g, |a| a.from == tail_port),
            0,
            "the tail's whole fan-out moved"
        );
        stats.chains += 1;
        stats.ops_fused += plan.fused;
    }

    // Pair rewrites commute with the chain rewrites above: chains edit
    // arc *destinations* of their own members and re-source their tail's
    // port 0 (never a loop-entry's or switch's), while pairs edit the
    // pred arc by its destination `(sw, 1)` and the switch's *output*
    // ports — no arc is keyed by both. The entry keeps its id slot and
    // becomes the compound; the switch is orphaned and compacted away.
    for Pair {
        le,
        sw,
        loop_id,
        link,
        pred,
    } in pairs
    {
        g.replace_kind(le, OpKind::LoopSwitch { loop_id });
        let (entry_out, sw_data) = (Port::new(le, 0), Port::new(sw, 0));
        debug_assert_eq!(
            count_arcs(g, |a| a.from == entry_out && a.to == sw_data),
            1,
            "entry→switch link arc present once"
        );
        debug_assert_eq!(g.arcs()[slots.pos(link)].to, sw_data);
        slots.remove(g, link);
        debug_assert_eq!(
            count_arcs(g, |a| a.to == Port::new(sw, 1)),
            1,
            "predicate arc present once"
        );
        let arc = g.arc_mut(slots.pos(pred));
        debug_assert_eq!(arc.to, Port::new(sw, 1));
        arc.to = Port::new(le, 2);
        // Both arms in one pass over the switch's arcs, each arc staying
        // on its own arm's port.
        for &id in index.outs(sw) {
            let arc = g.arc_mut(slots.pos(id));
            debug_assert_eq!(arc.from.op, sw);
            arc.from.op = le;
        }
        debug_assert_eq!(count_arcs(g, |a| a.from.op == sw), 0, "both arms moved");
        stats.pairs += 1;
        stats.ops_fused += 1;
    }

    if stats.chains == 0 && stats.pairs == 0 {
        return (stats, (0..n as u32).map(|i| Some(OpId(i))).collect());
    }
    // Interior chain members and fused switches are now isolated;
    // compact them away.
    let map = g.compact();
    (stats, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ArcKind;
    use cf2df_cfg::{BinOp, UnOp, VarId};

    fn connect(g: &mut Dfg, from: (OpId, usize), to: (OpId, usize)) {
        g.connect(
            Port::new(from.0, from.1),
            Port::new(to.0, to.1),
            ArcKind::Value,
        );
    }

    /// start → load → (+imm 1) → neg → (* in) → store → end, with the
    /// multiplier fed by a second load: the three-op arithmetic chain
    /// fuses into one macro with two external inputs.
    #[test]
    fn arithmetic_chain_fuses_into_one_macro() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld = g.add(OpKind::Load { var: VarId(0) });
        let ld2 = g.add(OpKind::Load { var: VarId(1) });
        let add = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(add, 1, 1);
        let neg = g.add(OpKind::Unary { op: UnOp::Neg });
        let mul = g.add(OpKind::Binary { op: BinOp::Mul });
        let st = g.add(OpKind::Store { var: VarId(0) });
        let e = g.add(OpKind::End { inputs: 1 });
        connect(&mut g, (s, 0), (ld, 0));
        connect(&mut g, (ld, 1), (ld2, 0));
        connect(&mut g, (ld, 0), (add, 0));
        connect(&mut g, (add, 0), (neg, 0));
        connect(&mut g, (neg, 0), (mul, 0));
        connect(&mut g, (ld2, 0), (mul, 1));
        connect(&mut g, (mul, 0), (st, 0));
        connect(&mut g, (ld2, 1), (st, 1));
        connect(&mut g, (st, 0), (e, 0));
        crate::validate::validate(&g).unwrap();

        let before = g.len();
        let (stats, map) = fuse(&mut g);
        assert_eq!(stats.chains, 1);
        assert_eq!(stats.ops_fused, 2);
        assert_eq!(g.len(), before - 2);
        crate::validate::validate(&g).unwrap();
        // The head slot holds the macro; interiors are gone.
        let m = map[add.index()].expect("head survives");
        let OpKind::Macro { inputs, steps } = g.kind(m) else {
            panic!("head not a macro: {:?}", g.kind(m));
        };
        assert_eq!(*inputs, 2);
        assert_eq!(
            steps.as_slice(),
            [
                MacroStep::Bin(BinOp::Add, MacroSrc::In(0), MacroSrc::Imm(1)),
                MacroStep::Un(UnOp::Neg, MacroSrc::Chain),
                MacroStep::Bin(BinOp::Mul, MacroSrc::Chain, MacroSrc::In(1)),
            ]
        );
        assert_eq!(map[neg.index()], None);
        assert_eq!(map[mul.index()], None);
        // Boundaries stayed put.
        assert!(matches!(g.kind(map[ld.index()].unwrap()), OpKind::Load { .. }));
        assert!(matches!(g.kind(map[st.index()].unwrap()), OpKind::Store { .. }));
    }

    /// A producer fanning out to two consumers is not a chain link.
    #[test]
    fn fanout_terminates_chains() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld = g.add(OpKind::Load { var: VarId(0) });
        let a = g.add(OpKind::Unary { op: UnOp::Neg });
        let b = g.add(OpKind::Unary { op: UnOp::Not });
        let c = g.add(OpKind::Binary { op: BinOp::Add });
        let e = g.add(OpKind::End { inputs: 2 });
        connect(&mut g, (s, 0), (ld, 0));
        connect(&mut g, (ld, 0), (a, 0));
        connect(&mut g, (a, 0), (b, 0)); // a fans out: not fusible
        connect(&mut g, (a, 0), (c, 0));
        connect(&mut g, (b, 0), (c, 1));
        connect(&mut g, (c, 0), (e, 0));
        connect(&mut g, (ld, 1), (e, 1));
        crate::validate::validate(&g).unwrap();
        let (stats, _) = fuse(&mut g);
        // b → c is the only link (c joins two producers, so only one of
        // its feeders can claim it; a fans out and claims nothing).
        assert_eq!(stats.chains, 1);
        assert_eq!(stats.ops_fused, 1);
        crate::validate::validate(&g).unwrap();
    }

    /// Switches, merges, loop operators, and memory ops never fuse.
    #[test]
    fn boundaries_are_respected() {
        use cf2df_cfg::LoopId;
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let sw = g.add(OpKind::Switch);
        g.set_imm(sw, 1, 1);
        let m = g.add(OpKind::Merge);
        let le = g.add(OpKind::LoopEntry { loop_id: LoopId(0) });
        let lx = g.add(OpKind::LoopExit { loop_id: LoopId(0) });
        let e = g.add(OpKind::End { inputs: 1 });
        connect(&mut g, (s, 0), (sw, 0));
        connect(&mut g, (sw, 0), (m, 0));
        connect(&mut g, (m, 0), (le, 0));
        connect(&mut g, (le, 0), (lx, 0));
        connect(&mut g, (lx, 0), (e, 0));
        let before = g.len();
        let (stats, _) = fuse(&mut g);
        assert_eq!(stats, FuseStats::default());
        assert_eq!(g.len(), before);
    }

    /// A two-variable loop: the counter's loop-entry feeds both the
    /// compare and its switch (fan-out → left alone), while the
    /// accumulator's loop-entry feeds only its switch — that pair fuses
    /// into one `LoopSwitch` compound steering by the shared predicate.
    #[test]
    fn loop_entry_switch_pair_fuses() {
        use cf2df_cfg::LoopId;
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld_i = g.add(OpKind::Load { var: VarId(0) });
        let ld_x = g.add(OpKind::Load { var: VarId(1) });
        let le_i = g.add(OpKind::LoopEntry { loop_id: LoopId(0) });
        let le_x = g.add(OpKind::LoopEntry { loop_id: LoopId(0) });
        let cmp = g.add(OpKind::Binary { op: BinOp::Lt });
        g.set_imm(cmp, 1, 10);
        let sw_i = g.add(OpKind::Switch);
        let sw_x = g.add(OpKind::Switch);
        let inc = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(inc, 1, 1);
        let dbl = g.add(OpKind::Binary { op: BinOp::Add });
        let lx_i = g.add(OpKind::LoopExit { loop_id: LoopId(0) });
        let lx_x = g.add(OpKind::LoopExit { loop_id: LoopId(0) });
        let e = g.add(OpKind::End { inputs: 2 });
        connect(&mut g, (s, 0), (ld_i, 0));
        connect(&mut g, (ld_i, 1), (ld_x, 0));
        connect(&mut g, (ld_i, 0), (le_i, 0));
        connect(&mut g, (ld_x, 0), (le_x, 0));
        connect(&mut g, (le_i, 0), (cmp, 0));
        connect(&mut g, (le_i, 0), (sw_i, 0));
        connect(&mut g, (le_x, 0), (sw_x, 0));
        connect(&mut g, (cmp, 0), (sw_i, 1));
        connect(&mut g, (cmp, 0), (sw_x, 1));
        connect(&mut g, (sw_i, 0), (inc, 0));
        connect(&mut g, (sw_x, 0), (dbl, 0));
        connect(&mut g, (sw_x, 0), (dbl, 1));
        connect(&mut g, (inc, 0), (le_i, 1));
        connect(&mut g, (dbl, 0), (le_x, 1));
        connect(&mut g, (sw_i, 1), (lx_i, 0));
        connect(&mut g, (sw_x, 1), (lx_x, 0));
        connect(&mut g, (lx_i, 0), (e, 0));
        connect(&mut g, (lx_x, 0), (e, 1));
        crate::validate::validate(&g).unwrap();

        let before = g.len();
        let (stats, map) = fuse(&mut g);
        assert_eq!(stats.pairs, 1);
        assert_eq!(stats.chains, 0);
        assert_eq!(stats.ops_fused, 1);
        assert_eq!(g.len(), before - 1, "the fused switch is compacted away");
        crate::validate::validate(&g).unwrap();
        // The entry slot holds the compound; the fused switch is gone,
        // the fanned-out pair is untouched.
        let c = map[le_x.index()].expect("entry survives as the compound");
        assert!(matches!(g.kind(c), OpKind::LoopSwitch { loop_id: LoopId(0) }));
        assert_eq!(map[sw_x.index()], None);
        assert!(matches!(g.kind(map[le_i.index()].unwrap()), OpKind::LoopEntry { .. }));
        assert!(matches!(g.kind(map[sw_i.index()].unwrap()), OpKind::Switch));
        // Compound wiring: continue-arm to the body, exit-arm to the
        // loop exit, predicate into port 2, backedge intact on port 1.
        let arcs = g.arcs();
        let dbl2 = map[dbl.index()].unwrap();
        let lx2 = map[lx_x.index()].unwrap();
        let cmp2 = map[cmp.index()].unwrap();
        assert!(arcs.iter().any(|a| a.from == Port::new(c, 0) && a.to.op == dbl2));
        assert!(arcs.iter().any(|a| a.from == Port::new(c, 1) && a.to == Port::new(lx2, 0)));
        assert!(arcs.iter().any(|a| a.from.op == cmp2 && a.to == Port::new(c, 2)));
        assert!(arcs.iter().any(|a| a.from.op == dbl2 && a.to == Port::new(c, 1)));
    }

    /// A loop-entry whose predicate arrives as an immediate on the
    /// switch, or whose switch data port is fed twice, stays unfused.
    #[test]
    fn pairing_requires_plain_predicate_and_sole_feeder() {
        use cf2df_cfg::LoopId;
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld = g.add(OpKind::Load { var: VarId(0) });
        let le = g.add(OpKind::LoopEntry { loop_id: LoopId(0) });
        let sw = g.add(OpKind::Switch);
        g.set_imm(sw, 1, 0); // immediate predicate: exit at once
        let lx = g.add(OpKind::LoopExit { loop_id: LoopId(0) });
        let e = g.add(OpKind::End { inputs: 1 });
        connect(&mut g, (s, 0), (ld, 0));
        connect(&mut g, (ld, 0), (le, 0));
        connect(&mut g, (le, 0), (sw, 0));
        connect(&mut g, (sw, 0), (le, 1));
        connect(&mut g, (sw, 1), (lx, 0));
        connect(&mut g, (lx, 0), (e, 0));
        crate::validate::validate(&g).unwrap();
        let (stats, _) = fuse(&mut g);
        assert_eq!(stats.pairs, 0, "immediate predicates disqualify the pair");
    }

    /// Two chains sharing a would-be member stay disjoint; the loser's
    /// chain simply ends earlier and still computes the same value.
    #[test]
    fn competing_chains_stay_disjoint() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld = g.add(OpKind::Load { var: VarId(0) });
        let a1 = g.add(OpKind::Unary { op: UnOp::Neg });
        let a2 = g.add(OpKind::Unary { op: UnOp::Not });
        let b1 = g.add(OpKind::Unary { op: UnOp::Neg });
        let b2 = g.add(OpKind::Unary { op: UnOp::Not });
        let join = g.add(OpKind::Binary { op: BinOp::Add });
        let e = g.add(OpKind::End { inputs: 2 });
        connect(&mut g, (s, 0), (ld, 0));
        connect(&mut g, (ld, 0), (a1, 0));
        connect(&mut g, (a1, 0), (a2, 0));
        connect(&mut g, (a2, 0), (join, 0));
        connect(&mut g, (ld, 0), (b1, 0));
        connect(&mut g, (b1, 0), (b2, 0));
        connect(&mut g, (b2, 0), (join, 1));
        connect(&mut g, (join, 0), (e, 0));
        connect(&mut g, (ld, 1), (e, 1));
        crate::validate::validate(&g).unwrap();
        let (stats, _) = fuse(&mut g);
        // One arm's chain reaches through the join; the other stops
        // before it. Either way both chains fuse and stay disjoint.
        assert_eq!(stats.chains, 2);
        assert_eq!(stats.ops_fused, 3);
        crate::validate::validate(&g).unwrap();
    }
}
