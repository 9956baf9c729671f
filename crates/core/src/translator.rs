//! The *full* translation: every token line flows through every node, as
//! in Schemas 1–3 (Figs 3–8, 12–13). Schema 1 is the single-line
//! instance, Schema 2 the per-variable instance, Schema 3 the general
//! cover instance.
//!
//! The input CFG should already contain loop-control statements (§3);
//! passing a cyclic CFG *without* them reproduces the broken graph of
//! Fig 8 — the translator wires backedges straight into the header merges,
//! and the machine then reports the token collisions the paper predicts.

use crate::lines::{LineId, LineMode, Lines};
use crate::stmt_tr::{translate_fork, StmtCtx};
use cf2df_cfg::intervals::Irreducible;
use cf2df_cfg::{FunctionContext, NodeId, Stmt};
use cf2df_dfg::build::merge as merge_build;
use cf2df_dfg::{ArcKind, Dfg, OpId, OpKind, Port};
use std::collections::HashMap;

/// Operator bookkeeping produced alongside the graph, used by the §6
/// rewrites and by tests.
#[derive(Clone, Debug, Default)]
pub struct LineOps {
    /// Loop-entry op per (CFG loop-entry node, line).
    pub loop_entries: HashMap<(NodeId, LineId), OpId>,
    /// Loop-exit op per (CFG loop-exit node, line).
    pub loop_exits: HashMap<(NodeId, LineId), OpId>,
    /// Switch op per (fork node, line).
    pub switches: HashMap<(NodeId, LineId), OpId>,
    /// Memory ops created per CFG node, in creation order.
    pub node_ops: HashMap<NodeId, (OpId, OpId)>,
}

impl LineOps {
    /// Remap operator ids after a graph compaction, in place; entries
    /// whose operators were removed are dropped.
    pub fn remap(&mut self, map: &[Option<OpId>]) {
        let new_id = |op: &mut OpId| match map.get(op.index()) {
            Some(&Some(new)) => {
                *op = new;
                true
            }
            _ => false,
        };
        for m in [
            &mut self.loop_entries,
            &mut self.loop_exits,
            &mut self.switches,
        ] {
            m.retain(|_, op| new_id(op));
        }
        self.node_ops.retain(|_, (a, b)| new_id(a) && new_id(b));
    }
}

/// A translated graph plus its bookkeeping.
#[derive(Clone, Debug, Default)]
pub struct Built {
    /// The dataflow graph.
    pub dfg: Dfg,
    /// Operator bookkeeping.
    pub ops: LineOps,
}

fn arc_kind(lines: &Lines, l: LineId) -> ArcKind {
    match lines.mode(l) {
        LineMode::Access => ArcKind::Access,
        LineMode::Value(_) => ArcKind::Value,
    }
}

/// Translate with full token circulation, drawing the loop forest, the
/// topological order and the predecessor lists from `fctx`'s cache.
///
/// An irreducible CFG is a diagnosable input error, not a programming
/// error, so it surfaces as `Err` rather than a panic.
pub fn translate_full(fctx: &mut FunctionContext, lines: &Lines) -> Result<Built, Irreducible> {
    let forest = fctx.loop_forest()?;
    let order = fctx.topo_order()?;
    let preds = fctx.preds();
    let cfg = fctx.cfg();
    let n_lines = lines.n();

    let mut g = Dfg::new();
    let start_op = g.add(OpKind::Start);
    // End collects one token per line (plus one control token when there
    // are no lines at all).
    let end_op = g.add(OpKind::End {
        inputs: n_lines.max(1) as u32,
    });

    let mut ops = LineOps::default();
    // Pre-create per-line input operators for nodes that receive backedges
    // or multiple predecessors: loop entries and (multi-pred) joins/end.
    let is_backedge_into: Vec<bool> = {
        let mut v = vec![false; cfg.len()];
        for (lid, info) in forest.iter() {
            let _ = lid;
            for &(src, idx) in &info.backedges {
                let tgt = cfg.succs(src)[idx];
                v[tgt.index()] = true;
            }
        }
        v
    };
    // Per (node, line): the input port predecessors should feed.
    let mut node_in: HashMap<(NodeId, LineId), Port> = HashMap::new();
    for n in cfg.node_ids() {
        match cfg.stmt(n) {
            Stmt::LoopEntry { loop_id } => {
                for l in lines.ids() {
                    let le = g.add_labeled(
                        OpKind::LoopEntry { loop_id: *loop_id },
                        format!("{} @{n:?}", lines.name(l)),
                    );
                    ops.loop_entries.insert((n, l), le);
                    node_in.insert((n, l), Port::new(le, 0));
                }
            }
            Stmt::Join if preds[n.index()].len() > 1 || is_backedge_into[n.index()] => {
                for l in lines.ids() {
                    let m = g.add_labeled(OpKind::Merge, format!("{} @{n:?}", lines.name(l)));
                    node_in.insert((n, l), Port::new(m, 0));
                }
            }
            _ => {}
        }
    }

    // Source port of each (edge, line) as nodes are processed.
    let mut edge_src: HashMap<(NodeId, usize, LineId), Port> = HashMap::new();

    for &n in order.iter() {
        // Gather inputs for this node.
        let mut cur: Vec<Option<Port>> = vec![None; n_lines];
        if n != cfg.start() && !matches!(cfg.stmt(n), Stmt::End) {
            for l in lines.ids() {
                if let Some(&inp) = node_in.get(&(n, l)) {
                    // Pre-created merge-like input: connect all forward preds.
                    for &(p, i) in &preds[n.index()] {
                        if let Some(&src) = edge_src.get(&(p, i, l)) {
                            g.connect(src, inp, arc_kind(lines, l));
                        }
                    }
                    cur[l.index()] = Some(Port::new(inp.op, 0));
                } else {
                    // Plain single-predecessor input.
                    let mut srcs = preds[n.index()]
                        .iter()
                        .filter_map(|&(p, i)| edge_src.get(&(p, i, l)).copied());
                    cur[l.index()] = srcs.next();
                    debug_assert!(
                        srcs.next().is_none(),
                        "multi-pred node {n:?} without a pre-created merge"
                    );
                }
            }
        }

        match cfg.stmt(n) {
            Stmt::Start => {
                // All lines originate at the Start operator; the
                // conventional start→end edge carries nothing.
                for l in lines.ids() {
                    edge_src.insert((n, 0, l), Port::new(start_op, 0));
                }
            }
            Stmt::End => {
                for (i, l) in lines.ids().enumerate() {
                    // end may have several CFG predecessors (`goto end`):
                    // merge each line's sources.
                    let srcs: Vec<Port> = preds[n.index()]
                        .iter()
                        .filter_map(|&(p, pi)| edge_src.get(&(p, pi, l)).copied())
                        .collect();
                    let mut src =
                        merge_build(&mut g, &srcs, arc_kind(lines, l)).expect("line reaches end");
                    if let LineMode::Value(v) = lines.mode(l) {
                        // Write the final value back so the memory snapshot
                        // matches the sequential semantics.
                        let st = g.add_labeled(
                            OpKind::Store { var: v },
                            format!("writeback {}", lines.name(l)),
                        );
                        g.connect(src, Port::new(st, 0), ArcKind::Value);
                        g.connect(src, Port::new(st, 1), ArcKind::Value);
                        src = Port::new(st, 0);
                    }
                    g.connect(src, Port::new(end_op, i), ArcKind::Access);
                }
                if n_lines == 0 {
                    // Degenerate program with no variables: a single
                    // control token start→end.
                    g.connect(
                        Port::new(start_op, 0),
                        Port::new(end_op, 0),
                        ArcKind::Access,
                    );
                }
            }
            Stmt::Join => {
                for l in lines.ids() {
                    edge_src.insert((n, 0, l), cur[l.index()].expect("join input"));
                }
            }
            Stmt::Assign { lhs, rhs } => {
                {
                    let mut ctx = StmtCtx::new(&mut g, lines, &mut cur);
                    ctx.assign(lhs, rhs);
                }
                for l in lines.ids() {
                    edge_src.insert((n, 0, l), cur[l.index()].expect("assign output"));
                }
            }
            Stmt::Branch { pred: sel } | Stmt::Case { selector: sel } => {
                let all: Vec<LineId> = lines.ids().collect();
                let n_dirs = cfg.succs(n).len();
                let outs = translate_fork(&mut g, lines, &mut cur, sel, n_dirs, &all);
                for (l, sw) in outs {
                    ops.switches.insert((n, l), sw);
                    for i in 0..n_dirs {
                        edge_src.insert((n, i, l), Port::new(sw, i));
                    }
                }
            }
            Stmt::LoopEntry { .. } => {
                for l in lines.ids() {
                    let le = ops.loop_entries[&(n, l)];
                    edge_src.insert((n, 0, l), Port::new(le, 0));
                }
            }
            Stmt::LoopExit { loop_id } => {
                for l in lines.ids() {
                    let lx = g.add_labeled(
                        OpKind::LoopExit { loop_id: *loop_id },
                        format!("{} @{n:?}", lines.name(l)),
                    );
                    ops.loop_exits.insert((n, l), lx);
                    let src = cur[l.index()].expect("loop exit input");
                    g.connect(src, Port::new(lx, 0), arc_kind(lines, l));
                    edge_src.insert((n, 0, l), Port::new(lx, 0));
                }
            }
        }
    }

    // Wire backedges: their targets are loop entries (port 1), or — when
    // translating a cyclic CFG without loop control, the paper's negative
    // example — plain header merges (port 0).
    for (_, info) in forest.iter() {
        for &(src_node, idx) in &info.backedges {
            let tgt = cfg.succs(src_node)[idx];
            for l in lines.ids() {
                let src = edge_src[&(src_node, idx, l)];
                match cfg.stmt(tgt) {
                    Stmt::LoopEntry { .. } => {
                        let le = ops.loop_entries[&(tgt, l)];
                        g.connect(src, Port::new(le, 1), arc_kind(lines, l));
                    }
                    _ => {
                        let inp = node_in[&(tgt, l)];
                        g.connect(src, inp, arc_kind(lines, l));
                    }
                }
            }
        }
    }

    Ok(Built { dfg: g, ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::{AliasStructure, Cfg, Cover, CoverStrategy};
    use cf2df_lang::parse_to_cfg;

    fn lines_for(cfg: &Cfg, alias: &AliasStructure, strat: CoverStrategy) -> Lines {
        let cover = Cover::build(&strat, alias);
        Lines::new(&cfg.vars, alias, &cover, false)
    }

    /// The full translation of `cfg` through a fresh context.
    fn full(cfg: &Cfg, lines: &Lines) -> Built {
        translate_full(&mut FunctionContext::for_cfg(cfg.clone()), lines).unwrap()
    }

    #[test]
    fn straight_line_schema2_validates() {
        let parsed = parse_to_cfg("x := 1; y := x + 2;").unwrap();
        let lines = lines_for(&parsed.cfg, &parsed.alias, CoverStrategy::Singletons);
        let built = full(&parsed.cfg, &lines);
        cf2df_dfg::validate(&built.dfg).unwrap_or_else(|e| panic!("{e:?}\n{}", built.dfg.pretty()));
    }

    #[test]
    fn running_example_needs_loop_control() {
        // Without loop control: translating the raw cyclic CFG must still
        // produce a structurally valid graph (semantically broken — the
        // machine detects that separately).
        let parsed = parse_to_cfg(cf2df_lang::corpus::RUNNING_EXAMPLE).unwrap();
        let lines = lines_for(&parsed.cfg, &parsed.alias, CoverStrategy::Singletons);
        let built = full(&parsed.cfg, &lines);
        cf2df_dfg::validate(&built.dfg).unwrap_or_else(|e| panic!("{e:?}\n{}", built.dfg.pretty()));
        // With loop control: loop entry/exit operators appear per line.
        let mut fctx = FunctionContext::for_cfg(parsed.cfg.clone());
        cf2df_cfg::loop_control::insert_loop_control(&mut fctx).unwrap();
        let built2 = translate_full(&mut fctx, &lines).unwrap();
        cf2df_dfg::validate(&built2.dfg).unwrap();
        let stats = cf2df_dfg::DfgStats::of(&built2.dfg);
        // 2 lines × (1 entry + 1 exit) = 4 loop-control ops.
        assert_eq!(stats.loop_control, 4);
    }

    #[test]
    fn schema2_switches_every_line_at_every_fork() {
        let parsed = parse_to_cfg(cf2df_lang::corpus::FIG9).unwrap();
        let lines = lines_for(&parsed.cfg, &parsed.alias, CoverStrategy::Singletons);
        let built = full(&parsed.cfg, &lines);
        let stats = cf2df_dfg::DfgStats::of(&built.dfg);
        // Fig 9 has 4 variables (x, w, y, z) and one fork: 4 switches.
        assert_eq!(stats.switches, 4);
        cf2df_dfg::validate(&built.dfg).unwrap();
    }

    #[test]
    fn schema1_uses_single_line() {
        let parsed = parse_to_cfg(cf2df_lang::corpus::FIG9).unwrap();
        let lines = lines_for(&parsed.cfg, &parsed.alias, CoverStrategy::SingleToken);
        let built = full(&parsed.cfg, &lines);
        let stats = cf2df_dfg::DfgStats::of(&built.dfg);
        assert_eq!(stats.switches, 1, "one token, one switch per fork");
        cf2df_dfg::validate(&built.dfg).unwrap();
    }

    #[test]
    fn graph_size_scales_with_lines() {
        // O(E·V): more variables (lines) → proportionally more arcs.
        let src2 = "a := 1; if a < 2 then { b := a; } else { b := 2; } c := b;";
        let parsed = parse_to_cfg(src2).unwrap();
        let l1 = lines_for(&parsed.cfg, &parsed.alias, CoverStrategy::SingleToken);
        let lv = lines_for(&parsed.cfg, &parsed.alias, CoverStrategy::Singletons);
        let g1 = full(&parsed.cfg, &l1);
        let gv = full(&parsed.cfg, &lv);
        assert!(gv.dfg.arc_count() > g1.dfg.arc_count());
    }

    #[test]
    fn schema1_read_block_threads_loads_sequentially() {
        // Fig 4: under Schema 1 the single access token "visits every
        // memory operation within a statement in sequence" — each load's
        // access output feeds the next memory operation's access input.
        let parsed = parse_to_cfg("s := a + b + c;").unwrap();
        let lines = lines_for(&parsed.cfg, &parsed.alias, CoverStrategy::SingleToken);
        let built = full(&parsed.cfg, &lines);
        let g = &built.dfg;
        // Collect the loads; each non-final load's access-out (port 1) must
        // feed exactly one memory op's access port.
        let loads: Vec<_> = g
            .op_ids()
            .filter(|&o| matches!(g.kind(o), cf2df_dfg::OpKind::Load { .. }))
            .collect();
        assert_eq!(loads.len(), 3);
        let index = g.arc_index();
        let mut chained = 0;
        for &ld in &loads {
            let dests: Vec<usize> = index.outs_on(g, Port::new(ld, 1)).collect();
            assert_eq!(dests.len(), 1, "access token goes one place");
            let to = g.arcs()[dests[0]].to;
            if g.kind(to.op).is_memory() {
                chained += 1;
            }
        }
        // Two of the three loads chain into another memory op (the third
        // chains into the store's access input, which is also memory —
        // so all three, with the store's completion heading to end).
        assert_eq!(chained, 3, "loads and store form one sequential chain");
    }

    #[test]
    fn schema2_loads_of_different_vars_are_parallel() {
        // Contrast with Fig 7: per-variable tokens let the three loads
        // start independently from their own lines.
        let parsed = parse_to_cfg("s := a + b + c;").unwrap();
        let lines = lines_for(&parsed.cfg, &parsed.alias, CoverStrategy::Singletons);
        let built = full(&parsed.cfg, &lines);
        let g = &built.dfg;
        let index = g.arc_index();
        let start = g.start().unwrap();
        let mut fed_by_start = 0;
        for o in g.op_ids() {
            if matches!(g.kind(o), cf2df_dfg::OpKind::Load { .. })
                && index
                    .ins(o, 0)
                    .iter()
                    .any(|&ai| g.arcs()[ai as usize].from.op == start)
            {
                fed_by_start += 1;
            }
        }
        assert_eq!(fed_by_start, 3, "each load starts from its own line");
    }

    #[test]
    fn empty_program_translates() {
        let parsed = parse_to_cfg("").unwrap();
        let lines = lines_for(&parsed.cfg, &parsed.alias, CoverStrategy::Singletons);
        let built = full(&parsed.cfg, &lines);
        cf2df_dfg::validate(&built.dfg).unwrap();
        assert_eq!(built.dfg.len(), 2); // start + end
    }

    #[test]
    fn fortran_alias_collects_tokens() {
        let parsed = parse_to_cfg(cf2df_lang::corpus::FORTRAN_ALIAS).unwrap();
        let lines = lines_for(&parsed.cfg, &parsed.alias, CoverStrategy::Singletons);
        let built = full(&parsed.cfg, &lines);
        cf2df_dfg::validate(&built.dfg).unwrap();
        let stats = cf2df_dfg::DfgStats::of(&built.dfg);
        assert!(stats.synchs > 0, "aliased ops must gather tokens");
    }
}
