//! The optimized direct construction (§4.2): build the dataflow graph from
//! switch placement and source vectors, creating **no redundant switches**
//! — tokens bypass every region that does not reference them.

use crate::lines::{LineId, LineMode, Lines};
use crate::source_vec::{SourceVectors, SvSrc};
use crate::stmt_tr::{translate_fork, StmtCtx};
use crate::switch_place::SwitchPlacement;
use crate::translator::{Built, LineOps};
use cf2df_cfg::intervals::Irreducible;
use cf2df_cfg::{FunctionContext, NodeId, OutDir, Stmt};
use cf2df_dfg::build::merge as merge_build;
use cf2df_dfg::{ArcKind, Dfg, OpKind, Port};

fn arc_kind(lines: &Lines, l: LineId) -> ArcKind {
    match lines.mode(l) {
        LineMode::Access => ArcKind::Access,
        LineMode::Value(_) => ArcKind::Value,
    }
}

/// Build the optimized dataflow graph for the loop-controlled CFG in
/// `fctx` from its switch placement and source vectors, drawing the
/// topological order from the context's cache.
///
/// An irreducible CFG is a diagnosable input error, not a programming
/// error, so it surfaces as `Err` rather than a panic.
pub fn construct(
    fctx: &mut FunctionContext,
    lines: &Lines,
    sp: &SwitchPlacement,
    sv: &SourceVectors,
) -> Result<Built, Irreducible> {
    let order = fctx.topo_order()?;
    let cfg = fctx.cfg();
    let n_lines = lines.n();

    let mut g = Dfg::new();
    let start_op = g.add(OpKind::Start);
    let end_op = g.add(OpKind::End {
        inputs: n_lines.max(1) as u32,
    });
    let mut ops = LineOps::default();

    // Resolved output port per (out-edge slot, line): out-direction `d` of
    // node `n` is slot `first_edge[n] + d`.
    let mut first_edge = Vec::with_capacity(cfg.len() + 1);
    first_edge.push(0usize);
    for n in cfg.node_ids() {
        first_edge.push(first_edge[n.index()] + cfg.succs(n).len());
    }
    let cell = |n: NodeId, dir: OutDir, l: LineId| {
        (first_edge[n.index()] + dir.edge_index()) * n_lines + l.index()
    };
    let mut port_of: Vec<Option<Port>> = vec![None; first_edge[cfg.len()] * n_lines];
    let resolve = |port_of: &[Option<Port>], s: SvSrc, l: LineId| {
        port_of[cell(s.node, s.dir, l)]
            .unwrap_or_else(|| panic!("unresolved source {s:?} for {l:?}"))
    };

    // Per-statement scratch, reused across statements.
    let mut cur: Vec<Option<Port>> = vec![None; n_lines];
    let mut srcs: Vec<Port> = Vec::new();
    let mut pred_lines: Vec<LineId> = Vec::new();
    let mut switched: Vec<LineId> = Vec::new();

    for &n in order.iter() {
        match cfg.stmt(n) {
            Stmt::Start => {
                for l in lines.ids() {
                    port_of[cell(n, OutDir::TRUE, l)] = Some(Port::new(start_op, 0));
                }
            }
            Stmt::End => {
                for (i, l) in lines.ids().enumerate() {
                    srcs.clear();
                    srcs.extend(sv.at(n, l).iter().map(|&s| resolve(&port_of, s, l)));
                    assert!(!srcs.is_empty(), "line {l:?} never reaches end");
                    let mut src =
                        merge_build(&mut g, &srcs, arc_kind(lines, l)).expect("non-empty");
                    if let LineMode::Value(v) = lines.mode(l) {
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
                    g.connect(
                        Port::new(start_op, 0),
                        Port::new(end_op, 0),
                        ArcKind::Access,
                    );
                }
            }
            Stmt::Join => {
                for l in lines.ids() {
                    let from = sv.at(n, l);
                    if from.len() >= 2 {
                        let m = g.add_labeled(OpKind::Merge, format!("{} @{n:?}", lines.name(l)));
                        for &s in from {
                            g.connect(resolve(&port_of, s, l), Port::new(m, 0), arc_kind(lines, l));
                        }
                        port_of[cell(n, OutDir::TRUE, l)] = Some(Port::new(m, 0));
                    }
                }
            }
            Stmt::Assign { lhs, rhs } => {
                let refs = sp.refs(n);
                cur.fill(None);
                for &l in refs {
                    let from = sv.at(n, l);
                    assert_eq!(from.len(), 1, "statement source must be unique");
                    cur[l.index()] = Some(resolve(&port_of, from[0], l));
                }
                StmtCtx::new(&mut g, lines, &mut cur).assign(lhs, rhs);
                for &l in refs {
                    port_of[cell(n, OutDir::TRUE, l)] = Some(cur[l.index()].expect("threaded"));
                }
            }
            Stmt::Branch { pred } | Stmt::Case { selector: pred } => {
                pred_lines.clear();
                for var in pred.vars() {
                    for &l in lines.access_lines(var) {
                        if !pred_lines.contains(&l) {
                            pred_lines.push(l);
                        }
                    }
                }
                switched.clear();
                switched.extend(sp.switch_lines(n));
                cur.fill(None);
                for &l in pred_lines.iter().chain(&switched) {
                    if cur[l.index()].is_none() {
                        let from = sv.at(n, l);
                        assert_eq!(from.len(), 1, "switch/pred source must be unique");
                        cur[l.index()] = Some(resolve(&port_of, from[0], l));
                    }
                }
                let n_dirs = cfg.succs(n).len();
                for (l, sw) in translate_fork(&mut g, lines, &mut cur, pred, n_dirs, &switched) {
                    ops.switches.insert((n, l), sw);
                    for i in 0..n_dirs {
                        port_of[cell(n, OutDir::from_edge_index(i), l)] = Some(Port::new(sw, i));
                    }
                }
                // Predicate-read lines without a switch: regenerated by the
                // read block, then bypass to the postdominator.
                for &l in &pred_lines {
                    if !switched.contains(&l) {
                        port_of[cell(n, OutDir::TRUE, l)] =
                            Some(cur[l.index()].expect("read block regenerates"));
                    }
                }
            }
            Stmt::LoopEntry { loop_id } => {
                for &l in sp.refs(n) {
                    let le = g.add_labeled(
                        OpKind::LoopEntry { loop_id: *loop_id },
                        format!("{} @{n:?}", lines.name(l)),
                    );
                    ops.loop_entries.insert((n, l), le);
                    for &s in sv.at(n, l) {
                        let p = resolve(&port_of, s, l);
                        g.connect(p, Port::new(le, 0), arc_kind(lines, l));
                    }
                    port_of[cell(n, OutDir::TRUE, l)] = Some(Port::new(le, 0));
                }
            }
            Stmt::LoopExit { loop_id } => {
                for &l in sp.refs(n) {
                    let from = sv.at(n, l);
                    assert_eq!(from.len(), 1, "loop exit source must be unique");
                    let p = resolve(&port_of, from[0], l);
                    let lx = g.add_labeled(
                        OpKind::LoopExit { loop_id: *loop_id },
                        format!("{} @{n:?}", lines.name(l)),
                    );
                    ops.loop_exits.insert((n, l), lx);
                    g.connect(p, Port::new(lx, 0), arc_kind(lines, l));
                    port_of[cell(n, OutDir::TRUE, l)] = Some(Port::new(lx, 0));
                }
            }
        }
    }

    // Backedge wiring into loop-entry port 1.
    for n in cfg.node_ids() {
        if !matches!(cfg.stmt(n), Stmt::LoopEntry { .. }) {
            continue;
        }
        for &l in sp.refs(n) {
            let le = ops.loop_entries[&(n, l)];
            for &s in sv.back_at(n, l) {
                let p = resolve(&port_of, s, l);
                g.connect(p, Port::new(le, 1), arc_kind(lines, l));
            }
        }
    }

    Ok(Built { dfg: g, ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{loop_controlled, optimized};
    use cf2df_dfg::validate::redundant_switches;

    fn build(src: &str) -> Built {
        build_opts(src, false)
    }

    fn build_opts(src: &str, elim: bool) -> Built {
        let (mut fctx, meta, lines) = loop_controlled(src, elim);
        optimized(&mut fctx, &meta, &lines)
    }

    #[test]
    fn corpus_builds_and_validates() {
        for (name, src) in cf2df_lang::corpus::all() {
            let built = build(src);
            cf2df_dfg::validate(&built.dfg)
                .unwrap_or_else(|e| panic!("{name}: {e:?}\n{}", built.dfg.pretty()));
        }
    }

    #[test]
    fn no_redundant_switches_anywhere() {
        for (name, src) in cf2df_lang::corpus::all() {
            let built = build(src);
            assert!(
                redundant_switches(&built.dfg).is_empty(),
                "{name} has redundant switches"
            );
        }
    }

    #[test]
    fn fig9_has_fewer_switches_than_schema2() {
        let (mut fctx, meta, lines) = loop_controlled(cf2df_lang::corpus::FIG9, false);
        let full = crate::translator::translate_full(&mut fctx, &lines).unwrap();
        let opt = optimized(&mut fctx, &meta, &lines);
        let s_full = cf2df_dfg::DfgStats::of(&full.dfg).switches;
        let s_opt = cf2df_dfg::DfgStats::of(&opt.dfg).switches;
        assert_eq!(s_full, 4, "Schema 2 switches all four variables");
        assert_eq!(s_opt, 2, "optimized keeps only y and z switches");
    }

    #[test]
    fn memory_elimination_composes() {
        for (name, src) in cf2df_lang::corpus::all() {
            let built = build_opts(src, true);
            cf2df_dfg::validate(&built.dfg).unwrap_or_else(|e| panic!("{name}: {e:?}"));
        }
    }

    #[test]
    fn loop_entries_only_for_circulating_lines() {
        let src = "
            u := 1;
            x := 0;
            while x < 4 do { x := x + 1; }
            u := u + x;
        ";
        let built = build(src);
        let stats = cf2df_dfg::DfgStats::of(&built.dfg);
        // Only x circulates: 1 loop entry + 1 loop exit.
        assert_eq!(stats.loop_control, 2);
    }
}
