//! Insertion of loop-control statements (§3).
//!
//! "Arcs leading to the header from outside the interval are changed to
//! lead to a single *loop entry* statement, which then leads to the header.
//! All arcs from within the interval back to the header are changed to lead
//! back to the loop entry node. A *loop exit* statement is placed on any
//! edge that exits the cyclic part of the interval."
//!
//! An edge that exits several nested loops at once receives a chain of
//! loop-exit statements, innermost first, so iteration tags are stripped
//! level by level in the dataflow machine.
//!
//! Irreducible graphs are handled by the paper's "code copying" remedy:
//! [`split_irreducible`] duplicates multi-entry cycle nodes until the graph
//! becomes reducible.

use crate::context::{FunctionContext, Preserved};
use crate::graph::{Cfg, EdgeRef, NodeId};
use crate::intervals::{Irreducible, LoopForest, LoopId};
use crate::stmt::Stmt;

/// What loop-control insertion learned and added.
#[derive(Clone, Debug)]
pub struct LoopControlMeta {
    /// The loop forest of the *original* CFG. Node ids of original nodes
    /// are unchanged by the transformation, so its bodies remain valid.
    pub forest: LoopForest,
    /// The loop-entry node inserted for each loop, indexed by [`LoopId`].
    pub entry_node: Vec<NodeId>,
    /// The loop-exit nodes inserted for each loop, indexed by [`LoopId`].
    pub exit_nodes: Vec<Vec<NodeId>>,
}

/// Insert loop-entry and loop-exit statements for every cyclic interval
/// of `fctx`'s CFG, in place.
///
/// Takes the loop forest from the analysis cache (a reducibility check
/// earlier in the pipeline already computed it), mutates the graph under
/// [`Preserved::VALIDITY`] — insertion keeps the CFG well-formed,
/// everything else is invalidated — and skips the revision bump entirely
/// on loop-free graphs, where it would change nothing. Fails with
/// [`Irreducible`] if the CFG has a multi-entry cycle; call
/// [`split_irreducible`] first in that case.
pub fn insert_loop_control(fctx: &mut FunctionContext) -> Result<LoopControlMeta, Irreducible> {
    let forest: LoopForest = (*fctx.loop_forest()?).clone();
    if forest.is_empty() {
        return Ok(LoopControlMeta {
            forest,
            entry_node: Vec::new(),
            exit_nodes: Vec::new(),
        });
    }
    let (entry_node, exit_nodes) = fctx.mutate(Preserved::VALIDITY, |cfg| {
        insert_loop_control_body(cfg, &forest)
    });
    debug_assert!(
        fctx.cfg().validate().is_ok(),
        "loop control broke CFG invariants"
    );
    Ok(LoopControlMeta {
        forest,
        entry_node,
        exit_nodes,
    })
}

/// The insertion itself, applied in place. `out` must be the graph the
/// forest was computed on.
fn insert_loop_control_body(out: &mut Cfg, forest: &LoopForest) -> (Vec<NodeId>, Vec<Vec<NodeId>>) {
    // Step 1: place loop-exit chains. For every edge of the *original*
    // graph (snapshotted before any splitting), collect the loops it
    // exits (from innermost to outermost) and split the edge with one
    // loop-exit node per level.
    let original_edges: Vec<(NodeId, usize, NodeId)> = out.edges().collect();
    let mut exit_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); forest.len()];
    for (from, idx, to) in original_edges {
        // Loops exited: loops containing `from` but not `to`. `forest.iter()`
        // yields innermost (smallest) loops first, which is the order the
        // exits must be chained in.
        let mut exited: Vec<LoopId> = Vec::new();
        for (lid, l) in forest.iter() {
            if l.contains(from) && !l.contains(to) {
                exited.push(lid);
            }
        }
        let mut edge = EdgeRef { from, index: idx };
        for lid in exited {
            let lx = out.add_node(Stmt::LoopExit { loop_id: lid });
            out.split_edge(edge, lx);
            exit_nodes[lid.index()].push(lx);
            // Continue splitting after the node just inserted.
            edge = EdgeRef { from: lx, index: 0 };
        }
    }

    // Step 2: place loop-entry nodes. All edges into each header — entry
    // edges and backedges alike — are redirected to a fresh loop-entry node
    // that leads to the header. Edges are identified by (from, index), which
    // step 1 preserved: splitting an edge re-targets (from, index) to the
    // head of the inserted chain, and the chain's last node now owns the
    // edge into the header, so we search the *current* graph for edges into
    // the header.
    let mut entry_node = Vec::with_capacity(forest.len());
    for (lid, l) in forest.iter() {
        let header = l.header;
        let le = out.add_node(Stmt::LoopEntry { loop_id: lid });
        let incoming: Vec<(NodeId, usize)> = out
            .edges()
            .filter(|&(f, _, t)| t == header && f != le)
            .map(|(f, i, _)| (f, i))
            .collect();
        for (f, i) in incoming {
            out.redirect_edge(f, i, le);
        }
        out.add_edge(le, header);
        entry_node.push(le);
    }

    (entry_node, exit_nodes)
}

/// Make an irreducible CFG reducible by node splitting ("code copying"),
/// returning an equivalent reducible CFG. Reducible inputs are returned
/// unchanged.
///
/// The algorithm is the textbook T1/T2 one: collapse the graph to its
/// *limit graph* (T1 drops self-loops, T2 merges every region with a
/// single predecessor region into that predecessor). If the limit graph is
/// not a single node, the CFG is irreducible; the smallest multi-entry
/// limit region lying on a limit-graph cycle is then duplicated — one copy
/// of its entire member set per extra predecessor region — which makes
/// each copy single-predecessor and guarantees the next collapse round
/// shrinks the limit graph. Code growth can be super-linear on adversarial
/// graphs; a hard cap guards against blow-up.
pub fn split_irreducible(cfg: &Cfg) -> Result<Cfg, Irreducible> {
    let mut g = cfg.clone();
    let cap = (64 * cfg.len()).max(4096);
    loop {
        let witnesses = match LoopForest::compute(&g) {
            Ok(_) => return Ok(g),
            Err(e) => e.witnesses,
        };
        if g.len() > cap {
            return Err(Irreducible { witnesses });
        }

        // T1/T2 collapse: region_of[n] = representative region index.
        let n = g.len();
        let mut region_of: Vec<usize> = (0..n).collect();
        loop {
            // Distinct predecessor regions per region (ignoring
            // intra-region edges = T1).
            let mut pred_regions: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (u, _, v) in g.edges() {
                let (ru, rv) = (region_of[u.index()], region_of[v.index()]);
                if ru != rv && !pred_regions[rv].contains(&ru) {
                    pred_regions[rv].push(ru);
                }
            }
            // T2: merge a single-pred region into its predecessor.
            let mut merged = false;
            for (r, preds_of_r) in pred_regions.iter().enumerate() {
                if region_of.iter().all(|&x| x != r) {
                    continue; // dead region id
                }
                if preds_of_r.len() == 1 {
                    let p = preds_of_r[0];
                    for x in region_of.iter_mut() {
                        if *x == r {
                            *x = p;
                        }
                    }
                    merged = true;
                }
            }
            if !merged {
                break;
            }
        }

        // Limit-graph adjacency and cycle membership.
        let region_ids: Vec<usize> = {
            let mut v: Vec<usize> = region_of.clone();
            v.sort_unstable();
            v.dedup();
            v
        };
        if region_ids.len() <= 1 {
            // Fully collapsed yet LoopForest said irreducible: cannot
            // happen, but fail safely rather than loop.
            return Err(Irreducible { witnesses });
        }
        let mut limit_succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut limit_preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (u, _, v) in g.edges() {
            let (ru, rv) = (region_of[u.index()], region_of[v.index()]);
            if ru != rv {
                if !limit_succs[ru].contains(&rv) {
                    limit_succs[ru].push(rv);
                }
                if !limit_preds[rv].contains(&ru) {
                    limit_preds[rv].push(ru);
                }
            }
        }
        let on_cycle = limit_cycle_members(&region_ids, &limit_succs, &limit_preds);

        // Pick the smallest splittable region: ≥2 pred regions, on a limit
        // cycle.
        let members = |r: usize| -> Vec<NodeId> {
            g.node_ids().filter(|m| region_of[m.index()] == r).collect()
        };
        let pick = region_ids
            .iter()
            .copied()
            .filter(|&r| limit_preds[r].len() >= 2 && on_cycle.contains(&r))
            .min_by_key(|&r| (members(r).len(), r));
        let Some(target) = pick else {
            return Err(Irreducible { witnesses });
        };

        // Duplicate the region per extra predecessor region.
        let body = members(target);
        let pred_rs = limit_preds[target].clone();
        for &p in &pred_rs[1..] {
            let mut copy_map: std::collections::HashMap<NodeId, NodeId> =
                std::collections::HashMap::new();
            for &m in &body {
                copy_map.insert(m, g.add_node(g.stmt(m).clone()));
            }
            for &m in &body {
                let succs: Vec<NodeId> = g.succs(m).to_vec();
                let c = copy_map[&m];
                for s in succs {
                    g.add_edge(c, *copy_map.get(&s).unwrap_or(&s));
                }
            }
            // Edges from region p into the target enter the copy instead.
            let redirects: Vec<(NodeId, usize, NodeId)> = g
                .edges()
                .filter(|&(u, _, v)| {
                    region_of.get(u.index()).copied() == Some(p) && copy_map.contains_key(&v)
                })
                .collect();
            for (u, i, v) in redirects {
                g.redirect_edge(u, i, copy_map[&v]);
            }
        }
    }
}

/// Region ids lying on a cycle of the limit graph (two-sided Kahn
/// pruning).
fn limit_cycle_members(
    region_ids: &[usize],
    succs: &[Vec<usize>],
    preds: &[Vec<usize>],
) -> Vec<usize> {
    let mut alive: std::collections::HashSet<usize> = region_ids.iter().copied().collect();
    loop {
        let removable: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&r| {
                preds[r].iter().all(|p| !alive.contains(p))
                    || succs[r].iter().all(|s| !alive.contains(s))
            })
            .collect();
        if removable.is_empty() {
            break;
        }
        for r in removable {
            alive.remove(&r);
        }
    }
    alive.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::stmt::LValue;
    use crate::var::VarTable;

    /// `cfg` with loop control inserted, through a fresh context.
    fn loop_controlled(cfg: &Cfg) -> (Cfg, LoopControlMeta) {
        let mut fctx = FunctionContext::for_cfg(cfg.clone());
        let meta = insert_loop_control(&mut fctx).unwrap();
        (fctx.into_cfg(), meta)
    }

    fn running_example() -> (Cfg, NodeId, NodeId) {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let y = vars.scalar("y");
        let mut cfg = Cfg::new(vars);
        let join = cfg.add_node(Stmt::Join);
        let s1 = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(y),
            rhs: Expr::bin(BinOp::Add, Expr::Var(x), Expr::Const(1)),
        });
        let s2 = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::bin(BinOp::Add, Expr::Var(x), Expr::Const(1)),
        });
        let br = cfg.add_node(Stmt::Branch {
            pred: Expr::bin(BinOp::Lt, Expr::Var(x), Expr::Const(5)),
        });
        cfg.set_entry(join);
        cfg.add_edge(join, s1);
        cfg.add_edge(s1, s2);
        cfg.add_edge(s2, br);
        cfg.add_edge(br, join);
        cfg.add_edge(br, cfg.end());
        (cfg, join, br)
    }

    #[test]
    fn running_example_gets_entry_and_exit() {
        let (cfg, join, br) = running_example();
        let (out, lc) = loop_controlled(&cfg);
        out.validate().unwrap();
        assert_eq!(lc.entry_node.len(), 1);
        let le = lc.entry_node[0];
        assert!(matches!(out.stmt(le), Stmt::LoopEntry { .. }));
        // start's entry edge and the backedge both lead to the loop entry.
        assert_eq!(out.entry(), le);
        assert_eq!(out.succs(le), &[join]);
        assert_eq!(out.succs(br)[0], le, "backedge redirected to loop entry");
        // The exit edge got a loop-exit node.
        assert_eq!(lc.exit_nodes[0].len(), 1);
        let lx = lc.exit_nodes[0][0];
        assert_eq!(out.succs(br)[1], lx);
        assert_eq!(out.succs(lx), &[cfg.end()]);
    }

    #[test]
    fn loop_free_graph_unchanged_in_size() {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let s = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::Const(1),
        });
        cfg.set_entry(s);
        cfg.add_edge(s, cfg.end());
        let (out, lc) = loop_controlled(&cfg);
        assert_eq!(out.len(), cfg.len());
        assert!(lc.entry_node.is_empty());
    }

    #[test]
    fn multi_level_exit_gets_chained_exits() {
        // Inner loop with an edge that leaves both loops at once.
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let jo = cfg.add_node(Stmt::Join); // outer header
        let ji = cfg.add_node(Stmt::Join); // inner header
        let bi = cfg.add_node(Stmt::Branch {
            pred: Expr::bin(BinOp::Lt, Expr::Var(x), Expr::Const(3)),
        });
        let bo = cfg.add_node(Stmt::Branch {
            pred: Expr::bin(BinOp::Lt, Expr::Var(x), Expr::Const(9)),
        });
        let bx = cfg.add_node(Stmt::Branch {
            pred: Expr::bin(BinOp::Eq, Expr::Var(x), Expr::Const(7)),
        });
        cfg.set_entry(jo);
        cfg.add_edge(jo, ji);
        cfg.add_edge(ji, bx);
        cfg.add_edge(bx, cfg.end()); // leaves BOTH loops at once
        cfg.add_edge(bx, bi);
        cfg.add_edge(bi, ji); // inner backedge
        cfg.add_edge(bi, bo);
        cfg.add_edge(bo, jo); // outer backedge
        cfg.add_edge(bo, cfg.end()); // leaves outer loop
        cfg.validate().unwrap();

        let (out, lc) = loop_controlled(&cfg);
        out.validate().unwrap();
        assert_eq!(lc.entry_node.len(), 2);
        // Edge bx → end must now pass through two loop exits, inner first.
        let mut n = out.succs(bx)[0];
        let Stmt::LoopExit { loop_id: first } = *out.stmt(n) else {
            panic!("expected inner loop exit on bx's true edge");
        };
        n = out.succs(n)[0];
        let Stmt::LoopExit { loop_id: second } = *out.stmt(n) else {
            panic!("expected outer loop exit next");
        };
        assert_eq!(out.succs(n), &[cfg.end()]);
        // Inner loops sort first in the forest, so the inner id < outer id.
        let inner_depth = lc.forest.info(first).depth;
        let outer_depth = lc.forest.info(second).depth;
        assert!(inner_depth > outer_depth, "inner exit must come first");
    }

    #[test]
    fn nested_loops_each_get_entries() {
        let (cfg, ..) = running_example();
        let (out, lc) = loop_controlled(&cfg);
        // Re-running loop analysis on the transformed graph: the (single)
        // loop's cycle now passes through the loop-entry node.
        let forest2 = LoopForest::compute(&out).unwrap();
        assert_eq!(forest2.len(), 1);
        let (_, l2) = forest2.iter().next().unwrap();
        assert!(l2.contains(lc.entry_node[0]));
    }

    #[test]
    fn split_irreducible_makes_reducible() {
        // The two-entry cycle from the intervals tests.
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let br = cfg.add_node(Stmt::Branch { pred: Expr::Var(x) });
        let j1 = cfg.add_node(Stmt::Join);
        let j2 = cfg.add_node(Stmt::Join);
        let br2 = cfg.add_node(Stmt::Branch { pred: Expr::Var(x) });
        cfg.set_entry(br);
        cfg.add_edge(br, j1);
        cfg.add_edge(br, j2);
        cfg.add_edge(j1, j2);
        cfg.add_edge(j2, br2);
        cfg.add_edge(br2, j1);
        cfg.add_edge(br2, cfg.end());
        cfg.validate().unwrap();
        assert!(LoopForest::compute(&cfg).is_err());

        let split = split_irreducible(&cfg).unwrap();
        split.validate().unwrap();
        assert!(LoopForest::compute(&split).is_ok());
        assert!(split.len() > cfg.len(), "splitting must copy nodes");
        // And loop control now applies cleanly.
        loop_controlled(&split);
    }

    #[test]
    fn split_reducible_is_identity() {
        let (cfg, ..) = running_example();
        let split = split_irreducible(&cfg).unwrap();
        assert_eq!(split.len(), cfg.len());
    }
}
