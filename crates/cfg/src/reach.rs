//! Reachability and ordering utilities over CFGs.

use crate::graph::{Cfg, NodeId};

/// Topological order of the CFG's nodes when the given backedges are
/// ignored, starting from `start`. This is the visit discipline of the
/// source-vector algorithm (Fig 11): a node is visited once "all
/// predecessors (ignoring backedges) have been visited".
///
/// `backedge_indices[n]` lists the out-edge indices of `n` to ignore (as
/// produced by [`crate::intervals::LoopForest::backedge_indices`]).
///
/// # Panics
///
/// Panics if ignoring the given edges does not make the graph acyclic
/// (callers must pass the complete backedge set of a reducible CFG).
pub fn topo_order_ignoring_backedges(cfg: &Cfg, backedge_indices: &[Vec<usize>]) -> Vec<NodeId> {
    let n = cfg.len();
    let mut indeg = vec![0usize; n];
    for (a, idx, b) in cfg.edges() {
        if !backedge_indices[a.index()].contains(&idx) {
            indeg[b.index()] += 1;
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut queue: Vec<NodeId> = vec![cfg.start()];
    assert_eq!(
        indeg[cfg.start().index()],
        0,
        "start must have no forward in-edges"
    );
    while let Some(v) = queue.pop() {
        order.push(v);
        for (i, &s) in cfg.succs(v).iter().enumerate() {
            if !backedge_indices[v.index()].contains(&i) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
    }
    assert_eq!(
        order.len(),
        n,
        "graph is not acyclic after removing the given backedges"
    );
    order
}

/// Is there a (possibly empty) path `from ⇒ to` that never visits `avoid`?
/// (`from == to` counts as reachable unless `from == avoid`.)
pub fn path_exists_avoiding(cfg: &Cfg, from: NodeId, to: NodeId, avoid: NodeId) -> bool {
    if from == avoid {
        return false;
    }
    let mut seen = vec![false; cfg.len()];
    seen[from.index()] = true;
    let mut stack = vec![from];
    while let Some(v) = stack.pop() {
        if v == to {
            return true;
        }
        for &s in cfg.succs(v) {
            if s != avoid && !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::intervals::LoopForest;
    use crate::stmt::{LValue, Stmt};
    use crate::var::VarTable;

    fn looped() -> Cfg {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let join = cfg.add_node(Stmt::Join);
        let s = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::bin(BinOp::Add, Expr::Var(x), Expr::Const(1)),
        });
        let br = cfg.add_node(Stmt::Branch {
            pred: Expr::bin(BinOp::Lt, Expr::Var(x), Expr::Const(5)),
        });
        cfg.set_entry(join);
        cfg.add_edge(join, s);
        cfg.add_edge(s, br);
        cfg.add_edge(br, join);
        cfg.add_edge(br, cfg.end());
        cfg
    }

    #[test]
    fn topo_order_respects_forward_edges() {
        let cfg = looped();
        let forest = LoopForest::compute(&cfg).unwrap();
        let be = forest.backedge_indices(&cfg);
        let order = topo_order_ignoring_backedges(&cfg, &be);
        assert_eq!(order.len(), cfg.len());
        let pos: Vec<usize> = {
            let mut p = vec![0; cfg.len()];
            for (i, &n) in order.iter().enumerate() {
                p[n.index()] = i;
            }
            p
        };
        for (a, idx, b) in cfg.edges() {
            if !be[a.index()].contains(&idx) {
                assert!(
                    pos[a.index()] < pos[b.index()],
                    "forward edge {a:?}→{b:?} out of order"
                );
            }
        }
        assert_eq!(order[0], cfg.start());
    }

    #[test]
    #[should_panic(expected = "not acyclic")]
    fn topo_order_panics_without_backedges() {
        let cfg = looped();
        let be = vec![Vec::new(); cfg.len()];
        topo_order_ignoring_backedges(&cfg, &be);
    }

    #[test]
    fn path_avoiding_blocks_the_avoided_node() {
        let cfg = looped();
        let join = cfg.entry();
        let s = cfg.succs(join)[0];
        let br = cfg.succs(s)[0];
        assert!(path_exists_avoiding(&cfg, join, cfg.end(), cfg.start()));
        // Cannot reach end from join while avoiding the branch.
        assert!(!path_exists_avoiding(&cfg, join, cfg.end(), br));
        // from == to is trivially reachable unless avoided.
        assert!(path_exists_avoiding(&cfg, s, s, br));
        assert!(!path_exists_avoiding(&cfg, br, br, br));
    }
}
