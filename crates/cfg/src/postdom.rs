//! Dominator and postdominator trees.
//!
//! The paper's switch-placement machinery (§4.1) is built on the
//! postdominator tree: "Every node has a unique immediate postdominator
//! which is its closest strict postdominator on any path to `end`. The
//! immediate postdominator relation is tree structured."
//!
//! We compute dominance with the Cooper–Harvey–Kennedy iterative algorithm
//! (near-linear in practice), running it on the reverse graph for
//! postdominators. A quadratic reference implementation is provided for
//! differential testing.

use crate::graph::{Cfg, NodeId};

/// Compressed adjacency rows: row `v` is `items[offsets[v]..offsets[v + 1]]`.
/// One flat allocation per table instead of one `Vec` per node; the
/// dominator trees and the loop forest walk their graphs through these.
pub(crate) struct Rows {
    offsets: Vec<u32>,
    items: Vec<u32>,
}

impl Rows {
    /// Rows over `n` nodes from `(row, item)` pairs, each row keeping its
    /// items in the order the pairs come (a counting sort). `pairs` is
    /// walked twice.
    pub(crate) fn from_pairs<I>(n: usize, pairs: impl Fn() -> I) -> Rows
    where
        I: Iterator<Item = (usize, usize)>,
    {
        let mut offsets = vec![0u32; n + 1];
        for (r, _) in pairs() {
            offsets[r + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut fill = offsets[..n].to_vec();
        let mut items = vec![0u32; offsets[n] as usize];
        for (r, item) in pairs() {
            items[fill[r] as usize] = item as u32;
            fill[r] += 1;
        }
        Rows { offsets, items }
    }

    /// Predecessor rows of `cfg`, in edge order.
    pub(crate) fn preds(cfg: &Cfg) -> Rows {
        Rows::from_pairs(cfg.len(), || {
            cfg.edges().map(|(a, _, b)| (b.index(), a.index()))
        })
    }

    /// Successor rows of `cfg`, in out-edge order.
    pub(crate) fn succs(cfg: &Cfg) -> Rows {
        Rows::from_pairs(cfg.len(), || {
            cfg.edges().map(|(a, _, b)| (a.index(), b.index()))
        })
    }

    /// The items of row `v`.
    #[inline]
    pub(crate) fn row(&self, v: usize) -> &[u32] {
        &self.items[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// A dominator tree over the nodes of a [`Cfg`] — either the (forward)
/// dominator tree rooted at `start`, or the postdominator tree rooted at
/// `end`.
#[derive(Clone, Debug)]
pub struct DomTree {
    root: NodeId,
    /// Immediate dominator of each node; `None` for the root (and for nodes
    /// not reachable in the traversal direction, which a valid CFG has none
    /// of).
    idom: Vec<Option<NodeId>>,
    /// Depth of each node in the tree (root = 0).
    depth: Vec<u32>,
    /// Children of node `v`, ascending, are
    /// `children[child_start[v]..child_start[v + 1]]`, for top-down walks.
    child_start: Vec<u32>,
    children: Vec<NodeId>,
}

impl DomTree {
    /// Compute the *postdominator* tree of `cfg`, rooted at `end`.
    ///
    /// Requires every node to reach `end` (guaranteed by
    /// [`Cfg::validate`]).
    pub fn postdominators(cfg: &Cfg) -> DomTree {
        // The reverse graph: its successors are the CFG's predecessors.
        Self::compute(cfg.end().index(), &Rows::preds(cfg), &Rows::succs(cfg))
    }

    /// Compute the (forward) dominator tree of `cfg`, rooted at `start`.
    pub fn dominators(cfg: &Cfg) -> DomTree {
        Self::compute(cfg.start().index(), &Rows::succs(cfg), &Rows::preds(cfg))
    }

    /// Cooper–Harvey–Kennedy on compressed adjacency rows.
    fn compute(root: usize, succs: &Rows, preds: &Rows) -> DomTree {
        let n = succs.offsets.len() - 1;
        // Postorder from root; `po_num` doubles as the visited mark
        // (`ON_STACK` until the node is finished).
        const UNSEEN: u32 = u32::MAX;
        const ON_STACK: u32 = u32::MAX - 1;
        let mut po_num = vec![UNSEEN; n];
        let mut postorder: Vec<u32> = Vec::with_capacity(n);
        let mut stack: Vec<(u32, u32)> = vec![(root as u32, 0)];
        po_num[root] = ON_STACK;
        while let Some(&mut (node, ref mut i)) = stack.last_mut() {
            let row = succs.row(node as usize);
            if (*i as usize) < row.len() {
                let next = row[*i as usize];
                *i += 1;
                if po_num[next as usize] == UNSEEN {
                    po_num[next as usize] = ON_STACK;
                    stack.push((next, 0));
                }
            } else {
                po_num[node as usize] = postorder.len() as u32;
                postorder.push(node);
                stack.pop();
            }
        }

        // idoms stored as node indices during iteration.
        let undef = u32::MAX;
        let mut idom = vec![undef; n];
        idom[root] = root as u32;

        let intersect = |idom: &[u32], mut a: u32, mut b: u32| {
            while a != b {
                while po_num[a as usize] < po_num[b as usize] {
                    a = idom[a as usize];
                }
                while po_num[b as usize] < po_num[a as usize] {
                    b = idom[b as usize];
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in postorder.iter().rev() {
                if b as usize == root {
                    continue;
                }
                // First processed predecessor.
                let mut new_idom = undef;
                for &p in preds.row(b as usize) {
                    if po_num[p as usize] == UNSEEN {
                        continue; // unreachable in this direction
                    }
                    if idom[p as usize] != undef {
                        new_idom = if new_idom == undef {
                            p
                        } else {
                            intersect(&idom, p, new_idom)
                        };
                    }
                }
                if new_idom != undef && idom[b as usize] != new_idom {
                    idom[b as usize] = new_idom;
                    changed = true;
                }
            }
        }

        let parent = |v: usize| (v != root && idom[v] != undef).then(|| idom[v] as usize);
        let idom_out: Vec<Option<NodeId>> = (0..n)
            .map(|v| parent(v).map(|p| NodeId(p as u32)))
            .collect();
        // Children rows by counting sort over ascending node ids.
        let mut child_start = vec![0u32; n + 1];
        for p in (0..n).filter_map(parent) {
            child_start[p + 1] += 1;
        }
        for v in 0..n {
            child_start[v + 1] += child_start[v];
        }
        let mut fill = child_start[..n].to_vec();
        let mut children = vec![NodeId(0); child_start[n] as usize];
        for v in 0..n {
            if let Some(p) = parent(v) {
                children[fill[p] as usize] = NodeId(v as u32);
                fill[p] += 1;
            }
        }
        // Depths in reverse postorder: a node's idom precedes it.
        let mut depth = vec![0u32; n];
        for &v in postorder.iter().rev() {
            if let Some(p) = parent(v as usize) {
                depth[v as usize] = depth[p] + 1;
            }
        }

        DomTree {
            root: NodeId(root as u32),
            idom: idom_out,
            depth,
            child_start,
            children,
        }
    }

    /// The tree root (`end` for postdominators, `start` for dominators).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The immediate (post)dominator of `n`; `None` for the root.
    #[inline]
    pub fn idom(&self, n: NodeId) -> Option<NodeId> {
        self.idom[n.index()]
    }

    /// Children of `n` in the tree, ascending.
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        let i = n.index();
        &self.children[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// Depth of `n` (root = 0).
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.index()]
    }

    /// Reflexive dominance: does `a` (post)dominate `b`? Walks up from
    /// `b` only as far as `a`'s depth.
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        let stop = self.depth(a);
        let mut cur = b;
        while self.depth(cur) > stop {
            match self.idom(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
        cur == a
    }

    /// Strict dominance: `a` (post)dominates `b` and `a != b`.
    pub fn strictly_dominates(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Nodes in a bottom-up order (every node before its idom). This is the
    /// "bottom-up walk of the postdominator tree" used to compute control
    /// dependences.
    pub fn bottom_up(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.idom.len());
        let mut stack = vec![self.root];
        // Top-down DFS collects parents before children; reverse it.
        while let Some(v) = stack.pop() {
            order.push(v);
            for &c in self.children(v) {
                stack.push(c);
            }
        }
        order.reverse();
        order
    }
}

/// Quadratic reference: the set-based iterative dominance computation, for
/// differential testing. Returns, for each node, the full set of its
/// dominators as a bitvector (`result[n][m] == true` iff `m` dominates
/// `n`).
pub fn naive_dominator_sets(cfg: &Cfg) -> Vec<Vec<bool>> {
    let n = cfg.len();
    let start = cfg.start().index();
    let preds = cfg.preds();
    let mut dom: Vec<Vec<bool>> = vec![vec![true; n]; n];
    dom[start] = vec![false; n];
    dom[start][start] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for v in cfg.node_ids() {
            let vi = v.index();
            if vi == start {
                continue;
            }
            // dom(v) = {v} ∪ ∩_{p ∈ pred(v)} dom(p)
            let mut new = vec![!preds[vi].is_empty(); n];
            for &(p, _) in &preds[vi] {
                for m in 0..n {
                    new[m] = new[m] && dom[p.index()][m];
                }
            }
            new[vi] = true;
            if new != dom[vi] {
                dom[vi] = new;
                changed = true;
            }
        }
    }
    dom
}

/// Quadratic reference: the set-based iterative dominance computation, for
/// differential testing. Returns, for each node, the full set of its
/// post-dominators as a bitvector (`result[n][m] == true` iff `m`
/// postdominates `n`).
pub fn naive_postdominator_sets(cfg: &Cfg) -> Vec<Vec<bool>> {
    let n = cfg.len();
    let end = cfg.end().index();
    let mut dom: Vec<Vec<bool>> = vec![vec![true; n]; n];
    dom[end] = vec![false; n];
    dom[end][end] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for v in cfg.node_ids() {
            let vi = v.index();
            if vi == end {
                continue;
            }
            // postdom(v) = {v} ∪ ∩_{s ∈ succ(v)} postdom(s)
            let mut new = vec![!cfg.succs(v).is_empty(); n];
            for &s in cfg.succs(v) {
                for m in 0..n {
                    new[m] = new[m] && dom[s.index()][m];
                }
            }
            new[vi] = true;
            if new != dom[vi] {
                dom[vi] = new;
                changed = true;
            }
        }
    }
    dom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::stmt::{LValue, Stmt};
    use crate::var::VarTable;

    fn running_example() -> Cfg {
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
        cfg
    }

    /// A diamond: start → br → (a | b) → join → end.
    fn diamond() -> (Cfg, NodeId, NodeId, NodeId, NodeId) {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let br = cfg.add_node(Stmt::Branch {
            pred: Expr::Var(x),
        });
        let a = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::Const(1),
        });
        let b = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::Const(2),
        });
        let join = cfg.add_node(Stmt::Join);
        cfg.set_entry(br);
        cfg.add_edge(br, a);
        cfg.add_edge(br, b);
        cfg.add_edge(a, join);
        cfg.add_edge(b, join);
        cfg.add_edge(join, cfg.end());
        (cfg, br, a, b, join)
    }

    #[test]
    fn diamond_postdominators() {
        let (cfg, br, a, b, join) = diamond();
        cfg.validate().unwrap();
        let pd = DomTree::postdominators(&cfg);
        assert_eq!(pd.root(), cfg.end());
        assert_eq!(pd.idom(br), Some(join));
        assert_eq!(pd.idom(a), Some(join));
        assert_eq!(pd.idom(b), Some(join));
        assert_eq!(pd.idom(join), Some(cfg.end()));
        assert_eq!(pd.idom(cfg.start()), Some(cfg.end()));
        assert_eq!(pd.idom(cfg.end()), None);
        assert!(pd.dominates(join, br));
        assert!(!pd.dominates(a, br));
        assert!(pd.dominates(br, br), "postdomination is reflexive");
        assert!(pd.strictly_dominates(cfg.end(), br));
        assert!(!pd.strictly_dominates(br, br));
    }

    #[test]
    fn diamond_dominators() {
        let (cfg, br, a, b, join) = diamond();
        let d = DomTree::dominators(&cfg);
        assert_eq!(d.root(), cfg.start());
        assert_eq!(d.idom(br), Some(cfg.start()));
        assert_eq!(d.idom(a), Some(br));
        assert_eq!(d.idom(b), Some(br));
        assert_eq!(d.idom(join), Some(br));
        // end's idom is start: the conventional start→end edge bypasses the
        // whole program.
        assert_eq!(d.idom(cfg.end()), Some(cfg.start()));
    }

    #[test]
    fn running_example_postdominators() {
        let cfg = running_example();
        let pd = DomTree::postdominators(&cfg);
        // Inside the loop body, each node's ipostdom is its successor; the
        // branch's ipostdom is end (the loop may repeat).
        let join = cfg.entry();
        let s1 = cfg.succs(join)[0];
        let s2 = cfg.succs(s1)[0];
        let br = cfg.succs(s2)[0];
        assert_eq!(pd.idom(join), Some(s1));
        assert_eq!(pd.idom(s1), Some(s2));
        assert_eq!(pd.idom(s2), Some(br));
        assert_eq!(pd.idom(br), Some(cfg.end()));
    }

    #[test]
    fn matches_naive_sets_on_examples() {
        for cfg in [running_example(), diamond().0] {
            let pd = DomTree::postdominators(&cfg);
            let sets = naive_postdominator_sets(&cfg);
            for a in cfg.node_ids() {
                for b in cfg.node_ids() {
                    assert_eq!(
                        pd.dominates(a, b),
                        sets[b.index()][a.index()],
                        "postdom({a:?}, {b:?}) mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn dominators_match_naive_sets_on_examples() {
        for cfg in [running_example(), diamond().0] {
            let d = DomTree::dominators(&cfg);
            let sets = naive_dominator_sets(&cfg);
            for a in cfg.node_ids() {
                for b in cfg.node_ids() {
                    assert_eq!(
                        d.dominates(a, b),
                        sets[b.index()][a.index()],
                        "dom({a:?}, {b:?}) mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn bottom_up_order_puts_children_first() {
        let cfg = running_example();
        let pd = DomTree::postdominators(&cfg);
        let order = pd.bottom_up();
        assert_eq!(order.len(), cfg.len());
        let pos = |n: NodeId| order.iter().position(|&m| m == n).unwrap();
        for n in cfg.node_ids() {
            if let Some(p) = pd.idom(n) {
                assert!(pos(n) < pos(p), "{n:?} must precede its idom {p:?}");
            }
        }
        assert_eq!(*order.last().unwrap(), cfg.end());
    }

    #[test]
    fn depths_increase_from_root() {
        let (cfg, br, a, _, join) = diamond();
        let pd = DomTree::postdominators(&cfg);
        assert_eq!(pd.depth(cfg.end()), 0);
        assert_eq!(pd.depth(join), 1);
        assert_eq!(pd.depth(a), 2);
        assert_eq!(pd.depth(br), 2);
    }
}
