//! The statement-level control-flow graph of §2.1.
//!
//! Nodes carry a [`Stmt`]; edges are ordered successor lists. Fork nodes
//! have exactly two out-edges whose positions encode the *out-direction*:
//! index 0 is the `true` edge, index 1 the `false` edge. By the paper's
//! convention an edge is added from `start` to `end`, making `start` a fork.

use crate::stmt::Stmt;
use crate::var::{VarId, VarTable};
use std::fmt;

/// A dense index identifying a CFG node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as a `usize`, for vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The out-direction of an edge. §2.1 indexes a binary fork's out-edges
/// "by a boolean"; footnote 3 notes the development generalizes to
/// multi-way branches, so out-directions here are edge indices: `TRUE` is
/// index 0, `FALSE` index 1, and a `case` arm is its arm index. Nodes with
/// a single out-edge use [`OutDir::TRUE`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct OutDir(pub u16);

impl OutDir {
    /// A binary fork's `true` direction (edge index 0).
    pub const TRUE: OutDir = OutDir(0);
    /// A binary fork's `false` direction (edge index 1).
    pub const FALSE: OutDir = OutDir(1);

    /// The successor-list index of this direction.
    #[inline]
    pub fn edge_index(self) -> usize {
        self.0 as usize
    }

    /// The direction for successor-list index `i`.
    #[inline]
    pub fn from_edge_index(i: usize) -> OutDir {
        OutDir(u16::try_from(i).expect("out-edge index fits in u16"))
    }
}

/// A reference to a CFG edge: source node plus out-edge index.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EdgeRef {
    /// Source node.
    pub from: NodeId,
    /// Index into the source's successor list.
    pub index: usize,
}

#[derive(Clone, Debug)]
struct Node {
    stmt: Stmt,
    succs: Vec<NodeId>,
}

/// Errors reported by [`Cfg::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CfgError {
    /// A node is not reachable from `start`.
    Unreachable(NodeId),
    /// A node cannot reach `end` (e.g. an infinite loop); the paper requires
    /// every node to lie on a path from `start` to `end`.
    CannotReachEnd(NodeId),
    /// A fork node does not have exactly two out-edges.
    BadForkArity(NodeId),
    /// A non-fork, non-`end` node does not have exactly one out-edge.
    BadArity(NodeId),
    /// `end` has an out-edge.
    EndHasSuccessor(NodeId),
    /// A node with multiple predecessors is not a join, loop-entry, or `end`.
    UnexpectedMultiPred(NodeId),
    /// The conventional `start → end` edge is missing.
    MissingStartEndEdge,
    /// `start` has an in-edge.
    StartHasPredecessor(NodeId),
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::Unreachable(n) => write!(f, "node {n:?} unreachable from start"),
            CfgError::CannotReachEnd(n) => write!(f, "node {n:?} cannot reach end"),
            CfgError::BadForkArity(n) => write!(f, "fork {n:?} must have exactly 2 out-edges"),
            CfgError::BadArity(n) => write!(f, "node {n:?} must have exactly 1 out-edge"),
            CfgError::EndHasSuccessor(n) => write!(f, "end node {n:?} has a successor"),
            CfgError::UnexpectedMultiPred(n) => {
                write!(f, "node {n:?} has multiple predecessors but is not a join")
            }
            CfgError::MissingStartEndEdge => write!(f, "conventional start→end edge missing"),
            CfgError::StartHasPredecessor(n) => write!(f, "start has predecessor {n:?}"),
        }
    }
}

impl std::error::Error for CfgError {}

/// A control-flow graph together with its variable table.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// The variables of the program.
    pub vars: VarTable,
    nodes: Vec<Node>,
    start: NodeId,
    end: NodeId,
}

impl Cfg {
    /// Create a CFG containing only `start` and `end`, connected by the
    /// conventional `start → end` edge. The caller then adds statement
    /// nodes and finally wires `start`'s *true* edge to the program entry
    /// with [`Cfg::set_entry`].
    pub fn new(vars: VarTable) -> Self {
        let start_node = Node {
            stmt: Stmt::Start,
            succs: Vec::new(),
        };
        let end_node = Node {
            stmt: Stmt::End,
            succs: Vec::new(),
        };
        let mut cfg = Cfg {
            vars,
            nodes: vec![start_node, end_node],
            start: NodeId(0),
            end: NodeId(1),
        };
        // Provisionally wire start → end twice: the true edge will be
        // redirected to the program entry by `set_entry`; the false edge is
        // the conventional start→end edge that makes start a fork.
        cfg.nodes[0].succs = vec![cfg.end, cfg.end];
        cfg
    }

    /// The unique initial node.
    #[inline]
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// The unique final node.
    #[inline]
    pub fn end(&self) -> NodeId {
        self.end
    }

    /// Number of nodes (including `start` and `end`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has only `start` and `end`.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.succs.len()).sum()
    }

    /// Add a node with no out-edges yet; returns its id.
    pub fn add_node(&mut self, stmt: Stmt) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many CFG nodes"));
        self.nodes.push(Node {
            stmt,
            succs: Vec::new(),
        });
        id
    }

    /// Append an out-edge `from → to`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        self.nodes[from.index()].succs.push(to);
    }

    /// Redirect the program entry: `start`'s *true* edge points at `entry`.
    pub fn set_entry(&mut self, entry: NodeId) {
        self.nodes[self.start.index()].succs[0] = entry;
    }

    /// The program entry node (`start`'s true successor).
    pub fn entry(&self) -> NodeId {
        self.nodes[self.start.index()].succs[0]
    }

    /// The statement at a node.
    #[inline]
    pub fn stmt(&self, n: NodeId) -> &Stmt {
        &self.nodes[n.index()].stmt
    }

    /// The ordered successor list of a node.
    #[inline]
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.nodes[n.index()].succs
    }

    /// The successor along a fork's out-direction.
    pub fn succ_along(&self, n: NodeId, dir: OutDir) -> NodeId {
        self.nodes[n.index()].succs[dir.edge_index()]
    }

    /// Redirect out-edge `index` of `from` to point at `new_to`, returning
    /// the old target.
    pub fn redirect_edge(&mut self, from: NodeId, index: usize, new_to: NodeId) -> NodeId {
        std::mem::replace(&mut self.nodes[from.index()].succs[index], new_to)
    }

    /// Insert `mid` on the edge `from --index--> to`, producing
    /// `from → mid → to`. `mid` must currently have no out-edges.
    pub fn split_edge(&mut self, edge: EdgeRef, mid: NodeId) {
        assert!(
            self.nodes[mid.index()].succs.is_empty(),
            "split_edge target must have no out-edges yet"
        );
        let to = self.redirect_edge(edge.from, edge.index, mid);
        self.add_edge(mid, to);
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over all edges as `(from, index, to)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, usize, NodeId)> + '_ {
        self.node_ids().flat_map(move |n| {
            self.succs(n)
                .iter()
                .enumerate()
                .map(move |(i, &t)| (n, i, t))
        })
    }

    /// Compute the predecessor lists of every node (as `(pred, out-index)`
    /// pairs, in edge order).
    pub fn preds(&self) -> Vec<Vec<(NodeId, usize)>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (from, idx, to) in self.edges() {
            preds[to.index()].push((from, idx));
        }
        preds
    }

    /// Variables referenced anywhere in the program, in id order.
    pub fn referenced_vars(&self) -> Vec<VarId> {
        let mut seen = vec![false; self.vars.len()];
        for n in self.node_ids() {
            for v in self.stmt(n).referenced_vars() {
                seen[v.index()] = true;
            }
        }
        self.vars.ids().filter(|v| seen[v.index()]).collect()
    }

    /// Nodes reachable from `start` along forward edges.
    pub fn reachable_from_start(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.start];
        seen[self.start.index()] = true;
        while let Some(n) = stack.pop() {
            for &s in self.succs(n) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Nodes from which `end` is reachable.
    pub fn reaches_end(&self) -> Vec<bool> {
        let preds = self.preds();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.end];
        seen[self.end.index()] = true;
        while let Some(n) = stack.pop() {
            for &(p, _) in &preds[n.index()] {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    stack.push(p);
                }
            }
        }
        seen
    }

    /// Check the structural invariants of §2.1 (plus the loop-control
    /// extension of §3). Returns all violations found.
    pub fn validate(&self) -> Result<(), Vec<CfgError>> {
        let mut errs = Vec::new();
        // start must be a fork whose false edge is the conventional edge to
        // end.
        let ss = self.succs(self.start);
        if ss.len() != 2 {
            errs.push(CfgError::BadForkArity(self.start));
        } else if ss[1] != self.end {
            errs.push(CfgError::MissingStartEndEdge);
        }
        let reach = self.reachable_from_start();
        let coreach = self.reaches_end();
        let preds = self.preds();
        for n in self.node_ids() {
            if !reach[n.index()] {
                errs.push(CfgError::Unreachable(n));
                continue;
            }
            if !coreach[n.index()] {
                errs.push(CfgError::CannotReachEnd(n));
            }
            let deg = self.succs(n).len();
            match self.stmt(n) {
                Stmt::Start => {}
                Stmt::End => {
                    if deg != 0 {
                        errs.push(CfgError::EndHasSuccessor(n));
                    }
                }
                Stmt::Branch { .. } => {
                    if deg != 2 {
                        errs.push(CfgError::BadForkArity(n));
                    }
                }
                Stmt::Case { .. } => {
                    if deg < 2 {
                        errs.push(CfgError::BadForkArity(n));
                    }
                }
                _ => {
                    if deg != 1 {
                        errs.push(CfgError::BadArity(n));
                    }
                }
            }
            if preds[n.index()].len() > 1
                && !matches!(
                    self.stmt(n),
                    Stmt::Join | Stmt::End | Stmt::LoopEntry { .. }
                )
            {
                errs.push(CfgError::UnexpectedMultiPred(n));
            }
            if n == self.start && !preds[n.index()].is_empty() {
                errs.push(CfgError::StartHasPredecessor(preds[n.index()][0].0));
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Pretty-print the whole graph (one node per line).
    pub fn pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for n in self.node_ids() {
            let succs: Vec<String> = self.succs(n).iter().map(|t| format!("{t:?}")).collect();
            let _ = writeln!(
                s,
                "{:>4?}: {:<40} -> [{}]",
                n,
                format!("{}", self.stmt(n).display(&self.vars)),
                succs.join(", ")
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::stmt::LValue;

    /// Build the paper's running example (Fig 1):
    /// ```text
    /// start:
    /// l: join
    ///    y := x + 1
    ///    x := x + 1
    ///    if x < 5 then goto l else goto end
    /// end:
    /// ```
    pub(crate) fn running_example() -> Cfg {
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
        cfg.add_edge(br, join); // true
        cfg.add_edge(br, cfg.end()); // false
        cfg
    }

    #[test]
    fn running_example_validates() {
        let cfg = running_example();
        cfg.validate().expect("fig 1 CFG must be valid");
        assert_eq!(cfg.len(), 6);
        // start(2) + join(1) + s1(1) + s2(1) + br(2) = 7 edges
        assert_eq!(cfg.edge_count(), 7);
    }

    #[test]
    fn start_is_fork_with_conventional_edge() {
        let cfg = running_example();
        assert!(cfg.stmt(cfg.start()).is_fork());
        assert_eq!(cfg.succ_along(cfg.start(), OutDir::FALSE), cfg.end());
        assert_ne!(cfg.entry(), cfg.end());
    }

    #[test]
    fn preds_are_consistent_with_edges() {
        let cfg = running_example();
        let preds = cfg.preds();
        // end's preds: start (conventional) and the branch.
        let end_preds: Vec<NodeId> = preds[cfg.end().index()].iter().map(|&(p, _)| p).collect();
        assert!(end_preds.contains(&cfg.start()));
        assert_eq!(end_preds.len(), 2);
        // Total pred entries equal edge count.
        let total: usize = preds.iter().map(|p| p.len()).sum();
        assert_eq!(total, cfg.edge_count());
    }

    #[test]
    fn referenced_vars_of_example() {
        let cfg = running_example();
        let vs = cfg.referenced_vars();
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn unreachable_node_detected() {
        let mut cfg = running_example();
        let orphan = cfg.add_node(Stmt::Join);
        cfg.add_edge(orphan, cfg.end());
        let errs = cfg.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, CfgError::Unreachable(n) if *n == orphan)));
    }

    #[test]
    fn infinite_loop_detected() {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let join = cfg.add_node(Stmt::Join);
        let s = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::Const(1),
        });
        cfg.set_entry(join);
        cfg.add_edge(join, s);
        cfg.add_edge(s, join); // loop with no exit
        let errs = cfg.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, CfgError::CannotReachEnd(_))));
    }

    #[test]
    fn bad_fork_arity_detected() {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let br = cfg.add_node(Stmt::Branch { pred: Expr::Var(x) });
        cfg.set_entry(br);
        cfg.add_edge(br, cfg.end()); // only one out-edge
        let errs = cfg.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, CfgError::BadForkArity(n) if *n == br)));
    }

    #[test]
    fn multi_pred_non_join_detected() {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let br = cfg.add_node(Stmt::Branch { pred: Expr::Var(x) });
        let asg = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::Const(0),
        });
        cfg.set_entry(br);
        cfg.add_edge(br, asg);
        cfg.add_edge(br, asg); // both arms to a non-join
        cfg.add_edge(asg, cfg.end());
        let errs = cfg.validate().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, CfgError::UnexpectedMultiPred(n) if *n == asg)));
    }

    #[test]
    fn split_edge_inserts_between() {
        let mut cfg = running_example();
        let preds = cfg.preds();
        // Split the backedge br → join.
        let join = cfg.entry();
        let &(br, idx) = preds[join.index()]
            .iter()
            .find(|&&(p, _)| p != cfg.start())
            .unwrap();
        let mid = cfg.add_node(Stmt::Join);
        cfg.split_edge(
            EdgeRef {
                from: br,
                index: idx,
            },
            mid,
        );
        assert_eq!(cfg.succs(br)[idx], mid);
        assert_eq!(cfg.succs(mid), &[join]);
        cfg.validate().expect("still valid after split");
    }

    #[test]
    fn pretty_prints_every_node() {
        let cfg = running_example();
        let p = cfg.pretty();
        assert!(p.contains("y := (x + 1)"));
        assert!(p.contains("if (x < 5)"));
        assert_eq!(p.lines().count(), cfg.len());
    }
}
