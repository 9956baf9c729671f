//! Interval (loop) decomposition (§3).
//!
//! The paper identifies cycles by decomposing the control-flow graph into
//! nested intervals: "an interval is a maximal, single entry subgraph having
//! a unique node called the header which is the only entry node and in which
//! all cyclic paths contain the header".
//!
//! For the loop-control transformation, what matters is each interval's
//! *cyclic part*: the header plus every node that can reach the header
//! inside the interval. For reducible graphs this is exactly the natural
//! loop of the header's backedges (natural loops with the same header
//! merged), which is what we compute. Irreducible graphs — where some cycle
//! has two entries — are reported as an error; the paper handles them by
//! code copying, which [`crate::loop_control::split_irreducible`] applies.

use crate::graph::{Cfg, NodeId};
use crate::postdom::{DomTree, Rows};
use std::fmt;

/// A dense index identifying a loop in the [`LoopForest`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(pub u32);

impl LoopId {
    /// The index as a `usize`, for vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// One cyclic interval.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// The interval header — the unique entry of the cyclic part.
    pub header: NodeId,
    /// Nodes of the cyclic part (including the header), sorted by id.
    pub body: Vec<NodeId>,
    /// Backedges `(from, out-index)` — edges from inside the body to the
    /// header.
    pub backedges: Vec<(NodeId, usize)>,
    /// The innermost strictly-containing loop, if any.
    pub parent: Option<LoopId>,
    /// Nesting depth (outermost = 0).
    pub depth: u32,
}

impl LoopInfo {
    /// True if `n` is in the loop body.
    pub fn contains(&self, n: NodeId) -> bool {
        self.body.binary_search(&n).is_ok()
    }

    /// Exit edges: edges `(from, idx, to)` with `from` in the body and `to`
    /// outside it. These are exactly the edges "exiting the cyclic part of
    /// the interval" on which §3 places loop-exit statements.
    pub fn exit_edges(&self, cfg: &Cfg) -> Vec<(NodeId, usize, NodeId)> {
        let mut out = Vec::new();
        for &n in &self.body {
            for (i, &s) in cfg.succs(n).iter().enumerate() {
                if !self.contains(s) {
                    out.push((n, i, s));
                }
            }
        }
        out
    }

    /// Entry edges: edges into the header from outside the body.
    pub fn entry_edges(&self, cfg: &Cfg) -> Vec<(NodeId, usize)> {
        let mut out = Vec::new();
        for (from, idx, to) in cfg.edges() {
            if to == self.header && !self.contains(from) {
                out.push((from, idx));
            }
        }
        out
    }
}

/// Error returned when the CFG is irreducible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Irreducible {
    /// Nodes participating in a cycle with multiple entries.
    pub witnesses: Vec<NodeId>,
}

impl fmt::Display for Irreducible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "control-flow graph is irreducible (cycle with multiple entries through {:?}); \
             apply node splitting first",
            self.witnesses
        )
    }
}

impl std::error::Error for Irreducible {}

/// The nested-loop decomposition of a CFG.
#[derive(Clone, Debug)]
pub struct LoopForest {
    loops: Vec<LoopInfo>,
    /// Innermost loop containing each node (`None` if the node is in no
    /// loop).
    innermost: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Compute the loop forest of a valid, reducible CFG.
    pub fn compute(cfg: &Cfg) -> Result<LoopForest, Irreducible> {
        let dom = DomTree::dominators(cfg);
        Self::compute_with_dominators(cfg, &dom)
    }

    /// As [`LoopForest::compute`], reusing a dominator tree.
    pub fn compute_with_dominators(cfg: &Cfg, dom: &DomTree) -> Result<LoopForest, Irreducible> {
        let n = cfg.len();
        // Out-edge `i` of node `a` is edge slot `first_edge[a] + i`.
        let mut first_edge = Vec::with_capacity(n + 1);
        first_edge.push(0usize);
        for v in cfg.node_ids() {
            first_edge.push(first_edge[v.index()] + cfg.succs(v).len());
        }
        // Backedges: a → h where h dominates a, as (header, source, index).
        let mut is_backedge = vec![false; first_edge[n]];
        let mut backedges: Vec<(NodeId, NodeId, usize)> = Vec::new();
        for (a, idx, h) in cfg.edges() {
            if dom.dominates(h, a) {
                backedges.push((h, a, idx));
                is_backedge[first_edge[a.index()] + idx] = true;
            }
        }

        // Reducibility: removing the backedges must yield a DAG.
        check_acyclic_without_backedges(cfg, &first_edge, &is_backedge)?;

        // One loop per header, in header order; a stable sort keeps each
        // header's backedges in edge order.
        backedges.sort_by_key(|&(h, _, _)| h);
        let preds = Rows::preds(cfg);
        let mut in_body = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut loops: Vec<LoopInfo> = Vec::new();
        for group in backedges.chunk_by(|x, y| x.0 == y.0) {
            let h = group[0].0;
            // Natural loop: nodes that reach a backedge source without
            // passing through h.
            let mut body = vec![h];
            in_body[h.index()] = true;
            for &(_, src, _) in group {
                if !in_body[src.index()] {
                    in_body[src.index()] = true;
                    body.push(src);
                    stack.push(src.index());
                }
            }
            while let Some(v) = stack.pop() {
                for &p in preds.row(v) {
                    if !in_body[p as usize] {
                        in_body[p as usize] = true;
                        body.push(NodeId(p));
                        stack.push(p as usize);
                    }
                }
            }
            // Clear the membership buffer for the next header.
            for v in &body {
                in_body[v.index()] = false;
            }
            body.sort_unstable();
            loops.push(LoopInfo {
                header: h,
                body,
                backedges: group.iter().map(|&(_, a, idx)| (a, idx)).collect(),
                parent: None,
                depth: 0,
            });
        }

        // Nesting: sort by body size ascending (stably, so equal sizes keep
        // header order); the parent of a loop is the smallest
        // strictly-larger loop containing its header.
        loops.sort_by_key(|l| l.body.len());
        for i in 0..loops.len() {
            let h = loops[i].header;
            loops[i].parent = (i + 1..loops.len())
                .find(|&j| loops[j].contains(h) && loops[j].header != h)
                .map(|j| LoopId(j as u32));
        }
        // Depths: a parent sorts after its children, so walk outermost
        // first.
        for i in (0..loops.len()).rev() {
            loops[i].depth = loops[i].parent.map_or(0, |p| loops[p.index()].depth + 1);
        }
        // Innermost loop per node: loops are sorted smallest-first, so
        // writing the bodies largest-first leaves each node its innermost.
        let mut innermost = vec![None; n];
        for (i, l) in loops.iter().enumerate().rev() {
            for &v in &l.body {
                innermost[v.index()] = Some(LoopId(i as u32));
            }
        }

        Ok(LoopForest { loops, innermost })
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// True if the CFG is loop-free.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Loop info by id.
    pub fn info(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.index()]
    }

    /// Iterate over `(id, info)` pairs, innermost loops first.
    pub fn iter(&self) -> impl Iterator<Item = (LoopId, &LoopInfo)> {
        self.loops
            .iter()
            .enumerate()
            .map(|(i, l)| (LoopId(i as u32), l))
    }

    /// The innermost loop containing `n`, if any.
    pub fn innermost(&self, n: NodeId) -> Option<LoopId> {
        self.innermost[n.index()]
    }

    /// Backedge out-indices per node: `result[n]` lists the out-edge indices
    /// of `n` that are loop backedges.
    pub fn backedge_indices(&self, cfg: &Cfg) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); cfg.len()];
        for l in &self.loops {
            for &(src, idx) in &l.backedges {
                if !out[src.index()].contains(&idx) {
                    out[src.index()].push(idx);
                }
            }
        }
        out
    }
}

/// Verify that removing the identified backedges leaves a DAG; otherwise
/// the graph is irreducible. `is_backedge` is indexed by edge slot
/// (`first_edge[a] + out-index`).
fn check_acyclic_without_backedges(
    cfg: &Cfg,
    first_edge: &[usize],
    is_backedge: &[bool],
) -> Result<(), Irreducible> {
    let n = cfg.len();
    let forward = |a: NodeId, idx: usize| !is_backedge[first_edge[a.index()] + idx];
    let mut indeg = vec![0usize; n];
    for (a, idx, b) in cfg.edges() {
        if forward(a, idx) {
            indeg[b.index()] += 1;
        }
    }
    let mut queue: Vec<NodeId> = cfg.node_ids().filter(|v| indeg[v.index()] == 0).collect();
    let mut removed = 0usize;
    while let Some(v) = queue.pop() {
        removed += 1;
        for (i, &s) in cfg.succs(v).iter().enumerate() {
            if forward(v, i) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
    }
    if removed == n {
        return Ok(());
    }
    // Nodes surviving the forward pruning include everything *downstream*
    // of a cycle; prune from the other side too so the witnesses are
    // exactly the nodes on residual cycles (node splitting must only ever
    // copy those).
    let alive: Vec<bool> = (0..n).map(|i| indeg[i] > 0).collect();
    let alive_edge =
        |a: NodeId, idx: usize, b: NodeId| forward(a, idx) && alive[a.index()] && alive[b.index()];
    let mut outdeg = vec![0usize; n];
    for (a, idx, b) in cfg.edges() {
        if alive_edge(a, idx, b) {
            outdeg[a.index()] += 1;
        }
    }
    let preds_alive = Rows::from_pairs(n, || {
        cfg.edges()
            .filter(|&(a, idx, b)| alive_edge(a, idx, b))
            .map(|(a, _, b)| (b.index(), a.index()))
    });
    let mut dead_queue: Vec<NodeId> = cfg
        .node_ids()
        .filter(|v| alive[v.index()] && outdeg[v.index()] == 0)
        .collect();
    let mut on_cycle = alive;
    while let Some(v) = dead_queue.pop() {
        on_cycle[v.index()] = false;
        for &p in preds_alive.row(v.index()) {
            let p = p as usize;
            if on_cycle[p] {
                outdeg[p] -= 1;
                if outdeg[p] == 0 {
                    dead_queue.push(NodeId(p as u32));
                }
            }
        }
    }
    let witnesses = cfg.node_ids().filter(|v| on_cycle[v.index()]).collect();
    Err(Irreducible { witnesses })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::stmt::{LValue, Stmt};
    use crate::var::VarTable;

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
    fn single_loop_detected() {
        let (cfg, join, br) = running_example();
        let forest = LoopForest::compute(&cfg).unwrap();
        assert_eq!(forest.len(), 1);
        let (id, l) = forest.iter().next().unwrap();
        assert_eq!(l.header, join);
        assert_eq!(l.body.len(), 4); // join, s1, s2, br
        assert_eq!(l.backedges, vec![(br, 0)]);
        assert_eq!(l.depth, 0);
        assert_eq!(forest.innermost(join), Some(id));
        assert_eq!(forest.innermost(cfg.start()), None);
        assert_eq!(forest.innermost(cfg.end()), None);
    }

    #[test]
    fn exit_and_entry_edges() {
        let (cfg, join, br) = running_example();
        let forest = LoopForest::compute(&cfg).unwrap();
        let (_, l) = forest.iter().next().unwrap();
        assert_eq!(l.exit_edges(&cfg), vec![(br, 1, cfg.end())]);
        assert_eq!(l.entry_edges(&cfg), vec![(cfg.start(), 0)]);
        assert_eq!(l.entry_edges(&cfg)[0].0, cfg.start());
        let _ = join;
    }

    #[test]
    fn loop_free_graph_has_empty_forest() {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let s = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::Const(1),
        });
        cfg.set_entry(s);
        cfg.add_edge(s, cfg.end());
        let forest = LoopForest::compute(&cfg).unwrap();
        assert!(forest.is_empty());
    }

    #[test]
    fn nested_loops_ordered_inner_first() {
        // outer: join_o; inner: join_i … br_i → join_i; br_o → join_o.
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let join_o = cfg.add_node(Stmt::Join);
        let join_i = cfg.add_node(Stmt::Join);
        let body = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::bin(BinOp::Add, Expr::Var(x), Expr::Const(1)),
        });
        let br_i = cfg.add_node(Stmt::Branch {
            pred: Expr::bin(BinOp::Lt, Expr::Var(x), Expr::Const(3)),
        });
        let br_o = cfg.add_node(Stmt::Branch {
            pred: Expr::bin(BinOp::Lt, Expr::Var(x), Expr::Const(9)),
        });
        cfg.set_entry(join_o);
        cfg.add_edge(join_o, join_i);
        cfg.add_edge(join_i, body);
        cfg.add_edge(body, br_i);
        cfg.add_edge(br_i, join_i); // inner backedge
        cfg.add_edge(br_i, br_o);
        cfg.add_edge(br_o, join_o); // outer backedge
        cfg.add_edge(br_o, cfg.end());
        cfg.validate().unwrap();

        let forest = LoopForest::compute(&cfg).unwrap();
        assert_eq!(forest.len(), 2);
        let loops: Vec<_> = forest.iter().collect();
        let (inner_id, inner) = loops[0];
        let (outer_id, outer) = loops[1];
        assert_eq!(inner.header, join_i);
        assert_eq!(outer.header, join_o);
        assert_eq!(inner.parent, Some(outer_id));
        assert_eq!(outer.parent, None);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        assert!(outer.contains(join_i));
        assert!(!inner.contains(br_o));
        assert_eq!(forest.innermost(body), Some(inner_id));
        assert_eq!(forest.innermost(br_o), Some(outer_id));
    }

    #[test]
    fn irreducible_graph_rejected() {
        // Two joins that jump into each other's "loop": the classic
        // two-entry cycle.
        //   start → br; br→j1 (t), br→j2 (f); j1→j2; j2→br2; br2→j1 (t),
        //   br2→end (f). Cycle j1→j2→br2→j1 has entries j1 (from br2,br)
        //   and j2 (from br): irreducible.
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
        let err = LoopForest::compute(&cfg).unwrap_err();
        assert!(!err.witnesses.is_empty());
    }

    #[test]
    fn self_loop_forms_singleton_body() {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        // A join that is also the branch target forms a 2-node loop; the
        // minimal self-cycle in our node discipline is join ↔ branch.
        let j = cfg.add_node(Stmt::Join);
        let br = cfg.add_node(Stmt::Branch { pred: Expr::Var(x) });
        cfg.set_entry(j);
        cfg.add_edge(j, br);
        cfg.add_edge(br, j);
        cfg.add_edge(br, cfg.end());
        let forest = LoopForest::compute(&cfg).unwrap();
        assert_eq!(forest.len(), 1);
        let (_, l) = forest.iter().next().unwrap();
        assert_eq!(l.body, vec![j, br]);
    }

    #[test]
    fn backedge_indices_marks_only_backedges() {
        let (cfg, _, br) = running_example();
        let forest = LoopForest::compute(&cfg).unwrap();
        let be = forest.backedge_indices(&cfg);
        assert_eq!(be[br.index()], vec![0]); // true-edge is the backedge
        assert!(be[cfg.start().index()].is_empty());
    }
}

/// One Allen–Cocke interval: a maximal single-entry region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interval {
    /// The interval's unique entry node.
    pub header: NodeId,
    /// Members in addition order (header first).
    pub members: Vec<NodeId>,
}

impl Interval {
    /// True if `n` belongs to the interval.
    pub fn contains(&self, n: NodeId) -> bool {
        self.members.contains(&n)
    }
}

/// The classical Allen–Cocke interval partition — the construction the
/// paper's §3 refers to ("we perform an interval decomposition of the
/// control-flow graph \[1\]"): starting from `start`, each interval grows by
/// absorbing nodes *all* of whose predecessors already lie inside it;
/// every remaining node with an already-covered predecessor heads a new
/// interval. The result partitions the nodes into maximal single-entry
/// regions in which every cycle passes through the header.
pub fn interval_partition(cfg: &Cfg) -> Vec<Interval> {
    intervals(&pred_indices(cfg), cfg.start().index())
        .into_iter()
        .map(|members| {
            let members: Vec<NodeId> = members.into_iter().map(|m| NodeId(m as u32)).collect();
            Interval {
                header: members[0],
                members,
            }
        })
        .collect()
}

/// The sizes of the derived sequence of interval graphs. `G0` is the part
/// of `cfg` reachable from start; `G(i+1)` has one node per interval of
/// `Gi` and an edge wherever `Gi` has one between two intervals. The
/// sequence stops at the first graph whose intervals are all single
/// nodes, which is its own interval graph. The graph is reducible exactly
/// when this limit is a single node — an oracle that shares nothing with
/// the dominator-based [`LoopForest::compute`].
pub fn derived_sequence(cfg: &Cfg) -> Vec<usize> {
    let mut preds = pred_indices(cfg);
    let mut entry = cfg.start().index();
    let mut sizes = Vec::new();
    loop {
        let parts = intervals(&preds, entry);
        let covered: usize = parts.iter().map(Vec::len).sum();
        if sizes.is_empty() {
            sizes.push(covered);
        }
        if parts.len() == covered {
            return sizes;
        }
        sizes.push(parts.len());
        let mut part_of = vec![None; preds.len()];
        for (i, members) in parts.iter().enumerate() {
            for &m in members {
                part_of[m] = Some(i);
            }
        }
        // Edges from outside an interval enter it only at its header.
        preds = parts
            .iter()
            .enumerate()
            .map(|(j, members)| {
                let mut ps: Vec<usize> = preds[members[0]]
                    .iter()
                    .filter_map(|&p| part_of[p])
                    .filter(|&i| i != j)
                    .collect();
                ps.sort_unstable();
                ps.dedup();
                ps
            })
            .collect();
        entry = part_of[entry].expect("the entry heads the first interval");
    }
}

/// Each node's predecessors, as node indices.
fn pred_indices(cfg: &Cfg) -> Vec<Vec<usize>> {
    cfg.preds()
        .iter()
        .map(|ps| ps.iter().map(|&(p, _)| p.index()).collect())
        .collect()
}

/// Allen–Cocke intervals of the graph with predecessor lists `preds`,
/// grown from `entry`: each interval's members in addition order, header
/// first. Nodes unreachable from `entry` are in none.
fn intervals(preds: &[Vec<usize>], entry: usize) -> Vec<Vec<usize>> {
    let n = preds.len();
    let mut interval_of: Vec<Option<usize>> = vec![None; n];
    let mut intervals: Vec<Vec<usize>> = Vec::new();
    let mut header_queue: Vec<usize> = vec![entry];
    let mut queued = vec![false; n];
    queued[entry] = true;

    while let Some(h) = header_queue.pop() {
        if interval_of[h].is_some() {
            continue;
        }
        let id = intervals.len();
        let mut members = vec![h];
        interval_of[h] = Some(id);
        // Grow: absorb nodes whose predecessors all lie in this interval.
        loop {
            let mut grew = false;
            for v in 0..n {
                if interval_of[v].is_some() || preds[v].is_empty() {
                    continue;
                }
                if preds[v].iter().all(|&p| interval_of[p] == Some(id)) {
                    interval_of[v] = Some(id);
                    members.push(v);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        intervals.push(members);
        // New headers: uncovered nodes with a covered predecessor.
        for v in 0..n {
            if interval_of[v].is_none()
                && !queued[v]
                && preds[v].iter().any(|&p| interval_of[p].is_some())
            {
                queued[v] = true;
                header_queue.push(v);
            }
        }
    }
    intervals
}

#[cfg(test)]
mod interval_tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::stmt::{LValue, Stmt};
    use crate::var::VarTable;

    fn running_example() -> (Cfg, NodeId) {
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
        (cfg, join)
    }

    #[test]
    fn partition_covers_every_node_exactly_once() {
        let (cfg, _) = running_example();
        let parts = interval_partition(&cfg);
        let mut seen = vec![0usize; cfg.len()];
        for p in &parts {
            for &m in &p.members {
                seen[m.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn loop_header_heads_its_interval() {
        let (cfg, join) = running_example();
        let parts = interval_partition(&cfg);
        // The loop header must be an interval header (the loop's backedge
        // prevents it from being absorbed into start's interval).
        assert!(parts.iter().any(|p| p.header == join));
        // All loop-body nodes live in the header's interval.
        let body_interval = parts.iter().find(|p| p.header == join).unwrap();
        assert_eq!(body_interval.members.len(), 4);
    }

    #[test]
    fn cycles_pass_through_interval_headers() {
        // The defining property: within an interval, every cycle contains
        // the header — check by removing the header and searching for
        // cycles among the remaining members.
        let (cfg, _) = running_example();
        for p in interval_partition(&cfg) {
            let inside: Vec<NodeId> =
                p.members.iter().copied().filter(|&m| m != p.header).collect();
            // Kahn over the subgraph induced by `inside`.
            let mut indeg: std::collections::HashMap<NodeId, usize> =
                inside.iter().map(|&n| (n, 0)).collect();
            for &n in &inside {
                for &s in cfg.succs(n) {
                    if let Some(d) = indeg.get_mut(&s) {
                        *d += 1;
                    }
                }
            }
            let mut queue: Vec<NodeId> = inside
                .iter()
                .copied()
                .filter(|n| indeg[n] == 0)
                .collect();
            let mut removed = 0;
            while let Some(n) = queue.pop() {
                removed += 1;
                for &s in cfg.succs(n) {
                    if let Some(d) = indeg.get_mut(&s) {
                        *d -= 1;
                        if *d == 0 {
                            queue.push(s);
                        }
                    }
                }
            }
            assert_eq!(removed, inside.len(), "cycle avoiding the header");
        }
    }

    #[test]
    fn straight_line_is_one_interval() {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let a = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::Const(1),
        });
        let b = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::Const(2),
        });
        cfg.set_entry(a);
        cfg.add_edge(a, b);
        cfg.add_edge(b, cfg.end());
        let parts = interval_partition(&cfg);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].header, cfg.start());
    }
}
