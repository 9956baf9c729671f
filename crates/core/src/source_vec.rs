//! Source vectors (§4.2, Fig 11).
//!
//! For each node `N` and token line `ℓ`, `SV_N(ℓ)` is the set of
//! `⟨source node, out-direction⟩` pairs from which `ℓ`'s token can arrive
//! at `N`. The computation is a single forward pass in topological order
//! (ignoring backedges) with the paper's non-local step: at a fork that
//! does **not** need a switch for `ℓ`, the sources propagate directly to
//! the fork's immediate postdominator — the token bypasses the region.
//!
//! Two amendments make Fig 11 fully concrete:
//!
//! * a fork that *reads* `ℓ` in its predicate (but needs no switch)
//!   threads `ℓ` through its read block and then bypasses: the source
//!   becomes `⟨F, true⟩` at `ipostdom(F)`;
//! * joins with a single incoming source pass it through unchanged ("a
//!   join with a single source is equivalent to no operator"), and
//!   loop-entry/exit operators exist only for circulating lines.

use crate::lines::{LineId, Lines};
use crate::switch_place::SwitchPlacement;
use cf2df_cfg::intervals::Irreducible;
use cf2df_cfg::loop_control::LoopControlMeta;
use cf2df_cfg::{FunctionContext, NodeId, OutDir, Stmt};

/// One source of a token: a node and the out-direction it leaves along.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct SvSrc {
    /// The producing node.
    pub node: NodeId,
    /// Out-direction (always [`OutDir::TRUE`] for non-forks).
    pub dir: OutDir,
}

/// The computed source vectors: one cell per (node, line) for the forward
/// sources, then one per (node, line) for the backedge sources arriving
/// at loop-entry nodes (wired to the loop-entry operator's port 1). Cell
/// `c` holds `srcs[start[c]..start[c + 1]]`.
#[derive(Clone, Debug)]
pub struct SourceVectors {
    n_lines: usize,
    /// Number of forward cells (nodes × lines); the backedge cells follow.
    back_base: usize,
    start: Vec<u32>,
    srcs: Vec<SvSrc>,
}

impl SourceVectors {
    /// The forward sources of line `l` at node `n`.
    pub fn at(&self, n: NodeId, l: LineId) -> &[SvSrc] {
        self.cell(n.index() * self.n_lines + l.index())
    }

    /// The backedge sources of line `l` at loop-entry node `n`.
    pub fn back_at(&self, n: NodeId, l: LineId) -> &[SvSrc] {
        self.cell(self.back_base + n.index() * self.n_lines + l.index())
    }

    fn cell(&self, c: usize) -> &[SvSrc] {
        &self.srcs[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// Compute source vectors for the loop-controlled CFG in `fctx` under
    /// a switch placement, drawing postdominators, the loop forest, and
    /// the topological order from the context's cache. The backedge
    /// indices are those of the *current* (loop-controlled) graph;
    /// `meta.forest` is the loop forest of the original graph, used for
    /// containment queries on original node ids.
    ///
    /// An irreducible CFG is a diagnosable input error, not a programming
    /// error, so it surfaces as `Err` rather than a panic.
    pub fn compute(
        fctx: &mut FunctionContext,
        meta: &LoopControlMeta,
        lines: &Lines,
        sp: &SwitchPlacement,
    ) -> Result<SourceVectors, Irreducible> {
        let pd = fctx.postdominators();
        let forest = fctx.loop_forest()?;
        let order = fctx.topo_order()?;
        let cfg = fctx.cfg();
        let forest_backedges = forest.backedge_indices(cfg);
        let n_lines = lines.n();
        let back_base = cfg.len() * n_lines;
        // The forward cell of (n, l), or with `back` its backedge cell.
        let cell = |n: NodeId, l: LineId, back: bool| {
            usize::from(back) * back_base + n.index() * n_lines + l.index()
        };
        let mut out = CellLists::new(2 * back_base);

        // Route a source to a successor along a concrete out-edge,
        // honouring backedges (whose targets are loop entries and which are
        // wired to the entry operator's backedge port).
        let is_back = |n: NodeId, idx: usize| forest_backedges[n.index()].contains(&idx);
        let mut pred_lines: Vec<LineId> = Vec::new();

        for &n in order.iter() {
            let own = SvSrc {
                node: n,
                dir: OutDir::TRUE,
            };
            match cfg.stmt(n) {
                Stmt::Start => {
                    let s = cfg.succs(n)[0];
                    for l in lines.ids() {
                        out.add(cell(s, l, false), own);
                    }
                }
                Stmt::End => {}
                Stmt::Assign { .. }
                | Stmt::LoopExit { .. }
                | Stmt::LoopEntry { .. }
                | Stmt::Join => {
                    let s = cfg.succs(n)[0];
                    let back = is_back(n, 0);
                    let refs = sp.refs(n);
                    for l in lines.ids() {
                        let here = cell(n, l, false);
                        if refs.binary_search(&l).is_ok()
                            // A join is a producer only when it merges.
                            || matches!(cfg.stmt(n), Stmt::Join) && out.len(here) >= 2
                        {
                            out.add(cell(s, l, back), own);
                        } else {
                            out.copy(here, cell(s, l, back));
                        }
                    }
                }
                Stmt::Branch { pred } | Stmt::Case { selector: pred } => {
                    let p = pd.idom(n).expect("forks have a postdominator");
                    // A bypass whose target is a loop-entry node needs
                    // care: when the fork lies *inside* that loop (e.g. a
                    // fork whose two arms both lead straight back to the
                    // loop entry, as in a binary-search loop), the
                    // bypassing token arrives carrying the loop's
                    // iteration tag and must enter the backedge port.
                    // (A fork *before* the loop may also have the entry as
                    // its postdominator — e.g. a diamond converging right
                    // at the loop; its tokens arrive from outside and take
                    // the forward port.)
                    let bypass_is_back = match cfg.stmt(p) {
                        Stmt::LoopEntry { loop_id } => meta.forest.info(*loop_id).contains(n),
                        _ => false,
                    };
                    pred_lines.clear();
                    for var in pred.vars() {
                        for &l in lines.access_lines(var) {
                            if !pred_lines.contains(&l) {
                                pred_lines.push(l);
                            }
                        }
                    }
                    for l in lines.ids() {
                        if sp.needs_switch(n, l) {
                            for (i, &s) in cfg.succs(n).iter().enumerate() {
                                let src = SvSrc {
                                    node: n,
                                    dir: OutDir::from_edge_index(i),
                                };
                                out.add(cell(s, l, is_back(n, i)), src);
                            }
                        } else if pred_lines.contains(&l) {
                            // Read by the predicate, then bypasses to the
                            // postdominator.
                            out.add(cell(p, l, bypass_is_back), own);
                        } else {
                            out.copy(cell(n, l, false), cell(p, l, bypass_is_back));
                        }
                    }
                }
            }
        }
        Ok(out.freeze(n_lines, back_base))
    }
}

/// Source lists under construction: one insertion-ordered, duplicate-free
/// list per cell, chained through one arena.
struct CellLists {
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Arena entries: a source and the index of the next entry in its
    /// cell's list.
    entries: Vec<(SvSrc, u32)>,
}

const NIL: u32 = u32::MAX;

impl CellLists {
    fn new(cells: usize) -> CellLists {
        CellLists {
            head: vec![NIL; cells],
            tail: vec![NIL; cells],
            entries: Vec::new(),
        }
    }

    /// The entries of cell `c`, in insertion order.
    fn iter(&self, c: usize) -> impl Iterator<Item = SvSrc> + '_ {
        let mut i = self.head[c];
        std::iter::from_fn(move || {
            (i != NIL).then(|| {
                let (src, next) = self.entries[i as usize];
                i = next;
                src
            })
        })
    }

    fn len(&self, c: usize) -> usize {
        self.iter(c).count()
    }

    /// Append `src` to cell `c` unless it is already there.
    fn add(&mut self, c: usize, src: SvSrc) {
        if self.iter(c).any(|s| s == src) {
            return;
        }
        let i = self.entries.len() as u32;
        self.entries.push((src, NIL));
        match self.tail[c] {
            NIL => self.head[c] = i,
            t => self.entries[t as usize].1 = i,
        }
        self.tail[c] = i;
    }

    /// Append every source of cell `from` to cell `to`.
    fn copy(&mut self, from: usize, to: usize) {
        let mut i = self.head[from];
        while i != NIL {
            let (src, next) = self.entries[i as usize];
            self.add(to, src);
            i = next;
        }
    }

    /// Freeze into compressed rows.
    fn freeze(self, n_lines: usize, back_base: usize) -> SourceVectors {
        let mut start = Vec::with_capacity(self.head.len() + 1);
        let mut srcs = Vec::with_capacity(self.entries.len());
        start.push(0);
        for c in 0..self.head.len() {
            srcs.extend(self.iter(c));
            start.push(srcs.len() as u32);
        }
        SourceVectors {
            n_lines,
            back_base,
            start,
            srcs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::loop_controlled;
    use cf2df_cfg::Cfg;

    /// A loop-controlled CFG in a fresh context, its loop-control
    /// metadata, its singleton-cover token lines and their switch
    /// placement.
    fn setup(src: &str) -> (FunctionContext, LoopControlMeta, Lines, SwitchPlacement) {
        let (mut fctx, meta, lines) = loop_controlled(src, false);
        let sp = SwitchPlacement::compute(&mut fctx, &meta, &lines);
        (fctx, meta, lines, sp)
    }

    fn line_of(cfg: &Cfg, lines: &Lines, name: &str) -> LineId {
        lines.access_lines(cfg.vars.lookup(name).unwrap())[0]
    }

    #[test]
    fn fig9_x_token_bypasses_conditional() {
        let (mut fctx, lc, lines, sp) = setup(cf2df_lang::corpus::FIG9);
        let sv = SourceVectors::compute(&mut fctx, &lc, &lines, &sp).unwrap();
        let cfg = fctx.cfg();
        let x = line_of(cfg, &lines, "x");
        // Find the second assignment to x (x := 0) and the first
        // (x := x + 1).
        let assigns: Vec<NodeId> = cfg
            .node_ids()
            .filter(|&n| {
                matches!(cfg.stmt(n), Stmt::Assign { lhs, .. }
                    if lhs.var() == cfg.vars.lookup("x").unwrap())
            })
            .collect();
        assert_eq!(assigns.len(), 2);
        let (first, second) = (assigns[0], assigns[1]);
        // x := 0 receives access_x DIRECTLY from x := x + 1 — not from the
        // conditional's join.
        let srcs = sv.at(second, x);
        assert_eq!(srcs.len(), 1);
        assert_eq!(srcs[0].node, first, "token bypasses the if-then-else");
    }

    #[test]
    fn switched_lines_source_from_the_fork() {
        let (mut fctx, lc, lines, sp) = setup(cf2df_lang::corpus::FIG9);
        let sv = SourceVectors::compute(&mut fctx, &lc, &lines, &sp).unwrap();
        let cfg = fctx.cfg();
        let y = line_of(cfg, &lines, "y");
        let fork = cfg
            .node_ids()
            .find(|&n| matches!(cfg.stmt(n), Stmt::Branch { .. }))
            .unwrap();
        let then_node = cfg.succs(fork)[0];
        let srcs = sv.at(then_node, y);
        assert!(srcs.iter().any(|s| s.node == fork && s.dir == OutDir::TRUE));
    }

    #[test]
    fn loop_backedges_separated_from_entries() {
        let (mut fctx, lc, lines, sp) = setup(cf2df_lang::corpus::RUNNING_EXAMPLE);
        let sv = SourceVectors::compute(&mut fctx, &lc, &lines, &sp).unwrap();
        let cfg = fctx.cfg();
        let le = lc.entry_node[0];
        let x = line_of(cfg, &lines, "x");
        // Forward source: start. Backedge source: the loop branch.
        let fwd = sv.at(le, x);
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].node, cfg.start());
        let back = sv.back_at(le, x);
        assert_eq!(back.len(), 1);
        assert!(matches!(cfg.stmt(back[0].node), Stmt::Branch { .. }));
        assert_eq!(back[0].dir, OutDir::TRUE);
    }

    #[test]
    fn every_line_reaches_end() {
        for (name, src) in cf2df_lang::corpus::all() {
            let (mut fctx, lc, lines, sp) = setup(src);
            let sv = SourceVectors::compute(&mut fctx, &lc, &lines, &sp).unwrap();
            for l in lines.ids() {
                assert!(
                    !sv.at(fctx.cfg().end(), l).is_empty(),
                    "{name}: line {l:?} never reaches end"
                );
            }
        }
    }

    #[test]
    fn statement_sources_are_singletons() {
        // The paper: "If N is a switch which needs access_x or a statement
        // which refers to x, then each set SV_N(x) will have a single
        // element."
        for (name, src) in cf2df_lang::corpus::all() {
            let (mut fctx, lc, lines, sp) = setup(src);
            let sv = SourceVectors::compute(&mut fctx, &lc, &lines, &sp).unwrap();
            let cfg = fctx.cfg();
            for n in cfg.node_ids() {
                match cfg.stmt(n) {
                    Stmt::Assign { .. } => {
                        for &l in sp.refs(n) {
                            assert_eq!(
                                sv.at(n, l).len(),
                                1,
                                "{name}: {n:?} line {l:?} should have one source"
                            );
                        }
                    }
                    Stmt::Branch { .. } => {
                        for l in lines.ids() {
                            if sp.needs_switch(n, l) {
                                assert_eq!(sv.at(n, l).len(), 1, "{name}: switch {n:?} {l:?}");
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn unreferenced_line_goes_straight_to_end() {
        let (mut fctx, lc, lines, sp) =
            setup("alias q ~ q; x := 1; if x < 2 then { y := 1; } else { y := 2; }");
        let sv = SourceVectors::compute(&mut fctx, &lc, &lines, &sp).unwrap();
        let cfg = fctx.cfg();
        let q = line_of(cfg, &lines, "q");
        let srcs = sv.at(cfg.end(), q);
        assert_eq!(srcs.len(), 1);
        assert_eq!(srcs[0].node, cfg.start(), "q's token skips everything");
    }
}
