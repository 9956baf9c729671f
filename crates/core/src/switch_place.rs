//! Switch placement (§4.1, Fig 10).
//!
//! A fork `F` needs a switch for a token line `ℓ` iff some node referencing
//! `ℓ` lies *between* `F` and its immediate postdominator — equivalently
//! (Theorem 1) iff `F ∈ CD⁺(N)` for some `N` referencing `ℓ`. The worklist
//! algorithm of Fig 10 computes this from the control-dependence relation.
//!
//! Loops add a twist the paper leaves to the loop-control black boxes: a
//! line must *circulate* through a loop's entry/exit operators iff it is
//! referenced in the loop body **or** needs a switch at a fork inside the
//! body (its token must carry the loop's iteration tags to rendezvous with
//! the predicate there). Circulating lines make the loop-entry/exit
//! statements count as references, which can create new switch needs — a
//! monotone fixpoint, computed here.

use crate::lines::{LineId, Lines};
use cf2df_cfg::loop_control::LoopControlMeta;
use cf2df_cfg::{between, Cfg, DomTree, FunctionContext, NodeId, Stmt};

/// The per-line switch-placement and circulation solution, stored as
/// bitset rows of lines (`words` 64-bit words per row).
#[derive(Clone, Debug)]
pub struct SwitchPlacement {
    words: usize,
    /// Row `f` — the lines needing a switch at fork `f`.
    needs: Vec<u64>,
    /// Row `loop` — the lines circulating through the loop's entry/exit
    /// operators.
    circ: Vec<u64>,
    /// Lines referenced by node `n`, ascending, are
    /// `ref_lines[ref_start[n]..ref_start[n + 1]]`: the statement's
    /// access-set lines, or for loop-entry/exit statements the loop's
    /// circulating lines at the fixpoint.
    ref_start: Vec<u32>,
    ref_lines: Vec<LineId>,
}

impl SwitchPlacement {
    /// Does fork `f` need a switch for line `l`?
    pub fn needs_switch(&self, f: NodeId, l: LineId) -> bool {
        has_bit(self.row(&self.needs, f.index()), l.index())
    }

    /// Lines needing a switch at fork `f`, in id order.
    pub fn switch_lines(&self, f: NodeId) -> impl Iterator<Item = LineId> + '_ {
        bits(self.row(&self.needs, f.index()))
    }

    /// Does line `l` circulate through loop `loop_idx`?
    pub fn circulates(&self, loop_idx: usize, l: LineId) -> bool {
        has_bit(self.row(&self.circ, loop_idx), l.index())
    }

    /// Lines referenced by a node under the fixpoint (loop-control nodes
    /// reference their circulating lines), in id order.
    pub fn refs(&self, n: NodeId) -> &[LineId] {
        let i = n.index();
        &self.ref_lines[self.ref_start[i] as usize..self.ref_start[i + 1] as usize]
    }

    /// Total switches the optimized construction will create.
    pub fn total_switches(&self) -> usize {
        self.needs.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn row<'a>(&self, table: &'a [u64], i: usize) -> &'a [u64] {
        &table[i * self.words..][..self.words]
    }

    /// Compute switch placement and circulation for the loop-controlled
    /// CFG in `fctx`, drawing control dependence (and its postdominator
    /// input) from the context's cache.
    ///
    /// Fig 10 marks, per line, `CD⁺` of the nodes referencing it. Here
    /// every line is handled at once: each node's referenced-line row is
    /// pushed along its control-dependence edges by a worklist until the
    /// rows stop growing, which leaves at each fork `F` the lines of every
    /// `N` with `F ∈ CD⁺(N)`.
    pub fn compute(
        fctx: &mut FunctionContext,
        meta: &LoopControlMeta,
        lines: &Lines,
    ) -> SwitchPlacement {
        let cd = fctx.control_deps();
        let cfg = fctx.cfg();
        let n = cfg.len();
        let words = lines.n().div_ceil(64);

        // Base references: statements' access-set lines, one row per node.
        let mut base = vec![0u64; n * words];
        for v in cfg.node_ids() {
            let row = &mut base[v.index() * words..][..words];
            for var in cfg.stmt(v).referenced_vars() {
                for l in lines.access_lines(var) {
                    set_bit(row, l.index());
                }
            }
        }
        // Loop-entry/exit statements reference their loop's circulating
        // lines instead.
        let loop_of = |v: NodeId| match cfg.stmt(v) {
            Stmt::LoopEntry { loop_id } | Stmt::LoopExit { loop_id } => Some(loop_id.index()),
            _ => None,
        };
        let switchable = |v: NodeId| cfg.stmt(v).is_fork() && v != cfg.start();

        // circ starts as "referenced in the original loop body".
        let n_loops = meta.forest.len();
        let mut circ = vec![0u64; n_loops * words];
        for (lid, info) in meta.forest.iter() {
            let row = &mut circ[lid.index() * words..][..words];
            for &b in &info.body {
                or_into(row, &base[b.index() * words..][..words]);
            }
        }

        // `acc` row f: the lines of every node N with f ∈ CD⁺(N). Rows only
        // grow as circulation grows, so each round resumes from the last
        // one's rows and re-queues only the loop-control nodes whose
        // references grew.
        let mut acc = vec![0u64; n * words];
        let mut out = vec![0u64; words];
        let mut queued = vec![false; n];
        let mut work: Vec<NodeId> = Vec::new();
        for v in cfg.node_ids() {
            if loop_of(v).is_some() || base[v.index() * words..][..words].iter().any(|&w| w != 0) {
                queued[v.index()] = true;
                work.push(v);
            }
        }
        let mut grew = vec![false; n_loops];
        loop {
            while let Some(v) = work.pop() {
                queued[v.index()] = false;
                let own = match loop_of(v) {
                    Some(lp) => &circ[lp * words..][..words],
                    None => &base[v.index() * words..][..words],
                };
                for ((o, &r), &a) in out.iter_mut().zip(own).zip(&acc[v.index() * words..]) {
                    *o = r | a;
                }
                for &f in cd.deps_of(v) {
                    let grown = or_into(&mut acc[f.index() * words..][..words], &out);
                    if grown && !queued[f.index()] {
                        queued[f.index()] = true;
                        work.push(f);
                    }
                }
            }

            // Grow circulation: switched-at-a-fork-inside-the-body, then
            // upward closure (a line circulating in an inner loop must
            // circulate in every enclosing loop). Parents sort after their
            // children, so one pass in forest order closes it.
            grew.fill(false);
            for (lid, info) in meta.forest.iter() {
                let row = &mut circ[lid.index() * words..][..words];
                for &b in &info.body {
                    if switchable(b) {
                        grew[lid.index()] |= or_into(row, &acc[b.index() * words..][..words]);
                    }
                }
            }
            for (lid, info) in meta.forest.iter() {
                if let Some(parent) = info.parent {
                    let (inner, outer) = circ.split_at_mut(parent.index() * words);
                    grew[parent.index()] |=
                        or_into(&mut outer[..words], &inner[lid.index() * words..][..words]);
                }
            }
            if !grew.contains(&true) {
                break;
            }
            for v in cfg.node_ids() {
                if loop_of(v).is_some_and(|lp| grew[lp]) && !queued[v.index()] {
                    queued[v.index()] = true;
                    work.push(v);
                }
            }
        }

        // `start` is a fork only by the start→end convention; its
        // "switch" has a constant predicate, so tokens are emitted
        // directly instead (Fig 11's start case).
        for v in cfg.node_ids() {
            if !switchable(v) {
                acc[v.index() * words..][..words].fill(0);
            }
        }
        let mut ref_start = Vec::with_capacity(n + 1);
        let mut ref_lines = Vec::new();
        ref_start.push(0);
        for v in cfg.node_ids() {
            let row = match loop_of(v) {
                Some(lp) => &circ[lp * words..][..words],
                None => &base[v.index() * words..][..words],
            };
            ref_lines.extend(bits(row));
            ref_start.push(ref_lines.len() as u32);
        }
        SwitchPlacement {
            words,
            needs: acc,
            circ,
            ref_start,
            ref_lines,
        }
    }
}

// Row helpers. Certify's Theorem 1 oracle keeps its own copies, so the
// two placements share no code and no failure modes.

fn set_bit(row: &mut [u64], i: usize) {
    row[i / 64] |= 1 << (i % 64);
}

fn has_bit(row: &[u64], i: usize) -> bool {
    row[i / 64] >> (i % 64) & 1 != 0
}

/// `dst |= src`; returns whether `dst` grew.
fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
    let mut grew = false;
    for (d, &s) in dst.iter_mut().zip(src) {
        grew |= s & !*d != 0;
        *d |= s;
    }
    grew
}

/// The lines of a row, ascending.
fn bits(row: &[u64]) -> impl Iterator<Item = LineId> + '_ {
    row.iter().enumerate().flat_map(|(i, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros();
                w &= w - 1;
                LineId(i as u32 * 64 + bit)
            })
        })
    })
}

/// Brute-force oracle for Definition 3 via Definition 1: fork `f` needs a
/// switch for line `l` iff some node referencing `l` (under the given
/// reference sets) is between `f` and `ipostdom(f)`. Used in tests to
/// validate the worklist algorithm (Theorem 1).
pub fn needs_switch_bruteforce(
    cfg: &Cfg,
    refs: &dyn Fn(NodeId) -> Vec<LineId>,
    f: NodeId,
    l: LineId,
) -> bool {
    let pd = DomTree::postdominators(cfg);
    cfg.node_ids()
        .any(|n| refs(n).contains(&l) && between(cfg, &pd, f, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::loop_controlled;

    #[test]
    fn fig9_x_bypasses_the_conditional() {
        let (mut fctx, lc, lines) = loop_controlled(cf2df_lang::corpus::FIG9, false);
        let sp = SwitchPlacement::compute(&mut fctx, &lc, &lines);
        let cfg = fctx.cfg();
        let fork = cfg
            .node_ids()
            .find(|&n| matches!(cfg.stmt(n), Stmt::Branch { .. }))
            .unwrap();
        let var = |name: &str| {
            let v = cfg.vars.lookup(name).unwrap();
            lines.access_lines(v)[0]
        };
        // x is not referenced inside the conditional: no switch for it.
        assert!(!sp.needs_switch(fork, var("x")));
        // y and z are assigned inside the arms: switches needed.
        assert!(sp.needs_switch(fork, var("y")));
        assert!(sp.needs_switch(fork, var("z")));
        // w is only read by the predicate *at* the fork, not between the
        // fork and its postdominator: no switch for w either.
        assert!(!sp.needs_switch(fork, var("w")));
        assert_eq!(sp.total_switches(), 2);
    }

    #[test]
    fn refs_are_the_access_set_lines_of_the_statement() {
        // X ~ Z and Y ~ Z: X := Y reads Y and writes X, so it references
        // C[X] ∪ C[Y] = {X,Z} ∪ {Y,Z}, every line, in id order.
        let (mut fctx, lc, lines) = loop_controlled("alias X ~ Z; alias Y ~ Z; X := Y;", false);
        let sp = SwitchPlacement::compute(&mut fctx, &lc, &lines);
        let cfg = fctx.cfg();
        let var = |name: &str| cfg.vars.lookup(name).unwrap();
        assert_eq!(lines.access_lines(var("X")).len(), 2);
        assert_eq!(lines.access_lines(var("Y")).len(), 2);
        let assign = cfg
            .node_ids()
            .find(|&n| matches!(cfg.stmt(n), Stmt::Assign { .. }))
            .unwrap();
        assert_eq!(sp.refs(assign), &[LineId(0), LineId(1), LineId(2)]);
        assert!(sp.refs(cfg.start()).is_empty());
        assert!(sp.refs(cfg.end()).is_empty());
    }

    #[test]
    fn loop_lines_circulate() {
        let (mut fctx, lc, lines) = loop_controlled(cf2df_lang::corpus::RUNNING_EXAMPLE, false);
        let sp = SwitchPlacement::compute(&mut fctx, &lc, &lines);
        // Both x and y are referenced in the body: both circulate, and the
        // loop branch needs switches for both.
        let cfg = fctx.cfg();
        let br = cfg
            .node_ids()
            .find(|&n| matches!(cfg.stmt(n), Stmt::Branch { .. }))
            .unwrap();
        for l in lines.ids() {
            assert!(sp.circulates(0, l));
            assert!(sp.needs_switch(br, l));
        }
        // Loop-entry node references both lines at the fixpoint.
        let le = lc.entry_node[0];
        assert_eq!(sp.refs(le).len(), 2);
    }

    #[test]
    fn variable_unused_in_loop_does_not_circulate() {
        let src = "
            u := 1;
            x := 0;
            while x < 4 do { x := x + 1; }
            u := u + x;
        ";
        let (mut fctx, lc, lines) = loop_controlled(src, false);
        let sp = SwitchPlacement::compute(&mut fctx, &lc, &lines);
        let cfg = fctx.cfg();
        let u_line = lines.access_lines(cfg.vars.lookup("u").unwrap())[0];
        let x_line = lines.access_lines(cfg.vars.lookup("x").unwrap())[0];
        assert!(!sp.circulates(0, u_line), "u bypasses the loop");
        assert!(sp.circulates(0, x_line));
        let br = cfg
            .node_ids()
            .find(|&n| matches!(cfg.stmt(n), Stmt::Branch { .. }))
            .unwrap();
        assert!(!sp.needs_switch(br, u_line));
        assert!(sp.needs_switch(br, x_line));
    }

    #[test]
    fn worklist_matches_bruteforce_on_corpus() {
        for (name, src) in cf2df_lang::corpus::all() {
            let (mut fctx, lc, lines) = loop_controlled(src, false);
            let sp = SwitchPlacement::compute(&mut fctx, &lc, &lines);
            let cfg = fctx.cfg();
            // Oracle uses the *fixpoint* reference sets (so circulation is
            // taken as given) — this checks the CD⁺ computation itself.
            let refs = |n: NodeId| sp.refs(n).to_vec();
            for f in cfg.node_ids() {
                // Skip `start`: the algorithm exempts it by convention.
                if !cfg.stmt(f).is_fork() || f == cfg.start() {
                    continue;
                }
                for l in lines.ids() {
                    assert_eq!(
                        sp.needs_switch(f, l),
                        needs_switch_bruteforce(cfg, &refs, f, l),
                        "{name}: fork {f:?}, line {l:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn nested_loop_circulation_is_upward_closed() {
        let src = "
            s := 0;
            for i := 1 to 3 do {
                for j := 1 to 3 do {
                    s := s + j;
                }
            }
        ";
        let (mut fctx, lc, lines) = loop_controlled(src, false);
        let sp = SwitchPlacement::compute(&mut fctx, &lc, &lines);
        // j and s circulate in the inner loop; therefore also in the outer.
        let cfg = fctx.cfg();
        let j_line = lines.access_lines(cfg.vars.lookup("j").unwrap())[0];
        let s_line = lines.access_lines(cfg.vars.lookup("s").unwrap())[0];
        // Inner loops sort first.
        assert!(sp.circulates(0, j_line));
        assert!(sp.circulates(0, s_line));
        assert!(sp.circulates(1, j_line), "upward closure");
        assert!(sp.circulates(1, s_line));
    }

    #[test]
    fn aliasing_extends_switch_needs() {
        // p ~ q: an assignment to p inside the conditional forces switches
        // for both p's and q's lines.
        let src = "
            alias p ~ q;
            p := 1; q := 2; c := 0;
            if c == 0 then { p := 3; } else { skip; }
            r := q;
        ";
        let (mut fctx, lc, lines) = loop_controlled(src, false);
        let sp = SwitchPlacement::compute(&mut fctx, &lc, &lines);
        let cfg = fctx.cfg();
        let fork = cfg
            .node_ids()
            .find(|&n| matches!(cfg.stmt(n), Stmt::Branch { .. }))
            .unwrap();
        let p_line = lines.access_lines(cfg.vars.lookup("p").unwrap())[0];
        let q_line = lines.access_lines(cfg.vars.lookup("q").unwrap())[0];
        assert!(sp.needs_switch(fork, p_line));
        assert!(
            sp.needs_switch(fork, q_line),
            "store to p collects q's token inside the arm"
        );
    }
}
