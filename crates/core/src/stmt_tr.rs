//! Statement translation: the read/write blocks of Figs 3–4 (Schema 1),
//! 6–7 (Schema 2) and 12–13 (Schema 3), shared by the full and optimized
//! constructions.
//!
//! A memory operation on variable `x`:
//!
//! 1. collects the access tokens of every line in `C[x]` (a synch tree when
//!    there is more than one — Fig 13);
//! 2. fires split-phase;
//! 3. regenerates all collected tokens from its completion output.
//!
//! Expression subgraphs are pure dataflow over the loaded values; constants
//! fold into immediate operands. Within one statement each scalar variable
//! is loaded at most once (the paper's read block), and its value fans out
//! to all uses.

use crate::lines::{LineId, LineMode, Lines};
use cf2df_cfg::{Expr, LValue, VarId};
use cf2df_dfg::build::{synch_flat, synch_tree};
use cf2df_dfg::{ArcKind, Dfg, OpId, OpKind, Port};

/// A compiled operand: either a constant (becomes an immediate slot) or a
/// port carrying the value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// Compile-time constant.
    Imm(i64),
    /// Value produced at a port.
    P(Port),
}

/// Per-statement translation context. `cur[l]` holds the current source
/// port of line `l`'s token; lines not participating are `None`.
pub struct StmtCtx<'a> {
    /// The graph under construction.
    pub g: &'a mut Dfg,
    /// Line structure.
    pub lines: &'a Lines,
    /// Current token source per line.
    pub cur: &'a mut Vec<Option<Port>>,
    /// Scalars already read by this statement (a handful at most, so a
    /// linear search beats hashing).
    loaded: Vec<(VarId, Operand)>,
}

impl<'a> StmtCtx<'a> {
    /// Create a context over the given line state.
    pub fn new(g: &'a mut Dfg, lines: &'a Lines, cur: &'a mut Vec<Option<Port>>) -> Self {
        StmtCtx {
            g,
            lines,
            cur,
            loaded: Vec::new(),
        }
    }

    fn take_line(&mut self, l: LineId) -> Port {
        self.cur[l.index()]
            .take()
            .unwrap_or_else(|| panic!("line {l:?} has no current token at this statement"))
    }

    /// Thread a memory operation on `v` through its access set: collect the
    /// tokens, feed the op's access input, and regenerate every token from
    /// the op's access output.
    fn thread_mem(&mut self, v: VarId, op: OpId, in_port: usize, out_port: usize) {
        let lines = self.lines;
        let ls = lines.access_lines(v);
        debug_assert!(!ls.is_empty(), "every variable has an access set");
        let gathered = if let [l] = *ls {
            // A single token needs no synch.
            self.take_line(l)
        } else {
            let ins: Vec<Port> = ls.iter().map(|&l| self.take_line(l)).collect();
            if lines.flat_synch() {
                synch_flat(self.g, &ins, ArcKind::Access)
            } else {
                synch_tree(self.g, &ins, ArcKind::Access)
            }
            .expect("non-empty access set")
        };
        self.g
            .connect(gathered, Port::new(op, in_port), ArcKind::Access);
        for &l in ls {
            self.cur[l.index()] = Some(Port::new(op, out_port));
        }
    }

    /// Read a scalar variable, returning its value operand. Cached per
    /// statement.
    pub fn read_scalar(&mut self, v: VarId) -> Operand {
        if let Some(&(_, op)) = self.loaded.iter().find(|(u, _)| *u == v) {
            return op;
        }
        let ls = self.lines.access_lines(v);
        let operand = if let [l] = ls[..] {
            if let LineMode::Value(lv) = self.lines.mode(l) {
                debug_assert_eq!(lv, v);
                // Value mode: tap the token (it is not consumed).
                let p = self.cur[l.index()]
                    .unwrap_or_else(|| panic!("value line {l:?} missing at read"));
                let op = Operand::P(p);
                self.loaded.push((v, op));
                return op;
            }
            let ld = self.g.add(OpKind::Load { var: v });
            self.thread_mem(v, ld, 0, 1);
            Operand::P(Port::new(ld, 0))
        } else {
            let ld = self.g.add(OpKind::Load { var: v });
            self.thread_mem(v, ld, 0, 1);
            Operand::P(Port::new(ld, 0))
        };
        self.loaded.push((v, operand));
        operand
    }

    /// Read an array element `v[idx]`.
    pub fn read_element(&mut self, v: VarId, idx: Operand) -> Operand {
        let ld = self.g.add(OpKind::LoadIdx { var: v });
        self.feed(ld, 0, idx, ArcKind::Value);
        self.thread_mem(v, ld, 1, 1);
        Operand::P(Port::new(ld, 0))
    }

    /// Write a scalar variable.
    pub fn write_scalar(&mut self, v: VarId, value: Operand) {
        let ls = self.lines.access_lines(v);
        if let [l] = ls[..] {
            if let LineMode::Value(_) = self.lines.mode(l) {
                // §6.1: replace the value token. The old token triggers the
                // gate so exactly one new token is produced per execution.
                let old = self.take_line(l);
                let gate = self.g.add(OpKind::Gate);
                self.feed(gate, 0, value, ArcKind::Value);
                self.g.connect(old, Port::new(gate, 1), ArcKind::Value);
                self.cur[l.index()] = Some(Port::new(gate, 0));
                return;
            }
        }
        let st = self.g.add(OpKind::Store { var: v });
        self.feed(st, 0, value, ArcKind::Value);
        self.thread_mem(v, st, 1, 0);
    }

    /// Write an array element `v[idx] := value`.
    pub fn write_element(&mut self, v: VarId, idx: Operand, value: Operand) {
        let st = self.g.add(OpKind::StoreIdx { var: v });
        self.feed(st, 0, idx, ArcKind::Value);
        self.feed(st, 1, value, ArcKind::Value);
        self.thread_mem(v, st, 2, 0);
    }

    /// Feed an operand into an input port: immediates become literal slots,
    /// ports become arcs.
    pub fn feed(&mut self, op: OpId, port: usize, operand: Operand, kind: ArcKind) {
        match operand {
            Operand::Imm(c) => self.g.set_imm(op, port, c),
            Operand::P(p) => self.g.connect(p, Port::new(op, port), kind),
        }
    }

    /// Compile a pure expression into the graph, with constant folding.
    pub fn compile(&mut self, e: &Expr) -> Operand {
        match e {
            Expr::Const(c) => Operand::Imm(*c),
            Expr::Var(v) => self.read_scalar(*v),
            Expr::Index(v, idx) => {
                let i = self.compile(idx);
                self.read_element(*v, i)
            }
            Expr::Unary(op, inner) => {
                let v = self.compile(inner);
                match v {
                    Operand::Imm(c) => Operand::Imm(op.eval(c)),
                    Operand::P(p) => {
                        let o = self.g.add(OpKind::Unary { op: *op });
                        self.g.connect(p, Port::new(o, 0), ArcKind::Value);
                        Operand::P(Port::new(o, 0))
                    }
                }
            }
            Expr::Binary(op, l, r) => {
                let lv = self.compile(l);
                let rv = self.compile(r);
                match (lv, rv) {
                    (Operand::Imm(a), Operand::Imm(b)) => Operand::Imm(op.eval(a, b)),
                    _ => {
                        let o = self.g.add(OpKind::Binary { op: *op });
                        self.feed(o, 0, lv, ArcKind::Value);
                        self.feed(o, 1, rv, ArcKind::Value);
                        Operand::P(Port::new(o, 0))
                    }
                }
            }
        }
    }

    /// Translate an assignment statement (reads then write, per Fig 7's
    /// read block followed by the store).
    pub fn assign(&mut self, lhs: &LValue, rhs: &Expr) {
        let value = self.compile(rhs);
        match lhs {
            LValue::Var(v) => self.write_scalar(*v, value),
            LValue::Index(v, idx) => {
                let i = self.compile(idx);
                self.write_element(*v, i, value);
            }
        }
    }
}

/// Translate a fork's selector and create one switch per given line.
/// `n_dirs == 2` produces the paper's binary `switch`; larger arities
/// produce the multi-way `case` switch of footnote 3. Returns each
/// switched line with its switch, whose output port `i` is out-direction
/// `i`. The selector value fans out to every switch.
pub fn translate_fork(
    g: &mut Dfg,
    lines: &Lines,
    cur: &mut Vec<Option<Port>>,
    selector: &Expr,
    n_dirs: usize,
    switch_lines: &[LineId],
) -> Vec<(LineId, OpId)> {
    debug_assert!(n_dirs >= 2, "forks have at least two out-directions");
    let p = {
        let mut ctx = StmtCtx::new(g, lines, cur);
        ctx.compile(selector)
    };
    let mut out = Vec::with_capacity(switch_lines.len());
    for &l in switch_lines {
        let data = cur[l.index()]
            .take()
            .unwrap_or_else(|| panic!("line {l:?} missing at switch"));
        let sw = if n_dirs == 2 {
            g.add(OpKind::Switch)
        } else {
            g.add(OpKind::CaseSwitch {
                arms: n_dirs as u32,
            })
        };
        let kind = if lines.is_value(l) {
            ArcKind::Value
        } else {
            ArcKind::Access
        };
        g.connect(data, Port::new(sw, 0), kind);
        match p {
            Operand::Imm(c) => g.set_imm(sw, 1, c),
            Operand::P(pp) => g.connect(pp, Port::new(sw, 1), ArcKind::Value),
        }
        out.push((l, sw));
    }
    out
}

/// Binary-fork convenience wrapper over [`translate_fork`].
pub fn translate_branch(
    g: &mut Dfg,
    lines: &Lines,
    cur: &mut Vec<Option<Port>>,
    pred: &Expr,
    switch_lines: &[LineId],
) -> Vec<(LineId, Port, Port)> {
    translate_fork(g, lines, cur, pred, 2, switch_lines)
        .into_iter()
        .map(|(l, sw)| (l, Port::new(sw, 0), Port::new(sw, 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::{AliasStructure, BinOp, Cover, CoverStrategy, VarTable};

    fn setup(n_scalars: usize) -> (VarTable, Lines) {
        let mut t = VarTable::new();
        for i in 0..n_scalars {
            t.scalar(&format!("v{i}"));
        }
        let a = AliasStructure::for_table(&t);
        let cover = Cover::build(&CoverStrategy::Singletons, &a);
        let lines = Lines::new(&t, &a, &cover, false);
        (t, lines)
    }

    fn seeded(g: &mut Dfg, n: usize) -> Vec<Option<Port>> {
        let s = g.add(OpKind::Start);
        (0..n).map(|_| Some(Port::new(s, 0))).collect()
    }

    #[test]
    fn constant_folding_no_ops() {
        let (_, lines) = setup(1);
        let mut g = Dfg::new();
        let mut cur = seeded(&mut g, 1);
        let mut ctx = StmtCtx::new(&mut g, &lines, &mut cur);
        let e = Expr::bin(
            BinOp::Mul,
            Expr::bin(BinOp::Add, Expr::Const(2), Expr::Const(3)),
            Expr::Const(4),
        );
        assert_eq!(ctx.compile(&e), Operand::Imm(20));
        assert_eq!(g.len(), 1, "no operators created for constants");
    }

    #[test]
    fn scalar_read_is_cached_per_statement() {
        let (_, lines) = setup(1);
        let mut g = Dfg::new();
        let mut cur = seeded(&mut g, 1);
        let mut ctx = StmtCtx::new(&mut g, &lines, &mut cur);
        // v0 * v0: one load, value fans out.
        let e = Expr::bin(BinOp::Mul, Expr::Var(VarId(0)), Expr::Var(VarId(0)));
        ctx.compile(&e);
        let loads = g
            .op_ids()
            .filter(|&o| matches!(g.kind(o), OpKind::Load { .. }))
            .count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn assignment_threads_token_through_load_then_store() {
        let (_, lines) = setup(1);
        let mut g = Dfg::new();
        let mut cur = seeded(&mut g, 1);
        let mut ctx = StmtCtx::new(&mut g, &lines, &mut cur);
        // v0 := v0 + 1
        ctx.assign(
            &LValue::Var(VarId(0)),
            &Expr::bin(BinOp::Add, Expr::Var(VarId(0)), Expr::Const(1)),
        );
        // Ops: load, add, store. Token now sourced at the store.
        assert_eq!(g.len(), 4); // start + 3
        let st = g
            .op_ids()
            .find(|&o| matches!(g.kind(o), OpKind::Store { .. }))
            .unwrap();
        assert_eq!(cur[0], Some(Port::new(st, 0)));
        // The add's constant folded into an immediate.
        let add = g
            .op_ids()
            .find(|&o| matches!(g.kind(o), OpKind::Binary { .. }))
            .unwrap();
        assert_eq!(g.imm(add, 1), Some(1));
    }

    #[test]
    fn aliased_store_collects_multiple_tokens() {
        // X ~ Z: a store to X gathers lines of X and Z via a synch.
        let mut t = VarTable::new();
        let x = t.scalar("X");
        let z = t.scalar("Z");
        let mut a = AliasStructure::for_table(&t);
        a.relate(x, z);
        let cover = Cover::build(&CoverStrategy::Singletons, &a);
        let lines = Lines::new(&t, &a, &cover, false);
        let mut g = Dfg::new();
        let mut cur = seeded(&mut g, 2);
        let mut ctx = StmtCtx::new(&mut g, &lines, &mut cur);
        ctx.assign(&LValue::Var(x), &Expr::Const(7));
        let synchs = g
            .op_ids()
            .filter(|&o| matches!(g.kind(o), OpKind::Synch { .. }))
            .count();
        assert_eq!(synchs, 1, "two tokens collected through one synch");
        // Both lines regenerate from the store's completion.
        let st = g
            .op_ids()
            .find(|&o| matches!(g.kind(o), OpKind::Store { .. }))
            .unwrap();
        assert_eq!(cur[0], Some(Port::new(st, 0)));
        assert_eq!(cur[1], Some(Port::new(st, 0)));
    }

    #[test]
    fn value_mode_write_gates_on_old_token() {
        let mut t = VarTable::new();
        let v = t.scalar("v");
        let a = AliasStructure::for_table(&t);
        let cover = Cover::build(&CoverStrategy::Singletons, &a);
        let lines = Lines::new(&t, &a, &cover, true);
        let mut g = Dfg::new();
        let mut cur = seeded(&mut g, 1);
        let mut ctx = StmtCtx::new(&mut g, &lines, &mut cur);
        ctx.assign(&LValue::Var(v), &Expr::Const(5));
        // No load/store; a single gate with imm value 5.
        let gate = g
            .op_ids()
            .find(|&o| matches!(g.kind(o), OpKind::Gate))
            .expect("gate created");
        assert_eq!(g.imm(gate, 0), Some(5));
        assert_eq!(cur[0], Some(Port::new(gate, 0)));
        assert!(!g.op_ids().any(|o| g.kind(o).is_memory()));
    }

    #[test]
    fn value_mode_self_increment_taps_old_value() {
        let mut t = VarTable::new();
        let v = t.scalar("v");
        let a = AliasStructure::for_table(&t);
        let cover = Cover::build(&CoverStrategy::Singletons, &a);
        let lines = Lines::new(&t, &a, &cover, true);
        let mut g = Dfg::new();
        let mut cur = seeded(&mut g, 1);
        let mut ctx = StmtCtx::new(&mut g, &lines, &mut cur);
        ctx.assign(
            &LValue::Var(v),
            &Expr::bin(BinOp::Add, Expr::Var(v), Expr::Const(1)),
        );
        // add (tapping the old token) + gate; no memory ops.
        assert!(!g.op_ids().any(|o| g.kind(o).is_memory()));
        assert_eq!(
            g.op_ids()
                .filter(|&o| matches!(g.kind(o), OpKind::Binary { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn branch_switches_share_one_predicate() {
        let (_, lines) = setup(3);
        let mut g = Dfg::new();
        let mut cur = seeded(&mut g, 3);
        // pred: v0 < 5; switch all three lines.
        let all: Vec<LineId> = lines.ids().collect();
        let outs = translate_branch(
            &mut g,
            &lines,
            &mut cur,
            &Expr::bin(BinOp::Lt, Expr::Var(VarId(0)), Expr::Const(5)),
            &all,
        );
        assert_eq!(outs.len(), 3);
        let switches = g
            .op_ids()
            .filter(|&o| matches!(g.kind(o), OpKind::Switch))
            .count();
        assert_eq!(switches, 3);
        let cmps = g
            .op_ids()
            .filter(|&o| matches!(g.kind(o), OpKind::Binary { .. }))
            .count();
        assert_eq!(cmps, 1, "predicate computed once, fans out");
        // All lines were consumed by their switches.
        assert!(cur.iter().all(|c| c.is_none()));
    }

    #[test]
    fn array_write_reads_subscript_and_threads_array_line() {
        let mut t = VarTable::new();
        let i = t.scalar("i");
        let arr = t.array("arr", 8);
        let a = AliasStructure::for_table(&t);
        let cover = Cover::build(&CoverStrategy::Singletons, &a);
        let lines = Lines::new(&t, &a, &cover, false);
        let mut g = Dfg::new();
        let mut cur = seeded(&mut g, 2);
        let mut ctx = StmtCtx::new(&mut g, &lines, &mut cur);
        // arr[i] := arr[i+1]
        ctx.assign(
            &LValue::Index(arr, Expr::Var(i)),
            &Expr::index(arr, Expr::bin(BinOp::Add, Expr::Var(i), Expr::Const(1))),
        );
        let stats = cf2df_dfg::DfgStats::of(&g);
        assert_eq!(stats.loads, 2); // load i, load arr[i+1]
        assert_eq!(stats.stores, 1);
        // The array line threads load→store; i's line threads its load.
        let st = g
            .op_ids()
            .find(|&o| matches!(g.kind(o), OpKind::StoreIdx { .. }))
            .unwrap();
        assert_eq!(cur[lines.access_lines(arr)[0].index()], Some(Port::new(st, 0)));
    }
}
