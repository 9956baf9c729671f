//! Recursive-descent parser for the Imp language.

use crate::ast::{AstExpr, AstLValue, AstStmt, Program};
use crate::error::LangError;
use crate::lexer::{lex, Spanned, Tok};
use cf2df_cfg::{BinOp, UnOp};

/// Parse source text into a [`Program`].
pub fn parse(src: &str) -> Result<Program, LangError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|s| s.line)
            .unwrap_or(0)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LangError> {
        Err(LangError::Parse {
            line: self.line(),
            msg: msg.into(),
        })
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), LangError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), LangError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword `{kw}`, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String, LangError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => self.err(format!("expected {what}, found {other:?}")),
        }
    }

    fn program(&mut self) -> Result<Program, LangError> {
        let mut prog = Program::default();
        // Declarations may appear anywhere at top level, but conventionally
        // lead the program.
        let mut body = Vec::new();
        while self.peek().is_some() {
            if self.is_kw("array") {
                self.pos += 1;
                let name = self.ident("array name")?;
                self.expect(&Tok::LBrack, "`[`")?;
                let len = match self.bump() {
                    Some(Tok::Int(n)) if n > 0 => n as u32,
                    _ => return self.err("expected positive array length"),
                };
                self.expect(&Tok::RBrack, "`]`")?;
                self.expect(&Tok::Semi, "`;`")?;
                prog.arrays.push((name, len));
            } else if self.is_kw("alias") {
                self.pos += 1;
                let a = self.ident("alias operand")?;
                self.expect(&Tok::Tilde, "`~`")?;
                let b = self.ident("alias operand")?;
                self.expect(&Tok::Semi, "`;`")?;
                prog.aliases.push((a, b));
            } else {
                body.push(self.stmt()?);
            }
        }
        prog.body = body;
        Ok(prog)
    }

    fn block(&mut self) -> Result<Vec<AstStmt>, LangError> {
        self.expect(&Tok::LBrace, "`{`")?;
        let mut out = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            if self.peek().is_none() {
                return self.err("unexpected end of input in block");
            }
            out.push(self.stmt()?);
        }
        self.pos += 1; // consume `}`
        Ok(out)
    }

    fn stmt(&mut self) -> Result<AstStmt, LangError> {
        let line = self.line();
        if self.is_kw("if") {
            self.pos += 1;
            let cond = self.expr()?;
            self.expect_kw("then")?;
            let then_body = self.block()?;
            let else_body = if self.eat_kw("else") {
                self.block()?
            } else {
                Vec::new()
            };
            return Ok(AstStmt::If {
                cond,
                then_body,
                else_body,
                line,
            });
        }
        if self.is_kw("while") {
            self.pos += 1;
            let cond = self.expr()?;
            self.expect_kw("do")?;
            let body = self.block()?;
            return Ok(AstStmt::While { cond, body, line });
        }
        if self.is_kw("for") {
            self.pos += 1;
            let var = self.ident("loop variable")?;
            self.expect(&Tok::Assign, "`:=`")?;
            let from = self.expr()?;
            self.expect_kw("to")?;
            let to = self.expr()?;
            self.expect_kw("do")?;
            let body = self.block()?;
            return Ok(AstStmt::For {
                var,
                from,
                to,
                body,
                line,
            });
        }
        if self.is_kw("case") {
            self.pos += 1;
            let selector = self.expr()?;
            self.expect_kw("of")?;
            self.expect(&Tok::LBrace, "`{`")?;
            let mut arms: Vec<Vec<AstStmt>> = Vec::new();
            let default = loop {
                if self.eat_kw("else") {
                    self.expect(&Tok::FatArrow, "`=>`")?;
                    break self.block()?;
                }
                match self.bump() {
                    Some(Tok::Int(n)) if n == arms.len() as i64 => {}
                    Some(Tok::Int(_)) => {
                        return self.err("case arms must be numbered 0, 1, 2, … in order")
                    }
                    _ => return self.err("expected an arm number or `else`"),
                }
                self.expect(&Tok::FatArrow, "`=>`")?;
                arms.push(self.block()?);
            };
            self.expect(&Tok::RBrace, "`}`")?;
            return Ok(AstStmt::Case {
                selector,
                arms,
                default,
                line,
            });
        }
        if self.is_kw("goto") {
            self.pos += 1;
            let label = self.ident("label")?;
            self.expect(&Tok::Semi, "`;`")?;
            return Ok(AstStmt::Goto { label, line });
        }
        if self.is_kw("skip") {
            self.pos += 1;
            self.expect(&Tok::Semi, "`;`")?;
            return Ok(AstStmt::Skip { line });
        }
        // Label: `ident :` (but not `ident :=`).
        if matches!(self.peek(), Some(Tok::Ident(_))) && self.peek2() == Some(&Tok::Colon) {
            let name = self.ident("label")?;
            self.pos += 1; // consume `:`
            return Ok(AstStmt::Label { name, line });
        }
        // Assignment: `ident := e;` or `ident [ e ] := e;`.
        let name = self.ident("statement")?;
        let lhs = if self.peek() == Some(&Tok::LBrack) {
            self.pos += 1;
            let idx = self.expr()?;
            self.expect(&Tok::RBrack, "`]`")?;
            AstLValue::Index(name, idx)
        } else {
            AstLValue::Var(name)
        };
        self.expect(&Tok::Assign, "`:=`")?;
        let rhs = self.expr()?;
        self.expect(&Tok::Semi, "`;`")?;
        Ok(AstStmt::Assign { lhs, rhs, line })
    }

    // Precedence climbing: || < && < comparisons < +- < */% < unary.
    fn expr(&mut self) -> Result<AstExpr, LangError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<AstExpr, LangError> {
        let mut l = self.and_expr()?;
        while self.peek() == Some(&Tok::OrOr) {
            self.pos += 1;
            let r = self.and_expr()?;
            l = AstExpr::bin(BinOp::Or, l, r);
        }
        Ok(l)
    }

    fn and_expr(&mut self) -> Result<AstExpr, LangError> {
        let mut l = self.cmp_expr()?;
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            let r = self.cmp_expr()?;
            l = AstExpr::bin(BinOp::And, l, r);
        }
        Ok(l)
    }

    fn cmp_expr(&mut self) -> Result<AstExpr, LangError> {
        let l = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::EqEq) => BinOp::Eq,
            Some(Tok::NotEq) => BinOp::Ne,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            _ => return Ok(l),
        };
        self.pos += 1;
        let r = self.add_expr()?;
        Ok(AstExpr::bin(op, l, r))
    }

    fn add_expr(&mut self) -> Result<AstExpr, LangError> {
        let mut l = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => return Ok(l),
            };
            self.pos += 1;
            let r = self.mul_expr()?;
            l = AstExpr::bin(op, l, r);
        }
    }

    fn mul_expr(&mut self) -> Result<AstExpr, LangError> {
        let mut l = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Rem,
                _ => return Ok(l),
            };
            self.pos += 1;
            let r = self.unary_expr()?;
            l = AstExpr::bin(op, l, r);
        }
    }

    fn unary_expr(&mut self) -> Result<AstExpr, LangError> {
        match self.peek() {
            Some(Tok::Minus) => {
                self.pos += 1;
                let e = self.unary_expr()?;
                Ok(AstExpr::Unary(UnOp::Neg, Box::new(e)))
            }
            Some(Tok::Bang) => {
                self.pos += 1;
                let e = self.unary_expr()?;
                Ok(AstExpr::Unary(UnOp::Not, Box::new(e)))
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> Result<AstExpr, LangError> {
        match self.peek().cloned() {
            Some(Tok::Int(n)) => {
                self.pos += 1;
                Ok(AstExpr::Const(n))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) if name == "min" || name == "max" => {
                // Builtin two-argument functions.
                if self.peek2() == Some(&Tok::LParen) {
                    self.pos += 2;
                    let a = self.expr()?;
                    self.expect(&Tok::Comma, "`,`")?;
                    let b = self.expr()?;
                    self.expect(&Tok::RParen, "`)`")?;
                    let op = if name == "min" {
                        BinOp::Min
                    } else {
                        BinOp::Max
                    };
                    return Ok(AstExpr::bin(op, a, b));
                }
                self.pos += 1;
                Ok(AstExpr::Var(name))
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                if self.peek() == Some(&Tok::LBrack) {
                    self.pos += 1;
                    let idx = self.expr()?;
                    self.expect(&Tok::RBrack, "`]`")?;
                    Ok(AstExpr::Index(name, Box::new(idx)))
                } else {
                    Ok(AstExpr::Var(name))
                }
            }
            other => self.err(format!("expected expression, found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_running_example() {
        let p = parse(crate::corpus::RUNNING_EXAMPLE).unwrap();
        assert_eq!(p.body.len(), 4); // label, two assigns, if
        assert!(matches!(&p.body[0], AstStmt::Label { name, .. } if name == "l"));
        assert!(matches!(&p.body[3], AstStmt::If { .. }));
    }

    #[test]
    fn precedence_mul_over_add() {
        let p = parse("x := 1 + 2 * 3;").unwrap();
        let AstStmt::Assign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        assert_eq!(
            *rhs,
            AstExpr::bin(
                BinOp::Add,
                AstExpr::Const(1),
                AstExpr::bin(BinOp::Mul, AstExpr::Const(2), AstExpr::Const(3))
            )
        );
    }

    #[test]
    fn precedence_cmp_and_logic() {
        let p = parse("x := a < b && c == d || e;").unwrap();
        let AstStmt::Assign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        // ((a<b) && (c==d)) || e
        let AstExpr::Binary(BinOp::Or, l, _) = rhs else {
            panic!("top is ||: {rhs:?}")
        };
        assert!(matches!(**l, AstExpr::Binary(BinOp::And, ..)));
    }

    #[test]
    fn parens_override() {
        let p = parse("x := (1 + 2) * 3;").unwrap();
        let AstStmt::Assign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        assert!(matches!(rhs, AstExpr::Binary(BinOp::Mul, ..)));
    }

    #[test]
    fn unary_operators_nest() {
        let p = parse("x := - - 3; y := !(a < b);").unwrap();
        assert_eq!(p.body.len(), 2);
        let AstStmt::Assign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        assert!(matches!(rhs, AstExpr::Unary(UnOp::Neg, _)));
    }

    #[test]
    fn min_max_builtins() {
        let p = parse("x := min(a, 3) + max(b, c);").unwrap();
        let AstStmt::Assign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        let AstExpr::Binary(BinOp::Add, l, r) = rhs else {
            panic!()
        };
        assert!(matches!(**l, AstExpr::Binary(BinOp::Min, ..)));
        assert!(matches!(**r, AstExpr::Binary(BinOp::Max, ..)));
    }

    #[test]
    fn declarations() {
        let p = parse("array a[8]; alias x ~ y; a[0] := 1;").unwrap();
        assert_eq!(p.arrays, vec![("a".into(), 8)]);
        assert_eq!(p.aliases, vec![("x".into(), "y".into())]);
        assert!(matches!(
            &p.body[0],
            AstStmt::Assign {
                lhs: AstLValue::Index(..),
                ..
            }
        ));
    }

    #[test]
    fn structured_statements() {
        let src = "while x < 10 do { for i := 1 to 3 do { x := x + i; } } if x > 5 then { skip; } else { goto done; } done: skip;";
        let p = parse(src).unwrap();
        assert!(matches!(&p.body[0], AstStmt::While { .. }));
        assert!(matches!(&p.body[1], AstStmt::If { .. }));
        assert!(matches!(&p.body[2], AstStmt::Label { .. }));
    }

    #[test]
    fn case_statement_parses() {
        let p = parse(
            "sel := 1; case sel of { 0 => { x := 1; } 1 => { x := 2; } else => { x := 3; } }",
        )
        .unwrap();
        let AstStmt::Case { arms, default, .. } = &p.body[1] else {
            panic!("expected case")
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(default.len(), 1);
    }

    #[test]
    fn case_arm_numbering_enforced() {
        // Arms out of order.
        assert!(parse("case x of { 1 => { skip; } else => { skip; } }").is_err());
        // Missing else.
        assert!(parse("case x of { 0 => { skip; } }").is_err());
        // else must be last (a numbered arm after else is a parse error).
        assert!(parse("case x of { else => { skip; } 0 => { skip; } }").is_err());
    }

    #[test]
    fn error_messages_carry_lines() {
        let err = parse("x := 1;\ny := ;\n").unwrap_err();
        assert!(matches!(err, LangError::Parse { line: 2, .. }), "{err:?}");
        let err2 = parse("array a[0];").unwrap_err();
        assert!(matches!(err2, LangError::Parse { .. }));
        let err3 = parse("if x then x := 1;").unwrap_err();
        assert!(matches!(err3, LangError::Parse { .. }));
    }

    #[test]
    fn array_read_in_expression() {
        let p = parse("x := a[i + 1] * 2;").unwrap();
        let AstStmt::Assign { rhs, .. } = &p.body[0] else {
            panic!()
        };
        let AstExpr::Binary(BinOp::Mul, l, _) = rhs else {
            panic!()
        };
        assert!(matches!(**l, AstExpr::Index(..)));
    }
}
