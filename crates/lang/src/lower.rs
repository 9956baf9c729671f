//! Lowering the AST to the statement-level control-flow graph of §2.1.
//!
//! Structured constructs desugar into forks and joins; labels become join
//! nodes (the only legal targets of gotos, per the paper); `goto end`
//! targets the CFG's `end` node. The lowerer maintains a *frontier* of
//! dangling out-edges; whenever two or more dangling edges would converge
//! on a non-join node, an explicit join is inserted, preserving the
//! invariant that only joins (and loop entries, later) have multiple
//! predecessors.

use crate::ast::{AstExpr, AstLValue, AstStmt, Program};
use crate::error::LangError;
use cf2df_cfg::{AliasStructure, Cfg, Expr, LValue, NodeId, Stmt, VarTable};
use std::collections::HashMap;

/// The result of lowering: a validated CFG plus the declared alias
/// structure over its variables.
#[derive(Clone, Debug)]
pub struct Parsed {
    /// The control-flow graph (validated).
    pub cfg: Cfg,
    /// The alias structure declared with `alias x ~ y;` statements.
    pub alias: AliasStructure,
}

/// Lower a parsed program to a CFG, checking labels, array usage, and the
/// structural invariants of §2.1.
pub fn lower(program: &Program) -> Result<Parsed, LangError> {
    let mut vars = VarTable::new();
    for (name, len) in &program.arrays {
        if vars.lookup(name).is_some() {
            return Err(LangError::DuplicateArray(name.clone()));
        }
        vars.array(name, *len);
    }
    let mut lw = Lowerer {
        cfg: Cfg::new(vars),
        arrays: program.arrays.iter().map(|(n, _)| n.clone()).collect(),
        frontier: Vec::new(),
        labels: HashMap::new(),
    };
    lw.frontier.push((lw.cfg.start(), 0));
    lw.seq(&program.body)?;
    let end = lw.cfg.end();
    lw.attach(end);

    // Every referenced label must have been placed.
    for (name, l) in &lw.labels {
        if !l.placed {
            return Err(LangError::UndefinedLabel(name.clone()));
        }
    }

    // Alias declarations (names not seen yet are interned as scalars).
    let mut cfg = lw.cfg;
    let mut pairs = Vec::new();
    for (a, b) in &program.aliases {
        let va = cfg.vars.lookup(a).unwrap_or_else(|| cfg.vars.scalar(a));
        let vb = cfg.vars.lookup(b).unwrap_or_else(|| cfg.vars.scalar(b));
        pairs.push((va, vb));
    }
    let mut alias = AliasStructure::for_table(&cfg.vars);
    for (a, b) in pairs {
        alias.relate(a, b);
    }

    cfg.validate().map_err(|errs| {
        LangError::InvalidCfg(
            errs.iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        )
    })?;
    Ok(Parsed { cfg, alias })
}

struct LabelState {
    node: NodeId,
    placed: bool,
}

struct Lowerer {
    cfg: Cfg,
    arrays: Vec<String>,
    /// Dangling out-edges `(node, out-index)` awaiting a target. Each entry
    /// currently points at a sentinel (the node itself) and is redirected
    /// exactly once.
    frontier: Vec<(NodeId, usize)>,
    labels: HashMap<String, LabelState>,
}

impl Lowerer {
    fn is_array(&self, name: &str) -> bool {
        self.arrays.iter().any(|a| a == name)
    }

    /// Add a node with `n_out` sentinel out-edges (pointing at itself until
    /// redirected).
    fn new_node(&mut self, stmt: Stmt, n_out: usize) -> NodeId {
        let id = self.cfg.add_node(stmt);
        for _ in 0..n_out {
            self.cfg.add_edge(id, id);
        }
        id
    }

    /// Redirect every frontier edge to `target`, inserting a join first if
    /// several edges would converge on a non-join.
    fn attach(&mut self, target: NodeId) {
        if self.frontier.len() >= 2 && !matches!(self.cfg.stmt(target), Stmt::Join | Stmt::End) {
            let j = self.new_node(Stmt::Join, 1);
            let pending = std::mem::take(&mut self.frontier);
            for (n, i) in pending {
                self.cfg.redirect_edge(n, i, j);
            }
            self.frontier.push((j, 0));
        }
        for (n, i) in std::mem::take(&mut self.frontier) {
            self.cfg.redirect_edge(n, i, target);
        }
    }

    fn label_node(&mut self, name: &str) -> NodeId {
        if let Some(l) = self.labels.get(name) {
            return l.node;
        }
        // The fresh join's sentinel out-edge stays parked (outside the
        // frontier) until the label is placed.
        let node = self.new_node(Stmt::Join, 1);
        self.labels.insert(
            name.to_owned(),
            LabelState {
                node,
                placed: false,
            },
        );
        node
    }

    fn seq(&mut self, stmts: &[AstStmt]) -> Result<(), LangError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &AstStmt) -> Result<(), LangError> {
        // Dead-code check: only a label can resurrect the flow.
        if self.frontier.is_empty() && !matches!(s, AstStmt::Label { .. }) {
            return Err(LangError::UnreachableCode { line: s.line() });
        }
        match s {
            AstStmt::Skip { .. } => Ok(()),
            AstStmt::Assign { lhs, rhs, .. } => {
                let rhs = self.expr(rhs)?;
                let lhs = match lhs {
                    AstLValue::Var(name) => {
                        if self.is_array(name) {
                            return Err(LangError::ArrayUsedAsScalar(name.clone()));
                        }
                        LValue::Var(self.cfg.vars.scalar(name))
                    }
                    AstLValue::Index(name, idx) => {
                        if !self.is_array(name) {
                            return Err(LangError::UndeclaredArray(name.clone()));
                        }
                        let idx = self.expr(idx)?;
                        let v = self.cfg.vars.lookup(name).expect("declared array");
                        LValue::Index(v, idx)
                    }
                };
                let n = self.new_node(Stmt::Assign { lhs, rhs }, 1);
                self.attach(n);
                self.frontier.push((n, 0));
                Ok(())
            }
            AstStmt::Label { name, line } => {
                if name == "end" {
                    return Err(LangError::DuplicateLabel("end".into()));
                }
                let node = self.label_node(name);
                let l = self.labels.get_mut(name).expect("just created");
                if l.placed {
                    return Err(LangError::DuplicateLabel(name.clone()));
                }
                l.placed = true;
                let _ = line;
                self.attach(node);
                self.frontier.push((node, 0));
                Ok(())
            }
            AstStmt::Goto { label, .. } => {
                let target = if label == "end" {
                    self.cfg.end()
                } else {
                    self.label_node(label)
                };
                self.attach(target);
                Ok(())
            }
            AstStmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                let pred = self.expr(cond)?;
                let br = self.new_node(Stmt::Branch { pred }, 2);
                self.attach(br);
                self.frontier.push((br, 0));
                self.seq(then_body)?;
                let mut after = std::mem::take(&mut self.frontier);
                self.frontier.push((br, 1));
                self.seq(else_body)?;
                self.frontier.append(&mut after);
                Ok(())
            }
            AstStmt::Case {
                selector,
                arms,
                default,
                ..
            } => {
                let selector = self.expr(selector)?;
                let n_out = arms.len() + 1;
                let case = self.new_node(Stmt::Case { selector }, n_out);
                self.attach(case);
                let mut after: Vec<(NodeId, usize)> = Vec::new();
                for (i, arm) in arms.iter().enumerate() {
                    self.frontier.push((case, i));
                    self.seq(arm)?;
                    after.append(&mut self.frontier);
                }
                self.frontier.push((case, n_out - 1));
                self.seq(default)?;
                self.frontier.append(&mut after);
                Ok(())
            }
            AstStmt::While { cond, body, .. } => {
                let head = self.new_node(Stmt::Join, 1);
                self.attach(head);
                self.frontier.push((head, 0));
                let pred = self.expr(cond)?;
                let br = self.new_node(Stmt::Branch { pred }, 2);
                self.attach(br);
                self.frontier.push((br, 0));
                self.seq(body)?;
                self.attach(head);
                self.frontier.push((br, 1));
                Ok(())
            }
            AstStmt::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                if self.is_array(var) {
                    return Err(LangError::ArrayUsedAsScalar(var.clone()));
                }
                let from = self.expr(from)?;
                let to = self.expr(to)?;
                let v = self.cfg.vars.scalar(var);
                let init = self.new_node(
                    Stmt::Assign {
                        lhs: LValue::Var(v),
                        rhs: from,
                    },
                    1,
                );
                self.attach(init);
                self.frontier.push((init, 0));
                let head = self.new_node(Stmt::Join, 1);
                self.attach(head);
                self.frontier.push((head, 0));
                let br = self.new_node(
                    Stmt::Branch {
                        pred: Expr::bin(cf2df_cfg::BinOp::Le, Expr::Var(v), to),
                    },
                    2,
                );
                self.attach(br);
                self.frontier.push((br, 0));
                self.seq(body)?;
                let incr = self.new_node(
                    Stmt::Assign {
                        lhs: LValue::Var(v),
                        rhs: Expr::bin(cf2df_cfg::BinOp::Add, Expr::Var(v), Expr::Const(1)),
                    },
                    1,
                );
                self.attach(incr);
                self.frontier.push((incr, 0));
                self.attach(head);
                self.frontier.push((br, 1));
                Ok(())
            }
        }
    }

    fn expr(&mut self, e: &AstExpr) -> Result<Expr, LangError> {
        Ok(match e {
            AstExpr::Const(c) => Expr::Const(*c),
            AstExpr::Var(name) => {
                if self.is_array(name) {
                    return Err(LangError::ArrayUsedAsScalar(name.clone()));
                }
                Expr::Var(self.cfg.vars.scalar(name))
            }
            AstExpr::Index(name, idx) => {
                if !self.is_array(name) {
                    return Err(LangError::UndeclaredArray(name.clone()));
                }
                let idx = self.expr(idx)?;
                let v = self.cfg.vars.lookup(name).expect("declared array");
                Expr::index(v, idx)
            }
            AstExpr::Unary(op, inner) => Expr::un(*op, self.expr(inner)?),
            AstExpr::Binary(op, l, r) => Expr::bin(*op, self.expr(l)?, self.expr(r)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_to_cfg;

    #[test]
    fn running_example_matches_fig1() {
        let parsed = parse_to_cfg(crate::corpus::RUNNING_EXAMPLE).unwrap();
        let cfg = &parsed.cfg;
        // start, end, join, two assigns, branch = 6 nodes.
        assert_eq!(cfg.len(), 6);
        assert_eq!(cfg.edge_count(), 7);
        let join = cfg.entry();
        assert!(matches!(cfg.stmt(join), Stmt::Join));
        let s1 = cfg.succs(join)[0];
        let s2 = cfg.succs(s1)[0];
        let br = cfg.succs(s2)[0];
        assert!(matches!(cfg.stmt(br), Stmt::Branch { .. }));
        assert_eq!(cfg.succs(br)[0], join, "true edge loops back to l");
        assert_eq!(cfg.succs(br)[1], cfg.end(), "false edge goes to end");
    }

    #[test]
    fn if_without_else_inserts_join() {
        let parsed = parse_to_cfg("x := 1; if x < 2 then { x := 3; } y := x;").unwrap();
        let cfg = &parsed.cfg;
        // There must be a join merging the then-arm with the false edge.
        let joins = cfg
            .node_ids()
            .filter(|&n| matches!(cfg.stmt(n), Stmt::Join))
            .count();
        assert_eq!(joins, 1);
        cfg.validate().unwrap();
    }

    #[test]
    fn while_lowers_to_loop() {
        let parsed = parse_to_cfg("x := 0; while x < 5 do { x := x + 1; } y := x;").unwrap();
        let forest = cf2df_cfg::LoopForest::compute(&parsed.cfg).unwrap();
        assert_eq!(forest.len(), 1);
    }

    #[test]
    fn for_lowers_to_counted_loop() {
        let parsed = parse_to_cfg("s := 0; for i := 1 to 3 do { s := s + i; }").unwrap();
        let forest = cf2df_cfg::LoopForest::compute(&parsed.cfg).unwrap();
        assert_eq!(forest.len(), 1);
        // init + head + branch + body + incr present.
        assert!(parsed.cfg.len() >= 7);
    }

    #[test]
    fn goto_end_supported() {
        let parsed = parse_to_cfg("x := 1; goto end;").unwrap();
        parsed.cfg.validate().unwrap();
    }

    #[test]
    fn undefined_label_rejected() {
        let err = parse_to_cfg("goto nowhere;").unwrap_err();
        assert_eq!(err, LangError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn duplicate_label_rejected() {
        let err = parse_to_cfg("l: x := 1; l: y := 2;").unwrap_err();
        assert_eq!(err, LangError::DuplicateLabel("l".into()));
    }

    #[test]
    fn dead_code_rejected() {
        let err = parse_to_cfg("goto end;\nx := 1;").unwrap_err();
        assert!(matches!(err, LangError::UnreachableCode { line: 2 }));
    }

    #[test]
    fn code_after_goto_with_label_is_fine() {
        parse_to_cfg("goto l; skip; l: x := 1;").unwrap_err(); // skip after goto is dead
        parse_to_cfg("goto l; l: x := 1;").unwrap();
    }

    #[test]
    fn orphan_label_rejected_as_unreachable() {
        let err = parse_to_cfg("x := 1; goto end; l: y := 2; goto end;").unwrap_err();
        assert!(matches!(err, LangError::InvalidCfg(_)), "{err:?}");
    }

    #[test]
    fn array_misuse_rejected() {
        assert_eq!(
            parse_to_cfg("a[0] := 1;").unwrap_err(),
            LangError::UndeclaredArray("a".into())
        );
        assert_eq!(
            parse_to_cfg("array a[4]; a := 1;").unwrap_err(),
            LangError::ArrayUsedAsScalar("a".into())
        );
        assert_eq!(
            parse_to_cfg("array a[4]; x := a;").unwrap_err(),
            LangError::ArrayUsedAsScalar("a".into())
        );
        assert_eq!(
            parse_to_cfg("array a[4]; array a[4];").unwrap_err(),
            LangError::DuplicateArray("a".into())
        );
        assert_eq!(
            parse_to_cfg("x := 0; y := x[1];").unwrap_err(),
            LangError::UndeclaredArray("x".into())
        );
    }

    #[test]
    fn alias_structure_built() {
        let parsed = parse_to_cfg("alias x ~ z; alias y ~ z; x := 1; y := 2; z := 3;").unwrap();
        let vars = &parsed.cfg.vars;
        let x = vars.lookup("x").unwrap();
        let y = vars.lookup("y").unwrap();
        let z = vars.lookup("z").unwrap();
        assert!(parsed.alias.aliased(x, z));
        assert!(parsed.alias.aliased(y, z));
        assert!(!parsed.alias.aliased(x, y));
    }

    #[test]
    fn unstructured_goto_into_branch_arm() {
        // goto into the middle of a diamond's arm: legal, forms an
        // unstructured CFG that only the general algorithms handle.
        let src = "
            x := 0;
            if x == 0 then { goto m; } else { skip; }
            m:
            y := 1;
        ";
        let parsed = parse_to_cfg(src).unwrap();
        parsed.cfg.validate().unwrap();
    }

    #[test]
    fn empty_program_is_valid() {
        let parsed = parse_to_cfg("").unwrap();
        assert_eq!(parsed.cfg.len(), 2);
        parsed.cfg.validate().unwrap();
    }

    #[test]
    fn infinite_loop_rejected() {
        let err = parse_to_cfg("l: x := 1; goto l;").unwrap_err();
        assert!(matches!(err, LangError::InvalidCfg(_)));
    }

    #[test]
    fn nested_structured_constructs() {
        let src = "
            s := 0;
            for i := 1 to 4 do {
                for j := 1 to 4 do {
                    if (i + j) % 2 == 0 then { s := s + i * j; } else { s := s - 1; }
                }
            }
        ";
        let parsed = parse_to_cfg(src).unwrap();
        let forest = cf2df_cfg::LoopForest::compute(&parsed.cfg).unwrap();
        assert_eq!(forest.len(), 2);
    }
}
