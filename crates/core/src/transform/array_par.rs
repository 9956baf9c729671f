//! Array-store parallelization (§6.3, Fig 14).
//!
//! For a loop whose only operation on array `x` is a store `x[i] := e`
//! with `i` advancing by a nonzero constant each iteration, stores of
//! successive iterations are independent. The rewrite duplicates the
//! array's access token at the loop entry — one copy proceeds straight to
//! the next iteration while the store runs — and synchronizes store
//! completions backwards through the iterations (Fig 14 b/c), so the token
//! leaves the loop only when every store has completed:
//!
//! ```text
//! chain(i) = synch( store_done(i),
//!                   merge( prev-iter(chain(i+1)), exit-token(last) ) )
//! chain(0) —loop-exit→ after the loop
//! ```

use crate::lines::{LineId, Lines};
use crate::translator::Built;
use cf2df_cfg::loop_control::LoopControlMeta;
use cf2df_cfg::{BinOp, Cfg, Expr, LValue, LoopId, NodeId, Stmt, VarId};
use cf2df_dfg::{ArcKind, Dfg, OpId, OpKind, Port};

/// An array-store site eligible for the Fig 14 rewrite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EligibleStore {
    /// The loop.
    pub loop_id: LoopId,
    /// The array variable.
    pub array: VarId,
    /// The array's (single) token line.
    pub line: LineId,
    /// The CFG node of the store statement.
    pub store_node: NodeId,
}

/// Is `e` of the form `i`, `i + c`, or `i - c` for the given `i`?
fn is_affine_in(e: &Expr, i: VarId) -> bool {
    match e {
        Expr::Var(v) => *v == i,
        Expr::Binary(BinOp::Add | BinOp::Sub, l, r) => {
            matches!(&**l, Expr::Var(v) if *v == i) && matches!(&**r, Expr::Const(_))
        }
        _ => false,
    }
}

/// Find eligible (loop, array) sites by the conservative subscript test:
/// the body contains exactly one statement touching the array — a store
/// `a[f(i)] := e` with `f` affine in an induction variable `i` that is
/// incremented by a nonzero constant exactly once per iteration — the body
/// never loads `a`, the body is a single straight path (so the store runs
/// on every iteration), and `a` is unaliased.
pub fn find_eligible(cfg: &Cfg, meta: &LoopControlMeta, lines: &Lines) -> Vec<EligibleStore> {
    let mut out = Vec::new();
    for (loop_id, info) in meta.forest.iter() {
        // Body must be a straight path: every non-fork body node has one
        // successor, and exactly one fork (the exit branch).
        let forks = info.body.iter().filter(|&&n| cfg.stmt(n).is_fork()).count();
        if forks != 1 {
            continue;
        }
        // No inner loops (keep the canonical Fig 14 shape).
        if meta
            .forest
            .iter()
            .any(|(other, oi)| other != loop_id && info.body.contains(&oi.header))
        {
            continue;
        }

        // Induction variables: scalars assigned exactly once, as v := v ± c.
        let mut assigns: Vec<(NodeId, &LValue, &Expr)> = Vec::new();
        for &n in &info.body {
            if let Stmt::Assign { lhs, rhs } = cfg.stmt(n) {
                assigns.push((n, lhs, rhs));
            }
        }
        let is_induction = |v: VarId| -> bool {
            let mut count = 0;
            let mut ok = false;
            for (_, lhs, rhs) in &assigns {
                if lhs.var() == v {
                    count += 1;
                    ok = matches!(rhs,
                        Expr::Binary(BinOp::Add | BinOp::Sub, l, r)
                        if matches!(&**l, Expr::Var(w) if *w == v)
                            && matches!(&**r, Expr::Const(c) if *c != 0));
                }
            }
            count == 1 && ok
        };

        // Array candidates.
        for v in cfg.vars.ids() {
            if !matches!(cfg.vars.kind(v), cf2df_cfg::VarKind::Array { .. }) {
                continue;
            }
            let ls = lines.access_lines(v);
            let [line] = ls[..] else { continue };
            // Unaliased: no other variable shares this line.
            if cfg
                .vars
                .ids()
                .any(|w| w != v && lines.access_lines(w).contains(&line))
            {
                continue;
            }
            let mut store_node = None;
            let mut eligible = true;
            for &n in &info.body {
                let stmt = cfg.stmt(n);
                let reads_v = match stmt {
                    Stmt::Assign { lhs, rhs } => {
                        rhs.references(v)
                            || matches!(lhs, LValue::Index(_, idx) if idx.references(v))
                    }
                    Stmt::Branch { pred } => pred.references(v),
                    Stmt::Case { selector } => selector.references(v),
                    _ => false,
                };
                if reads_v {
                    eligible = false;
                    break;
                }
                if let Stmt::Assign { lhs, rhs } = stmt {
                    if lhs.var() == v {
                        if store_node.is_some() {
                            eligible = false; // two stores
                            break;
                        }
                        let LValue::Index(_, idx) = lhs else {
                            eligible = false;
                            break;
                        };
                        let affine_ok = idx
                            .vars()
                            .first()
                            .map(|&i| is_induction(i) && is_affine_in(idx, i))
                            .unwrap_or(false);
                        if !affine_ok || rhs.references(v) {
                            eligible = false;
                            break;
                        }
                        store_node = Some(n);
                    }
                }
            }
            if let (true, Some(store_node)) = (eligible, store_node) {
                out.push(EligibleStore {
                    loop_id,
                    array: v,
                    line,
                    store_node,
                });
            }
        }
    }
    out
}

/// The exact operator shape the rewrite requires on the array's line:
/// `LE.0 → store.access`, `store.done → switch.data`,
/// `switch.true → LE.1`, `switch.false → LX.0`.
struct Shape {
    le: OpId,
    store: OpId,
    sw: OpId,
    lx: OpId,
}

fn match_shape(
    g: &Dfg,
    built: &Built,
    meta: &LoopControlMeta,
    site: &EligibleStore,
) -> Option<Shape> {
    let le_node = meta.entry_node[site.loop_id.index()];
    let le = *built.ops.loop_entries.get(&(le_node, site.line))?;
    let index = g.arc_index();
    // The destination of `op`'s only arc, when it has exactly one (every
    // operator matched here has a single output port).
    let only_dest = |op: OpId| match index.outs(op) {
        &[ai] => Some(g.arcs()[ai as usize].to),
        _ => None,
    };
    // LE.0 must feed exactly the store's access port.
    let store_port = only_dest(le)?;
    let store = store_port.op;
    if !matches!(g.kind(store), OpKind::StoreIdx { var } if *var == site.array) {
        return None;
    }
    if store_port.port != 2 {
        return None;
    }
    // store.done → switch.data.
    let sw_port = only_dest(store)?;
    let sw = sw_port.op;
    if !matches!(g.kind(sw), OpKind::Switch) || sw_port.port != 0 {
        return None;
    }
    // switch.true → LE.1; switch.false → LX.0.
    let arm = |p: usize| {
        let mut arcs = index.outs_on(g, Port::new(sw, p));
        match (arcs.next(), arcs.next()) {
            (Some(ai), None) => Some(g.arcs()[ai].to),
            _ => None,
        }
    };
    let (t_to, f_to) = (arm(0)?, arm(1)?);
    if t_to != (Port { op: le, port: 1 }) {
        return None;
    }
    let lx = f_to.op;
    if !matches!(g.kind(lx), OpKind::LoopExit { loop_id } if *loop_id == site.loop_id)
        || f_to.port != 0
    {
        return None;
    }
    Some(Shape { le, store, sw, lx })
}

/// Apply the Fig 14 rewrite to every eligible site; returns the sites
/// rewritten.
pub fn parallelize_array_stores(
    built: &mut Built,
    cfg: &Cfg,
    meta: &LoopControlMeta,
    lines: &Lines,
) -> Vec<EligibleStore> {
    let sites = find_eligible(cfg, meta, lines);
    let mut applied = Vec::new();
    for site in sites {
        let Some(shape) = match_shape(&built.dfg, built, meta, &site) else {
            continue;
        };
        let g = &mut built.dfg;
        let l = site.loop_id;
        // 1. Duplicate the token at loop entry: the switch now takes it
        //    directly, racing ahead of the store.
        let ok = g.disconnect(Port::new(shape.store, 0), Port::new(shape.sw, 0));
        debug_assert!(ok);
        g.connect(
            Port::new(shape.le, 0),
            Port::new(shape.sw, 0),
            ArcKind::Access,
        );
        // 2. Backward completion chain.
        let sy = g.add_labeled(OpKind::Synch { inputs: 2 }, "fig14 chain".to_owned());
        let m = g.add_labeled(OpKind::Merge, "fig14 next-or-last".to_owned());
        let ii = g.add(OpKind::IterIndex { loop_id: l });
        let eq = g.add(OpKind::Binary { op: BinOp::Eq });
        g.set_imm(eq, 1, 0);
        let sw2 = g.add_labeled(OpKind::Switch, "fig14 at-iter-0?".to_owned());
        let pi = g.add(OpKind::PrevIter { loop_id: l });
        // store completion joins the chain.
        g.connect(Port::new(shape.store, 0), Port::new(sy, 0), ArcKind::Access);
        g.connect(Port::new(m, 0), Port::new(sy, 1), ArcKind::Access);
        // The last iteration's exit token terminates the chain…
        let ok = g.disconnect(Port::new(shape.sw, 1), Port::new(shape.lx, 0));
        debug_assert!(ok);
        g.connect(Port::new(shape.sw, 1), Port::new(m, 0), ArcKind::Access);
        // …and the chain walks back to iteration 0.
        g.connect(Port::new(sy, 0), Port::new(ii, 0), ArcKind::Access);
        g.connect(Port::new(sy, 0), Port::new(sw2, 0), ArcKind::Access);
        g.connect(Port::new(ii, 0), Port::new(eq, 0), ArcKind::Value);
        g.connect(Port::new(eq, 0), Port::new(sw2, 1), ArcKind::Value);
        g.connect(Port::new(sw2, 0), Port::new(shape.lx, 0), ArcKind::Access);
        g.connect(Port::new(sw2, 1), Port::new(pi, 0), ArcKind::Access);
        g.connect(Port::new(pi, 0), Port::new(m, 0), ArcKind::Access);
        applied.push(site);
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{loop_controlled, optimized};
    use cf2df_cfg::MemLayout;
    use cf2df_machine::{run, vonneumann, MachineConfig};

    #[test]
    fn array_loop_is_eligible() {
        let (fctx, lc, lines) = loop_controlled(cf2df_lang::corpus::ARRAY_LOOP, false);
        let sites = find_eligible(fctx.cfg(), &lc, &lines);
        assert_eq!(sites.len(), 1);
        assert_eq!(
            fctx.cfg().vars.name(sites[0].array),
            "x",
            "the stored array is x"
        );
    }

    #[test]
    fn loads_disqualify() {
        let src = "
            array x[12];
            i := 0;
            l:
              i := i + 1;
              x[i] := x[i - 1] + 1;
              if i < 10 then { goto l; } else { goto end; }
        ";
        let (fctx, lc, lines) = loop_controlled(src, false);
        assert!(find_eligible(fctx.cfg(), &lc, &lines).is_empty());
    }

    #[test]
    fn non_induction_subscript_disqualifies() {
        let src = "
            array x[12];
            i := 0;
            l:
              i := i + 1;
              x[i * 2 % 11] := 1;
              if i < 10 then { goto l; } else { goto end; }
        ";
        let (fctx, lc, lines) = loop_controlled(src, false);
        assert!(find_eligible(fctx.cfg(), &lc, &lines).is_empty());
    }

    #[test]
    fn conditional_store_disqualifies() {
        let src = "
            array x[12];
            i := 0;
            l:
              i := i + 1;
              if i % 2 == 0 then { x[i] := 1; } else { skip; }
              if i < 10 then { goto l; } else { goto end; }
        ";
        let (fctx, lc, lines) = loop_controlled(src, false);
        assert!(find_eligible(fctx.cfg(), &lc, &lines).is_empty());
    }

    #[test]
    fn rewrite_preserves_semantics_and_overlaps_stores() {
        // Memory elimination keeps the induction variable on a value token,
        // so the array stores are the loop's bottleneck — the situation
        // Fig 14 addresses.
        let (mut fctx, lc, lines) = loop_controlled(cf2df_lang::corpus::ARRAY_LOOP, true);
        let mut built = optimized(&mut fctx, &lc, &lines);
        let cfg = fctx.cfg();
        let layout = MemLayout::distinct(&cfg.vars);
        let slow = MachineConfig::unbounded().mem_latency(40);
        let before = run(&built.dfg, &layout, slow.clone()).unwrap();

        let applied = parallelize_array_stores(&mut built, cfg, &lc, &lines);
        assert_eq!(applied.len(), 1);
        cf2df_dfg::validate(&built.dfg).unwrap();
        if let Err(defects) = cf2df_dfg::certify(&built.dfg) {
            panic!(
                "fig 14 rewrite fails certification:\n{}",
                defects
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        let after = run(&built.dfg, &layout, slow.clone()).unwrap();
        assert_eq!(after.memory, before.memory, "same final store");

        let vn = vonneumann::interpret(cfg, &layout, &slow).unwrap();
        assert_eq!(after.memory, vn.memory, "matches sequential semantics");
        assert!(
            after.stats.makespan < before.stats.makespan,
            "stores overlap: {} → {}",
            before.stats.makespan,
            after.stats.makespan
        );
        assert_eq!(after.stats.leftover_tokens, 0);
    }
}
