//! Control dependence and iterated control dependence (§4.1).
//!
//! Definition 4 of the paper: `N` is control dependent on `F` iff there is a
//! non-null path `F ⇒ N` such that `N` postdominates every node after `F` on
//! the path, and `N` does not strictly postdominate `F`.
//!
//! Control dependences are computed from the postdominator tree with the
//! standard Ferrante–Ottenstein–Warren edge walk: for every edge `A → B`,
//! every node on the postdominator-tree path from `B` up to (but excluding)
//! `ipostdom(A)` is control dependent on `A`.
//!
//! Theorem 1 states that `N` is *between* `F` and `ipostdom(F)`
//! (Definition 1) iff `F ∈ CD⁺(N)`, the iterated control dependence set.
//! [`between`] implements Definition 1 directly by path search so the
//! theorem can be checked differentially.

use crate::graph::{Cfg, NodeId};
use crate::postdom::DomTree;

/// The control-dependence relation of a CFG.
#[derive(Clone, Debug)]
pub struct ControlDeps {
    /// `deps[n]` = the set of nodes `F` such that `n` is control dependent
    /// on `F` (i.e. `CD(n)` of Definition 4), deduplicated.
    deps: Vec<Vec<NodeId>>,
}

impl ControlDeps {
    /// Compute control dependences from the CFG and its postdominator tree.
    pub fn compute(cfg: &Cfg, pd: &DomTree) -> ControlDeps {
        let n = cfg.len();
        let mut deps: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (a, _, b) in cfg.edges() {
            // Nodes on the postdominator-tree path [b, ipostdom(a)) are
            // control dependent on a.
            let stop = pd.idom(a);
            let mut runner = Some(b);
            while runner != stop {
                let r = runner.expect("walked past the postdominator root");
                if !deps[r.index()].contains(&a) {
                    deps[r.index()].push(a);
                }
                runner = pd.idom(r);
            }
        }
        ControlDeps { deps }
    }

    /// `CD(n)`: the nodes on which `n` is control dependent.
    pub fn deps_of(&self, n: NodeId) -> &[NodeId] {
        &self.deps[n.index()]
    }

    /// `CD⁺` of a *set* of seed nodes (Definition 5 extended to sets, as
    /// Fig 10 states the switch-placement algorithm): the least set `S`
    /// containing `CD(seed)` for every seed and closed under `CD`.
    ///
    /// Returns a boolean mask over nodes: `mask[f]` iff `f ∈ CD⁺(seeds)`.
    pub fn iterated(&self, seeds: &[NodeId]) -> Vec<bool> {
        let mut marked = vec![false; self.deps.len()];
        let mut on_worklist = vec![false; self.deps.len()];
        let mut worklist: Vec<NodeId> = Vec::new();
        for &s in seeds {
            if !on_worklist[s.index()] {
                on_worklist[s.index()] = true;
                worklist.push(s);
            }
        }
        while let Some(n) = worklist.pop() {
            for &f in self.deps_of(n) {
                if !marked[f.index()] {
                    marked[f.index()] = true;
                }
                if !on_worklist[f.index()] {
                    on_worklist[f.index()] = true;
                    worklist.push(f);
                }
            }
        }
        marked
    }

    /// `CD⁺(n)` for a single node.
    pub fn iterated_single(&self, n: NodeId) -> Vec<bool> {
        self.iterated(&[n])
    }
}

/// Definition 1, implemented directly by path search: `n` is *between* `f`
/// and its immediate postdominator `p` iff there exists a non-null path
/// `f ⇒ n` that does not pass through `p`.
///
/// This is the brute-force side of Theorem 1, used for differential testing
/// against [`ControlDeps::iterated`].
pub fn between(cfg: &Cfg, pd: &DomTree, f: NodeId, n: NodeId) -> bool {
    let Some(p) = pd.idom(f) else {
        return false; // f is `end`; nothing is between end and anything
    };
    if n == p {
        return false;
    }
    // DFS from the successors of f, never visiting p.
    let mut seen = vec![false; cfg.len()];
    let mut stack: Vec<NodeId> = Vec::new();
    for &s in cfg.succs(f) {
        if s != p && !seen[s.index()] {
            seen[s.index()] = true;
            stack.push(s);
        }
    }
    while let Some(v) = stack.pop() {
        if v == n {
            return true;
        }
        for &s in cfg.succs(v) {
            if s != p && !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::stmt::{LValue, Stmt};
    use crate::var::VarTable;

    fn diamond() -> (Cfg, NodeId, NodeId, NodeId, NodeId) {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let br = cfg.add_node(Stmt::Branch { pred: Expr::Var(x) });
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

    fn running_example() -> (Cfg, NodeId, NodeId, NodeId, NodeId) {
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
        (cfg, join, s1, s2, br)
    }

    #[test]
    fn diamond_control_deps() {
        let (cfg, br, a, b, join) = diamond();
        let pd = DomTree::postdominators(&cfg);
        let cd = ControlDeps::compute(&cfg, &pd);
        // The two arms are control dependent on the branch.
        assert_eq!(cd.deps_of(a), &[br]);
        assert_eq!(cd.deps_of(b), &[br]);
        // The join postdominates the branch: not control dependent on it.
        assert!(!cd.deps_of(join).contains(&br));
        // Everything on the main path is control dependent on start (the
        // conventional start→end edge makes start a fork).
        assert!(cd.deps_of(br).contains(&cfg.start()));
        assert!(cd.deps_of(join).contains(&cfg.start()));
    }

    #[test]
    fn loop_body_control_dependent_on_branch() {
        let (cfg, join, s1, s2, br) = running_example();
        let pd = DomTree::postdominators(&cfg);
        let cd = ControlDeps::compute(&cfg, &pd);
        // Every node in the loop body is control dependent on the loop
        // branch (the backedge br → join makes the body re-executable).
        for n in [join, s1, s2, br] {
            assert!(
                cd.deps_of(n).contains(&br),
                "{n:?} should be control dependent on the loop branch"
            );
        }
        // end is not control dependent on br (it postdominates it).
        assert!(!cd.deps_of(cfg.end()).contains(&br));
    }

    #[test]
    fn self_loop_is_self_dependent() {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let join = cfg.add_node(Stmt::Join);
        let br = cfg.add_node(Stmt::Branch { pred: Expr::Var(x) });
        cfg.set_entry(join);
        cfg.add_edge(join, br);
        cfg.add_edge(br, join); // true: loop
        cfg.add_edge(br, cfg.end()); // false: exit
        cfg.validate().unwrap();
        let pd = DomTree::postdominators(&cfg);
        let cd = ControlDeps::compute(&cfg, &pd);
        assert!(cd.deps_of(br).contains(&br));
        assert!(cd.deps_of(join).contains(&br));
    }

    #[test]
    fn iterated_closure_reaches_outer_fork() {
        // Nested diamonds: outer branch around an inner branch around `a`.
        // CD(a) = {inner}; CD(inner) = {outer}; CD⁺(a) ⊇ {inner, outer}.
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let outer = cfg.add_node(Stmt::Branch { pred: Expr::Var(x) });
        let inner = cfg.add_node(Stmt::Branch { pred: Expr::Var(x) });
        let a = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::Const(1),
        });
        let ijoin = cfg.add_node(Stmt::Join);
        let ojoin = cfg.add_node(Stmt::Join);
        cfg.set_entry(outer);
        cfg.add_edge(outer, inner); // true
        cfg.add_edge(outer, ojoin); // false
        cfg.add_edge(inner, a); // true
        cfg.add_edge(inner, ijoin); // false
        cfg.add_edge(a, ijoin);
        cfg.add_edge(ijoin, ojoin);
        cfg.add_edge(ojoin, cfg.end());
        cfg.validate().unwrap();

        let pd = DomTree::postdominators(&cfg);
        let cd = ControlDeps::compute(&cfg, &pd);
        assert_eq!(cd.deps_of(a), &[inner]);
        let closure = cd.iterated_single(a);
        assert!(closure[inner.index()]);
        assert!(closure[outer.index()], "CD⁺ must include the outer fork");
        assert!(closure[cfg.start().index()]);
        assert!(!closure[a.index()], "a itself is not in CD⁺(a) here");
    }

    #[test]
    fn theorem1_on_diamond() {
        // F needs a switch for N iff F ∈ CD⁺(N) — check against the
        // brute-force path-based Definition 1 on the diamond.
        let (cfg, ..) = diamond();
        check_theorem1(&cfg);
    }

    #[test]
    fn theorem1_on_running_example() {
        let (cfg, ..) = running_example();
        check_theorem1(&cfg);
    }

    fn check_theorem1(cfg: &Cfg) {
        let pd = DomTree::postdominators(cfg);
        let cd = ControlDeps::compute(cfg, &pd);
        for n in cfg.node_ids() {
            let closure = cd.iterated_single(n);
            for f in cfg.node_ids() {
                assert_eq!(
                    between(cfg, &pd, f, n),
                    closure[f.index()],
                    "Theorem 1 violated for F={f:?}, N={n:?}"
                );
            }
        }
    }

    #[test]
    fn between_excludes_postdominator() {
        let (cfg, br, a, _, join) = diamond();
        let pd = DomTree::postdominators(&cfg);
        // a is between br and join; join is not between br and join.
        assert!(between(&cfg, &pd, br, a));
        assert!(!between(&cfg, &pd, br, join));
        // end has no postdominator: nothing is between it and anything.
        assert!(!between(&cfg, &pd, cfg.end(), a));
    }

    #[test]
    fn iterated_of_set_unions_closures() {
        let (cfg, br, a, b, _) = diamond();
        let pd = DomTree::postdominators(&cfg);
        let cd = ControlDeps::compute(&cfg, &pd);
        let both = cd.iterated(&[a, b]);
        let ca = cd.iterated_single(a);
        let cb = cd.iterated_single(b);
        for n in cfg.node_ids() {
            assert_eq!(both[n.index()], ca[n.index()] || cb[n.index()]);
        }
        assert!(both[br.index()]);
    }
}
