//! The function context: one CFG plus a revision-stamped analysis cache.
//!
//! Translation needs the same handful of analyses — dominators,
//! postdominators, control dependence, the loop forest, a topological
//! order, predecessor lists — at several points in the pipeline, and the
//! CFG is mutated in between (irreducible-region splitting, loop-control
//! insertion). [`FunctionContext`] owns the CFG behind a **monotone
//! revision stamp**: every cached analysis records the revision it was
//! computed at, mutations bump the revision and clear exactly the slots
//! they can have invalidated, and accessors recompute on demand. A slot
//! whose stamp disagrees with the current revision can only mean the
//! invalidation mask was wrong, so that state panics in debug builds
//! rather than silently serving a stale analysis.
//!
//! Results are handed out as [`Rc`] clones: the context stays usable
//! (and mutably borrowable) while callers hold onto analysis results,
//! and repeated accesses are pointer copies, not recomputations.

use std::rc::Rc;

use crate::alias::{AliasStructure, Cover, CoverStrategy};
use crate::control_dep::ControlDeps;
use crate::graph::{Cfg, CfgError, NodeId};
use crate::intervals::{Irreducible, LoopForest};
use crate::postdom::DomTree;
use crate::reach::topo_order_ignoring_backedges;

/// The analyses the cache tracks, used to index [`CacheStats`] counters
/// and to build [`Preserved`] masks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum AnalysisKind {
    /// Forward dominator tree ([`DomTree::dominators`]).
    Dominators = 0,
    /// Postdominator tree ([`DomTree::postdominators`]).
    Postdominators,
    /// Control dependence ([`ControlDeps`]), derived from postdominators.
    ControlDeps,
    /// Natural-loop forest / interval decomposition ([`LoopForest`]).
    LoopForest,
    /// Topological order of the CFG ignoring backedges.
    TopoOrder,
    /// Predecessor lists ([`Cfg::preds`]).
    Preds,
    /// Structural validity ([`Cfg::validate`]).
    Validity,
    /// Alias covers ([`Cover::build`]); keyed by strategy, derived from
    /// the alias structure only — never invalidated by CFG mutation.
    Cover,
}

/// Number of [`AnalysisKind`] variants (array sizes below).
pub const N_ANALYSES: usize = 8;

impl AnalysisKind {
    /// Every kind, in counter order.
    pub const ALL: [AnalysisKind; N_ANALYSES] = [
        AnalysisKind::Dominators,
        AnalysisKind::Postdominators,
        AnalysisKind::ControlDeps,
        AnalysisKind::LoopForest,
        AnalysisKind::TopoOrder,
        AnalysisKind::Preds,
        AnalysisKind::Validity,
        AnalysisKind::Cover,
    ];

    /// Stable display name (used by `--time-passes` and bench artifacts).
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::Dominators => "dominators",
            AnalysisKind::Postdominators => "postdominators",
            AnalysisKind::ControlDeps => "control-deps",
            AnalysisKind::LoopForest => "loop-forest",
            AnalysisKind::TopoOrder => "topo-order",
            AnalysisKind::Preds => "preds",
            AnalysisKind::Validity => "validity",
            AnalysisKind::Cover => "cover",
        }
    }
}

/// Computed-vs-hit counters, one pair per [`AnalysisKind`].
///
/// Counters are cumulative over the context's lifetime; use
/// [`CacheStats::since`] for a per-pass delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// How many times each analysis was actually computed.
    pub computed: [u64; N_ANALYSES],
    /// How many times a cached result was served.
    pub hits: [u64; N_ANALYSES],
}

impl CacheStats {
    /// Total computations across all analysis kinds.
    pub fn total_computed(&self) -> u64 {
        self.computed.iter().sum()
    }

    /// Total cache hits across all analysis kinds.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Counter deltas since an earlier snapshot of the same context.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        let mut d = CacheStats::default();
        for i in 0..N_ANALYSES {
            d.computed[i] = self.computed[i] - earlier.computed[i];
            d.hits[i] = self.hits[i] - earlier.hits[i];
        }
        d
    }

    /// Computed count for one kind.
    pub fn computed_of(&self, k: AnalysisKind) -> u64 {
        self.computed[k as usize]
    }

    /// Hit count for one kind.
    pub fn hits_of(&self, k: AnalysisKind) -> u64 {
        self.hits[k as usize]
    }
}

/// Which analyses a mutation promises to keep valid.
///
/// Passed to [`FunctionContext::mutate`] / [`FunctionContext::replace_cfg`];
/// preserved slots survive the revision bump (their stamp is advanced),
/// everything else is cleared and recomputed on next access. Covers are
/// derived from the alias structure, not the graph, and always survive.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Preserved(u16);

impl Preserved {
    /// Nothing survives: every CFG-derived analysis is invalidated.
    pub const NONE: Preserved = Preserved(0);
    /// The mutation maintains structural validity (all our mutating
    /// transforms do: splitting and loop-control insertion keep the
    /// graph well-formed by construction).
    pub const VALIDITY: Preserved = Preserved(1 << AnalysisKind::Validity as u16);

    /// Does the mask contain `k`?
    pub fn contains(self, k: AnalysisKind) -> bool {
        self.0 & (1 << k as u16) != 0
    }

    /// The mask extended with `k`.
    pub fn with(self, k: AnalysisKind) -> Preserved {
        Preserved(self.0 | (1 << k as u16))
    }
}

/// One cache slot: the revision the value was computed at, plus the value.
#[derive(Clone, Debug)]
struct Slot<T> {
    v: Option<(u64, T)>,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Slot { v: None }
    }
}

impl<T: Clone> Slot<T> {
    /// Serve the cached value if its stamp matches `revision`, else
    /// recompute. A populated slot with a *mismatched* stamp means an
    /// invalidation mask lied; that panics in debug builds.
    fn get(
        &mut self,
        revision: u64,
        kind: AnalysisKind,
        stats: &mut CacheStats,
        compute: impl FnOnce() -> T,
    ) -> T {
        if let Some((stamp, v)) = &self.v {
            if *stamp == revision {
                stats.hits[kind as usize] += 1;
                return v.clone();
            }
            debug_assert!(
                false,
                "stale {} analysis survived invalidation (stamp {stamp}, revision {revision})",
                kind.name()
            );
        }
        stats.computed[kind as usize] += 1;
        let v = compute();
        self.v = Some((revision, v.clone()));
        v
    }

    fn invalidate(&mut self, revision: u64, preserved: bool) {
        match &mut self.v {
            Some((stamp, _)) if preserved => *stamp = revision,
            _ => self.v = None,
        }
    }
}

/// Per node, its predecessors with the index of the edge each one takes.
type Preds = Vec<Vec<(NodeId, usize)>>;

/// The memoized analyses of one [`FunctionContext`].
#[derive(Default)]
struct AnalysisCache {
    doms: Slot<Rc<DomTree>>,
    postdoms: Slot<Rc<DomTree>>,
    control_deps: Slot<Rc<ControlDeps>>,
    forest: Slot<Result<Rc<LoopForest>, Irreducible>>,
    topo: Slot<Result<Rc<Vec<NodeId>>, Irreducible>>,
    preds: Slot<Rc<Preds>>,
    validity: Slot<Result<(), Vec<CfgError>>>,
    /// Alias covers are keyed by strategy, not revision: they depend on
    /// the alias structure alone, which is fixed for the context's life.
    covers: Vec<(CoverStrategy, Rc<Cover>)>,
    stats: CacheStats,
}

/// A CFG, its alias structure, and a compute-once analysis cache keyed
/// by a monotone revision stamp. See the module docs for the protocol.
pub struct FunctionContext {
    cfg: Cfg,
    alias: AliasStructure,
    revision: u64,
    cache: AnalysisCache,
}

impl FunctionContext {
    /// Take ownership of a CFG and its alias structure.
    pub fn new(cfg: Cfg, alias: AliasStructure) -> FunctionContext {
        FunctionContext {
            cfg,
            alias,
            revision: 0,
            cache: AnalysisCache::default(),
        }
    }

    /// A context with the identity alias structure (no aliasing).
    pub fn for_cfg(cfg: Cfg) -> FunctionContext {
        let alias = AliasStructure::for_table(&cfg.vars);
        FunctionContext::new(cfg, alias)
    }

    /// The current graph (read-only; mutate through [`Self::mutate`]).
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The alias structure the context was built with.
    pub fn alias(&self) -> &AliasStructure {
        &self.alias
    }

    /// The current revision. Starts at 0; each mutation adds 1.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Snapshot of the computed/hit counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Consume the context, keeping the (possibly mutated) graph.
    pub fn into_cfg(self) -> Cfg {
        self.cfg
    }

    /// Mutate the CFG in place. Bumps the revision and invalidates every
    /// cached analysis not named in `preserved` (covers always survive —
    /// they are alias-derived). Returns whatever the closure returns.
    pub fn mutate<R>(&mut self, preserved: Preserved, f: impl FnOnce(&mut Cfg) -> R) -> R {
        let r = f(&mut self.cfg);
        self.bump(preserved);
        r
    }

    /// Replace the CFG wholesale (e.g. with its split-irreducible
    /// counterpart). Same invalidation protocol as [`Self::mutate`].
    pub fn replace_cfg(&mut self, cfg: Cfg, preserved: Preserved) {
        self.cfg = cfg;
        self.bump(preserved);
    }

    fn bump(&mut self, preserved: Preserved) {
        self.revision += 1;
        let r = self.revision;
        let c = &mut self.cache;
        c.doms
            .invalidate(r, preserved.contains(AnalysisKind::Dominators));
        c.postdoms
            .invalidate(r, preserved.contains(AnalysisKind::Postdominators));
        c.control_deps
            .invalidate(r, preserved.contains(AnalysisKind::ControlDeps));
        c.forest
            .invalidate(r, preserved.contains(AnalysisKind::LoopForest));
        c.topo
            .invalidate(r, preserved.contains(AnalysisKind::TopoOrder));
        c.preds
            .invalidate(r, preserved.contains(AnalysisKind::Preds));
        c.validity
            .invalidate(r, preserved.contains(AnalysisKind::Validity));
        // covers: alias-derived, untouched by design.
    }

    /// Structural validity of the current graph, memoized.
    pub fn validate(&mut self) -> Result<(), Vec<CfgError>> {
        let (cfg, rev) = (&self.cfg, self.revision);
        self.cache
            .validity
            .get(rev, AnalysisKind::Validity, &mut self.cache.stats, || {
                cfg.validate()
            })
    }

    /// Forward dominator tree, memoized.
    pub fn dominators(&mut self) -> Rc<DomTree> {
        let (cfg, rev) = (&self.cfg, self.revision);
        self.cache
            .doms
            .get(rev, AnalysisKind::Dominators, &mut self.cache.stats, || {
                Rc::new(DomTree::dominators(cfg))
            })
    }

    /// Postdominator tree, memoized.
    pub fn postdominators(&mut self) -> Rc<DomTree> {
        let (cfg, rev) = (&self.cfg, self.revision);
        self.cache.postdoms.get(
            rev,
            AnalysisKind::Postdominators,
            &mut self.cache.stats,
            || Rc::new(DomTree::postdominators(cfg)),
        )
    }

    /// Control dependence, memoized; pulls postdominators through the
    /// cache first (one shared computation, counted once).
    pub fn control_deps(&mut self) -> Rc<ControlDeps> {
        let pd = self.postdominators();
        let (cfg, rev) = (&self.cfg, self.revision);
        self.cache.control_deps.get(
            rev,
            AnalysisKind::ControlDeps,
            &mut self.cache.stats,
            || Rc::new(ControlDeps::compute(cfg, &pd)),
        )
    }

    /// Natural-loop forest, memoized — including the `Err(Irreducible)`
    /// outcome, so a reducibility *test* and a later *use* share one
    /// computation. Dominators are pulled through the cache first.
    pub fn loop_forest(&mut self) -> Result<Rc<LoopForest>, Irreducible> {
        let dom = self.dominators();
        let (cfg, rev) = (&self.cfg, self.revision);
        self.cache
            .forest
            .get(rev, AnalysisKind::LoopForest, &mut self.cache.stats, || {
                LoopForest::compute_with_dominators(cfg, &dom).map(Rc::new)
            })
    }

    /// Topological order ignoring backedges, memoized. Needs the loop
    /// forest (for backedge indices), so shares the reducibility outcome.
    pub fn topo_order(&mut self) -> Result<Rc<Vec<NodeId>>, Irreducible> {
        let forest = self.loop_forest()?;
        let (cfg, rev) = (&self.cfg, self.revision);
        self.cache
            .topo
            .get(rev, AnalysisKind::TopoOrder, &mut self.cache.stats, || {
                let backedges = forest.backedge_indices(cfg);
                Ok(Rc::new(topo_order_ignoring_backedges(cfg, &backedges)))
            })
    }

    /// Predecessor lists, memoized.
    pub fn preds(&mut self) -> Rc<Vec<Vec<(NodeId, usize)>>> {
        let (cfg, rev) = (&self.cfg, self.revision);
        self.cache
            .preds
            .get(rev, AnalysisKind::Preds, &mut self.cache.stats, || {
                Rc::new(cfg.preds())
            })
    }

    /// The alias cover for `strategy`, memoized per strategy. Covers
    /// depend only on the alias structure, so CFG mutations never
    /// invalidate them.
    pub fn cover(&mut self, strategy: &CoverStrategy) -> Rc<Cover> {
        if let Some((_, c)) = self.cache.covers.iter().find(|(s, _)| s == strategy) {
            self.cache.stats.hits[AnalysisKind::Cover as usize] += 1;
            return Rc::clone(c);
        }
        self.cache.stats.computed[AnalysisKind::Cover as usize] += 1;
        let c = Rc::new(Cover::build(strategy, &self.alias));
        self.cache.covers.push((strategy.clone(), Rc::clone(&c)));
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::stmt::{LValue, Stmt};
    use crate::var::VarTable;

    /// start -> join -> body -> br -> (join | end): one natural loop.
    fn looped_cfg() -> Cfg {
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let join = cfg.add_node(Stmt::Join);
        let body = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::bin(BinOp::Add, Expr::Var(x), Expr::Const(1)),
        });
        let br = cfg.add_node(Stmt::Branch {
            pred: Expr::bin(BinOp::Lt, Expr::Var(x), Expr::Const(5)),
        });
        cfg.set_entry(join);
        cfg.add_edge(join, body);
        cfg.add_edge(body, br);
        cfg.add_edge(br, join);
        cfg.add_edge(br, cfg.end());
        cfg
    }

    #[test]
    fn second_access_is_a_hit_not_a_recompute() {
        let mut fc = FunctionContext::for_cfg(looped_cfg());
        let a = fc.postdominators();
        let b = fc.postdominators();
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(fc.stats().computed_of(AnalysisKind::Postdominators), 1);
        assert_eq!(fc.stats().hits_of(AnalysisKind::Postdominators), 1);
    }

    #[test]
    fn derived_analyses_share_their_inputs_through_the_cache() {
        let mut fc = FunctionContext::for_cfg(looped_cfg());
        fc.control_deps(); // computes postdoms + control deps
        fc.control_deps(); // pure hits
        assert_eq!(fc.stats().computed_of(AnalysisKind::Postdominators), 1);
        assert_eq!(fc.stats().computed_of(AnalysisKind::ControlDeps), 1);
        fc.topo_order().unwrap(); // computes doms + forest + topo
        fc.topo_order().unwrap();
        assert_eq!(fc.stats().computed_of(AnalysisKind::Dominators), 1);
        assert_eq!(fc.stats().computed_of(AnalysisKind::LoopForest), 1);
        assert_eq!(fc.stats().computed_of(AnalysisKind::TopoOrder), 1);
    }

    #[test]
    fn mutation_invalidates_everything_not_preserved() {
        let mut fc = FunctionContext::for_cfg(looped_cfg());
        fc.validate().unwrap();
        fc.control_deps();
        fc.loop_forest().unwrap();
        let before = fc.stats();
        // A no-op mutation still bumps the revision and invalidates.
        fc.mutate(Preserved::VALIDITY, |_| ());
        assert_eq!(fc.revision(), 1);
        fc.validate().unwrap(); // preserved: a hit
        fc.control_deps(); // invalidated: recomputed
        fc.loop_forest().unwrap();
        let d = fc.stats().since(&before);
        assert_eq!(d.hits_of(AnalysisKind::Validity), 1);
        assert_eq!(d.computed_of(AnalysisKind::Validity), 0);
        assert_eq!(d.computed_of(AnalysisKind::Postdominators), 1);
        assert_eq!(d.computed_of(AnalysisKind::ControlDeps), 1);
        assert_eq!(d.computed_of(AnalysisKind::LoopForest), 1);
    }

    #[test]
    fn covers_are_keyed_by_strategy_and_survive_mutation() {
        let mut fc = FunctionContext::for_cfg(looped_cfg());
        let a = fc.cover(&CoverStrategy::Singletons);
        let b = fc.cover(&CoverStrategy::SingleToken);
        let a2 = fc.cover(&CoverStrategy::Singletons);
        assert!(Rc::ptr_eq(&a, &a2));
        assert!(!Rc::ptr_eq(&a, &b));
        fc.mutate(Preserved::NONE, |_| ());
        let a3 = fc.cover(&CoverStrategy::Singletons);
        assert!(
            Rc::ptr_eq(&a, &a3),
            "covers are alias-derived, not graph-derived"
        );
        assert_eq!(fc.stats().computed_of(AnalysisKind::Cover), 2);
        assert_eq!(fc.stats().hits_of(AnalysisKind::Cover), 2);
    }

    #[test]
    fn irreducibility_is_memoized_too() {
        // Two-entry loop: start forks into a and b, a -> b -> a.
        let mut vars = VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = Cfg::new(vars);
        let fork = cfg.add_node(Stmt::Branch { pred: Expr::Var(x) });
        let a = cfg.add_node(Stmt::Assign {
            lhs: LValue::Var(x),
            rhs: Expr::Var(x),
        });
        let b = cfg.add_node(Stmt::Branch { pred: Expr::Var(x) });
        cfg.set_entry(fork);
        cfg.add_edge(fork, a);
        cfg.add_edge(fork, b);
        cfg.add_edge(a, b);
        cfg.add_edge(b, a);
        cfg.add_edge(b, cfg.end());
        let mut fc = FunctionContext::for_cfg(cfg);
        assert!(fc.loop_forest().is_err());
        assert!(fc.loop_forest().is_err());
        assert!(fc.topo_order().is_err());
        assert_eq!(fc.stats().computed_of(AnalysisKind::LoopForest), 1);
        assert_eq!(fc.stats().hits_of(AnalysisKind::LoopForest), 2);
        // The failed topo never computed (its input failed).
        assert_eq!(fc.stats().computed_of(AnalysisKind::TopoOrder), 0);
    }
}
