//! One-call translation pipeline: CFG → (node splitting) → loop control →
//! schema translation → §6 transforms.
//!
//! The pipeline is a sequence of named [`Pass`] stages run by a
//! [`PassManager`] over a single [`PassCtx`]: the CFG is owned by a
//! [`FunctionContext`] whose analysis cache memoizes dominators,
//! postdominators, control dependence, the loop forest, topological
//! order, predecessor lists, validity, and alias covers. Stages that
//! mutate the CFG (node splitting, loop-control insertion) bump its
//! revision and invalidate only what they can change; every other stage
//! reads analyses through the cache, so one full translation computes
//! each analysis at most once per CFG revision.

use crate::lines::Lines;
use crate::pass::{Pass, PassCtx, PassManager, PassRecord};
use crate::source_vec::SourceVectors;
use crate::switch_place::SwitchPlacement;
use crate::translator::translate_full_cached;
use cf2df_cfg::intervals::Irreducible;
use cf2df_cfg::loop_control::{insert_loop_control_in_place, split_irreducible, LoopControlMeta};
use cf2df_cfg::{
    AliasStructure, CacheStats, Cfg, CfgError, CoverStrategy, FunctionContext, Preserved,
};
use cf2df_dfg::{Dfg, DfgStats};
use std::fmt;

/// Which translation schema to apply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Schema {
    /// §2.3: a single access token (sequential semantics).
    One,
    /// §3: one access token per variable. Requires an alias-free program.
    Two,
    /// §5: one access token per cover element of the alias structure.
    Three(CoverStrategy),
}

/// Translation options. Start from one of the constructors and adjust
/// fields as needed.
#[derive(Clone, Debug)]
pub struct TranslateOptions {
    /// The schema.
    pub schema: Schema,
    /// Apply the §4 optimized direct construction (no redundant switches).
    pub optimized: bool,
    /// Apply §6.1 memory elimination for unaliased scalars.
    pub eliminate_memory: bool,
    /// Apply the §6.2 read-parallelization rewrite.
    pub parallelize_reads: bool,
    /// Apply the §6.3 / Fig 14 array-store parallelization rewrite.
    pub parallelize_array_stores: bool,
    /// Apply §6.2 store-to-load forwarding.
    pub forward_stores: bool,
    /// Gather multi-token access sets with one flat n-ary synch instead of
    /// a binary synch tree (ablation of the Fig 2 synch-tree realization:
    /// trees pipeline in O(log n) depth, flat synchs are single operators).
    pub flat_synch: bool,
    /// Run the dataflow-IR cleanup passes (common-subexpression and dead
    /// code elimination) after everything else — the "conventional
    /// optimizations" the paper's abstract promises the IR supports.
    pub cleanup: bool,
    /// Arrays (by name) to place in write-once I-structure memory
    /// (§6.3's enhancement). **Opt-in and unchecked**: the caller asserts
    /// each listed array is written at most once per cell and that every
    /// read cell is eventually written; violations fault or deadlock at
    /// run time rather than corrupt results. Unknown names are ignored.
    pub istructure_arrays: Vec<String>,
    /// Insert loop control (§3). Disabling this on a cyclic program
    /// reproduces the paper's broken Fig 8 graph, whose token collisions
    /// the machine detects. With loop control on, the static translation
    /// validator ([`crate::certify`]) runs as the last stage: token-rate
    /// certification of the produced graph, the Theorem 1
    /// switch-placement cross-check, and access-token conservation. The
    /// Fig 8 reproduction graphs are deliberately uncertifiable, so the
    /// pass is skipped when `loop_control` is off.
    pub loop_control: bool,
    /// Fuse maximal linear operator chains into compound `Macro` actors
    /// ([`cf2df_dfg::fuse()`]) after certification, eliding their interior
    /// tokens, rendezvous slots, and firings at execution time. On by
    /// default; a pure machine-level coarsening that leaves Schema 1–3
    /// semantics and tag allocation untouched. Runs only with loop
    /// control on (like certification — the Fig 8 reproduction graphs
    /// are left byte-for-byte as the paper draws them).
    pub fuse: bool,
}

impl TranslateOptions {
    /// Schema 1: the sequential baseline.
    pub fn schema1() -> Self {
        TranslateOptions {
            schema: Schema::One,
            optimized: false,
            eliminate_memory: false,
            parallelize_reads: false,
            parallelize_array_stores: false,
            forward_stores: false,
            flat_synch: false,
            cleanup: false,
            istructure_arrays: Vec::new(),
            loop_control: true,
            fuse: true,
        }
    }

    /// Schema 2: per-variable tokens.
    pub fn schema2() -> Self {
        TranslateOptions {
            schema: Schema::Two,
            ..Self::schema1()
        }
    }

    /// Schema 3 with the given cover strategy.
    pub fn schema3(cover: CoverStrategy) -> Self {
        TranslateOptions {
            schema: Schema::Three(cover),
            ..Self::schema1()
        }
    }

    /// The §4 optimized construction over per-variable tokens.
    pub fn optimized() -> Self {
        TranslateOptions {
            optimized: true,
            ..Self::schema2()
        }
    }

    /// Everything on: optimized construction plus all §6 transforms.
    pub fn full_parallel() -> Self {
        TranslateOptions {
            optimized: true,
            eliminate_memory: true,
            parallelize_reads: true,
            parallelize_array_stores: true,
            forward_stores: true,
            cleanup: true,
            ..Self::schema2()
        }
    }

    /// `full_parallel` but over Schema 3 singleton covers (works with
    /// aliasing).
    pub fn full_parallel_schema3() -> Self {
        TranslateOptions {
            schema: Schema::Three(CoverStrategy::Singletons),
            ..Self::full_parallel()
        }
    }

    /// Builder-style field toggles.
    pub fn with_optimized(mut self, on: bool) -> Self {
        self.optimized = on;
        self
    }

    /// Toggle §6.1 memory elimination.
    pub fn with_memory_elimination(mut self, on: bool) -> Self {
        self.eliminate_memory = on;
        self
    }

    /// Toggle the §6.2 read-parallelization rewrite.
    pub fn with_read_parallelization(mut self, on: bool) -> Self {
        self.parallelize_reads = on;
        self
    }

    /// Toggle the §6.3 array-store rewrite.
    pub fn with_array_parallelization(mut self, on: bool) -> Self {
        self.parallelize_array_stores = on;
        self
    }

    /// Toggle loop control (disable only to reproduce Fig 8's failure).
    pub fn with_loop_control(mut self, on: bool) -> Self {
        self.loop_control = on;
        self
    }

    /// Toggle macro-op fusion (the post-certify chain coarsening).
    pub fn with_fuse(mut self, on: bool) -> Self {
        self.fuse = on;
        self
    }

    /// Toggle §6.2 store-to-load forwarding.
    pub fn with_store_forwarding(mut self, on: bool) -> Self {
        self.forward_stores = on;
        self
    }

    /// Toggle flat n-ary token gathering (ablation).
    pub fn with_flat_synch(mut self, on: bool) -> Self {
        self.flat_synch = on;
        self
    }

    /// Declare arrays as write-once I-structures (§6.3; see the field docs
    /// for the caller's obligations).
    pub fn with_istructure_arrays<S: Into<String>>(
        mut self,
        names: impl IntoIterator<Item = S>,
    ) -> Self {
        self.istructure_arrays = names.into_iter().map(Into::into).collect();
        self
    }
}

/// Why a translation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// The CFG violates the §2.1 invariants.
    Cfg(Vec<CfgError>),
    /// The CFG is irreducible and node splitting hit its code-growth
    /// cap before making it reducible.
    Irreducible(Irreducible),
    /// Schema 2 was requested for a program with aliasing (§3 assumes none;
    /// use Schema 3).
    AliasingRequiresSchema3,
    /// The optimized construction requires loop control.
    OptimizedNeedsLoopControl,
    /// The static translation validator found defects in the produced
    /// graph; the full report is attached and the graph is withheld from
    /// the caller.
    Certify(Box<crate::certify::CertifyReport>),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::Cfg(errs) => {
                write!(f, "invalid CFG: ")?;
                for e in errs {
                    write!(f, "{e}; ")?;
                }
                Ok(())
            }
            TranslateError::Irreducible(e) => write!(f, "{e}"),
            TranslateError::AliasingRequiresSchema3 => {
                write!(f, "Schema 2 assumes no aliasing; use Schema 3 with a cover")
            }
            TranslateError::OptimizedNeedsLoopControl => {
                write!(f, "the optimized construction requires loop control")
            }
            TranslateError::Certify(report) => {
                write!(f, "translation failed certification: {report}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// A completed translation.
#[derive(Clone, Debug)]
pub struct Translated {
    /// The dataflow graph.
    pub dfg: Dfg,
    /// The CFG actually translated (after node splitting and loop-control
    /// insertion).
    pub cfg: Cfg,
    /// Loop-control metadata, when loop control was inserted.
    pub loop_control: Option<LoopControlMeta>,
    /// The token-line structure used.
    pub lines: Lines,
    /// Operator bookkeeping from the construction.
    pub ops: crate::translator::LineOps,
    /// Graph statistics.
    pub stats: DfgStats,
    /// Per-pass instrumentation (always on): name, wall time, analyses
    /// computed vs. served from cache, CFG/DFG sizes in and out.
    pub passes: Vec<PassRecord>,
    /// Cumulative analysis-cache counters for the whole translation.
    pub cache_stats: CacheStats,
    /// How many times the CFG was mutated (its final revision stamp).
    pub revisions: u64,
    /// Number of §6.2 load chains parallelized.
    pub read_chains_parallelized: usize,
    /// §6.3 sites rewritten.
    pub array_sites_parallelized: usize,
    /// §6.2 loads eliminated by store-to-load forwarding.
    pub stores_forwarded: usize,
    /// Element operations converted to I-structure operations (§6.3).
    pub istructure_ops: usize,
    /// Operators removed by the CSE/DCE cleanup passes.
    pub ops_cleaned: usize,
    /// Linear chains collapsed into `Macro` operators by the fusion pass.
    pub chains_fused: usize,
    /// Operators eliminated by fusion (chain interiors; each macro firing
    /// elides this many individual firings in total across the graph).
    pub ops_fused: usize,
    /// The clean certification report, when the `certify` pass ran.
    pub certify: Option<crate::certify::CertifyReport>,
}

// ---------------------------------------------------------------------------
// The passes.

/// Checks the §2.1 CFG invariants (memoized as the `validity` analysis).
struct ValidatePass;
impl Pass for ValidatePass {
    fn name(&self) -> &'static str {
        "validate"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        ctx.fctx.validate().map_err(TranslateError::Cfg)
    }
}

/// Resolves the schema to a cover strategy, rejects inconsistent options,
/// and builds the token-line structure.
struct BuildLinesPass;
impl Pass for BuildLinesPass {
    fn name(&self) -> &'static str {
        "lines"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let strategy = match &ctx.opts.schema {
            Schema::One => CoverStrategy::SingleToken,
            Schema::Two => {
                if !ctx.fctx.alias().is_identity() {
                    return Err(TranslateError::AliasingRequiresSchema3);
                }
                CoverStrategy::Singletons
            }
            Schema::Three(c) => c.clone(),
        };
        if ctx.opts.optimized && !ctx.opts.loop_control {
            return Err(TranslateError::OptimizedNeedsLoopControl);
        }
        let cover = ctx.fctx.cover(&strategy);
        let lines = Lines::new(
            &ctx.fctx.cfg().vars,
            ctx.fctx.alias(),
            &cover,
            ctx.opts.eliminate_memory,
        )
        .with_flat_synch(ctx.opts.flat_synch);
        ctx.lines = Some(lines);
        Ok(())
    }
}

/// Ensures the CFG is reducible, node-splitting it if it is not. The
/// loop forest computed for the test stays in the cache for every later
/// stage.
struct ReducibilityPass;
impl Pass for ReducibilityPass {
    fn name(&self) -> &'static str {
        "reducibility"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        if ctx.fctx.loop_forest().is_err() {
            let split = split_irreducible(ctx.fctx.cfg()).map_err(TranslateError::Irreducible)?;
            ctx.fctx.replace_cfg(split, Preserved::VALIDITY);
        }
        Ok(())
    }
}

/// Inserts §3 loop-control statements in place, bumping the CFG revision.
struct LoopControlPass;
impl Pass for LoopControlPass {
    fn name(&self) -> &'static str {
        "loop-control"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let meta =
            insert_loop_control_in_place(&mut ctx.fctx).map_err(TranslateError::Irreducible)?;
        ctx.loop_control = Some(meta);
        Ok(())
    }
}

/// Computes the §4 switch placement (Theorem 1 / Fig 10).
struct SwitchPlacementPass;
impl Pass for SwitchPlacementPass {
    fn name(&self) -> &'static str {
        "switch-placement"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let sp = SwitchPlacement::compute_cached(
            &mut ctx.fctx,
            ctx.loop_control.as_ref().expect("loop-control pass ran"),
            ctx.lines.as_ref().expect("lines pass ran"),
        );
        ctx.switch_placement = Some(sp);
        Ok(())
    }
}

/// Computes the §4 source vectors (Fig 11).
struct SourceVectorsPass;
impl Pass for SourceVectorsPass {
    fn name(&self) -> &'static str {
        "source-vectors"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let sv = SourceVectors::compute_cached(
            &mut ctx.fctx,
            ctx.loop_control.as_ref().expect("loop-control pass ran"),
            ctx.lines.as_ref().expect("lines pass ran"),
            ctx.switch_placement
                .as_ref()
                .expect("switch-placement pass ran"),
        )
        .map_err(TranslateError::Irreducible)?;
        ctx.source_vectors = Some(sv);
        Ok(())
    }
}

/// The §4.2 optimized direct construction.
struct ConstructOptimizedPass;
impl Pass for ConstructOptimizedPass {
    fn name(&self) -> &'static str {
        "construct-optimized"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let built = crate::optimized::construct_cached(
            &mut ctx.fctx,
            ctx.lines.as_ref().expect("lines pass ran"),
            ctx.switch_placement
                .as_ref()
                .expect("switch-placement pass ran"),
            ctx.source_vectors
                .as_ref()
                .expect("source-vectors pass ran"),
        )
        .map_err(TranslateError::Irreducible)?;
        // Snapshot the placed switch sites before the §6 transforms can
        // remap or delete operators: the certify pass cross-checks these
        // against the Theorem 1 oracle.
        ctx.placed_switches = Some(built.ops.switches.keys().copied().collect());
        ctx.built = Some(built);
        Ok(())
    }
}

/// The straightforward schema translation (§2.3/§3/§5).
struct TranslateFullPass;
impl Pass for TranslateFullPass {
    fn name(&self) -> &'static str {
        "translate-full"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let built =
            translate_full_cached(&mut ctx.fctx, ctx.lines.as_ref().expect("lines pass ran"))
                .map_err(TranslateError::Irreducible)?;
        ctx.built = Some(built);
        Ok(())
    }
}

/// §6.3 / Fig 14 array-store parallelization.
struct ArrayParallelizePass;
impl Pass for ArrayParallelizePass {
    fn name(&self) -> &'static str {
        "array-parallelize"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let applied = crate::transform::parallelize_array_stores(
            ctx.built.as_mut().expect("construction pass ran"),
            ctx.fctx.cfg(),
            ctx.loop_control.as_ref().expect("loop-control pass ran"),
            ctx.lines.as_ref().expect("lines pass ran"),
        );
        ctx.array_sites_parallelized = applied.len();
        Ok(())
    }
}

/// §6.2 read parallelization.
struct ReadParallelizePass;
impl Pass for ReadParallelizePass {
    fn name(&self) -> &'static str {
        "read-parallelize"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        ctx.read_chains_parallelized =
            crate::transform::parallelize_reads(&mut ctx.built_mut().dfg);
        Ok(())
    }
}

/// §6.2 store-to-load forwarding.
struct ForwardStoresPass;
impl Pass for ForwardStoresPass {
    fn name(&self) -> &'static str {
        "forward-stores"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let built = ctx.built_mut();
        let (n, map) = crate::transform::forward_stores(&mut built.dfg);
        built.ops.remap(&map);
        ctx.stores_forwarded = n;
        Ok(())
    }
}

/// Dataflow-IR cleanup: common-subexpression then dead-code elimination.
struct CleanupPass;
impl Pass for CleanupPass {
    fn name(&self) -> &'static str {
        "cleanup"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let built = ctx.built_mut();
        let (c, map) = crate::transform::eliminate_common_subexpressions(&mut built.dfg);
        built.ops.remap(&map);
        let (d, map) = crate::transform::eliminate_dead_code(&mut built.dfg);
        built.ops.remap(&map);
        ctx.ops_cleaned = c + d;
        Ok(())
    }
}

/// §6.3 I-structure conversion for the opted-in arrays.
struct IStructurePass;
impl Pass for IStructurePass {
    fn name(&self) -> &'static str {
        "istructure"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let ids: Vec<cf2df_cfg::VarId> = ctx
            .opts
            .istructure_arrays
            .iter()
            .filter_map(|name| ctx.fctx.cfg().vars.lookup(name))
            .collect();
        let built = ctx.built.as_mut().expect("construction pass ran");
        let (n, map) = crate::transform::convert_arrays(&mut built.dfg, &ids);
        built.ops.remap(&map);
        ctx.istructure_ops = n;
        Ok(())
    }
}

/// Macro-op fusion ([`cf2df_dfg::fuse`]): collapse maximal linear chains
/// of strict operators into compound `Macro` actors. Scheduled *after*
/// `certify` — the validator certifies the graph the schemas produced,
/// and fusion is a machine-level coarsening of that certified graph
/// (itself re-checkable: a fused graph still certifies, macros being
/// ordinary strict operators to the token-rate analysis).
struct FusePass;
impl Pass for FusePass {
    fn name(&self) -> &'static str {
        "fuse"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let built = ctx.built_mut();
        let (stats, map) = cf2df_dfg::fuse(&mut built.dfg);
        built.ops.remap(&map);
        ctx.chains_fused = stats.chains;
        ctx.ops_fused = stats.ops_fused;
        Ok(())
    }
}

/// The static translation validator (always scheduled last): token-rate
/// certification, the Theorem 1 cross-check, and access-token
/// conservation. See [`crate::certify`].
struct CertifyPass;
impl Pass for CertifyPass {
    fn name(&self) -> &'static str {
        "certify"
    }
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError> {
        let (missing, extra, switches_checked) = match &ctx.placed_switches {
            Some(placed) => {
                use crate::certify::SwitchSite;
                let mut placed: Vec<SwitchSite> = placed
                    .iter()
                    .map(|&(node, line)| SwitchSite { node, line })
                    .collect();
                placed.sort_unstable();
                placed.dedup();
                let cd = ctx.fctx.control_deps();
                let oracle = crate::certify::theorem1_switches(
                    ctx.fctx.cfg(),
                    &cd,
                    ctx.loop_control
                        .as_ref()
                        .expect("certify requires loop control"),
                    ctx.lines.as_ref().expect("lines pass ran"),
                );
                // Both lists are sorted: the sites of one missing from the other.
                let absent = |from: &[SwitchSite], other: &[SwitchSite]| {
                    from.iter()
                        .filter(|s| other.binary_search(s).is_err())
                        .copied()
                        .collect::<Vec<_>>()
                };
                let (missing, extra) = (absent(&oracle, &placed), absent(&placed, &oracle));
                let checked = oracle.len() + extra.len();
                (missing, extra, checked)
            }
            None => (Vec::new(), Vec::new(), 0),
        };
        let built = ctx.built.as_ref().expect("construction pass ran");
        let lines = ctx.lines.as_ref().expect("lines pass ran");
        let analysis = cf2df_dfg::certify::analyze(&built.dfg);
        let (conservation_defects, memory_pairs_checked) =
            crate::certify::check_conservation(&built.dfg, lines, &analysis);
        let cover_defects =
            crate::certify::check_cover(&ctx.fctx.cfg().vars, ctx.fctx.alias(), lines);
        let report = crate::certify::CertifyReport {
            graph_defects: analysis.defects,
            missing_switches: missing,
            extra_switches: extra,
            conservation_defects,
            cover_defects,
            switches_checked,
            memory_pairs_checked,
        };
        if report.is_clean() {
            ctx.certify_report = Some(report);
            Ok(())
        } else {
            Err(TranslateError::Certify(Box::new(report)))
        }
    }
}

/// Assemble the pass schedule for `opts`. Disabled stages are simply not
/// scheduled, so the record list names exactly the stages that ran.
fn schedule(opts: &TranslateOptions) -> PassManager {
    let mut pm = PassManager::new();
    pm.add(ValidatePass)
        .add(BuildLinesPass)
        .add(ReducibilityPass);
    if opts.loop_control {
        pm.add(LoopControlPass);
    }
    if opts.optimized {
        pm.add(SwitchPlacementPass)
            .add(SourceVectorsPass)
            .add(ConstructOptimizedPass);
    } else {
        pm.add(TranslateFullPass);
    }
    if opts.parallelize_array_stores && opts.loop_control {
        pm.add(ArrayParallelizePass);
    }
    if opts.parallelize_reads {
        pm.add(ReadParallelizePass);
    }
    if opts.forward_stores {
        pm.add(ForwardStoresPass);
    }
    if opts.cleanup {
        pm.add(CleanupPass);
    }
    if !opts.istructure_arrays.is_empty() {
        pm.add(IStructurePass);
    }
    if opts.loop_control {
        pm.add(CertifyPass);
    }
    if opts.fuse && opts.loop_control {
        pm.add(FusePass);
    }
    pm
}

/// Translate a control-flow graph into a dataflow graph.
///
/// Borrowed-input convenience over [`translate_cfg`]: the caller keeps
/// their graph, so this copies it once at the API boundary — the only
/// CFG copy in the whole pipeline.
pub fn translate(
    cfg: &Cfg,
    alias: &AliasStructure,
    opts: &TranslateOptions,
) -> Result<Translated, TranslateError> {
    translate_cfg(cfg.clone(), alias.clone(), opts)
}

/// Translate an owned control-flow graph into a dataflow graph without
/// copying it: the pass manager mutates it in place (node splitting,
/// loop-control insertion) and returns it in [`Translated::cfg`].
pub fn translate_cfg(
    cfg: Cfg,
    alias: AliasStructure,
    opts: &TranslateOptions,
) -> Result<Translated, TranslateError> {
    let mut ctx = PassCtx::new(FunctionContext::new(cfg, alias), opts);
    let passes = schedule(opts).run(&mut ctx)?;

    let built = ctx.built.take().expect("a construction pass always runs");
    let stats = DfgStats::of(&built.dfg);
    debug_assert!(
        cf2df_dfg::validate(&built.dfg).is_ok(),
        "translator produced an invalid graph:\n{}",
        built.dfg.pretty()
    );
    Ok(Translated {
        dfg: built.dfg,
        loop_control: ctx.loop_control,
        lines: ctx.lines.take().expect("the lines pass always runs"),
        ops: built.ops,
        stats,
        passes,
        cache_stats: ctx.fctx.stats(),
        revisions: ctx.fctx.revision(),
        cfg: ctx.fctx.into_cfg(),
        read_chains_parallelized: ctx.read_chains_parallelized,
        array_sites_parallelized: ctx.array_sites_parallelized,
        stores_forwarded: ctx.stores_forwarded,
        istructure_ops: ctx.istructure_ops,
        ops_cleaned: ctx.ops_cleaned,
        chains_fused: ctx.chains_fused,
        ops_fused: ctx.ops_fused,
        certify: ctx.certify_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_lang::parse_to_cfg;

    #[test]
    fn all_schemas_translate_corpus() {
        for (name, src) in cf2df_lang::corpus::all() {
            let parsed = parse_to_cfg(src).unwrap();
            let schemas: Vec<TranslateOptions> = vec![
                TranslateOptions::schema1(),
                TranslateOptions::schema3(CoverStrategy::Singletons),
                TranslateOptions::schema3(CoverStrategy::AliasClasses),
                TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
                TranslateOptions::full_parallel_schema3(),
            ];
            for (i, o) in schemas.iter().enumerate() {
                // A certification failure Displays the full defect report,
                // path witnesses included — never a bare Debug dump.
                let t = translate(&parsed.cfg, &parsed.alias, o)
                    .unwrap_or_else(|e| panic!("{name} opts#{i}: {e}"));
                let report = t
                    .certify
                    .as_ref()
                    .unwrap_or_else(|| panic!("{name} opts#{i}: certify pass did not run"));
                assert!(report.is_clean(), "{name} opts#{i}: {report}");
            }
        }
    }

    #[test]
    fn schema2_rejects_aliasing() {
        let parsed = parse_to_cfg(cf2df_lang::corpus::FORTRAN_ALIAS).unwrap();
        let err = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap_err();
        assert_eq!(err, TranslateError::AliasingRequiresSchema3);
        // Schema 3 handles it.
        translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema3(CoverStrategy::Singletons),
        )
        .unwrap();
    }

    #[test]
    fn optimized_requires_loop_control() {
        let parsed = parse_to_cfg("x := 1;").unwrap();
        let opts = TranslateOptions::optimized().with_loop_control(false);
        assert_eq!(
            translate(&parsed.cfg, &parsed.alias, &opts).unwrap_err(),
            TranslateError::OptimizedNeedsLoopControl
        );
    }

    #[test]
    fn array_loop_gets_fig14_rewrite() {
        let parsed = parse_to_cfg(cf2df_lang::corpus::ARRAY_LOOP).unwrap();
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema2().with_array_parallelization(true),
        )
        .unwrap();
        assert_eq!(t.array_sites_parallelized, 1);
    }

    #[test]
    fn read_parallelization_reports_chains() {
        // Consecutive statements reading x force a load chain on x's line.
        let src = "x := 3; a := x + 1; b := x * 2; c := x - 1;";
        let parsed = parse_to_cfg(src).unwrap();
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema2().with_read_parallelization(true),
        )
        .unwrap();
        assert!(t.read_chains_parallelized >= 1);
    }

    #[test]
    fn invalid_cfg_is_rejected() {
        // Hand-build a CFG with an unreachable node.
        let mut vars = cf2df_cfg::VarTable::new();
        let x = vars.scalar("x");
        let mut cfg = cf2df_cfg::Cfg::new(vars);
        let a = cfg.add_node(cf2df_cfg::Stmt::Assign {
            lhs: cf2df_cfg::LValue::Var(x),
            rhs: cf2df_cfg::Expr::Const(1),
        });
        cfg.set_entry(a);
        cfg.add_edge(a, cfg.end());
        let orphan = cfg.add_node(cf2df_cfg::Stmt::Join);
        cfg.add_edge(orphan, cfg.end());
        let alias = cf2df_cfg::AliasStructure::for_table(&cfg.vars);
        let err = translate(&cfg, &alias, &TranslateOptions::schema2()).unwrap_err();
        assert!(matches!(err, TranslateError::Cfg(_)));
        assert!(err.to_string().contains("unreachable"));
    }

    #[test]
    fn irreducible_programs_are_split_and_certify() {
        let parsed = parse_to_cfg(
            "x:=0; if x==0 then { goto a; } else { goto b; }
             a: x:=x+1; if x>9 then { goto end; } else { skip; } goto b;
             b: x:=x+2; if x>9 then { goto end; } else { skip; } goto a;",
        )
        .unwrap();
        // Node splitting makes it reducible, and the result certifies:
        // any defect panics with the full report rather than a bare
        // unwrap.
        let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2())
            .unwrap_or_else(|e| panic!("split translation failed: {e}"));
        let report = t.certify.expect("certify pass ran");
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn stats_are_populated() {
        let parsed = parse_to_cfg(cf2df_lang::corpus::RUNNING_EXAMPLE).unwrap();
        let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
        assert!(t.stats.ops > 0);
        assert!(t.stats.switches >= 2);
        assert!(t.loop_control.is_some());
    }

    #[test]
    fn pass_records_name_exactly_the_stages_that_ran() {
        let parsed = parse_to_cfg(cf2df_lang::corpus::RUNNING_EXAMPLE).unwrap();
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::full_parallel_schema3(),
        )
        .unwrap();
        let names: Vec<_> = t.passes.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "validate",
                "lines",
                "reducibility",
                "loop-control",
                "switch-placement",
                "source-vectors",
                "construct-optimized",
                "array-parallelize",
                "read-parallelize",
                "forward-stores",
                "cleanup",
                "certify",
                "fuse",
            ]
        );
        // The schedule shrinks with the options.
        let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
        let names: Vec<_> = t.passes.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "validate",
                "lines",
                "reducibility",
                "loop-control",
                "translate-full",
                "certify",
                "fuse"
            ]
        );
    }

    #[test]
    fn analyses_are_shared_across_passes() {
        // Loop control inserts nodes (revision 0 → 1); afterwards every
        // analysis is computed at most once, and the construction stages
        // hit the cache instead of recomputing.
        let parsed = parse_to_cfg(cf2df_lang::corpus::RUNNING_EXAMPLE).unwrap();
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::full_parallel_schema3(),
        )
        .unwrap();
        assert_eq!(t.revisions, 1, "only loop control mutates this CFG");
        assert!(t.cache_stats.total_hits() > 0, "stages share analyses");
        use cf2df_cfg::AnalysisKind::*;
        for k in [
            Dominators,
            Postdominators,
            ControlDeps,
            LoopForest,
            TopoOrder,
            Preds,
        ] {
            assert!(
                t.cache_stats.computed_of(k) <= t.revisions + 1,
                "{}: computed {} times across {} revisions",
                k.name(),
                t.cache_stats.computed_of(k),
                t.revisions
            );
        }
        // The §4 analyses are needed only after loop control, so exactly
        // once each.
        assert_eq!(t.cache_stats.computed_of(Postdominators), 1);
        assert_eq!(t.cache_stats.computed_of(ControlDeps), 1);
        assert_eq!(t.cache_stats.computed_of(TopoOrder), 1);
    }
}
