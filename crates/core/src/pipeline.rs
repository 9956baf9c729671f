//! One-call translation pipeline: CFG → (node splitting) → loop control →
//! schema translation → §6 transforms → certify → fuse.
//!
//! [`translate_cfg`] is one straight function: each stage is a plain call
//! whose inputs and outputs are local variables, in the paper's order —
//! token lines over the cover (§5), loop control (§3), switch placement
//! and source vectors (Figs 10–11) with the §4.2 construction or the full
//! Schema 1–3 translation, then the §6 rewrites. The CFG is owned by a
//! [`FunctionContext`] whose analysis cache memoizes dominators,
//! postdominators, control dependence, the loop forest, topological
//! order, predecessor lists, validity, and alias covers. Stages that
//! mutate the CFG (node splitting, loop-control insertion) bump its
//! revision and invalidate only what they can change; every other stage
//! reads analyses through the cache, so one full translation computes
//! each analysis at most once per CFG revision. A recorder wraps each
//! stage call in a [`PassRecord`].

use crate::certify::{CertifyReport, SwitchSite};
use crate::lines::{LineId, Lines};
use crate::optimized::construct;
use crate::pass::{PassRecord, Recorder};
use crate::source_vec::SourceVectors;
use crate::switch_place::SwitchPlacement;
use crate::transform;
use crate::translator::{translate_full, Built};
use cf2df_cfg::intervals::Irreducible;
use cf2df_cfg::loop_control::{insert_loop_control, split_irreducible, LoopControlMeta};
use cf2df_cfg::{
    AliasStructure, CacheStats, Cfg, CfgError, CoverStrategy, FunctionContext, NodeId, Preserved,
    VarId,
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
    Certify(Box<CertifyReport>),
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

impl From<Irreducible> for TranslateError {
    fn from(e: Irreducible) -> Self {
        TranslateError::Irreducible(e)
    }
}

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
    pub certify: Option<CertifyReport>,
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
/// copying it: node splitting and loop-control insertion mutate it in
/// place, and it is returned in [`Translated::cfg`].
///
/// The stages run in a fixed order, each at most once; a stage the
/// options switch off does not run and leaves no record, so
/// [`Translated::passes`] names exactly the stages that ran. The first
/// failing stage ends the translation with its error.
pub fn translate_cfg(
    cfg: Cfg,
    alias: AliasStructure,
    opts: &TranslateOptions,
) -> Result<Translated, TranslateError> {
    let mut fctx = FunctionContext::new(cfg, alias);
    // Empty until a construction stage replaces it.
    let mut built = Built::default();
    let mut rec = Recorder::default();

    rec.stage("validate", &mut fctx, &mut built, |f, _| {
        f.validate().map_err(TranslateError::Cfg)
    })?;
    let lines = rec.stage("lines", &mut fctx, &mut built, |f, _| build_lines(f, opts))?;
    // Node-split an irreducible CFG. The loop forest computed for the
    // test stays in the cache for every later stage.
    rec.stage("reducibility", &mut fctx, &mut built, |f, _| {
        if f.loop_forest().is_err() {
            let split = split_irreducible(f.cfg())?;
            f.replace_cfg(split, Preserved::VALIDITY);
        }
        Ok(())
    })?;
    let loop_control = if opts.loop_control {
        let meta = rec.stage("loop-control", &mut fctx, &mut built, |f, _| {
            Ok(insert_loop_control(f)?)
        })?;
        Some(meta)
    } else {
        None
    };

    // `lines` has refused the optimized construction without loop control.
    let placed_switches: Option<Vec<(NodeId, LineId)>> = match (&loop_control, opts.optimized) {
        (Some(meta), true) => {
            let sp = rec.stage("switch-placement", &mut fctx, &mut built, |f, _| {
                Ok(SwitchPlacement::compute(f, meta, &lines))
            })?;
            let sv = rec.stage("source-vectors", &mut fctx, &mut built, |f, _| {
                Ok(SourceVectors::compute(f, meta, &lines, &sp)?)
            })?;
            // Snapshot the placed switch sites before the §6 rewrites can
            // remap or delete operators: certify cross-checks them
            // against the Theorem 1 oracle.
            let placed = rec.stage("construct-optimized", &mut fctx, &mut built, |f, b| {
                *b = construct(f, &lines, &sp, &sv)?;
                Ok(b.ops.switches.keys().copied().collect())
            })?;
            Some(placed)
        }
        _ => {
            rec.stage("translate-full", &mut fctx, &mut built, |f, b| {
                *b = translate_full(f, &lines)?;
                Ok(())
            })?;
            None
        }
    };

    let array_sites_parallelized = match (&loop_control, opts.parallelize_array_stores) {
        (Some(meta), true) => rec.stage("array-parallelize", &mut fctx, &mut built, |f, b| {
            Ok(transform::parallelize_array_stores(b, f.cfg(), meta, &lines).len())
        })?,
        _ => 0,
    };
    let read_chains_parallelized = if opts.parallelize_reads {
        rec.stage("read-parallelize", &mut fctx, &mut built, |_, b| {
            Ok(transform::parallelize_reads(&mut b.dfg))
        })?
    } else {
        0
    };
    let stores_forwarded = if opts.forward_stores {
        rec.stage("forward-stores", &mut fctx, &mut built, |_, b| {
            let (n, map) = transform::forward_stores(&mut b.dfg);
            b.ops.remap(&map);
            Ok(n)
        })?
    } else {
        0
    };
    let ops_cleaned = if opts.cleanup {
        rec.stage("cleanup", &mut fctx, &mut built, |_, b| {
            let (c, map) = transform::eliminate_common_subexpressions(&mut b.dfg);
            b.ops.remap(&map);
            let (d, map) = transform::eliminate_dead_code(&mut b.dfg);
            b.ops.remap(&map);
            Ok(c + d)
        })?
    } else {
        0
    };
    let istructure_ops = if opts.istructure_arrays.is_empty() {
        0
    } else {
        rec.stage("istructure", &mut fctx, &mut built, |f, b| {
            let ids: Vec<VarId> = opts
                .istructure_arrays
                .iter()
                .filter_map(|name| f.cfg().vars.lookup(name))
                .collect();
            let (n, map) = transform::convert_arrays(&mut b.dfg, &ids);
            b.ops.remap(&map);
            Ok(n)
        })?
    };

    // Without loop control the graph is the Fig 8 reproduction: neither
    // certified nor fused, left as the paper draws it.
    let certify = match &loop_control {
        Some(meta) => Some(rec.stage("certify", &mut fctx, &mut built, |f, b| {
            certify_graph(f, &b.dfg, meta, &lines, placed_switches.as_deref())
        })?),
        None => None,
    };
    // Fusion coarsens the certified graph for the machine; a fused graph
    // still certifies, macros being ordinary strict operators to the
    // token-rate analysis.
    let (chains_fused, ops_fused) = if opts.fuse && loop_control.is_some() {
        rec.stage("fuse", &mut fctx, &mut built, |_, b| {
            let (stats, map) = cf2df_dfg::fuse(&mut b.dfg);
            b.ops.remap(&map);
            Ok((stats.chains, stats.ops_fused))
        })?
    } else {
        (0, 0)
    };

    let stats = DfgStats::of(&built.dfg);
    debug_assert!(
        cf2df_dfg::validate(&built.dfg).is_ok(),
        "translator produced an invalid graph:\n{}",
        built.dfg.pretty()
    );
    Ok(Translated {
        dfg: built.dfg,
        loop_control,
        lines,
        ops: built.ops,
        stats,
        passes: rec.0,
        cache_stats: fctx.stats(),
        revisions: fctx.revision(),
        cfg: fctx.into_cfg(),
        read_chains_parallelized,
        array_sites_parallelized,
        stores_forwarded,
        istructure_ops,
        ops_cleaned,
        chains_fused,
        ops_fused,
        certify,
    })
}

/// The `lines` stage: resolves the schema to a cover strategy, rejects
/// inconsistent options, and builds the token lines over the cover.
fn build_lines(
    fctx: &mut FunctionContext,
    opts: &TranslateOptions,
) -> Result<Lines, TranslateError> {
    let strategy = match &opts.schema {
        Schema::One => CoverStrategy::SingleToken,
        Schema::Two => {
            if !fctx.alias().is_identity() {
                return Err(TranslateError::AliasingRequiresSchema3);
            }
            CoverStrategy::Singletons
        }
        Schema::Three(c) => c.clone(),
    };
    if opts.optimized && !opts.loop_control {
        return Err(TranslateError::OptimizedNeedsLoopControl);
    }
    let cover = fctx.cover(&strategy);
    Ok(Lines::new(
        &fctx.cfg().vars,
        fctx.alias(),
        &cover,
        opts.eliminate_memory,
    )
    .with_flat_synch(opts.flat_synch))
}

/// The `certify` stage, the static translation validator: token-rate
/// certification of the graph, the Theorem 1 cross-check of the switch
/// sites the optimized construction `placed` (`None` after the full
/// translation, which switches every line), access-token conservation
/// and cover soundness. See [`crate::certify`]. A report with defects is
/// the error.
fn certify_graph(
    fctx: &mut FunctionContext,
    dfg: &Dfg,
    meta: &LoopControlMeta,
    lines: &Lines,
    placed: Option<&[(NodeId, LineId)]>,
) -> Result<CertifyReport, TranslateError> {
    let (missing, extra, switches_checked) = match placed {
        Some(placed) => {
            let mut placed: Vec<SwitchSite> = placed
                .iter()
                .map(|&(node, line)| SwitchSite { node, line })
                .collect();
            placed.sort_unstable();
            placed.dedup();
            let cd = fctx.control_deps();
            let oracle = crate::certify::theorem1_switches(fctx.cfg(), &cd, meta, lines);
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
    let analysis = cf2df_dfg::certify::analyze(dfg);
    let (conservation_defects, memory_pairs_checked) =
        crate::certify::check_conservation(dfg, lines, &analysis);
    let cover_defects = crate::certify::check_cover(&fctx.cfg().vars, fctx.alias(), lines);
    let report = CertifyReport {
        graph_defects: analysis.defects,
        missing_switches: missing,
        extra_switches: extra,
        conservation_defects,
        cover_defects,
        switches_checked,
        memory_pairs_checked,
    };
    if report.is_clean() {
        Ok(report)
    } else {
        Err(TranslateError::Certify(Box::new(report)))
    }
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
        // The branches the two schedules above leave out. Without loop
        // control, neither the array rewrite nor certify nor fuse runs.
        let parsed = parse_to_cfg(cf2df_lang::corpus::ARRAY_LOOP).unwrap();
        let no_lc = ["validate", "lines", "reducibility", "translate-full"];
        let with_lc = ["validate", "lines", "reducibility", "loop-control"];
        let cases: [(TranslateOptions, Vec<&str>); 4] = [
            (
                TranslateOptions::schema2().with_loop_control(false),
                no_lc.to_vec(),
            ),
            (
                TranslateOptions::schema2()
                    .with_array_parallelization(true)
                    .with_loop_control(false),
                no_lc.to_vec(),
            ),
            (
                TranslateOptions::schema2().with_istructure_arrays(["x"]),
                [
                    &with_lc[..],
                    &["translate-full", "istructure", "certify", "fuse"],
                ]
                .concat(),
            ),
            (
                TranslateOptions::schema2().with_fuse(false),
                [&with_lc[..], &["translate-full", "certify"]].concat(),
            ),
        ];
        for (opts, want) in cases {
            let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
            let names: Vec<_> = t.passes.iter().map(|r| r.name).collect();
            assert_eq!(names, want, "{opts:?}");
        }
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
