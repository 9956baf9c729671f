//! The pass manager: named pipeline stages over one shared
//! [`FunctionContext`], with always-on per-pass records.
//!
//! Every stage of [`crate::pipeline::translate`] is a [`Pass`] that reads
//! and writes one [`PassCtx`]. The context owns the CFG (inside its
//! `FunctionContext`, which memoizes every structural analysis keyed by a
//! revision stamp) plus the intermediate products — token lines,
//! loop-control metadata, switch placement, source vectors, and the
//! dataflow graph under construction. Passes never clone the CFG; a pass
//! that mutates it goes through `FunctionContext::mutate`/`replace_cfg`,
//! which bumps the revision and invalidates exactly the analyses the
//! mutation can change.
//!
//! The [`PassManager`] wraps each pass with instrumentation: wall time,
//! how many analyses the pass computed vs. served from cache, and CFG/DFG
//! sizes before and after. The records surface through
//! [`crate::pipeline::Translated::passes`] and the `cf2df translate
//! --time-passes` table.

use crate::lines::Lines;
use crate::source_vec::SourceVectors;
use crate::switch_place::SwitchPlacement;
use crate::translator::Built;
use cf2df_cfg::loop_control::LoopControlMeta;
use cf2df_cfg::{CacheStats, FunctionContext};
use std::time::{Duration, Instant};

use crate::pipeline::{TranslateError, TranslateOptions};

/// Shared state threaded through every pass. One per translation; the
/// CFG lives inside `fctx` and is never cloned between stages.
pub struct PassCtx<'a> {
    /// The CFG plus its memoized analysis cache.
    pub fctx: FunctionContext,
    /// The options driving the pipeline.
    pub opts: &'a TranslateOptions,
    /// Token-line structure (set by the `lines` pass).
    pub lines: Option<Lines>,
    /// Loop-control metadata (set by the `loop-control` pass).
    pub loop_control: Option<LoopControlMeta>,
    /// §4 switch placement (set by the `switch-placement` pass).
    pub switch_placement: Option<SwitchPlacement>,
    /// §4 source vectors (set by the `source-vectors` pass).
    pub source_vectors: Option<SourceVectors>,
    /// The dataflow graph under construction (set by a construction pass,
    /// rewritten by the §6 transform passes).
    pub built: Option<Built>,
    /// Switch sites the optimized construction placed, snapshotted before
    /// the §6 transforms can remap or remove operators (set by the
    /// `construct-optimized` pass; `None` for the naive translation).
    pub placed_switches: Option<Vec<(cf2df_cfg::NodeId, crate::lines::LineId)>>,
    /// The clean certification report (set by the `certify` pass).
    pub certify_report: Option<crate::certify::CertifyReport>,
    /// §6.2 load chains parallelized.
    pub read_chains_parallelized: usize,
    /// §6.3 sites rewritten.
    pub array_sites_parallelized: usize,
    /// §6.2 loads eliminated by store-to-load forwarding.
    pub stores_forwarded: usize,
    /// Element operations converted to I-structure operations.
    pub istructure_ops: usize,
    /// Operators removed by the CSE/DCE cleanup passes.
    pub ops_cleaned: usize,
    /// Linear chains collapsed into `Macro` operators by the fusion pass.
    pub chains_fused: usize,
    /// Operators eliminated by fusion (chain interiors).
    pub ops_fused: usize,
}

impl<'a> PassCtx<'a> {
    /// A fresh context over `fctx` with no intermediate products yet.
    pub fn new(fctx: FunctionContext, opts: &'a TranslateOptions) -> Self {
        PassCtx {
            fctx,
            opts,
            lines: None,
            loop_control: None,
            switch_placement: None,
            source_vectors: None,
            built: None,
            placed_switches: None,
            certify_report: None,
            read_chains_parallelized: 0,
            array_sites_parallelized: 0,
            stores_forwarded: 0,
            istructure_ops: 0,
            ops_cleaned: 0,
            chains_fused: 0,
            ops_fused: 0,
        }
    }

    /// The token lines; panics if the `lines` pass has not run.
    pub fn lines(&self) -> &Lines {
        self.lines.as_ref().expect("lines pass must run first")
    }

    /// The graph under construction; panics before a construction pass.
    pub fn built_mut(&mut self) -> &mut Built {
        self.built
            .as_mut()
            .expect("construction pass must run first")
    }
}

/// One named stage of the translation pipeline.
pub trait Pass {
    /// Stable, human-readable stage name (shown by `--time-passes`).
    fn name(&self) -> &'static str;
    /// Run the stage, reading and writing the shared context.
    fn run(&mut self, ctx: &mut PassCtx) -> Result<(), TranslateError>;
}

/// Instrumentation captured for one executed pass.
#[derive(Clone, Debug)]
pub struct PassRecord {
    /// The pass name.
    pub name: &'static str,
    /// Wall-clock time the pass took.
    pub wall: Duration,
    /// Analyses the pass caused to be computed (cache misses).
    pub analyses_computed: u64,
    /// Analyses the pass got from the cache (hits).
    pub cache_hits: u64,
    /// CFG nodes before the pass ran.
    pub nodes_in: usize,
    /// CFG nodes after the pass ran.
    pub nodes_out: usize,
    /// DFG operators before the pass ran (0 until construction).
    pub ops_in: usize,
    /// DFG operators after the pass ran.
    pub ops_out: usize,
}

/// Renders pass records as the aligned table `--time-passes` prints.
pub fn render_pass_table(records: &[PassRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>10} {:>8} {:>6} {:>11} {:>11}\n",
        "pass", "wall", "computed", "hits", "nodes", "ops"
    ));
    let mut total = Duration::ZERO;
    for r in records {
        total += r.wall;
        out.push_str(&format!(
            "{:<20} {:>8.1}us {:>8} {:>6} {:>4} -> {:<4} {:>4} -> {:<4}\n",
            r.name,
            r.wall.as_secs_f64() * 1e6,
            r.analyses_computed,
            r.cache_hits,
            r.nodes_in,
            r.nodes_out,
            r.ops_in,
            r.ops_out,
        ));
    }
    out.push_str(&format!(
        "{:<20} {:>8.1}us\n",
        "total",
        total.as_secs_f64() * 1e6
    ));
    out
}

/// Runs a sequence of passes in order, instrumenting each one.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty manager.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Append a pass to the schedule.
    pub fn add(&mut self, p: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(p));
        self
    }

    /// Run every scheduled pass against `ctx`, in order. Stops at the
    /// first failing pass; on success returns one record per pass.
    pub fn run(&mut self, ctx: &mut PassCtx) -> Result<Vec<PassRecord>, TranslateError> {
        let mut records = Vec::with_capacity(self.passes.len());
        for p in &mut self.passes {
            let stats_before: CacheStats = ctx.fctx.stats();
            let nodes_in = ctx.fctx.cfg().len();
            let ops_in = ctx.built.as_ref().map_or(0, |b| b.dfg.len());
            let t0 = Instant::now();
            p.run(ctx)?;
            let wall = t0.elapsed();
            let delta = ctx.fctx.stats().since(&stats_before);
            records.push(PassRecord {
                name: p.name(),
                wall,
                analyses_computed: delta.total_computed(),
                cache_hits: delta.total_hits(),
                nodes_in,
                nodes_out: ctx.fctx.cfg().len(),
                ops_in,
                ops_out: ctx.built.as_ref().map_or(0, |b| b.dfg.len()),
            });
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::FunctionContext;

    struct Nop(&'static str);
    impl Pass for Nop {
        fn name(&self) -> &'static str {
            self.0
        }
        fn run(&mut self, _ctx: &mut PassCtx) -> Result<(), TranslateError> {
            Ok(())
        }
    }

    struct Fails;
    impl Pass for Fails {
        fn name(&self) -> &'static str {
            "fails"
        }
        fn run(&mut self, _ctx: &mut PassCtx) -> Result<(), TranslateError> {
            Err(TranslateError::OptimizedNeedsLoopControl)
        }
    }

    fn tiny_ctx(opts: &TranslateOptions) -> PassCtx<'_> {
        let parsed = cf2df_lang::parse_to_cfg("x := 1;").unwrap();
        PassCtx::new(FunctionContext::new(parsed.cfg, parsed.alias), opts)
    }

    #[test]
    fn manager_records_one_entry_per_pass_in_order() {
        let opts = TranslateOptions::schema2();
        let mut ctx = tiny_ctx(&opts);
        let mut pm = PassManager::new();
        pm.add(Nop("first")).add(Nop("second"));
        let records = pm.run(&mut ctx).unwrap();
        let names: Vec<_> = records.iter().map(|r| r.name).collect();
        assert_eq!(names, ["first", "second"]);
    }

    #[test]
    fn manager_stops_at_first_error() {
        let opts = TranslateOptions::schema2();
        let mut ctx = tiny_ctx(&opts);
        let mut pm = PassManager::new();
        pm.add(Nop("ok")).add(Fails).add(Nop("never"));
        assert_eq!(
            pm.run(&mut ctx).unwrap_err(),
            TranslateError::OptimizedNeedsLoopControl
        );
    }

    #[test]
    fn table_renders_every_pass_and_a_total() {
        let records = vec![PassRecord {
            name: "lines",
            wall: Duration::from_micros(12),
            analyses_computed: 1,
            cache_hits: 0,
            nodes_in: 5,
            nodes_out: 5,
            ops_in: 0,
            ops_out: 0,
        }];
        let table = render_pass_table(&records);
        assert!(table.contains("lines"));
        assert!(table.contains("total"));
    }
}
