//! Per-stage records of one translation.
//!
//! [`crate::pipeline::translate_cfg`] runs each stage through a
//! `Recorder`, which wraps the call in one [`PassRecord`]: wall time,
//! how many analyses the stage computed vs. got from the
//! [`FunctionContext`]'s cache, and CFG/DFG sizes before and after. The
//! records surface through [`crate::pipeline::Translated::passes`] and the
//! `cf2df translate --time-passes` table.

use crate::pipeline::TranslateError;
use crate::translator::Built;
use cf2df_cfg::FunctionContext;
use std::time::{Duration, Instant};

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

/// The records of one translation's stages, in the order they ran.
#[derive(Default)]
pub(crate) struct Recorder(pub(crate) Vec<PassRecord>);

impl Recorder {
    /// Run `stage` as the pass `name` over the CFG in `fctx` and the graph
    /// in `built` (empty before construction), and record it. A failing
    /// stage leaves no record: its error ends the translation.
    pub(crate) fn stage<T>(
        &mut self,
        name: &'static str,
        fctx: &mut FunctionContext,
        built: &mut Built,
        stage: impl FnOnce(&mut FunctionContext, &mut Built) -> Result<T, TranslateError>,
    ) -> Result<T, TranslateError> {
        let stats_before = fctx.stats();
        let (nodes_in, ops_in) = (fctx.cfg().len(), built.dfg.len());
        let t0 = Instant::now();
        let out = stage(fctx, built)?;
        let wall = t0.elapsed();
        let delta = fctx.stats().since(&stats_before);
        self.0.push(PassRecord {
            name,
            wall,
            analyses_computed: delta.total_computed(),
            cache_hits: delta.total_hits(),
            nodes_in,
            nodes_out: fctx.cfg().len(),
            ops_in,
            ops_out: built.dfg.len(),
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
