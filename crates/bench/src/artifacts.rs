//! The benchmark-artifact pipeline behind `cf2df bench`.
//!
//! Runs the canonical workload suites ([`crate::workloads`]) through the
//! translation pipeline, the deterministic simulator and the threaded
//! executor at 1/2/4/8 workers, and renders three artifacts of exact
//! counters:
//!
//! * `BENCH_pipeline.json` — simulated (idealized-parallelism) metrics
//!   per workload per translation configuration;
//! * `BENCH_executor.json` — firings, token traffic and compiled
//!   footprint of the threaded executor at every worker count, each run
//!   checked against the simulator;
//! * `BENCH_translate.json` — the translation's counters per workload
//!   per configuration (passes run, CFG revisions, analyses computed vs.
//!   cache hits, output graph size).
//!
//! No field is timed and none depends on how the scheduler happened to
//! distribute work, so two runs of one binary write byte-identical
//! files. All are emitted through [`crate::json`], one row per line. The
//! committed `BENCH_<kind>.json` files are the baselines: a test of the
//! `cf2df` binary requires a fresh render to equal each of them byte for
//! byte, so a change that moves any counter, label, row or header field
//! regenerates them (`cf2df bench` in the repository root, then
//! `git diff`). Wall-clock is measured by the end-to-end benchmark
//! (`e2ebench/`), in alternating pairs.

use crate::harness::{measure, measure_baseline, Measurement};
use crate::json::{self, Obj};
use crate::workloads;
use cf2df_cfg::MemLayout;
use cf2df_core::pipeline::{translate, TranslateOptions};
use cf2df_machine::{
    compile, run_compiled, run_threaded_compiled_pooled_with, CompiledGraph, ExecutorPool,
    MachineConfig, ParConfig,
};

/// Worker counts the executor artifact sweeps.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Current artifact schema version.
pub const SCHEMA_VERSION: u64 = 6;

/// The canonical workload suite of the pipeline and translate artifacts.
pub fn suite() -> Vec<(&'static str, String)> {
    vec![
        ("independent_updates", workloads::independent_updates(16)),
        ("dependence_chain", workloads::dependence_chain(64)),
        ("diamond_ladder", workloads::diamond_ladder(8)),
        (
            "loop_bystanders",
            workloads::loop_with_bystanders(12, 4, 16),
        ),
        ("array_store_loop", workloads::array_store_loop(48)),
        ("read_fanout", workloads::read_fanout(16)),
        ("loop_nest", workloads::loop_nest(3, 6)),
    ]
}

/// Workloads of the executor artifact. `loop_nest_wide` and
/// `array_update_kernel` are wide enough to feed every worker, so their
/// rows check that the counters do not depend on the pool's width.
fn executor_suite() -> Vec<(&'static str, String)> {
    vec![
        ("loop_nest", workloads::loop_nest(3, 4)),
        ("independent_updates", workloads::independent_updates(8)),
        ("loop_nest_wide", workloads::loop_nest(2, 16)),
        ("array_update_kernel", workloads::array_update_kernel(4, 16)),
    ]
}

fn parse(name: &str, src: &str) -> Result<cf2df_lang::Parsed, String> {
    cf2df_lang::parse_to_cfg(src).map_err(|e| format!("workload {name} failed to parse: {e}"))
}

/// A JSON array with each item on a line of its own, so that a line
/// diff of two artifacts names the rows that differ.
fn lines(items: Vec<String>) -> String {
    format!("[\n{}\n]", items.join(",\n"))
}

/// The document around `workloads`: kind, schema version, `fused` and
/// the `extra` header fields on the first line, then one workload entry
/// per line.
fn document(kind: &str, fuse: bool, extra: &[(&str, String)], entries: Vec<String>) -> String {
    let mut doc = Obj::new();
    doc.str("artifact", kind)
        .num("schema_version", SCHEMA_VERSION)
        .bool("fused", fuse);
    for (k, v) in extra {
        doc.raw(k, v);
    }
    doc.raw("workloads", &lines(entries));
    doc.finish()
}

/// The static footprint of a workload's [`CompiledGraph`], so table
/// growth (more dest slots per op, wider immediates) shows in review.
fn footprint_json(cg: &CompiledGraph) -> String {
    let f = cg.footprint();
    let mut o = Obj::new();
    o.num("ops", f.ops as u64)
        .num("out_ports", f.out_ports as u64)
        .num("dest_slots", f.dest_slots as u64)
        .num("imm_slots", f.imm_slots as u64)
        .num("macro_steps", f.macro_steps as u64)
        .num("bytes", f.bytes as u64)
        .num("max_hot_arity", cg.max_hot_arity() as u64);
    o.finish()
}

// ---------------------------------------------------------------------
// BENCH_pipeline.json
// ---------------------------------------------------------------------

/// Render the pipeline artifact: every suite workload through the
/// baseline interpreter and three translation configurations (fused) on
/// the simulator.
pub fn pipeline_artifact() -> Result<String, String> {
    let mc = MachineConfig::unbounded();
    let mut entries = Vec::new();
    for (name, src) in suite() {
        let parsed = parse(name, &src)?;
        let m = |opts: TranslateOptions, label| measure(&parsed, &opts, &mc, label);
        let rows: Vec<Measurement> = vec![
            measure_baseline(&parsed, &mc),
            m(TranslateOptions::schema1(), "schema1"),
            m(TranslateOptions::schema2(), "schema2"),
            m(TranslateOptions::optimized(), "optimized"),
        ];
        for pair in rows.windows(2) {
            if pair[0].memory != pair[1].memory {
                return Err(format!(
                    "workload {name}: {} and {} disagree on final memory",
                    pair[0].label, pair[1].label
                ));
            }
        }
        let mut o = Obj::new();
        o.str("name", name).raw(
            "measurements",
            &lines(rows.iter().map(|r| r.to_json()).collect()),
        );
        entries.push(o.finish());
    }
    Ok(document("pipeline", true, &[], entries))
}

// ---------------------------------------------------------------------
// BENCH_executor.json
// ---------------------------------------------------------------------

/// Render the executor artifact: per workload, the simulator's firings,
/// the compiled footprint, and one row of executor counters per worker
/// count in [`WORKER_COUNTS`]. Every threaded run must reproduce the
/// simulator's final memory with the chaos layer dormant. `fuse` selects
/// macro-op fusion: the committed baseline is fused, and the unfused
/// render is the contrast of the fusion token-gate test below. Each
/// workload also records `fired_unfused` (= `fired + ops_elided`).
pub fn executor_artifact(fuse: bool) -> Result<String, String> {
    let pools: Vec<ExecutorPool> = WORKER_COUNTS
        .iter()
        .map(|&w| ExecutorPool::new(w))
        .collect();
    let par_cfg = ParConfig::default();
    let mut entries = Vec::new();
    for (name, src) in executor_suite() {
        let parsed = parse(name, &src)?;
        // The full pipeline: memory elision is what exposes the long
        // same-tag operator chains the fusion pass coarsens, so the
        // token-traffic counters reflect what fusion buys in the
        // best-optimized configuration.
        let tr = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::full_parallel_schema3().with_fuse(fuse),
        )
        .map_err(|e| format!("workload {name} failed to translate: {e}"))?;
        let layout = MemLayout::distinct(&tr.cfg.vars);
        let cg = compile(&tr.dfg).map_err(|e| format!("workload {name}: compile fault: {e}"))?;
        let sim = run_compiled(&cg, &layout, MachineConfig::unbounded())
            .map_err(|e| format!("workload {name}: simulator fault: {e}"))?;

        let mut threads = Vec::new();
        for (pool, workers) in pools.iter().zip(WORKER_COUNTS) {
            let ctx = format!("workload {name} at {workers} workers");
            let (res, _, _) = run_threaded_compiled_pooled_with(&cg, &layout, pool, &par_cfg);
            let out = res.map_err(|e| format!("{ctx}: {e}"))?;
            if out.memory != sim.memory {
                return Err(format!("{ctx}: memory diverges from simulator"));
            }
            let m = &out.metrics;
            // These runs carry no fault plan: the chaos layer must be
            // provably dormant (its tallies are always collected).
            if m.chaos.total() != 0 {
                return Err(format!(
                    "{ctx}: chaos faults injected on an ordinary run: {:?}",
                    m.chaos
                ));
            }
            let mut o = Obj::new();
            o.num("workers", workers as u64)
                .num("fired", out.fired)
                .num("tokens_processed", m.tokens_processed)
                .num("merged", m.merged)
                .num("macro_fires", m.macro_fires)
                .num("ops_elided", m.ops_elided)
                .num("tags_created", m.tags_created);
            threads.push(o.finish());
        }

        let mut o = Obj::new();
        o.str("name", name)
            .num("fired", sim.stats.fired)
            .num("fired_unfused", sim.stats.fired + sim.stats.ops_elided)
            .raw("compiled", &footprint_json(&cg))
            .raw("threads", &lines(threads));
        entries.push(o.finish());
    }
    let counts = json::array(WORKER_COUNTS.iter().map(|w| w.to_string()));
    Ok(document(
        "executor",
        fuse,
        &[("worker_counts", counts)],
        entries,
    ))
}

// ---------------------------------------------------------------------
// BENCH_translate.json
// ---------------------------------------------------------------------

/// Translation configurations the translate artifact sweeps, labeled as
/// in `cf2df compare`, all fused but the `full-nofuse` contrast, which
/// shows what the fusion pass changes.
fn translate_configs() -> [(&'static str, TranslateOptions); 5] {
    [
        ("schema1", TranslateOptions::schema1()),
        ("schema2", TranslateOptions::schema2()),
        ("optimized", TranslateOptions::optimized()),
        ("full", TranslateOptions::full_parallel_schema3()),
        (
            "full-nofuse",
            TranslateOptions::full_parallel_schema3().with_fuse(false),
        ),
    ]
}

/// Render the translate artifact: the translation's counters per suite
/// workload per configuration. `analyses_computed` guards the cache
/// discipline: any increase means a stage started recomputing an
/// analysis it used to share.
pub fn translate_artifact() -> Result<String, String> {
    let mut entries = Vec::new();
    for (name, src) in suite() {
        let parsed = parse(name, &src)?;
        let mut rows = Vec::new();
        for (label, opts) in translate_configs() {
            let tr = translate(&parsed.cfg, &parsed.alias, &opts)
                .map_err(|e| format!("workload {name}/{label} failed to translate: {e}"))?;
            let mut o = Obj::new();
            o.str("label", label)
                .num("passes", tr.passes.len() as u64)
                .num("revisions", tr.revisions)
                .num("analyses_computed", tr.cache_stats.total_computed())
                .num("cache_hits", tr.cache_stats.total_hits())
                .num("ops", tr.stats.ops as u64)
                .num("arcs", tr.stats.arcs as u64)
                .num("switches", tr.stats.switches as u64)
                .num("macros", tr.stats.macros as u64)
                .num("fused_ops", tr.stats.fused_ops as u64);
            rows.push(o.finish());
        }
        let mut o = Obj::new();
        o.str("name", name).raw("configs", &lines(rows));
        entries.push(o.finish());
    }
    Ok(document("translate", true, &[], entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn num(v: &Json, k: &str) -> f64 {
        v.get(k).unwrap().as_num().unwrap()
    }

    fn threads(w: &Json) -> &[Json] {
        w.get("threads").unwrap().as_arr().unwrap()
    }

    fn workloads(doc: &str) -> Vec<Json> {
        json::parse(doc)
            .unwrap()
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .to_vec()
    }

    /// A non-finite number renders as `null`, which byte equality with a
    /// baseline regenerated from the same render would not catch.
    #[test]
    fn no_artifact_holds_a_null() {
        for doc in [
            pipeline_artifact().unwrap(),
            executor_artifact(true).unwrap(),
            translate_artifact().unwrap(),
        ] {
            json::parse(&doc).unwrap();
            assert!(!doc.contains("null"), "{doc}");
        }
    }

    #[test]
    fn executor_artifact_sweeps_workers_and_balances_tokens() {
        for w in workloads(&executor_artifact(true).unwrap()) {
            let counts: Vec<f64> = threads(&w).iter().map(|t| num(t, "workers")).collect();
            assert_eq!(counts, vec![1.0, 2.0, 4.0, 8.0]);
            for t in threads(&w) {
                // Every token fires an operator or parks in a slot.
                let fired = num(t, "fired");
                assert_eq!(num(t, "tokens_processed"), fired + num(t, "merged"));
                // Fusion accounting: elided ops explain the gap to the
                // unfused firing count recorded on the workload.
                assert_eq!(fired + num(t, "ops_elided"), num(&w, "fired_unfused"));
            }
        }
    }

    /// Fusion pays its way: on every `loop_nest*` workload, at every
    /// worker count, the fused run processes at least 25% fewer tokens
    /// than the unfused one.
    #[test]
    fn fusion_cuts_loop_nest_token_traffic_by_a_quarter() {
        let fused = workloads(&executor_artifact(true).unwrap());
        let unfused = workloads(&executor_artifact(false).unwrap());
        let mut gated = 0;
        for (f, u) in fused.iter().zip(&unfused) {
            let name = f.get("name").unwrap().as_str().unwrap();
            assert_eq!(u.get("name").unwrap().as_str(), Some(name));
            if !name.starts_with("loop_nest") {
                continue;
            }
            for (ft, ut) in threads(f).iter().zip(threads(u)) {
                let (ftok, utok) = (num(ft, "tokens_processed"), num(ut, "tokens_processed"));
                assert!(
                    ftok <= 0.75 * utok,
                    "{name} at {} workers: {utok} tokens unfused -> {ftok} fused",
                    num(ft, "workers")
                );
                gated += 1;
            }
        }
        assert_eq!(gated, 8, "two loop_nest workloads at four worker counts");
    }

    #[test]
    fn translate_artifact_counts_passes_and_cache_hits() {
        for w in workloads(&translate_artifact().unwrap()) {
            for c in w.get("configs").unwrap().as_arr().unwrap() {
                assert!(num(c, "passes") >= 5.0, "every config runs the core stages");
                assert!(num(c, "analyses_computed") >= 1.0, "something is analyzed");
                // The optimized/full pipelines share analyses between
                // stages, so cache hits must appear.
                let label = c.get("label").unwrap().as_str().unwrap();
                if label == "optimized" || label == "full" {
                    assert!(
                        num(c, "cache_hits") >= 1.0,
                        "{label} must hit the analysis cache"
                    );
                }
            }
        }
    }
}
