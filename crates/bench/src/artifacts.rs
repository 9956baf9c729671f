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
//! * `BENCH_translate.json` — the pass manager's counters per workload
//!   per configuration (passes run, CFG revisions, analyses computed vs.
//!   cache hits, output graph size).
//!
//! No field is timed and none depends on how the scheduler happened to
//! distribute work, so two runs of one binary write byte-identical
//! files. All are emitted through [`crate::json`] and checked by the
//! [`validate_artifact`] schema validator: every required field must be
//! present and every numeric field finite (a non-finite float renders as
//! `null` and is rejected), so a bench regression can never hide behind
//! a malformed artifact. The committed `BENCH_<kind>.json` files are the
//! baselines that [`crate::compare`] holds every counter to exactly.
//! Wall-clock is measured by the end-to-end benchmark (`e2ebench/`), in
//! alternating pairs.

use crate::compare::{gate_of, rows};
use crate::harness::{measure, measure_baseline, Measurement};
use crate::json::{self, Json, Obj};
use crate::workloads;
use cf2df_cfg::MemLayout;
use cf2df_core::pipeline::{translate, TranslateOptions};
use cf2df_machine::{
    compile, run_compiled, run_threaded_compiled_pooled_with, CompiledGraph, ExecutorPool,
    MachineConfig, ParConfig,
};

/// Worker counts the executor artifact sweeps.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Current artifact schema version, the only one [`validate_artifact`]
/// accepts.
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

/// The document around `workloads`: kind, schema version, `fused` and
/// the `extra` header fields, validated before it is returned.
fn document(
    kind: &str,
    fuse: bool,
    extra: &[(&str, String)],
    entries: Vec<String>,
) -> Result<String, String> {
    let mut doc = Obj::new();
    doc.str("artifact", kind)
        .num("schema_version", SCHEMA_VERSION)
        .bool("fused", fuse);
    for (k, v) in extra {
        doc.raw(k, v);
    }
    doc.raw("workloads", &json::array(entries));
    let text = doc.finish();
    validate_artifact(&text)?;
    Ok(text)
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
/// baseline interpreter and three translation configurations on the
/// simulator. `fuse` selects whether the pipelines run macro-op fusion
/// (the committed baselines do; `--no-fuse` produces the contrast).
pub fn pipeline_artifact(fuse: bool) -> Result<String, String> {
    let mc = MachineConfig::unbounded();
    let mut entries = Vec::new();
    for (name, src) in suite() {
        let parsed = parse(name, &src)?;
        let m = |opts: TranslateOptions, label| measure(&parsed, &opts.with_fuse(fuse), &mc, label);
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
            &json::array(rows.iter().map(|r| r.to_json())),
        );
        entries.push(o.finish());
    }
    document("pipeline", fuse, &[], entries)
}

// ---------------------------------------------------------------------
// BENCH_executor.json
// ---------------------------------------------------------------------

/// Render the executor artifact: per workload, the simulator's firings,
/// the compiled footprint, and one row of executor counters per worker
/// count in [`WORKER_COUNTS`]. Every threaded run must reproduce the
/// simulator's final memory with the chaos layer dormant. `fuse` selects
/// macro-op fusion; each workload also records `fired_unfused` (=
/// `fired + ops_elided`) so a fused artifact carries its own
/// token-traffic contrast.
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
            .raw("threads", &json::array(threads));
        entries.push(o.finish());
    }
    let counts = json::array(WORKER_COUNTS.iter().map(|w| w.to_string()));
    document("executor", fuse, &[("worker_counts", counts)], entries)
}

// ---------------------------------------------------------------------
// BENCH_translate.json
// ---------------------------------------------------------------------

/// Translation configurations the translate artifact sweeps, labeled as
/// in `cf2df compare`. With fusion on, a `full-nofuse` contrast config
/// rides along so the artifact shows what the fusion pass changes; with
/// `--no-fuse` everything is already unfused and the contrast would be
/// a duplicate.
fn translate_configs(fuse: bool) -> Vec<(&'static str, TranslateOptions)> {
    let mut v = vec![
        ("schema1", TranslateOptions::schema1().with_fuse(fuse)),
        ("schema2", TranslateOptions::schema2().with_fuse(fuse)),
        ("optimized", TranslateOptions::optimized().with_fuse(fuse)),
        (
            "full",
            TranslateOptions::full_parallel_schema3().with_fuse(fuse),
        ),
    ];
    if fuse {
        v.push((
            "full-nofuse",
            TranslateOptions::full_parallel_schema3().with_fuse(false),
        ));
    }
    v
}

/// Render the translate artifact: the pass manager's counters per suite
/// workload per configuration. `analyses_computed` guards the cache
/// discipline: any increase means a stage started recomputing an
/// analysis it used to share.
pub fn translate_artifact(fuse: bool) -> Result<String, String> {
    let mut entries = Vec::new();
    for (name, src) in suite() {
        let parsed = parse(name, &src)?;
        let mut rows = Vec::new();
        for (label, opts) in translate_configs(fuse) {
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
        o.str("name", name).raw("configs", &json::array(rows));
        entries.push(o.finish());
    }
    document("translate", fuse, &[], entries)
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

fn req<'a>(v: &'a Json, ctx: &str, key: &str) -> Result<&'a Json, String> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing field '{key}'"))
}

fn req_num(v: &Json, ctx: &str, key: &str) -> Result<f64, String> {
    req(v, ctx, key)?
        .as_num()
        .ok_or_else(|| format!("{ctx}: field '{key}' is not a finite number"))
}

/// The document's declared schema version — required, and must be
/// [`SCHEMA_VERSION`] — and its `fused` flag, a boolean.
fn check_header(doc: &Json, ctx: &str) -> Result<(), String> {
    let v = req_num(doc, ctx, "schema_version")? as u64;
    if v != SCHEMA_VERSION {
        return Err(format!(
            "{ctx}: unsupported schema_version {v} (understood: {SCHEMA_VERSION})"
        ));
    }
    if !matches!(req(doc, ctx, "fused")?, Json::Bool(_)) {
        return Err(format!("{ctx}: field 'fused' is not a boolean"));
    }
    Ok(())
}

/// Every workload has a thread row for every swept worker count, and
/// fires at least as many operators unfused as fused.
fn validate_executor_value(doc: &Json) -> Result<(), String> {
    let counts = req(doc, "executor", "worker_counts")?
        .as_arr()
        .filter(|c| !c.is_empty())
        .ok_or("executor: field 'worker_counts' is not a non-empty array")?;
    for w in doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        if req_num(w, name, "fired_unfused")? < req_num(w, name, "fired")? {
            return Err(format!("{name}: fired_unfused below fired"));
        }
        let threads = w.get("threads").and_then(Json::as_arr).unwrap_or(&[]);
        for c in counts {
            let c = c
                .as_num()
                .ok_or("executor: worker_counts entry is not a number")?;
            if !threads
                .iter()
                .any(|t| t.get("workers").and_then(Json::as_num) == Some(c))
            {
                return Err(format!("{name}: no thread entry for {c} workers"));
            }
        }
    }
    Ok(())
}

/// Validate a bench artifact: well-formed JSON, a kind from the gate
/// table ([`crate::compare::GATES`]), schema version
/// [`SCHEMA_VERSION`], every row key and gated counter the table names,
/// every numeric field finite, and the kind's own consistency rules.
pub fn validate_artifact(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let gate = gate_of(&doc)?;
    check_header(&doc, gate.kind)?;
    let rows = rows(&doc, gate)?;
    match gate.kind {
        "executor" => validate_executor_value(&doc),
        "translate" => match rows.iter().find(|(_, c)| c.contains(&("passes", 0.0))) {
            Some((label, _)) => Err(format!("{label}: no passes recorded")),
            None => Ok(()),
        },
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_artifact_validates() {
        let doc = pipeline_artifact(true).unwrap();
        validate_artifact(&doc).unwrap();
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("artifact").unwrap().as_str(), Some("pipeline"));
        let names: Vec<&str> = v
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"loop_nest"), "{names:?}");
    }

    #[test]
    fn executor_artifact_validates_and_sweeps_workers() {
        let doc = executor_artifact(true).unwrap();
        validate_artifact(&doc).unwrap();
        let v = json::parse(&doc).unwrap();
        let w0 = &v.get("workloads").unwrap().as_arr().unwrap()[0];
        let threads = w0.get("threads").unwrap().as_arr().unwrap();
        let counts: Vec<f64> = threads
            .iter()
            .map(|t| t.get("workers").unwrap().as_num().unwrap())
            .collect();
        assert_eq!(counts, vec![1.0, 2.0, 4.0, 8.0]);
        let fp = w0.get("compiled").unwrap();
        assert!(fp.get("ops").unwrap().as_num().unwrap() >= 1.0);
        assert!(fp.get("bytes").unwrap().as_num().unwrap() >= 1.0);
        assert!(fp.get("max_hot_arity").unwrap().as_num().is_some());
        let num = |v: &Json, k: &str| v.get(k).unwrap().as_num().unwrap();
        for t in threads {
            // Every token fires an operator or parks in a slot.
            let fired = num(t, "fired");
            assert_eq!(num(t, "tokens_processed"), fired + num(t, "merged"));
            // Fusion accounting: elided ops explain the gap to the
            // unfused firing count recorded on the workload.
            assert_eq!(fired + num(t, "ops_elided"), num(w0, "fired_unfused"));
        }
    }

    #[test]
    fn translate_artifact_validates_and_counts_passes() {
        let doc = translate_artifact(true).unwrap();
        validate_artifact(&doc).unwrap();
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("artifact").unwrap().as_str(), Some("translate"));
        for w in v.get("workloads").unwrap().as_arr().unwrap() {
            for c in w.get("configs").unwrap().as_arr().unwrap() {
                let passes = c.get("passes").unwrap().as_num().unwrap();
                let computed = c.get("analyses_computed").unwrap().as_num().unwrap();
                assert!(passes >= 5.0, "every config runs the core stages");
                assert!(computed >= 1.0, "something must be analyzed");
                // The optimized/full pipelines share analyses between
                // stages, so cache hits must appear.
                let label = c.get("label").unwrap().as_str().unwrap();
                if label == "optimized" || label == "full" {
                    assert!(
                        c.get("cache_hits").unwrap().as_num().unwrap() >= 1.0,
                        "{label} must hit the analysis cache"
                    );
                }
            }
        }
    }

    #[test]
    fn validator_rejects_missing_and_nonfinite_fields() {
        assert!(validate_artifact("{}").is_err());
        assert!(validate_artifact("{\"artifact\":\"nope\"}").is_err());
        // A null (= non-finite) required field fails.
        let bad = r#"{"artifact":"pipeline","schema_version":6,"fused":true,"workloads":[{"name":"w","measurements":[
            {"label":"l","ops":1,"arcs":1,"switches":0,"merges":0,"fired":1,
             "makespan":0,"avg_parallelism":null,"max_parallelism":1,"mem_ops":0}]}]}"#;
        let err = validate_artifact(bad).unwrap_err();
        assert!(err.contains("avg_parallelism"), "{err}");
        // A missing field fails.
        let missing = r#"{"artifact":"pipeline","schema_version":6,"fused":true,"workloads":[{"name":"w","measurements":[
            {"label":"l"}]}]}"#;
        let err = validate_artifact(missing).unwrap_err();
        assert!(err.contains("missing field"), "{err}");
        // Two rows under one label fail: the exact gate matches rows by label.
        let twice = r#"{"artifact":"pipeline","schema_version":6,"fused":true,"workloads":[{"name":"w","measurements":[
            {"label":"l","ops":1,"arcs":1,"switches":0,"merges":0,"fired":1,
             "makespan":0,"avg_parallelism":1,"max_parallelism":1,"mem_ops":0},
            {"label":"l","ops":1,"arcs":1,"switches":0,"merges":0,"fired":1,
             "makespan":0,"avg_parallelism":1,"max_parallelism":1,"mem_ops":0}]}]}"#;
        let err = validate_artifact(twice).unwrap_err();
        assert!(err.contains("share this label"), "{err}");
    }

    #[test]
    fn validator_accepts_only_schema_version_6() {
        let v6 = include_str!("../../../BENCH_executor.json");
        validate_artifact(v6).unwrap();
        for other in ["5", "1", "9"] {
            let doc = v6.replace(
                "\"schema_version\":6",
                &format!("\"schema_version\":{other}"),
            );
            let err = validate_artifact(&doc).unwrap_err();
            assert!(err.contains("unsupported schema_version"), "{err}");
        }
        let none = v6.replace("\"schema_version\":6,", "");
        let err = validate_artifact(&none).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let unflagged = v6.replace("\"fused\":true,", "");
        let err = validate_artifact(&unflagged).unwrap_err();
        assert!(err.contains("fused"), "{err}");
        // A thread row missing for a swept worker count fails.
        let narrow = v6.replace("{\"workers\":8,", "{\"workers\":16,");
        let err = validate_artifact(&narrow).unwrap_err();
        assert!(err.contains("no thread entry for 8 workers"), "{err}");
    }
}
