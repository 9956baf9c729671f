//! The benchmark-artifact pipeline behind `cf2df bench`.
//!
//! Runs the canonical workload suite ([`crate::workloads`]) through the
//! deterministic simulator and the threaded executor at 1/2/4/8 workers,
//! collecting [`crate::harness::Measurement`]s, executor metrics
//! ([`cf2df_machine::ParMetrics`]), and wall-clock timings
//! ([`crate::timing`]), and renders two artifacts:
//!
//! * `BENCH_pipeline.json` — simulated (idealized-parallelism) metrics
//!   per workload per translation configuration;
//! * `BENCH_executor.json` — wall-clock scaling and scheduler counters
//!   of the threaded executor;
//! * `BENCH_translate.json` — wall-clock time of the translation
//!   pipeline itself per workload per configuration, plus the pass
//!   manager's deterministic counters (passes run, CFG revisions,
//!   analyses computed vs. cache hits, output graph size);
//! * `BENCH_throughput.json` — requests per second of the multiplexed
//!   serve engine ([`cf2df_machine::serve()`]) at every worker count ×
//!   admission-window level, against a back-to-back serial baseline on
//!   the same pool.
//!
//! All are emitted through [`crate::json`] and checked by the
//! [`validate_artifact`] schema validator: every required field must be
//! present and every numeric field finite (a non-finite float renders as
//! `null` and is rejected), so a bench regression can never hide behind
//! a malformed artifact. These artifacts are the repo's performance
//! trajectory: every perf PR regenerates them and is judged against the
//! committed baseline.

use crate::harness::{measure, measure_baseline, Measurement};
use crate::json::{self, Json, Obj};
use crate::timing::{Stats, Timer};
use crate::workloads;
use cf2df_cfg::MemLayout;
use cf2df_core::pipeline::{translate, TranslateOptions};
use cf2df_machine::{
    compile, run_compiled, run_concurrent, run_threaded_compiled_pooled_with, CompiledGraph,
    ExecutorPool, MachineConfig, ParConfig,
};
use std::time::Duration;

/// Worker counts the executor artifact sweeps.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Admission-window (inflight-invocation) levels the throughput artifact
/// sweeps. Level 1 is measured as a back-to-back loop of ordinary pooled
/// runs — the honest serial baseline the multiplexed levels are judged
/// against — not as a serve session with a window of one.
pub const INFLIGHT_LEVELS: [usize; 3] = [1, 4, 16];

/// Current artifact schema version. Version 2 added `p95_ns` to every
/// wall-clock stats block and, on the executor artifact,
/// `speedup_vs_1w`/`fast_path_fires` per thread entry plus
/// `batches`/`fast_path` per worker. Version 3 records macro-op fusion:
/// a top-level `fused` flag on every artifact (the suites run fused by
/// default and unfused under `--no-fuse`), `macro_fires`/`ops_elided`
/// per executor thread entry plus `fired_unfused` per workload, and
/// `macros`/`fused_ops` per translate config. Version 4 records the
/// compiled-graph lowering ([`cf2df_machine::compile`]): every executor
/// run goes through the compile-once entry points (the graph is lowered
/// to its dense [`cf2df_machine::CompiledGraph`] exactly once per
/// workload, outside the timed region), and each executor workload
/// entry gains `compile_wall_ns` (wall-clock stats of the lowering
/// itself) plus a `compiled` footprint block (`ops`, `out_ports`,
/// `dest_slots`, `imm_slots`, `macro_steps`, `bytes`, `max_hot_arity`).
/// Version 5 adds the *throughput* artifact (`BENCH_throughput.json`):
/// requests-per-second of the tag-space-multiplexed serve engine
/// ([`cf2df_machine::serve()`]) at [`WORKER_COUNTS`] ×
/// [`INFLIGHT_LEVELS`], each arm judged against the back-to-back serial
/// baseline on the same pool. The three existing artifact kinds are
/// structurally unchanged by v5. [`validate_artifact`] still accepts
/// version-1 through -4 documents so old committed baselines keep
/// validating.
pub const SCHEMA_VERSION: u64 = 5;

/// The canonical workload suite, sized for `quick` (CI smoke) or full
/// (trajectory baseline) mode.
pub fn suite(quick: bool) -> Vec<(&'static str, String)> {
    if quick {
        vec![
            ("independent_updates", workloads::independent_updates(6)),
            ("dependence_chain", workloads::dependence_chain(8)),
            ("diamond_ladder", workloads::diamond_ladder(3)),
            ("loop_bystanders", workloads::loop_with_bystanders(6, 2, 4)),
            ("array_store_loop", workloads::array_store_loop(8)),
            ("read_fanout", workloads::read_fanout(6)),
            ("loop_nest", workloads::loop_nest(2, 3)),
        ]
    } else {
        vec![
            ("independent_updates", workloads::independent_updates(16)),
            ("dependence_chain", workloads::dependence_chain(64)),
            ("diamond_ladder", workloads::diamond_ladder(8)),
            ("loop_bystanders", workloads::loop_with_bystanders(12, 4, 16)),
            ("array_store_loop", workloads::array_store_loop(48)),
            ("read_fanout", workloads::read_fanout(16)),
            ("loop_nest", workloads::loop_nest(3, 6)),
        ]
    }
}

/// Workloads used for wall-clock executor timing (a subset: timing wants
/// fewer, heavier programs).
fn executor_suite(quick: bool) -> Vec<(&'static str, String)> {
    if quick {
        vec![
            ("loop_nest", workloads::loop_nest(3, 4)),
            ("independent_updates", workloads::independent_updates(8)),
            ("loop_nest_wide", workloads::loop_nest(2, 16)),
            ("array_update_kernel", workloads::array_update_kernel(4, 16)),
        ]
    } else {
        // loop_nest is sized so one execution takes milliseconds: the
        // scaling comparison must measure the executor, not the fixed
        // per-run cost of waking and parking pool threads (~µs), which
        // would otherwise dominate the 1-vs-N-worker delta on small
        // hosts. loop_nest_wide and array_update_kernel fire thousands
        // of operators each, so multi-worker scaling clears scheduler
        // noise.
        vec![
            ("loop_nest", workloads::loop_nest(4, 10)),
            ("independent_updates", workloads::independent_updates(24)),
            ("array_store_loop", workloads::array_store_loop(64)),
            ("loop_nest_wide", workloads::loop_nest(3, 16)),
            ("array_update_kernel", workloads::array_update_kernel(8, 64)),
        ]
    }
}

fn timer(quick: bool) -> Timer {
    if quick {
        Timer::with_budgets(Duration::from_millis(5), Duration::from_millis(20)).quiet()
    } else {
        // Means gate perf regressions (see `crate::compare`), and on a
        // shared host they converge slowly: give full mode a generous
        // measurement budget so scheduler-interference outliers average
        // out instead of deciding the comparison.
        Timer::with_budgets(Duration::from_millis(200), Duration::from_millis(1000)).quiet()
    }
}

fn stats_json(s: &Stats) -> String {
    let mut o = Obj::new();
    o.float("mean_ns", s.mean_ns)
        .float("median_ns", s.median_ns)
        .float("p95_ns", s.p95_ns)
        .float("min_ns", s.min_ns)
        .float("max_ns", s.max_ns)
        .num("iters", s.iters);
    o.finish()
}

/// The static footprint of a workload's [`CompiledGraph`] — the v4
/// executor artifact records it so table growth (more dest slots per
/// op, wider immediates) is visible in the trajectory, not just wall
/// time.
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
pub fn pipeline_artifact(quick: bool, fuse: bool) -> Result<String, String> {
    let mc = MachineConfig::unbounded();
    let mut entries = Vec::new();
    for (name, src) in suite(quick) {
        let parsed = cf2df_lang::parse_to_cfg(&src)
            .map_err(|e| format!("workload {name} failed to parse: {e}"))?;
        let rows: Vec<Measurement> = vec![
            measure_baseline(&parsed, &mc),
            measure(&parsed, &TranslateOptions::schema1().with_fuse(fuse), &mc, "schema1"),
            measure(&parsed, &TranslateOptions::schema2().with_fuse(fuse), &mc, "schema2"),
            measure(&parsed, &TranslateOptions::optimized().with_fuse(fuse), &mc, "optimized"),
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
        o.str("name", name)
            .raw("measurements", &json::array(rows.iter().map(|r| r.to_json())));
        entries.push(o.finish());
    }
    let mut doc = Obj::new();
    doc.str("artifact", "pipeline")
        .num("schema_version", SCHEMA_VERSION)
        .bool("quick", quick)
        .bool("fused", fuse)
        .raw("workloads", &json::array(entries));
    let text = doc.finish();
    validate_artifact(&text)?;
    Ok(text)
}

// ---------------------------------------------------------------------
// BENCH_executor.json
// ---------------------------------------------------------------------

/// Render the executor artifact: wall-clock timings of the simulator and
/// the threaded executor at [`WORKER_COUNTS`], plus the executor's
/// scheduler/rendezvous metrics, per workload. `fuse` selects macro-op
/// fusion; each workload entry also records `fired_unfused` (=`fired +
/// ops_elided`, deterministic) so a fused artifact carries its own
/// token-traffic contrast.
pub fn executor_artifact(quick: bool, fuse: bool) -> Result<String, String> {
    let mut t = timer(quick);
    // One persistent pool per worker count, shared by every workload:
    // thread spawn latency stays outside the timed region, which is what
    // the scaling numbers are supposed to be about.
    let pools: Vec<ExecutorPool> = WORKER_COUNTS.iter().map(|&w| ExecutorPool::new(w)).collect();
    let mut entries = Vec::new();
    for (name, src) in executor_suite(quick) {
        let parsed = cf2df_lang::parse_to_cfg(&src)
            .map_err(|e| format!("workload {name} failed to parse: {e}"))?;
        // The full pipeline: memory elision is what exposes the long
        // same-tag operator chains the fusion pass coarsens, so the
        // executor artifact's token-traffic numbers reflect what fusion
        // actually buys in the best-optimized configuration.
        let tr = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::full_parallel_schema3().with_fuse(fuse),
        )
        .map_err(|e| format!("workload {name} failed to translate: {e}"))?;
        let layout = MemLayout::distinct(&tr.cfg.vars);
        // Compile once per workload: every run below — simulator and
        // threaded, timed and untimed — reuses the same dense tables, so
        // the wall numbers measure execution, not graph lowering. The
        // lowering cost gets its own stats block instead.
        let cg = compile(&tr.dfg)
            .map_err(|e| format!("workload {name}: compile fault: {e}"))?;
        let compile_wall = stats_json(t.bench(&format!("{name}/compile"), || {
            std::hint::black_box(compile(&tr.dfg).unwrap().footprint().bytes)
        }));
        let sim = run_compiled(&cg, &layout, MachineConfig::unbounded())
            .map_err(|e| format!("workload {name}: simulator fault: {e}"))?;
        let sim_wall = stats_json(t.bench(&format!("{name}/simulator"), || {
            std::hint::black_box(
                run_compiled(&cg, &layout, MachineConfig::unbounded()).unwrap().stats.fired,
            )
        }));

        // Verification pass (untimed): correctness and scheduler metrics
        // per worker count.
        let par_cfg = ParConfig::default();
        let mut outs = Vec::new();
        for (pool, workers) in pools.iter().zip(WORKER_COUNTS) {
            let (res, _, _) = run_threaded_compiled_pooled_with(&cg, &layout, pool, &par_cfg);
            let out =
                res.map_err(|e| format!("workload {name} at {workers} workers: {e}"))?;
            if out.memory != sim.memory {
                return Err(format!(
                    "workload {name} at {workers} workers: memory diverges from simulator"
                ));
            }
            // Benchmarked runs carry no fault plan: the chaos layer must
            // be provably dormant (its tallies are always collected).
            if out.metrics.chaos.total() != 0 {
                return Err(format!(
                    "workload {name} at {workers} workers: chaos faults injected on an \
                     ordinary run: {:?}",
                    out.metrics.chaos
                ));
            }
            outs.push(out);
        }

        // Timed pass: all worker counts measured *paired*, so machine
        // drift over the measurement window cannot masquerade as a
        // scaling difference between counts.
        let labels: Vec<String> = WORKER_COUNTS
            .iter()
            .map(|w| format!("{name}/threaded/{w}"))
            .collect();
        let mut closures: Vec<Box<dyn FnMut() + '_>> = pools
            .iter()
            .map(|pool| {
                let (cg, layout, par_cfg) = (&cg, &layout, &par_cfg);
                Box::new(move || {
                    let (res, _, _) =
                        run_threaded_compiled_pooled_with(cg, layout, pool, par_cfg);
                    std::hint::black_box(res.unwrap().fired);
                }) as Box<dyn FnMut() + '_>
            })
            .collect();
        let mut arms: Vec<(&str, &mut dyn FnMut())> = labels
            .iter()
            .map(|l| l.as_str())
            .zip(closures.iter_mut().map(|c| &mut **c as &mut dyn FnMut()))
            .collect();
        let walls = t.bench_paired(&mut arms, Duration::from_millis(150));

        let mut threads = Vec::new();
        let mean_1w = walls[WORKER_COUNTS.iter().position(|&w| w == 1).expect("1w is swept")]
            .mean_ns;
        for ((out, wall), workers) in outs.iter().zip(&walls).zip(WORKER_COUNTS) {
            let m = &out.metrics;
            let per_worker = json::array(m.workers.iter().enumerate().map(|(i, w)| {
                let mut o = Obj::new();
                o.num("worker", i as u64)
                    .num("processed", w.processed)
                    .num("local_pops", w.local_pops)
                    .num("injector_hits", w.injector_hits)
                    .num("steals", w.steals)
                    .num("parks", w.parks)
                    .num("unparks", w.unparks)
                    .num("batches", w.batches)
                    .num("fast_path", w.fast_path);
                o.finish()
            }));
            let mut o = Obj::new();
            o.num("workers", workers as u64)
                .raw("wall_ns", &stats_json(wall))
                .float("speedup_vs_1w", mean_1w / wall.mean_ns)
                .num("fired", out.fired)
                .num("tokens_processed", m.tokens_processed)
                .num("merged", m.merged)
                .num("fast_path_fires", m.fast_path_fires)
                .num("macro_fires", m.macro_fires)
                .num("ops_elided", m.ops_elided)
                .num("max_pending_slots", m.max_pending_slots)
                .num("tags_created", m.tags_created)
                .num("deferred_reads", m.deferred_reads)
                .num("deferred_read_peak", m.deferred_read_peak)
                .raw("per_worker", &per_worker);
            threads.push(o.finish());
        }

        let mut o = Obj::new();
        o.str("name", name)
            .num("fired", sim.stats.fired)
            .num("fired_unfused", sim.stats.fired + sim.stats.ops_elided)
            .raw("compile_wall_ns", &compile_wall)
            .raw("compiled", &footprint_json(&cg))
            .raw("simulator_wall_ns", &sim_wall)
            .raw("threads", &json::array(threads));
        entries.push(o.finish());
    }
    let mut doc = Obj::new();
    doc.str("artifact", "executor")
        .num("schema_version", SCHEMA_VERSION)
        .bool("quick", quick)
        .bool("fused", fuse)
        .raw(
            "worker_counts",
            &json::array(WORKER_COUNTS.iter().map(|w| w.to_string())),
        )
        .raw("workloads", &json::array(entries));
    let text = doc.finish();
    validate_artifact(&text)?;
    Ok(text)
}

// ---------------------------------------------------------------------
// BENCH_translate.json
// ---------------------------------------------------------------------

/// Translation configurations the translate artifact sweeps, labeled as
/// in `cf2df compare`. With fusion on, a `full-nofuse` contrast config
/// rides along so the artifact shows what the fusion pass costs and
/// saves; with `--no-fuse` everything is already unfused and the
/// contrast would be a duplicate.
fn translate_configs(fuse: bool) -> Vec<(&'static str, TranslateOptions)> {
    let mut v = vec![
        ("schema1", TranslateOptions::schema1().with_fuse(fuse)),
        ("schema2", TranslateOptions::schema2().with_fuse(fuse)),
        ("optimized", TranslateOptions::optimized().with_fuse(fuse)),
        ("full", TranslateOptions::full_parallel_schema3().with_fuse(fuse)),
    ];
    if fuse {
        v.push((
            "full-nofuse",
            TranslateOptions::full_parallel_schema3().with_fuse(false),
        ));
    }
    v
}

/// Render the translate artifact: wall-clock timings of the translation
/// pipeline per suite workload per configuration, alongside the pass
/// manager's deterministic counters. The wall medians gate pipeline
/// performance; `analyses_computed` gates the cache discipline — any
/// increase means a stage started recomputing an analysis it used to
/// share.
pub fn translate_artifact(quick: bool, fuse: bool) -> Result<String, String> {
    let mut t = timer(quick);
    let mut entries = Vec::new();
    for (name, src) in suite(quick) {
        let parsed = cf2df_lang::parse_to_cfg(&src)
            .map_err(|e| format!("workload {name} failed to parse: {e}"))?;
        let mut rows = Vec::new();
        for (label, opts) in translate_configs(fuse) {
            let tr = translate(&parsed.cfg, &parsed.alias, &opts)
                .map_err(|e| format!("workload {name}/{label} failed to translate: {e}"))?;
            let wall = stats_json(t.bench(&format!("{name}/translate/{label}"), || {
                std::hint::black_box(
                    translate(&parsed.cfg, &parsed.alias, &opts).unwrap().stats.ops,
                )
            }));
            let mut o = Obj::new();
            o.str("label", label)
                .raw("wall_ns", &wall)
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
    let mut doc = Obj::new();
    doc.str("artifact", "translate")
        .num("schema_version", SCHEMA_VERSION)
        .bool("quick", quick)
        .bool("fused", fuse)
        .raw("workloads", &json::array(entries));
    let text = doc.finish();
    validate_artifact(&text)?;
    Ok(text)
}

// ---------------------------------------------------------------------
// BENCH_throughput.json
// ---------------------------------------------------------------------

/// Requests per timed batch of the throughput artifact. Each wall-clock
/// sample covers one whole batch; `req_per_sec` is derived from the
/// median batch time.
fn throughput_requests(quick: bool) -> usize {
    if quick {
        8
    } else {
        32
    }
}

/// Workloads for the request-throughput artifact: deliberately *small*
/// graphs. A short program exposes little intra-request parallelism, so
/// a multi-worker pool starves running one request at a time — these
/// are exactly the workloads where admitting several invocations into
/// the shared tag space should pay, and where the acceptance gate
/// ([`crate::compare::require_inflight_speedup`]) demands it does.
fn throughput_suite(quick: bool) -> Vec<(&'static str, String)> {
    if quick {
        vec![
            ("dependence_chain", workloads::dependence_chain(8)),
            ("diamond_ladder", workloads::diamond_ladder(3)),
            ("read_fanout", workloads::read_fanout(6)),
        ]
    } else {
        vec![
            ("dependence_chain", workloads::dependence_chain(16)),
            ("diamond_ladder", workloads::diamond_ladder(4)),
            ("read_fanout", workloads::read_fanout(8)),
        ]
    }
}

/// Render the throughput artifact: requests-per-second of
/// [`cf2df_machine::serve()`] per small workload at [`WORKER_COUNTS`] ×
/// [`INFLIGHT_LEVELS`]. The inflight-1 arm is a back-to-back loop of
/// ordinary pooled runs on the same [`ExecutorPool`] — the serial
/// baseline every multiplexed arm's `speedup_vs_inflight1` is measured
/// against. All arms are benchmarked *paired* so machine drift cannot
/// masquerade as a multiplexing difference, and every arm first runs an
/// untimed verification batch whose results must match the
/// deterministic simulator.
pub fn throughput_artifact(quick: bool, fuse: bool) -> Result<String, String> {
    let mut t = timer(quick);
    let requests = throughput_requests(quick);
    let pools: Vec<ExecutorPool> = WORKER_COUNTS.iter().map(|&w| ExecutorPool::new(w)).collect();
    let levels = INFLIGHT_LEVELS.len();
    let base_ki = INFLIGHT_LEVELS.iter().position(|&k| k == 1).expect("inflight 1 is swept");
    let mut entries = Vec::new();
    for (name, src) in throughput_suite(quick) {
        let parsed = cf2df_lang::parse_to_cfg(&src)
            .map_err(|e| format!("workload {name} failed to parse: {e}"))?;
        let tr = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::full_parallel_schema3().with_fuse(fuse),
        )
        .map_err(|e| format!("workload {name} failed to translate: {e}"))?;
        let layout = MemLayout::distinct(&tr.cfg.vars);
        let cg = compile(&tr.dfg)
            .map_err(|e| format!("workload {name}: compile fault: {e}"))?;
        let sim = run_compiled(&cg, &layout, MachineConfig::unbounded())
            .map_err(|e| format!("workload {name}: simulator fault: {e}"))?;
        let par_cfg = ParConfig::default();

        // Verification pass (untimed): every arm runs one full batch;
        // each request's final memory must match the simulator, and the
        // chaos layer must be provably dormant. Token traffic is
        // deterministic, so it is recorded here, outside the timed
        // region.
        let mut tokens = vec![0u64; WORKER_COUNTS.len() * levels];
        for (wi, (pool, &workers)) in pools.iter().zip(WORKER_COUNTS.iter()).enumerate() {
            for (ki, &inflight) in INFLIGHT_LEVELS.iter().enumerate() {
                let ctx = format!("workload {name} at {workers} workers / inflight {inflight}");
                if inflight == 1 {
                    let mut total = 0u64;
                    for _ in 0..requests {
                        let (res, _, _) =
                            run_threaded_compiled_pooled_with(&cg, &layout, pool, &par_cfg);
                        let out = res.map_err(|e| format!("{ctx}: {e}"))?;
                        if out.memory != sim.memory {
                            return Err(format!("{ctx}: memory diverges from simulator"));
                        }
                        if out.metrics.chaos.total() != 0 {
                            return Err(format!("{ctx}: chaos faults on an ordinary run"));
                        }
                        total += out.metrics.tokens_processed;
                    }
                    tokens[wi * levels + ki] = total;
                } else {
                    let (results, stats) =
                        run_concurrent(&cg, &layout, pool, inflight, &par_cfg, requests);
                    for res in results {
                        let out = res.map_err(|e| format!("{ctx}: {e}"))?;
                        if out.memory != sim.memory {
                            return Err(format!("{ctx}: memory diverges from simulator"));
                        }
                    }
                    if stats.completed_ok != requests as u64 {
                        return Err(format!(
                            "{ctx}: {} of {requests} requests completed",
                            stats.completed_ok
                        ));
                    }
                    if stats.chaos.total() != 0 {
                        return Err(format!("{ctx}: chaos faults on an ordinary run"));
                    }
                    tokens[wi * levels + ki] = stats.tokens_processed;
                }
            }
        }

        // Timed pass: every (workers, inflight) arm paired. One closure
        // invocation = one whole batch of `requests` requests.
        let mut labels = Vec::new();
        let mut closures: Vec<Box<dyn FnMut() + '_>> = Vec::new();
        for (pool, &workers) in pools.iter().zip(WORKER_COUNTS.iter()) {
            for &inflight in &INFLIGHT_LEVELS {
                labels.push(format!("{name}/throughput/{workers}w/{inflight}in"));
                let (cg, layout, par_cfg) = (&cg, &layout, &par_cfg);
                closures.push(Box::new(move || {
                    if inflight == 1 {
                        for _ in 0..requests {
                            let (res, _, _) =
                                run_threaded_compiled_pooled_with(cg, layout, pool, par_cfg);
                            std::hint::black_box(res.unwrap().fired);
                        }
                    } else {
                        let (results, _) =
                            run_concurrent(cg, layout, pool, inflight, par_cfg, requests);
                        for r in results {
                            std::hint::black_box(r.unwrap().fired);
                        }
                    }
                }) as Box<dyn FnMut() + '_>);
            }
        }
        let mut arms: Vec<(&str, &mut dyn FnMut())> = labels
            .iter()
            .map(|l| l.as_str())
            .zip(closures.iter_mut().map(|c| &mut **c as &mut dyn FnMut()))
            .collect();
        let walls = t.bench_paired(&mut arms, Duration::from_millis(150));

        let mut arms_json = Vec::new();
        for (wi, &workers) in WORKER_COUNTS.iter().enumerate() {
            let base_median = walls[wi * levels + base_ki].median_ns;
            for (ki, &inflight) in INFLIGHT_LEVELS.iter().enumerate() {
                let wall = &walls[wi * levels + ki];
                let rps = requests as f64 * 1e9 / wall.median_ns;
                let mut o = Obj::new();
                o.num("workers", workers as u64)
                    .num("inflight", inflight as u64)
                    .num("requests", requests as u64)
                    .raw("wall_ns", &stats_json(wall))
                    .float("req_per_sec", rps)
                    .float("speedup_vs_inflight1", base_median / wall.median_ns)
                    .num("tokens_processed", tokens[wi * levels + ki]);
                arms_json.push(o.finish());
            }
        }

        let mut o = Obj::new();
        o.str("name", name)
            .num("fired", sim.stats.fired)
            .raw("arms", &json::array(arms_json));
        entries.push(o.finish());
    }
    let mut doc = Obj::new();
    doc.str("artifact", "throughput")
        .num("schema_version", SCHEMA_VERSION)
        .bool("quick", quick)
        .bool("fused", fuse)
        .num("requests", requests as u64)
        .raw(
            "worker_counts",
            &json::array(WORKER_COUNTS.iter().map(|w| w.to_string())),
        )
        .raw(
            "inflight_levels",
            &json::array(INFLIGHT_LEVELS.iter().map(|k| k.to_string())),
        )
        .raw("workloads", &json::array(entries));
    let text = doc.finish();
    validate_artifact(&text)?;
    Ok(text)
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

fn req<'a>(v: &'a Json, ctx: &str, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing field '{key}'"))
}

fn req_num(v: &Json, ctx: &str, key: &str) -> Result<f64, String> {
    req(v, ctx, key)?
        .as_num()
        .ok_or_else(|| format!("{ctx}: field '{key}' is not a finite number"))
}

fn req_str<'a>(v: &'a Json, ctx: &str, key: &str) -> Result<&'a str, String> {
    req(v, ctx, key)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: field '{key}' is not a string"))
}

fn req_arr<'a>(v: &'a Json, ctx: &str, key: &str) -> Result<&'a [Json], String> {
    let a = req(v, ctx, key)?
        .as_arr()
        .ok_or_else(|| format!("{ctx}: field '{key}' is not an array"))?;
    if a.is_empty() {
        return Err(format!("{ctx}: array '{key}' is empty"));
    }
    Ok(a)
}

fn check_stats(v: &Json, ctx: &str, version: u64) -> Result<(), String> {
    for key in ["mean_ns", "median_ns", "min_ns", "max_ns", "iters"] {
        req_num(v, ctx, key)?;
    }
    if version >= 2 {
        req_num(v, ctx, "p95_ns")?;
    }
    if req_num(v, ctx, "iters")? < 1.0 {
        return Err(format!("{ctx}: zero iterations measured"));
    }
    Ok(())
}

/// The document's declared schema version — required, and must be one
/// this validator understands (1 through [`SCHEMA_VERSION`]). Version 3
/// and later documents additionally declare `fused` as a boolean.
fn schema_version(doc: &Json, ctx: &str) -> Result<u64, String> {
    let v = req_num(doc, ctx, "schema_version")?;
    let v = v as u64;
    if !(1..=SCHEMA_VERSION).contains(&v) {
        return Err(format!(
            "{ctx}: unsupported schema_version {v} (understood: 1..={SCHEMA_VERSION})"
        ));
    }
    if v >= 3 && !matches!(req(doc, ctx, "fused")?, Json::Bool(_)) {
        return Err(format!("{ctx}: field 'fused' is not a boolean"));
    }
    Ok(v)
}

fn validate_pipeline_value(doc: &Json) -> Result<(), String> {
    schema_version(doc, "pipeline")?;
    for (wi, w) in req_arr(doc, "pipeline", "workloads")?.iter().enumerate() {
        let name = req_str(w, &format!("workloads[{wi}]"), "name")?.to_owned();
        for (mi, m) in req_arr(w, &name, "measurements")?.iter().enumerate() {
            let ctx = format!("{name}.measurements[{mi}]");
            req_str(m, &ctx, "label")?;
            for key in [
                "ops",
                "arcs",
                "switches",
                "merges",
                "fired",
                "makespan",
                "avg_parallelism",
                "max_parallelism",
                "mem_ops",
            ] {
                req_num(m, &ctx, key)?;
            }
        }
    }
    Ok(())
}

fn validate_executor_value(doc: &Json) -> Result<(), String> {
    let version = schema_version(doc, "executor")?;
    let counts: Vec<f64> = req_arr(doc, "executor", "worker_counts")?
        .iter()
        .map(|c| c.as_num().ok_or("worker_counts entry is not a number".to_owned()))
        .collect::<Result<_, _>>()?;
    for (wi, w) in req_arr(doc, "executor", "workloads")?.iter().enumerate() {
        let name = req_str(w, &format!("workloads[{wi}]"), "name")?.to_owned();
        req_num(w, &name, "fired")?;
        if version >= 3 {
            let unfused = req_num(w, &name, "fired_unfused")?;
            if unfused < req_num(w, &name, "fired")? {
                return Err(format!("{name}: fired_unfused below fired"));
            }
        }
        if version >= 4 {
            check_stats(
                req(w, &name, "compile_wall_ns")?,
                &format!("{name}.compile_wall_ns"),
                version,
            )?;
            let c = req(w, &name, "compiled")?;
            let cctx = format!("{name}.compiled");
            for key in [
                "ops",
                "out_ports",
                "dest_slots",
                "imm_slots",
                "macro_steps",
                "bytes",
                "max_hot_arity",
            ] {
                req_num(c, &cctx, key)?;
            }
        }
        check_stats(
            req(w, &name, "simulator_wall_ns")?,
            &format!("{name}.simulator_wall_ns"),
            version,
        )?;
        let threads = req_arr(w, &name, "threads")?;
        for c in &counts {
            if !threads
                .iter()
                .any(|t| t.get("workers").and_then(Json::as_num) == Some(*c))
            {
                return Err(format!("{name}: no thread entry for {c} workers"));
            }
        }
        for t in threads {
            let workers = req_num(t, &name, "workers")?;
            let ctx = format!("{name}.threads[workers={workers}]");
            check_stats(req(t, &ctx, "wall_ns")?, &format!("{ctx}.wall_ns"), version)?;
            for key in [
                "fired",
                "tokens_processed",
                "merged",
                "max_pending_slots",
                "tags_created",
                "deferred_reads",
                "deferred_read_peak",
            ] {
                req_num(t, &ctx, key)?;
            }
            if version >= 2 {
                let speedup = req_num(t, &ctx, "speedup_vs_1w")?;
                if speedup <= 0.0 {
                    return Err(format!("{ctx}: speedup_vs_1w must be positive"));
                }
                req_num(t, &ctx, "fast_path_fires")?;
            }
            if version >= 3 {
                req_num(t, &ctx, "macro_fires")?;
                req_num(t, &ctx, "ops_elided")?;
            }
            let per_worker = req_arr(t, &ctx, "per_worker")?;
            if per_worker.len() != workers as usize {
                return Err(format!(
                    "{ctx}: per_worker has {} entries, expected {workers}",
                    per_worker.len()
                ));
            }
            for (i, pw) in per_worker.iter().enumerate() {
                let pctx = format!("{ctx}.per_worker[{i}]");
                for key in [
                    "worker",
                    "processed",
                    "local_pops",
                    "injector_hits",
                    "steals",
                    "parks",
                    "unparks",
                ] {
                    req_num(pw, &pctx, key)?;
                }
                if version >= 2 {
                    req_num(pw, &pctx, "batches")?;
                    req_num(pw, &pctx, "fast_path")?;
                }
            }
        }
    }
    Ok(())
}

fn validate_translate_value(doc: &Json) -> Result<(), String> {
    let version = schema_version(doc, "translate")?;
    for (wi, w) in req_arr(doc, "translate", "workloads")?.iter().enumerate() {
        let name = req_str(w, &format!("workloads[{wi}]"), "name")?.to_owned();
        for (ci, c) in req_arr(w, &name, "configs")?.iter().enumerate() {
            let ctx = format!("{name}.configs[{ci}]");
            req_str(c, &ctx, "label")?;
            check_stats(req(c, &ctx, "wall_ns")?, &format!("{ctx}.wall_ns"), version)?;
            for key in [
                "passes",
                "revisions",
                "analyses_computed",
                "cache_hits",
                "ops",
                "arcs",
                "switches",
            ] {
                req_num(c, &ctx, key)?;
            }
            if req_num(c, &ctx, "passes")? < 1.0 {
                return Err(format!("{ctx}: no passes recorded"));
            }
            if version >= 3 {
                req_num(c, &ctx, "macros")?;
                req_num(c, &ctx, "fused_ops")?;
            }
        }
    }
    Ok(())
}

fn validate_throughput_value(doc: &Json) -> Result<(), String> {
    let version = schema_version(doc, "throughput")?;
    if version < 5 {
        return Err(format!(
            "throughput: artifact kind requires schema_version >= 5, got {version}"
        ));
    }
    if req_num(doc, "throughput", "requests")? < 1.0 {
        return Err("throughput: zero requests per batch".to_owned());
    }
    let num_list = |key: &str| -> Result<Vec<f64>, String> {
        req_arr(doc, "throughput", key)?
            .iter()
            .map(|c| {
                c.as_num()
                    .ok_or_else(|| format!("throughput: {key} entry is not a number"))
            })
            .collect()
    };
    let counts = num_list("worker_counts")?;
    let levels = num_list("inflight_levels")?;
    for (wi, w) in req_arr(doc, "throughput", "workloads")?.iter().enumerate() {
        let name = req_str(w, &format!("workloads[{wi}]"), "name")?.to_owned();
        req_num(w, &name, "fired")?;
        let arms = req_arr(w, &name, "arms")?;
        for c in &counts {
            for l in &levels {
                if !arms.iter().any(|a| {
                    a.get("workers").and_then(Json::as_num) == Some(*c)
                        && a.get("inflight").and_then(Json::as_num) == Some(*l)
                }) {
                    return Err(format!("{name}: no arm for {c} workers / inflight {l}"));
                }
            }
        }
        for a in arms {
            let workers = req_num(a, &name, "workers")?;
            let inflight = req_num(a, &name, "inflight")?;
            let ctx = format!("{name}.arms[{workers}w/{inflight}in]");
            check_stats(req(a, &ctx, "wall_ns")?, &format!("{ctx}.wall_ns"), version)?;
            for key in ["requests", "tokens_processed"] {
                req_num(a, &ctx, key)?;
            }
            if req_num(a, &ctx, "req_per_sec")? <= 0.0 {
                return Err(format!("{ctx}: req_per_sec must be positive"));
            }
            if req_num(a, &ctx, "speedup_vs_inflight1")? <= 0.0 {
                return Err(format!("{ctx}: speedup_vs_inflight1 must be positive"));
            }
        }
    }
    Ok(())
}

/// Validate a bench artifact: well-formed JSON, a recognized `artifact`
/// kind, every required field present, every numeric field finite.
pub fn validate_artifact(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    match doc.get("artifact").and_then(Json::as_str) {
        Some("pipeline") => validate_pipeline_value(&doc),
        Some("executor") => validate_executor_value(&doc),
        Some("translate") => validate_translate_value(&doc),
        Some("throughput") => validate_throughput_value(&doc),
        other => Err(format!("unrecognized artifact kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_artifact_validates() {
        let doc = pipeline_artifact(true, true).unwrap();
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
    fn quick_executor_artifact_validates_and_sweeps_workers() {
        let doc = executor_artifact(true, true).unwrap();
        validate_artifact(&doc).unwrap();
        let v = json::parse(&doc).unwrap();
        let w0 = &v.get("workloads").unwrap().as_arr().unwrap()[0];
        let threads = w0.get("threads").unwrap().as_arr().unwrap();
        let counts: Vec<f64> = threads
            .iter()
            .map(|t| t.get("workers").unwrap().as_num().unwrap())
            .collect();
        assert_eq!(counts, vec![1.0, 2.0, 4.0, 8.0]);
        // v4: the compile-once lowering is measured and its footprint
        // recorded per workload.
        assert!(w0.get("compile_wall_ns").unwrap().get("median_ns").unwrap().as_num().is_some());
        let fp = w0.get("compiled").unwrap();
        assert!(fp.get("ops").unwrap().as_num().unwrap() >= 1.0);
        assert!(fp.get("bytes").unwrap().as_num().unwrap() >= 1.0);
        assert!(fp.get("max_hot_arity").unwrap().as_num().is_some());
        // Per-worker steal/park counters are present and self-consistent.
        for t in threads {
            let fired = t.get("fired").unwrap().as_num().unwrap();
            let merged = t.get("merged").unwrap().as_num().unwrap();
            let processed = t.get("tokens_processed").unwrap().as_num().unwrap();
            assert_eq!(processed, fired + merged);
            assert!(t.get("speedup_vs_1w").unwrap().as_num().unwrap() > 0.0);
            assert!(t.get("fast_path_fires").unwrap().as_num().is_some());
            // Fusion accounting: elided ops explain the gap to the
            // unfused firing count recorded on the workload.
            let elided = t.get("ops_elided").unwrap().as_num().unwrap();
            let unfused = w0.get("fired_unfused").unwrap().as_num().unwrap();
            assert_eq!(fired + elided, unfused);
            let by_worker: f64 = t
                .get("per_worker")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|pw| pw.get("processed").unwrap().as_num().unwrap())
                .sum();
            assert_eq!(by_worker, processed);
        }
    }

    #[test]
    fn quick_translate_artifact_validates_and_counts_passes() {
        let doc = translate_artifact(true, true).unwrap();
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
    fn quick_throughput_artifact_validates_and_sweeps_arms() {
        let doc = throughput_artifact(true, true).unwrap();
        validate_artifact(&doc).unwrap();
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("artifact").unwrap().as_str(), Some("throughput"));
        let workloads = v.get("workloads").unwrap().as_arr().unwrap();
        assert!(workloads.len() >= 2, "the acceptance gate needs >= 2 workloads");
        for w in workloads {
            let arms = w.get("arms").unwrap().as_arr().unwrap();
            assert_eq!(arms.len(), WORKER_COUNTS.len() * INFLIGHT_LEVELS.len());
            for a in arms {
                let rps = a.get("req_per_sec").unwrap().as_num().unwrap();
                assert!(rps > 0.0);
                let speedup = a.get("speedup_vs_inflight1").unwrap().as_num().unwrap();
                assert!(speedup > 0.0);
                // The inflight-1 arm is its own baseline by construction.
                if a.get("inflight").unwrap().as_num() == Some(1.0) {
                    assert_eq!(speedup, 1.0);
                }
                assert!(a.get("tokens_processed").unwrap().as_num().unwrap() > 0.0);
            }
        }
        // A throughput document claiming a pre-v5 schema is rejected:
        // the artifact kind did not exist before version 5.
        let v4 = doc.replace("\"schema_version\":5", "\"schema_version\":4");
        let err = validate_artifact(&v4).unwrap_err();
        assert!(err.contains("requires schema_version >= 5"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_and_nonfinite_fields() {
        assert!(validate_artifact("{}").is_err());
        assert!(validate_artifact("{\"artifact\":\"nope\"}").is_err());
        // A null (= non-finite) required field fails.
        let bad = r#"{"artifact":"pipeline","schema_version":1,"workloads":[{"name":"w","measurements":[
            {"label":"l","ops":1,"arcs":1,"switches":0,"merges":0,"fired":1,
             "makespan":0,"avg_parallelism":null,"max_parallelism":1,"mem_ops":0}]}]}"#;
        let err = validate_artifact(bad).unwrap_err();
        assert!(err.contains("avg_parallelism"), "{err}");
        // A missing field fails.
        let missing = r#"{"artifact":"pipeline","schema_version":1,"workloads":[{"name":"w","measurements":[
            {"label":"l"}]}]}"#;
        let err = validate_artifact(missing).unwrap_err();
        assert!(err.contains("missing field"), "{err}");
    }

    #[test]
    fn validator_handles_both_schema_versions() {
        // A minimal version-1 executor artifact (no p95_ns, no
        // speedup/fast-path/batch fields) must still validate — old
        // committed baselines are compared against forever.
        let v1 = r#"{"artifact":"executor","schema_version":1,"quick":true,
            "worker_counts":[1],
            "workloads":[{"name":"w","fired":3,
              "simulator_wall_ns":{"mean_ns":1.0,"median_ns":1.0,"min_ns":1.0,"max_ns":1.0,"iters":5},
              "threads":[{"workers":1,
                "wall_ns":{"mean_ns":1.0,"median_ns":1.0,"min_ns":1.0,"max_ns":1.0,"iters":5},
                "fired":3,"tokens_processed":3,"merged":0,"max_pending_slots":1,
                "tags_created":0,"deferred_reads":0,"deferred_read_peak":0,
                "per_worker":[{"worker":0,"processed":3,"local_pops":2,
                  "injector_hits":1,"steals":0,"parks":0,"unparks":0}]}]}]}"#;
        validate_artifact(v1).unwrap();
        // The same document claiming version 2 must fail: v2 requires
        // the new fields.
        let v2_missing = v1.replace("\"schema_version\":1", "\"schema_version\":2");
        let err = validate_artifact(&v2_missing).unwrap_err();
        assert!(err.contains("p95_ns"), "{err}");
        // The same document claiming version 4 must fail: v4 requires
        // the v3 fusion fields and the compile-once lowering record
        // (the first missing one — `fused` — is what it trips on).
        let v4_missing = v1.replace("\"schema_version\":1", "\"schema_version\":4");
        let err = validate_artifact(&v4_missing).unwrap_err();
        assert!(err.contains("fused"), "{err}");
        // A version this validator does not understand is rejected.
        let v9 = v1.replace("\"schema_version\":1", "\"schema_version\":9");
        let err = validate_artifact(&v9).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "{err}");
        // No version at all is rejected.
        let none = v1.replace("\"schema_version\":1,", "");
        let err = validate_artifact(&none).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }
}
