//! `run_heavy`: long pooled runs of two graphs compiled in set-up.
//!
//! A closed loop whose caller blocks inside each
//! `run_threaded_compiled_pooled_with` call, on a 2-worker pool (the
//! reference host's core count). The graphs are a deep, narrow
//! `loop_nest` and a wide `array_update_kernel`, sized so that one run
//! of either moves 4-6·10^4 tokens in ~8 ms and the two latency
//! distributions overlap: the p50 of a 50/50 mix of two separate
//! clusters would sit in the gap between them and jump from run to run.
//! No op translates, so per-token executor cost is what this workload
//! times. Every result is checked against the deterministic simulator's
//! run of the same compiled graph, made in set-up. The seed orders the
//! ops.

use crate::stats::{mean, median_f64, median_us, Metrics};
use crate::trace::Tracer;
use crate::{host, op_count, shuffle, Params, Pass, Session};
use cf2df_bench::prng::Prng;
use cf2df_bench::workloads::{array_update_kernel, loop_nest};
use cf2df_cfg::MemLayout;
use cf2df_core::pipeline::{translate_cfg, TranslateOptions};
use cf2df_lang::parse_to_cfg;
use cf2df_machine::{
    compile, run_compiled, run_threaded_compiled_pooled_with, CompiledGraph, ExecutorPool,
    MachineConfig, Outcome, ParConfig, ParMetrics,
};
use std::time::{Duration, Instant};

/// Nominal ops per second of one pass on the reference host (2-core
/// VM); fixes the op count of a pass of `seconds`.
const OPS_PER_S: f64 = 110.0;
/// Executor workers: the reference host's core count, so busy threads
/// never outnumber cores.
const WORKERS: usize = 2;
/// Warm-up runs of each graph in set-up.
const WARM_UP: usize = 4;

/// The two graphs' sources: deep and narrow, then wide.
pub fn sources(quick: bool) -> [(&'static str, String); 2] {
    if quick {
        [
            ("loop_nest", loop_nest(3, 4)),
            ("array_update_kernel", array_update_kernel(4, 8)),
        ]
    } else {
        [
            ("loop_nest", loop_nest(4, 7)),
            ("array_update_kernel", array_update_kernel(16, 112)),
        ]
    }
}

struct Graph {
    name: &'static str,
    cg: CompiledGraph,
    layout: MemLayout,
    reference: Outcome,
}

struct Setup {
    graphs: Vec<Graph>,
    order: Vec<usize>,
    pool: ExecutorPool,
    cfg: ParConfig,
}

/// Per-run executor counters the traced pass summarises.
#[derive(Default)]
struct Counts {
    runs: Vec<(u64, ParMetrics, u64)>,
}

fn build(name: &'static str, src: &str, tr: &mut Tracer) -> Result<Graph, String> {
    let parsed = tr.span("lang.parse", None, || parse_to_cfg(src));
    let parsed = parsed.map_err(|e| format!("{name}: parse: {e}"))?;
    let opts = TranslateOptions::full_parallel_schema3();
    let t = tr.span("core.translate", None, || {
        translate_cfg(parsed.cfg, parsed.alias, &opts)
    });
    let t = t.map_err(|e| format!("{name}: translate: {e}"))?;
    let cg = tr.span("machine.compile", None, || compile(&t.dfg));
    let cg = cg.map_err(|e| format!("{name}: compile: {e}"))?;
    let layout = MemLayout::distinct(&t.cfg.vars);
    let reference = tr.span("machine.sim", None, || {
        run_compiled(&cg, &layout, MachineConfig::default())
    });
    let reference = reference.map_err(|e| format!("{name}: simulator: {e}"))?;
    Ok(Graph {
        name,
        cg,
        layout,
        reference,
    })
}

fn pass(s: &Setup, ops: &[usize], tr: &mut Tracer, counts: &mut Counts) -> Pass {
    let mut p = Pass::default();
    let started = Instant::now();
    for (id, &g) in ops.iter().enumerate() {
        let g = &s.graphs[g];
        let op = Some(id as u64);
        p.attempted += 1;
        let start = Instant::now();
        let (res, metrics, _) = tr.span("machine.run", op, || {
            run_threaded_compiled_pooled_with(&g.cg, &g.layout, &s.pool, &s.cfg)
        });
        let ns = start.elapsed().as_nanos() as u64;
        let ok = tr.span("bench.check", op, || match &res {
            Ok(out) => {
                out.memory == g.reference.memory
                    && out.ist_memory == g.reference.ist_memory
                    && out.fired == g.reference.stats.fired
            }
            Err(_) => false,
        });
        if ok {
            p.latencies_ns.push(ns);
        } else {
            if p.failed < 5 {
                match &res {
                    Err(e) => eprintln!("run_heavy: op {id} ({}) failed: {e}", g.name),
                    Ok(_) => {
                        eprintln!("run_heavy: op {id} ({}) differs from the simulator", g.name)
                    }
                }
            }
            p.failed += 1;
        }
        if tr.is_on() {
            let fired = res.as_ref().map_or(0, |o| o.fired);
            counts.runs.push((ns, metrics, fired));
        }
    }
    p.wall = started.elapsed();
    p
}

/// One `run_heavy` session: set-up (parse, translate, compile and
/// simulate both graphs, spawn the pool, warm up), then one pass per
/// entry of `passes` (`true` = traced).
pub(crate) fn session(p: &Params, tr: &mut Tracer, passes: &[bool]) -> Result<Session, String> {
    let started = Instant::now();
    let graphs = sources(p.quick)
        .iter()
        .map(|(name, src)| build(name, src, tr))
        .collect::<Result<Vec<_>, _>>()?;
    let n_ops = op_count(p.seconds, OPS_PER_S);
    let mut order: Vec<usize> = (0..n_ops).map(|i| i % graphs.len()).collect();
    shuffle(&mut Prng::seed_from_u64(p.seed), &mut order);
    let s = Setup {
        graphs,
        order,
        pool: ExecutorPool::new(WORKERS),
        cfg: ParConfig::default(),
    };
    tr.set_on(false);
    let warm: Vec<usize> = (0..WARM_UP * s.graphs.len())
        .map(|i| i % s.graphs.len())
        .collect();
    let warm_up = pass(&s, &warm, tr, &mut Counts::default());
    if warm_up.failed > 0 {
        return Err(format!("run_heavy: {} warm-up ops failed", warm_up.failed));
    }
    let mut out = Session {
        setup: started.elapsed(),
        ..Session::default()
    };
    for &on in passes {
        tr.set_on(on);
        let mut counts = Counts::default();
        let cpu0 = host::pool_cpu();
        let pass = pass(&s, &s.order, tr, &mut counts);
        let cpu = host::pool_cpu().zip(cpu0).map(|(b, a)| b.saturating_sub(a));
        if on {
            out.layers = layers(tr, &counts, cpu.unwrap_or_default());
        }
        out.passes.push(pass);
    }
    Ok(out)
}

fn layers(tr: &Tracer, c: &Counts, cpu: Duration) -> Metrics {
    let n = c.runs.len();
    let total = |f: &dyn Fn(&ParMetrics) -> u64| c.runs.iter().map(|(_, m, _)| f(m)).sum::<u64>();
    let workers = |f: &dyn Fn(&cf2df_machine::WorkerStats) -> u64| {
        total(&|m: &ParMetrics| m.workers.iter().map(f).sum())
    };
    let mut m = Metrics::default();
    m.push(
        "machine.run_us",
        median_us(tr.durations("machine.run", "", false)),
        "us",
    );
    let per_token: Vec<f64> = c
        .runs
        .iter()
        .filter(|(_, m, _)| m.tokens_processed > 0)
        .map(|(ns, m, _)| *ns as f64 / m.tokens_processed as f64)
        .collect();
    m.push("machine.ns_per_token", median_f64(per_token), "ns");
    m.push(
        "machine.tokens_processed",
        mean(total(&|m| m.tokens_processed), n),
        "count",
    );
    m.push(
        "machine.fired",
        mean(c.runs.iter().map(|r| r.2).sum(), n),
        "count",
    );
    m.push(
        "machine.macro_fires",
        mean(total(&|m| m.macro_fires), n),
        "count",
    );
    m.push(
        "machine.fast_path_fires",
        mean(total(&|m| m.fast_path_fires), n),
        "count",
    );
    m.push("machine.steals", mean(workers(&|w| w.steals), n), "count");
    m.push(
        "machine.injector_hits",
        mean(workers(&|w| w.injector_hits), n),
        "count",
    );
    m.push("machine.batches", mean(workers(&|w| w.batches), n), "count");
    m.push("machine.parks", mean(workers(&|w| w.parks), n), "count");
    m.push("machine.unparks", mean(workers(&|w| w.unparks), n), "count");
    let share: Vec<f64> = c
        .runs
        .iter()
        .filter(|(_, m, _)| m.tokens_processed > 0)
        .map(|(_, m, _)| {
            let min = m.workers.iter().map(|w| w.processed).min().unwrap_or(0);
            min as f64 / m.tokens_processed as f64
        })
        .collect();
    m.push("machine.worker_share_min", median_f64(share), "ratio");
    let pending = c
        .runs
        .iter()
        .map(|(_, m, _)| m.max_pending_slots)
        .max()
        .unwrap_or(0);
    m.push("machine.max_pending_slots", pending as f64, "count");
    m.push(
        "machine.cpu_us_per_op",
        cpu.as_secs_f64() * 1e6 / n.max(1) as f64,
        "us",
    );
    let setup_us = |layer: &str| tr.durations(layer, "", true).iter().sum::<u64>() as f64 / 1e3;
    m.push("machine.compile_us", setup_us("machine.compile"), "us");
    m.push("machine.sim_us", setup_us("machine.sim"), "us");
    m
}
