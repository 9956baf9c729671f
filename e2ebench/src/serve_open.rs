//! `serve_open`: open-loop serving of a tiny graph at a fixed rate.
//!
//! One `serve` session over `running_example` (45 firings per request)
//! on a 1-worker pool with an admission window of 16. Requests arrive
//! at fixed intervals (`RATE_PER_S`, about a quarter of the 1-worker
//! saturation rate on the reference host) from one generator thread;
//! one collector thread collects them. Each request is tiny, so fixed
//! per-request cost, admission and worker wake/park dominate. Latency
//! runs from a request's due time to its `collect` return, so a stall
//! also charges the requests queued behind it. Every result is checked
//! against the deterministic simulator's run, made in set-up. The inputs
//! do not depend on the seed: one graph, fixed-interval arrivals.
//!
//! Load-generator hazard: `ServeHandle::collect` panics ("collect called
//! with no outstanding requests") when a collector runs ahead of the
//! generator, although the handle is meant to be shared across threads.
//! The generator therefore hands each submit to the collector over a
//! channel before the collector may call `collect` for it.

use crate::stats::{median_us, quantile, Metrics};
use crate::trace::Tracer;
use crate::{host, op_count, Params, Pass, Session};
use cf2df_cfg::MemLayout;
use cf2df_core::pipeline::{translate_cfg, TranslateOptions};
use cf2df_lang::{corpus, parse_to_cfg};
use cf2df_machine::{
    compile, run_compiled, serve, ExecutorPool, MachineConfig, Outcome, ParConfig, ReqId,
    ServeHandle, ServeStats,
};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, requests per second.
pub const RATE_PER_S: f64 = 20_000.0;
/// The session's admission window.
const INFLIGHT: usize = 16;
/// Executor workers: one, so that workers, generator and collector
/// never outnumber the reference host's 2 cores while busy.
const WORKERS: usize = 1;
/// Length of the untimed warm-up burst, seconds of load.
const WARM_UP_S: f64 = 0.1;

/// One open-loop pass, times in ns from `t0`, the first request's due
/// time; request `i` (in submission order) was due at `due_ns(i)`.
struct Raw {
    t0: Instant,
    /// Request id, submit call and submit return, in submission order.
    submits: Vec<(ReqId, u64, u64)>,
    /// Request id, `collect` return and check verdict, in completion
    /// order.
    done: Vec<(ReqId, u64, bool)>,
}

/// Due time of request `i`, ns from the pass's first due time.
fn due_ns(i: usize) -> u64 {
    (i as f64 * 1e9 / RATE_PER_S) as u64
}

fn ns_since(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_nanos() as u64
}

/// Spin (yielding the core) until `due`; sleep only when it is far off.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_millis(1) {
            std::thread::sleep(left - Duration::from_micros(500));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Offer `n` requests at fixed intervals from the calling thread and
/// collect them on a second thread.
fn open_loop(h: &ServeHandle<'_, '_>, layout: &MemLayout, reference: &Outcome, n: usize) -> Raw {
    let (tx, rx) = mpsc::channel::<()>();
    let t0 = Instant::now() + Duration::from_millis(1);
    let mut submits = Vec::with_capacity(n);
    let done = std::thread::scope(|scope| {
        // Owned by the generator, so that a generator panic drops it
        // and the collector's `recv` returns instead of waiting forever.
        let tx = tx;
        let collector = scope.spawn(move || {
            let mut done = Vec::with_capacity(n);
            for _ in 0..n {
                rx.recv()
                    .expect("the generator sends one message per submit");
                let (id, res) = h.collect();
                let at = ns_since(t0, Instant::now());
                let ok = match res {
                    Ok(out) => {
                        out.memory == reference.memory
                            && out.ist_memory == reference.ist_memory
                            && out.fired == reference.stats.fired
                    }
                    Err(e) => {
                        eprintln!("serve_open: request {id} failed: {e}");
                        false
                    }
                };
                done.push((id, at, ok));
            }
            done
        });
        for i in 0..n {
            wait_until(t0 + Duration::from_nanos(due_ns(i)));
            let call = Instant::now();
            let id = h.submit(layout);
            submits.push((id, ns_since(t0, call), ns_since(t0, Instant::now())));
            tx.send(())
                .expect("the collector receives until the last request");
        }
        collector.join().expect("the collector does not panic")
    });
    Raw { t0, submits, done }
}

/// Latencies, failures and wall time of a pass; spans when traced.
fn summarise(raw: &mut Raw, tr: &mut Tracer) -> Pass {
    let mut p = Pass {
        attempted: raw.submits.len() as u64,
        ..Pass::default()
    };
    raw.done.sort_unstable_by_key(|d| d.0);
    let at = |ns: u64| raw.t0 + Duration::from_nanos(ns);
    for (i, &(id, call, ret)) in raw.submits.iter().enumerate() {
        let k = raw
            .done
            .binary_search_by_key(&id, |d| d.0)
            .expect("every submitted request is collected");
        let (_, done, ok) = raw.done[k];
        if ok {
            p.latencies_ns.push(done.saturating_sub(due_ns(i)));
        } else {
            p.failed += 1;
        }
        let op = Some(i as u64);
        tr.record("serve.submit", "", op, None, at(call), at(ret));
        tr.record("serve.engine", "", op, None, at(ret), at(done));
    }
    let last = raw.done.iter().map(|d| d.1).max().unwrap_or(0);
    p.wall = Duration::from_nanos(last);
    p
}

/// One `serve_open` session: set-up (parse, translate and compile
/// `running_example`, simulate it, spawn the pool, open the session and
/// offer a warm-up burst), then one pass per entry of `passes` (`true`
/// = traced).
pub(crate) fn session(p: &Params, tr: &mut Tracer, passes: &[bool]) -> Result<Session, String> {
    let started = Instant::now();
    let parsed = tr.span("lang.parse", None, || parse_to_cfg(corpus::RUNNING_EXAMPLE));
    let parsed = parsed.map_err(|e| format!("parse: {e}"))?;
    let opts = TranslateOptions::full_parallel_schema3();
    let t = tr.span("core.translate", None, || {
        translate_cfg(parsed.cfg, parsed.alias, &opts)
    });
    let t = t.map_err(|e| format!("translate: {e}"))?;
    let cg = tr.span("machine.compile", None, || compile(&t.dfg));
    let cg = cg.map_err(|e| format!("compile: {e}"))?;
    let layout = MemLayout::distinct(&t.cfg.vars);
    let reference = tr.span("machine.sim", None, || {
        run_compiled(&cg, &layout, MachineConfig::default())
    });
    let reference = reference.map_err(|e| format!("simulator: {e}"))?;
    let pool = ExecutorPool::new(WORKERS);
    let n = op_count(p.seconds, RATE_PER_S);
    let warm_n = if p.quick {
        50
    } else {
        op_count(WARM_UP_S, RATE_PER_S)
    };

    let mut out = Session::default();
    let mut cpu = Duration::ZERO;
    let mut traced_raw = None;
    let (warm_failed, stats) = serve(&cg, &pool, INFLIGHT, &ParConfig::default(), |h| {
        let warm = open_loop(h, &layout, &reference, warm_n);
        let warm_failed = warm.done.iter().filter(|d| !d.2).count();
        out.setup = started.elapsed();
        if warm_failed > 0 {
            return warm_failed;
        }
        for &on in passes {
            tr.set_on(on);
            let cpu0 = host::pool_cpu();
            let mut raw = open_loop(h, &layout, &reference, n);
            if on {
                cpu = host::pool_cpu()
                    .zip(cpu0)
                    .map_or(Duration::ZERO, |(b, a)| b.saturating_sub(a));
            }
            out.passes.push(summarise(&mut raw, tr));
            if on {
                traced_raw = Some(raw);
            }
        }
        warm_failed
    });
    if warm_failed > 0 {
        return Err(format!("serve_open: {warm_failed} warm-up requests failed"));
    }
    if let Some(raw) = traced_raw {
        out.layers = layers(tr, &raw, &stats, cpu);
    }
    Ok(out)
}

fn layers(tr: &Tracer, raw: &Raw, stats: &ServeStats, cpu: Duration) -> Metrics {
    let per_req = |x: u64| x as f64 / stats.requests.max(1) as f64;
    let workers =
        |f: &dyn Fn(&cf2df_machine::WorkerStats) -> u64| stats.workers.iter().map(f).sum::<u64>();
    let mut m = Metrics::default();
    m.push(
        "serve.submit_us",
        median_us(tr.durations("serve.submit", "", false)),
        "us",
    );
    m.push(
        "serve.engine_us",
        median_us(tr.durations("serve.engine", "", false)),
        "us",
    );
    m.push("serve.peak_inflight", stats.peak_inflight as f64, "count");
    m.push(
        "serve.tokens_per_req",
        per_req(stats.tokens_processed),
        "count",
    );
    m.push(
        "serve.parks_per_req",
        per_req(workers(&|w| w.parks)),
        "count",
    );
    m.push(
        "serve.unparks_per_req",
        per_req(workers(&|w| w.unparks)),
        "count",
    );
    m.push(
        "serve.steals_per_req",
        per_req(workers(&|w| w.steals)),
        "count",
    );
    m.push(
        "serve.max_pending_slots",
        stats.max_pending_slots as f64,
        "count",
    );
    let n = raw.submits.len().max(1) as f64;
    m.push("serve.cpu_us_per_op", cpu.as_secs_f64() * 1e6 / n, "us");
    let mut late: Vec<u64> = raw
        .submits
        .iter()
        .enumerate()
        .map(|(i, s)| s.1.saturating_sub(due_ns(i)))
        .collect();
    m.push(
        "bench.gen_late_us",
        quantile(&mut late, 0.9) as f64 / 1e3,
        "us",
    );
    let setup_us = |layer: &str| tr.durations(layer, "", true).iter().sum::<u64>() as f64 / 1e3;
    m.push("core.translate_us", setup_us("core.translate"), "us");
    m.push("machine.compile_us", setup_us("machine.compile"), "us");
    m
}
