//! Observability contracts of the threaded executor: the always-on
//! metrics in [`cf2df::machine::ParMetrics`] must be self-consistent on
//! every corpus program at every worker count, the trace ring must
//! capture firings on success and failure alike, and a deadlocked graph
//! must be reported with the partially-filled rendezvous slots that
//! caused it — not a generic "quiesced without End" string.

use cf2df::cfg::{MemLayout, VarTable};
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::dfg::{ArcKind, Dfg, OpKind, Port};
use cf2df::lang::parse_to_cfg;
use cf2df::machine::{
    compile, run, run_concurrent, run_threaded, run_threaded_compiled_pooled_with, ExecutorPool,
    MachineConfig, MachineError, ParConfig, ParOutcome, TraceEvent,
};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Run `g` on `workers` threads, keeping the last `capacity` firings.
fn traced_run(
    g: &Dfg,
    layout: &MemLayout,
    workers: usize,
    capacity: usize,
) -> (Result<ParOutcome, MachineError>, Vec<TraceEvent>) {
    let cfg = ParConfig {
        trace_capacity: Some(capacity),
        ..ParConfig::default()
    };
    let cg = compile(g).expect("test graphs compile");
    let (result, _, trace) =
        run_threaded_compiled_pooled_with(&cg, layout, &ExecutorPool::new(workers), &cfg);
    (result, trace)
}

/// Every processed token either fires an operator or merges into a
/// rendezvous slot; the per-worker tallies must account for all of them.
#[test]
fn metrics_are_self_consistent_across_the_corpus() {
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let t = match translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()) {
            Ok(t) => t,
            Err(_) => continue, // rejected by the stricter schema; covered elsewhere
        };
        let layout = MemLayout::distinct(&t.cfg.vars);
        for workers in WORKERS {
            let out = run_threaded(&t.dfg, &layout, workers)
                .unwrap_or_else(|e| panic!("{name} at {workers} workers: {e}"));
            let m = &out.metrics;
            assert_eq!(
                m.workers.len(),
                workers,
                "{name}: one stats entry per worker"
            );
            assert_eq!(
                m.tokens_processed,
                out.fired + m.merged,
                "{name} at {workers} workers: every token fires or merges"
            );
            let by_worker: u64 = m.workers.iter().map(|w| w.processed).sum();
            assert_eq!(
                by_worker, m.tokens_processed,
                "{name} at {workers} workers: per-worker tallies account for all tokens"
            );
            // Every token either came off a queue (popped, injected or
            // stolen) or was one of the two halves of a worker-local
            // fast-path join, which never transits a queue.
            let sourced: u64 = m
                .workers
                .iter()
                .map(|w| w.local_pops + w.injector_hits + w.steals + 2 * w.fast_path)
                .sum();
            assert_eq!(
                sourced, m.tokens_processed,
                "{name} at {workers} workers: every token came from somewhere"
            );
            let fast: u64 = m.workers.iter().map(|w| w.fast_path).sum();
            assert_eq!(
                fast, m.fast_path_fires,
                "{name} at {workers} workers: fast-path total matches per-worker tallies"
            );
            let shard_max = m.slot_shard_high_water.iter().copied().max().unwrap_or(0);
            let shard_sum: u64 = m.slot_shard_high_water.iter().sum();
            assert!(
                shard_max <= m.max_pending_slots && m.max_pending_slots <= shard_sum.max(shard_max),
                "{name} at {workers} workers: slot high-water bounds"
            );
            for w in &m.workers {
                assert!(
                    w.unparks <= w.parks,
                    "{name} at {workers} workers: a worker wakes at most once per park"
                );
            }
            if workers == 1 {
                assert_eq!(
                    m.workers[0].steals, 0,
                    "{name}: a lone worker has nobody to steal from"
                );
            }
        }
    }
}

/// The no-steal pathology regression test: on the largest bench
/// workload, *every* worker must get real work. The start tokens all
/// enter through the injector; the start-up donation hands each idle
/// sibling a token of its own, and steal-half spreads the rest. (The
/// executor artifact once showed siblings with `processed: 0, steals: 0,
/// parks: 0` at 2–8 workers because the lone injector queue fed only
/// worker 0.)
#[test]
fn every_worker_processes_tokens_on_loop_nest() {
    let src = cf2df::bench::workloads::loop_nest(3, 6);
    let parsed = parse_to_cfg(&src).unwrap();
    let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let layout = MemLayout::distinct(&t.cfg.vars);
    for workers in [2, 4] {
        let out = run_threaded(&t.dfg, &layout, workers).unwrap();
        for (i, w) in out.metrics.workers.iter().enumerate() {
            assert!(
                w.processed > 0,
                "worker {i}/{workers} processed nothing: {:?}",
                out.metrics.workers
            );
        }
    }
}

/// The fast-path regression test: the worker-local two-input rendezvous
/// fast path must stay alive at *every* width. The start-up donation,
/// which feeds every worker here, hands single tokens to idle siblings
/// and can so put the two halves of a join on different workers; the
/// worker left holding the chain still joins its halves locally because
/// a batch runs on through the tokens it produced. When batches ended
/// with the tokens taken from the queues, this test failed about half
/// of its release runs under `schema2-unfused` at 4 or 8 workers. (The
/// quick executor artifact once showed `fast_path_fires` collapsing from
/// 48 to 0 on `loop_nest` at 8 workers because round-robin seeding,
/// since removed, spread the halves of each join across different
/// workers.)
#[test]
fn fast_path_fires_at_every_width_on_join_heavy_graphs() {
    let src = cf2df::bench::workloads::loop_nest(3, 6);
    let parsed = parse_to_cfg(&src).unwrap();
    // Both the original regression configuration (schema 2, unfused —
    // the loop switches are the joins) and the shipping bench
    // configuration (full pipeline, fused — the macros' joins remain).
    for (label, opts) in [
        (
            "schema2-unfused",
            TranslateOptions::schema2().with_fuse(false),
        ),
        ("full-fused", TranslateOptions::full_parallel_schema3()),
    ] {
        let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
        let layout = MemLayout::distinct(&t.cfg.vars);
        for workers in WORKERS {
            let out = run_threaded(&t.dfg, &layout, workers).unwrap();
            assert!(
                out.metrics.fast_path_fires > 0,
                "{label}: fast path dead at {workers} workers: {:?}",
                out.metrics.workers
            );
        }
    }
}

/// Served requests take the worker-local fast path too (its pair map is
/// keyed by the invocation-packed key), and a fast-path join counts two
/// tokens in each request's metrics and in the session's alike. The
/// session overlaps requests: even on one worker, more than one is
/// admitted at a time, which an engine that serves requests one after
/// another cannot show.
#[test]
fn served_requests_take_the_fast_path() {
    let src = cf2df::bench::workloads::loop_nest(3, 6);
    let parsed = parse_to_cfg(&src).unwrap();
    let opts = TranslateOptions::full_parallel_schema3();
    let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
    let layout = MemLayout::distinct(&t.cfg.vars);
    let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
    let cg = compile(&t.dfg).unwrap();
    let pool = ExecutorPool::new(1);
    let (results, stats) = run_concurrent(&cg, &layout, &pool, 4, &ParConfig::default(), 8);
    let mut tokens = 0;
    for (i, r) in results.iter().enumerate() {
        let out = r.as_ref().unwrap_or_else(|e| panic!("request {i}: {e}"));
        assert_eq!(out.memory, sim.memory, "request {i}");
        let m = &out.metrics;
        assert!(
            m.fast_path_fires > 0,
            "request {i}: no fast-path joins: {m:?}"
        );
        assert_eq!(
            m.tokens_processed,
            out.fired + m.merged,
            "request {i}: every token fires or merges"
        );
        tokens += m.tokens_processed;
    }
    assert_eq!(
        stats.tokens_processed, tokens,
        "the session counts every request's tokens"
    );
    assert!(
        stats.peak_inflight >= 2,
        "a window of 4 never held two requests at once: {stats:?}"
    );
}

/// A graph whose Synch never receives its second input must deadlock,
/// and the error must name the starving slot: operator, tag, and which
/// ports did arrive.
#[test]
fn deadlock_error_names_partially_filled_slots() {
    let mut vars = VarTable::new();
    vars.scalar("x");
    let layout = MemLayout::distinct(&vars);
    let mut g = Dfg::new();
    let s = g.add(OpKind::Start);
    let id = g.add(OpKind::Identity);
    let sy = g.add(OpKind::Synch { inputs: 2 });
    let e = g.add(OpKind::End { inputs: 1 });
    g.connect(Port::new(s, 0), Port::new(id, 0), ArcKind::Access);
    g.connect(Port::new(id, 0), Port::new(sy, 0), ArcKind::Access);
    g.connect(Port::new(sy, 0), Port::new(e, 0), ArcKind::Access);

    let (result, trace) = traced_run(&g, &layout, 4, 64);
    let MachineError::Deadlock { pending } = result.unwrap_err() else {
        panic!("expected a deadlock report")
    };
    assert!(!pending.is_empty(), "at least one starving slot is named");
    assert!(
        pending[0].contains("synch2"),
        "names the operator: {pending:?}"
    );
    assert!(pending[0].contains("root"), "names the tag: {pending:?}");
    assert!(
        pending[0].contains("filled ports [0]"),
        "names the arrived ports: {pending:?}"
    );
    // The trace ring survives the failure path: the Identity between
    // Start and the starving Synch fired before the hang.
    assert!(!trace.is_empty(), "trace is returned on failure");
    assert_eq!(trace[0].op, id);
    let _ = s;
}

/// The same graphs through the traced entry point: the ring observes
/// exactly the fired operators when capacity suffices.
#[test]
fn trace_ring_matches_fired_count_on_corpus_programs() {
    for (name, src) in cf2df::lang::corpus::all().into_iter().take(4) {
        let parsed = parse_to_cfg(src).unwrap();
        let t = match translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let layout = MemLayout::distinct(&t.cfg.vars);
        let (result, trace) = traced_run(&t.dfg, &layout, 4, usize::MAX);
        let out = result.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            trace.len() as u64,
            out.fired,
            "{name}: one trace event per firing at unbounded capacity"
        );
        // Sequence numbers are unique and dense.
        let mut seqs: Vec<u64> = trace.iter().map(|ev| ev.time).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(
            seqs.len() as u64,
            out.fired,
            "{name}: unique sequence numbers"
        );
    }
}
