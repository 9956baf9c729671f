//! Fault-injection (chaos) hardening of the threaded executor.
//!
//! The contract under test: a threaded run either matches the
//! deterministic simulator bit-for-bit, or returns a *typed*
//! [`MachineError`] — it never hangs, never aborts the process, and
//! never silently corrupts results. Faults are injected
//! deterministically per `(seed, worker)` (see `cf2df::machine::chaos`),
//! so every failure here is reproducible.

use cf2df::cfg::{MemLayout, VarTable};
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::dfg::graph::ArcKind;
use cf2df::dfg::{Dfg, OpKind, Port};
use cf2df::lang::parse_to_cfg;
use cf2df::machine::{
    compile, run, run_threaded_compiled_pooled_with, ChaosConfig, ExecutorPool, MachineConfig,
    MachineError, ParConfig, ParMetrics, ParOutcome, TraceEvent,
};
use std::time::Duration;

type Run = (Result<ParOutcome, MachineError>, ParMetrics, Vec<TraceEvent>);

/// One configured run of `g` on a fresh pool of `workers` threads.
fn run_with(g: &Dfg, layout: &MemLayout, workers: usize, cfg: &ParConfig) -> Run {
    run_pooled_with(g, layout, &ExecutorPool::new(workers), cfg)
}

/// One configured run of `g` on an existing pool.
fn run_pooled_with(g: &Dfg, layout: &MemLayout, pool: &ExecutorPool, cfg: &ParConfig) -> Run {
    let cg = compile(g).expect("test graphs compile");
    run_threaded_compiled_pooled_with(&cg, layout, pool, cfg)
}

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Translate a corpus program under schema2 and return the graph,
/// layout, and the simulator oracle's outcome.
fn translated(src: &str) -> (Dfg, MemLayout, cf2df::machine::Outcome) {
    let parsed = parse_to_cfg(src).unwrap();
    let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let layout = MemLayout::distinct(&t.cfg.vars);
    let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
    (t.dfg, layout, sim)
}

fn with_watchdog(chaos: Option<ChaosConfig>) -> ParConfig {
    ParConfig {
        watchdog: Some(Duration::from_secs(10)),
        chaos,
        ..ParConfig::default()
    }
}

/// Swallow the expected "chaos: …" panic messages (the default hook
/// prints a backtrace per injected panic); leave real panics loud.
fn quiet_chaos_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("chaos: "));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// An operator that panics on its very first firing must surface as
/// `WorkerPanicked` — contained, typed, within the watchdog bound — at
/// every worker count. The process must not abort.
#[test]
fn injected_operator_panic_is_contained_at_every_width() {
    quiet_chaos_panics();
    let (g, layout, _) = translated(cf2df::lang::corpus::GCD);
    for workers in WORKERS {
        let cfg = with_watchdog(Some(ChaosConfig {
            panic_prob: 1.0,
            ..ChaosConfig::off(11)
        }));
        let started = std::time::Instant::now();
        let (result, metrics, _) = run_with(&g, &layout, workers, &cfg);
        let err = result.expect_err("every firing panics; the run cannot succeed");
        match err {
            MachineError::WorkerPanicked { worker, payload } => {
                assert!(
                    worker < workers || worker == usize::MAX,
                    "worker index {worker} out of range at {workers} workers"
                );
                assert!(
                    payload.contains("chaos: injected operator panic"),
                    "unexpected payload: {payload}"
                );
            }
            other => panic!("expected WorkerPanicked at {workers} workers, got {other}"),
        }
        assert!(metrics.chaos.panics > 0, "panic was tallied");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "containment exceeded the watchdog bound at {workers} workers"
        );
    }
}

/// A pool that contained a panicking run stays usable: subsequent clean
/// runs on the *same* pool must still match the simulator.
#[test]
fn pool_survives_contained_panics_and_stays_usable() {
    quiet_chaos_panics();
    let (g, layout, sim) = translated(cf2df::lang::corpus::NESTED);
    let pool = ExecutorPool::new(4);
    for round in 0..3 {
        let cfg = with_watchdog(Some(ChaosConfig {
            panic_prob: 1.0,
            ..ChaosConfig::off(round)
        }));
        let (result, _, _) = run_pooled_with(&g, &layout, &pool, &cfg);
        assert!(
            matches!(result, Err(MachineError::WorkerPanicked { .. })),
            "round {round}: expected a contained panic"
        );
        let (clean, metrics, _) =
            run_pooled_with(&g, &layout, &pool, &with_watchdog(None));
        let out = clean.unwrap_or_else(|e| panic!("round {round}: clean run failed: {e}"));
        assert_eq!(out.memory, sim.memory, "round {round}");
        assert_eq!(out.fired, sim.stats.fired, "round {round}");
        assert_eq!(metrics.chaos.total(), 0, "clean run injected nothing");
    }
}

/// Dropping every emitted token must be *diagnosed*: the run ends in
/// `TokenLeak`, not a hang and not a silent wrong answer.
#[test]
fn dropped_tokens_surface_as_token_leak() {
    let (g, layout, _) = translated(cf2df::lang::corpus::GCD);
    for workers in [2, 8] {
        let cfg = with_watchdog(Some(ChaosConfig {
            drop_prob: 1.0,
            ..ChaosConfig::off(5)
        }));
        let (result, metrics, _) = run_with(&g, &layout, workers, &cfg);
        match result {
            Err(MachineError::TokenLeak { leftover }) => {
                assert!(leftover > 0, "a leak must account for the dropped tokens");
                assert!(
                    metrics.chaos.drops <= leftover,
                    "leftover covers at least the injected drops"
                );
            }
            other => panic!("expected TokenLeak at {workers} workers, got {other:?}"),
        }
        assert!(metrics.chaos.drops > 0);
    }
}

/// Duplicated tokens hit the waiting-matching store — the ETS machine's
/// architectural point of duplicate detection. Every dup'd run either
/// reports `TokenCollision` or completes bit-for-bit equal (the copy
/// landed in a slot that never completed).
#[test]
fn duplicated_tokens_collide_or_stay_equivalent() {
    let (g, layout, sim) = translated(cf2df::lang::corpus::GCD);
    let mut collisions = 0;
    for seed in 0..4 {
        for workers in [2, 8] {
            let cfg = with_watchdog(Some(ChaosConfig {
                dup_prob: 1.0,
                ..ChaosConfig::off(seed)
            }));
            let (result, metrics, _) = run_with(&g, &layout, workers, &cfg);
            match result {
                Ok(out) => {
                    assert_eq!(out.memory, sim.memory, "seed {seed} workers {workers}");
                    assert_eq!(out.fired, sim.stats.fired, "seed {seed} workers {workers}");
                }
                Err(MachineError::TokenCollision { .. }) => collisions += 1,
                Err(other) => {
                    panic!("seed {seed} workers {workers}: unexpected error {other}")
                }
            }
            assert!(metrics.chaos.dups > 0, "dups were injected");
        }
    }
    assert!(
        collisions > 0,
        "dup_prob 1.0 never tripped the collision detector across 8 runs"
    );
}

/// Exhausting the tag space in a deep loop nest returns the typed
/// `TagSpaceExhausted` through the halt path — the regression test for
/// the former `expect("too many tags")` abort.
#[test]
fn deep_loop_nest_exhausts_capped_tag_space_cleanly() {
    let src = "
        s := 0; i := 0;
        while i < 6 do {
            j := 0;
            while j < 6 do {
                k := 0;
                while k < 6 do { s := s + k; k := k + 1; }
                j := j + 1;
            }
            i := i + 1;
        }
    ";
    let (g, layout, sim) = translated(src);
    // Sanity: uncapped, the nest runs and matches the oracle.
    let (ok, _, _) = run_with(&g, &layout, 4, &with_watchdog(None));
    assert_eq!(ok.unwrap().memory, sim.memory);
    // Capped far below the nest's tag demand: typed error, no panic.
    let cfg = ParConfig {
        tag_cap: 64,
        watchdog: Some(Duration::from_secs(10)),
        ..ParConfig::default()
    };
    for workers in WORKERS {
        let (result, _, _) = run_with(&g, &layout, workers, &cfg);
        match result {
            Err(MachineError::TagSpaceExhausted { cap, invocation }) => {
                assert_eq!((cap, invocation), (64, None))
            }
            other => panic!("expected TagSpaceExhausted at {workers} workers, got {other:?}"),
        }
    }
}

/// A spin graph (merge/identity cycle that never reaches End): start →
/// merge → identity → merge. Fuel bounds it with `FuelExhausted`; the
/// wall-clock watchdog bounds it with `WatchdogTimeout`.
fn spin_graph() -> (Dfg, MemLayout) {
    let mut t = VarTable::new();
    t.scalar("x");
    let layout = MemLayout::distinct(&t);
    let mut g = Dfg::new();
    let s = g.add(OpKind::Start);
    let m = g.add(OpKind::Merge);
    let id = g.add(OpKind::Identity);
    let e = g.add(OpKind::End { inputs: 1 });
    g.connect(Port::new(s, 0), Port::new(m, 0), ArcKind::Value);
    g.connect(Port::new(m, 0), Port::new(id, 0), ArcKind::Value);
    g.connect(Port::new(id, 0), Port::new(m, 0), ArcKind::Value);
    // End is fed by an identity that never receives a token: the cycle
    // spins forever unless fuel or the watchdog stops it.
    let starved = g.add(OpKind::Identity);
    g.connect(Port::new(starved, 0), Port::new(e, 0), ArcKind::Value);
    (g, layout)
}

#[test]
fn runaway_graph_is_bounded_by_fuel() {
    let (g, layout) = spin_graph();
    for workers in [1, 4] {
        let cfg = ParConfig {
            fuel: 1_000,
            watchdog: Some(Duration::from_secs(10)),
            ..ParConfig::default()
        };
        let (result, _, _) = run_with(&g, &layout, workers, &cfg);
        assert_eq!(
            result.expect_err("spin graph must exhaust fuel"),
            MachineError::FuelExhausted,
            "at {workers} workers"
        );
    }
}

#[test]
fn runaway_graph_is_bounded_by_the_watchdog() {
    let (g, layout) = spin_graph();
    let cfg = ParConfig {
        watchdog: Some(Duration::from_millis(100)),
        ..ParConfig::default()
    };
    let started = std::time::Instant::now();
    let (result, _, _) = run_with(&g, &layout, 4, &cfg);
    match result {
        Err(MachineError::WatchdogTimeout { millis }) => assert_eq!(millis, 100),
        other => panic!("expected WatchdogTimeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "watchdog halt took {:?}", started.elapsed()
    );
}

/// Benign chaos (delays + forced steals) perturbs only the *schedule*:
/// over the whole corpus, at every width, results must stay bit-for-bit
/// equal to the simulator.
#[test]
fn benign_chaos_preserves_corpus_equivalence() {
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let t = match translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()) {
            Ok(t) => t,
            Err(_) => continue,
        };
        let layout = MemLayout::distinct(&t.cfg.vars);
        let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
        for seed in [3, 17] {
            for workers in WORKERS {
                let cfg = with_watchdog(Some(ChaosConfig::perturb(seed)));
                let (result, metrics, _) = run_with(&t.dfg, &layout, workers, &cfg);
                let out = result.unwrap_or_else(|e| {
                    panic!("{name} seed {seed} workers {workers}: benign chaos failed: {e}")
                });
                assert_eq!(out.memory, sim.memory, "{name} seed {seed} workers {workers}");
                assert_eq!(
                    out.ist_memory, sim.ist_memory,
                    "{name} seed {seed} workers {workers}"
                );
                assert_eq!(
                    out.fired, sim.stats.fired,
                    "{name} seed {seed} workers {workers}"
                );
                assert_eq!(metrics.chaos.panics + metrics.chaos.drops + metrics.chaos.dups, 0);
            }
        }
    }
}

/// Chaos under fusion: compound actors (macros and fused loop-switches)
/// go through the same containment paths as fine-grain operators. Under
/// benign chaos a fully-fused graph still matches its unfused twin
/// bit-for-bit; under injected duplicates the compound loop-switch slot
/// either trips the collision detector or stays equivalent.
#[test]
fn fused_graphs_survive_chaos_like_unfused_ones() {
    quiet_chaos_panics();
    for (name, src) in [
        ("gcd", cf2df::lang::corpus::GCD),
        ("nested", cf2df::lang::corpus::NESTED),
    ] {
        let parsed = parse_to_cfg(src).unwrap();
        let opts = TranslateOptions::full_parallel_schema3();
        let unfused =
            translate(&parsed.cfg, &parsed.alias, &opts.clone().with_fuse(false)).unwrap();
        let fused = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
        assert!(
            fused.chains_fused + fused.ops_fused > 0,
            "{name}: nothing fused — vacuous chaos case"
        );
        let layout = MemLayout::distinct(&unfused.cfg.vars);
        let oracle = run(&unfused.dfg, &layout, MachineConfig::unbounded()).unwrap();
        for seed in [3, 17] {
            for workers in [2, 8] {
                // Benign chaos: schedule perturbation only, results exact.
                let cfg = with_watchdog(Some(ChaosConfig::perturb(seed)));
                let (result, _, _) = run_with(&fused.dfg, &layout, workers, &cfg);
                let out = result.unwrap_or_else(|e| {
                    panic!("{name} seed {seed} workers {workers}: fused benign chaos: {e}")
                });
                assert_eq!(out.memory, oracle.memory, "{name} seed {seed} w{workers}");
                assert_eq!(out.ist_memory, oracle.ist_memory, "{name} seed {seed} w{workers}");
                // Duplicated tokens: collide in the waiting-matching
                // store (compound slots included) or change nothing.
                let cfg = with_watchdog(Some(ChaosConfig {
                    dup_prob: 1.0,
                    ..ChaosConfig::off(seed)
                }));
                let (result, metrics, _) = run_with(&fused.dfg, &layout, workers, &cfg);
                match result {
                    Ok(out) => assert_eq!(out.memory, oracle.memory, "{name} dup w{workers}"),
                    Err(MachineError::TokenCollision { .. }) => {}
                    Err(other) => {
                        panic!("{name} seed {seed} workers {workers}: unexpected error {other}")
                    }
                }
                assert!(metrics.chaos.dups > 0, "dups were injected");
            }
        }
    }
}

/// An injected operator panic inside a multiplexed serving session is a
/// *per-invocation* event: the invocation whose token panicked fails
/// with `WorkerPanicked`, every other inflight invocation completes
/// bit-for-bit equal to the simulator, and the pool stays reusable for
/// a clean session afterwards. Swept over seeds and panic probabilities
/// until both outcomes (a contained failure and an unharmed neighbor)
/// have been observed in a single session.
#[test]
fn serve_contains_panics_to_the_failing_invocation() {
    use cf2df::machine::{compile, run_concurrent};

    quiet_chaos_panics();
    let parsed = parse_to_cfg(cf2df::lang::corpus::GCD).unwrap();
    let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let layout = MemLayout::distinct(&t.cfg.vars);
    let cg = compile(&t.dfg).unwrap();
    let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
    let pool = ExecutorPool::new(4);

    let mut saw_failure = false;
    let mut saw_mixed_session = false;
    'sweep: for prob in [0.002, 0.01, 0.05] {
        for seed in 0..8u64 {
            let cfg = with_watchdog(Some(ChaosConfig {
                panic_prob: prob,
                ..ChaosConfig::off(seed)
            }));
            let (results, stats) = run_concurrent(&cg, &layout, &pool, 4, &cfg, 12);
            let mut ok = 0;
            let mut failed = 0;
            for (i, res) in results.into_iter().enumerate() {
                match res {
                    Ok(out) => {
                        ok += 1;
                        assert_eq!(
                            out.memory, sim.memory,
                            "prob {prob} seed {seed} request {i}: a surviving \
                             invocation must be exact"
                        );
                        assert_eq!(out.fired, sim.stats.fired, "request {i}");
                    }
                    Err(MachineError::WorkerPanicked { payload, .. }) => {
                        failed += 1;
                        assert!(
                            payload.contains("chaos: injected operator panic"),
                            "unexpected payload: {payload}"
                        );
                    }
                    Err(other) => {
                        panic!("prob {prob} seed {seed} request {i}: unexpected {other}")
                    }
                }
            }
            assert_eq!(stats.completed_ok, ok, "stats agree with results");
            assert_eq!(stats.failed, failed, "stats agree with results");
            saw_failure |= failed > 0;
            saw_mixed_session |= failed > 0 && ok > 0;
            // The pool must be reusable after containment: a clean
            // session on the same pool stays exact.
            let (clean, cstats) =
                run_concurrent(&cg, &layout, &pool, 4, &with_watchdog(None), 4);
            assert_eq!(cstats.completed_ok, 4, "clean session after containment");
            assert_eq!(cstats.chaos.total(), 0, "clean session injected nothing");
            for res in clean {
                assert_eq!(res.unwrap().memory, sim.memory);
            }
            if saw_mixed_session {
                break 'sweep;
            }
        }
    }
    assert!(saw_failure, "no injected panic ever landed — vacuous sweep");
    assert!(
        saw_mixed_session,
        "never observed a session with both a failed and a surviving invocation"
    );
}

/// Tag-space exhaustion inside a multiplexed session is typed *and
/// attributed*: every invocation of a deep loop nest under a tiny tag
/// cap fails with `TagSpaceExhausted` carrying its own request id, the
/// session completes (no hang), and the same pool then serves the nest
/// cleanly with the cap lifted.
#[test]
fn serve_attributes_tag_exhaustion_to_the_invocation() {
    use cf2df::machine::{compile, run_concurrent};

    let src = "
        s := 0; i := 0;
        while i < 6 do {
            j := 0;
            while j < 6 do {
                k := 0;
                while k < 6 do { s := s + k; k := k + 1; }
                j := j + 1;
            }
            i := i + 1;
        }
    ";
    let parsed = parse_to_cfg(src).unwrap();
    let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let layout = MemLayout::distinct(&t.cfg.vars);
    let cg = compile(&t.dfg).unwrap();
    let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
    let pool = ExecutorPool::new(4);

    let capped = ParConfig {
        tag_cap: 64,
        watchdog: Some(Duration::from_secs(10)),
        ..ParConfig::default()
    };
    let (results, stats) = run_concurrent(&cg, &layout, &pool, 4, &capped, 8);
    assert_eq!(stats.failed, 8, "every capped invocation must fail");
    for (i, res) in results.into_iter().enumerate() {
        match res {
            Err(MachineError::TagSpaceExhausted { cap, invocation }) => {
                assert_eq!(cap, 64, "request {i}");
                assert_eq!(
                    invocation,
                    Some(i as u64),
                    "request {i}: the error must name the offending invocation"
                );
            }
            other => panic!("request {i}: expected TagSpaceExhausted, got {other:?}"),
        }
    }
    // Same pool, cap lifted: the nest serves cleanly.
    let (clean, cstats) = run_concurrent(&cg, &layout, &pool, 4, &with_watchdog(None), 4);
    assert_eq!(cstats.completed_ok, 4);
    for res in clean {
        assert_eq!(res.unwrap().memory, sim.memory);
    }
}

/// Ordinary runs (no chaos config at all) must tally zero faults.
#[test]
fn ordinary_runs_inject_nothing() {
    let (g, layout, sim) = translated(cf2df::lang::corpus::REDUCTION);
    let (result, metrics, _) = run_with(&g, &layout, 4, &ParConfig::default());
    assert_eq!(result.unwrap().memory, sim.memory);
    assert_eq!(metrics.chaos, Default::default());
    for w in &metrics.workers {
        assert_eq!(w.chaos_delays, 0);
        assert_eq!(w.chaos_forced_steals, 0);
    }
}
