//! Equivalence of the multi-threaded executor and the deterministic
//! simulator over the whole corpus, at 1, 2, 4, and 8 workers.
//!
//! The threaded executor (`cf2df::machine::parallel`) runs tokens
//! through the std-only work-stealing scheduler with sharded tags,
//! striped I-structure memory, and atomic scalar cells; none of that
//! may change what a program computes. For every corpus program and
//! every translation level we run the deterministic simulator as the
//! oracle and assert that the final ordinary memory, the final
//! I-structure memory, and the number of fired operators all match at
//! every worker count.

use cf2df::cfg::MemLayout;
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::lang::parse_to_cfg;
use cf2df::machine::parallel::run_threaded;
use cf2df::machine::{run, MachineConfig};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn check_corpus(opts: &TranslateOptions, label: &str) {
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let t = match translate(&parsed.cfg, &parsed.alias, opts) {
            Ok(t) => t,
            // A few corpus programs are rejected by stricter schemas
            // (e.g. irreducible ones without node splitting); the
            // simulator would reject them identically, so skip.
            Err(_) => continue,
        };
        let layout = MemLayout::distinct(&t.cfg.vars);
        let sim = run(&t.dfg, &layout, MachineConfig::unbounded())
            .unwrap_or_else(|e| panic!("{label}/{name}: simulator failed: {e:?}"));
        // Counters settle once per batch per worker; at any width they
        // must add up to the 1-worker run's, nothing lost or counted twice.
        let mut one_worker = None;
        for workers in WORKERS {
            let par = run_threaded(&t.dfg, &layout, workers).unwrap_or_else(|e| {
                panic!("{label}/{name} at {workers} workers: executor failed: {e:?}")
            });
            let m = &par.metrics;
            assert_eq!(
                m.tokens_processed,
                par.fired + m.merged,
                "{label}/{name} at {workers} workers: every token fires or merges"
            );
            let counts = [
                ("tokens_processed", m.tokens_processed),
                ("merged", m.merged),
                ("macro_fires", m.macro_fires),
                ("ops_elided", m.ops_elided),
                ("tags_created", m.tags_created),
            ];
            assert_eq!(
                counts,
                *one_worker.get_or_insert(counts),
                "{label}/{name}: counters at {workers} workers differ from 1 worker"
            );
            assert_eq!(
                par.memory, sim.memory,
                "{label}/{name}: memory diverged at {workers} workers"
            );
            assert_eq!(
                par.ist_memory, sim.ist_memory,
                "{label}/{name}: I-structure memory diverged at {workers} workers"
            );
            assert_eq!(
                par.fired, sim.stats.fired,
                "{label}/{name}: fired-op count diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn corpus_matches_simulator_schema1() {
    check_corpus(&TranslateOptions::schema1(), "schema1");
}

#[test]
fn corpus_matches_simulator_schema2() {
    check_corpus(&TranslateOptions::schema2(), "schema2");
}

#[test]
fn corpus_matches_simulator_optimized() {
    check_corpus(&TranslateOptions::optimized(), "optimized");
}

#[test]
fn corpus_matches_simulator_full_parallel() {
    check_corpus(&TranslateOptions::full_parallel(), "full_parallel");
}

/// Macro-op fusion is execution-invisible: across the corpus, at every
/// schema and worker count, a fused run computes the same final memory
/// as its unfused twin, and the elided-operator tally exactly explains
/// the missing firings (`fired_unfused == fired_fused + ops_elided`).
#[test]
fn fused_runs_match_unfused_across_the_corpus() {
    let schemas = [
        ("schema1", TranslateOptions::schema1()),
        ("schema2", TranslateOptions::schema2()),
        (
            "schema3",
            TranslateOptions::schema3(cf2df::cfg::CoverStrategy::Singletons),
        ),
        ("full", TranslateOptions::full_parallel_schema3()),
    ];
    let mut elided_total = 0u64;
    for (label, opts) in schemas {
        for (name, src) in cf2df::lang::corpus::all() {
            let parsed = parse_to_cfg(src).unwrap();
            let (unfused, fused) = match (
                translate(&parsed.cfg, &parsed.alias, &opts.clone().with_fuse(false)),
                translate(&parsed.cfg, &parsed.alias, &opts.clone().with_fuse(true)),
            ) {
                (Ok(u), Ok(f)) => (u, f),
                _ => continue, // rejected by the stricter schema; covered elsewhere
            };
            let layout = MemLayout::distinct(&unfused.cfg.vars);
            let oracle = run(&unfused.dfg, &layout, MachineConfig::unbounded())
                .unwrap_or_else(|e| panic!("{label}/{name}: unfused simulator failed: {e:?}"));
            for workers in WORKERS {
                let base = run_threaded(&unfused.dfg, &layout, workers).unwrap_or_else(|e| {
                    panic!("{label}/{name} unfused at {workers} workers: {e:?}")
                });
                let coarse = run_threaded(&fused.dfg, &layout, workers).unwrap_or_else(|e| {
                    panic!("{label}/{name} fused at {workers} workers: {e:?}")
                });
                assert_eq!(
                    coarse.memory, oracle.memory,
                    "{label}/{name}: fusion changed memory at {workers} workers"
                );
                assert_eq!(
                    coarse.ist_memory, oracle.ist_memory,
                    "{label}/{name}: fusion changed I-structures at {workers} workers"
                );
                assert_eq!(
                    base.fired,
                    coarse.fired + coarse.metrics.ops_elided,
                    "{label}/{name} at {workers} workers: elided ops must exactly \
                     explain the firing gap"
                );
                assert_eq!(
                    base.metrics.ops_elided, 0,
                    "{label}/{name}: an unfused run has nothing to elide"
                );
                elided_total += coarse.metrics.ops_elided;
            }
        }
    }
    assert!(elided_total > 0, "no corpus graph actually fused — vacuous test");
}

/// Compile-once is execution-invisible: lowering a certified graph to
/// the dense [`cf2df::machine::CompiledGraph`] once and reusing it —
/// through both the simulator's and the threaded executor's compiled
/// entry points, across programs × schemas × 1/2/4/8 workers, fused and
/// unfused — produces exactly what the one-shot (compile-inside) entry
/// points produce.
#[test]
fn compiled_graphs_match_one_shot_runs_across_the_corpus() {
    use cf2df::machine::parallel::{run_threaded_compiled_pooled_with, ExecutorPool, ParConfig};
    use cf2df::machine::{compile, run_compiled};

    let schemas = [
        ("schema2-unfused", TranslateOptions::schema2().with_fuse(false)),
        ("schema2-fused", TranslateOptions::schema2().with_fuse(true)),
        (
            "schema3-fused",
            TranslateOptions::schema3(cf2df::cfg::CoverStrategy::Singletons).with_fuse(true),
        ),
        ("full", TranslateOptions::full_parallel_schema3()),
    ];
    for (label, opts) in &schemas {
        for (name, src) in cf2df::lang::corpus::all() {
            let parsed = parse_to_cfg(src).unwrap();
            let t = match translate(&parsed.cfg, &parsed.alias, opts) {
                Ok(t) => t,
                Err(_) => continue,
            };
            let layout = MemLayout::distinct(&t.cfg.vars);
            let cg = compile(&t.dfg)
                .unwrap_or_else(|e| panic!("{label}/{name}: compile failed: {e:?}"));
            let seed = run(&t.dfg, &layout, MachineConfig::unbounded())
                .unwrap_or_else(|e| panic!("{label}/{name}: one-shot simulator failed: {e:?}"));
            // Same CompiledGraph reused for every run below.
            for round in 0..2 {
                let sim = run_compiled(&cg, &layout, MachineConfig::unbounded()).unwrap();
                assert_eq!(sim.memory, seed.memory, "{label}/{name} round {round}");
                assert_eq!(sim.ist_memory, seed.ist_memory, "{label}/{name}");
                assert_eq!(sim.stats, seed.stats, "{label}/{name} round {round}");
            }
            for workers in WORKERS {
                let pool = ExecutorPool::new(workers);
                let (res, _, _) =
                    run_threaded_compiled_pooled_with(&cg, &layout, &pool, &ParConfig::default());
                let par = res.unwrap_or_else(|e| {
                    panic!("{label}/{name} at {workers} workers: {e:?}")
                });
                assert_eq!(
                    par.memory, seed.memory,
                    "{label}/{name}: compiled-threaded memory diverged at {workers} workers"
                );
                assert_eq!(
                    par.ist_memory, seed.ist_memory,
                    "{label}/{name}: I-structures diverged at {workers} workers"
                );
                assert_eq!(
                    par.fired, seed.stats.fired,
                    "{label}/{name}: fired diverged at {workers} workers"
                );
            }
            // Pooled compiled entry point: one pool, repeated reuse.
            let pool = ExecutorPool::new(2);
            for round in 0..2 {
                let (res, _m, _t) =
                    run_threaded_compiled_pooled_with(&cg, &layout, &pool, &ParConfig::default());
                let par = res.unwrap();
                assert_eq!(par.memory, seed.memory, "{label}/{name} pooled round {round}");
                assert_eq!(par.fired, seed.stats.fired, "{label}/{name} pooled");
            }
        }
    }
}

/// Tag-space multiplexing is execution-invisible: every corpus program
/// submitted K=4 times *concurrently* onto one shared pool yields K
/// results each bit-for-bit identical to the simulator oracle — final
/// memory, I-structure memory, and fired-operator count — at every
/// worker width. The pool is shared across all programs of a width, so
/// this also exercises serving *different* compiled graphs back-to-back
/// on one pool.
#[test]
fn concurrent_submissions_match_simulator_across_the_corpus() {
    use cf2df::machine::parallel::{ExecutorPool, ParConfig};
    use cf2df::machine::{compile, run_concurrent};

    const K: usize = 4;
    let opts = TranslateOptions::full_parallel_schema3();
    for workers in WORKERS {
        let pool = ExecutorPool::new(workers);
        for (name, src) in cf2df::lang::corpus::all() {
            let parsed = parse_to_cfg(src).unwrap();
            let t = match translate(&parsed.cfg, &parsed.alias, &opts) {
                Ok(t) => t,
                Err(_) => continue,
            };
            let layout = MemLayout::distinct(&t.cfg.vars);
            let cg = compile(&t.dfg)
                .unwrap_or_else(|e| panic!("{name}: compile failed: {e:?}"));
            let sim = run(&t.dfg, &layout, MachineConfig::unbounded())
                .unwrap_or_else(|e| panic!("{name}: simulator failed: {e:?}"));
            let (results, stats) =
                run_concurrent(&cg, &layout, &pool, K, &ParConfig::default(), K);
            assert_eq!(
                stats.completed_ok, K as u64,
                "{name} at {workers} workers: not every request completed"
            );
            assert_eq!(stats.requests, K as u64, "{name} at {workers} workers");
            for (i, res) in results.into_iter().enumerate() {
                let out = res.unwrap_or_else(|e| {
                    panic!("{name} request {i} at {workers} workers: {e:?}")
                });
                assert_eq!(
                    out.memory, sim.memory,
                    "{name} request {i}: memory diverged at {workers} workers"
                );
                assert_eq!(
                    out.ist_memory, sim.ist_memory,
                    "{name} request {i}: I-structures diverged at {workers} workers"
                );
                assert_eq!(
                    out.fired, sim.stats.fired,
                    "{name} request {i}: fired diverged at {workers} workers"
                );
            }
        }
    }
}

/// One executor pool multiplexes *different* compiled graphs with no
/// cross-talk: serving sessions of two distinct programs alternate on
/// the same pool, interleaved with solo pooled runs of a third, and
/// every result keeps matching its own program's oracle.
#[test]
fn one_pool_serves_different_graphs_without_cross_talk() {
    use cf2df::machine::parallel::{
        run_threaded_compiled_pooled_with, ExecutorPool, ParConfig,
    };
    use cf2df::machine::{compile, run_concurrent};

    let prep = |src: &str| {
        let parsed = parse_to_cfg(src).unwrap();
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::full_parallel_schema3(),
        )
        .unwrap();
        let layout = MemLayout::distinct(&t.cfg.vars);
        let cg = compile(&t.dfg).unwrap();
        let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
        (cg, layout, sim)
    };
    let (cg_a, layout_a, sim_a) = prep(cf2df::lang::corpus::GCD);
    let (cg_b, layout_b, sim_b) = prep(cf2df::lang::corpus::NESTED);
    let (cg_c, layout_c, sim_c) = prep(cf2df::lang::corpus::REDUCTION);

    let pool = ExecutorPool::new(4);
    let cfg = ParConfig::default();
    for round in 0..3 {
        let (results, stats) = run_concurrent(&cg_a, &layout_a, &pool, 3, &cfg, 6);
        assert_eq!(stats.completed_ok, 6, "round {round}: graph A");
        for res in results {
            assert_eq!(res.unwrap().memory, sim_a.memory, "round {round}: graph A");
        }
        // A solo pooled run of a third graph between sessions.
        let (res, _, _) = run_threaded_compiled_pooled_with(&cg_c, &layout_c, &pool, &cfg);
        let out = res.unwrap();
        assert_eq!(out.memory, sim_c.memory, "round {round}: solo graph C");
        assert_eq!(out.fired, sim_c.stats.fired, "round {round}: solo graph C");
        let (results, stats) = run_concurrent(&cg_b, &layout_b, &pool, 3, &cfg, 6);
        assert_eq!(stats.completed_ok, 6, "round {round}: graph B");
        for res in results {
            let out = res.unwrap();
            assert_eq!(out.memory, sim_b.memory, "round {round}: graph B");
            assert_eq!(out.fired, sim_b.stats.fired, "round {round}: graph B");
        }
    }
}

/// Repeated runs at the widest width: schedule nondeterminism must
/// never leak into results (a smoke test for rendezvous/tag races).
#[test]
fn repeated_wide_runs_are_stable() {
    let src = cf2df::lang::corpus::NESTED;
    let parsed = parse_to_cfg(src).unwrap();
    let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let layout = MemLayout::distinct(&t.cfg.vars);
    let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
    for round in 0..16 {
        let par = run_threaded(&t.dfg, &layout, 8).unwrap();
        assert_eq!(par.memory, sim.memory, "round {round}");
        assert_eq!(par.fired, sim.stats.fired, "round {round}");
    }
}
