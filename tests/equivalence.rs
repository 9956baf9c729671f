//! Differential semantics tests: every translation schema, executed on the
//! dataflow machine, must compute exactly the final memory of the
//! sequential von Neumann interpreter — the paper's core correctness
//! claim for each schema.

use cf2df::bench::workloads::{random_program, GenConfig};
use cf2df::cfg::{CoverStrategy, MemLayout};
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::lang::parse_to_cfg;
use cf2df::machine::{run, vonneumann, MachineConfig};

fn all_configs() -> Vec<(&'static str, TranslateOptions)> {
    vec![
        ("schema1", TranslateOptions::schema1()),
        (
            "schema3-singletons",
            TranslateOptions::schema3(CoverStrategy::Singletons),
        ),
        (
            "schema3-classes",
            TranslateOptions::schema3(CoverStrategy::AliasClasses),
        ),
        (
            "schema3-single-token",
            TranslateOptions::schema3(CoverStrategy::SingleToken),
        ),
        (
            "optimized",
            TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
        ),
        (
            "optimized+memelim",
            TranslateOptions::schema3(CoverStrategy::Singletons)
                .with_optimized(true)
                .with_memory_elimination(true),
        ),
        (
            "optimized+readpar",
            TranslateOptions::schema3(CoverStrategy::Singletons)
                .with_optimized(true)
                .with_read_parallelization(true),
        ),
        ("full-parallel", TranslateOptions::full_parallel_schema3()),
    ]
}

fn check_program(name: &str, src: &str, machine: &MachineConfig) {
    let parsed = parse_to_cfg(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let oracle = vonneumann::interpret(&parsed.cfg, &layout, machine)
        .unwrap_or_else(|e| panic!("{name}: baseline: {e}"));
    for (label, opts) in all_configs() {
        let t = translate(&parsed.cfg, &parsed.alias, &opts)
            .unwrap_or_else(|e| panic!("{name}/{label}: translate: {e}"));
        let out = run(&t.dfg, &layout, machine.clone())
            .unwrap_or_else(|e| panic!("{name}/{label}: machine: {e}\n{}", t.dfg.pretty()));
        assert_eq!(
            out.memory, oracle.memory,
            "{name}/{label}: final memory differs from sequential semantics"
        );
        assert_eq!(
            out.stats.leftover_tokens, 0,
            "{name}/{label}: translation must drain cleanly"
        );
    }
}

#[test]
fn corpus_is_equivalent_under_every_schema() {
    let mc = MachineConfig::unbounded();
    for (name, src) in cf2df::lang::corpus::all() {
        check_program(name, src, &mc);
    }
}

#[test]
fn corpus_is_equivalent_with_high_memory_latency() {
    // Latency skew exercises cross-iteration overlap and split-phase
    // ordering.
    let mc = MachineConfig::unbounded().mem_latency(17);
    for (name, src) in cf2df::lang::corpus::all() {
        check_program(name, src, &mc);
    }
}

#[test]
fn corpus_is_equivalent_on_finite_processors() {
    for p in [1, 2, 7] {
        let mc = MachineConfig::with_processors(p);
        for (name, src) in cf2df::lang::corpus::all() {
            check_program(name, src, &mc);
        }
    }
}

#[test]
fn random_programs_are_equivalent() {
    let gencfg = GenConfig::default();
    let mc = MachineConfig::unbounded();
    for seed in 0..60 {
        let src = random_program(seed, &gencfg);
        check_program(&format!("seed{seed}"), &src, &mc);
    }
}

#[test]
fn random_programs_with_latency_skew() {
    let gencfg = GenConfig {
        n_vars: 4,
        max_depth: 2,
        ..GenConfig::default()
    };
    let mc = MachineConfig::unbounded().mem_latency(9).op_latency(2);
    for seed in 100..130 {
        let src = random_program(seed, &gencfg);
        check_program(&format!("seed{seed}"), &src, &mc);
    }
}

#[test]
fn schema3_correct_under_every_consistent_binding() {
    // Schema 3's promise: the same dataflow graph is correct whatever the
    // concrete aliasing, as long as it is consistent with the declared
    // alias structure. Enumerate all consistent bindings of the FORTRAN
    // example and compare against the baseline under each.
    let parsed = parse_to_cfg(cf2df::lang::corpus::FORTRAN_ALIAS).unwrap();
    let bindings = parsed.alias.consistent_bindings();
    assert_eq!(bindings.len(), 3, "X~Z, Y~Z, all distinct");
    let mc = MachineConfig::unbounded().mem_latency(5);
    for strategy in [
        CoverStrategy::Singletons,
        CoverStrategy::AliasClasses,
        CoverStrategy::SingleToken,
    ] {
        let opts = TranslateOptions::schema3(strategy.clone());
        let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
        for binding in &bindings {
            let layout = MemLayout::with_binding(&parsed.cfg.vars, binding);
            let oracle = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap();
            let out = run(&t.dfg, &layout, mc.clone()).unwrap();
            assert_eq!(
                out.memory, oracle.memory,
                "cover {strategy:?} wrong under binding {binding:?}"
            );
        }
    }
}

#[test]
fn optimized_schema3_correct_under_bindings() {
    let parsed = parse_to_cfg(cf2df::lang::corpus::FORTRAN_ALIAS).unwrap();
    let mc = MachineConfig::unbounded();
    let opts = TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true);
    let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
    for binding in parsed.alias.consistent_bindings() {
        let layout = MemLayout::with_binding(&parsed.cfg.vars, &binding);
        let oracle = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap();
        let out = run(&t.dfg, &layout, mc.clone()).unwrap();
        assert_eq!(out.memory, oracle.memory);
    }
}

#[test]
fn threaded_executor_matches_simulator() {
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema3(CoverStrategy::Singletons),
        )
        .unwrap();
        let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
        for threads in [1, 4] {
            let par = cf2df::machine::parallel::run_threaded(&t.dfg, &layout, threads)
                .unwrap_or_else(|e| panic!("{name} threads={threads}: {e}"));
            assert_eq!(par.memory, sim.memory, "{name} threads={threads}");
        }
    }
}

#[test]
fn emitted_goto_form_preserves_semantics() {
    // CFG → flat goto-form source → CFG: the interpreter must compute the
    // same memory (aliasing declarations are not carried by goto form, so
    // the aliased corpus entry is compared under distinct layouts only).
    let mc = MachineConfig::default();
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let emitted = cf2df::lang::emit::emit_goto_form(&parsed.cfg);
        let reparsed = parse_to_cfg(&emitted).unwrap_or_else(|e| panic!("{name}: {e}"));
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let a = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap();
        let b = vonneumann::interpret(&reparsed.cfg, &layout, &mc).unwrap();
        assert_eq!(a.memory, b.memory, "{name}");
    }
}

#[test]
fn emitted_split_graph_preserves_semantics() {
    // Node splitting then emission: the split graph is a real program.
    for seed in [7u64, 84, 123] {
        let src = cf2df::bench::workloads::goto_soup(seed, 6);
        let parsed = parse_to_cfg(&src).unwrap();
        let split = cf2df::cfg::loop_control::split_irreducible(&parsed.cfg).unwrap();
        let emitted = cf2df::lang::emit::emit_goto_form(&split);
        let reparsed = parse_to_cfg(&emitted).unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let mc = MachineConfig::default();
        let a = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap();
        let b = vonneumann::interpret(&reparsed.cfg, &layout, &mc).unwrap();
        assert_eq!(a.memory, b.memory, "seed {seed}");
    }
}

#[test]
fn aliased_arrays_correct_under_both_bindings() {
    // FORTRAN-style array parameters that may alias: the same translated
    // graph must be correct whether the arrays share storage or not. Note
    // the result genuinely differs per binding (the reading loop sees the
    // writes only when they share), so this exercises real may-alias
    // ordering, not a coincidence.
    let src = "
        array a[6];
        array b[6];
        alias a ~ b;
        for i := 0 to 5 do { a[i] := i * 2; }
        s := 0;
        for j := 0 to 5 do { s := s + b[j]; }
        b[0] := 99;
        t := a[0];
    ";
    let parsed = parse_to_cfg(src).unwrap();
    let va = parsed.cfg.vars.lookup("a").unwrap();
    let vb = parsed.cfg.vars.lookup("b").unwrap();
    let s_var = parsed.cfg.vars.lookup("s").unwrap();
    let mut seen_sums = Vec::new();
    for binding in [vec![vec![va], vec![vb]], vec![vec![va, vb]]] {
        let layout = MemLayout::with_binding(&parsed.cfg.vars, &binding);
        let oracle =
            vonneumann::interpret(&parsed.cfg, &layout, &MachineConfig::default()).unwrap();
        seen_sums.push(oracle.memory[layout.base(s_var) as usize]);
        for strat in [CoverStrategy::Singletons, CoverStrategy::AliasClasses] {
            for optimized in [false, true] {
                let t = translate(
                    &parsed.cfg,
                    &parsed.alias,
                    &TranslateOptions::schema3(strat.clone()).with_optimized(optimized),
                )
                .unwrap();
                let out = run(&t.dfg, &layout, MachineConfig::unbounded().mem_latency(7)).unwrap();
                assert_eq!(
                    out.memory, oracle.memory,
                    "binding {binding:?} under {strat:?} optimized={optimized}"
                );
            }
        }
    }
    assert_ne!(seen_sums[0], seen_sums[1], "bindings observably differ");
}
