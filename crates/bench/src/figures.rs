//! One reproduction function per paper figure / claim.
//!
//! Each function regenerates the artifact of a figure — the graph, the
//! placement table, or the measurement its caption claims — and returns a
//! text report. The `figures` binary prints them; `EXPERIMENTS.md` records
//! their output next to the paper's qualitative expectation.

use crate::harness::{assert_equivalent, measure, measure_baseline, table, Measurement};
use crate::workloads;
use cf2df_cfg::{CoverStrategy, MemLayout, Stmt};
use cf2df_core::pipeline::{translate, TranslateOptions};
use cf2df_core::switch_place::SwitchPlacement;
use cf2df_core::Lines;
use cf2df_lang::parse_to_cfg;
use cf2df_machine::{run, MachineConfig};
use std::fmt::Write as _;

/// Fig 1: the running example's control-flow graph.
pub fn f1_running_example_cfg() -> String {
    let parsed = parse_to_cfg(cf2df_lang::corpus::RUNNING_EXAMPLE).unwrap();
    let mut s = String::from("# F1 (Fig 1): control-flow graph of the running example\n");
    s.push_str(&parsed.cfg.pretty());
    s.push_str("\nDOT:\n");
    s.push_str(&cf2df_cfg::dot::cfg_to_dot(&parsed.cfg, "fig1"));
    s
}

/// Fig 2: operator semantics, demonstrated by firing counts on a
/// conditional.
pub fn f2_operators() -> String {
    let src = "x := 1; if x < 2 then { y := 1; } else { y := 2; } z := y;";
    let parsed = parse_to_cfg(src).unwrap();
    let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let layout = MemLayout::distinct(&t.cfg.vars);
    let out = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
    let mut s = String::from("# F2 (Fig 2): switch/merge/synch in a translated conditional\n");
    let _ = writeln!(s, "{}", t.stats.summary());
    let _ = writeln!(
        s,
        "executed: fired={} makespan={} (switch routes one arm; merge forwards it)",
        out.stats.fired, out.stats.makespan
    );
    s
}

/// Figs 3–5: Schema 1 on the running example.
pub fn f3_f5_schema1() -> String {
    let parsed = parse_to_cfg(cf2df_lang::corpus::RUNNING_EXAMPLE).unwrap();
    let mc = MachineConfig::unbounded();
    let rows = vec![
        measure_baseline(&parsed, &mc),
        measure(&parsed, &TranslateOptions::schema1(), &mc, "schema1"),
    ];
    assert_equivalent(&rows);
    let mut s = table(
        "F3-F5 (Figs 3-5): Schema 1 — sequential semantics, expression parallelism only",
        &rows,
    );
    let _ = writeln!(
        s,
        "(Schema 1 avg parallelism {:.2} ≈ 1: statements execute one at a time)",
        rows[1].avg_parallelism
    );
    s
}

/// Figs 6–8: Schema 2 vs Schema 1, plus the loop-control necessity claim.
pub fn f6_f8_schema2() -> String {
    let mc = MachineConfig::unbounded();
    let mut s = String::new();
    let parsed = parse_to_cfg(cf2df_lang::corpus::INDEPENDENT).unwrap();
    let rows = vec![
        measure_baseline(&parsed, &mc),
        measure(&parsed, &TranslateOptions::schema1(), &mc, "schema1"),
        measure(&parsed, &TranslateOptions::schema2(), &mc, "schema2"),
    ];
    assert_equivalent(&rows);
    s.push_str(&table(
        "F6-F8 (Figs 6-8): Schema 2 parallelizes independent memory operations",
        &rows,
    ));

    // Loop-control necessity: Schema 2 without loop control on a skewed
    // loop violates the one-token-per-arc discipline.
    let skewed = "
        l:
          y := y + 1;
          y := y + 3;
          y := y + 5;
          x := x + 1;
          if x < 8 then { goto l; } else { goto end; }
    ";
    let parsed = parse_to_cfg(skewed).unwrap();
    let broken = translate(
        &parsed.cfg,
        &parsed.alias,
        &TranslateOptions::schema2().with_loop_control(false),
    )
    .unwrap();
    let layout = MemLayout::distinct(&broken.cfg.vars);
    let err = run(
        &broken.dfg,
        &layout,
        MachineConfig::unbounded().mem_latency(10),
    )
    .unwrap_err();
    let _ = writeln!(s, "without loop control (Fig 8's warning): {err}");
    let good = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let out = run(
        &good.dfg,
        &layout,
        MachineConfig::unbounded().mem_latency(10),
    )
    .unwrap();
    let _ = writeln!(
        s,
        "with loop control: clean run, {} iteration tags, 0 collisions",
        out.stats.tags_created
    );
    s
}

/// Fig 9 + Figs 10–11: switch placement on Fig 9's graph, and the
/// order-constraint removal measured on a predicate-heavy variant.
pub fn f9_f11_switch_elimination() -> String {
    let mut s = String::from(
        "# F9-F11 (Figs 9-11): redundant switch elimination via CD+ and source vectors\n",
    );
    // Placement table for Fig 9.
    let parsed = parse_to_cfg(cf2df_lang::corpus::FIG9).unwrap();
    let cover = cf2df_cfg::Cover::build(&CoverStrategy::Singletons, &parsed.alias);
    let lines = Lines::new(&parsed.cfg.vars, &parsed.alias, &cover, false);
    let mut fctx = cf2df_cfg::FunctionContext::new(parsed.cfg.clone(), parsed.alias.clone());
    let meta = cf2df_cfg::loop_control::insert_loop_control(&mut fctx).unwrap();
    let sp = SwitchPlacement::compute(&mut fctx, &meta, &lines);
    let cfg = fctx.cfg();
    let fork = cfg
        .node_ids()
        .find(|&n| matches!(cfg.stmt(n), Stmt::Branch { .. }))
        .unwrap();
    let _ = writeln!(s, "switch placement at Fig 9's fork (if w == 0):");
    for l in lines.ids() {
        let _ = writeln!(
            s,
            "  access_{:<4} needs switch: {}",
            lines.name(l),
            sp.needs_switch(fork, l)
        );
    }
    // Static comparison.
    let full = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let opt = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::optimized()).unwrap();
    let _ = writeln!(
        s,
        "Fig 9 switches: schema2 = {}, optimized = {} (x and w bypass)",
        full.stats.switches, opt.stats.switches
    );

    // Behavioural: predicate delay no longer blocks x.
    let src = "
        array c[2];
        x := x + 1;
        if c[c[c[0]]] == 0 then { y := 1; } else { z := 1; }
        x := x * 3;
        x := x + 7;
        x := x - 2;
    ";
    let parsed = parse_to_cfg(src).unwrap();
    let mc = MachineConfig::unbounded().mem_latency(10);
    let rows = vec![
        measure(&parsed, &TranslateOptions::schema2(), &mc, "schema2"),
        measure(&parsed, &TranslateOptions::optimized(), &mc, "optimized"),
    ];
    assert_equivalent(&rows);
    s.push_str(&table(
        "critical path with a slow predicate (3 chained array loads)",
        &rows,
    ));
    s
}

/// Figs 12–13 / §5: aliasing covers — access sets, synchronization, and
/// the parallelism/synchronization tradeoff.
pub fn f12_f13_alias_covers() -> String {
    let mut s = String::from("# F12-F13 (Figs 12-13, §5): aliasing and covers\n");
    let parsed = parse_to_cfg(cf2df_lang::corpus::FORTRAN_ALIAS).unwrap();
    // Access sets of the paper's FORTRAN example.
    let cover = cf2df_cfg::Cover::build(&CoverStrategy::Singletons, &parsed.alias);
    for name in ["fx", "fy", "fz"] {
        let v = parsed.cfg.vars.lookup(name).unwrap();
        let _ = writeln!(
            s,
            "  C[{name}] collects {} access tokens",
            cover.access_set(v, &parsed.alias).len()
        );
    }
    let mc = MachineConfig::unbounded().mem_latency(6);
    let covers: Vec<(&str, CoverStrategy)> = vec![
        ("singletons", CoverStrategy::Singletons),
        ("alias-classes", CoverStrategy::AliasClasses),
        ("single-token", CoverStrategy::SingleToken),
    ];
    let rows: Vec<Measurement> = covers
        .iter()
        .map(|(label, c)| measure(&parsed, &TranslateOptions::schema3(c.clone()), &mc, label))
        .collect();
    assert_equivalent(&rows);
    s.push_str(&table(
        "FORTRAN example (every op involves Z): covers trade synch ops, not parallelism",
        &rows,
    ));

    let tradeoff = "
        alias p ~ q;
        p := 1; q := 2;
        u := 3; v := 4;
        u := u * u + 1;  v := v * v + 2;
        u := u * 2 - 3;  v := v * 2 - 5;
        p := p + q;
    ";
    let parsed = parse_to_cfg(tradeoff).unwrap();
    let rows: Vec<Measurement> = covers
        .iter()
        .map(|(label, c)| measure(&parsed, &TranslateOptions::schema3(c.clone()), &mc, label))
        .collect();
    assert_equivalent(&rows);
    s.push_str(&table(
        "aliased pair + independent work: singleton cover buys parallelism",
        &rows,
    ));
    s
}

/// Fig 14 / §6.3: array-store parallelization, swept over memory latency.
pub fn f14_array_stores() -> String {
    let mut s = String::from("# F14 (Fig 14, §6.3): parallelizing array stores\n");
    let parsed = parse_to_cfg(&workloads::array_store_loop(16)).unwrap();
    let base = TranslateOptions::schema2().with_memory_elimination(true);
    let para = base.clone().with_array_parallelization(true);
    let _ = writeln!(
        s,
        "{:>10} {:>12} {:>12} {:>8}",
        "latency", "sequential", "parallel", "speedup"
    );
    for lat in [1u64, 5, 20, 50, 100] {
        let mc = MachineConfig::unbounded().mem_latency(lat);
        let a = measure(&parsed, &base, &mc, "seq");
        let b = measure(&parsed, &para, &mc, "par");
        assert_equivalent(&[a.clone(), b.clone()]);
        let _ = writeln!(
            s,
            "{:>10} {:>12} {:>12} {:>7.2}x",
            lat,
            a.makespan,
            b.makespan,
            a.makespan as f64 / b.makespan as f64
        );
    }
    s.push_str("(speedup grows with memory latency: stores overlap across iterations)\n");
    s
}

/// §3's size claim: the Schema 2 dataflow graph is O(E·V).
pub fn c1_graph_size() -> String {
    let mut s = String::from("# C1 (§3): dataflow graph size is O(E·V)\n");
    let _ = writeln!(
        s,
        "{:>6} {:>6} {:>6} {:>8} {:>10} {:>10} {:>10}",
        "vars", "E", "E*V", "arcs(s2)", "arcs/(E*V)", "arcs(opt)", "opt/s2"
    );
    for n in [2usize, 4, 8, 16, 24] {
        let src = workloads::loop_with_bystanders(n, 2, 4);
        let parsed = parse_to_cfg(&src).unwrap();
        let e = parsed.cfg.edge_count();
        let v = parsed.cfg.vars.len();
        let t2 = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
        let to = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::optimized()).unwrap();
        let _ = writeln!(
            s,
            "{:>6} {:>6} {:>6} {:>8} {:>10.2} {:>10} {:>10.2}",
            v,
            e,
            e * v,
            t2.stats.arcs,
            t2.stats.arcs as f64 / (e * v) as f64,
            to.stats.arcs,
            to.stats.arcs as f64 / t2.stats.arcs as f64
        );
    }
    s.push_str("(schema2 arcs track E*V; the optimized construction breaks the coupling)\n");
    s
}

/// §6.1: memory elimination.
pub fn c2_memory_elimination() -> String {
    let mut s = String::from("# C2 (§6.1): eliminating memory operations for unaliased scalars\n");
    let mc = MachineConfig::unbounded().mem_latency(4);
    let _ = writeln!(
        s,
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "program", "mem(plain)", "mem(elim)", "T(plain)", "T(elim)"
    );
    for (name, src) in cf2df_lang::corpus::all() {
        if name == "fortran_alias" {
            continue; // aliased scalars are not eligible
        }
        let parsed = parse_to_cfg(src).unwrap();
        let plain = measure(
            &parsed,
            &TranslateOptions::schema3(CoverStrategy::Singletons),
            &mc,
            "plain",
        );
        let elim = measure(
            &parsed,
            &TranslateOptions::schema3(CoverStrategy::Singletons).with_memory_elimination(true),
            &mc,
            "elim",
        );
        assert_equivalent(&[plain.clone(), elim.clone()]);
        let _ = writeln!(
            s,
            "{:<16} {:>10} {:>10} {:>10} {:>10}",
            name, plain.mem_ops, elim.mem_ops, plain.makespan, elim.makespan
        );
    }
    s
}

/// §6.2: read parallelization.
pub fn c3_read_parallelization() -> String {
    let mut s = String::from("# C3 (§6.2): parallelizing maximal load sequences\n");
    let mc = MachineConfig::unbounded().mem_latency(20);
    let _ = writeln!(
        s,
        "{:>8} {:>12} {:>12} {:>8}",
        "reads", "T(chained)", "T(parallel)", "speedup"
    );
    for n in [2usize, 4, 8, 16] {
        let src = workloads::read_fanout(n);
        let parsed = parse_to_cfg(&src).unwrap();
        let plain = measure(&parsed, &TranslateOptions::schema2(), &mc, "plain");
        let par = measure(
            &parsed,
            &TranslateOptions::schema2().with_read_parallelization(true),
            &mc,
            "readpar",
        );
        assert_equivalent(&[plain.clone(), par.clone()]);
        let _ = writeln!(
            s,
            "{:>8} {:>12} {:>12} {:>7.2}x",
            n,
            plain.makespan,
            par.makespan,
            plain.makespan as f64 / par.makespan as f64
        );
    }
    s
}

/// The headline claim: translated imperative programs expose parallelism
/// on the dataflow machine.
pub fn c4_overall_parallelism() -> String {
    let mut s = String::from(
        "# C4: average parallelism across the corpus (unbounded processors, unit latency)\n",
    );
    let mc = MachineConfig::unbounded();
    let _ = writeln!(
        s,
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "program", "baseline", "schema1", "schema2*", "optim", "full"
    );
    for (name, src) in cf2df_lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let rows = vec![
            measure_baseline(&parsed, &mc),
            measure(&parsed, &TranslateOptions::schema1(), &mc, "s1"),
            measure(
                &parsed,
                &TranslateOptions::schema3(CoverStrategy::Singletons),
                &mc,
                "s2",
            ),
            measure(
                &parsed,
                &TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
                &mc,
                "opt",
            ),
            measure(
                &parsed,
                &TranslateOptions::full_parallel_schema3(),
                &mc,
                "full",
            ),
        ];
        assert_equivalent(&rows);
        let _ = writeln!(
            s,
            "{:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            name,
            rows[0].avg_parallelism,
            rows[1].avg_parallelism,
            rows[2].avg_parallelism,
            rows[3].avg_parallelism,
            rows[4].avg_parallelism
        );
    }
    s.push_str("(schema2* = Schema 3 with singleton covers, which is Schema 2 when alias-free)\n");
    s
}

/// §2.2: split-phase memory tolerates latency when the graph has
/// parallelism.
pub fn c5_latency_tolerance() -> String {
    let mut s = String::from("# C5 (§2.2): split-phase memory + parallelism hide memory latency\n");
    let src = workloads::independent_updates(8);
    let parsed = parse_to_cfg(&src).unwrap();
    let _ = writeln!(
        s,
        "{:>8} {:>12} {:>12} {:>10}",
        "latency", "T(vonNeum)", "T(schema2)", "ratio"
    );
    for lat in [1u64, 4, 16, 64] {
        let mc = MachineConfig::unbounded().mem_latency(lat);
        let base = measure_baseline(&parsed, &mc);
        let s2 = measure(&parsed, &TranslateOptions::schema2(), &mc, "s2");
        let _ = writeln!(
            s,
            "{:>8} {:>12} {:>12} {:>9.2}x",
            lat,
            base.makespan,
            s2.makespan,
            base.makespan as f64 / s2.makespan as f64
        );
    }
    s.push_str("(the absolute gap grows with latency: independent ops overlap)\n");
    s
}

/// §6.3's write-once enhancement: I-structure arrays let reading loops
/// overlap writing loops.
pub fn c6_istructures() -> String {
    let mut s =
        String::from("# C6 (§6.3): write-once arrays on I-structure memory (stencil, 3 loops)\n");
    let parsed = parse_to_cfg(cf2df_lang::corpus::STENCIL).unwrap();
    let base = TranslateOptions::optimized().with_memory_elimination(true);
    let ist = base.clone().with_istructure_arrays(["src", "dst"]);
    let _ = writeln!(
        s,
        "{:>8} {:>12} {:>12} {:>8} {:>10}",
        "latency", "T(ordered)", "T(i-struct)", "speedup", "deferred"
    );
    for lat in [2u64, 8, 32] {
        let mc = MachineConfig::unbounded().mem_latency(lat);
        let t_base = translate(&parsed.cfg, &parsed.alias, &base).unwrap();
        let t_ist = translate(&parsed.cfg, &parsed.alias, &ist).unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let o_base = run(&t_base.dfg, &layout, mc.clone()).unwrap();
        let o_ist = run(&t_ist.dfg, &layout, mc).unwrap();
        let _ = writeln!(
            s,
            "{:>8} {:>12} {:>12} {:>7.2}x {:>10}",
            lat,
            o_base.stats.makespan,
            o_ist.stats.makespan,
            o_base.stats.makespan as f64 / o_ist.stats.makespan as f64,
            o_ist.stats.deferred_reads
        );
    }
    s.push_str("(deferred = reads that issued before their producing write)\n");
    s
}

/// §6.2 store-to-load forwarding across the corpus.
pub fn c7_store_forwarding() -> String {
    let mut s = String::from("# C7 (§6.2): store-to-load forwarding\n");
    let mc = MachineConfig::unbounded().mem_latency(8);
    let _ = writeln!(
        s,
        "{:<16} {:>10} {:>10} {:>10} {:>10}",
        "program", "forwarded", "rd(before)", "rd(after)", "T-change"
    );
    for (name, src) in cf2df_lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let plain = TranslateOptions::schema3(CoverStrategy::Singletons);
        let fwd = plain.clone().with_store_forwarding(true);
        let a = measure(&parsed, &plain, &mc, "plain");
        let t = translate(&parsed.cfg, &parsed.alias, &fwd).unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let out = run(&t.dfg, &layout, mc.clone()).unwrap();
        assert_eq!(out.memory, a.memory);
        let _ = writeln!(
            s,
            "{:<16} {:>10} {:>10} {:>10} {:>+10}",
            name,
            t.stores_forwarded,
            a.mem_ops,
            out.stats.mem_reads + out.stats.mem_writes,
            out.stats.makespan as i64 - a.makespan as i64
        );
    }
    s
}

/// Waiting-matching (frame memory) pressure: rendezvous-slot high-water
/// marks per configuration — the ETS hardware cost of parallelism.
pub fn c8_frame_pressure() -> String {
    let mut s = String::from("# C8: rendezvous-slot high-water mark (ETS frame-memory pressure)\n");
    let mc = MachineConfig::unbounded();
    let _ = writeln!(
        s,
        "{:<16} {:>8} {:>8} {:>8}",
        "program", "schema1", "schema2", "full"
    );
    for (name, src) in cf2df_lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let mut cells = Vec::new();
        for opts in [
            TranslateOptions::schema1(),
            TranslateOptions::schema3(CoverStrategy::Singletons),
            TranslateOptions::full_parallel_schema3(),
        ] {
            let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
            let layout = MemLayout::distinct(&parsed.cfg.vars);
            let out = run(&t.dfg, &layout, mc.clone()).unwrap();
            cells.push(out.stats.max_pending_slots);
        }
        let _ = writeln!(
            s,
            "{:<16} {:>8} {:>8} {:>8}",
            name, cells[0], cells[1], cells[2]
        );
    }
    s.push_str("(more parallelism → more concurrent rendezvous: the paper's machine pays in frame memory)\n");

    // Space-time tradeoff under back-pressure: a finite waiting-matching
    // store throttles slot allocation; undersizing it costs makespan and
    // can frame-deadlock.
    let parsed = parse_to_cfg(cf2df_lang::corpus::STENCIL).unwrap();
    let t = translate(
        &parsed.cfg,
        &parsed.alias,
        &TranslateOptions::full_parallel_schema3(),
    )
    .unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    // The sweeps probe each graph's own boundary: capacities are taken
    // from its unbounded run's high-water mark, so they track the graph.
    let mark = |dfg: &cf2df_dfg::Dfg, layout: &MemLayout| {
        let out = run(dfg, layout, MachineConfig::unbounded()).unwrap();
        out.stats.max_pending_slots as usize
    };
    let sweep =
        |s: &mut String, label: &str, dfg: &cf2df_dfg::Dfg, layout: &MemLayout, caps: &[usize]| {
            let _ = writeln!(s, "\nframe-capacity sweep ({label}):");
            let _ = writeln!(s, "{:>10} {:>10}", "capacity", "makespan");
            for &cap in caps {
                match run(dfg, layout, MachineConfig::unbounded().frame_capacity(cap)) {
                    Ok(out) => {
                        let _ = writeln!(s, "{:>10} {:>10}", cap, out.stats.makespan);
                    }
                    Err(e) => {
                        let kind = if format!("{e}").contains("frame-store") {
                            "deadlock"
                        } else {
                            "fault"
                        };
                        let _ = writeln!(s, "{:>10} {:>10}", cap, kind);
                    }
                }
            }
        };
    // With enough slots the machine runs at full speed; undersized, it
    // first loses speed, then the oldest slots wait on tokens that
    // themselves need new slots and the naive back-pressure
    // *frame-deadlocks*. Sizing the waiting-matching store is a real
    // constraint of the paper's machine.
    let p2 = parse_to_cfg(cf2df_lang::corpus::INDEPENDENT).unwrap();
    let t2 = translate(&p2.cfg, &p2.alias, &TranslateOptions::schema2()).unwrap();
    let l2 = MemLayout::distinct(&p2.cfg.vars);
    let m2 = mark(&t2.dfg, &l2);
    sweep(&mut s, "independent, schema2", &t2.dfg, &l2, &[1, 2, 4, m2]);
    let m = mark(&t.dfg, &layout);
    sweep(
        &mut s,
        "stencil, full transforms",
        &t.dfg,
        &layout,
        &[m / 2, m],
    );
    s
}

/// The abstract's IR claim: conventional optimizations run directly on
/// the dataflow graph. CSE + DCE operator savings per program.
pub fn c11_ir_optimizations() -> String {
    let mut s = String::from(
        "# C11 (abstract/§7): conventional optimizations on the dataflow IR (CSE + DCE)\n",
    );
    let _ = writeln!(
        s,
        "{:<16} {:>8} {:>8} {:>8} {:>10}",
        "program", "ops", "cse", "dce", "ops-after"
    );
    for (name, src) in cf2df_lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            // Unfused: the graph the pipeline's `cleanup` stage sees, which
            // runs before `fuse` folds chains into macro operators.
            &TranslateOptions::schema3(CoverStrategy::Singletons)
                .with_memory_elimination(true)
                .with_fuse(false),
        )
        .unwrap();
        let mut g = t.dfg.clone();
        let (c, _) = cf2df_core::transform::eliminate_common_subexpressions(&mut g);
        let (d, _) = cf2df_core::transform::eliminate_dead_code(&mut g);
        // Semantics check.
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let a = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
        let b = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(a.memory, b.memory, "{name}");
        let _ = writeln!(
            s,
            "{:<16} {:>8} {:>8} {:>8} {:>10}",
            name,
            t.stats.ops,
            c,
            d,
            g.len()
        );
    }
    s.push_str("(arcs are the dependences: value numbering needs no alias or control analysis)\n");
    s
}

/// All partitions of `0..n` (Bell-number many — keep `n` small).
fn partitions(n: usize) -> Vec<Vec<Vec<cf2df_cfg::VarId>>> {
    use cf2df_cfg::VarId;
    let mut out: Vec<Vec<Vec<VarId>>> = vec![Vec::new()];
    for i in 0..n as u32 {
        let mut next = Vec::new();
        for p in &out {
            for b in 0..p.len() {
                let mut q = p.clone();
                q[b].push(VarId(i));
                next.push(q);
            }
            let mut q = p.clone();
            q.push(vec![VarId(i)]);
            next.push(q);
        }
        out = next;
    }
    out
}

/// §5's open question, answered by exhaustion: "It is possible to find a
/// cover that maximizes parallelism and one that minimizes synchronization
/// … in general there will be no one cover that achieves both." We
/// enumerate *every* partition cover of the variables and report the
/// Pareto frontier of (synchronization cost, makespan).
pub fn c10_cover_pareto() -> String {
    let mut s = String::from(
        "# C10 (§5): exhaustive cover search — the parallelism/synchronization Pareto frontier\n",
    );
    // The tradeoff program: an aliased pair plus independent work, with a
    // loop and a conditional so each extra token line costs real machinery
    // (switches, merges, loop-control operators).
    let src = "
        alias p ~ q;
        p := 1; q := 2;
        u := 3; v := 4;
        for i := 1 to 3 do {
            u := u * u % 91;
            v := v * 2 - 5;
            if u > v then { p := p + q; } else { q := q + 1; }
        }
    ";
    let parsed = parse_to_cfg(src).unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let mc = MachineConfig::unbounded().mem_latency(6);
    let n = parsed.cfg.vars.len();
    let mut points: Vec<(usize, u64, String)> = Vec::new();
    for cover_parts in partitions(n) {
        let strategy = CoverStrategy::Custom(cover_parts.clone());
        let cover = cf2df_cfg::Cover::build(&strategy, &parsed.alias);
        let synch = cover.synchronization_cost(&parsed.alias);
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema3(strategy),
        )
        .unwrap();
        let out = run(&t.dfg, &layout, mc.clone()).unwrap();
        let desc = cover_parts
            .iter()
            .map(|el| {
                let names: Vec<&str> = el.iter().map(|&v| parsed.cfg.vars.name(v)).collect();
                format!("{{{}}}", names.join(","))
            })
            .collect::<Vec<_>>()
            .join(" ");
        // Synchronization machinery: arcs measure the token plumbing each
        // extra line costs (switches, merges, loop control, gathering),
        // plus the per-operation token collections.
        points.push((t.stats.arcs + synch, out.stats.makespan, desc));
    }
    let total = points.len();
    // Pareto: no other point is <= in both coordinates and < in one.
    let mut frontier: Vec<&(usize, u64, String)> = points
        .iter()
        .filter(|a| {
            !points
                .iter()
                .any(|b| (b.0 <= a.0 && b.1 < a.1) || (b.0 < a.0 && b.1 <= a.1))
        })
        .collect();
    frontier.sort_by_key(|p| (p.0, p.1));
    frontier.dedup_by(|a, b| (a.0, a.1) == (b.0, b.1));
    let _ = writeln!(s, "{total} covers evaluated; Pareto frontier:");
    let _ = writeln!(s, "{:>12} {:>9}  cover", "synch(static)", "makespan");
    for (synch, mk, desc) in frontier {
        let _ = writeln!(s, "{synch:>12} {mk:>9}  {desc}");
    }
    s.push_str("(no single cover minimizes both columns — the tradeoff the paper conjectured)\n");
    s
}

/// Ablation: binary synch trees (the paper's Fig 2 "synch tree") vs flat
/// n-ary synchs for gathering large access sets.
pub fn c12_synch_tree_ablation() -> String {
    let mut s = String::from(
        "# C12 (ablation): binary synch tree vs flat n-ary synch for token gathering\n",
    );
    // A star alias structure: hub ~ s0..s6, so every op on the hub
    // collects 8 tokens.
    let mut src = String::new();
    for i in 0..7 {
        src.push_str(&format!("alias hub ~ s{i};\n"));
    }
    for i in 0..7 {
        src.push_str(&format!("s{i} := {i};\n"));
    }
    src.push_str("hub := 1;\nhub := hub * 2;\nhub := hub + 5;\n");
    let parsed = parse_to_cfg(&src).unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let _ = writeln!(
        s,
        "{:<8} {:>7} {:>8} {:>9} {:>9}",
        "gather", "ops", "synchs", "makespan", "max-par"
    );
    for (label, flat) in [("tree", false), ("flat", true)] {
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema3(CoverStrategy::Singletons).with_flat_synch(flat),
        )
        .unwrap();
        let out = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
        let _ = writeln!(
            s,
            "{:<8} {:>7} {:>8} {:>9} {:>9}",
            label, t.stats.ops, t.stats.synchs, out.stats.makespan, out.stats.max_parallelism
        );
    }
    s.push_str(
        "(trees cost log-depth latency but pipeline in 2-input hardware slots;\n flat synchs are single operators with wide rendezvous)\n",
    );
    s
}

/// A named figure-reproduction function.
pub type Report = (&'static str, fn() -> String);

/// The `figures` binary's output for `reports`: each report, then a
/// rule of 78 `=`. Over [`all_reports`] this is `figures_output.txt`,
/// which a test requires to match byte for byte.
pub fn render(reports: &[Report]) -> String {
    let mut s = String::new();
    for (_, f) in reports {
        let _ = writeln!(s, "{}\n{}", f(), "=".repeat(78));
    }
    s
}

/// All reports in order.
pub fn all_reports() -> Vec<Report> {
    vec![
        ("f1", f1_running_example_cfg),
        ("f2", f2_operators),
        ("f3-f5", f3_f5_schema1),
        ("f6-f8", f6_f8_schema2),
        ("f9-f11", f9_f11_switch_elimination),
        ("f12-f13", f12_f13_alias_covers),
        ("f14", f14_array_stores),
        ("c1", c1_graph_size),
        ("c2", c2_memory_elimination),
        ("c3", c3_read_parallelization),
        ("c4", c4_overall_parallelism),
        ("c5", c5_latency_tolerance),
        ("c6", c6_istructures),
        ("c7", c7_store_forwarding),
        ("c8", c8_frame_pressure),
        ("c10", c10_cover_pareto),
        ("c11", c11_ir_optimizations),
        ("c12", c12_synch_tree_ablation),
    ]
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_figure_reproduces() {
        for (name, f) in super::all_reports() {
            let report = f();
            assert!(!report.is_empty(), "{name} produced no output");
        }
    }
}

#[cfg(test)]
mod pareto_tests {
    #[test]
    fn cover_pareto_frontier_is_a_real_tradeoff() {
        let report = super::c10_cover_pareto();
        // At least two incomparable optima (the paper's conjecture).
        let rows = report
            .lines()
            .filter(|l| l.trim_start().starts_with(char::is_numeric))
            .count();
        assert!(rows >= 2, "frontier collapsed to one point:\n{report}");
    }

    #[test]
    fn partitions_count_matches_bell_numbers() {
        assert_eq!(super::partitions(1).len(), 1);
        assert_eq!(super::partitions(2).len(), 2);
        assert_eq!(super::partitions(3).len(), 5);
        assert_eq!(super::partitions(4).len(), 15);
        assert_eq!(super::partitions(5).len(), 52);
    }
}
