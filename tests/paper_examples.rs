//! Structural and behavioural reproduction of the paper's worked examples
//! (the figures), one test per figure.

use cf2df::cfg::{CoverStrategy, DomTree, LoopForest, MemLayout, Stmt};
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::dfg::OpKind;
use cf2df::lang::parse_to_cfg;
use cf2df::machine::{run, MachineConfig, MachineError};

/// Fig 1: the running example's CFG shape.
#[test]
fn fig1_running_example_cfg() {
    let parsed = parse_to_cfg(cf2df::lang::corpus::RUNNING_EXAMPLE).unwrap();
    let cfg = &parsed.cfg;
    assert_eq!(cfg.len(), 6); // start, end, join, 2 assigns, branch
    let join = cfg.entry();
    assert!(matches!(cfg.stmt(join), Stmt::Join));
    let s1 = cfg.succs(join)[0];
    let s2 = cfg.succs(s1)[0];
    let br = cfg.succs(s2)[0];
    assert_eq!(cfg.succs(br), &[join, cfg.end()]);
    // One cyclic interval, headed at the join.
    let forest = LoopForest::compute(cfg).unwrap();
    assert_eq!(forest.len(), 1);
    assert_eq!(forest.iter().next().unwrap().1.header, join);
}

/// Fig 2's operators behave as specified (switch routes, merge forwards,
/// synch waits) — exercised through a minimal graph.
#[test]
fn fig2_operator_semantics() {
    // Covered in unit tests of the machine; here, check the operators all
    // appear in a real translation of a conditional.
    let parsed =
        parse_to_cfg("x := 1; if x < 2 then { y := 1; } else { y := 2; } z := y;").unwrap();
    let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let stats = &t.stats;
    assert!(stats.switches > 0, "forks become switches");
    assert!(stats.merges > 0, "joins become merges");
}

/// Figs 3–5: Schema 1 on the running example — sequential semantics with a
/// single circulating access token: average parallelism stays near 1.
#[test]
fn fig5_schema1_is_sequential() {
    let parsed = parse_to_cfg(cf2df::lang::corpus::RUNNING_EXAMPLE).unwrap();
    let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema1()).unwrap();
    let layout = MemLayout::distinct(&t.cfg.vars);
    let out = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
    let par = out.stats.avg_parallelism();
    assert!(
        par < 2.0,
        "Schema 1 admits only expression parallelism, got {par:.2}"
    );
}

/// Figs 6–8: Schema 2 exposes parallelism across statements: higher
/// average parallelism than Schema 1 on the same program.
#[test]
fn fig8_schema2_outperforms_schema1() {
    let src = cf2df::lang::corpus::INDEPENDENT;
    let parsed = parse_to_cfg(src).unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let t1 = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema1()).unwrap();
    let t2 = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let o1 = run(&t1.dfg, &layout, MachineConfig::unbounded()).unwrap();
    let o2 = run(&t2.dfg, &layout, MachineConfig::unbounded()).unwrap();
    assert_eq!(o1.memory, o2.memory);
    assert!(
        o2.stats.makespan * 2 <= o1.stats.makespan,
        "schema2 ({}) should be at least 2x shorter than schema1 ({})",
        o2.stats.makespan,
        o1.stats.makespan
    );
}

/// §3 / Fig 8 discussion: applying Schema 2 to a cyclic graph *without*
/// loop control "does not specify a meaningful dataflow computation" —
/// tokens from different iterations collide on one arc. The machine
/// detects exactly that.
/// A loop where y's per-iteration work is heavier than x's: without loop
/// control (hence without iteration tags), the predicate tokens of later
/// iterations pile up at y's switch while y lags behind — two tokens on
/// one arc under the same tag.
const SKEWED_LOOP: &str = "
l:
  y := y + 1;
  y := y + 3;
  y := y + 5;
  x := x + 1;
  if x < 8 then { goto l; } else { goto end; }
";

#[test]
fn fig8_without_loop_control_collides() {
    let parsed = parse_to_cfg(SKEWED_LOOP).unwrap();
    let opts = TranslateOptions::schema2().with_loop_control(false);
    let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
    // Slow memory: x's short chain laps y's long chain.
    let err = run(
        &t.dfg,
        &MemLayout::distinct(&t.cfg.vars),
        MachineConfig::unbounded().mem_latency(10),
    )
    .unwrap_err();
    assert!(
        matches!(err, MachineError::TokenCollision { .. }),
        "expected a token collision, got: {err}"
    );
    // The same graph with loop control runs clean and gets the right
    // answer.
    let t2 = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let layout = MemLayout::distinct(&t2.cfg.vars);
    let out = run(&t2.dfg, &layout, MachineConfig::unbounded().mem_latency(10)).unwrap();
    let oracle =
        cf2df::machine::vonneumann::interpret(&parsed.cfg, &layout, &MachineConfig::default())
            .unwrap();
    assert_eq!(out.memory, oracle.memory);
}

/// With loop control the same program runs cleanly under the same skew.
#[test]
fn fig8_with_loop_control_is_clean() {
    let parsed = parse_to_cfg(cf2df::lang::corpus::RUNNING_EXAMPLE).unwrap();
    let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let out = run(
        &t.dfg,
        &MemLayout::distinct(&t.cfg.vars),
        MachineConfig::unbounded().mem_latency(8),
    )
    .unwrap();
    assert_eq!(out.stats.leftover_tokens, 0);
    // Iteration tags were allocated per loop trip (5 trips).
    assert_eq!(out.stats.tags_created, 5);
}

/// Fig 9: `x` is not used in the conditional. Under Schema 2 its token
/// still passes a switch (order constraint); the optimized construction
/// removes it, so `x := 0` no longer waits for the predicate `w == 0`.
#[test]
fn fig9_bypass_eliminates_switches() {
    let parsed = parse_to_cfg(cf2df::lang::corpus::FIG9).unwrap();
    let full = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let opt = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::optimized()).unwrap();
    assert_eq!(full.stats.switches, 4);
    assert_eq!(opt.stats.switches, 2, "x's and w's switches eliminated");
}

/// Fig 9's behavioural claim: with the order constraint removed, the
/// computation of the predicate no longer delays the assignments to `x`.
/// Here the predicate needs a chain of three dependent array loads, so
/// under Schema 2 `x`'s switch — and everything after it — waits ~3
/// memory round-trips; the optimized translation lets `x` proceed.
#[test]
fn fig9_bypass_shortens_critical_path() {
    let src = "
        array c[2];
        x := x + 1;
        if c[c[c[0]]] == 0 then { y := 1; } else { z := 1; }
        x := x * 3;
        x := x + 7;
        x := x - 2;
    ";
    let parsed = parse_to_cfg(src).unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let mc = MachineConfig::unbounded().mem_latency(10);
    let full = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let opt = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::optimized()).unwrap();
    let o_full = run(&full.dfg, &layout, mc.clone()).unwrap();
    let o_opt = run(&opt.dfg, &layout, mc).unwrap();
    assert_eq!(o_full.memory, o_opt.memory);
    assert!(
        o_opt.stats.makespan < o_full.stats.makespan,
        "bypassing must shorten the critical path ({} vs {})",
        o_opt.stats.makespan,
        o_full.stats.makespan
    );
}

/// Fig 10/11 are validated structurally: the optimized construction never
/// produces a switch whose outputs immediately re-merge.
#[test]
fn fig10_11_no_redundant_switches() {
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
        )
        .unwrap();
        assert!(
            cf2df::dfg::validate::redundant_switches(&t.dfg).is_empty(),
            "{name}: redundant switch survived"
        );
    }
}

/// Figs 12–13 / §5: cover choice trades parallelism against
/// synchronization, "depending on the particular flowgraph".
///
/// (a) On the paper's FORTRAN example every operation involves `Z`'s alias
/// class, so no cover can add parallelism — there the single-token cover
/// wins outright by avoiding all synchronization.
/// (b) With an aliased pair *plus* independent unaliased variables, the
/// singleton cover buys real parallelism at the price of synch operations.
#[test]
fn fig12_13_cover_tradeoff() {
    let mc = MachineConfig::unbounded().mem_latency(6);

    // (a) FORTRAN example: singletons pay synchronization for nothing.
    let parsed = parse_to_cfg(cf2df::lang::corpus::FORTRAN_ALIAS).unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let singles = translate(
        &parsed.cfg,
        &parsed.alias,
        &TranslateOptions::schema3(CoverStrategy::Singletons),
    )
    .unwrap();
    let one = translate(
        &parsed.cfg,
        &parsed.alias,
        &TranslateOptions::schema3(CoverStrategy::SingleToken),
    )
    .unwrap();
    assert!(singles.stats.synchs > 0, "singletons gather aliased tokens");
    assert_eq!(one.stats.synchs, 0, "one token never synchronizes");
    let o_singles = run(&singles.dfg, &layout, mc.clone()).unwrap();
    let o_one = run(&one.dfg, &layout, mc.clone()).unwrap();
    assert_eq!(o_singles.memory, o_one.memory);
    assert!(
        o_one.stats.makespan <= o_singles.stats.makespan,
        "Z is in every access set: extra tokens cannot help here"
    );

    // (b) Independent work alongside an aliased pair: singletons win.
    let src = "
        alias p ~ q;
        p := 1; q := 2;
        u := 3; v := 4;
        u := u * u + 1;  v := v * v + 2;
        u := u * 2 - 3;  v := v * 2 - 5;
        p := p + q;
    ";
    let parsed = parse_to_cfg(src).unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let singles = translate(
        &parsed.cfg,
        &parsed.alias,
        &TranslateOptions::schema3(CoverStrategy::Singletons),
    )
    .unwrap();
    let one = translate(
        &parsed.cfg,
        &parsed.alias,
        &TranslateOptions::schema3(CoverStrategy::SingleToken),
    )
    .unwrap();
    let o_singles = run(&singles.dfg, &layout, mc.clone()).unwrap();
    let o_one = run(&one.dfg, &layout, mc).unwrap();
    assert_eq!(o_singles.memory, o_one.memory);
    assert!(
        o_singles.stats.makespan < o_one.stats.makespan,
        "u/v work overlaps under singleton covers ({} vs {})",
        o_singles.stats.makespan,
        o_one.stats.makespan
    );
}

/// Fig 14 / §6.3: array stores in successive iterations overlap after the
/// rewrite; the final memory is unchanged.
#[test]
fn fig14_array_store_parallelization() {
    let parsed = parse_to_cfg(cf2df::lang::corpus::ARRAY_LOOP).unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let mc = MachineConfig::unbounded().mem_latency(40);
    let base = TranslateOptions::schema2().with_memory_elimination(true);
    let para = base.clone().with_array_parallelization(true);
    let t_base = translate(&parsed.cfg, &parsed.alias, &base).unwrap();
    let t_para = translate(&parsed.cfg, &parsed.alias, &para).unwrap();
    assert_eq!(t_para.array_sites_parallelized, 1);
    let o_base = run(&t_base.dfg, &layout, mc.clone()).unwrap();
    let o_para = run(&t_para.dfg, &layout, mc).unwrap();
    assert_eq!(o_base.memory, o_para.memory);
    assert!(
        o_para.stats.makespan < o_base.stats.makespan,
        "stores must overlap: {} vs {}",
        o_para.stats.makespan,
        o_base.stats.makespan
    );
}

/// §6.1: memory elimination removes loads and stores of unaliased scalars;
/// executed memory operations collapse to the per-variable writebacks (plus
/// array traffic).
#[test]
fn sec61_memory_elimination_removes_traffic() {
    let src = cf2df::lang::corpus::FIB;
    let parsed = parse_to_cfg(src).unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let mc = MachineConfig::unbounded();
    let plain = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let elim = translate(
        &parsed.cfg,
        &parsed.alias,
        &TranslateOptions::schema2().with_memory_elimination(true),
    )
    .unwrap();
    let o_plain = run(&plain.dfg, &layout, mc.clone()).unwrap();
    let o_elim = run(&elim.dfg, &layout, mc).unwrap();
    assert_eq!(o_plain.memory, o_elim.memory);
    let vars = parsed.cfg.vars.len() as u64;
    assert_eq!(
        o_elim.stats.mem_writes, vars,
        "only the final writebacks remain"
    );
    assert_eq!(o_elim.stats.mem_reads, 0);
    assert!(o_plain.stats.mem_reads > 20, "plain schema reads per use");
    assert!(
        o_elim.stats.makespan < o_plain.stats.makespan,
        "values on tokens shorten the critical path"
    );
}

/// §4.1 Definition/Theorem check on the paper's own postdominator facts:
/// every node has a unique immediate postdominator, tree-structured.
#[test]
fn postdominator_tree_is_well_formed_on_corpus() {
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let pd = DomTree::postdominators(&parsed.cfg);
        for n in parsed.cfg.node_ids() {
            if n == parsed.cfg.end() {
                assert_eq!(pd.idom(n), None);
            } else {
                let p = pd
                    .idom(n)
                    .unwrap_or_else(|| panic!("{name}: {n:?} lacks an ipostdom"));
                assert!(pd.strictly_dominates(p, n));
            }
        }
    }
}

/// §6.3's write-once enhancement: placing the stencil's arrays in
/// I-structure memory lets the reading loop start while the writing loop
/// is still running — reads issued early are deferred by the memory, not
/// sequenced by tokens.
#[test]
fn sec63_istructures_overlap_reads_and_writes() {
    let parsed = parse_to_cfg(cf2df::lang::corpus::STENCIL).unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let mc = MachineConfig::unbounded().mem_latency(20);
    // The optimized construction lets each loop's tokens bypass the other
    // loops; memory elimination keeps inductions on value tokens. What
    // still serializes the loops is the arrays' access lines — exactly
    // what the I-structure conversion removes.
    let base = TranslateOptions::optimized().with_memory_elimination(true);
    let ist = base.clone().with_istructure_arrays(["src", "dst"]);
    let t_base = translate(&parsed.cfg, &parsed.alias, &base).unwrap();
    let t_ist = translate(&parsed.cfg, &parsed.alias, &ist).unwrap();
    assert!(t_ist.istructure_ops > 0);
    let o_base = run(&t_base.dfg, &layout, mc.clone()).unwrap();
    let o_ist = run(&t_ist.dfg, &layout, mc).unwrap();

    // Array values now live in I-structure memory; scalars stay ordinary.
    let vars = &parsed.cfg.vars;
    for name in ["src", "dst"] {
        let v = vars.lookup(name).unwrap();
        let base_cells =
            &o_base.memory[layout.base(v) as usize..(layout.base(v) + layout.cells(v)) as usize];
        let ist_cells =
            &o_ist.ist_memory[layout.base(v) as usize..(layout.base(v) + layout.cells(v)) as usize];
        assert_eq!(base_cells, ist_cells, "{name} contents preserved");
    }
    let checksum = vars.lookup("checksum").unwrap();
    assert_eq!(
        o_base.memory[layout.base(checksum) as usize],
        o_ist.memory[layout.base(checksum) as usize]
    );
    assert!(o_ist.stats.deferred_reads > 0, "reads overtook writes");
    assert!(
        o_ist.stats.makespan < o_base.stats.makespan,
        "loops overlap: {} vs {}",
        o_ist.stats.makespan,
        o_base.stats.makespan
    );
}

/// Footnote 3: multi-way branches. A `case` translates to one multi-way
/// switch per line that needs it; lines untouched by every arm bypass the
/// whole construct in the optimized translation, exactly as for binary
/// forks.
#[test]
fn footnote3_multiway_branches() {
    let src = "
        x := 1;
        sel := 2;
        case sel of {
            0 => { a := 10; }
            1 => { b := 20; }
            2 => { c := 30; }
            else => { d := 40; }
        }
        x := x + 100;
        total := a + b + c + d + x;
    ";
    let parsed = parse_to_cfg(src).unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let oracle =
        cf2df::machine::vonneumann::interpret(&parsed.cfg, &layout, &MachineConfig::default())
            .unwrap();
    // sel == 2: c := 30; total = 0+0+30+0+101 = 131.
    let total = parsed.cfg.vars.lookup("total").unwrap();
    assert_eq!(oracle.memory[layout.base(total) as usize], 131);

    let full = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let opt = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::optimized()).unwrap();
    for t in [&full, &opt] {
        let out = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(out.memory, oracle.memory);
        assert_eq!(out.stats.leftover_tokens, 0);
    }
    // Schema 2 switches every variable (7) at the case; the optimized
    // construction keeps only the arm-written lines (a, b, c, d) — x, sel,
    // and total bypass.
    assert_eq!(full.stats.switches, 7);
    assert_eq!(opt.stats.switches, 4);
    // The multi-way switch op really is multi-way (4 arms), not a chain of
    // binary switches.
    let case_ops = opt
        .dfg
        .op_ids()
        .filter(|&o| matches!(opt.dfg.kind(o), OpKind::CaseSwitch { arms: 4 }))
        .count();
    assert_eq!(case_ops, 4);
}

/// `figures_output.txt` is the `figures` binary's output, every report
/// in order, and is quoted by EXPERIMENTS.md: a fresh render must equal
/// it byte for byte, so the record cannot drift from the code.
#[test]
fn figures_output_matches_the_committed_record() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("figures_output.txt");
    let committed = std::fs::read_to_string(&path).unwrap();
    let fresh = cf2df::bench::figures::render(&cf2df::bench::figures::all_reports());
    if fresh == committed {
        return;
    }
    let (old, new): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), fresh.lines().collect());
    let differing = (0..old.len().max(new.len()))
        .filter(|&i| old.get(i) != new.get(i))
        .collect::<Vec<_>>();
    // No differing line means only line endings or the final newline differ.
    let first = differing.first().copied().unwrap_or(new.len());
    panic!(
        "figures_output.txt is stale: {} of {} lines differ; first at line {}:\n- {}\n+ {}\n\
         regenerate with `cargo run --release -p cf2df-bench --bin figures > figures_output.txt`, \
         then `git diff`",
        differing.len(),
        new.len(),
        first + 1,
        old.get(first).unwrap_or(&"(none)"),
        new.get(first).unwrap_or(&"(none)"),
    );
}
