//! Property-based tests over randomly generated programs and
//! control-flow graphs, on the deterministic in-house harness
//! [`cf2df::testkit`] (the workspace builds offline with zero external
//! crates, so proptest itself is not available). Enable the `proptest`
//! cargo feature for heavy mode — 8× the cases per suite.

use cf2df::bench::prng::Prng;
use cf2df::bench::workloads::{goto_soup, random_program, GenConfig};
use cf2df::cfg::loop_control::{insert_loop_control, split_irreducible};
use cf2df::cfg::postdom::{naive_dominator_sets, naive_postdominator_sets};
use cf2df::cfg::{
    between, Cfg, ControlDeps, Cover, CoverStrategy, DomTree, LoopForest, MemLayout, NodeId, Stmt,
};
use cf2df::core::lines::Lines;
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::core::source_vec::SourceVectors;
use cf2df::core::switch_place::{needs_switch_bruteforce, SwitchPlacement};
use cf2df::lang::parse_to_cfg;
use cf2df::machine::{run, vonneumann, MachineConfig};
use cf2df::testkit;

fn gen_config(rng: &mut Prng) -> GenConfig {
    GenConfig {
        n_vars: rng.range_usize(2, 6),
        n_arrays: rng.range_usize(0, 2),
        block_len: rng.range_usize(1, 5),
        max_depth: rng.range_usize(1, 3),
        alias_percent: rng.below(40) as u32,
        max_trip: 3,
    }
}

/// The fixed small shape used by the suites that need loops but bounded
/// state space.
fn small_config() -> GenConfig {
    GenConfig {
        n_vars: 4,
        n_arrays: 1,
        block_len: 3,
        max_depth: 2,
        alias_percent: 0,
        max_trip: 3,
    }
}

/// Theorem 1: `N` is between `F` and `ipostdom(F)` iff `F ∈ CD⁺(N)` —
/// checked by brute-force path search vs. the iterated worklist, on the
/// CFGs of random programs.
#[test]
fn theorem1_between_iff_iterated_cd() {
    testkit::cases("theorem1", 48, |rng| {
        let cfgen = gen_config(rng);
        let src = random_program(rng.next_u64(), &cfgen);
        let parsed = parse_to_cfg(&src).unwrap();
        let cfg = &parsed.cfg;
        let pd = DomTree::postdominators(cfg);
        let cd = ControlDeps::compute(cfg, &pd);
        for n in cfg.node_ids() {
            let closure = cd.iterated_single(n);
            for f in cfg.node_ids() {
                assert_eq!(
                    between(cfg, &pd, f, n),
                    closure[f.index()],
                    "Theorem 1 violated for F={f:?}, N={n:?}\n{src}"
                );
            }
        }
    });
}

/// The fast postdominator algorithm agrees with the quadratic set-based
/// reference.
#[test]
fn postdominators_match_naive() {
    testkit::cases("postdom_naive", 48, |rng| {
        let cfgen = gen_config(rng);
        let src = random_program(rng.next_u64(), &cfgen);
        let parsed = parse_to_cfg(&src).unwrap();
        let cfg = &parsed.cfg;
        let pd = DomTree::postdominators(cfg);
        let sets = naive_postdominator_sets(cfg);
        for a in cfg.node_ids() {
            for b in cfg.node_ids() {
                assert_eq!(pd.dominates(a, b), sets[b.index()][a.index()]);
            }
        }
    });
}

/// A random program or a goto soup of 2–8 blocks (often irreducible).
fn program_or_soup(rng: &mut Prng) -> String {
    if rng.below(2) == 0 {
        let cfgen = gen_config(rng);
        random_program(rng.next_u64(), &cfgen)
    } else {
        let blocks = rng.range_usize(2, 9);
        goto_soup(rng.next_u64(), blocks)
    }
}

/// Check a dominator tree against reference sets (`sets[n][m]` iff `m`
/// (post)dominates `n`): dominance, each node's idom (its deepest strict
/// dominator) and depth, and the children lists.
fn check_tree_against_sets(cfg: &Cfg, tree: &DomTree, sets: &[Vec<bool>], what: &str, src: &str) {
    let size = |v: NodeId| sets[v.index()].iter().filter(|&&b| b).count();
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); cfg.len()];
    for b in cfg.node_ids() {
        for a in cfg.node_ids() {
            assert_eq!(
                tree.dominates(a, b),
                sets[b.index()][a.index()],
                "{what}: dominates({a:?}, {b:?})\n{src}"
            );
        }
        let idom = cfg
            .node_ids()
            .filter(|&d| d != b && sets[b.index()][d.index()])
            .max_by_key(|&d| size(d));
        assert_eq!(tree.idom(b), idom, "{what}: idom({b:?})\n{src}");
        assert_eq!(
            tree.depth(b) as usize,
            size(b) - 1,
            "{what}: depth({b:?})\n{src}"
        );
        if let Some(d) = idom {
            children[d.index()].push(b);
        }
    }
    for a in cfg.node_ids() {
        assert_eq!(
            tree.children(a),
            &children[a.index()][..],
            "{what}: children({a:?})\n{src}"
        );
    }
}

/// Both dominator trees agree with the set-based references on the raw
/// CFGs of random programs and goto soups, irreducible ones included.
/// After node splitting, every loop of the forest is the natural loop of
/// its header's backedges (`a → h` with `h` dominating `a`, read off the
/// sets), and each node's innermost loop is the smallest one holding it.
#[test]
fn dominator_trees_and_loop_forest_match_set_references() {
    testkit::cases("dominators_naive", 48, |rng| {
        let src = program_or_soup(rng);
        let parsed = parse_to_cfg(&src).unwrap();
        let cfg = &parsed.cfg;
        let dom = naive_dominator_sets(cfg);
        check_tree_against_sets(cfg, &DomTree::dominators(cfg), &dom, "dominators", &src);
        let pdom = naive_postdominator_sets(cfg);
        check_tree_against_sets(
            cfg,
            &DomTree::postdominators(cfg),
            &pdom,
            "postdominators",
            &src,
        );

        let split = split_irreducible(cfg).unwrap();
        let dom = naive_dominator_sets(&split);
        let forest = LoopForest::compute(&split).unwrap();
        let preds = split.preds();
        let mut headers = 0;
        for h in split.node_ids() {
            let backedges: Vec<(NodeId, usize)> = split
                .edges()
                .filter(|&(a, _, to)| to == h && dom[a.index()][h.index()])
                .map(|(a, idx, _)| (a, idx))
                .collect();
            if backedges.is_empty() {
                continue;
            }
            headers += 1;
            // Natural loop: h plus the nodes reaching a backedge source
            // without passing through h.
            let mut in_body = vec![false; split.len()];
            in_body[h.index()] = true;
            let mut stack: Vec<NodeId> = Vec::new();
            for &(a, _) in &backedges {
                if !in_body[a.index()] {
                    in_body[a.index()] = true;
                    stack.push(a);
                }
            }
            while let Some(v) = stack.pop() {
                for &(p, _) in &preds[v.index()] {
                    if !in_body[p.index()] {
                        in_body[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
            let body: Vec<NodeId> = split.node_ids().filter(|v| in_body[v.index()]).collect();
            let (_, info) = forest
                .iter()
                .find(|(_, info)| info.header == h)
                .unwrap_or_else(|| panic!("no loop headed by {h:?}\n{src}"));
            assert_eq!(info.body, body, "body of the loop at {h:?}\n{src}");
            assert_eq!(
                info.backedges, backedges,
                "backedges of the loop at {h:?}\n{src}"
            );
        }
        assert_eq!(forest.len(), headers, "one loop per header\n{src}");
        for v in split.node_ids() {
            let innermost = forest
                .iter()
                .filter(|(_, info)| info.contains(v))
                .min_by_key(|(_, info)| info.body.len())
                .map(|(id, _)| id);
            assert_eq!(
                forest.innermost(v),
                innermost,
                "innermost loop of {v:?}\n{src}"
            );
        }
    });
}

/// A search loop appended to a random program over `n_vars` scalars: it
/// exits early from inside its body (or from an inner loop, past an
/// outer one) through an arm that writes a variable the body never
/// touches, as `binsearch` does. The fork on that arm needs a switch for
/// the variable's line, so circulation must grow past the lines the body
/// references.
fn early_exit_search(rng: &mut Prng, n_vars: usize) -> String {
    let (p, q) = (rng.range_usize(0, n_vars), rng.range_usize(0, n_vars));
    let bound = rng.range_usize(1, 6);
    let search = format!(
        "s := 0;\n\
         li:\n\
         if s > {bound} then {{ goto xi; }} else {{ skip; }}\n\
         if v{p} == s then {{ v{q} := s; goto xo; }} else {{ skip; }}\n\
         s := s + 1;\n\
         goto li;\n\
         xi:\n"
    );
    if rng.below(2) == 0 {
        format!("{search}xo:\nskip;\n")
    } else {
        format!(
            "o := 0;\nlo:\nif o > 2 then {{ goto xo; }} else {{ skip; }}\n\
             {search}o := o + 1;\ngoto lo;\nxo:\nskip;\n"
        )
    }
}

/// The production Fig 10 and Fig 11 on random programs (aliasing and
/// arrays, either cover, memory elimination on and off; half of them end
/// in an [`early_exit_search`]) and node-split goto soups, after loop
/// control:
/// - every fork's switches agree with Definition 1's path search under
///   the fixpoint reference sets;
/// - circulation is a fixpoint: it holds the lines referenced in the
///   body and switched at the body's forks, and is upward-closed over
///   the loop forest;
/// - every line reaches `end`;
/// - statement and switch sources are singletons.
#[test]
fn switch_placement_and_source_vectors_hold_on_random_programs() {
    testkit::cases("fig10_fig11", 48, |rng| {
        let src = if rng.below(4) == 0 {
            let blocks = rng.range_usize(2, 6);
            goto_soup(rng.next_u64(), blocks)
        } else {
            let mut cfgen = gen_config(rng);
            cfgen.alias_percent = 50;
            cfgen.n_arrays = rng.range_usize(1, 3);
            let mut src = random_program(rng.next_u64(), &cfgen);
            if rng.below(2) == 0 {
                src += &early_exit_search(rng, cfgen.n_vars);
            }
            src
        };
        let strategy = if rng.below(2) == 0 {
            CoverStrategy::Singletons
        } else {
            CoverStrategy::AliasClasses
        };
        let eliminate_memory = rng.below(2) == 0;
        let parsed = parse_to_cfg(&src).unwrap();
        let lc = insert_loop_control(&split_irreducible(&parsed.cfg).unwrap()).unwrap();
        let cover = Cover::build(&strategy, &parsed.alias);
        let lines = Lines::new(&lc.cfg.vars, &parsed.alias, &cover, eliminate_memory);
        let sp = SwitchPlacement::compute(&lc, &lines);
        let sv = SourceVectors::compute(&lc, &lines, &sp).unwrap();
        let cfg = &lc.cfg;
        let ctx = format!("{strategy:?} elim={eliminate_memory}\n{src}");
        let switchable = |f: NodeId| cfg.stmt(f).is_fork() && f != cfg.start();

        let refs = |n: NodeId| sp.refs(n).to_vec();
        for f in cfg.node_ids().filter(|&f| switchable(f)) {
            for l in lines.ids() {
                assert_eq!(
                    sp.needs_switch(f, l),
                    needs_switch_bruteforce(cfg, &refs, f, l),
                    "fork {f:?}, line {l:?}\n{ctx}"
                );
            }
        }

        let forest = &lc.meta.forest;
        for (lid, info) in forest.iter() {
            for l in lines.ids() {
                if !sp.circulates(lid.index(), l) {
                    let referenced = info.body.iter().any(|&b| sp.refs(b).contains(&l));
                    let switched = info
                        .body
                        .iter()
                        .any(|&b| switchable(b) && sp.needs_switch(b, l));
                    assert!(
                        !referenced && !switched,
                        "{lid:?} must circulate {l:?}\n{ctx}"
                    );
                } else if let Some(parent) = info.parent {
                    assert!(
                        sp.circulates(parent.index(), l),
                        "{l:?} circulates in {lid:?} but not in its parent {parent:?}\n{ctx}"
                    );
                }
            }
        }

        for l in lines.ids() {
            assert!(
                !sv.at(cfg.end(), l).is_empty(),
                "line {l:?} never reaches end\n{ctx}"
            );
        }
        for n in cfg.node_ids() {
            match cfg.stmt(n) {
                Stmt::Assign { .. } => {
                    for &l in sp.refs(n) {
                        assert_eq!(sv.at(n, l).len(), 1, "{n:?} line {l:?}\n{ctx}");
                    }
                }
                Stmt::Branch { .. } | Stmt::Case { .. } => {
                    for l in lines.ids().filter(|&l| sp.needs_switch(n, l)) {
                        assert_eq!(sv.at(n, l).len(), 1, "switch {n:?} line {l:?}\n{ctx}");
                    }
                }
                _ => {}
            }
        }
    });
}

/// Every schema computes the sequential semantics on random programs.
#[test]
fn schemas_match_sequential_semantics() {
    testkit::cases("schemas_vs_seq", 48, |rng| {
        let cfgen = gen_config(rng);
        let src = random_program(rng.next_u64(), &cfgen);
        let parsed = parse_to_cfg(&src).unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let mc = MachineConfig::unbounded();
        let oracle = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap();
        for opts in [
            TranslateOptions::schema1(),
            TranslateOptions::schema3(CoverStrategy::Singletons),
            TranslateOptions::schema3(CoverStrategy::AliasClasses),
            TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
            TranslateOptions::full_parallel_schema3(),
        ] {
            let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
            let out = run(&t.dfg, &layout, mc.clone()).unwrap();
            assert_eq!(&out.memory, &oracle.memory, "{opts:?}\n{src}");
            assert_eq!(out.stats.leftover_tokens, 0);
        }
    });
}

/// Schema 3 graphs remain correct under every random consistent binding
/// of the alias structure (names sharing locations).
#[test]
fn schema3_sound_for_random_bindings() {
    testkit::cases("schema3_bindings", 48, |rng| {
        let mut cfgen = gen_config(rng);
        cfgen.alias_percent = 50;
        cfgen.n_arrays = 2; // arrays share a length, so they may bind too
        let src = random_program(rng.next_u64(), &cfgen);
        let pick = rng.next_u64();
        let parsed = parse_to_cfg(&src).unwrap();
        let bindings = parsed.alias.consistent_bindings();
        if bindings.is_empty() {
            return; // nothing to bind — vacuous case
        }
        let binding = &bindings[(pick as usize) % bindings.len()];
        let layout = MemLayout::with_binding(&parsed.cfg.vars, binding);
        let mc = MachineConfig::unbounded();
        let oracle = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap();
        for opts in [
            TranslateOptions::schema3(CoverStrategy::Singletons),
            TranslateOptions::schema3(CoverStrategy::AliasClasses),
            TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
        ] {
            let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
            let out = run(&t.dfg, &layout, mc.clone()).unwrap();
            assert_eq!(
                &out.memory, &oracle.memory,
                "binding {binding:?} under {opts:?}\n{src}"
            );
        }
    });
}

/// The optimized construction never emits a redundant switch, and its
/// switch count never exceeds the full translation's.
#[test]
fn optimized_switches_are_minimal() {
    testkit::cases("opt_switches", 48, |rng| {
        let cfgen = gen_config(rng);
        let src = random_program(rng.next_u64(), &cfgen);
        let parsed = parse_to_cfg(&src).unwrap();
        let full = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema3(CoverStrategy::Singletons),
        )
        .unwrap();
        let opt = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
        )
        .unwrap();
        assert!(cf2df::dfg::validate::redundant_switches(&opt.dfg).is_empty());
        assert!(opt.stats.switches <= full.stats.switches);
        assert!(opt.stats.ops <= full.stats.ops);
    });
}

/// Makespan is monotone in processor count, and the unbounded machine is
/// a lower bound.
#[test]
fn makespan_monotone_in_processors() {
    testkit::cases("makespan_monotone", 48, |rng| {
        let src = random_program(rng.next_u64(), &small_config());
        let parsed = parse_to_cfg(&src).unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema3(CoverStrategy::Singletons),
        )
        .unwrap();
        let unbounded = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
        let p4 = run(&t.dfg, &layout, MachineConfig::with_processors(4)).unwrap();
        let p1 = run(&t.dfg, &layout, MachineConfig::with_processors(1)).unwrap();
        assert!(unbounded.stats.makespan <= p4.stats.makespan);
        assert!(p4.stats.makespan <= p1.stats.makespan);
        assert_eq!(&unbounded.memory, &p1.memory);
        assert_eq!(&unbounded.memory, &p4.memory);
        // Work is schedule-invariant.
        assert_eq!(unbounded.stats.fired, p1.stats.fired);
    });
}

/// Loop-control insertion preserves the sequential semantics observed by
/// the interpreter (joins/loop nodes are transparent). Node splitting on
/// irreducible graphs is covered by `goto_soup_survives_node_splitting`.
#[test]
fn loop_control_transparent_to_baseline() {
    testkit::cases("loop_control_transparent", 48, |rng| {
        let cfgen = gen_config(rng);
        let src = random_program(rng.next_u64(), &cfgen);
        let parsed = parse_to_cfg(&src).unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let mc = MachineConfig::default();
        let before = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap();
        let lc = cf2df::cfg::loop_control::insert_loop_control(&parsed.cfg).unwrap();
        let after = vonneumann::interpret(&lc.cfg, &layout, &mc).unwrap();
        assert_eq!(before.memory, after.memory);
    });
}

/// Unstructured "goto soup" programs — frequently irreducible — go
/// through node splitting (the paper's code-copying remedy) and every
/// schema, and still compute the sequential semantics.
#[test]
fn goto_soup_survives_node_splitting() {
    testkit::cases("goto_soup_split", 40, |rng| {
        let blocks = rng.range_usize(3, 8);
        let src = goto_soup(rng.next_u64(), blocks);
        let parsed = parse_to_cfg(&src).unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let mc = MachineConfig::unbounded();
        let oracle = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap();
        for opts in [
            TranslateOptions::schema1(),
            TranslateOptions::schema3(CoverStrategy::Singletons),
            TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
            TranslateOptions::full_parallel_schema3(),
        ] {
            let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
            let out = run(&t.dfg, &layout, mc.clone()).unwrap();
            assert_eq!(&out.memory, &oracle.memory, "{opts:?}\n{src}");
        }
    });
}

/// Node splitting really is exercised: a healthy share of the soup is
/// irreducible before splitting.
#[test]
fn goto_soup_is_sometimes_irreducible() {
    let mut irreducible = 0usize;
    let mut total = 0usize;
    for s in 0..60u64 {
        let src = goto_soup(s, 6);
        let parsed = parse_to_cfg(&src).unwrap();
        total += 1;
        if cf2df::cfg::LoopForest::compute(&parsed.cfg).is_err() {
            irreducible += 1;
        }
    }
    assert!(
        irreducible * 5 >= total,
        "only {irreducible}/{total} irreducible — generator too tame"
    );
}

/// The textual graph format round-trips every graph the translator
/// produces, and the reloaded graph executes identically.
#[test]
fn graph_text_format_round_trips() {
    testkit::cases("io_round_trip", 32, |rng| {
        let cfgen = gen_config(rng);
        let src = random_program(rng.next_u64(), &cfgen);
        let parsed = parse_to_cfg(&src).unwrap();
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema3(CoverStrategy::Singletons),
        )
        .unwrap();
        let text = cf2df::dfg::io::write_module(&t.dfg, &t.cfg.vars);
        let (g2, vars2) = cf2df::dfg::io::read_module(&text).unwrap();
        assert_eq!(g2.len(), t.dfg.len());
        assert_eq!(g2.arc_count(), t.dfg.arc_count());
        let layout = MemLayout::distinct(&vars2);
        let a = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
        let b = run(&g2, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.stats.fired, b.stats.fired);
        assert_eq!(a.stats.makespan, b.stats.makespan);
    });
}

/// The io format also round-trips fully-transformed graphs (gates,
/// prev-iter/iter-index, I-structure ops included).
#[test]
fn io_round_trips_transformed_graphs() {
    testkit::cases("io_round_trip_full", 24, |rng| {
        let src = random_program(rng.next_u64(), &small_config());
        let parsed = parse_to_cfg(&src).unwrap();
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::full_parallel_schema3(),
        )
        .unwrap();
        let text = cf2df::dfg::io::write_module(&t.dfg, &t.cfg.vars);
        let (g2, vars2) = cf2df::dfg::io::read_module(&text).unwrap();
        let layout = MemLayout::distinct(&vars2);
        let a = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
        let b = run(&g2, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.stats.makespan, b.stats.makespan);
    });
}

/// Allen–Cocke intervals agree with the loop structure on reducible
/// graphs: every natural-loop header heads an interval, and each loop
/// body is contained in its header's interval.
#[test]
fn interval_partition_matches_loop_structure() {
    use cf2df::cfg::intervals::interval_partition;
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        let forest = cf2df::cfg::LoopForest::compute(&parsed.cfg).unwrap();
        let parts = interval_partition(&parsed.cfg);
        for (_, info) in forest.iter() {
            let part = parts
                .iter()
                .find(|p| p.header == info.header)
                .unwrap_or_else(|| panic!("{name}: loop header not an interval header"));
            for &b in &info.body {
                // A nested inner loop's body sits in the inner header's
                // interval; only the outermost containing loop's body is
                // guaranteed to share its header's interval. Check the
                // weaker, always-true property: the node is in *some*
                // interval whose header is in this loop's body or is this
                // header.
                let holder = parts.iter().find(|p| p.contains(b)).unwrap();
                assert!(
                    holder.header == info.header || info.contains(holder.header),
                    "{name}: node {b:?} in a foreign interval"
                );
            }
            let _ = part;
        }
    }
}

/// The derived sequence of Allen–Cocke interval graphs is a reducibility
/// oracle independent of the dominator-based loop forest: it ends in one
/// node exactly when `LoopForest::compute` succeeds, on goto soups (often
/// irreducible) and random structured programs, and it ends in one node
/// on every graph node splitting returns.
#[test]
fn derived_sequence_decides_reducibility() {
    use cf2df::cfg::intervals::derived_sequence;
    let agree = |cfg: &Cfg, src: &str| {
        let limit = *derived_sequence(cfg).last().expect("G0 is in the sequence");
        assert_eq!(
            limit == 1,
            LoopForest::compute(cfg).is_ok(),
            "limit graph of {limit} nodes\n{src}"
        );
    };
    testkit::cases("derived_sequence_goto_soup", 60, |rng| {
        let blocks = rng.range_usize(2, 8);
        let src = goto_soup(rng.next_u64(), blocks);
        let parsed = parse_to_cfg(&src).unwrap();
        agree(&parsed.cfg, &src);
        if let Ok(split) = split_irreducible(&parsed.cfg) {
            assert_eq!(derived_sequence(&split).last(), Some(&1), "split\n{src}");
        }
    });
    testkit::cases("derived_sequence_random", 40, |rng| {
        let cfgen = gen_config(rng);
        let src = random_program(rng.next_u64(), &cfgen);
        agree(&parse_to_cfg(&src).unwrap().cfg, &src);
    });
}

/// Goto-form emission round-trips the semantics of random programs.
#[test]
fn emitted_source_preserves_random_semantics() {
    testkit::cases("emit_round_trip", 32, |rng| {
        let cfgen = gen_config(rng);
        let src = random_program(rng.next_u64(), &cfgen);
        let parsed = parse_to_cfg(&src).unwrap();
        let emitted = cf2df::lang::emit::emit_goto_form(&parsed.cfg);
        let reparsed = parse_to_cfg(&emitted).unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let mc = MachineConfig::default();
        let a = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap();
        let b = vonneumann::interpret(&reparsed.cfg, &layout, &mc).unwrap();
        assert_eq!(a.memory, b.memory, "{src}\n-- emitted --\n{emitted}");
    });
}

/// The threaded executor agrees with the simulator on random programs.
/// (The full corpus at 1/2/4/8 workers is covered by
/// `tests/parallel_equivalence.rs`.)
#[test]
fn threaded_executor_matches_on_random_programs() {
    testkit::cases("threaded_random", 32, |rng| {
        let src = random_program(rng.next_u64(), &small_config());
        let parsed = parse_to_cfg(&src).unwrap();
        let layout = MemLayout::distinct(&parsed.cfg.vars);
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema3(CoverStrategy::Singletons),
        )
        .unwrap();
        let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
        let par = cf2df::machine::parallel::run_threaded(&t.dfg, &layout, 3).unwrap();
        assert_eq!(par.memory, sim.memory);
        assert_eq!(par.fired, sim.stats.fired);
    });
}

/// The io parser never panics on arbitrary input — it either parses or
/// returns a structured error.
#[test]
fn io_parser_is_total() {
    testkit::cases("io_total", 256, |rng| {
        let input = testkit::junk_string(rng, 200);
        let _ = cf2df::dfg::io::read_text(&input);
        let _ = cf2df::dfg::io::read_module(&input);
    });
}

/// Nor on line-structured junk resembling the format.
#[test]
fn io_parser_survives_formatish_junk() {
    const CHARS: &[&str] = &[
        "0", "1", "2", "7", "9", "a", "b", "f", "x", "z", " ", ".", ">", "=", "-",
    ];
    testkit::cases("io_formatish", 256, |rng| {
        let n_lines = rng.range_usize(0, 12);
        let lines: Vec<String> = (0..n_lines)
            .map(|_| {
                let prefix = *rng.pick(&["op ", "arc ", "var ", ""]);
                format!("{prefix}{}", testkit::token_junk(rng, CHARS, 20, ""))
            })
            .collect();
        let input = format!("dfg v1\n{}", lines.join("\n"));
        let _ = cf2df::dfg::io::read_text(&input);
        let _ = cf2df::dfg::io::read_module(&input);
    });
}

/// The language front end is total: arbitrary text either parses to a
/// valid CFG or returns a structured error — never a panic.
#[test]
fn front_end_is_total() {
    testkit::cases("front_end_total", 256, |rng| {
        let input = testkit::junk_string(rng, 200);
        let _ = parse_to_cfg(&input);
    });
}

/// Imp-looking junk too.
#[test]
fn front_end_survives_impish_junk() {
    const TOKS: &[&str] = &[
        "x", "y", "if", "then", "else", "while", "do", "goto", "skip", "array",
        "alias", ":=", ";", "{", "}", "0", "7", "12", "100", "999", "+", "<",
        "~", "[", "]",
    ];
    testkit::cases("front_end_impish", 256, |rng| {
        let input = testkit::token_junk(rng, TOKS, 40, " ");
        let _ = parse_to_cfg(&input);
    });
}
