//! Integration tests for the static translation validator.
//!
//! Three obligations from the certify design:
//!
//! 1. The unmutated corpus certifies 100% clean across the full option
//!    matrix (Schemas 1–3, both cover strategies, optimized construction
//!    off and on, full parallelization).
//! 2. The seeded mutation harness detects every injected translator-bug
//!    class, and each detection reports a defect variant the class is
//!    expected to produce — a `drop-arc` caught only as, say, a tag leak
//!    would mean the checker fired for the wrong reason.
//! 3. A graph whose loop exit was deleted is rejected *statically*: it
//!    passes structural validation (so pre-certify tooling would have
//!    handed it to the machine, which leaks the iteration tag) but the
//!    certifier refuses it before anything runs.

use cf2df::cfg::CoverStrategy;
use cf2df::core::pipeline::{translate, TranslateError, TranslateOptions};
use cf2df::dfg::{certify, mutate, validate, DefectKind, MutationClass};

/// The certification matrix: Schemas 1–3 × optimized off/on.
fn matrix() -> Vec<(&'static str, TranslateOptions)> {
    vec![
        ("schema1", TranslateOptions::schema1()),
        ("schema2", TranslateOptions::schema3(CoverStrategy::Singletons)),
        (
            "schema3-alias",
            TranslateOptions::schema3(CoverStrategy::AliasClasses),
        ),
        (
            "optimized",
            TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
        ),
        ("full", TranslateOptions::full_parallel_schema3()),
    ]
}

#[test]
fn unmutated_corpus_certifies_clean_across_the_matrix() {
    let mut certified = 0;
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = cf2df::lang::parse_to_cfg(src).unwrap();
        for (label, opts) in matrix() {
            let t = translate(&parsed.cfg, &parsed.alias, &opts)
                .unwrap_or_else(|e| panic!("{name}/{label}: {e}"));
            let report = t
                .certify
                .unwrap_or_else(|| panic!("{name}/{label}: certify pass did not run"));
            assert!(report.is_clean(), "{name}/{label}: {report}");
            certified += 1;
        }
    }
    assert!(certified >= 75, "corpus matrix shrank to {certified} cells");
}

/// Certify-after-fuse: the pipeline certifies the graph the schemas
/// produced and *then* fuses, so re-running the certifier on the final
/// fused graph checks that macro-op fusion preserves every token-rate
/// obligation — compound `Macro` actors as ordinary strict operators,
/// fused `LoopSwitch` pairs unifying with unfused switches of the same
/// predicate fork.
#[test]
fn fused_corpus_graphs_recertify_clean_across_the_matrix() {
    use cf2df::dfg::OpKind;
    let (mut macros, mut pairs) = (0usize, 0usize);
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = cf2df::lang::parse_to_cfg(src).unwrap();
        for (label, opts) in matrix() {
            let t = translate(&parsed.cfg, &parsed.alias, &opts)
                .unwrap_or_else(|e| panic!("{name}/{label}: {e}"));
            certify(&t.dfg).unwrap_or_else(|defects| {
                panic!("{name}/{label}: fused graph no longer certifies: {defects:?}")
            });
            for op in t.dfg.op_ids() {
                match t.dfg.kind(op) {
                    OpKind::Macro { .. } => macros += 1,
                    OpKind::LoopSwitch { .. } => pairs += 1,
                    _ => {}
                }
            }
        }
    }
    assert!(macros > 0, "no corpus graph grew a macro — vacuous test");
    assert!(pairs > 0, "no corpus graph fused a loop-entry/switch pair");
}

/// Defect variants each mutation class is expected to surface as. A
/// detection outside this set means the checker tripped over collateral
/// damage rather than the injected bug.
fn expected_variants(class: MutationClass) -> &'static [DefectKind] {
    match class {
        // A dropped arc starves a port (structural / dead input), breaks a
        // rendezvous rate, unbalances a merge family, or severs a loop's
        // backedge or exit coverage.
        MutationClass::DropArc => &[
            DefectKind::Structural,
            DefectKind::DeadInput,
            DefectKind::RateMismatch,
            DefectKind::ConditionalEnd,
            DefectKind::BackedgeGap,
            DefectKind::DroppedToken,
            DefectKind::TagLeak,
        ],
        // A retargeted switch output delivers under the wrong guard:
        // colliding or mismatched contexts downstream, a loop exit that no
        // longer contradicts its backedge, an uncovered iteration context,
        // or an emptied arm that now silently drops its tokens.
        MutationClass::RetargetSwitchOutput => &[
            DefectKind::DroppedToken,
            DefectKind::MergeCollision,
            DefectKind::RateMismatch,
            DefectKind::DeadInput,
            DefectKind::UngatedLoopExit,
            DefectKind::UnguardedBackedge,
            DefectKind::BackedgeGap,
            DefectKind::ConditionalEnd,
        ],
        // Without its exit the loop's iteration tag survives outward, the
        // backedge loses coverage, and downstream rendezvous see tagged
        // against untagged contexts.
        MutationClass::DeleteLoopExit => &[
            DefectKind::TagLeak,
            DefectKind::MissingLoopTag,
            DefectKind::BackedgeGap,
            DefectKind::UnguardedBackedge,
            DefectKind::RateMismatch,
            DefectKind::ConditionalEnd,
            DefectKind::UngatedCycle,
        ],
        // A merge demoted to a strict rendezvous has several arcs into one
        // strict port — a structural defect (or a rate/collision one when
        // structure alone cannot tell).
        MutationClass::SwapMergeForStrict => &[
            DefectKind::Structural,
            DefectKind::RateMismatch,
            DefectKind::MergeCollision,
        ],
    }
}

#[test]
fn mutation_harness_detects_every_class_with_an_expected_variant() {
    let mut applied_per_class = [0usize; MutationClass::ALL.len()];
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = cf2df::lang::parse_to_cfg(src).unwrap();
        for (label, opts) in matrix() {
            let t = translate(&parsed.cfg, &parsed.alias, &opts)
                .unwrap_or_else(|e| panic!("{name}/{label}: {e}"));
            for (ci, class) in MutationClass::ALL.into_iter().enumerate() {
                for seed in 0..4u64 {
                    let mut g = t.dfg.clone();
                    let Some(m) = mutate(&mut g, class, seed) else {
                        continue;
                    };
                    applied_per_class[ci] += 1;
                    let defects = certify(&g).expect_err(&format!(
                        "{name}/{label}: {} seed {seed} undetected: {}",
                        class.name(),
                        m.description
                    ));
                    assert!(
                        defects
                            .iter()
                            .any(|d| expected_variants(class).contains(&d.kind)),
                        "{name}/{label}: {} seed {seed} ({}) detected only as {:?}",
                        class.name(),
                        m.description,
                        defects.iter().map(|d| d.kind).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
    for (ci, class) in MutationClass::ALL.into_iter().enumerate() {
        assert!(
            applied_per_class[ci] > 0,
            "{}: no corpus graph offered a mutation site",
            class.name()
        );
    }
}

#[test]
fn missing_loop_exit_is_rejected_statically_not_at_runtime() {
    // Any looping corpus program will do; gcd is the smallest.
    let parsed = cf2df::lang::parse_to_cfg(
        cf2df::lang::corpus::all()
            .iter()
            .find(|(n, _)| *n == "gcd")
            .expect("gcd is in the corpus")
            .1,
    )
    .unwrap();
    let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let mut g = t.dfg.clone();
    let m = mutate(&mut g, MutationClass::DeleteLoopExit, 0).expect("gcd has a loop exit");

    // Structural validation alone accepts the graph — this bug class used
    // to reach the simulator, which stalls or leaks the iteration tag.
    validate(&g).unwrap_or_else(|e| {
        panic!("structural validate should accept the mutant ({}): {e:?}", m.description)
    });
    // The certifier rejects it statically, as a tag leak.
    let defects = certify(&g).expect_err("deleted loop exit must not certify");
    assert!(
        defects.iter().any(|d| matches!(
            d.kind,
            DefectKind::TagLeak | DefectKind::MissingLoopTag
        )),
        "expected a tag-leak defect, got {defects:?}"
    );
}

#[test]
fn certify_report_renders_machine_readable_json() {
    let parsed = cf2df::lang::parse_to_cfg("x := 1; y := x + 2;").unwrap();
    let t = translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).unwrap();
    let json = t.certify.expect("certify ran").to_json();
    assert!(json.starts_with("{\"clean\":true"), "unexpected JSON: {json}");
    assert!(json.contains("\"memory_pairs_checked\":"), "unexpected JSON: {json}");
}

/// Source of `n` sequential `while` loops: `n` distinct loop ids, so a
/// cube's loop mask spans more than one 64-bit word once `n > 64`.
fn sequential_whiles(n: usize) -> String {
    let mut s = String::from("s := 0;\n");
    for _ in 0..n {
        s.push_str("i := 0;\nwhile i < 2 do { i := i + 1; s := s + i; }\n");
    }
    s
}

/// Source of `n` sequential `if`s: `n` distinct predicate forks, so `n`
/// guard keys and a guard mask wider than one word once `n > 64`.
fn sequential_ifs(n: usize) -> String {
    let mut s = String::from("x := 3;\n");
    for k in 0..n {
        s.push_str(&format!(
            "if x < {k} then {{ y := y + x; }} else {{ z := z + 1; }}\n"
        ));
    }
    s
}

/// Every program the certifier digest covers: the corpus, seeded random
/// programs, small goto soups (irreducible, so node splitting runs), and
/// the two inputs wider than one 64-bit word of loops or guards.
fn digest_inputs() -> Vec<(String, String)> {
    use cf2df::bench::workloads::{goto_soup, random_program, GenConfig};
    let mut out: Vec<(String, String)> = cf2df::lang::corpus::all()
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    for seed in 0..16u64 {
        out.push((format!("random{seed}"), random_program(seed, &GenConfig::default())));
    }
    for blocks in 2..=4 {
        for seed in 0..4u64 {
            out.push((format!("goto{blocks}-{seed}"), goto_soup(seed, blocks)));
        }
    }
    out.push(("whiles70".into(), sequential_whiles(70)));
    out.push(("ifs70".into(), sequential_ifs(70)));
    out
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The abstract context of every operator and output port, then every
/// defect with its witness.
fn render_analysis(out: &mut String, g: &cf2df::dfg::Dfg) {
    use std::fmt::Write as _;
    let an = cf2df::dfg::certify::analyze(g);
    for op in g.op_ids() {
        let _ = write!(out, "{op:?}: {}", an.firing(op));
        for p in 0..g.kind(op).n_outputs() {
            let port = cf2df::dfg::Port::new(op, p);
            let _ = write!(out, " | {}", an.out_ctx(port));
        }
        out.push('\n');
    }
    render_defects(out, &an.defects);
}

fn render_defects(out: &mut String, defects: &[cf2df::dfg::Defect]) {
    use std::fmt::Write as _;
    for d in defects {
        let _ = writeln!(out, "{d}");
    }
}

/// Byte-identity pin for the certifier. Renders, for every digest input
/// under every cell of the `validate` matrix, the pipeline's certify
/// report (text and JSON), the token-rate analysis of the final graph,
/// and the defects of each of its seeded mutants (4 classes × seeds
/// 0–3), and compares one digest of it all with a value recorded from
/// an earlier certifier. Verdicts, defect kinds and order, rendered
/// contexts (whose cube order is the sets' canonical order), witnesses
/// and the pair/switch counters all feed the digest, so any change to
/// what certify reports fails here. On a mismatch the rendering is
/// written to the temp directory for diffing.
#[test]
fn certifier_output_matches_the_recorded_digest() {
    use std::fmt::Write as _;
    const EXPECTED: u64 = 0xb694_a9b4_2388_4892;
    let mut out = String::new();
    for (name, src) in digest_inputs() {
        let parsed = cf2df::lang::parse_to_cfg(&src).unwrap();
        for (label, opts) in matrix() {
            let _ = writeln!(out, "== {name}/{label}");
            let t = match translate(&parsed.cfg, &parsed.alias, &opts) {
                Ok(t) => t,
                Err(TranslateError::Certify(report)) => {
                    let _ = writeln!(out, "{report}\n{}", report.to_json());
                    continue;
                }
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                    continue;
                }
            };
            let report = t.certify.expect("certify ran");
            let _ = writeln!(out, "{report}\n{}", report.to_json());
            render_analysis(&mut out, &t.dfg);
            for class in MutationClass::ALL {
                for seed in 0..4u64 {
                    let mut g = t.dfg.clone();
                    if let Some(m) = mutate(&mut g, class, seed) {
                        let _ = writeln!(out, "-- {} {seed}: {}", class.name(), m.description);
                        match certify(&g) {
                            Ok(()) => out.push_str("undetected\n"),
                            Err(defects) => render_defects(&mut out, &defects),
                        }
                    }
                }
            }
        }
    }
    let digest = fnv1a(out.as_bytes());
    if digest != EXPECTED {
        let path = std::env::temp_dir().join("cf2df-certify-digest.txt");
        let _ = std::fs::write(&path, &out);
        panic!(
            "certifier digest {digest:#018x} != recorded {EXPECTED:#018x} ({} bytes rendered to {})",
            out.len(),
            path.display()
        );
    }
}

/// The translated graph and its bookkeeping, as text: every operator's
/// kind, immediates and label; every arc in arc order; the `LineOps`
/// tables sorted by key; and the §6 and fusion counters.
fn render_translation(out: &mut String, t: &cf2df::core::pipeline::Translated) {
    use std::fmt::Write as _;
    let g = &t.dfg;
    for op in g.op_ids() {
        let _ = writeln!(
            out,
            "{op:?} {:?} {:?} {:?}",
            g.kind(op),
            g.imms(op),
            g.label(op)
        );
    }
    for a in g.arcs() {
        let _ = writeln!(
            out,
            "{:?}.{} -> {:?}.{} {:?}",
            a.from.op, a.from.port, a.to.op, a.to.port, a.kind
        );
    }
    let sorted = |m: &std::collections::HashMap<_, cf2df::dfg::OpId>| {
        let mut v: Vec<_> = m.iter().map(|(&(n, l), &op)| (n, l, op)).collect();
        v.sort_unstable();
        v
    };
    for (name, table) in [
        ("loop-entries", &t.ops.loop_entries),
        ("loop-exits", &t.ops.loop_exits),
        ("switches", &t.ops.switches),
    ] {
        let _ = write!(out, "{name}:");
        for (n, l, op) in sorted(table) {
            let _ = write!(out, " {n:?}/{l:?}={op:?}");
        }
        out.push('\n');
    }
    let mut node_ops: Vec<_> = t.ops.node_ops.iter().map(|(&n, &p)| (n, p)).collect();
    node_ops.sort_unstable();
    let _ = writeln!(out, "node-ops: {node_ops:?}");
    let _ = writeln!(
        out,
        "cleaned {} fused {}/{} forwarded {} read-chains {} array-sites {}",
        t.ops_cleaned,
        t.chains_fused,
        t.ops_fused,
        t.stores_forwarded,
        t.read_chains_parallelized,
        t.array_sites_parallelized
    );
}

/// Byte-identity pin for the translation output. Renders the final graph
/// (operators, immediates, labels and arcs in order), the sorted
/// `LineOps` and the rewrite counters for every digest input under every
/// cell of the `validate` matrix plus `full` with fusion off, and
/// compares one digest of it all with a value recorded from an earlier
/// pipeline. Arc order is part of the output: certify's digest and the
/// mutation harness both see it, so a graph rewrite must reproduce it
/// exactly. On a mismatch the rendering is written to the temp
/// directory for diffing.
#[test]
fn translation_output_matches_the_recorded_digest() {
    use std::fmt::Write as _;
    const EXPECTED: u64 = 0x2327_04f3_7eb5_161a;
    let mut configs = matrix();
    configs.push((
        "full-unfused",
        TranslateOptions::full_parallel_schema3().with_fuse(false),
    ));
    let mut out = String::new();
    for (name, src) in digest_inputs() {
        let parsed = cf2df::lang::parse_to_cfg(&src).unwrap();
        for (label, opts) in &configs {
            let _ = writeln!(out, "== {name}/{label}");
            match translate(&parsed.cfg, &parsed.alias, opts) {
                Ok(t) => render_translation(&mut out, &t),
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            }
        }
    }
    let digest = fnv1a(out.as_bytes());
    if digest != EXPECTED {
        let path = std::env::temp_dir().join("cf2df-translation-digest.txt");
        let _ = std::fs::write(&path, &out);
        panic!(
            "translation digest {digest:#018x} != recorded {EXPECTED:#018x} ({} bytes rendered to {})",
            out.len(),
            path.display()
        );
    }
}
