//! Pipeline and analysis-cache behavior: invalidation when the CFG
//! mutates, the one-compute-per-revision discipline, graph-identity of
//! the pipeline against the same stages composed by hand, and the
//! per-stage records.
//!
//! The cache's stamp check (`debug_assert!` on a revision mismatch
//! inside every slot) runs live in this suite — a stale analysis
//! surviving an invalidation would panic any of these tests, not just
//! the ones asserting counters.

use cf2df::bench::workloads::{goto_soup, random_program, GenConfig};
use cf2df::cfg::loop_control::{insert_loop_control, split_irreducible};
use cf2df::cfg::{
    AliasStructure, AnalysisKind, Cfg, Cover, CoverStrategy, FunctionContext, LoopForest, Preserved,
};
use cf2df::core::pipeline::{translate, Schema, TranslateError, TranslateOptions};
use cf2df::core::source_vec::SourceVectors;
use cf2df::core::{lines::Lines, optimized, translator, SwitchPlacement};
use cf2df::dfg::Dfg;
use cf2df::lang::parse_to_cfg;
use cf2df::testkit;

const STRUCTURAL: [AnalysisKind; 6] = [
    AnalysisKind::Dominators,
    AnalysisKind::Postdominators,
    AnalysisKind::ControlDeps,
    AnalysisKind::LoopForest,
    AnalysisKind::TopoOrder,
    AnalysisKind::Preds,
];

fn warm_everything(fctx: &mut FunctionContext) {
    fctx.validate().unwrap();
    let _ = fctx.dominators();
    let _ = fctx.postdominators();
    let _ = fctx.control_deps();
    let _ = fctx.loop_forest().unwrap();
    let _ = fctx.topo_order().unwrap();
    let _ = fctx.preds();
}

/// Mutating the CFG through loop-control insertion invalidates every
/// structural analysis (each is recomputed exactly once on next access)
/// while the explicitly preserved validity analysis keeps serving hits.
#[test]
fn loop_control_insertion_invalidates_stale_analyses() {
    let cfgen = GenConfig {
        n_vars: 4,
        n_arrays: 1,
        block_len: 3,
        max_depth: 2,
        alias_percent: 0,
        max_trip: 3,
    };
    testkit::cases("cache_invalidation", 32, |rng| {
        let src = random_program(rng.next_u64(), &cfgen);
        let parsed = parse_to_cfg(&src).unwrap();
        let mut fctx = FunctionContext::new(parsed.cfg, parsed.alias);
        warm_everything(&mut fctx);
        let warm = fctx.stats();
        warm_everything(&mut fctx);
        assert_eq!(
            fctx.stats().since(&warm).total_computed(),
            0,
            "re-access on an unchanged CFG must be pure cache hits\n{src}"
        );

        let meta = insert_loop_control(&mut fctx).unwrap();
        if meta.forest.is_empty() {
            assert_eq!(fctx.revision(), 0, "acyclic: no mutation, no invalidation");
            return;
        }
        assert_eq!(fctx.revision(), 1, "one mutation, one revision bump");

        let before = fctx.stats();
        warm_everything(&mut fctx);
        let delta = fctx.stats().since(&before);
        for k in STRUCTURAL {
            assert_eq!(
                delta.computed_of(k),
                1,
                "{} must be recomputed after the CFG changed\n{src}",
                k.name()
            );
        }
        // Loop-control insertion only adds nodes on existing paths, so it
        // declares validity preserved: served from cache across the bump.
        assert_eq!(delta.computed_of(AnalysisKind::Validity), 0, "{src}");
        assert!(delta.hits_of(AnalysisKind::Validity) >= 1, "{src}");
    });
}

/// Node splitting replaces the CFG wholesale; even the memoized
/// irreducibility *failure* must not survive the revision bump.
#[test]
fn node_splitting_invalidates_the_memoized_failure() {
    testkit::cases("split_invalidation", 48, |rng| {
        let src = goto_soup(rng.next_u64(), 6);
        let Ok(parsed) = parse_to_cfg(&src) else {
            return;
        };
        let mut fctx = FunctionContext::for_cfg(parsed.cfg);
        if fctx.loop_forest().is_ok() {
            return; // only irreducible soups exercise the splitting path
        }
        // The failure is memoized: asking again is a hit, not a recompute.
        let before = fctx.stats();
        assert!(fctx.loop_forest().is_err());
        let delta = fctx.stats().since(&before);
        assert_eq!(delta.computed_of(AnalysisKind::LoopForest), 0, "{src}");
        assert!(delta.hits_of(AnalysisKind::LoopForest) >= 1, "{src}");

        let split = split_irreducible(fctx.cfg()).unwrap();
        fctx.replace_cfg(split, Preserved::NONE);
        assert_eq!(fctx.revision(), 1);
        let before = fctx.stats();
        fctx.loop_forest()
            .expect("split CFG is reducible; the stale Err must be gone");
        assert_eq!(
            fctx.stats()
                .since(&before)
                .computed_of(AnalysisKind::LoopForest),
            1,
            "{src}"
        );
        fctx.validate().unwrap();
    });
}

/// The acceptance gate: a full pipeline run (Schema 2/3 tokens, the §4
/// optimized construction, all §6 transforms) computes each analysis at
/// most once per CFG revision, on every corpus program.
#[test]
fn full_pipeline_computes_each_analysis_once_per_revision() {
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        for (label, opts) in [
            (
                "optimized",
                TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
            ),
            ("full", TranslateOptions::full_parallel_schema3()),
        ] {
            let t = translate(&parsed.cfg, &parsed.alias, &opts)
                .unwrap_or_else(|e| panic!("{name}/{label}: {e}"));
            for k in STRUCTURAL {
                assert!(
                    t.cache_stats.computed_of(k) <= t.revisions + 1,
                    "{name}/{label}: {} computed {} times over {} revisions",
                    k.name(),
                    t.cache_stats.computed_of(k),
                    t.revisions
                );
            }
            assert_eq!(
                t.cache_stats.computed_of(AnalysisKind::Validity),
                1,
                "{name}/{label}: validity is checked once and preserved"
            );
            assert!(
                t.cache_stats.total_hits() > 0,
                "{name}/{label}: stages must share analyses through the cache"
            );
        }
    }
}

/// The stages composed by hand, each on a fresh [`FunctionContext`] (the
/// uncached path): reducibility check with optional node splitting,
/// token lines, loop-control insertion, then the schema or optimized
/// construction.
fn reference_dfg(cfg: &Cfg, alias: &AliasStructure, opts: &TranslateOptions) -> Dfg {
    let strategy = match &opts.schema {
        Schema::One => CoverStrategy::SingleToken,
        Schema::Two => CoverStrategy::Singletons,
        Schema::Three(c) => c.clone(),
    };
    let working: Cfg = if LoopForest::compute(cfg).is_ok() {
        cfg.clone()
    } else {
        split_irreducible(cfg).unwrap()
    };
    let cover = Cover::build(&strategy, alias);
    let lines = Lines::new(&working.vars, alias, &cover, opts.eliminate_memory)
        .with_flat_synch(opts.flat_synch);
    let fresh = |cfg: &Cfg| FunctionContext::new(cfg.clone(), alias.clone());
    if !opts.loop_control {
        return translator::translate_full(&mut fresh(&working), &lines)
            .unwrap()
            .dfg;
    }
    let mut fctx = fresh(&working);
    let meta = insert_loop_control(&mut fctx).unwrap();
    let looped = fctx.into_cfg();
    if opts.optimized {
        let sp = SwitchPlacement::compute(&mut fresh(&looped), &meta, &lines);
        let sv = SourceVectors::compute(&mut fresh(&looped), &meta, &lines, &sp).unwrap();
        optimized::construct(&mut fresh(&looped), &lines, &sp, &sv)
            .unwrap()
            .dfg
    } else {
        translator::translate_full(&mut fresh(&looped), &lines)
            .unwrap()
            .dfg
    }
}

fn equivalence_configs() -> Vec<(&'static str, TranslateOptions)> {
    // Fusion is switched off: the hand-composed reference pipeline ends
    // at construction, and this test is about schema/pipeline
    // identity, not the post-certify machine-level coarsening.
    vec![
        ("schema1", TranslateOptions::schema1().with_fuse(false)),
        ("schema2", TranslateOptions::schema2().with_fuse(false)),
        (
            "schema3-singletons",
            TranslateOptions::schema3(CoverStrategy::Singletons).with_fuse(false),
        ),
        (
            "schema3-aliasclasses",
            TranslateOptions::schema3(CoverStrategy::AliasClasses).with_fuse(false),
        ),
        (
            "schema2-optimized",
            TranslateOptions::optimized().with_fuse(false),
        ),
        (
            "schema3-optimized",
            TranslateOptions::schema3(CoverStrategy::Singletons)
                .with_optimized(true)
                .with_fuse(false),
        ),
    ]
}

/// The pipeline emits a graph *identical* (same operators,
/// labels, and arcs, in the same order) to the hand-composed stage
/// sequence, across the full corpus × Schemas 1–3 × optimized on/off.
#[test]
fn pass_manager_is_graph_identical_to_composed_stages() {
    let corpus = cf2df::lang::corpus::all();
    let mut checked = 0;
    for (name, src) in &corpus {
        let parsed = parse_to_cfg(src).unwrap();
        for (label, opts) in equivalence_configs() {
            let t = match translate(&parsed.cfg, &parsed.alias, &opts) {
                Ok(t) => t,
                // Schema 2 legitimately rejects aliasing programs; the
                // schema3 configs cover those.
                Err(TranslateError::AliasingRequiresSchema3) => continue,
                Err(e) => panic!("{name}/{label}: {e}"),
            };
            let reference = reference_dfg(&parsed.cfg, &parsed.alias, &opts);
            assert_eq!(
                t.dfg.pretty(),
                reference.pretty(),
                "{name}/{label}: pipeline diverged from the composed stages"
            );
            checked += 1;
        }
    }
    assert!(
        checked >= corpus.len() * 4,
        "equivalence coverage fell short: only {checked} combinations"
    );
}

/// Same identity on random programs, beyond the fixed corpus.
#[test]
fn pass_manager_matches_composed_stages_on_random_programs() {
    let cfgen = GenConfig {
        n_vars: 4,
        n_arrays: 1,
        block_len: 3,
        max_depth: 2,
        alias_percent: 30,
        max_trip: 3,
    };
    testkit::cases("pass_mgr_equiv", 32, |rng| {
        let src = random_program(rng.next_u64(), &cfgen);
        let parsed = parse_to_cfg(&src).unwrap();
        for (label, opts) in [
            (
                "schema3",
                TranslateOptions::schema3(CoverStrategy::Singletons).with_fuse(false),
            ),
            (
                "schema3-optimized",
                TranslateOptions::schema3(CoverStrategy::Singletons)
                    .with_optimized(true)
                    .with_fuse(false),
            ),
        ] {
            let t = translate(&parsed.cfg, &parsed.alias, &opts)
                .unwrap_or_else(|e| panic!("{label}: {e}\n{src}"));
            let reference = reference_dfg(&parsed.cfg, &parsed.alias, &opts);
            assert_eq!(t.dfg.pretty(), reference.pretty(), "{label}\n{src}");
        }
    });
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Byte-identity pin for the per-stage records `--time-passes` prints.
/// Renders every record's stage name, analyses computed and served from
/// the cache, CFG nodes in and out and DFG operators in and out, plus
/// the whole translation's cache counters and revision count, for every
/// corpus program under the five configurations `cf2df validate corpus`
/// sweeps, and compares one digest of it all with a recorded value. A
/// change to the stages, their order, or the order in which they pull
/// analyses fails here; wall time is left out. On a mismatch the
/// rendering is written to the temp directory for diffing.
#[test]
fn stage_records_match_the_recorded_digest() {
    use std::fmt::Write as _;
    const EXPECTED: u64 = 0x1c16_a7e3_fcaf_3698;
    let configs = [
        ("schema1", TranslateOptions::schema1()),
        (
            "schema2",
            TranslateOptions::schema3(CoverStrategy::Singletons),
        ),
        (
            "schema3-alias",
            TranslateOptions::schema3(CoverStrategy::AliasClasses),
        ),
        (
            "optimized",
            TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
        ),
        ("full", TranslateOptions::full_parallel_schema3()),
    ];
    let mut out = String::new();
    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = parse_to_cfg(src).unwrap();
        for (label, opts) in &configs {
            let _ = writeln!(out, "== {name}/{label}");
            let t = translate(&parsed.cfg, &parsed.alias, opts)
                .unwrap_or_else(|e| panic!("{name}/{label}: {e}"));
            for r in &t.passes {
                let _ = writeln!(
                    out,
                    "{} computed {} hits {} nodes {}->{} ops {}->{}",
                    r.name,
                    r.analyses_computed,
                    r.cache_hits,
                    r.nodes_in,
                    r.nodes_out,
                    r.ops_in,
                    r.ops_out
                );
            }
            let _ = writeln!(out, "cache {:?} revisions {}", t.cache_stats, t.revisions);
        }
    }
    let digest = fnv1a(out.as_bytes());
    if digest != EXPECTED {
        let path = std::env::temp_dir().join("cf2df-stage-records.txt");
        let _ = std::fs::write(&path, &out);
        panic!(
            "stage-record digest {digest:#018x} != recorded {EXPECTED:#018x} ({} bytes rendered to {})",
            out.len(),
            path.display()
        );
    }
}
