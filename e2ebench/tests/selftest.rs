//! Self-test of the benchmark: determinism of its inputs and exact
//! counts, seed sensitivity, a quick run of every workload, and
//! agreement with the metric lists in the repository's `BENCHMARK.json`.

use cf2df_bench::json::{self, Json};
use cf2df_e2ebench::{end_to_end, oneshot, run_heavy, traced, Params, Workload};

fn quick(seed: u64, seconds: f64) -> Params {
    Params {
        seed,
        seconds,
        quick: true,
    }
}

/// Counts that must repeat exactly for a seed, whatever the timing.
const EXACT: [&str; 6] = [
    "oneshot.dfg.ops",
    "oneshot.core.analyses_computed",
    "oneshot.machine.tokens_processed",
    "run_heavy.machine.fired",
    "run_heavy.machine.tokens_processed",
    "serve_open.serve.tokens_per_req",
];

#[test]
fn same_seed_gives_same_programs_and_exact_counts() {
    assert_eq!(oneshot::programs(7, 300), oneshot::programs(7, 300));
    let (a, _) = traced(&quick(7, 0.3)).expect("traced run");
    let (b, _) = traced(&quick(7, 0.3)).expect("traced run");
    assert_eq!((a.failed, b.failed), (0, 0));
    for name in EXACT {
        let va = a
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(va > 0.0, "{name} is zero");
        assert_eq!(Some(va), b.metrics.get(name), "{name} differs between runs");
    }
}

#[test]
fn different_seed_changes_the_program_set() {
    let (a, b) = (oneshot::programs(7, 300), oneshot::programs(8, 300));
    assert_eq!(a.len(), 300);
    assert_ne!(a, b);
    let kinds = |ps: &[oneshot::Program], k| ps.iter().filter(|p| p.kind == k).count();
    for k in [
        oneshot::Kind::Random,
        oneshot::Kind::GotoSoup,
        oneshot::Kind::Corpus,
    ] {
        assert!(kinds(&a, k) > 0, "{k:?} missing from the mix");
    }
    // The executor workload's graphs are fixed; only its op order is
    // seeded.
    assert_eq!(run_heavy::sources(false), run_heavy::sources(false));
}

#[test]
fn quick_mode_runs_every_workload() {
    for w in Workload::ALL {
        let out = end_to_end(w, &quick(3, 0.05)).expect("quick run");
        assert!(out.attempted >= 1, "{}", w.name());
        assert_eq!(out.failed, 0, "{}", w.name());
        for m in [
            "setup_s",
            "p50_us",
            "p90_us",
            "throughput_per_s",
            "peak_rss_mb",
        ] {
            let v = out
                .metrics
                .get(m)
                .unwrap_or_else(|| panic!("{}: {m} missing", w.name()));
            assert!(v > 0.0, "{}: {m} = {v}", w.name());
        }
        let doc = json::parse(&out.to_json()).expect("result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    }
}

fn names(doc: &Json, list: &str) -> Vec<String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named metric")
                .to_owned()
        })
        .collect()
}

#[test]
fn runs_emit_exactly_the_declared_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");

    let e2e = end_to_end(Workload::ServeOpen, &quick(1, 0.05)).expect("quick run");
    assert_eq!(
        e2e.metrics.names().collect::<Vec<_>>(),
        names(&doc, "end_to_end")
    );

    let (layers, _) = traced(&quick(1, 0.3)).expect("traced run");
    assert_eq!(
        layers.metrics.names().collect::<Vec<_>>(),
        names(&doc, "per_layer")
    );

    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("named workload")
                .to_owned()
        })
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}
