//! The bench gate behind `cf2df check-bench`: one table, [`GATES`], says
//! for each artifact kind how its rows are keyed, which of their fields
//! are deterministic counters, and which gates a single run decides.
//!
//! Two artifacts of one kind compare equal only when every gated counter
//! is equal, row by row. A decrease fails as an increase does, and a row
//! present on only one side fails, so a change that moves a counter
//! regenerates the committed quick baseline and the move shows in
//! review. Wall-clock fields are never compared across runs: two runs of
//! one binary on a shared host differ by more than any tolerance that
//! could still catch a regression. Timing across commits is judged only
//! in alternating pairs of the end-to-end benchmark.
//!
//! The two gates that need no committed baseline are table entries too:
//! [`Fusion`] compares a fused artifact with its unfused twin, and
//! [`Multiplexing`] compares two arms of one throughput artifact.

use crate::artifacts::validate_artifact;
use crate::json::{self, Json};
use std::collections::BTreeMap;

/// Where one set of an artifact kind's rows sits, what names a row, and
/// which of its fields must be equal.
#[derive(Debug)]
pub struct Rows {
    /// The array under each workload entry that holds the rows; `None`
    /// makes each workload entry one row.
    pub array: Option<&'static str>,
    /// Fields that name a row within its workload.
    pub key: &'static [&'static str],
    /// Deterministic counters that must be equal; `a.b` names field `b`
    /// of the object in field `a`.
    pub exact: &'static [&'static str],
}

/// The fusion gate: when exactly one of two compared artifacts is fused,
/// every row whose label starts with `prefix` must show `field` at least
/// `min_reduction` lower in the fused artifact, in place of equality.
#[derive(Debug)]
pub struct Fusion {
    /// Workload-name prefix of the gated rows.
    pub prefix: &'static str,
    /// The counter fusion must lower.
    pub field: &'static str,
    /// Least fraction by which the fused count must be lower.
    pub min_reduction: f64,
}

/// The multiplexing gate on one throughput artifact: at `workers`
/// workers, req/s at inflight `inflight` must be at least `factor` times
/// req/s at inflight 1 on at least `min_workloads` workloads. Both arms
/// come from one paired measurement, so host drift cancels.
#[derive(Debug)]
pub struct Multiplexing {
    /// Pool width of the two compared arms.
    pub workers: f64,
    /// Admission window of the multiplexed arm.
    pub inflight: f64,
    /// Least req/s ratio over the serial arm.
    pub factor: f64,
    /// Workloads that must reach `factor`.
    pub min_workloads: usize,
}

/// The gate of one artifact kind.
#[derive(Debug)]
pub struct Gate {
    /// The artifact's `artifact` field.
    pub kind: &'static str,
    /// Every set of rows the kind holds.
    pub rows: &'static [Rows],
    /// Fields left ungated because they depend on timing or scheduling.
    /// A listed object (a stats block, `per_worker`) is left out whole.
    pub not_gated: &'static [&'static str],
    /// Gate applied when the compared artifacts differ in `fused`.
    pub fusion: Option<Fusion>,
    /// Gate every artifact of this kind must pass on its own.
    pub multiplexing: Option<Multiplexing>,
}

/// The gate table: every deterministic counter of the four artifact
/// kinds, and the two gates that need no committed baseline.
pub const GATES: [Gate; 4] = [
    Gate {
        kind: "pipeline",
        rows: &[Rows {
            array: Some("measurements"),
            key: &["label"],
            exact: &[
                "ops",
                "arcs",
                "switches",
                "merges",
                "fired",
                "makespan",
                "avg_parallelism",
                "max_parallelism",
                "mem_ops",
            ],
        }],
        not_gated: &[],
        fusion: None,
        multiplexing: None,
    },
    Gate {
        kind: "translate",
        rows: &[Rows {
            array: Some("configs"),
            key: &["label"],
            exact: &[
                "passes",
                "revisions",
                "analyses_computed",
                "cache_hits",
                "ops",
                "arcs",
                "switches",
                "macros",
                "fused_ops",
            ],
        }],
        not_gated: &["wall_ns"],
        fusion: None,
        multiplexing: None,
    },
    Gate {
        kind: "executor",
        rows: &[
            Rows {
                array: None,
                key: &[],
                exact: &[
                    "fired",
                    "fired_unfused",
                    "compiled.ops",
                    "compiled.out_ports",
                    "compiled.dest_slots",
                    "compiled.imm_slots",
                    "compiled.macro_steps",
                    "compiled.bytes",
                    "compiled.max_hot_arity",
                ],
            },
            Rows {
                array: Some("threads"),
                key: &["workers"],
                exact: &[
                    "fired",
                    "tokens_processed",
                    "merged",
                    "macro_fires",
                    "ops_elided",
                    "tags_created",
                ],
            },
        ],
        not_gated: &[
            "compile_wall_ns",
            "simulator_wall_ns",
            "wall_ns",
            "speedup_vs_1w",
            "fast_path_fires",
            "max_pending_slots",
            "deferred_reads",
            "deferred_read_peak",
            "per_worker",
        ],
        fusion: Some(Fusion {
            prefix: "loop_nest",
            field: "tokens_processed",
            min_reduction: 0.25,
        }),
        multiplexing: None,
    },
    Gate {
        kind: "throughput",
        rows: &[
            Rows {
                array: None,
                key: &[],
                exact: &["fired"],
            },
            Rows {
                array: Some("arms"),
                key: &["workers", "inflight", "requests"],
                exact: &["tokens_processed"],
            },
        ],
        not_gated: &["wall_ns", "req_per_sec", "speedup_vs_inflight1"],
        fusion: None,
        multiplexing: Some(Multiplexing {
            workers: 4.0,
            inflight: 4.0,
            factor: 1.3,
            min_workloads: 2,
        }),
    },
];

/// The table entry for the document's `artifact` kind.
pub(crate) fn gate_of(doc: &Json) -> Result<&'static Gate, String> {
    let kind = doc.get("artifact").and_then(Json::as_str);
    GATES
        .iter()
        .find(|g| Some(g.kind) == kind)
        .ok_or_else(|| format!("unrecognized artifact kind {kind:?}"))
}

/// A row's gated counters, in table order.
pub(crate) type Counters = Vec<(&'static str, f64)>;

/// Every row of a document under `gate`, by label (`workload`, then each
/// key: a string key's value, a numeric key as `key=value`). Fails on a
/// missing workload name, row array, key or gated counter, and on two
/// rows with one label, so the validator can rely on it.
pub(crate) fn rows(doc: &Json, gate: &Gate) -> Result<BTreeMap<String, Counters>, String> {
    let kind = gate.kind;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .filter(|w| !w.is_empty())
        .ok_or_else(|| format!("{kind}: missing or empty array 'workloads'"))?;
    let mut out = BTreeMap::new();
    for (wi, w) in workloads.iter().enumerate() {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{kind}: workloads[{wi}]: missing field 'name'"))?;
        for set in gate.rows {
            let entries = match set.array {
                None => std::slice::from_ref(w),
                Some(a) => w
                    .get(a)
                    .and_then(Json::as_arr)
                    .filter(|r| !r.is_empty())
                    .ok_or_else(|| format!("{name}: missing or empty array '{a}'"))?,
            };
            for e in entries {
                let mut label = name.to_owned();
                for k in set.key {
                    let part = match e.get(k) {
                        Some(Json::Str(s)) => s.clone(),
                        Some(Json::Num(x)) if x.is_finite() => format!("{k}={x}"),
                        _ => return Err(format!("{label}: missing field '{k}'")),
                    };
                    label = format!("{label}/{part}");
                }
                let mut counters = Vec::with_capacity(set.exact.len());
                for &f in set.exact {
                    let v = f.split('.').try_fold(e, |v, k| v.get(k));
                    let x = v.ok_or_else(|| format!("{label}: missing field '{f}'"))?;
                    let x = x
                        .as_num()
                        .ok_or_else(|| format!("{label}: field '{f}' is not a finite number"))?;
                    counters.push((f, x));
                }
                if out.insert(label.clone(), counters).is_some() {
                    return Err(format!("{label}: two rows share this label"));
                }
            }
        }
    }
    Ok(out)
}

/// Validate one artifact and apply the gate its kind decides within one
/// run. Returns the gate's failures, one line each (empty = passed); an
/// invalid artifact is an error.
pub fn check_artifact(text: &str) -> Result<Vec<String>, String> {
    validate_artifact(text)?;
    let doc = json::parse(text)?;
    let Some(m) = &gate_of(&doc)?.multiplexing else {
        return Ok(Vec::new());
    };
    let mut ratios = Vec::new();
    for w in doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
        let arms = w.get("arms").and_then(Json::as_arr).unwrap_or(&[]);
        let rate = |inflight: f64| {
            arms.iter()
                .find(|a| {
                    a.get("workers").and_then(Json::as_num) == Some(m.workers)
                        && a.get("inflight").and_then(Json::as_num) == Some(inflight)
                })
                .and_then(|a| a.get("req_per_sec").and_then(Json::as_num))
        };
        if let (Some(serial), Some(multi)) = (rate(1.0), rate(m.inflight)) {
            let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
            ratios.push((name, multi / serial));
        }
    }
    if ratios.iter().filter(|(_, r)| *r >= m.factor).count() >= m.min_workloads {
        return Ok(Vec::new());
    }
    let seen: Vec<String> = ratios.iter().map(|(n, r)| format!("{n} {r:.2}x")).collect();
    Ok(vec![format!(
        "multiplexing gate: fewer than {} workloads reach {:.2}x req/s at inflight {} over \
         inflight 1 on {} workers ({})",
        m.min_workloads,
        m.factor,
        m.inflight,
        m.workers,
        seen.join(", ")
    )])
}

/// Result of comparing two artifacts of one kind.
#[derive(Debug)]
pub struct Comparison {
    /// The artifact kind compared.
    pub kind: &'static str,
    /// Whether the artifacts differed in `fused`, so the fusion gate
    /// replaced equality.
    pub fusion: bool,
    /// Counters compared for equality, or rows checked by the fusion
    /// gate.
    pub compared: usize,
    /// What the gate found wrong, one line each; empty when it passed.
    pub failures: Vec<String>,
}

/// Compare a new artifact with an old one of the same kind.
///
/// Both must validate, and their headers (every top-level field but
/// `workloads` and `fused`: kind, schema version, quick mode, sweep)
/// must be equal. Rows are matched by label: a row on one side only
/// fails. If both sides agree on `fused`, every gated counter must be
/// equal; otherwise the kind's [`Fusion`] gate decides, and a kind
/// without one is an error.
pub fn compare_artifacts(old_text: &str, new_text: &str) -> Result<Comparison, String> {
    validate_artifact(old_text).map_err(|e| format!("old artifact invalid: {e}"))?;
    validate_artifact(new_text).map_err(|e| format!("new artifact invalid: {e}"))?;
    let (old, new) = (json::parse(old_text)?, json::parse(new_text)?);
    for doc in [&old, &new] {
        let Json::Obj(fields) = doc else { continue };
        for (k, _) in fields
            .iter()
            .filter(|(k, _)| k != "workloads" && k != "fused")
        {
            let (o, n) = (old.get(k), new.get(k));
            if o != n {
                return Err(format!(
                    "cannot compare artifacts whose '{k}' differs: {o:?} vs {n:?}"
                ));
            }
        }
    }
    let gate = gate_of(&old)?;
    let fused = |d: &Json| matches!(d.get("fused"), Some(Json::Bool(true)));
    let fusion = fused(&old) != fused(&new);
    if fusion && gate.fusion.is_none() {
        return Err(format!(
            "{} artifacts have no fusion gate: both must agree on 'fused'",
            gate.kind
        ));
    }
    let (o, n) = (rows(&old, gate)?, rows(&new, gate)?);
    let mut out = Comparison {
        kind: gate.kind,
        fusion,
        compared: 0,
        failures: Vec::new(),
    };
    for (side, a, b) in [("old", &o, &n), ("new", &n, &o)] {
        for label in a.keys().filter(|l| !b.contains_key(*l)) {
            out.failures
                .push(format!("{label}: row only in the {side} artifact"));
        }
    }
    if let (true, Some(g)) = (fusion, &gate.fusion) {
        let (fused_rows, unfused_rows) = if fused(&new) { (&n, &o) } else { (&o, &n) };
        let value = |c: &Counters| c.iter().find(|(f, _)| *f == g.field).map(|&(_, x)| x);
        for (label, fc) in fused_rows.iter().filter(|(l, _)| l.starts_with(g.prefix)) {
            let (Some(f), Some(u)) = (value(fc), unfused_rows.get(label).and_then(value)) else {
                continue;
            };
            out.compared += 1;
            let reduction = if u > 0.0 { 1.0 - f / u } else { 0.0 };
            if reduction < g.min_reduction {
                out.failures.push(format!(
                    "{label} {}: {u} unfused -> {f} fused is a {:.1}% reduction (need >= {:.1}%)",
                    g.field,
                    reduction * 100.0,
                    g.min_reduction * 100.0
                ));
            }
        }
        if out.compared == 0 {
            out.failures.push(format!(
                "fusion gate: no '{}' row carries {}",
                g.prefix, g.field
            ));
        }
        return Ok(out);
    }
    for (label, oc) in &o {
        let Some(nc) = n.get(label) else { continue };
        for (&(f, a), &(_, b)) in oc.iter().zip(nc) {
            out.compared += 1;
            if a != b {
                out.failures.push(format!("{label} {f}: {a} -> {b}"));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::{
        executor_artifact, pipeline_artifact, throughput_artifact, translate_artifact,
    };

    const PIPELINE: &str = include_str!("../../../BENCH_pipeline.quick.json");
    const TRANSLATE: &str = include_str!("../../../BENCH_translate.quick.json");
    const EXECUTOR: &str = include_str!("../../../BENCH_executor.quick.json");
    const THROUGHPUT: &str = include_str!("../../../BENCH_throughput.quick.json");

    /// Rewrite the number after each `"key":`, or after only the first
    /// `nth + 1`-th one when `nth` is given.
    fn edit(doc: &str, key: &str, nth: Option<usize>, f: impl Fn(f64) -> f64) -> String {
        let pat = format!("\"{key}\":");
        let mut out = String::new();
        let mut rest = doc;
        let mut seen = 0;
        while let Some(at) = rest.find(&pat) {
            let start = at + pat.len();
            let len = rest[start..]
                .find(|c: char| !(c.is_ascii_digit() || "-+.eE".contains(c)))
                .unwrap_or(rest.len() - start);
            out.push_str(&rest[..start]);
            let old = &rest[start..start + len];
            if nth.is_none_or(|n| n == seen) {
                out.push_str(&json::float(f(old.parse().unwrap())));
            } else {
                out.push_str(old);
            }
            seen += 1;
            rest = &rest[start + len..];
        }
        assert!(seen > nth.unwrap_or(0), "no {pat} to edit");
        out.push_str(rest);
        out
    }

    fn failures(old: &str, new: &str) -> Vec<String> {
        compare_artifacts(old, new).unwrap().failures
    }

    fn fresh_quick() -> [String; 4] {
        [
            pipeline_artifact(true, true).unwrap(),
            translate_artifact(true, true).unwrap(),
            executor_artifact(true, true).unwrap(),
            throughput_artifact(true, true).unwrap(),
        ]
    }

    #[test]
    fn committed_quick_baselines_gate_every_counter() {
        let mut total = 0;
        for (doc, want) in [
            (PIPELINE, 252),
            (TRANSLATE, 315),
            (EXECUTOR, 132),
            (THROUGHPUT, 39),
        ] {
            let cmp = compare_artifacts(doc, doc).unwrap();
            assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
            assert!(!cmp.fusion);
            assert_eq!(cmp.compared, want, "{}", cmp.kind);
            total += cmp.compared;
            assert!(check_artifact(doc).unwrap().is_empty(), "{}", cmp.kind);
        }
        assert_eq!(total, 738);
    }

    #[test]
    fn quick_counters_repeat_exactly_across_runs() {
        let first = fresh_quick();
        let second = fresh_quick();
        for (a, b) in first.iter().zip(&second) {
            let cmp = compare_artifacts(a, b).unwrap();
            assert!(cmp.failures.is_empty(), "{}: {:?}", cmp.kind, cmp.failures);
        }
        // A real unfused run clears the fusion gate.
        let unfused = executor_artifact(true, false).unwrap();
        let cmp = compare_artifacts(&unfused, &first[2]).unwrap();
        assert!(cmp.fusion);
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert!(cmp.compared >= 4, "{cmp:?}");
    }

    /// Every numeric leaf of a fresh quick artifact is a gated counter, a
    /// row key, a header field (compared by `compare_artifacts`), or on
    /// the kind's `not_gated` list, so a counter added later cannot go
    /// ungated unnoticed.
    #[test]
    fn every_numeric_field_is_gated_or_listed() {
        fn leaves(v: &Json, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
            match v {
                Json::Num(_) => out.push(path.clone()),
                Json::Arr(items) => items.iter().for_each(|i| leaves(i, path, out)),
                Json::Obj(fields) => {
                    for (k, x) in fields {
                        path.push(k.clone());
                        leaves(x, path, out);
                        path.pop();
                    }
                }
                _ => {}
            }
        }
        for doc in fresh_quick() {
            let doc = json::parse(&doc).unwrap();
            let gate = gate_of(&doc).unwrap();
            let mut all = Vec::new();
            leaves(&doc, &mut Vec::new(), &mut all);
            for path in all {
                let covered = path[0] != "workloads"
                    || path.iter().any(|p| gate.not_gated.contains(&p.as_str()))
                    || gate.rows.iter().any(|set| {
                        let field = match set.array {
                            None => path[1..].join("."),
                            Some(a) if path.get(1).map(String::as_str) == Some(a) => {
                                path[2..].join(".")
                            }
                            Some(_) => return false,
                        };
                        set.exact.contains(&field.as_str()) || set.key.contains(&field.as_str())
                    });
                assert!(
                    covered,
                    "{}: {} is neither gated nor listed",
                    gate.kind,
                    path.join(".")
                );
            }
        }
    }

    #[test]
    fn any_changed_counter_fails() {
        let cases = [
            (
                "translate ops + 1",
                TRANSLATE,
                edit(TRANSLATE, "ops", Some(0), |x| x + 1.0),
            ),
            (
                "executor merged + 1",
                EXECUTOR,
                edit(EXECUTOR, "merged", Some(0), |x| x + 1.0),
            ),
            (
                "pipeline avg_parallelism",
                PIPELINE,
                edit(PIPELINE, "avg_parallelism", Some(3), |x| x * 1.01),
            ),
            (
                "decreased fired",
                PIPELINE,
                edit(PIPELINE, "fired", Some(0), |x| x - 1.0),
            ),
            (
                "executor compiled bytes",
                EXECUTOR,
                edit(EXECUTOR, "bytes", Some(1), |x| x - 8.0),
            ),
            (
                "throughput tokens",
                THROUGHPUT,
                edit(THROUGHPUT, "tokens_processed", Some(5), |x| x + 1.0),
            ),
        ];
        for (what, old, new) in cases {
            let f = failures(old, &new);
            assert_eq!(f.len(), 1, "{what}: {f:?}");
            // Direction does not matter: the reverse comparison fails too.
            assert_eq!(failures(&new, old).len(), 1, "{what}");
        }
    }

    #[test]
    fn a_row_on_one_side_fails() {
        let renamed = EXECUTOR.replace("\"name\":\"loop_nest\"", "\"name\":\"loop_nest_v2\"");
        let f = failures(EXECUTOR, &renamed);
        assert!(f.iter().any(|l| l.contains("only in the old")), "{f:?}");
        assert!(f.iter().any(|l| l.contains("only in the new")), "{f:?}");
    }

    #[test]
    fn wall_clock_fields_are_not_compared() {
        for doc in [PIPELINE, TRANSLATE, EXECUTOR, THROUGHPUT] {
            if !doc.contains("\"median_ns\":") {
                continue;
            }
            let slower = edit(doc, "median_ns", None, |x| x * 10.0);
            assert!(failures(doc, &slower).is_empty());
        }
    }

    #[test]
    fn fusion_gate_needs_a_quarter_fewer_loop_nest_tokens() {
        let unfused = |scale: f64| {
            edit(EXECUTOR, "tokens_processed", None, |x| (x * scale).round())
                .replace("\"fused\":true", "\"fused\":false")
        };
        // Fused 20% below unfused: fails, whichever side is passed as new.
        let short = unfused(1.25);
        let cmp = compare_artifacts(&short, EXECUTOR).unwrap();
        assert!(cmp.fusion);
        assert_eq!(cmp.failures.len(), cmp.compared, "{:?}", cmp.failures);
        assert!(!failures(EXECUTOR, &short).is_empty());
        // A third below: passes, and every loop_nest* thread row counts.
        let cmp = compare_artifacts(&unfused(1.5), EXECUTOR).unwrap();
        assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
        assert_eq!(cmp.compared, 8);
        // Kinds without a fusion gate refuse a fused-vs-unfused compare.
        let p = PIPELINE.replace("\"fused\":true", "\"fused\":false");
        assert!(compare_artifacts(&p, PIPELINE)
            .unwrap_err()
            .contains("no fusion gate"));
    }

    #[test]
    fn multiplexing_gate_needs_1_3x_on_two_workloads() {
        assert!(check_artifact(THROUGHPUT).unwrap().is_empty());
        let flat = edit(THROUGHPUT, "req_per_sec", None, |_| 1000.0);
        let f = check_artifact(&flat).unwrap();
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].contains("multiplexing gate"), "{f:?}");
        // Other kinds have no one-run gate.
        assert!(check_artifact(EXECUTOR).unwrap().is_empty());
    }

    #[test]
    fn mismatched_headers_are_rejected() {
        let err = compare_artifacts(PIPELINE, EXECUTOR).unwrap_err();
        assert!(err.contains("'artifact' differs"), "{err}");
        let full_claimed = PIPELINE.replace("\"quick\":true", "\"quick\":false");
        let err = compare_artifacts(PIPELINE, &full_claimed).unwrap_err();
        assert!(err.contains("'quick' differs"), "{err}");
        let resized = THROUGHPUT.replacen("\"requests\":8", "\"requests\":9", 1);
        let err = compare_artifacts(THROUGHPUT, &resized).unwrap_err();
        assert!(err.contains("'requests' differs"), "{err}");
    }
}
