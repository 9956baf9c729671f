//! End-to-end tests of the `cf2df` command-line driver.

use std::process::Command;

fn cf2df(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_cf2df"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn cfg_prints_nodes_and_dot() {
    let (stdout, _, ok) = cf2df(&["cfg", "running_example"]);
    assert!(ok);
    assert!(stdout.contains("y := (x + 1)"));
    let (dot, _, ok) = cf2df(&["cfg", "running_example", "--dot"]);
    assert!(ok);
    assert!(dot.starts_with("digraph"));
    assert!(dot.contains("style=dashed"), "conventional edge");
}

#[test]
fn run_prints_results_and_stats() {
    let (stdout, _, ok) = cf2df(&["run", "gcd"]);
    assert!(ok);
    assert!(stdout.contains("a = 21"), "{stdout}");
    assert!(stdout.contains("makespan"));
}

#[test]
fn run_with_trace_shows_timeline() {
    let (stdout, _, ok) = cf2df(&["run", "fib", "--schema1", "--trace"]);
    assert!(ok);
    assert!(stdout.contains("t=0"));
    assert!(stdout.contains("load"));
}

#[test]
fn compare_reports_speedups_and_checks_memory() {
    let (stdout, _, ok) = cf2df(&["compare", "independent"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("sequential"));
    assert!(stdout.contains("schema2"));
    assert!(stdout.contains("full"));
}

#[test]
fn emit_and_run_graph_round_trip() {
    let dir = std::env::temp_dir().join("cf2df_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fib.dfg");
    let path_s = path.to_str().unwrap();
    let (_, stderr, ok) = cf2df(&["translate", "fib", "--optimized", "--emit", path_s]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("wrote"));
    let (stdout, _, ok) = cf2df(&["run-graph", path_s]);
    assert!(ok);
    assert!(stdout.contains("b = 987"), "fib(16): {stdout}");
}

#[test]
fn machine_flags_are_honoured() {
    let (fast, _, _) = cf2df(&["run", "independent", "--mem-latency", "1"]);
    let (slow, _, _) = cf2df(&["run", "independent", "--mem-latency", "50"]);
    let span = |s: &str| -> u64 {
        s.split("makespan=")
            .nth(1)
            .and_then(|r| r.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap()
    };
    assert!(span(&slow) > span(&fast));
    let (p1, _, _) = cf2df(&["run", "independent", "--processors", "1"]);
    assert!(span(&p1) >= span(&fast));
}

#[test]
fn broken_graph_reports_collision() {
    let (_, stderr, ok) = cf2df(&[
        "run",
        "running_example",
        "--no-loop-control",
        "--mem-latency",
        "10",
    ]);
    // The balanced running example completes even without loop control;
    // but stdin-supplied skewed loops must fault. Use a skewed program via
    // a temp file.
    let _ = (stderr, ok);
    let dir = std::env::temp_dir().join("cf2df_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("skewed.imp");
    std::fs::write(
        &path,
        "l:\n y := y + 1;\n y := y + 3;\n y := y + 5;\n x := x + 1;\n if x < 8 then { goto l; } else { goto end; }\n",
    )
    .unwrap();
    let (_, stderr, ok) = cf2df(&[
        "run",
        path.to_str().unwrap(),
        "--no-loop-control",
        "--mem-latency",
        "10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("token collision"), "{stderr}");
}

#[test]
fn parse_errors_are_reported_with_lines() {
    let dir = std::env::temp_dir().join("cf2df_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.imp");
    std::fs::write(&path, "x := 1;\ny := ;\n").unwrap();
    let (_, stderr, ok) = cf2df(&["cfg", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn bench_writes_valid_artifacts_and_check_bench_verifies_them() {
    let dir = std::env::temp_dir().join("cf2df_cli_bench_test");
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_str().unwrap();
    let (_, stderr, ok) = cf2df(&["bench", "--quick", "--out-dir", dir_s]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("BENCH_pipeline.quick.json"), "{stderr}");
    assert!(stderr.contains("BENCH_executor.quick.json"), "{stderr}");

    let pipeline = dir.join("BENCH_pipeline.quick.json");
    let executor = dir.join("BENCH_executor.quick.json");
    let (stdout, stderr, ok) =
        cf2df(&["check-bench", pipeline.to_str().unwrap(), executor.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    assert!(stdout.matches(": ok").count() == 2, "{stdout}");

    // The executor artifact sweeps 1/2/4/8 workers with per-worker counters.
    let doc = std::fs::read_to_string(&executor).unwrap();
    for probe in ["\"workers\":1", "\"workers\":2", "\"workers\":4", "\"workers\":8", "\"steals\"", "\"parks\""] {
        assert!(doc.contains(probe), "missing {probe}");
    }

    // check-bench rejects a corrupted artifact.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"artifact\":\"pipeline\",\"workloads\":[]}").unwrap();
    let (_, stderr, ok) = cf2df(&["check-bench", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("INVALID"), "{stderr}");
}

#[test]
fn check_bench_compare_gates_regressions() {
    let dir = std::env::temp_dir().join("cf2df_cli_compare_test");
    std::fs::create_dir_all(&dir).unwrap();
    let dir_s = dir.to_str().unwrap();
    let (_, stderr, ok) = cf2df(&["bench", "--quick", "--out-dir", dir_s]);
    assert!(ok, "{stderr}");
    let pipeline = dir.join("BENCH_pipeline.quick.json");
    let pipeline_s = pipeline.to_str().unwrap();

    // An artifact compared against itself passes and reports the count.
    let (stdout, stderr, ok) =
        cf2df(&["check-bench", pipeline_s, "--compare", pipeline_s]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("values compared exactly"), "{stdout}");

    // A changed deterministic counter fails the gate, in either direction.
    let doc = std::fs::read_to_string(&pipeline).unwrap();
    let more = dir.join("more.json");
    std::fs::write(&more, doc.replace("\"fired\":", "\"fired\":1")).unwrap();
    let more_s = more.to_str().unwrap();
    for (new, old) in [(more_s, pipeline_s), (pipeline_s, more_s)] {
        let (stdout, stderr, ok) = cf2df(&["check-bench", new, "--compare", old]);
        assert!(!ok, "{stdout}");
        assert!(stderr.contains("FAILURE"), "{stderr}");
        assert!(stderr.contains(" fired: "), "{stderr}");
    }

    // A workload present on one side only fails.
    let renamed = dir.join("renamed.json");
    std::fs::write(
        &renamed,
        doc.replace("\"name\":\"loop_nest\"", "\"name\":\"loop_nest_v2\""),
    )
    .unwrap();
    let (stdout, stderr, ok) =
        cf2df(&["check-bench", renamed.to_str().unwrap(), "--compare", pipeline_s]);
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("row only in the"), "{stderr}");

    // Wall-clock medians are not compared across runs: a ~10x slower
    // executor artifact passes as long as its counters are equal.
    let executor = dir.join("BENCH_executor.quick.json");
    let executor_s = executor.to_str().unwrap();
    let slower = dir.join("slower.json");
    let edoc = std::fs::read_to_string(&executor).unwrap();
    std::fs::write(&slower, edoc.replace("\"median_ns\":", "\"median_ns\":9")).unwrap();
    let (stdout, stderr, ok) =
        cf2df(&["check-bench", slower.to_str().unwrap(), "--compare", executor_s]);
    assert!(ok, "{stdout} {stderr}");
    assert!(stdout.contains("executor values compared exactly"), "{stdout}");
}

#[test]
fn stats_prints_compiled_footprint() {
    let (stdout, stderr, ok) = cf2df(&["stats", "stencil", "--full"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("compiled footprint"), "{stdout}");
    for field in ["operator descriptors", "destination slots", "table bytes", "max hot arity"] {
        assert!(stdout.contains(field), "{stdout}");
    }
    assert!(stdout.contains("inline capacity"), "{stdout}");
}

#[test]
fn chaos_campaign_runs_clean_and_reports_faults() {
    // A tiny deterministic slice of the campaign: one program, both
    // benign and destructive profiles, two worker counts. Must exit 0
    // (all runs equivalent-or-typed-error) and actually inject faults.
    let (stdout, stderr, ok) = cf2df(&[
        "chaos",
        "--quick",
        "--seeds",
        "2",
        "--workers",
        "2,4",
        "--programs",
        "gcd,nested",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    for profile in ["off", "perturb", "panics", "drops", "dups", "mixed"] {
        assert!(stdout.contains(profile), "missing {profile} row: {stdout}");
    }
    assert!(stdout.contains("runs clean"), "{stdout}");
    // Destructive profiles must have injected something across this
    // many runs; the table's injected column is summed per profile.
    let injected: u64 = stdout
        .lines()
        .filter(|l| {
            l.starts_with("panics") || l.starts_with("drops") || l.starts_with("dups")
        })
        .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .sum();
    assert!(injected > 0, "no faults injected: {stdout}");
}

#[test]
fn istructure_flag_applies() {
    let (stdout, stderr, ok) = cf2df(&[
        "run",
        "stencil",
        "--optimized",
        "--memelim",
        "--istructure",
        "src,dst",
        "--mem-latency",
        "8",
    ]);
    assert!(ok, "{stderr}");
    // Array contents print from I-structure memory.
    assert!(stdout.contains("checksum = "), "{stdout}");
}

/// Parse every stdout line of a `validate --json` run, checking the
/// target label round-trips; returns the parsed lines.
fn validate_json_lines(stdout: &str, target: &str) -> Vec<cf2df::bench::json::Json> {
    let lines: Vec<_> = stdout
        .lines()
        .map(|l| cf2df::bench::json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert!(!lines.is_empty(), "no JSON lines");
    for j in &lines {
        assert_eq!(j.get("target").and_then(|t| t.as_str()), Some(target));
        assert!(j.get("report").is_some(), "line without a report");
    }
    lines
}

#[test]
fn validate_json_lines_parse_including_mutations_and_quoted_targets() {
    let dir = std::env::temp_dir().join("cf2df_cli_validate_test");
    std::fs::create_dir_all(&dir).unwrap();

    // A `.imp` target whose label needs escaping.
    let imp = dir.join("a\"b\\c.imp");
    std::fs::write(&imp, "i := 0;\nwhile i < 3 do { i := i + 1; if i == 2 then { j := i; } else { skip; } }\n")
        .unwrap();
    let imp_s = imp.to_str().unwrap();
    let (stdout, stderr, ok) = cf2df(&["validate", imp_s, "--json", "--mutations", "--seeds", "2"]);
    assert!(ok, "{stderr}");
    let lines = validate_json_lines(&stdout, imp_s);
    // One report line, then one line per applied mutation, every one
    // detected and carrying its defects.
    assert!(lines[0].get("class").is_none());
    let mutants = &lines[1..];
    assert!(mutants.len() >= 4, "{stdout}");
    for m in mutants {
        assert!(m.get("class").and_then(|c| c.as_str()).is_some());
        assert!(m.get("seed").and_then(|s| s.as_num()).is_some());
        assert_eq!(m.get("detected"), Some(&cf2df::bench::json::Json::Bool(true)));
        let defects = m.get("report").and_then(|r| r.get("graph_defects"));
        assert!(!defects.and_then(|d| d.as_arr()).unwrap_or(&[]).is_empty());
    }

    // A `.dfg` target whose label needs escaping.
    let dfg = dir.join("x\"y.dfg");
    let dfg_s = dfg.to_str().unwrap();
    let (_, stderr, ok) = cf2df(&["translate", "gcd", "--emit", dfg_s]);
    assert!(ok, "{stderr}");
    let (stdout, stderr, ok) = cf2df(&["validate", dfg_s, "--json", "--mutations", "--seeds", "1"]);
    assert!(ok, "{stderr}");
    assert!(validate_json_lines(&stdout, dfg_s).len() > 1, "{stdout}");
}
