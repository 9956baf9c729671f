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
    // A value that is not a number is a usage error (exit 2), not a panic.
    let out = Command::new(env!("CARGO_BIN_EXE_cf2df"))
        .args(["run", "independent", "--processors", "x"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--processors needs a number"), "{stderr}");
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

/// The lines found on one side only of a committed baseline and a fresh
/// render, or `None` when the two are equal byte for byte. One artifact
/// row is one line, so these are the rows that changed, appeared or went
/// missing.
fn baseline_diff(committed: &str, fresh: &str) -> Option<String> {
    if fresh == committed {
        return None;
    }
    let only = |a: &str, b: &str, sign: char| -> Vec<String> {
        let b: Vec<&str> = b.lines().collect();
        a.lines()
            .filter(|l| !b.contains(l))
            .map(|l| format!("{sign} {l}"))
            .collect()
    };
    let mut diff = only(committed, fresh, '-');
    diff.extend(only(fresh, committed, '+'));
    if diff.is_empty() {
        diff.push("  (the same lines, in another order)".to_owned());
    }
    Some(diff.join("\n"))
}

fn committed_baseline(kind: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("BENCH_{kind}.json"));
    std::fs::read_to_string(path).unwrap()
}

/// The committed `BENCH_*.json` baselines are the bench gate, where the
/// `check-bench` subcommand once was: a fresh `cf2df bench` must write
/// all three artifacts and rewrite each baseline byte for byte, so every
/// counter, label, row and header field is held exactly.
#[test]
fn bench_writes_valid_artifacts_and_check_bench_verifies_them() {
    let dir = std::env::temp_dir().join(format!("cf2df_cli_bench_{}", std::process::id()));
    let (_, stderr, ok) = cf2df(&["bench", "--out-dir", dir.to_str().unwrap()]);
    assert!(ok, "{stderr}");
    let mut mismatches = Vec::new();
    for kind in ["pipeline", "executor", "translate"] {
        let name = format!("BENCH_{kind}.json");
        assert!(stderr.contains(&name), "{stderr}");
        let fresh = std::fs::read_to_string(dir.join(&name)).unwrap();
        if let Some(diff) = baseline_diff(&committed_baseline(kind), &fresh) {
            mismatches.push(format!("{name} differs:\n{diff}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        mismatches.is_empty(),
        "{}\nIf the change is intended, regenerate the baselines: run \
         `cf2df bench` in the repository root, then review `git diff`.",
        mismatches.join("\n")
    );
}

/// Byte equality gates every regression `check-bench --compare` gated,
/// and row order too: a baseline passes against itself, while a counter
/// moved either way, a renamed workload, a dropped row and two swapped
/// rows each fail, naming the lines that differ.
#[test]
fn check_bench_compare_gates_regressions() {
    for kind in ["pipeline", "executor", "translate"] {
        let doc = committed_baseline(kind);
        assert_eq!(baseline_diff(&doc, &doc), None, "{kind}");
    }

    // One counter, +1, in either direction.
    let translate = committed_baseline("translate");
    let row = translate
        .lines()
        .find(|l| l.contains("\"passes\":"))
        .unwrap();
    let field = row.split("\"passes\":").nth(1).unwrap();
    let passes: u64 = field.split(',').next().unwrap().parse().unwrap();
    let moved_row = row.replacen(
        &format!("\"passes\":{passes},"),
        &format!("\"passes\":{},", passes + 1),
        1,
    );
    let moved = translate.replacen(row, &moved_row, 1);
    for (committed, fresh) in [(&translate, &moved), (&moved, &translate)] {
        let diff = baseline_diff(committed, fresh).expect("a moved counter fails");
        assert_eq!(diff.lines().count(), 2, "{diff}");
        assert!(diff.contains(row) && diff.contains(&moved_row), "{diff}");
    }

    // A workload present on one side only.
    let executor = committed_baseline("executor");
    let renamed = executor.replacen("\"name\":\"loop_nest\"", "\"name\":\"loop_nest_v2\"", 1);
    assert_ne!(renamed, executor);
    let diff = baseline_diff(&executor, &renamed).expect("a renamed workload fails");
    assert!(diff.contains("+ {\"name\":\"loop_nest_v2\""), "{diff}");
    assert!(diff.contains("- {\"name\":\"loop_nest\""), "{diff}");

    // A dropped row, and two rows in another order.
    let pipeline = committed_baseline("pipeline");
    let lines: Vec<&str> = pipeline.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.contains("\"label\":\"schema1\""))
        .unwrap();
    let mut dropped = lines.clone();
    dropped.remove(at);
    let diff = baseline_diff(&pipeline, &(dropped.join("\n") + "\n")).expect("a dropped row fails");
    assert_eq!(diff, format!("- {}", lines[at]));
    let mut swapped = lines.clone();
    swapped.swap(at, at + 1);
    let diff = baseline_diff(&pipeline, &(swapped.join("\n") + "\n")).expect("reordered rows fail");
    assert!(diff.contains("another order"), "{diff}");
}

#[test]
fn stats_prints_compiled_footprint() {
    let (stdout, stderr, ok) = cf2df(&["stats", "stencil", "--full"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("compiled footprint"), "{stdout}");
    for field in [
        "operator descriptors",
        "destination slots",
        "table bytes",
        "max hot arity",
    ] {
        assert!(stdout.contains(field), "{stdout}");
    }
    assert!(stdout.contains("inline capacity"), "{stdout}");
}

#[test]
fn chaos_campaign_runs_clean_and_reports_faults() {
    // The `--quick` campaign: every corpus program under schema 2, every
    // benign and destructive profile, 2 seeds at 2 and 8 workers. Must
    // exit 0 (all runs equivalent-or-typed-error) and actually inject
    // faults.
    let (stdout, stderr, ok) = cf2df(&["chaos", "--quick"]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    for profile in ["off", "perturb", "panics", "drops", "dups", "mixed"] {
        assert!(stdout.contains(profile), "missing {profile} row: {stdout}");
    }
    assert!(stdout.contains("runs clean"), "{stdout}");
    // Destructive profiles must have injected something across this
    // many runs; the table's injected column is summed per profile.
    let injected: u64 = stdout
        .lines()
        .filter(|l| l.starts_with("panics") || l.starts_with("drops") || l.starts_with("dups"))
        .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
        .sum();
    assert!(injected > 0, "no faults injected: {stdout}");
}

#[test]
fn serve_smokes_match_the_simulator() {
    // Both serving shapes: a wide admission window on 4 workers, and a
    // window of one on 2 workers over a larger graph. Every request is
    // checked against the simulator; any mismatch exits non-zero.
    for args in [
        &["serve", "--quick"][..],
        &[
            "serve",
            "--quick",
            "--inflight",
            "1",
            "--workers",
            "2",
            "stencil",
        ],
    ] {
        let (stdout, stderr, ok) = cf2df(args);
        assert!(ok, "{args:?}\nstdout: {stdout}\nstderr: {stderr}");
        assert!(stdout.contains("requests=32 ok=32 failed=0"), "{stdout}");
    }
}

#[test]
fn validate_corpus_certifies_the_matrix_and_detects_every_mutation() {
    let (stdout, stderr, ok) = cf2df(&["validate", "corpus", "--mutations", "--seeds", "4"]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("injected mutations all detected"),
        "{stdout}"
    );
}

#[test]
fn validate_refuses_no_loop_control_with_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_cf2df"))
        .args(["validate", "running_example", "--no-loop-control"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Exit 2 is a usage error; a panic would exit 101.
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--no-loop-control"), "{stderr}");
}

#[test]
fn schema3_flag_selects_the_alias_class_cover() {
    // `fortran_alias` aliases its variables: the singleton cover of the
    // default (`--schema2`) gathers access tokens through synchs, the
    // alias-class cover of `--schema3` needs none.
    let synchs = |flag: &str| {
        let (stdout, stderr, ok) = cf2df(&["stats", "fortran_alias", flag]);
        assert!(ok, "{flag}: {stderr}");
        stdout.lines().next().unwrap_or_default().to_owned()
    };
    let (schema2, schema3) = (synchs("--schema2"), synchs("--schema3"));
    assert!(schema2.contains("synch=8"), "{schema2}");
    assert!(schema3.contains("synch=0"), "{schema3}");
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
    std::fs::write(
        &imp,
        "i := 0;\nwhile i < 3 do { i := i + 1; if i == 2 then { j := i; } else { skip; } }\n",
    )
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
        assert_eq!(
            m.get("detected"),
            Some(&cf2df::bench::json::Json::Bool(true))
        );
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

/// A closed stdout ends the output quietly: no panic, nothing on stderr,
/// and the exit status the usage text gives for it (141). The pipe's
/// read end is closed before the child starts, so its first write fails.
#[test]
fn closed_stdout_ends_the_output_quietly() {
    for args in [&["compare", "fig9"][..], &["run", "gcd"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_cf2df"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(141),
            "{args:?}: stderr {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stderr.is_empty(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A closed stderr drops the diagnostics and leaves the exit status the
/// command's own: the stage table of `--time-passes` goes nowhere while
/// the graph still prints in full, and an unknown program is still a
/// usage error (2), not a panic (101).
#[test]
fn closed_stderr_drops_the_diagnostics() {
    let with_closed_stderr = |args: &[&str]| {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        Command::new(env!("CARGO_BIN_EXE_cf2df"))
            .args(args)
            .stderr(writer)
            .output()
            .expect("binary runs")
    };
    let out = with_closed_stderr(&["translate", "running_example", "--time-passes"]);
    assert_eq!(out.status.code(), Some(0));
    let (full, _, ok) = cf2df(&["translate", "running_example", "--time-passes"]);
    assert!(ok);
    assert_eq!(String::from_utf8_lossy(&out.stdout), full);
    let out = with_closed_stderr(&["run", "nosuchprogram"]);
    assert_eq!(out.status.code(), Some(2));
}

/// A zero worker count, admission window, processor count or latency is
/// a usage error naming the flag, not a run that silently uses another
/// value.
#[test]
fn zero_widths_are_usage_errors() {
    for (args, flag) in [
        (
            &["serve", "--workers", "0", "--requests", "2"][..],
            "--workers",
        ),
        (
            &["serve", "--inflight", "0", "--requests", "2"],
            "--inflight",
        ),
        (&["chaos", "--quick", "--workers", "0"], "--workers"),
        (&["chaos", "--quick", "--workers", "2,0"], "--workers"),
        (
            &["run", "running_example", "--processors", "0"],
            "--processors",
        ),
        (
            &["run", "running_example", "--mem-latency", "0"],
            "--mem-latency",
        ),
        (
            &["compare", "running_example", "--op-latency", "0"],
            "--op-latency",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cf2df"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
