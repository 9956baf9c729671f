//! `cf2df` — command-line driver: parse, translate, simulate, and compare
//! Imp programs.
//!
//! ```text
//! cf2df cfg        <file.imp> [--dot]
//! cf2df translate  <file.imp> [SCHEMA] [TRANSFORMS] [--time-passes]
//!                  [--dot | --emit <out.dfg>]
//! cf2df run-graph  <file.dfg> [MACHINE]
//! cf2df run        <file.imp> [SCHEMA] [TRANSFORMS] [MACHINE] [--trace]
//! cf2df compare    <file.imp> [MACHINE]
//! cf2df stats      <file.imp> [SCHEMA] [TRANSFORMS]
//! cf2df validate   <file.imp|file.dfg|corpus> [SCHEMA] [TRANSFORMS]
//!                  [--json] [--mutations] [--seeds <n>]
//! cf2df bench      [--out-dir <dir>]
//! cf2df chaos      [--quick] [--seeds <n>] [--workers <a,b,…>]
//!                  [--programs <p1,p2,…>] [--fuel <n>] [--watchdog-ms <n>]
//! cf2df serve      [--requests <n>] [--inflight <k>] [--workers <w>]
//!                  [--quick] [SCHEMA] [TRANSFORMS] [program]
//!
//! SCHEMA:     --schema1 | --schema2 (default) | --schema3 | --optimized | --full
//!             (--schema2 gives every variable its own access token line;
//!             --schema3 gives every alias class one, the §5 alias-class
//!             cover)
//! TRANSFORMS: --memelim --readpar --arraypar --forward --no-loop-control
//!             --no-fuse --istructure <array>[,<array>…]
//! MACHINE:    --processors <n> --mem-latency <n> --op-latency <n>
//! ```
//!
//! `<file.imp>` may be `-` for stdin, or the name of a built-in corpus
//! program (e.g. `running_example`, `stencil`).
//!
//! Exit status: 0 on success, 1 when a command fails (a parse,
//! translation, machine or verification error), 2 for a usage error or
//! an unreadable file, and 141 when stdout closes early (e.g.
//! `cf2df compare fig9 | head -3`): the output then ends quietly, as for
//! a process ended by SIGPIPE. A closed stderr drops the diagnostics and
//! leaves the status as it is. A zero `--workers`, `--inflight`,
//! `--processors`, `--mem-latency` or `--op-latency` is a usage error.
//!
//! `translate --time-passes` prints a per-pass table on stderr: wall
//! time, analyses computed vs. served from the cache, and CFG/DFG sizes
//! in and out of every pipeline stage.
//!
//! `validate` runs the static translation validator and prints its
//! certification report. With the literal target `corpus`, every corpus
//! program is certified under the full option matrix — Schema 1,
//! Schema 2 (singleton cover), Schema 3 (alias-class cover), the §4
//! optimized construction, and the fully parallelized Schema 3 — and
//! the process exits non-zero on the first defect. A `.imp` file (or
//! corpus program name) is certified under the schema flags, which
//! must keep loop control (certification needs it); a `.dfg`
//! file is loaded and checked against the graph-level obligations only
//! (token linearity, gated cycles, tag stripping). `--json` emits one
//! machine-readable report per line. `--mutations` additionally runs
//! the seeded mutation slice: every mutation class × `--seeds` seeds
//! (default 4) is injected into each certified-clean graph, and every
//! injected bug must be detected or the run fails. With `--json`, each
//! applied mutation also prints one line: target, class, seed,
//! detected, and the report of the defects the certifier found.
//!
//! `chaos` runs the seeded fault-injection campaign: every corpus
//! program (or `--programs`) under every fault profile (off, perturb,
//! panics, drops, dups, mixed) at every worker count, `--seeds` seeds
//! each. Every run must either match the deterministic simulator
//! bit-for-bit or return a typed machine error within the watchdog
//! bound — no hangs, no aborts, no silent corruption. Benign profiles
//! (off, perturb) must always match. Exits non-zero on any violation.
//! `--quick` shrinks the campaign for CI smoke runs.
//!
//! `bench` runs the canonical workloads through the translation
//! pipeline, the simulator and the threaded executor at 1/2/4/8 workers
//! and writes three artifacts of exact counters under the names of the
//! committed baselines: `BENCH_pipeline.json` (simulated makespan and
//! parallelism per translation configuration), `BENCH_executor.json`
//! (firings, token traffic and compiled footprint at every worker
//! count) and `BENCH_translate.json` (the translation's per-stage, cache
//! and graph-size counters), one row per line. Nothing in them is timed, so
//! two runs write byte-identical files. The test suite requires a fresh
//! render to equal the committed files byte for byte; `bench` in the
//! repository root followed by `git diff` regenerates them. Wall-clock
//! is judged in alternating pairs of the end-to-end benchmark
//! (`e2ebench/`).
//!
//! `serve` exercises the concurrent multi-invocation engine: it
//! translates `program` (default `running_example`), spawns one executor
//! pool of `--workers` threads, submits `--requests` independent
//! invocations with at most `--inflight` admitted concurrently, verifies
//! every result bit-for-bit against the deterministic simulator, and
//! prints the session stats and the requests/second the pool sustained.
//! Exits non-zero on any mismatch or per-request error — `--quick` is
//! the CI smoke gate.
//!
//! `stats` translates a program, lowers the certified graph to the dense
//! compiled runtime representation shared by both executors, and prints
//! its static footprint: table sizes (operator descriptors, destination
//! slots, immediates, macro micro-programs), total bytes, and the widest
//! hot-operator arity against the executors' inline rendezvous capacity.

use cf2df::cfg::{CoverStrategy, MemLayout};
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::machine::{run, run_traced, vonneumann, MachineConfig};
use std::io::Read as _;
use std::process::exit;

/// `print!` through [`cf2df::bench::write_stdout`]: a closed stdout ends
/// the output quietly instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        cf2df::bench::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`cf2df::bench::write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        cf2df::bench::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprint!` through [`cf2df::bench::write_stderr`]: a closed stderr
/// drops the diagnostic instead of panicking.
macro_rules! err {
    ($($arg:tt)*) => {
        cf2df::bench::write_stderr(format_args!($($arg)*))
    };
}

/// `eprintln!` through [`cf2df::bench::write_stderr`].
macro_rules! errln {
    ($($arg:tt)*) => {
        cf2df::bench::write_stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn usage() -> ! {
    errln!(
        "{}",
        include_str!("cf2df.rs")
            .lines()
            .skip(1)
            .take_while(|l| l.starts_with("//!"))
            .map(|l| l.trim_start_matches("//!").trim_start())
            .collect::<Vec<_>>()
            .join("\n")
    );
    exit(2)
}

fn load_source(arg: &str) -> String {
    if arg == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).unwrap_or_else(|e| {
            errln!("cannot read stdin: {e}");
            exit(2)
        });
        return s;
    }
    if let Some((_, src)) = cf2df::lang::corpus::all().iter().find(|(n, _)| *n == arg) {
        return (*src).to_owned();
    }
    std::fs::read_to_string(arg).unwrap_or_else(|e| {
        errln!("cannot read {arg}: {e} (and it is not a corpus program)");
        exit(2)
    })
}

struct Args {
    rest: Vec<String>,
}

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        if let Some(i) = self.rest.iter().position(|a| a == name) {
            self.rest.remove(i);
            true
        } else {
            false
        }
    }

    fn value(&mut self, name: &str) -> Option<String> {
        let i = self.rest.iter().position(|a| a == name)?;
        if i + 1 >= self.rest.len() {
            errln!("{name} needs a value");
            exit(2)
        }
        let v = self.rest.remove(i + 1);
        self.rest.remove(i);
        Some(v)
    }

    /// The value of `name` as a number.
    fn number<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        self.value(name).map(|v| number(name, &v))
    }
}

/// `v` as a number; one that does not parse is a usage error.
fn number<T: std::str::FromStr>(name: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        errln!("{name} needs a number, got {v:?}");
        exit(2)
    })
}

/// `n` as a count that must be positive (a worker count, an admission
/// window, a processor count, a latency); zero is a usage error.
fn positive<T: PartialEq + Default>(name: &str, n: T) -> T {
    if n == T::default() {
        errln!("{name} must be at least 1");
        exit(2)
    }
    n
}

fn parse_schema(args: &mut Args) -> TranslateOptions {
    let mut opts = if args.flag("--schema1") {
        TranslateOptions::schema1()
    } else if args.flag("--full") {
        TranslateOptions::full_parallel_schema3()
    } else if args.flag("--optimized") {
        TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true)
    } else if args.flag("--schema3") {
        TranslateOptions::schema3(CoverStrategy::AliasClasses)
    } else {
        args.flag("--schema2");
        TranslateOptions::schema3(CoverStrategy::Singletons)
    };
    if args.flag("--memelim") {
        opts = opts.with_memory_elimination(true);
    }
    if args.flag("--readpar") {
        opts = opts.with_read_parallelization(true);
    }
    if args.flag("--arraypar") {
        opts = opts.with_array_parallelization(true);
    }
    if args.flag("--forward") {
        opts = opts.with_store_forwarding(true);
    }
    if args.flag("--no-loop-control") {
        opts = opts.with_loop_control(false);
    }
    if args.flag("--no-fuse") {
        opts = opts.with_fuse(false);
    }
    if let Some(arrays) = args.value("--istructure") {
        opts = opts.with_istructure_arrays(arrays.split(','));
    }
    opts
}

fn parse_machine(args: &mut Args) -> MachineConfig {
    let mut mc = match args.number("--processors") {
        Some(p) => MachineConfig::with_processors(positive("--processors", p)),
        None => MachineConfig::unbounded(),
    };
    if let Some(l) = args.number("--mem-latency") {
        mc = mc.mem_latency(positive("--mem-latency", l));
    }
    if let Some(l) = args.number("--op-latency") {
        mc = mc.op_latency(positive("--op-latency", l));
    }
    mc
}

/// `cf2df bench`: render the three artifacts into `out_dir`, under the
/// names of the committed baselines.
fn run_bench(out_dir: &str) {
    use cf2df::bench::artifacts::{executor_artifact, pipeline_artifact, translate_artifact};

    std::fs::create_dir_all(out_dir).unwrap_or_else(|e| {
        errln!("cannot create {out_dir}: {e}");
        exit(2)
    });
    type Render = fn() -> Result<String, String>;
    let artifacts: [(&str, Render); 3] = [
        ("pipeline", pipeline_artifact),
        ("executor", || executor_artifact(true)),
        ("translate", translate_artifact),
    ];
    for (kind, render) in artifacts {
        let name = format!("BENCH_{kind}.json");
        let doc = render().unwrap_or_else(|e| {
            errln!("bench failed rendering {name}: {e}");
            exit(1)
        });
        let path = std::path::Path::new(out_dir).join(&name);
        std::fs::write(&path, doc + "\n").unwrap_or_else(|e| {
            errln!("cannot write {}: {e}", path.display());
            exit(2)
        });
        errln!("wrote {}", path.display());
    }
}

/// One cell of the chaos-campaign result table.
#[derive(Default)]
struct ChaosRow {
    ok: u64,
    panics: u64,
    leaks: u64,
    collisions: u64,
    tag_exhausted: u64,
    fuel: u64,
    watchdogs: u64,
    faults_injected: u64,
}

/// `cf2df chaos`: the seeded fault-injection campaign. Every run must
/// match the simulator or return a typed error; anything else is a
/// violation and the process exits 1.
fn run_chaos(mut args: Args) {
    use cf2df::machine::{
        compile, run_threaded_compiled_pooled_with, ChaosConfig, ExecutorPool, MachineError,
        ParConfig,
    };

    let quick = args.flag("--quick");
    let seeds: u64 = args.number("--seeds").unwrap_or(if quick { 2 } else { 8 });
    let workers: Vec<usize> = match args.value("--workers") {
        Some(w) => w
            .split(',')
            .map(|x| positive("--workers", number("--workers", x)))
            .collect(),
        None if quick => vec![2, 8],
        None => vec![1, 2, 4, 8],
    };
    let only: Option<Vec<String>> = args
        .value("--programs")
        .map(|p| p.split(',').map(str::to_owned).collect());
    let fuel: u64 = args.number("--fuel").unwrap_or(50_000_000);
    let watchdog_ms: u64 = args.number("--watchdog-ms").unwrap_or(5_000);
    if !args.rest.is_empty() {
        errln!("chaos: unrecognized arguments {:?}", args.rest);
        usage();
    }

    // Benign profiles must stay bit-for-bit equivalent to the
    // simulator; destructive ones (`ChaosConfig::is_destructive`) may
    // instead end in a typed error.
    type Profile = (&'static str, fn(u64) -> ChaosConfig);
    let profiles: [Profile; 6] = [
        ("off", ChaosConfig::off),
        ("perturb", ChaosConfig::perturb),
        ("panics", ChaosConfig::panics),
        ("drops", ChaosConfig::drops),
        ("dups", ChaosConfig::dups),
        ("mixed", ChaosConfig::mixed),
    ];
    let schemas: &[(&str, TranslateOptions)] = &if quick {
        vec![("schema2", TranslateOptions::schema2())]
    } else {
        vec![
            ("schema2", TranslateOptions::schema2()),
            ("full", TranslateOptions::full_parallel()),
        ]
    };

    // Injected operator panics are expected by the thousand; keep them
    // off stderr. Genuine panics still print through the previous hook.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.starts_with("chaos: "));
        if !injected {
            prev_hook(info);
        }
    }));

    let mut rows: Vec<ChaosRow> = profiles.iter().map(|_| ChaosRow::default()).collect();
    let mut violations: Vec<String> = Vec::new();
    let mut runs = 0u64;
    let started = std::time::Instant::now();

    // One persistent pool per worker count: panic containment must leave
    // the pool usable, so the whole campaign doubles as a reuse test.
    let pools: Vec<ExecutorPool> = workers.iter().map(|&w| ExecutorPool::new(w)).collect();

    for (name, src) in cf2df::lang::corpus::all() {
        if let Some(only) = &only {
            if !only.iter().any(|p| p == name) {
                continue;
            }
        }
        let parsed = cf2df::lang::parse_to_cfg(src).unwrap_or_else(|e| {
            errln!("corpus program {name} failed to parse: {e}");
            exit(1)
        });
        for (slabel, opts) in schemas {
            let t = match translate(&parsed.cfg, &parsed.alias, opts) {
                Ok(t) => t,
                // Stricter schemas reject a few corpus programs; the
                // executor would reject them identically.
                Err(_) => continue,
            };
            let layout = MemLayout::distinct(&t.cfg.vars);
            let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap_or_else(|e| {
                errln!("{slabel}/{name}: simulator oracle failed: {e}");
                exit(1)
            });
            let cg = compile(&t.dfg).unwrap_or_else(|e| {
                errln!("{slabel}/{name}: compile failed: {e}");
                exit(1)
            });
            for (pi, (plabel, make)) in profiles.iter().enumerate() {
                for seed in 0..seeds {
                    let chaos = make(seed);
                    for (wi, &w) in workers.iter().enumerate() {
                        let cfg = ParConfig {
                            fuel,
                            watchdog: Some(std::time::Duration::from_millis(watchdog_ms)),
                            chaos: Some(chaos),
                            ..ParConfig::default()
                        };
                        let (result, metrics, _) =
                            run_threaded_compiled_pooled_with(&cg, &layout, &pools[wi], &cfg);
                        runs += 1;
                        rows[pi].faults_injected += metrics.chaos.total();
                        let ctx =
                            || format!("{slabel}/{name} profile={plabel} seed={seed} workers={w}");
                        match result {
                            Ok(out) => {
                                rows[pi].ok += 1;
                                if out.memory != sim.memory
                                    || out.ist_memory != sim.ist_memory
                                    || out.fired != sim.stats.fired
                                {
                                    violations.push(format!(
                                        "{}: completed but diverged from simulator \
                                         (fired {} vs {})",
                                        ctx(),
                                        out.fired,
                                        sim.stats.fired
                                    ));
                                }
                            }
                            Err(e) => {
                                if !chaos.is_destructive() {
                                    violations
                                        .push(format!("{}: benign profile failed: {e}", ctx()));
                                }
                                match e {
                                    MachineError::WorkerPanicked { .. } => rows[pi].panics += 1,
                                    MachineError::TokenLeak { .. } => rows[pi].leaks += 1,
                                    MachineError::TokenCollision { .. } => rows[pi].collisions += 1,
                                    MachineError::TagSpaceExhausted { .. } => {
                                        rows[pi].tag_exhausted += 1
                                    }
                                    MachineError::FuelExhausted => rows[pi].fuel += 1,
                                    MachineError::WatchdogTimeout { .. } => rows[pi].watchdogs += 1,
                                    other => violations.push(format!(
                                        "{}: untyped/unexpected failure: {other}",
                                        ctx()
                                    )),
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    outln!(
        "{:<9} {:>6} {:>7} {:>6} {:>10} {:>5} {:>5} {:>9} {:>9}",
        "profile",
        "ok",
        "panics",
        "leaks",
        "collisions",
        "tags",
        "fuel",
        "watchdogs",
        "injected"
    );
    for (pi, (plabel, _)) in profiles.iter().enumerate() {
        let r = &rows[pi];
        outln!(
            "{:<9} {:>6} {:>7} {:>6} {:>10} {:>5} {:>5} {:>9} {:>9}",
            plabel,
            r.ok,
            r.panics,
            r.leaks,
            r.collisions,
            r.tag_exhausted,
            r.fuel,
            r.watchdogs,
            r.faults_injected
        );
    }
    for v in violations.iter().take(20) {
        errln!("VIOLATION: {v}");
    }
    if violations.len() > 20 {
        errln!("… and {} more", violations.len() - 20);
    }
    let secs = started.elapsed().as_secs_f64();
    if violations.is_empty() {
        outln!(
            "chaos: {runs} runs clean in {secs:.1}s (seeds={seeds}, workers={workers:?}): \
             every run matched the simulator or returned a typed error"
        );
    } else {
        errln!("chaos: {} violation(s) in {runs} runs", violations.len());
        exit(1)
    }
}

/// `cf2df serve`: run the concurrent multi-invocation engine over one
/// program and verify every request against the deterministic simulator.
/// Doubles as the CI smoke gate for the tag-space-multiplexed executor
/// (`--quick`).
fn run_serve(mut args: Args) {
    use cf2df::machine::serve::run_concurrent;
    use cf2df::machine::{compile, ExecutorPool, ParConfig};

    let quick = args.flag("--quick");
    let requests: usize = args
        .number("--requests")
        .unwrap_or(if quick { 32 } else { 256 });
    let inflight = positive("--inflight", args.number("--inflight").unwrap_or(4));
    let workers = positive("--workers", args.number("--workers").unwrap_or(4));
    let opts = parse_schema(&mut args);
    let program = if args.rest.is_empty() {
        "running_example".to_owned()
    } else {
        args.rest.remove(0)
    };
    if !args.rest.is_empty() {
        errln!("serve: unrecognized arguments {:?}", args.rest);
        usage();
    }

    let src = load_source(&program);
    let parsed = cf2df::lang::parse_to_cfg(&src).unwrap_or_else(|e| {
        errln!("parse error: {e}");
        exit(1)
    });
    let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap_or_else(|e| {
        errln!("translation error: {e}");
        exit(1)
    });
    let layout = MemLayout::distinct(&t.cfg.vars);
    let cg = compile(&t.dfg).unwrap_or_else(|e| {
        errln!("compile error: {e}");
        exit(1)
    });
    let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap_or_else(|e| {
        errln!("{program}: simulator oracle failed: {e}");
        exit(1)
    });

    let cfg = ParConfig {
        // A session-wide bound so a wedged smoke run fails instead of
        // hanging CI.
        watchdog: Some(std::time::Duration::from_secs(60)),
        ..ParConfig::default()
    };
    let pool = ExecutorPool::new(workers);
    let started = std::time::Instant::now();
    let (results, stats) = run_concurrent(&cg, &layout, &pool, inflight, &cfg, requests);
    let secs = started.elapsed().as_secs_f64();

    let mut mismatches = 0usize;
    for (req, r) in results.iter().enumerate() {
        match r {
            Ok(out) => {
                if out.memory != sim.memory
                    || out.ist_memory != sim.ist_memory
                    || out.fired != sim.stats.fired
                {
                    errln!(
                        "MISMATCH: request {req} diverged from simulator (fired {} vs {})",
                        out.fired,
                        sim.stats.fired
                    );
                    mismatches += 1;
                }
            }
            Err(e) => {
                errln!("FAILED: request {req}: {e}");
                mismatches += 1;
            }
        }
    }
    outln!("{}", stats.summary());
    outln!(
        "serve: {program}: {requests} requests on {workers} workers (inflight {inflight}) \
         in {secs:.3}s = {:.0} req/s",
        requests as f64 / secs
    );
    if mismatches > 0 {
        errln!("serve: {mismatches} of {requests} requests wrong");
        exit(1)
    }
}

/// The certification matrix `cf2df validate corpus` sweeps: Schemas 1–3
/// with both cover strategies, optimized construction off and on.
fn validate_matrix() -> Vec<(&'static str, TranslateOptions)> {
    vec![
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
    ]
}

/// One `validate` unit of work: certify `label`'s translation and print
/// the report. Returns the clean graph for the mutation slice, or `None`
/// (having recorded the defect) when certification failed.
fn validate_one(
    label: &str,
    parsed: &cf2df::lang::Parsed,
    opts: &TranslateOptions,
    json: bool,
    failures: &mut Vec<String>,
) -> Option<cf2df::dfg::Dfg> {
    use cf2df::core::TranslateError;
    let (report, dfg) = match translate(&parsed.cfg, &parsed.alias, opts) {
        Ok(t) => (t.certify.expect("certify pass ran"), Some(t.dfg)),
        Err(TranslateError::Certify(report)) => (*report, None),
        Err(e) => {
            failures.push(format!("{label}: translation error: {e}"));
            if !json {
                outln!("{label}: translation error: {e}");
            }
            return None;
        }
    };
    if json {
        print_report_json(label, &report);
    } else {
        outln!("{label}: {report}");
    }
    if report.is_clean() {
        dfg
    } else {
        failures.push(format!("{label}: {} defects", report.defect_count()));
        None
    }
}

/// One `validate --json` line for a certified target.
fn print_report_json(target: &str, report: &cf2df::core::CertifyReport) {
    let mut o = cf2df::bench::json::Obj::new();
    o.str("target", target).raw("report", &report.to_json());
    outln!("{}", o.finish());
}

/// The seeded mutation slice: inject every mutation class × `seeds`
/// seeds into a certified-clean graph; each applied mutation must be
/// detected by the graph-level certifier. With `json`, prints one line
/// per applied mutation carrying the defects the certifier reported.
fn mutation_slice(
    label: &str,
    dfg: &cf2df::dfg::Dfg,
    seeds: u64,
    json: bool,
    counts: &mut std::collections::BTreeMap<&'static str, (u64, u64)>,
    failures: &mut Vec<String>,
) {
    use cf2df::dfg::{certify, mutate, MutationClass};
    for class in MutationClass::ALL {
        for seed in 0..seeds {
            let mut g = dfg.clone();
            let Some(m) = mutate(&mut g, class, seed) else {
                continue;
            };
            let row = counts.entry(class.name()).or_insert((0, 0));
            row.0 += 1;
            let defects = certify(&g).err().unwrap_or_default();
            let detected = !defects.is_empty();
            if json {
                let report = cf2df::core::CertifyReport {
                    graph_defects: defects,
                    ..Default::default()
                };
                let mut o = cf2df::bench::json::Obj::new();
                o.str("target", label)
                    .str("class", class.name())
                    .num("seed", seed)
                    .bool("detected", detected)
                    .raw("report", &report.to_json());
                outln!("{}", o.finish());
            }
            if detected {
                row.1 += 1;
            } else {
                failures.push(format!(
                    "{label}: {} seed {seed} UNDETECTED: {}",
                    class.name(),
                    m.description
                ));
            }
        }
    }
}

/// `cf2df validate`: the static translation validator as a command.
fn run_validate(mut args: Args) {
    let json = args.flag("--json");
    let mutations = args.flag("--mutations");
    let seeds: u64 = args.number("--seeds").unwrap_or(4);
    let opts = parse_schema(&mut args);
    if !opts.loop_control {
        errln!(
            "validate: --no-loop-control leaves nothing to certify (certify needs loop control)"
        );
        usage();
    }
    if args.rest.len() != 1 {
        errln!("validate takes exactly one target (a file, corpus name, or `corpus`)");
        usage();
    }
    let target = args.rest.remove(0);

    let mut failures: Vec<String> = Vec::new();
    let mut counts: std::collections::BTreeMap<&'static str, (u64, u64)> =
        std::collections::BTreeMap::new();
    let mut certified = 0usize;

    if target.ends_with(".dfg") {
        // Graph file: graph-level obligations only (no CFG to check
        // switch placement or conservation against).
        let text = std::fs::read_to_string(&target).unwrap_or_else(|e| {
            errln!("cannot read {target}: {e}");
            exit(2)
        });
        let (g, _vars) = cf2df::dfg::io::read_module(&text).unwrap_or_else(|e| {
            errln!("bad graph file: {e}");
            exit(1)
        });
        let report = cf2df::core::CertifyReport {
            graph_defects: cf2df::dfg::certify(&g).err().unwrap_or_default(),
            ..Default::default()
        };
        if json {
            print_report_json(&target, &report);
        } else {
            outln!("{target}: {report}");
        }
        if report.is_clean() {
            certified += 1;
            if mutations {
                mutation_slice(&target, &g, seeds, json, &mut counts, &mut failures);
            }
        } else {
            failures.push(format!("{target}: {} defects", report.defect_count()));
        }
    } else if target == "corpus" {
        for (name, src) in cf2df::lang::corpus::all() {
            let parsed = cf2df::lang::parse_to_cfg(src).unwrap_or_else(|e| {
                errln!("corpus program {name} failed to parse: {e}");
                exit(1)
            });
            for (slabel, opts) in validate_matrix() {
                let label = format!("{name}/{slabel}");
                if let Some(dfg) = validate_one(&label, &parsed, &opts, json, &mut failures) {
                    certified += 1;
                    if mutations {
                        mutation_slice(&label, &dfg, seeds, json, &mut counts, &mut failures);
                    }
                }
            }
        }
    } else {
        let src = load_source(&target);
        let parsed = cf2df::lang::parse_to_cfg(&src).unwrap_or_else(|e| {
            errln!("parse error: {e}");
            exit(1)
        });
        if let Some(dfg) = validate_one(&target, &parsed, &opts, json, &mut failures) {
            certified += 1;
            if mutations {
                mutation_slice(&target, &dfg, seeds, json, &mut counts, &mut failures);
            }
        }
    }

    if mutations && !json {
        outln!(
            "{:<24} {:>8} {:>9}",
            "mutation class",
            "applied",
            "detected"
        );
        for (class, (applied, detected)) in &counts {
            outln!("{class:<24} {applied:>8} {detected:>9}");
        }
    }
    for f in failures.iter().take(20) {
        errln!("DEFECT: {f}");
    }
    if failures.len() > 20 {
        errln!("… and {} more", failures.len() - 20);
    }
    if failures.is_empty() {
        if !json {
            let injected: u64 = counts.values().map(|&(a, _)| a).sum();
            let tail = if mutations {
                format!(", {injected} injected mutations all detected")
            } else {
                String::new()
            };
            outln!("validate: {certified} translation(s) certified clean{tail}");
        }
    } else {
        errln!(
            "validate: {} defect(s) across {certified} clean translation(s)",
            failures.len()
        );
        exit(1)
    }
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let cmd = argv.remove(0);
    if cmd == "validate" {
        run_validate(Args { rest: argv });
        return;
    }
    if cmd == "chaos" {
        run_chaos(Args { rest: argv });
        return;
    }
    if cmd == "serve" {
        run_serve(Args { rest: argv });
        return;
    }
    if cmd == "bench" {
        let mut args = Args { rest: argv };
        let out_dir = args.value("--out-dir").unwrap_or_else(|| ".".to_owned());
        if !args.rest.is_empty() {
            errln!("bench: unrecognized arguments {:?}", args.rest);
            usage();
        }
        run_bench(&out_dir);
        return;
    }
    if argv.is_empty() {
        usage();
    }
    let file = argv.remove(0);
    let mut args = Args { rest: argv };
    if cmd == "run-graph" {
        let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
            errln!("cannot read {file}: {e}");
            exit(2)
        });
        let (g, vars) = cf2df::dfg::io::read_module(&text).unwrap_or_else(|e| {
            errln!("bad graph file: {e}");
            exit(1)
        });
        let mc = parse_machine(&mut args);
        let layout = MemLayout::distinct(&vars);
        let out = run(&g, &layout, mc).unwrap_or_else(|e| {
            errln!("machine fault: {e}");
            exit(1)
        });
        outln!("{}", out.stats.summary());
        for v in vars.ids() {
            let base = layout.base(v) as usize;
            outln!("  {} = {}", vars.name(v), out.memory[base]);
        }
        return;
    }
    let src = load_source(&file);
    let parsed = cf2df::lang::parse_to_cfg(&src).unwrap_or_else(|e| {
        errln!("parse error: {e}");
        exit(1)
    });

    match cmd.as_str() {
        "cfg" => {
            if args.flag("--dot") {
                out!("{}", cf2df::cfg::dot::cfg_to_dot(&parsed.cfg, &file));
            } else {
                out!("{}", parsed.cfg.pretty());
            }
        }
        "translate" => {
            let opts = parse_schema(&mut args);
            let dot = args.flag("--dot");
            let time_passes = args.flag("--time-passes");
            let emit = args.value("--emit");
            let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap_or_else(|e| {
                errln!("translation error: {e}");
                exit(1)
            });
            if time_passes {
                err!("{}", cf2df::core::render_pass_table(&t.passes));
            }
            errln!("{}", t.stats.summary());
            if let Some(path) = emit {
                let text = cf2df::dfg::io::write_module(&t.dfg, &t.cfg.vars);
                std::fs::write(&path, text).unwrap_or_else(|e| {
                    errln!("cannot write {path}: {e}");
                    exit(2)
                });
                errln!("wrote {path}");
            } else if dot {
                out!("{}", cf2df::dfg::dot::dfg_to_dot(&t.dfg, &file));
            } else {
                out!("{}", t.dfg.pretty());
            }
        }
        "run" => {
            let opts = parse_schema(&mut args);
            let mc = parse_machine(&mut args);
            let want_trace = args.flag("--trace");
            let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap_or_else(|e| {
                errln!("translation error: {e}");
                exit(1)
            });
            let layout = MemLayout::distinct(&t.cfg.vars);
            let out = if want_trace {
                let (out, trace) = run_traced(&t.dfg, &layout, mc).unwrap_or_else(|e| {
                    errln!("machine fault: {e}");
                    exit(1)
                });
                out!("{}", trace.timeline(&t.dfg));
                out
            } else {
                run(&t.dfg, &layout, mc).unwrap_or_else(|e| {
                    errln!("machine fault: {e}");
                    exit(1)
                })
            };
            outln!("{}", out.stats.summary());
            for v in t.cfg.vars.ids() {
                let base = layout.base(v) as usize;
                let cells = layout.cells(v) as usize;
                if cells == 1 {
                    outln!("  {} = {}", t.cfg.vars.name(v), out.memory[base]);
                } else {
                    let slice: Vec<i64> = out.memory[base..base + cells].to_vec();
                    let ist: Vec<i64> = out.ist_memory[base..base + cells].to_vec();
                    let shown = if ist.iter().any(|&x| x != 0) {
                        ist
                    } else {
                        slice
                    };
                    outln!("  {} = {:?}", t.cfg.vars.name(v), shown);
                }
            }
        }
        "stats" => {
            let opts = parse_schema(&mut args);
            let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap_or_else(|e| {
                errln!("translation error: {e}");
                exit(1)
            });
            let cg = cf2df::machine::compile(&t.dfg).unwrap_or_else(|e| {
                errln!("compile error: {e}");
                exit(1)
            });
            let f = cg.footprint();
            outln!("{}", t.stats.summary());
            outln!("compiled footprint:");
            outln!("  operator descriptors {:>8}", f.ops);
            outln!("  output ports         {:>8}", f.out_ports);
            outln!("  destination slots    {:>8}", f.dest_slots);
            outln!("  immediate slots      {:>8}", f.imm_slots);
            outln!("  macro steps          {:>8}", f.macro_steps);
            outln!("  table bytes          {:>8}", f.bytes);
            outln!(
                "  max hot arity        {:>8}  (inline capacity {})",
                cg.max_hot_arity(),
                cf2df::machine::compiled::INLINE_VALS
            );
        }
        "compare" => {
            let mc = parse_machine(&mut args);
            let layout = MemLayout::distinct(&parsed.cfg.vars);
            let base = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap_or_else(|e| {
                errln!("baseline fault: {e}");
                exit(1)
            });
            outln!(
                "{:<12} {:>9} {:>9} {:>9} {:>9}",
                "config",
                "fired",
                "makespan",
                "avg-par",
                "speedup"
            );
            outln!(
                "{:<12} {:>9} {:>9} {:>9.2} {:>8.2}x",
                "sequential",
                base.stats.fired,
                base.stats.makespan,
                1.0,
                1.0
            );
            for (label, opts) in [
                ("schema1", TranslateOptions::schema1()),
                (
                    "schema2",
                    TranslateOptions::schema3(CoverStrategy::Singletons),
                ),
                (
                    "optimized",
                    TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
                ),
                ("full", TranslateOptions::full_parallel_schema3()),
            ] {
                let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap_or_else(|e| {
                    errln!("translation error ({label}): {e}");
                    exit(1)
                });
                let out = run(&t.dfg, &layout, mc.clone()).unwrap_or_else(|e| {
                    errln!("machine fault ({label}): {e}");
                    exit(1)
                });
                if out.memory != base.memory {
                    errln!("{label}: MEMORY MISMATCH vs sequential semantics");
                    exit(1)
                }
                outln!(
                    "{:<12} {:>9} {:>9} {:>9.2} {:>8.2}x",
                    label,
                    out.stats.fired,
                    out.stats.makespan,
                    out.stats.avg_parallelism(),
                    base.stats.makespan as f64 / out.stats.makespan as f64
                );
            }
        }
        _ => usage(),
    }
}
