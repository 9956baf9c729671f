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
//! cf2df bench      [--out-dir <dir>] [--no-fuse]
//! cf2df check-bench <artifact.json> [<artifact.json>…] | <new.json> --compare <old.json>
//! cf2df fuse-check [--workers <n>]
//! cf2df chaos      [--quick] [--seeds <n>] [--workers <a,b,…>]
//!                  [--programs <p1,p2,…>] [--fuel <n>] [--watchdog-ms <n>]
//! cf2df serve      [--requests <n>] [--inflight <k>] [--workers <w>]
//!                  [--quick] [SCHEMA] [TRANSFORMS] [program]
//!
//! SCHEMA:     --schema1 | --schema2 (default) | --schema3 | --optimized | --full
//! TRANSFORMS: --memelim --readpar --arraypar --forward --no-loop-control
//!             --no-fuse --istructure <array>[,<array>…]
//! MACHINE:    --processors <n> --mem-latency <n> --op-latency <n>
//! ```
//!
//! `<file.imp>` may be `-` for stdin, or the name of a built-in corpus
//! program (e.g. `running_example`, `stencil`).
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
//! corpus program name) is certified under the schema flags; a `.dfg`
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
//! count) and `BENCH_translate.json` (the pass manager's pass, cache and
//! graph-size counters). Nothing in them is timed, so two runs write
//! byte-identical files, and `bench` in the repository root followed by
//! `git diff` regenerates the baselines. `--no-fuse` benches with
//! macro-op fusion disabled, for the fused-vs-unfused contrast. `check-bench` validates artifact files
//! against the schema. With `--compare OLD.json` it also compares the
//! (single) new artifact with `OLD.json` through one table of
//! deterministic counters (fired, tokens, operators, arcs, analyses
//! computed, …): every counter must be equal and every row present on
//! both sides. When exactly one side is fused, the fusion gate replaces
//! equality: every `loop_nest` row must process at least 25% fewer
//! tokens fused. Wall-clock is judged in alternating pairs of the
//! end-to-end benchmark (`e2ebench/`).
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
//!
//! `fuse-check` is the macro-op fusion equivalence gate: every corpus
//! program is translated fused and unfused under each schema, both
//! graphs run through the simulator (and a threaded spot-check), and the
//! run fails unless final memory is identical and the firing accounting
//! balances exactly (`fired_unfused == fired_fused + ops_elided`).

use cf2df::cfg::{CoverStrategy, MemLayout};
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::machine::{run, run_traced, vonneumann, MachineConfig};
use std::io::Read as _;
use std::process::exit;

fn usage() -> ! {
    eprintln!("{}", include_str!("cf2df.rs").lines()
        .skip(1)
        .take_while(|l| l.starts_with("//!"))
        .map(|l| l.trim_start_matches("//!").trim_start())
        .collect::<Vec<_>>()
        .join("\n"));
    exit(2)
}

fn load_source(arg: &str) -> String {
    if arg == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).expect("readable stdin");
        return s;
    }
    if let Some((_, src)) = cf2df::lang::corpus::all().iter().find(|(n, _)| *n == arg) {
        return (*src).to_owned();
    }
    std::fs::read_to_string(arg).unwrap_or_else(|e| {
        eprintln!("cannot read {arg}: {e} (and it is not a corpus program)");
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
            eprintln!("{name} needs a value");
            exit(2)
        }
        let v = self.rest.remove(i + 1);
        self.rest.remove(i);
        Some(v)
    }
}

fn parse_schema(args: &mut Args) -> TranslateOptions {
    let mut opts = if args.flag("--schema1") {
        TranslateOptions::schema1()
    } else if args.flag("--full") {
        TranslateOptions::full_parallel_schema3()
    } else if args.flag("--optimized") {
        TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true)
    } else if args.flag("--schema3") {
        TranslateOptions::schema3(CoverStrategy::Singletons)
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
    let mut mc = match args.value("--processors") {
        Some(p) => MachineConfig::with_processors(p.parse().expect("numeric --processors")),
        None => MachineConfig::unbounded(),
    };
    if let Some(l) = args.value("--mem-latency") {
        mc = mc.mem_latency(l.parse().expect("numeric --mem-latency"));
    }
    if let Some(l) = args.value("--op-latency") {
        mc = mc.op_latency(l.parse().expect("numeric --op-latency"));
    }
    mc
}

/// `cf2df bench`: render the three artifacts into `out_dir`, under the
/// names of the committed baselines.
fn run_bench(fuse: bool, out_dir: &str) {
    std::fs::create_dir_all(out_dir).unwrap_or_else(|e| {
        eprintln!("cannot create {out_dir}: {e}");
        exit(2)
    });
    type Render = fn(bool) -> Result<String, String>;
    let artifacts: [(&str, Render); 3] = [
        ("pipeline", cf2df::bench::artifacts::pipeline_artifact),
        ("executor", cf2df::bench::artifacts::executor_artifact),
        ("translate", cf2df::bench::artifacts::translate_artifact),
    ];
    for (kind, render) in artifacts {
        let name = format!("BENCH_{kind}.json");
        let doc = render(fuse).unwrap_or_else(|e| {
            eprintln!("bench failed rendering {name}: {e}");
            exit(1)
        });
        let path = std::path::Path::new(out_dir).join(&name);
        std::fs::write(&path, doc + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            exit(2)
        });
        eprintln!("wrote {}", path.display());
    }
}

/// `cf2df fuse-check`: the macro-op fusion equivalence gate. Every
/// corpus program is translated with fusion on and off under each
/// schema; both graphs run through the deterministic simulator and must
/// produce identical final memory, with the firing accounting balancing
/// exactly: `fired_unfused == fired_fused + ops_elided`. A threaded
/// spot-check (default 4 workers) guards the parallel backend's
/// compound-firing path. Exits non-zero on the first mismatch.
fn run_fuse_check(mut args: Args) {
    use cf2df::machine::parallel::run_threaded;

    let workers: usize = args
        .value("--workers")
        .map(|w| w.parse().expect("numeric --workers"))
        .unwrap_or(4);
    if !args.rest.is_empty() {
        eprintln!("fuse-check: unrecognized arguments {:?}", args.rest);
        usage();
    }

    let schemas: [(&str, TranslateOptions); 3] = [
        ("schema1", TranslateOptions::schema1()),
        ("schema2", TranslateOptions::schema2()),
        ("full", TranslateOptions::full_parallel_schema3()),
    ];
    let mut failures: Vec<String> = Vec::new();
    let mut checked = 0usize;
    let mut fired_total = (0u64, 0u64); // (unfused, fused)

    for (name, src) in cf2df::lang::corpus::all() {
        let parsed = cf2df::lang::parse_to_cfg(src).unwrap_or_else(|e| {
            eprintln!("corpus program {name} failed to parse: {e}");
            exit(1)
        });
        for (slabel, opts) in &schemas {
            let ctx = format!("{name}/{slabel}");
            let fused = match translate(&parsed.cfg, &parsed.alias, opts) {
                Ok(t) => t,
                Err(_) => continue, // stricter schemas reject some programs
            };
            let unfused = translate(
                &parsed.cfg,
                &parsed.alias,
                &opts.clone().with_fuse(false),
            )
            .unwrap_or_else(|e| {
                eprintln!("{ctx}: unfused translation failed: {e}");
                exit(1)
            });
            let layout = MemLayout::distinct(&fused.cfg.vars);
            let run_sim = |dfg, label: &str| {
                run(dfg, &layout, MachineConfig::unbounded()).unwrap_or_else(|e| {
                    eprintln!("{ctx}: {label} simulation failed: {e}");
                    exit(1)
                })
            };
            let fo = run_sim(&fused.dfg, "fused");
            let uo = run_sim(&unfused.dfg, "unfused");
            checked += 1;
            fired_total.0 += uo.stats.fired;
            fired_total.1 += fo.stats.fired;
            if fo.memory != uo.memory || fo.ist_memory != uo.ist_memory {
                failures.push(format!("{ctx}: fusion changed observable memory"));
                continue;
            }
            if uo.stats.fired != fo.stats.fired + fo.stats.ops_elided {
                failures.push(format!(
                    "{ctx}: firing accounting broken: unfused {} != fused {} + elided {}",
                    uo.stats.fired, fo.stats.fired, fo.stats.ops_elided
                ));
                continue;
            }
            // Threaded spot-check: the compound-firing path in the
            // parallel backend must agree with the simulator.
            match run_threaded(&fused.dfg, &layout, workers) {
                Ok(par) => {
                    if par.memory != uo.memory
                        || par.ist_memory != uo.ist_memory
                        || par.fired != fo.stats.fired
                    {
                        failures.push(format!(
                            "{ctx}: threaded fused run diverged at {workers} workers"
                        ));
                    }
                }
                Err(e) => {
                    failures.push(format!("{ctx}: threaded fused run failed: {e}"))
                }
            }
        }
    }

    for f in failures.iter().take(20) {
        eprintln!("MISMATCH: {f}");
    }
    if failures.is_empty() {
        println!(
            "fuse-check: {checked} program×schema combinations equivalent \
             (fired {} unfused -> {} fused)",
            fired_total.0, fired_total.1
        );
    } else {
        eprintln!("fuse-check: {} mismatch(es) across {checked} combinations", failures.len());
        exit(1)
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
    let seeds: u64 = args
        .value("--seeds")
        .map(|s| s.parse().expect("numeric --seeds"))
        .unwrap_or(if quick { 2 } else { 8 });
    let workers: Vec<usize> = match args.value("--workers") {
        Some(w) => w
            .split(',')
            .map(|x| x.parse().expect("numeric --workers list"))
            .collect(),
        None if quick => vec![2, 8],
        None => vec![1, 2, 4, 8],
    };
    let only: Option<Vec<String>> = args
        .value("--programs")
        .map(|p| p.split(',').map(str::to_owned).collect());
    let fuel: u64 = args
        .value("--fuel")
        .map(|s| s.parse().expect("numeric --fuel"))
        .unwrap_or(50_000_000);
    let watchdog_ms: u64 = args
        .value("--watchdog-ms")
        .map(|s| s.parse().expect("numeric --watchdog-ms"))
        .unwrap_or(5_000);
    if !args.rest.is_empty() {
        eprintln!("chaos: unrecognized arguments {:?}", args.rest);
        usage();
    }

    type Profile = (&'static str, bool, fn(u64) -> ChaosConfig);
    // (name, destructive?, constructor). Benign profiles must stay
    // bit-for-bit equivalent to the simulator; destructive ones may
    // instead end in a typed error.
    let profiles: [Profile; 6] = [
        ("off", false, ChaosConfig::off),
        ("perturb", false, ChaosConfig::perturb),
        ("panics", true, ChaosConfig::panics),
        ("drops", true, ChaosConfig::drops),
        ("dups", true, ChaosConfig::dups),
        ("mixed", true, ChaosConfig::mixed),
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
            eprintln!("corpus program {name} failed to parse: {e}");
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
                eprintln!("{slabel}/{name}: simulator oracle failed: {e}");
                exit(1)
            });
            let cg = compile(&t.dfg).unwrap_or_else(|e| {
                eprintln!("{slabel}/{name}: compile failed: {e}");
                exit(1)
            });
            for (pi, (plabel, destructive, make)) in profiles.iter().enumerate() {
                for seed in 0..seeds {
                    for (wi, &w) in workers.iter().enumerate() {
                        let cfg = ParConfig {
                            fuel,
                            watchdog: Some(std::time::Duration::from_millis(watchdog_ms)),
                            chaos: Some(make(seed)),
                            ..ParConfig::default()
                        };
                        let (result, metrics, _) =
                            run_threaded_compiled_pooled_with(&cg, &layout, &pools[wi], &cfg);
                        runs += 1;
                        rows[pi].faults_injected += metrics.chaos.total();
                        let ctx = || format!("{slabel}/{name} profile={plabel} seed={seed} workers={w}");
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
                                if !destructive {
                                    violations.push(format!(
                                        "{}: benign profile failed: {e}",
                                        ctx()
                                    ));
                                }
                                match e {
                                    MachineError::WorkerPanicked { .. } => rows[pi].panics += 1,
                                    MachineError::TokenLeak { .. } => rows[pi].leaks += 1,
                                    MachineError::TokenCollision { .. } => {
                                        rows[pi].collisions += 1
                                    }
                                    MachineError::TagSpaceExhausted { .. } => {
                                        rows[pi].tag_exhausted += 1
                                    }
                                    MachineError::FuelExhausted => rows[pi].fuel += 1,
                                    MachineError::WatchdogTimeout { .. } => {
                                        rows[pi].watchdogs += 1
                                    }
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

    println!(
        "{:<9} {:>6} {:>7} {:>6} {:>10} {:>5} {:>5} {:>9} {:>9}",
        "profile", "ok", "panics", "leaks", "collisions", "tags", "fuel", "watchdogs", "injected"
    );
    for (pi, (plabel, _, _)) in profiles.iter().enumerate() {
        let r = &rows[pi];
        println!(
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
        eprintln!("VIOLATION: {v}");
    }
    if violations.len() > 20 {
        eprintln!("… and {} more", violations.len() - 20);
    }
    let secs = started.elapsed().as_secs_f64();
    if violations.is_empty() {
        println!(
            "chaos: {runs} runs clean in {secs:.1}s (seeds={seeds}, workers={workers:?}): \
             every run matched the simulator or returned a typed error"
        );
    } else {
        eprintln!("chaos: {} violation(s) in {runs} runs", violations.len());
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
        .value("--requests")
        .map(|s| s.parse().expect("numeric --requests"))
        .unwrap_or(if quick { 32 } else { 256 });
    let inflight: usize = args
        .value("--inflight")
        .map(|s| s.parse().expect("numeric --inflight"))
        .unwrap_or(4);
    let workers: usize = args
        .value("--workers")
        .map(|s| s.parse().expect("numeric --workers"))
        .unwrap_or(4);
    let opts = parse_schema(&mut args);
    let program = if args.rest.is_empty() {
        "running_example".to_owned()
    } else {
        args.rest.remove(0)
    };
    if !args.rest.is_empty() {
        eprintln!("serve: unrecognized arguments {:?}", args.rest);
        usage();
    }

    let src = load_source(&program);
    let parsed = cf2df::lang::parse_to_cfg(&src).unwrap_or_else(|e| {
        eprintln!("parse error: {e}");
        exit(1)
    });
    let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap_or_else(|e| {
        eprintln!("translation error: {e}");
        exit(1)
    });
    let layout = MemLayout::distinct(&t.cfg.vars);
    let cg = compile(&t.dfg).unwrap_or_else(|e| {
        eprintln!("compile error: {e}");
        exit(1)
    });
    let sim = run(&t.dfg, &layout, MachineConfig::unbounded()).unwrap_or_else(|e| {
        eprintln!("{program}: simulator oracle failed: {e}");
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
                    eprintln!(
                        "MISMATCH: request {req} diverged from simulator (fired {} vs {})",
                        out.fired, sim.stats.fired
                    );
                    mismatches += 1;
                }
            }
            Err(e) => {
                eprintln!("FAILED: request {req}: {e}");
                mismatches += 1;
            }
        }
    }
    println!("{}", stats.summary());
    println!(
        "serve: {program}: {requests} requests on {workers} workers (inflight {inflight}) \
         in {secs:.3}s = {:.0} req/s",
        requests as f64 / secs
    );
    if mismatches > 0 {
        eprintln!("serve: {mismatches} of {requests} requests wrong");
        exit(1)
    }
}

/// The certification matrix `cf2df validate corpus` sweeps: Schemas 1–3
/// with both cover strategies, optimized construction off and on.
fn validate_matrix() -> Vec<(&'static str, TranslateOptions)> {
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
    let opts = opts.clone().with_certify(true);
    let (report, dfg) = match translate(&parsed.cfg, &parsed.alias, &opts) {
        Ok(t) => (t.certify.clone().expect("certify pass ran"), Some(t.dfg)),
        Err(TranslateError::Certify(report)) => (*report, None),
        Err(e) => {
            failures.push(format!("{label}: translation error: {e}"));
            if !json {
                println!("{label}: translation error: {e}");
            }
            return None;
        }
    };
    if json {
        print_report_json(label, &report);
    } else {
        println!("{label}: {report}");
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
    println!("{}", o.finish());
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
                println!("{}", o.finish());
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
    let seeds: u64 = args
        .value("--seeds")
        .map(|s| s.parse().expect("numeric --seeds"))
        .unwrap_or(4);
    let opts = parse_schema(&mut args);
    if args.rest.len() != 1 {
        eprintln!("validate takes exactly one target (a file, corpus name, or `corpus`)");
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
            eprintln!("cannot read {target}: {e}");
            exit(2)
        });
        let (g, _vars) = cf2df::dfg::io::read_module(&text).unwrap_or_else(|e| {
            eprintln!("bad graph file: {e}");
            exit(1)
        });
        let report = cf2df::core::CertifyReport {
            graph_defects: cf2df::dfg::certify(&g).err().unwrap_or_default(),
            ..Default::default()
        };
        if json {
            print_report_json(&target, &report);
        } else {
            println!("{target}: {report}");
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
                eprintln!("corpus program {name} failed to parse: {e}");
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
            eprintln!("parse error: {e}");
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
        println!("{:<24} {:>8} {:>9}", "mutation class", "applied", "detected");
        for (class, (applied, detected)) in &counts {
            println!("{class:<24} {applied:>8} {detected:>9}");
        }
    }
    for f in failures.iter().take(20) {
        eprintln!("DEFECT: {f}");
    }
    if failures.len() > 20 {
        eprintln!("… and {} more", failures.len() - 20);
    }
    if failures.is_empty() {
        if !json {
            let injected: u64 = counts.values().map(|&(a, _)| a).sum();
            let tail = if mutations {
                format!(", {injected} injected mutations all detected")
            } else {
                String::new()
            };
            println!("validate: {certified} translation(s) certified clean{tail}");
        }
    } else {
        eprintln!("validate: {} defect(s) across {certified} clean translation(s)", failures.len());
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
        let fuse = !args.flag("--no-fuse");
        let out_dir = args.value("--out-dir").unwrap_or_else(|| ".".to_owned());
        if !args.rest.is_empty() {
            eprintln!("bench: unrecognized arguments {:?}", args.rest);
            usage();
        }
        run_bench(fuse, &out_dir);
        return;
    }
    if cmd == "fuse-check" {
        run_fuse_check(Args { rest: argv });
        return;
    }
    if cmd == "check-bench" {
        let mut args = Args { rest: argv };
        let baseline = args.value("--compare");
        if args.rest.is_empty() || (baseline.is_some() && args.rest.len() != 1) {
            usage();
        }
        let docs: Vec<(&String, String)> = args
            .rest
            .iter()
            .chain(&baseline)
            .map(|p| {
                let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
                    eprintln!("cannot read {p}: {e}");
                    exit(2)
                });
                (p, text)
            })
            .collect();
        // Every artifact read, a baseline included, must validate.
        for (path, text) in &docs {
            if let Err(e) = cf2df::bench::artifacts::validate_artifact(text) {
                eprintln!("{path}: INVALID: {e}");
                exit(1)
            }
            println!("{path}: ok");
        }
        if let (Some(_), [(new_path, new_text), (old_path, old_text)]) = (&baseline, &docs[..]) {
            let cmp = cf2df::bench::compare::compare_artifacts(old_text, new_text)
                .unwrap_or_else(|e| {
                    eprintln!("compare failed: {e}");
                    exit(1)
                });
            cmp.failures.iter().for_each(|f| eprintln!("{new_path}: {f}"));
            let what = if cmp.fusion {
                format!("{} rows checked by the fusion gate", cmp.compared)
            } else {
                format!("{} {} values compared exactly", cmp.compared, cmp.kind)
            };
            if !cmp.failures.is_empty() {
                eprintln!(
                    "{new_path}: {} FAILURE(S) vs {old_path}: {what}",
                    cmp.failures.len()
                );
                exit(1)
            }
            println!("{new_path}: ok vs {old_path}: {what}");
        }
        return;
    }
    if argv.is_empty() {
        usage();
    }
    let file = argv.remove(0);
    let mut args = Args { rest: argv };
    if cmd == "run-graph" {
        let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
            eprintln!("cannot read {file}: {e}");
            exit(2)
        });
        let (g, vars) = cf2df::dfg::io::read_module(&text).unwrap_or_else(|e| {
            eprintln!("bad graph file: {e}");
            exit(1)
        });
        let mc = parse_machine(&mut args);
        let layout = MemLayout::distinct(&vars);
        let out = run(&g, &layout, mc).unwrap_or_else(|e| {
            eprintln!("machine fault: {e}");
            exit(1)
        });
        println!("{}", out.stats.summary());
        for v in vars.ids() {
            let base = layout.base(v) as usize;
            println!("  {} = {}", vars.name(v), out.memory[base]);
        }
        return;
    }
    let src = load_source(&file);
    let parsed = cf2df::lang::parse_to_cfg(&src).unwrap_or_else(|e| {
        eprintln!("parse error: {e}");
        exit(1)
    });

    match cmd.as_str() {
        "cfg" => {
            if args.flag("--dot") {
                print!("{}", cf2df::cfg::dot::cfg_to_dot(&parsed.cfg, &file));
            } else {
                print!("{}", parsed.cfg.pretty());
            }
        }
        "translate" => {
            let opts = parse_schema(&mut args);
            let dot = args.flag("--dot");
            let time_passes = args.flag("--time-passes");
            let emit = args.value("--emit");
            let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap_or_else(|e| {
                eprintln!("translation error: {e}");
                exit(1)
            });
            if time_passes {
                eprint!("{}", cf2df::core::render_pass_table(&t.passes));
            }
            eprintln!("{}", t.stats.summary());
            if let Some(path) = emit {
                let text = cf2df::dfg::io::write_module(&t.dfg, &t.cfg.vars);
                std::fs::write(&path, text).expect("writable output");
                eprintln!("wrote {path}");
            } else if dot {
                print!("{}", cf2df::dfg::dot::dfg_to_dot(&t.dfg, &file));
            } else {
                print!("{}", t.dfg.pretty());
            }
        }
        "run" => {
            let opts = parse_schema(&mut args);
            let mc = parse_machine(&mut args);
            let want_trace = args.flag("--trace");
            let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap_or_else(|e| {
                eprintln!("translation error: {e}");
                exit(1)
            });
            let layout = MemLayout::distinct(&t.cfg.vars);
            let out = if want_trace {
                let (out, trace) = run_traced(&t.dfg, &layout, mc).unwrap_or_else(|e| {
                    eprintln!("machine fault: {e}");
                    exit(1)
                });
                print!("{}", trace.timeline(&t.dfg));
                out
            } else {
                run(&t.dfg, &layout, mc).unwrap_or_else(|e| {
                    eprintln!("machine fault: {e}");
                    exit(1)
                })
            };
            println!("{}", out.stats.summary());
            for v in t.cfg.vars.ids() {
                let base = layout.base(v) as usize;
                let cells = layout.cells(v) as usize;
                if cells == 1 {
                    println!("  {} = {}", t.cfg.vars.name(v), out.memory[base]);
                } else {
                    let slice: Vec<i64> = out.memory[base..base + cells].to_vec();
                    let ist: Vec<i64> = out.ist_memory[base..base + cells].to_vec();
                    let shown = if ist.iter().any(|&x| x != 0) { ist } else { slice };
                    println!("  {} = {:?}", t.cfg.vars.name(v), shown);
                }
            }
        }
        "stats" => {
            let opts = parse_schema(&mut args);
            let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap_or_else(|e| {
                eprintln!("translation error: {e}");
                exit(1)
            });
            let cg = cf2df::machine::compile(&t.dfg).unwrap_or_else(|e| {
                eprintln!("compile error: {e}");
                exit(1)
            });
            let f = cg.footprint();
            println!("{}", t.stats.summary());
            println!("compiled footprint:");
            println!("  operator descriptors {:>8}", f.ops);
            println!("  output ports         {:>8}", f.out_ports);
            println!("  destination slots    {:>8}", f.dest_slots);
            println!("  immediate slots      {:>8}", f.imm_slots);
            println!("  macro steps          {:>8}", f.macro_steps);
            println!("  table bytes          {:>8}", f.bytes);
            println!(
                "  max hot arity        {:>8}  (inline capacity {})",
                cg.max_hot_arity(),
                cf2df::machine::compiled::INLINE_VALS
            );
        }
        "compare" => {
            let mc = parse_machine(&mut args);
            let layout = MemLayout::distinct(&parsed.cfg.vars);
            let base = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap_or_else(|e| {
                eprintln!("baseline fault: {e}");
                exit(1)
            });
            println!(
                "{:<12} {:>9} {:>9} {:>9} {:>9}",
                "config", "fired", "makespan", "avg-par", "speedup"
            );
            println!(
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
                    eprintln!("translation error ({label}): {e}");
                    exit(1)
                });
                let out = run(&t.dfg, &layout, mc.clone()).unwrap_or_else(|e| {
                    eprintln!("machine fault ({label}): {e}");
                    exit(1)
                });
                if out.memory != base.memory {
                    eprintln!("{label}: MEMORY MISMATCH vs sequential semantics");
                    exit(1)
                }
                println!(
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
