//! End-to-end benchmark of cf2df: the path a request takes from source
//! to checked result, through the public APIs of `lang`, `core`, `dfg`
//! and `machine`.
//!
//! Three workloads ([`Workload`]) each run a fixed amount of work derived
//! from `--seconds` (never a time-boxed loop), check every result
//! against a reference computed in set-up, and report five end-to-end
//! metrics ([`end_to_end`]). A separate traced run ([`traced`]) repeats
//! every workload with spans around each layer call and derives the
//! per-layer metrics from them. See `README.md` for the workload
//! rationale and the metric → layer → end-to-end map.

pub mod host;
pub mod oneshot;
pub mod run_heavy;
pub mod serve_open;
pub mod stats;
pub mod trace;

use cf2df_bench::prng::Prng;
use stats::{median_f64, quantile, Metrics};
use std::time::Duration;
use trace::Tracer;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Source to result, one program per op: translation-dominated.
    Oneshot,
    /// Long pooled runs of two precompiled graphs: per-token cost.
    RunHeavy,
    /// Open-loop serving of a tiny graph: fixed per-request cost.
    ServeOpen,
}

impl Workload {
    /// Every workload, in the order a traced run covers them.
    pub const ALL: [Workload; 3] = [Workload::Oneshot, Workload::RunHeavy, Workload::ServeOpen];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Oneshot => "oneshot",
            Workload::RunHeavy => "run_heavy",
            Workload::ServeOpen => "serve_open",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn session(self, p: &Params, tr: &mut Tracer, passes: &[bool]) -> Result<Session, String> {
        match self {
            Workload::Oneshot => oneshot::session(p, tr, passes),
            Workload::RunHeavy => run_heavy::session(p, tr, passes),
            Workload::ServeOpen => serve_open::session(p, tr, passes),
        }
    }
}

/// What a run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// Sizes the fixed amount of work of one timed pass: ops are
    /// `seconds` times the workload's nominal rate on the reference host.
    pub seconds: f64,
    /// Tiny inputs and a single set-up, for the self-test.
    pub quick: bool,
}

/// One timed pass over a workload's ops.
#[derive(Clone, Debug, Default)]
pub(crate) struct Pass {
    /// Wall latency of every successful op, ns.
    pub latencies_ns: Vec<u64>,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that returned a typed error or a result differing from the
    /// reference.
    pub failed: u64,
    /// Wall time of the pass: first op start (or due time) to last
    /// completion.
    pub wall: Duration,
}

/// One set-up followed by zero or more passes.
#[derive(Debug, Default)]
pub(crate) struct Session {
    /// Wall time from the session's start to its first timed op.
    pub setup: Duration,
    /// The passes, in the order asked for.
    pub passes: Vec<Pass>,
    /// Per-layer metrics of the last traced pass and of the set-up
    /// (empty when nothing was traced).
    pub layers: Metrics,
}

/// The result of one benchmark invocation, printed as its last line.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted over every reported pass.
    pub attempted: u64,
    /// Ops failed over every reported pass.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Host-noise record and sample counts: diagnostics, not metrics.
    pub diagnostics: Vec<(String, String)>,
}

impl Outcome {
    /// `{"correct":...,"attempted":...,"failed":...,"metrics":{...}}`.
    pub fn to_json(&self) -> String {
        let mut o = cf2df_bench::json::Obj::new();
        o.bool("correct", self.failed == 0)
            .num("attempted", self.attempted)
            .num("failed", self.failed)
            .raw("metrics", &self.metrics.to_json());
        o.finish()
    }
}

/// Steal time, load and parallelism around a run.
struct Noise {
    steal: Option<u64>,
}

impl Noise {
    fn start() -> Noise {
        Noise {
            steal: host::steal_jiffies(),
        }
    }

    fn finish(self, diag: &mut Vec<(String, String)>) {
        let steal = match (self.steal, host::steal_jiffies()) {
            (Some(a), Some(b)) => (b.saturating_sub(a)).to_string(),
            _ => "unknown".to_owned(),
        };
        diag.push(("steal_jiffies".into(), steal));
        let load = host::loadavg().map_or("unknown".to_owned(), |l| format!("{l:?}"));
        diag.push(("loadavg".into(), load));
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        diag.push(("available_parallelism".into(), cores.to_string()));
        let probe = host_probe().map_or("unknown".to_owned(), |ms| format!("{ms:.3}"));
        diag.push(("host_probe_ms".into(), probe));
    }
}

/// Wall time of one deterministic simulator run of a fixed graph
/// (`loop_nest(4, 5)`), median of 5, in ms. The code and input never
/// change within a build, so this tracks how fast the host was when the
/// run ended.
fn host_probe() -> Option<f64> {
    let parsed = cf2df_lang::parse_to_cfg(&cf2df_bench::workloads::loop_nest(4, 5)).ok()?;
    let opts = cf2df_core::pipeline::TranslateOptions::full_parallel_schema3();
    let t = cf2df_core::pipeline::translate_cfg(parsed.cfg, parsed.alias, &opts).ok()?;
    let cg = cf2df_machine::compile(&t.dfg).ok()?;
    let layout = cf2df_cfg::MemLayout::distinct(&t.cfg.vars);
    let runs = (0..5)
        .map(|_| {
            let start = std::time::Instant::now();
            cf2df_machine::run_compiled(&cg, &layout, cf2df_machine::MachineConfig::default())
                .ok()
                .map(|_| start.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Option<Vec<_>>>()?;
    Some(median_f64(runs))
}

/// The untraced run of one workload: [`SETUP_REPEATS`] set-ups (one in
/// quick mode), then one timed pass on the last. Reports `setup_s`
/// (median set-up), `p50_us`, `p90_us`, `throughput_per_s` and
/// `peak_rss_mb`.
pub fn end_to_end(w: Workload, p: &Params) -> Result<Outcome, String> {
    let noise = Noise::start();
    let repeats = if p.quick { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::with_capacity(repeats);
    let mut pass = Pass::default();
    let mut tr = Tracer::new(false);
    for i in 0..repeats {
        let last = i + 1 == repeats;
        let s = w.session(p, &mut tr, if last { &[false] } else { &[] })?;
        setups.push(s.setup.as_secs_f64());
        if last {
            pass = s.passes.into_iter().next().expect("one pass was asked for");
        }
    }
    let samples = pass.latencies_ns.len();
    let mut lat = pass.latencies_ns;
    let mut m = Metrics::default();
    m.push("setup_s", median_f64(setups), "s");
    m.push("p50_us", quantile(&mut lat, 0.5) as f64 / 1e3, "us");
    m.push("p90_us", quantile(&mut lat, 0.9) as f64 / 1e3, "us");
    m.push(
        "throughput_per_s",
        samples as f64 / pass.wall.as_secs_f64(),
        "1/s",
    );
    m.push("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0), "MiB");
    let mut diagnostics = vec![
        ("workload".to_owned(), w.name().to_owned()),
        ("samples".to_owned(), samples.to_string()),
    ];
    noise.finish(&mut diagnostics);
    Ok(Outcome {
        attempted: pass.attempted,
        failed: pass.failed,
        metrics: m,
        diagnostics,
    })
}

/// The traced run: every workload, each as one set-up followed by an
/// untraced and a traced pass over identical inputs. Reports every
/// per-layer metric, prefixed by its workload, plus
/// `<workload>.bench.trace_overhead_pct` (traced against untraced pass
/// wall time). Each pass is sized at a sixth of `seconds`, so the run
/// measures about `seconds` in all. Returns the tracers so the caller
/// can write the spans out.
pub fn traced(p: &Params) -> Result<(Outcome, Vec<(Workload, Tracer)>), String> {
    let noise = Noise::start();
    let share = Params {
        seconds: p.seconds / (2 * Workload::ALL.len()) as f64,
        ..*p
    };
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        metrics: Metrics::default(),
        diagnostics: Vec::new(),
    };
    let mut tracers = Vec::new();
    for w in Workload::ALL {
        let mut tr = Tracer::new(true);
        let s = w.session(&share, &mut tr, &[false, true])?;
        let (plain, traced) = (&s.passes[0], &s.passes[1]);
        let mut layers = s.layers;
        layers.push(
            "bench.trace_overhead_pct",
            (traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0,
            "%",
        );
        out.metrics.extend_prefixed(w.name(), layers);
        for pass in &s.passes {
            out.attempted += pass.attempted;
            out.failed += pass.failed;
        }
        out.diagnostics.push((
            format!("{}.samples", w.name()),
            traced.latencies_ns.len().to_string(),
        ));
        tracers.push((w, tr));
    }
    noise.finish(&mut out.diagnostics);
    Ok((out, tracers))
}

/// Fisher-Yates shuffle driven by the benchmark's seeded generator.
fn shuffle<T>(rng: &mut Prng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.range_usize(0, i + 1));
    }
}

/// Ops in a pass of `seconds` at `per_second`, at least one.
fn op_count(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second).round() as usize).max(1)
}
