//! `oneshot`: one program per op, from source to checked result.
//!
//! A closed loop on the calling thread over a 1-worker pool. Each op
//! parses one program, translates it with every pass on
//! (`full_parallel_schema3`: the 13 passes, `certify` and `fuse`
//! included), compiles it and runs it once on the pool. Translation is
//! ~95% of an op, so this is the workload where translation cost
//! (certify above all) shows. The result is compared, variable by
//! variable and by name, with the sequential von Neumann interpreter's
//! run of the source CFG, computed in set-up.
//!
//! The programs are a seeded draw: structured random programs (aliasing
//! and arrays), small `goto_soup`s (irreducible, so node splitting runs;
//! at most 4 blocks, since 8-block soups average ~1 s per translation)
//! and the 19 corpus programs, in a fixed mix (see [`programs`]).

use crate::stats::{mean, median_us, Metrics};
use crate::trace::Tracer;
use crate::{op_count, shuffle, Params, Pass, Session};
use cf2df_bench::prng::Prng;
use cf2df_bench::workloads::{goto_soup, random_program, GenConfig};
use cf2df_cfg::{MemLayout, VarTable};
use cf2df_core::pipeline::{translate_cfg, TranslateOptions};
use cf2df_lang::parse_to_cfg;
use cf2df_machine::{
    compile, run_threaded_compiled_pooled_with, vonneumann, ExecutorPool, MachineConfig, ParConfig,
};
use std::time::Instant;

/// Nominal ops per second of one pass on the reference host (2-core
/// VM); fixes the op count of a pass of `seconds`.
const OPS_PER_S: f64 = 500.0;
/// The mix, per block of 16 ops: 12 random programs, one goto soup of
/// each size from 2 to 4 blocks (larger soups average ~1 s per
/// translation), one corpus program.
const BLOCK: usize = 16;
const RANDOM_PER_BLOCK: usize = 12;
const GOTO_SIZES: [usize; 3] = [2, 3, 4];
/// Candidates drawn per chosen random program (see [`programs`]).
const STRATUM: usize = 4;
/// Untimed warm-up ops at the end of set-up: a prefix of the op list.
const WARM_UP_OPS: usize = 250;

/// Which generator produced a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `random_program` with the default generator settings.
    Random,
    /// `goto_soup` of 2 to 4 blocks.
    GotoSoup,
    /// One of the 19 corpus programs.
    Corpus,
}

/// One input program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Its generator.
    pub kind: Kind,
    /// A name that identifies it within the set.
    pub name: String,
    /// The source text each op parses.
    pub src: String,
}

/// The programs of `seed`, one per op and in op order, for a pass of
/// `n_ops` ops.
///
/// Each random program and goto soup is drawn fresh for its op, and the
/// corpus programs take turns, so a pass samples thousands of programs
/// and its latency quantiles move little from seed to seed. Translation
/// time grows steeply with program size, and random programs vary in
/// size by ~50x, so they are also stratified by size: `STRATUM`
/// candidates are drawn per program, sorted by source length, and one
/// program is taken from each run of `STRATUM` consecutive candidates.
pub fn programs(seed: u64, n_ops: usize) -> Vec<Program> {
    let blocks = n_ops.div_ceil(BLOCK);
    let mut rng = Prng::seed_from_u64(seed);
    let gen = GenConfig::default();
    let mut candidates: Vec<(String, u64)> = (0..blocks * RANDOM_PER_BLOCK * STRATUM)
        .map(|_| {
            let s = rng.next_u64();
            (random_program(s, &gen), s)
        })
        .collect();
    candidates.sort_unstable_by_key(|(src, s)| (src.len(), *s));
    let mut out = Vec::with_capacity(blocks * BLOCK);
    for stratum in candidates.chunks_mut(STRATUM) {
        let pick = rng.range_usize(0, stratum.len());
        let (src, s) = std::mem::take(&mut stratum[pick]);
        out.push(Program {
            kind: Kind::Random,
            name: format!("random#{s:016x}"),
            src,
        });
    }
    let corpus = cf2df_lang::corpus::all();
    for b in 0..blocks {
        for size in GOTO_SIZES {
            let s = rng.next_u64();
            out.push(Program {
                kind: Kind::GotoSoup,
                name: format!("goto{size}#{s:016x}"),
                src: goto_soup(s, size),
            });
        }
        let (name, src) = corpus[b % corpus.len()];
        out.push(Program {
            kind: Kind::Corpus,
            name: name.to_owned(),
            src: src.to_owned(),
        });
    }
    shuffle(&mut rng, &mut out);
    out.truncate(n_ops);
    out
}

/// Final memory of each variable, by name.
type VarMemory = Vec<(String, Vec<i64>)>;

fn by_name(vars: &VarTable, layout: &MemLayout, memory: &[i64]) -> VarMemory {
    vars.ids()
        .map(|v| {
            let base = layout.base(v) as usize;
            let cells = layout.cells(v) as usize;
            (vars.name(v).to_owned(), memory[base..base + cells].to_vec())
        })
        .collect()
}

/// The von Neumann interpreter's final memory for `src`.
fn reference(src: &str) -> Result<VarMemory, String> {
    let parsed = parse_to_cfg(src).map_err(|e| e.to_string())?;
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let out = vonneumann::interpret(&parsed.cfg, &layout, &MachineConfig::default())
        .map_err(|e| e.to_string())?;
    Ok(by_name(&parsed.cfg.vars, &layout, &out.memory))
}

/// Whether every reference variable ends with the reference's cells.
fn matches(reference: &VarMemory, vars: &VarTable, layout: &MemLayout, memory: &[i64]) -> bool {
    reference.iter().all(|(name, cells)| {
        vars.lookup(name).is_some_and(|v| {
            let base = layout.base(v) as usize;
            memory.get(base..base + layout.cells(v) as usize) == Some(cells.as_slice())
        })
    })
}

/// Per-op layer sizes and counts the traced pass averages.
#[derive(Default)]
struct Counts {
    ops: usize,
    analyses_computed: u64,
    cache_hits: u64,
    cfg_nodes: u64,
    dfg_ops: u64,
    dfg_arcs: u64,
    tokens: u64,
}

struct Setup {
    programs: Vec<Program>,
    references: Vec<VarMemory>,
    pool: ExecutorPool,
    opts: TranslateOptions,
    cfg: ParConfig,
}

/// Run one op; `Err` names the failure. The latency covers parse to
/// run; the check is outside it.
fn op(s: &Setup, id: usize, tr: &mut Tracer, counts: &mut Counts) -> Result<u64, String> {
    let prog = &s.programs[id];
    let op = Some(id as u64);
    let start = Instant::now();
    let parsed = tr.span("lang.parse", op, || parse_to_cfg(&prog.src));
    let parsed = parsed.map_err(|e| format!("{}: parse: {e}", prog.name))?;
    let t_start = Instant::now();
    let translated = translate_cfg(parsed.cfg, parsed.alias, &s.opts);
    let t_end = Instant::now();
    let t = translated.map_err(|e| format!("{}: translate: {e}", prog.name))?;
    if tr.is_on() {
        let parent = tr.record("core.translate", "", op, None, t_start, t_end);
        // The pipeline records each pass's duration, not its bounds:
        // lay the passes end to end from the translation's start.
        let mut at = t_start;
        for rec in &t.passes {
            tr.record("core.pass", rec.name, op, parent, at, at + rec.wall);
            at += rec.wall;
        }
    }
    let cg = tr.span("machine.compile", op, || compile(&t.dfg));
    let cg = cg.map_err(|e| format!("{}: compile: {e}", prog.name))?;
    let layout = MemLayout::distinct(&t.cfg.vars);
    let (res, _, _) = tr.span("machine.run", op, || {
        run_threaded_compiled_pooled_with(&cg, &layout, &s.pool, &s.cfg)
    });
    let latency = start.elapsed().as_nanos() as u64;
    let out = res.map_err(|e| format!("{}: run: {e}", prog.name))?;
    let ok = tr.span("bench.check", op, || {
        matches(&s.references[id], &t.cfg.vars, &layout, &out.memory)
    });
    if !ok {
        return Err(format!(
            "{}: final memory differs from the interpreter",
            prog.name
        ));
    }
    if tr.is_on() {
        counts.ops += 1;
        counts.analyses_computed += t.cache_stats.total_computed();
        counts.cache_hits += t.cache_stats.total_hits();
        counts.cfg_nodes += t.cfg.len() as u64;
        counts.dfg_ops += t.stats.ops as u64;
        counts.dfg_arcs += t.stats.arcs as u64;
        counts.tokens += out.metrics.tokens_processed;
    }
    Ok(latency)
}

/// Run the first `n` ops.
fn pass(s: &Setup, n: usize, tr: &mut Tracer, counts: &mut Counts) -> Pass {
    let mut p = Pass::default();
    let started = Instant::now();
    for id in 0..n {
        p.attempted += 1;
        match op(s, id, tr, counts) {
            Ok(ns) => p.latencies_ns.push(ns),
            Err(e) => {
                if p.failed < 5 {
                    eprintln!("oneshot: op {id} failed: {e}");
                }
                p.failed += 1;
            }
        }
    }
    p.wall = started.elapsed();
    p
}

/// One `oneshot` session: set-up (program draw, references, pool,
/// warm-up over the first `WARM_UP_OPS` ops), then one pass per entry of
/// `passes` (`true` = traced).
pub(crate) fn session(p: &Params, tr: &mut Tracer, passes: &[bool]) -> Result<Session, String> {
    let started = Instant::now();
    let programs = programs(p.seed, op_count(p.seconds, OPS_PER_S));
    let references = programs
        .iter()
        .map(|prog| reference(&prog.src).map_err(|e| format!("{}: reference: {e}", prog.name)))
        .collect::<Result<Vec<_>, _>>()?;
    let s = Setup {
        programs,
        references,
        pool: ExecutorPool::new(1),
        opts: TranslateOptions::full_parallel_schema3(),
        cfg: ParConfig::default(),
    };
    tr.set_on(false);
    let warm_up = pass(
        &s,
        WARM_UP_OPS.min(s.programs.len()),
        tr,
        &mut Counts::default(),
    );
    if warm_up.failed > 0 {
        return Err(format!("oneshot: {} warm-up ops failed", warm_up.failed));
    }
    let mut out = Session {
        setup: started.elapsed(),
        ..Session::default()
    };
    for &on in passes {
        tr.set_on(on);
        let mut counts = Counts::default();
        out.passes.push(pass(&s, s.programs.len(), tr, &mut counts));
        if on {
            out.layers = layers(tr, &counts);
        }
    }
    Ok(out)
}

/// Pass names of the `full_parallel_schema3` pipeline, in run order.
const PASSES: [&str; 13] = [
    "validate",
    "lines",
    "reducibility",
    "loop-control",
    "switch-placement",
    "source-vectors",
    "construct-optimized",
    "array-parallelize",
    "read-parallelize",
    "forward-stores",
    "cleanup",
    "certify",
    "fuse",
];

fn layers(tr: &Tracer, c: &Counts) -> Metrics {
    let mut m = Metrics::default();
    let med = |layer: &str, detail: &str| median_us(tr.durations(layer, detail, false));
    m.push("lang.parse_us", med("lang.parse", ""), "us");
    m.push("core.translate_us", med("core.translate", ""), "us");
    for pass in PASSES {
        m.push(format!("core.pass.{pass}_us"), med("core.pass", pass), "us");
    }
    m.push(
        "core.analyses_computed",
        mean(c.analyses_computed, c.ops),
        "count",
    );
    m.push("core.cache_hits", mean(c.cache_hits, c.ops), "count");
    m.push("core.cfg_nodes", mean(c.cfg_nodes, c.ops), "count");
    m.push("dfg.ops", mean(c.dfg_ops, c.ops), "count");
    m.push("dfg.arcs", mean(c.dfg_arcs, c.ops), "count");
    m.push("machine.compile_us", med("machine.compile", ""), "us");
    m.push("machine.run_us", med("machine.run", ""), "us");
    m.push("machine.tokens_processed", mean(c.tokens, c.ops), "count");
    m.push("bench.check_us", med("bench.check", ""), "us");
    m
}
