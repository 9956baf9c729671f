//! The measurement harness: run a program under a translation
//! configuration on the simulated dataflow machine and under the
//! sequential baseline, and collect comparable metrics.

use cf2df_cfg::MemLayout;
use cf2df_core::pipeline::{translate, TranslateOptions, Translated};
use cf2df_lang::Parsed;
use cf2df_machine::vonneumann;
use cf2df_machine::{run, MachineConfig};

/// Metrics of one (program, configuration) run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Configuration label.
    pub label: String,
    /// Static graph size: operators.
    pub ops: usize,
    /// Static graph size: arcs.
    pub arcs: usize,
    /// Static switch count.
    pub switches: usize,
    /// Static merge count.
    pub merges: usize,
    /// Dynamic: operators fired.
    pub fired: u64,
    /// Dynamic: makespan (critical path with unbounded processors).
    pub makespan: u64,
    /// Dynamic: average parallelism (fired / makespan).
    pub avg_parallelism: f64,
    /// Dynamic: peak parallelism.
    pub max_parallelism: u32,
    /// Dynamic memory operations executed.
    pub mem_ops: u64,
    /// Final memory (for equivalence checks).
    pub memory: Vec<i64>,
}

impl Measurement {
    /// Machine-readable JSON rendering via the shared [`crate::json`]
    /// writer: string escapes are JSON-conformant (`\uXXXX`, not Rust's
    /// `\u{..}`) and a non-finite `avg_parallelism` renders as `null`
    /// rather than the invalid tokens `NaN`/`inf`. `memory` is omitted —
    /// it is an equivalence-check artifact, not a metric.
    pub fn to_json(&self) -> String {
        let mut o = crate::json::Obj::new();
        o.str("label", &self.label)
            .num("ops", self.ops as u64)
            .num("arcs", self.arcs as u64)
            .num("switches", self.switches as u64)
            .num("merges", self.merges as u64)
            .num("fired", self.fired)
            .num("makespan", self.makespan)
            .float("avg_parallelism", self.avg_parallelism)
            .num("max_parallelism", self.max_parallelism)
            .num("mem_ops", self.mem_ops);
        o.finish()
    }
}

/// Translate and simulate; panics on translation or machine errors (the
/// harness is for known-good configurations — failure modes are exercised
/// by dedicated tests).
pub fn measure(
    parsed: &Parsed,
    opts: &TranslateOptions,
    machine: &MachineConfig,
    label: &str,
) -> Measurement {
    let t: Translated = translate(&parsed.cfg, &parsed.alias, opts)
        .unwrap_or_else(|e| panic!("{label}: translation failed: {e}"));
    let layout = MemLayout::distinct(&t.cfg.vars);
    let out = run(&t.dfg, &layout, machine.clone())
        .unwrap_or_else(|e| panic!("{label}: machine failed: {e}"));
    Measurement {
        label: label.to_owned(),
        ops: t.stats.ops,
        arcs: t.stats.arcs,
        switches: t.stats.switches,
        merges: t.stats.merges,
        fired: out.stats.fired,
        makespan: out.stats.makespan,
        avg_parallelism: out.stats.avg_parallelism(),
        max_parallelism: out.stats.max_parallelism,
        mem_ops: out.stats.mem_reads + out.stats.mem_writes,
        memory: out.memory,
    }
}

/// Parse source and [`measure`].
pub fn measure_source(
    src: &str,
    opts: &TranslateOptions,
    machine: &MachineConfig,
    label: &str,
) -> Measurement {
    let parsed = cf2df_lang::parse_to_cfg(src).expect("workload parses");
    measure(&parsed, opts, machine, label)
}

/// The sequential baseline as a [`Measurement`].
pub fn measure_baseline(parsed: &Parsed, machine: &MachineConfig) -> Measurement {
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let out = vonneumann::interpret(&parsed.cfg, &layout, machine).expect("baseline interprets");
    Measurement {
        label: "von-neumann".to_owned(),
        ops: 0,
        arcs: 0,
        switches: 0,
        merges: 0,
        fired: out.stats.fired,
        makespan: out.stats.makespan,
        avg_parallelism: out.stats.avg_parallelism(),
        max_parallelism: 1,
        mem_ops: out.stats.mem_reads + out.stats.mem_writes,
        memory: out.memory,
    }
}

/// Render measurements as an aligned text table (the "figure" output).
pub fn table(title: &str, rows: &[Measurement]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "## {title}");
    let _ = writeln!(
        s,
        "{:<26} {:>7} {:>7} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8}",
        "config", "ops", "arcs", "switches", "fired", "makespan", "avg-par", "max-par", "mem-ops"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<26} {:>7} {:>7} {:>8} {:>8} {:>9} {:>9.2} {:>8} {:>8}",
            r.label,
            r.ops,
            r.arcs,
            r.switches,
            r.fired,
            r.makespan,
            r.avg_parallelism,
            r.max_parallelism,
            r.mem_ops
        );
    }
    s
}

/// Assert that all measurements computed the same final memory.
pub fn assert_equivalent(rows: &[Measurement]) {
    for pair in rows.windows(2) {
        assert_eq!(
            pair[0].memory, pair[1].memory,
            "{} and {} disagree on final memory",
            pair[0].label, pair[1].label
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_and_baseline_agree_on_memory() {
        let parsed = cf2df_lang::parse_to_cfg(cf2df_lang::corpus::RUNNING_EXAMPLE).unwrap();
        let mc = MachineConfig::unbounded();
        let rows = vec![
            measure_baseline(&parsed, &mc),
            measure(&parsed, &TranslateOptions::schema1(), &mc, "schema1"),
            measure(&parsed, &TranslateOptions::schema2(), &mc, "schema2"),
            measure(&parsed, &TranslateOptions::optimized(), &mc, "optimized"),
        ];
        assert_equivalent(&rows);
        let t = table("running example", &rows);
        assert!(t.contains("schema2"));
        assert_eq!(t.lines().count(), 2 + rows.len());
        // Every emitted measurement is well-formed JSON.
        for r in &rows {
            crate::json::parse(&r.to_json()).unwrap_or_else(|e| panic!("{e}: {}", r.to_json()));
        }
    }

    /// The two historical `to_json` bugs: Rust-style `\u{..}` escapes and
    /// `NaN`/`inf` from a zero-makespan measurement — both invalid JSON.
    #[test]
    fn to_json_is_well_formed_on_hostile_measurements() {
        let m = Measurement {
            label: "quotes \" back\\slash \n ctrl\u{1} bell\u{7}".to_owned(),
            ops: 1,
            arcs: 2,
            switches: 0,
            merges: 0,
            fired: 5,
            makespan: 0,
            avg_parallelism: f64::INFINITY, // what fired/makespan gives at makespan == 0
            max_parallelism: 1,
            mem_ops: 0,
            memory: Vec::new(),
        };
        let doc = m.to_json();
        let v = crate::json::parse(&doc).unwrap_or_else(|e| panic!("{e}\n{doc}"));
        assert_eq!(
            v.get("label").unwrap().as_str().unwrap(),
            m.label,
            "label round-trips through escaping"
        );
        assert_eq!(v.get("avg_parallelism"), Some(&crate::json::Json::Null));
        assert_eq!(v.get("fired").unwrap().as_num(), Some(5.0));

        let nan = Measurement {
            avg_parallelism: f64::NAN,
            ..m
        };
        crate::json::parse(&nan.to_json()).expect("NaN renders as null");
    }
}
