//! Quickstart: translate an imperative program to a dataflow graph and run
//! it on the simulated explicit-token-store machine.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cf2df::cfg::MemLayout;
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::machine::{run, vonneumann, MachineConfig};

fn main() {
    let source = "
        # Sum of squares, imperatively.
        n := 10;
        s := 0;
        for i := 1 to n do {
            s := s + i * i;
        }
    ";

    // 1. Parse and lower to the statement-level control-flow graph (§2.1).
    let parsed = cf2df::lang::parse_to_cfg(source).expect("valid program");
    println!("control-flow graph:\n{}", parsed.cfg.pretty());

    // 2. Translate to a dataflow graph — Schema 2: one access token per
    //    variable, loop control inserted by interval analysis (§3).
    let t =
        translate(&parsed.cfg, &parsed.alias, &TranslateOptions::schema2()).expect("translates");
    println!("dataflow graph: {}", t.stats.summary());

    // 3. Execute on the dataflow machine (unbounded processors: the
    //    makespan is the critical path).
    let layout = MemLayout::distinct(&t.cfg.vars);
    let out = run(&t.dfg, &layout, MachineConfig::unbounded()).expect("runs");
    let s = t.cfg.vars.lookup("s").unwrap();
    println!(
        "result: s = {} (expected 385), {}",
        out.memory[layout.base(s) as usize],
        out.stats.summary()
    );

    // 4. Compare with the sequential von Neumann baseline.
    let base =
        vonneumann::interpret(&parsed.cfg, &layout, &MachineConfig::default()).expect("interprets");
    assert_eq!(out.memory, base.memory, "dataflow = sequential semantics");
    println!(
        "sequential baseline: {} time units; dataflow critical path: {} ({}x)",
        base.stats.makespan,
        out.stats.makespan,
        base.stats.makespan as f64 / out.stats.makespan as f64
    );
}
