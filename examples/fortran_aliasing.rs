//! Aliasing scenario (§5): a FORTRAN-style subroutine whose reference
//! parameters may alias. The same dataflow graph must compute the right
//! answer under *every* consistent parameter binding — shown here by
//! executing the paper's `SUBROUTINE F(X, Y, Z)` example under each of its
//! call patterns, and comparing covers on synchronization cost.
//!
//! ```text
//! cargo run --example fortran_aliasing
//! ```

use cf2df::cfg::{Cover, CoverStrategy, MemLayout};
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::machine::{run, vonneumann, MachineConfig};

fn main() {
    // The body of F, with X ~ Z and Y ~ Z declared (X and Y are not
    // aliased to each other — Definition 6's relation is not transitive).
    let parsed = cf2df::lang::parse_to_cfg(cf2df::lang::corpus::FORTRAN_ALIAS).unwrap();
    let vars = &parsed.cfg.vars;
    let (x, y, z) = (
        vars.lookup("fx").unwrap(),
        vars.lookup("fy").unwrap(),
        vars.lookup("fz").unwrap(),
    );

    println!(
        "alias classes: [X]={:?} [Y]={:?} [Z]={:?}",
        parsed.alias.class(x).len(),
        parsed.alias.class(y).len(),
        parsed.alias.class(z).len()
    );
    let cover = Cover::build(&CoverStrategy::Singletons, &parsed.alias);
    println!(
        "token collection per op (Fig 12): X:{} Y:{} Z:{}",
        cover.access_set(x, &parsed.alias).len(),
        cover.access_set(y, &parsed.alias).len(),
        cover.access_set(z, &parsed.alias).len()
    );

    // One translation, three concrete call patterns:
    //   CALL F(A, B, A)  — X and Z share storage
    //   CALL F(C, D, D)  — Y and Z share storage
    //   CALL F(P, Q, R)  — all distinct
    let t = translate(
        &parsed.cfg,
        &parsed.alias,
        &TranslateOptions::schema3(CoverStrategy::Singletons),
    )
    .unwrap();
    let mc = MachineConfig::unbounded().mem_latency(4);
    let bindings: Vec<(&str, Vec<Vec<cf2df::cfg::VarId>>)> = vec![
        ("CALL F(A, B, A)", vec![vec![x, z], vec![y]]),
        ("CALL F(C, D, D)", vec![vec![y, z], vec![x]]),
        ("CALL F(P, Q, R)", vec![vec![x], vec![y], vec![z]]),
    ];
    for (call, binding) in bindings {
        let layout = MemLayout::with_binding(vars, &binding);
        let out = run(&t.dfg, &layout, mc.clone()).unwrap();
        let oracle = vonneumann::interpret(&parsed.cfg, &layout, &mc).unwrap();
        assert_eq!(out.memory, oracle.memory);
        println!(
            "{call}: final X={} Y={} Z={}  (matches sequential semantics)",
            out.memory[layout.base(x) as usize],
            out.memory[layout.base(y) as usize],
            out.memory[layout.base(z) as usize]
        );
    }

    // Cover comparison: parallelism vs synchronization (§5's tradeoff).
    println!("\ncover comparison on the subroutine body:");
    for strategy in [
        CoverStrategy::Singletons,
        CoverStrategy::AliasClasses,
        CoverStrategy::SingleToken,
    ] {
        let cover = Cover::build(&strategy, &parsed.alias);
        let t = translate(
            &parsed.cfg,
            &parsed.alias,
            &TranslateOptions::schema3(strategy.clone()),
        )
        .unwrap();
        let layout = MemLayout::distinct(vars);
        let out = run(&t.dfg, &layout, mc.clone()).unwrap();
        println!(
            "  {:<14} tokens={} synch-cost={} graph-synchs={} makespan={}",
            format!("{strategy:?}"),
            cover.len(),
            cover.synchronization_cost(&parsed.alias),
            t.stats.synchs,
            out.stats.makespan
        );
    }
}
