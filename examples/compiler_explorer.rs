//! Compiler-explorer scenario: inspect every stage of the translation for
//! a program — CFG, loop control, switch placement, and the dataflow
//! graphs each schema produces (with DOT output for rendering).
//!
//! ```text
//! cargo run --example compiler_explorer                 # built-in demo
//! cargo run --example compiler_explorer -- path/to.imp  # your program
//! cargo run --example compiler_explorer -- --dot        # emit DOT
//! ```

use cf2df::cfg::loop_control::insert_loop_control;
use cf2df::cfg::{Cover, CoverStrategy, FunctionContext, Stmt};
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::core::switch_place::SwitchPlacement;
use cf2df::core::Lines;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want_dot = args.iter().any(|a| a == "--dot");
    let source = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(|p| std::fs::read_to_string(p).expect("readable source file"))
        .unwrap_or_else(|| cf2df::lang::corpus::FIG9.to_owned());

    let parsed = cf2df::lang::parse_to_cfg(&source).expect("valid program");
    println!("== control-flow graph (Fig 1 style) ==");
    println!("{}", parsed.cfg.pretty());

    let mut fctx = FunctionContext::new(parsed.cfg.clone(), parsed.alias.clone());
    let meta = insert_loop_control(&mut fctx).expect("reducible");
    if !meta.entry_node.is_empty() {
        println!("== after loop-control insertion (§3) ==");
        println!("{}", fctx.cfg().pretty());
    }

    // Switch placement (Fig 10 / Theorem 1).
    let cover = Cover::build(&CoverStrategy::Singletons, &parsed.alias);
    let lines = Lines::new(&parsed.cfg.vars, &parsed.alias, &cover, false);
    let sp = SwitchPlacement::compute(&mut fctx, &meta, &lines);
    let cfg = fctx.cfg();
    println!("== switch placement (Fig 10): fork x line -> needed? ==");
    for n in cfg.node_ids() {
        if !matches!(cfg.stmt(n), Stmt::Branch { .. }) {
            continue;
        }
        let needed: Vec<String> = lines
            .ids()
            .filter(|&l| sp.needs_switch(n, l))
            .map(|l| lines.name(l).to_owned())
            .collect();
        println!(
            "  {n:?} [{}]: switches for {{{}}}",
            cfg.stmt(n).display(&cfg.vars),
            needed.join(", ")
        );
    }

    for (label, opts) in [
        ("schema 1 (single token)", TranslateOptions::schema1()),
        (
            "schema 2 (token per variable)",
            TranslateOptions::schema3(CoverStrategy::Singletons),
        ),
        (
            "optimized (§4, no redundant switches)",
            TranslateOptions::schema3(CoverStrategy::Singletons).with_optimized(true),
        ),
        (
            "full parallel (§4 + §6 transforms)",
            TranslateOptions::full_parallel_schema3(),
        ),
    ] {
        let t = translate(&parsed.cfg, &parsed.alias, &opts).expect("translates");
        println!("\n== {label} ==\n{}", t.stats.summary());
        if want_dot {
            println!("{}", cf2df::dfg::dot::dfg_to_dot(&t.dfg, label));
        } else {
            println!("{}", t.dfg.pretty());
        }
    }
}
