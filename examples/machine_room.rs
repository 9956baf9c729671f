//! Machine-room scenario: everything the simulated explicit-token-store
//! machine can tell you about one program — execution trace, parallelism
//! profile, processor scaling, waiting-matching (frame) pressure, and the
//! I-structure variant.
//!
//! ```text
//! cargo run --example machine_room
//! ```

use cf2df::cfg::MemLayout;
use cf2df::core::pipeline::{translate, TranslateOptions};
use cf2df::machine::{run, run_traced, MachineConfig};

fn main() {
    let parsed = cf2df::lang::parse_to_cfg(cf2df::lang::corpus::STENCIL).unwrap();
    let layout = MemLayout::distinct(&parsed.cfg.vars);
    let opts = TranslateOptions::optimized().with_memory_elimination(true);
    let t = translate(&parsed.cfg, &parsed.alias, &opts).unwrap();
    println!("graph: {}", t.stats.summary());

    // 1. A short execution trace (first 12 time steps).
    let (out, trace) = run_traced(&t.dfg, &layout, MachineConfig::unbounded()).unwrap();
    println!("\nfirst steps of the run:");
    for line in trace.timeline(&t.dfg).lines().take(12) {
        println!("  {line}");
    }
    println!("  …");
    println!(
        "run: {} (peak {} ops in one step, {} rendezvous slots live at peak)",
        out.stats.summary(),
        out.stats.max_parallelism,
        out.stats.max_pending_slots
    );

    // 2. Parallelism profile: how many operators issue per step.
    println!("\nparallelism profile (ops per time step, first 40 steps):");
    let profile: Vec<u32> = out.stats.profile.iter().copied().take(40).collect();
    for (i, chunk) in profile.chunks(20).enumerate() {
        let bars: String = chunk
            .iter()
            .map(|&c| match c {
                0 => '.',
                1..=2 => '▁',
                3..=5 => '▄',
                _ => '█',
            })
            .collect();
        println!("  t={:>3}.. {}", i * 20, bars);
    }

    // 3. Finite-processor scaling.
    println!("\nprocessor scaling:");
    for p in [1usize, 2, 4, 8] {
        let o = run(&t.dfg, &layout, MachineConfig::with_processors(p)).unwrap();
        println!("  P={p}: makespan {}", o.stats.makespan);
    }

    // 4. Frame-capacity threshold (the waiting-matching store).
    println!("\nwaiting-matching store sizing:");
    for cap in [8usize, out.stats.max_pending_slots as usize] {
        match run(
            &t.dfg,
            &layout,
            MachineConfig::unbounded().frame_capacity(cap),
        ) {
            Ok(o) => println!("  capacity {cap}: makespan {}", o.stats.makespan),
            Err(e) => println!("  capacity {cap}: {e}"),
        }
    }

    // 5. The §6.3 I-structure variant: reads overtake writes.
    let ist = translate(
        &parsed.cfg,
        &parsed.alias,
        &opts.clone().with_istructure_arrays(["src", "dst"]),
    )
    .unwrap();
    let mc = MachineConfig::unbounded().mem_latency(8);
    let before = run(&t.dfg, &layout, mc.clone()).unwrap();
    let after = run(&ist.dfg, &layout, mc).unwrap();
    println!(
        "\nI-structures (latency 8): makespan {} → {} ({} reads deferred past their writes)",
        before.stats.makespan, after.stats.makespan, after.stats.deferred_reads
    );
}
