#![warn(missing_docs)]

//! Workload generators and the experiment harness that regenerates every
//! figure and claim of *From Control Flow to Dataflow*.
//!
//! * [`workloads`] — parameterized program generators (random structured
//!   programs, scaling families) used by benches and property tests;
//! * [`harness`] — run a program through a translation configuration and
//!   the machine, collecting comparable metrics;
//! * [`figures`] — one reproduction function per paper figure/claim,
//!   printed by the `figures` binary and recorded in `EXPERIMENTS.md`;
//! * [`artifacts`] — the `cf2df bench` engine: render the
//!   `BENCH_pipeline.json`, `BENCH_executor.json` and
//!   `BENCH_translate.json` artifacts of exact counters, which must equal
//!   the committed baselines byte for byte;
//! * [`json`] — a hand-rolled RFC 8259 writer and validator (in-tree
//!   replacement for `serde_json`, per the offline/no-deps build policy);
//! * [`prng`] — the seedable xorshift64* generator (in-tree replacement
//!   for the `rand` crate, per the offline/no-deps build policy),
//!   re-exported from the machine crate, whose fault injection draws
//!   from the same generator.

pub mod artifacts;
pub mod figures;
pub mod harness;
pub mod json;
pub mod workloads;

pub use cf2df_machine::prng;

pub use harness::{measure, measure_source, Measurement};

/// Write a command-line tool's output to stdout. A closed stdout (its
/// reader went away, as in `cf2df compare fig9 | head -3`) ends the
/// output: the process exits quietly with status 141, the status a shell
/// reports for a process ended by SIGPIPE, where `print!` would panic.
/// Any other write error exits with status 1 and a message on stderr.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(141),
        Err(e) => {
            write_stderr(format_args!("cannot write to stdout: {e}\n"));
            std::process::exit(1)
        }
    }
}

/// Write a command-line tool's diagnostic to stderr. A failed write (a
/// closed stderr, as when its reader went away) is dropped, where
/// `eprint!` would panic: the diagnostic has nowhere to go, and the exit
/// status stays the command's own.
pub fn write_stderr(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    let _ = std::io::stderr().write_fmt(args);
}
