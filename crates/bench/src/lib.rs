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
//! * [`artifacts`] — the `cf2df bench` engine: render and validate the
//!   `BENCH_pipeline.json`, `BENCH_executor.json` and
//!   `BENCH_translate.json` artifacts of exact counters;
//! * [`compare`] — the exact gate behind `cf2df check-bench --compare`;
//! * [`json`] — a hand-rolled RFC 8259 writer and validator (in-tree
//!   replacement for `serde_json`, per the offline/no-deps build policy);
//! * [`prng`] — a seedable xorshift64* generator (in-tree replacement for
//!   the `rand` crate, per the offline/no-deps build policy).

pub mod artifacts;
pub mod compare;
pub mod figures;
pub mod harness;
pub mod json;
pub mod prng;
pub mod workloads;

pub use harness::{measure, measure_source, Measurement};
