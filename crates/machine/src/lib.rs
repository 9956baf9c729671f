#![warn(missing_docs)]

//! An explicit-token-store (ETS) dataflow machine simulator in the style of
//! Monsoon, the paper's target machine (§2.2).
//!
//! * Operators fire when tokens are present on their inputs; tokens destined
//!   for a multi-input operator rendezvous at a per-(operator, tag) slot —
//!   the simulator's analogue of Monsoon's frame memory.
//! * Memory is a *multiply-written* store: locations can be written more
//!   than once, and correct ordering is the responsibility of the dataflow
//!   graph's access tokens — exactly the paper's extension of the classical
//!   dataflow memory model. Loads and stores are split-phase: issuing does
//!   not block, responses arrive after a configurable latency.
//! * Loop iterations are distinguished by *tags* (iteration contexts)
//!   managed by the loop-entry/exit operators of §3, standing in for
//!   Monsoon's per-iteration frame allocation.
//! * I-structure memory (deferred reads, write-once cells) backs the §6.3
//!   write-once-array enhancement.
//!
//! The simulator detects the failure the paper warns about for cyclic
//! graphs without loop control — two tokens colliding on one arc/slot
//! ("each arc can hold at most one token") — and reports it as
//! [`MachineError::TokenCollision`].
//!
//! [`vonneumann`] provides the sequential control-flow interpreter used as
//! the baseline (the "thread descriptor" execution the paper contrasts
//! with), and [`parallel`] a multi-threaded token-pushing executor
//! demonstrating real parallel execution of the same graphs: one engine
//! ([`mod@serve`]) that runs a solo invocation or multiplexes many, built
//! on a crate-private, std-only work-stealing scheduler. [`prng`] is the
//! workspace's seedable generator, behind both the executor's fault
//! injection ([`chaos`]) and the bench crate's program generators.

pub mod chaos;
pub mod compiled;
pub mod exec;
pub mod hash;
pub mod memory;
pub mod metrics;
pub mod parallel;
pub mod prng;
mod scheduler;
pub mod serve;
pub mod tag;
pub mod trace;
pub mod vonneumann;

pub use chaos::{ChaosConfig, ChaosTallies};
pub use compiled::{compile, CompiledGraph, Footprint};
pub use exec::{run, run_compiled, run_traced, MachineConfig, MachineError, Outcome};
pub use hash::{FxBuildHasher, FxHashMap};
pub use metrics::{ExecStats, ParMetrics, ServeStats, WorkerStats};
pub use parallel::{
    run_threaded, run_threaded_compiled_pooled_with, ExecutorPool, ParConfig, ParOutcome,
};
pub use serve::{run_concurrent, serve, ReqId, ServeHandle};
pub use tag::{TagId, TagSplit, TagTable};
pub use trace::TraceEvent;
