//! Execution metrics: the quantities the paper's parallelism claims are
//! about.
//!
//! With unbounded processors and unit latencies, `makespan` is the dataflow
//! graph's *critical path* and `avg_parallelism = fired / makespan` is the
//! parallelism the graph exposes — the paper's central measure of how much
//! a translation schema "exploits fine-grain parallelism across
//! statements".

/// Metrics gathered over one execution.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Operators fired.
    pub fired: u64,
    /// Memory reads issued (ordinary + I-structure).
    pub mem_reads: u64,
    /// Memory writes issued.
    pub mem_writes: u64,
    /// Time at which `End` fired (the makespan; with unbounded processors,
    /// the critical path).
    pub makespan: u64,
    /// Operators issued per time step, up to a configurable cap.
    pub profile: Vec<u32>,
    /// Maximum operators issued in any single step.
    pub max_parallelism: u32,
    /// Token collisions observed (only nonzero when collisions are
    /// configured non-fatal).
    pub collisions: u64,
    /// Tokens still pending (in rendezvous slots or in flight) when `End`
    /// fired. A clean translation drains to zero.
    pub leftover_tokens: u64,
    /// I-structure reads that had to be deferred.
    pub deferred_reads: u64,
    /// Distinct iteration tags created.
    pub tags_created: u64,
    /// High-water mark of occupied rendezvous slots — the machine's
    /// waiting-matching (frame memory) pressure, a first-order hardware
    /// cost on explicit-token-store machines like Monsoon.
    pub max_pending_slots: u64,
    /// Compound `Macro` operator firings (each counts once in `fired`).
    pub macro_fires: u64,
    /// Operators whose individual firings were elided by macro-op fusion:
    /// each macro firing of an n-step micro-program adds n−1. Adding this
    /// back to `fired` recovers the unfused firing count.
    pub ops_elided: u64,
}

impl ExecStats {
    /// Average parallelism: operators fired per time step.
    pub fn avg_parallelism(&self) -> f64 {
        if self.makespan == 0 {
            self.fired as f64
        } else {
            self.fired as f64 / self.makespan as f64
        }
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "fired={} makespan={} avg_par={:.2} max_par={} reads={} writes={} leftover={} macro={}/{}",
            self.fired,
            self.makespan,
            self.avg_parallelism(),
            self.max_parallelism,
            self.mem_reads,
            self.mem_writes,
            self.leftover_tokens,
            self.macro_fires,
            self.ops_elided
        )
    }
}

/// Per-worker scheduler counters, collected by [`crate::scheduler`] with
/// plain (thread-local) arithmetic — always on, no atomics on the hot
/// path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker fully processed. For the threaded executor this
    /// includes tokens consumed by the worker-local rendezvous fast path
    /// (two per [`WorkerStats::fast_path`] join), which never transit a
    /// run queue.
    pub processed: u64,
    /// Pops from the worker's own run queue (the fast path).
    pub local_pops: u64,
    /// Tasks taken from the global injector.
    pub injector_hits: u64,
    /// Tasks stolen from a sibling's queue straight into a batch (tasks,
    /// not steal operations — a single steal-half grabs many). A steal's
    /// surplus beyond one batch moves to the thief's own queue and is
    /// counted in `local_pops` when popped, so every task has exactly one
    /// source.
    pub steals: u64,
    /// Idle episodes in which the worker blocked on the condvar.
    pub parks: u64,
    /// Parked episodes that ended because work appeared (as opposed to
    /// shutdown).
    pub unparks: u64,
    /// Batches of tasks taken from the queues (each batch is one
    /// synchronization, covering up to the scheduler's batch size in
    /// tasks).
    pub batches: u64,
    /// Two-input operator firings completed through the worker-local
    /// same-batch rendezvous fast path, bypassing the sharded global
    /// slot table. Filled in by the executor, not the scheduler.
    pub fast_path: u64,
    /// Fault-injected worker-local delays slept ([`crate::chaos`]);
    /// zero on ordinary runs.
    pub chaos_delays: u64,
    /// Batches for which fault injection forced this worker onto the
    /// injector/steal path ahead of its own queue; zero on ordinary
    /// runs.
    pub chaos_forced_steals: u64,
}

/// Metrics of one threaded-executor run ([`crate::parallel::run_threaded`]),
/// surfaced in [`crate::parallel::ParOutcome`]. Always on: every
/// counter is a worker-local tally, settled into the invocation's totals
/// once per batch, so none costs a shared write per token. The counts
/// are exact at every worker count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParMetrics {
    /// Per-worker scheduler counters, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Total tokens processed (sum of the per-worker `processed`).
    pub tokens_processed: u64,
    /// Tokens that rendezvoused into a partially-filled slot without
    /// completing it — in the sharded global table or in a worker-local
    /// fast-path pair (one per fast-path join). On a clean run,
    /// `tokens_processed == fired + merged`.
    pub merged: u64,
    /// Two-input operator firings completed entirely inside one worker's
    /// batch: both input tokens were produced by the same worker in the
    /// same batch and were joined locally, never touching a run queue or
    /// the sharded rendezvous table. Each such join counts two tokens
    /// into [`ParMetrics::tokens_processed`] and one into
    /// [`ParMetrics::merged`], so the accounting invariant holds.
    pub fast_path_fires: u64,
    /// Rendezvous entries the slot table's shards grew to hold: the sum
    /// of [`ParMetrics::slot_shard_high_water`]. The waiting-matching
    /// (frame memory) pressure as the table's capacity, and so its
    /// memory, follows it; at least the whole table's peak occupancy,
    /// which is not tracked, so it is not the simulator's exact
    /// [`ExecStats::max_pending_slots`]. Depends on the schedule.
    pub max_pending_slots: u64,
    /// Per-shard high-water marks of the rendezvous-slot table, each
    /// exact under its shard's lock.
    pub slot_shard_high_water: Vec<u64>,
    /// Distinct iteration tags interned (tag-interner occupancy).
    pub tags_created: u64,
    /// I-structure reads that arrived before their write and were
    /// deferred.
    pub deferred_reads: u64,
    /// Peak number of simultaneously outstanding deferred reads.
    pub deferred_read_peak: u64,
    /// Compound `Macro` operator firings across all workers.
    pub macro_fires: u64,
    /// Operator firings elided by macro-op fusion (n−1 per firing of an
    /// n-step macro); `fired + ops_elided` recovers the unfused count.
    pub ops_elided: u64,
    /// Faults actually injected by the chaos plan (all zero on
    /// ordinary runs — asserted by the bench harness).
    pub chaos: crate::chaos::ChaosTallies,
}

impl ParMetrics {
    /// One-line summary.
    pub fn summary(&self) -> String {
        let steals: u64 = self.workers.iter().map(|w| w.steals).sum();
        let parks: u64 = self.workers.iter().map(|w| w.parks).sum();
        format!(
            "processed={} merged={} fastpath={} macro={}/{} steals={} parks={} max_slots={} tags={} deferred={}",
            self.tokens_processed,
            self.merged,
            self.fast_path_fires,
            self.macro_fires,
            self.ops_elided,
            steals,
            parks,
            self.max_pending_slots,
            self.tags_created,
            self.deferred_reads
        )
    }
}

/// Session-level metrics of one multiplexed serving run
/// ([`crate::serve::serve`]): what the *shared pool* did across every
/// admitted invocation. Per-invocation quantities (fired, merged, tags,
/// deferred reads) live in each request's own
/// [`crate::parallel::ParOutcome::metrics`]; the per-worker scheduler
/// counters only exist here, because the workers are shared and their
/// batches freely interleave tokens of different invocations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Requests admitted (every `submit`, including ones that later
    /// failed).
    pub requests: u64,
    /// Requests that completed with an `Ok` outcome.
    pub completed_ok: u64,
    /// Requests that completed with a typed `MachineError`.
    pub failed: u64,
    /// Highest number of simultaneously inflight invocations observed —
    /// at most the session's admission window (`max_inflight`).
    pub peak_inflight: u64,
    /// Per-worker scheduler counters for the whole session, indexed by
    /// worker.
    pub workers: Vec<WorkerStats>,
    /// Tokens processed across all invocations (sum of the per-worker
    /// `processed`).
    pub tokens_processed: u64,
    /// Rendezvous entries the shards of the shared (invocation-keyed)
    /// slot table grew to hold over the session: the sum of their
    /// high-water marks, as in [`ParMetrics::max_pending_slots`].
    pub max_pending_slots: u64,
    /// Faults injected by the chaos plan over the whole session (all
    /// zero on ordinary runs).
    pub chaos: crate::chaos::ChaosTallies,
}

impl ServeStats {
    /// One-line summary.
    pub fn summary(&self) -> String {
        let steals: u64 = self.workers.iter().map(|w| w.steals).sum();
        let parks: u64 = self.workers.iter().map(|w| w.parks).sum();
        format!(
            "requests={} ok={} failed={} peak_inflight={} processed={} steals={} parks={} max_slots={}",
            self.requests,
            self.completed_ok,
            self.failed,
            self.peak_inflight,
            self.tokens_processed,
            steals,
            parks,
            self.max_pending_slots
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_metrics_summary_sums_workers() {
        let m = ParMetrics {
            workers: vec![
                WorkerStats { steals: 2, parks: 1, ..Default::default() },
                WorkerStats { steals: 3, parks: 4, ..Default::default() },
            ],
            tokens_processed: 10,
            merged: 4,
            ..Default::default()
        };
        let s = m.summary();
        assert!(s.contains("steals=5"), "{s}");
        assert!(s.contains("parks=5"), "{s}");
        assert!(s.contains("processed=10"), "{s}");
    }

    #[test]
    fn avg_parallelism_guards_zero_makespan() {
        let s = ExecStats {
            fired: 5,
            makespan: 0,
            ..Default::default()
        };
        assert_eq!(s.avg_parallelism(), 5.0);
        let s2 = ExecStats {
            fired: 10,
            makespan: 4,
            ..Default::default()
        };
        assert_eq!(s2.avg_parallelism(), 2.5);
        assert!(s2.summary().contains("avg_par=2.50"));
    }
}
