//! The threaded executor's public face and its concurrent machine state.
//!
//! Where [`crate::exec`] is a deterministic discrete-event *simulator*
//! measuring idealized parallelism, the threaded executor actually runs a
//! dataflow graph on OS threads: worker threads pull tokens from
//! work-stealing run queues, rendezvous them in sharded slot tables,
//! fire operators, and push result tokens back. It
//! demonstrates the paper's point that the translated graphs are
//! genuinely parallel programs — any interleaving the token dependences
//! permit yields the same final memory, which the tests check against
//! the deterministic simulator.
//!
//! There is one threaded engine, in [`mod@crate::serve`]: a solo run
//! ([`run_threaded`], [`run_threaded_compiled_pooled_with`]) is one
//! admitted invocation of it, and [`crate::serve::serve`] multiplexes
//! many. This module holds what both share: the run configuration and
//! outcome, the worker pool, and the per-invocation machine state.
//! Everything is std-only (offline/no-deps build policy), and the shared
//! state is engineered so independent memory operations really do
//! proceed in parallel, as Schema 2 promises:
//!
//! * ordinary memory cells are `AtomicI64`s — loads and stores never take
//!   a lock (the dataflow graph's access tokens are what order them);
//! * I-structure cells sit behind one lock, allocated by the first
//!   I-structure operation (only I-structure arrays reach them);
//! * the tag (iteration-context) interner is sharded by
//!   `(parent, loop, iteration)`, each shard allocating `TagId`s from a
//!   disjoint arithmetic progression.
//!
//! Shutdown is explicit: a sent token is never dropped. Workers drain
//! until the token population hits zero — clean completion after `End`,
//! or quiescence without `End`, reported as deadlock — or the session
//! halts (watchdog, escaped panic). The scheduler's debug assertion and
//! the `no_token_is_dropped_without_a_recorded_error` test pin this
//! down.

use crate::chaos::ChaosConfig;
use crate::compiled::{compile, CompiledGraph};
use crate::exec::MachineError;
use crate::hash::FxHashMap;
use crate::memory::{DeferredRead, MemError};
use crate::metrics::ParMetrics;
use crate::scheduler::{lock, WorkerPool};
use crate::tag::TagId;
use crate::trace::TraceEvent;
use cf2df_cfg::{LoopId, MemLayout, VarId};
use cf2df_dfg::{Dfg, OpId};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Execution limits and fault injection for a threaded run. The
/// defaults ([`ParConfig::default`]) are what [`run_threaded`] uses:
/// unlimited fuel, no watchdog, no trace, no chaos, full tag space.
#[derive(Clone, Debug)]
pub struct ParConfig {
    /// Firing budget (the threaded analogue of
    /// [`crate::exec::MachineConfig::fuel`]): a run that fires more
    /// operators returns [`MachineError::FuelExhausted`] instead of
    /// spinning forever on a runaway cyclic graph. `u64::MAX` means
    /// unlimited.
    pub fuel: u64,
    /// Wall-clock bound: a monitor thread halts the scheduler when the
    /// run exceeds it, and the run returns
    /// [`MachineError::WatchdogTimeout`]. `None` means no watchdog.
    pub watchdog: Option<Duration>,
    /// Capacity of the bounded ring of the last fire events
    /// ([`TraceEvent`]) a solo run returns; `None` disables tracing
    /// entirely (zero allocation). Serving sessions ignore it.
    pub trace_capacity: Option<usize>,
    /// Fault-injection plan (see [`crate::chaos`]); `None` on ordinary
    /// runs.
    pub chaos: Option<ChaosConfig>,
    /// Largest admissible tag id. Interning beyond it fails the run with
    /// [`MachineError::TagSpaceExhausted`] instead of panicking. The default (`u32::MAX`) is the type's full range —
    /// the error every deep-enough loop nest would eventually hit.
    pub tag_cap: u32,
}

impl Default for ParConfig {
    fn default() -> ParConfig {
        ParConfig {
            fuel: u64::MAX,
            watchdog: None,
            trace_capacity: None,
            chaos: None,
            tag_cap: u32::MAX,
        }
    }
}

/// Result of a threaded run.
#[derive(Clone, Debug)]
pub struct ParOutcome {
    /// Final ordinary memory.
    pub memory: Vec<i64>,
    /// Final I-structure memory.
    pub ist_memory: Vec<i64>,
    /// Operators fired.
    pub fired: u64,
    /// Executor metrics: per-worker scheduler counters, rendezvous
    /// pressure, tag occupancy. Always collected — the counters are
    /// worker-local tallies, settled once per batch.
    pub metrics: ParMetrics,
}

/// Shards in the tag interner.
const TAG_SHARDS: usize = 16;

// ---------------------------------------------------------------------
// Sharded memory
// ---------------------------------------------------------------------

/// One I-structure cell (write-once, deferred reads).
#[derive(Debug, Default)]
enum IstSlot {
    #[default]
    Empty,
    Full(i64),
    Deferred(Vec<DeferredRead<(OpId, TagId)>>),
}

/// Concurrent machine memory: atomic ordinary cells plus an I-structure
/// overlay under one lock. The dataflow graph's access tokens are
/// responsible for ordering, exactly as in the sequential [`crate::memory::Memory`];
/// the cells only have to be individually race-free. Crate-visible:
/// [`mod@crate::serve`] instantiates one per admitted invocation.
pub(crate) struct ParMemory {
    cells: Vec<AtomicI64>,
    /// The I-structure cell of every address; empty until the first
    /// I-structure operation sizes it.
    ist: Mutex<Vec<IstSlot>>,
}

impl ParMemory {
    pub(crate) fn new(layout: &MemLayout) -> ParMemory {
        let n = layout.total_cells() as usize;
        ParMemory {
            cells: (0..n).map(|_| AtomicI64::new(0)).collect(),
            ist: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn read_scalar(&self, layout: &MemLayout, var: VarId) -> i64 {
        self.cells[layout.base(var) as usize].load(Ordering::SeqCst)
    }

    pub(crate) fn write_scalar(&self, layout: &MemLayout, var: VarId, value: i64) {
        self.cells[layout.base(var) as usize].store(value, Ordering::SeqCst);
    }

    pub(crate) fn read_element(
        &self,
        layout: &MemLayout,
        var: VarId,
        index: i64,
    ) -> Result<i64, MemError> {
        let addr = layout
            .element(var, index)
            .ok_or(MemError::OutOfBounds { var, index })?;
        Ok(self.cells[addr as usize].load(Ordering::SeqCst))
    }

    pub(crate) fn write_element(
        &self,
        layout: &MemLayout,
        var: VarId,
        index: i64,
        value: i64,
    ) -> Result<(), MemError> {
        let addr = layout
            .element(var, index)
            .ok_or(MemError::OutOfBounds { var, index })?;
        self.cells[addr as usize].store(value, Ordering::SeqCst);
        Ok(())
    }

    pub(crate) fn ist_read(
        &self,
        layout: &MemLayout,
        var: VarId,
        index: i64,
        ctx: (OpId, TagId),
    ) -> Result<Option<i64>, MemError> {
        let addr = layout
            .element(var, index)
            .ok_or(MemError::OutOfBounds { var, index })? as usize;
        let mut ist = lock(&self.ist);
        ist.resize_with(self.cells.len(), IstSlot::default);
        let slot = &mut ist[addr];
        match slot {
            IstSlot::Full(v) => Ok(Some(*v)),
            IstSlot::Empty => {
                *slot = IstSlot::Deferred(vec![DeferredRead { ctx }]);
                Ok(None)
            }
            IstSlot::Deferred(q) => {
                q.push(DeferredRead { ctx });
                Ok(None)
            }
        }
    }

    pub(crate) fn ist_write(
        &self,
        layout: &MemLayout,
        var: VarId,
        index: i64,
        value: i64,
    ) -> Result<Vec<DeferredRead<(OpId, TagId)>>, MemError> {
        let addr = layout
            .element(var, index)
            .ok_or(MemError::OutOfBounds { var, index })? as usize;
        let mut ist = lock(&self.ist);
        ist.resize_with(self.cells.len(), IstSlot::default);
        let slot = &mut ist[addr];
        match std::mem::take(slot) {
            IstSlot::Full(_) => Err(MemError::IStructureRewrite { addr: addr as u32 }),
            IstSlot::Empty => {
                *slot = IstSlot::Full(value);
                Ok(Vec::new())
            }
            IstSlot::Deferred(q) => {
                *slot = IstSlot::Full(value);
                Ok(q)
            }
        }
    }

    pub(crate) fn cells_snapshot(&self) -> Vec<i64> {
        self.cells
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect()
    }

    /// I-structure snapshot in address order (empty cells read as 0).
    pub(crate) fn ist_snapshot(&self) -> Vec<i64> {
        let ist = lock(&self.ist);
        (0..self.cells.len())
            .map(|a| match ist.get(a) {
                Some(IstSlot::Full(v)) => *v,
                _ => 0,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Sharded tag interner
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct TagCtx {
    parent: TagId,
    loop_id: LoopId,
    iter: u32,
}

#[derive(Default)]
struct TagShard {
    /// Interner on the vendored integer hasher ([`crate::hash`]): the
    /// keys are small dense integers from the program, so SipHash's DoS
    /// resistance buys nothing here.
    intern: FxHashMap<(TagId, LoopId, u32), TagId>,
    /// `ctxs[k]` is the context of `TagId(k * TAG_SHARDS + shard_index)`;
    /// `None` only for the root slot in shard 0.
    ctxs: Vec<Option<TagCtx>>,
}

/// Concurrent interning table for iteration contexts (the parallel
/// analogue of [`crate::tag::TagTable`]). Shard `s` allocates the ids
/// `{ k * TAG_SHARDS + s }`, so allocation never contends across shards,
/// and a tag's shard is recoverable from its id for lock-local `info`
/// lookups. Interning still guarantees that every token line entering
/// the same iteration of the same loop under the same parent receives
/// the *same* tag, because one shard owns each `(parent, loop, iter)` key.
/// Crate-visible: [`mod@crate::serve`] gives every admitted invocation its
/// own table over its reserved slice of the tag space.
pub(crate) struct ParTagTable {
    shards: Vec<Mutex<TagShard>>,
    /// Largest admissible tag id; interning past it is a
    /// [`MachineError::TagSpaceExhausted`], not a panic.
    cap: u32,
    /// Request id carried into [`MachineError::TagSpaceExhausted`] when
    /// this interner serves one multiplexed invocation; `None` for a
    /// solo run's.
    invocation: Option<u64>,
}

impl ParTagTable {
    /// An interner admitting tag ids up to `cap`, whose exhaustion
    /// error names `invocation` (the multiplexed request it belongs to;
    /// `None` for a solo run).
    pub(crate) fn new(cap: u32, invocation: Option<u64>) -> ParTagTable {
        let mut shards: Vec<Mutex<TagShard>> = (0..TAG_SHARDS)
            .map(|_| Mutex::new(TagShard::default()))
            .collect();
        // Reserve id 0 (= slot 0 of shard 0) for the root tag.
        shards[0].get_mut().unwrap().ctxs.push(None);
        ParTagTable {
            shards,
            cap,
            invocation,
        }
    }

    fn shard_of(parent: TagId, loop_id: LoopId, iter: u32) -> usize {
        let h = (parent.0 as usize)
            .wrapping_mul(0x9e37_79b1)
            .wrapping_add((loop_id.0 as usize).wrapping_mul(31))
            .wrapping_add(iter as usize);
        h % TAG_SHARDS
    }

    /// The tag for iteration `iter` of loop `loop_id` under `parent`.
    /// Fails with [`MachineError::TagSpaceExhausted`] — recorded by the
    /// engine as the invocation's failure — once the shard's arithmetic
    /// progression would pass the cap (or overflow the id type).
    pub(crate) fn child(
        &self,
        parent: TagId,
        loop_id: LoopId,
        iter: u32,
    ) -> Result<TagId, MachineError> {
        let s = Self::shard_of(parent, loop_id, iter);
        let mut shard = lock(&self.shards[s]);
        if let Some(&t) = shard.intern.get(&(parent, loop_id, iter)) {
            return Ok(t);
        }
        let k = shard.ctxs.len();
        let t = match u32::try_from(k * TAG_SHARDS + s) {
            Ok(id) if id <= self.cap => TagId(id),
            _ => {
                return Err(MachineError::TagSpaceExhausted {
                    cap: self.cap,
                    invocation: self.invocation,
                })
            }
        };
        shard.ctxs.push(Some(TagCtx {
            parent,
            loop_id,
            iter,
        }));
        shard.intern.insert((parent, loop_id, iter), t);
        Ok(t)
    }

    /// Decompose a tag into `(parent, loop, iteration)`; `None` for the
    /// root.
    pub(crate) fn info(&self, tag: TagId) -> Option<(TagId, LoopId, u32)> {
        let s = tag.index() % TAG_SHARDS;
        let k = tag.index() / TAG_SHARDS;
        let shard = lock(&self.shards[s]);
        shard
            .ctxs
            .get(k)
            .copied()
            .flatten()
            .map(|c| (c.parent, c.loop_id, c.iter))
    }

    /// Human-readable rendering for error messages.
    pub(crate) fn render(&self, tag: TagId) -> String {
        match self.info(tag) {
            None => "root".to_owned(),
            Some((p, l, i)) => format!("{}.{:?}[{}]", self.render(p), l, i),
        }
    }

    /// Interner occupancy: distinct tags created, excluding the root.
    pub(crate) fn created(&self) -> u64 {
        let total: u64 = self.shards.iter().map(|s| lock(s).ctxs.len() as u64).sum();
        total - 1
    }
}

/// A persistent set of executor worker threads, reusable across
/// [`run_threaded_compiled_pooled_with`] runs and [`crate::serve::serve`]
/// sessions. Spawning OS threads costs tens of
/// microseconds — comparable to an entire corpus-program execution — so
/// repeated runs (benchmarks, servers) should spawn a pool once and
/// park it between runs rather than pay that price inside every run.
///
/// [`ExecutorPool::new`] returns once every worker thread has started,
/// so each is found by its name, `cf2df-pool-<w>`, from then on. A
/// solo run on a 1-worker pool runs its worker on the calling thread
/// and leaves the pool thread parked; serving sessions, and solo runs
/// on wider pools, run their workers on the pool threads.
///
/// The pool is shared by reference across threads, and runs and
/// sessions on it take turns: one started while another holds the pool
/// waits until that one ends, and its watchdog counts the wait. A
/// serving session holds the pool until
/// its closure returns, so a run started on the same pool from inside a
/// [`crate::serve::serve`] session waits for that session to end; from
/// the session's own closure it never returns. Use a second pool there.
pub struct ExecutorPool {
    pub(crate) pool: WorkerPool,
}

impl ExecutorPool {
    /// Spawn a pool of `n_threads` executor workers (`n_threads >= 1`),
    /// returning once every one has started.
    pub fn new(n_threads: usize) -> ExecutorPool {
        ExecutorPool {
            pool: WorkerPool::new(n_threads),
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }
}

/// Execute a dataflow graph on `n_threads` worker threads: compile it,
/// spawn a pool for this one run, and run it with the default
/// [`ParConfig`]. Callers running graphs repeatedly should [`compile`]
/// once, keep an [`ExecutorPool`], and use
/// [`run_threaded_compiled_pooled_with`].
pub fn run_threaded(
    g: &Dfg,
    layout: &MemLayout,
    n_threads: usize,
) -> Result<ParOutcome, MachineError> {
    let cg = compile(g)?;
    let pool = ExecutorPool::new(n_threads);
    run_threaded_compiled_pooled_with(&cg, layout, &pool, &ParConfig::default()).0
}

/// Run an already-[`compile`]d graph once on a pre-spawned
/// [`ExecutorPool`], with limits, tracing and fault injection from
/// `cfg`: the zero-recompile entry point for benchmarks and pooled
/// servers. The worker count is the pool's width; no threads are created
/// or torn down inside the call, and the pool survives contained worker
/// panics and stays usable for subsequent runs.
///
/// Metrics are returned on *every* path: on success the returned
/// [`ParMetrics`] equals `outcome.metrics`; on failure it holds what the
/// workers did up to the verdict — which is how a
/// [`MachineError::WorkerPanicked`] run still reports its injected-fault
/// tallies. The trace holds the last `cfg.trace_capacity` firings, on
/// the failure path too (deadlock, tag mismatch) — which is what it is
/// for.
pub fn run_threaded_compiled_pooled_with(
    cg: &CompiledGraph,
    layout: &MemLayout,
    pool: &ExecutorPool,
    cfg: &ParConfig,
) -> (
    Result<ParOutcome, MachineError>,
    ParMetrics,
    Vec<TraceEvent>,
) {
    crate::serve::run_solo(cg, layout, pool, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::{BinOp, VarTable};
    use cf2df_dfg::graph::ArcKind;
    use cf2df_dfg::{OpKind, Port};

    /// Run `g` on `workers` threads, keeping the last `capacity` firings.
    fn traced_run(
        g: &Dfg,
        layout: &MemLayout,
        workers: usize,
        capacity: usize,
    ) -> (Result<ParOutcome, MachineError>, Vec<TraceEvent>) {
        let cfg = ParConfig {
            trace_capacity: Some(capacity),
            ..ParConfig::default()
        };
        let cg = compile(g).unwrap();
        let (result, _, trace) =
            run_threaded_compiled_pooled_with(&cg, layout, &ExecutorPool::new(workers), &cfg);
        (result, trace)
    }

    #[test]
    fn threaded_matches_simulator_on_straight_line() {
        let mut t = VarTable::new();
        t.scalar("x");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld = g.add(OpKind::Load { var: VarId(0) });
        let add = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(add, 1, 41);
        let st = g.add(OpKind::Store { var: VarId(0) });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(ld, 0), ArcKind::Access);
        g.connect(Port::new(ld, 0), Port::new(add, 0), ArcKind::Value);
        g.connect(Port::new(add, 0), Port::new(st, 0), ArcKind::Value);
        g.connect(Port::new(ld, 1), Port::new(st, 1), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);

        let sim = crate::exec::run(&g, &layout, crate::exec::MachineConfig::unbounded()).unwrap();
        for threads in [1, 2, 4] {
            let par = run_threaded(&g, &layout, threads).unwrap();
            assert_eq!(par.memory, sim.memory, "threads={threads}");
            assert_eq!(par.fired, sim.stats.fired);
            // Metrics self-consistency: every processed token either
            // fired an operator or merged into a rendezvous slot, and
            // each worker accounts for its own tokens.
            let m = &par.metrics;
            assert_eq!(m.workers.len(), threads);
            let per_worker: u64 = m.workers.iter().map(|w| w.processed).sum();
            assert_eq!(per_worker, m.tokens_processed);
            assert_eq!(
                m.tokens_processed,
                par.fired + m.merged,
                "threads={threads}"
            );
            let shard_max = m.slot_shard_high_water.iter().copied().max().unwrap_or(0);
            let shard_sum: u64 = m.slot_shard_high_water.iter().sum();
            assert!(m.max_pending_slots >= shard_max);
            assert!(m.max_pending_slots <= shard_sum.max(shard_max));
        }
    }

    /// The deadlock report must name the partially-filled slot: which
    /// operator, which tag, which ports are filled — not a fixed string.
    #[test]
    fn threaded_detects_deadlock_and_names_pending_slots() {
        let mut t = VarTable::new();
        t.scalar("x");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let sy = g.add(OpKind::Synch { inputs: 2 });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(sy, 0), ArcKind::Access);
        g.connect(Port::new(sy, 0), Port::new(e, 0), ArcKind::Access);
        let err = run_threaded(&g, &layout, 2).unwrap_err();
        let MachineError::Deadlock { pending } = err else {
            panic!("expected deadlock")
        };
        assert_eq!(pending.len(), 1, "{pending:?}");
        assert!(pending[0].contains("synch2"), "{pending:?}");
        assert!(pending[0].contains("root"), "{pending:?}");
        assert!(pending[0].contains("filled ports [0]"), "{pending:?}");
    }

    /// The trace ring is bounded, keeps the most recent firings, and is
    /// returned on the failure path too (its whole purpose).
    #[test]
    fn trace_ring_captures_recent_firings() {
        let mut t = VarTable::new();
        t.scalar("x");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld = g.add(OpKind::Load { var: VarId(0) });
        let add = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(add, 1, 1);
        let st = g.add(OpKind::Store { var: VarId(0) });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(ld, 0), ArcKind::Access);
        g.connect(Port::new(ld, 0), Port::new(add, 0), ArcKind::Value);
        g.connect(Port::new(add, 0), Port::new(st, 0), ArcKind::Value);
        g.connect(Port::new(ld, 1), Port::new(st, 1), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);

        // Full capacity: one event per firing, in sequence order.
        let (out, trace) = traced_run(&g, &layout, 1, 64);
        let out = out.unwrap();
        assert_eq!(trace.len() as u64, out.fired);
        for (i, ev) in trace.iter().enumerate() {
            assert_eq!(ev.time, i as u64);
            assert_eq!(ev.tag, "root");
        }
        // Bounded: capacity 2 keeps only the last two firings.
        let (out, tail) = traced_run(&g, &layout, 1, 2);
        let out = out.unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.last().unwrap().time, out.fired - 1);

        // Failure path: a deadlocked graph still yields its trace.
        let mut g2 = Dfg::new();
        let s2 = g2.add(OpKind::Start);
        let id = g2.add(OpKind::Identity);
        let sy = g2.add(OpKind::Synch { inputs: 2 });
        let e2 = g2.add(OpKind::End { inputs: 1 });
        g2.connect(Port::new(s2, 0), Port::new(id, 0), ArcKind::Access);
        g2.connect(Port::new(id, 0), Port::new(sy, 0), ArcKind::Access);
        g2.connect(Port::new(sy, 0), Port::new(e2, 0), ArcKind::Access);
        let (res, trace) = traced_run(&g2, &layout, 2, 8);
        assert!(matches!(res, Err(MachineError::Deadlock { .. })));
        assert_eq!(trace.len(), 1, "the identity fired before the stall");
        assert_eq!(trace[0].op, id);
    }

    /// The satellite invariant: a token can only go unprocessed when a
    /// `MachineError` was recorded for the run. An out-of-bounds store
    /// halts mid-flight — the run must surface that error (not hang, not
    /// quietly finish), and a clean run of the same shape must drain.
    #[test]
    fn no_token_is_dropped_without_a_recorded_error() {
        let mut t = VarTable::new();
        t.array("a", 4);
        let layout = MemLayout::distinct(&t);
        // start → (+ idx) → store a[idx] := 7 → end. The start token
        // (value 0) triggers the add, whose output is the store index.
        let build = |idx: i64| {
            let mut g = Dfg::new();
            let s = g.add(OpKind::Start);
            let add = g.add(OpKind::Binary { op: BinOp::Add });
            g.set_imm(add, 1, idx);
            let st = g.add(OpKind::StoreIdx { var: VarId(0) });
            g.set_imm(st, 1, 7);
            g.set_imm(st, 2, 0); // access trigger satisfied immediately
            let e = g.add(OpKind::End { inputs: 1 });
            g.connect(Port::new(s, 0), Port::new(add, 0), ArcKind::Value);
            g.connect(Port::new(add, 0), Port::new(st, 0), ArcKind::Value);
            g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);
            g
        };
        // Failing run: index 9 is out of bounds.
        let g_bad = build(9);
        let err = run_threaded(&g_bad, &layout, 4).unwrap_err();
        assert!(
            matches!(err, MachineError::Memory(MemError::OutOfBounds { .. })),
            "expected OutOfBounds, got {err:?}"
        );
        // Clean run: same graph with a legal index drains fully.
        let g_ok = build(2);
        let out = run_threaded(&g_ok, &layout, 4).unwrap();
        assert_eq!(out.memory[layout.element(VarId(0), 2).unwrap() as usize], 7);
    }

    #[test]
    fn sharded_tags_intern_consistently() {
        let tags = ParTagTable::new(u32::MAX, None);
        assert_eq!(tags.info(TagId::ROOT), None);
        assert_eq!(tags.render(TagId::ROOT), "root");
        let a = tags.child(TagId::ROOT, LoopId(0), 3).unwrap();
        let b = tags.child(TagId::ROOT, LoopId(0), 3).unwrap();
        assert_eq!(a, b, "same key must intern to the same tag");
        let c = tags.child(TagId::ROOT, LoopId(0), 4).unwrap();
        assert_ne!(a, c);
        let inner = tags.child(a, LoopId(1), 0).unwrap();
        assert_eq!(tags.info(inner), Some((a, LoopId(1), 0)));
        assert_eq!(tags.render(inner), "root.L0[3].L1[0]");
    }

    /// A capped interner reports exhaustion as a typed error — the unit
    /// face of the `TagSpaceExhausted` satellite (the end-to-end deep
    /// loop nest lives in `tests/chaos.rs`) — and an already-interned
    /// key keeps resolving after the cap is hit.
    #[test]
    fn capped_tag_interner_errors_instead_of_panicking() {
        let tags = ParTagTable::new(2 * TAG_SHARDS as u32, None);
        let mut made = Vec::new();
        let mut exhausted = false;
        for i in 0..200u32 {
            match tags.child(TagId::ROOT, LoopId(0), i) {
                Ok(t) => made.push((i, t)),
                Err(MachineError::TagSpaceExhausted { cap, invocation }) => {
                    assert_eq!(cap, 2 * TAG_SHARDS as u32);
                    assert_eq!(invocation, None, "whole-run interner names no invocation");
                    exhausted = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e:?}"),
            }
        }
        assert!(exhausted, "200 iterations must blow a ~2-per-shard cap");
        assert!(!made.is_empty(), "some tags fit under the cap");
        for (i, t) in &made {
            assert_eq!(tags.child(TagId::ROOT, LoopId(0), *i).unwrap(), *t);
        }
    }

    #[test]
    fn sharded_tags_safe_under_contention() {
        let tags = ParTagTable::new(u32::MAX, None);
        let ids: Vec<TagId> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let tags = &tags;
                    scope.spawn(move || {
                        (0..100u32)
                            .map(|i| tags.child(TagId::ROOT, LoopId(0), i).unwrap())
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all: Vec<Vec<TagId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let first = all.pop().unwrap();
            for other in &all {
                assert_eq!(&first, other, "interning must agree across threads");
            }
            first
        });
        // All distinct iterations got distinct tags.
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn par_memory_striping_is_addressable() {
        let mut t = VarTable::new();
        t.scalar("x");
        let a = t.array("a", 40); // forty cells under the one lock
        let layout = MemLayout::distinct(&t);
        let m = ParMemory::new(&layout);
        for i in 0..40 {
            m.ist_write(&layout, a, i, i * 10).unwrap();
        }
        let snap = m.ist_snapshot();
        for i in 0..40 {
            assert_eq!(snap[layout.element(a, i).unwrap() as usize], i * 10);
        }
        // Deferred read released by the matching write.
        let m2 = ParMemory::new(&layout);
        assert_eq!(
            m2.ist_read(&layout, a, 3, (OpId(1), TagId::ROOT)).unwrap(),
            None
        );
        let released = m2.ist_write(&layout, a, 3, 5).unwrap();
        assert_eq!(released.len(), 1);
        assert!(m2.ist_write(&layout, a, 3, 6).is_err(), "rewrite detected");
    }
}
