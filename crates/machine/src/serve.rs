//! The threaded engine: any number of invocations of one compiled graph,
//! multiplexed onto a single shared [`ExecutorPool`].
//!
//! This is the only threaded executor. A solo run
//! ([`crate::parallel::run_threaded_compiled_pooled_with`]) admits one
//! invocation and drives the scheduler from the calling thread; a
//! serving session ([`serve`]) keeps the scheduler open on a thread of
//! its own while its caller submits requests. Both go through the same
//! admission, token processing, quiescence detection and failure
//! classification. What a token does when it arrives — fire its operator
//! or wait in a rendezvous slot — is the simulator's rule: the arrival
//! rule and slot table of [`crate::compiled`], with one table per shard
//! here. The engine decides only when and where a token is handled.
//!
//! Which thread runs which worker: a solo run on a 1-worker pool runs
//! that worker on the calling thread, with no hand-off to the pool
//! thread. Every other run — a solo run on a wider pool, or a serving
//! session at any width — runs worker `w` on the pool thread named
//! `cf2df-pool-<w>`.
//!
//! The engine follows the tagged-token machine's own answer to sharing
//! one machine between programs. On a Monsoon-style explicit-token-store
//! machine, unrelated activations coexist in one waiting-matching store
//! because their tokens carry disjoint contexts — the hardware never
//! needs to know where one program ends and the next begins. We
//! reproduce that here by adding an *invocation* dimension to the tag
//! space: every rendezvous key packs a small invocation index into the
//! high bits of the tag word ([`TagSplit`],
//! [`crate::compiled::key_inv`]), so tokens of concurrent requests flow
//! through the *same* sharded slot table, the same run queues and the
//! same workers, yet can never match each other.
//!
//! Per-invocation state that genuinely must be private — memory, the
//! tag interner (each invocation gets its own reserved slice of the tag
//! space), fuel, metrics, failure — lives in an invocation slot; the
//! expensive shared machinery (worker threads, run queues, rendezvous
//! shards) is allocated once per session.
//!
//! Two-input operators whose partner token is produced by the *same
//! worker in the same batch* rendezvous in a worker-local pair map keyed
//! like the shared table, and never touch the sharded table at all (the
//! fast path, visible as [`ParMetrics::fast_path_fires`]); unpaired
//! entries are flushed back to the ordinary queue at the end of every
//! batch, so the shared table remains the single point of truth between
//! batches.
//!
//! Isolation invariants (pinned by the tests here and in
//! `tests/chaos.rs` / `tests/parallel_equivalence.rs`):
//!
//! * admission is bounded: at most `max_inflight` invocations hold
//!   slots; further [`ServeHandle::submit`] calls block (backpressure);
//! * one invocation's failure — operator panic, memory fault, fuel or
//!   tag exhaustion — fails *that request only*: its remaining tokens
//!   drain as tombstones, its slot is reclaimed, and neighbors and the
//!   pool are untouched;
//! * a request's result is bit-identical to a solo run of the same
//!   graph (equivalence tests check all of them against the
//!   deterministic simulator).
//!
//! Nothing on the per-token path writes a shared counter. Each worker
//! tallies what a batch did to each invocation it touched — tokens
//! consumed and queued, firings, merges, macro firings, entries parked
//! in the shared table, injected faults — in plain worker-local fields,
//! and settles the tally once, at the end of the batch.
//!
//! Quiescence is detected per invocation with a live-token count, settled
//! with the rest of the tally: at the end of a batch each invocation's
//! count rises by the tokens the batch queued for it and falls by the
//! tokens the batch consumed, in one atomic step, after the tally's
//! statistics and before the scheduler makes the queued tokens visible.
//! A token is therefore counted from before anyone can take it until the
//! batch that consumed it has settled, and the count reaching zero means
//! no token of that invocation exists anywhere — queued, stolen, mid-fire
//! or parked in a worker's pair map — and that every batch that touched
//! the invocation has settled. At that point the slot is finalized: its
//! leftover rendezvous entries, if its settled parked count says it has
//! any, are purged from the shared table, and the run is classified
//! (recorded error > fuel overrun > injected drops > deadlock > success).
//!
//! Fuel is checked against the settled firing count plus the checking
//! batch's own, so a single worker refuses exactly the first firing past
//! the budget. Several workers can each fire within their batch's view of
//! the budget and overrun it together; finalize turns a settled total
//! above the budget into [`MachineError::FuelExhausted`], so the verdict
//! is the same at every worker count.

use crate::chaos::{ChaosConfig, ChaosTallies};
use crate::compiled::{
    arrive, fire_op, key_inv, unkey_inv, Arrival, CompiledGraph, Engine, FireInputs, FireVals,
    Joined, SlotTable,
};
use crate::exec::MachineError;
use crate::hash::{shard64, FxHashMap};
use crate::memory::{DeferredRead, MemError};
use crate::metrics::{ParMetrics, ServeStats, WorkerStats};
use crate::parallel::{ExecutorPool, ParConfig, ParMemory, ParOutcome, ParTagTable};
use crate::prng::Prng;
use crate::scheduler::{lock, render_panic, Ctx, Outcome, Scheduler};
use crate::tag::{TagId, TagSplit};
use crate::trace::TraceEvent;
use cf2df_cfg::{LoopId, MemLayout, VarId};
use cf2df_dfg::{OpId, Port};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Shards in the session's shared rendezvous-slot table, chosen by
/// [`shard64`] over the invocation-packed key.
const SLOT_SHARDS: usize = 32;

/// Identifies one submitted request within a serving session. Sequential
/// from 0 in submission order; carried into per-invocation errors
/// (e.g. [`MachineError::TagSpaceExhausted`]) and returned by
/// [`ServeHandle::collect`] so out-of-order completions can be matched
/// to their submissions.
pub type ReqId = u64;

/// A token in flight, extended with the invocation index that scopes its
/// tag.
#[derive(Clone, Copy, Debug)]
struct Token {
    to: Port,
    tag: TagId,
    inv: u32,
    value: i64,
}

/// The per-invocation private state: its memory image and its tag
/// interner (allocating only within the invocation's reserved slice of
/// the tag space).
struct InvCore {
    layout: MemLayout,
    mem: ParMemory,
    tags: ParTagTable,
}

/// An invocation's settled totals: every field is the sum of the
/// [`Tally`] fields of the batches that have settled. Aligned onto a
/// cache line of its own, so a settlement never invalidates the line
/// holding `core` and `failed_flag`, which every token reads. All but
/// `live` are statistics written `Relaxed`; a worker adds them before its
/// batch's `SeqCst` settlement of `live`, and the finalizer reads them
/// after its own read-modify-write of `live` found zero, which orders
/// every earlier settlement before it.
#[repr(align(64))]
#[derive(Default)]
struct InvCounters {
    /// Tokens of this invocation that exist anywhere (queued, being
    /// processed, or waiting in a worker's pair map). Zero means
    /// quiescent — finalize.
    live: AtomicU64,
    fired: AtomicU64,
    merged: AtomicU64,
    macro_fires: AtomicU64,
    ops_elided: AtomicU64,
    /// Tokens taken off a run queue.
    processed: AtomicU64,
    /// Joins completed on the worker-local fast path.
    fast_path: AtomicU64,
    /// Entries of this invocation parked in the shared rendezvous table,
    /// exact once the invocation is quiescent. One batch may complete
    /// an entry another parked, and settle first, so a tally's share and
    /// the running sum can be negative.
    parked: AtomicI64,
    /// Chaos-injected token drops / duplicates charged to this
    /// invocation.
    drops: AtomicU64,
    dups: AtomicU64,
}

impl InvCounters {
    fn reset(&self) {
        for c in [
            &self.fired,
            &self.merged,
            &self.macro_fires,
            &self.ops_elided,
            &self.processed,
            &self.fast_path,
            &self.drops,
            &self.dups,
        ] {
            c.store(0, Ordering::SeqCst);
        }
        self.parked.store(0, Ordering::SeqCst);
    }

    /// Add one batch's tally, statistics first and `live` last, and
    /// report whether the invocation is now quiescent.
    fn settle(&self, t: &Tally) -> bool {
        for (c, v) in [
            (&self.processed, t.consumed),
            (&self.fired, t.fired),
            (&self.merged, t.merged),
            (&self.macro_fires, t.macro_fires),
            (&self.ops_elided, t.ops_elided),
            (&self.fast_path, t.fast),
            (&self.drops, t.drops),
            (&self.dups, t.dups),
        ] {
            if v > 0 {
                c.fetch_add(v, Ordering::Relaxed);
            }
        }
        if t.parked != 0 {
            self.parked.fetch_add(t.parked, Ordering::Relaxed);
        }
        if t.pushed >= t.consumed {
            // Equal counts still settle `live`: this read-modify-write is
            // what orders the statistics above before the finalizer's.
            self.live.fetch_add(t.pushed - t.consumed, Ordering::SeqCst);
            false
        } else {
            let gone = t.consumed - t.pushed;
            self.live.fetch_sub(gone, Ordering::SeqCst) == gone
        }
    }
}

/// One admission slot: the private state of the admitted request and
/// its always-on counters.
struct InvSlot {
    /// Private state of the currently admitted request.
    ///
    /// SAFETY (for both `unsafe impl Sync` and every access): ownership
    /// of a slot is sequenced by the admission free-list under the
    /// session state mutex. `core` is written exclusively in
    /// [`ServeHandle::submit`] *after* popping the slot from the free
    /// list and *before* injecting any of its tokens (the scheduler's
    /// queue locks give the necessary happens-before edge to workers);
    /// workers only read it while processing a token of this invocation,
    /// which holds `live > 0` until their batch settles; finalization
    /// reads it only after `live` reached zero — i.e. after every such
    /// reader finished — and the slot returns to the free list only
    /// after finalization completes. A solo run reads it once more after
    /// its workers have exited.
    core: UnsafeCell<Option<InvCore>>,
    /// The request id occupying this slot (valid while off the free
    /// list).
    req: AtomicU64,
    end_seen: AtomicBool,
    /// First failure recorded for this invocation; `failed_flag` is the
    /// lock-free fast check that turns its remaining tokens into
    /// tombstones.
    failed: Mutex<Option<MachineError>>,
    failed_flag: AtomicBool,
    n: InvCounters,
}

// SAFETY: see the `core` field — all access to the UnsafeCell is
// sequenced by the free-list/live-count protocol documented there; every
// other field is a Sync primitive.
unsafe impl Sync for InvSlot {}

impl InvSlot {
    fn new() -> InvSlot {
        InvSlot {
            core: UnsafeCell::new(None),
            req: AtomicU64::new(0),
            end_seen: AtomicBool::new(false),
            failed: Mutex::new(None),
            failed_flag: AtomicBool::new(false),
            n: InvCounters::default(),
        }
    }

    /// The admitted request's private state.
    ///
    /// # Safety
    ///
    /// The caller must hold one of the access rights documented on the
    /// `core` field: a token of this invocation in hand, exclusive
    /// ownership during admission or finalization, or a solo run whose
    /// workers have exited.
    unsafe fn core(&self) -> &InvCore {
        (*self.core.get()).as_ref().expect("slot admitted")
    }
}

/// Bookkeeping of the admission window, guarded by one mutex.
struct ServeState {
    /// Slot indices available for admission.
    free: Vec<u32>,
    /// Finished requests awaiting [`ServeHandle::collect`].
    completed: VecDeque<(ReqId, Result<ParOutcome, MachineError>)>,
    /// Requests admitted and not yet finalized.
    inflight: usize,
    /// Next request id == requests submitted so far.
    submitted: u64,
    /// Requests collected so far.
    collected: u64,
    completed_ok: u64,
    completed_err: u64,
    peak_inflight: usize,
    /// Set when the session itself died (a worker panic that escaped an
    /// invocation, or the watchdog): every inflight request was failed,
    /// and every later submission completes immediately with this error.
    dead: Option<MachineError>,
}

/// One worker's private state: the same-batch rendezvous fast path, the
/// per-invocation tallies settled at the end of each batch, and the
/// worker's share of the session's counters. Only its own worker locks
/// it — once per batch — so the mutex is uncontended.
#[derive(Default)]
struct WorkerLocal {
    /// Half-filled two-input rendezvous, keyed like the shared table
    /// (invocation-packed `(op, tag)` word). Drained back to the run
    /// queue at the end of every batch.
    pairs: FxHashMap<u64, [Option<i64>; 2]>,
    /// Locally completed joins awaiting firing, drained after each
    /// token (firing can complete further joins).
    ready: Vec<(u64, [i64; 2])>,
    /// This batch's per-invocation counts.
    tallies: Vec<Tally>,
    /// Index in `tallies` of the invocation whose token is being
    /// processed; its firings are charged there.
    cur: usize,
    /// Joins completed through the fast path over the whole session.
    fast_path: u64,
    /// This worker's fault stream; `None` (one branch per firing and per
    /// emit call) on ordinary runs.
    chaos: Option<Box<WorkerChaos>>,
}

/// The executor's fault injection on one worker: the worker's own
/// stream — a different stream family than the scheduler's delay/steal
/// faults, so the two layers draw uncorrelated decisions from one
/// campaign seed — and the destructive faults it injected.
struct WorkerChaos {
    cfg: ChaosConfig,
    rng: Prng,
    panics: u64,
    drops: u64,
    dups: u64,
}

impl WorkerChaos {
    fn new(cfg: ChaosConfig, worker: usize) -> WorkerChaos {
        WorkerChaos {
            cfg,
            // Offset the seed so the executor's panic/drop/dup stream
            // differs from the scheduler's delay/steal stream for the
            // same (seed, worker).
            rng: Prng::for_worker(cfg.seed ^ 0x517c_c1b7_2722_0a95, worker),
            panics: 0,
            drops: 0,
            dups: 0,
        }
    }
}

/// What one batch did to one invocation: the increments [`InvCounters`]
/// receives when the batch settles.
#[derive(Clone, Copy, Default)]
struct Tally {
    inv: u32,
    /// Firings this batch may make: the fuel the invocation's settled
    /// firings left when the tally was opened.
    fuel: u64,
    /// Tokens taken off the run queue.
    consumed: u64,
    /// Tokens queued (and so made live).
    pushed: u64,
    fired: u64,
    /// Deposits that waited for a partner: one per fast-path join, one
    /// per shared-table deposit that left its slot incomplete.
    merged: u64,
    macro_fires: u64,
    ops_elided: u64,
    /// Fast-path joins: two tokens born and consumed within the batch.
    fast: u64,
    /// Entries parked in the shared table minus entries completed there.
    parked: i64,
    drops: u64,
    dups: u64,
}

/// `(sequence number, worker, op, tag)` of one firing of a solo run.
type FireEvent = (u64, usize, OpId, TagId);

/// Bounded ring of fire events for post-mortem debugging of deadlocks
/// and tag mismatches. Keeps the *last* `cap` firings. Absent (and
/// therefore allocation-free) unless a solo run asks for it through
/// [`ParConfig::trace_capacity`].
struct TraceRing {
    cap: usize,
    /// The next sequence number, and the last firings.
    buf: Mutex<(u64, VecDeque<FireEvent>)>,
}

impl TraceRing {
    fn new(cap: usize) -> TraceRing {
        let cap = cap.max(1);
        TraceRing {
            cap,
            // Preallocation is bounded: callers may ask for an effectively
            // unbounded ring (cap = usize::MAX) and let it grow on demand.
            buf: Mutex::new((0, VecDeque::with_capacity(cap.min(4096)))),
        }
    }

    fn push(&self, worker: usize, op: OpId, tag: TagId) {
        let mut guard = lock(&self.buf);
        let (seq, buf) = &mut *guard;
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back((*seq, worker, op, tag));
        *seq += 1;
    }
}

/// Session-wide shared state: the compiled graph, the invocation-keyed
/// rendezvous table, the per-worker fast-path state, the admission
/// slots.
struct Session<'g> {
    cg: &'g CompiledGraph,
    /// How the 32-bit tag word is split between invocation index (high
    /// bits) and per-invocation tag (low bits).
    split: TagSplit,
    /// Per-invocation tag cap: the smaller of the split's slice and the
    /// configured cap.
    tag_cap: u32,
    /// Per-invocation firing budget.
    fuel: u64,
    /// A solo run: its tag interner names no invocation, and only it
    /// keeps a fire-event ring.
    solo: bool,
    /// Rendezvous slots shared by all invocations, keyed by
    /// [`key_inv`]; sharded by [`shard64`].
    slots: Vec<Mutex<SlotTable>>,
    /// Worker-local fast-path state, batch tallies and fault streams,
    /// indexed by worker.
    locals: Vec<Mutex<WorkerLocal>>,
    /// Optional bounded fire-event ring; `None` (zero allocation, one
    /// branch per firing) on ordinary runs.
    trace: Option<TraceRing>,
    inv: Vec<InvSlot>,
    state: Mutex<ServeState>,
    /// Signaled when a slot frees (admission backpressure).
    submit_cv: Condvar,
    /// Signaled when a request completes (collect / teardown).
    done_cv: Condvar,
}

impl<'g> Session<'g> {
    fn new(
        cg: &'g CompiledGraph,
        n_workers: usize,
        max_inflight: usize,
        cfg: &ParConfig,
        solo: bool,
    ) -> Session<'g> {
        let split = TagSplit::for_inflight(max_inflight);
        Session {
            cg,
            split,
            tag_cap: split.tag_cap().min(cfg.tag_cap),
            fuel: cfg.fuel,
            solo,
            slots: std::iter::repeat_with(|| Mutex::new(SlotTable::default()))
                .take(SLOT_SHARDS)
                .collect(),
            locals: (0..n_workers)
                .map(|w| {
                    Mutex::new(WorkerLocal {
                        chaos: cfg.chaos.map(|c| Box::new(WorkerChaos::new(c, w))),
                        ..WorkerLocal::default()
                    })
                })
                .collect(),
            trace: cfg.trace_capacity.filter(|_| solo).map(TraceRing::new),
            inv: (0..max_inflight).map(|_| InvSlot::new()).collect(),
            state: Mutex::new(ServeState {
                free: (0..max_inflight as u32).rev().collect(),
                completed: VecDeque::new(),
                inflight: 0,
                submitted: 0,
                collected: 0,
                completed_ok: 0,
                completed_err: 0,
                peak_inflight: 0,
                dead: None,
            }),
            submit_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }
    }
}

impl Session<'_> {
    /// Record the first failure of invocation `inv` and tombstone its
    /// remaining tokens. Neighbors, the shared table and the pool are
    /// deliberately untouched: failure is a per-invocation event.
    fn fail_inv(&self, inv: u32, e: MachineError) {
        let slot = &self.inv[inv as usize];
        let mut f = lock(&slot.failed);
        if f.is_none() {
            *f = Some(e);
        }
        drop(f);
        slot.failed_flag.store(true, Ordering::SeqCst);
    }

    /// Run one batch: process every token (each inside its own
    /// `catch_unwind`, so an operator panic fails only its invocation),
    /// flush unpaired fast-path halves, then settle each touched
    /// invocation's counts.
    fn run_batch(&self, ctx: &Ctx<Token>, batch: &mut Vec<Token>) {
        let mut guard = lock(&self.locals[ctx.worker()]);
        let local = &mut *guard;
        for t in batch.drain(..) {
            local.cur = self.tally(local, t.inv);
            local.tallies[local.cur].consumed += 1;
            let slot = &self.inv[t.inv as usize];
            if slot.failed_flag.load(Ordering::SeqCst) {
                // Tombstone: the invocation already failed; its tokens
                // drain without firing so the slot can be reclaimed.
                continue;
            }
            // SAFETY: this token holds the invocation live (> 0) until
            // the settlement at the end of this batch.
            let core = unsafe { slot.core() };
            let r = catch_unwind(AssertUnwindSafe(|| {
                let mut f = Firing {
                    sh: self,
                    ctx,
                    local: &mut *local,
                    core,
                    inv: t.inv,
                };
                f.process(t);
                f.drain_ready();
            }));
            if let Err(payload) = r {
                // Every pending ready join belongs to the failed
                // invocation; drop them with it.
                local.ready.clear();
                self.fail_inv(
                    t.inv,
                    MachineError::WorkerPanicked {
                        worker: ctx.worker(),
                        payload: render_panic(&*payload),
                    },
                );
            }
        }
        self.flush_pairs(ctx, local);
        self.settle(local);
    }

    /// End of batch: push every unpaired fast-path half back onto the
    /// run queue as an ordinary token. It will rendezvous in the shared
    /// table like any cross-worker token — the fast path is only ever a
    /// same-batch shortcut, never a place where a token can be stranded.
    fn flush_pairs(&self, ctx: &Ctx<Token>, local: &mut WorkerLocal) {
        debug_assert!(local.ready.is_empty(), "ready drained after every token");
        if local.pairs.is_empty() {
            return;
        }
        let mut pairs = std::mem::take(&mut local.pairs);
        for (k, halves) in pairs.drain() {
            let (op, inv, tag) = unkey_inv(k, self.split);
            let i = self.tally(local, inv);
            for (port, v) in halves.into_iter().enumerate() {
                if let Some(value) = v {
                    local.tallies[i].pushed += 1;
                    ctx.push(Token {
                        to: Port::new(op, port),
                        tag,
                        inv,
                        value,
                    });
                }
            }
        }
        local.pairs = pairs;
    }

    /// Index of `inv`'s tally in this batch, opened on first use with
    /// the fuel the invocation's settled firings leave.
    fn tally(&self, local: &mut WorkerLocal, inv: u32) -> usize {
        if let Some(i) = local.tallies.iter().rposition(|t| t.inv == inv) {
            return i;
        }
        let fired = self.inv[inv as usize].n.fired.load(Ordering::Relaxed);
        local.tallies.push(Tally {
            inv,
            fuel: self.fuel.saturating_sub(fired),
            ..Tally::default()
        });
        local.tallies.len() - 1
    }

    /// Settle the batch's tallies, one settlement per invocation. It runs
    /// before the scheduler flushes the batch's queued tokens, so a token
    /// is counted before anyone can take it; the live count can only
    /// reach zero here when no token of the invocation is left anywhere,
    /// and the settler that sees zero finalizes it.
    fn settle(&self, local: &mut WorkerLocal) {
        for t in local.tallies.drain(..) {
            local.fast_path += t.fast;
            if self.inv[t.inv as usize].n.settle(&t) {
                self.finalize(t.inv);
            }
        }
    }

    /// Purge every rendezvous entry of `inv` from the shared table,
    /// returning how many were parked and their rendered descriptions
    /// (sorted, truncated to 10 — the deadlock report). Safe only at
    /// quiescence: with `live == 0` no thread can be inserting for this
    /// invocation.
    fn purge(&self, inv: u32, core: &InvCore) -> (u64, Vec<String>) {
        let mut parked = 0u64;
        let mut pending: Vec<String> = Vec::new();
        // The settled parked count is exact here: every batch that parked
        // or completed one of `inv`'s entries settled before `live` could
        // reach zero. With none parked, no shard is locked.
        let occupied = self.inv[inv as usize].n.parked.load(Ordering::Relaxed) > 0;
        for shard in self.slots.iter().filter(|_| occupied) {
            parked += lock(shard).purge(self.cg, self.split, inv, &mut pending, 32, |tag| {
                core.tags.render(tag)
            });
        }
        pending.sort();
        pending.truncate(10);
        if pending.is_empty() {
            pending.push(
                "no partially-filled rendezvous slots: tokens drained without reaching End"
                    .to_owned(),
            );
        }
        (parked, pending)
    }

    /// Classify a quiescent invocation, push the result, and return its
    /// slot to the free list. Precedence: a recorded failure (collision,
    /// tag or memory fault, fuel, tag exhaustion, a caught operator
    /// panic) is the root cause; then settled firings beyond the fuel
    /// budget, which no single batch saw; injected drops are deterministically a
    /// `TokenLeak`, whether the missing tokens stranded rendezvous
    /// partners or not — a vanished token must never masquerade as
    /// anything else; quiescence without `End` is a deadlock. A slot
    /// left parked after `End` (a chaos duplicate whose partner was
    /// already consumed) does not fail the run.
    fn finalize(&self, inv: u32) {
        let slot = &self.inv[inv as usize];
        // SAFETY: live == 0 — exclusive access per the slot protocol.
        let core = unsafe { slot.core() };
        let (parked, pending) = self.purge(inv, core);
        let drops = slot.n.drops.load(Ordering::Relaxed);
        let failure = lock(&slot.failed).take();
        let result = if let Some(e) = failure {
            Err(e)
        } else if slot.n.fired.load(Ordering::Relaxed) > self.fuel {
            // Workers that each fired within their batch's view of the
            // budget overran it together.
            Err(MachineError::FuelExhausted)
        } else if drops > 0 {
            Err(MachineError::TokenLeak {
                leftover: drops + parked,
            })
        } else if !slot.end_seen.load(Ordering::SeqCst) {
            Err(MachineError::Deadlock { pending })
        } else {
            Ok(ParOutcome {
                memory: core.mem.cells_snapshot(),
                ist_memory: core.mem.ist_snapshot(),
                fired: slot.n.fired.load(Ordering::SeqCst),
                metrics: self.metrics(inv),
            })
        };
        let req = slot.req.load(Ordering::SeqCst);
        let mut st = lock(&self.state);
        if result.is_ok() {
            st.completed_ok += 1;
        } else {
            st.completed_err += 1;
        }
        st.completed.push_back((req, result));
        st.free.push(inv);
        st.inflight -= 1;
        drop(st);
        // A notification is a system call even when nobody waits; only a
        // serving session has threads waiting for a slot or a result.
        if !self.solo {
            self.submit_cv.notify_one();
            self.done_cv.notify_all();
        }
    }

    /// The session itself died (escaped worker panic or watchdog): fail
    /// every inflight request with its own recorded error — or the
    /// session error — and poison future submissions. Slot cores are not
    /// touched (their tokens may still sit in dead queues), so no
    /// memory snapshot is attempted and the slots are not reused.
    fn session_death(&self, err: MachineError) {
        let mut st = lock(&self.state);
        st.dead = Some(err.clone());
        let busy: Vec<u32> = (0..self.inv.len() as u32)
            .filter(|i| !st.free.contains(i))
            .collect();
        for inv in busy {
            let slot = &self.inv[inv as usize];
            let e = lock(&slot.failed).take().unwrap_or_else(|| err.clone());
            st.completed
                .push_back((slot.req.load(Ordering::SeqCst), Err(e)));
            st.completed_err += 1;
            st.inflight -= 1;
        }
        drop(st);
        self.submit_cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Per-invocation metrics. The per-worker scheduler counters and the
    /// slot-table pressure belong to the session; a solo run adds them.
    fn metrics(&self, inv: u32) -> ParMetrics {
        let slot = &self.inv[inv as usize];
        // SAFETY: called at quiescence of `inv` (see `core`).
        let core = unsafe { slot.core() };
        let n = &slot.n;
        let fast = n.fast_path.load(Ordering::Relaxed);
        ParMetrics {
            workers: Vec::new(),
            tokens_processed: n.processed.load(Ordering::Relaxed) + 2 * fast,
            merged: n.merged.load(Ordering::Relaxed),
            fast_path_fires: fast,
            max_pending_slots: 0,
            slot_shard_high_water: Vec::new(),
            tags_created: core.tags.created(),
            macro_fires: n.macro_fires.load(Ordering::Relaxed),
            ops_elided: n.ops_elided.load(Ordering::Relaxed),
            chaos: ChaosTallies {
                drops: n.drops.load(Ordering::Relaxed),
                dups: n.dups.load(Ordering::Relaxed),
                ..ChaosTallies::default()
            },
        }
    }

    /// Fold the fast-path joins into the scheduler's per-worker tallies:
    /// each join consumed two tokens that never transited a run queue,
    /// so `processed` counts it twice.
    fn worker_stats(&self, mut workers: Vec<WorkerStats>) -> Vec<WorkerStats> {
        for (w, local) in self.locals.iter().enumerate() {
            let fast = lock(local).fast_path;
            workers[w].fast_path = fast;
            workers[w].processed += 2 * fast;
        }
        workers
    }

    /// Faults injected over the whole session.
    fn chaos_tallies(&self, workers: &[WorkerStats]) -> ChaosTallies {
        let mut tallies = ChaosTallies {
            delays: workers.iter().map(|w| w.chaos_delays).sum(),
            forced_steals: workers.iter().map(|w| w.chaos_forced_steals).sum(),
            ..ChaosTallies::default()
        };
        for local in &self.locals {
            if let Some(ch) = &lock(local).chaos {
                tallies.panics += ch.panics;
                tallies.drops += ch.drops;
                tallies.dups += ch.dups;
            }
        }
        tallies
    }

    /// Each shard's high-water mark, read once the run is over.
    fn slot_marks(&self) -> Vec<u64> {
        self.slots.iter().map(|s| lock(s).high_water()).collect()
    }

    /// Run the scheduler on `pool` until it drains or halts, under the
    /// optional watchdog; a halt kills the session. A solo run on a
    /// 1-worker pool runs its worker on this thread; every other run
    /// runs its workers on the pool's threads. With a watchdog, a
    /// monitor thread converts a wedged run into an explicit halt: it
    /// waits on a condvar with a deadline, and this thread flips `done`
    /// under the same lock on completion, so exactly one of {completed,
    /// timed out} wins — a timeout can never be recorded after a
    /// finished run races past it.
    fn drive(
        &self,
        sched: &Scheduler<Token>,
        pool: &ExecutorPool,
        watchdog: Option<Duration>,
    ) -> Outcome {
        let run = || {
            let body = |ctx: &Ctx<Token>, batch: &mut Vec<Token>| self.run_batch(ctx, batch);
            if self.solo && pool.workers() == 1 {
                sched.run_on_caller(&pool.pool, body)
            } else {
                sched.run_in(&pool.pool, body)
            }
        };
        let out = match watchdog {
            None => run(),
            Some(bound) => {
                let done = Mutex::new(false);
                let done_cv = Condvar::new();
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        let guard = lock(&done);
                        let (guard, wait) = done_cv
                            .wait_timeout_while(guard, bound, |finished| !*finished)
                            .unwrap_or_else(|e| e.into_inner());
                        if wait.timed_out() && !*guard {
                            drop(guard);
                            sched.halt_external();
                        }
                    });
                    let out = run();
                    *lock(&done) = true;
                    done_cv.notify_all();
                    out
                })
            }
        };
        if out.halted {
            // Nothing in the engine halts the scheduler: the session died
            // under live requests from an escaped worker panic or the
            // watchdog. Fail everything still admitted.
            let err = match out.panicked.clone() {
                Some((worker, payload)) => MachineError::WorkerPanicked { worker, payload },
                None => MachineError::WatchdogTimeout {
                    millis: watchdog.map_or(0, |d| d.as_millis() as u64),
                },
            };
            self.session_death(err);
        }
        out
    }
}

/// One token's processing on a worker, and the engine side of the shared
/// arrival rule and firing kernel ([`fire_op`]): the waiting-matching
/// rule and operator semantics live in [`crate::compiled`], once, for
/// both backends; this supplies the concurrent effects — the shard of
/// the shared slot table a token joins, emission through the fast-path
/// pair map onto the run queue, the invocation's memory and sharded tag
/// interner, halt marking only this invocation's End.
struct Firing<'a, 'g> {
    sh: &'a Session<'g>,
    ctx: &'a Ctx<Token>,
    local: &'a mut WorkerLocal,
    core: &'a InvCore,
    inv: u32,
}

impl Firing<'_, '_> {
    /// Route one token by the shared arrival rule: fire its operator now,
    /// or join its slot in the shared table, charging a wait to `merged`
    /// and a slot that opens or fills to `parked`. A fused loop-switch's
    /// wait counts as `merged` too — the same wait the unfused switch's
    /// rendezvous recorded — so fused and unfused runs agree on `merged`
    /// while the loop-entry's separate firing and output token are
    /// elided.
    fn process(&mut self, t: Token) {
        let cg = self.sh.cg;
        let j = match arrive(cg, self, t.to, t.tag, t.value) {
            Ok(Arrival::Fire) => {
                let vals = FireVals::now(cg, t.to, t.value);
                return self.fire(t.to.op, t.tag, vals.as_fire());
            }
            Ok(Arrival::Join(j)) => j,
            Err(e) => return self.sh.fail_inv(self.inv, e),
        };
        let k = key_inv(j.to.op, self.sh.split, self.inv, j.tag);
        let tags = &self.core.tags;
        let joined =
            lock(&self.sh.slots[shard64(k, SLOT_SHARDS)]).join(cg, k, &j, |tag| tags.render(tag));
        let tally = &mut self.local.tallies[self.local.cur];
        match joined {
            Ok(Joined::Fire(vals)) => {
                tally.parked -= 1;
                self.fire(j.to.op, j.tag, vals.as_fire());
            }
            Ok(Joined::Wait { opened }) => {
                tally.merged += 1;
                tally.parked += i64::from(opened);
            }
            Err(e) => self.sh.fail_inv(self.inv, e),
        }
    }

    /// Fire every locally-completed join on the worker's ready stack;
    /// firing can complete further joins, so loop until the stack is
    /// empty. Every entry belongs to this token's invocation: only its
    /// own firings fed the pair map since the last drain.
    fn drain_ready(&mut self) {
        while let Some((k, [a, b])) = self.local.ready.pop() {
            if self.sh.inv[self.inv as usize]
                .failed_flag
                .load(Ordering::SeqCst)
            {
                self.local.ready.clear();
                return;
            }
            let (op, inv, tag) = unkey_inv(k, self.sh.split);
            debug_assert_eq!(inv, self.inv);
            self.fire(op, tag, FireInputs::Full(&[a, b]));
        }
    }

    /// Admission (fuel, chaos panic, trace ring) first, then
    /// [`fire_op`]; a kernel error becomes the invocation's recorded
    /// failure.
    fn fire(&mut self, op: OpId, tag: TagId, inputs: FireInputs<'_>) {
        let sh = self.sh;
        let tally = &mut self.local.tallies[self.local.cur];
        if tally.fired >= tally.fuel {
            return sh.fail_inv(self.inv, MachineError::FuelExhausted);
        }
        tally.fired += 1;
        if let Some(ch) = &mut self.local.chaos {
            // Caught per token: the panic fails only this invocation.
            if ch.cfg.panic_prob > 0.0 && ch.rng.chance(ch.cfg.panic_prob) {
                ch.panics += 1;
                panic!("chaos: injected operator panic at {op:?}");
            }
        }
        if let Some(ring) = &sh.trace {
            ring.push(self.ctx.worker(), op, tag);
        }
        if let Err(e) = fire_op(sh.cg, op, tag, inputs, self) {
            sh.fail_inv(self.inv, e);
        }
    }

    /// Route one token to `to`: through the worker-local pair map when
    /// the destination is a fast-path two-input rendezvous, otherwise
    /// onto the run queue. If this worker produced the partner token
    /// earlier in the same batch, the two join right here — no run
    /// queue, no shared table, no cross-worker synchronization — and the
    /// completed firing is parked on the ready stack.
    #[inline]
    fn send(&mut self, to: Port, value: i64, tag: TagId) {
        let dst = to.op;
        if self.sh.cg.desc(dst).fast_ok() {
            let port = to.port as usize;
            let k = key_inv(dst, self.sh.split, self.inv, tag);
            let slot = self.local.pairs.entry(k).or_insert([None, None]);
            if slot[port].is_some() {
                let tag = self.core.tags.render(tag);
                return self.sh.fail_inv(
                    self.inv,
                    MachineError::TokenCollision { op: dst, port, tag },
                );
            }
            slot[port] = Some(value);
            if let [Some(a), Some(b)] = *slot {
                self.local.pairs.remove(&k);
                self.local.ready.push((k, [a, b]));
                // Two tokens that never transit a run queue: one fires
                // the operator, the other merged into the pair.
                let tally = &mut self.local.tallies[self.local.cur];
                tally.fast += 1;
                tally.merged += 1;
            }
            return;
        }
        self.push(Token {
            to,
            tag,
            inv: self.inv,
            value,
        });
    }

    /// Queue a token, charging it to the invocation's batch tally.
    fn push(&mut self, t: Token) {
        self.local.tallies[self.local.cur].pushed += 1;
        self.ctx.push(t);
    }

    /// [`Engine::emit`] with per-destination fault injection: each
    /// outgoing token may be dropped (vanishes — surfaced as this
    /// invocation's [`MachineError::TokenLeak`]) or duplicated.
    /// Duplicates are only injected toward input port 0 of ops where the
    /// waiting-matching store can detect them (see `dup_ok`), and the
    /// copy goes through the ordinary queue — not the fast path — so it
    /// rendezvouses in the shared table like a genuinely mis-sent token
    /// would. Port 0 only: a duplicate then either collides with its
    /// original or parks unmatched, because no other duplicate can fill
    /// the slot's other ports. Duplicates on two ports of one slot
    /// could pair with each other after the genuine pair fired, and fire
    /// the operator a second time with no collision to report.
    #[cold]
    #[inline(never)]
    fn emit_chaos(&mut self, op: OpId, out_port: usize, value: i64, tag: TagId) {
        let cg = self.sh.cg;
        for &to in cg.dests(op, out_port) {
            let ch = self.local.chaos.as_deref_mut().expect("checked by emit");
            if ch.cfg.drop_prob > 0.0 && ch.rng.chance(ch.cfg.drop_prob) {
                ch.drops += 1;
                self.local.tallies[self.local.cur].drops += 1;
                continue;
            }
            if ch.cfg.dup_prob > 0.0
                && to.port == 0
                && cg.desc(to.op).dup_ok()
                && ch.rng.chance(ch.cfg.dup_prob)
            {
                ch.dups += 1;
                self.local.tallies[self.local.cur].dups += 1;
                self.push(Token {
                    to,
                    tag,
                    inv: self.inv,
                    value,
                });
            }
            self.send(to, value, tag);
        }
    }
}

impl Engine for Firing<'_, '_> {
    fn emit(&mut self, op: OpId, out_port: usize, value: i64, tag: TagId) {
        // One null check per emit call; the per-destination fault draws
        // live in the out-of-line chaos variant.
        if self.local.chaos.is_some() {
            return self.emit_chaos(op, out_port, value, tag);
        }
        for &to in self.sh.cg.dests(op, out_port) {
            self.send(to, value, tag);
        }
    }

    fn halt(&mut self) {
        // End fired for *this* invocation: mark it but keep draining —
        // the invocation finalizes when its live count reaches zero, so
        // nothing is dropped, and neighbors keep running.
        self.sh.inv[self.inv as usize]
            .end_seen
            .store(true, Ordering::SeqCst);
    }

    fn tag_child(
        &mut self,
        parent: TagId,
        loop_id: LoopId,
        iter: u32,
    ) -> Result<TagId, MachineError> {
        self.core.tags.child(parent, loop_id, iter)
    }

    fn tag_info(&self, tag: TagId) -> Option<(TagId, LoopId, u32)> {
        self.core.tags.info(tag)
    }

    fn read_scalar(&mut self, var: VarId) -> i64 {
        self.core.mem.read_scalar(&self.core.layout, var)
    }

    fn write_scalar(&mut self, var: VarId, value: i64) {
        self.core.mem.write_scalar(&self.core.layout, var, value)
    }

    fn read_element(&mut self, var: VarId, index: i64) -> Result<i64, MemError> {
        self.core.mem.read_element(&self.core.layout, var, index)
    }

    fn write_element(&mut self, var: VarId, index: i64, value: i64) -> Result<(), MemError> {
        self.core
            .mem
            .write_element(&self.core.layout, var, index, value)
    }

    fn ist_read(
        &mut self,
        var: VarId,
        index: i64,
        op: OpId,
        tag: TagId,
    ) -> Result<Option<i64>, MemError> {
        self.core
            .mem
            .ist_read(&self.core.layout, var, index, (op, tag))
    }

    fn ist_write(
        &mut self,
        var: VarId,
        index: i64,
        value: i64,
    ) -> Result<Vec<DeferredRead<(OpId, TagId)>>, MemError> {
        self.core
            .mem
            .ist_write(&self.core.layout, var, index, value)
    }

    fn macro_fired(&mut self, elided: u64) {
        let tally = &mut self.local.tallies[self.local.cur];
        tally.macro_fires += 1;
        tally.ops_elided += elided;
    }
}

// ---------------------------------------------------------------------
// Admission, sessions and solo runs
// ---------------------------------------------------------------------

/// The submission side of a serving session, handed to the closure of
/// [`serve`]. Cloneable by shared reference across threads: `submit` and
/// `collect` are both `&self`.
pub struct ServeHandle<'a, 'g> {
    sh: &'a Session<'g>,
    sched: &'a Scheduler<Token>,
}

impl ServeHandle<'_, '_> {
    /// Admit one invocation of the session's graph over `layout`,
    /// blocking while the admission window (`max_inflight`) is full —
    /// the session's backpressure. Returns the request id; the result is
    /// retrieved with [`ServeHandle::collect`]. On a dead session the
    /// request completes immediately with the session's error.
    pub fn submit(&self, layout: &MemLayout) -> ReqId {
        let sh = self.sh;
        let mut st = lock(&sh.state);
        loop {
            if let Some(err) = st.dead.clone() {
                let req = st.submitted;
                st.submitted += 1;
                st.completed.push_back((req, Err(err)));
                st.completed_err += 1;
                drop(st);
                sh.done_cv.notify_all();
                return req;
            }
            if let Some(inv) = st.free.pop() {
                let req = st.submitted;
                st.submitted += 1;
                st.inflight += 1;
                st.peak_inflight = st.peak_inflight.max(st.inflight);
                sh.inv[inv as usize].req.store(req, Ordering::SeqCst);
                drop(st);
                self.admit(inv, req, layout);
                return req;
            }
            st = sh.submit_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Install the request's private state in its slot and inject its
    /// start tokens. The slot is exclusively ours between the free-list
    /// pop and the injection below.
    fn admit(&self, inv: u32, req: ReqId, layout: &MemLayout) {
        let sh = self.sh;
        let slot = &sh.inv[inv as usize];
        let core = InvCore {
            layout: layout.clone(),
            mem: ParMemory::new(layout),
            // A solo run's interner owns the whole tag space and names no
            // invocation in its exhaustion error.
            tags: ParTagTable::new(sh.tag_cap, (!sh.solo).then_some(req)),
        };
        // SAFETY: exclusive slot ownership (popped from the free list,
        // no tokens injected yet); see the `core` field protocol.
        unsafe {
            *slot.core.get() = Some(core);
        }
        slot.end_seen.store(false, Ordering::SeqCst);
        slot.n.reset();
        *lock(&slot.failed) = None;
        slot.failed_flag.store(false, Ordering::SeqCst);

        let seeds = sh.cg.dests(sh.cg.start(), 0);
        // Live count covers the seeds *before* they become visible to
        // workers, so a fast drain cannot underflow it.
        slot.n.live.store(seeds.len() as u64, Ordering::SeqCst);
        if seeds.is_empty() {
            // A graph whose start feeds nothing can never reach End;
            // classify immediately.
            return sh.finalize(inv);
        }
        self.sched.inject_batch(seeds.iter().map(|&to| Token {
            to,
            tag: TagId::ROOT,
            inv,
            value: 0,
        }));
    }

    /// Wait for the next finished request (any invocation — completions
    /// are delivered in finish order, not submission order) and return
    /// its id and result.
    ///
    /// # Panics
    ///
    /// Panics if nothing is outstanding: every submitted request was
    /// already collected.
    pub fn collect(&self) -> (ReqId, Result<ParOutcome, MachineError>) {
        let sh = self.sh;
        let mut st = lock(&sh.state);
        loop {
            if let Some(done) = st.completed.pop_front() {
                st.collected += 1;
                return done;
            }
            assert!(
                st.submitted > st.collected,
                "collect called with no outstanding requests"
            );
            st = sh.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Requests submitted and not yet collected.
    pub fn outstanding(&self) -> usize {
        let st = lock(&self.sh.state);
        (st.submitted - st.collected) as usize
    }
}

/// Run a serving session: up to `max_inflight` concurrent invocations of
/// `cg` multiplexed onto `pool`'s workers. The closure `f` drives the
/// session through its [`ServeHandle`] — submitting requests, collecting
/// results — from the calling thread (and may hand the handle to other
/// threads; both methods take `&self`), while a second thread runs the
/// scheduler. When `f` returns, the session waits for every admitted
/// request to finish, shuts the workers down, and returns `f`'s value
/// with the session-level [`ServeStats`].
///
/// `cfg` is applied *per invocation* — `fuel` and `tag_cap` bound each
/// request individually (the tag cap is additionally clamped to the
/// invocation's reserved slice of the tag space) — except `watchdog`,
/// which bounds the whole session, and `chaos`, which faults the shared
/// workers. `trace_capacity` is ignored: the trace ring is a solo-run
/// debugging aid.
///
/// `max_inflight` is clamped to `1..=65536`; the tag space is split as
/// `ceil(log2(max_inflight))` invocation bits, leaving each request
/// `2^(32-bits) - 1` tags ([`TagSplit::for_inflight`]).
pub fn serve<R>(
    cg: &CompiledGraph,
    pool: &ExecutorPool,
    max_inflight: usize,
    cfg: &ParConfig,
    f: impl FnOnce(&ServeHandle<'_, '_>) -> R,
) -> (R, ServeStats) {
    let max_inflight = max_inflight.clamp(1, 1 << 16);
    let n_workers = pool.workers();
    let sh = Session::new(cg, n_workers, max_inflight, cfg, false);
    let sched: Scheduler<Token> = Scheduler::new(n_workers).with_chaos(cfg.chaos);
    // Keep the scheduler's token population artificially nonzero for the
    // whole session: workers park between requests instead of exiting,
    // and the drain-to-zero shutdown only triggers at teardown's
    // `release`.
    sched.hold();

    let (ret, outcome) = std::thread::scope(|scope| {
        let scheduling = scope.spawn(|| sh.drive(&sched, pool, cfg.watchdog));

        let handle = ServeHandle {
            sh: &sh,
            sched: &sched,
        };
        let ret = catch_unwind(AssertUnwindSafe(|| f(&handle)));

        // Teardown: wait for every admitted request to finalize (a dead
        // session finalizes them all in `session_death`), then drop the
        // hold so the worker population drains to zero and the epoch
        // ends.
        {
            let mut st = lock(&sh.state);
            while st.inflight > 0 {
                st = sh.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        sched.release();
        let outcome = scheduling
            .join()
            .expect("the scheduling thread does not panic");
        match ret {
            Ok(ret) => (ret, outcome),
            Err(payload) => resume_unwind(payload),
        }
    });

    let workers = sh.worker_stats(outcome.workers);
    let st = lock(&sh.state);
    let stats = ServeStats {
        requests: st.submitted,
        completed_ok: st.completed_ok,
        failed: st.completed_err,
        peak_inflight: st.peak_inflight as u64,
        tokens_processed: workers.iter().map(|w| w.processed).sum(),
        max_pending_slots: sh.slot_marks().iter().sum(),
        chaos: sh.chaos_tallies(&workers),
        workers,
    };
    drop(st);
    (ret, stats)
}

/// Submit `requests` invocations of `cg` over `layout` with at most
/// `max_inflight` concurrent, and return their results in submission
/// order plus the session stats. The convenience wrapper around
/// [`serve()`] used by the CLI and the equivalence tests.
pub fn run_concurrent(
    cg: &CompiledGraph,
    layout: &MemLayout,
    pool: &ExecutorPool,
    max_inflight: usize,
    cfg: &ParConfig,
    requests: usize,
) -> (Vec<Result<ParOutcome, MachineError>>, ServeStats) {
    serve(cg, pool, max_inflight, cfg, |h| {
        let mut results: Vec<Option<Result<ParOutcome, MachineError>>> =
            (0..requests).map(|_| None).collect();
        for _ in 0..requests {
            h.submit(layout);
        }
        for _ in 0..requests {
            let (req, r) = h.collect();
            results[req as usize] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every request completes exactly once"))
            .collect()
    })
}

/// A solo run: admit one invocation through the ordinary admission path,
/// then drive the scheduler from the calling thread until it drains —
/// no hold and no scheduling thread, since nothing else will be
/// submitted. On a 1-worker pool the calling thread runs that worker
/// itself; on a wider pool the workers run on the pool's threads while
/// the calling thread waits. The session-level counters (per-worker
/// scheduler tallies, slot-table pressure, every injected fault) all
/// belong to this one invocation, so they join its [`ParMetrics`], which
/// is returned on every exit path.
pub(crate) fn run_solo(
    cg: &CompiledGraph,
    layout: &MemLayout,
    pool: &ExecutorPool,
    cfg: &ParConfig,
) -> (
    Result<ParOutcome, MachineError>,
    ParMetrics,
    Vec<TraceEvent>,
) {
    let n_workers = pool.workers();
    let sh = Session::new(cg, n_workers, 1, cfg, true);
    let sched: Scheduler<Token> = Scheduler::new(n_workers).with_chaos(cfg.chaos);
    ServeHandle {
        sh: &sh,
        sched: &sched,
    }
    .submit(layout);
    let outcome = sh.drive(&sched, pool, cfg.watchdog);
    let completed = lock(&sh.state).completed.pop_front();
    let result = match completed {
        Some((_, result)) => result,
        // The scheduler drained while the live count still held tokens:
        // they vanished. An engine invariant violation, reported as
        // such in every build profile, never passed over silently.
        None => Err(MachineError::TokenLeak {
            leftover: sh.inv[0].n.live.load(Ordering::SeqCst),
        }),
    };

    let mut metrics = match &result {
        Ok(out) => out.metrics.clone(),
        Err(_) => sh.metrics(0),
    };
    metrics.workers = sh.worker_stats(outcome.workers);
    metrics.chaos = sh.chaos_tallies(&metrics.workers);
    metrics.slot_shard_high_water = sh.slot_marks();
    metrics.max_pending_slots = metrics.slot_shard_high_water.iter().sum();
    let trace = sh.trace.as_ref().map_or_else(Vec::new, |ring| {
        // SAFETY: every worker has exited.
        let tags = &unsafe { sh.inv[0].core() }.tags;
        lock(&ring.buf)
            .1
            .iter()
            .map(|&(time, worker, op, tag)| TraceEvent {
                time,
                worker,
                op,
                tag: tags.render(tag),
            })
            .collect()
    });
    let result = result.map(|mut out| {
        out.metrics = metrics.clone();
        out
    });
    (result, metrics, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::compile;
    use crate::exec::{run, MachineConfig};
    use crate::parallel::run_threaded;
    use cf2df_cfg::{BinOp, VarTable};
    use cf2df_dfg::graph::ArcKind;
    use cf2df_dfg::{Dfg, OpKind};

    /// start → load x → (+41) → store x → end, with a two-input synch so
    /// the rendezvous table sees traffic.
    fn small_graph() -> (Dfg, MemLayout) {
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
        (g, layout)
    }

    /// A graph that deadlocks: a two-input synch fed on one port only.
    fn stuck_graph() -> (Dfg, MemLayout) {
        let mut t = VarTable::new();
        t.scalar("x");
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let sy = g.add(OpKind::Synch { inputs: 2 });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(sy, 0), ArcKind::Access);
        g.connect(Port::new(sy, 0), Port::new(e, 0), ArcKind::Access);
        (g, layout)
    }

    #[test]
    fn concurrent_requests_match_the_simulator() {
        let (g, layout) = small_graph();
        let sim = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let cg = compile(&g).unwrap();
        for workers in [1, 2, 4] {
            let pool = ExecutorPool::new(workers);
            for inflight in [1, 3, 8] {
                let (results, stats) =
                    run_concurrent(&cg, &layout, &pool, inflight, &ParConfig::default(), 8);
                assert_eq!(results.len(), 8);
                for (i, r) in results.iter().enumerate() {
                    let out = r.as_ref().unwrap_or_else(|e| {
                        panic!("request {i} failed (workers={workers} inflight={inflight}): {e:?}")
                    });
                    assert_eq!(out.memory, sim.memory, "request {i}");
                    assert_eq!(out.fired, sim.stats.fired, "request {i}");
                    let m = &out.metrics;
                    assert_eq!(
                        m.tokens_processed,
                        out.fired + m.merged,
                        "per-invocation accounting, request {i}"
                    );
                }
                assert_eq!(stats.requests, 8);
                assert_eq!(stats.completed_ok, 8);
                assert_eq!(stats.failed, 0);
                assert!(stats.peak_inflight as usize <= inflight.clamp(1, 1 << 16));
                assert_eq!(stats.workers.len(), workers);
            }
        }
    }

    #[test]
    fn backpressure_blocks_at_the_admission_window() {
        let (g, layout) = small_graph();
        let cg = compile(&g).unwrap();
        let pool = ExecutorPool::new(2);
        // Window of 1: 16 submissions must still all complete (each
        // submit blocks until the previous request finalizes).
        let (results, stats) = run_concurrent(&cg, &layout, &pool, 1, &ParConfig::default(), 16);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(stats.peak_inflight, 1);
    }

    #[test]
    fn a_failing_invocation_reports_and_the_session_continues() {
        // Every request of this graph deadlocks; the session must hand
        // back 6 typed errors, stay alive throughout, and leave the pool
        // reusable for a clean graph afterwards.
        let (g, layout) = stuck_graph();
        let cg = compile(&g).unwrap();
        let pool = ExecutorPool::new(2);
        let (results, stats) = run_concurrent(&cg, &layout, &pool, 4, &ParConfig::default(), 6);
        assert_eq!(stats.failed, 6);
        for r in &results {
            let Err(MachineError::Deadlock { pending }) = r else {
                panic!("expected per-request deadlock, got {r:?}");
            };
            assert!(pending[0].contains("synch2"), "{pending:?}");
        }
        // Same pool, different graph, clean serve session.
        let (g2, layout2) = small_graph();
        let cg2 = compile(&g2).unwrap();
        let sim = run(&g2, &layout2, MachineConfig::unbounded()).unwrap();
        let (results2, _) = run_concurrent(&cg2, &layout2, &pool, 4, &ParConfig::default(), 4);
        for r in results2 {
            assert_eq!(r.unwrap().memory, sim.memory);
        }
    }

    #[test]
    fn per_invocation_fuel_names_no_neighbor() {
        let (g, layout) = small_graph();
        let cg = compile(&g).unwrap();
        let solo = run_threaded(&g, &layout, 1).unwrap();
        let pool = ExecutorPool::new(2);
        // Fuel one below the graph's firing count: every request runs
        // out individually; the session survives all of them.
        let cfg = ParConfig {
            fuel: solo.fired - 1,
            ..ParConfig::default()
        };
        let (results, stats) = run_concurrent(&cg, &layout, &pool, 4, &cfg, 5);
        assert_eq!(stats.failed, 5);
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(MachineError::FuelExhausted))));
        // And with exact fuel, all succeed.
        let cfg = ParConfig {
            fuel: solo.fired,
            ..ParConfig::default()
        };
        let (results, _) = run_concurrent(&cg, &layout, &pool, 4, &cfg, 5);
        assert!(results.iter().all(|r| r.is_ok()));
    }

    /// Workers that each fire within their own batch's view of the fuel
    /// budget can overrun it together with no firing refused; finalize
    /// must still call that `FuelExhausted`. Forced here by settling one
    /// batch that fired past the budget and drained the invocation.
    #[test]
    fn finalize_reports_a_fuel_overrun_no_batch_refused() {
        let (g, layout) = small_graph();
        let cg = compile(&g).unwrap();
        let cfg = ParConfig {
            fuel: 2,
            ..ParConfig::default()
        };
        let sh = Session::new(&cg, 1, 1, &cfg, true);
        let sched: Scheduler<Token> = Scheduler::new(1);
        ServeHandle {
            sh: &sh,
            sched: &sched,
        }
        .submit(&layout);
        let n = &sh.inv[0].n;
        let overrun = Tally {
            consumed: n.live.load(Ordering::SeqCst),
            fired: 3,
            ..Tally::default()
        };
        assert!(n.settle(&overrun), "the batch drained the invocation");
        sh.finalize(0);
        let (_, result) = lock(&sh.state).completed.pop_front().expect("finalized");
        assert!(
            matches!(result, Err(MachineError::FuelExhausted)),
            "{result:?}"
        );
    }

    #[test]
    fn collect_panics_with_nothing_outstanding() {
        let (g, layout) = small_graph();
        let cg = compile(&g).unwrap();
        let pool = ExecutorPool::new(1);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            serve(&cg, &pool, 2, &ParConfig::default(), |h| {
                let id = h.submit(&layout);
                let (rid, r) = h.collect();
                assert_eq!(rid, id);
                r.unwrap();
                assert_eq!(h.outstanding(), 0);
                let _ = h.collect(); // nothing outstanding: must panic
            })
        }));
        assert!(caught.is_err(), "second collect must panic");
    }

    #[test]
    fn results_are_delivered_in_finish_order_with_request_ids() {
        let (g, layout) = small_graph();
        let cg = compile(&g).unwrap();
        let pool = ExecutorPool::new(4);
        let ((), stats) = serve(&cg, &pool, 8, &ParConfig::default(), |h| {
            let ids: Vec<ReqId> = (0..8).map(|_| h.submit(&layout)).collect();
            assert_eq!(ids, (0..8).collect::<Vec<_>>(), "sequential request ids");
            let mut seen: Vec<ReqId> = (0..8).map(|_| h.collect().0).collect();
            seen.sort_unstable();
            assert_eq!(seen, ids, "every id exactly once, any order");
        });
        assert_eq!(stats.requests, 8);
        assert_eq!(stats.completed_ok, 8);
    }

    type Seen = Vec<(std::thread::ThreadId, Option<String>)>;

    /// The threads on which injected operator panics fired while `f` ran,
    /// as (id, name). A panic hook records them and keeps them off stderr;
    /// no other test of this crate injects operator panics.
    fn chaos_panic_threads(f: impl FnOnce()) -> Seen {
        static SEEN: Mutex<Seen> = Mutex::new(Vec::new());
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.starts_with("chaos: "));
                if injected {
                    let me = std::thread::current();
                    lock(&SEEN).push((me.id(), me.name().map(str::to_owned)));
                } else {
                    prev(info);
                }
            }));
        });
        lock(&SEEN).clear();
        f();
        std::mem::take(&mut *lock(&SEEN))
    }

    /// Which thread runs which worker. Every firing panics by injection,
    /// and the panic hook names the thread that ran the batch: the
    /// calling thread in a solo run on 1 worker; pool threads in a solo
    /// run on 2 workers and in a serving session on 1.
    #[test]
    fn only_a_one_worker_solo_run_runs_on_its_caller() {
        let (g, layout) = small_graph();
        let cg = compile(&g).unwrap();
        let cfg = ParConfig {
            chaos: Some(ChaosConfig {
                panic_prob: 1.0,
                ..ChaosConfig::off(1)
            }),
            ..ParConfig::default()
        };
        let caller = std::thread::current().id();
        let on_pool = |seen: &Seen| {
            !seen.is_empty()
                && seen.iter().all(|(id, name)| {
                    *id != caller
                        && name
                            .as_deref()
                            .is_some_and(|n| n.starts_with("cf2df-pool-"))
                })
        };
        let solo = |pool: &ExecutorPool| {
            chaos_panic_threads(|| {
                let (result, _, _) = run_solo(&cg, &layout, pool, &cfg);
                assert!(
                    matches!(result, Err(MachineError::WorkerPanicked { .. })),
                    "{result:?}"
                );
            })
        };
        let one = ExecutorPool::new(1);
        let seen = solo(&one);
        assert!(
            !seen.is_empty() && seen.iter().all(|(id, _)| *id == caller),
            "{seen:?}"
        );
        let seen = solo(&ExecutorPool::new(2));
        assert!(on_pool(&seen), "{seen:?}");
        let seen = chaos_panic_threads(|| {
            let (results, _) = run_concurrent(&cg, &layout, &one, 1, &cfg, 1);
            assert!(results[0].is_err(), "{results:?}");
        });
        assert!(on_pool(&seen), "{seen:?}");
    }

    /// A panic that escapes the worker loop on the calling thread is
    /// contained. Here it is a task whose drop panics, left in its batch
    /// by a body that does not drain it. The run reports worker
    /// `usize::MAX` (which `drive` turns into `WorkerPanicked`), the
    /// caller does not unwind, and the next run on the same pool matches
    /// the simulator.
    #[test]
    fn an_escaped_panic_on_the_caller_is_contained() {
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                if !std::thread::panicking() {
                    panic!("a dropped task panicked");
                }
            }
        }
        let pool = ExecutorPool::new(1);
        let sched: Scheduler<Bomb> = Scheduler::new(1);
        sched.inject_batch([Bomb]);
        let out = catch_unwind(AssertUnwindSafe(|| {
            sched.run_on_caller(&pool.pool, |_, _| {})
        }))
        .expect("the caller does not unwind");
        assert_eq!(
            out.panicked,
            Some((usize::MAX, "worker loop panicked".to_string()))
        );
        assert!(out.halted);

        let (g, layout) = small_graph();
        let sim = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let cg = compile(&g).unwrap();
        let (result, _, _) = run_solo(&cg, &layout, &pool, &ParConfig::default());
        let out = result.expect("the pool stays usable");
        assert_eq!(out.memory, sim.memory);
        assert_eq!(out.fired, sim.stats.fired);
    }
}
