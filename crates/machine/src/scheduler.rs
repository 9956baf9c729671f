//! A std-only work-stealing task scheduler with batched queues and a
//! reusable worker pool.
//!
//! This is the execution core under [`mod@crate::serve`]. Each worker
//! owns a run queue; a worker pushes the tasks it creates onto its own
//! queue and pops them back LIFO for cache locality. The hot paths are
//! *batched*: a worker takes up to [`BATCH`] tasks in one queue
//! synchronization, runs them, and flushes every task the batch produced
//! and did not run back onto its queue in a single push — one lock
//! acquisition and at most one update of the shared in-flight count per
//! batch instead of per task; per-worker statistics are thread-local
//! arithmetic.
//!
//! A batch *runs on*: once the tasks taken from the queues are done, the
//! worker takes back the tasks the batch itself produced, oldest first,
//! and runs them too, up to [`RUN_ON_CAP`] tasks in all. On the narrow
//! task chains a dataflow graph mostly is, a batch would otherwise hold a
//! handful of tasks and pay the whole per-batch cost for each handful.
//! Oldest first keeps the batch breadth-first over its own output;
//! newest first would run a loop ahead of the tasks it left behind,
//! which in the executor wait as half-filled rendezvous slots.
//! Run-on only holds back work a sibling could use, so it is limited by
//! one rule, whose inputs are sampled when the batch starts: while no
//! sibling is parked or unfed the batch runs on to the cap; while one is,
//! it runs on only while it buffers fewer than [`WAKE_THRESHOLD`] tasks,
//! since a smaller flush would wake nobody. A task taken back never
//! enters the queues or the in-flight count, and counts as a local pop.
//!
//! A dry worker drains the global injector, then steals *half* of a
//! sibling's queue — but only from queues at least [`STEAL_MIN`] deep.
//! Shallow queues mark a narrow, mostly serial task chain; robbing them
//! migrates the chain between workers (trashing locality and the
//! executor's same-batch rendezvous fast path) without buying any
//! parallelism. A queue holding fewer tasks than the floor keeps them for
//! its owner.
//!
//! Work enters only through the global injector, where the first worker
//! to look takes up to a batch of it, and narrow graphs never fill queues
//! past the steal floor, so extra workers would otherwise sleep through
//! the whole run. The *donation* path fixes start-up distribution
//! explicitly: while some worker has never been given work (not donated
//! to, never ran a batch), each flush hands one produced task directly
//! into that worker's queue and wakes it. Each worker is donated to at
//! most once, and a single counter load in the flush fast path prices
//! the steady state — once every worker has been fed, donations cost
//! nothing at all.
//!
//! Idle workers spin briefly, then park on a `Condvar` behind an
//! *event count*: a would-be sleeper snapshots `wake_epoch`, re-checks
//! the queues, and only blocks while the epoch is unchanged. Producers
//! bump the epoch when a flush leaves their queue at or above
//! [`WAKE_THRESHOLD`] (so sub-threshold dribbles of work never pay a
//! syscall — the owner will run them), on external injection, and on
//! halt/quiescence. A missed sub-threshold wakeup is therefore
//! harmless by construction: the only worker that can observe it is
//! parked, and the task's owner is awake and will process it.
//!
//! Shutdown is **explicit**:
//!
//! * a task pushed onto a queue is never dropped: it is either processed,
//!   or still countable in a queue when [`Scheduler::run_in`] returns
//!   after an explicit [`Scheduler::halt_external`] (the caller sees the
//!   count in [`Outcome::leftover`]);
//! * with no halt requested, workers only exit when the in-flight count
//!   reaches zero, so `run_in` returning with `leftover == 0` is a
//!   *guarantee*, checked by a debug assertion, not a race.
//!
//! [`WorkerPool`] keeps the OS threads alive across runs: spawning a
//! thread costs tens of microseconds, which dominates sub-millisecond
//! graph executions and is exactly the overhead that made adding
//! workers *slow the executor down*. A pool is created once, parks its
//! threads between runs, and executes one [`Scheduler::run_in`] per
//! job. Even a parked thread costs a wake-up and a completion signal
//! per run, so [`Scheduler::run_on_caller`] runs a 1-worker pool's only
//! worker loop on the calling thread instead.
//!
//! The scheduler knows nothing about dataflow; it moves opaque `T`s. The
//! machine semantics (rendezvous, firing, memory) live in
//! [`mod@crate::serve`].

use crate::chaos::ChaosConfig;
use crate::metrics::WorkerStats;
use crate::prng::Prng;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard};

/// Maximum tasks taken per queue synchronization.
pub const BATCH: usize = 32;
/// Maximum tasks one batch runs: the ones taken from the queues plus the
/// ones it takes back from its own output.
pub const RUN_ON_CAP: usize = 8 * BATCH;
/// A flush that leaves the worker's queue at or above this length bumps
/// the wake epoch so parked siblings come steal.
pub const WAKE_THRESHOLD: usize = 16;
/// Bounded spin iterations before a dry worker parks.
const SPIN_TRIES: u32 = 64;
/// Minimum victim queue depth for stealing. Shallow queues are the
/// signature of a narrow (mostly serial) task chain: stealing one or
/// two tasks from them migrates the chain between workers — destroying
/// the producer's locality (and the executor's same-batch rendezvous
/// fast path) — without creating any real parallelism.
pub const STEAL_MIN: usize = 4;

/// Lock, recovering the guard if a panicking worker poisoned it (the
/// panic itself still propagates through the scope join).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// What [`Scheduler::run_in`] observed by the time every worker exited.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Tasks fully processed: the sum of the workers' `processed`.
    pub processed: u64,
    /// Tasks still sitting in run queues when the workers exited. Zero
    /// unless a halt cut execution short.
    pub leftover: u64,
    /// Whether the run was halted: by [`Scheduler::halt_external`], or by
    /// the implicit halt a contained panic performs.
    pub halted: bool,
    /// The first worker panic contained this run: `(worker index,
    /// rendered payload)`. A panicking batch halts the whole scheduler,
    /// so `halted` is always true alongside this. `None` on clean runs.
    pub panicked: Option<(usize, String)>,
    /// Per-worker counters (pops, steals, parks, …), indexed by worker.
    /// Tallied thread-locally — the counters cost nothing on the shared
    /// structures.
    pub workers: Vec<WorkerStats>,
}

struct Park {
    /// Guarded by this lock; counts workers inside the wait loop.
    sleepers: Mutex<usize>,
    cvar: Condvar,
}

/// Work-stealing scheduler over tasks of type `T`.
pub struct Scheduler<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    /// Global injector for tasks pushed from outside a worker: every
    /// admitted invocation's start tokens, before or during a run.
    inject: Mutex<VecDeque<T>>,
    /// Tasks pushed but not yet fully processed (includes the ones a
    /// worker is currently running). Zero means no task exists and none
    /// can ever appear — the quiescence/termination signal.
    pending: AtomicUsize,
    /// Event count for parking: bumped whenever meaningful new work
    /// appears (threshold flush, injection, halt, quiescence). A sleeper
    /// snapshots it before its last look at the queues and only blocks
    /// while it is unchanged.
    wake_epoch: AtomicU64,
    /// Mirror of the sleeper count, readable without the park lock, so
    /// the flush fast path skips the lock entirely while nobody sleeps.
    sleeper_count: AtomicUsize,
    /// Per-worker "has ever been given work" flags: set by a donation or
    /// by the worker's own first processed batch. While any
    /// worker is unfed, flushes *donate* one produced task straight into
    /// its (empty) queue and wake it — a bounded start-up hand-off that
    /// guarantees work distribution even on narrow graphs whose queues
    /// never reach [`WAKE_THRESHOLD`]. A donated singleton sits below
    /// the steal floor, so the recipient itself must process it before
    /// the system can quiesce — "every worker runs" is deterministic.
    fed: Vec<AtomicBool>,
    /// How many `fed` flags are still unset; the flush fast path reads
    /// this single counter to skip the donation scan entirely.
    unfed: AtomicUsize,
    stop: AtomicBool,
    /// First contained worker panic: `(worker, rendered payload)`.
    /// Recording a panic also raises `stop`, so later workers exit
    /// instead of processing a poisoned run further.
    panic: Mutex<Option<(usize, String)>>,
    /// Optional fault-injection plan (see [`crate::chaos`]); absent on
    /// ordinary runs, costing one branch per batch.
    chaos: Option<ChaosConfig>,
    park: Park,
}

/// Handle given to the task body, once per batch: the body pulls the
/// batch's tasks with [`Ctx::next`] and pushes follow-up work with
/// [`Ctx::push`]. Produced tasks the batch does not run itself are
/// flushed to the worker's queue once per batch.
pub struct Ctx<T> {
    /// Index of the worker running this batch; its queue takes the
    /// flushes.
    worker: usize,
    batch: RefCell<Batch<T>>,
}

/// The tasks of the batch a worker is running.
struct Batch<T> {
    /// Tasks taken from the queues and not yet handed out, next first.
    queued: VecDeque<T>,
    /// How many tasks were taken from the queues.
    from_queues: usize,
    /// Tasks the batch produced and did not take back, oldest first,
    /// flushed in one push.
    produced: VecDeque<T>,
    /// Produced tasks the batch took back and ran.
    taken_back: usize,
    /// A sibling was parked or unfed when the batch started: run on only
    /// while fewer than [`WAKE_THRESHOLD`] tasks are buffered.
    hungry: bool,
}

/// A panic payload as text: its message when it is a string.
pub(crate) fn render_panic(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl<T: Send> Scheduler<T> {
    /// A scheduler with `n` worker queues (`n >= 1`).
    pub fn new(n_workers: usize) -> Scheduler<T> {
        let n = n_workers.max(1);
        Scheduler {
            queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
            inject: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            wake_epoch: AtomicU64::new(0),
            sleeper_count: AtomicUsize::new(0),
            fed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            unfed: AtomicUsize::new(n),
            stop: AtomicBool::new(false),
            panic: Mutex::new(None),
            chaos: None,
            park: Park {
                sleepers: Mutex::new(0),
                cvar: Condvar::new(),
            },
        }
    }

    /// Attach a fault-injection plan: before each batch a worker may
    /// sleep (`delay_prob`) or be forced onto the injector/steal path
    /// (`force_steal_prob`). Faults are drawn from per-worker streams
    /// seeded by `chaos.seed`, so a given plan is reproducible.
    pub fn with_chaos(mut self, chaos: Option<ChaosConfig>) -> Scheduler<T> {
        self.chaos = chaos;
        self
    }

    /// Record that worker `w` has been given work (a donation or its own
    /// first batch), retiring it as a donation target.
    fn mark_fed(&self, w: usize) {
        if !self.fed[w].swap(true, Ordering::SeqCst) {
            self.unfed.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Inject a group of tasks from outside the worker pool in one
    /// synchronization (one injector lock, one counter update, one
    /// wake) — the threaded engine's admission path
    /// ([`mod@crate::serve`]), where every invocation seeds several
    /// tokens at once. All sleepers are woken: a batch is exactly the
    /// situation where several parked workers can be put to use at once.
    /// Returns how many tasks were injected.
    pub fn inject_batch<I: IntoIterator<Item = T>>(&self, tasks: I) -> usize {
        let mut buf: Vec<T> = tasks.into_iter().collect();
        let m = buf.len();
        if m == 0 {
            return 0;
        }
        // `pending` rises before the tasks become visible: a worker that
        // grabs a task and finishes it must never drive `pending` below
        // the true in-flight count.
        self.pending.fetch_add(m, Ordering::SeqCst);
        lock(&self.inject).extend(buf.drain(..));
        self.wake(true);
        m
    }

    /// Hold the scheduler open: raise `pending` by one without
    /// supplying a task, so the system does not quiesce (workers park
    /// instead of exiting) while an external driver still intends to
    /// [`Scheduler::inject_batch`] more work — the idle state of a
    /// serving loop between requests. Balance with
    /// [`Scheduler::release`].
    pub fn hold(&self) {
        self.pending.fetch_add(1, Ordering::SeqCst);
    }

    /// Release a [`Scheduler::hold`]. When the hold was the last thing
    /// keeping the system alive, the workers are woken to observe
    /// quiescence and exit.
    pub fn release(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.wake(true);
        }
    }

    /// Bump the wake epoch and notify parked workers. `all` notifies
    /// every sleeper (halt/quiescence); otherwise one is enough.
    fn wake(&self, all: bool) {
        let guard = lock(&self.park.sleepers);
        self.wake_epoch.fetch_add(1, Ordering::SeqCst);
        if *guard > 0 {
            if all {
                self.park.cvar.notify_all();
            } else {
                self.park.cvar.notify_one();
            }
        }
    }

    /// Take up to [`BATCH`] tasks for worker `w` in one synchronization:
    /// own queue (newest — LIFO), then the injector, then *half* of the
    /// first sibling queue holding at least [`STEAL_MIN`] tasks. Returns
    /// how many tasks landed in `batch`; tallies the source into
    /// `stats`.
    ///
    /// With `force_steal` (fault injection), the order is inverted —
    /// injector, then steal, then the worker's *own* queue as the
    /// fallback — so the schedule is perturbed adversarially but a
    /// worker holding the only remaining work can never come up empty
    /// and park on it.
    fn fill_batch(
        &self,
        w: usize,
        batch: &mut VecDeque<T>,
        stats: &mut WorkerStats,
        force_steal: bool,
    ) -> usize {
        debug_assert!(batch.is_empty());
        if !force_steal {
            let k = self.pop_own(w, batch, stats);
            if k > 0 {
                return k;
            }
        }
        {
            let mut inj = lock(&self.inject);
            let k = inj.len().min(BATCH);
            for _ in 0..k {
                batch.push_back(inj.pop_front().expect("len checked"));
            }
            if k > 0 {
                drop(inj);
                stats.injector_hits += k as u64;
                if force_steal {
                    stats.chaos_forced_steals += 1;
                }
                return k;
            }
        }
        let n = self.queues.len();
        for i in 1..n {
            let victim = (w + i) % n;
            let mut stolen: VecDeque<T> = {
                let mut q = lock(&self.queues[victim]);
                if q.len() < STEAL_MIN {
                    continue;
                }
                let half = q.len() / 2;
                // The *oldest* half — the classic split that keeps
                // stolen work coarse and leaves the victim its hot tail.
                let rest = q.split_off(half);
                std::mem::replace(&mut *q, rest)
            };
            let k = stolen.len().min(BATCH);
            stats.steals += k as u64;
            for _ in 0..k {
                batch.push_back(stolen.pop_front().expect("len checked"));
            }
            // Surplus beyond one batch moves to our own queue, and is
            // tallied as a local pop when it is popped.
            if !stolen.is_empty() {
                lock(&self.queues[w]).extend(stolen);
            }
            if force_steal {
                stats.chaos_forced_steals += 1;
            }
            return k;
        }
        if force_steal {
            // Nothing anywhere else: fall back to our own queue so the
            // injected fault cannot strand the last runnable work.
            self.pop_own(w, batch, stats)
        } else {
            0
        }
    }

    /// Pop up to [`BATCH`] newest tasks from worker `w`'s own queue.
    fn pop_own(&self, w: usize, batch: &mut VecDeque<T>, stats: &mut WorkerStats) -> usize {
        let mut q = lock(&self.queues[w]);
        let k = q.len().min(BATCH);
        for _ in 0..k {
            batch.push_back(q.pop_back().expect("len checked"));
        }
        if k > 0 {
            drop(q);
            stats.local_pops += k as u64;
        }
        k
    }

    /// Retire a batch that took `consumed` tasks from the queues: settle
    /// `pending` by the net of the tasks the batch left produced and
    /// consumed — one update, none when the two are equal — then flush
    /// the produced tasks onto the worker's queue in one push, bumping
    /// the wake epoch when the queue crosses the wake threshold and
    /// somebody is parked. While some worker has never been given work,
    /// one task is donated straight to it instead (see `fed`). A task
    /// the batch took back from its own output was never counted in
    /// `pending`, and is in neither count.
    ///
    /// The update precedes the push, so `pending` never undercounts: the
    /// batch's consumed tasks hold their place until the produced ones
    /// are counted. It reaches zero only when the batch left nothing
    /// produced and no task exists anywhere, and then everyone is woken
    /// to observe quiescence.
    fn flush(&self, ctx: &Ctx<T>, consumed: usize) {
        let mut batch = ctx.batch.borrow_mut();
        let buf = &mut batch.produced;
        let m = buf.len();
        if m > consumed {
            self.pending.fetch_add(m - consumed, Ordering::SeqCst);
        } else if m < consumed {
            let gone = consumed - m;
            if self.pending.fetch_sub(gone, Ordering::SeqCst) == gone {
                self.wake(true);
            }
        }
        if m == 0 {
            return;
        }
        let donated = self.unfed.load(Ordering::SeqCst) > 0 && self.donate(ctx.worker, buf);
        let qlen = {
            let mut q = lock(&self.queues[ctx.worker]);
            q.extend(buf.drain(..));
            q.len()
        };
        if donated {
            self.wake(true);
        } else if qlen >= WAKE_THRESHOLD && self.sleeper_count.load(Ordering::SeqCst) > 0 {
            self.wake(false);
        }
    }

    /// Hand one freshly produced task to the first worker that has never
    /// been given any (not donated to, never ran a batch). Bounded: each
    /// worker is donated to at most once, and the single `unfed` counter
    /// load in [`Scheduler::flush`] short-circuits the whole path —
    /// including this scan of plain atomic flags, which touches no queue
    /// locks — the moment every worker is fed.
    fn donate(&self, w: usize, buf: &mut VecDeque<T>) -> bool {
        for (v, flag) in self.fed.iter().enumerate() {
            if v == w || flag.load(Ordering::SeqCst) {
                continue;
            }
            lock(&self.queues[v])
                .push_back(buf.pop_back().expect("flush checked buf is non-empty"));
            self.mark_fed(v);
            return true;
        }
        false
    }

    /// Run `body` over every task until the system drains or halts, on
    /// the pre-spawned `pool`, whose width must match the queue count.
    ///
    /// `body` is called once per batch with a [`Ctx`], and must pull
    /// tasks with [`Ctx::next`] until it returns `None` (pushing
    /// follow-up tasks with [`Ctx::push`]). Workers exit when (a)
    /// the run was halted ([`Scheduler::halt_external`], or a contained
    /// panic), or (b) `pending` reaches zero — every pushed task was
    /// processed and none can ever appear again.
    pub fn run_in<F>(&self, pool: &WorkerPool, body: F) -> Outcome
    where
        F: Fn(&Ctx<T>) + Sync,
    {
        self.run_job(pool, body, WorkerPool::run)
    }

    /// [`Scheduler::run_in`] on a 1-worker `pool`, with the worker loop
    /// on the calling thread ([`WorkerPool::run_on_caller`]): no
    /// hand-off to the pool thread and no wait for it to finish.
    pub fn run_on_caller<F>(&self, pool: &WorkerPool, body: F) -> Outcome
    where
        F: Fn(&Ctx<T>) + Sync,
    {
        self.run_job(pool, body, WorkerPool::run_on_caller)
    }

    /// Run every worker loop through `dispatch` (one of the two
    /// [`WorkerPool`] runs) and collect the outcome.
    fn run_job<F>(
        &self,
        pool: &WorkerPool,
        body: F,
        dispatch: fn(&WorkerPool, &(dyn Fn(usize) + Sync)) -> bool,
    ) -> Outcome
    where
        F: Fn(&Ctx<T>) + Sync,
    {
        assert_eq!(
            pool.workers(),
            self.queues.len(),
            "pool width must match the scheduler's queue count"
        );
        let body = &body;
        let slots: Vec<Mutex<Option<WorkerStats>>> =
            (0..self.queues.len()).map(|_| Mutex::new(None)).collect();
        let escaped = dispatch(pool, &|w| {
            let stats = self.worker_loop(w, body);
            *lock(&slots[w]) = Some(stats);
        });
        if escaped {
            // A panic escaped `worker_loop` itself (body panics are
            // contained inside it): record a generic report so the run
            // still returns a typed failure. The pool caught the unwind
            // on whichever thread ran the loop, so the pool stays usable
            // for subsequent runs.
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some((usize::MAX, "worker loop panicked".to_string()));
            }
            drop(slot);
            self.halt_external();
        }
        // A panicked worker deposits no stats; report empty counters
        // for it rather than aborting the caller.
        let workers = slots
            .into_iter()
            .map(|s| lock(&s).take().unwrap_or_default())
            .collect();
        self.finish(workers)
    }

    fn finish(&self, workers: Vec<WorkerStats>) -> Outcome {
        let leftover = self.drain_count();
        let halted = self.stop.load(Ordering::SeqCst);
        let panicked = lock(&self.panic).take();
        debug_assert!(
            halted || leftover == 0,
            "scheduler quiesced with {leftover} unprocessed tasks — \
             a task was lost without an explicit halt"
        );
        Outcome {
            processed: workers.iter().map(|w| w.processed).sum(),
            leftover,
            halted,
            panicked,
            workers,
        }
    }

    /// Record the first contained panic and halt the run: later workers
    /// observe `stop` and exit, sleepers are woken, and `finish` surfaces
    /// the report in [`Outcome::panicked`].
    fn record_panic(&self, w: usize, payload: &(dyn std::any::Any + Send)) {
        let mut slot = lock(&self.panic);
        if slot.is_none() {
            *slot = Some((w, render_panic(payload)));
        }
        drop(slot);
        self.halt_external();
    }

    /// Request an immediate stop (watchdog expiry, a contained panic):
    /// every worker exits as soon as it observes the flag, and queued
    /// tasks stay in place and are reported in [`Outcome::leftover`].
    pub fn halt_external(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake(true);
    }

    fn worker_loop<F>(&self, w: usize, body: &F) -> WorkerStats
    where
        F: Fn(&Ctx<T>) + Sync,
    {
        let ctx = Ctx {
            worker: w,
            batch: RefCell::new(Batch {
                queued: VecDeque::with_capacity(BATCH),
                from_queues: 0,
                produced: VecDeque::new(),
                taken_back: 0,
                hungry: false,
            }),
        };
        let mut stats = WorkerStats::default();
        let mut first_batch = true;
        let mut chaos = self.chaos.map(|c| (c, Prng::for_worker(c.seed, w)));
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return stats;
            }
            // Snapshot the epoch *before* the last look at the queues:
            // if work arrives after the look, the producer's bump makes
            // the snapshot stale and the park below refuses to block.
            let epoch = self.wake_epoch.load(Ordering::SeqCst);
            let mut force_steal = false;
            if let Some((c, rng)) = chaos.as_mut() {
                if c.delay_prob > 0.0 && rng.chance(c.delay_prob) {
                    stats.chaos_delays += 1;
                    std::thread::sleep(std::time::Duration::from_micros(c.delay_us));
                }
                force_steal = c.force_steal_prob > 0.0 && rng.chance(c.force_steal_prob);
            }
            let k = self.fill_batch(
                w,
                &mut ctx.batch.borrow_mut().queued,
                &mut stats,
                force_steal,
            );
            if k > 0 {
                if first_batch {
                    // A worker that found work on its own (e.g. via the
                    // injector) needs no donation; the guard is a local
                    // bool, so the steady state pays nothing.
                    first_batch = false;
                    self.mark_fed(w);
                }
                stats.batches += 1;
                {
                    // The run-on rule's inputs, sampled once per batch.
                    let mut batch = ctx.batch.borrow_mut();
                    batch.from_queues = k;
                    batch.taken_back = 0;
                    batch.hungry = self.sleeper_count.load(Ordering::SeqCst) > 0
                        || self.unfed.load(Ordering::SeqCst) > 0;
                }
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)));
                // Shared accounting must be settled on both exits: the
                // tasks taken from the queues leave `pending` (on the
                // panic path the unrun remainder is dropped, and counting
                // it "processed" keeps processed + leftover covering
                // every task), and everything the body produced and did
                // not run *before* the fault is flushed so it shows up as
                // queue leftover, not a leak.
                let taken_back = {
                    let mut batch = ctx.batch.borrow_mut();
                    debug_assert!(
                        run.is_err() || batch.queued.is_empty(),
                        "body must drain its batch"
                    );
                    batch.queued.clear(); // release-build safety: never reprocess
                    batch.taken_back
                };
                self.flush(&ctx, k);
                stats.processed += (k + taken_back) as u64;
                stats.local_pops += taken_back as u64;
                if let Err(payload) = run {
                    // Contain the panic: record it, halt the run, and
                    // exit this worker with its stats intact.
                    self.record_panic(w, &*payload);
                    return stats;
                }
                continue;
            }
            // Found nothing. Spin briefly — another worker may be about
            // to flush — then park on the epoch snapshot.
            let mut spun = 0u32;
            while spun < SPIN_TRIES {
                if self.stop.load(Ordering::SeqCst)
                    || self.pending.load(Ordering::SeqCst) == 0
                    || self.wake_epoch.load(Ordering::SeqCst) != epoch
                {
                    break;
                }
                std::hint::spin_loop();
                spun += 1;
            }
            let mut sleepers = lock(&self.park.sleepers);
            if self.wake_epoch.load(Ordering::SeqCst) != epoch {
                continue; // missed signal — retake a look at the queues
            }
            *sleepers += 1;
            self.sleeper_count.store(*sleepers, Ordering::SeqCst);
            stats.parks += 1;
            loop {
                if self.stop.load(Ordering::SeqCst) || self.pending.load(Ordering::SeqCst) == 0 {
                    *sleepers -= 1;
                    self.sleeper_count.store(*sleepers, Ordering::SeqCst);
                    return stats;
                }
                if self.wake_epoch.load(Ordering::SeqCst) != epoch {
                    *sleepers -= 1;
                    self.sleeper_count.store(*sleepers, Ordering::SeqCst);
                    stats.unparks += 1;
                    break; // work appeared — go take it
                }
                sleepers = self
                    .park
                    .cvar
                    .wait(sleepers)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    /// Remaining tasks across all queues (meaningful after `run_in`).
    fn drain_count(&self) -> u64 {
        let mut n = lock(&self.inject).len() as u64;
        for q in &self.queues {
            n += lock(q).len() as u64;
        }
        n
    }
}

impl<T: Send> Ctx<T> {
    /// The batch's next task: the tasks taken from the queues first, then
    /// — the batch running on — the oldest task it produced and has not
    /// run, until [`RUN_ON_CAP`] tasks have run or, with a sibling
    /// hungry, until [`WAKE_THRESHOLD`] tasks are buffered. `None` ends
    /// the batch.
    pub fn next(&self) -> Option<T> {
        let batch = &mut *self.batch.borrow_mut();
        if let Some(t) = batch.queued.pop_front() {
            return Some(t);
        }
        if batch.from_queues + batch.taken_back >= RUN_ON_CAP
            || (batch.hungry && batch.produced.len() >= WAKE_THRESHOLD)
        {
            return None;
        }
        let t = batch.produced.pop_front()?;
        batch.taken_back += 1;
        Some(t)
    }

    /// Push a follow-up task. It is buffered and either taken back by
    /// this batch or lands on the current worker's queue at the end of
    /// the batch, in one synchronization with everything else the batch
    /// produced. Never fails, never drops: the task is processed unless
    /// the whole run is explicitly halted first.
    pub fn push(&self, t: T) {
        self.batch.borrow_mut().produced.push_back(t);
    }

    /// Index of the worker running the current batch.
    pub fn worker(&self) -> usize {
        self.worker
    }
}

// ---------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------

/// A job handed to the pool: called once per worker with the worker
/// index. The pointer is type- and lifetime-erased so the pool threads
/// (spawned once, `'static`) can run borrowing closures; see the safety
/// argument on [`WorkerPool::run`].
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (asserted by the type) and the pointer
// is only dereferenced between job dispatch and completion, while the
// caller of `run`, holding the pool's turn, keeps the referent alive (it
// blocks until `remaining == 0`).
unsafe impl Send for Job {}

struct PoolState {
    /// Incremented per dispatched job; workers run each epoch once.
    epoch: u64,
    job: Option<Job>,
    /// Workers that have not yet finished the current epoch.
    remaining: usize,
    /// A worker's job panicked this epoch.
    panicked: bool,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for the next epoch.
    start: Condvar,
    /// `run` waits here for `remaining == 0`.
    done: Condvar,
}

/// A fixed set of OS threads that parks between jobs, so repeated
/// executor runs pay for thread spawning once instead of per run. Used
/// through [`Scheduler::run_in`] / [`crate::parallel::ExecutorPool`].
/// Jobs run one at a time: concurrent callers of [`WorkerPool::run`] and
/// [`WorkerPool::run_on_caller`] take turns.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Held across a whole job, so a second caller's job never mixes
    /// into the `remaining` count of one still running.
    turn: Mutex<()>,
}

impl WorkerPool {
    /// Spawn a pool of `n` workers (`n >= 1`) named `cf2df-pool-<w>`.
    /// Returns once every thread has started (and so carries its name);
    /// the threads then park until the first job.
    pub fn new(n_workers: usize) -> WorkerPool {
        let n = n_workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let started = Arc::new(Barrier::new(n + 1));
        let handles = (0..n)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let started = Arc::clone(&started);
                std::thread::Builder::new()
                    .name(format!("cf2df-pool-{w}"))
                    .spawn(move || {
                        started.wait();
                        pool_worker(&shared, w)
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        started.wait();
        WorkerPool {
            shared,
            handles,
            turn: Mutex::new(()),
        }
    }

    /// Number of pool workers.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Run `job(w)` once on every pool worker `w`, blocking until all
    /// have finished; a caller that finds another job running waits for
    /// it to end first. Returns whether any worker's job panicked (the
    /// panic is contained by the pool thread, which survives for the
    /// next job; the caller decides how to surface the failure).
    pub fn run(&self, job: &(dyn Fn(usize) + Sync)) -> bool {
        let _turn = lock(&self.turn);
        // SAFETY: we erase the borrow's lifetime to hand the pointer to
        // the long-lived pool threads. The pointer is dereferenced only
        // by workers executing this epoch, and this function does not
        // return (so the borrow stays live) until every worker has
        // finished the epoch (`remaining == 0`); the slot is cleared
        // before returning. Holding `turn` keeps any other job out of
        // the epoch, so `remaining` counts this job's workers only.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let mut st = lock(&self.shared.state);
        debug_assert_eq!(st.remaining, 0, "pool jobs never overlap");
        st.epoch += 1;
        st.job = Some(Job(erased as *const _));
        st.remaining = self.handles.len();
        self.shared.start.notify_all();
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        std::mem::take(&mut st.panicked)
    }

    /// [`WorkerPool::run`] for a 1-worker pool, with `job(0)` on the
    /// calling thread: the caller holds the pool's turn for the call,
    /// and the pool thread stays parked. A panic in the job is contained
    /// here and reported as `run` reports one.
    pub fn run_on_caller(&self, job: &(dyn Fn(usize) + Sync)) -> bool {
        assert_eq!(self.workers(), 1, "only a 1-worker pool runs on its caller");
        let _turn = lock(&self.turn);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(0))).is_err()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn pool_worker(shared: &PoolShared, w: usize) {
    let mut seen = 0u64;
    loop {
        let job: Job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    if let Some(Job(ptr)) = st.job {
                        seen = st.epoch;
                        break Job(ptr);
                    }
                }
                st = shared.start.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: see `WorkerPool::run` — the referent outlives the
        // epoch, and we signal completion only after the call returns.
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe { (*job.0)(w) }));
        let mut st = lock(&shared.state);
        if result.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    fn for_each<T: Send>(body: impl Fn(&Ctx<T>, T) + Sync) -> impl Fn(&Ctx<T>) + Sync {
        move |ctx| {
            while let Some(t) = ctx.next() {
                body(ctx, t);
            }
        }
    }

    impl<T: Send> Scheduler<T> {
        /// Run until the system drains or halts, on a fresh pool of this
        /// scheduler's width.
        fn run_on_pool(&self, body: impl Fn(&Ctx<T>) + Sync) -> Outcome {
            self.run_in(&WorkerPool::new(self.queues.len()), body)
        }
    }

    /// Fan out a binary tree of tasks and sum the leaves: exercises
    /// pushes from inside workers, stealing, and clean quiescence.
    fn tree_sum(workers: usize, depth: u32) -> (u64, Outcome) {
        let sched: Scheduler<(u32, u64)> = Scheduler::new(workers);
        let total = AtomicU64::new(0);
        sched.inject_batch([(depth, 1)]);
        let out = sched.run_on_pool(for_each(|ctx, (d, v)| {
            if d == 0 {
                total.fetch_add(v, Ordering::Relaxed);
            } else {
                ctx.push((d - 1, v * 2));
                ctx.push((d - 1, v * 2 + 1));
            }
        }));
        (total.load(Ordering::Relaxed), out)
    }

    #[test]
    fn drains_cleanly_at_every_width() {
        // Leaves of the value tree starting at 1: values 2^d .. 2^(d+1)-1.
        let d = 10u32;
        let expect: u64 = (1u64 << d..1u64 << (d + 1)).sum();
        for workers in [1, 2, 4, 8] {
            let (sum, out) = tree_sum(workers, d);
            assert_eq!(sum, expect, "workers={workers}");
            assert_eq!(out.leftover, 0);
            assert!(!out.halted);
            // Internal nodes + leaves of a depth-d binary tree.
            assert_eq!(out.processed, (1 << (d + 1)) - 1);
        }
    }

    #[test]
    fn injected_tasks_are_all_processed() {
        let sched: Scheduler<u64> = Scheduler::new(4);
        let total = AtomicU64::new(0);
        sched.inject_batch(0..1000);
        let out = sched.run_on_pool(for_each(|_, v| {
            total.fetch_add(v, Ordering::Relaxed);
        }));
        assert_eq!(total.load(Ordering::Relaxed), 499_500);
        assert_eq!(out.processed, 1000);
        assert_eq!(out.leftover, 0);
    }

    #[test]
    fn halt_stops_early_and_accounts_for_leftovers() {
        let sched: Scheduler<u64> = Scheduler::new(2);
        sched.inject_batch(0..100);
        let out = sched.run_on_pool(for_each(|_, v| {
            if v == 0 {
                sched.halt_external();
            }
        }));
        assert!(out.halted);
        // Every injected task is accounted for: processed or leftover.
        assert_eq!(out.processed + out.leftover, 100);
    }

    #[test]
    fn no_work_at_all_returns_immediately() {
        let sched: Scheduler<()> = Scheduler::new(4);
        let out = sched.run_on_pool(for_each(|_, ()| {}));
        assert_eq!(out.processed, 0);
        assert_eq!(out.leftover, 0);
        assert!(!out.halted);
        assert_eq!(out.workers.len(), 4);
    }

    #[test]
    fn worker_stats_account_for_every_task() {
        for workers in [1, 2, 4] {
            let (_, out) = tree_sum(workers, 8);
            assert_eq!(out.workers.len(), workers);
            let by_worker: u64 = out.workers.iter().map(|w| w.processed).sum();
            assert_eq!(by_worker, out.processed, "workers={workers}");
            // Every processed task came from exactly one source.
            let sourced: u64 = out
                .workers
                .iter()
                .map(|w| w.local_pops + w.injector_hits + w.steals)
                .sum();
            assert_eq!(sourced, out.processed, "workers={workers}");
            // The single injected seed was an injector hit.
            let injected: u64 = out.workers.iter().map(|w| w.injector_hits).sum();
            assert!(injected >= 1);
            // Batches are at least as coarse as tasks, never coarser
            // than the run-on cap allows.
            for w in &out.workers {
                assert!(w.unparks <= w.parks);
                assert!(w.batches <= w.processed.max(1));
                assert!(w.processed <= w.batches * RUN_ON_CAP as u64);
            }
        }
    }

    #[test]
    fn single_worker_is_depth_first() {
        // With one worker and LIFO batch pops, a chain of pushes runs to
        // completion like a recursion — queue depth stays bounded.
        let sched: Scheduler<u32> = Scheduler::new(1);
        let count = AtomicU64::new(0);
        sched.inject_batch([10_000]);
        let out = sched.run_on_pool(for_each(|ctx, n| {
            count.fetch_add(1, Ordering::Relaxed);
            if n > 0 {
                ctx.push(n - 1);
            }
        }));
        assert_eq!(out.processed, 10_001);
        assert_eq!(count.load(Ordering::Relaxed), 10_001);
    }

    /// Forced contention: one slow producer fans work out while hungry
    /// consumers start empty. The sleeps force the producer off the CPU
    /// (this also holds on a single-core host), so consumers must be
    /// woken through the threshold path and must steal to make
    /// progress.
    #[test]
    fn forced_contention_exercises_steal_and_park() {
        let workers = 4;
        let sched: Scheduler<u32> = Scheduler::new(workers);
        // One producer task, taken from the injector by one worker.
        sched.inject_batch([u32::MAX]);
        let done = AtomicU64::new(0);
        let out = sched.run_on_pool(for_each(|ctx, v| {
            if v == u32::MAX {
                // The producer: fan out well past the wake threshold,
                // slowly, so siblings park before work exists and get
                // woken by the threshold flush afterwards.
                for i in 0..(WAKE_THRESHOLD as u32 * 8) {
                    ctx.push(i);
                }
                std::thread::sleep(Duration::from_millis(5));
            } else {
                // Consumers burn a little time so the queue stays
                // contended while everyone is awake.
                std::thread::sleep(Duration::from_micros(50));
                done.fetch_add(1, Ordering::Relaxed);
            }
        }));
        assert_eq!(out.processed, 1 + WAKE_THRESHOLD as u64 * 8);
        assert_eq!(done.load(Ordering::Relaxed), WAKE_THRESHOLD as u64 * 8);
        let steals: u64 = out.workers.iter().map(|w| w.steals).sum();
        let parks: u64 = out.workers.iter().map(|w| w.parks).sum();
        let unparks: u64 = out.workers.iter().map(|w| w.unparks).sum();
        assert!(steals > 0, "siblings must steal from the producer: {out:?}");
        assert!(parks > 0, "empty-handed workers must park: {out:?}");
        assert!(
            unparks > 0,
            "the threshold flush must wake a sleeper: {out:?}"
        );
    }

    /// Steal-half: a thief takes half of the victim's queue in one
    /// steal, and a queue holding a single task is never robbed.
    #[test]
    fn steal_takes_half_but_never_the_last_task() {
        let sched: Scheduler<u32> = Scheduler::new(2);
        // 100 tasks, all in worker 0's queue.
        {
            let mut q = lock(&sched.queues[0]);
            q.extend(0..100u32);
        }
        sched.pending.fetch_add(100, Ordering::SeqCst);
        let mut stats = WorkerStats::default();
        let mut batch = VecDeque::new();
        let k = sched.fill_batch(1, &mut batch, &mut stats, false);
        // Worker 1 stole half the queue (50): one batch in hand, the
        // surplus relocated to its own queue. Only the batch counts as
        // stolen; the surplus counts when its owner pops it.
        assert_eq!(k, BATCH.min(50));
        assert_eq!(stats.steals, k as u64);
        assert_eq!(lock(&sched.queues[0]).len(), 50);
        assert_eq!(lock(&sched.queues[1]).len(), 50 - k);
        // The oldest tasks were taken, in order.
        assert_eq!(batch[0], 0);

        // A singleton queue is not a steal target.
        let lone: Scheduler<u32> = Scheduler::new(2);
        lock(&lone.queues[0]).push_back(7);
        lone.pending.fetch_add(1, Ordering::SeqCst);
        let mut batch = VecDeque::new();
        let k = lone.fill_batch(1, &mut batch, &mut stats, false);
        assert_eq!(k, 0, "the last task belongs to its owner");
        assert_eq!(lock(&lone.queues[0]).len(), 1);
    }

    /// Park/unpark under a slow drip: consumers park repeatedly while an
    /// injector thread drips tasks in with pauses, and every drip wakes
    /// the sleepers (injection always bumps the epoch). The drips start
    /// when the task holding the run open signals that it runs: a drip
    /// injected before a worker took that task would share its injector
    /// batch, behind it, and never run.
    #[test]
    fn slow_drip_parks_and_wakes_repeatedly() {
        let sched: Scheduler<u32> = Scheduler::new(3);
        let sched = &sched;
        let seen = AtomicU64::new(0);
        let (running, wait_running) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                wait_running.recv().expect("the holding task runs");
                for i in 0..5u32 {
                    std::thread::sleep(Duration::from_millis(3));
                    sched.inject_batch([i]);
                }
            });
            // Hold the run open until all five drips arrived.
            sched.inject_batch([u32::MAX]);
            let out = sched.run_on_pool(for_each(|_ctx, v| {
                if v == u32::MAX {
                    running.send(()).expect("the dripper waits");
                    while seen.load(Ordering::Relaxed) < 5 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                } else {
                    seen.fetch_add(1, Ordering::Relaxed);
                }
            }));
            assert_eq!(out.processed, 6);
            let parks: u64 = out.workers.iter().map(|w| w.parks).sum();
            assert!(parks > 0, "drip-fed workers must have parked: {out:?}");
        });
    }

    /// A narrow serial chain (one task in flight at a time) never fills
    /// any queue past the steal floor, so without donations every worker
    /// but the one that took the injected task would park at start-up
    /// and sleep through the whole run. The donation path must feed each
    /// of them at least one task — and a donated singleton cannot be
    /// stolen, so "every worker processed something" is deterministic,
    /// not probabilistic.
    #[test]
    fn starving_workers_are_fed_by_donation() {
        let workers = 8;
        let sched: Scheduler<u32> = Scheduler::new(workers);
        sched.inject_batch([10_000u32]);
        let out = sched.run_on_pool(for_each(|ctx, n| {
            if n > 0 {
                ctx.push(n - 1);
            }
        }));
        assert_eq!(out.processed, 10_001);
        assert_eq!(out.leftover, 0);
        for (w, s) in out.workers.iter().enumerate() {
            assert!(
                s.processed > 0,
                "worker {w} was never fed on a narrow chain: {out:?}"
            );
        }
    }

    /// Run-on: on one worker a serial chain runs [`RUN_ON_CAP`] tasks per
    /// batch, each batch taking back the task it produced, and every task
    /// still has exactly one source. Without run-on each task of the
    /// chain was a batch of its own.
    #[test]
    fn a_serial_chain_runs_on_in_capped_batches() {
        let n = 10 * RUN_ON_CAP as u64 + 5;
        let sched: Scheduler<u64> = Scheduler::new(1);
        sched.inject_batch([n - 1]);
        let out = sched.run_on_pool(for_each(|ctx, v| {
            if v > 0 {
                ctx.push(v - 1);
            }
        }));
        assert_eq!(out.processed, n);
        assert_eq!(out.leftover, 0);
        let w = &out.workers[0];
        assert_eq!(w.batches, n.div_ceil(RUN_ON_CAP as u64), "{w:?}");
        assert_eq!(w.injector_hits, 1, "{w:?}");
        assert_eq!(w.local_pops, n - 1, "{w:?}");
        assert_eq!(w.local_pops + w.injector_hits + w.steals, w.processed);
    }

    /// Run-on with a hungry sibling: while the other worker is parked,
    /// the producer's batch runs on only until it buffers
    /// [`WAKE_THRESHOLD`] tasks, then flushes them and wakes the
    /// sibling, which runs some of them. The producer runs a binary tree
    /// (each task above the leaves pushes two children), level by level
    /// since a batch takes back its oldest task first: after the first
    /// `WAKE_THRESHOLD - 1` tasks, the tree's top four levels, the next
    /// level's 16 tasks are buffered and the first batch ends.
    #[test]
    fn run_on_stops_at_the_wake_threshold_for_a_parked_sibling() {
        let depth = 7u32;
        let sched: Scheduler<u32> = Scheduler::new(2);
        let sched = &sched;
        sched.inject_batch([depth]);
        // The tasks each batch ran, by worker, in order.
        let ran: Vec<Mutex<Vec<usize>>> = (0..2).map(|_| Mutex::new(Vec::new())).collect();
        let out = sched.run_on_pool(|ctx| {
            let mut n = 0;
            while let Some(v) = ctx.next() {
                if v == depth {
                    // Produce only once the sibling has parked.
                    while sched.sleeper_count.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                }
                n += 1;
                if v > 0 {
                    ctx.push(v - 1);
                    ctx.push(v - 1);
                }
            }
            lock(&ran[ctx.worker()]).push(n);
        });
        assert_eq!(out.processed, (1 << (depth + 1)) - 1);
        assert_eq!(out.leftover, 0);
        let producer = out
            .workers
            .iter()
            .position(|w| w.injector_hits == 1)
            .expect("one worker took the tree's root");
        let sibling = &out.workers[1 - producer];
        assert_eq!(
            lock(&ran[producer])[0],
            WAKE_THRESHOLD - 1,
            "the first batch stops at the threshold: {out:?}"
        );
        assert!(sibling.unparks >= 1, "the sibling was woken: {out:?}");
        assert!(sibling.processed > 0, "the sibling ran tasks: {out:?}");
    }

    /// A held scheduler idles (workers park, nothing exits) across gaps
    /// between injected batches, drains everything injected while held,
    /// and only quiesces after the release — the serving-loop protocol.
    #[test]
    fn hold_keeps_the_scheduler_open_across_injection_gaps() {
        let sched: Scheduler<u64> = Scheduler::new(3);
        let sched = &sched;
        let total = AtomicU64::new(0);
        sched.hold();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for round in 0..4u64 {
                    // The gap: with no tasks anywhere, only the hold
                    // keeps the workers from exiting.
                    std::thread::sleep(Duration::from_millis(2));
                    let n = sched.inject_batch((0..10).map(|i| round * 10 + i));
                    assert_eq!(n, 10);
                }
                assert_eq!(sched.inject_batch(std::iter::empty()), 0);
                std::thread::sleep(Duration::from_millis(2));
                sched.release();
            });
            let out = sched.run_on_pool(for_each(|_, v: u64| {
                total.fetch_add(v, Ordering::Relaxed);
            }));
            assert_eq!(out.processed, 40);
            assert_eq!(out.leftover, 0);
            assert!(!out.halted);
            assert_eq!(total.load(Ordering::Relaxed), (0..40u64).sum::<u64>());
        });
    }

    #[test]
    fn pool_runs_jobs_and_is_reusable() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        for round in 0..3 {
            let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            let panicked = pool.run(&|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
            assert!(!panicked);
            for (w, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "round {round}: worker {w} ran exactly once"
                );
            }
        }
    }

    /// A panicking job is contained: `run` reports it instead of
    /// aborting, and the same pool threads run the next job cleanly.
    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = WorkerPool::new(4);
        let panicked = pool.run(&|w| {
            if w == 2 {
                panic!("injected");
            }
        });
        assert!(panicked, "the panic must be reported");
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let panicked = pool.run(&|w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        });
        assert!(!panicked);
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1, "pool still runs every worker");
        }
    }

    /// A panicking task body halts the run and surfaces the worker and
    /// payload in the outcome — at every width, without taking the
    /// process down.
    #[test]
    fn body_panic_is_contained_and_reported() {
        for workers in [1, 2, 4, 8] {
            let sched: Scheduler<u64> = Scheduler::new(workers);
            sched.inject_batch(0..200);
            let out = sched.run_on_pool(for_each(|_, v: u64| {
                if v == 100 {
                    panic!("task exploded");
                }
            }));
            let (_, msg) = out
                .panicked
                .as_ref()
                .unwrap_or_else(|| panic!("workers={workers}: panic not reported: {out:?}"));
            assert_eq!(msg, "task exploded", "workers={workers}");
            assert!(out.halted, "a contained panic halts the run");
            // Every task is still accounted for: processed (the batch
            // containing the panic counts as consumed) or leftover.
            assert_eq!(out.processed + out.leftover, 200, "workers={workers}");
        }
    }

    /// Forced steals must never strand work: even with every batch
    /// forced onto the steal path, a lone worker falls back to its own
    /// queue and the system drains.
    #[test]
    fn forced_steal_falls_back_to_own_queue() {
        for workers in [1, 4] {
            let sched: Scheduler<(u32, u64)> =
                Scheduler::new(workers).with_chaos(Some(ChaosConfig {
                    force_steal_prob: 1.0,
                    ..ChaosConfig::off(42)
                }));
            let total = AtomicU64::new(0);
            sched.inject_batch([(10, 1)]);
            let out = sched.run_on_pool(for_each(|ctx, (d, v): (u32, u64)| {
                if d == 0 {
                    total.fetch_add(v, Ordering::Relaxed);
                } else {
                    ctx.push((d - 1, v * 2));
                    ctx.push((d - 1, v * 2 + 1));
                }
            }));
            let expect: u64 = (1u64 << 10..1u64 << 11).sum();
            assert_eq!(total.load(Ordering::Relaxed), expect, "workers={workers}");
            assert_eq!(out.leftover, 0, "workers={workers}: no stranded work");
            assert!(!out.halted);
        }
    }

    /// Chaos delays are drawn from the per-worker seeded stream: the
    /// run completes, and the delay tally is nonzero at probability 1.
    #[test]
    fn chaos_delays_are_injected_and_tallied() {
        let sched: Scheduler<u64> = Scheduler::new(2).with_chaos(Some(ChaosConfig {
            delay_prob: 1.0,
            delay_us: 1,
            ..ChaosConfig::off(7)
        }));
        sched.inject_batch(0..50);
        let out = sched.run_on_pool(for_each(|_, _v: u64| {}));
        assert_eq!(out.processed, 50);
        let delays: u64 = out.workers.iter().map(|w| w.chaos_delays).sum();
        assert!(delays > 0, "p=1 delays must be tallied: {out:?}");
    }

    /// One pool runs successive schedulers, each to a clean drain.
    #[test]
    fn one_pool_runs_successive_schedulers() {
        let pool = WorkerPool::new(4);
        let d = 9u32;
        let expect: u64 = (1u64 << d..1u64 << (d + 1)).sum();
        for round in 0..3 {
            let sched: Scheduler<(u32, u64)> = Scheduler::new(4);
            let total = AtomicU64::new(0);
            sched.inject_batch([(d, 1)]);
            let out = sched.run_in(
                &pool,
                for_each(|ctx, (dd, v): (u32, u64)| {
                    if dd == 0 {
                        total.fetch_add(v, Ordering::Relaxed);
                    } else {
                        ctx.push((dd - 1, v * 2));
                        ctx.push((dd - 1, v * 2 + 1));
                    }
                }),
            );
            assert_eq!(total.load(Ordering::Relaxed), expect, "round {round}");
            assert_eq!(out.processed, (1 << (d + 1)) - 1);
            assert_eq!(out.leftover, 0);
            assert_eq!(out.workers.len(), 4);
        }
    }
}
