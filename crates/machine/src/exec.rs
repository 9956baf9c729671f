//! The explicit-token-store simulator.
//!
//! Execution is a discrete-event simulation over integer time. Tokens are
//! delivered to input ports; when an operator's rendezvous slot for a tag
//! fills, the operator becomes *ready*; each time step issues up to `P`
//! ready operators (unbounded by default), whose outputs are delivered
//! after the operator's latency. With unbounded processors and unit
//! latencies the makespan is the graph's critical path.
//!
//! The simulation is fully deterministic: events are processed in time
//! order, ready operators in FIFO order.
//!
//! The simulator runs the [`crate::compiled`] form: [`run`] lowers the
//! graph with [`crate::compiled::compile`] and calls [`run_compiled`];
//! callers that execute one graph many times compile once and reuse.
//! Operator semantics live in the shared kernel
//! [`crate::compiled::fire_op`], and the waiting-matching rule — whether
//! an arriving token fires its operator or waits in a rendezvous slot —
//! in the arrival rule and slot table beside it, which the threaded
//! engine shares. The simulator supplies the [`Engine`] effects
//! (timestamped event-queue delivery, tag interning, the split-phase
//! memory) and keeps what is its own: the timed event queue, the
//! processor budget, the LIFO ablation and the frame-capacity throttle.

use crate::compiled::{
    arrive, compile, fire_op, key_inv, Arrival, CompiledGraph, Engine, FireVals, Joined, SlotTable,
};
use crate::memory::{DeferredRead, MemError, Memory};
use crate::metrics::ExecStats;
use crate::tag::{TagId, TagSplit, TagTable};
use cf2df_cfg::{LoopId, MemLayout, VarId};
use cf2df_dfg::{Dfg, OpId, Port};
use std::collections::{BTreeMap, VecDeque};

/// Time steps of the parallelism profile recorded in
/// [`ExecStats::profile`]; later steps count only toward
/// `max_parallelism`.
const PROFILE_CAP: usize = 1 << 16;

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of processors; `None` = unbounded (idealized dataflow).
    pub processors: Option<usize>,
    /// Latency of non-memory operators (≥ 1).
    pub op_latency: u64,
    /// Split-phase memory latency (≥ 1): time from issuing a load/store to
    /// its outputs appearing.
    pub mem_latency: u64,
    /// Maximum operator firings before aborting.
    pub fuel: u64,
    /// Issue the ready queue LIFO (newest-first) instead of FIFO — a
    /// scheduling-policy ablation. Both policies are greedy, so Brent's
    /// bound holds for either; they differ in which tokens wait when
    /// processors are scarce.
    pub lifo: bool,
    /// Capacity of the waiting-matching store: the maximum number of
    /// simultaneously occupied rendezvous slots (Monsoon's frame memory).
    /// `None` = unlimited. A token that would allocate a slot beyond the
    /// capacity is *throttled* until a slot frees — the machine's
    /// back-pressure. Undersized stores can reach a genuine frame
    /// deadlock, reported as [`MachineError::Deadlock`].
    pub frame_capacity: Option<usize>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            processors: None,
            op_latency: 1,
            mem_latency: 1,
            fuel: 50_000_000,
            lifo: false,
            frame_capacity: None,
        }
    }
}

impl MachineConfig {
    /// Unbounded processors, unit latencies: measures the critical path.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Finite machine with `p` processors.
    pub fn with_processors(p: usize) -> Self {
        MachineConfig {
            processors: Some(p.max(1)),
            ..Self::default()
        }
    }

    /// Set the split-phase memory latency.
    pub fn mem_latency(mut self, l: u64) -> Self {
        self.mem_latency = l.max(1);
        self
    }

    /// Set the non-memory operator latency.
    pub fn op_latency(mut self, l: u64) -> Self {
        self.op_latency = l.max(1);
        self
    }

    /// Issue ready operators newest-first (LIFO ablation).
    pub fn lifo(mut self) -> Self {
        self.lifo = true;
        self
    }

    /// Limit the waiting-matching store to `slots` rendezvous slots.
    pub fn frame_capacity(mut self, slots: usize) -> Self {
        self.frame_capacity = Some(slots);
        self
    }
}

/// Execution failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// Tokens are pending but nothing can fire and nothing is in flight.
    Deadlock {
        /// Human-readable description of (up to 10) blocked slots.
        pending: Vec<String>,
    },
    /// The firing budget was exhausted (runaway graph).
    FuelExhausted,
    /// Two tokens arrived at the same (operator, port, tag): the static
    /// one-token-per-arc discipline was violated. This is exactly what goes
    /// wrong when Schema 2 is applied to a cyclic graph without loop
    /// control (§3, discussion of Fig 8).
    TokenCollision {
        /// The operator.
        op: OpId,
        /// The input port.
        port: usize,
        /// Rendered tag.
        tag: String,
    },
    /// A loop-control operator received a token whose tag does not belong
    /// to its loop (translation bug).
    TagMismatch {
        /// The operator.
        op: OpId,
        /// What was wrong.
        detail: String,
    },
    /// A memory fault (bounds, I-structure rewrite).
    Memory(MemError),
    /// The run finished with tokens unprocessed but no failure recorded —
    /// an executor invariant violation. Debug builds assert before this
    /// can be returned; release builds report it instead of silently
    /// dropping tokens.
    TokenLeak {
        /// Tokens left in run queues when the workers exited.
        leftover: u64,
    },
    /// A worker thread panicked mid-run (an operator implementation — or
    /// an injected fault, see [`crate::chaos`] — unwound). The pool is
    /// halted and drained before this is returned; the host process never
    /// aborts and the pool stays usable.
    WorkerPanicked {
        /// Index of the panicking worker, or `usize::MAX` if the panic
        /// escaped the worker body and was only caught at the pool
        /// boundary.
        worker: usize,
        /// The panic payload, rendered (non-string payloads are
        /// summarized).
        payload: String,
    },
    /// The tag (iteration-context) interner is full: a loop nest created
    /// more distinct iteration contexts than the tag space can name.
    TagSpaceExhausted {
        /// Maximum representable tag id of the interner that overflowed.
        cap: u32,
        /// The multiplexed invocation (request id) whose reserved tag
        /// slice overflowed, when the run was admitted through
        /// [`crate::serve::serve`]; `None` for solo runs, whose interner
        /// owns the whole tag space.
        invocation: Option<u64>,
    },
    /// The wall-clock watchdog expired before the run completed or
    /// failed: the executor exceeded its time bound without reaching a
    /// verdict.
    WatchdogTimeout {
        /// The configured bound, in milliseconds.
        millis: u64,
    },
    /// The graph is not executable (e.g. it has no unique `Start`): the
    /// executor refused to seed it. Graphs from the translators always
    /// pass [`cf2df_dfg::validate()`]; this arises only for hand-built or
    /// externally loaded graphs.
    InvalidGraph {
        /// What structural property failed.
        detail: String,
    },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Deadlock { pending } => {
                write!(f, "deadlock; blocked: {}", pending.join(", "))
            }
            MachineError::FuelExhausted => write!(f, "fuel exhausted"),
            MachineError::TokenCollision { op, port, tag } => {
                write!(f, "token collision at {op:?} port {port} tag {tag}")
            }
            MachineError::TagMismatch { op, detail } => {
                write!(f, "tag mismatch at {op:?}: {detail}")
            }
            MachineError::Memory(e) => write!(f, "memory fault: {e}"),
            MachineError::TokenLeak { leftover } => write!(
                f,
                "executor invariant violation: {leftover} tokens left unprocessed \
                 without a recorded error"
            ),
            MachineError::WorkerPanicked { worker, payload } => {
                if *worker == usize::MAX {
                    write!(f, "worker panicked: {payload}")
                } else {
                    write!(f, "worker {worker} panicked: {payload}")
                }
            }
            MachineError::TagSpaceExhausted { cap, invocation } => match invocation {
                Some(req) => write!(f, "tag space exhausted (cap {cap}) in invocation {req}"),
                None => write!(f, "tag space exhausted (cap {cap})"),
            },
            MachineError::WatchdogTimeout { millis } => {
                write!(f, "watchdog expired after {millis} ms")
            }
            MachineError::InvalidGraph { detail } => {
                write!(f, "graph is not executable: {detail}")
            }
        }
    }
}

impl std::error::Error for MachineError {}

impl From<MemError> for MachineError {
    fn from(e: MemError) -> Self {
        MachineError::Memory(e)
    }
}

/// The result of a successful run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Final ordinary memory, indexed by absolute cell address.
    pub memory: Vec<i64>,
    /// Final I-structure memory (empty cells read as 0).
    pub ist_memory: Vec<i64>,
    /// Execution metrics.
    pub stats: ExecStats,
}

#[derive(Clone, Copy, Debug)]
struct Token {
    to: Port,
    tag: TagId,
    value: i64,
}

/// A queued firing. Its input values stay inline for operators with at
/// most [`crate::compiled::INLINE_VALS`] ports (every fixed-arity kind,
/// and every hot kind the allocation audit covers); wide `End`/`Synch`
/// fan-ins spill to the heap.
#[derive(Debug)]
struct Firing {
    op: OpId,
    tag: TagId,
    inputs: FireVals,
}

/// Compile-time switch for firing-trace collection. `run` instantiates
/// the simulator with [`NoTrace`] (a zero-sized no-op), `run_traced` with
/// a real [`crate::trace::Trace`]; the type system guarantees a traced
/// run always has its trace — there is no `Option` to unwrap and no
/// "tracing enabled" invariant to assert at runtime.
trait TraceSink {
    /// Whether events are recorded; `false` lets untraced runs skip even
    /// rendering the tag string.
    const ENABLED: bool;
    /// Record one firing.
    fn record(&mut self, time: u64, op: OpId, tag: String);
}

/// The sink for untraced runs: records nothing, costs nothing.
struct NoTrace;

impl TraceSink for NoTrace {
    const ENABLED: bool = false;
    #[inline]
    fn record(&mut self, _time: u64, _op: OpId, _tag: String) {}
}

impl TraceSink for crate::trace::Trace {
    const ENABLED: bool = true;
    fn record(&mut self, time: u64, op: OpId, tag: String) {
        self.events.push(crate::trace::TraceEvent {
            time,
            worker: 0,
            op,
            tag,
        });
    }
}

struct Sim<'g, S: TraceSink> {
    cg: &'g CompiledGraph,
    layout: &'g MemLayout,
    cfgc: MachineConfig,
    events: BTreeMap<u64, Vec<Token>>,
    ready: VecDeque<Firing>,
    /// The waiting-matching store, keyed by the packed (op, tag) word.
    slots: SlotTable,
    /// Tokens waiting for a free rendezvous slot (finite frame capacity).
    throttled: VecDeque<Token>,
    tags: TagTable,
    mem: Memory<(OpId, TagId)>,
    stats: ExecStats,
    halted: bool,
    /// Timestamp the current firing's outputs are delivered at — set by
    /// [`Sim::fire`] before entering the shared kernel, read by
    /// [`Engine::emit`].
    emit_at: u64,
    trace: S,
}

/// Execute a dataflow graph to completion (compiling it first; callers
/// that run one graph repeatedly should [`compile`] once and use
/// [`run_compiled`]).
pub fn run(g: &Dfg, layout: &MemLayout, config: MachineConfig) -> Result<Outcome, MachineError> {
    let cg = compile(g)?;
    run_compiled(&cg, layout, config)
}

/// Execute an already-compiled dataflow graph to completion.
pub fn run_compiled(
    cg: &CompiledGraph,
    layout: &MemLayout,
    config: MachineConfig,
) -> Result<Outcome, MachineError> {
    let mut sim = Sim::new(cg, layout, config, NoTrace);
    sim.seed();
    sim.main_loop()?;
    Ok(sim.finish().0)
}

/// As [`run`], additionally recording a [`crate::trace::Trace`] of every
/// firing.
pub fn run_traced(
    g: &Dfg,
    layout: &MemLayout,
    config: MachineConfig,
) -> Result<(Outcome, crate::trace::Trace), MachineError> {
    let cg = compile(g)?;
    let mut sim = Sim::new(&cg, layout, config, crate::trace::Trace::default());
    sim.seed();
    sim.main_loop()?;
    Ok(sim.finish())
}

impl<'g, S: TraceSink> Sim<'g, S> {
    fn new(
        cg: &'g CompiledGraph,
        layout: &'g MemLayout,
        config: MachineConfig,
        sink: S,
    ) -> Sim<'g, S> {
        Sim {
            cg,
            layout,
            events: BTreeMap::new(),
            ready: VecDeque::new(),
            slots: SlotTable::default(),
            throttled: VecDeque::new(),
            tags: TagTable::new(),
            mem: Memory::new(layout),
            stats: ExecStats::default(),
            cfgc: config,
            halted: false,
            emit_at: 0,
            trace: sink,
        }
    }

    fn seed(&mut self) {
        // clone() audit: the seed fan-out used to clone the Start op's
        // destination vector; the compiled CSR slice is borrowed directly.
        let cg = self.cg;
        let initial = self.events.entry(0).or_default();
        for &to in cg.dests(cg.start(), 0) {
            initial.push(Token {
                to,
                tag: TagId::ROOT,
                value: 0,
            });
        }
    }

    fn main_loop(&mut self) -> Result<(), MachineError> {
        let mut now = 0u64;
        loop {
            if let Some(tokens) = self.events.remove(&now) {
                for t in tokens {
                    self.deposit(t)?;
                }
            }
            // Retry throttled tokens: completed slots may have freed
            // capacity. (Re-depositing may throttle them again.)
            if !self.throttled.is_empty() {
                let parked: Vec<Token> = self.throttled.drain(..).collect();
                for t in parked {
                    self.deposit(t)?;
                }
            }
            let budget = self.cfgc.processors.unwrap_or(usize::MAX);
            let n = self.ready.len().min(budget);
            for _ in 0..n {
                // `n` was counted from `ready` above and firing only ever
                // pushes, but pop defensively rather than unwrap: an
                // early-empty queue ends the step instead of aborting.
                let popped = if self.cfgc.lifo {
                    self.ready.pop_back()
                } else {
                    self.ready.pop_front()
                };
                let Some(f) = popped else { break };
                self.fire(f, now)?;
                if self.halted {
                    break;
                }
            }
            if (now as usize) < PROFILE_CAP {
                let idx = now as usize;
                if self.stats.profile.len() <= idx {
                    self.stats.profile.resize(idx + 1, 0);
                }
                self.stats.profile[idx] = n as u32;
            }
            self.stats.max_parallelism = self.stats.max_parallelism.max(n as u32);
            if self.halted {
                self.stats.makespan = now;
                return Ok(());
            }
            if self.stats.fired > self.cfgc.fuel {
                return Err(MachineError::FuelExhausted);
            }
            if !self.ready.is_empty() {
                now += 1;
            } else if let Some(&t) = self.events.keys().next() {
                debug_assert!(t > now);
                now = t;
            } else {
                let mut pending = self.describe_pending();
                if !self.throttled.is_empty() {
                    pending.insert(
                        0,
                        format!(
                            "frame-store deadlock: {} tokens throttled at capacity {:?}",
                            self.throttled.len(),
                            self.cfgc.frame_capacity
                        ),
                    );
                }
                return Err(MachineError::Deadlock { pending });
            }
        }
    }

    /// The deadlock report: the line of every partially filled slot,
    /// sorted, the first 10.
    fn describe_pending(&mut self) -> Vec<String> {
        let mut pending = Vec::new();
        let tags = &self.tags;
        self.slots.purge(
            self.cg,
            TagSplit::NONE,
            0,
            &mut pending,
            usize::MAX,
            |tag| tags.render(tag),
        );
        pending.sort();
        pending.truncate(10);
        pending
    }

    /// Route one delivered token by the shared arrival rule: it fires its
    /// operator, joins its rendezvous slot, or — when opening a slot
    /// would pass the frame capacity — waits in `throttled`, to be routed
    /// again from scratch (a loop-switch's retag is deterministic).
    fn deposit(&mut self, t: Token) -> Result<(), MachineError> {
        let cg = self.cg;
        let j = match arrive(cg, self, t.to, t.tag, t.value)? {
            Arrival::Fire => {
                self.ready.push_back(Firing {
                    op: t.to.op,
                    tag: t.tag,
                    inputs: FireVals::now(cg, t.to, t.value),
                });
                return Ok(());
            }
            Arrival::Join(j) => j,
        };
        let k = key_inv(j.to.op, TagSplit::NONE, 0, j.tag);
        if let Some(cap) = self.cfgc.frame_capacity {
            if self.slots.is_full_for(k, cap) {
                self.throttled.push_back(t);
                return Ok(());
            }
        }
        let tags = &self.tags;
        if let Joined::Fire(vals) = self.slots.join(cg, k, &j, |tag| tags.render(tag))? {
            self.ready.push_back(Firing {
                op: j.to.op,
                tag: j.tag,
                inputs: vals,
            });
        }
        Ok(())
    }

    fn fire(&mut self, f: Firing, now: u64) -> Result<(), MachineError> {
        self.stats.fired += 1;
        if S::ENABLED {
            let tag = self.tags.render(f.tag);
            self.trace.record(now, f.op, tag);
        }
        // clone() audit: the per-firing `g.kind(op).clone()` is gone —
        // the descriptor is a 24-byte Copy and the semantics live in the
        // shared kernel.
        let cg = self.cg;
        let desc = cg.desc(f.op);
        let lat = if desc.is_memory() {
            self.cfgc.mem_latency
        } else {
            self.cfgc.op_latency
        };
        self.emit_at = now + lat;
        fire_op(cg, f.op, f.tag, f.inputs.as_fire(), self)
    }

    fn finish(mut self) -> (Outcome, S) {
        let in_flight: u64 = self.events.values().map(|v| v.len() as u64).sum();
        self.stats.leftover_tokens =
            in_flight + self.slots.tokens() + self.ready.len() as u64 + self.throttled.len() as u64;
        self.stats.max_pending_slots = self.slots.high_water();
        self.stats.mem_reads = self.mem.reads();
        self.stats.mem_writes = self.mem.writes();
        self.stats.tags_created = self.tags.len() as u64 - 1;
        (
            Outcome {
                memory: self.mem.cells().to_vec(),
                ist_memory: self.mem.ist_cells(),
                stats: self.stats,
            },
            self.trace,
        )
    }
}

/// The simulator's backend effects for the shared firing kernel: token
/// emission is timestamped event-queue insertion at
/// [`Sim::emit_at`].
impl<S: TraceSink> Engine for Sim<'_, S> {
    #[inline]
    fn emit(&mut self, op: OpId, out_port: usize, value: i64, tag: TagId) {
        let cg = self.cg;
        let at = self.emit_at;
        let bucket = self.events.entry(at).or_default();
        for &to in cg.dests(op, out_port) {
            bucket.push(Token { to, tag, value });
        }
    }

    #[inline]
    fn halt(&mut self) {
        self.halted = true;
    }

    /// Interner overflow is the typed
    /// [`MachineError::TagSpaceExhausted`], not a panic.
    fn tag_child(
        &mut self,
        parent: TagId,
        loop_id: LoopId,
        iter: u32,
    ) -> Result<TagId, MachineError> {
        self.tags
            .child(parent, loop_id, iter)
            .ok_or(MachineError::TagSpaceExhausted {
                cap: u32::MAX,
                invocation: None,
            })
    }

    fn tag_info(&self, tag: TagId) -> Option<(TagId, LoopId, u32)> {
        self.tags.info(tag)
    }

    fn read_scalar(&mut self, var: VarId) -> i64 {
        self.mem.read_scalar(self.layout, var)
    }

    fn write_scalar(&mut self, var: VarId, value: i64) {
        self.mem.write_scalar(self.layout, var, value)
    }

    fn read_element(&mut self, var: VarId, index: i64) -> Result<i64, MemError> {
        self.mem.read_element(self.layout, var, index)
    }

    fn write_element(&mut self, var: VarId, index: i64, value: i64) -> Result<(), MemError> {
        self.mem.write_element(self.layout, var, index, value)
    }

    fn ist_read(
        &mut self,
        var: VarId,
        index: i64,
        op: OpId,
        tag: TagId,
    ) -> Result<Option<i64>, MemError> {
        match self.mem.ist_read(self.layout, var, index, (op, tag))? {
            Some(v) => Ok(Some(v)),
            None => {
                self.stats.deferred_reads += 1;
                Ok(None)
            }
        }
    }

    fn ist_write(
        &mut self,
        var: VarId,
        index: i64,
        value: i64,
    ) -> Result<Vec<DeferredRead<(OpId, TagId)>>, MemError> {
        self.mem.ist_write(self.layout, var, index, value)
    }

    fn macro_fired(&mut self, elided: u64) {
        self.stats.macro_fires += 1;
        self.stats.ops_elided += elided;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::{BinOp, LoopId, VarId, VarTable};
    use cf2df_dfg::graph::ArcKind;
    use cf2df_dfg::OpKind;

    fn layout_xy() -> MemLayout {
        let mut t = VarTable::new();
        t.scalar("x");
        t.scalar("y");
        MemLayout::distinct(&t)
    }

    /// start → load x → +1 → store x → end.
    fn increment_graph() -> Dfg {
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
        g
    }

    #[test]
    fn straight_line_executes() {
        let layout = layout_xy();
        let g = increment_graph();
        let out = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(out.memory[0], 1);
        // load, add, store, end
        assert_eq!(out.stats.fired, 4);
        assert_eq!(out.stats.mem_reads, 1);
        assert_eq!(out.stats.mem_writes, 1);
        assert_eq!(out.stats.leftover_tokens, 0);
        // load(t0, resp t1) → add issues t1 → t2 → store t2..t3 → end t3.
        assert_eq!(out.stats.makespan, 3);
    }

    #[test]
    fn compiled_graph_is_reusable_across_runs() {
        let layout = layout_xy();
        let g = increment_graph();
        let cg = compile(&g).unwrap();
        let a = run_compiled(&cg, &layout, MachineConfig::unbounded()).unwrap();
        let b = run_compiled(&cg, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.stats.fired, b.stats.fired);
        assert_eq!(a.stats.makespan, b.stats.makespan);
    }

    #[test]
    fn memory_latency_stretches_makespan() {
        let layout = layout_xy();
        let g = increment_graph();
        let out = run(&g, &layout, MachineConfig::unbounded().mem_latency(10)).unwrap();
        // load 10 + add 1 + store 10 = 21; end fires at 21.
        assert_eq!(out.stats.makespan, 21);
    }

    #[test]
    fn switch_routes_by_predicate() {
        // start token → switch (pred imm 0) → false side stores 7 to y.
        let layout = layout_xy();
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let sw = g.add(OpKind::Switch);
        g.set_imm(sw, 1, 0);
        let st_t = g.add(OpKind::Store { var: VarId(0) });
        g.set_imm(st_t, 0, 5);
        let st_f = g.add(OpKind::Store { var: VarId(1) });
        g.set_imm(st_f, 0, 7);
        let m = g.add(OpKind::Merge);
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(sw, 0), ArcKind::Access);
        g.connect(Port::new(sw, 0), Port::new(st_t, 1), ArcKind::Access);
        g.connect(Port::new(sw, 1), Port::new(st_f, 1), ArcKind::Access);
        g.connect(Port::new(st_t, 0), Port::new(m, 0), ArcKind::Access);
        g.connect(Port::new(st_f, 0), Port::new(m, 0), ArcKind::Access);
        g.connect(Port::new(m, 0), Port::new(e, 0), ArcKind::Access);
        let out = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(out.memory, vec![0, 7], "only the false arm ran");
    }

    #[test]
    fn synch_waits_for_all_inputs() {
        let layout = layout_xy();
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let slow = g.add(OpKind::Store { var: VarId(0) }); // mem op: slower
        g.set_imm(slow, 0, 1);
        let sy = g.add(OpKind::Synch { inputs: 2 });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(slow, 1), ArcKind::Access);
        g.connect(Port::new(s, 0), Port::new(sy, 0), ArcKind::Access);
        g.connect(Port::new(slow, 0), Port::new(sy, 1), ArcKind::Access);
        g.connect(Port::new(sy, 0), Port::new(e, 0), ArcKind::Access);
        let out = run(&g, &layout, MachineConfig::unbounded().mem_latency(7)).unwrap();
        // synch fires when the store's 7-cycle response arrives; End
        // receives the synch output one op-latency later.
        assert_eq!(out.stats.makespan, 7 + 1);
    }

    #[test]
    fn finite_processors_serialize() {
        // Two independent chains of one store each: unbounded finishes in
        // one memory round; P=1 needs two issue slots.
        let layout = layout_xy();
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let st1 = g.add(OpKind::Store { var: VarId(0) });
        g.set_imm(st1, 0, 1);
        let st2 = g.add(OpKind::Store { var: VarId(1) });
        g.set_imm(st2, 0, 2);
        let e = g.add(OpKind::End { inputs: 2 });
        g.connect(Port::new(s, 0), Port::new(st1, 1), ArcKind::Access);
        g.connect(Port::new(s, 0), Port::new(st2, 1), ArcKind::Access);
        g.connect(Port::new(st1, 0), Port::new(e, 0), ArcKind::Access);
        g.connect(Port::new(st2, 0), Port::new(e, 1), ArcKind::Access);

        let wide = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        let narrow = run(&g, &layout, MachineConfig::with_processors(1)).unwrap();
        assert_eq!(wide.memory, narrow.memory);
        assert!(narrow.stats.makespan > wide.stats.makespan);
        assert_eq!(wide.stats.max_parallelism, 2);
        assert_eq!(narrow.stats.max_parallelism, 1);
    }

    #[test]
    fn collision_detected_and_fatal() {
        // Two tokens race to the same port of a 2-input synch under the
        // same tag.
        let layout = layout_xy();
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let id1 = g.add(OpKind::Identity);
        let id2 = g.add(OpKind::Identity);
        let sy = g.add(OpKind::Synch { inputs: 2 });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(id1, 0), ArcKind::Access);
        g.connect(Port::new(s, 0), Port::new(id2, 0), ArcKind::Access);
        // Both identities feed synch port 0 (port 1 never fed): collision.
        g.connect(Port::new(id1, 0), Port::new(sy, 0), ArcKind::Access);
        g.connect(Port::new(id2, 0), Port::new(sy, 0), ArcKind::Access);
        g.connect(Port::new(sy, 0), Port::new(e, 0), ArcKind::Access);
        let err = run(&g, &layout, MachineConfig::unbounded()).unwrap_err();
        assert!(matches!(err, MachineError::TokenCollision { port: 0, .. }));
    }

    #[test]
    fn deadlock_reports_pending_slots() {
        let layout = layout_xy();
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let sy = g.add(OpKind::Synch { inputs: 2 });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(sy, 0), ArcKind::Access);
        // synch port 1 never receives: deadlock.
        g.connect(Port::new(sy, 0), Port::new(e, 0), ArcKind::Access);
        let err = run(&g, &layout, MachineConfig::unbounded()).unwrap_err();
        let MachineError::Deadlock { pending } = err else {
            panic!("expected deadlock")
        };
        assert_eq!(pending.len(), 1);
        assert!(pending[0].contains("synch2"));
    }

    #[test]
    fn loop_entry_and_exit_manage_tags() {
        // start → LE →(body: add imm)→ switch(pred: IterIndex < 3)
        //   true → back to LE; false → LX → store → end.
        // The body increments a value carried on the token: 3 iterations.
        let layout = layout_xy();
        let l0 = LoopId(0);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let le = g.add(OpKind::LoopEntry { loop_id: l0 });
        let add = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(add, 1, 1);
        let ix = g.add(OpKind::IterIndex { loop_id: l0 });
        let lt = g.add(OpKind::Binary { op: BinOp::Lt });
        g.set_imm(lt, 1, 3);
        let sw = g.add(OpKind::Switch);
        let lx = g.add(OpKind::LoopExit { loop_id: l0 });
        let st = g.add(OpKind::Store { var: VarId(0) });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(le, 0), ArcKind::Value);
        g.connect(Port::new(le, 0), Port::new(add, 0), ArcKind::Value);
        g.connect(Port::new(le, 0), Port::new(ix, 0), ArcKind::Value);
        g.connect(Port::new(ix, 0), Port::new(lt, 0), ArcKind::Value);
        g.connect(Port::new(add, 0), Port::new(sw, 0), ArcKind::Value);
        g.connect(Port::new(lt, 0), Port::new(sw, 1), ArcKind::Value);
        g.connect(Port::new(sw, 0), Port::new(le, 1), ArcKind::Value);
        g.connect(Port::new(sw, 1), Port::new(lx, 0), ArcKind::Value);
        g.connect(Port::new(lx, 0), Port::new(st, 0), ArcKind::Value);
        g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);
        // Store needs its access token too: reuse start.
        g.connect(Port::new(s, 0), Port::new(st, 1), ArcKind::Access);
        let out = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        // Iterations 0,1,2 loop back (index<3), iteration 3 exits: value
        // incremented 4 times.
        assert_eq!(out.memory[0], 4);
        assert_eq!(out.stats.tags_created, 4);
        assert_eq!(out.stats.leftover_tokens, 0);
    }

    #[test]
    fn istructure_deferred_then_released() {
        let mut t = VarTable::new();
        let a = t.array("a", 2);
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        // ist-load a[0] triggered by start (index = token value 0).
        let rd = g.add(OpKind::IstLoad { var: a });
        // ist-store a[0] := 99 after a 2-identity delay chain.
        let d1 = g.add(OpKind::Identity);
        let d2 = g.add(OpKind::Identity);
        let wr = g.add(OpKind::IstStore { var: a });
        g.set_imm(wr, 1, 99);
        // The loaded value lands in x (scalar var would be needed; store to
        // a's base via a 1-element view is fine: use StoreIdx a[1]).
        let st = g.add(OpKind::StoreIdx { var: a });
        g.set_imm(st, 0, 1);
        let e = g.add(OpKind::End { inputs: 2 });
        g.connect(Port::new(s, 0), Port::new(rd, 0), ArcKind::Value);
        g.connect(Port::new(s, 0), Port::new(d1, 0), ArcKind::Value);
        g.connect(Port::new(d1, 0), Port::new(d2, 0), ArcKind::Value);
        g.connect(Port::new(d2, 0), Port::new(wr, 0), ArcKind::Value);
        g.connect(Port::new(rd, 0), Port::new(st, 1), ArcKind::Value);
        g.connect(Port::new(s, 0), Port::new(st, 2), ArcKind::Access);
        g.connect(Port::new(wr, 0), Port::new(e, 0), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(e, 1), ArcKind::Access);
        let out = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(out.stats.deferred_reads, 1, "read arrived before write");
        assert_eq!(out.ist_memory[0], 99);
        assert_eq!(out.memory[1], 99, "deferred read's value was delivered");
    }

    #[test]
    fn fuel_exhaustion_detected() {
        // An unbounded generator: identity loop through a merge.
        let layout = layout_xy();
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let m = g.add(OpKind::Merge);
        let id = g.add(OpKind::Identity);
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(m, 0), ArcKind::Value);
        g.connect(Port::new(m, 0), Port::new(id, 0), ArcKind::Value);
        g.connect(Port::new(id, 0), Port::new(m, 0), ArcKind::Value);
        // End fed from a second start arc would halt; starve it instead.
        let id2 = g.add(OpKind::Identity);
        g.connect(Port::new(id2, 0), Port::new(e, 0), ArcKind::Value);
        let mut cfgc = MachineConfig::unbounded();
        cfgc.fuel = 1000;
        let err = run(&g, &layout, cfgc).unwrap_err();
        assert_eq!(err, MachineError::FuelExhausted);
    }

    /// A slot's immediates are not tokens: a three-input synch holding
    /// the start token on port 0 and an immediate on port 2, whose port 1
    /// is never fed, leaves one token behind when `End` fires. Fed to
    /// `End` instead, it deadlocks, and both backends report the slot
    /// with every port that holds a value, the immediate's too.
    #[test]
    fn leftover_tokens_leave_immediates_out() {
        let layout = layout_xy();
        let build = |synch_to_end: bool| {
            let mut g = Dfg::new();
            let s = g.add(OpKind::Start);
            let starved = g.add(OpKind::Identity);
            let sy = g.add(OpKind::Synch { inputs: 3 });
            g.set_imm(sy, 2, 0);
            let e = g.add(OpKind::End { inputs: 1 });
            g.connect(Port::new(s, 0), Port::new(sy, 0), ArcKind::Access);
            g.connect(Port::new(starved, 0), Port::new(sy, 1), ArcKind::Access);
            let to_end = if synch_to_end { sy } else { s };
            g.connect(Port::new(to_end, 0), Port::new(e, 0), ArcKind::Access);
            g
        };
        let out = run(&build(false), &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(out.stats.leftover_tokens, 1);

        let stuck = build(true);
        let sim = run(&stuck, &layout, MachineConfig::unbounded()).unwrap_err();
        for err in [
            sim,
            crate::parallel::run_threaded(&stuck, &layout, 2).unwrap_err(),
        ] {
            let MachineError::Deadlock { pending } = err else {
                panic!("expected deadlock, got {err:?}")
            };
            assert_eq!(pending.len(), 1, "{pending:?}");
            assert!(pending[0].contains("filled ports [0, 2]"), "{pending:?}");
        }
    }

    #[test]
    fn prev_iter_retags_backwards() {
        // Enter a loop at iteration 0 and 1; a token from iteration 1 is
        // retagged to iteration 0 and rendezvouses with iteration 0's token.
        let layout = layout_xy();
        let l0 = LoopId(0);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let le = g.add(OpKind::LoopEntry { loop_id: l0 });
        let ix = g.add(OpKind::IterIndex { loop_id: l0 });
        let lt = g.add(OpKind::Binary { op: BinOp::Lt });
        g.set_imm(lt, 1, 1);
        let sw = g.add(OpKind::Switch);
        let pi = g.add(OpKind::PrevIter { loop_id: l0 });
        let sy = g.add(OpKind::Synch { inputs: 2 });
        let lx = g.add(OpKind::LoopExit { loop_id: l0 });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(le, 0), ArcKind::Value);
        g.connect(Port::new(le, 0), Port::new(ix, 0), ArcKind::Value);
        g.connect(Port::new(ix, 0), Port::new(lt, 0), ArcKind::Value);
        g.connect(Port::new(ix, 0), Port::new(sw, 0), ArcKind::Value);
        g.connect(Port::new(lt, 0), Port::new(sw, 1), ArcKind::Value);
        // iter 0: lt true → back into loop as iter 1.
        g.connect(Port::new(sw, 0), Port::new(le, 1), ArcKind::Value);
        // iter 1: lt false → retag to iter 0 via prev-iter.
        g.connect(Port::new(sw, 1), Port::new(pi, 0), ArcKind::Value);
        // iter 0's second token line: the index value also goes to sy.0;
        // prev-iter's output (tagged iter 0) joins at sy.1.
        g.connect(Port::new(le, 0), Port::new(sy, 0), ArcKind::Value);
        g.connect(Port::new(pi, 0), Port::new(sy, 1), ArcKind::Value);
        g.connect(Port::new(sy, 0), Port::new(lx, 0), ArcKind::Value);
        g.connect(Port::new(lx, 0), Port::new(e, 0), ArcKind::Value);
        let out = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        // sy fired for iteration 0 (its port 1 fed by prev-iter from iter 1);
        // iteration 1's sy slot still holds one token → leftover 1.
        assert_eq!(out.stats.leftover_tokens, 1);
    }

    #[test]
    fn tag_mismatch_is_reported() {
        let layout = layout_xy();
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let lx = g.add(OpKind::LoopExit { loop_id: LoopId(0) });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(lx, 0), ArcKind::Value);
        g.connect(Port::new(lx, 0), Port::new(e, 0), ArcKind::Value);
        // Root-tagged token hits loop-exit: mismatch.
        let err = run(&g, &layout, MachineConfig::unbounded()).unwrap_err();
        assert!(matches!(err, MachineError::TagMismatch { .. }));
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let mut t = VarTable::new();
        let a = t.array("a", 2);
        let layout = MemLayout::distinct(&t);
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let st = g.add(OpKind::StoreIdx { var: a });
        g.set_imm(st, 0, 5); // index 5 out of bounds
        g.set_imm(st, 1, 1);
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(st, 2), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);
        let err = run(&g, &layout, MachineConfig::unbounded()).unwrap_err();
        assert!(matches!(
            err,
            MachineError::Memory(MemError::OutOfBounds { index: 5, .. })
        ));
    }

    #[test]
    fn frame_capacity_limits_concurrent_rendezvous() {
        // Two independent 2-input synchs whose inputs arrive staggered:
        // with capacity 1 the second slot overflows; with 2 it runs.
        let layout = layout_xy();
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let slow1 = g.add(OpKind::Store { var: VarId(0) });
        g.set_imm(slow1, 0, 1);
        let slow2 = g.add(OpKind::Store { var: VarId(1) });
        g.set_imm(slow2, 0, 2);
        let sy1 = g.add(OpKind::Synch { inputs: 2 });
        let sy2 = g.add(OpKind::Synch { inputs: 2 });
        let e = g.add(OpKind::End { inputs: 2 });
        g.connect(Port::new(s, 0), Port::new(sy1, 0), ArcKind::Access);
        g.connect(Port::new(s, 0), Port::new(sy2, 0), ArcKind::Access);
        g.connect(Port::new(s, 0), Port::new(slow1, 1), ArcKind::Access);
        g.connect(Port::new(s, 0), Port::new(slow2, 1), ArcKind::Access);
        g.connect(Port::new(slow1, 0), Port::new(sy1, 1), ArcKind::Access);
        g.connect(Port::new(slow2, 0), Port::new(sy2, 1), ArcKind::Access);
        g.connect(Port::new(sy1, 0), Port::new(e, 0), ArcKind::Access);
        g.connect(Port::new(sy2, 0), Port::new(e, 1), ArcKind::Access);

        let wide = run(&g, &layout, MachineConfig::unbounded().mem_latency(5)).unwrap();
        assert!(wide.stats.max_pending_slots >= 2);
        // Throttled to one slot at a time: still completes (slots drain in
        // turn), but the high-water mark respects the capacity.
        let narrow = run(
            &g,
            &layout,
            MachineConfig::unbounded().mem_latency(5).frame_capacity(1),
        )
        .unwrap();
        assert_eq!(narrow.memory, wide.memory);
        assert!(narrow.stats.max_pending_slots <= 1);
        assert!(narrow.stats.makespan >= wide.stats.makespan);
    }

    #[test]
    fn profile_records_issue_widths() {
        let layout = layout_xy();
        let g = increment_graph();
        let out = run(&g, &layout, MachineConfig::unbounded()).unwrap();
        assert_eq!(out.stats.profile.iter().map(|&x| x as u64).sum::<u64>(), 4);
        assert!(out.stats.max_parallelism >= 1);
    }
}
