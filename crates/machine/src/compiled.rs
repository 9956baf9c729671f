//! The compiled runtime representation of a dataflow program.
//!
//! The `Dfg` is a *builder* structure: growable vectors of nodes and
//! arcs, `OpKind`s that own heap payloads (`Macro` carries its
//! micro-program as a `Vec<MacroStep>`), adjacency only derivable by
//! scanning the arc list. Both backends used to interpret it directly,
//! which meant cloning an `OpKind` per firing, rebuilding nested
//! `Vec<Vec<Vec<Port>>>` destination tables per run, and duplicating the
//! operator semantics between the simulator and the threaded executor.
//!
//! [`compile`] freezes a certified (and possibly fused) graph into an
//! immutable [`CompiledGraph`]:
//!
//! * a dense table of `Copy` per-operator descriptors ([`OpDesc`]:
//!   kind tag, arities, live-input count, classification flags,
//!   immediate/destination bases) — nothing is cloned per firing;
//! * CSR-style destination slices: one flat `Vec<Port>` plus two index
//!   arrays, so `dests(op, out_port)` is two array reads and a slice,
//!   and the per-port arc order of the builder graph is preserved
//!   exactly (the simulator's determinism depends on it);
//! * flat side arrays for immediates and macro micro-programs, indexed
//!   by ranges stored in the descriptors;
//! * the packed rendezvous key ([`key`]) both backends use for their
//!   waiting-matching stores, hashed with [`crate::hash::FxHasher`].
//!
//! The operator semantics live here too, once: [`fire_op`] is the single
//! firing kernel, generic over an [`Engine`] that supplies the backend
//! effects (token emission, tag interning, memory). The simulator and
//! the threaded executor are both `Engine`s; neither has a per-`OpKind`
//! match of its own.
//!
//! A `CompiledGraph` is a snapshot: it holds no reference to the `Dfg`
//! it was lowered from, and any mutation of that `Dfg` after lowering
//! (adding ops or arcs, changing immediates, re-kinding, fusing) is
//! simply not reflected — re-[`compile`] to pick it up. Compiling is one
//! linear pass, cheap enough to do per run; reuse pays off when one
//! graph runs many times ([`crate::parallel::run_threaded_compiled_pooled_with`],
//! the bench suites).

use crate::exec::MachineError;
use crate::memory::{DeferredRead, MemError};
use crate::tag::TagId;
use cf2df_cfg::{BinOp, LoopId, UnOp, VarId};
use cf2df_dfg::{macro_eval, Dfg, MacroStep, OpId, OpKind, Port};

/// Inline capacity of the executors' firing-value buffers and rendezvous
/// slots. Operators with at most this many input ports never touch the
/// heap on the deposit→fire path; wider ones (big `Synch`/`End` fan-ins,
/// extreme `Macro` chains) spill to a boxed slot. The
/// machine-laws test asserts no hot-kind operator in the corpus exceeds
/// it.
pub const INLINE_VALS: usize = 16;

/// A range into one of the [`CompiledGraph`]'s flat side arrays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepRange {
    start: u32,
    len: u32,
}

impl StepRange {
    /// Number of steps in the range.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True when the range is empty (never produced by [`compile`]:
    /// a fused macro always has at least one step).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// The `Copy` mirror of [`OpKind`]: same variants, but heap payloads
/// replaced by ranges into the compiled graph's flat arrays, and
/// arity payloads (`End`/`Synch`/`Macro` input counts, which
/// [`OpDesc::n_inputs`] already carries) dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CKind {
    /// The unique source; never fires.
    Start,
    /// The unique sink; firing halts the run.
    End,
    /// Unary arithmetic/logic.
    Unary(UnOp),
    /// Binary arithmetic/logic.
    Binary(BinOp),
    /// Two-way steer by predicate.
    Switch,
    /// Multi-way steer; `arms` output ports, the last the default.
    CaseSwitch {
        /// Number of output arms (≥ 2).
        arms: u32,
    },
    /// Forward any arriving token.
    Merge,
    /// n-ary rendezvous emitting one dummy token.
    Synch,
    /// Forward unchanged.
    Identity,
    /// Emit the data input when the trigger arrives.
    Gate,
    /// Scalar load.
    Load(VarId),
    /// Scalar store.
    Store(VarId),
    /// Array-element load.
    LoadIdx(VarId),
    /// Array-element store.
    StoreIdx(VarId),
    /// I-structure read (may defer).
    IstLoad(VarId),
    /// I-structure write (releases deferred reads).
    IstStore(VarId),
    /// Loop-entry retagger.
    LoopEntry(LoopId),
    /// Loop-exit tag stripper.
    LoopExit(LoopId),
    /// Retag to the previous iteration.
    PrevIter(LoopId),
    /// Materialize the iteration index.
    IterIndex(LoopId),
    /// Fused loop-entry/switch compound.
    LoopSwitch(LoopId),
    /// Fused operator chain; the micro-program lives in the compiled
    /// graph's flat step array.
    Macro {
        /// The micro-program's range in [`CompiledGraph::steps`].
        steps: StepRange,
    },
}

/// Dense per-operator descriptor. 24 bytes, `Copy`: everything a firing
/// needs except the flat-array payloads the ranges point into.
#[derive(Clone, Copy, Debug)]
pub struct OpDesc {
    /// The operator kind (heap-free mirror of [`OpKind`]).
    pub kind: CKind,
    /// Number of input ports.
    pub n_inputs: u32,
    /// Number of output ports.
    pub n_outputs: u32,
    /// Number of token-fed (non-immediate) input ports.
    pub live: u32,
    /// Classification bits, see the `flag` constants.
    pub flags: u8,
    /// First slot of this op's immediates in [`CompiledGraph`]'s flat
    /// immediate array (`n_inputs` slots).
    imm_base: u32,
    /// This op's first global out-port index (into `port_start`).
    port_base: u32,
}

/// Flag bits of [`OpDesc::flags`].
pub mod flag {
    /// Merge-like deposit discipline: any single token fires the op
    /// (`Merge`, `LoopEntry`).
    pub const MERGE_LIKE: u8 = 1 << 0;
    /// Eligible for the threaded executor's worker-local two-input
    /// rendezvous fast path.
    pub const FAST_OK: u8 = 1 << 1;
    /// A duplicated token into this op is detectable by the
    /// waiting-matching store (true rendezvous, ≥ 2 live inputs).
    pub const DUP_OK: u8 = 1 << 2;
    /// A memory operation (split-phase latency in the simulator).
    pub const IS_MEMORY: u8 = 1 << 3;
    /// A hot arithmetic kind (`Unary`/`Binary`/`Macro`): the kinds the
    /// zero-per-firing-allocation guarantee is asserted for.
    pub const HOT: u8 = 1 << 4;
}

impl OpDesc {
    /// Merge-like deposit discipline?
    #[inline]
    pub fn merge_like(&self) -> bool {
        self.flags & flag::MERGE_LIKE != 0
    }

    /// Fast-path eligible two-input rendezvous?
    #[inline]
    pub fn fast_ok(&self) -> bool {
        self.flags & flag::FAST_OK != 0
    }

    /// Duplicate-detectable rendezvous?
    #[inline]
    pub fn dup_ok(&self) -> bool {
        self.flags & flag::DUP_OK != 0
    }

    /// Memory operation?
    #[inline]
    pub fn is_memory(&self) -> bool {
        self.flags & flag::IS_MEMORY != 0
    }

    /// Hot arithmetic kind (allocation-audited path)?
    #[inline]
    pub fn is_hot(&self) -> bool {
        self.flags & flag::HOT != 0
    }
}

/// Static footprint of a compiled graph, for `cf2df stats` and the
/// bench artifacts (schema v4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Footprint {
    /// Operator descriptors.
    pub ops: usize,
    /// Total output ports across all operators.
    pub out_ports: usize,
    /// Destination-port slots (arcs).
    pub dest_slots: usize,
    /// Immediate slots (total input ports).
    pub imm_slots: usize,
    /// Flattened macro micro-program steps.
    pub macro_steps: usize,
    /// Total size of the compiled tables, in bytes.
    pub bytes: usize,
}

/// An immutable, dense, backend-shared lowering of a [`Dfg`]. See the
/// module docs for the layout.
#[derive(Clone, Debug)]
pub struct CompiledGraph {
    descs: Vec<OpDesc>,
    /// CSR row starts: global out-port `p`'s destinations are
    /// `dests[port_start[p] .. port_start[p + 1]]`. Length = total out
    /// ports + 1.
    port_start: Vec<u32>,
    /// All destination ports, grouped by (op, out-port), in the builder
    /// graph's arc order within each group.
    dests: Vec<Port>,
    /// Flat immediates, `n_inputs` slots per op at `imm_base`.
    imms: Vec<Option<i64>>,
    /// Flat macro micro-programs.
    macro_steps: Vec<MacroStep>,
    start: OpId,
}

/// Pack a rendezvous key: dense operator index in the high half, tag in
/// the low half. Injective — both ids are 32-bit — so the packed word
/// can replace the `(OpId, TagId)` tuple everywhere tokens rendezvous.
#[inline]
pub fn key(op: OpId, tag: TagId) -> u64 {
    ((op.0 as u64) << 32) | tag.0 as u64
}

/// Unpack a rendezvous key (exact inverse of [`key`]).
#[inline]
pub fn unkey(k: u64) -> (OpId, TagId) {
    (OpId((k >> 32) as u32), TagId(k as u32))
}

/// Pack an invocation-multiplexed rendezvous key: the operator in the
/// high half, and the low half carrying the invocation slot alongside
/// the invocation-local tag under `split`'s reserved layout
/// ([`crate::tag::TagSplit::pack`]). With `TagSplit::NONE` this is
/// exactly [`key`]. Injective as long as the tag respects the split's
/// cap — which the per-invocation interners enforce — so tokens from
/// different inflight invocations of the same graph can never
/// rendezvous with each other.
#[inline]
pub fn key_inv(op: OpId, split: crate::tag::TagSplit, inv: u32, tag: TagId) -> u64 {
    ((op.0 as u64) << 32) | split.pack(inv, tag) as u64
}

/// Unpack an invocation-multiplexed rendezvous key (exact inverse of
/// [`key_inv`] for the same `split`).
#[inline]
pub fn unkey_inv(k: u64, split: crate::tag::TagSplit) -> (OpId, u32, TagId) {
    let (inv, tag) = split.unpack(k as u32);
    (OpId((k >> 32) as u32), inv, tag)
}

/// Lower a graph into its compiled form. Fails (like seeding used to)
/// when the graph has no unique `Start`.
pub fn compile(g: &Dfg) -> Result<CompiledGraph, MachineError> {
    let start = g.start().map_err(|e| MachineError::InvalidGraph {
        detail: e.to_string(),
    })?;
    let oversize = |what: &str| MachineError::InvalidGraph {
        detail: format!("{what} exceeds the compiled graph's 32-bit index space"),
    };

    let mut descs: Vec<OpDesc> = Vec::with_capacity(g.len());
    let mut imms: Vec<Option<i64>> = Vec::new();
    let mut macro_steps: Vec<MacroStep> = Vec::new();
    let mut total_out_ports: usize = 0;
    for op in g.op_ids() {
        let kind = g.kind(op);
        let n_inputs = kind.n_inputs();
        let n_outputs = kind.n_outputs();
        let op_imms = g.imms(op);
        debug_assert_eq!(op_imms.len(), n_inputs);
        let live = op_imms.iter().filter(|i| i.is_none()).count();
        let imm_base = u32::try_from(imms.len()).map_err(|_| oversize("immediate table"))?;
        imms.extend_from_slice(op_imms);
        let merge_like = matches!(kind, OpKind::Merge | OpKind::LoopEntry { .. });
        let ckind = match kind {
            OpKind::Start => CKind::Start,
            OpKind::End { .. } => CKind::End,
            OpKind::Unary { op } => CKind::Unary(*op),
            OpKind::Binary { op } => CKind::Binary(*op),
            OpKind::Switch => CKind::Switch,
            OpKind::CaseSwitch { arms } => CKind::CaseSwitch { arms: *arms },
            OpKind::Merge => CKind::Merge,
            OpKind::Synch { .. } => CKind::Synch,
            OpKind::Identity => CKind::Identity,
            OpKind::Gate => CKind::Gate,
            OpKind::Load { var } => CKind::Load(*var),
            OpKind::Store { var } => CKind::Store(*var),
            OpKind::LoadIdx { var } => CKind::LoadIdx(*var),
            OpKind::StoreIdx { var } => CKind::StoreIdx(*var),
            OpKind::IstLoad { var } => CKind::IstLoad(*var),
            OpKind::IstStore { var } => CKind::IstStore(*var),
            OpKind::LoopEntry { loop_id } => CKind::LoopEntry(*loop_id),
            OpKind::LoopExit { loop_id } => CKind::LoopExit(*loop_id),
            OpKind::PrevIter { loop_id } => CKind::PrevIter(*loop_id),
            OpKind::IterIndex { loop_id } => CKind::IterIndex(*loop_id),
            OpKind::LoopSwitch { loop_id } => CKind::LoopSwitch(*loop_id),
            OpKind::Macro { steps, .. } => {
                let range = StepRange {
                    start: u32::try_from(macro_steps.len())
                        .map_err(|_| oversize("macro-step table"))?,
                    len: u32::try_from(steps.len()).map_err(|_| oversize("macro-step table"))?,
                };
                macro_steps.extend_from_slice(steps);
                CKind::Macro { steps: range }
            }
        };
        let mut flags = 0u8;
        if merge_like {
            flags |= flag::MERGE_LIKE;
        }
        if !merge_like && n_inputs == 2 && live == 2 {
            flags |= flag::FAST_OK;
        }
        if !merge_like && live >= 2 {
            flags |= flag::DUP_OK;
        }
        if kind.is_memory() {
            flags |= flag::IS_MEMORY;
        }
        if matches!(
            kind,
            OpKind::Unary { .. } | OpKind::Binary { .. } | OpKind::Macro { .. }
        ) {
            flags |= flag::HOT;
        }
        descs.push(OpDesc {
            kind: ckind,
            n_inputs: n_inputs as u32,
            n_outputs: n_outputs as u32,
            live: live as u32,
            flags,
            imm_base,
            port_base: u32::try_from(total_out_ports).map_err(|_| oversize("out-port table"))?,
        });
        total_out_ports += n_outputs;
    }

    // CSR fill by counting sort over the arc list: two passes, and the
    // relative order of arcs within one (op, out-port) group is the arc
    // list's — exactly the order the builder-graph interpreters emitted
    // tokens in, which the simulator's bit-for-bit determinism (gated
    // `fired`/`makespan` baselines) depends on.
    let n_arcs = u32::try_from(g.arcs().len()).map_err(|_| oversize("destination table"))?;
    let mut port_start = vec![0u32; total_out_ports + 1];
    for a in g.arcs() {
        let gp = descs[a.from.op.index()].port_base as usize + a.from.port as usize;
        port_start[gp + 1] += 1;
    }
    for i in 1..port_start.len() {
        port_start[i] += port_start[i - 1];
    }
    let mut cursor: Vec<u32> = port_start[..total_out_ports].to_vec();
    let mut dests = vec![Port { op: start, port: 0 }; n_arcs as usize];
    for a in g.arcs() {
        let gp = descs[a.from.op.index()].port_base as usize + a.from.port as usize;
        dests[cursor[gp] as usize] = a.to;
        cursor[gp] += 1;
    }

    Ok(CompiledGraph {
        descs,
        port_start,
        dests,
        imms,
        macro_steps,
        start,
    })
}

impl CompiledGraph {
    /// Number of operators.
    #[inline]
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// True when the graph has no operators (never: it has a `Start`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// The unique `Start` operator.
    #[inline]
    pub fn start(&self) -> OpId {
        self.start
    }

    /// The descriptor of `op` (a 24-byte copy — no clone, no indirection).
    #[inline]
    pub fn desc(&self, op: OpId) -> OpDesc {
        self.descs[op.index()]
    }

    /// The destinations of `(op, out_port)`, in emission order.
    #[inline]
    pub fn dests(&self, op: OpId, out_port: usize) -> &[Port] {
        let gp = self.descs[op.index()].port_base as usize + out_port;
        &self.dests[self.port_start[gp] as usize..self.port_start[gp + 1] as usize]
    }

    /// The immediate on input port `port` of `op`, if any.
    #[inline]
    pub fn imm(&self, op: OpId, port: usize) -> Option<i64> {
        self.imms[self.descs[op.index()].imm_base as usize + port]
    }

    /// All immediate slots of `op` (`n_inputs` entries, `None` = arc-fed).
    #[inline]
    pub fn imms(&self, op: OpId) -> &[Option<i64>] {
        let d = &self.descs[op.index()];
        &self.imms[d.imm_base as usize..d.imm_base as usize + d.n_inputs as usize]
    }

    /// The macro micro-program a [`CKind::Macro`] range points at.
    #[inline]
    pub fn steps(&self, range: StepRange) -> &[MacroStep] {
        &self.macro_steps[range.start as usize..(range.start + range.len) as usize]
    }

    /// The display mnemonic of `op`, identical to
    /// [`OpKind::mnemonic`] on the builder graph (deadlock reports and
    /// tests match on these strings).
    pub fn mnemonic(&self, op: OpId) -> String {
        let d = &self.descs[op.index()];
        match d.kind {
            CKind::Start => "start".into(),
            CKind::End => "end".into(),
            CKind::Unary(u) => format!("un[{}]", u.symbol()),
            CKind::Binary(b) => format!("bin[{}]", b.symbol()),
            CKind::Switch => "switch".into(),
            CKind::CaseSwitch { arms } => format!("case{arms}"),
            CKind::Merge => "merge".into(),
            CKind::Synch => format!("synch{}", d.n_inputs),
            CKind::Identity => "id".into(),
            CKind::Gate => "gate".into(),
            CKind::Load(var) => format!("load {var:?}"),
            CKind::Store(var) => format!("store {var:?}"),
            CKind::LoadIdx(var) => format!("load {var:?}[·]"),
            CKind::StoreIdx(var) => format!("store {var:?}[·]"),
            CKind::IstLoad(var) => format!("ist-load {var:?}[·]"),
            CKind::IstStore(var) => format!("ist-store {var:?}[·]"),
            CKind::LoopEntry(l) => format!("loop-entry {l:?}"),
            CKind::LoopSwitch(l) => format!("loop-switch {l:?}"),
            CKind::LoopExit(l) => format!("loop-exit {l:?}"),
            CKind::PrevIter(l) => format!("prev-iter {l:?}"),
            CKind::IterIndex(l) => format!("iter-index {l:?}"),
            CKind::Macro { steps } => format!("macro{}x{}", d.n_inputs, steps.len()),
        }
    }

    /// Widest hot-kind (`Unary`/`Binary`/`Macro`) input arity in the
    /// graph — when this is ≤ [`INLINE_VALS`], no hot firing can touch
    /// a heap-spilled value buffer (the machine-laws allocation audit).
    pub fn max_hot_arity(&self) -> usize {
        self.descs
            .iter()
            .filter(|d| d.is_hot())
            .map(|d| d.n_inputs as usize)
            .max()
            .unwrap_or(0)
    }

    /// Static size of the compiled tables.
    pub fn footprint(&self) -> Footprint {
        let bytes = self.descs.len() * std::mem::size_of::<OpDesc>()
            + self.port_start.len() * std::mem::size_of::<u32>()
            + self.dests.len() * std::mem::size_of::<Port>()
            + self.imms.len() * std::mem::size_of::<Option<i64>>()
            + self.macro_steps.len() * std::mem::size_of::<MacroStep>();
        Footprint {
            ops: self.descs.len(),
            out_ports: self.port_start.len() - 1,
            dest_slots: self.dests.len(),
            imm_slots: self.imms.len(),
            macro_steps: self.macro_steps.len(),
            bytes,
        }
    }
}

// ---------------------------------------------------------------------
// Allocation audit
// ---------------------------------------------------------------------

/// The hot-path allocation audit: executors report every heap spill on
/// a hot-kind (`Unary`/`Binary`/`Macro`) firing path here, and the
/// machine-laws test asserts the counter never moves across the whole
/// corpus. Spills are architecturally possible only for arities beyond
/// [`INLINE_VALS`], which no translated graph produces.
pub mod audit {
    use std::sync::atomic::{AtomicU64, Ordering};

    static HOT_SPILLS: AtomicU64 = AtomicU64::new(0);

    /// Record one heap allocation on a hot-kind firing path.
    #[cold]
    pub fn note_hot_spill() {
        HOT_SPILLS.fetch_add(1, Ordering::Relaxed);
    }

    /// Total hot-path heap spills recorded by this process.
    pub fn hot_spills() -> u64 {
        HOT_SPILLS.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Inline rendezvous storage (shared by both backends)
// ---------------------------------------------------------------------

/// Value storage of one waiting-matching slot: inline up to
/// [`INLINE_VALS`] input ports, heap-spilled beyond (wide `End`/`Synch`
/// fan-ins only — spills on hot kinds are counted by [`audit`]).
///
/// Which ports hold a value is a bitmask, not an `Option` per port:
/// slots live *by value* inside the rendezvous hash maps, so their size
/// is the dominant term in the waiting-matching store's memory traffic
/// (a deep loop nest keeps tens of thousands of them live at once).
/// Mask + packed `[i64]` is half the footprint of
/// `[Option<i64>; INLINE_VALS]`.
#[derive(Debug)]
pub(crate) enum SlotVals {
    /// Inline storage for ≤ [`INLINE_VALS`] ports.
    Inline {
        n: u8,
        /// Bit `p` set ⇔ port `p` holds a value.
        filled: u16,
        vals: [i64; INLINE_VALS],
    },
    /// Heap storage for wider operators.
    Spill {
        filled: Box<[bool]>,
        vals: Box<[i64]>,
    },
}

/// The `filled` mask must cover every inline port.
const _: () = assert!(INLINE_VALS <= u16::BITS as usize);

impl SlotVals {
    /// A fresh slot pre-filled with the operator's immediates
    /// (`None` = arc-fed, waiting).
    pub(crate) fn new(init: &[Option<i64>], hot: bool) -> SlotVals {
        let n = init.len();
        if n <= INLINE_VALS {
            let mut vals = [0i64; INLINE_VALS];
            let mut filled = 0u16;
            for (p, im) in init.iter().enumerate() {
                if let Some(v) = im {
                    vals[p] = *v;
                    filled |= 1 << p;
                }
            }
            SlotVals::Inline { n: n as u8, filled, vals }
        } else {
            if hot {
                audit::note_hot_spill();
            }
            SlotVals::Spill {
                filled: init.iter().map(Option::is_some).collect(),
                vals: init.iter().map(|im| im.unwrap_or(0)).collect(),
            }
        }
    }

    /// An empty two-value slot (the fused loop-switch rendezvous).
    pub(crate) fn pair() -> SlotVals {
        SlotVals::new(&[None, None], false)
    }

    /// Whether input port `p` already holds a value (immediate or
    /// deposited token) — the token-collision check.
    #[inline]
    pub(crate) fn is_filled(&self, p: usize) -> bool {
        match self {
            SlotVals::Inline { filled, .. } => filled & (1 << p) != 0,
            SlotVals::Spill { filled, .. } => filled[p],
        }
    }

    /// Deposit a token's value on port `p` (callers check
    /// [`Self::is_filled`] first).
    #[inline]
    pub(crate) fn set(&mut self, p: usize, value: i64) {
        match self {
            SlotVals::Inline { filled, vals, .. } => {
                vals[p] = value;
                *filled |= 1 << p;
            }
            SlotVals::Spill { filled, vals } => {
                vals[p] = value;
                filled[p] = true;
            }
        }
    }

    /// Whether every input port holds a value.
    #[inline]
    pub(crate) fn is_complete(&self) -> bool {
        match self {
            SlotVals::Inline { n, filled, .. } => *filled == mask(*n as usize),
            SlotVals::Spill { filled, .. } => filled.iter().all(|&f| f),
        }
    }

    /// How many ports hold a value (leftover-token accounting).
    pub(crate) fn filled_count(&self) -> u64 {
        match self {
            SlotVals::Inline { filled, .. } => filled.count_ones() as u64,
            SlotVals::Spill { filled, .. } => filled.iter().filter(|&&f| f).count() as u64,
        }
    }

    /// The filled port indices, ascending (deadlock reports).
    pub(crate) fn filled_ports(&self) -> Vec<usize> {
        match self {
            SlotVals::Inline { n, filled, .. } => {
                (0..*n as usize).filter(|p| filled & (1 << p) != 0).collect()
            }
            SlotVals::Spill { filled, .. } => {
                filled.iter().enumerate().filter(|(_, &f)| f).map(|(p, _)| p).collect()
            }
        }
    }

    /// Consume a complete slot into firing values. Callers fire only
    /// after [`Self::is_complete`]; unfilled ports (impossible there)
    /// would read as the zeroed initial value.
    pub(crate) fn into_vals(self) -> FireVals {
        debug_assert!(self.is_complete());
        match self {
            SlotVals::Inline { n, vals, .. } => FireVals::Inline { n, vals },
            SlotVals::Spill { vals, .. } => FireVals::Spill(vals.into_vec()),
        }
    }
}

/// The low `n` bits set.
#[inline]
fn mask(n: usize) -> u16 {
    if n >= 16 { u16::MAX } else { (1u16 << n) - 1 }
}

/// A strict firing's assembled input values, inline wherever the slot
/// was inline.
#[derive(Debug)]
pub(crate) enum FireVals {
    /// Inline values for ≤ [`INLINE_VALS`] ports.
    Inline { n: u8, vals: [i64; INLINE_VALS] },
    /// Heap values for wider operators.
    Spill(Vec<i64>),
}

impl FireVals {
    /// Assemble the values of a single-live-input operator firing: the
    /// immediates with the one arriving token written over `port`.
    pub(crate) fn from_imms(imms: &[Option<i64>], port: usize, value: i64, hot: bool) -> FireVals {
        let n = imms.len();
        if n <= INLINE_VALS {
            let mut vals = [0i64; INLINE_VALS];
            for (v, im) in vals[..n].iter_mut().zip(imms) {
                *v = im.unwrap_or(0);
            }
            if n > 0 {
                vals[port] = value;
            }
            FireVals::Inline { n: n as u8, vals }
        } else {
            if hot {
                audit::note_hot_spill();
            }
            let mut vals: Vec<i64> = imms.iter().map(|im| im.unwrap_or(0)).collect();
            vals[port] = value;
            FireVals::Spill(vals)
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[i64] {
        match self {
            FireVals::Inline { n, vals } => &vals[..*n as usize],
            FireVals::Spill(v) => v,
        }
    }
}

// ---------------------------------------------------------------------
// The shared firing kernel
// ---------------------------------------------------------------------

/// The input values of one firing.
#[derive(Clone, Copy, Debug)]
pub enum FireInputs<'a> {
    /// All input values, immediates filled in (strict operators).
    Full(&'a [i64]),
    /// One token on a merge-like operator.
    Single {
        /// The input port the token arrived on.
        port: usize,
        /// The token's value.
        value: i64,
    },
}

impl FireInputs<'_> {
    #[inline]
    fn full(&self, i: usize) -> i64 {
        match self {
            FireInputs::Full(v) => v[i],
            FireInputs::Single { .. } => unreachable!("strict operator fired with a single token"),
        }
    }
}

/// Backend effects the firing kernel is generic over. The simulator
/// implements this with time-stamped event-queue insertion; the
/// threaded executor with scheduler pushes and sharded shared state.
pub trait Engine {
    /// Deliver `value` to every destination of `(op, out_port)` under `tag`.
    fn emit(&mut self, op: OpId, out_port: usize, value: i64, tag: TagId);
    /// `End` fired: the run is complete.
    fn halt(&mut self);
    /// Intern the tag for `(parent, loop_id, iter)`.
    fn tag_child(
        &mut self,
        parent: TagId,
        loop_id: LoopId,
        iter: u32,
    ) -> Result<TagId, MachineError>;
    /// Decompose `tag` into `(parent, loop, iteration)`; `None` for root.
    fn tag_info(&self, tag: TagId) -> Option<(TagId, LoopId, u32)>;
    /// Read a scalar cell.
    fn read_scalar(&mut self, var: VarId) -> i64;
    /// Write a scalar cell.
    fn write_scalar(&mut self, var: VarId, value: i64);
    /// Read an array element (bounds-checked).
    fn read_element(&mut self, var: VarId, index: i64) -> Result<i64, MemError>;
    /// Write an array element (bounds-checked).
    fn write_element(&mut self, var: VarId, index: i64, value: i64) -> Result<(), MemError>;
    /// I-structure read; `Ok(None)` means deferred (the engine records
    /// the deferral and the releasing write will re-emit).
    fn ist_read(
        &mut self,
        var: VarId,
        index: i64,
        op: OpId,
        tag: TagId,
    ) -> Result<Option<i64>, MemError>;
    /// I-structure write; returns the deferred reads it released.
    fn ist_write(
        &mut self,
        var: VarId,
        index: i64,
        value: i64,
    ) -> Result<Vec<DeferredRead<(OpId, TagId)>>, MemError>;
    /// A compound (`Macro`/`LoopSwitch`) firing elided `elided` interior
    /// operator firings.
    fn macro_fired(&mut self, elided: u64);
}

/// Fire one operator: the single definition of every operator's
/// semantics, shared by both backends. The caller has already done the
/// backend-specific part (rendezvous/deposit, fuel, tracing, choosing
/// the emission timestamp); this function only computes and emits.
///
/// Allocation audit: the kernel itself performs no heap allocation on
/// any path except the error constructors (cold) and the deferred-read
/// release vector (I-structure writes only, never a hot kind).
pub fn fire_op<E: Engine>(
    cg: &CompiledGraph,
    op: OpId,
    tag: TagId,
    inputs: FireInputs<'_>,
    eng: &mut E,
) -> Result<(), MachineError> {
    let desc = cg.desc(op);
    match desc.kind {
        CKind::Start => unreachable!("Start never fires"),
        CKind::End => eng.halt(),
        CKind::Unary(u) => eng.emit(op, 0, u.eval(inputs.full(0)), tag),
        CKind::Binary(b) => eng.emit(op, 0, b.eval(inputs.full(0), inputs.full(1)), tag),
        CKind::Switch => {
            let out = if inputs.full(1) != 0 { 0 } else { 1 };
            eng.emit(op, out, inputs.full(0), tag);
        }
        CKind::CaseSwitch { arms } => {
            let sel = inputs.full(1);
            let out = if sel >= 0 && (sel as u64) < u64::from(arms) - 1 {
                sel as usize
            } else {
                arms as usize - 1
            };
            eng.emit(op, out, inputs.full(0), tag);
        }
        CKind::Merge => {
            let FireInputs::Single { value, .. } = inputs else {
                unreachable!("merge fires per token");
            };
            eng.emit(op, 0, value, tag);
        }
        CKind::Synch => eng.emit(op, 0, 0, tag),
        CKind::Identity | CKind::Gate => eng.emit(op, 0, inputs.full(0), tag),
        CKind::Macro { steps } => {
            // One firing evaluates the whole fused chain: interior
            // tokens, slots, and firings are all elided.
            let FireInputs::Full(vals) = inputs else {
                unreachable!("macro has strict ports");
            };
            eng.macro_fired(steps.len() as u64 - 1);
            eng.emit(op, 0, macro_eval(cg.steps(steps), vals), tag);
        }
        CKind::Load(var) => {
            let v = eng.read_scalar(var);
            eng.emit(op, 0, v, tag);
            eng.emit(op, 1, 0, tag);
        }
        CKind::Store(var) => {
            eng.write_scalar(var, inputs.full(0));
            eng.emit(op, 0, 0, tag);
        }
        CKind::LoadIdx(var) => {
            let v = eng.read_element(var, inputs.full(0))?;
            eng.emit(op, 0, v, tag);
            eng.emit(op, 1, 0, tag);
        }
        CKind::StoreIdx(var) => {
            eng.write_element(var, inputs.full(0), inputs.full(1))?;
            eng.emit(op, 0, 0, tag);
        }
        CKind::IstLoad(var) => {
            // A deferred read emits nothing now; the releasing write
            // re-emits from this op. The engine tallies the deferral.
            if let Some(v) = eng.ist_read(var, inputs.full(0), op, tag)? {
                eng.emit(op, 0, v, tag);
            }
        }
        CKind::IstStore(var) => {
            let value = inputs.full(1);
            let released = eng.ist_write(var, inputs.full(0), value)?;
            // Ack first, then the released reads, in deferral order —
            // both backends always emitted in this order.
            eng.emit(op, 0, 0, tag);
            for d in released {
                let (ld_op, ld_tag) = d.ctx;
                eng.emit(ld_op, 0, value, ld_tag);
            }
        }
        CKind::LoopEntry(loop_id) => {
            let FireInputs::Single { port, value } = inputs else {
                unreachable!("loop entry fires per token");
            };
            let new_tag = if port == 0 {
                eng.tag_child(tag, loop_id, 0)?
            } else {
                match eng.tag_info(tag) {
                    Some((p, l, i)) if l == loop_id => eng.tag_child(p, loop_id, i + 1)?,
                    other => {
                        return Err(MachineError::TagMismatch {
                            op,
                            detail: format!(
                                "backedge token tagged {other:?}, expected loop {loop_id:?}"
                            ),
                        })
                    }
                }
            };
            eng.emit(op, 0, value, new_tag);
        }
        CKind::LoopSwitch(_) => {
            // One compound firing replaces the fused loop-entry's
            // separate firing and output token: the data value was
            // retagged at deposit time, so steering is all that's left.
            eng.macro_fired(1);
            let out = if inputs.full(1) != 0 { 0 } else { 1 };
            eng.emit(op, out, inputs.full(0), tag);
        }
        CKind::LoopExit(loop_id) => match eng.tag_info(tag) {
            Some((p, l, _)) if l == loop_id => eng.emit(op, 0, inputs.full(0), p),
            other => {
                return Err(MachineError::TagMismatch {
                    op,
                    detail: format!("exit token tagged {other:?}, expected loop {loop_id:?}"),
                })
            }
        },
        CKind::PrevIter(loop_id) => match eng.tag_info(tag) {
            Some((p, l, i)) if l == loop_id && i > 0 => {
                let nt = eng.tag_child(p, loop_id, i - 1)?;
                eng.emit(op, 0, inputs.full(0), nt);
            }
            other => {
                return Err(MachineError::TagMismatch {
                    op,
                    detail: format!(
                        "prev-iter token tagged {other:?}, expected loop {loop_id:?} iter > 0"
                    ),
                })
            }
        },
        CKind::IterIndex(loop_id) => match eng.tag_info(tag) {
            Some((_, l, i)) if l == loop_id => eng.emit(op, 0, i as i64, tag),
            other => {
                return Err(MachineError::TagMismatch {
                    op,
                    detail: format!("iter-index token tagged {other:?}, expected loop {loop_id:?}"),
                })
            }
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_dfg::graph::ArcKind;
    use cf2df_dfg::MacroSrc;

    fn sample() -> Dfg {
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
        g
    }

    #[test]
    fn csr_preserves_per_port_arc_order() {
        // One op fanning out to several destinations from one port and
        // a second port: the compiled slices must list destinations in
        // arc-insertion order within each port, ports independent.
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let ld = g.add(OpKind::Load { var: VarId(0) });
        let a = g.add(OpKind::Identity);
        let b = g.add(OpKind::Identity);
        let c = g.add(OpKind::Identity);
        let e = g.add(OpKind::End { inputs: 3 });
        g.connect(Port::new(s, 0), Port::new(ld, 0), ArcKind::Access);
        // Interleave arcs of ld's two output ports.
        g.connect(Port::new(ld, 0), Port::new(b, 0), ArcKind::Value);
        g.connect(Port::new(ld, 1), Port::new(c, 0), ArcKind::Access);
        g.connect(Port::new(ld, 0), Port::new(a, 0), ArcKind::Value);
        g.connect(Port::new(a, 0), Port::new(e, 0), ArcKind::Value);
        g.connect(Port::new(b, 0), Port::new(e, 1), ArcKind::Value);
        g.connect(Port::new(c, 0), Port::new(e, 2), ArcKind::Value);
        let cg = compile(&g).unwrap();
        assert_eq!(cg.dests(ld, 0), &[Port::new(b, 0), Port::new(a, 0)]);
        assert_eq!(cg.dests(ld, 1), &[Port::new(c, 0)]);
        assert_eq!(cg.dests(s, 0), &[Port::new(ld, 0)]);
        // Matches the builder graph's own adjacency exactly.
        let index = g.arc_index();
        for op in g.op_ids() {
            for p in 0..g.kind(op).n_outputs() {
                let want: Vec<Port> = index
                    .outs_on(&g, Port::new(op, p))
                    .map(|i| g.arcs()[i].to)
                    .collect();
                assert_eq!(cg.dests(op, p), &want[..], "{op:?} port {p}");
            }
        }
    }

    #[test]
    fn descriptors_carry_arity_live_and_flags() {
        let g = sample();
        let cg = compile(&g).unwrap();
        let add = OpId(2);
        let d = cg.desc(add);
        assert_eq!(d.n_inputs, 2);
        assert_eq!(d.live, 1, "one port is immediate");
        assert!(d.is_hot());
        assert!(!d.fast_ok(), "an immediate port disqualifies the fast path");
        assert!(!d.merge_like());
        assert_eq!(cg.imm(add, 1), Some(41));
        assert_eq!(cg.imm(add, 0), None);
        assert_eq!(cg.imms(add), &[None, Some(41)]);
        let ld = cg.desc(OpId(1));
        assert!(ld.is_memory());
        assert!(!ld.is_hot());
        assert_eq!(cg.start(), OpId(0));
        // Store: port 0 value, port 1 access — both live → fast-path + dup ok.
        let st = cg.desc(OpId(3));
        assert!(st.fast_ok());
        assert!(st.dup_ok());
    }

    #[test]
    fn macro_steps_are_flattened_and_shared() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let steps = vec![
            MacroStep::Bin(BinOp::Add, MacroSrc::In(0), MacroSrc::Imm(5)),
            MacroStep::Bin(BinOp::Mul, MacroSrc::Chain, MacroSrc::Imm(2)),
        ];
        let m = g.add(OpKind::Macro { inputs: 1, steps: steps.clone() });
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(m, 0), ArcKind::Value);
        g.connect(Port::new(m, 0), Port::new(e, 0), ArcKind::Value);
        let cg = compile(&g).unwrap();
        let CKind::Macro { steps: range } = cg.desc(m).kind else {
            panic!("macro survives lowering")
        };
        assert_eq!(cg.steps(range), &steps[..]);
        assert_eq!(range.len(), 2);
        assert_eq!(cg.mnemonic(m), "macro1x2");
        assert_eq!(cg.footprint().macro_steps, 2);
        assert_eq!(cg.max_hot_arity(), 1);
    }

    #[test]
    fn mnemonics_match_the_builder_graph() {
        let mut g = Dfg::new();
        g.add(OpKind::Start);
        for k in [
            OpKind::End { inputs: 4 },
            OpKind::Unary { op: UnOp::Neg },
            OpKind::Binary { op: BinOp::Lt },
            OpKind::Switch,
            OpKind::CaseSwitch { arms: 3 },
            OpKind::Merge,
            OpKind::Synch { inputs: 2 },
            OpKind::Identity,
            OpKind::Gate,
            OpKind::Load { var: VarId(1) },
            OpKind::Store { var: VarId(1) },
            OpKind::LoadIdx { var: VarId(2) },
            OpKind::StoreIdx { var: VarId(2) },
            OpKind::IstLoad { var: VarId(2) },
            OpKind::IstStore { var: VarId(2) },
            OpKind::LoopEntry { loop_id: LoopId(0) },
            OpKind::LoopExit { loop_id: LoopId(0) },
            OpKind::PrevIter { loop_id: LoopId(1) },
            OpKind::IterIndex { loop_id: LoopId(1) },
            OpKind::LoopSwitch { loop_id: LoopId(0) },
            OpKind::Macro { inputs: 2, steps: vec![MacroStep::Zero] },
        ] {
            g.add(k);
        }
        let cg = compile(&g).unwrap();
        for op in g.op_ids() {
            assert_eq!(cg.mnemonic(op), g.kind(op).mnemonic(), "{op:?}");
        }
    }

    /// The packed rendezvous key is injective and round-trips: the
    /// collision/determinism face of the hasher satellite.
    #[test]
    fn packed_key_roundtrips_and_never_collides() {
        let samples = [0u32, 1, 2, 7, 255, 4096, u32::MAX - 1, u32::MAX];
        let mut seen = std::collections::HashSet::new();
        for &o in &samples {
            for &t in &samples {
                let k = key(OpId(o), TagId(t));
                assert_eq!(unkey(k), (OpId(o), TagId(t)));
                assert!(seen.insert(k), "collision at op {o} tag {t}");
            }
        }
        // Determinism: the same key hashes identically in fresh maps.
        use std::hash::BuildHasher;
        let h1 = crate::hash::FxBuildHasher::default();
        let h2 = crate::hash::FxBuildHasher::default();
        for &k in &seen {
            assert_eq!(h1.hash_one(k), h2.hash_one(k));
        }
    }

    #[test]
    fn footprint_counts_every_table() {
        let g = sample();
        let cg = compile(&g).unwrap();
        let fp = cg.footprint();
        assert_eq!(fp.ops, 5);
        assert_eq!(fp.dest_slots, 5);
        assert_eq!(fp.out_ports, 1 + 2 + 1 + 1); // start, load, add, store; end has none
        assert_eq!(fp.imm_slots, 0 + 1 + 2 + 2 + 1);
        assert_eq!(fp.macro_steps, 0);
        assert!(fp.bytes > 0);
    }

    #[test]
    fn compile_rejects_startless_graphs() {
        let mut g = Dfg::new();
        g.add(OpKind::Identity);
        assert!(matches!(
            compile(&g),
            Err(MachineError::InvalidGraph { .. })
        ));
    }
}
