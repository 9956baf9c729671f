//! Dataflow operators.
//!
//! Firing discipline (§2.2): an operator fires when a token is present on
//! every input port — except *merge-like* ports, where a token on any one
//! arc fires the operator immediately. Input ports may instead carry an
//! immediate constant (a "literal slot", as on real explicit-token-store
//! machines), in which case no arc feeds them.

use cf2df_cfg::{BinOp, LoopId, UnOp, VarId};

/// Where a micro-program step reads an operand from (see
/// [`OpKind::Macro`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MacroSrc {
    /// The value produced by the previous step of the micro-program
    /// (the chain value). Invalid in step 0, which has no predecessor.
    Chain,
    /// The macro-op's external input port with this index.
    In(u16),
    /// An immediate constant baked into the step.
    Imm(i64),
}

/// One step of a macro-op's straight-line micro-program. Each step
/// produces exactly one value; the last step's value is the macro-op's
/// output.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MacroStep {
    /// Unary arithmetic/logic over one operand.
    Un(UnOp, MacroSrc),
    /// Binary arithmetic/logic over two operands.
    Bin(BinOp, MacroSrc, MacroSrc),
    /// Forward an operand unchanged (a fused Identity or Gate: the
    /// gating token was already consumed as a macro input port).
    Fwd(MacroSrc),
    /// Produce the dummy value 0 (a fused Synch: its operand tokens are
    /// macro input ports consumed purely for synchronization).
    Zero,
}

/// Evaluate a macro-op micro-program over the values deposited on its
/// external input ports. Shared by both backends so a macro firing is
/// bit-identical in the simulator and the threaded executor.
pub fn macro_eval(steps: &[MacroStep], vals: &[i64]) -> i64 {
    let mut acc = 0i64;
    for step in steps {
        let read = |src: MacroSrc| match src {
            MacroSrc::Chain => acc,
            MacroSrc::In(p) => vals[p as usize],
            MacroSrc::Imm(c) => c,
        };
        acc = match *step {
            MacroStep::Un(op, a) => op.eval(read(a)),
            MacroStep::Bin(op, a, b) => op.eval(read(a), read(b)),
            MacroStep::Fwd(a) => read(a),
            MacroStep::Zero => 0,
        };
    }
    acc
}

/// The kind of a dataflow operator. Input/output port layouts are listed
/// with each variant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// The unique source. No inputs; one output port. The machine seeds one
    /// initial token on *each arc* leaving the output port (one per
    /// circulating token line).
    Start,
    /// The unique sink: an `inputs`-ary rendezvous (the paper treats `end`
    /// as a use of every variable). When it fires, execution halts.
    End {
        /// Number of input ports.
        inputs: u32,
    },
    /// Unary arithmetic/logic.
    Unary {
        /// The operator.
        op: UnOp,
    },
    /// Binary arithmetic/logic. In: `[lhs, rhs]`; out: `[result]`.
    Binary {
        /// The operator.
        op: BinOp,
    },
    /// Fig 2's `switch`: in: `[data, pred]`; out: `[true, false]`. The data
    /// token is forwarded to the output selected by the predicate.
    Switch,
    /// Multi-way switch (footnote 3): in: `[data, selector]`; out:
    /// `arms` ports. The data token goes to port `selector` when
    /// `0 ≤ selector < arms-1`, otherwise to the last (default) port.
    CaseSwitch {
        /// Number of output arms (≥ 2), the last being the default.
        arms: u32,
    },
    /// Fig 2's `merge`: one merge-like input port (any number of arcs);
    /// out: `[data]`. A token arriving on any arc is forwarded.
    Merge,
    /// Fig 2's `synch tree`, realized n-ary: in: `inputs` ports; out: one
    /// dummy token once all inputs have arrived.
    Synch {
        /// Number of input ports.
        inputs: u32,
    },
    /// Forward a token unchanged (wiring convenience).
    Identity,
    /// Emit the data input when the trigger arrives: in `[data, trigger]`;
    /// out `[data]`. Used by the memory-elimination transform (§6.1) to
    /// produce a variable's new value-token exactly once per execution of
    /// its assignment (the old value-token is the trigger).
    Gate,
    /// Scalar load. In: `[access]`; out: `[value, access]`. Split-phase:
    /// the access token is propagated only when the memory responds.
    Load {
        /// Variable whose cell is read.
        var: VarId,
    },
    /// Scalar store. In: `[value, access]`; out: `[access]`.
    Store {
        /// Variable whose cell is written.
        var: VarId,
    },
    /// Array-element load. In: `[index, access]`; out: `[value, access]`.
    LoadIdx {
        /// Array variable.
        var: VarId,
    },
    /// Array-element store. In: `[index, value, access]`; out: `[access]`.
    StoreIdx {
        /// Array variable.
        var: VarId,
    },
    /// I-structure read (§6.3 write-once arrays). In: `[index]`; out:
    /// `[value]`. Reads issued before the write are deferred by the memory.
    IstLoad {
        /// Array variable backed by I-structure cells.
        var: VarId,
    },
    /// I-structure write. In: `[index, value]`; out: `[done]`. Writing a
    /// full cell is an error.
    IstStore {
        /// Array variable backed by I-structure cells.
        var: VarId,
    },
    /// Loop-entry operator (§3). In: `[from-outside, from-backedge]`, both
    /// merge-like; out: `[data]`. A token from outside acquires a fresh
    /// iteration-0 tag for this loop; a token from the backedge advances to
    /// the next iteration's tag.
    LoopEntry {
        /// The loop whose iteration tags this operator manages.
        loop_id: LoopId,
    },
    /// Loop-exit operator (§3). In: `[data]`; out: `[data]` with the
    /// innermost iteration tag (which must belong to `loop_id`) stripped.
    LoopExit {
        /// The loop whose tag is stripped.
        loop_id: LoopId,
    },
    /// Retag a token from iteration `i` to iteration `i-1` of the same
    /// loop (the backward synchronization link in the array-store
    /// parallelization of Fig 14: the completion chain of iteration `i+1`
    /// is handed to iteration `i`). In: `[data]`; out: `[data]`. A token
    /// tagged iteration 0 is a translation bug and faults.
    PrevIter {
        /// The loop whose iteration tag is decremented.
        loop_id: LoopId,
    },
    /// Materialize the current iteration index as a value: a token tagged
    /// `(p, l, i)` triggers the output value `i` under the same tag.
    /// In: `[trigger]`; out: `[index]`.
    IterIndex {
        /// The loop whose iteration index is read.
        loop_id: LoopId,
    },
    /// A fused loop-entry/switch pair (the fusion pass's second rule):
    /// the per-variable circulation step `loop-entry → switch` collapsed
    /// into one compound actor. In: `[from-outside, from-backedge,
    /// pred]` — ports 0 and 1 are merge-like and retag exactly as the
    /// loop-entry would (outside → iteration 0, backedge → next
    /// iteration); the retagged data then waits for the predicate (port
    /// 2, already at the iteration tag) in a single rendezvous. Out:
    /// `[continue, exit]` — one firing steers the data token like the
    /// switch (pred ≠ 0 → continue). Tag allocation is unchanged; the
    /// loop-entry's separate output token and firing are elided.
    LoopSwitch {
        /// The loop whose iteration tags this operator manages.
        loop_id: LoopId,
    },
    /// A compound actor produced by the fusion pass
    /// ([`crate::fuse()`]): a maximal linear chain of strict same-tag
    /// operators collapsed into one node carrying a straight-line
    /// micro-program. In: `inputs` strict ports (the union of the
    /// chain's external live inputs); out: `[result]` — the last step's
    /// value. Firing evaluates every step at once: no intermediate
    /// tokens, no rendezvous slots, no scheduler round-trips.
    Macro {
        /// Number of external input ports.
        inputs: u32,
        /// The micro-program, in chain order; step 0 is the chain head.
        steps: Vec<MacroStep>,
    },
}

impl OpKind {
    /// Number of input ports.
    pub fn n_inputs(&self) -> usize {
        match self {
            OpKind::Start => 0,
            OpKind::End { inputs } | OpKind::Synch { inputs } => *inputs as usize,
            OpKind::Macro { inputs, .. } => *inputs as usize,
            OpKind::Unary { .. } | OpKind::Identity | OpKind::Merge => 1,
            OpKind::Load { .. } | OpKind::LoopExit { .. } => 1,
            OpKind::PrevIter { .. } | OpKind::IterIndex { .. } => 1,
            OpKind::IstLoad { .. } => 1,
            OpKind::Binary { .. } | OpKind::Switch | OpKind::Gate => 2,
            OpKind::CaseSwitch { .. } => 2,
            OpKind::Store { .. } | OpKind::LoadIdx { .. } | OpKind::IstStore { .. } => 2,
            OpKind::LoopEntry { .. } => 2,
            OpKind::StoreIdx { .. } | OpKind::LoopSwitch { .. } => 3,
        }
    }

    /// Number of output ports.
    pub fn n_outputs(&self) -> usize {
        match self {
            OpKind::Start => 1,
            OpKind::End { .. } => 0,
            OpKind::Switch | OpKind::LoopSwitch { .. } => 2,
            OpKind::CaseSwitch { arms } => *arms as usize,
            OpKind::Load { .. } | OpKind::LoadIdx { .. } => 2,
            _ => 1,
        }
    }

    /// Is input port `port` merge-like (fires on any single arc, may have
    /// several arcs)?
    pub fn is_merge_like(&self, port: usize) -> bool {
        match self {
            OpKind::Merge => port == 0,
            OpKind::LoopEntry { .. } | OpKind::LoopSwitch { .. } => port <= 1,
            _ => false,
        }
    }

    /// Is this a memory operation (load/store on the multiply-written
    /// store, or an I-structure operation)?
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            OpKind::Load { .. }
                | OpKind::Store { .. }
                | OpKind::LoadIdx { .. }
                | OpKind::StoreIdx { .. }
                | OpKind::IstLoad { .. }
                | OpKind::IstStore { .. }
        )
    }

    /// Is this a store (writes memory)?
    pub fn is_store(&self) -> bool {
        matches!(
            self,
            OpKind::Store { .. } | OpKind::StoreIdx { .. } | OpKind::IstStore { .. }
        )
    }

    /// Short mnemonic for display.
    pub fn mnemonic(&self) -> String {
        match self {
            OpKind::Start => "start".into(),
            OpKind::End { .. } => "end".into(),
            OpKind::Unary { op } => format!("un[{}]", op.symbol()),
            OpKind::Binary { op } => format!("bin[{}]", op.symbol()),
            OpKind::Switch => "switch".into(),
            OpKind::CaseSwitch { arms } => format!("case{arms}"),
            OpKind::Merge => "merge".into(),
            OpKind::Synch { inputs } => format!("synch{inputs}"),
            OpKind::Identity => "id".into(),
            OpKind::Gate => "gate".into(),
            OpKind::Load { var } => format!("load {var:?}"),
            OpKind::Store { var } => format!("store {var:?}"),
            OpKind::LoadIdx { var } => format!("load {var:?}[·]"),
            OpKind::StoreIdx { var } => format!("store {var:?}[·]"),
            OpKind::IstLoad { var } => format!("ist-load {var:?}[·]"),
            OpKind::IstStore { var } => format!("ist-store {var:?}[·]"),
            OpKind::LoopEntry { loop_id } => format!("loop-entry {loop_id:?}"),
            OpKind::LoopSwitch { loop_id } => format!("loop-switch {loop_id:?}"),
            OpKind::LoopExit { loop_id } => format!("loop-exit {loop_id:?}"),
            OpKind::PrevIter { loop_id } => format!("prev-iter {loop_id:?}"),
            OpKind::IterIndex { loop_id } => format!("iter-index {loop_id:?}"),
            OpKind::Macro { inputs, steps } => format!("macro{inputs}x{}", steps.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_counts() {
        assert_eq!(OpKind::Start.n_inputs(), 0);
        assert_eq!(OpKind::Start.n_outputs(), 1);
        assert_eq!(OpKind::End { inputs: 3 }.n_inputs(), 3);
        assert_eq!(OpKind::End { inputs: 3 }.n_outputs(), 0);
        assert_eq!(OpKind::Switch.n_inputs(), 2);
        assert_eq!(OpKind::Switch.n_outputs(), 2);
        assert_eq!(OpKind::Load { var: VarId(0) }.n_outputs(), 2);
        assert_eq!(OpKind::StoreIdx { var: VarId(0) }.n_inputs(), 3);
        assert_eq!(OpKind::Synch { inputs: 5 }.n_inputs(), 5);
        assert_eq!(OpKind::PrevIter { loop_id: LoopId(0) }.n_inputs(), 1);
        assert_eq!(OpKind::IterIndex { loop_id: LoopId(0) }.n_outputs(), 1);
    }

    #[test]
    fn merge_like_ports() {
        assert!(OpKind::Merge.is_merge_like(0));
        assert!(!OpKind::Switch.is_merge_like(0));
        let le = OpKind::LoopEntry { loop_id: LoopId(0) };
        assert!(le.is_merge_like(0));
        assert!(le.is_merge_like(1));
        assert!(!OpKind::PrevIter { loop_id: LoopId(0) }.is_merge_like(0));
        let ls = OpKind::LoopSwitch { loop_id: LoopId(0) };
        assert!(ls.is_merge_like(0));
        assert!(ls.is_merge_like(1));
        assert!(!ls.is_merge_like(2), "the predicate port is strict");
        assert_eq!(ls.n_inputs(), 3);
        assert_eq!(ls.n_outputs(), 2);
    }

    #[test]
    fn memory_classification() {
        assert!(OpKind::Load { var: VarId(0) }.is_memory());
        assert!(OpKind::IstStore { var: VarId(0) }.is_memory());
        assert!(!OpKind::Switch.is_memory());
        assert!(OpKind::Store { var: VarId(0) }.is_store());
        assert!(!OpKind::Load { var: VarId(0) }.is_store());
    }

    #[test]
    fn macro_eval_folds_the_micro_program() {
        use MacroSrc::*;
        // (in0 + in1) * 3 - in2, as a fused Binary chain.
        let steps = [
            MacroStep::Bin(BinOp::Add, In(0), In(1)),
            MacroStep::Bin(BinOp::Mul, Chain, Imm(3)),
            MacroStep::Bin(BinOp::Sub, Chain, In(2)),
        ];
        assert_eq!(macro_eval(&steps, &[4, 2, 5]), 13);
        // Head variants: unary, forward, synch.
        assert_eq!(macro_eval(&[MacroStep::Un(UnOp::Neg, In(0))], &[7]), -7);
        assert_eq!(macro_eval(&[MacroStep::Fwd(In(0))], &[9]), 9);
        assert_eq!(macro_eval(&[MacroStep::Zero], &[1, 2]), 0);
        let k = OpKind::Macro {
            inputs: 3,
            steps: steps.to_vec(),
        };
        assert_eq!(k.n_inputs(), 3);
        assert_eq!(k.n_outputs(), 1);
        assert!(!k.is_merge_like(0));
        assert!(!k.is_memory());
        assert_eq!(k.mnemonic(), "macro3x3");
    }

    #[test]
    fn mnemonics_are_distinctive() {
        let names: Vec<String> = [
            OpKind::Start,
            OpKind::Switch,
            OpKind::Merge,
            OpKind::Load { var: VarId(1) },
            OpKind::Store { var: VarId(1) },
        ]
        .iter()
        .map(|k| k.mnemonic())
        .collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup);
    }
}
