//! The dataflow graph structure.

use crate::op::OpKind;
use crate::validate::DfgError;
use std::fmt;

/// A dense index identifying a dataflow operator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

impl OpId {
    /// The index as a `usize`, for vector indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A port reference: operator plus port index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Port {
    /// The operator.
    pub op: OpId,
    /// Port index on that operator (input or output depending on context).
    pub port: u16,
}

impl Port {
    /// Construct a port reference.
    #[inline]
    pub fn new(op: OpId, port: usize) -> Port {
        Port {
            op,
            port: port as u16,
        }
    }
}

/// What an arc carries: a useful value, or a dummy access token used only
/// for sequencing memory operations (dotted in the paper's figures).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArcKind {
    /// Carries a meaningful value.
    Value,
    /// Carries a dummy synchronization token.
    Access,
}

/// A directed arc from an output port to an input port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Arc {
    /// Source output port.
    pub from: Port,
    /// Destination input port.
    pub to: Port,
    /// Value or access classification.
    pub kind: ArcKind,
}

#[derive(Clone, Debug)]
struct OpNode {
    kind: OpKind,
    /// One slot per input port; `Some(c)` marks the port as an immediate
    /// (literal) operand — no arc may feed it.
    imm: Vec<Option<i64>>,
    /// Optional human-readable annotation (e.g. which CFG statement or
    /// variable line the operator belongs to).
    label: String,
}

/// A dataflow program graph.
#[derive(Clone, Debug, Default)]
pub struct Dfg {
    ops: Vec<OpNode>,
    arcs: Vec<Arc>,
}

impl Dfg {
    /// An empty graph.
    pub fn new() -> Dfg {
        Dfg::default()
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the graph has no operators.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// The `OpId` a graph with `len` operators would assign next, or a
    /// typed error once the 32-bit id space is exhausted.
    pub fn op_id_for_len(len: usize) -> Result<OpId, DfgError> {
        u32::try_from(len)
            .map(OpId)
            .map_err(|_| DfgError::OpSpaceExhausted { ops: len })
    }

    /// Add an operator; all input ports start arc-fed (no immediates).
    /// Returns a typed error instead of aborting when the operator id
    /// space (`u32`) is exhausted.
    pub fn try_add(&mut self, kind: OpKind) -> Result<OpId, DfgError> {
        let id = Self::op_id_for_len(self.ops.len())?;
        let n_in = kind.n_inputs();
        self.ops.push(OpNode {
            kind,
            imm: vec![None; n_in],
            label: String::new(),
        });
        Ok(id)
    }

    /// Add an operator; all input ports start arc-fed (no immediates).
    ///
    /// # Panics
    ///
    /// Panics if the operator id space is exhausted; builders that must
    /// not panic use [`Dfg::try_add`].
    pub fn add(&mut self, kind: OpKind) -> OpId {
        self.try_add(kind).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Add an operator with a label.
    pub fn add_labeled(&mut self, kind: OpKind, label: impl Into<String>) -> OpId {
        let id = self.add(kind);
        self.ops[id.index()].label = label.into();
        id
    }

    /// Set an input port to an immediate operand.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range or merge-like.
    pub fn set_imm(&mut self, op: OpId, port: usize, value: i64) {
        assert!(
            !self.ops[op.index()].kind.is_merge_like(port),
            "merge-like ports cannot take immediates"
        );
        self.ops[op.index()].imm[port] = Some(value);
    }

    /// The immediate on an input port, if any.
    pub fn imm(&self, op: OpId, port: usize) -> Option<i64> {
        self.ops[op.index()].imm[port]
    }

    /// All immediate slots of an operator, one per input port (`None`
    /// means the port is fed by an arc). Export accessor for lowering
    /// to the machine's compiled representation.
    #[inline]
    pub fn imms(&self, op: OpId) -> &[Option<i64>] {
        &self.ops[op.index()].imm
    }

    /// The operator kind.
    #[inline]
    pub fn kind(&self, op: OpId) -> &OpKind {
        &self.ops[op.index()].kind
    }

    /// Replace an operator's kind. Input-port count must be preserved
    /// (used e.g. to retarget memory operations).
    pub fn set_kind(&mut self, op: OpId, kind: OpKind) {
        assert_eq!(
            self.ops[op.index()].kind.n_inputs(),
            kind.n_inputs(),
            "set_kind must preserve input arity"
        );
        self.ops[op.index()].kind = kind;
    }

    /// Replace an operator's kind, allowing the input arity to change.
    /// The new kind gets a fresh, fully arc-fed port layout (all
    /// immediate slots cleared). Used by graph rewrites that change port
    /// layouts (e.g. macro-op fusion, which bakes immediates into the
    /// micro-program); the caller must fix up the arcs afterwards.
    pub fn replace_kind(&mut self, op: OpId, kind: OpKind) {
        let n_in = kind.n_inputs();
        let node = &mut self.ops[op.index()];
        node.imm.clear();
        node.imm.resize(n_in, None);
        node.kind = kind;
    }

    /// The operator's label.
    pub fn label(&self, op: OpId) -> &str {
        &self.ops[op.index()].label
    }

    /// Replace an operator's label.
    pub fn set_label(&mut self, op: OpId, label: impl Into<String>) {
        self.ops[op.index()].label = label.into();
    }

    /// Connect `from` (an output port) to `to` (an input port).
    pub fn connect(&mut self, from: Port, to: Port, kind: ArcKind) {
        debug_assert!(
            (from.port as usize) < self.kind(from.op).n_outputs(),
            "output port out of range on {:?}",
            self.kind(from.op)
        );
        debug_assert!(
            (to.port as usize) < self.kind(to.op).n_inputs(),
            "input port out of range on {:?}",
            self.kind(to.op)
        );
        self.arcs.push(Arc { from, to, kind });
    }

    /// All arcs.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Remove the first arc from `from` to `to`; returns whether one was
    /// found. Used by the §6 graph rewrites.
    pub fn disconnect(&mut self, from: Port, to: Port) -> bool {
        if let Some(i) = self
            .arcs
            .iter()
            .position(|a| a.from == from && a.to == to)
        {
            self.arcs.swap_remove(i);
            true
        } else {
            false
        }
    }

    /// Retarget every arc currently pointing at input port `old` to point
    /// at `new` instead; returns how many arcs moved.
    pub fn retarget_input(&mut self, old: Port, new: Port) -> usize {
        let mut n = 0;
        for a in &mut self.arcs {
            if a.to == old {
                a.to = new;
                n += 1;
            }
        }
        n
    }

    /// Remove the arc at position `i` by `swap_remove`: the last arc
    /// takes its place, exactly as [`Dfg::disconnect`] would leave the
    /// list. Rewrites that track arc positions themselves use this to
    /// edit by arc id without scanning.
    pub(crate) fn remove_arc(&mut self, i: usize) {
        self.arcs.swap_remove(i);
    }

    /// Mutable access to the arc at position `i`, for rewrites that move
    /// one end of a known arc in place (as [`Dfg::retarget_input`] does
    /// for every match).
    pub(crate) fn arc_mut(&mut self, i: usize) -> &mut Arc {
        &mut self.arcs[i]
    }

    /// Drop *isolated* operators (no incident arcs, excluding
    /// `Start`/`End`) in place. Survivors keep their relative order and
    /// the arcs keep theirs. Returns, for each old operator id, its new
    /// id (or `None` if removed). Graph rewrites that orphan operators
    /// call this to restore the validation invariant that every operator
    /// is fed and reachable.
    pub fn compact(&mut self) -> Vec<Option<OpId>> {
        let mut touched = vec![false; self.ops.len()];
        for a in &self.arcs {
            touched[a.from.op.index()] = true;
            touched[a.to.op.index()] = true;
        }
        let mut map: Vec<Option<OpId>> = Vec::with_capacity(self.ops.len());
        let mut next = 0u32;
        for (i, o) in self.ops.iter().enumerate() {
            if touched[i] || matches!(o.kind, OpKind::Start | OpKind::End { .. }) {
                map.push(Some(OpId(next)));
                next += 1;
            } else {
                map.push(None);
            }
        }
        let mut i = 0;
        self.ops.retain(|_| {
            i += 1;
            map[i - 1].is_some()
        });
        for a in &mut self.arcs {
            a.from.op = map[a.from.op.index()].expect("arc ends survive");
            a.to.op = map[a.to.op.index()].expect("arc ends survive");
        }
        map
    }

    /// Iterate over all operator ids.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Find the unique operator of a kind matching `pred`, if any.
    pub fn find(&self, mut pred: impl FnMut(&OpKind) -> bool) -> Option<OpId> {
        let mut found = None;
        for id in self.op_ids() {
            if pred(self.kind(id)) {
                if found.is_some() {
                    return None;
                }
                found = Some(id);
            }
        }
        found
    }

    /// The unique `Start` operator, or a [`DfgError::StartCount`] carrying
    /// the actual count. Graphs loaded from external sources hit this
    /// path, so it must not panic.
    pub fn start(&self) -> Result<OpId, DfgError> {
        match self.find(|k| matches!(k, OpKind::Start)) {
            Some(id) => Ok(id),
            None => {
                let n = self
                    .op_ids()
                    .filter(|&o| matches!(self.kind(o), OpKind::Start))
                    .count();
                Err(DfgError::StartCount(n))
            }
        }
    }

    /// The unique `End` operator, or a [`DfgError::EndCount`] carrying the
    /// actual count.
    pub fn end(&self) -> Result<OpId, DfgError> {
        match self.find(|k| matches!(k, OpKind::End { .. })) {
            Some(id) => Ok(id),
            None => {
                let n = self
                    .op_ids()
                    .filter(|&o| matches!(self.kind(o), OpKind::End { .. }))
                    .count();
                Err(DfgError::EndCount(n))
            }
        }
    }

    /// A flat index of the arcs by destination port and by source
    /// operator, built in one pass (see [`ArcIndex`]).
    pub fn arc_index(&self) -> ArcIndex {
        ArcIndex::new(self)
    }

    /// Pretty-print the whole graph, one operator per line.
    pub fn pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let index = self.arc_index();
        for id in self.op_ids() {
            let o = &self.ops[id.index()];
            let mut dests = Vec::new();
            for p in 0..o.kind.n_outputs() {
                for ai in index.outs_on(self, Port::new(id, p)) {
                    let a = &self.arcs[ai];
                    let style = match a.kind {
                        ArcKind::Value => "",
                        ArcKind::Access => "~",
                    };
                    dests.push(format!("{p}{style}>{:?}.{}", a.to.op, a.to.port));
                }
            }
            let imms: Vec<String> = o
                .imm
                .iter()
                .enumerate()
                .filter_map(|(p, i)| i.map(|v| format!("#{p}={v}")))
                .collect();
            let _ = writeln!(
                s,
                "{:>6?} {:<22} {:<14} {} {}",
                id,
                o.kind.mnemonic(),
                imms.join(" "),
                o.label,
                dests.join(" ")
            );
        }
        s
    }
}

/// A flat (CSR) index of a graph's arcs: the arcs into each input port
/// and the arcs out of each operator, both in arc order — the graph's
/// adjacency matrix in compressed sparse row form. One allocation per
/// table instead of a vector per port, for analyses that walk the graph
/// many times and for the rewrites that plan against it. Arc indices are
/// positions in [`Dfg::arcs`] when the index was built; any edit of the
/// graph makes the index stale.
#[derive(Clone, Debug)]
pub struct ArcIndex {
    /// Per operator, its first input-port slot (`n + 1` entries).
    port_start: Vec<u32>,
    /// Per input-port slot, its first entry in `in_arcs` (`slots + 1`).
    in_start: Vec<u32>,
    /// Arc indices grouped by destination port.
    in_arcs: Vec<u32>,
    /// Per operator, its first entry in `out_arcs` (`n + 1` entries).
    out_start: Vec<u32>,
    /// Arc indices grouped by source operator.
    out_arcs: Vec<u32>,
    /// The destination operator of each `out_arcs` entry.
    out_to: Vec<OpId>,
}

impl ArcIndex {
    /// Index the arcs of `g`.
    ///
    /// # Panics
    /// If an arc leaves an output port or feeds an input port its
    /// operator does not have.
    fn new(g: &Dfg) -> ArcIndex {
        let n = g.len();
        let mut port_start = Vec::with_capacity(n + 1);
        let mut slots = 0u32;
        for op in &g.ops {
            port_start.push(slots);
            slots += op.kind.n_inputs() as u32;
        }
        port_start.push(slots);
        let slot_of = |a: &Arc| {
            let op = a.to.op.index();
            assert!(
                u32::from(a.to.port) < port_start[op + 1] - port_start[op],
                "arc into missing input port {} of {:?}",
                a.to.port,
                a.to.op
            );
            (port_start[op] + u32::from(a.to.port)) as usize
        };
        let mut in_start = vec![0u32; slots as usize + 1];
        let mut out_start = vec![0u32; n + 1];
        for a in &g.arcs {
            assert!(
                (a.from.port as usize) < g.kind(a.from.op).n_outputs(),
                "arc from missing output port {} of {:?}",
                a.from.port,
                a.from.op
            );
            in_start[slot_of(a) + 1] += 1;
            out_start[a.from.op.index() + 1] += 1;
        }
        for i in 1..in_start.len() {
            in_start[i] += in_start[i - 1];
        }
        for i in 1..out_start.len() {
            out_start[i] += out_start[i - 1];
        }
        let mut in_arcs = vec![0u32; g.arcs.len()];
        let mut out_arcs = vec![0u32; g.arcs.len()];
        let mut out_to = vec![OpId(0); g.arcs.len()];
        let mut in_fill = in_start.clone();
        let mut out_fill = out_start.clone();
        for (i, a) in g.arcs.iter().enumerate() {
            let slot = slot_of(a);
            in_arcs[in_fill[slot] as usize] = i as u32;
            in_fill[slot] += 1;
            let from = a.from.op.index();
            out_arcs[out_fill[from] as usize] = i as u32;
            out_to[out_fill[from] as usize] = a.to.op;
            out_fill[from] += 1;
        }
        ArcIndex {
            port_start,
            in_start,
            in_arcs,
            out_start,
            out_arcs,
            out_to,
        }
    }

    /// Indices of the arcs into input `port` of `op`, in arc order.
    #[inline]
    pub fn ins(&self, op: OpId, port: usize) -> &[u32] {
        let slot = self.port_start[op.index()] as usize + port;
        debug_assert!(slot < self.port_start[op.index() + 1] as usize);
        &self.in_arcs[self.in_start[slot] as usize..self.in_start[slot + 1] as usize]
    }

    /// Number of arcs into any input port of `op`.
    #[inline]
    pub fn in_degree(&self, op: OpId) -> usize {
        let i = op.index();
        let (first, end) = (self.port_start[i] as usize, self.port_start[i + 1] as usize);
        (self.in_start[end] - self.in_start[first]) as usize
    }

    /// Indices of the arcs out of `op` (any port), in arc order.
    #[inline]
    pub fn outs(&self, op: OpId) -> &[u32] {
        let i = op.index();
        &self.out_arcs[self.out_start[i] as usize..self.out_start[i + 1] as usize]
    }

    /// Indices of the arcs out of output port `from`, in arc order. `g`
    /// must be the graph the index was built from.
    pub fn outs_on<'a>(&'a self, g: &'a Dfg, from: Port) -> impl Iterator<Item = usize> + 'a {
        self.outs(from.op)
            .iter()
            .map(|&ai| ai as usize)
            .filter(move |&ai| g.arcs[ai].from.port == from.port)
    }

    /// The destinations of the arcs out of `op`, in arc order (repeated
    /// once per arc).
    #[inline]
    pub fn succs(&self, op: OpId) -> &[OpId] {
        let i = op.index();
        &self.out_to[self.out_start[i] as usize..self.out_start[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cf2df_cfg::{BinOp, VarId};

    fn tiny() -> (Dfg, OpId, OpId, OpId, OpId) {
        // start → load x → (+1) → store x → end
        let mut g = Dfg::new();
        let start = g.add(OpKind::Start);
        let load = g.add(OpKind::Load { var: VarId(0) });
        let add = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(add, 1, 1);
        let store = g.add(OpKind::Store { var: VarId(0) });
        let end = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(start, 0), Port::new(load, 0), ArcKind::Access);
        g.connect(Port::new(load, 0), Port::new(add, 0), ArcKind::Value);
        g.connect(Port::new(add, 0), Port::new(store, 0), ArcKind::Value);
        g.connect(Port::new(load, 1), Port::new(store, 1), ArcKind::Access);
        g.connect(Port::new(store, 0), Port::new(end, 0), ArcKind::Access);
        (g, start, load, add, store)
    }

    #[test]
    fn build_and_query() {
        let (g, start, load, add, store) = tiny();
        assert_eq!(g.len(), 5);
        assert_eq!(g.arc_count(), 5);
        assert_eq!(g.start(), Ok(start));
        assert_eq!(g.imm(add, 1), Some(1));
        assert_eq!(g.imm(add, 0), None);
        assert!(matches!(g.kind(load), OpKind::Load { .. }));
        let _ = store;
    }

    #[test]
    fn arc_index_by_port() {
        let (g, _, load, add, store) = tiny();
        let index = g.arc_index();
        // store has value on port 0 and access on port 1.
        assert_eq!(index.ins(store, 0).len(), 1);
        assert_eq!(index.ins(store, 1).len(), 1);
        assert_eq!(index.in_degree(store), 2);
        assert_eq!(index.in_degree(OpId(0)), 0);
        // load output port 0 (value) feeds add; port 1 (access) feeds store.
        let value: Vec<usize> = index.outs_on(&g, Port::new(load, 0)).collect();
        let access: Vec<usize> = index.outs_on(&g, Port::new(load, 1)).collect();
        assert_eq!(value.len(), 1);
        assert_eq!(access.len(), 1);
        assert_eq!(g.arcs()[value[0]].to.op, add);
        let a = g.arcs()[access[0]];
        assert_eq!(a.to.op, store);
        assert_eq!(a.kind, ArcKind::Access);
        assert_eq!(index.outs(load), &[1, 3]);
        assert_eq!(index.succs(load), &[add, store]);
    }

    #[test]
    #[should_panic(expected = "merge-like")]
    fn imm_on_merge_port_panics() {
        let mut g = Dfg::new();
        let m = g.add(OpKind::Merge);
        g.set_imm(m, 0, 3);
    }

    #[test]
    fn find_unique_rejects_duplicates() {
        let mut g = Dfg::new();
        g.add(OpKind::Start);
        g.add(OpKind::Start);
        assert!(g.find(|k| matches!(k, OpKind::Start)).is_none());
    }

    #[test]
    fn start_end_report_actual_counts() {
        let g = Dfg::new();
        assert_eq!(g.start(), Err(DfgError::StartCount(0)));
        assert_eq!(g.end(), Err(DfgError::EndCount(0)));
        let mut g = Dfg::new();
        g.add(OpKind::Start);
        g.add(OpKind::Start);
        g.add(OpKind::End { inputs: 1 });
        assert_eq!(g.start(), Err(DfgError::StartCount(2)));
        assert_eq!(g.end(), Ok(OpId(2)));
    }

    #[test]
    fn op_id_space_exhaustion_is_typed() {
        assert_eq!(Dfg::op_id_for_len(0), Ok(OpId(0)));
        assert_eq!(Dfg::op_id_for_len(u32::MAX as usize), Ok(OpId(u32::MAX)));
        let over = (u32::MAX as usize) + 1;
        assert_eq!(
            Dfg::op_id_for_len(over),
            Err(DfgError::OpSpaceExhausted { ops: over })
        );
    }

    #[test]
    fn labels_and_pretty() {
        let mut g = Dfg::new();
        let s = g.add_labeled(OpKind::Start, "the source");
        assert_eq!(g.label(s), "the source");
        let (g2, ..) = tiny();
        let p = g2.pretty();
        assert_eq!(p.lines().count(), g2.len());
        assert!(p.contains("#1=1"), "immediate rendered: {p}");
        assert!(p.contains("~>"), "access arcs rendered dotted-ish");
    }

    #[test]
    fn compact_drops_isolated_ops_and_remaps() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let dead = g.add(OpKind::Identity); // never connected
        let id = g.add_labeled(OpKind::Identity, "live");
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(id, 0), ArcKind::Access);
        g.connect(Port::new(id, 0), Port::new(e, 0), ArcKind::Access);
        let map = g.compact();
        assert_eq!(g.len(), 3);
        assert_eq!(map[dead.index()], None);
        let new_id = map[id.index()].unwrap();
        assert_eq!(g.label(new_id), "live");
        assert_eq!(g.arc_count(), 2);
        assert_eq!(g.arcs()[0].to, Port::new(new_id, 0));
        assert_eq!(g.arcs()[1].to, Port::new(OpId(2), 0), "End moves down");
        crate::validate::validate(&g).unwrap();
    }

    #[test]
    fn compact_preserves_start_end_and_imms() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let st = g.add(OpKind::Store { var: VarId(0) });
        g.set_imm(st, 0, 42);
        let e = g.add(OpKind::End { inputs: 1 });
        g.add(OpKind::Merge); // isolated merge: dropped
        g.connect(Port::new(s, 0), Port::new(st, 1), ArcKind::Access);
        g.connect(Port::new(st, 0), Port::new(e, 0), ArcKind::Access);
        let map = g.compact();
        assert_eq!(g.len(), 3);
        let new_st = map[st.index()].unwrap();
        assert_eq!(g.imm(new_st, 0), Some(42));
        // Start/End always survive, even if somehow isolated.
        let mut g2 = Dfg::new();
        g2.add(OpKind::Start);
        g2.add(OpKind::End { inputs: 1 });
        g2.compact();
        assert_eq!(g2.len(), 2);
    }

    #[test]
    fn disconnect_and_retarget() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let a = g.add(OpKind::Identity);
        let b = g.add(OpKind::Identity);
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(a, 0), ArcKind::Access);
        g.connect(Port::new(a, 0), Port::new(e, 0), ArcKind::Access);
        // Retarget the arc into `a` to `b` instead.
        assert_eq!(g.retarget_input(Port::new(a, 0), Port::new(b, 0)), 1);
        assert!(g.disconnect(Port::new(a, 0), Port::new(e, 0)));
        assert!(!g.disconnect(Port::new(a, 0), Port::new(e, 0)), "already gone");
        g.connect(Port::new(b, 0), Port::new(e, 0), ArcKind::Access);
        let map = g.compact();
        assert_eq!(map[a.index()], None, "a became isolated");
        assert_eq!(g.len(), 3);
        crate::validate::validate(&g).unwrap();
    }

    #[test]
    fn set_kind_preserving_arity() {
        let mut g = Dfg::new();
        let l = g.add(OpKind::Load { var: VarId(0) });
        g.set_kind(l, OpKind::Load { var: VarId(1) });
        assert!(matches!(g.kind(l), OpKind::Load { var: VarId(1) }));
    }
}
