//! Static translation validation: abstract token-rate analysis.
//!
//! The structural checks in [`crate::validate()`] only ensure every port is
//! wired; they say nothing about *how many* tokens an arc carries. The
//! paper's correctness argument rests on token linearity: in every tag
//! context that reaches an operator, each input arc delivers exactly one
//! token per activation. This module proves that property abstractly.
//!
//! ## The abstraction
//!
//! Each output port is assigned a *context set*: a set of [`Cube`]s, each
//! describing one family of tag contexts in which the port emits exactly
//! one token. A cube records
//!
//! - the loop tags held (`λ` markers, keyed by [`cf2df_cfg::LoopId`] so the
//!   per-line loop-entry operators of one loop unify), and
//! - the switch guards taken (keyed by the *predicate source port*, so the
//!   per-line switches of one fork unify).
//!
//! `Start` emits in the single empty context. Switches refine contexts by
//! an arm guard; merges union contexts and cancel complete sibling sets
//! (all arms of one guard present with the same residue); loop entries add
//! a `λ`, loop exits strip it together with every guard introduced inside
//! the loop. Strict (rendezvous) operators require all arc-fed inputs to
//! carry *canonically equal* context sets — a mismatch means some context
//! gets a token on one port and not the other, i.e. an arc provably
//! carries 0 or ≥ 2 tokens per activation.
//!
//! Cycles must be gated: the only arcs allowed to close a cycle are those
//! into a loop-entry's backedge port or a `PrevIter` input (the Fig 14
//! cross-iteration chain). Everything else is evaluated in one topological
//! pass; a residual cycle is reported as ungated.
//!
//! ## What this does and does not prove
//!
//! The analysis is relative: it trusts that each switch's arms partition
//! every tag context (the predicate produces one boolean per context) and
//! that a loop's controlling predicate eventually selects the exit arm
//! exactly once per entry. Under those assumptions, a clean report means
//! every arc carries exactly one token per activation in its context, all
//! loop tags are stripped before `End`, and no merge can receive two
//! tokens under one tag. It does *not* prove termination, nor deadness of
//! arms under constant predicates beyond immediate-operand switches.
//!
//! ## Representation
//!
//! Each analysis interns the graph's loops and guard keys into dense
//! indices, in ascending [`LoopId`] / [`GuardKey`] order, and lays a cube
//! out as a few `u64` words whose count is chosen per graph, with no cap:
//! a loop mask (bit *i* = the *i*-th loop), a guard *care* mask and a
//! guard *value* mask (each key owns a fixed bit field holding its chosen
//! arm), and a flag word for `crossiter`. A context set is a sorted,
//! duplicate-free run of such cubes, stored inline up to two cubes of a
//! graph with at most 64 loops and 64 guard bits.
//!
//! Sets are kept in the canonical cube order: lexicographic over the
//! ascending loops, then over the ascending `(key, (arm, arms))` guards,
//! then `crossiter` — the order of ordered sets of those components, not
//! the order of the masks as integers (`{λ0, λ6} < {λ3}`). Rendered
//! contexts, the order of defects and which sibling family `reduce`
//! cancels first all depend on it.

use crate::graph::{ArcIndex, Dfg, OpId, Port};
use crate::op::OpKind;
use crate::validate::{validate_indexed, DfgError};
use cf2df_cfg::LoopId;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::fmt;

/// Identifies the branching decision a guard was introduced by.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum GuardKey {
    /// A switch whose predicate input is fed from this output port. All
    /// per-line switches of one fork share the predicate value, so they
    /// refine contexts identically.
    Pred(Port),
    /// Which of a multi-exit loop's exit sites the activation's single
    /// exit token left through. A loop with `break`-style early exits has
    /// several exit sites; exactly one fires per activation, so their
    /// post-loop contexts are disjoint arms of this guard.
    Exit(LoopId),
}

impl fmt::Display for GuardKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardKey::Pred(p) => write!(f, "pred({:?}.{})", p.op, p.port),
            GuardKey::Exit(l) => write!(f, "exit(L{})", l.0),
        }
    }
}

/// Where one guard key lives in a cube's care/value words.
struct Field {
    key: GuardKey,
    word: usize,
    shift: u32,
    /// Bits holding the chosen arm.
    arm_bits: u32,
    /// Bits holding the arity code: zero unless the key's switches
    /// disagree on their number of arms.
    code_bits: u32,
    /// The key's arities, ascending, as a range of `Domain::arities`; the
    /// code indexes it.
    arities: std::ops::Range<usize>,
}

impl Field {
    fn width(&self) -> u32 {
        self.arm_bits + self.code_bits
    }

    /// The field's bits within its word.
    fn mask(&self) -> u64 {
        ((1u64 << self.width()) - 1) << self.shift
    }
}

/// The cube layout of one graph: its interned loops and guard keys and
/// the word widths they need. A cube is `stride()` words:
/// `[loops; wl] [care; wv] [value; wv] [crossiter]`.
struct Domain {
    /// Interned loops, ascending: loop-mask bit `i` is `loops[i]`.
    loops: Vec<LoopId>,
    /// Interned guard keys, ascending, with their bit fields laid out in
    /// that order (a field never straddles a word).
    fields: Vec<Field>,
    arities: Vec<u16>,
    wl: usize,
    wv: usize,
    /// The arm bits of every field: two cubes conflict when a key both
    /// carry differs here.
    arm_mask: Vec<u64>,
    /// The field owning each guard bit (`u32::MAX` for padding).
    field_at: Vec<u32>,
}

impl Domain {
    /// Intern `loops` and the `(key, arity)` pairs switches and exits can
    /// introduce. Duplicates and order do not matter.
    fn new(mut loops: Vec<LoopId>, mut keys: Vec<(GuardKey, u16)>) -> Domain {
        loops.sort_unstable();
        loops.dedup();
        keys.sort_unstable();
        keys.dedup();
        let mut fields: Vec<Field> = Vec::new();
        let mut arities = Vec::with_capacity(keys.len());
        let (mut word, mut bit) = (0usize, 0u32);
        for group in keys.chunk_by(|a, b| a.0 == b.0) {
            let lo = arities.len();
            arities.extend(group.iter().map(|&(_, n)| n));
            let max_arm = group[group.len() - 1].1.saturating_sub(1);
            let arm_bits = bits_for(u64::from(max_arm));
            let code_bits = if group.len() > 1 {
                bits_for(group.len() as u64 - 1)
            } else {
                0
            };
            if bit + arm_bits + code_bits > 64 {
                word += 1;
                bit = 0;
            }
            fields.push(Field {
                key: group[0].0,
                word,
                shift: bit,
                arm_bits,
                code_bits,
                arities: lo..arities.len(),
            });
            bit += arm_bits + code_bits;
        }
        let wv = if fields.is_empty() { 0 } else { word + 1 };
        let mut arm_mask = vec![0u64; wv];
        let mut field_at = vec![u32::MAX; wv * 64];
        for (k, f) in fields.iter().enumerate() {
            arm_mask[f.word] |= ((1u64 << f.arm_bits) - 1) << (f.shift + f.code_bits);
            for b in f.shift..f.shift + f.width() {
                field_at[f.word * 64 + b as usize] = k as u32;
            }
        }
        Domain {
            wl: loops.len().div_ceil(64),
            loops,
            fields,
            arities,
            wv,
            arm_mask,
            field_at,
        }
    }

    /// Words per cube.
    fn stride(&self) -> usize {
        self.wl + 2 * self.wv + 1
    }

    fn flag(&self) -> usize {
        self.wl + 2 * self.wv
    }

    fn loop_index(&self, l: LoopId) -> usize {
        self.loops.binary_search(&l).expect("loop interned")
    }

    fn key_index(&self, key: GuardKey) -> usize {
        self.fields
            .binary_search_by(|f| f.key.cmp(&key))
            .expect("guard key interned")
    }

    /// The loop-mask words of a cube.
    fn loops_of<'c>(&self, c: &'c [u64]) -> &'c [u64] {
        &c[..self.wl]
    }

    fn care<'c>(&self, c: &'c [u64]) -> &'c [u64] {
        &c[self.wl..self.wl + self.wv]
    }

    fn val<'c>(&self, c: &'c [u64]) -> &'c [u64] {
        &c[self.wl + self.wv..self.flag()]
    }

    fn has_loop(&self, c: &[u64], li: usize) -> bool {
        c[li / 64] >> (li % 64) & 1 != 0
    }

    fn crossiter(&self, c: &[u64]) -> bool {
        c[self.flag()] != 0
    }

    fn set_crossiter(&self, c: &mut [u64], on: bool) {
        c[self.flag()] = u64::from(on);
    }

    /// The guard `c` carries for key `k`, as `(arm, arms)`.
    fn guard(&self, c: &[u64], k: usize) -> Option<(u16, u16)> {
        let f = &self.fields[k];
        if self.care(c)[f.word] >> f.shift & 1 == 0 {
            return None;
        }
        let v = (self.val(c)[f.word] & f.mask()) >> f.shift;
        let code = (v & ((1u64 << f.code_bits) - 1)) as usize;
        Some((
            (v >> f.code_bits) as u16,
            self.arities[f.arities.start + code],
        ))
    }

    /// Set (or overwrite) `c`'s guard for key `k`.
    fn set_guard(&self, c: &mut [u64], k: usize, arm: u16, arms: u16) {
        let f = &self.fields[k];
        let code = self.arities[f.arities.clone()]
            .iter()
            .position(|&a| a == arms)
            .expect("arity interned for its key");
        let enc = (u64::from(arm) << f.code_bits | code as u64) << f.shift;
        let m = f.mask();
        c[self.wl + f.word] |= m;
        let v = &mut c[self.wl + self.wv + f.word];
        *v = (*v & !m) | enc;
    }

    fn clear_guard(&self, c: &mut [u64], k: usize) {
        let f = &self.fields[k];
        c[self.wl + f.word] &= !f.mask();
        c[self.wl + self.wv + f.word] &= !f.mask();
    }

    /// Drop every guard whose field is set in `mask` (care-word layout).
    fn strip_guards(&self, c: &mut [u64], mask: &[u64]) {
        for (i, &m) in mask.iter().enumerate() {
            c[self.wl + i] &= !m;
            c[self.wl + self.wv + i] &= !m;
        }
    }

    /// The keys `c` carries a guard for, ascending.
    fn keys_of<'c>(&'c self, c: &'c [u64]) -> impl Iterator<Item = usize> + 'c {
        self.care(c).iter().enumerate().flat_map(move |(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let k = self.field_at[i * 64 + w.trailing_zeros() as usize] as usize;
                w &= !self.fields[k].mask();
                Some(k)
            })
        })
    }

    /// Do the cubes carry contradictory guards (a shared key with
    /// different arms)? Conflicting cubes never describe the same context.
    fn conflicts(&self, a: &[u64], b: &[u64]) -> bool {
        let (ca, cb, va, vb) = (self.care(a), self.care(b), self.val(a), self.val(b));
        (0..self.wv).any(|i| (va[i] ^ vb[i]) & ca[i] & cb[i] & self.arm_mask[i] != 0)
    }

    /// Identity used for rendezvous: loops + guards, ignoring `crossiter`.
    fn same_context(&self, a: &[u64], b: &[u64]) -> bool {
        a[..self.flag()] == b[..self.flag()]
    }

    /// The canonical cube order: lexicographic over the ascending loops,
    /// then over the ascending `(key, (arm, arms))` guards, then
    /// `crossiter`.
    fn cmp(&self, a: &[u64], b: &[u64]) -> Ordering {
        // Two ascending sequences that agree below an element only one of
        // them holds (`a` if `a_has`) are ordered by the other, the
        // lacker: it is the smaller iff it holds nothing above (it is a
        // prefix of the other).
        let by_lacker = |a_has: bool, lacker: &[u64], i: usize, bit: u64| {
            let prefix =
                lacker[i] & !(bit | (bit - 1)) == 0 && lacker[i + 1..].iter().all(|&w| w == 0);
            if a_has == prefix {
                Ordering::Greater
            } else {
                Ordering::Less
            }
        };
        let (la, lb) = (self.loops_of(a), self.loops_of(b));
        if let Some(i) = (0..self.wl).find(|&i| la[i] != lb[i]) {
            let d = la[i] ^ lb[i];
            let bit = d & d.wrapping_neg();
            let a_has = la[i] & bit != 0;
            return by_lacker(a_has, if a_has { lb } else { la }, i, bit);
        }
        let (ca, cb, va, vb) = (self.care(a), self.care(b), self.val(a), self.val(b));
        if let Some(i) = (0..self.wv).find(|&i| ca[i] != cb[i] || va[i] != vb[i]) {
            let d = (ca[i] ^ cb[i]) | (va[i] ^ vb[i]);
            let f = &self.fields[self.field_at[i * 64 + d.trailing_zeros() as usize] as usize];
            let first = 1u64 << f.shift;
            let (a_has, b_has) = (ca[i] & first != 0, cb[i] & first != 0);
            return if a_has && b_has {
                // Same key, different (arm, arms): the field encodes the
                // pair in that order.
                (va[i] & f.mask()).cmp(&(vb[i] & f.mask()))
            } else {
                by_lacker(a_has, if a_has { cb } else { ca }, i, first)
            };
        }
        a[self.flag()].cmp(&b[self.flag()])
    }

    // ---- context sets ----

    fn cubes<'s>(&self, s: &'s CubeBuf) -> std::slice::ChunksExact<'s, u64> {
        s.words().chunks_exact(self.stride())
    }

    fn cubes_mut<'s>(&self, s: &'s mut CubeBuf) -> std::slice::ChunksExactMut<'s, u64> {
        let stride = self.stride();
        s.words_mut().chunks_exact_mut(stride)
    }

    /// Restore the set invariant (sorted, no duplicates) after raw pushes
    /// or in-place edits.
    fn normalize(&self, s: &mut CubeBuf) {
        let st = self.stride();
        let w = s.words_mut();
        let n = w.len() / st;
        for i in 1..n {
            let mut j = i;
            while j > 0
                && self
                    .cmp(&w[(j - 1) * st..j * st], &w[j * st..(j + 1) * st])
                    .is_gt()
            {
                let (lo, hi) = w.split_at_mut(j * st);
                lo[(j - 1) * st..].swap_with_slice(&mut hi[..st]);
                j -= 1;
            }
        }
        let mut kept = 0;
        for i in 0..n {
            if kept > 0 && w[(kept - 1) * st..kept * st] == w[i * st..(i + 1) * st] {
                continue;
            }
            if kept != i {
                w.copy_within(i * st..(i + 1) * st, kept * st);
            }
            kept += 1;
        }
        s.truncate(kept * st);
    }

    /// The distinct contexts (cubes minus `crossiter`) of a set, in order.
    fn contexts<'s>(&'s self, s: &'s CubeBuf) -> impl Iterator<Item = &'s [u64]> + 's {
        let mut prev: Option<&[u64]> = None;
        self.cubes(s)
            .map(|c| &c[..self.flag()])
            .filter(move |&c| prev.replace(c) != Some(c))
    }

    /// Compare two sets for rendezvous, ignoring `crossiter` flags. Both
    /// are sorted by context first, so the distinct contexts come out in
    /// the same order when the sets agree.
    fn same_contexts(&self, a: &CubeBuf, b: &CubeBuf) -> bool {
        self.contexts(a).eq(self.contexts(b))
    }

    /// Merge two rendezvous-equal sets, OR-ing `crossiter` per cube.
    fn merge_crossiter(&self, a: &CubeBuf, b: &CubeBuf) -> CubeBuf {
        let mut out = a.clone();
        for c in self.cubes_mut(&mut out) {
            if !self.crossiter(c)
                && self
                    .cubes(b)
                    .any(|cb| self.crossiter(cb) && self.same_context(c, cb))
            {
                self.set_crossiter(c, true);
            }
        }
        self.normalize(&mut out);
        out
    }

    /// Cancel complete sibling sets: cubes differing only in one guard's
    /// arm, with all arms present, reduce to the cube without that guard.
    /// Iterated to a fixpoint so nested conditionals fully cancel. The
    /// first complete family in set order (then key order) goes first.
    fn reduce(&self, s: &mut CubeBuf) {
        let st = self.stride();
        loop {
            let n = self.cubes(s).len();
            let found = self.cubes(s).enumerate().find_map(|(i, cube)| {
                self.keys_of(cube).find_map(|k| {
                    let (_, arms) = self.guard(cube, k).expect("key carried");
                    if usize::from(arms) > n {
                        return None; // too few cubes for a complete family
                    }
                    let siblings = self
                        .cubes(s)
                        .filter(|&r| self.is_sibling(cube, r, k, arms))
                        .count();
                    (siblings == usize::from(arms)).then_some((i, k, arms))
                })
            });
            let Some((i, k, arms)) = found else {
                return;
            };
            let mut base = CubeBuf::new();
            base.push(&s.words()[i * st..(i + 1) * st]);
            self.clear_guard(base.words_mut(), k);
            let mut kept = CubeBuf::new();
            for r in self.cubes(s) {
                if !self.is_sibling(base.words(), r, k, arms) {
                    kept.push(r);
                }
            }
            kept.push(base.words());
            self.normalize(&mut kept);
            *s = kept;
        }
    }

    /// Is `r` the cube `c` with key `k` set to some arm of `arms`? `c`'s
    /// own value for `k` (if any) is ignored.
    fn is_sibling(&self, c: &[u64], r: &[u64], k: usize, arms: u16) -> bool {
        let f = &self.fields[k];
        let (wl, wv) = (self.wl, self.wv);
        let m = f.mask();
        r[..wl] == c[..wl]
            && r[self.flag()] == c[self.flag()]
            && (0..wv).all(|i| {
                let skip = if i == f.word { m } else { 0 };
                (r[wl + i] | skip) == (c[wl + i] | skip)
                    && (r[wl + wv + i] & !skip) == (c[wl + wv + i] & !skip)
            })
            && self.guard(r, k).is_some_and(|(_, n)| n == arms)
    }

    /// Subtract cube `b` from cube `a`: the family of contexts described by
    /// `a` but not by `b`, appended to `out` as disjoint cubes. Cubes over
    /// different loop sets or with contradictory guards are disjoint.
    /// `base` is scratch.
    fn subtract(&self, a: &[u64], b: &[u64], base: &mut Vec<u64>, out: &mut Vec<u64>) {
        if self.loops_of(a) != self.loops_of(b) || self.conflicts(a, b) {
            out.extend_from_slice(a);
            return;
        }
        // Peel off one guard of `b` that `a` lacks at a time: contexts
        // that disagree on it are kept, contexts that agree continue to
        // the next guard. No such guard: every context of `a` is in `b`.
        base.clear();
        base.extend_from_slice(a);
        for k in self.keys_of(b) {
            if self.guard(a, k).is_some() {
                continue;
            }
            let (arm, arms) = self.guard(b, k).expect("key carried");
            for other in (0..arms).filter(|&o| o != arm) {
                let start = out.len();
                out.extend_from_slice(base);
                self.set_guard(&mut out[start..], k, other, arms);
            }
            self.set_guard(base, k, arm, arms);
        }
    }

    /// The set holding only the empty context.
    fn unit(&self) -> CubeBuf {
        let mut s = CubeBuf::new();
        s.push_zeroed(self.stride());
        s
    }

    fn show<'a>(&'a self, words: &'a [u64]) -> Cube<'a> {
        Cube { dom: self, words }
    }

    fn show_set<'a>(&'a self, buf: &'a CubeBuf) -> CubeSet<'a> {
        CubeSet { dom: self, buf }
    }
}

/// Bits needed to hold `max` (at least one).
fn bits_for(max: u64) -> u32 {
    (u64::BITS - max.leading_zeros()).max(1)
}

/// Inline capacity of a [`CubeBuf`], in words: one cube of a graph with
/// up to 64 loops and guard bits each takes 4.
const INLINE_WORDS: usize = 8;

/// Flat storage for a run of cubes (`n × stride` words): inline up to
/// [`INLINE_WORDS`], on the heap beyond. The stride lives in the
/// [`Domain`]. Data is inline iff `heap` is empty.
#[derive(Clone)]
struct CubeBuf {
    len: usize,
    inline: [u64; INLINE_WORDS],
    heap: Vec<u64>,
}

impl Default for CubeBuf {
    fn default() -> Self {
        CubeBuf::new()
    }
}

impl CubeBuf {
    const fn new() -> CubeBuf {
        CubeBuf {
            len: 0,
            inline: [0; INLINE_WORDS],
            heap: Vec::new(),
        }
    }

    fn words(&self) -> &[u64] {
        if self.heap.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        if self.heap.is_empty() {
            &mut self.inline[..self.len]
        } else {
            &mut self.heap
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, cube: &[u64]) {
        let new_len = self.len + cube.len();
        if self.heap.is_empty() && new_len <= INLINE_WORDS {
            self.inline[self.len..new_len].copy_from_slice(cube);
        } else {
            if self.heap.is_empty() {
                self.heap.reserve(new_len.max(2 * INLINE_WORDS));
                self.heap.extend_from_slice(&self.inline[..self.len]);
            }
            self.heap.extend_from_slice(cube);
        }
        self.len = new_len;
    }

    fn push_zeroed(&mut self, n: usize) {
        for _ in 0..n {
            self.push(&[0]);
        }
    }

    fn truncate(&mut self, len: usize) {
        if !self.heap.is_empty() {
            self.heap.truncate(len);
        }
        self.len = self.len.min(len);
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.len = 0;
    }
}

/// One family of tag contexts delivering exactly one token: the loop
/// tags held (`λ` markers), the guards taken (`key = arm/arms`), and
/// whether the token's multiplicity is mediated by a cross-iteration
/// (`PrevIter`) chain — exactly one per iteration overall, but which
/// iteration is decided dynamically (ignored for rendezvous identity).
#[derive(Clone, Copy)]
pub struct Cube<'a> {
    dom: &'a Domain,
    words: &'a [u64],
}

impl<'a> Cube<'a> {
    /// Loop tags held, ascending.
    pub fn loops(&self) -> impl Iterator<Item = LoopId> + 'a {
        let (dom, words) = (self.dom, self.words);
        (0..dom.loops.len())
            .filter(move |&i| dom.has_loop(words, i))
            .map(move |i| dom.loops[i])
    }

    /// Guards taken, ascending by key: `(key, (arm, arms))`.
    pub fn guards(&self) -> impl Iterator<Item = (GuardKey, (u16, u16))> + 'a {
        let (dom, words) = (self.dom, self.words);
        dom.keys_of(words)
            .map(move |k| (dom.fields[k].key, dom.guard(words, k).expect("key carried")))
    }

    /// Is the token's multiplicity mediated by a cross-iteration chain?
    pub fn crossiter(&self) -> bool {
        self.dom.crossiter(self.words)
    }
}

impl fmt::Display for Cube<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut sep = "";
        for l in self.loops() {
            write!(f, "{sep}λ{}", l.0)?;
            sep = ", ";
        }
        for (k, (arm, arms)) in self.guards() {
            write!(f, "{sep}{k}={arm}/{arms}")?;
            sep = ", ";
        }
        if self.crossiter() {
            write!(f, "{sep}×iter")?;
        }
        write!(f, "}}")
    }
}

/// A canonical set of cubes (the abstract context of a port), in cube
/// order.
#[derive(Clone, Copy)]
pub struct CubeSet<'a> {
    dom: &'a Domain,
    buf: &'a CubeBuf,
}

impl<'a> CubeSet<'a> {
    /// No context delivers a token (the port or operator is dead).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The cubes, in order.
    pub fn iter(&self) -> impl Iterator<Item = Cube<'a>> + 'a {
        let dom = self.dom;
        dom.cubes(self.buf).map(move |words| Cube { dom, words })
    }
}

impl fmt::Display for CubeSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ∪ ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// The class of a certification defect (machine-readable).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DefectKind {
    /// A structural defect from [`crate::validate()`].
    Structural,
    /// A cycle not gated by loop-entry/`PrevIter` operators.
    UngatedCycle,
    /// Strict input ports of one operator carry different context sets:
    /// some context delivers 0 or ≥ 2 tokens to a rendezvous.
    RateMismatch,
    /// Two arcs into one merge-like port can deliver tokens under the same
    /// tag context (≥ 2 tokens per activation).
    MergeCollision,
    /// A strict input port never receives a token while a sibling port
    /// does: the operator can never fire and the live tokens leak.
    DeadInput,
    /// A backedge token is not gated by any in-loop guard (the loop could
    /// never take its exit arm) or lacks the loop's tag.
    UnguardedBackedge,
    /// A loop-exit input does not contradict the loop's backedge guard:
    /// the exit would fire on iterations that also continue.
    UngatedLoopExit,
    /// A loop tag survives to `End` (a loop-exit operator is missing).
    TagLeak,
    /// `End` fires only under some guard: conditional termination.
    ConditionalEnd,
    /// Two exit contexts collapse to the same outer context after tag
    /// stripping: ≥ 2 tokens leave the loop per entry.
    DuplicateAfterExit,
    /// A loop-exit or `PrevIter` input lacks the loop's `λ` tag.
    MissingLoopTag,
    /// Some iteration context neither re-enters the loop via the backedge
    /// nor reaches an exit: the loop entry stalls waiting for a token that
    /// never arrives.
    BackedgeGap,
    /// A `PrevIter` operator used outside the Fig 14 pattern (output must
    /// feed only merge ports; input must be tagged and guarded).
    PrevIterMisuse,
    /// A switch arm that can receive tokens has no outgoing arc: every
    /// token routed to it is silently dropped, starving whichever
    /// rendezvous its route was supposed to feed.
    DroppedToken,
}

impl DefectKind {
    /// Stable lower-kebab name for machine-readable reports.
    pub fn name(self) -> &'static str {
        match self {
            DefectKind::Structural => "structural",
            DefectKind::UngatedCycle => "ungated-cycle",
            DefectKind::RateMismatch => "rate-mismatch",
            DefectKind::MergeCollision => "merge-collision",
            DefectKind::DeadInput => "dead-input",
            DefectKind::UnguardedBackedge => "unguarded-backedge",
            DefectKind::UngatedLoopExit => "ungated-loop-exit",
            DefectKind::TagLeak => "tag-leak",
            DefectKind::ConditionalEnd => "conditional-end",
            DefectKind::DuplicateAfterExit => "duplicate-after-exit",
            DefectKind::MissingLoopTag => "missing-loop-tag",
            DefectKind::BackedgeGap => "backedge-gap",
            DefectKind::PrevIterMisuse => "prev-iter-misuse",
            DefectKind::DroppedToken => "dropped-token",
        }
    }
}

/// A certification defect, anchored at an operator with a path witness
/// from `Start` (the token route along which the violation manifests).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Defect {
    /// The defect class.
    pub kind: DefectKind,
    /// The operator the defect is anchored at (absent for whole-graph
    /// defects such as a missing `Start`).
    pub op: Option<OpId>,
    /// Human-readable explanation including the abstract contexts.
    pub detail: String,
    /// Operators on a path from `Start` to `op`, inclusive; empty when no
    /// anchor exists or the anchor is unreachable.
    pub witness: Vec<OpId>,
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.kind.name())?;
        if let Some(op) = self.op {
            write!(f, " at {op:?}")?;
        }
        write!(f, ": {}", self.detail)?;
        if !self.witness.is_empty() {
            write!(f, "\n    witness: ")?;
            for (i, op) in self.witness.iter().enumerate() {
                if i > 0 {
                    write!(f, " → ")?;
                }
                write!(f, "{op:?}")?;
            }
        }
        Ok(())
    }
}

/// The result of the token-rate analysis: per-operator firing contexts,
/// defects, and the gated dependence structure (for ordering queries).
pub struct Analysis {
    dom: Domain,
    cx: Contexts,
    /// The graph's arcs: happens-before queries walk all of them,
    /// backedges included. Absent when structural validation failed.
    arcs: Option<ArcIndex>,
    /// Transitive closure of the arcs, computed on the first ordering
    /// query (conservation checks ask about every conflicting memory
    /// pair).
    reach: OnceCell<Reach>,
    /// All defects found, in discovery order.
    pub defects: Vec<Defect>,
}

/// The abstract contexts of a graph's operators and output ports. Only
/// switches and loop exits give their output ports contexts of their
/// own; every other operator emits in its firing context on every port.
struct Contexts {
    /// Firing context of each operator (empty set = provably dead).
    firing: Vec<CubeBuf>,
    /// Each operator's first slot in `outs`, or `u32::MAX` when its
    /// outputs emit in its firing context.
    out_base: Vec<u32>,
    /// Contexts of the output ports that have their own.
    outs: Vec<CubeBuf>,
}

impl Contexts {
    fn new(g: &Dfg) -> Contexts {
        let mut slots = 0u32;
        let out_base = g
            .op_ids()
            .map(|op| {
                let kind = g.kind(op);
                let own = matches!(
                    kind,
                    OpKind::Switch
                        | OpKind::CaseSwitch { .. }
                        | OpKind::LoopSwitch { .. }
                        | OpKind::LoopExit { .. }
                );
                if !own {
                    return u32::MAX;
                }
                let base = slots;
                slots += kind.n_outputs() as u32;
                base
            })
            .collect();
        Contexts {
            firing: vec![CubeBuf::new(); g.len()],
            out_base,
            outs: vec![CubeBuf::new(); slots as usize],
        }
    }

    /// The slot in `outs` of an output port with a context of its own.
    fn slot(&self, p: Port) -> Option<usize> {
        let base = self.out_base[p.op.index()];
        (base != u32::MAX).then(|| base as usize + p.port as usize)
    }

    /// The context of an output port.
    fn port(&self, p: Port) -> &CubeBuf {
        match self.slot(p) {
            Some(s) => &self.outs[s],
            None => &self.firing[p.op.index()],
        }
    }

    fn clear(&mut self) {
        self.firing.iter_mut().for_each(CubeBuf::clear);
        self.outs.iter_mut().for_each(CubeBuf::clear);
    }
}

/// Reachability over all arcs as bitsets: one row per strongly connected
/// component, holding every operator reachable from its members along at
/// least one arc. Conservation asks from most memory operations, so one
/// closure is cheaper than a search per queried source.
struct Reach {
    comp: Vec<u32>,
    words: usize,
    rows: Vec<u64>,
}

impl Reach {
    /// Tarjan's algorithm, iterative. Components complete in reverse
    /// topological order, so each row is the union of rows already built.
    fn new(index: &ArcIndex, n: usize) -> Reach {
        const NONE: u32 = u32::MAX;
        let words = n.div_ceil(64);
        let (mut order, mut low) = (vec![NONE; n], vec![0u32; n]);
        let mut comp = vec![NONE; n];
        let (mut stack, mut calls, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        let mut visited = 0u32;
        for root in 0..n {
            if order[root] == NONE {
                calls.push((root, 0usize));
            }
            while let Some(&mut (v, ref mut next)) = calls.last_mut() {
                if order[v] == NONE {
                    order[v] = visited;
                    low[v] = visited;
                    visited += 1;
                    stack.push(v);
                }
                if let Some(w) = index.succs(OpId(v as u32)).get(*next) {
                    *next += 1;
                    let w = w.index();
                    if order[w] == NONE {
                        calls.push((w, 0));
                    } else if comp[w] == NONE {
                        low[v] = low[v].min(order[w]);
                    }
                    continue;
                }
                calls.pop();
                if let Some(&(u, _)) = calls.last() {
                    low[u] = low[u].min(low[v]);
                }
                if low[v] != order[v] {
                    continue;
                }
                let c = (rows.len() / words.max(1)) as u32;
                let members = stack
                    .iter()
                    .rposition(|&x| x == v)
                    .expect("v is on the stack");
                for &x in &stack[members..] {
                    comp[x] = c;
                }
                let (done, row) = {
                    rows.resize(rows.len() + words, 0);
                    let split = c as usize * words;
                    rows.split_at_mut(split)
                };
                for &x in &stack[members..] {
                    for s in index.succs(OpId(x as u32)) {
                        let s = s.index();
                        row[s / 64] |= 1 << (s % 64);
                        let d = comp[s] as usize;
                        if d != c as usize {
                            for (r, &w) in row.iter_mut().zip(&done[d * words..(d + 1) * words]) {
                                *r |= w;
                            }
                        }
                    }
                }
                stack.truncate(members);
            }
        }
        Reach { comp, words, rows }
    }

    fn reaches(&self, a: OpId, b: OpId) -> bool {
        let row = self.comp[a.index()] as usize * self.words;
        self.rows[row + b.index() / 64] >> (b.index() % 64) & 1 != 0
    }
}

impl Analysis {
    /// The abstract firing context of an operator.
    pub fn firing(&self, op: OpId) -> CubeSet<'_> {
        self.dom.show_set(&self.cx.firing[op.index()])
    }

    /// The abstract context of an output port.
    pub fn out_ctx(&self, p: Port) -> CubeSet<'_> {
        self.dom.show_set(self.cx.port(p))
    }

    /// Can operators `a` and `b` both fire within one execution trace
    /// (no pair of firing cubes carries contradictory guards)?
    pub fn may_cooccur(&self, a: OpId, b: OpId) -> bool {
        let (fa, fb) = (&self.cx.firing[a.index()], &self.cx.firing[b.index()]);
        self.dom
            .cubes(fa)
            .any(|ca| self.dom.cubes(fb).any(|cb| !self.dom.conflicts(ca, cb)))
    }

    /// Is there a directed path from `a` to `b` over any arcs, backedges
    /// included? Once token linearity holds, every arc is a happens-before
    /// edge for the firings it connects — a store whose ordering flows
    /// through a loop backedge (store in iteration *i* precedes iteration
    /// *i+1*, which precedes the exit) is still ordered before whatever
    /// consumes the circulating token after the loop. Operators on parallel
    /// unsynchronized branches have no path in either direction.
    pub fn reaches(&self, a: OpId, b: OpId) -> bool {
        if a == b {
            return true;
        }
        let Some(index) = &self.arcs else {
            return false;
        };
        self.reach
            .get_or_init(|| Reach::new(index, self.cx.firing.len()))
            .reaches(a, b)
    }
}

/// Certify a graph: structural validation plus the token-rate analysis.
/// Returns every defect found (an empty error list never occurs).
pub fn certify(g: &Dfg) -> Result<(), Vec<Defect>> {
    let a = analyze(g);
    if a.defects.is_empty() {
        Ok(())
    } else {
        Err(a.defects)
    }
}

/// Exit-site identity of a loop-exit operator: the fork arm feeding it,
/// or the site of the inner loop exit a break chains out of.
#[derive(PartialEq, Eq)]
enum SiteKey {
    Arm(Port, u16),
    Inner(LoopId, u16),
    Other,
}

/// Exit sites of every loop. All per-line switches of one fork share a
/// predicate port, so the (predicate, arm) pair identifies the site; an
/// exit fed by an inner loop's exit (a break chained out of a nested
/// loop) inherits the inner exit's site identity, which is likewise
/// shared across lines. A loop with k ≥ 2 sites (break-style early exits)
/// delivers its single exit token to exactly one of them per activation.
struct Sites {
    /// Site arm of each loop-exit operator.
    site_of: Vec<Option<u16>>,
    /// Site identities per loop index, in numbering order.
    identities: Vec<Vec<SiteKey>>,
}

impl Sites {
    fn new(g: &Dfg, index: &ArcIndex, loops: &[LoopId]) -> Sites {
        let mut sites = Sites {
            site_of: vec![None; g.len()],
            identities: (0..loops.len()).map(|_| Vec::new()).collect(),
        };
        for op in g.op_ids() {
            if let OpKind::LoopExit { loop_id } = *g.kind(op) {
                sites.site(g, index, loops, op, loop_id);
            }
        }
        sites
    }

    /// Assign (memoized) the site arm of one loop-exit operator. Chains of
    /// exits are acyclic (the non-cut graph is a DAG here), so the
    /// recursion for the `Inner` case terminates.
    fn site(
        &mut self,
        g: &Dfg,
        index: &ArcIndex,
        loops: &[LoopId],
        op: OpId,
        loop_id: LoopId,
    ) -> u16 {
        if let Some(arm) = self.site_of[op.index()] {
            return arm;
        }
        let pred_of = |op: OpId, port: usize| g.arcs()[index.ins(op, port)[0] as usize].from;
        let key = match index.ins(op, 0).first() {
            None => SiteKey::Other,
            Some(&ai) => {
                let src = g.arcs()[ai as usize].from;
                match *g.kind(src.op) {
                    OpKind::Switch | OpKind::CaseSwitch { .. } if g.imm(src.op, 1).is_none() => {
                        SiteKey::Arm(pred_of(src.op, 1), src.port)
                    }
                    // A fused loop-entry/switch steers by the same
                    // predicate its unfused switch did, so the (predicate,
                    // arm) pair still identifies the site — fused and
                    // unfused exits of one fork unify.
                    OpKind::LoopSwitch { .. } if g.imm(src.op, 2).is_none() => {
                        SiteKey::Arm(pred_of(src.op, 2), src.port)
                    }
                    OpKind::LoopExit { loop_id: inner } => {
                        let inner_arm = self.site(g, index, loops, src.op, inner);
                        SiteKey::Inner(inner, inner_arm)
                    }
                    _ => SiteKey::Other,
                }
            }
        };
        let ids = &mut self.identities[loops.binary_search(&loop_id).expect("loop interned")];
        let arm = match ids.iter().position(|k| *k == key) {
            Some(a) => a,
            None => {
                ids.push(key);
                ids.len() - 1
            }
        } as u16;
        self.site_of[op.index()] = Some(arm);
        arm
    }

    /// The site arm of loop-exit operator `op`.
    fn of(&self, op: OpId) -> u16 {
        self.site_of[op.index()].expect("loop exit has a site")
    }

    fn count(&self, li: usize) -> u16 {
        self.identities[li].len() as u16
    }
}

/// BFS parents from `Start`, for path witnesses.
struct Witnesses {
    parent: Vec<Option<OpId>>,
    reached: Vec<bool>,
}

impl Witnesses {
    fn new(g: &Dfg, index: &ArcIndex) -> Witnesses {
        let mut parent = vec![None; g.len()];
        let mut reached = vec![false; g.len()];
        if let Ok(start) = g.start() {
            reached[start.index()] = true;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                for &s in index.succs(v) {
                    if !reached[s.index()] {
                        reached[s.index()] = true;
                        parent[s.index()] = Some(v);
                        queue.push_back(s);
                    }
                }
            }
        }
        Witnesses { parent, reached }
    }

    fn path_to(&self, op: OpId) -> Vec<OpId> {
        if op.index() >= self.reached.len() || !self.reached[op.index()] {
            return Vec::new();
        }
        let mut path = vec![op];
        let mut cur = op;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

/// The evaluation state shared by the operator rules.
struct Eval<'g> {
    g: &'g Dfg,
    index: &'g ArcIndex,
    dom: Domain,
    /// Per loop index, the guard fields introduced inside that loop
    /// (care-word layout): the guards its exits strip. Grows as guard
    /// keys are first seen, so a strip only drops keys already met.
    strip: Vec<u64>,
    key_seen: Vec<bool>,
    /// Loops whose exit sites are genuine alternatives.
    exclusive_exit: Vec<bool>,
    sites: Sites,
    /// Contexts consumed into a Fig 14 cross-iteration chain per loop
    /// index (the cubes a merge with a `PrevIter` arc receives,
    /// pre-weakening). These count as exit consumption for the
    /// backedge-coverage check.
    chain_feed: Vec<Vec<u64>>,
    /// This round's defects, rendered once the round is known to be the
    /// final one (most rounds that grow the exclusive set report merge
    /// collisions the exit guards then resolve).
    found: Vec<Found>,
}

/// A defect as recorded during a round.
enum Found {
    Defect(DefectKind, OpId, String),
    /// Arcs from two ports into a merge-like port of `op` can both deliver
    /// under the two cubes held back to back in the buffer.
    Collision(OpId, Port, Port, CubeBuf),
}

impl Eval<'_> {
    fn defect(&mut self, kind: DefectKind, op: OpId, detail: String) {
        self.found.push(Found::Defect(kind, op, detail));
    }

    /// Render the final round's defects, with path witnesses.
    fn defects(&mut self) -> Vec<Defect> {
        let witnesses = OnceCell::new();
        let st = self.dom.stride();
        std::mem::take(&mut self.found)
            .into_iter()
            .map(|found| {
                let (kind, op, detail) = match found {
                    Found::Defect(kind, op, detail) => (kind, op, detail),
                    Found::Collision(op, a, b, cubes) => (
                        DefectKind::MergeCollision,
                        op,
                        format!(
                            "arcs from {:?}.{} and {:?}.{} can both deliver under {} ∩ {}",
                            a.op,
                            a.port,
                            b.op,
                            b.port,
                            self.dom.show(&cubes.words()[..st]),
                            self.dom.show(&cubes.words()[st..])
                        ),
                    ),
                };
                let witness = witnesses
                    .get_or_init(|| Witnesses::new(self.g, self.index))
                    .path_to(op);
                Defect {
                    kind,
                    op: Some(op),
                    detail,
                    witness,
                }
            })
            .collect()
    }

    /// Source port of the single arc into strict port `p` of `op`.
    fn feeder(&self, op: OpId, p: usize) -> Port {
        self.g.arcs()[self.index.ins(op, p)[0] as usize].from
    }

    /// Context of a strict (single-arc) input port; `None` for immediate
    /// ports.
    fn port_ctx<'s>(&self, cx: &'s Contexts, op: OpId, p: usize) -> Option<&'s CubeBuf> {
        if self.g.imm(op, p).is_some() {
            return None;
        }
        debug_assert_eq!(
            self.index.ins(op, p).len(),
            1,
            "strict port has exactly one arc"
        );
        Some(cx.port(self.feeder(op, p)))
    }

    /// Record guard key `k`'s loop set (the loops active where it was
    /// introduced) the first time the key is met.
    fn see_key(&mut self, k: usize, loops: &[u64]) {
        if std::mem::replace(&mut self.key_seen[k], true) {
            return;
        }
        let f = &self.dom.fields[k];
        let wv = self.dom.wv;
        for li in 0..self.dom.loops.len() {
            if loops[li / 64] >> (li % 64) & 1 != 0 {
                self.strip[li * wv + f.word] |= f.mask();
            }
        }
    }

    /// Strip loop `li`'s tag and every guard introduced inside it.
    fn strip_loop(&self, c: &mut [u64], li: usize) {
        let wv = self.dom.wv;
        c[li / 64] &= !(1 << (li % 64));
        self.dom
            .strip_guards(c, &self.strip[li * wv..(li + 1) * wv]);
    }

    /// Rendezvous of all arc-fed strict ports; reports mismatches.
    fn rendezvous(&mut self, cx: &Contexts, op: OpId, ports: std::ops::Range<usize>) -> CubeBuf {
        let mut first: Option<(usize, &CubeBuf)> = None;
        // The first port's set with every later port's `crossiter` flags
        // OR-ed in, once some later port carries one.
        let mut merged: Option<CubeBuf> = None;
        for p in ports {
            let Some(c) = self.port_ctx(cx, op, p) else {
                continue;
            };
            let Some((p0, f)) = first else {
                first = Some((p, c));
                continue;
            };
            // Identical sets (the common case) trivially agree.
            if c.words() != f.words() {
                if c.is_empty() != f.is_empty() {
                    let (dead, live) = if c.is_empty() { (p, p0) } else { (p0, p) };
                    let detail = format!(
                        "input port {dead} never receives a token while port {live} \
                         receives {}: tokens leak at the rendezvous",
                        self.dom.show_set(if c.is_empty() { f } else { c })
                    );
                    self.defect(DefectKind::DeadInput, op, detail);
                    continue;
                }
                if !self.dom.same_contexts(c, f) {
                    let detail = format!(
                        "input port {p0} receives {} but port {p} receives {}: some \
                         context delivers 0 or ≥2 tokens",
                        self.dom.show_set(f),
                        self.dom.show_set(c)
                    );
                    self.defect(DefectKind::RateMismatch, op, detail);
                    continue;
                }
            }
            if self.dom.cubes(c).any(|cube| self.dom.crossiter(cube)) {
                merged = Some(self.dom.merge_crossiter(merged.as_ref().unwrap_or(f), c));
            }
        }
        merged
            .or_else(|| first.map(|(_, f)| f.clone()))
            .unwrap_or_default()
    }

    /// Union of a merge-like port's arcs with a collision check.
    /// `PrevIter` arcs are excluded: they trigger cross-iteration
    /// weakening of the result instead of contributing contexts.
    fn merge_union(&mut self, cx: &Contexts, op: OpId, port: usize) -> CubeBuf {
        let (g, dom) = (self.g, &self.dom);
        let ins = self.index.ins(op, port);
        let src = |ai: u32| {
            let from = g.arcs()[ai as usize].from;
            let fed = !matches!(g.kind(from.op), OpKind::PrevIter { .. });
            fed.then(|| (from, cx.port(from)))
        };
        for (i, &ai) in ins.iter().enumerate() {
            let Some((a, si)) = src(ai) else { continue };
            for ci in dom.cubes(si) {
                for (b, sj) in ins[i + 1..].iter().filter_map(|&aj| src(aj)) {
                    for cj in dom.cubes(sj) {
                        if dom.loops_of(ci) == dom.loops_of(cj)
                            && !dom.conflicts(ci, cj)
                            && !(dom.crossiter(ci) || dom.crossiter(cj))
                        {
                            let mut cubes = CubeBuf::new();
                            cubes.push(ci);
                            cubes.push(cj);
                            self.found.push(Found::Collision(op, a, b, cubes));
                        }
                    }
                }
            }
        }
        let mut set = CubeBuf::new();
        for (_, s) in ins.iter().filter_map(|&ai| src(ai)) {
            for c in dom.cubes(s) {
                set.push(c);
            }
        }
        dom.normalize(&mut set);
        dom.reduce(&mut set);
        set
    }

    /// `set` with loop `li`'s tag added to every cube.
    fn tagged(&self, set: &CubeBuf, li: usize) -> CubeBuf {
        let mut out = set.clone();
        for c in self.dom.cubes_mut(&mut out) {
            c[li / 64] |= 1 << (li % 64);
        }
        self.dom.normalize(&mut out);
        out
    }

    /// The contexts of a switch's arms: every firing cube refined by
    /// guard `k`, minus the cubes that contradict an arm.
    fn arm_sets(&mut self, cx: &mut Contexts, op: OpId, firing: &CubeBuf, k: usize, arms: usize) {
        if !self.key_seen[k] {
            let mut loops = vec![0u64; self.dom.wl];
            for c in self.dom.cubes(firing) {
                for (l, &w) in loops.iter_mut().zip(self.dom.loops_of(c)) {
                    *l |= w;
                }
            }
            self.see_key(k, &loops);
        }
        let base = cx
            .slot(Port::new(op, 0))
            .expect("switch arms have contexts");
        for arm in 0..arms {
            let mut set = CubeBuf::new();
            for cube in self.dom.cubes(firing) {
                match self.dom.guard(cube, k) {
                    // Contradictory guard: this arm is dead for this cube.
                    Some((have, _)) if usize::from(have) != arm => {}
                    _ => set.push(cube),
                }
            }
            for c in self.dom.cubes_mut(&mut set) {
                self.dom.set_guard(c, k, arm as u16, arms as u16);
            }
            self.dom.normalize(&mut set);
            cx.outs[base + arm] = set;
        }
    }

    /// Mark the multi-exit loops whose exit sites are pairwise exclusive
    /// given the contexts evaluated so far; returns whether any was new.
    fn widen_exclusive(&mut self, cx: &Contexts, exits_of: &[Vec<OpId>]) -> bool {
        let mut grew = false;
        for (li, exits) in exits_of.iter().enumerate() {
            if self.exclusive_exit[li] || self.sites.count(li) < 2 {
                continue;
            }
            let exclusive = exits.iter().enumerate().all(|(i, &x)| {
                exits[i + 1..].iter().all(|&y| {
                    self.sites.of(x) == self.sites.of(y)
                        || self.dom.cubes(&cx.firing[x.index()]).all(|a| {
                            self.dom
                                .cubes(&cx.firing[y.index()])
                                .all(|b| self.dom.conflicts(a, b))
                        })
                })
            });
            if exclusive {
                self.exclusive_exit[li] = true;
                grew = true;
            }
        }
        grew
    }

    /// Evaluate one operator's rule.
    fn op(&mut self, cx: &mut Contexts, op: OpId) {
        let g = self.g;
        let own = |cx: &Contexts, port: usize| cx.slot(Port::new(op, port)).expect("own context");
        match *g.kind(op) {
            OpKind::Start => {
                cx.firing[op.index()] = self.dom.unit();
            }
            OpKind::End { inputs } => {
                for p in 0..inputs as usize {
                    let Some(c) = self.port_ctx(cx, op, p) else {
                        continue;
                    };
                    if c.is_empty() {
                        self.defect(
                            DefectKind::DeadInput,
                            op,
                            format!("End port {p} never receives a token: no termination"),
                        );
                        continue;
                    }
                    let mut found = Vec::new();
                    for cube in self.dom.cubes(c) {
                        let cube = self.dom.show(cube);
                        if cube.loops().next().is_some() {
                            found.push((
                                DefectKind::TagLeak,
                                format!(
                                    "End port {p} receives {cube}: loop tags survive to \
                                     End (missing loop-exit)"
                                ),
                            ));
                        } else if cube.guards().next().is_some() {
                            found.push((
                                DefectKind::ConditionalEnd,
                                format!(
                                    "End port {p} receives {cube}: termination is \
                                     conditional on a guard"
                                ),
                            ));
                        }
                    }
                    for (kind, detail) in found {
                        self.defect(kind, op, detail);
                    }
                }
                cx.firing[op.index()] = self.dom.unit();
            }
            OpKind::Merge => {
                let mut pi_loops: Vec<usize> = self
                    .index
                    .ins(op, 0)
                    .iter()
                    .filter_map(|&ai| match *g.kind(g.arcs()[ai as usize].from.op) {
                        OpKind::PrevIter { loop_id } => Some(self.dom.loop_index(loop_id)),
                        _ => None,
                    })
                    .collect();
                pi_loops.sort_unstable();
                pi_loops.dedup();
                let mut set = self.merge_union(cx, op, 0);
                for &li in &pi_loops {
                    self.chain_feed[li].extend_from_slice(set.words());
                }
                // Weaken: the cross-iteration chain delivers the union
                // once per iteration of each loop, so guards introduced
                // inside it are stripped and the result is flagged.
                let wv = self.dom.wv;
                for &li in &pi_loops {
                    let strip = &self.strip[li * wv..(li + 1) * wv];
                    for c in self.dom.cubes_mut(&mut set) {
                        self.dom.strip_guards(c, strip);
                        self.dom.set_crossiter(c, true);
                    }
                    self.dom.normalize(&mut set);
                }
                cx.firing[op.index()] = set;
            }
            OpKind::LoopEntry { loop_id } => {
                // Port 1 (backedge) is cut: checked in the post-pass.
                let r0 = self.merge_union(cx, op, 0);
                cx.firing[op.index()] = self.tagged(&r0, self.dom.loop_index(loop_id));
            }
            OpKind::LoopSwitch { loop_id } => {
                // Fused loop-entry/switch. The entry side (port 0,
                // merge-like) acquires the loop's λ exactly as the
                // loop-entry did; the predicate (port 2) must match that
                // tagged context — the rendezvous the unfused switch
                // performed; the arms refine by the predicate's guard.
                // Port 1 (backedge) is cut and checked in the post-pass,
                // like a loop-entry's.
                let r0 = self.merge_union(cx, op, 0);
                let tagged = self.tagged(&r0, self.dom.loop_index(loop_id));
                let Some(pred) = self.port_ctx(cx, op, 2) else {
                    // Constant predicate (never produced by the fusion
                    // pass): one arm statically receives everything, like
                    // a constant-predicate switch.
                    let sel = usize::from(g.imm(op, 2) == Some(0));
                    let slot = own(cx, sel);
                    cx.outs[slot] = tagged.clone();
                    cx.firing[op.index()] = tagged;
                    return;
                };
                let pred = pred.clone();
                if pred.is_empty() != tagged.is_empty() {
                    let (dead, live, ctx) = if pred.is_empty() {
                        (2, 0, &tagged)
                    } else {
                        (0, 2, &pred)
                    };
                    let detail = format!(
                        "input port {dead} never receives a token while port {live} \
                         receives {}: tokens leak at the rendezvous",
                        self.dom.show_set(ctx)
                    );
                    self.defect(DefectKind::DeadInput, op, detail);
                } else if !self.dom.same_contexts(&pred, &tagged) {
                    let detail = format!(
                        "the retagged entry context is {} but the predicate port \
                         receives {}: some context delivers 0 or ≥2 tokens",
                        self.dom.show_set(&tagged),
                        self.dom.show_set(&pred)
                    );
                    self.defect(DefectKind::RateMismatch, op, detail);
                }
                let f = self.dom.merge_crossiter(&tagged, &pred);
                let k = self.dom.key_index(GuardKey::Pred(self.feeder(op, 2)));
                self.arm_sets(cx, op, &f, k, 2);
                cx.firing[op.index()] = f;
            }
            OpKind::LoopExit { loop_id } => {
                let li = self.dom.loop_index(loop_id);
                let input = self.port_ctx(cx, op, 0).cloned().unwrap_or_default();
                let exit_key = self.exclusive_exit[li].then(|| {
                    (
                        self.dom.key_index(GuardKey::Exit(loop_id)),
                        self.sites.of(op),
                        self.sites.count(li),
                    )
                });
                // Stripped cubes, one per tagged input cube, in order.
                // Exit contexts that conflict on an in-loop guard are
                // alternative per-iteration paths delivering one token per
                // activation, so only non-conflicting pre-strip cubes that
                // collapse together indicate a duplicated exit token.
                let mut out = CubeBuf::new();
                let st = self.dom.stride();
                for (i, cube) in self.dom.cubes(&input).enumerate() {
                    if !self.dom.has_loop(cube, li) {
                        let detail = format!(
                            "loop-exit for λ{} receives {} without that tag",
                            loop_id.0,
                            self.dom.show(cube)
                        );
                        self.defect(DefectKind::MissingLoopTag, op, detail);
                        continue;
                    }
                    let at = out.len;
                    out.push(cube);
                    self.strip_loop(&mut out.words_mut()[at..], li);
                    self.dom.set_crossiter(&mut out.words_mut()[at..], false);
                    if let Some((k, site, n_sites)) = exit_key {
                        self.see_key(k, self.dom.loops_of(&out.words()[at..]));
                        self.dom
                            .set_guard(&mut out.words_mut()[at..], k, site, n_sites);
                    }
                    let stripped = &out.words()[at..at + st];
                    let duplicate = self
                        .dom
                        .cubes(&input)
                        .take(i)
                        .filter(|p| self.dom.has_loop(p, li))
                        .zip(out.words().chunks_exact(st))
                        .any(|(p, s)| s == stripped && !self.dom.conflicts(p, cube));
                    if duplicate {
                        let detail = format!(
                            "two co-deliverable exit contexts collapse to {} after \
                             stripping λ{}: ≥2 tokens leave the loop per entry",
                            self.dom.show(stripped),
                            loop_id.0
                        );
                        self.defect(DefectKind::DuplicateAfterExit, op, detail);
                    }
                }
                self.dom.normalize(&mut out);
                let slot = own(cx, 0);
                cx.outs[slot] = out;
                cx.firing[op.index()] = input;
            }
            OpKind::PrevIter { .. } => {
                // Input is cut; output feeds only merges (post-pass
                // checked), which weaken instead of reading this context:
                // it never fires in a context of its own.
            }
            OpKind::Switch | OpKind::CaseSwitch { .. } => {
                let kind = g.kind(op);
                let arms = kind.n_outputs();
                match g.imm(op, 1) {
                    Some(c) => {
                        // Constant predicate: the selected arm statically
                        // receives everything, the others nothing.
                        let sel = match kind {
                            OpKind::Switch => usize::from(c == 0),
                            _ if c >= 0 && (c as usize) < arms - 1 => c as usize,
                            _ => arms - 1,
                        };
                        let data = self.port_ctx(cx, op, 0).cloned().unwrap_or_default();
                        let slot = own(cx, sel);
                        cx.outs[slot] = data.clone();
                        cx.firing[op.index()] = data;
                    }
                    None => {
                        let f = self.rendezvous(cx, op, 0..2);
                        let k = self.dom.key_index(GuardKey::Pred(self.feeder(op, 1)));
                        self.arm_sets(cx, op, &f, k, arms);
                        cx.firing[op.index()] = f;
                    }
                }
            }
            ref kind => {
                // Strict operators: rendezvous of all arc-fed inputs, all
                // outputs emit in the firing context.
                let f = self.rendezvous(cx, op, 0..kind.n_inputs());
                cx.firing[op.index()] = f;
            }
        }
    }
}

/// Run the full analysis, returning contexts alongside any defects. If
/// structural validation fails, the rate analysis is skipped (its
/// preconditions do not hold) and only structural defects are reported.
pub fn analyze(g: &Dfg) -> Analysis {
    let mut an = Analysis {
        dom: Domain::new(Vec::new(), Vec::new()),
        cx: Contexts::new(g),
        arcs: None,
        reach: OnceCell::new(),
        defects: Vec::new(),
    };

    let index = g.arc_index();
    if let Err(errs) = validate_indexed(g, &index) {
        let witnesses = Witnesses::new(g, &index);
        for e in errs {
            let op = match e {
                DfgError::StartCount(_)
                | DfgError::EndCount(_)
                | DfgError::OpSpaceExhausted { .. } => None,
                DfgError::UnfedInput(op, _)
                | DfgError::MultiplyFedInput(op, _)
                | DfgError::ArcIntoImmediate(op, _)
                | DfgError::AllImmediate(op)
                | DfgError::Unreachable(op) => Some(op),
            };
            an.defects.push(Defect {
                kind: DefectKind::Structural,
                op,
                detail: e.to_string(),
                witness: op.map(|o| witnesses.path_to(o)).unwrap_or_default(),
            });
        }
        return an;
    }
    let arcs = g.arcs();

    // Cut arcs: the only arcs allowed to close cycles. Kahn topological
    // sort over the rest; a residue is an ungated cycle.
    let cut = |a: &crate::graph::Arc| match g.kind(a.to.op) {
        OpKind::LoopEntry { .. } | OpKind::LoopSwitch { .. } => a.to.port == 1,
        OpKind::PrevIter { .. } => true,
        _ => false,
    };
    let mut indeg = vec![0usize; g.len()];
    for a in arcs.iter().filter(|a| !cut(a)) {
        indeg[a.to.op.index()] += 1;
    }
    let mut order = Vec::with_capacity(g.len());
    let mut queue: Vec<OpId> = g.op_ids().filter(|o| indeg[o.index()] == 0).collect();
    while let Some(v) = queue.pop() {
        order.push(v);
        for &ai in index.outs(v) {
            let a = &arcs[ai as usize];
            if !cut(a) {
                let s = a.to.op;
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
    }
    let index = an.arcs.insert(index);
    if order.len() != g.len() {
        let cycle: Vec<OpId> = g.op_ids().filter(|o| indeg[o.index()] > 0).collect();
        let names: Vec<String> = cycle
            .iter()
            .take(8)
            .map(|&o| format!("{o:?}:{}", g.kind(o).mnemonic()))
            .collect();
        an.defects.push(Defect {
            kind: DefectKind::UngatedCycle,
            op: cycle.first().copied(),
            detail: format!(
                "cycle of {} operators not gated by loop entry/exit: {}",
                cycle.len(),
                names.join(" ")
            ),
            witness: cycle,
        });
        return an;
    }

    // Intern the loops and the guard keys switches and exits can add.
    let mut loops = Vec::new();
    let mut keys = Vec::new();
    for op in g.op_ids() {
        match *g.kind(op) {
            OpKind::LoopEntry { loop_id } | OpKind::LoopExit { loop_id } => loops.push(loop_id),
            OpKind::PrevIter { loop_id } => loops.push(loop_id),
            OpKind::LoopSwitch { loop_id } => {
                loops.push(loop_id);
                if g.imm(op, 2).is_none() {
                    let pred = arcs[index.ins(op, 2)[0] as usize].from;
                    keys.push((GuardKey::Pred(pred), 2));
                }
            }
            OpKind::Switch | OpKind::CaseSwitch { .. } if g.imm(op, 1).is_none() => {
                let pred = arcs[index.ins(op, 1)[0] as usize].from;
                keys.push((GuardKey::Pred(pred), g.kind(op).n_outputs() as u16));
            }
            _ => {}
        }
    }
    loops.sort_unstable();
    loops.dedup();
    let sites = Sites::new(g, index, &loops);
    for (li, &l) in loops.iter().enumerate() {
        if sites.count(li) >= 2 {
            keys.push((GuardKey::Exit(l), sites.count(li)));
        }
    }
    let dom = Domain::new(loops, keys);
    let n_loops = dom.loops.len();
    let mut ev = Eval {
        g,
        index,
        strip: vec![0; n_loops * dom.wv],
        key_seen: vec![false; dom.fields.len()],
        exclusive_exit: vec![false; n_loops],
        sites,
        chain_feed: vec![Vec::new(); n_loops],
        found: Vec::new(),
        dom,
    };
    // Loop-exit operators of each loop index, in operator order.
    let mut exits_of: Vec<Vec<OpId>> = vec![Vec::new(); n_loops];
    for op in g.op_ids() {
        if let OpKind::LoopExit { loop_id } = *g.kind(op) {
            exits_of[ev.dom.loop_index(loop_id)].push(op);
        }
    }

    // Loops whose exit sites are genuine alternatives — every pair of
    // sites has pairwise-conflicting in-loop contexts, so exactly one
    // site's exit fires per activation (binsearch-style breaks). Non-
    // alternative multi-exit loops (a Fig 14 chain exit fires alongside
    // the value exits every activation) get no exit-choice guard.
    // Exclusivity needs the sites' evaluated contexts, and an inner
    // loop's exit-choice guard can be what makes an outer loop's sites
    // conflict, so the evaluation iterates: each round re-evaluates with
    // the guards found so far and may discover more exclusive loops. Only
    // the final round's defects are kept. The set only grows, so this
    // terminates within #loops + 1 rounds.
    loop {
        for &op in &order {
            ev.op(&mut an.cx, op);
        }
        if !ev.widen_exclusive(&an.cx, &exits_of) {
            break; // fixpoint: this round already used every guard
        }
        // Reset everything this round computed and re-evaluate.
        an.cx.clear();
        ev.strip.fill(0);
        ev.key_seen.fill(false);
        ev.chain_feed.iter_mut().for_each(Vec::clear);
        ev.found.clear();
    }
    post_pass(&mut ev, &an.cx, &exits_of);
    an.defects = ev.defects();
    an.dom = ev.dom;
    an
}

/// Backedges, loop exits, `PrevIter` discipline, dropped tokens.
fn post_pass(ev: &mut Eval<'_>, cx: &Contexts, exits_of: &[Vec<OpId>]) {
    let firing = &cx.firing;
    let g = ev.g;
    let arcs = g.arcs();
    let st = ev.dom.stride();

    // Exit-side coverage per loop: the chain feeds recorded during the
    // evaluation, plus contexts consumed by a loop-exit operator.
    let mut exit_cover = std::mem::take(&mut ev.chain_feed);
    for (li, exits) in exits_of.iter().enumerate() {
        for &op in exits {
            for c in ev.dom.cubes(&firing[op.index()]) {
                if !ev.dom.crossiter(c) && ev.dom.has_loop(c, li) {
                    exit_cover[li].extend_from_slice(c);
                }
            }
        }
    }

    // Backedge cubes per loop.
    let mut backedges: Vec<Vec<u64>> = vec![Vec::new(); ev.dom.loops.len()];
    let (mut residue, mut next, mut base) = (Vec::new(), Vec::new(), Vec::new());
    for op in g.op_ids() {
        // A fused loop-entry/switch has the same backedge obligations as a
        // loop-entry; its entry-tagged context is its firing context (for
        // a loop-entry the two coincide).
        let loop_id = match *g.kind(op) {
            OpKind::LoopEntry { loop_id } | OpKind::LoopSwitch { loop_id } => loop_id,
            _ => continue,
        };
        let li = ev.dom.loop_index(loop_id);
        let out = &firing[op.index()];
        let mine_at = backedges[li].len();
        for &ai in ev.index.ins(op, 1) {
            let src = cx.port(arcs[ai as usize].from);
            for cube in ev.dom.cubes(src) {
                if !ev.dom.has_loop(cube, li) {
                    let detail = format!(
                        "backedge of λ{} carries {} without that loop's tag",
                        loop_id.0,
                        ev.dom.show(cube)
                    );
                    ev.defect(DefectKind::MissingLoopTag, op, detail);
                    continue;
                }
                // The backedge must be strictly guarded beyond the entry's
                // own output context, else every iteration re-enters and
                // the loop can never take an exit.
                let refined = ev.dom.cubes(out).any(|o| refines(&ev.dom, cube, o));
                if !refined && !ev.dom.crossiter(cube) {
                    let detail = format!(
                        "backedge of λ{} carries {}, not guarded beyond the entry context {}",
                        loop_id.0,
                        ev.dom.show(cube),
                        ev.dom.show_set(out)
                    );
                    ev.defect(DefectKind::UnguardedBackedge, op, detail);
                }
                backedges[li].extend_from_slice(cube);
            }
        }
        // Coverage: every iteration context must either re-enter via the
        // backedge or be consumed on the exit side — a gap is a context in
        // which the backedge port waits forever and the loop stalls.
        let mine = &backedges[li][mine_at..];
        for o in ev.dom.cubes(out) {
            if ev.dom.crossiter(o) {
                continue;
            }
            residue.clear();
            residue.extend_from_slice(o);
            let subtrahends = mine
                .chunks_exact(st)
                .filter(|b| !ev.dom.crossiter(b))
                .chain(exit_cover[li].chunks_exact(st));
            for b in subtrahends {
                if residue.is_empty() {
                    break;
                }
                next.clear();
                for r in residue.chunks_exact(st) {
                    ev.dom.subtract(r, b, &mut base, &mut next);
                }
                std::mem::swap(&mut residue, &mut next);
            }
            if !residue.is_empty() {
                let detail = format!(
                    "iteration context {} of λ{} neither re-enters via the backedge \
                     nor reaches a loop exit: the entry stalls",
                    ev.dom.show(&residue[..st]),
                    loop_id.0
                );
                ev.defect(DefectKind::BackedgeGap, op, detail);
            }
        }
    }

    // Output ports with at least one consumer, for the dropped-token check.
    let mut consumed = vec![false; cx.outs.len()];
    for a in arcs {
        if let Some(s) = cx.slot(a.from) {
            consumed[s] = true;
        }
    }

    for op in g.op_ids() {
        match *g.kind(op) {
            // A switch steers its token to exactly one arm per activation;
            // an arm that can receive tokens but has no consumer drops
            // them, starving whatever the route was supposed to feed (a
            // rate the rendezvous checks cannot see when the loss hides
            // behind a cut or cross-iteration arc).
            OpKind::Switch | OpKind::CaseSwitch { .. } | OpKind::LoopSwitch { .. } => {
                for pc in 0..g.kind(op).n_outputs() {
                    let slot = cx
                        .slot(Port::new(op, pc))
                        .expect("switch arms have contexts");
                    let ctx = &cx.outs[slot];
                    if !ctx.is_empty() && !consumed[slot] {
                        let detail = format!(
                            "switch arm {pc} carries {} but has no outgoing arc: its \
                             tokens are silently dropped",
                            ev.dom.show_set(ctx)
                        );
                        ev.defect(DefectKind::DroppedToken, op, detail);
                    }
                }
            }
            OpKind::LoopExit { loop_id } => {
                let li = ev.dom.loop_index(loop_id);
                for cube in ev.dom.cubes(&firing[op.index()]) {
                    if !ev.dom.has_loop(cube, li) {
                        continue; // already reported above
                    }
                    if ev.dom.crossiter(cube) {
                        // Fig 14 pattern: the cross-iteration chain
                        // delivers once per iteration; a guard must select
                        // exactly one of those firings for the exit.
                        if ev.dom.keys_of(cube).next().is_none() {
                            let detail = format!(
                                "cross-iteration exit context {} is unguarded: it would \
                                 exit every iteration",
                                ev.dom.show(cube)
                            );
                            ev.defect(DefectKind::UngatedLoopExit, op, detail);
                        }
                        continue;
                    }
                    for b in backedges[li].chunks_exact(st) {
                        if !ev.dom.conflicts(cube, b) {
                            let detail = format!(
                                "exit context {} does not contradict backedge context {}: \
                                 the exit fires on iterations that also continue",
                                ev.dom.show(cube),
                                ev.dom.show(b)
                            );
                            ev.defect(DefectKind::UngatedLoopExit, op, detail);
                        }
                    }
                }
            }
            OpKind::PrevIter { loop_id } => {
                // Input discipline: tagged with the loop, and guarded (an
                // unguarded prev-iter retags every token, faulting at
                // iteration 0).
                let li = ev.dom.loop_index(loop_id);
                for &ai in ev.index.ins(op, 0) {
                    let src = cx.port(arcs[ai as usize].from);
                    for cube in ev.dom.cubes(src) {
                        if !ev.dom.has_loop(cube, li) {
                            let detail = format!(
                                "prev-iter for λ{} receives {} without that loop's tag",
                                loop_id.0,
                                ev.dom.show(cube)
                            );
                            ev.defect(DefectKind::MissingLoopTag, op, detail);
                        } else if ev.dom.keys_of(cube).next().is_none() {
                            let detail = format!(
                                "prev-iter input context {} is unguarded: it would retag \
                                 iteration 0 and fault",
                                ev.dom.show(cube)
                            );
                            ev.defect(DefectKind::PrevIterMisuse, op, detail);
                        }
                    }
                }
                // Output discipline: only merge ports may consume it.
                for &ai in ev.index.outs(op) {
                    let a = &arcs[ai as usize];
                    if !g.kind(a.to.op).is_merge_like(a.to.port as usize) {
                        let detail = format!(
                            "prev-iter output feeds strict port {}.{} of a {} (must feed \
                             a merge)",
                            a.to.op.index(),
                            a.to.port,
                            g.kind(a.to.op).mnemonic()
                        );
                        ev.defect(DefectKind::PrevIterMisuse, op, detail);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Does backedge cube `b` refine entry cube `o`: same loops, every guard
/// of `o` carried by `b` with the same value, and at least one more?
fn refines(dom: &Domain, b: &[u64], o: &[u64]) -> bool {
    let (cb, co, vb, vo) = (dom.care(b), dom.care(o), dom.val(b), dom.val(o));
    dom.loops_of(b) == dom.loops_of(o)
        && (0..dom.wv).all(|i| co[i] & !cb[i] == 0 && (vo[i] ^ vb[i]) & co[i] == 0)
        && cb != co
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ArcKind, Dfg, Port};
    use cf2df_cfg::{BinOp, VarId};

    fn connect(g: &mut Dfg, from: (OpId, usize), to: (OpId, usize)) {
        g.connect(
            Port::new(from.0, from.1),
            Port::new(to.0, to.1),
            ArcKind::Value,
        );
    }

    #[test]
    fn straight_line_is_clean() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let l = g.add(OpKind::Load { var: VarId(0) });
        let e = g.add(OpKind::End { inputs: 2 });
        connect(&mut g, (s, 0), (l, 0));
        connect(&mut g, (l, 0), (e, 0));
        connect(&mut g, (l, 1), (e, 1));
        certify(&g).unwrap();
    }

    /// A conditional diamond: switch → two arms → merge; both rejoin.
    fn diamond() -> (Dfg, OpId, OpId, OpId) {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let pred = g.add(OpKind::Binary { op: BinOp::Lt });
        g.set_imm(pred, 1, 10);
        let sw = g.add(OpKind::Switch);
        let a0 = g.add(OpKind::Identity);
        let a1 = g.add(OpKind::Identity);
        let m = g.add(OpKind::Merge);
        let e = g.add(OpKind::End { inputs: 1 });
        connect(&mut g, (s, 0), (pred, 0));
        connect(&mut g, (s, 0), (sw, 0));
        connect(&mut g, (pred, 0), (sw, 1));
        connect(&mut g, (sw, 0), (a0, 0));
        connect(&mut g, (sw, 1), (a1, 0));
        connect(&mut g, (a0, 0), (m, 0));
        connect(&mut g, (a1, 0), (m, 0));
        connect(&mut g, (m, 0), (e, 0));
        (g, sw, a0, m)
    }

    #[test]
    fn diamond_rejoins_cleanly() {
        let (g, ..) = diamond();
        certify(&g).unwrap();
    }

    #[test]
    fn unbalanced_merge_is_conditional_end() {
        // Remove one arm's arc into the merge: End becomes conditional.
        let (mut g, _, a0, m) = diamond();
        assert!(g.disconnect(Port::new(a0, 0), Port::new(m, 0)));
        let defects = certify(&g).unwrap_err();
        assert!(
            defects
                .iter()
                .any(|d| matches!(d.kind, DefectKind::ConditionalEnd | DefectKind::Structural)),
            "defects: {defects:?}"
        );
    }

    #[test]
    fn both_arms_to_same_dest_is_a_collision() {
        // Retarget arm 1's arc so arm 0's destination gets both.
        let (mut g, sw, a0, _) = diamond();
        assert!(g.retarget_input(Port::new(a1_of(&g, sw), 0), Port::new(a0, 0)) > 0);
        let defects = certify(&g).unwrap_err();
        assert!(
            defects
                .iter()
                .any(|d| matches!(d.kind, DefectKind::Structural)),
            "two arcs into a strict identity port: {defects:?}"
        );
    }

    fn a1_of(g: &Dfg, sw: OpId) -> OpId {
        g.arcs()
            .iter()
            .find(|a| a.from.op == sw && a.from.port == 1)
            .map(|a| a.to.op)
            .unwrap()
    }

    /// A minimal well-formed loop:
    /// start → LE ⇄ body(add) → switch(pred) → [backedge | LX → end].
    fn simple_loop() -> (Dfg, OpId, OpId, OpId) {
        let mut g = Dfg::new();
        let lid = cf2df_cfg::LoopId(0);
        let s = g.add(OpKind::Start);
        let le = g.add(OpKind::LoopEntry { loop_id: lid });
        let add = g.add(OpKind::Binary { op: BinOp::Add });
        g.set_imm(add, 1, 1);
        let pred = g.add(OpKind::Binary { op: BinOp::Lt });
        g.set_imm(pred, 1, 10);
        let sw = g.add(OpKind::Switch);
        let lx = g.add(OpKind::LoopExit { loop_id: lid });
        let e = g.add(OpKind::End { inputs: 1 });
        connect(&mut g, (s, 0), (le, 0));
        connect(&mut g, (le, 0), (add, 0));
        connect(&mut g, (add, 0), (pred, 0));
        connect(&mut g, (add, 0), (sw, 0));
        connect(&mut g, (pred, 0), (sw, 1));
        connect(&mut g, (sw, 0), (le, 1)); // true: continue
        connect(&mut g, (sw, 1), (lx, 0)); // false: exit
        connect(&mut g, (lx, 0), (e, 0));
        (g, le, sw, lx)
    }

    #[test]
    fn gated_loop_is_clean() {
        let (g, ..) = simple_loop();
        certify(&g).unwrap();
    }

    #[test]
    fn missing_loop_exit_is_a_tag_leak() {
        let (mut g, _, _, lx) = simple_loop();
        g.set_kind(lx, OpKind::Identity);
        let defects = certify(&g).unwrap_err();
        assert!(
            defects.iter().any(|d| d.kind == DefectKind::TagLeak),
            "defects: {defects:?}"
        );
    }

    #[test]
    fn ungated_cycle_is_rejected() {
        let (mut g, le, sw, _) = simple_loop();
        // Replace the loop entry with a plain merge: the cycle is no
        // longer gated by a loop operator.
        g.set_kind(le, OpKind::Synch { inputs: 2 });
        let _ = sw;
        let defects = certify(&g).unwrap_err();
        assert!(
            defects.iter().any(|d| d.kind == DefectKind::UngatedCycle),
            "defects: {defects:?}"
        );
    }

    #[test]
    fn exit_from_continue_arm_is_ungated() {
        // Move the exit arc to originate from the *continue* arm: the exit
        // no longer contradicts the backedge.
        let (mut g, _, sw, lx) = simple_loop();
        assert!(g.disconnect(Port::new(sw, 1), Port::new(lx, 0)));
        g.connect(Port::new(sw, 0), Port::new(lx, 0), ArcKind::Value);
        let defects = certify(&g).unwrap_err();
        assert!(
            defects
                .iter()
                .any(|d| d.kind == DefectKind::UngatedLoopExit),
            "defects: {defects:?}"
        );
    }

    #[test]
    fn unguarded_backedge_is_rejected() {
        // Wire the body straight back to the entry, bypassing the switch:
        // every iteration re-enters.
        let (mut g, le, sw, lx) = simple_loop();
        assert!(g.disconnect(Port::new(sw, 0), Port::new(le, 1)));
        // The body's add output loops straight back.
        let add = g
            .arcs()
            .iter()
            .find(|a| a.to.op == sw && a.to.port == 0)
            .map(|a| a.from.op)
            .unwrap();
        g.connect(Port::new(add, 0), Port::new(le, 1), ArcKind::Value);
        // Keep sw's true arm consumed to stay structurally valid.
        let _ = lx;
        let defects = certify(&g).unwrap_err();
        assert!(
            defects
                .iter()
                .any(|d| d.kind == DefectKind::UnguardedBackedge),
            "defects: {defects:?}"
        );
    }

    #[test]
    fn defects_carry_path_witnesses() {
        let (mut g, _, _, lx) = simple_loop();
        g.set_kind(lx, OpKind::Identity);
        let defects = certify(&g).unwrap_err();
        let d = defects
            .iter()
            .find(|d| d.kind == DefectKind::TagLeak)
            .unwrap();
        assert!(!d.witness.is_empty(), "witness path present");
        let start = g.start().unwrap();
        assert_eq!(d.witness.first(), Some(&start), "witness starts at Start");
        assert_eq!(d.witness.last(), d.op.as_ref(), "witness ends at defect");
        let rendered = d.to_string();
        assert!(rendered.contains("witness"), "{rendered}");
    }

    /// A set over `dom` holding one cube per guard list.
    fn set_of(dom: &Domain, cubes: &[&[(usize, u16, u16)]]) -> CubeBuf {
        let mut s = CubeBuf::new();
        for guards in cubes {
            let at = s.len;
            s.push_zeroed(dom.stride());
            for &(k, arm, arms) in guards.iter() {
                dom.set_guard(&mut s.words_mut()[at..], k, arm, arms);
            }
        }
        dom.normalize(&mut s);
        s
    }

    #[test]
    fn sibling_reduction_cancels_nested_guards() {
        let key_outer = GuardKey::Pred(Port::new(OpId(7), 0));
        let key_inner = GuardKey::Pred(Port::new(OpId(9), 0));
        let dom = Domain::new(Vec::new(), vec![(key_outer, 2), (key_inner, 2)]);
        let (outer, inner) = (dom.key_index(key_outer), dom.key_index(key_inner));
        let mut s = set_of(
            &dom,
            &[
                &[(outer, 0, 2)],
                &[(outer, 1, 2), (inner, 0, 2)],
                &[(outer, 1, 2), (inner, 1, 2)],
            ],
        );
        dom.reduce(&mut s);
        assert_eq!(dom.show_set(&s).iter().count(), 1);
        assert_eq!(s.words(), dom.unit().words());
    }

    /// The component closure answers exactly what a depth-first search
    /// from each source does, on random graphs with cycles, self-loops
    /// and parallel arcs.
    #[test]
    fn reachability_closure_matches_search() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for n in [1, 2, 5, 40, 130] {
            for _ in 0..20 {
                let mut g = Dfg::new();
                let ops: Vec<OpId> = (0..n).map(|_| g.add(OpKind::Merge)).collect();
                for _ in 0..next(2 * n + 1) {
                    let (a, b) = (ops[next(n)], ops[next(n)]);
                    g.connect(Port::new(a, 0), Port::new(b, 0), ArcKind::Value);
                }
                let index = g.arc_index();
                let reach = Reach::new(&index, n);
                for &a in &ops {
                    let mut seen = vec![false; n];
                    let mut stack = vec![a];
                    while let Some(v) = stack.pop() {
                        for &s in index.succs(v) {
                            if !std::mem::replace(&mut seen[s.index()], true) {
                                stack.push(s);
                            }
                        }
                    }
                    for &b in &ops {
                        assert_eq!(reach.reaches(a, b), seen[b.index()], "{a:?} → {b:?}");
                    }
                }
            }
        }
    }

    /// A reference cube: its sorted loops, its guards sorted by key, and
    /// `crossiter`. Tuple order on it is the canonical cube order the
    /// packed cubes must reproduce.
    type Model = (Vec<LoopId>, Vec<(GuardKey, (u16, u16))>, bool);

    /// Packed cubes order, compare and render exactly like their models,
    /// including across word boundaries (70 loops, 70 binary keys) and for
    /// a key whose switches disagree on their arity.
    #[test]
    fn packed_cubes_keep_the_lexicographic_set_order() {
        let loops: Vec<LoopId> = (0..70).map(|i| LoopId(3 * i)).collect();
        let mut keys: Vec<(GuardKey, u16)> = (0..70u32)
            .map(|i| (GuardKey::Pred(Port::new(OpId(2 * i), 0)), 2))
            .collect();
        let mixed = GuardKey::Pred(Port::new(OpId(1), 1));
        keys.extend([(mixed, 2), (mixed, 3), (GuardKey::Exit(LoopId(6)), 5)]);
        let dom = Domain::new(loops.clone(), keys.clone());
        assert_eq!((dom.wl, dom.wv), (2, 2));

        // Masks as integers disagree with the set order: {λ0, λ6} < {λ3}.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut cubes: Vec<(Model, Vec<u64>)> = Vec::new();
        for _ in 0..400 {
            let mut words = vec![0u64; dom.stride()];
            let mut m_loops = Vec::new();
            for _ in 0..next(4) {
                // Cluster picks near the word boundary and the ends.
                let li = [next(3), 62 + next(4), 67 + next(3)][next(3)];
                words[li / 64] |= 1 << (li % 64);
                m_loops.push(loops[li]);
            }
            m_loops.sort();
            m_loops.dedup();
            let mut m_guards = Vec::new();
            for _ in 0..next(4) {
                let (key, arms) = keys[[next(3), 62 + next(6), 70 + next(3)][next(3)]];
                let arms = if key == mixed { [2, 3][next(2)] } else { arms };
                let arm = next(usize::from(arms)) as u16;
                dom.set_guard(&mut words, dom.key_index(key), arm, arms);
                m_guards.retain(|&(k, _)| k != key);
                m_guards.push((key, (arm, arms)));
            }
            m_guards.sort();
            let crossiter = next(4) == 0;
            dom.set_crossiter(&mut words, crossiter);
            cubes.push(((m_loops, m_guards, crossiter), words));
        }
        for (ma, a) in &cubes {
            let shown = dom.show(a);
            assert_eq!(shown.loops().collect::<Vec<_>>(), ma.0);
            assert_eq!(shown.guards().collect::<Vec<_>>(), ma.1);
            for (mb, b) in &cubes {
                assert_eq!(
                    dom.cmp(a, b),
                    ma.cmp(mb),
                    "{} vs {}",
                    dom.show(a),
                    dom.show(b)
                );
                let conflicts = ma.1.iter().any(|(k, (arm, _))| {
                    mb.1.iter().any(|(kb, (arm_b, _))| k == kb && arm != arm_b)
                });
                assert_eq!(dom.conflicts(a, b), conflicts);
                assert_eq!(dom.same_context(a, b), (&ma.0, &ma.1) == (&mb.0, &mb.1));
            }
        }
    }
}
