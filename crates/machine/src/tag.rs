//! Iteration tags (activation contexts).
//!
//! Each loop iteration gets a distinct tag, standing in for the activation
//! frame Monsoon would allocate per iteration (§2.2). Tags form a tree:
//! the root tag is the outermost activation, and entering loop `l` at
//! iteration `i` under tag `t` produces the child tag `(t, l, i)`. Tokens
//! rendezvous only with tokens carrying the *same* tag, so different
//! iterations — and different loops — never interfere.

use crate::hash::FxHashMap;
use cf2df_cfg::LoopId;

/// A dense index identifying an iteration context.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TagId(pub u32);

impl TagId {
    /// The root (outermost) tag.
    pub const ROOT: TagId = TagId(0);

    /// The index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for TagId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The invocation/tag split of the 32-bit tag word, for executors that
/// multiplex several concurrent invocations of one graph onto a shared
/// worker pool ([`mod@crate::serve`]). The high `inv_bits` of the packed
/// word name the invocation slot; the remaining low bits carry the
/// invocation-local [`TagId`]. The split is an *explicit reservation*:
/// each inflight invocation owns a disjoint slice of the packed space,
/// so one invocation's deep loop nest can exhaust only its own slice —
/// surfaced as a per-invocation
/// [`crate::exec::MachineError::TagSpaceExhausted`] — and rendezvous
/// keys from different invocations can never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TagSplit {
    /// High bits of the packed word reserved for the invocation slot.
    inv_bits: u32,
}

impl TagSplit {
    /// The trivial split: no invocation bits, the whole word is the tag
    /// (single-invocation executors).
    pub const NONE: TagSplit = TagSplit { inv_bits: 0 };

    /// The narrowest split whose invocation field can name
    /// `max_inflight` concurrent slots (`ceil(log2(max_inflight))`
    /// bits). At least 1 bit is reserved whenever `max_inflight > 1`.
    pub fn for_inflight(max_inflight: usize) -> TagSplit {
        let n = max_inflight.clamp(1, 1 << 16) as u32;
        TagSplit {
            inv_bits: 32 - (n - 1).leading_zeros(),
        }
    }

    /// Number of invocation slots the split can name.
    pub fn slots(self) -> u32 {
        1 << self.inv_bits
    }

    /// Largest tag id representable in the per-invocation slice: packing
    /// a tag at or below this cap can never spill into the invocation
    /// field. The single-invocation split keeps the type's full range.
    pub fn tag_cap(self) -> u32 {
        if self.inv_bits == 0 {
            u32::MAX
        } else {
            (1u32 << (32 - self.inv_bits)) - 1
        }
    }

    /// Pack an invocation slot and an invocation-local tag into one
    /// word. Callers keep `tag.0 <= tag_cap()` (the interner cap) and
    /// `inv < slots()`; debug builds assert it.
    #[inline]
    pub fn pack(self, inv: u32, tag: TagId) -> u32 {
        debug_assert!(inv < self.slots());
        debug_assert!(tag.0 <= self.tag_cap());
        if self.inv_bits == 0 {
            tag.0
        } else {
            (inv << (32 - self.inv_bits)) | tag.0
        }
    }

    /// Unpack a word into `(invocation slot, local tag)` — the exact
    /// inverse of [`TagSplit::pack`].
    #[inline]
    pub fn unpack(self, packed: u32) -> (u32, TagId) {
        if self.inv_bits == 0 {
            (0, TagId(packed))
        } else {
            (packed >> (32 - self.inv_bits), TagId(packed & self.tag_cap()))
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Ctx {
    parent: TagId,
    loop_id: LoopId,
    iter: u32,
}

/// Interning table for iteration contexts. Interning guarantees that every
/// token line entering the same iteration of the same loop under the same
/// parent context receives the *same* tag, so their tokens rendezvous.
#[derive(Debug)]
pub struct TagTable {
    ctxs: Vec<Option<Ctx>>,
    /// Interner on the vendored integer hasher ([`crate::hash`]): the
    /// `(parent, loop, iter)` keys are small dense integers from the
    /// program itself, so SipHash's DoS resistance buys nothing here.
    intern: FxHashMap<(TagId, LoopId, u32), TagId>,
}

impl Default for TagTable {
    fn default() -> Self {
        Self::new()
    }
}

impl TagTable {
    /// A table containing only the root tag.
    pub fn new() -> TagTable {
        TagTable {
            ctxs: vec![None],
            intern: FxHashMap::default(),
        }
    }

    /// The tag for iteration `iter` of loop `loop_id` under `parent`, or
    /// `None` if the tag space (`u32` ids) is exhausted — the caller
    /// surfaces that as [`crate::exec::MachineError::TagSpaceExhausted`]
    /// rather than panicking mid-run.
    pub fn child(&mut self, parent: TagId, loop_id: LoopId, iter: u32) -> Option<TagId> {
        if let Some(&t) = self.intern.get(&(parent, loop_id, iter)) {
            return Some(t);
        }
        let t = TagId(u32::try_from(self.ctxs.len()).ok()?);
        self.ctxs.push(Some(Ctx {
            parent,
            loop_id,
            iter,
        }));
        self.intern.insert((parent, loop_id, iter), t);
        Some(t)
    }

    /// Decompose a tag into `(parent, loop, iteration)`; `None` for the
    /// root.
    pub fn info(&self, tag: TagId) -> Option<(TagId, LoopId, u32)> {
        self.ctxs[tag.index()].map(|c| (c.parent, c.loop_id, c.iter))
    }

    /// Nesting depth of a tag (root = 0).
    pub fn depth(&self, tag: TagId) -> u32 {
        let mut d = 0;
        let mut t = tag;
        while let Some((p, _, _)) = self.info(t) {
            d += 1;
            t = p;
        }
        d
    }

    /// Number of distinct tags created (including the root).
    pub fn len(&self) -> usize {
        self.ctxs.len()
    }

    /// Always false: the root tag always exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Human-readable rendering, e.g. `root.L0[3].L1[0]`.
    pub fn render(&self, tag: TagId) -> String {
        match self.info(tag) {
            None => "root".to_owned(),
            Some((p, l, i)) => format!("{}.{:?}[{}]", self.render(p), l, i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_has_no_info() {
        let t = TagTable::new();
        assert_eq!(t.info(TagId::ROOT), None);
        assert_eq!(t.depth(TagId::ROOT), 0);
        assert_eq!(t.render(TagId::ROOT), "root");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn children_are_interned() {
        let mut t = TagTable::new();
        let a = t.child(TagId::ROOT, LoopId(0), 3).unwrap();
        let b = t.child(TagId::ROOT, LoopId(0), 3).unwrap();
        assert_eq!(a, b, "same (parent, loop, iter) must intern to same tag");
        let c = t.child(TagId::ROOT, LoopId(0), 4).unwrap();
        assert_ne!(a, c);
        let d = t.child(TagId::ROOT, LoopId(1), 3).unwrap();
        assert_ne!(a, d);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn tag_split_reserves_disjoint_slices() {
        // Trivial split: the whole word is the tag.
        assert_eq!(TagSplit::NONE.slots(), 1);
        assert_eq!(TagSplit::NONE.tag_cap(), u32::MAX);
        assert_eq!(TagSplit::NONE.pack(0, TagId(7)), 7);
        assert_eq!(TagSplit::NONE.unpack(7), (0, TagId(7)));
        // for_inflight rounds up to the next power of two.
        assert_eq!(TagSplit::for_inflight(1), TagSplit::NONE);
        assert_eq!(TagSplit::for_inflight(2).slots(), 2);
        assert_eq!(TagSplit::for_inflight(3).slots(), 4);
        assert_eq!(TagSplit::for_inflight(4).slots(), 4);
        assert_eq!(TagSplit::for_inflight(16).slots(), 16);
        let s = TagSplit::for_inflight(4);
        assert_eq!(s.tag_cap(), (1 << 30) - 1);
        // Round-trip, and distinct invocations never collide even on
        // the same local tag.
        for inv in 0..s.slots() {
            for tag in [0u32, 1, 42, s.tag_cap()] {
                let packed = s.pack(inv, TagId(tag));
                assert_eq!(s.unpack(packed), (inv, TagId(tag)));
            }
        }
        assert_ne!(s.pack(0, TagId(5)), s.pack(1, TagId(5)));
        // The reserved slices partition the word: an invocation's slice
        // ends exactly where the next one begins.
        assert_eq!(s.pack(0, TagId(s.tag_cap())) + 1, s.pack(1, TagId(0)));
    }

    #[test]
    fn nesting_and_render() {
        let mut t = TagTable::new();
        let outer = t.child(TagId::ROOT, LoopId(1), 2).unwrap();
        let inner = t.child(outer, LoopId(0), 0).unwrap();
        assert_eq!(t.depth(inner), 2);
        assert_eq!(t.info(inner), Some((outer, LoopId(0), 0)));
        assert_eq!(t.render(inner), "root.L1[2].L0[0]");
    }
}
