//! Seeded graph mutations for validating the certifier.
//!
//! Each mutation class injects one representative translator bug into a
//! well-formed graph. The certifier ([`crate::certify()`]) must detect every
//! injected mutation — a false negative here means a class of real
//! translation bugs would ship silently. The driver is deterministic: the
//! same `(graph, class, seed)` triple always produces the same mutation.

use crate::graph::{ArcKind, Dfg, OpId, Port};
use crate::op::OpKind;

/// A class of injected translator bug.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationClass {
    /// Remove one arc: a token route silently disappears.
    DropArc,
    /// Move one switch-output arc to a different arm of the same switch:
    /// a conditional route is delivered under the wrong guard.
    RetargetSwitchOutput,
    /// Replace a loop-exit operator with a plain identity: iteration tags
    /// are never stripped.
    DeleteLoopExit,
    /// Replace a multi-arc merge with a strict single-input rendezvous:
    /// tokens that alternated now collide.
    SwapMergeForStrict,
}

impl MutationClass {
    /// All classes, for exhaustive harness sweeps.
    pub const ALL: [MutationClass; 4] = [
        MutationClass::DropArc,
        MutationClass::RetargetSwitchOutput,
        MutationClass::DeleteLoopExit,
        MutationClass::SwapMergeForStrict,
    ];

    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            MutationClass::DropArc => "drop-arc",
            MutationClass::RetargetSwitchOutput => "retarget-switch-output",
            MutationClass::DeleteLoopExit => "delete-loop-exit",
            MutationClass::SwapMergeForStrict => "swap-merge-for-strict",
        }
    }
}

/// Description of an applied mutation.
#[derive(Clone, Debug)]
pub struct Mutation {
    /// The class applied.
    pub class: MutationClass,
    /// The operator (or arc endpoint) mutated.
    pub op: OpId,
    /// Human-readable description of the exact edit.
    pub description: String,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick(seed: u64, len: usize) -> usize {
    debug_assert!(len > 0);
    let mut s = seed;
    (splitmix64(&mut s) % len as u64) as usize
}

/// Apply one seeded mutation of `class` to `g`. Returns `None` when the
/// graph has no candidate site for the class (e.g. no loops for
/// [`MutationClass::DeleteLoopExit`]); the graph is then unchanged.
pub fn mutate(g: &mut Dfg, class: MutationClass, seed: u64) -> Option<Mutation> {
    match class {
        MutationClass::DropArc => {
            if g.arc_count() == 0 {
                return None;
            }
            let a = g.arcs()[pick(seed, g.arc_count())];
            g.disconnect(a.from, a.to);
            Some(Mutation {
                class,
                op: a.to.op,
                description: format!(
                    "dropped arc {:?}.{} → {:?}.{}",
                    a.from.op, a.from.port, a.to.op, a.to.port
                ),
            })
        }
        MutationClass::RetargetSwitchOutput => {
            let candidates: Vec<usize> = g
                .arcs()
                .iter()
                .enumerate()
                .filter(|(_, a)| {
                    matches!(
                        g.kind(a.from.op),
                        OpKind::Switch | OpKind::CaseSwitch { .. }
                    )
                })
                .map(|(i, _)| i)
                .collect();
            if candidates.is_empty() {
                return None;
            }
            let a = g.arcs()[candidates[pick(seed, candidates.len())]];
            let arms = g.kind(a.from.op).n_outputs();
            let other = Port::new(a.from.op, (a.from.port as usize + 1) % arms);
            g.disconnect(a.from, a.to);
            g.connect(other, a.to, ArcKind::Value);
            Some(Mutation {
                class,
                op: a.from.op,
                description: format!(
                    "moved arc {:?}.{} → {:?}.{} to originate from arm {}",
                    a.from.op, a.from.port, a.to.op, a.to.port, other.port
                ),
            })
        }
        MutationClass::DeleteLoopExit => {
            let exits: Vec<OpId> = g
                .op_ids()
                .filter(|&o| matches!(g.kind(o), OpKind::LoopExit { .. }))
                .collect();
            if exits.is_empty() {
                return None;
            }
            let lx = exits[pick(seed, exits.len())];
            g.set_kind(lx, OpKind::Identity);
            Some(Mutation {
                class,
                op: lx,
                description: format!("replaced loop-exit {lx:?} with identity"),
            })
        }
        MutationClass::SwapMergeForStrict => {
            let index = g.arc_index();
            let merges: Vec<OpId> = g
                .op_ids()
                .filter(|&o| matches!(g.kind(o), OpKind::Merge) && index.ins(o, 0).len() >= 2)
                .collect();
            if merges.is_empty() {
                return None;
            }
            let m = merges[pick(seed, merges.len())];
            g.set_kind(m, OpKind::Synch { inputs: 1 });
            Some(Mutation {
                class,
                op: m,
                description: format!("replaced multi-arc merge {m:?} with strict synch"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use cf2df_cfg::BinOp;

    /// Loop + diamond fixture exercising every candidate class.
    fn fixture() -> Dfg {
        let mut g = Dfg::new();
        let lid = cf2df_cfg::LoopId(0);
        let s = g.add(OpKind::Start);
        let le = g.add(OpKind::LoopEntry { loop_id: lid });
        let pred = g.add(OpKind::Binary { op: BinOp::Lt });
        g.set_imm(pred, 1, 4);
        let sw = g.add(OpKind::Switch);
        let body_pred = g.add(OpKind::Binary { op: BinOp::Eq });
        g.set_imm(body_pred, 1, 0);
        let sw2 = g.add(OpKind::Switch);
        let a0 = g.add(OpKind::Identity);
        let a1 = g.add(OpKind::Identity);
        let m = g.add(OpKind::Merge);
        let lx = g.add(OpKind::LoopExit { loop_id: lid });
        let e = g.add(OpKind::End { inputs: 1 });
        let c = |g: &mut Dfg, f: (OpId, usize), t: (OpId, usize)| {
            g.connect(Port::new(f.0, f.1), Port::new(t.0, t.1), ArcKind::Value)
        };
        c(&mut g, (s, 0), (le, 0));
        c(&mut g, (le, 0), (pred, 0));
        c(&mut g, (le, 0), (sw, 0));
        c(&mut g, (pred, 0), (sw, 1));
        // Continue arm: an inner diamond, then the backedge.
        c(&mut g, (sw, 0), (body_pred, 0));
        c(&mut g, (sw, 0), (sw2, 0));
        c(&mut g, (body_pred, 0), (sw2, 1));
        c(&mut g, (sw2, 0), (a0, 0));
        c(&mut g, (sw2, 1), (a1, 0));
        c(&mut g, (a0, 0), (m, 0));
        c(&mut g, (a1, 0), (m, 0));
        c(&mut g, (m, 0), (le, 1));
        // Exit arm.
        c(&mut g, (sw, 1), (lx, 0));
        c(&mut g, (lx, 0), (e, 0));
        g
    }

    #[test]
    fn fixture_is_certified_clean() {
        certify(&fixture()).unwrap();
    }

    #[test]
    fn every_class_has_a_candidate_and_is_detected() {
        for class in MutationClass::ALL {
            for seed in 0..16u64 {
                let mut g = fixture();
                let mutation = mutate(&mut g, class, seed)
                    .unwrap_or_else(|| panic!("{}: no candidate", class.name()));
                assert!(
                    certify(&g).is_err(),
                    "{} (seed {seed}) undetected: {}",
                    class.name(),
                    mutation.description
                );
            }
        }
    }

    #[test]
    fn mutation_is_deterministic() {
        let mut g1 = fixture();
        let mut g2 = fixture();
        let m1 = mutate(&mut g1, MutationClass::DropArc, 42).unwrap();
        let m2 = mutate(&mut g2, MutationClass::DropArc, 42).unwrap();
        assert_eq!(m1.description, m2.description);
        assert_eq!(g1.arc_count(), g2.arc_count());
    }

    #[test]
    fn classes_without_candidates_return_none() {
        let mut g = Dfg::new();
        let s = g.add(OpKind::Start);
        let e = g.add(OpKind::End { inputs: 1 });
        g.connect(Port::new(s, 0), Port::new(e, 0), ArcKind::Value);
        assert!(mutate(&mut g, MutationClass::DeleteLoopExit, 0).is_none());
        assert!(mutate(&mut g, MutationClass::SwapMergeForStrict, 0).is_none());
        assert!(mutate(&mut g, MutationClass::RetargetSwitchOutput, 0).is_none());
        assert!(mutate(&mut g, MutationClass::DropArc, 0).is_some());
    }
}
