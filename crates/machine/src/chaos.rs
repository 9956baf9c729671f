//! Seeded fault injection ("chaos") for the threaded executor.
//!
//! The tagged-token machine only deserves the name if every token is
//! accounted for *even when an operator misbehaves*. This module defines
//! the deterministic fault model the executor is hardened against:
//!
//! * **worker-local delays** — a worker sleeps a few microseconds before
//!   taking a batch, perturbing the schedule so rendezvous races and
//!   park/wake windows are actually explored;
//! * **forced steals** — a worker skips its own queue and goes straight
//!   to the injector/steal path, migrating serial chains adversarially;
//! * **operator panics** — a firing panics mid-flight; the scheduler must
//!   contain it ([`crate::exec::MachineError::WorkerPanicked`]), not take
//!   the host process down;
//! * **token drops** — an emitted token silently vanishes; the run must
//!   surface [`crate::exec::MachineError::TokenLeak`], never hang;
//! * **token duplications** — an emitted token is sent twice on an arc
//!   into a rendezvous operator; the waiting-matching store (the ETS
//!   machine's architectural point of duplicate detection) must report
//!   [`crate::exec::MachineError::TokenCollision`].
//!
//! All randomness is a seeded xorshift64* stream, split per worker
//! ([`crate::prng::Prng::for_worker`]), so a `(seed, worker)` pair draws
//! the same decisions on every run. The *interleaving* of workers is
//! still the OS scheduler's, which is exactly the point: results (or
//! typed errors) must be stable under any interleaving the fault plan
//! permits.
//!
//! The chaos layer is `Option`-gated everywhere: an ordinary run pays
//! one `Option::is_none` branch per batch and per emitted token, and
//! `cf2df bench` requires its tallies to read zero on every run it makes.

/// A deterministic fault-injection plan for one threaded run.
///
/// All probabilities are per *decision point*: `delay`/`force_steal` per
/// scheduler batch, `panic` per operator firing, `drop`/`duplicate` per
/// emitted token. Zero probabilities make the corresponding fault
/// impossible; [`ChaosConfig::off`] disables everything (and is what an
/// absent config means).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the deterministic fault streams (split per worker).
    pub seed: u64,
    /// Probability a worker sleeps before taking a batch.
    pub delay_prob: f64,
    /// Length of an injected delay, in microseconds.
    pub delay_us: u64,
    /// Probability a worker skips its own queue and tries the
    /// injector/steal path first (falling back to its own queue, so work
    /// is never stranded).
    pub force_steal_prob: f64,
    /// Probability an operator firing panics.
    pub panic_prob: f64,
    /// Probability an emitted token is dropped.
    pub drop_prob: f64,
    /// Probability an emitted token into a rendezvous operator is sent
    /// twice.
    pub dup_prob: f64,
}

impl ChaosConfig {
    /// No faults at all (the identity plan).
    pub fn off(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            delay_prob: 0.0,
            delay_us: 0,
            force_steal_prob: 0.0,
            panic_prob: 0.0,
            drop_prob: 0.0,
            dup_prob: 0.0,
        }
    }

    /// Benign schedule perturbation: delays + forced steals only. A run
    /// under this plan must still match the simulator bit-for-bit.
    pub fn perturb(seed: u64) -> ChaosConfig {
        ChaosConfig {
            delay_prob: 0.05,
            delay_us: 20,
            force_steal_prob: 0.25,
            ..ChaosConfig::off(seed)
        }
    }

    /// Operator panics (plus mild perturbation).
    pub fn panics(seed: u64) -> ChaosConfig {
        ChaosConfig {
            panic_prob: 0.02,
            force_steal_prob: 0.1,
            ..ChaosConfig::off(seed)
        }
    }

    /// Token drops (plus mild perturbation).
    pub fn drops(seed: u64) -> ChaosConfig {
        ChaosConfig {
            drop_prob: 0.02,
            force_steal_prob: 0.1,
            ..ChaosConfig::off(seed)
        }
    }

    /// Token duplications (plus mild perturbation).
    pub fn dups(seed: u64) -> ChaosConfig {
        ChaosConfig {
            dup_prob: 0.05,
            force_steal_prob: 0.1,
            ..ChaosConfig::off(seed)
        }
    }

    /// Everything at once, at half strength.
    pub fn mixed(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            delay_prob: 0.02,
            delay_us: 10,
            force_steal_prob: 0.1,
            panic_prob: 0.01,
            drop_prob: 0.01,
            dup_prob: 0.02,
        }
    }

    /// True when the plan can corrupt execution (as opposed to merely
    /// perturbing the schedule): such runs are allowed — required, when a
    /// fault actually fires — to end in a typed [`crate::exec::MachineError`].
    pub fn is_destructive(&self) -> bool {
        self.panic_prob > 0.0 || self.drop_prob > 0.0 || self.dup_prob > 0.0
    }
}

/// Tallies of the faults a chaos plan actually injected, surfaced in
/// [`crate::metrics::ParMetrics::chaos`]. All zero on ordinary runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosTallies {
    /// Worker-local delays slept.
    pub delays: u64,
    /// Batches for which a worker was forced onto the steal path.
    pub forced_steals: u64,
    /// Operator firings that were made to panic.
    pub panics: u64,
    /// Emitted tokens that were dropped.
    pub drops: u64,
    /// Emitted tokens that were duplicated.
    pub dups: u64,
}

impl ChaosTallies {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.delays + self.forced_steals + self.panics + self.drops + self.dups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_classify_destructiveness() {
        assert!(!ChaosConfig::off(1).is_destructive());
        assert!(!ChaosConfig::perturb(1).is_destructive());
        assert!(ChaosConfig::panics(1).is_destructive());
        assert!(ChaosConfig::drops(1).is_destructive());
        assert!(ChaosConfig::dups(1).is_destructive());
        assert!(ChaosConfig::mixed(1).is_destructive());
    }

    #[test]
    fn tallies_sum() {
        let t = ChaosTallies {
            delays: 1,
            forced_steals: 2,
            panics: 3,
            drops: 4,
            dups: 5,
        };
        assert_eq!(t.total(), 15);
    }
}
