//! Supervision policy and hazard models.
//!
//! The supervisor's decisions (when to back off, when to give up on a
//! frame, when to quarantine a session) live in
//! [`SupervisionPolicy`]; *what goes wrong* is abstracted behind
//! [`HazardPolicy`] so the same session machine runs under no faults
//! (production ingest), seeded faults (soaks), or a test's scripted
//! failures.
//!
//! Seeded hazards are **stateless keyed draws**: each decision hashes
//! `(seed, kind, client, frame, attempt)` to a unit float, so a
//! resumed or replayed run sees exactly the same failures without any
//! RNG stream state to persist.

use opd_trace::{fnv64, fnv64_extend};

/// When and how hard the supervisor retries a failed session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionPolicy {
    /// Attempts per frame before it is declared a poison pill and
    /// quarantined (must be at least 1).
    pub retry_budget: u32,
    /// Backoff after the first failure of a frame, in ticks; doubles
    /// per subsequent attempt.
    pub backoff_base_ticks: u64,
    /// Upper bound on any single backoff, in ticks.
    pub backoff_cap_ticks: u64,
    /// Ticks a session may spend on one frame before the supervisor
    /// declares it wedged and kills it.
    pub deadline_ticks: u64,
    /// Quarantined frames a session survives before the session
    /// itself is quarantined.
    pub max_poison_frames: u32,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        SupervisionPolicy {
            retry_budget: 3,
            backoff_base_ticks: 2,
            backoff_cap_ticks: 16,
            deadline_ticks: 8,
            max_poison_frames: 2,
        }
    }
}

impl SupervisionPolicy {
    /// Backoff before retry number `attempt` (1-based): exponential
    /// from the base, saturating at the cap.
    #[must_use]
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(32);
        self.backoff_base_ticks
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ticks)
            .max(1)
    }
}

/// What goes wrong, and when: the fault model a soak injects into the
/// session machine.
///
/// All three draws are per `(client, frame)` — `crash` and `wedge`
/// additionally per attempt, so a retry can succeed where the first
/// attempt failed. `poison` is attempt-independent by design: a
/// poison frame kills *every* attempt, which is what exhausts the
/// retry budget and exercises quarantine.
pub trait HazardPolicy: Sync {
    /// The session dies mid-frame (state lost, frame unconsumed).
    fn crash(&self, client: u32, frame: u32, attempt: u32) -> bool;
    /// The session stops making progress on this frame until the
    /// supervisor's deadline kills it.
    fn wedge(&self, client: u32, frame: u32, attempt: u32) -> bool;
    /// This frame kills the session on every attempt.
    fn poison(&self, client: u32, frame: u32) -> bool;
}

/// The no-fault hazard model: nothing ever goes wrong.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHazards;

impl HazardPolicy for NoHazards {
    fn crash(&self, _: u32, _: u32, _: u32) -> bool {
        false
    }
    fn wedge(&self, _: u32, _: u32, _: u32) -> bool {
        false
    }
    fn poison(&self, _: u32, _: u32) -> bool {
        false
    }
}

/// Seeded, stateless hazard draws at configured rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeededHazards {
    /// Seed all draws are keyed under.
    pub seed: u64,
    /// Per-(frame, attempt) transient crash probability.
    pub kill_rate: f64,
    /// Per-(frame, attempt) wedge probability.
    pub wedge_rate: f64,
    /// Per-frame poison probability.
    pub poison_rate: f64,
}

impl SeededHazards {
    /// A hazard model that injects nothing (rates all zero).
    #[must_use]
    pub fn none(seed: u64) -> Self {
        SeededHazards {
            seed,
            kill_rate: 0.0,
            wedge_rate: 0.0,
            poison_rate: 0.0,
        }
    }

    fn draw(&self, kind: u64, client: u32, frame: u32, attempt: u32) -> f64 {
        let key = keyed_hash(&[
            self.seed,
            kind,
            u64::from(client),
            u64::from(frame),
            u64::from(attempt),
        ]);
        // 53 mantissa bits → a uniform unit double.
        (key >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl HazardPolicy for SeededHazards {
    fn crash(&self, client: u32, frame: u32, attempt: u32) -> bool {
        self.kill_rate > 0.0 && self.draw(1, client, frame, attempt) < self.kill_rate
    }

    fn wedge(&self, client: u32, frame: u32, attempt: u32) -> bool {
        self.wedge_rate > 0.0 && self.draw(2, client, frame, attempt) < self.wedge_rate
    }

    fn poison(&self, client: u32, frame: u32) -> bool {
        self.poison_rate > 0.0 && self.draw(3, client, frame, 0) < self.poison_rate
    }
}

/// A stateless keyed hash over a word sequence (FNV-1a over the LE
/// bytes, finished with a 64-bit avalanche) — the basis of every
/// seeded draw in this crate.
#[must_use]
pub fn keyed_hash(words: &[u64]) -> u64 {
    keyed_hash_iter(words.iter().copied())
}

/// [`keyed_hash`] over words as an iterator yields them, for callers
/// that would otherwise collect the words only to hash them.
pub(crate) fn keyed_hash_iter(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = words
        .into_iter()
        .fold(fnv64(&[]), |h, w| fnv64_extend(h, &w.to_le_bytes()));
    // splitmix64 finalizer: FNV alone is too linear for rate draws.
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = SupervisionPolicy {
            backoff_base_ticks: 2,
            backoff_cap_ticks: 12,
            ..SupervisionPolicy::default()
        };
        assert_eq!(p.backoff_ticks(1), 2);
        assert_eq!(p.backoff_ticks(2), 4);
        assert_eq!(p.backoff_ticks(3), 8);
        assert_eq!(p.backoff_ticks(4), 12);
        assert_eq!(p.backoff_ticks(40), 12);
    }

    #[test]
    fn backoff_is_never_zero() {
        let p = SupervisionPolicy {
            backoff_base_ticks: 0,
            backoff_cap_ticks: 0,
            ..SupervisionPolicy::default()
        };
        assert_eq!(p.backoff_ticks(1), 1);
    }

    #[test]
    fn seeded_draws_are_deterministic_and_rate_scaled() {
        let h = SeededHazards {
            seed: 9,
            kill_rate: 0.3,
            wedge_rate: 0.0,
            poison_rate: 0.05,
        };
        let mut kills = 0;
        for f in 0..10_000 {
            assert_eq!(h.crash(1, f, 0), h.crash(1, f, 0));
            if h.crash(1, f, 0) {
                kills += 1;
            }
            assert!(!h.wedge(1, f, 0));
        }
        // ~3000 expected; generous tolerance, this is a seeded hash.
        assert!((2500..3500).contains(&kills), "{kills}");
    }

    #[test]
    fn poison_is_attempt_independent() {
        let h = SeededHazards {
            seed: 4,
            kill_rate: 0.0,
            wedge_rate: 0.0,
            poison_rate: 0.5,
        };
        let p = h.poison(7, 3);
        // Same frame, any attempt context: same verdict.
        assert_eq!(h.poison(7, 3), p);
    }

    #[test]
    fn keyed_hash_separates_nearby_keys() {
        assert_ne!(keyed_hash(&[1, 2, 3]), keyed_hash(&[1, 2, 4]));
        assert_ne!(keyed_hash(&[0]), keyed_hash(&[0, 0]));
    }
}
