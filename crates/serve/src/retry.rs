//! Seeded-deterministic retry policy: capped exponential backoff with
//! jitter, honoring server `retry_after_ms` hints.
//!
//! `dasctl submit` retries `busy` rejections instead of treating them as
//! hard errors. The delay schedule is *deterministic
//! under a fixed seed* — jitter comes from SplitMix64 over
//! `(seed, attempt)`, not from wall-clock entropy — so tests can assert
//! the exact schedule and client runs stay reproducible. Jitter is drawn
//! from the upper half of the exponential window (`[exp/2, exp]`,
//! "equal jitter"), which decorrelates client herds without ever
//! retrying earlier than half the nominal backoff. A server-provided
//! `retry_after_ms` hint acts as a floor: the client never comes back
//! sooner than the server asked.

/// SplitMix64: a tiny, high-quality mixing function (Steele et al.).
/// Used here as a stateless PRNG keyed by `(seed, attempt)`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A capped, seeded-jitter exponential backoff policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-attempt nominal backoff in milliseconds.
    pub base_ms: u64,
    /// Ceiling on the nominal backoff in milliseconds.
    pub cap_ms: u64,
    /// Maximum number of retries before giving up (0 = no retries).
    pub max_attempts: u32,
    /// Jitter seed; the whole schedule is a pure function of this.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> BackoffPolicy {
        BackoffPolicy {
            base_ms: 25,
            cap_ms: 2_000,
            max_attempts: 8,
            seed: 0,
        }
    }
}

impl BackoffPolicy {
    /// The delay before retry number `attempt` (0-based), in
    /// milliseconds, honoring an optional server `retry_after_ms` hint as
    /// a floor. Returns `None` once `attempt` reaches `max_attempts`.
    pub fn delay_ms(&self, attempt: u32, server_hint_ms: Option<u64>) -> Option<u64> {
        if attempt >= self.max_attempts {
            return None;
        }
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.cap_ms)
            .max(1);
        // Equal jitter: uniform in [exp/2, exp].
        let span = exp - exp / 2 + 1;
        let jittered = exp / 2 + splitmix64(self.seed ^ u64::from(attempt)) % span;
        Some(jittered.max(server_hint_ms.unwrap_or(0)))
    }

    /// The full retry schedule under this policy (no server hints) — what
    /// the deterministic tests pin down.
    pub fn schedule(&self) -> Vec<u64> {
        (0..self.max_attempts)
            .map(|a| self.delay_ms(a, None).expect("attempt < max_attempts"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_under_a_fixed_seed() {
        let p = BackoffPolicy {
            base_ms: 10,
            cap_ms: 200,
            max_attempts: 6,
            seed: 42,
        };
        assert_eq!(p.schedule(), p.schedule(), "pure function of the seed");
        let other = BackoffPolicy { seed: 43, ..p };
        assert_ne!(p.schedule(), other.schedule(), "seed changes the jitter");
    }

    #[test]
    fn delays_grow_exponentially_within_jitter_bounds_and_cap() {
        let p = BackoffPolicy {
            base_ms: 10,
            cap_ms: 160,
            max_attempts: 8,
            seed: 7,
        };
        for a in 0..p.max_attempts {
            let nominal = (10u64 << a).min(160);
            let d = p.delay_ms(a, None).unwrap();
            assert!(
                d >= nominal / 2 && d <= nominal,
                "attempt {a}: delay {d} outside [{}, {nominal}]",
                nominal / 2
            );
        }
        // Attempts 4+ hit the cap: never more than cap_ms.
        assert!(p.delay_ms(7, None).unwrap() <= 160);
    }

    #[test]
    fn server_hint_floors_the_delay_and_attempts_are_bounded() {
        let p = BackoffPolicy {
            base_ms: 10,
            cap_ms: 100,
            max_attempts: 3,
            seed: 0,
        };
        assert!(p.delay_ms(0, Some(500)).unwrap() >= 500, "hint is a floor");
        let unhinted = p.delay_ms(0, None).unwrap();
        assert_eq!(
            p.delay_ms(0, Some(1)).unwrap(),
            unhinted,
            "tiny hint defers to the jittered backoff"
        );
        assert_eq!(p.delay_ms(3, None), None, "retries exhausted");
        assert_eq!(p.delay_ms(99, Some(500)), None);
        let zero = BackoffPolicy {
            max_attempts: 0,
            ..p
        };
        assert_eq!(zero.delay_ms(0, None), None, "no-retry policy");
    }

    #[test]
    fn splitmix_matches_reference_values() {
        // Reference vector from the SplitMix64 paper's test suite.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
    }
}
