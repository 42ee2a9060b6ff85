//! Unified seed handling for every randomized harness in the workspace.
//!
//! One environment variable — `TOPK_SEED` — pins any seeded test to a
//! single case, and every assertion context carries the same one-command
//! repro line.

use std::fmt;

/// The environment variable that pins a harness to one seed.
pub const SEED_ENV: &str = "TOPK_SEED";

/// A reproducibility seed: either a harness default or a value pinned via
/// the `TOPK_SEED` environment variable. Carries everything needed to print
/// the one-command repro line that every assertion message embeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed {
    value: u64,
    pinned: bool,
}

impl Seed {
    /// A fixed seed (not from the environment).
    pub fn fixed(value: u64) -> Self {
        Self {
            value,
            pinned: false,
        }
    }

    /// The pinned seed from `TOPK_SEED`, or `default` when it is not set.
    /// Panics with a usable message if the variable is set but not an
    /// unsigned integer.
    pub fn from_env(default: u64) -> Self {
        match Self::pinned_from_env() {
            Some(seed) => seed,
            None => Self::fixed(default),
        }
    }

    /// The seed matrix a harness run covers: the given defaults, or — when
    /// `TOPK_SEED` pins one — exactly that seed (how CI
    /// failures are replayed locally).
    pub fn matrix(defaults: &[u64]) -> Vec<Seed> {
        match Self::pinned_from_env() {
            Some(seed) => vec![seed],
            None => defaults.iter().copied().map(Seed::fixed).collect(),
        }
    }

    fn pinned_from_env() -> Option<Seed> {
        let raw = std::env::var(SEED_ENV).ok()?;
        let value = raw
            .parse()
            .unwrap_or_else(|_| panic!("{SEED_ENV} must be an unsigned integer seed, got {raw:?}"));
        Some(Seed {
            value,
            pinned: true,
        })
    }

    /// The seed value.
    pub fn value(&self) -> u64 {
        self.value
    }

    /// Whether the seed was pinned through the environment.
    pub fn is_pinned(&self) -> bool {
        self.pinned
    }

    /// A derived sub-seed: deterministic in `(self, salt)`, well-mixed so
    /// harnesses can hand out independent streams (generator vs schedule vs
    /// query mix) from one printed seed. SplitMix64 over `value ^ salt`.
    pub fn derive(&self, salt: u64) -> u64 {
        let mut z = self.value ^ salt.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// The one-command repro line for a failing integration test, e.g.
    /// `repro: TOPK_SEED=1234 cargo test --test sharded_stress -- --nocapture`.
    pub fn repro(&self, test: &str) -> String {
        format!(
            "repro: {SEED_ENV}={} cargo test --test {test} -- --nocapture",
            self.value
        )
    }
}

impl fmt::Display for Seed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_salt_sensitive() {
        let seed = Seed::fixed(42);
        assert_eq!(seed.derive(1), seed.derive(1));
        assert_ne!(seed.derive(1), seed.derive(2));
        assert_ne!(seed.derive(1), Seed::fixed(43).derive(1));
        // Zero salt must not collapse to the raw value.
        assert_ne!(seed.derive(0), 42);
    }

    #[test]
    fn repro_line_names_the_env_and_the_test() {
        let line = Seed::fixed(77).repro("sharded_stress");
        assert!(line.contains("TOPK_SEED=77"));
        assert!(line.contains("--test sharded_stress"));
    }

    #[test]
    fn matrix_defaults_without_env() {
        // The test process may inherit the env var (that is the point of
        // the feature); only assert the default path when it is absent.
        if std::env::var(SEED_ENV).is_err() {
            let seeds = Seed::matrix(&[1, 2, 3]);
            assert_eq!(seeds.len(), 3);
            assert!(seeds.iter().all(|s| !s.is_pinned()));
            assert_eq!(Seed::from_env(9).value(), 9);
        }
    }
}
