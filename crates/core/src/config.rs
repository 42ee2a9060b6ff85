//! Configuration of the combined index.

/// Which approximate range k-selection structure
/// [`TheoremOne`](crate::TheoremOne), Theorem 1's full build, uses to serve
/// `k < l`. The serving index has no k-selector: its §2 pilot drain answers
/// every `k` (DESIGN.md §3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallKEngine {
    /// Theorem 1's dispatch: use the Sheng–Tao-style structure when
    /// `lg n ≤ B^(1/6)` (very large blocks), and the new §3.3 structure
    /// otherwise.
    Auto,
    /// Always the paper's new §3.3 structure (Lemma 4).
    Polylog,
    /// Always the Sheng–Tao 2012-style baseline (useful for the comparison
    /// experiments).
    St12,
}

impl SmallKEngine {
    /// Resolve [`SmallKEngine::Auto`] for a machine with the given block size
    /// (in words) and an expected input size `n`: the paper uses the
    /// Sheng–Tao structure exactly when `lg n ≤ B^(1/6)`. The other engines
    /// pass through.
    pub fn resolve(self, block_words: usize, n: usize) -> SmallKEngine {
        match self {
            SmallKEngine::Auto => {
                let lg_n = emsim::lg(n.max(2)) as f64;
                let b_sixth = (block_words as f64).powf(1.0 / 6.0);
                if lg_n <= b_sixth {
                    SmallKEngine::St12
                } else {
                    SmallKEngine::Polylog
                }
            }
            other => other,
        }
    }
}

/// Parameters of a [`TopKIndex`](crate::TopKIndex). Usually assembled via
/// [`IndexBuilder`](crate::IndexBuilder) rather than by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKConfig {
    /// [`TheoremOne`](crate::TheoremOne)'s `l = O(polylg n)` crossover:
    /// `k < l` goes through the §3.3 reduction, larger `k` to the pilot-set
    /// structure of §2. The paper sets the crossover at `Θ(B·lg n)`; at
    /// laptop scale the value is configurable (see DESIGN.md §3 on
    /// parameter scaling). The serving index does not read it: its pilot
    /// drain answers every `k`.
    pub l: usize,
    /// The anticipated number of stored points. It sizes the default shard
    /// count, and [`TheoremOne`](crate::TheoremOne) resolves
    /// [`SmallKEngine::Auto`] against it (the paper's `lg n ≤ B^(1/6)`
    /// regime boundary). The answers never depend on it.
    pub expected_n: usize,
}

impl Default for TopKConfig {
    fn default() -> Self {
        Self {
            l: 256,
            expected_n: 1 << 20,
        }
    }
}

impl TopKConfig {
    /// A configuration tuned for small unit-test inputs.
    pub fn for_tests() -> Self {
        Self {
            l: 64,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolution_follows_regime_boundary() {
        // Realistic block sizes put us in the B < lg^6 n regime → polylog.
        assert_eq!(
            SmallKEngine::Auto.resolve(512, 1 << 20),
            SmallKEngine::Polylog
        );
        // Astronomically large blocks relative to n → the ST12 structure is
        // already fast enough.
        assert_eq!(SmallKEngine::Auto.resolve(1 << 20, 8), SmallKEngine::St12);
        // Forced engines pass through.
        assert_eq!(SmallKEngine::St12.resolve(512, 1 << 20), SmallKEngine::St12);
    }
}
