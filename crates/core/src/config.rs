//! Configuration of the combined index.

/// Which structure serves `k < l` — in effect, whether the index runs the
/// serving default or the paper's Theorem 1 build ("paper mode").
///
/// The default, [`SmallKEngine::Pilot`], builds no k-selector and answers
/// every `k` from the §2 pilot drain: `O(lg n + k/B)` query I/Os for every
/// `k`, and each update maintains two structures instead of three. The other
/// variants are paper mode: they build Theorem 1's approximate range
/// k-selection structure and route `k < l` through the §3.3 reduction for
/// its `O(log_B n + k/B)` bound. Paper mode measures slower at every size
/// tried (DESIGN.md §3.6); it exists to reproduce the paper. Both modes
/// return the same answers, and a durable directory written in one reopens
/// in the other (the journal records points, not structures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallKEngine {
    /// The serving default: no k-selector; the pilot drain serves every `k`.
    Pilot,
    /// Paper mode with Theorem 1's dispatch: use the Sheng–Tao-style
    /// structure when `lg n ≤ B^(1/6)` (very large blocks), and the new §3.3
    /// structure otherwise.
    Auto,
    /// Paper mode, always with the paper's new §3.3 structure (Lemma 4).
    Polylog,
    /// Paper mode, always with the Sheng–Tao 2012-style baseline (useful for
    /// the comparison experiments).
    St12,
}

/// Parameters of a [`TopKIndex`](crate::TopKIndex). Usually assembled via
/// [`IndexBuilder`](crate::IndexBuilder) rather than by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKConfig {
    /// The `l = O(polylg n)` parameter of paper mode: `k < l` is served by
    /// the small-`k` path, larger `k` by the pilot-set structure of §2. The
    /// paper sets the crossover at `Θ(B·lg n)`; at laptop scale the value is
    /// configurable (see DESIGN.md §3 on parameter scaling). The serving
    /// default ([`SmallKEngine::Pilot`]) has no crossover and reads `l` only
    /// as the size of a lazy stream's first pilot round.
    pub l: usize,
    /// Serving default or paper mode, and paper mode's small-`k` engine.
    pub small_k_engine: SmallKEngine,
    /// Rebuild everything after the live size drifts by this factor from the
    /// size at the last rebuild (the paper's global rebuilding).
    pub rebuild_factor: u64,
    /// The anticipated number of stored points, used to resolve
    /// [`SmallKEngine::Auto`] against the paper's `lg n ≤ B^(1/6)` regime
    /// boundary at construction time (and to size the default shard count).
    /// The answer-correctness of the index never depends on this value —
    /// only which engine serves small `k` in paper mode.
    pub expected_n: usize,
}

impl Default for TopKConfig {
    fn default() -> Self {
        Self {
            l: 256,
            small_k_engine: SmallKEngine::Pilot,
            rebuild_factor: 2,
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

    /// Resolve [`SmallKEngine::Auto`] for a machine with the given block size
    /// (in words) and an expected input size `n`: the paper uses the
    /// Sheng–Tao structure exactly when `lg n ≤ B^(1/6)`. Every other
    /// engine, the serving default included, passes through.
    pub fn resolve_engine(&self, block_words: usize, n: usize) -> SmallKEngine {
        match self.small_k_engine {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_resolution_follows_regime_boundary() {
        let cfg = TopKConfig {
            small_k_engine: SmallKEngine::Auto,
            ..TopKConfig::default()
        };
        // Realistic block sizes put us in the B < lg^6 n regime → polylog.
        assert_eq!(cfg.resolve_engine(512, 1 << 20), SmallKEngine::Polylog);
        // Astronomically large blocks relative to n → the ST12 structure is
        // already fast enough.
        assert_eq!(cfg.resolve_engine(1 << 20, 8), SmallKEngine::St12);
        // Forced engines pass through.
        let forced = TopKConfig {
            small_k_engine: SmallKEngine::St12,
            ..cfg
        };
        assert_eq!(forced.resolve_engine(512, 1 << 20), SmallKEngine::St12);
    }
}
