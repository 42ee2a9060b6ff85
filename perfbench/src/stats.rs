//! Latency samples and the percentile rule: a median plus the p99, or, when
//! fewer than ten samples lie beyond the p99, the highest percentile that
//! does have ten samples beyond it. Every figure is taken over all of a
//! run's kept samples; which samples a run keeps is decided by
//! [`host_steal`] and [`host_probe`], not by how fast they ran.

use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Samples needed beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A chunk whose [`host_probe`] read more than this many times the run's
/// usual probe time ran on a shared core (see [`shared_core_limit`]).
pub const SHARED_CORE_RATIO: f64 = 1.15;

/// A reported percentile: its value, which percentile it is, and how many
/// samples it was taken from and lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub pct: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (in `(0, 100)`) of `sorted`, lowered until at
/// least [`TAIL_BEYOND`] samples lie beyond it. `None` for fewer than
/// `TAIL_BEYOND + 1` samples, where no percentile qualifies.
pub fn tail(sorted: &[f64], p: f64) -> Option<Pct> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let want = ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n);
    let rank = want.min(n - TAIL_BEYOND);
    Some(Pct {
        value: sorted[rank - 1],
        pct: if rank == want {
            p
        } else {
            100.0 * rank as f64 / n as f64
        },
        samples: n,
        beyond: n - rank,
    })
}

/// The nearest-rank median; `None` when empty.
pub fn median(sorted: &[f64]) -> Option<Pct> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = n.div_ceil(2);
    Some(Pct {
        value: sorted[rank - 1],
        pct: 50.0,
        samples: n,
        beyond: n - rank,
    })
}

/// The median of unsorted values (0 when empty), for derived metrics.
pub fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    median(&values).map_or(0.0, |p| p.value)
}

/// The host's cumulative steal time in clock ticks, summed over its CPUs:
/// the time a hypervisor ran something else while one of the host's vCPUs
/// had work. `None` where `/proc/stat` has no steal column.
pub fn host_steal() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_steal(&stat)
}

/// The steal column (the eighth value) of the aggregate `cpu` line.
fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Seconds this thread takes for a fixed piece of throughput-bound work
/// (eight independent integer chains, then 4 KiB copies, all in L1), best
/// of three. The work never changes and shares no data with the program,
/// so its time moves only with how much of the core the host gives the
/// thread. When the host shares the core (most likely with another
/// tenant on its other hardware thread), the probe reads about 1.6x its
/// usual time and the index's operations slow down about 1.5x; neither
/// steal time nor a latency-bound probe (a pointer chase, one dependent
/// chain) shows it.
pub fn host_probe() -> f64 {
    const ROUNDS: usize = 40_000;
    const COPIES: usize = 800;
    let table: [u64; 64] = std::array::from_fn(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let src = [0x5au8; 4096];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        let mut chains: [u64; 8] = std::array::from_fn(|i| i as u64 + 1);
        for i in 0..ROUNDS {
            for (j, x) in chains.iter_mut().enumerate() {
                *x = (*x ^ (*x >> 7))
                    .wrapping_add(table[(i + j) & 63])
                    .rotate_left(3);
            }
            black_box(&mut chains);
        }
        let mut dst = [0u8; 4096];
        for _ in 0..COPIES {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The probe time above which a chunk counts as run on a shared core:
/// [`SHARED_CORE_RATIO`] times the 5th percentile of the run's chunk probe
/// times. Relative to the run's own fast chunks, so it holds on any
/// machine; a run that never had its core to itself keeps every chunk.
pub fn shared_core_limit(probes: &[f64]) -> f64 {
    let mut sorted = probes.to_vec();
    sorted.sort_by(f64::total_cmp);
    let fifth = sorted
        .get((sorted.len() as f64 * 0.05) as usize)
        .copied()
        .unwrap_or(f64::INFINITY);
    SHARED_CORE_RATIO * fifth
}

/// Which of a run's timed pieces (chunks, set-ups) to keep, given the
/// probe time next to each and whether steal time was reported during it:
/// those the host did not disturb, or every piece if it disturbed them all.
/// Also returns the [`shared_core_limit`] applied.
pub fn undisturbed(probes: &[f64], stolen: &[bool]) -> (Vec<bool>, f64) {
    let limit = shared_core_limit(probes);
    let keep: Vec<bool> = probes
        .iter()
        .zip(stolen)
        .map(|(&p, &s)| !s && p <= limit)
        .collect();
    if keep.contains(&true) {
        (keep, limit)
    } else {
        (vec![true; probes.len()], limit)
    }
}

/// Latency samples of one operation class, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns as f64 / 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Only the samples at the given index ranges, in order.
    pub fn select(&self, ranges: impl IntoIterator<Item = Range<usize>>) -> Samples {
        Samples(
            ranges
                .into_iter()
                .flat_map(|r| self.0[r].iter().copied())
                .collect(),
        )
    }

    /// `(median, tail)` over every sample.
    pub fn summary(&self) -> (Option<Pct>, Option<Pct>) {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        (median(&sorted), tail(&sorted, 99.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_with_enough_samples_is_the_true_p99() {
        let p = tail(&seq(10_000), 99.0).unwrap();
        assert_eq!(p.value, 9900.0);
        assert_eq!(p.pct, 99.0);
        assert_eq!(p.samples, 10_000);
        assert_eq!(p.beyond, 100);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in [11, 12, 50, 200, 999, 1000, 1001, 1010, 1011, 5000] {
            let p = tail(&seq(n), 99.0).unwrap();
            assert!(p.beyond >= TAIL_BEYOND, "n={n}: {p:?}");
            assert_eq!(p.samples, n);
            assert_eq!(p.beyond, seq(n).iter().filter(|&&v| v > p.value).count());
            assert!(p.pct <= 99.0);
        }
        // At exactly 1000 samples the p99 has ten beyond it and is kept.
        assert_eq!(tail(&seq(1000), 99.0).unwrap().pct, 99.0);
        // Below that the reported percentile drops to keep ten beyond.
        let p = tail(&seq(200), 99.0).unwrap();
        assert_eq!((p.value, p.beyond), (190.0, 10));
        assert_eq!(p.pct, 95.0);
        assert!(tail(&seq(TAIL_BEYOND), 99.0).is_none());
    }

    #[test]
    fn summary_keeps_every_sample_including_a_slow_burst() {
        // A 3% burst of slow samples lies beyond the p99 of the rest, so
        // the p99 over all samples lands in it.
        let mut s = Samples::default();
        for i in 0..10_000u64 {
            s.push_ns(if (5000..5300).contains(&i) {
                9000
            } else {
                1000
            });
        }
        let (p50, p99) = s.summary();
        assert_eq!(p50.unwrap().value, 1.0);
        let p99 = p99.unwrap();
        assert_eq!((p99.value, p99.samples), (9.0, 10_000));
        let first_half = s.select(std::iter::once(0..5000));
        assert_eq!(first_half.len(), 5000);
        assert_eq!(first_half.summary().1.unwrap().value, 1.0);
        assert_eq!(s.select([4000..5100, 9000..9100]).len(), 1200);
    }

    #[test]
    fn shared_core_limit_sits_above_the_fast_chunks() {
        // 80 fast chunks and 20 on a shared core: only the slow ones exceed.
        let mut probes = vec![0.5e-3; 80];
        probes.extend(vec![0.8e-3; 20]);
        let limit = shared_core_limit(&probes);
        assert!((limit - SHARED_CORE_RATIO * 0.5e-3).abs() < 1e-12);
        assert_eq!(probes.iter().filter(|&&p| p > limit).count(), 20);
        // A run that never had the core to itself keeps every chunk.
        let slow = vec![0.8e-3; 50];
        assert!(slow.iter().all(|&p| p <= shared_core_limit(&slow)));
        assert!(shared_core_limit(&[]).is_infinite());
    }

    #[test]
    fn undisturbed_drops_stolen_and_shared_pieces_but_never_all() {
        let probes = [0.5, 0.5, 0.9, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5];
        let mut stolen = [false; 10];
        stolen[4] = true;
        let (keep, limit) = undisturbed(&probes, &stolen);
        assert!((limit - SHARED_CORE_RATIO * 0.5).abs() < 1e-12);
        assert_eq!(keep.iter().filter(|&&k| !k).count(), 2);
        assert!(!keep[2] && !keep[4]);
        let (keep, _) = undisturbed(&[0.5, 0.5], &[true, true]);
        assert_eq!(keep, vec![true, true]);
    }

    #[test]
    fn host_probe_takes_a_fraction_of_a_chunk() {
        let t = host_probe();
        assert!(t > 0.0 && t < 0.05, "{t}");
    }

    #[test]
    fn median_counts_its_samples() {
        let m = median(&seq(5)).unwrap();
        assert_eq!((m.value, m.samples, m.beyond), (3.0, 5, 2));
        assert!(median(&[]).is_none());
        assert_eq!(median_of(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_cpu_line() {
        let stat = "cpu  612610 0 74353 2399215 28845 0 36626 64419 0 0\n\
                    cpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal(stat), Some(64419));
        assert_eq!(parse_steal("cpu  1 2 3\n"), None);
        assert_eq!(parse_steal("intr 5\n"), None);
    }
}
