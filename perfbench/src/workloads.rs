//! The workloads: names, sizes and operation mixes. README.md gives the
//! reasons for each choice.

use crate::gen::{Mix, QueryShape, RangeKind, WriteMode};

const SMALL_KS: &[usize] = &[1, 10, 100];
const LARGE_KS: &[usize] = &[256, 1024, 4096];
const K10: &[usize] = &[10];
/// 1% and 5% ranges, plus one draw in five on an adversarial dyadic range.
const SMALL_RANGES: &[RangeKind] = &[
    RangeKind::Uniform(0.01),
    RangeKind::Uniform(0.01),
    RangeKind::Uniform(0.05),
    RangeKind::Uniform(0.05),
    RangeKind::Dyadic,
];
const LARGE_RANGES: &[RangeKind] = &[
    RangeKind::Uniform(0.05),
    RangeKind::Uniform(0.05),
    RangeKind::Uniform(0.25),
    RangeKind::Uniform(0.25),
    RangeKind::Dyadic,
];
const ONE_PCT: &[RangeKind] = &[RangeKind::Uniform(0.01)];
const CURSOR_RANGES: &[RangeKind] = &[RangeKind::Uniform(0.05), RangeKind::Uniform(0.25)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadMix,
    WriteChurn,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ReadMix, Workload::WriteChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMix => "read_mix",
            Workload::WriteChurn => "write_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Preload size: 2^18 points, about 5x the 4,096-frame pool.
    pub const LOG2_N: u32 = 18;

    pub fn mix(self) -> Mix {
        match self {
            Workload::ReadMix => Mix {
                small_k: 45,
                large_k: 25,
                cursor: 25,
                write: 5,
                small: QueryShape {
                    ks: SMALL_KS,
                    ranges: SMALL_RANGES,
                },
                large: QueryShape {
                    ks: LARGE_KS,
                    ranges: LARGE_RANGES,
                },
                cursor_ranges: CURSOR_RANGES,
                write_mode: WriteMode::Churn,
            },
            Workload::WriteChurn => Mix {
                small_k: 10,
                large_k: 2,
                cursor: 2,
                write: 86,
                small: QueryShape {
                    ks: K10,
                    ranges: ONE_PCT,
                },
                large: QueryShape {
                    ks: LARGE_KS,
                    ranges: LARGE_RANGES,
                },
                cursor_ranges: CURSOR_RANGES,
                write_mode: WriteMode::Churn,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_sum_to_one_hundred_percent() {
        for w in Workload::ALL {
            let m = w.mix();
            assert_eq!(
                m.small_k + m.large_k + m.cursor + m.write,
                100,
                "{}",
                w.name()
            );
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
