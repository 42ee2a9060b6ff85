//! The benchmark's output: one human-readable line per metric (with its
//! sample count where it is a latency), then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

use crate::stats::{Pct, Samples};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-form context for the human-readable line (sample counts, the
    /// percentile actually reported, "n/a on this workload").
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Operation counts of a run: every operation is checked for an error
/// reply, and a seeded sample of answers against the oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The `_p50_us` / `_p99_us` pair of one latency class.
pub fn latency_pair(prefix: &str, samples: &Samples) -> [Metric; 2] {
    let (p50, p99) = samples.summary();
    let one = |suffix: &str, p: Option<Pct>| {
        let name = format!("{prefix}_{suffix}_us");
        match p {
            Some(p) => Metric::new(&name, p.value, "us").note(format!(
                "p{:.2} of {} samples, {} beyond it",
                p.pct, p.samples, p.beyond
            )),
            None => Metric::new(&name, 0.0, "us").note(format!(
                "too few samples ({}) for a percentile",
                samples.len()
            )),
        }
    };
    [one("p50", p50), one("p99", p99)]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The last line of the output.
pub fn json_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(",")
    )
}

/// Print the human-readable lines, then the JSON line, to stdout.
pub fn print(correct: bool, tally: Tally, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<28} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "fail_ratio {} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!("{}", json_line(correct, tally, metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_is_well_formed() {
        let mut s = Samples::default();
        for i in 0..1000u64 {
            s.push_ns(1000 + i);
        }
        let mut metrics = vec![Metric::new("setup_s", 0.125, "s")];
        metrics.extend(latency_pair("small_k", &s));
        metrics.push(Metric::new("bad", f64::NAN, "ratio"));
        let line = json_line(
            true,
            Tally {
                attempted: 10,
                failed: 0,
            },
            &metrics,
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.125,\"unit\":\"s\"},\
             \"small_k_p50_us\":{\"value\":1.499,\"unit\":\"us\"},\
             \"small_k_p99_us\":{\"value\":1.989,\"unit\":\"us\"},\
             \"bad\":{\"value\":0,\"unit\":\"ratio\"}}}"
        );
    }
}
