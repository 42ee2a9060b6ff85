//! Spans recorded by the benchmark around its calls into each layer's
//! public functions. They stay in memory and are written out once, when the
//! run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start and end (ns since the run's epoch), the span
/// that caused it, and the operation it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// A tracer sharing another's epoch, so that spans recorded on several
    /// threads line up once [`Tracer::absorb`]ed.
    pub fn with_epoch(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Append another tracer's spans (same epoch), re-basing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; returns its result and the span's index.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = self.now();
        let r = f();
        let end = self.now();
        (r, self.record(name, start, end, parent, op))
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Durations of the spans named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    /// Per-operation durations of the spans named `name` (summed when an
    /// operation has several), in microseconds.
    pub fn by_op_us(&self, name: &str) -> HashMap<u64, f64> {
        let mut out = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += (s.end - s.start) as f64 / 1e3;
        }
        out
    }

    /// Write every span as a tab-separated line:
    /// `id name start_ns end_ns parent op`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.op
            )?;
        }
        out.flush()
    }
}

/// Median over operations present in both maps of `a[op] - b[op]`: the
/// paired cost one layer adds over another on the same calls. `None` when
/// no operation is in both.
pub fn paired_overhead(a: &HashMap<u64, f64>, b: &HashMap<u64, f64>) -> Option<f64> {
    let diffs: Vec<f64> = a
        .iter()
        .filter_map(|(op, x)| b.get(op).map(|y| x - y))
        .collect();
    (!diffs.is_empty()).then(|| crate::stats::median_of(diffs))
}
