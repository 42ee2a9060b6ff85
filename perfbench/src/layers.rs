//! Per-layer metrics of a traced run, measured from outside each layer:
//! the run's operations are replayed on an unsharded `TopKIndex` and on
//! standalone structures, each on its own device with the facade's block
//! and pool sizes. Traced operations become spans; count-phase operations
//! have their I/Os counted.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use emsim::{Device, EmConfig, IoStats};
use epst::{PilotPst, ThreeSidedPst};
use kselect::{PolylogConfig, PolylogKSelect, RangeKSelect};
use topk_core::{Point, QueryRequest, TopKConfig, TopKIndex};
use topk_server::{Request, Response};

use crate::gen::{Class, Op};
use crate::inproc::{ios, min_blocks};
use crate::report::Metric;
use crate::stats::median_of;
use crate::trace::{paired_overhead, Tracer};

/// What a phase of a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Executed and checked, not measured.
    Warm,
    /// Physical and logical I/Os counted per operation.
    Count,
    /// Latencies recorded.
    Timed,
    /// Latencies recorded and spans kept for the layer replays.
    Traced,
}

/// One executed operation, kept in traced runs for the replays.
#[derive(Debug, Clone)]
pub struct Exec {
    pub op: Op,
    pub id: u64,
    /// For a small-k query: the answer's k-th best score (0 when the range
    /// held fewer than k points), the threshold the 3-sided reporter is
    /// asked for.
    pub tau: u64,
    pub answer_len: usize,
    /// The resume token a traced cursor session ended on.
    pub token: Option<String>,
    pub phase: Phase,
}

impl Exec {
    pub fn new(op: Op, id: u64, answer: &[Point], token: Option<String>, phase: Phase) -> Exec {
        let tau = match op {
            Op::Query { k, .. } if answer.len() >= k => answer[k - 1].score,
            _ => 0,
        };
        Exec {
            op,
            id,
            tau,
            answer_len: answer.len(),
            token,
            phase,
        }
    }

    fn traced(&self) -> bool {
        self.phase == Phase::Traced
    }

    /// Whether a replay measures this operation (time or I/Os); queries
    /// of other phases need not be replayed at all.
    fn measured(&self) -> bool {
        matches!(self.phase, Phase::Traced | Phase::Count)
    }
}

/// Physical and logical I/Os per operation class over a fixed-length phase
/// run right after the pool was emptied and warmed by a fixed prefix.
#[derive(Debug, Default)]
pub struct IoCount {
    ios: [u64; 4],
    ops: [u64; 4],
    reads: u64,
    logical: u64,
}

fn slot(class: Class) -> usize {
    match class {
        Class::SmallK => 0,
        Class::LargeK => 1,
        Class::Cursor => 2,
        Class::Write => 3,
    }
}

impl IoCount {
    pub fn add(&mut self, class: Class, before: &IoStats, after: &IoStats) {
        self.ios[slot(class)] += ios(before, after);
        self.ops[slot(class)] += 1;
        self.reads += after.reads - before.reads;
        self.logical += after.logical - before.logical;
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let per = |class: Class| {
            let s = slot(class);
            self.ios[s] as f64 / self.ops[s].max(1) as f64
        };
        let ops: u64 = self.ops.iter().sum();
        let note = |class: Class| format!("over {} ops", self.ops[slot(class)]);
        vec![
            Metric::new("ios_per_small_k", per(Class::SmallK), "ios").note(note(Class::SmallK)),
            Metric::new("ios_per_large_k", per(Class::LargeK), "ios").note(note(Class::LargeK)),
            Metric::new("ios_per_cursor", per(Class::Cursor), "ios").note(note(Class::Cursor)),
            Metric::new("ios_per_write", per(Class::Write), "ios").note(note(Class::Write)),
            Metric::new(
                "pool.hit_ratio",
                1.0 - self.reads as f64 / self.logical.max(1) as f64,
                "ratio",
            )
            .note(format!(
                "{} reads of {} logical accesses",
                self.reads, self.logical
            )),
            Metric::new(
                "pool.logical_per_op",
                self.logical as f64 / ops.max(1) as f64,
                "count",
            )
            .note(format!("over {ops} ops")),
        ]
    }
}

/// Time and I/Os of spans by name, on one structure's own device.
struct Probe<'a> {
    tracer: &'a mut Tracer,
    dev: Device,
    ios: HashMap<&'static str, (u64, u64)>,
}

impl Probe<'_> {
    /// Run `f` for operation `e`: timed as a span if `e` was traced, its
    /// I/Os counted if `e` ran in the count phase.
    fn call<R>(&mut self, name: &'static str, e: &Exec, f: impl FnOnce() -> R) -> R {
        match e.phase {
            Phase::Traced => self.tracer.span(name, e.id, None, f).0,
            Phase::Count => {
                let before = self.dev.stats();
                let r = f();
                let acc = self.ios.entry(name).or_default();
                acc.0 += ios(&before, &self.dev.stats());
                acc.1 += 1;
                r
            }
            Phase::Warm | Phase::Timed => f(),
        }
    }

    /// Mean I/Os per counted call of the named spans.
    fn mean_ios(&self, names: &[&str]) -> Metric {
        let (sum, n) = names
            .iter()
            .filter_map(|n| self.ios.get(n))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        Metric::new("", sum as f64 / n.max(1) as f64, "ios").note(format!("over {n} counted calls"))
    }
}

fn median_us(tracer: &Tracer, names: &[&str]) -> Metric {
    let d: Vec<f64> = names.iter().flat_map(|n| tracer.durations_us(n)).collect();
    let n = d.len();
    Metric::new("", median_of(d), "us").note(format!("median of {n} spans"))
}

fn named(mut m: Metric, name: &str) -> Metric {
    m.name = name.to_string();
    m
}

fn own_device(em: EmConfig) -> Device {
    Device::new(EmConfig::new(em.block_words, em.mem_words).pool_policy(em.pool_policy))
}

/// The spans one structure's calls are recorded under, and what they are
/// reported as.
struct Spans {
    /// The span of an insert and of a delete.
    updates: [&'static str; 2],
    /// `(span, time metric, I/O metric)`; an empty I/O metric is not
    /// reported.
    report: &'static [(&'static str, &'static str, &'static str)],
}

/// Replay `log` on structure `s`, built on `dev`: `query` runs the
/// queries `s` answers through the probe, and every write goes through
/// `update` (which returns whether it found its point). Returns the
/// metrics `spans.report` names.
fn replay_on<S>(
    s: &S,
    dev: Device,
    log: &[Exec],
    tracer: &mut Tracer,
    spans: Spans,
    mut query: impl FnMut(&mut Probe, &S, &Exec) -> Result<(), String>,
    update: impl Fn(&S, Op) -> Result<bool, String>,
) -> Result<Vec<Metric>, String> {
    dev.drop_cache();
    let mut probe = Probe {
        tracer,
        dev,
        ios: HashMap::new(),
    };
    for e in log {
        match e.op {
            Op::Insert(_) | Op::Delete(_) => {
                let span = spans.updates[matches!(e.op, Op::Delete(_)) as usize];
                if !probe.call(span, e, || update(s, e.op))? {
                    return Err(format!("{span}: replayed {:?} found nothing", e.op));
                }
            }
            _ => query(&mut probe, s, e)?,
        }
    }
    let mut out = Vec::new();
    for &(span, us, ios) in spans.report {
        out.push(named(median_us(probe.tracer, &[span]), us));
        if !ios.is_empty() {
            out.push(named(probe.mean_ios(&[span]), ios));
        }
    }
    Ok(out)
}

/// The update entry points the standalone structures share.
trait Standalone {
    fn add(&self, p: Point);
    fn remove(&self, p: Point) -> bool;
}

macro_rules! standalone {
    ($($t:ty),*) => {$(
        impl Standalone for $t {
            fn add(&self, p: Point) {
                self.insert(p)
            }
            fn remove(&self, p: Point) -> bool {
                self.delete(p)
            }
        }
    )*};
}

standalone!(PilotPst, ThreeSidedPst, PolylogKSelect);

/// A write on a standalone structure; whether it found its point.
fn apply<S: Standalone>(s: &S, op: Op) -> Result<bool, String> {
    Ok(match op {
        Op::Delete(p) => s.remove(p),
        Op::Insert(p) => {
            s.add(p);
            true
        }
        _ => true,
    })
}

/// Replay `log` (every executed operation, in a valid order) on the
/// unsharded index and on each standalone structure, each on its own device
/// with the block size, pool size and pool policy of `em`. Writes are
/// applied throughout; traced operations are timed as spans and
/// count-phase operations have their I/Os counted.
pub fn replay(
    em: EmConfig,
    pre: &[Point],
    log: &[Exec],
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let err = |e: topk_core::TopKError| e.to_string();
    let mut out = Vec::new();

    // The unsharded index, the baseline of the topology overheads.
    let dev = own_device(em);
    let index = Arc::new(
        TopKIndex::builder()
            .device(&dev)
            .expected_n(pre.len())
            .build()
            .map_err(err)?,
    );
    index.bulk_build(pre).map_err(err)?;
    let spans = Spans {
        updates: ["index.insert", "index.delete"],
        report: &[
            ("index.small_k", "index.small_k_us", ""),
            ("index.large_k", "index.large_k_us", ""),
            ("index.cursor_page", "cursor.page_us", ""),
            ("index.insert", "index.insert_us", ""),
            ("index.delete", "index.delete_us", ""),
        ],
    };
    let query = |probe: &mut Probe, index: &Arc<TopKIndex>, e: &Exec| {
        match e.op {
            Op::Query { x1, x2, k, class } if e.traced() => {
                let name = if class == Class::SmallK {
                    "index.small_k"
                } else {
                    "index.large_k"
                };
                black_box(
                    probe
                        .call(name, e, || index.query(x1, x2, k))
                        .map_err(err)?,
                );
            }
            Op::Cursor {
                x1,
                x2,
                k,
                page,
                pages,
            } if e.traced() => {
                let req = QueryRequest::range(x1, x2).top(k).page_size(page);
                let mut cursor = Arc::clone(index).cursor(req).map_err(err)?;
                for _ in 0..pages {
                    black_box(
                        probe
                            .call("index.cursor_page", e, || cursor.next_batch())
                            .map_err(err)?,
                    );
                }
            }
            _ => {}
        }
        Ok(())
    };
    let update = |index: &Arc<TopKIndex>, op: Op| match op {
        Op::Delete(p) => index.delete(p).map_err(err),
        Op::Insert(p) => index.insert(p).map(|()| true).map_err(err),
        _ => Ok(true),
    };
    out.extend(replay_on(&index, dev, log, tracer, spans, query, update)?);
    drop(index);

    // The §2 pilot PST: large-k pulls and updates.
    let dev = own_device(em);
    let pilot = PilotPst::new(&dev, "topk.pilot");
    pilot.rebuild_all(pre);
    let spans = Spans {
        updates: ["pilot.update"; 2],
        report: &[
            ("pilot.pull", "pilot.pull_us", "pilot.pull_ios"),
            ("pilot.update", "pilot.update_us", "pilot.update_ios"),
        ],
    };
    let query = |probe: &mut Probe, pilot: &PilotPst, e: &Exec| {
        if let (
            Op::Query {
                x1,
                x2,
                k,
                class: Class::LargeK,
            },
            true,
        ) = (e.op, e.measured())
        {
            let mut got = Vec::with_capacity(k);
            probe.call("pilot.pull", e, || {
                pilot.drain(x1, x2).pull(pilot, k, &mut got)
            });
            if got.len() != e.answer_len {
                return Err(format!(
                    "pilot pulled {} points, the index answered {}",
                    got.len(),
                    e.answer_len
                ));
            }
        }
        Ok(())
    };
    out.extend(replay_on(&pilot, dev, log, tracer, spans, query, apply)?);
    drop(pilot);

    // The 3-sided reporter: the small-k path's count and threshold report.
    let dev = own_device(em);
    let reporter = ThreeSidedPst::new(&dev, "topk.reporter");
    reporter.rebuild_from_points(pre);
    let spans = Spans {
        updates: ["reporter.update"; 2],
        report: &[
            ("reporter.query", "reporter.query_us", "reporter.query_ios"),
            (
                "reporter.update",
                "reporter.update_us",
                "reporter.update_ios",
            ),
        ],
    };
    let query = |probe: &mut Probe, reporter: &ThreeSidedPst, e: &Exec| {
        if let (
            Op::Query {
                x1,
                x2,
                class: Class::SmallK,
                ..
            },
            true,
        ) = (e.op, e.measured())
        {
            let got = probe.call("reporter.query", e, || {
                black_box(reporter.count_in_range(x1, x2));
                reporter.query(x1, x2, e.tau)
            });
            if got.len() < e.answer_len {
                return Err(format!(
                    "reporter returned {} points below an answer of {}",
                    got.len(),
                    e.answer_len
                ));
            }
        }
        Ok(())
    };
    out.extend(replay_on(&reporter, dev, log, tracer, spans, query, apply)?);
    drop(reporter);

    // The §3.3 approximate k-selector, through its own entry point.
    let dev = own_device(em);
    let kselect = PolylogKSelect::new(
        &dev,
        "topk.polylog",
        PolylogConfig::for_device(&dev, TopKConfig::default().l),
    );
    kselect.rebuild(pre);
    let spans = Spans {
        updates: ["kselect.update"; 2],
        report: &[
            ("kselect.select", "kselect.select_us", "kselect.select_ios"),
            ("kselect.update", "kselect.update_us", "kselect.update_ios"),
        ],
    };
    let query = |probe: &mut Probe, kselect: &PolylogKSelect, e: &Exec| {
        if let (
            Op::Query {
                x1,
                x2,
                k,
                class: Class::SmallK,
            },
            true,
        ) = (e.op, e.measured())
        {
            black_box(probe.call("kselect.select", e, || kselect.select(x1, x2, k as u64)));
        }
        Ok(())
    };
    out.extend(replay_on(&kselect, dev, log, tracer, spans, query, apply)?);
    Ok(out)
}

/// Each structure's live pages on the facade's device, over `⌈2n/B⌉`: the
/// three shares add up to `space_ratio`.
pub fn space_shares(dev: &Device, live: u64) -> Vec<Metric> {
    let mut sums = [0u64; 3];
    for (name, pages) in dev.space_breakdown() {
        let slot = if name.starts_with("topk.pilot") {
            0
        } else if name.starts_with("topk.reporter") {
            1
        } else if name.starts_with("topk.polylog") || name.starts_with("topk.st12") {
            2
        } else {
            continue;
        };
        sums[slot] += pages;
    }
    let base = min_blocks(live, dev.block_words()) as f64;
    ["space.pilot", "space.reporter", "space.kselect"]
        .iter()
        .zip(sums)
        .map(|(name, pages)| {
            Metric::new(name, pages as f64 / base, "ratio").note(format!("{pages} blocks"))
        })
        .collect()
}

/// The `topkwire v1` requests and responses one operation exchanges.
fn wire_shapes(e: &Exec) -> (Vec<Request>, Vec<Response>) {
    let points = |n: usize| vec![Point::new(u64::MAX / 3, u64::MAX / 7); n];
    match e.op {
        Op::Query { x1, x2, k, .. } => (
            vec![Request::Query {
                x1,
                x2,
                k: k as u32,
            }],
            vec![Response::Points(points(e.answer_len))],
        ),
        Op::Cursor {
            x1,
            x2,
            k,
            page,
            pages,
        } => {
            let token = e.token.clone().unwrap_or_default();
            let mut reqs = vec![Request::CursorOpen {
                x1,
                x2,
                k: k as u32,
                page: page as u32,
                strict: false,
            }];
            reqs.extend((1..pages).map(|_| Request::CursorNext {
                token: token.clone(),
            }));
            let resps = (0..pages)
                .map(|_| Response::Page {
                    points: points(page),
                    token: token.clone(),
                    done: false,
                })
                .collect();
            (reqs, resps)
        }
        Op::Insert(point) => (vec![Request::Insert { point }], vec![Response::Inserted]),
        Op::Delete(point) => (
            vec![Request::Delete { point }],
            vec![Response::Deleted(true)],
        ),
    }
}

/// `wire.codec_ns`: encode and decode of every request and response the
/// traced operations would exchange over the wire.
pub fn wire_codec(log: &[Exec], tracer: &mut Tracer) -> Vec<Metric> {
    for e in log.iter().filter(|e| e.traced()) {
        let (reqs, resps) = wire_shapes(e);
        tracer.span("wire.codec", e.id, None, || {
            for r in &reqs {
                black_box(Request::decode(&black_box(r.encode())).is_ok());
            }
            for r in &resps {
                black_box(Response::decode(&black_box(r.encode())).is_ok());
            }
        });
    }
    let d = tracer.durations_us("wire.codec");
    let n = d.len();
    vec![Metric::new("wire.codec_ns", median_of(d) * 1e3, "ns")
        .note(format!("median per op over {n} ops"))]
}

fn merged(tracer: &Tracer, names: &[&str]) -> HashMap<u64, f64> {
    names.iter().flat_map(|n| tracer.by_op_us(n)).collect()
}

/// The facade's paired overhead over the unsharded index on the same calls,
/// for queries and for writes (each only where both sides were timed).
pub fn topology(tracer: &Tracer) -> Vec<Metric> {
    let pairs = [
        (
            "topology.query_overhead_us",
            ["facade.small_k", "facade.large_k"],
            ["index.small_k", "index.large_k"],
        ),
        (
            "topology.write_overhead_us",
            ["facade.insert", "facade.delete"],
            ["index.insert", "index.delete"],
        ),
    ];
    pairs
        .into_iter()
        .filter_map(|(name, facade, index)| {
            let d = paired_overhead(&merged(tracer, &facade), &merged(tracer, &index))?;
            Some(Metric::new(name, d, "us").note("median paired difference"))
        })
        .collect()
}
