//! The in-process workloads, `read_mix` and `write_churn`: one caller thread
//! in a closed loop on the `TopK` facade that `build_auto` returns for
//! `expected_n = 2^18` (four range shards on a RAM device, 512-word blocks,
//! 16 MiB pool).
//!
//! Operations run in chunks. A chunk is generated, then executed with each
//! call timed, then its sampled answers are checked while a [`Mirror`]
//! replays the chunk's writes. Generation and checking stay outside the
//! timed window.

use std::time::{Duration, Instant};

use emsim::{Device, IoStats};
use topk_core::{Point, QueryRequest, TopK};

use crate::check::{by_x, Mirror};
use crate::gen::{preload, Class, Op, OpGen};
use crate::layers::{self, Exec, IoCount, Phase};
use crate::report::{latency_pair, Metric, Tally};
use crate::stats::{host_probe, host_steal, median_of, undisturbed, Samples};
use crate::trace::Tracer;
use crate::workloads::Workload;
use crate::Outcome;

/// Operations per generated chunk.
pub const CHUNK: usize = 256;
/// Chunks run after the pool is emptied and before anything is measured.
pub const WARMUP_CHUNKS: usize = 16;
/// Chunks of the fixed-length phase whose I/O counts are reported.
pub const COUNT_CHUNKS: usize = 16;
/// Set-ups per untraced run; `setup_s` is the median of those the host did
/// not disturb.
pub const SETUP_REPS: usize = 21;

/// Latency samples per operation class (cursor: per page).
#[derive(Debug, Default)]
pub struct Lat {
    pub small: Samples,
    pub large: Samples,
    pub page: Samples,
    pub write: Samples,
}

impl Lat {
    pub fn of(&mut self, class: Class) -> &mut Samples {
        match class {
            Class::SmallK => &mut self.small,
            Class::LargeK => &mut self.large,
            Class::Cursor => &mut self.page,
            Class::Write => &mut self.write,
        }
    }

    fn lens(&self) -> [usize; 4] {
        [&self.small, &self.large, &self.page, &self.write].map(Samples::len)
    }

    /// Only the samples taken between each pair of [`Lat::lens`] readings
    /// in `spans`.
    fn select(&self, spans: &[([usize; 4], [usize; 4])]) -> Lat {
        let class = |s: &Samples, c: usize| s.select(spans.iter().map(|(a, b)| a[c]..b[c]));
        Lat {
            small: class(&self.small, 0),
            large: class(&self.large, 1),
            page: class(&self.page, 2),
            write: class(&self.write, 3),
        }
    }

    /// The eight latency metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        out.extend(latency_pair("small_k", &self.small));
        out.extend(latency_pair("large_k", &self.large));
        out.extend(latency_pair("cursor_page", &self.page));
        out.extend(latency_pair("write", &self.write));
        out
    }
}

/// The points blocks would hold at two words per point: `⌈2n/B⌉`.
pub fn min_blocks(n: u64, block_words: usize) -> u64 {
    (2 * n).div_ceil(block_words as u64).max(1)
}

fn build(n: usize, pre: &[Point], device: Option<&Device>) -> Result<TopK, String> {
    let mut builder = TopK::builder().expected_n(n);
    if let Some(d) = device {
        builder = builder.device(d);
    }
    let h = builder.build_auto().map_err(|e| e.to_string())?;
    h.bulk_build(pre).map_err(|e| e.to_string())?;
    Ok(h)
}

/// The chunks of a measured window: `(phase index, ops, seconds)` of each
/// kept chunk, and how many chunks (and seconds) were left out for host
/// steal and for a shared core.
#[derive(Debug, Default)]
struct Window {
    kept: Vec<(usize, u64, f64)>,
    kept_secs: f64,
    stolen: usize,
    stolen_secs: f64,
    shared: usize,
    shared_secs: f64,
    /// The probe time above which a chunk counted as on a shared core.
    limit: f64,
}

impl Window {
    /// Which chunks the host left out, for the `ops_per_s` line.
    fn left_out(&self) -> String {
        format!(
            "left out: {} chunks ({:.2} s) with host steal, {} ({:.2} s) on a shared core \
             (probe over {:.3} ms)",
            self.stolen,
            self.stolen_secs,
            self.shared,
            self.shared_secs,
            1e3 * self.limit
        )
    }
}

/// One chunk as the window ran it.
struct ChunkRun {
    phase: usize,
    secs: f64,
    lens: ([usize; 4], [usize; 4]),
    stolen: bool,
    /// The slower of the host probes just before and just after it.
    probe: f64,
}

struct Runner {
    h: TopK,
    dev: Device,
    gen: OpGen,
    mirror: Mirror,
    tally: Tally,
    lat: Lat,
    tracer: Tracer,
    log: Vec<Exec>,
    keep_log: bool,
    io: IoCount,
    next_id: u64,
}

impl Runner {
    /// A caller on `h`, with the pool emptied and warmed by the stream's
    /// first [`WARMUP_CHUNKS`] chunks.
    fn warmed(h: TopK, w: Workload, seed: u64, pre: &[Point], keep_log: bool) -> Runner {
        let dev = h.device();
        dev.drop_cache();
        let mut r = Runner {
            h,
            dev,
            gen: OpGen::new(seed, 0, w.mix(), pre),
            mirror: Mirror::new(pre),
            tally: Tally::default(),
            lat: Lat::default(),
            tracer: Tracer::default(),
            log: Vec::new(),
            keep_log,
            io: IoCount::default(),
            next_id: 0,
        };
        for _ in 0..WARMUP_CHUNKS {
            r.chunk(Phase::Warm);
        }
        r
    }

    /// Run chunks, cycling through `phases`, for `seconds` of measured time,
    /// then leave out the chunks the host disturbed ([`undisturbed`]): those
    /// during which it reported steal time, and those next to a
    /// [`host_probe`] above the run's shared-core limit. A chunk left out
    /// loses its latency samples, and its time and operations do not count.
    /// Which chunks are kept thus depends on the hypervisor, not on how fast
    /// the program ran in them. If the host disturbed every chunk, every
    /// chunk is kept.
    fn window(&mut self, phases: &[Phase], seconds: f64) -> Window {
        let mut runs: Vec<ChunkRun> = Vec::new();
        let mut total = 0.0;
        let mut before = host_probe();
        for i in (0..phases.len()).cycle() {
            if total >= seconds {
                break;
            }
            let start = self.lat.lens();
            let steal = host_steal();
            let secs = self.chunk(phases[i]).as_secs_f64();
            let stolen = steal.is_some() && host_steal() != steal;
            let after = host_probe();
            runs.push(ChunkRun {
                phase: i,
                secs,
                lens: (start, self.lat.lens()),
                stolen,
                probe: before.max(after),
            });
            before = after;
            total += secs;
        }
        let (keep, limit) = undisturbed(
            &runs.iter().map(|c| c.probe).collect::<Vec<_>>(),
            &runs.iter().map(|c| c.stolen).collect::<Vec<_>>(),
        );
        let mut w = Window {
            limit,
            ..Window::default()
        };
        let mut spans = Vec::new();
        for (c, keep) in runs.iter().zip(keep) {
            if keep {
                w.kept.push((c.phase, CHUNK as u64, c.secs));
                w.kept_secs += c.secs;
                spans.push(c.lens);
            } else if c.stolen {
                w.stolen += 1;
                w.stolen_secs += c.secs;
            } else {
                w.shared += 1;
                w.shared_secs += c.secs;
            }
        }
        self.lat = self.lat.select(&spans);
        w
    }

    fn chunk(&mut self, phase: Phase) -> Duration {
        let ops: Vec<(Op, bool)> = (0..CHUNK).map(|_| self.gen.next_op()).collect();
        let mut answers: Vec<(usize, Vec<Point>)> = Vec::new();
        let start = Instant::now();
        for (i, &(op, check)) in ops.iter().enumerate() {
            let id = self.next_id;
            self.next_id += 1;
            let before = (phase == Phase::Count).then(|| self.dev.stats());
            let result = self.exec(op, id, phase);
            if let Some(before) = before {
                self.io.add(op.class(), &before, &self.dev.stats());
            }
            self.tally.attempted += 1;
            match result {
                Ok((answer, token)) => {
                    if self.keep_log {
                        self.log.push(Exec::new(op, id, &answer, token, phase));
                    }
                    if check {
                        answers.push((i, answer));
                    }
                }
                Err(e) => {
                    self.tally.failed += 1;
                    eprintln!("op {id} {op:?} failed: {e}");
                }
            }
        }
        let busy = start.elapsed();
        let mut answers = answers.into_iter().peekable();
        for (i, (op, _)) in ops.iter().enumerate() {
            if let Some((_, answer)) = answers.next_if(|(j, _)| *j == i) {
                if !self.mirror.verify(op, &answer) {
                    self.tally.failed += 1;
                    eprintln!("wrong answer to {op:?}");
                }
            }
            self.mirror.apply(op);
        }
        busy
    }

    /// Execute one operation; returns its answer (empty for writes) and,
    /// for a traced cursor session, the resume token it ended on.
    fn exec(
        &mut self,
        op: Op,
        id: u64,
        phase: Phase,
    ) -> Result<(Vec<Point>, Option<String>), String> {
        let timed = matches!(phase, Phase::Timed | Phase::Traced);
        let traced = phase == Phase::Traced;
        let t0 = self.tracer.now();
        let (result, name) = match op {
            Op::Query { x1, x2, k, class } => {
                let name = if class == Class::SmallK {
                    "facade.small_k"
                } else {
                    "facade.large_k"
                };
                (self.h.query(x1, x2, k).map_err(|e| e.to_string()), name)
            }
            Op::Cursor {
                x1,
                x2,
                k,
                page,
                pages,
            } => {
                return self.cursor(
                    QueryRequest::range(x1, x2).top(k).page_size(page),
                    pages,
                    id,
                    phase,
                )
            }
            Op::Insert(p) => (
                self.h
                    .insert(p)
                    .map(|_| Vec::new())
                    .map_err(|e| e.to_string()),
                "facade.insert",
            ),
            Op::Delete(p) => (
                match self.h.delete(p) {
                    Ok(true) => Ok(Vec::new()),
                    Ok(false) => Err("delete of a live point found nothing".to_string()),
                    Err(e) => Err(e.to_string()),
                },
                "facade.delete",
            ),
        };
        let t1 = self.tracer.now();
        if timed {
            self.lat.of(op.class()).push_ns(t1 - t0);
        }
        if traced {
            self.tracer.record(name, t0, t1, None, id);
        }
        result.map(|answer| (answer, None))
    }

    fn cursor(
        &mut self,
        request: QueryRequest,
        pages: usize,
        id: u64,
        phase: Phase,
    ) -> Result<(Vec<Point>, Option<String>), String> {
        let s0 = self.tracer.now();
        let mut cursor = self.h.cursor(request).map_err(|e| e.to_string())?;
        let mut all = Vec::new();
        let mut spans = Vec::with_capacity(pages);
        let mut t0 = s0;
        for _ in 0..pages {
            let batch = cursor.next_batch().map_err(|e| e.to_string())?;
            let t1 = self.tracer.now();
            spans.push((t0, t1));
            all.extend(batch);
            t0 = self.tracer.now();
        }
        if matches!(phase, Phase::Timed | Phase::Traced) {
            for &(a, b) in &spans {
                self.lat.page.push_ns(b - a);
            }
        }
        let mut token = None;
        if phase == Phase::Traced {
            let end = spans.last().map_or(s0, |s| s.1);
            let parent = self.tracer.record("facade.cursor", s0, end, None, id);
            for (a, b) in spans {
                self.tracer
                    .record("facade.cursor_page", a, b, Some(parent), id);
            }
            token = Some(cursor.token().to_string());
        }
        Ok((all, token))
    }
}

/// Run an in-process workload. Untraced: the end-to-end metrics. Traced:
/// the per-layer metrics (see `layers`).
pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let n = 1usize << Workload::LOG2_N;
    let pre = preload(seed, n, 0);
    let reps = if trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let (mut probes, mut stolen) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut handle = None;
    let mut before = host_probe();
    for _ in 0..reps {
        drop(handle.take());
        let steal = host_steal();
        let t = Instant::now();
        handle = Some(build(n, &pre, None)?);
        setups.push(t.elapsed().as_secs_f64());
        stolen.push(steal.is_some() && host_steal() != steal);
        let after = host_probe();
        probes.push(before.max(after));
        before = after;
    }
    // Set-ups the host disturbed are left out, as chunks are.
    let (keep, _) = undisturbed(&probes, &stolen);
    let setups: Vec<f64> = setups
        .into_iter()
        .zip(keep)
        .filter(|s| s.1)
        .map(|s| s.0)
        .collect();
    let h = handle.expect("at least one set-up ran");
    let dev = h.device();
    let index_blocks = h.space_blocks();
    let frames = dev.frames() as u64;
    let mut metrics = Vec::new();
    let mut tally = Tally::default();
    if trace {
        // I/O counts come from a fixed-length phase on an exact-LRU twin of
        // the facade: under the default sharded CLOCK pool they vary with
        // the page addresses the parallel bulk build hands out.
        let em = dev.config().exact_lru();
        let twin = build(n, &pre, Some(&Device::new(em)))?;
        let mut t = Runner::warmed(twin, w, seed, &pre, true);
        for _ in 0..COUNT_CHUNKS {
            t.chunk(Phase::Count);
        }
        metrics.extend(t.io.metrics());
        let counted = layers::replay(em, &pre, &t.log, &mut t.tracer)?;
        metrics.extend(counted.into_iter().filter(|m| m.unit == "ios"));
        tally.add(t.tally);
    }
    let mut r = Runner::warmed(h.clone(), w, seed, &pre, trace);
    if !trace {
        let window = r.window(&[Phase::Timed], seconds as f64);
        let ops = window.kept.len() * CHUNK;
        let kept = setups.len();
        metrics.push(Metric::new("setup_s", median_of(setups), "s").note(format!(
            "median of {kept} of {reps} set-ups (build_auto + bulk_build of {n} points; \
             the rest disturbed by the host)"
        )));
        metrics.push(
            Metric::new("ops_per_s", ops as f64 / window.kept_secs, "ops/s").note(format!(
                "{ops} ops in {:.2} s, 1 caller; {}",
                window.kept_secs,
                window.left_out()
            )),
        );
        metrics.extend(r.lat.metrics());
    } else {
        // Traced and untraced chunks alternate, so drift in the pool's
        // state or the host's load falls on both sides of the overhead.
        let window = r.window(&[Phase::Timed, Phase::Traced], seconds as f64);
        let sum = |phase: usize| {
            window
                .kept
                .iter()
                .filter(|c| c.0 == phase)
                .fold((0u64, 0f64), |a, c| (a.0 + c.1, a.1 + c.2))
        };
        let ((ops_u, secs_u), (ops_t, secs_t)) = (sum(0), sum(1));
        let overhead = 100.0 * ((secs_t / ops_t as f64) / (secs_u / ops_u as f64) - 1.0);
        metrics.push(
            Metric::new("trace.overhead_pct", overhead, "%").note(format!(
                "mean op time, traced vs untraced chunks ({ops_t} and {ops_u} ops)"
            )),
        );
        let timed = layers::replay(dev.config(), &pre, &r.log, &mut r.tracer)?;
        metrics.extend(timed.into_iter().filter(|m| m.unit != "ios"));
        metrics.extend(layers::space_shares(&dev, h.len()));
        metrics.extend(layers::wire_codec(&r.log, &mut r.tracer));
        metrics.extend(layers::topology(&r.tracer));
    }
    let live = h.len();
    let blocks = h.space_blocks();
    metrics.push(
        Metric::new(
            "space_ratio",
            blocks as f64 / min_blocks(live, dev.block_words()) as f64,
            "ratio",
        )
        .note(format!("{blocks} blocks for {live} points")),
    );
    metrics.push(Metric::new(
        "pool.index_blocks",
        index_blocks as f64,
        "blocks",
    ));
    metrics.push(Metric::new("pool.frames", frames as f64, "frames"));
    tally.add(r.tally);
    if live != r.mirror.len() || by_x(h.all_points()) != r.mirror.points() {
        tally.failed += 1;
        eprintln!(
            "final contents differ from the oracle: {live} vs {} points",
            r.mirror.len()
        );
    }
    if trace {
        let path = crate::out_dir().join(format!("spans-{}.tsv", w.name()));
        r.tracer
            .write_tsv(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        tally,
        metrics,
        info: format!(
            "index_blocks {index_blocks} pool_frames {frames} ratio {:.2} topology {} callers 1",
            index_blocks as f64 / frames as f64,
            h.topology()
        ),
    })
}

/// Physical I/Os of one operation on a single-threaded device.
pub fn ios(before: &IoStats, after: &IoStats) -> u64 {
    after.total_ios() - before.total_ios()
}
