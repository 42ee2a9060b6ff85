//! The served probe, part of `write_churn`'s traced run: the per-layer
//! metrics of the layers only a server has. An in-process `topk-server` on
//! loopback TCP with a durable data directory (file-backed WAL, one fsync
//! per committed batch, the coarse-locked topology) is preloaded with 2^15
//! points, which fit in the pool, and driven by two lockstep `TopkClient`
//! connections, each its own closed loop.
//!
//! Served end to end, these numbers followed the 2-vCPU host's steal time
//! (quartile spreads up to 1.0 over ten runs), so they are per-layer
//! metrics of a traced run, which carry no bound, and not a workload.
//!
//! The preload's scores all lie above every fresh score the clients write,
//! and every served range holds at least `k` preload points, so the right
//! answer to any query is fixed by the preload however the clients' writes
//! interleave: sampled answers are checked after the run.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use topk_core::{Point, TopK};
use topk_server::{Server, ServerConfig, TopkClient};

use crate::check::{by_x, Mirror};
use crate::gen::{
    preload, Class, Mix, Op, OpGen, QueryShape, RangeKind, WriteMode, SERVED_SCORE_OFFSET,
};
use crate::report::{Metric, Tally};
use crate::stats::median_of;
use crate::trace::{paired_overhead, Tracer};

/// Preload size: 2^15 points, about 2.7k blocks, fit in the 4,096 frames.
const LOG2_N: u32 = 15;
/// Client connections, one per vCPU of a 2-vCPU host.
const CONNECTIONS: u64 = 2;
/// Operations each client runs before the traced phase.
const WARMUP_OPS: u64 = 2048;
/// Timed inserts per side for `persist.insert_us`, and fsyncs for
/// `fs.fsync_us`.
const PROBE_OPS: u64 = 400;
const FSYNC_PROBES: usize = 50;

/// The served operation mix: 70% `QUERY` at k = 10 over 1% ranges, 5%
/// large-k over 25% ranges, 5% cursor sessions, 20% writes alternating an
/// insert of the client's own fresh point with its delete. Every range
/// holds well over `k` preload points.
pub fn mix() -> Mix {
    Mix {
        small_k: 70,
        large_k: 5,
        cursor: 5,
        write: 20,
        small: QueryShape {
            ks: &[10],
            ranges: &[RangeKind::Uniform(0.01)],
        },
        large: QueryShape {
            ks: &[256, 1024, 4096],
            ranges: &[RangeKind::Uniform(0.25)],
        },
        cursor_ranges: &[RangeKind::Uniform(0.05), RangeKind::Uniform(0.25)],
        write_mode: WriteMode::OwnAlternating,
    }
}

/// A directory removed when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientOut {
    tally: Tally,
    checks: Vec<(Op, Vec<Point>)>,
    tracer: Tracer,
    own_live: Option<Point>,
}

struct Plan<'a> {
    seed: u64,
    pre: &'a [Point],
    addr: std::net::SocketAddr,
    handle: TopK,
    seconds: f64,
    barrier: &'a Barrier,
    epoch: Instant,
}

fn client(c: u64, plan: &Plan) -> Result<ClientOut, String> {
    let mut conn = TopkClient::connect(plan.addr).map_err(|e| e.to_string())?;
    let mut gen = OpGen::new(plan.seed, c, mix(), plan.pre);
    let mut out = ClientOut {
        tracer: Tracer::with_epoch(plan.epoch),
        ..ClientOut::default()
    };
    let mut id = c << 40;
    // Warm up for WARMUP_OPS operations (`None`), or run traced for
    // `seconds`.
    let mut run = |out: &mut ClientOut, seconds: Option<f64>| {
        let start = Instant::now();
        let mut ops = 0u64;
        loop {
            match seconds {
                Some(s) if start.elapsed().as_secs_f64() >= s => break,
                None if ops >= WARMUP_OPS => break,
                _ => {}
            }
            let (op, check) = gen.next_op();
            id += 1;
            ops += 1;
            out.tally.attempted += 1;
            match exec(&mut conn, op, id, seconds.is_some(), out, &plan.handle) {
                Ok(answer) if check => out.checks.push((op, answer)),
                Ok(_) => {}
                Err(e) => {
                    out.tally.failed += 1;
                    eprintln!("client {c} op {op:?} failed: {e}");
                }
            }
        }
    };
    run(&mut out, None);
    plan.barrier.wait(); // every client quiescent
    plan.barrier.wait(); // go
    run(&mut out, Some(plan.seconds));
    plan.barrier.wait(); // done
    out.own_live = gen.own_live();
    Ok(out)
}

/// One served operation; when `traced`, a span around the call, and a
/// small-k query is also timed on the in-process handle.
fn exec(
    conn: &mut TopkClient,
    op: Op,
    id: u64,
    traced: bool,
    out: &mut ClientOut,
    handle: &TopK,
) -> Result<Vec<Point>, String> {
    let tr = &mut out.tracer;
    let t0 = tr.now();
    let (result, name) = match op {
        Op::Query { x1, x2, k, class } => {
            let name = if class == Class::SmallK {
                "client.small_k"
            } else {
                "client.large_k"
            };
            (
                conn.query(x1, x2, k as u32).map_err(|e| e.to_string()),
                name,
            )
        }
        Op::Cursor {
            x1,
            x2,
            k,
            page,
            pages,
        } => {
            let mut reply = conn
                .cursor_open(x1, x2, k as u32, page as u32, false)
                .map_err(|e| e.to_string())?;
            let mut all = reply.points.clone();
            for _ in 1..pages {
                reply = conn.cursor_next(&reply.token).map_err(|e| e.to_string())?;
                all.extend_from_slice(&reply.points);
            }
            (Ok(all), "client.cursor")
        }
        Op::Insert(p) => (
            conn.insert(p)
                .map(|_| Vec::new())
                .map_err(|e| e.to_string()),
            "client.insert",
        ),
        Op::Delete(p) => (
            match conn.delete(p) {
                Ok(true) => Ok(Vec::new()),
                Ok(false) => Err("delete of an owned point found nothing".to_string()),
                Err(e) => Err(e.to_string()),
            },
            "client.delete",
        ),
    };
    let t1 = tr.now();
    if traced {
        tr.record(name, t0, t1, None, id);
        if let Op::Query {
            x1,
            x2,
            k,
            class: Class::SmallK,
        } = op
        {
            tr.span("facade.small_k", id, None, || handle.query(x1, x2, k))
                .0
                .map_err(|e| e.to_string())?;
        }
    }
    result
}

/// `persist.insert_us`: the same fresh inserts on the durable handle and on
/// a RAM handle of the same size; the difference of their medians.
fn persist_probe(
    durable: &TopK,
    n: usize,
    pre: &[Point],
    tracer: &mut Tracer,
) -> Result<Metric, String> {
    let ram = TopK::builder()
        .expected_n(n)
        .build_auto()
        .map_err(|e| e.to_string())?;
    ram.bulk_build(pre).map_err(|e| e.to_string())?;
    for (name, h) in [
        ("persist.durable_insert", durable),
        ("persist.ram_insert", &ram),
    ] {
        for m in 0..PROBE_OPS {
            // Coordinates 3j+2 and scores from 2^39 up: disjoint from the
            // preload and from the clients' fresh points.
            let p = Point::new(3 * ((m * 7919) % n as u64) + 2, (1 << 39) + m);
            tracer
                .span(name, m, None, || h.insert(p))
                .0
                .map_err(|e| e.to_string())?;
            if !h.delete(p).map_err(|e| e.to_string())? {
                return Err(format!("probe delete of {p:?} found nothing"));
            }
        }
    }
    let d = median_of(tracer.durations_us("persist.durable_insert"));
    let r = median_of(tracer.durations_us("persist.ram_insert"));
    Ok(Metric::new("persist.insert_us", d - r, "us").note(format!(
        "durable {d:.1} us - RAM {r:.1} us, median of {PROBE_OPS} each"
    )))
}

/// `fs.fsync_us`: `sync_data` after a 4 KiB append in the data directory.
fn fsync_probe(dir: &Path, tracer: &mut Tracer) -> Result<Metric, String> {
    let path = dir.join("fsync-probe");
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| e.to_string())?;
    let block = [0x5au8; 4096];
    for i in 0..FSYNC_PROBES {
        f.write_all(&block).map_err(|e| e.to_string())?;
        tracer
            .span("fs.fsync", i as u64, None, || f.sync_data())
            .0
            .map_err(|e| e.to_string())?;
    }
    drop(f);
    let _ = std::fs::remove_file(&path);
    Ok(Metric::new(
        "fs.fsync_us",
        median_of(tracer.durations_us("fs.fsync")),
        "us",
    )
    .note(format!("median of {FSYNC_PROBES}")))
}

/// Run the served probe for `seconds` of traced load; returns its
/// per-layer metrics and operation counts, and writes its spans.
pub fn probe(seed: u64, seconds: u64) -> Result<(Vec<Metric>, Tally), String> {
    let n = 1usize << LOG2_N;
    let pre = preload(seed, n, SERVED_SCORE_OFFSET);
    let dir = TempDir(crate::out_dir().join(format!("served-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("creating {}: {e}", dir.0.display()))?;
    let server = Server::start(ServerConfig {
        expected_n: n,
        data_dir: Some(dir.0.clone()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("starting the server: {e}"))?;
    let h = server.handle().clone();
    h.bulk_build(&pre).map_err(|e| e.to_string())?;
    let dev = h.device();
    dev.drop_cache();

    let barrier = Barrier::new(CONNECTIONS as usize + 1);
    let mut tracer = Tracer::default();
    let plan = Plan {
        seed,
        pre: &pre,
        addr: server.local_addr(),
        handle: h.clone(),
        seconds: seconds as f64,
        barrier: &barrier,
        epoch: tracer.epoch(),
    };
    let (outs, before, after) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let plan = &plan;
                s.spawn(move || client(c, plan))
            })
            .collect();
        barrier.wait();
        let before = (server.stats(), dev.durable_stats());
        barrier.wait();
        barrier.wait();
        let after = (server.stats(), dev.durable_stats());
        let outs: Vec<Result<ClientOut, String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect();
        (outs, before, after)
    });
    let outs: Vec<ClientOut> = outs.into_iter().collect::<Result<_, _>>()?;

    let mut tally = Tally::default();
    let reference = Mirror::new(&pre);
    let mut expected = pre.clone();
    for out in outs {
        tally.add(out.tally);
        for (op, answer) in &out.checks {
            if !reference.verify(op, answer) {
                tally.failed += 1;
                eprintln!("wrong served answer to {op:?}");
            }
        }
        tracer.absorb(out.tracer);
        expected.extend(out.own_live);
    }

    let ((s0, d0), (s1, d1)) = (before, after);
    let writes = (s1.ops_committed - s0.ops_committed).max(1) as f64;
    let batches = (s1.batches_committed - s0.batches_committed).max(1) as f64;
    let commits = (d1.commits - d0.commits) as f64;
    let mut metrics = Vec::new();
    if let Some(d) = paired_overhead(
        &tracer.by_op_us("client.small_k"),
        &tracer.by_op_us("facade.small_k"),
    ) {
        metrics.push(
            Metric::new("server.overhead_us", d, "us")
                .note("median paired (served - handle) small-k latency"),
        );
    }
    metrics.push(
        Metric::new("queue.batch_mean", writes / batches, "ops")
            .note(format!("{writes} writes in {batches} batches")),
    );
    metrics.push(Metric::new(
        "queue.rejected",
        ((s1.writes_rejected - s0.writes_rejected) + (s1.conns_rejected - s0.conns_rejected))
            as f64,
        "count",
    ));
    metrics.push(
        Metric::new(
            "wal.bytes_per_write",
            (d1.wal_bytes - d0.wal_bytes) as f64 / writes,
            "bytes",
        )
        .note(format!("over {writes} committed writes")),
    );
    metrics.push(Metric::new(
        "wal.commits_per_write",
        commits / writes,
        "ratio",
    ));
    metrics.push(Metric::new(
        "wal.pwrites_per_commit",
        (d1.pwrites - d0.pwrites) as f64 / commits.max(1.0),
        "count",
    ));
    metrics.push(Metric::new(
        "wal.checkpoints",
        (d1.checkpoints - d0.checkpoints) as f64,
        "count",
    ));
    metrics.push(persist_probe(&h, n, &pre, &mut tracer)?);
    metrics.push(fsync_probe(&dir.0, &mut tracer)?);
    if by_x(h.all_points()) != by_x(expected) {
        tally.failed += 1;
        eprintln!("final served contents differ from the preload plus the clients' live points");
    }
    Server::shutdown(server);
    let path = crate::out_dir().join("spans-served.tsv");
    tracer
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok((metrics, tally))
}
