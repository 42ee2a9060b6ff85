//! A sliding-window monitoring scenario: a stream of measurements is indexed
//! by timestamp with an "anomaly score"; a dashboard repeatedly asks for the
//! top-k most anomalous events in recent windows while old events expire.
//!
//! This exercises the dynamic side of the structure through the batched API
//! — every step commits one arrival plus one expiry as a single atomic
//! [`UpdateBatch`] — and the cursor read plane: the dashboard paginates
//! through an owned [`QueryCursor`](topk::QueryCursor) that takes the read
//! lock only per page, so the (slow, human-paced) dashboard never blocks the
//! ingest writer the way a held read guard would. A strict-consistency pass
//! at the end shows how an interleaved write surfaces as a typed
//! [`TopKError::SnapshotInvalidated`]. Run with
//! `cargo run --release --example stream_monitor`.

use std::collections::VecDeque;

use topk::{Consistency, Point, QueryRequest, TopK, TopKError, UpdateBatch};

fn main() -> Result<(), TopKError> {
    let window = 50_000u64;
    let steps = 150_000u64;
    let index = TopK::builder()
        .block_words(512)
        .pool_bytes(16 << 20)
        .expected_n(window as usize)
        .build_auto()?;
    let device = index.device();

    let mut live: VecDeque<Point> = VecDeque::new();
    let mut total_query_ios = 0u64;
    let mut queries = 0u64;
    for t in 0..steps {
        // New measurement at timestamp t with a pseudo-random anomaly score,
        // batched together with the expiry of the oldest measurement once
        // the window is full: one write-lock acquisition per step.
        let score = (t * 48271) % 0x7fff_ffff;
        let p = Point::new(t + 1, score * steps + t);
        let mut batch = UpdateBatch::new().insert(p);
        live.push_back(p);
        if live.len() as u64 > window {
            let old = live.pop_front().unwrap();
            batch = batch.delete(old);
        }
        index.apply(&batch)?;
        // Every 10k steps the dashboard refreshes: top-20 of the last 10k
        // timestamps, paged through an owned cursor — each page takes the
        // read lock once and releases it, so ingest continues between pages
        // (a held read guard would stall it for the dashboard's lifetime).
        if t % 10_000 == 0 && t > 0 {
            let mut cursor =
                index.cursor(QueryRequest::range(t - 9_999, t + 1).top(20).page_size(5))?;
            let mut top: Vec<Point> = Vec::new();
            let mut pages = 0u32;
            let (_, cost) = device.measure(|| -> Result<(), TopKError> {
                loop {
                    let page = cursor.next_batch()?;
                    if page.is_empty() {
                        return Ok(());
                    }
                    pages += 1;
                    // Between these rounds the writer is free to commit.
                    top.extend(page);
                }
            });
            total_query_ios += cost.total();
            queries += 1;
            println!(
                "t={:>7}: window size {:>6}, top anomaly score {:>12}, {} pages, {} I/Os",
                t,
                index.len(),
                top.first().map(|p| p.score).unwrap_or(0),
                pages,
                cost.total()
            );
        }
    }
    println!(
        "ran {} steps; average dashboard refresh cost {:.1} I/Os; final space {} blocks",
        steps,
        total_query_ios as f64 / queries.max(1) as f64,
        index.space_blocks()
    );

    // Strict mode: a dashboard that must not silently mix index versions
    // pins the snapshot and is told — with a typed error — when ingest moved
    // it between two of its pages.
    let mut strict = index.cursor(
        QueryRequest::range(0, steps + 1)
            .top(10)
            .page_size(5)
            .consistency(Consistency::Strict),
    )?;
    strict.next_batch()?;
    index.insert(Point::new(steps + 10, 3))?; // ingest strikes mid-pagination
    match strict.next_batch() {
        Err(TopKError::SnapshotInvalidated { expected, observed }) => println!(
            "strict dashboard detected the interleaved write (version {expected} -> {observed}); \
             re-issuing against the new state"
        ),
        other => println!("unexpected strict outcome: {other:?}"),
    }
    Ok(())
}
