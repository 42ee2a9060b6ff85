//! Quickstart: build the serving handle with `build_auto()`, run
//! top-k range queries (eager and paged through an owned cursor), resume a
//! pagination from a serialized token, and look at the I/O counters of the
//! simulated machine.
//!
//! Run with `cargo run --release --example quickstart`.

use topk::{Point, QueryRequest, ResumeToken, TopK, TopKError};

fn main() -> Result<(), TopKError> {
    // A machine with 4 KiB blocks (512 words of 8 bytes) and 16 MiB of
    // memory; `build_auto()` owns device construction and picks the shard
    // count from the expected input size. The index answers every k from
    // the pilot drain.
    let n = 100_000u64;
    let index = TopK::builder()
        .block_words(512)
        .pool_bytes(16 << 20)
        .expected_n(n as usize)
        .build_auto()?;
    let device = index.device();
    println!("shards picked for n = {n}: {}", index.shard_count());

    // Insert 100k points with pseudo-random distinct coordinates and scores.
    for i in 0..n {
        let x = (i * 2654435761) % (8 * n) + 1;
        let score = (i * 40503) % (16 * n) * 8 + (i % 8);
        index.insert(Point::new(x, score))?;
    }
    println!(
        "inserted {} points, space = {} blocks",
        index.len(),
        index.space_blocks()
    );

    // Top-10 in a 10% slice of the domain — the eager one-shot answer.
    let (top, cost) = device.measure(|| index.query(n, 2 * n, 10));
    let top = top?;
    println!("top-10 of [{}..{}]:", n, 2 * n);
    for p in &top {
        println!("  x = {:8}  score = {}", p.x, p.score);
    }
    println!("query cost: {} physical I/Os ({})", cost.total(), cost);

    // The owned cursor pays only for the prefix actually fetched, holds no
    // lock between rounds, and its position serializes into a resume token.
    let mut cursor = index.cursor(QueryRequest::range(0, u64::MAX).top(4096).page_size(3))?;
    let (first_page, cost) = device.measure(|| cursor.next_batch());
    println!(
        "first page of a top-4096 cursor costs {} I/Os ({:?})",
        cost.total(),
        first_page?.iter().map(|p| p.score).collect::<Vec<_>>()
    );
    let token = cursor.token().to_string();
    drop(cursor); // no lock was held anyway — the token is the whole state
    println!("resume token: {token}");

    // …in another process: parse the token and keep going.
    let token: ResumeToken = token.parse()?;
    let (next_page, cost) = device.measure(|| {
        index
            .cursor(QueryRequest::after(&token))
            .and_then(|mut c| c.next_batch())
    });
    println!(
        "resumed page costs {} I/Os ({:?})",
        cost.total(),
        next_page?.iter().map(|p| p.score).collect::<Vec<_>>()
    );

    println!("lifetime device stats: {}", device.stats());
    Ok(())
}
