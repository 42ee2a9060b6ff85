//! The motivating example from the paper's introduction: "find the 10
//! best-rated hotels whose prices are between 100 and 200 dollars per night".
//!
//! Prices are the coordinates (in cents), user ratings are the scores
//! (scaled to distinct integers). The generator *does* occasionally produce
//! two hotels at the same price — which the fallible API reports as a typed
//! error instead of silently corrupting the index — and the nightly reprice
//! is committed as one atomic [`UpdateBatch`]. Run with
//! `cargo run --release --example hotel_search`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use topk::{Point, QueryRequest, TopK, TopKError, UpdateBatch};

fn main() -> Result<(), TopKError> {
    let n = 200_000u64;
    // build_auto() picks the shard count from the expected size; the rest
    // of this example is written against the TopK handle, so it runs
    // unchanged whether that resolves to one shard or several.
    let index = TopK::builder()
        .block_words(512)
        .pool_bytes(16 << 20)
        .expected_n(n as usize)
        .build_auto()?;
    println!("serving shards: {}", index.shard_count());
    let device = index.device();
    let mut rng = StdRng::seed_from_u64(2014);

    // 200k hotels with prices between $30 and $900 (in tenths of a cent, so
    // near-collisions stay rare) and ratings in [0, 10000] made distinct by
    // mixing in the hotel id. Price collisions are real: the index rejects
    // them and we count the rejects instead of corrupting the structure.
    let mut hotels = Vec::new();
    let mut rejected = 0usize;
    for i in 0..n {
        let price_cents = rng.gen_range(3_000..90_000) as u64 * 1000 + i % 1000;
        let rating = rng.gen_range(0..10_000u64) * n + i;
        let hotel = Point::new(price_cents, rating);
        match index.insert(hotel) {
            Ok(()) => hotels.push(hotel),
            Err(TopKError::DuplicateX { .. }) => rejected += 1,
            Err(other) => return Err(other),
        }
    }
    println!(
        "indexed {} hotels ({rejected} duplicate-price listings rejected)",
        index.len()
    );

    // The query from the paper: the best-rated hotels between $100 and
    // $200, paged like a search UI — 10 per page through an owned cursor.
    // The resume token is what the UI would stash in the "next page" link:
    // it survives process boundaries, so page 2 can be served by another
    // worker.
    let lo = 10_000 * 1000;
    let hi = 20_000 * 1000 + 999;
    let mut cursor = index.cursor(QueryRequest::range(lo, hi).top(30).page_size(10))?;
    let (page, cost) = device.measure(|| cursor.next_batch());
    println!(
        "10 best-rated hotels between $100 and $200 ({} I/Os):",
        cost.total()
    );
    for p in &page? {
        println!(
            "  ${:>7.2}  rating {:.2}/10",
            (p.x / 1000) as f64 / 100.0,
            (p.score / n) as f64 / 1000.0
        );
    }
    let next_page_link = cursor.token().to_string();
    drop(cursor);
    println!("next-page token: {next_page_link}");
    let token = next_page_link.parse()?;
    let page2 = index.cursor(QueryRequest::after(&token))?.next_batch()?;
    println!(
        "page 2 (served from the token) starts at ${:.2}, rating {:.2}/10",
        (page2[0].x / 1000) as f64 / 100.0,
        (page2[0].score / n) as f64 / 1000.0
    );

    // Overnight, 5000 hotels reprice into a premium tier: one atomic batch —
    // validated up front, all-or-nothing, one rebuild check at commit. The
    // ratings carry over: an in-batch delete frees the score for reuse.
    let mut reprice = UpdateBatch::new();
    for h in hotels.iter().take(5_000) {
        reprice = reprice
            .delete(*h)
            .insert(Point::new(h.x + 1_000_000_000, h.score));
    }
    let summary = index.apply(&reprice)?;
    println!(
        "reprice batch: {} ops → {} deleted, {} inserted, {} missing",
        reprice.len(),
        summary.deleted,
        summary.inserted,
        summary.missing_deletes
    );

    let best = index.query(lo, hi, 10)?;
    println!(
        "after the batched reprice the answer still has {} hotels",
        best.len()
    );
    println!("device stats: {}", device.stats());
    Ok(())
}
