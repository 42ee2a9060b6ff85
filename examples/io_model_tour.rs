//! A tour of the external-memory simulator itself: how block size and memory
//! size change the measured cost of the same workload, and how the index's
//! components contribute to the space budget. The per-machine indexes are
//! assembled entirely through the builder — no hand-built device — and
//! queried through the [`TopK`] serving handle.
//!
//! Run with `cargo run --release --example io_model_tour`.

use topk::{Point, TopK, TopKError};

fn run(block_words: usize, mem_blocks: usize) -> Result<(), TopKError> {
    let n = 50_000u64;
    let index = TopK::builder()
        .block_words(block_words)
        .pool_bytes(block_words * mem_blocks * 8)
        .expected_n(n as usize)
        .build_auto()?;
    let device = index.device();
    for i in 0..n {
        index.insert(Point::new((i * 7919) % (4 * n) + 1, i * 13 + 1))?;
    }
    device.reset_stats();
    for q in 0..50u64 {
        device.drop_cache();
        index.query(q * 1000, q * 1000 + n / 2, 10)?;
    }
    let stats = device.stats();
    println!(
        "B = {:>5} words, M = {:>5} blocks | {:>7.1} I/Os per query | hit rate {:>5.1}% | space {:>6} blocks",
        block_words,
        mem_blocks,
        stats.total_ios() as f64 / 50.0,
        stats.hit_rate() * 100.0,
        device.space_blocks(),
    );
    println!("  space breakdown (top files):");
    let mut files = device.space_breakdown();
    files.sort_by_key(|(_, blocks)| std::cmp::Reverse(*blocks));
    for (name, blocks) in files.into_iter().take(5) {
        println!("    {:<24} {:>6} blocks", name, blocks);
    }
    Ok(())
}

fn main() -> Result<(), TopKError> {
    println!("The same 50k-point, 50-query workload on different machines:\n");
    for (block, mem) in [(128, 64), (256, 128), (512, 256), (1024, 512), (512, 16)] {
        run(block, mem)?;
    }
    println!("\nLarger blocks shorten the B-tree paths (log_B n) and pack more of");
    println!("each answer per block (k/B); a tiny buffer pool forces re-reads.");
    Ok(())
}
