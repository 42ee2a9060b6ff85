//! Recorded concurrent histories: multiple writer threads (disjoint
//! coordinate territories, so every interleaving is valid) race reader
//! threads against one shared topology, every op is recorded with its
//! commit stamps through the `testkit-hooks`, and the checker must find a
//! witness ordering for the whole history — exact spec matching per query
//! inside its version-stamp window.

use topk_core::{UpdateBatch, UpdateOp};
use topk_testkit::{check, generate_concurrent, BatchItem, Recorder, Seed, Topology, TraceOp};

fn run(topology: Topology, seed: Seed, salt: u64) {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    let plan = generate_concurrent(seed.derive(salt), WRITERS, 120, 80, READERS, 60);
    let (_device, handle) = topology.build(plan.preload.len() * 2);
    let recorder = Recorder::new(handle, &plan.preload)
        .unwrap_or_else(|e| panic!("{topology}: preload failed: {e}"));
    let context = format!(
        "topology={topology} seed={seed}; {}",
        seed.repro("history_concurrent")
    );

    std::thread::scope(|scope| {
        let recorder = &recorder;
        for ops in &plan.writer_ops {
            scope.spawn(move || {
                for op in ops {
                    match op {
                        TraceOp::Insert(p) => {
                            recorder
                                .insert(*p)
                                .expect("territory inserts are collision-free");
                        }
                        TraceOp::Delete(p) => {
                            assert!(
                                recorder.delete(*p).expect("delete is infallible"),
                                "a writer's own live point went missing"
                            );
                        }
                        TraceOp::Batch(items) => {
                            let batch = UpdateBatch::from_ops(items.iter().map(|i| match i {
                                BatchItem::Insert(p) => UpdateOp::Insert(*p),
                                BatchItem::Delete(p) => UpdateOp::Delete(*p),
                            }));
                            let summary =
                                recorder.apply(&batch).expect("territory batches are valid");
                            assert_eq!(summary.missing_deletes, 0);
                        }
                        other => unreachable!("writer schedules only update: {other}"),
                    }
                    std::thread::yield_now();
                }
            });
        }
        for queries in &plan.reader_queries {
            scope.spawn(move || {
                for &(x1, x2, k) in queries {
                    recorder.query(x1, x2, k).expect("reader queries are valid");
                }
            });
        }
    });

    let history = recorder.into_history();
    let report = check(&history).unwrap_or_else(|v| panic!("{v}; {context}"));
    assert_eq!(report.queries, READERS * 60, "{context}");
    assert!(report.writes > 0, "{context}");
}

/// One shard: every write takes the whole index's striped write lock — the
/// coarse-lock shape small and durable indexes serve from.
#[test]
fn concurrent_histories_admit_a_witness_ordering_on_the_coarse_lock() {
    let seed = Seed::from_env(0x41C7);
    run(Topology(1), seed, 1);
}

#[test]
fn concurrent_histories_admit_a_witness_ordering_on_sharded_topologies() {
    let seed = Seed::from_env(0x41C8);
    for (salt, topology) in [(2u64, Topology(1)), (3, Topology(4))] {
        run(topology, seed, salt);
    }
}
