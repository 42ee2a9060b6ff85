//! Seeded differential stress harness, on the `topk_testkit` subsystem.
//!
//! Concurrency and partitioning bugs are exactly the ones a fixed unit test
//! misses, so this harness generates long mixed
//! insert/delete/query/batch/cursor workloads — seeded traces from
//! `topk_testkit::gen` under **all five** `workload::PointDistribution`s —
//! and replays them against **every serving topology**
//! (`sharded-{1,4,16}`) under full differential checking
//! against the `NaiveTopK` scan spec: every query answer, count, batch
//! summary, cursor page and token round-trip is compared, with periodic
//! length/ranking/invariant deep checks (this machinery previously lived
//! inline here; PR 5 moved it into `crates/testkit` so every harness
//! shares it).
//!
//! Every case is derived from a single seed; set `TOPK_SEED=<n>` to replay
//! a CI failure locally. On divergence the shrinker writes a minimal
//! `target/repro/*.trace` and the panic message carries both the
//! seed-level repro line and the one-command trace replay.

use topk_testkit::{generate, replay_or_shrink, OpMix, Seed, Topology, TraceSpec, DISTRIBUTIONS};

#[test]
fn every_topology_matches_the_spec_across_distributions() {
    for seed in Seed::matrix(&[0xD1F5]) {
        for distribution in DISTRIBUTIONS {
            let spec = TraceSpec {
                preload: 600,
                ops: 400,
                ..TraceSpec::new(distribution, seed.derive(distribution as u64))
            };
            let trace = generate(&spec);
            for topology in Topology::ALL {
                replay_or_shrink(
                    &trace,
                    topology,
                    &format!("stress-{distribution:?}-{topology}-{seed}"),
                    &format!(
                        "dist={distribution:?} topology={topology} seed={seed}; {}",
                        seed.repro("sharded_stress")
                    ),
                );
            }
        }
    }
}

#[test]
fn delete_heavy_workloads_match_the_spec() {
    // The regime that exposed the ePST seed bugs (and the pilot pull-up
    // bug): heavy deletes drain caches and pilot sets, forcing the refill
    // and pull-up paths while queries and cursors keep checking answers.
    for seed in Seed::matrix(&[0xDE1E]) {
        for distribution in DISTRIBUTIONS {
            let spec = TraceSpec {
                preload: 700,
                ops: 500,
                mix: OpMix::delete_heavy(),
                ..TraceSpec::new(distribution, seed.derive(0x6F ^ distribution as u64))
            };
            let trace = generate(&spec);
            for topology in Topology::ALL {
                replay_or_shrink(
                    &trace,
                    topology,
                    &format!("delete-heavy-{distribution:?}-{topology}-{seed}"),
                    &format!(
                        "dist={distribution:?} topology={topology} seed={seed}; {}",
                        seed.repro("sharded_stress")
                    ),
                );
            }
        }
    }
}
