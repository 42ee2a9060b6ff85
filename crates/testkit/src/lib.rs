//! # topk-testkit — the deterministic verification subsystem
//!
//! Every serving topology in this workspace ([`topk_core::TopKIndex`],
//! [`topk_core::ShardedTopK`], and the cursor read plane over them) must
//! provably agree with the sequential spec — [`baselines::NaiveTopK`], the scan oracle — under arbitrary
//! operation sequences and adversarial interleavings. Before this crate,
//! each integration harness (`sharded_stress`, `concurrency`, `cursor`,
//! `crosscheck`) reinvented its own generator, oracle wiring and seed
//! plumbing; this crate is that machinery, once:
//!
//! * [`trace`] — a serializable operation DSL
//!   ([`TraceOp`]`::{Insert, Delete, Batch, Query, CursorOpen, CursorNext,
//!   CursorResume, RebalanceHint}`) with a line-oriented `.trace` text
//!   format that round-trips via `Display` / `FromStr`, so failures are
//!   files;
//! * [`gen`] — seeded trace generators over the five
//!   [`workload::PointDistribution`]s, plus disjoint-territory writer
//!   schedules for concurrent runs;
//! * [`mod@replay`] — op-by-op differential replay of a
//!   trace against any [`Topology`], with an explicit model of the cursor
//!   consistency contract (DESIGN.md §6) and token round-trips on every
//!   resume;
//! * [`mod@crashfs`] and [`mod@crash`] — the crash-recovery topology: an
//!   in-memory [`CrashFs`] medium logs every file call of a durable index
//!   running a seeded write stream, the state a crash leaves is rebuilt at
//!   every boundary between two calls under four [`Policy`]s for the
//!   unsynced ones, and each is reopened and checked against the spec
//!   (DESIGN.md §10);
//! * [`history`] — a concurrent history [`Recorder`] that timestamps each
//!   op with the engine's commit stamps (the `testkit-hooks` feature of
//!   `topk-core`), and a [`check`] pass that
//!   requires every recorded query to match the spec at some version
//!   inside its stamp window — exact matching for sequential histories,
//!   bounded witness search for concurrent ones;
//! * [`mod@shrink`] — delta debugging from any failing replay down to a
//!   minimal `.trace` written to `target/repro/`, plus the one-line
//!   command that replays it;
//! * [`Seed`] — one `TOPK_SEED` environment variable and one repro-line
//!   format for every seeded harness in the workspace;
//! * [`mod@fault`] — a planted ordering bug in the answers the harness
//!   receives, so the mutation tests can check that the checkers and the
//!   shrinker catch a real fault.
//!
//! The `replay` example binary runs any `.trace` file against any
//! topology: `cargo run -p topk-testkit --example replay -- file.trace
//! sharded-4`. Checked-in regression traces live in `traces/` at the
//! workspace root and replay in `tests/trace_replay.rs`.

pub mod crash;
pub mod crashfs;
pub mod fault;
pub mod gen;
pub mod history;
pub mod replay;
pub mod seed;
pub mod shrink;
pub mod topology;
pub mod trace;

pub use crash::{
    conversion_crash_check, crash_recovery_check, open_on, scratch_dir, write_ops, CrashReport,
    CrashSpec, Outcome,
};
pub use crashfs::{CrashFs, Files, Policy, Syscall};
pub use gen::{generate, generate_concurrent, ConcurrentPlan, OpMix, TraceSpec};
pub use history::{check, Event, History, HistoryReport, HistoryViolation, Recorder};
pub use replay::{replay, replay_durable, replay_on, Divergence, ReplayStats};
pub use seed::{Seed, SEED_ENV};
pub use shrink::{replay_or_shrink, repro_dir, shrink, shrink_to_file, ShrinkReport};
pub use topology::Topology;
pub use trace::{BatchItem, Trace, TraceOp, TraceParseError, TRACE_HEADER};

/// The five workload distributions every sweep covers (re-exported so
/// harnesses need not also depend on `workload` directly).
pub const DISTRIBUTIONS: [workload::PointDistribution; 5] = [
    workload::PointDistribution::Uniform,
    workload::PointDistribution::Correlated,
    workload::PointDistribution::AntiCorrelated,
    workload::PointDistribution::SortedInsertions,
    workload::PointDistribution::Clustered,
];
