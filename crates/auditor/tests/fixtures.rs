//! Fixture-driven proof that every pass is live: each known-bad snippet
//! under `fixtures/` must fire its pass, each known-good snippet must stay
//! quiet, and a violation injected into a *real* workspace file must be
//! caught (the same check CI runs through the binary).

use topk_auditor::{audit_source, AuditConfig, Finding, Pass, Severity};

const LOCK_BAD: &str = include_str!("../fixtures/lock_order_bad.rs");
const LOCK_GOOD: &str = include_str!("../fixtures/lock_order_good.rs");
const PANIC_BAD: &str = include_str!("../fixtures/panic_path_bad.rs");
const PANIC_GOOD: &str = include_str!("../fixtures/panic_path_good.rs");
const ATOMICS_BAD: &str = include_str!("../fixtures/atomics_bad.rs");
const ATOMICS_GOOD: &str = include_str!("../fixtures/atomics_good.rs");
const ASSERT_BAD: &str = include_str!("../fixtures/debug_assert_bad.rs");
const ASSERT_GOOD: &str = include_str!("../fixtures/debug_assert_good.rs");
const PRAGMA_OK: &str = include_str!("../fixtures/pragma_ok.rs");
const PRAGMA_BAD: &str = include_str!("../fixtures/pragma_bad.rs");

/// Audit `src` as if it lived at `path` in the workspace.
fn audit(path: &str, src: &str) -> Vec<Finding> {
    audit_source(path, src, &AuditConfig::default()).findings
}

fn of_pass(findings: &[Finding], pass: Pass) -> Vec<&Finding> {
    findings.iter().filter(|f| f.pass == pass).collect()
}

// ----- P1: lock_order -----

#[test]
fn lock_order_fires_on_bad_fixture() {
    let findings = audit("crates/core/src/fixture.rs", LOCK_BAD);
    let hits = of_pass(&findings, Pass::LockOrder);
    // Rule A six times (out-of-order, same-class registry, pool-shard
    // inversion, wal inversion, connreg inversion, connreg same-class) and
    // Rule B five times (I/O + rebuild entry while a forbidden-class guard
    // is live, I/O under a pool-shard guard, a raw file verb and a medium
    // verb under the WAL mutex).
    assert_eq!(hits.len(), 11, "findings: {findings:?}");
    assert!(hits.iter().any(|f| f.message.contains("acquires `shard`")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("acquires `connreg`") && f.message.contains("`shard` guard")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("same-class acquisition of `connreg`")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("acquires `registry`")
            && f.message.contains("`poolshard` guard")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("`poolshard` guard `pool_shard`")
            && f.message.contains("`alloc()`")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("acquires `registry`") && f.message.contains("`wal` guard")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("`sync_all()`") && f.message.contains("`wal` guard")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("`write_at()`") && f.message.contains("`wal` guard")));
    assert!(hits.iter().any(|f| f.message.contains("same-class")));
    assert!(hits.iter().any(|f| f.message.contains("`alloc()`")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("`rebuild_everything()`")));
    assert!(hits.iter().all(|f| f.severity == Severity::Deny));
}

#[test]
fn lock_order_quiet_on_good_fixture() {
    let findings = audit("crates/core/src/fixture.rs", LOCK_GOOD);
    assert!(
        of_pass(&findings, Pass::LockOrder).is_empty(),
        "{findings:?}"
    );
}

// ----- P2: panic_path -----

#[test]
fn panic_path_fires_on_bad_fixture() {
    let findings = audit("crates/core/src/fixture.rs", PANIC_BAD);
    let hits = of_pass(&findings, Pass::PanicPath);
    // unwrap, empty expect, panic!, unreachable!, todo!, two indexing sites
    // (`v[0]` and the call-result index), plus the unwrap feeding the latter.
    assert_eq!(hits.len(), 8, "findings: {findings:?}");
    assert!(hits.iter().all(|f| f.severity == Severity::Deny));
}

#[test]
fn panic_path_quiet_on_good_fixture() {
    let findings = audit("crates/core/src/fixture.rs", PANIC_GOOD);
    assert!(
        of_pass(&findings, Pass::PanicPath).is_empty(),
        "{findings:?}"
    );
}

#[test]
fn panic_path_scoped_to_serving_crates() {
    // The same bad source outside the serving crates is not P2's business.
    let findings = audit("crates/bench/src/fixture.rs", PANIC_BAD);
    assert!(
        of_pass(&findings, Pass::PanicPath).is_empty(),
        "{findings:?}"
    );
}

#[test]
fn indexing_severity_splits_at_the_serving_boundary() {
    let in_core = audit(
        "crates/core/src/fixture.rs",
        "fn f(v: &[u8]) -> u8 { v[0] }\n",
    );
    let in_epst = audit(
        "crates/epst/src/fixture.rs",
        "fn f(v: &[u8]) -> u8 { v[0] }\n",
    );
    assert_eq!(
        of_pass(&in_core, Pass::PanicPath)[0].severity,
        Severity::Deny
    );
    assert_eq!(
        of_pass(&in_epst, Pass::PanicPath)[0].severity,
        Severity::Advisory
    );
}

#[test]
fn strict_promotes_advisories() {
    let cfg = AuditConfig {
        strict: true,
        ..AuditConfig::default()
    };
    let findings = audit_source(
        "crates/epst/src/fixture.rs",
        "fn f(v: &[u8]) -> u8 { v[0] }\n",
        &cfg,
    )
    .findings;
    assert_eq!(
        of_pass(&findings, Pass::PanicPath)[0].severity,
        Severity::Deny
    );
}

// ----- P3: atomics -----

#[test]
fn atomics_fires_on_bad_fixture() {
    let findings = audit("crates/core/src/fixture.rs", ATOMICS_BAD);
    let hits = of_pass(&findings, Pass::Atomics);
    // Over-strong counter RMW, two weak stamp accesses, and bare SeqCst.
    assert_eq!(hits.len(), 4, "findings: {findings:?}");
    assert!(hits.iter().any(|f| f.message.contains("SeqCst")));
    assert!(hits.iter().all(|f| f.severity == Severity::Deny));
}

#[test]
fn atomics_quiet_on_good_fixture() {
    let findings = audit("crates/core/src/fixture.rs", ATOMICS_GOOD);
    assert!(of_pass(&findings, Pass::Atomics).is_empty(), "{findings:?}");
}

// ----- P4: debug_assert -----

#[test]
fn debug_assert_fires_on_bad_fixture() {
    let findings = audit("crates/core/src/fixture.rs", ASSERT_BAD);
    let hits = of_pass(&findings, Pass::DebugAssert);
    // pop, plain assignment, compound assignment, remove, fetch_add.
    assert_eq!(hits.len(), 5, "findings: {findings:?}");
    assert!(hits.iter().all(|f| f.severity == Severity::Deny));
}

#[test]
fn debug_assert_quiet_on_good_fixture() {
    let findings = audit("crates/core/src/fixture.rs", ASSERT_GOOD);
    assert!(
        of_pass(&findings, Pass::DebugAssert).is_empty(),
        "{findings:?}"
    );
}

// ----- Pragmas -----

#[test]
fn well_formed_pragmas_suppress_and_count() {
    let result = audit_source(
        "crates/core/src/fixture.rs",
        PRAGMA_OK,
        &AuditConfig::default(),
    );
    assert!(result.findings.is_empty(), "{:?}", result.findings);
    assert_eq!(result.pragma_count, 2);
}

#[test]
fn bad_pragmas_are_deny_findings() {
    let findings = audit("crates/core/src/fixture.rs", PRAGMA_BAD);
    let hits = of_pass(&findings, Pass::Pragma);
    assert!(
        hits.iter().any(|f| f.message.contains("empty reason")),
        "{findings:?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("unknown pass")),
        "{findings:?}"
    );
    assert!(
        hits.iter().any(|f| f.message.contains("malformed")),
        "{findings:?}"
    );
    assert!(
        hits.iter()
            .any(|f| f.message.contains("suppresses nothing")),
        "{findings:?}"
    );
    assert!(hits.iter().all(|f| f.severity == Severity::Deny));
    // The suppressions themselves do not hide the underlying findings: the
    // empty-reason and unknown-pass unwraps must still be reported...
    let panics = of_pass(&findings, Pass::PanicPath);
    assert!(panics.len() >= 2, "{findings:?}");
}

// ----- Mutation injection against a real workspace file -----

/// The same check CI runs through the binary: append an out-of-order lock
/// pair (and one violation per other pass) to a copy of a real serving-crate
/// file and assert the auditor catches every one of them.
#[test]
fn injected_violations_in_a_real_file_are_caught() {
    let real = concat!(env!("CARGO_MANIFEST_DIR"), "/../core/src/sharded.rs");
    let clean = std::fs::read_to_string(real).expect("workspace layout is fixed");
    let baseline = audit("crates/core/src/sharded.rs", &clean);
    assert!(
        baseline.iter().all(|f| f.severity != Severity::Deny),
        "sharded.rs must be deny-clean before injection: {baseline:?}"
    );

    let mutated = format!(
        "{clean}\n\
         fn __injected_lock_order(pool: &std::sync::Mutex<u8>, index: &std::sync::RwLock<u8>) {{\n\
             let pool = pool.lock().unwrap();\n\
             let _nested = index.write().unwrap();\n\
             drop(pool);\n\
         }}\n\
         fn __injected_panic_path(v: &[u8]) -> u8 {{ v.first().copied().unwrap() }}\n\
         fn __injected_atomics(reads: &std::sync::atomic::AtomicU64) -> u64 {{\n\
             reads.load(std::sync::atomic::Ordering::SeqCst)\n\
         }}\n\
         fn __injected_debug_assert(v: &mut Vec<u8>) {{ debug_assert!(v.pop().is_some()); }}\n"
    );
    let findings = audit("crates/core/src/sharded.rs", &mutated);
    for pass in [
        Pass::LockOrder,
        Pass::PanicPath,
        Pass::Atomics,
        Pass::DebugAssert,
    ] {
        assert!(
            of_pass(&findings, pass)
                .iter()
                .any(|f| f.severity == Severity::Deny),
            "injected {} violation was not caught: {findings:?}",
            pass.name()
        );
    }
}
