//! A planted fault for mutation-testing the checkers themselves: while
//! [`inject_ordering_bug`] is on, every eager query answer the harness
//! receives — in the differential replayer and in the history [`Recorder`]
//! — has its two highest-scoring points transposed. A healthy checker must
//! catch that, and the shrinker must reduce the failing trace to a minimal
//! repro. The engine itself is never altered.
//!
//! The switch is process-global: tests that turn it on run in their own
//! integration-test binary, so no parallel test observes mutated answers.
//!
//! [`Recorder`]: crate::Recorder

use std::sync::atomic::{AtomicBool, Ordering};

use epst::Point;

static ORDERING_BUG: AtomicBool = AtomicBool::new(false);

/// Turn the planted ordering bug on or off.
pub fn inject_ordering_bug(enabled: bool) {
    ORDERING_BUG.store(enabled, Ordering::Release);
}

/// The planted bug, applied where the harness receives an eager answer: a
/// no-op unless [`inject_ordering_bug`] turned it on.
pub(crate) fn transpose_if_injected(answer: &mut [Point]) {
    if answer.len() >= 2 && ORDERING_BUG.load(Ordering::Acquire) {
        answer.swap(0, 1);
    }
}
