#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! `cancel_all` cancels every budget alive in the process, so it runs
//! in a test binary of its own: next to the unit tests it would cancel
//! their budgets mid-assertion.

use mcpat_guard::{cancel_all, Budget};

#[test]
fn cancel_all_hits_live_budgets_only() {
    let before = Budget::unbounded();
    cancel_all();
    let after = Budget::unbounded();
    assert!(before.is_cancelled());
    assert!(!after.is_cancelled());
}
