//! The single place in the workspace that reads process environment
//! variables.
//!
//! Every runtime knob the modeling stack honors is declared here, with
//! its variable name, parse rule, and default, so that `mcpat-lint`'s
//! L003 rule can enforce "no `std::env` reads outside the knobs
//! module" and a reader can answer "what does the environment change?"
//! from one file.
//!
//! This module lives in `mcpat-par` because that is the lowest crate in
//! the dependency graph that needs a knob (the worker count); the
//! umbrella `mcpat` crate re-exports it as `mcpat::knobs`.
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `MCPAT_THREADS` | workers for candidate-level fan-out | detected parallelism |
//! | `MCPAT_SOLVE_CACHE` | `0` disables the array solve cache | enabled |
//! | `MCPAT_SOLVE_CACHE_CAP` | solve-cache entry cap (`0` = unbounded) | 4096 |
//! | `MCPAT_SERVE_MAX_INFLIGHT` | serve daemon admission cap (`0` = unbounded) | 64 |
//! | `MCPAT_SERVE_EVAL_HOLD_MS` | serve daemon sleeps this long before each uncoalesced build | 0 |
//!
//! In-process overrides ([`crate::set_thread_override`],
//! `mcpat_array::memo::set_enabled`) take precedence over both
//! variables; tests and benchmarks should use those instead of mutating
//! the process environment.

/// Environment variable naming the worker count for candidate-level
/// fan-out.
pub const THREADS_VAR: &str = "MCPAT_THREADS";

/// Environment variable that disables the array solve cache when set
/// to `0`.
pub const SOLVE_CACHE_VAR: &str = "MCPAT_SOLVE_CACHE";

/// Environment variable capping the array solve cache's total entry
/// count (CLOCK eviction beyond the cap; `0` disables the cap).
pub const SOLVE_CACHE_CAP_VAR: &str = "MCPAT_SOLVE_CACHE_CAP";

/// Default solve-cache entry cap when `MCPAT_SOLVE_CACHE_CAP` is unset:
/// far above any single build's working set (a chip build solves a few
/// dozen distinct geometries) yet bounded, so a long-running process
/// sweeping millions of configs cannot grow without limit.
pub const SOLVE_CACHE_CAP_DEFAULT: usize = 4096;

/// The `MCPAT_THREADS` knob: `Some(n)` when the variable is set to a
/// positive integer, `None` when unset or unparseable (callers fall
/// back to the machine's detected parallelism).
#[must_use]
pub fn threads() -> Option<usize> {
    std::env::var(THREADS_VAR)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The `MCPAT_SOLVE_CACHE` knob: `false` only when the variable is set
/// to `0` (after trimming); any other state — unset, empty, `1`,
/// garbage — leaves the cache enabled.
#[must_use]
pub fn solve_cache() -> bool {
    std::env::var(SOLVE_CACHE_VAR).map_or(true, |v| v.trim() != "0")
}

/// The `MCPAT_SOLVE_CACHE_CAP` knob: the solve cache's total entry cap.
/// Unset or unparseable falls back to [`SOLVE_CACHE_CAP_DEFAULT`]; an
/// explicit `0` disables the cap (unbounded cache).
#[must_use]
pub fn solve_cache_cap() -> usize {
    std::env::var(SOLVE_CACHE_CAP_VAR)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(SOLVE_CACHE_CAP_DEFAULT)
}

/// Environment variable naming the serve daemon's default admission
/// cap (concurrently admitted `evaluate` requests; `0` = unbounded).
/// The `mcpat serve --max-inflight` flag overrides it per invocation.
pub const SERVE_MAX_INFLIGHT_VAR: &str = "MCPAT_SERVE_MAX_INFLIGHT";

/// Default serve admission cap when `MCPAT_SERVE_MAX_INFLIGHT` is
/// unset: far above a workstation's parallelism so legitimate bursts
/// pass, yet bounded, so a runaway client sees a typed `Overloaded`
/// instead of piling unbounded work onto the pool.
pub const SERVE_MAX_INFLIGHT_DEFAULT: usize = 64;

/// The `MCPAT_SERVE_MAX_INFLIGHT` knob: the serve daemon's default
/// admission cap. Unset or unparseable falls back to
/// [`SERVE_MAX_INFLIGHT_DEFAULT`]; an explicit `0` disables the cap.
#[must_use]
pub fn serve_max_inflight() -> usize {
    std::env::var(SERVE_MAX_INFLIGHT_VAR)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(SERVE_MAX_INFLIGHT_DEFAULT)
}

/// Environment variable making the serve daemon sleep this many
/// milliseconds before every uncoalesced build. A smoke-test hook: the
/// sleep pins a request in flight long enough for concurrent clients to
/// provably contend with it (admission rejections, coalescing), without
/// depending on how fast the host builds. `0`/unset disables the hold.
pub const SERVE_EVAL_HOLD_MS_VAR: &str = "MCPAT_SERVE_EVAL_HOLD_MS";

/// The `MCPAT_SERVE_EVAL_HOLD_MS` knob: milliseconds the serve daemon
/// holds before each uncoalesced build. Unset or unparseable means no
/// hold.
#[must_use]
pub fn serve_eval_hold_ms() -> u64 {
    std::env::var(SERVE_EVAL_HOLD_MS_VAR)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    #[test]
    fn defaults_hold_when_unset() {
        // The test environment does not set either variable; the knob
        // functions must fall back to their documented defaults. (Tests
        // must not mutate the process environment — other tests in this
        // binary run concurrently and read it.)
        if std::env::var(super::THREADS_VAR).is_err() {
            assert_eq!(super::threads(), None);
        }
        if std::env::var(super::SOLVE_CACHE_VAR).is_err() {
            assert!(super::solve_cache());
        }
        if std::env::var(super::SOLVE_CACHE_CAP_VAR).is_err() {
            assert_eq!(super::solve_cache_cap(), super::SOLVE_CACHE_CAP_DEFAULT);
        }
    }
}
