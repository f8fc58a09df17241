//! `mcpat-serve` — a long-running evaluation daemon for the model.
//!
//! The warm solve cache makes a repeat build of a known configuration
//! orders of magnitude cheaper than a cold one, but a one-shot `mcpat`
//! process throws that cache away on exit. This crate keeps it alive:
//! `mcpat serve --listen ADDR` accepts concurrent model-evaluation
//! requests over a line-delimited JSON protocol on plain TCP (no HTTP
//! dependency), sharing the content-addressed solve cache across every
//! request — the shape of an estimation *service* that
//! architecture-exploration flows drive programmatically.
//!
//! Governance and billing are per request:
//!
//! - every `evaluate` request runs under its own [`mcpat::guard`]
//!   budget (`deadline_ms` in the request envelope), so one slow
//!   request cannot stall the daemon, and trips surface as typed
//!   `error.kind` values (`DeadlineExceeded`, `Cancelled`, ...);
//! - a server-wide admission cap bounds concurrent evaluations; over
//!   the cap the daemon answers immediately with a typed `Overloaded`
//!   rejection instead of queueing unboundedly;
//! - every request gets its own scoped [`mcpat::obs`] collector, so
//!   the response envelope bills exactly the cache misses, pool
//!   traffic, and allocations that request caused;
//! - concurrent requests for the *same* configuration (modulo its
//!   report name) coalesce onto one build — a thundering herd of an
//!   identical config costs one solve, mirroring `explore_batch`'s
//!   dedupe.
//!
//! A `stats` request exposes the cumulative solve-cache counters
//! (entries, bytes, evictions, hit rate), pool counters, and the
//! server's own admission bookkeeping. SIGTERM (and SIGINT) ask the
//! daemon to *drain*: in-flight requests finish and are answered, no
//! new connections are accepted, and the process exits cleanly.
//!
//! See `DESIGN.md` §13 for the protocol schema and drain semantics.

use mcpat::ProcessorConfig;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub mod proto;
pub mod server;

pub use proto::{EvaluateRequest, ProtoError, Request, RequestPerf};
pub use server::{ServeOptions, Server, ServerHandle};

/// Process-global drain request, set by the daemon's signal handler.
/// Servers poll it between accepts and between requests.
static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// Asks every server in the process to drain: finish in-flight
/// requests, refuse new connections, and return from `run`. A single
/// atomic store — async-signal-safe, callable from a SIGTERM handler.
pub fn request_drain() {
    SIGNAL_DRAIN.store(true, Ordering::SeqCst);
}

/// Whether a process-wide drain has been requested.
#[must_use]
pub fn drain_requested() -> bool {
    SIGNAL_DRAIN.load(Ordering::SeqCst)
}

/// Test-only reset of the process-wide drain flag, so one test's
/// drain does not leak into the next server started in this process.
#[doc(hidden)]
pub fn reset_drain_for_tests() {
    SIGNAL_DRAIN.store(false, Ordering::SeqCst);
}

/// Test-only hold applied by the *building* side of a coalesced
/// evaluation before the build starts, so tests can deterministically
/// overlap a second identical request (which must coalesce) or an
/// over-cap request (which must be rejected) with an in-flight build.
/// Zero (the default) holds nothing. Out-of-process smoke tests set
/// the same hold via the `MCPAT_SERVE_EVAL_HOLD_MS` knob; the longer
/// of the two applies.
static EVAL_HOLD_MS: AtomicU64 = AtomicU64::new(0);

#[doc(hidden)]
pub fn set_eval_hold_ms(ms: u64) {
    EVAL_HOLD_MS.store(ms, Ordering::SeqCst);
}

pub(crate) fn eval_hold_ms() -> u64 {
    EVAL_HOLD_MS
        .load(Ordering::SeqCst)
        .max(mcpat::knobs::serve_eval_hold_ms())
}

/// The built-in example configurations, by CLI/request `preset` name.
#[must_use]
pub fn preset(name: &str) -> Option<ProcessorConfig> {
    match name {
        "niagara" => Some(ProcessorConfig::niagara()),
        "niagara2" => Some(ProcessorConfig::niagara2()),
        "alpha21364" => Some(ProcessorConfig::alpha21364()),
        "tulsa" | "xeon-tulsa" => Some(ProcessorConfig::tulsa()),
        _ => None,
    }
}
