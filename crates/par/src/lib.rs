//! # mcpat-par — candidate-level fan-out for the modeling stack
//!
//! Design-space exploration evaluates many independent chips, and that
//! is where parallelism pays: one chip build is a millisecond of work,
//! too short to split. The build environment vendors every dependency,
//! so this crate provides the one primitive the stack needs instead of
//! rayon: [`par_map`] over a fixed worker count, running on one lazily
//! started, process-wide pool ([`pool`]: a single FIFO injector the
//! submitting thread helps drain). Fan-out happens **once**, at the
//! outermost call: a `par_map` made from inside a pool task runs
//! inline, so a sweep over N candidates saturates the machine exactly
//! once and each build runs start to finish on one thread.
//!
//! Three properties the helper guarantees:
//!
//! * **Determinism** — results come back in input order; callers that
//!   reduce must use an order-independent (totally ordered) merge, and
//!   then serial and parallel execution are bit-identical.
//! * **Panic containment** — a panicking worker never unwinds across
//!   the pool (which would poison shared state or abort): every closure
//!   runs under `catch_unwind` and a panic surfaces as a typed
//!   [`ParError`] carrying the payload text. The pool itself stays
//!   usable after any number of contained panics.
//! * **Serial fallback** — with one thread (or inputs below the caller's
//!   threshold) the pool is never touched; the closures run inline on
//!   the calling thread.
//!
//! The worker count is resolved per call by [`threads`]: an in-process
//! override (tests, benchmarks), else the `MCPAT_THREADS` environment
//! variable (read through [`knobs`], the workspace's single env-read
//! seam), else [`std::thread::available_parallelism`].

pub mod knobs;
pub mod pool;

pub use pool::PoolStats;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hard ceiling on the worker count, however it is requested.
pub(crate) const MAX_THREADS: usize = 64;

/// A failure inside a fanned-out worker.
///
/// The modeling core is panic-free by policy, so this is defense in
/// depth: if a worker does panic (a bug), the caller receives this typed
/// error instead of an unwinding thread or a poisoned lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// A worker closure panicked; `detail` is the panic payload when it
    /// was a string, or a placeholder otherwise.
    WorkerPanicked {
        /// Panic payload text.
        detail: String,
    },
}

impl ParError {
    fn from_payload(payload: &(dyn std::any::Any + Send)) -> ParError {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| String::from("<non-string panic payload>"));
        ParError::WorkerPanicked { detail }
    }

    pub(crate) fn vanished() -> ParError {
        ParError::WorkerPanicked {
            detail: String::from("worker terminated without producing a result"),
        }
    }
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::WorkerPanicked { detail } => {
                write!(f, "worker thread panicked: {detail}")
            }
        }
    }
}

impl std::error::Error for ParError {}

/// In-process thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for this process (0 clears the override,
/// falling back to `MCPAT_THREADS` / the detected parallelism).
///
/// Intended for tests and benchmarks that compare serial against
/// parallel execution without mutating the process environment.
pub fn set_thread_override(n: usize) {
    THREAD_OVERRIDE.store(n.min(MAX_THREADS), Ordering::SeqCst);
}

fn detected_parallelism() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The `MCPAT_THREADS` knob, resolved once per process. `threads()` is
/// called by every `par_map` and by every chip build's perf block, and
/// `std::env::var` takes a process-global lock and allocates per call,
/// which on a single-lane host made the override-free "parallel" mode
/// measurably slower than the pinned serial mode while executing the
/// exact same inline code (the `explore_parallel_vs_serial < 1` anomaly
/// on the 1-CPU benchline baseline). The documented knob contract
/// already directs in-process callers to [`set_thread_override`] rather
/// than mutating the environment mid-run, so a one-shot read observes
/// every supported configuration.
fn env_threads() -> Option<usize> {
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *ENV_THREADS.get_or_init(knobs::threads)
}

/// The worker count used by [`par_map`], resolved as:
/// [`set_thread_override`] if set, else a positive integer
/// `MCPAT_THREADS` environment variable (read once per process), else
/// the machine's available parallelism. Always ≥ 1 and ≤ 64.
#[must_use]
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Some(n) = env_threads() {
        return n.min(MAX_THREADS);
    }
    detected_parallelism().min(MAX_THREADS)
}

/// Runs a closure with panics converted into [`ParError`].
///
/// # Errors
///
/// [`ParError::WorkerPanicked`] if the closure panicked.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, ParError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        // The chaos-testing worker-kill marker must keep unwinding on
        // pool workers (it exists to kill the thread); everything else
        // is contained as a typed error.
        if pool::is_kill_payload(p.as_ref()) {
            std::panic::resume_unwind(p);
        }
        ParError::from_payload(p.as_ref())
    })
}

/// Maps `f` over `items`, fanning out across [`threads`] workers when
/// there are at least `min_parallel` items. Results are returned in
/// input order; `f` receives `(index, &item)`. A call made from inside
/// a pool task runs inline: the pool fans out one level only.
///
/// # Errors
///
/// [`ParError::WorkerPanicked`] if any invocation of `f` panicked (the
/// first failing index in input order wins).
pub fn par_map<I, T, F>(items: &[I], min_parallel: usize, f: F) -> Result<Vec<T>, ParError>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let workers = threads().min(items.len());
    if workers <= 1 || items.len() < min_parallel.max(2) || pool::in_task() {
        return run_inline(items, &f);
    }
    pool::par_map_pooled(items, &f)
}

/// Runs `f` over `items` on the calling thread, billed as inline
/// executions, with the same panic containment as the pooled path.
pub(crate) fn run_inline<I, T, F>(items: &[I], f: &F) -> Result<Vec<T>, ParError>
where
    F: Fn(usize, &I) -> T,
{
    pool::note_inline(items.len() as u64);
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        out.push(catch(|| f(i, item))?);
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-global thread override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn with_override<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_thread_override(n);
        let out = f();
        set_thread_override(0);
        out
    }

    #[test]
    fn par_map_preserves_input_order() {
        for n in [1usize, 2, 3, 8] {
            let got = with_override(n, || {
                let items: Vec<usize> = (0..100).collect();
                par_map(&items, 2, |i, &x| {
                    assert_eq!(i, x);
                    x * x
                })
                .unwrap()
            });
            let want: Vec<usize> = (0..100).map(|x| x * x).collect();
            assert_eq!(got, want, "threads = {n}");
        }
    }

    #[test]
    fn par_map_small_inputs_stay_serial_and_correct() {
        let items = [7usize];
        let got = par_map(&items, 8, |_, &x| x + 1).unwrap();
        assert_eq!(got, vec![8]);
        let empty: [usize; 0] = [];
        assert!(par_map(&empty, 2, |_, &x: &usize| x).unwrap().is_empty());
    }

    #[test]
    fn worker_panic_becomes_typed_error() {
        for n in [1usize, 4] {
            let err = with_override(n, || {
                let items: Vec<usize> = (0..16).collect();
                par_map(&items, 2, |_, &x| {
                    assert!(x != 11, "boom at {x}");
                    x
                })
                .unwrap_err()
            });
            let ParError::WorkerPanicked { detail } = err;
            assert!(detail.contains("boom at 11"), "{detail}");
        }
    }

    #[test]
    fn nested_par_map_runs_inline_on_the_task_thread() {
        let got = with_override(4, || {
            let items: Vec<usize> = (0..8).collect();
            par_map(&items, 2, |_, &x| {
                assert!(pool::in_task());
                let outer = std::thread::current().id();
                let scope = mcpat_obs::Collector::new();
                let inner = {
                    let _scope = scope.enter();
                    let inner: Vec<usize> = (0..6).map(|k| x * 10 + k).collect();
                    par_map(&inner, 2, |_, &y| (y, std::thread::current().id())).unwrap()
                };
                let snap = scope.snapshot();
                assert_eq!(snap.pool_submitted, 0, "a nested fan-out must not submit");
                assert_eq!(snap.pool_inline, 6);
                assert!(inner.iter().all(|&(_, id)| id == outer));
                inner.iter().map(|&(y, _)| y).sum::<usize>()
            })
            .unwrap()
        });
        let want: Vec<usize> = (0..8).map(|x| 60 * x + 15).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn nested_panic_is_contained_and_pool_stays_usable() {
        let err = with_override(4, || {
            let items: Vec<usize> = (0..6).collect();
            par_map(&items, 2, |_, &x| {
                let inner = [x, x, x];
                par_map(&inner, 2, |i, &y| {
                    assert!(!(y == 3 && i == 2), "inner boom {y}");
                    y
                })
                .unwrap()[0]
            })
            .unwrap_err()
        });
        assert!(err.to_string().contains("inner boom 3"), "{err}");
        // The pool must remain fully usable after the contained panic.
        let ok = with_override(4, || {
            let items: Vec<usize> = (0..32).collect();
            par_map(&items, 2, |_, &x| x + 1).unwrap()
        });
        assert_eq!(ok, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_calls_submit_tasks_and_report_stats() {
        let before = pool::stats();
        let _ = with_override(4, || {
            let items: Vec<usize> = (0..16).collect();
            par_map(&items, 2, |_, &x| x).unwrap()
        });
        let after = pool::stats();
        assert!(after.submitted >= before.submitted + 16, "{after:?}");
        assert!(after.workers >= 1);
    }

    #[test]
    fn single_worker_fanout_is_pure_inline_with_zero_steals() {
        // The 1-CPU regression mode: with one worker every fan-out —
        // nested ones included — must run inline without ever touching
        // the pool queue. Submitting with no second lane to drain the
        // queue is pure overhead (the `clock_bisection_full`
        // parallel-slower-than-serial anomaly).
        let (before, after, got) = with_override(1, || {
            let before = pool::stats();
            let items: Vec<usize> = (0..12).collect();
            let got = par_map(&items, 2, |_, &x| {
                let inner = [x, x + 1, x + 2, x + 3];
                par_map(&inner, 2, |_, &y| y).unwrap().iter().sum::<usize>()
            })
            .unwrap();
            (before, pool::stats(), got)
        });
        let want: Vec<usize> = (0..12).map(|x| 4 * x + 6).collect();
        assert_eq!(got, want);
        assert_eq!(after.steals, before.steals, "one worker must never steal");
        assert_eq!(
            after.submitted, before.submitted,
            "one worker must never submit to the pool queue"
        );
        // Every closure (12 map items + 4 inner items each) billed as
        // inline execution.
        assert!(
            after.inline_execs >= before.inline_execs + 12 * (1 + 4),
            "{after:?} vs {before:?}"
        );
    }

    #[test]
    fn override_beats_env_and_detection() {
        with_override(3, || assert_eq!(threads(), 3));
    }

    #[test]
    fn threads_is_at_least_one() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_thread_override(0);
        assert!(threads() >= 1);
    }
}
