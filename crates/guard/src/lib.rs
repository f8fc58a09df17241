//! # mcpat-guard — deadlines, cooperative cancellation, memory budgets
//!
//! The modeling stack is embedded in outer control loops (design-space
//! exploration, DVFS governors, a future `mcpat-serve` daemon) that
//! need predictable *worst-case* latency, not just good medians. This
//! crate provides the resource-governance primitive those loops share:
//! a cheap-clone [`Budget`] handle carrying an optional deadline, a
//! cooperative cancel flag, and an optional memory ceiling.
//!
//! Budgets thread through the **same scope-chain mechanism** that
//! `mcpat-obs` collectors use: [`Budget::enter`] pushes the budget onto
//! a thread-local chain, [`current_chain`] captures the chain so a work
//! item submitted to the `mcpat-par` pool can re-activate it on
//! whichever thread runs the task ([`BudgetChain::activate`]). Every
//! long-running loop in the stack calls the free function [`check`] at
//! its checkpoints; when no budget is active the call is a single
//! thread-local load, and benchline gates a fully live chain (an
//! entered unbounded budget, every checkpoint walking it) at ≤ 3% of a
//! cold build (~1.5% measured).
//!
//! Exceeding a budget yields a typed [`GuardError`] carrying
//! partial-progress metadata ([`Progress`]: candidates completed, spans
//! finished). Checkpoints are *cooperative*: nothing is interrupted
//! mid-expression, so an aborted build leaves zero poisoned state —
//! the pool keeps serving and the solve cache only ever contains
//! fully-materialized entries (budget errors are never cached).
//!
//! Cancellation has two scopes: [`Budget::cancel`] flips one handle's
//! flag, and [`cancel_all`] bumps a process-global generation that
//! every *live* budget observes (a budget created **after** the bump is
//! unaffected). `cancel_all` is a single lock-free `fetch_add`, safe to
//! call from a signal handler — the CLI's `--cancel-on-signal` does
//! exactly that.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Partial-progress metadata attached to every [`GuardError`]: how far
/// the failing scope got before the budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Progress {
    /// Candidates (array partition blocks, exploration configs,
    /// bisection probes) completed under this budget.
    pub candidates_done: u64,
    /// Build spans (validate/core/l2/...) finished under this budget.
    pub spans_done: u64,
}

/// A budget violation, raised by [`check`] at a cooperative checkpoint.
///
/// `Clone + PartialEq` so the error can ride inside the existing typed
/// error enums (`ArrayError`, `McpatError`) unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum GuardError {
    /// The budget's deadline passed.
    DeadlineExceeded {
        /// The configured deadline, in microseconds.
        budget_us: u64,
        /// Wall time elapsed when the checkpoint fired, in microseconds.
        elapsed_us: u64,
        /// Progress at the moment the budget tripped.
        progress: Progress,
    },
    /// The budget was cancelled ([`Budget::cancel`] or [`cancel_all`]).
    Cancelled {
        /// Progress at the moment the budget tripped.
        progress: Progress,
    },
    /// Cooperatively-charged memory exceeded the configured ceiling.
    MemoryBudget {
        /// The configured ceiling, in bytes.
        limit_bytes: u64,
        /// Bytes charged when the checkpoint fired.
        used_bytes: u64,
        /// Progress at the moment the budget tripped.
        progress: Progress,
    },
}

impl GuardError {
    /// The progress metadata, whichever variant.
    #[must_use]
    pub fn progress(&self) -> Progress {
        match self {
            GuardError::DeadlineExceeded { progress, .. }
            | GuardError::Cancelled { progress }
            | GuardError::MemoryBudget { progress, .. } => *progress,
        }
    }

    /// A stable machine-readable name for the violation variant — the
    /// `error.kind` vocabulary the serve daemon's wire protocol and
    /// other tooling match on, kept independent of the `Display` text.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            GuardError::DeadlineExceeded { .. } => "DeadlineExceeded",
            GuardError::Cancelled { .. } => "Cancelled",
            GuardError::MemoryBudget { .. } => "MemoryBudget",
        }
    }
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GuardError::DeadlineExceeded {
                budget_us,
                elapsed_us,
                progress,
            } => write!(
                f,
                "deadline exceeded: {elapsed_us} us elapsed against a {budget_us} us budget \
                 ({} candidate(s), {} span(s) completed)",
                progress.candidates_done, progress.spans_done
            ),
            GuardError::Cancelled { progress } => write!(
                f,
                "cancelled ({} candidate(s), {} span(s) completed)",
                progress.candidates_done, progress.spans_done
            ),
            GuardError::MemoryBudget {
                limit_bytes,
                used_bytes,
                progress,
            } => write!(
                f,
                "memory budget exceeded: {used_bytes} B charged against a {limit_bytes} B \
                 ceiling ({} candidate(s), {} span(s) completed)",
                progress.candidates_done, progress.spans_done
            ),
        }
    }
}

impl std::error::Error for GuardError {}

/// Process-global cancel generation. [`cancel_all`] bumps it; a budget
/// snapshots it at creation and considers itself cancelled once the
/// global value moves past the snapshot.
static CANCEL_GENERATION: AtomicU64 = AtomicU64::new(0);

/// Cancels every budget currently alive in the process (budgets created
/// afterwards are unaffected). Lock-free and async-signal-safe — the
/// CLI's `--cancel-on-signal` calls this from a SIGINT/SIGTERM handler.
pub fn cancel_all() {
    CANCEL_GENERATION.fetch_add(1, Ordering::SeqCst);
}

struct Inner {
    started: Instant,
    deadline: Option<Instant>,
    budget_us: u64,
    cancelled: AtomicBool,
    /// [`CANCEL_GENERATION`] at creation; a later global bump cancels us.
    cancel_snapshot: u64,
    memory_limit: Option<u64>,
    memory_used: AtomicU64,
    candidates_done: AtomicU64,
    spans_done: AtomicU64,
    /// Chaos-testing hook: when > 0, the countdown decrements on every
    /// [`Budget::check_self`]; hitting zero flips the cancel flag. Lets
    /// tests cancel deterministically at the Nth checkpoint.
    cancel_after_checks: AtomicU64,
}

/// A cheap-clone (one `Arc`) resource budget: optional deadline,
/// cooperative cancel flag, optional memory ceiling, plus progress
/// counters. Clones share all state.
#[derive(Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Budget")
            .field("deadline_us", &self.inner.budget_us)
            .field("cancelled", &self.is_cancelled())
            .field("memory_limit", &self.inner.memory_limit)
            .finish()
    }
}

impl Budget {
    /// A budget with the given limits; `None` everywhere means
    /// cancellation-only.
    #[must_use]
    pub fn with_limits(deadline: Option<Duration>, memory_limit_bytes: Option<u64>) -> Budget {
        let started = Instant::now();
        let budget_us = deadline.map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        Budget {
            inner: Arc::new(Inner {
                started,
                deadline: deadline.and_then(|d| started.checked_add(d)),
                budget_us,
                cancelled: AtomicBool::new(false),
                cancel_snapshot: CANCEL_GENERATION.load(Ordering::SeqCst),
                memory_limit: memory_limit_bytes,
                memory_used: AtomicU64::new(0),
                candidates_done: AtomicU64::new(0),
                spans_done: AtomicU64::new(0),
                cancel_after_checks: AtomicU64::new(0),
            }),
        }
    }

    /// A budget with no deadline and no memory ceiling — still
    /// cancellable (per-handle or via [`cancel_all`]).
    #[must_use]
    pub fn unbounded() -> Budget {
        Budget::with_limits(None, None)
    }

    /// A budget that trips [`GuardError::DeadlineExceeded`] once `d`
    /// wall time has elapsed.
    #[must_use]
    pub fn with_deadline(d: Duration) -> Budget {
        Budget::with_limits(Some(d), None)
    }

    /// Flips this budget's (and all its clones') cancel flag.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// True if cancelled per-handle or by a [`cancel_all`] issued after
    /// this budget was created.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
            || CANCEL_GENERATION.load(Ordering::SeqCst) > self.inner.cancel_snapshot
    }

    /// Progress recorded so far ([`note_candidate`] / [`note_span`]).
    #[must_use]
    pub fn progress(&self) -> Progress {
        Progress {
            candidates_done: self.inner.candidates_done.load(Ordering::Relaxed),
            spans_done: self.inner.spans_done.load(Ordering::Relaxed),
        }
    }

    /// Cooperatively charges `bytes` against the memory ceiling (the
    /// next [`check`] trips if the ceiling is exceeded).
    pub fn charge(&self, bytes: u64) {
        self.inner.memory_used.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Chaos-testing hook: cancel this budget at its `n`-th
    /// [`check_self`](Budget::check_self) call (0 disarms). Lets the
    /// chaos harness cancel deterministically at a randomized
    /// checkpoint without timing races.
    #[doc(hidden)]
    pub fn cancel_after_checks(&self, n: u64) {
        self.inner.cancel_after_checks.store(n, Ordering::SeqCst);
    }

    /// Checks this budget alone (cancel flag, then deadline, then
    /// memory ceiling). Most code should call the free [`check`], which
    /// walks the whole active chain.
    ///
    /// # Errors
    ///
    /// The corresponding [`GuardError`] when a limit has been exceeded.
    pub fn check_self(&self) -> Result<(), GuardError> {
        let armed = self.inner.cancel_after_checks.load(Ordering::SeqCst);
        if armed > 0
            && self
                .inner
                .cancel_after_checks
                .fetch_sub(1, Ordering::SeqCst)
                == 1
        {
            self.cancel();
        }
        if self.is_cancelled() {
            return Err(GuardError::Cancelled {
                progress: self.progress(),
            });
        }
        if let Some(deadline) = self.inner.deadline {
            let now = Instant::now();
            if now >= deadline {
                let elapsed_us = u64::try_from(now.duration_since(self.inner.started).as_micros())
                    .unwrap_or(u64::MAX);
                return Err(GuardError::DeadlineExceeded {
                    budget_us: self.inner.budget_us,
                    elapsed_us,
                    progress: self.progress(),
                });
            }
        }
        if let Some(limit) = self.inner.memory_limit {
            let used = self.inner.memory_used.load(Ordering::Relaxed);
            if used > limit {
                return Err(GuardError::MemoryBudget {
                    limit_bytes: limit,
                    used_bytes: used,
                    progress: self.progress(),
                });
            }
        }
        Ok(())
    }

    /// Pushes this budget onto the calling thread's scope chain; the
    /// guard pops it on drop. Guards are `!Send` and must drop in LIFO
    /// order (enforced by scoping, exactly like `mcpat-obs` scopes).
    #[must_use]
    pub fn enter(&self) -> BudgetGuard {
        let node = HEAD.with(|head| {
            let mut head = head.borrow_mut();
            let node = Arc::new(Node {
                budget: self.clone(),
                parent: head.take(),
            });
            *head = Some(Arc::clone(&node));
            node
        });
        BudgetGuard {
            node,
            _not_send: std::marker::PhantomData,
        }
    }
}

/// One link in a thread's budget chain (persistent linked list — the
/// same shape `mcpat-obs` uses for collector scopes).
struct Node {
    budget: Budget,
    parent: Option<Arc<Node>>,
}

thread_local! {
    /// The calling thread's innermost active budget scope.
    static HEAD: RefCell<Option<Arc<Node>>> = const { RefCell::new(None) };
}

/// Scope guard returned by [`Budget::enter`]; pops the budget on drop.
pub struct BudgetGuard {
    node: Arc<Node>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        HEAD.with(|head| {
            *head.borrow_mut() = self.node.parent.clone();
        });
    }
}

/// A captured budget chain: `Send + Sync`, cheap to clone, re-activated
/// on another thread with [`BudgetChain::activate`]. The `mcpat-par`
/// pool captures the submitter's chain at submission so stolen tasks
/// inherit the submitter's budget, exactly like collector chains.
#[derive(Clone, Default)]
pub struct BudgetChain {
    head: Option<Arc<Node>>,
}

impl BudgetChain {
    /// Installs this chain as the calling thread's active chain until
    /// the returned guard drops (restoring the previous chain).
    #[must_use]
    pub fn activate(&self) -> ChainGuard {
        let prev = HEAD.with(|head| head.replace(self.head.clone()));
        ChainGuard {
            prev,
            _not_send: std::marker::PhantomData,
        }
    }

    /// True when the chain carries no budget at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.head.is_none()
    }
}

/// Captures the calling thread's current budget chain.
#[must_use]
pub fn current_chain() -> BudgetChain {
    BudgetChain {
        head: HEAD.with(|head| head.borrow().clone()),
    }
}

/// Guard returned by [`BudgetChain::activate`]; restores the previous
/// chain on drop.
pub struct ChainGuard {
    prev: Option<Arc<Node>>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ChainGuard {
    fn drop(&mut self) {
        HEAD.with(|head| {
            *head.borrow_mut() = self.prev.take();
        });
    }
}

/// The checkpoint every long-running loop calls: checks every budget on
/// the calling thread's chain, innermost first. When no budget is
/// active this is a single thread-local load; with an entered unbounded
/// budget the full chain walk is benchline-gated at ≤ 3% of a cold chip
/// build (~1.5% measured).
///
/// # Errors
///
/// The first [`GuardError`] raised by any budget on the chain.
pub fn check() -> Result<(), GuardError> {
    HEAD.with(|head| {
        let head = head.borrow();
        let mut node = head.as_deref();
        while let Some(n) = node {
            n.budget.check_self()?;
            node = n.parent.as_ref().map(Arc::as_ref);
        }
        Ok(())
    })
}

/// True when at least one budget is active on this thread — lets hot
/// paths skip per-item bookkeeping entirely when unguarded.
#[must_use]
pub fn active() -> bool {
    HEAD.with(|head| head.borrow().is_some())
}

/// Records one completed candidate (partition block, exploration
/// config, bisection probe) on every budget in the active chain.
pub fn note_candidate() {
    bill(|b| {
        b.inner.candidates_done.fetch_add(1, Ordering::Relaxed);
    });
}

/// Records one finished build span on every budget in the active chain.
pub fn note_span() {
    bill(|b| {
        b.inner.spans_done.fetch_add(1, Ordering::Relaxed);
    });
}

/// Cooperatively charges `bytes` against every budget in the active
/// chain's memory ceiling.
pub fn charge(bytes: u64) {
    bill(|b| {
        b.inner.memory_used.fetch_add(bytes, Ordering::Relaxed);
    });
}

fn bill(f: impl Fn(&Budget)) {
    HEAD.with(|head| {
        let head = head.borrow();
        let mut node = head.as_deref();
        while let Some(n) = node {
            f(&n.budget);
            node = n.parent.as_ref().map(Arc::as_ref);
        }
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn no_budget_means_check_passes() {
        assert!(check().is_ok());
        assert!(!active());
    }

    #[test]
    fn deadline_trips_and_reports_progress() {
        let b = Budget::with_deadline(Duration::from_micros(0));
        let _scope = b.enter();
        note_candidate();
        note_candidate();
        note_span();
        std::thread::sleep(Duration::from_millis(1));
        let err = check().unwrap_err();
        match err {
            GuardError::DeadlineExceeded { progress, .. } => {
                assert_eq!(progress.candidates_done, 2);
                assert_eq!(progress.spans_done, 1);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn cancel_trips_all_clones() {
        let b = Budget::unbounded();
        let clone = b.clone();
        let _scope = clone.enter();
        assert!(check().is_ok());
        b.cancel();
        assert!(matches!(check(), Err(GuardError::Cancelled { .. })));
    }

    #[test]
    fn memory_ceiling_trips_after_charge() {
        let b = Budget::with_limits(None, Some(1024));
        let _scope = b.enter();
        charge(512);
        assert!(check().is_ok());
        charge(1024);
        let err = check().unwrap_err();
        assert!(
            matches!(
                err,
                GuardError::MemoryBudget {
                    used_bytes: 1536,
                    limit_bytes: 1024,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Budget::unbounded();
        {
            let _o = outer.enter();
            let inner = Budget::with_deadline(Duration::from_secs(3600));
            {
                let _i = inner.enter();
                assert!(check().is_ok());
                note_candidate();
            }
            // Inner popped; outer still records.
            note_candidate();
        }
        assert!(!active());
        assert_eq!(outer.progress().candidates_done, 2);
        // The inner budget saw only the note made while it was active.
    }

    #[test]
    fn chain_activates_across_threads() {
        let b = Budget::unbounded();
        let chain = {
            let _scope = b.enter();
            current_chain()
        };
        let b2 = b.clone();
        std::thread::spawn(move || {
            let _active = chain.activate();
            assert!(check().is_ok());
            note_candidate();
            b2.cancel();
            assert!(matches!(check(), Err(GuardError::Cancelled { .. })));
        })
        .join()
        .unwrap();
        assert_eq!(b.progress().candidates_done, 1);
        assert!(!active());
    }

    #[test]
    fn cancel_after_checks_fires_at_nth_checkpoint() {
        let b = Budget::unbounded();
        b.cancel_after_checks(3);
        let _scope = b.enter();
        assert!(check().is_ok());
        assert!(check().is_ok());
        assert!(matches!(check(), Err(GuardError::Cancelled { .. })));
    }

    #[test]
    fn errors_render_and_compare() {
        let p = Progress {
            candidates_done: 4,
            spans_done: 2,
        };
        let e = GuardError::Cancelled { progress: p };
        assert_eq!(e, e.clone());
        assert!(e.to_string().contains("4 candidate(s)"), "{e}");
        let d = GuardError::DeadlineExceeded {
            budget_us: 100,
            elapsed_us: 250,
            progress: p,
        };
        assert!(d.to_string().contains("250 us"), "{d}");
        assert_eq!(d.progress(), p);
    }
}
