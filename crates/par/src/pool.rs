//! The persistent pool behind [`crate::par_map`].
//!
//! One lazily started, process-wide pool with a single FIFO injector
//! queue:
//!
//! * **One level of fan-out.** A `par_map` called on a thread that is
//!   already running a pool task runs inline ([`in_task`]), so only the
//!   outermost call — the candidates of an `explore` or `explore_batch` —
//!   ever submits. A chip build is milliseconds of work; splitting it
//!   further only paid queue and wake-up overhead.
//! * **Help-while-wait.** A caller that submitted a batch does not
//!   block: it pops tasks off the injector (its own, or a concurrent
//!   caller's) until its batch latch opens, so the submitting thread
//!   is always the final lane.
//! * **Lazy, growable sizing.** No thread is spawned until the first
//!   parallel call. The pool grows to `threads() - 1` resident workers
//!   and honors the same resolution as [`crate::threads`]: override,
//!   then `MCPAT_THREADS` (via [`crate::knobs`] — this module reads no
//!   environment), then detected parallelism.
//!
//! # Safety
//!
//! Tasks are type-erased pointers into a stack frame of the submitting
//! caller ([`TaskRef`]). This is sound because the submitter blocks
//! (helping) until its batch latch reports completion, and a task's
//! final touch of batch memory is the latch update itself; the wake-up
//! signal afterwards only touches the pool's `'static` state. Panics
//! never unwind through the pool: user closures run under
//! [`crate::catch`], latches open via drop guards, and the worker loop
//! carries a defense-in-depth `catch_unwind` so a buggy task can never
//! kill or poison a worker.

use crate::ParError;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::ThreadId;
use std::time::Duration;

/// Upper bound on resident workers (one below [`crate::MAX_THREADS`]:
/// the submitting thread is always the extra lane).
const MAX_WORKERS: usize = crate::MAX_THREADS - 1;

/// Heartbeat for idle waits. Wake-ups are edge-triggered through the
/// condvar; the timeout is pure defense in depth so a (hypothetical)
/// missed notification degrades to slow polling instead of a hang.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// Snapshot of the pool's monotonic activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Resident worker threads (0 until the first parallel call).
    pub workers: usize,
    /// Tasks pushed onto the injector.
    pub submitted: u64,
    /// Tasks executed by a thread other than their submitter.
    pub steals: u64,
    /// Closures run inline on the calling thread without submission
    /// (serial fallback and fan-outs nested inside a pool task).
    pub inline_execs: u64,
    /// Worker threads respawned after dying mid-task (a task that
    /// unwinds through the defense-in-depth catch — see
    /// [`chaos_kill_worker`] — kills its worker; a drop guard respawns
    /// a replacement up to a capped respawn budget).
    pub workers_respawned: u64,
}

/// A type-erased pointer to a `par_map` call living on a submitting
/// caller's stack, plus the item index this task runs. See the
/// module-level safety argument.
#[derive(Clone, Copy)]
struct TaskRef {
    data: *const (),
    index: usize,
    exec: unsafe fn(*const (), usize),
}

// SAFETY: `data` points at a `Sync` call structure owned by a caller
// that outlives execution (it blocks on the batch latch), so handing
// the pointer to another thread is sound; `index` and the `exec` fn
// pointer are plain values.
unsafe impl Send for TaskRef {}

struct Queue {
    tasks: VecDeque<TaskRef>,
    workers: usize,
}

struct Shared {
    queue: Mutex<Queue>,
    cv: Condvar,
    submitted: AtomicU64,
    steals: AtomicU64,
    inline_execs: AtomicU64,
    respawned: AtomicU64,
}

thread_local! {
    /// True on resident pool worker threads.
    static WORKER: Cell<bool> = const { Cell::new(false) };
    /// True while this thread runs a pool task (worker or helping
    /// submitter); a `par_map` made from inside one runs inline.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| Shared {
        queue: Mutex::new(Queue {
            tasks: VecDeque::new(),
            workers: 0,
        }),
        cv: Condvar::new(),
        submitted: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        inline_execs: AtomicU64::new(0),
        respawned: AtomicU64::new(0),
    })
}

/// Locks the queue mutex, shrugging off poisoning: no user code ever
/// runs while the guard is held, so the protected state cannot be
/// mid-mutation even after a panic elsewhere.
fn lock(shared: &Shared) -> MutexGuard<'_, Queue> {
    shared.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Current counter snapshot. Counters are process-global and
/// monotonic; callers measure phases by differencing two snapshots.
#[must_use]
pub fn stats() -> PoolStats {
    let shared = shared();
    PoolStats {
        workers: lock(shared).workers,
        submitted: shared.submitted.load(Ordering::Relaxed),
        steals: shared.steals.load(Ordering::Relaxed),
        inline_execs: shared.inline_execs.load(Ordering::Relaxed),
        workers_respawned: shared.respawned.load(Ordering::Relaxed),
    }
}

/// Records `n` closures executed inline without pool submission, both
/// globally and against the caller's active scope chain.
pub(crate) fn note_inline(n: u64) {
    shared().inline_execs.fetch_add(n, Ordering::Relaxed);
    mcpat_obs::record_pool_inline(n);
}

/// True when the calling thread is a resident pool worker.
#[must_use]
pub fn is_pool_worker() -> bool {
    WORKER.with(Cell::get)
}

/// True while the calling thread is running a pool task. Fan-out from
/// such a thread runs inline: the pool fans out one level only.
pub(crate) fn in_task() -> bool {
    IN_TASK.with(Cell::get)
}

/// Grows the pool to `want` resident workers (capped, never shrinks).
/// Spawn failures degrade gracefully: submitting threads always help
/// drain the queue, so fewer workers costs throughput, not progress.
fn ensure_workers(shared: &'static Shared, want: usize) {
    let want = want.min(MAX_WORKERS);
    let mut q = lock(shared);
    while q.workers < want {
        let index = q.workers;
        let spawned = std::thread::Builder::new()
            .name(format!("mcpat-par-{index}"))
            .spawn(move || worker_main(shared, index));
        if spawned.is_err() {
            break;
        }
        q.workers += 1;
    }
}

/// Lifetime cap on worker respawns: generous against any plausible bug
/// rate, but bounded so a pathological kill loop cannot fork-bomb.
const MAX_RESPAWNS: u64 = 256;

/// Respawns worker lane `me` when its thread dies by panic. Queued
/// tasks live on the shared injector, so none is lost either way; the
/// respawn restores steady-state throughput.
struct RespawnGuard {
    shared: &'static Shared,
    me: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        if self.shared.respawned.load(Ordering::SeqCst) >= MAX_RESPAWNS {
            return;
        }
        let shared = self.shared;
        let me = self.me;
        let spawned = std::thread::Builder::new()
            .name(format!("mcpat-par-{me}"))
            .spawn(move || worker_main(shared, me));
        if spawned.is_ok() {
            shared.respawned.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Marker panic payload used by [`chaos_kill_worker`]. Both unwind
/// catches on the worker path re-raise it instead of converting it to
/// a [`ParError`], so the carrying worker thread genuinely dies.
#[doc(hidden)]
#[derive(Debug)]
pub struct WorkerKill;

/// Chaos-testing hook: when called from a task running on a resident
/// pool worker, kills that worker thread mid-task (the task's latch
/// still opens via its drop guard, so the submitter observes a typed
/// error instead of a hang, and [`RespawnGuard`] brings a replacement
/// lane up). A no-op on non-worker threads — external helpers must
/// never die.
#[doc(hidden)]
#[allow(clippy::panic)] // the panic IS the chaos injection: it must unwind the worker
pub fn chaos_kill_worker() {
    if is_pool_worker() {
        std::panic::panic_any(WorkerKill);
    }
}

/// True when an unwind payload is the chaos kill marker and the
/// current thread is a pool worker that should die from it.
pub(crate) fn is_kill_payload(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<WorkerKill>().is_some() && is_pool_worker()
}

/// Runs one task with the in-task flag raised. The task's own `exec`
/// already routes user panics into [`ParError`] slots and opens its
/// latch via a drop guard; the outer catch is defense in depth so a
/// worker thread never unwinds.
fn run_task(task: TaskRef) {
    let outer = IN_TASK.with(|t| t.replace(true));
    // SAFETY: see the module-level argument — the submitting caller
    // keeps the pointee alive until the batch latch opens.
    let result = catch_unwind(AssertUnwindSafe(|| unsafe {
        (task.exec)(task.data, task.index)
    }));
    IN_TASK.with(|t| t.set(outer));
    if let Err(payload) = result {
        // The chaos kill marker must actually kill the worker thread;
        // every other panic is contained here (defense in depth).
        if is_kill_payload(payload.as_ref()) {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Wakes every parked thread after queue or latch state changed. The
/// empty lock section orders the wake against a helper that checked
/// its latch under the lock and is about to park.
fn signal(shared: &Shared) {
    drop(lock(shared));
    shared.cv.notify_all();
}

/// Worker-thread entry point: installs the respawn guard, then runs
/// the task loop forever (the loop only exits by unwinding, which
/// triggers the guard).
fn worker_main(shared: &'static Shared, me: usize) {
    let _respawn = RespawnGuard { shared, me };
    WORKER.with(|w| w.set(true));
    loop {
        let task = {
            let mut q = lock(shared);
            loop {
                if let Some(task) = q.tasks.pop_front() {
                    break task;
                }
                let (guard, _) = shared
                    .cv
                    .wait_timeout(q, IDLE_POLL)
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
            }
        };
        run_task(task);
    }
}

/// Pushes a batch of tasks onto the injector and wakes the workers.
fn submit(shared: &'static Shared, tasks: impl IntoIterator<Item = TaskRef>) {
    let mut pushed = 0u64;
    {
        let mut q = lock(shared);
        for t in tasks {
            q.tasks.push_back(t);
            pushed += 1;
        }
    }
    shared.submitted.fetch_add(pushed, Ordering::Relaxed);
    mcpat_obs::record_pool_submitted(pushed);
    shared.cv.notify_all();
}

/// Executes queued tasks until `done` reports the caller's batch
/// latch open.
fn help_until(shared: &'static Shared, done: &dyn Fn() -> bool) {
    loop {
        if done() {
            return;
        }
        let popped = {
            let mut q = lock(shared);
            let popped = q.tasks.pop_front();
            if popped.is_none() {
                // Re-check under the lock: a completion signal takes
                // this same lock, so parking here cannot lose it.
                if done() {
                    return;
                }
                let _ = shared
                    .cv
                    .wait_timeout(q, IDLE_POLL)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            popped
        };
        if let Some(task) = popped {
            run_task(task);
        }
    }
}

/// One result slot of a `par_map` batch. Each slot is written by
/// exactly one task and read by the owner only after the batch latch
/// opens, so the unsynchronized cell is race-free.
struct Slot<T>(UnsafeCell<Option<Result<T, ParError>>>);

// SAFETY: disjoint single-writer access before the latch, owner-only
// access after (ordered by the Acquire/Release latch counter).
unsafe impl<T: Send> Sync for Slot<T> {}

/// Shared state of one `par_map` call, borrowed by its tasks. The
/// submitter's scope and budget chains ride along so that a task run
/// by any thread still bills, and is bounded by, the submitting scope.
struct MapCall<'a, I, T, F> {
    items: &'a [I],
    f: &'a F,
    slots: &'a [Slot<T>],
    remaining: &'a AtomicUsize,
    submitter: ThreadId,
    chain: mcpat_obs::ScopeChain,
    budget: mcpat_guard::BudgetChain,
}

/// Opens a counting latch on drop, then wakes parked threads. Runs
/// even if the slot write path has a bug that panics, so the owner can
/// never hang on a lost decrement.
struct OpenLatch<'a> {
    remaining: &'a AtomicUsize,
}

impl Drop for OpenLatch<'_> {
    fn drop(&mut self) {
        // The decrement is the task's final touch of caller memory;
        // `signal` below only touches the pool's 'static state.
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        signal(shared());
    }
}

/// Runs item `index` of the `par_map` call at `data`.
///
/// # Safety
///
/// `data` must point at a live `MapCall<'_, I, T, F>` whose latch has
/// not opened, and no other task of that call may run `index`.
unsafe fn exec_map_task<I, T, F>(data: *const (), index: usize)
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    // SAFETY: `data` points at a live `MapCall` per the submission
    // contract (owner helps until `remaining` reaches zero).
    let call = unsafe { &*data.cast::<MapCall<'_, I, T, F>>() };
    // Declared before the latch so the latch (the final touch of
    // caller memory) drops first; the chain guards own only Arcs and
    // thread-local state, so their later drops never touch the caller.
    let _chain = call.chain.activate();
    let _budget = call.budget.activate();
    if std::thread::current().id() != call.submitter {
        shared().steals.fetch_add(1, Ordering::Relaxed);
        mcpat_obs::record_pool_steal();
    }
    let _latch = OpenLatch {
        remaining: call.remaining,
    };
    if let (Some(item), Some(slot)) = (call.items.get(index), call.slots.get(index)) {
        let result = crate::catch(|| (call.f)(index, item));
        // SAFETY: this task is the slot's only writer (disjoint
        // indices), and the owner reads only after the latch opens.
        unsafe { *slot.0.get() = Some(result) };
    }
}

/// The pooled backend of [`crate::par_map`]: one task per item, input
/// order restored through indexed slots, serial-order error priority.
pub(crate) fn par_map_pooled<I, T, F>(items: &[I], f: &F) -> Result<Vec<T>, ParError>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let shared = shared();
    ensure_workers(shared, crate::threads().saturating_sub(1));
    if lock(shared).workers == 0 {
        // Worker spawning failed: submitting would only round-trip
        // every task through the queue back to this same thread.
        return crate::run_inline(items, f);
    }
    let slots: Vec<Slot<T>> = (0..items.len())
        .map(|_| Slot(UnsafeCell::new(None)))
        .collect();
    let remaining = AtomicUsize::new(items.len());
    let call = MapCall {
        items,
        f,
        slots: &slots,
        remaining: &remaining,
        submitter: std::thread::current().id(),
        chain: mcpat_obs::current_chain(),
        budget: mcpat_guard::current_chain(),
    };
    let data = std::ptr::from_ref(&call).cast::<()>();
    submit(
        shared,
        (0..items.len()).map(|index| TaskRef {
            data,
            index,
            exec: exec_map_task::<I, T, F>,
        }),
    );
    help_until(shared, &|| remaining.load(Ordering::Acquire) == 0);
    let mut out = Vec::with_capacity(items.len());
    for slot in slots {
        out.push(
            slot.0
                .into_inner()
                .unwrap_or_else(|| Err(ParError::vanished()))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_monotonic_and_start_consistent() {
        let before = stats();
        note_inline(3);
        let after = stats();
        assert!(after.inline_execs >= before.inline_execs + 3);
        assert!(after.submitted >= before.submitted);
        assert!(after.steals >= before.steals);
    }

    #[test]
    fn pool_worker_and_task_flags_are_false_on_external_threads() {
        assert!(!is_pool_worker());
        assert!(!in_task());
    }
}
