#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Scoped-attribution guarantees of the `mcpat-obs` collector layer.
//!
//! The perf blocks on `BuildPerf`/`ExplorePerf` are billed through the
//! thread-scoped collector chain, not global before/after deltas, so a
//! run must report only its own traffic no matter what else the
//! process is doing. Two concurrent `explore_batch` calls each see
//! their solo counts; work stolen by a pool worker bills the scope
//! that submitted it, not whatever the stealing worker was doing.
//!
//! Tests here flip process-global knobs (thread override, cache mode),
//! so they serialize on one mutex and restore defaults on exit.

use mcpat::array::memo;
use mcpat::{
    explore_batch, register_alloc_probe, Budgets, ExplorePerf, MetricSet, ProcessorConfig,
};
use mcpat_mcore::config::CoreConfig;
use mcpat_tech::TechNode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Counts each thread's allocations so the registered probe satisfies
/// the `mcpat-obs` contract ("the calling thread's allocation count").
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates to `System` unchanged; the const-initialized TLS
// counter neither allocates nor panics (`try_with` covers teardown).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn current_thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Serializes every test that touches the global knobs.
fn knob_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK.get_or_init(|| Mutex::new(()));
    lock.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores the default knobs when a test exits (even by panic).
struct KnobReset;
impl Drop for KnobReset {
    fn drop(&mut self) {
        mcpat::par::set_thread_override(0);
        memo::set_auto();
        mcpat::obs::set_tracing(false);
    }
}

/// `n` distinct manycore candidates at `node`. Different tech nodes
/// give two sets fully disjoint solve-cache keys, so concurrent runs
/// cannot serve each other's arrays.
fn candidates(node: TechNode, n: u32) -> Vec<ProcessorConfig> {
    (0..n)
        .map(|i| {
            ProcessorConfig::manycore(
                &format!("{node}-c{i}"),
                node,
                CoreConfig::generic_inorder(),
                2 + (i % 4) * 2,
                1 + (i % 4),
                u64::from(1 + (i % 4)) * 1024 * 1024,
            )
        })
        .collect()
}

fn run_batch(cands: &[ProcessorConfig]) -> ExplorePerf {
    let (_ex, perf) = explore_batch(cands, Budgets::default(), |c| {
        MetricSet::from_power(10.0, 1.0, c.die_area())
    })
    .unwrap();
    perf
}

#[test]
fn concurrent_explore_batches_report_only_their_own_traffic() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    register_alloc_probe(current_thread_allocs);
    // Serial inside each call: the concurrency under test is the two
    // *outer* threads, and serial builds keep the miss counts exact.
    mcpat::par::set_thread_override(1);
    memo::set_enabled(true);

    let small = candidates(TechNode::N32, 2);
    let large = candidates(TechNode::N45, 6);

    memo::clear();
    let solo_small = run_batch(&small);
    memo::clear();
    let solo_large = run_batch(&large);
    assert!(solo_small.solve_cache_misses > 0);
    assert!(solo_large.solve_cache_misses > solo_small.solve_cache_misses);
    assert!(solo_small.allocs > 0, "the alloc probe must be live");

    memo::clear();
    let (perf_small, perf_large) = std::thread::scope(|s| {
        let a = s.spawn(|| run_batch(&small));
        let b = s.spawn(|| run_batch(&large));
        (a.join().unwrap(), b.join().unwrap())
    });

    for (what, solo, concurrent) in [
        ("small batch", &solo_small, &perf_small),
        ("large batch", &solo_large, &perf_large),
    ] {
        assert_eq!(
            concurrent.unique_builds, solo.unique_builds,
            "{what}: unique_builds must not absorb the other run's builds"
        );
        assert_eq!(
            concurrent.solve_cache_misses, solo.solve_cache_misses,
            "{what}: cache misses must not cross-bill between threads"
        );
        // Allocation counts jitter slightly (hash seeding, vector
        // growth), but cross-billing would multiply them: the small
        // batch would absorb the large batch's >3x traffic.
        assert!(
            concurrent.allocs >= solo.allocs / 2 && concurrent.allocs <= solo.allocs * 2,
            "{what}: allocs {} drifted past 2x from solo {}",
            concurrent.allocs,
            solo.allocs
        );
    }
}

// ---------------------------------------------------------------------------
// Over-the-wire attribution: the serve daemon wraps every request in
// its own scoped collector, so the same isolation guarantees must hold
// for concurrent TCP requests — including the coalesced case, where
// exactly one request pays for the shared build.
// ---------------------------------------------------------------------------

mod wire {
    use serde_json::Value;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    pub struct Client {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        pub fn connect(addr: std::net::SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            let reader = BufReader::new(stream.try_clone().expect("clone stream"));
            Client { stream, reader }
        }

        pub fn send(&mut self, line: &str) {
            self.stream.write_all(line.as_bytes()).expect("send");
            self.stream.write_all(b"\n").expect("send newline");
        }

        pub fn recv(&mut self) -> Value {
            let mut line = String::new();
            assert!(self.reader.read_line(&mut line).expect("recv") > 0);
            serde_json::from_str(&line).expect("valid response JSON")
        }

        pub fn roundtrip(&mut self, line: &str) -> Value {
            self.send(line);
            self.recv()
        }
    }

    pub fn perf_u64(v: &Value, field: &str) -> u64 {
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"), "{v:?}");
        v.get("perf")
            .and_then(|p| p.get(field))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("perf.{field} missing: {v:?}"))
    }

    pub fn perf_bool(v: &Value, field: &str) -> bool {
        v.get("perf")
            .and_then(|p| p.get(field))
            .and_then(Value::as_bool)
            .unwrap_or_else(|| panic!("perf.{field} missing: {v:?}"))
    }

    pub fn evaluate_line(cfg: &mcpat::ProcessorConfig, id: u64) -> String {
        format!(
            "{{\"type\":\"evaluate\",\"id\":{id},\"config\":{}}}",
            serde_json::to_string(cfg).unwrap()
        )
    }
}

fn start_server() -> (mcpat_serve::ServerHandle, std::thread::JoinHandle<()>) {
    let server = mcpat_serve::Server::bind(
        "127.0.0.1:0",
        &mcpat_serve::ServeOptions { max_inflight: 8 },
    )
    .expect("bind loopback");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (handle, join)
}

#[test]
fn concurrent_serve_requests_bill_only_their_own_traffic() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    register_alloc_probe(current_thread_allocs);
    mcpat::par::set_thread_override(1);
    memo::set_enabled(true);

    let (handle, join) = start_server();
    let addr = handle.addr();

    // Different tech nodes -> fully disjoint solve-cache keys, so the
    // concurrent requests cannot serve each other's arrays.
    let cfg_small = &candidates(TechNode::N32, 1)[0];
    let cfg_large = {
        let mut c = candidates(TechNode::N45, 1)[0].clone();
        c.num_cores *= 4;
        c
    };

    // Solo baselines, each against an empty cache.
    memo::clear();
    let solo_small = wire::Client::connect(addr).roundtrip(&wire::evaluate_line(cfg_small, 1));
    memo::clear();
    let solo_large = wire::Client::connect(addr).roundtrip(&wire::evaluate_line(&cfg_large, 2));
    let solo_small_misses = wire::perf_u64(&solo_small, "solve_cache_misses");
    let solo_large_misses = wire::perf_u64(&solo_large, "solve_cache_misses");
    let solo_small_allocs = wire::perf_u64(&solo_small, "allocs");
    assert!(solo_small_misses > 0);
    assert!(solo_large_misses > 0);
    assert!(solo_small_allocs > 0, "the alloc probe must be live");

    // Concurrent requests over separate connections, empty cache again.
    memo::clear();
    let (resp_small, resp_large) = std::thread::scope(|s| {
        let a =
            s.spawn(|| wire::Client::connect(addr).roundtrip(&wire::evaluate_line(cfg_small, 3)));
        let b =
            s.spawn(|| wire::Client::connect(addr).roundtrip(&wire::evaluate_line(&cfg_large, 4)));
        (a.join().unwrap(), b.join().unwrap())
    });

    for (what, solo, concurrent) in [
        ("small config", &solo_small, &resp_small),
        ("large config", &solo_large, &resp_large),
    ] {
        assert_eq!(
            wire::perf_u64(concurrent, "solve_cache_misses"),
            wire::perf_u64(solo, "solve_cache_misses"),
            "{what}: wire perf must not cross-bill cache misses"
        );
        let solo_allocs = wire::perf_u64(solo, "allocs");
        let conc_allocs = wire::perf_u64(concurrent, "allocs");
        assert!(
            conc_allocs >= solo_allocs / 2 && conc_allocs <= solo_allocs * 2,
            "{what}: allocs {conc_allocs} drifted past 2x from solo {solo_allocs}"
        );
    }

    handle.request_drain();
    join.join().unwrap();
}

#[test]
fn coalesced_serve_pair_bills_the_shared_build_once() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    register_alloc_probe(current_thread_allocs);
    mcpat::par::set_thread_override(1);
    memo::set_enabled(true);

    struct HoldReset;
    impl Drop for HoldReset {
        fn drop(&mut self) {
            mcpat_serve::set_eval_hold_ms(0);
        }
    }
    let _hold = HoldReset;

    let (handle, join) = start_server();
    let addr = handle.addr();

    let cfg_a = &candidates(TechNode::N22, 1)[0];
    let mut cfg_b = cfg_a.clone();
    cfg_b.name = format!("{}-twin", cfg_a.name);

    // Solo baseline for this config against an empty cache.
    memo::clear();
    let solo = wire::Client::connect(addr).roundtrip(&wire::evaluate_line(cfg_a, 1));
    let solo_misses = wire::perf_u64(&solo, "solve_cache_misses");
    assert!(solo_misses > 0);

    // Identical-modulo-name pair: A claims the build and stalls on the
    // hold; B provably arrives while A is mid-build and coalesces.
    memo::clear();
    mcpat_serve::set_eval_hold_ms(300);
    let mut a = wire::Client::connect(addr);
    a.send(&wire::evaluate_line(cfg_a, 2));
    let mut probe = wire::Client::connect(addr);
    let t0 = std::time::Instant::now();
    loop {
        let stats = probe.roundtrip("{\"type\":\"stats\"}");
        let in_flight = stats
            .get("stats")
            .and_then(|s| s.get("server"))
            .and_then(|s| s.get("in_flight"))
            .and_then(serde_json::Value::as_u64)
            .unwrap();
        if in_flight >= 1 {
            break;
        }
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "request A was never admitted"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let mut b = wire::Client::connect(addr);
    b.send(&wire::evaluate_line(&cfg_b, 3));
    let resp_a = a.recv();
    let resp_b = b.recv();
    mcpat_serve::set_eval_hold_ms(0);

    // The builder bills the full build exactly once; the coalesced
    // waiter bills zero misses of its own. The split is deterministic:
    // misses never double-count and never vanish.
    assert!(wire::perf_bool(&resp_a, "built"), "{resp_a:?}");
    assert!(wire::perf_bool(&resp_b, "coalesced"), "{resp_b:?}");
    assert_eq!(wire::perf_u64(&resp_a, "solve_cache_misses"), solo_misses);
    assert_eq!(wire::perf_u64(&resp_b, "solve_cache_misses"), 0);
    assert_eq!(
        wire::perf_u64(&resp_a, "solve_cache_misses")
            + wire::perf_u64(&resp_b, "solve_cache_misses"),
        solo_misses,
        "the coalesced pair must bill the shared build exactly once"
    );

    handle.request_drain();
    join.join().unwrap();
}

#[test]
fn stolen_pool_tasks_bill_the_submitting_scope() {
    let _guard = knob_lock();
    let _reset = KnobReset;
    mcpat::par::set_thread_override(4);

    // A steal is a task run by a thread other than its submitter. Two
    // tasks that meet at a barrier must run on two threads at once, so
    // at least one of them is a steal. Observer scopes entered *inside*
    // the tasks (which submit nothing themselves) must never see it.
    let submitter = mcpat::obs::Collector::new();
    let steals_in_tasks = AtomicU64::new(0);
    let barrier = std::sync::Barrier::new(2);
    {
        let _scope = submitter.enter();
        let items: Vec<u64> = (0..2).collect();
        let out = mcpat::par::par_map(&items, 2, |_, &x| {
            let executor = mcpat::obs::Collector::new();
            let observed = {
                let _inner = executor.enter();
                barrier.wait();
                executor.snapshot().pool_steals
            };
            steals_in_tasks.fetch_add(observed, Ordering::Relaxed);
            x + 1
        })
        .unwrap();
        assert_eq!(out, vec![1, 2]);
    }
    assert_eq!(
        steals_in_tasks.load(Ordering::Relaxed),
        0,
        "a steal must bill the scope that submitted the task, \
         never a scope opened on the stealing worker"
    );
    assert!(
        submitter.snapshot().pool_steals >= 1,
        "two tasks meeting at a barrier ran on one thread"
    );
}
