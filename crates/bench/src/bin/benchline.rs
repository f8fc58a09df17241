//! Tool-speed benchmark line: times the modeling stack itself (array
//! solves, core builds, chip builds, exploration sweeps, clock
//! bisection, streaming DSE sweeps) in three execution modes — serial,
//! thread-parallel, and warm solve-cache — and writes
//! `BENCH_toolspeed.json` for trend tracking in CI.
//!
//! Run with: `cargo run --release -p mcpat-bench --bin benchline
//! [--quick] [--out PATH] [--gate BASELINE.json]`
//!
//! `--gate` turns the run into a regression check against a previously
//! committed JSON: on a multi-core host the exploration sweep must not
//! be slower in parallel than serially, and when the baseline was
//! recorded on a host with the same CPU label *and* the same rep count
//! (`--quick` and full runs take different medians), no benchmark's
//! `serial_ms` may regress by more than 15% — tightened to 10% for the
//! cold `chip_build_*` rows, the floor under every sweep and daemon
//! scenario. Each row reports the heap allocations of one run in all
//! three modes (`allocs_serial`/`allocs_parallel`/`allocs_warm`), and
//! the `speedups` block carries `cold_build_speedup_vs_baseline`: the
//! geometric mean of the chip-build serial-median improvements over
//! the baseline JSON (0 when no same-label baseline is available).
//! A mismatched CPU label or
//! rep count skips the wall-clock comparison (the numbers are not
//! comparable) but still enforces the speedup invariant and two
//! host-independent overhead ceilings: a build inside an entered
//! `mcpat::obs::Collector` scope with tracing disabled must cost at
//! most 2% over a plain build, and a build inside an entered unbounded
//! `mcpat::guard::Budget` scope must cost at most 3% over a build
//! with no budget active. Two more host-independent gates cover the
//! design-space sweep: the streaming `mcpat::dse` engine must retire
//! candidates at least 5x faster than the naive per-candidate
//! full-build loop (both throughputs measured in this run, same serial
//! mode), and on a single-core host the parallel exploration path must
//! degrade to inline execution — zero worker-pool submissions and wall
//! clock within 25% of serial. A fifth host-independent gate covers
//! the `mcpat serve` daemon: a warm shared-cache request over loopback
//! TCP must complete at least 5x faster than the same request against
//! a cleared cache (the `serve` block records both latencies). Full (non-`--quick`) runs additionally
//! time one 10^5-candidate streaming sweep end to end, recorded in the
//! `dse` block.
//!
//! The JSON is stamped with the git revision and records the host's
//! available parallelism alongside every number: on a single-core
//! runner the parallel column necessarily matches serial, so compare
//! parallel speedups only across runs whose `host.available_parallelism`
//! agrees.

use mcpat::{
    explore, explore_batch, max_clock_under_power_budget, register_alloc_probe, AxisGrid, Budgets,
    DseEvaluator, DseOptions, DsePerf, FrontierPoint, MetricSet, ParetoFrontier, Processor,
    ProcessorConfig, WorkloadModel,
};
use mcpat_array::{memo, ArraySpec, OptTarget};
use mcpat_mcore::config::CoreConfig;
use mcpat_mcore::core::CoreModel;
use mcpat_tech::{DeviceType, TechNode, TechParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations so the benchmark can report allocations per
/// solve — the direct measure of the enumeration loop's cheapness.
/// A process-global total feeds the per-row `allocs_serial` column; a
/// per-thread count feeds the `mcpat-obs` probe, whose contract is
/// "the calling thread's allocations" (each thread flushes its own
/// delta to the scope chain active on it).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// updates have no effect on allocation behavior (`try_with` shrugs off
// TLS teardown instead of re-entering the allocator or panicking).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn die(msg: &str) -> ! {
    eprintln!("benchline: {msg}");
    std::process::exit(1)
}

/// Median wall-clock milliseconds of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(f64::NAN)
}

/// Short git revision of the checkout, or `"unknown"` outside one (or
/// without git on PATH). Restricted to alphanumeric characters so it
/// embeds in the hand-written JSON without escaping.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| {
            s.trim()
                .chars()
                .filter(char::is_ascii_alphanumeric)
                .collect::<String>()
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| String::from("unknown"))
}

/// Allocations performed by one run of `f`.
fn allocs_of(mut f: impl FnMut()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Reader handed to [`register_alloc_probe`] so scoped collectors
/// (`BuildPerf`/`ExplorePerf::allocs`) can bill each thread's
/// allocations to the scope active on that thread.
fn current_thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

struct Row {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
    warm_cache_ms: f64,
    allocs_serial: u64,
    allocs_parallel: u64,
    allocs_warm: u64,
}

/// Times one workload in the three modes. `reps` runs per mode, median
/// reported. The solve cache is disabled for the serial and parallel
/// columns and pre-warmed for the warm column. Each mode also reports
/// the heap allocations of one run, so arena wins on the cold path are
/// visible in every mode, not just serial.
fn bench(name: &'static str, reps: usize, mut work: impl FnMut()) -> Row {
    // Serial: one thread, no cache.
    memo::set_enabled(false);
    mcpat_par::set_thread_override(1);
    work(); // warm code/branch caches before timing
    let serial_ms = median_ms(reps, &mut work);
    let allocs_serial = allocs_of(&mut work);

    // Parallel: default thread count, no cache.
    mcpat_par::set_thread_override(0);
    let parallel_ms = median_ms(reps, &mut work);
    let allocs_parallel = allocs_of(&mut work);

    // Warm cache: content-addressed solve cache on and populated.
    memo::set_enabled(true);
    memo::clear();
    work(); // populate
    let warm_cache_ms = median_ms(reps, &mut work);
    let allocs_warm = allocs_of(&mut work);
    memo::set_auto();

    let row = Row {
        name,
        serial_ms,
        parallel_ms,
        warm_cache_ms,
        allocs_serial,
        allocs_parallel,
        allocs_warm,
    };
    eprintln!(
        "{name:<22} serial {serial_ms:>9.3} ms | parallel {parallel_ms:>9.3} ms | warm {warm_cache_ms:>9.3} ms | allocs {allocs_serial}/{allocs_parallel}/{allocs_warm}",
    );
    row
}

fn explore_candidates() -> Vec<ProcessorConfig> {
    (0..16u32)
        .map(|i| {
            ProcessorConfig::manycore(
                &format!("c{i}"),
                TechNode::N32,
                CoreConfig::generic_inorder(),
                2 + (i % 4) * 2,
                1 + (i % 4),
                u64::from(1 + (i % 4)) * 1024 * 1024,
            )
        })
        .collect()
}

/// The pre-incremental clock bisection: every probe rebuilds the full
/// chip. Kept as the benchmark baseline `clock_bisection_incremental`
/// is measured against.
fn bisection_full_rebuild(
    config: &ProcessorConfig,
    budget_w: f64,
    lo_hz: f64,
    hi_hz: f64,
) -> Option<f64> {
    let power_at = |clock: f64| -> f64 {
        let mut cfg = config.clone();
        cfg.clock_hz = clock;
        cfg.core.clock_hz = clock;
        match Processor::build(&cfg) {
            Ok(chip) => chip.peak_power().total(),
            Err(e) => die(&format!("bisection build failed: {e}")),
        }
    };
    if power_at(lo_hz) > budget_w {
        return None;
    }
    if power_at(hi_hz) <= budget_w {
        return Some(hi_hz);
    }
    let (mut lo, mut hi) = (lo_hz, hi_hz);
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        if power_at(mid) <= budget_w {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Ceiling on the tracing-disabled observability overhead: a build
/// inside an entered collector (spans compiled in but inert, counters
/// billed per-scope) may cost at most 2% over the identical build with
/// no scope active. The median measures ~0.3%; the headroom absorbs
/// shared-runner noise on ~1 ms builds while still catching any
/// accidental per-event work on the disabled path.
const MAX_TRACE_DISABLED_OVERHEAD: f64 = 1.02;

/// Measures the marginal cost of the observability layer with tracing
/// disabled: the ratio of a cold-cache serial chip build run inside an
/// entered [`mcpat::obs::Collector`] scope to the same build with no
/// scope active. The solve cache is cleared before every sample so each
/// build does its full solver work — the representative workload the
/// overhead ceiling is about. (A warm-cache rebuild finishes in microseconds,
/// where per-event counter billing amplifies to a few percent relative
/// but only single-digit microseconds absolute; gating on that would
/// flake on timer noise without protecting anything real.) Each
/// interleaved pair yields one scoped/plain ratio from two temporally
/// adjacent builds — the same frequency and CPU-steal regime — and the
/// probe reports the median ratio, which discards the pairs a
/// scheduling blip lands in. (A per-side `min` is not robust here: the
/// two minima come from different instants, so a brief fast window
/// covering only one side skews the ratio by several percent.) The
/// order within a pair alternates so the second build's warmer caches
/// do not bias the ratio toward either side.
fn trace_disabled_overhead_ratio() -> f64 {
    mcpat::obs::set_tracing(false);
    let cfg = ProcessorConfig::niagara2();
    let build = || {
        if let Err(e) = Processor::build(&cfg) {
            die(&format!("overhead-probe build failed: {e}"));
        }
    };
    mcpat_par::set_thread_override(1);
    memo::set_enabled(true);
    memo::clear();
    build(); // warm the code paths (the cache is cleared per sample)
    let collector = mcpat::obs::Collector::new();
    let mut ratios: Vec<f64> = Vec::with_capacity(100);
    for pair in 0..100 {
        let timed = |scope: bool| {
            memo::clear();
            let t = Instant::now();
            if scope {
                let _scope = collector.enter();
                build();
            } else {
                build();
            }
            t.elapsed().as_secs_f64()
        };
        // Alternate which side runs first: the second build of a pair
        // sees warmer caches, and a fixed order would bake that bias
        // into every ratio.
        let scope_first = pair % 2 == 0;
        let first = timed(scope_first);
        let second = timed(!scope_first);
        let (scoped, plain) = if scope_first {
            (first, second)
        } else {
            (second, first)
        };
        if plain > 0.0 {
            ratios.push(scoped / plain);
        }
    }
    memo::set_auto();
    mcpat_par::set_thread_override(0);
    ratios.sort_by(f64::total_cmp);
    ratios.get(ratios.len() / 2).copied().unwrap_or(1.0)
}

/// Ceiling on the budget-checkpoint overhead: a build running inside an
/// entered (but unbounded) `mcpat::guard::Budget` scope — every
/// checkpoint live, none ever tripping — may cost at most 3% over the
/// identical build with no budget active (the disabled path, where a
/// checkpoint is a single thread-local load). The live chain walk
/// measures ~1.5% on a cold build; the gate exists to catch a
/// checkpoint accidentally growing O(n) work, not to litigate
/// nanoseconds under shared-runner noise.
const MAX_GUARD_DISABLED_OVERHEAD: f64 = 1.03;

/// Measures the marginal cost of budget checkpoints on the cold-build
/// path: the ratio of a cold-cache serial chip build inside an entered
/// unbounded [`mcpat::guard::Budget`] scope to the same build with no
/// budget active. Methodology matches [`trace_disabled_overhead_ratio`]:
/// the cache is cleared per sample so every checkpoint in the solver
/// sweep actually executes, and the reported number is the median of
/// 50 interleaved pairwise scoped/plain ratios.
fn guard_disabled_overhead_ratio() -> f64 {
    let cfg = ProcessorConfig::niagara2();
    let build = || {
        if let Err(e) = Processor::build(&cfg) {
            die(&format!("overhead-probe build failed: {e}"));
        }
    };
    mcpat_par::set_thread_override(1);
    memo::set_enabled(true);
    memo::clear();
    build(); // warm the code paths (the cache is cleared per sample)
    let budget = mcpat::guard::Budget::unbounded();
    let mut ratios: Vec<f64> = Vec::with_capacity(100);
    for pair in 0..100 {
        let timed = |scope: bool| {
            memo::clear();
            let t = Instant::now();
            if scope {
                let _scope = budget.enter();
                build();
            } else {
                build();
            }
            t.elapsed().as_secs_f64()
        };
        // Alternate which side runs first (see trace probe).
        let scope_first = pair % 2 == 0;
        let first = timed(scope_first);
        let second = timed(!scope_first);
        let (scoped, plain) = if scope_first {
            (first, second)
        } else {
            (second, first)
        };
        if plain > 0.0 {
            ratios.push(scoped / plain);
        }
    }
    memo::set_auto();
    mcpat_par::set_thread_override(0);
    ratios.sort_by(f64::total_cmp);
    ratios.get(ratios.len() / 2).copied().unwrap_or(1.0)
}

/// Runs one tracing-enabled chip build and prints its per-phase span
/// summary, then disables tracing again. Purely informational: the
/// bit-identity of traced builds is asserted by `tests/perf_identity.rs`.
fn print_span_summary() {
    mcpat::obs::set_tracing(true);
    let collector = mcpat::obs::Collector::new();
    {
        let _scope = collector.enter();
        if let Err(e) = Processor::build(&ProcessorConfig::niagara2()) {
            die(&format!("traced build failed: {e}"));
        }
    }
    mcpat::obs::set_tracing(false);
    let trace = collector.trace();
    eprintln!(
        "benchline: traced niagara2 build, {} span(s):",
        trace.spans.len()
    );
    for s in &trace.spans {
        eprintln!(
            "benchline:   {:<18} {:>9.3} ms | cache {} hit(s) / {} miss(es) | {} alloc(s) | {} relaxation(s)",
            s.path,
            s.wall_s * 1e3,
            s.solve_cache_hits,
            s.solve_cache_misses,
            s.allocs,
            s.relaxations
        );
    }
}

/// Serial median of one named benchmark row in a baseline JSON.
fn baseline_serial_ms(baseline: &serde_json::Value, name: &str) -> Option<f64> {
    baseline
        .get("benchmarks")
        .and_then(serde_json::Value::as_seq)?
        .iter()
        .find_map(|b| {
            if b.get("name").and_then(serde_json::Value::as_str)? == name {
                b.get("serial_ms").and_then(serde_json::Value::as_f64)
            } else {
                None
            }
        })
}

/// Cold-build speedup of this run over a baseline JSON: the geometric
/// mean, across the `chip_build_*` rows, of baseline cold serial
/// median over this run's. Returns 0.0 (meaning "no comparable
/// baseline") when the baseline is absent, was recorded on a host with
/// a different CPU label, or shares no chip-build rows — wall-clock
/// medians from different hosts are not comparable.
fn cold_build_speedup_vs_baseline(
    baseline: Option<&serde_json::Value>,
    rows: &[Row],
    host_label: &str,
) -> f64 {
    let Some(baseline) = baseline else { return 0.0 };
    let base_label = baseline
        .get("host")
        .and_then(|h| h.get("label"))
        .and_then(serde_json::Value::as_str)
        .unwrap_or("");
    if base_label != host_label {
        return 0.0;
    }
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for row in rows {
        if !row.name.starts_with("chip_build_") || row.serial_ms <= 0.0 {
            continue;
        }
        let Some(base_ms) = baseline_serial_ms(baseline, row.name) else {
            continue;
        };
        if base_ms > 0.0 {
            log_sum += (base_ms / row.serial_ms).ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// Floor on the streaming DSE engine's throughput advantage over the
/// naive per-candidate full-build loop, measured within one run in the
/// same execution mode (so the ratio holds on any host).
const MIN_DSE_STREAMING_SPEEDUP: f64 = 5.0;

/// Floor on the serve daemon's warm-request advantage: a request whose
/// solves are all resident in the shared cache must complete at least
/// this much faster than the same request against a cleared cache.
/// Both latencies go over a real loopback TCP round trip in this run,
/// so the ratio is host-independent.
const MIN_SERVE_WARM_SPEEDUP: f64 = 5.0;

/// Median request latencies against an in-process `mcpat serve`
/// daemon over real loopback TCP: `(cold_ms, warm_ms)`. Cold clears
/// the shared solve cache before every request (each build does its
/// full solver work); warm leaves the cache populated, so the request
/// pays only lookup + relabel + render + the wire round trip. Serial
/// requests on one connection — the concurrency story is covered by
/// the daemon's own tests; this row times the cache seam.
fn serve_request_latencies(reps: usize) -> (f64, f64) {
    use std::io::{BufRead as _, BufReader, Write as _};

    let server = mcpat_serve::Server::bind(
        "127.0.0.1:0",
        &mcpat_serve::ServeOptions { max_inflight: 4 },
    )
    .unwrap_or_else(|e| die(&format!("serve probe: cannot bind loopback: {e}")));
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        if let Err(e) = server.run() {
            eprintln!("benchline: serve probe server error: {e}");
        }
    });

    let stream = std::net::TcpStream::connect(handle.addr())
        .unwrap_or_else(|e| die(&format!("serve probe: cannot connect: {e}")));
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .unwrap_or_else(|e| die(&format!("serve probe: cannot clone stream: {e}"))),
    );
    let mut stream = stream;
    let mut roundtrip = |line: &str| {
        // One write per request: a trailing-newline second write would
        // reintroduce the Nagle stall the daemon disables server-side.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        if stream.write_all(&buf).is_err() {
            die("serve probe: request write failed");
        }
        let mut resp = String::new();
        match reader.read_line(&mut resp) {
            Ok(n) if n > 0 => {}
            _ => die("serve probe: server closed the connection"),
        }
        if !resp.contains("\"status\":\"ok\"") {
            die(&format!("serve probe: request failed: {}", resp.trim()));
        }
    };
    let request = "{\"type\":\"evaluate\",\"preset\":\"niagara2\"}";

    mcpat_par::set_thread_override(0);
    memo::set_enabled(true);
    memo::clear();
    roundtrip(request); // warm code paths; leaves the cache populated
    let warm_ms = median_ms(reps, || roundtrip(request));
    let cold_ms = median_ms(reps, || {
        memo::clear();
        roundtrip(request);
    });
    memo::set_auto();

    handle.request_drain();
    let _ = join.join();
    (cold_ms, warm_ms)
}

/// Regression gate: compares this run's rows against a committed
/// baseline JSON. Returns every violated invariant.
#[allow(clippy::too_many_arguments)]
fn gate_failures(
    baseline: &serde_json::Value,
    rows: &[Row],
    explore_parallel_speedup: f64,
    trace_overhead_ratio: f64,
    guard_overhead_ratio: f64,
    dse_streaming_vs_naive: f64,
    serve_warm_vs_cold: f64,
    explore_pool_submissions: u64,
    host_threads: usize,
    host_label: &str,
    reps: usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    if host_threads > 1 && explore_parallel_speedup < 1.0 {
        failures.push(format!(
            "explore_parallel_vs_serial is {explore_parallel_speedup:.3} (< 1.0) on a \
             {host_threads}-way host: the parallel path must not lose to serial"
        ));
    }
    // Single-core hosts pin the other side of the same invariant: the
    // parallel path must degrade to inline execution — no pool
    // submissions, and wall clock no worse than serial beyond a 25%
    // noise allowance. The pathology this catches (a spawned-then-idle
    // pool round-tripping every task through the queue) cost ~2x, so
    // the wide margin keeps 3-rep quick runs on a busy host from
    // flaking while still failing loudly on the real regression; the
    // zero-submission check below is the exact half of the invariant.
    if host_threads == 1 {
        if explore_parallel_speedup < 1.0 / 1.25 {
            failures.push(format!(
                "explore_parallel_vs_serial is {explore_parallel_speedup:.3} on a single-core \
                 host: the parallel path must degrade to inline execution (>= 0.8)"
            ));
        }
        if explore_pool_submissions > 0 {
            failures.push(format!(
                "explore submitted {explore_pool_submissions} task(s) to the worker pool on a \
                 single-core host: the parallel path must run inline"
            ));
        }
    }
    // Host-independent: both throughputs are measured in this run, in
    // the same serial memo-off mode.
    if dse_streaming_vs_naive < MIN_DSE_STREAMING_SPEEDUP {
        failures.push(format!(
            "dse streaming_vs_naive_speedup is {dse_streaming_vs_naive:.2} \
             (< {MIN_DSE_STREAMING_SPEEDUP}): the streaming engine must beat the naive \
             per-candidate full-build sweep by 5x"
        ));
    }
    // Host-independent: both request latencies go over this run's own
    // loopback daemon, so the ratio holds on any host.
    if serve_warm_vs_cold < MIN_SERVE_WARM_SPEEDUP {
        failures.push(format!(
            "serve warm_vs_cold_speedup is {serve_warm_vs_cold:.2} \
             (< {MIN_SERVE_WARM_SPEEDUP}): a warm shared-cache request must beat a \
             cold evaluation by 5x"
        ));
    }
    // Host-independent: the ratio compares two builds on *this* host,
    // so it is enforced even when the wall-clock comparison is skipped.
    if trace_overhead_ratio > MAX_TRACE_DISABLED_OVERHEAD {
        failures.push(format!(
            "trace_disabled_overhead_ratio is {trace_overhead_ratio:.4} \
             (> {MAX_TRACE_DISABLED_OVERHEAD}): disabled tracing must cost <= 2%"
        ));
    }
    if guard_overhead_ratio > MAX_GUARD_DISABLED_OVERHEAD {
        failures.push(format!(
            "guard_disabled_overhead_ratio is {guard_overhead_ratio:.4} \
             (> {MAX_GUARD_DISABLED_OVERHEAD}): live budget checkpoints must cost <= 3%"
        ));
    }
    let base_label = baseline
        .get("host")
        .and_then(|h| h.get("label"))
        .and_then(serde_json::Value::as_str)
        .unwrap_or("");
    if base_label != host_label {
        eprintln!(
            "benchline: gate skipped: CPU-label mismatch (baseline host \"{base_label}\" \
             != \"{host_label}\"; wall-clock serial_ms is not comparable)"
        );
        return failures;
    }
    let base_reps = baseline
        .get("reps_per_mode")
        .and_then(serde_json::Value::as_f64)
        .unwrap_or(0.0);
    if base_reps != reps as f64 {
        eprintln!(
            "benchline: gate skips serial_ms comparison (baseline took the median of \
             {base_reps} reps, this run {reps}; medians are not comparable)"
        );
        return failures;
    }
    let base_rows = baseline
        .get("benchmarks")
        .and_then(serde_json::Value::as_seq)
        .unwrap_or(&[]);
    for row in rows {
        let base_ms = base_rows.iter().find_map(|b| {
            let name = b.get("name").and_then(serde_json::Value::as_str)?;
            if name == row.name {
                b.get("serial_ms").and_then(serde_json::Value::as_f64)
            } else {
                None
            }
        });
        // Rows the baseline predates are informational only.
        let Some(base_ms) = base_ms else { continue };
        // The cold chip builds are the floor under every sweep and
        // daemon scenario, so they get a tighter leash (10%) than the
        // blanket 15% noise allowance.
        let (limit, pct) = if row.name.starts_with("chip_build_") {
            (1.10, 10)
        } else {
            (1.15, 15)
        };
        if base_ms > 0.0 && row.serial_ms > base_ms * limit {
            failures.push(format!(
                "{}: serial {:.3} ms regressed more than {pct}% over baseline {:.3} ms",
                row.name, row.serial_ms, base_ms
            ));
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_toolspeed.json", String::as_str);
    let gate_path = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1));
    let reps = if quick { 3 } else { 7 };
    register_alloc_probe(current_thread_allocs);

    // lint: allow(L011, host metadata recorded in the report header so runs are only compared across equal hosts; no result depends on it)
    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let revision = git_revision();
    eprintln!(
        "benchline: revision {revision}, host parallelism {host_threads}, {reps} reps/mode{}",
        if quick { " (quick)" } else { "" }
    );

    let tech = TechParams::new(TechNode::N65, DeviceType::Hp, 360.0);
    let ok_or_die = |r: Result<mcpat_array::SolvedArray, mcpat_array::ArrayError>| {
        if let Err(e) = r {
            die(&format!("array solve failed: {e}"));
        }
    };

    let mut rows: Vec<Row> = Vec::new();
    for (name, kb) in [
        ("array_solve_32kb", 32u64),
        ("array_solve_2mb", 2048),
        ("array_solve_16mb", 16384),
    ] {
        let spec = ArraySpec::ram(kb * 1024, 64);
        rows.push(bench(name, reps, || {
            ok_or_die(spec.solve(&tech, OptTarget::EnergyDelay));
        }));
    }

    let ooo = CoreConfig::generic_ooo();
    rows.push(bench("core_build_ooo", reps, || {
        if let Err(e) = CoreModel::build(&tech, &ooo) {
            die(&format!("core build failed: {e}"));
        }
    }));

    for (name, cfg) in [
        ("chip_build_niagara2", ProcessorConfig::niagara2()),
        ("chip_build_tulsa", ProcessorConfig::tulsa()),
    ] {
        rows.push(bench(name, reps, || {
            if let Err(e) = Processor::build(&cfg) {
                die(&format!("chip build failed: {e}"));
            }
        }));
    }

    let cands = explore_candidates();
    let explore_reps = if quick { 1 } else { 3 };
    rows.push(bench("explore_16_candidates", explore_reps, || {
        let r = explore(&cands, Budgets::default(), |c| {
            MetricSet::from_power(10.0, 1.0, c.die_area())
        });
        if let Err(e) = r {
            die(&format!("exploration failed: {e}"));
        }
    }));

    rows.push(bench("explore_batch_16_candidates", explore_reps, || {
        let r = explore_batch(&cands, Budgets::default(), |c| {
            MetricSet::from_power(10.0, 1.0, c.die_area())
        });
        if let Err(e) = r {
            die(&format!("batched exploration failed: {e}"));
        }
    }));

    let clk_cfg = ProcessorConfig::manycore(
        "clk",
        TechNode::N32,
        CoreConfig::generic_inorder(),
        4,
        2,
        1024 * 1024,
    );
    rows.push(bench("clock_bisection_full", explore_reps, || {
        if bisection_full_rebuild(&clk_cfg, 25.0, 0.5e9, 6.0e9).is_none() {
            die("full-rebuild bisection found no feasible clock");
        }
    }));
    rows.push(bench("clock_bisection_incremental", explore_reps, || {
        match max_clock_under_power_budget(&clk_cfg, 25.0, 0.5e9, 6.0e9) {
            Ok(Some(_)) => {}
            Ok(None) => die("incremental bisection found no feasible clock"),
            Err(e) => die(&format!("incremental bisection failed: {e}")),
        }
    }));

    // Streaming DSE sweep vs the naive per-candidate full build. Both
    // rows walk the same axes; the naive baseline samples a 10-clock
    // slice (10^3 candidates) because building every candidate from
    // scratch at 10^4 scale would dominate the whole benchline run —
    // the gate compares candidates/sec, so the sample sizes need not
    // match.
    let dse_axes = |clocks: usize| {
        let step = 2.0e9 / (clocks.max(2) - 1) as f64;
        AxisGrid::manycore(
            vec![TechNode::N45, TechNode::N32],
            vec![DeviceType::Hp, DeviceType::Lop],
            vec![2, 4, 8, 12, 16],
            vec![512 * 1024, 1 << 20, 2 << 20, 4 << 20, 8 << 20],
            (0..clocks).map(|i| 1.0e9 + step * i as f64).collect(),
        )
    };
    let dse_grid = dse_axes(100); // 2 x 2 x 5 x 5 x 100 = 10^4 candidates
    let mut dse_perf = DsePerf::default();
    rows.push(bench(
        "dse_10k_candidates",
        explore_reps,
        || match mcpat::dse(
            &dse_grid,
            &DseOptions::default(),
            &mut WorkloadModel::default(),
        ) {
            Ok(r) => dse_perf = r.perf,
            Err(e) => die(&format!("streaming dse sweep failed: {e}")),
        },
    ));

    let naive_grid = dse_axes(10); // 10^3-candidate full-build sample
    rows.push(bench("dse_naive_1k_fullbuild", explore_reps, || {
        let mut frontier = ParetoFrontier::new();
        let mut eval = WorkloadModel::default();
        for cursor in 0..naive_grid.total() {
            if let Err(e) = mcpat::guard::check() {
                die(&format!("naive sweep budget error: {e}"));
            }
            let Some(cfg) = naive_grid.config_at(cursor) else {
                die("naive sweep enumerated past the grid");
            };
            let chip = match Processor::build(&cfg) {
                Ok(chip) => chip,
                Err(e) => die(&format!("naive sweep build failed: {e}")),
            };
            let metrics = eval.evaluate(&chip);
            frontier.offer(FrontierPoint {
                name: cfg.name,
                cursor,
                area: chip.die_area(),
                peak_power: chip.peak_power().total(),
                metrics,
            });
        }
    }));

    // The full 10^5-candidate sweep the issue's completion criterion is
    // about: run once at the host's default thread count, wall clock
    // only (a benched median would triple the cost for no extra
    // information). Skipped in quick mode.
    let (sweep_100k_ms, sweep_100k_cands) = if quick {
        (0.0, 0u64)
    } else {
        let grid = dse_axes(1000); // 2 x 2 x 5 x 5 x 1000 = 10^5
        memo::set_auto();
        mcpat_par::set_thread_override(0);
        let t = Instant::now();
        match mcpat::dse(&grid, &DseOptions::default(), &mut WorkloadModel::default()) {
            Ok(r) => {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                eprintln!(
                    "benchline: 10^5-candidate streaming sweep in {ms:.0} ms ({:.0} candidates/s): \
                     {} pruned, {} probes, {} full builds, frontier {}",
                    grid.total() as f64 / (ms / 1e3),
                    r.perf.pruned,
                    r.perf.probes,
                    r.perf.full_builds,
                    r.frontier.len()
                );
                (ms, grid.total())
            }
            Err(e) => die(&format!("10^5-candidate dse sweep failed: {e}")),
        }
    };

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let find = |n: &str| {
        rows.iter()
            .find(|r| r.name == n)
            .unwrap_or_else(|| die("missing benchmark row"))
    };
    let chip = find("chip_build_niagara2");
    let expl = find("explore_16_candidates");
    let batch = find("explore_batch_16_candidates");
    let bisect_full = find("clock_bisection_full");
    let bisect_incr = find("clock_bisection_incremental");
    let explore_parallel_speedup = ratio(expl.serial_ms, expl.parallel_ms);
    let chip_warm_speedup = ratio(chip.serial_ms, chip.warm_cache_ms);
    let batch_vs_explore_speedup = ratio(expl.serial_ms, batch.serial_ms);
    let bisection_speedup = ratio(bisect_full.serial_ms, bisect_incr.serial_ms);

    // DSE throughput, compared within this run in the same mode
    // (serial, memo off) so the ratio is host-independent: how many
    // candidates per second the streaming engine retires vs the naive
    // loop that full-builds every candidate.
    let dse_row = find("dse_10k_candidates");
    let naive_row = find("dse_naive_1k_fullbuild");
    let dse_cands_per_sec = ratio(dse_grid.total() as f64, dse_row.serial_ms / 1e3);
    let naive_cands_per_sec = ratio(naive_grid.total() as f64, naive_row.serial_ms / 1e3);
    let dse_streaming_vs_naive = ratio(dse_cands_per_sec, naive_cands_per_sec);
    let dse_prune_rate = ratio(dse_perf.pruned as f64, dse_perf.candidates as f64);
    let dse_probe_vs_full = ratio(dse_perf.probes as f64, dse_perf.full_builds.max(1) as f64);
    eprintln!(
        "benchline: dse streaming {dse_cands_per_sec:.0} candidates/s vs naive \
         {naive_cands_per_sec:.0} ({dse_streaming_vs_naive:.1}x); prune rate \
         {dse_prune_rate:.3}, {dse_probe_vs_full:.0} probes per full build"
    );

    // One parallel-mode exploration with the pool's submission counter
    // bracketed around it. On a single-core host the parallel path must
    // degrade to fully inline execution — zero tasks handed to the
    // worker pool (the 1-CPU regression the explore gate below pins);
    // multi-core hosts record the count informationally.
    let explore_pool_submissions = {
        mcpat_par::set_thread_override(0);
        let before = mcpat_par::pool::stats().submitted;
        let r = explore(&cands, Budgets::default(), |c| {
            MetricSet::from_power(10.0, 1.0, c.die_area())
        });
        if let Err(e) = r {
            die(&format!("pool-probe exploration failed: {e}"));
        }
        mcpat_par::pool::stats().submitted - before
    };
    eprintln!(
        "benchline: parallel-mode explore submitted {explore_pool_submissions} pool task(s) \
         on this {host_threads}-way host"
    );

    // Baseline for the cold-build speedup row: the gate baseline when
    // one was named, else whatever JSON the out path currently holds
    // (the committed baseline, when regenerating in place). Read
    // before the write below replaces it.
    let baseline_for_speedup: Option<serde_json::Value> = gate_path
        .map(String::as_str)
        .into_iter()
        .chain(std::iter::once(out_path))
        .find_map(|p| {
            let text = std::fs::read_to_string(p).ok()?;
            serde_json::from_str(&text).ok()
        });
    let cold_build_speedup = cold_build_speedup_vs_baseline(
        baseline_for_speedup.as_ref(),
        &rows,
        &format!("{host_threads}cpu"),
    );
    if cold_build_speedup > 0.0 {
        eprintln!(
            "benchline: cold chip builds run {cold_build_speedup:.3}x the baseline's serial medians"
        );
    } else {
        eprintln!(
            "benchline: no comparable baseline for the cold-build speedup row (recorded as 0)"
        );
    }

    let trace_overhead_ratio = trace_disabled_overhead_ratio();
    eprintln!(
        "benchline: trace-disabled overhead ratio {trace_overhead_ratio:.4} \
         (scoped cold build vs plain; gate ceiling {MAX_TRACE_DISABLED_OVERHEAD})"
    );
    let guard_overhead_ratio = guard_disabled_overhead_ratio();
    eprintln!(
        "benchline: guard-disabled overhead ratio {guard_overhead_ratio:.4} \
         (budget-scoped cold build vs plain; gate ceiling {MAX_GUARD_DISABLED_OVERHEAD})"
    );

    // Serve daemon round-trip latency: cold (cache cleared per request)
    // vs warm (every solve resident in the shared cache), both over a
    // real loopback TCP connection to an in-process daemon.
    let (serve_cold_ms, serve_warm_ms) = serve_request_latencies(reps);
    let serve_warm_vs_cold = ratio(serve_cold_ms, serve_warm_ms);
    eprintln!(
        "benchline: serve request cold {serve_cold_ms:.3} ms | warm shared-cache \
         {serve_warm_ms:.3} ms ({serve_warm_vs_cold:.1}x; gate floor {MIN_SERVE_WARM_SPEEDUP})"
    );
    print_span_summary();

    // Lint wall time: the full workspace self-lint, cold (every file
    // re-analyzed) vs warm (every file served from the content-hash
    // facts cache, cross-file passes still live). The warm closure
    // reloads the cache file each rep — that is what a real
    // `cargo lint --cache` run pays.
    let lint_srcs = mcpat_lint::collect_workspace_sources(&mcpat_lint::default_root())
        .unwrap_or_else(|e| die(&format!("cannot enumerate lint sources: {e}")));
    let lint_cold_ms = median_ms(reps, || {
        let _ = mcpat_lint::lint_sources(&lint_srcs);
    });
    let lint_cache_path =
        std::env::temp_dir().join(format!("benchline-lint-cache-{revision}.json"));
    let mut seed_cache = mcpat_lint::cache::Cache::default();
    let _ = mcpat_lint::lint_sources_cached(&lint_srcs, &mut seed_cache);
    if let Err(e) = seed_cache.store(&lint_cache_path) {
        die(&format!("cannot write lint cache: {e}"));
    }
    let lint_warm_ms = median_ms(reps, || {
        let mut cache = mcpat_lint::cache::Cache::load(&lint_cache_path);
        let _ = mcpat_lint::lint_sources_cached(&lint_srcs, &mut cache);
    });
    let _ = std::fs::remove_file(&lint_cache_path);
    eprintln!(
        "benchline: workspace self-lint cold {lint_cold_ms:.3} ms | warm-cache {lint_warm_ms:.3} ms ({} files)",
        lint_srcs.len()
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"mcpat-benchline-v1\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"reps_per_mode\": {reps},");
    let _ = writeln!(json, "  \"revision\": \"{revision}\",");
    let _ = writeln!(
        json,
        "  \"host\": {{ \"available_parallelism\": {host_threads}, \"label\": \"{host_threads}cpu\" }},"
    );
    let _ = writeln!(json, "  \"units\": \"milliseconds, median of reps\",");
    let _ = writeln!(
        json,
        "  \"trace\": {{ \"disabled_overhead_ratio\": {trace_overhead_ratio:.4}, \
         \"max_allowed_ratio\": {MAX_TRACE_DISABLED_OVERHEAD} }},"
    );
    let _ = writeln!(
        json,
        "  \"guard\": {{ \"disabled_overhead_ratio\": {guard_overhead_ratio:.4}, \
         \"max_allowed_ratio\": {MAX_GUARD_DISABLED_OVERHEAD} }},"
    );
    let _ = writeln!(
        json,
        "  \"lint\": {{ \"files\": {}, \"cold_ms\": {lint_cold_ms:.4}, \"warm_cache_ms\": {lint_warm_ms:.4} }},",
        lint_srcs.len()
    );
    let _ = writeln!(
        json,
        "  \"serve\": {{ \"cold_request_ms\": {serve_cold_ms:.4}, \
         \"warm_request_ms\": {serve_warm_ms:.4}, \
         \"warm_vs_cold_speedup\": {serve_warm_vs_cold:.2}, \
         \"min_allowed_speedup\": {MIN_SERVE_WARM_SPEEDUP} }},"
    );
    let _ = writeln!(
        json,
        "  \"dse\": {{ \"candidates\": {}, \"prune_rate\": {dse_prune_rate:.4}, \
         \"probes\": {}, \"cache_rebuilds\": {}, \"full_builds\": {}, \
         \"probe_vs_full_build_ratio\": {dse_probe_vs_full:.2}, \
         \"candidates_per_sec_serial\": {dse_cands_per_sec:.0}, \
         \"naive_candidates_per_sec_serial\": {naive_cands_per_sec:.0}, \
         \"streaming_vs_naive_speedup\": {dse_streaming_vs_naive:.2}, \
         \"explore_pool_submissions_on_host\": {explore_pool_submissions}, \
         \"sweep_100k_candidates\": {sweep_100k_cands}, \"sweep_100k_wall_ms\": {sweep_100k_ms:.1} }},",
        dse_perf.candidates, dse_perf.probes, dse_perf.cache_rebuilds, dse_perf.full_builds
    );
    let _ = writeln!(json, "  \"benchmarks\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"serial_ms\": {:.4}, \"parallel_ms\": {:.4}, \"warm_cache_ms\": {:.4}, \"allocs_serial\": {}, \"allocs_parallel\": {}, \"allocs_warm\": {} }}{comma}",
            r.name, r.serial_ms, r.parallel_ms, r.warm_cache_ms, r.allocs_serial, r.allocs_parallel, r.allocs_warm
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"speedups\": {{");
    let _ = writeln!(
        json,
        "    \"cold_build_speedup_vs_baseline\": {cold_build_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "    \"explore_parallel_vs_serial\": {explore_parallel_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "    \"chip_build_warm_cache_vs_cold\": {chip_warm_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "    \"explore_batch_vs_explore_serial\": {batch_vs_explore_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "    \"bisection_incremental_vs_full\": {bisection_speedup:.3}"
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write(out_path, &json) {
        die(&format!("cannot write {out_path}: {e}"));
    }
    eprintln!("benchline: wrote {out_path}");

    if let Some(gate_path) = gate_path {
        let text = std::fs::read_to_string(gate_path)
            .unwrap_or_else(|e| die(&format!("cannot read gate baseline {gate_path}: {e}")));
        let baseline: serde_json::Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| die(&format!("gate baseline {gate_path} is not JSON: {e}")));
        let label = format!("{host_threads}cpu");
        let failures = gate_failures(
            &baseline,
            &rows,
            explore_parallel_speedup,
            trace_overhead_ratio,
            guard_overhead_ratio,
            dse_streaming_vs_naive,
            serve_warm_vs_cold,
            explore_pool_submissions,
            host_threads,
            &label,
            reps,
        );
        if failures.is_empty() {
            eprintln!("benchline: gate passed against {gate_path}");
        } else {
            for f in &failures {
                eprintln!("benchline: GATE FAILURE: {f}");
            }
            die(&format!(
                "{} regression(s) against {gate_path}",
                failures.len()
            ));
        }
    }
}
