//! The three end-to-end workloads, run against the release `mcpat`
//! binary exactly as a user runs it, with tracing off.

use crate::check::{self, WireExpect};
use crate::gen::{self, Rng, ServeSequence};
use crate::stats::{self, MIN_SAMPLES_P99};
use crate::sys::Conn;
use crate::{Ctx, Outcome};
use mcpat::{DseCheckpoint, Processor, ProcessorConfig};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// `serve-mixed` client connections: one per CPU of the 2-CPU reference host.
const SERVE_CONNECTIONS: u64 = 2;
/// A run keeps measuring past `--seconds` until the p99 has ten samples
/// beyond it, but never past this.
const HARD_CAP: Duration = Duration::from_secs(150);
/// `serve-mixed` load runs in segments of this much load time; between
/// segments the clients pause while [`CAL_PER_SEGMENT`] calibration ops
/// run on an otherwise idle host.
const SEGMENT: Duration = Duration::from_secs(1);
const CAL_PER_SEGMENT: usize = 10;

/// The in-process reference report of a cold build, as a fresh `mcpat`
/// process renders it.
pub fn cold_report(cfg: &ProcessorConfig) -> Result<String, String> {
    mcpat::array::memo::clear();
    Processor::build(cfg)
        .map(|chip| chip.report())
        .map_err(|e| format!("reference build of `{}` failed: {e}", cfg.name))
}

/// Writes `cfg` as JSON under `dir`; returns the path as `mcpat` takes it.
fn write_config(dir: &Path, cfg: &ProcessorConfig) -> Result<String, String> {
    let path = dir.join(format!("{}.json", cfg.name));
    let json = serde_json::to_string(cfg).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.to_string_lossy().into_owned())
}

fn keep_going(t: Duration, seconds: f64, samples: usize) -> bool {
    t < HARD_CAP && (t.as_secs_f64() < seconds || samples < MIN_SAMPLES_P99)
}

/// Largest error of the four published chips' peak power and die area,
/// read out of `mcpat <chip.json>` reports (outside the timed window).
/// Each report is also checked against the in-process reference.
fn accuracy(ctx: &Ctx, out: &mut Outcome) -> Result<(f64, f64), String> {
    let (mut power, mut area) = (0.0f64, 0.0f64);
    for chip in mcpat_bench::published_chips() {
        let cfg = (chip.config)();
        let path = write_config(&ctx.work, &cfg)?;
        let expect = format!("{}\n", cold_report(&cfg)?);
        let run = ctx.mcpat.run(&[&path]).map_err(|e| e.to_string())?;
        out.attempted += 1;
        let text = String::from_utf8_lossy(&run.stdout);
        if !run.success() || text != expect {
            out.fail(format!(
                "accuracy report of {} differs from the reference",
                chip.name
            ));
            continue;
        }
        let Some((a, p)) = check::parse_area_power(&text) else {
            out.fail(format!("no area/power in the {} report", chip.name));
            continue;
        };
        power = power.max(check::error_pct(p, chip.power_w));
        area = area.max(check::error_pct(a, chip.area_mm2));
    }
    Ok((power, area))
}

/// Latency and resource figures shared by every workload.
struct Measured {
    /// Per-op latency in completion order.
    lat_ms: Vec<f64>,
    ops: u64,
    /// Seconds the ops ran: their summed spawn-to-exit time for a
    /// sequential one-shot loop (gaps spent checking outputs do not
    /// count) and the load clock for connections.
    busy_s: f64,
    cpu_s: f64,
    maxrss_kib: i64,
    setup_s: f64,
    /// Calibration op latencies, interleaved with the ops.
    cal_ms: Vec<f64>,
}

/// Prints the raw figures and reports the gated ones: the program's
/// latency, throughput and CPU per op read in calibration ops (see
/// [`crate::calib`]), peak RSS, set-up time and accuracy.
fn finish(ctx: &Ctx, out: &mut Outcome, m: &Measured, op: &str) -> Result<(), String> {
    let sorted = stats::sorted(&m.lat_ms);
    let p50 = stats::median(&sorted);
    let (q1, q3) = stats::quartiles(&sorted);
    let p99 = stats::blocked_p99(&m.lat_ms);
    let throughput = m.ops as f64 / m.busy_s;
    let cpu_ms = m.cpu_s * 1e3 / m.ops as f64;
    if m.cal_ms.is_empty() {
        return Err("no calibration ops ran".into());
    }
    // The median and the p50 are read against each other, and so are the
    // means: a burst of host steal lengthens both kinds of op alike in
    // proportion to their time, which moves a mean but not a median.
    let cal = stats::median(&m.cal_ms);
    let cal_mean = m.cal_ms.iter().sum::<f64>() / m.cal_ms.len() as f64;
    out.note(format!(
        "latency per {op}: n={} p50={p50:.4} ms (q1 {q1:.4}, q3 {q3:.4}) p99={}; closed loop, so no generator lateness",
        sorted.len(),
        p99.map_or("n/a".to_string(), |(p99, blocks)| format!(
            "{p99:.4} ms (median of {blocks} blocks of {})",
            stats::P99_BLOCK
        ))
    ));
    out.note(format!(
        "calibration op: n={} p50={cal:.4} ms mean={cal_mean:.4} ms",
        m.cal_ms.len()
    ));
    out.raw("throughput_per_s", throughput, "ops/s");
    out.raw("latency_p50_ms", p50, "ms");
    if let Some((p99, _)) = p99 {
        out.raw("latency_p99_ms", p99, "ms");
    }
    out.raw("cpu_ms_per_op", cpu_ms, "ms");
    out.raw("calibration_op_ms", cal, "ms");
    let (power, area) = accuracy(ctx, out)?;
    out.metric("latency_p50_cal", p50 / cal, "cal");
    out.metric("throughput_cal", throughput * cal_mean / 1e3, "ops/cal");
    out.metric("cpu_per_op_cal", cpu_ms / cal, "cal");
    out.metric("peak_rss_mb", m.maxrss_kib as f64 / 1024.0, "MiB");
    out.metric("setup_s", m.setup_s, "s");
    out.metric("power_err_max_pct", power, "%");
    out.metric("area_err_max_pct", area, "%");
    Ok(())
}

/// `cli-oneshot`: one `mcpat <config.json>` process at a time, closed
/// loop, cycling through the seeded configs in a fresh seeded order per
/// round. Every stdout must equal the in-process cold report.
pub fn cli_oneshot(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let configs = gen::cli_configs(ctx.seed);
    let files = configs
        .iter()
        .map(|c| write_config(&ctx.work, c))
        .collect::<Result<Vec<_>, _>>()?;
    let expect = configs
        .iter()
        .map(|c| cold_report(c).map(|r| format!("{r}\n").into_bytes()))
        .collect::<Result<Vec<_>, _>>()?;

    let mut rng = Rng::new(ctx.seed, 10);
    let mut order: Vec<usize> = (0..configs.len()).collect();
    let (mut lat_ms, mut busy_s) = (Vec::new(), 0.0);
    let (mut cal_ms, mut setups, mut cpu_s) = (Vec::new(), Vec::new(), 0.0);
    let t0 = Instant::now();
    while keep_going(t0.elapsed(), ctx.seconds, lat_ms.len()) {
        let k = lat_ms.len() % order.len();
        if k == 0 {
            rng.shuffle(&mut order);
        }
        let i = order[k];
        let run = ctx.mcpat.run(&[&files[i]]).map_err(|e| e.to_string())?;
        let secs = run.secs;
        cpu_s += run.cpu_s;
        out.attempted += 1;
        if !run.success() || run.stdout != expect[i] {
            out.fail(format!(
                "`mcpat {}` output differs from the reference",
                files[i]
            ));
        }
        lat_ms.push(secs * 1e3);
        busy_s += secs;
        cal_ms.push(ctx.cal.run_ms().map_err(|e| e.to_string())?);
        setups.push(
            ctx.mcpat
                .validate_secs(&files[0])
                .map_err(|e| e.to_string())?,
        );
    }
    let m = Measured {
        ops: lat_ms.len() as u64,
        lat_ms,
        busy_s,
        cpu_s,
        maxrss_kib: ctx.mcpat.usage().map_err(|e| e.to_string())?.maxrss_kib,
        setup_s: stats::median(&setups),
        cal_ms,
    };
    finish(ctx, out, &m, "evaluation (spawn to exit)")
}

/// The `serve-mixed` request population, rendered once.
pub struct ServeInputs {
    pub targets: Vec<gen::ServeTarget>,
    /// Request line after the id: `,"config":{…}}` or `,"preset":"…"}`.
    pub bodies: Vec<String>,
    pub expect: Vec<WireExpect>,
}

impl ServeInputs {
    pub fn new(seed: u64) -> Result<ServeInputs, String> {
        let targets = gen::serve_targets(seed);
        let mut bodies = Vec::with_capacity(targets.len());
        let mut expect = Vec::with_capacity(targets.len());
        for t in &targets {
            bodies.push(match t.preset {
                Some(p) => format!(",\"preset\":\"{p}\"}}"),
                None => format!(
                    ",\"config\":{}}}",
                    serde_json::to_string(&t.config).map_err(|e| e.to_string())?
                ),
            });
            let report = cold_report(&t.config)?;
            expect.push(
                WireExpect::new(&report)
                    .ok_or_else(|| format!("{}: no Build line", t.config.name))?,
            );
        }
        Ok(ServeInputs {
            targets,
            bodies,
            expect,
        })
    }

    /// The request line for target `i` with correlation id `id`.
    pub fn request(&self, buf: &mut Vec<u8>, i: usize, id: u64) {
        buf.clear();
        let _ = writeln!(buf, "{{\"type\":\"evaluate\",\"id\":{id}{}", self.bodies[i]);
    }
}

/// What one drive of the daemon observed.
#[derive(Default)]
pub struct ServeDrive {
    /// (completion time on the load clock, round trip ms), in completion
    /// order over both connections. The load clock is wall time since the
    /// window opened minus the calibration pauses.
    pub done: Vec<(f64, f64)>,
    /// `perf.wall_ms` of every correct response.
    pub server_ms: Vec<f64>,
    /// Round trip minus `perf.wall_ms`: queueing, framing and socket time.
    pub wire_wait_ms: Vec<f64>,
    pub window_s: f64,
    pub cpu_s: f64,
    pub maxrss_kib: i64,
    pub setup_s: f64,
    /// The daemon's `stats` envelope, fetched after the window.
    pub stats: String,
    /// Calibration op latencies, run between load segments.
    pub cal_ms: Vec<f64>,
}

/// One closed-loop connection and what it has observed so far.
struct Client {
    conn: Conn,
    seq: ServeSequence,
    id: u64,
    done: Vec<(f64, f64)>,
    server_ms: Vec<f64>,
    wire_wait_ms: Vec<f64>,
    failures: Vec<String>,
}

impl Client {
    fn open(
        addr: std::net::SocketAddr,
        seed: u64,
        conn_idx: u64,
        targets: usize,
    ) -> std::io::Result<Client> {
        Ok(Client {
            conn: Conn::open(addr)?,
            seq: ServeSequence::new(seed, conn_idx, targets),
            id: 0,
            done: Vec::new(),
            server_ms: Vec::new(),
            wire_wait_ms: Vec::new(),
            failures: Vec::new(),
        })
    }

    /// Sends requests one at a time until the load clock `load()` reaches
    /// `until` or the run is over.
    fn drive(
        &mut self,
        inputs: &ServeInputs,
        load: impl Fn() -> Duration,
        until: Duration,
        seconds: f64,
        done: &AtomicUsize,
    ) -> std::io::Result<()> {
        let (mut buf, mut line) = (Vec::new(), String::new());
        while load() < until && keep_going(load(), seconds, done.load(Ordering::Relaxed)) {
            let i = self.seq.next().unwrap_or(0);
            self.id += 1;
            inputs.request(&mut buf, i, self.id);
            let t = Instant::now();
            self.conn.send(&buf)?;
            self.conn.recv(&mut line)?;
            let rtt = t.elapsed().as_secs_f64() * 1e3;
            self.done.push((load().as_secs_f64(), rtt));
            done.fetch_add(1, Ordering::Relaxed);
            match check::split_evaluate_response(&line, self.id) {
                Some(r) if inputs.expect[i].matches_escaped(r.report) => {
                    self.server_ms.push(r.wall_ms);
                    self.wire_wait_ms.push(rtt - r.wall_ms);
                }
                _ => self.failures.push(format!(
                    "response to {} differs from the reference: {:.200}",
                    inputs.targets[i].config.name, line
                )),
            }
        }
        Ok(())
    }
}

/// Spawns the daemon, drives it with [`SERVE_CONNECTIONS`] closed-loop
/// connections for `seconds` of load, in [`SEGMENT`]s with calibration
/// ops (and, with `time_setup`, one throwaway daemon spawn that only
/// times set-up) between them, fetches `stats` and shuts it down.
pub fn drive_serve(
    ctx: &Ctx,
    inputs: &ServeInputs,
    seconds: f64,
    time_setup: bool,
    out: &mut Outcome,
) -> Result<ServeDrive, String> {
    let io = |e: std::io::Error| e.to_string();
    let (daemon, s) = ctx.mcpat.spawn_daemon().map_err(io)?;
    let mut setups = vec![s];
    let mut clients = (0..SERVE_CONNECTIONS)
        .map(|c| Client::open(daemon.addr, ctx.seed, c, inputs.targets.len()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(io)?;
    let done = AtomicUsize::new(0);
    let (mut paused, mut cal_ms) = (Duration::ZERO, Vec::new());
    let t0 = Instant::now();
    // Load time: wall time since `t0` minus the calibration pauses.
    while keep_going(t0.elapsed() - paused, seconds, done.load(Ordering::Relaxed)) {
        let until = t0.elapsed() - paused + SEGMENT;
        let load = move || t0.elapsed() - paused;
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| {
                    let done = &done;
                    scope.spawn(move || c.drive(inputs, load, until, seconds, done))
                })
                .collect();
            handles.into_iter().try_for_each(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(std::io::Error::other("client panicked")))
            })
        })
        .map_err(io)?;
        let p0 = Instant::now();
        for _ in 0..CAL_PER_SEGMENT {
            cal_ms.push(ctx.cal.run_ms().map_err(io)?);
        }
        if time_setup {
            let (d, s) = ctx.mcpat.spawn_daemon().map_err(io)?;
            setups.push(s);
            d.shutdown().map_err(io)?;
        }
        paused += p0.elapsed();
    }
    let window_s = (t0.elapsed() - paused).as_secs_f64();
    let stats = Conn::open(daemon.addr)
        .and_then(|mut c| c.roundtrip("{\"type\":\"stats\"}"))
        .map_err(io)?;
    // VmHWM, not ru_maxrss: the daemon is spawned from the harness, whose
    // own peak RSS its ru_maxrss would include (see `sys::Spawner`).
    let maxrss_kib = daemon.peak_rss_kib().map_err(io)?;
    let mut drive = ServeDrive {
        window_s,
        cpu_s: daemon.cpu_s().map_err(io)?,
        maxrss_kib,
        setup_s: stats::median(&setups),
        stats,
        cal_ms,
        ..ServeDrive::default()
    };
    for c in clients {
        out.attempted += c.done.len() as u64;
        for f in c.failures {
            out.fail(f);
        }
        drive.done.extend(c.done);
        drive.server_ms.extend(c.server_ms);
        drive.wire_wait_ms.extend(c.wire_wait_ms);
    }
    drive.done.sort_by(|a, b| a.0.total_cmp(&b.0));
    daemon.shutdown().map_err(io)?;
    Ok(drive)
}

/// `serve-mixed`: a skewed population through one daemon, two
/// closed-loop connections.
pub fn serve_mixed(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let inputs = ServeInputs::new(ctx.seed)?;
    let d = drive_serve(ctx, &inputs, ctx.seconds, true, out)?;
    let m = Measured {
        ops: d.done.len() as u64,
        lat_ms: d.done.iter().map(|&(_, ms)| ms).collect(),
        busy_s: d.window_s,
        cpu_s: d.cpu_s,
        maxrss_kib: d.maxrss_kib,
        setup_s: d.setup_s,
        cal_ms: d.cal_ms,
    };
    finish(ctx, out, &m, "request (write to response line)")
}

/// Checks a finished sweep's frontier: every point's area and peak power
/// must be bit-equal to a from-scratch build of its configuration.
pub fn verify_frontier(grid: &mcpat::AxisGrid, checkpoint: &str) -> Result<usize, String> {
    let cp = DseCheckpoint::from_json(checkpoint).map_err(|e| e.to_string())?;
    if cp.cursor() != grid.total() || cp.perf().candidates != grid.total() {
        return Err(format!(
            "sweep stopped at {} of {}",
            cp.cursor(),
            grid.total()
        ));
    }
    let frontier = cp.frontier();
    if frontier.is_empty() {
        return Err("empty frontier".into());
    }
    for p in frontier.points() {
        let cfg = grid
            .config_at(p.cursor)
            .ok_or_else(|| format!("frontier cursor {} is off the grid", p.cursor))?;
        let chip = Processor::build(&cfg).map_err(|e| e.to_string())?;
        if p.name != cfg.name
            || chip.die_area().to_bits() != p.area.to_bits()
            || chip.peak_power().total().to_bits() != p.peak_power.to_bits()
        {
            return Err(format!(
                "frontier point {} differs from a full build",
                p.name
            ));
        }
    }
    Ok(frontier.len())
}

/// `dse-sweep`: one `mcpat dse` sweep process at a time, closed loop.
/// For latency an op is a whole sweep; for throughput and CPU it is a
/// candidate.
pub fn dse_sweep(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let first = gen::sweep_grid(ctx.seed, 0)
        .config_at(0)
        .ok_or("empty sweep grid")?;
    let setup_file = write_config(&ctx.work, &first)?;
    let out_path = ctx.work.join("frontier.json");
    let out_arg = out_path.to_string_lossy().into_owned();
    let (mut lat_ms, mut busy_s, mut candidates) = (Vec::new(), 0.0, 0u64);
    let (mut frontiers, mut cal_ms, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpu_s = 0.0;
    let t0 = Instant::now();
    let mut index = 0;
    while keep_going(t0.elapsed(), ctx.seconds, lat_ms.len()) {
        let grid = gen::sweep_grid(ctx.seed, index);
        index += 1;
        let spec = gen::axes_spec(&grid);
        let _ = std::fs::remove_file(&out_path);
        let run = ctx
            .mcpat
            .run(&["dse", "--axes", &spec, "--out", &out_arg])
            .map_err(|e| e.to_string())?;
        let secs = run.secs;
        cpu_s += run.cpu_s;
        lat_ms.push(secs * 1e3);
        busy_s += secs;
        candidates += grid.total();
        out.attempted += grid.total();
        // Frontiers are kept and checked after the window, so no
        // reference build competes with the sweeps for the CPUs.
        frontiers.push(if run.success() {
            std::fs::read_to_string(&out_path).map_err(|e| e.to_string())
        } else {
            Err(format!("exit code {:?}", run.code))
        });
        cal_ms.push(ctx.cal.run_ms().map_err(|e| e.to_string())?);
        setups.push(
            ctx.mcpat
                .validate_secs(&setup_file)
                .map_err(|e| e.to_string())?,
        );
    }
    for (i, frontier) in (0..).zip(frontiers) {
        let grid = gen::sweep_grid(ctx.seed, i);
        if let Err(e) = frontier.and_then(|text| verify_frontier(&grid, &text)) {
            out.failed += grid.total() - 1;
            out.fail(format!("sweep {}: {e}", gen::axes_spec(&grid)));
        }
    }
    let m = Measured {
        lat_ms,
        ops: candidates,
        busy_s,
        cpu_s,
        maxrss_kib: ctx.mcpat.usage().map_err(|e| e.to_string())?.maxrss_kib,
        setup_s: stats::median(&setups),
        cal_ms,
    };
    out.note(format!(
        "{index} sweeps of {} candidates",
        gen::SWEEP_CANDIDATES
    ));
    finish(ctx, out, &m, "sweep (spawn to exit)")
}
