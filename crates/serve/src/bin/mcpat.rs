//! The `mcpat` command-line front-end — the analog of the original
//! McPAT executable, with JSON instead of XML as the interface format.
//!
//! ```text
//! mcpat --preset niagara                 # model a built-in preset
//! mcpat --preset niagara --floorplan     # + ASCII floorplan sketch
//! mcpat --preset niagara --emit-config   # dump its JSON config template
//! mcpat --preset niagara --validate      # diagnostics only, no build
//! mcpat chip.json                        # model a JSON configuration
//! mcpat chip.json --stats stats.json     # + runtime power from stats
//! mcpat --preset tulsa --trace t.json    # + JSON build trace (spans)
//! mcpat serve --listen 127.0.0.1:9439    # long-running evaluation daemon
//! ```
//!
//! Exit codes: 0 success, 2 usage error, 3 invalid configuration,
//! 4 infeasible model (an array could not be solved), 5 budget
//! exceeded (`--deadline-ms` elapsed or the build was cancelled).

use mcpat::{
    AxisGrid, ChipStats, DseCheckpoint, DseOptions, Metric, Processor, ProcessorConfig,
    WorkloadModel,
};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

/// A classified CLI failure; the variant picks the exit code.
enum CliError {
    /// Bad invocation: unknown flag, missing operand, no config. Exit 2.
    Usage(String),
    /// The configuration is unreadable, malformed, or fails
    /// validation. Exit 3.
    InvalidConfig(String),
    /// The configuration is well-formed but no feasible model exists
    /// (the array solver exhausted its relaxation ladder). Exit 4.
    Infeasible(String),
    /// The build tripped a resource budget: `--deadline-ms` elapsed or
    /// a `--cancel-on-signal` signal arrived. Exit 5.
    Budget(String),
    /// The reader closed stdout early (`mcpat … | head -1`). Nobody is
    /// left to read a message, so this exits 0 quietly.
    Closed,
}

impl From<std::io::Error> for CliError {
    /// Classifies a failed write to stdout.
    fn from(e: std::io::Error) -> CliError {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            CliError::Closed
        } else {
            CliError::InvalidConfig(format!("cannot write to stdout: {e}"))
        }
    }
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::from(2),
            CliError::InvalidConfig(_) => ExitCode::from(3),
            CliError::Infeasible(_) => ExitCode::from(4),
            CliError::Budget(_) => ExitCode::from(5),
            CliError::Closed => ExitCode::SUCCESS,
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::InvalidConfig(m)
            | CliError::Infeasible(m)
            | CliError::Budget(m) => m,
            CliError::Closed => "",
        }
    }
}

/// Minimal SIGINT/SIGTERM hook for `--cancel-on-signal`: instead of the
/// default process kill, a signal flips every live budget's cancel flag
/// so the in-flight build unwinds through its checkpoints and exits
/// with the typed budget error (exit 5) and no partial report.
#[cfg(unix)]
mod sig {
    /// C `sighandler_t` shape (`void (*)(int)`).
    type Handler = extern "C" fn(i32);
    extern "C" {
        // From libc, which every `*-linux-gnu`/`*-apple-*` binary
        // already links; declared directly to avoid a dependency.
        fn signal(signum: i32, handler: Handler) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" fn on_signal(_sig: i32) {
        // A single atomic fetch-add: async-signal-safe.
        mcpat::guard::cancel_all();
    }
    pub fn install() {
        // SAFETY: `signal` with a non-returning-into-Rust, async-signal-
        // safe handler function pointer is the documented C contract.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
    extern "C" fn on_drain_signal(_sig: i32) {
        // A single atomic store: async-signal-safe. Drain — finish
        // in-flight requests — rather than cancel them.
        mcpat_serve::request_drain();
    }
    pub fn install_drain() {
        // SAFETY: as for `install` — async-signal-safe handler.
        unsafe {
            signal(SIGINT, on_drain_signal);
            signal(SIGTERM, on_drain_signal);
        }
    }
}

use mcpat_serve::preset;

fn usage() -> &'static str {
    "usage: mcpat [--preset <niagara|niagara2|alpha21364|tulsa>] [options]\n\
     \x20      mcpat <config.json> [options]\n\
     \x20      mcpat dse --axes <spec> [options]   (see `mcpat dse --help`)\n\
     \x20      mcpat serve --listen <addr> [options]  (see `mcpat serve --help`)\n\
     \n\
     options:\n\
     \x20 --stats <file>   evaluate runtime power from a mcpat::ChipStats JSON file\n\
     \x20 --validate       print every validation diagnostic, do not build\n\
     \x20 --emit-config    dump the configuration as a JSON template and exit\n\
     \x20 --floorplan      append an ASCII floorplan sketch to the report\n\
     \x20 --trace <file>   enable build tracing and write the span trace as JSON\n\
     \x20 --deadline-ms <n> abort the build if it runs longer than n milliseconds\n\
     \x20 --cancel-on-signal  SIGINT/SIGTERM cancels the build cooperatively\n\
     \n\
     Models the configured processor and prints the power/area/timing\n\
     report. Exit codes: 0 success, 2 usage error, 3 invalid\n\
     configuration, 4 infeasible model, 5 budget exceeded (deadline\n\
     elapsed or cancelled)."
}

/// Classifies a build/sweep error into the CLI's typed exit codes.
fn classify(e: mcpat::McpatError) -> CliError {
    if e.guard_error().is_some() {
        return CliError::Budget(e.to_string());
    }
    match e {
        mcpat::McpatError::Invalid(_) => CliError::InvalidConfig(e.to_string()),
        mcpat::McpatError::Array(_) | mcpat::McpatError::Budget(_) => {
            CliError::Infeasible(e.to_string())
        }
    }
}

fn dse_usage() -> &'static str {
    "usage: mcpat dse --axes <spec> [options]\n\
     \n\
     axes spec (semicolon-separated, all five required):\n\
     \x20 nodes=45,32            tech nodes, nm\n\
     \x20 flavors=hp,lstp,lop    device flavors\n\
     \x20 cores=2,4,8            core counts\n\
     \x20 l2=512K,1M,2M          L2 capacity per cluster (K/M suffixes)\n\
     \x20 clocks=1e9:3e9:100     clock linspace lo:hi:count, or a comma list in Hz\n\
     \n\
     options:\n\
     \x20 --chunk <n>            candidates per streamed batch (default 256)\n\
     \x20 --checkpoint <file>    write a resumable checkpoint to <file> periodically\n\
     \x20 --checkpoint-every <n> checkpoint cadence in candidates (default 4096)\n\
     \x20 --resume <file>        resume from a checkpoint written by --checkpoint\n\
     \x20 --out <file>           write the final frontier as checkpoint JSON\n\
     \x20 --max-area <m2>        reject candidates over this die area\n\
     \x20 --max-peak-power <w>   reject candidates over this peak power\n\
     \x20 --no-prune             build every candidate (disable lower-bound pruning)\n\
     \x20 --deadline-ms <n>      abort the sweep after n milliseconds (resumable)\n\
     \x20 --cancel-on-signal     SIGINT/SIGTERM cancels the sweep cooperatively\n\
     \n\
     Streams the cross product of the axes through delta rebuilds and an\n\
     incremental Pareto frontier; memory stays O(frontier + chunk)."
}

/// Parses a comma-separated list with a per-item parser.
fn parse_list<T>(
    field: &str,
    text: &str,
    mut one: impl FnMut(&str) -> Result<T, String>,
) -> Result<Vec<T>, CliError> {
    text.split(',')
        .map(|s| one(s.trim()).map_err(|e| CliError::Usage(format!("--axes {field}: {e}"))))
        .collect()
}

/// Parses a byte count with an optional K/M suffix (powers of two).
fn parse_bytes(text: &str) -> Result<u64, String> {
    let (digits, shift) = if let Some(d) = text.strip_suffix(['K', 'k']) {
        (d, 10)
    } else if let Some(d) = text.strip_suffix(['M', 'm']) {
        (d, 20)
    } else {
        (text, 0)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("`{text}` is not a byte count (e.g. 512K, 2M)"))?;
    Ok(n << shift)
}

/// Parses the clock axis: either `lo:hi:count` (inclusive linspace) or a
/// comma-separated list of frequencies in Hz.
fn parse_clocks(text: &str) -> Result<Vec<f64>, CliError> {
    let parts: Vec<&str> = text.split(':').collect();
    if let [lo, hi, count] = parts.as_slice() {
        let lo: f64 = lo
            .trim()
            .parse()
            .map_err(|_| CliError::Usage(format!("--axes clocks: `{lo}` is not a frequency")))?;
        let hi: f64 = hi
            .trim()
            .parse()
            .map_err(|_| CliError::Usage(format!("--axes clocks: `{hi}` is not a frequency")))?;
        let count: usize = count.trim().parse().map_err(|_| {
            CliError::Usage(format!("--axes clocks: `{count}` is not a point count"))
        })?;
        if count == 0 {
            return Err(CliError::Usage("--axes clocks: count must be > 0".into()));
        }
        if count == 1 {
            return Ok(vec![lo]);
        }
        let step = (hi - lo) / (count - 1) as f64;
        return Ok((0..count).map(|i| lo + step * i as f64).collect());
    }
    parse_list("clocks", text, |s| {
        s.parse::<f64>()
            .map_err(|_| format!("`{s}` is not a frequency in Hz"))
    })
}

/// Parses the full `--axes` spec into a grid.
fn parse_axes(spec: &str) -> Result<AxisGrid, CliError> {
    let mut nodes = None;
    let mut flavors = None;
    let mut cores = None;
    let mut l2 = None;
    let mut clocks = None;
    for field in spec.split(';') {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let (key, value) = field
            .split_once('=')
            .ok_or_else(|| CliError::Usage(format!("--axes: `{field}` is not key=value")))?;
        match key.trim() {
            "nodes" => {
                nodes = Some(parse_list("nodes", value, |s| match s {
                    "180" => Ok(mcpat::tech::TechNode::N180),
                    "90" => Ok(mcpat::tech::TechNode::N90),
                    "65" => Ok(mcpat::tech::TechNode::N65),
                    "45" => Ok(mcpat::tech::TechNode::N45),
                    "32" => Ok(mcpat::tech::TechNode::N32),
                    "22" => Ok(mcpat::tech::TechNode::N22),
                    other => Err(format!("unknown node `{other}` (180/90/65/45/32/22)")),
                })?);
            }
            "flavors" => {
                flavors = Some(parse_list("flavors", value, |s| {
                    match s.to_ascii_lowercase().as_str() {
                        "hp" => Ok(mcpat::tech::DeviceType::Hp),
                        "lstp" => Ok(mcpat::tech::DeviceType::Lstp),
                        "lop" => Ok(mcpat::tech::DeviceType::Lop),
                        other => Err(format!("unknown flavor `{other}` (hp/lstp/lop)")),
                    }
                })?);
            }
            "cores" => {
                cores = Some(parse_list("cores", value, |s| {
                    s.parse::<u32>()
                        .map_err(|_| format!("`{s}` is not a count"))
                })?);
            }
            "l2" => {
                l2 = Some(parse_list("l2", value, parse_bytes)?);
            }
            "clocks" => {
                clocks = Some(parse_clocks(value)?);
            }
            other => {
                return Err(CliError::Usage(format!("--axes: unknown axis `{other}`")));
            }
        }
    }
    let missing = |what: &str| CliError::Usage(format!("--axes: missing `{what}=` axis"));
    Ok(AxisGrid::manycore(
        nodes.ok_or_else(|| missing("nodes"))?,
        flavors.ok_or_else(|| missing("flavors"))?,
        cores.ok_or_else(|| missing("cores"))?,
        l2.ok_or_else(|| missing("l2"))?,
        clocks.ok_or_else(|| missing("clocks"))?,
    ))
}

/// Writes checkpoint JSON atomically (tmp file + rename), so a sweep
/// killed mid-write never leaves a truncated checkpoint behind.
fn write_checkpoint(path: &str, cp: &DseCheckpoint) -> Result<(), CliError> {
    let json = cp
        .to_json()
        .map_err(|e| CliError::InvalidConfig(e.to_string()))?;
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, json)
        .map_err(|e| CliError::InvalidConfig(format!("cannot write `{tmp}`: {e}")))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| CliError::InvalidConfig(format!("cannot rename `{tmp}`: {e}")))?;
    Ok(())
}

/// The `mcpat dse` subcommand: a streaming design-space sweep.
fn run_dse(args: &[String]) -> Result<(), CliError> {
    if matches!(
        args.first().map(String::as_str),
        None | Some("--help" | "-h")
    ) {
        writeln!(std::io::stdout().lock(), "{}", dse_usage())?;
        return Ok(());
    }
    let mut grid: Option<AxisGrid> = None;
    let mut opts = DseOptions {
        checkpoint_every: 4096,
        ..DseOptions::default()
    };
    let mut checkpoint_path: Option<String> = None;
    let mut resume_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut cancel_on_signal = false;
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        let value = |name: &str| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--axes" => {
                grid = Some(parse_axes(&value("--axes")?)?);
                i += 2;
            }
            "--chunk" => {
                let v = value("--chunk")?;
                opts.chunk = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--chunk: `{v}` is not a number")))?;
                i += 2;
            }
            "--checkpoint" => {
                checkpoint_path = Some(value("--checkpoint")?);
                i += 2;
            }
            "--checkpoint-every" => {
                let v = value("--checkpoint-every")?;
                opts.checkpoint_every = v.parse().map_err(|_| {
                    CliError::Usage(format!("--checkpoint-every: `{v}` is not a number"))
                })?;
                i += 2;
            }
            "--resume" => {
                resume_path = Some(value("--resume")?);
                i += 2;
            }
            "--out" => {
                out_path = Some(value("--out")?);
                i += 2;
            }
            "--max-area" => {
                let v = value("--max-area")?;
                opts.budgets.max_area = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("--max-area: `{v}` is not a number")))?;
                i += 2;
            }
            "--max-peak-power" => {
                let v = value("--max-peak-power")?;
                opts.budgets.max_peak_power = v.parse().map_err(|_| {
                    CliError::Usage(format!("--max-peak-power: `{v}` is not a number"))
                })?;
                i += 2;
            }
            "--no-prune" => {
                opts.prune = false;
                i += 1;
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                deadline_ms = Some(v.parse().map_err(|_| {
                    CliError::Usage(format!("--deadline-ms: `{v}` is not a number"))
                })?);
                i += 2;
            }
            "--cancel-on-signal" => {
                cancel_on_signal = true;
                i += 1;
            }
            flag => {
                return Err(CliError::Usage(format!(
                    "dse: unknown argument `{flag}`\n{}",
                    dse_usage()
                )));
            }
        }
    }
    let grid =
        grid.ok_or_else(|| CliError::Usage(format!("dse: --axes is required\n{}", dse_usage())))?;
    let resume = resume_path
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::InvalidConfig(format!("cannot read `{path}`: {e}")))?;
            DseCheckpoint::from_json(&text).map_err(|e| CliError::InvalidConfig(e.to_string()))
        })
        .transpose()?;

    #[cfg(unix)]
    if cancel_on_signal {
        sig::install();
    }
    #[cfg(not(unix))]
    let _ = cancel_on_signal;
    let budget = match deadline_ms {
        Some(ms) => Some(mcpat::guard::Budget::with_deadline(Duration::from_millis(
            ms,
        ))),
        None if cancel_on_signal => Some(mcpat::guard::Budget::unbounded()),
        None => None,
    };
    let _budget_scope = budget.as_ref().map(mcpat::guard::Budget::enter);

    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "dse: {} candidates ({} nodes x {} flavors x {} core counts x {} L2 sizes x {} clocks){}",
        grid.total(),
        grid.nodes.len(),
        grid.device_types.len(),
        grid.core_counts.len(),
        grid.l2_bytes.len(),
        grid.clocks_hz.len(),
        resume
            .as_ref()
            .map(|cp| format!(", resuming at cursor {}", cp.cursor()))
            .unwrap_or_default(),
    )?;
    let mut evaluator = WorkloadModel::default();
    let checkpoint_sink = |cp: &DseCheckpoint| -> Result<(), mcpat::McpatError> {
        if let Some(path) = &checkpoint_path {
            write_checkpoint(path, cp)
                .map_err(|e| mcpat::McpatError::config("dse.checkpoint", e.message().to_owned()))?;
        }
        Ok(())
    };
    let result = mcpat::dse_streaming(
        &grid,
        &opts,
        &mut evaluator,
        resume.as_ref(),
        checkpoint_sink,
    )
    .map_err(|e| {
        let e = classify(e);
        if let (CliError::Budget(_), Some(path)) = (&e, &checkpoint_path) {
            eprintln!("mcpat: sweep interrupted; resume with --resume {path}");
        }
        e
    })?;
    // The frontier file goes first, so a reader that stops listening
    // early (`| head -1`) still gets it.
    if let Some(path) = &out_path {
        write_checkpoint(path, &result.final_checkpoint(&grid))?;
    }

    writeln!(
        out,
        "dse: frontier {} / offered {} (pruned {}, rejected {}, deduped {})",
        result.frontier.len(),
        result.frontier.offered(),
        result.perf.pruned,
        result.perf.rejected,
        result.perf.deduped,
    )?;
    writeln!(
        out,
        "dse: builds: {} probes, {} cache rebuilds, {} full",
        result.perf.probes, result.perf.cache_rebuilds, result.perf.full_builds,
    )?;
    for metric in Metric::ALL {
        if let Some(best) = result.frontier.best(metric) {
            writeln!(
                out,
                "  best {:<6} {}  (delay {:.3e} s, energy {:.3e} J, area {:.1} mm2, peak {:.1} W)",
                format!("{metric:?}"),
                best.name,
                best.metrics.delay,
                best.metrics.energy,
                best.area * 1e6,
                best.peak_power,
            )?;
        }
    }
    if let Some(path) = &out_path {
        writeln!(out, "dse: frontier written to {path}")?;
    }
    Ok(())
}

fn serve_usage() -> &'static str {
    "usage: mcpat serve --listen <host:port> [options]\n\
     \n\
     options:\n\
     \x20 --listen <addr>     address to listen on (e.g. 127.0.0.1:9439; port 0\n\
     \x20                     binds an ephemeral port, printed at startup)\n\
     \x20 --max-inflight <n>  concurrent evaluation cap; further requests get a\n\
     \x20                     typed `Overloaded` rejection (0 = unbounded;\n\
     \x20                     default: the MCPAT_SERVE_MAX_INFLIGHT knob)\n\
     \n\
     Runs a long-lived evaluation daemon over a line-delimited JSON\n\
     protocol: one request per line, one response line each. The solve\n\
     cache and worker pool are shared across requests; each request is\n\
     billed and budgeted separately (see DESIGN.md §13). SIGTERM/SIGINT\n\
     drain in-flight requests and exit cleanly."
}

/// The `mcpat serve` subcommand: the long-running evaluation daemon.
fn run_serve(args: &[String]) -> Result<(), CliError> {
    if matches!(args.first().map(String::as_str), Some("--help" | "-h")) {
        writeln!(std::io::stdout().lock(), "{}", serve_usage())?;
        return Ok(());
    }
    let mut listen: Option<String> = None;
    let mut opts = mcpat_serve::ServeOptions::default();
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        let value = |name: &str| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--listen" => {
                listen = Some(value("--listen")?);
                i += 2;
            }
            "--max-inflight" => {
                let v = value("--max-inflight")?;
                opts.max_inflight = v.parse().map_err(|_| {
                    CliError::Usage(format!("--max-inflight: `{v}` is not a number"))
                })?;
                i += 2;
            }
            flag => {
                return Err(CliError::Usage(format!(
                    "serve: unknown argument `{flag}`\n{}",
                    serve_usage()
                )));
            }
        }
    }
    let listen = listen.ok_or_else(|| {
        CliError::Usage(format!("serve: --listen is required\n{}", serve_usage()))
    })?;
    let server = mcpat_serve::Server::bind(&listen, &opts)
        .map_err(|e| CliError::InvalidConfig(format!("cannot listen on `{listen}`: {e}")))?;
    #[cfg(unix)]
    sig::install_drain();
    {
        let mut out = std::io::stdout().lock();
        writeln!(out, "serve: listening on {}", server.local_addr())?;
        out.flush()?;
    }
    server
        .run()
        .map_err(|e| CliError::InvalidConfig(format!("serve: {e}")))?;
    writeln!(std::io::stdout().lock(), "serve: drained, exiting")?;
    Ok(())
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    if matches!(first, None | Some("--help" | "-h")) {
        writeln!(std::io::stdout().lock(), "{}", usage())?;
        return Ok(());
    }
    if first == Some("dse") {
        return run_dse(args.get(1..).unwrap_or_default());
    }
    if first == Some("serve") {
        return run_serve(args.get(1..).unwrap_or_default());
    }

    let mut emit_config = false;
    let mut validate_only = false;
    let mut show_floorplan = false;
    let mut trace_path: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut cancel_on_signal = false;
    let mut config: Option<ProcessorConfig> = None;
    let mut stats: Option<ChipStats> = None;
    let mut i = 0;
    while let Some(arg) = args.get(i) {
        match arg.as_str() {
            "--preset" => {
                let name = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--preset needs a name".into()))?;
                config = Some(
                    preset(name)
                        .ok_or_else(|| CliError::Usage(format!("unknown preset `{name}`")))?,
                );
                i += 2;
            }
            "--stats" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--stats needs a file path".into()))?;
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::InvalidConfig(format!("cannot read `{path}`: {e}")))?;
                stats = Some(serde_json::from_str(&text).map_err(|e| {
                    CliError::InvalidConfig(format!("`{path}` is not a valid stats file: {e}"))
                })?);
                i += 2;
            }
            "--emit-config" => {
                emit_config = true;
                i += 1;
            }
            "--validate" => {
                validate_only = true;
                i += 1;
            }
            "--floorplan" => {
                show_floorplan = true;
                i += 1;
            }
            "--trace" => {
                let path = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--trace needs a file path".into()))?;
                trace_path = Some(path.clone());
                i += 2;
            }
            "--deadline-ms" => {
                let ms = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--deadline-ms needs a number".into()))?;
                deadline_ms = Some(ms.parse().map_err(|_| {
                    CliError::Usage(format!("--deadline-ms: `{ms}` is not a number"))
                })?);
                i += 2;
            }
            "--cancel-on-signal" => {
                cancel_on_signal = true;
                i += 1;
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!(
                    "unknown flag `{flag}`\n{}",
                    usage()
                )));
            }
            path => {
                if config.is_some() {
                    return Err(CliError::Usage(format!(
                        "unexpected operand `{path}` (use --stats <file> for a stats file)\n{}",
                        usage()
                    )));
                }
                let text = std::fs::read_to_string(path)
                    .map_err(|e| CliError::InvalidConfig(format!("cannot read `{path}`: {e}")))?;
                config = Some(serde_json::from_str(&text).map_err(|e| {
                    CliError::InvalidConfig(format!("`{path}` is not a valid config: {e}"))
                })?);
                i += 1;
            }
        }
    }

    let config =
        config.ok_or_else(|| CliError::Usage(format!("no configuration given\n{}", usage())))?;
    let mut out = std::io::stdout().lock();
    if emit_config {
        let json = serde_json::to_string_pretty(&config)
            .map_err(|e| CliError::InvalidConfig(format!("serialization failed: {e}")))?;
        writeln!(out, "{json}")?;
        return Ok(());
    }

    if validate_only {
        let diags = config.validate();
        if diags.is_empty() {
            writeln!(out, "{}: configuration is valid", config.name)?;
            return Ok(());
        }
        writeln!(
            out,
            "{}: {} finding{} ({} error{}):",
            config.name,
            diags.len(),
            if diags.len() == 1 { "" } else { "s" },
            diags.error_count(),
            if diags.error_count() == 1 { "" } else { "s" },
        )?;
        writeln!(out, "{diags}")?;
        if diags.has_errors() {
            return Err(CliError::InvalidConfig(
                "configuration failed validation".into(),
            ));
        }
        return Ok(());
    }

    if trace_path.is_some() {
        mcpat::obs::set_tracing(true);
    }
    #[cfg(unix)]
    if cancel_on_signal {
        sig::install();
    }
    #[cfg(not(unix))]
    let _ = cancel_on_signal;
    // A budget scope is opened whenever either governance flag is set:
    // a plain `--cancel-on-signal` run gets an unbounded budget that a
    // signal can cancel.
    let budget = match deadline_ms {
        Some(ms) => Some(mcpat::guard::Budget::with_deadline(Duration::from_millis(
            ms,
        ))),
        None if cancel_on_signal => Some(mcpat::guard::Budget::unbounded()),
        None => None,
    };
    let _budget_scope = budget.as_ref().map(mcpat::guard::Budget::enter);
    let chip = Processor::build(&config).map_err(|e| {
        if e.guard_error().is_some() {
            CliError::Budget(e.to_string())
        } else {
            match e {
                mcpat::McpatError::Invalid(_) => CliError::InvalidConfig(e.to_string()),
                mcpat::McpatError::Array(_) | mcpat::McpatError::Budget(_) => {
                    CliError::Infeasible(e.to_string())
                }
            }
        }
    })?;
    if let Some(path) = &trace_path {
        let json = chip
            .trace
            .as_ref()
            .map_or_else(|| mcpat::obs::Trace::default().to_json(), |t| t.to_json());
        std::fs::write(path, json)
            .map_err(|e| CliError::InvalidConfig(format!("cannot write `{path}`: {e}")))?;
    }
    writeln!(out, "{}", chip.report())?;
    if show_floorplan {
        writeln!(out, "Floorplan:")?;
        writeln!(out, "{}", chip.floorplan_sketch())?;
    }

    if let Some(stats) = stats {
        let p = chip.runtime_power(&stats);
        writeln!(
            out,
            "Runtime power over {:.3e} s: {:.2} W",
            stats.duration_s,
            p.total()
        )?;
        for item in &p.items {
            writeln!(
                out,
                "  {:<12} {:>7.2} W (dyn {:>6.2}, leak {:>6.2})",
                item.name,
                item.total(),
                item.dynamic,
                item.leakage.total()
            )?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Closed) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mcpat: {}", e.message());
            e.exit_code()
        }
    }
}
