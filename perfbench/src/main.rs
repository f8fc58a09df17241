//! Workload benchmark for mcpat-rs.
//!
//! ```text
//! perfbench --mcpat <path to release mcpat> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs against the `mcpat` binary as a
//! user runs it and the end-to-end metrics are reported; with `--trace 1`
//! the same seeded inputs are replayed in-process and the per-layer
//! metrics are reported. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod calib;
mod check;
mod e2e;
mod gen;
mod layers;
mod stats;
mod sys;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;

/// Counts heap allocations while a traced pass runs (see
/// [`layers::COUNTING`]); otherwise one relaxed load on top of `System`.
struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; the counter
// update has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    if layers::COUNTING.load(Ordering::Relaxed) {
        layers::ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CliOneshot,
    ServeMixed,
    DseSweep,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::CliOneshot,
        Workload::ServeMixed,
        Workload::DseSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CliOneshot => "cli-oneshot",
            Workload::ServeMixed => "serve-mixed",
            Workload::DseSweep => "dse-sweep",
        }
    }
}

/// What every workload needs.
pub struct Ctx {
    pub mcpat: sys::Mcpat,
    pub cal: calib::Calibrator,
    pub seed: u64,
    pub seconds: f64,
    /// Scratch files of this run (removed at the end).
    pub work: PathBuf,
    /// Where results and span dumps are kept.
    pub work_root: PathBuf,
}

/// Ops, failures and metrics of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Raw figures in host units: printed and recorded, not in the result
    /// line, so not gated.
    raw: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn raw(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.raw.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one failed op; the first few messages are kept.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

struct Args {
    mcpat: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| {
            format!("unknown workload `{workload}` (cli-oneshot, serve-mixed, dse-sweep)")
        })?;
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        mcpat: PathBuf::from(get("--mcpat")?),
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// Host label for results: CPU count, architecture and OS. Numbers from
/// hosts with different labels are never compared.
fn host() -> (String, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let label = format!(
        "{nproc}cpu-{}-{}",
        std::env::consts::ARCH,
        std::env::consts::OS
    );
    (label, nproc)
}

fn json_result(o: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, value, unit) in &o.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    ))
}

fn run() -> Result<String, String> {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag] = argv.as_slice() {
        if flag == "--calibrate" {
            calib::calibrate_main();
            return Ok(String::new());
        }
    }
    if let [_, flag, mcpat] = argv.as_slice() {
        if flag == "--spawner" {
            sys::spawner_main(std::path::Path::new(mcpat)).map_err(|e| e.to_string())?;
            return Ok(String::new());
        }
    }
    let args = parse_args()?;
    if !args.mcpat.is_file() {
        return Err(format!(
            "mcpat binary not found at {}",
            args.mcpat.display()
        ));
    }
    let work_root = PathBuf::from(".perfbench");
    let work = work_root.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        mcpat: sys::Mcpat::new(args.mcpat).map_err(|e| format!("cannot start the spawner: {e}"))?,
        cal: calib::Calibrator::new()
            .map_err(|e| format!("cannot start the calibration spawner: {e}"))?,
        seed: args.seed,
        seconds: args.seconds,
        work,
        work_root,
    };
    let (label, nproc) = host();
    let mut out = Outcome::default();
    let result = match (args.trace, args.workload) {
        (true, w) => layers::traced_run(&ctx, w, &mut out),
        (false, Workload::CliOneshot) => e2e::cli_oneshot(&ctx, &mut out),
        (false, Workload::ServeMixed) => e2e::serve_mixed(&ctx, &mut out),
        (false, Workload::DseSweep) => e2e::dse_sweep(&ctx, &mut out),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    result?;

    println!(
        "perfbench {} seed={} seconds={} trace={} host={label} nproc={nproc}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    println!("  ops: {} attempted, {} failed", out.attempted, out.failed);
    let mut record = Vec::new();
    let gated = out.metrics.iter().map(|m| (m, true));
    for (&(name, value, unit), gated) in gated.chain(out.raw.iter().map(|m| (m, false))) {
        let tag = if gated { "" } else { " raw, not gated" };
        println!("  {name:<30} {value:>14.6} {unit:<9} [{label}, nproc {nproc}]{tag}");
        record.push(format!(
            "    {{\"name\": \"{name}\", \"value\": {value}, \"unit\": \"{unit}\", \"gated\": {gated}, \"host\": \"{label}\", \"nproc\": {nproc}}}"
        ));
    }
    let results = ctx.work_root.join("results");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let file = results.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\n  \"workload\": \"{}\", \"seed\": {}, \"host\": \"{label}\", \"nproc\": {nproc},\n  \"attempted\": {}, \"failed\": {},\n  \"metrics\": [\n{}\n  ]\n}}\n",
        args.workload.name(),
        args.seed,
        out.attempted,
        out.failed,
        record.join(",\n")
    );
    std::fs::write(&file, body).map_err(|e| format!("cannot write {}: {e}", file.display()))?;
    json_result(&out)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            if !line.is_empty() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_forced_report_mismatch_counts_as_a_failed_op() {
        // The one-shot check: stdout must equal the reference byte for byte.
        let cfg = gen::preset("niagara");
        let reference = format!("{}\n", e2e::cold_report(&cfg).expect("builds"));
        let mut out = Outcome::default();
        for stdout in [
            reference.clone(),
            reference.replacen("Peak power: ", "Peak power: 9", 1),
        ] {
            out.attempted += 1;
            if stdout != reference {
                out.fail("mismatch".into());
            }
        }
        assert_eq!((out.attempted, out.failed), (2, 1));
        let line = json_result(&out).expect("finite metrics");
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"),
            "{line}"
        );
    }

    #[test]
    fn a_forced_frontier_mismatch_is_detected() {
        let grid = gen::sweep_grid(9, 0);
        let result = mcpat::dse(
            &grid,
            &mcpat::DseOptions::default(),
            &mut mcpat::WorkloadModel::default(),
        )
        .expect("sweep runs");
        let json = result
            .final_checkpoint(&grid)
            .to_json()
            .expect("serializes");
        assert!(e2e::verify_frontier(&grid, &json).is_ok());
        let mut other = grid.clone();
        other.clocks_hz[0] *= 1.01;
        other.clocks_hz.iter_mut().skip(1).for_each(|c| *c *= 1.01);
        assert!(e2e::verify_frontier(&other, &json).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metric("latency_p50_cal", 1.25, "cal");
        let line = json_result(&out).expect("finite");
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_map()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        out.metric("bad", f64::NAN, "ms");
        assert!(json_result(&out).is_err());
    }
}
