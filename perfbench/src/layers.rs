//! The traced run: replays a workload's seeded inputs in-process and
//! times calls into each layer's public functions. Spans and allocation
//! counts are taken here, around the calls, not inside the program.

use crate::check::{self, WireExpect};
use crate::e2e::{self, cold_report, ServeInputs};
use crate::gen;
use crate::stats::median;
use crate::{Ctx, Outcome, Workload};
use mcpat::array::cache::{AccessMode, CacheSpec};
use mcpat::array::{memo, ArraySpec, OptTarget};
use mcpat::circuit::repeater::RepeaterInvariants;
use mcpat::interconnect::NocConfig;
use mcpat::mcore::exu::{FuKind, FunctionalUnit};
use mcpat::mcore::CoreModel;
use mcpat::par::pool::{self, PoolStats};
use mcpat::tech::{TechParams, WireType};
use mcpat::uncore::{ClockNetwork, MemCtrl, OffChipIo};
use mcpat::{
    AxisGrid, Delta, DseEvaluator, DseOptions, DsePerf, FrontierPoint, ParetoFrontier, Processor,
    ProcessorConfig, WorkloadModel,
};
use mcpat_serve::proto;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Set while a traced pass runs; the global allocator counts only then.
pub static COUNTING: AtomicBool = AtomicBool::new(false);
/// Heap allocations (alloc, alloc_zeroed, realloc) on every thread while
/// [`COUNTING`] is set.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// One timed call: name, start and end (ns since the run began), the
/// enclosing span, the op (config, request or candidate) it served, and
/// the allocations made while it ran.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
    pub allocs: u64,
}

impl Span {
    fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// In-memory span recorder; written out once when the run ends.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside span `name`; a plain call while tracing is off.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
            allocs: 0,
        });
        self.stack.push(idx);
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let out = f(self);
        let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
        self.stack.pop();
        let end_ns = self.now_ns();
        let s = &mut self.spans[idx as usize];
        s.end_ns = end_ns;
        s.allocs = allocs;
        out
    }

    fn set_on(&mut self, on: bool) {
        self.on = on;
        COUNTING.store(on, Ordering::SeqCst);
    }

    fn of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Median duration of spans `name`, in `unit_ns` units (0 if none).
    fn median_dur(&self, name: &str, unit_ns: f64) -> f64 {
        let d: Vec<f64> = self.of(name).map(|s| s.ns() / unit_ns).collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    fn median_allocs(&self, name: &str) -> f64 {
        let d: Vec<f64> = self.of(name).map(|s| s.allocs as f64).collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// Self time per span name, ns: each span minus its children.
    fn self_ns_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += s.ns() - c;
        }
        out
    }

    /// The spans as JSON, one object per line.
    fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"allocs\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                s.allocs,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

/// The storage arrays behind a cache, as `CacheSpec::solve` shapes them.
fn cache_array_specs(c: &CacheSpec) -> [ArraySpec; 2] {
    let sets_per_bank = (c.sets().max(1) / u64::from(c.banks)).max(1);
    let block_bits = c.block_bytes * 8;
    let data_bits = block_bits * c.associativity;
    let access = match c.access_mode {
        AccessMode::Parallel => data_bits,
        AccessMode::Sequential => block_bits,
    };
    let mut data = ArraySpec::table(sets_per_bank, data_bits)
        .with_access_bits(access)
        .with_ports(c.ports)
        .with_kind(c.data_cell)
        .named(format!("{}-data", c.name));
    let mut tag = ArraySpec::table(sets_per_bank, c.tag_bits() * c.associativity)
        .with_ports(c.ports)
        .named(format!("{}-tag", c.name));
    if let Some(t) = c.max_cycle_time {
        data = data.with_max_cycle_time(t);
        tag = tag.with_max_cycle_time(t);
    }
    [data, tag]
}

/// The workload's array specs for `cfg`: the data and tag arrays of
/// every cache level.
fn array_specs(cfg: &ProcessorConfig) -> Vec<ArraySpec> {
    let caches = [Some(&cfg.core.icache), Some(&cfg.core.dcache)]
        .into_iter()
        .chain([
            cfg.l2.as_ref().map(|l| &l.cache),
            cfg.l3.as_ref().map(|l| &l.cache),
        ]);
    caches.flatten().flat_map(cache_array_specs).collect()
}

fn tech_of(cfg: &ProcessorConfig) -> TechParams {
    let mut tech = TechParams::new(cfg.node, cfg.device_type, cfg.temperature_k)
        .with_projection(cfg.projection)
        .with_long_channel_leakage(cfg.long_channel_leakage);
    if (cfg.vdd_scale - 1.0).abs() > 1e-9 {
        tech = tech.with_vdd_scale(cfg.vdd_scale);
    }
    tech
}

/// Everything one replay pass checks and counts.
#[derive(Default)]
struct PassCounts {
    cache_hits: u64,
    cache_misses: u64,
    cache_coalesced: u64,
    cache_evictions: u64,
    pool: PoolStats,
    cold_builds: u64,
}

fn add_pool(acc: &mut PoolStats, a: PoolStats, b: PoolStats) {
    acc.submitted += b.submitted - a.submitted;
    acc.steals += b.steals - a.steals;
    acc.inline_execs += b.inline_execs - a.inline_execs;
}

/// One replay op: every layer of one configuration, cold, then the warm
/// build, report rendering and the wire codec.
fn replay_config(
    tr: &mut Tracer,
    op: u64,
    cfg: &ProcessorConfig,
    reference: &str,
    request: &str,
    counts: &mut PassCounts,
) -> Result<(), String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", cfg.name);
    tr.span("replay.config", op, |tr| {
        memo::clear();
        let p0 = pool::stats();
        let chip = tr
            .span("core.build_cold", op, |_| Processor::build(cfg))
            .map_err(|e| err(&e))?;
        add_pool(&mut counts.pool, p0, pool::stats());
        let s = memo::stats();
        counts.cache_hits += s.hits;
        counts.cache_misses += s.misses;
        counts.cache_coalesced += s.coalesced;
        counts.cache_evictions += s.evictions;
        counts.cold_builds += 1;
        let warm = tr
            .span("core.build_warm", op, |_| Processor::build(cfg))
            .map_err(|e| err(&e))?;
        let report = tr.span("core.report_render", op, |_| chip.report());
        if report != reference {
            return Err(format!(
                "{}: cold build report differs from the reference",
                cfg.name
            ));
        }
        let warm_report = warm.report();
        let wire =
            proto::evaluate_response(Some(op), &warm_report, &mcpat_serve::RequestPerf::default());
        let warm_ok = check::split_evaluate_response(&wire, op)
            .zip(WireExpect::new(reference))
            .is_some_and(|(r, e)| e.matches_escaped(r.report));
        if !warm_ok {
            return Err(format!(
                "{}: warm build report differs from the reference",
                cfg.name
            ));
        }
        tr.span("serve.parse", op, |_| {
            black_box(proto::parse(request)).is_ok()
        })
        .then_some(())
        .ok_or_else(|| format!("{}: request line does not parse", cfg.name))?;
        tr.span("serve.render", op, |_| {
            black_box(proto::evaluate_response(
                Some(op),
                &report,
                &mcpat_serve::RequestPerf::default(),
            ))
        });

        // The cold path again, one layer call at a time.
        let tech = tr.span("tech.derive", op, |_| tech_of(cfg));
        for wt in [WireType::Local, WireType::Intermediate, WireType::Global] {
            tr.span("circuit.repeater_inv", op, |_| {
                black_box(RepeaterInvariants::new(&tech, wt))
            });
        }
        memo::set_enabled(false);
        let solved: Result<(), String> = array_specs(cfg).iter().try_for_each(|spec| {
            tr.span("array.solve_cold", op, |_| {
                spec.solve(&tech, OptTarget::EnergyDelay)
            })
            .map(|_| ())
            .map_err(|e| err(&e))
        });
        memo::set_auto();
        solved?;
        memo::clear();
        let mut core_cfg = cfg.core.clone();
        core_cfg.clock_hz = cfg.clock_hz;
        let core = tr
            .span("mcore.core_build", op, |_| {
                CoreModel::build(&tech, &core_cfg)
            })
            .map_err(|e| err(&format!("{e:?}")))?;
        let l2 = tr
            .span("uncore.l2_build", op, |_| {
                cfg.l2.as_ref().map(|c| c.build(&tech)).transpose()
            })
            .map_err(|e| err(&e))?;
        tr.span("uncore.l3_build", op, |_| {
            cfg.l3.as_ref().map(|c| c.build(&tech)).transpose()
        })
        .map_err(|e| err(&e))?;
        tr.span("uncore.mc_build", op, |_| {
            cfg.mc
                .as_ref()
                .map(|c| MemCtrl::build(&tech, c))
                .transpose()
        })
        .map_err(|e| err(&e))?;
        let die_area = chip.die_area();
        let vdd = tech.device.vdd;
        let sink = f64::from(cfg.num_cores) * 2.0 * core.pipeline.clock_energy_per_cycle
            / (vdd * vdd)
            + 4e-6 * die_area * 0.5;
        tr.span("uncore.io_clock", op, |_| {
            black_box(OffChipIo::new(&tech, cfg.io_bandwidth));
            black_box(FunctionalUnit::new(&tech, FuKind::Fpu));
            black_box(ClockNetwork::new(
                &tech,
                die_area.sqrt(),
                die_area.sqrt(),
                cfg.clock_hz,
                sink,
            ))
        });
        let cluster = core.area() * f64::from(cfg.cores_per_cluster())
            + l2.as_ref().map_or(0.0, |l| l.area());
        let noc = NocConfig {
            topology: cfg.fabric.topology,
            flit_bits: cfg.fabric.flit_bits,
            vcs_per_port: cfg.fabric.vcs_per_port,
            buffers_per_vc: cfg.fabric.buffers_per_vc,
            link_length: cluster.max(1e-12).sqrt(),
            clock_hz: cfg.clock_hz,
        };
        tr.span("interconnect.noc_build", op, |_| noc.build(&tech))
            .map_err(|e| err(&e))?;
        Ok(())
    })
}

/// The configs a workload's replay walks, their cold references and
/// request lines.
struct ReplaySet {
    configs: Vec<ProcessorConfig>,
    references: Vec<String>,
    requests: Vec<String>,
}

/// Configs per replay pass.
const REPLAY_CONFIGS: usize = 32;
/// Sweeps the DSE layer phase replays.
const DSE_GRIDS: u64 = 8;

fn replay_set(workload: Workload, seed: u64) -> Result<ReplaySet, String> {
    let configs: Vec<ProcessorConfig> = match workload {
        Workload::CliOneshot => gen::cli_configs(seed),
        Workload::ServeMixed => gen::serve_targets(seed)
            .into_iter()
            .map(|t| t.config)
            .collect(),
        Workload::DseSweep => (0..REPLAY_CONFIGS as u64)
            .filter_map(|i| gen::sweep_grid(seed, i).config_at(0))
            .collect(),
    };
    let configs: Vec<ProcessorConfig> = configs.into_iter().take(REPLAY_CONFIGS).collect();
    let mut references = Vec::new();
    let mut requests = Vec::new();
    for c in &configs {
        references.push(cold_report(c)?);
        let json = serde_json::to_string(c).map_err(|e| e.to_string())?;
        requests.push(format!(
            "{{\"type\":\"evaluate\",\"id\":1,\"config\":{json}}}"
        ));
    }
    Ok(ReplaySet {
        configs,
        references,
        requests,
    })
}

/// Replays the set, alternating untraced and traced passes until
/// `seconds` elapse (at least two of each). Returns the first traced
/// pass's counts and the median wall time of each kind of pass.
fn replay(
    tr: &mut Tracer,
    set: &ReplaySet,
    seconds: f64,
    out: &mut Outcome,
) -> (PassCounts, f64, f64) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut first: Option<PassCounts> = None;
    let t0 = Instant::now();
    while traced.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        for on in [false, true] {
            tr.set_on(on);
            let mut counts = PassCounts::default();
            let t = Instant::now();
            for (i, cfg) in set.configs.iter().enumerate() {
                out.attempted += 1;
                if let Err(e) = replay_config(
                    tr,
                    i as u64,
                    cfg,
                    &set.references[i],
                    &set.requests[i],
                    &mut counts,
                ) {
                    out.fail(e);
                }
            }
            let wall = t.elapsed().as_secs_f64();
            tr.set_on(false);
            if on {
                traced.push(wall);
                first.get_or_insert(counts);
            } else {
                plain.push(wall);
            }
        }
    }
    (first.unwrap_or_default(), median(&plain), median(&traced))
}

/// The DSE layers: clock probes, cursor decoding and frontier offers on
/// the workload's first sweeps, plus the engine's exact counters.
fn dse_layers(
    tr: &mut Tracer,
    seed: u64,
    out: &mut Outcome,
    m: &mut Metrics,
) -> Result<(), String> {
    let grids: Vec<AxisGrid> = (0..DSE_GRIDS).map(|i| gen::sweep_grid(seed, i)).collect();
    let mut perf = DsePerf::default();
    let (mut hits, mut lookups, mut coalesced, mut evictions) = (0u64, 0u64, 0u64, 0u64);
    let mut pool_acc = PoolStats::default();
    for g in &grids {
        memo::clear();
        let p0 = pool::stats();
        out.attempted += 1;
        match mcpat::dse(g, &DseOptions::default(), &mut WorkloadModel::default()) {
            Ok(r) => {
                let p = r.perf;
                perf.candidates += p.candidates;
                perf.pruned += p.pruned;
                perf.probes += p.probes;
                perf.full_builds += p.full_builds;
                perf.cache_rebuilds += p.cache_rebuilds;
            }
            Err(e) => out.fail(format!("in-process sweep failed: {e}")),
        }
        add_pool(&mut pool_acc, p0, pool::stats());
        let s = memo::stats();
        hits += s.hits;
        lookups += s.lookups();
        coalesced += s.coalesced;
        evictions += s.evictions;
    }
    tr.set_on(true);
    let mut model = WorkloadModel::default();
    for (gi, g) in grids.iter().enumerate() {
        let base_cfg = g.config_at(0).ok_or("empty grid")?;
        let base = Processor::build(&base_cfg).map_err(|e| e.to_string())?;
        let mut frontier = ParetoFrontier::new();
        for (j, &clock) in g.clocks_hz.iter().enumerate() {
            let op = (gi * g.clocks_hz.len() + j) as u64;
            let cfg = tr
                .span("core.config_at", op, |_| g.config_at(j as u64))
                .ok_or("cursor off the grid")?;
            let chip = tr
                .span("core.probe", op, |_| base.rebuild_with(Delta::Clock(clock)))
                .map_err(|e| e.to_string())?;
            let point = FrontierPoint {
                name: cfg.name,
                cursor: j as u64,
                area: chip.die_area(),
                peak_power: chip.peak_power().total(),
                metrics: model.evaluate(&chip),
            };
            tr.span("core.frontier_offer", op, |_| frontier.offer(point));
        }
    }
    tr.set_on(false);
    let c = perf.candidates.max(1) as f64;
    m.set("core.probe_us", tr.median_dur("core.probe", 1e3), "us");
    m.set("core.probe_allocs", tr.median_allocs("core.probe"), "count");
    m.set(
        "core.config_at_us",
        tr.median_dur("core.config_at", 1e3),
        "us",
    );
    m.set(
        "core.frontier_offer_us",
        tr.median_dur("core.frontier_offer", 1e3),
        "us",
    );
    m.set("core.dse_prune_ratio", perf.pruned as f64 / c, "ratio");
    m.set("core.dse_probes", perf.probes as f64, "count");
    m.set("core.dse_full_builds", perf.full_builds as f64, "count");
    m.set(
        "core.dse_cache_rebuilds",
        perf.cache_rebuilds as f64,
        "count",
    );
    m.set(
        "array.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.set("array.cache_evictions", evictions as f64, "count");
    m.set("array.cache_coalesced", coalesced as f64, "count");
    m.pool(&pool_acc, c);
    Ok(())
}

/// Reads `stats.<group>.<key>` out of a daemon `stats` envelope.
fn stat(envelope: &serde_json::Value, group: &str, key: &str) -> f64 {
    envelope
        .get("stats")
        .and_then(|s| s.get(group))
        .and_then(|g| g.get(key))
        .and_then(serde_json::Value::as_f64)
        .unwrap_or(0.0)
}

/// The serve layers, observed through the daemon itself: server-side
/// time per request, the wire wait around it and the `stats` envelope.
fn serve_layers(ctx: &Ctx, seconds: f64, out: &mut Outcome, m: &mut Metrics) -> Result<(), String> {
    let inputs = ServeInputs::new(ctx.seed)?;
    let d = e2e::drive_serve(ctx, &inputs, seconds, false, out)?;
    let env: serde_json::Value = serde_json::from_str(&d.stats).map_err(|e| e.to_string())?;
    let ok = stat(&env, "server", "ok").max(1.0);
    let requests = d.done.len().max(1) as f64;
    m.set("serve.server_ms_p50", median(&d.server_ms), "ms");
    m.set("serve.wire_wait_ms_p50", median(&d.wire_wait_ms), "ms");
    m.set(
        "serve.coalesced_ratio",
        stat(&env, "server", "coalesced_requests") / ok,
        "ratio",
    );
    m.set(
        "serve.overloaded",
        stat(&env, "server", "overloaded"),
        "count",
    );
    m.set(
        "array.cache_hit_ratio",
        stat(&env, "solve_cache", "hit_rate"),
        "ratio",
    );
    m.set(
        "array.cache_evictions",
        stat(&env, "solve_cache", "evictions"),
        "count",
    );
    m.set(
        "array.cache_coalesced",
        stat(&env, "solve_cache", "coalesced"),
        "count",
    );
    let pool = PoolStats {
        submitted: stat(&env, "pool", "submitted") as u64,
        steals: stat(&env, "pool", "steals") as u64,
        inline_execs: stat(&env, "pool", "inline_execs") as u64,
        ..PoolStats::default()
    };
    m.pool(&pool, requests);
    out.note(format!(
        "serve drive: {} requests in {:.2} s",
        d.done.len(),
        d.window_s
    ));
    Ok(())
}

/// Per-layer metrics in a fixed order; every name is always present.
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(m) => *m = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    fn pool(&mut self, p: &PoolStats, ops: f64) {
        self.set("par.pool_submitted", p.submitted as f64 / ops, "count/op");
        self.set("par.pool_steals", p.steals as f64 / ops, "count/op");
        self.set("par.pool_inline", p.inline_execs as f64 / ops, "count/op");
    }
}

/// Names and units of every per-layer metric, zero until measured: a
/// layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("tech.derive_us", "us"),
    ("tech.derive_calls", "count"),
    ("circuit.repeater_inv_us", "us"),
    ("array.solve_cold_us", "us"),
    ("array.solve_allocs", "count"),
    ("array.cache_hit_ratio", "ratio"),
    ("array.cache_evictions", "count"),
    ("array.cache_coalesced", "count"),
    ("mcore.core_build_ms", "ms"),
    ("mcore.core_build_allocs", "count"),
    ("uncore.l2_build_ms", "ms"),
    ("uncore.mc_build_ms", "ms"),
    ("uncore.io_clock_us", "us"),
    ("interconnect.noc_build_ms", "ms"),
    ("core.build_cold_ms", "ms"),
    ("core.build_warm_ms", "ms"),
    ("core.build_allocs_cold", "count"),
    ("core.build_allocs_warm", "count"),
    ("core.assembly_self_ms", "ms"),
    ("core.assembly_uncovered_pct", "%"),
    ("core.probe_us", "us"),
    ("core.probe_allocs", "count"),
    ("core.config_at_us", "us"),
    ("core.frontier_offer_us", "us"),
    ("core.dse_prune_ratio", "ratio"),
    ("core.dse_probes", "count"),
    ("core.dse_full_builds", "count"),
    ("core.dse_cache_rebuilds", "count"),
    ("core.report_render_us", "us"),
    ("core.report_bytes", "bytes"),
    ("core.report_allocs", "count"),
    ("serve.parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.server_ms_p50", "ms"),
    ("serve.wire_wait_ms_p50", "ms"),
    ("serve.coalesced_ratio", "ratio"),
    ("serve.overloaded", "count"),
    ("par.pool_submitted", "count/op"),
    ("par.pool_steals", "count/op"),
    ("par.pool_inline", "count/op"),
    ("obs.trace_overhead_pct", "%"),
];

/// Component spans whose sum the cold chip build is compared against.
const COMPONENTS: [&str; 7] = [
    "tech.derive",
    "mcore.core_build",
    "uncore.l2_build",
    "uncore.l3_build",
    "uncore.mc_build",
    "uncore.io_clock",
    "interconnect.noc_build",
];

/// Cold build minus its component calls, per replayed config of each
/// traced pass: (self ms, share of the cold build in %).
fn assembly_self(tr: &Tracer) -> (Vec<f64>, Vec<f64>) {
    let (mut self_ms, mut share) = (Vec::new(), Vec::new());
    for (i, s) in tr.spans.iter().enumerate() {
        if s.name != "replay.config" {
            continue;
        }
        let kids = tr.spans.iter().filter(|c| c.parent == Some(i as u32));
        let (mut cold, mut parts) = (0.0, 0.0);
        for c in kids {
            if c.name == "core.build_cold" {
                cold += c.ns();
            } else if COMPONENTS.contains(&c.name) {
                parts += c.ns();
            }
        }
        if cold > 0.0 {
            self_ms.push((cold - parts) / 1e6);
            share.push((cold - parts) / cold * 100.0);
        }
    }
    (self_ms, share)
}

/// Runs the traced replay of `workload` and fills every per-layer metric.
pub fn traced_run(ctx: &Ctx, workload: Workload, out: &mut Outcome) -> Result<(), String> {
    let mut m = Metrics(PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u)).collect());
    let mut tr = Tracer::new();
    let set = replay_set(workload, ctx.seed)?;
    let replay_share = match workload {
        Workload::CliOneshot => 1.0,
        Workload::ServeMixed => 0.5,
        Workload::DseSweep => 0.8,
    };
    let (counts, plain_s, traced_s) = replay(&mut tr, &set, ctx.seconds * replay_share, out);

    let us = |n| tr.median_dur(n, 1e3);
    let ms = |n| tr.median_dur(n, 1e6);
    m.set("tech.derive_us", us("tech.derive"), "us");
    m.set("tech.derive_calls", set.configs.len() as f64, "count");
    m.set("circuit.repeater_inv_us", us("circuit.repeater_inv"), "us");
    m.set("array.solve_cold_us", us("array.solve_cold"), "us");
    m.set(
        "array.solve_allocs",
        tr.median_allocs("array.solve_cold"),
        "count",
    );
    m.set("mcore.core_build_ms", ms("mcore.core_build"), "ms");
    m.set(
        "mcore.core_build_allocs",
        tr.median_allocs("mcore.core_build"),
        "count",
    );
    m.set("uncore.l2_build_ms", ms("uncore.l2_build"), "ms");
    m.set("uncore.mc_build_ms", ms("uncore.mc_build"), "ms");
    m.set("uncore.io_clock_us", us("uncore.io_clock"), "us");
    m.set(
        "interconnect.noc_build_ms",
        ms("interconnect.noc_build"),
        "ms",
    );
    m.set("core.build_cold_ms", ms("core.build_cold"), "ms");
    m.set("core.build_warm_ms", ms("core.build_warm"), "ms");
    m.set(
        "core.build_allocs_cold",
        tr.median_allocs("core.build_cold"),
        "count",
    );
    m.set(
        "core.build_allocs_warm",
        tr.median_allocs("core.build_warm"),
        "count",
    );
    let (self_ms, share) = assembly_self(&tr);
    m.set("core.assembly_self_ms", median(&self_ms), "ms");
    m.set("core.assembly_uncovered_pct", median(&share), "%");
    m.set("core.report_render_us", us("core.report_render"), "us");
    let bytes: Vec<f64> = set.references.iter().map(|r| r.len() as f64).collect();
    m.set("core.report_bytes", median(&bytes), "bytes");
    m.set(
        "core.report_allocs",
        tr.median_allocs("core.report_render"),
        "count",
    );
    m.set("serve.parse_us", us("serve.parse"), "us");
    m.set("serve.render_us", us("serve.render"), "us");
    let lookups = counts.cache_hits + counts.cache_misses;
    m.set(
        "array.cache_hit_ratio",
        counts.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.set(
        "array.cache_evictions",
        counts.cache_evictions as f64,
        "count",
    );
    m.set(
        "array.cache_coalesced",
        counts.cache_coalesced as f64,
        "count",
    );
    m.pool(&counts.pool, counts.cold_builds.max(1) as f64);
    m.set(
        "obs.trace_overhead_pct",
        (traced_s - plain_s) / plain_s * 100.0,
        "%",
    );
    out.note(format!(
        "replay: {} configs per pass, {} traced passes, pass {:.1} ms untraced / {:.1} ms traced",
        set.configs.len(),
        tr.of("replay.config").count() / set.configs.len().max(1),
        plain_s * 1e3,
        traced_s * 1e3
    ));

    match workload {
        Workload::CliOneshot => {}
        Workload::ServeMixed => serve_layers(ctx, ctx.seconds * (1.0 - replay_share), out, &mut m)?,
        Workload::DseSweep => dse_layers(&mut tr, ctx.seed, out, &mut m)?,
    }

    let self_ns = tr.self_ns_by_name();
    let total: f64 = self_ns.values().sum();
    let mut shares: Vec<(&str, f64)> = self_ns.into_iter().collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let listed: Vec<String> = shares
        .iter()
        .take(8)
        .map(|(n, v)| format!("{n} {:.1}%", v / total * 100.0))
        .collect();
    out.note(format!("self time by span: {}", listed.join(", ")));
    let path = ctx
        .work_root
        .join(format!("spans-{}-seed{}.json", workload.name(), ctx.seed));
    std::fs::write(&path, tr.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.note(format!(
        "{} spans written to {}",
        tr.spans.len(),
        path.display()
    ));
    for (name, value, unit) in m.0 {
        out.metric(name, value, unit);
    }
    Ok(())
}
