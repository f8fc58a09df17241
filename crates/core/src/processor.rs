//! Whole-processor assembly: the internal chip representation.

use crate::config::ProcessorConfig;
use crate::error::McpatError;
use crate::power::ChipPower;
use crate::stats::ChipStats;
use mcpat_circuit::metrics::StaticPower;
use mcpat_diag::{AtPath, Diagnostics, ResultExt};
use mcpat_interconnect::noc::{NocConfig, NocModel};
use mcpat_mcore::core::{CoreBuildError, CoreModel, PowerSink, PowerTotals};
use mcpat_mcore::exu::{FuKind, FunctionalUnit};
use mcpat_mcore::CoreStats;
use mcpat_tech::TechParams;
use mcpat_uncore::clock::ClockNetwork;
use mcpat_uncore::io::OffChipIo;
use mcpat_uncore::memctrl::MemCtrl;
use mcpat_uncore::shared_cache::SharedCache;

/// Layout overhead multiplying the sum of component areas to obtain the
/// core die area (global routing, power grid, whitespace).
const DIE_AREA_OVERHEAD: f64 = 1.25;

/// Width of the pad ring around the active area, m.
const PAD_RING_WIDTH: f64 = 0.6e-3;

/// Clock-sink capacitance contributed per square meter of non-core
/// logic/cache periphery (≈4 pF/mm², calibrated against Niagara-class
/// published clock power).
const CLOCK_SINK_CAP_PER_M2: f64 = 4e-12 / 1e-6;

/// Energy to recharge a power-gated core's virtual supply rail on
/// wakeup, J per mm² of core area (≈ the decap + rail capacitance).
const WAKEUP_ENERGY_PER_M2: f64 = 2e-3;

/// One named area entry of the floorplan summary.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaItem {
    /// Component name.
    pub name: String,
    /// Area, m².
    pub area: f64,
}

/// Timing roll-up: the cycle-time limiters of the chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// FO4 delay of the process corner, s.
    pub fo4: f64,
    /// Maximum clock supported by the cores' critical arrays, Hz.
    pub core_max_clock_hz: f64,
    /// L2 bank cycle time, s (0 if no L2).
    pub l2_cycle_time: f64,
    /// The configured target clock, Hz.
    pub target_clock_hz: f64,
}

impl TimingReport {
    /// True if the configured clock is achievable by the latency-critical
    /// core arrays.
    #[must_use]
    pub fn clock_feasible(&self) -> bool {
        self.core_max_clock_hz >= self.target_clock_hz
    }
}

/// How the build itself performed: worker threads available to the
/// fan-out and the array-solve cache's effectiveness over this build.
///
/// The counters come from a scoped [`mcpat_obs::Collector`] entered for
/// the duration of the build, so they are exact even when several
/// builds run concurrently: pool tasks carry their submitter's scope
/// chain, and stolen work still bills the build that submitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildPerf {
    /// Worker threads the build fan-out could use (see
    /// [`mcpat_par::threads`]).
    pub threads: usize,
    /// Array solves answered by the content-addressed cache.
    pub solve_cache_hits: u64,
    /// Array solves that ran the optimizer.
    pub solve_cache_misses: u64,
    /// Cache entries evicted during this build by the bounded solve
    /// cache (see `MCPAT_SOLVE_CACHE_CAP`). Non-zero values mean the
    /// cache is under pressure and warm rebuilds may re-solve arrays.
    pub solve_cache_evictions: u64,
}

/// Budget checkpoint at a build-stage boundary: a tripped deadline,
/// cancellation, or memory ceiling surfaces as [`McpatError::Budget`]
/// located at `stage`. Free when no budget is in scope.
pub(crate) fn checkpoint(stage: &str) -> Result<(), McpatError> {
    mcpat_guard::check().map_err(|e| McpatError::Budget(AtPath::new(stage, e)))
}

/// Runs one component build under its budget checkpoint and trace
/// span, billing the component's relaxation warnings to the span.
fn stage<T>(
    name: &str,
    build: impl FnOnce() -> Result<T, McpatError>,
    relaxations: impl FnOnce(&T) -> usize,
) -> Result<T, McpatError> {
    checkpoint(name)?;
    let span = mcpat_obs::span(name);
    let built = build()?;
    span.note_relaxations(relaxations(&built) as u64);
    mcpat_guard::note_span();
    Ok(built)
}

/// Runs `produce` under a fresh collector scope and span `name`, then
/// stamps the chip it returns with that scope's solve-cache traffic
/// (and, while tracing, its spans). The scope makes every solve-cache
/// lookup and (probed) allocation bill to this call alone.
fn collected(
    name: &str,
    produce: impl FnOnce() -> Result<Processor, McpatError>,
) -> Result<Processor, McpatError> {
    let collector = mcpat_obs::Collector::new();
    let result = {
        let _scope = collector.enter();
        let _span = mcpat_obs::span(name);
        produce()
    };
    let snap = collector.snapshot();
    let mut chip = result?;
    chip.perf = BuildPerf {
        threads: mcpat_par::threads(),
        solve_cache_hits: snap.solve_cache_hits,
        solve_cache_misses: snap.solve_cache_misses,
        solve_cache_evictions: snap.solve_cache_evictions,
    };
    chip.trace = mcpat_obs::tracing_enabled().then(|| collector.trace());
    Ok(chip)
}

/// A chip-level [`PowerSink`], which also evaluates each core stats
/// group. The named breakdown keeps the first group's per-unit items as
/// its `core_detail`; the totals sink keeps nothing but numbers. Both
/// sum a core's items the same way, so the chip totals agree bit for
/// bit.
trait ChipSink: PowerSink {
    /// Dynamic power of one `core` under `stats`, W.
    fn core_dynamic(&mut self, core: &CoreModel, stats: &CoreStats) -> f64;
}

impl ChipSink for PowerTotals {
    fn core_dynamic(&mut self, core: &CoreModel, stats: &CoreStats) -> f64 {
        let mut totals = PowerTotals::default();
        core.runtime_power_into(stats, &mut totals);
        totals.dynamic()
    }
}

impl ChipSink for ChipPower {
    fn core_dynamic(&mut self, core: &CoreModel, stats: &CoreStats) -> f64 {
        let power = core.runtime_power(stats);
        let dynamic = power.dynamic();
        // Every core evaluation emits items, so an empty detail means
        // this is the first group.
        if self.core_detail.items.is_empty() {
            self.core_detail = power;
        }
        dynamic
    }
}

/// A single-axis change applied to an already-built chip by
/// [`Processor::rebuild_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delta {
    /// Retarget the chip (and core) clock, Hz.
    Clock(f64),
    /// Rescale the supply voltage (`vdd_scale` on the configuration).
    Vdd(f64),
    /// Move the junction temperature, K.
    Temperature(f64),
    /// Resize each L2 instance to this capacity, bytes.
    CacheSize(u64),
}

impl Delta {
    /// The configuration `base` describes after this delta is applied.
    #[must_use]
    pub fn apply(self, base: &ProcessorConfig) -> ProcessorConfig {
        let mut config = base.clone();
        match self {
            Delta::Clock(hz) => {
                config.clock_hz = hz;
                config.core.clock_hz = hz;
            }
            Delta::Vdd(scale) => config.vdd_scale = scale,
            Delta::Temperature(kelvin) => config.temperature_k = kelvin,
            Delta::CacheSize(bytes) => {
                if let Some(l2) = &mut config.l2 {
                    l2.cache.capacity = bytes;
                }
            }
        }
        config
    }
}

/// A fully built processor.
#[derive(Debug, Clone)]
pub struct Processor {
    /// Configuration echoed.
    pub config: ProcessorConfig,
    /// Resolved technology corner.
    pub tech: TechParams,
    /// The (homogeneous) core model.
    pub core: CoreModel,
    /// One L2 instance (replicated `config.num_l2s` times), if any.
    pub l2: Option<SharedCache>,
    /// The L3, if any.
    pub l3: Option<SharedCache>,
    /// The on-chip fabric.
    pub noc: NocModel,
    /// The memory controller, if any.
    pub mc: Option<MemCtrl>,
    /// Other off-chip I/O.
    pub io: OffChipIo,
    /// Chip-level shared FPU model (one instance).
    pub shared_fpu: FunctionalUnit,
    /// The clock distribution network.
    pub clock: ClockNetwork,
    /// Warnings accumulated while validating and building: suspicious
    /// configuration values and any solver relaxations that were needed.
    pub warnings: Diagnostics,
    /// Threading and solve-cache statistics of this build.
    pub perf: BuildPerf,
    /// Structured build spans, populated only while
    /// [`mcpat_obs::set_tracing`]`(true)` is active (e.g. `--trace` on
    /// the CLI). `None` in the default, tracing-off configuration.
    pub trace: Option<mcpat_obs::Trace>,
}

impl Processor {
    /// Builds the chip: every component model plus the clock network
    /// sized from the resulting floorplan.
    ///
    /// Validation runs as a collecting pass first: every error is
    /// reported at once via [`McpatError::Invalid`], and the warnings of
    /// a successful pass are kept on [`Processor::warnings`].
    ///
    /// # Errors
    ///
    /// [`McpatError::Invalid`] if the configuration fails validation
    /// (with the complete findings), or [`McpatError::Array`] naming the
    /// component whose storage array could not be solved.
    pub fn build(config: &ProcessorConfig) -> Result<Processor, McpatError> {
        // One arena mark per chip build: every solver scratch allocation
        // made inline on this thread rolls back here when the build
        // finishes, so back-to-back builds (warm sweeps, exploration)
        // reuse one retained chunk.
        collected("build", || {
            mcpat_arena::scratch(|_scratch| Self::build_inner(config))
        })
    }

    fn build_inner(config: &ProcessorConfig) -> Result<Processor, McpatError> {
        checkpoint("build.validate")?;
        let warnings = {
            let _span = mcpat_obs::span("build.validate");
            config
                .validate()
                .into_result()
                .map_err(McpatError::Invalid)?
        };
        mcpat_guard::note_span();
        let mut tech = TechParams::new(config.node, config.device_type, config.temperature_k)
            .with_projection(config.projection)
            .with_long_channel_leakage(config.long_channel_leakage);
        if (config.vdd_scale - 1.0).abs() > 1e-9 {
            tech = tech.with_vdd_scale(config.vdd_scale);
        }

        let mut core_cfg = config.core.clone();
        core_cfg.clock_hz = config.clock_hz;

        // Error priority: core first, then l2, l3, mc.
        let core = stage(
            "build.core",
            || {
                CoreModel::build(&tech, &core_cfg).map_err(|e| match e {
                    CoreBuildError::Invalid(d) => {
                        let mut all = Diagnostics::new();
                        all.merge_under("core", d);
                        McpatError::Invalid(all)
                    }
                    CoreBuildError::Array(e) => McpatError::Array(e.under("core")),
                })
            },
            |core| core.relaxation_warnings().len(),
        )?;
        let l2 = stage(
            "build.l2",
            || {
                config
                    .l2
                    .as_ref()
                    .map(|c| c.build(&tech).at("l2").map_err(McpatError::from))
                    .transpose()
            },
            |l2| l2.as_ref().map_or(0, |c| c.relaxation_warnings().len()),
        )?;
        let l3 = stage(
            "build.l3",
            || {
                config
                    .l3
                    .as_ref()
                    .map(|c| c.build(&tech).at("l3").map_err(McpatError::from))
                    .transpose()
            },
            |l3| l3.as_ref().map_or(0, |c| c.relaxation_warnings().len()),
        )?;
        let mc = stage(
            "build.mc",
            || {
                config
                    .mc
                    .as_ref()
                    .map(|c| MemCtrl::build(&tech, c).at("mc").map_err(McpatError::from))
                    .transpose()
            },
            |mc| mc.as_ref().map_or(0, |c| c.relaxation_warnings().len()),
        )?;
        let io = OffChipIo::new(&tech, config.io_bandwidth);
        let shared_fpu = FunctionalUnit::new(&tech, FuKind::Fpu);

        // Fabric link length ≈ the pitch of one cluster tile.
        let cluster_area = core.area() * f64::from(config.cores_per_cluster())
            + l2.as_ref().map_or(0.0, SharedCache::area);
        let link_length = cluster_area.max(1e-12).sqrt();
        checkpoint("build.fabric")?;
        let fabric_span = mcpat_obs::span("build.fabric");
        let noc = NocConfig {
            topology: config.fabric.topology,
            flit_bits: config.fabric.flit_bits,
            vcs_per_port: config.fabric.vcs_per_port,
            buffers_per_vc: config.fabric.buffers_per_vc,
            link_length,
            clock_hz: config.clock_hz,
        }
        .build(&tech)
        .at("fabric")?;
        drop(fabric_span);
        mcpat_guard::note_span();

        // Die area and the clock network over it.
        checkpoint("build.clock")?;
        let clock_span = mcpat_obs::span("build.clock");
        let component_area = Self::component_area_sum(
            config,
            &core,
            l2.as_ref(),
            l3.as_ref(),
            &noc,
            mc.as_ref(),
            &io,
            &shared_fpu,
        );
        let die_area = component_area * DIE_AREA_OVERHEAD;
        let die_edge = die_area.sqrt();

        let vdd = tech.device.vdd;
        let core_sink_cap =
            f64::from(config.num_cores) * 2.0 * core.pipeline.clock_energy_per_cycle / (vdd * vdd);
        let sink_cap = core_sink_cap + CLOCK_SINK_CAP_PER_M2 * die_area * 0.5;
        let clock = ClockNetwork::new(&tech, die_edge, die_edge, config.clock_hz, sink_cap);
        drop(clock_span);
        mcpat_guard::note_span();

        let mut chip = Processor {
            config: config.clone(),
            tech,
            core,
            l2,
            l3,
            noc,
            mc,
            io,
            shared_fpu,
            clock,
            warnings,
            // `build` overwrites `perf` (and `trace`) from its collector.
            perf: BuildPerf::default(),
            trace: None,
        };
        chip.merge_relaxation_warnings();
        Ok(chip)
    }

    /// Appends every array the solver could only place by degrading to
    /// [`Processor::warnings`] as a warning rooted at the owning
    /// component, in the fixed order core, l2, l3, mc, fabric. Every
    /// build path calls this after the validation warnings, so the
    /// diagnostics text is the same whichever path produced the chip.
    fn merge_relaxation_warnings(&mut self) {
        self.warnings
            .merge_under("core", self.core.relaxation_warnings());
        if let Some(l2) = &self.l2 {
            self.warnings.merge_under("l2", l2.relaxation_warnings());
        }
        if let Some(l3) = &self.l3 {
            self.warnings.merge_under("l3", l3.relaxation_warnings());
        }
        if let Some(mc) = &self.mc {
            self.warnings.merge_under("mc", mc.relaxation_warnings());
        }
        if let Some(w) = self
            .noc
            .router
            .as_ref()
            .and_then(|r| r.input_buffer.relaxation_warning())
        {
            self.warnings.push(w.under("fabric"));
        }
    }

    /// Retimes this chip in place to `clock_hz` without re-solving any
    /// storage array.
    ///
    /// When no component enforces a cycle-time constraint
    /// (`core.enforce_timing == false`, the default everywhere), the
    /// solved array geometry of every component is independent of the
    /// target clock: the clock enters only query-time power math and
    /// the closed-form clock-distribution network. This method patches
    /// the clock into every config echo, re-validates, recomputes the
    /// warnings, and re-sizes only the clock network — the chip is then
    /// indistinguishable from a full [`Processor::build`] of the patched
    /// configuration, and no component is cloned or re-solved.
    /// Retiming twice leaves no trace of the first clock, which is what
    /// lets [`crate::explore::max_clock_under_power_budget`]'s ~14
    /// bisection probes and the DSE engine's clock probes reuse one chip.
    ///
    /// When `core.enforce_timing` is set the array geometry *does*
    /// depend on the clock, so this transparently replaces the chip
    /// with a full rebuild. [`Processor::perf`] and [`Processor::trace`]
    /// keep describing the build that produced the chip.
    ///
    /// # Errors
    ///
    /// [`McpatError::Invalid`] if the patched configuration fails
    /// validation, in which case the chip is left exactly as it was;
    /// [`McpatError::Budget`] from the budget checkpoint; or any build
    /// error from the full-rebuild fallback.
    pub fn retime(&mut self, clock_hz: f64) -> Result<(), McpatError> {
        if self.config.core.enforce_timing {
            *self = Processor::build(&Delta::Clock(clock_hz).apply(&self.config))?;
            return Ok(());
        }
        checkpoint("rebuild_with_clock")?;
        let previous = (self.config.clock_hz, self.config.core.clock_hz);
        self.config.clock_hz = clock_hz;
        self.config.core.clock_hz = clock_hz;
        // Validation warnings can depend on the clock (e.g. the
        // "aggressive clock" advisory); recompute them exactly the way
        // `build` does so the retimed chip carries the same diagnostics
        // a full rebuild would.
        self.warnings = match self.config.validate().into_result() {
            Ok(warnings) => warnings,
            Err(errors) => {
                (self.config.clock_hz, self.config.core.clock_hz) = previous;
                return Err(McpatError::Invalid(errors));
            }
        };
        self.merge_relaxation_warnings();
        self.core.config.clock_hz = clock_hz;
        self.noc.config.clock_hz = clock_hz;
        // Die geometry is clock-invariant; the clock network's load and
        // frequency are not. Recompute with the same formulas `build`
        // uses so the result is bit-identical.
        self.refresh_die_and_clock();
        Ok(())
    }

    /// [`Processor::retime`] on a copy: this chip re-evaluated at a
    /// different clock, with [`Processor::perf`] and
    /// [`Processor::trace`] describing the retime itself.
    ///
    /// # Errors
    ///
    /// As [`Processor::retime`].
    pub fn rebuild_with_clock(&self, clock_hz: f64) -> Result<Processor, McpatError> {
        let mut next = self.clone();
        collected("rebuild_with_clock", move || {
            next.retime(clock_hz)?;
            Ok(next)
        })
    }

    /// Re-evaluates this chip under a single-axis change, reusing every
    /// component whose inputs the delta leaves untouched.
    ///
    /// The reuse matrix (DESIGN.md §12 argues each row):
    ///
    /// * [`Delta::Clock`] — no array re-solves; delegates to
    ///   [`Processor::rebuild_with_clock`].
    /// * [`Delta::CacheSize`] — re-solves only the L2 (its geometry is
    ///   the input that changed) and the fabric (whose link length
    ///   follows the cluster footprint); the core, L3, memory
    ///   controller, I/O and shared FPU are reused as-is.
    /// * [`Delta::Vdd`] / [`Delta::Temperature`] — every solved array
    ///   depends on the technology corner (the solve memo key covers
    ///   vdd and temperature), so nothing survives: these honestly fall
    ///   back to a full [`Processor::build`] of the patched config.
    ///
    /// Whichever path runs, the result is bit-identical to a full build
    /// of `delta.apply(&self.config)` (property-tested per preset).
    ///
    /// # Errors
    ///
    /// [`McpatError::Invalid`] if the patched configuration fails
    /// validation, or any build error from the re-solved components.
    pub fn rebuild_with(&self, delta: Delta) -> Result<Processor, McpatError> {
        match delta {
            Delta::Clock(hz) => self.rebuild_with_clock(hz),
            Delta::Vdd(_) | Delta::Temperature(_) => Processor::build(&delta.apply(&self.config)),
            Delta::CacheSize(_) => {
                let config = delta.apply(&self.config);
                if self.config.l2.is_none() {
                    // No L2 to resize: the patch is a no-op.
                    return Processor::build(&config);
                }
                collected("rebuild_with.cache", || {
                    mcpat_arena::scratch(|_scratch| self.rebuild_with_cache(config))
                })
            }
        }
    }

    /// The incremental body of the [`Delta::CacheSize`] path: re-solve
    /// the L2 and the fabric, reuse everything else.
    fn rebuild_with_cache(&self, config: ProcessorConfig) -> Result<Processor, McpatError> {
        checkpoint("rebuild_with.cache")?;
        let warnings = config
            .validate()
            .into_result()
            .map_err(McpatError::Invalid)?;
        let l2 = config
            .l2
            .as_ref()
            .map(|c| c.build(&self.tech).at("l2").map_err(McpatError::from))
            .transpose()?;
        mcpat_guard::note_span();

        // The fabric link spans one cluster tile, whose footprint just
        // changed with the L2; rebuild it with `build`'s exact formula.
        let cluster_area = self.core.area() * f64::from(config.cores_per_cluster())
            + l2.as_ref().map_or(0.0, SharedCache::area);
        let link_length = cluster_area.max(1e-12).sqrt();
        checkpoint("rebuild_with.fabric")?;
        let noc = NocConfig {
            topology: config.fabric.topology,
            flit_bits: config.fabric.flit_bits,
            vcs_per_port: config.fabric.vcs_per_port,
            buffers_per_vc: config.fabric.buffers_per_vc,
            link_length,
            clock_hz: config.clock_hz,
        }
        .build(&self.tech)
        .at("fabric")?;
        mcpat_guard::note_span();

        let mut next = self.clone();
        next.l2 = l2;
        next.noc = noc;
        next.config = config;
        next.warnings = warnings;
        next.merge_relaxation_warnings();
        next.refresh_die_and_clock();
        Ok(next)
    }

    /// Recomputes the die geometry and clock network from the chip's
    /// current components with exactly the formulas `build` uses, so
    /// every incremental rebuild path stays bit-identical to a full
    /// build of the same configuration.
    fn refresh_die_and_clock(&mut self) {
        let component_area = Self::component_area_sum(
            &self.config,
            &self.core,
            self.l2.as_ref(),
            self.l3.as_ref(),
            &self.noc,
            self.mc.as_ref(),
            &self.io,
            &self.shared_fpu,
        );
        let die_area = component_area * DIE_AREA_OVERHEAD;
        let die_edge = die_area.sqrt();
        let vdd = self.tech.device.vdd;
        let core_sink_cap =
            f64::from(self.config.num_cores) * 2.0 * self.core.pipeline.clock_energy_per_cycle
                / (vdd * vdd);
        let sink_cap = core_sink_cap + CLOCK_SINK_CAP_PER_M2 * die_area * 0.5;
        self.clock = ClockNetwork::new(
            &self.tech,
            die_edge,
            die_edge,
            self.config.clock_hz,
            sink_cap,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn component_area_sum(
        config: &ProcessorConfig,
        core: &CoreModel,
        l2: Option<&SharedCache>,
        l3: Option<&SharedCache>,
        noc: &NocModel,
        mc: Option<&MemCtrl>,
        io: &OffChipIo,
        shared_fpu: &FunctionalUnit,
    ) -> f64 {
        core.area() * f64::from(config.num_cores)
            + l2.map_or(0.0, SharedCache::area) * f64::from(config.num_l2s)
            + l3.map_or(0.0, SharedCache::area)
            + noc.area()
            + mc.map_or(0.0, MemCtrl::area)
            + io.area
            + shared_fpu.area * f64::from(config.num_shared_fpus)
    }

    /// The floorplan's named component areas, without the whitespace
    /// overhead, in report order. A stack array, so summing it
    /// allocates nothing.
    fn area_terms(&self) -> impl Iterator<Item = (&'static str, f64)> {
        let c = &self.config;
        let gating_overhead = if c.power_gating { 1.04 } else { 1.0 };
        [
            Some((
                "cores",
                self.core.area() * f64::from(c.num_cores) * gating_overhead,
            )),
            self.l2
                .as_ref()
                .map(|l2| ("l2", l2.area() * f64::from(c.num_l2s))),
            self.l3.as_ref().map(|l3| ("l3", l3.area())),
            Some(("noc", self.noc.area())),
            self.mc.as_ref().map(|mc| ("mc", mc.area())),
            Some(("io", self.io.area)),
            (c.num_shared_fpus > 0).then(|| {
                (
                    "shared-fpu",
                    self.shared_fpu.area * f64::from(c.num_shared_fpus),
                )
            }),
            Some(("clock", self.clock.area())),
        ]
        .into_iter()
        .flatten()
    }

    /// Floorplan summary: per-component areas (component sums, without
    /// the whitespace overhead).
    #[must_use]
    pub fn area_breakdown(&self) -> Vec<AreaItem> {
        self.area_terms()
            .map(|(name, area)| AreaItem {
                name: name.into(),
                area,
            })
            .collect()
    }

    /// Die area including layout overhead and the pad ring, m². Sums
    /// the same terms as [`Processor::area_breakdown`] in the same
    /// order, without building it.
    #[must_use]
    pub fn die_area(&self) -> f64 {
        let components: f64 = self.area_terms().map(|(_, area)| area).sum();
        let active = components * DIE_AREA_OVERHEAD;
        let edge = active.sqrt() + 2.0 * PAD_RING_WIDTH;
        edge * edge
    }

    /// Die area in mm².
    #[must_use]
    pub fn die_area_mm2(&self) -> f64 {
        self.die_area() * 1e6
    }

    /// Timing roll-up.
    #[must_use]
    pub fn timing(&self) -> TimingReport {
        TimingReport {
            fo4: self.tech.fo4(),
            core_max_clock_hz: self.core.max_clock_hz(),
            l2_cycle_time: self.l2.as_ref().map_or(0.0, |l| l.cache.cycle_time),
            target_clock_hz: self.config.clock_hz,
        }
    }

    /// Runtime power from simulator statistics.
    #[must_use]
    pub fn runtime_power(&self, stats: &ChipStats) -> ChipPower {
        // Group cores by their (broadcast-aware) stats entry so the cost
        // is bounded by the number of distinct entries, not `num_cores`:
        // entry i serves core i and the last entry serves every core
        // beyond the provided list.
        let c = &self.config;
        let n_cores = c.num_cores as usize;
        let core_groups: Vec<(CoreStats, f64)> = if n_cores == 0 {
            Vec::new()
        } else if stats.cores.len() <= 1 {
            vec![(stats.core(0), f64::from(c.num_cores))]
        } else {
            let len = stats.cores.len().min(n_cores);
            stats
                .cores
                .iter()
                .take(len)
                .enumerate()
                .map(|(i, cs)| {
                    let weight = if i == len - 1 {
                        (n_cores - len + 1) as f64
                    } else {
                        1.0
                    };
                    (*cs, weight)
                })
                .collect()
        };
        self.runtime_power_into(stats, &core_groups, ChipPower::empty())
    }

    /// The one copy of the chip power math: emits each top-level
    /// component into `sink`, in breakdown order. `core_groups` pairs
    /// each distinct per-core stats entry with the number of cores it
    /// serves; `stats.cores` itself is not read.
    fn runtime_power_into<S: ChipSink>(
        &self,
        stats: &ChipStats,
        core_groups: &[(CoreStats, f64)],
        mut sink: S,
    ) -> S {
        let c = &self.config;

        // Cores: evaluate each core's stats (broadcast-aware) and sum.
        // With power gating, an idle core drops to a retention state that
        // keeps ~10% of its leakage.
        let mut cores_dynamic = 0.0;
        let mut cores_leakage_scale = 0.0;
        for (cs, weight) in core_groups {
            cores_dynamic += sink.core_dynamic(&self.core, cs) * weight;
            let duty = cs.duty();
            cores_leakage_scale += weight
                * if c.power_gating {
                    duty + (1.0 - duty) * 0.10
                } else {
                    1.0
                };
        }
        // Wakeup transitions recharge the gated rail.
        if c.power_gating && stats.core_wakeups > 0 {
            let e_wake = WAKEUP_ENERGY_PER_M2 * self.core.area();
            cores_dynamic += stats.core_wakeups as f64 * e_wake / stats.duration_s.max(1e-12);
        }
        sink.item(
            "cores",
            cores_dynamic,
            self.core.leakage().scaled(cores_leakage_scale),
        );

        if let Some(l2) = &self.l2 {
            sink.item(
                "l2",
                l2.dynamic_power(&stats.l2),
                l2.leakage().scaled(f64::from(c.num_l2s)),
            );
        }
        if let Some(l3) = &self.l3 {
            sink.item("l3", l3.dynamic_power(&stats.l3), l3.leakage());
        }
        sink.item(
            "noc",
            self.noc.dynamic_power(&stats.noc),
            self.noc.leakage(),
        );
        if let Some(mc) = &self.mc {
            sink.item("mc", mc.dynamic_power(&stats.mc), mc.leakage());
        }
        sink.item(
            "io",
            self.io.power_at_utilization(stats.io_utilization) - self.io.standby_power,
            self.io.leakage(),
        );
        if c.num_shared_fpus > 0 {
            let interval = stats.duration_s.max(1e-12);
            sink.item(
                "shared-fpu",
                stats.shared_fpu_ops as f64 * self.shared_fpu.energy_per_op / interval,
                self.shared_fpu.leakage.scaled(f64::from(c.num_shared_fpus)),
            );
        }

        // Clock: gate the grid by the cores' average idleness when the
        // core supports clock gating.
        let avg_duty = if c.num_cores > 0 {
            core_groups
                .iter()
                .map(|(cs, weight)| cs.duty() * weight)
                .sum::<f64>()
                / f64::from(c.num_cores)
        } else {
            0.0
        };
        let gated_fraction = if c.core.clock_gating {
            1.0 - avg_duty
        } else {
            0.0
        };
        sink.item(
            "clock",
            self.clock.dynamic_power_gated(gated_fraction),
            self.clock.leakage(),
        );
        sink
    }

    /// TDP-style peak power: sustained worst-case activity, W.
    #[must_use]
    pub fn peak_power(&self) -> ChipPower {
        self.peak_into(ChipPower::empty())
    }

    /// The totals of [`Processor::peak_power`] — bit-identical, without
    /// its named breakdown and without allocating. The clock probes,
    /// budget filters and pruning bounds of the exploration paths read
    /// peak power through this.
    #[must_use]
    pub fn peak_totals(&self) -> PowerTotals {
        self.peak_into(PowerTotals::default())
    }

    /// Evaluates the TDP-style interval of [`ChipStats::peak`] into
    /// `sink`, with its single per-core entry held apart instead of in a
    /// `Vec` and broadcast to every core, as `runtime_power` does.
    fn peak_into<S: ChipSink>(&self, sink: S) -> S {
        let c = &self.config;
        let (core, stats) = ChipStats::peak_parts(
            1e-3,
            c.num_cores,
            c.clock_hz,
            c.core.issue_width,
            c.core.fp_issue_width,
        );
        let group = [(core, f64::from(c.num_cores))];
        let groups: &[(CoreStats, f64)] = if c.num_cores == 0 { &[] } else { &group };
        self.runtime_power_into(&stats, groups, sink)
    }

    /// Total chip leakage, W. Allocation-free, like
    /// [`Processor::peak_totals`].
    #[must_use]
    pub fn total_leakage(&self) -> StaticPower {
        self.peak_totals().leakage()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn niagara_builds_and_is_plausible() {
        let chip = Processor::build(&ProcessorConfig::niagara()).unwrap();
        let p = chip.peak_power();
        let area = chip.die_area_mm2();
        // Published: 63 W, 378 mm². Accept a generous modeling band here;
        // the validation bench asserts tighter.
        assert!(p.total() > 20.0 && p.total() < 160.0, "power {}", p.total());
        assert!(area > 80.0 && area < 900.0, "area {area}");
    }

    #[test]
    fn all_validation_presets_build() {
        for cfg in [
            ProcessorConfig::niagara(),
            ProcessorConfig::niagara2(),
            ProcessorConfig::alpha21364(),
            ProcessorConfig::tulsa(),
        ] {
            let chip = Processor::build(&cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
            assert!(chip.peak_power().total() > 10.0, "{}", cfg.name);
            assert!(chip.die_area_mm2() > 50.0, "{}", cfg.name);
        }
    }

    #[test]
    fn breakdown_contains_expected_components() {
        let chip = Processor::build(&ProcessorConfig::niagara()).unwrap();
        let p = chip.peak_power();
        for name in ["cores", "l2", "noc", "mc", "io", "clock", "shared-fpu"] {
            assert!(p.component(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let mut cfg = ProcessorConfig::niagara();
        cfg.temperature_k = 330.0;
        let cold = Processor::build(&cfg).unwrap().total_leakage().total();
        cfg.temperature_k = 380.0;
        let hot = Processor::build(&cfg).unwrap().total_leakage().total();
        assert!(hot > 1.5 * cold, "cold {cold} hot {hot}");
    }

    #[test]
    fn runtime_power_tracks_utilization() {
        let chip = Processor::build(&ProcessorConfig::niagara2()).unwrap();
        let peak = chip.peak_power();
        let mut quiet = ChipStats::peak(1e-3, 8, 1.4e9, 2, 1);
        for core in &mut quiet.cores {
            core.idle_cycles = core.cycles * 9 / 10;
            core.issues /= 10;
            core.int_ops /= 10;
            core.loads /= 10;
            core.stores /= 10;
            core.fetches /= 10;
            core.decodes /= 10;
        }
        quiet.io_utilization = 0.1;
        let p = chip.runtime_power(&quiet);
        assert!(p.total() < peak.total());
    }

    #[test]
    fn true_vdd_scaling_rebuild_matches_first_order_dvfs_direction() {
        let mut cfg = ProcessorConfig::niagara2();
        let nominal = Processor::build(&cfg).unwrap();
        cfg.vdd_scale = 0.85;
        cfg.clock_hz *= 0.85;
        cfg.core.clock_hz = cfg.clock_hz;
        let scaled = Processor::build(&cfg).unwrap();
        let p_nom = nominal.peak_power();
        let p_low = scaled.peak_power();
        // True rebuild: both dynamic and leakage drop.
        assert!(p_low.dynamic() < p_nom.dynamic());
        assert!(p_low.leakage().total() < p_nom.leakage().total());
        // And the first-order V²f law is the right ballpark for dynamic.
        let first_order = p_nom.dynamic() * 0.85f64.powi(3);
        let ratio = p_low.dynamic() / first_order;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
        // Timing honestly degrades: the slower corner supports a lower
        // max clock.
        assert!(scaled.timing().core_max_clock_hz < nominal.timing().core_max_clock_hz);
    }

    #[test]
    fn wakeup_energy_is_charged_only_when_gated() {
        let mut cfg = ProcessorConfig::niagara2();
        cfg.power_gating = true;
        let chip = Processor::build(&cfg).unwrap();
        let mut stats = ChipStats::peak(1e-3, 8, 1.4e9, 2, 1);
        let base = chip.runtime_power(&stats).total();
        stats.core_wakeups = 100_000; // aggressive sleep cycling
        let with = chip.runtime_power(&stats).total();
        assert!(with > base, "wakeups must cost energy: {with} vs {base}");

        cfg.power_gating = false;
        let ungated = Processor::build(&cfg).unwrap();
        let p1 = ungated.runtime_power(&stats).total();
        stats.core_wakeups = 0;
        let p0 = ungated.runtime_power(&stats).total();
        assert!((p1 - p0).abs() < 1e-12, "no gating, no wakeup cost");
    }

    #[test]
    fn infeasible_clock_degrades_with_warnings_in_the_report() {
        let mut cfg = ProcessorConfig::niagara();
        cfg.clock_hz = 300e9; // ~3 ps cycle: no array can do this
        cfg.core.enforce_timing = true;
        let chip = Processor::build(&cfg).expect("infeasible clocks degrade, not fail");
        assert!(
            chip.warnings.iter().any(|w| w.path.starts_with("core.")
                && w.message.contains("cycle-time constraint")),
            "expected relaxation warnings rooted under core:\n{}",
            chip.warnings
        );
        let report = chip.report();
        assert!(report.contains("Warnings"), "report must surface warnings");
        assert!(report.contains("cycle-time constraint"), "\n{report}");
    }

    #[test]
    fn feasible_build_has_no_warnings() {
        let chip = Processor::build(&ProcessorConfig::niagara()).unwrap();
        assert!(chip.warnings.is_empty(), "{}", chip.warnings);
    }

    #[test]
    fn rebuild_with_clock_matches_full_build_bit_for_bit() {
        let base = Processor::build(&ProcessorConfig::niagara2()).unwrap();
        for clock in [0.9e9, 1.4e9, 2.7e9, 12.0e9] {
            let fast = base.rebuild_with_clock(clock).unwrap();
            let mut cfg = ProcessorConfig::niagara2();
            cfg.clock_hz = clock;
            cfg.core.clock_hz = clock;
            let full = Processor::build(&cfg).unwrap();
            assert_eq!(
                fast.peak_power().total().to_bits(),
                full.peak_power().total().to_bits(),
                "peak power at {clock:e} Hz"
            );
            assert_eq!(fast.die_area().to_bits(), full.die_area().to_bits());
            assert_eq!(
                fast.clock.dynamic_power_gated(0.0).to_bits(),
                full.clock.dynamic_power_gated(0.0).to_bits()
            );
            // The >10 GHz advisory must appear on the incremental path
            // exactly as it does on the full one.
            assert_eq!(fast.warnings.len(), full.warnings.len(), "at {clock:e} Hz");
        }
    }

    #[test]
    fn rebuild_with_cache_size_matches_full_build_bit_for_bit() {
        let base = Processor::build(&ProcessorConfig::niagara2()).unwrap();
        assert!(base.config.l2.is_some(), "preset must carry an L2");
        for bytes in [1u64 << 20, 3 << 20, 8 << 20] {
            let fast = base.rebuild_with(Delta::CacheSize(bytes)).unwrap();
            let full = Processor::build(&Delta::CacheSize(bytes).apply(&base.config)).unwrap();
            assert_eq!(
                fast.peak_power().total().to_bits(),
                full.peak_power().total().to_bits(),
                "peak power at {bytes} B"
            );
            assert_eq!(fast.die_area().to_bits(), full.die_area().to_bits());
            assert_eq!(fast.warnings.len(), full.warnings.len(), "at {bytes} B");
        }
    }

    #[test]
    fn rebuild_with_corner_deltas_fall_back_to_full_builds() {
        let base = Processor::build(&ProcessorConfig::niagara2()).unwrap();
        for delta in [Delta::Vdd(0.9), Delta::Temperature(340.0)] {
            let fast = base.rebuild_with(delta).unwrap();
            let full = Processor::build(&delta.apply(&base.config)).unwrap();
            assert_eq!(
                fast.peak_power().total().to_bits(),
                full.peak_power().total().to_bits(),
                "{delta:?}"
            );
            assert_eq!(fast.die_area().to_bits(), full.die_area().to_bits());
            assert_eq!(fast.warnings.len(), full.warnings.len(), "{delta:?}");
        }
    }

    #[test]
    fn rebuild_with_clock_delta_routes_through_incremental_path() {
        let base = Processor::build(&ProcessorConfig::niagara2()).unwrap();
        let via_delta = base.rebuild_with(Delta::Clock(2.1e9)).unwrap();
        let via_clock = base.rebuild_with_clock(2.1e9).unwrap();
        assert_eq!(
            via_delta.peak_power().total().to_bits(),
            via_clock.peak_power().total().to_bits()
        );
    }

    #[test]
    fn rebuild_with_clock_falls_back_under_enforced_timing() {
        let mut cfg = ProcessorConfig::niagara();
        cfg.core.enforce_timing = true;
        let base = Processor::build(&cfg).unwrap();
        let fast = base.rebuild_with_clock(2.4e9).unwrap();
        let mut at = cfg.clone();
        at.clock_hz = 2.4e9;
        at.core.clock_hz = 2.4e9;
        let full = Processor::build(&at).unwrap();
        assert_eq!(
            fast.peak_power().total().to_bits(),
            full.peak_power().total().to_bits()
        );
        assert_eq!(fast.warnings.len(), full.warnings.len());
    }

    /// `die_area` sums its terms without building `area_breakdown`; it
    /// must still equal the breakdown-sum formula bit for bit, on the
    /// presets and on every row base of a small DSE grid.
    #[test]
    fn die_area_equals_the_area_breakdown_sum() {
        use mcpat_tech::{DeviceType, TechNode};
        let grid = crate::dse::AxisGrid::manycore(
            vec![TechNode::N45, TechNode::N22],
            vec![DeviceType::Hp, DeviceType::Lstp],
            vec![2, 8],
            vec![1 << 20, 4 << 20],
            vec![1.0e9, 2.0e9],
        );
        let row_bases = (0..grid.total())
            .step_by(grid.clocks_hz.len())
            .map(|cursor| grid.config_at(cursor).unwrap());
        let mut gated = ProcessorConfig::niagara2();
        gated.power_gating = true;
        let presets = [
            ProcessorConfig::niagara(),
            ProcessorConfig::niagara2(),
            ProcessorConfig::alpha21364(),
            ProcessorConfig::tulsa(),
            gated,
        ];
        for cfg in presets.into_iter().chain(row_bases) {
            let chip = Processor::build(&cfg).unwrap();
            let components: f64 = chip.area_breakdown().iter().map(|i| i.area).sum();
            let edge = (components * DIE_AREA_OVERHEAD).sqrt() + 2.0 * PAD_RING_WIDTH;
            assert_eq!(
                chip.die_area().to_bits(),
                (edge * edge).to_bits(),
                "{}",
                cfg.name
            );
        }
    }

    #[test]
    fn failed_retime_leaves_the_chip_untouched() {
        let mut chip = Processor::build(&ProcessorConfig::niagara2()).unwrap();
        let (report, config) = (chip.report(), chip.config.clone());
        for bad in [0.0, -1.0e9, f64::NAN] {
            let err = chip
                .retime(bad)
                .expect_err("an invalid clock must be rejected");
            assert!(matches!(err, McpatError::Invalid(_)), "{bad}: {err}");
            assert_eq!(chip.report(), report, "{bad}");
            assert_eq!(chip.config, config, "{bad}");
        }
    }

    #[test]
    fn timing_report_is_consistent() {
        let chip = Processor::build(&ProcessorConfig::niagara()).unwrap();
        let t = chip.timing();
        assert!(t.fo4 > 0.0);
        assert!(t.core_max_clock_hz > 0.0);
        assert_eq!(t.target_clock_hz, 1.2e9);
        // Niagara's modest 1.2 GHz target is feasible at 90 nm.
        assert!(t.clock_feasible(), "max {:e}", t.core_max_clock_hz);
    }
}
