//! The assembled core model: every unit built, aggregated, and evaluated
//! for peak and runtime power.

use crate::config::CoreConfig;
use crate::exu::Exu;
use crate::ifu::Ifu;
use crate::lsu::Lsu;
use crate::misc::MiscLogic;
use crate::mmu::Mmu;
use crate::pipeline::PipelineRegs;
use crate::regfile::RegFiles;
use crate::rename::RenameUnit;
use crate::stats::CoreStats;
use crate::window::WindowUnit;
use mcpat_array::{ArrayError, SolvedArray};
use mcpat_circuit::metrics::StaticPower;
use mcpat_diag::{AtPath, Diagnostics, ResultExt};
use mcpat_tech::TechParams;
use std::fmt;

/// Why a core could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreBuildError {
    /// The configuration failed validation; carries every finding.
    Invalid(Diagnostics),
    /// A storage array (located by its component path) failed to solve.
    Array(AtPath<ArrayError>),
}

impl fmt::Display for CoreBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreBuildError::Invalid(d) => {
                write!(f, "invalid core configuration ({} errors)", d.error_count())
            }
            CoreBuildError::Array(e) => write!(f, "array solver: {e}"),
        }
    }
}

impl std::error::Error for CoreBuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreBuildError::Invalid(_) => None,
            CoreBuildError::Array(e) => Some(e),
        }
    }
}

impl From<AtPath<ArrayError>> for CoreBuildError {
    fn from(e: AtPath<ArrayError>) -> CoreBuildError {
        CoreBuildError::Array(e)
    }
}

/// Dynamic + static power of one named component, W.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerItem {
    /// Component name.
    pub name: String,
    /// Dynamic power over the evaluated interval, W.
    pub dynamic: f64,
    /// Static power, W.
    pub leakage: StaticPower,
}

impl PowerItem {
    /// Total power of the component, W.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.dynamic + self.leakage.total()
    }
}

/// A full power breakdown of one core.
#[derive(Debug, Clone, PartialEq)]
pub struct CorePower {
    /// Per-component entries.
    pub items: Vec<PowerItem>,
}

impl CorePower {
    /// Sum of dynamic power, W.
    #[must_use]
    pub fn dynamic(&self) -> f64 {
        self.items.iter().map(|i| i.dynamic).sum()
    }

    /// Sum of leakage, W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        self.items.iter().map(|i| i.leakage).sum()
    }

    /// Total core power, W.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.dynamic() + self.leakage().total()
    }

    /// Looks up a component's power by name.
    #[must_use]
    pub fn component(&self, name: &str) -> Option<&PowerItem> {
        self.items.iter().find(|i| i.name == name)
    }
}

/// A fully built core.
#[derive(Debug, Clone)]
pub struct CoreModel {
    /// The architecture this core was built from.
    pub config: CoreConfig,
    /// Instruction fetch unit.
    pub ifu: Ifu,
    /// Renaming unit (OoO only).
    pub rename: Option<RenameUnit>,
    /// Issue window + ROB (OoO only).
    pub window: Option<WindowUnit>,
    /// Register files.
    pub regs: RegFiles,
    /// Execution units.
    pub exu: Exu,
    /// Load-store unit.
    pub lsu: Lsu,
    /// MMU.
    pub mmu: Mmu,
    /// Pipeline latches + local clock.
    pub pipeline: PipelineRegs,
    /// Random control logic (empirical).
    pub misc: MiscLogic,
}

impl CoreModel {
    /// Builds every unit of the core.
    ///
    /// # Errors
    ///
    /// [`CoreBuildError::Invalid`] with the complete validation findings
    /// if the configuration is broken (standalone callers see warnings
    /// dropped; [`CoreConfig::validate`] exposes them directly), or
    /// [`CoreBuildError::Array`] locating the first array that failed to
    /// solve.
    pub fn build(tech: &TechParams, cfg: &CoreConfig) -> Result<CoreModel, CoreBuildError> {
        let diags = cfg.validate();
        if diags.has_errors() {
            return Err(CoreBuildError::Invalid(diags));
        }
        // One arena mark per core build: solver scratch allocated while
        // the units build rolls back here, so the thread-local chunk is
        // reused across every unit and across repeated builds instead
        // of round-tripping the global allocator.
        mcpat_arena::scratch(|_scratch| Self::build_units(tech, cfg))
    }

    fn build_units(tech: &TechParams, cfg: &CoreConfig) -> Result<CoreModel, CoreBuildError> {
        let ifu = Ifu::build(tech, cfg).at("ifu")?;
        let rename = RenameUnit::build(tech, cfg).at("rename")?;
        let window = WindowUnit::build(tech, cfg).at("window")?;
        let regs = RegFiles::build(tech, cfg).at("regs")?;
        let lsu = Lsu::build(tech, cfg).at("lsu")?;
        let mmu = Mmu::build(tech, cfg).at("mmu")?;
        Ok(CoreModel {
            config: cfg.clone(),
            ifu,
            rename,
            window,
            regs,
            exu: Exu::build(tech, cfg),
            lsu,
            mmu,
            pipeline: PipelineRegs::build(tech, cfg),
            misc: MiscLogic::build(tech, cfg),
        })
    }

    /// Warning diagnostics from every storage array the solver could
    /// only place by degrading along its relaxation ladder (see
    /// [`mcpat_array::Relaxation`]). Empty when every array met its
    /// constraints exactly. Each diagnostic's path is the array name
    /// (e.g. `icache-data`); callers nest it under the core's own path.
    #[must_use]
    pub fn relaxation_warnings(&self) -> Diagnostics {
        let ifu = &self.ifu;
        let mut arrays: Vec<&SolvedArray> = vec![
            &ifu.icache.data,
            &ifu.icache.tag,
            &ifu.instruction_buffer,
            &self.regs.int_rf,
            &self.regs.fp_rf,
            &self.lsu.dcache.data,
            &self.lsu.dcache.tag,
            &self.lsu.load_queue,
            &self.lsu.store_queue,
            &self.mmu.itlb,
            &self.mmu.dtlb,
        ];
        arrays.extend(
            [
                &ifu.btb,
                &ifu.global_predictor,
                &ifu.local_l1,
                &ifu.local_l2,
                &ifu.chooser,
                &ifu.ras,
            ]
            .into_iter()
            .flatten(),
        );
        if let Some(r) = &self.rename {
            arrays.extend([&r.int_rat, &r.fp_rat, &r.int_free_list, &r.fp_free_list]);
        }
        if let Some(w) = &self.window {
            arrays.extend([&w.int_window, &w.rob]);
            arrays.extend(&w.fp_window);
        }
        arrays
            .iter()
            .filter_map(|a| a.relaxation_warning())
            .collect()
    }

    /// Total core area, m².
    #[must_use]
    pub fn area(&self) -> f64 {
        self.ifu.area()
            + self.rename.as_ref().map_or(0.0, RenameUnit::area)
            + self.window.as_ref().map_or(0.0, WindowUnit::area)
            + self.regs.area()
            + self.exu.area()
            + self.lsu.area()
            + self.mmu.area()
            + self.pipeline.area
            + self.misc.area
    }

    /// Total core leakage, W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        let mut l = self.ifu.leakage()
            + self.regs.leakage()
            + self.exu.leakage()
            + self.lsu.leakage()
            + self.mmu.leakage()
            + self.pipeline.leakage
            + self.misc.leakage;
        if let Some(r) = &self.rename {
            l += r.leakage();
        }
        if let Some(w) = &self.window {
            l += w.leakage();
        }
        l
    }

    /// The highest clock this core's latency-critical arrays support, Hz
    /// (the register file, issue window, and L1 cycle times bound it).
    #[must_use]
    pub fn max_clock_hz(&self) -> f64 {
        let mut worst = self
            .regs
            .int_rf
            .cycle_time
            .max(self.ifu.icache.cycle_time)
            .max(self.lsu.dcache.cycle_time);
        if let Some(w) = &self.window {
            worst = worst.max(w.int_window.cycle_time);
        }
        1.0 / worst
    }

    /// Evaluates runtime power from simulator statistics.
    ///
    /// The interval length is `stats.cycles / config.clock_hz`; event
    /// energies are divided by it to obtain average power.
    #[must_use]
    pub fn runtime_power(&self, stats: &CoreStats) -> CorePower {
        let cycles = stats.cycles.max(1) as f64;
        let interval = cycles / self.config.clock_hz;
        let per = |energy: f64| energy / interval;
        let n = |count: u64| count as f64;

        let mut items = Vec::with_capacity(9);

        // --- IFU ---------------------------------------------------------
        let icache_e = n(stats.icache_accesses) * self.ifu.icache.read_hit_energy
            + n(stats.icache_misses) * (self.ifu.icache.miss_energy + self.ifu.icache.fill_energy);
        let bpred_e = n(stats.branches)
            * (self.ifu.predictor_lookup_energy() + self.ifu.btb_energy())
            + n(stats.branches) * self.ifu.predictor_update_energy()
            + n(stats.branch_mispredicts) * self.ifu.predictor_update_energy();
        let ib_e = n(stats.decodes) * self.ifu.buffer_energy_per_inst();
        let dec_e = n(stats.decodes) * self.ifu.decode_energy_per_inst;
        items.push(PowerItem {
            name: "ifu".into(),
            dynamic: per(icache_e + bpred_e + ib_e + dec_e),
            leakage: self.ifu.leakage(),
        });

        // --- Rename ------------------------------------------------------
        if let Some(r) = &self.rename {
            let fp_frac = if stats.renames > 0 {
                (n(stats.fp_ops) / n(stats.renames).max(1.0)).min(1.0)
            } else {
                0.0
            };
            let e = n(stats.renames)
                * ((1.0 - fp_frac) * r.rename_energy_per_inst(false)
                    + fp_frac * r.rename_energy_per_inst(true));
            items.push(PowerItem {
                name: "rename".into(),
                dynamic: per(e),
                leakage: r.leakage(),
            });
        }

        // --- Window + ROB --------------------------------------------------
        if let Some(w) = &self.window {
            let e = n(stats.window_accesses) * w.window_energy_per_access(false)
                + n(stats.rob_accesses) * w.rob_energy_per_access();
            items.push(PowerItem {
                name: "window".into(),
                dynamic: per(e),
                leakage: w.leakage(),
            });
        }

        // --- Register files -------------------------------------------------
        let rf_e = n(stats.int_regfile_reads) * self.regs.int_rf.read_energy
            + n(stats.int_regfile_writes) * self.regs.int_rf.write_energy
            + n(stats.fp_regfile_reads) * self.regs.fp_rf.read_energy
            + n(stats.fp_regfile_writes) * self.regs.fp_rf.write_energy;
        items.push(PowerItem {
            name: "regfile".into(),
            dynamic: per(rf_e),
            leakage: self.regs.leakage(),
        });

        // --- EXU -------------------------------------------------------------
        let exu_e = n(stats.int_ops) * self.exu.alu.energy_per_op
            + n(stats.fp_ops) * self.exu.fpu.energy_per_op
            + n(stats.mul_ops) * self.exu.mul.energy_per_op
            + n(stats
                .int_ops
                .saturating_add(stats.fp_ops)
                .saturating_add(stats.mul_ops))
                * self.exu.bypass_energy_per_transfer;
        items.push(PowerItem {
            name: "exu".into(),
            dynamic: per(exu_e),
            leakage: self.exu.leakage(),
        });

        // --- LSU ----------------------------------------------------------------
        let lsu_e = n(stats.loads) * self.lsu.load_energy()
            + n(stats.stores) * self.lsu.store_energy()
            + n(stats.dcache_misses) * (self.lsu.dcache.miss_energy + self.lsu.dcache.fill_energy);
        items.push(PowerItem {
            name: "lsu".into(),
            dynamic: per(lsu_e),
            leakage: self.lsu.leakage(),
        });

        // --- MMU -----------------------------------------------------------------
        let mmu_e = n(stats.itlb_accesses) * self.mmu.itlb_energy()
            + n(stats.dtlb_accesses) * self.mmu.dtlb_energy();
        items.push(PowerItem {
            name: "mmu".into(),
            dynamic: per(mmu_e),
            leakage: self.mmu.leakage(),
        });

        // --- Pipeline latches + local clock ----------------------------------------
        let duty = stats.duty();
        let gated_fraction = if self.config.clock_gating { 0.10 } else { 1.0 };
        let clock_scale = duty + (1.0 - duty) * gated_fraction;
        let pipe_e = cycles
            * (self.pipeline.data_energy_per_cycle * duty
                + self.pipeline.clock_energy_per_cycle * clock_scale);
        items.push(PowerItem {
            name: "pipeline+clock".into(),
            dynamic: per(pipe_e),
            leakage: self.pipeline.leakage,
        });

        // --- Random control logic ---------------------------------------------------
        let misc_e = cycles * duty * self.misc.energy_per_cycle;
        items.push(PowerItem {
            name: "misc-logic".into(),
            dynamic: per(misc_e),
            leakage: self.misc.leakage,
        });

        CorePower { items }
    }

    /// TDP-style peak power: one second of maximum sustained activity, W.
    #[must_use]
    pub fn peak_power(&self) -> CorePower {
        let cycles = self.config.clock_hz as u64;
        let stats = CoreStats::peak(cycles, self.config.issue_width, self.config.fp_issue_width);
        self.runtime_power(&stats)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_tech::{DeviceType, TechNode};

    fn tech90() -> TechParams {
        TechParams::new(TechNode::N90, DeviceType::Hp, 360.0)
    }

    #[test]
    fn inorder_core_builds_and_reports() {
        let core = CoreModel::build(&tech90(), &CoreConfig::niagara_like()).unwrap();
        let peak = core.peak_power();
        assert!(peak.total() > 0.5, "total = {}", peak.total());
        assert!(peak.total() < 50.0, "total = {}", peak.total());
        assert!(core.area() > 1e-6, "area = {}", core.area()); // > 1 mm²
    }

    #[test]
    fn ooo_core_is_bigger_and_hungrier_than_inorder() {
        let t = tech90();
        let io = CoreModel::build(&t, &CoreConfig::generic_inorder()).unwrap();
        let ooo = CoreModel::build(&t, &CoreConfig::generic_ooo()).unwrap();
        assert!(
            ooo.area() > 1.5 * io.area(),
            "{} vs {}",
            ooo.area(),
            io.area()
        );
        assert!(ooo.peak_power().total() > io.peak_power().total());
    }

    #[test]
    fn runtime_power_scales_with_activity() {
        let t = tech90();
        let core = CoreModel::build(&t, &CoreConfig::generic_ooo()).unwrap();
        let busy = CoreStats::peak(1_000_000, 4, 2);
        let mut idle = CoreStats::peak(1_000_000, 4, 2);
        // Quarter the activity.
        idle.issues /= 4;
        idle.int_ops /= 4;
        idle.fp_ops /= 4;
        idle.loads /= 4;
        idle.stores /= 4;
        idle.fetches /= 4;
        idle.decodes /= 4;
        idle.renames /= 4;
        idle.commits /= 4;
        idle.window_accesses /= 4;
        idle.rob_accesses /= 4;
        idle.int_regfile_reads /= 4;
        idle.int_regfile_writes /= 4;
        idle.dcache_reads /= 4;
        idle.dcache_writes /= 4;
        let p_busy = core.runtime_power(&busy);
        let p_idle = core.runtime_power(&idle);
        assert!(p_busy.dynamic() > 1.5 * p_idle.dynamic());
        // Leakage is activity-independent.
        assert!((p_busy.leakage().total() - p_idle.leakage().total()).abs() < 1e-9);
    }

    #[test]
    fn clock_gating_cuts_idle_clock_power() {
        let t = tech90();
        let mut cfg = CoreConfig::generic_ooo();
        cfg.clock_gating = true;
        let gated = CoreModel::build(&t, &cfg).unwrap();
        cfg.clock_gating = false;
        let ungated = CoreModel::build(&t, &cfg).unwrap();
        let mut stats = CoreStats::peak(1_000_000, 4, 2);
        stats.idle_cycles = 900_000; // mostly idle
        let pg = gated.runtime_power(&stats);
        let pu = ungated.runtime_power(&stats);
        let cg = pg.component("pipeline+clock").unwrap().dynamic;
        let cu = pu.component("pipeline+clock").unwrap().dynamic;
        assert!(cg < cu, "gated {cg} vs ungated {cu}");
    }

    #[test]
    fn component_breakdown_is_complete() {
        let core = CoreModel::build(&tech90(), &CoreConfig::generic_ooo()).unwrap();
        let p = core.peak_power();
        for name in [
            "ifu",
            "rename",
            "window",
            "regfile",
            "exu",
            "lsu",
            "mmu",
            "pipeline+clock",
            "misc-logic",
        ] {
            assert!(p.component(name).is_some(), "missing {name}");
        }
        let sum: f64 = p.items.iter().map(PowerItem::total).sum();
        assert!((sum - p.total()).abs() < 1e-9);
    }

    #[test]
    fn max_clock_is_achievable_ballpark() {
        let core = CoreModel::build(&tech90(), &CoreConfig::niagara_like()).unwrap();
        let f = core.max_clock_hz();
        assert!(f > 0.5e9, "max clock {f:e}");
    }
}
