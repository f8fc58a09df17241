#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Property-based tests for the whole-chip assembly.

use mcpat::{
    explore, explore_batch, Budgets, ChipStats, Delta, DvfsPoint, MetricSet, Processor,
    ProcessorConfig,
};
use mcpat_mcore::config::CoreConfig;
use mcpat_tech::TechNode;
use proptest::prelude::*;

fn batch_eval(chip: &Processor) -> MetricSet {
    let n = f64::from(chip.config.num_cores.max(1));
    MetricSet::from_power(10.0 * n, 1.0 / n, chip.die_area())
}

fn presets() -> Vec<ProcessorConfig> {
    vec![
        ProcessorConfig::niagara(),
        ProcessorConfig::niagara2(),
        ProcessorConfig::alpha21364(),
        ProcessorConfig::tulsa(),
    ]
}

/// The rendered report minus its `Build:` line. That line reports how
/// the chip was produced (solve cache hits, threads), not what was
/// modeled, so it is the one line allowed to differ between a delta
/// rebuild and a full build.
fn modeled_report(chip: &Processor) -> String {
    chip.report()
        .lines()
        .filter(|l| !l.trim_start().starts_with("Build:"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn any_node() -> impl Strategy<Value = TechNode> {
    prop::sample::select(TechNode::SCALING_STUDY.to_vec())
}

fn any_manycore() -> impl Strategy<Value = ProcessorConfig> {
    (
        any_node(),
        prop::sample::select(vec![1u32, 2, 4, 8, 16]),
        prop::sample::select(vec![1u32, 2, 4]),
        prop::bool::ANY,
    )
        .prop_filter_map("cluster divides cores", |(node, cores, cluster, ooo)| {
            if !cores.is_multiple_of(cluster) {
                return None;
            }
            let core = if ooo {
                CoreConfig::generic_ooo()
            } else {
                CoreConfig::generic_inorder()
            };
            Some(ProcessorConfig::manycore(
                "prop-chip",
                node,
                core,
                cores,
                cluster,
                u64::from(cluster) * 1024 * 1024,
            ))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn every_manycore_config_builds_sanely(cfg in any_manycore()) {
        let chip = Processor::build(&cfg).unwrap();
        let p = chip.peak_power();
        prop_assert!(p.total() > 0.0 && p.total().is_finite());
        prop_assert!(p.dynamic() > 0.0);
        prop_assert!(p.leakage().total() > 0.0);
        prop_assert!(chip.die_area_mm2() > 1.0 && chip.die_area_mm2() < 3000.0);
        // The breakdown must sum to the total.
        let sum: f64 = p.items.iter().map(|i| i.dynamic + i.leakage.total()).sum();
        prop_assert!((sum - p.total()).abs() < 1e-9 * p.total());
    }

    #[test]
    fn area_breakdown_sums_below_die_area(cfg in any_manycore()) {
        let chip = Processor::build(&cfg).unwrap();
        let components: f64 = chip.area_breakdown().iter().map(|i| i.area).sum();
        // Die area includes overheads, so it strictly exceeds the sum;
        // the pad ring adds a fixed perimeter term that dominates tiny
        // dies, hence the constant allowance.
        prop_assert!(chip.die_area() > components);
        prop_assert!(chip.die_area() < components * 2.0 + 30e-6);
    }

    #[test]
    fn runtime_power_is_bounded_by_peak_scaled(cfg in any_manycore(), busy in 0.05..1.0f64) {
        let chip = Processor::build(&cfg).unwrap();
        let mut stats = ChipStats::peak(
            1e-3,
            cfg.num_cores,
            cfg.clock_hz,
            cfg.core.issue_width,
            cfg.core.fp_issue_width,
        );
        for core in &mut stats.cores {
            core.idle_cycles = ((1.0 - busy) * core.cycles as f64) as u64;
        }
        let p = chip.runtime_power(&stats);
        let peak = chip.peak_power();
        prop_assert!(p.total() <= peak.total() * 1.05);
        prop_assert!(p.total() >= p.leakage().total() * 0.5);
    }

    #[test]
    fn dvfs_total_power_is_monotone_in_voltage(cfg in any_manycore(), v in 0.6..0.95f64) {
        let chip = Processor::build(&cfg).unwrap();
        let stats = ChipStats::peak(
            1e-3,
            cfg.num_cores,
            cfg.clock_hz,
            cfg.core.issue_width,
            cfg.core.fp_issue_width,
        );
        let low = chip.runtime_power_at(&stats, DvfsPoint::ladder(v)).unwrap();
        let high = chip.runtime_power_at(&stats, DvfsPoint::ladder(v + 0.05)).unwrap();
        prop_assert!(high.power.total() > low.power.total());
    }

    #[test]
    fn explore_batch_equals_per_candidate_explore(
        a in any_manycore(),
        b in any_manycore(),
        take_second in prop::bool::ANY,
        dup_first in prop::bool::ANY,
    ) {
        let mut cands: Vec<ProcessorConfig> = vec![a];
        if take_second {
            cands.push(b);
        }
        for (i, c) in cands.iter_mut().enumerate() {
            c.name = format!("cand{i}");
        }
        if dup_first {
            if let Some(mut d) = cands.first().cloned() {
                d.name = String::from("cand-dup");
                cands.push(d);
            }
        }
        let serial = explore(&cands, Budgets::default(), batch_eval).unwrap();
        let (batched, perf) = explore_batch(&cands, Budgets::default(), batch_eval).unwrap();
        prop_assert_eq!(perf.candidates, cands.len());
        prop_assert!(perf.unique_builds + perf.deduped == cands.len());
        if dup_first {
            prop_assert!(perf.deduped >= 1);
        }
        prop_assert_eq!(&serial.rejected, &batched.rejected);
        prop_assert_eq!(&serial.pareto, &batched.pareto);
        prop_assert_eq!(serial.feasible.len(), batched.feasible.len());
        for (a, b) in serial.feasible.iter().zip(&batched.feasible) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.area.to_bits(), b.area.to_bits());
            prop_assert_eq!(a.peak_power.to_bits(), b.peak_power.to_bits());
            prop_assert_eq!(a.metrics.energy.to_bits(), b.metrics.energy.to_bits());
            prop_assert_eq!(a.metrics.delay.to_bits(), b.metrics.delay.to_bits());
            prop_assert_eq!(a.metrics.area.to_bits(), b.metrics.area.to_bits());
        }
    }

    #[test]
    fn rebuild_with_clock_equals_full_build(cfg in any_manycore(), scale in 0.5..2.0f64) {
        let base = Processor::build(&cfg).unwrap();
        let clock = cfg.clock_hz * scale;
        let fast = base.rebuild_with_clock(clock).unwrap();
        let mut patched = cfg.clone();
        patched.clock_hz = clock;
        patched.core.clock_hz = clock;
        let full = Processor::build(&patched).unwrap();
        prop_assert_eq!(
            fast.peak_power().total().to_bits(),
            full.peak_power().total().to_bits()
        );
        prop_assert_eq!(fast.die_area().to_bits(), full.die_area().to_bits());
        prop_assert_eq!(fast.warnings.len(), full.warnings.len());
    }

    /// `retime` is the in-place form of `rebuild_with_clock`, and DSE
    /// probes and bisections retime one chip over and over. Two
    /// retimes in a row must leave no trace of the first clock: the
    /// chip then matches a from-scratch build at the second one.
    #[test]
    fn chained_retimes_equal_full_build(
        cfg in prop_oneof![any_manycore(), prop::sample::select(presets())],
        first in 0.5..2.0f64,
        second in 0.5..2.0f64,
    ) {
        let mut chip = Processor::build(&cfg).unwrap();
        chip.retime(cfg.clock_hz * first).unwrap();
        let clock = cfg.clock_hz * second;
        chip.retime(clock).unwrap();
        let full = Processor::build(&Delta::Clock(clock).apply(&cfg)).unwrap();
        prop_assert_eq!(modeled_report(&chip), modeled_report(&full));
        prop_assert_eq!(chip.die_area().to_bits(), full.die_area().to_bits());
        prop_assert_eq!(
            chip.peak_power().total().to_bits(),
            full.peak_power().total().to_bits()
        );
    }

    /// Mirrors `rebuild_with_clock_equals_full_build` for the other
    /// delta axes: a `rebuild_with` result must be indistinguishable —
    /// report bits, warning set and all — from a from-scratch build of
    /// the delta-patched configuration, on every shipped preset.
    #[test]
    fn rebuild_with_delta_equals_full_build(
        preset in prop::sample::select(presets()),
        which in 0..3usize,
        vdd_scale in 0.7..1.2f64,
        kelvin in 320.0..380.0f64,
        l2_shift in 1u32..4,
    ) {
        let delta = match which {
            0 => Delta::Vdd(vdd_scale),
            1 => Delta::Temperature(kelvin),
            // Scale the preset's own L2 capacity by a power of two so
            // non-power-of-two way counts (niagara is 12-way) keep a
            // whole number of sets.
            _ => Delta::CacheSize(
                preset.l2.as_ref().map_or(1 << 20, |l2| l2.cache.capacity) << l2_shift,
            ),
        };
        let base = Processor::build(&preset).unwrap();
        let fast = base.rebuild_with(delta).unwrap();
        let full = Processor::build(&delta.apply(&preset)).unwrap();
        prop_assert_eq!(
            fast.peak_power().total().to_bits(),
            full.peak_power().total().to_bits()
        );
        prop_assert_eq!(fast.die_area().to_bits(), full.die_area().to_bits());
        prop_assert_eq!(fast.total_leakage().total().to_bits(), full.total_leakage().total().to_bits());
        // Field-for-field: the rendered reports carry every modeled
        // quantity, so byte equality is the strongest practical check.
        prop_assert_eq!(modeled_report(&fast), modeled_report(&full));
        prop_assert_eq!(fast.warnings.len(), full.warnings.len());
        for (a, b) in fast.warnings.iter().zip(full.warnings.iter()) {
            prop_assert_eq!(&a.path, &b.path);
            prop_assert_eq!(&a.message, &b.message);
        }
    }

    #[test]
    fn serde_round_trip_for_random_configs(cfg in any_manycore()) {
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ProcessorConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(cfg, back);
    }
}
