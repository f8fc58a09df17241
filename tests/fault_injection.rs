#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Fault-injection harness for the panic-free modeling core.
//!
//! Applies randomized single-field corruptions — zeros, negatives,
//! NaN/Inf, saturated maxima, and swapped field pairs — to the four
//! validation presets, then asserts the invariant the library promises:
//! `Processor::build` never panics; every corrupted configuration either
//! yields a typed diagnostic (`McpatError`) or builds into a report
//! whose power and area figures are all finite and non-negative.

use std::panic::AssertUnwindSafe;

use mcpat::{explore_batch, Budgets, McpatError, MetricSet, Processor, ProcessorConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A corruption payload. Mutators cast it to their field's type; Rust's
/// saturating `as` conversions turn NaN into 0 and ±Inf into the type's
/// extremes, so one f64 menu covers integer fields too.
const PAYLOADS: [f64; 9] = [
    0.0,
    -1.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1e308,
    -1e308,
    1e-300,
    4_294_967_295.0, // u32::MAX
];

type Mutator = (&'static str, fn(&mut ProcessorConfig, f64));

/// Single-field corruptions: each writes the payload into one field.
fn field_mutators() -> Vec<Mutator> {
    vec![
        ("clock_hz", |c, v| c.clock_hz = v),
        ("temperature_k", |c, v| c.temperature_k = v),
        ("io_bandwidth", |c, v| c.io_bandwidth = v),
        ("vdd_scale", |c, v| c.vdd_scale = v),
        ("num_cores", |c, v| c.num_cores = v as u32),
        ("num_l2s", |c, v| c.num_l2s = v as u32),
        ("num_shared_fpus", |c, v| c.num_shared_fpus = v as u32),
        ("core.clock_hz", |c, v| c.core.clock_hz = v),
        ("core.threads", |c, v| c.core.threads = v as u32),
        ("core.fetch_width", |c, v| c.core.fetch_width = v as u32),
        ("core.decode_width", |c, v| c.core.decode_width = v as u32),
        ("core.issue_width", |c, v| c.core.issue_width = v as u32),
        ("core.commit_width", |c, v| c.core.commit_width = v as u32),
        ("core.fp_issue_width", |c, v| {
            c.core.fp_issue_width = v as u32
        }),
        ("core.pipeline_depth", |c, v| {
            c.core.pipeline_depth = v as u32
        }),
        ("core.arch_int_regs", |c, v| c.core.arch_int_regs = v as u32),
        ("core.arch_fp_regs", |c, v| c.core.arch_fp_regs = v as u32),
        ("core.phys_int_regs", |c, v| c.core.phys_int_regs = v as u32),
        ("core.phys_fp_regs", |c, v| c.core.phys_fp_regs = v as u32),
        ("core.instruction_buffer_size", |c, v| {
            c.core.instruction_buffer_size = v as u32
        }),
        ("core.instruction_window_size", |c, v| {
            c.core.instruction_window_size = v as u32
        }),
        ("core.fp_instruction_window_size", |c, v| {
            c.core.fp_instruction_window_size = v as u32
        }),
        ("core.rob_size", |c, v| c.core.rob_size = v as u32),
        ("core.load_queue_size", |c, v| {
            c.core.load_queue_size = v as u32
        }),
        ("core.store_queue_size", |c, v| {
            c.core.store_queue_size = v as u32
        }),
        ("core.num_alus", |c, v| c.core.num_alus = v as u32),
        ("core.num_fpus", |c, v| c.core.num_fpus = v as u32),
        ("core.num_muls", |c, v| c.core.num_muls = v as u32),
        ("core.word_bits", |c, v| c.core.word_bits = v as u32),
        ("core.vaddr_bits", |c, v| c.core.vaddr_bits = v as u32),
        ("core.paddr_bits", |c, v| c.core.paddr_bits = v as u32),
        ("core.instruction_bits", |c, v| {
            c.core.instruction_bits = v as u32
        }),
        ("core.opcode_bits", |c, v| c.core.opcode_bits = v as u32),
        ("core.btb_entries", |c, v| c.core.btb_entries = v as u32),
        ("core.itlb_entries", |c, v| c.core.itlb_entries = v as u32),
        ("core.dtlb_entries", |c, v| c.core.dtlb_entries = v as u32),
        ("core.predictor.global_entries", |c, v| {
            c.core.predictor.global_entries = v as u32
        }),
        ("core.predictor.local_l1_entries", |c, v| {
            c.core.predictor.local_l1_entries = v as u32
        }),
        ("core.predictor.local_l2_entries", |c, v| {
            c.core.predictor.local_l2_entries = v as u32
        }),
        ("core.predictor.chooser_entries", |c, v| {
            c.core.predictor.chooser_entries = v as u32
        }),
        ("core.predictor.ras_entries", |c, v| {
            c.core.predictor.ras_entries = v as u32
        }),
        ("core.icache.capacity", |c, v| {
            c.core.icache.capacity = v as u64
        }),
        ("core.icache.block_bytes", |c, v| {
            c.core.icache.block_bytes = v as u32
        }),
        ("core.icache.associativity", |c, v| {
            c.core.icache.associativity = v as u32
        }),
        ("core.icache.banks", |c, v| c.core.icache.banks = v as u32),
        ("core.dcache.capacity", |c, v| {
            c.core.dcache.capacity = v as u64
        }),
        ("core.dcache.block_bytes", |c, v| {
            c.core.dcache.block_bytes = v as u32
        }),
        ("core.dcache.associativity", |c, v| {
            c.core.dcache.associativity = v as u32
        }),
        ("core.dcache.banks", |c, v| c.core.dcache.banks = v as u32),
        ("fabric.flit_bits", |c, v| c.fabric.flit_bits = v as u32),
        ("fabric.vcs_per_port", |c, v| {
            c.fabric.vcs_per_port = v as u32
        }),
        ("fabric.buffers_per_vc", |c, v| {
            c.fabric.buffers_per_vc = v as u32
        }),
        ("l2.cache.capacity", |c, v| {
            if let Some(l2) = &mut c.l2 {
                l2.cache.capacity = v as u64;
            }
        }),
        ("l2.cache.block_bytes", |c, v| {
            if let Some(l2) = &mut c.l2 {
                l2.cache.block_bytes = v as u32;
            }
        }),
        ("l2.cache.associativity", |c, v| {
            if let Some(l2) = &mut c.l2 {
                l2.cache.associativity = v as u32;
            }
        }),
        ("l2.mshr_entries", |c, v| {
            if let Some(l2) = &mut c.l2 {
                l2.mshr_entries = v as u32;
            }
        }),
        ("l2.wb_buffer_entries", |c, v| {
            if let Some(l2) = &mut c.l2 {
                l2.wb_buffer_entries = v as u32;
            }
        }),
        ("l2.fill_buffer_entries", |c, v| {
            if let Some(l2) = &mut c.l2 {
                l2.fill_buffer_entries = v as u32;
            }
        }),
        ("l2.directory_sharers", |c, v| {
            if let Some(l2) = &mut c.l2 {
                l2.directory_sharers = v as u32;
            }
        }),
        ("l3.cache.capacity", |c, v| {
            if let Some(l3) = &mut c.l3 {
                l3.cache.capacity = v as u64;
            }
        }),
        ("l3.cache.associativity", |c, v| {
            if let Some(l3) = &mut c.l3 {
                l3.cache.associativity = v as u32;
            }
        }),
        ("mc.channels", |c, v| {
            if let Some(mc) = &mut c.mc {
                mc.channels = v as u32;
            }
        }),
        ("mc.bus_bits", |c, v| {
            if let Some(mc) = &mut c.mc {
                mc.bus_bits = v as u32;
            }
        }),
        ("mc.peak_bw_per_channel", |c, v| {
            if let Some(mc) = &mut c.mc {
                mc.peak_bw_per_channel = v;
            }
        }),
        ("mc.read_queue_depth", |c, v| {
            if let Some(mc) = &mut c.mc {
                mc.read_queue_depth = v as u32;
            }
        }),
        ("mc.write_queue_depth", |c, v| {
            if let Some(mc) = &mut c.mc {
                mc.write_queue_depth = v as u32;
            }
        }),
    ]
}

/// Swapped-field corruptions: plausible copy-paste mistakes where two
/// related knobs trade places. The payload is ignored.
fn swap_mutators() -> Vec<Mutator> {
    vec![
        ("swap(clock_hz, temperature_k)", |c, _| {
            std::mem::swap(&mut c.clock_hz, &mut c.temperature_k)
        }),
        ("swap(num_cores, num_l2s)", |c, _| {
            std::mem::swap(&mut c.num_cores, &mut c.num_l2s)
        }),
        ("swap(icache.capacity, icache.block_bytes)", |c, _| {
            let cap = c.core.icache.capacity;
            c.core.icache.capacity = u64::from(c.core.icache.block_bytes);
            c.core.icache.block_bytes = cap.min(u64::from(u32::MAX)) as u32;
        }),
        ("swap(dcache.block_bytes, dcache.associativity)", |c, _| {
            std::mem::swap(
                &mut c.core.dcache.block_bytes,
                &mut c.core.dcache.associativity,
            )
        }),
        ("swap(arch_int_regs, phys_int_regs)", |c, _| {
            std::mem::swap(&mut c.core.arch_int_regs, &mut c.core.phys_int_regs)
        }),
        ("swap(load_queue_size, store_queue_size)", |c, _| {
            std::mem::swap(&mut c.core.load_queue_size, &mut c.core.store_queue_size)
        }),
        ("swap(fetch_width, pipeline_depth)", |c, _| {
            std::mem::swap(&mut c.core.fetch_width, &mut c.core.pipeline_depth)
        }),
        ("swap(fabric.flit_bits, fabric.vcs_per_port)", |c, _| {
            std::mem::swap(&mut c.fabric.flit_bits, &mut c.fabric.vcs_per_port)
        }),
    ]
}

fn presets() -> Vec<ProcessorConfig> {
    vec![
        ProcessorConfig::niagara(),
        ProcessorConfig::niagara2(),
        ProcessorConfig::alpha21364(),
        ProcessorConfig::tulsa(),
    ]
}

/// Builds the corrupted config and checks the panic-free invariant.
/// Returns an error description if the invariant is violated.
fn check(cfg: &ProcessorConfig) -> Result<(), String> {
    match Processor::build(cfg) {
        Err(e) => check_error(&e),
        Ok(chip) => check_chip(&chip),
    }
}

/// A typed diagnostic is a valid outcome; it must render.
fn check_error(e: &McpatError) -> Result<(), String> {
    if e.to_string().is_empty() {
        return Err("error rendered to empty string".into());
    }
    Ok(())
}

/// A built chip must report finite, non-negative power and area.
fn check_chip(chip: &Processor) -> Result<(), String> {
    let power = chip.peak_power();
    let total = power.total();
    if !total.is_finite() || total < 0.0 {
        return Err(format!("peak power not finite/non-negative: {total}"));
    }
    for item in &power.items {
        let d = item.dynamic;
        let l = item.leakage.total();
        if !d.is_finite() || d < 0.0 || !l.is_finite() || l < 0.0 {
            return Err(format!(
                "component {} power not finite/non-negative: dyn={d} leak={l}",
                item.name
            ));
        }
    }
    let area = chip.die_area_mm2();
    if !area.is_finite() || area < 0.0 {
        return Err(format!("die area not finite/non-negative: {area}"));
    }
    if chip.report().is_empty() {
        return Err("report rendered to empty string".into());
    }
    Ok(())
}

/// Runs one corrupted config; returns a violation description, if any.
fn run_case(label: &str, cfg: ProcessorConfig) -> Option<String> {
    run_guarded(label, || check(&cfg))
}

/// Runs one invariant check, turning a panic into a violation.
fn run_guarded(label: &str, check: impl FnOnce() -> Result<(), String>) -> Option<String> {
    if std::env::var_os("FI_TRACE").is_some() {
        eprintln!("case: {label}");
    }
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(check));
    match outcome {
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            Some(format!("PANIC [{label}]: {msg}"))
        }
        Ok(Err(msg)) => Some(format!("invariant violated [{label}]: {msg}")),
        Ok(Ok(())) => None,
    }
}

/// Fails the test with every collected violation, not just the first.
fn report_violations(violations: Vec<String>, cases: usize) {
    assert!(
        violations.is_empty(),
        "{} of {cases} corrupted configs violated the panic-free invariant:\n{}",
        violations.len(),
        violations.join("\n")
    );
}

/// The headline harness: ≥1,000 randomized single-field corruptions
/// across the four validation presets.
#[test]
fn randomized_single_field_corruptions_never_panic() {
    let fields = field_mutators();
    let swaps = swap_mutators();
    let bases = presets();
    let mut rng = StdRng::seed_from_u64(0x4d63_5041_5430_3039); // "McPAT09"

    let mut violations = Vec::new();
    let mut cases = 0usize;
    while cases < 1_200 {
        let base = &bases[cases % bases.len()];
        // One in six cases swaps a field pair; the rest overwrite one
        // field with a hostile payload.
        let (name, mutate, payload) = if rng.gen_range(0u32..6) == 0 {
            let (name, f) = swaps[rng.gen_range(0..swaps.len())];
            (name, f, 0.0)
        } else {
            let (name, f) = fields[rng.gen_range(0..fields.len())];
            (name, f, PAYLOADS[rng.gen_range(0..PAYLOADS.len())])
        };
        let mut cfg = base.clone();
        mutate(&mut cfg, payload);
        let label = format!("{} + {name} = {payload:e}", cfg.name);
        violations.extend(run_case(&label, cfg));
        cases += 1;
    }
    assert!(cases >= 1_000, "harness must cover at least 1,000 configs");
    report_violations(violations, cases);
}

/// Exhaustive sweep: every field mutator crossed with every payload on
/// one preset, so no single corruption can hide behind randomness.
#[test]
fn exhaustive_field_payload_matrix_on_niagara() {
    let base = ProcessorConfig::niagara();
    let mut violations = Vec::new();
    let mut cases = 0usize;
    for (name, mutate) in field_mutators() {
        for payload in PAYLOADS {
            let mut cfg = base.clone();
            mutate(&mut cfg, payload);
            violations.extend(run_case(&format!("niagara + {name} = {payload:e}"), cfg));
            cases += 1;
        }
    }
    report_violations(violations, cases);
}

/// The same invariant when builds run on pool workers: each corrupted
/// config goes through `explore_batch` next to the three other (clean)
/// presets, so the batch fans its builds out across the pool. A failure
/// must come back as a typed diagnostic (`ArrayError::Worker` at
/// worst), never as a panic escaping the batch or a poisoned lock
/// wedging later builds; a success must pass the same chip checks.
#[test]
fn parallel_corruptions_surface_as_typed_errors() {
    struct ResetOverride;
    impl Drop for ResetOverride {
        fn drop(&mut self) {
            mcpat::par::set_thread_override(0);
        }
    }
    let _reset = ResetOverride;
    mcpat::par::set_thread_override(4);

    let fields = field_mutators();
    let mut rng = StdRng::seed_from_u64(0x4d63_5041_5450_4152); // "McPATPAR"
    let mut violations = Vec::new();
    let mut cases = 0usize;
    let bases = presets();
    while cases < 300 {
        let base = &bases[cases % bases.len()];
        let (name, mutate) = fields[rng.gen_range(0..fields.len())];
        let payload = PAYLOADS[rng.gen_range(0..PAYLOADS.len())];
        let mut cfg = base.clone();
        mutate(&mut cfg, payload);
        let label = format!("par4 {} + {name} = {payload:e}", cfg.name);
        let mut batch: Vec<ProcessorConfig> = bases
            .iter()
            .filter(|b| b.name != cfg.name)
            .cloned()
            .collect();
        batch.push(cfg);
        violations.extend(run_guarded(&label, || {
            let mut chip_check = Ok(());
            let explored = explore_batch(&batch, Budgets::default(), |chip| {
                if chip_check.is_ok() {
                    chip_check = check_chip(chip);
                }
                MetricSet::from_power(1.0, 1.0, 1.0)
            });
            match explored {
                Err(e) => check_error(&e),
                Ok(_) => chip_check,
            }
        }));
        cases += 1;
    }
    report_violations(violations, cases);

    // No corrupted build may leave poisoned global state behind: a
    // clean preset must still build on the same (parallel) settings.
    for base in presets() {
        assert!(
            Processor::build(&base).is_ok(),
            "{}: clean build failed after parallel fault injection",
            base.name
        );
    }
}

/// Budget-fuzz matrix: ~500 random deadlines, from 0 µs through
/// generous, against all four presets. Every outcome must be either a
/// complete report bit-identical to the unbudgeted build or a typed
/// `GuardError` — never a partial report, never a panic.
#[test]
fn random_deadlines_yield_complete_reports_or_typed_guard_errors() {
    use mcpat::guard::Budget;
    use std::time::Duration;

    /// Observable result bits: peak-power breakdown, die area, timing.
    fn budget_fingerprint(chip: &Processor) -> Vec<u64> {
        let mut v = Vec::new();
        let power = chip.peak_power();
        for item in &power.items {
            v.push(item.dynamic.to_bits());
            v.push(item.leakage.subthreshold.to_bits());
            v.push(item.leakage.gate.to_bits());
        }
        v.push(chip.die_area().to_bits());
        v.push(chip.timing().fo4.to_bits());
        v.push(chip.timing().core_max_clock_hz.to_bits());
        v
    }

    let bases = presets();
    let clean: Vec<Vec<u64>> = bases
        .iter()
        .map(|cfg| budget_fingerprint(&Processor::build(cfg).expect("clean build")))
        .collect();

    let mut rng = StdRng::seed_from_u64(0x4d63_5041_5442_4744); // "McPATBGD"
    let mut violations = Vec::new();
    let mut cases = 0usize;
    let mut trips = 0usize;
    while cases < 520 {
        let which = cases % bases.len();
        let cfg = &bases[which];
        // A quarter of the deadlines are generous (must never trip on
        // these presets); the rest sweep 0 µs up through the range
        // where a build genuinely races its deadline. The first case
        // per preset pins a zero deadline, which must trip at the very
        // first checkpoint — on a fast host with a warm solve cache the
        // random range alone can fail to land inside a build.
        let deadline = if cases < bases.len() {
            Duration::ZERO
        } else if rng.gen_range(0u32..4) == 0 {
            Duration::from_secs(3600)
        } else {
            Duration::from_micros(rng.gen_range(0..20_000))
        };
        let label = format!("{} + deadline {deadline:?}", cfg.name);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let budget = Budget::with_deadline(deadline);
            let _scope = budget.enter();
            Processor::build(cfg)
        }));
        match outcome {
            Err(_) => violations.push(format!("PANIC [{label}]")),
            Ok(Ok(chip)) => {
                if budget_fingerprint(&chip) != clean[which] {
                    violations.push(format!("partial/divergent result [{label}]"));
                }
                if chip.report().is_empty() {
                    violations.push(format!("empty report [{label}]"));
                }
            }
            Ok(Err(e)) => {
                trips += 1;
                if e.guard_error().is_none() {
                    violations.push(format!("untyped budget failure [{label}]: {e}"));
                }
            }
        }
        cases += 1;
    }
    assert!(cases >= 500, "matrix must cover at least 500 cases");
    assert!(trips > 0, "no deadline ever tripped — fuzz range too lax");
    report_violations(violations, cases);

    // No deadline trip may poison shared state for later builds.
    for (which, base) in bases.iter().enumerate() {
        let chip = Processor::build(base).expect("clean build after deadline fuzz");
        assert_eq!(
            budget_fingerprint(&chip),
            clean[which],
            "{}: post-fuzz build diverged",
            base.name
        );
    }
}

/// Direct geometry corruption on the cache tag-width arithmetic. The
/// computation `paddr_bits - (offset_bits + index_bits) + state_bits`
/// once mixed saturating and unchecked adds; under the saturated-
/// maximum payloads this harness feeds everywhere else, the unchecked
/// adds overflow in debug builds. The whole expression must be
/// saturating: corrupted geometry degrades the estimate, never panics.
#[test]
fn corrupted_cache_geometry_keeps_tag_bits_total() {
    use mcpat_array::CacheSpec;
    let hostile_bits = [0u32, 1, 63, 64, u32::MAX - 1, u32::MAX];
    let hostile_blocks = [0u32, 1, 64, u32::MAX];
    let mut violations = Vec::new();
    let mut cases = 0usize;
    for &paddr in &hostile_bits {
        for &state in &hostile_bits {
            for &block in &hostile_blocks {
                for &capacity in &[0u64, 1, 1 << 20, u64::MAX] {
                    let mut spec = CacheSpec::new("corrupt", capacity, 64, 8);
                    spec.paddr_bits = paddr;
                    spec.state_bits = state;
                    spec.block_bytes = block;
                    let label = format!(
                        "tag_bits paddr={paddr} state={state} block={block} cap={capacity}"
                    );
                    match std::panic::catch_unwind(AssertUnwindSafe(|| spec.tag_bits())) {
                        Err(_) => violations.push(format!("PANIC [{label}]")),
                        Ok(_total_width) => {}
                    }
                    cases += 1;
                }
            }
        }
    }
    // A sane geometry must still compute the textbook width: 44-bit
    // physical address, 64 B blocks (6 offset bits), 2048 sets (11
    // index bits), plus the coherence state bits.
    let mut sane = CacheSpec::new("sane", 1 << 20, 64, 8);
    sane.paddr_bits = 44;
    sane.state_bits = 2;
    assert_eq!(sane.tag_bits(), 44 - 6 - 11 + 2);
    report_violations(violations, cases);
}

/// Every swap corruption on every preset.
#[test]
fn swapped_field_corruptions_never_panic() {
    let mut violations = Vec::new();
    let mut cases = 0usize;
    for base in presets() {
        for (name, mutate) in swap_mutators() {
            let mut cfg = base.clone();
            mutate(&mut cfg, 0.0);
            violations.extend(run_case(&format!("{} + {name}", cfg.name), cfg));
            cases += 1;
        }
    }
    report_violations(violations, cases);
}
