//! Streaming design-space exploration over a declarative axis grid.
//!
//! [`crate::explore`] is the paper's case-study workflow for tens of
//! materialized candidates; this module is the same workflow scaled to
//! the 10^5–10^6-candidate sweeps ROADMAP item 3 calls for. Three ideas
//! keep it cheap:
//!
//! 1. **Lazy enumeration** — an [`AxisGrid`] describes the candidate
//!    set ({tech node × device flavor × core count × L2 size × clock})
//!    and candidates are generated from a cursor, never materialized.
//! 2. **Delta rebuilds** — the clock axis is innermost and the L2 axis
//!    second-innermost, so consecutive candidates differ by a
//!    [`Delta::Clock`] (or, at row boundaries, [`Delta::CacheSize`])
//!    from a per-row base chip and cost probes, not full builds.
//! 3. **Lower-bound pruning** — before a candidate is built, the
//!    evaluator produces a certified lower bound on its metrics; if the
//!    incremental [`ParetoFrontier`] already dominates the bound, the
//!    build never runs (see [`ParetoFrontier::would_prune`] for the
//!    soundness argument).
//!
//! Work streams in bounded chunks of configurations routed into
//! [`crate::explore`]'s dedupe, and each probe retimes its row's base
//! chip in place ([`Processor::retime`]), so peak storage is
//! O(frontier + chunk) configurations plus one chip per row the chunk
//! touches. The sweep runs on the calling thread: a probe is a few
//! microseconds, too little to pay for a pool task (DESIGN.md §8).
//! The frontier plus the generator cursor serialize to JSON
//! ([`DseCheckpoint`]) at chunk boundaries, so a sweep killed by the
//! `mcpat-guard` deadline/cancel machinery resumes where it stopped
//! with a bit-identical final frontier.

use crate::config::ProcessorConfig;
use crate::error::McpatError;
use crate::explore::{assign_duplicates, Budgets};
use crate::frontier::{FrontierPoint, ParetoFrontier};
use crate::metrics::{Metric, MetricSet};
use crate::processor::{checkpoint, Delta, Processor};
use mcpat_diag::Diagnostics;
use mcpat_mcore::config::CoreConfig;
use mcpat_tech::{DeviceType, TechNode};
use serde::{Deserialize, Serialize};

/// A declarative candidate grid: the cross product of five axes around
/// a shared core template. Candidates are enumerated lazily from a
/// cursor with the clock axis innermost and the L2 axis second-
/// innermost — the order that lets the streaming engine serve
/// neighboring candidates with delta rebuilds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisGrid {
    /// Technology nodes.
    pub nodes: Vec<TechNode>,
    /// Device flavors (HP / LSTP / LOP).
    pub device_types: Vec<DeviceType>,
    /// Core counts.
    pub core_counts: Vec<u32>,
    /// L2 capacity per cluster, bytes.
    pub l2_bytes: Vec<u64>,
    /// Target clocks, Hz (the innermost axis).
    pub clocks_hz: Vec<f64>,
    /// The core template every candidate instantiates.
    pub core: CoreConfig,
}

impl AxisGrid {
    /// A grid over [`ProcessorConfig::manycore`] chips built from a
    /// generic in-order core template.
    #[must_use]
    pub fn manycore(
        nodes: Vec<TechNode>,
        device_types: Vec<DeviceType>,
        core_counts: Vec<u32>,
        l2_bytes: Vec<u64>,
        clocks_hz: Vec<f64>,
    ) -> AxisGrid {
        AxisGrid {
            nodes,
            device_types,
            core_counts,
            l2_bytes,
            clocks_hz,
            core: CoreConfig::generic_inorder(),
        }
    }

    /// Total number of candidates the grid enumerates.
    #[must_use]
    pub fn total(&self) -> u64 {
        (self.nodes.len() as u64)
            .saturating_mul(self.device_types.len() as u64)
            .saturating_mul(self.core_counts.len() as u64)
            .saturating_mul(self.l2_bytes.len() as u64)
            .saturating_mul(self.clocks_hz.len() as u64)
    }

    /// Collecting validation pass over the axes themselves (each
    /// candidate configuration is additionally validated when built).
    #[must_use]
    pub fn validate(&self) -> Diagnostics {
        let mut d = Diagnostics::new();
        if self.nodes.is_empty() {
            d.error("dse.nodes", "at least one tech node is required");
        }
        if self.device_types.is_empty() {
            d.error("dse.device_types", "at least one device flavor is required");
        }
        if self.core_counts.is_empty() {
            d.error("dse.core_counts", "at least one core count is required");
        }
        if self.l2_bytes.is_empty() {
            d.error("dse.l2_bytes", "at least one L2 size is required");
        }
        if self.clocks_hz.is_empty() {
            d.error("dse.clocks_hz", "at least one clock point is required");
        }
        for (i, &clock) in self.clocks_hz.iter().enumerate() {
            if !(clock.is_finite() && clock > 0.0) {
                d.error(
                    format!("dse.clocks_hz[{i}]"),
                    format!("clock must be a positive, finite frequency in Hz, got {clock}"),
                );
            }
        }
        d
    }

    /// Number of candidates per delta-rebuild row (the clock axis).
    fn clocks_len(&self) -> u64 {
        self.clocks_hz.len() as u64
    }

    /// The configuration at `cursor` (named `dse-<cursor>`), or `None`
    /// past the end of the grid.
    #[must_use]
    pub fn config_at(&self, cursor: u64) -> Option<ProcessorConfig> {
        if cursor >= self.total() {
            return None;
        }
        let clock = *self.clocks_hz.get((cursor % self.clocks_len()) as usize)?;
        let mut rest = cursor / self.clocks_len();
        let l2 = *self
            .l2_bytes
            .get((rest % self.l2_bytes.len() as u64) as usize)?;
        rest /= self.l2_bytes.len() as u64;
        let cores = *self
            .core_counts
            .get((rest % self.core_counts.len() as u64) as usize)?;
        rest /= self.core_counts.len() as u64;
        let device = *self
            .device_types
            .get((rest % self.device_types.len() as u64) as usize)?;
        rest /= self.device_types.len() as u64;
        let node = *self.nodes.get(rest as usize)?;
        let mut cfg = ProcessorConfig::manycore(
            &format!("dse-{cursor}"),
            node,
            self.core.clone(),
            cores,
            cores.min(2),
            l2,
        );
        cfg.device_type = device;
        cfg.clock_hz = clock;
        cfg.core.clock_hz = clock;
        Some(cfg)
    }
}

/// Knobs of one [`dse`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseOptions {
    /// Physical budgets a candidate must respect to reach the frontier.
    pub budgets: Budgets,
    /// Candidates enumerated, pruned and deduplicated together, and the
    /// granularity of checkpoints; peak candidate storage is
    /// O(frontier + chunk).
    pub chunk: usize,
    /// Emit a checkpoint to the sink roughly every this many candidates
    /// (rounded up to chunk boundaries); 0 disables periodic
    /// checkpoints.
    pub checkpoint_every: u64,
    /// Lower-bound pruning. Disable to build every candidate — the
    /// naive-throughput baseline and exhaustive verification runs.
    pub prune: bool,
}

impl Default for DseOptions {
    fn default() -> DseOptions {
        DseOptions {
            budgets: Budgets::default(),
            chunk: 256,
            checkpoint_every: 0,
            prune: true,
        }
    }
}

/// How a sweep spent its candidates. Serialized into checkpoints so a
/// resumed sweep's totals continue from the interrupted run's.
///
/// After a resume, `full_builds`/`cache_rebuilds` can differ slightly
/// from an uninterrupted run (the first row after the resume point
/// re-anchors with a full build instead of a cache delta); the frontier
/// and every decision-relevant counter (`candidates`, `pruned`,
/// `rejected`) stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DsePerf {
    /// Candidates enumerated (the cursor advanced past them).
    pub candidates: u64,
    /// Candidates discarded by the frontier's lower-bound prune before
    /// any build ran.
    pub pruned: u64,
    /// Candidates outside [`DseOptions::budgets`] (rejected before the
    /// build when the exact clock-invariant area already exceeds the
    /// area budget, after it otherwise).
    pub rejected: u64,
    /// Candidates served by an incremental clock probe
    /// ([`Processor::retime`] of a row base).
    pub probes: u64,
    /// Row bases advanced with an L2 resize ([`Delta::CacheSize`])
    /// instead of a full build.
    pub cache_rebuilds: u64,
    /// Full [`Processor::build`] runs (row-base anchors, plus probes
    /// forced through the fallback by `core.enforce_timing`).
    pub full_builds: u64,
    /// Candidates served by another chunk member's identical build
    /// (routed through [`crate::explore`]'s dedupe).
    pub deduped: u64,
}

/// The outcome of a completed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct DseResult {
    /// The incremental Pareto frontier with per-metric winners.
    pub frontier: ParetoFrontier,
    /// Build/prune accounting.
    pub perf: DsePerf,
}

impl DseResult {
    /// Serializes the finished sweep in the checkpoint format (cursor at
    /// the end of the grid), so the final frontier can be archived or
    /// diffed with the same tooling as in-flight checkpoints.
    #[must_use]
    pub fn final_checkpoint(&self, grid: &AxisGrid) -> DseCheckpoint {
        DseCheckpoint::capture(grid, grid.total(), &self.frontier, self.perf)
    }
}

/// Workload evaluation injected into the streaming engine.
///
/// Implementations must be deterministic: the frontier spot-check tests
/// and checkpoint/resume bit-identity both rely on `evaluate` producing
/// the same bits for the same chip.
pub trait DseEvaluator {
    /// Workload metrics of a built chip (the analog of [`crate::explore`]'s
    /// evaluator closure).
    fn evaluate(&mut self, chip: &Processor) -> MetricSet;

    /// A certified lower bound on the metrics of the (unbuilt)
    /// candidate at `cfg`, given its row `base` — a built chip
    /// identical to the candidate except for the clock. Every field
    /// must be ≤ the value [`DseEvaluator::evaluate`] would produce,
    /// and positive. Return `None` to skip pruning for this candidate.
    fn lower_bound(&self, base: &Processor, cfg: &ProcessorConfig) -> Option<MetricSet>;
}

/// The default throughput-workload model: a fixed amount of work spread
/// perfectly over the cores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadModel {
    /// Total work, core-cycles: delay = work / (num_cores × clock).
    pub work: f64,
}

impl Default for WorkloadModel {
    fn default() -> WorkloadModel {
        WorkloadModel { work: 1e12 }
    }
}

impl DseEvaluator for WorkloadModel {
    fn evaluate(&mut self, chip: &Processor) -> MetricSet {
        let n = f64::from(chip.config.num_cores).max(1.0);
        let delay = self.work / (n * chip.config.clock_hz);
        MetricSet::from_power(chip.peak_power().total(), delay, chip.die_area())
    }

    fn lower_bound(&self, base: &Processor, cfg: &ProcessorConfig) -> Option<MetricSet> {
        let n = f64::from(cfg.num_cores).max(1.0);
        let delay = self.work / (n * cfg.clock_hz);
        // Die area is clock-invariant (the clock network sizes its
        // drivers from switched capacitance, not frequency), so the row
        // base's area is this candidate's exact area; leakage is
        // likewise clock-invariant and bounds peak power from below, so
        // leakage × delay lower-bounds energy.
        Some(MetricSet {
            delay,
            energy: base.total_leakage().total() * delay,
            area: base.die_area(),
        })
    }
}

/// Bit-exact JSON image of one frontier point: every float is stored as
/// its IEEE-754 bit pattern (a u64, which JSON integers carry exactly),
/// so a resumed frontier is indistinguishable from the serialized one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct PointRepr {
    name: String,
    cursor: u64,
    area_bits: u64,
    peak_power_bits: u64,
    delay_bits: u64,
    energy_bits: u64,
    metric_area_bits: u64,
}

impl PointRepr {
    fn from_point(p: &FrontierPoint) -> PointRepr {
        PointRepr {
            name: p.name.clone(),
            cursor: p.cursor,
            area_bits: p.area.to_bits(),
            peak_power_bits: p.peak_power.to_bits(),
            delay_bits: p.metrics.delay.to_bits(),
            energy_bits: p.metrics.energy.to_bits(),
            metric_area_bits: p.metrics.area.to_bits(),
        }
    }

    fn into_point(self) -> FrontierPoint {
        FrontierPoint {
            name: self.name,
            cursor: self.cursor,
            area: f64::from_bits(self.area_bits),
            peak_power: f64::from_bits(self.peak_power_bits),
            metrics: MetricSet {
                delay: f64::from_bits(self.delay_bits),
                energy: f64::from_bits(self.energy_bits),
                area: f64::from_bits(self.metric_area_bits),
            },
        }
    }
}

/// The checkpoint schema identifier.
const CHECKPOINT_SCHEMA: &str = "mcpat-dse-checkpoint-v1";

/// A resumable image of an in-flight sweep: the grid (echoed for
/// validation), the generator cursor (always a chunk boundary), the
/// counters, and the frontier with its tracked winners.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseCheckpoint {
    schema: String,
    grid: AxisGrid,
    cursor: u64,
    perf: DsePerf,
    offered: u64,
    admitted: u64,
    evicted: u64,
    frontier: Vec<PointRepr>,
    winners: Vec<Option<PointRepr>>,
}

impl DseCheckpoint {
    fn capture(
        grid: &AxisGrid,
        cursor: u64,
        frontier: &ParetoFrontier,
        perf: DsePerf,
    ) -> DseCheckpoint {
        DseCheckpoint {
            schema: CHECKPOINT_SCHEMA.to_owned(),
            grid: grid.clone(),
            cursor,
            perf,
            offered: frontier.offered(),
            admitted: frontier.admitted(),
            evicted: frontier.evicted(),
            frontier: frontier
                .points()
                .iter()
                .map(PointRepr::from_point)
                .collect(),
            winners: frontier
                .winners()
                .iter()
                .map(|w| w.as_ref().map(PointRepr::from_point))
                .collect(),
        }
    }

    /// The generator cursor the sweep will resume from.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// The counters accumulated up to [`DseCheckpoint::cursor`].
    #[must_use]
    pub fn perf(&self) -> DsePerf {
        self.perf
    }

    /// Reconstructs the frontier exactly as serialized.
    #[must_use]
    pub fn frontier(&self) -> ParetoFrontier {
        let mut winners: [Option<FrontierPoint>; Metric::ALL.len()] = Default::default();
        for (slot, w) in winners.iter_mut().zip(self.winners.iter()) {
            *slot = w.clone().map(PointRepr::into_point);
        }
        ParetoFrontier::from_parts(
            self.frontier
                .iter()
                .cloned()
                .map(PointRepr::into_point)
                .collect(),
            winners,
            self.offered,
            self.admitted,
            self.evicted,
        )
    }

    /// Serializes the checkpoint as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// [`McpatError::Invalid`] if serialization fails (it cannot for
    /// this self-describing schema, but the error is surfaced rather
    /// than swallowed).
    pub fn to_json(&self) -> Result<String, McpatError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| McpatError::config("dse.checkpoint", format!("serialize: {e}")))
    }

    /// Parses a checkpoint produced by [`DseCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// [`McpatError::Invalid`] on malformed JSON or a schema mismatch.
    pub fn from_json(text: &str) -> Result<DseCheckpoint, McpatError> {
        let cp: DseCheckpoint = serde_json::from_str(text)
            .map_err(|e| McpatError::config("dse.checkpoint", format!("parse: {e}")))?;
        if cp.schema != CHECKPOINT_SCHEMA {
            return Err(McpatError::config(
                "dse.checkpoint.schema",
                format!("expected {CHECKPOINT_SCHEMA}, got {}", cp.schema),
            ));
        }
        Ok(cp)
    }
}

/// Runs a complete streaming sweep with no checkpointing; see
/// [`dse_streaming`].
///
/// # Errors
///
/// Propagates [`McpatError`] exactly like [`dse_streaming`].
pub fn dse<E: DseEvaluator>(
    grid: &AxisGrid,
    opts: &DseOptions,
    evaluator: &mut E,
) -> Result<DseResult, McpatError> {
    dse_streaming(grid, opts, evaluator, None, |_| Ok(()))
}

/// Where one in-flight candidate of a chunk sits, between enumeration
/// and its probe; its configuration is kept alongside.
struct Pending {
    cursor: u64,
    /// Index into the chunk's row-base table.
    base_slot: usize,
}

/// The streaming engine: enumerates `grid` from the resume cursor (or
/// 0) in `opts.chunk`-sized batches, probes the survivors of each
/// batch's prune in cursor order, offers them to the incremental
/// frontier, and emits a
/// [`DseCheckpoint`] to `on_checkpoint` at the configured cadence
/// (chunk-aligned, so a resumed sweep replays no partial chunk and its
/// final frontier is bit-identical to an uninterrupted run's).
///
/// # Errors
///
/// [`McpatError::Invalid`] for a malformed grid or a resume checkpoint
/// whose grid echo does not match; [`McpatError::Budget`] when the
/// active `mcpat-guard` budget trips (the sweep can be resumed from the
/// last emitted checkpoint); any build error from a candidate,
/// propagated in cursor order within the failing chunk.
pub fn dse_streaming<E, S>(
    grid: &AxisGrid,
    opts: &DseOptions,
    evaluator: &mut E,
    resume: Option<&DseCheckpoint>,
    mut on_checkpoint: S,
) -> Result<DseResult, McpatError>
where
    E: DseEvaluator,
    S: FnMut(&DseCheckpoint) -> Result<(), McpatError>,
{
    let _span = mcpat_obs::span("dse");
    grid.validate().into_result().map_err(McpatError::Invalid)?;
    let (mut cursor, mut frontier, mut perf) = match resume {
        Some(cp) => {
            if cp.grid != *grid {
                return Err(McpatError::config(
                    "dse.checkpoint.grid",
                    "checkpoint was taken over a different axis grid",
                ));
            }
            (cp.cursor, cp.frontier(), cp.perf)
        }
        None => (0, ParetoFrontier::new(), DsePerf::default()),
    };

    let total = grid.total();
    let chunk = opts.chunk.max(1) as u64;
    // Base chips always sit at the row's first clock point; within one
    // (node, flavor, cores) group consecutive rows differ only in L2
    // size, so the base advances by a CacheSize delta instead of a full
    // build. `(row, chip)`, carried across chunks.
    let mut last_base: Option<(u64, Processor)> = None;
    let mut since_checkpoint = 0u64;

    while cursor < total {
        checkpoint("dse")?;
        let end = (cursor + chunk).min(total);
        run_chunk(
            grid,
            opts,
            evaluator,
            cursor..end,
            &mut last_base,
            &mut frontier,
            &mut perf,
        )?;
        since_checkpoint += end - cursor;
        cursor = end;
        mcpat_guard::note_span();
        if opts.checkpoint_every > 0 && since_checkpoint >= opts.checkpoint_every {
            since_checkpoint = 0;
            on_checkpoint(&DseCheckpoint::capture(grid, cursor, &frontier, perf))?;
        }
    }
    Ok(DseResult { frontier, perf })
}

/// Streams one chunk in two phases: enumerate, budget-reject and prune
/// every candidate against the frontier as it stood at the chunk start;
/// then dedupe, probe and offer serially in cursor order.
fn run_chunk<E: DseEvaluator>(
    grid: &AxisGrid,
    opts: &DseOptions,
    evaluator: &mut E,
    range: std::ops::Range<u64>,
    last_base: &mut Option<(u64, Processor)>,
    frontier: &mut ParetoFrontier,
    perf: &mut DsePerf,
) -> Result<(), McpatError> {
    let clocks_len = grid.clocks_len();
    let l2_len = grid.l2_bytes.len() as u64;
    let mut bases: Vec<Processor> = Vec::new();
    let mut base_slots: Vec<u64> = Vec::new(); // row of each base slot
    let mut pending: Vec<Pending> = Vec::new();
    let mut cfgs: Vec<ProcessorConfig> = Vec::new();

    for cursor in range {
        checkpoint("dse.enumerate")?;
        perf.candidates += 1;
        let Some(cfg) = grid.config_at(cursor) else {
            continue;
        };
        let row = cursor / clocks_len;
        let base_slot = match base_slots.iter().position(|&r| r == row) {
            Some(slot) => slot,
            None => {
                let chip = advance_base(grid, row, clocks_len, l2_len, last_base, perf)?;
                bases.push(chip.clone());
                base_slots.push(row);
                *last_base = Some((row, chip));
                bases.len() - 1
            }
        };
        let Some(base) = bases.get(base_slot) else {
            continue;
        };
        // Exact early budget rejection: die area is clock-invariant, so
        // the base's area IS this candidate's area.
        if base.die_area() > opts.budgets.max_area {
            perf.rejected += 1;
            continue;
        }
        if opts.prune {
            if let Some(lb) = evaluator.lower_bound(base, &cfg) {
                if frontier.would_prune(&lb) {
                    perf.pruned += 1;
                    mcpat_obs::record_dse_pruned(1);
                    continue;
                }
            }
        }
        pending.push(Pending { cursor, base_slot });
        cfgs.push(cfg);
    }
    if pending.is_empty() {
        return Ok(());
    }

    // Route the chunk through the same dedupe key explore_batch uses:
    // identical configurations (up to the name) probe once and share.
    let mut assignment = vec![0usize; cfgs.len()];
    let rep_ids = assign_duplicates(&cfgs, &mut assignment);
    perf.deduped += (pending.len() - rep_ids.len()) as u64;

    // Probe and offer in cursor order so the frontier (ties, winners,
    // counters) is deterministic. Each probe retimes its
    // representative's row base in place (bit-identical to a full build
    // of the candidate's configuration); a duplicate retimes the same
    // base to the same clock (the dedupe key includes the clock), which
    // reproduces its representative's bits without counting a probe.
    let candidates = pending.iter().zip(cfgs).zip(assignment.iter());
    for (i, ((p, cfg), &slot)) in candidates.enumerate() {
        checkpoint("dse.probe")?;
        let Some(&rep_id) = rep_ids.get(slot) else {
            continue;
        };
        let Some(rep) = pending.get(rep_id) else {
            continue;
        };
        let chip = bases.get_mut(rep.base_slot).ok_or_else(|| {
            McpatError::config("dse.probe", "candidate references a missing row base")
        })?;
        chip.config.name.clone_from(&cfg.name);
        chip.retime(cfg.clock_hz)?;
        if rep_id == i {
            mcpat_guard::note_candidate();
            if cfg.core.enforce_timing {
                perf.full_builds += 1;
                mcpat_obs::record_dse_full_builds(1);
            } else {
                perf.probes += 1;
                mcpat_obs::record_dse_probes(1);
            }
        }
        let area = chip.die_area();
        let peak = chip.peak_power().total();
        if area > opts.budgets.max_area || peak > opts.budgets.max_peak_power {
            perf.rejected += 1;
            continue;
        }
        let metrics = evaluator.evaluate(chip);
        frontier.offer(FrontierPoint {
            name: cfg.name,
            cursor: p.cursor,
            area,
            peak_power: peak,
            metrics,
        });
    }
    Ok(())
}

/// Produces the base chip for `row` (the row's configuration at its
/// first clock point): a [`Delta::CacheSize`] rebuild of the previous
/// base when only the L2 axis moved, a full build otherwise.
fn advance_base(
    grid: &AxisGrid,
    row: u64,
    clocks_len: u64,
    l2_len: u64,
    last_base: &Option<(u64, Processor)>,
    perf: &mut DsePerf,
) -> Result<Processor, McpatError> {
    let base_cfg = grid
        .config_at(row * clocks_len)
        .ok_or_else(|| McpatError::config("dse.base", format!("row {row} is outside the grid")))?;
    if let Some((prev_row, chip)) = last_base {
        // A row that spans a chunk boundary carries its base over for
        // free.
        if *prev_row == row {
            return Ok(chip.clone());
        }
        let same_group = l2_len > 0 && prev_row / l2_len == row / l2_len;
        if same_group && !base_cfg.core.enforce_timing {
            if let Some(l2) = &base_cfg.l2 {
                perf.cache_rebuilds += 1;
                mcpat_obs::record_dse_probes(1);
                return chip.rebuild_with(Delta::CacheSize(l2.cache.capacity));
            }
        }
    }
    perf.full_builds += 1;
    mcpat_obs::record_dse_full_builds(1);
    Processor::build(&base_cfg)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn tiny_grid() -> AxisGrid {
        AxisGrid::manycore(
            vec![TechNode::N45, TechNode::N32],
            vec![DeviceType::Hp],
            vec![2, 4],
            vec![1 << 20, 2 << 20],
            vec![1.0e9, 1.5e9, 2.0e9],
        )
    }

    #[test]
    fn cursor_enumeration_is_a_clock_innermost_cross_product() {
        let grid = tiny_grid();
        // nodes × cores × L2 sizes × clocks; one flavor.
        assert_eq!(grid.total(), 2 * 2 * 2 * 3);
        let first = grid.config_at(0).expect("cursor 0");
        assert_eq!(first.name, "dse-0");
        assert_eq!(first.node, TechNode::N45);
        assert_eq!(first.num_cores, 2);
        assert!((first.clock_hz - 1.0e9).abs() < 1.0);
        // Adjacent cursors differ only in clock until the row rolls over.
        let second = grid.config_at(1).expect("cursor 1");
        assert!((second.clock_hz - 1.5e9).abs() < 1.0);
        assert_eq!(second.num_cores, first.num_cores);
        // The row after the clock axis rolls over moves the L2 axis.
        let next_row = grid.config_at(3).expect("cursor 3");
        assert_eq!(
            next_row.l2.as_ref().map(|l2| l2.cache.capacity),
            Some(2 << 20)
        );
        // Past the end there is nothing.
        assert!(grid.config_at(grid.total()).is_none());
    }

    #[test]
    fn empty_axes_are_rejected() {
        let mut grid = tiny_grid();
        grid.clocks_hz.clear();
        let d = grid.validate();
        assert!(d.has_errors());
        let mut bad = tiny_grid();
        bad.clocks_hz = vec![0.0];
        assert!(bad.validate().has_errors());
    }

    /// The naive reference: full-build every candidate in cursor order
    /// and offer it to a fresh frontier. The streaming engine must land
    /// on the exact same frontier bits.
    fn naive_frontier(grid: &AxisGrid, evaluator: &mut WorkloadModel) -> ParetoFrontier {
        let mut frontier = ParetoFrontier::new();
        for cursor in 0..grid.total() {
            let cfg = grid.config_at(cursor).expect("in range");
            let chip = Processor::build(&cfg).expect("naive build");
            let metrics = evaluator.evaluate(&chip);
            frontier.offer(FrontierPoint {
                name: cfg.name.clone(),
                cursor,
                area: chip.die_area(),
                peak_power: chip.peak_power().total(),
                metrics,
            });
        }
        frontier
    }

    fn assert_frontiers_bit_identical(a: &ParetoFrontier, b: &ParetoFrontier) {
        assert_eq!(a.len(), b.len(), "frontier sizes differ");
        for (x, y) in a.points().iter().zip(b.points().iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.cursor, y.cursor);
            assert_eq!(x.area.to_bits(), y.area.to_bits());
            assert_eq!(x.peak_power.to_bits(), y.peak_power.to_bits());
            assert_eq!(x.metrics.delay.to_bits(), y.metrics.delay.to_bits());
            assert_eq!(x.metrics.energy.to_bits(), y.metrics.energy.to_bits());
            assert_eq!(x.metrics.area.to_bits(), y.metrics.area.to_bits());
        }
        for (metric, (wa, wb)) in Metric::ALL.iter().zip(a.winners().iter().zip(b.winners())) {
            match (wa, wb) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.cursor, y.cursor, "winner for {metric:?} differs");
                    assert_eq!(
                        metric.of(&x.metrics).to_bits(),
                        metric.of(&y.metrics).to_bits(),
                        "winning value for {metric:?} differs"
                    );
                }
                (None, None) => {}
                _ => panic!("winner presence for {metric:?} differs"),
            }
        }
    }

    #[test]
    fn streaming_sweep_matches_the_naive_full_build_sweep_bit_for_bit() {
        let grid = tiny_grid();
        let opts = DseOptions {
            chunk: 5, // force several chunks and base handoffs across them
            ..DseOptions::default()
        };
        let result = dse(&grid, &opts, &mut WorkloadModel::default()).expect("streaming sweep");
        assert_eq!(result.perf.candidates, grid.total());
        // Every candidate either pruned, rejected, or offered.
        assert_eq!(
            result.frontier.offered() + result.perf.pruned + result.perf.rejected,
            grid.total()
        );
        // Delta rebuilds did the bulk of the work: one full build per
        // (node, flavor, cores) group, cache deltas inside a group.
        assert_eq!(result.perf.full_builds, 4);
        assert_eq!(result.perf.cache_rebuilds, 4);
        let naive = naive_frontier(&grid, &mut WorkloadModel::default());
        assert_frontiers_bit_identical(&result.frontier, &naive);
        // With pruning disabled the frontier is identical too (pruning
        // only skips work, never changes the surviving set).
        let unpruned = dse(
            &grid,
            &DseOptions {
                prune: false,
                ..opts
            },
            &mut WorkloadModel::default(),
        )
        .expect("unpruned sweep");
        assert_eq!(unpruned.perf.pruned, 0);
        assert_frontiers_bit_identical(&unpruned.frontier, &naive);
    }

    #[test]
    fn frontier_survivors_are_bit_identical_to_from_scratch_builds() {
        let grid = tiny_grid();
        let result = dse(&grid, &DseOptions::default(), &mut WorkloadModel::default())
            .expect("streaming sweep");
        assert!(!result.frontier.is_empty());
        for point in result.frontier.points() {
            let cfg = grid.config_at(point.cursor).expect("survivor in range");
            let chip = Processor::build(&cfg).expect("from-scratch build");
            let metrics = WorkloadModel::default().evaluate(&chip);
            assert_eq!(point.area.to_bits(), chip.die_area().to_bits());
            assert_eq!(
                point.peak_power.to_bits(),
                chip.peak_power().total().to_bits()
            );
            assert_eq!(point.metrics.energy.to_bits(), metrics.energy.to_bits());
            assert_eq!(point.metrics.delay.to_bits(), metrics.delay.to_bits());
        }
    }

    #[test]
    fn checkpoints_round_trip_through_json_exactly() {
        let grid = tiny_grid();
        let mut checkpoints: Vec<DseCheckpoint> = Vec::new();
        let opts = DseOptions {
            chunk: 4,
            checkpoint_every: 8,
            ..DseOptions::default()
        };
        let result = dse_streaming(&grid, &opts, &mut WorkloadModel::default(), None, |cp| {
            checkpoints.push(cp.clone());
            Ok(())
        })
        .expect("sweep with checkpoints");
        assert!(!checkpoints.is_empty());
        for cp in &checkpoints {
            let json = cp.to_json().expect("serialize");
            let back = DseCheckpoint::from_json(&json).expect("parse");
            assert_eq!(*cp, back);
            assert_frontiers_bit_identical(&cp.frontier(), &back.frontier());
        }
        // Resuming the final run from each checkpoint converges on the
        // same frontier bits as the uninterrupted sweep.
        for cp in &checkpoints {
            let resumed = dse_streaming(
                &grid,
                &opts,
                &mut WorkloadModel::default(),
                Some(cp),
                |_| Ok(()),
            )
            .expect("resumed sweep");
            assert_frontiers_bit_identical(&resumed.frontier, &result.frontier);
            assert_eq!(resumed.perf.candidates, result.perf.candidates);
            assert_eq!(resumed.perf.pruned, result.perf.pruned);
            assert_eq!(resumed.perf.rejected, result.perf.rejected);
        }
    }

    #[test]
    fn resume_rejects_a_checkpoint_from_a_different_grid() {
        let grid = tiny_grid();
        let mut checkpoints = Vec::new();
        let opts = DseOptions {
            chunk: 6,
            checkpoint_every: 6,
            ..DseOptions::default()
        };
        dse_streaming(&grid, &opts, &mut WorkloadModel::default(), None, |cp| {
            checkpoints.push(cp.clone());
            Ok(())
        })
        .expect("sweep");
        let cp = checkpoints.first().expect("at least one checkpoint");
        let mut other = tiny_grid();
        other.clocks_hz.push(3.0e9);
        let err = dse_streaming(
            &other,
            &opts,
            &mut WorkloadModel::default(),
            Some(cp),
            |_| Ok(()),
        )
        .expect_err("grid mismatch must be rejected");
        assert!(err.to_string().contains("different axis grid"));
        // Schema guard: corrupted text and wrong schema both fail.
        assert!(DseCheckpoint::from_json("{").is_err());
        let wrong = cp.to_json().expect("json").replace(CHECKPOINT_SCHEMA, "v0");
        assert!(DseCheckpoint::from_json(&wrong).is_err());
    }

    #[test]
    fn budgets_reject_candidates_before_they_reach_the_frontier() {
        let grid = tiny_grid();
        let opts = DseOptions {
            budgets: Budgets {
                max_area: 1e-9, // everything is over budget
                max_peak_power: f64::INFINITY,
            },
            ..DseOptions::default()
        };
        let result = dse(&grid, &opts, &mut WorkloadModel::default()).expect("sweep");
        assert!(result.frontier.is_empty());
        assert_eq!(result.perf.rejected, grid.total());
        // The exact clock-invariant area bound rejects whole rows before
        // any probe runs: only the row bases were ever built.
        assert_eq!(result.perf.probes, 0);
    }

    #[test]
    fn pruning_counts_and_dedupe_are_reported() {
        let mut grid = tiny_grid();
        // Duplicate clock points exercise the chunk dedupe.
        grid.clocks_hz = vec![1.0e9, 1.0e9, 2.0e9];
        let result =
            dse(&grid, &DseOptions::default(), &mut WorkloadModel::default()).expect("sweep");
        assert!(result.perf.deduped > 0);
        assert_eq!(
            result.frontier.offered() + result.perf.pruned + result.perf.rejected,
            grid.total()
        );
    }
}
