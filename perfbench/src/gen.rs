//! Seeded input generation. The program under test sees only what these
//! functions produce; the same seed always yields byte-identical inputs.

use mcpat::mcore::config::CoreConfig;
use mcpat::tech::{DeviceType, TechNode};
use mcpat::{AxisGrid, ProcessorConfig};

/// SplitMix64: tiny, fast and fully specified, so inputs never depend on
/// a library's RNG algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-50 here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The nodes the seeded variants span (the paper's 90 nm .. 22 nm range).
const NODES: [TechNode; 5] = [
    TechNode::N90,
    TechNode::N65,
    TechNode::N45,
    TechNode::N32,
    TechNode::N22,
];

const FLAVORS: [DeviceType; 3] = [DeviceType::Hp, DeviceType::Lstp, DeviceType::Lop];

const CORES: [u32; 4] = [2, 4, 8, 16];
const CLUSTER: [u32; 3] = [1, 2, 4];
const L2_BYTES: [u64; 4] = [256 << 10, 512 << 10, 1 << 20, 2 << 20];

/// Every (node, flavor) pair once. Workloads draw strata in balanced
/// rounds so two seeds see the same mix of cheap and costly chips.
pub fn strata() -> Vec<(TechNode, DeviceType)> {
    NODES
        .iter()
        .flat_map(|&n| FLAVORS.iter().map(move |&f| (n, f)))
        .collect()
}

/// A manycore variant of `stratum` with seeded cores, cluster size, L2
/// capacity and clock (1.0 to 3.0 GHz in 100 MHz steps).
pub fn variant(rng: &mut Rng, name: &str, stratum: (TechNode, DeviceType)) -> ProcessorConfig {
    let cores = rng.pick(&CORES);
    variant_with_cores(rng, name, stratum, cores)
}

/// [`variant`] with a given core count.
fn variant_with_cores(
    rng: &mut Rng,
    name: &str,
    stratum: (TechNode, DeviceType),
    cores: u32,
) -> ProcessorConfig {
    let cluster = rng.pick(&CLUSTER).min(cores);
    let l2 = rng.pick(&L2_BYTES);
    let mut cfg = ProcessorConfig::manycore(
        name,
        stratum.0,
        CoreConfig::generic_inorder(),
        cores,
        cluster,
        l2,
    );
    cfg.device_type = stratum.1;
    let clock = (10 + rng.below(21)) as f64 * 1e8;
    cfg.clock_hz = clock;
    cfg.core.clock_hz = clock;
    cfg
}

/// `per_stratum` variants of every stratum, in seeded order.
fn balanced_variants(rng: &mut Rng, prefix: &str, per_stratum: usize) -> Vec<ProcessorConfig> {
    let mut picks: Vec<(TechNode, DeviceType)> = (0..per_stratum).flat_map(|_| strata()).collect();
    rng.shuffle(&mut picks);
    picks
        .into_iter()
        .enumerate()
        .map(|(i, s)| variant(rng, &format!("{prefix}-{i}"), s))
        .collect()
}

/// The four published chips, by `mcpat --preset` name.
pub const PRESETS: [&str; 4] = ["niagara", "niagara2", "alpha21364", "tulsa"];

pub fn preset(name: &str) -> ProcessorConfig {
    mcpat_serve::preset(name).unwrap_or_else(|| panic!("`{name}` is a built-in preset"))
}

/// `cli-oneshot`: the four published presets plus four seeded manycore
/// variants of every (node, flavor) stratum.
pub fn cli_configs(seed: u64) -> Vec<ProcessorConfig> {
    let mut rng = Rng::new(seed, 1);
    let mut out: Vec<ProcessorConfig> = PRESETS.iter().map(|p| preset(p)).collect();
    out.extend(balanced_variants(&mut rng, "cli", 4));
    out
}

/// One `serve-mixed` request target.
#[derive(Debug, Clone)]
pub struct ServeTarget {
    pub config: ProcessorConfig,
    /// Sent as `"preset":<name>` instead of an inline config.
    pub preset: Option<&'static str>,
}

/// Share of `serve-mixed` requests drawn from the hot head.
pub const SERVE_HEAD_SHARE: f64 = 0.9;
/// Inline head variants: two of each core count, so that every seed's
/// head costs alike.
pub const SERVE_HEAD_VARIANTS: usize = 8;
/// Tail population: every tail config has its own junction temperature,
/// which enters every solve key, so the tail's ~16 keys per config add
/// up to about 6400 distinct keys — past the 4096-entry cache cap.
pub const SERVE_TAIL: usize = 400;

/// `serve-mixed` population: head (presets + variants) first, then the
/// cold tail.
pub fn serve_targets(seed: u64) -> Vec<ServeTarget> {
    let mut rng = Rng::new(seed, 2);
    let mut out: Vec<ServeTarget> = PRESETS
        .iter()
        .map(|&p| ServeTarget {
            config: preset(p),
            preset: Some(p),
        })
        .collect();
    let mut head_strata = strata();
    rng.shuffle(&mut head_strata);
    for (i, &s) in head_strata.iter().take(SERVE_HEAD_VARIANTS).enumerate() {
        out.push(ServeTarget {
            config: variant_with_cores(&mut rng, &format!("head-{i}"), s, CORES[i % CORES.len()]),
            preset: None,
        });
    }
    let all = strata();
    for i in 0..SERVE_TAIL {
        let mut cfg = variant(&mut rng, &format!("tail-{i}"), all[i % all.len()]);
        cfg.temperature_k = 330.0 + (i as f64 + rng.unit()) * (40.0 / SERVE_TAIL as f64);
        out.push(ServeTarget {
            config: cfg,
            preset: None,
        });
    }
    out
}

pub fn serve_head_len() -> usize {
    PRESETS.len() + SERVE_HEAD_VARIANTS
}

/// The request sequence of one `serve-mixed` connection: indices into
/// [`serve_targets`].
pub struct ServeSequence {
    rng: Rng,
    head: usize,
    total: usize,
}

impl ServeSequence {
    pub fn new(seed: u64, conn: u64, total: usize) -> ServeSequence {
        ServeSequence {
            rng: Rng::new(seed, 100 + conn),
            head: serve_head_len(),
            total,
        }
    }
}

impl Iterator for ServeSequence {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        Some(if self.rng.unit() < SERVE_HEAD_SHARE {
            self.rng.below(self.head)
        } else {
            self.head + self.rng.below(self.total - self.head)
        })
    }
}

/// Clock points per DSE row; core counts and L2 sizes per sweep.
pub const SWEEP_CLOCKS: usize = 50;
pub const SWEEP_CORE_COUNTS: usize = 2;
pub const SWEEP_L2_SIZES: usize = 2;
pub const SWEEP_CANDIDATES: usize = SWEEP_CLOCKS * SWEEP_CORE_COUNTS * SWEEP_L2_SIZES;

/// One `dse-sweep` sweep (200 candidates): a clock-innermost grid of one stratum, two
/// core counts and two L2 sizes — four rows, each anchored by a full
/// build or an L2 rebuild, with clock probes for the rest.
pub fn sweep_grid(seed: u64, index: u64) -> AxisGrid {
    let mut order = strata();
    Rng::new(seed, 2_000_000 + index / order.len() as u64).shuffle(&mut order);
    let (node, flavor) = order[(index % order.len() as u64) as usize];
    let mut rng = Rng::new(seed, 1_000_000 + index);
    let mut cores = vec![4u32, 8, 16];
    rng.shuffle(&mut cores);
    cores.truncate(SWEEP_CORE_COUNTS);
    cores.sort_unstable();
    let mut l2 = L2_BYTES.to_vec();
    rng.shuffle(&mut l2);
    l2.truncate(SWEEP_L2_SIZES);
    l2.sort_unstable();
    let lo = 1.0e9 + rng.unit() * 0.5e9;
    let step = 1.5e9 / (SWEEP_CLOCKS - 1) as f64;
    let clocks = (0..SWEEP_CLOCKS).map(|i| lo + step * i as f64).collect();
    AxisGrid::manycore(vec![node], vec![flavor], cores, l2, clocks)
}

/// The `mcpat dse --axes` spec of `grid`. Clocks are listed one by one;
/// Rust's shortest round-trip float formatting makes the CLI parse back
/// exactly the bench's values.
pub fn axes_spec(grid: &AxisGrid) -> String {
    let join = |v: Vec<String>| v.join(",");
    format!(
        "nodes={};flavors={};cores={};l2={};clocks={}",
        join(
            grid.nodes
                .iter()
                .map(|n| format!("{}", n.feature_nm() as u32))
                .collect()
        ),
        join(
            grid.device_types
                .iter()
                .map(|d| d.to_string().to_ascii_lowercase())
                .collect()
        ),
        join(grid.core_counts.iter().map(u32::to_string).collect()),
        join(grid.l2_bytes.iter().map(u64::to_string).collect()),
        join(grid.clocks_hz.iter().map(f64::to_string).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes<T: serde::Serialize>(v: &T) -> String {
        serde_json::to_string(v).expect("configs serialize")
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for seed in [1, 7, 12345] {
            assert_eq!(bytes(&cli_configs(seed)), bytes(&cli_configs(seed)));
            let a: Vec<String> = serve_targets(seed)
                .iter()
                .map(|t| bytes(&t.config))
                .collect();
            let b: Vec<String> = serve_targets(seed)
                .iter()
                .map(|t| bytes(&t.config))
                .collect();
            assert_eq!(a, b);
            let total = a.len();
            let s1: Vec<usize> = ServeSequence::new(seed, 0, total).take(500).collect();
            let s2: Vec<usize> = ServeSequence::new(seed, 0, total).take(500).collect();
            assert_eq!(s1, s2);
            for i in 0..20 {
                assert_eq!(
                    axes_spec(&sweep_grid(seed, i)),
                    axes_spec(&sweep_grid(seed, i))
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(bytes(&cli_configs(1)), bytes(&cli_configs(2)));
        assert_ne!(axes_spec(&sweep_grid(1, 0)), axes_spec(&sweep_grid(2, 0)));
    }

    #[test]
    fn tail_temperatures_are_distinct_and_valid() {
        let targets = serve_targets(3);
        let mut temps: Vec<u64> = targets[serve_head_len()..]
            .iter()
            .map(|t| t.config.temperature_k.to_bits())
            .collect();
        temps.sort_unstable();
        temps.dedup();
        assert_eq!(temps.len(), SERVE_TAIL);
        for t in &targets {
            assert!(
                t.config.validate().into_result().is_ok(),
                "{}",
                t.config.name
            );
        }
    }

    #[test]
    fn axes_spec_round_trips_every_clock() {
        let grid = sweep_grid(5, 3);
        let spec = axes_spec(&grid);
        let clocks = spec.split("clocks=").nth(1).expect("clock axis");
        let parsed: Vec<f64> = clocks
            .split(',')
            .map(|s| s.parse().expect("float"))
            .collect();
        assert_eq!(
            parsed.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            grid.clocks_hz
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(grid.total(), SWEEP_CANDIDATES as u64);
    }
}
