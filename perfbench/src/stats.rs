//! Order statistics over latency samples.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Samples per block of [`blocked_p99`]: the smallest count whose p99
/// has [`TAIL_SAMPLES`] samples beyond it.
pub const P99_BLOCK: usize = 100 * TAIL_SAMPLES + 10;

/// Samples a run needs for [`blocked_p99`]: one block.
pub const MIN_SAMPLES_P99: usize = P99_BLOCK;

/// Sorts a copy of `xs` (NaN-free by construction: every sample is a
/// measured duration or count).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `q` in `(0, 1]` of sorted samples, with the
/// count of samples strictly beyond it.
fn nearest_rank(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some((sorted[rank - 1], sorted.len() - rank))
}

/// Percentile `q` of sorted samples, or `None` when fewer than
/// [`TAIL_SAMPLES`] samples lie beyond it — a tail estimate resting on a
/// handful of points is noise, so it is never reported.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    nearest_rank(sorted, q).and_then(|(v, beyond)| (beyond >= TAIL_SAMPLES).then_some(v))
}

/// The run's p99: the median, over blocks of [`P99_BLOCK`] consecutive
/// samples (half-overlapping), of each block's p99, with the block count.
/// Every block's p99 has ten samples beyond it; taking the median over
/// blocks keeps one burst of host noise from setting the figure. `None`
/// below [`MIN_SAMPLES_P99`] samples.
pub fn blocked_p99(in_order: &[f64]) -> Option<(f64, usize)> {
    if in_order.len() < MIN_SAMPLES_P99 {
        return None;
    }
    let stride = P99_BLOCK / 2;
    let blocks: Vec<f64> = (0..=(in_order.len() - P99_BLOCK) / stride)
        .filter_map(|b| {
            tail_percentile(&sorted(&in_order[b * stride..b * stride + P99_BLOCK]), 0.99)
        })
        .collect();
    Some((median(&blocks), blocks.len()))
}

/// Median (mean of the two middle samples for even counts).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles (nearest rank).
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let q = |p| nearest_rank(sorted, p).map_or(f64::NAN, |(v, _)| v);
    (q(0.25), q(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        for n in [1usize, 10, 100, 500, 999] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(tail_percentile(&xs, 0.99), None, "n={n}");
        }
        let xs: Vec<f64> = (0..MIN_SAMPLES_P99).map(|i| i as f64).collect();
        let p = tail_percentile(&xs, 0.99).expect("enough samples");
        let beyond = xs.iter().filter(|&&x| x > p).count();
        assert!(beyond >= TAIL_SAMPLES, "{beyond}");
    }

    #[test]
    fn reported_tails_always_leave_ten_beyond() {
        for n in 1..3000usize {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            for q in [0.5, 0.9, 0.99, 0.999] {
                if let Some(p) = tail_percentile(&xs, q) {
                    let beyond = xs.iter().filter(|&&x| x > p).count();
                    assert!(beyond >= TAIL_SAMPLES, "n={n} q={q} beyond={beyond}");
                }
            }
        }
    }

    #[test]
    fn blocked_p99_keeps_ten_beyond_in_every_block() {
        assert_eq!(blocked_p99(&vec![1.0; MIN_SAMPLES_P99 - 1]), None);
        assert_eq!(blocked_p99(&vec![1.0; MIN_SAMPLES_P99]), Some((1.0, 1)));
        // One burst of slow samples in one block does not set the figure.
        let mut xs: Vec<f64> = (0..5 * P99_BLOCK).map(|i| (i % 100) as f64).collect();
        for x in xs.iter_mut().take(P99_BLOCK / 2) {
            *x = 1e6;
        }
        let (p, blocks) = blocked_p99(&xs).expect("enough samples");
        assert_eq!(blocks, 9);
        assert!(p < 100.0, "{p}");
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = sorted(&(1..=8).map(f64::from).collect::<Vec<_>>());
        assert_eq!(quartiles(&s), (2.0, 6.0));
    }
}
