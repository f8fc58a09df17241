//! The calibration op: a fixed piece of work that no change to the
//! program can alter, timed next to the program's ops so that the gated
//! end-to-end figures read at a fixed host speed.
//!
//! On a shared VM the speed of the host drifts by 10–20% over minutes
//! (other tenants on the same cores and memory), and every timing moves
//! with it, CPU time included. An op of the program and a calibration op
//! timed close together see the same host, so their ratio holds still
//! while both raw times drift.
//!
//! The calibration op is a process, like the program's ops: a spawner of
//! its own starts this binary with `--calibrate`, which runs [`kernel`]
//! and exits. It mixes what an evaluation does — process start, threads
//! on every CPU, heap allocation and fresh pages, floating-point math,
//! sorting, ordered maps and text formatting. It has no socket round
//! trips: timed on their own, loopback wake-ups drifted apart from the
//! program's ops and made the ratios noisier, not steadier.

use crate::gen::Rng;
use crate::sys::Spawner;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::sync::Mutex;

/// Elements per pass of the kernel.
const N: usize = 4096;
/// Compute passes per thread.
const PASSES: usize = 1;
/// Fresh heap each thread writes, one page at a time, in 64 KiB blocks.
const TOUCH_BYTES: usize = 1 << 20;

/// One thread's share: compute passes plus page faults on fresh heap.
fn share(stream: u64) -> u64 {
    let mut rng = Rng::new(0x5EED, stream);
    let mut sum = 0u64;
    for _ in 0..PASSES {
        let mut xs: Vec<f64> = (0..N)
            .map(|_| {
                let u = rng.unit() + 1e-3;
                (u.ln() * u.sqrt()).exp() / (1.0 + u * u)
            })
            .collect();
        xs.sort_by(f64::total_cmp);
        let mut map = BTreeMap::new();
        for (i, x) in xs.iter().enumerate() {
            map.insert(x.to_bits() ^ (i as u64).rotate_left(17), i);
        }
        let mut text = String::with_capacity(16 * N);
        for (k, v) in map.iter().step_by(4) {
            let _ = write!(text, "{k:x}:{v:.3e};", v = *v as f64 * 0.5);
        }
        sum = sum.wrapping_add(text.len() as u64) ^ map.len() as u64;
    }
    let blocks: Vec<Vec<u8>> = (0..TOUCH_BYTES >> 16)
        .map(|b| {
            let mut block = vec![0u8; 1 << 16];
            for page in block.chunks_mut(4096) {
                page[0] = b as u8;
            }
            block
        })
        .collect();
    sum ^ blocks.iter().map(|b| u64::from(b[4096])).sum::<u64>()
}

/// The fixed work, split over as many threads as the program's pool
/// uses (one per CPU); returns a checksum so none of it can be
/// optimised away.
pub fn kernel() -> u64 {
    let threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || share(t))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(0))
            .fold(0, u64::wrapping_add)
    })
}

/// Entry point of `perfbench --calibrate`.
pub fn calibrate_main() {
    println!("{}", kernel());
}

/// Runs calibration processes from a spawner of its own, so their CPU
/// time and peak RSS never mix with those of the `mcpat` processes.
pub struct Calibrator {
    spawner: Mutex<Spawner>,
    /// What every calibration process must print.
    expect: Vec<u8>,
}

impl Calibrator {
    pub fn new() -> io::Result<Calibrator> {
        Ok(Calibrator {
            spawner: Mutex::new(Spawner::start(&std::env::current_exe()?)?),
            expect: format!("{}\n", kernel()).into_bytes(),
        })
    }

    /// Runs one calibration process; returns spawn to exit in ms.
    pub fn run_ms(&self) -> io::Result<f64> {
        let run = self
            .spawner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .run(&["--calibrate"])?;
        if !run.success() || run.stdout != self.expect {
            return Err(io::Error::other(
                "a calibration op printed a wrong checksum",
            ));
        }
        Ok(run.secs * 1e3)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(super::kernel(), super::kernel());
    }
}
