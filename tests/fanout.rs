#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! The pool fans out one level only. A chip build is milliseconds of
//! work, and a DSE clock probe microseconds, so both run start to
//! finish on their calling thread; only a fan-out over independent
//! candidates (`explore`, `explore_batch`) submits pool tasks. Pool
//! counters and the thread override are process-global, so the tests
//! in this binary take one lock: nothing else may submit while one
//! measures.

use mcpat::array::memo;
use mcpat::par::pool;
use mcpat::tech::{DeviceType, TechNode};
use mcpat::{AxisGrid, DseOptions, Processor, ProcessorConfig, WorkloadModel};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests and sets the pool up for them: 4 threads and
/// the solve cache on, both restored when the guard drops.
fn four_threads() -> impl Drop {
    static LOCK: Mutex<()> = Mutex::new(());
    struct Reset {
        _lock: MutexGuard<'static, ()>,
    }
    impl Drop for Reset {
        fn drop(&mut self) {
            mcpat::par::set_thread_override(0);
            memo::set_auto();
        }
    }
    let reset = Reset {
        _lock: LOCK.lock().unwrap_or_else(PoisonError::into_inner),
    };
    mcpat::par::set_thread_override(4);
    memo::set_enabled(true);
    reset
}

#[test]
fn dse_sweeps_submit_no_pool_tasks() {
    let _pool = four_threads();
    let grid = AxisGrid::manycore(
        vec![TechNode::N45],
        vec![DeviceType::Hp],
        vec![2, 4],
        vec![1 << 20, 2 << 20],
        (0..10).map(|i| 1.0e9 + 0.2e9 * f64::from(i)).collect(),
    );
    let before = pool::stats();
    let result = mcpat::dse(&grid, &DseOptions::default(), &mut WorkloadModel::default()).unwrap();
    let after = pool::stats();
    assert!(
        result.perf.probes > 0,
        "the sweep must probe: {:?}",
        result.perf
    );
    assert_eq!(
        after.submitted, before.submitted,
        "a DSE sweep submitted pool tasks"
    );
}

#[test]
fn chip_builds_submit_no_pool_tasks_cold_or_warm() {
    let _pool = four_threads();

    for cfg in [
        ProcessorConfig::niagara(),
        ProcessorConfig::niagara2(),
        ProcessorConfig::alpha21364(),
        ProcessorConfig::tulsa(),
    ] {
        memo::clear();
        for pass in ["cold", "warm"] {
            let before = pool::stats();
            let chip = Processor::build(&cfg).unwrap();
            let after = pool::stats();
            assert_eq!(chip.perf.threads, 4);
            assert_eq!(
                after.submitted, before.submitted,
                "{} {pass} build submitted pool tasks",
                cfg.name
            );
        }
    }
}
