#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! The pool fans out one level only. A chip build is milliseconds of
//! work, so it runs start to finish on its calling thread; only a
//! fan-out over independent items (candidates, DSE probes) submits
//! pool tasks. Pool counters are process-global, so this binary holds
//! a single test: nothing else may submit while it measures.

use mcpat::array::memo;
use mcpat::par::pool;
use mcpat::{Processor, ProcessorConfig};

#[test]
fn chip_builds_submit_no_pool_tasks_cold_or_warm() {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            mcpat::par::set_thread_override(0);
            memo::set_auto();
        }
    }
    let _reset = Reset;
    mcpat::par::set_thread_override(4);
    memo::set_enabled(true);

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
