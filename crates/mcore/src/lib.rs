//! # mcpat-mcore — CPU core models for mcpat-rs
//!
//! McPAT decomposes a core into the units below; each is built from the
//! `mcpat-array` and `mcpat-circuit` substrates and reports area, timing,
//! per-event energies, and leakage. The [`core::CoreModel`] assembles
//! them, computes peak (TDP-style) power, and evaluates runtime power
//! from performance-simulator statistics ([`stats::CoreStats`]).
//!
//! * [`ifu`] — instruction fetch: I-cache, branch predictor, BTB, RAS,
//!   instruction buffer, decoders;
//! * [`rename`] — renaming unit: RAT, free list, dependency check;
//! * [`window`] — out-of-order machinery: issue queue (CAM wakeup), ROB;
//! * [`regfile`] — integer/FP register files;
//! * [`exu`] — ALUs, FPUs, multipliers, result bypass network;
//! * [`lsu`] — load/store queues and the D-cache;
//! * [`mmu`] — instruction and data TLBs;
//! * [`pipeline`] — pipeline latches and core-private clock load;
//! * [`core`] — the assembled core;
//! * [`config`] — architecture knobs plus presets for the four
//!   validation targets (Niagara, Niagara2, Alpha 21364, Xeon Tulsa).
//!
//! ```
//! use mcpat_mcore::config::CoreConfig;
//! use mcpat_mcore::core::CoreModel;
//! use mcpat_tech::{TechNode, DeviceType, TechParams};
//!
//! let tech = TechParams::new(TechNode::N90, DeviceType::Hp, 360.0);
//! let cfg = CoreConfig::niagara_like();
//! let core = CoreModel::build(&tech, &cfg)?;
//! assert!(core.area() > 0.0);
//! assert!(core.leakage().total() > 0.0);
//! # Ok::<(), mcpat_mcore::core::CoreBuildError>(())
//! ```

pub mod config;
pub mod core;
pub mod exu;
pub mod ifu;
pub mod lsu;
pub mod misc;
pub mod mmu;
pub mod pipeline;
pub mod regfile;
pub mod rename;
pub mod stats;
pub mod window;

pub use config::{CoreConfig, MachineType};
pub use core::{CoreModel, CorePower, PowerSink, PowerTotals};
pub use stats::CoreStats;
