//! # mobicore-sim
//!
//! A discrete-time (1 ms tick) simulator of an Android phone's CPU
//! subsystem, standing in for the rooted Nexus 5 + Monsoon power monitor
//! testbed of the MobiCore thesis (see DESIGN.md §2 for the substitution
//! argument).
//!
//! The moving parts mirror the Android/Linux stack the thesis tweaks:
//!
//! * [`cores`] — per-core hotplug/DVFS state with transition latencies,
//! * [`sched`] — a CFS-flavoured scheduler producing the per-core
//!   utilization signal every policy keys off,
//! * [`bandwidth`] — the CFS-bandwidth-style global quota controller
//!   MobiCore's Table-2 algorithm drives,
//! * [`thermal`] — RC package thermals plus the msm_thermal-like OPP
//!   throttle,
//! * [`meter`] — a Monsoon-like whole-device power meter,
//! * [`sysfs`] / [`adb`] — the `/sys/devices/system/cpu/...` paths, read
//!   as a view of simulator state, and an `adb shell` front end
//!   (`stop mpdecision`, `echo 0 > .../online`, ...),
//! * [`policy`] — the [`CpuPolicy`] trait governors and MobiCore implement,
//! * [`workload`] — the [`Workload`] trait apps implement
//!   (`mobicore-workloads` provides the paper's busy loop, GeekBench-like
//!   suite and games) and the [`Wake`] times they declare, which let the
//!   event-driven engine (`SimEngine::EventDriven`) jump over
//!   provably-quiet ticks while staying byte-identical to the cyclic
//!   loop (see docs/simulator.md),
//! * [`fleet`] — [`FleetSim`], one event scheduler multiplexing many
//!   device simulations through a shared `(wake_time, device_id)` heap,
//!   byte-identical to independent per-device runs.
//!
//! # Example
//!
//! Measure a fixed operating point, like the characterization sweeps of
//! paper §3:
//!
//! ```
//! use mobicore_sim::{SimConfig, Simulation, builtin::PinnedPolicy};
//! use mobicore_model::{profiles, Khz};
//!
//! let cfg = SimConfig::new(profiles::nexus5())
//!     .with_duration_us(200_000)
//!     .without_mpdecision();
//! let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(2, Khz(960_000))))?;
//! let report = sim.run();
//! assert!(report.avg_power_mw > 0.0);
//! # Ok::<(), mobicore_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod adb;
pub mod analysis;
pub mod bandwidth;
pub mod builtin;
pub mod config;
pub mod cores;
pub mod error;
pub mod fleet;
pub mod meter;
pub mod policy;
pub mod report;
pub mod sched;
mod sim;
pub mod sysfs;
pub mod thermal;
pub mod trace;
pub mod workload;

pub use config::{SimConfig, SimEngine, TraceLevel, ENGINE_ENV, ENGINE_NAMES};
pub use error::SimError;
pub use fleet::FleetSim;
pub use policy::{Command, CoreId, CoreSnapshot, CpuControl, CpuPolicy, PolicySnapshot};
pub use report::SimReport;
pub use sim::Simulation;
pub use workload::{Completion, Metric, ThreadId, Wake, Workload, WorkloadReport, WorkloadRt};
