//! # mobicore
//!
//! The paper's contribution: **MobiCore**, "an adaptive hybrid approach
//! for power-efficient CPU management on Android devices" (Broyde, 2017).
//!
//! MobiCore unifies the three mechanisms stock Android drives
//! independently — DVFS (governors), DCS (hotplug) and the global CPU
//! bandwidth quota — into one decision made every sampling period
//! (paper Figure 8):
//!
//! 1. run the stock **ondemand** estimate (`f_ondemand`);
//! 2. analyze the workload variation ΔU(t, t−1) and, when the overall
//!    load is low, shrink or restore the **bandwidth quota**
//!    (Table 2 / Algorithm 4.1.2 — [`bandwidth::BandwidthAnalyzer`]);
//! 3. re-evaluate the **number of active cores**: off-line cores whose
//!    individual load is under 10 %, bring cores in when the demanded
//!    capacity needs them ([`dcs::DcsPass`]);
//! 4. recompute the **per-core frequency** from Eq. (9):
//!    `f_new = f_ondemand · (K·q) · n_max / n`
//!    ([`mobicore_model::energy::mobicore_frequency`]).
//!
//! The [`MobiCore`] policy implements the simulator's
//! [`CpuPolicy`](mobicore_sim::CpuPolicy) slot, exactly where the thesis
//! installs its C implementation (the `userspace` governor hook).
//!
//! ```
//! use mobicore::MobiCore;
//! use mobicore_model::profiles;
//! use mobicore_sim::{SimConfig, Simulation};
//!
//! let profile = profiles::nexus5();
//! let policy = MobiCore::new(&profile);
//! let cfg = SimConfig::new(profile).with_duration_us(100_000).without_mpdecision();
//! let mut sim = Simulation::new(cfg, Box::new(policy))?;
//! let report = sim.run();
//! assert_eq!(report.policy, "mobicore");
//! # Ok::<(), mobicore_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod bandwidth;
pub mod config;
pub mod dcs;
pub mod extensions;
pub mod policy;
pub mod registry;

pub use bandwidth::BandwidthAnalyzer;
pub use config::{FrequencyRule, MobiCoreConfig};
pub use dcs::DcsPass;
pub use extensions::ThermalAwareMobiCore;
pub use policy::{DecisionSummary, MobiCore};
