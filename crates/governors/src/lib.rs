//! # mobicore-governors
//!
//! The stock Android/Linux CPU-management layer the MobiCore thesis
//! builds on and compares against (§2.2):
//!
//! * [`dvfs`] — the cpufreq governor framework and the governors the
//!   paper describes: `ondemand` (the Android default and MobiCore's
//!   base), `interactive`, `conservative`, `powersave`, `performance`
//!   (its sixth, `userspace`, is the hook MobiCore itself installs at:
//!   any [`CpuPolicy`](mobicore_sim::CpuPolicy));
//! * [`hotplug`] — dynamic core scaling (DCS) policies: the default
//!   load-threshold hotplug and a no-op policy;
//! * [`android`] — [`AndroidDefaultPolicy`]: ondemand + default hotplug,
//!   the baseline of every comparison in the paper's evaluation;
//! * [`adapter`] — [`GovernorPolicy`], which lifts any
//!   `DvfsGovernor` (+ optional `HotplugPolicy`) into the simulator's
//!   [`CpuPolicy`](mobicore_sim::CpuPolicy) slot;
//! * [`learned`] — [`LearnedGovernor`]: a seeded online-learning
//!   governor (contextual bandit over cores × frequency × quota) that
//!   the `mobicore-tournament` harness races against everything above.
//!
//! ```
//! use mobicore_governors::AndroidDefaultPolicy;
//! use mobicore_model::profiles;
//! use mobicore_sim::{SimConfig, Simulation};
//!
//! let profile = profiles::nexus5();
//! let policy = AndroidDefaultPolicy::new(&profile);
//! let cfg = SimConfig::new(profile).with_duration_us(100_000).without_mpdecision();
//! let mut sim = Simulation::new(cfg, Box::new(policy))?;
//! let report = sim.run();
//! assert_eq!(report.policy, "android-default");
//! # Ok::<(), mobicore_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod adapter;
pub mod android;
pub mod dvfs;
pub mod hotplug;
pub mod learned;

pub use adapter::GovernorPolicy;
pub use android::AndroidDefaultPolicy;
pub use dvfs::{
    Conservative, DvfsGovernor, Interactive, Ondemand, Performance, Powersave, Schedutil,
};
pub use hotplug::{DefaultHotplug, HotplugPolicy, NoHotplug, RqHotplug};
pub use learned::{LearnedConfig, LearnedGovernor, LearnedState};
