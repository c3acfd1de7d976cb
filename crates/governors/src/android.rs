//! The Android default policy: `ondemand` DVFS plus the stock hotplug —
//! the baseline MobiCore is evaluated against throughout paper §6.

use crate::adapter::GovernorPolicy;
use crate::dvfs::Ondemand;
use crate::hotplug::DefaultHotplug;
use mobicore_model::DeviceProfile;

/// `ondemand` + default hotplug, sampled at 20 ms like the stock stack.
///
/// A namespace: both constructors return a configured
/// [`GovernorPolicy`].
///
/// Remember the thesis' setup step: on a stock phone `mpdecision` blocks
/// off-lining, so runs that should exercise DCS must start with
/// [`SimConfig::without_mpdecision`](mobicore_sim::SimConfig::without_mpdecision)
/// or issue `stop mpdecision` over [`Simulation::adb`](mobicore_sim::Simulation::adb).
#[derive(Debug)]
pub struct AndroidDefaultPolicy;

impl AndroidDefaultPolicy {
    /// The stock configuration for `profile`, named `android-default`.
    // `new` returns the configured policy rather than `Self` so that
    // every `Box::new(AndroidDefaultPolicy::new(&p))` call site reads as
    // before.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(profile: &DeviceProfile) -> GovernorPolicy {
        GovernorPolicy::with_hotplug(
            Box::new(Ondemand::new()),
            Box::new(DefaultHotplug::new()),
            profile.opps().clone(),
        )
        .named("android-default")
    }

    /// DVFS-only variant (hotplug disabled), for experiments isolating the
    /// governor.
    pub fn dvfs_only(profile: &DeviceProfile) -> GovernorPolicy {
        GovernorPolicy::dvfs_only(Box::new(Ondemand::new()), profile.opps().clone())
            .named("android-ondemand-only")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicore_model::profiles;
    use mobicore_sim::{SimConfig, Simulation};
    use mobicore_workloads::{BusyLoop, RateLoad};

    #[test]
    fn idles_down_to_one_slow_core() {
        let profile = profiles::nexus5();
        let f_max = profile.opps().max_khz();
        let cfg = SimConfig::new(profile.clone())
            .with_duration_secs(10)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, Box::new(AndroidDefaultPolicy::new(&profile))).unwrap();
        sim.add_workload(Box::new(BusyLoop::with_target_util(1, 0.05, f_max, 3)));
        let report = sim.run();
        assert!(
            report.avg_online_cores < 2.0,
            "idle phone should shed cores: {}",
            report.avg_online_cores
        );
        assert!(
            report.avg_khz_online < f64::from(f_max.0) * 0.5,
            "idle phone should clock down: {}",
            report.avg_khz_online
        );
    }

    #[test]
    fn bursts_to_max_under_load() {
        let profile = profiles::nexus5();
        let f_max = profile.opps().max_khz();
        let cfg = SimConfig::new(profile.clone())
            .with_duration_secs(5)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, Box::new(AndroidDefaultPolicy::new(&profile))).unwrap();
        sim.add_workload(Box::new(RateLoad::constant(4, f_max, 0.95)));
        let report = sim.run();
        assert!(
            report.avg_online_cores > 3.0,
            "heavy load should use most cores: {}",
            report.avg_online_cores
        );
        assert!(
            report.avg_khz_online > f64::from(f_max.0) * 0.6,
            "heavy load should clock up: {}",
            report.avg_khz_online
        );
    }

    #[test]
    fn mpdecision_blocks_offlining() {
        let profile = profiles::nexus5();
        let f_max = profile.opps().max_khz();
        // mpdecision left ENABLED (stock state)
        let cfg = SimConfig::new(profile.clone()).with_duration_secs(5);
        let mut sim = Simulation::new(cfg, Box::new(AndroidDefaultPolicy::new(&profile))).unwrap();
        sim.add_workload(Box::new(BusyLoop::with_target_util(1, 0.05, f_max, 3)));
        let report = sim.run();
        assert!(
            (report.avg_online_cores - 4.0).abs() < 1e-6,
            "stock mpdecision must keep all cores online: {}",
            report.avg_online_cores
        );
        assert!(report.rejected_offline_requests > 0);
    }

    #[test]
    fn stop_mpdecision_over_adb_unlocks_dcs() {
        let profile = profiles::nexus5();
        let f_max = profile.opps().max_khz();
        let cfg = SimConfig::new(profile.clone()).with_duration_secs(8);
        let mut sim = Simulation::new(cfg, Box::new(AndroidDefaultPolicy::new(&profile))).unwrap();
        sim.add_workload(Box::new(BusyLoop::with_target_util(1, 0.05, f_max, 3)));
        sim.adb("stop mpdecision").unwrap();
        let report = sim.run();
        assert!(
            report.avg_online_cores < 2.5,
            "after stop mpdecision cores can leave: {}",
            report.avg_online_cores
        );
    }
}
