//! Lifts a [`DvfsGovernor`] plus an optional [`HotplugPolicy`] into the
//! simulator's [`CpuPolicy`] slot — the two "neither unified nor
//! coordinated" interfaces of the stock stack (§1.1), glued together only
//! by running off the same sampling tick.

use crate::dvfs::DvfsGovernor;
use crate::hotplug::HotplugPolicy;
use mobicore_model::OppTable;
use mobicore_sim::{CpuControl, CpuPolicy, PolicySnapshot};
use mobicore_telemetry::EventData;

/// The DVFS sampling period, µs (cpufreq's 20 ms).
const SAMPLING_US: u64 = 20_000;

/// A composed DVFS + DCS policy.
pub struct GovernorPolicy {
    dvfs: Box<dyn DvfsGovernor + Send>,
    hotplug: Option<Box<dyn HotplugPolicy + Send>>,
    opps: OppTable,
    name: String,
    /// How often the hotplug half runs, in DVFS samples (the kernel's
    /// hotplug loops are slower than cpufreq's; default 5 ⇒ 100 ms at a
    /// 20 ms DVFS sample).
    hotplug_every: u32,
    sample_count: u32,
}

impl std::fmt::Debug for GovernorPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GovernorPolicy")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl GovernorPolicy {
    /// DVFS-only operation (all cores stay online).
    pub fn dvfs_only(dvfs: Box<dyn DvfsGovernor + Send>, opps: OppTable) -> Self {
        let name = dvfs.name().to_string();
        GovernorPolicy {
            dvfs,
            hotplug: None,
            opps,
            name,
            hotplug_every: 5,
            sample_count: 0,
        }
    }

    /// DVFS plus hotplug.
    pub fn with_hotplug(
        dvfs: Box<dyn DvfsGovernor + Send>,
        hotplug: Box<dyn HotplugPolicy + Send>,
        opps: OppTable,
    ) -> Self {
        let name = format!("{}+{}", dvfs.name(), hotplug.name());
        GovernorPolicy {
            dvfs,
            hotplug: Some(hotplug),
            opps,
            name,
            hotplug_every: 5,
            sample_count: 0,
        }
    }

    /// Overrides the display name.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

impl CpuPolicy for GovernorPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn sampling_period_us(&self) -> u64 {
        SAMPLING_US
    }

    fn on_sample(&mut self, snap: &PolicySnapshot, ctl: &mut CpuControl) {
        // DVFS half: one cluster-wide frequency.
        let khz = self.dvfs.target(snap, &self.opps);
        let from_khz = snap
            .cores
            .iter()
            .find(|c| c.online)
            .map_or(0, |c| c.target_khz.0);
        if khz.0 != from_khz {
            ctl.note(EventData::DvfsDecision {
                governor: self.dvfs.name().to_string(),
                util_pct: snap.overall_util.as_fraction() * 100.0,
                from_khz,
                to_khz: khz.0,
            });
        }
        ctl.set_freq_all(khz);

        // DCS half, at its slower cadence.
        if let Some(hp) = &mut self.hotplug {
            if self.sample_count.is_multiple_of(self.hotplug_every) {
                let want = hp.target_online(snap).clamp(1, snap.cores.len());
                let online_now = snap.online_count();
                if want != online_now {
                    ctl.note(EventData::HotplugDecision {
                        policy: hp.name().to_string(),
                        online_now,
                        want,
                    });
                }
                if want > online_now {
                    // bring in the lowest offline ids first
                    let mut need = want - online_now;
                    for (i, c) in snap.cores.iter().enumerate() {
                        if need == 0 {
                            break;
                        }
                        if !c.online {
                            ctl.set_online(i, true);
                            need -= 1;
                        }
                    }
                } else if want < online_now {
                    // drop the highest online ids first (never core 0)
                    let mut need = online_now - want;
                    for (i, c) in snap.cores.iter().enumerate().rev() {
                        if need == 0 || i == 0 {
                            break;
                        }
                        if c.online {
                            ctl.set_online(i, false);
                            need -= 1;
                        }
                    }
                }
            }
        }
        self.sample_count = self.sample_count.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::{Ondemand, Performance};
    use crate::hotplug::DefaultHotplug;
    use mobicore_model::{profiles, Khz, Quota, Utilization};
    use mobicore_sim::{Command, CoreSnapshot};

    fn snap(loads: &[f64]) -> PolicySnapshot {
        let cores: Vec<CoreSnapshot> = loads
            .iter()
            .map(|&l| CoreSnapshot {
                online: l >= 0.0,
                cur_khz: Khz(300_000),
                target_khz: Khz(300_000),
                util: Utilization::from_percent(l.max(0.0)),
                busy_us: 0,
            })
            .collect();
        PolicySnapshot {
            now_us: 0,
            window_us: 20_000,
            overall_util: Utilization::new(
                cores.iter().map(|c| c.util.as_fraction()).sum::<f64>() / cores.len() as f64,
            ),
            cores,
            quota: Quota::FULL,
            mpdecision_enabled: false,
            max_runnable_threads: 8,
            temp_c: 25.0,
        }
    }

    #[test]
    fn dvfs_only_sets_cluster_freq() {
        let opps = profiles::nexus5().opps().clone();
        let mut p = GovernorPolicy::dvfs_only(Box::new(Performance::new()), opps.clone());
        let mut ctl = CpuControl::new();
        p.on_sample(&snap(&[10.0, 10.0, 10.0, 10.0]), &mut ctl);
        let cmds = ctl.take();
        assert_eq!(
            cmds,
            vec![Command::SetFreqAll {
                khz: opps.max_khz()
            }]
        );
        assert_eq!(p.name(), "performance");
    }

    #[test]
    fn hotplug_offlines_highest_ids_first() {
        let opps = profiles::nexus5().opps().clone();
        let mut p = GovernorPolicy::with_hotplug(
            Box::new(Ondemand::new()),
            Box::new(DefaultHotplug::new()),
            opps,
        );
        let mut ctl = CpuControl::new();
        p.on_sample(&snap(&[5.0, 5.0, 5.0, 5.0]), &mut ctl);
        let cmds = ctl.take();
        assert!(cmds.contains(&Command::SetOnline {
            core: 3,
            online: false
        }));
        assert!(!cmds
            .iter()
            .any(|c| matches!(c, Command::SetOnline { core: 0, .. })));
    }

    #[test]
    fn hotplug_onlines_lowest_ids_first() {
        let opps = profiles::nexus5().opps().clone();
        let mut p = GovernorPolicy::with_hotplug(
            Box::new(Ondemand::new()),
            Box::new(DefaultHotplug::new()),
            opps,
        );
        let mut ctl = CpuControl::new();
        p.on_sample(&snap(&[95.0, -1.0, -1.0, -1.0]), &mut ctl);
        let cmds = ctl.take();
        assert!(cmds.contains(&Command::SetOnline {
            core: 1,
            online: true
        }));
        assert!(!cmds.contains(&Command::SetOnline {
            core: 2,
            online: true
        }));
    }

    #[test]
    fn hotplug_runs_at_slower_cadence() {
        let opps = profiles::nexus5().opps().clone();
        let mut p = GovernorPolicy::with_hotplug(
            Box::new(Ondemand::new()),
            Box::new(DefaultHotplug::new()),
            opps,
        );
        // sample 0 runs hotplug; samples 1-4 must not.
        let mut ctl = CpuControl::new();
        p.on_sample(&snap(&[5.0, 5.0, 5.0, 5.0]), &mut ctl);
        assert!(ctl
            .take()
            .iter()
            .any(|c| matches!(c, Command::SetOnline { .. })));
        for _ in 0..4 {
            let mut ctl = CpuControl::new();
            p.on_sample(&snap(&[5.0, 5.0, 5.0, -1.0]), &mut ctl);
            assert!(
                !ctl.take()
                    .iter()
                    .any(|c| matches!(c, Command::SetOnline { .. })),
                "hotplug ran between its cadence points"
            );
        }
    }

    #[test]
    fn named_and_sampling_overrides() {
        let opps = profiles::nexus5().opps().clone();
        let p = GovernorPolicy::dvfs_only(Box::new(Performance::new()), opps).named("custom");
        assert_eq!(p.name(), "custom");
        assert_eq!(p.sampling_period_us(), 20_000);
    }
}
