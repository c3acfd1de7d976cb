//! Per-core hardware state: hotplug, DVFS targets, thermal caps and busy
//! accounting.

use mobicore_model::{CoreActivity, DeviceProfile, IdleLadder, Khz};

/// Hardware state of one core.
#[derive(Debug, Clone)]
pub struct CoreState {
    /// Whether the core is online.
    pub online: bool,
    /// Requested OPP index (what the policy asked for).
    pub target_opp: usize,
    /// Pending online transition completes at this time (hotplug-in
    /// latency).
    pub online_at_us: Option<u64>,
    /// Busy time accumulated since the last policy sample, µs.
    pub window_busy_us: u64,
    /// Busy time accumulated over the whole run, µs.
    pub total_busy_us: u64,
    /// Online time accumulated over the whole run, µs.
    pub total_online_us: u64,
    /// Time-weighted sum of effective kHz while online (for average
    /// frequency reporting), kHz·µs.
    pub khz_us_integral: u128,
    /// Contiguous fully-idle time so far, µs (descends the cpuidle
    /// ladder).
    pub idle_streak_us: u64,
    /// Time spent online at each OPP index, µs (the kernel's
    /// `cpufreq/stats/time_in_state`).
    pub time_in_state_us: Vec<u64>,
    /// The core executes nothing until this time (PLL relock during a
    /// frequency transition).
    pub stalled_until_us: u64,
    /// Userspace policy lower limit (`scaling_min_freq`), as an OPP index.
    pub limit_min_opp: usize,
    /// Userspace policy upper limit (`scaling_max_freq`), as an OPP index.
    pub limit_max_opp: usize,
}

impl CoreState {
    fn new(online: bool, target_opp: usize, n_opps: usize) -> Self {
        CoreState {
            online,
            target_opp,
            online_at_us: None,
            window_busy_us: 0,
            total_busy_us: 0,
            total_online_us: 0,
            khz_us_integral: 0,
            idle_streak_us: 0,
            time_in_state_us: vec![0; n_opps],
            stalled_until_us: 0,
            limit_min_opp: 0,
            limit_max_opp: n_opps.saturating_sub(1),
        }
    }
}

/// The CPU complex: all cores plus the thermal OPP cap.
#[derive(Debug)]
pub struct CpuSet {
    cores: Vec<CoreState>,
    /// Thermal engine's OPP cap (max allowed index).
    pub thermal_cap_opp: usize,
    /// Count of rejected offline requests (core 0 / mpdecision vetoes).
    pub rejected_offline_requests: u64,
}

impl CpuSet {
    /// All cores online at the lowest OPP, no thermal cap.
    pub fn new(profile: &DeviceProfile) -> Self {
        CpuSet {
            cores: (0..profile.n_cores())
                .map(|_| CoreState::new(true, 0, profile.opps().len()))
                .collect(),
            thermal_cap_opp: profile.opps().max_index(),
            rejected_offline_requests: 0,
        }
    }

    /// Number of physical cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Always false (devices have at least one core).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Immutable view of core `i`.
    pub fn core(&self, i: usize) -> &CoreState {
        &self.cores[i]
    }

    /// Mutable view of core `i`.
    pub fn core_mut(&mut self, i: usize) -> &mut CoreState {
        &mut self.cores[i]
    }

    /// Iterates over all cores.
    pub fn iter(&self) -> std::slice::Iter<'_, CoreState> {
        self.cores.iter()
    }

    /// Number of online cores.
    pub fn online_count(&self) -> usize {
        self.cores.iter().filter(|c| c.online).count()
    }

    /// Fills `out` with the indices of online cores.
    pub fn online_ids_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.cores
                .iter()
                .enumerate()
                .filter(|(_, c)| c.online)
                .map(|(i, _)| i),
        );
    }

    /// The OPP index core `i` actually runs at: its target clamped by the
    /// thermal cap and the userspace policy limits.
    pub fn effective_opp(&self, i: usize) -> usize {
        let c = &self.cores[i];
        c.target_opp
            .clamp(c.limit_min_opp, c.limit_max_opp.max(c.limit_min_opp))
            .min(self.thermal_cap_opp)
    }

    /// The frequency core `i` actually runs at (zero when offline).
    pub fn effective_khz(&self, profile: &DeviceProfile, i: usize) -> Khz {
        if !self.cores[i].online {
            return Khz::ZERO;
        }
        profile.opps().get_clamped(self.effective_opp(i)).khz
    }

    /// Requests a DVFS retarget for core `i`; an actual OPP change stalls
    /// the core for the transition latency (PLL relock), like silicon.
    pub fn request_opp(&mut self, i: usize, opp_idx: usize, now_us: u64, dvfs_latency_us: u64) {
        let core = &mut self.cores[i];
        if core.target_opp != opp_idx {
            core.target_opp = opp_idx;
            if core.online {
                core.stalled_until_us = core.stalled_until_us.max(now_us + dvfs_latency_us);
            }
        }
    }

    /// Requests a hotplug transition. Coming online takes
    /// `hotplug_on_latency_us`; going offline is immediate (the kernel
    /// just stops scheduling there and power-collapses the core).
    pub fn request_online(
        &mut self,
        i: usize,
        online: bool,
        now_us: u64,
        hotplug_on_latency_us: u64,
    ) {
        let core = &mut self.cores[i];
        if online {
            if !core.online && core.online_at_us.is_none() {
                core.online_at_us = Some(now_us + hotplug_on_latency_us);
            }
        } else {
            core.online = false;
            core.online_at_us = None;
        }
    }

    /// Completes pending hotplug-in transitions whose latency elapsed.
    pub fn tick_hotplug(&mut self, now_us: u64) {
        for core in &mut self.cores {
            if let Some(at) = core.online_at_us {
                if now_us >= at {
                    core.online = true;
                    core.online_at_us = None;
                }
            }
        }
    }

    /// Records one tick of execution accounting for core `i`.
    pub fn account_tick(&mut self, i: usize, busy_us: u64, tick_us: u64, eff_khz: Khz) {
        let core = &mut self.cores[i];
        core.window_busy_us += busy_us;
        core.total_busy_us += busy_us;
        if busy_us == 0 {
            core.idle_streak_us += tick_us;
        } else {
            core.idle_streak_us = 0;
        }
        if core.online {
            core.total_online_us += tick_us;
            core.khz_us_integral += u128::from(eff_khz.0) * u128::from(tick_us);
        }
    }

    /// Records the effective OPP for `time_in_state` accounting (only
    /// while online).
    pub fn account_time_in_state(&mut self, i: usize, tick_us: u64) {
        let opp = self.effective_opp(i);
        let core = &mut self.cores[i];
        if core.online {
            if let Some(slot) = core.time_in_state_us.get_mut(opp) {
                *slot += tick_us;
            }
        }
    }

    /// Aggregate `time_in_state` across cores, µs per OPP index.
    pub fn time_in_state_total(&self) -> Vec<u64> {
        let n = self.cores.first().map_or(0, |c| c.time_in_state_us.len());
        let mut total = vec![0u64; n];
        for c in &self.cores {
            for (t, &v) in total.iter_mut().zip(&c.time_in_state_us) {
                *t += v;
            }
        }
        total
    }

    /// Drains the per-window busy counters into `out` (called at each
    /// policy sample).
    pub fn drain_window_into(&mut self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(
            self.cores
                .iter_mut()
                .map(|c| std::mem::take(&mut c.window_busy_us)),
        );
    }

    /// Fills `out` with the power-model input for the current tick given
    /// each core's busy time within it. Idle fractions are billed at the
    /// cpuidle-ladder state the core's idle streak has earned.
    pub fn activities_into(
        &self,
        busy_us: &[u64],
        tick_us: u64,
        ladder: &IdleLadder,
        out: &mut Vec<CoreActivity>,
    ) {
        out.clear();
        out.extend(self.cores.iter().enumerate().map(|(i, c)| {
            if c.online {
                CoreActivity::online_with_idle_state(
                    self.effective_opp(i),
                    busy_us[i] as f64 / tick_us as f64,
                    ladder.power_frac_after(c.idle_streak_us),
                )
            } else {
                CoreActivity::OFFLINE
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicore_model::profiles;

    #[test]
    fn starts_all_online_lowest_opp() {
        let p = profiles::nexus5();
        let cpus = CpuSet::new(&p);
        assert_eq!(cpus.len(), 4);
        assert_eq!(cpus.online_count(), 4);
        assert_eq!(cpus.effective_khz(&p, 0), Khz(300_000));
    }

    #[test]
    fn offline_is_immediate_online_has_latency() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        cpus.request_online(2, false, 0, 5_000);
        assert!(!cpus.core(2).online);
        cpus.request_online(2, true, 1_000, 5_000);
        assert!(!cpus.core(2).online);
        cpus.tick_hotplug(3_000);
        assert!(!cpus.core(2).online, "latency not yet elapsed");
        cpus.tick_hotplug(6_000);
        assert!(cpus.core(2).online);
    }

    #[test]
    fn duplicate_online_requests_do_not_extend_latency() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        cpus.request_online(1, false, 0, 5_000);
        cpus.request_online(1, true, 1_000, 5_000);
        cpus.request_online(1, true, 4_000, 5_000); // re-request later
        cpus.tick_hotplug(6_000); // first request matured at 6 000
        assert!(cpus.core(1).online);
    }

    #[test]
    fn thermal_cap_limits_effective_opp() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        cpus.core_mut(0).target_opp = 13;
        assert_eq!(cpus.effective_opp(0), 13);
        cpus.thermal_cap_opp = 5;
        assert_eq!(cpus.effective_opp(0), 5);
        assert_eq!(cpus.effective_khz(&p, 0), Khz(960_000));
    }

    #[test]
    fn offline_core_has_zero_khz() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        cpus.request_online(3, false, 0, 5_000);
        assert_eq!(cpus.effective_khz(&p, 3), Khz::ZERO);
    }

    #[test]
    fn accounting_accumulates_and_drains() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        cpus.account_tick(0, 700, 1_000, Khz(960_000));
        cpus.account_tick(0, 300, 1_000, Khz(960_000));
        assert_eq!(cpus.core(0).window_busy_us, 1_000);
        assert_eq!(cpus.core(0).total_online_us, 2_000);
        let mut drained = Vec::new();
        cpus.drain_window_into(&mut drained);
        assert_eq!(drained, [1_000, 0, 0, 0]);
        assert_eq!(cpus.core(0).window_busy_us, 0);
        assert_eq!(cpus.core(0).total_busy_us, 1_000);
    }

    #[test]
    fn activities_reflect_state() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        cpus.request_online(1, false, 0, 5_000);
        cpus.core_mut(0).target_opp = 13;
        let mut acts = Vec::new();
        cpus.activities_into(
            &[500, 0, 0, 1_000],
            1_000,
            &IdleLadder::default(),
            &mut acts,
        );
        assert!(acts[0].online);
        assert_eq!(acts[0].opp_idx, 13);
        assert!((acts[0].utilization - 0.5).abs() < 1e-12);
        assert!(!acts[1].online);
        assert!((acts[3].utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dvfs_retarget_stalls_briefly() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        cpus.request_opp(0, 13, 1_000, 200);
        assert_eq!(cpus.core(0).target_opp, 13);
        assert_eq!(cpus.core(0).stalled_until_us, 1_200);
        // re-requesting the SAME opp does not stall again
        cpus.request_opp(0, 13, 5_000, 200);
        assert_eq!(cpus.core(0).stalled_until_us, 1_200);
    }

    #[test]
    fn offline_core_never_stalls() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        cpus.request_online(2, false, 0, 0);
        cpus.request_opp(2, 5, 1_000, 200);
        assert_eq!(cpus.core(2).stalled_until_us, 0);
    }

    #[test]
    fn time_in_state_accumulates_at_effective_opp() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        cpus.core_mut(0).target_opp = 13;
        cpus.account_time_in_state(0, 1_000);
        cpus.account_time_in_state(0, 1_000);
        cpus.thermal_cap_opp = 5; // throttle: billed at the capped OPP
        cpus.account_time_in_state(0, 1_000);
        assert_eq!(cpus.core(0).time_in_state_us[13], 2_000);
        assert_eq!(cpus.core(0).time_in_state_us[5], 1_000);
        let total = cpus.time_in_state_total();
        assert_eq!(total[13], 2_000);
        // offline cores accumulate nothing
        cpus.request_online(3, false, 0, 0);
        cpus.account_time_in_state(3, 1_000);
        assert_eq!(cpus.core(3).time_in_state_us.iter().sum::<u64>(), 0);
    }

    #[test]
    fn online_ids_in_order() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        cpus.request_online(2, false, 0, 0);
        let mut ids = vec![7];
        cpus.online_ids_into(&mut ids);
        assert_eq!(ids, [0, 1, 3]);
    }
}
