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
///
/// It also owns the per-core views the tick loop reads every tick — the
/// effective OPP and kHz of each core, the online ids, and the end of
/// the latest DVFS stall. These change only on an edge: `request_opp`,
/// `request_online`, a `tick_hotplug` that matured a core, a `core_mut`
/// write (the sysfs policy limits) or a thermal cap move. Each edge
/// marks the views dirty; `refresh` rebuilds them before the next read.
#[derive(Debug)]
pub struct CpuSet {
    cores: Vec<CoreState>,
    /// Thermal engine's OPP cap (max allowed index).
    thermal_cap_opp: usize,
    /// Count of rejected offline requests (core 0 / mpdecision vetoes).
    pub rejected_offline_requests: u64,
    /// Effective OPP index per core.
    opps: Vec<usize>,
    /// Effective frequency per core (zero when offline).
    khz: Vec<Khz>,
    /// Ids of the online cores, ascending.
    online_ids: Vec<usize>,
    /// The latest `stalled_until_us` of any core.
    stall_end_us: u64,
    /// An edge moved state the views above are built from.
    dirty: bool,
}

impl CpuSet {
    /// All cores online at the lowest OPP, no thermal cap.
    pub fn new(profile: &DeviceProfile) -> Self {
        let mut cpus = CpuSet {
            cores: (0..profile.n_cores())
                .map(|_| CoreState::new(true, 0, profile.opps().len()))
                .collect(),
            thermal_cap_opp: profile.opps().max_index(),
            rejected_offline_requests: 0,
            opps: Vec::new(),
            khz: Vec::new(),
            online_ids: Vec::new(),
            stall_end_us: 0,
            dirty: true,
        };
        cpus.refresh(profile);
        cpus
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

    /// Mutable view of core `i`. Marks the per-core views dirty: a write
    /// may move the core's policy limits.
    pub fn core_mut(&mut self, i: usize) -> &mut CoreState {
        self.dirty = true;
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

    /// Sets the thermal engine's OPP cap.
    pub(crate) fn set_thermal_cap(&mut self, cap_opp: usize) {
        if cap_opp != self.thermal_cap_opp {
            self.thermal_cap_opp = cap_opp;
            self.dirty = true;
        }
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

    /// Rebuilds the per-core views if an edge marked them dirty.
    pub(crate) fn refresh(&mut self, profile: &DeviceProfile) {
        if !self.dirty {
            return;
        }
        self.opps.clear();
        self.khz.clear();
        self.online_ids.clear();
        for i in 0..self.cores.len() {
            let (opp, khz) = (self.effective_opp(i), self.effective_khz(profile, i));
            self.opps.push(opp);
            self.khz.push(khz);
            if self.cores[i].online {
                self.online_ids.push(i);
            }
        }
        self.stall_end_us = self.latest_stall_us();
        self.dirty = false;
    }

    /// Whether the per-core views equal a from-scratch recompute (the
    /// tick loop's debug check that no edge went unmarked).
    pub(crate) fn views_are_fresh(&self, profile: &DeviceProfile) -> bool {
        let n = self.cores.len();
        let opps = (0..n).map(|i| self.effective_opp(i));
        let khz = (0..n).map(|i| self.effective_khz(profile, i));
        let online = (0..n).filter(|&i| self.cores[i].online);
        self.opps.iter().copied().eq(opps)
            && self.khz.iter().copied().eq(khz)
            && self.online_ids.iter().copied().eq(online)
            && self.stall_end_us == self.latest_stall_us()
    }

    fn latest_stall_us(&self) -> u64 {
        self.cores.iter().fold(0, |m, c| m.max(c.stalled_until_us))
    }

    /// Effective frequency per core (zero when offline).
    pub(crate) fn khz(&self) -> &[Khz] {
        debug_assert!(!self.dirty, "per-core views read before refresh");
        &self.khz
    }

    /// Ids of the online cores, ascending.
    pub(crate) fn online_ids(&self) -> &[usize] {
        debug_assert!(!self.dirty, "per-core views read before refresh");
        &self.online_ids
    }

    /// Fills `out` with each core's DVFS stall within the tick starting
    /// at `now_us`, or leaves it empty once every stall has ended (the
    /// scheduler reads a missing entry as no stall).
    pub(crate) fn stalls_into(&self, now_us: u64, tick_us: u64, out: &mut Vec<u64>) {
        debug_assert!(!self.dirty, "per-core views read before refresh");
        out.clear();
        if now_us < self.stall_end_us {
            out.extend(
                self.cores
                    .iter()
                    .map(|c| c.stalled_until_us.saturating_sub(now_us).min(tick_us)),
            );
        }
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
            self.dirty = true;
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
            self.dirty |= core.online;
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
                    self.dirty = true;
                }
            }
        }
    }

    /// Records one tick of execution given each core's busy time within
    /// it — busy, idle-streak, online, kHz·µs and `time_in_state`
    /// accounting at the cached effective OPP — and fills `acts` with the
    /// tick's power-model input. Idle fractions are billed at the
    /// cpuidle-ladder state the core's idle streak has earned, this
    /// tick's increment included.
    pub(crate) fn account_tick(
        &mut self,
        busy_us: &[u64],
        tick_us: u64,
        ladder: &IdleLadder,
        acts: &mut Vec<CoreActivity>,
    ) {
        debug_assert!(!self.dirty, "per-core views read before refresh");
        acts.clear();
        for (i, core) in self.cores.iter_mut().enumerate() {
            let busy = busy_us[i];
            core.window_busy_us += busy;
            core.total_busy_us += busy;
            if busy == 0 {
                core.idle_streak_us += tick_us;
            } else {
                core.idle_streak_us = 0;
            }
            if !core.online {
                acts.push(CoreActivity::OFFLINE);
                continue;
            }
            let opp = self.opps[i];
            core.total_online_us += tick_us;
            core.khz_us_integral += u128::from(self.khz[i].0) * u128::from(tick_us);
            if let Some(slot) = core.time_in_state_us.get_mut(opp) {
                *slot += tick_us;
            }
            acts.push(CoreActivity::online_with_idle_state(
                opp,
                busy as f64 / tick_us as f64,
                ladder.power_frac_after(core.idle_streak_us),
            ));
        }
    }

    /// Records `span_us` of all-idle time in one step: exactly what
    /// [`CpuSet::account_tick`] adds over workless ticks totalling
    /// `span_us`, minus the activity vector (integer sums are
    /// order-insensitive).
    pub(crate) fn account_idle(&mut self, span_us: u64) {
        debug_assert!(!self.dirty, "per-core views read before refresh");
        for (i, core) in self.cores.iter_mut().enumerate() {
            core.idle_streak_us += span_us;
            if core.online {
                core.total_online_us += span_us;
                core.khz_us_integral += u128::from(self.khz[i].0) * u128::from(span_us);
                if let Some(slot) = core.time_in_state_us.get_mut(self.opps[i]) {
                    *slot += span_us;
                }
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
        cpus.set_thermal_cap(5);
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
        let mut acts = Vec::new();
        let ladder = IdleLadder::default();
        cpus.account_tick(&[700, 0, 0, 0], 1_000, &ladder, &mut acts);
        cpus.account_tick(&[300, 0, 0, 0], 1_000, &ladder, &mut acts);
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
        cpus.refresh(&p);
        let mut acts = Vec::new();
        cpus.account_tick(
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
        // the stall vector empties once every stall has ended
        let mut stalls = Vec::new();
        cpus.refresh(&p);
        cpus.stalls_into(1_000, 1_000, &mut stalls);
        assert_eq!(stalls, [200, 0, 0, 0]);
        cpus.stalls_into(1_200, 1_000, &mut stalls);
        assert!(stalls.is_empty());
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
        // offline cores accumulate nothing
        cpus.request_online(3, false, 0, 0);
        cpus.core_mut(0).target_opp = 13;
        cpus.refresh(&p);
        let (mut acts, ladder) = (Vec::new(), IdleLadder::default());
        cpus.account_tick(&[0; 4], 1_000, &ladder, &mut acts);
        cpus.account_tick(&[0; 4], 1_000, &ladder, &mut acts);
        cpus.set_thermal_cap(5); // throttle: billed at the capped OPP
        cpus.refresh(&p);
        cpus.account_tick(&[0; 4], 1_000, &ladder, &mut acts);
        assert_eq!(cpus.core(0).time_in_state_us[13], 2_000);
        assert_eq!(cpus.core(0).time_in_state_us[5], 1_000);
        let total = cpus.time_in_state_total();
        assert_eq!(total[13], 2_000);
        assert_eq!(cpus.core(3).time_in_state_us.iter().sum::<u64>(), 0);
    }

    #[test]
    fn online_ids_in_order() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        cpus.request_online(2, false, 0, 0);
        cpus.refresh(&p);
        assert_eq!(cpus.online_ids(), [0, 1, 3]);
    }

    #[test]
    fn idle_span_equals_workless_ticks() {
        let p = profiles::nexus5();
        let (mut ticked, mut spanned) = (CpuSet::new(&p), CpuSet::new(&p));
        for cpus in [&mut ticked, &mut spanned] {
            cpus.request_online(2, false, 0, 0);
            cpus.request_opp(1, 9, 0, 200);
            cpus.refresh(&p);
        }
        let (mut acts, ladder) = (Vec::new(), IdleLadder::default());
        for _ in 0..5 {
            ticked.account_tick(&[0; 4], 1_000, &ladder, &mut acts);
        }
        spanned.account_tick(&[0; 4], 1_000, &ladder, &mut acts);
        spanned.account_idle(4_000);
        let key = |c: &CoreState| {
            let tis = c.time_in_state_us.clone();
            (c.idle_streak_us, c.total_online_us, c.khz_us_integral, tis)
        };
        assert!(ticked.iter().map(key).eq(spanned.iter().map(key)));
    }

    #[test]
    fn views_follow_every_edge() {
        let p = profiles::nexus5();
        let mut cpus = CpuSet::new(&p);
        let edges: [&dyn Fn(&mut CpuSet); 6] = [
            &|c| c.request_opp(1, 7, 0, 200),
            &|c| c.request_online(3, false, 0, 1_000),
            &|c| c.request_online(3, true, 0, 1_000),
            &|c| c.tick_hotplug(1_000),
            &|c| c.core_mut(0).limit_min_opp = 2,
            &|c| c.set_thermal_cap(3),
        ];
        for edge in edges {
            edge(&mut cpus);
            cpus.refresh(&p);
            assert!(cpus.views_are_fresh(&p));
        }
        assert!((0..4).map(|i| cpus.effective_opp(i)).eq([2, 3, 0, 0]));
        assert_eq!(cpus.online_ids(), [0, 1, 2, 3]);
    }
}
