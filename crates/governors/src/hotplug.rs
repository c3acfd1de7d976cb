//! Dynamic core scaling (DCS) / hotplug policies of paper §2.2.2.
//!
//! > "This policy allocates the hardware resources depending on the
//! > amount of workload. Basically, more cores for a high workload and
//! > less cores for a low workload. ... the choice is not precise enough;
//! > it is either activate or inactivate cores which is a little abrupt."
//!
//! The default policy below is exactly that abrupt load-threshold design.
//! Remember that on a stock device `mpdecision` vetoes off-lining; the
//! simulator enforces the veto, and experiments disable it over adb the
//! way the thesis does.

use mobicore_sim::PolicySnapshot;

/// A core-count policy.
pub trait HotplugPolicy {
    /// Policy name.
    fn name(&self) -> &str;

    /// Desired number of online cores for the next window,
    /// `1..=snap.cores.len()`.
    fn target_online(&mut self, snap: &PolicySnapshot) -> usize;
}

/// The stock load-threshold hotplug: add a core when the average load of
/// the online cores crosses `up_threshold`, drop one when it falls under
/// `down_threshold`, with a hold-off between changes to avoid thrash.
#[derive(Debug, Clone)]
pub struct DefaultHotplug {
    /// Average online-core load (%) that brings one more core in.
    pub up_threshold: f64,
    /// Average online-core load (%) that takes one core out.
    pub down_threshold: f64,
    /// Minimum time between hotplug actions, µs.
    pub holdoff_us: u64,
    last_change_us: Option<u64>,
    target: Option<usize>,
}

impl DefaultHotplug {
    /// Thresholds in the spirit of msm_hotplug defaults: up at 80 %,
    /// down at 30 %, 100 ms hold-off.
    pub fn new() -> Self {
        DefaultHotplug {
            up_threshold: 80.0,
            down_threshold: 30.0,
            holdoff_us: 100_000,
            last_change_us: None,
            target: None,
        }
    }
}

impl Default for DefaultHotplug {
    fn default() -> Self {
        Self::new()
    }
}

impl HotplugPolicy for DefaultHotplug {
    fn name(&self) -> &str {
        "default-hotplug"
    }

    fn target_online(&mut self, snap: &PolicySnapshot) -> usize {
        let n_max = snap.cores.len();
        let online = snap.online_count().max(1);
        let cur_target = self.target.unwrap_or(online).clamp(1, n_max);
        if let Some(last) = self.last_change_us {
            if snap.now_us.saturating_sub(last) < self.holdoff_us {
                return cur_target;
            }
        }
        let avg = snap.online_avg_util().as_percent();
        let next = if avg > self.up_threshold && cur_target < n_max {
            cur_target + 1
        } else if avg < self.down_threshold && cur_target > 1 {
            cur_target - 1
        } else {
            cur_target
        };
        if next != cur_target {
            self.last_change_us = Some(snap.now_us);
        }
        self.target = Some(next);
        next
    }
}

/// A runqueue-aware hotplug in the spirit of Qualcomm's `mpdecision`
/// (the very service the thesis has to stop, §2.2.2): core count follows
/// the number of runnable threads, damped by load thresholds — bring a
/// core in only when there are both more runnable threads than online
/// cores *and* enough load; drop one only when there are spare cores for
/// the thread count.
#[derive(Debug, Clone)]
pub struct RqHotplug {
    /// Average online-core load (%) required before adding for runqueue
    /// pressure.
    pub up_threshold: f64,
    /// Average online-core load (%) below which a spare core is dropped.
    pub down_threshold: f64,
    /// Minimum time between actions, µs.
    pub holdoff_us: u64,
    last_change_us: Option<u64>,
    target: Option<usize>,
}

impl RqHotplug {
    /// mpdecision-flavoured defaults.
    pub fn new() -> Self {
        RqHotplug {
            up_threshold: 60.0,
            down_threshold: 30.0,
            holdoff_us: 80_000,
            last_change_us: None,
            target: None,
        }
    }
}

impl Default for RqHotplug {
    fn default() -> Self {
        Self::new()
    }
}

impl HotplugPolicy for RqHotplug {
    fn name(&self) -> &str {
        "rq-hotplug"
    }

    fn target_online(&mut self, snap: &PolicySnapshot) -> usize {
        let n_max = snap.cores.len();
        let online = snap.online_count().max(1);
        let cur = self.target.unwrap_or(online).clamp(1, n_max);
        if let Some(last) = self.last_change_us {
            if snap.now_us.saturating_sub(last) < self.holdoff_us {
                return cur;
            }
        }
        let avg = snap.online_avg_util().as_percent();
        let rq = snap.max_runnable_threads.max(1);
        let next = if rq > cur && avg > self.up_threshold && cur < n_max {
            cur + 1
        } else if (rq < cur || avg < self.down_threshold) && cur > 1 {
            cur - 1
        } else {
            cur
        };
        if next != cur {
            self.last_change_us = Some(snap.now_us);
        }
        self.target = Some(next);
        next
    }
}

/// Keeps every core online — DVFS-only operation (the configuration the
/// thesis' Figure 3/6/7 single-mechanism sweeps isolate).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHotplug;

impl NoHotplug {
    /// Creates the policy.
    pub fn new() -> Self {
        NoHotplug
    }
}

impl HotplugPolicy for NoHotplug {
    fn name(&self) -> &str {
        "no-hotplug"
    }

    fn target_online(&mut self, snap: &PolicySnapshot) -> usize {
        snap.cores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicore_model::{Khz, Quota, Utilization};
    use mobicore_sim::CoreSnapshot;

    fn snap(now_us: u64, loads: &[f64]) -> PolicySnapshot {
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
        let overall = cores.iter().map(|c| c.util.as_fraction()).sum::<f64>() / cores.len() as f64;
        PolicySnapshot {
            now_us,
            window_us: 20_000,
            cores,
            overall_util: Utilization::new(overall),
            quota: Quota::FULL,
            mpdecision_enabled: false,
            max_runnable_threads: 8,
            temp_c: 25.0,
        }
    }

    #[test]
    fn adds_core_on_high_load() {
        let mut h = DefaultHotplug::new();
        let t = h.target_online(&snap(0, &[95.0, 90.0, -1.0, -1.0]));
        assert_eq!(t, 3);
    }

    #[test]
    fn removes_core_on_low_load() {
        let mut h = DefaultHotplug::new();
        let t = h.target_online(&snap(0, &[10.0, 5.0, 8.0, 2.0]));
        assert_eq!(t, 3);
    }

    #[test]
    fn holds_in_the_middle_band() {
        let mut h = DefaultHotplug::new();
        let t = h.target_online(&snap(0, &[50.0, 60.0, -1.0, -1.0]));
        assert_eq!(t, 2);
    }

    #[test]
    fn holdoff_prevents_thrash() {
        let mut h = DefaultHotplug::new();
        assert_eq!(h.target_online(&snap(0, &[95.0, 95.0, -1.0, -1.0])), 3);
        // 20 ms later, still inside the 100 ms hold-off: no further change
        assert_eq!(h.target_online(&snap(20_000, &[95.0, 95.0, 95.0, -1.0])), 3);
        // after the hold-off: next step
        assert_eq!(
            h.target_online(&snap(150_000, &[95.0, 95.0, 95.0, -1.0])),
            4
        );
    }

    #[test]
    fn never_leaves_range() {
        let mut h = DefaultHotplug::new();
        // all idle forever: walks down to 1 and stays
        let mut now = 0;
        for _ in 0..20 {
            h.target_online(&snap(now, &[0.0, -1.0, -1.0, -1.0]));
            now += 200_000;
        }
        assert_eq!(h.target_online(&snap(now, &[0.0, -1.0, -1.0, -1.0])), 1);
        // all busy forever: walks up to 4 and stays
        let mut h = DefaultHotplug::new();
        for _ in 0..20 {
            h.target_online(&snap(now, &[99.0, 99.0, 99.0, 99.0]));
            now += 200_000;
        }
        assert_eq!(h.target_online(&snap(now, &[99.0, 99.0, 99.0, 99.0])), 4);
    }

    fn snap_rq(now_us: u64, loads: &[f64], rq: usize) -> PolicySnapshot {
        let mut s = snap(now_us, loads);
        s.max_runnable_threads = rq;
        s
    }

    #[test]
    fn rq_hotplug_follows_thread_count_up() {
        let mut h = RqHotplug::new();
        // 2 cores busy, 4 runnable threads: add a core.
        assert_eq!(
            h.target_online(&snap_rq(0, &[90.0, 85.0, -1.0, -1.0], 4)),
            3
        );
    }

    #[test]
    fn rq_hotplug_does_not_add_without_load() {
        let mut h = RqHotplug::new();
        // 4 runnable threads but the cores are mostly idle: never adds —
        // in fact the low load sheds a core.
        assert_eq!(
            h.target_online(&snap_rq(0, &[20.0, 15.0, -1.0, -1.0], 4)),
            1
        );
        // Mid-band load with runqueue pressure holds steady instead.
        let mut h = RqHotplug::new();
        assert_eq!(
            h.target_online(&snap_rq(0, &[45.0, 50.0, -1.0, -1.0], 4)),
            2
        );
    }

    #[test]
    fn rq_hotplug_drops_spare_cores() {
        let mut h = RqHotplug::new();
        // 4 online, only 1 runnable thread: shed (one per decision).
        assert_eq!(h.target_online(&snap_rq(0, &[95.0, 5.0, 5.0, 5.0], 1)), 3);
        assert_eq!(
            h.target_online(&snap_rq(200_000, &[95.0, 5.0, 5.0, -1.0], 1)),
            2
        );
    }

    #[test]
    fn rq_hotplug_respects_holdoff() {
        let mut h = RqHotplug::new();
        assert_eq!(
            h.target_online(&snap_rq(0, &[95.0, 95.0, -1.0, -1.0], 4)),
            3
        );
        // inside the 80 ms hold-off: no further change
        assert_eq!(
            h.target_online(&snap_rq(20_000, &[95.0, 95.0, 95.0, -1.0], 4)),
            3
        );
        assert_eq!(
            h.target_online(&snap_rq(120_000, &[95.0, 95.0, 95.0, -1.0], 4)),
            4
        );
    }

    #[test]
    fn no_hotplug_wants_everything() {
        let mut h = NoHotplug::new();
        assert_eq!(h.target_online(&snap(0, &[0.0, -1.0, -1.0, -1.0])), 4);
        assert_eq!(h.name(), "no-hotplug");
    }
}
