//! The cpufreq governor framework and the six stock governors of paper
//! §2.2.1.
//!
//! A [`DvfsGovernor`] looks at the sampling window's load and picks one
//! cluster-wide target frequency (the thesis' Nexus 5 has per-core rails,
//! but the stock governors drive all cores together; MobiCore is what adds
//! the per-core choice). The load input follows the kernel convention:
//! the *busiest* online core's utilization in percent.

use mobicore_model::{quantize_u32, Khz, OppTable};
use mobicore_sim::PolicySnapshot;

/// The busiest online core's load, percent — the signal the kernel
/// governors use (`dbs_check_cpu` takes the max over CPUs of the policy).
pub fn max_online_load_pct(snap: &PolicySnapshot) -> f64 {
    snap.cores
        .iter()
        .filter(|c| c.online)
        .map(|c| c.util.as_percent())
        .fold(0.0, f64::max)
}

/// A frequency governor.
pub trait DvfsGovernor {
    /// Governor name as it would appear in `scaling_governor`.
    fn name(&self) -> &str;

    /// Picks the cluster target frequency for the next window.
    fn target(&mut self, snap: &PolicySnapshot, opps: &OppTable) -> Khz;
}

/// The Android default: jump to `f_max` when the load crosses
/// `up_threshold`, otherwise ask for the proportional just-enough
/// frequency (classic `ondemand` behaviour — "if the load reaches a set
/// frequency threshold, CPU frequency raises to the maximum frequency").
#[derive(Debug, Clone)]
pub struct Ondemand {
    /// Load percentage that triggers the burst to `f_max` (kernel default
    /// 80 on msm8974, raised to 95 by some vendors).
    pub up_threshold: f64,
    last_khz: Option<Khz>,
}

impl Ondemand {
    /// An ondemand governor with the kernel-default 80 % up-threshold.
    pub fn new() -> Self {
        Ondemand {
            up_threshold: 80.0,
            last_khz: None,
        }
    }

    /// One ondemand estimate as a **pure transition function**: the
    /// governor's only persistent state (its last estimate) goes in, the
    /// next estimate comes out. [`DvfsGovernor::target`] and the
    /// `mobicore-checker` state-space enumeration both call this, so the
    /// verified automaton is the shipped one.
    pub fn transition(
        up_threshold: f64,
        last_khz: Option<Khz>,
        snap: &PolicySnapshot,
        opps: &OppTable,
    ) -> Khz {
        let load = max_online_load_pct(snap);
        let cur = last_khz.unwrap_or_else(|| opps.min_khz());
        if load >= up_threshold {
            opps.max_khz()
        } else {
            // Scale down proportionally: pick the frequency at which this
            // load would sit right at the threshold.
            let want = f64::from(cur.0) * load / up_threshold;
            opps.snap_up(Khz::from_f64(want.max(f64::from(opps.min_khz().0))))
                .khz
        }
    }
}

impl Default for Ondemand {
    fn default() -> Self {
        Self::new()
    }
}

impl DvfsGovernor for Ondemand {
    fn name(&self) -> &str {
        "ondemand"
    }

    fn target(&mut self, snap: &PolicySnapshot, opps: &OppTable) -> Khz {
        let next = Self::transition(self.up_threshold, self.last_khz, snap, opps);
        self.last_khz = Some(next);
        next
    }
}

/// The latency-sensitive governor: like ondemand but "much more
/// aggressive CPU speed scaling" — above `go_hispeed_load` it goes
/// straight to `hispeed_khz` and keeps climbing toward `f_max`; below, it
/// targets a 90 % residency at the chosen frequency.
#[derive(Debug, Clone)]
pub struct Interactive {
    /// Load that triggers the hispeed jump (default 85).
    pub go_hispeed_load: f64,
    /// The hispeed frequency (defaults to ~60 % up the table).
    pub hispeed_khz: Option<Khz>,
    /// Load the governor tries to hold at the chosen frequency (default
    /// 90).
    pub target_load: f64,
    last_khz: Option<Khz>,
}

impl Interactive {
    /// Kernel-default tunables.
    pub fn new() -> Self {
        Interactive {
            go_hispeed_load: 85.0,
            hispeed_khz: None,
            target_load: 90.0,
            last_khz: None,
        }
    }
}

impl Default for Interactive {
    fn default() -> Self {
        Self::new()
    }
}

impl DvfsGovernor for Interactive {
    fn name(&self) -> &str {
        "interactive"
    }

    fn target(&mut self, snap: &PolicySnapshot, opps: &OppTable) -> Khz {
        let load = max_online_load_pct(snap);
        let cur = self.last_khz.unwrap_or_else(|| opps.min_khz());
        let hispeed = self
            .hispeed_khz
            .unwrap_or_else(|| opps.get_clamped(opps.len() * 3 / 5).khz);
        let next = if load >= self.go_hispeed_load {
            if cur >= hispeed {
                // already at hispeed: climb aggressively
                opps.max_khz()
            } else {
                hispeed
            }
        } else {
            let want = f64::from(cur.0) * load / self.target_load;
            opps.snap_up(Khz::from_f64(want.max(f64::from(opps.min_khz().0))))
                .khz
        };
        self.last_khz = Some(next);
        next
    }
}

/// The smooth stepper: raises or lowers the frequency by `freq_step`
/// percent of `f_max` per sample instead of jumping ("increases the CPU
/// speed more smoothly ... more suitable for a power-friendly
/// environment").
#[derive(Debug, Clone)]
pub struct Conservative {
    /// Load above which the governor steps up (default 80).
    pub up_threshold: f64,
    /// Load below which it steps down (default 20).
    pub down_threshold: f64,
    /// Step as a fraction of `f_max` (default 5 %).
    pub freq_step: f64,
    last_khz: Option<Khz>,
}

impl Conservative {
    /// Kernel-default tunables.
    pub fn new() -> Self {
        Conservative {
            up_threshold: 80.0,
            down_threshold: 20.0,
            freq_step: 0.05,
            last_khz: None,
        }
    }
}

impl Default for Conservative {
    fn default() -> Self {
        Self::new()
    }
}

impl DvfsGovernor for Conservative {
    fn name(&self) -> &str {
        "conservative"
    }

    fn target(&mut self, snap: &PolicySnapshot, opps: &OppTable) -> Khz {
        let load = max_online_load_pct(snap);
        let cur = self.last_khz.unwrap_or_else(|| opps.min_khz());
        let step = quantize_u32(f64::from(opps.max_khz().0) * self.freq_step);
        let next = if load > self.up_threshold {
            opps.snap_up(Khz(cur.0.saturating_add(step).min(opps.max_khz().0)))
                .khz
        } else if load < self.down_threshold {
            let want = cur.0.saturating_sub(step).max(opps.min_khz().0);
            // step down: floor-snap so we actually decrease
            let idx = opps.floor_index(Khz(want)).unwrap_or(0);
            opps.get_clamped(idx).khz
        } else {
            cur
        };
        self.last_khz = Some(next);
        next
    }
}

/// Pins the lowest available frequency.
#[derive(Debug, Clone, Copy, Default)]
pub struct Powersave;

impl Powersave {
    /// Creates the governor.
    pub fn new() -> Self {
        Powersave
    }
}

impl DvfsGovernor for Powersave {
    fn name(&self) -> &str {
        "powersave"
    }

    fn target(&mut self, _snap: &PolicySnapshot, opps: &OppTable) -> Khz {
        opps.min_khz()
    }
}

/// Pins the highest available frequency.
#[derive(Debug, Clone, Copy, Default)]
pub struct Performance;

impl Performance {
    /// Creates the governor.
    pub fn new() -> Self {
        Performance
    }
}

impl DvfsGovernor for Performance {
    fn name(&self) -> &str {
        "performance"
    }

    fn target(&mut self, _snap: &PolicySnapshot, opps: &OppTable) -> Khz {
        opps.max_khz()
    }
}

/// A schedutil-style governor — the mainline design that eventually
/// replaced both ondemand and interactive (and covers much of MobiCore's
/// DVFS ground): `f_next = margin · f_max · util`, computed from the
/// busiest core's utilization, with an optional rate limit.
///
/// This is *not* in the thesis (it post-dates it); it is included as the
/// modern baseline for the `ext01` extension experiment.
#[derive(Debug, Clone)]
pub struct Schedutil {
    /// The capacity margin (mainline uses 1.25: "go 25 % faster than the
    /// observed utilization needs").
    pub margin: f64,
    /// Minimum time between frequency changes, µs (`rate_limit_us`).
    pub rate_limit_us: u64,
    last_change_us: Option<u64>,
    last_khz: Option<Khz>,
}

impl Schedutil {
    /// Mainline-default tunables (margin 1.25, 10 ms rate limit).
    pub fn new() -> Self {
        Schedutil {
            margin: 1.25,
            rate_limit_us: 10_000,
            last_change_us: None,
            last_khz: None,
        }
    }
}

impl Default for Schedutil {
    fn default() -> Self {
        Self::new()
    }
}

impl DvfsGovernor for Schedutil {
    fn name(&self) -> &str {
        "schedutil"
    }

    fn target(&mut self, snap: &PolicySnapshot, opps: &OppTable) -> Khz {
        let cur = self.last_khz.unwrap_or_else(|| opps.min_khz());
        if let Some(last) = self.last_change_us {
            if snap.now_us.saturating_sub(last) < self.rate_limit_us {
                return cur;
            }
        }
        // util is measured against the *current* frequency; rescale to
        // capacity terms (util · f_cur / f_max) like the kernel does.
        let load = max_online_load_pct(snap) / 100.0;
        let cap_util = load
            * snap
                .cores
                .iter()
                .filter(|c| c.online)
                .map(|c| c.cur_khz.as_hz())
                .fold(0.0, f64::max)
            / opps.max_khz().as_hz();
        let want = self.margin * cap_util * f64::from(opps.max_khz().0);
        let next = opps
            .snap_up(Khz::from_f64(want.max(f64::from(opps.min_khz().0))))
            .khz;
        if next != cur {
            self.last_change_us = Some(snap.now_us);
        }
        self.last_khz = Some(next);
        next
    }
}

/// Returns whatever speed userspace last programmed — the hook "for users
/// who want to try their own hand-written governor" at whose location the
/// thesis installs MobiCore.
#[derive(Debug, Clone, Copy)]
pub struct Userspace {
    speed: Khz,
}

impl Userspace {
    /// Starts at `speed`.
    pub fn new(speed: Khz) -> Self {
        Userspace { speed }
    }

    /// Programs a new speed (the `scaling_setspeed` write).
    pub fn set_speed(&mut self, speed: Khz) {
        self.speed = speed;
    }

    /// The programmed speed.
    pub fn speed(&self) -> Khz {
        self.speed
    }
}

impl DvfsGovernor for Userspace {
    fn name(&self) -> &str {
        "userspace"
    }

    fn target(&mut self, _snap: &PolicySnapshot, opps: &OppTable) -> Khz {
        opps.snap_up(self.speed).khz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicore_model::{profiles, Quota, Utilization};
    use mobicore_sim::CoreSnapshot;

    fn opps() -> OppTable {
        profiles::nexus5().opps().clone()
    }

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
        let overall = cores.iter().map(|c| c.util.as_fraction()).sum::<f64>() / cores.len() as f64;
        PolicySnapshot {
            now_us: 0,
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
    fn max_load_skips_offline() {
        // -1 marks offline in this helper
        let s = snap(&[10.0, -1.0, 55.0, 20.0]);
        assert!((max_online_load_pct(&s) - 55.0).abs() < 1e-9);
    }

    #[test]
    fn ondemand_bursts_to_max_above_threshold() {
        let mut g = Ondemand::new();
        let t = g.target(&snap(&[85.0, 10.0, 10.0, 10.0]), &opps());
        assert_eq!(t, opps().max_khz());
    }

    #[test]
    fn ondemand_scales_down_proportionally() {
        let mut g = Ondemand::new();
        let o = opps();
        // first: burst to max
        g.target(&snap(&[100.0, 0.0, 0.0, 0.0]), &o);
        // then 40% load: want ≈ max·40/80 = half of max, snapped up
        let t = g.target(&snap(&[40.0, 0.0, 0.0, 0.0]), &o);
        assert!(t < o.max_khz());
        assert!(t >= Khz::from_f64(f64::from(o.max_khz().0) * 0.5));
    }

    #[test]
    fn ondemand_idles_to_min() {
        let mut g = Ondemand::new();
        let o = opps();
        g.target(&snap(&[100.0, 0.0, 0.0, 0.0]), &o);
        for _ in 0..10 {
            g.target(&snap(&[1.0, 0.0, 0.0, 0.0]), &o);
        }
        assert_eq!(g.target(&snap(&[1.0, 0.0, 0.0, 0.0]), &o), o.min_khz());
    }

    #[test]
    fn interactive_two_stage_burst() {
        let mut g = Interactive::new();
        let o = opps();
        let first = g.target(&snap(&[95.0, 0.0, 0.0, 0.0]), &o);
        assert!(first < o.max_khz(), "first burst goes to hispeed");
        assert!(first > o.min_khz());
        let second = g.target(&snap(&[95.0, 0.0, 0.0, 0.0]), &o);
        assert_eq!(second, o.max_khz(), "sustained load climbs to max");
    }

    #[test]
    fn interactive_more_aggressive_than_ondemand_mid_load() {
        // At a load just under ondemand's threshold, interactive's lower
        // effective headroom (target_load 90 vs scaling at 80) reacts by
        // climbing via hispeed.
        let mut i = Interactive::new();
        let mut od = Ondemand::new();
        let o = opps();
        let s = snap(&[86.0, 0.0, 0.0, 0.0]);
        let ti = i.target(&s, &o);
        let tod = od.target(&s, &o);
        // ondemand also bursts at 86 ≥ 80; equality allowed, but
        // interactive must be at least hispeed.
        assert!(ti >= o.get_clamped(o.len() * 3 / 5).khz);
        assert!(tod >= ti || tod == o.max_khz());
    }

    #[test]
    fn conservative_steps_not_jumps() {
        let mut g = Conservative::new();
        let o = opps();
        let t1 = g.target(&snap(&[100.0, 0.0, 0.0, 0.0]), &o);
        assert!(t1 < o.max_khz(), "one step only, got {t1}");
        let mut last = t1;
        for _ in 0..40 {
            last = g.target(&snap(&[100.0, 0.0, 0.0, 0.0]), &o);
        }
        assert_eq!(last, o.max_khz(), "eventually reaches max");
    }

    #[test]
    fn conservative_steps_down_on_low_load() {
        let mut g = Conservative::new();
        let o = opps();
        for _ in 0..40 {
            g.target(&snap(&[100.0, 0.0, 0.0, 0.0]), &o);
        }
        let high = g.target(&snap(&[50.0, 0.0, 0.0, 0.0]), &o);
        let lower = g.target(&snap(&[5.0, 0.0, 0.0, 0.0]), &o);
        assert!(lower < high);
        assert_eq!(high, o.max_khz(), "50% is between thresholds: hold");
    }

    #[test]
    fn powersave_and_performance_pin_ends() {
        let o = opps();
        assert_eq!(Powersave::new().target(&snap(&[100.0]), &o), o.min_khz());
        assert_eq!(Performance::new().target(&snap(&[0.0]), &o), o.max_khz());
    }

    #[test]
    fn userspace_returns_programmed_speed() {
        let o = opps();
        let mut g = Userspace::new(Khz(960_000));
        assert_eq!(g.target(&snap(&[50.0]), &o), Khz(960_000));
        g.set_speed(Khz(1_000_000));
        // snapped up to the next OPP (1 036 800)
        assert_eq!(g.target(&snap(&[50.0]), &o), Khz(1_036_800));
        assert_eq!(g.speed(), Khz(1_000_000));
    }

    #[test]
    fn governor_names() {
        assert_eq!(Ondemand::new().name(), "ondemand");
        assert_eq!(Interactive::new().name(), "interactive");
        assert_eq!(Conservative::new().name(), "conservative");
        assert_eq!(Powersave::new().name(), "powersave");
        assert_eq!(Performance::new().name(), "performance");
        assert_eq!(Userspace::new(Khz(1)).name(), "userspace");
        assert_eq!(Schedutil::new().name(), "schedutil");
    }

    fn snap_at(now_us: u64, loads: &[f64], cur: Khz) -> PolicySnapshot {
        let mut s = snap(loads);
        s.now_us = now_us;
        for c in &mut s.cores {
            c.cur_khz = cur;
        }
        s
    }

    #[test]
    fn schedutil_tracks_capacity_with_margin() {
        let o = opps();
        let mut g = Schedutil::new();
        // 80 % load at f_max: want 1.25 · 0.8 · f_max = f_max.
        let t = g.target(&snap_at(0, &[80.0, 0.0, 0.0, 0.0], o.max_khz()), &o);
        assert_eq!(t, o.max_khz());
        // 40 % load at f_max (after the rate limit): want half + margin.
        let t = g.target(&snap_at(20_000, &[40.0, 0.0, 0.0, 0.0], o.max_khz()), &o);
        let want = 1.25 * 0.4 * f64::from(o.max_khz().0);
        assert!(f64::from(t.0) >= want);
        assert!(t < o.max_khz());
    }

    #[test]
    fn schedutil_rescales_by_current_frequency() {
        let o = opps();
        let mut g = Schedutil::new();
        // 100 % load at f_min is only f_min worth of capacity demand.
        let t = g.target(&snap_at(0, &[100.0, 0.0, 0.0, 0.0], o.min_khz()), &o);
        assert!(
            t < Khz(o.max_khz().0 / 2),
            "full load at 300 MHz must not jump to max: {t}"
        );
    }

    #[test]
    fn schedutil_rate_limit_holds_frequency() {
        let o = opps();
        let mut g = Schedutil::new();
        let first = g.target(&snap_at(0, &[80.0, 0.0, 0.0, 0.0], o.max_khz()), &o);
        // 5 ms later (inside the 10 ms rate limit) demand collapses, but
        // the governor holds.
        let held = g.target(&snap_at(5_000, &[1.0, 0.0, 0.0, 0.0], o.min_khz()), &o);
        assert_eq!(held, first);
        // After the limit it follows.
        let moved = g.target(&snap_at(20_000, &[1.0, 0.0, 0.0, 0.0], o.min_khz()), &o);
        assert!(moved < first);
    }
}
