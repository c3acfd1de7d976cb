//! The interface between CPU-management policies and the simulated SoC.
//!
//! A [`CpuPolicy`] plays the role a governor + hotplug driver + bandwidth
//! controller plays on a real Android device: every sampling period it
//! observes per-core utilization (the one signal the thesis says both
//! default mechanisms key off, §2.2) and issues frequency / online /
//! quota commands. The stock governors live in `mobicore-governors`; the
//! paper's contribution lives in the `mobicore` crate; both implement this
//! trait.

use mobicore_model::{quantize_u64, Khz, Quota, Utilization};
use mobicore_telemetry::EventData;

/// Identifier of a CPU core (`0..n_cores`). Core 0 is the boot core and
/// can never be off-lined, as on Linux.
pub type CoreId = usize;

/// What a policy sees about one core at a sampling boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSnapshot {
    /// Whether the core is online.
    pub online: bool,
    /// The frequency the core actually ran at (thermal caps included) at
    /// the end of the window.
    pub cur_khz: Khz,
    /// The last frequency requested for this core (what
    /// `scaling_setspeed` would report).
    pub target_khz: Khz,
    /// Busy fraction of the sampling window. Offline cores report zero.
    pub util: Utilization,
    /// Raw busy time inside the window, µs.
    pub busy_us: u64,
}

impl CoreSnapshot {
    /// An online core that spent `util` of a `window_us` window busy at
    /// `khz` — the steady-state shape the model checker enumerates.
    pub fn online_at(khz: Khz, util: Utilization, window_us: u64) -> Self {
        CoreSnapshot {
            online: true,
            cur_khz: khz,
            target_khz: khz,
            util,
            busy_us: quantize_u64(util.as_fraction() * window_us as f64),
        }
    }

    /// An offline core (zero utilization, zero clock).
    pub fn offline() -> Self {
        CoreSnapshot {
            online: false,
            cur_khz: Khz::ZERO,
            target_khz: Khz::ZERO,
            util: Utilization::IDLE,
            busy_us: 0,
        }
    }
}

/// The observation handed to a policy at each sampling boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySnapshot {
    /// Simulation time at the sample, µs.
    pub now_us: u64,
    /// Length of the window the utilizations were accumulated over, µs.
    pub window_us: u64,
    /// Per-core state.
    pub cores: Vec<CoreSnapshot>,
    /// Overall utilization `K`: total busy time divided by
    /// `n_cores · window` (§2.2: "the average of the utilizations over
    /// all the CPU cores").
    pub overall_util: Utilization,
    /// The bandwidth quota in force during the window.
    pub quota: Quota,
    /// Whether the `mpdecision` service is running (while it runs, the
    /// kernel refuses to off-line cores, §2.2.2).
    pub mpdecision_enabled: bool,
    /// Peak number of runnable threads observed inside the window (the
    /// scheduler's `nr_running` high-water mark) — extra cores beyond this
    /// cannot be used.
    pub max_runnable_threads: usize,
    /// Package temperature at the sample, °C (exposed like
    /// `thermal_zone0`; stock policies ignore it).
    pub temp_c: f64,
}

impl PolicySnapshot {
    /// A synthetic steady-state observation, for driving policies outside
    /// the simulator (unit tests, the `mobicore-checker` state-space walk):
    /// cores `0..n_online` are online at `khz` and share the overall
    /// utilization `overall` evenly; cores `n_online..n_total` are offline.
    ///
    /// `overall` is the platform-wide `K` (normalized by `n_total`), so the
    /// per-core busy fraction is `overall · n_total / n_online`, clamped —
    /// exactly the inversion `Eq. (9)` performs.
    pub fn synthetic(
        n_total: usize,
        n_online: usize,
        khz: Khz,
        overall: Utilization,
        window_us: u64,
    ) -> Self {
        assert!(n_total >= 1, "need at least one core");
        let n_online = n_online.clamp(1, n_total);
        let per_core = Utilization::new(overall.as_fraction() * n_total as f64 / n_online as f64);
        let cores: Vec<CoreSnapshot> = (0..n_total)
            .map(|i| {
                if i < n_online {
                    CoreSnapshot::online_at(khz, per_core, window_us)
                } else {
                    CoreSnapshot::offline()
                }
            })
            .collect();
        PolicySnapshot {
            now_us: 0,
            window_us,
            cores,
            overall_util: overall,
            quota: Quota::FULL,
            mpdecision_enabled: false,
            max_runnable_threads: n_total,
            temp_c: 25.0,
        }
    }

    /// Number of online cores.
    pub fn online_count(&self) -> usize {
        self.cores.iter().filter(|c| c.online).count()
    }

    /// Observed compute demand in kHz-equivalents: `Σ util·cur_khz` over
    /// online cores — the cycles-per-second the workload actually consumed
    /// in the window, independent of which operating point delivered them.
    /// Capacity-planning policies (the learned governor, the checker's
    /// capacity-floor invariant) compare this against
    /// `mobicore_model::energy::effective_capacity_khz`.
    pub fn demand_khz(&self) -> f64 {
        self.cores
            .iter()
            .filter(|c| c.online)
            .map(|c| c.util.as_fraction() * f64::from(c.cur_khz.0))
            .sum()
    }

    /// Average utilization over *online* cores only (the per-core load
    /// MobiCore's Eq. (9) multiplies back in via `K · n_max / n`).
    pub fn online_avg_util(&self) -> Utilization {
        let online: Vec<_> = self.cores.iter().filter(|c| c.online).collect();
        if online.is_empty() {
            return Utilization::IDLE;
        }
        Utilization::new(
            online.iter().map(|c| c.util.as_fraction()).sum::<f64>() / online.len() as f64,
        )
    }
}

/// One command a policy can issue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Request a frequency for one core (snapped up to a valid OPP).
    SetFreq {
        /// The target core.
        core: CoreId,
        /// Requested frequency.
        khz: Khz,
    },
    /// Request a frequency for every online core.
    SetFreqAll {
        /// Requested frequency.
        khz: Khz,
    },
    /// Hot-plug a core in or out. Offline requests for core 0 are
    /// rejected; offline requests are also rejected while `mpdecision`
    /// runs.
    SetOnline {
        /// The target core.
        core: CoreId,
        /// Desired state.
        online: bool,
    },
    /// Set the global CPU bandwidth quota.
    SetQuota(Quota),
}

/// Buffer of commands produced during one policy invocation.
///
/// The simulator applies them after the callback returns, mirroring how
/// sysfs writes take effect asynchronously on a real kernel.
///
/// Besides commands, a policy can attach telemetry *notes* — typed
/// [`EventData`] records explaining the decision (mode classification,
/// governor inputs). The simulator timestamps them and feeds them into
/// the run's [`Telemetry`](mobicore_telemetry::Telemetry) sink; when
/// telemetry is disabled they are dropped on the floor.
#[derive(Debug, Default)]
pub struct CpuControl {
    commands: Vec<Command>,
    notes: Vec<EventData>,
}

impl CpuControl {
    /// An empty command buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests `khz` on `core`.
    pub fn set_freq(&mut self, core: CoreId, khz: Khz) {
        self.commands.push(Command::SetFreq { core, khz });
    }

    /// Requests `khz` on all online cores.
    pub fn set_freq_all(&mut self, khz: Khz) {
        self.commands.push(Command::SetFreqAll { khz });
    }

    /// Requests a hotplug state change.
    pub fn set_online(&mut self, core: CoreId, online: bool) {
        self.commands.push(Command::SetOnline { core, online });
    }

    /// Sets the global bandwidth quota.
    pub fn set_quota(&mut self, quota: Quota) {
        self.commands.push(Command::SetQuota(quota));
    }

    /// The queued commands, in issue order.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Drains the queued commands.
    pub fn take(&mut self) -> Vec<Command> {
        std::mem::take(&mut self.commands)
    }

    /// Moves the queued commands into `out`, keeping this buffer's
    /// capacity for the next invocation (the simulator reuses one
    /// `CpuControl` across samples; see docs/performance.md).
    pub fn drain_commands_into(&mut self, out: &mut Vec<Command>) {
        out.clear();
        out.append(&mut self.commands);
    }

    /// Attaches a telemetry note explaining this invocation's decision.
    pub fn note(&mut self, data: EventData) {
        self.notes.push(data);
    }

    /// The attached notes, in issue order.
    pub fn notes(&self) -> &[EventData] {
        &self.notes
    }

    /// Drains the attached notes.
    pub fn take_notes(&mut self) -> Vec<EventData> {
        std::mem::take(&mut self.notes)
    }

    /// Drains the attached notes in issue order, keeping the buffer's
    /// capacity.
    pub fn drain_notes(&mut self) -> std::vec::Drain<'_, EventData> {
        self.notes.drain(..)
    }
}

/// A CPU-management policy.
///
/// Implementors are driven by the simulator: [`CpuPolicy::on_sample`] is
/// called once per [`CpuPolicy::sampling_period_us`] with fresh
/// utilization accounting.
pub trait CpuPolicy {
    /// Short policy name (shows up in reports, e.g. `"ondemand+hotplug"`).
    fn name(&self) -> &str;

    /// How often the policy samples, µs. The default 20 ms matches the
    /// effective ondemand sampling rate on msm8974.
    fn sampling_period_us(&self) -> u64 {
        20_000
    }

    /// Called at every sampling boundary with the window's accounting;
    /// queue decisions on `ctl`.
    fn on_sample(&mut self, snap: &PolicySnapshot, ctl: &mut CpuControl);
}

/// Blanket impl so `Box<dyn CpuPolicy>` can be passed wherever a policy is
/// expected.
impl<P: CpuPolicy + ?Sized> CpuPolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn sampling_period_us(&self) -> u64 {
        (**self).sampling_period_us()
    }
    fn on_sample(&mut self, snap: &PolicySnapshot, ctl: &mut CpuControl) {
        (**self).on_sample(snap, ctl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(utils: &[Option<f64>]) -> PolicySnapshot {
        let cores: Vec<CoreSnapshot> = utils
            .iter()
            .map(|u| CoreSnapshot {
                online: u.is_some(),
                cur_khz: Khz(300_000),
                target_khz: Khz(300_000),
                util: Utilization::new(u.unwrap_or(0.0)),
                busy_us: 0,
            })
            .collect();
        let total: f64 = cores.iter().map(|c| c.util.as_fraction()).sum();
        let overall = Utilization::new(total / cores.len() as f64);
        PolicySnapshot {
            now_us: 0,
            window_us: 20_000,
            cores,
            overall_util: overall,
            quota: Quota::FULL,
            mpdecision_enabled: false,
            max_runnable_threads: 8,
            temp_c: 25.0,
        }
    }

    #[test]
    fn synthetic_snapshot_matches_spec() {
        let s = PolicySnapshot::synthetic(4, 2, Khz(960_000), Utilization::new(0.25), 20_000);
        assert_eq!(s.online_count(), 2);
        assert_eq!(s.cores.len(), 4);
        assert!(!s.cores[3].online);
        assert_eq!(s.cores[3].cur_khz, Khz::ZERO);
        // K = 0.25 over 4 cores on 2 online cores → 0.5 each.
        assert!((s.online_avg_util().as_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(s.cores[0].busy_us, 10_000);
        assert_eq!(s.max_runnable_threads, 4);
    }

    #[test]
    fn synthetic_clamps_online_count() {
        let s = PolicySnapshot::synthetic(2, 0, Khz(300_000), Utilization::IDLE, 20_000);
        assert_eq!(s.online_count(), 1, "core 0 can never be offline");
        let s = PolicySnapshot::synthetic(2, 9, Khz(300_000), Utilization::FULL, 20_000);
        assert_eq!(s.online_count(), 2);
    }

    #[test]
    fn online_count_ignores_offline() {
        let s = snap(&[Some(0.5), None, Some(1.0), None]);
        assert_eq!(s.online_count(), 2);
    }

    #[test]
    fn online_avg_util_over_online_only() {
        let s = snap(&[Some(0.5), None, Some(1.0), None]);
        assert!((s.online_avg_util().as_fraction() - 0.75).abs() < 1e-12);
        // overall K spreads over all 4 cores
        assert!((s.overall_util.as_fraction() - 0.375).abs() < 1e-12);
    }

    #[test]
    fn online_avg_util_all_offline_is_idle() {
        let s = snap(&[None, None]);
        assert_eq!(s.online_avg_util(), Utilization::IDLE);
    }

    #[test]
    fn control_buffers_in_order() {
        let mut ctl = CpuControl::new();
        ctl.set_freq(1, Khz(960_000));
        ctl.set_online(3, false);
        ctl.set_quota(Quota::new(0.9));
        ctl.set_freq_all(Khz(300_000));
        assert_eq!(ctl.commands().len(), 4);
        let cmds = ctl.take();
        assert_eq!(
            cmds[0],
            Command::SetFreq {
                core: 1,
                khz: Khz(960_000)
            }
        );
        assert!(ctl.commands().is_empty());
    }

    #[test]
    fn boxed_policy_delegates() {
        struct P(u32);
        impl CpuPolicy for P {
            fn name(&self) -> &str {
                "p"
            }
            fn sampling_period_us(&self) -> u64 {
                12_345
            }
            fn on_sample(&mut self, _s: &PolicySnapshot, _c: &mut CpuControl) {
                self.0 += 1;
            }
        }
        let mut boxed: Box<dyn CpuPolicy> = Box::new(P(0));
        assert_eq!(boxed.name(), "p");
        assert_eq!(boxed.sampling_period_us(), 12_345);
        let s = snap(&[Some(0.1)]);
        let mut ctl = CpuControl::new();
        boxed.on_sample(&s, &mut ctl);
    }
}
