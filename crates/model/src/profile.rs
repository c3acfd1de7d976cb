//! Whole-device power models.
//!
//! A [`DeviceProfile`] plays the role of the *real phone* in the
//! reproduction: given the instantaneous state of every core (online?
//! which OPP? how busy?) it returns the power the Monsoon meter would see.
//! It is deliberately richer than the analytic model MobiCore itself uses
//! (Eqs. (1)–(7), in [`crate::energy`]) — the policy reasons with the
//! simple model while the "hardware" behaves like measurements say real
//! hardware behaves. The extra structure is:
//!
//! * a **platform base**: PMIC, memory at full bandwidth (§3.2 pins memory
//!   to its highest state), GPU clocked at maximum but idle, screen off;
//! * a **cluster/uncore term**: L2, CCI and clock distribution scale with
//!   the fastest online core's frequency and with cluster activity — this
//!   is `P_cache` of Eq. (4) plus rail overheads;
//! * **marginal per-core efficiency**: the k-th online core costs less
//!   than the first because the shared clock tree and rail overhead are
//!   already paid; this reproduces the strongly sublinear core scaling of
//!   paper Figure 4 (+28.3 % for the 2nd core, far less after);
//! * per-OPP **idle vs busy** core power (tables in [`crate::opp`]).

use crate::error::ModelError;
use crate::idle::IdleLadder;
use crate::opp::OppTable;
use crate::thermal::ThermalParams;
use crate::units::Khz;

/// Instantaneous activity of one core, the input to the power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreActivity {
    /// Whether the core is online (hot-plugged in).
    pub online: bool,
    /// Index into the device's [`OppTable`] (ignored when offline).
    pub opp_idx: usize,
    /// Fraction of time the core spent executing, `[0, 1]` (ignored when
    /// offline).
    pub utilization: f64,
    /// Power of the idle fraction of the tick relative to the per-OPP
    /// WFI idle power, `[0, 1]` — 1.0 unless the core has descended the
    /// cpuidle ladder ([`crate::idle::IdleLadder`]).
    pub idle_power_frac: f64,
}

impl CoreActivity {
    /// An offline core.
    pub const OFFLINE: CoreActivity = CoreActivity {
        online: false,
        opp_idx: 0,
        utilization: 0.0,
        idle_power_frac: 1.0,
    };

    /// An online core at `opp_idx` with utilization `u`, idling in WFI.
    pub fn online(opp_idx: usize, u: f64) -> Self {
        CoreActivity {
            online: true,
            opp_idx,
            utilization: u,
            idle_power_frac: 1.0,
        }
    }

    /// An online core whose idle fraction sits in a discounted idle
    /// state.
    pub fn online_with_idle_state(opp_idx: usize, u: f64, idle_power_frac: f64) -> Self {
        CoreActivity {
            online: true,
            opp_idx,
            utilization: u,
            idle_power_frac: idle_power_frac.clamp(0.0, 1.0),
        }
    }
}

/// Decomposition of a device power sample, all in mW.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Always-on platform floor.
    pub base_mw: f64,
    /// Cluster / uncore (L2, interconnect, clock tree, `P_cache`).
    pub cluster_mw: f64,
    /// Per-core power after marginal-efficiency scaling; offline cores
    /// contribute `0.0`.
    pub core_mw: Vec<f64>,
}

impl PowerBreakdown {
    /// Total device power in mW.
    pub fn total_mw(&self) -> f64 {
        self.base_mw + self.cluster_mw + self.core_mw.iter().sum::<f64>()
    }

    /// CPU-attributable power (total minus platform base), the quantity
    /// the thesis argues about.
    pub fn cpu_mw(&self) -> f64 {
        self.cluster_mw + self.core_mw.iter().sum::<f64>()
    }
}

/// Memoizes the `(f / f_max)^exp` factor of the cluster/uncore power
/// term between [`DeviceProfile::power_into`] calls.
///
/// The cluster frequency is always one of the table's few OPPs and
/// rarely changes between consecutive simulator ticks, so caching the
/// last `powf` result removes a transcendental from the per-tick hot
/// path. A default (empty) cache is always correct — just slower on the
/// first call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterPowerCache {
    last: Option<(Khz, f64)>,
}

/// A calibrated model of one phone.
///
/// Construct the phones of the thesis with [`crate::profiles`], or build a
/// custom device with [`DeviceProfileBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    name: String,
    n_cores: usize,
    opps: OppTable,
    platform_base_mw: f64,
    cluster_max_mw: f64,
    cluster_floor: f64,
    cluster_exp: f64,
    core_marginal: Vec<f64>,
    thermal: ThermalParams,
    idle_ladder: IdleLadder,
    /// Latency to bring an offline core back online, µs.
    hotplug_on_latency_us: u64,
    /// Latency of a frequency transition, µs.
    dvfs_latency_us: u64,
}

/// Builder for [`DeviceProfile`]; see [`DeviceProfile::builder`].
#[derive(Debug, Clone)]
pub struct DeviceProfileBuilder {
    name: String,
    n_cores: usize,
    opps: Option<OppTable>,
    platform_base_mw: f64,
    cluster_max_mw: f64,
    cluster_floor: f64,
    cluster_exp: f64,
    core_marginal: Vec<f64>,
    thermal: ThermalParams,
    idle_ladder: IdleLadder,
    hotplug_on_latency_us: u64,
    dvfs_latency_us: u64,
}

impl DeviceProfileBuilder {
    /// Sets the OPP table (required).
    pub fn opps(mut self, opps: OppTable) -> Self {
        self.opps = Some(opps);
        self
    }

    /// Sets the always-on platform floor, mW.
    pub fn platform_base_mw(mut self, mw: f64) -> Self {
        self.platform_base_mw = mw;
        self
    }

    /// Sets cluster power at the top OPP with full activity, mW.
    pub fn cluster_max_mw(mut self, mw: f64) -> Self {
        self.cluster_max_mw = mw;
        self
    }

    /// Fraction of cluster power paid as soon as any core is online
    /// regardless of activity (clock tree never fully gates while the
    /// cluster clocks are up).
    pub fn cluster_floor(mut self, floor: f64) -> Self {
        self.cluster_floor = floor.clamp(0.0, 1.0);
        self
    }

    /// Exponent of the cluster power vs frequency curve
    /// (`(f / f_max)^exp`).
    pub fn cluster_exp(mut self, exp: f64) -> Self {
        self.cluster_exp = exp.max(0.0);
        self
    }

    /// Marginal power multiplier of the k-th online core (index 0 = first
    /// online core, typically `1.0`). Missing entries repeat the last
    /// value.
    pub fn core_marginal(mut self, factors: Vec<f64>) -> Self {
        self.core_marginal = factors;
        self
    }

    /// Sets the thermal parameters.
    pub fn thermal(mut self, thermal: ThermalParams) -> Self {
        self.thermal = thermal;
        self
    }

    /// Sets the cpuidle ladder (defaults to WFI-only, the paper's
    /// measured Nexus 5 behaviour).
    pub fn idle_ladder(mut self, ladder: IdleLadder) -> Self {
        self.idle_ladder = ladder;
        self
    }

    /// Sets hotplug online latency, µs.
    pub fn hotplug_on_latency_us(mut self, us: u64) -> Self {
        self.hotplug_on_latency_us = us;
        self
    }

    /// Sets DVFS transition latency, µs.
    pub fn dvfs_latency_us(mut self, us: u64) -> Self {
        self.dvfs_latency_us = us;
        self
    }

    /// Finalizes the profile.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NoCores`] for a zero-core device and
    /// [`ModelError::EmptyOppTable`] if no OPP table was supplied.
    pub fn build(self) -> Result<DeviceProfile, ModelError> {
        if self.n_cores == 0 {
            return Err(ModelError::NoCores);
        }
        let opps = self.opps.ok_or(ModelError::EmptyOppTable)?;
        let mut core_marginal = self.core_marginal;
        if core_marginal.is_empty() {
            core_marginal.push(1.0);
        }
        while core_marginal.len() < self.n_cores {
            let last = *core_marginal.last().expect("non-empty");
            core_marginal.push(last);
        }
        Ok(DeviceProfile {
            name: self.name,
            n_cores: self.n_cores,
            opps,
            platform_base_mw: self.platform_base_mw,
            cluster_max_mw: self.cluster_max_mw,
            cluster_floor: self.cluster_floor,
            cluster_exp: self.cluster_exp,
            core_marginal,
            thermal: self.thermal,
            idle_ladder: self.idle_ladder,
            hotplug_on_latency_us: self.hotplug_on_latency_us,
            dvfs_latency_us: self.dvfs_latency_us,
        })
    }
}

impl DeviceProfile {
    /// Starts building a profile with `n_cores` cores.
    pub fn builder(name: impl Into<String>, n_cores: usize) -> DeviceProfileBuilder {
        DeviceProfileBuilder {
            name: name.into(),
            n_cores,
            opps: None,
            platform_base_mw: 150.0,
            cluster_max_mw: 600.0,
            cluster_floor: 0.55,
            cluster_exp: 1.8,
            core_marginal: vec![1.0, 0.62, 0.48, 0.40],
            thermal: ThermalParams::default(),
            idle_ladder: IdleLadder::default(),
            hotplug_on_latency_us: 5_000,
            dvfs_latency_us: 200,
        }
    }

    /// The device name ("Nexus 5", ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical cores.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// The OPP table shared by all cores (the thesis studies symmetric
    /// multicores only, §3.4 explicitly excludes big.LITTLE).
    pub fn opps(&self) -> &OppTable {
        &self.opps
    }

    /// The thermal parameters.
    pub fn thermal(&self) -> &ThermalParams {
        &self.thermal
    }

    /// The cpuidle ladder.
    pub fn idle_ladder(&self) -> &IdleLadder {
        &self.idle_ladder
    }

    /// Latency to hotplug a core online, µs.
    pub fn hotplug_on_latency_us(&self) -> u64 {
        self.hotplug_on_latency_us
    }

    /// DVFS transition latency, µs.
    pub fn dvfs_latency_us(&self) -> u64 {
        self.dvfs_latency_us
    }

    /// Always-on platform floor, mW.
    pub fn platform_base_mw(&self) -> f64 {
        self.platform_base_mw
    }

    /// Evaluates the device power model for one instantaneous state.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ActivityLengthMismatch`] when `activities`
    /// does not have exactly [`DeviceProfile::n_cores`] entries.
    pub fn power(&self, activities: &[CoreActivity]) -> Result<PowerBreakdown, ModelError> {
        let mut out = PowerBreakdown::default();
        self.power_into(activities, &mut ClusterPowerCache::default(), &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`DeviceProfile::power`]: writes the
    /// breakdown into `out` (reusing its `core_mw` buffer) and memoizes
    /// the cluster frequency factor in `cache`. The simulator calls this
    /// once per tick.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ActivityLengthMismatch`] when `activities`
    /// does not have exactly [`DeviceProfile::n_cores`] entries.
    pub fn power_into(
        &self,
        activities: &[CoreActivity],
        cache: &mut ClusterPowerCache,
        out: &mut PowerBreakdown,
    ) -> Result<(), ModelError> {
        if activities.len() != self.n_cores {
            return Err(ModelError::ActivityLengthMismatch {
                expected: self.n_cores,
                got: activities.len(),
            });
        }
        let mut cluster_khz = Khz::ZERO;
        let mut cluster_util: f64 = 0.0;
        let mut online_seen = 0usize;
        out.core_mw.clear();
        out.core_mw.resize(self.n_cores, 0.0);
        for (i, act) in activities.iter().enumerate() {
            if !act.online {
                continue;
            }
            let opp = self.opps.get_clamped(act.opp_idx);
            let marginal = self.core_marginal[online_seen.min(self.core_marginal.len() - 1)];
            online_seen += 1;
            let u = act.utilization.clamp(0.0, 1.0);
            // Busy fraction pays full static + dynamic; the idle fraction
            // pays the (possibly discounted) idle-state power.
            let busy_mw = u * (opp.idle_mw + opp.busy_extra_mw);
            let idle_mw = (1.0 - u) * opp.idle_mw * act.idle_power_frac.clamp(0.0, 1.0);
            out.core_mw[i] = (busy_mw + idle_mw) * marginal;
            if opp.khz > cluster_khz {
                cluster_khz = opp.khz;
            }
            // Cluster/L2 traffic follows the total activity of the
            // cluster, saturating at one core's worth of continuous
            // accesses.
            cluster_util = (cluster_util + act.utilization.clamp(0.0, 1.0)).min(1.0);
        }
        let cluster_mw = if online_seen == 0 {
            0.0
        } else {
            let f_factor = match cache.last {
                Some((khz, factor)) if khz == cluster_khz => factor,
                _ => {
                    let f_frac = cluster_khz.as_hz() / self.opps.max_khz().as_hz();
                    let factor = f_frac.powf(self.cluster_exp);
                    cache.last = Some((cluster_khz, factor));
                    factor
                }
            };
            let activity = self.cluster_floor + (1.0 - self.cluster_floor) * cluster_util;
            self.cluster_max_mw * f_factor * activity
        };
        out.base_mw = self.platform_base_mw;
        out.cluster_mw = cluster_mw;
        Ok(())
    }

    /// Convenience: total power with `n` online cores all at OPP `opp_idx`
    /// and utilization `u` (the configurations of Figures 3–5).
    ///
    /// # Panics
    ///
    /// Panics if `n > n_cores`.
    pub fn uniform_power_mw(&self, n: usize, opp_idx: usize, u: f64) -> f64 {
        assert!(n <= self.n_cores, "asked for {n} of {} cores", self.n_cores);
        let mut acts = vec![CoreActivity::OFFLINE; self.n_cores];
        for a in acts.iter_mut().take(n) {
            *a = CoreActivity::online(opp_idx, u);
        }
        self.power(&acts)
            .expect("activity vector built to match")
            .total_mw()
    }

    /// Aggregate compute capacity of `n` cores at OPP `opp_idx`, in
    /// cycles per second. Used to enumerate operating points: a global
    /// load `K` over `n_max` cores at `f_max` demands
    /// `K · n_max · f_max` cycles per second (§3.4).
    pub fn capacity_hz(&self, n: usize, opp_idx: usize) -> f64 {
        self.opps.get_clamped(opp_idx).khz.as_hz() * n as f64
    }

    /// Full-platform capacity (`n_cores` at the top OPP), cycles/s.
    pub fn max_capacity_hz(&self) -> f64 {
        self.capacity_hz(self.n_cores, self.opps.max_index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opp::Opp;
    use crate::units::MilliVolts;

    fn profile() -> DeviceProfile {
        let opps = OppTable::new(vec![
            Opp {
                khz: Khz(300_000),
                mv: MilliVolts(900),
                idle_mw: 47.0,
                busy_extra_mw: 50.0,
            },
            Opp {
                khz: Khz(1_000_000),
                mv: MilliVolts(1_000),
                idle_mw: 80.0,
                busy_extra_mw: 200.0,
            },
            Opp {
                khz: Khz(2_000_000),
                mv: MilliVolts(1_200),
                idle_mw: 120.0,
                busy_extra_mw: 600.0,
            },
        ])
        .unwrap();
        DeviceProfile::builder("test", 4)
            .opps(opps)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_cores_and_opps() {
        assert!(matches!(
            DeviceProfile::builder("x", 0).build(),
            Err(ModelError::NoCores)
        ));
        assert!(matches!(
            DeviceProfile::builder("x", 2).build(),
            Err(ModelError::EmptyOppTable)
        ));
    }

    #[test]
    fn power_checks_activity_length() {
        let p = profile();
        let err = p.power(&[CoreActivity::OFFLINE]).unwrap_err();
        assert_eq!(
            err,
            ModelError::ActivityLengthMismatch {
                expected: 4,
                got: 1
            }
        );
    }

    #[test]
    fn all_offline_costs_only_base() {
        let p = profile();
        let bd = p.power(&[CoreActivity::OFFLINE; 4]).unwrap();
        assert_eq!(bd.cluster_mw, 0.0);
        assert_eq!(bd.total_mw(), p.platform_base_mw());
        assert_eq!(bd.cpu_mw(), 0.0);
    }

    #[test]
    fn power_monotone_in_utilization() {
        let p = profile();
        let low = p.uniform_power_mw(1, 2, 0.1);
        let high = p.uniform_power_mw(1, 2, 1.0);
        assert!(high > low);
    }

    #[test]
    fn power_monotone_in_frequency() {
        let p = profile();
        let slow = p.uniform_power_mw(2, 0, 1.0);
        let fast = p.uniform_power_mw(2, 2, 1.0);
        assert!(fast > slow);
    }

    #[test]
    fn marginal_core_cost_decreases() {
        // Paper Fig 4: going 1→2 cores is "aggressive", later cores are
        // marginal. Assert strictly decreasing marginal cost.
        let p = profile();
        let p1 = p.uniform_power_mw(1, 2, 1.0);
        let p2 = p.uniform_power_mw(2, 2, 1.0);
        let p3 = p.uniform_power_mw(3, 2, 1.0);
        let p4 = p.uniform_power_mw(4, 2, 1.0);
        let m2 = p2 - p1;
        let m3 = p3 - p2;
        let m4 = p4 - p3;
        assert!(m2 > m3 && m3 > m4, "marginal costs {m2} {m3} {m4}");
        assert!(m4 > 0.0);
    }

    #[test]
    fn cluster_follows_fastest_online_core() {
        let p = profile();
        // one slow busy core + one fast idle core: cluster billed at fast.
        let acts = [
            CoreActivity::online(0, 1.0),
            CoreActivity::online(2, 0.0),
            CoreActivity::OFFLINE,
            CoreActivity::OFFLINE,
        ];
        let mixed = p.power(&acts).unwrap();
        let slow_only = p
            .power(&[
                CoreActivity::online(0, 1.0),
                CoreActivity::OFFLINE,
                CoreActivity::OFFLINE,
                CoreActivity::OFFLINE,
            ])
            .unwrap();
        assert!(mixed.cluster_mw > slow_only.cluster_mw);
    }

    #[test]
    fn offline_core_contributes_zero() {
        let p = profile();
        let acts = [
            CoreActivity::online(1, 0.5),
            CoreActivity::OFFLINE,
            CoreActivity::OFFLINE,
            CoreActivity::OFFLINE,
        ];
        let bd = p.power(&acts).unwrap();
        assert_eq!(bd.core_mw[1], 0.0);
        assert_eq!(bd.core_mw[2], 0.0);
        assert!(bd.core_mw[0] > 0.0);
    }

    #[test]
    fn uniform_power_out_of_range_opp_clamps() {
        let p = profile();
        assert_eq!(
            p.uniform_power_mw(1, 99, 1.0),
            p.uniform_power_mw(1, 2, 1.0)
        );
    }

    #[test]
    #[should_panic(expected = "asked for 5")]
    fn uniform_power_too_many_cores_panics() {
        profile().uniform_power_mw(5, 0, 1.0);
    }

    #[test]
    fn capacity_scales_linearly() {
        let p = profile();
        assert_eq!(p.capacity_hz(2, 0), 2.0 * 300_000_000.0);
        assert_eq!(p.max_capacity_hz(), 4.0 * 2_000_000_000.0);
    }

    #[test]
    fn marginal_factors_padded_to_core_count() {
        let opps = OppTable::new(vec![Opp {
            khz: Khz(300_000),
            mv: MilliVolts(900),
            idle_mw: 10.0,
            busy_extra_mw: 10.0,
        }])
        .unwrap();
        let p = DeviceProfile::builder("pad", 3)
            .opps(opps)
            .core_marginal(vec![1.0])
            .build()
            .unwrap();
        // All three cores share the 1.0 factor: perfectly additive.
        let p1 = p.uniform_power_mw(1, 0, 1.0);
        let p2 = p.uniform_power_mw(2, 0, 1.0);
        let p3 = p.uniform_power_mw(3, 0, 1.0);
        assert!((p2 - p1 - (p3 - p2)).abs() < 1e-9);
    }
}
