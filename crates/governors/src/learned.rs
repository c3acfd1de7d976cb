//! `learned` — a seeded, dependency-free online-learning governor.
//!
//! The paper frames CPU management as a cores × frequency × quota search
//! (§4.1); MobiCore walks it with a fixed scar-curve heuristic. This
//! module walks the same space with a **contextual bandit**: one
//! incremental ridge-regression model per operating point (a LinUCB-style
//! arm), learning online which point minimizes power without QoS damage.
//!
//! Design constraints, in order:
//!
//! 1. **Pure function of the snapshot stream.** The learner reads only
//!    [`PolicySnapshot`] — its "energy meter" is the policy-side analytic
//!    model of §4.1 ([`CpuEnergyModel`]) evaluated on *observed* state
//!    (`cur_khz` includes thermal caps), and its QoS signal is observed
//!    per-core saturation. No side channels, so a remotely-served
//!    `learned` policy is byte-identical to an in-process one.
//! 2. **Safe by construction.** Actions are filtered *before* selection:
//!    frequencies come from the OPP table (OPP membership), quotas from a
//!    fixed ladder inside `[Quota::MIN_FRACTION, 1.0]` (quota bounds), and
//!    only operating points whose [`effective_capacity_khz`] covers the
//!    observed demand plus headroom survive (capacity floor). The
//!    exploration step can only ever pick a *feasible* point.
//! 3. **Byte-deterministic given `(seed, scenario)`.** Exploration uses a
//!    seeded xorshift64* generator, arms update in a fixed order, and all
//!    arithmetic is straight-line `f64` — tier-1 pins replays on it.
//!
//! The model is a *residual* learner: each arm's ridge regression predicts
//! the gap between the analytic prior (predicted watts at the observed
//! demand) and reality. With zero data the governor therefore behaves like
//! an idealized MobiCore (pick the cheapest feasible point under the
//! analytic model); with data it corrects the model's blind spots (thermal
//! caps, cache power, QoS pressure).

use mobicore_model::energy::{effective_capacity_khz, CpuEnergyModel};
use mobicore_model::{profiles, DeviceProfile, Khz, OppTable, Quota};
use mobicore_sim::{CpuControl, CpuPolicy, PolicySnapshot};
use mobicore_telemetry::EventData;

/// Number of context features (see [`LearnedGovernor::features`]).
const D: usize = 6;

/// Default RNG seed — the repo-wide experiment seed.
pub const DEFAULT_SEED: u64 = 20170315;

/// Tunables of the learned governor. `Default` is the configuration every
/// registry/tournament build uses; tests pin behavior through it.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedConfig {
    /// Exploration RNG seed (xorshift64*).
    pub seed: u64,
    /// Sampling period, µs.
    pub sampling_us: u64,
    /// Ridge regularizer λ (arm prior precision).
    pub ridge_lambda: f64,
    /// UCB exploration weight on the per-arm uncertainty bonus, in watts.
    pub ucb_alpha: f64,
    /// Initial ε of the ε-greedy exploration schedule.
    pub epsilon: f64,
    /// Decay constant of the ε schedule, in samples:
    /// `ε_t = ε · τ / (τ + t)`.
    pub epsilon_tau: f64,
    /// Capacity headroom the feasibility gate demands over observed
    /// demand (0.25 ⇒ capacity ≥ 1.25 × demand).
    pub headroom: f64,
    /// Hysteresis: predicted gain (watts) required to leave the current
    /// operating point.
    pub switch_margin_w: f64,
    /// Per-core busy fraction treated as saturation (QoS pressure).
    pub saturation_util: f64,
    /// Reward penalty in watts per unit of normalized saturation
    /// overshoot.
    pub qos_penalty_w: f64,
    /// Quota ladder the action space draws from; every entry is clamped
    /// into `[Quota::MIN_FRACTION, 1.0]` by construction.
    pub quota_levels: Vec<f64>,
}

impl Default for LearnedConfig {
    fn default() -> Self {
        LearnedConfig {
            seed: DEFAULT_SEED,
            sampling_us: 20_000,
            ridge_lambda: 1.0,
            ucb_alpha: 0.02,
            epsilon: 0.10,
            epsilon_tau: 200.0,
            headroom: 0.25,
            switch_margin_w: 0.02,
            saturation_util: 0.95,
            qos_penalty_w: 4.0,
            quota_levels: vec![1.0, 0.85, 0.7],
        }
    }
}

/// One selectable operating point: cores × OPP × quota.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Action {
    /// Online-core target, `1..=n_total`.
    cores: usize,
    /// Index into the profile's OPP table.
    opp: usize,
    /// Quota fraction (already clamped through [`Quota::new`]).
    quota: f64,
    /// Cached `f64` frequency of `opp`, kHz.
    khz: f64,
    /// Dynamic power of one fully-busy core at `opp`, mW.
    dyn_mw: f64,
    /// Static power of one online core at `opp`, mW.
    static_mw: f64,
    /// Uncore/cache power at `opp`, mW.
    cache_mw: f64,
}

/// One LinUCB arm: ridge regression state over the context features.
#[derive(Debug, Clone, PartialEq)]
struct Arm {
    /// Inverse design matrix `A⁻¹ = (λI + Σ x xᵀ)⁻¹`, row-major.
    a_inv: [[f64; D]; D],
    /// Reward-weighted feature sum `b = Σ r·x`.
    b: [f64; D],
    /// Solved coefficients `θ = A⁻¹ b` (kept in sync on update).
    theta: [f64; D],
    /// Number of updates this arm has absorbed.
    pulls: u64,
}

impl Arm {
    fn new(lambda: f64) -> Self {
        let mut a_inv = [[0.0; D]; D];
        for (i, row) in a_inv.iter_mut().enumerate() {
            row[i] = 1.0 / lambda;
        }
        Arm {
            a_inv,
            b: [0.0; D],
            theta: [0.0; D],
            pulls: 0,
        }
    }

    /// Predicted residual reward for context `x`.
    fn predict(&self, x: &[f64; D]) -> f64 {
        dot(&self.theta, x)
    }

    /// UCB uncertainty bonus `sqrt(xᵀ A⁻¹ x)`.
    fn bonus(&self, x: &[f64; D]) -> f64 {
        quad_form(&self.a_inv, x).max(0.0).sqrt()
    }

    /// Sherman–Morrison rank-1 update with observation `(x, r)`.
    fn update(&mut self, x: &[f64; D], r: f64) {
        let ax = mat_vec(&self.a_inv, x);
        let denom = 1.0 + dot(x, &ax);
        for (i, ax_i) in ax.iter().enumerate() {
            for (j, ax_j) in ax.iter().enumerate() {
                self.a_inv[i][j] -= ax_i * ax_j / denom;
            }
        }
        for (bi, xi) in self.b.iter_mut().zip(x.iter()) {
            *bi += r * xi;
        }
        self.theta = mat_vec(&self.a_inv, &self.b);
        self.pulls += 1;
    }
}

fn dot(a: &[f64; D], b: &[f64; D]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

fn mat_vec(m: &[[f64; D]; D], v: &[f64; D]) -> [f64; D] {
    let mut out = [0.0; D];
    for (o, row) in out.iter_mut().zip(m.iter()) {
        *o = dot(row, v);
    }
    out
}

fn quad_form(m: &[[f64; D]; D], v: &[f64; D]) -> f64 {
    dot(v, &mat_vec(m, v))
}

/// The action taken last sample, awaiting its reward at the next one.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    action: usize,
    x: [f64; D],
    prior_w: f64,
}

/// The learner's complete mutable state — everything `on_sample` reads or
/// writes besides the immutable action table. Snapshot it with
/// [`LearnedGovernor::state`] and reinstall it with
/// [`LearnedGovernor::set_state`]; a run resumed from a snapshot replays
/// byte-identically to the uninterrupted run (tier-1 pins this).
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedState {
    arms: Vec<Arm>,
    rng: u64,
    t: u64,
    pending: Option<Pending>,
    cur_action: Option<usize>,
    prev_overall: f64,
}

/// The seeded online-learning governor. See the module docs for the
/// design; construct via [`LearnedGovernor::new`] or the governor
/// registry name `"learned"`.
#[derive(Debug, Clone)]
pub struct LearnedGovernor {
    cfg: LearnedConfig,
    opps: OppTable,
    emodel: CpuEnergyModel,
    n_total: usize,
    actions: Vec<Action>,
    /// Index of the maximum-capacity action (the fallback when nothing
    /// else covers demand).
    max_action: usize,
    state: LearnedState,
    /// Scratch: feasible action indices, reused across samples.
    feasible: Vec<usize>,
}

impl LearnedGovernor {
    /// Builds the governor for `profile` with the default configuration
    /// and the given exploration seed.
    pub fn new(profile: &DeviceProfile, seed: u64) -> Self {
        LearnedGovernor::with_config(
            profile,
            LearnedConfig {
                seed,
                ..LearnedConfig::default()
            },
        )
    }

    /// Builds the governor with an explicit configuration.
    pub fn with_config(profile: &DeviceProfile, cfg: LearnedConfig) -> Self {
        let opps = profile.opps().clone();
        let emodel = CpuEnergyModel::fit(&opps, profiles::NEXUS5_CEFF_F, 450.0);
        let n_total = profile.n_cores();
        let mut actions = Vec::with_capacity(n_total * opps.len() * cfg.quota_levels.len());
        for cores in 1..=n_total {
            for opp in 0..opps.len() {
                let f = opps.get_clamped(opp).khz;
                for &q in &cfg.quota_levels {
                    let quota = Quota::new(q).as_fraction();
                    actions.push(Action {
                        cores,
                        opp,
                        quota,
                        khz: f64::from(f.0),
                        dyn_mw: emodel.core_power_mw(f, mobicore_model::Utilization::FULL)
                            - emodel.core_power_mw(f, mobicore_model::Utilization::IDLE),
                        static_mw: emodel.core_power_mw(f, mobicore_model::Utilization::IDLE),
                        cache_mw: emodel.cache_power_mw(f),
                    });
                }
            }
        }
        // The max-capacity fallback: all cores, top OPP, full quota.
        let max_action = actions
            .iter()
            .enumerate()
            .max_by(|(ai, a), (bi, b)| {
                let ca = a.khz * (a.quota * n_total as f64).min(a.cores as f64);
                let cb = b.khz * (b.quota * n_total as f64).min(b.cores as f64);
                ca.partial_cmp(&cb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(bi.cmp(ai))
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let arms = vec![Arm::new(cfg.ridge_lambda.max(1e-6)); actions.len()];
        // xorshift64* needs a non-zero state; fold the seed through a
        // splitmix-style mix so seed 0 is usable too.
        let rng = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x2545_F491_4F6C_DD1D)
            | 1;
        LearnedGovernor {
            cfg,
            opps,
            emodel,
            n_total,
            actions,
            max_action,
            state: LearnedState {
                arms,
                rng,
                t: 0,
                pending: None,
                cur_action: None,
                prev_overall: 0.0,
            },
            feasible: Vec::new(),
        }
    }

    /// Snapshot of the learner's mutable state, for mid-run save/resume.
    pub fn state(&self) -> LearnedState {
        self.state.clone()
    }

    /// Reinstalls a state captured by [`LearnedGovernor::state`]. The
    /// governor must have been built with the same profile and config for
    /// the replay to be meaningful (arm count must match).
    pub fn set_state(&mut self, state: LearnedState) {
        assert_eq!(
            state.arms.len(),
            self.actions.len(),
            "state was captured from a differently-shaped action space"
        );
        self.state = state;
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Context features: intercept, overall util `K`, its first
    /// difference, per-online-core util, temperature (°C/100), quota in
    /// force. All bounded O(1) so ridge updates stay well-conditioned.
    fn features(&self, snap: &PolicySnapshot) -> [f64; D] {
        let k = snap.overall_util.as_fraction();
        [
            1.0,
            k,
            k - self.state.prev_overall,
            snap.online_avg_util().as_fraction(),
            snap.temp_c / 100.0,
            snap.quota.as_fraction(),
        ]
    }

    /// Analytic prior reward of `action` under `demand_khz`: negated
    /// predicted watts (Eqs. (1)–(4) at the implied per-core utilization).
    fn prior_w(&self, action: &Action, demand_khz: f64) -> f64 {
        let u = (demand_khz / (action.cores as f64 * action.khz)).clamp(0.0, 1.0);
        let mw = action.cores as f64 * (action.dyn_mw * u + action.static_mw) + action.cache_mw;
        -mw / 1_000.0
    }

    /// Observed reward from the snapshot that followed the pending action:
    /// negated model power at observed state, minus QoS saturation penalty.
    fn observed_reward(&self, snap: &PolicySnapshot) -> f64 {
        let mut mw = 0.0;
        let mut top_khz = Khz::ZERO;
        for c in snap.cores.iter().filter(|c| c.online) {
            mw += self.emodel.core_power_mw(c.cur_khz, c.util);
            top_khz = top_khz.max(c.cur_khz);
        }
        mw += self.emodel.cache_power_mw(top_khz);
        let sat = self.saturation(snap);
        let overshoot = ((sat - self.cfg.saturation_util)
            / (1.0 - self.cfg.saturation_util).max(1e-9))
        .max(0.0);
        -mw / 1_000.0 - self.cfg.qos_penalty_w * overshoot
    }

    /// Highest per-core busy fraction among online cores.
    fn saturation(&self, snap: &PolicySnapshot) -> f64 {
        snap.cores
            .iter()
            .filter(|c| c.online)
            .map(|c| c.util.as_fraction())
            .fold(0.0, f64::max)
    }

    /// Applies the chosen operating point, following the adapter's
    /// hotplug conventions (online lowest ids first, offline highest ids
    /// first, never core 0; no offlining while mpdecision holds the lock).
    fn apply(&self, idx: usize, snap: &PolicySnapshot, ctl: &mut CpuControl) {
        let action = &self.actions[idx];
        let khz = self.opps.get_clamped(action.opp).khz;
        let from_khz = snap
            .cores
            .iter()
            .find(|c| c.online)
            .map_or(0, |c| c.target_khz.0);
        if khz.0 != from_khz {
            ctl.note(EventData::DvfsDecision {
                governor: "learned".to_string(),
                util_pct: snap.overall_util.as_fraction() * 100.0,
                from_khz,
                to_khz: khz.0,
            });
        }
        ctl.set_freq_all(khz);

        if (action.quota - snap.quota.as_fraction()).abs() > 1e-12 {
            ctl.set_quota(Quota::new(action.quota));
        }

        let online_now = snap.online_count();
        let mut want = action.cores;
        if snap.mpdecision_enabled {
            // The kernel refuses offlines while mpdecision runs (§2.2.2).
            want = want.max(online_now);
        }
        if want != online_now {
            ctl.note(EventData::HotplugDecision {
                policy: "learned".to_string(),
                online_now,
                want,
            });
        }
        if want > online_now {
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

impl CpuPolicy for LearnedGovernor {
    fn name(&self) -> &str {
        "learned"
    }

    fn sampling_period_us(&self) -> u64 {
        self.cfg.sampling_us
    }

    fn on_sample(&mut self, snap: &PolicySnapshot, ctl: &mut CpuControl) {
        // 1. Close the loop on the previous action: its reward is what the
        //    window we just observed cost us.
        if let Some(p) = self.state.pending.take() {
            let r = self.observed_reward(snap);
            let resid = r - p.prior_w;
            self.state.arms[p.action].update(&p.x, resid);
        }

        // 2. Demand estimate, escalated under saturation: a pegged core
        //    means the observed demand is a floor, not the truth, so ask
        //    for more capacity the way ondemand's up-threshold would.
        let demand = snap.demand_khz();
        let sat = self.saturation(snap);
        let mut gate = demand * (1.0 + self.cfg.headroom);
        if sat > self.cfg.saturation_util {
            gate *= 1.0
                + 4.0 * (sat - self.cfg.saturation_util)
                    / (1.0 - self.cfg.saturation_util).max(1e-9);
        }

        // 3. Feasibility filter: OPP-table frequencies, ladder quotas,
        //    capacity over the gate, core count within what the scheduler
        //    can use.
        let n_useful = snap.max_runnable_threads.clamp(1, self.n_total);
        self.feasible.clear();
        for (i, a) in self.actions.iter().enumerate() {
            if a.cores > n_useful {
                continue;
            }
            let cap = effective_capacity_khz(
                self.opps.get_clamped(a.opp).khz,
                a.cores,
                Quota::new(a.quota),
                self.n_total,
            );
            if cap >= gate {
                self.feasible.push(i);
            }
        }
        if self.feasible.is_empty() {
            self.feasible.push(self.max_action);
        }

        // 4. Selection: ε-greedy over the UCB-scored feasible set.
        let x = self.features(snap);
        let eps =
            self.cfg.epsilon * self.cfg.epsilon_tau / (self.cfg.epsilon_tau + self.state.t as f64);
        let explore = self.next_f64() < eps;
        let chosen = if explore {
            let pick = self.next_u64() % self.feasible.len() as u64;
            self.feasible[usize::try_from(pick).unwrap_or(0)]
        } else {
            let mut best = self.feasible[0];
            let mut best_score = f64::NEG_INFINITY;
            let mut cur_score = None;
            for &i in &self.feasible {
                let arm = &self.state.arms[i];
                let score = self.prior_w(&self.actions[i], demand)
                    + arm.predict(&x)
                    + self.cfg.ucb_alpha * arm.bonus(&x);
                if score > best_score {
                    best_score = score;
                    best = i;
                }
                if Some(i) == self.state.cur_action {
                    cur_score = Some(score);
                }
            }
            // Hysteresis: stay put unless the predicted gain clears the
            // switch margin — kills operating-point ping-pong.
            match cur_score {
                Some(cs) if best_score - cs < self.cfg.switch_margin_w => {
                    self.state.cur_action.unwrap_or(best)
                }
                _ => best,
            }
        };

        self.apply(chosen, snap, ctl);
        self.state.pending = Some(Pending {
            action: chosen,
            x,
            prior_w: self.prior_w(&self.actions[chosen], demand),
        });
        self.state.cur_action = Some(chosen);
        self.state.prev_overall = snap.overall_util.as_fraction();
        self.state.t += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicore_model::Utilization;
    use mobicore_sim::Command;

    fn profile() -> DeviceProfile {
        profiles::nexus5()
    }

    fn drive(gov: &mut LearnedGovernor, snaps: &[PolicySnapshot]) -> Vec<Vec<Command>> {
        snaps
            .iter()
            .map(|s| {
                let mut ctl = CpuControl::new();
                gov.on_sample(s, &mut ctl);
                ctl.take()
            })
            .collect()
    }

    fn snaps(n: usize) -> Vec<PolicySnapshot> {
        (0..n)
            .map(|i| {
                let u = 0.15 + 0.35 * ((i % 7) as f64 / 6.0);
                PolicySnapshot::synthetic(4, 4, Khz(1_190_400), Utilization::new(u), 20_000)
            })
            .collect()
    }

    #[test]
    fn frequencies_always_come_from_the_opp_table() {
        let p = profile();
        let mut gov = LearnedGovernor::new(&p, 7);
        for cmds in drive(&mut gov, &snaps(300)) {
            for c in cmds {
                if let Command::SetFreqAll { khz } = c {
                    assert!(p.opps().index_of(khz).is_some(), "off-table freq {khz:?}");
                }
            }
        }
    }

    #[test]
    fn quotas_stay_inside_bounds() {
        let p = profile();
        let mut gov = LearnedGovernor::new(&p, 11);
        for cmds in drive(&mut gov, &snaps(300)) {
            for c in cmds {
                if let Command::SetQuota(quota) = c {
                    assert!(quota.as_fraction() >= Quota::MIN_FRACTION);
                    assert!(quota.as_fraction() <= 1.0);
                }
            }
        }
    }

    #[test]
    fn never_offlines_core_zero() {
        let p = profile();
        let mut gov = LearnedGovernor::new(&p, 13);
        for cmds in drive(&mut gov, &snaps(500)) {
            assert!(!cmds.iter().any(|c| matches!(
                c,
                Command::SetOnline {
                    core: 0,
                    online: false
                }
            )));
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let p = profile();
        let mut a = LearnedGovernor::new(&p, 42);
        let mut b = LearnedGovernor::new(&p, 42);
        let input = snaps(400);
        assert_eq!(drive(&mut a, &input), drive(&mut b, &input));
    }

    #[test]
    fn different_seeds_eventually_diverge() {
        let p = profile();
        let mut a = LearnedGovernor::new(&p, 1);
        let mut b = LearnedGovernor::new(&p, 2);
        let input = snaps(400);
        assert_ne!(drive(&mut a, &input), drive(&mut b, &input));
    }

    #[test]
    fn snapshot_resume_replays_identically() {
        let p = profile();
        let input = snaps(400);
        let mut uninterrupted = LearnedGovernor::new(&p, 99);
        let full = drive(&mut uninterrupted, &input);

        let mut first_half = LearnedGovernor::new(&p, 99);
        let head = drive(&mut first_half, &input[..200]);
        let saved = first_half.state();

        let mut resumed = LearnedGovernor::new(&p, 99);
        resumed.set_state(saved);
        let tail = drive(&mut resumed, &input[200..]);

        let mut stitched = head;
        stitched.extend(tail);
        assert_eq!(stitched, full);
    }

    #[test]
    fn idle_demand_settles_on_a_cheap_operating_point() {
        let p = profile();
        let mut gov = LearnedGovernor::new(&p, 5);
        let idle: Vec<PolicySnapshot> = (0..300)
            .map(|_| {
                PolicySnapshot::synthetic(4, 1, p.opps().min_khz(), Utilization::new(0.01), 20_000)
            })
            .collect();
        drive(&mut gov, &idle);
        let mut ctl = CpuControl::new();
        gov.on_sample(&idle[0], &mut ctl);
        let freq = ctl.take().iter().find_map(|c| match c {
            Command::SetFreqAll { khz } => Some(*khz),
            _ => None,
        });
        let khz = freq.expect("always sets a cluster frequency");
        // Near-idle demand must not sit at the top of the table.
        assert!(
            khz < Khz(p.opps().max_khz().0 / 2),
            "idle pick too hot: {khz:?}"
        );
    }

    #[test]
    fn saturated_demand_escalates_capacity() {
        let p = profile();
        let mut gov = LearnedGovernor::new(&p, 5);
        // Pegged at 100% on all cores at a mid frequency: the gate must
        // escalate to (near) max capacity.
        let hot: Vec<PolicySnapshot> = (0..50)
            .map(|_| PolicySnapshot::synthetic(4, 4, Khz(1_190_400), Utilization::FULL, 20_000))
            .collect();
        let cmds = drive(&mut gov, &hot);
        let last_freq = cmds
            .last()
            .and_then(|v| {
                v.iter().find_map(|c| match c {
                    Command::SetFreqAll { khz } => Some(*khz),
                    _ => None,
                })
            })
            .expect("sets a frequency");
        assert!(
            last_freq >= Khz(p.opps().max_khz().0 / 2),
            "saturated pick too cold: {last_freq:?}"
        );
    }

    #[test]
    fn state_rejects_mismatched_shape() {
        let p = profile();
        let gov = LearnedGovernor::new(&p, 1);
        let mut other = LearnedGovernor::with_config(
            &p,
            LearnedConfig {
                quota_levels: vec![1.0],
                ..LearnedConfig::default()
            },
        );
        let st = gov.state();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            other.set_state(st);
        }));
        assert!(result.is_err());
    }
}
