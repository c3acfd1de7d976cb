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
//!
//! An arm that was never updated is exactly the prior arm, so the state
//! stores only pulled arms, and the exploit step scores the prior once
//! and uses its bonus to skip arms that cannot win (docs/tournament.md,
//! "Update rule"). Decisions are the same bits as scoring every arm;
//! debug builds assert it on every exploit step.

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
    /// Cached [`effective_capacity_khz`] of this operating point, kHz.
    cap_khz: f64,
    /// Dynamic power of one fully-busy core at `opp`, mW.
    dyn_mw: f64,
    /// Static power of one online core at `opp`, mW.
    static_mw: f64,
    /// Uncore/cache power at `opp`, mW.
    cache_mw: f64,
}

impl Action {
    /// Analytic prior reward of this action under `demand_khz`: negated
    /// predicted watts (Eqs. (1)–(4) at the implied per-core utilization).
    fn prior_w(&self, demand_khz: f64) -> f64 {
        let u = (demand_khz / (self.cores as f64 * self.khz)).clamp(0.0, 1.0);
        let mw = self.cores as f64 * (self.dyn_mw * u + self.static_mw) + self.cache_mw;
        -mw / 1_000.0
    }
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

/// [`LearnedState::slots`] entry of an action whose arm has never been
/// updated, and so is still bit-for-bit the prior arm.
const PRIOR: u32 = u32::MAX;

/// Relative slack on the prior bonus when pruning. Every pulled arm's
/// bonus is at most the prior's in exact arithmetic; the slack absorbs
/// the rounding of the Sherman–Morrison updates.
const BOUND_SLACK: f64 = 1e-6;

/// The learner's complete mutable state — everything `on_sample` reads or
/// writes besides the immutable action table. Snapshot it with
/// [`LearnedGovernor::state`] and reinstall it with
/// [`LearnedGovernor::set_state`]; a run resumed from a snapshot replays
/// byte-identically to the uninterrupted run (tier-1 pins this).
#[derive(Debug, Clone, PartialEq)]
pub struct LearnedState {
    /// Per action: its index into `pulled`, or [`PRIOR`].
    slots: Vec<u32>,
    /// The arms that have absorbed at least one update, in first-pull
    /// order.
    pulled: Vec<Arm>,
    rng: u64,
    t: u64,
    pending: Option<Pending>,
    cur_action: Option<usize>,
    prev_overall: f64,
}

impl LearnedState {
    /// Action `i`'s own arm, or `None` while it is still the prior.
    fn arm(&self, i: usize) -> Option<&Arm> {
        match self.slots[i] {
            PRIOR => None,
            slot => Some(&self.pulled[slot as usize]),
        }
    }
}

/// The exploit step's outcome: the first feasible action with the
/// highest UCB score, that score, and the current action's score if the
/// current action is feasible.
struct Pick {
    best: usize,
    best_score: f64,
    cur_score: Option<f64>,
}

impl Pick {
    /// The pick with its scores as bits, for exact comparison.
    fn bits(&self) -> (usize, u64, Option<u64>) {
        (
            self.best,
            self.best_score.to_bits(),
            self.cur_score.map(f64::to_bits),
        )
    }
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
    /// Every operating point, ordered by core count, then OPP, then
    /// quota ladder position.
    actions: Vec<Action>,
    /// Index of the maximum-capacity action (the fallback when nothing
    /// else covers demand).
    max_action: usize,
    /// The arm every action starts from: `Arm::new(λ)`.
    prior: Arm,
    state: LearnedState,
    /// Scratch: feasible action indices, reused across samples.
    feasible: Vec<usize>,
    /// Scratch: `prior_w + predict` of each feasible action, in order.
    means: Vec<f64>,
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
        // Power terms depend on the OPP alone: (dyn, static, cache) mW.
        let terms: Vec<(f64, f64, f64)> = (0..opps.len())
            .map(|opp| {
                let f = opps.get_clamped(opp).khz;
                let idle = emodel.core_power_mw(f, mobicore_model::Utilization::IDLE);
                (
                    emodel.core_power_mw(f, mobicore_model::Utilization::FULL) - idle,
                    idle,
                    emodel.cache_power_mw(f),
                )
            })
            .collect();
        let mut actions = Vec::with_capacity(n_total * opps.len() * cfg.quota_levels.len());
        for cores in 1..=n_total {
            for (opp, &(dyn_mw, static_mw, cache_mw)) in terms.iter().enumerate() {
                let f = opps.get_clamped(opp).khz;
                for &q in &cfg.quota_levels {
                    let quota = Quota::new(q);
                    actions.push(Action {
                        cores,
                        opp,
                        quota: quota.as_fraction(),
                        khz: f64::from(f.0),
                        cap_khz: effective_capacity_khz(f, cores, quota, n_total),
                        dyn_mw,
                        static_mw,
                        cache_mw,
                    });
                }
            }
        }
        // The max-capacity fallback: all cores, top OPP, full quota.
        let max_action = actions
            .iter()
            .enumerate()
            .max_by(|(ai, a), (bi, b)| {
                a.cap_khz
                    .partial_cmp(&b.cap_khz)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(bi.cmp(ai))
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        // xorshift64* needs a non-zero state; fold the seed through a
        // splitmix-style mix so seed 0 is usable too.
        let rng = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x2545_F491_4F6C_DD1D)
            | 1;
        LearnedGovernor {
            prior: Arm::new(cfg.ridge_lambda.max(1e-6)),
            cfg,
            opps,
            emodel,
            n_total,
            state: LearnedState {
                slots: vec![PRIOR; actions.len()],
                pulled: Vec::new(),
                rng,
                t: 0,
                pending: None,
                cur_action: None,
                prev_overall: 0.0,
            },
            actions,
            max_action,
            feasible: Vec::new(),
            means: Vec::new(),
        }
    }

    /// Snapshot of the learner's mutable state, for mid-run save/resume.
    pub fn state(&self) -> LearnedState {
        self.state.clone()
    }

    /// Reinstalls a state captured by [`LearnedGovernor::state`]. The
    /// governor must have been built with the same profile and config for
    /// the replay to be meaningful (action count must match).
    pub fn set_state(&mut self, state: LearnedState) {
        assert_eq!(
            state.slots.len(),
            self.actions.len(),
            "state was captured from a differently-shaped action space"
        );
        self.state = state;
    }

    /// Updates action `i`'s arm with `(x, r)`, giving it its own copy of
    /// the prior on its first pull.
    fn pull(&mut self, i: usize, x: &[f64; D], r: f64) {
        let slot = match self.state.slots[i] {
            PRIOR => {
                let slot = self.state.pulled.len();
                self.state.slots[i] = u32::try_from(slot).expect("fewer than 2^32 actions");
                self.state.pulled.push(self.prior.clone());
                slot
            }
            slot => slot as usize,
        };
        self.state.pulled[slot].update(x, r);
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

    /// The capacity, kHz, an action must offer: observed demand plus
    /// headroom, escalated under saturation — a pegged core means the
    /// observed demand is a floor, not the truth, so ask for more
    /// capacity the way ondemand's up-threshold would.
    fn gate(&self, demand: f64, snap: &PolicySnapshot) -> f64 {
        let sat = self.saturation(snap);
        let mut gate = demand * (1.0 + self.cfg.headroom);
        if sat > self.cfg.saturation_util {
            gate *= 1.0
                + 4.0 * (sat - self.cfg.saturation_util)
                    / (1.0 - self.cfg.saturation_util).max(1e-9);
        }
        gate
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

    /// The UCB exploit step over `feasible`, scoring each action as
    /// `(prior_w + predict) + α·bonus` and keeping the first maximum.
    ///
    /// The prior's bonus `sqrt(|x|²/λ)` is the exact bonus of every
    /// unpulled arm and bounds every pulled one (`A ⪰ λI`). So an action
    /// whose `prior_w + predict` plus `α` times that bound stays below
    /// the best `prior_w + predict` scores strictly below some other
    /// action, and its bonus is never computed. The current action is
    /// always scored: hysteresis needs its exact score.
    fn exploit(&mut self, x: &[f64; D], demand: f64) -> Pick {
        let prior_mean = self.prior.predict(x);
        let prior_bonus = self.prior.bonus(x);
        let mut floor = f64::NEG_INFINITY;
        self.means.clear();
        for &i in &self.feasible {
            let mean = self.actions[i].prior_w(demand)
                + self.state.arm(i).map_or(prior_mean, |arm| arm.predict(x));
            if mean > floor {
                floor = mean;
            }
            self.means.push(mean);
        }
        let alpha = self.cfg.ucb_alpha;
        // `fl(mean + α·bonus) ≥ mean` needs α ≥ 0; otherwise prune nothing.
        let reach = if alpha >= 0.0 {
            alpha * prior_bonus * (1.0 + BOUND_SLACK)
        } else {
            f64::INFINITY
        };
        let mut pick = Pick {
            best: self.feasible[0],
            best_score: f64::NEG_INFINITY,
            cur_score: None,
        };
        for (&i, &mean) in self.feasible.iter().zip(&self.means) {
            let is_cur = Some(i) == self.state.cur_action;
            if !is_cur && mean + reach < floor {
                continue;
            }
            let bonus = self.state.arm(i).map_or(prior_bonus, |arm| arm.bonus(x));
            let score = mean + alpha * bonus;
            if score > pick.best_score {
                pick.best_score = score;
                pick.best = i;
            }
            if is_cur {
                pick.cur_score = Some(score);
            }
        }
        pick
    }

    /// [`LearnedGovernor::exploit`] without pruning or the shared prior
    /// score: every feasible action scored from its own arm.
    fn exploit_dense(&self, x: &[f64; D], demand: f64) -> Pick {
        let mut pick = Pick {
            best: self.feasible[0],
            best_score: f64::NEG_INFINITY,
            cur_score: None,
        };
        for &i in &self.feasible {
            let arm = self.state.arm(i).unwrap_or(&self.prior);
            let score = self.actions[i].prior_w(demand)
                + arm.predict(x)
                + self.cfg.ucb_alpha * arm.bonus(x);
            if score > pick.best_score {
                pick.best_score = score;
                pick.best = i;
            }
            if Some(i) == self.state.cur_action {
                pick.cur_score = Some(score);
            }
        }
        pick
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
            self.pull(p.action, &p.x, r - p.prior_w);
        }

        // 2. Demand estimate, escalated under saturation.
        let demand = snap.demand_khz();
        let gate = self.gate(demand, snap);

        // 3. Feasibility filter: OPP-table frequencies, ladder quotas,
        //    capacity over the gate, core count within what the scheduler
        //    can use. The table is ordered by core count first, so the
        //    first action over `n_useful` ends the scan.
        let n_useful = snap.max_runnable_threads.clamp(1, self.n_total);
        self.feasible.clear();
        for (i, a) in self.actions.iter().enumerate() {
            if a.cores > n_useful {
                break;
            }
            if a.cap_khz >= gate {
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
            let pick = self.exploit(&x, demand);
            debug_assert_eq!(
                pick.bits(),
                self.exploit_dense(&x, demand).bits(),
                "pruned exploit step diverged from the dense re-score"
            );
            // Hysteresis: stay put unless the predicted gain clears the
            // switch margin — kills operating-point ping-pong.
            match pick.cur_score {
                Some(cs) if pick.best_score - cs < self.cfg.switch_margin_w => {
                    self.state.cur_action.unwrap_or(pick.best)
                }
                _ => pick.best,
            }
        };

        self.apply(chosen, snap, ctl);
        self.state.pending = Some(Pending {
            action: chosen,
            x,
            prior_w: self.actions[chosen].prior_w(demand),
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
    use mobicore_sim::{Command, CoreSnapshot};

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
    fn fresh_state_holds_no_pulled_arms() {
        let p = profile();
        let mut gov = LearnedGovernor::new(&p, 99);
        let fresh = gov.state();
        assert!(fresh.pulled.is_empty());
        assert_eq!(fresh.slots, vec![PRIOR; gov.actions.len()]);
        // The first half of the resume test's input pulls some arms but
        // not all, so that test resumes across the sparse layout.
        drive(&mut gov, &snaps(200));
        let mid = gov.state();
        let pulled = mid.slots.iter().filter(|&&s| s != PRIOR).count();
        assert_eq!(pulled, mid.pulled.len());
        assert!(0 < pulled && pulled < mid.slots.len(), "{pulled} pulled");
        assert!(mid.pulled.iter().all(|arm| arm.pulls > 0));
    }

    /// The learner without sparse arms, a cached capacity or pruning:
    /// one arm per action, capacity recomputed every sample, and every
    /// feasible action scored from its own arm. It borrows the wrapped
    /// governor's RNG, features, reward and actuation, and never its arms.
    struct DenseReference {
        gov: LearnedGovernor,
        arms: Vec<Arm>,
    }

    impl DenseReference {
        fn new(profile: &DeviceProfile, cfg: LearnedConfig) -> Self {
            let gov = LearnedGovernor::with_config(profile, cfg);
            let arms = vec![Arm::new(gov.cfg.ridge_lambda.max(1e-6)); gov.actions.len()];
            DenseReference { gov, arms }
        }

        /// One sample; returns whether it took the exploit step.
        fn on_sample(&mut self, snap: &PolicySnapshot, ctl: &mut CpuControl) -> bool {
            let g = &mut self.gov;
            if let Some(p) = g.state.pending.take() {
                let r = g.observed_reward(snap);
                self.arms[p.action].update(&p.x, r - p.prior_w);
            }
            let demand = snap.demand_khz();
            let gate = g.gate(demand, snap);
            let n_useful = snap.max_runnable_threads.clamp(1, g.n_total);
            let mut feasible: Vec<usize> = (0..g.actions.len())
                .filter(|&i| {
                    let a = &g.actions[i];
                    let f = g.opps.get_clamped(a.opp).khz;
                    a.cores <= n_useful
                        && effective_capacity_khz(f, a.cores, Quota::new(a.quota), g.n_total)
                            >= gate
                })
                .collect();
            if feasible.is_empty() {
                feasible.push(g.max_action);
            }
            let x = g.features(snap);
            let eps = g.cfg.epsilon * g.cfg.epsilon_tau / (g.cfg.epsilon_tau + g.state.t as f64);
            let explore = g.next_f64() < eps;
            let chosen = if explore {
                feasible[usize::try_from(g.next_u64() % feasible.len() as u64).unwrap()]
            } else {
                let mut best = feasible[0];
                let mut best_score = f64::NEG_INFINITY;
                let mut cur_score = None;
                for &i in &feasible {
                    let arm = &self.arms[i];
                    let score = g.actions[i].prior_w(demand)
                        + arm.predict(&x)
                        + g.cfg.ucb_alpha * arm.bonus(&x);
                    if score > best_score {
                        best_score = score;
                        best = i;
                    }
                    if Some(i) == g.state.cur_action {
                        cur_score = Some(score);
                    }
                }
                match cur_score {
                    Some(cs) if best_score - cs < g.cfg.switch_margin_w => {
                        g.state.cur_action.unwrap_or(best)
                    }
                    _ => best,
                }
            };
            g.apply(chosen, snap, ctl);
            g.state.pending = Some(Pending {
                action: chosen,
                x,
                prior_w: g.actions[chosen].prior_w(demand),
            });
            g.state.cur_action = Some(chosen);
            g.state.prev_overall = snap.overall_util.as_fraction();
            g.state.t += 1;
            !explore
        }
    }

    /// A seeded stream of varied snapshots: random online sets, OPPs,
    /// per-core utilizations (saturated now and then), temperatures,
    /// quotas, runnable-thread counts and mpdecision states.
    fn random_snaps(p: &DeviceProfile, seed: u64, n: usize) -> Vec<PolicySnapshot> {
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |k: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            usize::try_from(rng % k as u64).unwrap()
        };
        let n_total = p.n_cores();
        (0..n)
            .map(|i| {
                let online = 1 + next(n_total);
                let khz = p.opps().get_clamped(next(p.opps().len())).khz;
                let mut snap =
                    PolicySnapshot::synthetic(n_total, online, khz, Utilization::IDLE, 20_000);
                let mut busy = 0.0;
                for c in snap.cores.iter_mut().filter(|c| c.online) {
                    let u = if next(8) == 0 {
                        1.0
                    } else {
                        next(1_000) as f64 / 1_000.0
                    };
                    *c = CoreSnapshot::online_at(khz, Utilization::new(u), 20_000);
                    busy += u;
                }
                snap.now_us = 20_000 * i as u64;
                snap.overall_util = Utilization::new(busy / n_total as f64);
                snap.quota = Quota::new([1.0, 0.85, 0.7, 0.5][next(4)]);
                snap.max_runnable_threads = 1 + next(n_total);
                snap.mpdecision_enabled = next(4) == 0;
                snap.temp_c = 25.0 + next(60) as f64;
                snap
            })
            .collect()
    }

    #[test]
    fn sparse_pruned_decisions_equal_the_dense_reference() {
        let p = profile();
        for lambda in [1e-3, 1.0, 100.0] {
            for seed in 1..=4 {
                let cfg = LearnedConfig {
                    seed,
                    ridge_lambda: lambda,
                    epsilon: 0.95,
                    epsilon_tau: 400.0,
                    ..LearnedConfig::default()
                };
                let mut gov = LearnedGovernor::with_config(&p, cfg.clone());
                let mut dense = DenseReference::new(&p, cfg);
                let mut exploits = 0;
                for (k, snap) in random_snaps(&p, seed, 1_500).iter().enumerate() {
                    let (mut a, mut b) = (CpuControl::new(), CpuControl::new());
                    gov.on_sample(snap, &mut a);
                    exploits += usize::from(dense.on_sample(snap, &mut b));
                    assert_eq!(
                        (a.take(), gov.state.cur_action, gov.state.rng),
                        (b.take(), dense.gov.state.cur_action, dense.gov.state.rng),
                        "λ={lambda} seed={seed} sample {k}"
                    );
                }
                let pulled = gov.state.pulled.len();
                assert!(
                    pulled > gov.actions.len() / 2,
                    "λ={lambda} seed={seed}: only {pulled} arms pulled"
                );
                for (i, arm) in dense.arms.iter().enumerate() {
                    let sparse = gov.state.arm(i).unwrap_or(&gov.prior);
                    assert_eq!(sparse, arm, "λ={lambda} seed={seed} arm {i}");
                }
                assert!(
                    exploits > 300,
                    "λ={lambda} seed={seed}: {exploits} exploits"
                );
            }
        }
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
