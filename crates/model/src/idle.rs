//! CPU idle states (C-states) — the "three different states" of paper
//! §2.1 refined.
//!
//! The paper distinguishes active / idle / off-line and measures idle
//! (online-but-idle) power at 47–120 mW per core on the Nexus 5, because
//! each Krait core sits on its own supply and a WFI'd core keeps leaking.
//! That measurement is what kills race-to-idle on this platform
//! (§4.1.2). Real kernels have a *ladder* of idle states, though — WFI,
//! standalone power collapse, full power collapse — and on platforms
//! with cheap deep idle the race-to-idle argument flips. This module
//! models the ladder so the reproduction can answer the paper's implicit
//! question: *how cheap would idle have to be before off-lining stops
//! paying?* (see the `ext03` extension experiment).
//!
//! The default device profiles use [`IdleLadder::wfi_only`], which
//! reproduces the paper's measured behaviour exactly: an idle online
//! core always pays the per-OPP `idle_mw`.

/// One idle state in the ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleState {
    /// Name as it would appear under `cpuidle/state<n>/name`.
    pub name: String,
    /// Power of an idle core in this state as a fraction of the per-OPP
    /// `idle_mw` (1.0 = the paper's measured WFI power; deeper states are
    /// cheaper).
    pub power_frac: f64,
    /// Minimum contiguous idle time before entering pays off, µs
    /// (`target_residency`).
    pub target_residency_us: u64,
    /// Wake-up latency, µs (`exit_latency`).
    pub exit_latency_us: u64,
}

/// A validated ladder of idle states, shallow to deep.
#[derive(Debug, Clone, PartialEq)]
pub struct IdleLadder {
    states: Vec<IdleState>,
}

impl IdleLadder {
    /// Builds a ladder. States must be ordered shallow→deep: increasing
    /// residency, non-increasing power.
    ///
    /// # Panics
    ///
    /// Panics if the ordering constraints are violated or the ladder is
    /// empty.
    pub fn new(states: Vec<IdleState>) -> Self {
        assert!(!states.is_empty(), "ladder needs at least one state");
        for w in states.windows(2) {
            assert!(
                w[0].target_residency_us <= w[1].target_residency_us,
                "residencies must be non-decreasing"
            );
            assert!(
                w[0].power_frac >= w[1].power_frac,
                "deeper states must not cost more"
            );
        }
        IdleLadder { states }
    }

    /// The paper's Nexus 5 behaviour: WFI only, full measured idle power,
    /// negligible latency.
    pub fn wfi_only() -> Self {
        IdleLadder::new(vec![IdleState {
            name: "wfi".into(),
            power_frac: 1.0,
            target_residency_us: 1,
            exit_latency_us: 10,
        }])
    }

    /// A hypothetical platform with a cheap deep-collapse state (the
    /// configuration under which race-to-idle becomes competitive):
    /// WFI plus a power-collapse state at `deep_frac` of WFI power with a
    /// 10 ms target residency.
    pub fn with_power_collapse(deep_frac: f64) -> Self {
        IdleLadder::new(vec![
            IdleState {
                name: "wfi".into(),
                power_frac: 1.0,
                target_residency_us: 1,
                exit_latency_us: 10,
            },
            IdleState {
                name: "spc".into(),
                power_frac: deep_frac.clamp(0.0, 1.0),
                target_residency_us: 10_000,
                exit_latency_us: 1_000,
            },
        ])
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always `false` (construction rejects empty ladders).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Idle power fraction after a core has been continuously idle for
    /// `idle_so_far_us`: the ladder is descended as residencies are met
    /// (how the simulator bills an idling core each tick).
    pub fn power_frac_after(&self, idle_so_far_us: u64) -> f64 {
        self.states
            .iter()
            .rev()
            .find(|s| s.target_residency_us <= idle_so_far_us.max(1))
            .map_or(self.states[0].power_frac, |s| s.power_frac)
    }

    /// The smallest target residency strictly greater than
    /// `idle_so_far_us.max(1)` — i.e. when the *next* deeper idle state
    /// engages — or `None` when the ladder is fully descended. This is
    /// how an idling core declares its wake time to the event engine:
    /// [`IdleLadder::power_frac_after`] is constant until that boundary.
    pub fn next_residency_above(&self, idle_so_far_us: u64) -> Option<u64> {
        let floor = idle_so_far_us.max(1);
        self.states
            .iter()
            .map(|s| s.target_residency_us)
            .filter(|&r| r > floor)
            .min()
    }
}

impl Default for IdleLadder {
    fn default() -> Self {
        IdleLadder::wfi_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wfi_only_never_discounts() {
        let l = IdleLadder::wfi_only();
        assert_eq!(l.len(), 1);
        assert_eq!(l.power_frac_after(0), 1.0);
        assert_eq!(l.power_frac_after(1_000_000), 1.0);
    }

    #[test]
    fn power_collapse_engages_after_residency() {
        let l = IdleLadder::with_power_collapse(0.2);
        assert_eq!(l.power_frac_after(100), 1.0, "short idle stays in WFI");
        assert_eq!(l.power_frac_after(9_999), 1.0);
        assert_eq!(l.power_frac_after(10_000), 0.2);
        assert_eq!(l.power_frac_after(1_000_000), 0.2);
    }

    #[test]
    fn power_frac_falls_back_to_shallowest() {
        // No state's residency is met yet: the core bills the shallowest.
        let l = IdleLadder::new(vec![IdleState {
            name: "c1".into(),
            power_frac: 0.8,
            target_residency_us: 100,
            exit_latency_us: 1,
        }]);
        assert_eq!(l.power_frac_after(0), 0.8);
        assert_eq!(l.power_frac_after(99), 0.8);
    }

    #[test]
    #[should_panic(expected = "residencies")]
    fn unordered_residency_rejected() {
        let _ = IdleLadder::new(vec![
            IdleState {
                name: "a".into(),
                power_frac: 1.0,
                target_residency_us: 100,
                exit_latency_us: 1,
            },
            IdleState {
                name: "b".into(),
                power_frac: 0.5,
                target_residency_us: 50,
                exit_latency_us: 1,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "deeper states")]
    fn deeper_more_expensive_rejected() {
        let _ = IdleLadder::new(vec![
            IdleState {
                name: "a".into(),
                power_frac: 0.5,
                target_residency_us: 10,
                exit_latency_us: 1,
            },
            IdleState {
                name: "b".into(),
                power_frac: 0.9,
                target_residency_us: 100,
                exit_latency_us: 1,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_ladder_rejected() {
        let _ = IdleLadder::new(vec![]);
    }

    #[test]
    fn next_residency_matches_power_frac_boundaries() {
        let l = IdleLadder::with_power_collapse(0.2);
        // From a fresh streak the next change is the 10 ms collapse.
        assert_eq!(l.next_residency_above(0), Some(10_000));
        assert_eq!(l.next_residency_above(9_999), Some(10_000));
        // At/after the boundary the ladder is fully descended.
        assert_eq!(l.next_residency_above(10_000), None);
        // wfi_only has no deeper state to wait for.
        assert_eq!(IdleLadder::wfi_only().next_residency_above(0), None);
        // The contract: power_frac_after is constant below the boundary.
        let t = l.next_residency_above(50).unwrap();
        assert_eq!(l.power_frac_after(50), l.power_frac_after(t - 1));
        assert_ne!(l.power_frac_after(t - 1), l.power_frac_after(t));
    }

    #[test]
    fn deep_frac_clamped() {
        let l = IdleLadder::with_power_collapse(7.0);
        // clamped to 1.0: power never increases with depth
        assert_eq!(l.power_frac_after(1_000_000), 1.0);
    }
}
