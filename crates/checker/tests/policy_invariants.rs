//! Every shipped policy — MobiCore, all stock-governor adapters, and
//! the learned governor — clears the closed-loop invariant driver:
//! opp-membership, quota-bounds, capacity-floor, hotplug-safety.

use mobicore::registry;
use mobicore_checker::{check_policy, PolicyCheckConfig};
use mobicore_governors::learned::DEFAULT_SEED;
use mobicore_model::profiles;

#[test]
fn every_policy_passes_the_closed_loop_invariants() {
    let ck = PolicyCheckConfig::default();
    for profile in [profiles::nexus5()] {
        for name in registry::ARENA {
            let mut policy =
                registry::build(name, &profile, DEFAULT_SEED).expect("registry name builds");
            let report = check_policy(policy.as_mut(), &profile, &ck);
            assert!(
                report.ok(),
                "policy {} violates closed-loop invariants on {}:\n{}",
                report.config_label,
                report.profile,
                report.human()
            );
        }
    }
}

#[test]
fn learned_passes_under_many_seeds() {
    // The learner explores: different seeds take different orbits, and
    // every one of them must stay inside the envelope.
    let profile = profiles::nexus5();
    let ck = PolicyCheckConfig::default();
    for seed in 0..8 {
        let mut policy = registry::build("learned", &profile, seed).expect("learned builds");
        let report = check_policy(policy.as_mut(), &profile, &ck);
        assert!(report.ok(), "seed {seed}:\n{}", report.human());
    }
}
