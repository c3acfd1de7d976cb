//! Resolves the policy and profile names clients put in Hello frames.
//!
//! The vocabulary is the union of what each owning crate can build:
//! MobiCore variants from `mobicore`, the stock stack from
//! `mobicore_governors::registry`, bring-up policies from
//! `mobicore_sim::builtin`, and every calibrated device profile from
//! `mobicore_model::profiles`.

use mobicore::{FrequencyRule, MobiCore, MobiCoreConfig};
use mobicore_model::{profiles, DeviceProfile, Khz};
use mobicore_sim::builtin::{NoopPolicy, PinnedPolicy};
use mobicore_sim::CpuPolicy;

/// Profile names [`profile_by_name`] accepts, in a stable order.
pub const PROFILE_NAMES: [&str; 8] = [
    "nexus5",
    "nexus5-gaming",
    "nexus-s",
    "motorola-mb810",
    "galaxy-s2",
    "nexus4",
    "lg-g3",
    "synthetic-octa",
];

/// Builds the named device profile.
pub fn profile_by_name(name: &str) -> Option<DeviceProfile> {
    Some(match name {
        "nexus5" => profiles::nexus5(),
        "nexus5-gaming" => profiles::nexus5_gaming(),
        "nexus-s" => profiles::nexus_s(),
        "motorola-mb810" => profiles::motorola_mb810(),
        "galaxy-s2" => profiles::galaxy_s2(),
        "nexus4" => profiles::nexus4(),
        "lg-g3" => profiles::lg_g3(),
        "synthetic-octa" => profiles::synthetic_octa(),
        _ => return None,
    })
}

/// The fixed policy names [`build_policy`] accepts (the parameterized
/// `pinned:<cores>:<khz>` form comes on top).
pub fn policy_names() -> Vec<&'static str> {
    let mut names = vec!["mobicore", "mobicore-optpoint", "noop"];
    names.extend(mobicore_governors::registry::NAMES);
    names
}

/// Builds the named policy for `profile` with the default exploration
/// seed — [`build_policy_seeded`] at
/// [`mobicore_governors::learned::DEFAULT_SEED`].
pub fn build_policy(name: &str, profile: &DeviceProfile) -> Option<Box<dyn CpuPolicy + Send>> {
    build_policy_seeded(name, profile, mobicore_governors::learned::DEFAULT_SEED)
}

/// Builds the named policy for `profile`, seeding the policies that
/// take a seed (the `learned` governor) with `seed` — the server calls
/// this with the seed of the client's Hello, so a remote session
/// replays exactly like an in-process one built with the same seed.
///
/// Accepts the MobiCore variants (`mobicore`, `mobicore-optpoint`),
/// everything in [`mobicore_governors::registry`], `noop`, and the
/// parameterized `pinned:<cores>:<khz>` fixed operating point.
pub fn build_policy_seeded(
    name: &str,
    profile: &DeviceProfile,
    seed: u64,
) -> Option<Box<dyn CpuPolicy + Send>> {
    match name {
        "mobicore" => Some(Box::new(MobiCore::new(profile))),
        "mobicore-optpoint" => Some(Box::new(MobiCore::with_config(
            profile,
            MobiCoreConfig {
                rule: FrequencyRule::OptimalPoint,
                ..MobiCoreConfig::default()
            },
        ))),
        "noop" => Some(Box::new(NoopPolicy::new())),
        _ => {
            if let Some(rest) = name.strip_prefix("pinned:") {
                let (cores, khz) = rest.split_once(':')?;
                let cores: usize = cores.parse().ok()?;
                let khz: u32 = khz.parse().ok()?;
                if cores == 0 || khz == 0 {
                    return None;
                }
                return Some(Box::new(PinnedPolicy::new(cores, Khz(khz))));
            }
            mobicore_governors::registry::build_seeded(name, profile, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_profile_name_builds() {
        for name in PROFILE_NAMES {
            assert!(profile_by_name(name).is_some(), "{name}");
        }
        assert!(profile_by_name("tricorder").is_none());
    }

    #[test]
    fn every_policy_name_builds() {
        let profile = profiles::nexus5();
        for name in policy_names() {
            let p = build_policy(name, &profile).unwrap_or_else(|| panic!("{name} builds"));
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn pinned_form_parses_and_bad_forms_do_not() {
        let profile = profiles::nexus5();
        let p = build_policy("pinned:2:960000", &profile).expect("valid pinned");
        assert!(p.name().contains("pinned-2c"));
        for bad in [
            "pinned:",
            "pinned:2",
            "pinned:0:960000",
            "pinned:2:0",
            "pinned:x:1",
            "warp",
        ] {
            assert!(build_policy(bad, &profile).is_none(), "{bad}");
        }
    }

    #[test]
    fn mobicore_variants_resolve_to_their_names() {
        let profile = profiles::nexus5();
        assert_eq!(
            build_policy("mobicore", &profile).unwrap().name(),
            "mobicore"
        );
        assert_eq!(
            build_policy("mobicore-optpoint", &profile).unwrap().name(),
            "mobicore-optpoint"
        );
    }
}
