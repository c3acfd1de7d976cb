//! The one table that turns a policy name into a running [`CpuPolicy`].
//!
//! Every front end resolves names here: the experiment sweeps, the
//! fleet harness and the tournament (through
//! `mobicore_experiments::policy`), the decision service (through
//! `mobicore_serve::registry`), the invariant checker's policy suite
//! and the `phone` REPL. This crate is the lowest one that sees all
//! three constructor homes: MobiCore itself, the stock stack in
//! `mobicore_governors`, and the bring-up policies in
//! `mobicore_sim::builtin`.

use crate::{FrequencyRule, MobiCore, MobiCoreConfig, ThermalAwareMobiCore};
use mobicore_governors::dvfs::{
    Conservative, DvfsGovernor, Interactive, Ondemand, Performance, Powersave, Schedutil,
};
use mobicore_governors::{AndroidDefaultPolicy, GovernorPolicy, LearnedGovernor};
use mobicore_model::{DeviceProfile, Khz};
use mobicore_sim::builtin::{NoopPolicy, PinnedPolicy};
use mobicore_sim::CpuPolicy;

/// The policies the experiments, the tournament and the benchmark race,
/// in a stable order: MobiCore, the Android baseline, the DVFS-only
/// stock governors, and the learned governor last.
pub const ARENA: [&str; 10] = [
    "mobicore",
    "android-default",
    "android-ondemand-only",
    "ondemand",
    "interactive",
    "conservative",
    "powersave",
    "performance",
    "schedutil",
    "learned",
];

/// Every fixed name [`build`] accepts: [`ARENA`] followed by the
/// MobiCore variants and the no-op bring-up policy. The parameterized
/// `pinned:<cores>:<khz>` form comes on top.
pub const NAMES: [&str; 13] = [
    "mobicore",
    "android-default",
    "android-ondemand-only",
    "ondemand",
    "interactive",
    "conservative",
    "powersave",
    "performance",
    "schedutil",
    "learned",
    "mobicore-optpoint",
    "mobicore-thermal",
    "noop",
];

/// Builds the named policy for `profile`, or `None` for an unknown name.
///
/// `seed` only matters to the `learned` governor (its exploration RNG);
/// every other policy is a deterministic function of the snapshot
/// stream and ignores it. `android-default` is the composed ondemand +
/// default-hotplug baseline; `ondemand` … `schedutil` are the DVFS-only
/// governors of that name (all cores stay online), matching how the
/// thesis isolates the cpufreq half. `pinned:<cores>:<khz>` holds a
/// fixed operating point; both fields must be nonzero.
pub fn build(name: &str, profile: &DeviceProfile, seed: u64) -> Option<Box<dyn CpuPolicy + Send>> {
    let dvfs: Box<dyn DvfsGovernor + Send> = match name {
        "mobicore" => return Some(Box::new(MobiCore::new(profile))),
        "mobicore-optpoint" => {
            let cfg = MobiCoreConfig {
                rule: FrequencyRule::OptimalPoint,
                ..MobiCoreConfig::default()
            };
            return Some(Box::new(MobiCore::with_config(profile, cfg)));
        }
        "mobicore-thermal" => return Some(Box::new(ThermalAwareMobiCore::new(profile))),
        "android-default" => return Some(Box::new(AndroidDefaultPolicy::new(profile))),
        "android-ondemand-only" => return Some(Box::new(AndroidDefaultPolicy::dvfs_only(profile))),
        "learned" => return Some(Box::new(LearnedGovernor::new(profile, seed))),
        "noop" => return Some(Box::new(NoopPolicy::new())),
        "ondemand" => Box::new(Ondemand::new()),
        "interactive" => Box::new(Interactive::new()),
        "conservative" => Box::new(Conservative::new()),
        "powersave" => Box::new(Powersave::new()),
        "performance" => Box::new(Performance::new()),
        "schedutil" => Box::new(Schedutil::new()),
        _ => return pinned(name),
    };
    Some(Box::new(GovernorPolicy::dvfs_only(
        dvfs,
        profile.opps().clone(),
    )))
}

/// Parses `pinned:<cores>:<khz>`.
fn pinned(name: &str) -> Option<Box<dyn CpuPolicy + Send>> {
    let (cores, khz) = name.strip_prefix("pinned:")?.split_once(':')?;
    let cores: usize = cores.parse().ok()?;
    let khz: u32 = khz.parse().ok()?;
    if cores == 0 || khz == 0 {
        return None;
    }
    Some(Box::new(PinnedPolicy::new(cores, Khz(khz))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobicore_governors::learned::DEFAULT_SEED;
    use mobicore_model::profiles;

    #[test]
    fn every_listed_name_builds() {
        let profile = profiles::nexus5();
        for name in NAMES {
            let policy =
                build(name, &profile, DEFAULT_SEED).unwrap_or_else(|| panic!("{name} builds"));
            assert_eq!(policy.name(), name);
        }
    }

    #[test]
    fn arena_is_a_prefix_of_names() {
        assert_eq!(&NAMES[..ARENA.len()], &ARENA[..]);
        assert_eq!(ARENA[0], "mobicore");
        assert_eq!(ARENA[ARENA.len() - 1], "learned");
    }

    #[test]
    fn pinned_form_parses_and_bad_forms_do_not() {
        let profile = profiles::nexus5();
        let p = build("pinned:2:960000", &profile, 1).expect("valid pinned");
        assert!(p.name().contains("pinned-2c"));
        for bad in [
            "pinned:",
            "pinned:2",
            "pinned:0:960000",
            "pinned:2:0",
            "pinned:x:1",
            "pinned:2:960000:1",
            "warp",
        ] {
            assert!(build(bad, &profile, 1).is_none(), "{bad}");
        }
    }

    #[test]
    fn every_profile_name_builds() {
        for name in profiles::NAMES {
            let p = profiles::by_name(name).unwrap_or_else(|| panic!("{name} builds"));
            let by_display = profiles::by_display_name(p.name())
                .unwrap_or_else(|| panic!("display name {:?} resolves", p.name()));
            assert_eq!(by_display.name(), p.name());
            assert_eq!(by_display.n_cores(), p.n_cores());
            assert_eq!(by_display.opps().max_khz(), p.opps().max_khz());
            // The two vocabularies stay apart: wire names are not
            // display names.
            assert!(profiles::by_display_name(name).is_none(), "{name}");
        }
        assert!(profiles::by_name("Nexus 5").is_none());
    }

    #[test]
    fn unknown_names_are_none() {
        let profile = profiles::nexus5();
        assert!(build("warp-drive", &profile, 1).is_none());
        assert!(build("", &profile, 1).is_none());
        assert!(profiles::by_name("tricorder").is_none());
        assert!(profiles::by_name("").is_none());
        assert!(profiles::by_display_name("Tricorder").is_none());
    }
}
