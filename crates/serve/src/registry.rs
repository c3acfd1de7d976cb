//! Resolves the policy and profile names clients put in Hello frames:
//! forwards to the workspace tables, [`mobicore::registry`] for
//! policies and [`mobicore_model::profiles`] for device profiles.

use mobicore_model::DeviceProfile;
use mobicore_sim::CpuPolicy;

/// Builds the named device profile ([`mobicore_model::profiles::by_name`]).
pub use mobicore_model::profiles::by_name as profile_by_name;

/// Builds the named policy for `profile` at the default exploration
/// seed ([`mobicore::registry::build`] at
/// [`mobicore_governors::learned::DEFAULT_SEED`]).
pub fn build_policy(name: &str, profile: &DeviceProfile) -> Option<Box<dyn CpuPolicy + Send>> {
    mobicore::registry::build(name, profile, mobicore_governors::learned::DEFAULT_SEED)
}
