//! Policy names for the fleet harness, the sweeps and the tournament:
//! forwards to [`mobicore::registry`], the one table every front end
//! resolves names through.

/// Builds the named policy for a profile ([`mobicore::registry::build`]);
/// the seed only matters to the `learned` governor.
pub use mobicore::registry::build as by_name;

/// The arena the experiments race, in a stable order: `mobicore` first,
/// `learned` last ([`mobicore::registry::ARENA`]).
pub fn names() -> Vec<&'static str> {
    mobicore::registry::ARENA.to_vec()
}
