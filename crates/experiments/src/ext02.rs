//! **Extension 2** — the §7 future-work policy: MobiCore with proactive
//! thermal awareness.
//!
//! Plain MobiCore ignores temperature; under sustained stress the
//! firmware throttle clamps it reactively (sawtooth frequency around the
//! trip). The thermal-aware variant derates *before* the trip and should
//! reach the same steady state with less firmware intervention.

use crate::result::ExperimentResult;
use crate::runner::{self, parallel_map};
use mobicore::registry;
use mobicore_model::profiles;
use mobicore_workloads::BusyLoop;

/// Runs the experiment.
pub fn run(quick: bool) -> ExperimentResult {
    let secs = if quick { 40 } else { 180 };
    let profile = profiles::nexus5();
    let f_max = profile.opps().max_khz();

    let mut res = ExperimentResult::new(
        "ext02",
        "proactive thermal awareness (future work §7) under sustained stress",
    );
    res.line("policy,avg_power_mw,max_temp_c,firmware_throttle_frac,executed_gcycles");

    let sink = runner::ManifestSink::from_env("ext02");
    let rows = parallel_map(vec!["mobicore", "mobicore-thermal"], |name| {
        let r = runner::run_policy(
            &profile,
            registry::build(name, &profile, runner::SEED).expect("registered policy"),
            vec![Box::new(BusyLoop::with_target_util(
                4,
                1.0,
                f_max,
                runner::SEED,
            ))],
            secs,
            runner::SEED,
            &sink,
        );
        (name, r)
    });
    for (name, r) in &rows {
        res.line(format!(
            "{name},{:.1},{:.1},{:.3},{:.2}",
            r.avg_power_mw,
            r.max_temp_c,
            r.thermal_throttled_frac,
            r.executed_cycles as f64 / 1e9
        ));
    }
    let plain = &rows[0].1;
    let aware = &rows[1].1;

    res.check(
        "thermal-aware variant runs no hotter",
        "proactive ≤ reactive peak temperature",
        format!("{:.1} vs {:.1} °C", aware.max_temp_c, plain.max_temp_c),
        aware.max_temp_c <= plain.max_temp_c + 0.3,
    );
    res.check(
        "firmware throttle intervenes no more often",
        "the policy yields before the firmware must",
        format!(
            "{:.2} vs {:.2} of the run",
            aware.thermal_throttled_frac, plain.thermal_throttled_frac
        ),
        aware.thermal_throttled_frac <= plain.thermal_throttled_frac + 0.02,
    );
    res.check(
        "throughput stays in the same class",
        "both settle at the sustainable power budget",
        format!(
            "{:.1} vs {:.1} Gcycles",
            aware.executed_cycles as f64 / 1e9,
            plain.executed_cycles as f64 / 1e9
        ),
        aware.executed_cycles as f64 > plain.executed_cycles as f64 * 0.85,
    );
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext02_shape_holds() {
        let r = run(true);
        assert!(r.all_pass(), "{r}");
    }
}
