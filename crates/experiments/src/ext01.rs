//! **Extension 1** — MobiCore vs the *modern* stock governors.
//!
//! The thesis compares against the Android-5-era default (ondemand +
//! hotplug). The calibration notes point out that later mainline work
//! (schedutil, EAS) covers similar ground; this experiment puts MobiCore
//! next to `schedutil` and `interactive` on the same workloads.

use crate::result::ExperimentResult;
use crate::runner::{self, parallel_map};
use mobicore::registry;
use mobicore_model::profiles;
use mobicore_sim::CpuPolicy;
use mobicore_workloads::{BusyLoop, GeekBenchApp};

fn make_policy(kind: &str, profile: &mobicore_model::DeviceProfile) -> Box<dyn CpuPolicy> {
    registry::build(kind, profile, runner::SEED).expect("registered policy")
}

/// Runs the experiment.
pub fn run(quick: bool) -> ExperimentResult {
    let secs = if quick { 8 } else { 45 };
    let profile = profiles::nexus5();
    let f_max = profile.opps().max_khz();
    let kinds = ["ondemand", "interactive", "schedutil", "mobicore"];

    let mut res = ExperimentResult::new(
        "ext01",
        "MobiCore vs modern governors (schedutil) — not in the paper",
    );
    res.line("policy,busyloop30_mw,geekbench_score,geekbench_mw,score_per_w");

    let sink = runner::ManifestSink::from_env("ext01");
    let rows = parallel_map(kinds.to_vec(), |kind| {
        let bl = runner::run_policy(
            &profile,
            make_policy(kind, &profile),
            vec![Box::new(BusyLoop::with_target_util(
                4,
                0.3,
                f_max,
                runner::SEED,
            ))],
            secs,
            runner::SEED,
            &sink,
        );
        let gb = runner::run_policy(
            &profile,
            make_policy(kind, &profile),
            vec![Box::new(GeekBenchApp::standard(4))],
            secs,
            runner::SEED,
            &sink,
        );
        (
            kind,
            bl.avg_power_mw,
            gb.first_metric("score").expect("geekbench reports"),
            gb.avg_power_mw,
        )
    });
    for (kind, bl_mw, score, gb_mw) in &rows {
        res.line(format!(
            "{kind},{bl_mw:.1},{score:.0},{gb_mw:.1},{:.2}",
            score / gb_mw * 1_000.0
        ));
    }

    let find = |k: &str| rows.iter().find(|r| r.0 == k).expect("ran");
    let mob = find("mobicore");
    let su = find("schedutil");
    let od = find("ondemand");
    res.check(
        "MobiCore beats stock ondemand on the static benchmark",
        "the thesis' core claim",
        format!("{:.0} vs {:.0} mW", mob.1, od.1),
        mob.1 < od.1,
    );
    res.check(
        "schedutil also beats ondemand (modern baseline is real)",
        "expected: proportional beats burst-to-max",
        format!("{:.0} vs {:.0} mW", su.1, od.1),
        su.1 < od.1,
    );
    // An honest finding: schedutil's utilization-rescaled target plus
    // rate limiting avoids the burst-chasing that MobiCore inherits from
    // its embedded ondemand pass, so the *modern* governor wins the
    // bursty busy loop outright. MobiCore's answer is efficiency under
    // scored work (below), where DCS + quota still pay.
    res.check(
        "schedutil wins the bursty busy loop (strong modern baseline)",
        "post-thesis mainline covers similar ground (calibration notes)",
        format!("{:.0} vs {:.0} mW", su.1, mob.1),
        su.1 < mob.1,
    );
    let mob_eff = mob.2 / mob.3;
    let su_eff = su.2 / su.3;
    res.check(
        "efficiency (score/W) of MobiCore vs schedutil",
        "DCS + quota should buy something schedutil lacks",
        format!(
            "{:.2} vs {:.2} score/W·1000",
            mob_eff * 1_000.0,
            su_eff * 1_000.0
        ),
        mob_eff > su_eff * 0.85,
    );
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext01_shape_holds() {
        let r = run(true);
        assert!(r.all_pass(), "{r}");
    }
}
