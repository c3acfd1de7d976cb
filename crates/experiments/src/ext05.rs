//! **Extension 5** — hotplug policy shoot-out: the stock load-threshold
//! hotplug (§2.2.2) vs an mpdecision-like runqueue-aware policy vs no
//! hotplug at all vs MobiCore, all on the same mixed timeline.
//!
//! The headline finding *supports the thesis' core argument*:
//! uncoordinated hotplug composed with ondemand uses fewer cores yet
//! costs MORE power — consolidation raises per-core load, ondemand
//! bursts the clock, and the faster cluster outweighs the parked cores'
//! leakage. The two mechanisms being "neither unified nor coordinated"
//! (§1.1) is precisely the gap MobiCore closes.

use crate::result::ExperimentResult;
use crate::runner::{self, parallel_map};
use mobicore::registry;
use mobicore_governors::{DefaultHotplug, GovernorPolicy, NoHotplug, Ondemand, RqHotplug};
use mobicore_model::profiles;
use mobicore_sim::CpuPolicy;
use mobicore_workloads::{AppLaunch, BusyLoop, Scenario, VideoPlayback};

fn policy(kind: &str, profile: &mobicore_model::DeviceProfile) -> Box<dyn CpuPolicy> {
    let opps = profile.opps().clone();
    match kind {
        "no-hotplug" => Box::new(GovernorPolicy::with_hotplug(
            Box::new(Ondemand::new()),
            Box::new(NoHotplug::new()),
            opps,
        )),
        "default-hotplug" => Box::new(GovernorPolicy::with_hotplug(
            Box::new(Ondemand::new()),
            Box::new(DefaultHotplug::new()),
            opps,
        )),
        "rq-hotplug" => Box::new(GovernorPolicy::with_hotplug(
            Box::new(Ondemand::new()),
            Box::new(RqHotplug::new()),
            opps,
        )),
        _ => registry::build(kind, profile, runner::SEED).expect("registered policy"),
    }
}

fn mixed_scenario(f_max: mobicore_model::Khz, secs: u64) -> Scenario {
    let third = secs / 3;
    Scenario::new()
        .phase_secs(0, third, Box::new(VideoPlayback::new(12_000_000)))
        .phase_secs(
            third,
            2 * third,
            Box::new(BusyLoop::with_target_util(4, 0.6, f_max, runner::SEED)),
        )
        .phase_secs(
            2 * third,
            secs,
            Box::new(AppLaunch::new(2_000_000, runner::SEED)),
        )
}

/// Runs the experiment.
pub fn run(quick: bool) -> ExperimentResult {
    let secs = if quick { 12 } else { 60 };
    let profile = profiles::nexus5();
    let f_max = profile.opps().max_khz();

    let mut res = ExperimentResult::new(
        "ext05",
        "hotplug policy shoot-out on a mixed video/compute/launch timeline",
    );
    res.line("hotplug,avg_power_mw,avg_cores,video_frames,launches,launch_latency_ms");

    let kinds = ["no-hotplug", "default-hotplug", "rq-hotplug", "mobicore"];
    let sink = runner::ManifestSink::from_env("ext05");
    let rows = parallel_map(kinds.to_vec(), |kind| {
        let r = runner::run_policy(
            &profile,
            policy(kind, &profile),
            vec![Box::new(mixed_scenario(f_max, secs))],
            secs,
            runner::SEED,
            &sink,
        );
        (kind, r)
    });
    for (kind, r) in &rows {
        res.line(format!(
            "{kind},{:.1},{:.2},{:.0},{:.0},{:.0}",
            r.avg_power_mw,
            r.avg_online_cores,
            r.first_metric("video-playback.frames").unwrap_or(0.0),
            r.first_metric("app-launch.launches").unwrap_or(0.0),
            r.first_metric("app-launch.mean_launch_latency_ms")
                .unwrap_or(0.0),
        ));
    }
    let find = |k: &str| &rows.iter().find(|r| r.0 == k).expect("ran").1;
    let none = find("no-hotplug");
    let stock = find("default-hotplug");
    let rq = find("rq-hotplug");
    let mob = find("mobicore");

    res.check(
        "uncoordinated hotplug uses fewer cores yet can cost MORE power",
        "the mechanisms are \"neither unified nor coordinated\" (§1.1)",
        format!(
            "none {:.0} mW/4.00 cores; stock {:.0} mW/{:.2}; rq {:.0} mW/{:.2}",
            none.avg_power_mw,
            stock.avg_power_mw,
            stock.avg_online_cores,
            rq.avg_power_mw,
            rq.avg_online_cores
        ),
        stock.avg_online_cores < none.avg_online_cores
            && rq.avg_online_cores < none.avg_online_cores
            && (stock.avg_power_mw > none.avg_power_mw * 0.97
                || rq.avg_power_mw > none.avg_power_mw * 0.97),
    );
    res.check(
        "coordinated MobiCore beats every uncoordinated composition",
        "the point of the thesis",
        format!(
            "mobicore {:.0} mW vs none {:.0} / stock {:.0} / rq {:.0}",
            mob.avg_power_mw, none.avg_power_mw, stock.avg_power_mw, rq.avg_power_mw
        ),
        mob.avg_power_mw < none.avg_power_mw
            && mob.avg_power_mw < stock.avg_power_mw
            && mob.avg_power_mw < rq.avg_power_mw,
    );
    let frames_ok = |r: &mobicore_sim::SimReport| {
        r.first_metric("video-playback.frames").unwrap_or(0.0)
            >= none.first_metric("video-playback.frames").unwrap_or(0.0) * 0.9
    };
    res.check(
        "video playback does not suffer under any policy",
        "a single light thread never needed 4 cores",
        format!(
            "{}/3 keep ≥ 90 % of the frames",
            [stock, rq, mob].iter().filter(|r| frames_ok(r)).count()
        ),
        frames_ok(stock) && frames_ok(rq) && frames_ok(mob),
    );
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext05_shape_holds() {
        let r = run(true);
        assert!(r.all_pass(), "{r}");
    }
}
