//! One-screen TL;DR of the reproduction: the headline paper claims, the
//! measured counterparts, and the verdict — what a reviewer reads first.
//!
//! ```text
//! cargo run --release -p mobicore-experiments --bin summary [-- --quick]
//! ```

use mobicore::registry;
use mobicore_experiments::{games_suite, runner};
use mobicore_model::{profiles, Battery};
use mobicore_workloads::{BusyLoop, GeekBenchApp};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let secs = if quick { 10 } else { 60 };
    let profile = profiles::nexus5();
    let f_max = profile.opps().max_khz();

    println!(
        "MobiCore reproduction — headline summary (seed {})",
        runner::SEED
    );
    println!("────────────────────────────────────────────────────────────");

    let sink = runner::ManifestSink::from_env("summary");
    let policy = |name| registry::build(name, &profile, runner::SEED).expect("registered policy");

    // 1. static benchmark
    let run_bl = |name| {
        runner::run_policy(
            &profile,
            policy(name),
            vec![Box::new(BusyLoop::with_target_util(
                4,
                0.3,
                f_max,
                runner::SEED,
            ))],
            secs,
            runner::SEED,
            &sink,
        )
    };
    let (a, m) = (run_bl("android-default"), run_bl("mobicore"));
    let bl_saving = runner::pct_saving(a.avg_power_mw, m.avg_power_mw);
    println!(
        "busy-loop 30 %      paper: −13.9 % avg   measured: {:.1} % ({:.0} → {:.0} mW)",
        -bl_saving, a.avg_power_mw, m.avg_power_mw
    );

    // 2. GeekBench efficiency
    let run_gb = |name| {
        runner::run_policy(
            &profile,
            policy(name),
            vec![Box::new(GeekBenchApp::standard(4))],
            secs,
            runner::SEED,
            &sink,
        )
    };
    let (ga, gm) = (run_gb("android-default"), run_gb("mobicore"));
    let eff = |r: &mobicore_sim::SimReport| r.first_metric("score").unwrap_or(0.0) / r.avg_power_mw;
    println!(
        "GeekBench score/W   paper: ≈ +23 %        measured: {:+.1} %",
        (eff(&gm) / eff(&ga) - 1.0) * 100.0
    );

    // 3. games
    let cmp = games_suite::run(if quick { 10 } else { 120 });
    let avg_saving: f64 = cmp.iter().map(|c| c.power_saving_pct()).sum::<f64>() / cmp.len() as f64;
    let avg_ratio: f64 = cmp.iter().map(|c| c.fps_ratio()).sum::<f64>() / cmp.len() as f64;
    let avg_freq_red: f64 =
        cmp.iter().map(|c| c.freq_reduction_pct()).sum::<f64>() / cmp.len() as f64;
    let avg_cores_m: f64 = cmp.iter().map(|c| c.mobicore.avg_cores).sum::<f64>() / cmp.len() as f64;
    let avg_cores_a: f64 = cmp.iter().map(|c| c.android.avg_cores).sum::<f64>() / cmp.len() as f64;
    println!("game power          paper: −5.3 % avg     measured: −{avg_saving:.1} % (5 games)");
    println!(
        "game FPS cost       paper: −22 %          measured: −{:.1} %",
        (1.0 - avg_ratio) * 100.0
    );
    println!("avg frequency       paper: −22.5 %        measured: −{avg_freq_red:.1} %");
    println!(
        "avg online cores    paper: 2.52 vs 2.75   measured: {avg_cores_m:.2} vs {avg_cores_a:.2}"
    );

    // 4. battery framing
    let battery = Battery::nexus5();
    println!(
        "battery @ busy-loop 30 %: {:.1} h → {:.1} h (×{:.2})",
        battery.hours_at(a.avg_power_mw),
        battery.hours_at(m.avg_power_mw),
        battery.life_gain(a.avg_power_mw, m.avg_power_mw)
    );
    println!("────────────────────────────────────────────────────────────");
    println!("full per-figure record: EXPERIMENTS.md · `--bin all`");
}
