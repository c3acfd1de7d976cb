//! Run the same workload under every stock governor of paper §2.2.1 plus
//! MobiCore, and rank them by energy and by delivered throughput.
//!
//! ```text
//! cargo run --release --example governor_shootout
//! ```

use mobicore::registry;
use mobicore_model::profiles;
use mobicore_sim::{SimConfig, Simulation};
use mobicore_workloads::GeekBenchApp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = profiles::nexus5();
    let names = [
        "performance",
        "ondemand",
        "interactive",
        "conservative",
        "powersave",
        "mobicore",
    ];

    println!("policy           score     mW  score/W   energy mJ");
    for name in names {
        let policy = registry::build(name, &profile, 3).expect("registered policy");
        let cfg = SimConfig::new(profile.clone())
            .with_duration_secs(25)
            .with_seed(3)
            .without_mpdecision();
        let mut sim = Simulation::new(cfg, policy)?;
        sim.add_workload(Box::new(GeekBenchApp::standard(profile.n_cores())));
        let r = sim.run();
        let score = r.first_metric("score").unwrap_or(0.0);
        println!(
            "{:16} {:6.0} {:6.0} {:8.1} {:10.0}",
            r.policy,
            score,
            r.avg_power_mw,
            score / r.avg_power_mw * 1_000.0,
            r.energy_mj,
        );
    }
    Ok(())
}
