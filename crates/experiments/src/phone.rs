//! An interactive "phone in a terminal": build a simulated Nexus 5,
//! attach workloads, pick policies, run for a while, poke sysfs over the
//! adb-style shell — the workflow of the thesis' experimental chapters as
//! a REPL.
//!
//! ```text
//! cargo run --release -p mobicore-experiments --bin phone
//! phone> policy mobicore
//! phone> workload game "Subway Surf"
//! phone> run 30
//! phone> status
//! phone> adb cat /sys/class/thermal/thermal_zone0/temp
//! ```
//!
//! The REPL is a pure function of its input stream, so it is fully
//! testable (and scriptable: `phone < script.txt`).

use mobicore::registry;
use mobicore_model::{profiles, Battery, DeviceProfile};
use mobicore_sim::{CpuPolicy, SimConfig, Simulation, TraceLevel};
use mobicore_workloads::{BusyLoop, GameApp, GameProfile, GeekBenchApp, VideoPlayback};
use std::io::{BufRead, Write};

/// One REPL session's pending build configuration.
struct Session {
    profile: DeviceProfile,
    policy_kind: String,
    workloads: Vec<String>,
    seed: u64,
    sim: Option<Simulation>,
}

impl Session {
    fn new() -> Self {
        Session {
            profile: profiles::nexus5(),
            policy_kind: "android".into(),
            workloads: vec![],
            seed: 1,
            sim: None,
        }
    }

    /// Resolves the policy through [`registry::build`]; `android` and
    /// bare `pinned` are shorthands for `android-default` and all cores
    /// pinned at the top OPP.
    fn build_policy(&self) -> Result<Box<dyn CpuPolicy>, String> {
        let name = match self.policy_kind.as_str() {
            "android" => "android-default".to_string(),
            "pinned" => format!(
                "pinned:{}:{}",
                self.profile.n_cores(),
                self.profile.opps().max_khz().0
            ),
            other => other.to_string(),
        };
        match registry::build(&name, &self.profile, self.seed) {
            Some(policy) => Ok(policy),
            None => Err(format!("unknown policy {name:?}; see `help`")),
        }
    }

    fn build_workload(&self, spec: &str) -> Result<Box<dyn mobicore_sim::Workload>, String> {
        let f_max = self.profile.opps().max_khz();
        let mut parts = spec.splitn(2, ' ');
        let kind = parts.next().unwrap_or("");
        let arg = parts.next().unwrap_or("").trim().trim_matches('"');
        Ok(match kind {
            "busyloop" => {
                let util: f64 = arg
                    .parse()
                    .map_err(|_| format!("busyloop needs a utilization in (0,1], got {arg:?}"))?;
                if !(util > 0.0 && util <= 1.0) {
                    return Err(format!("utilization out of range: {util}"));
                }
                Box::new(BusyLoop::with_target_util(
                    self.profile.n_cores(),
                    util,
                    f_max,
                    self.seed,
                ))
            }
            "geekbench" => Box::new(GeekBenchApp::standard(self.profile.n_cores())),
            "video" => Box::new(VideoPlayback::new(12_000_000)),
            "game" => {
                let game = GameProfile::all()
                    .into_iter()
                    .find(|g| g.name.eq_ignore_ascii_case(arg))
                    .ok_or_else(|| {
                        format!(
                            "unknown game {arg:?}; try one of {:?}",
                            GameProfile::all()
                                .iter()
                                .map(|g| g.name.clone())
                                .collect::<Vec<_>>()
                        )
                    })?;
                Box::new(GameApp::new(game, self.seed))
            }
            other => return Err(format!("unknown workload {other:?}; see `help`")),
        })
    }

    fn ensure_sim(&mut self) -> Result<&mut Simulation, String> {
        if self.sim.is_none() {
            let cfg = SimConfig::new(self.profile.clone())
                .with_duration_secs(3_600) // REPL runs are open-ended
                .with_seed(self.seed)
                .with_trace(TraceLevel::Full) // enables `analyze`
                .without_mpdecision();
            let mut sim = Simulation::new(cfg, self.build_policy()?).map_err(|e| e.to_string())?;
            for spec in self.workloads.clone() {
                let w = self.build_workload(&spec)?;
                sim.add_workload(w);
            }
            self.sim = Some(sim);
        }
        Ok(self.sim.as_mut().expect("just built"))
    }
}

/// The `help` text; the policy list comes from [`registry::NAMES`].
fn help() -> String {
    format!(
        "commands:
  policy <android|pinned|pinned:CORES:KHZ|{}>
  workload <busyloop UTIL | game \"NAME\" | geekbench | video>   (repeatable)
  gaming on|off          use the display-on gaming power profile
  seed N                 set the workload seed
  run SECS               simulate SECS seconds (builds the phone lazily)
  adb CMD                e.g. adb cat /sys/devices/system/cpu/cpu0/online
  status                 instantaneous state
  report                 aggregates since boot (power, cores, MHz, metrics)
  battery                projected runtime at the current average draw
  analyze                trace statistics (residency, transitions, jank)
  reset                  discard the phone, keep the configuration
  help                   this text
  quit",
        registry::NAMES.join("|")
    )
}

/// Runs the REPL over arbitrary I/O. Returns the number of commands
/// executed.
pub fn run_repl(input: impl BufRead, mut out: impl Write) -> std::io::Result<usize> {
    let mut session = Session::new();
    let mut executed = 0usize;
    writeln!(
        out,
        "simulated {} — `help` for commands",
        session.profile.name()
    )?;
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        executed += 1;
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        let rest = rest.trim();
        let outcome: Result<String, String> = match cmd {
            "help" => Ok(help()),
            "quit" | "exit" => break,
            "policy" => {
                session.policy_kind = rest.to_string();
                session
                    .build_policy()
                    .map(|p| format!("policy = {}", p.name()))
                    .inspect_err(|_| session.policy_kind = "android".into())
            }
            "seed" => rest
                .parse::<u64>()
                .map(|s| {
                    session.seed = s;
                    format!("seed = {s}")
                })
                .map_err(|_| format!("bad seed {rest:?}")),
            "gaming" => match rest {
                "on" => {
                    session.profile = profiles::nexus5_gaming();
                    session.sim = None;
                    Ok("profile = Nexus 5 (gaming, display on)".into())
                }
                "off" => {
                    session.profile = profiles::nexus5();
                    session.sim = None;
                    Ok("profile = Nexus 5 (screen off)".into())
                }
                _ => Err("gaming on|off".into()),
            },
            "workload" => session.build_workload(rest).map(|w| {
                let name = w.name().to_string();
                session.workloads.push(rest.to_string());
                session.sim = None; // rebuild with the new set
                format!("workload added: {name}")
            }),
            "run" => rest
                .parse::<u64>()
                .map_err(|_| format!("bad duration {rest:?}"))
                .and_then(|secs| {
                    let sim = session.ensure_sim()?;
                    let until = sim.now_us() + secs * 1_000_000;
                    while sim.now_us() < until {
                        sim.step();
                    }
                    Ok(format!("ran {secs} s (t = {} s)", sim.now_us() / 1_000_000))
                }),
            "adb" => session.ensure_sim().and_then(|sim| {
                sim.adb(rest)
                    .map(|s| if s.is_empty() { "ok".into() } else { s })
                    .map_err(|e| e.to_string())
            }),
            "status" => session.ensure_sim().map(|sim| {
                format!(
                    "t={}s online={} temp={:.1}°C quota={}",
                    sim.now_us() / 1_000_000,
                    sim.online_count(),
                    sim.temp_c(),
                    sim.quota(),
                )
            }),
            "report" => (|| {
                let sim = session.ensure_sim()?;
                let r = sim.report();
                let mut s = format!(
                    "policy={} avg={:.1}mW peak={:.1}mW cores={:.2} mhz={:.0} load={:.1}% quota={:.2}",
                    r.policy,
                    r.avg_power_mw,
                    r.max_power_mw,
                    r.avg_online_cores,
                    r.avg_mhz_online(),
                    r.avg_overall_util * 100.0,
                    r.avg_quota,
                );
                for w in &r.workloads {
                    for m in &w.metrics {
                        s.push_str(&format!("\n  {}: {} = {:.2}", w.name, m.name, m.value));
                    }
                }
                Ok(s)
            })(),
            "battery" => (|| {
                let sim = session.ensure_sim()?;
                let r = sim.report();
                let b = Battery::nexus5();
                Ok(format!(
                    "at {:.0} mW: {:.1} h on a {} mAh cell (soc after this session: {:.0}%)",
                    r.avg_power_mw,
                    b.hours_at(r.avg_power_mw),
                    b.capacity_mah,
                    b.soc_after(r.avg_power_mw, r.duration_us) * 100.0
                ))
            })(),
            "analyze" => (|| {
                let sim = session.ensure_sim()?;
                let r = sim.report();
                let a = mobicore_sim::analysis::analyze(&r.trace)
                    .ok_or_else(|| "nothing recorded yet; `run` first".to_string())?;
                let top: Vec<String> = a
                    .freq_residency
                    .iter()
                    .filter(|(_, frac)| *frac > 0.05)
                    .map(|(khz, frac)| {
                        format!("{:.0}MHz {:.0}%", *khz as f64 / 1_000.0, frac * 100.0)
                    })
                    .collect();
                Ok(format!(
                    "samples={} power p5/p50/p95 = {:.0}/{:.0}/{:.0} mW | max {:.1}°C |                      dvfs transitions {} | hotplug events {} | quota engaged {:.0}% | residency: {}",
                    a.samples,
                    a.power_percentiles_mw.0,
                    a.power_percentiles_mw.1,
                    a.power_percentiles_mw.2,
                    a.max_temp_c,
                    a.dvfs_transitions,
                    a.hotplug_events,
                    a.quota_engaged_frac * 100.0,
                    top.join(", ")
                ))
            })(),
            "reset" => {
                session.sim = None;
                Ok("phone discarded; configuration kept".into())
            }
            other => Err(format!("unknown command {other:?}; `help` lists commands")),
        };
        match outcome {
            Ok(msg) => writeln!(out, "{msg}")?,
            Err(msg) => writeln!(out, "error: {msg}")?,
        }
    }
    Ok(executed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn drive(script: &str) -> String {
        let mut out = Vec::new();
        run_repl(Cursor::new(script), &mut out).expect("io ok");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn help_and_quit() {
        let out = drive("help\nquit\n");
        assert!(out.contains("commands:"));
        assert!(out.contains("mobicore"));
    }

    #[test]
    fn full_session_flow() {
        let out = drive(
            "policy mobicore\n\
             workload busyloop 0.3\n\
             run 3\n\
             status\n\
             report\n\
             battery\n\
             quit\n",
        );
        assert!(out.contains("policy = mobicore"));
        assert!(out.contains("workload added: busyloop"));
        assert!(out.contains("ran 3 s"));
        assert!(out.contains("avg="));
        assert!(out.contains("h on a 2300 mAh cell"));
    }

    #[test]
    fn game_session_flow() {
        let out = drive(
            "gaming on\n\
             policy android\n\
             workload game \"Subway Surf\"\n\
             run 5\n\
             report\n\
             quit\n",
        );
        assert!(out.contains("gaming, display on"));
        assert!(out.contains("Subway Surf: avg_fps"));
    }

    #[test]
    fn adb_round_trip() {
        let out = drive(
            "policy pinned\n\
             run 1\n\
             adb cat /sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq\n\
             adb stop mpdecision\n\
             quit\n",
        );
        assert!(out.contains("2265600"), "{out}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let out = drive(
            "policy bogus\n\
             workload bogus\n\
             workload busyloop 7\n\
             run x\n\
             frobnicate\n\
             quit\n",
        );
        assert_eq!(out.matches("error:").count(), 5, "{out}");
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let out = drive("# a comment\n\n   \nquit\n");
        assert_eq!(out.matches("error:").count(), 0);
    }

    #[test]
    fn analyze_reports_trace_statistics() {
        let out = drive(
            "policy mobicore\n\
             workload busyloop 0.4\n\
             run 4\n\
             analyze\n\
             quit\n",
        );
        assert!(out.contains("dvfs transitions"), "{out}");
        assert!(out.contains("residency:"), "{out}");
    }

    #[test]
    fn reset_keeps_configuration() {
        let out = drive(
            "policy mobicore\n\
             workload busyloop 0.5\n\
             run 2\n\
             reset\n\
             run 1\n\
             report\n\
             quit\n",
        );
        assert!(out.contains("discarded"));
        assert!(out.contains("policy=mobicore"));
    }
}
