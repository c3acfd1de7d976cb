//! Property-based tests for the simulator's foundations.

use mobicore_model::{profiles, Khz};
use mobicore_sim::sched::{schedule_tick_into, SchedScratch, TickOutcome, TickParams};
use mobicore_sim::{adb, SimConfig, Simulation, WorkloadRt};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The adb parser never panics and never accepts garbage that is not
    /// in its vocabulary.
    #[test]
    fn adb_parser_total(line in ".{0,120}") {
        let _ = adb::parse(&line); // must not panic
    }

    /// Parsed echo commands round-trip their value and path.
    #[test]
    fn adb_echo_round_trip(
        value in "[a-z0-9_]{1,16}",
        path in "(/[a-z0-9_]{1,12}){1,6}",
    ) {
        let line = format!("echo {value} > {path}");
        let cmd = adb::parse(&line).expect("well-formed echo");
        prop_assert_eq!(cmd, adb::AdbCommand::Echo { value, path });
    }

    /// Sysfs writes land at the tick boundary: over random sequences of
    /// OPP-valued `scaling_setspeed` / `scaling_max_freq` writes mixed
    /// with ticks, a read before the next tick shows the old value and a
    /// read after it shows the new one.
    #[test]
    fn sysfs_commit_semantics(
        ops in proptest::collection::vec((0u8..3, 0usize..4, 0usize..14), 1..24)
    ) {
        let profile = profiles::nexus5();
        let opps = profile.opps().clone();
        let mut sim = Simulation::without_policy(SimConfig::new(profile)).expect("valid config");
        let path = |name: &str, core: usize| {
            format!("/sys/devices/system/cpu/cpu{core}/cpufreq/{name}")
        };
        let names = ["scaling_setspeed", "scaling_max_freq"];
        // committed[kind][core], as kHz strings.
        let mut committed = [
            vec![opps.min_khz().0.to_string(); 4],
            vec![opps.max_khz().0.to_string(); 4],
        ];
        let mut pending: Vec<(usize, usize, String)> = Vec::new();
        for (op, core, opp) in ops {
            if let Some(name) = names.get(usize::from(op)) {
                let khz = opps.get_clamped(opp).khz.0.to_string();
                sim.sysfs_write(&path(name, core), &khz).expect("writable");
                pending.push((usize::from(op), core, khz));
            } else {
                sim.step();
                for (kind, core, khz) in pending.drain(..) {
                    committed[kind][core] = khz;
                }
            }
            for (name, want) in names.iter().zip(&committed) {
                for (core, want) in want.iter().enumerate() {
                    let read = sim.sysfs_read(&path(name, core)).expect("exists");
                    prop_assert_eq!(&read, want, "{} cpu{}", name, core);
                }
            }
        }
    }

    /// Scheduler conservation: cycles executed equal cycles drained from
    /// thread queues; busy time never exceeds the allowance or the tick.
    #[test]
    fn scheduler_conserves_work(
        work in proptest::collection::vec(1u64..5_000_000, 1..12),
        online_mask in 1u8..16,
        allowance in 0u64..8_000,
        khz in 300_000u32..2_265_600,
    ) {
        let mut rt = WorkloadRt::new();
        let mut offered = 0u64;
        for (i, &w) in work.iter().enumerate() {
            let t = rt.spawn_thread();
            rt.push_work(t, w, i as u64);
            offered += w;
        }
        let online: Vec<usize> = (0..4).filter(|i| online_mask & (1 << i) != 0).collect();
        let khz_vec = vec![Khz(khz); 4];
        let mut o = TickOutcome::default();
        schedule_tick_into(
            &mut rt,
            &TickParams {
                now_us: 0,
                tick_us: 1_000,
                n_cores: 4,
                online: &online,
                khz: &khz_vec,
                global_allowance_us: allowance,
                rotation: 3, stall_us: &[], },
            &mut SchedScratch::default(),
            &mut o,
        );
        prop_assert!(o.executed_cycles <= offered);
        let remaining: u64 = (0..work.len()).map(|t| rt.pending_cycles(t)).sum();
        prop_assert_eq!(o.executed_cycles + remaining, offered, "work conserved");
        for &b in &o.busy_us {
            prop_assert!(b <= 1_000);
        }
        prop_assert!(o.used_runtime_us <= allowance + online.len() as u64); // rounding slack
    }

    /// A simulation over a random pinned configuration produces finite,
    /// bounded report quantities.
    #[test]
    fn random_pinned_sim_is_sane(
        n in 1usize..=4,
        opp in 0usize..14,
        util_pct in 1u32..=100,
        seed in 0u64..1_000,
    ) {
        use mobicore_sim::builtin::PinnedPolicy;
        use mobicore_sim::{SimConfig, Simulation};
        let profile = profiles::nexus5();
        let khz = profile.opps().get_clamped(opp).khz;
        let cfg = SimConfig::new(profile.clone())
            .with_duration_us(300_000)
            .with_seed(seed)
            .without_mpdecision();
        struct Duty {
            period_us: u64,
            busy_us: u64,
            threads: Vec<mobicore_sim::ThreadId>,
            n: usize,
            khz: Khz,
        }
        impl mobicore_sim::Workload for Duty {
            fn name(&self) -> &str {
                "duty"
            }
            fn on_start(&mut self, rt: &mut WorkloadRt) {
                for _ in 0..self.n {
                    self.threads.push(rt.spawn_thread());
                }
            }
            fn on_tick(&mut self, now_us: u64, _tick_us: u64, rt: &mut WorkloadRt) {
                if now_us.is_multiple_of(self.period_us) {
                    for &t in &self.threads {
                        rt.push_work(t, self.khz.cycles_in_us(self.busy_us).max(1), 0);
                    }
                }
            }
            fn report(&self, _n: u64, _rt: &WorkloadRt) -> mobicore_sim::WorkloadReport {
                mobicore_sim::WorkloadReport::named("duty")
            }
        }
        let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(n, khz))).unwrap();
        sim.add_workload(Box::new(Duty {
            period_us: 20_000,
            busy_us: 20_000 * u64::from(util_pct) / 100,
            threads: vec![],
            n,
            khz,
        }));
        let r = sim.run();
        prop_assert!(r.avg_power_mw.is_finite());
        prop_assert!(r.avg_power_mw >= profile.platform_base_mw() * 0.99);
        prop_assert!(r.avg_power_mw < 4_000.0);
        prop_assert!(r.avg_overall_util <= 1.0 + 1e-9);
        prop_assert!(r.avg_online_cores <= 4.0 + 1e-9);
        // time_in_state sums to total online time
        let tis: u64 = r.time_in_state_us.iter().sum();
        let online_us = (r.avg_online_cores * r.duration_us as f64).round() as u64;
        prop_assert!((tis as i64 - online_us as i64).unsigned_abs() <= 4_000);
    }
}
