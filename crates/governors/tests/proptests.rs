//! Property-based tests: every governor is total over arbitrary
//! snapshots and always answers with a frequency the hardware has.

use mobicore_governors::dvfs::{
    Conservative, DvfsGovernor, Interactive, Ondemand, Performance, Powersave, Schedutil,
};
use mobicore_governors::hotplug::{DefaultHotplug, HotplugPolicy, NoHotplug};
use mobicore_model::{profiles, Khz, Quota, Utilization};
use mobicore_sim::{CoreSnapshot, PolicySnapshot};
use proptest::prelude::*;

fn snapshot_strategy() -> impl Strategy<Value = PolicySnapshot> {
    (
        proptest::collection::vec((any::<bool>(), 0.0f64..1.0, 0usize..14), 1..8),
        0u64..10_000_000,
    )
        .prop_map(|(cores_in, now_us)| {
            let table = profiles::nexus5();
            let opps = table.opps();
            let cores: Vec<CoreSnapshot> = cores_in
                .iter()
                .map(|&(online, util, opp)| CoreSnapshot {
                    online,
                    cur_khz: opps.get_clamped(opp).khz,
                    target_khz: opps.get_clamped(opp).khz,
                    util: Utilization::new(if online { util } else { 0.0 }),
                    busy_us: 0,
                })
                .collect();
            let overall =
                cores.iter().map(|c| c.util.as_fraction()).sum::<f64>() / cores.len() as f64;
            PolicySnapshot {
                now_us,
                window_us: 20_000,
                overall_util: Utilization::new(overall),
                cores,
                quota: Quota::FULL,
                mpdecision_enabled: false,
                max_runnable_threads: 8,
                temp_c: 30.0,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every stock governor returns an in-table frequency for any
    /// snapshot sequence.
    #[test]
    fn governors_answer_in_table(snaps in proptest::collection::vec(snapshot_strategy(), 1..10)) {
        let opps = profiles::nexus5().opps().clone();
        let mut govs: Vec<Box<dyn DvfsGovernor>> = vec![
            Box::new(Ondemand::new()),
            Box::new(Interactive::new()),
            Box::new(Conservative::new()),
            Box::new(Powersave::new()),
            Box::new(Performance::new()),
            Box::new(Schedutil::new()),
        ];
        for snap in &snaps {
            for g in &mut govs {
                let f = g.target(snap, &opps);
                prop_assert!(
                    opps.iter().any(|o| o.khz == f),
                    "{} answered off-table {f}",
                    g.name()
                );
            }
        }
    }

    /// Monotone stimulus: pinning the load at 100 % never makes ondemand
    /// or conservative pick a *lower* frequency than the previous sample.
    #[test]
    fn sustained_load_never_clocks_down(steps in 1usize..30) {
        let opps = profiles::nexus5().opps().clone();
        let full = PolicySnapshot {
            now_us: 0,
            window_us: 20_000,
            cores: (0..4)
                .map(|_| CoreSnapshot {
                    online: true,
                    cur_khz: opps.min_khz(),
                    target_khz: opps.min_khz(),
                    util: Utilization::FULL,
                    busy_us: 20_000,
                })
                .collect(),
            overall_util: Utilization::FULL,
            quota: Quota::FULL,
            mpdecision_enabled: false,
            max_runnable_threads: 4,
            temp_c: 30.0,
        };
        let mut od = Ondemand::new();
        let mut cons = Conservative::new();
        let mut prev_od = Khz(0);
        let mut prev_cons = Khz(0);
        for _ in 0..steps {
            let f_od = od.target(&full, &opps);
            let f_cons = cons.target(&full, &opps);
            prop_assert!(f_od >= prev_od);
            prop_assert!(f_cons >= prev_cons);
            prev_od = f_od;
            prev_cons = f_cons;
        }
    }

    /// The hotplug policy's target is always within [1, n_cores], for any
    /// snapshot sequence.
    #[test]
    fn hotplug_target_in_range(snaps in proptest::collection::vec(snapshot_strategy(), 1..15)) {
        let mut hp = DefaultHotplug::new();
        let mut none = NoHotplug::new();
        for snap in &snaps {
            let t = hp.target_online(snap);
            prop_assert!((1..=snap.cores.len()).contains(&t), "{t} of {}", snap.cores.len());
            prop_assert_eq!(none.target_online(snap), snap.cores.len());
        }
    }

    /// Hotplug changes by at most one core per decision (the "abrupt"
    /// stock policy still moves stepwise) — on a fixed 4-core device.
    #[test]
    fn hotplug_steps_by_one(
        loads in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 4), 2..15)
    ) {
        let opps = profiles::nexus5().opps().clone();
        let mut hp = DefaultHotplug::new();
        let mut prev: Option<usize> = None;
        let mut now = 0u64;
        for utils in &loads {
            let snap = PolicySnapshot {
                now_us: now,
                window_us: 20_000,
                cores: utils
                    .iter()
                    .map(|&u| CoreSnapshot {
                        online: true,
                        cur_khz: opps.min_khz(),
                        target_khz: opps.min_khz(),
                        util: Utilization::new(u),
                        busy_us: 0,
                    })
                    .collect(),
                overall_util: Utilization::new(utils.iter().sum::<f64>() / 4.0),
                quota: Quota::FULL,
                mpdecision_enabled: false,
                max_runnable_threads: 4,
                temp_c: 30.0,
            };
            now += 200_000; // past the hold-off
            let t = hp.target_online(&snap);
            if let Some(p) = prev {
                prop_assert!(t.abs_diff(p) <= 1, "jumped {p} → {t}");
            }
            prev = Some(t);
        }
    }
}
