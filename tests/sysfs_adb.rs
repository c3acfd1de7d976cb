//! The sysfs tree and the adb-style shell, exercised through the whole
//! stack the way the thesis drives its phone.

use mobicore_model::{profiles, Quota};
use mobicore_sim::builtin::PinnedPolicy;
use mobicore_sim::{CpuPolicy, SimConfig, SimError, Simulation};
use mobicore_workloads::BusyLoop;

fn sim() -> Simulation {
    let profile = profiles::nexus5();
    let f = profile.opps().max_khz();
    let cfg = SimConfig::new(profile).with_duration_secs(5);
    let mut s = Simulation::new(cfg, Box::new(PinnedPolicy::new(4, f))).unwrap();
    s.add_workload(Box::new(BusyLoop::with_target_util(4, 0.5, f, 9)));
    s
}

#[test]
fn cpufreq_tree_is_complete() {
    let mut s = sim();
    for _ in 0..50 {
        s.step();
    }
    for i in 0..4 {
        let base = format!("/sys/devices/system/cpu/cpu{i}/cpufreq");
        let avail = s
            .adb(&format!("cat {base}/scaling_available_frequencies"))
            .unwrap();
        assert_eq!(avail.split_whitespace().count(), 14);
        assert_eq!(
            s.adb(&format!("cat {base}/cpuinfo_min_freq")).unwrap(),
            "300000"
        );
        assert_eq!(
            s.adb(&format!("cat {base}/cpuinfo_max_freq")).unwrap(),
            "2265600"
        );
        let cur: u32 = s
            .adb(&format!("cat {base}/scaling_cur_freq"))
            .unwrap()
            .parse()
            .unwrap();
        assert!((300_000..=2_265_600).contains(&cur));
    }
}

#[test]
fn echo_offline_takes_a_core_out() {
    let mut s = sim();
    s.adb("stop mpdecision").unwrap();
    s.adb("echo 0 > /sys/devices/system/cpu/cpu3/online")
        .unwrap();
    for _ in 0..20 {
        s.step();
    }
    assert_eq!(s.online_count(), 3);
    assert_eq!(
        s.adb("cat /sys/devices/system/cpu/cpu3/online").unwrap(),
        "0"
    );
    // NOTE: the pinned policy wants 4 cores and will bring it back — that
    // is exactly what a governor fighting a manual echo does on a real
    // phone. Give it time:
    for _ in 0..200 {
        s.step();
    }
    assert_eq!(s.online_count(), 4, "policy re-onlines the core");
}

#[test]
fn core0_offline_echo_is_rejected_by_kernel() {
    let mut s = sim();
    s.adb("stop mpdecision").unwrap();
    s.adb("echo 0 > /sys/devices/system/cpu/cpu0/online")
        .unwrap();
    for _ in 0..20 {
        s.step();
    }
    assert_eq!(s.online_count(), 4, "core 0 cannot be off-lined");
    assert!(s.report().rejected_offline_requests > 0);
}

#[test]
fn thermal_zone_reads_millidegrees() {
    let mut s = sim();
    for _ in 0..3_000 {
        s.step();
    }
    let milli: i64 = s
        .adb("cat /sys/class/thermal/thermal_zone0/temp")
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        milli > 25_000,
        "warmer than ambient after 3 s of load: {milli}"
    );
    assert!(milli < 100_000);
}

#[test]
fn cfs_quota_write_throttles() {
    // Use a policy-free simulation: an active policy re-installs its own
    // quota every sample (as a real governor would), overriding the echo.
    let profile = profiles::nexus5();
    let f = profile.opps().max_khz();
    let cfg = SimConfig::new(profile).with_duration_secs(5);
    let mut s = Simulation::without_policy(cfg).unwrap();
    s.add_workload(Box::new(BusyLoop::with_target_util(4, 1.0, f, 9)));
    // 100 ms period × 4 cores: full is 400 000; write half.
    s.adb("echo 200000 > /sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .unwrap();
    for _ in 0..2_000 {
        s.step();
    }
    let r = s.report();
    assert!(
        (r.avg_quota - 0.5).abs() < 0.05,
        "quota installed: {}",
        r.avg_quota
    );
    assert!(r.bw_throttled_us > 0, "a saturated load gets throttled");
    // Utilization is capped by the quota (4 threads want 100 % each).
    assert!(
        r.avg_overall_util < 0.6,
        "util capped by quota: {}",
        r.avg_overall_util
    );
    assert_eq!(
        s.adb("cat /sys/fs/cgroup/cpu/cpu.cfs_quota_us").unwrap(),
        "200000"
    );
    // `-1` is the cgroup's "no limit", as on Linux.
    s.adb("echo -1 > /sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .unwrap();
    s.step();
    assert_eq!(s.quota(), Quota::FULL);
    assert_eq!(s.invalid_sysfs_writes, 0);
    // ... and reads back as `-1`, not as an explicit full quota.
    let quota_file = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us";
    assert_eq!(s.sysfs_read(quota_file).unwrap(), "-1");
    // Any later quota change ends the "no limit" state: a write ...
    s.adb("echo 300000 > /sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .unwrap();
    s.step();
    assert_eq!(s.sysfs_read(quota_file).unwrap(), "300000");
    // ... or a policy's `SetQuota`, even one that installs full: the
    // pinned policy re-installs full quota at every sample.
    let policy = PinnedPolicy::new(4, f);
    let sampling_us = policy.sampling_period_us();
    let mut pinned = Simulation::new(
        SimConfig::new(profiles::nexus5()).with_duration_secs(1),
        Box::new(policy),
    )
    .unwrap();
    pinned
        .adb("echo -1 > /sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .unwrap();
    pinned.step();
    assert_eq!(pinned.sysfs_read(quota_file).unwrap(), "-1");
    let sampled = pinned.now_us() + sampling_us;
    while pinned.now_us() <= sampled {
        pinned.step();
    }
    assert_eq!(pinned.sysfs_read(quota_file).unwrap(), "400000");
    // Linux rejects a quota under 1000 µs with EINVAL: counted, and the
    // previous quota stays.
    s.adb("echo 300000 > /sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .unwrap();
    s.adb("echo 0 > /sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .unwrap();
    s.step();
    assert_eq!(s.invalid_sysfs_writes, 1);
    assert_eq!(s.sysfs_read(quota_file).unwrap(), "300000");
    // A quota Linux takes but under the model's 20 % floor (80 000 µs
    // here) cannot be represented: counted, not clamped, not applied.
    s.adb("echo 1000 > /sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .unwrap();
    s.adb("echo 79999 > /sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .unwrap();
    s.step();
    assert_eq!(s.invalid_sysfs_writes, 3);
    assert_eq!(s.sysfs_read(quota_file).unwrap(), "300000");
    // The floor itself is representable.
    s.adb("echo 80000 > /sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        .unwrap();
    s.step();
    assert_eq!(s.invalid_sysfs_writes, 3);
    assert_eq!(s.sysfs_read(quota_file).unwrap(), "80000");
}

#[test]
fn ls_lists_the_tree() {
    let s = sim();
    let listing = {
        let mut s = s;
        s.adb("ls /sys/devices/system/cpu/").unwrap()
    };
    assert!(listing.contains("cpu0/online"));
    assert!(listing.contains("cpu3/cpufreq/scaling_cur_freq"));
    // The whole tree: 10 files per core plus 4 global ones, sorted.
    let mut want: Vec<String> = (0..4)
        .flat_map(|i| {
            [
                "online",
                "cpufreq/scaling_cur_freq",
                "cpufreq/scaling_setspeed",
                "cpufreq/scaling_governor",
                "cpufreq/scaling_min_freq",
                "cpufreq/scaling_max_freq",
                "cpufreq/cpuinfo_min_freq",
                "cpufreq/cpuinfo_max_freq",
                "cpufreq/scaling_available_frequencies",
                "cpufreq/stats/time_in_state",
            ]
            .map(|f| format!("/sys/devices/system/cpu/cpu{i}/{f}"))
        })
        .collect();
    want.extend(
        [
            "/sys/class/thermal/thermal_zone0/temp",
            "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
            "/sys/fs/cgroup/cpu/cpu.cfs_period_us",
            "/sys/module/mpdecision/parameters/enabled",
        ]
        .map(String::from),
    );
    want.sort();
    assert_eq!(want.len(), 10 * 4 + 4);
    assert_eq!(sim().adb("ls /").unwrap(), want.join("\n"));
}

#[test]
fn bad_commands_and_paths_error_cleanly() {
    let mut s = sim();
    assert!(matches!(
        s.adb("rm -rf /"),
        Err(SimError::BadShellCommand { .. })
    ));
    assert!(matches!(
        s.adb("cat /sys/not/a/path"),
        Err(SimError::NoSuchAttribute { .. })
    ));
    assert!(matches!(
        s.adb("echo 1 > /sys/devices/system/cpu/cpu0/cpufreq/cpuinfo_max_freq"),
        Err(SimError::ReadOnlyAttribute { .. })
    ));
    // Unparsable values are dropped like a kernel EINVAL, counted.
    s.adb("echo banana > /sys/devices/system/cpu/cpu1/online")
        .unwrap();
    for _ in 0..5 {
        s.step();
    }
    assert_eq!(s.invalid_sysfs_writes, 1);
    assert_eq!(s.online_count(), 4);
}

#[test]
fn scaling_limits_clamp_the_governor() {
    // A performance governor wants f_max; a userspace scaling_max_freq
    // write must clamp it, exactly as cpufreq policy limits do.
    use mobicore_governors::{GovernorPolicy, Performance};
    let profile = profiles::nexus5();
    let cfg = SimConfig::new(profile.clone()).with_duration_secs(2);
    let mut s = Simulation::new(
        cfg,
        Box::new(GovernorPolicy::dvfs_only(
            Box::new(Performance::new()),
            profile.opps().clone(),
        )),
    )
    .unwrap();
    s.add_workload(Box::new(BusyLoop::with_target_util(
        4,
        0.8,
        profile.opps().max_khz(),
        9,
    )));
    s.adb("echo 960000 > /sys/devices/system/cpu/cpu0/cpufreq/scaling_max_freq")
        .unwrap();
    for _ in 0..200 {
        s.step();
    }
    let cur: u32 = s
        .adb("cat /sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(cur, 960_000, "clamped despite the performance governor");
    // Other cores are unaffected.
    let cur1: u32 = s
        .adb("cat /sys/devices/system/cpu/cpu1/cpufreq/scaling_cur_freq")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(cur1, 2_265_600);
    // Raising scaling_min_freq above the governor's pick also clamps.
    s.adb("echo 1728000 > /sys/devices/system/cpu/cpu0/cpufreq/scaling_min_freq")
        .unwrap();
    for _ in 0..200 {
        s.step();
    }
    let cur: u32 = s
        .adb("cat /sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq")
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(cur, 1_728_000, "min limit dominates a lower max limit");
}

#[test]
fn userspace_governor_via_setspeed() {
    let profile = profiles::nexus5();
    let f = profile.opps().min_khz();
    let cfg = SimConfig::new(profile).with_duration_secs(2);
    // No policy: cores stay where sysfs puts them.
    let mut s = Simulation::without_policy(cfg).unwrap();
    s.add_workload(Box::new(BusyLoop::with_target_util(1, 0.9, f, 2)));
    s.adb("echo 960000 > /sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed")
        .unwrap();
    for _ in 0..30 {
        s.step();
    }
    assert_eq!(
        s.adb("cat /sys/devices/system/cpu/cpu0/cpufreq/scaling_cur_freq")
            .unwrap(),
        "960000"
    );
}

#[test]
fn non_opp_writes_read_back_snapped_to_an_opp() {
    let profile = profiles::nexus5();
    let cfg = SimConfig::new(profile).with_duration_secs(1);
    let mut s = Simulation::without_policy(cfg).unwrap();
    let base = "/sys/devices/system/cpu/cpu0/cpufreq";
    s.adb(&format!("echo 1000000 > {base}/scaling_setspeed"))
        .unwrap();
    s.adb(&format!("echo 1000000 > {base}/scaling_min_freq"))
        .unwrap();
    s.adb(&format!("echo 1000000 > {base}/scaling_max_freq"))
        .unwrap();
    s.step();
    // setspeed and min round up to the next OPP, max rounds down.
    for (file, khz) in [
        ("scaling_setspeed", "1036800"),
        ("scaling_min_freq", "1036800"),
        ("scaling_max_freq", "960000"),
    ] {
        assert_eq!(s.adb(&format!("cat {base}/{file}")).unwrap(), khz, "{file}");
    }
    assert_eq!(s.invalid_sysfs_writes, 0);
}

#[test]
fn unparsable_write_keeps_the_previous_value() {
    let profile = profiles::nexus5();
    let cfg = SimConfig::new(profile).with_duration_secs(1);
    let mut s = Simulation::without_policy(cfg).unwrap();
    let setspeed = "/sys/devices/system/cpu/cpu2/cpufreq/scaling_setspeed";
    s.adb(&format!("echo 960000 > {setspeed}")).unwrap();
    s.step();
    s.adb(&format!("echo banana > {setspeed}")).unwrap();
    s.step();
    assert_eq!(s.adb(&format!("cat {setspeed}")).unwrap(), "960000");
    assert_eq!(s.invalid_sysfs_writes, 1);
}

#[test]
fn scaling_governor_names_the_driving_policy() {
    let mut s = sim();
    let pinned = PinnedPolicy::new(4, profiles::nexus5().opps().max_khz());
    let governor = "/sys/devices/system/cpu/cpu1/cpufreq/scaling_governor";
    assert_eq!(s.adb(&format!("cat {governor}")).unwrap(), pinned.name());
    // Accepted and ignored: the policy keeps driving the core.
    s.adb(&format!("echo userspace > {governor}")).unwrap();
    s.step();
    assert_eq!(s.adb(&format!("cat {governor}")).unwrap(), pinned.name());
    assert_eq!(s.invalid_sysfs_writes, 0);
}
