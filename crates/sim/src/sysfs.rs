//! The sysfs vocabulary: which paths exist and what each one names.
//!
//! Everything the thesis tweaks on the real phone goes through sysfs
//! paths under `/sys/devices/system/cpu/...`; the simulator answers the
//! same paths so the tooling (and the adb-style shell of [`crate::adb`])
//! reads naturally. The tree stores no values: a [`PathTable`] maps each
//! path to its [`Attr`], and [`Simulation::sysfs_read`] formats the value
//! from simulator state at the moment of the read. Writes are queued and
//! applied at the next tick boundary, like real sysfs stores taking
//! effect asynchronously from the writer's point of view.
//!
//! [`Simulation::sysfs_read`]: crate::Simulation::sysfs_read

/// Every attribute file name, in [`Attr`] declaration order: the ten
/// per-core files under `cpu<i>/`, then the four global ones.
pub const NAMES: [&str; 14] = [
    "online",
    "scaling_cur_freq",
    "scaling_setspeed",
    "scaling_governor",
    "scaling_min_freq",
    "scaling_max_freq",
    "cpuinfo_min_freq",
    "cpuinfo_max_freq",
    "scaling_available_frequencies",
    "stats/time_in_state",
    "temp",
    "cpu.cfs_quota_us",
    "cpu.cfs_period_us",
    "enabled",
];

/// One attribute of the tree; per-core attributes carry the core index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attr {
    /// `cpu<i>/online`
    Online(usize),
    /// `cpu<i>/cpufreq/scaling_cur_freq`
    ScalingCurFreq(usize),
    /// `cpu<i>/cpufreq/scaling_setspeed`
    ScalingSetspeed(usize),
    /// `cpu<i>/cpufreq/scaling_governor`
    ScalingGovernor(usize),
    /// `cpu<i>/cpufreq/scaling_min_freq`
    ScalingMinFreq(usize),
    /// `cpu<i>/cpufreq/scaling_max_freq`
    ScalingMaxFreq(usize),
    /// `cpu<i>/cpufreq/cpuinfo_min_freq`
    CpuinfoMinFreq(usize),
    /// `cpu<i>/cpufreq/cpuinfo_max_freq`
    CpuinfoMaxFreq(usize),
    /// `cpu<i>/cpufreq/scaling_available_frequencies`
    ScalingAvailableFrequencies(usize),
    /// `cpu<i>/cpufreq/stats/time_in_state`
    TimeInState(usize),
    /// `/sys/class/thermal/thermal_zone0/temp` (millidegrees, like Linux)
    ThermalTemp,
    /// `/sys/fs/cgroup/cpu/cpu.cfs_quota_us`
    CfsQuotaUs,
    /// `/sys/fs/cgroup/cpu/cpu.cfs_period_us`
    CfsPeriodUs,
    /// `/sys/module/mpdecision/parameters/enabled`
    Mpdecision,
}

/// The per-core constructors, in [`NAMES`] order.
const PER_CORE: [fn(usize) -> Attr; 10] = [
    Attr::Online,
    Attr::ScalingCurFreq,
    Attr::ScalingSetspeed,
    Attr::ScalingGovernor,
    Attr::ScalingMinFreq,
    Attr::ScalingMaxFreq,
    Attr::CpuinfoMinFreq,
    Attr::CpuinfoMaxFreq,
    Attr::ScalingAvailableFrequencies,
    Attr::TimeInState,
];

/// The global attributes and their directories, in [`NAMES`] order.
const GLOBAL: [(&str, Attr); 4] = [
    ("/sys/class/thermal/thermal_zone0", Attr::ThermalTemp),
    ("/sys/fs/cgroup/cpu", Attr::CfsQuotaUs),
    ("/sys/fs/cgroup/cpu", Attr::CfsPeriodUs),
    ("/sys/module/mpdecision/parameters", Attr::Mpdecision),
];

impl Attr {
    /// Whether `echo` may write the attribute (the rest are read-only).
    pub fn writable(self) -> bool {
        matches!(
            self,
            Attr::Online(_)
                | Attr::ScalingSetspeed(_)
                | Attr::ScalingGovernor(_)
                | Attr::ScalingMinFreq(_)
                | Attr::ScalingMaxFreq(_)
                | Attr::CfsQuotaUs
                | Attr::Mpdecision
        )
    }
}

/// Every path of an `n_cores` device, formatted once.
///
/// [`crate::Simulation`] resolves each read and write against one of
/// these; a fleet of same-topology devices shares one table behind an
/// `Arc` ([`crate::Simulation::with_paths`]).
#[derive(Debug, Clone)]
pub struct PathTable {
    n_cores: usize,
    /// `(path, attribute)`, sorted by path.
    entries: Vec<(String, Attr)>,
}

impl PathTable {
    /// Formats the full path set for `n_cores` cores.
    pub fn new(n_cores: usize) -> Self {
        let mut entries = Vec::with_capacity(PER_CORE.len() * n_cores + GLOBAL.len());
        for core in 0..n_cores {
            for (name, attr) in NAMES.iter().zip(PER_CORE) {
                let dir = if *name == "online" { "" } else { "cpufreq/" };
                entries.push((
                    format!("/sys/devices/system/cpu/cpu{core}/{dir}{name}"),
                    attr(core),
                ));
            }
        }
        for (name, (dir, attr)) in NAMES[PER_CORE.len()..].iter().zip(GLOBAL) {
            entries.push((format!("{dir}/{name}"), attr));
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        PathTable { n_cores, entries }
    }

    /// Number of cores the table was built for.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// The attribute at `path`, if there is one.
    pub fn resolve(&self, path: &str) -> Option<Attr> {
        self.entries
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Paths under `prefix`, sorted (an `ls -R`-flavoured view).
    pub fn list<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .map(|(p, _)| p.as_str())
            .filter(move |p| p.starts_with(prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimConfig, SimError, Simulation};
    use mobicore_model::profiles;

    const SETSPEED0: &str = "/sys/devices/system/cpu/cpu0/cpufreq/scaling_setspeed";

    #[test]
    fn read_write_round_trip() {
        let mut sim = Simulation::without_policy(SimConfig::new(profiles::nexus5())).unwrap();
        assert_eq!(sim.sysfs_read(SETSPEED0).unwrap(), "300000");
        sim.sysfs_write(SETSPEED0, "960000").unwrap();
        // not visible until the next tick applies it
        assert_eq!(sim.sysfs_read(SETSPEED0).unwrap(), "300000");
        sim.step();
        assert_eq!(sim.sysfs_read(SETSPEED0).unwrap(), "960000");
    }

    #[test]
    fn read_only_rejected() {
        let table = PathTable::new(1);
        let read_only: Vec<_> = table
            .entries
            .iter()
            .filter(|(_, a)| !a.writable())
            .map(|(p, _)| p.rsplit('/').next().unwrap())
            .collect();
        assert_eq!(
            read_only,
            [
                "temp",
                "cpuinfo_max_freq",
                "cpuinfo_min_freq",
                "scaling_available_frequencies",
                "scaling_cur_freq",
                "time_in_state",
                "cpu.cfs_period_us"
            ]
        );
        let mut sim = Simulation::without_policy(SimConfig::new(profiles::nexus5())).unwrap();
        assert!(matches!(
            sim.sysfs_write("/sys/fs/cgroup/cpu/cpu.cfs_period_us", "1"),
            Err(SimError::ReadOnlyAttribute { .. })
        ));
    }

    #[test]
    fn unknown_path_rejected() {
        let mut sim = Simulation::without_policy(SimConfig::new(profiles::nexus5())).unwrap();
        assert!(matches!(
            sim.sysfs_read("/nope"),
            Err(SimError::NoSuchAttribute { .. })
        ));
        assert!(matches!(
            sim.sysfs_write("/nope", "1"),
            Err(SimError::NoSuchAttribute { .. })
        ));
    }

    #[test]
    fn refresh_bypasses_queue() {
        // State changes that do not go through a write are visible at
        // once: `stop mpdecision` needs no tick.
        let mut sim = Simulation::without_policy(SimConfig::new(profiles::nexus5())).unwrap();
        let path = "/sys/module/mpdecision/parameters/enabled";
        assert_eq!(sim.sysfs_read(path).unwrap(), "1");
        sim.adb("stop mpdecision").unwrap();
        assert_eq!(sim.sysfs_read(path).unwrap(), "0");
    }

    #[test]
    fn list_by_prefix_sorted() {
        let table = PathTable::new(2);
        assert_eq!(
            table.list("/sys/fs/").collect::<Vec<_>>(),
            [
                "/sys/fs/cgroup/cpu/cpu.cfs_period_us",
                "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
            ]
        );
        let all: Vec<_> = table.list("/").collect();
        assert_eq!(all.len(), 10 * 2 + 4);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn path_helpers() {
        let table = PathTable::new(4);
        assert_eq!(
            table.resolve("/sys/devices/system/cpu/cpu2/online"),
            Some(Attr::Online(2))
        );
        assert_eq!(
            table.resolve("/sys/devices/system/cpu/cpu0/cpufreq/stats/time_in_state"),
            Some(Attr::TimeInState(0))
        );
        assert_eq!(
            table.resolve("/sys/class/thermal/thermal_zone0/temp"),
            Some(Attr::ThermalTemp)
        );
    }

    #[test]
    fn path_table_matches_helpers() {
        // Every name is the file name of exactly n_cores (per-core) or one
        // (global) path.
        let table = PathTable::new(4);
        assert_eq!(table.n_cores(), 4);
        for (k, name) in NAMES.iter().enumerate() {
            let n = table
                .list("/")
                .filter(|p| p.ends_with(&format!("/{name}")))
                .count();
            assert_eq!(n, if k < PER_CORE.len() { 4 } else { 1 }, "{name}");
        }
    }

    #[test]
    fn path_table_classifies_writable_paths() {
        let table = PathTable::new(4);
        let cpu = "/sys/devices/system/cpu";
        for (path, attr) in [
            (format!("{cpu}/cpu3/online"), Attr::Online(3)),
            (
                format!("{cpu}/cpu0/cpufreq/scaling_setspeed"),
                Attr::ScalingSetspeed(0),
            ),
            (
                format!("{cpu}/cpu1/cpufreq/scaling_min_freq"),
                Attr::ScalingMinFreq(1),
            ),
            (
                format!("{cpu}/cpu2/cpufreq/scaling_max_freq"),
                Attr::ScalingMaxFreq(2),
            ),
            (
                format!("{cpu}/cpu1/cpufreq/scaling_governor"),
                Attr::ScalingGovernor(1),
            ),
        ] {
            assert_eq!(table.resolve(&path), Some(attr), "{path}");
            assert!(attr.writable());
        }
        assert_eq!(
            table.resolve("/sys/module/mpdecision/parameters/enabled"),
            Some(Attr::Mpdecision)
        );
        assert_eq!(
            table.resolve(&format!("{cpu}/cpu7/online")),
            None,
            "past table end"
        );
    }
}
