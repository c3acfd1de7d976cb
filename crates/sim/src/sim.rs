//! The simulation driver: wires cores, scheduler, bandwidth, thermal,
//! meter, sysfs and the policy into a discrete-time loop.

use crate::adb::{self, AdbCommand};
use crate::bandwidth::BandwidthController;
use crate::builtin::NoopPolicy;
use crate::config::{SimConfig, SimEngine, TraceLevel};
use crate::cores::CpuSet;
use crate::error::SimError;
use crate::meter::PowerMeter;
use crate::policy::{Command, CoreSnapshot, CpuControl, CpuPolicy, PolicySnapshot};
use crate::report::SimReport;
use crate::sched::{schedule_tick_into, SchedScratch, TickOutcome, TickParams};
use crate::sysfs::{Attr, PathTable};
use crate::thermal::ThermalModel;
use crate::trace::{Trace, TraceSample};
use crate::workload::{Wake, Workload, WorkloadRt};
use mobicore_model::{ClusterPowerCache, CoreActivity, Khz, PowerBreakdown, Quota, Utilization};
use mobicore_telemetry::{CounterId, EventData, GaugeId, HistogramId, RunManifest, Telemetry};
use std::sync::Arc;

/// The smallest `cpu.cfs_quota_us` Linux accepts, µs.
const MIN_CFS_QUOTA_US: u64 = 1_000;

/// Buffers the tick loop reuses across iterations so the steady state
/// performs no heap allocation (docs/performance.md; asserted by
/// `tests/alloc_free.rs`).
#[derive(Debug, Default)]
struct TickScratch {
    /// DVFS stall time per core this tick (empty when no core stalls).
    stall_us: Vec<u64>,
    /// Power-model input.
    acts: Vec<CoreActivity>,
    /// Power-model output.
    breakdown: PowerBreakdown,
    /// Memoized cluster `powf` factor.
    power_cache: ClusterPowerCache,
    /// Scheduler assignment buffers.
    sched: SchedScratch,
    /// Scheduler outcome (busy vector reused).
    outcome: TickOutcome,
    /// Per-core window busy times drained at each sample.
    busy_window: Vec<u64>,
    /// Policy commands drained from the control buffer.
    cmds: Vec<Command>,
    /// The activity vector of the last power-model evaluation, memo key
    /// for `power_memo`.
    memo_acts: Vec<CoreActivity>,
    /// Memoized per-tick energy increments and total power of the last
    /// power-model evaluation, `(base_add, cluster_add, core_add,
    /// power_mw)`. The power model is a pure function of the activity
    /// vector, so when a tick's (or a quiet burst's) activities equal
    /// `memo_acts` these are bitwise the values it would recompute.
    power_memo: Option<(f64, f64, f64, f64)>,
}

/// One simulated device run.
///
/// ```
/// use mobicore_sim::{SimConfig, Simulation, builtin::PinnedPolicy};
/// use mobicore_model::{profiles, Khz};
///
/// let cfg = SimConfig::new(profiles::nexus5()).with_duration_us(500_000);
/// let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(1, Khz(960_000))))?;
/// let report = sim.run();
/// assert!(report.avg_power_mw > 0.0);
/// # Ok::<(), mobicore_sim::SimError>(())
/// ```
///
/// Every run records itself (docs/observability.md): telemetry is on by
/// default, the event stream exports as JSONL, and [`Simulation::manifest`]
/// summarizes the run for `mobicore-inspect`:
///
/// ```
/// use mobicore_sim::{SimConfig, Simulation, builtin::PinnedPolicy};
/// use mobicore_model::{profiles, Khz};
///
/// let cfg = SimConfig::new(profiles::nexus5()).with_duration_us(500_000);
/// let mut sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(2, Khz(1_190_400))))?;
/// sim.run();
///
/// assert!(sim.telemetry().is_enabled());
/// let manifest = sim.manifest("doctest");
/// assert_eq!(manifest.profile, "Nexus 5");
/// assert!(manifest.metrics["sim.ticks"] > 0.0);
/// let events = sim.events_jsonl(); // one JSON object per line
/// assert!(events.lines().all(|l| l.contains("\"kind\"")));
/// # Ok::<(), mobicore_sim::SimError>(())
/// ```
pub struct Simulation {
    cfg: SimConfig,
    now_us: u64,
    cpus: CpuSet,
    bw: BandwidthController,
    thermal: ThermalModel,
    meter: PowerMeter,
    /// Sysfs writes queued since the last tick, applied in order at the
    /// top of the next one.
    sysfs_writes: Vec<(Attr, String)>,
    trace: Trace,
    rt: WorkloadRt,
    workloads: Vec<Box<dyn Workload>>,
    policy: Box<dyn CpuPolicy>,
    mpdecision_enabled: bool,
    started: bool,
    next_sample_us: u64,
    last_sample_us: u64,
    next_trace_us: u64,
    executed_cycles: u64,
    window_max_runnable: usize,
    /// Component energy attribution, mW·µs.
    base_energy: f64,
    cluster_energy: f64,
    core_energy: f64,
    /// Sysfs writes that parsed to nonsense (kernel would return EINVAL).
    pub invalid_sysfs_writes: u64,
    /// The quota was lifted with `echo -1 > cpu.cfs_quota_us` and not
    /// changed since, so the file reads `-1`.
    quota_unlimited: bool,
    telemetry: Telemetry,
    /// The tick loop's metric slots in `telemetry`, resolved once.
    metric_ids: MetricIds,
    /// Thermal OPP cap after the previous tick, for throttle/clear edges.
    last_thermal_cap: usize,
    /// Whether the bandwidth pool denied runtime in the previous tick,
    /// for the edge-triggered `bw-throttle` event.
    bw_denied_last_tick: bool,
    /// The sysfs path table. Shared: a fleet of same-topology devices
    /// holds one table behind the `Arc` ([`Simulation::with_paths`]).
    paths: Arc<PathTable>,
    /// Reused per-tick buffers.
    scratch: TickScratch,
    /// Reused policy-sample observation.
    snap: PolicySnapshot,
    /// Reused policy command/note buffer.
    ctl: CpuControl,
    /// Most-recent `ceil_index` lookup (policies request the same target
    /// frequency for long stretches).
    ceil_cache: Option<(Khz, usize)>,
}

/// The slots of the metrics the tick loop, the sample path and the
/// quiet burst update, resolved once when a [`Simulation`] is built.
#[derive(Debug, Clone, Copy)]
struct MetricIds {
    ticks: CounterId,
    samples: CounterId,
    commands: CounterId,
    power_mw: HistogramId,
    overall_util_pct: HistogramId,
    quota_pct: HistogramId,
    temp_c: GaugeId,
}

impl MetricIds {
    fn resolve(t: &mut Telemetry) -> Self {
        MetricIds {
            ticks: t.counter_id("sim.ticks"),
            samples: t.counter_id("sim.samples"),
            commands: t.counter_id("sim.commands"),
            power_mw: t.histogram_id("power_mw"),
            overall_util_pct: t.histogram_id("overall_util_pct"),
            quota_pct: t.histogram_id("quota_pct"),
            temp_c: t.gauge_id("temp_c"),
        }
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("device", &self.cfg.profile.name())
            .field("policy", &self.policy.name())
            .field("now_us", &self.now_us)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Builds a simulation of `cfg.profile` driven by `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfig`] when the configuration fails
    /// [`SimConfig::validate`].
    pub fn new(cfg: SimConfig, policy: Box<dyn CpuPolicy>) -> Result<Self, SimError> {
        let paths = Arc::new(PathTable::new(cfg.profile.n_cores()));
        Self::with_paths(cfg, policy, paths)
    }

    /// Like [`Simulation::new`], but sharing a pre-built path table.
    ///
    /// [`crate::fleet::FleetSim`] builds thousands of same-topology
    /// devices; formatting the 10·n_cores + 4 sysfs paths once per
    /// topology instead of once per device keeps device construction
    /// free of string work (docs/performance.md).
    ///
    /// # Errors
    ///
    /// [`SimError::BadConfig`] when the config fails
    /// [`SimConfig::validate`] or `paths` was built for a different
    /// core count than `cfg.profile` has.
    pub fn with_paths(
        cfg: SimConfig,
        policy: Box<dyn CpuPolicy>,
        path_table: Arc<PathTable>,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if path_table.n_cores() != cfg.profile.n_cores() {
            return Err(SimError::BadConfig {
                reason: format!(
                    "path table built for {} cores, profile has {}",
                    path_table.n_cores(),
                    cfg.profile.n_cores()
                ),
            });
        }
        let profile = &cfg.profile;
        let cpus = CpuSet::new(profile);
        let bw = BandwidthController::new(cfg.bandwidth_period_us, profile.n_cores());
        let thermal = ThermalModel::new(
            *profile.thermal(),
            profile.opps().max_index(),
            cfg.thermal_poll_us,
        );
        let mut meter = PowerMeter::new(cfg.trace_period_us);
        meter.reserve_for_duration(cfg.duration_us);
        let sampling = policy.sampling_period_us().max(cfg.tick_us);
        let mut telemetry = if cfg.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let metric_ids = MetricIds::resolve(&mut telemetry);
        let last_thermal_cap = cfg.profile.opps().max_index();
        Ok(Simulation {
            mpdecision_enabled: cfg.mpdecision_enabled,
            cfg,
            now_us: 0,
            cpus,
            bw,
            thermal,
            meter,
            sysfs_writes: Vec::new(),
            trace: Trace::new(),
            rt: WorkloadRt::new(),
            workloads: Vec::new(),
            policy,
            started: false,
            next_sample_us: sampling,
            last_sample_us: 0,
            next_trace_us: 0,
            executed_cycles: 0,
            window_max_runnable: 0,
            base_energy: 0.0,
            cluster_energy: 0.0,
            core_energy: 0.0,
            invalid_sysfs_writes: 0,
            quota_unlimited: false,
            telemetry,
            metric_ids,
            last_thermal_cap,
            bw_denied_last_tick: false,
            paths: path_table,
            scratch: TickScratch::default(),
            snap: PolicySnapshot {
                now_us: 0,
                window_us: 0,
                cores: Vec::new(),
                overall_util: Utilization::IDLE,
                quota: Quota::FULL,
                mpdecision_enabled: false,
                max_runnable_threads: 0,
                temp_c: 0.0,
            },
            ctl: CpuControl::new(),
            ceil_cache: None,
        })
    }

    /// A simulation with no policy at all (cores stay at boot state).
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::new`].
    pub fn without_policy(cfg: SimConfig) -> Result<Self, SimError> {
        Self::new(cfg, Box::new(NoopPolicy::new()))
    }

    /// Adds a workload. Must be called before the first [`Simulation::step`].
    pub fn add_workload(&mut self, w: Box<dyn Workload>) -> &mut Self {
        assert!(
            !self.started,
            "workloads must be added before the run starts"
        );
        self.workloads.push(w);
        self
    }

    /// Current simulation time, µs.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// The device being simulated.
    pub fn profile(&self) -> &mobicore_model::DeviceProfile {
        &self.cfg.profile
    }

    /// The configuration the run was built from.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Number of online cores right now.
    pub fn online_count(&self) -> usize {
        self.cpus.online_count()
    }

    /// Package temperature right now, °C.
    pub fn temp_c(&self) -> f64 {
        self.thermal.temp_c()
    }

    /// Current bandwidth quota.
    pub fn quota(&self) -> Quota {
        self.bw.quota()
    }

    /// Whether `mpdecision` currently vetoes off-lining.
    pub fn mpdecision_enabled(&self) -> bool {
        self.mpdecision_enabled
    }

    /// Direct sysfs read (like `adb shell cat`): the value is formatted
    /// from simulator state at the moment of the read.
    ///
    /// # Errors
    ///
    /// [`SimError::NoSuchAttribute`] for unknown paths.
    pub fn sysfs_read(&self, path: &str) -> Result<String, SimError> {
        let attr = self
            .paths
            .resolve(path)
            .ok_or_else(|| SimError::NoSuchAttribute { path: path.into() })?;
        let opps = self.cfg.profile.opps();
        let khz = |idx: usize| opps.get_clamped(idx).khz.0.to_string();
        let flag = |on: bool| if on { "1" } else { "0" }.to_string();
        Ok(match attr {
            Attr::Online(i) => flag(self.cpus.core(i).online),
            Attr::ScalingCurFreq(i) => self.cpus.effective_khz(&self.cfg.profile, i).0.to_string(),
            Attr::ScalingSetspeed(i) => khz(self.cpus.core(i).target_opp),
            Attr::ScalingGovernor(_) => self.policy.name().to_string(),
            Attr::ScalingMinFreq(i) => khz(self.cpus.core(i).limit_min_opp),
            Attr::ScalingMaxFreq(i) => khz(self.cpus.core(i).limit_max_opp),
            Attr::CpuinfoMinFreq(_) => opps.min_khz().0.to_string(),
            Attr::CpuinfoMaxFreq(_) => opps.max_khz().0.to_string(),
            Attr::ScalingAvailableFrequencies(_) => opps
                .iter()
                .map(|o| o.khz.0.to_string())
                .collect::<Vec<_>>()
                .join(" "),
            // The kernel's format: "<khz> <10ms units>" per OPP.
            Attr::TimeInState(i) => self
                .cpus
                .core(i)
                .time_in_state_us
                .iter()
                .enumerate()
                .map(|(idx, &us)| format!("{} {}\n", khz(idx), us / 10_000))
                .collect(),
            Attr::ThermalTemp => format!("{}", (self.thermal.temp_c() * 1_000.0).round()),
            Attr::CfsQuotaUs if self.quota_unlimited => "-1".to_string(),
            Attr::CfsQuotaUs => self.bw.cfs_quota_us().to_string(),
            Attr::CfsPeriodUs => self.cfg.bandwidth_period_us.to_string(),
            Attr::Mpdecision => flag(self.mpdecision_enabled),
        })
    }

    /// Direct sysfs write (takes effect next tick).
    ///
    /// # Errors
    ///
    /// [`SimError::NoSuchAttribute`] for unknown paths,
    /// [`SimError::ReadOnlyAttribute`] for read-only ones.
    pub fn sysfs_write(&mut self, path: &str, value: &str) -> Result<(), SimError> {
        let attr = self
            .paths
            .resolve(path)
            .ok_or_else(|| SimError::NoSuchAttribute { path: path.into() })?;
        if !attr.writable() {
            return Err(SimError::ReadOnlyAttribute { path: path.into() });
        }
        self.sysfs_writes.push((attr, value.to_string()));
        Ok(())
    }

    /// Executes an `adb shell`-style command line.
    ///
    /// # Errors
    ///
    /// [`SimError::BadShellCommand`] for unparsable lines plus any sysfs
    /// error the command runs into.
    pub fn adb(&mut self, line: &str) -> Result<String, SimError> {
        match adb::parse(line)? {
            AdbCommand::Cat { path } => self.sysfs_read(&path),
            AdbCommand::Echo { value, path } => {
                self.sysfs_write(&path, &value)?;
                Ok(String::new())
            }
            AdbCommand::Ls { prefix } => {
                Ok(self.paths.list(&prefix).collect::<Vec<_>>().join("\n"))
            }
            AdbCommand::StopMpdecision => {
                self.mpdecision_enabled = false;
                Ok(String::new())
            }
            AdbCommand::StartMpdecision => {
                self.mpdecision_enabled = true;
                Ok(String::new())
            }
        }
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for w in &mut self.workloads {
            w.on_start(&mut self.rt);
        }
    }

    /// Requests `idx` on `core`, emitting a `freq-change` event when the
    /// (OPP-snapped) target actually moves.
    fn request_opp_traced(&mut self, core: usize, idx: usize, requested: Khz) {
        let opps = self.cfg.profile.opps();
        let old = self.cpus.core(core).target_opp;
        if idx != old {
            self.telemetry.emit(
                self.now_us,
                EventData::FreqChange {
                    core,
                    from_khz: opps.get_clamped(old).khz.0,
                    to_khz: opps.get_clamped(idx).khz.0,
                    requested_khz: requested.0,
                },
            );
        }
        self.cpus
            .request_opp(core, idx, self.now_us, self.cfg.profile.dvfs_latency_us());
    }

    /// [`OppTable::ceil_index`](mobicore_model::OppTable::ceil_index) with
    /// a most-recently-used memo: policies hold one target frequency for
    /// many consecutive samples, so the binary search almost always
    /// repeats the previous lookup.
    fn ceil_index_cached(&mut self, khz: Khz) -> usize {
        match self.ceil_cache {
            Some((cached_khz, idx)) if cached_khz == khz => idx,
            _ => {
                let idx = self.cfg.profile.opps().ceil_index(khz);
                self.ceil_cache = Some((khz, idx));
                idx
            }
        }
    }

    fn apply_command(&mut self, cmd: Command) {
        match cmd {
            Command::SetFreq { core, khz } => {
                if core < self.cpus.len() {
                    let idx = self.ceil_index_cached(khz);
                    self.request_opp_traced(core, idx, khz);
                }
            }
            Command::SetFreqAll { khz } => {
                let idx = self.ceil_index_cached(khz);
                for i in 0..self.cpus.len() {
                    self.request_opp_traced(i, idx, khz);
                }
            }
            Command::SetOnline { core, online } => {
                if core >= self.cpus.len() {
                    return;
                }
                if !online && (core == 0 || self.mpdecision_enabled) {
                    self.cpus.rejected_offline_requests += 1;
                    self.telemetry.emit(
                        self.now_us,
                        EventData::HotplugVetoed {
                            core,
                            // Core 0 is unpluggable regardless; anything
                            // else got here because mpdecision is running.
                            mpdecision: core != 0,
                        },
                    );
                    return;
                }
                if online != self.cpus.core(core).online {
                    self.telemetry.emit(
                        self.now_us,
                        if online {
                            EventData::CoreOnline { core }
                        } else {
                            EventData::CoreOffline { core }
                        },
                    );
                }
                self.cpus.request_online(
                    core,
                    online,
                    self.now_us,
                    self.cfg.profile.hotplug_on_latency_us(),
                );
            }
            Command::SetQuota(q) => {
                self.quota_unlimited = false;
                let old = self.bw.quota().as_fraction();
                self.bw.set_quota(q, self.now_us);
                let new = self.bw.quota().as_fraction();
                if new < old {
                    self.telemetry
                        .emit(self.now_us, EventData::QuotaShrink { from: old, to: new });
                } else if new > old {
                    self.telemetry
                        .emit(self.now_us, EventData::QuotaRestore { from: old, to: new });
                }
            }
        }
    }

    fn process_sysfs_writes(&mut self) {
        // Applying a write never queues another, so the drained queue
        // goes back in place with its capacity.
        let mut writes = std::mem::take(&mut self.sysfs_writes);
        for (attr, value) in writes.drain(..) {
            let value = value.trim();
            match attr {
                Attr::Online(i) => match value {
                    "0" => self.apply_command(Command::SetOnline {
                        core: i,
                        online: false,
                    }),
                    "1" => self.apply_command(Command::SetOnline {
                        core: i,
                        online: true,
                    }),
                    _ => self.invalid_sysfs_writes += 1,
                },
                Attr::ScalingSetspeed(i) => match value.parse::<u32>() {
                    Ok(khz) => self.apply_command(Command::SetFreq {
                        core: i,
                        khz: Khz(khz),
                    }),
                    Err(_) => self.invalid_sysfs_writes += 1,
                },
                Attr::ScalingMinFreq(i) => match value.parse::<u32>() {
                    Ok(khz) => {
                        self.cpus.core_mut(i).limit_min_opp =
                            self.cfg.profile.opps().ceil_index(Khz(khz));
                    }
                    Err(_) => self.invalid_sysfs_writes += 1,
                },
                Attr::ScalingMaxFreq(i) => match value.parse::<u32>() {
                    Ok(khz) => {
                        let idx = self.cfg.profile.opps().floor_index(Khz(khz)).unwrap_or(0);
                        self.cpus.core_mut(i).limit_max_opp = idx;
                    }
                    Err(_) => self.invalid_sysfs_writes += 1,
                },
                // `-1` is the cgroup's "no limit" (and its default).
                Attr::CfsQuotaUs if value == "-1" => {
                    self.apply_command(Command::SetQuota(Quota::FULL));
                    self.quota_unlimited = true;
                }
                Attr::CfsQuotaUs => {
                    let full_us = self.cfg.bandwidth_period_us as f64 * self.cpus.len() as f64;
                    match value.parse::<u64>() {
                        // Linux rejects a quota under 1 ms with EINVAL,
                        // and one under the model's floor cannot be
                        // represented: both leave the quota as it was.
                        Ok(us)
                            if us >= MIN_CFS_QUOTA_US
                                && us as f64 / full_us >= Quota::MIN_FRACTION =>
                        {
                            self.apply_command(Command::SetQuota(Quota::new(us as f64 / full_us)));
                        }
                        _ => self.invalid_sysfs_writes += 1,
                    }
                }
                Attr::Mpdecision => match value {
                    "0" => self.mpdecision_enabled = false,
                    "1" => self.mpdecision_enabled = true,
                    _ => self.invalid_sysfs_writes += 1,
                },
                // The governor name is informational only; the rest are
                // read-only and never queued.
                _ => {}
            }
        }
        self.sysfs_writes = writes;
    }

    /// Rebuilds `self.snap` in place for the current sampling boundary
    /// (the one `PolicySnapshot` is reused across samples).
    fn fill_snapshot(&mut self) {
        let window = (self.now_us - self.last_sample_us).max(self.cfg.tick_us);
        self.cpus.drain_window_into(&mut self.scratch.busy_window);
        let busy = &self.scratch.busy_window;
        let profile = &self.cfg.profile;
        self.snap.cores.clear();
        self.snap.cores.extend((0..self.cpus.len()).map(|i| {
            let c = self.cpus.core(i);
            CoreSnapshot {
                online: c.online,
                cur_khz: self.cpus.effective_khz(profile, i),
                target_khz: profile.opps().get_clamped(c.target_opp).khz,
                util: Utilization::new(busy[i] as f64 / window as f64),
                busy_us: busy[i],
            }
        }));
        let total_busy: u64 = busy.iter().sum();
        self.snap.now_us = self.now_us;
        self.snap.window_us = window;
        self.snap.overall_util =
            Utilization::new(total_busy as f64 / (window as f64 * self.cpus.len() as f64));
        self.snap.quota = self.bw.quota();
        self.snap.mpdecision_enabled = self.mpdecision_enabled;
        self.snap.max_runnable_threads = std::mem::take(&mut self.window_max_runnable);
        self.snap.temp_c = self.thermal.temp_c();
    }

    /// Advances the simulation by one tick.
    pub fn step(&mut self) {
        self.start_if_needed();
        let tick = self.cfg.tick_us;
        let now = self.now_us;

        // 1. asynchronous sysfs writes land
        self.process_sysfs_writes();
        // 2. hotplug transitions mature
        self.cpus.tick_hotplug(now);
        // 3. policy sampling
        if now >= self.next_sample_us {
            self.fill_snapshot();
            self.policy.on_sample(&self.snap, &mut self.ctl);
            if self.telemetry.is_enabled() {
                let ids = self.metric_ids;
                self.telemetry.inc_id(ids.samples, 1);
                self.telemetry.record_id(
                    ids.overall_util_pct,
                    self.snap.overall_util.as_fraction() * 100.0,
                );
                self.telemetry
                    .record_id(ids.quota_pct, self.snap.quota.as_fraction() * 100.0);
            }
            // Notes first: the decision record should precede the
            // freq/hotplug/quota events it causes at the same timestamp.
            for note in self.ctl.drain_notes() {
                self.telemetry.emit(now, note);
            }
            let mut cmds = std::mem::take(&mut self.scratch.cmds);
            self.ctl.drain_commands_into(&mut cmds);
            self.telemetry
                .inc_id(self.metric_ids.commands, cmds.len() as u64);
            for cmd in cmds.drain(..) {
                self.apply_command(cmd);
            }
            self.scratch.cmds = cmds;
            self.last_sample_us = now;
            self.next_sample_us = now + self.policy.sampling_period_us().max(tick);
        }
        // 4. workloads observe completions and queue work
        for w in &mut self.workloads {
            w.on_tick(now, tick, &mut self.rt);
        }
        self.rt.clear_completions();
        // 5. schedule and execute, on the per-core views as the edges
        // above (sysfs writes, hotplug, commands, last tick's thermal
        // cap) left them
        self.cpus.refresh(&self.cfg.profile);
        debug_assert!(
            self.cpus.views_are_fresh(&self.cfg.profile),
            "an edge moved per-core state without marking the views dirty"
        );
        let allowance = self.bw.begin_tick(now, tick);
        // Sub-tick DVFS stalls: time each core loses to an in-flight
        // frequency transition within this tick.
        self.cpus.stalls_into(now, tick, &mut self.scratch.stall_us);
        schedule_tick_into(
            &mut self.rt,
            &TickParams {
                now_us: now,
                tick_us: tick,
                n_cores: self.cpus.len(),
                online: self.cpus.online_ids(),
                khz: self.cpus.khz(),
                global_allowance_us: allowance,
                rotation: usize::try_from(now / tick).expect("tick count fits usize"),
                stall_us: &self.scratch.stall_us,
            },
            &mut self.scratch.sched,
            &mut self.scratch.outcome,
        );
        let outcome = &self.scratch.outcome;
        self.window_max_runnable = self.window_max_runnable.max(outcome.runnable_threads);
        self.bw.charge(outcome.used_runtime_us, outcome.denied_us);
        let denied = outcome.denied_us > 0;
        if denied && !self.bw_denied_last_tick {
            self.telemetry.emit(
                now,
                EventData::BwThrottle {
                    denied_us: outcome.denied_us,
                },
            );
        }
        self.bw_denied_last_tick = denied;
        self.executed_cycles += outcome.executed_cycles;
        // 6. accounting, power, thermal, trace
        let (base_add, cluster_add, core_add, power) = self.account_tick();
        self.base_energy += base_add;
        self.cluster_energy += cluster_add;
        self.core_energy += core_add;
        self.meter.record(now, tick, power);
        if self.telemetry.is_enabled() {
            let ids = self.metric_ids;
            self.telemetry.inc_id(ids.ticks, 1);
            self.telemetry.record_id(ids.power_mw, power);
            self.telemetry
                .set_gauge_id(ids.temp_c, self.thermal.temp_c());
        }
        let cap = self.thermal.tick(now, tick, power);
        self.note_thermal_cap(now, cap);
        if now >= self.next_trace_us {
            if self.cfg.trace == TraceLevel::Full {
                self.push_trace_sample(now, power);
            }
            self.next_trace_us = now + self.cfg.trace_period_us;
        }
        // The new cap applies from the next tick on.
        self.cpus.set_thermal_cap(cap);
        self.now_us += tick;
    }

    /// Accounts the tick the scheduler's outcome (`scratch.outcome`)
    /// describes and prices its activity vector: per-tick energy
    /// increments and total power, `(base_mw·tick, cluster_mw·tick,
    /// Σcore_mw·tick, total_mw)`. These are the same products in the same
    /// order the tick would compute, memoized on the activity vector
    /// (steady loads and idle stretches repeat it tick after tick).
    fn account_tick(&mut self) -> (f64, f64, f64, f64) {
        let s = &mut self.scratch;
        let ladder = self.cfg.profile.idle_ladder();
        self.cpus
            .account_tick(&s.outcome.busy_us, self.cfg.tick_us, ladder, &mut s.acts);
        if let Some(memo) = s.power_memo {
            if s.acts == s.memo_acts {
                return memo;
            }
        }
        self.cfg
            .profile
            .power_into(&s.acts, &mut s.power_cache, &mut s.breakdown)
            .expect("activity vector sized to profile");
        let tick = self.cfg.tick_us as f64;
        let b = &s.breakdown;
        let memo = (
            b.base_mw * tick,
            b.cluster_mw * tick,
            b.core_mw.iter().sum::<f64>() * tick,
            b.total_mw(),
        );
        // The key moves into the memo; `acts` is refilled every tick.
        std::mem::swap(&mut s.acts, &mut s.memo_acts);
        s.power_memo = Some(memo);
        memo
    }

    /// Emits the thermal throttle/clear edge when the control loop moved
    /// the OPP cap to `cap` on the tick starting at `t_us`, with that
    /// tick's post-step temperature. Returns whether the cap moved.
    fn note_thermal_cap(&mut self, t_us: u64, cap: usize) -> bool {
        if cap == self.last_thermal_cap {
            return false;
        }
        let temp_c = self.thermal.temp_c();
        self.telemetry.emit(
            t_us,
            if cap < self.last_thermal_cap {
                EventData::ThermalThrottle {
                    cap_opp: cap,
                    temp_c,
                }
            } else {
                EventData::ThermalClear {
                    cap_opp: cap,
                    temp_c,
                }
            },
        );
        self.last_thermal_cap = cap;
        true
    }

    /// Records the trace sample of the tick starting at `t_us` from that
    /// tick's frequencies (the per-core views) and busy times
    /// (`scratch.outcome`).
    fn push_trace_sample(&mut self, t_us: u64, power_mw: f64) {
        let tick = self.cfg.tick_us as f32;
        self.trace.push(TraceSample {
            t_us,
            power_mw,
            temp_c: self.thermal.temp_c(),
            quota: self.bw.quota().as_fraction(),
            khz: self.cpus.khz().iter().map(|k| k.0).collect(),
            util_pct: self
                .scratch
                .outcome
                .busy_us
                .iter()
                .map(|&b| (b as f32 / tick) * 100.0)
                .collect(),
        });
    }

    /// Runs to the configured duration and reports, under the engine the
    /// config selects ([`SimConfig::engine`]). Both engines produce
    /// byte-identical reports, telemetry and manifests (docs/simulator.md;
    /// asserted across the scenario catalog by the `engine-equivalence`
    /// tier-1 test).
    pub fn run(&mut self) -> SimReport {
        self.run_until(self.cfg.duration_us);
        self.report()
    }

    /// Advances the simulation to `t_us` under the configured engine.
    pub fn run_until(&mut self, t_us: u64) {
        match self.cfg.engine {
            SimEngine::Cyclic => {
                while self.now_us < t_us {
                    self.step();
                }
            }
            SimEngine::EventDriven => self.run_event_until(t_us),
        }
    }

    /// The event-driven loop: one full cycle-synchronous [`Simulation::step`]
    /// whenever any full-step component is due, and a cycle-exact quiet
    /// burst across the gap to the next full-step wake otherwise.
    fn run_event_until(&mut self, end_us: u64) {
        while self.now_us < end_us {
            self.advance_event(end_us);
        }
    }

    /// Advances by **one** event-engine iteration — one full
    /// [`Simulation::step`] or one quiet burst — never past `end_us`,
    /// and returns the new simulation time.
    ///
    /// Running this to `end_us` is exactly [`Simulation::run_until`]
    /// under [`SimEngine::EventDriven`]; it exists as a public
    /// single-iteration primitive so [`crate::fleet::FleetSim`] can
    /// multiplex many devices through one cross-device scheduler, each
    /// advancing in the bursts its own wake declarations allow. A no-op
    /// when the simulation already reached `end_us`.
    pub fn advance_event(&mut self, end_us: u64) -> u64 {
        if self.now_us >= end_us {
            return self.now_us;
        }
        // The first iteration is always a full step: wake declarations
        // describe a simulation that has already ticked at least once.
        let n = if self.now_us == 0 {
            0
        } else {
            self.quiet_run_len(end_us)
        };
        if n == 0 {
            self.step();
        } else {
            self.quiet_burst(n);
        }
        self.now_us
    }

    /// How many consecutive ticks from `now` are provably quiet — safe to
    /// fast-forward with [`Simulation::quiet_burst`] — or 0 when the next
    /// tick needs a full [`Simulation::step`].
    fn quiet_run_len(&self, end_us: u64) -> u64 {
        // Preconditions: any pending work makes the next tick a full
        // step. Runnable threads or undelivered completions mean the
        // scheduler and workloads have real work; pending sysfs writes
        // land at the top of the next tick.
        if !self.sysfs_writes.is_empty()
            || self.rt.runnable_count() != 0
            || !self.rt.completions().is_empty()
        {
            return 0;
        }
        let now = self.now_us;
        // A due governor sample forces a full step no matter what the
        // other components declare — skip the fold on that (most
        // common) bound. Every second `quiet_run_len` call in an idle
        // stretch lands here.
        if self.next_sample_us <= now {
            return 0;
        }
        // A wake at or before `now` (including a stale one) is due now.
        let bound = match self.full_step_wake() {
            Wake::EveryTick => return 0,
            Wake::At(t) if t <= now => return 0,
            Wake::At(t) => t.min(end_us),
            Wake::Never => end_us,
        };
        // Every tick *starting* strictly before the bound is quiet; the
        // tick whose start reaches it is the full step (matching the
        // cyclic loop's `now >= next_sample_us` trigger).
        bound.saturating_sub(now).div_ceil(self.cfg.tick_us)
    }

    /// The earliest time anything forces a full step: the governor's
    /// next sample, a maturing hotplug transition, a workload's declared
    /// wake, or an idle core crossing into a deeper idle state. The
    /// thermal, meter and bandwidth components never bound a burst: their
    /// per-tick float updates run inside it.
    fn full_step_wake(&self) -> Wake {
        let now = self.now_us;
        let tick = self.cfg.tick_us;
        let ladder = self.cfg.profile.idle_ladder();
        let mut wake = Wake::At(self.next_sample_us);
        for w in &self.workloads {
            wake = wake.earliest_of(w.next_tick_us(now));
        }
        for c in self.cpus.iter() {
            if let Some(t) = c.online_at_us {
                wake = wake.earliest_of(Wake::At(t));
            }
            // The streak the power model sees at a tick includes that
            // tick's own increment, hence `+ tick`; the tick on which it
            // reaches the next target residency must be a full step so
            // the power model re-reads the ladder.
            if !c.online {
                continue;
            }
            if let Some(t) = ladder.next_residency_above(c.idle_streak_us + tick) {
                let k_t = (t - c.idle_streak_us).div_ceil(tick);
                wake = wake.earliest_of(Wake::At(now + (k_t - 1) * tick));
            }
        }
        wake
    }

    /// Executes up to `n` quiet ticks in one burst, byte-identically to
    /// `n` cyclic [`Simulation::step`]s over a quiet simulation.
    ///
    /// Float state (bandwidth quota integral, energy attribution, meter,
    /// thermal RC) advances through the *same per-tick operations in the
    /// same order* as the cyclic loop — floating-point accumulation is
    /// sequence-sensitive, so these are never algebraically batched.
    /// Integer accounting (idle streaks, online time, `time_in_state`)
    /// is batched after the burst, which is exact. Everything else a
    /// cyclic step does is a provable state no-op on a quiet tick and is
    /// skipped (the equivalence argument in docs/simulator.md walks
    /// through the full step, line by line).
    ///
    /// A mid-burst thermal cap change ends the burst early after
    /// completing the tick on which it landed (the cyclic loop applies a
    /// new cap starting the *next* tick, so that tick itself still ran
    /// on pre-change state).
    fn quiet_burst(&mut self, n: u64) {
        debug_assert!(n > 0);
        let tick = self.cfg.tick_us;
        // Hoist per-burst constants: the per-core views (online set,
        // effective frequencies and OPPs), the activity vector, and the
        // power breakdown. All are invariant across quiet ticks — nothing
        // requests DVFS/hotplug/quota changes, and a thermal cap move
        // breaks the burst. The first tick is accounted exactly as the
        // cyclic step accounts it, on the scheduler's zeroed outcome of a
        // workless tick (which trace samples also read): that lands the
        // idle-streak increment the power model reads and builds the
        // activity vector, whose utilization terms are exactly `0.0`.
        // The remaining k-1 ticks are batched below.
        self.cpus.refresh(&self.cfg.profile);
        self.scratch.outcome.busy_us.clear();
        self.scratch.outcome.busy_us.resize(self.cpus.len(), 0);
        // The per-tick energy increments are constant products — the
        // cyclic loop recomputes the identical product each tick, so
        // hoisting them is bitwise equal. Consecutive quiet bursts in a
        // long idle stretch usually share the exact activity vector, so
        // the power-model evaluation hits the shared memo.
        let (base_add, cluster_add, core_add, power) = self.account_tick();

        // Component-major execution: within a quiet tick the components
        // read only burst-hoisted constants, never each other's fresh
        // state, so letting each advance k ticks in its own tight
        // `quiet_run` loop is bitwise equal to the cyclic tick-major
        // interleaving (docs/simulator.md). The burst is cut into
        // segments at trace boundaries — a trace sample needs its tick's
        // post-RC temperature, which is on hand exactly when the thermal
        // run stops on that tick. Thermal goes first in each segment: it
        // alone decides an early stop (a cap change), and every other
        // component then advances exactly as far.
        let mut done = 0u64;
        let mut last_pre_tick_temp = self.thermal.temp_c();
        let mut cap_changed = false;
        let full_trace = self.cfg.trace == TraceLevel::Full;
        while done < n && !cap_changed {
            let now0 = self.now_us;
            let remaining = n - done;
            // Under `TraceLevel::Summary` no trace sample is ever
            // materialized and `next_trace_us` drives nothing observable
            // for the rest of the run, so the burst runs as one segment
            // and leaves that dead clock stale. Under `Full`, segments
            // end on the tick the trace fires on (the cyclic trigger is
            // `now0 + j·tick >= next_trace_us`).
            let (has_trace, seg) = if full_trace {
                let fire_j = if self.next_trace_us <= now0 {
                    0
                } else {
                    (self.next_trace_us - now0).div_ceil(tick)
                };
                let has = fire_j < remaining;
                (has, if has { fire_j + 1 } else { remaining })
            } else {
                (false, remaining)
            };
            let (k, pre_temp) = self.thermal.quiet_run(now0, tick, power, seg);
            // The cyclic loop gauges temperature *before* each tick's RC
            // step; keep the last one for the batched gauge below.
            last_pre_tick_temp = pre_temp;
            // A cap change is emitted on the tick the poll landed, exactly
            // as the cyclic loop does, and ends the burst: re-entering
            // through `quiet_run_len` lets the next tick's hoisted
            // frequencies/OPPs see the new cap.
            cap_changed = self.note_thermal_cap(now0 + (k - 1) * tick, self.thermal.cap_opp());
            self.bw.quiet_run(now0, tick, k);
            self.meter.quiet_run(now0, tick, power, k);
            for _ in 0..k {
                self.base_energy += base_add;
                self.cluster_energy += cluster_add;
                self.core_energy += core_add;
            }
            self.now_us = now0 + k * tick;
            if has_trace && k == seg {
                // The segment reached its trace tick (a cap change on
                // that same tick still traces, as in the cyclic loop).
                let t_us = now0 + (seg - 1) * tick;
                self.push_trace_sample(t_us, power);
                self.next_trace_us = t_us + self.cfg.trace_period_us;
            }
            done += k;
        }
        // Batched integer accounting for the ticks after the first that
        // actually ran — exact, order-insensitive arithmetic, at the
        // pre-burst OPPs (the cyclic loop applies a cap move from the
        // next tick on).
        self.cpus.account_idle((done - 1) * tick);
        // The cyclic loop reasserts the cap on the core array every
        // tick; the value only moves when the burst ends, so once is
        // enough (and identical).
        self.cpus.set_thermal_cap(self.thermal.cap_opp());
        self.bw_denied_last_tick = false;
        if self.telemetry.is_enabled() {
            let ids = self.metric_ids;
            self.telemetry.inc_id(ids.ticks, done);
            self.telemetry.record_repeat_id(ids.power_mw, power, done);
            self.telemetry.set_gauge_id(ids.temp_c, last_pre_tick_temp);
        }
    }

    /// Builds the report for whatever has run so far.
    pub fn report(&self) -> SimReport {
        let duration = self.now_us.max(1);
        let n = self.cpus.len() as f64;
        let total_busy: u64 = self.cpus.iter().map(|c| c.total_busy_us).sum();
        let total_online: u64 = self.cpus.iter().map(|c| c.total_online_us).sum();
        let khz_integral: u128 = self.cpus.iter().map(|c| c.khz_us_integral).sum();
        let avg_khz = if total_online == 0 {
            0.0
        } else {
            khz_integral as f64 / total_online as f64
        };
        SimReport {
            policy: self.policy.name().to_string(),
            duration_us: self.now_us,
            avg_power_mw: self.meter.avg_power_mw(),
            max_power_mw: self.meter.max_power_mw(),
            energy_mj: self.meter.energy_mj(),
            avg_overall_util: total_busy as f64 / (duration as f64 * n),
            avg_online_cores: total_online as f64 / duration as f64,
            avg_khz_online: avg_khz,
            avg_temp_c: self.thermal.avg_temp_c(),
            max_temp_c: self.thermal.max_temp_c,
            thermal_throttled_frac: self.thermal.throttled_time_us as f64 / duration as f64,
            bw_throttled_us: self.bw.throttled_us,
            avg_quota: self.bw.avg_quota(),
            executed_cycles: self.executed_cycles,
            rejected_offline_requests: self.cpus.rejected_offline_requests,
            workloads: self
                .workloads
                .iter()
                .map(|w| w.report(self.now_us, &self.rt))
                .collect(),
            avg_base_mw: self.base_energy / duration as f64,
            avg_cluster_mw: self.cluster_energy / duration as f64,
            avg_core_mw: self.core_energy / duration as f64,
            power_series: self.meter.samples().to_vec(),
            time_in_state_us: self.cpus.time_in_state_total(),
            trace: self.trace.clone(),
        }
    }

    /// The run's telemetry sink (empty when the config disabled it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The run's decision events as JSONL, ready for
    /// `mobicore-inspect events`.
    pub fn events_jsonl(&self) -> String {
        self.telemetry.events_jsonl()
    }

    /// Builds the run manifest for whatever has run so far: report
    /// aggregates plus telemetry rollups and event totals, keyed by the
    /// run's identity (policy, profile, seed). The caller may stamp
    /// `git` / `created_unix_ms` / `wall_ms` before writing it out.
    pub fn manifest(&self, name: &str) -> RunManifest {
        let report = self.report();
        let mut metrics = self.telemetry.metrics().rollups();
        #[allow(clippy::cast_precision_loss)]
        let mut scalar = |k: &str, v: f64| {
            metrics.insert(k.to_string(), v);
        };
        scalar("avg_power_mw", report.avg_power_mw);
        scalar("max_power_mw", report.max_power_mw);
        scalar("energy_mj", report.energy_mj);
        scalar("avg_overall_util_pct", report.avg_overall_util * 100.0);
        scalar("avg_online_cores", report.avg_online_cores);
        scalar("avg_khz_online", report.avg_khz_online);
        scalar("avg_temp_c", report.avg_temp_c);
        scalar("max_temp_c", report.max_temp_c);
        scalar("thermal_throttled_frac", report.thermal_throttled_frac);
        #[allow(clippy::cast_precision_loss)]
        {
            scalar("bw_throttled_us", report.bw_throttled_us as f64);
            scalar("executed_cycles", report.executed_cycles as f64);
            scalar(
                "rejected_offline_requests",
                report.rejected_offline_requests as f64,
            );
            scalar("invalid_sysfs_writes", self.invalid_sysfs_writes as f64);
            scalar("dropped_events", self.telemetry.dropped_events() as f64);
        }
        scalar("avg_quota", report.avg_quota);
        let mut tags = std::collections::BTreeMap::new();
        tags.insert("cores".to_string(), self.cpus.len().to_string());
        tags.insert(
            "mpdecision".to_string(),
            if self.cfg.mpdecision_enabled {
                "1"
            } else {
                "0"
            }
            .to_string(),
        );
        tags.insert("tick_us".to_string(), self.cfg.tick_us.to_string());
        RunManifest {
            kind: "simulation".to_string(),
            name: name.to_string(),
            policy: report.policy,
            profile: self.cfg.profile.name().to_string(),
            seed: self.cfg.seed,
            duration_us: self.now_us,
            git: None,
            created_unix_ms: None,
            wall_ms: None,
            tags,
            metrics,
            event_counts: self.telemetry.event_counts(),
        }
    }
}
