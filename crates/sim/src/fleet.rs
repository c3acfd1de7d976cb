//! FleetSim: one discrete-event scheduler multiplexing many devices
//! (docs/simulator.md).
//!
//! A fleet-scale experiment is thousands of mostly-idle device runs. Run
//! independently, each pays full per-run cost — construction, cache-cold
//! state, its own loop. [`FleetSim`] instead advances N [`Simulation`]s
//! through **one** loop: a [`FleetQueue`] min-heap keyed
//! `(wake_time, device_id)` picks the earliest-due device, that device's
//! own [`WakeQueue`](crate::WakeQueue) resolves the *component* dimension
//! and advances in one event-engine iteration
//! ([`Simulation::advance_event`] — a full step or a quiet burst), and
//! the device is re-pushed at its new time. The composite scheduler is
//! therefore keyed `(wake_time, device_id, component)`, with ties
//! resolving to the lowest device id then lowest registration index —
//! fully deterministic.
//!
//! Layout: devices live in one slab `Vec` in insertion order (device id
//! = slot index) and the scheduling hot state — per-device end times and
//! the due-time heap — is packed into struct-of-arrays vectors beside
//! it, so the loop's bookkeeping touches dense arrays and only the due
//! device's state is pulled into cache. Shared immutable data is hoisted
//! behind `Arc` at construction time: the device profile (OPP tables,
//! power model) via [`SimConfig::new`](crate::SimConfig::new) taking
//! `Arc<DeviceProfile>`, and the interned sysfs path table via
//! [`Simulation::with_paths`].
//!
//! Equivalence: devices are independent — no simulation reads another's
//! state — so a multiplexed run produces reports, telemetry and
//! manifests **byte-identical** to running each device alone, whatever
//! the interleaving. Tier-1 pins this at 1000 devices
//! (`crates/experiments/tests/fleetsim.rs`), the same way the event
//! engine is pinned against the cyclic loop.

use crate::engine::FleetQueue;
use crate::sim::Simulation;

/// A multi-device simulation advanced by one event-driven loop.
///
/// Devices always advance through the event engine
/// ([`Simulation::advance_event`]), regardless of the engine their
/// config names — the engines are byte-identical (docs/simulator.md), so
/// this changes scheduling, never results.
///
/// ```
/// use mobicore_sim::{FleetSim, SimConfig, Simulation, builtin::PinnedPolicy};
/// use mobicore_model::{profiles, Khz};
/// use std::sync::Arc;
///
/// let profile = Arc::new(profiles::nexus5());
/// let mut fleet = FleetSim::with_capacity(3);
/// for seed in 0..3 {
///     let cfg = SimConfig::new(Arc::clone(&profile))
///         .with_duration_us(200_000)
///         .with_seed(seed);
///     let sim = Simulation::new(cfg, Box::new(PinnedPolicy::new(1, Khz(960_000))))?;
///     fleet.add_device(sim);
/// }
/// fleet.run();
/// assert!(fleet.devices().iter().all(|d| d.now_us() == 200_000));
/// # Ok::<(), mobicore_sim::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct FleetSim {
    /// The device slab: slot index is the device id.
    sims: Vec<Simulation>,
    /// Per-device run end (`cfg.duration_us` at add time), µs.
    end_us: Vec<u64>,
    /// The cross-device `(due_us, device_id)` scheduler.
    queue: FleetQueue,
}

impl FleetSim {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty fleet with slab and heap capacity for `n` devices
    /// pre-reserved, so adding up to `n` and running never reallocates
    /// the scheduling state.
    pub fn with_capacity(n: usize) -> Self {
        FleetSim {
            sims: Vec::with_capacity(n),
            end_us: Vec::with_capacity(n),
            queue: FleetQueue::with_capacity(n),
        }
    }

    /// Adds a device and schedules it at its current simulation time;
    /// returns its device id (insertion index). The device runs to its
    /// config's `duration_us`. Workloads must already be attached.
    pub fn add_device(&mut self, sim: Simulation) -> usize {
        let id = self.sims.len();
        let end = sim.config().duration_us;
        let now = sim.now_us();
        self.end_us.push(end);
        if now < end {
            self.queue.push(now, id);
        }
        self.sims.push(sim);
        id
    }

    /// Number of devices in the fleet (finished or not).
    pub fn len(&self) -> usize {
        self.sims.len()
    }

    /// Whether the fleet holds no devices.
    pub fn is_empty(&self) -> bool {
        self.sims.is_empty()
    }

    /// Pops the earliest-due device, advances it by one event-engine
    /// iteration, and re-schedules it unless it reached its end. Returns
    /// `(device_id, new_now_us)`, or `None` when every device finished.
    ///
    /// This is the multiplexed loop's single turn; once the fleet is
    /// warm it performs no heap allocation (asserted by
    /// `tests/alloc_free.rs`).
    pub fn advance_next(&mut self) -> Option<(usize, u64)> {
        let (_, id) = self.queue.pop()?;
        let end = self.end_us[id];
        let now = self.sims[id].advance_event(end);
        if now < end {
            self.queue.push(now, id);
        }
        Some((id, now))
    }

    /// Runs every device to its end time.
    pub fn run(&mut self) {
        while self.advance_next().is_some() {}
    }

    /// The device with id `id` (insertion index).
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn device(&self, id: usize) -> &Simulation {
        &self.sims[id]
    }

    /// All devices, in insertion order — how the sweep integration
    /// collects per-device reports and manifests in submission order.
    pub fn devices(&self) -> &[Simulation] {
        &self.sims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::PinnedPolicy;
    use crate::config::SimConfig;
    use mobicore_model::{profiles, DeviceProfile, Khz};
    use std::sync::Arc;

    fn small_sim(profile: &Arc<DeviceProfile>, seed: u64, dur_us: u64) -> Simulation {
        let cfg = SimConfig::new(Arc::clone(profile))
            .with_duration_us(dur_us)
            .with_seed(seed)
            .without_mpdecision();
        Simulation::new(cfg, Box::new(PinnedPolicy::new(1, Khz(960_000)))).expect("valid config")
    }

    #[test]
    fn empty_fleet_runs_to_nothing() {
        let mut fleet = FleetSim::new();
        assert!(fleet.is_empty());
        assert_eq!(fleet.advance_next(), None);
        fleet.run();
        assert!(fleet.devices().is_empty());
    }

    #[test]
    fn multiplexed_matches_independent_runs() {
        let profile = Arc::new(profiles::nexus5());
        // Staggered durations: devices finish at different times, so the
        // heap drains incrementally.
        let durations = [100_000u64, 250_000, 175_000];
        let mut fleet = FleetSim::with_capacity(durations.len());
        for (seed, &dur) in durations.iter().enumerate() {
            fleet.add_device(small_sim(&profile, seed as u64, dur));
        }
        assert_eq!(fleet.len(), 3);
        fleet.run();
        assert_eq!(fleet.advance_next(), None, "every device finished");
        for (seed, &dur) in durations.iter().enumerate() {
            let mut solo = small_sim(&profile, seed as u64, dur);
            let solo_report = solo.run();
            let dev = fleet.device(seed);
            assert_eq!(dev.now_us(), dur);
            assert_eq!(
                format!("{:?}", dev.report()),
                format!("{solo_report:?}"),
                "device {seed} report differs from its independent run"
            );
            assert_eq!(dev.events_jsonl(), solo.events_jsonl());
        }
    }

    #[test]
    fn device_ids_are_insertion_order() {
        let profile = Arc::new(profiles::nexus5());
        let mut fleet = FleetSim::new();
        for seed in 0..4usize {
            let id = fleet.add_device(small_sim(&profile, seed as u64, 50_000));
            assert_eq!(id, seed);
        }
        fleet.run();
        assert_eq!(fleet.devices().len(), 4);
        for (i, sim) in fleet.devices().iter().enumerate() {
            assert_eq!(sim.config().seed, i as u64, "insertion order preserved");
        }
    }
}
