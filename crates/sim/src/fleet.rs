//! FleetSim: one discrete-event scheduler multiplexing many devices
//! (docs/simulator.md).
//!
//! A fleet-scale experiment is thousands of mostly-idle device runs. Run
//! independently, each pays full per-run cost — construction, cache-cold
//! state, its own loop. [`FleetSim`] instead advances N [`Simulation`]s
//! through **one** loop: a min-heap keyed `(wake_time, device_id)` picks
//! the earliest-due device, that device advances by one event-engine
//! iteration ([`Simulation::advance_event`] — a full step or a quiet
//! burst up to its own earliest full-step wake), and the device is
//! re-pushed at its new time. Ties on wake time resolve to the lowest
//! device id (tuple order), so the interleaving is fully deterministic.
//!
//! Layout: devices live in one slab `Vec` in insertion order (device id
//! = slot index) and the scheduling hot state — per-device end times and
//! the due-time heap — is packed into struct-of-arrays vectors beside
//! it, so the loop's bookkeeping touches dense arrays and only the due
//! device's state is pulled into cache. Shared immutable data is hoisted
//! behind `Arc` at construction time: the device profile (OPP tables,
//! power model) via [`SimConfig::new`](crate::SimConfig::new) taking
//! `Arc<DeviceProfile>`, and the sysfs path table via
//! [`Simulation::with_paths`].
//!
//! Equivalence: devices are independent — no simulation reads another's
//! state — so a multiplexed run produces reports, telemetry and
//! manifests **byte-identical** to running each device alone, whatever
//! the interleaving. Tier-1 pins this at 1000 devices
//! (`crates/experiments/tests/fleetsim.rs`), the same way the event
//! engine is pinned against the cyclic loop.

use crate::sim::Simulation;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
    /// The cross-device scheduler: a min-heap of `(due_us, device_id)`,
    /// lowest device id first on equal due times.
    queue: BinaryHeap<Reverse<(u64, usize)>>,
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
            queue: BinaryHeap::with_capacity(n),
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
            self.queue.push(Reverse((now, id)));
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
        let Reverse((_, id)) = self.queue.pop()?;
        let end = self.end_us[id];
        let now = self.sims[id].advance_event(end);
        if now < end {
            self.queue.push(Reverse((now, id)));
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

    /// The unfinished device `advance_next` must pick: the least
    /// `(now_us, device_id)`.
    fn earliest_due(fleet: &FleetSim) -> Option<(u64, usize)> {
        (0..fleet.len())
            .map(|id| (fleet.device(id).now_us(), id))
            .filter(|&(now, id)| now < fleet.device(id).config().duration_us)
            .min()
    }

    #[test]
    fn advance_next_orders_by_time_then_device() {
        let profile = Arc::new(profiles::nexus5());
        let mut fleet = FleetSim::new();
        // Staggered start times: device 0 is two ticks in, device 3 one,
        // devices 1 and 2 are fresh and tie at zero.
        for (seed, pre_steps) in [2, 0, 0, 1].into_iter().enumerate() {
            let mut sim = small_sim(&profile, seed as u64, 60_000);
            for _ in 0..pre_steps {
                sim.step();
            }
            fleet.add_device(sim);
        }
        let mut order = Vec::new();
        while let Some(expected) = earliest_due(&fleet) {
            let (id, now) = fleet.advance_next().expect("a device is due");
            assert_eq!(id, expected.1, "earliest due, lowest id on ties");
            assert_eq!(now, fleet.device(id).now_us());
            order.push(id);
        }
        assert_eq!(fleet.advance_next(), None);
        // The two fresh devices tie at zero: lowest id first; both then
        // tie with device 3 one tick in, which goes after them.
        assert_eq!(order[..4], [1, 2, 1, 2]);
        assert!(fleet.devices().iter().all(|d| d.now_us() == 60_000));
    }

    #[test]
    fn advance_next_repushes_a_device_at_its_new_time() {
        // The fleet loop's shape: pop, advance, re-push at the new time.
        let profile = Arc::new(profiles::nexus5());
        let mut fleet = FleetSim::new();
        fleet.add_device(small_sim(&profile, 0, 30_000));
        fleet.add_device(small_sim(&profile, 1, 30_000));
        let (d0, t0) = fleet.advance_next().expect("device 0 due at 0");
        assert_eq!(d0, 0);
        assert!(t0 > 0);
        // Device 0 went back into the heap at `t0`; device 1 is still at 0.
        let (d1, t1) = fleet.advance_next().expect("device 1 due at 0");
        assert_eq!((d1, t1), (1, t0), "same config, same first step");
        // Both re-pushed at the same time: lowest id first again.
        assert_eq!(fleet.advance_next().map(|(id, _)| id), Some(0));
        assert_eq!(fleet.advance_next().map(|(id, _)| id), Some(1));
        // A device that reaches its end is not re-pushed.
        fleet.run();
        assert_eq!(fleet.advance_next(), None);
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
