//! The per-run telemetry sink: a typed event log plus a metric registry,
//! with a single `enabled` gate so a disabled sink costs one branch per
//! event or metric update and allocates nothing for it.

use crate::event::{Event, EventData, EventKind};
use crate::json::JsonError;
use crate::metrics::{CounterId, GaugeId, HistogramId, MetricSet};
use std::collections::BTreeMap;

/// Hard ceiling on retained events, so a pathological policy cannot OOM
/// a long run; overflow is counted, not silently dropped.
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// One run's telemetry: events + metrics behind an on/off gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    enabled: bool,
    events: Vec<Event>,
    max_events: usize,
    dropped: u64,
    /// Emitted events per kind, indexed like [`EventKind::ALL`] —
    /// counted whether or not the event was retained, so
    /// [`Telemetry::event_counts`] stays exact past the ceiling.
    kind_counts: [u64; EventKind::ALL.len()],
    metrics: MetricSet,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::enabled()
    }
}

impl Telemetry {
    /// A recording sink.
    pub fn enabled() -> Self {
        Telemetry {
            enabled: true,
            events: Vec::new(),
            max_events: DEFAULT_MAX_EVENTS,
            dropped: 0,
            kind_counts: [0; EventKind::ALL.len()],
            metrics: MetricSet::new(),
        }
    }

    /// A no-op sink: every call returns after one branch.
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            ..Self::enabled()
        }
    }

    /// Whether the sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Overrides the retained-event ceiling. Past it events are only
    /// counted: [`Telemetry::event_counts`] stays exact, the log keeps
    /// the first `max` events.
    #[must_use]
    pub fn with_max_events(mut self, max: usize) -> Self {
        self.max_events = max;
        self
    }

    /// Records one timestamped event.
    #[inline]
    pub fn emit(&mut self, t_us: u64, data: EventData) {
        if !self.enabled {
            return;
        }
        self.kind_counts[data.kind().index()] += 1;
        if self.events.len() >= self.max_events {
            self.dropped += 1;
            return;
        }
        self.events.push(Event { t_us, data });
    }

    /// The slot of counter `name` (see [`MetricSet::counter_id`]):
    /// resolve once, then update with [`Telemetry::inc_id`]. Registering
    /// records nothing, enabled or not; every update below is one
    /// branch when the sink is off.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        self.metrics.counter_id(name)
    }

    /// The slot of gauge `name` (see [`MetricSet::gauge_id`]).
    pub fn gauge_id(&mut self, name: &str) -> GaugeId {
        self.metrics.gauge_id(name)
    }

    /// The slot of histogram `name` (see [`MetricSet::histogram_id`]).
    pub fn histogram_id(&mut self, name: &str) -> HistogramId {
        self.metrics.histogram_id(name)
    }

    /// Adds `by` to counter `id`.
    #[inline]
    pub fn inc_id(&mut self, id: CounterId, by: u64) {
        if self.enabled {
            self.metrics.inc_id(id, by);
        }
    }

    /// Sets gauge `id`.
    #[inline]
    pub fn set_gauge_id(&mut self, id: GaugeId, value: f64) {
        if self.enabled {
            self.metrics.set_gauge_id(id, value);
        }
    }

    /// Records `value` into histogram `id`.
    #[inline]
    pub fn record_id(&mut self, id: HistogramId, value: f64) {
        if self.enabled {
            self.metrics.record_id(id, value);
        }
    }

    /// Records `value` into histogram `id` `n` times, bit-identically
    /// to `n` [`Telemetry::record_id`] calls.
    #[inline]
    pub fn record_repeat_id(&mut self, id: HistogramId, value: f64, n: u64) {
        if self.enabled {
            self.metrics.record_repeat_id(id, value, n);
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events dropped past the [`Self::with_max_events`] ceiling.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// The metric registry.
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    /// Event totals per kind name, counting every emitted event —
    /// retained or dropped past the ceiling (only kinds that occurred
    /// appear).
    pub fn event_counts(&self) -> BTreeMap<String, u64> {
        EventKind::ALL
            .into_iter()
            .zip(self.kind_counts)
            .filter(|&(_, n)| n > 0)
            .map(|(k, n)| (k.name().to_string(), n))
            .collect()
    }

    /// Events of one kind, in order.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind() == kind)
    }

    /// Serializes every event as JSONL (one compact object per line,
    /// trailing newline when non-empty).
    pub fn events_jsonl(&self) -> String {
        events_to_jsonl(&self.events)
    }
}

/// Serializes events as JSONL.
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json().to_compact());
        out.push('\n');
    }
    out
}

/// Parses a JSONL event stream (blank lines skipped).
///
/// # Errors
///
/// The first offending line's [`JsonError`], with the 1-based line number
/// prefixed to the message.
pub fn events_from_jsonl(text: &str) -> Result<Vec<Event>, JsonError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let e = Event::from_json_line(line).map_err(|err| JsonError {
            offset: err.offset,
            message: format!("line {}: {}", i + 1, err.message),
        })?;
        out.push(e);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut t = Telemetry::disabled();
        t.emit(0, EventData::CoreOnline { core: 1 });
        let (c, g, h) = (t.counter_id("x"), t.gauge_id("g"), t.histogram_id("h"));
        t.inc_id(c, 5);
        t.set_gauge_id(g, 1.0);
        t.record_id(h, 1.0);
        t.record_repeat_id(h, 1.0, 3);
        assert!(t.events().is_empty());
        assert_eq!(t.metrics(), &MetricSet::new());
        assert_eq!(t.metrics().counter("x"), None);
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_sink_records_and_counts() {
        let mut t = Telemetry::enabled();
        t.emit(10, EventData::CoreOnline { core: 1 });
        t.emit(20, EventData::CoreOffline { core: 1 });
        t.emit(30, EventData::CoreOffline { core: 2 });
        let ticks = t.counter_id("sim.ticks");
        t.inc_id(ticks, 3);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.event_counts().get("core-offline"), Some(&2));
        assert_eq!(t.events_of(EventKind::CoreOnline).count(), 1);
        assert_eq!(t.metrics().counter("sim.ticks"), Some(3));
    }

    #[test]
    fn event_ceiling_counts_drops() {
        let mut t = Telemetry::enabled().with_max_events(2);
        for i in 0..5 {
            t.emit(i, EventData::CoreOnline { core: 0 });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped_events(), 3);
    }

    #[test]
    fn event_counts_stay_exact_past_the_ceiling() {
        let mut t = Telemetry::enabled().with_max_events(3);
        for i in 0..10 {
            t.emit(i, EventData::CoreOnline { core: 0 });
            if i % 2 == 0 {
                t.emit(i, EventData::CoreOffline { core: 1 });
            }
        }
        assert_eq!(t.events().len(), 3, "the log keeps the first 3");
        assert_eq!(t.dropped_events(), 12);
        assert_eq!(t.event_counts().get("core-online"), Some(&10));
        assert_eq!(t.event_counts().get("core-offline"), Some(&5));
        assert_eq!(t.event_counts().len(), 2, "kinds never emitted stay absent");
        let total: u64 = t.event_counts().values().sum();
        assert_eq!(total, t.events().len() as u64 + t.dropped_events());
    }

    #[test]
    fn jsonl_round_trip() {
        let mut t = Telemetry::enabled();
        t.emit(
            20_000,
            EventData::FreqChange {
                core: 0,
                from_khz: 300_000,
                to_khz: 960_000,
                requested_khz: 912_000,
            },
        );
        t.emit(40_000, EventData::QuotaShrink { from: 1.0, to: 0.7 });
        let text = t.events_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = events_from_jsonl(&text).unwrap();
        assert_eq!(back, t.events());
        // Blank lines are tolerated; bad lines are located.
        assert_eq!(events_from_jsonl("\n\n").unwrap(), vec![]);
        let err = events_from_jsonl(&format!("{text}not json")).unwrap_err();
        assert!(err.message.starts_with("line 3"), "{err}");
    }
}
