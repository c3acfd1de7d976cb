//! # mobicore-telemetry
//!
//! The observability layer of the MobiCore reproduction: typed decision
//! events, cheap metrics, and per-run JSON manifests, plus the
//! `mobicore-inspect` CLI that reads them back.
//!
//! The thesis evaluates its governor by *recording* what the stock stack
//! does on a real phone (§3.1's sampling file: time, frequency, online
//! mask, utilization) and replaying the decisions offline. This crate is
//! that recording file for the simulator: every decision the simulated
//! stack makes — frequency change, hotplug, quota move, thermal or
//! bandwidth throttle — is emitted as a typed [`Event`] carrying the
//! inputs the decision keyed off, and every run can be summarized into a
//! [`RunManifest`] that diffs cleanly against any other run.
//!
//! Four design rules:
//!
//! * **zero-cost when disabled** — every [`Telemetry`] event or metric
//!   update is one branch when the sink is off; the simulator can keep
//!   its hot loop.
//! * **self-contained** — the [`json`] module carries its own writer and
//!   parser; no dependencies.
//! * **deterministic bytes** — same run, same manifest bytes (`BTreeMap`
//!   ordering everywhere), so golden-file tests and cross-run diffs work.
//! * **one taxonomy** — every event kind, with its fields, wire name and
//!   description, is declared once in [`event`]; the JSONL codec and the
//!   binary note codec of `mobicore-serve` are a [`FieldWriter`] and a
//!   [`FieldReader`] walking that declaration.
//!
//! ```
//! use mobicore_telemetry::{EventData, Telemetry};
//!
//! let mut t = Telemetry::enabled();
//! t.emit(20_000, EventData::QuotaShrink { from: 1.0, to: 0.7 });
//! let power = t.histogram_id("power_mw"); // resolve once ...
//! t.record_id(power, 812.0); // ... then update by handle
//! assert_eq!(t.metrics().histogram("power_mw").map(|h| h.count()), Some(1));
//! assert_eq!(t.event_counts().get("quota-shrink"), Some(&1));
//! let jsonl = t.events_jsonl();
//! assert!(jsonl.starts_with("{\"t_us\":20000,\"kind\":\"quota-shrink\""));
//! ```
//!
//! See `docs/observability.md` for the full event taxonomy, metric names
//! and the manifest schema.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod event;
pub mod json;
pub mod leaderboard;
pub mod manifest;
pub mod metrics;
pub mod sink;

pub use event::{Event, EventData, EventKind, FieldReader, FieldWriter};
pub use json::{Json, JsonError};
pub use leaderboard::{
    Leaderboard, LeaderboardDiff, LeaderboardEntry, PolicyDiffRow, PolicyStats, TOURNAMENT_KIND,
    TOURNAMENT_SCHEMA_VERSION,
};
pub use manifest::{git_describe, DiffRow, ManifestDiff, RunManifest, SCHEMA_VERSION};
pub use metrics::{CounterId, GaugeId, Histogram, HistogramId, MetricSet};
pub use sink::{events_from_jsonl, events_to_jsonl, Telemetry, DEFAULT_MAX_EVENTS};
