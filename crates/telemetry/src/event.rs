//! The typed event taxonomy — one variant per kind of decision the
//! CPU-management stack makes.
//!
//! Each event carries the *inputs* of the decision, not just the outcome,
//! so a trace answers "why did the governor do that" the way the thesis'
//! §3.1 recording file answers it for the real phone. The kinds are
//! enumerated by [`EventKind::ALL`]; `docs/observability.md` documents
//! every kind and a test asserts the two stay in sync.

use crate::json::{Json, JsonError};

/// The kind of an [`Event`] — a fieldless mirror of [`EventData`] used
/// for filtering, counting, and the wire format's `kind` member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A core's DVFS target actually changed.
    FreqChange,
    /// A core came online (hotplug-in accepted).
    CoreOnline,
    /// A core went offline (hotplug-out accepted).
    CoreOffline,
    /// An offline request was vetoed (core 0 or `mpdecision` running).
    HotplugVetoed,
    /// A hotplug policy decided to change the online-core count.
    HotplugDecision,
    /// The bandwidth quota shrank.
    QuotaShrink,
    /// The bandwidth quota grew back.
    QuotaRestore,
    /// The thermal engine stepped the OPP cap down.
    ThermalThrottle,
    /// The thermal engine stepped the OPP cap back up.
    ThermalClear,
    /// The CFS bandwidth pool started denying runtime.
    BwThrottle,
    /// One MobiCore Figure-8 sampling decision (quota + cores + freq).
    PolicyDecision,
    /// One stock-governor DVFS decision.
    DvfsDecision,
    /// The serve daemon accepted a client connection.
    ConnAccepted,
    /// A client connection closed (gracefully or not).
    ConnClosed,
    /// A serve session completed its handshake.
    SessionStart,
    /// A serve session ended (ByeAck sent, or forced close).
    SessionEnd,
    /// A session crossed its queue budget (rising edge only).
    Backpressure,
    /// The serve daemon began graceful shutdown (drain started).
    ServeShutdown,
    /// The router bound a session key to a shard.
    ShardRouted,
    /// Per-shard rollup of one routed load run.
    FleetShardSummary,
}

impl EventKind {
    /// Every kind, in a stable order.
    pub const ALL: [EventKind; 20] = [
        EventKind::FreqChange,
        EventKind::CoreOnline,
        EventKind::CoreOffline,
        EventKind::HotplugVetoed,
        EventKind::HotplugDecision,
        EventKind::QuotaShrink,
        EventKind::QuotaRestore,
        EventKind::ThermalThrottle,
        EventKind::ThermalClear,
        EventKind::BwThrottle,
        EventKind::PolicyDecision,
        EventKind::DvfsDecision,
        EventKind::ConnAccepted,
        EventKind::ConnClosed,
        EventKind::SessionStart,
        EventKind::SessionEnd,
        EventKind::Backpressure,
        EventKind::ServeShutdown,
        EventKind::ShardRouted,
        EventKind::FleetShardSummary,
    ];

    /// The stable wire name (`kind` member of a JSONL line, the argument
    /// of `mobicore-inspect events --kind`).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::FreqChange => "freq-change",
            EventKind::CoreOnline => "core-online",
            EventKind::CoreOffline => "core-offline",
            EventKind::HotplugVetoed => "hotplug-vetoed",
            EventKind::HotplugDecision => "hotplug-decision",
            EventKind::QuotaShrink => "quota-shrink",
            EventKind::QuotaRestore => "quota-restore",
            EventKind::ThermalThrottle => "thermal-throttle",
            EventKind::ThermalClear => "thermal-clear",
            EventKind::BwThrottle => "bw-throttle",
            EventKind::PolicyDecision => "policy-decision",
            EventKind::DvfsDecision => "dvfs-decision",
            EventKind::ConnAccepted => "conn-accepted",
            EventKind::ConnClosed => "conn-closed",
            EventKind::SessionStart => "session-start",
            EventKind::SessionEnd => "session-end",
            EventKind::Backpressure => "backpressure",
            EventKind::ServeShutdown => "serve-shutdown",
            EventKind::ShardRouted => "shard-routed",
            EventKind::FleetShardSummary => "fleet-shard-summary",
        }
    }

    /// Position of the kind in [`EventKind::ALL`] (the declaration
    /// order).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`EventKind::name`]. Additionally accepts `hotplug` as
    /// an umbrella for the four hotplug-related kinds in filters.
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// One-line human description of the kind — the text the
    /// docs/observability.md taxonomy tables carry (a test asserts the
    /// doc and this method stay in sync, descriptions included).
    pub fn description(self) -> &'static str {
        match self {
            EventKind::FreqChange => "A core's DVFS target actually changed.",
            EventKind::CoreOnline => "A core came online (hotplug-in accepted).",
            EventKind::CoreOffline => "A core went offline (hotplug-out accepted).",
            EventKind::HotplugVetoed => {
                "An offline request was vetoed (core 0 or `mpdecision` running)."
            }
            EventKind::HotplugDecision => {
                "A hotplug policy decided to change the online-core count."
            }
            EventKind::QuotaShrink => "The bandwidth quota shrank.",
            EventKind::QuotaRestore => "The bandwidth quota grew back.",
            EventKind::ThermalThrottle => "The thermal engine stepped the OPP cap down.",
            EventKind::ThermalClear => "The thermal engine stepped the OPP cap back up.",
            EventKind::BwThrottle => "The CFS bandwidth pool started denying runtime.",
            EventKind::PolicyDecision => {
                "One MobiCore Figure-8 sampling decision (quota + cores + freq)."
            }
            EventKind::DvfsDecision => "One stock-governor DVFS decision.",
            EventKind::ConnAccepted => "The serve daemon accepted a client connection.",
            EventKind::ConnClosed => "A client connection closed (gracefully or not).",
            EventKind::SessionStart => "A serve session completed its handshake.",
            EventKind::SessionEnd => "A serve session ended (ByeAck sent, or forced close).",
            EventKind::Backpressure => "A session crossed its queue budget (rising edge only).",
            EventKind::ServeShutdown => "The serve daemon began graceful shutdown (drain started).",
            EventKind::ShardRouted => "The router bound a session key to a shard.",
            EventKind::FleetShardSummary => "Per-shard rollup of one routed load run.",
        }
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The payload of one event: the decision plus the inputs it keyed off.
#[derive(Debug, Clone, PartialEq)]
pub enum EventData {
    /// A core's DVFS target changed.
    FreqChange {
        /// The core.
        core: usize,
        /// Previous target, kHz.
        from_khz: u32,
        /// New (OPP-snapped) target, kHz.
        to_khz: u32,
        /// What the policy asked for before snapping, kHz.
        requested_khz: u32,
    },
    /// A core came online.
    CoreOnline {
        /// The core.
        core: usize,
    },
    /// A core went offline.
    CoreOffline {
        /// The core.
        core: usize,
    },
    /// An offline request was vetoed.
    HotplugVetoed {
        /// The core the policy tried to off-line.
        core: usize,
        /// Whether the veto came from `mpdecision` (else: core 0).
        mpdecision: bool,
    },
    /// A hotplug policy decided to change the online-core count.
    HotplugDecision {
        /// Name of the deciding policy.
        policy: String,
        /// Online cores when the decision was made.
        online_now: usize,
        /// Online cores the policy wants.
        want: usize,
    },
    /// The bandwidth quota shrank.
    QuotaShrink {
        /// Quota before, fraction of full bandwidth.
        from: f64,
        /// Quota after.
        to: f64,
    },
    /// The bandwidth quota grew back.
    QuotaRestore {
        /// Quota before, fraction of full bandwidth.
        from: f64,
        /// Quota after.
        to: f64,
    },
    /// The thermal engine stepped the OPP cap down.
    ThermalThrottle {
        /// The new OPP-index cap.
        cap_opp: usize,
        /// Package temperature at the decision, °C.
        temp_c: f64,
    },
    /// The thermal engine stepped the OPP cap back up.
    ThermalClear {
        /// The new OPP-index cap.
        cap_opp: usize,
        /// Package temperature at the decision, °C.
        temp_c: f64,
    },
    /// The CFS bandwidth pool started denying runtime (edge-triggered:
    /// emitted when a throttled tick follows an unthrottled one).
    BwThrottle {
        /// Runtime denied in the triggering tick, µs.
        denied_us: u64,
    },
    /// One MobiCore sampling decision.
    PolicyDecision {
        /// Policy name (`mobicore`, `mobicore-optpoint`, ...).
        policy: String,
        /// The Table-2 workload-mode classification.
        mode: String,
        /// Overall utilization `K` the decision keyed off, percent.
        util_pct: f64,
        /// The installed quota, fraction of full bandwidth.
        quota: f64,
        /// Online cores after the DCS pass.
        target_online: usize,
        /// The per-core frequency issued, kHz.
        f_khz: u32,
    },
    /// One stock-governor DVFS decision.
    DvfsDecision {
        /// Governor name (`ondemand`, `interactive`, ...).
        governor: String,
        /// Overall utilization the governor keyed off, percent.
        util_pct: f64,
        /// Cluster frequency before, kHz.
        from_khz: u32,
        /// Cluster target after, kHz.
        to_khz: u32,
    },
    /// The serve daemon accepted a client connection.
    ConnAccepted {
        /// Server-assigned connection id (monotonic per daemon run).
        conn: u64,
    },
    /// A client connection closed (gracefully or not).
    ConnClosed {
        /// The connection id.
        conn: u64,
        /// Frames received over the connection's lifetime.
        frames_in: u64,
        /// Frames sent over the connection's lifetime.
        frames_out: u64,
    },
    /// A serve session completed its handshake.
    SessionStart {
        /// Server-assigned session id.
        session: u64,
        /// The resolved policy serving the session.
        policy: String,
    },
    /// A serve session ended.
    SessionEnd {
        /// The session id.
        session: u64,
        /// Decisions served over the session's lifetime.
        decisions: u64,
        /// Whether the session ended cleanly (Bye/ByeAck handshake, as
        /// opposed to an abort, timeout, or drain-deadline close).
        drained: bool,
    },
    /// A session's pipelined input crossed its queue budget (emitted on
    /// the rising edge only; the matching Backpressure frame tells the
    /// client to slow down).
    Backpressure {
        /// The session id.
        session: u64,
        /// Complete frames queued beyond the serviced budget.
        queued: u64,
        /// The configured per-session queue budget.
        limit: u64,
    },
    /// The serve daemon began graceful shutdown (drain started).
    ServeShutdown {
        /// Sessions still in flight when the drain began.
        active_sessions: u64,
    },
    /// The router bound a session key to a shard (one event per
    /// routed session, i.e. per accepted Route frame).
    ShardRouted {
        /// The router-side connection id carrying the session.
        conn: u64,
        /// The session key the client asked to place.
        key: u64,
        /// The winning shard's stable name.
        shard: String,
    },
    /// Per-shard rollup of one routed load run.
    FleetShardSummary {
        /// The shard's stable name.
        shard: String,
        /// Device sessions the fleet run placed on this shard.
        sessions: u64,
        /// Decisions those sessions received.
        decisions: u64,
    },
}

impl EventData {
    /// The fieldless kind of this payload.
    pub fn kind(&self) -> EventKind {
        match self {
            EventData::FreqChange { .. } => EventKind::FreqChange,
            EventData::CoreOnline { .. } => EventKind::CoreOnline,
            EventData::CoreOffline { .. } => EventKind::CoreOffline,
            EventData::HotplugVetoed { .. } => EventKind::HotplugVetoed,
            EventData::HotplugDecision { .. } => EventKind::HotplugDecision,
            EventData::QuotaShrink { .. } => EventKind::QuotaShrink,
            EventData::QuotaRestore { .. } => EventKind::QuotaRestore,
            EventData::ThermalThrottle { .. } => EventKind::ThermalThrottle,
            EventData::ThermalClear { .. } => EventKind::ThermalClear,
            EventData::BwThrottle { .. } => EventKind::BwThrottle,
            EventData::PolicyDecision { .. } => EventKind::PolicyDecision,
            EventData::DvfsDecision { .. } => EventKind::DvfsDecision,
            EventData::ConnAccepted { .. } => EventKind::ConnAccepted,
            EventData::ConnClosed { .. } => EventKind::ConnClosed,
            EventData::SessionStart { .. } => EventKind::SessionStart,
            EventData::SessionEnd { .. } => EventKind::SessionEnd,
            EventData::Backpressure { .. } => EventKind::Backpressure,
            EventData::ServeShutdown { .. } => EventKind::ServeShutdown,
            EventData::ShardRouted { .. } => EventKind::ShardRouted,
            EventData::FleetShardSummary { .. } => EventKind::FleetShardSummary,
        }
    }
}

/// One timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation time the decision was applied, µs.
    pub t_us: u64,
    /// The decision and its inputs.
    pub data: EventData,
}

impl Event {
    /// The event's kind.
    pub fn kind(&self) -> EventKind {
        self.data.kind()
    }

    /// Encodes the event as one compact JSON object (one JSONL line).
    pub fn to_json(&self) -> Json {
        let base = Json::obj()
            .with("t_us", num_u64(self.t_us))
            .with("kind", Json::Str(self.kind().name().to_string()));
        match &self.data {
            EventData::FreqChange {
                core,
                from_khz,
                to_khz,
                requested_khz,
            } => base
                .with("core", num_usize(*core))
                .with("from_khz", Json::Num(f64::from(*from_khz)))
                .with("to_khz", Json::Num(f64::from(*to_khz)))
                .with("requested_khz", Json::Num(f64::from(*requested_khz))),
            EventData::CoreOnline { core } | EventData::CoreOffline { core } => {
                base.with("core", num_usize(*core))
            }
            EventData::HotplugVetoed { core, mpdecision } => base
                .with("core", num_usize(*core))
                .with("mpdecision", Json::Bool(*mpdecision)),
            EventData::HotplugDecision {
                policy,
                online_now,
                want,
            } => base
                .with("policy", Json::Str(policy.clone()))
                .with("online_now", num_usize(*online_now))
                .with("want", num_usize(*want)),
            EventData::QuotaShrink { from, to } | EventData::QuotaRestore { from, to } => base
                .with("from", Json::Num(*from))
                .with("to", Json::Num(*to)),
            EventData::ThermalThrottle { cap_opp, temp_c }
            | EventData::ThermalClear { cap_opp, temp_c } => base
                .with("cap_opp", num_usize(*cap_opp))
                .with("temp_c", Json::Num(*temp_c)),
            EventData::BwThrottle { denied_us } => base.with("denied_us", num_u64(*denied_us)),
            EventData::PolicyDecision {
                policy,
                mode,
                util_pct,
                quota,
                target_online,
                f_khz,
            } => base
                .with("policy", Json::Str(policy.clone()))
                .with("mode", Json::Str(mode.clone()))
                .with("util_pct", Json::Num(*util_pct))
                .with("quota", Json::Num(*quota))
                .with("target_online", num_usize(*target_online))
                .with("f_khz", Json::Num(f64::from(*f_khz))),
            EventData::DvfsDecision {
                governor,
                util_pct,
                from_khz,
                to_khz,
            } => base
                .with("governor", Json::Str(governor.clone()))
                .with("util_pct", Json::Num(*util_pct))
                .with("from_khz", Json::Num(f64::from(*from_khz)))
                .with("to_khz", Json::Num(f64::from(*to_khz))),
            EventData::ConnAccepted { conn } => base.with("conn", num_u64(*conn)),
            EventData::ConnClosed {
                conn,
                frames_in,
                frames_out,
            } => base
                .with("conn", num_u64(*conn))
                .with("frames_in", num_u64(*frames_in))
                .with("frames_out", num_u64(*frames_out)),
            EventData::SessionStart { session, policy } => base
                .with("session", num_u64(*session))
                .with("policy", Json::Str(policy.clone())),
            EventData::SessionEnd {
                session,
                decisions,
                drained,
            } => base
                .with("session", num_u64(*session))
                .with("decisions", num_u64(*decisions))
                .with("drained", Json::Bool(*drained)),
            EventData::Backpressure {
                session,
                queued,
                limit,
            } => base
                .with("session", num_u64(*session))
                .with("queued", num_u64(*queued))
                .with("limit", num_u64(*limit)),
            EventData::ServeShutdown { active_sessions } => {
                base.with("active_sessions", num_u64(*active_sessions))
            }
            EventData::ShardRouted { conn, key, shard } => base
                .with("conn", num_u64(*conn))
                .with("key", num_u64(*key))
                .with("shard", Json::Str(shard.clone())),
            EventData::FleetShardSummary {
                shard,
                sessions,
                decisions,
            } => base
                .with("shard", Json::Str(shard.clone()))
                .with("sessions", num_u64(*sessions))
                .with("decisions", num_u64(*decisions)),
        }
    }

    /// Decodes one JSONL line produced by [`Event::to_json`].
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON, an unknown `kind`, or missing /
    /// mistyped members.
    pub fn from_json_line(line: &str) -> Result<Event, JsonError> {
        let doc = Json::parse(line)?;
        let field_err = |what: &str| JsonError {
            offset: 0,
            message: format!("event line is missing or mistypes `{what}`"),
        };
        let t_us = doc
            .get("t_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| field_err("t_us"))?;
        let kind_name = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| field_err("kind"))?;
        let kind = EventKind::from_name(kind_name).ok_or_else(|| JsonError {
            offset: 0,
            message: format!("unknown event kind `{kind_name}`"),
        })?;
        let u = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| field_err(k))
        };
        let us = |k: &str| u(k).map(|v| usize::try_from(v).unwrap_or(usize::MAX));
        let khz = |k: &str| u(k).map(|v| u32::try_from(v).unwrap_or(u32::MAX));
        let f = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| field_err(k))
        };
        let s = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| field_err(k))
        };
        let data = match kind {
            EventKind::FreqChange => EventData::FreqChange {
                core: us("core")?,
                from_khz: khz("from_khz")?,
                to_khz: khz("to_khz")?,
                requested_khz: khz("requested_khz")?,
            },
            EventKind::CoreOnline => EventData::CoreOnline { core: us("core")? },
            EventKind::CoreOffline => EventData::CoreOffline { core: us("core")? },
            EventKind::HotplugVetoed => EventData::HotplugVetoed {
                core: us("core")?,
                mpdecision: doc
                    .get("mpdecision")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| field_err("mpdecision"))?,
            },
            EventKind::HotplugDecision => EventData::HotplugDecision {
                policy: s("policy")?,
                online_now: us("online_now")?,
                want: us("want")?,
            },
            EventKind::QuotaShrink => EventData::QuotaShrink {
                from: f("from")?,
                to: f("to")?,
            },
            EventKind::QuotaRestore => EventData::QuotaRestore {
                from: f("from")?,
                to: f("to")?,
            },
            EventKind::ThermalThrottle => EventData::ThermalThrottle {
                cap_opp: us("cap_opp")?,
                temp_c: f("temp_c")?,
            },
            EventKind::ThermalClear => EventData::ThermalClear {
                cap_opp: us("cap_opp")?,
                temp_c: f("temp_c")?,
            },
            EventKind::BwThrottle => EventData::BwThrottle {
                denied_us: u("denied_us")?,
            },
            EventKind::PolicyDecision => EventData::PolicyDecision {
                policy: s("policy")?,
                mode: s("mode")?,
                util_pct: f("util_pct")?,
                quota: f("quota")?,
                target_online: us("target_online")?,
                f_khz: khz("f_khz")?,
            },
            EventKind::DvfsDecision => EventData::DvfsDecision {
                governor: s("governor")?,
                util_pct: f("util_pct")?,
                from_khz: khz("from_khz")?,
                to_khz: khz("to_khz")?,
            },
            EventKind::ConnAccepted => EventData::ConnAccepted { conn: u("conn")? },
            EventKind::ConnClosed => EventData::ConnClosed {
                conn: u("conn")?,
                frames_in: u("frames_in")?,
                frames_out: u("frames_out")?,
            },
            EventKind::SessionStart => EventData::SessionStart {
                session: u("session")?,
                policy: s("policy")?,
            },
            EventKind::SessionEnd => EventData::SessionEnd {
                session: u("session")?,
                decisions: u("decisions")?,
                drained: doc
                    .get("drained")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| field_err("drained"))?,
            },
            EventKind::Backpressure => EventData::Backpressure {
                session: u("session")?,
                queued: u("queued")?,
                limit: u("limit")?,
            },
            EventKind::ServeShutdown => EventData::ServeShutdown {
                active_sessions: u("active_sessions")?,
            },
            EventKind::ShardRouted => EventData::ShardRouted {
                conn: u("conn")?,
                key: u("key")?,
                shard: s("shard")?,
            },
            EventKind::FleetShardSummary => EventData::FleetShardSummary {
                shard: s("shard")?,
                sessions: u("sessions")?,
                decisions: u("decisions")?,
            },
        };
        Ok(Event { t_us, data })
    }
}

fn num_u64(v: u64) -> Json {
    // Timestamps and counts are far below 2^53; the cast is exact there.
    #[allow(clippy::cast_precision_loss)]
    Json::Num(v as f64)
}

fn num_usize(v: usize) -> Json {
    num_u64(v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event {
                t_us: 20_000,
                data: EventData::FreqChange {
                    core: 2,
                    from_khz: 300_000,
                    to_khz: 960_000,
                    requested_khz: 912_345,
                },
            },
            Event {
                t_us: 40_000,
                data: EventData::CoreOffline { core: 3 },
            },
            Event {
                t_us: 40_000,
                data: EventData::HotplugVetoed {
                    core: 1,
                    mpdecision: true,
                },
            },
            Event {
                t_us: 60_000,
                data: EventData::QuotaShrink {
                    from: 1.0,
                    to: 0.62,
                },
            },
            Event {
                t_us: 80_000,
                data: EventData::ThermalThrottle {
                    cap_opp: 11,
                    temp_c: 42.3,
                },
            },
            Event {
                t_us: 90_000,
                data: EventData::BwThrottle { denied_us: 750 },
            },
            Event {
                t_us: 100_000,
                data: EventData::PolicyDecision {
                    policy: "mobicore".into(),
                    mode: "slow".into(),
                    util_pct: 23.5,
                    quota: 0.62,
                    target_online: 2,
                    f_khz: 960_000,
                },
            },
            Event {
                t_us: 120_000,
                data: EventData::DvfsDecision {
                    governor: "ondemand".into(),
                    util_pct: 81.0,
                    from_khz: 960_000,
                    to_khz: 2_265_600,
                },
            },
            Event {
                t_us: 140_000,
                data: EventData::HotplugDecision {
                    policy: "default-hotplug".into(),
                    online_now: 4,
                    want: 2,
                },
            },
            Event {
                t_us: 160_000,
                data: EventData::CoreOnline { core: 3 },
            },
            Event {
                t_us: 180_000,
                data: EventData::QuotaRestore {
                    from: 0.62,
                    to: 1.0,
                },
            },
            Event {
                t_us: 200_000,
                data: EventData::ThermalClear {
                    cap_opp: 13,
                    temp_c: 39.9,
                },
            },
            Event {
                t_us: 210_000,
                data: EventData::ConnAccepted { conn: 17 },
            },
            Event {
                t_us: 220_000,
                data: EventData::SessionStart {
                    session: 17,
                    policy: "mobicore".into(),
                },
            },
            Event {
                t_us: 230_000,
                data: EventData::Backpressure {
                    session: 17,
                    queued: 80,
                    limit: 64,
                },
            },
            Event {
                t_us: 240_000,
                data: EventData::SessionEnd {
                    session: 17,
                    decisions: 512,
                    drained: true,
                },
            },
            Event {
                t_us: 250_000,
                data: EventData::ConnClosed {
                    conn: 17,
                    frames_in: 514,
                    frames_out: 515,
                },
            },
            Event {
                t_us: 260_000,
                data: EventData::ServeShutdown { active_sessions: 3 },
            },
            Event {
                t_us: 270_000,
                data: EventData::ShardRouted {
                    conn: 17,
                    key: 9_001,
                    shard: "s1".into(),
                },
            },
            Event {
                t_us: 280_000,
                data: EventData::FleetShardSummary {
                    shard: "s1".into(),
                    sessions: 50_000,
                    decisions: 100_000,
                },
            },
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        let events = samples();
        let kinds: std::collections::BTreeSet<&str> =
            events.iter().map(|e| e.kind().name()).collect();
        assert_eq!(
            kinds.len(),
            EventKind::ALL.len(),
            "sample set covers all kinds"
        );
        for e in events {
            let line = e.to_json().to_compact();
            let back = Event::from_json_line(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(back, e, "{line}");
        }
    }

    #[test]
    fn names_are_unique_and_invertible() {
        let mut seen = std::collections::BTreeSet::new();
        for k in EventKind::ALL {
            assert!(seen.insert(k.name()), "duplicate wire name {}", k.name());
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_name("warp-drive"), None);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, k) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i, "{}", k.name());
        }
    }

    #[test]
    fn descriptions_are_nonempty_unique_sentences() {
        // docs/observability.md embeds these verbatim (and the doc-sync
        // test compares character for character), so a sloppy one ships
        // straight into the docs.
        let mut seen = std::collections::BTreeSet::new();
        for k in EventKind::ALL {
            let d = k.description();
            assert!(!d.is_empty(), "{} has no description", k.name());
            assert!(
                d.ends_with('.'),
                "{} description is not a sentence: {d:?}",
                k.name()
            );
            assert!(seen.insert(d), "duplicate description {d:?}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "{}",
            r#"{"t_us":1}"#,
            r#"{"t_us":1,"kind":"warp-drive"}"#,
            r#"{"t_us":1,"kind":"freq-change"}"#,
            r#"{"t_us":"one","kind":"core-online","core":0}"#,
            "not json",
        ] {
            assert!(Event::from_json_line(bad).is_err(), "{bad}");
        }
    }
}
