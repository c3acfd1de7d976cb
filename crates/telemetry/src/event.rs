//! The typed event taxonomy — one variant per kind of decision the
//! CPU-management stack makes.
//!
//! Each event carries the *inputs* of the decision, not just the outcome,
//! so a trace answers "why did the governor do that" the way the thesis'
//! §3.1 recording file answers it for the real phone.
//!
//! The taxonomy is declared once, in the `taxonomy!` invocation below:
//! each kind's variant, typed fields, wire name and description. Every
//! list keyed by kind is generated from it — [`EventKind`] and
//! [`EventKind::ALL`], [`EventKind::name`], [`EventKind::description`],
//! [`EventData::kind`] — and so are the two field walkers,
//! [`EventData::write_fields`] and [`EventData::read_fields`]. The JSONL
//! codec here ([`Event::to_json`], [`Event::from_json_line`]) and the
//! binary Decision-note codec of `mobicore-serve` are a [`FieldWriter`]
//! and a [`FieldReader`] over those walkers, so neither knows a field
//! list. `docs/observability.md` documents every kind and a test asserts
//! the two stay in sync.

use crate::json::{Json, JsonError};

/// Receives an event's fields from [`EventData::write_fields`], one call
/// per field in declaration order, each with the field's name.
pub trait FieldWriter {
    /// A `u64` field.
    fn u64(&mut self, name: &'static str, v: u64);
    /// A `u32` field.
    fn u32(&mut self, name: &'static str, v: u32);
    /// An `f64` field.
    fn f64(&mut self, name: &'static str, v: f64);
    /// A `bool` field.
    fn bool(&mut self, name: &'static str, v: bool);
    /// A string field.
    fn str(&mut self, name: &'static str, v: &str);
    /// A `usize` field, written as a `u64`.
    fn usize(&mut self, name: &'static str, v: usize) {
        self.u64(name, v as u64);
    }
}

/// Supplies an event's fields to [`EventData::read_fields`], one call per
/// field in declaration order, each with the field's name. Every method
/// fails with the codec's error for a missing or malformed field.
pub trait FieldReader {
    /// Why a field could not be read.
    type Error;
    /// A `u64` field.
    fn u64(&mut self, name: &'static str) -> Result<u64, Self::Error>;
    /// A `u32` field.
    fn u32(&mut self, name: &'static str) -> Result<u32, Self::Error>;
    /// An `f64` field.
    fn f64(&mut self, name: &'static str) -> Result<f64, Self::Error>;
    /// A `bool` field.
    fn bool(&mut self, name: &'static str) -> Result<bool, Self::Error>;
    /// A string field.
    fn str(&mut self, name: &'static str) -> Result<String, Self::Error>;
    /// A `usize` field, read as a `u64` and saturated.
    fn usize(&mut self, name: &'static str) -> Result<usize, Self::Error> {
        self.u64(name)
            .map(|v| usize::try_from(v).unwrap_or(usize::MAX))
    }
}

/// Declares the payload enum as written, each variant led by
/// `#[kind("wire-name", "Description.")]`, and generates [`EventKind`]
/// and everything else keyed by kind from it. Declaration order is the
/// order of [`EventKind::ALL`], of the JSONL members and of the binary
/// note fields. A field's type picks its walker method: `String` goes
/// through `str`, every other type (`u64`, `usize`, `u32`, `f64`,
/// `bool`) through the method of its own name. `tests/observability_docs.rs`
/// checks docs/observability.md and the note-tag table of
/// docs/serving.md against [`EventKind::ALL`], so a new kind needs its
/// rows there too.
macro_rules! taxonomy {
    (@write String, $w:ident, $field:ident) => {
        $w.str(stringify!($field), $field)
    };
    (@write $ty:ident, $w:ident, $field:ident) => {
        $w.$ty(stringify!($field), *$field)
    };
    (@read String, $r:ident, $field:ident) => {
        $r.str(stringify!($field))?
    };
    (@read $ty:ident, $r:ident, $field:ident) => {
        $r.$ty(stringify!($field))?
    };
    (
        $(#[$meta:meta])*
        pub enum $data:ident {$(
            $(#[doc = $doc:literal])*
            #[kind($name:literal, $description:literal)]
            $kind:ident {$(
                $(#[doc = $field_doc:literal])*
                $field:ident: $ty:ident,
            )*},
        )*}
    ) => {
        $(#[$meta])*
        pub enum $data {$(
            $(#[doc = $doc])*
            $kind {$(
                $(#[doc = $field_doc])*
                $field: $ty,
            )*},
        )*}

        /// The kind of an [`Event`] — a fieldless mirror of [`EventData`]
        /// used for filtering, counting, and the wire format's `kind`
        /// member.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum EventKind {$(
            #[doc = $description]
            $kind,
        )*}

        impl EventKind {
            /// Every kind, in declaration order.
            pub const ALL: [EventKind; [$(EventKind::$kind),*].len()] = [$(EventKind::$kind),*];

            /// The stable wire name (`kind` member of a JSONL line, the
            /// argument of `mobicore-inspect events --kind`).
            pub fn name(self) -> &'static str {
                match self {$(EventKind::$kind => $name,)*}
            }

            /// One-line human description of the kind — the text the
            /// docs/observability.md taxonomy tables carry (a test asserts
            /// the doc and this method stay in sync, descriptions
            /// included).
            pub fn description(self) -> &'static str {
                match self {$(EventKind::$kind => $description,)*}
            }
        }

        impl $data {
            /// The fieldless kind of this payload.
            pub fn kind(&self) -> EventKind {
                match self {$($data::$kind { .. } => EventKind::$kind,)*}
            }

            /// Hands every field to `w`, in declaration order.
            pub fn write_fields<W: FieldWriter>(&self, w: &mut W) {
                match self {$(
                    $data::$kind { $($field),* } => {
                        $(taxonomy!(@write $ty, w, $field);)*
                    }
                )*}
            }

            /// Builds a payload of `kind` from `r`, reading its fields in
            /// declaration order.
            ///
            /// # Errors
            ///
            /// The first error `r` reports.
            pub fn read_fields<R: FieldReader>(kind: EventKind, r: &mut R) -> Result<Self, R::Error> {
                Ok(match kind {$(
                    EventKind::$kind => $data::$kind {
                        $($field: taxonomy!(@read $ty, r, $field),)*
                    },
                )*})
            }
        }
    };
}

taxonomy! {
    /// The payload of one event: the decision plus the inputs it keyed off.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EventData {
        /// A core's DVFS target changed.
        #[kind("freq-change", "A core's DVFS target actually changed.")]
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
        #[kind("core-online", "A core came online (hotplug-in accepted).")]
        CoreOnline {
            /// The core.
            core: usize,
        },
        /// A core went offline.
        #[kind("core-offline", "A core went offline (hotplug-out accepted).")]
        CoreOffline {
            /// The core.
            core: usize,
        },
        /// An offline request was vetoed.
        #[kind("hotplug-vetoed", "An offline request was vetoed (core 0 or `mpdecision` running).")]
        HotplugVetoed {
            /// The core the policy tried to off-line.
            core: usize,
            /// Whether the veto came from `mpdecision` (else: core 0).
            mpdecision: bool,
        },
        /// A hotplug policy decided to change the online-core count.
        #[kind("hotplug-decision", "A hotplug policy decided to change the online-core count.")]
        HotplugDecision {
            /// Name of the deciding policy.
            policy: String,
            /// Online cores when the decision was made.
            online_now: usize,
            /// Online cores the policy wants.
            want: usize,
        },
        /// The bandwidth quota shrank.
        #[kind("quota-shrink", "The bandwidth quota shrank.")]
        QuotaShrink {
            /// Quota before, fraction of full bandwidth.
            from: f64,
            /// Quota after.
            to: f64,
        },
        /// The bandwidth quota grew back.
        #[kind("quota-restore", "The bandwidth quota grew back.")]
        QuotaRestore {
            /// Quota before, fraction of full bandwidth.
            from: f64,
            /// Quota after.
            to: f64,
        },
        /// The thermal engine stepped the OPP cap down.
        #[kind("thermal-throttle", "The thermal engine stepped the OPP cap down.")]
        ThermalThrottle {
            /// The new OPP-index cap.
            cap_opp: usize,
            /// Package temperature at the decision, °C.
            temp_c: f64,
        },
        /// The thermal engine stepped the OPP cap back up.
        #[kind("thermal-clear", "The thermal engine stepped the OPP cap back up.")]
        ThermalClear {
            /// The new OPP-index cap.
            cap_opp: usize,
            /// Package temperature at the decision, °C.
            temp_c: f64,
        },
        /// The CFS bandwidth pool started denying runtime (edge-triggered:
        /// emitted when a throttled tick follows an unthrottled one).
        #[kind("bw-throttle", "The CFS bandwidth pool started denying runtime.")]
        BwThrottle {
            /// Runtime denied in the triggering tick, µs.
            denied_us: u64,
        },
        /// One MobiCore sampling decision.
        #[kind("policy-decision", "One MobiCore Figure-8 sampling decision (quota + cores + freq).")]
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
        #[kind("dvfs-decision", "One stock-governor DVFS decision.")]
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
        #[kind("conn-accepted", "The serve daemon accepted a client connection.")]
        ConnAccepted {
            /// Server-assigned connection id (monotonic per daemon run).
            conn: u64,
        },
        /// A client connection closed (gracefully or not).
        #[kind("conn-closed", "A client connection closed (gracefully or not).")]
        ConnClosed {
            /// The connection id.
            conn: u64,
            /// Frames received over the connection's lifetime.
            frames_in: u64,
            /// Frames sent over the connection's lifetime.
            frames_out: u64,
        },
        /// A serve session completed its handshake.
        #[kind("session-start", "A serve session completed its handshake.")]
        SessionStart {
            /// Server-assigned session id.
            session: u64,
            /// The resolved policy serving the session.
            policy: String,
        },
        /// A serve session ended.
        #[kind("session-end", "A serve session ended (ByeAck sent, or forced close).")]
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
        #[kind("backpressure", "A session crossed its queue budget (rising edge only).")]
        Backpressure {
            /// The session id.
            session: u64,
            /// Complete frames queued beyond the serviced budget.
            queued: u64,
            /// The configured per-session queue budget.
            limit: u64,
        },
        /// The serve daemon began graceful shutdown (drain started).
        #[kind("serve-shutdown", "The serve daemon began graceful shutdown (drain started).")]
        ServeShutdown {
            /// Sessions still in flight when the drain began.
            active_sessions: u64,
        },
        /// The router bound a session key to a shard (one event per
        /// routed session, i.e. per accepted Route frame).
        #[kind("shard-routed", "The router bound a session key to a shard.")]
        ShardRouted {
            /// The router-side connection id carrying the session.
            conn: u64,
            /// The session key the client asked to place.
            key: u64,
            /// The winning shard's stable name.
            shard: String,
        },
        /// Per-shard rollup of one routed load run.
        #[kind("fleet-shard-summary", "Per-shard rollup of one routed load run.")]
        FleetShardSummary {
            /// The shard's stable name.
            shard: String,
            /// Device sessions the fleet run placed on this shard.
            sessions: u64,
            /// Decisions those sessions received.
            decisions: u64,
        },
    }
}

impl EventKind {
    /// Position of the kind in [`EventKind::ALL`] (the declaration
    /// order).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`EventKind::name`]: `None` for a name no kind has.
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
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

    /// Encodes the event as one compact JSON object (one JSONL line):
    /// `t_us`, `kind`, then the payload fields as members.
    pub fn to_json(&self) -> Json {
        let mut members = JsonMembers(Vec::new());
        members.u64("t_us", self.t_us);
        members.str("kind", self.kind().name());
        self.data.write_fields(&mut members);
        Json::Obj(members.0)
    }

    /// Decodes one JSONL line produced by [`Event::to_json`].
    ///
    /// # Errors
    ///
    /// [`JsonError`] on malformed JSON, an unknown `kind`, or missing /
    /// mistyped members.
    pub fn from_json_line(line: &str) -> Result<Event, JsonError> {
        let doc = Json::parse(line)?;
        let mut members = JsonLine(&doc);
        let t_us = members.u64("t_us")?;
        let kind_name = members.get("kind", Json::as_str)?;
        let kind = EventKind::from_name(kind_name).ok_or_else(|| JsonError {
            offset: 0,
            message: format!("unknown event kind `{kind_name}`"),
        })?;
        let data = EventData::read_fields(kind, &mut members)?;
        Ok(Event { t_us, data })
    }
}

/// The JSONL writer: each field becomes a member of its name. Integers
/// are written as their exact decimal digits, whatever their size.
struct JsonMembers(Vec<(String, Json)>);

impl FieldWriter for JsonMembers {
    fn u64(&mut self, name: &'static str, v: u64) {
        self.0.push((name.to_string(), Json::Int(v)));
    }
    fn u32(&mut self, name: &'static str, v: u32) {
        self.u64(name, u64::from(v));
    }
    fn f64(&mut self, name: &'static str, v: f64) {
        self.0.push((name.to_string(), Json::Num(v)));
    }
    fn bool(&mut self, name: &'static str, v: bool) {
        self.0.push((name.to_string(), Json::Bool(v)));
    }
    fn str(&mut self, name: &'static str, v: &str) {
        self.0.push((name.to_string(), Json::Str(v.to_string())));
    }
}

/// The JSONL reader: each field is the member of its name. Integers
/// too wide for their field saturate.
struct JsonLine<'a>(&'a Json);

impl<'a> JsonLine<'a> {
    fn get<T>(&self, name: &str, as_t: impl FnOnce(&'a Json) -> Option<T>) -> Result<T, JsonError> {
        self.0.get(name).and_then(as_t).ok_or_else(|| JsonError {
            offset: 0,
            message: format!("event line is missing or mistypes `{name}`"),
        })
    }
}

impl FieldReader for JsonLine<'_> {
    type Error = JsonError;
    fn u64(&mut self, name: &'static str) -> Result<u64, JsonError> {
        self.get(name, Json::as_u64)
    }
    fn u32(&mut self, name: &'static str) -> Result<u32, JsonError> {
        self.u64(name).map(|v| u32::try_from(v).unwrap_or(u32::MAX))
    }
    fn f64(&mut self, name: &'static str) -> Result<f64, JsonError> {
        self.get(name, Json::as_f64)
    }
    fn bool(&mut self, name: &'static str) -> Result<bool, JsonError> {
        self.get(name, Json::as_bool)
    }
    fn str(&mut self, name: &'static str) -> Result<String, JsonError> {
        self.get(name, |v| v.as_str().map(str::to_string))
    }
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
    fn jsonl_bytes_are_pinned() {
        // Key order and number formatting of every kind, frozen: a round
        // trip alone would not notice either of them changing.
        let got: String = samples()
            .iter()
            .map(|e| e.to_json().to_compact() + "\n")
            .collect();
        let want = concat!(
            r#"{"t_us":20000,"kind":"freq-change","core":2,"from_khz":300000,"to_khz":960000,"requested_khz":912345}"#,
            "\n",
            r#"{"t_us":40000,"kind":"core-offline","core":3}"#,
            "\n",
            r#"{"t_us":40000,"kind":"hotplug-vetoed","core":1,"mpdecision":true}"#,
            "\n",
            r#"{"t_us":60000,"kind":"quota-shrink","from":1,"to":0.62}"#,
            "\n",
            r#"{"t_us":80000,"kind":"thermal-throttle","cap_opp":11,"temp_c":42.3}"#,
            "\n",
            r#"{"t_us":90000,"kind":"bw-throttle","denied_us":750}"#,
            "\n",
            r#"{"t_us":100000,"kind":"policy-decision","policy":"mobicore","mode":"slow","util_pct":23.5,"quota":0.62,"target_online":2,"f_khz":960000}"#,
            "\n",
            r#"{"t_us":120000,"kind":"dvfs-decision","governor":"ondemand","util_pct":81,"from_khz":960000,"to_khz":2265600}"#,
            "\n",
            r#"{"t_us":140000,"kind":"hotplug-decision","policy":"default-hotplug","online_now":4,"want":2}"#,
            "\n",
            r#"{"t_us":160000,"kind":"core-online","core":3}"#,
            "\n",
            r#"{"t_us":180000,"kind":"quota-restore","from":0.62,"to":1}"#,
            "\n",
            r#"{"t_us":200000,"kind":"thermal-clear","cap_opp":13,"temp_c":39.9}"#,
            "\n",
            r#"{"t_us":210000,"kind":"conn-accepted","conn":17}"#,
            "\n",
            r#"{"t_us":220000,"kind":"session-start","session":17,"policy":"mobicore"}"#,
            "\n",
            r#"{"t_us":230000,"kind":"backpressure","session":17,"queued":80,"limit":64}"#,
            "\n",
            r#"{"t_us":240000,"kind":"session-end","session":17,"decisions":512,"drained":true}"#,
            "\n",
            r#"{"t_us":250000,"kind":"conn-closed","conn":17,"frames_in":514,"frames_out":515}"#,
            "\n",
            r#"{"t_us":260000,"kind":"serve-shutdown","active_sessions":3}"#,
            "\n",
            r#"{"t_us":270000,"kind":"shard-routed","conn":17,"key":9001,"shard":"s1"}"#,
            "\n",
            r#"{"t_us":280000,"kind":"fleet-shard-summary","shard":"s1","sessions":50000,"decisions":100000}"#,
            "\n",
        );
        assert_eq!(got, want);
    }

    #[test]
    fn u64_fields_round_trip_past_2_pow_53() {
        for key in [(1u64 << 53) + 1, u64::MAX] {
            let e = Event {
                t_us: u64::MAX - 1,
                data: EventData::ShardRouted {
                    conn: 17,
                    key,
                    shard: "s1".into(),
                },
            };
            let line = e.to_json().to_compact();
            assert!(line.contains(&format!(r#""key":{key},"#)), "{line}");
            assert_eq!(Event::from_json_line(&line), Ok(e), "{line}");
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
