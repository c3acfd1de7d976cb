//! Property-based tests for the wire codec — totality (no input ever
//! panics the decoder), typed rejection, round-trip identity of frames
//! and of every Decision note kind — and for the router's rendezvous
//! hashing (stable, balanced, minimal
//! partition of the key space).

use mobicore_model::{Khz, Quota, Utilization};
use mobicore_serve::protocol::{
    decode_frame, frame_bytes, has_complete_frame, Frame, MAX_FRAME_LEN, MAX_WIRE_STR,
};
use mobicore_serve::rendezvous_shard;
use mobicore_sim::{Command, CoreSnapshot, PolicySnapshot};
use mobicore_telemetry::{EventData, EventKind};
use proptest::prelude::*;

fn snapshot(
    now_us: u64,
    n_cores: usize,
    khz: u32,
    util: f64,
    quota: f64,
    temp: f64,
    mpdecision: bool,
) -> PolicySnapshot {
    PolicySnapshot {
        now_us,
        window_us: 20_000,
        cores: (0..n_cores)
            .map(|i| CoreSnapshot {
                online: i % 2 == 0,
                cur_khz: Khz(khz),
                target_khz: Khz(khz.saturating_add(100_000)),
                util: Utilization::new(util),
                busy_us: now_us % 20_000,
            })
            .collect(),
        overall_util: Utilization::new(util),
        quota: Quota::new(quota),
        mpdecision_enabled: mpdecision,
        max_runnable_threads: n_cores * 2,
        temp_c: temp,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Arbitrary bytes never panic the decoder: it returns a frame, an
    /// incomplete-input signal, or a typed error.
    #[test]
    fn decoder_total_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = decode_frame(&bytes); // must not panic
        let _ = has_complete_frame(&bytes); // must not panic
    }

    /// Garbage with a plausible length prefix never panics either (this
    /// exercises the payload parsers, not just the framing). The second
    /// half frames a Decision whose one note has a random tag and random
    /// fields, so the note decoder sees every tag, known or not.
    #[test]
    fn decoder_total_on_framed_garbage(
        ty in 0u8..=12,
        payload in proptest::collection::vec(0u8..=255, 0..128),
        seq in 0u64..=u64::MAX,
        note_tag in 0u8..=255,
    ) {
        let _ = decode_frame(&framed(ty, &payload)); // must not panic

        let mut decision = seq.to_le_bytes().to_vec();
        decision.extend_from_slice(&0u16.to_le_bytes()); // no commands
        decision.extend_from_slice(&1u16.to_le_bytes()); // one note
        decision.push(note_tag);
        decision.extend_from_slice(&payload);
        match decode_frame(&framed(0x04, &decision)) {
            Err(mobicore_serve::WireError::UnknownNoteTag(t)) => {
                prop_assert_eq!(t, note_tag);
                prop_assert!(usize::from(t) >= EventKind::ALL.len());
            }
            Ok(Some((Frame::Decision { notes, .. }, _))) => {
                prop_assert_eq!(notes[0].kind().index(), usize::from(note_tag));
            }
            _ => {}
        }
    }

    /// Every truncation of a valid frame is either "incomplete" (when
    /// the cut hits the framing) — never a panic, never a wrong frame.
    #[test]
    fn truncation_never_panics(
        cut in 0usize..4096,
        seq in 0u64..1_000_000,
        n_cores in 0usize..12,
    ) {
        let frame = Frame::Snapshot {
            seq,
            snap: snapshot(seq, n_cores, 960_000, 0.5, 0.8, 40.0, false),
        };
        let bytes = frame_bytes(&frame);
        let cut = cut.min(bytes.len().saturating_sub(1));
        if let Ok(Some(_)) = decode_frame(&bytes[..cut]) {
            prop_assert!(false, "decoded a frame from a strict prefix");
        }
    }

    /// A frame longer than the cap is rejected with a typed error, not
    /// buffered forever.
    #[test]
    fn oversized_length_prefix_rejected(extra in 1u32..1_000_000) {
        let len = MAX_FRAME_LEN.saturating_add(extra);
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0x03; 16]);
        prop_assert!(decode_frame(&bytes).is_err());
    }

    /// Hello/Error/GoingAway round-trip arbitrary strings (including
    /// the empty string and multi-byte UTF-8).
    #[test]
    fn string_frames_round_trip(
        policy in "[a-zA-Z0-9:._ é°-]{0,40}",
        profile in "[a-z0-9-]{0,24}",
        seed in 0u64..u64::MAX,
        code in 0u16..32,
    ) {
        for frame in [
            Frame::Hello { version: 1, policy: policy.clone(), profile: profile.clone(), seed },
            Frame::Error { code, message: policy.clone() },
            Frame::GoingAway { reason: profile.clone() },
        ] {
            let bytes = frame_bytes(&frame);
            let (back, used) = decode_frame(&bytes).expect("valid").expect("complete");
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(back, frame);
        }
    }

    /// Snapshot frames round-trip exactly: every f64 travels as raw
    /// bits, so the decoded snapshot is bit-identical — the foundation
    /// of the remote-equals-local determinism guarantee.
    #[test]
    fn snapshot_round_trips_bit_exact(
        seq in 0u64..u64::MAX,
        now_us in 0u64..u64::MAX / 2,
        n_cores in 0usize..16,
        khz in 100_000u32..3_000_000,
        util in 0.0f64..=1.0,
        quota in 0.0f64..=1.5,
        temp in -40.0f64..=125.0,
        mpdecision in proptest::prelude::any::<bool>(),
    ) {
        let frame = Frame::Snapshot {
            seq,
            snap: snapshot(now_us, n_cores, khz, util, quota, temp, mpdecision),
        };
        let bytes = frame_bytes(&frame);
        let (back, used) = decode_frame(&bytes).expect("valid").expect("complete");
        prop_assert_eq!(used, bytes.len());
        let Frame::Snapshot { seq: s2, snap } = back else {
            panic!("wrong frame type");
        };
        prop_assert_eq!(s2, seq);
        let Frame::Snapshot { snap: orig, .. } = frame else { unreachable!() };
        prop_assert_eq!(snap.now_us, orig.now_us);
        prop_assert_eq!(snap.cores.len(), orig.cores.len());
        for (a, b) in snap.cores.iter().zip(&orig.cores) {
            prop_assert_eq!(a.online, b.online);
            prop_assert_eq!(a.cur_khz, b.cur_khz);
            prop_assert_eq!(a.busy_us, b.busy_us);
            prop_assert_eq!(a.util.as_fraction().to_bits(), b.util.as_fraction().to_bits());
        }
        prop_assert_eq!(
            snap.overall_util.as_fraction().to_bits(),
            orig.overall_util.as_fraction().to_bits()
        );
        prop_assert_eq!(
            snap.quota.as_fraction().to_bits(),
            orig.quota.as_fraction().to_bits()
        );
        prop_assert_eq!(snap.temp_c.to_bits(), orig.temp_c.to_bits());
        prop_assert_eq!(snap.mpdecision_enabled, orig.mpdecision_enabled);
    }

    /// Decision frames round-trip commands and telemetry notes exactly.
    #[test]
    fn decision_round_trips(
        seq in 0u64..u64::MAX,
        khz in 100_000u32..3_000_000,
        core in 0usize..8,
        online in proptest::prelude::any::<bool>(),
        quota in 0.2f64..=1.0,
        n_repeat in 0usize..6,
    ) {
        let mut commands = vec![
            Command::SetFreq { core, khz: Khz(khz) },
            Command::SetFreqAll { khz: Khz(khz) },
            Command::SetOnline { core, online },
            Command::SetQuota(Quota::new(quota)),
        ];
        for _ in 0..n_repeat {
            commands.push(Command::SetFreqAll { khz: Khz(khz) });
        }
        let notes = vec![
            EventData::PolicyDecision {
                policy: "mobicore".to_string(),
                mode: "balanced".to_string(),
                util_pct: 50.0,
                quota,
                target_online: 2,
                f_khz: khz,
            },
        ];
        let frame = Frame::Decision { seq, commands, notes };
        let bytes = frame_bytes(&frame);
        let (back, used) = decode_frame(&bytes).expect("valid").expect("complete");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, frame);
    }

    /// Concatenated frames decode one at a time, in order, consuming
    /// exactly their own bytes — the stream invariant the session
    /// multiplexer relies on.
    #[test]
    fn stream_of_frames_decodes_in_order(seqs in proptest::collection::vec(0u64..1_000, 1..8)) {
        let mut stream = Vec::new();
        for &s in &seqs {
            stream.extend_from_slice(&frame_bytes(&Frame::Snapshot {
                seq: s,
                snap: snapshot(s, 4, 960_000, 0.25, 1.0, 35.0, true),
            }));
        }
        let mut pos = 0;
        for &s in &seqs {
            let (frame, used) = decode_frame(&stream[pos..]).expect("valid").expect("complete");
            pos += used;
            let Frame::Snapshot { seq, .. } = frame else {
                panic!("wrong frame type");
            };
            prop_assert_eq!(seq, s);
        }
        prop_assert_eq!(pos, stream.len());
        prop_assert!(decode_frame(&stream[pos..]).expect("empty tail is fine").is_none());
    }
}

/// `payload` framed as one frame of type `ty`.
fn framed(ty: u8, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(5 + payload.len());
    let len = u32::try_from(1 + payload.len()).unwrap();
    bytes.extend_from_slice(&len.to_le_bytes());
    bytes.push(ty);
    bytes.extend_from_slice(payload);
    bytes
}

/// An `f64` that is often one a text codec would mangle: NaN (quiet and
/// with a payload), ±∞, −0.0, ± subnormals; otherwise any bit pattern.
fn edge_f64((pick, any): (u8, f64)) -> f64 {
    let subnormal = f64::from_bits(any.to_bits() & 0x000f_ffff_ffff_ffff | 1);
    match pick {
        0 => f64::NAN,
        1 => f64::from_bits(0x7ff0_0000_0000_0001),
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -0.0,
        5 => subnormal,
        6 => -subnormal,
        _ => any,
    }
}

/// A UTF-8 string of one- to four-byte characters, cut at a character
/// boundary to at most [`MAX_WIRE_STR`] bytes (the most the encoder
/// sends).
fn wire_str(s: String) -> String {
    let mut end = s.len().min(MAX_WIRE_STR);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    s[..end].to_string()
}

/// The note of kind `EventKind::ALL[kind]`, its fields taken in order
/// from the value pools.
fn note_of(kind: usize, n: &[u64], k: &[u32], f: &[f64], s: &[String], flag: bool) -> EventData {
    let us = |i: usize| usize::try_from(n[i]).unwrap_or(usize::MAX);
    match EventKind::ALL[kind] {
        EventKind::FreqChange => EventData::FreqChange {
            core: us(0),
            from_khz: k[0],
            to_khz: k[1],
            requested_khz: k[2],
        },
        EventKind::CoreOnline => EventData::CoreOnline { core: us(0) },
        EventKind::CoreOffline => EventData::CoreOffline { core: us(0) },
        EventKind::HotplugVetoed => EventData::HotplugVetoed {
            core: us(0),
            mpdecision: flag,
        },
        EventKind::HotplugDecision => EventData::HotplugDecision {
            policy: s[0].clone(),
            online_now: us(0),
            want: us(1),
        },
        EventKind::QuotaShrink => EventData::QuotaShrink {
            from: f[0],
            to: f[1],
        },
        EventKind::QuotaRestore => EventData::QuotaRestore {
            from: f[0],
            to: f[1],
        },
        EventKind::ThermalThrottle => EventData::ThermalThrottle {
            cap_opp: us(0),
            temp_c: f[0],
        },
        EventKind::ThermalClear => EventData::ThermalClear {
            cap_opp: us(0),
            temp_c: f[0],
        },
        EventKind::BwThrottle => EventData::BwThrottle { denied_us: n[0] },
        EventKind::PolicyDecision => EventData::PolicyDecision {
            policy: s[0].clone(),
            mode: s[1].clone(),
            util_pct: f[0],
            quota: f[1],
            target_online: us(0),
            f_khz: k[0],
        },
        EventKind::DvfsDecision => EventData::DvfsDecision {
            governor: s[0].clone(),
            util_pct: f[0],
            from_khz: k[0],
            to_khz: k[1],
        },
        EventKind::ConnAccepted => EventData::ConnAccepted { conn: n[0] },
        EventKind::ConnClosed => EventData::ConnClosed {
            conn: n[0],
            frames_in: n[1],
            frames_out: n[2],
        },
        EventKind::SessionStart => EventData::SessionStart {
            session: n[0],
            policy: s[0].clone(),
        },
        EventKind::SessionEnd => EventData::SessionEnd {
            session: n[0],
            decisions: n[1],
            drained: flag,
        },
        EventKind::Backpressure => EventData::Backpressure {
            session: n[0],
            queued: n[1],
            limit: n[2],
        },
        EventKind::ServeShutdown => EventData::ServeShutdown {
            active_sessions: n[0],
        },
        EventKind::ShardRouted => EventData::ShardRouted {
            conn: n[0],
            key: n[1],
            shard: s[0].clone(),
        },
        EventKind::FleetShardSummary => EventData::FleetShardSummary {
            shard: s[0].clone(),
            sessions: n[0],
            decisions: n[1],
        },
    }
}

/// The `f64` fields of a note, as bit patterns.
fn f64_bits(note: &EventData) -> Vec<u64> {
    match note {
        EventData::QuotaShrink { from, to } | EventData::QuotaRestore { from, to } => {
            vec![from.to_bits(), to.to_bits()]
        }
        EventData::ThermalThrottle { temp_c, .. } | EventData::ThermalClear { temp_c, .. } => {
            vec![temp_c.to_bits()]
        }
        EventData::PolicyDecision {
            util_pct, quota, ..
        } => vec![util_pct.to_bits(), quota.to_bits()],
        EventData::DvfsDecision { util_pct, .. } => vec![util_pct.to_bits()],
        _ => Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(640))]

    /// Every note kind round-trips bit for bit through a Decision frame,
    /// whatever its field values: NaN payloads, ±∞, −0.0 and
    /// subnormals keep their bits, and strings of multi-byte UTF-8 up to
    /// the wire cap come back whole.
    #[test]
    fn every_note_kind_round_trips_bit_exact(
        kind in 0usize..EventKind::ALL.len(),
        ints in proptest::collection::vec(0u64..=u64::MAX, 3),
        khz in proptest::collection::vec(0u32..=u32::MAX, 3),
        floats in proptest::collection::vec((0u8..10, proptest::num::f64::ANY), 2),
        strs in proptest::collection::vec("[a-zA-Z0-9 _é°€ж😀]{0,4200}", 2),
        flag in any::<bool>(),
    ) {
        let floats: Vec<f64> = floats.into_iter().map(edge_f64).collect();
        let strs: Vec<String> = strs.into_iter().map(wire_str).collect();
        let note = note_of(kind, &ints, &khz, &floats, &strs, flag);
        let frame = Frame::Decision { seq: ints[2], commands: Vec::new(), notes: vec![note.clone()] };
        let bytes = frame_bytes(&frame);
        let (back, used) = decode_frame(&bytes).expect("valid").expect("complete");
        prop_assert_eq!(used, bytes.len());
        let Frame::Decision { notes, .. } = &back else {
            panic!("wrong frame type");
        };
        prop_assert_eq!(notes.len(), 1);
        prop_assert_eq!(notes[0].kind(), EventKind::ALL[kind]);
        prop_assert_eq!(f64_bits(&notes[0]), f64_bits(&note));
        // Field by field, with NaN made comparable by its bits above;
        // the re-encoded frame must then match byte for byte.
        if f64_bits(&note).iter().all(|&b| !f64::from_bits(b).is_nan()) {
            prop_assert_eq!(&notes[0], &note);
        }
        prop_assert_eq!(frame_bytes(&back), bytes);
    }
}

/// Distinct shard names: `s<index>-<salt>`, so every generated list
/// is duplicate-free by construction and permutations can be compared
/// by name.
fn shard_names(min: usize) -> impl Strategy<Value = Vec<String>> {
    (min..8usize, 0u64..1_000_000)
        .prop_map(|(count, salt)| (0..count).map(|i| format!("s{i}-{salt}")).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The same key always lands on the same shard *name*, no matter
    /// how the shard list is ordered — placement is a function of the
    /// set, not the sequence.
    #[test]
    fn rendezvous_is_stable_under_permutation(
        names in shard_names(1),
        rotate in 0usize..8,
        keys in proptest::collection::vec(0u64..u64::MAX, 1..32),
    ) {
        let mut rotated = names.clone();
        rotated.rotate_left(rotate % names.len().max(1));
        for &key in &keys {
            let a = rendezvous_shard(key, &names).map(|i| names[i].clone());
            let b = rendezvous_shard(key, &rotated).map(|i| rotated[i].clone());
            prop_assert_eq!(a, b, "key {} moved under permutation", key);
        }
    }

    /// Removing one shard only remaps the keys that lived on it; every
    /// other key keeps its shard (minimal disruption).
    #[test]
    fn rendezvous_remap_is_minimal(
        names in shard_names(2),
        victim in 0usize..8,
        keys in proptest::collection::vec(0u64..u64::MAX, 1..64),
    ) {
        let victim = victim % names.len();
        let mut reduced = names.clone();
        let gone = reduced.remove(victim);
        for &key in &keys {
            let before = names[rendezvous_shard(key, &names).expect("non-empty")].clone();
            let after = reduced[rendezvous_shard(key, &reduced).expect("non-empty")].clone();
            if before != gone {
                prop_assert_eq!(before, after, "key {} moved though its shard survived", key);
            }
        }
    }

    /// A consecutive key range (device ids) spreads over every shard:
    /// no shard is starved once there are a few keys per shard.
    #[test]
    fn rendezvous_balances_consecutive_keys(
        names in shard_names(1),
        start in 0u64..1_000_000,
    ) {
        let per_shard = 256usize;
        let total = names.len() * per_shard;
        let mut counts = vec![0usize; names.len()];
        for key in start..start + total as u64 {
            counts[rendezvous_shard(key, &names).expect("non-empty")] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            prop_assert!(
                c >= per_shard / 4,
                "shard {} ({}) starved: {}/{} keys",
                i, names[i], c, total
            );
        }
    }
}
