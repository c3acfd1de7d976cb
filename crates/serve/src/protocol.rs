//! The versioned, length-prefixed binary wire protocol of
//! `mobicore-serve`.
//!
//! Framing: every frame is `[len: u32 LE][type: u8][payload]`, where
//! `len` counts the type byte plus the payload (so a frame occupies
//! `4 + len` bytes on the wire) and is capped at [`MAX_FRAME_LEN`].
//! Integers are fixed-width little-endian; strings are a `u16` byte
//! length followed by UTF-8; `f64`s travel as their IEEE-754 bit
//! pattern, so a value decodes to *exactly* the bits the peer encoded —
//! the property that makes remote decisions byte-identical to
//! in-process ones (see docs/serving.md). Decision notes use the same
//! scheme: a tag byte (the kind's index in [`EventKind::ALL`]) and the
//! variant's fields in declaration order, so no note ever passes
//! through text on the wire.
//!
//! Decoding never panics: truncated input reports "need more bytes"
//! (`Ok(None)`), and every malformed input yields a typed
//! [`WireError`]. A proptest suite (`tests/proptests.rs`) holds the
//! codec to that contract on arbitrary byte soup.

use mobicore_model::{Khz, Quota, Utilization};
use mobicore_sim::{Command, CoreSnapshot, PolicySnapshot};
use mobicore_telemetry::{EventData, EventKind, FieldReader, FieldWriter};

/// Protocol version carried in Hello/HelloAck; bumped on any wire
/// change. Version 2 added the HelloAck pipelining window and the
/// router frames ([`Frame::Route`] / [`Frame::Routed`]); version 3
/// replaced the JSON-line Decision notes with typed binary notes.
pub const PROTOCOL_VERSION: u16 = 3;

/// Hard cap on `len` (type byte + payload). Large enough for a
/// 1024-core snapshot, small enough that a hostile length prefix
/// cannot balloon a read buffer.
pub const MAX_FRAME_LEN: u32 = 1 << 16;

/// Maximum per-snapshot core count the decoder accepts.
pub const MAX_WIRE_CORES: usize = 1 << 10;

/// Maximum commands in one Decision frame.
pub const MAX_WIRE_COMMANDS: usize = 1 << 12;

/// Maximum telemetry notes in one Decision frame.
pub const MAX_WIRE_NOTES: usize = 64;

/// Maximum encoded string length, bytes.
pub const MAX_WIRE_STR: usize = 1 << 12;

/// Error codes carried by [`Frame::Error`].
pub mod codes {
    /// Client and server protocol versions differ.
    pub const VERSION_MISMATCH: u16 = 1;
    /// Hello named a policy the registry cannot build.
    pub const UNKNOWN_POLICY: u16 = 2;
    /// Hello named an unknown device profile.
    pub const UNKNOWN_PROFILE: u16 = 3;
    /// Frame type is valid but not legal in the session's state.
    pub const BAD_STATE: u16 = 4;
    /// Snapshot sequence number did not increase.
    pub const BAD_SEQ: u16 = 5;
    /// The peer sent bytes the codec rejected.
    pub const MALFORMED: u16 = 6;
    /// No frame arrived within the server's idle timeout.
    pub const IDLE_TIMEOUT: u16 = 7;
    /// The server is at its session cap.
    pub const SERVER_FULL: u16 = 8;
    /// The peer stopped reading and its write queue overflowed.
    pub const SLOW_CONSUMER: u16 = 9;
    /// The router could not reach (or lost) the shard a session was
    /// bound to.
    pub const SHARD_UNAVAILABLE: u16 = 10;
}

/// Typed decode failure. Every malformed input maps to one of these;
/// the decoder never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLong {
        /// The declared length.
        len: u32,
    },
    /// The length prefix is zero (a frame needs at least its type byte).
    EmptyFrame,
    /// The type byte names no known frame.
    UnknownFrameType(u8),
    /// A field ran past the end of the payload.
    Truncated(&'static str),
    /// The payload had bytes left over after the last field.
    TrailingBytes(&'static str),
    /// A string field was not UTF-8.
    BadUtf8(&'static str),
    /// A bool field held a byte other than 0/1.
    BadBool(&'static str),
    /// A count field exceeded its wire cap.
    TooMany {
        /// Which field.
        what: &'static str,
        /// The declared count.
        got: u64,
    },
    /// A Decision command carried an unknown tag byte.
    UnknownCommandTag(u8),
    /// A Decision note carried a tag byte that indexes no
    /// [`EventKind`].
    UnknownNoteTag(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLong { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::EmptyFrame => write!(f, "zero-length frame"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t:#04x}"),
            WireError::Truncated(what) => write!(f, "payload truncated reading {what}"),
            WireError::TrailingBytes(frame) => write!(f, "trailing bytes after {frame} frame"),
            WireError::BadUtf8(what) => write!(f, "{what} is not valid UTF-8"),
            WireError::BadBool(what) => write!(f, "{what} is not a 0/1 bool"),
            WireError::TooMany { what, got } => write!(f, "{what} count {got} exceeds wire cap"),
            WireError::UnknownCommandTag(t) => write!(f, "unknown command tag {t:#04x}"),
            WireError::UnknownNoteTag(t) => write!(f, "unknown note tag {t:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

/// One protocol frame. See docs/serving.md for the session state
/// machine that sequences them.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server session open.
    Hello {
        /// Client's [`PROTOCOL_VERSION`].
        version: u16,
        /// Requested policy name (serve registry vocabulary).
        policy: String,
        /// Requested device profile name.
        profile: String,
        /// Client seed, echoed into the session's telemetry.
        seed: u64,
    },
    /// Server → client handshake completion.
    HelloAck {
        /// Server's [`PROTOCOL_VERSION`].
        version: u16,
        /// Server-assigned session id.
        session: u64,
        /// The resolved policy name (what `CpuPolicy::name` reports).
        policy: String,
        /// The policy's sampling period, µs — the client-side
        /// `RemotePolicy` mirrors it so a remote run samples exactly
        /// like an in-process one.
        sampling_us: u64,
        /// The server's advertised pipelining window: the most
        /// snapshots a client should keep in flight before collecting
        /// decisions. Clients clamp their configured window to it.
        window: u32,
    },
    /// Client → server: one sampling window's observation.
    Snapshot {
        /// Client sequence number, strictly increasing from 0.
        seq: u64,
        /// The observation, exactly as `CpuPolicy::on_sample` sees it.
        snap: PolicySnapshot,
    },
    /// Server → client: the policy's response to the same-`seq`
    /// Snapshot.
    Decision {
        /// Echo of the Snapshot's sequence number.
        seq: u64,
        /// The commands the policy queued, in issue order.
        commands: Vec<Command>,
        /// The telemetry notes the policy attached, in issue order
        /// (forwarded so remote manifests match in-process ones). The
        /// encoder sends the leading notes that fit the frame cap.
        notes: Vec<EventData>,
    },
    /// Server → client: the session crossed its pipelined-frame budget
    /// (rising edge); sent once per excursion, decisions keep flowing.
    Backpressure {
        /// Complete frames queued beyond the serviced budget.
        queued: u32,
        /// The configured budget.
        limit: u32,
    },
    /// Client → server: clean end of session.
    Bye,
    /// Server → client: session closed, final accounting.
    ByeAck {
        /// Decisions served over the session.
        decisions: u64,
    },
    /// Server → client: the server is draining; finish up.
    GoingAway {
        /// Human-readable reason.
        reason: String,
    },
    /// Either direction: terminal protocol failure.
    Error {
        /// One of [`codes`].
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Client → router: bind this connection's *next* session to the
    /// shard that owns `key` (rendezvous-hashed over the router's
    /// stable shard names). Sent once before each session's Hello; the
    /// shard daemons themselves reject it as a state error.
    Route {
        /// The session key (device id) to place.
        key: u64,
    },
    /// Router → client: the routing answer for the preceding
    /// [`Frame::Route`]; every later frame until ByeAck relays to (and
    /// from) this shard.
    Routed {
        /// Index of the shard in the router's configured shard list.
        shard: u32,
        /// The shard's stable name (the rendezvous hash input, so the
        /// same key maps to the same name whatever the list order).
        name: String,
    },
}

impl Frame {
    /// The frame's name: the variant name, as docs/serving.md lists it.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::HelloAck { .. } => "HelloAck",
            Frame::Snapshot { .. } => "Snapshot",
            Frame::Decision { .. } => "Decision",
            Frame::Backpressure { .. } => "Backpressure",
            Frame::Bye => "Bye",
            Frame::ByeAck { .. } => "ByeAck",
            Frame::GoingAway { .. } => "GoingAway",
            Frame::Error { .. } => "Error",
            Frame::Route { .. } => "Route",
            Frame::Routed { .. } => "Routed",
        }
    }
}

// The Bye, ByeAck and Route tags are pub(crate): the router reads them
// to find session boundaries in a relayed byte stream without decoding
// payloads.
const TY_HELLO: u8 = 0x01;
const TY_HELLO_ACK: u8 = 0x02;
const TY_SNAPSHOT: u8 = 0x03;
const TY_DECISION: u8 = 0x04;
const TY_BACKPRESSURE: u8 = 0x05;
pub(crate) const TY_BYE: u8 = 0x06;
pub(crate) const TY_BYE_ACK: u8 = 0x07;
const TY_GOING_AWAY: u8 = 0x08;
const TY_ERROR: u8 = 0x09;
pub(crate) const TY_ROUTE: u8 = 0x0A;
const TY_ROUTED: u8 = 0x0B;

/// Whether `ty` names a frame type (the type bytes are contiguous from
/// [`TY_HELLO`] to [`TY_ROUTED`]).
pub(crate) fn is_frame_type(ty: u8) -> bool {
    (TY_HELLO..=TY_ROUTED).contains(&ty)
}

/// The type byte and wire size (`4 + len`) of the complete frame at the
/// front of `buf` — a framing check only: the type byte is not
/// matched and the payload is not read. `Ok(None)` while the frame is
/// still incomplete.
///
/// # Errors
///
/// [`WireError::EmptyFrame`] or [`WireError::FrameTooLong`] for a
/// length prefix out of bounds, as soon as its four bytes are there.
pub(crate) fn frame_header(buf: &[u8]) -> Result<Option<(u8, usize)>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len == 0 {
        return Err(WireError::EmptyFrame);
    }
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLong { len });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((buf[4], total)))
}

// ---------------------------------------------------------------- encode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Encodes `s`, truncating (at a char boundary) to [`MAX_WIRE_STR`]
/// bytes so an encoded frame is always decodable.
fn put_str(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(MAX_WIRE_STR);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    let bytes = &s.as_bytes()[..end];
    // MAX_WIRE_STR < u16::MAX, so the cast is exact.
    #[allow(clippy::cast_possible_truncation)]
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
}

fn put_clamped_u32(out: &mut Vec<u8>, v: usize) {
    put_u32(out, u32::try_from(v).unwrap_or(u32::MAX));
}

fn put_snapshot(out: &mut Vec<u8>, snap: &PolicySnapshot) {
    put_u64(out, snap.now_us);
    put_u64(out, snap.window_us);
    put_f64(out, snap.overall_util.as_fraction());
    put_f64(out, snap.quota.as_fraction());
    put_f64(out, snap.temp_c);
    put_bool(out, snap.mpdecision_enabled);
    put_clamped_u32(out, snap.max_runnable_threads);
    put_u16(
        out,
        u16::try_from(snap.cores.len().min(MAX_WIRE_CORES)).unwrap_or(u16::MAX),
    );
    for core in snap.cores.iter().take(MAX_WIRE_CORES) {
        put_bool(out, core.online);
        put_u32(out, core.cur_khz.0);
        put_u32(out, core.target_khz.0);
        put_f64(out, core.util.as_fraction());
        put_u64(out, core.busy_us);
    }
}

fn put_command(out: &mut Vec<u8>, cmd: &Command) {
    match cmd {
        Command::SetFreq { core, khz } => {
            out.push(0);
            put_clamped_u32(out, *core);
            put_u32(out, khz.0);
        }
        Command::SetFreqAll { khz } => {
            out.push(1);
            put_u32(out, khz.0);
        }
        Command::SetOnline { core, online } => {
            out.push(2);
            put_clamped_u32(out, *core);
            put_bool(out, *online);
        }
        Command::SetQuota(q) => {
            out.push(3);
            put_f64(out, q.as_fraction());
        }
    }
}

/// Appends `frame`'s wire bytes to `out`. The encoding stays within
/// the wire caps, so every frame it produces decodes: strings past
/// [`MAX_WIRE_STR`] are cut, and a Decision keeps at most
/// [`MAX_WIRE_COMMANDS`] commands and the leading notes, at most
/// [`MAX_WIRE_NOTES`], that fit under [`MAX_FRAME_LEN`].
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    let len_at = out.len();
    put_u32(out, 0); // length backpatched below
    match frame {
        Frame::Hello {
            version,
            policy,
            profile,
            seed,
        } => {
            out.push(TY_HELLO);
            put_u16(out, *version);
            put_str(out, policy);
            put_str(out, profile);
            put_u64(out, *seed);
        }
        Frame::HelloAck {
            version,
            session,
            policy,
            sampling_us,
            window,
        } => {
            out.push(TY_HELLO_ACK);
            put_u16(out, *version);
            put_u64(out, *session);
            put_str(out, policy);
            put_u64(out, *sampling_us);
            put_u32(out, *window);
        }
        Frame::Snapshot { seq, snap } => {
            out.push(TY_SNAPSHOT);
            put_u64(out, *seq);
            put_snapshot(out, snap);
        }
        Frame::Decision {
            seq,
            commands,
            notes,
        } => {
            out.push(TY_DECISION);
            put_u64(out, *seq);
            let n = commands.len().min(MAX_WIRE_COMMANDS);
            #[allow(clippy::cast_possible_truncation)]
            put_u16(out, n as u16);
            for cmd in commands.iter().take(n) {
                put_command(out, cmd);
            }
            // Notes are the one part of a frame with no fixed bound
            // under the frame cap (64 notes of up to 4 KiB strings): the
            // first note that would cross it is dropped with the rest.
            let n_at = out.len();
            put_u16(out, 0); // note count backpatched below
            let mut n: u16 = 0;
            for note in notes.iter().take(MAX_WIRE_NOTES) {
                let note_at = out.len();
                put_note(out, note);
                if out.len() - len_at - 4 > MAX_FRAME_LEN as usize {
                    out.truncate(note_at);
                    break;
                }
                n += 1;
            }
            out[n_at..n_at + 2].copy_from_slice(&n.to_le_bytes());
        }
        Frame::Backpressure { queued, limit } => {
            out.push(TY_BACKPRESSURE);
            put_u32(out, *queued);
            put_u32(out, *limit);
        }
        Frame::Bye => out.push(TY_BYE),
        Frame::ByeAck { decisions } => {
            out.push(TY_BYE_ACK);
            put_u64(out, *decisions);
        }
        Frame::GoingAway { reason } => {
            out.push(TY_GOING_AWAY);
            put_str(out, reason);
        }
        Frame::Error { code, message } => {
            out.push(TY_ERROR);
            put_u16(out, *code);
            put_str(out, message);
        }
        Frame::Route { key } => {
            out.push(TY_ROUTE);
            put_u64(out, *key);
        }
        Frame::Routed { shard, name } => {
            out.push(TY_ROUTED);
            put_u32(out, *shard);
            put_str(out, name);
        }
    }
    let len = out.len() - len_at - 4;
    debug_assert!(
        len <= MAX_FRAME_LEN as usize,
        "encoder stayed under the cap"
    );
    #[allow(clippy::cast_possible_truncation)]
    out[len_at..len_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Convenience: one frame as a fresh byte vector.
pub fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame(frame, &mut out);
    out
}

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.bytes(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
}

/// The binary field reader, for notes and frames alike: fields are
/// read in order and `what` names the one that failed.
impl FieldReader for Reader<'_> {
    type Error = WireError;

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.bytes(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.bytes(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadBool(what)),
        }
    }

    fn str(&mut self, what: &'static str) -> Result<String, WireError> {
        let len = self.u16(what)? as usize;
        if len > MAX_WIRE_STR {
            return Err(WireError::TooMany {
                what,
                got: len as u64,
            });
        }
        let bytes = self.bytes(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8(what))
    }
}

fn read_snapshot(r: &mut Reader<'_>) -> Result<PolicySnapshot, WireError> {
    let now_us = r.u64("snapshot.now_us")?;
    let window_us = r.u64("snapshot.window_us")?;
    let overall_util = Utilization::new(r.f64("snapshot.overall_util")?);
    let quota = Quota::new(r.f64("snapshot.quota")?);
    let temp_c = r.f64("snapshot.temp_c")?;
    let mpdecision_enabled = r.bool("snapshot.mpdecision")?;
    let max_runnable_threads = r.u32("snapshot.max_runnable")? as usize;
    let n_cores = r.u16("snapshot.n_cores")? as usize;
    if n_cores > MAX_WIRE_CORES {
        return Err(WireError::TooMany {
            what: "snapshot.n_cores",
            got: n_cores as u64,
        });
    }
    let mut cores = Vec::with_capacity(n_cores);
    for _ in 0..n_cores {
        let online = r.bool("core.online")?;
        let cur_khz = Khz(r.u32("core.cur_khz")?);
        let target_khz = Khz(r.u32("core.target_khz")?);
        let util = Utilization::new(r.f64("core.util")?);
        let busy_us = r.u64("core.busy_us")?;
        cores.push(CoreSnapshot {
            online,
            cur_khz,
            target_khz,
            util,
            busy_us,
        });
    }
    Ok(PolicySnapshot {
        now_us,
        window_us,
        cores,
        overall_util,
        quota,
        mpdecision_enabled,
        max_runnable_threads,
        temp_c,
    })
}

fn read_command(r: &mut Reader<'_>) -> Result<Command, WireError> {
    match r.u8("command.tag")? {
        0 => Ok(Command::SetFreq {
            core: r.u32("command.core")? as usize,
            khz: Khz(r.u32("command.khz")?),
        }),
        1 => Ok(Command::SetFreqAll {
            khz: Khz(r.u32("command.khz")?),
        }),
        2 => Ok(Command::SetOnline {
            core: r.u32("command.core")? as usize,
            online: r.bool("command.online")?,
        }),
        3 => Ok(Command::SetQuota(Quota::new(r.f64("command.quota")?))),
        other => Err(WireError::UnknownCommandTag(other)),
    }
}

// ------------------------------------------------------------- notes

// Note tags are `EventKind::index` values and travel as one byte.
const _: () = assert!(EventKind::ALL.len() <= u8::MAX as usize);

/// The binary note writer. `usize` fields travel as `u64` (the
/// [`FieldWriter`] default); `f64` fields as their bit pattern, so NaN,
/// ±∞ and −0.0 come back exactly.
struct NoteWriter<'a>(&'a mut Vec<u8>);

impl FieldWriter for NoteWriter<'_> {
    fn u64(&mut self, _: &'static str, v: u64) {
        put_u64(self.0, v);
    }
    fn u32(&mut self, _: &'static str, v: u32) {
        put_u32(self.0, v);
    }
    fn f64(&mut self, _: &'static str, v: f64) {
        put_f64(self.0, v);
    }
    fn bool(&mut self, _: &'static str, v: bool) {
        put_bool(self.0, v);
    }
    fn str(&mut self, _: &'static str, v: &str) {
        put_str(self.0, v);
    }
}

/// A note is its kind's tag, then the variant's fields in declaration
/// order ([`EventData::write_fields`]).
fn put_note(out: &mut Vec<u8>, note: &EventData) {
    #[allow(clippy::cast_possible_truncation)]
    out.push(note.kind().index() as u8);
    note.write_fields(&mut NoteWriter(out));
}

fn read_note(r: &mut Reader<'_>) -> Result<EventData, WireError> {
    let tag = r.u8("note.tag")?;
    let kind = EventKind::ALL
        .get(usize::from(tag))
        .ok_or(WireError::UnknownNoteTag(tag))?;
    EventData::read_fields(*kind, r)
}

/// Attempts to decode one frame from the front of `buf`.
///
/// * `Ok(None)` — `buf` holds a prefix of a valid frame; read more.
/// * `Ok(Some((frame, consumed)))` — one frame decoded; drop
///   `consumed` bytes from the front of `buf`.
///
/// # Errors
///
/// A typed [`WireError`] for any malformed input. The decoder never
/// panics, whatever the bytes.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    let Some((ty, total)) = frame_header(buf)? else {
        return Ok(None);
    };
    let mut r = Reader::new(&buf[5..total]);
    let frame = match ty {
        TY_HELLO => Frame::Hello {
            version: r.u16("hello.version")?,
            policy: r.str("hello.policy")?,
            profile: r.str("hello.profile")?,
            seed: r.u64("hello.seed")?,
        },
        TY_HELLO_ACK => Frame::HelloAck {
            version: r.u16("helloack.version")?,
            session: r.u64("helloack.session")?,
            policy: r.str("helloack.policy")?,
            sampling_us: r.u64("helloack.sampling_us")?,
            window: r.u32("helloack.window")?,
        },
        TY_SNAPSHOT => Frame::Snapshot {
            seq: r.u64("snapshot.seq")?,
            snap: read_snapshot(&mut r)?,
        },
        TY_DECISION => {
            let seq = r.u64("decision.seq")?;
            let n_cmds = r.u16("decision.n_commands")? as usize;
            if n_cmds > MAX_WIRE_COMMANDS {
                return Err(WireError::TooMany {
                    what: "decision.n_commands",
                    got: n_cmds as u64,
                });
            }
            let mut commands = Vec::with_capacity(n_cmds);
            for _ in 0..n_cmds {
                commands.push(read_command(&mut r)?);
            }
            let n_notes = r.u16("decision.n_notes")? as usize;
            if n_notes > MAX_WIRE_NOTES {
                return Err(WireError::TooMany {
                    what: "decision.n_notes",
                    got: n_notes as u64,
                });
            }
            let mut notes = Vec::with_capacity(n_notes);
            for _ in 0..n_notes {
                notes.push(read_note(&mut r)?);
            }
            Frame::Decision {
                seq,
                commands,
                notes,
            }
        }
        TY_BACKPRESSURE => Frame::Backpressure {
            queued: r.u32("backpressure.queued")?,
            limit: r.u32("backpressure.limit")?,
        },
        TY_BYE => Frame::Bye,
        TY_BYE_ACK => Frame::ByeAck {
            decisions: r.u64("byeack.decisions")?,
        },
        TY_GOING_AWAY => Frame::GoingAway {
            reason: r.str("goingaway.reason")?,
        },
        TY_ERROR => Frame::Error {
            code: r.u16("error.code")?,
            message: r.str("error.message")?,
        },
        TY_ROUTE => Frame::Route {
            key: r.u64("route.key")?,
        },
        TY_ROUTED => Frame::Routed {
            shard: r.u32("routed.shard")?,
            name: r.str("routed.name")?,
        },
        other => return Err(WireError::UnknownFrameType(other)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes("decoded"));
    }
    Ok(Some((frame, total)))
}

/// Whether `buf` starts with at least one complete frame (without
/// validating the payload). Used by the server to detect pipelined
/// input past the per-session budget.
pub fn has_complete_frame(buf: &[u8]) -> bool {
    matches!(frame_header(buf), Ok(Some(_)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> PolicySnapshot {
        PolicySnapshot::synthetic(4, 2, Khz(960_000), Utilization::new(0.37), 20_000)
    }

    fn round_trip(frame: Frame) {
        let bytes = frame_bytes(&frame);
        let (back, used) = decode_frame(&bytes).expect("decodes").expect("complete");
        assert_eq!(used, bytes.len());
        assert_eq!(back, frame);
    }

    /// One frame of every kind, in type-byte order.
    fn one_of_each() -> Vec<Frame> {
        vec![
            Frame::Hello {
                version: PROTOCOL_VERSION,
                policy: "mobicore".into(),
                profile: "nexus5".into(),
                seed: 42,
            },
            Frame::HelloAck {
                version: PROTOCOL_VERSION,
                session: 7,
                policy: "mobicore".into(),
                sampling_us: 20_000,
                window: 32,
            },
            Frame::Snapshot {
                seq: 3,
                snap: snap(),
            },
            Frame::Decision {
                seq: 3,
                commands: vec![
                    Command::SetQuota(Quota::new(0.62)),
                    Command::SetOnline {
                        core: 3,
                        online: false,
                    },
                    Command::SetFreq {
                        core: 0,
                        khz: Khz(960_000),
                    },
                    Command::SetFreqAll { khz: Khz(300_000) },
                ],
                notes: vec![EventData::PolicyDecision {
                    policy: "mobicore".into(),
                    mode: "slow".into(),
                    util_pct: 23.5,
                    quota: 0.62,
                    target_online: 2,
                    f_khz: 960_000,
                }],
            },
            Frame::Backpressure {
                queued: 80,
                limit: 64,
            },
            Frame::Bye,
            Frame::ByeAck { decisions: 512 },
            Frame::GoingAway {
                reason: "drain".into(),
            },
            Frame::Error {
                code: codes::BAD_SEQ,
                message: "seq went backwards".into(),
            },
            Frame::Route { key: 123_456_789 },
            Frame::Routed {
                shard: 3,
                name: "s3".into(),
            },
        ]
    }

    #[test]
    fn every_frame_kind_round_trips() {
        for frame in one_of_each() {
            round_trip(frame);
        }
    }

    #[test]
    fn frame_table_names_every_type_byte() {
        // docs/serving.md's frame table: a row `| 0xNN | `Name` |` per
        // frame kind, `0xNN` being its type byte on the wire.
        let doc = include_str!("../../../docs/serving.md");
        let rows: Vec<(u8, String)> = doc
            .lines()
            .filter_map(|line| {
                let mut cells = line.split('|').map(str::trim).skip(1);
                let ty = u8::from_str_radix(cells.next()?.strip_prefix("0x")?, 16).ok()?;
                let name = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
                Some((ty, name.to_string()))
            })
            .collect();
        let want: Vec<(u8, String)> = one_of_each()
            .iter()
            .map(|f| (frame_bytes(f)[4], f.name().to_string()))
            .collect();
        assert_eq!(rows, want, "docs/serving.md frame table");
        let types: Vec<u8> = (0..=u8::MAX).filter(|&ty| is_frame_type(ty)).collect();
        let checked: Vec<u8> = want.iter().map(|(ty, _)| *ty).collect();
        assert_eq!(types, checked, "a frame type `one_of_each` does not build");
    }

    #[test]
    fn snapshot_round_trip_preserves_exact_bits() {
        let mut s = snap();
        s.temp_c = 36.600_000_000_000_01; // not exactly representable inputs stay bit-exact
        let frame = Frame::Snapshot {
            seq: 0,
            snap: s.clone(),
        };
        let bytes = frame_bytes(&frame);
        let (back, _) = decode_frame(&bytes).unwrap().unwrap();
        let Frame::Snapshot { snap: back, .. } = back else {
            panic!("wrong frame kind")
        };
        assert_eq!(back.temp_c.to_bits(), s.temp_c.to_bits());
        assert_eq!(
            back.overall_util.as_fraction().to_bits(),
            s.overall_util.as_fraction().to_bits()
        );
        assert_eq!(back, s);
    }

    #[test]
    fn truncation_asks_for_more_bytes() {
        let bytes = frame_bytes(&Frame::ByeAck { decisions: 9 });
        for end in 0..bytes.len() {
            assert_eq!(
                decode_frame(&bytes[..end]).expect("prefix is not an error"),
                None,
                "prefix of {end} bytes"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_FRAME_LEN + 1);
        bytes.push(TY_BYE);
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::FrameTooLong {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn zero_length_and_unknown_type_are_rejected() {
        assert_eq!(decode_frame(&[0, 0, 0, 0, 0]), Err(WireError::EmptyFrame));
        assert_eq!(
            decode_frame(&[1, 0, 0, 0, 0xEE]),
            Err(WireError::UnknownFrameType(0xEE))
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = frame_bytes(&Frame::Bye);
        // Grow the declared length and append a stray byte.
        bytes[0] += 1;
        bytes.push(0xAB);
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::TrailingBytes("decoded"))
        );
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_typed() {
        let mut bytes = frame_bytes(&Frame::Snapshot {
            seq: 1,
            snap: snap(),
        });
        // mpdecision bool lives at offset 4 (len) + 1 (type) + 8 (seq) +
        // 8+8 (now/window) + 8*3 (three f64s) = 53.
        bytes[53] = 7;
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::BadBool("snapshot.mpdecision"))
        );

        let mut bytes = frame_bytes(&Frame::GoingAway {
            reason: "né".into(),
        });
        let at = bytes.len() - 1;
        bytes[at] = 0xFF; // clobber the second UTF-8 byte
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::BadUtf8("goingaway.reason"))
        );
    }

    #[test]
    fn pipelined_frames_decode_in_sequence() {
        let mut bytes = Vec::new();
        encode_frame(&Frame::Bye, &mut bytes);
        encode_frame(&Frame::ByeAck { decisions: 1 }, &mut bytes);
        let (first, used) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(first, Frame::Bye);
        assert!(has_complete_frame(&bytes[used..]));
        let (second, used2) = decode_frame(&bytes[used..]).unwrap().unwrap();
        assert_eq!(second, Frame::ByeAck { decisions: 1 });
        assert_eq!(used + used2, bytes.len());
        assert!(!has_complete_frame(&bytes[used + used2..]));
    }

    #[test]
    fn long_strings_are_truncated_on_encode_not_rejected_on_decode() {
        let reason = "x".repeat(MAX_WIRE_STR + 100);
        let bytes = frame_bytes(&Frame::GoingAway { reason });
        let (back, _) = decode_frame(&bytes).unwrap().unwrap();
        let Frame::GoingAway { reason } = back else {
            panic!("wrong frame kind")
        };
        assert_eq!(reason.len(), MAX_WIRE_STR);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn mobicore_decision_bytes_are_pinned() {
        // One Eq.-9 period on a 4-core device: quota, core 3 off, the
        // survivors' frequency, and the period's `policy-decision` note.
        let frame = Frame::Decision {
            seq: 7,
            commands: vec![
                Command::SetQuota(Quota::new(0.9)),
                Command::SetOnline {
                    core: 3,
                    online: false,
                },
                Command::SetFreq {
                    core: 0,
                    khz: Khz(960_000),
                },
                Command::SetFreq {
                    core: 1,
                    khz: Khz(960_000),
                },
                Command::SetFreq {
                    core: 2,
                    khz: Khz(960_000),
                },
            ],
            notes: vec![EventData::PolicyDecision {
                policy: "mobicore".into(),
                mode: "slow".into(),
                util_pct: 23.5,
                quota: 0.9,
                target_online: 3,
                f_khz: 960_000,
            }],
        };
        let want = concat!(
            "64000000",             // len 100
            "04",                   // Decision
            "0700000000000000",     // seq 7
            "0500",                 // 5 commands
            "03cdccccccccccec3f",   // SetQuota 0.9
            "020300000000",         // SetOnline core 3, false
            "000000000000a60e00",   // SetFreq core 0, 960000 kHz
            "000100000000a60e00",   // SetFreq core 1
            "000200000000a60e00",   // SetFreq core 2
            "0100",                 // 1 note
            "0a",                   // tag 10: policy-decision
            "08006d6f6269636f7265", // policy "mobicore"
            "0400736c6f77",         // mode "slow"
            "0000000000803740",     // util_pct 23.5
            "cdccccccccccec3f",     // quota 0.9
            "0300000000000000",     // target_online 3
            "00a60e00",             // f_khz 960000
        );
        assert_eq!(hex(&frame_bytes(&frame)), want);
        round_trip(frame);
    }

    #[test]
    fn notes_past_the_frame_cap_are_dropped() {
        let note = |i: usize| EventData::HotplugDecision {
            policy: "p".repeat(MAX_WIRE_STR),
            online_now: i,
            want: 1,
        };
        for count in [16, 64] {
            let notes: Vec<EventData> = (0..count).map(note).collect();
            let bytes = frame_bytes(&Frame::Decision {
                seq: 1,
                commands: Vec::new(),
                notes: notes.clone(),
            });
            assert!(bytes.len() <= 4 + MAX_FRAME_LEN as usize, "{count} notes");
            let (back, _) = decode_frame(&bytes).expect("decodes").expect("complete");
            let Frame::Decision { notes: kept, .. } = back else {
                panic!("wrong frame kind")
            };
            // Each note takes 4115 bytes, so 15 fit with the header.
            assert_eq!(kept, notes[..15], "{count} notes");
        }
    }

    /// A one-note Decision frame whose note is `note` verbatim.
    fn decision_with_raw_note(note: &[u8]) -> Vec<u8> {
        let mut payload = vec![TY_DECISION];
        put_u64(&mut payload, 0); // seq
        put_u16(&mut payload, 0); // no commands
        put_u16(&mut payload, 1); // one note
        payload.extend_from_slice(note);
        let mut bytes = Vec::new();
        put_u32(&mut bytes, u32::try_from(payload.len()).expect("small"));
        bytes.extend(payload);
        bytes
    }

    #[test]
    fn note_tags_are_event_kind_indices() {
        // Tag i with all-zero fields decodes to a note of kind
        // `EventKind::ALL[i]`, which encodes back to the same bytes.
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            let tag = u8::try_from(i).expect("one byte");
            let (frame, bytes) = (0..64)
                .find_map(|zeros| {
                    let mut note = vec![tag];
                    note.resize(1 + zeros, 0);
                    let bytes = decision_with_raw_note(&note);
                    let (frame, _) = decode_frame(&bytes).ok()??;
                    Some((frame, bytes))
                })
                .unwrap_or_else(|| panic!("tag {i} decodes to no note"));
            let Frame::Decision { notes, .. } = &frame else {
                panic!("wrong frame kind")
            };
            assert_eq!(notes[0].kind(), kind);
            assert_eq!(frame_bytes(&frame), bytes, "{kind}");
        }
        let past_last = u8::try_from(EventKind::ALL.len()).expect("one byte");
        for tag in past_last..=u8::MAX {
            assert_eq!(
                decode_frame(&decision_with_raw_note(&[tag])),
                Err(WireError::UnknownNoteTag(tag))
            );
        }
    }
}
