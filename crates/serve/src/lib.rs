//! `mobicore-serve`: a networked policy-decision service.
//!
//! The paper's controller is a function from utilization windows to
//! frequency/hotplug/quota commands; this crate puts that function
//! behind a socket. A dependency-free TCP daemon speaks a versioned,
//! length-prefixed binary protocol ([`protocol`]); each connection is
//! one simulated device streaming [`PolicySnapshot`]s and receiving
//! the decisions an in-process policy would have produced —
//! byte-identical, including telemetry notes, so remote runs yield the
//! same reports and manifests as local ones ([`client::RemotePolicy`]).
//!
//! The daemon ([`server`]) serves each connection on its own blocking
//! thread — replies leave as soon as the policy returns — with bounded
//! per-connection buffers, explicit [`protocol::Frame::Backpressure`]
//! notices, typed rejection of malformed frames, and a graceful drain
//! bounded by a deadline on shutdown.
//!
//! For fleet scale, the shard router ([`router`]) binds sessions to a
//! pool of serve shards by rendezvous hashing over stable shard names
//! and relays frames with hot shard-connection reuse.
//!
//! The load generator ([`load::run_load`]) drives sessions against a
//! daemon, or with `route` through the router, many per connection
//! over batched, corked frame I/O. It replays a recorded scenario
//! stream through each session, verifies ordering and byte-identity,
//! measures decisions/s and RTT quantiles, and tallies each shard of a
//! routed run; its counts-only manifest is byte-identical at a fixed
//! seed.
//!
//! See `docs/serving.md` for the protocol specification, session
//! lifecycle, and the benchmark reproduction recipes.
//!
//! [`PolicySnapshot`]: mobicore_sim::PolicySnapshot

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::float_cmp, clippy::cast_possible_truncation)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::float_cmp))]

pub mod client;
mod conn;
pub mod load;
pub mod protocol;
pub mod registry;
pub mod router;
pub mod server;

pub use client::{ClientError, ClientSession, RemoteDecision, RemotePolicy};
pub use load::{record_snapshots, run_load, LoadConfig, LoadReport, ShardTally};
pub use protocol::{Frame, WireError, PROTOCOL_VERSION};
pub use router::{rendezvous_shard, Router, RouterConfig, RouterStats, Shard};
pub use server::{ServeConfig, ServeStats, Server, ServerHandle};
