//! `mobicore-analyze` — static analysis and concurrency verification
//! for the MobiCore workspace.
//!
//! Two layers, both dependency-free:
//!
//! 1. **Lint** ([`lint`], [`source`]): line/token-level rules enforcing
//!    workspace invariants — no wall-clock reads in simulator hot
//!    paths, no `unwrap`/`expect`/`panic!` in serve protocol paths,
//!    every `Ordering::Relaxed` justified with a `// relaxed:`
//!    annotation, every wake-time implementation covered by the
//!    engine-equivalence suite, and strict lint headers
//!    (`forbid(unsafe_code)`, `deny(missing_docs)`) in every crate; every `cargo` command the docs show names a real
//!    package and target ([`cargo_targets`]). Run via `cargo test`
//!    (tier-1) or the `mobicore-analyze` CLI.
//! 2. **Model checking** ([`model`]): a loom-style bounded-DFS
//!    interleaving explorer with a C11-flavoured weak-memory model.
//!    The workspace's concurrency cores (`crates/sweep/src/pool.rs`,
//!    `crates/serve/src/drain.rs`) are checked in their own crates'
//!    tests, which compile the production file against
//!    [`model::sync`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cargo_targets;
pub mod lint;
pub mod model;
pub mod source;
