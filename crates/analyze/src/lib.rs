//! `mobicore-analyze` — static analysis and concurrency verification
//! for the MobiCore workspace.
//!
//! Three layers, all dependency-free:
//!
//! 1. **Lint** ([`lint`], [`source`]): line/token-level rules enforcing
//!    workspace invariants — no wall-clock reads in simulator hot
//!    paths, no `unwrap`/`expect`/`panic!` in serve protocol paths,
//!    every `Ordering::Relaxed` justified with a `// relaxed:`
//!    annotation, doc tables in sync with code registries, and strict
//!    lint headers (`forbid(unsafe_code)`, `deny(missing_docs)`) in
//!    every crate; every `cargo` command the docs show names a real
//!    package and target ([`cargo_targets`]). Run via `cargo test`
//!    (tier-1) or the `mobicore-analyze` CLI.
//! 2. **Model checking** ([`model`]): a loom-style bounded-DFS
//!    interleaving explorer with a C11-flavoured weak-memory model;
//!    [`protocols`] holds replicas of the workspace's concurrency cores
//!    (sweep work-stealing deque, serve drain/backpressure state
//!    machine) checked against exactly-once / termination / rising-edge
//!    properties.
//! 3. **Facade** ([`sync`]): the `std::sync` surface the concurrency
//!    crates import. In normal builds it is a zero-cost re-export of
//!    `std`; under `--cfg mobicore_model` it swaps in the model types
//!    so protocol code compiles against both.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cargo_targets;
pub mod lint;
pub mod model;
pub mod protocols;
pub mod source;
pub mod sync;
