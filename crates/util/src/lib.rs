#![deny(unsafe_code)]
//! Shared utilities for the TANE suite.
//!
//! This crate provides the low-level building blocks that every other crate
//! in the workspace depends on:
//!
//! * [`AttrSet`] — a compact bitset over attribute indices, used to represent
//!   the left-hand sides of dependencies and the nodes of the set-containment
//!   lattice searched by TANE. The paper (Section 6, "Practical analysis")
//!   implements attribute sets "as bit vectors of O(1) words" with hashed
//!   random access; `AttrSet` is exactly that: a single `u64` word supporting
//!   up to [`MAX_ATTRS`] attributes with O(1) set operations.
//! * [`hash`] — a fast multiplicative hasher for small integer keys
//!   (`FxHashMap`/`FxHashSet` aliases). The standard library's SipHash is
//!   collision-resistant but slow for the hot `AttrSet -> level-entry` lookups
//!   TANE performs; the paper likewise assumes constant-time hashed access.
//! * [`timing`] — a small stopwatch used by the benchmark harness.
//! * [`json`] — a hand-rolled JSON value type, reader, and writer: the wire
//!   format of the discovery service and the benchmark reports (`serde` is
//!   unavailable in the offline build).
//! * [`rng`] — a SplitMix64 PRNG for the synthetic dataset generators
//!   (`rand` is likewise unavailable offline).
//! * [`pool`] — a persistent worker pool with per-worker work-stealing
//!   deques, condvar parking, and order-preserving output slots; batches
//!   too cheap to dispatch run inline on the caller. The parallel search
//!   runtime is built on it (std threads + atomics + condvars only).

pub mod attrset;
pub mod fd;
pub mod hash;
pub mod json;
pub mod pool;
pub mod rng;
pub mod timing;

pub use attrset::{AttrSet, AttrSetIter, MAX_ATTRS};
pub use fd::{canonical_fds, Fd};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use json::{Json, JsonError};
pub use pool::{PoolCounters, WorkerPool};
pub use rng::SplitMix64;
pub use timing::Stopwatch;
