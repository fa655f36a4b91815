#![forbid(unsafe_code)]
//! # Patchable datasets: row deltas over a relation, with generations
//!
//! The batch crates answer "what are the dependencies of *this*
//! relation"; this crate lets a relation change underneath them. A
//! [`DatasetEngine`] wraps [`tane_relation::DeltaStore`] — appended rows
//! and deleted row indices applied with stable dictionary codes — and
//! keeps the current generation materialized as an immutable snapshot
//! (DESIGN §11). Each effective patch bumps the generation and the
//! snapshot's content hash, which is what the server keys its caches on.
//!
//! Discovery on a patched dataset is the plain search on a snapshot, so it
//! answers byte for byte like a fresh upload of the same rows, at any
//! thread count and on either partition store.

pub mod engine;

pub use engine::{DatasetEngine, EngineLimits, PatchError, PatchOutcome};
