#![forbid(unsafe_code)]
//! # TANE: levelwise discovery of functional and approximate dependencies
//!
//! This crate implements the algorithm of Huhtala, Kärkkäinen, Porkka and
//! Toivonen, *"Efficient Discovery of Functional and Approximate
//! Dependencies Using Partitions"* (ICDE 1998): a breadth-first search of
//! the attribute-set containment lattice that finds **all minimal
//! non-trivial functional dependencies** of a relation — and, with a
//! threshold `ε`, all minimal **approximate** dependencies with
//! `g3(X → A) ≤ ε`.
//!
//! ## Quick start
//!
//! ```
//! use tane_core::{discover_fds, TaneConfig};
//! use tane_relation::{Relation, Schema, Value};
//!
//! // The example relation from Figure 1 of the paper.
//! let schema = Schema::new(["A", "B", "C", "D"]).unwrap();
//! let mut b = Relation::builder(schema);
//! for row in [
//!     ["1", "a", "$", "Flower"],   ["1", "A", "L", "Tulip"],
//!     ["2", "A", "$", "Daffodil"], ["2", "A", "$", "Flower"],
//!     ["2", "b", "L", "Lily"],     ["3", "b", "$", "Orchid"],
//!     ["3", "c", "L", "Flower"],   ["3", "c", "#", "Rose"],
//! ] {
//!     b.push_row(row.map(Value::from)).unwrap();
//! }
//! let relation = b.build();
//!
//! let result = discover_fds(&relation, &TaneConfig::default()).unwrap();
//! // {B,C} → A is one of the minimal dependencies (paper, Example 2).
//! assert!(result
//!     .fds
//!     .iter()
//!     .any(|fd| fd.rhs == 0 && fd.lhs == tane_util::AttrSet::from_indices([1, 2])));
//! ```
//!
//! ## Structure
//!
//! * [`config`] — [`TaneConfig`] / [`ApproxTaneConfig`]: storage backend
//!   (memory vs disk, the paper's TANE/MEM vs TANE variants), LHS size cap,
//!   and ablation switches for each pruning rule.
//! * [`lattice`] — lattice levels, `C⁺` candidate bookkeeping, and the
//!   apriori-style GENERATE-NEXT-LEVEL procedure (paper, Section 5).
//! * [`search`] — COMPUTE-DEPENDENCIES and PRUNE, driving the whole
//!   levelwise loop for both exact and approximate modes.
//! * [`result`] — [`TaneResult`] with the discovered cover and detailed
//!   search statistics ([`TaneStats`]).

pub mod assoc;
pub mod config;
pub mod cover;
pub mod lattice;
pub mod rank;
pub mod result;
pub mod search;
pub mod violations;

pub use assoc::{mine_assoc_rules, AssocConfig, AssocRule};
pub use config::{ApproxTaneConfig, Storage, TaneConfig, TopKConfig};
pub use cover::{attribute_closure, candidate_keys, implies, is_superkey, remove_redundant};
pub use lattice::NextLevelCandidate;
pub use rank::{RankedFd, TopKEvent};
pub use result::{
    Counter, CounterKind, CounterValue, LevelEvent, TaneError, TaneResult, TaneStats,
};
pub use search::{
    discover_approx_fds, discover_approx_fds_with, discover_fds, discover_fds_with,
    discover_topk_fds, discover_topk_fds_with, reverify_approx_fds_with, reverify_fds_with,
    ReverifyHooks,
};
pub use tane_util::Fd;
pub use violations::{fd_error, violating_rows};
