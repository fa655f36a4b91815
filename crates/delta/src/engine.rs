//! The per-dataset write path.
//!
//! A [`DatasetEngine`] owns a [`DeltaStore`] (the mutable row storage with
//! stable dictionary codes) and the materialized merged [`Relation`] of the
//! current generation. A **patch** validates against the per-patch row
//! cap, applies the row delta to the store and re-materializes the merged
//! relation; the content hash changes with every effective patch, which is
//! what drives the server's cache invalidation. Discovery is not the
//! engine's business: a caller takes a [`merged`](DatasetEngine::merged)
//! snapshot and runs the plain search on it, so the answer for a patched
//! dataset is by construction the answer for a fresh upload of the same
//! rows (proved byte for byte by `tests/incremental_determinism`).
//!
//! One mutex guards the store and the snapshot together, so a patch and a
//! snapshot read never interleave. Searches hold no lock: a snapshot is an
//! immutable `Arc`, and any number of searches on one dataset run side by
//! side while patches move the dataset past them.

use std::sync::{Arc, Mutex};

use tane_relation::{DeltaStore, NullSemantics, Relation, RelationError, RowPatch};

/// Bounds on one engine's writes.
#[derive(Debug, Clone)]
pub struct EngineLimits {
    /// Most rows (appends + deletes) a single patch may touch; larger
    /// patches are refused (the server maps this to HTTP 413).
    pub max_patch_rows: usize,
}

impl Default for EngineLimits {
    fn default() -> EngineLimits {
        EngineLimits {
            max_patch_rows: 65_536,
        }
    }
}

/// What a successfully applied patch did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchOutcome {
    /// Store generation after the patch (bumped iff the patch was
    /// non-empty).
    pub generation: u64,
    /// Current row count after the patch.
    pub rows: usize,
    /// Rows appended by this patch.
    pub appended: usize,
    /// Distinct rows deleted by this patch.
    pub deleted: usize,
    /// Content hash of the merged relation before the patch.
    pub old_hash: u64,
    /// Content hash after — the server keys caches and jobs on this.
    pub new_hash: u64,
}

/// Why a patch was not applied.
#[derive(Debug)]
pub enum PatchError {
    /// The patch touches more rows than [`EngineLimits::max_patch_rows`].
    TooLarge {
        /// Rows the patch touches.
        rows: usize,
        /// The configured cap.
        cap: usize,
    },
    /// Validation or dictionary failure from the store; the store is
    /// unchanged.
    Relation(RelationError),
}

impl std::fmt::Display for PatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchError::TooLarge { rows, cap } => {
                write!(f, "patch touches {rows} rows; the per-patch cap is {cap}")
            }
            PatchError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PatchError::Relation(e) => Some(e),
            PatchError::TooLarge { .. } => None,
        }
    }
}

struct Inner {
    store: DeltaStore,
    /// The current generation, materialized. Handed out as a snapshot to
    /// searches; replaced (never mutated) by patches.
    merged: Arc<Relation>,
}

/// A patchable dataset: its row store and current snapshot (see module
/// docs).
pub struct DatasetEngine {
    limits: EngineLimits,
    /// Named `state`, not `inner`: lock identity in the derived lock-order
    /// graph (tane-lint R3/R6) is by field name, and the registry's map
    /// lock is already called `inner` — distinct locks, distinct names.
    state: Mutex<Inner>,
}

impl DatasetEngine {
    /// Wraps `base` for patching. `nulls` must match the semantics `base`
    /// was ingested with (the server and CLI use
    /// [`NullSemantics::NullsEqual`], the paper behaviour).
    ///
    /// # Errors
    ///
    /// [`RelationError::ValuesUnavailable`] when `base` was built without
    /// value dictionaries ([`Relation::from_codes`]).
    pub fn new(
        base: Arc<Relation>,
        nulls: NullSemantics,
        limits: EngineLimits,
    ) -> Result<DatasetEngine, RelationError> {
        let store = DeltaStore::from_relation(&base, nulls)?;
        Ok(DatasetEngine {
            limits,
            state: Mutex::new(Inner {
                store,
                merged: base,
            }),
        })
    }

    /// Current store generation (0 until the first effective patch).
    pub fn generation(&self) -> u64 {
        self.lock().store.generation()
    }

    /// Snapshot of the current merged relation. Cheap (`Arc` clone); the
    /// snapshot stays valid and immutable across later patches.
    pub fn merged(&self) -> Arc<Relation> {
        Arc::clone(&self.lock().merged)
    }

    /// Applies one patch (deletes before appends) and re-materializes the
    /// merged relation. Snapshots taken before the patch keep the old
    /// generation; the next [`merged`](DatasetEngine::merged) sees the new
    /// one.
    ///
    /// # Errors
    ///
    /// [`PatchError::TooLarge`] over the per-patch cap (nothing applied);
    /// [`PatchError::Relation`] for invalid rows (store unchanged).
    pub fn patch(&self, patch: &RowPatch) -> Result<PatchOutcome, PatchError> {
        if patch.rows_touched() > self.limits.max_patch_rows {
            return Err(PatchError::TooLarge {
                rows: patch.rows_touched(),
                cap: self.limits.max_patch_rows,
            });
        }
        let mut guard = self.lock();
        let inner = &mut *guard;
        let old_hash = inner.merged.content_hash();
        inner.store.apply(patch).map_err(PatchError::Relation)?;
        inner.merged = Arc::new(inner.store.materialize().map_err(PatchError::Relation)?);
        let deleted = {
            let mut d = patch.deletes.clone();
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        Ok(PatchOutcome {
            generation: inner.store.generation(),
            rows: inner.store.num_rows(),
            appended: patch.appends.len(),
            deleted,
            old_hash,
            new_hash: inner.merged.content_hash(),
        })
    }

    /// Recovers from a poisoned lock: the guarded store and snapshot are
    /// valid after any panic (patches validate-then-apply, and the snapshot
    /// is replaced wholesale), so the poison flag carries no information.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tane_relation::{Schema, Value};

    fn base() -> Arc<Relation> {
        let mut b = Relation::builder(Schema::new(["A", "B", "C"]).unwrap());
        for row in [
            ["1", "x", "p"],
            ["1", "y", "p"],
            ["2", "x", "q"],
            ["2", "y", "q"],
        ] {
            b.push_row(row.map(Value::from)).unwrap();
        }
        Arc::new(b.build())
    }

    fn row(vals: [&str; 3]) -> Vec<Value> {
        vals.map(Value::from).to_vec()
    }

    #[test]
    fn patch_bumps_generation_and_hash() {
        let e =
            DatasetEngine::new(base(), NullSemantics::NullsEqual, EngineLimits::default()).unwrap();
        assert_eq!(e.generation(), 0);
        let h0 = e.merged().content_hash();
        let out = e
            .patch(&RowPatch {
                deletes: vec![0],
                appends: vec![row(["3", "z", "r"])],
            })
            .unwrap();
        assert_eq!(out.generation, 1);
        assert_eq!(out.rows, 4);
        assert_eq!((out.appended, out.deleted), (1, 1));
        assert_eq!(out.old_hash, h0);
        assert_ne!(out.new_hash, h0);
        assert_eq!(e.merged().content_hash(), out.new_hash);
    }

    #[test]
    fn oversized_patches_are_refused_untouched() {
        let limits = EngineLimits { max_patch_rows: 1 };
        let e = DatasetEngine::new(base(), NullSemantics::NullsEqual, limits).unwrap();
        let err = e
            .patch(&RowPatch {
                deletes: vec![0, 1],
                appends: vec![],
            })
            .unwrap_err();
        assert!(matches!(err, PatchError::TooLarge { rows: 2, cap: 1 }));
        assert_eq!(e.generation(), 0);
        assert_eq!(e.merged().num_rows(), 4);
    }

    #[test]
    fn invalid_rows_surface_relation_errors() {
        let e =
            DatasetEngine::new(base(), NullSemantics::NullsEqual, EngineLimits::default()).unwrap();
        let err = e
            .patch(&RowPatch {
                deletes: vec![99],
                appends: vec![],
            })
            .unwrap_err();
        assert!(matches!(
            err,
            PatchError::Relation(RelationError::RowOutOfRange { index: 99, .. })
        ));
    }
}
