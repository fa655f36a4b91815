//! The dataset registry: built-in synthetic datasets plus uploads.
//!
//! Built-ins (the paper's Table 1 corpus, `tane_datasets::by_name`) are
//! generated lazily on first request and then kept; uploads arrive as CSV
//! bodies on `POST /datasets/{name}`. Lookups hand out `Arc<Relation>` so
//! concurrent jobs share one copy of the data.
//!
//! Uploads are **mutable**: each one is wrapped in a
//! [`tane_delta::DatasetEngine`], so `PATCH /v1/datasets/{name}/rows` can
//! append and delete rows. Lookups hand out the engine's current snapshot,
//! and a discovery searches that snapshot like any other relation.
//! Built-ins stay static — they are the reproducible benchmark corpus.

use std::sync::{Arc, RwLock};
use tane_delta::{DatasetEngine, EngineLimits};
use tane_partition::DiskQuota;
use tane_relation::{NullSemantics, Relation};
use tane_util::FxHashMap;

/// Default per-dataset disk quota when the server is not told otherwise:
/// generous enough that only a runaway search (or a deliberately tiny
/// override in tests) ever hits it.
pub const DEFAULT_DISK_QUOTA_BYTES: u64 = 4 << 30;

/// What [`DatasetRegistry::remove`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoveOutcome {
    /// The upload existed and is gone.
    Removed,
    /// The name belongs to a built-in dataset; those cannot be removed.
    Builtin,
    /// No dataset of that name was registered.
    NotFound,
}

enum Stored {
    /// A generated built-in (or a value-less relation inserted directly in
    /// tests): immutable.
    Static(Arc<Relation>),
    /// An upload with its engine: patchable.
    Engine(Arc<DatasetEngine>),
}

impl Stored {
    fn relation(&self) -> Arc<Relation> {
        match self {
            Stored::Static(r) => Arc::clone(r),
            Stored::Engine(e) => e.merged(),
        }
    }
}

/// Thread-safe name → dataset map.
pub struct DatasetRegistry {
    inner: RwLock<FxHashMap<String, Stored>>,
    /// One [`DiskQuota`] per dataset name, created lazily on the first
    /// disk-backed search and shared by every concurrent search of that
    /// dataset — the per-dataset spill cap DESIGN §13 describes.
    quotas: RwLock<FxHashMap<String, Arc<DiskQuota>>>,
    quota_limit: u64,
}

impl Default for DatasetRegistry {
    fn default() -> Self {
        DatasetRegistry::new()
    }
}

impl DatasetRegistry {
    /// An empty registry (built-ins materialize on first use) with the
    /// default per-dataset disk quota.
    pub fn new() -> DatasetRegistry {
        DatasetRegistry::with_disk_quota(DEFAULT_DISK_QUOTA_BYTES)
    }

    /// An empty registry whose disk-backed searches are each capped at
    /// `quota_limit` spilled bytes per dataset.
    pub fn with_disk_quota(quota_limit: u64) -> DatasetRegistry {
        DatasetRegistry {
            inner: RwLock::new(FxHashMap::default()),
            quotas: RwLock::new(FxHashMap::default()),
            quota_limit,
        }
    }

    /// The shared disk quota for `name`. Every disk-backed search of the
    /// same dataset charges the same quota object, so their combined spill
    /// is what the cap bounds; distinct datasets never contend.
    pub fn disk_quota(&self, name: &str) -> Arc<DiskQuota> {
        if let Some(q) = self
            .quotas
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Arc::clone(q);
        }
        let mut quotas = self.quotas.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            quotas
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(DiskQuota::new(self.quota_limit))),
        )
    }

    /// Resolves `name` to the current relation: uploads see their merged
    /// (post-patch) view, built-ins generate on first use. Already-loaded
    /// entries first, then the built-in generators.
    pub fn get(&self, name: &str) -> Option<Arc<Relation>> {
        if let Some(stored) = self
            .inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            return Some(stored.relation());
        }
        // Built-in: generate outside any lock (seconds for the big ones),
        // then race to insert — first writer wins so every caller shares
        // one Arc.
        let generated = Arc::new(tane_datasets::by_name(name)?);
        let mut map = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let entry = map
            .entry(name.to_string())
            .or_insert(Stored::Static(generated));
        // lint:lock-order(inner -> state): resolving an uploaded dataset
        // snapshots its delta engine (engine `state` mutex) under the
        // registry map lock; the engine never calls back into the
        // registry, so the reverse nesting cannot occur.
        Some(entry.relation())
    }

    /// The engine behind `name`, if it is a patchable upload.
    pub fn engine(&self, name: &str) -> Option<Arc<DatasetEngine>> {
        match self
            .inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
        {
            Some(Stored::Engine(e)) => Some(Arc::clone(e)),
            _ => None,
        }
    }

    /// Whether `name` is one of the built-in benchmark datasets. Built-ins
    /// can be uploaded *over* (the upload wins for lookups) but never
    /// unregistered or patched — the service's corpus stays intact.
    pub fn is_builtin(name: &str) -> bool {
        tane_datasets::DATASET_NAMES.contains(&name)
    }

    /// Unregisters an uploaded dataset. Built-in names are refused
    /// ([`RemoveOutcome::Builtin`]) whether or not they have been
    /// generated; unknown names report [`RemoveOutcome::NotFound`].
    pub fn remove(&self, name: &str) -> RemoveOutcome {
        if Self::is_builtin(name) {
            return RemoveOutcome::Builtin;
        }
        let mut inner = self.inner.write().unwrap_or_else(|e| e.into_inner());
        let removed = inner.remove(name).is_some();
        drop(inner);
        if removed {
            // A future re-upload starts a fresh lineage, so it gets a fresh
            // quota too. In-flight searches keep their Arc; their charges
            // release as their stores drop.
            self.quotas
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .remove(name);
            RemoveOutcome::Removed
        } else {
            RemoveOutcome::NotFound
        }
    }

    /// Registers (or replaces — a fresh generation lineage) an uploaded
    /// relation, wrapping it in an engine when it carries value
    /// dictionaries (every CSV upload does; raw-code relations fall back
    /// to a static, unpatchable entry).
    pub fn insert(&self, name: &str, relation: Relation) -> Arc<Relation> {
        let arc = Arc::new(relation);
        let stored = match DatasetEngine::new(
            Arc::clone(&arc),
            NullSemantics::NullsEqual,
            EngineLimits::default(),
        ) {
            Ok(engine) => Stored::Engine(Arc::new(engine)),
            Err(_) => Stored::Static(Arc::clone(&arc)),
        };
        self.inner
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), stored);
        arc
    }

    /// Every dataset available right now: loaded ones with their current
    /// shapes, plus not-yet-generated built-ins (shape unknown until
    /// generated). Sorted by name.
    pub fn list(&self) -> Vec<(String, Option<(usize, usize)>)> {
        let map = self.inner.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(String, Option<(usize, usize)>)> = map
            .iter()
            .map(|(name, stored)| {
                let r = stored.relation();
                (name.clone(), Some((r.num_rows(), r.num_attrs())))
            })
            .collect();
        for &name in tane_datasets::DATASET_NAMES {
            if !map.contains_key(name) {
                out.push((name.to_string(), None));
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tane_relation::{RowPatch, Schema, Value};

    fn csv_like(name_rows: &[[&str; 2]]) -> Relation {
        let mut b = Relation::builder(Schema::new(["A", "B"]).unwrap());
        for row in name_rows {
            b.push_row(row.map(Value::from)).unwrap();
        }
        b.build()
    }

    #[test]
    fn builtins_resolve_and_are_shared() {
        let reg = DatasetRegistry::new();
        let a = reg.get("lymphography").expect("built-in");
        let b = reg.get("lymphography").expect("built-in");
        assert!(Arc::ptr_eq(&a, &b), "one generation, shared Arc");
        assert_eq!(a.num_rows(), 148);
        assert!(reg.get("no-such-dataset").is_none());
        assert!(
            reg.engine("lymphography").is_none(),
            "built-ins have no engine"
        );
    }

    #[test]
    fn uploads_can_be_removed_but_builtins_cannot() {
        let reg = DatasetRegistry::new();
        let r = Relation::from_codes(
            Schema::new(["A", "B"]).unwrap(),
            vec![vec![0, 1], vec![1, 1]],
        )
        .unwrap();
        reg.insert("mine", r);
        assert!(reg.get("mine").is_some());
        assert_eq!(reg.remove("mine"), RemoveOutcome::Removed);
        assert!(
            reg.get("mine").is_none(),
            "removed uploads no longer resolve"
        );
        assert_eq!(reg.remove("mine"), RemoveOutcome::NotFound);
        // Built-ins are protected, generated or not.
        assert_eq!(reg.remove("chess"), RemoveOutcome::Builtin);
        let _ = reg.get("lymphography").expect("built-in");
        assert_eq!(reg.remove("lymphography"), RemoveOutcome::Builtin);
        assert!(
            reg.get("lymphography").is_some(),
            "built-in survives the refusal"
        );
        assert!(DatasetRegistry::is_builtin("wbc"));
        assert!(!DatasetRegistry::is_builtin("mine"));
    }

    #[test]
    fn uploads_resolve_and_list() {
        let reg = DatasetRegistry::new();
        let r = Relation::from_codes(
            Schema::new(["A", "B"]).unwrap(),
            vec![vec![0, 1], vec![1, 1]],
        )
        .unwrap();
        reg.insert("mine", r);
        assert_eq!(reg.get("mine").unwrap().num_rows(), 2);
        let listing = reg.list();
        assert!(listing
            .iter()
            .any(|(n, shape)| n == "mine" && *shape == Some((2, 2))));
        assert!(listing
            .iter()
            .any(|(n, shape)| n == "chess" && shape.is_none()));
        // Listing is sorted.
        let names: Vec<&String> = listing.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn value_backed_uploads_are_patchable_and_lookups_track_the_merge() {
        let reg = DatasetRegistry::new();
        reg.insert("mut", csv_like(&[["x", "1"], ["y", "2"]]));
        let engine = reg.engine("mut").expect("CSV-style uploads get engines");
        let before = reg.get("mut").unwrap();
        assert_eq!(before.num_rows(), 2);
        engine
            .patch(&RowPatch {
                deletes: vec![0],
                appends: vec![
                    vec![Value::from("z"), Value::from("3")],
                    vec![Value::from("w"), Value::from("4")],
                ],
            })
            .unwrap();
        let after = reg.get("mut").unwrap();
        assert_eq!(after.num_rows(), 3, "lookup sees the merged view");
        assert_eq!(before.num_rows(), 2, "old snapshots stay immutable");
        assert_ne!(before.content_hash(), after.content_hash());
        // Shapes in the listing follow the current generation.
        assert!(reg
            .list()
            .iter()
            .any(|(n, shape)| n == "mut" && *shape == Some((3, 2))));
    }

    #[test]
    fn disk_quotas_are_shared_per_dataset_and_reset_on_removal() {
        let reg = DatasetRegistry::with_disk_quota(1 << 20);
        let a = reg.disk_quota("chess");
        let b = reg.disk_quota("chess");
        assert!(Arc::ptr_eq(&a, &b), "one quota per dataset");
        assert_eq!(a.limit(), 1 << 20);
        let other = reg.disk_quota("adult");
        assert!(!Arc::ptr_eq(&a, &other), "datasets never share a quota");
        // Removal retires the quota with the lineage.
        reg.insert("mine", csv_like(&[["x", "1"]]));
        let before = reg.disk_quota("mine");
        assert_eq!(reg.remove("mine"), RemoveOutcome::Removed);
        reg.insert("mine", csv_like(&[["y", "2"]]));
        assert!(!Arc::ptr_eq(&before, &reg.disk_quota("mine")));
    }

    #[test]
    fn code_only_uploads_fall_back_to_static_entries() {
        let reg = DatasetRegistry::new();
        let r = Relation::from_codes(Schema::new(["A"]).unwrap(), vec![vec![0, 0, 1]]).unwrap();
        reg.insert("raw", r);
        assert!(reg.get("raw").is_some());
        assert!(reg.engine("raw").is_none(), "no values, no engine");
    }

    #[test]
    fn reupload_starts_a_fresh_generation_lineage() {
        let reg = DatasetRegistry::new();
        reg.insert("gen", csv_like(&[["a", "1"]]));
        let e1 = reg.engine("gen").unwrap();
        reg.insert("gen", csv_like(&[["b", "2"], ["c", "3"]]));
        let e2 = reg.engine("gen").unwrap();
        assert!(!Arc::ptr_eq(&e1, &e2), "replacement replaces the engine");
        assert_eq!(e2.generation(), 0, "fresh lineage starts at generation 0");
        assert_eq!(reg.get("gen").unwrap().num_rows(), 2);
    }
}
