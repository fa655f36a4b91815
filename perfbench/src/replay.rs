//! Outside-in replay of one search's lattice through the partition crate's
//! public functions, timing each layer call.
//!
//! The search itself stays a black box: the candidate order is captured
//! with a `ReverifyHooks::supply` that returns `None` (the search is
//! unchanged), and level boundaries come from its `LevelEvent`s. The replay
//! then rebuilds every partition in that order — level 1 from the columns,
//! every later node as the product of its two join parents — through a
//! store of the workload's kind, mirroring the search's removes so the
//! resident set (and with it cache behaviour) stays close to the search's.
//!
//! What the replay cannot see: `C⁺` filtering, prune deletions and which
//! approximate tests reached exact `g3`. Its `g3` pass therefore tests every
//! `X\{A} → A` of the generated nodes, and reports per-call rates that the
//! caller combines with the search's own `g3` count.

use std::sync::Arc;
use std::time::Instant;
use tane_core::{NextLevelCandidate, Storage};
use tane_partition::{
    g3_removed_rows_with_scratch, product_with_scratch, G3Bounds, G3Scratch, MemoryStore,
    PartitionStore, ProductScratch, ReadPhase, SegmentStore, StoreError, StrippedPartition,
};
use tane_relation::Relation;
use tane_util::{AttrSet, FxHashMap, FxHashSet};

/// Time and volume of each layer call the replay made.
#[derive(Debug, Default, Clone)]
pub struct LayerCost {
    pub level1_ms: f64,
    pub products: u64,
    pub product_ms: f64,
    /// `‖π̂_a‖ + ‖π̂_b‖` summed over products: the elements each call walks.
    pub product_elements: u64,
    pub g3_calls: u64,
    pub g3_ms: f64,
    pub g3_elements: u64,
    pub put_ms: f64,
    pub get_ms: f64,
    pub seal_ms: f64,
    pub remove_ms: f64,
}

impl LayerCost {
    pub fn add(&mut self, o: &LayerCost) {
        self.level1_ms += o.level1_ms;
        self.products += o.products;
        self.product_ms += o.product_ms;
        self.product_elements += o.product_elements;
        self.g3_calls += o.g3_calls;
        self.g3_ms += o.g3_ms;
        self.g3_elements += o.g3_elements;
        self.put_ms += o.put_ms;
        self.get_ms += o.get_ms;
        self.seal_ms += o.seal_ms;
        self.remove_ms += o.remove_ms;
    }

    pub fn store_ms(&self) -> f64 {
        self.put_ms + self.get_ms + self.seal_ms + self.remove_ms
    }
}

/// The store kind the search used, behind its public trait.
enum Store {
    Memory(MemoryStore),
    Segments(Box<SegmentStore>),
}

impl Store {
    fn new(storage: &Storage) -> Result<Store, StoreError> {
        Ok(match storage {
            Storage::Memory => Store::Memory(MemoryStore::new()),
            Storage::Disk { cache_bytes } => {
                Store::Segments(Box::new(SegmentStore::new(*cache_bytes)?))
            }
        })
    }

    fn inner(&self) -> &dyn PartitionStore {
        match self {
            Store::Memory(s) => s,
            Store::Segments(s) => s.as_ref(),
        }
    }

    fn inner_mut(&mut self) -> &mut dyn PartitionStore {
        match self {
            Store::Memory(s) => s,
            Store::Segments(s) => s.as_mut(),
        }
    }

    fn begin_read_phase(&self) -> Option<ReadPhase> {
        match self {
            Store::Memory(_) => None,
            Store::Segments(s) => Some(s.begin_read_phase()),
        }
    }

    fn end_read_phase(&self, phase: Option<ReadPhase>) {
        if let (Store::Segments(s), Some(p)) = (self, phase) {
            s.end_read_phase(p);
        }
    }
}

/// Timed wrappers around the store calls.
struct Timed {
    store: Store,
    cost: LayerCost,
}

impl Timed {
    fn put(&mut self, key: AttrSet, p: StrippedPartition) -> Result<(), StoreError> {
        let t = Instant::now();
        self.store.inner_mut().put(key, p)?;
        self.cost.put_ms += crate::common::ms(t, Instant::now());
        Ok(())
    }

    fn get(&mut self, key: AttrSet) -> Result<Arc<StrippedPartition>, StoreError> {
        let t = Instant::now();
        let p = self.store.inner().get(key)?;
        self.cost.get_ms += crate::common::ms(t, Instant::now());
        Ok(p)
    }

    fn remove(&mut self, key: AttrSet) {
        let t = Instant::now();
        self.store.inner_mut().remove(key);
        self.cost.remove_ms += crate::common::ms(t, Instant::now());
    }

    fn seal(&mut self) -> Result<(), StoreError> {
        let t = Instant::now();
        self.store.inner_mut().seal_level()?;
        self.cost.seal_ms += crate::common::ms(t, Instant::now());
        Ok(())
    }
}

/// Replays one search. `batches[i]` holds the candidates generated after
/// level `i + 1` finished, in the search's order; `epsilon` turns on the
/// `g3` pass of approximate mode.
pub fn replay(
    relation: &Relation,
    batches: &[Vec<NextLevelCandidate>],
    storage: &Storage,
    epsilon: Option<f64>,
) -> Result<LayerCost, StoreError> {
    let n_rows = relation.num_rows();
    let mut st = Timed {
        store: Store::new(storage)?,
        cost: LayerCost::default(),
    };
    let mut product_scratch = ProductScratch::new(n_rows);
    let mut g3_scratch = G3Scratch::new(n_rows);
    // Error rows per stored node, for the O(1) g3 bounds.
    let mut error_rows: FxHashMap<AttrSet, usize> = FxHashMap::default();

    let unit = StrippedPartition::unit(n_rows);
    error_rows.insert(AttrSet::empty(), unit.error_rows());
    st.put(AttrSet::empty(), unit)?;
    let mut current: Vec<AttrSet> = Vec::new();
    for a in 0..relation.num_attrs() {
        let t = Instant::now();
        let p = StrippedPartition::from_column(relation.column_codes(a));
        st.cost.level1_ms += crate::common::ms(t, Instant::now());
        error_rows.insert(AttrSet::singleton(a), p.error_rows());
        st.put(AttrSet::singleton(a), p)?;
        current.push(AttrSet::singleton(a));
    }
    st.seal()?;
    let mut previous = vec![AttrSet::empty()];

    for candidates in batches {
        if let Some(eps) = epsilon {
            g3_pass(&mut st, &current, &error_rows, eps, n_rows, &mut g3_scratch)?;
        }
        // The search drops level ℓ−1 once level ℓ's tests are done.
        for &set in &previous {
            st.remove(set);
        }
        let phase = st.store.begin_read_phase();
        let mut produced = Vec::with_capacity(candidates.len());
        for c in candidates {
            let a = st.get(c.parent_a)?;
            let b = st.get(c.parent_b)?;
            let t = Instant::now();
            let p = product_with_scratch(&a, &b, &mut product_scratch);
            st.cost.product_ms += crate::common::ms(t, Instant::now());
            st.cost.products += 1;
            st.cost.product_elements += (a.num_elements() + b.num_elements()) as u64;
            produced.push((c.set, p));
        }
        st.store.end_read_phase(phase);
        for (set, p) in produced {
            error_rows.insert(set, p.error_rows());
            st.put(set, p)?;
        }
        st.seal()?;
        // The search frees its pruned (deleted) level-ℓ entries right after
        // the seal. A deleted entry is a subset of no candidate, so freeing
        // every such entry now matches it, give or take live entries that
        // no candidate needs.
        let needed: FxHashSet<AttrSet> = candidates
            .iter()
            .flat_map(|c| c.set.proper_subsets_one_smaller().map(|(_, s)| s))
            .collect();
        for &set in current.iter().filter(|s| !needed.contains(s)) {
            st.remove(set);
        }
        previous = current.into_iter().filter(|s| needed.contains(s)).collect();
        current = candidates.iter().map(|c| c.set).collect();
    }
    Ok(st.cost)
}

/// Approximate validity tests of one level: Lemma 2 equality, then the
/// quick bounds, then exact `g3` for whatever the bounds leave open.
fn g3_pass(
    st: &mut Timed,
    level: &[AttrSet],
    error_rows: &FxHashMap<AttrSet, usize>,
    epsilon: f64,
    n_rows: usize,
    scratch: &mut G3Scratch,
) -> Result<(), StoreError> {
    for &x in level {
        let Some(&e_x) = error_rows.get(&x) else {
            continue;
        };
        for (_, sub) in x.proper_subsets_one_smaller() {
            let Some(&e_sub) = error_rows.get(&sub) else {
                continue;
            };
            let bounds = G3Bounds {
                lower_rows: e_sub.saturating_sub(e_x),
                upper_rows: e_sub,
                n_rows,
            };
            if e_sub == e_x || bounds.decide(epsilon).is_some() {
                continue;
            }
            let (pi_sub, pi_x) = (st.get(sub)?, st.get(x)?);
            let t = Instant::now();
            std::hint::black_box(g3_removed_rows_with_scratch(&pi_sub, &pi_x, scratch));
            st.cost.g3_ms += crate::common::ms(t, Instant::now());
            st.cost.g3_calls += 1;
            st.cost.g3_elements += (pi_sub.num_elements() + pi_x.num_elements()) as u64;
        }
    }
    Ok(())
}
