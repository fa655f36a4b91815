//! The TANE search: COMPUTE-DEPENDENCIES, PRUNE, and the levelwise driver.
//!
//! This module is a direct implementation of the pseudocode in Section 5 of
//! the paper, in both exact and approximate modes:
//!
//! ```text
//! L_0 := {∅};  C⁺(∅) := R;  L_1 := {{A} | A ∈ R};  ℓ := 1
//! while L_ℓ ≠ ∅:
//!     COMPUTE-DEPENDENCIES(L_ℓ)
//!     PRUNE(L_ℓ)
//!     L_{ℓ+1} := GENERATE-NEXT-LEVEL(L_ℓ);  ℓ := ℓ + 1
//! ```
//!
//! Exact validity tests are O(1) comparisons of partition summaries
//! (Lemma 2); approximate tests use the quick `g3` bounds first and fall
//! back to the exact O(‖π̂‖) computation only when the bounds cannot decide
//! (paper, Section 5 "Optimizations").
//!
//! ## Key pruning and approximate dependencies
//!
//! The paper's Section 5 describes the approximate variant as changing only
//! the validity test (line 5′) and the rhs⁺ refinement (line 8′). Read
//! literally, that keeps PRUNE's key pruning — which is **unsound** for
//! approximate dependencies. The exact-mode soundness argument rests on
//! Lemma 4(2): *if `X` is a superkey and `X\{B} → B` holds, `X\{B}` is a
//! superkey*. With `g3`-validity the lemma fails: `X\{B} → B` can hold
//! approximately while `X\{B}` is far from a superkey. Concretely, in the
//! Figure 1 relation at `ε = 1/8`, `{A,D}` is a key, so the node `{A,C,D}`
//! is never generated — yet `{C,D} → A` (error 1/8) is a minimal approximate
//! dependency whose only test lives at that node.
//!
//! This implementation therefore adds a *superkey-closure test* in
//! approximate mode: after pruning level ℓ, for every live node `W` and
//! candidate rhs `A ∉ W` such that `W ∪ {A}` contains an already-found key,
//! the partition `π_{W∪{A}}` is a superkey partition, so
//! `g3(W → A) = e(W)` **exactly** (the two bounds coincide) and the test is
//! decided from metadata already on hand. Minimality for these recovered
//! dependencies (and for key-pruning outputs in approximate mode) is
//! checked against the set of dependencies found so far, which the
//! levelwise order makes exact.
//!
//! A second, related fix applies to **both** modes: PRUNE's key-output
//! minimality test `A ∈ ∩_{B∈X} C⁺(X∪{A}\{B})` reads same-level sets that
//! may never have been generated *because a subset key was pruned earlier*
//! (e.g. with key `{D}`, the sets `{B,D}` and `{C,D}` never exist, and the
//! minimal FD `{B,C} → D` would be silently skipped at key `{B,C}` if
//! missing sets were treated as failures). The key outputs therefore use
//! the found-so-far minimality check as well; property tests against the
//! brute-force oracle pin both fixes down.

use crate::config::{ApproxTaneConfig, Storage, TaneConfig, TopKConfig};
use crate::lattice::{
    first_level_sets, generate_next_level, Level, LevelEntry, NextLevelCandidate,
};
use crate::rank::{RankState, TopKEvent};
use crate::result::{LevelEvent, TaneError, TaneResult, TaneStats};
use std::sync::{Arc, Mutex};
use tane_partition::{
    g3_removed_rows_with_scratch, product_with_scratch, G3Bounds, G3Scratch, MemoryStore,
    PartitionStore, ProductScratch, ReadPhase, SegmentStore, StoreCounters, StrippedPartition,
};
use tane_relation::Relation;
use tane_util::{canonical_fds, AttrSet, Fd, Stopwatch, WorkerPool};

/// Discovers all minimal non-trivial functional dependencies of `relation`
/// (the paper's central task, Section 1).
///
/// # Errors
///
/// Only the disk storage backend can fail (I/O); see [`TaneError`].
pub fn discover_fds(relation: &Relation, config: &TaneConfig) -> Result<TaneResult, TaneError> {
    discover_fds_with(relation, config, |_| {})
}

/// Discovers all minimal non-trivial approximate dependencies
/// `X → A` with `g3(X → A) ≤ config.epsilon` (paper, Sections 1–2).
///
/// With `epsilon = 0` the result equals [`discover_fds`].
pub fn discover_approx_fds(
    relation: &Relation,
    config: &ApproxTaneConfig,
) -> Result<TaneResult, TaneError> {
    discover_approx_fds_with(relation, config, |_| {})
}

/// [`discover_fds`], observing the search level by level: `on_level` fires a
/// [`LevelEvent`] each time COMPUTE-DEPENDENCIES + PRUNE finish a lattice
/// level, *before* the next level's partitions are generated — the earliest
/// moment the level's dependencies are final. The buffering entry points are
/// implemented on top of this one with a no-op observer.
///
/// The union of `new_minimal_fds` over all events equals the returned
/// `TaneResult::fds` as a set (the final result is globally re-canonicalized,
/// so the *order* across levels differs).
pub fn discover_fds_with(
    relation: &Relation,
    config: &TaneConfig,
    mut on_level: impl FnMut(LevelEvent),
) -> Result<TaneResult, TaneError> {
    run(
        relation,
        config,
        Mode::Exact,
        &mut on_level,
        &mut |_| {},
        None,
    )
}

/// [`discover_approx_fds`] with a per-level observer; see
/// [`discover_fds_with`] for the event contract.
pub fn discover_approx_fds_with(
    relation: &Relation,
    config: &ApproxTaneConfig,
    mut on_level: impl FnMut(LevelEvent),
) -> Result<TaneResult, TaneError> {
    run(
        relation,
        &config.base,
        Mode::Approx {
            epsilon: config.epsilon,
            use_bounds: config.use_g3_bounds,
            aggressive: config.aggressive_rhs_plus,
        },
        &mut on_level,
        &mut |_| {},
        None,
    )
}

/// Discovers the `k` best non-redundant dependencies of `relation`, ranked
/// by `g3` error with the canonical tie-break (see [`crate::rank`]).
///
/// The ranked pool contains every `X → A` that strictly improves on all
/// its generalizations — exactly the union, over all thresholds `ε`, of the
/// minimal covers [`discover_approx_fds`] reports. The search prunes
/// candidates whose cheap `g3` lower bound cannot beat the current k-th
/// best and stops the lattice walk as soon as no remaining level can enter
/// the heap, so it is an *anytime, early-exit* search: on inputs with many
/// shallow exact dependencies it touches a fraction of the lattice a full
/// run would (DESIGN §12). `TaneResult::ranked` holds the heap, best
/// first; `TaneResult::fds` holds the same dependencies in canonical order.
pub fn discover_topk_fds(
    relation: &Relation,
    config: &TopKConfig,
) -> Result<TaneResult, TaneError> {
    discover_topk_fds_with(relation, config, |_| {}, |_| {})
}

/// [`discover_topk_fds`] with observers: `on_level` fires per lattice level
/// (see [`discover_fds_with`]; in ranked mode `new_minimal_fds` carries the
/// *exact* minimal dependencies first proven at the level), and `on_topk`
/// fires after every level on which the heap changed, carrying the current
/// best-k snapshot — the stream's anytime result.
pub fn discover_topk_fds_with(
    relation: &Relation,
    config: &TopKConfig,
    mut on_level: impl FnMut(LevelEvent),
    mut on_topk: impl FnMut(TopKEvent),
) -> Result<TaneResult, TaneError> {
    run(
        relation,
        &config.base,
        Mode::TopK { k: config.k },
        &mut on_level,
        &mut on_topk,
        None,
    )
}

/// [`discover_fds_with`] with an external partition supplier.
///
/// The search runs exactly as usual, except that every next-level candidate
/// is first offered to `hooks.supply`; a supplied partition skips that
/// candidate's product (counted in [`TaneStats::partitions_supplied`]
/// instead of [`TaneStats::products`]). Because a supplied partition must
/// equal the producted one as a set of classes, and every consumer of a
/// partition (`error_rows`, `is_superkey`, `g3`, refinement checks) is
/// independent of class order, the discovered dependencies, keys, and
/// [`LevelEvent`] stream are byte-identical to a from-scratch run on the
/// same relation — only the product counters differ.
///
/// The only caller in the tree is perfbench's outside-in replay, whose
/// supplier returns `None` and just logs the candidate order.
pub fn reverify_fds_with(
    relation: &Relation,
    config: &TaneConfig,
    hooks: &mut ReverifyHooks<'_>,
    mut on_level: impl FnMut(LevelEvent),
) -> Result<TaneResult, TaneError> {
    run(
        relation,
        config,
        Mode::Exact,
        &mut on_level,
        &mut |_| {},
        Some(hooks),
    )
}

/// [`discover_approx_fds_with`] with an external partition supplier; see
/// [`reverify_fds_with`] for the supply contract.
pub fn reverify_approx_fds_with(
    relation: &Relation,
    config: &ApproxTaneConfig,
    hooks: &mut ReverifyHooks<'_>,
    mut on_level: impl FnMut(LevelEvent),
) -> Result<TaneResult, TaneError> {
    run(
        relation,
        &config.base,
        Mode::Approx {
            epsilon: config.epsilon,
            use_bounds: config.use_g3_bounds,
            aggressive: config.aggressive_rhs_plus,
        },
        &mut on_level,
        &mut |_| {},
        Some(hooks),
    )
}

/// External partition supply for `reverify_fds_with` and
/// `reverify_approx_fds_with`.
///
/// `supply` is called once per [`NextLevelCandidate`], in the deterministic
/// candidate order of GENERATE-NEXT-LEVEL, on the serial driver thread —
/// so a supplier doubles as a visit log of exactly which lattice nodes the
/// search materializes. Returning `Some(π̂)` hands the search a
/// ready-made stripped partition for `candidate.set` (it must equal
/// `π̂_{parent_a} · π̂_{parent_b}` as a set of classes, over the same row
/// count); returning `None` lets the search compute the product itself.
pub struct ReverifyHooks<'a> {
    /// The partition supplier; see the struct docs for the contract.
    pub supply: &'a mut dyn FnMut(&NextLevelCandidate) -> Option<StrippedPartition>,
}

#[derive(Clone, Copy)]
enum Mode {
    Exact,
    Approx {
        epsilon: f64,
        use_bounds: bool,
        aggressive: bool,
    },
    /// Ranked anytime search for the `k` best non-redundant dependencies
    /// by `g3`; runs the exact-mode lattice walk (the `C⁺` machinery is
    /// sound for the ranked pool — every pruned test has an equal-or-better
    /// generalization, see DESIGN §12) plus the ranking state of
    /// [`crate::rank`].
    TopK {
        k: usize,
    },
}

/// Accumulates discovered dependencies plus, per rhs, the valid LHSs found
/// so far — the levelwise order makes "no recorded LHS is a subset" an exact
/// minimality test, used by the approximate-mode key outputs and superkey-
/// closure tests.
struct Discovery {
    fds: Vec<Fd>,
    minimal_lhs: Vec<Vec<AttrSet>>,
}

impl Discovery {
    fn new(n_attrs: usize) -> Discovery {
        Discovery {
            fds: Vec::new(),
            minimal_lhs: vec![Vec::new(); n_attrs],
        }
    }

    fn record(&mut self, fd: Fd) {
        self.minimal_lhs[fd.rhs].push(fd.lhs);
        self.fds.push(fd);
    }

    /// `true` iff some already-found valid dependency `V → rhs` has
    /// `V ⊆ lhs` (equality included, which also prevents duplicates).
    fn has_valid_subset(&self, lhs: AttrSet, rhs: usize) -> bool {
        self.minimal_lhs[rhs].iter().any(|&v| v.is_subset_of(lhs))
    }
}

/// Partition storage, dispatched statically per backend.
///
/// Reads (`get`, `elements_hint`) take `&self` and are safe from any worker
/// thread; every mutation stays `&mut self` and therefore on the serial
/// driver — the aliasing rules are what let the segment store run its
/// snapshot machinery without a global lock (DESIGN §13).
enum Store {
    Memory(MemoryStore),
    Disk(Box<SegmentStore>),
}

impl Store {
    fn from_config(config: &TaneConfig) -> Result<Store, TaneError> {
        Ok(match &config.storage {
            Storage::Memory => Store::Memory(MemoryStore::new()),
            Storage::Disk { cache_bytes } => Store::Disk(Box::new(match &config.disk_quota {
                Some(quota) => SegmentStore::with_quota(*cache_bytes, quota.clone())?,
                None => SegmentStore::new(*cache_bytes)?,
            })),
        })
    }

    fn put(&mut self, key: AttrSet, p: StrippedPartition) -> Result<(), TaneError> {
        match self {
            Store::Memory(s) => s.put(key, p)?,
            Store::Disk(s) => s.put(key, p)?,
        }
        Ok(())
    }

    fn get(&self, key: AttrSet) -> Result<std::sync::Arc<StrippedPartition>, TaneError> {
        Ok(match self {
            Store::Memory(s) => s.get(key)?,
            Store::Disk(s) => s.get(key)?,
        })
    }

    fn remove(&mut self, key: AttrSet) {
        match self {
            Store::Memory(s) => s.remove(key),
            Store::Disk(s) => s.remove(key),
        }
    }

    /// Declares the current batch of puts — one lattice level — complete.
    /// The segment store seals the level's segment file (records become
    /// immutable and `pread`-able by any worker) and releases the level's
    /// cache pins, making grandparent levels evictable level-at-a-time.
    fn seal_level(&mut self) -> Result<(), TaneError> {
        match self {
            Store::Memory(_) => Ok(()),
            Store::Disk(s) => Ok(s.seal_level()?),
        }
    }

    /// `‖π̂‖` of the stored partition, from index metadata alone (no I/O);
    /// 0 if absent. Feeds the batch cost the pool's dispatch gate reads.
    fn elements_hint(&self, key: AttrSet) -> usize {
        match self {
            Store::Memory(s) => s.elements_hint(key).unwrap_or(0),
            Store::Disk(s) => s.elements_hint(key).unwrap_or(0),
        }
    }

    /// Opens a snapshot pin on the disk store (memory storage needs none):
    /// partitions fetched until the matching [`end_read_phase`] stay
    /// resident, and segments removed meanwhile stay on disk.
    ///
    /// [`end_read_phase`]: Store::end_read_phase
    fn begin_read_phase(&self) -> Option<ReadPhase> {
        match self {
            Store::Memory(_) => None,
            Store::Disk(s) => Some(s.begin_read_phase()),
        }
    }

    fn end_read_phase(&self, phase: Option<ReadPhase>) {
        if let (Store::Disk(s), Some(p)) = (self, phase) {
            s.end_read_phase(p);
        }
    }

    fn resident_bytes(&self) -> usize {
        match self {
            Store::Memory(s) => s.resident_bytes(),
            Store::Disk(s) => s.resident_bytes(),
        }
    }

    /// The disk store's I/O and cache counters; memory storage has none.
    fn counters(&self) -> StoreCounters {
        match self {
            Store::Memory(_) => StoreCounters::default(),
            Store::Disk(s) => s.counters(),
        }
    }
}

/// The per-search parallel runtime: one persistent [`WorkerPool`] plus
/// per-worker scratch tables, all allocated once per run and reused across
/// every lattice level (no per-level thread spawns or O(|r|) allocations).
///
/// Every level batch — level-1 construction, the Lemma 3 products, the
/// exact `g3` tests — takes one path: the pool's indexed map, handed the
/// batch's estimated `Σ‖π̂‖`, which runs it inline on the driver or
/// dispatches it to the workers. Determinism argument: either way the
/// outputs come back in input order, and every decision that *consumes*
/// them (C⁺ updates, pruning, FD recording) stays in the serial driver —
/// the search result is byte-identical for any worker count.
struct ParallelRuntime {
    pool: WorkerPool,
    product_scratches: Vec<Mutex<ProductScratch>>,
    g3_scratches: Vec<Mutex<G3Scratch>>,
}

impl ParallelRuntime {
    fn new(threads: usize, n_rows: usize) -> ParallelRuntime {
        ParallelRuntime {
            pool: WorkerPool::new(threads),
            product_scratches: (0..threads)
                .map(|_| Mutex::new(ProductScratch::new(n_rows)))
                .collect(),
            g3_scratches: (0..threads)
                .map(|_| Mutex::new(G3Scratch::new(n_rows)))
                .collect(),
        }
    }

    /// The level's products, in candidate order, with the caller's serial
    /// `driver` tail overlapped against the compute whenever the batch is
    /// dispatched: workers chew through the products while the driver
    /// thread runs `driver()` — the observer event and the
    /// approximate-mode superkey-closure scan of the *previous* level — and
    /// only then joins in as worker 0. The driver closure must not read
    /// any product output; it runs concurrently with them.
    ///
    /// Each product fetches its own parents straight from the shared store
    /// (`get` is `&self`): disk reads from different workers proceed
    /// concurrently as positioned reads of sealed segments, coalesced by
    /// the store's single-flight cache. The whole batch runs inside one
    /// *read phase*, so every distinct parent costs exactly one disk read
    /// no matter how many workers ask or in what order — the disk-read
    /// counters stay byte-identical across worker counts, which is what
    /// keeps the §9 determinism argument intact now that fetch *timing* is
    /// not serialized (DESIGN §13).
    fn products_overlapped(
        &self,
        store: &Store,
        candidates: &[NextLevelCandidate],
        driver: impl FnOnce(),
    ) -> Result<Vec<(AttrSet, StrippedPartition)>, TaneError> {
        if candidates.is_empty() {
            driver();
            return Ok(Vec::new());
        }
        // Work estimate from index metadata alone — no partition is
        // touched before the phase opens, so the dispatch decision is
        // I/O-free and identical at every thread count.
        let est: usize = candidates
            .iter()
            .map(|c| store.elements_hint(c.parent_a) + store.elements_hint(c.parent_b))
            .sum();
        let phase = store.begin_read_phase();
        let scratches = &self.product_scratches;
        let products = self.pool.run_indexed_overlapped(
            candidates.len(),
            est,
            |worker, i| {
                let cand = &candidates[i];
                let pa = store.get(cand.parent_a)?;
                let pb = store.get(cand.parent_b)?;
                let mut scratch = scratches[worker].lock().expect("product scratch");
                Ok((cand.set, product_with_scratch(&pa, &pb, &mut scratch)))
            },
            driver,
        );
        store.end_read_phase(phase);
        // Outputs are in candidate order, so on failure the error reported
        // is the first failing *candidate*, independent of which worker hit
        // an error first.
        products.into_iter().collect()
    }

    /// Level-1 singleton partitions, in attribute order.
    fn singleton_partitions(&self, relation: &Relation) -> Vec<StrippedPartition> {
        let n_attrs = relation.num_attrs();
        // Counting sort over a column touches all |r| rows, so the work
        // estimate is |R|·|r| (singleton partitions have ‖π̂‖ ≤ |r|).
        let est = n_attrs.saturating_mul(relation.num_rows());
        self.pool.run_indexed(n_attrs, est, |_, a| {
            StrippedPartition::from_column(relation.column_codes(a))
        })
    }

    /// Exact `g3` for a batch of undecided validity tests, in input order.
    fn g3_batch(&self, pending: &[(Arc<StrippedPartition>, Arc<StrippedPartition>)]) -> Vec<usize> {
        let est: usize = pending
            .iter()
            .map(|(sub, set)| sub.num_elements() + set.num_elements())
            .sum();
        self.pool.run_indexed(pending.len(), est, |worker, i| {
            let (pi_sub, pi_set) = &pending[i];
            let mut scratch = self.g3_scratches[worker].lock().expect("g3 scratch");
            g3_removed_rows_with_scratch(pi_sub, pi_set, &mut scratch)
        })
    }
}

fn run(
    relation: &Relation,
    config: &TaneConfig,
    mode: Mode,
    on_level: &mut dyn FnMut(LevelEvent),
    on_topk: &mut dyn FnMut(TopKEvent),
    mut hooks: Option<&mut ReverifyHooks<'_>>,
) -> Result<TaneResult, TaneError> {
    let sw = Stopwatch::start();
    let n_attrs = relation.num_attrs();
    let n_rows = relation.num_rows();
    let r_all = AttrSet::full(n_attrs);
    let mut stats = TaneStats::default();
    let mut disc = Discovery::new(n_attrs);
    let mut found_keys: Vec<AttrSet> = Vec::new();
    // Ranked mode: the heap + dominance pool, mutated on this thread only.
    let mut rank = match mode {
        Mode::TopK { k } => Some(RankState::new(k, n_attrs, n_rows)),
        _ => None,
    };

    if n_attrs == 0 {
        stats.elapsed = sw.elapsed();
        return Ok(TaneResult {
            fds: disc.fds,
            keys: found_keys,
            ranked: rank.map(RankState::into_ranked),
            stats,
        });
    }

    let mut store = Store::from_config(config)?;
    // The whole parallel runtime — pool threads and per-worker scratch
    // tables — is allocated here, once, and reused by every level.
    let runtime = ParallelRuntime::new(config.threads, n_rows);

    // L_0 = {∅} with C⁺(∅) = R. Its partition is the one-class π_∅,
    // needed by approximate validity tests at level 1.
    let unit = StrippedPartition::unit(n_rows);
    let mut prev_level = Level::new();
    prev_level.push(LevelEntry {
        set: AttrSet::empty(),
        cplus: r_all,
        error_rows: unit.error_rows(),
        is_superkey: unit.is_superkey(),
        deleted: false,
    });
    store.put(AttrSet::empty(), unit)?;

    // L_1: singleton partitions straight from the dictionary columns,
    // constructed on the pool when the relation is large enough (they are
    // independent counting sorts) and stored in attribute order either way.
    let mut current = Level::new();
    let singletons = runtime.singleton_partitions(relation);
    for (set, pi) in first_level_sets(n_attrs).into_iter().zip(singletons) {
        current.push(LevelEntry {
            set,
            cplus: r_all, // overwritten by COMPUTE-DEPENDENCIES
            error_rows: pi.error_rows(),
            is_superkey: pi.is_superkey(),
            deleted: false,
        });
        store.put(set, pi)?;
    }
    // Levels 0 and 1 are fully written: seal them so their records are
    // immutable on disk and readable by any worker from here on.
    store.seal_level()?;

    let mut ell = 1usize;
    while !current.is_empty() {
        let level_sw = Stopwatch::start();
        let fds_before = disc.fds.len();
        stats.levels = ell;
        let level_size = current.len();
        stats.sets_per_level.push(level_size);
        stats.sets_total += level_size;
        stats.sets_max_level = stats.sets_max_level.max(level_size);

        compute_dependencies(
            relation,
            config,
            mode,
            &mut current,
            &prev_level,
            &store,
            &runtime,
            &mut stats,
            &mut disc,
            rank.as_mut(),
        )?;

        // Partitions of level ℓ−1 are no longer needed: validity tests for
        // this level are done and products for level ℓ+1 use level ℓ.
        for e in prev_level.entries() {
            store.remove(e.set);
        }

        prune(
            config,
            &mut current,
            &mut stats,
            &mut disc,
            &mut found_keys,
            rank.as_mut(),
        );

        // What remains of the level is serial driver work — the
        // approximate-mode superkey-closure recovery and the observer
        // event — and it no longer gates the next level's products: in the
        // overlapped flow below, `level_tail` runs on the driver thread
        // *while* the pool multiplies the next level's partitions. That is
        // legal because the tail reads only level-ℓ metadata (never a
        // product output), and the products read only the frozen pruned
        // level (never `disc`, `stats`, or the observer's state); see
        // DESIGN §9 for the full argument.
        //
        // Ranked mode instead runs the tail *now*: its superkey-closure
        // scores feed the early-exit decision, which must be taken before
        // the next level's products are paid for — early exit is the whole
        // point of the ranked workload (DESIGN §12).
        if rank.is_some() {
            level_tail(
                config,
                mode,
                &current,
                &found_keys,
                n_rows,
                &mut stats,
                &mut disc,
                on_level,
                on_topk,
                rank.as_mut(),
                ell,
                fds_before,
                &level_sw,
                store.resident_bytes(),
            );
        }

        // LHS size cap: dependencies tested at level ℓ+1 have LHS size ℓ.
        if config.max_lhs.is_some_and(|m| ell > m) {
            if rank.is_none() {
                level_tail(
                    config,
                    mode,
                    &current,
                    &found_keys,
                    n_rows,
                    &mut stats,
                    &mut disc,
                    on_level,
                    on_topk,
                    None,
                    ell,
                    fds_before,
                    &level_sw,
                    store.resident_bytes(),
                );
            }
            stats.level_times.push(level_sw.elapsed());
            break;
        }

        // Ranked early exit: every candidate at a deeper level has an LHS
        // of ≥ ℓ attributes and so loses even a score tie against the
        // current k-th best (see RankState::early_exit); no remaining
        // level can enter the heap, so the walk stops here.
        if rank.as_ref().is_some_and(|r| r.early_exit(ell)) {
            stats.topk_early_exit_level = Some(ell);
            stats.level_times.push(level_sw.elapsed());
            break;
        }

        let candidates = generate_next_level(&current);
        let mut next = Level::new();
        // External supply (`ReverifyHooks`): offer every candidate, in
        // order, to the supplier first — still on the driver thread, still
        // in the deterministic candidate order of GENERATE-NEXT-LEVEL,
        // *before* any product is dispatched. A supplied partition already
        // equals the Lemma 3 product (as a set of classes), so its product
        // is skipped.
        let mut supplied: Vec<Option<StrippedPartition>> = match hooks.as_deref_mut() {
            Some(h) => candidates.iter().map(|c| (h.supply)(c)).collect(),
            None => (0..candidates.len()).map(|_| None).collect(),
        };
        let missing: Vec<_> = candidates
            .iter()
            .zip(&supplied)
            .filter(|(_, s)| s.is_none())
            .map(|(&c, _)| c)
            .collect();
        // The remaining partitions: each product fetches its parents and
        // multiplies them per Lemma 3 — on the pool when the level's
        // estimated element volume warrants it, with the level's serial
        // tail overlapped against the compute. `partitions_bytes` is
        // captured before dispatch: the store is untouched until the
        // products are gathered, so the observer sees the same value as
        // the serial ordering.
        let partitions_bytes = store.resident_bytes();
        let produced = if rank.is_some() {
            // Ranked mode already ran the tail above.
            runtime.products_overlapped(&store, &missing, || {})?
        } else {
            runtime.products_overlapped(&store, &missing, || {
                level_tail(
                    config,
                    mode,
                    &current,
                    &found_keys,
                    n_rows,
                    &mut stats,
                    &mut disc,
                    on_level,
                    on_topk,
                    None,
                    ell,
                    fds_before,
                    &level_sw,
                    partitions_bytes,
                )
            })?
        };
        stats.products += produced.len();
        stats.partitions_supplied += candidates.len() - missing.len();
        // Entries join `next` in exact candidate order whether their
        // partition was supplied or producted — entry order within a level
        // feeds the found-so-far minimality checks, so it must not depend
        // on which route a partition took.
        let mut produced = produced.into_iter();
        for (candidate, slot) in candidates.iter().zip(supplied.iter_mut()) {
            let (set, pi) = match slot.take() {
                Some(pi) => {
                    debug_assert_eq!(pi.n_rows(), n_rows, "supplied partition row count");
                    (candidate.set, pi)
                }
                None => produced
                    .next()
                    .expect("one product per unsupplied candidate"),
            };
            next.push(LevelEntry {
                set,
                cplus: r_all,
                error_rows: pi.error_rows(),
                is_superkey: pi.is_superkey(),
                deleted: false,
            });
            store.put(set, pi)?;
        }
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(store.resident_bytes());
        // Level ℓ+1 is fully written: seal its segment (records become
        // immutable for concurrent reads) and release level ℓ's cache
        // pins — level-at-a-time eviction of the grandparent level.
        store.seal_level()?;

        // Partitions of deleted level-ℓ entries never participate in
        // products (deleted sets do not join); free them now.
        for e in current.entries().iter().filter(|e| e.deleted) {
            store.remove(e.set);
        }

        prev_level = current;
        current = next;
        ell += 1;
        stats.level_times.push(level_sw.elapsed());
    }

    let io = store.counters();
    stats.disk_reads = io.disk_reads;
    stats.disk_writes = io.disk_writes;
    stats.disk_bytes_read = io.disk_bytes_read;
    stats.disk_bytes_written = io.disk_bytes_written;
    stats.store_evictions = io.evictions;
    stats.store_pins = io.pins;
    stats.oversized_resident = io.oversized_resident;
    stats.fetch_stall = io.fetch_wait;
    stats.parallel_workers = runtime.pool.threads();
    let pool = runtime.pool.totals();
    stats.parallel_grains = pool.claims;
    stats.worker_steals = pool.steals;
    stats.worker_parks = pool.parks;
    stats.worker_spin = pool.spin;
    stats.worker_busy = pool.busy;
    stats.elapsed = sw.elapsed();
    found_keys.sort_unstable();
    if let Some(r) = rank {
        stats.topk_bound_pruned = r.bound_pruned;
        stats.topk_dominated = r.dominated;
        stats.topk_improvements = r.improvements;
        let ranked = r.into_ranked();
        return Ok(TaneResult {
            fds: canonical_fds(ranked.iter().map(|e| e.fd).collect()),
            keys: found_keys,
            ranked: Some(ranked),
            stats,
        });
    }
    Ok(TaneResult {
        fds: canonical_fds(disc.fds),
        keys: found_keys,
        ranked: None,
        stats,
    })
}

/// The serial tail of a lattice level: everything that must happen after
/// PRUNE but does not touch the next level's partitions. In the overlapped
/// flow this runs on the driver thread while the pool computes the next
/// level's products (see [`ParallelRuntime::products_overlapped`]); the
/// level's dependency set is final the moment PRUNE returns, so the
/// observer event here carries exactly the dependencies a serial run would
/// report, in the same order.
#[allow(clippy::too_many_arguments)]
fn level_tail(
    config: &TaneConfig,
    mode: Mode,
    current: &Level,
    found_keys: &[AttrSet],
    n_rows: usize,
    stats: &mut TaneStats,
    disc: &mut Discovery,
    on_level: &mut dyn FnMut(LevelEvent),
    on_topk: &mut dyn FnMut(TopKEvent),
    mut rank: Option<&mut RankState>,
    ell: usize,
    fds_before: usize,
    level_sw: &Stopwatch,
    partitions_bytes: usize,
) {
    // Approximate mode only: recover the dependencies whose test nodes
    // key pruning cut away (see the module docs).
    if let Mode::Approx { epsilon, .. } = mode {
        if config.key_pruning {
            superkey_closure_tests(config, current, found_keys, epsilon, n_rows, stats, disc);
        }
    }
    // Ranked mode: the same recovery, scored — for a live `W` and rhs `A`
    // with `W ∪ {A}` above a pruned key, `g3(W → A) = e(W)` exactly.
    if let Mode::TopK { .. } = mode {
        let rank = rank.as_deref_mut().expect("ranked mode carries rank state");
        if config.key_pruning {
            topk_superkey_closure(config, current, found_keys, stats, rank);
        }
    }

    // The level's dependency set is final here — deeper levels only ever
    // have larger LHSs, so nothing below can shadow a dependency found at
    // this level. Streaming consumers receive the event while the next
    // level's partitions are still being producted.
    on_level(LevelEvent {
        level: ell,
        new_minimal_fds: canonical_fds(disc.fds[fds_before..].to_vec()),
        level_time: level_sw.elapsed(),
        partitions_bytes,
    });

    // Ranked mode: one heap snapshot per level on which the heap changed,
    // after the level line — the stream's anytime result.
    if let Some(rank) = rank {
        if let Some(heap) = rank.take_snapshot() {
            on_topk(TopKEvent { level: ell, heap });
        }
    }
}

/// COMPUTE-DEPENDENCIES(L_ℓ) — paper, Section 5.
#[allow(clippy::too_many_arguments)]
fn compute_dependencies(
    relation: &Relation,
    config: &TaneConfig,
    mode: Mode,
    current: &mut Level,
    prev: &Level,
    store: &Store,
    runtime: &ParallelRuntime,
    stats: &mut TaneStats,
    disc: &mut Discovery,
    mut rank: Option<&mut RankState>,
) -> Result<(), TaneError> {
    let n_attrs = relation.num_attrs();
    let n_rows = relation.num_rows();
    let r_all = AttrSet::full(n_attrs);

    // Line 2: C⁺(X) := ∩_{A ∈ X} C⁺(X \ {A}).
    for i in 0..current.entries().len() {
        let set = current.entries()[i].set;
        let mut cplus = r_all;
        for (_, sub) in set.proper_subsets_one_smaller() {
            match prev.get(sub) {
                Some(p) => cplus &= p.cplus,
                None => {
                    cplus = AttrSet::empty();
                    break;
                }
            }
        }
        current.entries_mut()[i].cplus = cplus;
    }

    // Lines 3–8: validity tests on X\{A} → A for A ∈ X ∩ C⁺(X).
    //
    // Within one level the tests are mutually independent: each candidate
    // list `X ∩ C⁺(X)` is fixed by the line-2 pass above, and a test's
    // outcome depends only on previous-level summaries and partitions —
    // never on another test's C⁺ update. Approximate mode exploits that by
    // splitting the loop in two: a *decide* pass that resolves every test
    // (batching the undecided-by-bounds exact `g3` computations onto the
    // worker pool), then an *apply* pass that replays the tests in the
    // original serial order, recording dependencies and refining C⁺ —
    // so the output is byte-identical to the serial interleaving.
    let decisions = match mode {
        Mode::Exact | Mode::TopK { .. } => None,
        Mode::Approx {
            epsilon,
            use_bounds,
            ..
        } => Some(decide_approx_tests(
            current, prev, store, runtime, stats, epsilon, use_bounds, n_rows,
        )?),
    };
    // Ranked mode: its own decide pass — Lemma 2 first, then the heap
    // bound, batching the surviving exact `g3` scores onto the pool.
    let topk_decisions = match mode {
        Mode::TopK { .. } => Some(decide_topk_tests(
            current,
            prev,
            store,
            runtime,
            stats,
            rank.as_deref_mut().expect("ranked mode carries rank state"),
        )?),
        _ => None,
    };
    let mut next_decision = decisions.iter().flatten();
    let mut next_topk = topk_decisions.iter().flatten();
    for i in 0..current.entries().len() {
        let entry = &current.entries()[i];
        let set = entry.set;
        let x_error = entry.error_rows;
        let candidates = set.intersect(entry.cplus);
        let mut cplus = entry.cplus;
        for a in candidates.iter() {
            let (valid, holds_exactly) = match mode {
                Mode::Exact => {
                    let sub_entry = prev.get(set.without(a)).expect(
                        "non-empty C+ implies every parent is present in the previous level",
                    );
                    stats.validity_tests += 1;
                    let v = sub_entry.error_rows == x_error;
                    (v, v)
                }
                Mode::Approx { aggressive, .. } => {
                    match next_decision.next().expect("one decision per test") {
                        TestDecision::ValidExactly => (true, true),
                        // The paper-faithful heuristic treats approximately
                        // valid dependencies like exact ones for line 8
                        // (see ApproxTaneConfig::aggressive_rhs_plus).
                        TestDecision::ValidApproximately => (true, aggressive),
                        TestDecision::Invalid => (false, false),
                    }
                }
                Mode::TopK { .. } => {
                    let rank = rank.as_deref_mut().expect("ranked mode carries rank state");
                    match *next_topk.next().expect("one decision per test") {
                        // Exactly valid: a minimal exact FD (a ∈ C⁺(X)
                        // guarantees minimality) — a pool entrant with
                        // score 0, and the usual C⁺ updates apply.
                        TopKDecision::ValidExactly => {
                            rank.offer(Fd::new(set.without(a), a), 0);
                            (true, true)
                        }
                        // Scored candidate: a ranked pool entrant iff no
                        // recorded generalization is at least as good. The
                        // dependency does not *hold*, so C⁺ is untouched.
                        TopKDecision::Scored { g3_rows } => {
                            let fd = Fd::new(set.without(a), a);
                            if rank.is_dominated(fd.lhs, a, g3_rows) {
                                rank.dominated += 1;
                            } else {
                                rank.offer(fd, g3_rows);
                            }
                            (false, false)
                        }
                        TopKDecision::Skipped => (false, false),
                    }
                }
            };
            if valid {
                // Line 6: output the minimal dependency.
                disc.record(Fd::new(set.without(a), a));
                // Line 7: remove A from C⁺(X).
                cplus.remove(a);
                // Line 8 (exact) / 8′–9′ (approximate): the rhs⁺ refinement
                // is only sound when the dependency holds *exactly*.
                if config.rhs_plus_pruning && holds_exactly {
                    cplus -= r_all.difference(set);
                }
            }
        }
        current.entries_mut()[i].cplus = cplus;
    }
    Ok(())
}

/// The outcome of one approximate validity test, decided ahead of the
/// serial apply pass.
#[derive(Clone, Copy)]
enum TestDecision {
    /// `g3 = 0`: the dependency holds exactly (Lemma 2 comparison).
    ValidExactly,
    /// `0 < g3 ≤ ε`: holds approximately (bounds or exact `g3`).
    ValidApproximately,
    /// `g3 > ε`.
    Invalid,
}

/// Approximate-mode decide pass: resolves every validity test of the level
/// in the serial candidate order — Lemma 2 equality first, then the quick
/// `g3` bounds, leaving only the genuinely undecided tests, whose exact
/// O(‖π̂‖) `g3` computations are batched onto the worker pool. Partition
/// fetches for the batch stay on this thread, in test order, so the disk
/// cache evolves exactly as under the serial interleaving.
#[allow(clippy::too_many_arguments)]
fn decide_approx_tests(
    current: &Level,
    prev: &Level,
    store: &Store,
    runtime: &ParallelRuntime,
    stats: &mut TaneStats,
    epsilon: f64,
    use_bounds: bool,
    n_rows: usize,
) -> Result<Vec<TestDecision>, TaneError> {
    let mut decisions: Vec<TestDecision> = Vec::new();
    // Index into `pending` per undecided test, parallel to `decisions`.
    let mut pending_at: Vec<Option<usize>> = Vec::new();
    let mut pending: Vec<(Arc<StrippedPartition>, Arc<StrippedPartition>)> = Vec::new();
    for entry in current.entries() {
        let set = entry.set;
        let x_error = entry.error_rows;
        for a in set.intersect(entry.cplus).iter() {
            let sub = set.without(a);
            let sub_entry = prev
                .get(sub)
                .expect("non-empty C+ implies every parent is present in the previous level");
            stats.validity_tests += 1;
            if sub_entry.error_rows == x_error {
                decisions.push(TestDecision::ValidExactly);
                pending_at.push(None);
                continue;
            }
            if use_bounds {
                let bounds = G3Bounds {
                    lower_rows: sub_entry.error_rows.saturating_sub(x_error),
                    upper_rows: sub_entry.error_rows,
                    n_rows,
                };
                if let Some(decision) = bounds.decide(epsilon) {
                    stats.g3_decided_by_bounds += 1;
                    decisions.push(if decision {
                        TestDecision::ValidApproximately
                    } else {
                        TestDecision::Invalid
                    });
                    pending_at.push(None);
                    continue;
                }
            }
            let pi_sub = store.get(sub)?;
            let pi_set = store.get(set)?;
            decisions.push(TestDecision::Invalid); // placeholder, patched below
            pending_at.push(Some(pending.len()));
            pending.push((pi_sub, pi_set));
        }
    }
    if !pending.is_empty() {
        stats.g3_exact_computations += pending.len();
        let removed = runtime.g3_batch(&pending);
        for (slot, at) in decisions.iter_mut().zip(&pending_at) {
            if let Some(k) = *at {
                let valid = n_rows == 0 || removed[k] as f64 / n_rows as f64 <= epsilon;
                *slot = if valid {
                    TestDecision::ValidApproximately
                } else {
                    TestDecision::Invalid
                };
            }
        }
    }
    Ok(decisions)
}

/// The outcome of one ranked-mode validity test, decided ahead of the
/// serial apply pass.
#[derive(Clone, Copy)]
enum TopKDecision {
    /// `g3 = 0` by the Lemma 2 comparison: a minimal exact dependency.
    ValidExactly,
    /// A ranked candidate whose exact `g3` score is known (from the batch
    /// computation, or for free when the node is a superkey and the two
    /// bounds coincide).
    Scored {
        /// Exact `g3 · |r|` of the test's dependency.
        g3_rows: usize,
    },
    /// Skipped before its exact `g3` was paid for: the cheap lower bound
    /// could not beat the current k-th best, or a recorded generalization
    /// already dominates even the lower bound.
    Skipped,
}

/// Ranked-mode decide pass: resolves every validity test of the level in
/// the serial candidate order — Lemma 2 equality first, then the heap
/// bound against the k-th best *as of the start of the level* (the heap is
/// only mutated by the serial apply pass, so the threshold each test sees
/// is independent of the worker count), leaving only candidates that could
/// enter the heap, whose exact O(‖π̂‖) `g3` scores are batched onto the
/// worker pool. Pruning against the level-start threshold is sound — the
/// threshold only ever tightens — and the apply pass re-checks each final
/// score against the live threshold before inserting.
fn decide_topk_tests(
    current: &Level,
    prev: &Level,
    store: &Store,
    runtime: &ParallelRuntime,
    stats: &mut TaneStats,
    rank: &mut RankState,
) -> Result<Vec<TopKDecision>, TaneError> {
    let mut decisions: Vec<TopKDecision> = Vec::new();
    // Index into `pending` per undecided test, parallel to `decisions`.
    let mut pending_at: Vec<Option<usize>> = Vec::new();
    let mut pending: Vec<(Arc<StrippedPartition>, Arc<StrippedPartition>)> = Vec::new();
    for entry in current.entries() {
        let set = entry.set;
        let x_error = entry.error_rows;
        for a in set.intersect(entry.cplus).iter() {
            let sub = set.without(a);
            let sub_entry = prev
                .get(sub)
                .expect("non-empty C+ implies every parent is present in the previous level");
            stats.validity_tests += 1;
            if sub_entry.error_rows == x_error {
                decisions.push(TopKDecision::ValidExactly);
                pending_at.push(None);
                continue;
            }
            // Superkey node: e(X) = 0, the `g3` bounds coincide, and the
            // score e(X\{A}) is exact without touching the partitions.
            if x_error == 0 {
                decisions.push(TopKDecision::Scored {
                    g3_rows: sub_entry.error_rows,
                });
                pending_at.push(None);
                continue;
            }
            let fd = Fd::new(sub, a);
            // Quick lower bound in rows: g3 ≥ e(X\{A}) − e(X) (paper §5's
            // bound, here steering the ranked pruning instead of an ε
            // threshold). Sound to prune on: the true score is at least
            // the bound, and rank_key is monotone in the score.
            let lower = sub_entry.error_rows - x_error;
            if rank.cannot_enter(&fd, lower) {
                rank.note_bound_pruned();
                decisions.push(TopKDecision::Skipped);
                pending_at.push(None);
                continue;
            }
            // Dominated even at the lower bound: the true score can only
            // be worse, so the candidate is redundant for sure.
            if rank.is_dominated(sub, a, lower) {
                rank.dominated += 1;
                decisions.push(TopKDecision::Skipped);
                pending_at.push(None);
                continue;
            }
            let pi_sub = store.get(sub)?;
            let pi_set = store.get(set)?;
            decisions.push(TopKDecision::Scored { g3_rows: 0 }); // patched below
            pending_at.push(Some(pending.len()));
            pending.push((pi_sub, pi_set));
        }
    }
    if !pending.is_empty() {
        stats.g3_exact_computations += pending.len();
        let removed = runtime.g3_batch(&pending);
        for (slot, at) in decisions.iter_mut().zip(&pending_at) {
            if let Some(k) = *at {
                *slot = TopKDecision::Scored {
                    g3_rows: removed[k],
                };
            }
        }
    }
    Ok(decisions)
}

/// PRUNE(L_ℓ) — paper, Section 5: delete sets with empty `C⁺`, and delete
/// keys after emitting the minimal dependencies that their supersets would
/// have produced.
fn prune(
    config: &TaneConfig,
    current: &mut Level,
    stats: &mut TaneStats,
    disc: &mut Discovery,
    found_keys: &mut Vec<AttrSet>,
    mut rank: Option<&mut RankState>,
) {
    for i in 0..current.entries().len() {
        let entry = &current.entries()[i];
        if entry.deleted {
            continue;
        }
        let set = entry.set;
        // Lines 2–3: empty rhs⁺ candidate set.
        if config.empty_cplus_pruning && entry.cplus.is_empty() {
            current.entries_mut()[i].deleted = true;
            continue;
        }
        // Lines 4–8: key pruning.
        if config.key_pruning && entry.is_superkey {
            stats.keys_found += 1;
            let lhs_ok = config.max_lhs.is_none_or(|m| set.len() <= m);
            if lhs_ok {
                let outside = entry.cplus.difference(set);
                for a in outside.iter() {
                    // X is a superkey, so X → A always holds exactly; only
                    // minimality needs checking (PRUNE line 6). The paper
                    // tests A ∈ ∩_{B ∈ X} C⁺(X ∪ {A} \ {B}) over same-level
                    // sets, but those sets can be missing precisely because
                    // a *subset key* was pruned earlier — e.g. with key {D},
                    // the sets {B,D} and {C,D} are never generated, and the
                    // minimal FD {B,C} → D would be skipped at key {B,C}.
                    // Checking against the dependencies found so far is
                    // exact: every valid V → A with V ⊂ X (|V| < ℓ) has a
                    // minimal witness already recorded by the levelwise
                    // order.
                    if !disc.has_valid_subset(set, a) {
                        disc.record(Fd::new(set, a));
                        // Ranked mode: an exactly valid minimal dependency
                        // is always a pool entrant (score 0, and no proper
                        // subset can do better than 0 without shadowing
                        // its minimality).
                        if let Some(r) = rank.as_deref_mut() {
                            r.offer(Fd::new(set, a), 0);
                        }
                    }
                }
            }
            // Line 8: delete the key; remember it (the approximate-mode
            // superkey-closure tests consume the list, and TaneResult
            // exposes it as the relation's candidate keys).
            current.entries_mut()[i].deleted = true;
            found_keys.push(set);
        }
    }
}

/// Approximate-mode recovery of dependencies lost to key pruning (see the
/// module docs): for a live node `W` and rhs candidate `A ∉ W`, if
/// `W ∪ {A}` contains a pruned key then `π_{W∪{A}}` is a superkey partition
/// and `g3(W → A) = e(W)` exactly, so the validity test is free.
fn superkey_closure_tests(
    config: &TaneConfig,
    current: &Level,
    found_keys: &[AttrSet],
    epsilon: f64,
    n_rows: usize,
    stats: &mut TaneStats,
    disc: &mut Discovery,
) {
    if found_keys.is_empty() {
        return;
    }
    let mut recovered: Vec<Fd> = Vec::new();
    for entry in current.entries().iter().filter(|e| !e.deleted) {
        let w = entry.set;
        if config.max_lhs.is_some_and(|m| w.len() > m) {
            continue;
        }
        for a in entry.cplus.difference(w).iter() {
            let y = w.with(a);
            if !found_keys.iter().any(|&k| k.is_subset_of(y)) {
                continue; // Y will be (or was) generated; the normal path covers it.
            }
            stats.validity_tests += 1;
            let valid = n_rows == 0 || (entry.error_rows as f64 / n_rows as f64) <= epsilon;
            if valid && !disc.has_valid_subset(w, a) {
                recovered.push(Fd::new(w, a));
            }
        }
    }
    // Recovered LHSs all have the same size, so none can shadow another;
    // record them after the scan so the minimality checks above see a
    // consistent snapshot.
    for fd in recovered {
        disc.record(fd);
    }
}

/// Ranked-mode counterpart of [`superkey_closure_tests`]: the same test
/// nodes that key pruning cut away, offered to the heap with their exact
/// scores — for a live `W` and rhs `A ∉ W` with `W ∪ {A}` above a pruned
/// key, `π_{W∪{A}}` is a superkey partition and `g3(W → A) = e(W)`, so the
/// score is free. Runs before the level's early-exit check so a recovered
/// entrant can keep the walk alive (DESIGN §12).
fn topk_superkey_closure(
    config: &TaneConfig,
    current: &Level,
    found_keys: &[AttrSet],
    stats: &mut TaneStats,
    rank: &mut RankState,
) {
    if found_keys.is_empty() {
        return;
    }
    for entry in current.entries().iter().filter(|e| !e.deleted) {
        let w = entry.set;
        if config.max_lhs.is_some_and(|m| w.len() > m) {
            continue;
        }
        for a in entry.cplus.difference(w).iter() {
            let y = w.with(a);
            if !found_keys.iter().any(|&k| k.is_subset_of(y)) {
                continue; // Y will be (or was) generated; the normal path covers it.
            }
            stats.validity_tests += 1;
            let fd = Fd::new(w, a);
            if rank.cannot_enter(&fd, entry.error_rows) {
                rank.note_bound_pruned();
                continue;
            }
            if rank.is_dominated(w, a, entry.error_rows) {
                rank.dominated += 1;
                continue;
            }
            rank.offer(fd, entry.error_rows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ApproxTaneConfig, TaneConfig};
    use tane_baselines::{brute_force_approx_fds, brute_force_fds, verify_minimal_cover};
    use tane_relation::{Schema, Value};

    fn figure1() -> Relation {
        let schema = Schema::new(["A", "B", "C", "D"]).unwrap();
        let mut b = Relation::builder(schema);
        for row in [
            ["1", "a", "$", "Flower"],
            ["1", "A", "L", "Tulip"],
            ["2", "A", "$", "Daffodil"],
            ["2", "A", "$", "Flower"],
            ["2", "b", "L", "Lily"],
            ["3", "b", "$", "Orchid"],
            ["3", "c", "L", "Flower"],
            ["3", "c", "#", "Rose"],
        ] {
            b.push_row(row.map(Value::from)).unwrap();
        }
        b.build()
    }

    #[test]
    fn exact_matches_brute_force_on_figure1() {
        let r = figure1();
        let result = discover_fds(&r, &TaneConfig::default()).unwrap();
        assert_eq!(result.fds, brute_force_fds(&r, 4));
        assert!(verify_minimal_cover(&r, &result.fds, 4, 0.0).is_empty());
        assert!(result.stats.validity_tests > 0);
        assert!(result.stats.sets_total >= 4);
    }

    #[test]
    fn figure1_contains_known_dependencies() {
        let r = figure1();
        let result = discover_fds(&r, &TaneConfig::default()).unwrap();
        // {B,C} → A from the paper's Example 2.
        assert!(result
            .fds
            .contains(&Fd::new(AttrSet::from_indices([1, 2]), 0)));
        // {A} → B does not hold.
        assert!(!result.fds.contains(&Fd::new(AttrSet::singleton(0), 1)));
    }

    #[test]
    fn all_pruning_ablations_agree() {
        let r = figure1();
        let reference = discover_fds(&r, &TaneConfig::default()).unwrap().fds;
        for (rhs_plus, key) in [(false, false), (false, true), (true, false)] {
            let config = TaneConfig {
                rhs_plus_pruning: rhs_plus,
                key_pruning: key,
                ..TaneConfig::default()
            };
            let got = discover_fds(&r, &config).unwrap().fds;
            assert_eq!(got, reference, "rhs_plus={rhs_plus} key={key}");
        }
        // Even without empty-C+ pruning.
        let config = TaneConfig {
            rhs_plus_pruning: false,
            key_pruning: false,
            empty_cplus_pruning: false,
            ..TaneConfig::default()
        };
        assert_eq!(discover_fds(&r, &config).unwrap().fds, reference);
    }

    #[test]
    fn disk_storage_agrees_with_memory() {
        let r = figure1();
        let mem = discover_fds(&r, &TaneConfig::default()).unwrap();
        let disk = discover_fds(&r, &TaneConfig::disk(1 << 12)).unwrap();
        assert_eq!(mem.fds, disk.fds);
        assert!(
            disk.stats.disk_writes > 0,
            "disk variant must spill partitions"
        );
        assert!(
            disk.stats.disk_bytes_written > 0,
            "spills must be accounted in bytes"
        );
        assert_eq!(mem.stats.disk_bytes_written, 0);
    }

    #[test]
    fn level_times_cover_every_level() {
        let r = figure1();
        let result = discover_fds(&r, &TaneConfig::default()).unwrap();
        let s = &result.stats;
        assert_eq!(s.level_times.len(), s.sets_per_level.len());
        let level_sum: std::time::Duration = s.level_times.iter().sum();
        assert!(level_sum <= s.elapsed);
        // The max_lhs early exit must not drop the last level's timing.
        let limited = discover_fds(&r, &TaneConfig::default().with_max_lhs(1)).unwrap();
        assert_eq!(
            limited.stats.level_times.len(),
            limited.stats.sets_per_level.len()
        );
    }

    #[test]
    fn approximate_at_zero_equals_exact() {
        let r = figure1();
        let exact = discover_fds(&r, &TaneConfig::default()).unwrap();
        let approx = discover_approx_fds(&r, &ApproxTaneConfig::new(0.0)).unwrap();
        assert_eq!(exact.fds, approx.fds);
    }

    #[test]
    fn approximate_matches_brute_force_across_thresholds() {
        let r = figure1();
        for &eps in &[0.0, 0.01, 0.125, 0.25, 0.375, 0.5, 1.0] {
            let got = discover_approx_fds(&r, &ApproxTaneConfig::new(eps)).unwrap();
            let want = brute_force_approx_fds(&r, 4, eps);
            assert_eq!(got.fds, want, "epsilon={eps}");
        }
    }

    #[test]
    fn g3_bounds_ablation_gives_identical_results() {
        let r = figure1();
        for &eps in &[0.05, 0.25, 0.5] {
            let mut with = ApproxTaneConfig::new(eps);
            with.use_g3_bounds = true;
            let mut without = ApproxTaneConfig::new(eps);
            without.use_g3_bounds = false;
            let a = discover_approx_fds(&r, &with).unwrap();
            let b = discover_approx_fds(&r, &without).unwrap();
            assert_eq!(a.fds, b.fds, "epsilon={eps}");
            assert!(
                a.stats.g3_decided_by_bounds > 0,
                "bounds should fire at eps={eps}"
            );
            assert_eq!(b.stats.g3_decided_by_bounds, 0);
        }
    }

    #[test]
    fn epsilon_one_accepts_everything_minimal() {
        let r = figure1();
        let result = discover_approx_fds(&r, &ApproxTaneConfig::new(1.0)).unwrap();
        // At ε = 1 every ∅ → A is valid, so the cover is exactly those.
        let expected: Vec<Fd> = (0..4).map(|a| Fd::new(AttrSet::empty(), a)).collect();
        assert_eq!(result.fds, expected);
    }

    #[test]
    fn max_lhs_limits_search() {
        let r = figure1();
        let full = discover_fds(&r, &TaneConfig::default()).unwrap();
        for m in 0..=4 {
            let limited = discover_fds(&r, &TaneConfig::default().with_max_lhs(m)).unwrap();
            assert!(limited.fds.iter().all(|fd| fd.lhs.len() <= m), "m={m}");
            assert_eq!(limited.fds, brute_force_fds(&r, m), "m={m}");
            assert!(limited.stats.levels <= m + 1);
        }
        let unlimited = discover_fds(&r, &TaneConfig::default().with_max_lhs(4)).unwrap();
        assert_eq!(unlimited.fds, full.fds);
    }

    #[test]
    fn empty_relation_yields_vacuous_cover() {
        let r = Relation::builder(Schema::new(["A", "B"]).unwrap()).build();
        let result = discover_fds(&r, &TaneConfig::default()).unwrap();
        assert_eq!(result.fds, brute_force_fds(&r, 2));
        assert_eq!(
            result.fds,
            vec![Fd::new(AttrSet::empty(), 0), Fd::new(AttrSet::empty(), 1)]
        );
    }

    #[test]
    fn zero_attribute_relation() {
        let r = Relation::builder(Schema::new(Vec::<String>::new()).unwrap()).build();
        let result = discover_fds(&r, &TaneConfig::default()).unwrap();
        assert!(result.fds.is_empty());
        assert_eq!(result.stats.levels, 0);
    }

    #[test]
    fn single_row_relation() {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let r = Relation::from_codes(schema, vec![vec![1], vec![2], vec![3]]).unwrap();
        let result = discover_fds(&r, &TaneConfig::default()).unwrap();
        assert_eq!(result.fds, brute_force_fds(&r, 3));
    }

    #[test]
    fn duplicate_rows_mean_no_keys() {
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = Relation::from_codes(schema, vec![vec![0, 0], vec![1, 1]]).unwrap();
        let result = discover_fds(&r, &TaneConfig::default()).unwrap();
        assert_eq!(result.fds, brute_force_fds(&r, 2));
        assert_eq!(result.stats.keys_found, 0);
    }

    #[test]
    fn key_pruning_emits_key_dependencies() {
        // A is a key: {A} → B and {A} → C must be emitted via key pruning.
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let r = Relation::from_codes(
            schema,
            vec![vec![0, 1, 2, 3], vec![0, 0, 1, 1], vec![5, 5, 5, 6]],
        )
        .unwrap();
        let result = discover_fds(&r, &TaneConfig::default()).unwrap();
        assert_eq!(result.fds, brute_force_fds(&r, 3));
        assert!(result.fds.contains(&Fd::new(AttrSet::singleton(0), 1)));
        assert!(result.fds.contains(&Fd::new(AttrSet::singleton(0), 2)));
        assert!(result.stats.keys_found >= 1);
    }

    #[test]
    fn candidate_keys_are_reported() {
        // A is a key; so is {B,C} (codes chosen so B,C pairs are unique).
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let r = Relation::from_codes(
            schema,
            vec![vec![0, 1, 2, 3], vec![0, 0, 1, 1], vec![0, 1, 0, 1]],
        )
        .unwrap();
        let result = discover_fds(&r, &TaneConfig::default()).unwrap();
        assert!(result.keys.contains(&AttrSet::singleton(0)));
        assert!(result.keys.contains(&AttrSet::from_indices([1, 2])));
        // Keys are minimal: no key contains another.
        for (i, &a) in result.keys.iter().enumerate() {
            for &b in &result.keys[i + 1..] {
                assert!(!a.is_subset_of(b) && !b.is_subset_of(a));
            }
        }
        // The figure-1 relation has {A,D}-style two-attribute keys.
        let fig = figure1();
        let result = discover_fds(&fig, &TaneConfig::default()).unwrap();
        assert!(result.keys.contains(&AttrSet::from_indices([0, 3])));
        assert!(!result.keys.is_empty());
    }

    #[test]
    fn stats_are_populated() {
        let r = figure1();
        let result = discover_fds(&r, &TaneConfig::default()).unwrap();
        let s = &result.stats;
        assert_eq!(s.sets_per_level.iter().sum::<usize>(), s.sets_total);
        assert_eq!(s.sets_per_level.len(), s.levels);
        assert_eq!(*s.sets_per_level.iter().max().unwrap(), s.sets_max_level);
        assert!(s.elapsed > std::time::Duration::ZERO);
        assert!(s.products > 0);
    }

    #[test]
    fn level_events_partition_the_cover_in_lattice_order() {
        let r = figure1();
        let mut events: Vec<LevelEvent> = Vec::new();
        let result = discover_fds_with(&r, &TaneConfig::default(), |ev| events.push(ev)).unwrap();
        // One event per level, in order 1, 2, 3, …
        assert_eq!(events.len(), result.stats.levels);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.level, i + 1);
            // Every FD first proven at level ℓ has a LHS of ℓ−1 attributes,
            // except key-pruning outputs, whose LHS (the key) has ℓ.
            assert!(ev
                .new_minimal_fds
                .iter()
                .all(|fd| { fd.lhs.len() == ev.level - 1 || fd.lhs.len() == ev.level }));
        }
        // The union of the events is exactly the buffered cover.
        let mut streamed: Vec<Fd> = events
            .iter()
            .flat_map(|ev| ev.new_minimal_fds.iter().copied())
            .collect();
        streamed = canonical_fds(streamed);
        assert_eq!(streamed, result.fds);
    }

    #[test]
    fn level_events_fire_for_approx_and_respect_max_lhs() {
        let r = figure1();
        let mut levels = Vec::new();
        let result = discover_approx_fds_with(&r, &ApproxTaneConfig::new(0.125), |ev| {
            levels.push(ev.level)
        })
        .unwrap();
        assert_eq!(levels, (1..=result.stats.levels).collect::<Vec<_>>());
        let streamed_union = |events: &[LevelEvent]| {
            canonical_fds(
                events
                    .iter()
                    .flat_map(|e| e.new_minimal_fds.iter().copied())
                    .collect(),
            )
        };
        let mut events = Vec::new();
        let limited = discover_fds_with(&r, &TaneConfig::default().with_max_lhs(1), |ev| {
            events.push(ev)
        })
        .unwrap();
        assert_eq!(
            events.len(),
            limited.stats.levels,
            "the early-exit level still fires"
        );
        assert_eq!(streamed_union(&events), limited.fds);
    }

    #[test]
    fn buffered_and_observed_runs_agree() {
        let r = figure1();
        let buffered = discover_fds(&r, &TaneConfig::default()).unwrap();
        let observed = discover_fds_with(&r, &TaneConfig::default(), |_| {}).unwrap();
        assert_eq!(buffered.fds, observed.fds);
        assert_eq!(buffered.keys, observed.keys);
    }

    #[test]
    fn concatenated_copies_preserve_the_cover() {
        // The paper's ×n construction: same dependencies, more rows.
        let r = figure1();
        let base = discover_fds(&r, &TaneConfig::default()).unwrap();
        let r8 = r.concat_disjoint_copies(8).unwrap();
        let big = discover_fds(&r8, &TaneConfig::default()).unwrap();
        assert_eq!(base.fds, big.fds);
    }
}
