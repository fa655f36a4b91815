//! Results and statistics of a TANE run.

use std::fmt;
use std::time::Duration;
use tane_partition::StoreError;
use tane_relation::Schema;
use tane_util::Fd;

/// Errors a TANE run can produce. The search itself is total; failures come
/// from the partition store (disk variant) only.
#[derive(Debug)]
pub enum TaneError {
    /// Partition store failure (I/O, corruption).
    Store(StoreError),
}

impl fmt::Display for TaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaneError::Store(e) => write!(f, "partition store failure: {e}"),
        }
    }
}

impl std::error::Error for TaneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TaneError::Store(e) => Some(e),
        }
    }
}

impl From<StoreError> for TaneError {
    fn from(e: StoreError) -> Self {
        TaneError::Store(e)
    }
}

/// One completed lattice level, as observed by the streaming variants
/// [`discover_fds_with`](crate::search::discover_fds_with) /
/// [`discover_approx_fds_with`](crate::search::discover_approx_fds_with).
///
/// The levelwise order makes every dependency in `new_minimal_fds` final
/// the moment the event fires: no deeper level can add, remove, or shadow
/// it. Consumers (the service's NDJSON stream, `tane discover --stream`)
/// may therefore deliver each event immediately.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelEvent {
    /// The lattice level `ℓ` that just finished (1-based; dependencies in
    /// this event have LHS size `ℓ − 1`).
    pub level: usize,
    /// The minimal dependencies first proven at this level, canonical
    /// order within the level.
    pub new_minimal_fds: Vec<Fd>,
    /// Time spent on this level's validity tests and pruning (the event
    /// fires *without waiting for* the next level's partitions — on the
    /// parallel runtime it overlaps their computation — so this is not
    /// the same quantity as [`TaneStats::level_times`], which also
    /// charges each level for producing its successor).
    pub level_time: Duration,
    /// Partition bytes resident in the store when the level finished.
    pub partitions_bytes: usize,
}

/// Search statistics, matching the quantities of the paper's analysis
/// (Section 6): `s` = total sets processed, `s_max` = largest level, `k` =
/// keys found, `v` = validity tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaneStats {
    /// Number of lattice levels processed (deepest `ℓ` with `L_ℓ ≠ ∅`).
    pub levels: usize,
    /// Sets processed per level (`|L_ℓ|` before pruning), index 0 = level 1.
    pub sets_per_level: Vec<usize>,
    /// Total sets processed, the paper's `s`.
    pub sets_total: usize,
    /// Largest level size, the paper's `s_max`.
    pub sets_max_level: usize,
    /// Validity tests performed, the paper's `v`.
    pub validity_tests: usize,
    /// Exact `g3` computations (approximate mode only).
    pub g3_exact_computations: usize,
    /// Validity tests decided by the quick `g3` bounds alone
    /// (approximate mode with `use_g3_bounds`).
    pub g3_decided_by_bounds: usize,
    /// Keys found and pruned, the paper's `k`.
    pub keys_found: usize,
    /// Partition products computed (one per generated lattice node above
    /// level 1).
    pub products: usize,
    /// Lattice-node partitions handed in by an external supplier instead of
    /// being producted (the incremental re-verify path, `reverify_*_with`).
    /// Always 0 for plain discovery; `products + partitions_supplied` equals
    /// the plain run's `products` on the same relation.
    pub partitions_supplied: usize,
    /// Disk reads of partitions (disk storage only).
    pub disk_reads: u64,
    /// Disk writes of partitions (disk storage only).
    pub disk_writes: u64,
    /// Bytes read back from spilled partitions (disk storage only).
    pub disk_bytes_read: u64,
    /// Bytes spilled to disk (disk storage only).
    pub disk_bytes_written: u64,
    /// Peak bytes of partitions resident in memory (approximate).
    pub peak_resident_bytes: usize,
    /// Partitions evicted from the disk store's resident cache
    /// (disk storage only).
    pub store_evictions: u64,
    /// Partitions pinned resident by a read phase — each pin is one cold
    /// fetch that the snapshot machinery kept stable for the rest of its
    /// level (disk storage only; see DESIGN §13).
    pub store_pins: u64,
    /// Eviction sweeps that ended with the resident set still over the
    /// cache budget because everything left was pinned or active — e.g. a
    /// single partition larger than the whole budget (disk storage only).
    pub oversized_resident: u64,
    /// Workers in the search's persistent pool (the configured `threads`;
    /// `1` means the serial, paper-faithful runtime).
    pub parallel_workers: usize,
    /// Work grains executed by the pool across the run — products,
    /// singleton constructions, and batched `g3` tests all count. `0` when
    /// every batch stayed under the dispatch threshold and ran inline.
    pub parallel_grains: u64,
    /// Successful steals: work batches a worker took from another worker's
    /// deque after draining its own. Scheduling instrumentation only —
    /// steal order can never change a result (see DESIGN §9).
    pub worker_steals: u64,
    /// Times pool workers parked on the dispatch condvar instead of
    /// spinning while no work was available.
    pub worker_parks: u64,
    /// Time workers spent probing other deques for work (bounded: after
    /// one full failed scan a worker parks). High spin relative to busy
    /// means grains are too small for the level shape.
    pub worker_spin: Duration,
    /// Total time the pool spent executing level batches, summed across
    /// workers (can exceed `elapsed` when several run at once). Batches
    /// that run inline on the driver — every batch at `threads == 1`, and
    /// those under the dispatch threshold — count too, so utilization is
    /// comparable against any worker count. Either way a product batch's
    /// time includes its partition fetches.
    pub worker_busy: Duration,
    /// Time the store's `get` waited on segment loads — its own disk
    /// reads plus single-flight waits on another thread's — summed over
    /// every thread that fetched. Always 0 on memory storage.
    pub fetch_stall: Duration,
    /// Ranked mode only: candidates skipped *before* their exact `g3` was
    /// computed, because the cheap lower bound `e(X\{A}) − e(X)` could not
    /// beat the current k-th best (DESIGN §12). Always 0 outside top-k.
    pub topk_bound_pruned: u64,
    /// Ranked mode only: candidates discarded as redundant — a recorded
    /// generalization `V ⊂ X` scores at least as well for the same rhs.
    pub topk_dominated: u64,
    /// Ranked mode only: heap insertions (the stream's improvement count).
    pub topk_improvements: u64,
    /// Ranked mode only: the lattice level after which the bound argument
    /// proved no remaining level could enter the heap, when the walk
    /// stopped early for that reason.
    pub topk_early_exit_level: Option<usize>,
    /// Wall-clock time spent per lattice level (validity tests, pruning,
    /// and the products generating the next level), index 0 = level 1.
    /// Always the same length as `sets_per_level`.
    pub level_times: Vec<Duration>,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

/// The outcome of a discovery run: the minimal cover plus statistics.
#[derive(Debug, Clone)]
pub struct TaneResult {
    /// All minimal non-trivial (approximate) dependencies, canonical order.
    pub fds: Vec<Fd>,
    /// The candidate keys (minimal superkeys) encountered by key pruning,
    /// ascending. Populated only when `key_pruning` is enabled (the
    /// default); with it disabled keys are simply never detected. In
    /// ranked mode an early exit truncates the walk, so this holds the
    /// keys found *up to* the exit level.
    pub keys: Vec<tane_util::AttrSet>,
    /// Ranked mode only: the final top-k heap, best first (ascending
    /// `(g3, |lhs|, rhs, lhs)`). `None` outside top-k; in ranked mode
    /// [`fds`](Self::fds) holds the same dependencies in canonical order.
    pub ranked: Option<Vec<crate::rank::RankedFd>>,
    /// Search statistics.
    pub stats: TaneStats,
}

impl TaneResult {
    /// Number of dependencies found (the paper's `N`).
    pub fn count(&self) -> usize {
        self.fds.len()
    }

    /// Renders the dependencies with attribute names, one per line, in
    /// canonical order — the shape of the paper's published outputs.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = String::new();
        for fd in &self.fds {
            out.push_str(&fd.display_with(schema.names()));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tane_util::AttrSet;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = TaneError::from(StoreError::Missing {
            key: AttrSet::singleton(1),
        });
        assert!(e.to_string().contains("partition store"));
        assert!(e.source().is_some());
    }

    #[test]
    fn result_render() {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let result = TaneResult {
            fds: vec![
                Fd::new(AttrSet::from_indices([1, 2]), 0),
                Fd::new(AttrSet::singleton(0), 2),
            ],
            keys: vec![AttrSet::singleton(0)],
            ranked: None,
            stats: TaneStats::default(),
        };
        assert_eq!(result.count(), 2);
        let text = result.render(&schema);
        assert_eq!(text, "{B,C} -> A\n{A} -> C\n");
    }

    #[test]
    fn stats_default_is_zeroed() {
        let s = TaneStats::default();
        assert_eq!(s.sets_total, 0);
        assert_eq!(s.validity_tests, 0);
        assert_eq!(s.elapsed, Duration::ZERO);
    }
}
