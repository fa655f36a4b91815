//! Configuration for the TANE search.

use std::sync::Arc;
use tane_partition::DiskQuota;

/// Where level partitions are kept between lattice levels.
///
/// The paper evaluates both variants (Section 7): the scalable **TANE**
/// spills partitions to disk, **TANE/MEM** keeps everything in memory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Storage {
    /// All partitions in main memory (the paper's TANE/MEM).
    #[default]
    Memory,
    /// Partitions spilled to a temporary directory, with at most
    /// `cache_bytes` of hot partitions resident (the paper's TANE).
    Disk {
        /// In-memory cache budget in bytes.
        cache_bytes: usize,
    },
}

/// Configuration for exact FD discovery.
///
/// The defaults reproduce the full TANE algorithm of Section 5. The pruning
/// switches exist for the ablation experiments: disabling them yields the
/// "less effective pruning criteria" variants the paper compares against in
/// Section 6 — the search stays correct, it just visits more of the lattice.
#[derive(Debug, Clone)]
pub struct TaneConfig {
    /// Partition storage backend.
    pub storage: Storage,
    /// Disk storage only: a shared quota charged for every spilled
    /// partition byte. The server attaches one per dataset so concurrent
    /// searches share a single disk cap; `None` (the default) means
    /// unlimited. Configs compare equal when they share the same quota
    /// *object* (or both have none).
    pub disk_quota: Option<Arc<DiskQuota>>,
    /// Maximum LHS size `|X|` to consider (`None` = unrestricted). Table 3
    /// of the paper uses `|X| = 4` for some comparisons.
    pub max_lhs: Option<usize>,
    /// Apply the rhs⁺ refinement (COMPUTE-DEPENDENCIES line 8): on each
    /// valid `X\{A} → A`, also remove all `B ∈ R\X` from `C⁺(X)`.
    /// Disabling reverts to the plain rhs candidate sets `C(X)`.
    pub rhs_plus_pruning: bool,
    /// Apply key pruning (PRUNE lines 4–8): delete keys from the level,
    /// emitting their remaining minimal dependencies directly.
    pub key_pruning: bool,
    /// Delete sets with `C⁺(X) = ∅` from the level (PRUNE lines 2–3).
    pub empty_cplus_pruning: bool,
    /// Worker threads for the partition products of each level (`1` =
    /// serial, the paper's algorithm). Products within a level are
    /// independent, so this parallelizes the dominant cost on row-heavy
    /// inputs without changing any result — an extension beyond the paper.
    pub threads: usize,
}

impl Default for TaneConfig {
    fn default() -> Self {
        TaneConfig {
            storage: Storage::Memory,
            disk_quota: None,
            max_lhs: None,
            rhs_plus_pruning: true,
            key_pruning: true,
            empty_cplus_pruning: true,
            threads: 1,
        }
    }
}

impl PartialEq for TaneConfig {
    fn eq(&self, other: &Self) -> bool {
        let quota_eq = match (&self.disk_quota, &other.disk_quota) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        self.storage == other.storage
            && quota_eq
            && self.max_lhs == other.max_lhs
            && self.rhs_plus_pruning == other.rhs_plus_pruning
            && self.key_pruning == other.key_pruning
            && self.empty_cplus_pruning == other.empty_cplus_pruning
            && self.threads == other.threads
    }
}

impl TaneConfig {
    /// The paper's scalable TANE: partitions on disk with the given cache.
    pub fn disk(cache_bytes: usize) -> TaneConfig {
        TaneConfig {
            storage: Storage::Disk { cache_bytes },
            ..TaneConfig::default()
        }
    }

    /// Convenience setter for the LHS size cap.
    pub fn with_max_lhs(mut self, max_lhs: usize) -> TaneConfig {
        self.max_lhs = Some(max_lhs);
        self
    }

    /// Parallel products with `threads` workers (see
    /// [`threads`](Self::threads)).
    pub fn with_threads(mut self, threads: usize) -> TaneConfig {
        assert!(threads >= 1, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Charge every spilled partition byte against `quota` (see
    /// [`disk_quota`](Self::disk_quota)). No effect on memory storage.
    pub fn with_disk_quota(mut self, quota: Arc<DiskQuota>) -> TaneConfig {
        self.disk_quota = Some(quota);
        self
    }

    /// Ablation: disable every optional pruning rule (empty-`C⁺` deletion is
    /// kept — it is what makes the lattice walk terminate early enough to
    /// run at all, and even the naive baselines use it).
    pub fn without_pruning(mut self) -> TaneConfig {
        self.rhs_plus_pruning = false;
        self.key_pruning = false;
        self
    }
}

/// Configuration for approximate dependency discovery
/// (`g3(X → A) ≤ epsilon`).
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxTaneConfig {
    /// The shared search configuration.
    pub base: TaneConfig,
    /// Error threshold `ε ∈ [0, 1]` (paper, Section 1).
    pub epsilon: f64,
    /// Use the quick `g3` bounds from \[4\] to decide validity tests without
    /// the exact O(‖π̂‖) computation where possible. Ablation switch; the
    /// result is identical either way.
    pub use_g3_bounds: bool,
    /// Apply the rhs⁺ removal (line 8) on *approximately* valid
    /// dependencies too, not only exactly valid ones (line 8′).
    ///
    /// This reproduces the performance profile of the paper's Table 2 /
    /// Figure 3 — at large ε nearly every `∅ → A` is valid, line 8 empties
    /// the singleton `C⁺` sets, and the whole search collapses after one
    /// level — but it is a **heuristic**: Lemma 4(1) does not hold under
    /// `g3`-validity, so the output is a valid-but-not-necessarily-complete
    /// set of approximate dependencies (every reported dependency satisfies
    /// the threshold; some minimal ones may be missing and some reported
    /// ones may not be minimal). With `epsilon = 0` it changes nothing.
    /// Default `false`: the sound algorithm, which matches the brute-force
    /// oracle exactly.
    pub aggressive_rhs_plus: bool,
}

impl ApproxTaneConfig {
    /// Approximate discovery at threshold `epsilon` with default settings.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `[0, 1]` or is NaN.
    pub fn new(epsilon: f64) -> ApproxTaneConfig {
        assert!(
            (0.0..=1.0).contains(&epsilon),
            "epsilon must be within [0, 1], got {epsilon}"
        );
        ApproxTaneConfig {
            base: TaneConfig::default(),
            epsilon,
            use_g3_bounds: true,
            aggressive_rhs_plus: false,
        }
    }

    /// The paper-faithful performance variant: see
    /// [`aggressive_rhs_plus`](Self::aggressive_rhs_plus).
    pub fn paper_faithful(epsilon: f64) -> ApproxTaneConfig {
        ApproxTaneConfig {
            aggressive_rhs_plus: true,
            ..ApproxTaneConfig::new(epsilon)
        }
    }
}

/// Configuration for ranked (top-k) dependency discovery: an anytime
/// search for the `k` best non-redundant dependencies by `g3` error
/// (see `crate::rank` and DESIGN §12).
#[derive(Debug, Clone, PartialEq)]
pub struct TopKConfig {
    /// The shared search configuration.
    pub base: TaneConfig,
    /// How many ranked dependencies to keep. `0` is allowed (the search
    /// exits after one level with an empty result); a `k` larger than the
    /// candidate pool simply returns the whole pool, ranked.
    pub k: usize,
}

impl TopKConfig {
    /// Ranked discovery of the `k` best dependencies with default settings.
    pub fn new(k: usize) -> TopKConfig {
        TopKConfig {
            base: TaneConfig::default(),
            k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_enable_all_pruning() {
        let c = TaneConfig::default();
        assert_eq!(c.storage, Storage::Memory);
        assert_eq!(c.max_lhs, None);
        assert!(c.rhs_plus_pruning && c.key_pruning && c.empty_cplus_pruning);
    }

    #[test]
    fn builders() {
        let c = TaneConfig::disk(1 << 20);
        assert_eq!(
            c.storage,
            Storage::Disk {
                cache_bytes: 1 << 20
            }
        );
        let c = TaneConfig::default().with_max_lhs(4);
        assert_eq!(c.max_lhs, Some(4));
        let c = TaneConfig::default().without_pruning();
        assert!(!c.rhs_plus_pruning && !c.key_pruning);
        assert!(c.empty_cplus_pruning);
    }

    #[test]
    fn quota_configs() {
        let q = Arc::new(DiskQuota::new(1024));
        let a = TaneConfig::disk(1 << 20).with_disk_quota(q.clone());
        let b = TaneConfig::disk(1 << 20).with_disk_quota(q);
        assert_eq!(a, b, "same quota object compares equal");
        let c = TaneConfig::disk(1 << 20).with_disk_quota(Arc::new(DiskQuota::new(1024)));
        assert_ne!(a, c, "distinct quota objects are distinct configs");
    }

    #[test]
    fn approx_config_validates_epsilon() {
        let c = ApproxTaneConfig::new(0.05);
        assert_eq!(c.epsilon, 0.05);
        assert!(c.use_g3_bounds);
        assert!(std::panic::catch_unwind(|| ApproxTaneConfig::new(1.5)).is_err());
        assert!(std::panic::catch_unwind(|| ApproxTaneConfig::new(-0.1)).is_err());
        assert!(std::panic::catch_unwind(|| ApproxTaneConfig::new(f64::NAN)).is_err());
    }
}
