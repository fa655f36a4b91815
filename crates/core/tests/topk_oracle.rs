//! Pruning-soundness oracle for the ranked (top-k) search.
//!
//! The ranked pool is defined *without* reference to the lattice walk: a
//! dependency `X → A` is a pool entrant iff it strictly improves on every
//! generalization — `g3(X → A) < g3(V → A)` for every `V ⊊ X` (equivalently
//! iff the sound full approximate run at `ε = g3(X → A)` reports it in its
//! minimal cover; see DESIGN §12). The oracle here rebuilds that pool by
//! brute force from the definitional `g3` of `tane-baselines`, ranks it by
//! the canonical `(g3, |lhs|, rhs, lhs)` key, and demands the search's heap
//! equal its first `k` entries exactly — so neither the heap-bound pruning,
//! the dominance pruning, the early exit, nor any of TANE's own pruning
//! rules may ever cost a ranked answer.

use tane_core::{discover_topk_fds, RankedFd, TaneConfig, TopKConfig};
use tane_datasets::{generate, ColumnSpec, DatasetSpec};
use tane_relation::{Relation, Schema, Value};
use tane_util::{AttrSet, Fd};

/// The paper's Figure 1 relation.
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
        ["3", "c", "L", "Rose"],
        ["3", "c", "#", "Rose"],
    ] {
        b.push_row(row.map(Value::from)).unwrap();
    }
    b.build()
}

/// A small generated relation with exact, near-exact, and noisy planted
/// dependencies — large enough that the ranked pruning has something to
/// skip, small enough for the exponential brute-force oracle.
fn small_planted() -> Relation {
    generate(&DatasetSpec {
        name: "topk-oracle".into(),
        rows: 60,
        columns: vec![
            ColumnSpec::Categorical { distinct: 5 },
            ColumnSpec::Categorical { distinct: 4 },
            ColumnSpec::Derived {
                of: vec![0, 1],
                distinct: 8,
            },
            ColumnSpec::NoisyDerived {
                of: vec![1],
                distinct: 3,
                noise: 0.1,
            },
            ColumnSpec::Skewed {
                distinct: 6,
                exponent: 1.3,
            },
            ColumnSpec::NoisyDerived {
                of: vec![0, 4],
                distinct: 5,
                noise: 0.05,
            },
        ],
        seed: 0x10c4,
    })
    .unwrap()
}

/// Brute-force ranked pool: every strict-improvement dependency, best
/// first under `(g3_rows, |lhs|, rhs, lhs)`. `g3` is monotone
/// non-increasing in the LHS, so the minimum over all proper subsets is
/// attained one attribute smaller, and strict improvement only needs the
/// one-smaller generalizations checked.
fn brute_pool(relation: &Relation) -> Vec<RankedFd> {
    let n_attrs = relation.num_attrs();
    let n_rows = relation.num_rows();
    let mut pool: Vec<RankedFd> = Vec::new();
    for bits in 0..(1u64 << n_attrs) {
        let lhs = AttrSet::from_indices((0..n_attrs).filter(|i| bits >> i & 1 == 1));
        for rhs in (0..n_attrs).filter(|&a| !lhs.contains(a)) {
            let g3_rows = tane_baselines::fd_g3_rows(relation, lhs, rhs);
            let improves_all = lhs
                .iter()
                .all(|a| tane_baselines::fd_g3_rows(relation, lhs.without(a), rhs) > g3_rows);
            if improves_all {
                pool.push(RankedFd {
                    fd: Fd::new(lhs, rhs),
                    g3_rows,
                    n_rows,
                });
            }
        }
    }
    pool.sort_by_key(|e| (e.g3_rows, e.fd.lhs.len(), e.fd.rhs, e.fd.lhs));
    pool
}

fn run_topk(relation: &Relation, k: usize, threads: usize) -> tane_core::TaneResult {
    let config = TopKConfig {
        base: TaneConfig {
            threads,
            ..TaneConfig::default()
        },
        ..TopKConfig::new(k)
    };
    discover_topk_fds(relation, &config).unwrap()
}

fn assert_matches_oracle(relation: &Relation, label: &str) {
    let pool = brute_pool(relation);
    assert!(!pool.is_empty(), "{label}: oracle pool must not be empty");
    for k in [1, 2, 3, 5, 10, pool.len(), pool.len() + 7] {
        let result = run_topk(relation, k, 1);
        let heap = result.ranked.as_deref().expect("ranked mode sets ranked");
        let want = &pool[..k.min(pool.len())];
        assert_eq!(
            heap, want,
            "{label} k={k}: heap diverged from the brute-force pool"
        );
        // The flat cover is the same set in canonical order.
        let mut canonical: Vec<Fd> = heap.iter().map(|e| e.fd).collect();
        canonical.sort_by_key(|fd| (fd.rhs, fd.lhs));
        assert_eq!(result.fds, canonical, "{label} k={k}: fds/ranked disagree");
    }
}

#[test]
fn figure1_heap_matches_brute_force_pool() {
    assert_matches_oracle(&figure1(), "figure1");
}

#[test]
fn planted_heap_matches_brute_force_pool() {
    assert_matches_oracle(&small_planted(), "planted");
}

#[test]
fn pruned_run_equals_prefix_of_unpruned_run() {
    // TopK{k} must equal the first k of a run whose heap never fills (k
    // larger than any pool), on which neither the heap bound nor the early
    // exit can ever fire — the pruning may save work, never answers.
    for relation in [figure1(), small_planted()] {
        let full = run_topk(&relation, 4096, 1);
        let full_heap = full.ranked.as_deref().unwrap();
        assert_eq!(full.stats.topk_bound_pruned, 0);
        assert_eq!(full.stats.topk_early_exit_level, None);
        for k in [1, 3, 8] {
            let pruned = run_topk(&relation, k, 1);
            let heap = pruned.ranked.as_deref().unwrap();
            assert_eq!(heap, &full_heap[..k.min(full_heap.len())]);
        }
    }
}

#[test]
fn ranked_pruning_actually_engages() {
    // Guard against silently testing an unpruned walk: at k=1 on the
    // planted relation the heap bound must skip candidates before their
    // exact g3 is paid for, and the walk must stop before the lattice is
    // exhausted (6 attributes would otherwise mean 6 levels).
    let result = run_topk(&small_planted(), 1, 1);
    assert!(
        result.stats.topk_bound_pruned > 0,
        "bound pruning never engaged"
    );
    assert!(
        result.stats.topk_dominated > 0,
        "dominance pruning never engaged"
    );
    let full = run_topk(&small_planted(), 4096, 1);
    assert!(
        result.stats.validity_tests < full.stats.validity_tests,
        "pruned run must decide fewer tests than the unpruned run"
    );
}

#[test]
fn early_exit_fires_on_exact_heavy_relations() {
    // Figure 1 has enough shallow exact dependencies that a small heap
    // fills with perfect scores; from then on every deeper candidate loses
    // the (g3, |lhs|) tie-break and the walk must stop early.
    let result = run_topk(&figure1(), 1, 1);
    let exit = result
        .stats
        .topk_early_exit_level
        .expect("k=1 on figure1 must exit early");
    assert!(exit < 4, "exit level {exit} is not early for 4 attributes");
    // Correctness is already covered by the oracle; double-check the heap
    // here so the early exit provably did not cost the answer.
    assert_eq!(
        result.ranked.as_deref().unwrap(),
        &brute_pool(&figure1())[..1]
    );
}

#[test]
fn k_zero_returns_empty_and_exits_immediately() {
    let result = run_topk(&small_planted(), 0, 1);
    assert_eq!(result.ranked.as_deref(), Some(&[][..]));
    assert!(result.fds.is_empty());
    assert_eq!(result.stats.topk_early_exit_level, Some(1));
    assert_eq!(result.stats.topk_improvements, 0);
}

#[test]
fn ranked_heap_is_thread_invariant() {
    for relation in [figure1(), small_planted()] {
        for k in [1, 4, 16] {
            let baseline = run_topk(&relation, k, 1);
            for threads in [2, 4, 8] {
                let got = run_topk(&relation, k, threads);
                assert_eq!(
                    got.ranked, baseline.ranked,
                    "k={k} threads={threads}: ranked heap diverged from serial"
                );
                assert_eq!(got.fds, baseline.fds);
                assert_eq!(
                    got.stats.invariant_counters(),
                    baseline.stats.invariant_counters(),
                    "k={k} threads={threads}: an invariant counter diverged from serial"
                );
            }
        }
    }
}

#[test]
fn improvement_counter_tracks_heap_insertions() {
    let result = run_topk(&figure1(), 3, 1);
    assert!(result.stats.topk_improvements >= 3);
    let heap = result.ranked.as_deref().unwrap();
    assert_eq!(heap.len(), 3);
    // Heap is ordered best-first and every score is a valid fraction.
    for pair in heap.windows(2) {
        assert!(
            (
                pair[0].g3_rows,
                pair[0].fd.lhs.len(),
                pair[0].fd.rhs,
                pair[0].fd.lhs
            ) <= (
                pair[1].g3_rows,
                pair[1].fd.lhs.len(),
                pair[1].fd.rhs,
                pair[1].fd.lhs
            )
        );
    }
    for e in heap {
        assert!(e.g3() >= 0.0 && e.g3() < 1.0);
    }
}
