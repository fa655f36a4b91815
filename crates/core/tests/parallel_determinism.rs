//! Determinism under parallelism: the worker count must never change a
//! search result. The pool writes batch outputs into index-addressed slots
//! and every decision stays in the serial driver — work-stealing only
//! changes *which worker* fills a slot, never which slot (DESIGN §9) — so
//! `threads ∈ {1, 2, 4, 8}` have to produce identical dependencies, keys,
//! and lattice statistics on every combination of dataset × storage
//! backend × mode — including the counters (`products`, `validity_tests`,
//! `g3_*`) that would drift first if scheduling leaked into the search, and
//! the segment store's I/O, eviction, pin and residency counters (DESIGN
//! §13). The segment store's counters must not depend on row order either.

use tane_core::{
    discover_approx_fds, discover_approx_fds_with, discover_fds, discover_fds_with,
    ApproxTaneConfig, Storage, TaneConfig, TaneResult,
};
use tane_datasets::{generate, ColumnSpec, DatasetSpec};
use tane_relation::{Relation, Schema, Value};
use tane_util::SplitMix64;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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

/// A generated relation with planted exact and approximate dependencies,
/// large enough (8 attrs × 6000 rows) that the element-count gate engages
/// the pool for level-1 construction, products, and batched `g3` tests.
fn planted() -> Relation {
    generate(&DatasetSpec {
        name: "planted".into(),
        rows: 6000,
        columns: vec![
            ColumnSpec::Categorical { distinct: 24 },
            ColumnSpec::Categorical { distinct: 30 },
            ColumnSpec::Skewed {
                distinct: 40,
                exponent: 1.2,
            },
            ColumnSpec::NearUnique { distinct: 2900 },
            ColumnSpec::Derived {
                of: vec![0, 1],
                distinct: 16,
            },
            ColumnSpec::NoisyDerived {
                of: vec![1, 2],
                distinct: 12,
                noise: 0.04,
            },
            ColumnSpec::Categorical { distinct: 6 },
            ColumnSpec::NoisyDerived {
                of: vec![0, 6],
                distinct: 10,
                noise: 0.08,
            },
        ],
        seed: 0x7a3e,
    })
    .unwrap()
}

fn storages() -> Vec<(&'static str, Storage)> {
    vec![
        ("memory", Storage::Memory),
        // A small cache so partitions actually spill, are evicted, and are
        // read back.
        (
            "disk",
            Storage::Disk {
                cache_bytes: 1 << 16,
            },
        ),
    ]
}

/// Everything that must be invariant across worker counts. Wall-clock and
/// the parallel instrumentation (grains, busy time) legitimately vary.
fn invariant_view(r: &TaneResult) -> impl PartialEq + std::fmt::Debug {
    (
        r.fds.clone(),
        r.keys.clone(),
        r.stats.products,
        r.stats.levels,
        r.stats.sets_per_level.clone(),
        r.stats.validity_tests,
        r.stats.g3_exact_computations,
        r.stats.g3_decided_by_bounds,
        r.stats.keys_found,
        // The store's counters, nested: a tuple's `Debug` stops at 12
        // fields.
        (
            r.stats.disk_reads,
            r.stats.disk_bytes_read,
            r.stats.disk_bytes_written,
            r.stats.disk_writes,
            r.stats.store_evictions,
            r.stats.store_pins,
            r.stats.peak_resident_bytes,
            r.stats.oversized_resident,
        ),
    )
}

fn assert_thread_invariant(relation: &Relation, label: &str, epsilon: f64) {
    for (storage_label, storage) in storages() {
        let run = |threads: usize| {
            let base = TaneConfig {
                storage: storage.clone(),
                threads,
                ..TaneConfig::default()
            };
            if epsilon > 0.0 {
                let config = ApproxTaneConfig {
                    base,
                    ..ApproxTaneConfig::new(epsilon)
                };
                discover_approx_fds(relation, &config).unwrap()
            } else {
                discover_fds(relation, &base).unwrap()
            }
        };
        let baseline = run(THREAD_COUNTS[0]);
        assert_eq!(
            baseline.stats.parallel_workers, THREAD_COUNTS[0],
            "worker count must be reported"
        );
        for &threads in &THREAD_COUNTS[1..] {
            let got = run(threads);
            assert_eq!(
                invariant_view(&got),
                invariant_view(&baseline),
                "{label} ε={epsilon} on {storage_label}: threads={threads} diverged from serial"
            );
            assert_eq!(got.stats.parallel_workers, threads);
        }
    }
}

#[test]
fn figure1_exact_is_thread_invariant() {
    assert_thread_invariant(&figure1(), "figure1", 0.0);
}

#[test]
fn figure1_approx_is_thread_invariant() {
    assert_thread_invariant(&figure1(), "figure1", 0.125);
}

#[test]
fn planted_exact_is_thread_invariant() {
    assert_thread_invariant(&planted(), "planted", 0.0);
}

#[test]
fn planted_approx_is_thread_invariant() {
    // ε chosen between the planted noise levels so some tests sit inside
    // the g3 bounds gap and the batched exact-g3 path actually runs.
    assert_thread_invariant(&planted(), "planted", 0.05);
}

#[test]
fn parallel_paths_actually_engage_on_the_planted_relation() {
    // Guards the suite against silently testing serial-vs-serial: with 8
    // workers on the planted relation the pool must have claimed grains.
    let r = planted();
    let config = TaneConfig {
        threads: 8,
        ..TaneConfig::default()
    };
    let result = discover_fds(&r, &config).unwrap();
    assert_eq!(result.stats.parallel_workers, 8);
    assert!(
        result.stats.parallel_grains > 0,
        "pool never engaged: gate or dispatch is broken"
    );
    assert!(result.stats.worker_busy > std::time::Duration::ZERO);
    // Engagement guard for the work-stealing scheduler itself: with 8
    // workers over deques seeded by contiguous blocks, the skewed planted
    // columns leave some deques short and others long, so at least one
    // steal must land. Zero steals means the deques degenerated to a
    // single-owner split (scheduler not exercised).
    assert!(
        result.stats.worker_steals > 0,
        "work-stealing never engaged: deque split or steal path is broken"
    );

    // The same guard at 4 workers — the smallest count the ISSUE's scaling
    // acceptance talks about — so the steal path is proven at every
    // configuration the scaling bench measures.
    let result4 = discover_fds(
        &r,
        &TaneConfig {
            threads: 4,
            ..TaneConfig::default()
        },
    )
    .unwrap();
    assert!(
        result4.stats.worker_steals > 0,
        "work-stealing never engaged at 4 workers"
    );

    // The serial runtime must record busy time too (utilization against
    // the 1-thread baseline is meaningless otherwise), and must never
    // report scheduler activity — there is no scheduler.
    let serial = discover_fds(
        &r,
        &TaneConfig {
            threads: 1,
            ..TaneConfig::default()
        },
    )
    .unwrap();
    assert!(
        serial.stats.worker_busy > std::time::Duration::ZERO,
        "serial path records no busy time: the scaling report cannot compute utilization"
    );
    assert_eq!(serial.stats.worker_steals, 0);
    assert_eq!(serial.stats.worker_parks, 0);

    // And the approximate run must push undecided tests through the
    // batched exact-g3 path.
    let approx = discover_approx_fds(
        &r,
        &ApproxTaneConfig {
            base: TaneConfig {
                threads: 8,
                ..TaneConfig::default()
            },
            ..ApproxTaneConfig::new(0.05)
        },
    )
    .unwrap();
    assert!(
        approx.stats.g3_exact_computations > 0,
        "no undecided tests: the batched g3 path is untested at ε=0.05"
    );
}

/// `relation` with its rows in a seeded random order.
fn permute_rows(relation: &Relation, seed: u64) -> Relation {
    let mut order: Vec<usize> = (0..relation.num_rows()).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.usize_below(i + 1));
    }
    let columns = (0..relation.num_attrs())
        .map(|a| {
            let codes = relation.column_codes(a);
            order.iter().map(|&row| codes[row]).collect()
        })
        .collect();
    Relation::from_codes(relation.schema().clone(), columns).unwrap()
}

/// The segment store's I/O and residency counters plus the per-level
/// `partitions_bytes` gauge, for a disk run with a cache small enough to
/// evict.
fn store_view(relation: &Relation, epsilon: f64) -> impl PartialEq + std::fmt::Debug {
    let base = TaneConfig::disk(1 << 16).with_threads(2);
    let mut level_bytes = Vec::new();
    let on_level = |ev: tane_core::LevelEvent| level_bytes.push(ev.partitions_bytes);
    let r = if epsilon > 0.0 {
        let config = ApproxTaneConfig {
            base,
            ..ApproxTaneConfig::new(epsilon)
        };
        discover_approx_fds_with(relation, &config, on_level).unwrap()
    } else {
        discover_fds_with(relation, &base, on_level).unwrap()
    };
    assert!(
        r.stats.store_evictions > 0 && r.stats.disk_reads > 0,
        "the cache must be small enough to evict and read back"
    );
    (
        r.stats.disk_reads,
        r.stats.disk_bytes_read,
        r.stats.disk_bytes_written,
        r.stats.store_evictions,
        r.stats.store_pins,
        r.stats.peak_resident_bytes,
        level_bytes,
    )
}

#[test]
fn store_counters_do_not_depend_on_row_order() {
    // Partition sizes count vector lengths, so what the store spills,
    // evicts and reads back depends on the partitions' content, which a
    // row permutation leaves unchanged, and not on the row order.
    let r = planted();
    for epsilon in [0.0, 0.05] {
        let want = store_view(&r, epsilon);
        for seed in [1, 2] {
            assert_eq!(
                store_view(&permute_rows(&r, seed), epsilon),
                want,
                "ε={epsilon}: row order {seed} changed the store counters"
            );
        }
    }
}
