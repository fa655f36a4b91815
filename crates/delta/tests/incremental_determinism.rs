//! The incremental engine's headline guarantee: after any sequence of
//! patches, a merge-and-reverify discovery streams and returns **byte
//! for byte** what a cold discovery on the equivalent static relation
//! streams and returns — at any thread count, in exact and approximate
//! mode — while doing strictly fewer partition products.

use std::sync::Arc;

use tane_core::{
    discover_approx_fds_with, discover_fds_with, ApproxTaneConfig, LevelEvent, TaneConfig,
    TaneResult,
};
use tane_delta::{DatasetEngine, EngineLimits};
use tane_relation::{NullSemantics, Relation, RowPatch, Schema, Value};
use tane_util::SplitMix64;

const TOTAL_ROWS: usize = 1000;
const BASE_ROWS: usize = 700;

/// A six-attribute synthetic table with planted structure: `C` derived
/// from `(A, B)` exactly, `D` derived from `A` with ~1% noise (so exact
/// and approximate mode disagree about `A → D`), `E` near-unique, `F`
/// low-cardinality.
fn synth_rows(n: usize) -> Vec<Vec<Value>> {
    let mut rng = SplitMix64::new(0x1ce_de17a);
    (0..n)
        .map(|i| {
            let a = (rng.next_u64() % 41) as i64;
            let b = (rng.next_u64() % 13) as i64;
            let c = a * 13 + b;
            let d = if rng.next_u64() % 97 == 0 {
                (rng.next_u64() % 1000) as i64 + 1000
            } else {
                a * 3
            };
            let e = if rng.next_u64() % 10 == 0 {
                7
            } else {
                i as i64
            };
            let f = (rng.next_u64() % 3) as i64;
            vec![
                Value::Int(a),
                Value::Int(b),
                Value::Int(c),
                Value::Int(d),
                Value::Int(e),
                Value::Int(f),
            ]
        })
        .collect()
}

fn schema() -> Schema {
    Schema::new(["A", "B", "C", "D", "E", "F"]).unwrap()
}

fn relation_from(rows: &[Vec<Value>]) -> Relation {
    let mut b = Relation::builder(schema());
    for row in rows {
        b.push_row(row.clone()).unwrap();
    }
    b.build()
}

/// Builds the engine over the base slice, runs one warm-up discovery to
/// populate the trackers, then applies two churn patches.
fn churned_engine() -> DatasetEngine {
    let rows = synth_rows(TOTAL_ROWS);
    let base = Arc::new(relation_from(&rows[..BASE_ROWS]));
    let engine =
        DatasetEngine::new(base, NullSemantics::NullsEqual, EngineLimits::default()).unwrap();
    engine
        .discover_exact_with(&TaneConfig::default(), |_| {})
        .unwrap();
    engine
        .patch(&RowPatch {
            deletes: vec![3, 10, 11, 500, 501],
            appends: rows[BASE_ROWS..850].to_vec(),
        })
        .unwrap();
    engine
        .patch(&RowPatch {
            deletes: vec![0, 1, 100, 800],
            appends: rows[850..].to_vec(),
        })
        .unwrap();
    assert_eq!(engine.generation(), 2);
    engine
}

/// Everything an observer of a streamed discovery can see, rendered to
/// bytes: the per-level resident partition bytes and minimal-FD lines in
/// arrival order, then the final cover and keys. Level timings are
/// excluded — they are wall-clock, not results.
fn observable(levels: &[LevelEvent], result: &TaneResult, schema: &Schema) -> String {
    let mut out = String::new();
    for ev in levels {
        out.push_str(&format!(
            "level {} ({} partition bytes):\n",
            ev.level, ev.partitions_bytes
        ));
        for fd in &ev.new_minimal_fds {
            out.push_str(&fd.display_with(schema.names()).to_string());
            out.push('\n');
        }
    }
    out.push_str("cover:\n");
    out.push_str(&result.render(schema));
    out.push_str("keys:\n");
    for k in &result.keys {
        out.push_str(&format!("{:?}\n", k.iter().collect::<Vec<_>>()));
    }
    out
}

fn assert_incremental_matches_cold(threads: usize, epsilon: Option<f64>) {
    assert_incremental_matches_cold_on(threads, epsilon, TaneConfig::default());
}

/// The disk-backed variant: a cache budget small enough that the segment
/// store actually spills and reads back, so merge-and-reverify exercises
/// the shared-read snapshot machinery (DESIGN §13) across generation
/// bumps.
fn assert_incremental_matches_cold_on_disk(threads: usize, epsilon: Option<f64>) {
    assert_incremental_matches_cold_on(threads, epsilon, TaneConfig::disk(8 << 10));
}

fn assert_incremental_matches_cold_on(threads: usize, epsilon: Option<f64>, base: TaneConfig) {
    let disk = base.storage != tane_core::Storage::Memory;
    let engine = churned_engine();
    let merged = engine.merged();
    let sch = merged.schema().clone();

    let mut inc_levels = Vec::new();
    let mut cold_levels = Vec::new();
    let (inc, cold) = match epsilon {
        None => {
            let cfg = base.with_threads(threads);
            let inc = engine
                .discover_exact_with(&cfg, |ev| inc_levels.push(ev))
                .unwrap();
            let cold = discover_fds_with(&merged, &cfg, |ev| cold_levels.push(ev)).unwrap();
            (inc, cold)
        }
        Some(eps) => {
            let mut cfg = ApproxTaneConfig::new(eps);
            cfg.base = base.with_threads(threads);
            let inc = engine
                .discover_approx_with(&cfg, |ev| inc_levels.push(ev))
                .unwrap();
            let cold = discover_approx_fds_with(&merged, &cfg, |ev| cold_levels.push(ev)).unwrap();
            (inc, cold)
        }
    };

    assert_eq!(
        observable(&inc_levels, &inc, &sch),
        observable(&cold_levels, &cold, &sch),
        "incremental output must be byte-identical to a cold run \
         (threads={threads}, epsilon={epsilon:?})"
    );
    assert!(
        inc.stats.partitions_supplied > 0,
        "the warm-up run must have left usable trackers"
    );
    assert!(
        inc.stats.products < cold.stats.products,
        "re-verify must do strictly fewer products ({} vs {})",
        inc.stats.products,
        cold.stats.products
    );
    assert_eq!(
        inc.stats.products + inc.stats.partitions_supplied,
        cold.stats.products,
        "every node is either supplied or producted"
    );
    if disk {
        assert!(
            cold.stats.disk_writes > 0 && cold.stats.disk_reads > 0,
            "the tiny cache budget must force real spills and read-backs \
             ({} writes, {} reads)",
            cold.stats.disk_writes,
            cold.stats.disk_reads
        );
    }
}

#[test]
fn exact_single_threaded() {
    assert_incremental_matches_cold(1, None);
}

#[test]
fn exact_eight_threads() {
    assert_incremental_matches_cold(8, None);
}

#[test]
fn approx_single_threaded() {
    assert_incremental_matches_cold(1, Some(0.05));
}

#[test]
fn approx_eight_threads() {
    assert_incremental_matches_cold(8, Some(0.05));
}

#[test]
fn exact_disk_single_threaded() {
    assert_incremental_matches_cold_on_disk(1, None);
}

#[test]
fn exact_disk_eight_threads() {
    assert_incremental_matches_cold_on_disk(8, None);
}

#[test]
fn approx_disk_eight_threads() {
    assert_incremental_matches_cold_on_disk(8, Some(0.05));
}

/// The merged view is the ground truth: discovery through the engine on a
/// patched dataset equals discovery on a relation rebuilt from scratch
/// out of the surviving + appended rows (same values, fresh dictionary).
#[test]
fn merged_view_equals_rebuilt_relation() {
    let rows = synth_rows(TOTAL_ROWS);
    let base = Arc::new(relation_from(&rows[..BASE_ROWS]));
    let engine =
        DatasetEngine::new(base, NullSemantics::NullsEqual, EngineLimits::default()).unwrap();
    engine
        .patch(&RowPatch {
            deletes: vec![2, 5, 600],
            appends: rows[BASE_ROWS..].to_vec(),
        })
        .unwrap();

    // Rebuild the equivalent static relation row by row.
    let mut survivors: Vec<Vec<Value>> = rows[..BASE_ROWS].to_vec();
    for &d in [600usize, 5, 2].iter() {
        survivors.remove(d);
    }
    survivors.extend_from_slice(&rows[BASE_ROWS..]);
    let rebuilt = relation_from(&survivors);

    let cfg = TaneConfig::default();
    let via_engine = engine.discover_exact_with(&cfg, |_| {}).unwrap();
    let via_rebuilt = discover_fds_with(&rebuilt, &cfg, |_| {}).unwrap();
    let sch = schema();
    assert_eq!(via_engine.render(&sch), via_rebuilt.render(&sch));
    assert_eq!(via_engine.keys, via_rebuilt.keys);
}
