//! Incremental patches are deterministic: a patched dataset answers
//! exactly like a fresh upload of the same rows.
//!
//! After two churn patches, one discovery runs on the engine's merged
//! snapshot and one on a relation rebuilt row by row from the surviving
//! and appended values (fresh dictionaries, so different codes and a
//! different content hash). Everything an observer can see — the level
//! stream, the cover and the keys — must be byte-identical, at any thread
//! count, on either partition store, exact and approximate; ranked search
//! must return the same ranking.

use std::sync::Arc;

use tane_core::{
    discover_approx_fds_with, discover_fds_with, discover_topk_fds, ApproxTaneConfig, LevelEvent,
    Storage, TaneConfig, TaneResult, TopKConfig,
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
            let d = if rng.next_u64().is_multiple_of(97) {
                (rng.next_u64() % 1000) as i64 + 1000
            } else {
                a * 3
            };
            let e = if rng.next_u64().is_multiple_of(10) {
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

/// The patched snapshot and the same rows rebuilt from scratch: two churn
/// patches through the engine, mirrored on a plain row list (deletes by
/// pre-patch index, then appends).
fn patched_and_rebuilt() -> (Arc<Relation>, Relation) {
    let rows = synth_rows(TOTAL_ROWS);
    let engine = DatasetEngine::new(
        relation_from(&rows[..BASE_ROWS]).into(),
        NullSemantics::NullsEqual,
        EngineLimits::default(),
    )
    .unwrap();
    let patches = [
        RowPatch {
            deletes: vec![3, 10, 11, 500, 501],
            appends: rows[BASE_ROWS..850].to_vec(),
        },
        RowPatch {
            deletes: vec![0, 1, 100, 800],
            appends: rows[850..].to_vec(),
        },
    ];
    let mut survivors = rows[..BASE_ROWS].to_vec();
    for patch in &patches {
        engine.patch(patch).unwrap();
        let mut index = 0;
        survivors.retain(|_| {
            index += 1;
            !patch.deletes.contains(&(index - 1))
        });
        survivors.extend_from_slice(&patch.appends);
    }
    assert_eq!(engine.generation(), 2);
    (engine.merged(), relation_from(&survivors))
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

/// One streamed discovery, exact (`epsilon: None`) or approximate.
fn discover(relation: &Relation, config: &TaneConfig, epsilon: Option<f64>) -> String {
    let mut levels = Vec::new();
    let result = match epsilon {
        None => discover_fds_with(relation, config, |ev| levels.push(ev)),
        Some(eps) => {
            let approx = ApproxTaneConfig {
                base: config.clone(),
                ..ApproxTaneConfig::new(eps)
            };
            discover_approx_fds_with(relation, &approx, |ev| levels.push(ev))
        }
    }
    .unwrap();
    if config.storage != Storage::Memory {
        assert!(
            result.stats.disk_writes > 0 && result.stats.disk_reads > 0,
            "the tiny cache budget must force real spills and read-backs \
             ({} writes, {} reads)",
            result.stats.disk_writes,
            result.stats.disk_reads
        );
    }
    observable(&levels, &result, relation.schema())
}

fn assert_patched_matches_rebuilt(threads: usize, epsilon: Option<f64>, base: TaneConfig) {
    let (patched, rebuilt) = patched_and_rebuilt();
    let config = base.with_threads(threads);
    assert_eq!(
        discover(&patched, &config, epsilon),
        discover(&rebuilt, &config, epsilon),
        "a patched dataset must answer like a fresh upload of its rows \
         (threads={threads}, epsilon={epsilon:?}, storage={:?})",
        config.storage
    );
}

/// The disk-backed variant: a cache budget small enough that the segment
/// store actually spills and reads back.
fn disk() -> TaneConfig {
    TaneConfig::disk(8 << 10)
}

#[test]
fn exact_single_threaded() {
    assert_patched_matches_rebuilt(1, None, TaneConfig::default());
}

#[test]
fn exact_eight_threads() {
    assert_patched_matches_rebuilt(8, None, TaneConfig::default());
}

#[test]
fn approx_single_threaded() {
    assert_patched_matches_rebuilt(1, Some(0.05), TaneConfig::default());
}

#[test]
fn approx_eight_threads() {
    assert_patched_matches_rebuilt(8, Some(0.05), TaneConfig::default());
}

#[test]
fn exact_disk_single_threaded() {
    assert_patched_matches_rebuilt(1, None, disk());
}

#[test]
fn exact_disk_eight_threads() {
    assert_patched_matches_rebuilt(8, None, disk());
}

#[test]
fn approx_disk_single_threaded() {
    assert_patched_matches_rebuilt(1, Some(0.05), disk());
}

#[test]
fn approx_disk_eight_threads() {
    assert_patched_matches_rebuilt(8, Some(0.05), disk());
}

#[test]
fn topk_rankings_match() {
    let (patched, rebuilt) = patched_and_rebuilt();
    for threads in [1, 8] {
        let config = TopKConfig {
            base: TaneConfig::default().with_threads(threads),
            k: 12,
        };
        let ranked = |r: &Relation| {
            discover_topk_fds(r, &config)
                .unwrap()
                .ranked
                .expect("ranked mode returns its heap")
        };
        let on_patched = ranked(&patched);
        assert_eq!(on_patched.len(), 12, "threads={threads}");
        assert_eq!(on_patched, ranked(&rebuilt), "threads={threads}");
    }
}

#[test]
fn merged_view_equals_rebuilt_relation() {
    // A single patch, on its own: deletes spread over the base, all
    // remaining rows appended.
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
    assert_eq!(engine.merged().num_rows(), rebuilt.num_rows());

    let cfg = TaneConfig::default();
    let via_engine = discover_fds_with(&engine.merged(), &cfg, |_| {}).unwrap();
    let via_rebuilt = discover_fds_with(&rebuilt, &cfg, |_| {}).unwrap();
    let sch = schema();
    assert_eq!(via_engine.render(&sch), via_rebuilt.render(&sch));
    assert_eq!(via_engine.keys, via_rebuilt.keys);
}
