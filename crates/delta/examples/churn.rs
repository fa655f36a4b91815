//! Churn benchmark: a patch-then-discover loop comparing the incremental
//! engine's merge-and-reverify against cold full discovery on the same
//! merged relation. Emits a JSON document (BENCH_pr6.json) showing the
//! incremental path doing strictly fewer partition products per round.
//!
//! Run: `cargo run --release -p tane-delta --example churn`

use std::sync::Arc;
use std::time::Instant;

use tane_core::{discover_fds_with, TaneConfig};
use tane_delta::{DatasetEngine, EngineLimits};
use tane_relation::{NullSemantics, Relation, RowPatch, Schema, Value};
use tane_util::SplitMix64;

const BASE_ROWS: usize = 50_000;
const ROUNDS: usize = 6;
const APPENDS_PER_ROUND: usize = 500;
const DELETES_PER_ROUND: usize = 200;

fn synth_row(i: usize, rng: &mut SplitMix64) -> Vec<Value> {
    let a = (rng.next_u64() % 120) as i64;
    let b = (rng.next_u64() % 40) as i64;
    let c = a * 40 + b;
    let d = if rng.next_u64().is_multiple_of(89) {
        (rng.next_u64() % 10_000) as i64 + 100_000
    } else {
        a * 7
    };
    let e = i as i64;
    let f = (rng.next_u64() % 5) as i64;
    let g = (b % 8) * 100 + f;
    vec![
        Value::Int(a),
        Value::Int(b),
        Value::Int(c),
        Value::Int(d),
        Value::Int(e),
        Value::Int(f),
        Value::Int(g),
    ]
}

fn main() {
    let schema = Schema::new(["A", "B", "C", "D", "E", "F", "G"]).unwrap();
    let mut rng = SplitMix64::new(0xbe_9c4);
    let mut b = Relation::builder(schema);
    for i in 0..BASE_ROWS {
        b.push_row(synth_row(i, &mut rng)).unwrap();
    }
    let base = Arc::new(b.build());
    let engine =
        DatasetEngine::new(base, NullSemantics::NullsEqual, EngineLimits::default()).unwrap();
    let cfg = TaneConfig::default();

    // Warm-up: cold discovery populates the trackers.
    let warm = engine.discover_exact_with(&cfg, |_| {}).unwrap();
    eprintln!(
        "warm-up: {} fds, {} products, {:.3}s",
        warm.count(),
        warm.stats.products,
        warm.stats.elapsed.as_secs_f64()
    );

    println!("{{");
    println!("  \"churn\": [");
    let mut next_row = BASE_ROWS;
    for round in 0..ROUNDS {
        let rows = engine.merged().num_rows();
        let patch = RowPatch {
            deletes: (0..DELETES_PER_ROUND)
                .map(|_| (rng.next_u64() as usize) % rows)
                .collect(),
            appends: (0..APPENDS_PER_ROUND)
                .map(|_| {
                    next_row += 1;
                    synth_row(next_row, &mut rng)
                })
                .collect(),
        };
        engine.patch(&patch).unwrap();

        let t0 = Instant::now();
        let inc = engine.discover_exact_with(&cfg, |_| {}).unwrap();
        let inc_secs = t0.elapsed().as_secs_f64();

        let merged = engine.merged();
        let t1 = Instant::now();
        let cold = discover_fds_with(&merged, &cfg, |_| {}).unwrap();
        let cold_secs = t1.elapsed().as_secs_f64();

        assert_eq!(inc.fds, cold.fds, "round {round}: outputs must agree");
        assert!(
            inc.stats.products < cold.stats.products,
            "round {round}: incremental must do strictly fewer products"
        );

        let sep = if round + 1 == ROUNDS { "" } else { "," };
        println!(
            "    {{\"round\": {}, \"rows\": {}, \"fds\": {}, \
             \"incremental_products\": {}, \"partitions_supplied\": {}, \
             \"full_products\": {}, \"incremental_secs\": {:.6}, \
             \"full_secs\": {:.6}}}{}",
            round + 1,
            merged.num_rows(),
            inc.count(),
            inc.stats.products,
            inc.stats.partitions_supplied,
            cold.stats.products,
            inc_secs,
            cold_secs,
            sep
        );
    }
    println!("  ]");
    println!("}}");
}
