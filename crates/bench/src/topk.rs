//! Top-k ranked search experiment (beyond the paper): wall-clock and
//! pruning effect of the heap bound at small `k` against the same ranked
//! walk with an unbounded heap. The unbounded run is the honest baseline —
//! it scores the identical candidate pool under the identical rank key,
//! but its heap never fills, so the bound never prunes and the walk never
//! exits early (the oracle test in `tane-core` proves the bounded run's
//! heap is exactly a prefix of it). The claim under test: at small `k` the
//! bound skips real work — fewer validity tests, fewer exact `g3`
//! computations, and less wall-clock — while returning the same top of
//! the ranking.

use crate::report::TopKRow;
use crate::runners::format_row;
use crate::Scale;
use tane_core::{discover_topk_fds, TaneConfig, TaneResult, TopKConfig};
use tane_datasets as ds;
use tane_relation::Relation;
use tane_util::Stopwatch;

/// Heap sizes of the bounded runs.
const K_GRID: [usize; 3] = [1, 5, 25];

/// Stand-in for "no bound": far larger than any candidate pool the grid's
/// relations can produce, so the heap never fills.
const UNBOUNDED: usize = 1 << 30;

fn dataset_grid(scale: Scale) -> Vec<(String, Relation)> {
    let mut grid = vec![(
        "Wisconsin breast cancer".to_string(),
        ds::wisconsin_breast_cancer(),
    )];
    if let Scale::Full = scale {
        grid.push(("Wisconsin breast cancer x8".into(), ds::scaled_wbc(8)));
    }
    grid
}

fn run_ranked(relation: &Relation, k: usize) -> (TaneResult, f64) {
    let config = TopKConfig {
        base: TaneConfig::default(),
        ..TopKConfig::new(k)
    };
    let sw = Stopwatch::start();
    let result = discover_topk_fds(relation, &config).expect("ranked run failed");
    (result, sw.elapsed_secs())
}

fn to_row(
    dataset: &str,
    relation: &Relation,
    k: Option<usize>,
    result: &TaneResult,
    secs: f64,
) -> TopKRow {
    TopKRow {
        dataset: dataset.to_string(),
        rows: relation.num_rows(),
        attrs: relation.num_attrs(),
        k,
        heap_len: result.ranked.as_deref().map_or(0, <[_]>::len),
        secs,
        stats: result.stats.clone(),
    }
}

/// Runs and prints the top-k grid; returns the structured rows.
pub fn run(scale: Scale) -> Vec<TopKRow> {
    println!("Top-k ranked search: bounded heap vs the unbounded ranked walk (times in seconds)");
    let widths = [28usize, 6, 6, 9, 9, 9, 9, 9, 6];
    println!(
        "{}",
        format_row(
            &widths,
            &["Name", "k", "Heap", "Time(s)", "Tests", "ExactG3", "Pruned", "Domin.", "Exit"]
                .map(String::from)
        )
    );

    let mut rows = Vec::new();
    for (name, relation) in dataset_grid(scale) {
        let (full, full_secs) = run_ranked(&relation, UNBOUNDED);
        assert_eq!(
            full.stats.topk_bound_pruned, 0,
            "unbounded heap never prunes"
        );
        assert_eq!(full.stats.topk_early_exit_level, None);
        let mut grid_rows = vec![to_row(&name, &relation, None, &full, full_secs)];
        for k in K_GRID {
            let (bounded, secs) = run_ranked(&relation, k);
            // Soundness spot-check alongside the timing: the bounded heap
            // is the top of the unbounded ranking, and the bound did not
            // decide more than the full run did.
            let want =
                &full.ranked.as_deref().unwrap()[..k.min(full.ranked.as_deref().unwrap().len())];
            assert_eq!(bounded.ranked.as_deref().unwrap(), want, "{name} k={k}");
            assert!(
                bounded.stats.validity_tests <= full.stats.validity_tests,
                "{name} k={k}: the bound must not add work"
            );
            grid_rows.push(to_row(&name, &relation, Some(k), &bounded, secs));
        }
        for row in &grid_rows {
            let s = &row.stats;
            println!(
                "{}",
                format_row(
                    &widths,
                    &[
                        row.dataset.clone(),
                        row.k.map_or("full".into(), |k| k.to_string()),
                        row.heap_len.to_string(),
                        format!("{:.3}", row.secs),
                        s.validity_tests.to_string(),
                        s.g3_exact_computations.to_string(),
                        s.topk_bound_pruned.to_string(),
                        s.topk_dominated.to_string(),
                        s.topk_early_exit_level
                            .map_or("-".into(), |l| l.to_string()),
                    ]
                )
            );
        }
        rows.extend(grid_rows);
    }
    println!();
    rows
}
