//! Structured experiment results, serializable with `--json`.
//!
//! Serialization is hand-rolled onto [`tane_util::Json`] (`serde` is not
//! available in the offline build); each row type has a `to_json` mirror
//! of its fields, so the emitted document is field-for-field what the
//! `serde` derive used to produce. Rows that carry a search's `TaneStats`
//! emit it as the counter table's rows, under the table's wire names.

use crate::runners::{cell_json, Cell};
use tane_core::TaneStats;
use tane_util::Json;

/// One Table 1 row.
#[derive(Debug)]
pub struct Table1Row {
    /// Dataset label, e.g. `wbc x64`.
    pub dataset: String,
    /// Row count `|r|`.
    pub rows: usize,
    /// Attribute count `|R|`.
    pub attrs: usize,
    /// Minimal dependencies found.
    pub n: usize,
    /// Scalable TANE (disk) measurement.
    pub tane: Option<Cell>,
    /// TANE/MEM measurement.
    pub tane_mem: Option<Cell>,
    /// FDEP measurement (`None` = infeasible, the paper's `*`).
    pub fdep: Option<Cell>,
}

impl Table1Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", Json::Str(self.dataset.clone())),
            ("rows", Json::Num(self.rows as f64)),
            ("attrs", Json::Num(self.attrs as f64)),
            ("n", Json::Num(self.n as f64)),
            ("tane", cell_json(self.tane)),
            ("tane_mem", cell_json(self.tane_mem)),
            ("fdep", cell_json(self.fdep)),
        ])
    }
}

/// One Table 2 row: a dataset across the ε grid.
#[derive(Debug)]
pub struct Table2Row {
    /// Dataset label.
    pub dataset: String,
    /// `(epsilon, cell)` per grid point.
    pub cells: Vec<(f64, Cell)>,
}

impl Table2Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", Json::Str(self.dataset.clone())),
            (
                "cells",
                Json::Arr(
                    self.cells
                        .iter()
                        .map(|(eps, cell)| Json::Arr(vec![Json::Num(*eps), cell.to_json()]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One Table 3 row: ours measured, cited numbers echoed.
#[derive(Debug)]
pub struct Table3Row {
    /// Dataset label as printed in the paper.
    pub dataset: String,
    /// `|r|`, `|R|`, LHS limit `|X|`.
    pub rows: usize,
    /// Attribute count.
    pub attrs: usize,
    /// LHS size limit used.
    pub max_lhs: usize,
    /// Literature numbers `(column, seconds)` cited from the paper
    /// (never re-measured — marked † in the printout).
    pub cited: Vec<(String, f64)>,
    /// Our FDEP measurement.
    pub fdep: Option<Cell>,
    /// Our TANE measurement.
    pub tane: Option<Cell>,
}

impl Table3Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", Json::Str(self.dataset.clone())),
            ("rows", Json::Num(self.rows as f64)),
            ("attrs", Json::Num(self.attrs as f64)),
            ("max_lhs", Json::Num(self.max_lhs as f64)),
            (
                "cited",
                Json::Arr(
                    self.cited
                        .iter()
                        .map(|(name, secs)| {
                            Json::Arr(vec![Json::Str(name.clone()), Json::Num(*secs)])
                        })
                        .collect(),
                ),
            ),
            ("fdep", cell_json(self.fdep)),
            ("tane", cell_json(self.tane)),
        ])
    }
}

/// One Figure 3 series point.
#[derive(Debug)]
pub struct Figure3Point {
    /// Threshold ε.
    pub epsilon: f64,
    /// Dependencies found at ε.
    pub n: usize,
    /// `N_ε / N_0`.
    pub n_ratio: f64,
    /// Seconds at ε.
    pub secs: f64,
    /// `Time_ε / Time_0`.
    pub time_ratio: f64,
}

impl Figure3Point {
    fn to_json(&self) -> Json {
        Json::obj([
            ("epsilon", Json::Num(self.epsilon)),
            ("n", Json::Num(self.n as f64)),
            ("n_ratio", Json::Num(self.n_ratio)),
            ("secs", Json::Num(self.secs)),
            ("time_ratio", Json::Num(self.time_ratio)),
        ])
    }
}

/// One Figure 4 point: the three algorithms at one row count.
#[derive(Debug)]
pub struct Figure4Point {
    /// Copy multiplier `n` of wbc×n.
    pub copies: usize,
    /// Total rows.
    pub rows: usize,
    /// Scalable TANE seconds.
    pub tane: Option<f64>,
    /// TANE/MEM seconds.
    pub tane_mem: Option<f64>,
    /// FDEP seconds (`None` beyond the feasibility cap).
    pub fdep: Option<f64>,
}

impl Figure4Point {
    fn to_json(&self) -> Json {
        let secs = |s: Option<f64>| s.map_or(Json::Null, Json::Num);
        Json::obj([
            ("copies", Json::Num(self.copies as f64)),
            ("rows", Json::Num(self.rows as f64)),
            ("tane", secs(self.tane)),
            ("tane_mem", secs(self.tane_mem)),
            ("fdep", secs(self.fdep)),
        ])
    }
}

/// One ablation measurement.
#[derive(Debug)]
pub struct AblationRow {
    /// Dataset label.
    pub dataset: String,
    /// Variant label, e.g. `no key pruning`.
    pub variant: String,
    /// Dependencies found (must be invariant across variants).
    pub n: usize,
    /// Seconds.
    pub secs: f64,
    /// Lattice sets processed (the paper's `s`).
    pub sets_total: usize,
    /// Validity tests.
    pub validity_tests: usize,
}

impl AblationRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", Json::Str(self.dataset.clone())),
            ("variant", Json::Str(self.variant.clone())),
            ("n", Json::Num(self.n as f64)),
            ("secs", Json::Num(self.secs)),
            ("sets_total", Json::Num(self.sets_total as f64)),
            ("validity_tests", Json::Num(self.validity_tests as f64)),
        ])
    }
}

/// One thread-scaling measurement: the same search at one worker count on
/// one storage backend. The dependency count `n` and every invariant
/// counter must be identical down every column — the parallel runtime is
/// deterministic by construction.
#[derive(Debug)]
pub struct ScalingRow {
    /// Storage backend label, `memory` or `disk`.
    pub storage: String,
    /// Worker threads configured for the search.
    pub threads: usize,
    /// CPU cores available on the machine that ran the row — the honest
    /// context for the wall-clock column (threads beyond `cores` cannot
    /// speed anything up).
    pub cores: usize,
    /// Dependencies found (thread-invariant).
    pub n: usize,
    /// Wall-clock seconds.
    pub secs: f64,
    /// `true` when `threads == 1`: the paper-faithful serial runtime, no
    /// pool dispatch (busy time is the inline compute sections).
    pub serial: bool,
    /// The search's statistics, serialized as the counter table's rows.
    pub stats: TaneStats,
}

impl ScalingRow {
    fn to_json(&self) -> Json {
        Json::obj(
            [
                ("storage", Json::Str(self.storage.clone())),
                ("threads", Json::Num(self.threads as f64)),
                ("cores", Json::Num(self.cores as f64)),
                ("n", Json::Num(self.n as f64)),
                ("secs", Json::Num(self.secs)),
                ("serial", Json::Bool(self.serial)),
            ]
            .into_iter()
            .chain(self.stats.json_members(false)),
        )
    }
}

/// One top-k ranked-search measurement: the ranked walk on one dataset at
/// one heap bound. `k = None` is the unbounded baseline — the same walk
/// with a heap that never fills, so the bound and the early exit cannot
/// fire and the pruning counters read zero.
#[derive(Debug)]
pub struct TopKRow {
    /// Dataset label.
    pub dataset: String,
    /// Row count.
    pub rows: usize,
    /// Attribute count.
    pub attrs: usize,
    /// Heap bound, `None` for the unbounded baseline.
    pub k: Option<usize>,
    /// Entries actually held at the end (≤ k, ≤ the pool size).
    pub heap_len: usize,
    /// Wall-clock seconds.
    pub secs: f64,
    /// The search's statistics, serialized as the counter table's rows,
    /// ranked rows included.
    pub stats: TaneStats,
}

impl TopKRow {
    fn to_json(&self) -> Json {
        Json::obj(
            [
                ("dataset", Json::Str(self.dataset.clone())),
                ("rows", Json::Num(self.rows as f64)),
                ("attrs", Json::Num(self.attrs as f64)),
                ("k", self.k.map_or(Json::Null, |k| Json::Num(k as f64))),
                ("heap_len", Json::Num(self.heap_len as f64)),
                ("secs", Json::Num(self.secs)),
            ]
            .into_iter()
            .chain(self.stats.json_members(true)),
        )
    }
}

/// Everything the harness produced in one invocation.
#[derive(Debug, Default)]
pub struct Report {
    /// Table 1 rows, if run.
    pub table1: Vec<Table1Row>,
    /// Table 2 rows, if run.
    pub table2: Vec<Table2Row>,
    /// Table 3 rows, if run.
    pub table3: Vec<Table3Row>,
    /// Figure 3 series per dataset, if run.
    pub figure3: Vec<(String, Vec<Figure3Point>)>,
    /// Figure 4 points, if run.
    pub figure4: Vec<Figure4Point>,
    /// Ablation rows, if run.
    pub ablations: Vec<AblationRow>,
    /// Thread-scaling rows, if run.
    pub scaling: Vec<ScalingRow>,
    /// Top-k ranked-search rows, if run.
    pub topk: Vec<TopKRow>,
}

impl Report {
    /// The whole report as a JSON document (the `--json` output).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "table1",
                Json::Arr(self.table1.iter().map(Table1Row::to_json).collect()),
            ),
            (
                "table2",
                Json::Arr(self.table2.iter().map(Table2Row::to_json).collect()),
            ),
            (
                "table3",
                Json::Arr(self.table3.iter().map(Table3Row::to_json).collect()),
            ),
            (
                "figure3",
                Json::Arr(
                    self.figure3
                        .iter()
                        .map(|(name, points)| {
                            Json::Arr(vec![
                                Json::Str(name.clone()),
                                Json::Arr(points.iter().map(Figure3Point::to_json).collect()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "figure4",
                Json::Arr(self.figure4.iter().map(Figure4Point::to_json).collect()),
            ),
            (
                "ablations",
                Json::Arr(self.ablations.iter().map(AblationRow::to_json).collect()),
            ),
            (
                "scaling",
                Json::Arr(self.scaling.iter().map(ScalingRow::to_json).collect()),
            ),
            (
                "topk",
                Json::Arr(self.topk.iter().map(TopKRow::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_to_parseable_json() {
        let report = Report {
            table1: vec![Table1Row {
                dataset: "wbc".into(),
                rows: 699,
                attrs: 11,
                n: 48,
                tane: Some(Cell::new(48, 0.5)),
                tane_mem: Some(Cell::new(48, 0.25)),
                fdep: None,
            }],
            table2: vec![Table2Row {
                dataset: "wbc".into(),
                cells: vec![(0.01, Cell::new(60, 0.1))],
            }],
            scaling: vec![ScalingRow {
                storage: "disk".into(),
                threads: 2,
                cores: 8,
                n: 48,
                secs: 0.75,
                serial: false,
                stats: TaneStats {
                    products: 1925,
                    worker_steals: 7,
                    worker_parks: 3,
                    disk_bytes_written: 8192,
                    ..TaneStats::default()
                },
            }],
            figure4: vec![Figure4Point {
                copies: 2,
                rows: 1398,
                tane: Some(1.0),
                tane_mem: Some(0.5),
                fdep: None,
            }],
            topk: vec![TopKRow {
                dataset: "wbc".into(),
                rows: 699,
                attrs: 11,
                k: Some(5),
                heap_len: 5,
                secs: 0.2,
                stats: TaneStats {
                    validity_tests: 1200,
                    g3_exact_computations: 40,
                    topk_bound_pruned: 900,
                    topk_dominated: 30,
                    topk_early_exit_level: Some(7),
                    ..TaneStats::default()
                },
            }],
            ..Report::default()
        };
        let text = report.to_json().render_pretty();
        let parsed = Json::parse(&text).expect("report emits valid JSON");
        let t1 = parsed.get("table1").unwrap().as_array().unwrap();
        assert_eq!(t1[0].get("dataset").unwrap().as_str(), Some("wbc"));
        assert_eq!(t1[0].get("n").unwrap().as_usize(), Some(48));
        assert!(t1[0].get("fdep").unwrap().is_null());
        assert_eq!(
            t1[0].get("tane").unwrap().get("secs").unwrap().as_f64(),
            Some(0.5)
        );
        assert!(parsed
            .get("ablations")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        let scaling = parsed.get("scaling").unwrap().as_array().unwrap();
        assert_eq!(scaling[0].get("storage").unwrap().as_str(), Some("disk"));
        assert_eq!(scaling[0].get("threads").unwrap().as_usize(), Some(2));
        assert_eq!(scaling[0].get("worker_steals").unwrap().as_usize(), Some(7));
        assert_eq!(scaling[0].get("worker_parks").unwrap().as_usize(), Some(3));
        assert!(
            scaling[0].get("topk_bound_pruned").is_none(),
            "ranked rows stay off plain searches"
        );
        assert_eq!(scaling[0].get("serial").unwrap().as_bool(), Some(false));
        assert_eq!(
            scaling[0].get("disk_bytes_written").unwrap().as_usize(),
            Some(8192)
        );
        let topk = parsed.get("topk").unwrap().as_array().unwrap();
        assert_eq!(topk[0].get("k").unwrap().as_usize(), Some(5));
        assert_eq!(
            topk[0].get("topk_bound_pruned").unwrap().as_usize(),
            Some(900)
        );
        assert_eq!(
            topk[0].get("topk_early_exit_level").unwrap().as_usize(),
            Some(7)
        );
    }
}
