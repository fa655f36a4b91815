//! Thread-scaling experiment (beyond the paper): the same search at 1, 2,
//! 4, and 8 pool workers, on both storage backends. Two claims are under
//! test: the dependency count, product count and disk bytes read and
//! written must be identical down every column (the runtime is
//! deterministic by construction — see DESIGN.md §9), and the
//! instrumentation (worker busy time, steals, parks, spin, fetch stall)
//! must explain where the wall-clock goes. On a
//! single-core machine the rows legitimately show no speedup; the `cores`
//! field records the machine so the numbers read as measured, and
//! [`assert_scaling`] gates CI only where 4 workers can actually run.

use crate::report::ScalingRow;
use crate::runners::format_row;
use crate::Scale;
use tane_core::{discover_fds, Storage, TaneConfig};
use tane_datasets::{generate, ColumnSpec, DatasetSpec};
use tane_relation::Relation;
use tane_util::Stopwatch;

/// Worker counts of the grid.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Disk cache for the scaling runs: small enough that the generated
/// dataset's lattice spills and partitions are read back from disk.
const SCALING_CACHE_BYTES: usize = 8 << 20;

/// The generated workload: wide and row-heavy so level-1 construction,
/// products, and (on disk) fetches all cross the parallel work gate.
/// `Fast` trims the rows, not the shape.
fn workload(scale: Scale) -> Relation {
    let rows: usize = match scale {
        Scale::Fast => 5_000,
        Scale::Full => 100_000,
    };
    let columns = vec![
        ColumnSpec::Categorical { distinct: 20 },
        ColumnSpec::Categorical { distinct: 35 },
        ColumnSpec::Categorical { distinct: 8 },
        ColumnSpec::Skewed {
            distinct: 60,
            exponent: 1.3,
        },
        ColumnSpec::Skewed {
            distinct: 25,
            exponent: 1.1,
        },
        ColumnSpec::NearUnique {
            distinct: (rows / 2) as u32,
        },
        ColumnSpec::Derived {
            of: vec![0, 1],
            distinct: 18,
        },
        ColumnSpec::Derived {
            of: vec![2, 3],
            distinct: 14,
        },
        ColumnSpec::NoisyDerived {
            of: vec![1, 4],
            distinct: 12,
            noise: 0.03,
        },
        ColumnSpec::Categorical { distinct: 50 },
        ColumnSpec::Categorical { distinct: 5 },
        ColumnSpec::Derived {
            of: vec![9, 10],
            distinct: 22,
        },
        ColumnSpec::NoisyDerived {
            of: vec![0, 9],
            distinct: 16,
            noise: 0.05,
        },
        ColumnSpec::Skewed {
            distinct: 40,
            exponent: 1.5,
        },
        ColumnSpec::Categorical { distinct: 12 },
    ];
    generate(&DatasetSpec {
        name: "scaling".into(),
        rows,
        columns,
        seed: 0x5ca1e,
    })
    .expect("scaling workload spec is valid")
}

/// Runs and prints the thread-scaling grid; returns the structured rows.
pub fn run(scale: Scale) -> Vec<ScalingRow> {
    let relation = workload(scale);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Thread scaling: {} rows x {} attributes, max LHS 3, workers {:?}, {} core(s)",
        relation.num_rows(),
        relation.num_attrs(),
        THREADS,
        cores
    );
    let widths = [8usize, 7, 6, 9, 9, 7, 6, 8, 9, 12, 12];
    println!(
        "{}",
        format_row(
            &widths,
            &[
                "Storage", "Threads", "N", "Time(s)", "Busy(s)", "Steals", "Parks", "Spin(s)",
                "Stall(s)", "Read(B)", "Write(B)"
            ]
            .map(String::from)
        )
    );

    let storages: [(&str, Storage); 2] = [
        ("memory", Storage::Memory),
        (
            "disk",
            Storage::Disk {
                cache_bytes: SCALING_CACHE_BYTES,
            },
        ),
    ];

    let mut rows = Vec::new();
    for (label, storage) in &storages {
        let mut reference: Option<(usize, usize, u64, u64)> = None;
        for &threads in &THREADS {
            // max_lhs bounds the 15-attribute lattice so a cell is seconds,
            // not hours; the bound is identical in every cell, so the
            // thread-invariance check still bites.
            let config = TaneConfig {
                storage: storage.clone(),
                threads,
                ..TaneConfig::default()
            }
            .with_max_lhs(3);
            let sw = Stopwatch::start();
            let result = discover_fds(&relation, &config).expect("scaling run failed");
            let secs = sw.elapsed_secs();
            let row = ScalingRow {
                storage: label.to_string(),
                threads,
                cores,
                n: result.fds.len(),
                secs,
                products: result.stats.products,
                worker_busy_secs: result.stats.worker_busy.as_secs_f64(),
                worker_steals: result.stats.worker_steals,
                park_count: result.stats.worker_parks,
                spin_secs: result.stats.worker_spin.as_secs_f64(),
                serial: threads == 1,
                fetch_stall_secs: result.stats.fetch_stall.as_secs_f64(),
                disk_bytes_read: result.stats.disk_bytes_read,
                disk_bytes_written: result.stats.disk_bytes_written,
            };
            let invariant = (
                row.n,
                row.products,
                row.disk_bytes_read,
                row.disk_bytes_written,
            );
            match reference {
                None => reference = Some(invariant),
                Some(r) => assert_eq!(
                    r, invariant,
                    "{label}/threads={threads} changed the output or its disk I/O"
                ),
            }
            println!(
                "{}",
                format_row(
                    &widths,
                    &[
                        row.storage.clone(),
                        row.threads.to_string(),
                        row.n.to_string(),
                        format!("{:.3}", row.secs),
                        format!("{:.3}", row.worker_busy_secs),
                        row.worker_steals.to_string(),
                        row.park_count.to_string(),
                        format!("{:.3}", row.spin_secs),
                        format!("{:.3}", row.fetch_stall_secs),
                        row.disk_bytes_read.to_string(),
                        row.disk_bytes_written.to_string(),
                    ]
                )
            );
            rows.push(row);
        }
    }
    println!();
    rows
}

/// `--assert-scaling`: the regression gate for the work-stealing runtime.
/// Fails (returns an error message) if the 4-thread wall time is not
/// strictly below the 2-thread wall time on the memory backend. The check
/// only means something when the machine can actually run 4 workers at
/// once, so on smaller machines it skips — loudly, so CI logs show the
/// gate did not bite.
pub fn assert_scaling(rows: &[ScalingRow]) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!(
            "assert-scaling: SKIPPED — only {cores} core(s) available; \
             the 4-vs-2-thread wall-time comparison needs at least 4"
        );
        return Ok(());
    }
    let wall = |threads: usize| {
        rows.iter()
            .find(|r| r.storage == "memory" && r.threads == threads)
            .map(|r| r.secs)
            .ok_or_else(|| format!("assert-scaling: no memory row at {threads} threads"))
    };
    let (t2, t4) = (wall(2)?, wall(4)?);
    if t4 >= t2 {
        return Err(format!(
            "assert-scaling: FAILED — memory backend wall time at 4 threads \
             ({t4:.3}s) is not below 2 threads ({t2:.3}s); the pool is not scaling"
        ));
    }
    eprintln!("assert-scaling: ok — memory 4-thread {t4:.3}s < 2-thread {t2:.3}s");
    Ok(())
}
