#![forbid(unsafe_code)]
//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all                # every experiment at full scale
//! repro table1 --fast      # one experiment, trimmed sizes
//! repro figure4 --json out.json
//! ```

use std::process::ExitCode;
use tane_bench::{
    ablations, figure3, figure4, report::Report, scaling, table1, table2, table3, topk, Scale,
};

const USAGE: &str = "\
repro — regenerate the TANE paper's tables and figures on synthetic stand-ins

USAGE:
    repro <EXPERIMENT> [--fast] [--json FILE] [--assert-scaling]

EXPERIMENTS:
    table1      TANE vs TANE/MEM vs FDEP on the eight datasets
    table2      approximate discovery across epsilon
    table3      cross-paper comparison with LHS-size limits
    figure3     N and time relative to exact, as epsilon grows
    figure4     scale-up in the number of rows (wbc x n)
    ablations   effect of each pruning rule / optimization (beyond paper)
    scaling     thread scaling of the parallel search runtime (beyond paper)
    topk        bounded-heap ranked search vs the unbounded walk (beyond paper)
    all         everything above except scaling and topk

OPTIONS:
    --fast            trimmed dataset sizes (seconds instead of minutes)
    --json F          also write the structured results to F
    --assert-scaling  (scaling) fail unless 4-thread wall time beats
                      2-thread on the memory backend; skipped loudly on
                      machines with fewer than 4 cores
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--fast") {
        Scale::Fast
    } else {
        Scale::Full
    };
    let json_index = args.iter().position(|a| a == "--json");
    let json_path = json_index.and_then(|i| args.get(i + 1)).cloned();
    let experiment = match args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && json_index.is_none_or(|j| *i != j + 1))
        .map(|(_, a)| a.clone())
    {
        Some(e) => e,
        None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
    };

    let mut report = Report::default();
    match experiment.as_str() {
        "table1" => report.table1 = table1::run(scale),
        "table2" => report.table2 = table2::run(scale),
        "table3" => report.table3 = table3::run(scale),
        "figure3" => report.figure3 = figure3::run(scale),
        "figure4" => report.figure4 = figure4::run(scale),
        "ablations" => report.ablations = ablations::run(scale),
        "topk" => report.topk = topk::run(scale),
        "scaling" => {
            report.scaling = scaling::run(scale);
            if args.iter().any(|a| a == "--assert-scaling") {
                if let Err(msg) = scaling::assert_scaling(&report.scaling) {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "all" => {
            report.table1 = table1::run(scale);
            report.table2 = table2::run(scale);
            report.table3 = table3::run(scale);
            report.figure3 = figure3::run(scale);
            report.figure4 = figure4::run(scale);
            report.ablations = ablations::run(scale);
        }
        other => {
            eprintln!("unknown experiment `{other}`\n");
            print!("{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = json_path {
        let json = report.to_json().render_pretty();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("structured results written to {path}");
    }
    ExitCode::SUCCESS
}
