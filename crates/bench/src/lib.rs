#![forbid(unsafe_code)]
//! Benchmark harness regenerating the paper's tables and figures.
//!
//! Every experiment of Section 7 has a runner here; the `repro` binary
//! dispatches to them:
//!
//! | paper artifact | function | regenerates |
//! |---|---|---|
//! | Table 1  | [`table1::run`]  | TANE vs TANE/MEM vs FDEP wall-clock on the eight datasets |
//! | Table 2  | [`table2::run`]  | approximate discovery: N and time across ε |
//! | Table 3  | [`table3::run`]  | cross-paper comparison incl. LHS-size limits (cited numbers echoed verbatim with †) |
//! | Figure 3 | [`figure3::run`] | N_ε/N_0 and Time_ε/Time_0 series per dataset |
//! | Figure 4 | [`figure4::run`] | time vs rows on wbc×n for all three algorithms |
//! | —        | [`ablations::run`] | (beyond paper) pruning/optimization ablations |
//! | —        | [`scaling::run`] | (beyond paper) thread scaling of the parallel runtime |
//! | —        | [`topk::run`] | (beyond paper) bounded-heap ranked search vs the unbounded walk |
//!
//! Runners print aligned text tables to stdout and return structured
//! [`report`] values that `--json` serializes for EXPERIMENTS.md updates.

pub mod ablations;
pub mod figure3;
pub mod figure4;
pub mod report;
pub mod runners;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod topk;

/// Scale knob: `Fast` trims the most expensive cells (wbc×512, adult,
/// quadratic FDEP runs) so the whole suite finishes in well under a minute;
/// `Full` reproduces everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Trimmed sizes for CI and quick iteration.
    Fast,
    /// The paper's full experiment grid.
    Full,
}
