//! Shared pieces: seeded inputs, the CSV round trip, order statistics,
//! `/proc` readers and the in-memory span recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use tane_relation::csv::{read_csv_from, CsvOptions};
use tane_relation::Relation;
use tane_util::SplitMix64;

/// Metric name → value, filled by a workload and printed by `main`.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Ops whose answer was checked, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Deterministic-count drift or any other invariant the run broke.
    pub problems: Vec<String>,
    /// Sample count behind each timing, for the run record.
    pub samples: BTreeMap<&'static str, usize>,
    /// Free-form facts for the run record (sizes, counts, answers).
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records one checked op; `err` names what was wrong with its answer.
    pub fn check(&mut self, what: &str, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// `part / whole`, 0 when `whole` is 0 (a layer the op never called).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Million elements per second, from elements walked in `ms` milliseconds.
pub fn rate_melem(elements: u64, ms: f64) -> f64 {
    ratio(elements as f64 / 1e3, ms)
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]`; 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// User + system CPU time of this process so far, in seconds (clock ticks
/// of `/proc/self/stat`, 10 ms resolution).
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x7065_7266_6265_6e63);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.usize_below(i + 1));
    }
    order
}

/// The relation as CSV text (header + rows), rows in `order`.
pub fn csv_text(relation: &Relation, order: &[usize]) -> Vec<u8> {
    let mut out = String::new();
    let header: Vec<&str> = relation
        .schema()
        .names()
        .iter()
        .map(String::as_str)
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for &t in order {
        out.push_str(&relation.render_row(t).join(","));
        out.push('\n');
    }
    out.into_bytes()
}

/// Parses CSV text the way the CLI and the service's upload path do.
pub fn read_back(csv: &[u8]) -> Relation {
    read_csv_from(csv, &CsvOptions::default()).expect("generated CSV parses")
}

/// A stand-in dataset, its rows permuted by `seed`, written as CSV and read
/// back through `read_csv_from`. Returns the relation, the CSV text, and
/// the read time in ms.
pub fn seeded_input(relation: &Relation, seed: u64) -> (Relation, Vec<u8>, f64) {
    let order = permutation(relation.num_rows(), seed);
    let csv = csv_text(relation, &order);
    let t = Instant::now();
    let back = read_back(&csv);
    let read_ms = ms(t, Instant::now());
    (back, csv, read_ms)
}

/// One recorded span: a timed section of a named layer call.
pub struct Span {
    pub name: String,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub op: u64,
    /// Raw JSON the layer reported about this call (e.g. a response's
    /// `compute_secs` and `stats`).
    pub detail: Option<String>,
}

/// Spans kept in memory and written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id (for children).
    pub fn span(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start,
            end,
            parent,
            op,
            detail: None,
        });
        self.spans.len() - 1
    }

    /// The spans as a JSON array (times in µs since process start).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let detail = s.detail.as_deref().unwrap_or("null");
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"op\":{},\"detail\":{detail}}}{}",
                s.name,
                us(s.start),
                us(s.end),
                s.op,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

/// The cross-run half of the exact-repeat check. The first run of this
/// source tree records its counts; every later run must match them:
/// `any_seed` holds counts that do not depend on row order and must repeat
/// across seeds, `this_seed` the rest, which must repeat across runs of
/// the same seed.
pub fn repeat_check(args: &crate::Args, any_seed: &str, this_seed: &str, out: &mut Outcome) {
    let stem = format!("counts-{}-{}", args.workload, crate::source_digest());
    for (file, counts) in [
        (format!("{stem}.txt"), any_seed),
        (format!("{stem}-seed{}.txt", args.seed), this_seed),
    ] {
        let path = crate::work_dir().join(file);
        match std::fs::read_to_string(&path) {
            Ok(earlier) if earlier != counts => out.problems.push(format!(
                "deterministic counts differ from an earlier run of this code: {counts} vs {earlier}"
            )),
            Ok(_) => {}
            Err(_) => {
                if let Err(e) = std::fs::write(&path, counts) {
                    out.problems.push(format!("writing {}: {e}", path.display()));
                }
            }
        }
    }
    out.note("counts", format!("{any_seed} {this_seed}"));
}

/// Writes the span list next to the run's other scratch output.
pub fn write_trace(args: &crate::Args, tracer: &Tracer, out: &mut Outcome) {
    let path = crate::work_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::write(&path, tracer.to_json()) {
        Ok(()) => out.note("trace_file", path.display()),
        Err(e) => out
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn permutation_is_seeded() {
        let a = permutation(100, 7);
        assert_eq!(a, permutation(100, 7));
        assert_ne!(a, permutation(100, 8));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
    }
}
