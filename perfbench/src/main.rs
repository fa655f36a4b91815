//! Benchmark of the TANE workspace: one workload per run, inputs drawn from
//! a seed, every answer checked, metrics printed as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rows-mem --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root: metric names and units come from
//! `BENCHMARK.json` there, and scratch output (spilled partitions, span
//! files) goes to `.perfbench/`. See `perfbench/README.md`.

mod batch;
mod common;
mod http;
mod replay;
mod serve;

use std::path::PathBuf;
use std::time::Instant;
use tane_util::Json;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["rows-mem", "wide-mem", "spill-disk", "serve-mix"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch directory of a run, inside the directory the benchmark runs in.
pub fn work_dir() -> PathBuf {
    std::env::current_dir()
        .expect("current directory is readable")
        .join(".perfbench")
}

/// `(name, unit)` of every metric of one kind, from `BENCHMARK.json`.
fn metric_list(spec: &Json, kind: &str) -> Result<Vec<(String, String)>, String> {
    spec.get(kind)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no {kind}"))?
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("malformed entry in {kind}"))
        })
        .collect()
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args().unwrap_or_else(|e| fail(&e));
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))
        .and_then(|t| Json::parse(&t).map_err(|e| format!("parsing BENCHMARK.json: {e}")))
        .unwrap_or_else(|e| fail(&e));
    let kind = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let wanted = metric_list(&spec, kind).unwrap_or_else(|e| fail(&e));

    // Spilled partitions go under the run's own directory: the segment
    // store creates its files in the system temporary directory.
    let tmp = work_dir().join("tmp");
    std::fs::create_dir_all(&tmp).unwrap_or_else(|e| fail(&format!("creating {tmp:?}: {e}")));
    std::env::set_var("TMPDIR", &tmp);

    let mut outcome = match args.workload.as_str() {
        "serve-mix" => serve::run(&args, process_start),
        _ => batch::run(&args, process_start),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    if outcome.attempted == 0 {
        outcome.problems.push("no op was attempted".into());
    }

    let mut metrics = Vec::new();
    for (name, unit) in &wanted {
        let value = match outcome.metrics.get(name.as_str()) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                outcome.problems.push(format!("metric {name} is {v}"));
                0.0
            }
            None if args.trace => 0.0,
            None => {
                outcome
                    .problems
                    .push(format!("metric {name} was not measured"));
                0.0
            }
        };
        metrics.push((name.as_str(), Json::Num(value), unit.as_str()));
    }
    println!("{}", record(&args, &outcome).render());
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                Json::Str(name.to_string()).render(),
                value.render(),
                Json::Str(unit.to_string()).render()
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(",")
    );
}

/// The run record printed before the result: machine, toolchain, source
/// identity, seed, sample counts, and anything the run found wrong.
fn record(args: &Args, outcome: &common::Outcome) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let command = |prog: &str, argv: &[&str]| {
        std::process::Command::new(prog)
            .args(argv)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .map_or(Json::Null, Json::Str)
    };
    let n = |v: usize| Json::Num(v as f64);
    Json::obj([(
        "record",
        Json::obj([
            ("workload", Json::Str(args.workload.clone())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("trace", Json::Bool(args.trace)),
            (
                "nproc",
                n(std::thread::available_parallelism().map_or(0, usize::from)),
            ),
            ("cpu_model", Json::Str(cpu_model)),
            ("rustc", command("rustc", &["-V"])),
            ("git_sha", git_sha(&command)),
            ("source_digest", Json::Str(source_digest().to_string())),
            (
                "samples",
                Json::Obj(
                    outcome
                        .samples
                        .iter()
                        .map(|(k, v)| (k.to_string(), n(*v)))
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Obj(
                    outcome
                        .notes
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
            (
                "problems",
                Json::str_array(outcome.problems.iter().cloned()),
            ),
        ]),
    )])
}

/// `HEAD` of the git checkout rooted here, if this directory is one (not
/// merely inside one).
fn git_sha(command: &dyn Fn(&str, &[&str]) -> Json) -> Json {
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top = match command("git", &["rev-parse", "--show-toplevel"]) {
        Json::Str(t) => std::path::Path::new(&t).canonicalize().ok(),
        _ => None,
    };
    if here.is_some() && here == top {
        command("git", &["rev-parse", "HEAD"])
    } else {
        Json::Null
    }
}

/// FNV-1a over the workspace sources (`Cargo.*` and `crates/`), so a record
/// names the code it measured even where no git metadata exists.
pub fn source_digest() -> &'static str {
    static DIGEST: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    DIGEST.get_or_init(digest_sources)
}

fn digest_sources() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}
