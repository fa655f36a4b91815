#![forbid(unsafe_code)]
//! `tane` — discover functional and approximate dependencies from CSV files.
//!
//! ```text
//! tane discover data.csv                    # all minimal FDs
//! tane discover data.csv --epsilon 0.05     # approximate dependencies
//! tane discover data.csv --algorithm fdep   # use the FDEP baseline
//! tane dataset wbc --copies 4 -o wbc4.csv   # emit a synthetic dataset
//! tane profile data.csv                     # per-column profile
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tane_core::{
    discover_approx_fds, discover_approx_fds_with, discover_fds, discover_fds_with,
    discover_topk_fds_with, ApproxTaneConfig, LevelEvent, TaneConfig, TaneStats, TopKConfig,
    TopKEvent,
};
use tane_relation::csv::{read_csv, write_csv, CsvOptions};
use tane_relation::{NullSemantics, Relation};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("discover") => discover(&args[1..]),
        Some("patch") => patch(&args[1..]),
        Some("dataset") => dataset(&args[1..]),
        Some("profile") => profile(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("lint") => lint(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `tane help`)")),
    }
}

const USAGE: &str = "\
tane — discovery of functional and approximate dependencies (TANE, ICDE 1998)

USAGE:
    tane discover <FILE.csv> [OPTIONS]    discover minimal dependencies
    tane patch <FILE.csv> [OPTIONS]       apply a row delta, discover on the merged rows
    tane dataset <NAME> [OPTIONS]         generate a synthetic benchmark dataset
    tane profile <FILE.csv> [OPTIONS]     print a per-column profile
    tane serve [OPTIONS]                  run the HTTP discovery service
    tane lint [OPTIONS] [PATHS...]        run the workspace static analyzer
    tane help                             show this help

DISCOVER OPTIONS:
    --epsilon <E>        g3 error threshold in [0,1]; 0 = exact FDs (default)
    --top-k <K>          ranked mode (tane only): print the K best
                         non-redundant dependencies by g3 error, best first,
                         each line `FD<TAB>g3`; prunes and exits the lattice
                         walk early once no candidate can enter the top K.
                         Mutually exclusive with --epsilon
    --max-lhs <N>        only consider left-hand sides of at most N attributes
    --algorithm <A>      tane (default) | fdep | naive
    --disk <MB>          spill partitions to disk, keeping an MB-sized cache
    --stream             print each lattice level's dependencies as the
                         search completes it (tane only), instead of all
                         at the end
    --stats              print search statistics after the dependencies
    --no-header          the CSV has no header row (attributes become A0, A1, …)
    --delimiter <C>      field delimiter (default ,)
    --nulls <MODE>       equal (default: ? = ?) | distinct (every ? unique)
    --threads <N>        worker threads for the parallel search runtime
                         (default: available cores; 1 = the paper's serial
                         algorithm — results are identical either way)

PATCH OPTIONS:
    --append <FILE.csv>  rows to append (same schema as the base file; a
                         header row is skipped unless --no-header)
    --delete <I,J,...>   0-based row indices of the base file to delete
    --epsilon <E>        g3 error threshold in [0,1]; 0 = exact FDs (default)
    --threads <N>        worker threads (results identical at any count)
    --stats              print search statistics after the FDs
    --no-header / --delimiter / --nulls   as for discover
    Applies the delta to the base file's rows, then discovers on the
    merged rows: the output equals `tane discover` on a CSV of the
    surviving and appended rows. Prints the post-patch dependencies.

DATASET OPTIONS (NAME: lymphography | hepatitis | wbc | adult | chess):
    --copies <N>         concatenate N disjoint copies (the paper's ×n datasets)
    -o, --output <FILE>  write CSV here (default: stdout)

SERVE OPTIONS:
    --port <P>           TCP port on 127.0.0.1 (default 7171; 0 = ephemeral)
    --workers <N>        search worker threads (default: available cores)
    --queue <N>          queued-job capacity before 429 (default 64)
    --cache <N>          cached results kept; eviction drops the cheapest-
                         to-recompute entry first (default 256)
    --timeout <SECS>     per-request job timeout (default 120)
    --max-conns <N>      concurrent connections; excess shed with 503
                         (default 1024)
    --conn-requests <N>  keep-alive requests served per connection before
                         the server closes it (default 1000)
    --idle-timeout <SECS> disconnect idle keep-alive connections (default 10)
    --disk-quota-mb <MB> per-dataset cap on spilled partition bytes for
                         disk-backed searches; exceeding it answers 507
                         (default 4096)

LINT:
    Checks the workspace's own invariants: unsafe-audit, determinism,
    lock-discipline, lock-graph, atomics-audit, error-hygiene. Exits
    non-zero on violations.
    --baseline <FILE>        ratchet mode: only violations not in FILE fail
    --write-baseline <FILE>  record current violations as the baseline
    --symbols <FILE>         dump the workspace symbol graph as JSON
    Suppress a finding with `// lint:allow(<rule>): <reason>`; declare a
    lock nesting with `// lint:lock-order(outer -> inner): <reason>`.
";

struct Opts {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Minimal flag parser: `--name value` for known value-flags, bare `--name`
/// otherwise.
fn parse_opts(args: &[String], value_flags: &[&str]) -> Result<Opts, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--").or_else(|| a.strip_prefix('-')) {
            if value_flags.contains(&name) {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("flag --{name} needs a value"))?
                    .clone();
                flags.push((name.to_string(), Some(value)));
                i += 2;
            } else {
                flags.push((name.to_string(), None));
                i += 1;
            }
        } else {
            positional.push(a.clone());
            i += 1;
        }
    }
    Ok(Opts { positional, flags })
}

impl Opts {
    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }
}

fn csv_options(opts: &Opts) -> Result<CsvOptions, String> {
    let delimiter = match opts.value("delimiter") {
        Some(d) if d.len() == 1 => d.as_bytes()[0],
        Some(d) => return Err(format!("delimiter must be a single byte, got `{d}`")),
        None => b',',
    };
    let nulls = match opts.value("nulls") {
        Some("equal") | None => NullSemantics::NullsEqual,
        Some("distinct") => NullSemantics::NullsDistinct,
        Some(other) => return Err(format!("unknown nulls mode `{other}`")),
    };
    Ok(CsvOptions {
        delimiter,
        has_header: !opts.flag("no-header"),
        infer_types: true,
        nulls,
    })
}

fn load(path: &str, opts: &Opts) -> Result<Relation, String> {
    let options = csv_options(opts)?;
    read_csv(Path::new(path), &options).map_err(|e| format!("reading {path}: {e}"))
}

/// The `--flag` value `text`, in MB (MiB), as bytes: an error naming the
/// flag when it is not a count or the byte count overflows.
fn mebibytes(flag: &str, text: &str) -> Result<usize, String> {
    let mb: usize = text
        .parse()
        .map_err(|_| format!("bad --{flag} size `{text}`"))?;
    mb.checked_mul(1 << 20)
        .ok_or_else(|| format!("--{flag} {mb} is too large: the byte count overflows"))
}

/// `--stats`: one `# <name>: <value>` line per reported counter-table row.
fn print_stats(stats: &TaneStats, ranked: bool) {
    for c in stats.reported(ranked) {
        eprintln!("# {}: {}", c.name, c.value.to_json().render());
    }
}

fn discover(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(
        args,
        &[
            "epsilon",
            "top-k",
            "max-lhs",
            "algorithm",
            "disk",
            "delimiter",
            "nulls",
            "threads",
        ],
    )?;
    let path = opts.positional.first().ok_or("discover needs a CSV file")?;
    let relation = load(path, &opts)?;

    let epsilon: f64 = match opts.value("epsilon") {
        Some(e) => e.parse().map_err(|_| format!("bad epsilon `{e}`"))?,
        None => 0.0,
    };
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(format!("epsilon must be in [0,1], got {epsilon}"));
    }
    let top_k: Option<usize> = match opts.value("top-k") {
        Some(k) => Some(k.parse().map_err(|_| format!("bad top-k `{k}`"))?),
        None => None,
    };
    if top_k.is_some() && opts.value("epsilon").is_some() {
        return Err("--top-k and --epsilon are mutually exclusive".into());
    }
    let max_lhs: Option<usize> = match opts.value("max-lhs") {
        Some(m) => Some(m.parse().map_err(|_| format!("bad max-lhs `{m}`"))?),
        None => None,
    };
    let storage = match opts.value("disk") {
        Some(mb) => tane_core::Storage::Disk {
            cache_bytes: mebibytes("disk", mb)?,
        },
        None => tane_core::Storage::Memory,
    };
    let threads: usize = match opts.value("threads") {
        Some(t) => t.parse().map_err(|_| format!("bad thread count `{t}`"))?,
        // Parallelism never changes the output, so default to every core
        // and leave `--threads 1` for paper-faithful serial runs.
        None => std::thread::available_parallelism().map_or(1, usize::from),
    };
    if threads == 0 {
        return Err("need at least one thread".into());
    }
    let algorithm = opts.value("algorithm").unwrap_or("tane");

    let names = relation.schema().names().to_vec();
    let n_attrs = relation.num_attrs();
    match algorithm {
        "tane" => {
            let base = TaneConfig {
                storage,
                max_lhs,
                threads,
                ..TaneConfig::default()
            };
            let streaming = opts.flag("stream");
            let ranked_mode = top_k.is_some();
            // With --stream, dependencies print per level as the search
            // finishes each one — a level's minimal FDs are final before
            // the next level is even generated, so early lines are safe to
            // act on. Level markers go to stderr so stdout stays a plain
            // FD list either way. Ranked mode holds stdout for the final
            // heap (the ranking is only final at the end) and streams heap
            // improvements as stderr markers instead.
            let on_level = |ev: LevelEvent| {
                if !streaming {
                    return;
                }
                if !ranked_mode {
                    for fd in &ev.new_minimal_fds {
                        println!("{}", fd.display_with(&names));
                    }
                }
                eprintln!(
                    "# level {}: {} new, {:.3}s",
                    ev.level,
                    ev.new_minimal_fds.len(),
                    ev.level_time.as_secs_f64()
                );
            };
            let result = if let Some(k) = top_k {
                let config = TopKConfig { base, k };
                discover_topk_fds_with(&relation, &config, on_level, |ev: TopKEvent| {
                    if streaming {
                        eprintln!(
                            "# level {}: top-k heap improved ({} entries)",
                            ev.level,
                            ev.heap.len()
                        );
                    }
                })
            } else if epsilon > 0.0 {
                let config = ApproxTaneConfig {
                    base,
                    ..ApproxTaneConfig::new(epsilon)
                };
                discover_approx_fds_with(&relation, &config, on_level)
            } else {
                discover_fds_with(&relation, &base, on_level)
            }
            .map_err(|e| e.to_string())?;
            if let Some(heap) = &result.ranked {
                for entry in heap {
                    println!("{}\t{:.6}", entry.fd.display_with(&names), entry.g3());
                }
                eprintln!("# {} ranked dependencies (best first)", heap.len());
            } else {
                if !streaming {
                    for fd in &result.fds {
                        println!("{}", fd.display_with(&names));
                    }
                }
                eprintln!("# {} minimal dependencies", result.fds.len());
            }
            if opts.flag("stats") {
                print_stats(&result.stats, ranked_mode);
            }
        }
        "fdep" => {
            if epsilon > 0.0 {
                return Err("FDEP only discovers exact dependencies".into());
            }
            if top_k.is_some() {
                return Err("--top-k requires --algorithm tane".into());
            }
            if opts.flag("stream") {
                return Err("--stream requires --algorithm tane".into());
            }
            let (mut fds, stats) = tane_fdep::fdep_fds(&relation);
            if let Some(m) = max_lhs {
                fds.retain(|fd| fd.lhs.len() <= m);
            }
            for fd in &fds {
                println!("{}", fd.display_with(&names));
            }
            eprintln!("# {} minimal dependencies", fds.len());
            if opts.flag("stats") {
                eprintln!("# row pairs compared: {}", stats.pairs_compared);
                eprintln!("# distinct agree sets: {}", stats.distinct_agree_sets);
                eprintln!("# maximal invalid dependencies: {}", stats.max_invalid_deps);
                eprintln!("# time: {:.3}s", stats.elapsed.as_secs_f64());
            }
        }
        "naive" => {
            if epsilon > 0.0 {
                return Err("the naive baseline only discovers exact dependencies".into());
            }
            if top_k.is_some() {
                return Err("--top-k requires --algorithm tane".into());
            }
            if opts.flag("stream") {
                return Err("--stream requires --algorithm tane".into());
            }
            let m = max_lhs.unwrap_or(n_attrs);
            let (fds, stats) = tane_baselines::naive_levelwise_fds(&relation, m);
            for fd in &fds {
                println!("{}", fd.display_with(&names));
            }
            eprintln!("# {} minimal dependencies", fds.len());
            if opts.flag("stats") {
                eprintln!("# sets visited: {}", stats.sets_visited);
                eprintln!("# validity tests: {}", stats.validity_tests);
            }
        }
        other => return Err(format!("unknown algorithm `{other}`")),
    }
    Ok(())
}

/// `tane patch` — the service's PATCH path, end to end and offline: apply
/// the row delta to the base file's rows, discover on the merged snapshot,
/// print the post-patch dependencies.
fn patch(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(
        args,
        &[
            "append",
            "delete",
            "epsilon",
            "threads",
            "delimiter",
            "nulls",
        ],
    )?;
    let path = opts
        .positional
        .first()
        .ok_or("patch needs a base CSV file")?;
    let base = load(path, &opts)?;
    let nulls = csv_options(&opts)?.nulls;

    let epsilon: f64 = match opts.value("epsilon") {
        Some(e) => e.parse().map_err(|_| format!("bad epsilon `{e}`"))?,
        None => 0.0,
    };
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(format!("epsilon must be in [0,1], got {epsilon}"));
    }
    let threads: usize = match opts.value("threads") {
        Some(t) => t.parse().map_err(|_| format!("bad thread count `{t}`"))?,
        None => std::thread::available_parallelism().map_or(1, usize::from),
    };
    if threads == 0 {
        return Err("need at least one thread".into());
    }

    let mut delta = tane_relation::RowPatch::default();
    if let Some(list) = opts.value("delete") {
        for part in list.split(',').filter(|p| !p.is_empty()) {
            let i: usize = part
                .trim()
                .parse()
                .map_err(|_| format!("bad row index `{part}`"))?;
            delta.deletes.push(i);
        }
    }
    if let Some(file) = opts.value("append") {
        let rows = load(file, &opts)?;
        if rows.num_attrs() != base.num_attrs() {
            return Err(format!(
                "{file} has {} attributes, base has {}",
                rows.num_attrs(),
                base.num_attrs()
            ));
        }
        for t in 0..rows.num_rows() {
            let row: Option<Vec<_>> = (0..rows.num_attrs())
                .map(|a| rows.value(t, a).cloned())
                .collect();
            delta
                .appends
                .push(row.ok_or_else(|| format!("{file} carries no cell values"))?);
        }
    }
    if delta.is_empty() {
        return Err("nothing to do: give --append and/or --delete".into());
    }

    let engine = tane_delta::DatasetEngine::new(
        std::sync::Arc::new(base),
        nulls,
        tane_delta::EngineLimits::default(),
    )
    .map_err(|e| format!("base file: {e}"))?;
    let outcome = engine.patch(&delta).map_err(|e| e.to_string())?;
    let merged = engine.merged();
    let names = merged.schema().names().to_vec();
    let config = TaneConfig {
        threads,
        ..TaneConfig::default()
    };
    let result = if epsilon > 0.0 {
        let approx = ApproxTaneConfig {
            base: config,
            ..ApproxTaneConfig::new(epsilon)
        };
        discover_approx_fds(&merged, &approx)
    } else {
        discover_fds(&merged, &config)
    }
    .map_err(|e| e.to_string())?;

    for fd in &result.fds {
        println!("{}", fd.display_with(&names));
    }
    eprintln!(
        "# {} minimal dependencies after the patch ({} rows, generation {})",
        result.fds.len(),
        outcome.rows,
        outcome.generation
    );
    if opts.flag("stats") {
        eprintln!(
            "# appended/deleted: {}/{}",
            outcome.appended, outcome.deleted
        );
        print_stats(&result.stats, false);
    }
    Ok(())
}

fn dataset(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, &["copies", "output", "o", "delimiter"])?;
    let name = opts.positional.first().ok_or_else(|| {
        format!(
            "dataset needs a name (one of: {})",
            tane_datasets::DATASET_NAMES.join(", ")
        )
    })?;
    let mut relation = tane_datasets::by_name(name).ok_or_else(|| {
        format!(
            "unknown dataset `{name}` (one of: {})",
            tane_datasets::DATASET_NAMES.join(", ")
        )
    })?;
    if let Some(copies) = opts.value("copies") {
        let copies: usize = copies
            .parse()
            .map_err(|_| format!("bad copies `{copies}`"))?;
        if copies == 0 {
            return Err("copies must be at least 1".into());
        }
        relation = relation
            .concat_disjoint_copies(copies)
            .map_err(|e| e.to_string())?;
    }
    let delimiter = b',';
    match opts.value("output").or_else(|| opts.value("o")) {
        Some(path) => {
            let file = std::fs::File::create(PathBuf::from(path))
                .map_err(|e| format!("creating {path}: {e}"))?;
            write_csv(&relation, file, delimiter).map_err(|e| e.to_string())?;
            eprintln!(
                "# wrote {} rows x {} attributes to {path}",
                relation.num_rows(),
                relation.num_attrs()
            );
        }
        None => {
            let stdout = std::io::stdout();
            write_csv(&relation, stdout.lock(), delimiter).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `tane lint [--json] [--baseline FILE | --write-baseline FILE]
/// [--symbols FILE] [PATHS...]` — the workspace static analyzer.
fn lint(args: &[String]) -> Result<(), String> {
    let mut json = false;
    let mut baseline: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut symbols: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--baseline" | "--write-baseline" | "--symbols" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("`{a}` needs a file argument"))?
                    .clone();
                match a.as_str() {
                    "--baseline" => baseline = Some(v),
                    "--write-baseline" => write_baseline = Some(v),
                    _ => symbols = Some(v),
                }
            }
            _ if a.starts_with('-') => return Err(format!("unknown lint flag `{a}`")),
            _ => paths.push(a.clone()),
        }
    }
    if baseline.is_some() && write_baseline.is_some() {
        return Err("`--baseline` and `--write-baseline` are mutually exclusive".to_string());
    }
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    let root = tane_lint::find_root(&cwd)
        .ok_or_else(|| format!("no workspace Cargo.toml found above {}", cwd.display()))?;
    let analysis = if paths.is_empty() {
        tane_lint::analyze_workspace(&root)
    } else {
        tane_lint::analyze_explicit(&root, &paths)
    }
    .map_err(|e| format!("lint walk: {e}"))?;
    let report = &analysis.report;
    if let Some(p) = symbols {
        std::fs::write(&p, analysis.graph.render_json())
            .map_err(|e| format!("cannot write symbol graph to {p}: {e}"))?;
    }
    if let Some(p) = write_baseline {
        std::fs::write(&p, tane_lint::baseline::render(report))
            .map_err(|e| format!("cannot write baseline to {p}: {e}"))?;
        eprintln!("baselined {} violation(s) to {p}", report.diagnostics.len());
        return Ok(());
    }
    if let Some(p) = baseline {
        // An unreadable or corrupt baseline is an operational error
        // (exit 2), never an empty set — silently treating it as empty
        // would pass every baselined violation as "new" or, worse, the
        // reverse. Matches the standalone `tane-lint` binary.
        let parsed = std::fs::read_to_string(&p)
            .map_err(|e| format!("cannot read baseline {p}: {e}"))
            .and_then(|text| tane_lint::baseline::parse(&text));
        let set = match parsed {
            Ok(set) => set,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let ratchet = tane_lint::baseline::apply(report, &set);
        let is_new = |d: &tane_lint::diag::Diagnostic| ratchet.new.contains(d);
        if json {
            println!("{}", report.render_json_ratchet(&is_new));
        } else {
            print!("{}", report.render_human_ratchet(&is_new));
        }
        return if ratchet.new.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} new lint violation(s) over the baseline",
                ratchet.new.len()
            ))
        };
    }
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.diagnostics.is_empty() {
        Ok(())
    } else {
        Err(format!("{} lint violation(s)", report.diagnostics.len()))
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    use std::io::Write;
    let opts = parse_opts(
        args,
        &[
            "port",
            "workers",
            "queue",
            "cache",
            "timeout",
            "max-conns",
            "conn-requests",
            "idle-timeout",
            "disk-quota-mb",
        ],
    )?;
    if let Some(extra) = opts.positional.first() {
        return Err(format!(
            "serve takes no positional arguments, got `{extra}`"
        ));
    }
    let port: u16 = match opts.value("port") {
        Some(p) => p.parse().map_err(|_| format!("bad port `{p}`"))?,
        None => 7171,
    };
    let mut config = tane_server::ServerConfig::default();
    if let Some(w) = opts.value("workers") {
        config.workers = w.parse().map_err(|_| format!("bad worker count `{w}`"))?;
        if config.workers == 0 {
            return Err("need at least one worker".into());
        }
    }
    if let Some(q) = opts.value("queue") {
        config.queue_capacity = q.parse().map_err(|_| format!("bad queue capacity `{q}`"))?;
    }
    if let Some(c) = opts.value("cache") {
        config.cache_capacity = c.parse().map_err(|_| format!("bad cache capacity `{c}`"))?;
    }
    if let Some(t) = opts.value("timeout") {
        let secs: u64 = t.parse().map_err(|_| format!("bad timeout `{t}`"))?;
        config.job_timeout = std::time::Duration::from_secs(secs);
    }
    if let Some(c) = opts.value("max-conns") {
        config.max_connections = c.parse().map_err(|_| format!("bad connection cap `{c}`"))?;
        if config.max_connections == 0 {
            return Err("need at least one connection slot".into());
        }
    }
    if let Some(r) = opts.value("conn-requests") {
        config.max_requests_per_conn = r
            .parse()
            .map_err(|_| format!("bad per-connection request cap `{r}`"))?;
        if config.max_requests_per_conn == 0 {
            return Err("need at least one request per connection".into());
        }
    }
    if let Some(t) = opts.value("idle-timeout") {
        let secs: u64 = t.parse().map_err(|_| format!("bad idle timeout `{t}`"))?;
        if secs == 0 {
            return Err("idle timeout must be at least 1 second".into());
        }
        config.idle_timeout = std::time::Duration::from_secs(secs);
    }
    if let Some(q) = opts.value("disk-quota-mb") {
        let bytes = mebibytes("disk-quota-mb", q)?;
        if bytes == 0 {
            return Err("disk quota must be at least 1 MB".into());
        }
        config.disk_quota_bytes = bytes as u64;
    }

    tane_server::install_signal_handlers();
    let workers = config.workers;
    let server = tane_server::Server::start(&format!("127.0.0.1:{port}"), config)
        .map_err(|e| format!("starting server: {e}"))?;
    // The exact line below is what scripts (and the e2e test) parse to find
    // the bound port, so it goes to stdout and is flushed immediately.
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    eprintln!(
        "# {workers} workers; POST /discover, GET /metrics; stop with SIGTERM or POST /shutdown"
    );
    server.wait();
    eprintln!("# server stopped");
    Ok(())
}

fn profile(args: &[String]) -> Result<(), String> {
    let opts = parse_opts(args, &["delimiter", "nulls"])?;
    let path = opts.positional.first().ok_or("profile needs a CSV file")?;
    let relation = load(path, &opts)?;
    println!("rows: {}", relation.num_rows());
    println!("attributes: {}", relation.num_attrs());
    for a in 0..relation.num_attrs() {
        let pi = tane_partition::StrippedPartition::from_column(relation.column_codes(a));
        println!(
            "  {:<24} distinct={:<8} e(A)={:.4}{}",
            relation.schema().name(a),
            relation.cardinality(a),
            pi.error(),
            if pi.is_superkey() { "  [key]" } else { "" }
        );
    }
    Ok(())
}
