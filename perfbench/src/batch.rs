//! The batch workloads: one caller repeating one in-process discovery op.
//!
//! * `rows-mem` — wbc×64, memory store, 1 thread; each op computes the
//!   exact cover and then the ε = 0.05 approximate cover.
//! * `wide-mem` — hepatitis, memory store, 1 thread; the exact cover.
//! * `spill-disk` — wbc×64 exact cover on the segment store with an 8 MiB
//!   cache and 2 threads.

use crate::common::{self, ms, rate_melem, ratio, write_trace, Outcome, Tracer};
use crate::replay::{self, LayerCost};
use crate::Args;
use std::cell::RefCell;
use std::time::{Duration, Instant};
use tane_core::{
    discover_approx_fds, discover_fds, reverify_approx_fds_with, reverify_fds_with,
    ApproxTaneConfig, LevelEvent, NextLevelCandidate, ReverifyHooks, Storage, TaneConfig,
    TaneError, TaneResult, TaneStats,
};
use tane_relation::Relation;
use tane_util::{AttrSet, Fd};

/// Set-up sequences per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Warm-up ops at the end of each set-up sequence.
const WARMUP_OPS: usize = 1;
/// Timed ops a run makes even when set-up overran its time.
const MIN_OPS: usize = 3;
/// Megabytes are 10^6 bytes throughout.
const MB: f64 = 1e6;

struct Spec {
    input: fn() -> Relation,
    storage: Storage,
    threads: usize,
    /// The op's second, approximate search.
    epsilon: Option<f64>,
}

fn spec(workload: &str) -> Spec {
    let wbc64 = || tane_datasets::scaled_wbc(64);
    match workload {
        "rows-mem" => Spec {
            input: wbc64,
            storage: Storage::Memory,
            threads: 1,
            epsilon: Some(0.05),
        },
        "wide-mem" => Spec {
            input: tane_datasets::hepatitis,
            storage: Storage::Memory,
            threads: 1,
            epsilon: None,
        },
        "spill-disk" => Spec {
            input: wbc64,
            storage: Storage::Disk {
                cache_bytes: 8 << 20,
            },
            threads: 2,
            epsilon: None,
        },
        other => unreachable!("not a batch workload: {other}"),
    }
}

impl Spec {
    fn config(&self) -> TaneConfig {
        TaneConfig {
            storage: self.storage.clone(),
            ..TaneConfig::default()
        }
        .with_threads(self.threads)
    }
}

/// Counts that depend only on the relation's content, never on row order,
/// worker count or timing — they must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lattice {
    levels: usize,
    sets: usize,
    sets_max: usize,
    validity_tests: usize,
    keys: usize,
    fds: usize,
    products: usize,
    g3_exact: usize,
    g3_bounds: usize,
}

/// The segment store's I/O counts (worker-count invariant, DESIGN §13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Io {
    reads: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
    evictions: u64,
    pins: u64,
}

/// One search's answer and counts.
struct Search {
    fds: Vec<Fd>,
    keys: Vec<AttrSet>,
    lattice: Lattice,
    io: Io,
    stats: TaneStats,
}

impl Search {
    fn new(r: TaneResult) -> Search {
        let s = &r.stats;
        Search {
            lattice: Lattice {
                levels: s.levels,
                sets: s.sets_total,
                sets_max: s.sets_max_level,
                validity_tests: s.validity_tests,
                keys: s.keys_found,
                fds: r.fds.len(),
                products: s.products,
                g3_exact: s.g3_exact_computations,
                g3_bounds: s.g3_decided_by_bounds,
            },
            io: Io {
                reads: s.disk_reads,
                writes: s.disk_writes,
                bytes_read: s.disk_bytes_read,
                bytes_written: s.disk_bytes_written,
                evictions: s.store_evictions,
                pins: s.store_pins,
            },
            stats: r.stats,
            fds: r.fds,
            keys: r.keys,
        }
    }
}

/// One op: the exact search, then (rows-mem) the approximate one.
struct Op {
    searches: Vec<Search>,
    wall_ms: f64,
    cpu_s: f64,
}

fn run_op(relation: &Relation, spec: &Spec) -> Result<Op, TaneError> {
    let config = spec.config();
    let cpu = common::cpu_secs();
    let t = Instant::now();
    let mut searches = vec![Search::new(discover_fds(relation, &config)?)];
    if let Some(eps) = spec.epsilon {
        let approx = ApproxTaneConfig {
            base: config,
            ..ApproxTaneConfig::new(eps)
        };
        searches.push(Search::new(discover_approx_fds(relation, &approx)?));
    }
    Ok(Op {
        searches,
        wall_ms: ms(t, Instant::now()),
        cpu_s: common::cpu_secs() - cpu,
    })
}

/// Candidates of each generated level, in the search's order.
type Batches = Vec<Vec<NextLevelCandidate>>;

/// [`run_op`] with spans: one per search, one per `LevelEvent`, and the
/// candidate order captured through a supplier that supplies nothing.
fn run_traced(
    relation: &Relation,
    spec: &Spec,
    tracer: &mut Tracer,
    op_id: u64,
) -> Result<(Op, Vec<Batches>), TaneError> {
    let config = spec.config();
    let cpu = common::cpu_secs();
    let start = Instant::now();
    let root = tracer.span("op", start, start, None, op_id);
    let mut searches = Vec::new();
    let mut all_batches = Vec::new();
    let modes: Vec<Option<f64>> = std::iter::once(None)
        .chain(spec.epsilon.map(Some))
        .collect();
    for eps in modes {
        let pending = RefCell::new(Vec::new());
        let batches = RefCell::new(Batches::new());
        let level_ends = RefCell::new(Vec::new());
        let mut supply = |c: &NextLevelCandidate| {
            pending.borrow_mut().push(*c);
            None
        };
        let mut hooks = ReverifyHooks {
            supply: &mut supply,
        };
        let on_level = |ev: LevelEvent| {
            batches.borrow_mut().push(pending.take());
            level_ends.borrow_mut().push((ev.level, Instant::now()));
        };
        let t = Instant::now();
        let result = match eps {
            None => reverify_fds_with(relation, &config, &mut hooks, on_level)?,
            Some(e) => {
                let approx = ApproxTaneConfig {
                    base: config.clone(),
                    ..ApproxTaneConfig::new(e)
                };
                reverify_approx_fds_with(relation, &approx, &mut hooks, on_level)?
            }
        };
        let end = Instant::now();
        let name = if eps.is_some() {
            "search.approx"
        } else {
            "search.exact"
        };
        let sid = tracer.span(name, t, end, Some(root), op_id);
        let mut prev = t;
        for (level, at) in level_ends.into_inner() {
            tracer.span(format!("level.{level}"), prev, at, Some(sid), op_id);
            prev = at;
        }
        searches.push(Search::new(result));
        all_batches.push(batches.into_inner());
    }
    let end = Instant::now();
    tracer.spans[root].end = end;
    Ok((
        Op {
            searches,
            wall_ms: ms(start, end),
            cpu_s: common::cpu_secs() - cpu,
        },
        all_batches,
    ))
}

/// What every op must reproduce.
struct Reference {
    answers: Vec<(Vec<Fd>, Vec<AttrSet>)>,
    lattice: Vec<Lattice>,
    /// Set by the first op on this workload's own store.
    io: Option<Vec<Io>>,
}

impl Reference {
    /// rows-mem and wide-mem check against their own in-memory run;
    /// spill-disk against rows-mem's exact half on the same relation.
    fn compute(relation: &Relation, spec: &Spec) -> Reference {
        let memory = Spec {
            input: spec.input,
            storage: Storage::Memory,
            threads: 1,
            epsilon: spec.epsilon,
        };
        let op = run_op(relation, &memory).expect("memory search cannot fail");
        Reference {
            answers: op
                .searches
                .iter()
                .map(|s| (s.fds.clone(), s.keys.clone()))
                .collect(),
            lattice: op.searches.iter().map(|s| s.lattice).collect(),
            io: None,
        }
    }

    /// `None` when the op matches; otherwise what differed.
    fn check(&mut self, op: &Op) -> Option<String> {
        if op.searches.len() != self.answers.len() {
            return Some("wrong number of searches".into());
        }
        for (i, s) in op.searches.iter().enumerate() {
            let (fds, keys) = &self.answers[i];
            if &s.fds != fds || &s.keys != keys {
                return Some(format!(
                    "search {i}: cover/keys differ from the reference ({} vs {} fds)",
                    s.fds.len(),
                    fds.len()
                ));
            }
            if s.lattice != self.lattice[i] {
                return Some(format!(
                    "search {i}: lattice counts drifted: {:?} vs {:?}",
                    s.lattice, self.lattice[i]
                ));
            }
        }
        let io: Vec<Io> = op.searches.iter().map(|s| s.io).collect();
        match &self.io {
            None => self.io = Some(io),
            Some(expected) if *expected != io => {
                return Some(format!("store I/O counts drifted: {io:?} vs {expected:?}"))
            }
            Some(_) => {}
        }
        None
    }
}

/// Order-independent digest of the reference cover and keys, for the run
/// record.
fn digest(answers: &[(Vec<Fd>, Vec<AttrSet>)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for (fds, keys) in answers {
        for fd in fds {
            eat(fd.lhs.iter().fold(0u64, |m, a| m | 1 << a));
            eat(fd.rhs as u64);
        }
        for k in keys {
            eat(k.iter().fold(0u64, |m, a| m | 1 << a) ^ 1 << 63);
        }
        eat(u64::MAX);
    }
    format!("{h:016x}")
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let spec = spec(&args.workload);
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut csv_read_ms = Vec::new();
    let mut reference: Option<Reference> = None;
    let mut relation = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (rel, csv, read_ms) = common::seeded_input(&(spec.input)(), args.seed);
        csv_read_ms.push(read_ms);
        let mut excluded = Duration::ZERO;
        if reference.is_none() {
            let t = Instant::now();
            let r = Reference::compute(&rel, &spec);
            excluded = t.elapsed();
            out.note("rows", rel.num_rows());
            out.note("attrs", rel.num_attrs());
            out.note("csv_bytes", csv.len());
            out.note("reference_digest", digest(&r.answers));
            out.note(
                "reference_fds",
                format!(
                    "{:?}",
                    r.answers.iter().map(|a| a.0.len()).collect::<Vec<_>>()
                ),
            );
            out.note("reference_ms", excluded.as_secs_f64() * 1e3);
            reference = Some(r);
        }
        let reference = reference.as_mut().expect("computed above");
        for _ in 0..WARMUP_OPS {
            let err = match run_op(&rel, &spec) {
                Ok(op) => reference.check(&op),
                Err(e) => Some(e.to_string()),
            };
            out.check("warm-up op", err);
        }
        setup_s.push((t0.elapsed() - excluded).as_secs_f64());
        relation = Some(rel);
    }
    let relation = relation.expect("at least one set-up sequence");
    let mut reference = reference.expect("computed in set-up");
    // The segment store sizes partitions by `Vec` capacity, which depends
    // on the order products append classes, so its reads, evictions and
    // pins depend on row order; its writes do not.
    let io = reference.io.as_deref().unwrap_or_default();
    let writes: Vec<(u64, u64)> = io.iter().map(|i| (i.writes, i.bytes_written)).collect();
    common::repeat_check(
        args,
        &format!("{:?} writes {writes:?}", reference.lattice),
        &format!("{io:?}"),
        &mut out,
    );
    out.samples.insert("setup_s", setup_s.len());
    out.samples
        .insert("relation.csv_read_ms", csv_read_ms.len());

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    if args.trace {
        traced_loop(
            args,
            &spec,
            &relation,
            &mut reference,
            deadline,
            &mut out,
            process_start,
        );
        out.metrics
            .insert("relation.csv_read_ms", common::median(&csv_read_ms));
        return out;
    }

    let mut walls = Vec::new();
    let window = Instant::now();
    while walls.len() < MIN_OPS || Instant::now() < deadline {
        match run_op(&relation, &spec) {
            Ok(op) => {
                let err = reference.check(&op);
                out.check("op", err);
                walls.push(op.wall_ms);
            }
            Err(e) => out.check("op", Some(e.to_string())),
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let p50 = common::median(&walls);
    let per_s = walls.len() as f64 / window_s;
    let m = &mut out.metrics;
    m.insert("setup_s", common::median(&setup_s));
    m.insert("discover_p50_ms", p50);
    m.insert("discover_per_s", per_s);
    m.insert("peak_rss_mb", common::peak_rss_mb());
    // A batch workload has one request class — the caller's op — and one
    // caller builds no queue, so every class metric reports that op.
    m.insert("req_per_s", per_s);
    for name in [
        "hit_p50_ms",
        "fresh_p50_ms",
        "cold_p50_ms",
        "topk_p50_ms",
        "patch_p50_ms",
        "req_p95_ms",
    ] {
        m.insert(name, p50);
    }
    out.samples.insert("discover_p50_ms", walls.len());
    out.note("op_ms_min", format!("{:.3}", common::quantile(&walls, 0.0)));
    out.note("op_ms_max", format!("{:.3}", common::quantile(&walls, 1.0)));
    out
}

/// The traced run: untraced and traced ops alternate, and every traced op
/// is replayed layer by layer.
fn traced_loop(
    args: &Args,
    spec: &Spec,
    relation: &Relation,
    reference: &mut Reference,
    deadline: Instant,
    out: &mut Outcome,
    process_start: Instant,
) {
    let mut tracer = Tracer::new(process_start);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut costs: Vec<LayerCost> = Vec::new();
    let mut cpu_util = Vec::new();
    let mut last: Option<Op> = None;
    let mut op_id = 0u64;
    while traced.len() < MIN_OPS || Instant::now() < deadline {
        op_id += 1;
        match run_op(relation, spec) {
            Ok(op) => {
                out.check("op", reference.check(&op));
                untraced.push(op.wall_ms);
            }
            Err(e) => out.check("op", Some(e.to_string())),
        }
        op_id += 1;
        let (op, batches) = match run_traced(relation, spec, &mut tracer, op_id) {
            Ok(x) => x,
            Err(e) => {
                out.check("traced op", Some(e.to_string()));
                continue;
            }
        };
        out.check("traced op", reference.check(&op));
        let mut cost = LayerCost::default();
        for (i, b) in batches.iter().enumerate() {
            let eps = if i == 0 { None } else { spec.epsilon };
            let t = Instant::now();
            match replay::replay(relation, b, &spec.storage, eps) {
                Ok(c) => {
                    if c.products as usize != op.searches[i].lattice.products {
                        out.problems.push(format!(
                            "replay made {} products, the search {}",
                            c.products, op.searches[i].lattice.products
                        ));
                    }
                    cost.add(&c);
                }
                Err(e) => out.problems.push(format!("replay failed: {e}")),
            }
            tracer.span("replay", t, Instant::now(), None, op_id);
        }
        traced.push(op.wall_ms);
        cpu_util.push(op.cpu_s / (op.wall_ms / 1e3 * spec.threads as f64));
        costs.push(cost);
        last = Some(op);
    }
    let Some(op) = last else {
        out.problems.push("no traced op completed".into());
        return;
    };
    let med =
        |f: &dyn Fn(&LayerCost) -> f64| common::median(&costs.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&Search) -> f64| op.searches.iter().map(f).sum::<f64>();
    let max = |f: &dyn Fn(&Search) -> f64| op.searches.iter().map(f).fold(0.0, f64::max);
    let m = &mut out.metrics;
    m.insert("stripped.level1_ms", med(&|c| c.level1_ms));
    let product_ms = med(&|c| c.product_ms);
    let products = sum(&|s| s.lattice.products as f64);
    m.insert("product.calls", products);
    m.insert("product.ms", product_ms);
    m.insert(
        "product.us_per_call",
        med(&|c| ratio(c.product_ms * 1e3, c.products as f64)),
    );
    m.insert(
        "product.melem_per_s",
        med(&|c| rate_melem(c.product_elements, c.product_ms)),
    );
    let g3_exact = sum(&|s| s.lattice.g3_exact as f64);
    let g3_bounds = sum(&|s| s.lattice.g3_bounds as f64);
    let g3_us = med(&|c| ratio(c.g3_ms * 1e3, c.g3_calls as f64));
    m.insert("g3.exact_calls", g3_exact);
    m.insert("g3.bound_decided", g3_bounds);
    m.insert("g3.bound_ratio", ratio(g3_bounds, g3_bounds + g3_exact));
    m.insert("g3.us_per_call", g3_us);
    m.insert(
        "g3.melem_per_s",
        med(&|c| rate_melem(c.g3_elements, c.g3_ms)),
    );
    m.insert("store.put_ms", med(&|c| c.put_ms));
    m.insert("store.get_ms", med(&|c| c.get_ms));
    m.insert("store.seal_ms", med(&|c| c.seal_ms));
    m.insert("store.disk_reads", sum(&|s| s.io.reads as f64));
    m.insert("store.disk_writes", sum(&|s| s.io.writes as f64));
    m.insert("store.write_mb", sum(&|s| s.io.bytes_written as f64) / MB);
    m.insert("store.read_mb", sum(&|s| s.io.bytes_read as f64) / MB);
    m.insert("store.evictions", sum(&|s| s.io.evictions as f64));
    m.insert("store.pins", sum(&|s| s.io.pins as f64));
    m.insert(
        "store.peak_resident_mb",
        max(&|s| s.stats.peak_resident_bytes as f64) / MB,
    );
    m.insert("pool.grains", sum(&|s| s.stats.parallel_grains as f64));
    m.insert("pool.steals", sum(&|s| s.stats.worker_steals as f64));
    m.insert("pool.parks", sum(&|s| s.stats.worker_parks as f64));
    m.insert(
        "pool.busy_ms",
        sum(&|s| s.stats.worker_busy.as_secs_f64() * 1e3),
    );
    m.insert(
        "pool.spin_ms",
        sum(&|s| s.stats.worker_spin.as_secs_f64() * 1e3),
    );
    m.insert(
        "pool.fetch_stall_ms",
        sum(&|s| s.stats.fetch_stall.as_secs_f64() * 1e3),
    );
    m.insert("pool.cpu_util", common::median(&cpu_util));
    m.insert("lattice.levels", max(&|s| s.lattice.levels as f64));
    m.insert("lattice.sets", sum(&|s| s.lattice.sets as f64));
    m.insert("lattice.sets_max", max(&|s| s.lattice.sets_max as f64));
    m.insert(
        "lattice.validity_tests",
        sum(&|s| s.lattice.validity_tests as f64),
    );
    m.insert("lattice.keys", sum(&|s| s.lattice.keys as f64));
    m.insert("lattice.fds", sum(&|s| s.lattice.fds as f64));
    // Self time: the op's wall time less the replayed kernel and store
    // time, with exact g3 priced at the replay's per-call rate times the
    // search's own count. Multi-worker ops split that time over workers.
    let untraced_p50 = common::median(&untraced);
    let replayed = med(&|c| c.level1_ms + c.product_ms + c.store_ms()) + g3_exact * g3_us / 1e3;
    m.insert(
        "search.self_ms",
        untraced_p50 - replayed / spec.threads as f64,
    );
    m.insert(
        "trace.overhead_pct",
        (common::median(&traced) - untraced_p50) / untraced_p50 * 100.0,
    );
    out.samples.insert("traced_ops", traced.len());
    out.samples.insert("untraced_ops", untraced.len());
    out.note("spans", tracer.spans.len());
    write_trace(args, &tracer, out);
}
