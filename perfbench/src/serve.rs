//! `serve-mix`: the discovery service in-process (`Server::start` on an
//! ephemeral loopback port, 2 workers), driven in a closed loop by 2 client
//! threads, each waiting for every reply before sending the next request.
//!
//! Request classes, all with `"threads":1`:
//! * `hit` — a cached ranked hepatitis discovery (`top_k` 10) on the
//!   client's keep-alive connection;
//! * `fresh` — the same hit on a new TCP connection per request;
//! * `cold` — an approximate discovery at a fresh ε, plain or streamed
//!   (every ε is new, so every request misses the cache), each client on
//!   its own hepatitis upload;
//! * `topk` — a ranked discovery at a fresh `top_k`, likewise;
//! * `patch` — a size-preserving `PATCH …/rows` on the uploaded wbc×64
//!   CSV, then the exact re-discovery that follows it.

use crate::common::{self, ms, rate_melem, ratio, write_trace, Outcome, Tracer};
use crate::http::{Conn, Reply};
use crate::replay::{self, LayerCost};
use crate::Args;
use std::cell::RefCell;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tane_core::{
    discover_approx_fds, discover_fds, discover_topk_fds, reverify_approx_fds_with,
    ApproxTaneConfig, LevelEvent, NextLevelCandidate, ReverifyHooks, Storage, TaneConfig,
    TopKConfig,
};
use tane_relation::Relation;
use tane_server::{Server, ServerConfig};
use tane_util::{Json, SplitMix64};

const WORKERS: usize = 2;
const SETUP_REPS: usize = 3;
/// Keep-alive hits at the end of each set-up sequence, plus one fresh hit.
const WARMUP_HITS: usize = 3;
/// The ε band of cold requests. Hepatitis has 155 rows, so any ε in
/// [6/155, 7/155) ≈ [0.0387, 0.0452) admits exactly the dependencies with
/// at most 6 removed rows: one cover for the whole band.
const EPS_LO: f64 = 0.040;
const EPS_HI: f64 = 0.045;
/// Fresh `top_k` values are drawn without replacement from this range,
/// separately per tenant (the cache key holds the dataset's content hash).
const K_LO: usize = 90;
const K_HI: usize = 130;
/// Rows deleted and appended by one size-preserving patch.
const PATCH_ROWS: usize = 16;
/// Each client's request cycle, shuffled per cycle by the seed. Each
/// client sends its cold and ranked requests to its own hepatitis upload
/// (two tenants); patches stay on client 0, so the order the server
/// applies them in is known. With these shares the slowest class (cold,
/// roughly an eighth of requests) holds `req_p95_ms` well inside it.
const CYCLES: [&[Class]; 2] = [
    &[
        Class::Cold,
        Class::ColdStream,
        Class::Patch,
        Class::Patch,
        Class::Patch,
        Class::TopK,
        Class::TopK,
        Class::TopK,
        Class::TopK,
        Class::Hit,
        Class::Fresh,
    ],
    &[
        Class::Cold,
        Class::ColdStream,
        Class::TopK,
        Class::TopK,
        Class::TopK,
        Class::TopK,
        Class::Hit,
        Class::Fresh,
    ],
];
/// The hepatitis upload of each client; both hold the same rows in
/// different seeded orders, so one cover answers both.
const TENANTS: [&str; 2] = ["hep-a", "hep-b"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Hit,
    Fresh,
    Cold,
    ColdStream,
    TopK,
    Patch,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Fresh => "fresh",
            Class::Cold => "cold",
            Class::ColdStream => "cold.stream",
            Class::TopK => "topk",
            Class::Patch => "patch",
        }
    }
}

/// One completed op of the closed loop.
struct Sample {
    class: Class,
    /// Latency of each HTTP request the op made (a patch makes two).
    requests: Vec<f64>,
    /// Connect (fresh) or first write to last byte.
    latency_ms: f64,
    start: Instant,
    /// The last reply's timing marks.
    first_byte: Instant,
    head_done: Instant,
    last_byte: Instant,
    /// Server-side search time, for requests that searched.
    compute_ms: Option<f64>,
    stats: Option<Json>,
    /// `PATCH` request latency (patch ops).
    patch_ms: Option<f64>,
    /// Raw JSON kept for the trace: compute time and stats.
    detail: Option<String>,
    err: Option<String>,
}

/// Everything the client threads share, read-only apart from the pools'
/// cursors.
struct Plan {
    addr: SocketAddr,
    deadline: Instant,
    trace: bool,
    /// The hit key's cold answer, with `cached` flipped to `true`.
    expected_hit: Vec<u8>,
    /// The in-process approximate cover of the band, rendered.
    cold_ref: Vec<String>,
    cold_counts: Mutex<Option<Vec<u64>>>,
    /// The in-process ranked pool at `K_HI`: (dependency, g3 rows).
    topk_ref: Vec<(String, usize)>,
    eps_pool: Vec<f64>,
    eps_next: AtomicUsize,
    k_pool: Vec<usize>,
    /// wbc upload rows, the source of appended rows.
    wbc_rows: Vec<String>,
    seed: u64,
    /// Nanoseconds client threads spent capturing trace detail.
    trace_ns: AtomicUsize,
}

/// What one client did in the window.
struct ClientRun {
    samples: Vec<Sample>,
    patches: Vec<PatchLog>,
    /// Samples taken in whole cycles, and when the last whole cycle ended:
    /// throughput is counted over whole cycles only, so where the window
    /// cuts a cycle does not change the mix it measures.
    whole: (usize, Instant),
}

/// A patch the server applied, and the cover the re-discovery after it
/// returned (none when that request failed), for the deferred check.
struct PatchLog {
    deletes: Vec<usize>,
    appends: Vec<String>,
    fds: Option<Vec<String>>,
}

/// The hit key: a small ranked answer, the shape of a dashboard's
/// repeated query.
const HIT_BODY: &str = r#"{"dataset":"hep-a","top_k":10,"threads":1}"#;
const HIT_K: usize = 10;

/// The exact discovery of the patched upload.
const UPLOAD_BODY: &str = r#"{"dataset":"wbc64","threads":1}"#;

fn post_json(conn: &mut Conn, path: &str, body: &str) -> std::io::Result<Reply> {
    conn.send("POST", path, "application/json", body.as_bytes())
}

fn require_ok(r: &Reply) -> Result<(), String> {
    if r.status / 100 == 2 {
        Ok(())
    } else {
        Err(format!(
            "status {}: {}",
            r.status,
            r.text().chars().take(200).collect::<String>()
        ))
    }
}

fn parse(r: &Reply) -> Result<Json, String> {
    Json::parse(r.text()).map_err(|e| format!("bad JSON: {e}"))
}

fn str_list(doc: &Json, key: &str) -> Option<Vec<String>> {
    doc.get(key)?
        .as_array()?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect()
}

/// A ranked answer as (dependency, g3 rows) pairs.
fn ranked_list(doc: &Json) -> Result<Vec<(String, usize)>, String> {
    Ok(doc
        .get("ranked")
        .and_then(Json::as_array)
        .ok_or("no ranked list")?
        .iter()
        .map(|e| {
            let fd = e.get("fd").and_then(Json::as_str).unwrap_or("").to_string();
            (
                fd,
                e.get("g3_rows")
                    .and_then(Json::as_usize)
                    .unwrap_or(usize::MAX),
            )
        })
        .collect())
}

fn render(fds: &[tane_util::Fd], relation: &Relation) -> Vec<String> {
    fds.iter()
        .map(|fd| fd.display_with(relation.schema().names()))
        .collect()
}

/// In-process answers the service must reproduce.
struct References {
    wbc_exact: Vec<String>,
    cold: Vec<String>,
    topk: Vec<(String, usize)>,
}

impl References {
    fn compute(hep: &Relation, wbc: &Relation) -> References {
        let exact = discover_fds(wbc, &TaneConfig::default()).expect("memory search");
        let eps = (EPS_LO + EPS_HI) / 2.0;
        let cold = discover_approx_fds(hep, &ApproxTaneConfig::new(eps)).expect("memory search");
        let topk = discover_topk_fds(hep, &TopKConfig::new(K_HI)).expect("memory search");
        let names = hep.schema().names();
        References {
            wbc_exact: render(&exact.fds, wbc),
            cold: render(&cold.fds, hep),
            topk: topk
                .ranked
                .expect("ranked mode returns the heap")
                .iter()
                .map(|e| (e.fd.display_with(names), e.g3_rows))
                .collect(),
        }
    }
}

/// One started server with its datasets uploaded and its cache seeded.
struct Instance {
    server: Server,
    conn: Conn,
    /// The body every hit must return: the hit key's cold answer with
    /// `cached` flipped to `true`.
    expected_hit: Vec<u8>,
    upload_ms: f64,
    first_discover_extra_ms: f64,
}

fn start_instance(
    hep_csvs: &[Vec<u8>; 2],
    wbc_csv: &[u8],
    refs: &References,
    out: &mut Outcome,
) -> Result<Instance, String> {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut conn = Conn::open(server.local_addr()).map_err(|e| e.to_string())?;
    let io = |e: std::io::Error| e.to_string();
    for (name, csv) in TENANTS.iter().zip(hep_csvs) {
        let up = conn
            .send("POST", &format!("/v1/datasets/{name}"), "text/csv", csv)
            .map_err(io)?;
        require_ok(&up)?;
    }
    let up = conn
        .send("POST", "/v1/datasets/wbc64", "text/csv", wbc_csv)
        .map_err(io)?;
    require_ok(&up)?;
    let upload_ms = up.latency_ms();

    // Seed the hit key: its cold answer is what every hit must repeat.
    let cold = post_json(&mut conn, "/v1/discover", HIT_BODY).map_err(io)?;
    let err = require_ok(&cold).and_then(|_| {
        if ranked_list(&parse(&cold)?)? != refs.topk[..HIT_K] {
            return Err("hit key's cold answer is not the reference ranking's prefix".into());
        }
        Ok(())
    });
    out.check("seed hit key", err.err());
    let expected_hit = String::from_utf8_lossy(&cold.body)
        .replace(r#""cached":false"#, r#""cached":true"#)
        .into_bytes();

    // The upload's first discovery also builds its incremental engine.
    let first = post_json(&mut conn, "/v1/discover", UPLOAD_BODY).map_err(io)?;
    let mut extra = 0.0;
    let err = require_ok(&first).and_then(|_| {
        let doc = parse(&first)?;
        if str_list(&doc, "fds").as_ref() != Some(&refs.wbc_exact) {
            return Err("first wbc discovery differs from the in-process cover".into());
        }
        let compute = doc
            .get("compute_secs")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        extra = first.latency_ms() - compute * 1e3;
        Ok(())
    });
    out.check("first upload discovery", err.err());
    Ok(Instance {
        server,
        conn,
        expected_hit,
        upload_ms,
        first_discover_extra_ms: extra,
    })
}

fn stop(instance: Instance) {
    drop(instance.conn);
    instance.server.shutdown();
    instance.server.wait();
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut csv_read_ms = Vec::new();
    let mut upload_ms = Vec::new();
    let mut first_extra_ms = Vec::new();
    let mut refs = None;
    let mut live = None;
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let hepatitis = tane_datasets::hepatitis();
        let (hep, hep_a, _) = common::seeded_input(&hepatitis, args.seed);
        let (_, hep_b, _) = common::seeded_input(&hepatitis, args.seed.wrapping_add(1));
        let hep_csvs = [hep_a, hep_b];
        let (wbc, wbc_csv, wbc_read_ms) =
            common::seeded_input(&tane_datasets::scaled_wbc(64), args.seed);
        csv_read_ms.push(wbc_read_ms);
        let mut excluded = Duration::ZERO;
        if refs.is_none() {
            let t = Instant::now();
            let r = References::compute(&hep, &wbc);
            excluded = t.elapsed();
            out.note("reference_ms", excluded.as_secs_f64() * 1e3);
            out.note("wbc_csv_bytes", wbc_csv.len());
            out.note(
                "reference_fds",
                format!("wbc exact {}, hep cold {}", r.wbc_exact.len(), r.cold.len()),
            );
            refs = Some(r);
        }
        let r = refs.as_ref().expect("computed above");
        let mut instance = match start_instance(&hep_csvs, &wbc_csv, r, &mut out) {
            Ok(i) => i,
            Err(e) => {
                out.check("set-up", Some(e));
                return out;
            }
        };
        for i in 0..=WARMUP_HITS {
            let reply = if i < WARMUP_HITS {
                post_json(&mut instance.conn, "/v1/discover", HIT_BODY)
            } else {
                Conn::open(instance.server.local_addr())
                    .and_then(|mut c| post_json(&mut c, "/v1/discover", HIT_BODY))
            };
            let err = match reply {
                Ok(r) if r.body == instance.expected_hit => None,
                Ok(r) => Some(format!("warm-up hit differs (status {})", r.status)),
                Err(e) => Some(e.to_string()),
            };
            out.check("warm-up hit", err);
        }
        setup_s.push((t0.elapsed() - excluded).as_secs_f64());
        upload_ms.push(instance.upload_ms);
        first_extra_ms.push(instance.first_discover_extra_ms);
        if rep + 1 < SETUP_REPS {
            stop(instance);
        } else {
            live = Some(instance);
            inputs = Some((hep, wbc_csv));
        }
    }
    let instance = live.expect("last set-up keeps its server");
    let (hep, wbc_csv) = inputs.expect("kept with the server");
    let refs = refs.expect("computed in set-up");
    out.samples.insert("setup_s", setup_s.len());

    let plan = Arc::new(make_plan(args, &instance, &refs, &wbc_csv));
    let metrics_before = server_metrics(plan.addr);
    let cpu = common::cpu_secs();
    let window = Instant::now();
    let handles: Vec<_> = (0..CYCLES.len())
        .map(|client| {
            let plan = Arc::clone(&plan);
            std::thread::spawn(move || client_loop(&plan, client))
        })
        .collect();
    let mut samples = Vec::new();
    let mut patches = Vec::new();
    let (mut req_per_s, mut searches_per_s) = (0.0, 0.0);
    for h in handles {
        match h.join() {
            Ok(run) => {
                let (n, end) = run.whole;
                let whole_s = end.duration_since(window).as_secs_f64();
                let done = run.samples[..n].iter().filter(|s| s.err.is_none());
                req_per_s += done.clone().map(|s| s.requests.len()).sum::<usize>() as f64 / whole_s;
                searches_per_s += done.filter(|s| s.compute_ms.is_some()).count() as f64 / whole_s;
                samples.extend(run.samples);
                patches.extend(run.patches);
            }
            Err(_) => out.problems.push("a client thread panicked".into()),
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    let cpu_s = common::cpu_secs() - cpu;
    let metrics_after = server_metrics(plan.addr);
    stop(instance);

    for s in &samples {
        out.check(s.class.name(), s.err.clone());
    }
    check_patches(&wbc_csv, &patches, &mut out);
    let cold_counts = plan
        .cold_counts
        .lock()
        .expect("clients joined")
        .clone()
        .unwrap_or_default();
    common::repeat_check(args, &format!("{cold_counts:?}"), "", &mut out);

    let of = |c: &[Class]| -> Vec<&Sample> {
        samples
            .iter()
            .filter(|s| c.contains(&s.class) && s.err.is_none())
            .collect()
    };
    let lat = |v: &[&Sample]| v.iter().map(|s| s.latency_ms).collect::<Vec<_>>();
    let hits = of(&[Class::Hit]);
    let fresh = of(&[Class::Fresh]);
    let cold = of(&[Class::Cold, Class::ColdStream]);
    let topk = of(&[Class::TopK]);
    let patch = of(&[Class::Patch]);
    let requests: Vec<f64> = samples
        .iter()
        .filter(|s| s.err.is_none())
        .flat_map(|s| s.requests.iter().copied())
        .collect();
    let compute = |v: &[&Sample]| v.iter().filter_map(|s| s.compute_ms).collect::<Vec<_>>();
    for (name, v) in [
        ("hit", &hits),
        ("fresh", &fresh),
        ("cold", &cold),
        ("topk", &topk),
        ("patch", &patch),
    ] {
        let l = lat(v);
        out.notes.push((
            name,
            format!(
                "n={} p25={:.2} p50={:.2} p75={:.2} ms",
                l.len(),
                common::quantile(&l, 0.25),
                common::median(&l),
                common::quantile(&l, 0.75)
            ),
        ));
    }
    for (name, n) in [
        ("hit_p50_ms", hits.len()),
        ("fresh_p50_ms", fresh.len()),
        ("cold_p50_ms", cold.len()),
        ("topk_p50_ms", topk.len()),
        ("patch_p50_ms", patch.len()),
        ("req_p95_ms", requests.len()),
        ("discover_p50_ms", cold.len()),
    ] {
        out.samples.insert(name, n);
    }

    if args.trace {
        let m = &mut out.metrics;
        m.insert("relation.csv_read_ms", common::median(&csv_read_ms));
        m.insert("registry.upload_ms", common::median(&upload_ms));
        m.insert(
            "server.first_discover_extra_ms",
            common::median(&first_extra_ms),
        );
        m.insert(
            "http.head_to_body_ms",
            common::median(
                &hits
                    .iter()
                    .map(|s| ms(s.head_done, s.last_byte))
                    .collect::<Vec<_>>(),
            ),
        );
        m.insert(
            "http.fresh_ttfb_ms",
            common::median(
                &fresh
                    .iter()
                    .map(|s| ms(s.start, s.first_byte))
                    .collect::<Vec<_>>(),
            ),
        );
        let plain_cold = of(&[Class::Cold]);
        m.insert(
            "queue.wait_ms",
            common::median(
                &plain_cold
                    .iter()
                    .map(|s| {
                        s.latency_ms - s.compute_ms.unwrap_or(0.0) - ms(s.head_done, s.last_byte)
                    })
                    .collect::<Vec<_>>(),
            ),
        );
        let delta = |path: &[&str]| {
            let get = |doc: &Option<Json>| {
                doc.as_ref()
                    .and_then(|d| path.iter().try_fold(d, |d, k| d.get(k)))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            get(&metrics_after) - get(&metrics_before)
        };
        m.insert("queue.rejected", delta(&["queue", "rejected"]));
        let (c_hits, c_miss, c_coal) = (
            delta(&["cache", "hits"]),
            delta(&["cache", "misses"]),
            delta(&["cache", "coalesced"]),
        );
        m.insert("cache.hits", c_hits);
        m.insert("cache.misses", c_miss);
        m.insert("cache.coalesced", c_coal);
        m.insert("cache.hit_ratio", ratio(c_hits, c_hits + c_miss + c_coal));
        m.insert("cache.evictions", delta(&["cache", "evictions"]));
        m.insert("cache.evicted_stale", delta(&["cache", "evicted_stale"]));
        let stat = |v: &[&Sample], key: &str| {
            common::median(
                &v.iter()
                    .filter_map(|s| s.stats.as_ref()?.get(key)?.as_f64())
                    .collect::<Vec<_>>(),
            )
        };
        m.insert("rank.bound_pruned", stat(&topk, "topk_bound_pruned"));
        m.insert("rank.compute_ms", common::median(&compute(&topk)));
        m.insert(
            "delta.patch_ms",
            common::median(&patch.iter().filter_map(|s| s.patch_ms).collect::<Vec<_>>()),
        );
        m.insert("delta.reverify_ms", common::median(&compute(&patch)));
        m.insert(
            "delta.supplied_ratio",
            common::median(
                &patch
                    .iter()
                    .filter_map(|s| {
                        let st = s.stats.as_ref()?;
                        let supplied = st.get("partitions_supplied")?.as_f64()?;
                        let products = st.get("products")?.as_f64()?;
                        Some(ratio(supplied, supplied + products))
                    })
                    .collect::<Vec<_>>(),
            ),
        );
        // The cold requests' own counts, as the service reported them.
        for (metric, key) in [
            ("lattice.levels", "levels"),
            ("lattice.sets", "sets_total"),
            ("lattice.sets_max", "sets_max_level"),
            ("lattice.validity_tests", "validity_tests"),
            ("lattice.keys", "keys_found"),
            ("product.calls", "products"),
            ("g3.exact_calls", "g3_exact_computations"),
            ("g3.bound_decided", "g3_decided_by_bounds"),
            ("store.disk_reads", "disk_reads"),
            ("store.disk_writes", "disk_writes"),
            ("store.evictions", "store_evictions"),
            ("store.pins", "store_pins"),
            ("pool.grains", "parallel_grains"),
            ("pool.steals", "worker_steals"),
            ("pool.parks", "worker_parks"),
        ] {
            m.insert(metric, stat(&cold, key));
        }
        m.insert("lattice.fds", refs.cold.len() as f64);
        m.insert("store.write_mb", stat(&cold, "disk_bytes_written") / 1e6);
        m.insert("store.read_mb", stat(&cold, "disk_bytes_read") / 1e6);
        m.insert("pool.busy_ms", stat(&cold, "worker_busy_secs") * 1e3);
        m.insert("pool.spin_ms", stat(&cold, "worker_spin_secs") * 1e3);
        m.insert("pool.fetch_stall_ms", stat(&cold, "fetch_stall_secs") * 1e3);
        m.insert("pool.cpu_util", cpu_s / (window_s * WORKERS as f64));
        let (g3_exact, g3_bounds) = (m["g3.exact_calls"], m["g3.bound_decided"]);
        m.insert("g3.bound_ratio", ratio(g3_bounds, g3_exact + g3_bounds));
        let cold_compute = common::median(&compute(&cold));
        replay_cold(&hep, cold_compute, &mut out);
        out.metrics.insert(
            "trace.overhead_pct",
            plan.trace_ns.load(Ordering::Relaxed) as f64 / 1e9 / window_s * 100.0,
        );
        let mut tracer = Tracer::new(process_start);
        for (op, s) in samples.iter().enumerate() {
            let op = op as u64;
            let root = tracer.span(
                format!("request.{}", s.class.name()),
                s.start,
                s.last_byte,
                None,
                op,
            );
            tracer.spans[root].detail = s.detail.clone();
            tracer.span("await_head", s.start, s.first_byte, Some(root), op);
            tracer.span("head", s.first_byte, s.head_done, Some(root), op);
            tracer.span("body", s.head_done, s.last_byte, Some(root), op);
        }
        out.note("spans", tracer.spans.len());
        write_trace(args, &tracer, &mut out);
        return out;
    }

    let m = &mut out.metrics;
    m.insert("setup_s", common::median(&setup_s));
    m.insert("discover_p50_ms", common::median(&compute(&cold)));
    m.insert("discover_per_s", searches_per_s);
    m.insert("peak_rss_mb", common::peak_rss_mb());
    m.insert("req_per_s", req_per_s);
    m.insert("hit_p50_ms", common::median(&lat(&hits)));
    m.insert("fresh_p50_ms", common::median(&lat(&fresh)));
    m.insert("cold_p50_ms", common::median(&lat(&cold)));
    m.insert("topk_p50_ms", common::median(&lat(&topk)));
    m.insert("patch_p50_ms", common::median(&lat(&patch)));
    m.insert("req_p95_ms", common::quantile(&requests, 0.95));
    out
}

fn make_plan(args: &Args, instance: &Instance, refs: &References, wbc_csv: &[u8]) -> Plan {
    let mut rng = SplitMix64::new(args.seed ^ 0x7365_7276_652d_6d69);
    let mut eps_pool = Vec::new();
    let mut seen = std::collections::HashSet::new();
    while eps_pool.len() < 1000 {
        let e = EPS_LO + (EPS_HI - EPS_LO) * rng.f64_unit();
        if seen.insert(e.to_bits()) {
            eps_pool.push(e);
        }
    }
    let mut k_pool: Vec<usize> = (K_LO..=K_HI).collect();
    for i in (1..k_pool.len()).rev() {
        k_pool.swap(i, rng.usize_below(i + 1));
    }
    let text = String::from_utf8_lossy(wbc_csv);
    Plan {
        addr: instance.server.local_addr(),
        deadline: Instant::now() + Duration::from_secs(args.seconds),
        trace: args.trace,
        expected_hit: instance.expected_hit.clone(),
        cold_ref: refs.cold.clone(),
        cold_counts: Mutex::new(None),
        topk_ref: refs.topk.clone(),
        eps_pool,
        eps_next: AtomicUsize::new(0),
        k_pool,
        wbc_rows: text.lines().skip(1).map(str::to_string).collect(),
        seed: args.seed,
        trace_ns: AtomicUsize::new(0),
    }
}

/// `GET /v1/metrics` on a connection of its own.
fn server_metrics(addr: SocketAddr) -> Option<Json> {
    let r = Conn::open(addr)
        .and_then(|mut c| c.send("GET", "/v1/metrics", "application/json", b""))
        .ok()?;
    Json::parse(r.text()).ok()
}

/// Hits and fresh connections go in bursts of back-to-back requests. A
/// burst settles the kernel's delayed-ACK state and the accept loop's poll
/// phase into the same rhythm whatever preceded it, so those medians
/// describe the service rather than the seed's request order.
const BURST: usize = 4;

/// One client of the closed loop: runs its shuffled cycle until the
/// deadline and returns its samples (and, for client 0, its patches).
/// Hits use a keep-alive connection of their own, as a dashboard polling
/// one query would; searches and patches share the other.
fn client_loop(plan: &Plan, client: usize) -> ClientRun {
    let mut rng = SplitMix64::new(plan.seed.wrapping_mul(31).wrapping_add(client as u64 + 1));
    let mut main: Option<Conn> = None;
    let mut hits: Option<Conn> = None;
    let mut samples = Vec::new();
    let mut patches = Vec::new();
    let mut cycle: Vec<Class> = Vec::new();
    let mut ranked = 0;
    let mut whole = (0, Instant::now());
    // Every class runs at least once, whatever the window.
    let mut first_cycle = true;
    while Instant::now() < plan.deadline || (first_cycle && !cycle.is_empty()) {
        if cycle.is_empty() {
            first_cycle = samples.is_empty();
            cycle = CYCLES[client].to_vec();
            for i in (1..cycle.len()).rev() {
                cycle.swap(i, rng.usize_below(i + 1));
            }
        }
        let class = cycle.pop().expect("refilled above");
        let (slot, reps) = match class {
            Class::Hit => (&mut hits, BURST),
            Class::Fresh => (&mut main, BURST),
            _ => (&mut main, 1),
        };
        for _ in 0..reps {
            let result = match class {
                Class::Fresh => fresh(plan),
                _ => match open(slot, plan.addr) {
                    Err(e) => Err(e),
                    Ok(c) => match class {
                        Class::Hit => hit(plan, c),
                        Class::Cold | Class::ColdStream => {
                            cold(plan, c, TENANTS[client], class == Class::ColdStream)
                        }
                        Class::TopK => {
                            ranked += 1;
                            topk(plan, c, TENANTS[client], ranked)
                        }
                        _ => patch(plan, c, &mut rng, &mut patches),
                    },
                },
            };
            match result {
                Ok((mut s, closes)) => {
                    s.class = class;
                    samples.push(s);
                    if closes && class != Class::Fresh {
                        *slot = None;
                    }
                }
                Err(e) => {
                    samples.push(failed(class, e));
                    *slot = None;
                }
            }
        }
        if cycle.is_empty() {
            whole = (samples.len(), Instant::now());
        }
    }
    ClientRun {
        samples,
        patches,
        whole,
    }
}

/// Keep-alive connections idle this long are dropped before reuse, below
/// the server's 10 s idle timeout, as HTTP client pools do.
const CLIENT_IDLE: Duration = Duration::from_secs(5);

/// The connection in `slot`, opened if there is none or it sat idle.
fn open(slot: &mut Option<Conn>, addr: SocketAddr) -> Result<&mut Conn, String> {
    if slot
        .as_ref()
        .is_some_and(|c| c.idle_since.elapsed() > CLIENT_IDLE)
    {
        *slot = None;
    }
    if slot.is_none() {
        *slot = Some(Conn::open(addr).map_err(|e| e.to_string())?);
    }
    Ok(slot.as_mut().expect("opened above"))
}

fn failed(class: Class, err: String) -> Sample {
    let now = Instant::now();
    Sample {
        class,
        requests: Vec::new(),
        latency_ms: 0.0,
        start: now,
        first_byte: now,
        head_done: now,
        last_byte: now,
        compute_ms: None,
        stats: None,
        patch_ms: None,
        detail: None,
        err: Some(err),
    }
}

/// A sample of one reply, its answer judged by `err`.
fn sample(
    plan: &Plan,
    r: &Reply,
    start: Instant,
    doc: Option<&Json>,
    err: Option<String>,
) -> Sample {
    let compute_ms = doc
        .and_then(|d| d.get("compute_secs")?.as_f64())
        .map(|s| s * 1e3);
    let stats = doc.and_then(|d| d.get("stats")).cloned();
    let mut detail = None;
    if plan.trace && compute_ms.is_some() {
        let t = Instant::now();
        detail = Some(format!(
            r#"{{"compute_secs":{},"stats":{}}}"#,
            compute_ms.unwrap_or(0.0) / 1e3,
            stats.as_ref().map_or("null".to_string(), Json::render)
        ));
        plan.trace_ns
            .fetch_add(t.elapsed().as_nanos() as usize, Ordering::Relaxed);
    }
    Sample {
        class: Class::Hit,
        requests: vec![r.latency_ms()],
        latency_ms: ms(start, r.last_byte),
        start,
        first_byte: r.first_byte,
        head_done: r.head_done,
        last_byte: r.last_byte,
        compute_ms,
        stats,
        patch_ms: None,
        detail,
        err,
    }
}

type Step = Result<(Sample, bool), String>;

fn hit(plan: &Plan, conn: &mut Conn) -> Step {
    let r = post_json(conn, "/v1/discover", HIT_BODY).map_err(|e| e.to_string())?;
    let err = (r.body != plan.expected_hit)
        .then(|| format!("hit differs from its cold answer (status {})", r.status));
    Ok((sample(plan, &r, r.sent, None, err), r.closes))
}

fn fresh(plan: &Plan) -> Step {
    let start = Instant::now();
    let mut conn = Conn::open(plan.addr).map_err(|e| e.to_string())?;
    let r = post_json(&mut conn, "/v1/discover", HIT_BODY).map_err(|e| e.to_string())?;
    let err = (r.body != plan.expected_hit).then(|| {
        format!(
            "fresh hit differs from its cold answer (status {})",
            r.status
        )
    });
    let mut s = sample(plan, &r, start, None, err);
    s.requests = vec![ms(start, r.last_byte)];
    Ok((s, false))
}

fn cold(plan: &Plan, conn: &mut Conn, dataset: &str, stream: bool) -> Step {
    let i = plan.eps_next.fetch_add(1, Ordering::Relaxed);
    let eps = plan.eps_pool[i % plan.eps_pool.len()];
    let body = format!(
        r#"{{"dataset":"{dataset}","epsilon":{eps},"threads":1{}}}"#,
        if stream { r#","stream":true"# } else { "" }
    );
    let r = post_json(conn, "/v1/discover", &body).map_err(|e| e.to_string())?;
    let mut doc = None;
    let err = require_ok(&r).and_then(|_| {
        let (fds, summary) = if stream {
            let mut fds = Vec::new();
            let mut summary = None;
            for line in r.text().lines().filter(|l| !l.is_empty()) {
                let obj = Json::parse(line).map_err(|e| format!("bad stream line: {e}"))?;
                if let Some(s) = obj.get("summary") {
                    summary = Some(s.clone());
                } else if obj.get("event").is_none() {
                    fds.extend(str_list(&obj, "fds").ok_or("level line without fds")?);
                }
            }
            fds.sort();
            (fds, summary.ok_or("stream ended without a summary")?)
        } else {
            let d = parse(&r)?;
            if d.get("cached").and_then(Json::as_bool) != Some(false) {
                return Err("a fresh ε was answered from the cache".into());
            }
            (str_list(&d, "fds").ok_or("no fds")?, d)
        };
        let mut expected = plan.cold_ref.clone();
        if stream {
            expected.sort();
        }
        if fds != expected {
            return Err(format!(
                "ε={eps}: cover differs from the in-process reference ({} vs {} fds)",
                fds.len(),
                expected.len()
            ));
        }
        // The upload's incremental engine may supply some partitions, so
        // products alone vary; products + supplied is the lattice's size.
        let stat = |k: &str| {
            summary
                .get("stats")
                .and_then(|s| s.get(k))
                .and_then(Json::as_f64)
                .map_or(u64::MAX, |v| v as u64)
        };
        let counts = vec![
            stat("levels"),
            stat("sets_total"),
            stat("validity_tests"),
            stat("products").wrapping_add(stat("partitions_supplied")),
            stat("g3_exact_computations"),
            stat("g3_decided_by_bounds"),
        ];
        let mut seen = plan
            .cold_counts
            .lock()
            .expect("no client panics holding it");
        match seen.as_ref() {
            None => *seen = Some(counts),
            Some(c) if *c != counts => {
                return Err(format!("search counts drifted: {counts:?} vs {c:?}"))
            }
            Some(_) => {}
        }
        doc = Some(summary);
        Ok(())
    });
    Ok((sample(plan, &r, r.sent, doc.as_ref(), err.err()), r.closes))
}

fn topk(plan: &Plan, conn: &mut Conn, dataset: &str, i: usize) -> Step {
    let k = plan.k_pool[i % plan.k_pool.len()];
    let body = format!(r#"{{"dataset":"{dataset}","top_k":{k},"threads":1}}"#);
    let r = post_json(conn, "/v1/discover", &body).map_err(|e| e.to_string())?;
    let mut doc = None;
    let err = require_ok(&r).and_then(|_| {
        let d = parse(&r)?;
        if d.get("cached").and_then(Json::as_bool) != Some(false) {
            return Err("a fresh k was answered from the cache".into());
        }
        if ranked_list(&d)? != plan.topk_ref[..k.min(plan.topk_ref.len())] {
            return Err(format!("top_k={k}: ranking is not the reference prefix"));
        }
        doc = Some(d);
        Ok(())
    });
    Ok((sample(plan, &r, r.sent, doc.as_ref(), err.err()), r.closes))
}

fn patch(plan: &Plan, conn: &mut Conn, rng: &mut SplitMix64, log: &mut Vec<PatchLog>) -> Step {
    let n = plan.wbc_rows.len();
    let mut deletes = Vec::new();
    while deletes.len() < PATCH_ROWS {
        let i = rng.usize_below(n);
        if !deletes.contains(&i) {
            deletes.push(i);
        }
    }
    let appends: Vec<String> = (0..PATCH_ROWS)
        .map(|_| plan.wbc_rows[rng.usize_below(n)].clone())
        .collect();
    let rows: Vec<String> = appends
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.split(',').map(|c| format!("\"{c}\"")).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    let body = format!(
        r#"{{"delete":[{}],"append":[{}]}}"#,
        deletes
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(","),
        rows.join(",")
    );
    let start = Instant::now();
    let p = conn
        .send(
            "PATCH",
            "/v1/datasets/wbc64/rows",
            "application/json",
            body.as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    require_ok(&p)?;
    let rows_after = parse(&p)?.get("rows").and_then(Json::as_usize);
    if rows_after != Some(n) {
        return Err(format!("patch changed the row count to {rows_after:?}"));
    }
    log.push(PatchLog {
        deletes,
        appends,
        fds: None,
    });
    let r = post_json(conn, "/v1/discover", UPLOAD_BODY).map_err(|e| e.to_string())?;
    let mut doc = None;
    let err = require_ok(&r).and_then(|_| {
        let d = parse(&r)?;
        let applied = log.last_mut().expect("pushed above");
        applied.fds = Some(str_list(&d, "fds").ok_or("no fds")?);
        doc = Some(d);
        Ok(())
    });
    let mut s = sample(plan, &r, start, doc.as_ref(), err.err());
    s.requests = vec![p.latency_ms(), r.latency_ms()];
    s.patch_ms = Some(p.latency_ms());
    Ok((s, r.closes || p.closes))
}

/// Replays the patches on a copy of the upload and checks each
/// re-discovery against a cold in-process discovery of the same rows.
fn check_patches(wbc_csv: &[u8], patches: &[PatchLog], out: &mut Outcome) {
    let text = String::from_utf8_lossy(wbc_csv);
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("").to_string();
    let mut rows: Vec<String> = lines.map(str::to_string).collect();
    let config = TaneConfig::default().with_threads(WORKERS);
    for p in patches {
        let mut doomed = vec![false; rows.len()];
        for &d in &p.deletes {
            doomed[d] = true;
        }
        let mut i = 0;
        rows.retain(|_| {
            i += 1;
            !doomed[i - 1]
        });
        rows.extend(p.appends.iter().cloned());
        let Some(fds) = &p.fds else {
            continue;
        };
        let mut csv = header.clone();
        csv.push('\n');
        for r in &rows {
            csv.push_str(r);
            csv.push('\n');
        }
        let relation = common::read_back(csv.as_bytes());
        let err = match discover_fds(&relation, &config) {
            Ok(res) if render(&res.fds, &relation) == *fds => None,
            Ok(res) => Some(format!(
                "post-patch cover differs from a cold discovery ({} vs {} fds)",
                fds.len(),
                res.fds.len()
            )),
            Err(e) => Some(e.to_string()),
        };
        out.check("patch answer", err);
    }
}

/// Per-layer rates on the cold requests' relation: the in-process search
/// at the band's ε, replayed outside-in (see `replay`).
fn replay_cold(hep: &Relation, cold_compute_ms: f64, out: &mut Outcome) {
    let eps = (EPS_LO + EPS_HI) / 2.0;
    let pending = RefCell::new(Vec::new());
    let batches = RefCell::new(Vec::new());
    let mut supply = |c: &NextLevelCandidate| {
        pending.borrow_mut().push(*c);
        None
    };
    let mut hooks = ReverifyHooks {
        supply: &mut supply,
    };
    let res = reverify_approx_fds_with(
        hep,
        &ApproxTaneConfig::new(eps),
        &mut hooks,
        |_: LevelEvent| batches.borrow_mut().push(pending.take()),
    );
    let exact_calls = match res {
        Ok(r) => r.stats.g3_exact_computations as f64,
        Err(e) => {
            out.problems.push(format!("replay search failed: {e}"));
            return;
        }
    };
    let cost: LayerCost =
        match replay::replay(hep, &batches.into_inner(), &Storage::Memory, Some(eps)) {
            Ok(c) => c,
            Err(e) => {
                out.problems.push(format!("replay failed: {e}"));
                return;
            }
        };
    let g3_us = ratio(cost.g3_ms * 1e3, cost.g3_calls as f64);
    let m = &mut out.metrics;
    m.insert("stripped.level1_ms", cost.level1_ms);
    m.insert("product.ms", cost.product_ms);
    m.insert(
        "product.us_per_call",
        ratio(cost.product_ms * 1e3, cost.products as f64),
    );
    m.insert(
        "product.melem_per_s",
        rate_melem(cost.product_elements, cost.product_ms),
    );
    m.insert("g3.us_per_call", g3_us);
    m.insert("g3.melem_per_s", rate_melem(cost.g3_elements, cost.g3_ms));
    m.insert("store.put_ms", cost.put_ms);
    m.insert("store.get_ms", cost.get_ms);
    m.insert("store.seal_ms", cost.seal_ms);
    let replayed = cost.level1_ms + cost.product_ms + cost.store_ms() + exact_calls * g3_us / 1e3;
    m.insert("search.self_ms", cold_compute_ms - replayed);
}
