//! The discovery service: accept loop, worker pool, and request routing.
//!
//! Architecture (one box per thread kind):
//!
//! ```text
//! accept loop ──► handler thread per connection ──► bounded JobQueue ──► worker pool
//!      │                │  ▲                                               │
//!      │                ▼  │ single-flight wait / level events             ▼
//!   shutdown         ResultCache ◄──────────────────── publish ── tane_core::search
//! ```
//!
//! Handlers never compute: they resolve the dataset, claim or join a cache
//! flight, and wait. Workers own the searches. One handler thread serves a
//! connection for its whole keep-alive lifetime (up to
//! `max_requests_per_conn` requests, closing after `idle_timeout` of
//! silence), and the thread-per-connection spawn is bounded by a
//! connection semaphore — connections over `max_connections` are shed
//! with 503 + `Retry-After`. Overload is likewise shed at the queue
//! (HTTP 429), never absorbed into memory. Shutdown (SIGTERM, SIGINT, or
//! `POST /shutdown`) stops the accept loop, answers each persistent
//! connection's in-flight request with `connection: close`, lets workers
//! finish the jobs they hold, and fails the undrained backlog with 503.
//!
//! ## API versions
//!
//! Every endpoint lives under `/v1/...`; the original unversioned paths
//! remain byte-for-byte compatible aliases that additionally carry
//! `Deprecation: true` and `Sunset` headers (`LEGACY_SUNSET`; removal
//! policy in README). Routing normalizes the path once
//! (`split_version`) and dispatches both trees through one table; only
//! error *shapes* differ — `/v1` answers errors with the
//! `{"error":{"code","message"}}` envelope, legacy paths keep the flat
//! `{"error": "..."}` body existing clients parse. Failures that happen
//! *before* routing (framing errors, oversized heads, the connection cap)
//! have no version to speak, so they stay in the legacy shape.
//!
//! ## Streaming
//!
//! `POST /v1/discover` with `"stream": true` answers with an NDJSON body
//! in chunked transfer encoding: one object per completed lattice level as
//! the search reaches it, then a `summary` trailer. Ranked requests
//! (`"top_k": K`) interleave `{"event":"topk",...}` heap snapshots after
//! the level lines they improved on; the level lines themselves stay
//! untagged and byte-identical to the exact/approximate stream (grammar in
//! README). The worker publishes
//! levels through a **bounded** channel (`STREAM_EVENT_DEPTH`) — a slow
//! client stalls the search rather than buffering it, and a vanished
//! client fails the send, which simply stops the feed while the search
//! runs on to land in the cache. Cache hits and single-flight followers
//! replay the recorded level lines, byte-identical to the live stream.

use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cache::{CacheKey, CachedResult, JobResult, Lookup, ResultCache};
use crate::http::{is_timeout, read_request, ChunkedBody, Request, RequestError, Response};
use crate::metrics::Metrics;
use crate::queue::{JobQueue, PushError};
use crate::registry::{DatasetRegistry, RemoveOutcome};
use tane_core::{
    discover_approx_fds_with, discover_fds_with, discover_topk_fds_with, ApproxTaneConfig,
    LevelEvent, RankedFd, Storage, TaneConfig, TaneResult, TopKConfig, TopKEvent,
};
use tane_delta::PatchError;
use tane_relation::csv::{read_csv_from, CsvOptions};
use tane_relation::{Relation, RowPatch, Value};
use tane_util::Json;

/// Set by the SIGTERM/SIGINT handler; polled by every accept loop.
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Capacity of the worker→handler level-event channel of one streaming
/// request. Small on purpose: the channel is a hand-off, not a buffer — a
/// client that cannot keep up blocks the worker's `send`, which is the
/// backpressure that keeps a slow reader from ballooning server memory.
const STREAM_EVENT_DEPTH: usize = 8;

/// Installs process signal handlers that request a graceful shutdown.
/// Idempotent; a no-op off Unix. Called by `tane serve`, not by tests.
#[allow(unsafe_code)] // audited: POSIX signal(2) registration below
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
        }
        extern "C" {
            /// POSIX `signal(2)`, linked from libc via std. The handler only
            /// performs an atomic store, which is async-signal-safe.
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is the POSIX signal(2) the platform libc
        // already links; passing a valid signal number and the address of
        // an `extern "C" fn(i32)` matches its contract. The handler body
        // is a single atomic store — async-signal-safe, touching no
        // allocator, lock, or libc state.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }
}

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads running searches. `0` is allowed (nothing ever
    /// drains — useful for overload tests).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before 429.
    pub queue_capacity: usize,
    /// Maximum request body size (CSV uploads, discover bodies).
    pub max_body_bytes: usize,
    /// Socket write timeout, and the read timeout while *inside* a request
    /// (a client that stalls mid-request is disconnected after this).
    pub read_timeout: Duration,
    /// How long a handler waits for its job before answering 504.
    pub job_timeout: Duration,
    /// Finished results kept in the cache.
    pub cache_capacity: usize,
    /// Concurrent connections served; excess connections are shed with
    /// 503 + `Retry-After` instead of spawning unbounded handler threads.
    pub max_connections: usize,
    /// Requests one keep-alive connection may carry before the server
    /// closes it (a fairness valve against connection squatting).
    pub max_requests_per_conn: usize,
    /// How long a keep-alive connection may sit idle *between* requests
    /// before the server disconnects it.
    pub idle_timeout: Duration,
    /// Bytes of spilled partitions one dataset's disk-backed searches may
    /// hold on disk at once, across all of its concurrent searches
    /// (per-dataset, not global). Exceeding it fails the search with
    /// HTTP 507 `disk-quota-exceeded`.
    pub disk_quota_bytes: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(4, usize::from),
            queue_capacity: 64,
            max_body_bytes: 8 << 20,
            read_timeout: Duration::from_secs(10),
            job_timeout: Duration::from_secs(120),
            cache_capacity: 256,
            max_connections: 1024,
            max_requests_per_conn: 1000,
            idle_timeout: Duration::from_secs(10),
            disk_quota_bytes: crate::registry::DEFAULT_DISK_QUOTA_BYTES,
        }
    }
}

/// One unit of worker work: a claimed cache key plus everything needed to
/// run the search and publish the result.
struct Job {
    key: CacheKey,
    /// The snapshot the request resolved. The search runs on it even if a
    /// patch lands while the job is queued, so the result stays coherent
    /// with the generation its cache key names.
    relation: Arc<Relation>,
    mode: DiscoverMode,
    max_lhs: Option<usize>,
    storage: Storage,
    threads: usize,
    /// The dataset's shared disk quota, attached for disk-backed searches
    /// so concurrent spills of the same dataset share one cap.
    quota: Option<Arc<tane_partition::DiskQuota>>,
    /// A streaming handler's level-event channel, when the claiming
    /// request asked to stream. Bounded ([`STREAM_EVENT_DEPTH`]); dropped
    /// receivers turn sends into no-ops rather than errors that stop the
    /// search.
    events: Option<SyncSender<String>>,
}

/// State shared by every thread of one server.
struct Shared {
    config: ServerConfig,
    registry: DatasetRegistry,
    cache: ResultCache,
    queue: JobQueue<Job>,
    metrics: Metrics,
    shutdown: AtomicBool,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
    }

    /// Claims a connection slot, or reports the cap reached. The gauge in
    /// `metrics.connections_active` *is* the semaphore count; handlers
    /// release by decrementing it when they finish.
    fn try_admit_connection(&self) -> bool {
        let active = &self.metrics.connections_active;
        let mut current = active.load(Ordering::Relaxed);
        loop {
            if current >= self.config.max_connections {
                return false;
            }
            match active.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => current = now,
            }
        }
    }

    fn release_connection(&self) {
        self.metrics
            .connections_active
            .fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running server; dropping it does NOT stop it — call [`Server::shutdown`]
/// then [`Server::wait`], or let a signal / `POST /shutdown` end it.
pub struct Server {
    local_addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    accept_thread: std::thread::JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts the accept loop and
    /// worker pool.
    pub fn start(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry: DatasetRegistry::with_disk_quota(config.disk_quota_bytes),
            cache: ResultCache::new(config.cache_capacity),
            queue: JobQueue::new(config.queue_capacity),
            metrics: Metrics::new(config.workers),
            shutdown: AtomicBool::new(false),
            config,
        });

        let mut workers = Vec::new();
        for i in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("tane-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }

        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tane-accept".into())
                .spawn(move || accept_loop(&listener, &shared, workers))?
        };

        Ok(Server {
            local_addr,
            shared,
            accept_thread,
        })
    }

    /// The bound address (resolves `:0` ports).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Requests a graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the server has fully stopped: accept loop ended,
    /// workers drained and joined.
    pub fn wait(self) {
        let _ = self.accept_thread.join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
) {
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if !shared.try_admit_connection() {
                    shed_connection(shared, stream);
                    continue;
                }
                shared
                    .metrics
                    .connections_total
                    .fetch_add(1, Ordering::Relaxed);
                let handler_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("tane-handler".into())
                    .spawn(move || {
                        handle_connection(&handler_shared, stream);
                        handler_shared.release_connection();
                    });
                if spawned.is_err() {
                    // The closure (and its permit release) never ran; the
                    // stream was dropped with it. Give the slot back here.
                    shared.release_connection();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    // Drain: fail the backlog so its waiters unblock, let workers finish
    // the jobs they already hold, then join them.
    for job in shared.queue.close() {
        shared.cache.abort(job.key, "server shutting down");
    }
    for w in workers {
        let _ = w.join();
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        shared.metrics.workers_busy.fetch_add(1, Ordering::Relaxed);
        let key = job.key;
        let result = run_job(shared, job);
        match &result {
            Ok(_) => shared
                .metrics
                .jobs_completed
                .fetch_add(1, Ordering::Relaxed),
            Err(_) => shared.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed),
        };
        shared.cache.publish(key, result);
        shared.metrics.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Runs one discovery job and shapes the outcome for the cache.
///
/// The stream observers do double duty: every emitted line — legacy level
/// lines and, in ranked mode, the interleaved `{"event":"topk",...}`
/// objects — is recorded for the cache (so later streams replay
/// byte-identical output), and — when the claiming request is streaming —
/// also sent through the bounded events channel. A failed send means the
/// streaming client went away; the search keeps running so the result
/// still lands in the cache.
fn run_job(shared: &Shared, job: Job) -> JobResult {
    let base = TaneConfig {
        storage: job.storage,
        disk_quota: job.quota,
        max_lhs: job.max_lhs,
        threads: job.threads,
        ..TaneConfig::default()
    };
    let names = job.relation.schema().names();
    // Two observers feed one recorded line sequence, so the interior
    // mutability lives here: both closures borrow the record and the sink
    // for the duration of one call, never concurrently (the search invokes
    // its observers serially, on the one search thread).
    let levels = std::cell::RefCell::new(Vec::<String>::new());
    let sink = std::cell::RefCell::new(job.events);
    let emit = |line: String| {
        let mut sink = sink.borrow_mut();
        if let Some(tx) = sink.as_ref() {
            if tx.send(line.clone()).is_err() {
                *sink = None;
            }
        }
        levels.borrow_mut().push(line);
    };
    let mut on_level = |ev: LevelEvent| emit(render_level_event(&ev, names));
    let outcome = match job.mode {
        DiscoverMode::Approx(epsilon) => {
            let config = ApproxTaneConfig {
                base,
                ..ApproxTaneConfig::new(epsilon)
            };
            discover_approx_fds_with(&job.relation, &config, &mut on_level)
        }
        DiscoverMode::Exact => discover_fds_with(&job.relation, &base, &mut on_level),
        DiscoverMode::TopK(k) => {
            let config = TopKConfig { base, k };
            discover_topk_fds_with(&job.relation, &config, &mut on_level, |ev: TopKEvent| {
                emit(render_topk_event(&ev, names))
            })
        }
    };
    match outcome {
        Ok(result) => {
            shared
                .metrics
                .record_search(&result.stats, matches!(job.mode, DiscoverMode::TopK(_)));
            Ok(Arc::new(shape_result(
                &job.relation,
                &result,
                levels.into_inner(),
            )))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// One NDJSON stream object: the minimal dependencies that became final at
/// `ev.level`, with the level's timings. Rendered by the worker exactly
/// once per level; live streams and cache replays both emit these bytes.
fn render_level_event(ev: &LevelEvent, names: &[String]) -> String {
    Json::obj([
        ("level", Json::Num(ev.level as f64)),
        (
            "fds",
            Json::str_array(ev.new_minimal_fds.iter().map(|fd| fd.display_with(names))),
        ),
        ("level_secs", Json::Num(ev.level_time.as_secs_f64())),
        ("partitions_bytes", Json::Num(ev.partitions_bytes as f64)),
    ])
    .render()
}

/// One ranked heap entry as response JSON: the rendered dependency plus
/// its score, in rows and as the `g3` fraction.
fn ranked_entry(entry: &RankedFd, names: &[String]) -> Json {
    Json::obj([
        ("fd", Json::Str(entry.fd.display_with(names))),
        ("g3", Json::Num(entry.g3())),
        ("g3_rows", Json::Num(entry.g3_rows as f64)),
    ])
}

/// One ranked NDJSON stream object, emitted after the level line of every
/// level on which the heap improved. Tagged with the `"event"`
/// discriminator so stream consumers can dispatch without sniffing keys —
/// legacy level lines stay untagged and byte-identical (see the stream
/// grammar in README).
fn render_topk_event(ev: &TopKEvent, names: &[String]) -> String {
    Json::obj([
        ("event", Json::Str("topk".to_string())),
        ("level", Json::Num(ev.level as f64)),
        (
            "heap",
            Json::Arr(ev.heap.iter().map(|e| ranked_entry(e, names)).collect()),
        ),
    ])
    .render()
}

/// The final NDJSON stream object. Deliberately *without* a `cached`
/// field: a replayed stream must be byte-identical to the live one.
fn render_trailer(dataset: &str, result: &CachedResult) -> String {
    let mut members = vec![
        ("dataset", Json::Str(dataset.to_string())),
        ("count", Json::Num(result.fds.len() as f64)),
        ("keys", Json::str_array(result.keys.iter().cloned())),
    ];
    if let Some(ranked) = &result.ranked {
        members.push(("ranked", ranked.clone()));
    }
    members.push(("stats", result.stats.clone()));
    members.push(("compute_secs", Json::Num(result.compute_secs)));
    Json::obj([("summary", Json::obj(members))]).render()
}

/// Renders a `TaneResult` into the cached, response-ready form. The `fds`
/// strings use `Fd::display_with`, so they are byte-identical to the lines
/// `tane discover` prints for the same data and parameters. `levels` is
/// the observer's per-level NDJSON record, kept for stream replay.
fn shape_result(relation: &Relation, result: &TaneResult, levels: Vec<String>) -> CachedResult {
    let names = relation.schema().names();
    CachedResult {
        fds: result.fds.iter().map(|fd| fd.display_with(names)).collect(),
        keys: result
            .keys
            .iter()
            .map(|k| k.display_with(names).to_string())
            .collect(),
        // The ranked-only rows are gated on the mode so exact/approximate
        // responses — /v1 and legacy alike — keep their historical bytes.
        stats: Json::obj(result.stats.json_members(result.ranked.is_some())),
        compute_secs: result.stats.elapsed.as_secs_f64(),
        levels,
        ranked: result
            .ranked
            .as_ref()
            .map(|heap| Json::Arr(heap.iter().map(|e| ranked_entry(e, names)).collect())),
    }
}

/// Refuses a connection over the cap: one quick 503 with `Retry-After`,
/// written from a short-lived thread so a slow peer cannot stall the
/// accept loop, then the socket closes. Pre-routing, hence legacy-shaped.
fn shed_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    shared
        .metrics
        .connections_shed
        .fetch_add(1, Ordering::Relaxed);
    let _ = std::thread::Builder::new()
        .name("tane-shed".into())
        .spawn(move || {
            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
            let _ = Response::error(503, "connection limit reached")
                .with_header("retry-after", "1")
                .write_to(&mut stream, false);
        });
}

/// Serves one connection for its whole keep-alive lifetime.
///
/// The `BufReader` persists across requests, so bytes of a pipelined
/// follow-up that arrived with an earlier read are served without touching
/// the socket. The connection closes when the client asks (`Connection:
/// close`), idles past `idle_timeout`, exhausts `max_requests_per_conn`,
/// commits a framing error (answered, then closed — the stream position is
/// no longer trustworthy, and reusing it is exactly the smuggling desync
/// the parser exists to prevent), aborts a chunked stream mid-body, or
/// when the server starts shutting down (drain: the in-flight request is
/// still answered, with `connection: close`).
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(read_half);
    let mut served: u64 = 0;
    loop {
        let received = Instant::now();
        let read = read_request(&mut reader, &mut stream, shared.config.max_body_bytes);
        let (action, keep_alive) = match read {
            Ok(request) => {
                shared
                    .metrics
                    .requests_total
                    .fetch_add(1, Ordering::Relaxed);
                if served > 0 {
                    shared
                        .metrics
                        .connections_reused
                        .fetch_add(1, Ordering::Relaxed);
                }
                served += 1;
                let action = route(shared, &request);
                let keep = request.keep_alive
                    && served < shared.config.max_requests_per_conn as u64
                    && !shared.shutting_down();
                (action, keep)
            }
            // The quiet ends of a keep-alive connection: the client hung
            // up between requests, or sat idle past the timeout.
            Err(RequestError::Closed) | Err(RequestError::Idle) => break,
            // Framing errors are answered (legacy-shaped: they precede
            // routing, so there is no API version to speak), then the
            // connection closes.
            Err(RequestError::TooLarge) => (
                Action::Respond(Response::error(413, "request too large")),
                false,
            ),
            Err(RequestError::Bad(msg)) => (Action::Respond(Response::error(400, &msg)), false),
            Err(RequestError::NotImplemented(msg)) => {
                (Action::Respond(Response::error(501, &msg)), false)
            }
            Err(RequestError::Io(e)) if is_timeout(&e) => {
                // Stalled *mid*-request (Idle covers the between-requests
                // case): tell the client before hanging up.
                (
                    Action::Respond(Response::error(408, "timed out reading request")),
                    false,
                )
            }
            Err(RequestError::Io(_)) => break, // client went away; nothing to say
        };
        let wrote = match action {
            Action::Respond(response) => response.write_to(&mut stream, keep_alive).is_ok(),
            Action::Stream(plan) => {
                stream_discover(shared, plan, &mut stream, keep_alive, received)
            }
        };
        if !wrote || !keep_alive {
            break;
        }
    }
    shared.metrics.record_connection_end(served);
}

/// What one routed request asks the connection handler to do: write a
/// complete response, or take over the socket for a chunked stream.
enum Action {
    Respond(Response),
    Stream(StreamPlan),
}

/// A streaming `/v1/discover`, resolved up to (but not including) the
/// first byte on the wire.
struct StreamPlan {
    dataset: String,
    source: StreamSource,
}

enum StreamSource {
    /// A cache hit: replay the recorded level lines and trailer.
    Replay(Arc<CachedResult>),
    /// Another request's flight is computing this key: wait for it, then
    /// replay. Resolved before the response head so failures still get
    /// real status codes.
    Follow(Arc<crate::cache::Flight>),
    /// This request claimed the key: levels arrive live over the bounded
    /// channel, the trailer comes from the flight.
    Live {
        rx: Receiver<String>,
        flight: Arc<crate::cache::Flight>,
    },
}

/// [`StreamSource`] after follower resolution: what `pump_stream` can
/// actually pump. `Follow` is gone at the type level, so the pump has no
/// "can't happen" arm to panic in.
enum ResolvedSource {
    Replay(Arc<CachedResult>),
    Live {
        rx: Receiver<String>,
        flight: Arc<crate::cache::Flight>,
    },
}

/// A routed failure, shaped per API version at the edge: `/v1` gets the
/// `{"error":{"code","message"}}` envelope, legacy paths get the flat
/// `{"error": message}` body with exactly the historical message strings.
struct ApiError {
    status: u16,
    /// Stable machine-matchable slug — part of the `/v1` contract.
    code: &'static str,
    message: String,
    retry_after: Option<&'static str>,
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
            retry_after: None,
        }
    }

    fn with_retry_after(mut self, seconds: &'static str) -> ApiError {
        self.retry_after = Some(seconds);
        self
    }

    fn job_timeout() -> ApiError {
        ApiError::new(504, "job-timeout", "job did not finish in time")
    }

    fn into_response(self, versioned: bool) -> Response {
        let response = if versioned {
            Response::error_envelope(self.status, self.code, &self.message)
        } else {
            Response::error(self.status, &self.message)
        };
        match self.retry_after {
            Some(seconds) => response.with_header("retry-after", seconds),
            None => response,
        }
    }
}

/// Classifies a flight failure message into status + slug. The message is
/// the abort reason recorded by whichever handler failed to enqueue, so
/// waiters see the same text the claimer was answered with.
fn flight_error(msg: String) -> ApiError {
    if msg.contains("shutting down") {
        ApiError::new(503, "shutting-down", msg)
    } else if msg.contains("queue full") {
        ApiError::new(503, "queue-full", msg)
    } else if msg.contains("disk quota exceeded") {
        // `StoreError::QuotaExceeded` through `TaneError::Store`: the
        // dataset's spill cap, not a server fault — RFC 4918's 507.
        ApiError::new(507, "disk-quota-exceeded", msg)
    } else if msg.contains("corrupt partition record") {
        // `StoreError::Corrupt`: a damaged or truncated segment record.
        // Surfaced as a plain 500 with its own slug; the server keeps
        // serving (the store never panics on corruption).
        ApiError::new(500, "store-corrupt", msg)
    } else {
        ApiError::new(500, "search-failed", msg)
    }
}

/// The one path-normalization step: `/v1/x` → (`/x`, versioned); anything
/// else — including a bare `/v1` and non-prefix lookalikes like `/v1x` —
/// is the legacy tree, verbatim.
fn split_version(path: &str) -> (&str, bool) {
    match path.strip_prefix("/v1") {
        Some(rest) if rest.starts_with('/') => (rest, true),
        _ => (path, false),
    }
}

/// When the legacy unversioned routes stop being served (RFC 8594
/// `Sunset`). The removal policy lives in README: announced alongside
/// `Deprecation: true`, honored for at least two minor releases, then the
/// unversioned tree answers 404.
const LEGACY_SUNSET: &str = "Sun, 01 Aug 2027 00:00:00 GMT";

fn route(shared: &Shared, request: &Request) -> Action {
    let (path, versioned) = split_version(&request.path);
    let action = dispatch(shared, request, path, versioned)
        .unwrap_or_else(|e| Action::Respond(e.into_response(versioned)));
    if versioned {
        return action;
    }
    match action {
        // Every legacy-path response advertises the migration and its
        // deadline; bodies stay byte-identical, clients notice at their
        // leisure.
        Action::Respond(response) => Action::Respond(
            response
                .with_header("deprecation", "true")
                .with_header("sunset", LEGACY_SUNSET),
        ),
        // Unreachable today (`stream` is rejected on legacy /discover),
        // kept total rather than panicking on a future slip.
        stream => stream,
    }
}

/// The shared dispatch table. `path` is already version-stripped;
/// `versioned` gates the endpoints and behaviors that only exist under
/// `/v1` (dataset detail/delete, streaming, the content-type check).
fn dispatch(
    shared: &Shared,
    request: &Request,
    path: &str,
    versioned: bool,
) -> Result<Action, ApiError> {
    let respond = |r: Response| Ok(Action::Respond(r));
    match (request.method.as_str(), path) {
        ("GET", "/health") => respond(Response::json(
            200,
            &Json::obj([(
                "status",
                Json::Str(
                    if shared.shutting_down() {
                        "shutting down"
                    } else {
                        "ok"
                    }
                    .into(),
                ),
            )]),
        )),
        ("GET", "/metrics") => {
            let queue = (shared.queue.depth(), shared.queue.capacity());
            respond(Response::json(
                200,
                &shared.metrics.render(queue, shared.cache.stats()),
            ))
        }
        ("GET", "/datasets") => respond(list_datasets(shared)),
        ("POST", "/discover") => discover(shared, request, versioned),
        ("POST", p) if p.strip_prefix("/datasets/").is_some_and(valid_name) => {
            upload_dataset(shared, &p["/datasets/".len()..], &request.body).map(Action::Respond)
        }
        ("GET", p) if versioned && p.strip_prefix("/datasets/").is_some_and(valid_name) => {
            dataset_detail(shared, &p["/datasets/".len()..]).map(Action::Respond)
        }
        ("DELETE", p) if versioned && p.strip_prefix("/datasets/").is_some_and(valid_name) => {
            remove_dataset(shared, &p["/datasets/".len()..]).map(Action::Respond)
        }
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            respond(Response::json(
                200,
                &Json::obj([("status", Json::Str("shutting down".into()))]),
            ))
        }
        ("PATCH", p) if versioned => match p
            .strip_prefix("/datasets/")
            .and_then(|rest| rest.strip_suffix("/rows"))
        {
            Some(name) if valid_name(name) => {
                patch_rows(shared, name, &request.body).map(Action::Respond)
            }
            _ => Err(ApiError::new(404, "unknown-endpoint", "no such endpoint")),
        },
        ("GET" | "POST" | "PATCH", _) => {
            Err(ApiError::new(404, "unknown-endpoint", "no such endpoint"))
        }
        // Unknown verbs get the RFC-mandated Allow header so clients learn
        // what the resource actually supports.
        _ => respond(
            ApiError::new(405, "method-not-allowed", "method not allowed")
                .into_response(versioned)
                .with_header("allow", allowed_methods(path, versioned)),
        ),
    }
}

/// What `Allow` should advertise for a 405 on `path`. Conservative: names
/// the verbs the dispatch table actually routes for that resource.
fn allowed_methods(path: &str, versioned: bool) -> &'static str {
    match path {
        "/health" | "/metrics" | "/datasets" => "GET",
        "/discover" | "/shutdown" => "POST",
        p if versioned
            && p.strip_prefix("/datasets/")
                .and_then(|rest| rest.strip_suffix("/rows"))
                .is_some_and(valid_name) =>
        {
            "PATCH"
        }
        p if p.strip_prefix("/datasets/").is_some_and(valid_name) => {
            if versioned {
                "GET, POST, DELETE"
            } else {
                "POST"
            }
        }
        _ => "GET, POST, PATCH, DELETE",
    }
}

/// Upload names: non-empty, path-safe.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
}

fn unknown_dataset(name: &str) -> ApiError {
    ApiError::new(404, "unknown-dataset", format!("unknown dataset `{name}`"))
}

fn list_datasets(shared: &Shared) -> Response {
    let rows: Vec<Json> = shared
        .registry
        .list()
        .into_iter()
        .map(|(name, shape)| match shape {
            Some((rows, attrs)) => Json::obj([
                ("name", Json::Str(name)),
                ("rows", Json::Num(rows as f64)),
                ("attrs", Json::Num(attrs as f64)),
            ]),
            None => Json::obj([("name", Json::Str(name))]),
        })
        .collect();
    Response::json(200, &Json::obj([("datasets", Json::Arr(rows))]))
}

/// `GET /v1/datasets/{name}`: the dataset's schema and identity. Resolving
/// generates a built-in on first touch, exactly like discovery would.
fn dataset_detail(shared: &Shared, name: &str) -> Result<Response, ApiError> {
    let Some(relation) = shared.registry.get(name) else {
        return Err(unknown_dataset(name));
    };
    Ok(Response::json(
        200,
        &Json::obj([
            ("dataset", Json::Str(name.to_string())),
            ("rows", Json::Num(relation.num_rows() as f64)),
            ("attrs", Json::Num(relation.num_attrs() as f64)),
            (
                "attributes",
                Json::str_array(relation.schema().names().iter().cloned()),
            ),
            (
                "content_hash",
                Json::Str(format!("{:016x}", relation.content_hash())),
            ),
            ("builtin", Json::Bool(DatasetRegistry::is_builtin(name))),
        ]),
    ))
}

/// `DELETE /v1/datasets/{name}`: unregisters an upload. The built-in
/// benchmark corpus is part of the service, not user state — deleting it
/// is refused with 403. Cached results for the deleted content are kept:
/// they are keyed by content hash, so they can only ever answer a
/// re-upload of the identical data.
fn remove_dataset(shared: &Shared, name: &str) -> Result<Response, ApiError> {
    match shared.registry.remove(name) {
        RemoveOutcome::Removed => Ok(Response::json(
            200,
            &Json::obj([
                ("dataset", Json::Str(name.to_string())),
                ("removed", Json::Bool(true)),
            ]),
        )),
        RemoveOutcome::Builtin => Err(ApiError::new(
            403,
            "builtin-dataset",
            format!("dataset `{name}` is built-in and cannot be removed"),
        )),
        RemoveOutcome::NotFound => Err(unknown_dataset(name)),
    }
}

fn upload_dataset(shared: &Shared, name: &str, body: &[u8]) -> Result<Response, ApiError> {
    let relation = match read_csv_from(body, &CsvOptions::default()) {
        Ok(r) => r,
        Err(e) => return Err(ApiError::new(400, "invalid-body", format!("bad CSV: {e}"))),
    };
    let arc = shared.registry.insert(name, relation);
    Ok(Response::json(
        200,
        &Json::obj([
            ("dataset", Json::Str(name.to_string())),
            ("rows", Json::Num(arc.num_rows() as f64)),
            ("attrs", Json::Num(arc.num_attrs() as f64)),
            (
                "content_hash",
                Json::Str(format!("{:016x}", arc.content_hash())),
            ),
        ]),
    ))
}

/// `PATCH /v1/datasets/{name}/rows`: apply a row delta to an uploaded
/// dataset's engine, then evict the stale generation's cached results so
/// later discoveries search the new snapshot.
fn patch_rows(shared: &Shared, name: &str, body: &[u8]) -> Result<Response, ApiError> {
    if DatasetRegistry::is_builtin(name) {
        return Err(ApiError::new(
            403,
            "builtin-dataset",
            format!("dataset `{name}` is built-in and cannot be patched"),
        ));
    }
    let engine = shared
        .registry
        .engine(name)
        .ok_or_else(|| unknown_dataset(name))?;
    let patch = parse_patch(body).map_err(|msg| ApiError::new(400, "invalid-body", msg))?;
    match engine.patch(&patch) {
        Ok(outcome) => {
            if outcome.new_hash != outcome.old_hash {
                let evicted = shared.cache.evict_dataset(outcome.old_hash);
                shared.cache.mark_fresh(outcome.new_hash);
                let _ = evicted;
            }
            Ok(Response::json(
                200,
                &Json::obj([
                    ("dataset", Json::Str(name.to_string())),
                    ("generation", Json::Num(outcome.generation as f64)),
                    ("rows", Json::Num(outcome.rows as f64)),
                    ("appended", Json::Num(outcome.appended as f64)),
                    ("deleted", Json::Num(outcome.deleted as f64)),
                    (
                        "content_hash",
                        Json::Str(format!("{:016x}", outcome.new_hash)),
                    ),
                ]),
            ))
        }
        Err(PatchError::TooLarge { rows, cap }) => Err(ApiError::new(
            413,
            "patch-too-large",
            format!("patch touches {rows} rows, cap is {cap}"),
        )),
        Err(PatchError::Relation(e)) => Err(ApiError::new(400, "invalid-patch", e.to_string())),
    }
}

/// Parses a PATCH body: `{"append": [["v", ...], ...], "delete": [i, ...]}`,
/// either key optional but at least one required.
fn parse_patch(body: &[u8]) -> Result<RowPatch, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let json = Json::parse(text).map_err(|e| format!("bad JSON: {e}"))?;
    let Json::Obj(members) = &json else {
        return Err("body must be a JSON object".into());
    };
    let mut patch = RowPatch::default();
    for (key, value) in members {
        match key.as_str() {
            "append" => {
                let rows = value
                    .as_array()
                    .ok_or("`append` must be an array of rows")?;
                for row in rows {
                    let cells = row.as_array().ok_or("each appended row must be an array")?;
                    let mut parsed = Vec::with_capacity(cells.len());
                    for cell in cells {
                        let s = cell.as_str().ok_or("appended cells must be strings")?;
                        parsed.push(Value::parse(s));
                    }
                    patch.appends.push(parsed);
                }
            }
            "delete" => {
                let indices = value
                    .as_array()
                    .ok_or("`delete` must be an array of row indices")?;
                for idx in indices {
                    let i = idx
                        .as_usize()
                        .ok_or("`delete` entries must be non-negative integers")?;
                    patch.deletes.push(i);
                }
            }
            other => return Err(format!("unknown field `{other}`")),
        }
    }
    if patch.appends.is_empty() && patch.deletes.is_empty() {
        return Err("patch must append or delete at least one row".to_string());
    }
    Ok(patch)
}

/// The `/discover` body as a typed request — the single point where raw
/// JSON is validated. Everything downstream (routing, the cache key, the
/// worker's job) consumes this struct; adding a request field means adding
/// it to [`DISCOVER_FIELDS`] and a typed accessor here, nowhere else.
#[derive(Debug)]
struct DiscoverRequest {
    dataset: String,
    mode: DiscoverMode,
    max_lhs: Option<usize>,
    storage: Storage,
    threads: usize,
    stream: bool,
}

/// Which search the request asked for. `epsilon` and `top_k` are mutually
/// exclusive in the body: ranked search orders candidates by `g3` instead
/// of thresholding them.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DiscoverMode {
    Exact,
    Approx(f64),
    TopK(usize),
}

/// A rejected body, carrying the `/v1` error slug. Legacy responses render
/// only the message, so the historical flat-error bytes are unchanged.
#[derive(Debug)]
struct BodyError {
    code: &'static str,
    message: String,
}

impl BodyError {
    fn invalid(message: impl Into<String>) -> BodyError {
        BodyError {
            code: "invalid-body",
            message: message.into(),
        }
    }

    /// Fields the contract does not know get their own slug so clients can
    /// machine-match typos against the documented field list.
    fn unknown_field(name: &str) -> BodyError {
        BodyError {
            code: "unknown_field",
            message: format!("unknown field `{name}`"),
        }
    }
}

/// Every field the `/discover` contract knows, with whether it exists on
/// the legacy unversioned route. Legacy request handling is frozen:
/// `stream` and `top_k` are `/v1`-only, so on `/discover` they stay
/// unknown fields and the legacy behavior is byte-for-byte what it was.
const DISCOVER_FIELDS: &[(&str, bool)] = &[
    ("dataset", true),
    ("epsilon", true),
    ("max_lhs", true),
    ("storage", true),
    ("cache_mb", true),
    ("threads", true),
    ("stream", false),
    ("top_k", false),
];

/// Search worker threads when a request does not say: all available cores.
/// Also the most a request may ask for.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn parse_discover(body: &[u8], versioned: bool) -> Result<DiscoverRequest, BodyError> {
    parse_discover_on(body, versioned, default_threads())
}

/// [`parse_discover`] on a host with `cores` cores, the default and the
/// ceiling for `threads`.
fn parse_discover_on(
    body: &[u8],
    versioned: bool,
    cores: usize,
) -> Result<DiscoverRequest, BodyError> {
    let text = std::str::from_utf8(body).map_err(|_| BodyError::invalid("body is not UTF-8"))?;
    let doc = Json::parse(text).map_err(|e| BodyError::invalid(format!("bad JSON: {e}")))?;
    let Json::Obj(members) = &doc else {
        return Err(BodyError::invalid("body must be a JSON object"));
    };
    for (key, _) in members {
        let known = DISCOVER_FIELDS
            .iter()
            .any(|&(name, on_legacy)| name == key && (versioned || on_legacy));
        if !known {
            return Err(BodyError::unknown_field(key));
        }
    }
    let dataset = doc
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or_else(|| BodyError::invalid("missing required field `dataset`"))?
        .to_string();
    let epsilon = match doc.get("epsilon") {
        None => None,
        Some(v) => {
            let e = v
                .as_f64()
                .ok_or_else(|| BodyError::invalid("`epsilon` must be a number"))?;
            if !(0.0..=1.0).contains(&e) {
                return Err(BodyError::invalid(format!(
                    "`epsilon` must be in [0,1], got {e}"
                )));
            }
            Some(e)
        }
    };
    let top_k = match doc.get("top_k") {
        None => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| BodyError::invalid("`top_k` must be a non-negative integer"))?,
        ),
    };
    let mode = match (epsilon, top_k) {
        (Some(_), Some(_)) => {
            return Err(BodyError::invalid(
                "`epsilon` and `top_k` are mutually exclusive",
            ))
        }
        (Some(e), None) if e > 0.0 => DiscoverMode::Approx(e),
        (_, Some(k)) => DiscoverMode::TopK(k),
        _ => DiscoverMode::Exact,
    };
    let max_lhs = match doc.get("max_lhs") {
        None => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| BodyError::invalid("`max_lhs` must be a non-negative integer"))?,
        ),
    };
    let storage = match doc.get("storage").map(|v| v.as_str()) {
        None | Some(Some("memory")) => Storage::Memory,
        Some(Some("disk")) => {
            let mb = match doc.get("cache_mb") {
                None => 64,
                Some(v) => v.as_usize().ok_or_else(|| {
                    BodyError::invalid("`cache_mb` must be a non-negative integer")
                })?,
            };
            let cache_bytes = mb.checked_mul(1 << 20).ok_or_else(|| {
                BodyError::invalid(format!(
                    "`cache_mb` {mb} is too large: the byte count overflows"
                ))
            })?;
            Storage::Disk { cache_bytes }
        }
        Some(Some(other)) => {
            return Err(BodyError::invalid(format!(
                "unknown storage `{other}` (memory | disk)"
            )))
        }
        Some(None) => return Err(BodyError::invalid("`storage` must be a string")),
    };
    if doc.get("cache_mb").is_some() && storage == Storage::Memory {
        return Err(BodyError::invalid(
            "`cache_mb` only applies to `storage: \"disk\"`",
        ));
    }
    // Default to every available core: the search runtime is deterministic
    // in the worker count, so parallelism is free to switch on. Explicit
    // `threads: 1` remains the paper-faithful serial run. More workers than
    // cores buys nothing, and the pool allocates per worker, so a request
    // may not ask for more.
    let threads = match doc.get("threads") {
        None => cores,
        Some(v) => {
            let t = v
                .as_usize()
                .ok_or_else(|| BodyError::invalid("`threads` must be a positive integer"))?;
            if t == 0 {
                return Err(BodyError::invalid("`threads` must be at least 1"));
            }
            if t > cores {
                return Err(BodyError::invalid(format!(
                    "`threads` must be at most {cores}, this host's core count"
                )));
            }
            t
        }
    };
    let stream = match doc.get("stream") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| BodyError::invalid("`stream` must be a boolean"))?,
    };
    Ok(DiscoverRequest {
        dataset,
        mode,
        max_lhs,
        storage,
        threads,
        stream,
    })
}

fn discover(shared: &Shared, request: &Request, versioned: bool) -> Result<Action, ApiError> {
    if versioned {
        if let Some(media) = request.content_type.as_deref() {
            if media != "application/json" {
                return Err(ApiError::new(
                    415,
                    "unsupported-media-type",
                    format!("unsupported content-type `{media}`; use application/json"),
                ));
            }
        }
    }
    let spec = parse_discover(&request.body, versioned)
        .map_err(|e| ApiError::new(400, e.code, e.message))?;
    if shared.shutting_down() {
        return Err(ApiError::new(503, "shutting-down", "server shutting down"));
    }
    let Some(relation) = shared.registry.get(&spec.dataset) else {
        return Err(unknown_dataset(&spec.dataset));
    };
    // The key drops the knobs that cannot change the answer (storage,
    // threads): a disk-backed query is answered by a cached in-memory run
    // of the same search, and vice versa.
    let key = CacheKey {
        dataset_hash: relation.content_hash(),
        epsilon_bits: match spec.mode {
            DiscoverMode::Approx(e) => Some(e.to_bits()),
            _ => None,
        },
        max_lhs: spec.max_lhs,
        top_k: match spec.mode {
            DiscoverMode::TopK(k) => Some(k),
            _ => None,
        },
    };

    match shared.cache.lookup_or_claim(key) {
        Lookup::Hit(result) => {
            if spec.stream {
                Ok(Action::Stream(StreamPlan {
                    dataset: spec.dataset,
                    source: StreamSource::Replay(result),
                }))
            } else {
                Ok(Action::Respond(respond_discover(
                    &spec.dataset,
                    &result,
                    true,
                )))
            }
        }
        Lookup::Wait(flight) => {
            if spec.stream {
                Ok(Action::Stream(StreamPlan {
                    dataset: spec.dataset,
                    source: StreamSource::Follow(flight),
                }))
            } else {
                wait_and_respond(shared, &spec.dataset, &flight, true)
            }
        }
        Lookup::Claimed(flight) => {
            let (events, rx) = if spec.stream {
                let (tx, rx) = sync_channel(STREAM_EVENT_DEPTH);
                (Some(tx), Some(rx))
            } else {
                (None, None)
            };
            let quota = match spec.storage {
                Storage::Disk { .. } => Some(shared.registry.disk_quota(&spec.dataset)),
                Storage::Memory => None,
            };
            let job = Job {
                key,
                relation,
                mode: spec.mode,
                max_lhs: spec.max_lhs,
                storage: spec.storage,
                threads: spec.threads,
                quota,
                events,
            };
            if let Err((job, e)) = shared.queue.push(job) {
                let err = match e {
                    PushError::Full => {
                        ApiError::new(429, "queue-full", "job queue full").with_retry_after("1")
                    }
                    PushError::Closed => {
                        ApiError::new(503, "shutting-down", "server shutting down")
                    }
                };
                shared.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                shared.cache.abort(job.key, &err.message);
                return Err(err);
            }
            match rx {
                Some(rx) => Ok(Action::Stream(StreamPlan {
                    dataset: spec.dataset,
                    source: StreamSource::Live { rx, flight },
                })),
                None => wait_and_respond(shared, &spec.dataset, &flight, false),
            }
        }
    }
}

fn wait_and_respond(
    shared: &Shared,
    dataset: &str,
    flight: &crate::cache::Flight,
    cached: bool,
) -> Result<Action, ApiError> {
    match flight.wait(shared.config.job_timeout) {
        Some(Ok(result)) => Ok(Action::Respond(respond_discover(dataset, &result, cached))),
        Some(Err(msg)) => Err(flight_error(msg)),
        None => Err(ApiError::job_timeout()),
    }
}

fn respond_discover(dataset: &str, result: &CachedResult, cached: bool) -> Response {
    let mut members = vec![
        ("dataset", Json::Str(dataset.to_string())),
        ("count", Json::Num(result.fds.len() as f64)),
        ("fds", Json::str_array(result.fds.iter().cloned())),
        ("keys", Json::str_array(result.keys.iter().cloned())),
    ];
    if let Some(ranked) = &result.ranked {
        members.push(("ranked", ranked.clone()));
    }
    members.push(("stats", result.stats.clone()));
    members.push(("cached", Json::Bool(cached)));
    members.push(("compute_secs", Json::Num(result.compute_secs)));
    Response::json(200, &Json::obj(members))
}

/// Per-stream tallies, folded into [`Metrics`] however the stream ends.
#[derive(Default)]
struct StreamTally {
    levels: u64,
    first_level: Option<Duration>,
}

/// Serves one streaming `/v1/discover` on `stream`. Returns whether the
/// connection is still in a clean, reusable state: a finished chunked
/// body (terminating zero-chunk written) keeps keep-alive intact; a write
/// failure or an in-band error object forces a close.
fn stream_discover(
    shared: &Shared,
    plan: StreamPlan,
    stream: &mut TcpStream,
    keep_alive: bool,
    received: Instant,
) -> bool {
    // Followers resolve their flight *before* the first byte goes out, so
    // a failed or timed-out computation still gets a real status code
    // instead of a 200 head followed by an in-band error.
    let source = match plan.source {
        StreamSource::Follow(flight) => match flight.wait(shared.config.job_timeout) {
            Some(Ok(result)) => ResolvedSource::Replay(result),
            Some(Err(msg)) => {
                return flight_error(msg)
                    .into_response(true)
                    .write_to(stream, keep_alive)
                    .is_ok()
            }
            None => {
                return ApiError::job_timeout()
                    .into_response(true)
                    .write_to(stream, keep_alive)
                    .is_ok()
            }
        },
        StreamSource::Replay(result) => ResolvedSource::Replay(result),
        StreamSource::Live { rx, flight } => ResolvedSource::Live { rx, flight },
    };

    shared.metrics.streams_total.fetch_add(1, Ordering::Relaxed);
    let mut tally = StreamTally::default();
    let (payload_bytes, clean) = match ChunkedBody::start(stream, 200, &[], keep_alive) {
        Ok(body) => pump_stream(shared, &plan.dataset, source, body, received, &mut tally),
        Err(_) => (0, false),
    };
    shared
        .metrics
        .stream_bytes
        .fetch_add(payload_bytes, Ordering::Relaxed);
    shared
        .metrics
        .levels_streamed
        .fetch_add(tally.levels, Ordering::Relaxed);
    if let Some(latency) = tally.first_level {
        shared.metrics.record_first_level_latency(latency);
    }
    clean
}

/// Writes the NDJSON body: level lines, then the trailer (or an in-band
/// error object). Returns `(payload_bytes, connection_reusable)`.
fn pump_stream<W: Write>(
    shared: &Shared,
    dataset: &str,
    source: ResolvedSource,
    mut body: ChunkedBody<'_, W>,
    received: Instant,
    tally: &mut StreamTally,
) -> (u64, bool) {
    let deadline = received + shared.config.job_timeout;
    match source {
        ResolvedSource::Replay(result) => {
            for line in &result.levels {
                if write_level(&mut body, line, received, tally).is_err() {
                    return (body.payload_bytes(), false);
                }
            }
            finish_with_trailer(body, dataset, &result)
        }
        ResolvedSource::Live { rx, flight } => {
            loop {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    return abort_stream(body, ApiError::job_timeout());
                };
                match rx.recv_timeout(left) {
                    Ok(line) => {
                        if write_level(&mut body, &line, received, tally).is_err() {
                            // Dropping `rx` (on return) fails the worker's
                            // next send; the search runs on for the cache.
                            return (body.payload_bytes(), false);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        return abort_stream(body, ApiError::job_timeout());
                    }
                    // The worker dropped its sender: the search is done
                    // and the publish is imminent.
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            let left = deadline
                .checked_duration_since(Instant::now())
                .unwrap_or_default()
                .max(Duration::from_millis(100));
            match flight.wait(left) {
                Some(Ok(result)) => finish_with_trailer(body, dataset, &result),
                Some(Err(msg)) => abort_stream(body, flight_error(msg)),
                None => abort_stream(body, ApiError::job_timeout()),
            }
        }
    }
}

/// One level line as one chunk (chunk boundaries align with NDJSON lines).
fn write_level<W: Write>(
    body: &mut ChunkedBody<'_, W>,
    line: &str,
    received: Instant,
    tally: &mut StreamTally,
) -> io::Result<()> {
    body.write_chunk(format!("{line}\n").as_bytes())?;
    tally.levels += 1;
    if tally.first_level.is_none() {
        tally.first_level = Some(received.elapsed());
    }
    Ok(())
}

fn finish_with_trailer<W: Write>(
    mut body: ChunkedBody<'_, W>,
    dataset: &str,
    result: &CachedResult,
) -> (u64, bool) {
    let line = format!("{}\n", render_trailer(dataset, result));
    if body.write_chunk(line.as_bytes()).is_err() {
        return (body.payload_bytes(), false);
    }
    let bytes = body.payload_bytes();
    (bytes, body.finish().is_ok())
}

/// The head is already out as 200, so the failure travels in-band as a
/// final NDJSON error object; the body is still terminated properly, but
/// the connection closes — this stream did not deliver its result.
fn abort_stream<W: Write>(mut body: ChunkedBody<'_, W>, err: ApiError) -> (u64, bool) {
    let line = format!(
        "{}\n",
        Json::obj([(
            "error",
            Json::obj([
                ("code", Json::Str(err.code.to_string())),
                ("message", Json::Str(err.message)),
            ]),
        )])
        .render()
    );
    let _ = body.write_chunk(line.as_bytes());
    let bytes = body.payload_bytes();
    let _ = body.finish();
    (bytes, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discover_request_parsing() {
        let s = parse_discover(br#"{"dataset":"wbc"}"#, false).unwrap();
        assert_eq!(s.dataset, "wbc");
        assert_eq!(s.mode, DiscoverMode::Exact);
        assert_eq!(s.storage, Storage::Memory);
        assert_eq!(s.threads, default_threads(), "default is all cores");
        assert!(!s.stream);

        // The serial, paper-faithful run stays reachable explicitly.
        let s = parse_discover(br#"{"dataset":"wbc","threads":1}"#, false).unwrap();
        assert_eq!(s.threads, 1);

        let s = parse_discover_on(
            br#"{"dataset":"wbc","epsilon":0.05,"max_lhs":3,"storage":"disk","cache_mb":16,"threads":2}"#,
            false,
            2,
        )
        .unwrap();
        assert_eq!(s.mode, DiscoverMode::Approx(0.05));
        assert_eq!(s.max_lhs, Some(3));
        assert_eq!(
            s.storage,
            Storage::Disk {
                cache_bytes: 16 << 20
            }
        );
        assert_eq!(s.threads, 2);

        // Explicit epsilon 0 is the exact mode, as it always was.
        let s = parse_discover(br#"{"dataset":"wbc","epsilon":0.0}"#, false).unwrap();
        assert_eq!(s.mode, DiscoverMode::Exact);

        assert!(parse_discover(b"not json", false).is_err());
        assert!(parse_discover(br#"{"epsilon":0.1}"#, false)
            .unwrap_err()
            .message
            .contains("dataset"));
        assert!(parse_discover(br#"{"dataset":"x","epsilon":1.5}"#, false)
            .unwrap_err()
            .message
            .contains("[0,1]"));
        assert!(parse_discover(br#"{"dataset":"x","storage":"tape"}"#, false).is_err());
        assert!(parse_discover(br#"{"dataset":"x","threads":0}"#, false).is_err());
        // No more workers than the host has cores: the pool allocates per
        // worker, so a huge count must be a typed error, not an abort.
        let over = format!(r#"{{"dataset":"x","threads":{}}}"#, default_threads() + 1);
        for body in [
            over.as_bytes(),
            br#"{"dataset":"x","threads":1000000000000}"#,
        ] {
            let err = parse_discover(body, true).unwrap_err();
            assert_eq!(err.code, "invalid-body");
            assert!(
                err.message
                    .contains(&format!("at most {}", default_threads())),
                "the message names the limit: {}",
                err.message
            );
        }
        assert!(parse_discover(br#"{"dataset":"x","cache_mb":4}"#, false).is_err());
        // A size whose byte count overflows is a typed error: 2^44 MiB is
        // 2^64 bytes, one past the largest byte count; 2^44 − 1 still fits.
        let err = parse_discover_on(
            br#"{"dataset":"wbc","storage":"disk","cache_mb":17592186044416}"#,
            true,
            2,
        )
        .unwrap_err();
        assert_eq!(err.code, "invalid-body");
        assert!(err.message.contains("cache_mb"), "{}", err.message);
        let s = parse_discover_on(
            br#"{"dataset":"wbc","storage":"disk","cache_mb":17592186044415}"#,
            true,
            2,
        )
        .unwrap();
        assert_eq!(
            s.storage,
            Storage::Disk {
                cache_bytes: 17592186044415 << 20
            }
        );
    }

    #[test]
    fn unknown_fields_get_their_own_slug() {
        let err = parse_discover(br#"{"dataset":"x","typo_field":1}"#, false).unwrap_err();
        assert_eq!(err.code, "unknown_field");
        assert_eq!(err.message, "unknown field `typo_field`");
        // Other rejections keep the generic slug.
        let err = parse_discover(b"not json", false).unwrap_err();
        assert_eq!(err.code, "invalid-body");
    }

    #[test]
    fn stream_and_top_k_are_versioned_only() {
        // Legacy /discover: `stream` and `top_k` stay unknown fields, with
        // the exact historical message bytes.
        for body in [
            &br#"{"dataset":"x","stream":true}"#[..],
            &br#"{"dataset":"x","top_k":5}"#[..],
        ] {
            let err = parse_discover(body, false).unwrap_err();
            assert_eq!(err.code, "unknown_field");
            assert!(err.message.starts_with("unknown field `"));
        }
        // /v1/discover accepts both.
        assert!(
            parse_discover(br#"{"dataset":"x","stream":true}"#, true)
                .unwrap()
                .stream
        );
        assert!(
            !parse_discover(br#"{"dataset":"x","stream":false}"#, true)
                .unwrap()
                .stream
        );
        assert!(parse_discover(br#"{"dataset":"x","stream":1}"#, true)
            .unwrap_err()
            .message
            .contains("boolean"));
    }

    #[test]
    fn top_k_parses_into_ranked_mode() {
        let s = parse_discover(br#"{"dataset":"x","top_k":10}"#, true).unwrap();
        assert_eq!(s.mode, DiscoverMode::TopK(10));
        // k = 0 is legal: an immediately-empty ranked search.
        let s = parse_discover(br#"{"dataset":"x","top_k":0}"#, true).unwrap();
        assert_eq!(s.mode, DiscoverMode::TopK(0));
        // epsilon 0 still counts as choosing the threshold contract.
        let err = parse_discover(br#"{"dataset":"x","top_k":3,"epsilon":0.0}"#, true).unwrap_err();
        assert!(err.message.contains("mutually exclusive"));
        let err = parse_discover(br#"{"dataset":"x","top_k":3,"epsilon":0.1}"#, true).unwrap_err();
        assert!(err.message.contains("mutually exclusive"));
        assert!(parse_discover(br#"{"dataset":"x","top_k":-2}"#, true)
            .unwrap_err()
            .message
            .contains("non-negative"));
        assert!(parse_discover(br#"{"dataset":"x","top_k":"ten"}"#, true)
            .unwrap_err()
            .message
            .contains("non-negative"));
    }

    #[test]
    fn version_prefix_is_split_once() {
        assert_eq!(split_version("/v1/discover"), ("/discover", true));
        assert_eq!(split_version("/v1/datasets/abc"), ("/datasets/abc", true));
        assert_eq!(split_version("/discover"), ("/discover", false));
        assert_eq!(split_version("/v1"), ("/v1", false));
        assert_eq!(split_version("/v1x/health"), ("/v1x/health", false));
        assert_eq!(split_version("/v2/health"), ("/v2/health", false));
    }

    #[test]
    fn api_errors_shape_per_version() {
        let body = |r: Response| Json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        let legacy =
            body(ApiError::new(404, "unknown-dataset", "unknown dataset `x`").into_response(false));
        assert_eq!(
            legacy.get("error").unwrap().as_str(),
            Some("unknown dataset `x`")
        );
        let v1 =
            body(ApiError::new(404, "unknown-dataset", "unknown dataset `x`").into_response(true));
        let err = v1.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("unknown-dataset"));
        assert_eq!(
            err.get("message").unwrap().as_str(),
            Some("unknown dataset `x`")
        );
        // retry-after survives both shapes.
        let r = ApiError::new(429, "queue-full", "job queue full")
            .with_retry_after("1")
            .into_response(true);
        assert!(r
            .extra_headers
            .iter()
            .any(|(n, v)| n == "retry-after" && v == "1"));
    }

    #[test]
    fn upload_names_are_validated() {
        assert!(valid_name("my-data_set.v2"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(200)));
    }

    /// A `TaneStats` whose every counter is distinct, so a swapped,
    /// misnamed or misplaced row changes the rendered bytes.
    fn distinct_stats() -> tane_core::TaneStats {
        tane_core::TaneStats {
            levels: 3,
            sets_per_level: vec![2, 1, 1],
            sets_total: 4,
            sets_max_level: 2,
            validity_tests: 5,
            g3_exact_computations: 6,
            g3_decided_by_bounds: 7,
            keys_found: 8,
            products: 9,
            partitions_supplied: 10,
            disk_reads: 11,
            disk_writes: 12,
            disk_bytes_read: 13,
            disk_bytes_written: 14,
            peak_resident_bytes: 15,
            store_evictions: 16,
            store_pins: 17,
            oversized_resident: 18,
            parallel_workers: 19,
            parallel_grains: 20,
            worker_steals: 21,
            worker_parks: 22,
            worker_spin: Duration::new(1, 234_567_891),
            worker_busy: Duration::new(0, 987_654_321),
            fetch_stall: Duration::new(2, 1),
            topk_bound_pruned: 23,
            topk_dominated: 24,
            topk_improvements: 25,
            topk_early_exit_level: Some(2),
            level_times: vec![Duration::new(0, 333_333_333), Duration::new(1, 1)],
            elapsed: Duration::new(3, 141_592_653),
        }
    }

    /// The stats object of `/v1/discover` and the `search` object of
    /// `/v1/metrics`, byte for byte. Legacy bodies are frozen, so these
    /// strings only ever change on purpose.
    #[test]
    fn stats_wire_bytes_are_pinned() {
        const PLAIN: &str = concat!(
            r#"{"levels":3,"sets_total":4,"sets_max_level":2,"validity_tests":5,"#,
            r#""keys_found":8,"products":9,"partitions_supplied":10,"#,
            r#""g3_exact_computations":6,"g3_decided_by_bounds":7,"disk_reads":11,"#,
            r#""disk_writes":12,"disk_bytes_read":13,"disk_bytes_written":14,"#,
            r#""store_evictions":16,"store_pins":17,"oversized_resident":18,"#,
            r#""parallel_workers":19,"parallel_grains":20,"worker_steals":21,"#,
            r#""worker_parks":22,"worker_spin_secs":1.234567891,"#,
            r#""worker_busy_secs":0.987654321,"fetch_stall_secs":2.000000001,"#,
            r#""level_secs":[0.333333333,1.000000001],"elapsed_secs":3.141592653}"#
        );
        const RANKED: &str =
            r#","topk_bound_pruned":23,"topk_dominated":24,"topk_improvements":25,"#;
        let relation = Relation::builder(tane_relation::Schema::new(["A"]).unwrap()).build();
        let render = |ranked: Option<Vec<RankedFd>>, stats: tane_core::TaneStats| {
            let result = TaneResult {
                fds: Vec::new(),
                keys: Vec::new(),
                ranked,
                stats,
            };
            shape_result(&relation, &result, Vec::new()).stats.render()
        };
        let head = &PLAIN[..PLAIN.len() - 1];
        assert_eq!(render(None, distinct_stats()), PLAIN);
        assert_eq!(
            render(Some(Vec::new()), distinct_stats()),
            format!("{head}{RANKED}\"topk_early_exit_level\":2}}")
        );
        let walked_all = tane_core::TaneStats {
            topk_early_exit_level: None,
            ..distinct_stats()
        };
        assert_eq!(
            render(Some(Vec::new()), walked_all),
            format!("{head}{RANKED}\"topk_early_exit_level\":null}}")
        );

        // One ranked and one plain search: ranked-only rows fold once,
        // seconds are summed nanoseconds.
        let metrics = Metrics::new(1);
        metrics.record_search(&distinct_stats(), true);
        metrics.record_search(&distinct_stats(), false);
        let cache = crate::cache::CacheStats {
            hits: 0,
            coalesced: 0,
            misses: 0,
            entries: 0,
            evictions: 0,
            evicted_compute_secs: 0.0,
            evicted_stale: 0,
        };
        let doc = metrics.render((0, 1), cache);
        assert_eq!(
            doc.get("search").unwrap().render(),
            concat!(
                r#"{"level_times":[{"level":1,"runs":2,"total_secs":0.666666666},"#,
                r#"{"level":2,"runs":2,"total_secs":2.000000002}],"#,
                r#""disk_bytes_read":26,"disk_bytes_written":28,"#,
                r#""store":{"evictions":32,"pins":34,"oversized_resident":36},"#,
                r#""parallel_grains":40,"worker_steals":42,"worker_parks":44,"#,
                r#""worker_spin_secs":2.469135782,"worker_busy_secs":1.975308642,"#,
                r#""fetch_stall_secs":4.000000002,"#,
                r#""topk":{"searches":1,"bound_pruned":23,"improvements":25}}"#
            )
        );
    }
}
