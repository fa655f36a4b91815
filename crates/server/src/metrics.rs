//! Service counters behind `/metrics`.
//!
//! Everything is a relaxed atomic or a short-held mutex: metrics recording
//! sits on the worker hot path and must never serialize the pool. Search
//! statistics fold through the counter table (`TaneStats::counters`), one
//! total per row; the per-level search timings reuse the
//! `TaneStats::level_times` instrumented in `tane-core` — the service
//! aggregates them across jobs so `/metrics` shows where lattice time
//! actually goes, level by level.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tane_core::{CounterKind, CounterValue, TaneStats};
use tane_util::Json;

use crate::cache::CacheStats;

/// Aggregated timings for one lattice level across all jobs.
#[derive(Debug, Default, Clone, Copy)]
struct LevelAgg {
    runs: u64,
    nanos: u64,
}

/// All counters of the service.
pub struct Metrics {
    start: Instant,
    /// Requests *parsed* (any endpoint) — one keep-alive connection can
    /// contribute many; a connection that never sends a byte contributes
    /// none.
    pub requests_total: AtomicU64,
    /// Connections admitted past the connection cap.
    pub connections_total: AtomicU64,
    /// Handler threads the accept loop has started; admitted connections
    /// beyond these went to a parked handler.
    pub handlers_spawned: AtomicU64,
    /// Connections currently being served (the semaphore's level).
    pub connections_active: AtomicUsize,
    /// Connections refused with 503 at the cap.
    pub connections_shed: AtomicU64,
    /// Requests served on an already-used connection — every one of these
    /// is a TCP handshake keep-alive saved the client.
    pub connections_reused: AtomicU64,
    /// Largest number of requests any single connection has carried.
    pub requests_per_conn_max: AtomicU64,
    /// Discovery jobs finished successfully.
    pub jobs_completed: AtomicU64,
    /// Discovery jobs that errored (disk store failures).
    pub jobs_failed: AtomicU64,
    /// Discovery requests refused with 429 (queue full).
    pub jobs_rejected: AtomicU64,
    /// Workers currently executing a job.
    pub workers_busy: AtomicUsize,
    /// Streaming `/v1/discover` responses started (live or replay).
    pub streams_total: AtomicU64,
    /// Level objects delivered across all streams.
    pub levels_streamed: AtomicU64,
    /// NDJSON payload bytes delivered across all streams (chunk contents,
    /// not HTTP framing).
    pub stream_bytes: AtomicU64,
    /// Nanoseconds from request arrival to the first level chunk, summed
    /// over streams that delivered at least one level (divide by
    /// `first_level_count` for the mean `/metrics` reports).
    first_level_nanos: AtomicU64,
    first_level_count: AtomicU64,
    workers_total: usize,
    level_times: Mutex<Vec<LevelAgg>>,
    /// One total per counter-table row, in table order: counts summed,
    /// seconds summed as nanoseconds. Rows without a sum (per-level
    /// seconds, a level) stay 0.
    search: [AtomicU64; TaneStats::COUNTERS],
    /// Ranked searches folded into `search`.
    topk_searches: AtomicU64,
}

impl Metrics {
    /// Fresh counters for a pool of `workers_total` workers.
    pub fn new(workers_total: usize) -> Metrics {
        Metrics {
            start: Instant::now(),
            requests_total: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            handlers_spawned: AtomicU64::new(0),
            connections_active: AtomicUsize::new(0),
            connections_shed: AtomicU64::new(0),
            connections_reused: AtomicU64::new(0),
            requests_per_conn_max: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            workers_busy: AtomicUsize::new(0),
            streams_total: AtomicU64::new(0),
            levels_streamed: AtomicU64::new(0),
            stream_bytes: AtomicU64::new(0),
            first_level_nanos: AtomicU64::new(0),
            first_level_count: AtomicU64::new(0),
            workers_total,
            level_times: Mutex::new(Vec::new()),
            search: std::array::from_fn(|_| AtomicU64::new(0)),
            topk_searches: AtomicU64::new(0),
        }
    }

    /// Folds one finished search into the aggregates; the ranked-only rows
    /// count for `ranked` searches alone.
    pub fn record_search(&self, stats: &TaneStats, ranked: bool) {
        if ranked {
            self.topk_searches.fetch_add(1, Ordering::Relaxed);
        }
        for (total, c) in self.search.iter().zip(stats.counters()) {
            let add = match c.value {
                _ if c.kind == CounterKind::Ranked && !ranked => continue,
                CounterValue::Count(n) => n,
                CounterValue::Secs(d) => d.as_nanos() as u64,
                CounterValue::LevelSecs(_) | CounterValue::Level(_) => continue,
            };
            total.fetch_add(add, Ordering::Relaxed);
        }
        let mut levels = self.level_times.lock().unwrap_or_else(|e| e.into_inner());
        if levels.len() < stats.level_times.len() {
            levels.resize(stats.level_times.len(), LevelAgg::default());
        }
        for (agg, t) in levels.iter_mut().zip(&stats.level_times) {
            agg.runs += 1;
            agg.nanos += t.as_nanos() as u64;
        }
    }

    /// Records the end of one connection that served `served` requests.
    pub fn record_connection_end(&self, served: u64) {
        self.requests_per_conn_max
            .fetch_max(served, Ordering::Relaxed);
    }

    /// Records the latency from request arrival to the first streamed
    /// level chunk of one `/v1/discover` stream.
    pub fn record_first_level_latency(&self, latency: std::time::Duration) {
        self.first_level_nanos
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
        self.first_level_count.fetch_add(1, Ordering::Relaxed);
    }

    /// The `/metrics` document. Queue and cache state is owned elsewhere
    /// and passed in: `(depth, capacity)` and a [`CacheStats`] snapshot.
    pub fn render(&self, queue: (usize, usize), cache: CacheStats) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        let levels: Vec<Json> = {
            let level_times = self.level_times.lock().unwrap_or_else(|e| e.into_inner());
            level_times
                .iter()
                .enumerate()
                .map(|(i, agg)| {
                    Json::obj([
                        ("level", Json::Num((i + 1) as f64)),
                        ("runs", n(agg.runs)),
                        ("total_secs", Json::Num(agg.nanos as f64 / 1e9)),
                    ])
                })
                .collect()
        };
        // The frozen `search` shape names its rows; seconds rows render
        // their nanosecond totals as seconds.
        let zero = TaneStats::default();
        let rows = zero.counters();
        let total = |name: &str| match rows.iter().position(|c| c.name == name) {
            Some(i) => {
                let sum = self.search[i].load(Ordering::Relaxed);
                match rows[i].value {
                    CounterValue::Secs(_) => Json::Num(sum as f64 / 1e9),
                    _ => n(sum),
                }
            }
            None => Json::Null,
        };
        let row = |name: &'static str| (name, total(name));
        Json::obj([
            ("uptime_secs", Json::Num(self.start.elapsed().as_secs_f64())),
            (
                "requests_total",
                n(self.requests_total.load(Ordering::Relaxed)),
            ),
            (
                "connections",
                Json::obj([
                    (
                        "accepted",
                        n(self.connections_total.load(Ordering::Relaxed)),
                    ),
                    (
                        "handlers_spawned",
                        n(self.handlers_spawned.load(Ordering::Relaxed)),
                    ),
                    (
                        "active",
                        Json::Num(self.connections_active.load(Ordering::Relaxed) as f64),
                    ),
                    ("shed", n(self.connections_shed.load(Ordering::Relaxed))),
                    ("reused", n(self.connections_reused.load(Ordering::Relaxed))),
                    (
                        "max_requests_per_conn",
                        n(self.requests_per_conn_max.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "queue",
                Json::obj([
                    ("depth", Json::Num(queue.0 as f64)),
                    ("capacity", Json::Num(queue.1 as f64)),
                    ("rejected", n(self.jobs_rejected.load(Ordering::Relaxed))),
                ]),
            ),
            (
                "workers",
                Json::obj([
                    ("total", Json::Num(self.workers_total as f64)),
                    (
                        "busy",
                        Json::Num(self.workers_busy.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ),
            (
                "jobs",
                Json::obj([
                    ("completed", n(self.jobs_completed.load(Ordering::Relaxed))),
                    ("failed", n(self.jobs_failed.load(Ordering::Relaxed))),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("hits", n(cache.hits)),
                    ("coalesced", n(cache.coalesced)),
                    ("misses", n(cache.misses)),
                    ("entries", Json::Num(cache.entries as f64)),
                    ("evictions", n(cache.evictions)),
                    (
                        "evicted_compute_secs",
                        Json::Num(cache.evicted_compute_secs),
                    ),
                    ("evicted_stale", n(cache.evicted_stale)),
                ]),
            ),
            (
                "search",
                Json::obj([
                    ("level_times", Json::Arr(levels)),
                    row("disk_bytes_read"),
                    row("disk_bytes_written"),
                    (
                        "store",
                        Json::obj([
                            ("evictions", total("store_evictions")),
                            ("pins", total("store_pins")),
                            ("oversized_resident", total("oversized_resident")),
                        ]),
                    ),
                    row("parallel_grains"),
                    row("worker_steals"),
                    row("worker_parks"),
                    row("worker_spin_secs"),
                    row("worker_busy_secs"),
                    row("fetch_stall_secs"),
                    (
                        "topk",
                        Json::obj([
                            ("searches", n(self.topk_searches.load(Ordering::Relaxed))),
                            ("bound_pruned", total("topk_bound_pruned")),
                            ("improvements", total("topk_improvements")),
                        ]),
                    ),
                ]),
            ),
            (
                "stream",
                Json::obj([
                    ("streams", n(self.streams_total.load(Ordering::Relaxed))),
                    (
                        "levels_streamed",
                        n(self.levels_streamed.load(Ordering::Relaxed)),
                    ),
                    ("stream_bytes", n(self.stream_bytes.load(Ordering::Relaxed))),
                    ("first_level_latency_secs", {
                        let count = self.first_level_count.load(Ordering::Relaxed);
                        let nanos = self.first_level_nanos.load(Ordering::Relaxed);
                        Json::Num(if count == 0 {
                            0.0
                        } else {
                            nanos as f64 / count as f64 / 1e9
                        })
                    }),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn render_shape_and_aggregation() {
        let m = Metrics::new(4);
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.jobs_completed.fetch_add(2, Ordering::Relaxed);
        let mut stats = TaneStats {
            level_times: vec![Duration::from_millis(10), Duration::from_millis(5)],
            disk_bytes_written: 1024,
            store_evictions: 7,
            store_pins: 9,
            oversized_resident: 1,
            parallel_grains: 12,
            worker_steals: 3,
            worker_parks: 5,
            worker_spin: Duration::from_millis(2),
            worker_busy: Duration::from_millis(40),
            ..TaneStats::default()
        };
        m.record_search(&stats, false);
        stats.level_times = vec![Duration::from_millis(10)];
        m.record_search(&stats, false);

        m.connections_total.fetch_add(2, Ordering::Relaxed);
        m.handlers_spawned.fetch_add(1, Ordering::Relaxed);
        m.connections_reused.fetch_add(1, Ordering::Relaxed);
        m.record_connection_end(9);
        m.record_connection_end(4);

        let cache = CacheStats {
            hits: 5,
            coalesced: 1,
            misses: 7,
            entries: 3,
            evictions: 2,
            evicted_compute_secs: 0.25,
            evicted_stale: 4,
        };
        let doc = m.render((2, 64), cache);
        assert_eq!(doc.get("requests_total").unwrap().as_usize(), Some(3));
        assert_eq!(
            doc.get("queue").unwrap().get("depth").unwrap().as_usize(),
            Some(2)
        );
        assert_eq!(
            doc.get("workers").unwrap().get("total").unwrap().as_usize(),
            Some(4)
        );
        assert_eq!(
            doc.get("cache").unwrap().get("hits").unwrap().as_usize(),
            Some(5)
        );
        assert_eq!(
            doc.get("cache")
                .unwrap()
                .get("evictions")
                .unwrap()
                .as_usize(),
            Some(2)
        );
        assert!(
            (doc.get("cache")
                .unwrap()
                .get("evicted_compute_secs")
                .unwrap()
                .as_f64()
                .unwrap()
                - 0.25)
                .abs()
                < 1e-12
        );
        assert_eq!(
            doc.get("cache")
                .unwrap()
                .get("evicted_stale")
                .unwrap()
                .as_usize(),
            Some(4)
        );
        let conns = doc.get("connections").unwrap();
        assert_eq!(conns.get("accepted").unwrap().as_usize(), Some(2));
        assert_eq!(conns.get("handlers_spawned").unwrap().as_usize(), Some(1));
        assert_eq!(conns.get("reused").unwrap().as_usize(), Some(1));
        assert_eq!(conns.get("shed").unwrap().as_usize(), Some(0));
        assert_eq!(
            conns.get("max_requests_per_conn").unwrap().as_usize(),
            Some(9)
        );
        let search = doc.get("search").unwrap();
        assert_eq!(
            search.get("disk_bytes_written").unwrap().as_usize(),
            Some(2048)
        );
        assert_eq!(search.get("parallel_grains").unwrap().as_usize(), Some(24));
        let store = search.get("store").unwrap();
        assert_eq!(store.get("evictions").unwrap().as_usize(), Some(14));
        assert_eq!(store.get("pins").unwrap().as_usize(), Some(18));
        assert_eq!(store.get("oversized_resident").unwrap().as_usize(), Some(2));
        assert_eq!(search.get("worker_steals").unwrap().as_usize(), Some(6));
        assert_eq!(search.get("worker_parks").unwrap().as_usize(), Some(10));
        let spin = search.get("worker_spin_secs").unwrap().as_f64().unwrap();
        assert!((spin - 0.004).abs() < 1e-9, "{spin}");
        let busy = search.get("worker_busy_secs").unwrap().as_f64().unwrap();
        assert!((busy - 0.080).abs() < 1e-9, "{busy}");
        assert_eq!(search.get("fetch_stall_secs").unwrap().as_f64(), Some(0.0));
        let levels = search.get("level_times").unwrap().as_array().unwrap();
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].get("runs").unwrap().as_usize(), Some(2));
        assert_eq!(levels[1].get("runs").unwrap().as_usize(), Some(1));
        let l1 = levels[0].get("total_secs").unwrap().as_f64().unwrap();
        assert!((l1 - 0.020).abs() < 1e-9);
        let stream = doc.get("stream").unwrap();
        assert_eq!(stream.get("levels_streamed").unwrap().as_usize(), Some(0));
        assert_eq!(
            stream.get("first_level_latency_secs").unwrap().as_f64(),
            Some(0.0)
        );
        // Valid JSON end to end.
        assert!(Json::parse(&doc.render()).is_ok());
    }

    #[test]
    fn first_level_latency_reports_the_mean() {
        let m = Metrics::new(1);
        m.record_first_level_latency(Duration::from_millis(10));
        m.record_first_level_latency(Duration::from_millis(30));
        m.levels_streamed.fetch_add(7, Ordering::Relaxed);
        m.stream_bytes.fetch_add(4096, Ordering::Relaxed);
        let doc = m.render(
            (0, 1),
            CacheStats {
                hits: 0,
                coalesced: 0,
                misses: 0,
                entries: 0,
                evictions: 0,
                evicted_compute_secs: 0.0,
                evicted_stale: 0,
            },
        );
        let stream = doc.get("stream").unwrap();
        assert_eq!(stream.get("levels_streamed").unwrap().as_usize(), Some(7));
        assert_eq!(stream.get("stream_bytes").unwrap().as_usize(), Some(4096));
        let mean = stream
            .get("first_level_latency_secs")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((mean - 0.020).abs() < 1e-9, "{mean}");
    }
}
