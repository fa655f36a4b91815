//! A persistent worker pool with work-stealing deques.
//!
//! TANE's per-level work — partition products, exact `g3` computations,
//! singleton partition construction — is embarrassingly parallel, but the
//! cost of individual items varies by orders of magnitude (a product costs
//! O(‖π̂'‖ + ‖π̂''‖), and stripped-partition sizes within one level differ
//! wildly). A pool of threads created *once per search* and re-dispatched
//! every level gives load balance without per-level thread spawns.
//!
//! ## Scheduling
//!
//! Earlier revisions had every worker claim grains from one shared atomic
//! cursor, which stops scaling past a couple of workers: the cursor's cache
//! line ping-pongs on every claim, and workers that run out of indices spin
//! in the claim loop. Dispatch now *pre-splits* the grains of a batch into
//! **per-worker bounded deques** (contiguous blocks, so each worker walks
//! ascending indices). A worker pops from the front of its own deque; when
//! that runs dry it **steals** the back half of a victim's deque — victims
//! probed first at random (a [`SplitMix64`] stream seeded only by the
//! worker id, so the probe order is deterministic, never entropy-driven)
//! and then in one full round-robin scan. Only if the full scan finds every
//! deque empty does the worker give up the epoch — a *bounded* number of
//! failed probes, after which it parks on the pool's condvar until the next
//! dispatch instead of spinning. Steals, claims, parks, and the time spent
//! hunting for work are counted per worker (see [`PoolCounters`]).
//!
//! Not every batch is worth a dispatch. [`WorkerPool::run_indexed`] takes
//! the batch's estimated cost and makes the whole decision: on a one-worker
//! pool, or below `DISPATCH_MIN_COST`, the batch is a plain in-order map
//! on the caller — no slots, no deques, one busy-time reading per batch.
//!
//! ## Determinism
//!
//! Parallel execution must not change any search result. Work items write
//! into an index-addressed `Slots` vector, so the gathered output is in
//! input order regardless of which worker computed what — steal order (and
//! the probe RNG) can only change *who* computes a slot, never *what* the
//! slot holds or the order it is consumed in. An inline batch is the same
//! in-order map, so both ways of running a batch are byte-identical
//! downstream.
//!
//! The pool is std-only: `std::thread`, atomics, mutexes, and condvars.

use crate::rng::SplitMix64;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A dispatched job: a borrowed closure with its lifetime erased.
///
/// Safety: `WorkerPool::run_overlapped` does not return until every
/// worker has finished the epoch, so the pointee outlives every
/// dereference.
struct JobPtr(*const (dyn Fn(usize) + Sync));

#[allow(unsafe_code)]
// SAFETY: the pointer is only dereferenced by pool workers while the
// `run_overlapped` call that published it is still blocked waiting for
// them, and the pointee is `Sync`, so sharing the pointer across threads
// is sound.
unsafe impl Send for JobPtr {}

/// Dispatch state shared between the owner and the workers.
struct State {
    /// Monotonically increasing job counter; a change signals new work.
    epoch: u64,
    /// The current job, present while an epoch is in flight.
    job: Option<JobPtr>,
    /// Workers that have not yet finished the current epoch.
    remaining: usize,
    /// Set by `Drop`; workers exit at the next wakeup.
    shutdown: bool,
    /// First panic payload captured from a worker this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Per-worker scheduling instrumentation cells (see [`PoolCounters`]).
#[derive(Default)]
struct CounterCells {
    claims: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    spin_nanos: AtomicU64,
}

struct Shared {
    state: Mutex<State>,
    /// Signals workers: new epoch or shutdown. Idle workers *park* here
    /// between epochs (counted in [`PoolCounters::parks`]) — they never
    /// spin across a dispatch boundary.
    work_cv: Condvar,
    /// Signals the owner: a worker finished the epoch.
    done_cv: Condvar,
    /// Total nanoseconds workers (the caller included) spent executing job
    /// bodies and inline batches, across the pool's lifetime.
    busy_nanos: AtomicU64,
    /// Per-worker steal/claim/park/spin counters, index = worker id.
    counters: Vec<CounterCells>,
}

/// A snapshot of one worker's (or, summed, the pool's) scheduling
/// instrumentation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolCounters {
    /// Work grains executed: deque pops (inline batches claim none).
    pub claims: u64,
    /// Successful steals — batches taken from another worker's deque.
    pub steals: u64,
    /// Times the worker parked on the pool condvar waiting for a dispatch.
    pub parks: u64,
    /// Time spent probing for work (failed and successful steal sweeps).
    /// Bounded by construction: a worker gives up an epoch after one full
    /// failed scan of every deque instead of spinning.
    pub spin: Duration,
    /// Time spent executing job bodies and inline batches. Pool-wide
    /// only: [`WorkerPool::totals`] fills it, summed across workers, so it
    /// can exceed wall-clock.
    pub busy: Duration,
}

impl PoolCounters {
    // ORDERING: Acquire — these counters land in TaneStats, which is part
    // of the byte-identical-results contract; the Acquire loads pair with
    // the workers' Release increments so the totals read after an epoch's
    // done-notification are exact, not merely eventually consistent.
    fn accumulate(&mut self, cells: &CounterCells) {
        self.claims += cells.claims.load(Ordering::Acquire);
        self.steals += cells.steals.load(Ordering::Acquire);
        self.parks += cells.parks.load(Ordering::Acquire);
        self.spin += Duration::from_nanos(cells.spin_nanos.load(Ordering::Acquire));
    }
}

/// Seed base of the steal-probe RNG: mixed with the worker id only, so the
/// probe sequence is a pure function of the worker — deterministic across
/// runs, machines, and epochs (no clocks, no OS entropy).
const STEAL_SEED: u64 = 0x7a9e_5eed_0c0d_e001;

/// Random victim probes per sweep before the deterministic full scan. Two
/// random probes spread contention; the full scan guarantees a worker only
/// gives up after observing every deque empty.
const RANDOM_PROBES: usize = 2;

/// A fixed pool of `threads − 1` worker threads plus the calling thread.
///
/// [`run_indexed`](WorkerPool::run_indexed) maps a batch of indices either
/// inline on the caller or across every worker (worker ids `0..threads`,
/// the caller being worker 0), blocking until all results are in. Worker
/// panics are captured and re-raised on the caller after the epoch
/// completes, and the pool remains usable afterwards. With `threads == 1`
/// no threads are spawned and every batch runs inline.
pub struct WorkerPool {
    shared: std::sync::Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool executing jobs on `threads` workers total.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> WorkerPool {
        assert!(threads >= 1, "need at least one worker");
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                shutdown: false,
                panic: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            busy_nanos: AtomicU64::new(0),
            counters: (0..threads).map(|_| CounterCells::default()).collect(),
        });
        let handles = (1..threads)
            .map(|id| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tane-pool-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("spawning pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// Total workers, caller included (the `threads` passed to `new`).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `body(worker_id)` on every worker concurrently, except that the
    /// caller first executes `driver` *while the spawned workers are
    /// already processing the job*, and only then joins in as worker 0.
    /// This is the level-overlap primitive: the search dispatches the next
    /// level's partition products here and runs the current level's serial
    /// driver tail (observer event, superkey closure) concurrently on the
    /// calling thread.
    ///
    /// # Panics
    ///
    /// Panics from `driver` or any `body` invocation are re-raised after
    /// the epoch fully drains (`driver`'s first); the pool stays usable.
    #[allow(unsafe_code)] // audited: the lifetime-erasing transmute below
                          // ORDERING: Release on busy_nanos — pairs with the Acquire load in
                          // totals; the epoch-drain mutex already orders everything else.
    fn run_overlapped(&self, body: &(dyn Fn(usize) + Sync), driver: impl FnOnce()) {
        {
            // SAFETY: the trait-object lifetime is erased to publish the
            // borrowed closure to the workers; this function does not
            // return until every worker has finished with it.
            let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
            let mut state = self.shared.state.lock().expect("pool state");
            state.epoch += 1;
            state.job = Some(JobPtr(body as *const _));
            state.remaining = self.handles.len();
            self.shared.work_cv.notify_all();
        }
        // The workers are computing already; the caller overlaps the serial
        // driver work, then participates as worker 0. Panics (from either)
        // are deferred until the other workers drain, so `body`'s captures
        // stay borrowed-valid for the whole epoch.
        let drove = catch_unwind(AssertUnwindSafe(driver));
        let caller = if drove.is_ok() {
            let t = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| body(0)));
            self.shared
                .busy_nanos
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Release);
            outcome
        } else {
            // Driver died: skip worker-0 participation, but the epoch must
            // still drain before the panic may unwind past the borrow.
            Ok(())
        };
        let worker_panic = {
            let mut state = self.shared.state.lock().expect("pool state");
            while state.remaining > 0 {
                state = self.shared.done_cv.wait(state).expect("pool state");
            }
            state.job = None;
            state.panic.take()
        };
        if let Err(payload) = drove {
            resume_unwind(payload);
        }
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }

    /// Computes `f(worker_id, i)` for every `i in 0..n` and returns the
    /// results in index order — byte-identical to a serial
    /// `(0..n).map(|i| f(0, i))`. `est_cost` is the batch's estimated work
    /// (for partition work: Σ‖π̂‖ elements) and makes the whole dispatch
    /// decision:
    ///
    /// * one worker, or `est_cost` below `DISPATCH_MIN_COST` (32 Ki): the
    ///   batch runs inline on the caller as exactly that serial map;
    /// * otherwise the indices are cut into `adaptive_grain`-sized grains,
    ///   pre-split into per-worker deques (contiguous blocks); workers pop
    ///   their own deque front and steal the back half of a victim's when
    ///   it runs dry (see the module docs).
    ///
    /// # Panics
    ///
    /// Re-raises panics from `f` (a dispatched batch does so once every
    /// worker has finished the epoch; the pool stays usable).
    pub fn run_indexed<T, F>(&self, n: usize, est_cost: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        self.run_indexed_overlapped(n, est_cost, f, || {})
    }

    /// [`run_indexed`](WorkerPool::run_indexed) with a serial `driver`
    /// closure that the caller executes *before* joining the computation —
    /// concurrently with the spawned workers when the batch is dispatched,
    /// simply first when it runs inline. The driver must not depend on any
    /// `f` output.
    // ORDERING: Release on every per-worker counter increment and on the
    // inline busy time — pairs with the Acquire loads in
    // PoolCounters::accumulate and WorkerPool::totals (stats are results).
    pub fn run_indexed_overlapped<T, F, D>(
        &self,
        n: usize,
        est_cost: usize,
        f: F,
        driver: D,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
        D: FnOnce(),
    {
        let threads = self.threads;
        if threads == 1 || est_cost < DISPATCH_MIN_COST {
            driver();
            let t = Instant::now();
            let out = (0..n).map(|i| f(0, i)).collect();
            self.shared
                .busy_nanos
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Release);
            return out;
        }
        let grain = adaptive_grain(n, est_cost, threads);
        let slots = Slots::new(n);
        let n_grains = n.div_ceil(grain);
        // Contiguous grain blocks per worker: worker w owns grains
        // [w·G/T, (w+1)·G/T). Deques are bounded by construction — the
        // ranges in flight across all deques never exceed the dispatch's
        // G = ⌈n/grain⌉ (steals move ranges, they never duplicate them).
        let queues: Vec<Mutex<VecDeque<(usize, usize)>>> = (0..threads)
            .map(|w| {
                let lo = w * n_grains / threads;
                let hi = (w + 1) * n_grains / threads;
                let mut q = VecDeque::with_capacity(hi - lo);
                for g in lo..hi {
                    q.push_back((g * grain, ((g + 1) * grain).min(n)));
                }
                Mutex::new(q)
            })
            .collect();
        let shared = &self.shared;
        self.run_overlapped(
            &|worker| {
                let cells = &shared.counters[worker];
                let mut rng = SplitMix64::new(STEAL_SEED.wrapping_add(worker as u64));
                loop {
                    let range = queues[worker].lock().expect("work deque").pop_front();
                    if let Some((start, end)) = range {
                        cells.claims.fetch_add(1, Ordering::Release);
                        for i in start..end {
                            slots.put(i, f(worker, i));
                        }
                        continue;
                    }
                    // Own deque dry: a bounded hunt for work — a couple of
                    // random probes, then one full scan. Give up (and later
                    // park on the pool condvar) only after the scan saw
                    // every deque empty.
                    let hunt = Instant::now();
                    let mut stolen: Option<Vec<(usize, usize)>> = None;
                    let probes = (0..RANDOM_PROBES)
                        .map(|_| (rng.next_u64() % threads as u64) as usize)
                        .chain((0..threads).map(|k| (worker + 1 + k) % threads));
                    for victim in probes {
                        if victim == worker {
                            continue;
                        }
                        let mut vq = queues[victim].lock().expect("work deque");
                        let len = vq.len();
                        if len > 0 {
                            // Take the back half (rounded up), preserving
                            // range order; the victim keeps its front.
                            let take = len - len / 2;
                            stolen = Some(vq.drain(len - take..).collect());
                            break;
                        }
                    }
                    cells
                        .spin_nanos
                        .fetch_add(hunt.elapsed().as_nanos() as u64, Ordering::Release);
                    match stolen {
                        Some(batch) => {
                            cells.steals.fetch_add(1, Ordering::Release);
                            // Never hold two deque locks at once: the
                            // victim's guard dropped at the end of the scan.
                            queues[worker].lock().expect("work deque").extend(batch);
                        }
                        None => return,
                    }
                }
            },
            driver,
        );
        slots.into_vec()
    }

    /// Summed scheduling counters and busy time across all workers, over
    /// the pool's lifetime.
    // ORDERING: Acquire — busy time is reported in TaneStats; pairs with
    // the Release fetch_adds at every body-timing site.
    pub fn totals(&self) -> PoolCounters {
        let mut t = PoolCounters {
            busy: Duration::from_nanos(self.shared.busy_nanos.load(Ordering::Acquire)),
            ..PoolCounters::default()
        };
        for cells in &self.shared.counters {
            t.accumulate(cells);
        }
        t
    }
}

/// The grain size for a batch of `n_items` work items with an estimated
/// total cost of `est_cost` units (for partition work: Σ‖π̂‖ elements),
/// split across `threads` workers.
///
/// Two pressures trade off: grains must be *large* enough that deque
/// traffic is amortized (≈ [`GRAIN_TARGET_COST`] units each), and *small*
/// enough that every worker sees several of them (item costs within a TANE
/// level differ by orders of magnitude, so fewer than a handful of grains
/// per worker re-creates static-chunk imbalance). Deterministic: a pure
/// function of the batch shape, never of timing.
fn adaptive_grain(n_items: usize, est_cost: usize, threads: usize) -> usize {
    if n_items == 0 {
        return 1;
    }
    let avg = (est_cost / n_items).max(1);
    let by_cost = (GRAIN_TARGET_COST / avg).max(1);
    let by_balance = (n_items / (threads.max(1) * GRAINS_PER_WORKER)).max(1);
    by_cost.min(by_balance)
}

/// Estimated work units (stripped-partition elements) to aim for per
/// grain; one grain then costs enough to dwarf a deque pop.
pub const GRAIN_TARGET_COST: usize = 1 << 14;

/// Minimum estimated work (stripped-partition elements `Σ‖π̂‖` across a
/// batch) before a batch is dispatched to the workers; below this, waking
/// them costs more than the work. Product and `g3` cost is proportional to
/// partition elements, not item count, so a ten-product level over
/// millions of rows still dispatches.
const DISPATCH_MIN_COST: usize = 1 << 15;

/// Minimum grains per worker the adaptive split aims for, so stealing has
/// something to balance with.
const GRAINS_PER_WORKER: usize = 4;

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state");
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[allow(unsafe_code)] // audited: dereferences the pointer `run_overlapped` published
                      // ORDERING: Release on busy_nanos and the park counter — pairs with
                      // the Acquire loads in totals/accumulate.
fn worker_loop(shared: &Shared, id: usize) {
    let mut last_epoch = 0u64;
    let mut state = shared.state.lock().expect("pool state");
    loop {
        if state.shutdown {
            return;
        }
        if state.epoch != last_epoch {
            last_epoch = state.epoch;
            // SAFETY: `run_overlapped` published this pointer and blocks until
            // `remaining` reaches zero, which happens strictly after this
            // worker's decrement below — the closure is alive throughout.
            let body = unsafe { &*state.job.as_ref().expect("job for new epoch").0 };
            drop(state);
            let t = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| body(id)));
            shared
                .busy_nanos
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Release);
            state = shared.state.lock().expect("pool state");
            if let Err(payload) = outcome {
                if state.panic.is_none() {
                    state.panic = Some(payload);
                }
            }
            state.remaining -= 1;
            if state.remaining == 0 {
                shared.done_cv.notify_all();
            }
        } else {
            // No work: park until the next dispatch (or shutdown). This is
            // a real condvar wait, not a spin — the park counter proves it.
            shared.counters[id].parks.fetch_add(1, Ordering::Release);
            state = shared.work_cv.wait(state).expect("pool state");
        }
    }
}

/// An index-addressed output vector for parallel producers: any worker may
/// fill any slot, and [`into_vec`](Slots::into_vec) gathers the values in
/// index order, making parallel output order-independent of scheduling.
///
/// Each slot is its own mutex, so concurrent writes to distinct indices
/// never contend; writing the same index twice keeps the later value.
struct Slots<T> {
    cells: Vec<Mutex<Option<T>>>,
}

impl<T: Send> Slots<T> {
    /// `n` empty slots.
    fn new(n: usize) -> Slots<T> {
        Slots {
            cells: (0..n).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Fills slot `i`.
    fn put(&self, i: usize, value: T) {
        *self.cells[i].lock().expect("slot") = Some(value);
    }

    /// All values, in index order.
    ///
    /// # Panics
    ///
    /// Panics if any slot was never filled.
    fn into_vec(self) -> Vec<T> {
        self.cells
            .into_iter()
            .enumerate()
            .map(|(i, cell)| {
                cell.into_inner()
                    .expect("slot")
                    .unwrap_or_else(|| panic!("slot {i} never filled"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A cost that makes a batch of `n` items dispatch with one-index
    /// grains: every item alone reaches the grain target.
    fn dispatched(n: usize) -> usize {
        n * GRAIN_TARGET_COST
    }

    #[test]
    fn run_indexed_matches_serial_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run_indexed(100, dispatched(100), |_worker, i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(pool.totals().claims > 0);
        assert!(pool.totals().busy > Duration::ZERO);
    }

    #[test]
    fn pool_is_reused_across_jobs() {
        // Two searches' worth of dispatches on one pool: the same threads
        // serve both (thread count is observable via distinct worker ids).
        let pool = WorkerPool::new(3);
        let first = pool.run_indexed(50, dispatched(50), |_w, i| i + 1);
        let second = pool.run_indexed(10, dispatched(10), |_w, i| i * 2);
        assert_eq!(first, (1..=50).collect::<Vec<_>>());
        assert_eq!(second, (0..10).map(|i| i * 2).collect::<Vec<_>>());
        let seen = Mutex::new(std::collections::BTreeSet::new());
        pool.run_overlapped(
            &|worker| {
                seen.lock().unwrap().insert(worker);
                // Hold every worker briefly so all three must participate.
                std::thread::sleep(Duration::from_millis(5));
            },
            || {},
        );
        assert_eq!(*seen.lock().unwrap(), (0..3).collect());
    }

    #[test]
    fn flood_of_tiny_grains_is_lossless_under_stealing() {
        // 10k single-index grains through 8 workers, with costs skewed so
        // some deque blocks take far longer than others — forcing steals.
        // Every grain must execute exactly once and the gathered output
        // must be byte-identical to the serial map.
        const N: usize = 10_000;
        let pool = WorkerPool::new(8);
        let executions = AtomicUsize::new(0);
        let out = pool.run_indexed(N, dispatched(N), |_worker, i| {
            executions.fetch_add(1, Ordering::Relaxed);
            if i < N / 8 {
                // The first deque block is heavy by design: its owner lags,
                // so light workers must steal from it (or from each other)
                // on any schedule and core count.
                std::hint::black_box((0..2_000u64).sum::<u64>());
            }
            i.wrapping_mul(0x9e37_79b9) ^ i
        });
        assert_eq!(
            out,
            (0..N)
                .map(|i| i.wrapping_mul(0x9e37_79b9) ^ i)
                .collect::<Vec<_>>(),
            "stealing changed the gathered output"
        );
        assert_eq!(
            executions.load(Ordering::Relaxed),
            N,
            "grains were lost or duplicated"
        );
        let totals = pool.totals();
        assert_eq!(totals.claims, N as u64, "one claim per single-index grain");
        assert!(
            totals.steals > 0,
            "8 workers × 10k skewed grains must steal at least once"
        );
    }

    #[test]
    fn idle_workers_park_instead_of_spinning() {
        let pool = WorkerPool::new(4);
        // After a dispatch drains, every spawned worker must return to the
        // condvar (parks grow), not spin on empty deques. Poll briefly: the
        // workers park as soon as the scheduler runs them again.
        let _ = pool.run_indexed(64, dispatched(64), |_w, i| i);
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.totals().parks == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let after_first = pool.totals().parks;
        assert!(
            after_first > 0,
            "spawned workers never parked after the epoch drained"
        );
        // Another dispatch on the parked pool: claims stay exact — nothing
        // lost across a park/wake cycle.
        let out = pool.run_indexed(64, dispatched(64), |_w, i| i);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert!(pool.totals().parks >= after_first);
        assert_eq!(pool.totals().claims, 128);
    }

    #[test]
    fn overlapped_driver_runs_alongside_the_job() {
        let pool = WorkerPool::new(4);
        let driver_ran = AtomicUsize::new(0);
        let out = pool.run_indexed_overlapped(
            200,
            dispatched(200),
            |_w, i| i + 7,
            || {
                driver_ran.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(out, (0..200).map(|i| i + 7).collect::<Vec<_>>());
        assert_eq!(driver_ran.load(Ordering::Relaxed), 1);
        // threads == 1 degenerates to the serial order: driver, then body.
        let serial = WorkerPool::new(1);
        let order = Mutex::new(Vec::new());
        let out = serial.run_indexed_overlapped(
            3,
            dispatched(3),
            |_w, i| {
                order.lock().unwrap().push(format!("item{i}"));
                i
            },
            || order.lock().unwrap().push("driver".into()),
        );
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(
            *order.lock().unwrap(),
            vec!["driver", "item0", "item1", "item2"]
        );
    }

    #[test]
    fn cheap_batches_run_inline_on_the_caller() {
        // Below the dispatch gate even a 4-worker pool maps the batch on
        // the caller: driver first, then every item in index order on
        // worker 0, timed as busy, with no grain claimed or stolen.
        let pool = WorkerPool::new(4);
        let order = Mutex::new(Vec::new());
        let out = pool.run_indexed_overlapped(
            50,
            DISPATCH_MIN_COST - 1,
            |worker, i| {
                assert_eq!(worker, 0, "an inline batch runs on the caller");
                order.lock().unwrap().push(Some(i));
                i * 3
            },
            || order.lock().unwrap().push(None),
        );
        assert_eq!(out, (0..50).map(|i| i * 3).collect::<Vec<_>>());
        let want: Vec<Option<usize>> = std::iter::once(None).chain((0..50).map(Some)).collect();
        assert_eq!(*order.lock().unwrap(), want);
        assert!(pool.totals().busy > Duration::ZERO);
        let totals = pool.totals();
        assert_eq!((totals.claims, totals.steals), (0, 0));
    }

    #[test]
    fn overlapped_driver_panic_propagates_after_drain() {
        let pool = WorkerPool::new(4);
        let executed = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_overlapped(
                &|_worker| {
                    executed.fetch_add(1, Ordering::Relaxed);
                },
                || panic!("driver exploded"),
            );
        }));
        let err = outcome.expect_err("driver panic must reach the caller");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("driver exploded"), "unexpected payload: {msg}");
        // The spawned workers all ran their bodies; the pool still works.
        assert_eq!(executed.load(Ordering::Relaxed), 3);
        assert_eq!(
            pool.run_indexed(5, dispatched(5), |_w, i| i),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let attempts = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_overlapped(
                &|worker| {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    if worker == 2 {
                        panic!("worker 2 exploded");
                    }
                },
                || {},
            );
        }));
        let err = outcome.expect_err("worker panic must reach the caller");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("exploded"), "unexpected payload: {msg}");
        // The pool still works after the panic.
        let out = pool.run_indexed(20, dispatched(20), |_w, i| i);
        assert_eq!(out, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn caller_panic_propagates_too() {
        let pool = WorkerPool::new(2);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_overlapped(
                &|worker| {
                    if worker == 0 {
                        panic!("caller side");
                    }
                },
                || {},
            );
        }));
        assert!(outcome.is_err());
        assert_eq!(pool.run_indexed(3, dispatched(3), |_w, i| i), vec![0, 1, 2]);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let out = pool.run_indexed(10, dispatched(10), |worker, i| {
            assert_eq!(worker, 0, "no threads to hand work to");
            i
        });
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(pool.totals().claims, 0, "an inline batch claims no grain");
        assert!(std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(1, dispatched(1), |_, _| panic!("inline"));
        }))
        .is_err());
    }

    #[test]
    fn adaptive_grain_tracks_cost_and_balance() {
        // Heavy items: one item already exceeds the target cost → grain 1.
        assert_eq!(adaptive_grain(100, 100 * GRAIN_TARGET_COST, 8), 1);
        // Featherweight items: grain grows, but stays small enough that
        // every worker sees several grains.
        let g = adaptive_grain(10_000, 10_000, 8);
        assert!(g > 1, "tiny items must coalesce");
        assert!(10_000 / g >= 8 * 4, "at least 4 grains per worker");
        // Degenerate shapes stay valid.
        assert_eq!(adaptive_grain(0, 0, 8), 1);
        assert_eq!(adaptive_grain(5, 0, 8), 1);
        assert!(adaptive_grain(3, 1 << 30, 1) >= 1);
    }

    #[test]
    fn slots_gather_in_index_order() {
        let slots = Slots::new(4);
        for i in (0..4).rev() {
            slots.put(i, i * 10);
        }
        assert_eq!(slots.into_vec(), vec![0, 10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "never filled")]
    fn unfilled_slot_panics_on_gather() {
        let slots: Slots<usize> = Slots::new(2);
        slots.put(0, 7);
        let _ = slots.into_vec();
    }
}
