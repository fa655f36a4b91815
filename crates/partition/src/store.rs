//! Partition stores: where level-(ℓ−1) partitions live between levels.
//!
//! The paper ships two implementations (Section 7): **TANE/MEM** keeps every
//! partition in main memory, while the scalable **TANE** "keeps most of the
//! partitions on disk" (Section 6: *O(s) disk accesses of size O(|r|)*,
//! *disk space O(s_max·|r|)*). [`PartitionStore`] abstracts over the two so
//! the search algorithm is written once:
//!
//! * [`MemoryStore`] — a hash map; the TANE/MEM behaviour.
//! * [`SegmentStore`] — a concurrent segment storage engine. The writer
//!   packs a whole lattice level into append-only *segment files* (one
//!   sequential write per partition, many partitions per file) and seals
//!   them at level end; sealed segments are immutable and are read via
//!   positioned `pread` through a bounded file-handle cache, so
//!   [`get`](PartitionStore::get) takes `&self` and any number of worker
//!   threads fetch concurrently. Hot partitions live in a sharded clock
//!   cache with single-flight miss loading; snapshot pins (epoch-tagged,
//!   in the style of an LSM tree's snapshot tracker) let an in-flight
//!   read phase keep a stable view while dead segments are reaped
//!   underneath. A segment file is deleted as soon as all of its
//!   partitions have been removed *and* no snapshot that could observe it
//!   is still open — so disk space tracks the live levels
//!   (`O(s_max·|r|)`), matching the paper's accounting.
//!
//! Partitions are handed out as `Arc<StrippedPartition>` so a cached
//! partition can be used for several products without copies.
//!
//! ## Write/read discipline (DESIGN §13)
//!
//! All mutation — `put`, `remove`, `seal_level` — takes `&mut self` and
//! therefore happens on the serial driver thread, strictly between
//! concurrent read phases (the borrow checker enforces the exclusion).
//! Reads are `&self` and may run from any thread. Eviction runs only at
//! deterministic points (puts, seals, phase ends), never behind a
//! concurrent `get`, which is what keeps the disk-read counters
//! byte-identical across worker counts (see `evict_to_budget`).
//!
//! Lock order (declared in tane-lint's R3 `LOCK_ORDER`): `clock` before
//! `shard` (eviction walks the clock queue and dips into shards), and
//! `shard` before `done` (publishing a loaded partition installs the
//! cache entry and wakes single-flight waiters in one critical section).
//! No other nesting exists; `handles` and `snapshots` are always taken
//! alone.

use crate::stripped::StrippedPartition;
use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use tane_util::{AttrSet, FxHashMap, Stopwatch};

/// Errors from partition stores (only the disk-backed store can fail).
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A spilled partition failed validation when read back.
    Corrupt {
        /// The attribute set whose record is damaged.
        key: AttrSet,
        /// Description of the corruption.
        message: String,
    },
    /// `get` was called for a key that was never `put` (or was removed).
    Missing {
        /// The requested attribute set.
        key: AttrSet,
    },
    /// Writing the partition would push the store past its disk quota.
    QuotaExceeded {
        /// Bytes the rejected write needed.
        need: u64,
        /// Bytes already charged against the quota.
        used: u64,
        /// The quota limit in bytes.
        limit: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "partition store I/O error: {e}"),
            StoreError::Corrupt { key, message } => {
                write!(f, "corrupt partition record for {key:?}: {message}")
            }
            StoreError::Missing { key } => write!(f, "no partition stored for {key:?}"),
            StoreError::QuotaExceeded { need, used, limit } => write!(
                f,
                "disk quota exceeded: record of {need} bytes over a {limit}-byte \
                 quota with {used} bytes used"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Clones a [`StoreError`] for delivery to every single-flight waiter
/// (`io::Error` is not `Clone`, so the I/O case keeps kind + message).
fn clone_error(e: &StoreError) -> StoreError {
    match e {
        StoreError::Io(io) => StoreError::Io(io::Error::new(io.kind(), io.to_string())),
        StoreError::Corrupt { key, message } => StoreError::Corrupt {
            key: *key,
            message: message.clone(),
        },
        StoreError::Missing { key } => StoreError::Missing { key: *key },
        StoreError::QuotaExceeded { need, used, limit } => StoreError::QuotaExceeded {
            need: *need,
            used: *used,
            limit: *limit,
        },
    }
}

/// A shared disk-usage budget, charged by every [`SegmentStore`] that holds
/// a handle to it. The server creates one per dataset, so all searches over
/// a dataset — however many run concurrently — share one cap on spilled
/// partition bytes.
///
/// Charges follow segment files, not logical records: bytes are charged
/// when a record is appended and released when its segment file is deleted
/// (reaped or dropped), so `used` tracks what is actually on disk.
#[derive(Debug, Default)]
pub struct DiskQuota {
    used: AtomicU64,
    limit: u64,
}

impl DiskQuota {
    /// A quota of `limit_bytes` with nothing charged yet.
    pub fn new(limit_bytes: u64) -> DiskQuota {
        DiskQuota {
            used: AtomicU64::new(0),
            limit: limit_bytes,
        }
    }

    /// Bytes currently charged.
    // ORDERING: Relaxed — advisory telemetry snapshot; admission decisions
    // re-read the cell inside try_charge's CAS loop, never through this.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// The limit in bytes.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    // ORDERING: Relaxed throughout — the quota cell is self-contained:
    // a successful charge publishes no other memory, so the CAS only
    // needs atomicity of the read-modify-write, not an ordering edge.
    fn try_charge(&self, need: u64) -> Result<(), StoreError> {
        let mut used = self.used.load(Ordering::Relaxed);
        loop {
            if used.saturating_add(need) > self.limit {
                return Err(StoreError::QuotaExceeded {
                    need,
                    used,
                    limit: self.limit,
                });
            }
            match self.used.compare_exchange_weak(
                used,
                used + need,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(now) => used = now,
            }
        }
    }

    fn release(&self, bytes: u64) {
        // ORDERING: Relaxed — same self-contained-cell argument as
        // try_charge; an un-charge orders nothing else.
        self.used.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// Storage for the partitions of one lattice level.
pub trait PartitionStore {
    /// Stores the partition for `key`, replacing any previous one.
    fn put(&mut self, key: AttrSet, partition: StrippedPartition) -> Result<(), StoreError>;

    /// Retrieves the partition for `key`. Takes `&self`: implementations
    /// must support concurrent retrieval from multiple threads.
    ///
    /// # Errors
    ///
    /// [`StoreError::Missing`] if the key is not present;
    /// [`StoreError::Io`]/[`StoreError::Corrupt`] from the disk store.
    fn get(&self, key: AttrSet) -> Result<Arc<StrippedPartition>, StoreError>;

    /// Drops the partition for `key` (no-op if absent). Used when a level
    /// has been fully processed and its partitions are no longer needed.
    fn remove(&mut self, key: AttrSet);

    /// Declares the current batch of `put`s complete. The disk store seals
    /// the active segment (making every written record immutable and
    /// readable via `pread`) and releases the level's cache pins; the
    /// memory store does nothing.
    fn seal_level(&mut self) -> Result<(), StoreError> {
        Ok(())
    }

    /// The number of elements `‖π̂‖` of the stored partition, without any
    /// I/O — the search's parallel-dispatch gate runs on these estimates
    /// so it never has to prefetch. `None` if the key is absent.
    fn elements_hint(&self, key: AttrSet) -> Option<usize>;

    /// Number of partitions currently stored.
    fn len(&self) -> usize;

    /// `true` iff nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of partition payload currently resident in main memory.
    fn resident_bytes(&self) -> usize;
}

/// The TANE/MEM store: everything in a hash map.
#[derive(Debug, Default)]
pub struct MemoryStore {
    map: FxHashMap<AttrSet, Arc<StrippedPartition>>,
    bytes: usize,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }
}

impl PartitionStore for MemoryStore {
    fn put(&mut self, key: AttrSet, partition: StrippedPartition) -> Result<(), StoreError> {
        let size = partition.size_bytes();
        if let Some(old) = self.map.insert(key, Arc::new(partition)) {
            self.bytes -= old.size_bytes();
        }
        self.bytes += size;
        Ok(())
    }

    fn get(&self, key: AttrSet) -> Result<Arc<StrippedPartition>, StoreError> {
        self.map
            .get(&key)
            .cloned()
            .ok_or(StoreError::Missing { key })
    }

    fn remove(&mut self, key: AttrSet) {
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.size_bytes();
        }
    }

    fn elements_hint(&self, key: AttrSet) -> Option<usize> {
        self.map.get(&key).map(|p| p.num_elements())
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn resident_bytes(&self) -> usize {
        self.bytes
    }
}

/// Monotone counter used to give each `SegmentStore` a unique directory.
static STORE_ID: AtomicU64 = AtomicU64::new(0);

/// Rotate to a fresh segment file once the active one exceeds this size.
const SEGMENT_ROTATE_BYTES: u64 = 32 << 20;

/// Shards of the partition cache. A power of two; eight keeps shard
/// contention negligible at the pool's worker counts while keeping the
/// driver-side sweeps (seal, unpin) cheap.
const CACHE_SHARDS: usize = 8;

/// At most this many segment read handles stay open. Handles are plain
/// `File`s shared as `Arc` and read with positioned `pread`, so one handle
/// serves any number of concurrent readers.
const HANDLE_CACHE_CAP: usize = 32;

/// Location of one spilled partition.
#[derive(Debug, Clone, Copy)]
struct EntryLoc {
    segment: u32,
    offset: u64,
    /// Total record length in bytes — one `pread` fetches the whole record.
    len: u32,
    /// `‖π̂‖` of the stored partition, for I/O-free size estimates.
    elements: u32,
}

/// One segment file.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    /// Keys still pointing into this segment; the file is doomed at zero.
    live: usize,
    /// Bytes written into this segment (the quota charge to release).
    bytes: u64,
    /// Sealed segments are immutable and safe for positioned reads.
    sealed: bool,
}

/// A dead segment file whose deletion waits for the snapshots that could
/// still observe it. `epoch` is the tracker's next-epoch value at doom
/// time: every read phase open back then has a smaller epoch, so the file
/// is reaped once the minimum open epoch reaches `epoch` (or none is open).
#[derive(Debug)]
struct Doomed {
    epoch: u64,
    path: PathBuf,
    bytes: u64,
}

/// Epoch source for snapshot pins (the `snapshots` lock).
#[derive(Debug, Default)]
struct SnapshotTracker {
    next_epoch: u64,
    open: std::collections::BTreeSet<u64>,
}

/// An open read phase (snapshot pin), returned by
/// [`SegmentStore::begin_read_phase`]. A plain token, not a borrow — the
/// driver may interleave `&mut` writer calls (e.g. `remove`) while a phase
/// is open; segments doomed in that window stay on disk until the phase
/// ends. Ending the phase is explicit: [`SegmentStore::end_read_phase`].
#[derive(Debug)]
#[must_use = "a read phase pins cache entries until end_read_phase"]
pub struct ReadPhase {
    epoch: u64,
}

/// One resident cache entry.
#[derive(Debug)]
struct Entry {
    part: Arc<StrippedPartition>,
    bytes: usize,
    /// Still part of the unsealed active level: never evicted, enqueued
    /// into the clock at `seal_level`.
    active: bool,
    /// Pinned by the open read phase: never evicted, enqueued at
    /// `end_read_phase`.
    pinned: bool,
    /// Clock reference bit; granted one second chance per sweep.
    accessed: bool,
    /// Already present in the clock queue (prevents duplicates).
    queued: bool,
}

/// Single-flight slot for a partition being loaded from disk: the first
/// missing reader loads, every concurrent reader of the same key waits on
/// `cv` for the published result.
#[derive(Debug)]
struct LoadSlot {
    done: Mutex<Option<Result<Arc<StrippedPartition>, StoreError>>>,
    cv: Condvar,
}

#[derive(Debug)]
enum Slot {
    Ready(Entry),
    Loading(Arc<LoadSlot>),
}

#[derive(Debug, Default)]
struct Shard {
    map: FxHashMap<AttrSet, Slot>,
}

/// Bounded cache of open segment read handles.
#[derive(Debug, Default)]
struct HandleCache {
    open: FxHashMap<u32, (Arc<fs::File>, u64)>,
    tick: u64,
}

/// The scalable-TANE store: a concurrent segment storage engine. See the
/// module docs for the architecture and DESIGN §13 for the lifecycle and
/// determinism arguments.
///
/// Record format (little-endian): magic `b"TANE"`, `u32 n_rows`,
/// `u32 n_classes`, `u32 n_elements`, the class sizes (`n_classes` × u32),
/// the `elements` array (`n_elements` × u32). Records are self-delimiting,
/// so a segment is just a concatenation of records.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    owns_dir: bool,
    cache_budget: usize,
    quota: Option<Arc<DiskQuota>>,

    // ---- writer state: touched through `&mut self` only ----
    active_id: u32,
    active_writer: Option<io::BufWriter<fs::File>>,
    active_bytes: u64,
    /// Keys written since the last seal, in put order — the deterministic
    /// clock-enqueue order for the level.
    active_keys: Vec<AttrSet>,
    segments: FxHashMap<u32, Segment>,
    index: FxHashMap<AttrSet, EntryLoc>,
    doomed: Vec<Doomed>,
    /// Reusable record buffer for serialization.
    scratch: Vec<u8>,
    writes: u64,
    bytes_written: u64,

    // ---- shared read state: interior mutability behind locks/atomics ----
    shards: Vec<Mutex<Shard>>,
    handles: Mutex<HandleCache>,
    snapshots: Mutex<SnapshotTracker>,
    /// The clock (second-chance FIFO) eviction queue. Entries join in
    /// deterministic driver order: level seals enqueue in put order,
    /// phase ends enqueue the phase's fetches in ascending key order.
    clock: Mutex<VecDeque<AttrSet>>,
    open_phases: AtomicU32,
    cache_bytes: AtomicUsize,
    reads: AtomicU64,
    bytes_read: AtomicU64,
    evictions: AtomicU64,
    pins: AtomicU64,
    oversized: AtomicU64,
    /// Nanoseconds `get` spent waiting on segment loads (see
    /// [`fetch_wait`](SegmentStore::fetch_wait)).
    fetch_wait_nanos: AtomicU64,
}

impl SegmentStore {
    /// Creates a segment store in a fresh temporary directory, keeping at
    /// most `cache_budget_bytes` of partitions resident.
    pub fn new(cache_budget_bytes: usize) -> Result<SegmentStore, StoreError> {
        // ORDERING: Relaxed — ID allocation needs only atomicity of the
        // increment; no other memory rides on it.
        let id = STORE_ID.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tane-partitions-{}-{}", std::process::id(), id));
        Self::create(dir, cache_budget_bytes, true, None)
    }

    /// Creates a segment store in a caller-managed directory (not removed
    /// on drop).
    pub fn in_dir(dir: PathBuf, cache_budget_bytes: usize) -> Result<SegmentStore, StoreError> {
        Self::create(dir, cache_budget_bytes, false, None)
    }

    /// [`SegmentStore::new`] with a shared disk quota: every record write
    /// is charged against `quota` and refused with
    /// [`StoreError::QuotaExceeded`] once the cap is reached.
    pub fn with_quota(
        cache_budget_bytes: usize,
        quota: Arc<DiskQuota>,
    ) -> Result<SegmentStore, StoreError> {
        // ORDERING: Relaxed — unique-ID increment, as in `new`.
        let id = STORE_ID.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("tane-partitions-{}-{}", std::process::id(), id));
        Self::create(dir, cache_budget_bytes, true, Some(quota))
    }

    fn create(
        dir: PathBuf,
        cache_budget_bytes: usize,
        owns_dir: bool,
        quota: Option<Arc<DiskQuota>>,
    ) -> Result<SegmentStore, StoreError> {
        fs::create_dir_all(&dir)?;
        Ok(SegmentStore {
            dir,
            owns_dir,
            cache_budget: cache_budget_bytes,
            quota,
            active_id: 0,
            active_writer: None,
            active_bytes: 0,
            active_keys: Vec::new(),
            segments: FxHashMap::default(),
            index: FxHashMap::default(),
            doomed: Vec::new(),
            scratch: Vec::new(),
            writes: 0,
            bytes_written: 0,
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            handles: Mutex::default(),
            snapshots: Mutex::default(),
            clock: Mutex::new(VecDeque::new()),
            open_phases: AtomicU32::new(0),
            cache_bytes: AtomicUsize::new(0),
            reads: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            pins: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            fetch_wait_nanos: AtomicU64::new(0),
        })
    }

    /// Number of partition records read back from disk so far.
    // ORDERING: Acquire — this counter is published into TaneStats;
    // pairs with the Release increments in read_record so a reader that
    // observed the search finish observes every read it performed.
    pub fn disk_reads(&self) -> u64 {
        self.reads.load(Ordering::Acquire)
    }

    /// Number of partition records written so far.
    pub fn disk_writes(&self) -> u64 {
        self.writes
    }

    /// Bytes of partition records read back from disk so far.
    // ORDERING: Acquire — stats-published; pairs with the Release
    // increment in read_record (see disk_reads).
    pub fn disk_bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Acquire)
    }

    /// Bytes of partition records spilled to disk so far.
    pub fn disk_bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Partitions evicted from the resident cache so far.
    // ORDERING: Acquire — stats-published; pairs with the Release
    // increment in evict_to_budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Acquire)
    }

    /// Cache entries pinned by read phases so far (each pin holds one
    /// fetched partition resident until its phase ends).
    // ORDERING: Acquire — stats-published; pairs with the Release
    // increment in load_and_publish.
    pub fn snapshot_pins(&self) -> u64 {
        self.pins.load(Ordering::Acquire)
    }

    /// Times an eviction sweep ended with the resident set still over
    /// budget — every remaining partition was pinned or active (e.g. a
    /// single partition larger than the whole budget).
    // ORDERING: Acquire — stats-published; pairs with the Release
    // increment in evict_to_budget.
    pub fn oversized_resident(&self) -> u64 {
        self.oversized.load(Ordering::Acquire)
    }

    /// Time [`get`](PartitionStore::get) spent waiting on segment loads —
    /// its own miss reads plus single-flight waits on another reader's —
    /// summed over every calling thread. Cache hits add nothing.
    // ORDERING: Acquire — stats-published; pairs with the Release
    // increment in add_fetch_wait (see disk_reads).
    pub fn fetch_wait(&self) -> Duration {
        Duration::from_nanos(self.fetch_wait_nanos.load(Ordering::Acquire))
    }

    // ORDERING: Release — pairs with the Acquire load in fetch_wait.
    fn add_fetch_wait(&self, since: Stopwatch) {
        self.fetch_wait_nanos
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Release);
    }

    /// Number of live (non-doomed) segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of segment read handles currently open (bounded by the
    /// handle cache).
    pub fn open_handles(&self) -> usize {
        let handles = &self.handles;
        let cache = handles.lock().unwrap_or_else(|e| e.into_inner());
        cache.open.len()
    }

    fn segment_path(&self, id: u32) -> PathBuf {
        self.dir.join(format!("segment-{id:06}.tane"))
    }

    fn shard_for(&self, key: AttrSet) -> &Mutex<Shard> {
        // Avalanche the bits so dense low-bit key populations spread; the
        // exact function is irrelevant to results (the cache is
        // content-addressed), only to contention.
        let h = key.bits().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &self.shards[(h >> 56) as usize % CACHE_SHARDS]
    }

    // ---- snapshot pins ------------------------------------------------

    /// Opens a read phase: until the matching [`end_read_phase`], every
    /// partition fetched from disk stays pinned in the cache (so repeated
    /// fetches of one parent cost one read no matter how many workers ask)
    /// and no segment file doomed during the phase is deleted. One phase
    /// at a time per store: phases are driver-side brackets around a
    /// concurrent read section, they do not nest.
    ///
    /// [`end_read_phase`]: SegmentStore::end_read_phase
    pub fn begin_read_phase(&self) -> ReadPhase {
        let snapshots = &self.snapshots;
        let mut tracker = snapshots.lock().unwrap_or_else(|e| e.into_inner());
        let epoch = tracker.next_epoch;
        tracker.next_epoch += 1;
        tracker.open.insert(epoch);
        drop(tracker);
        // ORDERING: Release — publishes the tracker insert above to the
        // Acquire pin-check in load_and_publish: a loader that sees the
        // phase open also sees its epoch registered.
        self.open_phases.fetch_add(1, Ordering::Release);
        ReadPhase { epoch }
    }

    /// Closes a read phase: unpins the phase's fetches (enqueueing them
    /// into the clock in ascending key order — a deterministic order, so
    /// eviction never depends on which worker fetched first) and evicts
    /// back to budget. Segments doomed during the phase become reapable;
    /// the next writer-side call deletes them.
    pub fn end_read_phase(&self, phase: ReadPhase) {
        // ORDERING: Release — everything the phase read happens-before
        // the counter drop; the unpin sweep below re-checks under locks.
        self.open_phases.fetch_sub(1, Ordering::Release);
        let snapshots = &self.snapshots;
        let mut tracker = snapshots.lock().unwrap_or_else(|e| e.into_inner());
        tracker.open.remove(&phase.epoch);
        drop(tracker);

        // Unpin this phase's fetches, shard by shard.
        let mut unpinned: Vec<AttrSet> = Vec::new();
        for shard in &self.shards {
            let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            // lint:allow(determinism): the keys collected here are sorted
            // before they feed the (deterministic) eviction order below.
            for (key, slot) in guard.map.iter_mut() {
                if let Slot::Ready(e) = slot {
                    if e.pinned {
                        e.pinned = false;
                        if !e.queued {
                            e.queued = true;
                            unpinned.push(*key);
                        }
                    }
                }
            }
        }
        unpinned.sort_unstable();
        let clock = &self.clock;
        let mut queue = clock.lock().unwrap_or_else(|e| e.into_inner());
        queue.extend(unpinned);
        drop(queue);
        self.evict_to_budget();
    }

    // ---- cache / eviction ---------------------------------------------

    /// Installs a freshly written partition as an *active* cache entry:
    /// resident and unevictable until the level seals (reads of unsealed
    /// records would need the writer's buffer; keeping the level resident
    /// is what lets the read path assume every indexed record on disk is
    /// sealed and immutable).
    fn insert_active(&self, key: AttrSet, part: Arc<StrippedPartition>) {
        let bytes = part.size_bytes();
        let shard = self.shard_for(key);
        let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        let old = guard.map.insert(
            key,
            Slot::Ready(Entry {
                part,
                bytes,
                active: true,
                pinned: false,
                accessed: true,
                queued: false,
            }),
        );
        drop(guard);
        let freed = match old {
            Some(Slot::Ready(e)) => e.bytes,
            _ => 0,
        };
        // ORDERING: Relaxed — cache accounting only steers eviction; every
        // mutation happens with a shard or clock guard recently held, and
        // the driver-serial sweep re-reads the cell each iteration.
        self.cache_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.cache_bytes.fetch_sub(freed, Ordering::Relaxed); // ORDERING: as above
    }

    /// Evicts idle entries (not active, not pinned) in clock order until
    /// the resident set fits the budget — *exactly*: a single partition
    /// larger than the whole budget is evicted like any other (and
    /// re-read on demand), never silently left pinning the cache over
    /// budget. If the sweep ends still over budget, everything left is
    /// pinned or active and [`oversized_resident`] records it.
    ///
    /// Called only from driver-serial points (put, seal, phase end), with
    /// deterministic queue contents and accessed bits — which worker
    /// fetched an entry first never changes *whether* it was fetched — so
    /// eviction, and with it every disk-read counter, is byte-identical
    /// across worker counts (DESIGN §13).
    ///
    /// [`oversized_resident`]: SegmentStore::oversized_resident
    // ORDERING: cache_bytes reads/writes are Relaxed (driver-serial sweep,
    // advisory accounting — see the comment in publish_entry); the
    // evictions/oversized increments are Release so the Acquire getters
    // that feed TaneStats observe exact totals.
    fn evict_to_budget(&self) {
        let clock = &self.clock;
        // lint:lock-order(clock -> shard): the sweep walks the clock queue
        // and dips into one shard per key; shard guards are dropped before
        // the next key, and no shard-holding path ever takes the clock.
        let mut queue = clock.lock().unwrap_or_else(|e| e.into_inner());
        // Each queued entry is popped at most twice per sweep (one second
        // chance); the bound makes that a hard guarantee.
        let mut budget_left = queue.len() * 2;
        while self.cache_bytes.load(Ordering::Relaxed) > self.cache_budget && budget_left > 0 {
            budget_left -= 1;
            let Some(key) = queue.pop_front() else { break };
            let shard = self.shard_for(key);
            let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            let Some(Slot::Ready(e)) = guard.map.get_mut(&key) else {
                continue; // removed since it was queued
            };
            if e.active || e.pinned {
                // Re-activated or re-pinned since queueing; it will be
                // re-enqueued when it next becomes idle.
                e.queued = false;
                continue;
            }
            if e.accessed {
                e.accessed = false;
                queue.push_back(key);
                continue;
            }
            let freed = e.bytes;
            guard.map.remove(&key);
            drop(guard);
            self.cache_bytes.fetch_sub(freed, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Release);
        }
        drop(queue);
        if self.cache_bytes.load(Ordering::Relaxed) > self.cache_budget {
            self.oversized.fetch_add(1, Ordering::Release);
        }
    }

    /// Drops a key's cache entry (any state), returning freed bytes.
    fn uncache(&self, key: AttrSet) {
        let shard = self.shard_for(key);
        let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(Slot::Ready(e)) = guard.map.remove(&key) {
            drop(guard);
            // ORDERING: Relaxed — advisory cache accounting, as above.
            self.cache_bytes.fetch_sub(e.bytes, Ordering::Relaxed);
        }
    }

    // ---- segment lifecycle --------------------------------------------

    fn ensure_active_writer(&mut self) -> Result<(), StoreError> {
        if self.active_writer.is_none() {
            let path = self.segment_path(self.active_id);
            let file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)?;
            self.segments.insert(
                self.active_id,
                Segment {
                    path,
                    live: 0,
                    bytes: 0,
                    sealed: false,
                },
            );
            self.active_writer = Some(io::BufWriter::new(file));
            self.active_bytes = 0;
        }
        Ok(())
    }

    /// Seals the active segment file: flushes the writer and marks the
    /// segment immutable. The level's cache entries stay *active* until
    /// [`seal_level`](PartitionStore::seal_level) — rotation is a file
    /// boundary, not a level boundary.
    fn seal_active_segment(&mut self) -> Result<(), StoreError> {
        if let Some(mut w) = self.active_writer.take() {
            w.flush()?;
            if let Some(seg) = self.segments.get_mut(&self.active_id) {
                seg.sealed = true;
            }
            let finished = self.active_id;
            self.active_id += 1;
            self.active_bytes = 0;
            self.doom_or_reap(finished);
        }
        Ok(())
    }

    fn rotate_if_needed(&mut self) -> Result<(), StoreError> {
        if self.active_bytes >= SEGMENT_ROTATE_BYTES {
            self.seal_active_segment()?;
        }
        Ok(())
    }

    /// If segment `id` has no live records, removes it from the live set
    /// and either deletes the file now (no open read phase) or dooms it
    /// until every phase open at this moment has ended.
    fn doom_or_reap(&mut self, id: u32) {
        let dead = match self.segments.get(&id) {
            Some(seg) => seg.live == 0 && seg.sealed,
            None => false,
        };
        if !dead {
            return;
        }
        let seg = self.segments.remove(&id).expect("checked above");
        // Drop our cached read handle; in-flight readers hold their own
        // `Arc<File>` clones, which keep the data readable even past the
        // unlink below (POSIX semantics).
        let handles = &self.handles;
        let mut cache = handles.lock().unwrap_or_else(|e| e.into_inner());
        cache.open.remove(&id);
        drop(cache);

        let snapshots = &self.snapshots;
        let tracker = snapshots.lock().unwrap_or_else(|e| e.into_inner());
        let any_open = !tracker.open.is_empty();
        let doom_epoch = tracker.next_epoch;
        drop(tracker);
        if any_open {
            self.doomed.push(Doomed {
                epoch: doom_epoch,
                path: seg.path,
                bytes: seg.bytes,
            });
        } else {
            let _ = fs::remove_file(&seg.path);
            if let Some(q) = &self.quota {
                q.release(seg.bytes);
            }
        }
    }

    /// Deletes every doomed segment whose dooming phases have all ended.
    fn reap_doomed(&mut self) {
        if self.doomed.is_empty() {
            return;
        }
        let snapshots = &self.snapshots;
        let tracker = snapshots.lock().unwrap_or_else(|e| e.into_inner());
        let min_open = tracker.open.first().copied();
        drop(tracker);
        let quota = self.quota.clone();
        self.doomed.retain(|d| {
            let reapable = match min_open {
                None => true,
                Some(min) => min >= d.epoch,
            };
            if reapable {
                let _ = fs::remove_file(&d.path);
                if let Some(q) = &quota {
                    q.release(d.bytes);
                }
            }
            !reapable
        });
    }

    // ---- record I/O ---------------------------------------------------

    fn serialize_record(scratch: &mut Vec<u8>, partition: &StrippedPartition) {
        scratch.clear();
        scratch.extend_from_slice(b"TANE");
        scratch.extend_from_slice(&(partition.n_rows() as u32).to_le_bytes());
        scratch.extend_from_slice(&(partition.num_classes() as u32).to_le_bytes());
        scratch.extend_from_slice(&(partition.num_elements() as u32).to_le_bytes());
        for class in partition.classes() {
            scratch.extend_from_slice(&(class.len() as u32).to_le_bytes());
        }
        for class in partition.classes() {
            for &row in class {
                scratch.extend_from_slice(&row.to_le_bytes());
            }
        }
    }

    /// Clones (or opens) the read handle for segment `id`. The handle
    /// cache is bounded: past [`HANDLE_CACHE_CAP`] the least-recently
    /// used handle is closed — readers that still hold its `Arc` finish
    /// unaffected, and a later read simply reopens.
    fn handle(&self, id: u32) -> Result<Arc<fs::File>, StoreError> {
        let handles = &self.handles;
        let mut cache = handles.lock().unwrap_or_else(|e| e.into_inner());
        cache.tick += 1;
        let tick = cache.tick;
        if let Some((file, last)) = cache.open.get_mut(&id) {
            *last = tick;
            return Ok(file.clone());
        }
        let path = match self.segments.get(&id) {
            Some(seg) => seg.path.clone(),
            None => {
                return Err(StoreError::Io(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("segment {id} is not live"),
                )))
            }
        };
        let file = Arc::new(fs::File::open(path)?);
        if cache.open.len() >= HANDLE_CACHE_CAP {
            // Ticks are unique, so the minimum is well defined and the
            // choice is order-insensitive.
            if let Some(&coldest) = cache
                .open
                .iter()
                .min_by_key(|(_, (_, t))| *t)
                .map(|(k, _)| k)
            {
                cache.open.remove(&coldest);
            }
        }
        cache.open.insert(id, (file.clone(), tick));
        Ok(file)
    }

    /// Reads and validates one record with a single positioned read; no
    /// seek state, so any number of threads read the same handle.
    fn read_record(&self, key: AttrSet, loc: EntryLoc) -> Result<StrippedPartition, StoreError> {
        if failpoint::take_corrupt_read() {
            return Err(StoreError::Corrupt {
                key,
                message: "injected read fault".into(),
            });
        }
        let file = self.handle(loc.segment)?;
        let mut buf = vec![0u8; loc.len as usize];
        file.read_exact_at(&mut buf, loc.offset).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                StoreError::Corrupt {
                    key,
                    message: "truncated record".into(),
                }
            } else {
                StoreError::Io(e)
            }
        })?;
        let partition = parse_record(key, &buf)?;
        // ORDERING: Release — pairs with the Acquire loads in the
        // disk_reads/disk_bytes_read getters that feed TaneStats.
        self.reads.fetch_add(1, Ordering::Release);
        self.bytes_read.fetch_add(loc.len as u64, Ordering::Release); // ORDERING: as above
        Ok(partition)
    }

    /// The miss path of [`get`](PartitionStore::get): single-flight loads
    /// the record, publishes the cache entry (pinned if a read phase is
    /// open), and wakes concurrent waiters.
    fn load_and_publish(
        &self,
        key: AttrSet,
        loc: EntryLoc,
        slot: &Arc<LoadSlot>,
    ) -> Result<Arc<StrippedPartition>, StoreError> {
        let result = self.read_record(key, loc).map(Arc::new);
        // ORDERING: Acquire — pairs with the Release in begin_read_phase:
        // seeing the phase open implies seeing its epoch in the tracker,
        // so the pin taken here is always unpinned by that phase's close.
        let pinned = self.open_phases.load(Ordering::Acquire) > 0;
        let shard = self.shard_for(key);
        let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        match &result {
            Ok(part) => {
                guard.map.insert(
                    key,
                    Slot::Ready(Entry {
                        part: part.clone(),
                        bytes: part.size_bytes(),
                        active: false,
                        pinned,
                        accessed: true,
                        queued: false,
                    }),
                );
                // ORDERING: Relaxed cache accounting (advisory, see
                // publish_entry); the pin counter is Release to pair with
                // the Acquire getter feeding TaneStats.
                self.cache_bytes
                    .fetch_add(part.size_bytes(), Ordering::Relaxed); // ORDERING: as above
                if pinned {
                    self.pins.fetch_add(1, Ordering::Release); // ORDERING: as above
                }
            }
            Err(_) => {
                guard.map.remove(&key);
            }
        }
        // Publish to waiters while still holding the shard lock, so a new
        // reader can never observe the Loading marker after its waiters
        // were already woken.
        // lint:lock-order(shard -> done): single-flight publication takes
        // the slot's done mutex under the shard lock by design; waiters
        // block on `done` only *after* releasing the shard, so the reverse
        // nesting never occurs.
        let mut done = slot.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = Some(match &result {
            Ok(p) => Ok(p.clone()),
            Err(e) => Err(clone_error(e)),
        });
        slot.cv.notify_all();
        drop(done);
        drop(guard);

        // Idle insertions (no phase open) join the clock right away, after
        // both locks are released (the clock is always the outermost lock).
        if result.is_ok() && !pinned {
            let clock = &self.clock;
            let mut queue = clock.lock().unwrap_or_else(|e| e.into_inner());
            queue.push_back(key);
            let shard = self.shard_for(key);
            let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(Slot::Ready(e)) = guard.map.get_mut(&key) {
                e.queued = true;
            }
        }
        result
    }
}

/// Parses and validates one serialized record.
fn parse_record(key: AttrSet, buf: &[u8]) -> Result<StrippedPartition, StoreError> {
    let corrupt = |message: &str| StoreError::Corrupt {
        key,
        message: message.into(),
    };
    if buf.len() < 16 {
        return Err(corrupt("truncated record"));
    }
    if &buf[0..4] != b"TANE" {
        return Err(corrupt("bad magic"));
    }
    let n_rows = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
    let n_classes = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
    let n_elements = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize;
    let sizes_end = 16usize
        .checked_add(
            n_classes
                .checked_mul(4)
                .ok_or_else(|| corrupt("class count overflow"))?,
        )
        .ok_or_else(|| corrupt("class count overflow"))?;
    if buf.len() < sizes_end {
        return Err(corrupt("truncated record"));
    }
    let mut begins = Vec::with_capacity(n_classes + 1);
    begins.push(0u32);
    let mut acc = 0u32;
    for chunk in buf[16..sizes_end].chunks_exact(4) {
        let size = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
        if size < 2 {
            return Err(corrupt("class of size < 2"));
        }
        acc = acc
            .checked_add(size)
            .ok_or_else(|| corrupt("element count overflow"))?;
        begins.push(acc);
    }
    if acc as usize != n_elements {
        return Err(StoreError::Corrupt {
            key,
            message: format!("class sizes sum to {acc}, header says {n_elements}"),
        });
    }
    let elements_end = sizes_end
        .checked_add(
            n_elements
                .checked_mul(4)
                .ok_or_else(|| corrupt("element count overflow"))?,
        )
        .ok_or_else(|| corrupt("element count overflow"))?;
    if buf.len() < elements_end {
        return Err(corrupt("truncated record"));
    }
    let mut elements = Vec::with_capacity(n_elements);
    for chunk in buf[sizes_end..elements_end].chunks_exact(4) {
        let e = u32::from_le_bytes(chunk.try_into().expect("chunk of 4"));
        if e as usize >= n_rows {
            return Err(corrupt("row index out of range"));
        }
        elements.push(e);
    }
    Ok(StrippedPartition::from_parts(n_rows, elements, begins))
}

impl PartitionStore for SegmentStore {
    fn put(&mut self, key: AttrSet, partition: StrippedPartition) -> Result<(), StoreError> {
        self.ensure_active_writer()?;
        let mut scratch = std::mem::take(&mut self.scratch);
        Self::serialize_record(&mut scratch, &partition);
        let len = scratch.len() as u64;
        if let Some(q) = &self.quota {
            if let Err(e) = q.try_charge(len) {
                self.scratch = scratch;
                return Err(e);
            }
        }

        // Replacing a key: release its old location first.
        if let Some(old) = self.index.remove(&key) {
            if let Some(seg) = self.segments.get_mut(&old.segment) {
                seg.live -= 1;
            }
            self.doom_or_reap(old.segment);
        }

        let offset = self.active_bytes;
        let writer = self.active_writer.as_mut().expect("ensured above");
        let written = writer.write_all(&scratch);
        self.scratch = scratch;
        if let Err(e) = written {
            if let Some(q) = &self.quota {
                q.release(len);
            }
            return Err(e.into());
        }
        self.active_bytes += len;
        self.bytes_written += len;
        self.writes += 1;

        self.index.insert(
            key,
            EntryLoc {
                segment: self.active_id,
                offset,
                len: len as u32,
                elements: partition.num_elements() as u32,
            },
        );
        let seg = self
            .segments
            .get_mut(&self.active_id)
            .expect("active segment registered");
        seg.live += 1;
        seg.bytes += len;
        self.insert_active(key, Arc::new(partition));
        self.active_keys.push(key);
        self.rotate_if_needed()?;
        self.evict_to_budget();
        self.reap_doomed();
        Ok(())
    }

    fn get(&self, key: AttrSet) -> Result<Arc<StrippedPartition>, StoreError> {
        let slot = {
            let shard = self.shard_for(key);
            let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            match guard.map.get_mut(&key) {
                Some(Slot::Ready(e)) => {
                    e.accessed = true;
                    return Ok(e.part.clone());
                }
                Some(Slot::Loading(ls)) => {
                    // Someone is already reading this record: wait for
                    // their published result instead of a duplicate read.
                    let ls = ls.clone();
                    drop(guard);
                    let waited = Stopwatch::start();
                    let mut done = ls.done.lock().unwrap_or_else(|e| e.into_inner());
                    let result = loop {
                        match &*done {
                            Some(Ok(p)) => break Ok(p.clone()),
                            Some(Err(e)) => break Err(clone_error(e)),
                            None => {
                                done = ls.cv.wait(done).unwrap_or_else(|e| e.into_inner());
                            }
                        }
                    };
                    drop(done);
                    self.add_fetch_wait(waited);
                    return result;
                }
                None => {
                    let Some(loc) = self.index.get(&key).copied() else {
                        return Err(StoreError::Missing { key });
                    };
                    // Every indexed record a reader can miss on is sealed:
                    // active-level entries stay cache-resident until
                    // seal_level, so a read of an unsealed segment means a
                    // caller broke the seal-on-level-end contract.
                    let sealed = self.segments.get(&loc.segment).is_some_and(|s| s.sealed);
                    assert!(
                        sealed,
                        "read of unsealed segment {}: active-level partitions are \
                         cache-resident until seal_level()",
                        loc.segment
                    );
                    let ls = Arc::new(LoadSlot {
                        done: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    guard.map.insert(key, Slot::Loading(ls.clone()));
                    (ls, loc)
                }
            }
        };
        let (ls, loc) = slot;
        let loading = Stopwatch::start();
        let result = self.load_and_publish(key, loc, &ls);
        self.add_fetch_wait(loading);
        result
    }

    fn remove(&mut self, key: AttrSet) {
        self.uncache(key);
        if let Some(loc) = self.index.remove(&key) {
            if let Some(seg) = self.segments.get_mut(&loc.segment) {
                seg.live -= 1;
            }
            self.doom_or_reap(loc.segment);
        }
        self.reap_doomed();
    }

    /// Seals the level written since the last seal: the active segment
    /// becomes immutable (readable by any worker via `pread`), and the
    /// level's cache entries turn evictable, joining the clock in put
    /// order — so eviction frees grandparent levels first, level at a
    /// time, exactly as the levelwise search stops needing them.
    fn seal_level(&mut self) -> Result<(), StoreError> {
        self.seal_active_segment()?;
        let keys = std::mem::take(&mut self.active_keys);
        for &key in &keys {
            let shard = self.shard_for(key);
            let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(Slot::Ready(e)) = guard.map.get_mut(&key) {
                e.active = false;
            }
        }
        let clock = &self.clock;
        let mut queue = clock.lock().unwrap_or_else(|e| e.into_inner());
        for key in keys {
            let shard = self.shard_for(key);
            let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(Slot::Ready(e)) = guard.map.get_mut(&key) {
                if !e.queued && !e.active {
                    e.queued = true;
                    drop(guard);
                    queue.push_back(key);
                }
            }
        }
        drop(queue);
        self.evict_to_budget();
        self.reap_doomed();
        Ok(())
    }

    fn elements_hint(&self, key: AttrSet) -> Option<usize> {
        self.index.get(&key).map(|loc| loc.elements as usize)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn resident_bytes(&self) -> usize {
        // ORDERING: Relaxed — advisory cache-size probe for tests and the
        // eviction budget; never flows into results or stats.
        self.cache_bytes.load(Ordering::Relaxed)
    }
}

impl Drop for SegmentStore {
    fn drop(&mut self) {
        self.active_writer = None; // close before deleting
        let mut released = 0u64;
        // lint:allow(determinism): deletion order of doomed temp files
        // is unobservable in any result.
        for seg in self.segments.values() {
            released += seg.bytes;
            if !self.owns_dir {
                let _ = fs::remove_file(&seg.path);
            }
        }
        for d in &self.doomed {
            released += d.bytes;
            if !self.owns_dir {
                let _ = fs::remove_file(&d.path);
            }
        }
        if self.owns_dir {
            let _ = fs::remove_dir_all(&self.dir);
        }
        if let Some(q) = &self.quota {
            q.release(released);
        }
    }
}

/// The historical name of [`SegmentStore`], kept for external users; the
/// disk backend has been a segment store since its first version, the
/// engine underneath is what changed.
pub type DiskStore = SegmentStore;

/// Test-only fault injection for the read path, armable from integration
/// and end-to-end tests (the server's corruption tests run a real server
/// in-process and arm this to prove a damaged store surfaces as an error
/// response, not a panic). Process-global; disarmed by default and
/// zero-cost beyond one relaxed atomic load per disk read.
pub mod failpoint {
    use std::sync::atomic::{AtomicU64, Ordering};

    static CORRUPT_READS: AtomicU64 = AtomicU64::new(0);

    /// Makes the next `n` disk reads of any store in this process fail
    /// with [`StoreError::Corrupt`](super::StoreError::Corrupt).
    // ORDERING: SeqCst — arming happens on a test thread; total order is
    // the cheapest way to make the fault visible to whichever worker
    // reads next, and this path is cold by definition.
    pub fn arm_corrupt_reads(n: u64) {
        CORRUPT_READS.store(n, Ordering::SeqCst);
    }

    /// Clears any armed faults.
    // ORDERING: SeqCst — symmetric with arm_corrupt_reads.
    pub fn disarm() {
        CORRUPT_READS.store(0, Ordering::SeqCst);
    }

    // ORDERING: Relaxed — the counter is its own synchronization object;
    // the CAS only needs atomicity of the decrement, no payload is
    // published through it.
    pub(crate) fn take_corrupt_read() -> bool {
        let mut n = CORRUPT_READS.load(Ordering::Relaxed);
        loop {
            if n == 0 {
                return false;
            }
            match CORRUPT_READS.compare_exchange_weak(
                n,
                n - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => n = now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u32) -> StrippedPartition {
        // Distinct partitions: classes {0,1} and {2,3,…,i+3}.
        let mut elements = vec![0, 1];
        elements.extend(2..(i + 4));
        let begins = vec![0, 2, elements.len() as u32];
        StrippedPartition::from_parts(1000, elements, begins)
    }

    #[test]
    fn memory_store_roundtrip() {
        let mut s = MemoryStore::new();
        let key = AttrSet::from_indices([0, 2]);
        s.put(key, sample(1)).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.resident_bytes() > 0);
        assert_eq!(s.elements_hint(key), Some(sample(1).num_elements()));
        let got = s.get(key).unwrap();
        assert_eq!(*got, sample(1));
        assert!(matches!(
            s.get(AttrSet::singleton(5)),
            Err(StoreError::Missing { .. })
        ));
        s.remove(key);
        assert!(s.is_empty());
        assert_eq!(s.resident_bytes(), 0);
        s.remove(key); // double remove is a no-op
    }

    #[test]
    fn memory_store_replace_updates_bytes() {
        let mut s = MemoryStore::new();
        let key = AttrSet::singleton(0);
        s.put(key, sample(100)).unwrap();
        let big = s.resident_bytes();
        s.put(key, sample(1)).unwrap();
        assert!(s.resident_bytes() < big);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn disk_store_roundtrip() {
        let mut s = SegmentStore::new(1 << 20).unwrap();
        let key = AttrSet::from_indices([1, 3, 5]);
        let p = sample(7);
        s.put(key, p.clone()).unwrap();
        s.seal_level().unwrap();
        let got = s.get(key).unwrap();
        assert_eq!(*got, p);
        assert_eq!(s.len(), 1);
        assert_eq!(s.elements_hint(key), Some(p.num_elements()));
        s.remove(key);
        assert!(matches!(s.get(key), Err(StoreError::Missing { .. })));
    }

    #[test]
    fn active_level_reads_hit_the_cache() {
        // Before seal_level the level's records are unreadable from disk;
        // gets must be served from the (pinned-resident) cache.
        let mut s = SegmentStore::new(0).unwrap();
        let key = AttrSet::singleton(4);
        s.put(key, sample(2)).unwrap();
        assert_eq!(*s.get(key).unwrap(), sample(2));
        assert_eq!(s.disk_reads(), 0, "active entries never touch disk");
    }

    #[test]
    fn disk_store_evicts_and_reloads() {
        // Budget fits ~1 partition; sealing the level forces eviction, and
        // get() must transparently reload from disk.
        let one = sample(0).size_bytes();
        let mut s = SegmentStore::new(one + 8).unwrap();
        let keys: Vec<AttrSet> = (0..6).map(AttrSet::singleton).collect();
        for (i, &k) in keys.iter().enumerate() {
            s.put(k, sample(i as u32)).unwrap();
        }
        s.seal_level().unwrap();
        assert!(
            s.resident_bytes() <= one + 8,
            "sealed level must be evicted to budget exactly: {} > {}",
            s.resident_bytes(),
            one + 8
        );
        assert_eq!(s.disk_writes(), 6);
        assert!(s.evictions() >= 4, "evictions must be counted");
        // All six must still be retrievable, identical to what was stored.
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(*s.get(k).unwrap(), sample(i as u32), "key {i}");
        }
        assert!(s.disk_reads() >= 4, "cold keys must be read from disk");
    }

    #[test]
    fn eviction_has_no_single_resident_exemption() {
        // Regression: a single partition larger than the whole budget used
        // to stay resident forever (the old `cache.len() > 1` guard),
        // silently pinning the cache over budget with no counter.
        let mut s = SegmentStore::new(8).unwrap(); // smaller than any record
        let key = AttrSet::singleton(0);
        s.put(key, sample(50)).unwrap();
        s.seal_level().unwrap();
        assert_eq!(
            s.resident_bytes(),
            0,
            "an idle oversized partition is evicted like any other"
        );
        assert_eq!(*s.get(key).unwrap(), sample(50), "and re-read on demand");
    }

    #[test]
    fn oversized_resident_is_counted() {
        // With a zero budget the active level cannot be evicted (it must
        // stay resident until sealed); the sweep ends over budget and the
        // stat records it.
        let mut s = SegmentStore::new(0).unwrap();
        s.put(AttrSet::singleton(0), sample(1)).unwrap();
        assert!(s.resident_bytes() > 0, "active level stays resident");
        assert!(s.oversized_resident() >= 1);
        s.seal_level().unwrap();
        assert_eq!(s.resident_bytes(), 0, "sealing makes it evictable");
    }

    #[test]
    fn disk_store_cache_hit_avoids_read() {
        let mut s = SegmentStore::new(1 << 24).unwrap();
        let key = AttrSet::singleton(9);
        s.put(key, sample(3)).unwrap();
        s.seal_level().unwrap();
        let _ = s.get(key).unwrap();
        let _ = s.get(key).unwrap();
        assert_eq!(s.disk_reads(), 0, "hot key must be served from cache");
    }

    #[test]
    fn disk_store_replacing_a_key_keeps_latest() {
        let mut s = SegmentStore::new(0).unwrap();
        let key = AttrSet::singleton(2);
        s.put(key, sample(1)).unwrap();
        s.put(key, sample(9)).unwrap();
        s.seal_level().unwrap(); // zero budget: the level is fully evicted
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(*s.get(key).unwrap(), sample(9));
        assert_eq!(s.len(), 1);
    }

    /// Seals and evicts everything, so the next get is a real disk read.
    fn flush_all(s: &mut SegmentStore) {
        s.seal_level().unwrap();
        let phase = s.begin_read_phase();
        s.end_read_phase(phase);
    }

    #[test]
    fn disk_store_detects_corruption() {
        let mut s = SegmentStore::new(0).unwrap(); // zero budget: nothing cached
        let key = AttrSet::singleton(1);
        s.put(key, sample(2)).unwrap();
        flush_all(&mut s);
        let path = s.segment_path(0);
        fs::write(&path, vec![0u8; 64]).unwrap();
        assert!(matches!(s.get(key), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn corruption_truncated_record() {
        let mut s = SegmentStore::new(0).unwrap();
        let key = AttrSet::singleton(1);
        s.put(key, sample(2)).unwrap();
        flush_all(&mut s);
        let path = s.segment_path(0);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..10]).unwrap(); // header cut short
        match s.get(key) {
            Err(StoreError::Corrupt { message, .. }) => {
                assert!(message.contains("truncated"), "{message}")
            }
            other => panic!("want truncated-record corruption, got {other:?}"),
        }
    }

    #[test]
    fn corruption_bad_magic() {
        let mut s = SegmentStore::new(0).unwrap();
        let key = AttrSet::singleton(1);
        s.put(key, sample(2)).unwrap();
        flush_all(&mut s);
        let path = s.segment_path(0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0..4].copy_from_slice(b"XXXX");
        fs::write(&path, bytes).unwrap();
        match s.get(key) {
            Err(StoreError::Corrupt { message, .. }) => {
                assert!(message.contains("bad magic"), "{message}")
            }
            other => panic!("want bad-magic corruption, got {other:?}"),
        }
    }

    #[test]
    fn corruption_class_size_overflow() {
        let mut s = SegmentStore::new(0).unwrap();
        let key = AttrSet::singleton(1);
        s.put(key, sample(2)).unwrap(); // sample() has exactly 2 classes
        flush_all(&mut s);
        let path = s.segment_path(0);
        let mut bytes = fs::read(&path).unwrap();
        // Class sizes live at [16, 24); u32::MAX + u32::MAX overflows the
        // running element count.
        bytes[16..24].copy_from_slice(&[0xFF; 8]);
        fs::write(&path, bytes).unwrap();
        match s.get(key) {
            Err(StoreError::Corrupt { message, .. }) => {
                assert!(message.contains("overflow"), "{message}")
            }
            other => panic!("want overflow corruption, got {other:?}"),
        }
    }

    #[test]
    fn injected_read_fault_surfaces_as_corruption() {
        let mut s = SegmentStore::new(0).unwrap();
        let key = AttrSet::singleton(3);
        s.put(key, sample(1)).unwrap();
        flush_all(&mut s);
        failpoint::arm_corrupt_reads(1);
        assert!(matches!(s.get(key), Err(StoreError::Corrupt { .. })));
        failpoint::disarm();
        assert_eq!(*s.get(key).unwrap(), sample(1), "next read recovers");
    }

    #[test]
    fn disk_store_cleans_up_directory() {
        let dir;
        {
            let mut s = SegmentStore::new(1 << 20).unwrap();
            s.put(AttrSet::singleton(0), sample(0)).unwrap();
            dir = s.dir.clone();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "owned temp dir must be removed on drop");
    }

    #[test]
    fn in_dir_store_keeps_directory_but_reaps_segments() {
        let dir = std::env::temp_dir().join(format!("tane-test-keep-{}", std::process::id()));
        {
            let mut s = SegmentStore::in_dir(dir.clone(), 1 << 20).unwrap();
            s.put(AttrSet::singleton(0), sample(0)).unwrap();
        }
        assert!(dir.exists(), "caller-managed dir must survive");
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            0,
            "segments must be reaped"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn many_partitions_share_few_segment_files() {
        let mut s = SegmentStore::new(1 << 16).unwrap();
        for i in 0..2000u32 {
            s.put(AttrSet::from_bits(u64::from(i) + 1), sample(i % 50))
                .unwrap();
        }
        s.seal_level().unwrap();
        assert!(s.segment_count() <= 4, "got {} segments", s.segment_count());
        // Spot-check a cold read.
        let phase = s.begin_read_phase();
        s.end_read_phase(phase); // evicts everything idle
        assert_eq!(
            *s.get(AttrSet::from_bits(1500 + 1)).unwrap(),
            sample(1500 % 50)
        );
    }

    #[test]
    fn removing_all_keys_reaps_segments() {
        let mut s = SegmentStore::new(1 << 16).unwrap();
        let keys: Vec<AttrSet> = (0..100u32)
            .map(|i| AttrSet::from_bits(u64::from(i) + 1))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            s.put(k, sample(i as u32 % 10)).unwrap();
        }
        s.seal_level().unwrap();
        for &k in &keys {
            s.remove(k);
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.segment_count(), 0, "dead sealed segments are reaped");
    }

    #[test]
    fn snapshot_pin_defers_segment_reaping() {
        let mut s = SegmentStore::new(1 << 20).unwrap();
        let keys: Vec<AttrSet> = (0..4).map(AttrSet::singleton).collect();
        for (i, &k) in keys.iter().enumerate() {
            s.put(k, sample(i as u32)).unwrap();
        }
        s.seal_level().unwrap();
        let path = s.segment_path(0);

        // A phase is open: removing every key dooms the segment but must
        // not delete the file a concurrent reader could still touch.
        let phase = s.begin_read_phase();
        let pinned = s.get(keys[0]).unwrap();
        for &k in &keys {
            s.remove(k);
        }
        assert!(path.exists(), "doomed segment survives the open phase");
        assert_eq!(s.segment_count(), 0, "but it is no longer live");
        assert_eq!(*pinned, sample(0), "pinned data stays readable");

        // Phase ends: the next writer-side call reaps it.
        s.end_read_phase(phase);
        s.seal_level().unwrap();
        assert!(!path.exists(), "doomed segment reaped after the phase");
    }

    #[test]
    fn read_phase_pins_fetches_until_end() {
        let mut s = SegmentStore::new(0).unwrap(); // zero budget
        let key = AttrSet::singleton(7);
        s.put(key, sample(3)).unwrap();
        flush_all(&mut s);
        assert_eq!(s.resident_bytes(), 0);

        let phase = s.begin_read_phase();
        let _ = s.get(key).unwrap();
        let _ = s.get(key).unwrap();
        assert_eq!(s.disk_reads(), 1, "second fetch hits the pinned entry");
        assert!(s.resident_bytes() > 0, "pinned over a zero budget");
        assert_eq!(s.snapshot_pins(), 1);
        s.end_read_phase(phase);
        assert_eq!(s.resident_bytes(), 0, "phase end evicts to budget");
    }

    #[test]
    fn handle_cache_stays_bounded() {
        let mut s = SegmentStore::new(0).unwrap();
        // One segment per seal: far more segments than handle slots.
        let n = HANDLE_CACHE_CAP + 8;
        let keys: Vec<AttrSet> = (0..n as u32)
            .map(|i| AttrSet::from_bits(u64::from(i) + 1))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            s.put(k, sample(i as u32 % 10)).unwrap();
            s.seal_level().unwrap();
        }
        assert_eq!(s.segment_count(), n);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(*s.get(k).unwrap(), sample(i as u32 % 10));
        }
        assert!(
            s.open_handles() <= HANDLE_CACHE_CAP,
            "{} handles open",
            s.open_handles()
        );
    }

    #[test]
    fn quota_rejects_writes_past_the_limit() {
        let quota = Arc::new(DiskQuota::new(256));
        let mut s = SegmentStore::with_quota(1 << 20, quota.clone()).unwrap();
        let mut hit_limit = false;
        for i in 0..64u32 {
            match s.put(AttrSet::from_bits(u64::from(i) + 1), sample(i)) {
                Ok(()) => assert!(quota.used() <= quota.limit()),
                Err(StoreError::QuotaExceeded { need, used, limit }) => {
                    assert_eq!(limit, 256);
                    assert!(used + need > limit);
                    hit_limit = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(hit_limit, "a 256-byte quota must reject some write");
        let used_before_drop = quota.used();
        assert!(used_before_drop > 0);
        drop(s);
        assert_eq!(quota.used(), 0, "drop releases every charged byte");
    }

    #[test]
    fn quota_error_display_names_the_quota() {
        let e = StoreError::QuotaExceeded {
            need: 100,
            used: 200,
            limit: 256,
        };
        let text = e.to_string();
        assert!(text.contains("disk quota exceeded"), "{text}");
    }

    #[test]
    fn stores_are_interchangeable_through_the_trait() {
        fn exercise(store: &mut dyn PartitionStore) {
            let k1 = AttrSet::singleton(1);
            let k2 = AttrSet::from_indices([1, 2]);
            store.put(k1, sample(1)).unwrap();
            store.put(k2, sample(2)).unwrap();
            store.seal_level().unwrap();
            assert_eq!(store.len(), 2);
            assert_eq!(*store.get(k1).unwrap(), sample(1));
            assert_eq!(*store.get(k2).unwrap(), sample(2));
            assert_eq!(store.elements_hint(k1), Some(sample(1).num_elements()));
            assert_eq!(store.elements_hint(AttrSet::singleton(60)), None);
            store.remove(k1);
            assert_eq!(store.len(), 1);
        }
        exercise(&mut MemoryStore::new());
        exercise(&mut SegmentStore::new(1 << 20).unwrap());
    }

    #[test]
    fn error_display() {
        let e = StoreError::Missing {
            key: AttrSet::singleton(3),
        };
        assert!(e.to_string().contains("{3}"));
        let e = StoreError::Corrupt {
            key: AttrSet::empty(),
            message: "x".into(),
        };
        assert!(e.to_string().contains("corrupt"));
    }
}
