//! Group commit: the one path by which a commit reaches a shard log.
//!
//! A [`GroupCommitter`] owns one shard log's sequence counter and
//! splits publication into two halves:
//!
//! * **stage** — inside the commit critical section, a committer
//!   reserves the next sequence number and encodes its record into the
//!   *pending batch* buffer. Staging order equals sequence order equals
//!   byte order, so every batch — and every prefix the store ends up
//!   persisting — keeps the conflict-closed-prefix property the
//!   recovery invariants (M1.4) rely on.
//! * **flush/ack** — the first stager with no flush in flight becomes
//!   the *leader*: it takes the pending batch, appends it with **one**
//!   store append (transients retried in place under
//!   [`RetryPolicy`]), issues **one** sync, and publishes the batch's
//!   verdict. Committers that stage while a flush is in flight
//!   accumulate into the next batch (piggyback batching); the leader
//!   keeps flushing until the pending batch is empty, so no staged
//!   record ever waits on anything but the flush ahead of it.
//!
//! A committer's `commit` call blocks until its batch is flushed and
//! acked — the caller still holds its stripe locks, so "zero memory
//! effect before ack" is preserved. The amortization comes from
//! committers on *disjoint* stripes staging concurrently, not from
//! releasing locks early. `max_records = 1` makes every commit its own
//! batch: one append and one sync per commit.
//!
//! ## The ack path: one generation watermark
//!
//! Every batch takes the next **generation** number when its leader
//! takes it. Batches flush one at a time, in generation order, so one
//! watermark per committer resolves them all: the leader publishes
//! `resolved = generation + 1` (Release) once a batch's verdict is
//! known, and `failed_from` holds the first failed generation
//! (`u64::MAX` while healthy; [`GroupCommitter::reopen`] resets it). A
//! member of generation `g` reads its verdict from the two words:
//! `g < failed_from` is Ok, `g == failed_from` is the batch error (kept
//! under the state lock), `g > failed_from` is [`BatchError::Cancelled`].
//! There is no per-batch slot to allocate and nothing to notify per
//! batch: a leader whose batch held only its own record — every commit
//! when commits do not overlap — acks itself with no syscall and no
//! allocation (the flushed buffer becomes the next batch's).
//!
//! A member waits by **spinning** on `resolved` for `SPIN_LIMIT`
//! rounds, long enough to cover a leader's in-memory append but not an
//! fsync, and then **parks** on the committer's condvar. Parked
//! committers are counted under the state lock, and every `notify_all`
//! is skipped while the count is zero: a wake costs a futex syscall
//! even with nobody to wake.
//!
//! ## Failure fan-out
//!
//! A failed flush fails every member of the batch with a typed
//! [`BatchError`], plus — because their reserved sequence numbers come
//! after the failed batch's — every record staged into the *next*
//! pending batch ([`BatchError::Cancelled`]). The sequence counter is
//! rolled back over records that cannot be in the log. Exactly one
//! member of each failed batch observes `primary == true` in its
//! [`GroupError`], so the caller's health/fault accounting runs once
//! per batch, not once per member.
//!
//! A failed *sync* leaves every record of the batch in doubt — present
//! and decodable, never acknowledged — which the per-member
//! [`GroupError::in_doubt`] flag reports; for a torn append the flag is
//! set only for members whose frame landed entirely inside the
//! persisted prefix. A store that *panics* inside the leader's append
//! or sync fails the batch as [`BatchError::Panicked`], every member in
//! doubt. The panic is not resumed: the leader is itself a committer
//! holding its stripe locks.
//!
//! ## Closed after a failure
//!
//! A failed flush **closes** the committer before its state lock is
//! released: every later `commit` returns [`BatchError::Cancelled`]
//! without touching the store, until [`GroupCommitter::reopen`].
//! Otherwise a committer arriving between the failure and the caller's
//! reaction to it (the engine degrading the shard) could append — and
//! be acked — behind a torn frame, which recovery rejects as interior
//! corruption. The engine reopens inside the rejoin checkpoint's
//! quiesce fence, once the checkpoint has truncated the log.

use crate::record::encode_record;
use crate::store::{RetryPolicy, StoreError, WalStore};
use core::sync::atomic::{AtomicU64, Ordering};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Bytes per batch: once exceeded, stagers wait for the next batch,
/// like the record bound. Also the largest buffer kept for reuse.
const MAX_BATCH_BYTES: usize = 1 << 16;

/// Rounds a member spins on the watermark before it parks. 128
/// `spin_loop` rounds take about 2.6 µs on a 2-vCPU x86 (Xeon) host:
/// more than a leader's in-memory append of a small batch, far less
/// than an fsync (~80 µs there). A member whose flush is in memory
/// then never pays the futex round trip (5–13 µs to park and be
/// woken), and one whose flush is on disk stops burning its core
/// early; 4096 rounds (~75 µs) would spin through the whole fsync.
const SPIN_LIMIT: u32 = 128;

/// Size/time bounds for one batch.
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitConfig {
    /// Records per batch; stagers beyond it wait for the next batch
    /// (the committer's built-in backpressure).
    pub max_records: usize,
    /// How long a leader waits for the batch to fill before flushing.
    /// Zero (the default) flushes immediately: batching then comes only
    /// from records staged while a flush is in flight, which costs idle
    /// committers no latency at all.
    pub max_wait: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> GroupCommitConfig {
        GroupCommitConfig {
            max_records: 64,
            max_wait: Duration::ZERO,
        }
    }
}

impl GroupCommitConfig {
    /// Builder-style setter for the record bound.
    pub fn with_max_records(mut self, n: usize) -> Self {
        self.max_records = n.max(1);
        self
    }

    /// Builder-style setter for the accumulation window.
    pub fn with_max_wait(mut self, d: Duration) -> Self {
        self.max_wait = d;
        self
    }
}

/// Why a batch failed, at batch granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// The batch append failed after the leader's transient retries.
    /// `Transient` here means nothing of the batch persisted; `Torn`
    /// means a prefix did (see [`GroupError::in_doubt`]).
    Append(StoreError),
    /// The append succeeded but the durability sync failed: every
    /// record of the batch is in the log, none is confirmed.
    Sync(StoreError),
    /// The store panicked inside the batch's append or sync (the
    /// payload's message). The append may have landed, so every record
    /// of the batch is in doubt.
    Panicked(String),
    /// This commit never reached the store: the batch ahead of it
    /// failed, or the committer is closed after a failed flush.
    /// Retrying the commit is sound once the committer reopens.
    Cancelled,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Append(e) => write!(f, "batch append failed: {e}"),
            BatchError::Sync(e) => write!(f, "batch sync failed: {e}"),
            BatchError::Panicked(msg) => write!(f, "store panicked during batch flush: {msg}"),
            BatchError::Cancelled => write!(f, "batch cancelled (a preceding flush failed)"),
        }
    }
}

/// One member's view of its batch's failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupError {
    /// The batch-level failure.
    pub error: BatchError,
    /// True for exactly one member per failed (not cancelled) batch:
    /// the one that should run the once-per-batch consequences (health
    /// transition, fault counter).
    pub primary: bool,
    /// This member's record may have persisted despite the failure
    /// (sync failures and panics: always; torn appends: when the
    /// member's frame fits the persisted prefix). The commit was *not*
    /// acknowledged — the record is in doubt until a checkpoint
    /// rewrites the log.
    pub in_doubt: bool,
}

impl GroupError {
    const CANCELLED: GroupError = GroupError {
        error: BatchError::Cancelled,
        primary: false,
        in_doubt: false,
    };

    /// A failed batch's verdict for the member whose frame ends at byte
    /// `end` of the batch.
    fn member(error: BatchError, primary: bool, end: usize) -> GroupError {
        let in_doubt = match &error {
            BatchError::Sync(_) | BatchError::Panicked(_) => true,
            BatchError::Append(StoreError::Torn { persisted, .. }) => end <= *persisted,
            _ => false,
        };
        GroupError {
            error,
            primary,
            in_doubt,
        }
    }
}

impl std::fmt::Display for GroupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)?;
        if self.in_doubt {
            write!(f, " (record in doubt)")?;
        }
        Ok(())
    }
}

/// A batch of staged records (the pending one, or one being flushed).
#[derive(Default)]
struct Batch {
    buf: Vec<u8>,
    first_seq: u64,
    records: usize,
}

struct State {
    /// The batch being accumulated; empty while `records == 0`.
    pending: Batch,
    /// Generation `pending` takes when a leader flushes it.
    generation: u64,
    /// The last flushed batch's buffer, cleared: the next one's.
    spare: Vec<u8>,
    /// A leader is between take-batch and publishing its verdict.
    flushing: bool,
    /// Sequence number the next staged record takes.
    next_seq: u64,
    /// A flush failed: commits are refused until [`GroupCommitter::reopen`].
    closed: bool,
    /// The failed batch's error (generation `failed_from`).
    error: Option<BatchError>,
    /// The failed batch's primary member has taken its verdict.
    primary_taken: bool,
    /// Committers blocked on `cond`: notifies are skipped while zero.
    waiters: usize,
}

/// Amortized flush/ack driver over one shard's log: the sole appender
/// to its store.
pub struct GroupCommitter {
    shard: u32,
    store: Arc<dyn WalStore>,
    config: GroupCommitConfig,
    state: Mutex<State>,
    /// Parked members, backpressure waits and the leader's
    /// accumulation window all wait here.
    cond: Condvar,
    /// Every generation below this has its verdict.
    resolved: AtomicU64,
    /// First failed generation; `u64::MAX` while healthy.
    failed_from: AtomicU64,
    flushes: AtomicU64,
    records_flushed: AtomicU64,
    retries: AtomicU64,
    parks: AtomicU64,
    /// Called with `(records, bytes)` after each successful flush.
    observer: OnceLock<FlushObserver>,
}

/// Flush observer callback: `(records, bytes)` per successful flush.
type FlushObserver = Box<dyn Fn(usize, usize) + Send + Sync>;

impl GroupCommitter {
    /// A committer appending shard `shard`'s records to `store`,
    /// numbering the first one `first_seq` (0 for a fresh log; recovery
    /// passes the successor of the last replayed seq when it continues
    /// an existing log).
    pub fn new(
        shard: u32,
        store: Arc<dyn WalStore>,
        first_seq: u64,
        config: GroupCommitConfig,
    ) -> Arc<GroupCommitter> {
        Arc::new(GroupCommitter {
            shard,
            store,
            config,
            state: Mutex::new(State {
                pending: Batch::default(),
                generation: 0,
                spare: Vec::new(),
                flushing: false,
                next_seq: first_seq,
                closed: false,
                error: None,
                primary_taken: false,
                waiters: 0,
            }),
            cond: Condvar::new(),
            resolved: AtomicU64::new(0),
            failed_from: AtomicU64::new(u64::MAX),
            flushes: AtomicU64::new(0),
            records_flushed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            observer: OnceLock::new(),
        })
    }

    /// The store the committer flushes to.
    pub fn store(&self) -> &Arc<dyn WalStore> {
        &self.store
    }

    /// Register the per-flush observer (`(records, bytes)` of each
    /// successful flush) — the engine points this at its batch-size
    /// histogram. Set once, before the first commit.
    ///
    /// # Panics
    /// If an observer is already registered.
    pub fn set_observer(&self, f: impl Fn(usize, usize) + Send + Sync + 'static) {
        assert!(
            self.observer.set(Box::new(f)).is_ok(),
            "flush observer already set"
        );
    }

    /// Successful flushes so far.
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Records acknowledged across all successful flushes.
    pub fn records_flushed(&self) -> u64 {
        self.records_flushed.load(Ordering::Relaxed)
    }

    /// Transient append failures retried in place so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Commits that parked on the condvar — for their batch's verdict
    /// after `SPIN_LIMIT` (128) spins, or for room in a full batch. The
    /// leader's accumulation window is not counted.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Records currently staged and unflushed (tests, introspection).
    pub fn staged_records(&self) -> usize {
        self.state.lock().pending.records
    }

    /// Sequence number the next staged record will take.
    pub fn next_seq(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// Reopen after a failed flush closed the committer, numbering the
    /// next record `first_seq`. Nothing may be committing concurrently:
    /// the engine calls this inside the rejoin checkpoint's quiesce
    /// fence, after the checkpoint truncated the log (`first_seq` 0).
    pub fn reopen(&self, first_seq: u64) {
        let mut state = self.state.lock();
        debug_assert!(
            state.pending.records == 0 && !state.flushing,
            "reopen with a commit in flight"
        );
        state.next_seq = first_seq;
        state.closed = false;
        state.error = None;
        self.failed_from.store(u64::MAX, Ordering::Release);
    }

    /// Stage one commit and block until its batch is flushed and acked
    /// (or failed). Called with the commit critical section held — the
    /// record's position in the log is fixed at stage time, before any
    /// conflicting commit can stage after it. `writes` is encoded as it
    /// is iterated: the caller need not collect it.
    pub fn commit<W>(&self, epoch: u64, commit_ts: u64, writes: W) -> Result<(), GroupError>
    where
        W: IntoIterator<Item = (u64, u64)>,
        W::IntoIter: ExactSizeIterator,
    {
        let mut state = self.state.lock();
        // Backpressure: the pending batch is bounded; wait for the
        // leader to drain it. (A full batch implies a flush in flight —
        // a stager that filled it while no flush ran became the leader
        // and took it.)
        if self.batch_full(&state) {
            self.parks.fetch_add(1, Ordering::Relaxed);
            while self.batch_full(&state) {
                self.park(&mut state);
            }
        }
        if state.closed {
            return Err(GroupError::CANCELLED);
        }
        let st = &mut *state;
        if st.pending.records == 0 {
            st.pending.first_seq = st.next_seq;
        }
        encode_record(
            &mut st.pending.buf,
            st.next_seq,
            epoch,
            commit_ts,
            self.shard,
            writes.into_iter(),
        );
        st.next_seq += 1;
        st.pending.records += 1;
        let end = st.pending.buf.len();
        if !st.flushing {
            st.flushing = true;
            return self
                .lead(state)
                .map_err(|error| GroupError::member(error, true, end));
        }
        let generation = st.generation;
        if self.batch_full(st) {
            // Wake a leader sitting in its accumulation window.
            self.wake(st);
        }
        drop(state);
        self.await_verdict(generation);
        // Verdicts are immutable once published, and `failed_from` is
        // stored before the `resolved` that covers it.
        let failed_from = self.failed_from.load(Ordering::Acquire);
        if generation < failed_from {
            return Ok(());
        }
        if generation > failed_from {
            return Err(GroupError::CANCELLED);
        }
        let mut state = self.state.lock();
        let error = state.error.clone().expect("a failed batch keeps its error");
        let primary = !std::mem::replace(&mut state.primary_taken, true);
        Err(GroupError::member(error, primary, end))
    }

    fn batch_full(&self, state: &State) -> bool {
        state.pending.records >= self.config.max_records
            || state.pending.buf.len() >= MAX_BATCH_BYTES
    }

    /// Block on the condvar, counted so wakers can skip the syscall
    /// when nobody waits.
    fn park(&self, state: &mut MutexGuard<'_, State>) {
        state.waiters += 1;
        self.cond.wait(state);
        state.waiters -= 1;
    }

    /// Wake every parked committer, if there is one.
    fn wake(&self, state: &State) {
        if state.waiters > 0 {
            self.cond.notify_all();
        }
    }

    /// Wait until generation `generation` has its verdict: spin first,
    /// then park.
    fn await_verdict(&self, generation: u64) {
        let done = || self.resolved.load(Ordering::Acquire) > generation;
        for _ in 0..SPIN_LIMIT {
            if done() {
                return;
            }
            core::hint::spin_loop();
        }
        let mut state = self.state.lock();
        if done() {
            return;
        }
        self.parks.fetch_add(1, Ordering::Relaxed);
        while !done() {
            self.park(&mut state);
        }
    }

    /// The leader loop: flush the pending batch, and keep flushing as
    /// long as new records were staged meanwhile — no staged record
    /// ever waits on anything but the flush ahead of it. Returns the
    /// verdict on the leader's own (first) batch.
    fn lead<'a>(&'a self, mut state: MutexGuard<'a, State>) -> Result<(), BatchError> {
        let mut own: Option<Result<(), BatchError>> = None;
        loop {
            if !self.config.max_wait.is_zero() && !self.batch_full(&state) {
                // Accumulation window: trade this batch's latency for
                // its size. Stagers notify when the batch fills.
                let deadline = Instant::now() + self.config.max_wait;
                state.waiters += 1;
                while !self.batch_full(&state) {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    self.cond.wait_for(&mut state, deadline - now);
                }
                state.waiters -= 1;
            }
            let st = &mut *state;
            let buf = std::mem::replace(&mut st.pending.buf, std::mem::take(&mut st.spare));
            let batch = Batch {
                buf,
                first_seq: st.pending.first_seq,
                records: std::mem::take(&mut st.pending.records),
            };
            let generation = st.generation;
            st.generation += 1;
            drop(state);
            let result = self.flush_batch(&batch);
            state = self.state.lock();
            let st = &mut *state;
            if let Err(error) = &result {
                // Close before the state lock is released, cancel
                // everything staged after the failed batch, and roll
                // the sequence counter back over records that cannot
                // be in the log: a failed append's (only its torn
                // prefix, if anything, landed) and the cancelled ones.
                // After a failed sync or a panic the flushed records
                // may be in the log.
                st.closed = true;
                st.pending.records = 0;
                st.pending.buf.clear();
                st.generation += 1;
                st.next_seq = match error {
                    BatchError::Append(_) => batch.first_seq,
                    _ => batch.first_seq + batch.records as u64,
                };
                st.error = Some(error.clone());
                // The leader is the primary of its own failed batch.
                st.primary_taken = own.is_none();
                self.failed_from.store(generation, Ordering::Release);
            } else {
                self.flushes.fetch_add(1, Ordering::Relaxed);
                self.records_flushed
                    .fetch_add(batch.records as u64, Ordering::Relaxed);
                if let Some(obs) = self.observer.get() {
                    obs(batch.records, batch.buf.len());
                }
            }
            // Publish: every generation below the pending one has its
            // verdict — this batch's and, after a failure, the
            // cancelled one's.
            self.resolved.store(st.generation, Ordering::Release);
            if batch.buf.capacity() <= MAX_BATCH_BYTES {
                let mut buf = batch.buf;
                buf.clear();
                st.spare = buf;
            }
            // Wakes parked members, and backpressure waiters now that
            // the batch has room (or the committer closed).
            self.wake(st);
            let done = result.is_err() || st.pending.records == 0;
            let verdict = own.take().unwrap_or(result);
            if done {
                st.flushing = false;
                return verdict;
            }
            own = Some(verdict);
        }
    }

    /// One append (the whole batch, transients retried in place: nothing
    /// persisted, identical bytes re-issued) + one sync. A panic in
    /// either store call becomes [`BatchError::Panicked`].
    fn flush_batch(&self, batch: &Batch) -> Result<(), BatchError> {
        let salt = batch.first_seq ^ u64::from(self.shard).rotate_left(32);
        let flush = || {
            RetryPolicy::retry(
                salt,
                || self.store.append(&batch.buf),
                || {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                },
            )
            .map_err(BatchError::Append)?;
            self.store.sync().map_err(BatchError::Sync)
        };
        catch_unwind(AssertUnwindSafe(flush)).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(BatchError::Panicked(msg))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::decode_log;
    use crate::store::MemStore;
    use core::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// A store that can hold the next append at a barrier and/or fail
    /// appends and syncs on command.
    struct HarnessStore {
        inner: Arc<MemStore>,
        hold: Mutex<Option<Arc<Barrier>>>,
        fail_appends: AtomicU64,
        fail_error: Mutex<Option<StoreError>>,
        fail_sync: AtomicBool,
        appends: AtomicU64,
        syncs: AtomicU64,
    }

    impl HarnessStore {
        fn new() -> Arc<HarnessStore> {
            Arc::new(HarnessStore {
                inner: MemStore::healthy(),
                hold: Mutex::new(None),
                fail_appends: AtomicU64::new(0),
                fail_error: Mutex::new(None),
                fail_sync: AtomicBool::new(false),
                appends: AtomicU64::new(0),
                syncs: AtomicU64::new(0),
            })
        }
    }

    impl WalStore for HarnessStore {
        fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
            let hold = self.hold.lock().take();
            if let Some(b) = hold {
                b.wait(); // park this flush until the test releases it
            }
            self.appends.fetch_add(1, Ordering::SeqCst);
            if self.fail_appends.load(Ordering::SeqCst) > 0 {
                self.fail_appends.fetch_sub(1, Ordering::SeqCst);
                let e = self.fail_error.lock().clone();
                return Err(e.unwrap_or(StoreError::Transient("injected".into())));
            }
            self.inner.append(bytes)
        }
        fn sync(&self) -> Result<(), StoreError> {
            self.syncs.fetch_add(1, Ordering::SeqCst);
            if self.fail_sync.load(Ordering::SeqCst) {
                return Err(StoreError::Permanent("injected fsync failure".into()));
            }
            Ok(())
        }
        fn log_bytes(&self) -> Vec<u8> {
            self.inner.log_bytes()
        }
        fn snapshot(&self) -> Option<Vec<u8>> {
            self.inner.snapshot()
        }
        fn checkpoint(&self, snapshot: &[u8]) -> Result<(), StoreError> {
            self.inner.checkpoint(snapshot)
        }
    }

    fn committer(store: &Arc<HarnessStore>, config: GroupCommitConfig) -> Arc<GroupCommitter> {
        GroupCommitter::new(0, Arc::clone(store) as Arc<dyn WalStore>, 0, config)
    }

    #[test]
    fn committer_produces_contiguous_decodable_log() {
        let store = MemStore::healthy();
        let gc = GroupCommitter::new(
            4,
            Arc::clone(&store) as Arc<dyn WalStore>,
            0,
            GroupCommitConfig::default(),
        );
        gc.commit(0, 1, [(1, 10)]).unwrap();
        gc.commit(0, 2, [(2, 20), (3, 30)]).unwrap();
        gc.commit(1, 1, []).unwrap();
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(records.iter().all(|r| r.shard == 4));
        assert_eq!(gc.next_seq(), 3);
    }

    #[test]
    fn single_commit_is_a_batch_of_one() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        gc.commit(0, 1, [(1, 10)]).unwrap();
        assert_eq!(gc.flushes(), 1);
        assert_eq!(gc.records_flushed(), 1);
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 0);
    }

    #[test]
    fn concurrent_commits_share_one_flush() {
        // Park the leader's flush at a barrier; two more committers
        // stage meanwhile; on release, their batch flushes together:
        // 3 records, 2 appends, 2 syncs.
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        let gate = Arc::new(Barrier::new(2));
        *store.hold.lock() = Some(Arc::clone(&gate));

        std::thread::scope(|scope| {
            let leader = {
                let gc = Arc::clone(&gc);
                scope.spawn(move || gc.commit(0, 1, [(1, 10)]))
            };
            // Wait for the two piggybackers to be staged behind the
            // parked flush before releasing it.
            let riders: Vec<_> = (0..2u64)
                .map(|i| {
                    let gc = Arc::clone(&gc);
                    scope.spawn(move || gc.commit(0, 2 + i, [(2 + i, 20 + i)]))
                })
                .collect();
            while gc.staged_records() < 2 {
                std::thread::yield_now();
            }
            gate.wait(); // release the leader's flush
            leader.join().unwrap().unwrap();
            for r in riders {
                r.join().unwrap().unwrap();
            }
        });

        assert_eq!(store.appends.load(Ordering::SeqCst), 2);
        assert_eq!(store.syncs.load(Ordering::SeqCst), 2);
        assert_eq!(gc.flushes(), 2);
        assert_eq!(gc.records_flushed(), 3);
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "staged batches keep the contiguous seq run"
        );
    }

    #[test]
    fn transient_flush_failure_rolls_seq_back_for_the_next_batch() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        gc.commit(0, 1, [(1, 10)]).unwrap();
        // Fail past the retry budget: 4 retries allowed, 5 failures.
        store.fail_appends.store(5, Ordering::SeqCst);
        let err = gc.commit(0, 2, [(2, 20)]).unwrap_err();
        assert!(matches!(
            err.error,
            BatchError::Append(StoreError::Transient(_))
        ));
        assert!(err.primary, "sole member of the batch is the primary");
        assert!(!err.in_doubt, "nothing persisted on a transient failure");
        assert_eq!(gc.retries(), 4, "every in-place retry is counted");
        // The failed batch's seq was rolled back: reopened there, the
        // next commit continues the contiguous run.
        gc.reopen(gc.next_seq());
        gc.commit(0, 3, [(3, 30)]).unwrap();
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(
            records.iter().map(|r| r.commit_ts).collect::<Vec<_>>(),
            vec![1, 3],
            "the failed commit is absent, the later one present"
        );
    }

    #[test]
    fn failed_flush_cancels_the_batch_staged_behind_it() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        let gate = Arc::new(Barrier::new(2));
        *store.hold.lock() = Some(Arc::clone(&gate));
        store.fail_appends.store(1, Ordering::SeqCst);
        *store.fail_error.lock() = Some(StoreError::Permanent("injected".into()));

        // Whichever thread wins the state lock leads and fails; the
        // other stages behind it and is cancelled — collect both and
        // partition, since the race is scheduler-decided.
        let errors: Vec<GroupError> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2u64)
                .map(|i| {
                    let gc = Arc::clone(&gc);
                    scope.spawn(move || gc.commit(0, 1 + i, [(1 + i, 10 * (1 + i))]))
                })
                .collect();
            while gc.staged_records() < 1 {
                std::thread::yield_now();
            }
            gate.wait();
            handles
                .into_iter()
                .map(|h| h.join().unwrap().unwrap_err())
                .collect()
        });
        assert_eq!(errors.len(), 2);
        assert_eq!(
            errors
                .iter()
                .filter(|e| matches!(e.error, BatchError::Append(_)))
                .count(),
            1
        );
        let cancelled = errors
            .iter()
            .find(|e| e.error == BatchError::Cancelled)
            .expect("the staged-behind batch is cancelled");
        assert!(!cancelled.in_doubt);

        // Both seqs rolled back: reopened there, a fresh commit
        // restarts at 0.
        gc.reopen(gc.next_seq());
        gc.commit(0, 3, [(3, 30)]).unwrap();
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0]);
        assert_eq!(records[0].commit_ts, 3);
    }

    #[test]
    fn sync_failure_marks_every_member_in_doubt() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        store.fail_sync.store(true, Ordering::SeqCst);
        let err = gc.commit(0, 1, [(1, 10)]).unwrap_err();
        assert!(matches!(err.error, BatchError::Sync(_)));
        assert!(err.in_doubt, "appended but never confirmed");
        assert!(err.primary);
        // The record is physically in the log (sync failed, append did
        // not) — exactly the in-doubt shape.
        let (records, _) = decode_log(&store.log_bytes()).unwrap();
        assert_eq!(records.len(), 1);
        // Seq was NOT rolled back over the flushed (in-log) records:
        // a later commit appends after them, keeping contiguity.
        store.fail_sync.store(false, Ordering::SeqCst);
        gc.reopen(gc.next_seq());
        gc.commit(0, 2, [(2, 20)]).unwrap();
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn torn_append_sets_in_doubt_only_for_fully_persisted_members() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        gc.commit(0, 1, [(1, 10)]).unwrap();
        let frame_len = store.log_bytes().len();
        // Next flush "tears" with the whole frame persisted: in doubt.
        store.fail_appends.store(1, Ordering::SeqCst);
        *store.fail_error.lock() = Some(StoreError::Torn {
            persisted: frame_len,
            detail: "injected".into(),
        });
        let err = gc.commit(0, 2, [(1, 11)]).unwrap_err();
        assert!(err.in_doubt, "frame fits the persisted prefix");
        // And with a mid-frame tear: not in doubt.
        gc.reopen(gc.next_seq());
        store.fail_appends.store(1, Ordering::SeqCst);
        *store.fail_error.lock() = Some(StoreError::Torn {
            persisted: 3,
            detail: "injected".into(),
        });
        let err = gc.commit(0, 3, [(1, 12)]).unwrap_err();
        assert!(matches!(
            err.error,
            BatchError::Append(StoreError::Torn { .. })
        ));
        assert!(!err.in_doubt, "frame torn mid-record cannot replay");
    }

    #[test]
    fn failed_flush_closes_the_committer_until_reopen() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        gc.commit(0, 1, [(1, 10)]).unwrap();

        // A torn append, then a failed sync: after each, the next
        // commit is cancelled without reaching the store.
        store.fail_appends.store(1, Ordering::SeqCst);
        *store.fail_error.lock() = Some(StoreError::Torn {
            persisted: 3,
            detail: "injected".into(),
        });
        let err = gc.commit(0, 2, [(2, 20)]).unwrap_err();
        assert!(matches!(
            err.error,
            BatchError::Append(StoreError::Torn { .. })
        ));
        let appends = store.appends.load(Ordering::SeqCst);
        for ts in 3..6 {
            let err = gc.commit(0, ts, [(3, ts)]).unwrap_err();
            assert_eq!(err.error, BatchError::Cancelled);
            assert!(!err.primary && !err.in_doubt);
        }
        assert_eq!(store.appends.load(Ordering::SeqCst), appends);
        gc.reopen(gc.next_seq());
        gc.commit(0, 6, [(6, 60)]).unwrap();
        assert_eq!(store.appends.load(Ordering::SeqCst), appends + 1);

        store.fail_sync.store(true, Ordering::SeqCst);
        let err = gc.commit(0, 7, [(7, 70)]).unwrap_err();
        assert!(matches!(err.error, BatchError::Sync(_)));
        store.fail_sync.store(false, Ordering::SeqCst);
        let appends = store.appends.load(Ordering::SeqCst);
        let err = gc.commit(0, 8, [(8, 80)]).unwrap_err();
        assert_eq!(err.error, BatchError::Cancelled);
        assert_eq!(store.appends.load(Ordering::SeqCst), appends);
        gc.reopen(gc.next_seq());
        gc.commit(0, 9, [(9, 90)]).unwrap();
        assert_eq!(store.appends.load(Ordering::SeqCst), appends + 1);
    }

    #[test]
    fn panicking_store_resolves_every_waiter() {
        /// Panics on its first append, then behaves.
        struct PanicStore {
            inner: Arc<MemStore>,
            panicked: AtomicBool,
        }
        impl WalStore for PanicStore {
            fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
                if !self.panicked.swap(true, Ordering::SeqCst) {
                    panic!("injected store panic");
                }
                self.inner.append(bytes)
            }
            fn log_bytes(&self) -> Vec<u8> {
                self.inner.log_bytes()
            }
            fn snapshot(&self) -> Option<Vec<u8>> {
                self.inner.snapshot()
            }
            fn checkpoint(&self, snapshot: &[u8]) -> Result<(), StoreError> {
                self.inner.checkpoint(snapshot)
            }
        }

        let store = Arc::new(PanicStore {
            inner: MemStore::healthy(),
            panicked: AtomicBool::new(false),
        });
        let gc = GroupCommitter::new(0, store, 0, GroupCommitConfig::default());
        // Unscoped threads and a channel: a hung committer fails the
        // test at the deadline instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = (0..3u64)
            .map(|i| {
                let gc = Arc::clone(&gc);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let _ = tx.send(gc.commit(0, 1 + i, [(i, i)]));
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut panicked = 0;
        for _ in 0..3 {
            let left = deadline.saturating_duration_since(Instant::now());
            let result = rx.recv_timeout(left).expect("a committer hung");
            let err = result.expect_err("the first append panicked: nothing acks");
            match err.error {
                BatchError::Panicked(msg) => {
                    assert!(msg.contains("injected store panic"), "{msg}");
                    assert!(err.in_doubt, "the append may have landed");
                    panicked += 1;
                }
                BatchError::Cancelled => assert!(!err.in_doubt),
                other => panic!("untyped outcome {other:?}"),
            }
        }
        assert!(panicked >= 1, "the leader's batch reports the panic");
        for h in handles {
            h.join().expect("the panic was caught inside the leader");
        }
    }

    #[test]
    fn accumulation_window_batches_without_concurrency() {
        // With max_wait set, a second committer arriving inside the
        // window joins the first one's batch even though no flush was
        // in flight when the leader started waiting.
        let store = HarnessStore::new();
        let config = GroupCommitConfig::default()
            .with_max_records(2)
            .with_max_wait(Duration::from_millis(250));
        let gc = committer(&store, config);
        std::thread::scope(|scope| {
            let a = {
                let gc = Arc::clone(&gc);
                scope.spawn(move || gc.commit(0, 1, [(1, 10)]))
            };
            while gc.staged_records() < 1 {
                std::thread::yield_now();
            }
            let b = {
                let gc = Arc::clone(&gc);
                scope.spawn(move || gc.commit(0, 2, [(2, 20)]))
            };
            a.join().unwrap().unwrap();
            b.join().unwrap().unwrap();
        });
        assert_eq!(gc.flushes(), 1, "one flush carried both records");
        assert_eq!(gc.records_flushed(), 2);
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn backpressure_bounds_the_pending_batch() {
        // Batch bound 1, flush parked: the leader's record fills the
        // *flushed* batch; one rider stages into pending (bound 1 —
        // full), and a third committer must wait for room rather than
        // grow the batch past its bound.
        let store = HarnessStore::new();
        let config = GroupCommitConfig::default().with_max_records(1);
        let gc = committer(&store, config);
        let gate = Arc::new(Barrier::new(2));
        *store.hold.lock() = Some(Arc::clone(&gate));
        std::thread::scope(|scope| {
            let leader = {
                let gc = Arc::clone(&gc);
                scope.spawn(move || gc.commit(0, 1, [(1, 10)]))
            };
            let riders: Vec<_> = (0..2u64)
                .map(|i| {
                    let gc = Arc::clone(&gc);
                    scope.spawn(move || gc.commit(0, 2 + i, [(2 + i, 0)]))
                })
                .collect();
            // Only one rider can stage; the other waits for room.
            while gc.staged_records() < 1 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(10));
            assert_eq!(gc.staged_records(), 1, "bound holds under pressure");
            gate.wait();
            leader.join().unwrap().unwrap();
            for r in riders {
                r.join().unwrap().unwrap();
            }
        });
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.len(), 3);
        assert_eq!(gc.flushes(), 3, "bound 1 forces one flush per record");
    }

    #[test]
    fn lone_commits_never_park() {
        // One thread: every commit leads its own batch and acks itself
        // from the flush result — nobody ever waits on the condvar.
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        for ts in 0..1000u64 {
            gc.commit(0, ts, [(ts % 8, ts)]).unwrap();
        }
        assert_eq!(gc.flushes(), 1000);
        assert_eq!(gc.parks(), 0);
    }

    /// Hold a leader's flush at the store barrier, stage one member
    /// behind it and wait until the member has spun out and parked;
    /// then release the flush. Returns (leader, member) outcomes.
    fn park_member_behind_held_leader(
        store: &Arc<HarnessStore>,
        gc: &Arc<GroupCommitter>,
        ts: u64,
    ) -> (Result<(), GroupError>, Result<(), GroupError>) {
        let gate = Arc::new(Barrier::new(2));
        *store.hold.lock() = Some(Arc::clone(&gate));
        let parks = gc.parks();
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| gc.commit(0, ts, [(1, ts)]));
            while store.hold.lock().is_some() {
                std::thread::yield_now(); // the leader is not at the barrier yet
            }
            let member = scope.spawn(|| gc.commit(0, ts + 1, [(2, ts + 1)]));
            while gc.parks() == parks {
                std::thread::yield_now();
            }
            gate.wait();
            (leader.join().unwrap(), member.join().unwrap())
        })
    }

    #[test]
    fn member_held_past_the_spin_bound_parks_and_is_woken_ok() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        let (leader, member) = park_member_behind_held_leader(&store, &gc, 1);
        leader.unwrap();
        member.unwrap();
        assert_eq!(gc.parks(), 1);
        assert_eq!(gc.flushes(), 2, "the member's batch follows the leader's");
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn parked_member_of_a_failed_sync_is_in_doubt_with_one_primary() {
        // The accumulation window puts leader and member in one batch:
        // the member fills it, the leader's flush is held, the member
        // parks, and the sync fails.
        let store = HarnessStore::new();
        let config = GroupCommitConfig::default()
            .with_max_records(2)
            .with_max_wait(Duration::from_secs(10));
        let gc = committer(&store, config);
        store.fail_sync.store(true, Ordering::SeqCst);
        let gate = Arc::new(Barrier::new(2));
        *store.hold.lock() = Some(Arc::clone(&gate));
        let errors: Vec<GroupError> = std::thread::scope(|scope| {
            let leader = scope.spawn(|| gc.commit(0, 1, [(1, 10)]));
            while gc.staged_records() < 1 {
                std::thread::yield_now(); // the leader is in its window
            }
            let member = scope.spawn(|| gc.commit(0, 2, [(2, 20)]));
            while gc.parks() == 0 {
                std::thread::yield_now();
            }
            gate.wait();
            vec![
                leader.join().unwrap().unwrap_err(),
                member.join().unwrap().unwrap_err(),
            ]
        });
        assert_eq!(gc.parks(), 1, "the leader's window is not a park");
        for e in &errors {
            assert!(matches!(e.error, BatchError::Sync(_)), "{e:?}");
            assert!(e.in_doubt, "appended but never confirmed");
        }
        assert_eq!(errors.iter().filter(|e| e.primary).count(), 1);
    }

    #[test]
    fn reopen_resets_the_failed_generation() {
        let store = HarnessStore::new();
        let gc = committer(&store, GroupCommitConfig::default());
        store.fail_sync.store(true, Ordering::SeqCst);
        let err = gc.commit(0, 1, [(1, 10)]).unwrap_err();
        assert!(matches!(err.error, BatchError::Sync(_)));
        assert_eq!(gc.failed_from.load(Ordering::SeqCst), 0);
        store.fail_sync.store(false, Ordering::SeqCst);
        gc.reopen(gc.next_seq());
        assert_eq!(gc.failed_from.load(Ordering::SeqCst), u64::MAX);
        gc.commit(0, 2, [(2, 20)]).unwrap();
        // A member reads its verdict from the watermark, not from a
        // flush result: it must see the reset too.
        let (leader, member) = park_member_behind_held_leader(&store, &gc, 3);
        leader.unwrap();
        member.unwrap();
    }
}
