//! Log storage: the [`WalStore`] abstraction, the [`StoreError`]
//! taxonomy with its one [`RetryPolicy`], an in-memory implementation,
//! and the crash switch that simulates power loss.
//!
//! ## Crash simulation
//!
//! Real crashes cut an append stream at an arbitrary *byte*: the tail
//! record of the surviving log may be incomplete (torn). [`CrashSwitch`]
//! models exactly that — a byte budget shared by every store of an
//! engine. Once the budget runs out (or [`CrashSwitch::cut_now`] fires)
//! each append lands only partially or not at all, and checkpoint
//! operations stop taking effect, just as they would after the power
//! went. The store also keeps a *shadow* copy of the full, uncut stream
//! so tests can assert the surviving log is a byte prefix of what was
//! written (strata-core's append-only invariant M1.1).

use crate::fault::splitmix64;
use crate::snapshot::Snapshot;
use core::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// A storage operation failed. The variant is the *retry contract*, not
/// just a label — it tells the caller what state the log is in and
/// whether re-issuing the same bytes is sound:
///
/// * [`StoreError::Transient`] — nothing reached the log; the identical
///   append may be retried in place (same sequence number, same bytes).
/// * [`StoreError::Torn`] — a strict prefix of the append reached the
///   log. Retrying in place would put a damaged frame *before* an
///   intact record, which recovery correctly refuses as interior
///   corruption — so a torn append is **never** retryable; the shard
///   must stop appending until a checkpoint truncates the torn bytes.
/// * [`StoreError::Permanent`] — the device is gone (or fsync failed,
///   after which re-running fsync proves nothing); no further writes
///   can be trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Nothing persisted; the same operation may be retried.
    Transient(String),
    /// `persisted` bytes of the append landed before the failure; the
    /// log now ends in a damaged frame. Not retryable in place.
    Torn {
        /// Bytes of the attempted append that reached the log.
        persisted: usize,
        /// Human-readable cause.
        detail: String,
    },
    /// The store is unusable; no retry can succeed.
    Permanent(String),
}

impl StoreError {
    /// May the caller re-issue the identical operation?
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Transient(_))
    }

    /// Human-readable cause.
    pub fn detail(&self) -> &str {
        match self {
            StoreError::Transient(d) | StoreError::Permanent(d) => d,
            StoreError::Torn { detail, .. } => detail,
        }
    }
}

/// The one retry policy for [`StoreError::Transient`] failures: up to
/// [`RetryPolicy::MAX_RETRIES`] in-place retries, backing off
/// exponentially from [`RetryPolicy::BASE_US`] to a
/// [`RetryPolicy::MAX_US`] cap with up to +50% deterministic
/// (splitmix64) jitter. The group-commit leader retries batch appends
/// under it while the batch's committers wait with their stripe locks
/// held, and the engine retries checkpoints under it inside the quiesce
/// fence — so the budget is µs-scale and hard-bounded: 50 + 100 + 200 +
/// 400 = 750 µs of sleep before jitter, under 2 ms with it. Torn and
/// permanent errors are never retried (see [`StoreError`]).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy;

impl RetryPolicy {
    /// Retries after the first failure (total attempts = retries + 1).
    pub const MAX_RETRIES: u32 = 4;
    /// Backoff before the first retry, microseconds.
    pub const BASE_US: u64 = 50;
    /// Backoff cap per retry, microseconds.
    pub const MAX_US: u64 = 400;

    /// Backoff before retry `attempt` (0-based), jittered
    /// deterministically by `salt` (callers pass an operation identity
    /// so concurrent retries desynchronize without a global RNG).
    pub fn backoff(attempt: u32, salt: u64) -> Duration {
        let exp = Self::BASE_US
            .saturating_mul(1u64 << attempt.min(16))
            .min(Self::MAX_US);
        let mut state = salt ^ u64::from(attempt);
        let jitter = splitmix64(&mut state) % (exp / 2 + 1);
        Duration::from_micros(exp + jitter)
    }

    /// Run `op`, retrying transient failures in place under the policy.
    /// `on_retry` runs once per retry (callers count them). Returns the
    /// first success, the first non-transient error, or the transient
    /// error that exhausted the budget.
    pub fn retry<T>(
        salt: u64,
        mut op: impl FnMut() -> Result<T, StoreError>,
        mut on_retry: impl FnMut(),
    ) -> Result<T, StoreError> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(e) if e.is_transient() && attempt < Self::MAX_RETRIES => {
                    on_retry();
                    std::thread::sleep(Self::backoff(attempt, salt));
                    attempt += 1;
                }
                result => return result,
            }
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Transient(d) => write!(f, "transient store error: {d}"),
            StoreError::Torn { persisted, detail } => {
                write!(f, "torn append ({persisted} bytes persisted): {detail}")
            }
            StoreError::Permanent(d) => write!(f, "permanent store error: {d}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Durable storage for one shard: an append-only log plus one snapshot
/// slot (the checkpoint base the log is replayed on top of).
///
/// Implementations must make `append` atomic with respect to concurrent
/// `append`s (no interleaved bytes) — callers already serialize appends
/// per sink, but the store must not assume it.
///
/// Failure contract: `Err` classifies what (if anything) persisted, per
/// [`StoreError`]. A *simulated power cut* ([`CrashSwitch`]) is **not**
/// an error — the writing machine is "dead" and never observes it, so
/// a cut store keeps returning `Ok` while silently dropping bytes,
/// exactly like real hardware losing power mid-write.
pub trait WalStore: Send + Sync {
    /// Append `bytes` to the log.
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError>;
    /// Force previously appended bytes down to durable storage (fsync
    /// for file-backed stores; a no-op for memory stores). A failed
    /// sync is never retryable: the bytes since the last successful
    /// sync are in an unknown state (they may or may not survive).
    fn sync(&self) -> Result<(), StoreError> {
        Ok(())
    }
    /// The current log contents.
    fn log_bytes(&self) -> Vec<u8>;
    /// The current snapshot, if a checkpoint ever completed.
    fn snapshot(&self) -> Option<Vec<u8>>;
    /// Checkpoint: atomically install `snapshot` and clear the log.
    /// A crashed store ignores this (the old snapshot + log survive).
    fn checkpoint(&self, snapshot: &[u8]) -> Result<(), StoreError>;
}

/// Shared kill switch for a set of stores (one per engine).
///
/// `remaining` is the byte budget left for appends across *all* stores
/// sharing the switch; it going non-positive is the crash instant.
pub struct CrashSwitch {
    remaining: AtomicI64,
    cut: AtomicBool,
}

impl CrashSwitch {
    /// A switch that never fires (healthy operation).
    pub fn unlimited() -> Arc<CrashSwitch> {
        Arc::new(CrashSwitch {
            remaining: AtomicI64::new(i64::MAX),
            cut: AtomicBool::new(false),
        })
    }

    /// Crash after `bytes` total appended bytes — mid-record when the
    /// budget edge falls inside one, which is the torn-tail case.
    pub fn after_bytes(bytes: u64) -> Arc<CrashSwitch> {
        Arc::new(CrashSwitch {
            remaining: AtomicI64::new(bytes.min(i64::MAX as u64) as i64),
            cut: AtomicBool::new(false),
        })
    }

    /// Crash immediately: every subsequent append/checkpoint is lost.
    pub fn cut_now(&self) {
        self.cut.store(true, Ordering::SeqCst);
    }

    /// Has the crash happened?
    pub fn is_cut(&self) -> bool {
        self.cut.load(Ordering::SeqCst) || self.remaining.load(Ordering::SeqCst) <= 0
    }

    /// How many of `want` bytes this append may still persist (store
    /// implementations call this once per append, under their lock).
    pub(crate) fn admit(&self, want: usize) -> usize {
        if self.cut.load(Ordering::SeqCst) {
            return 0;
        }
        let before = self.remaining.fetch_sub(want as i64, Ordering::SeqCst);
        before.clamp(0, want as i64) as usize
    }
}

struct MemInner {
    log: Vec<u8>,
    snapshot: Option<Vec<u8>>,
    /// Full uncut append stream (what the log would hold had the crash
    /// not happened) — test oracle only, a real store has no shadow.
    shadow: Vec<u8>,
}

/// In-memory [`WalStore`] with crash simulation hooks.
pub struct MemStore {
    inner: Mutex<MemInner>,
    switch: Arc<CrashSwitch>,
}

impl MemStore {
    /// A store wired to `switch` (share one switch across an engine's
    /// stores so they crash at the same instant).
    pub fn new(switch: Arc<CrashSwitch>) -> Arc<MemStore> {
        Arc::new(MemStore {
            inner: Mutex::new(MemInner {
                log: Vec::new(),
                snapshot: None,
                shadow: Vec::new(),
            }),
            switch,
        })
    }

    /// A store that never crashes.
    pub fn healthy() -> Arc<MemStore> {
        MemStore::new(CrashSwitch::unlimited())
    }

    /// The power-cycle: a fresh healthy store booted from the bytes
    /// that survived on `prev`. The crash switch dies with the old
    /// machine; only the persisted log and snapshot carry over.
    pub fn rebooted(prev: &dyn WalStore) -> Arc<MemStore> {
        let store = MemStore::healthy();
        {
            let mut inner = store.inner.lock();
            inner.log = prev.log_bytes();
            inner.shadow = inner.log.clone();
            inner.snapshot = prev.snapshot();
        }
        store
    }

    /// The full uncut stream (test oracle for prefix assertions).
    pub fn shadow_bytes(&self) -> Vec<u8> {
        self.inner.lock().shadow.clone()
    }

    /// Flip one bit of the stored log in place (corruption injection).
    ///
    /// # Panics
    /// If `offset` is out of range.
    pub fn flip_log_bit(&self, offset: usize, bit: u8) {
        let mut inner = self.inner.lock();
        inner.log[offset] ^= 1 << (bit & 7);
    }

    /// Truncate the stored log to `len` bytes (torn-tail injection).
    pub fn truncate_log(&self, len: usize) {
        let mut inner = self.inner.lock();
        inner.log.truncate(len);
    }

    /// Current log length in bytes.
    pub fn log_len(&self) -> usize {
        self.inner.lock().log.len()
    }
}

impl WalStore for MemStore {
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        // Shadow sees everything; the survivable log only what the
        // crash budget admits. Taking the budget under the store mutex
        // keeps the cut point consistent with append order. A cut is a
        // power loss, not an I/O error: the writer never learns of it,
        // so the append still reports success (see the trait docs).
        inner.shadow.extend_from_slice(bytes);
        let admitted = self.switch.admit(bytes.len());
        inner.log.extend_from_slice(&bytes[..admitted]);
        Ok(())
    }

    fn log_bytes(&self) -> Vec<u8> {
        self.inner.lock().log.clone()
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.lock().snapshot.clone()
    }

    fn checkpoint(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        if self.switch.is_cut() {
            return Ok(()); // the machine is "off"; nothing reaches disk
        }
        let mut inner = self.inner.lock();
        inner.snapshot = Some(snapshot.to_vec());
        inner.log.clear();
        inner.shadow.clear();
        Ok(())
    }
}

/// Decode a store's snapshot slot, if present.
pub fn read_snapshot(store: &dyn WalStore) -> Result<Option<Snapshot>, crate::log::WalError> {
    match store.snapshot() {
        None => Ok(None),
        Some(bytes) => Snapshot::decode(&bytes).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_monotonic_in_the_cap() {
        let mut total = Duration::ZERO;
        for attempt in 0..RetryPolicy::MAX_RETRIES {
            let d = RetryPolicy::backoff(attempt, 0xDEAD_BEEF);
            // exp ≤ MAX_US, jitter ≤ exp/2.
            assert!(d <= Duration::from_micros(RetryPolicy::MAX_US * 3 / 2));
            total += d;
        }
        assert!(total < Duration::from_millis(2), "budget blown: {total:?}");
    }

    #[test]
    fn backoff_jitter_is_deterministic() {
        assert_eq!(RetryPolicy::backoff(2, 77), RetryPolicy::backoff(2, 77));
        // Different salts usually differ (this pair does).
        assert_ne!(RetryPolicy::backoff(2, 77), RetryPolicy::backoff(2, 78));
    }

    #[test]
    fn healthy_store_keeps_everything() {
        let store = MemStore::healthy();
        store.append(b"abc").unwrap();
        store.append(b"defg").unwrap();
        assert_eq!(store.log_bytes(), b"abcdefg");
        assert_eq!(store.shadow_bytes(), b"abcdefg");
    }

    #[test]
    fn byte_budget_cuts_mid_append() {
        let switch = CrashSwitch::after_bytes(5);
        let store = MemStore::new(Arc::clone(&switch));
        store.append(b"abc").unwrap(); // 3 of 5
        store.append(b"defg").unwrap(); // 2 admitted, torn
        store.append(b"hij").unwrap(); // 0 admitted
        assert_eq!(store.log_bytes(), b"abcde");
        assert_eq!(store.shadow_bytes(), b"abcdefghij");
        assert!(switch.is_cut());
    }

    #[test]
    fn cut_now_freezes_log_and_checkpoint() {
        let switch = CrashSwitch::unlimited();
        let store = MemStore::new(Arc::clone(&switch));
        store.append(b"abc").unwrap();
        switch.cut_now();
        store.append(b"def").unwrap();
        store.checkpoint(b"snap").unwrap();
        assert_eq!(store.log_bytes(), b"abc");
        assert_eq!(store.snapshot(), None);
    }

    #[test]
    fn reboot_carries_persisted_bytes_onto_a_live_machine() {
        let switch = CrashSwitch::after_bytes(5);
        let store = MemStore::new(switch);
        store.append(b"abcdefg").unwrap(); // torn at 5
        let booted = MemStore::rebooted(&*store);
        assert_eq!(booted.log_bytes(), b"abcde");
        booted.append(b"hij").unwrap(); // the new machine is healthy
        assert_eq!(booted.log_bytes(), b"abcdehij");
        booted.checkpoint(b"snap").unwrap();
        assert_eq!(booted.snapshot().unwrap(), b"snap");
    }

    #[test]
    fn checkpoint_replaces_snapshot_and_clears_log() {
        let store = MemStore::healthy();
        store.append(b"abc").unwrap();
        store.checkpoint(b"snap").unwrap();
        assert_eq!(store.log_bytes(), b"");
        assert_eq!(store.snapshot().unwrap(), b"snap");
    }

    #[test]
    fn surviving_log_is_a_prefix_of_shadow() {
        let switch = CrashSwitch::after_bytes(17);
        let store = MemStore::new(switch);
        for i in 0u8..10 {
            store.append(&[i; 4]).unwrap();
        }
        let log = store.log_bytes();
        let shadow = store.shadow_bytes();
        assert_eq!(log.len(), 17);
        assert_eq!(&shadow[..log.len()], &log[..]);
    }
}
