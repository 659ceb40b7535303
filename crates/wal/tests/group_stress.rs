//! Lost-wakeup stress for the group committer's ack path.
//!
//! Four committers race 20k commits each over a store whose appends
//! sleep 0–50 µs on a seeded subset, so members' waits fall on both
//! sides of the spin bound: some resolve while spinning, others park
//! and must be woken. Every commit must return (a lost wakeup fails the
//! deadline instead of hanging the suite), and the log must decode to
//! the contiguous seq run of exactly the acknowledged commits — once on
//! a healthy store, and once across an injected failure and a reopen.
//!
//! CI runs this file 20 times in release:
//! `cargo test --release -q -p stm-wal --test group_stress`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use stm_wal::{
    decode_log, BatchError, GroupCommitConfig, GroupCommitter, GroupError, MemStore, StoreError,
    WalStore,
};

const THREADS: u64 = 4;
const COMMITS: u64 = 20_000;
const SEED: u64 = 0x5EED_A11C;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `MemStore` whose appends sleep 0–50 µs on one in eight (seeded),
/// and which fails append number `fail_at` with a permanent error.
struct SlowStore {
    inner: Arc<MemStore>,
    appends: AtomicU64,
    fail_at: u64,
}

impl SlowStore {
    fn new(fail_at: u64) -> Arc<SlowStore> {
        Arc::new(SlowStore {
            inner: MemStore::healthy(),
            appends: AtomicU64::new(0),
            fail_at,
        })
    }
}

impl WalStore for SlowStore {
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let n = self.appends.fetch_add(1, Ordering::Relaxed);
        let r = splitmix(SEED ^ n);
        if r.is_multiple_of(8) {
            std::thread::sleep(Duration::from_micros((r >> 32) % 51));
        }
        if n == self.fail_at {
            return Err(StoreError::Permanent("injected".into()));
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

/// `THREADS` committers × `COMMITS` each; a committer stops at its
/// first error. Returns the acknowledged commit timestamps and the
/// errors. Panics if any committer has not returned by the deadline.
fn race(gc: &Arc<GroupCommitter>, round: u64) -> (Vec<u64>, Vec<GroupError>) {
    let (tx, rx) = mpsc::channel();
    for t in 0..THREADS {
        let gc = Arc::clone(gc);
        let tx = tx.clone();
        std::thread::spawn(move || {
            let mut acked = Vec::with_capacity(COMMITS as usize);
            let mut error = None;
            for i in 0..COMMITS {
                let ts = round << 48 | t << 32 | i;
                match gc.commit(0, ts, [(t, i)]) {
                    Ok(()) => acked.push(ts),
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            let _ = tx.send((acked, error));
        });
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut acked = Vec::new();
    let mut errors = Vec::new();
    for _ in 0..THREADS {
        let left = deadline.saturating_duration_since(Instant::now());
        let (a, e) = rx
            .recv_timeout(left)
            .expect("a commit never returned (lost wakeup)");
        acked.extend(a);
        errors.extend(e);
    }
    (acked, errors)
}

/// The log holds exactly `acked`, numbered 0..N without a gap.
fn assert_log_is_exactly(store: &SlowStore, acked: &[u64]) {
    let (records, tail) = decode_log(&store.log_bytes()).unwrap();
    assert!(tail.is_clean());
    assert!(
        records.iter().map(|r| r.seq).eq(0..acked.len() as u64),
        "seqs are not the contiguous run 0..{}",
        acked.len()
    );
    let logged: BTreeSet<u64> = records.iter().map(|r| r.commit_ts).collect();
    let acked: BTreeSet<u64> = acked.iter().copied().collect();
    assert_eq!(logged, acked, "the log holds exactly the acked commits");
}

fn committer(store: &Arc<SlowStore>) -> Arc<GroupCommitter> {
    let store = Arc::clone(store) as Arc<dyn WalStore>;
    GroupCommitter::new(0, store, 0, GroupCommitConfig::default())
}

#[test]
fn every_commit_returns_and_the_log_is_contiguous() {
    let store = SlowStore::new(u64::MAX);
    let gc = committer(&store);
    let (acked, errors) = race(&gc, 0);
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(acked.len() as u64, THREADS * COMMITS);
    assert!(
        gc.parks() > 0,
        "no member parked: the slow path went untested"
    );
    assert_log_is_exactly(&store, &acked);
}

#[test]
fn one_failure_then_reopen_keeps_the_log_contiguous() {
    let store = SlowStore::new(1000 + splitmix(SEED) % 2000);
    let gc = committer(&store);
    // Round 0 runs into the failure: the committer closes, so every
    // committer stops at an error (the appends before the failure
    // cover at most 4 commits each, far from 20k).
    let (mut acked, errors) = race(&gc, 0);
    assert_eq!(errors.len() as u64, THREADS);
    assert_eq!(errors.iter().filter(|e| e.primary).count(), 1);
    for e in &errors {
        match &e.error {
            BatchError::Append(StoreError::Permanent(_)) => {}
            BatchError::Cancelled => assert!(!e.primary),
            other => panic!("untyped outcome {other:?}"),
        }
        assert!(!e.in_doubt, "nothing of a failed append persisted");
    }
    gc.reopen(gc.next_seq());
    let (more, errors) = race(&gc, 1);
    assert!(errors.is_empty(), "{errors:?}");
    assert_eq!(more.len() as u64, THREADS * COMMITS);
    acked.extend(more);
    assert_log_is_exactly(&store, &acked);
}
