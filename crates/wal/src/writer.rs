//! The append side: one [`LogWriter`] per shard log.
//!
//! The writer owns the sequence counter and serializes encode+append,
//! so `seq` order always equals byte order in the store — the property
//! [`crate::log::decode_log`]'s contiguity check later verifies.

use crate::record::encode_record;
use crate::store::{StoreError, WalStore};
use parking_lot::Mutex;
use std::sync::Arc;

struct WriterInner {
    next_seq: u64,
    buf: Vec<u8>,
}

/// Serialized appender over one [`WalStore`].
pub struct LogWriter {
    shard: u32,
    store: Arc<dyn WalStore>,
    inner: Mutex<WriterInner>,
}

impl LogWriter {
    /// A writer starting at sequence number `first_seq` (0 for a fresh
    /// log; recovery passes the successor of the last replayed seq when
    /// it continues an existing log).
    pub fn new(shard: u32, store: Arc<dyn WalStore>, first_seq: u64) -> LogWriter {
        LogWriter {
            shard,
            store,
            inner: Mutex::new(WriterInner {
                next_seq: first_seq,
                buf: Vec::with_capacity(256),
            }),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<dyn WalStore> {
        &self.store
    }

    /// Append one commit. Encode + store-append happen under one lock
    /// so concurrent commits on disjoint stripes cannot interleave
    /// their sequence numbers out of byte order.
    ///
    /// The sequence number is consumed only on success: a failed append
    /// persisted nothing decodable (transient) or a damaged prefix the
    /// recovery tail-scan discards (torn), so the *same* seq must go to
    /// the next attempt — advancing it would tear a [`WalError::SeqGap`]
    /// into an otherwise healthy log.
    ///
    /// [`WalError::SeqGap`]: crate::log::WalError::SeqGap
    pub fn append_commit(
        &self,
        epoch: u64,
        commit_ts: u64,
        writes: &[(u64, u64)],
    ) -> Result<(), StoreError> {
        let inner = &mut *self.inner.lock();
        inner.buf.clear();
        encode_record(
            &mut inner.buf,
            inner.next_seq,
            epoch,
            commit_ts,
            self.shard,
            writes,
        );
        self.store.append(&inner.buf)?;
        inner.next_seq += 1;
        Ok(())
    }

    /// Group-commit staging: reserve the next sequence number and
    /// encode one commit record *appended onto* `out` (the caller's
    /// batch buffer), returning the reserved seq.
    ///
    /// Unlike [`LogWriter::append_commit`], the seq is consumed
    /// immediately — the caller owns delivering the bytes to the store
    /// *in reservation order* and rolling the counter back (via
    /// [`LogWriter::set_next_seq`]) over any staged records whose
    /// flush fails with nothing persisted. A writer driven through
    /// this path must not also be driven through `append_commit`: the
    /// two would interleave reservation and delivery out of byte
    /// order. The [`crate::group::GroupCommitter`] is the intended
    /// sole caller.
    pub fn stage_commit(
        &self,
        epoch: u64,
        commit_ts: u64,
        writes: &[(u64, u64)],
        out: &mut Vec<u8>,
    ) -> u64 {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        encode_record(out, seq, epoch, commit_ts, self.shard, writes);
        inner.next_seq += 1;
        seq
    }

    /// Sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Reset the sequence counter. Two callers: rejoin (after a
    /// checkpoint truncated the log, the next record starts a fresh
    /// contiguous run — inside a quiesce fence, publishes excluded)
    /// and the group committer's failed-batch rollback (under its
    /// state lock, with every staged record's ticket failed first).
    /// Either way no commit may be concurrently staging or appending.
    pub fn set_next_seq(&self, seq: u64) {
        self.inner.lock().next_seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::decode_log;
    use crate::store::MemStore;

    #[test]
    fn writer_produces_contiguous_decodable_log() {
        let store = MemStore::healthy();
        let writer = LogWriter::new(4, Arc::clone(&store) as Arc<dyn WalStore>, 0);
        writer.append_commit(0, 1, &[(1, 10)]).unwrap();
        writer.append_commit(0, 2, &[(2, 20), (3, 30)]).unwrap();
        writer.append_commit(1, 1, &[]).unwrap();
        let (records, tail) = decode_log(&store.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(records.iter().all(|r| r.shard == 4));
        assert_eq!(writer.next_seq(), 3);
    }

    #[test]
    fn failed_append_keeps_seq_for_the_retry() {
        use crate::store::StoreError;
        use core::sync::atomic::{AtomicBool, Ordering};

        /// Fails the next append (persisting nothing), then recovers.
        struct Flaky {
            fail_next: AtomicBool,
            inner: Arc<MemStore>,
        }
        impl WalStore for Flaky {
            fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
                if self.fail_next.swap(false, Ordering::SeqCst) {
                    return Err(StoreError::Transient("injected".into()));
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

        let flaky = Arc::new(Flaky {
            fail_next: AtomicBool::new(false),
            inner: MemStore::healthy(),
        });
        let writer = LogWriter::new(0, Arc::clone(&flaky) as Arc<dyn WalStore>, 0);
        writer.append_commit(0, 1, &[(1, 10)]).unwrap();
        flaky.fail_next.store(true, Ordering::SeqCst);
        assert!(writer.append_commit(0, 2, &[(2, 20)]).is_err());
        assert_eq!(writer.next_seq(), 1, "failed append must not burn a seq");
        writer.append_commit(0, 2, &[(2, 20)]).unwrap(); // the retry
        let (records, tail) = decode_log(&flaky.log_bytes()).unwrap();
        assert!(tail.is_clean());
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1],
            "retried append continues the contiguous seq run"
        );
    }
}
