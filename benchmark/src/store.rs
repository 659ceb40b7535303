//! The timing wrapper around a store (a `FileStore` on disk, or a
//! `MemStore`): it implements the public `WalStore` trait, forwards every
//! call, and (while recording) keeps each `append`/`sync`/`checkpoint`
//! call's duration, byte count and span.

use crate::measure::{Samples, SpanLog};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use stm_wal::{StoreError, WalStore};

/// What the wrapped stores of one engine observed.
#[derive(Default)]
pub struct StoreCalls {
    pub append: Samples,
    pub sync: Samples,
    pub checkpoint: Samples,
    pub bytes: u64,
    pub spans: SpanLog,
}

/// Shared by every wrapped store of one engine.
#[derive(Default)]
pub struct StoreTrace {
    /// Calls are kept only while this is set (the measured window).
    pub recording: AtomicBool,
    calls: Mutex<StoreCalls>,
}

impl StoreTrace {
    pub fn calls(&self) -> MutexGuard<'_, StoreCalls> {
        self.calls.lock().expect("store trace lock poisoned")
    }

    fn note(&self, name: &'static str, start: Instant, bytes: usize) {
        if !self.recording.load(Ordering::Relaxed) {
            return;
        }
        let end = Instant::now();
        let mut c = self.calls();
        let samples = match name {
            "wal.append" => &mut c.append,
            "wal.sync" => &mut c.sync,
            _ => &mut c.checkpoint,
        };
        samples.record(end - start);
        c.bytes += bytes as u64;
        c.spans.push(name, start, end, None);
    }
}

pub struct TimedStore {
    inner: Arc<dyn WalStore>,
    trace: Arc<StoreTrace>,
}

impl TimedStore {
    pub fn new(inner: Arc<dyn WalStore>, trace: Arc<StoreTrace>) -> TimedStore {
        TimedStore { inner, trace }
    }
}

impl WalStore for TimedStore {
    fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let start = Instant::now();
        let r = self.inner.append(bytes);
        self.trace.note("wal.append", start, bytes.len());
        r
    }

    fn sync(&self) -> Result<(), StoreError> {
        let start = Instant::now();
        let r = self.inner.sync();
        self.trace.note("wal.sync", start, 0);
        r
    }

    fn log_bytes(&self) -> Vec<u8> {
        self.inner.log_bytes()
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        self.inner.snapshot()
    }

    fn checkpoint(&self, snapshot: &[u8]) -> Result<(), StoreError> {
        let start = Instant::now();
        let r = self.inner.checkpoint(snapshot);
        self.trace.note("wal.checkpoint", start, 0);
        r
    }
}
