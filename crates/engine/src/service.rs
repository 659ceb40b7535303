//! The multi-tenant service layer (feature `durable`): [`StmService`]
//! lifts a [`DurableEngine`] from a library you call into a small
//! service you *submit to* — bounded per-shard admission, tenant
//! key-namespacing, caller-thread commits that feed the shard's
//! group-commit batches, and checkpoint scheduling that slots snapshots
//! between batches while traffic keeps flowing.
//!
//! ## Shape
//!
//! * **Tenants** own disjoint dense key ranges: tenant `t`'s key `k`
//!   maps to global key `t * keys_per_tenant + k`. Namespacing is pure
//!   arithmetic — isolation comes from the engine's transactional
//!   guarantees, not from per-tenant machinery — so tenants share the
//!   shards, the WAL batches, and the checkpoints.
//! * **Submission**: [`StmService::put`] runs [`DurableEngine::put`]
//!   on the *calling* thread and returns once the write is committed
//!   and the WAL — batched by group commit — has *acked* it: as in
//!   TinySTM, the transaction runs on the thread that wants its
//!   result. Concurrent callers on one shard land in the same
//!   [`stm_wal::GroupCommitter`] batch, so one fsync acknowledges many
//!   submissions.
//! * **Backpressure**: each shard counts its admitted, unresolved
//!   submissions — including those blocked behind a checkpoint. A put
//!   that would take the count past `queue_depth` is rejected with the
//!   typed [`ServiceError::Overloaded`] instead of waiting unboundedly;
//!   rejects are counted, never silent.
//! * **Checkpoints under load**: each shard has a gate
//!   (`RwLock<()>`): puts hold it shared for their transaction,
//!   [`StmService::checkpoint`] takes it exclusively per shard. The
//!   write acquisition drains in-flight puts for *that shard only*,
//!   the engine's quiesce fence then acquires against an idle shard
//!   instantly, and traffic on other shards never stalls. The
//!   gate-hold histogram ([`StmService::checkpoint_stall`]) measures
//!   each shard's stall at its source, and the ack-latency histogram
//!   ([`StmService::ack_latency`]) shows what the puts behind it paid.
//!
//! The admission count and the gate are RAII guards: a put that
//! panics unwinds into its caller and releases both, so it can wedge
//! neither `checkpoint` nor `stop`.
//!
//! The service is deliberately synchronous (blocking `put`): the
//! callers are load generators and tests that want per-submission ack
//! latencies, and a blocking API keeps "acked" a precise event — the
//! submission's value is durable at the engine's level when `put`
//! returns `Ok`.

use crate::backend::ShardBackend;
use crate::durable::{DurableEngine, DurableError, WriteError};
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use parking_lot::RwLock;
use std::sync::Arc;
use std::time::Instant;
use stm_telemetry::{AtomicHist, HistSnapshot};

/// Sizing of an [`StmService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of tenants; tenant ids are `0..tenants`.
    pub tenants: usize,
    /// Keys per tenant; tenant-local keys are `0..keys_per_tenant`.
    /// `tenants * keys_per_tenant` must not exceed the engine's
    /// `n_keys`.
    pub keys_per_tenant: usize,
    /// Bound on each shard's admitted, unresolved submissions (puts
    /// blocked behind a checkpoint included); a submission that finds
    /// the routed shard at the bound is rejected with
    /// [`ServiceError::Overloaded`].
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            tenants: 1,
            keys_per_tenant: 1024,
            queue_depth: 256,
        }
    }
}

impl ServiceConfig {
    /// Set the tenant count.
    pub fn with_tenants(mut self, tenants: usize) -> ServiceConfig {
        self.tenants = tenants;
        self
    }

    /// Set the per-tenant key range.
    pub fn with_keys_per_tenant(mut self, keys: usize) -> ServiceConfig {
        self.keys_per_tenant = keys;
        self
    }

    /// Set the per-shard in-flight bound.
    pub fn with_queue_depth(mut self, depth: usize) -> ServiceConfig {
        self.queue_depth = depth;
        self
    }
}

/// A submission refused or failed by the service. Typed, counted,
/// never silent — the caller always learns which contract was broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The tenant id is outside `0..tenants`.
    NoSuchTenant {
        /// The offending tenant id.
        tenant: usize,
        /// The configured tenant count.
        tenants: usize,
    },
    /// The tenant-local key is outside `0..keys_per_tenant`.
    KeyOutOfRange {
        /// The offending key.
        key: u64,
        /// The per-tenant key range.
        keys_per_tenant: usize,
    },
    /// The routed shard already had `queue_depth` submissions in
    /// flight: bounded backpressure chose rejection over unbounded
    /// waiting.
    Overloaded {
        /// The overloaded shard.
        shard: usize,
    },
    /// The engine refused or failed the write (shard unhealthy, WAL
    /// publish failed); the submission had no effect.
    Write(WriteError),
    /// The service is stopping; no new submissions are accepted.
    Stopped,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::NoSuchTenant { tenant, tenants } => {
                write!(f, "no tenant {tenant} (service has {tenants})")
            }
            ServiceError::KeyOutOfRange {
                key,
                keys_per_tenant,
            } => {
                write!(f, "key {key} outside tenant range 0..{keys_per_tenant}")
            }
            ServiceError::Overloaded { shard } => {
                write!(f, "shard {shard} overloaded; submission rejected")
            }
            ServiceError::Write(e) => write!(f, "engine write failed: {e}"),
            ServiceError::Stopped => write!(f, "service is stopped"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<WriteError> for ServiceError {
    fn from(e: WriteError) -> ServiceError {
        ServiceError::Write(e)
    }
}

/// One shard's admission state.
struct Shard {
    /// Admitted, unresolved submissions, bounded by `queue_depth`.
    in_flight: AtomicUsize,
    /// The checkpoint gate: puts hold it shared for their transaction,
    /// checkpoints and `stop` take it exclusively — draining this
    /// shard's in-flight puts without touching the other shards.
    gate: RwLock<()>,
}

/// One admitted submission's share of [`Shard::in_flight`], returned
/// on drop — also when the put unwinds.
struct Admitted<'a>(&'a AtomicUsize);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Shard {
    /// Take one in-flight slot, or `None` if the shard is at `depth`.
    fn admit(&self, depth: usize) -> Option<Admitted<'_>> {
        self.in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < depth).then_some(n + 1)
            })
            .ok()
            .map(|_| Admitted(&self.in_flight))
    }
}

/// A multi-tenant write service over a [`DurableEngine`]. See the
/// module docs for the shape.
///
/// Puts run on their callers' threads; the service owns no threads.
/// Submissions racing a [`StmService::stop`] get
/// [`ServiceError::Stopped`] or their normal outcome — accepted work
/// is always finished.
pub struct StmService<B: ShardBackend> {
    engine: Arc<DurableEngine<B>>,
    config: ServiceConfig,
    shards: Vec<Shard>,
    stopping: AtomicBool,
    /// Submissions admitted past backpressure and `stop`.
    accepted: AtomicU64,
    /// Submissions rejected by backpressure (`Overloaded`).
    overloaded: AtomicU64,
    /// Shard checkpoints completed under load.
    checkpoints: AtomicU64,
    /// Submit→ack latency of successful puts, nanoseconds.
    ack_hist: AtomicHist,
    /// Gate-hold time of each completed shard checkpoint, nanoseconds.
    stall_hist: AtomicHist,
}

impl<B: ShardBackend> StmService<B> {
    /// Start a service over `engine`, with one admission bound and one
    /// checkpoint gate per engine shard.
    ///
    /// # Panics
    /// If the tenant key space (`tenants * keys_per_tenant`) exceeds
    /// the engine's key range.
    pub fn start(engine: Arc<DurableEngine<B>>, config: ServiceConfig) -> StmService<B> {
        let span = config.tenants * config.keys_per_tenant;
        assert!(
            span <= engine.n_keys(),
            "tenant key space {span} exceeds the engine's {} keys",
            engine.n_keys()
        );
        let shards = (0..engine.engine().shards())
            .map(|_| Shard {
                in_flight: AtomicUsize::new(0),
                gate: RwLock::new(()),
            })
            .collect();
        StmService {
            engine,
            config,
            shards,
            stopping: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            ack_hist: AtomicHist::new(),
            stall_hist: AtomicHist::new(),
        }
    }

    /// The engine underneath (stats, stores, health).
    pub fn engine(&self) -> &Arc<DurableEngine<B>> {
        &self.engine
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Map a tenant-local key to its global engine key, validating both
    /// coordinates.
    fn global_key(&self, tenant: usize, key: u64) -> Result<u64, ServiceError> {
        let cfg = &self.config;
        if tenant >= cfg.tenants {
            return Err(ServiceError::NoSuchTenant {
                tenant,
                tenants: cfg.tenants,
            });
        }
        if key as usize >= cfg.keys_per_tenant {
            return Err(ServiceError::KeyOutOfRange {
                key,
                keys_per_tenant: cfg.keys_per_tenant,
            });
        }
        Ok((tenant * cfg.keys_per_tenant) as u64 + key)
    }

    /// Submit `tenant`'s write of `key := value` and run it on this
    /// thread until it is committed **and acked** by the durable layer
    /// (its group-commit batch is flushed and synced). `Ok`
    /// means durable; any `Err` means the write had no effect.
    pub fn put(&self, tenant: usize, key: u64, value: u64) -> Result<(), ServiceError> {
        let global = self.global_key(tenant, key)?;
        let shard = self.engine.engine().route(global);
        let submitted = Instant::now();
        let state = &self.shards[shard];
        let Some(_admitted) = state.admit(self.config.queue_depth) else {
            self.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Overloaded { shard });
        };
        // Shared gate: a concurrent checkpoint's or stop's exclusive
        // acquisition waits for in-flight puts (bounded — each is one
        // transaction) and blocks new ones until it is done.
        let _gate = state.gate.read();
        if self.stopping.load(Ordering::Acquire) {
            return Err(ServiceError::Stopped);
        }
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.engine.put(global, value)?;
        let ns = submitted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.ack_hist.record(ns);
        Ok(())
    }

    /// Read `tenant`'s `key` directly (reads take no admission slot:
    /// the engine serves them transactionally in every health state).
    pub fn get(&self, tenant: usize, key: u64) -> Result<u64, ServiceError> {
        let global = self.global_key(tenant, key)?;
        Ok(self.engine.get(global))
    }

    /// Checkpoint every shard **under load**: shard by shard, take the
    /// shard's gate exclusively (draining its in-flight puts, blocking
    /// new ones), snapshot it through the engine's quiesce fence,
    /// release. Other shards keep serving throughout; the blocked
    /// shard's submissions see a bounded ack-latency bump, not an
    /// error. Each completed shard checkpoint records how long it held
    /// the gate into [`StmService::checkpoint_stall`].
    pub fn checkpoint(&self) -> Result<(), DurableError> {
        for (i, state) in self.shards.iter().enumerate() {
            let gate = state.gate.write();
            let held = Instant::now();
            self.engine.checkpoint_one(i)?;
            let ns = held.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            drop(gate);
            self.stall_hist.record(ns);
            self.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Stop the service: reject new submissions, then take each
    /// shard's gate exclusively once, which waits out every put that
    /// was already accepted. When `stop` returns, no put is running
    /// and every later one returns [`ServiceError::Stopped`].
    /// Idempotent.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::Release);
        for state in &self.shards {
            drop(state.gate.write());
        }
    }

    /// Submissions admitted past backpressure and `stop` so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Submissions rejected by backpressure so far.
    pub fn overloaded(&self) -> u64 {
        self.overloaded.load(Ordering::Relaxed)
    }

    /// Shard checkpoints completed so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Snapshot of the submit→ack latency histogram (successful puts).
    pub fn ack_latency(&self) -> HistSnapshot {
        self.ack_hist.snapshot()
    }

    /// Snapshot of the checkpoint-stall histogram: how long each
    /// completed shard checkpoint held its shard's gate (puts on that
    /// shard wait this long), nanoseconds. Its count is
    /// [`StmService::checkpoints`].
    pub fn checkpoint_stall(&self) -> HistSnapshot {
        self.stall_hist.snapshot()
    }
}

impl<B: ShardBackend> stm_telemetry::MetricsSource for StmService<B> {
    fn collect(&self, frame: &mut stm_telemetry::MetricsFrame) {
        stm_telemetry::MetricsSource::collect(self.engine.as_ref(), frame);
        frame.counter(
            "stm_service_accepted_total",
            "Submissions admitted to a shard.",
            &[],
            self.accepted(),
        );
        frame.counter(
            "stm_service_overloaded_total",
            "Submissions rejected by in-flight backpressure.",
            &[],
            self.overloaded(),
        );
        frame.counter(
            "stm_service_checkpoints_total",
            "Shard checkpoints completed under load.",
            &[],
            self.checkpoints(),
        );
        frame.summary(
            "stm_ack_latency_ns",
            "Submit-to-ack latency of successful service puts.",
            &[],
            self.ack_latency(),
        );
        frame.summary(
            "stm_service_checkpoint_stall_ns",
            "Time each shard checkpoint held its shard's gate (puts blocked).",
            &[],
            self.checkpoint_stall(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::{Condvar, Mutex};
    use std::sync::Arc;
    use std::time::Duration;
    use stm_wal::{GroupCommitConfig, MemStore, StoreError, WalStore};
    use tinystm::{Stm, StmConfig};

    fn service(shards: usize, config: ServiceConfig) -> (StmService<Stm>, Arc<DurableEngine<Stm>>) {
        let stores: Vec<Arc<dyn WalStore>> = (0..shards)
            .map(|_| MemStore::healthy() as Arc<dyn WalStore>)
            .collect();
        service_over(stores, config)
    }

    fn service_over(
        stores: Vec<Arc<dyn WalStore>>,
        config: ServiceConfig,
    ) -> (StmService<Stm>, Arc<DurableEngine<Stm>>) {
        let shards = stores.len();
        let engine = Arc::new(
            DurableEngine::<Stm>::new_grouped(
                shards,
                config.tenants * config.keys_per_tenant,
                &StmConfig::default(),
                stores,
                GroupCommitConfig::default(),
            )
            .unwrap(),
        );
        (StmService::start(Arc::clone(&engine), config), engine)
    }

    #[test]
    fn puts_ack_and_reads_see_them() {
        let cfg = ServiceConfig::default()
            .with_tenants(2)
            .with_keys_per_tenant(64);
        let (svc, engine) = service(2, cfg);
        for t in 0..2 {
            for k in 0..64u64 {
                svc.put(t, k, 1000 * t as u64 + k).unwrap();
            }
        }
        for t in 0..2 {
            for k in 0..64u64 {
                assert_eq!(svc.get(t, k).unwrap(), 1000 * t as u64 + k);
            }
        }
        assert_eq!(svc.accepted(), 128);
        assert_eq!(svc.overloaded(), 0);
        assert_eq!(svc.ack_latency().count, 128);
        // Every acked write is in the shard logs.
        let (flushes, records) = engine.group_flush_stats();
        assert_eq!(records, 128);
        assert!((1..=128).contains(&flushes));
    }

    #[test]
    fn tenants_are_namespaced() {
        let cfg = ServiceConfig::default()
            .with_tenants(3)
            .with_keys_per_tenant(8);
        let (svc, _engine) = service(1, cfg);
        // Same tenant-local key, three tenants: three distinct cells.
        for t in 0..3 {
            svc.put(t, 5, 100 + t as u64).unwrap();
        }
        for t in 0..3 {
            assert_eq!(svc.get(t, 5).unwrap(), 100 + t as u64);
        }
        // Coordinates are validated, typed, and non-destructive.
        assert_eq!(
            svc.put(3, 0, 1),
            Err(ServiceError::NoSuchTenant {
                tenant: 3,
                tenants: 3
            })
        );
        assert_eq!(
            svc.put(0, 8, 1),
            Err(ServiceError::KeyOutOfRange {
                key: 8,
                keys_per_tenant: 8
            })
        );
    }

    #[test]
    fn checkpoint_under_traffic_keeps_every_ack() {
        let cfg = ServiceConfig::default()
            .with_tenants(1)
            .with_keys_per_tenant(256);
        let (svc, _engine) = service(2, cfg);
        let svc = Arc::new(svc);
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let svc = Arc::clone(&svc);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut v = 0u64;
                    let mut last = std::collections::BTreeMap::new();
                    while !stop.load(Ordering::Relaxed) {
                        // Writer w owns keys [w*128, w*128+128).
                        let k = 128 * w + (v % 128);
                        v += 1;
                        if svc.put(0, k, v).is_ok() {
                            last.insert(k, v);
                        }
                    }
                    last
                })
            })
            .collect();
        // Checkpoints race live traffic on both shards.
        for _ in 0..5 {
            svc.checkpoint().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let mut acked = std::collections::BTreeMap::new();
        for w in writers {
            acked.extend(w.join().unwrap());
        }
        assert!(svc.checkpoints() >= 10, "2 shards x 5 rounds");
        for (k, v) in acked {
            assert_eq!(svc.get(0, k).unwrap(), v, "key {k} lost its last ack");
        }
    }

    #[test]
    fn checkpoint_stall_is_recorded_per_shard_and_exported() {
        let cfg = ServiceConfig::default().with_keys_per_tenant(64);
        let (svc, _engine) = service(2, cfg);
        for k in 0..64u64 {
            svc.put(0, k, k).unwrap();
        }
        for _ in 0..3 {
            svc.checkpoint().unwrap();
        }
        let stall = svc.checkpoint_stall();
        assert_eq!(svc.checkpoints(), 6, "2 shards x 3 rounds");
        assert_eq!(stall.count, svc.checkpoints());
        let mut frame = stm_telemetry::MetricsFrame::new();
        stm_telemetry::MetricsSource::collect(&svc, &mut frame);
        let text = stm_telemetry::render_prometheus(&frame);
        assert!(
            text.contains("stm_service_checkpoint_stall_ns_count 6"),
            "{text}"
        );
        let problems = stm_telemetry::lint_exposition(&text);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn stop_rejects_new_submissions() {
        let (svc, _engine) = service(1, ServiceConfig::default());
        svc.put(0, 0, 1).unwrap();
        svc.stop();
        assert_eq!(svc.put(0, 0, 2), Err(ServiceError::Stopped));
        // Reads still serve after stop.
        assert_eq!(svc.get(0, 0).unwrap(), 1);
    }

    #[test]
    fn zero_depth_rejects_with_typed_backpressure() {
        // Zero bound: every submission is a rejection.
        let cfg = ServiceConfig::default().with_queue_depth(0);
        let (svc, _engine) = service(1, cfg);
        let err = svc.put(0, 0, 1).unwrap_err();
        assert!(matches!(err, ServiceError::Overloaded { shard: 0 }));
        assert_eq!(svc.overloaded(), 1);
        assert_eq!(svc.accepted(), 0);
    }

    /// A `MemStore` whose appends park while the latch is closed — for
    /// at most 10 s, so a put that should have been rejected fails the
    /// test instead of hanging it.
    struct LatchedStore {
        inner: Arc<MemStore>,
        closed: Mutex<bool>,
        cond: Condvar,
    }

    impl LatchedStore {
        fn set_closed(&self, closed: bool) {
            *self.closed.lock() = closed;
            self.cond.notify_all();
        }
    }

    impl WalStore for LatchedStore {
        fn append(&self, bytes: &[u8]) -> Result<(), StoreError> {
            let mut closed = self.closed.lock();
            let timeout = Duration::from_secs(10);
            while *closed && !self.cond.wait_for(&mut closed, timeout).timed_out() {}
            drop(closed);
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

    #[test]
    fn depth_bound_counts_unresolved_puts() {
        let store = Arc::new(LatchedStore {
            inner: MemStore::healthy(),
            closed: Mutex::new(false),
            cond: Condvar::new(),
        });
        let cfg = ServiceConfig::default().with_queue_depth(2);
        let (svc, _engine) = service_over(vec![Arc::clone(&store) as Arc<dyn WalStore>], cfg);
        store.set_closed(true);
        std::thread::scope(|scope| {
            // Keys 0 and 1 sit on different stripes: one put leads the
            // parked flush, the other stages behind it.
            let in_flight: Vec<_> = (0..2u64)
                .map(|k| {
                    let svc = &svc;
                    scope.spawn(move || svc.put(0, k, 10 + k))
                })
                .collect();
            while svc.accepted() < 2 {
                std::thread::yield_now();
            }
            assert_eq!(
                svc.put(0, 2, 12),
                Err(ServiceError::Overloaded { shard: 0 })
            );
            assert_eq!(svc.overloaded(), 1);
            store.set_closed(false);
            for put in in_flight {
                assert_eq!(put.join().unwrap(), Ok(()));
            }
        });
        assert_eq!(svc.get(0, 1).unwrap(), 11);
    }
}
