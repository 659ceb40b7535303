//! `service_scaling`: the multi-tenant service target — acked
//! throughput and submit→ack latency percentiles against the shard
//! count × the group-commit batch bound.
//!
//! Each cell boots a [`StmService`] over a file-backed
//! [`DurableEngine`] (group commit; real appends and fsyncs in
//! a scratch directory — the cost the batching exists to amortize)
//! and drives it closed-loop from `CLIENTS` client threads, one
//! tenant each. Two panels per shard count:
//!
//! * `batch1/s{1,2,4}`  — `max_records = 1`: the group path degenerates
//!   to one flush per commit (the per-commit cost, measured through
//!   the one publication path);
//! * `batch64/s{1,2,4}` — `max_records = 64` with a 200µs leader
//!   accumulation window: concurrent committers share flushes.
//!
//! The `mean_batch` extra carries the records-per-flush ratio (the
//! acceptance knob: > 1 on the batch64 panels means the amortization
//! is real, not vestigial) and `ack_p50_ns`/p95/max ride in the
//! extras under the usual `_ns` convention — `perf-diff` gates only
//! the p50; p95 up is volatile on a shared host. Results go to stdout
//! (CSV) and `target/perf/service_scaling.jsonl` for the `perf-diff`
//! regression gate (baseline: `baselines/`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stm_bench::{bench_record, perf_emitter, point_ms, tiny_config};
use stm_engine::{DurableEngine, ServiceConfig, StmService};
use stm_harness::{IntSetWorkload, Measurement};
use stm_perf::PerfEmitter;
use stm_wal::{FileStore, GroupCommitConfig, WalStore};
use tinystm::{AccessStrategy, Stm};

/// Shard counts swept by both panels.
const SHARDS: [usize; 3] = [1, 2, 4];
/// Client threads (one tenant each).
const CLIENTS: usize = 4;
/// Keys per tenant.
const KEYS_PER_TENANT: usize = 64;

/// One cell: boot service, hammer it closed-loop for the point window,
/// report acked throughput + ack percentiles + the batch amortization.
fn cell(out: &mut PerfEmitter, panel: &str, shards: usize, group: GroupCommitConfig) {
    let root = std::env::temp_dir().join(format!(
        "stm-service-scaling-{}-{}",
        std::process::id(),
        panel.replace('/', "-")
    ));
    let _ = std::fs::remove_dir_all(&root);
    let stores: Vec<Arc<dyn WalStore>> = (0..shards)
        .map(|i| {
            FileStore::open(root.join(format!("shard-{i}"))).expect("scratch dir writable")
                as Arc<dyn WalStore>
        })
        .collect();
    let engine = Arc::new(
        DurableEngine::<Stm>::new_grouped(
            shards,
            CLIENTS * KEYS_PER_TENANT,
            &tiny_config(AccessStrategy::WriteBack),
            stores,
            group,
        )
        .expect("bench config valid"),
    );
    let svc = Arc::new(StmService::start(
        Arc::clone(&engine),
        ServiceConfig::default()
            .with_tenants(CLIENTS)
            .with_keys_per_tenant(KEYS_PER_TENANT),
    ));

    let window = Duration::from_millis(point_ms());
    let before = engine.engine().stats();
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let acked: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let svc = Arc::clone(&svc);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut acked = 0u64;
                    let mut v = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let key = v % KEYS_PER_TENANT as u64;
                        v += 1;
                        if svc.put(t, key, v).is_ok() {
                            acked += 1;
                        }
                    }
                    acked
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = started.elapsed();
    let delta = engine.engine().stats().since(&before);
    let hist = svc.ack_latency();
    let mean_batch = engine.group_mean_batch().unwrap_or(0.0);
    svc.stop();
    drop(svc);
    drop(engine);
    let _ = std::fs::remove_dir_all(&root);

    let secs = elapsed.as_secs_f64().max(1e-9);
    let m = Measurement {
        elapsed,
        commits: acked,
        aborts: delta.aborts,
        aborts_by_reason: delta.aborts_by_reason,
        throughput: acked as f64 / secs,
        abort_rate: delta.aborts as f64 / secs,
        abort_ratio: delta.abort_ratio(),
        threads: CLIENTS,
        clock_conflicts: delta.clock_conflicts,
        worker_panics: 0,
    };
    let workload = IntSetWorkload {
        initial_size: 0,
        key_range: (CLIENTS * KEYS_PER_TENANT) as u64,
        update_pct: 100,
    };
    let mut rec = bench_record(
        "service_scaling",
        panel,
        "kv-service",
        "tinystm-wb",
        workload,
        &m,
    );
    rec.extras
        .insert("p50_ns".to_string(), hist.value_at_percentile(50.0) as f64);
    rec.extras
        .insert("p95_ns".to_string(), hist.value_at_percentile(95.0) as f64);
    rec.extras.insert("max_ns".to_string(), hist.max as f64);
    // Diagnostic (not `_ns`-suffixed): perf-diff never gates it, but
    // > 1 on the batch64 panels is the amortization acceptance knob.
    rec.extras.insert("mean_batch".to_string(), mean_batch);
    out.record(rec);
}

fn main() {
    let mut out = perf_emitter(
        "service_scaling",
        "multi-tenant service: acked ops/s + submit-to-ack latency vs shards x batch bound \
         (file-backed WAL, group commit)",
    );
    for shards in SHARDS {
        cell(
            &mut out,
            &format!("batch1/s{shards}"),
            shards,
            GroupCommitConfig::default().with_max_records(1),
        );
    }
    out.gap();
    for shards in SHARDS {
        cell(
            &mut out,
            &format!("batch64/s{shards}"),
            shards,
            GroupCommitConfig::default()
                .with_max_records(64)
                .with_max_wait(Duration::from_micros(200)),
        );
    }
    out.finish();
}
