//! Fault-tolerance tests for the durable engine, on all three backends:
//! transient store errors are absorbed by the group committer's retry
//! loop, permanent errors degrade the shard with a typed rejection
//! (reads keep serving), fsync failures leave a tracked in-doubt
//! record, a torn batch under concurrent writers leaves a recoverable
//! log, and rejoin heals a Degraded shard from memory.

use std::sync::Arc;
use stm_engine::{DurableEngine, DurableError, ShardBackend, ShardHealth, WriteError};
use stm_tl2::{Tl2, Tl2Config};
use stm_wal::{
    CrashSwitch, FaultEvent, FaultKind, FaultPlan, FaultStore, GroupCommitConfig, MemStore,
    WalStore,
};
use tinystm::{AccessStrategy, Stm, StmConfig};

const KEYS: usize = 8;

/// One shard over a [`FaultStore`] scripted with `events`.
fn faulty_engine<B: ShardBackend>(config: &B::Config, events: Vec<FaultEvent>) -> DurableEngine<B> {
    let mem = MemStore::new(CrashSwitch::unlimited());
    let store = FaultStore::new(mem, FaultPlan { events });
    DurableEngine::new_grouped(
        1,
        KEYS,
        config,
        vec![store as Arc<dyn WalStore>],
        GroupCommitConfig::default(),
    )
    .unwrap()
}

/// A transient burst shorter than the retry budget: every put succeeds,
/// the shard never leaves Healthy, and the retries are counted.
fn transient_burst_is_absorbed<B: ShardBackend>(config: &B::Config) {
    let engine = faulty_engine::<B>(
        config,
        vec![FaultEvent {
            at_append: 2,
            kind: FaultKind::TransientBurst { len: 3 },
        }],
    );
    for i in 0..6u64 {
        engine.put(i % KEYS as u64, 100 + i).unwrap();
    }
    assert_eq!(engine.health(0), ShardHealth::Healthy);
    let stats = engine.fault_stats();
    assert!(stats.wal_retries >= 3, "retries: {stats:?}");
    assert_eq!(stats.wal_faults, 0, "{stats:?}");

    // Every acknowledged put survives recovery.
    let expected = engine.read_all();
    let store = Arc::clone(engine.store(0));
    drop(engine);
    let (recovered, _) = DurableEngine::<B>::recover_grouped(
        1,
        KEYS,
        config,
        vec![store],
        GroupCommitConfig::default(),
    )
    .unwrap();
    assert_eq!(recovered.read_all(), expected);
}

/// A permanent append error: the failing put surfaces a typed WAL
/// error (no panic), the shard degrades, later writes are rejected
/// typed, reads keep serving, and — the store being dead — rejoin
/// quarantines rather than silently reopening.
fn permanent_fault_degrades_typed<B: ShardBackend>(config: &B::Config) {
    let engine = faulty_engine::<B>(
        config,
        vec![FaultEvent {
            at_append: 2,
            kind: FaultKind::PermanentAppend,
        }],
    );
    engine.put(0, 10).unwrap();
    engine.put(1, 11).unwrap();
    // Append attempt #2 dies permanently: typed failure, clean rollback.
    assert_eq!(engine.put(2, 12), Err(WriteError::Wal { shard: 0 }));
    assert_eq!(engine.health(0), ShardHealth::Degraded);
    // The failed put had no memory effect; earlier acks still read.
    assert_eq!(engine.get(2), 0);
    assert_eq!(engine.get(1), 11);
    // Writes now reject up front, typed.
    assert_eq!(
        engine.put(3, 13),
        Err(WriteError::Rejected {
            shard: 0,
            health: ShardHealth::Degraded,
        })
    );
    let stats = engine.fault_stats();
    assert!(stats.wal_faults >= 1, "{stats:?}");
    assert!(stats.degraded_rejects >= 1, "{stats:?}");

    // The store is permanently dead, so the rejoin checkpoint fails
    // and the shard is quarantined — and stays that way.
    assert!(matches!(
        engine.rejoin(0),
        Err(DurableError::Checkpoint { shard: 0, .. })
    ));
    assert_eq!(engine.health(0), ShardHealth::Quarantined);
    assert!(matches!(
        engine.rejoin(0),
        Err(DurableError::Quarantined { shard: 0 })
    ));
    // Reads serve even quarantined.
    assert_eq!(engine.get(0), 10);
}

/// An injected fsync failure: the commit is not acknowledged (memory
/// rolls back) but its record reached the log — in-doubt, tracked, and
/// cleared by a successful rejoin; recovery afterwards sees exactly the
/// acked state.
fn sync_failure_leaves_in_doubt_and_rejoin_heals<B: ShardBackend>(config: &B::Config) {
    let engine = faulty_engine::<B>(
        config,
        vec![FaultEvent {
            at_append: 1,
            kind: FaultKind::SyncFail,
        }],
    );
    engine.put(0, 40).unwrap();
    // Append #1 lands in the log but its fsync fails: not acked.
    assert_eq!(engine.put(1, 41), Err(WriteError::Wal { shard: 0 }));
    assert_eq!(engine.health(0), ShardHealth::Degraded);
    assert_eq!(engine.get(1), 0, "unacked put must not reach memory");
    let in_doubt = engine.in_doubt(0);
    assert_eq!(in_doubt.len(), 1);
    assert_eq!(in_doubt[0].writes, vec![(1, 41)]);

    // Rejoin re-checkpoints from memory: the orphaned record is gone,
    // the shard is Healthy, writes flow again.
    engine.rejoin(0).unwrap();
    assert_eq!(engine.health(0), ShardHealth::Healthy);
    assert!(engine.in_doubt(0).is_empty());
    assert!(engine.fault_stats().rejoins >= 1);
    engine.put(2, 42).unwrap();

    let expected = engine.read_all();
    let store = Arc::clone(engine.store(0));
    drop(engine);
    let (recovered, _) = DurableEngine::<B>::recover_grouped(
        1,
        KEYS,
        config,
        vec![store],
        GroupCommitConfig::default(),
    )
    .unwrap();
    let state = recovered.read_all();
    assert_eq!(state, expected);
    assert_eq!(state[&1], 0, "in-doubt record must not resurface");
    assert_eq!(state[&2], 42);
}

/// A transient burst longer than the retry budget: the put fails typed,
/// the shard degrades — and, the store being healthy again by rejoin
/// time, rejoin restores Healthy and writes flow.
fn exhausted_transients_degrade_then_rejoin<B: ShardBackend>(config: &B::Config) {
    let engine = faulty_engine::<B>(
        config,
        vec![FaultEvent {
            at_append: 1,
            // The failed put burns 5 attempts (1 + 4 retries); one
            // burst slot is left over for the post-rejoin put, which
            // absorbs it with a single retry.
            kind: FaultKind::TransientBurst { len: 6 },
        }],
    );
    engine.put(0, 7).unwrap();
    assert_eq!(engine.put(1, 8), Err(WriteError::Wal { shard: 0 }));
    assert_eq!(engine.health(0), ShardHealth::Degraded);
    // Bursts only poison *append* attempts; the rejoin checkpoint goes
    // through the store's checkpoint path and heals the shard.
    engine.rejoin(0).unwrap();
    assert_eq!(engine.health(0), ShardHealth::Healthy);
    engine.put(1, 8).unwrap();
    assert_eq!(engine.get(1), 8);
}

/// Four writers on one shard, one torn batch append. Each writer owns
/// two keys and keeps putting until its ops are done; the tear fails
/// its batch (and closes the committer), the shard degrades once, and
/// every later put fails typed. Without a rejoin, the log — acked
/// prefix plus the torn frame — must still recover, to exactly the
/// acked state plus whichever in-doubt records of the torn batch landed
/// whole.
fn torn_batch_under_concurrent_writers<B: ShardBackend>(config: &B::Config) {
    const WRITERS: u64 = 4;
    const OPS: u64 = 200;
    let engine = faulty_engine::<B>(
        config,
        vec![FaultEvent {
            at_append: 5,
            kind: FaultKind::TornAppend,
        }],
    );
    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let engine = &engine;
            scope.spawn(move || {
                let mut acked = [0u64; 2];
                for i in 0..OPS {
                    let slot = (i % 2) as usize;
                    let key = 2 * t + slot as u64;
                    let value = (t << 32) | (i + 1);
                    match engine.put(key, value) {
                        Ok(()) => acked[slot] = value,
                        Err(WriteError::Wal { shard: 0 })
                        | Err(WriteError::Rejected { shard: 0, .. }) => {}
                        Err(e) => panic!("untyped failure: {e:?}"),
                    }
                    // Only this writer touches `key`: memory holds its
                    // last acked value, never a failed put's.
                    assert_eq!(
                        engine.get(key),
                        acked[slot],
                        "failed put left a memory effect"
                    );
                }
            });
        }
    });
    let stats = engine.fault_stats();
    assert_eq!(stats.wal_faults, 1, "one torn batch, one fault: {stats:?}");
    assert_eq!(engine.health_transitions(0), 1);
    assert_eq!(engine.health(0), ShardHealth::Degraded);

    // No rejoin: recover straight from the damaged log.
    let mut expected = engine.read_all();
    let in_doubt = engine.in_doubt(0);
    assert!(
        in_doubt.len() < WRITERS as usize,
        "a tear keeps some frame out"
    );
    for commit in &in_doubt {
        expected.extend(commit.writes.iter().copied());
    }
    let boot = MemStore::rebooted(&**engine.store(0)) as Arc<dyn WalStore>;
    drop(engine);
    let (recovered, reports) = DurableEngine::<B>::recover_grouped(
        1,
        KEYS,
        config,
        vec![boot],
        GroupCommitConfig::default(),
    )
    .expect("a torn batch leaves a recoverable log");
    assert!(!reports[0].tail.is_clean(), "the torn frame is the tail");
    assert_eq!(recovered.read_all(), expected);
}

fn wb() -> StmConfig {
    StmConfig::default().with_strategy(AccessStrategy::WriteBack)
}

fn wt() -> StmConfig {
    StmConfig::default().with_strategy(AccessStrategy::WriteThrough)
}

#[test]
fn transient_burst_absorbed_all_backends() {
    transient_burst_is_absorbed::<Stm>(&wb());
    transient_burst_is_absorbed::<Stm>(&wt());
    transient_burst_is_absorbed::<Tl2>(&Tl2Config::default());
}

#[test]
fn permanent_fault_degrades_all_backends() {
    permanent_fault_degrades_typed::<Stm>(&wb());
    permanent_fault_degrades_typed::<Stm>(&wt());
    permanent_fault_degrades_typed::<Tl2>(&Tl2Config::default());
}

#[test]
fn sync_failure_in_doubt_then_rejoin_all_backends() {
    sync_failure_leaves_in_doubt_and_rejoin_heals::<Stm>(&wb());
    sync_failure_leaves_in_doubt_and_rejoin_heals::<Stm>(&wt());
    sync_failure_leaves_in_doubt_and_rejoin_heals::<Tl2>(&Tl2Config::default());
}

#[test]
fn torn_batch_under_concurrent_writers_all_backends() {
    torn_batch_under_concurrent_writers::<Stm>(&wb());
    torn_batch_under_concurrent_writers::<Stm>(&wt());
    torn_batch_under_concurrent_writers::<Tl2>(&Tl2Config::default());
}

#[test]
fn exhausted_transients_then_rejoin_all_backends() {
    exhausted_transients_degrade_then_rejoin::<Stm>(&wb());
    exhausted_transients_degrade_then_rejoin::<Stm>(&wt());
    exhausted_transients_degrade_then_rejoin::<Tl2>(&Tl2Config::default());
}
