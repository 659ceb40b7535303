//! Log decoding, integrity policy, and replay.
//!
//! ## The recovery contract (never silently diverge)
//!
//! A crash cuts the append stream at a byte, so the *tail* of a
//! surviving log may be incomplete or damaged — that is expected, and
//! recovery falls back to the longest healthy prefix, reporting what it
//! dropped ([`TailStatus`]). Damage *before* intact records is a
//! different animal: it means the store lost or mangled data in the
//! middle of the stream, the prefix guarantee is void, and recovery
//! must fail loudly ([`WalError::InteriorCorruption`]) rather than
//! stitch the pieces together. The decoder distinguishes the two by
//! scanning past a bad frame for any later offset that parses as a
//! checksummed record — a 1-in-2^32 false positive per candidate
//! offset, which is fine for an integrity (not adversarial) check.
//!
//! ## Replay invariants (checked, not assumed)
//!
//! * `seq` contiguous along the log — the surviving log is an
//!   append-order prefix (M1.1/M1.4);
//! * `epoch` non-decreasing — epochs only change inside quiesce fences
//!   with no commit in flight;
//! * `(epoch, commit_ts)` unique, and per-key `commit_ts` strictly
//!   increasing within an epoch — conflicting commits hold a common
//!   stripe lock across publish, so same-key records are commit-ordered;
//! * replay itself is a pure fold in append order, so replaying twice
//!   yields the same state (M1.2 deterministic replay, M1.7 idempotence).

use crate::record::{RecordDecodeError, WalRecord, FRAME_HEADER};
use crate::store::{read_snapshot, WalStore};
use std::collections::btree_map::BTreeMap;
use std::collections::HashMap;

/// How the decoded log ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStatus {
    /// Ended exactly on a record boundary.
    Clean,
    /// Ended inside a record (the crash tore the last append); the
    /// bytes from `offset` on were dropped.
    Torn { offset: usize, dropped: usize },
    /// The last frame's bytes are damaged (checksum or structure);
    /// no intact record follows, so the bytes from `offset` on were
    /// dropped and the prefix before them recovered.
    CorruptTail { offset: usize, dropped: usize },
}

impl TailStatus {
    /// Did recovery drop any bytes?
    pub fn is_clean(&self) -> bool {
        matches!(self, TailStatus::Clean)
    }
}

/// Hard, non-recoverable log damage. Every variant means "do not trust
/// this store"; none of them is returned for an ordinary crash tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// A damaged frame at `offset` is followed by an intact record at
    /// `resumes_at`: data in the middle of the stream was lost, the
    /// prefix guarantee is void.
    InteriorCorruption { offset: usize, resumes_at: usize },
    /// Append sequence numbers are not contiguous.
    SeqGap {
        expected: u64,
        found: u64,
        offset: usize,
    },
    /// A record's epoch went backwards.
    EpochRegression {
        prev: u64,
        found: u64,
        offset: usize,
    },
    /// Two records claim the same `(epoch, commit_ts)`.
    DuplicateCommit { epoch: u64, commit_ts: u64 },
    /// Same-key records out of commit order within an epoch.
    TimestampRegression {
        key: u64,
        epoch: u64,
        prev_ts: u64,
        found_ts: u64,
    },
    /// A record's epoch predates the snapshot it would replay on top of.
    EpochBeforeSnapshot { snapshot: u64, found: u64 },
    /// The checkpoint snapshot itself is damaged — there is no safe
    /// base state, so recovery cannot proceed at all.
    SnapshotCorrupt { reason: String },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::InteriorCorruption { offset, resumes_at } => write!(
                f,
                "interior corruption: damaged frame at byte {offset} but an intact record \
                 resumes at byte {resumes_at}; the log lost data mid-stream"
            ),
            WalError::SeqGap {
                expected,
                found,
                offset,
            } => write!(
                f,
                "sequence gap at byte {offset}: expected seq {expected}, found {found}"
            ),
            WalError::EpochRegression {
                prev,
                found,
                offset,
            } => write!(
                f,
                "epoch regression at byte {offset}: {prev} -> {found}"
            ),
            WalError::DuplicateCommit { epoch, commit_ts } => {
                write!(f, "duplicate commit (epoch {epoch}, ts {commit_ts})")
            }
            WalError::TimestampRegression {
                key,
                epoch,
                prev_ts,
                found_ts,
            } => write!(
                f,
                "commit-order violation for key {key} in epoch {epoch}: ts {prev_ts} then {found_ts}"
            ),
            WalError::EpochBeforeSnapshot { snapshot, found } => write!(
                f,
                "record epoch {found} predates the snapshot epoch {snapshot}"
            ),
            WalError::SnapshotCorrupt { reason } => write!(f, "snapshot corrupt: {reason}"),
        }
    }
}

impl std::error::Error for WalError {}

/// Parse attempt for one frame at `offset`.
enum Frame {
    Ok { record: WalRecord, next: usize },
    Torn,
    Damaged,
}

fn parse_frame(bytes: &[u8], offset: usize) -> Frame {
    let rest = &bytes[offset..];
    if rest.len() < FRAME_HEADER {
        return Frame::Torn;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    // A frame length beyond the buffer is indistinguishable from a torn
    // tail *locally*; the caller's scan-forward settles which it is.
    if rest.len() < FRAME_HEADER + len {
        return Frame::Torn;
    }
    match WalRecord::decode_payload(&rest[FRAME_HEADER..FRAME_HEADER + len], Some(crc)) {
        Ok(record) => Frame::Ok {
            record,
            next: offset + FRAME_HEADER + len,
        },
        Err(RecordDecodeError::BadStructure | RecordDecodeError::BadChecksum { .. }) => {
            Frame::Damaged
        }
    }
}

/// Is there an intact record anywhere at/after `from`? (Interior- vs
/// tail-corruption discriminator.)
fn next_intact_record(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len().saturating_sub(FRAME_HEADER))
        .find(|&o| matches!(parse_frame(bytes, o), Frame::Ok { .. }))
}

/// Decode a raw log into records plus how its tail ended.
///
/// Tail damage (torn or corrupt last frame) is reported, not fatal;
/// interior damage and invariant violations are [`WalError`]s.
pub fn decode_log(bytes: &[u8]) -> Result<(Vec<WalRecord>, TailStatus), WalError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let tail = loop {
        if offset == bytes.len() {
            break TailStatus::Clean;
        }
        match parse_frame(bytes, offset) {
            Frame::Ok { record, next } => {
                records.push(record);
                offset = next;
            }
            Frame::Torn => {
                // A genuinely torn tail has nothing intact after it; an
                // intact successor means the "tear" was really damage.
                if let Some(resumes_at) = next_intact_record(bytes, offset + 1) {
                    return Err(WalError::InteriorCorruption { offset, resumes_at });
                }
                break TailStatus::Torn {
                    offset,
                    dropped: bytes.len() - offset,
                };
            }
            Frame::Damaged => {
                if let Some(resumes_at) = next_intact_record(bytes, offset + 1) {
                    return Err(WalError::InteriorCorruption { offset, resumes_at });
                }
                break TailStatus::CorruptTail {
                    offset,
                    dropped: bytes.len() - offset,
                };
            }
        }
    };
    check_invariants(&records)?;
    Ok((records, tail))
}

fn check_invariants(records: &[WalRecord]) -> Result<(), WalError> {
    let mut next_seq: Option<u64> = None;
    let mut prev_epoch = 0u64;
    let mut offset = 0usize; // byte offset of the current record, for diagnostics
    let mut commit_keys: HashMap<(u64, u64), ()> = HashMap::new();
    let mut last_write: HashMap<u64, (u64, u64)> = HashMap::new(); // key -> (epoch, ts)
    for rec in records {
        if let Some(expected) = next_seq {
            if rec.seq != expected {
                return Err(WalError::SeqGap {
                    expected,
                    found: rec.seq,
                    offset,
                });
            }
        }
        next_seq = Some(rec.seq + 1);
        if rec.epoch < prev_epoch {
            return Err(WalError::EpochRegression {
                prev: prev_epoch,
                found: rec.epoch,
                offset,
            });
        }
        prev_epoch = rec.epoch;
        if commit_keys.insert((rec.epoch, rec.commit_ts), ()).is_some() {
            return Err(WalError::DuplicateCommit {
                epoch: rec.epoch,
                commit_ts: rec.commit_ts,
            });
        }
        for &(key, _) in &rec.writes {
            if let Some(&(e, ts)) = last_write.get(&key) {
                if e == rec.epoch && ts >= rec.commit_ts {
                    return Err(WalError::TimestampRegression {
                        key,
                        epoch: rec.epoch,
                        prev_ts: ts,
                        found_ts: rec.commit_ts,
                    });
                }
            }
            last_write.insert(key, (rec.epoch, rec.commit_ts));
        }
        offset += FRAME_HEADER + WalRecord::payload_len(rec.writes.len());
    }
    Ok(())
}

/// Fold records onto `state` in append order, last writer wins.
/// Deterministic by construction: same inputs, same state.
pub fn replay_onto(state: &mut BTreeMap<u64, u64>, records: &[WalRecord]) {
    for rec in records {
        for &(k, v) in &rec.writes {
            state.insert(k, v);
        }
    }
}

/// Everything recovery learned from one store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The reconstructed committed state (snapshot + replayed log).
    pub state: BTreeMap<u64, u64>,
    /// Epoch of the snapshot base (0 if there was none).
    pub snapshot_epoch: u64,
    /// Highest epoch seen across snapshot and log.
    pub max_epoch: u64,
    /// The replayed records (for oracles; empty on a fresh store).
    pub records: Vec<WalRecord>,
    /// How the log tail ended.
    pub tail: TailStatus,
}

/// Recover one store: decode its snapshot, replay its log on top,
/// enforce every integrity invariant.
///
/// Returns the reconstructed state or a loud [`WalError`] — never a
/// silently diverged state.
pub fn recover_store(store: &dyn WalStore) -> Result<Recovery, WalError> {
    let snapshot = read_snapshot(store)?.unwrap_or_default();
    let (records, tail) = decode_log(&store.log_bytes())?;
    if let Some(rec) = records.iter().find(|r| r.epoch < snapshot.epoch) {
        return Err(WalError::EpochBeforeSnapshot {
            snapshot: snapshot.epoch,
            found: rec.epoch,
        });
    }
    let mut state: BTreeMap<u64, u64> = snapshot.entries.iter().copied().collect();
    replay_onto(&mut state, &records);
    let max_epoch = records
        .iter()
        .map(|r| r.epoch)
        .max()
        .unwrap_or(snapshot.epoch)
        .max(snapshot.epoch);
    Ok(Recovery {
        state,
        snapshot_epoch: snapshot.epoch,
        max_epoch,
        records,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, epoch: u64, ts: u64, writes: &[(u64, u64)]) -> WalRecord {
        WalRecord {
            seq,
            epoch,
            commit_ts: ts,
            shard: 0,
            writes: writes.to_vec(),
        }
    }

    fn log_of(records: &[WalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            r.encode_into(&mut out);
        }
        out
    }

    #[test]
    fn clean_log_decodes_and_replays() {
        let records = vec![
            rec(0, 0, 1, &[(1, 10), (2, 20)]),
            rec(1, 0, 2, &[(1, 11)]),
            rec(2, 0, 3, &[(3, 30)]),
        ];
        let (decoded, tail) = decode_log(&log_of(&records)).unwrap();
        assert_eq!(decoded, records);
        assert_eq!(tail, TailStatus::Clean);
        let mut state = BTreeMap::new();
        replay_onto(&mut state, &decoded);
        assert_eq!(
            state.into_iter().collect::<Vec<_>>(),
            vec![(1, 11), (2, 20), (3, 30)]
        );
    }

    #[test]
    fn replay_is_idempotent_and_deterministic() {
        let records = vec![rec(0, 0, 1, &[(1, 10)]), rec(1, 0, 2, &[(1, 12), (2, 2)])];
        let mut a = BTreeMap::new();
        replay_onto(&mut a, &records);
        let mut b = a.clone();
        replay_onto(&mut b, &records); // replaying again changes nothing
        assert_eq!(a, b);
        let mut c = BTreeMap::new();
        replay_onto(&mut c, &records);
        assert_eq!(a, c);
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let records = vec![rec(0, 0, 1, &[(1, 10)]), rec(1, 0, 2, &[(2, 20)])];
        let bytes = log_of(&records);
        for cut in 0..bytes.len() {
            let (decoded, tail) = decode_log(&bytes[..cut]).unwrap();
            // Either a record boundary (prefix of records, maybe clean)
            // or a reported torn tail; never an error, never a record
            // that wasn't fully written.
            assert!(decoded.len() <= records.len());
            assert_eq!(decoded[..], records[..decoded.len()]);
            if !bytes[..cut].is_empty() && decoded.is_empty() {
                assert!(!tail.is_clean());
            }
        }
    }

    #[test]
    fn seq_gap_is_loud() {
        let records = vec![rec(0, 0, 1, &[(1, 10)]), rec(2, 0, 2, &[(2, 20)])];
        assert!(matches!(
            decode_log(&log_of(&records)),
            Err(WalError::SeqGap {
                expected: 1,
                found: 2,
                ..
            })
        ));
    }

    #[test]
    fn epoch_regression_is_loud() {
        let records = vec![rec(0, 1, 1, &[(1, 10)]), rec(1, 0, 2, &[(2, 20)])];
        assert!(matches!(
            decode_log(&log_of(&records)),
            Err(WalError::EpochRegression {
                prev: 1,
                found: 0,
                ..
            })
        ));
    }

    #[test]
    fn same_key_commit_order_is_enforced() {
        let records = vec![rec(0, 0, 5, &[(1, 10)]), rec(1, 0, 3, &[(1, 11)])];
        assert!(matches!(
            decode_log(&log_of(&records)),
            Err(WalError::TimestampRegression { key: 1, .. })
        ));
        // ...but differing keys may appear in any ts order (independent
        // stripes commit-publish concurrently).
        let ok = vec![rec(0, 0, 5, &[(1, 10)]), rec(1, 0, 3, &[(2, 11)])];
        assert!(decode_log(&log_of(&ok)).is_ok());
        // ...and an epoch bump resets comparability.
        let across = vec![rec(0, 0, 5, &[(1, 10)]), rec(1, 1, 3, &[(1, 11)])];
        assert!(decode_log(&log_of(&across)).is_ok());
    }

    #[test]
    fn duplicate_commit_ts_is_loud() {
        let records = vec![rec(0, 0, 4, &[(1, 10)]), rec(1, 0, 4, &[(2, 20)])];
        assert!(matches!(
            decode_log(&log_of(&records)),
            Err(WalError::DuplicateCommit {
                epoch: 0,
                commit_ts: 4
            })
        ));
    }

    #[test]
    fn interior_bit_flip_is_loud_tail_bit_flip_recovers_prefix() {
        let records = vec![
            rec(0, 0, 1, &[(1, 10)]),
            rec(1, 0, 2, &[(2, 20)]),
            rec(2, 0, 3, &[(3, 30)]),
        ];
        let bytes = log_of(&records);
        let first_len = records[0].encode().len();
        let last_start = bytes.len() - records[2].encode().len();

        // Flip a payload bit of the FIRST record: intact records follow
        // -> interior corruption, hard error.
        let mut interior = bytes.clone();
        interior[FRAME_HEADER + 2] ^= 0x40;
        assert!(
            matches!(
                decode_log(&interior),
                Err(WalError::InteriorCorruption { .. })
            ),
            "mid-log damage must not be stitched over"
        );
        let _ = first_len;

        // Flip a payload bit of the LAST record: nothing intact follows
        // -> corrupt tail, prefix of two records recovered.
        let mut tail_flip = bytes.clone();
        tail_flip[last_start + FRAME_HEADER + 2] ^= 0x40;
        let (decoded, tail) = decode_log(&tail_flip).unwrap();
        assert_eq!(decoded[..], records[..2]);
        assert!(matches!(tail, TailStatus::CorruptTail { offset, .. } if offset == last_start));
    }

    #[test]
    fn recover_store_composes_snapshot_and_log() {
        use crate::snapshot::Snapshot;
        use crate::store::{MemStore, WalStore};
        let store = MemStore::healthy();
        let snap = Snapshot::encode_entries(2, [(1, 5), (2, 6)]);
        store.checkpoint(&snap).unwrap();
        store.append(&rec(9, 2, 1, &[(2, 60)]).encode()).unwrap();
        store.append(&rec(10, 3, 1, &[(3, 70)]).encode()).unwrap();
        let recovery = recover_store(&*store).unwrap();
        assert_eq!(recovery.snapshot_epoch, 2);
        assert_eq!(recovery.max_epoch, 3);
        assert!(recovery.tail.is_clean());
        assert_eq!(
            recovery.state.into_iter().collect::<Vec<_>>(),
            vec![(1, 5), (2, 60), (3, 70)]
        );
        // A log record older than the snapshot epoch is a hard error.
        let bad = MemStore::healthy();
        bad.checkpoint(&snap).unwrap();
        bad.append(&rec(0, 1, 1, &[(1, 1)]).encode()).unwrap();
        assert!(matches!(
            recover_store(&*bad),
            Err(WalError::EpochBeforeSnapshot {
                snapshot: 2,
                found: 1
            })
        ));
    }
}
