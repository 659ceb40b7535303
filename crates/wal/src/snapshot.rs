//! Checkpoint snapshots: the state base a log is replayed on top of.
//!
//! Format (little-endian):
//!
//! ```text
//! [magic: u32 = 0x5354_4B50 "STKP"][crc: u32]
//! [epoch: u64][n: u32][(key: u64, value: u64) * n]
//! ```
//!
//! `crc` covers everything after the crc field. A snapshot is written
//! only inside a quiesce fence (no transaction active, all commits
//! published) and installed atomically by the store, so it is either
//! entirely the old checkpoint or entirely the new one — the classic
//! write-new-then-rename discipline, delegated to
//! [`crate::store::WalStore::checkpoint`].

use crate::crc::crc32;
use crate::log::WalError;

/// Magic tag leading every snapshot.
pub const SNAPSHOT_MAGIC: u32 = 0x5354_4B50;

/// A checkpointed key/value state plus the epoch it was taken in.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Durability epoch at checkpoint time; log records replayed on top
    /// must carry an epoch `>=` this.
    pub epoch: u64,
    /// `(key, value)` pairs, sorted by key, keys unique.
    pub entries: Vec<(u64, u64)>,
}

impl Snapshot {
    /// Serialize with magic + checksum.
    pub fn encode(&self) -> Vec<u8> {
        Snapshot::encode_entries(self.epoch, self.entries.iter().copied())
    }

    /// The snapshot encoder: serialize `epoch` and `entries` — `(key,
    /// value)` pairs in strictly ascending key order — into one buffer
    /// of exactly `20 + 16·n` bytes, without materializing a
    /// [`Snapshot`]. The checkpoint path feeds it straight from a
    /// shard's table.
    ///
    /// # Panics
    /// If `entries` yields a different number of pairs than its
    /// `len()` promised (the count is written before the entries).
    pub fn encode_entries<I>(epoch: u64, entries: I) -> Vec<u8>
    where
        I: IntoIterator<Item = (u64, u64)>,
        I::IntoIter: ExactSizeIterator,
    {
        let entries = entries.into_iter();
        let n = entries.len();
        let len = 20 + 16 * n;
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // crc placeholder
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&(n as u32).to_le_bytes());
        for (k, v) in entries {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(out.len(), len, "snapshot entry count disagrees with len()");
        let crc = crc32(&out[8..]);
        out[4..8].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode and verify. A damaged snapshot is a *hard* recovery
    /// failure — unlike a torn log tail there is no prefix to fall back
    /// to, so failing loudly is the only non-diverging option.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, WalError> {
        let fail = |reason: &str| WalError::SnapshotCorrupt {
            reason: reason.to_string(),
        };
        if bytes.len() < 20 {
            return Err(fail("shorter than the fixed header"));
        }
        let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        if magic != SNAPSHOT_MAGIC {
            return Err(fail("bad magic"));
        }
        let stored = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let computed = crc32(&bytes[8..]);
        if stored != computed {
            return Err(fail("checksum mismatch"));
        }
        let epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let n = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        if bytes.len() != 20 + 16 * n {
            return Err(fail("entry count disagrees with length"));
        }
        let mut entries = Vec::with_capacity(n);
        let mut prev: Option<u64> = None;
        for i in 0..n {
            let o = 20 + 16 * i;
            let k = u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
            let v = u64::from_le_bytes(bytes[o + 8..o + 16].try_into().unwrap());
            if prev.is_some_and(|p| p >= k) {
                return Err(fail("keys not strictly ascending"));
            }
            prev = Some(k);
            entries.push((k, v));
        }
        Ok(Snapshot { epoch, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let snap = Snapshot {
            epoch: 3,
            entries: vec![(1, 10), (5, 0), (9, u64::MAX)],
        };
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn empty_roundtrip() {
        let snap = Snapshot::default();
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn every_bit_flip_fails_loudly() {
        let snap = Snapshot {
            epoch: 1,
            entries: vec![(2, 20), (4, 40)],
        };
        let bytes = snap.encode();
        for byte in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x04;
            assert!(
                Snapshot::decode(&bad).is_err(),
                "bit flip at byte {byte} decoded silently"
            );
        }
    }

    #[test]
    fn truncation_fails_loudly() {
        let bytes = Snapshot {
            epoch: 1,
            entries: vec![(2, 20)],
        }
        .encode();
        for len in 0..bytes.len() {
            assert!(Snapshot::decode(&bytes[..len]).is_err());
        }
    }
}
