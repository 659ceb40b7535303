//! The on-log record format.
//!
//! One record per committed update transaction, length-prefixed and
//! checksummed so the decoder can distinguish "log ends mid-record"
//! (torn tail — the expected shape of a crash) from "record bytes are
//! damaged" (corruption):
//!
//! ```text
//! [len: u32][crc: u32][payload: len bytes]
//! payload = [seq: u64][epoch: u64][commit_ts: u64]
//!           [shard: u32][n_writes: u32]
//!           [(key: u64, value: u64) * n_writes]
//! ```
//!
//! All integers little-endian. `crc` covers exactly the payload. `seq`
//! is the sink's append counter — consecutive records in a healthy log
//! have consecutive `seq`, which is how recovery proves the surviving
//! log is an append-order prefix (M1.1/M1.4).

use crate::crc::crc32;

/// Fixed payload bytes before the write entries.
pub const PAYLOAD_FIXED: usize = 8 + 8 + 8 + 4 + 4;
/// Bytes per `(key, value)` write entry.
pub const WRITE_ENTRY: usize = 16;
/// Length-prefix + checksum bytes before each payload.
pub const FRAME_HEADER: usize = 8;

/// One committed update transaction, as logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Append sequence number within this log (contiguous in a healthy
    /// log; the first surviving record after a checkpoint may start
    /// anywhere).
    pub seq: u64,
    /// Durability epoch the commit happened in (non-decreasing along
    /// the log; commit timestamps are comparable only within an epoch).
    pub epoch: u64,
    /// Commit timestamp (the backend's write version).
    pub commit_ts: u64,
    /// Shard that produced the record (diagnostic — each shard has its
    /// own log, so this is constant per log).
    pub shard: u32,
    /// Deduplicated `(key, value)` pairs of the write set.
    pub writes: Vec<(u64, u64)>,
}

/// Why a single record failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordDecodeError {
    /// Payload shorter/longer than its write count implies, or shorter
    /// than the fixed header.
    BadStructure,
    /// Checksum mismatch.
    BadChecksum { stored: u32, computed: u32 },
}

impl WalRecord {
    /// Payload size for `n` write entries.
    pub fn payload_len(n: usize) -> usize {
        PAYLOAD_FIXED + n * WRITE_ENTRY
    }

    /// Append the framed record (`len` + `crc` + payload) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_record(
            out,
            self.seq,
            self.epoch,
            self.commit_ts,
            self.shard,
            self.writes.iter().copied(),
        );
    }

    /// Framed encoding as a fresh buffer (tests, snapshots).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER + Self::payload_len(self.writes.len()));
        self.encode_into(&mut out);
        out
    }

    /// Decode one payload (the bytes *after* the `len`/`crc` frame
    /// header) whose checksum has already been verified — or verify it
    /// here when `stored_crc` is `Some`.
    pub fn decode_payload(
        payload: &[u8],
        stored_crc: Option<u32>,
    ) -> Result<WalRecord, RecordDecodeError> {
        if payload.len() < PAYLOAD_FIXED
            || !(payload.len() - PAYLOAD_FIXED).is_multiple_of(WRITE_ENTRY)
        {
            return Err(RecordDecodeError::BadStructure);
        }
        if let Some(stored) = stored_crc {
            let computed = crc32(payload);
            if stored != computed {
                return Err(RecordDecodeError::BadChecksum { stored, computed });
            }
        }
        let u64_at = |o: usize| u64::from_le_bytes(payload[o..o + 8].try_into().unwrap());
        let u32_at = |o: usize| u32::from_le_bytes(payload[o..o + 4].try_into().unwrap());
        let n = u32_at(28) as usize;
        if Self::payload_len(n) != payload.len() {
            return Err(RecordDecodeError::BadStructure);
        }
        let mut writes = Vec::with_capacity(n);
        for i in 0..n {
            let o = PAYLOAD_FIXED + i * WRITE_ENTRY;
            writes.push((u64_at(o), u64_at(o + 8)));
        }
        Ok(WalRecord {
            seq: u64_at(0),
            epoch: u64_at(8),
            commit_ts: u64_at(16),
            shard: u32_at(24),
            writes,
        })
    }
}

/// The record encoder: append one framed record built from borrowed
/// parts to `out`. [`WalRecord::encode_into`] and the group committer's
/// staging both go through it, so a commit is logged without first
/// copying its write set into a [`WalRecord`] (or any `Vec` at all: the
/// engine maps its backend write set to keys on the fly).
pub(crate) fn encode_record(
    out: &mut Vec<u8>,
    seq: u64,
    epoch: u64,
    commit_ts: u64,
    shard: u32,
    writes: impl ExactSizeIterator<Item = (u64, u64)>,
) {
    let len = WalRecord::payload_len(writes.len());
    out.reserve(FRAME_HEADER + len);
    let start = out.len();
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc placeholder
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&commit_ts.to_le_bytes());
    out.extend_from_slice(&shard.to_le_bytes());
    out.extend_from_slice(&(writes.len() as u32).to_le_bytes());
    for (k, v) in writes {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&v.to_le_bytes());
    }
    // A miscounting iterator would frame garbage that decodes as
    // corruption: take the partial frame back out of the (shared batch)
    // buffer and refuse it.
    if out.len() - start != FRAME_HEADER + len {
        out.truncate(start);
        panic!("write iterator yielded a count other than its len()");
    }
    let crc = crc32(&out[start + FRAME_HEADER..]);
    out[start + 4..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WalRecord {
        WalRecord {
            seq: 7,
            epoch: 2,
            commit_ts: 41,
            shard: 3,
            writes: vec![(10, 100), (11, 0), (u64::MAX, u64::MAX)],
        }
    }

    #[test]
    fn roundtrip() {
        let rec = sample();
        let bytes = rec.encode();
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        assert_eq!(len, WalRecord::payload_len(3));
        assert_eq!(bytes.len(), FRAME_HEADER + len);
        let back = WalRecord::decode_payload(&bytes[FRAME_HEADER..], Some(crc)).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn empty_write_set_roundtrips() {
        let rec = WalRecord {
            writes: vec![],
            ..sample()
        };
        let bytes = rec.encode();
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        assert_eq!(
            WalRecord::decode_payload(&bytes[FRAME_HEADER..], Some(crc)).unwrap(),
            rec
        );
    }

    #[test]
    fn any_payload_bit_flip_is_detected() {
        let rec = sample();
        let bytes = rec.encode();
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        for byte in FRAME_HEADER..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            let err = WalRecord::decode_payload(&bad[FRAME_HEADER..], Some(crc)).unwrap_err();
            assert!(
                matches!(err, RecordDecodeError::BadChecksum { .. }),
                "flip at byte {byte} gave {err:?}"
            );
        }
    }

    #[test]
    fn truncated_payload_is_bad_structure() {
        let rec = sample();
        let bytes = rec.encode();
        assert_eq!(
            WalRecord::decode_payload(&bytes[FRAME_HEADER..bytes.len() - 1], None).unwrap_err(),
            RecordDecodeError::BadStructure
        );
        assert_eq!(
            WalRecord::decode_payload(&[], None).unwrap_err(),
            RecordDecodeError::BadStructure
        );
    }

    #[test]
    fn miscounted_writes_are_refused_without_a_partial_frame() {
        /// Claims one write, yields none.
        struct Liar;
        impl Iterator for Liar {
            type Item = (u64, u64);
            fn next(&mut self) -> Option<(u64, u64)> {
                None
            }
            fn size_hint(&self) -> (usize, Option<usize>) {
                (1, Some(1))
            }
        }
        impl ExactSizeIterator for Liar {}

        let mut batch = vec![7u8; 3]; // a frame staged before this one
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            encode_record(&mut batch, 0, 0, 0, 0, Liar)
        }));
        assert!(refused.is_err());
        assert_eq!(batch, vec![7u8; 3], "no partial frame left behind");
    }
}
