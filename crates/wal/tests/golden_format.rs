//! Golden on-disk bytes: one commit record and one checkpoint snapshot,
//! hex-encoded from an earlier build of this crate and checked in. Each
//! must decode to the expected value and re-encode byte-identically,
//! so any change to the encoders or the CRC that would strand an
//! existing store's bytes fails here first.

use stm_wal::record::FRAME_HEADER;
use stm_wal::{decode_log, Snapshot, WalRecord};

/// `GOLDEN_RECORD`, framed: `len`, `crc`, then the payload.
const RECORD_HEX: &str = "6000000093575c74\
    0700000000000000\
    0200000000000000\
    2900000000000000\
    03000000\
    04000000\
    0a00000000000000\
    6400000000000000\
    0b00000000000000\
    0000000000000000\
    efcdab8967452301\
    1032547698badcfe\
    ffffffffffffffff\
    ffffffffffffffff";

/// `GOLDEN_SNAPSHOT`: magic, crc, epoch, `n`, entries.
const SNAPSHOT_HEX: &str = "504b5453\
    7d79ead3\
    0500000000000000\
    05000000\
    0000000000000000\
    0100000000000000\
    0300000000000000\
    efbeadde00000000\
    2a00000000000000\
    ffffffffffffffff\
    ff0f000000000000\
    0700000000000000\
    0000000000010000\
    efcdab8967452301";

fn golden_record() -> WalRecord {
    WalRecord {
        seq: 7,
        epoch: 2,
        commit_ts: 41,
        shard: 3,
        writes: vec![
            (10, 100),
            (11, 0),
            (0x0123_4567_89AB_CDEF, 0xFEDC_BA98_7654_3210),
            (u64::MAX, u64::MAX),
        ],
    }
}

fn golden_snapshot() -> Snapshot {
    Snapshot {
        epoch: 5,
        entries: vec![
            (0, 1),
            (3, 0xDEAD_BEEF),
            (42, u64::MAX),
            (4095, 7),
            (1 << 40, 0x0123_4567_89AB_CDEF),
        ],
    }
}

fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    assert!(digits.len().is_multiple_of(2), "odd hex length");
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn golden_record_decodes_and_reencodes_identically() {
    let bytes = unhex(RECORD_HEX);
    let (records, tail) = decode_log(&bytes).unwrap();
    assert!(tail.is_clean());
    assert_eq!(records, vec![golden_record()]);
    assert_eq!(records[0].encode(), bytes);
    let crc = u32::from_le_bytes(bytes[4..FRAME_HEADER].try_into().unwrap());
    let payload = &bytes[FRAME_HEADER..];
    assert_eq!(
        WalRecord::decode_payload(payload, Some(crc)).unwrap(),
        golden_record()
    );
}

#[test]
fn golden_snapshot_decodes_and_reencodes_identically() {
    let bytes = unhex(SNAPSHOT_HEX);
    let snap = Snapshot::decode(&bytes).unwrap();
    assert_eq!(snap, golden_snapshot());
    assert_eq!(snap.encode(), bytes);
}
