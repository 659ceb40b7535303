//! CRC-32 (IEEE 802.3 polynomial, reflected), slice-by-8.
//!
//! Hand-rolled because the build is offline. The polynomial, init and
//! final xor are zlib's; the loop is the classic slice-by-8 variant of
//! the byte-at-a-time table algorithm: eight tables, where `TABLES[j][b]`
//! is the CRC contribution of byte `b` followed by `j` zero bytes, fold
//! eight input bytes per step. The bytewise loop handles only the tail
//! of fewer than 8 bytes, and the result is bit-for-bit the bytewise
//! CRC, so every checksum already on disk still verifies.
//!
//! This is an *integrity* check against torn writes and media bit rot,
//! not an authenticity check — a CRC detects accidents, not attackers.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `bytes` (init `!0`, final xor `!0` — the standard
/// `crc32(0, ...)` of zlib).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference: the formulation the slice-by-8
    /// loop must reproduce exactly.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slice_by_8_matches_bytewise_at_every_length_and_offset() {
        // Seeded SplitMix64 bytes: 8 bytes of slack so every window
        // `[start, start + len)` fits for start < 8, len <= 256.
        let mut x = 0x5EED_C3C3_2024_0001u64;
        let bytes: Vec<u8> = (0..256 + 8)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=256 {
                let window = &bytes[start..start + len];
                assert_eq!(
                    crc32(window),
                    crc32_bytewise(window),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = b"the quick brown fox".to_vec();
        let c0 = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), c0, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
