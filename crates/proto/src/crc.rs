//! CRC implementations used by the link layer.
//!
//! CXL 68 B flits are protected by a CRC-16 and 256 B flits by a CRC-32;
//! we implement both as table-driven computations that fold eight bytes
//! per step (slicing-by-8). The exact polynomials in the CXL
//! specification are not public in full detail, so we use the standard
//! CRC-16/CCITT-FALSE and CRC-32 (IEEE 802.3) polynomials — the
//! simulator only needs detection behaviour, not bit compatibility.

/// Slicing-by-8 lookup tables: `T[0]` is the classic byte-at-a-time
/// table and `T[k][b]` is the register contribution of byte `b` followed
/// by `k` zero bytes, so eight input bytes fold into the register with
/// eight independent lookups instead of a serial chain of eight.
type Tables<T> = [[T; 256]; 8];

static CRC16_TABLES: Tables<u16> = build_crc16_tables();
static CRC32_TABLES: Tables<u32> = build_crc32_tables();

/// CRC-16/CCITT-FALSE: polynomial 0x1021, init 0xFFFF, no reflection.
pub fn crc16(data: &[u8]) -> u16 {
    let t = &CRC16_TABLES;
    let mut crc: u16 = 0xFFFF;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        // MSB-first: the register lines up with the block's first two
        // bytes; byte `j` of the block is followed by `7 - j` more.
        let [hi, lo] = crc.to_be_bytes();
        crc = t[7][usize::from(b[0] ^ hi)]
            ^ t[6][usize::from(b[1] ^ lo)]
            ^ t[5][usize::from(b[2])]
            ^ t[4][usize::from(b[3])]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &b in blocks.remainder() {
        crc = (crc << 8) ^ t[0][usize::from((crc >> 8) as u8 ^ b)];
    }
    crc
}

const fn build_crc16_tables() -> Tables<u16> {
    let mut t = [[0u16; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev << 8) ^ t[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3): reflected polynomial 0xEDB88320, init/final 0xFFFFFFFF.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        // Reflected: the register lines up with the block's first four
        // bytes, least significant byte first.
        let [r0, r1, r2, r3] = crc.to_le_bytes();
        crc = t[7][usize::from(b[0] ^ r0)]
            ^ t[6][usize::from(b[1] ^ r1)]
            ^ t[5][usize::from(b[2] ^ r2)]
            ^ t[4][usize::from(b[3] ^ r3)]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ b)];
    }
    !crc
}

const fn build_crc32_tables() -> Tables<u32> {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The byte-at-a-time loops the sliced versions must match exactly.
    fn crc16_bytewise(data: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &b in data {
            let idx = ((crc >> 8) ^ u16::from(b)) & 0xFF;
            crc = (crc << 8) ^ CRC16_TABLES[0][idx as usize];
        }
        crc
    }

    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            let idx = (crc ^ u32::from(b)) & 0xFF;
            crc = (crc >> 8) ^ CRC32_TABLES[0][idx as usize];
        }
        !crc
    }

    #[test]
    fn sliced_matches_bytewise_for_every_short_length() {
        // Every block/remainder split a flit encoding can produce, over
        // bytes that differ at every position.
        let data: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=64 {
            let d = &data[..len];
            assert_eq!(crc16(d), crc16_bytewise(d), "crc16 len {len}");
            assert_eq!(crc32(d), crc32_bytewise(d), "crc32 len {len}");
        }
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE("123456789") = 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc16(b""), 0xFFFF);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #[test]
        fn single_bit_flips_are_detected_crc16(
            data in prop::collection::vec(any::<u8>(), 1..64),
            bit in 0usize..8,
            byte_sel in any::<prop::sample::Index>(),
        ) {
            let mut corrupted = data.clone();
            let byte = byte_sel.index(corrupted.len());
            corrupted[byte] ^= 1 << bit;
            prop_assert_ne!(crc16(&data), crc16(&corrupted));
        }

        #[test]
        fn single_bit_flips_are_detected_crc32(
            data in prop::collection::vec(any::<u8>(), 1..256),
            bit in 0usize..8,
            byte_sel in any::<prop::sample::Index>(),
        ) {
            let mut corrupted = data.clone();
            let byte = byte_sel.index(corrupted.len());
            corrupted[byte] ^= 1 << bit;
            prop_assert_ne!(crc32(&data), crc32(&corrupted));
        }

        #[test]
        fn sliced_matches_bytewise(data in prop::collection::vec(any::<u8>(), 0..300)) {
            prop_assert_eq!(crc16(&data), crc16_bytewise(&data));
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }

        #[test]
        fn crc_is_deterministic(data in prop::collection::vec(any::<u8>(), 0..128)) {
            prop_assert_eq!(crc16(&data), crc16(&data));
            prop_assert_eq!(crc32(&data), crc32(&data));
        }
    }
}
