//! CRC32C (Castagnoli) checksums guarding persisted blocks.
//!
//! Every SSTable block, WAL record, and serialized chunk carries a CRC so
//! corruption surfaces as a typed error instead of garbage data. Uses the
//! same masking scheme as LevelDB so a stored CRC is never itself a valid
//! CRC of trivial data.
//!
//! Two implementations give the same values: on x86_64 with SSE4.2 the
//! `crc32` instruction folds eight bytes per step; everywhere else one
//! table lookup folds one byte. The CPU is asked once per process which
//! one runs.

/// Table-driven CRC32C over the Castagnoli polynomial (reflected 0x82F63B78).
const POLY: u32 = 0x82F6_3B78;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = {
    // const-evaluated at compile time
    make_table()
};

/// Computes the CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    extend(0, data)
}

/// Extends a running CRC with more data.
pub fn extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `extend_sse42` needs only the SSE4.2 instructions, which
        // the CPU was just detected to have.
        return unsafe { extend_sse42(crc, data) };
    }
    extend_portable(crc, data)
}

/// [`extend`] through the SSE4.2 `crc32` instruction, eight bytes a step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn extend_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut c = u64::from(!crc);
    for word in &mut words {
        let word: [u8; 8] = word.try_into().expect("chunks_exact yields 8 bytes");
        c = _mm_crc32_u64(c, u64::from_le_bytes(word));
    }
    // The instruction leaves the upper half of its 64-bit result zero.
    let mut c = c as u32;
    for &b in words.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// [`extend`] by table lookup, one byte a step.
fn extend_portable(crc: u32, data: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

const MASK_DELTA: u32 = 0xa282_ead8;

/// Masks a CRC for storage (LevelDB scheme): rotate and add a constant so
/// that computing the CRC of a stored CRC does not yield a fixed point.
pub fn mask(crc: u32) -> u32 {
    ((crc >> 15) | (crc << 17)).wrapping_add(MASK_DELTA)
}

/// Inverse of [`mask`].
pub fn unmask(masked: u32) -> u32 {
    let rot = masked.wrapping_sub(MASK_DELTA);
    (rot >> 17) | (rot << 15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every implementation by name, called directly, so each is checked
    /// whichever one `extend` picks on this CPU. The portable byte loop is
    /// the reference the others must agree with.
    fn implementations() -> Vec<(&'static str, fn(u32, &[u8]) -> u32)> {
        let mut out: Vec<(&'static str, fn(u32, &[u8]) -> u32)> =
            vec![("portable", extend_portable), ("dispatch", extend)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            fn sse42(crc: u32, data: &[u8]) -> u32 {
                // SAFETY: only listed once the CPU was detected to have SSE4.2.
                unsafe { extend_sse42(crc, data) }
            }
            out.push(("sse4.2", sse42));
        }
        out
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 test vectors for CRC32C.
        let ascending: Vec<u8> = (0..32).collect();
        let vectors: [(&[u8], u32); 4] = [
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xffu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (b"123456789", 0xE306_9283),
        ];
        for (name, f) in implementations() {
            for (data, want) in vectors {
                assert_eq!(f(0, data), want, "{name} on {data:?}");
            }
        }
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn every_length_and_offset_agrees_with_the_portable_loop() {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let data: Vec<u8> = (0..4_100 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let impls = implementations();
        for start in 0..8 {
            for len in 0..=4_100 {
                let slice = &data[start..start + len];
                let want = extend_portable(0x1234_5678, slice);
                for (name, f) in &impls {
                    assert_eq!(
                        f(0x1234_5678, slice),
                        want,
                        "{name}: start {start}, len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn extend_equals_one_shot() {
        let data = b"hello world, this is timeunion";
        let (a, b) = data.split_at(10);
        assert_eq!(extend(crc32c(a), b), crc32c(data));
    }

    #[test]
    fn mask_round_trips_and_changes_value() {
        for &v in &[0u32, 1, 0xdeadbeef, u32::MAX] {
            assert_eq!(unmask(mask(v)), v);
            assert_ne!(mask(v), v);
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc32c(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32c(&copy), base);
                copy[byte] ^= 1 << bit;
            }
        }
    }

    proptest! {
        #[test]
        fn prop_mask_round_trip(v: u32) {
            prop_assert_eq!(unmask(mask(v)), v);
        }

        #[test]
        fn prop_extend_split(data in proptest::collection::vec(any::<u8>(), 0..500), split in 0usize..500) {
            let split = split.min(data.len());
            let (a, b) = data.split_at(split);
            prop_assert_eq!(extend(crc32c(a), b), crc32c(&data));
        }

        #[test]
        fn prop_split_extends_agree(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..4),
            seed: u32,
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let want = extend_portable(seed, &data);
            for (name, f) in implementations() {
                let (mut crc, mut from) = (seed, 0);
                for &cut in cuts.iter().chain(std::iter::once(&data.len())) {
                    crc = f(crc, &data[from..cut]);
                    from = cut;
                }
                prop_assert_eq!(crc, want, "{}", name);
            }
        }
    }
}
