//! Bit-granular writer and reader.
//!
//! Bits are packed most-significant-bit first within each byte, matching
//! the layout used by the Gorilla paper and the Prometheus XOR chunk.
//!
//! [`BitWriter`] gathers bits in a 64-bit accumulator, left-aligned, and
//! moves them to its byte buffer eight bytes at a time, once the
//! accumulator is full. A `write_bits` of any width is then an OR and a
//! shift or two, plus at most one 8-byte store. The accumulator is
//! emitted big-endian, so its top bit is the next bit of the stream, and
//! [`BitWriter::finish`] keeps only the bytes the pending bits reach,
//! zero-padded: the bytes are those of a writer that appends one bit at a
//! time, which the tests keep as the reference. [`BitReader`] reads up to
//! 56 bits with one unaligned 8-byte load.

use tu_common::{Error, Result};

/// Appends bits to a growable byte buffer.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    /// Whole 8-byte words already emitted.
    buf: Vec<u8>,
    /// Pending bits, left-aligned: the stream's next bit goes at bit
    /// `63 - pending`, and every bit below it is zero.
    acc: u64,
    /// Number of pending bits in `acc`; always below 64 between calls.
    pending: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Moves the full accumulator to the buffer.
    #[inline]
    fn emit(&mut self) {
        self.buf.extend_from_slice(&self.acc.to_be_bytes());
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.acc |= u64::from(bit) << (63 - self.pending);
        self.pending += 1;
        if self.pending == 64 {
            self.emit();
            (self.acc, self.pending) = (0, 0);
        }
    }

    /// Writes the low `n` bits of `value`, most significant first.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u8) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let n = u32::from(n);
        // Left-align the low `n` bits; the bits above them drop out.
        let v = value << (64 - n);
        self.acc |= v >> self.pending;
        let free = 64 - self.pending;
        if n < free {
            self.pending += n;
        } else {
            self.emit();
            // The `n - free` bits of `v` that did not fit.
            self.acc = v.checked_shl(free).unwrap_or(0);
            self.pending = n - free;
        }
    }

    /// Consumes the writer, returning the packed bytes (final byte padded
    /// with zero bits).
    pub fn finish(mut self) -> Vec<u8> {
        let tail = self.pending.div_ceil(8) as usize;
        self.buf.extend_from_slice(&self.acc.to_be_bytes()[..tail]);
        self.buf
    }
}

/// Reads bits from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Next bit to read, as an absolute bit index.
    pos: usize,
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Bits remaining in the stream (including padding bits of the final
    /// byte — framing is the caller's job, via sample counts).
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Reads one bit.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        let byte = self.pos / 8;
        if byte >= self.buf.len() {
            return Err(Error::corruption("bitstream exhausted"));
        }
        let bit = (self.buf[byte] >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Reads `n` bits into the low bits of a u64, most significant first.
    ///
    /// One bounds check up front covers the whole read, and bits are
    /// extracted a byte at a time instead of via `n` `read_bit` calls —
    /// this is the decode hot loop for every codec in the crate.
    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Result<u64> {
        debug_assert!(n <= 64);
        let mut pos = self.pos;
        let mut left = n as usize;
        if pos + left > self.buf.len() * 8 {
            return Err(Error::corruption("bitstream exhausted"));
        }
        let byte = pos / 8;
        let off = pos % 8;
        // Fast path: one unaligned big-endian word load covers any read
        // of up to 56 bits at any bit offset (off + n <= 63).
        if left >= 1 && left <= 56 && byte + 8 <= self.buf.len() {
            let word = u64::from_be_bytes(self.buf[byte..byte + 8].try_into().expect("8 bytes"));
            self.pos = pos + left;
            return Ok((word << off) >> (64 - left));
        }
        let mut out = 0u64;
        while left > 0 {
            let bit_off = pos % 8;
            let take = (8 - bit_off).min(left);
            // Shift consumed high bits out, then keep the top `take` bits.
            let chunk = (self.buf[pos / 8] << bit_off) >> (8 - take);
            out = (out << take) | u64::from(chunk);
            pos += take;
            left -= take;
        }
        self.pos = pos;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time writer the chunk formats were first written
    /// with: the reference the accumulator must match byte for byte.
    #[derive(Default)]
    struct BitAtATime {
        buf: Vec<u8>,
        tail_bits: u8,
    }

    impl BitAtATime {
        fn write_bit(&mut self, bit: bool) {
            if self.tail_bits == 0 {
                self.buf.push(0);
            }
            let last = self.buf.last_mut().expect("pushed above or existing");
            if bit {
                *last |= 1 << (7 - self.tail_bits);
            }
            self.tail_bits = (self.tail_bits + 1) % 8;
        }

        fn write_bits(&mut self, value: u64, n: u8) {
            for i in (0..n).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }
    }

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, false, true, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit().unwrap(), b);
        }
    }

    #[test]
    fn multibit_values_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xDEADBEEF, 32);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(1).unwrap(), 0);
    }

    #[test]
    fn reading_past_end_errors() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn zero_width_read_is_zero() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn accumulator_spills_at_every_offset() {
        // A 64-bit write after each of 0..64 single bits crosses the
        // accumulator's end at every offset.
        for lead in 0..64 {
            let (mut w, mut reference) = (BitWriter::new(), BitAtATime::default());
            for i in 0..lead {
                w.write_bit(i % 3 == 0);
                reference.write_bit(i % 3 == 0);
            }
            w.write_bits(0x8000_0000_0000_0001, 64);
            reference.write_bits(0x8000_0000_0000_0001, 64);
            assert_eq!(w.finish(), reference.buf, "after {lead} bits");
        }
    }

    proptest! {
        #[test]
        fn prop_writer_matches_bit_at_a_time(
            ops in proptest::collection::vec((any::<u64>(), 0u8..=64, any::<bool>()), 0..80),
        ) {
            let (mut w, mut reference) = (BitWriter::new(), BitAtATime::default());
            for &(v, n, bit) in &ops {
                // Bits above the low `n` must not leak into the stream.
                w.write_bits(v, n);
                reference.write_bits(v, n);
                if bit {
                    w.write_bit(v & 1 == 1);
                    reference.write_bit(v & 1 == 1);
                }
            }
            prop_assert_eq!(w.finish(), reference.buf);
        }

        #[test]
        fn prop_values_round_trip(values in proptest::collection::vec((any::<u64>(), 1u8..=64), 0..50)) {
            let mut w = BitWriter::new();
            for &(v, n) in &values {
                let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
                w.write_bits(masked, n);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &(v, n) in &values {
                let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
                prop_assert_eq!(r.read_bits(n).unwrap(), masked);
            }
        }
    }
}
