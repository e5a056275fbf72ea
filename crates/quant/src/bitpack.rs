//! Arbitrary-width bit packing for quantization codes.
//!
//! MILLION stores PQ centroid indices packed to `nbits` bits (the paper uses
//! 8-bit and 12-bit subspace codes; integer baselines use 2–4 bits). Packing
//! matters for two reasons: it is what the memory accounting of the
//! performance model is based on, and it mirrors the `float4`-granularity
//! loads the CUDA kernel performs.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// A bit-packed vector of unsigned codes, each `bits` wide (1..=16).
///
/// # Example
///
/// ```
/// use million_quant::bitpack::PackedCodes;
///
/// let packed = PackedCodes::pack(&[3, 1, 2, 0], 2).unwrap();
/// assert_eq!(packed.len(), 4);
/// assert_eq!(packed.byte_len(), 1); // 4 codes x 2 bits = 1 byte
/// assert_eq!(packed.unpack(), vec![3, 1, 2, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedCodes {
    bits: u8,
    len: usize,
    data: Vec<u8>,
}

impl PackedCodes {
    /// Packs `codes` using `bits` bits per code.
    ///
    /// # Errors
    ///
    /// Returns [`crate::QuantError::InvalidConfig`] if `bits` is 0 or > 16, or
    /// if any code does not fit in `bits` bits.
    pub fn pack(codes: &[u16], bits: u8) -> Result<Self, crate::QuantError> {
        if bits == 0 || bits > 16 {
            return Err(crate::QuantError::InvalidConfig(format!(
                "bit width {bits} not in 1..=16"
            )));
        }
        let max = max_code(bits);
        let mut packed = Self::with_capacity(bits, codes.len());
        for &c in codes {
            if c > max {
                return Err(crate::QuantError::InvalidConfig(format!(
                    "code {c} does not fit in {bits} bits"
                )));
            }
            packed.push(c);
        }
        Ok(packed)
    }

    /// Creates an empty packed vector that will hold `bits`-wide codes.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16.
    pub fn with_capacity(bits: u8, capacity: usize) -> Self {
        assert!((1..=16).contains(&bits), "bit width must be in 1..=16");
        Self {
            bits,
            len: 0,
            data: Vec::with_capacity((capacity * bits as usize).div_ceil(8)),
        }
    }

    /// Number of bits per code.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of codes stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no codes are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of bytes of packed storage actually used.
    pub fn byte_len(&self) -> usize {
        (self.len * self.bits as usize).div_ceil(8)
    }

    /// Appends one code.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the code does not fit in the configured width.
    pub fn push(&mut self, code: u16) {
        debug_assert!(code <= max_code(self.bits), "code exceeds bit width");
        let bit_offset = self.len * self.bits as usize;
        let needed_bytes = (bit_offset + self.bits as usize).div_ceil(8);
        if self.data.len() < needed_bytes {
            self.data.resize(needed_bytes, 0);
        }
        let mut remaining = self.bits as usize;
        let mut value = code as u32;
        let mut byte = bit_offset / 8;
        let mut shift = bit_offset % 8;
        while remaining > 0 {
            let avail = 8 - shift;
            let take = avail.min(remaining);
            let mask = ((1u32 << take) - 1) as u8;
            self.data[byte] |= (((value & ((1 << take) - 1)) as u8) & mask) << shift;
            value >>= take;
            remaining -= take;
            byte += 1;
            shift = 0;
        }
        self.len += 1;
    }

    /// Appends every code in `codes`.
    ///
    /// Whole groups of 8-, 4- and 6-bit codes at a byte-aligned cursor — a
    /// row of a PQ kernel layout — are written as bytes directly (the writer
    /// twin of the unrolled decoders in [`crate::pq::PqCodes::walk_row`]);
    /// everything else goes through the bit cursor of [`PackedCodes::push`].
    ///
    /// # Panics
    ///
    /// Panics (debug) if a code does not fit in the configured width.
    pub fn extend_from_slice(&mut self, codes: &[u16]) {
        debug_assert!(
            codes.iter().all(|&c| c <= max_code(self.bits)),
            "code exceeds bit width"
        );
        let aligned = (self.len * self.bits as usize).is_multiple_of(8);
        match self.bits {
            8 if aligned => self.data.extend(codes.iter().map(|&c| c as u8)),
            4 if aligned && codes.len().is_multiple_of(2) => self
                .data
                .extend(codes.chunks_exact(2).map(|c| (c[0] | c[1] << 4) as u8)),
            6 if aligned && codes.len().is_multiple_of(4) => {
                self.data.extend(codes.chunks_exact(4).flat_map(|c| {
                    [
                        (c[0] | c[1] << 6) as u8,
                        (c[1] >> 2 | c[2] << 4) as u8,
                        (c[2] >> 4 | c[3] << 2) as u8,
                    ]
                }))
            }
            _ => {
                for &c in codes {
                    self.push(c);
                }
                return;
            }
        }
        self.len += codes.len();
    }

    /// Rebuilds a packed vector from its raw storage — the inverse of
    /// ([`PackedCodes::bits`], [`PackedCodes::len`], [`PackedCodes::as_bytes`]),
    /// used when restoring persisted code blocks from disk.
    ///
    /// # Errors
    ///
    /// Returns [`crate::QuantError::InvalidConfig`] if `bits` is outside
    /// `1..=16` or `data` is not exactly the `(len * bits).div_ceil(8)` bytes
    /// the layout requires.
    pub fn from_raw_parts(bits: u8, len: usize, data: Vec<u8>) -> Result<Self, crate::QuantError> {
        if bits == 0 || bits > 16 {
            return Err(crate::QuantError::InvalidConfig(format!(
                "bit width {bits} not in 1..=16"
            )));
        }
        let expected = (len * bits as usize).div_ceil(8);
        if data.len() != expected {
            return Err(crate::QuantError::InvalidConfig(format!(
                "packed storage holds {} bytes, layout requires {expected}",
                data.len()
            )));
        }
        // The writer always leaves the unused tail bits of the last byte
        // zero, so nonzero bits there are a corruption signal — reject them
        // rather than silently "repairing" the data.
        let used_bits = len * bits as usize;
        if !used_bits.is_multiple_of(8) {
            let tail = data.last().copied().unwrap_or(0);
            if tail >> (used_bits % 8) != 0 {
                return Err(crate::QuantError::InvalidConfig(
                    "nonzero trailing bits in packed storage".into(),
                ));
            }
        }
        Ok(Self { bits, len, data })
    }

    /// Zeroes the unused trailing bits of the last byte, restoring the
    /// invariant [`PackedCodes::push`] relies on (it ORs new codes into
    /// zero bits).
    fn mask_tail(&mut self) {
        let used_bits = self.len * self.bits as usize;
        self.data.truncate(used_bits.div_ceil(8));
        if !used_bits.is_multiple_of(8) {
            if let Some(last) = self.data.last_mut() {
                *last &= (1u8 << (used_bits % 8)) - 1;
            }
        }
    }

    /// Copies the `n` codes starting at `start` into a new packed vector.
    ///
    /// When the range starts on a byte boundary this is a byte-slice copy;
    /// otherwise codes are re-packed one by one.
    ///
    /// # Panics
    ///
    /// Panics if `start + n > len`.
    pub fn clone_range(&self, start: usize, n: usize) -> PackedCodes {
        assert!(start + n <= self.len, "clone_range out of bounds");
        let bits = self.bits as usize;
        let start_bit = start * bits;
        if start_bit.is_multiple_of(8) {
            let end_bit = start_bit + n * bits;
            let data = self.data[start_bit / 8..end_bit.div_ceil(8)].to_vec();
            let mut out = Self {
                bits: self.bits,
                len: n,
                data,
            };
            out.mask_tail();
            out
        } else {
            let mut out = Self::with_capacity(self.bits, n);
            for i in 0..n {
                out.push(self.get(start + i));
            }
            out
        }
    }

    /// Removes the first `n` codes. A byte-aligned cut is a front drain of
    /// the storage; otherwise the suffix is re-packed.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    pub fn drop_front(&mut self, n: usize) {
        assert!(n <= self.len, "drop_front out of bounds");
        if (n * self.bits as usize).is_multiple_of(8) {
            self.data.drain(0..n * self.bits as usize / 8);
            self.len -= n;
        } else {
            *self = self.clone_range(n, self.len - n);
        }
    }

    /// Reads the code at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[inline]
    pub fn get(&self, index: usize) -> u16 {
        assert!(index < self.len, "packed code index out of bounds");
        let bit_offset = index * self.bits as usize;
        let mut remaining = self.bits as usize;
        let mut out: u32 = 0;
        let mut got = 0usize;
        let mut byte = bit_offset / 8;
        let mut shift = bit_offset % 8;
        while remaining > 0 {
            let avail = 8 - shift;
            let take = avail.min(remaining);
            let bits = ((self.data[byte] as u32) >> shift) & ((1 << take) - 1);
            out |= bits << got;
            got += take;
            remaining -= take;
            byte += 1;
            shift = 0;
        }
        out as u16
    }

    /// Unpacks every code into a fresh vector.
    pub fn unpack(&self) -> Vec<u16> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Returns the packed bytes as a cheaply cloneable [`Bytes`] buffer.
    pub fn to_bytes(&self) -> Bytes {
        Bytes::copy_from_slice(&self.data)
    }

    /// Borrowed view of the raw packed storage. Codes are packed LSB-first:
    /// code `i` occupies bits `[i*bits, (i+1)*bits)` counted from bit 0 of
    /// byte 0; unused trailing bits of the last byte are zero.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Appends every code of `other`.
    ///
    /// When the current bit cursor is byte-aligned this is a single
    /// `memcpy` of `other`'s packed bytes (the path [`crate::pq::PqCodes`]
    /// hits for whole-row-aligned layouts); otherwise it falls back to
    /// pushing code by code.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different bit widths.
    pub fn extend_packed(&mut self, other: &PackedCodes) {
        assert_eq!(
            self.bits, other.bits,
            "extend_packed requires equal bit widths"
        );
        if (self.len * self.bits as usize).is_multiple_of(8) {
            self.data.truncate(self.byte_len());
            self.data.extend_from_slice(&other.data[..other.byte_len()]);
            self.len += other.len;
        } else {
            for code in other.iter() {
                self.push(code);
            }
        }
    }

    /// Iterator over the stored codes.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            packed: self,
            index: 0,
        }
    }
}

/// Iterator returned by [`PackedCodes::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    packed: &'a PackedCodes,
    index: usize,
}

impl Iterator for Iter<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        if self.index >= self.packed.len() {
            return None;
        }
        let v = self.packed.get(self.index);
        self.index += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.packed.len() - self.index;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Largest code representable in `bits` bits.
#[inline]
pub fn max_code(bits: u8) -> u16 {
    if bits >= 16 {
        u16::MAX
    } else {
        (1u16 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_rejects_bad_width() {
        assert!(PackedCodes::pack(&[0], 0).is_err());
        assert!(PackedCodes::pack(&[0], 17).is_err());
        assert!(PackedCodes::pack(&[0], 16).is_ok());
    }

    #[test]
    fn pack_rejects_oversized_code() {
        assert!(PackedCodes::pack(&[4], 2).is_err());
        assert!(PackedCodes::pack(&[3], 2).is_ok());
    }

    #[test]
    fn roundtrip_8_bit() {
        let codes: Vec<u16> = (0..=255).collect();
        let packed = PackedCodes::pack(&codes, 8).unwrap();
        assert_eq!(packed.byte_len(), 256);
        assert_eq!(packed.unpack(), codes);
    }

    #[test]
    fn roundtrip_12_bit_crosses_byte_boundaries() {
        let codes: Vec<u16> = (0..1000).map(|i| (i * 7 % 4096) as u16).collect();
        let packed = PackedCodes::pack(&codes, 12).unwrap();
        assert_eq!(packed.byte_len(), (1000 * 12usize).div_ceil(8));
        assert_eq!(packed.unpack(), codes);
    }

    #[test]
    fn roundtrip_odd_widths() {
        for bits in [1u8, 3, 5, 6, 7, 11, 13, 15] {
            let max = max_code(bits);
            let codes: Vec<u16> = (0..200).map(|i| (i * 13) as u16 % (max + 1)).collect();
            let packed = PackedCodes::pack(&codes, bits).unwrap();
            assert_eq!(packed.unpack(), codes, "width {bits}");
        }
    }

    #[test]
    fn byte_len_matches_expected_compression() {
        // 4-bit codes: two codes per byte.
        let packed = PackedCodes::pack(&[1, 2, 3, 4, 5], 4).unwrap();
        assert_eq!(packed.byte_len(), 3);
    }

    #[test]
    fn iterator_yields_all_codes() {
        let codes = vec![9u16, 0, 511, 256];
        let packed = PackedCodes::pack(&codes, 9).unwrap();
        let collected: Vec<u16> = packed.iter().collect();
        assert_eq!(collected, codes);
        assert_eq!(packed.iter().len(), 4);
    }

    #[test]
    fn to_bytes_length_matches() {
        let packed = PackedCodes::pack(&[1, 2, 3], 4).unwrap();
        assert_eq!(packed.to_bytes().len(), packed.byte_len());
    }

    #[test]
    fn max_code_values() {
        assert_eq!(max_code(1), 1);
        assert_eq!(max_code(8), 255);
        assert_eq!(max_code(12), 4095);
        assert_eq!(max_code(16), u16::MAX);
    }

    #[test]
    fn extend_packed_matches_pushes_aligned_and_unaligned() {
        for bits in [4u8, 6, 8, 12, 5] {
            let max = max_code(bits);
            for prefix_len in [0usize, 1, 2, 3, 8] {
                let prefix: Vec<u16> = (0..prefix_len)
                    .map(|i| (i as u16 * 7) % (max + 1))
                    .collect();
                let suffix: Vec<u16> = (0..50).map(|i| (i as u16 * 11) % (max + 1)).collect();
                let mut fast = PackedCodes::pack(&prefix, bits).unwrap();
                let other = PackedCodes::pack(&suffix, bits).unwrap();
                fast.extend_packed(&other);
                let mut slow = PackedCodes::pack(&prefix, bits).unwrap();
                slow.extend_from_slice(&suffix);
                assert_eq!(fast, slow, "bits {bits}, prefix {prefix_len}");
            }
        }
    }

    #[test]
    fn as_bytes_exposes_lsb_first_layout() {
        let packed = PackedCodes::pack(&[0x3, 0x1], 4).unwrap();
        // code 0 in the low nibble, code 1 in the high nibble.
        assert_eq!(packed.as_bytes(), &[0x13]);
    }

    #[test]
    fn from_raw_parts_roundtrips_and_validates() {
        for bits in [4u8, 6, 8, 12, 5] {
            let max = max_code(bits);
            let codes: Vec<u16> = (0..37).map(|i| (i * 19) as u16 % (max + 1)).collect();
            let packed = PackedCodes::pack(&codes, bits).unwrap();
            let rebuilt =
                PackedCodes::from_raw_parts(bits, packed.len(), packed.as_bytes().to_vec())
                    .unwrap();
            assert_eq!(rebuilt, packed, "width {bits}");
        }
        assert!(PackedCodes::from_raw_parts(0, 1, vec![0]).is_err());
        assert!(PackedCodes::from_raw_parts(8, 2, vec![0]).is_err()); // short
        assert!(PackedCodes::from_raw_parts(8, 1, vec![0, 0]).is_err()); // long
                                                                         // Nonzero bits past the last code are corruption, not data.
        assert!(PackedCodes::from_raw_parts(4, 1, vec![0x1F]).is_err());
        assert!(PackedCodes::from_raw_parts(4, 1, vec![0x0F]).is_ok());
    }

    #[test]
    fn clone_range_and_drop_front_match_reference_slicing() {
        for bits in [4u8, 6, 8, 12, 5, 3] {
            let max = max_code(bits);
            let codes: Vec<u16> = (0..61).map(|i| (i * 23 + 7) as u16 % (max + 1)).collect();
            let packed = PackedCodes::pack(&codes, bits).unwrap();
            for (start, n) in [
                (0usize, 61usize),
                (0, 10),
                (8, 20),
                (3, 5),
                (61, 0),
                (17, 44),
            ] {
                let sliced = packed.clone_range(start, n);
                assert_eq!(sliced.unpack(), &codes[start..start + n], "bits {bits}");
                let mut dropped = packed.clone();
                dropped.drop_front(start);
                assert_eq!(dropped.unpack(), &codes[start..], "bits {bits}");
                // The sliced copies keep the push invariant (zeroed tail bits).
                let mut extended = sliced.clone();
                extended.push(max);
                assert_eq!(*extended.unpack().last().unwrap(), max);
            }
        }
    }

    proptest! {
        #[test]
        fn pack_unpack_roundtrip(bits in 1u8..=16, raw in proptest::collection::vec(0u16..u16::MAX, 0..300)) {
            let max = max_code(bits);
            let codes: Vec<u16> = raw.iter().map(|&c| c % (max as u32 as u16).wrapping_add(1).max(1)).collect();
            let codes: Vec<u16> = if max == u16::MAX { raw.clone() } else { codes };
            let packed = PackedCodes::pack(&codes, bits).unwrap();
            prop_assert_eq!(packed.unpack(), codes);
        }

        #[test]
        fn incremental_push_equals_bulk_pack(bits in 2u8..=12, n in 0usize..200) {
            let max = max_code(bits);
            let codes: Vec<u16> = (0..n).map(|i| (i as u16 * 31) % (max + 1)).collect();
            let bulk = PackedCodes::pack(&codes, bits).unwrap();
            let mut inc = PackedCodes::with_capacity(bits, n);
            inc.extend_from_slice(&codes);
            prop_assert_eq!(bulk, inc);
        }
    }
}
