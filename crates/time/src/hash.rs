//! A tiny, dependency-free content hasher for compile-artifact keys.
//!
//! The compile-once/run-many layer keys cached [`CompiledNetwork`]
//! artifacts by a *content hash* of the network and WCET model. That hash
//! must be stable across processes and runs (unlike `std::hash`'s
//! `RandomState`), cheap, and free of external crates, so we use FNV-1a
//! over a field-tagged byte stream. It is **not** cryptographic — the
//! threat model is accidental collision between distinct models, for
//! which 64 bits of a well-mixed hash is ample.
//!
//! Every write is length- or tag-prefixed by the callers so that
//! concatenation ambiguity (`"ab" + "c"` vs `"a" + "bc"`) cannot produce
//! identical streams for structurally different inputs.
//!
//! [`CompiledNetwork`]: ../fppn_sim/compile/struct.CompiledNetwork.html

use crate::TimeQ;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher with typed write helpers.
///
/// # Examples
///
/// ```
/// use fppn_time::{ContentHasher, TimeQ};
///
/// let mut a = ContentHasher::new();
/// a.write_str("proc");
/// a.write_time(TimeQ::from_ms(100));
/// let mut b = ContentHasher::new();
/// b.write_str("proc");
/// b.write_time(TimeQ::from_ms(100));
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    /// Creates a hasher in the FNV-1a initial state.
    pub const fn new() -> Self {
        ContentHasher { state: FNV_OFFSET }
    }

    /// Absorbs a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.state ^= v as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Absorbs raw bytes (callers are responsible for length-prefixing).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `i128` in little-endian byte order.
    pub fn write_i128(&mut self, v: i128) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize`, widened to `u64` for cross-platform stability.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Absorbs a string, length-prefixed so adjacent strings can't merge.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs an exact rational time as its normalized numerator and
    /// denominator; equal [`TimeQ`] values always hash identically.
    pub fn write_time(&mut self, t: TimeQ) {
        self.write_i128(t.numer());
        self.write_i128(t.denom());
    }

    /// Returns the accumulated 64-bit hash.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hash_is_fnv_offset() {
        assert_eq!(ContentHasher::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn length_prefix_disambiguates_strings() {
        let mut a = ContentHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = ContentHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn equal_rationals_hash_identically() {
        let mut a = ContentHasher::new();
        a.write_time(TimeQ::new(6, 4));
        let mut b = ContentHasher::new();
        b.write_time(TimeQ::new(3, 2));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn single_bit_changes_propagate() {
        let mut a = ContentHasher::new();
        a.write_u64(0);
        let mut b = ContentHasher::new();
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
