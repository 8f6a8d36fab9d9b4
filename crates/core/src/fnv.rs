//! FNV-1a — the repo's one fingerprinting primitive.
//!
//! Golden tests across the workspace (SimReport identity, measurement-set
//! corpora, inference replays) all pin FNV-1a values; a single shared
//! implementation keeps a constant typo in one place from silently
//! diverging the fingerprint families. `nni-measure` re-exports this type.
//!
//! A zero byte leaves the XOR half of the FNV-1a step unchanged, so
//! `(h ^ 0)·P = h·P` and a run of `k` zero bytes is a single multiply by
//! `P^k`. The byte before the run needs no multiply of its own either:
//! `((h ^ b)·P)·P^k = (h ^ b)·P^(k+1)`. [`Fnv::word`] fuses the two, so a
//! word with `s ≥ 1` significant low bytes costs `s` dependent multiplies
//! (the last one by `P^(9-s)`) and the zero word one multiply by `P^8`. A
//! 2-byte path id folds in 2 multiplies, `0.0` in 1; every value stays
//! that of the byte-at-a-time fold.

/// The FNV-1a 64-bit prime `P`.
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// `P^k` (wrapping) for `k` in `0..=8`: the effect of `k` zero bytes, or
/// of one byte's multiply followed by `k - 1` zero bytes.
const ZERO_RUN: [u64; 9] = {
    let mut table = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        table[k] = table[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    table
};

/// Incremental FNV-1a over a stream of bytes, u64 words, and strings.
///
/// Every method is defined as a byte fold: [`word`](Fnv::word) folds the
/// word's 8 little-endian bytes, [`bytes`](Fnv::bytes) folds its slice in
/// order. They only take shortcuts that give the same value.
#[derive(Debug, Clone)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one byte (the canonical FNV-1a step).
    #[inline]
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(PRIME);
    }

    /// Folds one u64 as its 8 little-endian bytes. With `s ≥ 1`
    /// significant low bytes: all but the last one step at a time, then
    /// the last one's step and the zero high bytes as one multiply by
    /// `P^(9-s)`. The zero word is one multiply by `P^8`.
    #[inline]
    pub fn word(&mut self, w: u64) {
        let significant = 8 - (w.leading_zeros() / 8) as usize;
        if significant == 0 {
            self.0 = self.0.wrapping_mul(ZERO_RUN[8]);
            return;
        }
        let mut h = self.0;
        for i in 0..significant - 1 {
            h ^= (w >> (8 * i)) & 0xFF;
            h = h.wrapping_mul(PRIME);
        }
        h ^= w >> (8 * (significant - 1));
        self.0 = h.wrapping_mul(ZERO_RUN[9 - significant]);
    }

    /// Folds a byte slice in order: whole 8-byte chunks as little-endian
    /// [`word`](Fnv::word)s, then the tail a byte at a time.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        for &b in words.remainder() {
            self.byte(b);
        }
    }

    /// Folds an `f64` as its bit pattern (bit-exact, NaN-safe).
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Folds a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference definition: one canonical step per byte.
    fn byte_fold(start: u64, bytes: &[u8]) -> u64 {
        let mut h = Fnv(start);
        for &b in bytes {
            h.byte(b);
        }
        h.0
    }

    /// SplitMix64: a seeded stream of test words.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Checks `w` from fixed start states and one drawn from `w` itself.
    fn assert_word_is_byte_fold(w: u64) {
        let random = splitmix(&mut w.clone());
        for start in [Fnv::new().0, 0, u64::MAX, 0x1234_5678_9abc_def0, random] {
            let mut h = Fnv(start);
            h.word(w);
            assert_eq!(h.0, byte_fold(start, &w.to_le_bytes()), "word {w:#x}");
        }
    }

    #[test]
    fn matches_reference_vectors() {
        // FNV-1a of the empty input is the offset basis; "a" and "foobar"
        // are the classic published vectors.
        assert_eq!(Fnv::new().0, 0xcbf29ce484222325);
        let mut h = Fnv::new();
        h.byte(b'a');
        assert_eq!(h.0, 0xaf63dc4c8601ec8c);
        let mut h = Fnv::new();
        for b in b"foobar" {
            h.byte(*b);
        }
        assert_eq!(h.0, 0x85944171f73967e8);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x85944171f73967e8);
    }

    #[test]
    fn word_is_le_byte_fold() {
        let mut a = Fnv::new();
        a.word(0x0102_0304_0506_0708);
        let mut b = Fnv::new();
        for byte in [0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01] {
            b.byte(byte);
        }
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn word_folds_zero_bytes_like_the_byte_fold() {
        for w in [0, 1, 0xFF, 0x100, 1 << 56, u64::MAX] {
            assert_word_is_byte_fold(w);
        }
        for x in [0.0, -0.0, 0.5, 1e-300, f64::NAN] {
            assert_word_is_byte_fold(f64::to_bits(x));
        }
        let mut state = 19;
        // Every significant-byte count 1–8 (0 is the zero word above), the
        // top significant byte 0x01, 0x80 or 0xFF, random bytes below it.
        for s in 1..=8 {
            for top in [0x01u64, 0x80, 0xFF] {
                for _ in 0..64 {
                    let below = splitmix(&mut state) & ((1u64 << (8 * (s - 1))) - 1);
                    let w = top << (8 * (s - 1)) | below;
                    assert_eq!(8 - w.leading_zeros() as usize / 8, s, "word {w:#x}");
                    assert_word_is_byte_fold(w);
                }
            }
        }
        // Random words with random bytes zeroed: zero runs at the top, at
        // the bottom and in between.
        for _ in 0..10_000 {
            let w = splitmix(&mut state);
            let zeroed = splitmix(&mut state);
            let keep = (0..8)
                .filter(|i| zeroed >> i & 1 == 1)
                .fold(0u64, |m, i| m | 0xFF << (8 * i));
            assert_word_is_byte_fold(w & keep);
        }
    }

    #[test]
    fn bytes_is_the_byte_fold() {
        let mut state = 7;
        for len in 0..=40 {
            for trial in 0..64 {
                // Zero runs of random length at random offsets, so some
                // cross an 8-byte chunk boundary and some cover whole
                // chunks or the tail.
                let mut data: Vec<u8> = (0..len).map(|_| splitmix(&mut state) as u8).collect();
                if len > 0 {
                    let at = splitmix(&mut state) as usize % len;
                    let run = trial % (len - at + 1);
                    data[at..at + run].fill(0);
                }
                let mut h = Fnv::new();
                h.bytes(&data);
                assert_eq!(h.0, byte_fold(Fnv::new().0, &data), "len {len}");
            }
        }
        let mut h = Fnv::new();
        h.bytes(&[0; 24]);
        assert_eq!(h.0, byte_fold(Fnv::new().0, &[0; 24]));
    }
}
