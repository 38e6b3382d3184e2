//! Content hashing for the incremental query layer (DESIGN.md §18).
//!
//! Every stage of the analysis pipeline is keyed by a [`ContentHash`]
//! of its canonical input: a program's serialized IR, a run
//! configuration, a traced DDG. Two inputs hash equal exactly when
//! their canonical byte forms are equal, so cache keys survive
//! re-parsing, re-ordering of `HashMap` iteration, and daemon
//! restarts.
//!
//! The hash is a 128-bit two-lane FNV-1a: two independent 64-bit FNV
//! streams over the same bytes, seeded differently. FNV is not
//! cryptographic, but the query layer does not need collision
//! *resistance* against an adversary — it needs a stable, fast,
//! dependency-free fingerprint with a collision probability that is
//! negligible at cache scale (2^-128 birthday bound dwarfs the store
//! capacities involved). Nothing in this module depends on pointer
//! values, allocation order, or the host.
//!
//! Records that are naturally fixed-width words — traced DDGs, match
//! keys, program shapes — hash through [`WordHasher`] instead: one
//! avalanche mix per 64-bit word rather than two multiplies per byte.

use crate::func::{Function, Program};
use serde::Serialize;
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second-lane seed: the FNV offset basis XORed with an arbitrary
/// odd constant so the lanes decorrelate from the first byte on.
const FNV_OFFSET_B: u64 = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;

/// A 128-bit content fingerprint. Equality means "same canonical
/// bytes" for all practical purposes; `Display` renders 32 lowercase
/// hex digits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentHash(pub u128);

impl ContentHash {
    /// Parses the 32-hex-digit form produced by `Display` (used by the
    /// persistent cache loader and the wire protocol).
    pub fn from_hex(s: &str) -> Option<ContentHash> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(ContentHash)
    }

    /// Combines two hashes order-dependently (for composite keys like
    /// `(program, input)` without re-serializing both parts).
    pub fn combine(self, other: ContentHash) -> ContentHash {
        let mut h = ContentHasher::new();
        h.write_u64((self.0 >> 64) as u64);
        h.write_u64(self.0 as u64);
        h.write_u64((other.0 >> 64) as u64);
        h.write_u64(other.0 as u64);
        h.finish()
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentHash({:032x})", self.0)
    }
}

/// Streaming two-lane FNV-1a hasher producing a [`ContentHash`].
#[derive(Clone)]
pub struct ContentHasher {
    a: u64,
    b: u64,
}

impl Default for ContentHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ContentHasher {
    pub fn new() -> Self {
        ContentHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
        }
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Hashes a string with a length prefix, so `("ab", "c")` and
    /// `("a", "bc")` fingerprint differently.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Hashes the exact bit pattern (distinguishes `0.0` from `-0.0`
    /// and every NaN payload — canonical-bytes semantics, not float
    /// equality).
    pub fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    pub fn finish(&self) -> ContentHash {
        ContentHash(((self.a as u128) << 64) | self.b as u128)
    }
}

/// Multipliers of the splitmix64 finalizer, a full-avalanche bijection
/// of `u64`.
const MIX_1: u64 = 0xbf58_476d_1ce4_e5b9;
const MIX_2: u64 = 0x94d0_49bb_1331_11eb;
/// Odd lane multipliers, distinct so the lanes do not move in step.
const LANE_A: u64 = 0x9e37_79b9_7f4a_7c15;
const LANE_B: u64 = 0xc2b2_ae3d_27d4_eb4f;

#[inline]
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(MIX_1);
    x ^= x >> 27;
    x = x.wrapping_mul(MIX_2);
    x ^ (x >> 31)
}

/// Streaming word-at-a-time 128-bit hasher producing a [`ContentHash`],
/// for records that are naturally fixed-width words: DDG fingerprints,
/// match-stage keys, program shapes.
///
/// Every word passes a full-avalanche mix before it enters either lane,
/// so flipping any input bit changes each lane like a fresh random word
/// would. Word-wise FNV lacks that: flipping bit 63 of two words leaves
/// both of its lanes unchanged. The lanes fold the mixed words with
/// different rotations, operators and multipliers, and `finish` mixes
/// each lane again, so every output bit is well mixed. Like
/// [`ContentHasher`] it is not cryptographic: soundness of a key built
/// on it rests on collision odds at cache scale.
#[derive(Clone)]
pub struct WordHasher {
    a: u64,
    b: u64,
    words: u64,
}

impl Default for WordHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl WordHasher {
    pub fn new() -> Self {
        WordHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
            words: 0,
        }
    }

    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        let m = avalanche(w);
        self.a = (self.a.rotate_left(23) ^ m).wrapping_mul(LANE_A);
        self.b = self.b.rotate_left(41).wrapping_add(m).wrapping_mul(LANE_B);
        self.words += 1;
    }

    /// A length-prefixed `u32` sequence, packed two per word.
    pub fn write_u32s<I>(&mut self, vs: I)
    where
        I: IntoIterator<Item = u32>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut vs = vs.into_iter();
        self.write_u64(vs.len() as u64);
        while let Some(lo) = vs.next() {
            let hi = vs.next().map_or(0, |v| (v as u64) << 32);
            self.write_u64(lo as u64 | hi);
        }
    }

    /// A length-prefixed string, packed eight bytes per word.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    pub fn finish(&self) -> ContentHash {
        let a = avalanche(self.a ^ self.words);
        let b = avalanche(self.b.wrapping_add(self.words.rotate_left(32)));
        ContentHash((a as u128) << 64 | b as u128)
    }
}

/// Fingerprints any serializable value via its canonical JSON byte
/// form. The serde shim's derive emits fields in declaration order
/// with no whitespace, so this is deterministic across processes.
pub fn fingerprint_serialized<T: Serialize>(value: &T) -> ContentHash {
    let mut buf = String::new();
    value.serialize_json(&mut buf);
    fingerprint_str(&buf)
}

/// Fingerprints a raw string (length-prefixed).
pub fn fingerprint_str(s: &str) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write_str(s);
    h.finish()
}

/// The canonical fingerprint of a whole program: its serialized IR.
/// Captures semantic identity — editing a constant changes it (the
/// trace must re-run), while re-compiling identical source does not.
pub fn fingerprint_program(p: &Program) -> ContentHash {
    fingerprint_serialized(p)
}

/// The canonical fingerprint of one lowered function.
pub fn fingerprint_function(f: &Function) -> ContentHash {
    fingerprint_serialized(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let h = fingerprint_str("hello");
        let parsed = ContentHash::from_hex(&h.to_string()).unwrap();
        assert_eq!(h, parsed);
        assert_eq!(h.to_string().len(), 32);
    }

    #[test]
    fn distinct_inputs_distinct_hashes() {
        assert_ne!(fingerprint_str("a"), fingerprint_str("b"));
        assert_ne!(fingerprint_str(""), fingerprint_str("\0"));
        let mut h1 = ContentHasher::new();
        h1.write_str("ab");
        h1.write_str("c");
        let mut h2 = ContentHasher::new();
        h2.write_str("a");
        h2.write_str("bc");
        assert_ne!(h1.finish(), h2.finish());
    }

    #[test]
    fn combine_is_order_dependent() {
        let a = fingerprint_str("a");
        let b = fingerprint_str("b");
        assert_ne!(a.combine(b), b.combine(a));
        assert_eq!(a.combine(b), a.combine(b));
    }

    fn words(ws: &[u64]) -> ContentHash {
        let mut h = WordHasher::new();
        for &w in ws {
            h.write_u64(w);
        }
        h.finish()
    }

    #[test]
    fn word_hasher_sees_every_bit_and_the_order() {
        let base = words(&[1, 2, 3]);
        assert_eq!(base, words(&[1, 2, 3]));
        assert_ne!(base, words(&[2, 1, 3]), "order");
        assert_ne!(base, words(&[1, 2, 3, 0]), "length");
        // Word-wise FNV cancels a bit-63 flip in two words; the
        // avalanche mix must not.
        let top = 1u64 << 63;
        assert_ne!(base, words(&[1 ^ top, 2 ^ top, 3]));
        for bit in 0..64 {
            assert_ne!(base, words(&[1, 2 ^ (1 << bit), 3]), "bit {bit}");
        }
    }

    #[test]
    fn word_hasher_sequences_are_length_prefixed() {
        let hash = |f: &dyn Fn(&mut WordHasher)| {
            let mut h = WordHasher::new();
            f(&mut h);
            h.finish()
        };
        assert_ne!(
            hash(&|h| {
                h.write_str("ab");
                h.write_str("c")
            }),
            hash(&|h| {
                h.write_str("a");
                h.write_str("bc")
            })
        );
        assert_ne!(
            hash(&|h| h.write_u32s([1, 2, 3])),
            hash(&|h| h.write_u32s([1, 2, 3, 0]))
        );
        assert_ne!(hash(&|h| h.write_u32s([])), hash(&|h| h.write_u32s([0])));
    }

    #[test]
    fn word_hasher_output_bits_are_mixed() {
        // Both halves take all eight residues mod 8 over a handful of
        // inputs — unlike a fold of two FNV lanes over the same bytes.
        let (mut hi, mut lo) = ([false; 8], [false; 8]);
        for i in 0..64u64 {
            let h = words(&[i]).0;
            hi[((h >> 64) % 8) as usize] = true;
            lo[(h % 8) as usize] = true;
        }
        assert!(hi.iter().all(|&s| s) && lo.iter().all(|&s| s));
    }

    #[test]
    fn float_bits_matter() {
        let mut h1 = ContentHasher::new();
        h1.write_f64(0.0);
        let mut h2 = ContentHasher::new();
        h2.write_f64(-0.0);
        assert_ne!(h1.finish(), h2.finish());
    }
}
