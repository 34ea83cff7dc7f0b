//! A stable, dependency-free 128-bit fingerprint hasher.
//!
//! [`std::hash::Hasher`] makes no stability promises across Rust releases
//! (and `DefaultHasher` is explicitly randomized per process in spirit), so
//! anything persisted — golden files, cross-run caches — needs its own
//! hash. [`FingerprintBuilder`] is FNV-1a widened to 128 bits: simple,
//! fast for the short byte streams a configuration flattens to, and with
//! 128 bits of state collision-resistant enough that two distinct
//! configurations colliding is not a practical concern (birthday bound
//! ~2^64 configurations).
//!
//! Streams are *framed*: every value is written with a type tag and, for
//! variable-length data, a length prefix, so `("ab", "c")` and
//! `("a", "bc")` cannot collide structurally. Builders are seeded with a
//! domain string, so fingerprints from different domains (machine configs,
//! pipelines, scenarios) never compare equal by accident.

use std::fmt;

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
const FNV64_PRIME: u64 = 0x00000100000001b3;

/// FNV-1a-64 over a raw byte slice: a stable 64-bit digest of bytes that
/// already carry their own structure (tests pin exported telemetry with
/// it). Unlike [`FingerprintBuilder`] this is not an identity hash, so no
/// framing and no domain seed. The on-disk result store checksums its
/// records word by word instead (`reach_bench::diskcache::record_checksum`).
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut state = FNV64_OFFSET;
    for &byte in bytes {
        state ^= u64::from(byte);
        state = state.wrapping_mul(FNV64_PRIME);
    }
    state
}

/// A 128-bit stable hash value.
///
/// Renders as 32 lowercase hex digits; parseable back via
/// [`Fingerprint::parse`] so golden files round-trip.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Parses the 32-hex-digit form produced by `Display`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({:032x})", self.0)
    }
}

/// Incremental FNV-1a-128 over a framed byte stream.
#[derive(Clone, Debug)]
pub struct FingerprintBuilder {
    state: u128,
}

impl FingerprintBuilder {
    /// A builder seeded with `domain`, which separates unrelated
    /// fingerprint namespaces (and doubles as a version tag: bump the
    /// domain string when the encoding changes incompatibly).
    #[must_use]
    pub fn new(domain: &str) -> Self {
        let mut b = FingerprintBuilder {
            state: FNV128_OFFSET,
        };
        b.write_str(domain);
        b
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u128::from(byte);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Writes raw bytes, length-prefixed.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.absorb(&[0x01]);
        self.absorb(&(bytes.len() as u64).to_le_bytes());
        self.absorb(bytes);
    }

    /// Writes a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.absorb(&[0x02]);
        self.absorb(&(s.len() as u64).to_le_bytes());
        self.absorb(s.as_bytes());
    }

    /// Writes an unsigned integer.
    pub fn write_u64(&mut self, v: u64) {
        self.absorb(&[0x03]);
        self.absorb(&v.to_le_bytes());
    }

    /// Writes a `usize` (as 64-bit, so 32- and 64-bit hosts agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes any `Debug`-rendered value. Derived `Debug` output lists
    /// every field of a struct deterministically, which makes this the
    /// self-maintaining way to cover "every knob" of a plain-data config
    /// type: a field added later flows into the fingerprint without anyone
    /// remembering to extend a hand-written encoder. Not suitable for
    /// types whose `Debug` elides fields or iterates unordered containers.
    pub fn write_debug<T: fmt::Debug>(&mut self, v: &T) {
        self.absorb(&[0x06]);
        self.write_str(&format!("{v:?}"));
    }

    /// Finishes the stream and returns the fingerprint.
    #[must_use]
    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(f: impl FnOnce(&mut FingerprintBuilder)) -> Fingerprint {
        let mut b = FingerprintBuilder::new("test");
        f(&mut b);
        b.finish()
    }

    #[test]
    fn stable_across_calls() {
        let a = fp(|b| {
            b.write_str("hello");
            b.write_u64(42);
        });
        let b = fp(|b| {
            b.write_str("hello");
            b.write_u64(42);
        });
        assert_eq!(a, b);
    }

    #[test]
    fn known_value_is_pinned() {
        // Pins the encoding itself: if this changes, every persisted
        // fingerprint (golden files, cross-version caches) is invalidated
        // and the domain strings must be bumped.
        let v = fp(|b| b.write_u64(1)).to_string();
        assert_eq!(v, "0c27e14cae5e34ae9f726d599c36e257");
    }

    #[test]
    fn framing_prevents_concatenation_collisions() {
        let ab_c = fp(|b| {
            b.write_str("ab");
            b.write_str("c");
        });
        let a_bc = fp(|b| {
            b.write_str("a");
            b.write_str("bc");
        });
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn types_are_tagged() {
        assert_ne!(
            fp(|b| b.write_u64(1)),
            fp(|b| b.write_bytes(&1u64.to_le_bytes()))
        );
        assert_ne!(fp(|b| b.write_str("1")), fp(|b| b.write_bytes(b"1")));
    }

    #[test]
    fn domains_separate_namespaces() {
        let a = FingerprintBuilder::new("domain-a").finish();
        let b = FingerprintBuilder::new("domain-b").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn usize_is_written_as_u64() {
        assert_eq!(fp(|b| b.write_usize(42)), fp(|b| b.write_u64(42)));
        assert_ne!(fp(|b| b.write_usize(42)), fp(|b| b.write_usize(43)));
    }

    #[test]
    fn debug_write_distinguishes_floats() {
        assert_ne!(
            fp(|b| b.write_debug(&0.0f64)),
            fp(|b| b.write_debug(&-0.0f64))
        );
        assert_ne!(
            fp(|b| b.write_debug(&0.74f64)),
            fp(|b| b.write_debug(&0.75f64))
        );
    }

    #[test]
    fn display_round_trips() {
        let v = fp(|b| b.write_str("round-trip"));
        assert_eq!(Fingerprint::parse(&v.to_string()), Some(v));
        assert_eq!(v.to_string().len(), 32);
        assert!(Fingerprint::parse("xyz").is_none());
    }

    #[test]
    fn checksum64_is_pinned_and_sensitive() {
        // Pinned value: the on-disk cache format depends on this exact
        // function; a change here must bump the store magic.
        assert_eq!(checksum64(b""), 0xcbf29ce484222325);
        assert_eq!(checksum64(b"reach"), checksum64(b"reach"));
        assert_ne!(checksum64(b"reach"), checksum64(b"reacH"));
        // Single-bit flips anywhere in a longer payload are caught.
        let payload: Vec<u8> = (0..=255u8).collect();
        let base = checksum64(&payload);
        let mut flipped = payload.clone();
        flipped[100] ^= 0x01;
        assert_ne!(checksum64(&flipped), base);
    }

    #[test]
    fn debug_write_covers_struct_fields() {
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Knobs {
            a: u32,
            b: f64,
        }
        let x = fp(|b| b.write_debug(&Knobs { a: 1, b: 2.0 }));
        let y = fp(|b| b.write_debug(&Knobs { a: 1, b: 2.5 }));
        assert_ne!(x, y);
    }
}
