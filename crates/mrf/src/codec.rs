//! The bits-safe JSON codec every persisted or transmitted format in the
//! workspace is written with: checkpoints (`mogs-ckpt`), fleet specs and
//! wire messages (`mogs-fleet`), and schedule certificates
//! (`mogs-audit`).
//!
//! # The hex/bits rule
//!
//! The vendored serde routes every JSON number through `f64` (see
//! `third_party/serde/src/lib.rs`), which silently corrupts integers
//! above 2⁵³ and renders floats in decimal. Resuming or sharding a chain
//! without changing a single sample needs seeds, fingerprints and
//! energies to cross JSON exactly, so two value classes never travel as
//! JSON numbers:
//!
//! * a `u64` travels as a JSON string of hex digits. [`write_hex_u64`]
//!   always emits exactly 16 lowercase digits; [`read_hex_u64`] accepts
//!   1–16 ASCII hex digits of either case and nothing else — no sign, no
//!   `0x` prefix, no whitespace, no empty string;
//! * an `f64` travels as its IEEE-754 bit pattern under the `u64` rule
//!   ([`F64Bits`]), so negative zero, infinities and NaN payloads
//!   round-trip bit-exactly.
//!
//! Only provably small integers (dimensions, counts, indices) ride as
//! plain JSON numbers.
//!
//! # Objects
//!
//! [`ObjectWriter`] emits `{"key":value,...}` with no whitespace, keys
//! in call order. [`read_object`] is the one keyed-object read loop:
//! keys may come in any order, and a key the caller does not claim is
//! skipped, so a reader tolerates fields added by a later writer.
//! [`required`] turns a field that never arrived into a parse error
//! naming it.

use serde::de::{self, Parser};
use serde::{Deserialize, Serialize};

const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes` — the checkpoint checksum, and (fed
/// through [`fnv1a_extend`]) the topology fingerprint.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

/// Continues an FNV-1a hash over more bytes: `fnv1a_extend(fnv1a(a), b)`
/// equals the hash of `a` followed by `b`.
#[must_use]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV1A_PRIME);
    }
    hash
}

/// The value of one ASCII hex digit (either case), or `None`.
#[must_use]
pub fn hex_digit(byte: u8) -> Option<u8> {
    match byte {
        b'0'..=b'9' => Some(byte - b'0'),
        b'a'..=b'f' => Some(byte - b'a' + 10),
        b'A'..=b'F' => Some(byte - b'A' + 10),
        _ => None,
    }
}

/// Parses 1–16 ASCII hex digits as a `u64`; anything else (a sign, a
/// prefix, a 17th digit, an empty string) is `None`.
#[must_use]
pub fn parse_hex(text: &str) -> Option<u64> {
    if text.is_empty() || text.len() > 16 {
        return None;
    }
    text.bytes()
        .try_fold(0u64, |acc, b| Some((acc << 4) | u64::from(hex_digit(b)?)))
}

/// Appends `byte` as two lowercase hex digits.
pub fn push_hex_byte(out: &mut String, byte: u8) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.push(char::from(DIGITS[usize::from(byte >> 4)]));
    out.push(char::from(DIGITS[usize::from(byte & 0xf)]));
}

/// Appends `value` as a quoted string of exactly 16 lowercase hex digits.
pub fn write_hex_u64(out: &mut String, value: u64) {
    out.push('"');
    for byte in value.to_be_bytes() {
        push_hex_byte(out, byte);
    }
    out.push('"');
}

/// Reads a `u64` written under the hex rule (1–16 hex digits in a
/// string).
///
/// # Errors
///
/// A parse error when the next value is not such a string.
pub fn read_hex_u64(parser: &mut Parser<'_>) -> Result<u64, de::Error> {
    let text = parser.parse_string()?;
    parse_hex(&text).ok_or_else(|| parser.error(&format!("expected 1-16 hex digits, got {text:?}")))
}

/// An `f64` under the bits rule: its IEEE-754 bit pattern written and
/// read as a hex `u64`. Use it for scalars, arrays and options alike.
#[derive(Debug, Clone, Copy)]
pub struct F64Bits(pub f64);

impl Serialize for F64Bits {
    fn serialize_json(&self, out: &mut String) {
        write_hex_u64(out, self.0.to_bits());
    }
}

impl Deserialize for F64Bits {
    fn deserialize_json(parser: &mut Parser<'_>) -> Result<Self, de::Error> {
        read_hex_u64(parser).map(|bits| F64Bits(f64::from_bits(bits)))
    }
}

/// Writes one JSON object member by member; [`ObjectWriter::end`]
/// closes it. Keys are written verbatim, so they must be plain
/// identifiers that need no escaping.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object on `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes `"key":` and hands the output to `write` for the value.
    pub fn with(&mut self, key: &str, write: impl FnOnce(&mut String)) -> &mut Self {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        write(self.out);
        self
    }

    /// A member with a serde-encoded value.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        self.with(key, |out| value.serialize_json(out))
    }

    /// A `u64` member under the hex rule.
    pub fn hex_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.with(key, |out| write_hex_u64(out, value))
    }

    /// An `f64` member under the bits rule.
    pub fn f64_bits(&mut self, key: &str, value: f64) -> &mut Self {
        self.field(key, &F64Bits(value))
    }

    /// Closes the object.
    pub fn end(&mut self) {
        self.out.push('}');
    }
}

/// Reads one JSON object, handing each member to `field` as
/// `(parser, key)` with the parser positioned at the value. `field`
/// parses the value and returns `Ok(true)`, or returns `Ok(false)`
/// without touching the parser to have the value skipped.
///
/// # Errors
///
/// The first parse error, from the object syntax or from `field`.
pub fn read_object(
    parser: &mut Parser<'_>,
    mut field: impl FnMut(&mut Parser<'_>, &str) -> Result<bool, de::Error>,
) -> Result<(), de::Error> {
    parser.expect_char('{')?;
    if parser.consume_char('}') {
        return Ok(());
    }
    loop {
        let key = parser.parse_string()?;
        parser.expect_char(':')?;
        if !field(parser, &key)? {
            parser.skip_value()?;
        }
        if !parser.consume_char(',') {
            return parser.expect_char('}');
        }
    }
}

/// Unwraps a field [`read_object`] should have filled, or fails naming
/// it: `"<object> is missing '<key>'"`.
///
/// # Errors
///
/// A parse error at the parser's position when `value` is `None`.
pub fn required<T>(
    parser: &Parser<'_>,
    object: &str,
    key: &str,
    value: Option<T>,
) -> Result<T, de::Error> {
    value.ok_or_else(|| parser.error(&format!("{object} is missing '{key}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_is_pinned() {
        // Values taken from the implementation that wrote every stored
        // checkpoint checksum so far.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"mogs checkpoint payload"), 0x0a2e_ad22_8afe_4035);
        assert_eq!(
            fnv1a_extend(fnv1a(b"mogs checkpoint"), b" payload"),
            fnv1a(b"mogs checkpoint payload")
        );
    }

    #[test]
    fn hex_writer_always_emits_16_lowercase_digits() {
        let mut out = String::new();
        write_hex_u64(&mut out, 0x2a);
        write_hex_u64(&mut out, u64::MAX);
        write_hex_u64(&mut out, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(
            out,
            "\"000000000000002a\"\"ffffffffffffffff\"\"deadbeefcafef00d\""
        );
    }

    #[test]
    fn hex_reader_takes_1_to_16_digits_and_nothing_else() {
        assert_eq!(parse_hex("0"), Some(0));
        assert_eq!(parse_hex("2a"), Some(42));
        assert_eq!(parse_hex("2A"), Some(42));
        assert_eq!(parse_hex("ffffffffffffffff"), Some(u64::MAX));
        assert_eq!(parse_hex("000000000000002a"), Some(42));
        for bad in [
            "",
            "+2a",
            "-1",
            "0x2a",
            " 2a",
            "2a ",
            "g",
            "10000000000000000",
        ] {
            assert_eq!(parse_hex(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn f64_bits_round_trip_every_payload() {
        for value in [
            0.0,
            -0.0,
            0.1 + 0.2,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::NAN,
        ] {
            let out = serde::json::to_string(&F64Bits(value));
            let back: F64Bits = serde::json::from_str(&out).expect("reads back");
            assert_eq!(back.0.to_bits(), value.to_bits());
        }
    }

    #[test]
    fn objects_round_trip_with_unknown_keys_skipped() {
        let mut out = String::new();
        ObjectWriter::new(&mut out)
            .field("n", &3usize)
            .hex_u64("seed", 1 << 60)
            .with("extra", |o| o.push_str("{\"nested\":[1,null]}"))
            .end();
        assert_eq!(
            out,
            "{\"n\":3,\"seed\":\"1000000000000000\",\"extra\":{\"nested\":[1,null]}}"
        );
        let mut parser = Parser::new(&out);
        let (mut n, mut seed) = (None, None);
        read_object(&mut parser, |p, key| {
            match key {
                "n" => n = Some(usize::deserialize_json(p)?),
                "seed" => seed = Some(read_hex_u64(p)?),
                _ => return Ok(false),
            }
            Ok(true)
        })
        .expect("parses");
        parser.expect_end().expect("consumed");
        assert_eq!(required(&parser, "obj", "n", n), Ok(3));
        assert_eq!(required(&parser, "obj", "seed", seed), Ok(1 << 60));
        let missing = required::<u8>(&parser, "obj", "gone", None).expect_err("missing");
        assert!(missing.to_string().contains("obj is missing 'gone'"));
        let mut empty = Parser::new("{}");
        read_object(&mut empty, |_, _| Ok(true)).expect("empty object");
    }
}
