//! Object identities: UUIDs and versioned node ids.
//!
//! Every PASS object (file, process, pipe) gets a UUID at creation; each
//! *version* of an object is a distinct node in the provenance DAG,
//! identified by `uuid_version` — the exact item-name scheme the paper's
//! P2/P3 use in SimpleDB (§4.3.2: `ItemName=uuid1_2`).

use std::fmt;
use std::str::FromStr;

/// A 128-bit object identifier.
///
/// Generated from the observer's seeded RNG so runs are reproducible; the
/// textual form is 32 hex digits.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uuid(pub u128);

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut hex = [0; 32];
        f.write_str(self.hex(&mut hex))
    }
}

impl fmt::Debug for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uuid({:032x})", self.0)
    }
}

impl FromStr for Uuid {
    type Err = ParseIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 32 {
            return Err(ParseIdError(format!(
                "uuid must be 32 hex digits, got '{s}'"
            )));
        }
        u128::from_str_radix(s, 16)
            .map(Uuid)
            .map_err(|_| ParseIdError(format!("invalid uuid '{s}'")))
    }
}

impl Uuid {
    /// Writes the 32 lowercase hex digits into `buf` and returns them.
    fn hex(self, buf: &mut [u8; 32]) -> &str {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut v = self.0;
        for d in buf.iter_mut().rev() {
            *d = DIGITS[(v & 0xf) as usize];
            v >>= 4;
        }
        std::str::from_utf8(buf).expect("hex digits are ASCII")
    }
}

/// The longest text of a [`PNodeId`]: 32 hex digits, `_`, and the ten
/// digits of `u32::MAX`.
pub(crate) const ID_TEXT_MAX: usize = 43;

/// A specific version of an object: one node of the provenance DAG.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PNodeId {
    /// The object's UUID.
    pub uuid: Uuid,
    /// The version, starting at 1.
    pub version: u32,
}

impl PNodeId {
    /// First version of an object.
    pub fn initial(uuid: Uuid) -> PNodeId {
        PNodeId { uuid, version: 1 }
    }

    /// The next version of the same object.
    pub fn next(self) -> PNodeId {
        PNodeId {
            uuid: self.uuid,
            version: self.version + 1,
        }
    }

    /// Writes `uuid_version` — what `Display` shows — into `buf` and
    /// returns it, so encoders can append an id without a formatter.
    pub(crate) fn text(self, buf: &mut [u8; ID_TEXT_MAX]) -> &str {
        let (hex, rest) = buf.split_at_mut(32);
        self.uuid.hex(hex.try_into().expect("32 bytes"));
        rest[0] = b'_';
        // The version's digits, last first, at the buffer's end, then
        // moved up behind the `_`.
        let mut end = ID_TEXT_MAX;
        let mut v = self.version;
        loop {
            end -= 1;
            buf[end] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        let digits = ID_TEXT_MAX - end;
        buf.copy_within(end.., 33);
        std::str::from_utf8(&buf[..33 + digits]).expect("hex, `_` and digits are ASCII")
    }
}

impl fmt::Display for PNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut buf = [0; ID_TEXT_MAX];
        f.write_str(self.text(&mut buf))
    }
}

impl FromStr for PNodeId {
    type Err = ParseIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match canonical(s.as_bytes()) {
            Some(id) => Ok(id),
            None => parse_general(s),
        }
    }
}

/// The parse any text can take: split at the last `_`, then the uuid's
/// and the version's own parsers.
fn parse_general(s: &str) -> Result<PNodeId, ParseIdError> {
    let (u, v) = s
        .rsplit_once('_')
        .ok_or_else(|| ParseIdError(format!("missing '_' in node id '{s}'")))?;
    Ok(PNodeId {
        uuid: u.parse()?,
        version: v
            .parse()
            .map_err(|_| ParseIdError(format!("bad version in '{s}'")))?,
    })
}

/// The form [`PNodeId`]'s `Display` writes — 32 hex digits, `_`, and a
/// version of 1 to 10 ASCII digits that fits in `u32` — parsed eight hex
/// digits at a time. `None` for anything else, which the general parse
/// ([`parse_general`]) then accepts or rejects as it always has; on this
/// form both agree.
fn canonical(s: &[u8]) -> Option<PNodeId> {
    let (hex, digits) = s.split_at_checked(32)?;
    let digits = digits.strip_prefix(b"_")?;
    if digits.is_empty() || digits.len() > 10 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let version = digits
        .iter()
        .fold(0u64, |v, d| v * 10 + u64::from(d - b'0'));
    let mut uuid = 0u128;
    for eight in hex.chunks_exact(8) {
        uuid = (uuid << 32) | u128::from(hex8(eight.try_into().expect("eight bytes"))?);
    }
    Some(PNodeId {
        uuid: Uuid(uuid),
        version: u32::try_from(version).ok()?,
    })
}

/// Eight ASCII hex digits of either case, most significant first, as a
/// number; `None` if any byte is not one.
fn hex8(eight: [u8; 8]) -> Option<u32> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const TOPS: u64 = 0x8080_8080_8080_8080;
    let w = u64::from_le_bytes(eight);
    if w & TOPS != 0 {
        return None;
    }
    // With every byte below 0x80, adding `0x80 - lo` sets a byte's top
    // bit when it is at least `lo`, and adding `0x7f - hi` when it is
    // above `hi`; neither carries into the next byte.
    let within = |w: u64, lo: u8, hi: u8| {
        (w + ONES * u64::from(0x80 - lo)) & !(w + ONES * u64::from(0x7f - hi)) & TOPS
    };
    if within(w, b'0', b'9') | within(w | (ONES * 0x20), b'a', b'f') != TOPS {
        return None;
    }
    // '0'..'9' keep their low nibble; a letter has bit 6 set and a low
    // nibble of 1..6, so adds 9.
    let nibbles = (w & (ONES * 0x0f)) + 9 * ((w >> 6) & ONES);
    // The first digit sits in the lowest byte: fold pairs of bytes, then
    // of 16-bit lanes, then the two halves, low lane first.
    let n = ((nibbles & 0x00ff_00ff_00ff_00ff) << 4) | ((nibbles >> 8) & 0x00ff_00ff_00ff_00ff);
    let n = ((n & 0x0000_ffff_0000_ffff) << 8) | ((n >> 16) & 0x0000_ffff_0000_ffff);
    Some((((n & 0xffff_ffff) << 16) | (n >> 32)) as u32)
}

/// Error parsing a [`Uuid`] or [`PNodeId`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIdError(String);

impl fmt::Display for ParseIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseIdError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_item_name_scheme() {
        let id = PNodeId {
            uuid: Uuid(0xabc),
            version: 2,
        };
        assert_eq!(id.to_string(), "00000000000000000000000000000abc_2");
    }

    #[test]
    fn roundtrip_through_text() {
        let id = PNodeId {
            uuid: Uuid(u128::MAX - 5),
            version: 17,
        };
        let parsed: PNodeId = id.to_string().parse().unwrap();
        assert_eq!(parsed, id);
        assert_eq!(
            canonical(id.to_string().as_bytes()),
            Some(id),
            "the fast path"
        );
    }

    #[test]
    fn next_increments_version_only() {
        let id = PNodeId::initial(Uuid(9));
        let n = id.next();
        assert_eq!(n.uuid, id.uuid);
        assert_eq!(n.version, 2);
    }

    #[test]
    fn hex8_reads_every_digit_of_either_case() {
        assert_eq!(hex8(*b"12345678"), Some(0x1234_5678));
        assert_eq!(hex8(*b"abcdefAB"), Some(0xabcd_efab));
        assert_eq!(hex8(*b"0000000f"), Some(0xf));
        for bad in [
            *b"1234567g",
            *b"/0000000",
            *b":0000000",
            *b"@0000000",
            *b"G0000000",
            *b"`0000000",
            *b"0000000 ",
        ] {
            assert_eq!(hex8(bad), None, "{:?}", std::str::from_utf8(&bad));
        }
        for c in 0..=u8::MAX {
            let mut eight = *b"00000000";
            eight[3] = c;
            let want = (c as char).to_digit(16).map(|d| d << 16);
            assert_eq!(hex8(eight), want, "byte {c:#x}");
        }
    }

    use proptest::prelude::*;

    /// Node ids, near-misses of the canonical form, and noise.
    fn id_text() -> impl Strategy<Value = String> {
        const PIECES: [&str; 16] = [
            "0",
            "9",
            "a",
            "f",
            "A",
            "F",
            "g",
            "_",
            "+",
            "-",
            " ",
            "\u{e9}",
            "4294967295",
            "4294967296",
            "0000000000",
            "\u{4e2d}",
        ];
        (
            any::<u128>(),
            any::<u32>(),
            0u8..12,
            proptest::collection::vec((0..PIECES.len(), 0u8..40), 0..3),
        )
            .prop_map(|(uuid, version, shape, edits)| {
                let hex = format!("{uuid:032x}");
                let mut s = match shape {
                    0 => format!("{}_{version}", hex.to_uppercase()),
                    1 => format!("{hex}_+{version}"),
                    2 => format!("{}_{version}", &hex[1..]),
                    3 => format!("{hex}0_{version}"),
                    4 => format!("{hex}__{version}"),
                    5 => format!("{hex}_4294967296"),
                    6 => format!("{hex}_"),
                    7 => format!("+{}_{version}", &hex[1..]),
                    _ => format!("{hex}_{version}"),
                };
                for (piece, at) in edits {
                    let at = usize::from(at).min(s.len());
                    if s.is_char_boundary(at) {
                        s.insert_str(at, PIECES[piece]);
                    }
                }
                s
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The fast path never changes an answer: every string parses to
        /// the same id, or fails with the same message, as without it.
        #[test]
        fn parse_matches_the_general_path(s in id_text()) {
            prop_assert_eq!(s.parse::<PNodeId>(), parse_general(&s), "{:?}", s);
        }

        /// The table-hex `Display`s write what the formatter's `{:032x}`
        /// and `{}` did, byte for byte.
        #[test]
        fn display_matches_the_formatter(uuid in any::<u128>(), version in any::<u32>()) {
            formats_like_the_formatter(uuid, version)?;
        }
    }

    fn formats_like_the_formatter(uuid: u128, version: u32) -> Result<(), TestCaseError> {
        let id = PNodeId {
            uuid: Uuid(uuid),
            version,
        };
        prop_assert_eq!(Uuid(uuid).to_string(), format!("{uuid:032x}"));
        prop_assert_eq!(id.to_string(), format!("{uuid:032x}_{version}"));
        let mut buf = [0; ID_TEXT_MAX];
        prop_assert_eq!(id.text(&mut buf), format!("{uuid:032x}_{version}"));
        Ok(())
    }

    #[test]
    fn display_matches_the_formatter_at_the_edges() {
        for uuid in [0, 1, 0xf, 1 << 64, u128::MAX - 1, u128::MAX] {
            for version in [0, 1, 9, 10, 99, 100, u32::MAX - 1, u32::MAX] {
                formats_like_the_formatter(uuid, version).unwrap();
            }
        }
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!("nounderscorehere".parse::<PNodeId>().is_err());
        assert!("zz_1".parse::<PNodeId>().is_err());
        assert!(Uuid::from_str("short").is_err());
    }
}
