//! Wire encoding of provenance records.
//!
//! P1 stores provenance as S3 objects and P3 ships it through 8 KB SQS
//! messages; both need a byte encoding that supports **append** (P1 appends
//! new records to an existing provenance object) and **chunking at record
//! boundaries** (P3 packs whole records into messages). A line-oriented
//! text format with escaping gives both, stays debuggable, and costs no
//! extra dependencies.
//!
//! Format, one record per line:
//!
//! ```text
//! <subject>\t<attr>\t<kind>\t<value>\n      kind: t = text, x = xref
//! ```

use std::borrow::Cow;

use bytes::Bytes;

use crate::id::PNodeId;
use crate::model::{Attr, AttrValue, ProvenanceRecord};

/// Error decoding a provenance byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "provenance wire format error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            // A bare carriage return before the newline terminator would
            // be eaten by line splitting (CRLF handling) on decode.
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

/// Undoes [`escape_into`] on one field of line `line`. Text between
/// escapes is copied as whole runs (`str::find` is memchr-backed), and a
/// field with no `\` is returned borrowed.
fn unescape(s: &str, line: usize) -> Result<Cow<'_, str>, WireError> {
    if !s.contains('\\') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let mut tail = rest[at + 1..].chars();
        out.push(match tail.next() {
            Some('\\') => '\\',
            Some('t') => '\t',
            Some('n') => '\n',
            Some('r') => '\r',
            other => return Err(WireError(format!("line {line}: bad escape '\\{other:?}'"))),
        });
        rest = tail.as_str();
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// Encodes one record as a line (with trailing newline).
pub fn encode_record(record: &ProvenanceRecord) -> String {
    let mut line = String::with_capacity(record.wire_len() + 8);
    line.push_str(&record.subject.to_string());
    line.push('\t');
    escape_into(record.attr.as_str(), &mut line);
    line.push('\t');
    match &record.value {
        AttrValue::Text(s) => {
            line.push('t');
            line.push('\t');
            escape_into(s, &mut line);
        }
        AttrValue::Xref(id) => {
            line.push('x');
            line.push('\t');
            line.push_str(&id.to_string());
        }
    }
    line.push('\n');
    line
}

/// Encodes a batch of records.
pub fn encode(records: &[ProvenanceRecord]) -> Bytes {
    let mut out = String::new();
    for r in records {
        out.push_str(&encode_record(r));
    }
    Bytes::from(out)
}

/// Decodes a batch previously produced by [`encode`] (or by concatenating
/// encoded batches — the format is append-friendly).
///
/// # Errors
///
/// Returns [`WireError`] on malformed lines.
pub fn decode(bytes: &[u8]) -> Result<Vec<ProvenanceRecord>, WireError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| WireError(format!("invalid utf-8 at byte {}", e.valid_up_to())))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut parts = line.splitn(4, '\t');
        let subject: PNodeId = parts
            .next()
            .ok_or_else(|| WireError(format!("line {i}: missing subject")))?
            .parse()
            .map_err(|e| WireError(format!("line {i}: {e}")))?;
        let attr = Attr::from_name(&unescape(
            parts
                .next()
                .ok_or_else(|| WireError(format!("line {i}: missing attr")))?,
            i,
        )?);
        let kind = parts
            .next()
            .ok_or_else(|| WireError(format!("line {i}: missing kind")))?;
        let raw = parts
            .next()
            .ok_or_else(|| WireError(format!("line {i}: missing value")))?;
        let value = match kind {
            "t" => AttrValue::Text(unescape(raw, i)?.into_owned()),
            "x" => AttrValue::Xref(
                raw.parse()
                    .map_err(|e| WireError(format!("line {i}: {e}")))?,
            ),
            other => return Err(WireError(format!("line {i}: unknown kind '{other}'"))),
        };
        out.push(ProvenanceRecord {
            subject,
            attr,
            value,
        });
    }
    Ok(out)
}

/// Splits records into chunks whose encoded size stays within `limit`
/// bytes, never splitting a record (P3's 8 KB SQS framing).
///
/// # Panics
///
/// Panics if a single record exceeds `limit` — callers must spill oversized
/// values before chunking (the protocols spill >1 KB values into S3, so by
/// construction records stay far below 8 KB).
pub fn chunk(records: &[ProvenanceRecord], limit: usize) -> Vec<Bytes> {
    let mut chunks = Vec::new();
    let mut cur = String::new();
    for r in records {
        let line = encode_record(r);
        assert!(
            line.len() <= limit,
            "single provenance record of {} bytes exceeds chunk limit {limit}",
            line.len()
        );
        if !cur.is_empty() && cur.len() + line.len() > limit {
            chunks.push(Bytes::from(std::mem::take(&mut cur)));
        }
        cur.push_str(&line);
    }
    if !cur.is_empty() {
        chunks.push(Bytes::from(cur));
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Uuid;

    fn nid(n: u128, v: u32) -> PNodeId {
        PNodeId {
            uuid: Uuid(n),
            version: v,
        }
    }

    fn sample() -> Vec<ProvenanceRecord> {
        vec![
            ProvenanceRecord::new(nid(1, 1), Attr::Type, "file"),
            ProvenanceRecord::new(nid(1, 1), Attr::Name, "/data/out.txt"),
            ProvenanceRecord::new(nid(1, 1), Attr::Input, nid(2, 3)),
            ProvenanceRecord::new(nid(2, 3), Attr::Argv, "blast -db nr\t-q 'x'\nend"),
            ProvenanceRecord::new(nid(2, 3), Attr::Custom("mime".into()), "tab\\here"),
        ]
    }

    #[test]
    fn roundtrip() {
        let records = sample();
        let encoded = encode(&records);
        let decoded = decode(&encoded).unwrap();
        assert_eq!(decoded, records);
    }

    #[test]
    fn append_then_decode() {
        // P1 appends new provenance to an existing object via GET+concat+PUT.
        let a = encode(&sample()[..2]);
        let b = encode(&sample()[2..]);
        let mut joined = a.to_vec();
        joined.extend_from_slice(&b);
        assert_eq!(decode(&joined).unwrap(), sample());
    }

    #[test]
    fn chunking_respects_limit_and_preserves_records() {
        let records: Vec<_> = (0..200)
            .map(|i| ProvenanceRecord::new(nid(i, 1), Attr::Name, format!("/f/{i}")))
            .collect();
        let chunks = chunk(&records, 1024);
        assert!(chunks.len() > 5);
        let mut reassembled = Vec::new();
        for c in &chunks {
            assert!(c.len() <= 1024);
            reassembled.extend(decode(c).unwrap());
        }
        assert_eq!(reassembled, records);
    }

    #[test]
    fn chunks_in_any_order_reassemble_as_a_set() {
        // P3's commit daemon may see WAL messages out of order; record
        // multisets must survive reordering.
        let records = sample();
        let mut chunks = chunk(&records, 128);
        chunks.reverse();
        let mut got: Vec<_> = chunks.iter().flat_map(|c| decode(c).unwrap()).collect();
        let mut want = records;
        got.sort_by_key(|r| format!("{r}"));
        want.sort_by_key(|r| format!("{r}"));
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "exceeds chunk limit")]
    fn oversized_record_panics() {
        let r = ProvenanceRecord::new(nid(1, 1), Attr::Env, "e".repeat(9000));
        let _ = chunk(&[r], 8192);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(b"not a record\n").is_err());
        assert!(decode(&[0xff, 0xfe]).is_err());
        let truncated = "00000000000000000000000000000001_1\tname\tt";
        assert!(decode(truncated.as_bytes()).is_err());
    }

    #[test]
    fn empty_input_decodes_empty() {
        assert!(decode(b"").unwrap().is_empty());
    }

    #[test]
    fn bad_escapes_name_their_line() {
        let good = encode(&sample());
        let subject = "00000000000000000000000000000001_1";
        for (bad, escape) in [
            ("a\\qb", "'\\Some('q')'"),
            ("tail\\", "'\\None'"),
            ("\\\u{e9}", "'\\Some('\u{e9}')'"),
        ] {
            let mut bytes = good.to_vec();
            bytes.extend_from_slice(format!("{subject}\tname\tt\t{bad}\n").as_bytes());
            let err = decode(&bytes).unwrap_err();
            assert_eq!(err.0, format!("line 5: bad escape {escape}"));
            assert_eq!(Err(err), reference::decode(&bytes));
        }
        let attr = format!("{subject}\tna\\me\tt\tv\n");
        assert_eq!(
            decode(attr.as_bytes()).unwrap_err().0,
            "line 0: bad escape '\\Some('m')'"
        );
    }

    /// The char-at-a-time decoder [`decode`] replaced, kept as the
    /// differential test's reference (its bad-escape error names the
    /// line, as the new one's does).
    mod reference {
        use super::*;

        fn unescape(s: &str, line: usize) -> Result<String, WireError> {
            let mut out = String::with_capacity(s.len());
            let mut chars = s.chars();
            while let Some(c) = chars.next() {
                if c != '\\' {
                    out.push(c);
                    continue;
                }
                match chars.next() {
                    Some('\\') => out.push('\\'),
                    Some('t') => out.push('\t'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    other => {
                        return Err(WireError(format!("line {line}: bad escape '\\{other:?}'")))
                    }
                }
            }
            Ok(out)
        }

        pub(super) fn decode(bytes: &[u8]) -> Result<Vec<ProvenanceRecord>, WireError> {
            let text = std::str::from_utf8(bytes)
                .map_err(|e| WireError(format!("invalid utf-8 at byte {}", e.valid_up_to())))?;
            let mut out = Vec::new();
            for (i, line) in text.lines().enumerate() {
                if line.is_empty() {
                    continue;
                }
                let mut parts = line.splitn(4, '\t');
                let subject: PNodeId = parts
                    .next()
                    .ok_or_else(|| WireError(format!("line {i}: missing subject")))?
                    .parse()
                    .map_err(|e| WireError(format!("line {i}: {e}")))?;
                let attr = Attr::from_name(&unescape(
                    parts
                        .next()
                        .ok_or_else(|| WireError(format!("line {i}: missing attr")))?,
                    i,
                )?);
                let kind = parts
                    .next()
                    .ok_or_else(|| WireError(format!("line {i}: missing kind")))?;
                let raw = parts
                    .next()
                    .ok_or_else(|| WireError(format!("line {i}: missing value")))?;
                let value = match kind {
                    "t" => AttrValue::Text(unescape(raw, i)?),
                    "x" => AttrValue::Xref(
                        raw.parse()
                            .map_err(|e| WireError(format!("line {i}: {e}")))?,
                    ),
                    other => return Err(WireError(format!("line {i}: unknown kind '{other}'"))),
                };
                out.push(ProvenanceRecord {
                    subject,
                    attr,
                    value,
                });
            }
            Ok(out)
        }
    }

    use proptest::prelude::*;

    /// Text drawn from everything the escaper rewrites, the letters of
    /// the escapes themselves, and one- to four-byte UTF-8.
    const CHARS: [char; 14] = [
        'a',
        'z',
        '0',
        '_',
        ' ',
        '\t',
        '\n',
        '\r',
        '\\',
        't',
        'n',
        '\u{e9}',
        '\u{4e2d}',
        '\u{1f600}',
    ];
    /// What a corruption writes over a byte; one past the end deletes it.
    const CORRUPT: [u8; 10] = [
        b'\\', b'\t', b'\n', b'\r', b'x', b't', b'_', 0xff, 0xc3, 0x80,
    ];

    fn text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..CHARS.len(), 0..12)
            .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
    }

    fn record() -> impl Strategy<Value = ProvenanceRecord> {
        (0u8..8, text(), text(), (0u8..4, 0u8..4)).prop_map(|(kind, name, value, (s, x))| {
            let attr = match kind {
                0 => Attr::Type,
                1 => Attr::Name,
                2 => Attr::Env,
                _ => Attr::Custom(name),
            };
            let value = match kind {
                7 => AttrValue::Xref(nid(u128::from(x) + 1, u32::from(x))),
                _ => AttrValue::Text(value),
            };
            ProvenanceRecord {
                subject: nid(u128::from(s) + 1, 1),
                attr,
                value,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The run-copying decoder returns exactly what the char-at-a-time
        /// one does — the same records, or the same error — on encoded
        /// batches and on random corruptions of them.
        #[test]
        fn decode_matches_the_char_at_a_time_reference(
            records in proptest::collection::vec(record(), 0..6),
            corruptions in proptest::collection::vec((any::<u16>(), 0..CORRUPT.len() + 1), 0..4),
        ) {
            let mut bytes = encode(&records).to_vec();
            prop_assert!(decode(&bytes).is_ok());
            prop_assert_eq!(decode(&bytes), reference::decode(&bytes));
            for (at, b) in corruptions {
                if bytes.is_empty() {
                    break;
                }
                let at = usize::from(at) % bytes.len();
                match CORRUPT.get(b) {
                    Some(&b) => bytes[at] = b,
                    None => {
                        bytes.remove(at);
                    }
                }
                prop_assert_eq!(decode(&bytes), reference::decode(&bytes));
            }
        }
    }
}
