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
//!
//! Decoding is one validating forward pass: [`visit`] checks every byte
//! (UTF-8, four fields, the subject and xref ids, the kind, every escape)
//! and lends each record as a [`RecordRef`] that borrows its attribute
//! name and text from the input. [`decode`] is `visit` plus
//! [`RecordRef::to_owned`], so there is one parser.

use std::borrow::Cow;

use bytes::Bytes;

use crate::id::{PNodeId, ID_TEXT_MAX};
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

/// Appends `s` with its four special bytes escaped, copying each run
/// between them whole. They are ASCII, so every cut is a char boundary.
fn escape_into(s: &str, out: &mut String) {
    let b = s.as_bytes();
    let mut run = 0;
    loop {
        let at = find(b, run, [b'\\', b'\t', b'\n', b'\r']);
        out.push_str(&s[run..at]);
        let Some(&c) = b.get(at) else {
            return;
        };
        out.push_str(match c {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            // A bare carriage return before the newline terminator would
            // be eaten by line splitting (CRLF handling) on decode.
            _ => "\\r",
        });
        run = at + 1;
    }
}

/// One field's text as it lies in the input, escapes and all; [`visit`]
/// has checked every escape in it.
#[derive(Clone, Copy, Debug)]
struct Escaped<'a> {
    raw: &'a str,
    /// Whether `raw` holds a `\`, so that unescaping must copy.
    escaped: bool,
}

impl<'a> Escaped<'a> {
    /// Undoes [`escape_into`]: borrowed when there is no escape, else
    /// the text between escapes is copied in whole runs.
    fn text(self) -> Cow<'a, str> {
        if !self.escaped {
            return Cow::Borrowed(self.raw);
        }
        let mut out = String::with_capacity(self.raw.len());
        let mut rest = self.raw;
        while let Some(at) = rest.find('\\') {
            out.push_str(&rest[..at]);
            out.push(match rest.as_bytes()[at + 1] {
                b'\\' => '\\',
                b't' => '\t',
                b'n' => '\n',
                b'r' => '\r',
                _ => unreachable!("visit checked every escape"),
            });
            rest = &rest[at + 2..];
        }
        out.push_str(rest);
        Cow::Owned(out)
    }
}

#[derive(Clone, Copy, Debug)]
enum ValueRef<'a> {
    Text(Escaped<'a>),
    Xref(PNodeId),
}

/// One record as [`visit`] lends it: the ids parsed, the attribute name
/// and text value borrowed from the input and unescaped on demand.
#[derive(Clone, Copy, Debug)]
pub struct RecordRef<'a> {
    /// The node this record describes.
    pub subject: PNodeId,
    attr: Escaped<'a>,
    value: ValueRef<'a>,
}

impl<'a> RecordRef<'a> {
    /// The attribute name, borrowed unless it holds an escape.
    pub fn attr(self) -> Cow<'a, str> {
        self.attr.text()
    }

    /// The value's text, borrowed unless it holds an escape; an xref is
    /// formatted as `uuid_version`, as [`AttrValue::to_text`] does.
    pub fn text(self) -> Cow<'a, str> {
        match self.value {
            ValueRef::Text(t) => t.text(),
            ValueRef::Xref(id) => Cow::Owned(id.to_string()),
        }
    }

    /// The cross-referenced node, if the value is an edge.
    pub fn xref(self) -> Option<PNodeId> {
        match self.value {
            ValueRef::Xref(id) => Some(id),
            ValueRef::Text(_) => None,
        }
    }

    /// Copies the record out of the input.
    pub fn to_owned(self) -> ProvenanceRecord {
        ProvenanceRecord {
            subject: self.subject,
            attr: Attr::from_name(&self.attr()),
            value: match self.value {
                ValueRef::Text(t) => AttrValue::Text(t.text().into_owned()),
                ValueRef::Xref(id) => AttrValue::Xref(id),
            },
        }
    }
}

/// Appends one record's line (with trailing newline) to `out`.
fn encode_into(record: &ProvenanceRecord, out: &mut String) {
    let mut id = [0; ID_TEXT_MAX];
    out.push_str(record.subject.text(&mut id));
    out.push('\t');
    escape_into(record.attr.as_str(), out);
    match &record.value {
        AttrValue::Text(s) => {
            out.push_str("\tt\t");
            escape_into(s, out);
        }
        AttrValue::Xref(to) => {
            out.push_str("\tx\t");
            out.push_str(to.text(&mut id));
        }
    }
    out.push('\n');
}

/// Room for a record's line: [`ProvenanceRecord::wire_len`] undercounts
/// the separators and a long version by a few bytes.
fn line_room(record: &ProvenanceRecord) -> usize {
    record.wire_len() + 8
}

/// Encodes one record as a line (with trailing newline).
pub fn encode_record(record: &ProvenanceRecord) -> String {
    let mut line = String::with_capacity(line_room(record));
    encode_into(record, &mut line);
    line
}

/// Encodes a batch of records into one buffer, sized once.
pub fn encode(records: &[ProvenanceRecord]) -> Bytes {
    let mut out = String::with_capacity(records.iter().map(line_room).sum());
    for r in records {
        encode_into(r, &mut out);
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
    let mut out = Vec::new();
    visit(bytes, |r| out.push(r.to_owned()))?;
    Ok(out)
}

/// Checks a batch as [`decode`] does and hands `f` each record, in order,
/// borrowed from `bytes`. Lines split at `\n` or `\r\n`, as
/// [`str::lines`] does, and empty lines are skipped. A record that `f`
/// has seen may precede an error later in the batch.
///
/// # Errors
///
/// Returns [`WireError`] on malformed input: the text and line number
/// [`decode`] has always reported.
pub fn visit<'a>(bytes: &'a [u8], mut f: impl FnMut(RecordRef<'a>)) -> Result<(), WireError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| WireError(format!("invalid utf-8 at byte {}", e.valid_up_to())))?;
    let mut at = 0;
    let mut line = 0;
    while at < text.len() {
        let (record, next) = visit_line(text, at, line)?;
        if let Some(r) = record {
            f(r);
        }
        at = next;
        line += 1;
    }
    Ok(())
}

/// Parses the line that starts at byte `start` of `text`, line number
/// `line`: its record (`None` for an empty line) and where the next line
/// starts. Each field is scanned once, and the checks run in the order
/// the fields come.
fn visit_line(
    text: &str,
    start: usize,
    line: usize,
) -> Result<(Option<RecordRef<'_>>, usize), WireError> {
    let b = text.as_bytes();
    let err = |what: String| WireError(format!("line {line}: {what}"));
    if b[start] == b'\n' {
        return Ok((None, start + 1));
    }
    if b[start] == b'\r' && b.get(start + 1) == Some(&b'\n') {
        return Ok((None, start + 2));
    }

    let stop = find(b, start, [b'\t', b'\n']);
    let subject: PNodeId = text[start..field_end(b, start, stop)]
        .parse()
        .map_err(|e| err(format!("{e}")))?;
    if !is_tab(b, stop) {
        return Err(err("missing attr".into()));
    }

    let (attr, stop) = escaped_field(text, stop + 1, true, line)?;
    if !is_tab(b, stop) {
        return Err(err("missing kind".into()));
    }

    let from = stop + 1;
    let stop = find(b, from, [b'\t', b'\n']);
    if !is_tab(b, stop) {
        return Err(err("missing value".into()));
    }
    let (value, stop) = match &text[from..stop] {
        "t" => {
            let (value, stop) = escaped_field(text, stop + 1, false, line)?;
            (ValueRef::Text(value), stop)
        }
        "x" => {
            let from = stop + 1;
            let stop = find(b, from, [b'\n']);
            let id = text[from..field_end(b, from, stop)]
                .parse()
                .map_err(|e| err(format!("{e}")))?;
            (ValueRef::Xref(id), stop)
        }
        other => return Err(err(format!("unknown kind '{other}'"))),
    };
    let record = RecordRef {
        subject,
        attr,
        value,
    };
    Ok((Some(record), stop + 1))
}

fn is_tab(b: &[u8], at: usize) -> bool {
    b.get(at) == Some(&b'\t')
}

/// Where a field that starts at `from` and stops at `stop` (a tab, a
/// newline, or the input's end) ends: before the `\r` of a `\r\n`.
fn field_end(b: &[u8], from: usize, stop: usize) -> usize {
    if stop > from && b.get(stop) == Some(&b'\n') && b[stop - 1] == b'\r' {
        stop - 1
    } else {
        stop
    }
}

/// Scans the escaped field that starts at `from` and stops at a newline,
/// the input's end or, when `tab_stops`, a tab; checks every escape in
/// it. Returns the field and where it stopped.
fn escaped_field(
    text: &str,
    from: usize,
    tab_stops: bool,
    line: usize,
) -> Result<(Escaped<'_>, usize), WireError> {
    let b = text.as_bytes();
    let mut escaped = false;
    let mut at = from;
    let stop = loop {
        at = if tab_stops {
            find(b, at, [b'\t', b'\n', b'\\'])
        } else {
            find(b, at, [b'\n', b'\\'])
        };
        if b.get(at) != Some(&b'\\') {
            break at;
        }
        escaped = true;
        let next = at + 1;
        let ends_field = match b.get(next) {
            None | Some(b'\n') => true,
            Some(b'\t') => tab_stops,
            Some(b'\r') => b.get(next + 1) == Some(&b'\n'),
            Some(_) => false,
        };
        if ends_field || !matches!(b[next], b'\\' | b't' | b'n' | b'r') {
            let other = (!ends_field).then(|| text[next..].chars().next()).flatten();
            return Err(WireError(format!("line {line}: bad escape '\\{other:?}'")));
        }
        at = next + 1;
    };
    let raw = &text[from..field_end(b, from, stop)];
    Ok((Escaped { raw, escaped }, stop))
}

/// The index of the first byte of `b[from..]` that is one of `needles`,
/// or `b.len()`. Compares eight bytes at a time: in `x = word ^ needle`
/// a matching byte is zero, and `(x - 0x01..) & !x & 0x80..` flags the
/// lowest zero byte exactly (only bytes above it can be flagged falsely).
fn find<const N: usize>(b: &[u8], from: usize, needles: [u8; N]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const TOPS: u64 = 0x8080_8080_8080_8080;
    let rest = &b[from..];
    let mut words = rest.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("an eight-byte chunk"));
        let mut hits = 0;
        for n in needles {
            let x = w ^ (ONES * u64::from(n));
            hits |= x.wrapping_sub(ONES) & !x & TOPS;
        }
        if hits != 0 {
            return from + 8 * i + (hits.trailing_zeros() / 8) as usize;
        }
    }
    let tail = words.remainder();
    let tail_at = b.len() - tail.len();
    tail.iter()
        .position(|c| needles.contains(c))
        .map_or(b.len(), |p| tail_at + p)
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

        fn escape_into(s: &str, out: &mut String) {
            for c in s.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '\t' => out.push_str("\\t"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    c => out.push(c),
                }
            }
        }

        /// The char-at-a-time encoder [`encode_record`] replaced, ids
        /// through the formatter.
        pub(super) fn encode_record(record: &ProvenanceRecord) -> String {
            let mut line = String::new();
            line.push_str(&format!(
                "{:032x}_{}",
                record.subject.uuid.0, record.subject.version
            ));
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
                    line.push_str(&format!("{:032x}_{}", id.uuid.0, id.version));
                }
            }
            line.push('\n');
            line
        }

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

    /// `decode`, and `visit` with every record copied out, both agree
    /// with the reference on `bytes`; each lent record's accessors agree
    /// with its copy.
    fn agrees(bytes: &[u8]) -> Result<(), TestCaseError> {
        let want = reference::decode(bytes);
        prop_assert_eq!(decode(bytes), want);
        let mut seen = Vec::new();
        let mut lent = Vec::new();
        let visited = visit(bytes, |r| {
            seen.push(r.to_owned());
            lent.push((r.attr().into_owned(), r.text().into_owned(), r.xref()));
        });
        prop_assert_eq!(visited.map(|()| seen.clone()), want);
        for (r, (attr, text, xref)) in seen.iter().zip(lent) {
            prop_assert_eq!(
                (r.attr.as_str(), r.value.to_text(), r.value.as_xref()),
                (attr.as_str(), text, xref)
            );
        }
        Ok(())
    }

    /// Ends the line holding byte `at` with `\r\n` instead of `\n`.
    fn crlf_at(bytes: &mut Vec<u8>, at: usize) {
        if let Some(nl) = bytes[at..].iter().position(|&c| c == b'\n') {
            bytes.insert(at + nl, b'\r');
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The run-copying decoder returns exactly what the char-at-a-time
        /// one does — the same records, or the same error — on encoded
        /// batches and on random corruptions of them: bytes overwritten or
        /// deleted, then lines ended in `\r\n` and a final `\r` appended.
        /// So does `visit` with every record copied out.
        #[test]
        fn decode_matches_the_char_at_a_time_reference(
            records in proptest::collection::vec(record(), 0..6),
            corruptions in proptest::collection::vec((any::<u16>(), 0..CORRUPT.len() + 1), 0..4),
            endings in proptest::collection::vec((any::<u16>(), any::<bool>()), 0..3),
        ) {
            let mut bytes = encode(&records).to_vec();
            prop_assert!(decode(&bytes).is_ok());
            prop_assert_eq!(decode(&bytes), reference::decode(&bytes));
            agrees(&bytes)?;
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
                agrees(&bytes)?;
            }
            for (at, crlf) in endings {
                match (crlf, bytes.len()) {
                    (true, 0) => continue,
                    (true, len) => crlf_at(&mut bytes, usize::from(at) % len),
                    (false, _) => bytes.push(b'\r'),
                }
                agrees(&bytes)?;
            }
        }
    }

    /// Pieces of text for the encoder: each escaped byte, a `\r\n`, the
    /// escapes' own letters, multi-byte UTF-8, nothing, and a run long
    /// enough to cross the eight-byte scan.
    const PIECES: [&str; 12] = [
        "a",
        "\\",
        "\t",
        "\n",
        "\r",
        "\r\n",
        "t",
        "\u{e9}",
        "\u{4e2d}",
        "\u{1f600}",
        "",
        "0123456789abcdefghij",
    ];

    fn pieces() -> impl Strategy<Value = String> {
        proptest::collection::vec(0..PIECES.len(), 0..24)
            .prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
    }

    /// Records of every attribute shape, with ids over the whole range.
    fn any_record() -> impl Strategy<Value = ProvenanceRecord> {
        (
            (0u8..6, any::<bool>()),
            (pieces(), pieces()),
            (any::<u128>(), any::<u32>()),
            (any::<u128>(), any::<u32>()),
        )
            .prop_map(|((kind, small), (name, value), (s, sv), (x, xv))| {
                // Short versions as well as ten-digit ones.
                let v = |v: u32| if small { v % 12 } else { v };
                let attr = match kind {
                    0 => Attr::Type,
                    1 => Attr::Env,
                    2 => Attr::Input,
                    _ => Attr::Custom(name),
                };
                let value = match kind {
                    2 | 5 => AttrValue::Xref(nid(x, v(xv))),
                    _ => AttrValue::Text(value),
                };
                ProvenanceRecord {
                    subject: nid(s, v(sv)),
                    attr,
                    value,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The run-copying, one-buffer encoder writes exactly the bytes
        /// the char-at-a-time one did, and they decode to the records.
        #[test]
        fn encode_matches_the_char_at_a_time_reference(
            records in proptest::collection::vec(any_record(), 0..8),
        ) {
            let want: String = records.iter().map(reference::encode_record).collect();
            for r in &records {
                prop_assert_eq!(encode_record(r), reference::encode_record(r));
            }
            let encoded = encode(&records);
            prop_assert_eq!(std::str::from_utf8(&encoded).unwrap(), want.as_str());
            prop_assert_eq!(decode(&encoded).unwrap(), records);
        }
    }

    #[test]
    fn encode_escapes_every_special_byte_in_place() {
        let text = "\\\t\n\r\n\u{e9}x\r";
        let r = ProvenanceRecord::new(nid(1, 1), Attr::Custom("a\tb".into()), text);
        assert_eq!(
            encode_record(&r),
            "00000000000000000000000000000001_1\ta\\tb\tt\t\\\\\\t\\n\\r\\n\u{e9}x\\r\n"
        );
        assert_eq!(encode_record(&r), reference::encode_record(&r));
        let empty = ProvenanceRecord::new(nid(1, 1), Attr::Name, "");
        assert_eq!(
            encode_record(&empty),
            "00000000000000000000000000000001_1\tname\tt\t\n"
        );
        assert_eq!(
            decode(&encode(&[r.clone(), empty.clone()])).unwrap(),
            vec![r, empty]
        );
    }

    /// A line ended by `\r\n` loses its `\r`, even after a `\`; a final
    /// `\r` with no newline after it stays in the field.
    #[test]
    fn carriage_returns_end_lines_only_before_a_newline() {
        let subject = "00000000000000000000000000000001_1";
        let crlf = format!("{subject}\tname\tt\tv\r\n\r\n{subject}\ttype\tt\tfile\r\n");
        assert_eq!(
            decode(crlf.as_bytes()).unwrap(),
            vec![
                ProvenanceRecord::new(nid(1, 1), Attr::Name, "v"),
                ProvenanceRecord::new(nid(1, 1), Attr::Type, "file"),
            ]
        );
        for (bad, want) in [
            (
                format!("{subject}\tname\tt\tv\\\r\n"),
                "line 0: bad escape '\\None'",
            ),
            (
                format!("{subject}\tname\tt\tv\\\r"),
                "line 0: bad escape '\\Some('\\r')'",
            ),
            (
                format!("{subject}\tna\\\r\n"),
                "line 0: bad escape '\\None'",
            ),
            (format!("{subject}\tname\r\n"), "line 0: missing kind"),
            (
                format!("{subject}\r"),
                &format!("line 0: bad version in '{subject}\r'"),
            ),
        ] {
            assert_eq!(decode(bad.as_bytes()).unwrap_err().0, want, "{bad:?}");
            assert_eq!(
                Err(WireError(want.to_string())),
                reference::decode(bad.as_bytes())
            );
        }
        let text = format!("{subject}\tname\tt\tv\r");
        assert_eq!(
            decode(text.as_bytes()).unwrap(),
            vec![ProvenanceRecord::new(nid(1, 1), Attr::Name, "v\r")]
        );
    }
}
