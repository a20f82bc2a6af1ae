//! The P3 write-ahead-log wire format, behind one codec.
//!
//! A WAL message is a `TXN` header line followed by body lines. The
//! header carries the transaction id, this message's sequence number and
//! the transaction's message count — ordering is reconstructed from
//! sequence numbers, which is what makes parallel sends safe (§4.3.3) —
//! plus two optional, self-describing trailing fields: the logging
//! client's tenant (numeric) and its root trace context (`ctx:`-
//! prefixed). Shorter headers parse unchanged. A body line is an object
//! line (`OBJ` for a temp upload, `CAS` for a content-addressed
//! reference) or one wire-encoded provenance record.
//!
//! The log phase ([`P3::flush_with_cas`](crate::P3::flush_with_cas)) and
//! the commit daemon's poll and group parser all go through this module,
//! so the format is spelled exactly once.

use cloudprov_cloud::{TenantId, MESSAGE_LIMIT};
use cloudprov_pass::{wire, PNodeId, ProvenanceRecord, Uuid};
use cloudprov_trace::SpanContext;

/// Room reserved in each WAL message for the header line.
const HEADER_ROOM: usize = 80;

/// The `TXN` header line of one WAL message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) txn: Uuid,
    /// This message's position within the transaction.
    pub(crate) seq: usize,
    /// Messages the transaction spans.
    pub(crate) total: usize,
    /// The logging client's tenant, so daemon-side change-feed events can
    /// carry it.
    pub(crate) tenant: Option<TenantId>,
    /// The logging client's root span — the propagation seam connecting
    /// the client's trace tree to the daemon's commit phases.
    pub(crate) ctx: Option<SpanContext>,
}

impl Header {
    /// The header line, newline included.
    pub(crate) fn encode(&self) -> String {
        let mut s = format!("TXN\t{}\t{}\t{}", self.txn, self.seq, self.total);
        if let Some(t) = self.tenant {
            s.push('\t');
            s.push_str(&t.0.to_string());
        }
        if let Some(c) = self.ctx {
            s.push('\t');
            s.push_str(&c.encode());
        }
        s.push('\n');
        s
    }

    /// Splits a message into its header and body; `None` for anything
    /// that is not a WAL message.
    pub(crate) fn parse(message: &str) -> Option<(Header, &str)> {
        let (header, body) = message.split_once('\n')?;
        let mut it = header.split('\t');
        if it.next()? != "TXN" {
            return None;
        }
        let mut h = Header {
            txn: it.next()?.parse().ok()?,
            seq: it.next()?.parse().ok()?,
            total: it.next()?.parse().ok()?,
            tenant: None,
            ctx: None,
        };
        for field in it {
            if let Some(c) = SpanContext::decode(field) {
                h.ctx = Some(c);
            } else if let Ok(t) = field.parse() {
                h.tenant = Some(TenantId(t));
            }
        }
        Some((h, body))
    }
}

/// One body line of a WAL message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Line<'a> {
    /// A file whose bytes were uploaded under the temp key `temp` and
    /// belong at `key` as version `id`.
    Obj {
        temp: &'a str,
        key: &'a str,
        id: PNodeId,
    },
    /// A reference to content published in the content-addressed store
    /// under `sha`: node `id`, whose data (if `has_data`) belongs at
    /// `key`.
    Cas {
        sha: &'a str,
        key: Option<&'a str>,
        id: PNodeId,
        has_data: bool,
    },
    /// One wire-encoded provenance record (without its newline).
    Record(&'a str),
}

impl<'a> Line<'a> {
    /// The line, newline included.
    pub(crate) fn encode(&self) -> String {
        match self {
            Line::Obj { temp, key, id } => format!("OBJ\t{temp}\t{key}\t{id}\n"),
            Line::Cas {
                sha,
                key,
                id,
                has_data,
            } => format!(
                "CAS\t{sha}\t{}\t{id}\t{}\n",
                key.unwrap_or("-"),
                if *has_data { "d" } else { "p" },
            ),
            Line::Record(r) => format!("{r}\n"),
        }
    }

    /// Parses one body line (as `str::lines` yields it). `None` is a
    /// malformed object line, which the commit daemon drops.
    pub(crate) fn parse(line: &'a str) -> Option<Line<'a>> {
        if let Some(rest) = line.strip_prefix("OBJ\t") {
            let mut it = rest.split('\t');
            Some(Line::Obj {
                temp: it.next()?,
                key: it.next()?,
                id: it.next()?.parse().ok()?,
            })
        } else if let Some(rest) = line.strip_prefix("CAS\t") {
            let mut it = rest.split('\t');
            let (sha, key, id, flag) = (it.next()?, it.next()?, it.next()?, it.next()?);
            Some(Line::Cas {
                sha,
                key: (key != "-").then_some(key),
                id: id.parse().ok()?,
                has_data: flag == "d",
            })
        } else {
            Some(Line::Record(line))
        }
    }
}

/// Serializes one transaction into WAL messages: `lines` (encoded object
/// lines, in batch order) then the wire-encoded `records`, packed
/// greedily into bodies that, with the header, stay within
/// `message_limit` (itself clamped to the 8 KB SQS limit).
pub(crate) fn build_messages(
    txn: Uuid,
    tenant: Option<TenantId>,
    ctx: Option<SpanContext>,
    mut lines: Vec<String>,
    records: &[ProvenanceRecord],
    message_limit: usize,
) -> Vec<String> {
    let limit = message_limit.clamp(HEADER_ROOM + 64, MESSAGE_LIMIT) - HEADER_ROOM;
    lines.extend(records.iter().map(wire::encode_record));
    let mut bodies: Vec<String> = Vec::new();
    let mut cur = String::new();
    for line in lines {
        assert!(
            line.len() <= limit,
            "WAL line of {} bytes exceeds message capacity",
            line.len()
        );
        if !cur.is_empty() && cur.len() + line.len() > limit {
            bodies.push(std::mem::take(&mut cur));
        }
        cur.push_str(&line);
    }
    if !cur.is_empty() || bodies.is_empty() {
        bodies.push(cur);
    }
    let total = bodies.len();
    bodies
        .into_iter()
        .enumerate()
        .map(|(seq, body)| {
            let header = Header {
                txn,
                seq,
                total,
                tenant,
                ctx,
            };
            header.encode() + &body
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn headers_and_lines_round_trip(
            ids in (any::<u128>(), 0usize..1000, 1usize..1000, 1u32..1000),
            tenant in (any::<bool>(), any::<u32>()),
            ctx in (any::<bool>(), any::<u128>(), any::<u64>()),
            names in ("[a-z]{1,12}", "[a-z]{1,12}", "[a-f]{8,8}"),
            cas in (any::<bool>(), any::<bool>()),
            body in ".*",
        ) {
            let (txn, seq, total, version) = ids;
            let header = Header {
                txn: Uuid(txn),
                seq,
                total,
                tenant: tenant.0.then_some(TenantId(tenant.1)),
                ctx: ctx.0.then_some(SpanContext { trace: ctx.1, span: ctx.2 }),
            };
            let message = header.encode() + &body;
            prop_assert_eq!(Header::parse(&message), Some((header, body.as_str())));

            let id = PNodeId { uuid: Uuid(txn), version };
            let (temp, key, sha) = (names.0.as_str(), names.1.as_str(), names.2.as_str());
            let (has_key, has_data) = cas;
            for line in [
                Line::Obj { temp, key, id },
                Line::Cas { sha, key: has_key.then_some(key), id, has_data },
            ] {
                let encoded = line.encode();
                prop_assert_eq!(encoded.lines().count(), 1);
                prop_assert_eq!(Line::parse(encoded.trim_end_matches('\n')), Some(line));
            }
        }
    }

    #[test]
    fn records_and_malformed_object_lines() {
        let record = wire::encode_record(&ProvenanceRecord::new(
            PNodeId::initial(Uuid(9)),
            cloudprov_pass::Attr::Type,
            "file",
        ));
        let line = record.trim_end_matches('\n');
        assert_eq!(Line::parse(line), Some(Line::Record(line)));
        assert_eq!(Line::Record(line).encode(), record);
        // An object line missing a field or carrying a bad id is dropped,
        // never mistaken for a record.
        let obj = Line::Obj {
            temp: "tmp/x",
            key: "k",
            id: PNodeId::initial(Uuid(9)),
        }
        .encode();
        let truncated = obj.rsplit_once('\t').unwrap().0;
        assert_eq!(Line::parse(truncated), None);
        assert_eq!(Line::parse(&format!("{truncated}\tnot-an-id")), None);
    }
}
