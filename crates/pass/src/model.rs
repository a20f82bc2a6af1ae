//! The provenance data model: node kinds, attributes, and records.
//!
//! Provenance is a DAG (§2): nodes are object *versions* (files, processes,
//! pipes), edges are dependencies ("derived from"). PASS records both the
//! edges (as cross-reference attributes like `input`) and per-node
//! attributes (name, pid, command line, environment, …) — §2.1 lists
//! exactly the attribute set reproduced here.

use std::fmt;

use crate::id::PNodeId;

/// What kind of object a provenance node describes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeKind {
    /// A regular file (persistent: has a data object in the cloud).
    File,
    /// A process (non-persistent: provenance only).
    Process,
    /// A pipe (non-persistent, unnamed).
    Pipe,
}

impl NodeKind {
    /// The `type` attribute value stored in provenance (matches the
    /// paper's example `attribute-name=type,attribute-value=file`).
    pub fn as_str(self) -> &'static str {
        match self {
            NodeKind::File => "file",
            NodeKind::Process => "process",
            NodeKind::Pipe => "pipe",
        }
    }

    /// True for objects that have a data payload in the object store.
    pub fn is_persistent(self) -> bool {
        matches!(self, NodeKind::File)
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Attribute names attached to provenance nodes (§2.1).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Attr {
    /// Object kind (`type`).
    Type,
    /// File path or process name (`name`).
    Name,
    /// Dependency edge to another node (`input`).
    Input,
    /// Version edge to the previous version of the same object.
    PrevVersion,
    /// Process command-line arguments.
    Argv,
    /// Process environment variables.
    Env,
    /// Process id.
    Pid,
    /// Execution start time.
    ExecTime,
    /// Edge to the parent process.
    ForkParent,
    /// Hash of the file data this version describes (coupling detection).
    DataHash,
    /// Any other attribute, stored under its own name (the Linux-compile
    /// workload's split `env0`/`env1` values, say).
    Custom(String),
}

impl Attr {
    /// The wire/database name of the attribute.
    pub fn as_str(&self) -> &str {
        match self {
            Attr::Type => "type",
            Attr::Name => "name",
            Attr::Input => "input",
            Attr::PrevVersion => "prev_version",
            Attr::Argv => "argv",
            Attr::Env => "env",
            Attr::Pid => "pid",
            Attr::ExecTime => "exectime",
            Attr::ForkParent => "forkparent",
            Attr::DataHash => "datahash",
            Attr::Custom(s) => s,
        }
    }

    /// Parses a wire/database attribute name.
    pub fn from_name(name: &str) -> Attr {
        match name {
            "type" => Attr::Type,
            "name" => Attr::Name,
            "input" => Attr::Input,
            "prev_version" => Attr::PrevVersion,
            "argv" => Attr::Argv,
            "env" => Attr::Env,
            "pid" => Attr::Pid,
            "exectime" => Attr::ExecTime,
            "forkparent" => Attr::ForkParent,
            "datahash" => Attr::DataHash,
            other => Attr::Custom(other.to_string()),
        }
    }

    /// True for attributes whose value is a cross-reference to another
    /// node (these are the DAG edges).
    pub fn is_xref(&self) -> bool {
        matches!(self, Attr::Input | Attr::PrevVersion | Attr::ForkParent)
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An attribute value: free text or a cross-reference edge.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AttrValue {
    /// Free-text value.
    Text(String),
    /// Dependency edge to another node version.
    Xref(PNodeId),
}

impl AttrValue {
    /// The textual form stored in the cloud (xrefs serialize as
    /// `uuid_version`, exactly the paper's `input=bar_2` scheme).
    pub fn to_text(&self) -> String {
        match self {
            AttrValue::Text(s) => s.clone(),
            AttrValue::Xref(id) => id.to_string(),
        }
    }

    /// The cross-referenced node, if this value is an edge.
    pub fn as_xref(&self) -> Option<PNodeId> {
        match self {
            AttrValue::Xref(id) => Some(*id),
            AttrValue::Text(_) => None,
        }
    }

    /// Size of the textual form in bytes (drives SimpleDB's 1 KB spill
    /// decision in P2/P3).
    pub fn text_len(&self) -> usize {
        match self {
            AttrValue::Text(s) => s.len(),
            AttrValue::Xref(_) => 35, // 32 hex + '_' + short version
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> AttrValue {
        AttrValue::Text(s.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> AttrValue {
        AttrValue::Text(s)
    }
}

impl From<PNodeId> for AttrValue {
    fn from(id: PNodeId) -> AttrValue {
        AttrValue::Xref(id)
    }
}

/// One provenance record: `(subject version, attribute, value)`.
///
/// The stream of records emitted by the observer is the unit every storage
/// protocol moves to the cloud.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProvenanceRecord {
    /// The node this record describes.
    pub subject: PNodeId,
    /// Attribute name.
    pub attr: Attr,
    /// Attribute value.
    pub value: AttrValue,
}

impl ProvenanceRecord {
    /// Creates a record.
    pub fn new(subject: PNodeId, attr: Attr, value: impl Into<AttrValue>) -> ProvenanceRecord {
        ProvenanceRecord {
            subject,
            attr,
            value: value.into(),
        }
    }

    /// The dependency edge this record encodes, if any.
    pub fn edge(&self) -> Option<(PNodeId, PNodeId)> {
        if self.attr.is_xref() {
            self.value.as_xref().map(|to| (self.subject, to))
        } else {
            None
        }
    }

    /// Approximate serialized size in bytes (used for SQS chunking and
    /// transfer accounting).
    pub fn wire_len(&self) -> usize {
        36 + self.attr.as_str().len() + self.value.text_len()
    }
}

impl fmt::Display for ProvenanceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}={}", self.subject, self.attr, self.value.to_text())
    }
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

    #[test]
    fn attr_names_roundtrip() {
        for attr in [
            Attr::Type,
            Attr::Name,
            Attr::Input,
            Attr::PrevVersion,
            Attr::Argv,
            Attr::Env,
            Attr::Pid,
            Attr::ExecTime,
            Attr::ForkParent,
            Attr::DataHash,
            Attr::Custom("mime".into()),
        ] {
            assert_eq!(Attr::from_name(attr.as_str()), attr);
        }
    }

    #[test]
    fn xref_attrs_are_edges() {
        assert!(Attr::Input.is_xref());
        assert!(Attr::PrevVersion.is_xref());
        assert!(Attr::ForkParent.is_xref());
        assert!(!Attr::Name.is_xref());
        assert!(!Attr::Env.is_xref());
    }

    #[test]
    fn record_edge_extraction() {
        let r = ProvenanceRecord::new(nid(1, 2), Attr::Input, nid(3, 4));
        assert_eq!(r.edge(), Some((nid(1, 2), nid(3, 4))));
        let r = ProvenanceRecord::new(nid(1, 2), Attr::Name, "foo");
        assert_eq!(r.edge(), None);
    }

    #[test]
    fn value_text_forms() {
        assert_eq!(AttrValue::from("hi").to_text(), "hi");
        let id = nid(0xabc, 2);
        assert_eq!(AttrValue::from(id).to_text(), id.to_string());
        assert_eq!(AttrValue::from(id).as_xref(), Some(id));
    }

    #[test]
    fn node_kinds() {
        assert!(NodeKind::File.is_persistent());
        assert!(!NodeKind::Process.is_persistent());
        assert!(!NodeKind::Pipe.is_persistent());
        assert_eq!(NodeKind::Process.as_str(), "process");
    }

    #[test]
    fn wire_len_tracks_value_size() {
        let small = ProvenanceRecord::new(nid(1, 1), Attr::Name, "a");
        let big = ProvenanceRecord::new(nid(1, 1), Attr::Env, "e".repeat(2000));
        assert!(big.wire_len() > small.wire_len() + 1500);
    }
}
