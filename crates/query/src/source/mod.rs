//! The layered read path: pluggable [`GraphSource`] backends.
//!
//! The query engine used to own one hand-rolled strategy per
//! (query × layout). This module splits the *access* layer out: a
//! [`GraphSource`] answers graph-shaped questions (all records, a
//! node's records, process seeds, reverse-edge expansion) against one
//! physical layout, and everything above it — the cost-based planner,
//! the Table 5 metrics and result hydration — is layout-blind.
//!
//! Three backends:
//!
//! * [`S3ScanSource`] — P1's provenance objects. Every question is a
//!   LIST + GET full scan; selective questions are answered by scanning
//!   and filtering locally (correct but costly — the planner only
//!   routes point questions here when nothing better exists).
//! * [`SdbSelectSource`] — P2/P3's SimpleDB items. Point questions
//!   become selective SELECTs; reverse expansion is the §5.3
//!   `input in (...)` frontier loop.
//! * [`IndexSource`] — the commit-time ancestry index
//!   ([`cloudprov_core::index`]). Program seeds are one lookup and
//!   reverse expansion is a bounded walk over the materialized reverse
//!   edges, fetched in lean pages instead of per-frontier SELECTs.
//!
//! Cloud record-fetch code lives **only** here; the engine plans and
//! evaluates.

mod index;
mod scan;
mod select;

pub use index::{IndexSource, RevAdjacency};
pub use scan::S3ScanSource;
pub use select::SdbSelectSource;

use cloudprov_cloud::{Actor, CloudEnv};
use cloudprov_core::ProtocolError;
use cloudprov_pass::{PNodeId, ProvenanceRecord};

pub(crate) type Result<T> = std::result::Result<T, ProtocolError>;

/// Execution strategy (Table 5 reports both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// One request at a time.
    Sequential,
    /// Independent requests fan out over parallel connections.
    Parallel,
}

/// Q.3's answer: the identified file nodes, plus their full records when
/// the backend produced them as a by-product (the SELECT path does; the
/// index path identifies nodes without touching the record log — hydrate
/// separately via [`GraphSource::fetch_records`] when records are
/// needed).
#[derive(Clone, Debug, Default)]
pub struct OutputSet {
    /// File nodes directly output by the queried processes.
    pub nodes: Vec<PNodeId>,
    /// Their records, when the access path fetched them anyway.
    pub records: Vec<ProvenanceRecord>,
}

/// One physical layout's view of the provenance graph.
///
/// Implementations meter every call under [`Actor::Query`] so the
/// Table 5 cost columns stay honest. Methods taking [`Mode`] fan
/// independent requests out over the source's configured parallelism in
/// [`Mode::Parallel`].
pub trait GraphSource: Send + Sync {
    /// Backend name, reported in query plans.
    fn name(&self) -> &'static str;

    /// Every provenance record in the store (the Q.1 scan, and the
    /// substrate for local evaluation).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    fn all_records(&self, mode: Mode) -> Result<Vec<ProvenanceRecord>>;

    /// Records of every version of one object (Q.2's targeted fetch,
    /// given the uuid learned from the data object's metadata link).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    fn uuid_records(&self, id: PNodeId) -> Result<Vec<ProvenanceRecord>>;

    /// Process nodes named `program` (the Q.3/Q.4 seed lookup).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    fn processes_named(&self, program: &str, mode: Mode) -> Result<Vec<PNodeId>>;

    /// File nodes directly output by `procs` (one reverse step filtered
    /// to files — Q.3's body).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    fn direct_outputs(&self, procs: &[PNodeId], mode: Mode) -> Result<OutputSet>;

    /// All transitive dependents of `seeds` over `input` edges,
    /// excluding the seeds themselves (Q.4's walk).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    fn descendants_of(&self, seeds: &[PNodeId], mode: Mode) -> Result<Vec<PNodeId>>;

    /// Full records of specific nodes (hydration after an index-path
    /// query identified them).
    ///
    /// # Errors
    ///
    /// Propagates cloud errors.
    fn fetch_records(&self, nodes: &[PNodeId], mode: Mode) -> Result<Vec<ProvenanceRecord>>;
}

/// Reads the provenance link out of a data object's metadata (Q.2's
/// entry HEAD), metered under the query actor.
///
/// # Errors
///
/// Propagates cloud errors; `MissingProvenance` when the object carries
/// no link.
pub fn object_link(env: &CloudEnv, data_bucket: &str, key: &str) -> Result<PNodeId> {
    let head = env.s3().with_actor(Actor::Query).head(data_bucket, key)?;
    cloudprov_core::parse_object_metadata(&head.meta).ok_or_else(|| {
        ProtocolError::MissingProvenance {
            key: key.to_string(),
            reason: "object carries no provenance link".into(),
        }
    })
}

/// Resolves a spilled attribute value (a `@s3:` pointer) to its bytes.
///
/// # Errors
///
/// Propagates cloud errors; `MissingProvenance` for non-pointers.
pub fn resolve_spill(env: &CloudEnv, pointer: &str) -> Result<Vec<u8>> {
    let (bucket, key) = cloudprov_core::Layout::parse_spill_pointer(pointer).ok_or_else(|| {
        ProtocolError::MissingProvenance {
            key: pointer.to_string(),
            reason: "not a spill pointer".into(),
        }
    })?;
    let obj = env.s3().with_actor(Actor::Query).get(bucket, key)?;
    Ok(obj.blob.as_inline().map(|b| b.to_vec()).unwrap_or_default())
}

/// Pure, layout-blind evaluation over materialized record sets — the
/// logic every scan-style plan shares, and the reference the S3 source's
/// folded answers (`ScanFold`) must match.
pub mod local {
    use cloudprov_cloud::Blob;
    use cloudprov_pass::wire::{self, RecordRef, WireError};
    use cloudprov_pass::{Attr, AttrValue, NodeKind, PNodeId, ProvenanceRecord};
    use std::borrow::Cow;
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    /// Distinct subjects of a record set, sorted.
    pub fn subjects(records: &[ProvenanceRecord]) -> Vec<PNodeId> {
        let set: BTreeSet<PNodeId> = records.iter().map(|r| r.subject).collect();
        set.into_iter().collect()
    }

    /// A value's stored text, borrowed; only an xref is formatted.
    fn text(value: &AttrValue) -> Cow<'_, str> {
        match value {
            AttrValue::Text(s) => Cow::Borrowed(s),
            AttrValue::Xref(id) => Cow::Owned(id.to_string()),
        }
    }

    /// The node kind a `type` value names; anything unknown is a file.
    fn kind(text: &str) -> NodeKind {
        match text {
            "process" => NodeKind::Process,
            "pipe" => NodeKind::Pipe,
            _ => NodeKind::File,
        }
    }

    /// Process nodes named `program`.
    pub fn processes_named(records: &[ProvenanceRecord], program: &str) -> Vec<PNodeId> {
        let kinds = kinds(records);
        let mut named: BTreeSet<PNodeId> = BTreeSet::new();
        for r in records {
            if r.attr == Attr::Name && text(&r.value) == program {
                named.insert(r.subject);
            }
        }
        named.retain(|n| kinds.get(n) == Some(&NodeKind::Process));
        named.into_iter().collect()
    }

    /// Node kinds recorded in a record set: the last `type` per subject.
    fn kinds(records: &[ProvenanceRecord]) -> BTreeMap<PNodeId, NodeKind> {
        let mut out = BTreeMap::new();
        for r in records {
            if r.attr == Attr::Type {
                out.insert(r.subject, kind(&text(&r.value)));
            }
        }
        out
    }

    /// Q.3 over a full record set: file nodes with an `input` edge to any
    /// of `procs`, plus their records.
    pub fn direct_outputs(
        records: &[ProvenanceRecord],
        procs: &[PNodeId],
    ) -> (Vec<PNodeId>, Vec<ProvenanceRecord>) {
        let kinds = kinds(records);
        let procs: BTreeSet<PNodeId> = procs.iter().copied().collect();
        let mut out_nodes = BTreeSet::new();
        for r in records {
            if let (Attr::Input, Some(to)) = (&r.attr, r.value.as_xref()) {
                if procs.contains(&to) && kinds.get(&r.subject) == Some(&NodeKind::File) {
                    out_nodes.insert(r.subject);
                }
            }
        }
        let records_out = records
            .iter()
            .filter(|r| out_nodes.contains(&r.subject))
            .cloned()
            .collect();
        (out_nodes.into_iter().collect(), records_out)
    }

    /// An S3 provenance object's bytes (P1 never spills them).
    pub(crate) fn payload(blob: &Blob) -> &[u8] {
        blob.as_inline().expect("inline provenance")
    }

    /// Q.3/Q.4 folded over a scan one lent record at a time, by the rules
    /// of [`processes_named`], [`direct_outputs`] and [`descendants`]. It
    /// reads only `type`, `name` and `input` records, and holds each
    /// object so that Q.3 can copy out its output nodes' records.
    pub(crate) struct ScanFold<'p> {
        program: Option<&'p str>,
        /// The last `type` seen per subject.
        kinds: HashMap<PNodeId, NodeKind>,
        /// Subjects with a `name` equal to `program`.
        named: BTreeSet<PNodeId>,
        /// `(subject, input)` of every `input` edge.
        edges: Vec<(PNodeId, PNodeId)>,
        objects: Vec<Blob>,
        /// `(subject, object)` for each run of one subject's records in
        /// one object, in scan order.
        runs: Vec<(PNodeId, usize)>,
    }

    impl<'p> ScanFold<'p> {
        /// An empty fold; `program` names Q.3/Q.4's seed processes.
        pub(crate) fn new(program: Option<&'p str>) -> ScanFold<'p> {
            ScanFold {
                program,
                kinds: HashMap::new(),
                named: BTreeSet::new(),
                edges: Vec::new(),
                objects: Vec::new(),
                runs: Vec::new(),
            }
        }

        /// Folds in the next object of the scan.
        pub(crate) fn object(&mut self, blob: Blob) -> Result<(), WireError> {
            let at = self.objects.len();
            wire::visit(payload(&blob), |r| self.record(at, r))?;
            self.objects.push(blob);
            Ok(())
        }

        fn record(&mut self, object: usize, r: RecordRef<'_>) {
            if self.runs.last() != Some(&(r.subject, object)) {
                self.runs.push((r.subject, object));
            }
            match &*r.attr() {
                "type" => {
                    self.kinds.insert(r.subject, kind(&r.text()));
                }
                "name" if self.program.is_some_and(|p| r.text() == p) => {
                    self.named.insert(r.subject);
                }
                "input" => {
                    if let Some(to) = r.xref() {
                        self.edges.push((r.subject, to));
                    }
                }
                _ => {}
            }
        }

        /// Process nodes named `program`, sorted.
        pub(crate) fn processes_named(&self) -> Vec<PNodeId> {
            self.named
                .iter()
                .copied()
                .filter(|n| self.kinds.get(n) == Some(&NodeKind::Process))
                .collect()
        }

        /// Q.3: file nodes with an `input` edge to any of `procs`, and
        /// their records in scan order — copied out of only the objects
        /// that hold them.
        pub(crate) fn direct_outputs(
            &self,
            procs: &[PNodeId],
        ) -> (Vec<PNodeId>, Vec<ProvenanceRecord>) {
            let procs: BTreeSet<PNodeId> = procs.iter().copied().collect();
            let nodes: BTreeSet<PNodeId> = self
                .edges
                .iter()
                .filter(|(from, to)| {
                    procs.contains(to) && self.kinds.get(from) == Some(&NodeKind::File)
                })
                .map(|&(from, _)| from)
                .collect();
            let holding: BTreeSet<usize> = self
                .runs
                .iter()
                .filter(|(subject, _)| nodes.contains(subject))
                .map(|&(_, object)| object)
                .collect();
            let mut records = Vec::new();
            for object in holding {
                wire::visit(payload(&self.objects[object]), |r| {
                    if nodes.contains(&r.subject) {
                        records.push(r.to_owned());
                    }
                })
                .expect("the scan has checked this object");
            }
            (nodes.into_iter().collect(), records)
        }

        /// Q.4: every transitive dependent of `seeds` over `input` edges,
        /// excluding the seeds.
        pub(crate) fn descendants(&self, seeds: &[PNodeId]) -> Vec<PNodeId> {
            let mut rdeps: HashMap<PNodeId, Vec<PNodeId>> = HashMap::new();
            for &(from, to) in &self.edges {
                rdeps.entry(to).or_default().push(from);
            }
            walk(seeds, |n| rdeps.get(&n).map_or(&[], Vec::as_slice))
        }
    }

    /// Q.4 over a full record set: BFS over reverse `input` edges from
    /// `seeds`, excluding the seeds — the same edge semantics as the
    /// SELECT frontier-expansion path, so every plan agrees on result
    /// sets.
    pub fn descendants(records: &[ProvenanceRecord], seeds: &[PNodeId]) -> Vec<PNodeId> {
        let mut rdeps: BTreeMap<PNodeId, Vec<PNodeId>> = BTreeMap::new();
        for r in records {
            if let (Attr::Input, Some(to)) = (&r.attr, r.value.as_xref()) {
                rdeps.entry(to).or_default().push(r.subject);
            }
        }
        walk(seeds, |n| rdeps.get(&n).map_or(&[], Vec::as_slice))
    }

    /// Generic reverse walk shared by every descendant evaluation;
    /// `next` lends each node's neighbours rather than copying them.
    pub fn walk<'a>(seeds: &[PNodeId], next: impl Fn(PNodeId) -> &'a [PNodeId]) -> Vec<PNodeId> {
        let mut seen: BTreeSet<PNodeId> = seeds.iter().copied().collect();
        let mut queue: Vec<PNodeId> = seeds.to_vec();
        let mut out: BTreeSet<PNodeId> = BTreeSet::new();
        while let Some(n) = queue.pop() {
            for &m in next(n) {
                if seen.insert(m) {
                    out.insert(m);
                    queue.push(m);
                }
            }
        }
        out.into_iter().collect()
    }
}
