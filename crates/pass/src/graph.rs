//! The in-memory provenance DAG.
//!
//! Used three ways: by the observer to run the cycle test behind
//! causality-based versioning, by the query engine and tests as the ground
//! truth to validate cloud-side query results against, and by the examples
//! (provenance diffing, descendant tracking, search re-ranking).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::id::PNodeId;
use crate::model::{Attr, AttrValue, NodeKind, ProvenanceRecord};

/// A node's accumulated attributes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeData {
    /// Object kind, if recorded.
    pub kind: Option<NodeKind>,
    /// All non-edge attributes in insertion order.
    pub attrs: Vec<(Attr, String)>,
}

impl NodeData {
    /// First value of an attribute, if present.
    pub fn attr(&self, attr: &Attr) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(a, _)| a == attr)
            .map(|(_, v)| v.as_str())
    }

    /// The node's `name` attribute.
    pub fn name(&self) -> Option<&str> {
        self.attr(&Attr::Name)
    }
}

/// An in-memory provenance DAG built from records.
///
/// Edges point from a node to the nodes it **depends on** (its inputs /
/// previous version / fork parent).
#[derive(Clone, Debug, Default)]
pub struct ProvGraph {
    nodes: BTreeMap<PNodeId, NodeData>,
    deps: BTreeMap<PNodeId, Vec<PNodeId>>,
    rdeps: BTreeMap<PNodeId, Vec<PNodeId>>,
}

impl ProvGraph {
    /// Creates an empty graph.
    pub fn new() -> ProvGraph {
        ProvGraph::default()
    }

    /// Builds a graph from a record stream.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a ProvenanceRecord>) -> ProvGraph {
        let mut g = ProvGraph::new();
        for r in records {
            g.apply(r);
        }
        g
    }

    /// Applies one record (idempotent for duplicate edges).
    pub fn apply(&mut self, record: &ProvenanceRecord) {
        let data = self.nodes.entry(record.subject).or_default();
        match (&record.attr, &record.value) {
            (Attr::Type, AttrValue::Text(t)) => {
                data.kind = match t.as_str() {
                    "file" => Some(NodeKind::File),
                    "process" => Some(NodeKind::Process),
                    "pipe" => Some(NodeKind::Pipe),
                    _ => data.kind,
                };
                data.attrs.push((record.attr.clone(), t.clone()));
            }
            (attr, AttrValue::Xref(to)) if attr.is_xref() => {
                self.nodes.entry(*to).or_default();
                let deps = self.deps.entry(record.subject).or_default();
                if !deps.contains(to) {
                    deps.push(*to);
                    self.rdeps.entry(*to).or_default().push(record.subject);
                }
            }
            (_, v) => {
                data.attrs.push((record.attr.clone(), v.to_text()));
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.deps.values().map(Vec::len).sum()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = PNodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// A node's data, if present.
    pub fn node(&self, id: PNodeId) -> Option<&NodeData> {
        self.nodes.get(&id)
    }

    /// Direct dependencies (ancestor edges) of a node.
    pub fn deps(&self, id: PNodeId) -> &[PNodeId] {
        self.deps.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Direct dependents (descendant edges) of a node.
    pub fn rdeps(&self, id: PNodeId) -> &[PNodeId] {
        self.rdeps.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True if `from` transitively depends on `to` (i.e. `to` is an
    /// ancestor of `from`). A node reaches itself.
    pub fn reaches(&self, from: PNodeId, to: PNodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            for d in self.deps(n) {
                if *d == to {
                    return true;
                }
                stack.push(*d);
            }
        }
        false
    }

    /// All transitive ancestors of a node (excluding itself), BFS order.
    pub fn ancestors(&self, id: PNodeId) -> Vec<PNodeId> {
        self.traverse(id, |g, n| g.deps(n))
    }

    /// All transitive descendants of a node (excluding itself), BFS order.
    pub fn descendants(&self, id: PNodeId) -> Vec<PNodeId> {
        self.traverse(id, |g, n| g.rdeps(n))
    }

    fn traverse<'a>(
        &'a self,
        id: PNodeId,
        next: impl Fn(&'a ProvGraph, PNodeId) -> &'a [PNodeId],
    ) -> Vec<PNodeId> {
        let mut seen = BTreeSet::new();
        let mut order = Vec::new();
        let mut queue = VecDeque::from([id]);
        seen.insert(id);
        while let Some(n) = queue.pop_front() {
            for m in next(self, n) {
                if seen.insert(*m) {
                    order.push(*m);
                    queue.push_back(*m);
                }
            }
        }
        order
    }

    /// Longest dependency path length from `id` to any root (number of
    /// edges). The paper characterizes its workloads this way: nightly ≈
    /// flat, Blast depth 5, challenge depth 11.
    pub fn depth_from(&self, id: PNodeId) -> usize {
        fn go(g: &ProvGraph, n: PNodeId, memo: &mut BTreeMap<PNodeId, usize>) -> usize {
            if let Some(d) = memo.get(&n) {
                return *d;
            }
            // Mark to guard against (impossible) cycles during computation.
            memo.insert(n, 0);
            let d = g
                .deps(n)
                .iter()
                .map(|m| 1 + go(g, *m, memo))
                .max()
                .unwrap_or(0);
            memo.insert(n, d);
            d
        }
        go(self, id, &mut BTreeMap::new())
    }

    /// Verifies the DAG invariant: no node is its own ancestor (§2: "The
    /// provenance graph, by definition, is acyclic"). Returns an offending
    /// cycle witness if one exists.
    pub fn find_cycle(&self) -> Option<Vec<PNodeId>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            InProgress,
            Done,
        }
        let mut marks: BTreeMap<PNodeId, Mark> = BTreeMap::new();
        let mut stack_path: Vec<PNodeId> = Vec::new();

        fn visit(
            g: &ProvGraph,
            n: PNodeId,
            marks: &mut BTreeMap<PNodeId, Mark>,
            path: &mut Vec<PNodeId>,
        ) -> Option<Vec<PNodeId>> {
            match marks.get(&n) {
                Some(Mark::Done) => return None,
                Some(Mark::InProgress) => {
                    let start = path.iter().position(|p| *p == n).unwrap_or(0);
                    return Some(path[start..].to_vec());
                }
                None => {}
            }
            marks.insert(n, Mark::InProgress);
            path.push(n);
            for d in g.deps(n) {
                if let Some(c) = visit(g, *d, marks, path) {
                    return Some(c);
                }
            }
            path.pop();
            marks.insert(n, Mark::Done);
            None
        }

        for n in self.nodes.keys() {
            if let Some(c) = visit(self, *n, &mut marks, &mut stack_path) {
                return Some(c);
            }
        }
        None
    }

    /// Nodes matching a predicate on their data.
    pub fn find_nodes<'a>(
        &'a self,
        pred: impl Fn(PNodeId, &NodeData) -> bool + 'a,
    ) -> impl Iterator<Item = PNodeId> + 'a {
        self.nodes
            .iter()
            .filter(move |(id, d)| pred(**id, d))
            .map(|(id, _)| *id)
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

    fn rec(s: PNodeId, attr: Attr, v: impl Into<AttrValue>) -> ProvenanceRecord {
        ProvenanceRecord::new(s, attr, v)
    }

    /// file(3) <- proc(2) <- file(1): classic read-process-write chain.
    fn chain() -> ProvGraph {
        ProvGraph::from_records(&[
            rec(nid(1, 1), Attr::Type, "file"),
            rec(nid(2, 1), Attr::Type, "process"),
            rec(nid(2, 1), Attr::Name, "blast"),
            rec(nid(2, 1), Attr::Input, nid(1, 1)),
            rec(nid(3, 1), Attr::Type, "file"),
            rec(nid(3, 1), Attr::Name, "/out"),
            rec(nid(3, 1), Attr::Input, nid(2, 1)),
        ])
    }

    #[test]
    fn builds_nodes_and_edges() {
        let g = chain();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node(nid(2, 1)).unwrap().name(), Some("blast"));
        assert_eq!(g.node(nid(2, 1)).unwrap().kind, Some(NodeKind::Process));
    }

    #[test]
    fn reaches_follows_transitive_dependencies() {
        let g = chain();
        assert!(g.reaches(nid(3, 1), nid(1, 1)));
        assert!(!g.reaches(nid(1, 1), nid(3, 1)));
        assert!(g.reaches(nid(2, 1), nid(2, 1)), "self-reachability");
    }

    #[test]
    fn ancestors_and_descendants() {
        let g = chain();
        assert_eq!(g.ancestors(nid(3, 1)), vec![nid(2, 1), nid(1, 1)]);
        assert_eq!(g.descendants(nid(1, 1)), vec![nid(2, 1), nid(3, 1)]);
        assert!(g.ancestors(nid(1, 1)).is_empty());
    }

    #[test]
    fn duplicate_edges_are_idempotent() {
        let mut g = chain();
        g.apply(&rec(nid(2, 1), Attr::Input, nid(1, 1)));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn depth_measures_longest_path() {
        let g = chain();
        assert_eq!(g.depth_from(nid(3, 1)), 2);
    }

    #[test]
    fn acyclic_graph_has_no_cycle() {
        assert_eq!(chain().find_cycle(), None);
    }

    #[test]
    fn cycle_detection_finds_witness() {
        let mut g = chain();
        // Force a cycle by hand (the observer can never produce this).
        g.apply(&rec(nid(1, 1), Attr::Input, nid(3, 1)));
        let cycle = g.find_cycle().expect("cycle must be found");
        assert!(cycle.len() >= 2);
    }

    #[test]
    fn find_nodes_filters() {
        let g = chain();
        let procs: Vec<_> = g
            .find_nodes(|_, d| d.kind == Some(NodeKind::Process))
            .collect();
        assert_eq!(procs, vec![nid(2, 1)]);
    }

    #[test]
    fn version_edges_count_as_dependencies() {
        let mut g = ProvGraph::new();
        g.apply(&rec(nid(1, 2), Attr::PrevVersion, nid(1, 1)));
        assert!(g.reaches(nid(1, 2), nid(1, 1)));
    }
}
