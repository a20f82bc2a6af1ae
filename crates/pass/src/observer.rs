//! The PASS observer: turns a stream of system-call events into provenance
//! records (§2.1).
//!
//! On `read`, the acting process becomes dependent on the file; on `write`,
//! the file becomes dependent on the process — transitively linking outputs
//! to inputs. Versions are managed with **causality-based versioning**
//! (Muniswamy-Reddy & Holland, FAST '09, cited as [29]): before adding a
//! dependency edge `u → w`, the observer checks whether `w` already
//! (transitively) depends on `u`; if so, recording the edge on the current
//! version would create a cycle, so `u` is *frozen* and the edge lands on a
//! fresh version of `u` instead. This is what keeps the provenance graph a
//! DAG for arbitrary interleavings of reads and writes.
//!
//! Flushing (triggered by PA-S3fs on `close`/`flush`) extracts the
//! **unflushed ancestor closure** of an object in ancestors-first order —
//! the exact set a protocol must persist *before* the object itself to
//! maintain multi-object causal ordering (§3).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::graph::{ProvGraph, Visit};
use crate::id::{PNodeId, Uuid};
use crate::model::{Attr, AttrValue, NodeKind, ProvenanceRecord};

/// Process identifier in the observed system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub u64);

/// Pipe identifier in the observed system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PipeId(pub u64);

/// Descriptive attributes of an exec'd process (§2.1 lists the set PASS
/// records: command line, environment, name, pid, start time, executable,
/// parent).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcessInfo {
    /// Process name.
    pub name: String,
    /// Command-line arguments.
    pub argv: Vec<String>,
    /// The environment block: one `KEY=value` line per variable, joined
    /// by `\n` with no trailing newline, as `/proc/<pid>/environ` hands
    /// it over (with `\n` for its NULs). Recorded as the `env` value
    /// as it is; empty records nothing. Real environments routinely
    /// exceed 1 KB, which is what forces P2/P3 to spill values into S3.
    pub env: String,
    /// Path of the executable, recorded as a dependency.
    pub exe_path: Option<String>,
    /// Execution start time, microseconds (virtual).
    pub exec_time_micros: u64,
}

/// One node of the unflushed closure returned by
/// [`Observer::flush_closure`]: everything a storage protocol needs to
/// persist this node's provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlushNode {
    /// Node identity (`uuid_version`).
    pub id: PNodeId,
    /// Object kind; persistent kinds have a data object too.
    pub kind: NodeKind,
    /// Current path for files.
    pub name: Option<String>,
    /// Provenance records newly accumulated since the node was last
    /// flushed.
    pub records: Vec<ProvenanceRecord>,
    /// Fingerprint of the file data this version describes, if any.
    pub data_hash: Option<u64>,
}

struct Live {
    cur: PNodeId,
    kind: NodeKind,
    /// Set when the current version has been flushed: the next write must
    /// create a new version (the persisted one is immutable).
    frozen: bool,
    /// Last process version that wrote this object (files/pipes).
    last_writer: Option<Uuid>,
    name: Option<String>,
}

/// Where a live object sits: its key in the files, processes or pipes.
#[derive(Debug, PartialEq, Eq)]
enum Owner {
    File(String),
    Proc(Pid),
    Pipe(PipeId),
}

#[derive(Default)]
struct Pending {
    records: Vec<ProvenanceRecord>,
    data_hash: Option<u64>,
}

/// The provenance collector.
///
/// # Examples
///
/// ```
/// use cloudprov_pass::{Observer, Pid, ProcessInfo};
///
/// let mut obs = Observer::new(42);
/// let p = Pid(100);
/// obs.exec(p, ProcessInfo { name: "cp".into(), ..ProcessInfo::default() });
/// obs.read(p, "/src/a");
/// obs.write(p, "/dst/a", 0xfeed);
/// let closure = obs.flush_closure("/dst/a");
/// // Ancestors first: the input file and the `cp` process precede /dst/a.
/// assert_eq!(closure.last().unwrap().name.as_deref(), Some("/dst/a"));
/// assert_eq!(closure.len(), 3);
/// assert!(obs.graph().find_cycle().is_none());
/// ```
pub struct Observer {
    rng: SmallRng,
    graph: ProvGraph,
    files: BTreeMap<String, Live>,
    procs: BTreeMap<Pid, Live>,
    pipes: BTreeMap<PipeId, Live>,
    /// Each live object's uuid to where it sits, so a flush finds the
    /// object behind a node without scanning; set where an object is
    /// created, moved on `rename`, dropped when the object goes.
    owners: HashMap<Uuid, Owner>,
    pending: HashMap<PNodeId, Pending>,
    flushed: HashSet<PNodeId>,
    /// The cycle test's scratch space, reused across edges.
    visit: Visit,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .finish()
    }
}

impl Observer {
    /// Creates an observer; `seed` drives UUID generation so runs are
    /// reproducible.
    pub fn new(seed: u64) -> Observer {
        Observer {
            rng: SmallRng::seed_from_u64(seed),
            graph: ProvGraph::new(),
            files: BTreeMap::new(),
            procs: BTreeMap::new(),
            pipes: BTreeMap::new(),
            owners: HashMap::new(),
            pending: HashMap::new(),
            flushed: HashSet::new(),
            visit: Visit::default(),
        }
    }

    /// The ground-truth DAG of everything observed so far.
    pub fn graph(&self) -> &ProvGraph {
        &self.graph
    }

    fn record(&mut self, subject: PNodeId, attr: Attr, value: impl Into<AttrValue>) {
        let rec = ProvenanceRecord::new(subject, attr, value);
        self.graph.apply(&rec);
        self.pending.entry(subject).or_default().records.push(rec);
    }

    fn fresh_uuid(&mut self) -> Uuid {
        Uuid(self.rng.gen())
    }

    fn new_file_node(&mut self, path: &str) -> PNodeId {
        let id = PNodeId::initial(self.fresh_uuid());
        self.record(id, Attr::Type, NodeKind::File.as_str());
        self.record(id, Attr::Name, path);
        self.files.insert(
            path.to_string(),
            Live {
                cur: id,
                kind: NodeKind::File,
                frozen: false,
                last_writer: None,
                name: Some(path.to_string()),
            },
        );
        self.owners.insert(id.uuid, Owner::File(path.to_string()));
        id
    }

    /// Drops the index entry of an object that has gone: unlinked,
    /// exited, or displaced at its key by another.
    fn gone(&mut self, old: Option<Live>) {
        if let Some(old) = old {
            self.owners.remove(&old.cur.uuid);
        }
    }

    fn ensure_file(&mut self, path: &str) -> PNodeId {
        match self.files.get(path) {
            Some(l) => l.cur,
            None => self.new_file_node(path),
        }
    }

    /// Freezes the current version of the object behind `cur` and starts
    /// the next one, linked by a `prev_version` edge and re-stamped with
    /// its identifying attributes.
    fn bump_version(&mut self, cur: PNodeId, kind: NodeKind, name: Option<String>) -> PNodeId {
        let next = cur.next();
        self.record(next, Attr::Type, kind.as_str());
        if let Some(n) = &name {
            self.record(next, Attr::Name, n.as_str());
        }
        self.record(next, Attr::PrevVersion, cur);
        next
    }

    /// Adds dependency `u → w` applying the causality-based versioning
    /// rule: if `w` transitively depends on `u`, `u` is bumped first.
    /// Returns the (possibly new) version of `u` carrying the edge.
    fn add_dependency(
        &mut self,
        u: PNodeId,
        w: PNodeId,
        u_kind: NodeKind,
        u_name: Option<String>,
        u_frozen: bool,
    ) -> PNodeId {
        // Duplicate edge on the current version: nothing to record.
        if !u_frozen && self.graph.deps(u).contains(&w) {
            return u;
        }
        let target = if u_frozen || self.graph.reaches_with(&mut self.visit, w, u) {
            self.bump_version(u, u_kind, u_name)
        } else {
            u
        };
        self.record(target, Attr::Input, w);
        target
    }

    /// Observes `exec`: creates (or versions) the process node and records
    /// its descriptive attributes.
    pub fn exec(&mut self, pid: Pid, info: ProcessInfo) -> PNodeId {
        let existing = self.procs.get(&pid).map(|l| (l.cur, l.name.clone()));
        let id = match existing {
            Some((cur, name)) => {
                // exec over an existing process starts a new version.
                let next = self.bump_version(cur, NodeKind::Process, name);
                // bump_version stamped the old name; the exec'd image may
                // rename the process.
                next
            }
            None => {
                let id = PNodeId::initial(self.fresh_uuid());
                self.record(id, Attr::Type, NodeKind::Process.as_str());
                self.owners.insert(id.uuid, Owner::Proc(pid));
                id
            }
        };
        let ProcessInfo {
            name,
            argv,
            env,
            exe_path,
            exec_time_micros,
        } = info;
        self.record(id, Attr::Name, name.as_str());
        self.record(id, Attr::Pid, pid.0.to_string());
        if !argv.is_empty() {
            self.record(id, Attr::Argv, argv.join(" "));
        }
        if !env.is_empty() {
            self.record(id, Attr::Env, env);
        }
        self.record(id, Attr::ExecTime, exec_time_micros.to_string());
        if let Some(exe) = &exe_path {
            let exe_node = self.ensure_file(exe);
            self.record(id, Attr::Input, exe_node);
        }
        self.procs.insert(
            pid,
            Live {
                cur: id,
                kind: NodeKind::Process,
                frozen: false,
                last_writer: None,
                name: Some(name),
            },
        );
        id
    }

    /// Observes `fork`: creates the child process node with a
    /// `forkparent` edge to the parent's current version.
    ///
    /// # Panics
    ///
    /// Panics if the parent pid is unknown.
    pub fn fork(&mut self, parent: Pid, child: Pid) -> PNodeId {
        let (parent_cur, parent_name) = {
            let p = self
                .procs
                .get(&parent)
                .unwrap_or_else(|| panic!("fork from unknown pid {parent:?}"));
            (p.cur, p.name.clone())
        };
        let id = PNodeId::initial(self.fresh_uuid());
        self.record(id, Attr::Type, NodeKind::Process.as_str());
        if let Some(n) = &parent_name {
            self.record(id, Attr::Name, n.as_str());
        }
        self.record(id, Attr::Pid, child.0.to_string());
        self.record(id, Attr::ForkParent, parent_cur);
        let old = self.procs.insert(
            child,
            Live {
                cur: id,
                kind: NodeKind::Process,
                frozen: false,
                last_writer: None,
                name: parent_name,
            },
        );
        self.gone(old);
        self.owners.insert(id.uuid, Owner::Proc(child));
        id
    }

    /// Observes a `read` system call: the process becomes dependent on the
    /// file's current version.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown (no prior `exec`/`fork`).
    pub fn read(&mut self, pid: Pid, path: &str) {
        let file_cur = self.ensure_file(path);
        let (proc_cur, proc_name, frozen) = {
            let p = self
                .procs
                .get(&pid)
                .unwrap_or_else(|| panic!("read from unknown pid {pid:?}"));
            (p.cur, p.name.clone(), p.frozen)
        };
        let new_proc =
            self.add_dependency(proc_cur, file_cur, NodeKind::Process, proc_name, frozen);
        let p = self.procs.get_mut(&pid).expect("proc vanished");
        p.cur = new_proc;
        if new_proc != proc_cur {
            p.frozen = false;
        }
    }

    /// Observes a `write` system call: the file becomes dependent on the
    /// process's current version. `data_hash` fingerprints the file
    /// contents after the write (flows into the `datahash` record used for
    /// coupling detection).
    ///
    /// Returns the file node version that received the write.
    ///
    /// # Panics
    ///
    /// Panics if the pid is unknown.
    pub fn write(&mut self, pid: Pid, path: &str, data_hash: u64) -> PNodeId {
        let file_cur = self.ensure_file(path);
        let proc_cur = self
            .procs
            .get(&pid)
            .unwrap_or_else(|| panic!("write from unknown pid {pid:?}"))
            .cur;
        let (frozen, last_writer) = {
            let f = &self.files[path];
            (f.frozen, f.last_writer)
        };
        // A new writer also starts a new version, so each version has a
        // single writing process (PASS attributes versions to writers).
        let writer_changed = last_writer.is_some() && last_writer != Some(proc_cur.uuid);
        let new_file = self.add_dependency(
            file_cur,
            proc_cur,
            NodeKind::File,
            Some(path.to_string()),
            frozen || writer_changed,
        );
        let f = self.files.get_mut(path).expect("file vanished");
        f.cur = new_file;
        f.frozen = false;
        f.last_writer = Some(proc_cur.uuid);
        let pend = self.pending.entry(new_file).or_default();
        pend.data_hash = Some(data_hash);
        new_file
    }

    /// Creates an unnamed pipe object.
    pub fn pipe_create(&mut self, pipe: PipeId) -> PNodeId {
        let id = PNodeId::initial(self.fresh_uuid());
        self.record(id, Attr::Type, NodeKind::Pipe.as_str());
        let old = self.pipes.insert(
            pipe,
            Live {
                cur: id,
                kind: NodeKind::Pipe,
                frozen: false,
                last_writer: None,
                name: None,
            },
        );
        self.gone(old);
        self.owners.insert(id.uuid, Owner::Pipe(pipe));
        id
    }

    /// Observes a write into a pipe.
    ///
    /// # Panics
    ///
    /// Panics if the pipe or pid is unknown.
    pub fn pipe_write(&mut self, pid: Pid, pipe: PipeId) {
        let proc_cur = self.procs[&pid].cur;
        let (pipe_cur, frozen, last_writer) = {
            let p = &self.pipes[&pipe];
            (p.cur, p.frozen, p.last_writer)
        };
        let writer_changed = last_writer.is_some() && last_writer != Some(proc_cur.uuid);
        let new_pipe = self.add_dependency(
            pipe_cur,
            proc_cur,
            NodeKind::Pipe,
            None,
            frozen || writer_changed,
        );
        let p = self.pipes.get_mut(&pipe).expect("pipe vanished");
        p.cur = new_pipe;
        p.last_writer = Some(proc_cur.uuid);
    }

    /// Observes a read from a pipe.
    ///
    /// # Panics
    ///
    /// Panics if the pipe or pid is unknown.
    pub fn pipe_read(&mut self, pid: Pid, pipe: PipeId) {
        let pipe_cur = self.pipes[&pipe].cur;
        let (proc_cur, proc_name, frozen) = {
            let p = &self.procs[&pid];
            (p.cur, p.name.clone(), p.frozen)
        };
        let new_proc =
            self.add_dependency(proc_cur, pipe_cur, NodeKind::Process, proc_name, frozen);
        self.procs.get_mut(&pid).expect("proc vanished").cur = new_proc;
    }

    /// Observes `rename`: the object keeps its identity, the current
    /// version gains the new name.
    pub fn rename(&mut self, from: &str, to: &str) {
        if let Some(mut live) = self.files.remove(from) {
            let cur = live.cur;
            live.name = Some(to.to_string());
            let old = self.files.insert(to.to_string(), live);
            self.gone(old);
            self.owners.insert(cur.uuid, Owner::File(to.to_string()));
            self.record(cur, Attr::Name, to);
        }
    }

    /// Observes `unlink`: the live object goes away; its provenance
    /// remains (data-independent persistence is the *storage* system's
    /// obligation, §3).
    pub fn unlink(&mut self, path: &str) {
        let old = self.files.remove(path);
        self.gone(old);
    }

    /// Observes process exit.
    pub fn exit(&mut self, pid: Pid) {
        let old = self.procs.remove(&pid);
        self.gone(old);
    }

    /// Current node version of a file, if tracked.
    pub fn file_node(&self, path: &str) -> Option<PNodeId> {
        self.files.get(path).map(|l| l.cur)
    }

    /// Current node version of a process, if alive.
    pub fn proc_node(&self, pid: Pid) -> Option<PNodeId> {
        self.procs.get(&pid).map(|l| l.cur)
    }

    fn node_dirty(&self, id: PNodeId) -> bool {
        self.pending
            .get(&id)
            .map(|p| !p.records.is_empty() || p.data_hash.is_some())
            .unwrap_or(false)
            || !self.flushed.contains(&id)
    }

    /// Extracts the unflushed ancestor closure of `path`'s current version
    /// in **ancestors-first** order, marking everything extracted as
    /// flushed and freezing the flushed versions (later writes start new
    /// versions).
    ///
    /// Returns an empty vector if the file is unknown or fully flushed.
    pub fn flush_closure(&mut self, path: &str) -> Vec<FlushNode> {
        let Some(start) = self.file_node(path) else {
            return Vec::new();
        };
        self.flush_closure_of(start)
    }

    /// Like [`Observer::flush_closure`] but starting from an explicit node
    /// (used for pipes/processes in tests).
    pub fn flush_closure_of(&mut self, start: PNodeId) -> Vec<FlushNode> {
        self.flush_with(start, Observer::live_of)
    }

    /// The live object whose current version is `id`, if any, found
    /// through the owner index. An entry whose object has moved on to
    /// another version matches nothing.
    fn live_of(&mut self, id: PNodeId) -> Option<&mut Live> {
        let live = match self.owners.get(&id.uuid)? {
            Owner::File(path) => self.files.get_mut(path.as_str()),
            Owner::Proc(pid) => self.procs.get_mut(pid),
            Owner::Pipe(pipe) => self.pipes.get_mut(pipe),
        }?;
        (live.cur == id).then_some(live)
    }

    /// [`Observer::flush_closure_of`] with the live-object lookup passed
    /// in (a test holds the index to the scan it replaced).
    fn flush_with(
        &mut self,
        start: PNodeId,
        live_of: fn(&mut Observer, PNodeId) -> Option<&mut Live>,
    ) -> Vec<FlushNode> {
        let mut order: Vec<PNodeId> = Vec::new();
        let mut visited: BTreeSet<PNodeId> = BTreeSet::new();
        // Iterative post-order DFS, pruning at clean nodes: a clean node's
        // ancestors were persisted when it was flushed.
        let mut stack: Vec<(PNodeId, bool)> = vec![(start, false)];
        while let Some((n, expanded)) = stack.pop() {
            if expanded {
                order.push(n);
                continue;
            }
            if visited.contains(&n) || !self.node_dirty(n) {
                continue;
            }
            visited.insert(n);
            stack.push((n, true));
            for d in self.graph.deps(n) {
                stack.push((*d, false));
            }
        }
        let mut out = Vec::with_capacity(order.len());
        for id in order {
            let pend = self.pending.remove(&id).unwrap_or_default();
            self.flushed.insert(id);
            // Freeze the live object whose current version just persisted.
            let (kind, name) = match live_of(self, id) {
                Some(live) => {
                    live.frozen = true;
                    (live.kind, live.name.clone())
                }
                // Historic version: recover kind/name from the graph.
                None => match self.graph.node(id) {
                    Some(data) => (
                        data.kind.unwrap_or(NodeKind::File),
                        data.name().map(str::to_string),
                    ),
                    None => (NodeKind::File, None),
                },
            };
            let mut records = pend.records;
            if let Some(h) = pend.data_hash {
                let rec = ProvenanceRecord::new(id, Attr::DataHash, format!("{h:016x}"));
                self.graph.apply(&rec);
                records.push(rec);
            }
            out.push(FlushNode {
                id,
                kind,
                name,
                records,
                data_hash: pend.data_hash,
            });
        }
        out
    }

    /// Total provenance records emitted so far (graph-wide).
    pub fn record_count(&self) -> usize {
        self.graph.edge_count()
            + self
                .graph
                .node_ids()
                .filter_map(|n| self.graph.node(n))
                .map(|d| d.attrs.len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(obs: &mut Observer, pid: u64, name: &str) -> PNodeId {
        obs.exec(
            Pid(pid),
            ProcessInfo {
                name: name.into(),
                argv: vec![name.into(), "-x".into()],
                ..ProcessInfo::default()
            },
        )
    }

    #[test]
    fn read_then_write_links_output_to_input() {
        let mut obs = Observer::new(1);
        exec(&mut obs, 1, "proc");
        obs.read(Pid(1), "/in");
        obs.write(Pid(1), "/out", 7);
        let out = obs.file_node("/out").unwrap();
        let input = obs.file_node("/in").unwrap();
        assert!(obs.graph().reaches(out, input), "out must depend on in");
        assert!(obs.graph().find_cycle().is_none());
    }

    #[test]
    fn write_after_read_same_file_versions_the_file() {
        // P reads F then writes F: recording the write on F@1 would create
        // the cycle F@1 -> P -> F@1, so F must become version 2.
        let mut obs = Observer::new(1);
        exec(&mut obs, 1, "p");
        obs.read(Pid(1), "/f");
        let v = obs.write(Pid(1), "/f", 1);
        assert_eq!(v.version, 2);
        assert!(obs.graph().find_cycle().is_none());
    }

    #[test]
    fn read_after_write_same_file_versions_the_process() {
        let mut obs = Observer::new(1);
        let p1 = exec(&mut obs, 1, "p");
        obs.write(Pid(1), "/f", 1);
        obs.read(Pid(1), "/f");
        let p_now = obs.proc_node(Pid(1)).unwrap();
        assert_eq!(p_now.uuid, p1.uuid);
        assert_eq!(p_now.version, 2, "process must have been versioned");
        assert!(obs.graph().find_cycle().is_none());
    }

    #[test]
    fn repeated_reads_are_deduplicated() {
        let mut obs = Observer::new(1);
        exec(&mut obs, 1, "p");
        obs.read(Pid(1), "/f");
        let edges_before = obs.graph().edge_count();
        for _ in 0..10 {
            obs.read(Pid(1), "/f");
        }
        assert_eq!(obs.graph().edge_count(), edges_before);
    }

    #[test]
    fn different_writers_get_different_versions() {
        let mut obs = Observer::new(1);
        exec(&mut obs, 1, "a");
        exec(&mut obs, 2, "b");
        let v1 = obs.write(Pid(1), "/f", 1);
        let v2 = obs.write(Pid(2), "/f", 2);
        assert_eq!(v1.version, 1);
        assert_eq!(v2.version, 2, "second writer starts a new version");
        assert!(obs.graph().reaches(v2, v1), "versions chain");
    }

    #[test]
    fn same_writer_stays_on_one_version() {
        let mut obs = Observer::new(1);
        exec(&mut obs, 1, "a");
        let v1 = obs.write(Pid(1), "/f", 1);
        let v2 = obs.write(Pid(1), "/f", 2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn fork_records_parent_edge() {
        let mut obs = Observer::new(1);
        let parent = exec(&mut obs, 1, "sh");
        let child = obs.fork(Pid(1), Pid(2));
        assert!(obs.graph().reaches(child, parent));
    }

    #[test]
    fn pipes_connect_processes() {
        let mut obs = Observer::new(1);
        let a = exec(&mut obs, 1, "producer");
        exec(&mut obs, 2, "consumer");
        obs.pipe_create(PipeId(1));
        obs.pipe_write(Pid(1), PipeId(1));
        obs.pipe_read(Pid(2), PipeId(1));
        obs.write(Pid(2), "/out", 3);
        let out = obs.file_node("/out").unwrap();
        assert!(obs.graph().reaches(out, a), "output depends on producer");
        assert!(obs.graph().find_cycle().is_none());
    }

    #[test]
    fn flush_closure_is_ancestors_first_and_complete() {
        let mut obs = Observer::new(1);
        exec(&mut obs, 1, "p");
        obs.read(Pid(1), "/in");
        obs.write(Pid(1), "/out", 9);
        let closure = obs.flush_closure("/out");
        let ids: Vec<_> = closure.iter().map(|n| n.id).collect();
        // Every node's deps that appear in the closure must precede it.
        for (i, n) in ids.iter().enumerate() {
            for d in obs.graph().deps(*n) {
                if let Some(j) = ids.iter().position(|x| x == d) {
                    assert!(j < i, "dependency {d} must precede {n}");
                }
            }
        }
        // exe-less run: /in file, process, /out file (+ nothing else).
        assert_eq!(closure.len(), 3);
        assert_eq!(closure.last().unwrap().name.as_deref(), Some("/out"));
        // The written file carries a datahash record.
        assert!(closure
            .last()
            .unwrap()
            .records
            .iter()
            .any(|r| r.attr == Attr::DataHash));
    }

    #[test]
    fn second_flush_is_incremental() {
        let mut obs = Observer::new(1);
        exec(&mut obs, 1, "p");
        obs.write(Pid(1), "/out", 1);
        let first = obs.flush_closure("/out");
        assert!(!first.is_empty());
        // Nothing new: closure is empty.
        assert!(obs.flush_closure("/out").is_empty());
        // New write after flush starts version 2 (frozen version rule).
        let v = obs.write(Pid(1), "/out", 2);
        assert_eq!(v.version, 2);
        let second = obs.flush_closure("/out");
        let ids: Vec<_> = second.iter().map(|n| n.id).collect();
        assert!(ids.contains(&v));
        assert!(
            !ids.iter().any(|i| first.iter().any(|f| f.id == *i)),
            "already-flushed nodes must not repeat unless re-dirtied"
        );
    }

    #[test]
    fn flush_includes_redirtied_ancestors() {
        let mut obs = Observer::new(1);
        exec(&mut obs, 1, "p");
        obs.write(Pid(1), "/a", 1);
        obs.flush_closure("/a");
        // The process reads a NEW file: the process node re-dirties.
        obs.read(Pid(1), "/b");
        obs.write(Pid(1), "/c", 2);
        let closure = obs.flush_closure("/c");
        let names: Vec<_> = closure.iter().filter_map(|n| n.name.clone()).collect();
        assert!(names.contains(&"/b".to_string()), "new ancestor included");
        assert!(!names.contains(&"/a".to_string()), "clean node pruned");
    }

    #[test]
    fn exec_records_expected_attributes() {
        let mut obs = Observer::new(1);
        let id = obs.exec(
            Pid(5),
            ProcessInfo {
                name: "blast".into(),
                argv: vec!["blast".into(), "-db".into(), "nr".into()],
                env: "PATH=/usr/bin\nLANG=C".into(),
                exe_path: Some("/usr/bin/blast".into()),
                exec_time_micros: 12345,
            },
        );
        let node = obs.graph().node(id).unwrap();
        assert_eq!(node.kind, Some(NodeKind::Process));
        assert_eq!(node.name(), Some("blast"));
        assert_eq!(node.attr(&Attr::Pid), Some("5"));
        assert_eq!(node.attr(&Attr::Argv), Some("blast -db nr"));
        assert_eq!(node.attr(&Attr::ExecTime), Some("12345"));
        assert_eq!(node.attr(&Attr::Env), Some("PATH=/usr/bin\nLANG=C"));
        // Depends on the executable.
        let exe = obs.file_node("/usr/bin/blast").unwrap();
        assert!(obs.graph().reaches(id, exe));
    }

    #[test]
    fn rename_tracks_identity() {
        let mut obs = Observer::new(1);
        exec(&mut obs, 1, "p");
        let v = obs.write(Pid(1), "/tmp/x", 1);
        obs.rename("/tmp/x", "/data/x");
        assert_eq!(obs.file_node("/data/x"), Some(v));
        assert_eq!(obs.file_node("/tmp/x"), None);
    }

    #[test]
    fn unlink_keeps_provenance() {
        let mut obs = Observer::new(1);
        exec(&mut obs, 1, "p");
        let v = obs.write(Pid(1), "/f", 1);
        obs.unlink("/f");
        assert_eq!(obs.file_node("/f"), None);
        assert!(obs.graph().node(v).is_some(), "provenance outlives data");
    }

    /// Every live object's uuid is indexed at its key, and nothing else.
    fn assert_owners_cover_the_live(obs: &Observer) {
        let objects = obs.files.len() + obs.procs.len() + obs.pipes.len();
        assert_eq!(
            obs.owners.len(),
            objects,
            "the index holds only live objects"
        );
        let live = obs
            .files
            .iter()
            .map(|(path, l)| (l.cur.uuid, Owner::File(path.clone())))
            .chain(obs.procs.iter().map(|(p, l)| (l.cur.uuid, Owner::Proc(*p))))
            .chain(obs.pipes.iter().map(|(q, l)| (l.cur.uuid, Owner::Pipe(*q))));
        for (uuid, owner) in live {
            assert_eq!(obs.owners.get(&uuid), Some(&owner));
        }
    }

    /// Every live object's key, current version and `frozen` flag.
    fn live_states(obs: &Observer) -> Vec<(String, PNodeId, bool)> {
        let files = obs.files.iter().map(|(k, l)| (k.clone(), l));
        let procs = obs.procs.iter().map(|(k, l)| (format!("{k:?}"), l));
        let pipes = obs.pipes.iter().map(|(k, l)| (format!("{k:?}"), l));
        files
            .chain(procs)
            .chain(pipes)
            .map(|(k, l)| (k, l.cur, l.frozen))
            .collect()
    }

    /// Two observers fed the same events, one flushing through the
    /// owner index and one through the scan it replaced.
    struct Twins {
        indexed: Observer,
        scanned: Observer,
        flushes: usize,
    }

    impl Twins {
        fn new(seed: u64) -> Twins {
            Twins {
                indexed: Observer::new(seed),
                scanned: Observer::new(seed),
                flushes: 0,
            }
        }

        fn both(&mut self, f: impl Fn(&mut Observer)) {
            f(&mut self.indexed);
            f(&mut self.scanned);
        }

        /// Flushes `start` on both and holds them to the same nodes and
        /// the same live objects frozen; returns the closure.
        fn flush(&mut self, start: PNodeId) -> Vec<FlushNode> {
            let got = self.indexed.flush_closure_of(start);
            let want = self.scanned.flush_with(start, Observer::live_by_scan);
            assert_eq!(got, want, "closure of {start}");
            assert_eq!(live_states(&self.indexed), live_states(&self.scanned));
            assert_owners_cover_the_live(&self.indexed);
            self.flushes += got.len();
            got
        }
    }

    impl Observer {
        /// The lookup the owner index replaced: a scan of every live
        /// file, process and pipe, in that order.
        fn live_by_scan(&mut self, id: PNodeId) -> Option<&mut Live> {
            self.files
                .values_mut()
                .chain(self.procs.values_mut())
                .chain(self.pipes.values_mut())
                .find(|live| live.cur == id)
        }
    }

    /// The reachability test `reaches_with` replaced: a fresh
    /// `BTreeSet` per call.
    fn reaches_by_btree(g: &ProvGraph, from: PNodeId, to: PNodeId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            for d in g.deps(n) {
                if *d == to {
                    return true;
                }
                stack.push(*d);
            }
        }
        false
    }

    /// Replays a seeded script on twins, adding exits, pid reuse (an
    /// exec after an exit, a fork over a live pid) and flushes of
    /// processes and pipes to its renames and unlinks.
    fn replay_twins(seed: u64, len: usize) -> Twins {
        use cloudprov_workloads::testkit::{file_path, random_script, ScriptEvent};
        let mut twins = Twins::new(seed);
        let mut execed = BTreeSet::new();
        let mut pipes = BTreeSet::new();
        for (i, ev) in random_script(seed, len).into_iter().enumerate() {
            let pid = |p: u8| Pid(u64::from(p));
            match ev {
                ScriptEvent::Exec(p) => {
                    if i % 3 == 0 && execed.contains(&p) {
                        twins.both(|o| o.exit(pid(p)));
                    }
                    let parent = p.wrapping_sub(1);
                    if i % 5 == 1 && execed.contains(&parent) {
                        twins.both(|o| {
                            o.fork(pid(parent), pid(p));
                        });
                    } else {
                        twins.both(|o| {
                            o.exec(
                                pid(p),
                                ProcessInfo {
                                    name: format!("proc{p}"),
                                    env: format!("K={i}\nL=\t\\"),
                                    exe_path: (i % 2 == 0).then(|| format!("/bin/p{p}")),
                                    ..ProcessInfo::default()
                                },
                            );
                        });
                    }
                    execed.insert(p);
                }
                ScriptEvent::Read(p, f) if execed.contains(&p) => {
                    if i % 11 == 0 {
                        twins.both(|o| o.exit(pid(p)));
                        execed.remove(&p);
                    } else {
                        twins.both(|o| o.read(pid(p), &file_path(f)));
                    }
                }
                ScriptEvent::Write(p, f) if execed.contains(&p) => {
                    twins.both(|o| {
                        o.write(pid(p), &file_path(f), i as u64);
                    });
                }
                ScriptEvent::PipeWrite(p, q) if execed.contains(&p) => {
                    let q = PipeId(u64::from(q));
                    if pipes.insert(q) {
                        twins.both(|o| {
                            o.pipe_create(q);
                        });
                    }
                    twins.both(|o| o.pipe_write(pid(p), q));
                }
                ScriptEvent::PipeRead(p, q) if execed.contains(&p) => {
                    let q = PipeId(u64::from(q));
                    if pipes.contains(&q) {
                        twins.both(|o| o.pipe_read(pid(p), q));
                    }
                }
                ScriptEvent::Close(f) => {
                    let start = match i % 4 {
                        0 => twins.indexed.proc_node(pid(f % 6)),
                        1 => twins
                            .indexed
                            .pipes
                            .get(&PipeId(u64::from(f % 3)))
                            .map(|l| l.cur),
                        _ => twins.indexed.file_node(&file_path(f)),
                    };
                    if let Some(start) = start {
                        twins.flush(start);
                    }
                }
                ScriptEvent::Rename(a, b) if a != b => {
                    twins.both(|o| o.rename(&file_path(a), &file_path(b)));
                }
                ScriptEvent::Unlink(f) => twins.both(|o| o.unlink(&file_path(f))),
                _ => {}
            }
        }
        assert_owners_cover_the_live(&twins.indexed);
        twins
    }

    #[test]
    fn indexed_flush_matches_the_scan_over_random_scripts() {
        let mut flushed = 0;
        for seed in 0..24 {
            let twins = replay_twins(seed, 400);
            flushed += twins.flushes;
            // Historic versions of live and gone objects flush through
            // the graph, as the scan left them.
            let mut twins = twins;
            let ids: Vec<PNodeId> = twins.indexed.graph().node_ids().collect();
            for id in ids.into_iter().step_by(5) {
                twins.flush(id);
            }
        }
        assert!(flushed > 1000, "the scripts flush ({flushed} nodes)");
    }

    #[test]
    fn reaches_with_matches_a_fresh_dfs() {
        let twins = replay_twins(3, 300);
        let g = twins.indexed.graph();
        let ids: Vec<PNodeId> = g.node_ids().collect();
        let mut visit = Visit::default();
        let (mut yes, mut no) = (0, 0);
        for (i, &from) in ids.iter().enumerate() {
            for &to in ids.iter().skip(i % 3).step_by(3) {
                let want = reaches_by_btree(g, from, to);
                assert_eq!(g.reaches_with(&mut visit, from, to), want, "{from} -> {to}");
                assert_eq!(g.reaches(from, to), want);
                if want {
                    yes += 1;
                } else {
                    no += 1;
                }
            }
        }
        assert!(yes > 100 && no > 100, "both answers tested ({yes} / {no})");
    }

    #[test]
    fn renames_over_live_files_and_reused_pids_flush_as_the_scan() {
        let mut twins = Twins::new(5);
        twins.both(|o| {
            exec(o, 1, "p");
            exec(o, 2, "q");
            o.write(Pid(1), "/a", 1);
            o.write(Pid(2), "/b", 2);
        });
        let b = twins.indexed.file_node("/b").unwrap();
        // /a's object takes /b's key; /b's old object, never flushed,
        // is gone and flushes with its kind and name from the graph.
        twins.both(|o| o.rename("/a", "/b"));
        let a = twins.indexed.file_node("/b").unwrap();
        assert_ne!(a, b);
        assert!(!twins.indexed.owners.contains_key(&b.uuid));
        let gone = twins.flush(b);
        assert_eq!(
            gone.last().map(|n| (n.id, n.kind)),
            Some((b, NodeKind::File))
        );
        assert_eq!(gone.last().unwrap().name.as_deref(), Some("/b"));
        twins.both(|o| {
            o.write(Pid(2), "/b", 3);
        });
        let renamed = twins.flush(twins.indexed.file_node("/b").unwrap());
        assert!(renamed.iter().any(|n| n.id == a));
        assert!(twins.indexed.files["/b"].frozen);
        // A fork over live pid 2, whose current version is unflushed,
        // then an exit and an exec reusing the pid.
        twins.both(|o| o.read(Pid(2), "/e"));
        let q = twins.indexed.proc_node(Pid(2)).unwrap();
        twins.both(|o| {
            o.fork(Pid(1), Pid(2));
        });
        let child = twins.indexed.proc_node(Pid(2)).unwrap();
        assert!(!twins.indexed.owners.contains_key(&q.uuid));
        twins.both(|o| {
            o.write(Pid(2), "/c", 4);
        });
        twins.flush(twins.indexed.file_node("/c").unwrap());
        assert!(!twins.flush(q).is_empty(), "the displaced process flushes");
        twins.both(|o| {
            o.exit(Pid(2));
            exec(o, 2, "r");
            o.write(Pid(2), "/d", 5);
        });
        assert!(!twins.indexed.owners.contains_key(&child.uuid));
        let d = twins.flush(twins.indexed.file_node("/d").unwrap());
        assert!(d.iter().any(|n| n.name.as_deref() == Some("r")));
        assert!(twins.indexed.procs[&Pid(2)].frozen);
        twins.flush(child);
    }

    #[test]
    fn deep_pipeline_stays_acyclic_with_correct_depth() {
        // A chain of 11 stages like the challenge workload.
        let mut obs = Observer::new(1);
        let mut input = "/stage0".to_string();
        exec(&mut obs, 0, "init");
        obs.write(Pid(0), &input, 0);
        for i in 1..=11u64 {
            exec(&mut obs, i, &format!("stage{i}"));
            obs.read(Pid(i), &input);
            let out = format!("/stage{i}");
            obs.write(Pid(i), &out, i);
            input = out;
        }
        assert!(obs.graph().find_cycle().is_none());
        let last = obs.file_node("/stage11").unwrap();
        assert!(obs.graph().depth_from(last) >= 11);
    }
}
