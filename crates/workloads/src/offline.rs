//! Offline provenance collection (§5.1's microbenchmark setup).
//!
//! "To isolate the protocol throughput from the application and provenance
//! collection overheads, we ran the Blast benchmark on an unmodified PASS
//! system and captured the provenance. We then built a tool that uploaded
//! the data objects and their provenance to the cloud using each
//! protocol." This module is the capture half: replay a trace through the
//! PASS observer **without any cloud or clock**, returning every
//! provenance node and the final state of every written file.

use std::collections::BTreeMap;

use cloudprov_pass::{FlushNode, Observer, Pid, PipeId, ProcessInfo, ProvGraph};

use crate::trace::{synthetic_env, Trace, TraceEvent};

/// Final state of one file produced by the workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OfflineFile {
    /// Path within the workload namespace.
    pub path: String,
    /// Final size in bytes.
    pub size: u64,
    /// Final content fingerprint.
    pub fingerprint: u64,
    /// True if the workload wrote this file (false: read-only input).
    /// Only written files are data objects the upload tool pushes.
    pub written: bool,
}

/// Captured run: provenance nodes (in flush order, ancestors before
/// descendants within each closure) plus final file states.
#[derive(Clone, Debug)]
pub struct OfflineRun {
    /// All flushed provenance nodes.
    pub nodes: Vec<FlushNode>,
    /// All files the workload wrote, with final sizes.
    pub files: Vec<OfflineFile>,
    /// Ground-truth DAG.
    pub graph: ProvGraph,
}

impl OfflineRun {
    /// Total file payload bytes.
    pub fn data_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }
}

fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    x
}

/// Replays `trace` through a PASS observer only (no cloud, no virtual
/// time), capturing provenance and file states.
pub fn collect(trace: &Trace) -> OfflineRun {
    let mut obs = Observer::new(0xC0FFEE);
    // size, fp, dirty, ever-written
    let mut files: BTreeMap<String, (u64, u64, bool, bool)> = BTreeMap::new();
    let mut nodes: Vec<FlushNode> = Vec::new();
    for (tick, event) in trace.events.iter().enumerate() {
        let clock = tick as u64 + 1;
        match event {
            TraceEvent::Exec {
                pid,
                name,
                argv,
                env_bytes,
                exe,
            } => {
                obs.exec(
                    Pid(*pid),
                    ProcessInfo {
                        name: name.clone(),
                        argv: argv.clone(),
                        env: synthetic_env(*env_bytes, pid ^ name.len() as u64),
                        exe_path: exe.clone(),
                        exec_time_micros: clock,
                    },
                );
            }
            TraceEvent::Fork { parent, child } => {
                obs.fork(Pid(*parent), Pid(*child));
            }
            TraceEvent::Read { pid, path, bytes } => {
                files.entry(path.clone()).or_insert((
                    *bytes,
                    mix(0x5EED, path.len() as u64),
                    false,
                    false,
                ));
                obs.read(Pid(*pid), path);
            }
            TraceEvent::Write { pid, path, bytes } => {
                let entry = files.entry(path.clone()).or_insert((
                    0,
                    mix(0xF11E, path.len() as u64),
                    false,
                    false,
                ));
                entry.0 += bytes;
                entry.1 = mix(entry.1, bytes ^ entry.0);
                entry.2 = true;
                entry.3 = true;
                obs.write(Pid(*pid), path, entry.1);
            }
            TraceEvent::Close { pid, path } => {
                let _ = pid;
                if files.get(path).is_some_and(|f| f.2) {
                    nodes.extend(obs.flush_closure(path));
                    if let Some(f) = files.get_mut(path) {
                        f.2 = false;
                    }
                }
            }
            TraceEvent::PipeCreate { id } => {
                obs.pipe_create(PipeId(*id));
            }
            TraceEvent::PipeWrite { pid, id } => obs.pipe_write(Pid(*pid), PipeId(*id)),
            TraceEvent::PipeRead { pid, id } => obs.pipe_read(Pid(*pid), PipeId(*id)),
            TraceEvent::Unlink { pid, path } => {
                let _ = pid;
                files.remove(path);
                obs.unlink(path);
            }
            TraceEvent::Rename { pid, from, to } => {
                let _ = pid;
                if let Some(f) = files.remove(from) {
                    files.insert(to.clone(), f);
                }
                obs.rename(from, to);
            }
            TraceEvent::Exit { pid } => obs.exit(Pid(*pid)),
            // No cloud and no clock in offline mode.
            TraceEvent::Open { .. }
            | TraceEvent::Stat { .. }
            | TraceEvent::Compute { .. }
            | TraceEvent::MemBound { .. } => {}
        }
    }
    // Flush anything still dirty.
    let dirty: Vec<String> = files
        .iter()
        .filter(|(_, (_, _, d, _))| *d)
        .map(|(p, _)| p.clone())
        .collect();
    for path in dirty {
        nodes.extend(obs.flush_closure(&path));
    }
    let file_list = files
        .iter()
        .map(|(path, (size, fp, _, written))| OfflineFile {
            path: path.clone(),
            size: *size,
            fingerprint: *fp,
            written: *written,
        })
        .collect();
    OfflineRun {
        nodes,
        files: file_list,
        graph: obs.graph().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blast::{blast, BlastParams};

    /// Total wire-encoded provenance bytes of a run.
    fn provenance_bytes(run: &OfflineRun) -> usize {
        run.nodes
            .iter()
            .flat_map(|n| &n.records)
            .map(|r| r.wire_len())
            .sum()
    }

    #[test]
    fn collect_produces_nodes_and_files() {
        let run = collect(&blast(BlastParams::small()));
        assert!(!run.nodes.is_empty());
        assert!(!run.files.is_empty());
        assert!(provenance_bytes(&run) > 0);
        assert!(run.data_bytes() > 0);
        assert!(run.graph.find_cycle().is_none());
    }

    #[test]
    fn every_flushed_node_has_graph_presence() {
        let run = collect(&blast(BlastParams::small()));
        for n in &run.nodes {
            assert!(run.graph.node(n.id).is_some(), "missing {:?}", n.id);
        }
    }

    #[test]
    fn closure_order_is_ancestors_first_per_flush() {
        let run = collect(&blast(BlastParams::small()));
        // Duplicates across closures are impossible: each node flushes once
        // unless re-dirtied with NEW records.
        let mut seen = std::collections::BTreeSet::new();
        for n in &run.nodes {
            if !n.records.is_empty() {
                // A node may appear again only with fresh records.
                seen.insert((n.id, n.records.len()));
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn blast_full_scale_provenance_volume() {
        let run = collect(&blast(BlastParams::default()));
        let mb = provenance_bytes(&run) as f64 / 1e6;
        // Table 3 implies 2-6 MB of provenance for the Blast upload set.
        assert!((1.5..8.0).contains(&mb), "got {mb} MB of provenance");
    }
}
