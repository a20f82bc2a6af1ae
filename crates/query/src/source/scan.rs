//! [`S3ScanSource`] — the P1 layout: provenance objects under a key
//! prefix, readable only by scanning.
//!
//! Every scan validates every byte of every object, but copies only what
//! its answer returns: Q.1 ([`GraphSource::all_records`]) copies out every
//! record, while Q.3 and Q.4 fold over the records each object lends
//! ([`ScanFold`]) and copy out only the records of Q.3's output nodes.

use cloudprov_cloud::{Actor, Blob, CloudEnv};
use cloudprov_pass::{wire, PNodeId, ProvenanceRecord};

use super::local::{self, ScanFold};
use super::{GraphSource, Mode, OutputSet, Result};

/// Scan-based access to P1's S3 provenance objects: LIST pages + one GET
/// per object (sequential or parallel). There are no indexes, so every
/// selective question is answered with a full scan and local filtering —
/// §5.3: "In S3, this requires a scan of all provenance objects". The
/// planner therefore prefers one scan per query, evaluated locally, to
/// several point questions.
#[derive(Clone, Debug)]
pub struct S3ScanSource {
    env: CloudEnv,
    bucket: String,
    prefix: String,
    parallelism: usize,
}

impl S3ScanSource {
    /// A scan source over `bucket`/`prefix` fanning parallel GETs over
    /// `parallelism` connections.
    pub fn new(env: &CloudEnv, bucket: &str, prefix: &str, parallelism: usize) -> S3ScanSource {
        S3ScanSource {
            env: env.clone(),
            bucket: bucket.to_string(),
            prefix: prefix.to_string(),
            parallelism: parallelism.max(1),
        }
    }

    /// LISTs the provenance objects and hands each one's payload to `f`,
    /// in key order. Sequential mode hands an object over before the next
    /// GET, so an error from `f` ends the scan after the GETs made so far.
    /// Parallel mode GETs every object first, then hands them over, so
    /// the first error in key order wins, whether a GET's or `f`'s.
    pub(crate) fn scan(&self, mode: Mode, mut f: impl FnMut(Blob) -> Result<()>) -> Result<()> {
        let s3 = self.env.s3().with_actor(Actor::Query);
        let keys = s3.list_all(&self.bucket, &self.prefix)?;
        match mode {
            Mode::Sequential => {
                for k in keys {
                    f(s3.get(&self.bucket, &k.key)?.blob)?;
                }
            }
            Mode::Parallel => {
                let tasks: Vec<_> = keys
                    .into_iter()
                    .map(|k| {
                        let s3 = s3.clone();
                        let bucket = self.bucket.clone();
                        move || s3.get(&bucket, &k.key)
                    })
                    .collect();
                let sim = self.env.sim().clone();
                for got in sim.run_parallel(self.parallelism, tasks) {
                    f(got?.blob)?;
                }
            }
        }
        Ok(())
    }

    /// One scan folded for Q.3/Q.4, seeded by the processes named
    /// `program` when given.
    fn fold<'p>(&self, program: Option<&'p str>, mode: Mode) -> Result<ScanFold<'p>> {
        let mut fold = ScanFold::new(program);
        self.scan(mode, |blob| Ok(fold.object(blob)?))?;
        Ok(fold)
    }

    /// Q.3 in one scan: the files directly output by the processes named
    /// `program`, and their records.
    pub(crate) fn outputs_of_program(&self, program: &str, mode: Mode) -> Result<OutputSet> {
        let fold = self.fold(Some(program), mode)?;
        let (nodes, records) = fold.direct_outputs(&fold.processes_named());
        Ok(OutputSet { nodes, records })
    }

    /// Q.4 in one scan: every transitive dependent of the processes
    /// named `program`.
    pub(crate) fn descendants_of_program(&self, program: &str, mode: Mode) -> Result<Vec<PNodeId>> {
        let fold = self.fold(Some(program), mode)?;
        Ok(fold.descendants(&fold.processes_named()))
    }
}

impl GraphSource for S3ScanSource {
    fn name(&self) -> &'static str {
        "s3-scan"
    }

    fn all_records(&self, mode: Mode) -> Result<Vec<ProvenanceRecord>> {
        let mut out = Vec::new();
        self.scan(mode, |blob| {
            Ok(wire::visit(local::payload(&blob), |r| {
                out.push(r.to_owned())
            })?)
        })?;
        Ok(out)
    }

    fn uuid_records(&self, id: PNodeId) -> Result<Vec<ProvenanceRecord>> {
        // One targeted GET: the provenance object is keyed by uuid.
        let s3 = self.env.s3().with_actor(Actor::Query);
        let key = format!("{}{}", self.prefix, id.uuid);
        let obj = s3.get(&self.bucket, &key)?;
        Ok(wire::decode(local::payload(&obj.blob))?)
    }

    fn processes_named(&self, program: &str, mode: Mode) -> Result<Vec<PNodeId>> {
        Ok(self.fold(Some(program), mode)?.processes_named())
    }

    fn direct_outputs(&self, procs: &[PNodeId], mode: Mode) -> Result<OutputSet> {
        let (nodes, records) = self.fold(None, mode)?.direct_outputs(procs);
        Ok(OutputSet { nodes, records })
    }

    fn descendants_of(&self, seeds: &[PNodeId], mode: Mode) -> Result<Vec<PNodeId>> {
        Ok(self.fold(None, mode)?.descendants(seeds))
    }

    fn fetch_records(&self, nodes: &[PNodeId], mode: Mode) -> Result<Vec<ProvenanceRecord>> {
        // One GET per distinct uuid — targeted, unlike the filters above.
        let uuids: std::collections::BTreeSet<_> = nodes.iter().map(|n| n.uuid).collect();
        let wanted: std::collections::BTreeSet<PNodeId> = nodes.iter().copied().collect();
        let pages: Vec<Vec<ProvenanceRecord>> = match mode {
            Mode::Sequential => uuids
                .into_iter()
                .map(|uuid| self.uuid_records(PNodeId::initial(uuid)))
                .collect::<Result<_>>()?,
            Mode::Parallel => {
                let tasks: Vec<_> = uuids
                    .into_iter()
                    .map(|uuid| {
                        let this = self.clone();
                        move || this.uuid_records(PNodeId::initial(uuid))
                    })
                    .collect();
                self.env
                    .sim()
                    .clone()
                    .run_parallel(self.parallelism, tasks)
                    .into_iter()
                    .collect::<Result<_>>()?
            }
        };
        Ok(pages
            .into_iter()
            .flatten()
            .filter(|r| wanted.contains(&r.subject))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use cloudprov_cloud::{AwsProfile, Op, Service};
    use cloudprov_core::{ProtocolError, ProvenanceStore};
    use cloudprov_pass::wire::WireError;
    use cloudprov_pass::{Attr, AttrValue, Uuid};
    use cloudprov_sim::Sim;
    use proptest::prelude::*;

    const BUCKET: &str = "prov";
    const PREFIX: &str = "p1/";
    const MODES: [Mode; 2] = [Mode::Sequential, Mode::Parallel];

    /// Four nodes, two versions each of two objects: few enough that
    /// edges often reach a named process.
    fn node(i: u8) -> PNodeId {
        PNodeId {
            uuid: Uuid(u128::from(i % 2) + 1),
            version: u32::from(i / 2 % 2) + 1,
        }
    }

    /// The Q.3/Q.4 programs: plain, one whose `name` is escaped on the
    /// wire, and a node id, which an xref-valued `name` formats to.
    fn programs() -> [String; 3] {
        ["blast".into(), "bl\tast|x".into(), node(1).to_string()]
    }

    /// Records over the four nodes: `type`s that disagree (process, file,
    /// pipe, or an xref), `name`s to match or not, `input` edges (one
    /// text-valued), escaped `env` text, and a custom attribute that
    /// unescapes to a near-miss of `type`.
    fn record() -> impl Strategy<Value = ProvenanceRecord> {
        (0u8..8, 0u8..8, 0u8..8).prop_map(|(subject, attr, v)| {
            let (attr, value): (Attr, AttrValue) = match attr {
                0 | 1 => (
                    Attr::Type,
                    match v % 4 {
                        0 => "process".into(),
                        1 => "file".into(),
                        2 => "pipe".into(),
                        _ => node(v).into(),
                    },
                ),
                2 | 3 => (
                    Attr::Name,
                    match v % 4 {
                        0 => "blast".into(),
                        1 => "bl\tast|x".into(),
                        2 => node(1).into(),
                        _ => "other".into(),
                    },
                ),
                4 | 5 if v == 7 => (Attr::Input, node(1).to_string().into()),
                4 | 5 => (Attr::Input, node(v).into()),
                6 => (Attr::Env, "A=1\nB=\\2\r|".into()),
                _ => (Attr::Custom("ty\tpe".into()), "process".into()),
            };
            ProvenanceRecord::new(node(subject), attr, value)
        })
    }

    /// A P1 store holding `objects`, in key order, and an engine over it.
    fn world(objects: &[Vec<u8>]) -> (Sim, CloudEnv, QueryEngine) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        for (i, bytes) in objects.iter().enumerate() {
            env.s3()
                .put(
                    BUCKET,
                    &format!("{PREFIX}{i}"),
                    bytes.clone().into(),
                    Default::default(),
                )
                .unwrap();
        }
        let store = ProvenanceStore::S3Objects {
            bucket: BUCKET.into(),
            prefix: PREFIX.into(),
        };
        let engine = QueryEngine::new(&env, store, "data");
        (sim, env, engine)
    }

    fn gets(env: &CloudEnv) -> u64 {
        env.usage()
            .get(Actor::Query, Service::ObjectStore, Op::Get)
            .count
    }

    fn wire_error<T: std::fmt::Debug>(r: Result<T>) -> WireError {
        match r {
            Err(ProtocolError::Wire(e)) => e,
            other => panic!("expected a wire error, got {other:?}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Q.3 (nodes and records) and Q.4 folded over the scan — through
        /// the engine's scan plan and through the source's trait methods —
        /// equal the record-set reference over `all_records`, in both
        /// modes. With one object corrupted, every path fails with the
        /// decoder's error after the GETs the owned scan makes: up to the
        /// bad object in sequence, all of them in parallel.
        #[test]
        fn the_scan_fold_matches_the_record_set_reference(
            placed in proptest::collection::vec((record(), 0u8..4), 0..32),
            corrupt in (0u8..4, 0u8..3),
        ) {
            // Records land in objects at random, so a subject's records
            // may be split across two or more objects.
            let mut objects = vec![Vec::new(); 4];
            for (r, at) in &placed {
                objects[usize::from(*at)].extend_from_slice(&wire::encode(std::slice::from_ref(r)));
            }
            objects.retain(|o| !o.is_empty());
            let (_sim, env, engine) = world(&objects);
            let scan = S3ScanSource::new(&env, BUCKET, PREFIX, 3);
            for mode in MODES {
                let raw = scan.all_records(mode).unwrap();
                for program in &programs() {
                    let procs = local::processes_named(&raw, program);
                    let (nodes, records) = local::direct_outputs(&raw, &procs);
                    let descendants = local::descendants(&raw, &procs);
                    let q3 = engine.q3_outputs_of(program, mode).unwrap();
                    prop_assert_eq!((&q3.nodes, &q3.records), (&nodes, &records), "{:?} {}", mode, program);
                    let q4 = engine.q4_descendants_of(program, mode).unwrap();
                    prop_assert_eq!(&q4.nodes, &descendants, "{:?} {}", mode, program);
                    prop_assert_eq!(scan.processes_named(program, mode).unwrap(), procs.clone());
                    let out = scan.direct_outputs(&procs, mode).unwrap();
                    prop_assert_eq!((out.nodes, out.records), (nodes, records));
                    prop_assert_eq!(scan.descendants_of(&procs, mode).unwrap(), descendants);
                }
            }

            if objects.is_empty() {
                return Ok(());
            }
            let (which, how) = (usize::from(corrupt.0) % objects.len(), corrupt.1);
            match how {
                0 => objects[which].extend_from_slice(b"not a record\n"),
                1 => objects[which].insert(0, 0xff),
                _ => objects[which].extend_from_slice(format!("{}\tname\tt\tb\\q\n", node(0)).as_bytes()),
            }
            let (_sim, env, engine) = world(&objects);
            let scan = S3ScanSource::new(&env, BUCKET, PREFIX, 3);
            for mode in MODES {
                let made = match mode {
                    Mode::Sequential => which + 1,
                    Mode::Parallel => objects.len(),
                } as u64;
                let before = gets(&env);
                let want = wire_error(scan.all_records(mode));
                prop_assert_eq!(gets(&env) - before, made);
                let program = &programs()[0];
                let before = gets(&env);
                prop_assert_eq!(wire_error(engine.q3_outputs_of(program, mode)), want.clone());
                prop_assert_eq!(wire_error(engine.q4_descendants_of(program, mode)), want.clone());
                prop_assert_eq!(wire_error(scan.processes_named(program, mode)), want.clone());
                prop_assert_eq!(wire_error(scan.direct_outputs(&[node(0)], mode)), want.clone());
                prop_assert_eq!(wire_error(scan.descendants_of(&[node(0)], mode)), want);
                prop_assert_eq!(gets(&env) - before, 5 * made);
            }
        }
    }
}
