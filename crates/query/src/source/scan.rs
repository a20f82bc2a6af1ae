//! [`S3ScanSource`] — the P1 layout: provenance objects under a key
//! prefix, readable only by scanning.
//!
//! A scan issues every LIST and GET, but copies only what its answer
//! returns: Q.1 ([`GraphSource::all_records`]) checks and copies out every
//! record, while Q.3 and Q.4 read a [`ScanFold`] of every program's seeds
//! and reverse edges and copy out only the records of Q.3's output nodes.
//! An engine's sources share one [`ScanMemo`]: a Q.3/Q.4 scan that GETs,
//! in key order, the very stored objects the last fold saw hands that
//! fold back, so each stored version is checked and folded once per
//! engine.

use std::sync::Arc;

use parking_lot::Mutex;

use cloudprov_cloud::{Actor, Blob, CloudEnv};
use cloudprov_pass::{wire, PNodeId, ProvenanceRecord};

use super::local::{self, ScanFold};
use super::{GraphSource, Mode, OutputSet, Result};

/// The last fold a Q.3/Q.4 scan built, and how many were built. The fold
/// holds the objects it was built from, so no newer object can reuse
/// their addresses while it is kept.
#[derive(Default)]
pub(crate) struct ScanMemo(Mutex<Memo>);

#[derive(Default)]
struct Memo {
    fold: Option<Arc<ScanFold>>,
    folds: u64,
}

impl ScanMemo {
    /// Folds built so far: scans that did not meet the last fold's
    /// objects.
    pub(crate) fn folds(&self) -> u64 {
        self.0.lock().folds
    }
}

impl std::fmt::Debug for ScanMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanMemo")
            .field("folds", &self.folds())
            .finish()
    }
}

/// Whether two payloads are one stored allocation, and so one content: a
/// stored object's bytes are shared, never copied, by every GET of it.
fn same_object(a: &Blob, b: &Blob) -> bool {
    match (a.as_inline(), b.as_inline()) {
        (Some(a), Some(b)) => std::ptr::eq::<[u8]>(&a[..], &b[..]),
        _ => false,
    }
}

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
    memo: Arc<ScanMemo>,
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
            memo: Arc::default(),
        }
    }

    /// This source, folding into `memo` (an engine's, shared by every
    /// source it builds).
    pub(crate) fn sharing(mut self, memo: &Arc<ScanMemo>) -> S3ScanSource {
        self.memo = Arc::clone(memo);
        self
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

    /// One scan folded for Q.3/Q.4. Each object is checked as it arrives:
    /// one that is, at its place in key order, the very object the
    /// memo's fold holds there is known valid; any other is visited. A
    /// scan that meets exactly the memo's objects hands its fold back;
    /// any other folds afresh and replaces it.
    fn fold(&self, mode: Mode) -> Result<Arc<ScanFold>> {
        let last = self.memo.0.lock().fold.clone();
        let known = last.as_deref().map_or(&[][..], ScanFold::objects);
        // While `fresh` is unset, the objects so far are `known[..same]`.
        let mut same = 0;
        let mut fresh: Option<ScanFold> = None;
        self.scan(mode, |blob| {
            if fresh.is_none() {
                if known.get(same).is_some_and(|k| same_object(k, &blob)) {
                    same += 1;
                    return Ok(());
                }
                fresh = Some(ScanFold::over(&known[..same])?);
            }
            Ok(fresh.as_mut().expect("set above").object(blob)?)
        })?;
        let fold = match (fresh, &last) {
            (Some(fold), _) => fold,
            (None, Some(last)) if same == known.len() => return Ok(Arc::clone(last)),
            (None, _) => ScanFold::over(&known[..same])?,
        };
        let fold = Arc::new(fold.finish());
        let mut memo = self.memo.0.lock();
        memo.fold = Some(Arc::clone(&fold));
        memo.folds += 1;
        Ok(fold)
    }

    /// Q.3 in one scan: the files directly output by the processes named
    /// `program`, and their records.
    pub(crate) fn outputs_of_program(&self, program: &str, mode: Mode) -> Result<OutputSet> {
        let fold = self.fold(mode)?;
        let (nodes, records) = fold.direct_outputs(&fold.processes_named(program));
        Ok(OutputSet { nodes, records })
    }

    /// Q.4 in one scan: every transitive dependent of the processes
    /// named `program`.
    pub(crate) fn descendants_of_program(&self, program: &str, mode: Mode) -> Result<Vec<PNodeId>> {
        let fold = self.fold(mode)?;
        Ok(fold.descendants(&fold.processes_named(program)))
    }
}

impl GraphSource for S3ScanSource {
    fn name(&self) -> &'static str {
        "s3-scan"
    }

    fn all_records(&self, mode: Mode) -> Result<Vec<ProvenanceRecord>> {
        let mut out = Vec::new();
        self.scan(mode, |blob| {
            Ok(wire::visit(local::payload(&blob)?, |r| {
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
        Ok(wire::decode(local::payload(&obj.blob)?)?)
    }

    fn processes_named(&self, program: &str, mode: Mode) -> Result<Vec<PNodeId>> {
        Ok(self.fold(mode)?.processes_named(program))
    }

    fn direct_outputs(&self, procs: &[PNodeId], mode: Mode) -> Result<OutputSet> {
        let (nodes, records) = self.fold(mode)?.direct_outputs(procs);
        Ok(OutputSet { nodes, records })
    }

    fn descendants_of(&self, seeds: &[PNodeId], mode: Mode) -> Result<Vec<PNodeId>> {
        Ok(self.fold(mode)?.descendants(seeds))
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
    use crate::planner::Plan;
    use cloudprov_cloud::{AwsProfile, FaultPlan, Op, Service};
    use cloudprov_core::{ProtocolError, ProvenanceStore};
    use cloudprov_pass::wire::WireError;
    use cloudprov_pass::{Attr, AttrValue, Uuid};
    use cloudprov_sim::Sim;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::time::Duration;

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

    /// Stores `bytes` as the P1 object at key index `i`.
    fn put(env: &CloudEnv, i: usize, bytes: &[u8]) {
        env.s3()
            .put(
                BUCKET,
                &format!("{PREFIX}{i}"),
                bytes.to_vec().into(),
                Default::default(),
            )
            .unwrap();
    }

    fn engine(env: &CloudEnv) -> QueryEngine {
        let store = ProvenanceStore::S3Objects {
            bucket: BUCKET.into(),
            prefix: PREFIX.into(),
        };
        QueryEngine::new(env, store, "data")
    }

    /// A P1 store holding `objects`, in key order, and an engine over it.
    fn world(objects: &[Vec<u8>]) -> (Sim, CloudEnv, QueryEngine) {
        let sim = Sim::new();
        let env = CloudEnv::new(&sim, AwsProfile::instant());
        for (i, bytes) in objects.iter().enumerate() {
            put(&env, i, bytes);
        }
        let engine = engine(&env);
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

    /// One of three ways to corrupt an object: a line that is no record,
    /// bytes that are no UTF-8, a bad escape.
    fn corrupt(object: &mut Vec<u8>, how: u8) {
        match how {
            0 => object.extend_from_slice(b"not a record\n"),
            1 => object.insert(0, 0xff),
            _ => object.extend_from_slice(format!("{}\tname\tt\tb\\q\n", node(0)).as_bytes()),
        }
    }

    fn chain_node(i: u128) -> PNodeId {
        PNodeId::initial(Uuid(10 + i))
    }

    /// A process named `blast` and a chain of `files` files below it, one
    /// object per node: Q.4 of `blast` is the whole chain.
    fn chain(files: u128) -> Vec<Vec<u8>> {
        let mut objects = vec![wire::encode(&[
            ProvenanceRecord::new(chain_node(0), Attr::Type, "process"),
            ProvenanceRecord::new(chain_node(0), Attr::Name, "blast"),
        ])
        .to_vec()];
        for i in 1..=files {
            objects.push(
                wire::encode(&[
                    ProvenanceRecord::new(chain_node(i), Attr::Type, "file"),
                    ProvenanceRecord::new(chain_node(i), Attr::Input, chain_node(i - 1)),
                ])
                .to_vec(),
            );
        }
        objects
    }

    fn chain_nodes(files: u128) -> Vec<PNodeId> {
        (1..=files).map(chain_node).collect()
    }

    #[test]
    fn a_repeat_q4_folds_once() {
        let (_sim, env, engine) = world(&chain(3));
        let first = engine.q4_descendants_of("blast", Mode::Sequential).unwrap();
        assert_eq!(first.nodes, chain_nodes(3));
        let second = engine.q4_descendants_of("blast", Mode::Parallel).unwrap();
        assert_eq!(second.nodes, first.nodes);
        assert_eq!(
            second.metrics.ops, first.metrics.ops,
            "the same LIST and GETs"
        );
        // A pinned view shares the memo, and Q.3 reads the same fold.
        let q3 = engine
            .with_plan_ref(Plan::S3Scan)
            .q3_outputs_of("blast", Mode::Sequential)
            .unwrap();
        assert_eq!(q3.nodes, vec![chain_node(1)]);
        assert_eq!(q3.records.len(), 2);
        assert_eq!(engine.scan_folds(), 1, "one fold for one store state");
        assert_eq!(gets(&env), 3 * 4);
    }

    #[test]
    fn an_overwrite_forces_one_fresh_fold() {
        let (_sim, env, engine) = world(&chain(3));
        engine.q4_descendants_of("blast", Mode::Sequential).unwrap();
        assert_eq!(engine.scan_folds(), 1);
        // Rewritten with the same bytes: a new stored object folds afresh.
        put(&env, 3, &chain(3)[3]);
        let same = engine.q4_descendants_of("blast", Mode::Sequential).unwrap();
        assert_eq!(same.nodes, chain_nodes(3));
        assert_eq!(engine.scan_folds(), 2);
        put(&env, 4, &chain(4)[4]);
        let q4 = engine.q4_descendants_of("blast", Mode::Sequential).unwrap();
        assert_eq!(q4.nodes, chain_nodes(4), "a new object is read");
        assert_eq!(engine.scan_folds(), 3, "a new version folds afresh");
        engine.q4_descendants_of("blast", Mode::Parallel).unwrap();
        assert_eq!(engine.scan_folds(), 3, "and only once");
    }

    #[test]
    fn a_stale_get_folds_again_and_is_never_answered_from_the_newer_fold() {
        let (sim, env, engine) = world(&chain(3));
        // Stale reads dialled in by the fault plan: every read sees the
        // store as it was `lag` ago, and no version that is younger is
        // pruned.
        let lag = |secs| {
            env.faults().set(FaultPlan {
                extra_staleness: Duration::from_secs(secs),
                ..FaultPlan::none()
            })
        };
        sim.sleep(Duration::from_secs(60));
        lag(30);
        let mut newer = chain(3)[3].clone();
        newer.extend_from_slice(&chain(4)[4]);
        put(&env, 3, &newer);
        sim.sleep(Duration::from_secs(31));
        lag(0);
        let q4 = |mode| engine.q4_descendants_of("blast", mode).unwrap().nodes;
        assert_eq!(q4(Mode::Sequential), chain_nodes(4));
        assert_eq!(engine.scan_folds(), 1);
        // Object 3's GET now returns the version before the overwrite.
        lag(60);
        for mode in MODES {
            assert_eq!(q4(mode), chain_nodes(3), "{mode:?}");
        }
        assert_eq!(engine.scan_folds(), 2, "the older version folds again");
        lag(0);
        assert_eq!(q4(Mode::Parallel), chain_nodes(4));
        assert_eq!(engine.scan_folds(), 3);
    }

    #[test]
    fn a_synthetic_object_fails_every_query() {
        let (_sim, env, engine) = world(&chain(2));
        let id = PNodeId::initial(Uuid(99));
        env.s3()
            .put(
                BUCKET,
                &format!("{PREFIX}{}", id.uuid),
                Blob::synthetic(4096, 7),
                Default::default(),
            )
            .unwrap();
        env.s3()
            .put(
                "data",
                "out.fa",
                Blob::from("x"),
                cloudprov_core::object_metadata(id),
            )
            .unwrap();
        let want = wire_error(engine.q2_object("out.fa"));
        for mode in MODES {
            assert_eq!(wire_error(engine.q1_all(mode)), want, "{mode:?}");
            assert_eq!(
                wire_error(engine.q3_outputs_of("blast", mode)),
                want,
                "{mode:?}"
            );
            assert_eq!(
                wire_error(engine.q4_descendants_of("blast", mode)),
                want,
                "{mode:?}"
            );
        }
        assert_eq!(engine.scan_folds(), 0);
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

        /// Random puts, same-byte rewrites, deletes and corruptions of P1
        /// objects: after each, Q.3 and Q.4 in both modes answer, GET and
        /// fail alike through one long-lived engine (its memo live), a
        /// fresh engine and the record-set reference, and the long-lived
        /// engine folds exactly once per changed store that scans clean.
        #[test]
        fn the_scan_memo_matches_a_fresh_scan(
            steps in proptest::collection::vec(
                (0u8..4, 0usize..4, proptest::collection::vec(record(), 0..6), 0u8..3),
                1..12,
            ),
        ) {
            let sim = Sim::new();
            let env = CloudEnv::new(&sim, AwsProfile::instant());
            let live = engine(&env);
            let mut stored: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
            // Whether the store differs from the live memo's fold (it
            // starts with none).
            let mut changed = true;
            for (op, key, records, how) in steps {
                changed |= match (op, stored.get_mut(&key)) {
                    (0, _) => {
                        let bytes = wire::encode(&records).to_vec();
                        put(&env, key, &bytes);
                        stored.insert(key, bytes);
                        true
                    }
                    (_, None) => false,
                    (1, Some(bytes)) => {
                        put(&env, key, bytes);
                        true
                    }
                    (2, Some(_)) => {
                        env.s3().delete(BUCKET, &format!("{PREFIX}{key}")).unwrap();
                        stored.remove(&key);
                        true
                    }
                    (_, Some(bytes)) => {
                        corrupt(bytes, how);
                        put(&env, key, bytes);
                        true
                    }
                };
                // The reference: every record in key order, or the first
                // object that fails to decode.
                let reference: std::result::Result<Vec<ProvenanceRecord>, (usize, WireError)> =
                    stored.values().enumerate().try_fold(Vec::new(), |mut raw, (i, bytes)| {
                        raw.extend(wire::decode(bytes).map_err(|e| (i, e))?);
                        Ok(raw)
                    });
                let fresh = engine(&env);
                let folds = live.scan_folds();
                for mode in MODES {
                    let made = match (&reference, mode) {
                        (Err((i, _)), Mode::Sequential) => i + 1,
                        _ => stored.len(),
                    } as u64;
                    for program in &programs() {
                        let want = reference.as_ref().map_err(|(_, e)| e).map(|raw| {
                            let procs = local::processes_named(raw, program);
                            (local::direct_outputs(raw, &procs), local::descendants(raw, &procs))
                        });
                        for engine in [&live, &fresh] {
                            let before = gets(&env);
                            let q3 = engine.q3_outputs_of(program, mode).map(|o| (o.nodes, o.records));
                            let q4 = engine.q4_descendants_of(program, mode).map(|o| o.nodes);
                            prop_assert_eq!(gets(&env) - before, 2 * made, "{:?} {}", mode, program);
                            match &want {
                                Ok((outputs, descendants)) => {
                                    prop_assert_eq!(&q3.unwrap(), outputs);
                                    prop_assert_eq!(&q4.unwrap(), descendants);
                                }
                                Err(e) => {
                                    prop_assert_eq!(&wire_error(q3), *e);
                                    prop_assert_eq!(&wire_error(q4), *e);
                                }
                            }
                        }
                    }
                }
                let clean = reference.is_ok();
                prop_assert_eq!(fresh.scan_folds(), u64::from(clean));
                prop_assert_eq!(live.scan_folds() - folds, u64::from(clean && changed));
                changed &= !clean;
            }
        }
    }
}
