//! Micro-kernels: one layer's public function on a fixed input, timed from
//! outside, median ns/op over at least 1000 calls. Services run on the
//! *instant* profile here, so the numbers are pure host cost of our code —
//! no modelled latency is involved. They accompany the traced run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudprov_cloud::{select, AwsProfile, Blob, CloudEnv, PutItem, TenantId};
use cloudprov_core::cas::{canonical_encoding, sha256_hex};
use cloudprov_core::index::merge_index_items;
use cloudprov_core::{
    pack_group_writes, CommitEvent, FlushBatch, FlushObject, Protocol, ProvenanceClient,
    StorageProtocol,
};
use cloudprov_feed::{Predicate, Subscriptions};
use cloudprov_pass::{Attr, FlushNode, NodeKind, PNodeId, ProvenanceRecord, Uuid};
use cloudprov_query::source::RevAdjacency;
use cloudprov_query::{AncestryCache, CacheConfig};
use cloudprov_sim::{Sim, SimSemaphore, SimTime};
use cloudprov_trace::Tracer;
use cloudprov_workloads::testkit::{apply_script, random_script};

use crate::spans::HostSpans;
use crate::stats::median;
use crate::workloads::Values;

const BATCHES: usize = 21;

/// Median over [`BATCHES`] batches of `(wall time of per_batch calls) /
/// per_batch`, in nanoseconds. `setup` builds each call's input outside
/// the timed section.
fn bench<I>(per_batch: usize, mut setup: impl FnMut() -> I, mut op: impl FnMut(I)) -> f64 {
    assert!(BATCHES * per_batch >= 1000, "at least 1000 calls");
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let inputs: Vec<I> = (0..per_batch).map(|_| setup()).collect();
            let t = Instant::now();
            for input in inputs {
                op(input);
            }
            t.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&per_call)
}

fn node(i: u128, version: u32) -> PNodeId {
    PNodeId {
        uuid: Uuid(0xBE7C_0000_0000 + i),
        version,
    }
}

fn file_object(i: u128, records: usize) -> FlushObject {
    let id = node(i, 1);
    let blob = Blob::synthetic(2048, i as u64);
    let mut recs = vec![
        ProvenanceRecord::new(id, Attr::Type, "file"),
        ProvenanceRecord::new(id, Attr::Name, format!("/bench/f{i}")),
        ProvenanceRecord::new(
            id,
            Attr::DataHash,
            format!("{:016x}", blob.content_fingerprint()),
        ),
    ];
    recs.extend((0..records as u128).map(|r| ProvenanceRecord::new(id, Attr::Input, node(r, 1))));
    FlushObject::file(
        FlushNode {
            id,
            kind: NodeKind::File,
            name: Some(format!("/bench/f{i}")),
            records: recs,
            data_hash: Some(blob.content_fingerprint()),
        },
        format!("bench/f{i}"),
        blob,
    )
}

fn put_items(n: usize, distinct: usize) -> Vec<PutItem> {
    (0..n)
        .map(|i| PutItem {
            name: format!("rev_{:032x}_1~{}", i % distinct, i % 4),
            attrs: vec![
                ("out".to_string(), format!("{:032x}_1", i)),
                ("file".to_string(), format!("{:032x}_1", i)),
            ],
            replace: false,
        })
        .collect()
}

fn event(seq: u64) -> CommitEvent {
    CommitEvent {
        stream: "wal-shard-0".into(),
        seq,
        txn: Uuid(u128::from(seq)),
        tenant: Some(TenantId(1)),
        uuids: vec![node(u128::from(seq % 64), 1).uuid],
        programs: vec![format!("prog-{}", seq % 8)],
    }
}

/// Runs every micro-kernel; each gets a host span under `parent`.
#[allow(clippy::too_many_lines)]
pub fn run_all(spans: &Arc<HostSpans>, parent: Option<u64>) -> Values {
    let mut out: Values = BTreeMap::new();
    let mut kernel = |name: &'static str, f: &mut dyn FnMut() -> f64| {
        let v = spans.scope(name, parent, f);
        out.insert(name, v);
    };

    // sim: the kernel's thread hand-offs.
    let sim = Sim::new();
    kernel("sim.spawn_join_ns", &mut || {
        bench(
            50,
            || (),
            |()| {
                black_box(sim.spawn(|| black_box(1u64)).join());
            },
        )
    });
    kernel("sim.sleep_wake_ns", &mut || {
        bench(200, || (), |()| sim.sleep(Duration::from_micros(1)))
    });
    kernel("sim.sem_handoff_ns", &mut || {
        let per_batch = 100;
        let (ping, pong) = (SimSemaphore::new(&sim, 0), SimSemaphore::new(&sim, 0));
        let partner = {
            let (ping, pong) = (ping.clone(), pong.clone());
            sim.spawn(move || {
                for _ in 0..BATCHES * per_batch {
                    ping.acquire().forget();
                    pong.release();
                }
            })
        };
        // One round trip is two hand-offs.
        let ns = bench(
            per_batch,
            || (),
            |()| {
                ping.release();
                pong.acquire().forget();
            },
        ) / 2.0;
        partner.join();
        ns
    });

    // cloud: SimpleDB select parse + eval, SQS round trip.
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    let in_list: Vec<String> = (0..20).map(|i| format!("'{:032x}_1'", i)).collect();
    let query = format!(
        "select itemName() from provenance where type = 'file' and input in ({})",
        in_list.join(",")
    );
    kernel("cloud.sdb.select_parse_ns", &mut || {
        bench(
            200,
            || (),
            |()| {
                black_box(select::parse(black_box(&query)).expect("query parses"));
            },
        )
    });
    env.sdb().create_domain("bench");
    for chunk in 0..40 {
        let items = (0..25)
            .map(|i| {
                let n = chunk * 25 + i;
                PutItem {
                    name: format!("{:032x}_1", n),
                    attrs: vec![
                        (
                            "type".into(),
                            if n % 2 == 0 { "file" } else { "process" }.into(),
                        ),
                        ("name".into(), format!("/bench/f{n}")),
                        ("input".into(), format!("{:032x}_1", n / 2)),
                    ],
                    replace: false,
                }
            })
            .collect();
        env.sdb()
            .batch_put_attributes("bench", items)
            .expect("fixture domain loads");
    }
    kernel("cloud.sdb.select_eval_us", &mut || {
        bench(
            50,
            || (),
            |()| {
                let page = env
                .sdb()
                .select("select * from bench where type = 'file' and input = '00000000000000000000000000000007_1'", None)
                .expect("select runs");
                black_box(page);
            },
        ) / 1e3
    });
    let queue = env.sqs().create_queue("bench-roundtrip");
    kernel("cloud.sqs.roundtrip_ns", &mut || {
        bench(
            100,
            || (),
            |()| {
                env.sqs().send(&queue, "wal-message".into()).expect("send");
                let got = env.sqs().receive(&queue, 1).expect("receive");
                env.sqs().delete(&queue, &got[0].receipt).expect("delete");
            },
        )
    });

    // pass: the observer, per script event.
    let script = random_script(0x0B5E, 1000);
    kernel("pass.observer_event_ns", &mut || {
        bench(
            48,
            || (),
            |()| {
                black_box(apply_script(black_box(&script)));
            },
        ) / script.len() as f64
    });

    // core: group packing, one WAL round trip, CAS encoding, SHA-256,
    // index merge.
    kernel("core.p3.pack_group_ns", &mut || {
        bench(
            50,
            || (put_items(200, 200), put_items(100, 40)),
            |(base, index)| {
                black_box(pack_group_writes(base, index, 25, 4));
            },
        )
    });
    let client = ProvenanceClient::builder(Protocol::P3)
        .queue("bench-wal")
        .build(&env);
    let daemon = client.commit_daemon().expect("P3 has a daemon").clone();
    let mut next_file = 0u128;
    kernel("core.p3.wal_roundtrip_us", &mut || {
        bench(
            48,
            || {
                next_file += 1;
                FlushBatch {
                    objects: vec![file_object(next_file, 2)],
                }
            },
            |batch| {
                client.flush(batch).expect("flush");
                let polled = daemon.poll_once().expect("poll");
                assert_eq!(polled.committed, 1, "one txn per round trip");
            },
        ) / 1e3
    });
    let obj = file_object(1, 12);
    kernel("core.cas.encode_ns", &mut || {
        bench(
            200,
            || (),
            |()| {
                black_box(canonical_encoding(black_box(&obj)));
            },
        )
    });
    let block = vec![0xA5u8; 64 << 10];
    kernel("core.cas.sha256_mb_per_s", &mut || {
        let ns = bench(
            48,
            || (),
            |()| {
                black_box(sha256_hex(black_box(&block)));
            },
        );
        block.len() as f64 / 1e6 / (ns / 1e9)
    });
    kernel("core.index.merge_ns", &mut || {
        bench(
            50,
            || put_items(100, 40),
            |items| {
                black_box(merge_index_items(items));
            },
        )
    });

    // feed: publish to one subscriber and take the delivery.
    let subs = Subscriptions::new(&sim);
    let sub = subs
        .subscribe(None, Predicate::All)
        .expect("fresh registry cannot be over quota");
    let mut seq = 0;
    kernel("feed.deliver_ns", &mut || {
        bench(
            200,
            || {
                seq += 1;
                event(seq)
            },
            |ev| {
                subs.publish(ev);
                black_box(sub.try_next());
            },
        )
    });

    // query: a cache hit and a feed invalidation.
    let cache = AncestryCache::new(&sim, CacheConfig::default());
    cache.attach();
    let seeds: Vec<PNodeId> = (0..4).map(|i| node(1000 + i, 1)).collect();
    let mut adj = RevAdjacency::default();
    for (s, seed) in seeds.iter().enumerate() {
        let outs: Vec<PNodeId> = (0..8).map(|i| node(2000 + s as u128 * 8 + i, 1)).collect();
        adj.files.extend(outs.iter().copied());
        for o in &outs {
            adj.out.insert(*o, vec![node(3000 + (o.uuid.0 & 0xFFF), 1)]);
        }
        adj.out.insert(*seed, outs);
    }
    let leaves: Vec<PNodeId> = adj.out.values().flatten().copied().collect();
    cache.install_seeds(
        None,
        "blastall",
        &seeds,
        SimTime::ZERO + Duration::from_secs(1),
    );
    cache.install_adjacency(None, &adj, &leaves, SimTime::ZERO + Duration::from_secs(1));
    kernel("query.cache.hit_ns", &mut || {
        bench(
            200,
            || (),
            |()| {
                let q3 = black_box(cache.serve_q3(black_box("blastall")));
                let q4 = black_box(cache.serve_q4(black_box("blastall")));
                assert!(q3.is_some() && q4.is_some(), "the fixture cache is warm");
            },
        ) / 2.0
    });
    let scratch = AncestryCache::new(&sim, CacheConfig::default());
    scratch.attach();
    let mut seq = 0;
    kernel("query.cache.invalidate_ns", &mut || {
        bench(
            200,
            || {
                seq += 1;
                event(seq)
            },
            |ev| scratch.on_event(black_box(&ev)),
        )
    });

    // trace: the cost of one span, collecting and not.
    let tracer = Tracer::new(&sim);
    let span = |tracer: &Tracer| {
        black_box(tracer.span(
            7,
            Some(1),
            "op",
            black_box("S3.Put"),
            Some(3),
            SimTime::ZERO,
            SimTime::ZERO,
            0.0,
        ));
    };
    kernel("trace.span_disabled_ns", &mut || {
        bench(5000, || (), |()| span(&tracer))
    });
    tracer.enable(0);
    kernel("trace.span_enabled_ns", &mut || {
        bench(1000, || (), |()| span(&tracer))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn every_micro_metric_is_measured_and_positive() {
        let spans = Arc::new(HostSpans::new(true));
        let got = run_all(&spans, None);
        for (name, v) in &got {
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not in the table"
            );
        }
        for m in PER_LAYER
            .iter()
            .filter(|m| m.unit == "ns" || m.name.ends_with("_us") || m.name.ends_with("mb_per_s"))
        {
            assert!(got.contains_key(m.name), "{} has no kernel", m.name);
        }
        assert!(got["trace.span_disabled_ns"] < got["trace.span_enabled_ns"]);
        assert_eq!(spans.take().len(), got.len(), "one host span per kernel");
    }
}
