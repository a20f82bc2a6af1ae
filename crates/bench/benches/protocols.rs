//! Criterion bench for the read tier's cost *shape*: an install that
//! forces an eviction and a fixed 64-node warm walk, each at 256 / 4096 /
//! 65536 resident entries (`cache`), and SimpleDB SELECTs at 1 000 /
//! 10 000 / 100 000 items (`sdb`): two answered from posting lists, one
//! from an item-name prefix range, and a full first page of `select *`
//! that hands out stored versions without copying them. None may grow
//! with size. `cache/install_snapshot` times one miss's install of a
//! whole 256 / 4096 page snapshot into a cache a third its size, as
//! read-churn's misses do: it grows with the snapshot, but its cost per
//! page may not (the figure includes splitting the adjacency into pages,
//! which a miss reuses from the decoded index). `wire` times the P1
//! scan's per-object cost: `decode` and `visit` over one Blast-shaped
//! process object. `scan` times a repeat Q.4 through one engine over an
//! unchanged P1 store of 64 / 512 such objects: the LIST and GETs, but
//! no fold.
//!
//! The measured quantity is host wall time; the paper's experiments are
//! timed (in virtual time) by the `repro` binary and, per layer, by the
//! repo benchmark under `benchmark/`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cloudprov_cloud::{AwsProfile, CloudEnv, PutItem, TenantId, BATCH_LIMIT};
use cloudprov_core::ProvenanceStore;
use cloudprov_pass::{wire, Attr, PNodeId, ProvenanceRecord, Uuid};
use cloudprov_query::source::RevAdjacency;
use cloudprov_query::{AncestryCache, CacheConfig, Mode, QueryEngine};
use cloudprov_sim::Sim;
use cloudprov_workloads::synthetic_env;

/// Operations per timed sample: one is too short for the clock.
const CACHE_BATCH: usize = 256;
/// First uuid of the walked chain; filler pages count up from 0.
const CHAIN: u128 = 1 << 100;

fn node(i: u128) -> PNodeId {
    PNodeId::initial(Uuid(i))
}

/// A cache exactly full with `resident` one-id entries: the seed lookup
/// and chain `hit_q4` walks to reach 64 nodes, and filler pages.
fn full_cache(sim: &Sim, resident: usize) -> AncestryCache {
    let mut adj = RevAdjacency::default();
    for i in 0..64 {
        adj.out.insert(node(CHAIN + i), vec![node(CHAIN + i + 1)]);
    }
    adj.out.insert(node(CHAIN + 64), vec![node(CHAIN + 64)]);
    for i in 0..resident as u128 - 66 {
        adj.out.insert(node(i), vec![node(i)]);
    }
    let capacity = 72 * resident;
    let cache = AncestryCache::new(
        sim,
        CacheConfig {
            capacity_bytes: capacity,
            tenant_max_bytes: capacity,
            tenant_reserved_bytes: 0,
            ..CacheConfig::default()
        },
    );
    cache.attach();
    sim.sleep(std::time::Duration::from_secs(1));
    cache.install_seeds(None, "walk", &[node(CHAIN)], sim.now());
    cache.install_adjacency(None, &adj, &[], sim.now());
    let s = cache.stats();
    assert_eq!((s.entries, s.bytes), (resident, capacity));
    cache
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.sample_size(10);
    let sim = Sim::new();
    for resident in [256, 4096, 65536] {
        let cache = full_cache(&sim, resident);
        group.bench_function(format!("hit_q4/{resident}"), |b| {
            b.iter(|| {
                for _ in 0..CACHE_BATCH {
                    assert_eq!(cache.serve_q4("walk").map(|n| n.len()), Some(64));
                }
            })
        });
        // The cache is full of pages this size: one eviction an install.
        let mut next = CHAIN << 1;
        group.bench_function(format!("evict_install/{resident}"), |b| {
            b.iter(|| {
                for _ in 0..CACHE_BATCH {
                    let mut adj = RevAdjacency::default();
                    adj.out.insert(node(next), vec![node(next)]);
                    next += 1;
                    cache.install_adjacency(None, &adj, &[], sim.now());
                }
            })
        });
        assert_eq!(
            u128::from(cache.stats().evictions),
            next - (CHAIN << 1),
            "one eviction an install"
        );
    }
    for pages in [256, 4096] {
        let cache = snapshot_cache(&sim, pages);
        let adj = snapshot(pages);
        let mut owner = 0;
        let mut install = || {
            owner = (owner + 1) % 8;
            cache.install_adjacency(Some(TenantId(owner)), &adj, &[], sim.now());
        };
        // From the first install on, the cache holds the last third.
        install();
        let before = cache.stats();
        let mut calls = 0;
        group.bench_function(format!("install_snapshot/{pages}"), |b| {
            b.iter(|| {
                install();
                calls += 1;
            })
        });
        let after = cache.stats();
        assert_eq!(after.installs - before.installs, calls * pages as u64);
        assert_eq!(
            after.evictions - before.evictions,
            calls * pages as u64,
            "per call, the last owner's third, then its own first two thirds"
        );
        assert_eq!(after.entries, pages / 3);
    }
    group.finish();
}

/// A snapshot of `pages` one-edge pages, 72 modelled bytes each.
fn snapshot(pages: usize) -> RevAdjacency {
    let mut adj = RevAdjacency::default();
    for i in 0..pages as u128 {
        adj.out.insert(node(i), vec![node(i + 1)]);
    }
    adj
}

/// read-churn's shape: room for a third of a `pages`-page snapshot and
/// no reserved share, so each tenant's miss evicts the last one's pages
/// and then the first two thirds of its own.
fn snapshot_cache(sim: &Sim, pages: usize) -> AncestryCache {
    let capacity = 72 * (pages / 3);
    let cache = AncestryCache::new(
        sim,
        CacheConfig {
            capacity_bytes: capacity,
            tenant_max_bytes: capacity,
            tenant_reserved_bytes: 0,
            ..CacheConfig::default()
        },
    );
    cache.attach();
    sim.sleep(std::time::Duration::from_secs(1));
    cache
}

/// SELECTs per timed sample.
const SELECT_BATCH: usize = 64;

fn item_name(n: usize) -> String {
    format!("{n:032x}_1")
}

/// A SimpleDB domain of `items` items shaped like P2's provenance: every
/// other one a file, item `n` an `input` edge to item `n / 2`.
fn provenance_domain(sim: &Sim, items: usize) -> CloudEnv {
    let env = CloudEnv::new(sim, AwsProfile::instant());
    env.sdb().create_domain("prov");
    let all: Vec<usize> = (0..items).collect();
    for batch in all.chunks(BATCH_LIMIT) {
        let puts = batch
            .iter()
            .map(|&n| PutItem {
                name: item_name(n),
                attrs: vec![
                    ("type".into(), ["file", "process"][n % 2].into()),
                    ("name".into(), format!("/bench/f{n}")),
                    ("input".into(), item_name(n / 2)),
                ],
                replace: false,
            })
            .collect();
        env.sdb()
            .batch_put_attributes("prov", puts)
            .expect("fixture domain loads");
    }
    env
}

fn bench_sdb(c: &mut Criterion) {
    let mut group = c.benchmark_group("sdb");
    group.sample_size(10);
    let sim = Sim::new();
    for items in [1000, 10_000, 100_000] {
        let env = provenance_domain(&sim, items);
        let k = items / 4;
        // Q.3's shape: the one file with an edge to item k (item 2k).
        let eq = format!(
            "select * from prov where type = 'file' and input = '{}'",
            item_name(k)
        );
        // Q.4's frontier shape: the 40 items with an edge into k..k+20.
        let ids: Vec<String> = (k..k + 20).map(|n| format!("'{}'", item_name(n))).collect();
        let in20 = format!(
            "select itemName() from prov where input in ({})",
            ids.join(", ")
        );
        // The P3 index's `rev_%` shape: the 16 items sharing 31 hex digits.
        let prefix16 = format!(
            "select * from prov where itemName() like '{:031x}%'",
            k / 16
        );
        let all = "select * from prov".to_string();
        for (id, query, matches, more) in [
            ("select_eq", &eq, 1, false),
            ("select_in20", &in20, 40, false),
            ("select_prefix16", &prefix16, 16, false),
            ("select_page250", &all, 250, true),
        ] {
            group.bench_function(format!("{id}/{items}"), |b| {
                b.iter(|| {
                    for _ in 0..SELECT_BATCH {
                        let page = env.sdb().select(query, None).expect("select runs");
                        assert_eq!(
                            (page.items.len(), page.next_token.is_some()),
                            (matches, more)
                        );
                    }
                })
            });
        }
    }
    group.finish();
}

/// Objects decoded per timed sample.
const WIRE_BATCH: usize = 256;

/// A Blast-shaped P1 process object, as the observer records an exec:
/// `type`, `name`, `pid`, `argv`, about 4 KB of `env` (one escaped
/// newline every 55 bytes or so), `exectime`, and an `input` edge to each
/// of `inputs`.
fn blast_process_object(id: PNodeId, name: &str, inputs: &[PNodeId]) -> Vec<u8> {
    let env: Vec<String> = synthetic_env(4096, 7)
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let mut records = vec![
        ProvenanceRecord::new(id, Attr::Type, "process"),
        ProvenanceRecord::new(id, Attr::Name, name),
        ProvenanceRecord::new(id, Attr::Pid, "4242"),
        ProvenanceRecord::new(
            id,
            Attr::Argv,
            "blastall -p blastp -d /blast/db/nr -i /blast/q17.fa",
        ),
        ProvenanceRecord::new(id, Attr::Env, env.join("\n")),
        ProvenanceRecord::new(id, Attr::ExecTime, "1700000000"),
    ];
    records.extend(
        inputs
            .iter()
            .map(|&i| ProvenanceRecord::new(id, Attr::Input, i)),
    );
    wire::encode(&records).to_vec()
}

fn bench_wire(c: &mut Criterion) {
    const RECORDS: usize = 14;
    let mut group = c.benchmark_group("wire");
    group.sample_size(10);
    let inputs: Vec<PNodeId> = (100..108).map(node).collect();
    let object = blast_process_object(node(7), "blastall", &inputs);
    group.bench_function("decode/blast_process", |b| {
        b.iter(|| {
            for _ in 0..WIRE_BATCH {
                let records = wire::decode(black_box(&object)).expect("fixture decodes");
                assert_eq!(records.len(), RECORDS);
            }
        })
    });
    group.bench_function("visit/blast_process", |b| {
        b.iter(|| {
            for _ in 0..WIRE_BATCH {
                let mut records = 0;
                wire::visit(black_box(&object), |r| {
                    black_box(r);
                    records += 1;
                })
                .expect("fixture decodes");
                assert_eq!(records, RECORDS);
            }
        })
    });
    group.finish();
}

/// Repeat Q.4s per timed sample.
const SCAN_BATCH: usize = 16;

/// A P1 store of `objects` process objects in a chain below one named
/// `blastall`, and an engine that has scanned it once.
fn p1_store(objects: usize) -> (Sim, QueryEngine, Vec<PNodeId>) {
    let sim = Sim::new();
    let env = CloudEnv::new(&sim, AwsProfile::instant());
    for i in 0..objects as u128 {
        let (name, inputs) = match i {
            0 => ("blastall", vec![]),
            _ => ("formatdb", vec![node(i - 1)]),
        };
        env.s3()
            .put(
                "prov",
                &format!("p1/{i:04}"),
                blast_process_object(node(i), name, &inputs).into(),
                Default::default(),
            )
            .expect("fixture stores");
    }
    let store = ProvenanceStore::S3Objects {
        bucket: "prov".into(),
        prefix: "p1/".into(),
    };
    let engine = QueryEngine::new(&env, store, "data");
    let first = engine
        .q4_descendants_of("blastall", Mode::Sequential)
        .expect("fixture scans")
        .nodes;
    assert_eq!(first.len(), objects - 1);
    (sim, engine, first)
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan");
    group.sample_size(10);
    for objects in [64, 512] {
        let (_sim, engine, first) = p1_store(objects);
        group.bench_function(format!("repeat_q4/{objects}"), |b| {
            b.iter(|| {
                for _ in 0..SCAN_BATCH {
                    let q4 = engine
                        .q4_descendants_of(black_box("blastall"), Mode::Sequential)
                        .expect("fixture scans");
                    assert_eq!(q4.nodes, first);
                }
            })
        });
        assert_eq!(
            engine.scan_folds(),
            1,
            "a repeat over an unchanged store folds nothing"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cache, bench_sdb, bench_wire, bench_scan);
criterion_main!(benches);
