//! Reproduces every table and figure of "Provenance for the Cloud"
//! (FAST 2010) on the simulated substrate, printing measured values next
//! to the paper's reported numbers, and *judges* them: `repro` holds the
//! verdicts (invariants and the paper's shape claims), `benchmark/` holds
//! the numbers (every bounded metric lives there, nowhere else).
//!
//! ```text
//! repro [table1|table2|table3|table4|table5|queries|fig3|fig4|umlcheck|ablations|chaos|fleet|all]
//!       [--small|--smoke] [--seed N] [--trace-out PATH]
//! ```
//!
//! `--small` (alias `--smoke`) runs scaled-down workloads (for smoke
//! tests); the default is the paper's full scale. `table5` and `fig4`
//! end in a PASS/FAIL verdict on the paper's shape claims. `chaos` sweeps
//! the deterministic failure-schedule explorer over a fixed seed range
//! per protocol; `chaos --seed N` replays one seed verbosely. `queries`
//! gates plan agreement, the index audit, the indexed op-count speedup
//! and zero stale cached reads. `fleet` sweeps clients x shards x daemons
//! over the sharded multi-tenant commit plane (`crates/fleet`), prints
//! the scaling table, proves determinism by re-running a cell and gates
//! the fleet invariants. Every gate exits non-zero on a failure; nothing
//! is written to disk except `--trace-out PATH`.

use std::time::Instant;

use cloudprov_bench::experiments::{
    ablations, chaos, fleet, micro, props, queries, services, umlcheck, workload_runs,
};
use cloudprov_bench::{overhead_pct, Which};
use cloudprov_cloud::{ClientLocation, Era, Machine, RunContext};
use cloudprov_workloads::BlastParams;

fn hr(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

fn mark(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        " no"
    }
}

/// Prints a shape verdict — one FAIL line per failed predicate, or PASS
/// — and returns whether every predicate held.
fn verdict(what: &str, failed: &[String]) -> bool {
    for f in failed {
        println!("  FAIL  {f}");
    }
    println!(
        "\nVerdict: {what} — {}",
        if failed.is_empty() { "PASS" } else { "FAIL" }
    );
    failed.is_empty()
}

fn table1() {
    hr("Table 1: Properties Comparison (paper: coupling no/no/yes; causal yes/yes/yes;\n         efficient query no/yes/yes)");
    println!(
        "{:<10} {:>10} {:>16} {:>16} {:>13} {:>10}",
        "Protocol", "Coupling", "Causal(design)", "Causal(paral.)", "Persistence", "Query"
    );
    for row in props::table1() {
        println!(
            "{:<10} {:>10} {:>16} {:>16} {:>13} {:>10}",
            row.which.name(),
            mark(row.coupling),
            mark(row.causal_designed),
            mark(row.causal_parallel),
            mark(row.persistence),
            mark(row.efficient_query),
        );
    }
    println!("\nNote: 'Causal(design)' is the protocol as specified (ancestors first /");
    println!("transactional); 'Causal(paral.)' is the paper's parallel implementation,");
    println!("which \u{a7}5 notes violates causal ordering for P1 and P2.");
}

fn table2(small: bool) {
    let bytes = if small { 2 << 20 } else { 50 << 20 };
    hr(&format!(
        "Table 2: Upload {} MB of provenance to each service (paper @50MB: S3 324.7 s,\n         SimpleDB 537.1 s, SQS 36.2 s)",
        bytes >> 20
    ));
    let ctx = RunContext {
        location: ClientLocation::Ec2,
        era: Era::Sept2009,
        machine: Machine::Native,
    };
    println!(
        "{:<10} {:>12} {:>10} {:>12}",
        "Service", "Time (s)", "Ops", "Connections"
    );
    for r in services::table2(bytes, ctx) {
        println!(
            "{:<10} {:>12.1} {:>10} {:>12}",
            r.service,
            r.elapsed.as_secs_f64(),
            r.ops,
            r.connections
        );
    }
    println!("\nConcurrency scaling (SimpleDB should plateau near 40; S3/SQS keep scaling):");
    let sweep_bytes = if small { 1 << 20 } else { 8 << 20 };
    for svc in ["S3", "SimpleDB", "SQS"] {
        let pts = services::sweep(svc, sweep_bytes, &[10, 40, 150], ctx);
        let line: Vec<String> = pts
            .iter()
            .map(|p| format!("{}conn={:.1}s", p.connections, p.elapsed.as_secs_f64()))
            .collect();
        println!("  {:<10} {}", svc, line.join("  "));
    }
}

fn micro_tables(small: bool) {
    let params = if small {
        BlastParams::small()
    } else {
        BlastParams::default()
    };
    let corpus = micro::capture(params);
    hr("Figure 3: Microbenchmark elapsed times (paper: P3 lowest overhead 32.6%, P2\n          highest 78.9%, P1 between; UML follows the same pattern)");
    for (label, ctx) in micro::contexts() {
        let results = micro::run(&corpus, ctx, 26);
        let base = results[0].elapsed.as_secs_f64();
        println!("\n  [{label}]");
        println!("  {:<8} {:>12} {:>12}", "Config", "Time (s)", "Overhead");
        for r in &results {
            println!(
                "  {:<8} {:>12.1} {:>11.1}%",
                r.which.name(),
                r.elapsed.as_secs_f64(),
                overhead_pct(base, r.elapsed.as_secs_f64())
            );
        }
        if label == "EC2" {
            hr("Table 3: Data transfer and operation overheads (paper: S3fs 713.09 MB/617 ops;\n         P1 +0.31%/+270.7%; P2 +0.42%/+100.2%; P3 +0.45%/+116.7%)");
            let base_mb = results[0].mb;
            let base_ops = results[0].client_ops as f64;
            println!(
                "{:<8} {:>16} {:>12} {:>12} {:>12}",
                "Config", "Data (MB)", "MB ovh", "Ops", "Ops ovh"
            );
            for r in &results {
                println!(
                    "{:<8} {:>16.2} {:>11.2}% {:>12} {:>11.1}%",
                    r.which.name(),
                    r.mb,
                    overhead_pct(base_mb, r.mb),
                    r.client_ops,
                    overhead_pct(base_ops, r.client_ops as f64)
                );
            }
        }
    }
}

/// Figure 4, then its shape verdict. Returns whether the verdict held.
fn fig4(small: bool) -> bool {
    hr("Figure 4: Workload elapsed times (paper: overheads <10% in 29 of 36 results,\n          max 36%; Dec/Jan runs 4-44.5% faster than September)");
    let results = workload_runs::figure4(!small);
    let mut within10 = 0;
    let mut total = 0;
    let mut max_ovh: f64 = 0.0;
    for era in [Era::Sept2009, Era::DecJan2010] {
        for loc in ["EC2", "LOCAL"] {
            println!(
                "\n  [{} / {}]",
                match era {
                    Era::Sept2009 => "Sept 2009",
                    Era::DecJan2010 => "Dec/Jan 2010",
                },
                loc
            );
            println!(
                "  {:<9} {:>10} {:>10} {:>10} {:>10}   overheads",
                "Workload", "S3fs", "P1", "P2", "P3"
            );
            for wl in workload_runs::Workload::ALL {
                let cells: Vec<_> = results
                    .iter()
                    .filter(|r| {
                        r.workload == wl
                            && r.context.era == era
                            && (r.context.location == ClientLocation::Ec2) == (loc == "EC2")
                    })
                    .collect();
                let base = cells
                    .iter()
                    .find(|c| c.which == Which::S3fs)
                    .map(|c| c.elapsed.as_secs_f64())
                    .unwrap_or(0.0);
                let t = |w: Which| {
                    cells
                        .iter()
                        .find(|c| c.which == w)
                        .map(|c| c.elapsed.as_secs_f64())
                        .unwrap_or(0.0)
                };
                let ovh: Vec<String> = [Which::P1, Which::P2, Which::P3]
                    .iter()
                    .map(|w| {
                        let pct = overhead_pct(base, t(*w));
                        total += 1;
                        if pct < 10.0 {
                            within10 += 1;
                        }
                        if pct > max_ovh {
                            max_ovh = pct;
                        }
                        format!("{pct:+.1}%")
                    })
                    .collect();
                println!(
                    "  {:<9} {:>10.0} {:>10.0} {:>10.0} {:>10.0}   {}",
                    wl.name(),
                    base,
                    t(Which::P1),
                    t(Which::P2),
                    t(Which::P3),
                    ovh.join(" ")
                );
            }
        }
    }
    println!(
        "\n  Summary: {within10}/{total} protocol results within 10% of S3fs (paper: 29/36);\n  max overhead {max_ovh:.1}% (paper: 36%)."
    );
    verdict(
        "Figure 4 has the paper's shape (P2 slowest; overheads modest)",
        &workload_runs::figure4_shape(&results, !small),
    )
}

fn table4(small: bool) {
    hr("Table 4: Cost per benchmark in USD (paper: Nightly 1.05/1.05/1.05/1.06,\n         Blast 0.37/0.39/0.38/0.40, Challenge 0.27/0.29/0.29/0.30)");
    let results = workload_runs::table4(!small);
    println!(
        "{:<9} {:>8} {:>8} {:>8} {:>8}",
        "Workload", "S3fs", "P1", "P2", "P3"
    );
    for wl in [
        workload_runs::Workload::Nightly,
        workload_runs::Workload::Blast,
        workload_runs::Workload::Challenge,
    ] {
        let c = |w: Which| {
            results
                .iter()
                .find(|r| r.workload == wl && r.which == w)
                .map(|r| r.cost_usd)
                .unwrap_or(0.0)
        };
        println!(
            "{:<9} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            wl.name(),
            c(Which::S3fs),
            c(Which::P1),
            c(Which::P2),
            c(Which::P3)
        );
    }
}

fn print_query_rows(rows: &[cloudprov_bench::experiments::queries::QueryResult]) {
    println!(
        "{:<5} {:<16} {:<7} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "Query", "Backend", "Plan", "Seq (s)", "Par (s)", "MB", "Ops", "Nodes"
    );
    for r in rows {
        println!(
            "{:<5} {:<16} {:<7} {:>10.3} {:>10} {:>10.2} {:>8} {:>8}",
            r.query,
            r.backend,
            r.plan,
            r.sequential.elapsed.as_secs_f64(),
            r.parallel
                .map(|p| format!("{:.3}", p.elapsed.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            r.sequential.bytes as f64 / 1e6,
            r.sequential.ops,
            r.result_nodes
        );
    }
}

/// Table 5, then its shape verdict. Returns whether the verdict held.
fn table5(small: bool) -> bool {
    hr("Table 5: Query performance on Blast provenance (paper: Q.1 S3 48.57 s seq /\n         7.04 s par / 1671 ops vs SimpleDB 0.83 s / 13 ops; Q.2 comparable;\n         Q.3/Q.4 SimpleDB ~10x faster, 37/87 ops)");
    let params = if small {
        BlastParams::small()
    } else {
        BlastParams::default()
    };
    let rows = queries::table5(params);
    print_query_rows(&rows);
    verdict(
        "Table 5 has the paper's shape (SimpleDB selective, S3 scans)",
        &queries::table5_shape(&rows),
    )
}

/// The read-path gate: Table 5 + the indexed column, result-set identity
/// between plans, the index ↔ base audit, and the op-count speedup.
/// Returns whether every gate held.
fn queries_gate(small: bool, seed: u64) -> bool {
    hr("Queries: layered read path (GraphSource backends behind the cost-based planner).\n         Q.3/Q.4 ride the commit-time ancestry index; result sets must be\n         identical to the SELECT frontier-expansion path on the same store.");
    let params = if small {
        BlastParams::small()
    } else {
        BlastParams::default()
    };
    // The speedup is a full-scale claim; the smoke grid only requires
    // the index not to be worse.
    let min_speedup = if small { 1.0 } else { 5.0 };
    let report = queries::queries_report(params);
    print_query_rows(&report.rows);
    println!("\nSelect vs index on the same P3 store (sequential ops):");
    println!(
        "  {:<5} {:>12} {:>11} {:>9}   identical",
        "Query", "Select ops", "Index ops", "Speedup"
    );
    for c in &report.comparisons {
        println!(
            "  {:<5} {:>12} {:>11} {:>8.1}x   {}",
            c.query,
            c.select_ops,
            c.index_ops,
            c.select_ops as f64 / c.index_ops.max(1) as f64,
            if c.identical { "yes" } else { "NO" }
        );
    }
    println!(
        "\nCombined Q.3+Q.4 speedup: {:.1}x (gate: >= {min_speedup:.1}x). Index audit: {} ({} entries).",
        report.speedup,
        if report.index_consistent {
            "consistent"
        } else {
            "INCONSISTENT"
        },
        report.index_entries
    );
    println!("\nPlanner verdicts on the P3 store (with meter history for both paths):");
    for (q, p, reason) in &report.planner {
        println!("  {q}: {p} ({reason})");
    }
    let mut violations = report.violations(min_speedup);

    // The read tier at scale: hundreds of tenants over the shared
    // ancestry cache while the fleet keeps committing. Staleness and
    // ground-truth divergence gate at zero.
    let conc = queries::concurrent_report(small, seed);
    println!(
        "\nConcurrent read serving: {} query tenants (mixed Q.1-Q.4) against a live fleet\n({} writers x {} live rounds committing mid-phase), one shared ancestry cache:",
        conc.query_tenants, conc.writers, conc.rounds
    );
    println!(
        "  queries {} (Q.1 {} / Q.2 {} / Q.3 {} / Q.4 {}), {:.2} q/s virtual",
        conc.queries,
        conc.q_counts[0],
        conc.q_counts[1],
        conc.q_counts[2],
        conc.q_counts[3],
        conc.query_throughput
    );
    println!(
        "  cache: {} hits / {} misses / {} bypasses ({:.0}% hit rate), {} invalidations, {} evictions",
        conc.cache.hits,
        conc.cache.misses,
        conc.cache.bypasses,
        conc.hit_rate * 100.0,
        conc.cache.invalidations,
        conc.cache.evictions
    );
    println!(
        "  {} hits verified against the uncached plan, {} stale ({} settle retries); cold (hydrating\n  miss) p50/p99 {:.1}/{:.1} ms over {} samples",
        conc.verified,
        conc.stale_results,
        conc.verify_retries,
        conc.cold_p50.as_secs_f64() * 1e3,
        conc.cold_p99.as_secs_f64() * 1e3,
        conc.cold_samples
    );
    println!(
        "  (a hit costs zero virtual time by construction; its honest pair is warm_hit_host_us\n  beside query_mean_ms — see benchmark/README.md)"
    );
    violations.extend(conc.violations());
    for v in &violations {
        println!("violation: {v}");
    }
    violations.is_empty()
}

fn uml(small: bool) {
    hr("\u{a7}5.2 UML impact (paper: nightly 419 s -> 528 s, Blast 650 s -> 1322 s)");
    println!(
        "{:<9} {:>12} {:>12} {:>8}",
        "Workload", "Native (s)", "UML (s)", "Factor"
    );
    for c in umlcheck::run(!small) {
        println!(
            "{:<9} {:>12.0} {:>12.0} {:>7.2}x",
            c.workload.name(),
            c.native.as_secs_f64(),
            c.uml.as_secs_f64(),
            c.factor()
        );
    }
}

fn ablation_report() {
    hr("Ablations of \u{a7}4 design choices");
    let corpus = ablations::small_corpus();

    println!("\nP3 WAL message size (8 KB is the SQS cap the paper works within):");
    println!("  {:<10} {:>10} {:>12}", "Size (B)", "Messages", "Time (s)");
    for p in ablations::wal_message_size(&corpus, &[2048, 4096, 8192]) {
        println!(
            "  {:<10} {:>10} {:>12.1}",
            p.value,
            p.ops,
            p.elapsed.as_secs_f64()
        );
    }

    println!("\nP2 SimpleDB batch size (25 is the service cap):");
    println!("  {:<10} {:>10} {:>12}", "Items", "DB calls", "Time (s)");
    for p in ablations::db_batch_size(&corpus, &[1, 5, 25]) {
        println!(
            "  {:<10} {:>10} {:>12.1}",
            p.value,
            p.ops,
            p.elapsed.as_secs_f64()
        );
    }

    let (strict, parallel) = ablations::ordering_cost(&corpus);
    println!(
        "\nP1 ancestor ordering: strict {:.1} s vs parallel {:.1} s ({:+.0}% — the\nlatency the paper's implementation avoided by forfeiting causal ordering)",
        strict.as_secs_f64(),
        parallel.as_secs_f64(),
        overhead_pct(parallel.as_secs_f64(), strict.as_secs_f64())
    );

    let (separate, metadata) = ablations::provenance_as_metadata();
    println!(
        "\nProvenance-as-metadata (rejected in \u{a7}4.3.1): after DELETE, separate object\nsurvives: {}; metadata survives: {} (the persistence violation)",
        mark(separate),
        mark(metadata)
    );

    let versioned = ablations::versioned_corpus();
    let (eventual_rate, strict_rate) = ablations::consistency_detection_rate(2_000);
    println!(
        "\nConsistency models (\u{a7}2.3.1): read-your-write goes stale {:.1}% of the\ntime under AWS-style eventual consistency vs {:.1}% under Azure-style strict\nconsistency (why the protocols carry detection machinery)",
        eventual_rate * 100.0,
        strict_rate * 100.0
    );

    let (per_version, per_object, ambiguous) = ablations::row_per_version_vs_object(&versioned);
    println!(
        "\nOne-row-per-version vs per-object (\u{a7}4.3.2): {per_version} version items vs\n{per_object} merged items; {ambiguous} objects would lose version attribution"
    );

    println!("\nPipelined vs blocking flush (Blast, client-perceived seconds):");
    println!(
        "  {:<6} {:>12} {:>12} {:>8}",
        "Proto", "Blocking", "Pipelined", "Win"
    );
    for which in [cloudprov_bench::Which::P1, cloudprov_bench::Which::P3] {
        let (blocking, pipelined) = ablations::flush_pipelining(which);
        println!(
            "  {:<6} {:>12.1} {:>12.1} {:>7.0}%",
            which.name(),
            blocking.as_secs_f64(),
            pipelined.as_secs_f64(),
            -overhead_pct(blocking.as_secs_f64(), pipelined.as_secs_f64())
        );
    }
}

/// The fixed seed range CI sweeps per protocol (`--small` uses a prefix).
const CHAOS_SEEDS: u64 = 48;
const CHAOS_SEEDS_SMALL: u64 = 12;

/// Replays one seed verbosely; returns whether its invariants held.
fn chaos_replay(which: Which, seed: u64) -> bool {
    let (first, second) = chaos::replay_twice(which, seed);
    println!("\n[{which} seed {seed}] plan: {:?}", first.plan);
    match &first.crash {
        Some(c) => println!("  crash: crossing {} at '{}'", c.crossing, c.step),
        None => println!("  crash: none fired ({} crossings)", first.crossings),
    }
    println!(
        "  promised: {:?}\n  coupling: {:?}\n  dangling: {}  broken promises: {}  wal left: {}  temps left: {}",
        first.promised,
        first.coupling,
        first.dangling_edges,
        first.broken_promises,
        first.wal_leftover,
        first.temp_leftover
    );
    let violations = first.violations();
    if violations.is_empty() {
        println!("  verdict: PASS");
    } else {
        println!("  verdict: FAIL {violations:?}");
    }
    assert_eq!(
        first, second,
        "replay diverged — the schedule is supposed to be a pure function of the seed"
    );
    println!("  replay: identical schedule and verdict on re-run");
    violations.is_empty()
}

fn chaos_table(small: bool, seed_arg: Option<u64>) -> bool {
    hr("Chaos: explored failure schedules + recovery invariants (machine-checked Table 1:\n       P1/P2 accrue detectable damage under parallel uploads; P3's WAL never does)");
    if let Some(seed) = seed_arg {
        let mut all_ok = true;
        for which in Which::ALL {
            all_ok &= chaos_replay(which, seed);
        }
        return all_ok;
    }
    let seeds = 0..if small {
        CHAOS_SEEDS_SMALL
    } else {
        CHAOS_SEEDS
    };
    println!(
        "Seed range {}..{} per protocol; every seed is a complete failure schedule\n(service faults + crash-point kill + WAL-handoff recovery).\n",
        seeds.start, seeds.end
    );
    println!(
        "{:<9} {:>6} {:>8} {:>7} {:>9} {:>9} {:>8} {:>6} {:>6} {:>6}   verdict",
        "Protocol",
        "Seeds",
        "Crashes",
        "Faulty",
        "Coupl.vio",
        "Dangling",
        "Broken",
        "WAL",
        "Temps",
        "IdxDiv"
    );
    let rows = chaos::sweep(seeds);
    let mut all_ok = true;
    for row in &rows {
        let s = &row.summary;
        let ok = s.failing_seeds == 0;
        all_ok &= ok;
        println!(
            "{:<9} {:>6} {:>8} {:>7} {:>9} {:>9} {:>8} {:>6} {:>6} {:>6}   {}",
            s.protocol.name(),
            s.seeds,
            s.crashes,
            s.faulty_seeds,
            s.coupling_violations,
            s.dangling_edges,
            s.broken_promises,
            s.wal_leftover,
            s.temp_leftover,
            s.index_inconsistencies,
            if ok { "PASS" } else { "FAIL" }
        );
        if let Some((seed, violations)) = &s.minimal_failure {
            println!(
                "          minimal failing seed {seed}: {violations:?}\n          replay with: repro -- chaos --seed {seed}"
            );
        }
    }
    // The replay proof the acceptance criteria ask for: re-run one seed
    // that actually crashed and show the identical schedule + verdict.
    let sample = rows
        .iter()
        .find_map(|r| {
            r.summary
                .minimal_failure
                .as_ref()
                .map(|(seed, _)| (r.summary.protocol, *seed))
                .or_else(|| {
                    r.report
                        .seeds
                        .clone()
                        .zip(&r.report.outcomes)
                        .find(|(_, o)| o.crash.is_some())
                        .map(|(seed, _)| (r.summary.protocol, seed))
                })
        })
        .unwrap_or((Which::P3, 0));
    // Verdict already counted in `all_ok` via the sweep; this re-run is
    // the determinism proof.
    let _ = chaos_replay(sample.0, sample.1);
    println!(
        "\nNote: 'Coupl.vio' and 'Dangling' are DETECTED violations — expected for P1/P2\n(no write-time coupling, parallel uploads); the PASS/FAIL verdict only gates the\nguarantees each protocol actually makes. P3 must stay at zero everywhere."
    );
    // Aimed group-commit schedules: kill the daemon at each named
    // p3:commit:group:* step inside a cross-transaction group and check
    // that recovery recommits every member exactly once.
    println!(
        "\nAimed group-commit crash schedules (daemon killed mid-group; recovery daemon\nrecommits after the visibility window):"
    );
    println!(
        "  {:<26} {:>4} {:>10} {:>9} {:>7} {:>5} {:>6} {:>6}   verdict",
        "Step", "Occ", "Committed", "DoubleCmt", "Uncoup", "WAL", "Temps", "IdxDiv"
    );
    for o in chaos::group_commit_schedules() {
        let violations = o.violations();
        let ok = violations.is_empty();
        all_ok &= ok;
        println!(
            "  {:<26} {:>4} {:>10} {:>9} {:>7} {:>5} {:>6} {:>6}   {}",
            o.step,
            o.occurrence,
            o.unique_committed,
            o.double_commits,
            o.uncoupled,
            o.wal_leftover,
            o.temp_leftover,
            o.index_inconsistencies,
            if ok { "PASS" } else { "FAIL" }
        );
        for v in violations {
            println!("          violation: {v}");
        }
    }
    // Aimed change-feed schedules: kill a feed-enabled daemon at each
    // p3:notify:* step and check the delivery contract across failover —
    // at-least-once, sequence-ordered, duplicates allowed, gaps never.
    println!(
        "\nAimed change-feed crash schedules (daemon killed around stage/publish/watermark;\na live subscription rides both daemons):"
    );
    println!(
        "  {:<20} {:>4} {:>10} {:>8} {:>8} {:>6} {:>6}   verdict",
        "Step", "Occ", "Committed", "FeedMiss", "FeedDup", "Gaps", "Unpub"
    );
    for o in chaos::notify_crash_schedules() {
        let violations = o.violations();
        let ok = violations.is_empty();
        all_ok &= ok;
        println!(
            "  {:<20} {:>4} {:>10} {:>8} {:>8} {:>6} {:>6}   {}",
            o.step,
            o.occurrence,
            o.unique_committed,
            o.feed_missing,
            o.feed_duplicates,
            o.feed_gaps,
            o.feed_unpublished,
            if ok { "PASS" } else { "FAIL" }
        );
        for v in violations {
            println!("          violation: {v}");
        }
    }
    println!(
        "\n('FeedDup' is allowed by the at-least-once contract — the watermark-crash row\nis SUPPOSED to show duplicates; 'FeedMiss', 'Gaps' and 'Unpub' must be zero.)"
    );
    // Aimed content-addressed-store schedules: kill a pipelined client
    // at each client:cas:* step inside the speculative ancestor publish
    // and check the publish-before-reference ordering — acked flushes
    // all recommit, dead flushes never half-log, stranded CAS content
    // is unreferenced garbage rather than a dangling WAL reference.
    println!(
        "\nAimed CAS-publish crash schedules (pipelined client killed inside the\nspeculative ancestor publish; a fresh daemon drains what it logged):"
    );
    println!(
        "  {:<22} {:>4} {:>6} {:>8} {:>10} {:>9} {:>9} {:>6}   verdict",
        "Step", "Occ", "Acked", "Backlog", "Committed", "StrndReg", "StrndDat", "Dangl"
    );
    for o in chaos::cas_crash_schedules() {
        let violations = o.violations();
        let ok = violations.is_empty();
        all_ok &= ok;
        println!(
            "  {:<22} {:>4} {:>6} {:>8} {:>10} {:>9} {:>9} {:>6}   {}",
            o.step,
            o.occurrence,
            o.acked_flushes,
            o.wal_backlog,
            o.unique_committed,
            o.stranded_registry,
            o.stranded_data,
            o.dangling_ancestors,
            if ok { "PASS" } else { "FAIL" }
        );
        for v in violations {
            println!("          violation: {v}");
        }
    }
    println!(
        "\n('StrndReg'/'StrndDat' count CAS content no acknowledged flush references —\nallowed, re-publishable garbage; the register#8 row is SUPPOSED to strand.\n'Dangl' (dangling ancestor references) and half-logged flushes must be zero.)"
    );
    all_ok
}

/// The fleet scaling table over the sharded multi-tenant commit plane.
/// Returns whether every cell was free of invariant violations.
/// `trace_out` writes the first cell's Chrome trace JSON (Perfetto-
/// loadable) to the given path.
fn fleet_table(small: bool, seed: u64, trace_out: Option<&str>) -> bool {
    hr("Fleet: clients x shards x daemons over the sharded commit plane (throughput\n       must rise with daemons at fixed shards; zero invariant violations)");
    println!(
        "Seed {seed}; every cell replays seeded testkit scripts through pipelined,\nthrottled P3 sessions routed onto shard WALs; a lease-holding daemon pool\ncommits asynchronously as GROUPS — workers ride WAL doorbells and publish\nthe change feed. p50/p99 are the client's enqueue->WAL-durable flush latency;\nCp50/Cp99 are the commit plane's own WAL-durable->committed latency, and\nPk50 its waiting component (WAL-durable->daemon pickup) — the part push\ndelivery eliminates. The final row is the unsaturated latency probe.\n"
    );
    println!(
        "{:>7} {:>7} {:>7} {:>7} {:>9} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9}   verdict",
        "Clients",
        "Shards",
        "Daemons",
        "Txns",
        "Commits",
        "Thr(tx/s)",
        "p50(ms)",
        "p99(ms)",
        "Cp50(s)",
        "Cp99(s)",
        "Pk50(s)",
        "Elapsed(s)",
        "Cost($)"
    );
    let mut reports = fleet::sweep(small, seed);
    reports.push(fleet::latency_probe(small, seed));
    let mut all_ok = true;
    for r in &reports {
        let violations = r.violations();
        let ok = violations.is_empty();
        all_ok &= ok;
        println!(
            "{:>7} {:>7} {:>7} {:>7} {:>9} {:>10.2} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.2} {:>10.1} {:>9.4}   {}",
            r.clients,
            r.shards,
            r.daemons,
            r.logged_txns,
            r.unique_committed,
            r.throughput,
            r.p50.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
            r.commit_p50.as_secs_f64(),
            r.commit_p99.as_secs_f64(),
            r.pickup_p50.as_secs_f64(),
            r.elapsed.as_secs_f64(),
            r.total_cost_usd,
            if ok { "PASS" } else { "FAIL" }
        );
        for v in violations {
            println!("          violation: {v}");
        }
        for f in &r.failed_checks {
            println!("          failed check: {f}");
        }
    }
    // Where any flush tail lives: the per-flush latency split. The
    // admission wait is backpressure by design and deliberately NOT a
    // component of p50/p99 above; queue dwell + upload (CAS publish
    // fence, then the WAL delta) compose the sampled total, so a tail
    // here points at the guilty stage. Reported, not gated: the repo
    // benchmark bounds core.client.flush_p50_ms.
    println!(
        "\nFlush latency split (ms) — admission wait is backpressure (reported apart);\nqueue dwell + upload compose the enqueue->WAL-durable total:"
    );
    println!(
        "  {:>7} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Clients", "Shards", "Daemons", "Adm p50", "Adm p99", "Que p99", "Upl p99", "Tot p99"
    );
    for r in &reports {
        println!(
            "  {:>7} {:>7} {:>7} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            r.clients,
            r.shards,
            r.daemons,
            r.admission_p50.as_secs_f64() * 1e3,
            r.admission_p99.as_secs_f64() * 1e3,
            r.queue_p99.as_secs_f64() * 1e3,
            r.upload_p99.as_secs_f64() * 1e3,
            r.p99.as_secs_f64() * 1e3,
        );
    }
    // Where the commit latency lives: the critical-path breakdown of
    // the median-latency traced txn, per cell. Exclusive self-time per
    // phase — dwell (WAL-durable -> daemon pickup), lease (pickup ->
    // group formation), then the group-commit phases — telescopes to
    // the root span, so Sum reconciles with Cp50 by construction. Feed
    // is the post-commit publish, outside the commit window. Drop is
    // doorbells shed by the bounded pool queue; Evict is client dedupe-
    // set evictions (both previously unsurfaced).
    println!(
        "\nCommit critical path (s) — per-phase self-time of the median traced txn;\nphase sum must reconcile with Cp50 (trace gate):"
    );
    println!(
        "  {:>7} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6}",
        "Clients",
        "Shards",
        "Daemons",
        "Dwell",
        "Lease",
        "Copy",
        "Db",
        "Index",
        "Ack",
        "Untr",
        "Sum",
        "Cp50",
        "Drop",
        "Evict"
    );
    for r in &reports {
        let b = r.breakdown.unwrap_or_default();
        println!(
            "  {:>7} {:>7} {:>7} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>6} {:>6}",
            r.clients,
            r.shards,
            r.daemons,
            b.dwell.as_secs_f64(),
            b.lease.as_secs_f64(),
            b.copy.as_secs_f64(),
            b.db.as_secs_f64(),
            b.index.as_secs_f64(),
            b.ack.as_secs_f64(),
            b.untraced.as_secs_f64(),
            b.commit_sum().as_secs_f64(),
            r.commit_p50.as_secs_f64(),
            r.pool.dropped,
            r.dedupe_evictions,
        );
    }
    // Trace gate: connectivity (zero orphan spans) and root fidelity
    // (root duration == measured commit latency, +/- 1 sim tick) per
    // cell. Both are also folded into violations(), so a failure here
    // already flipped the cell's verdict above.
    let trace_ok = reports
        .iter()
        .all(|r| r.trace_orphans == 0 && r.trace_root_mismatches == 0);
    println!(
        "\nTrace gate: zero orphan spans, every root == measured commit latency — {} ({} spans across {} cells)",
        if trace_ok { "PASS" } else { "FAIL" },
        reports.iter().map(|r| r.trace_spans).sum::<u64>(),
        reports.len()
    );
    // Pickup gate, on the probe cell: the doorbell must put the waiting
    // component of commit latency (WAL-durable -> daemon pickup) under a
    // second — a polling plane physically cannot (its dwell is
    // ~poll_interval/2). The gate reads the probe because the scaling
    // cells saturate the plane by design, where pickup measures the
    // backlog, not the delivery path.
    let mut push_ok = true;
    for r in reports.iter().filter(|r| fleet::is_latency_probe(r)) {
        let pk = r.pickup_p50.as_secs_f64();
        if pk >= 1.0 {
            push_ok = false;
            println!(
                "push gate: probe {}c/{}s/{}d pickup p50 {:.2} s >= 1 s   FAIL",
                r.clients, r.shards, r.daemons, pk
            );
        }
    }
    println!(
        "\nPush-mode gate: WAL-durable->pickup p50 < 1 s on the latency probe — {}",
        if push_ok { "PASS" } else { "FAIL" }
    );
    all_ok &= push_ok;
    // Headline scaling claim: at the fixed shard count of the daemon
    // sweep, throughput must rise with daemon count.
    let daemon_sweep: Vec<&cloudprov_workloads::FleetReport> = {
        let (shards, clients) = (reports[0].shards, reports[0].clients);
        reports
            .iter()
            .filter(|r| r.shards == shards && r.clients == clients)
            .collect()
    };
    if daemon_sweep.len() >= 2 {
        let first = daemon_sweep.first().unwrap();
        let last = daemon_sweep.last().unwrap();
        let scaled = last.throughput > first.throughput;
        println!(
            "\nDaemon scaling at {} shards: {} daemon(s) -> {:.2} tx/s, {} daemons -> {:.2} tx/s ({})",
            first.shards,
            first.daemons,
            first.throughput,
            last.daemons,
            last.throughput,
            if scaled { "scales" } else { "DOES NOT SCALE" }
        );
        all_ok &= scaled;
    }
    // Per-tenant attribution for the first cell.
    let first = &reports[0];
    println!(
        "\nPer-tenant bill of the first cell ({} clients over {} tenants):",
        first.clients, first.tenants
    );
    println!("  {:>7} {:>8} {:>10} {:>10}", "Tenant", "Ops", "MB", "USD");
    for t in &first.per_tenant {
        println!(
            "  {:>7} {:>8} {:>10.2} {:>10.4}",
            format!("t{}", t.tenant),
            t.ops,
            t.mb,
            t.usd
        );
    }
    // Determinism proof: the first cell re-run must reproduce exactly.
    let again = fleet::rerun_first(small, seed);
    let identical = again == reports[0];
    println!(
        "\nDeterminism: first cell re-run is {} (same seed -> same table).",
        if identical {
            "bit-identical"
        } else {
            "DIFFERENT"
        }
    );
    all_ok &= identical;
    // The sampled cell's full trace, in Chrome trace_event format —
    // load it at https://ui.perfetto.dev to walk a txn's span tree.
    if let Some(path) = trace_out {
        match reports[0].trace_json.as_deref() {
            Some(trace) => match std::fs::write(path, trace) {
                Ok(()) => println!(
                    "Wrote {path} ({} spans of the first cell; Perfetto-loadable).",
                    reports[0].trace_spans
                ),
                Err(e) => println!("Could not write {path}: {e}"),
            },
            None => println!("No trace sampled for the first cell; {path} not written."),
        }
    }
    all_ok
}

/// The argument following `flag`, if `flag` was given (exits 2 when the
/// value is missing).
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    Some(args.get(i + 1).cloned().unwrap_or_else(|| {
        eprintln!("{flag} requires an argument");
        std::process::exit(2);
    }))
}

const TABLE5_LOST: &str = "Table 5 lost the paper's shape (see verdict above)";
const FIG4_LOST: &str = "Figure 4 lost the paper's shape (see verdict above)";
const QUERIES_FAILED: &str =
    "queries gate failed: plan disagreement, index inconsistency, lost speedup or a stale read (see above)";
const CHAOS_FAILED: &str = "chaos exploration found invariant violations (see table above)";
const FLEET_FAILED: &str =
    "fleet sweep found invariant violations or lost scaling (see table above)";

/// Exits 1 with `why` when a gated experiment failed.
fn gate(ok: bool, why: &str) {
    if !ok {
        eprintln!("\n{why}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let small = args.iter().any(|a| a == "--small" || a == "--smoke");
    let seed_arg = flag_value(&args, "--seed").map(|s| {
        s.parse::<u64>().unwrap_or_else(|_| {
            eprintln!("--seed requires a decimal u64 argument");
            std::process::exit(2);
        })
    });
    let trace_out = flag_value(&args, "--trace-out");
    let cmd = args
        .iter()
        .enumerate()
        .find(|(i, a)| {
            !a.starts_with("--")
                && args
                    .get(i.wrapping_sub(1))
                    .is_none_or(|prev| prev != "--seed" && prev != "--trace-out")
        })
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "all".to_string());
    let t0 = Instant::now();
    let seed = seed_arg.unwrap_or(0);
    match cmd.as_str() {
        "table1" => table1(),
        "table2" => table2(small),
        "table3" | "fig3" => micro_tables(small),
        "table4" => table4(small),
        "table5" => gate(table5(small), TABLE5_LOST),
        "queries" => gate(queries_gate(small, seed), QUERIES_FAILED),
        "fig4" => gate(fig4(small), FIG4_LOST),
        "umlcheck" => uml(small),
        "ablations" => ablation_report(),
        "chaos" => gate(chaos_table(small, seed_arg), CHAOS_FAILED),
        "fleet" => gate(fleet_table(small, seed, trace_out.as_deref()), FLEET_FAILED),
        "all" => {
            table1();
            table2(small);
            micro_tables(small);
            gate(fig4(small), FIG4_LOST);
            table4(small);
            gate(table5(small), TABLE5_LOST);
            uml(small);
            ablation_report();
            gate(queries_gate(true, seed), QUERIES_FAILED);
            gate(chaos_table(small, None), CHAOS_FAILED);
            gate(fleet_table(true, 0, trace_out.as_deref()), FLEET_FAILED);
        }
        other => {
            eprintln!(
                "unknown experiment '{other}'; use table1|table2|table3|table4|table5|queries|fig3|fig4|umlcheck|ablations|chaos|fleet|all [--small|--smoke] [--seed N] [--trace-out PATH]"
            );
            std::process::exit(2);
        }
    }
    eprintln!(
        "\n[repro completed in {:.1} s wall time]",
        t0.elapsed().as_secs_f64()
    );
}
