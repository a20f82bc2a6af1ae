//! One workload in one process: an untimed warm-up repetition, then timed
//! repetitions — each in a fresh simulated world — until the measuring
//! time is used up. Host metrics are medians over the repetitions;
//! virtual metrics come from repetition 1 and must be bit-identical in
//! every other repetition. The traced variant interleaves untraced and
//! traced repetitions (each kind bit-identical within itself), climbs the
//! ladder, and runs the micro-kernels.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::host::{allowed_cpus, peak_rss_mb, Rusage};
use crate::json::Json;
use crate::metrics::{
    contract_end_to_end, contract_per_layer, find, MetricDef, COMMIT_PACED, END_TO_END, PER_LAYER,
    WORKLOADS,
};
use crate::micro;
use crate::spans::{chrome_trace, HostSpans};
use crate::stats::median;
use crate::workloads::{repetition, run_ladder, Repetition, Scale, Values};

/// Never fewer timed repetitions than this, whatever `--seconds` says.
pub const MIN_REPS: usize = 5;
const MAX_REPS: usize = 64;
/// The contract gives a run 180 s; stop starting repetitions well before.
const WALL_BUDGET: Duration = Duration::from_secs(120);
/// Untraced/traced pairs in the traced run.
const TRACE_PAIRS: usize = 2;
/// Failed checks listed by name in the result (all are counted).
const FAILURES_LISTED: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Report {
    /// Exactly the driver contract's keys and metric lists.
    Contract,
    /// Everything measured, for the suite's tables and `compare`.
    Full,
}

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub report: Report,
    pub scale: Scale,
    /// Where the traced run writes `trace-<workload>.json`.
    pub out_dir: Option<std::path::PathBuf>,
}

/// What one process measured.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub reps: usize,
    /// The CPU the process was pinned to, if it was pinned to exactly one.
    pub pinned_cpu: Option<u32>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    pub notes: BTreeMap<String, f64>,
}

struct Timed {
    rep: Repetition,
    wall: Duration,
    cpu: Rusage,
}

fn timed_repetition(
    args: &RunArgs,
    traced: bool,
    spans: &Arc<HostSpans>,
    label: &'static str,
) -> Timed {
    let open = spans.enter(label, None);
    let before = Rusage::now();
    let t = Instant::now();
    let rep = repetition(
        &args.workload,
        args.scale,
        args.seed,
        traced,
        spans,
        open.id(),
    );
    let wall = t.elapsed();
    let cpu = Rusage::now().since(&before);
    spans.exit(open);
    Timed { rep, wall, cpu }
}

/// Host-ledger readings of a set of repetitions, as medians.
fn host_medians(reps: &[&Timed]) -> Values {
    let med = |f: &dyn Fn(&Timed) -> f64| median(&reps.iter().map(|t| f(t)).collect::<Vec<_>>());
    let mut out = Values::new();
    out.insert("setup_s", med(&|t| t.rep.phases.setup.as_secs_f64()));
    out.insert(
        "host_wall_s",
        med(&|t| t.wall.saturating_sub(t.rep.phases.setup).as_secs_f64()),
    );
    out.insert("sim.host_user_s", med(&|t| t.cpu.user.as_secs_f64()));
    out.insert("sim.host_sys_s", med(&|t| t.cpu.sys.as_secs_f64()));
    out.insert("sim.ctx_switches", med(&|t| t.cpu.ctx_switches as f64));
    out.insert(
        "sim.virtual_s_per_host_s",
        med(&|t| t.rep.virtual_elapsed.as_secs_f64() / t.wall.as_secs_f64().max(1e-9)),
    );
    out.insert(
        "bench.phase_setup_s",
        med(&|t| t.rep.phases.setup.as_secs_f64()),
    );
    out.insert(
        "bench.phase_drive_s",
        med(&|t| t.rep.phases.drive.as_secs_f64()),
    );
    out.insert(
        "bench.phase_quiesce_s",
        med(&|t| t.rep.phases.quiesce.as_secs_f64()),
    );
    out.insert(
        "bench.phase_verify_s",
        med(&|t| t.rep.phases.verify.as_secs_f64()),
    );
    let own: std::collections::BTreeSet<&'static str> = reps
        .iter()
        .flat_map(|t| t.rep.host.keys().copied())
        .collect();
    for name in own {
        out.insert(name, med(&|t| t.rep.host.get(name).copied().unwrap_or(0.0)));
    }
    out
}

/// Compares a repetition's virtual ledger with a reference repetition's,
/// bit for bit.
fn virtual_mismatches(reference: &Repetition, rep: &Repetition) -> Vec<String> {
    let pairs = reference
        .virt
        .iter()
        .map(|(k, v)| (*k, *v, rep.virt.get(k).copied()))
        .chain(
            reference
                .notes
                .iter()
                .map(|(k, v)| (*k, *v, rep.notes.get(k).copied())),
        );
    pairs
        .filter(|(_, want, got)| got.map(f64::to_bits) != Some(want.to_bits()))
        .map(|(name, want, got)| {
            format!("virtual mismatch: {name} is {got:?}, the first repetition read {want}")
        })
        .collect()
}

/// Largest relative difference, in percent, between a traced and an
/// untraced repetition over the end-to-end virtual metrics. The tracer
/// itself adds no virtual time, but the span context it threads through
/// the WAL header lengthens every WAL message, and the 2009 model charges
/// transfer time (and money) per byte — so at paper-calibrated latencies
/// the two timelines drift apart slightly (README, "Traced run").
fn trace_drift_pct(plain: &Repetition, traced: &Repetition) -> f64 {
    END_TO_END
        .iter()
        .filter_map(|m| Some((plain.virt.get(m.name)?, traced.virt.get(m.name)?)))
        .filter(|(p, _)| **p != 0.0)
        .map(|(p, t)| ((t - p) / p).abs() * 100.0)
        .fold(0.0, f64::max)
}

pub fn run(args: &RunArgs) -> RunResult {
    assert!(
        WORKLOADS.iter().any(|(w, _)| *w == args.workload),
        "unknown workload {}",
        args.workload
    );
    let started = Instant::now();
    let spans = Arc::new(HostSpans::new(args.traced));
    // Warm-up: page faults, allocator growth, lazy statics. Untimed, but
    // its checks count.
    let warm = timed_repetition(args, false, &spans, "warm-up repetition");

    let mut plain: Vec<Timed> = Vec::new();
    let mut traced: Vec<Timed> = Vec::new();
    if args.traced {
        for _ in 0..TRACE_PAIRS {
            plain.push(timed_repetition(args, false, &spans, "untraced repetition"));
            traced.push(timed_repetition(args, true, &spans, "traced repetition"));
        }
    } else {
        let mut measured = Duration::ZERO;
        while plain.len() < MAX_REPS
            && (plain.len() < MIN_REPS
                || (measured.as_secs_f64() < args.seconds && started.elapsed() < WALL_BUDGET))
        {
            let t = timed_repetition(args, false, &spans, "untraced repetition");
            measured += t.wall;
            plain.push(t);
        }
    }
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    for t in std::iter::once(&warm).chain(&plain).chain(&traced) {
        attempted += t.rep.attempted;
        failures.extend(t.rep.failures.iter().cloned());
    }
    for t in std::iter::once(&warm).chain(plain.iter().skip(1)) {
        failures.extend(virtual_mismatches(&plain[0].rep, &t.rep));
    }
    for t in traced.iter().skip(1) {
        failures.extend(virtual_mismatches(&traced[0].rep, &t.rep));
    }

    // Assemble: virtual from repetition 1 (the traced one when tracing,
    // which adds the tracer's own metrics), host as medians.
    let mut values: Values = Values::new();
    let mut notes: Values = plain[0].rep.notes.clone();
    let source = if args.traced { &traced } else { &plain };
    values.extend(source[0].rep.virt.iter().map(|(k, v)| (*k, *v)));
    values.extend(host_medians(&source.iter().collect::<Vec<_>>()));
    if args.traced {
        let wall = |set: &[Timed]| {
            median(
                &set.iter()
                    .map(|t| t.wall.saturating_sub(t.rep.phases.setup).as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        values.insert(
            "trace.overhead_pct",
            (wall(&traced) / wall(&plain).max(1e-9) - 1.0) * 100.0,
        );
        values.insert(
            "trace.virtual_drift_pct",
            trace_drift_pct(&plain[0].rep, &traced[0].rep),
        );
    }
    // The ladder: with the untraced suite run (end-to-end metrics are
    // measured with the tracer off) and with the driver's traced run
    // (where `per_layer` carries the workload-specific metrics).
    let ladder =
        args.workload == COMMIT_PACED && (args.traced == (args.report == Report::Contract));
    if ladder {
        let open = spans.enter("ladder", None);
        let (max_ok, tried, failed) = run_ladder(args.scale, args.seed, &spans, open.id());
        spans.exit(open);
        values.insert("max_ok_sessions_per_s", max_ok);
        attempted += tried;
        failures.extend(failed);
    }
    if args.traced {
        let open = spans.enter("micro-kernels", None);
        values.extend(micro::run_all(&spans, open.id()));
        spans.exit(open);
    }
    values.insert("host_peak_rss_mb", peak_rss_mb());
    notes.insert("reps", source.len() as f64);

    // A metric the tables promise for this workload and mode must be there.
    let expected: Vec<&MetricDef> = if args.traced {
        PER_LAYER
            .iter()
            .chain(END_TO_END.iter().filter(|m| !m.homes.is_empty()))
            .collect()
    } else {
        END_TO_END.iter().collect()
    };
    for m in expected.iter().filter(|m| m.measured_on(&args.workload)) {
        let ladder_metric = m.name == "max_ok_sessions_per_s";
        if !values.contains_key(m.name) && (ladder || !ladder_metric) {
            failures.push(format!("missing metric {}", m.name));
        }
    }
    if args.traced {
        if let Some(dir) = &args.out_dir {
            let doc = chrome_trace(&args.workload, &spans.take());
            let path = dir.join(format!("trace-{}.json", args.workload));
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.render()))
            {
                failures.push(format!("could not write {}: {e}", path.display()));
            }
        }
    }

    let cpus = allowed_cpus();
    RunResult {
        workload: args.workload.clone(),
        seed: args.seed,
        traced: args.traced,
        reps: source.len(),
        pinned_cpu: (cpus.len() == 1).then(|| cpus[0]),
        attempted: attempted.max(1),
        failed: failures.len() as u64,
        failures,
        // Only metrics the tables define and this workload measures.
        metrics: values
            .into_iter()
            .filter(|(k, _)| find(k).is_some_and(|m| m.measured_on(&args.workload)))
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        notes: notes.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
    }
}

fn metric_json(defs: &[&MetricDef], r: &RunResult, fill_zero: bool) -> Json {
    Json::obj(defs.iter().filter_map(|m| {
        let value = match r.metrics.get(m.name) {
            Some(v) => *v,
            None if fill_zero => 0.0,
            None => return None,
        };
        Some((
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        ))
    }))
}

impl RunResult {
    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics` — every `end_to_end` metric untraced, every
    /// `per_layer` metric traced (zero where the workload leaves the
    /// layer idle).
    pub fn contract_json(&self) -> Json {
        let defs = if self.traced {
            contract_per_layer()
        } else {
            contract_end_to_end()
        };
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metric_json(&defs, self, true)),
        ])
    }

    /// Everything, for the results file.
    pub fn full_json(&self) -> Json {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        let num_map = |m: &BTreeMap<String, f64>| {
            Json::obj(m.iter().map(|(k, v)| (k.as_str(), Json::Num(*v))))
        };
        Json::obj([
            ("workload", Json::str(self.workload.as_str())),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("reps", Json::Num(self.reps as f64)),
            (
                "pinned_cpu",
                self.pinned_cpu
                    .map_or(Json::Null, |c| Json::Num(f64::from(c))),
            ),
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .take(FAILURES_LISTED)
                        .map(|f| Json::str(f.as_str()))
                        .collect(),
                ),
            ),
            ("metrics", metric_json(&all, self, false)),
            ("notes", num_map(&self.notes)),
        ])
    }

    /// Reads back what [`RunResult::full_json`] wrote.
    pub fn from_json(v: &Json) -> Result<RunResult, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("result lacks `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
        {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no numeric value"))?;
            metrics.insert(name.clone(), value);
        }
        let notes = v
            .get("notes")
            .and_then(Json::as_obj)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                    .collect()
            })
            .unwrap_or_default();
        Ok(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: num("seed")? as u64,
            traced: field("traced")?.as_bool().ok_or("`traced` is not a bool")?,
            reps: num("reps")? as usize,
            pinned_cpu: v.get("pinned_cpu").and_then(Json::as_f64).map(|c| c as u32),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: v
                .get("failures")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|f| f.as_str().map(str::to_string))
                .collect(),
            metrics,
            notes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{COMMIT_BURST, READ_SERVE};

    fn smoke(workload: &str, traced: bool, report: Report) -> RunResult {
        run(&RunArgs {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            traced,
            report,
            scale: Scale::Smoke,
            out_dir: None,
        })
    }

    #[test]
    fn an_untraced_run_emits_exactly_the_contract_metrics() {
        let r = smoke(COMMIT_BURST, false, Report::Contract);
        assert_eq!(r.failures, Vec::<String>::new());
        assert_eq!(r.reps, MIN_REPS, "never fewer than five timed repetitions");
        let line = r.contract_json();
        let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        let want: Vec<&str> = contract_end_to_end().iter().map(|m| m.name).collect();
        assert_eq!(
            metrics.keys().map(String::as_str).collect::<Vec<_>>().len(),
            want.len()
        );
        for name in want {
            let v = metrics[name].get("value").unwrap().as_f64().unwrap();
            assert!(v > 0.0, "{name} must never read 0, got {v}");
        }
        // The results file round-trips through the reader.
        let text = r.full_json().render();
        let back = RunResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(
            (back.attempted, back.failed, back.reps),
            (r.attempted, r.failed, r.reps)
        );
    }

    #[test]
    fn a_traced_run_fills_every_per_layer_metric() {
        let r = smoke(READ_SERVE, true, Report::Contract);
        assert_eq!(r.failures, Vec::<String>::new());
        let line = r.contract_json();
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        let want = contract_per_layer();
        assert_eq!(metrics.len(), want.len());
        for m in want {
            assert!(metrics.contains_key(m.name), "{}", m.name);
            if m.measured_on(READ_SERVE) {
                assert!(
                    r.metrics.contains_key(m.name),
                    "{} was not measured",
                    m.name
                );
            }
        }
        assert!(r.metrics.contains_key("trace.overhead_pct"));
        assert!(r.metrics["query.cache.hits"] > 0.0);
    }

    #[test]
    fn a_differing_repetition_is_a_failed_check() {
        let spans = Arc::new(HostSpans::new(false));
        let a = repetition(COMMIT_BURST, Scale::Smoke, 1, false, &spans, None);
        let b = repetition(COMMIT_BURST, Scale::Smoke, 2, false, &spans, None);
        assert!(virtual_mismatches(&a, &a).is_empty());
        assert!(!virtual_mismatches(&a, &b).is_empty());
        assert_eq!(trace_drift_pct(&a, &a), 0.0);
        assert!(trace_drift_pct(&a, &b) > 0.0);
    }
}
