//! The repo benchmark. See README.md.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, the driver's result line
//! benchmark suite [--seed N | --seeds A,B] [--traced] [...]     every workload, tables, results file
//! benchmark compare PARENT.json CHANGE.json…                    verdict per (workload, metric)
//! benchmark manifest                                            BENCHMARK.json from the metric table
//! ```
//!
//! `run` and `suite` measure each workload in a child process of its own,
//! pinned to one CPU: the sim runs one simulated thread at a time, and
//! letting the scheduler migrate its hand-offs between cores doubles
//! their cost and their variance (README, "Why the process is pinned").

mod cold;
mod compare;
mod host;
mod json;
mod metrics;
mod micro;
mod plane;
mod reads;
mod replay;
mod run;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{
    contract_end_to_end, contract_per_layer, MetricDef, END_TO_END, PER_LAYER, WORKLOADS,
};
use run::{Report, RunArgs, RunResult};
use workloads::Scale;

/// Measuring time per workload: BENCHMARK.json's `run_seconds`, and the
/// suite's default.
const DEFAULT_SECONDS: f64 = 10.0;

struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// `--name value` pairs and bare `--switch`es.
fn parse_flags(args: &[String], switches: &[&str]) -> Result<Flags, String> {
    let mut f = Flags {
        values: BTreeMap::new(),
        switches: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(name) if switches.contains(&name) => f.switches.push(name.to_string()),
            Some(name) => {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                f.values.insert(name.to_string(), v.clone());
            }
            None => return Err(format!("unexpected argument `{a}`")),
        }
    }
    Ok(f)
}

impl Flags {
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read `{v}`")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !allowed.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn run_args(f: &Flags, report: Report) -> Result<RunArgs, String> {
    let workload: String = f.get("workload", String::new())?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(w, _)| *w).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    let seconds: f64 = f.get("seconds", DEFAULT_SECONDS)?;
    if !(0.0..=60.0).contains(&seconds) {
        return Err("--seconds must be between 0 and 60".into());
    }
    let trace: u8 = f.get("trace", 0)?;
    if trace > 1 {
        return Err("--trace must be 0 or 1".into());
    }
    Ok(RunArgs {
        workload,
        seed: f.get("seed", 0)?,
        seconds,
        traced: trace == 1,
        report,
        scale: Scale::Full,
        out_dir: Some(PathBuf::from(
            f.get("out-dir", "benchmark/out".to_string())?,
        )),
    })
}

/// The CPU to pin children to: the last one this process may use, if
/// `taskset` is there to do the pinning.
fn pin_cpu() -> Option<u32> {
    let cpu = *host::allowed_cpus().last()?;
    let works = Command::new("taskset")
        .args(["-c", &cpu.to_string(), "true"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success());
    works.then_some(cpu)
}

/// Measures one workload in a pinned child process and returns the last
/// line of its standard output. The child is waited for before returning.
fn spawn_child(args: &RunArgs, pin: Option<u32>) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = match pin {
        Some(cpu) => {
            let mut c = Command::new("taskset");
            c.args(["-c", &cpu.to_string()]).arg(&exe);
            c
        }
        None => Command::new(&exe),
    };
    cmd.args(["run", "--child"])
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .args([
            "--report",
            if args.report == Report::Full {
                "full"
            } else {
                "contract"
            },
        ]);
    if let Some(dir) = &args.out_dir {
        cmd.arg("--out-dir").arg(dir);
    }
    // One simulated thread runs at a time, so one malloc arena is how the
    // program really runs; glibc's per-thread arenas only add run-to-run
    // variance to `host_peak_rss_mb` (28-35 MB vs a steady 19 on query-cold).
    let out = cmd
        .env("MALLOC_ARENA_MAX", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", args.workload))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if line.is_empty() {
        return Err(format!(
            "the {} child printed no result ({})",
            args.workload, out.status
        ));
    }
    Ok(line)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args, &["child"])?;
    f.only(&["workload", "seed", "seconds", "trace", "report", "out-dir"])?;
    let report = match f.get("report", "contract".to_string())?.as_str() {
        "contract" => Report::Contract,
        "full" => Report::Full,
        other => return Err(format!("--report: `{other}` is neither contract nor full")),
    };
    let run_args = run_args(&f, report)?;
    if !f.has("child") {
        let pin = pin_cpu();
        eprintln!(
            "benchmark: {} seed {} trace {} for {} s, pinned: {}",
            run_args.workload,
            run_args.seed,
            u8::from(run_args.traced),
            run_args.seconds,
            pin.map_or("false".to_string(), |c| format!("cpu {c}")),
        );
        // A result line means the run completed: `correct` and `failed`
        // carry the verdict, the exit code only says "no result".
        let line = spawn_child(&run_args, pin)?;
        Json::parse(&line).map_err(|e| format!("the child's result does not parse: {e}"))?;
        println!("{line}");
        return Ok(ExitCode::SUCCESS);
    }
    let result = run::run(&run_args);
    for failure in result.failures.iter().take(20) {
        eprintln!("  FAILED CHECK: {failure}");
    }
    if result.traced {
        eprint!("{}", layer_table(&result.workload, &result.metrics));
    }
    let doc = match report {
        Report::Contract => result.contract_json(),
        Report::Full => result.full_json(),
    };
    println!("{}", doc.render());
    Ok(ExitCode::SUCCESS)
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.001 && v.abs() < 1e7) {
        let s = format!("{v:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        format!("{v:e}")
    }
}

fn table(title: &str, workload: &str, defs: &[MetricDef], got: &BTreeMap<String, f64>) -> String {
    let mut out = format!("{title}\n");
    for m in defs.iter().filter(|m| m.measured_on(workload)) {
        let value = got.get(m.name).map_or("-".to_string(), |v| fmt_value(*v));
        out.push_str(&format!(
            "  {:<32} {:>16} {:<6} {:<8} {:<7}{}\n",
            m.name,
            value,
            m.unit,
            m.ledger.name(),
            m.better.name(),
            m.bound
                .map_or(String::new(), |b| format!(" bound {:.0}%", b * 100.0)),
        ));
    }
    out
}

fn layer_table(workload: &str, got: &BTreeMap<String, f64>) -> String {
    table(
        &format!("[{workload}] per-layer metrics"),
        workload,
        PER_LAYER,
        got,
    )
}

fn cmd_suite(args: &[String]) -> Result<ExitCode, String> {
    let f = parse_flags(args, &["traced"])?;
    f.only(&["seed", "seeds", "seconds", "out-dir", "commit", "workload"])?;
    let seeds: Vec<u64> = match f.values.get("seeds") {
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| format!("--seeds: cannot read `{s}`"))
            })
            .collect::<Result<_, _>>()?,
        None => vec![f.get("seed", 0)?],
    };
    let seconds: f64 = f.get("seconds", DEFAULT_SECONDS)?;
    let out_dir = PathBuf::from(f.get("out-dir", "benchmark/out".to_string())?);
    let commit: String = f.get("commit", "unknown".to_string())?;
    let only: Option<&String> = f.values.get("workload");
    let traced = f.has("traced");
    let pin = pin_cpu();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "== cloudprov benchmark: commit {commit}, seeds {seeds:?}, nproc {nproc}, pinned: {}, {seconds} s per workload, traced: {traced}",
        pin.map_or("false".to_string(), |c| format!("cpu {c}")),
    );

    let mut runs: Vec<RunResult> = Vec::new();
    let mut failed_checks = 0u64;
    for seed in &seeds {
        for (workload, _) in WORKLOADS {
            if only.is_some_and(|w| w != workload) {
                continue;
            }
            let mut shown: Vec<RunResult> = Vec::new();
            for trace in [false, true] {
                if trace && !traced {
                    continue;
                }
                let args = RunArgs {
                    workload: workload.to_string(),
                    seed: *seed,
                    seconds,
                    traced: trace,
                    report: Report::Full,
                    scale: Scale::Full,
                    out_dir: Some(out_dir.clone()),
                };
                let line = spawn_child(&args, pin)?;
                let result = RunResult::from_json(&Json::parse(&line)?)?;
                failed_checks += result.failed;
                println!(
                    "-- {workload} seed {seed} {}: {} timed repetitions, attempted {}, failed {}{}",
                    if trace { "traced" } else { "untraced" },
                    result.reps,
                    result.attempted,
                    result.failed,
                    result
                        .pinned_cpu
                        .map_or(String::new(), |c| format!(", on cpu {c}")),
                );
                for failure in &result.failures {
                    println!("   FAILED CHECK: {failure}");
                }
                shown.push(result.clone());
                runs.push(result);
            }
            // End-to-end metrics are measured with the tracer off; the
            // per-layer numbers are the traced run's (or, without
            // --traced, the subset an untraced run can measure).
            let notes: Vec<String> = shown[0]
                .notes
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let title = format!("[{workload}] end-to-end metrics (n: {})", notes.join(", "));
            print!(
                "{}",
                table(&title, workload, &END_TO_END, &shown[0].metrics)
            );
            let layers = shown.last().expect("at least the untraced run");
            print!("{}", layer_table(workload, &layers.metrics));
        }
    }

    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let results = out_dir.join("results.json");
    let doc = Json::obj([
        ("commit", Json::str(commit.as_str())),
        ("nproc", Json::Num(nproc as f64)),
        (
            "pinned_cpu",
            pin.map_or(Json::Null, |c| Json::Num(f64::from(c))),
        ),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
        ),
        (
            "runs",
            Json::Arr(runs.iter().map(RunResult::full_json).collect()),
        ),
    ]);
    std::fs::write(&results, doc.render() + "\n")
        .map_err(|e| format!("{}: {e}", results.display()))?;
    println!("results: {}", results.display());
    if traced {
        let trace = out_dir.join("trace.json");
        merge_traces(&out_dir, &trace)?;
        println!("host spans (Chrome trace format): {}", trace.display());
    }
    if failed_checks > 0 {
        println!("FAILED: {failed_checks} failed checks");
        return Ok(ExitCode::FAILURE);
    }
    println!("ok: every check passed");
    Ok(ExitCode::SUCCESS)
}

/// Folds the children's `trace-<workload>.json` files into one trace, one
/// process per workload.
fn merge_traces(dir: &Path, into: &Path) -> Result<(), String> {
    let mut events = Vec::new();
    for (pid, (workload, _)) in WORKLOADS.iter().enumerate() {
        let path = dir.join(format!("trace-{workload}.json"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        for ev in doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap_or_default()
        {
            let mut ev = ev.as_obj().cloned().unwrap_or_default();
            ev.insert("pid".into(), Json::Num(pid as f64 + 1.0));
            events.push(Json::Obj(ev));
        }
    }
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    std::fs::write(into, doc.render() + "\n").map_err(|e| format!("{}: {e}", into.display()))
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [parent, changes @ ..] = args else {
        return Err("compare needs PARENT.json CHANGE.json…".into());
    };
    if changes.is_empty() {
        return Err("compare needs at least one CHANGE.json".into());
    }
    let load = |p: &String| -> Result<Vec<RunResult>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        compare::load_runs(&text).map_err(|e| format!("{p}: {e}"))
    };
    let parent = load(parent)?;
    let mut change = Vec::new();
    for c in changes {
        change.extend(load(c)?);
    }
    let (table, counts) = compare::compare(&parent, &change);
    print!("{table}");
    Ok(if counts[compare::Verdict::Regressed as usize] > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// BENCHMARK.json, generated from the metric table so the two cannot drift.
pub fn manifest() -> Json {
    let metric = |m: &&MetricDef, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ];
        if bounded {
            pairs.push((
                "bound",
                Json::Num(m.bound.expect("end-to-end metrics are bounded")),
            ));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                contract_end_to_end()
                    .iter()
                    .map(|m| metric(m, true))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                contract_per_layer()
                    .iter()
                    .map(|m| metric(m, false))
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "suite" => cmd_suite(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            println!("{}", manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: benchmark run|suite|compare|manifest … (see benchmark/README.md)".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `../BENCHMARK.json` is what the driver reads; it must be exactly
    /// what the metric table generates.
    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc,
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    #[test]
    fn flags_parse_and_reject() {
        let args: Vec<String> = [
            "--workload",
            "commit-burst",
            "--seed",
            "7",
            "--trace",
            "1",
            "--child",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let f = parse_flags(&args, &["child"]).unwrap();
        assert!(f.has("child"));
        let r = run_args(&f, Report::Contract).unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.traced),
            ("commit-burst", 7, true)
        );
        assert!(
            f.only(&["workload", "seed"]).is_err(),
            "--trace is not in that list"
        );
        let bad = |list: &[&str]| {
            let args: Vec<String> = list.iter().map(|s| s.to_string()).collect();
            parse_flags(&args, &[])
                .and_then(|f| run_args(&f, Report::Contract))
                .is_err()
        };
        assert!(bad(&["--workload", "nope"]));
        assert!(bad(&["--workload", "commit-burst", "--trace", "2"]));
        assert!(bad(&["--workload", "commit-burst", "--seconds", "600"]));
        assert!(bad(&["--workload"]));
        assert!(bad(&["--workload", "commit-burst", "stray"]));
    }
}
