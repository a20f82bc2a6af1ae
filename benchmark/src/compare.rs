//! `benchmark compare PARENT.json CHANGE.json…`: one row per (workload,
//! end-to-end metric) with the parent's median and quartiles, the change's
//! median, the fixed bound and a verdict, plus each side's failed share.
//! The first file is the parent's set of runs; every further file is
//! pooled into the change's set. Only untraced runs are compared:
//! end-to-end metrics are measured with the tracer off.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::run::RunResult;
use crate::stats::{median, quartiles, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Run-to-run spread exceeds the bound, so a difference of the size
    /// the bound cares about cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse (positive) or better (negative) `change` is than
/// `parent`, as a share of `parent`, in the metric's own direction.
fn worsening(m: &MetricDef, parent: f64, change: f64) -> f64 {
    if parent == 0.0 {
        return if change == parent { 0.0 } else { f64::INFINITY };
    }
    let rel = (change - parent) / parent.abs();
    match m.better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// The verdict rule (choosing-metrics §6.5): beyond the bound the medians
/// decide — unless either side's own run-to-run spread is wider than the
/// bound, in which case the row is *unresolved*, except when every run of
/// one side beats every run of the other. Two sides that read the same
/// values (a virtual metric over the same seeds) are unchanged whatever
/// their spread across seeds.
pub fn verdict(m: &MetricDef, parent: &[f64], change: &[f64]) -> Verdict {
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    if sorted(parent) == sorted(change) {
        return Verdict::Unchanged;
    }
    let bound = m.bound.expect("only bounded metrics are compared");
    let worse = worsening(m, median(parent), median(change));
    let noisy = spread(parent) > bound || spread(change) > bound;
    if noisy {
        let all = |f: &dyn Fn(f64) -> bool| {
            parent
                .iter()
                .all(|p| change.iter().all(|c| f(worsening(m, *p, *c))))
        };
        return if worse < -bound && all(&|w| w < 0.0) {
            Verdict::Improved
        } else if worse > bound && all(&|w| w > 0.0) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The untraced runs of a results file (`{"runs":[…]}`, as the suite
/// writes it).
pub fn load_runs(text: &str) -> Result<Vec<RunResult>, String> {
    let doc = Json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("results file has no `runs` array")?;
    let mut out = Vec::new();
    for r in runs {
        let r = RunResult::from_json(r)?;
        if !r.traced {
            out.push(r);
        }
    }
    Ok(out)
}

struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    attempted: BTreeMap<String, u64>,
    failed: BTreeMap<String, u64>,
}

fn side(runs: &[RunResult]) -> Side {
    let mut s = Side {
        values: BTreeMap::new(),
        attempted: BTreeMap::new(),
        failed: BTreeMap::new(),
    };
    for r in runs {
        *s.attempted.entry(r.workload.clone()).or_default() += r.attempted;
        *s.failed.entry(r.workload.clone()).or_default() += r.failed;
        for (name, v) in &r.metrics {
            s.values
                .entry((r.workload.clone(), name.clone()))
                .or_default()
                .push(*v);
        }
    }
    s
}

/// Renders the comparison and returns it with the verdict counts
/// `[improved, unchanged, regressed, unresolved]`.
pub fn compare(parent: &[RunResult], change: &[RunResult]) -> (String, [usize; 4]) {
    let (p, c) = (side(parent), side(change));
    let mut out = String::new();
    let mut counts = [0usize; 4];
    let _ = writeln!(
        out,
        "{:<13} {:<24} {:>6} {:>13} {:>13} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "parent q1",
        "parent med",
        "parent q3",
        "change med",
        "change",
        "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in END_TO_END.iter().filter(|m| m.measured_on(workload)) {
            let key = (workload.to_string(), m.name.to_string());
            let (Some(pv), Some(cv)) = (p.values.get(&key), c.values.get(&key)) else {
                let _ = writeln!(out, "{workload:<13} {:<24} missing on one side", m.name);
                counts[3] += 1;
                continue;
            };
            let (q1, q3) = quartiles(pv);
            let (pm, cm) = (median(pv), median(cv));
            let v = verdict(m, pv, cv);
            counts[v as usize] += 1;
            let _ = writeln!(
                out,
                "{workload:<13} {:<24} {:>6} {q1:>13.6} {pm:>13.6} {q3:>13.6} {cm:>13.6} {:>+7.2}% {:>5.0}%  {}",
                m.name,
                m.unit,
                if pm == 0.0 { 0.0 } else { (cm - pm) / pm.abs() * 100.0 },
                m.bound.unwrap_or(0.0) * 100.0,
                v.name()
            );
        }
        let share = |s: &Side| {
            let a = s.attempted.get(workload).copied().unwrap_or(0);
            let f = s.failed.get(workload).copied().unwrap_or(0);
            format!(
                "{f}/{a} ({:.4} %)",
                if a == 0 {
                    0.0
                } else {
                    f as f64 / a as f64 * 100.0
                }
            )
        };
        let _ = writeln!(
            out,
            "{workload:<13} failed share: parent {}, change {}",
            share(&p),
            share(&c)
        );
    }
    let _ = writeln!(
        out,
        "{} improved, {} unchanged, {} regressed, {} unresolved ({} parent runs, {} change runs)",
        counts[0],
        counts[1],
        counts[2],
        counts[3],
        parent.len(),
        change.len()
    );
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // Lower is better, 10 % — whatever the table's bound is today.
        let wall = &MetricDef {
            bound: Some(0.10),
            ..*find("host_wall_s").unwrap()
        };
        let steady = [1.00, 1.01, 0.99, 1.00];
        assert_eq!(
            verdict(wall, &steady, &[1.05, 1.04, 1.06]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(wall, &steady, &[1.20, 1.21, 1.19]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(wall, &steady, &[0.80, 0.81, 0.79]),
            Verdict::Improved
        );
        // A side noisier than the bound: unresolved…
        let noisy = [0.8, 1.0, 1.3, 1.6];
        assert_eq!(verdict(wall, &noisy, &[1.0, 1.0, 1.0]), Verdict::Unresolved);
        // …unless every run of the change beats every run of the parent.
        assert_eq!(verdict(wall, &noisy, &[0.5, 0.6, 0.55]), Verdict::Improved);
        assert_eq!(verdict(wall, &noisy, &[2.5, 2.6, 2.0]), Verdict::Regressed);
        // Higher-is-better flips the direction.
        let rate = &MetricDef {
            bound: Some(0.05),
            ..*find("commit_txn_per_s").unwrap()
        };
        assert_eq!(verdict(rate, &[4.2, 4.2], &[5.0, 5.0]), Verdict::Improved);
        assert_eq!(verdict(rate, &[4.2, 4.2], &[3.0, 3.0]), Verdict::Regressed);
        // Bit-identical sets are unchanged, however far apart their seeds
        // read (the ladder verdict is 2 on some seeds and 3 on others).
        assert_eq!(verdict(rate, &[4.2], &[4.2]), Verdict::Unchanged);
        assert_eq!(verdict(rate, &[3.0, 2.0], &[2.0, 3.0]), Verdict::Unchanged);
        assert_eq!(verdict(rate, &[3.0, 2.0], &[2.0, 2.0]), Verdict::Unresolved);
    }

    fn result(workload: &str, traced: bool, wall: f64) -> RunResult {
        RunResult {
            workload: workload.into(),
            seed: 0,
            traced,
            reps: 5,
            pinned_cpu: Some(1),
            attempted: 100,
            failed: 0,
            failures: vec![],
            metrics: [("host_wall_s".to_string(), wall)].into_iter().collect(),
            notes: BTreeMap::new(),
        }
    }

    #[test]
    fn a_results_file_reads_back_and_compares() {
        let runs = [
            result("commit-burst", false, 1.0),
            result("commit-burst", true, 9.0),
        ];
        let file = Json::obj([(
            "runs",
            Json::Arr(runs.iter().map(RunResult::full_json).collect()),
        )]);
        let parent = load_runs(&file.render()).unwrap();
        assert_eq!(parent.len(), 1, "traced runs are not compared");
        let (table, counts) = compare(&parent, &[result("commit-burst", false, 1.5)]);
        assert!(table.contains("regressed"), "{table}");
        assert_eq!(counts[Verdict::Regressed as usize], 1);
        assert!(table.contains("failed share: parent 0/100"));
        assert!(load_runs("{}").is_err());
    }
}
