//! What a run looks like on paper: the one-line result the benchmark driver
//! reads, the run record `--all` collects into a results document, and
//! `compare` over two such documents.

use std::collections::BTreeSet;
use std::process::Command;

use crate::json::Json;
use crate::layers::rayon_threads;
use crate::metrics::{Better, MetricDef, Values, END_TO_END, PER_LAYER};
use crate::run::RunResult;
use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;

/// Version tag of the results document.
const SCHEMA: &str = "perf_ledger/1";

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A command's standard output, if it ran and succeeded.
fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output.status.success().then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The machine and build a result was taken on.
fn environment() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|info| {
        let line = info.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split_once(':')?.1.trim().to_string())
    });
    let text = |v: Option<String>| Json::Str(v.unwrap_or_else(|| "unknown".to_string()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Outside a git checkout (the benchmark driver's) both read as unknown.
    let commit = stdout_of("git", &["rev-parse", "HEAD"]);
    let dirty = commit.as_ref().and_then(|_| stdout_of("git", &["status", "--porcelain"]));
    obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("rayon_num_threads", Json::Num(rayon_threads() as f64)),
        ("cpu_model", text(cpu)),
        ("rustc", text(stdout_of("rustc", &["-V"]))),
        ("git_commit", text(commit)),
        ("git_dirty", dirty.map_or(Json::Null, |d| Json::Bool(!d.is_empty()))),
    ])
}

fn values_json(table: &[MetricDef], values: &Values, absent: Json) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|m| {
                let value = values.get(m.name).map_or(absent.clone(), Json::Num);
                (m.name.to_string(), obj(vec![("value", value), ("unit", m.unit.into())]))
            })
            .collect(),
    )
}

/// The line the benchmark driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics` — the end-to-end metrics of an untraced run, the
/// per-layer metrics of a traced one.  The driver wants a number for every
/// metric, so a per-layer metric whose layer did not run reads 0 here (and
/// `null` in the run record).
pub fn driver_line(result: &RunResult) -> Json {
    let metrics = if result.traced {
        values_json(&PER_LAYER, &result.per_layer, Json::Num(0.0))
    } else {
        values_json(&END_TO_END, &result.end_to_end, Json::Null)
    };
    obj(vec![
        ("correct", result.errors.is_empty().into()),
        ("attempted", Json::Num(result.attempted.max(1) as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metrics),
    ])
}

/// Everything one invocation measured, with the environment it ran in.
pub fn run_record(result: &RunResult) -> Json {
    let wall = result.wall_s.iter().map(|&(k, v)| (k, Json::Num(v))).collect();
    let mut members = vec![
        ("workload", result.workload.name().into()),
        ("seed", Json::Num(result.seed as f64)),
        ("seconds", Json::Num(result.scale.seconds as f64)),
        ("smoke", result.scale.smoke.into()),
        ("traced", result.traced.into()),
        ("ticks", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("correct", result.errors.is_empty().into()),
        ("errors", Json::Arr(result.errors.iter().map(|e| e.as_str().into()).collect())),
        ("digest", format!("{:016x}", result.digests.0).as_str().into()),
        ("decision_digest", format!("{:016x}", result.digests.1).as_str().into()),
        ("wall_s", obj(wall)),
        ("env", environment()),
        ("end_to_end", values_json(&END_TO_END, &result.end_to_end, Json::Null)),
    ];
    if result.traced {
        members.push(("per_layer", values_json(&PER_LAYER, &result.per_layer, Json::Null)));
    }
    obj(members)
}

/// Prints every metric of a run by name, with its unit.
pub fn print_metrics(result: &RunResult) {
    println!(
        "# {} seed {} — {} ticks, {} failed, digest {:016x}, decision_digest {:016x}",
        result.workload.name(),
        result.seed,
        result.attempted,
        result.failed,
        result.digests.0,
        result.digests.1
    );
    let per_layer = result.traced.then_some((&PER_LAYER[..], &result.per_layer));
    for (table, values) in [(&END_TO_END[..], &result.end_to_end)].into_iter().chain(per_layer) {
        for m in table {
            match values.get(m.name) {
                Some(v) => println!("{:<32} {:>16.6} {}", m.name, v, m.unit),
                None => println!("{:<32} {:>16} {}", m.name, "n/a", m.unit),
            }
        }
    }
    for e in &result.errors {
        println!("INVALID: {e}");
    }
}

/// The results document `--all` writes: every run record, and no claim —
/// the run that defines the names claims nothing about them.
pub fn results_document(smoke: bool, runs: Vec<Json>) -> Json {
    obj(vec![
        ("schema", SCHEMA.into()),
        ("smoke", smoke.into()),
        ("runs", Json::Arr(runs)),
        ("claim", Json::Null),
    ])
}

/// The run records of a results document.
fn runs(doc: &Json) -> &[Json] {
    doc.get("runs").and_then(Json::as_array).unwrap_or(&[])
}

fn runs_of<'a>(doc: &'a Json, workload: &'a str) -> impl Iterator<Item = &'a Json> {
    runs(doc).iter().filter(move |r| r.get("workload").and_then(Json::as_str) == Some(workload))
}

/// Values of `metric` on `workload` over the runs of a results document.
/// Every record carries the end-to-end metrics of its untraced passes; only
/// traced records have a `per_layer` section.
fn series(doc: &Json, workload: &str, section: &str, metric: &str) -> Vec<f64> {
    runs_of(doc, workload)
        .filter_map(|r| r.get(section)?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Distance between the quartiles as a share of the median.
fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    Some((q3 - q1) / median(values)?.abs())
}

/// The verdicts that make `compare` fail: the median worsened past the
/// bound, or OLD has the metric and NEW does not.
const REGRESSION: &str = "REGRESSION";
const MISSING: &str = "MISSING";

/// How `new` stands against `old` on one end-to-end metric.
fn verdict(def: &MetricDef, old: &[f64], new: &[f64]) -> &'static str {
    let (old_median, new_median) = match (median(old), median(new)) {
        (Some(o), Some(n)) => (o, n),
        (Some(_), None) => return MISSING,
        (None, _) => return "no base",
    };
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let worse_by = match def.better {
        Better::Lower => new_median / old_median - 1.0,
        Better::Higher => 1.0 - new_median / old_median,
    };
    if worse_by > bound {
        return REGRESSION;
    }
    let every_new_better = new.iter().all(|n| {
        old.iter().all(|o| match def.better {
            Better::Lower => n < o,
            Better::Higher => n > o,
        })
    });
    let noisy = [old, new].iter().any(|v| spread(v).is_some_and(|s| s > bound));
    match (every_new_better, noisy) {
        (true, _) => "improved",
        (false, true) => "unresolved",
        (false, false) => "within bound",
    }
}

/// The runs whose numbers say nothing about the workload they are filed
/// under: a validity guard failed (`wan_learned` fell back to the LP, the
/// passes disagreed, ...) or ticks failed.  One line per such run.
fn invalid_runs(doc: &Json) -> Vec<String> {
    let text = |r: &Json, key: &str| match r.get(key) {
        Some(Json::Str(s)) => s.clone(),
        other => other.map_or("?".to_string(), Json::to_string),
    };
    runs(doc)
        .iter()
        .filter(|r| {
            r.get("correct") != Some(&Json::Bool(true))
                || r.get("failed").and_then(Json::as_f64) != Some(0.0)
        })
        .map(|r| {
            format!(
                "{} seed {}: correct {}, {} ticks failed, errors {}",
                text(r, "workload"),
                text(r, "seed"),
                text(r, "correct"),
                text(r, "failed"),
                text(r, "errors")
            )
        })
        .collect()
}

/// The distinct `(seed, seconds, ticks)` of a workload's runs.  Run length is
/// fixed work: two documents compare only if both served the same inputs.
fn run_shapes(doc: &Json, workload: &str) -> BTreeSet<[u64; 3]> {
    let field =
        |r: &Json, key: &str| r.get(key).and_then(Json::as_f64).map_or(u64::MAX, |v| v as u64);
    runs_of(doc, workload).map(|r| ["seed", "seconds", "ticks"].map(|key| field(r, key))).collect()
}

fn check_comparable(doc: &Json, path: &str) -> Result<(), String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{path} is not a {SCHEMA} results document"));
    }
    if doc.get("smoke") != Some(&Json::Bool(false)) {
        return Err(format!("{path} is a smoke run; smoke numbers are not comparable"));
    }
    Ok(())
}

/// `compare OLD NEW` over two parsed documents; see [`compare`].
fn compare_documents(old: &Json, new: &Json, old_path: &str) -> Result<bool, String> {
    if let Some(run) = invalid_runs(old).first() {
        return Err(format!("{old_path} is no base to compare against: {run}"));
    }
    for workload in WORKLOADS.map(|w| w.name()) {
        let (o, n) = (run_shapes(old, workload), run_shapes(new, workload));
        if !o.is_empty() && !n.is_empty() && o != n {
            return Err(format!(
                "{workload}: the documents served different inputs — \
                 (seed, seconds, ticks) {o:?} old, {n:?} new"
            ));
        }
    }
    let mut failed = false;
    for run in invalid_runs(new) {
        println!("INVALID {run}");
        failed = true;
    }
    let cell = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.6}"));
    for workload in WORKLOADS.map(|w| w.name()) {
        println!("\n# {workload} (ratio = new / old; base = old = {old_path})");
        println!(
            "{:<32} {:>16} {:>16} {:>8} {:>6}  verdict",
            "metric", "old median", "new median", "ratio", "bound"
        );
        for (section, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            for def in table {
                let o = series(old, workload, section, def.name);
                let n = series(new, workload, section, def.name);
                let (om, nm) = (median(&o), median(&n));
                let ratio = om.zip(nm).map(|(o, n)| n / o).filter(|r| r.is_finite());
                let (bound, word) = match def.bound {
                    Some(b) => (format!("{:.0}%", b * 100.0), verdict(def, &o, &n)),
                    None => ("-".to_string(), "-"),
                };
                failed |= word == REGRESSION || word == MISSING;
                println!(
                    "{:<32} {:>16} {:>16} {:>8} {:>6}  {word} ({} old, {} new runs)",
                    def.name,
                    cell(om),
                    cell(nm),
                    ratio.map_or("n/a".to_string(), |r| format!("{r:.3}")),
                    bound,
                    o.len(),
                    n.len(),
                );
            }
        }
    }
    Ok(failed)
}

/// `compare OLD NEW`: one row per workload × metric with old, new and the
/// ratio new ÷ old (old is the base); end-to-end rows are gated by their
/// bound, per-layer rows are printed only.  Returns whether NEW fails the
/// gate: an end-to-end median worsened past its bound, a workload or
/// end-to-end metric of OLD is missing from NEW, or a run of NEW is invalid.
/// Documents that served different inputs are refused.
pub fn compare(old_path: &str, new_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        check_comparable(&doc, path)?;
        Ok(doc)
    };
    compare_documents(&load(old_path)?, &load(new_path)?, old_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Scale, Workload};

    fn sample_result(traced: bool) -> RunResult {
        let mut end_to_end = Values::default();
        end_to_end.set("ticks_per_s", 3071.0250000001);
        end_to_end.set("mlu_mean", 1.0 / 3.0);
        let mut per_layer = Values::default();
        per_layer.set("lp.solves", 6250.0);
        RunResult {
            workload: Workload::WanLearned,
            seed: 1,
            scale: Scale { seconds: 10, smoke: false },
            traced,
            attempted: 30_000,
            failed: 0,
            errors: vec!["a \"quoted\" guard".to_string()],
            end_to_end,
            per_layer,
            digests: (0xfbab_3c83_0cb5_434d, 7),
            wall_s: vec![("setup", 7.5)],
        }
    }

    #[test]
    fn run_records_round_trip_through_json() {
        for traced in [false, true] {
            let record = run_record(&sample_result(traced));
            let back = Json::parse(&record.to_string()).unwrap();
            assert_eq!(back, record);
            let value = |section: &str, metric: &str| {
                back.get(section)?.get(metric)?.get("value")?.as_f64()
            };
            assert_eq!(value("end_to_end", "ticks_per_s"), Some(3071.0250000001));
            assert_eq!(value("end_to_end", "mlu_mean"), Some(1.0 / 3.0));
            assert_eq!(value("per_layer", "lp.solves"), traced.then_some(6250.0));
            assert_eq!(back.get("digest").and_then(Json::as_str), Some("fbab3c830cb5434d"));
            assert_eq!(back.get("correct"), Some(&Json::Bool(false)));
        }
    }

    #[test]
    fn the_driver_line_has_exactly_the_contract_keys() {
        for (traced, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let Json::Obj(members) = driver_line(&sample_result(traced)) else { unreachable!() };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Json::Obj(metrics) = &members[3].1 else { unreachable!() };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(names, table.iter().map(|m| m.name).collect::<Vec<_>>());
        }
        // A per-layer metric whose layer did not run is a number for the driver.
        let line = driver_line(&sample_result(true));
        let absent = line.get("metrics").and_then(|m| m.get("fleet.grant_share")?.get("value"));
        assert_eq!(absent, Some(&Json::Num(0.0)));
    }

    fn def(better: Better) -> MetricDef {
        MetricDef { name: "ticks_per_s", unit: "1/s", better, bound: Some(0.07) }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let lower = def(Better::Lower);
        assert_eq!(verdict(&lower, &[100.0], &[106.0]), "within bound");
        assert_eq!(verdict(&lower, &[100.0], &[108.0]), "REGRESSION");
        assert_eq!(verdict(&lower, &[100.0], &[90.0]), "improved");
        let higher = def(Better::Higher);
        assert_eq!(verdict(&higher, &[100.0], &[92.0]), "REGRESSION");
        assert_eq!(verdict(&higher, &[100.0], &[94.0]), "within bound");
        // Medians agree, but the old runs scatter by more than the bound:
        // that is not "unchanged".
        let old = [80.0, 100.0, 100.0, 120.0];
        assert_eq!(verdict(&lower, &old, &[100.0, 100.0, 101.0, 100.0]), "unresolved");
        // ... unless every new run beats every old one.
        assert_eq!(verdict(&lower, &old, &[70.0, 71.0]), "improved");
        assert_eq!(verdict(&lower, &[], &[1.0]), "no base");
        assert_eq!(verdict(&lower, &[1.0], &[]), "MISSING");
    }

    #[test]
    fn smoke_and_foreign_documents_are_refused() {
        let smoke = results_document(true, vec![]);
        assert!(check_comparable(&smoke, "s.json").unwrap_err().contains("smoke"));
        assert!(check_comparable(&Json::Obj(vec![]), "x.json").is_err());
        let full = results_document(false, vec![]);
        assert!(check_comparable(&full, "f.json").is_ok());
        assert!(full.to_string().ends_with("\"claim\": null}"));
    }

    /// A valid run of `workload` that served `ticks_per_s`.
    fn valid_run(workload: Workload, ticks_per_s: f64) -> RunResult {
        let mut result = sample_result(true);
        result.workload = workload;
        result.errors.clear();
        result.end_to_end.set("ticks_per_s", ticks_per_s);
        result
    }

    fn document(results: &[RunResult]) -> Json {
        results_document(false, results.iter().map(run_record).collect())
    }

    #[test]
    fn compare_gates_on_medians_validity_and_presence() {
        let old = document(&[
            valid_run(Workload::WanLearned, 3000.0),
            valid_run(Workload::LpMonolith, 80.0),
        ]);
        assert_eq!(compare_documents(&old, &old, "old"), Ok(false));

        // A median past its bound.
        let slower = document(&[
            valid_run(Workload::WanLearned, 2000.0),
            valid_run(Workload::LpMonolith, 80.0),
        ]);
        assert_eq!(compare_documents(&old, &slower, "old"), Ok(true));

        // The same numbers from a run whose validity guard failed ...
        let mut fell_back = valid_run(Workload::WanLearned, 3000.0);
        fell_back.errors.push("wan_learned must serve the model".to_string());
        let invalid = document(&[fell_back, valid_run(Workload::LpMonolith, 80.0)]);
        assert_eq!(compare_documents(&old, &invalid, "old"), Ok(true));
        // ... or in which ticks failed.
        let mut panicked = valid_run(Workload::WanLearned, 3000.0);
        panicked.failed = 12;
        let invalid = document(&[panicked, valid_run(Workload::LpMonolith, 80.0)]);
        assert_eq!(compare_documents(&old, &invalid, "old"), Ok(true));
        // An invalid OLD is no base at all.
        assert!(compare_documents(&invalid, &old, "old").unwrap_err().contains("no base"));

        // A workload of OLD that NEW did not run (its child crashed).
        let partial = document(&[valid_run(Workload::WanLearned, 3000.0)]);
        assert_eq!(compare_documents(&old, &partial, "old"), Ok(true));
        // The other way round there is nothing to regress from.
        assert_eq!(compare_documents(&partial, &old, "old"), Ok(false));
    }

    #[test]
    fn compare_refuses_documents_that_served_different_inputs() {
        let old = document(&[valid_run(Workload::WanLearned, 3000.0)]);
        let changes: [fn(&mut RunResult); 3] =
            [|r| r.seed = 2, |r| r.scale.seconds = 5, |r| r.attempted = 15_000];
        for change in changes {
            let mut run = valid_run(Workload::WanLearned, 3000.0);
            change(&mut run);
            let err = compare_documents(&old, &document(&[run]), "old").unwrap_err();
            assert!(err.contains("different inputs"), "{err}");
        }
    }
}
