//! Everything around single runs: the full run (every workload, both
//! passes, each in a fresh child process so that `peak_rss_mb` and
//! allocator state do not leak between them), `--smoke`, `--merge` and
//! `--compare`.
//!
//! A results file is
//! `{"seed", "seconds", "workloads": {<name>: {"correct", "attempted",
//! "failed", "metrics": {<metric>: {"value", "unit"[, "spread"]}}}}}`;
//! `spread` is there when the file was merged from several invocations.

use crate::gen::WORKLOADS;
use crate::json::Json;
use crate::run::median_f64;
use std::path::Path;
use std::process::{Command, Stdio};

/// The same length `BENCHMARK.json` gives the driver as `run_seconds`.
pub const RUN_SECONDS: f64 = 20.0;
const MANIFEST: &str = "BENCHMARK.json";

fn obj(kv: Vec<(&str, Json)>) -> Json {
    Json::Obj(kv.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `correct`, `attempted` and `failed` over several result objects, with
/// their merged `metrics`: the head of a results-file entry.
fn totals(parts: &[&Json], metrics: Vec<(String, Json)>) -> Json {
    let sum = |key: &str| parts.iter().filter_map(|p| p.get(key)?.num()).sum::<f64>();
    let correct = parts
        .iter()
        .all(|p| p.get("correct") == Some(&Json::Bool(true)));
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(sum("attempted"))),
        ("failed", Json::Num(sum("failed"))),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// One child run; its human lines pass through, its last line is the
/// result object.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
    out: &Path,
    rows: Option<usize>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            &trace.to_string(),
        ])
        .arg("--out")
        .arg(out);
    if let Some(rows) = rows {
        cmd.args(["--rows", &rows.to_string()]);
    }
    let output = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{workload} --trace {trace} exited with {}",
            output.status
        ));
    }
    Json::parse(last).map_err(|e| format!("{workload} --trace {trace}: bad result line: {e}"))
}

/// Every workload, `--trace 0` then `--trace 1`; writes and returns
/// `<out>/results.json`.
pub fn full(seed: u64, seconds: f64, out: &Path, rows: Option<usize>) -> Result<Json, String> {
    let mut workloads = Vec::new();
    for w in WORKLOADS {
        let passes = [
            child(w, seed, seconds, 0, out, rows)?,
            child(w, seed, seconds, 1, out, rows)?,
        ];
        let metrics = passes
            .iter()
            .flat_map(|p| p.get("metrics").map_or(&[][..], Json::obj).to_vec())
            .collect();
        let entry = totals(&passes.iter().collect::<Vec<_>>(), metrics);
        workloads.push((w.to_string(), entry));
    }
    let results = obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let path = out.join("results.json");
    std::fs::write(&path, format!("{results}\n")).map_err(|e| e.to_string())?;
    println!("results written to {}", path.display());
    Ok(results)
}

/// The metrics `BENCHMARK.json` names: (name, unit, better, bound) of the
/// `end_to_end` list or the `per_layer` list (bound 0).
fn declared(manifest: &Json, list: &str) -> Vec<(String, String, String, f64)> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::str).unwrap_or_default().to_string();
    let items = manifest.get(list).map_or(&[][..], Json::arr);
    items
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::num).unwrap_or(0.0);
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound,
            )
        })
        .collect()
}

fn metric_of<'a>(results: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)
}

/// Seconds-long end-to-end check of the benchmark itself: small tables,
/// 2 s windows, every declared metric emitted, finite and non-negative,
/// nothing failed, and the trace files parse.
pub fn smoke(out: &Path) -> Result<(), String> {
    let manifest = read_json(Path::new(MANIFEST))?;
    let results = full(1996, 2.0, out, Some(20_000))?;
    let mut problems = Vec::new();
    for w in manifest.get("workloads").map_or(&[][..], Json::arr) {
        let w = w.get("name").and_then(Json::str).unwrap_or_default();
        let entry = results.get("workloads").and_then(|ws| ws.get(w));
        if entry.and_then(|e| e.get("correct")) != Some(&Json::Bool(true)) {
            problems.push(format!("{w}: not correct"));
        }
        if entry.and_then(|e| e.get("failed")?.num()) != Some(0.0) {
            problems.push(format!("{w}: failed statements"));
        }
        for list in ["end_to_end", "per_layer"] {
            for (name, unit, ..) in declared(&manifest, list) {
                let m = metric_of(&results, w, &name);
                let value = m.and_then(|m| m.get("value")?.num());
                if !value.is_some_and(|v| v.is_finite() && v >= 0.0) {
                    problems.push(format!("{w} {name}: missing, negative or not finite"));
                }
                if m.and_then(|m| m.get("unit")?.str()) != Some(&unit) {
                    problems.push(format!("{w} {name}: unit is not {unit}"));
                }
            }
        }
        let trace = out.join(format!("trace_{w}.jsonl"));
        let text = std::fs::read_to_string(&trace).unwrap_or_default();
        let spans = text.lines().filter(|l| Json::parse(l).is_ok()).count();
        if spans == 0 || spans != text.lines().count() {
            problems.push(format!("{}: does not parse", trace.display()));
        }
    }
    if problems.is_empty() {
        println!("smoke: ok");
        return Ok(());
    }
    Err(problems.join("\n"))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them,
/// the figure the acceptance rule for this benchmark is written in.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Merge the results of several invocations: per workload × metric print
/// min, median, max and the relative spread (interquartile range over
/// median), and write a results file holding medians and spreads.
pub fn merge(out: &Path, inputs: &[String]) -> Result<(), String> {
    let files: Vec<Json> = inputs
        .iter()
        .map(|p| read_json(Path::new(p)))
        .collect::<Result<_, _>>()?;
    let [first, .., _] = &files[..] else {
        return Err("--merge needs at least two results files".into());
    };
    let mut workloads = Vec::new();
    println!(
        "workload metric min median max unit spread n={}",
        files.len()
    );
    for (w, entry) in first.get("workloads").map_or(&[][..], Json::obj) {
        let mut metrics = Vec::new();
        for (name, m) in entry.get("metrics").map_or(&[][..], Json::obj) {
            let mut values: Vec<f64> = files
                .iter()
                .filter_map(|f| metric_of(f, w, name)?.get("value")?.num())
                .collect();
            if values.len() != files.len() {
                return Err(format!("{w} {name}: missing from some input"));
            }
            let median = median_f64(&mut values);
            let (q1, q3) = quartiles(&values);
            let spread = if median == 0.0 {
                0.0
            } else {
                (q3 - q1) / median
            };
            let unit = m.get("unit").and_then(Json::str).unwrap_or_default();
            let (min, max) = (values[0], values[values.len() - 1]);
            println!("{w} {name} {min} {median} {max} {unit} {spread:.4}");
            let merged = obj(vec![
                ("value", Json::Num(median)),
                ("unit", Json::Str(unit.into())),
                ("spread", Json::Num(spread)),
            ]);
            metrics.push((name.clone(), merged));
        }
        let entries: Vec<&Json> = files
            .iter()
            .filter_map(|f| f.get("workloads")?.get(w))
            .collect();
        let merged = totals(&entries, metrics);
        workloads.push((w.clone(), merged));
    }
    let seeds = files
        .iter()
        .filter_map(|f| f.get("seed").cloned())
        .collect();
    let results = obj(vec![
        ("seeds", Json::Arr(seeds)),
        (
            "seconds",
            first.get("seconds").cloned().unwrap_or(Json::Null),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(out, format!("{results}\n")).map_err(|e| format!("{}: {e}", out.display()))
}

/// Per workload × end-to-end metric: both values, the change, the bound
/// from `BENCHMARK.json` and a verdict. `Ok(false)` on any WORSE row or a
/// higher share of failed statements.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let manifest = read_json(Path::new(MANIFEST))?;
    let (a, b) = (read_json(a)?, read_json(b)?);
    let mut ok = true;
    println!("workload metric a b unit change bound verdict");
    for w in manifest.get("workloads").map_or(&[][..], Json::arr) {
        let w = w.get("name").and_then(Json::str).unwrap_or_default();
        for (name, unit, better, bound) in declared(&manifest, "end_to_end") {
            let part = |f: &Json, key: &str| metric_of(f, w, &name)?.get(key)?.num();
            let (Some(va), Some(vb)) = (part(&a, "value"), part(&b, "value")) else {
                return Err(format!("{w} {name}: missing from a results file"));
            };
            // Positive: b is worse than a by this share of a.
            let worse_by = if better == "higher" {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let spread = part(&a, "spread")
                .unwrap_or(0.0)
                .max(part(&b, "spread").unwrap_or(0.0));
            let verdict = if spread > bound {
                "unresolved"
            } else if worse_by > bound {
                ok = false;
                "WORSE"
            } else if worse_by < -bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{w} {name} {va} {vb} {unit} {:+.1}% {bound} {verdict}",
                100.0 * (vb - va) / va
            );
        }
        let failed_share = |f: &Json| {
            let entry = f.get("workloads")?.get(w)?;
            Some(entry.get("failed")?.num()? / entry.get("attempted")?.num()?)
        };
        let (fa, fb) = (
            failed_share(&a).unwrap_or(0.0),
            failed_share(&b).unwrap_or(0.0),
        );
        if fb > fa {
            ok = false;
            println!("{w} failed_share {fa} {fb} ratio WORSE");
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    /// `statistics.quantiles(v, n=4)` of Python 3.11 on the same lists.
    #[test]
    fn quartiles_are_pythons() {
        let ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 100.0];
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }
}
