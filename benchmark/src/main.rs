//! `dc_benchmark`: the wire-level, layer-attributed benchmark of the cube
//! service. See `benchmark/README.md`.

mod gen;
mod json;
mod model;
mod report;
mod run;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage, from the repository root:
  dc_benchmark [--seed N] [--seconds S] [--out DIR]
      every workload, tracing off then on; prints every metric as
      `workload metric value unit n=<samples>` and writes DIR/results.json
  dc_benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--rows N]
      one run of one workload; the last line is its result object
  dc_benchmark --smoke [--out DIR]
      seconds-long self-check against BENCHMARK.json
  dc_benchmark --merge OUT.json A.json B.json ...
      min / median / max / spread over several invocations
  dc_benchmark --compare A.json B.json
      verdict per workload and end-to-end metric; fails on any WORSE
workloads: scan_heavy cache_dash wide_result mixed_rw_read mixed_rw_write";

fn value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}")),
    }
}

fn main_inner(args: &[String]) -> Result<bool, String> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let out: PathBuf = value(args, "--out", "benchmark/out".into())?;
    if has("--help") {
        println!("{USAGE}");
        return Ok(true);
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let [a, b] = &args[i + 1..] else {
            return Err(format!("--compare takes two results files\n{USAGE}"));
        };
        return report::compare(Path::new(a), Path::new(b));
    }
    if let Some(i) = args.iter().position(|a| a == "--merge") {
        let [out, inputs @ ..] = &args[i + 1..] else {
            return Err(format!("--merge takes an output and its inputs\n{USAGE}"));
        };
        return report::merge(Path::new(out), inputs).map(|()| true);
    }
    if has("--smoke") {
        return report::smoke(&out.join("smoke")).map(|()| true);
    }
    let seed = value(args, "--seed", 1996)?;
    let seconds = value(args, "--seconds", report::RUN_SECONDS)?;
    if !has("--workload") {
        let results = report::full(seed, seconds, &out, None)?;
        let workloads = results.get("workloads").map_or(&[][..], json::Json::obj);
        return Ok(workloads
            .iter()
            .all(|(_, w)| w.get("correct") == Some(&json::Json::Bool(true))));
    }
    let run_args = run::Args {
        workload: value(args, "--workload", String::new())?,
        seed,
        seconds,
        trace: value(args, "--trace", 0u8)? != 0,
        out,
        rows: has("--rows")
            .then(|| value(args, "--rows", 0))
            .transpose()?,
    };
    let outcome = run::run(&run_args)?;
    for m in &outcome.metrics {
        let w = &run_args.workload;
        println!("{w} {} {} {} n={}", m.name, m.value, m.unit, m.n);
    }
    // A failed statement is reported in the result, not by the exit code.
    println!("{}", outcome.to_json());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dc_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
