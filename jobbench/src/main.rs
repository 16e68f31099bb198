//! The repository benchmark: whole graph jobs, timed end to end and layer by
//! layer, each result checked against `cyclops::graph::reference`.
//!
//! ```text
//! jobbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of stdout is the result as one JSON object. README.md
//! describes the workloads and the metrics.

mod gate;
mod job;
mod runner;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::Workload;

/// Pass-through over the system allocator until the traced job arms it,
/// as in the `cyclops` CLI.
#[global_allocator]
static ALLOC: cyclops::obs::MemAlloc = cyclops::obs::MemAlloc;

/// `--flag value` pairs; every flag must be in `allowed`.
fn flags(args: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| allowed.contains(n))
            .ok_or_else(|| format!("unknown argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    f.get(name)
        .map(|v| v.parse().map_err(|_| format!("--{name}: bad value {v:?}")))
        .transpose()
}

fn workload(f: &BTreeMap<String, String>) -> Result<Workload, String> {
    let name = f.get("workload").ok_or("--workload is required")?;
    Workload::find(name).ok_or_else(|| {
        format!(
            "unknown workload {name}; expected one of {}",
            workload::NAMES.join(", ")
        )
    })
}

fn drive(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["workload", "seed", "seconds", "trace"])?;
    let workload = workload(&f)?;
    let seconds: f64 = parsed(&f, "seconds")?.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match f.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace: expected 0 or 1, got {v:?}")),
    };
    runner::run(&runner::RunArgs {
        seed: parsed(&f, "seed")?.unwrap_or_else(|| workload.dataset.default_seed()),
        workload,
        seconds,
        trace,
    })?;
    Ok(ExitCode::SUCCESS)
}

fn job(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["workload", "input", "source", "id", "trace-prefix"])?;
    let outcome = job::run(&job::JobArgs {
        workload: workload(&f)?,
        input: f.get("input").ok_or("--input is required")?.into(),
        source: parsed(&f, "source")?.unwrap_or(0),
        id: parsed(&f, "id")?.unwrap_or(0),
        trace_prefix: f.get("trace-prefix").map(Into::into),
    })?;
    match outcome {
        job::Outcome::Measured(m) => {
            for (k, v) in m {
                println!("{k} {v}");
            }
            Ok(ExitCode::SUCCESS)
        }
        job::Outcome::GateFailed(why) => {
            eprintln!("correctness gate: {why}");
            Ok(ExitCode::from(job::GATE_FAILED))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("job") => job(&args[1..]),
        _ => drive(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("jobbench: {e}");
        ExitCode::from(2)
    })
}
