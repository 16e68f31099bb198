//! The single-threaded runner: a closed loop with one client.
//!
//! It makes the input from the seed (untimed), then runs one job at a time,
//! each in a child process under a wall-clock cap, until the measuring
//! period is over. A panic, a non-zero exit, a cap overrun, a failed result
//! check or a deterministic count that differs from the run's first job
//! marks that job failed; the remaining jobs still give every metric.

use crate::gate::{self, Metrics};
use crate::workload::{Algo, Workload};
use cyclops::graph::{io, reference, Graph, VertexId};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Seed that later changes confirm their claims on, beside the seeds they
/// were tuned with.
pub const HELD_OUT_SEED: u64 = 314_159;

/// Fewest jobs a run attempts, however short `--seconds` is.
const MIN_JOBS: usize = 3;

/// Wall-clock cap on one job; a normal job takes 1–4 s. A panic inside the
/// engine's compute threads can hang the run instead of ending it, so the
/// cap is what turns such a hang into a failed job.
const JOB_CAP: Duration = Duration::from_secs(40);

/// End-to-end metrics (reported with `--trace 0`) and their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("job_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cost_x", "x"),
    ("wire_bytes", "B"),
    ("messages", "count"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (reported with `--trace 1`) and their units. Those
/// from `trace.overhead_pct` on come from the one traced job; the rest are
/// medians over the untraced jobs.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("io.load_s", "s"),
    ("io.input_mib", "MiB"),
    ("partition.s", "s"),
    ("partition.replication_factor", "ratio"),
    ("partition.edge_cut", "count"),
    ("partition.balance", "ratio"),
    ("plan.build_s", "s"),
    ("plan.replicas", "count"),
    ("plan.bytes", "B"),
    ("engine.init_s", "s"),
    ("engine.loop_s", "s"),
    ("engine.start_s", "s"),
    ("engine.prs_s", "s"),
    ("engine.cmp_s", "s"),
    ("engine.snd_s", "s"),
    ("engine.syn_s", "s"),
    ("engine.busy_frac", "ratio"),
    ("engine.supersteps", "count"),
    ("engine.computed", "count"),
    ("net.dense_batches", "count"),
    ("net.sparse_batches", "count"),
    ("net.bytes_per_msg", "B"),
    ("net.saved_bytes", "B"),
    ("net.alloc_bytes", "B"),
    ("net.peak_queue_bytes", "B"),
    ("net.lock_contentions", "count"),
    ("net.barrier_msgs", "count"),
    ("reference_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.span_coverage_pct", "%"),
    ("critpath.work_pct", "%"),
    ("critpath.wait_pct", "%"),
    ("critpath.residual_pct", "%"),
    ("critpath.top_straggler_share", "ratio"),
    ("mem.plan_peak", "B"),
    ("mem.replicas_peak", "B"),
    ("mem.send_pool_peak", "B"),
    ("mem.inbox_peak", "B"),
];

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The input of one run: an edge-list file, written once and read by every
/// job.
struct Input {
    dir: PathBuf,
    path: PathBuf,
    mib: f64,
    /// The SSSP source; `None` for PageRank.
    source: Option<VertexId>,
}

/// The lowest vertex of the largest connected component (ties: the
/// component with the lowest vertex). That is vertex 0 whenever vertex 0
/// lies in the giant component; on the road lattice a few seeds isolate
/// vertex 0, and an SSSP from it would do no work.
fn sssp_source(g: &Graph) -> VertexId {
    let labels = reference::connected_components(g);
    let mut sizes = vec![0usize; labels.len()];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let best = sizes.iter().max().copied().unwrap_or(0);
    sizes.iter().position(|&s| s == best).unwrap_or(0) as VertexId
}

fn prepare_input(w: &Workload, seed: u64, dir: &Path) -> Result<Input, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join("input.edges");
    let g = w.dataset.generate_scaled(w.scale, seed);
    let source = (w.algo == Algo::Sssp).then(|| sssp_source(&g));
    io::write_edge_list_file(&g, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    drop(g);
    // Write the file back now, so the kernel does not do it while jobs
    // are being timed.
    std::fs::File::open(&path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("syncing {}: {e}", path.display()))?;
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .len();
    Ok(Input {
        dir: dir.to_path_buf(),
        path,
        mib: bytes as f64 / (1024.0 * 1024.0),
        source,
    })
}

/// Why a job attempt counts as failed.
type Failure = String;

fn wait_capped(mut child: Child, cap: Duration) -> Result<std::process::ExitStatus, Failure> {
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) if start.elapsed() >= cap => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("killed after the {}s cap", cap.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("waiting for the job: {e}"));
            }
        }
    }
}

fn parse_metrics(text: &str) -> Result<Metrics, Failure> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (k, v) = l
                .split_once(' ')
                .ok_or_else(|| format!("bad job output line {l:?}"))?;
            let v: f64 = v.parse().map_err(|_| format!("bad value in {l:?}"))?;
            Ok((k.to_string(), v))
        })
        .collect()
}

/// Runs job `id` in a child process of this executable.
fn run_job(
    args: &RunArgs,
    input: &Input,
    id: usize,
    trace_prefix: Option<&Path>,
) -> Result<Metrics, Failure> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out_path = input.dir.join(format!("job{id}.out"));
    let err_path = input.dir.join(format!("job{id}.err"));
    let file = |p: &Path| std::fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    let mut cmd = Command::new(exe);
    cmd.arg("job")
        .args(["--workload", args.workload.name])
        .arg("--input")
        .arg(&input.path)
        .args(["--id", &id.to_string()])
        .stdin(Stdio::null())
        .stdout(file(&out_path)?)
        .stderr(file(&err_path)?);
    if let Some(source) = input.source {
        cmd.args(["--source", &source.to_string()]);
    }
    if let Some(prefix) = trace_prefix {
        cmd.arg("--trace-prefix").arg(prefix);
    }
    let child = cmd.spawn().map_err(|e| format!("starting the job: {e}"))?;
    let status = wait_capped(child, JOB_CAP)?;
    if !status.success() {
        let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
        // A panic, a failed check and an error each lead with their cause.
        let head: Vec<&str> = stderr
            .lines()
            .filter(|l| !l.trim().is_empty())
            .take(2)
            .collect();
        return Err(format!("{status}: {}", head.join(" | ")));
    }
    let stdout = std::fs::read_to_string(&out_path).map_err(|e| format!("job output: {e}"))?;
    parse_metrics(&stdout)
}

/// Holds a job's deterministic counts to those of the run's first good job.
fn against_first(good: &[Metrics], m: Metrics) -> Result<Metrics, Failure> {
    match good.first() {
        Some(first) => gate::check_counts(first, &m).map(|()| m),
        None => Ok(m),
    }
}

fn median(mut xs: Vec<f64>) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    Some(if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    })
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

pub fn run(args: &RunArgs) -> Result<(), String> {
    let w = &args.workload;
    let started = Instant::now();
    let work_dir = PathBuf::from(".jobbench");
    let run_dir = work_dir.join(format!("run-{}", std::process::id()));
    let input = prepare_input(w, args.seed, &run_dir)?;
    let prepare_s = started.elapsed().as_secs_f64();

    // ---- Closed loop: one job at a time for the measuring period. ----
    let loop_start = Instant::now();
    let mut good: Vec<Metrics> = Vec::new();
    let mut failures: Vec<(usize, Failure)> = Vec::new();
    let mut attempted = 0;
    while attempted < MIN_JOBS || loop_start.elapsed().as_secs_f64() < args.seconds {
        let id = attempted;
        attempted += 1;
        let outcome = run_job(args, &input, id, None).and_then(|m| against_first(&good, m));
        match outcome {
            Ok(m) => good.push(m),
            Err(why) => failures.push((id, why)),
        }
    }

    // ---- The traced job, in its own process. ----
    let mut traced: Option<Metrics> = None;
    if args.trace {
        let id = attempted;
        attempted += 1;
        let trace_dir = work_dir.join("traces");
        std::fs::create_dir_all(&trace_dir)
            .map_err(|e| format!("creating {}: {e}", trace_dir.display()))?;
        let prefix = trace_dir.join(format!("{}-seed{}", w.name, args.seed));
        let outcome =
            run_job(args, &input, id, Some(&prefix)).and_then(|m| against_first(&good, m));
        match outcome {
            Ok(m) => traced = Some(m),
            Err(why) => failures.push((id, why)),
        }
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    // ---- Aggregate: medians over the good untraced jobs. ----
    let med = |key: &str| median(good.iter().filter_map(|m| m.get(key).copied()).collect());
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in wanted {
        let value = match name {
            "io.input_mib" => Some(input.mib),
            "trace.overhead_pct" => traced
                .as_ref()
                .and_then(|t| t.get("run_s"))
                .zip(med("run_s"))
                .map(|(t, u)| 100.0 * (t / u - 1.0)),
            _ if name.starts_with("trace.")
                || name.starts_with("critpath.")
                || name.starts_with("mem.") =>
            {
                traced.as_ref().and_then(|t| t.get(name).copied())
            }
            _ => med(name),
        };
        if let Some(v) = value {
            metrics.push((name, unit, v));
        }
    }

    // ---- Report: provenance, a readable table, then the result line. ----
    let failed = failures.len();
    for (id, why) in &failures {
        println!("job {id} failed: {why}");
    }
    let c = &w.cluster;
    println!(
        "{{\"provenance\":{{\"workload\":{},\"dataset\":{},\"scale\":{},\"seed\":{},\"held_out_seed\":{},\
         \"cluster\":{},\"machines\":{},\"workers_per_machine\":{},\"threads_per_worker\":{},\
         \"receivers_per_worker\":{},\"sssp_source\":{},\"jobs_measured\":{},\"attempted\":{},\"failed\":{},\
         \"error_rate\":{},\"max_pagerank_l1\":{},\"prepare_s\":{},\"nproc\":{},\"cpu\":{},\"rustc\":{},\"git\":{}}}}}",
        json_str(w.name),
        json_str(&w.dataset.to_string()),
        w.scale,
        args.seed,
        HELD_OUT_SEED,
        json_str(&c.label()),
        c.machines,
        c.workers_per_machine,
        c.threads_per_worker,
        c.receivers_per_worker,
        input.source.map_or("null".into(), |v| v.to_string()),
        good.len(),
        attempted,
        failed,
        json_num(failed as f64 / attempted as f64),
        match w.algo {
            Algo::PageRank => json_num(
                good.iter()
                    .filter_map(|m| m.get("check.l1").copied())
                    .fold(0.0, f64::max)
            ),
            Algo::Sssp => "null".into(),
        },
        json_num(prepare_s),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_str(&cpu_model()),
        json_str(&command_line(
            &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
            &["-V"]
        )),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
    );
    println!(
        "{:<30} {:>16} {:>16} {:>16} {:>6}  unit",
        "metric", "median", "min", "max", "n"
    );
    for (name, unit, v) in &metrics {
        let samples: Vec<f64> = good.iter().filter_map(|m| m.get(*name).copied()).collect();
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if samples.is_empty() {
            println!(
                "{name:<30} {v:>16.6} {:>16} {:>16} {:>6}  {unit}",
                "-", "-", 1
            );
        } else {
            println!(
                "{name:<30} {v:>16.6} {lo:>16.6} {hi:>16.6} {:>6}  {unit}",
                samples.len()
            );
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && metrics.len() == wanted.len(),
        body.join(",")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_overrun_and_nonzero_exit_are_failures() {
        let sleeper = Command::new("sleep").arg("30").spawn().unwrap();
        let started = Instant::now();
        assert!(wait_capped(sleeper, Duration::from_millis(200)).is_err());
        assert!(started.elapsed() < Duration::from_secs(10));
        let crash = Command::new("sh").args(["-c", "exit 101"]).spawn().unwrap();
        assert!(!wait_capped(crash, Duration::from_secs(10))
            .unwrap()
            .success());
    }

    #[test]
    fn job_output_parses_or_fails() {
        let m = parse_metrics("run_s 1.25\nmessages 42\n").unwrap();
        assert_eq!(m["run_s"], 1.25);
        assert_eq!(m["messages"], 42.0);
        assert!(parse_metrics("run_s\n").is_err());
        assert!(parse_metrics("run_s fast\n").is_err());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(Vec::new()), None);
    }
}
