//! One graph job, run in a child process of the runner.
//!
//! The job is timed from outside, by wrapping the calls into each layer's
//! public functions in benchmark-side spans: load (`io`), partition,
//! plan build (`CyclopsPlan::build_parallel`) and the engine call
//! (`run_cyclops_with_plan`). The sequential reference then runs, timed
//! for COST only, and the result is checked against it. Measurements go to
//! stdout as `name value` lines; a failed check exits with status 3.

use crate::gate::{self, Metrics};
use crate::workload::{Algo, Partitioner, Workload, PR_EPSILON};
use cyclops::algos::pagerank::CyclopsPageRank;
use cyclops::algos::sssp::{auto_bucket_width, CyclopsSssp};
use cyclops::engine::{run_cyclops_with_plan_traced, CyclopsConfig, CyclopsPlan, CyclopsResult};
use cyclops::graph::{io, reference, Graph, VertexId};
use cyclops::net::{trace, BucketMode, TraceSink};
use cyclops::obs::mem::{self, MemScope};
use cyclops::obs::Component;
use cyclops::partition::{EdgeCutPartitioner, HashPartitioner, MultilevelPartitioner};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Exit status of a job whose result failed the correctness gate.
pub const GATE_FAILED: u8 = 3;

/// PageRank sweeps the reference may take; it converges in far fewer.
const REFERENCE_MAX_SWEEPS: usize = 10_000;

/// The reference runs this many times and `reference_s` is the fastest: COST
/// compares against the best single-thread time, and one single-threaded
/// run on a shared 2-vCPU host reads up to ±20 % off.
const REFERENCE_RUNS: usize = 3;

pub struct JobArgs {
    pub workload: Workload,
    pub input: PathBuf,
    pub source: VertexId,
    /// Job id stamped on every span.
    pub id: u64,
    /// Set for the traced job: arms the tracking allocator, installs the
    /// flight recorder, attaches a trace sink, and writes
    /// `<prefix>.trace.jsonl` and `<prefix>.spans.jsonl`.
    pub trace_prefix: Option<PathBuf>,
}

/// Outcome of a job that ran to completion.
pub enum Outcome {
    Measured(Metrics),
    GateFailed(String),
}

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// Benchmark-side spans, kept in memory and written out after the job.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    fn time<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end - s.start).as_secs_f64())
    }

    /// A span's duration minus the part its children cover (children of
    /// one span never overlap here).
    fn self_secs(&self, id: usize) -> f64 {
        let own = (self.spans[id].end - self.spans[id].start).as_secs_f64();
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.end - s.start).as_secs_f64())
            .sum();
        own - children
    }

    fn write_jsonl(&self, path: &Path, job: u64) -> std::io::Result<()> {
        let ns = |t: Instant| (t - self.epoch).as_nanos();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| {
                format!("\"{}\"", self.spans[p].name)
            });
            let _ = writeln!(
                out,
                "{{\"job\":{job},\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                s.name,
                ns(s.start),
                ns(s.end),
                (self.self_secs(i) * 1e9) as u64,
            );
        }
        std::fs::write(path, out)
    }
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

fn peak_rss_mib() -> Result<f64, String> {
    match mem::read_vm_status() {
        (_, Some(hwm_kb)) => Ok(hwm_kb as f64 / 1024.0),
        _ => Err("VmHWM missing from /proc/self/status".into()),
    }
}

fn engine_config(w: &Workload, g: &Graph) -> CyclopsConfig {
    // The CLI defaults: dynamic scheduler, sparse cutoff 0.015, full
    // replication, no migration. SSSP adds `--bucket-width auto` in `det`
    // mode: the width seeds from the mean edge weight and adapts.
    let base = CyclopsConfig {
        cluster: w.cluster,
        ..Default::default()
    };
    match w.algo {
        Algo::PageRank => base,
        Algo::Sssp => CyclopsConfig {
            bucket_width: auto_bucket_width(g),
            bucket_mode: BucketMode::Det,
            bucket_adapt: true,
            ..base
        },
    }
}

pub fn run(args: &JobArgs) -> Result<Outcome, String> {
    let w = &args.workload;
    let traced = args.trace_prefix.is_some();
    if traced {
        // One-way and process-global, hence the traced job's own process.
        mem::arm();
    }
    let mut sink = traced.then(|| {
        // Transports resolve their span rings at construction, so the
        // recorder must exist before the engine call.
        cyclops::obs::install_flight();
        let _mem = MemScope::enter(Component::Trace);
        TraceSink::new("cyclops", &w.cluster)
    });
    reset_peak_rss()?;

    // ---- The timed job: load, partition, plan build, engine call. ----
    let mut spans = Spans::new();
    let job = spans.open("job", None);
    let g = spans.time("load", Some(job), || {
        let _mem = MemScope::enter(Component::Graph);
        io::read_edge_list_file(&args.input)
    });
    let g = g.map_err(|e| format!("loading {}: {e}", args.input.display()))?;
    let k = w.cluster.num_workers();
    let part = spans.time("partition", Some(job), || match w.partitioner {
        Partitioner::Hash => HashPartitioner.partition(&g, k),
        Partitioner::Multilevel => MultilevelPartitioner::default().partition(&g, k),
    });
    let plan = spans.time("plan", Some(job), || CyclopsPlan::build_parallel(&g, &part));
    let run = spans.open("run", Some(job));
    let r: CyclopsResult<f64, f64> = {
        let config = engine_config(w, &g);
        match w.algo {
            Algo::PageRank => run_cyclops_with_plan_traced(
                &CyclopsPageRank {
                    epsilon: PR_EPSILON,
                },
                &g,
                &plan,
                &config,
                None,
                sink.as_ref(),
            ),
            Algo::Sssp => run_cyclops_with_plan_traced(
                &CyclopsSssp {
                    source: args.source,
                },
                &g,
                &plan,
                &config,
                None,
                sink.as_ref(),
            ),
        }
    };
    spans.close(run);
    spans.close(job);
    let peak_rss = peak_rss_mib()?;
    let mem_peaks = [
        ("mem.plan_peak", Component::Plan),
        ("mem.replicas_peak", Component::Replicas),
        ("mem.send_pool_peak", Component::SendPool),
        ("mem.inbox_peak", Component::Inbox),
    ]
    .map(|(name, c)| (name, mem::peak_bytes(c) as f64));

    // ---- Untimed for the job; the reference is timed for COST. ----
    let mut reference_s = f64::INFINITY;
    let mut expected = Vec::new();
    spans.time("reference", None, || {
        for _ in 0..REFERENCE_RUNS {
            let start = Instant::now();
            expected = std::hint::black_box(match w.algo {
                Algo::PageRank => reference::pagerank(&g, PR_EPSILON, REFERENCE_MAX_SWEEPS).0,
                Algo::Sssp => reference::sssp(&g, args.source),
            });
            reference_s = reference_s.min(start.elapsed().as_secs_f64());
        }
    });
    // The L1 distance to the reference (0 for SSSP, which must match exactly).
    let verdict = spans.time("check", None, || match w.algo {
        Algo::PageRank => gate::check_pagerank(&r.values, &expected),
        Algo::Sssp => gate::check_sssp(&r.values, &expected).map(|()| 0.0),
    });
    let l1 = match verdict {
        Ok(l1) => l1,
        Err(why) => return Ok(Outcome::GateFailed(why)),
    };

    let mut m = Metrics::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put("check.l1", l1);
    let load_s = spans.secs("load");
    let partition_s = spans.secs("partition");
    let plan_s = spans.secs("plan");
    let run_s = spans.secs("run");
    let job_s = spans.secs("job");
    put("job_s", job_s);
    put("setup_s", load_s + partition_s + plan_s);
    put("run_s", run_s);
    put("cost_x", run_s / reference_s);
    put("wire_bytes", r.counters.bytes as f64);
    put("messages", r.counters.messages as f64);
    put("peak_rss_mib", peak_rss);

    put("io.load_s", load_s);
    put("partition.s", partition_s);
    put("partition.replication_factor", part.replication_factor(&g));
    put("partition.edge_cut", part.edge_cut(&g) as f64);
    put("partition.balance", part.balance());
    put("plan.build_s", plan_s);
    put("plan.replicas", plan.ingress.total_replicas as f64);
    put("plan.bytes", plan.memory_breakdown().total() as f64);

    // Phase times are summed over the `k` workers' leader threads, so they
    // are thread-seconds.
    let phase = |f: fn(&cyclops::net::PhaseTimes) -> std::time::Duration| -> f64 {
        r.stats
            .iter()
            .map(|s| f(&s.phase_times).as_secs_f64())
            .sum()
    };
    let (prs, cmp, snd, syn) = (
        phase(|p| p.parse),
        phase(|p| p.compute),
        phase(|p| p.send),
        phase(|p| p.sync),
    );
    let init_s = r.ingress.init.as_secs_f64();
    let loop_s = r.elapsed.as_secs_f64();
    put("engine.init_s", init_s);
    put("engine.loop_s", loop_s);
    put("engine.start_s", run_s - init_s - loop_s);
    put("engine.prs_s", prs);
    put("engine.cmp_s", cmp);
    put("engine.snd_s", snd);
    put("engine.syn_s", syn);
    put("engine.busy_frac", (prs + cmp + snd) / (k as f64 * loop_s));
    put("engine.supersteps", r.supersteps as f64);
    put(
        "engine.computed",
        r.stats.iter().map(|s| s.active_vertices).sum::<usize>() as f64,
    );

    let c = &r.counters;
    put("net.dense_batches", c.wire_dense_batches as f64);
    put("net.sparse_batches", c.wire_sparse_batches as f64);
    put(
        "net.bytes_per_msg",
        c.bytes as f64 / c.messages.max(1) as f64,
    );
    put("net.saved_bytes", c.wire_saved_bytes as f64);
    put("net.alloc_bytes", c.message_bytes_allocated as f64);
    put("net.peak_queue_bytes", c.peak_queue_bytes as f64);
    put("net.lock_contentions", c.lock_contentions as f64);
    put("net.barrier_msgs", r.barrier_protocol_messages as f64);
    put("reference_s", reference_s);

    if let (Some(prefix), Some(sink)) = (&args.trace_prefix, sink.as_mut()) {
        for (name, bytes) in mem_peaks {
            put(name, bytes);
        }
        let covered: f64 = spans
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(job))
            .map(|(i, _)| spans.self_secs(i))
            .sum();
        let coverage_pct = 100.0 * covered / job_s;
        if (coverage_pct - 100.0).abs() > 5.0 {
            return Ok(Outcome::GateFailed(format!(
                "span self-times cover {coverage_pct:.2}% of job_s, not 100 ± 5%"
            )));
        }
        put("trace.span_coverage_pct", coverage_pct);
        for (name, v) in traced_metrics(prefix, sink)? {
            put(name, v);
        }
        let path = with_suffix(prefix, ".spans.jsonl");
        spans
            .write_jsonl(&path, args.id)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Outcome::Measured(m))
}

fn with_suffix(prefix: &Path, suffix: &str) -> PathBuf {
    let mut s = prefix.as_os_str().to_owned();
    s.push(suffix);
    PathBuf::from(s)
}

/// Writes the engine trace (superstep records, flight spans, memory
/// samples) and derives the critical-path split from it.
fn traced_metrics(prefix: &Path, sink: &mut TraceSink) -> Result<Vec<(&'static str, f64)>, String> {
    let path = with_suffix(prefix, ".trace.jsonl");
    let path = path.to_str().ok_or("trace path is not UTF-8")?;
    let io_err = |e: std::io::Error| format!("trace {path}: {e}");
    sink.write_jsonl(path).map_err(io_err)?;
    if let Some(fr) = cyclops::obs::flight() {
        trace::append_spans_jsonl(path, &fr.drain().spans).map_err(io_err)?;
    }
    trace::append_mem_jsonl(path, &mem::take_samples()).map_err(io_err)?;
    let run = trace::read_jsonl(path).map_err(io_err)?;
    let cp = cyclops::obs::critical_path(&run);
    let total = (cp.total_work_ns + cp.total_wait_ns + cp.total_residual_ns).max(1) as f64;
    let top = cp
        .straggler_ranking()
        .first()
        .map_or(0, |s| s.caused_wait_ns) as f64;
    Ok(vec![
        ("critpath.work_pct", 100.0 * cp.total_work_ns as f64 / total),
        ("critpath.wait_pct", 100.0 * cp.total_wait_ns as f64 / total),
        (
            "critpath.residual_pct",
            100.0 * cp.total_residual_ns as f64 / total,
        ),
        (
            "critpath.top_straggler_share",
            top / cp.total_caused_wait_ns().max(1) as f64,
        ),
    ])
}
