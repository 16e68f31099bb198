//! Regression tests for PR 3: skew-aware compute scheduling and the
//! zero-allocation send path.
//!
//! Three properties: (1) the static and dynamic schedulers produce
//! bitwise-identical results *and* bitwise-identical values-mode traces for
//! PageRank, SSSP, and connected components — the determinism story that
//! makes the dynamic scheduler a pure performance dial; (2) with send-buffer
//! pooling, steady-state supersteps allocate nothing: total send allocation
//! is a warm-up constant in the number of lanes × destinations, not a
//! function of message count (the Table 2 story); (3) pooling itself does
//! not change results or wire bytes.

use cyclops::prelude::*;
use cyclops_algos::cc::{run_cyclops_cc_sched, symmetrize};
use cyclops_algos::pagerank::run_cyclops_pagerank_sched;
use cyclops_algos::sssp::run_cyclops_sssp_sched;
use cyclops_engine::Sched;
use cyclops_net::trace::{diff, RunTrace, TraceSink};

fn finish(mut sink: TraceSink) -> RunTrace {
    assert_eq!(sink.dropped_records(), 0, "ring buffer overflowed");
    RunTrace {
        spans: Vec::new(),
        mem: Vec::new(),
        meta: sink.meta().clone(),
        records: sink.take_records(),
    }
}

/// Static and dynamic scheduling must be observationally equivalent down to
/// the values-mode trace: same per-superstep counters, same wire bytes,
/// same publication digests. CyclopsMT topology so multiple compute threads
/// actually race for chunks.
#[test]
fn schedulers_produce_identical_pagerank_traces() {
    let g = Dataset::GWeb.generate_scaled(0.04, 7);
    let cluster = ClusterSpec::mt(2, 3, 1);
    let p = HashPartitioner.partition(&g, cluster.num_workers());

    let sink_s = TraceSink::with_values("cyclops", &cluster);
    let rs = run_cyclops_pagerank_sched(&g, &p, &cluster, 1e-9, 60, Sched::Static, Some(&sink_s));
    let sink_d = TraceSink::with_values("cyclops", &cluster);
    let rd = run_cyclops_pagerank_sched(&g, &p, &cluster, 1e-9, 60, Sched::Dynamic, Some(&sink_d));

    assert_eq!(rs.supersteps, rd.supersteps);
    for (v, (a, b)) in rs.values.iter().zip(&rd.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}: {a} vs {b}");
    }
    assert_eq!(
        diff::first_divergence(&finish(sink_s), &finish(sink_d), true),
        None,
        "static and dynamic traces must be indistinguishable"
    );
}

#[test]
fn schedulers_produce_identical_sssp_traces() {
    let g = cyclops_graph::gen::road_lattice(16, 16, 0.9, 0.1, 11);
    let cluster = ClusterSpec::mt(2, 2, 1);
    let p = HashPartitioner.partition(&g, cluster.num_workers());

    let sink_s = TraceSink::with_values("cyclops", &cluster);
    let rs = run_cyclops_sssp_sched(&g, &p, &cluster, 0, 10_000, Sched::Static, Some(&sink_s));
    let sink_d = TraceSink::with_values("cyclops", &cluster);
    let rd = run_cyclops_sssp_sched(&g, &p, &cluster, 0, 10_000, Sched::Dynamic, Some(&sink_d));

    assert_eq!(rs.supersteps, rd.supersteps);
    for (v, (a, b)) in rs.values.iter().zip(&rd.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}: {a} vs {b}");
    }
    assert_eq!(
        diff::first_divergence(&finish(sink_s), &finish(sink_d), true),
        None
    );
}

#[test]
fn schedulers_produce_identical_cc_traces() {
    let g = symmetrize(&cyclops_graph::gen::erdos_renyi(500, 900, 23));
    let cluster = ClusterSpec::mt(2, 3, 1);
    let p = HashPartitioner.partition(&g, cluster.num_workers());

    let sink_s = TraceSink::with_values("cyclops", &cluster);
    let rs = run_cyclops_cc_sched(&g, &p, &cluster, Sched::Static, Some(&sink_s));
    let sink_d = TraceSink::with_values("cyclops", &cluster);
    let rd = run_cyclops_cc_sched(&g, &p, &cluster, Sched::Dynamic, Some(&sink_d));

    assert_eq!(rs.supersteps, rd.supersteps);
    assert_eq!(rs.values, rd.values);
    assert_eq!(
        diff::first_divergence(&finish(sink_s), &finish(sink_d), true),
        None
    );
}

/// The Table 2 claim: with pooled send buffers, allocation is a one-time
/// warm-up cost — doubling the superstep count roughly doubles the wire
/// bytes but adds *zero* new allocation, i.e. per-superstep allocation is
/// O(destination machines), not O(messages).
#[test]
fn pooled_send_path_stops_allocating_after_warmup() {
    let g = Dataset::GWeb.generate_scaled(0.05, 3);
    let cluster = ClusterSpec::flat(3, 2);
    let p = HashPartitioner.partition(&g, cluster.num_workers());

    // epsilon = 0 keeps every vertex active, so every superstep ships the
    // same full frontier and steady-state batch sizes are constant.
    let short = run_cyclops_pagerank_sched(&g, &p, &cluster, 0.0, 10, Sched::Dynamic, None);
    let long = run_cyclops_pagerank_sched(&g, &p, &cluster, 0.0, 20, Sched::Dynamic, None);

    assert!(
        short.counters.message_bytes_allocated > 0,
        "warm-up allocates"
    );
    assert!(
        long.counters.bytes > short.counters.bytes * 18 / 10,
        "doubling supersteps must roughly double wire bytes \
         ({} vs {})",
        long.counters.bytes,
        short.counters.bytes
    );
    assert_eq!(
        long.counters.message_bytes_allocated, short.counters.message_bytes_allocated,
        "steady-state supersteps must allocate nothing: all growth happens \
         in the first supersteps' warm-up"
    );
    // The warm-up itself is bounded by one max-size batch per sender lane —
    // a far cry from one allocation per wire byte.
    assert!(
        long.counters.message_bytes_allocated < long.counters.bytes as u64 / 4,
        "total allocation ({}) must be a small fraction of wire bytes ({})",
        long.counters.message_bytes_allocated,
        long.counters.bytes
    );
}

/// Turning the pool off must change allocation accounting only — results,
/// message counts, and wire bytes are identical.
#[test]
fn pooling_is_invisible_except_to_the_allocator() {
    use cyclops_algos::pagerank::CyclopsPageRank;
    use cyclops_engine::{run_cyclops, Convergence, CyclopsConfig};

    let g = Dataset::Amazon.generate_scaled(0.05, 5);
    let cluster = ClusterSpec::flat(2, 2);
    let p = HashPartitioner.partition(&g, cluster.num_workers());
    let config = |pooled| CyclopsConfig {
        cluster,
        max_supersteps: 12,
        convergence: Convergence::ActiveVertices,
        pooled,
        ..Default::default()
    };

    let pooled = run_cyclops(&CyclopsPageRank { epsilon: 0.0 }, &g, &p, &config(true));
    let fresh = run_cyclops(&CyclopsPageRank { epsilon: 0.0 }, &g, &p, &config(false));

    assert_eq!(pooled.values, fresh.values);
    assert_eq!(pooled.counters.messages, fresh.counters.messages);
    assert_eq!(pooled.counters.bytes, fresh.counters.bytes);
    // Unpooled: every batch is a fresh allocation, so accounting equals the
    // wire. Pooled: a small warm-up fraction.
    assert_eq!(
        fresh.counters.message_bytes_allocated,
        fresh.counters.bytes as u64
    );
    assert!(pooled.counters.message_bytes_allocated < fresh.counters.message_bytes_allocated / 4);
}

/// Under `--sched dynamic` the per-chunk reduction order is pinned, so the
/// values-mode PageRank trace must be identical across compute thread
/// counts — not just the comm columns, but every value and digest.
#[test]
fn dynamic_sched_trace_is_stable_across_thread_counts() {
    let g = Dataset::GWeb.generate_scaled(0.04, 19);
    let narrow = ClusterSpec::mt(2, 2, 1);
    let wide = ClusterSpec::mt(2, 4, 2);
    assert_eq!(narrow.num_workers(), wide.num_workers());
    let p = HashPartitioner.partition(&g, narrow.num_workers());

    let sink_n = TraceSink::with_values("cyclops", &narrow);
    let rn = run_cyclops_pagerank_sched(&g, &p, &narrow, 1e-8, 60, Sched::Dynamic, Some(&sink_n));
    let sink_w = TraceSink::with_values("cyclops", &wide);
    let rw = run_cyclops_pagerank_sched(&g, &p, &wide, 1e-8, 60, Sched::Dynamic, Some(&sink_w));
    for (v, (a, b)) in rn.values.iter().zip(&rw.values).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "vertex {v}");
    }
    assert_eq!(rn.counters.messages, rw.counters.messages);
    assert_eq!(rn.counters.bytes, rw.counters.bytes);
    assert_eq!(
        diff::first_value_divergence(&finish(sink_n), &finish(sink_w)),
        None,
        "dynamic-sched trace must not depend on thread count"
    );
}
