//! Cross-engine integration tests: the three engines must agree with each
//! other and with the sequential references on every workload, across
//! cluster shapes and partitioners.

use cyclops::prelude::*;
use cyclops_algos::als::{reference_als, run_bsp_als, run_cyclops_als, AlsParams};
use cyclops_algos::cd::{run_bsp_cd, run_cyclops_cd};
use cyclops_algos::pagerank::{run_bsp_pagerank, run_cyclops_pagerank, run_gas_pagerank};
use cyclops_algos::sssp::{run_bsp_sssp, run_cyclops_sssp, run_gas_sssp};
use cyclops_graph::reference;
use cyclops_partition::{
    GreedyVertexCut, MultilevelPartitioner, RandomVertexCut, VertexCutPartitioner,
};

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.is_finite() || y.is_finite())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn pagerank_all_engines_match_reference_on_gweb() {
    let g = Dataset::GWeb.generate_scaled(0.05, 1);
    let (expected, _) = reference::pagerank(&g, 0.0, 25);
    let cluster = ClusterSpec::flat(3, 2);

    let edge_cut = HashPartitioner.partition(&g, 6);
    let cy = run_cyclops_pagerank(&g, &edge_cut, &cluster, 0.0, 25);
    assert!(max_abs_diff(&cy.values, &expected) < 1e-14, "cyclops");

    let bsp = run_bsp_pagerank(&g, &edge_cut, &cluster, 0.0, 26);
    assert!(max_abs_diff(&bsp.values, &expected) < 1e-11, "bsp");

    let vertex_cut = RandomVertexCut::default().partition(&g, 6);
    let gas = run_gas_pagerank(&g, &vertex_cut, &cluster, 0.0, 25);
    assert!(max_abs_diff(&gas.values, &expected) < 1e-11, "gas");
}

#[test]
fn pagerank_partitioner_does_not_change_cyclops_results() {
    let g = Dataset::Amazon.generate_scaled(0.05, 2);
    let cluster = ClusterSpec::flat(2, 2);
    let hash = HashPartitioner.partition(&g, 4);
    let metis = MultilevelPartitioner::default().partition(&g, 4);
    let a = run_cyclops_pagerank(&g, &hash, &cluster, 0.0, 30);
    let b = run_cyclops_pagerank(&g, &metis, &cluster, 0.0, 30);
    // Same deterministic synchronous iteration: identical results.
    assert_eq!(a.values, b.values);
    // But Metis needs fewer replicas and messages.
    assert!(b.replication_factor <= a.replication_factor);
}

#[test]
fn sssp_all_engines_match_dijkstra_on_road() {
    let g = Dataset::RoadCa.generate_scaled(0.05, 3);
    let expected = reference::sssp(&g, 0);
    let cluster = ClusterSpec::flat(3, 2);
    let edge_cut = HashPartitioner.partition(&g, 6);

    for (name, values) in [
        (
            "cyclops",
            run_cyclops_sssp(&g, &edge_cut, &cluster, 0, 100_000).values,
        ),
        (
            "bsp",
            run_bsp_sssp(&g, &edge_cut, &cluster, 0, 100_000).values,
        ),
        (
            "gas",
            run_gas_sssp(
                &g,
                &GreedyVertexCut::default().partition(&g, 6),
                &cluster,
                0,
                100_000,
            )
            .values,
        ),
    ] {
        for (i, (a, e)) in values.iter().zip(&expected).enumerate() {
            if e.is_finite() {
                assert!((a - e).abs() < 1e-9, "{name} vertex {i}: {a} vs {e}");
            } else {
                assert!(a.is_infinite(), "{name} vertex {i} should be unreachable");
            }
        }
    }
}

#[test]
fn cd_engines_match_reference_on_dblp() {
    let g = Dataset::Dblp.generate_scaled(0.1, 4);
    let sweeps = 10;
    let expected = reference::label_propagation(&g, sweeps);
    let cluster = ClusterSpec::flat(2, 3);
    let p = HashPartitioner.partition(&g, 6);
    let cy = run_cyclops_cd(&g, &p, &cluster, sweeps);
    assert_eq!(cy.values, expected, "cyclops");
    let bsp = run_bsp_cd(&g, &p, &cluster, sweeps + 1);
    assert_eq!(bsp.values, expected, "bsp");
}

#[test]
fn als_engines_match_reference_on_syn_gl() {
    let g = Dataset::SynGl.generate_scaled(0.05, 5);
    let params = AlsParams {
        users: Dataset::SynGl.bipartite_users_at(0.05).unwrap(),
        dim: 4,
        lambda: 0.1,
    };
    let expected = reference_als(&g, params, 2);
    let cluster = ClusterSpec::flat(2, 2);
    let p = HashPartitioner.partition(&g, 4);
    let cy = run_cyclops_als(&g, &p, &cluster, params, 2);
    let bsp = run_bsp_als(&g, &p, &cluster, params, 2);
    for (v, exp) in expected.iter().enumerate() {
        for (d, e) in exp.iter().enumerate() {
            assert!((cy.values[v][d] - e).abs() < 1e-9, "cyclops v{v}");
            assert!((bsp.values[v][d] - e).abs() < 1e-8, "bsp v{v}");
        }
    }
}

#[test]
fn cyclops_mt_configs_agree_with_flat() {
    // The same partition computed by wildly different thread/receiver
    // configurations must produce identical results.
    let g = Dataset::GWeb.generate_scaled(0.03, 6);
    let p = HashPartitioner.partition(&g, 4);
    let base = run_cyclops_pagerank(&g, &p, &ClusterSpec::flat(4, 1), 0.0, 20);
    for spec in [
        ClusterSpec::mt(4, 2, 1),
        ClusterSpec::mt(4, 4, 2),
        ClusterSpec::mt(4, 4, 4),
        ClusterSpec {
            machines: 2,
            workers_per_machine: 2,
            threads_per_worker: 3,
            receivers_per_worker: 2,
        },
    ] {
        let r = run_cyclops_pagerank(&g, &p, &spec, 0.0, 20);
        assert_eq!(r.values, base.values, "config {spec}");
    }
}

#[test]
fn network_model_changes_time_not_results() {
    let g = Dataset::Amazon.generate_scaled(0.05, 9);
    let cluster = ClusterSpec::flat(3, 1);
    let p = HashPartitioner.partition(&g, 3);
    let ideal = cyclops_engine::run_cyclops(
        &cyclops_algos::pagerank::CyclopsPageRank { epsilon: 0.0 },
        &g,
        &p,
        &cyclops_engine::CyclopsConfig {
            cluster,
            max_supersteps: 10,
            ..Default::default()
        },
    );
    let modeled = cyclops_engine::run_cyclops(
        &cyclops_algos::pagerank::CyclopsPageRank { epsilon: 0.0 },
        &g,
        &p,
        &cyclops_engine::CyclopsConfig {
            cluster,
            max_supersteps: 10,
            network: cyclops_net::NetworkModel::gigabit(),
            ..Default::default()
        },
    );
    assert_eq!(ideal.values, modeled.values);
    assert_eq!(ideal.counters.messages, modeled.counters.messages);
    // The gigabit wire adds only microseconds here, less than scheduling
    // noise on a small host, so the time comparison uses a slow wire whose
    // delay, sized from the run's own cross-machine byte counter, is
    // about 100 ms, far above the ideal run's time at this scale.
    let bandwidth = 1e5; // bytes/s
    let slow = cyclops_engine::run_cyclops(
        &cyclops_algos::pagerank::CyclopsPageRank { epsilon: 0.0 },
        &g,
        &p,
        &cyclops_engine::CyclopsConfig {
            cluster,
            max_supersteps: 10,
            network: cyclops_net::NetworkModel {
                bandwidth_bytes_per_sec: Some(bandwidth),
                batch_latency: std::time::Duration::ZERO,
                per_message: std::time::Duration::ZERO,
            },
            ..Default::default()
        },
    );
    assert_eq!(ideal.values, slow.values);
    assert_eq!(ideal.counters.messages, slow.counters.messages);
    assert_eq!(ideal.counters.bytes, slow.counters.bytes);
    // Each worker's single sender thread sleeps for its batches' modeled
    // transmission time, so the run takes at least the busiest worker's
    // share: at least total bytes / bandwidth / workers.
    let wire = std::time::Duration::from_secs_f64(
        slow.counters.bytes as f64 / bandwidth / cluster.num_workers() as f64,
    );
    assert!(
        wire >= std::time::Duration::from_millis(50),
        "wire floor {wire:?} too small to measure"
    );
    assert!(
        slow.elapsed >= wire,
        "slow wire took {:?}, below its modeled floor {wire:?}",
        slow.elapsed
    );
    assert!(
        slow.elapsed > ideal.elapsed,
        "slow wire {:?} vs ideal {:?}",
        slow.elapsed,
        ideal.elapsed
    );
}

#[test]
fn message_counts_follow_the_papers_ordering() {
    // Cyclops <= Hama messages; GAS ~5x the replicas' worth.
    let g = Dataset::Amazon.generate_scaled(0.1, 7);
    let cluster = ClusterSpec::flat(3, 2);
    let edge_cut = HashPartitioner.partition(&g, 6);
    let eps = 1e-6;
    let hama = run_bsp_pagerank(&g, &edge_cut, &cluster, eps, 200);
    let cy = run_cyclops_pagerank(&g, &edge_cut, &cluster, eps, 200);
    assert!(
        (cy.counters.messages as f64) < 0.8 * hama.counters.messages as f64,
        "cyclops {} vs hama {}",
        cy.counters.messages,
        hama.counters.messages
    );
    let vertex_cut = RandomVertexCut::default().partition(&g, 6);
    let gas = run_gas_pagerank(&g, &vertex_cut, &cluster, eps, 200);
    assert!(
        gas.counters.messages > cy.counters.messages * 3,
        "gas {} vs cyclops {}",
        gas.counters.messages,
        cy.counters.messages
    );
}
