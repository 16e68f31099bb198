//! Property-based tests of the Cyclops engine: for arbitrary graphs,
//! partitions, and cluster shapes, the distributed execution must equal the
//! sequential fixpoint computation, and the §3.4 message invariant must
//! hold.

use cyclops_engine::{run_cyclops, CyclopsConfig, CyclopsContext, CyclopsProgram};
use cyclops_graph::{Graph, GraphBuilder, VertexId};
use cyclops_net::ClusterSpec;
use cyclops_partition::EdgeCutPartition;
use proptest::prelude::*;

/// Pull-mode max propagation (see the engine's unit tests): value becomes
/// the max over in-neighbors; publishes on growth.
struct MaxPull;
impl CyclopsProgram for MaxPull {
    type Value = u32;
    type Message = u32;
    fn init(&self, v: VertexId, _g: &Graph) -> u32 {
        v * 7 + 3
    }
    fn init_message(&self, _v: VertexId, _g: &Graph, value: &u32) -> Option<u32> {
        Some(*value)
    }
    fn compute(&self, ctx: &mut CyclopsContext<'_, u32, u32>) {
        let mut best = *ctx.value();
        for (m, _) in ctx.in_messages() {
            best = best.max(*m);
        }
        if best > *ctx.value() {
            ctx.set_value(best);
            ctx.activate_neighbors(best);
        }
    }
}

/// Sequential fixpoint of the same dynamics.
fn sequential_maxpull(g: &Graph) -> Vec<u32> {
    let mut values: Vec<u32> = g.vertices().map(|v| v * 7 + 3).collect();
    loop {
        let mut changed = false;
        let snapshot = values.clone();
        for v in g.vertices() {
            let mut best = values[v as usize];
            for &u in g.in_neighbors(v) {
                best = best.max(snapshot[u as usize]);
            }
            if best > values[v as usize] {
                values[v as usize] = best;
                changed = true;
            }
        }
        if !changed {
            return values;
        }
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..25).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 0..80).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (s, t) in edges {
                b.add_edge(s, t);
            }
            b.build()
        })
    })
}

/// An arbitrary total assignment of vertices to `k` parts.
fn arb_partition(g: &Graph, k: usize, seed: u64) -> EdgeCutPartition {
    // Cheap deterministic pseudo-random assignment.
    let assignment = g
        .vertices()
        .map(|v| (((v as u64).wrapping_mul(seed.wrapping_mul(2) + 1) >> 3) % k as u64) as u32)
        .collect();
    EdgeCutPartition::new(k, assignment)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distributed_fixpoint_equals_sequential(
        g in arb_graph(),
        seed in 0u64..1_000,
        workers in 1usize..5,
        threads in 1usize..4,
        receivers in 1usize..3,
    ) {
        let p = arb_partition(&g, workers, seed);
        let cluster = ClusterSpec {
            machines: workers,
            workers_per_machine: 1,
            threads_per_worker: threads,
            receivers_per_worker: receivers,
        };
        let r = run_cyclops(&MaxPull, &g, &p, &CyclopsConfig {
            cluster,
            max_supersteps: 10_000,
            ..Default::default()
        });
        prop_assert_eq!(r.values, sequential_maxpull(&g));
    }

    #[test]
    fn replication_factor_matches_partition_metric(
        g in arb_graph(),
        seed in 0u64..1_000,
        workers in 1usize..5,
    ) {
        let p = arb_partition(&g, workers, seed);
        let plan = cyclops_engine::CyclopsPlan::build(&g, &p);
        prop_assert!((plan.replication_factor(&g) - p.replication_factor(&g)).abs() < 1e-12);
    }

    #[test]
    fn per_superstep_messages_bounded_by_replicas(
        g in arb_graph(),
        seed in 0u64..1_000,
        workers in 2usize..5,
    ) {
        // §3.4: each replica receives at most one message per superstep, so
        // per-superstep traffic can never exceed the replica count.
        let p = arb_partition(&g, workers, seed);
        let r = run_cyclops(&MaxPull, &g, &p, &CyclopsConfig {
            cluster: ClusterSpec::flat(workers, 1),
            max_supersteps: 10_000,
            ..Default::default()
        });
        let total_replicas = p.total_replicas(&g);
        for s in &r.stats {
            prop_assert!(
                s.messages_sent <= total_replicas,
                "superstep {} sent {} messages with only {} replicas",
                s.superstep, s.messages_sent, total_replicas
            );
        }
    }
}
