//! Single-Source Shortest Path — the paper's push-mode workload (§6.1).
//!
//! "A vertex will not do computation unless messages arrive to wake it up."
//! SSSP shows that even without redundant computation to eliminate, Cyclops
//! still wins on communication (contention-free replica updates) and
//! CyclopsMT on hierarchical locality.

use cyclops_bsp::{run_bsp, BspConfig, BspContext, BspProgram, BspResult};
use cyclops_engine::{CyclopsConfig, CyclopsContext, CyclopsProgram, CyclopsResult};
use cyclops_gas::{run_gas, GasConfig, GasProgram, GasResult};
use cyclops_graph::{Graph, VertexId};
use cyclops_net::ClusterSpec;
use cyclops_partition::{EdgeCutPartition, VertexCutPartition};

/// BSP SSSP: classic Pregel push-mode Bellman–Ford. Vertices sleep and are
/// woken by messages carrying candidate distances.
pub struct BspSssp {
    /// The source vertex.
    pub source: VertexId,
}

impl BspProgram for BspSssp {
    type Value = f64;
    type Message = f64;

    fn init(&self, v: VertexId, _g: &Graph) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn compute(&self, ctx: &mut BspContext<'_, f64, f64>, msgs: &[f64]) {
        let mut best = *ctx.value();
        for &m in msgs {
            best = best.min(m);
        }
        let improved = best < *ctx.value();
        if improved {
            ctx.set_value(best);
        }
        if (ctx.superstep() == 0 && ctx.vertex() == self.source) || improved {
            let d = *ctx.value();
            ctx.send_along_edges(|_t, w| d + w);
        }
        ctx.vote_to_halt();
    }

    fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
        Some(a.min(*b))
    }

    fn priority(&self, msg: &f64) -> Option<f64> {
        // The message is the candidate distance at the receiver — with
        // non-negative weights, a lower bound on anything reachable through
        // it, which is exactly the delta-stepping bucket priority.
        Some(*msg)
    }
}

/// Cyclops SSSP: the source publishes distance 0 and activates its
/// neighbors; an activated vertex pulls `min(in-neighbor distance + edge
/// weight)` through the immutable view and propagates only on improvement.
pub struct CyclopsSssp {
    /// The source vertex.
    pub source: VertexId,
}

impl CyclopsProgram for CyclopsSssp {
    type Value = f64;
    type Message = f64;

    fn init(&self, v: VertexId, _g: &Graph) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn init_message(&self, v: VertexId, _g: &Graph, value: &f64) -> Option<f64> {
        // Only the source has something worth publishing initially.
        (v == self.source).then_some(*value)
    }

    fn initially_active(&self, v: VertexId, _g: &Graph) -> bool {
        v == self.source
    }

    fn compute(&self, ctx: &mut CyclopsContext<'_, f64, f64>) {
        if ctx.superstep() == 0 && ctx.vertex() == self.source {
            // Kick-off: wake the neighbors so they pull our distance.
            ctx.activate_neighbors(0.0);
            return;
        }
        let mut best = *ctx.value();
        for (m, w) in ctx.in_messages() {
            best = best.min(m + w);
        }
        if best < *ctx.value() {
            ctx.set_value(best);
            ctx.activate_neighbors(best);
        }
    }

    fn priority(&self, msg: &f64) -> Option<f64> {
        // The publication is the activator's tentative distance — a lower
        // bound on the activated vertex's distance through it (weights are
        // non-negative), which is the delta-stepping bucket priority.
        Some(*msg)
    }
}

/// GAS SSSP for the PowerGraph baseline.
pub struct GasSssp {
    /// The source vertex.
    pub source: VertexId,
}

impl GasProgram for GasSssp {
    type Value = f64;
    type Gather = f64;

    fn init(&self, v: VertexId, _g: &Graph) -> f64 {
        if v == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn initially_active(&self, v: VertexId, _g: &Graph) -> bool {
        v == self.source
    }

    fn gather(&self, _g: &Graph, _src: VertexId, sv: &f64, w: f64, _dst: VertexId) -> f64 {
        sv + w
    }

    fn sum(&self, a: f64, b: f64) -> f64 {
        a.min(b)
    }

    fn apply(&self, _g: &Graph, _v: VertexId, old: &f64, acc: Option<f64>) -> f64 {
        acc.map(|a| a.min(*old)).unwrap_or(*old)
    }

    fn scatter_activates(
        &self,
        _g: &Graph,
        src: VertexId,
        old: &f64,
        new: &f64,
        _w: f64,
        _dst: VertexId,
    ) -> bool {
        // Propagate on improvement; the source's first (no-op) apply must
        // still wake its neighbors.
        new < old || (src == self.source && new.is_finite() && old.is_finite() && new == old)
    }
}

/// Runs BSP (Hama) SSSP from `source`.
pub fn run_bsp_sssp(
    graph: &Graph,
    partition: &EdgeCutPartition,
    cluster: &ClusterSpec,
    source: VertexId,
    max_supersteps: usize,
) -> BspResult<f64, f64> {
    run_bsp(
        &BspSssp { source },
        graph,
        partition,
        &BspConfig {
            cluster: *cluster,
            max_supersteps,
            use_combiner: true,
            ..Default::default()
        },
    )
}

/// Runs Cyclops SSSP from `source`.
pub fn run_cyclops_sssp(
    graph: &Graph,
    partition: &EdgeCutPartition,
    cluster: &ClusterSpec,
    source: VertexId,
    max_supersteps: usize,
) -> CyclopsResult<f64, f64> {
    run_cyclops_sssp_sched(
        graph,
        partition,
        cluster,
        source,
        max_supersteps,
        cyclops_engine::Sched::default(),
        None,
    )
}

/// [`run_cyclops_sssp`] with an explicit compute scheduler and an optional
/// superstep-trace sink.
pub fn run_cyclops_sssp_sched(
    graph: &Graph,
    partition: &EdgeCutPartition,
    cluster: &ClusterSpec,
    source: VertexId,
    max_supersteps: usize,
    sched: cyclops_engine::Sched,
    trace: Option<&cyclops_net::trace::TraceSink>,
) -> CyclopsResult<f64, f64> {
    cyclops_engine::run_cyclops_traced(
        &CyclopsSssp { source },
        graph,
        partition,
        &CyclopsConfig {
            cluster: *cluster,
            max_supersteps,
            sched,
            ..Default::default()
        },
        trace,
    )
}

/// Picks a bucket width for delta-stepping SSSP on `graph`: ~8x the mean
/// edge weight. Wider buckets admit more vertices per superstep (fewer
/// barriers — the win on high-diameter road networks) at the cost of some
/// extra idempotent re-relaxation inside a bucket; 8x the mean keeps a
/// road-network bucket a few hops deep. Unweighted graphs (weight 1.0
/// everywhere) get width 8.0; an edgeless graph falls back to 1.0.
pub fn auto_bucket_width(graph: &Graph) -> f64 {
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for (_, _, w) in graph.edges() {
        sum += w;
        n += 1;
    }
    if n == 0 || !(sum / n as f64).is_finite() || sum <= 0.0 {
        1.0
    } else {
        8.0 * (sum / n as f64)
    }
}

/// Runs Cyclops SSSP with the bucketed (delta-stepping) scheduler: each
/// superstep drains one priority bucket of width `bucket_width` behind a
/// single barrier pair, instead of one relaxation hop per barrier. Pass
/// `bucket_width <= 0.0` to auto-tune via [`auto_bucket_width`]. Distances
/// are bitwise identical to the unbucketed run.
#[allow(clippy::too_many_arguments)]
pub fn run_cyclops_sssp_bucketed(
    graph: &Graph,
    partition: &EdgeCutPartition,
    cluster: &ClusterSpec,
    source: VertexId,
    max_supersteps: usize,
    bucket_width: f64,
    bucket_mode: cyclops_net::BucketMode,
    trace: Option<&cyclops_net::trace::TraceSink>,
) -> CyclopsResult<f64, f64> {
    let width = if bucket_width > 0.0 {
        bucket_width
    } else {
        auto_bucket_width(graph)
    };
    cyclops_engine::run_cyclops_traced(
        &CyclopsSssp { source },
        graph,
        partition,
        &CyclopsConfig {
            cluster: *cluster,
            max_supersteps,
            bucket_width: width,
            bucket_mode,
            // `auto` no longer trusts the static 8x-mean seed: the engine
            // retunes the width at bucket advances from live occupancy.
            bucket_adapt: bucket_width <= 0.0,
            ..Default::default()
        },
        trace,
    )
}

/// Runs BSP SSSP with the bucketed (delta-stepping) scheduler — the BSP
/// counterpart of [`run_cyclops_sssp_bucketed`], mostly useful for
/// cross-engine equivalence checks (the Figure 9 Hama baseline stays
/// unbucketed). Pass `bucket_width <= 0.0` to auto-tune.
pub fn run_bsp_sssp_bucketed(
    graph: &Graph,
    partition: &EdgeCutPartition,
    cluster: &ClusterSpec,
    source: VertexId,
    max_supersteps: usize,
    bucket_width: f64,
    bucket_mode: cyclops_net::BucketMode,
) -> BspResult<f64, f64> {
    let width = if bucket_width > 0.0 {
        bucket_width
    } else {
        auto_bucket_width(graph)
    };
    run_bsp(
        &BspSssp { source },
        graph,
        partition,
        &BspConfig {
            cluster: *cluster,
            max_supersteps,
            use_combiner: true,
            bucket_width: width,
            bucket_mode,
            ..Default::default()
        },
    )
}

/// Runs GAS (PowerGraph) SSSP from `source`.
pub fn run_gas_sssp(
    graph: &Graph,
    partition: &VertexCutPartition,
    cluster: &ClusterSpec,
    source: VertexId,
    max_supersteps: usize,
) -> GasResult<f64> {
    run_gas(
        &GasSssp { source },
        graph,
        partition,
        &GasConfig {
            cluster: *cluster,
            max_supersteps,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_graph::gen::road_lattice;
    use cyclops_graph::reference;
    use cyclops_partition::{
        EdgeCutPartitioner, HashPartitioner, RandomVertexCut, VertexCutPartitioner,
    };

    fn assert_distances_match(actual: &[f64], expected: &[f64]) {
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            if e.is_infinite() {
                assert!(a.is_infinite(), "vertex {i}: {a} vs inf");
            } else {
                assert!((a - e).abs() < 1e-9, "vertex {i}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn bsp_matches_dijkstra_on_road() {
        let g = road_lattice(12, 12, 0.9, 0.1, 3);
        let p = HashPartitioner.partition(&g, 4);
        let r = run_bsp_sssp(&g, &p, &ClusterSpec::flat(2, 2), 0, 10_000);
        assert_distances_match(&r.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn cyclops_matches_dijkstra_on_road() {
        let g = road_lattice(12, 12, 0.9, 0.1, 3);
        let p = HashPartitioner.partition(&g, 4);
        let r = run_cyclops_sssp(&g, &p, &ClusterSpec::flat(2, 2), 0, 10_000);
        assert_distances_match(&r.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn gas_matches_dijkstra_on_road() {
        let g = road_lattice(10, 10, 0.9, 0.1, 5);
        let p = RandomVertexCut::default().partition(&g, 4);
        let r = run_gas_sssp(&g, &p, &ClusterSpec::flat(2, 2), 0, 10_000);
        assert_distances_match(&r.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn cyclops_mt_matches_dijkstra() {
        let g = road_lattice(12, 12, 1.0, 0.0, 7);
        let p = HashPartitioner.partition(&g, 3);
        let r = run_cyclops_sssp(&g, &p, &ClusterSpec::mt(3, 4, 2), 0, 10_000);
        assert_distances_match(&r.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let mut b = cyclops_graph::GraphBuilder::new(4);
        b.add_weighted_edge(0, 1, 1.0);
        b.add_weighted_edge(2, 3, 1.0);
        let g = b.build();
        let p = HashPartitioner.partition(&g, 2);
        let r = run_cyclops_sssp(&g, &p, &ClusterSpec::flat(2, 1), 0, 100);
        assert!(r.values[2].is_infinite());
        assert!(r.values[3].is_infinite());
        assert_eq!(r.values[1], 1.0);
    }

    #[test]
    fn bucketed_cyclops_matches_unbucketed_with_fewer_supersteps() {
        let g = road_lattice(12, 12, 0.9, 0.1, 3);
        let p = HashPartitioner.partition(&g, 4);
        let cluster = ClusterSpec::flat(2, 2);
        let flat = run_cyclops_sssp(&g, &p, &cluster, 0, 10_000);
        for mode in [cyclops_net::BucketMode::Det, cyclops_net::BucketMode::Fast] {
            let bucketed = run_cyclops_sssp_bucketed(&g, &p, &cluster, 0, 10_000, 0.0, mode, None);
            assert_eq!(flat.values, bucketed.values, "mode {mode:?}");
            assert!(
                bucketed.supersteps < flat.supersteps,
                "mode {mode:?}: {} vs {}",
                bucketed.supersteps,
                flat.supersteps
            );
            assert_distances_match(&bucketed.values, &reference::sssp(&g, 0));
        }
    }

    #[test]
    fn bucketed_bsp_matches_unbucketed_with_fewer_supersteps() {
        let g = road_lattice(12, 12, 0.9, 0.1, 3);
        let p = HashPartitioner.partition(&g, 4);
        let cluster = ClusterSpec::flat(2, 2);
        let flat = run_bsp_sssp(&g, &p, &cluster, 0, 10_000);
        let bucketed = run_bsp_sssp_bucketed(&g, &p, &cluster, 0, 10_000, 0.0, Default::default());
        assert_eq!(flat.values, bucketed.values);
        assert!(
            bucketed.supersteps < flat.supersteps,
            "{} vs {}",
            bucketed.supersteps,
            flat.supersteps
        );
        assert_distances_match(&bucketed.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn bucketed_cyclops_mt_matches_dijkstra() {
        let g = road_lattice(12, 12, 1.0, 0.0, 7);
        let p = HashPartitioner.partition(&g, 3);
        let r = run_cyclops_sssp_bucketed(
            &g,
            &p,
            &ClusterSpec::mt(3, 4, 2),
            0,
            10_000,
            0.0,
            cyclops_net::BucketMode::Det,
            None,
        );
        assert_distances_match(&r.values, &reference::sssp(&g, 0));
    }

    #[test]
    fn auto_bucket_width_tracks_mean_weight() {
        let g = road_lattice(12, 12, 0.9, 0.1, 3);
        let mut sum = 0.0;
        let mut n = 0u64;
        for (_, _, w) in g.edges() {
            sum += w;
            n += 1;
        }
        let mean = sum / n as f64;
        assert!((auto_bucket_width(&g) - 8.0 * mean).abs() < 1e-12);
        // Edgeless graph: sane fallback, not NaN.
        let empty = cyclops_graph::GraphBuilder::new(3).build();
        assert_eq!(auto_bucket_width(&empty), 1.0);
    }

    #[test]
    fn push_mode_activity_is_sparse() {
        let g = road_lattice(20, 20, 1.0, 0.0, 9);
        let p = HashPartitioner.partition(&g, 4);
        let r = run_cyclops_sssp(&g, &p, &ClusterSpec::flat(2, 2), 0, 10_000);
        // The frontier is a wavefront: far fewer than all vertices active.
        assert_eq!(r.stats[0].active_vertices, 1);
        let max_active = r.stats.iter().map(|s| s.active_vertices).max().unwrap();
        assert!(max_active < g.num_vertices() / 2, "max active {max_active}");
    }
}
