//! The benchmark's workloads: one graph job each, fixed except for the
//! input seed. README.md records why each was chosen and which layer
//! metrics each is meant to move.

use cyclops::graph::Dataset;
use cyclops::net::ClusterSpec;

/// PageRank's per-vertex convergence threshold: the CLI default. At the
/// quick-mode 1e-4 PageRank on the Wiki stand-in stops after 3 supersteps,
/// 0.22 (L1) away from the converged ranks.
pub const PR_EPSILON: f64 = 1e-9;

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["pagerank-wiki", "sssp-roadca", "pagerank-wiki-metis"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Pull PageRank with local-error activation at [`PR_EPSILON`].
    PageRank,
    /// Bucketed SSSP, auto Δ, deterministic drain order.
    Sssp,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioner {
    Hash,
    Multilevel,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub scale: f64,
    pub algo: Algo,
    pub partitioner: Partitioner,
    pub cluster: ClusterSpec,
}

impl Workload {
    pub fn find(name: &str) -> Option<Workload> {
        let (dataset, scale, algo, partitioner, cluster) = match name {
            // 48 single-thread workers on 6 machines: the paper's flat shape.
            "pagerank-wiki" => (
                Dataset::Wiki,
                4.0,
                Algo::PageRank,
                Partitioner::Hash,
                ClusterSpec::flat(6, 8),
            ),
            // CyclopsMT: 6 machines × 1 worker × 8 threads, 2 receivers.
            "sssp-roadca" => (
                Dataset::RoadCa,
                16.0,
                Algo::Sssp,
                Partitioner::Hash,
                ClusterSpec::mt(6, 8, 2),
            ),
            // Two single-thread workers: no oversubscription on a 2-core
            // host. An R-MAT graph, because a 2-way cut of the road lattice
            // is so small that its traffic varies by ~30 % from seed to seed.
            "pagerank-wiki-metis" => (
                Dataset::Wiki,
                2.0,
                Algo::PageRank,
                Partitioner::Multilevel,
                ClusterSpec::flat(2, 1),
            ),
            _ => return None,
        };
        let name = NAMES.into_iter().find(|n| *n == name)?;
        Some(Workload {
            name,
            dataset,
            scale,
            algo,
            partitioner,
            cluster,
        })
    }
}
