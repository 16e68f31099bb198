//! Edge-cut partitions: every vertex lives on exactly one worker; edges that
//! span workers force Cyclops to create read-only replicas.

use cyclops_graph::{Graph, VertexId};

/// An assignment of every vertex to one of `num_parts` workers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeCutPartition {
    /// Number of parts (workers).
    pub num_parts: usize,
    /// `assignment[v]` is the part owning vertex `v`.
    pub assignment: Vec<u32>,
}

impl EdgeCutPartition {
    /// Builds a partition from an explicit assignment vector; panics if any
    /// entry is out of range.
    pub fn new(num_parts: usize, assignment: Vec<u32>) -> Self {
        assert!(num_parts > 0);
        assert!(
            assignment.iter().all(|&p| (p as usize) < num_parts),
            "part id out of range"
        );
        EdgeCutPartition {
            num_parts,
            assignment,
        }
    }

    /// Part owning vertex `v`.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }

    /// Number of vertices assigned to each part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Number of directed edges whose endpoints live on different parts.
    pub fn edge_cut(&self, g: &Graph) -> usize {
        g.edges()
            .filter(|&(s, t, _)| self.part_of(s) != self.part_of(t))
            .count()
    }

    /// The paper's replication factor (Figure 11): average number of remote
    /// replicas per vertex. A vertex `u` is replicated on every *other* part
    /// that owns at least one of `u`'s out-neighbors — that part needs `u`'s
    /// value for pull-mode reads and `u`'s activation fan-out.
    pub fn replication_factor(&self, g: &Graph) -> f64 {
        if g.num_vertices() == 0 {
            return 0.0;
        }
        self.total_replicas(g) as f64 / g.num_vertices() as f64
    }

    /// Total number of replicas across all parts (see
    /// [`Self::replication_factor`]).
    pub fn total_replicas(&self, g: &Graph) -> usize {
        let mut total = 0usize;
        let mut seen = vec![u32::MAX; self.num_parts];
        for u in g.vertices() {
            let home = self.part_of(u);
            for &v in g.out_neighbors(u) {
                let p = self.part_of(v) as usize;
                if p as u32 != home && seen[p] != u {
                    seen[p] = u;
                    total += 1;
                }
            }
        }
        total
    }

    /// Vertex balance: largest part size divided by the ideal (average) size.
    /// 1.0 is perfect; Metis-style partitioners aim for ≤ 1 + imbalance.
    pub fn balance(&self) -> f64 {
        let sizes = self.part_sizes();
        let max = *sizes.iter().max().unwrap_or(&0);
        let avg = self.assignment.len() as f64 / self.num_parts as f64;
        if avg == 0.0 {
            1.0
        } else {
            max as f64 / avg
        }
    }
}

/// A strategy producing an [`EdgeCutPartition`].
pub trait EdgeCutPartitioner {
    /// Splits `g` into `k` parts.
    fn partition(&self, g: &Graph, k: usize) -> EdgeCutPartition;
    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// The default hash partitioner used by Hama and Pregel: `part(v) = v mod k`.
/// Fast and balanced but oblivious to structure, so it cuts most edges.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitioner;

impl EdgeCutPartitioner for HashPartitioner {
    fn partition(&self, g: &Graph, k: usize) -> EdgeCutPartition {
        assert!(k > 0);
        let assignment = g.vertices().map(|v| v % k as u32).collect();
        EdgeCutPartition::new(k, assignment)
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_graph::GraphBuilder;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as VertexId, (i + 1) as VertexId);
        }
        b.build()
    }

    #[test]
    fn hash_is_balanced() {
        let g = path(100);
        let p = HashPartitioner.partition(&g, 4);
        assert_eq!(p.part_sizes(), vec![25; 4]);
        assert!((p.balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hash_cuts_every_path_edge_with_k_equals_n() {
        let g = path(10);
        let p = HashPartitioner.partition(&g, 10);
        assert_eq!(p.edge_cut(&g), 9);
    }

    #[test]
    fn single_part_has_no_cut_or_replicas() {
        let g = path(50);
        let p = HashPartitioner.partition(&g, 1);
        assert_eq!(p.edge_cut(&g), 0);
        assert_eq!(p.replication_factor(&g), 0.0);
    }

    #[test]
    fn replication_counts_distinct_remote_parts_once() {
        // Vertex 0 has two out-neighbors on part 1: only one replica needed.
        let g = {
            let mut b = GraphBuilder::new(3);
            b.add_edge(0, 1);
            b.add_edge(0, 2);
            b.build()
        };
        let p = EdgeCutPartition::new(2, vec![0, 1, 1]);
        assert_eq!(p.total_replicas(&g), 1);
    }

    #[test]
    fn replication_factor_on_path_hash() {
        // Path with alternating parts: every vertex with an out-edge is
        // replicated exactly once.
        let g = path(10);
        let p = HashPartitioner.partition(&g, 2);
        assert_eq!(p.total_replicas(&g), 9);
        assert!((p.replication_factor(&g) - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "part id out of range")]
    fn new_rejects_bad_assignment() {
        EdgeCutPartition::new(2, vec![0, 2]);
    }
}
