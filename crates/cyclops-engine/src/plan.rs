//! Graph ingress: building the distributed immutable view (§4.3).
//!
//! Beyond Hama's ingress, Cyclops adds its own phase that creates replicas
//! and wires up in-edges and local out-edges: every vertex conceptually
//! sends a message along its out-edges, and the receiving worker creates a
//! replica for the sender if one doesn't exist (§4.3). [`CyclopsPlan::build`]
//! performs the same construction and times its three phases — graph
//! loading (LD), vertex replication (REP), and vertex initialization (INIT)
//! — which Figure 13(1) reports.

use cyclops_graph::{Graph, VertexId};
use cyclops_obs::mem::{self, Component, MemScope};
use cyclops_partition::EdgeCutPartition;
use std::time::{Duration, Instant};

/// A resolved in-edge reference: where a vertex finds one in-neighbor's
/// publication inside the worker-local immutable view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InRef {
    /// The in-neighbor is a master on the same worker (local index).
    Master(u32),
    /// The in-neighbor is a read-only replica on this worker (replica index).
    Replica(u32),
}

/// One worker's slice of the distributed immutable view.
#[derive(Clone, Debug, Default)]
pub struct WorkerPlan {
    /// Global ids of the masters this worker owns, ascending.
    pub masters: Vec<VertexId>,
    /// Global ids of the replicas this worker holds, ascending. Replica `i`
    /// of this worker is the read-only copy of vertex `replicas[i]`.
    pub replicas: Vec<VertexId>,

    /// CSR offsets into `in_refs` / `in_weights`, one entry per master + 1.
    pub in_ref_offsets: Vec<u32>,
    /// Resolved in-edge references per master.
    pub in_refs: Vec<InRef>,
    /// In-edge weights aligned with `in_refs`; empty for unweighted graphs.
    pub in_weights: Vec<f64>,

    /// CSR offsets into `local_out`, one per master + 1: the out-neighbors
    /// of each master that live on this worker (activated directly).
    pub local_out_offsets: Vec<u32>,
    /// Local master indices of same-worker out-neighbors.
    pub local_out: Vec<u32>,

    /// CSR offsets into `mirrors`, one per master + 1.
    pub mirror_offsets: Vec<u32>,
    /// `(worker, replica index on that worker)` for each remote replica of
    /// each master — the unidirectional sync fan-out (§3.4).
    pub mirrors: Vec<(u32, u32)>,

    /// CSR offsets into `rep_out`, one per replica + 1: the local
    /// out-neighbors each replica activates on this worker (the paper's
    /// "L-Out" edges of a replica, Figure 6).
    pub rep_out_offsets: Vec<u32>,
    /// Local master indices activated by each replica.
    pub rep_out: Vec<u32>,

    /// Per-master compute cost estimate for degree-weighted scheduling:
    /// in-degree + local activation fan-out + mirror count + 1 (the
    /// publication itself). Derived from the CSRs above once at plan build.
    pub work_mass: Vec<u32>,
    /// Prefix sums over `work_mass` (`num_masters + 1` entries) so a
    /// frontier's total mass and equal-mass chunk boundaries come from
    /// O(1) subtractions / binary searches.
    pub work_mass_prefix: Vec<u64>,
}

impl WorkerPlan {
    /// Number of masters on this worker.
    pub fn num_masters(&self) -> usize {
        self.masters.len()
    }

    /// Number of replicas on this worker.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Range of `in_refs` indices belonging to master `local`.
    #[inline]
    pub fn in_ref_range(&self, local: usize) -> (usize, usize) {
        (
            self.in_ref_offsets[local] as usize,
            self.in_ref_offsets[local + 1] as usize,
        )
    }

    /// In-edge weights of master `local` (empty slice when unweighted).
    #[inline]
    pub fn in_weights(&self, local: usize) -> &[f64] {
        if self.in_weights.is_empty() {
            &[]
        } else {
            let (s, e) = self.in_ref_range(local);
            &self.in_weights[s..e]
        }
    }

    /// Same-worker out-neighbors (local master indices) of master `local`.
    #[inline]
    pub fn local_out(&self, local: usize) -> &[u32] {
        &self.local_out
            [self.local_out_offsets[local] as usize..self.local_out_offsets[local + 1] as usize]
    }

    /// Remote replicas of master `local` as `(worker, replica index)`.
    #[inline]
    pub fn mirrors(&self, local: usize) -> &[(u32, u32)] {
        &self.mirrors[self.mirror_offsets[local] as usize..self.mirror_offsets[local + 1] as usize]
    }

    /// Local out-neighbors activated by replica `rep`.
    #[inline]
    pub fn rep_out(&self, rep: usize) -> &[u32] {
        &self.rep_out[self.rep_out_offsets[rep] as usize..self.rep_out_offsets[rep + 1] as usize]
    }

    /// Total work mass across all masters on this worker.
    #[inline]
    pub fn total_work_mass(&self) -> u64 {
        self.work_mass_prefix.last().copied().unwrap_or(0)
    }

    /// Fills `work_mass` / `work_mass_prefix` from the already-built CSRs.
    /// Shared by both builders so the serial and parallel plans stay
    /// field-identical by construction.
    fn compute_work_mass(&mut self) {
        let n = self.num_masters();
        let mut mass = Vec::with_capacity(n);
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0u64);
        for li in 0..n {
            let (s, e) = self.in_ref_range(li);
            let m = (e - s) + self.local_out(li).len() + self.mirrors(li).len() + 1;
            mass.push(m as u32);
            prefix.push(prefix[li] + m as u64);
        }
        self.work_mass = mass;
        self.work_mass_prefix = prefix;
    }

    /// Exact heap bytes of this worker's slice of the immutable view, from
    /// vector capacities (see [`MemoryBreakdown`]).
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        MemoryBreakdown {
            plan: vec_bytes(&self.masters)
                + vec_bytes(&self.in_ref_offsets)
                + vec_bytes(&self.in_refs)
                + vec_bytes(&self.in_weights)
                + vec_bytes(&self.local_out_offsets)
                + vec_bytes(&self.local_out)
                + vec_bytes(&self.work_mass)
                + vec_bytes(&self.work_mass_prefix),
            replicas: vec_bytes(&self.replicas)
                + vec_bytes(&self.mirror_offsets)
                + vec_bytes(&self.mirrors)
                + vec_bytes(&self.rep_out_offsets)
                + vec_bytes(&self.rep_out),
        }
    }

    /// Re-materializes every vector with exact capacity under its memory
    /// component's scope (no-op logic-wise; see
    /// [`CyclopsPlan::attribute_memory`]).
    fn attribute_memory(&mut self) {
        fn retag<T>(v: &mut Vec<T>, c: Component) {
            let _scope = MemScope::enter(c);
            let old = std::mem::take(v);
            let mut fresh = Vec::with_capacity(old.len());
            fresh.extend(old);
            *v = fresh;
        }
        retag(&mut self.masters, Component::Plan);
        retag(&mut self.in_ref_offsets, Component::Plan);
        retag(&mut self.in_refs, Component::Plan);
        retag(&mut self.in_weights, Component::Plan);
        retag(&mut self.local_out_offsets, Component::Plan);
        retag(&mut self.local_out, Component::Plan);
        retag(&mut self.work_mass, Component::Plan);
        retag(&mut self.work_mass_prefix, Component::Plan);
        retag(&mut self.replicas, Component::Replicas);
        retag(&mut self.mirror_offsets, Component::Replicas);
        retag(&mut self.mirrors, Component::Replicas);
        retag(&mut self.rep_out_offsets, Component::Replicas);
        retag(&mut self.rep_out, Component::Replicas);
    }
}

/// Timing and size statistics of the ingress, for Figure 13(1) and Table 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngressStats {
    /// Graph loading: distributing vertices to workers (LD).
    pub load: Duration,
    /// Vertex replication: creating replicas and wiring edges (REP).
    pub replicate: Duration,
    /// Vertex initialization (INIT) — timed by the engine, which owns the
    /// value arrays; the plan leaves it zero.
    pub init: Duration,
    /// Total replicas created across all workers.
    pub total_replicas: usize,
}

impl IngressStats {
    /// LD + REP + INIT.
    pub fn total(&self) -> Duration {
        self.load + self.replicate + self.init
    }
}

/// Exact byte counts of a plan's heap storage, split by memory
/// [`Component`] — the static half of the memory ledger. Computed from
/// vector capacities, so after [`CyclopsPlan::attribute_memory`] (armed
/// runs) it equals the tracking allocator's `Plan`/`Replicas` live bytes
/// *exactly*; tests pin that equality.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Master lists, in-edge CSRs, local activation fan-out, work-mass
    /// tables, and the plan-level lookup tables.
    pub plan: usize,
    /// Replica id lists, mirror fan-out, and replica activation CSRs — the
    /// storage that exists because boundary vertices are replicated.
    pub replicas: usize,
}

impl MemoryBreakdown {
    /// All components summed.
    pub fn total(&self) -> usize {
        self.plan + self.replicas
    }

    /// Component-wise accumulation.
    pub fn merge(&mut self, other: &MemoryBreakdown) {
        self.plan += other.plan;
        self.replicas += other.replicas;
    }
}

/// Allocated bytes behind a vector: capacity, not length — what the
/// allocator actually handed out.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// The full ingress product: one [`WorkerPlan`] per worker plus global
/// lookup tables.
#[derive(Clone, Debug)]
pub struct CyclopsPlan {
    /// Per-worker views.
    pub workers: Vec<WorkerPlan>,
    /// `owner[v]` — the worker owning vertex `v`'s master.
    pub owner: Vec<u32>,
    /// `local_of[v]` — `v`'s master index on its owner.
    pub local_of: Vec<u32>,
    /// Ingress phase timings and replica counts.
    pub ingress: IngressStats,
}

/// Resolves worker `w`'s in-edge references against its replica list.
/// Returns `(offsets, refs, weights)`. Shared by both builders so serial and
/// parallel plans stay field-identical.
fn wire_in_refs(
    graph: &Graph,
    owner: &[u32],
    local_of: &[u32],
    w: usize,
    masters: &[VertexId],
    replicas: &[VertexId],
) -> (Vec<u32>, Vec<InRef>, Vec<f64>) {
    let weighted = graph.is_weighted();
    let mut offsets = Vec::with_capacity(masters.len() + 1);
    let mut refs = Vec::new();
    let mut weights = Vec::new();
    offsets.push(0u32);
    for &v in masters {
        let srcs = graph.in_neighbors(v);
        let ws = graph.in_weights(v);
        for (i, &u) in srcs.iter().enumerate() {
            if owner[u as usize] as usize == w {
                refs.push(InRef::Master(local_of[u as usize]));
            } else {
                let ri = replicas.binary_search(&u).expect("replica exists") as u32;
                refs.push(InRef::Replica(ri));
            }
            if weighted {
                weights.push(ws[i]);
            }
        }
        offsets.push(refs.len() as u32);
    }
    (offsets, refs, weights)
}

/// Wires worker `w`'s sender side: local activation fan-out plus the mirror
/// list of each master. Returns
/// `(local_out_offsets, local_out, mirror_offsets, mirrors)`.
#[allow(clippy::type_complexity)]
fn wire_out(
    graph: &Graph,
    owner: &[u32],
    local_of: &[u32],
    w: usize,
    masters: &[VertexId],
    replica_lists: &[Vec<VertexId>],
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<(u32, u32)>) {
    let mut lo_off = vec![0u32];
    let mut lo = Vec::new();
    let mut mir_off = vec![0u32];
    let mut mir: Vec<(u32, u32)> = Vec::new();
    let mut mirror_workers: Vec<u32> = Vec::new();
    for &u in masters {
        let lo_start = *lo_off.last().unwrap() as usize;
        mirror_workers.clear();
        for &x in graph.out_neighbors(u) {
            let p = owner[x as usize];
            if p as usize == w {
                // Deduplicate multigraph local fan-out: activation is
                // idempotent, keep the list small.
                let xi = local_of[x as usize];
                if lo[lo_start..].iter().all(|&e| e != xi) {
                    lo.push(xi);
                }
            } else if !mirror_workers.contains(&p) {
                mirror_workers.push(p);
            }
        }
        mirror_workers.sort_unstable();
        for &p in &mirror_workers {
            let ri = replica_lists[p as usize]
                .binary_search(&u)
                .expect("mirror replica exists") as u32;
            mir.push((p, ri));
        }
        lo_off.push(lo.len() as u32);
        mir_off.push(mir.len() as u32);
    }
    (lo_off, lo, mir_off, mir)
}

/// Wires worker `w`'s replica activation fan-out: the local out-neighbors
/// each replica activates (the paper's "L-Out" edges of a replica,
/// Figure 6), deduplicated per replica. Returns `(rep_out_offsets,
/// rep_out)`. Shared by both builders so serial and parallel plans stay
/// field-identical.
fn wire_rep_out(
    graph: &Graph,
    owner: &[u32],
    local_of: &[u32],
    w: usize,
    replicas: &[VertexId],
) -> (Vec<u32>, Vec<u32>) {
    let mut ro_off = vec![0u32];
    let mut ro = Vec::new();
    for &u in replicas {
        for &x in graph.out_neighbors(u) {
            if owner[x as usize] as usize == w {
                let xi = local_of[x as usize];
                if ro[ro_off.last().copied().unwrap() as usize..]
                    .iter()
                    .all(|&e| e != xi)
                {
                    ro.push(xi);
                }
            }
        }
        ro_off.push(ro.len() as u32);
    }
    (ro_off, ro)
}

impl CyclopsPlan {
    /// Builds the distributed immutable view in parallel: each simulated
    /// worker constructs its own replicas and edge tables (the paper's
    /// ingress "generates in-memory data structures by all workers in
    /// parallel", §6.7), in two barrier-separated phases — replica discovery
    /// and in-edge wiring first, then mirror/activation wiring once every
    /// worker's replica list exists. Produces exactly the same plan as
    /// [`Self::build`].
    pub fn build_parallel(graph: &Graph, partition: &EdgeCutPartition) -> CyclopsPlan {
        let k = partition.num_parts;
        let n = graph.num_vertices();
        assert_eq!(partition.assignment.len(), n);

        // ---- LD: distribute masters (serial: a cheap counting pass). ----
        let ld_start = Instant::now();
        let owner = partition.assignment.clone();
        let mut masters_of: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        let mut local_of = vec![0u32; n];
        for v in graph.vertices() {
            let list = &mut masters_of[owner[v as usize] as usize];
            local_of[v as usize] = list.len() as u32;
            list.push(v);
        }
        let load = ld_start.elapsed();

        // ---- REP phase A (parallel): replicas + immutable-view in-edges.
        let rep_start = Instant::now();
        let mut workers: Vec<WorkerPlan> = masters_of
            .into_iter()
            .map(|masters| WorkerPlan {
                masters,
                ..WorkerPlan::default()
            })
            .collect();
        let owner_ref = &owner;
        let local_of_ref = &local_of;
        std::thread::scope(|scope| {
            for (w, wp) in workers.iter_mut().enumerate() {
                scope.spawn(move || {
                    // Replica discovery: remote in-neighbors of my masters.
                    let mut reps: Vec<VertexId> = Vec::new();
                    for &v in &wp.masters {
                        for &u in graph.in_neighbors(v) {
                            if owner_ref[u as usize] as usize != w {
                                reps.push(u);
                            }
                        }
                    }
                    reps.sort_unstable();
                    reps.dedup();
                    wp.replicas = reps;
                    // In-edge references into the local immutable view.
                    let (offsets, refs, weights) =
                        wire_in_refs(graph, owner_ref, local_of_ref, w, &wp.masters, &wp.replicas);
                    wp.in_ref_offsets = offsets;
                    wp.in_refs = refs;
                    wp.in_weights = weights;
                });
            }
        });

        // ---- REP phase B (parallel): mirror and activation wiring, reading
        //      the now-complete replica lists of all workers.
        let replica_lists: Vec<Vec<VertexId>> =
            workers.iter().map(|wp| wp.replicas.clone()).collect();
        let replica_lists_ref = &replica_lists;
        std::thread::scope(|scope| {
            for (w, wp) in workers.iter_mut().enumerate() {
                scope.spawn(move || {
                    let (lo_off, lo, mir_off, mir) = wire_out(
                        graph,
                        owner_ref,
                        local_of_ref,
                        w,
                        &wp.masters,
                        replica_lists_ref,
                    );
                    wp.local_out_offsets = lo_off;
                    wp.local_out = lo;
                    wp.mirror_offsets = mir_off;
                    wp.mirrors = mir;

                    let (ro_off, ro) =
                        wire_rep_out(graph, owner_ref, local_of_ref, w, &wp.replicas);
                    wp.rep_out_offsets = ro_off;
                    wp.rep_out = ro;
                    wp.compute_work_mass();
                });
            }
        });
        let replicate = rep_start.elapsed();

        let total_replicas = workers.iter().map(|w| w.replicas.len()).sum();
        let mut plan = CyclopsPlan {
            workers,
            owner,
            local_of,
            ingress: IngressStats {
                load,
                replicate,
                init: Duration::ZERO,
                total_replicas,
            },
        };
        plan.attribute_memory();
        plan
    }

    /// Builds the distributed immutable view for `graph` cut by `partition`
    /// (single-threaded reference construction; see [`Self::build_parallel`]).
    pub fn build(graph: &Graph, partition: &EdgeCutPartition) -> CyclopsPlan {
        let k = partition.num_parts;
        let n = graph.num_vertices();
        assert_eq!(partition.assignment.len(), n);

        // ---- LD: distribute masters. ----
        let ld_start = Instant::now();
        let mut workers: Vec<WorkerPlan> = (0..k).map(|_| WorkerPlan::default()).collect();
        let owner = partition.assignment.clone();
        let mut local_of = vec![0u32; n];
        for v in graph.vertices() {
            let w = &mut workers[owner[v as usize] as usize];
            local_of[v as usize] = w.masters.len() as u32;
            w.masters.push(v);
        }
        let load = ld_start.elapsed();

        // ---- REP: create replicas and wire edges. ----
        let rep_start = Instant::now();
        // Replica discovery: u is replicated on every remote worker owning
        // one of its out-neighbors.
        let mut replica_sets: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for u in graph.vertices() {
            let home = owner[u as usize];
            for &x in graph.out_neighbors(u) {
                let p = owner[x as usize];
                if p != home {
                    replica_sets[p as usize].push(u);
                }
            }
        }
        for (w, set) in replica_sets.into_iter().enumerate() {
            let mut set = set;
            set.sort_unstable();
            set.dedup();
            workers[w].replicas = set;
        }
        let replica_lists: Vec<Vec<VertexId>> =
            workers.iter().map(|wp| wp.replicas.clone()).collect();

        // In-edge references (the immutable view of each master).
        for w in 0..k {
            let (offsets, refs, weights) = wire_in_refs(
                graph,
                &owner,
                &local_of,
                w,
                &workers[w].masters,
                &replica_lists[w],
            );
            workers[w].in_ref_offsets = offsets;
            workers[w].in_refs = refs;
            workers[w].in_weights = weights;
        }

        // Local activation fan-out and mirror lists per master; replica
        // activation fan-out per replica.
        for (w, worker) in workers.iter_mut().enumerate() {
            let (lo_off, lo, mir_off, mir) =
                wire_out(graph, &owner, &local_of, w, &worker.masters, &replica_lists);
            worker.local_out_offsets = lo_off;
            worker.local_out = lo;
            worker.mirror_offsets = mir_off;
            worker.mirrors = mir;
        }
        for (w, worker) in workers.iter_mut().enumerate() {
            let (ro_off, ro) = wire_rep_out(graph, &owner, &local_of, w, &worker.replicas);
            worker.rep_out_offsets = ro_off;
            worker.rep_out = ro;
        }
        for worker in workers.iter_mut() {
            worker.compute_work_mass();
        }
        let replicate = rep_start.elapsed();

        let total_replicas = workers.iter().map(|w| w.replicas.len()).sum();
        let mut plan = CyclopsPlan {
            workers,
            owner,
            local_of,
            ingress: IngressStats {
                load,
                replicate,
                init: Duration::ZERO,
                total_replicas,
            },
        };
        plan.attribute_memory();
        plan
    }

    /// Average number of replicas per vertex — must equal
    /// [`EdgeCutPartition::replication_factor`].
    pub fn replication_factor(&self, graph: &Graph) -> f64 {
        if graph.num_vertices() == 0 {
            return 0.0;
        }
        self.ingress.total_replicas as f64 / graph.num_vertices() as f64
    }

    /// Bytes of replica publication storage, given the per-publication size
    /// — the memory overhead Table 2 examines.
    pub fn replica_bytes(&self, per_message: usize) -> usize {
        self.ingress.total_replicas * per_message
    }

    /// Exact static audit of the plan's heap bytes, split by memory
    /// component and computed purely from vector capacities — the ledger
    /// `tests/mem_observability.rs` cross-checks against the tracking
    /// allocator's live counters.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let mut b = MemoryBreakdown {
            plan: vec_bytes(&self.owner)
                + vec_bytes(&self.local_of)
                + self.workers.capacity() * std::mem::size_of::<WorkerPlan>(),
            replicas: 0,
        };
        for w in &self.workers {
            b.merge(&w.memory_breakdown());
        }
        b
    }

    /// Re-materializes every plan vector with exact capacity under its
    /// component's [`MemScope`], so the tracking allocator's `Plan` and
    /// `Replicas` live counters match
    /// [`Self::memory_breakdown`] exactly. No-op unless the allocator is
    /// armed — the plan's contents and capacities are unchanged either way.
    pub fn attribute_memory(&mut self) {
        if !mem::armed() {
            return;
        }
        {
            // The outer Vec<WorkerPlan> buffer itself (inner vectors move,
            // their buffers keep their tags until retagged below).
            let _scope = MemScope::enter(Component::Plan);
            let old = std::mem::take(&mut self.workers);
            let mut fresh = Vec::with_capacity(old.len());
            fresh.extend(old);
            self.workers = fresh;

            let old = std::mem::take(&mut self.owner);
            let mut fresh = Vec::with_capacity(old.len());
            fresh.extend(old);
            self.owner = fresh;

            let old = std::mem::take(&mut self.local_of);
            let mut fresh = Vec::with_capacity(old.len());
            fresh.extend(old);
            self.local_of = fresh;
        }
        for w in self.workers.iter_mut() {
            w.attribute_memory();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_graph::GraphBuilder;
    use cyclops_partition::{EdgeCutPartitioner, HashPartitioner};

    /// The paper's Figure 6 sample graph: six vertices on three workers.
    /// Edges (1-indexed in the figure; 0-indexed here).
    fn figure6() -> (Graph, EdgeCutPartition) {
        let mut b = GraphBuilder::new(6);
        // From the figure: 1->2, 2->1, 1->4(? via cut), 3->2, 3->4, 4->3,
        // 1->3, 6->3, 5->6, 6->5, 4->5, 5->2. We reproduce the cut
        // structure, not the exact figure edges: workers {0,1}, {2,3}, {4,5}.
        for &(s, t) in &[
            (0, 1),
            (1, 0),
            (0, 2),
            (2, 1),
            (2, 3),
            (3, 2),
            (5, 2),
            (4, 5),
            (5, 4),
            (3, 4),
        ] {
            b.add_edge(s, t);
        }
        let g = b.build();
        let p = EdgeCutPartition::new(3, vec![0, 0, 1, 1, 2, 2]);
        (g, p)
    }

    #[test]
    fn masters_partitioned_by_owner() {
        let (g, p) = figure6();
        let plan = CyclopsPlan::build(&g, &p);
        assert_eq!(plan.workers[0].masters, vec![0, 1]);
        assert_eq!(plan.workers[1].masters, vec![2, 3]);
        assert_eq!(plan.workers[2].masters, vec![4, 5]);
    }

    #[test]
    fn replicas_cover_cross_worker_out_edges() {
        let (g, p) = figure6();
        let plan = CyclopsPlan::build(&g, &p);
        // Worker 1 receives edges 0->2 and 5->2: replicas {0, 5}.
        assert_eq!(plan.workers[1].replicas, vec![0, 5]);
        // Worker 0 receives 2->1: replica {2}.
        assert_eq!(plan.workers[0].replicas, vec![2]);
        // Worker 2 receives 3->4: replica {3}.
        assert_eq!(plan.workers[2].replicas, vec![3]);
        assert_eq!(plan.ingress.total_replicas, 4);
    }

    #[test]
    fn replication_factor_matches_partition_metric() {
        let (g, p) = figure6();
        let plan = CyclopsPlan::build(&g, &p);
        assert!((plan.replication_factor(&g) - p.replication_factor(&g)).abs() < 1e-12);
    }

    #[test]
    fn in_refs_resolve_master_vs_replica() {
        let (g, p) = figure6();
        let plan = CyclopsPlan::build(&g, &p);
        // Vertex 2 (worker 1, local 0) has in-edges from 0 (replica slot 0),
        // 3 (master local 1) and 5 (replica slot 1); vertex 3 (worker 1,
        // local 1) from 2 (master local 0).
        let w1 = &plan.workers[1];
        let (s, e) = w1.in_ref_range(0);
        let refs: Vec<_> = w1.in_refs[s..e].to_vec();
        assert_eq!(
            refs,
            vec![InRef::Replica(0), InRef::Master(1), InRef::Replica(1)]
        );
        let (s, e) = w1.in_ref_range(1);
        assert_eq!(w1.in_refs[s..e], vec![InRef::Master(0)]);
    }

    #[test]
    fn mirrors_point_to_correct_replica_slots() {
        let (g, p) = figure6();
        let plan = CyclopsPlan::build(&g, &p);
        // Master 0 (worker 0) has a mirror on worker 1 at replica slot 0.
        let mirrors = plan.workers[0].mirrors(0);
        assert_eq!(mirrors, &[(1, 0)]);
        // Master 5 (worker 2, local 1) mirrors on worker 1 slot 1.
        let mirrors5 = plan.workers[2].mirrors(1);
        assert_eq!(mirrors5, &[(1, 1)]);
    }

    #[test]
    fn replica_fanout_activates_local_neighbors() {
        let (g, p) = figure6();
        let plan = CyclopsPlan::build(&g, &p);
        // Replica of 0 on worker 1: out-edge 0->2 is local there; activates
        // master index of 2 (local 0).
        let w1 = &plan.workers[1];
        assert_eq!(w1.rep_out(0), &[0]);
        // Replica of 5 on worker 1: edge 5->2 activates local 0 too.
        assert_eq!(w1.rep_out(1), &[0]);
    }

    #[test]
    fn local_out_contains_same_worker_neighbors_only() {
        let (g, p) = figure6();
        let plan = CyclopsPlan::build(&g, &p);
        // Vertex 0 (worker 0): out 1 (local), 2 (remote). Local out = [1].
        assert_eq!(plan.workers[0].local_out(0), &[1]);
    }

    #[test]
    fn weighted_in_refs_align() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(0, 2, 5.0);
        b.add_weighted_edge(1, 2, 7.0);
        let g = b.build();
        let p = EdgeCutPartition::new(2, vec![0, 1, 1]);
        let plan = CyclopsPlan::build(&g, &p);
        // Vertex 2 on worker 1, local index 1 (masters [1, 2]).
        let w1 = &plan.workers[1];
        assert_eq!(w1.masters, vec![1, 2]);
        let weights = w1.in_weights(1);
        assert_eq!(weights, &[5.0, 7.0]);
        let (s, e) = w1.in_ref_range(1);
        assert_eq!(w1.in_refs[s..e], vec![InRef::Replica(0), InRef::Master(0)]);
    }

    #[test]
    fn single_worker_has_no_replicas() {
        let (g, _) = figure6();
        let p = HashPartitioner.partition(&g, 1);
        let plan = CyclopsPlan::build(&g, &p);
        assert_eq!(plan.ingress.total_replicas, 0);
        assert!(plan.workers[0].mirrors.is_empty());
    }

    #[test]
    fn parallel_build_matches_serial() {
        use cyclops_graph::gen::{erdos_renyi, rmat, RmatConfig};
        for (g, k) in [
            (figure6().0, 3usize),
            (erdos_renyi(300, 1800, 5), 4),
            (
                rmat(
                    RmatConfig {
                        scale: 9,
                        edges: 3000,
                        ..Default::default()
                    },
                    7,
                ),
                6,
            ),
        ] {
            let p = HashPartitioner.partition(&g, k);
            let serial = CyclopsPlan::build(&g, &p);
            let parallel = CyclopsPlan::build_parallel(&g, &p);
            assert_eq!(serial.owner, parallel.owner);
            assert_eq!(serial.local_of, parallel.local_of);
            assert_eq!(
                serial.ingress.total_replicas,
                parallel.ingress.total_replicas
            );
            for (a, b) in serial.workers.iter().zip(&parallel.workers) {
                assert_eq!(a.masters, b.masters);
                assert_eq!(a.replicas, b.replicas);
                assert_eq!(a.in_ref_offsets, b.in_ref_offsets);
                assert_eq!(a.in_refs, b.in_refs);
                assert_eq!(a.in_weights, b.in_weights);
                assert_eq!(a.local_out_offsets, b.local_out_offsets);
                assert_eq!(a.local_out, b.local_out);
                assert_eq!(a.mirror_offsets, b.mirror_offsets);
                assert_eq!(a.mirrors, b.mirrors);
                assert_eq!(a.rep_out_offsets, b.rep_out_offsets);
                assert_eq!(a.rep_out, b.rep_out);
                assert_eq!(a.work_mass, b.work_mass);
                assert_eq!(a.work_mass_prefix, b.work_mass_prefix);
            }
        }
    }

    #[test]
    fn work_mass_counts_in_edges_fanout_and_mirrors() {
        let (g, p) = figure6();
        let plan = CyclopsPlan::build(&g, &p);
        for wp in &plan.workers {
            assert_eq!(wp.work_mass.len(), wp.num_masters());
            assert_eq!(wp.work_mass_prefix.len(), wp.num_masters() + 1);
            for li in 0..wp.num_masters() {
                let (s, e) = wp.in_ref_range(li);
                let expect = (e - s) + wp.local_out(li).len() + wp.mirrors(li).len() + 1;
                assert_eq!(wp.work_mass[li] as usize, expect);
                assert_eq!(
                    wp.work_mass_prefix[li + 1] - wp.work_mass_prefix[li],
                    wp.work_mass[li] as u64
                );
            }
            assert_eq!(
                wp.total_work_mass(),
                wp.work_mass.iter().map(|&m| m as u64).sum::<u64>()
            );
        }
        // Vertex 0 (worker 0, local 0): in-edge from 1, local out {1},
        // mirror on worker 1, plus itself = 4.
        assert_eq!(plan.workers[0].work_mass[0], 4);
    }

    #[test]
    fn ingress_timings_are_recorded() {
        let (g, p) = figure6();
        let plan = CyclopsPlan::build(&g, &p);
        // Durations exist (possibly sub-microsecond, but the fields are set).
        assert!(plan.ingress.total() >= plan.ingress.replicate);
    }

    #[test]
    fn parallel_and_serial_breakdowns_agree_on_lens() {
        let (g, p) = figure6();
        let serial = CyclopsPlan::build(&g, &p);
        let par = CyclopsPlan::build_parallel(&g, &p);
        // Capacities may differ between the two construction paths, but the
        // per-component byte totals computed from identical contents after
        // `attribute_memory` shrinks capacities to lens must stay close;
        // compare the shrunk (len-based) views via a round-trip clone.
        let shrink = |plan: &CyclopsPlan| {
            let mut b = MemoryBreakdown {
                plan: plan.owner.len() * std::mem::size_of::<u32>()
                    + plan.local_of.len() * std::mem::size_of::<u32>()
                    + plan.workers.len() * std::mem::size_of::<WorkerPlan>(),
                replicas: 0,
            };
            for w in &plan.workers {
                b.merge(&MemoryBreakdown {
                    plan: w.masters.len() * std::mem::size_of::<VertexId>()
                        + w.in_ref_offsets.len() * 4
                        + w.in_refs.len() * std::mem::size_of::<InRef>()
                        + w.in_weights.len() * 4
                        + w.local_out_offsets.len() * 4
                        + w.local_out.len() * 4
                        + w.work_mass.len() * 4
                        + w.work_mass_prefix.len() * 8,
                    replicas: w.replicas.len() * std::mem::size_of::<VertexId>()
                        + w.mirror_offsets.len() * 4
                        + w.mirrors.len() * 8
                        + w.rep_out_offsets.len() * 4
                        + w.rep_out.len() * 4,
                });
            }
            b
        };
        let (a, b) = (shrink(&serial), shrink(&par));
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.replicas, b.replicas);
    }
}
