#![warn(missing_docs)]

//! Graph-partitioning substrate for the Cyclops reproduction.
//!
//! The paper uses two *edge-cut* partitioners for Hama/Cyclops — the default
//! hash partition and Metis (§4.2, §6.6) — and two *vertex-cut* partitioners
//! for PowerGraph — random and coordinated-greedy (§6.12). This crate
//! implements all four from scratch:
//!
//! * [`HashPartitioner`] — vertices assigned by `v mod k` (Hama's default),
//! * [`MultilevelPartitioner`] — a Metis-style multilevel k-way edge-cut
//!   (heavy-edge-matching coarsening, greedy region-growing initial
//!   partition, boundary Fiduccia–Mattheyses refinement),
//! * [`RandomVertexCut`] — PowerGraph's random edge placement,
//! * [`GreedyVertexCut`] — PowerGraph's coordinated greedy edge placement.
//!
//! [`EdgeCutPartition`] and [`VertexCutPartition`] expose the quality metrics
//! the paper reports: replication factor (Figure 11, Table 4), edge cut, and
//! vertex balance.

pub mod edge_cut;
pub mod multilevel;
pub mod vertex_cut;

pub use edge_cut::{EdgeCutPartition, EdgeCutPartitioner, HashPartitioner};
pub use multilevel::MultilevelPartitioner;
pub use vertex_cut::{GreedyVertexCut, RandomVertexCut, VertexCutPartition, VertexCutPartitioner};
