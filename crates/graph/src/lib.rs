//! # trilist-graph
//!
//! Graph substrate for the PODS'17 triangle-listing reproduction:
//! undirected simple graphs in CSR form with sorted adjacency lists, degree
//! sequences with Erdős–Gallai graphicality, truncated heavy-tailed degree
//! distributions, and two random-graph generators that realize a prescribed
//! degree sequence (configuration model with erasure, and the §7.2
//! residual-degree proportional sampler).
//!
//! ```
//! use rand::SeedableRng;
//! use trilist_graph::{
//!     dist::{sample_degree_sequence, DiscretePareto, Truncated, Truncation},
//!     gen::{GraphGenerator, ResidualSampler},
//! };
//!
//! let n = 1_000;
//! let t = Truncation::Root.t_n(n);
//! let dist = Truncated::new(DiscretePareto::paper_beta(1.5), t);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let (target, _) = sample_degree_sequence(&dist, n, &mut rng);
//! let generated = ResidualSampler.generate(&target, &mut rng);
//! assert_eq!(generated.graph.n(), n);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod components;
pub mod csr;
pub mod degree;
pub mod dist;
pub mod fenwick;
pub mod gen;
pub mod io;

pub use builder::{BuilderStats, GraphBuilder};
pub use csr::{Graph, NodeId};
pub use degree::DegreeSequence;
pub use fenwick::Fenwick;

/// Errors raised while constructing graphs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge `(node, node)` was supplied.
    SelfLoop {
        /// The offending node.
        node: NodeId,
    },
    /// The same undirected edge was supplied twice.
    DuplicateEdge {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// A node ID is not below `n`.
    NodeOutOfRange {
        /// The offending node ID.
        node: NodeId,
        /// The number of nodes in the graph.
        n: usize,
    },
    /// `u` lists `v` as a neighbor but not vice versa.
    Asymmetric {
        /// The node holding the dangling reference.
        u: NodeId,
        /// The node missing the reverse edge.
        v: NodeId,
    },
    /// A patch ([`Graph::patched`]) removes `v` from `u`'s row, where it
    /// is not.
    AbsentEdge {
        /// The node whose row was patched.
        u: NodeId,
        /// The neighbor the patch names.
        v: NodeId,
    },
    /// A patch row ([`Graph::patched`]) of `node` is not ascending.
    UnsortedPatch {
        /// The node whose patch row is out of order.
        node: NodeId,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::DuplicateEdge { u, v } => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph of {n} nodes")
            }
            GraphError::Asymmetric { u, v } => {
                write!(f, "asymmetric adjacency: {u} lists {v} but not vice versa")
            }
            GraphError::AbsentEdge { u, v } => {
                write!(f, "patch removes {v} from node {u}, which does not list it")
            }
            GraphError::UnsortedPatch { node } => {
                write!(f, "patch row of node {node} is not ascending")
            }
        }
    }
}

impl std::error::Error for GraphError {}
