//! Set systems, edge-arrival streams and workload generators for the
//! maximum k-coverage problem.
//!
//! The paper's input model (its §1–§2): a ground set `U` of `n` elements,
//! a family `F` of `m` sets, delivered as a single-pass stream of
//! `(set, element)` pairs — *edges* of the set-element incidence graph —
//! in arbitrary order. This crate provides:
//!
//! * [`Edge`] and [`SetSystem`] — the incidence representation and its
//!   offline materialization (used by generators, baselines and ground
//!   truth; the streaming algorithms themselves never materialize it).
//! * [`order`] — arrival orders: set-contiguous (the *set-arrival* model
//!   of the prior work in Table 1), element-contiguous, round-robin and
//!   seeded adversarial shuffles (the *edge-arrival* model).
//! * [`coverage`] — exact coverage, frequency and `λ`-common-element
//!   utilities (Definition 2.1) for verification and instrumentation.
//! * [`gen`] — workload generators: uniform and Zipfian random systems,
//!   planted-optimum instances, the three structural regimes the paper's
//!   oracle case-analysis distinguishes (§4), and the Set-Disjointness
//!   hard instances of the §5 lower bound.

pub mod coverage;
pub mod edge;
pub mod gen;
pub mod instance;
pub mod io;
pub mod order;

pub use coverage::{common_elements, coverage_of, element_frequencies, CoverageStats};
pub use edge::Edge;
pub use instance::SetSystem;
pub use io::{
    read_edges, read_set_system, write_edges, write_set_system, EdgeChunkReader, ParseError, MAX_IDS,
};
pub use order::{edge_stream, edge_stream_chunked, ArrivalOrder, ChunkedStream};
