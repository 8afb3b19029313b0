//! Network metrics.
//!
//! The paper characterises its networks by degree: the station selection
//! algorithm (Algorithm 1) needs the minimum degree of the pre-existing
//! stations. The serving layer adds PageRank (network prominence) and the
//! baseline comparison the Gini coefficient (equity of usage). Every
//! metric runs on an already-frozen [`crate::CsrGraph`].

mod degree;
mod gini;
mod pagerank;

pub use degree::DegreeSummary;
pub use gini::gini_coefficient;
pub use pagerank::{pagerank_csr, PageRankConfig};
