//! Quantification probabilities `π_i(q)` (Section 4 of the paper).
//!
//! `π_i(q)` is the probability that `P_i` is the nearest neighbor of `q`
//! (Eq. (1) continuous / Eq. (2) discrete). Four evaluation strategies:
//!
//! * [`exact`] — direct evaluation: the Eq. (2) distance-sweep for discrete
//!   sets (`O(N log N)` per query) and adaptive quadrature of Eq. (1) for
//!   disk sets (the reference oracle);
//! * [`vpr::ProbabilisticVoronoiDiagram`] — Theorem 4.2: precompute the
//!   `O(N⁴)`-size subdivision on which all `π_i` are constant; `O(log N + t)`
//!   queries;
//! * [`monte_carlo::MonteCarloPnn`] — Theorems 4.3/4.5: `s = O(ε⁻² log(N/δ))`
//!   sampled instantiations, additive error `ε` with probability `1 − δ`;
//! * [`spiral::SpiralSearch`] — Theorem 4.7: deterministic additive-`ε`
//!   approximation from the `m(ρ, ε) = ⌈ρk ln(1/ε)⌉ + k − 1` nearest
//!   locations.

pub mod exact;
pub mod monte_carlo;
pub mod slab;
pub mod spiral;
pub mod sweep;
pub mod vpr;

pub use monte_carlo::{MonteCarloPnn, SampleBackend};
pub use slab::LocationSlab;
pub use spiral::SpiralSearch;
pub use sweep::{SortedSlab, SweepEntry, SweepSource};
pub use vpr::ProbabilisticVoronoiDiagram;
