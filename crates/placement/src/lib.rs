//! Replica placement for the hybrid CDN reproduction.
//!
//! The paper casts placement as a file-allocation problem: find the 0/1
//! matrix `X` (site j replicated at server i) minimising the total transfer
//! cost `D = Σ_{i,j} (1 − h_j^(i)) · r_j^(i) · C(i, SN_j^(i))` subject to
//! per-server storage capacities, where `h` is the cache hit ratio of the
//! storage left over for caching. The stand-alone problem (`h ≡ 0`) is
//! NP-complete, so everything here is heuristic:
//!
//! * [`greedy_global`] — the classic greedy-global heuristic the paper uses
//!   as the stand-alone replication baseline.
//! * [`hybrid`] — the paper's contribution (its Figure 2): greedy with the
//!   benefit of each candidate replica charged for the cache space it
//!   steals, as predicted by the analytical LRU model.
//! * [`adhoc`] — fixed cache/replica splits (the paper's Figure 5 strawmen).
//! * [`baselines`] — random and popularity-ranked placements for context.
//!
//! [`problem`] holds the immutable instance, [`solution::Placement`] the
//! mutable assignment with incremental nearest-replica maintenance, and
//! [`oracle`] the hit-ratio predictors (paper model or Che's approximation)
//! the hybrid planner consults.

pub mod adhoc;
pub mod backtrack;
pub mod baselines;
pub mod bounds;
pub mod cost;
pub mod exhaustive;
pub mod greedy_global;
pub mod greedy_local;
pub mod hybrid;
pub mod oracle;
pub mod problem;
pub mod solution;

pub use adhoc::adhoc_split;
pub use backtrack::{greedy_backtrack, BacktrackConfig, BacktrackOutcome};
pub use baselines::{popularity_placement, random_placement};
pub use bounds::{optimality_gap, replication_cost_lower_bound};
pub use cost::{
    mean_hops_per_request, predicted_cost, replication_only_cost, total_cost, update_cost,
};
pub use exhaustive::{exhaustive_optimal, ExhaustiveOutcome};
pub use greedy_global::greedy_global;
pub use greedy_local::greedy_local;
pub use hybrid::{hybrid_greedy, HybridConfig, HybridOutcome};
pub use oracle::{CheOracle, ClosedFormOracle, HitRatioOracle, PaperOracle};
pub use problem::PlacementProblem;
pub use solution::{Nearest, Placement, RankedHolder, ReplicatorIndex};

/// Hop distance, mirroring `cdn_topology::Hops` without depending on it
/// (this crate is pure algorithm; it consumes pre-computed matrices).
pub type Hops = u32;
