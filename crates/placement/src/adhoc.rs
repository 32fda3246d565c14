//! Ad-hoc fixed cache/replica splits — the strawmen of the paper's
//! Figure 5 ("what if we allocate a fixed percentage of the storage space
//! to caching and run the greedy global replication algorithm for the
//! remaining part?").

use crate::greedy_global::greedy_global;
use crate::problem::PlacementProblem;
use crate::solution::Placement;

/// Reserve `cache_fraction` of every server's capacity for caching, run
/// stand-alone greedy-global on the remainder, and return the placement
/// *against the original problem* (so `free_bytes` — the cache space — is
/// the reserved fraction plus whatever replication fragmentation left
/// unused).
///
/// # Panics
/// Panics if `cache_fraction` is outside `[0, 1]`.
pub fn adhoc_split(problem: &PlacementProblem, cache_fraction: f64) -> Placement {
    assert!(
        (0.0..=1.0).contains(&cache_fraction),
        "cache fraction {cache_fraction} out of [0,1]"
    );
    // Shrink capacities for the replication pass.
    let mut shrunk = problem.clone();
    shrunk.capacities = problem
        .capacities
        .iter()
        .map(|&c| ((c as f64) * (1.0 - cache_fraction)).floor() as u64)
        .collect();
    let outcome = greedy_global(&shrunk);

    // Replay the replica set against the full-capacity problem so the
    // leftover bytes are correctly accounted as cache space.
    let sites: Vec<Vec<usize>> = (0..problem.n_servers())
        .map(|i| outcome.placement.sites_at(i))
        .collect();
    Placement::from_server_sites(problem, &sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testkit::*;

    #[test]
    fn fraction_zero_equals_greedy_global() {
        let p = line_problem(3, 4, 1000, 2000, uniform_demand(3, 4, 10));
        let adhoc = adhoc_split(&p, 0.0);
        let greedy = greedy_global(&p);
        for i in 0..3 {
            assert_eq!(adhoc.sites_at(i), greedy.placement.sites_at(i));
        }
    }

    #[test]
    fn fraction_one_is_pure_caching() {
        let p = line_problem(3, 4, 1000, 2000, uniform_demand(3, 4, 10));
        let adhoc = adhoc_split(&p, 1.0);
        assert_eq!(adhoc.replica_count(), 0);
        for i in 0..3 {
            assert_eq!(adhoc.free_bytes(i), 2000);
        }
    }

    #[test]
    fn reserved_cache_space_is_respected() {
        let p = line_problem(4, 6, 1000, 4000, uniform_demand(4, 6, 10));
        for f in [0.2, 0.5, 0.8] {
            let adhoc = adhoc_split(&p, f);
            for i in 0..4 {
                let reserved = (4000.0 * f).floor() as u64;
                assert!(
                    adhoc.free_bytes(i) >= reserved,
                    "f={f}, server {i}: free {} < reserved {reserved}",
                    adhoc.free_bytes(i)
                );
            }
            adhoc.validate(&p);
        }
    }

    #[test]
    fn more_cache_means_fewer_replicas() {
        let p = line_problem(4, 6, 1000, 4000, uniform_demand(4, 6, 10));
        let r20 = adhoc_split(&p, 0.2).replica_count();
        let r80 = adhoc_split(&p, 0.8).replica_count();
        assert!(r80 <= r20);
    }

    #[test]
    #[should_panic]
    fn invalid_fraction_panics() {
        let p = line_problem(2, 2, 100, 200, uniform_demand(2, 2, 1));
        adhoc_split(&p, 1.5);
    }
}
