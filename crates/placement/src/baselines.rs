//! Context baselines: random and popularity-ranked placement.
//!
//! Neither appears in the paper's figures, but both are standard reference
//! points in the replica-placement literature it builds on and they anchor
//! the extension benchmarks (a placement algorithm should comfortably beat
//! random).

use crate::problem::PlacementProblem;
use crate::solution::Placement;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Fill servers with replicas chosen uniformly at random (without
/// replacement per server) until nothing more fits anywhere.
pub fn random_placement(problem: &PlacementProblem, seed: u64) -> Placement {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut placement = Placement::primaries_only(problem);
    let n = problem.n_servers();
    let m = problem.m_sites();
    let mut candidates: Vec<(usize, usize)> =
        (0..n).flat_map(|i| (0..m).map(move |j| (i, j))).collect();
    candidates.shuffle(&mut rng);
    for (i, j) in candidates {
        if placement.fits(problem, i, j) {
            placement.add_replica(problem, i, j);
        }
    }
    placement
}

/// Replicate sites in order of total demand, each at every server where it
/// fits, until capacity runs out — the "push the hottest sites everywhere"
/// heuristic.
///
/// Each site's replicas are taken in ascending server order, so the
/// nearest-copy pointers are those of [`Placement::from_server_sites`],
/// which builds the result in one bulk pass.
pub fn popularity_placement(problem: &PlacementProblem) -> Placement {
    let m = problem.m_sites();
    let n = problem.n_servers();
    let demand: Vec<u64> = (0..m)
        .map(|j| (0..n).map(|i| problem.requests(i, j)).sum())
        .collect();
    let mut sites: Vec<usize> = (0..m).collect();
    sites.sort_by_key(|&j| std::cmp::Reverse(demand[j]));
    let mut free = problem.capacities.clone();
    let mut picked = vec![Vec::new(); n];
    for j in sites {
        for i in 0..n {
            if problem.site_bytes[j] <= free[i] {
                free[i] -= problem.site_bytes[j];
                picked[i].push(j);
            }
        }
    }
    Placement::from_server_sites(problem, &picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::replication_only_cost;
    use crate::greedy_global::greedy_global;
    use crate::problem::testkit::*;

    #[test]
    fn random_placement_fills_until_nothing_fits() {
        let p = line_problem(3, 4, 1000, 2500, uniform_demand(3, 4, 10));
        let pl = random_placement(&p, 1);
        pl.validate(&p);
        for i in 0..3 {
            assert!(pl.free_bytes(i) < 1000, "server {i} left space unused");
        }
    }

    #[test]
    fn random_placement_deterministic_per_seed() {
        let p = line_problem(3, 4, 1000, 2500, uniform_demand(3, 4, 10));
        let a = random_placement(&p, 7);
        let b = random_placement(&p, 7);
        for i in 0..3 {
            assert_eq!(a.sites_at(i), b.sites_at(i));
        }
        let c = random_placement(&p, 8);
        let differs = (0..3).any(|i| a.sites_at(i) != c.sites_at(i));
        assert!(differs);
    }

    #[test]
    fn popularity_placement_prefers_hot_sites() {
        let mut demand = uniform_demand(2, 3, 1);
        demand[2] = 100; // (server 0, site 2)
        demand[5] = 100; // (server 1, site 2)
        let p = line_problem(2, 3, 1000, 1000, demand);
        let pl = popularity_placement(&p);
        // Only one site fits per server; it must be the hot one.
        assert_eq!(pl.sites_at(0), vec![2]);
        assert_eq!(pl.sites_at(1), vec![2]);
    }

    #[test]
    fn greedy_beats_random() {
        let p = line_problem(5, 8, 1000, 3000, uniform_demand(5, 8, 10));
        let greedy_cost = replication_only_cost(&p, &greedy_global(&p).placement);
        let random_cost = replication_only_cost(&p, &random_placement(&p, 3));
        assert!(
            greedy_cost <= random_cost,
            "greedy {greedy_cost} worse than random {random_cost}"
        );
    }

    #[test]
    fn popularity_placement_validates() {
        let p = line_problem(4, 5, 700, 2000, uniform_demand(4, 5, 3));
        popularity_placement(&p).validate(&p);
    }
}
