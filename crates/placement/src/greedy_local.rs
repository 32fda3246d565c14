//! Greedy-local ("greedy-single") replica placement: each server fills its
//! own storage independently, ranking sites by the transfer cost *its own*
//! clients would save per byte stored.
//!
//! This is the classic decentralised baseline from the replica-placement
//! literature the paper builds on (Kangasharju/Roberts/Ross call it
//! "greedy-single"): no coordination, so popular sites end up replicated
//! everywhere and the long tail nowhere. Greedy-global dominates it
//! precisely because it accounts for servers covering each other — which is
//! what our extension benchmark demonstrates.

use crate::problem::PlacementProblem;
use crate::solution::Placement;
use rayon::prelude::*;

/// Density-ordered local knapsack fill at every server.
///
/// Each server ranks sites by `r_j^(i) · C(i, SP_j) / o_j` (cost saved per
/// byte, against the primary — servers do not know about each other's
/// replicas) and replicates greedily until nothing more fits.
///
/// A server's fill reads only its own row and its own free space, so the
/// servers are filled in parallel (O(N·M log M)) and the nearest-copy
/// pointers are then set in one bulk pass by
/// [`Placement::from_server_sites`] — the placement sequential
/// server-by-server [`Placement::add_replica`] calls would build.
pub fn greedy_local(problem: &PlacementProblem) -> Placement {
    let m = problem.m_sites();
    let sites: Vec<Vec<usize>> = (0..problem.n_servers())
        .into_par_iter()
        .map(|i| {
            let density: Vec<f64> = (0..m)
                .map(|j| {
                    problem.requests(i, j) as f64 * problem.dist_primary(i, j) as f64
                        / problem.site_bytes[j].max(1) as f64
                })
                .collect();
            let mut order: Vec<usize> = (0..m).collect();
            // A total order (index breaks density ties), so any sort agrees.
            order.sort_unstable_by(|&a, &b| {
                density[b]
                    .partial_cmp(&density[a])
                    .expect("densities are finite")
                    .then(a.cmp(&b))
            });
            let mut free = problem.capacities[i];
            let mut picked = Vec::new();
            for j in order {
                if problem.requests(i, j) == 0 {
                    continue; // zero benefit; leave the space to the tail/cache
                }
                if problem.site_bytes[j] <= free {
                    free -= problem.site_bytes[j];
                    picked.push(j);
                }
            }
            picked
        })
        .collect();
    Placement::from_server_sites(problem, &sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::replication_only_cost;
    use crate::greedy_global::greedy_global;
    use crate::problem::testkit::*;

    #[test]
    fn fills_by_local_density() {
        // Site 1 is tiny and hot for server 0: it must be picked first.
        let mut demand = uniform_demand(1, 3, 10);
        demand[1] = 100;
        let mut p = line_problem(1, 3, 1000, 1500, demand);
        p.site_bytes[1] = 500;
        let pl = greedy_local(&p);
        assert!(pl.is_replicated(0, 1));
        // 1000 bytes left fits exactly one more site.
        assert_eq!(pl.sites_at(0).len(), 2);
        pl.validate(&p);
    }

    #[test]
    fn ignores_zero_demand_sites() {
        let mut demand = uniform_demand(2, 2, 10);
        demand[1] = 0;
        demand[3] = 0;
        let p = line_problem(2, 2, 1000, 5000, demand);
        let pl = greedy_local(&p);
        assert!(pl.replicators_of(1).is_empty());
        assert_eq!(pl.replicators_of(0).len(), 2);
    }

    #[test]
    fn servers_duplicate_popular_sites() {
        // With uniform demand every server independently picks the same
        // best sites — the pathology greedy-global avoids.
        let p = line_problem(3, 6, 1000, 2000, uniform_demand(3, 6, 10));
        let pl = greedy_local(&p);
        for i in 0..3 {
            assert_eq!(pl.sites_at(i).len(), 2);
        }
        // Primary distance is lowest for server 0's ordering tie-break;
        // all servers share the same top picks up to their own distances.
        pl.validate(&p);
    }

    #[test]
    fn greedy_global_never_worse() {
        let p = line_problem(5, 8, 1000, 3000, uniform_demand(5, 8, 7));
        let local = replication_only_cost(&p, &greedy_local(&p));
        let global = replication_only_cost(&p, &greedy_global(&p).placement);
        assert!(
            global <= local + 1e-9,
            "global {global} worse than local {local}"
        );
    }

    #[test]
    fn thread_count_invariant() {
        let mut demand = uniform_demand(12, 9, 4);
        for (idx, d) in demand.iter_mut().enumerate() {
            *d = (*d + idx as u64 * 7) % 13;
        }
        let p = line_problem(12, 9, 700, 3500, demand);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| greedy_local(&p))
        };
        let (one, four) = (run(1), run(4));
        four.validate(&p);
        assert_eq!(one.replica_count(), four.replica_count());
        for i in 0..12 {
            assert_eq!(one.sites_at(i), four.sites_at(i), "server {i}");
            assert_eq!(one.free_bytes(i), four.free_bytes(i), "server {i}");
            for j in 0..9 {
                assert_eq!(one.nearest(i, j), four.nearest(i, j), "({i},{j})");
            }
        }
    }

    #[test]
    fn deterministic() {
        let p = line_problem(4, 5, 900, 2700, uniform_demand(4, 5, 3));
        let a = greedy_local(&p);
        let b = greedy_local(&p);
        for i in 0..4 {
            assert_eq!(a.sites_at(i), b.sites_at(i));
        }
    }
}
