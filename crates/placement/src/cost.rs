//! The objective function `D` and derived metrics.

use crate::problem::PlacementProblem;
use crate::solution::Placement;

/// Total predicted transfer cost
/// `D = Σ_{i,j} (1 − h(i, j)) · r_j^(i) · C(i, SN_j^(i))`,
/// with `h` supplied by the caller (per-server, per-site predicted cache
/// hit ratio; return 0 everywhere for a cache-less system). Requests for
/// locally replicated sites cost nothing (`C = 0`).
pub fn predicted_cost(
    problem: &PlacementProblem,
    placement: &Placement,
    hit: impl Fn(usize, usize) -> f64,
) -> f64 {
    let mut d = 0.0;
    for i in 0..problem.n_servers() {
        for j in 0..problem.m_sites() {
            if placement.is_replicated(i, j) {
                continue;
            }
            let r = problem.requests(i, j) as f64;
            if r == 0.0 {
                continue;
            }
            let c = placement.nearest_dist(problem, i, j) as f64;
            let h = hit(i, j).clamp(0.0, 1.0);
            d += (1.0 - h) * r * c;
        }
    }
    d
}

/// `D` for a pure replication system (no caching): `h ≡ 0`.
pub fn replication_only_cost(problem: &PlacementProblem, placement: &Placement) -> f64 {
    predicted_cost(problem, placement, |_, _| 0.0)
}

/// Consistency (update-propagation) cost of a placement: every update of
/// site `j` is pushed from the primary to each of its replicas,
/// `U = Σ_j u_j · Σ_{i: X_ij} C(SP_j, i)`. Zero under the paper's
/// read-only objective (all update rates default to 0).
pub fn update_cost(problem: &PlacementProblem, placement: &Placement) -> f64 {
    let replicators = placement.replicator_index();
    let mut u = 0.0;
    for j in 0..problem.m_sites() {
        if problem.update_rates[j] == 0 {
            continue;
        }
        for &i in replicators.site(j) {
            u += problem.replica_update_cost(i as usize, j);
        }
    }
    u
}

/// Read cost plus update cost — the full read+update objective.
pub fn total_cost(
    problem: &PlacementProblem,
    placement: &Placement,
    hit: impl Fn(usize, usize) -> f64,
) -> f64 {
    predicted_cost(problem, placement, hit) + update_cost(problem, placement)
}

/// Average cost in hops per request — the y-axis of the paper's Figure 6.
pub fn mean_hops_per_request(problem: &PlacementProblem, total_cost: f64) -> f64 {
    let total = problem.grand_total();
    if total == 0 {
        0.0
    } else {
        total_cost / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::testkit::*;

    #[test]
    fn primaries_only_cost_is_demand_times_primary_distance() {
        let p = line_problem(2, 2, 100, 1000, vec![5, 3, 2, 7]);
        let pl = Placement::primaries_only(&p);
        let expected: f64 = (0..2)
            .flat_map(|i| (0..2).map(move |j| (i, j)))
            .map(|(i, j)| p.requests(i, j) as f64 * p.dist_primary(i, j) as f64)
            .sum();
        assert_eq!(replication_only_cost(&p, &pl), expected);
    }

    #[test]
    fn replicating_reduces_cost_to_zero_locally() {
        let p = line_problem(2, 1, 100, 1000, vec![5, 5]);
        let mut pl = Placement::primaries_only(&p);
        let before = replication_only_cost(&p, &pl);
        pl.add_replica(&p, 0, 0);
        let after = replication_only_cost(&p, &pl);
        // Server 0 now costs 0; server 1 pays 1 hop instead of 11.
        assert!(after < before);
        assert_eq!(after, 5.0 * 1.0);
    }

    #[test]
    fn hit_ratio_scales_cost() {
        let p = line_problem(1, 1, 100, 1000, vec![10]);
        let pl = Placement::primaries_only(&p);
        let full = predicted_cost(&p, &pl, |_, _| 0.0);
        let half = predicted_cost(&p, &pl, |_, _| 0.5);
        let none = predicted_cost(&p, &pl, |_, _| 1.0);
        assert!((half - full / 2.0).abs() < 1e-12);
        assert_eq!(none, 0.0);
    }

    #[test]
    fn out_of_range_hit_ratios_clamped() {
        let p = line_problem(1, 1, 100, 1000, vec![10]);
        let pl = Placement::primaries_only(&p);
        assert_eq!(predicted_cost(&p, &pl, |_, _| 7.0), 0.0);
        assert_eq!(
            predicted_cost(&p, &pl, |_, _| -3.0),
            replication_only_cost(&p, &pl)
        );
    }

    #[test]
    fn update_cost_zero_without_rates_or_replicas() {
        let p = line_problem(2, 2, 100, 1000, vec![1, 1, 1, 1]);
        let mut pl = Placement::primaries_only(&p);
        assert_eq!(update_cost(&p, &pl), 0.0);
        pl.add_replica(&p, 0, 0);
        assert_eq!(update_cost(&p, &pl), 0.0); // rates default to 0
    }

    #[test]
    fn update_cost_counts_every_replica() {
        let mut p = line_problem(2, 2, 100, 1000, vec![1, 1, 1, 1]);
        p.set_update_rates(vec![5, 0]);
        let mut pl = Placement::primaries_only(&p);
        pl.add_replica(&p, 0, 0);
        pl.add_replica(&p, 1, 0);
        pl.add_replica(&p, 1, 1); // site 1 has zero update rate
                                  // Site 0: primary distances are 10 (server 0) and 11 (server 1).
        assert_eq!(update_cost(&p, &pl), 5.0 * (10.0 + 11.0));
        let read = predicted_cost(&p, &pl, |_, _| 0.0);
        assert_eq!(total_cost(&p, &pl, |_, _| 0.0), read + 105.0);
    }

    #[test]
    fn mean_hops_normalises_by_grand_total() {
        let p = line_problem(2, 2, 100, 1000, vec![1, 1, 1, 1]);
        assert!((mean_hops_per_request(&p, 40.0) - 10.0).abs() < 1e-12);
    }
}
