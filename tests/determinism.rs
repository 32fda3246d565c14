//! Full-pipeline determinism: identical configs must reproduce identical
//! placements, predictions and simulation results, including across the
//! rayon-parallelised planner and simulator.

use cdn_core::{ModelBackend, Scenario, ScenarioConfig, Strategy};

#[test]
fn whole_pipeline_is_reproducible() {
    let run = || {
        let s = Scenario::generate(&ScenarioConfig::small());
        let plan = s.plan(Strategy::Hybrid);
        let report = s.simulate(&plan);
        (
            plan.placement.replica_count(),
            (0..s.problem.n_servers())
                .map(|i| plan.placement.sites_at(i))
                .collect::<Vec<_>>(),
            plan.predicted_cost.to_bits(),
            report.mean_latency_ms.to_bits(),
            report.cache_hits,
            report.cost_hops_bits(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_give_different_systems() {
    let mut a_cfg = ScenarioConfig::small();
    a_cfg.seed = 1;
    let mut b_cfg = ScenarioConfig::small();
    b_cfg.seed = 2;
    let a = Scenario::generate(&a_cfg);
    let b = Scenario::generate(&b_cfg);
    // Something structural must differ.
    let differs = a.problem.dist_primary(0, 0) != b.problem.dist_primary(0, 0)
        || a.catalog.total_bytes() != b.catalog.total_bytes()
        || a.demand.server_row(0) != b.demand.server_row(0);
    assert!(differs);
}

#[test]
fn all_strategies_are_reproducible() {
    let s1 = Scenario::generate(&ScenarioConfig::small());
    let s2 = Scenario::generate(&ScenarioConfig::small());
    for strategy in [
        Strategy::Replication,
        Strategy::Caching,
        Strategy::Hybrid,
        Strategy::AdHoc {
            cache_fraction: 0.4,
        },
        Strategy::Random { seed: 5 },
        Strategy::Popularity,
    ] {
        let a = s1.plan(strategy);
        let b = s2.plan(strategy);
        assert_eq!(
            a.predicted_cost.to_bits(),
            b.predicted_cost.to_bits(),
            "{} prediction not reproducible",
            strategy.name()
        );
        for i in 0..s1.problem.n_servers() {
            assert_eq!(a.placement.sites_at(i), b.placement.sites_at(i));
        }
    }
}

/// Greedy-local fills servers in parallel, builds the nearest-copy
/// pointers in one parallel pass, and the closed-form oracle solves `τ`
/// under per-server locks: none of it may depend on the thread count.
#[test]
fn closed_form_greedy_local_is_thread_count_invariant() {
    let s = Scenario::generate(&ScenarioConfig::small());
    let run = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| Strategy::GreedyLocal.run_with_model(&s.problem, ModelBackend::ClosedForm))
    };
    let (one, four) = (run(1), run(4));
    assert_eq!(one.predicted_cost.to_bits(), four.predicted_cost.to_bits());
    let bits = |r: &cdn_core::PlanResult| -> Vec<Vec<u64>> {
        r.hit_ratios
            .as_ref()
            .expect("greedy-local predicts hit ratios")
            .iter()
            .map(|row| row.iter().map(|h| h.to_bits()).collect())
            .collect()
    };
    assert_eq!(bits(&one), bits(&four));
    for i in 0..s.problem.n_servers() {
        assert_eq!(one.placement.sites_at(i), four.placement.sites_at(i));
        for j in 0..s.problem.m_sites() {
            assert_eq!(one.placement.nearest(i, j), four.placement.nearest(i, j));
        }
    }
}

trait CostBits {
    fn cost_hops_bits(&self) -> u64;
}

impl CostBits for cdn_core::sim::SimReport {
    fn cost_hops_bits(&self) -> u64 {
        self.mean_cost_hops.to_bits()
    }
}
