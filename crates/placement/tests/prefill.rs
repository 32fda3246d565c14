//! The oracle prefill is a pure optimisation: a hybrid run whose oracle
//! skips it (every hit ratio filled on first query, inside the scan) must
//! match a run with it bit for bit — trace, hit ratios, final cost and
//! every model-work counter — at any thread count, in both planner modes.
//!
//! One `#[test]`: the telemetry registry is process-global, so counter
//! deltas are only meaningful while nothing else in this binary runs.

use cdn_placement::hybrid::paper_oracle_for;
use cdn_placement::{hybrid_greedy, HitRatioOracle, HybridConfig, HybridOutcome, PlacementProblem};
use cdn_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Delegates the queries to a paper oracle but keeps the trait's no-op
/// `prefill`.
struct NoPrefill<O>(O);

impl<O: HitRatioOracle> HitRatioOracle for NoPrefill<O> {
    fn site_hit_ratio(&self, server: usize, p: f64, b: usize) -> f64 {
        self.0.site_hit_ratio(server, p, b)
    }

    fn buffer_signature(&self, server: usize, b: usize) -> Option<u64> {
        self.0.buffer_signature(server, b)
    }
}

/// Delegates everything, prefill included, and counts the cells the
/// prefill filled — so the comparison cannot pass vacuously.
struct CountPrefill<O> {
    oracle: O,
    cells: AtomicUsize,
}

impl<O: HitRatioOracle> HitRatioOracle for CountPrefill<O> {
    fn site_hit_ratio(&self, server: usize, p: f64, b: usize) -> f64 {
        self.oracle.site_hit_ratio(server, p, b)
    }

    fn buffer_signature(&self, server: usize, b: usize) -> Option<u64> {
        self.oracle.buffer_signature(server, b)
    }

    fn prefill(&self, queries: &mut dyn Iterator<Item = (usize, f64, usize)>) -> usize {
        let filled = self.oracle.prefill(queries);
        self.cells.fetch_add(filled, Ordering::Relaxed);
        filled
    }
}

/// Servers on a line, primaries beyond it, uneven site sizes (so the
/// candidates of one server shrink its buffer into many different `S`
/// buckets) and skewed, tie-free demand.
fn problem(seed: u64) -> PlacementProblem {
    let (n, m) = (7, 11);
    let mut rng = StdRng::seed_from_u64(seed);
    let coords: Vec<i64> = (0..n).map(|_| rng.gen_range(0..20)).collect();
    let mut dist_ss = vec![0u32; n * n];
    for i in 0..n {
        for k in 0..n {
            if i != k {
                dist_ss[i * n + k] = (coords[i] - coords[k]).unsigned_abs() as u32 + 1;
            }
        }
    }
    let dist_sp: Vec<u32> = (0..n * m).map(|_| 22 + rng.gen_range(0..15u32)).collect();
    let site_bytes: Vec<u64> = (0..m).map(|_| rng.gen_range(800..4000)).collect();
    let capacities: Vec<u64> = (0..n).map(|_| rng.gen_range(6_000..20_000)).collect();
    let demand: Vec<u64> = (0..n * m)
        .map(|x| rng.gen_range(1..200u64) * (1 + (x % m) as u64) + x as u64 % 7)
        .collect();
    PlacementProblem::new(
        n,
        m,
        dist_ss,
        dist_sp,
        site_bytes,
        capacities,
        demand,
        vec![0.0; m],
        50.0,
        300,
        0.9,
    )
}

/// The model-work counters a run added.
fn lru_counters() -> Vec<(String, u64)> {
    telemetry::registry()
        .counter_values()
        .into_iter()
        .filter(|(name, _)| name.starts_with("lru_model."))
        .collect()
}

/// One hybrid run on a fresh oracle and a fresh registry.
fn run(
    p: &PlacementProblem,
    threads: usize,
    dense: bool,
    prefill: bool,
) -> (HybridOutcome, Vec<(String, u64)>) {
    telemetry::reset_metrics();
    let config = HybridConfig {
        dense_scan: dense,
        ..Default::default()
    };
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool");
    let out = pool.install(|| {
        let oracle = paper_oracle_for(p);
        if prefill {
            let counted = CountPrefill {
                oracle,
                cells: AtomicUsize::new(0),
            };
            let out = hybrid_greedy(p, &counted, &config);
            assert!(counted.cells.into_inner() > 0, "the prefill filled nothing");
            out
        } else {
            hybrid_greedy(p, &NoPrefill(oracle), &config)
        }
    });
    (out, lru_counters())
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn prefill_changes_no_bit_and_no_counter() {
    telemetry::set_enabled(true);
    for seed in 0..3u64 {
        let p = problem(seed);
        for dense in [false, true] {
            let (reference, ref_counters) = run(&p, 1, dense, false);
            assert!(
                reference.replicas.len() >= 3,
                "seed {seed}: instance too easy ({} replicas)",
                reference.replicas.len()
            );
            let evaluations = ref_counters
                .iter()
                .find(|(name, _)| name == "lru_model.evaluations")
                .map_or(0, |&(_, v)| v);
            assert!(evaluations > 0, "seed {seed}: no model work recorded");
            for threads in [1usize, 4] {
                for prefill in [false, true] {
                    let (out, counters) = run(&p, threads, dense, prefill);
                    let at =
                        format!("seed {seed} dense {dense} threads {threads} prefill {prefill}");
                    assert_eq!(reference.replicas, out.replicas, "{at}");
                    assert_eq!(bits(&reference.benefits), bits(&out.benefits), "{at}");
                    assert_eq!(
                        reference.final_cost.to_bits(),
                        out.final_cost.to_bits(),
                        "{at}"
                    );
                    for (a, b) in reference.hit_ratios.iter().zip(&out.hit_ratios) {
                        assert_eq!(bits(a), bits(b), "{at}");
                    }
                    assert_eq!(ref_counters, counters, "{at}");
                }
            }
        }
    }
    telemetry::set_enabled(false);
}
