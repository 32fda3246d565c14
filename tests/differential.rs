//! Differential correctness harness: independent implementations of the
//! same quantity must agree.
//!
//! Each property here cross-checks two or three code paths that were
//! written separately (analytical model vs. trace-driven simulation,
//! greedy heuristic vs. brute-force optimum, faulted vs. fault-free
//! engine, eviction policies vs. their defining invariants). A divergence
//! is a bug in at least one of them — these oracles need no hand-computed
//! expected values, which is what lets them run over *randomized*
//! instances at full case count.
//!
//! Tolerances are documented in DESIGN.md ("Differential testing &
//! shrinking"); they were set empirically at ≥256 cases and hold with
//! margin. Keep the two in sync when tuning either.

use cdn_cache::{Cache, LruCache, ObjectKey};
use cdn_core::ReplayStreams;
use cdn_lru_model::{CheModel, ClosedFormLru, LruModel};
use cdn_placement::hybrid::hybrid_greedy_paper;
use cdn_placement::{
    adhoc_split, exhaustive_optimal, greedy_global, greedy_local, popularity_placement,
    replication_cost_lower_bound, replication_only_cost, update_cost, HybridConfig, Nearest,
    Placement, PlacementProblem,
};
use cdn_sim::{
    simulate_server, simulate_server_faulted, FaultParams, FaultSchedule, Holder, ServerPlan,
    ServerReport, SimConfig,
};
use cdn_workload::{pack_key, unpack_key, Flavor, Request, TraceEvent, ZipfLike};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Oracle 1: analytical LRU model vs. Che's approximation vs. a trace-driven
// LRU simulation, on the same randomized workload.
// ---------------------------------------------------------------------------

/// Drive an actual `LruCache` of `b` unit-sized objects with an IRM trace
/// (site by popularity CDF, object by per-site Zipf) and measure the hit
/// ratio after warm-up.
fn trace_lru_hit_ratio(site_pops: &[f64], zipf: &ZipfLike, b: usize, seed: u64) -> f64 {
    const REQUESTS: usize = 8_000;
    const WARMUP: usize = 3_000;
    let cdf: Vec<f64> = site_pops
        .iter()
        .scan(0.0, |acc, p| {
            *acc += p;
            Some(*acc)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cache = LruCache::new(b as u64);
    let mut hits = 0u64;
    for i in 0..REQUESTS {
        let u: f64 = rng.gen();
        let site = cdf.partition_point(|&c| c < u).min(site_pops.len() - 1);
        let rank = zipf.sample(&mut rng); // 1-based
        let hit = cache.access(ObjectKey::new(site as u32, (rank - 1) as u32), 1);
        if i >= WARMUP && hit {
            hits += 1;
        }
    }
    hits as f64 / (REQUESTS - WARMUP) as f64
}

/// The paper model's aggregate hit ratio: top-B mass → eviction horizon →
/// per-site hit ratios, weighted by site popularity.
fn paper_aggregate_hit_ratio(model: &LruModel, site_pops: &[f64], b: usize) -> f64 {
    let p_b = model.top_b_mass(site_pops, b);
    let k = model.eviction_horizon(b, p_b);
    site_pops
        .iter()
        .map(|&p| p * model.site_hit_ratio(p, k))
        .sum()
}

proptest! {
    #[test]
    fn lru_model_che_and_trace_simulation_agree(
        n_sites in 2usize..=5,
        l in 40usize..=120,
        theta in 0.6f64..1.2,
        b_frac in 0.08f64..0.5,
        seed in any::<u64>(),
    ) {
        // Random-but-normalised site popularities, never degenerate.
        let mut wrng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
        let weights: Vec<f64> = (0..n_sites).map(|_| wrng.gen_range(0.5f64..2.0)).collect();
        let total_w: f64 = weights.iter().sum();
        let site_pops: Vec<f64> = weights.iter().map(|w| w / total_w).collect();

        let total_objects = n_sites * l;
        let b = ((b_frac * total_objects as f64) as usize).clamp(10, total_objects - 1);

        let zipf = ZipfLike::new(l, theta);
        let paper = LruModel::from_zipf(zipf.clone());
        let che = CheModel::from_zipf(zipf.clone());

        let closed = ClosedFormLru::from_zipf(zipf.clone());

        let h_paper = paper_aggregate_hit_ratio(&paper, &site_pops, b);
        let h_che = che.aggregate_hit_ratio(&site_pops, b);
        let h_closed = closed.aggregate_hit_ratio(&site_pops, b);
        let h_trace = trace_lru_hit_ratio(&site_pops, &zipf, b, seed);

        for h in [h_paper, h_che, h_closed, h_trace] {
            prop_assert!((0.0..=1.0).contains(&h), "hit ratio {h} out of [0,1]");
        }
        // Che's approximation is near-exact under IRM; the trace is the
        // ground truth it approximates.
        prop_assert!((h_che - h_trace).abs() <= 0.05,
            "che {h_che:.4} vs trace {h_trace:.4} (b={b}, θ={theta:.2}, sites={n_sites}, L={l})");
        // The paper's eviction-horizon model is cruder; hold it to the
        // same band the repo's fixed-point validation test uses.
        prop_assert!((h_paper - h_che).abs() <= 0.12,
            "paper {h_paper:.4} vs che {h_che:.4} (b={b}, θ={theta:.2}, sites={n_sites}, L={l})");
        prop_assert!((h_paper - h_trace).abs() <= 0.15,
            "paper {h_paper:.4} vs trace {h_trace:.4} (b={b}, θ={theta:.2}, sites={n_sites}, L={l})");
        // The closed-form model replaces the paper's tabulated series with
        // O(1) arithmetic; it must stay within the same band of the table
        // model it substitutes for (DESIGN.md documents the calibration).
        prop_assert!((h_closed - h_paper).abs() <= 0.15,
            "closed-form {h_closed:.4} vs paper {h_paper:.4} (b={b}, θ={theta:.2}, sites={n_sites}, L={l})");
        prop_assert!((h_closed - h_trace).abs() <= 0.15,
            "closed-form {h_closed:.4} vs trace {h_trace:.4} (b={b}, θ={theta:.2}, sites={n_sites}, L={l})");
    }
}

// ---------------------------------------------------------------------------
// Oracle 2: greedy placement vs. the exhaustive optimum on small instances.
// ---------------------------------------------------------------------------

/// A random tiny-but-valid placement instance (small enough for
/// `exhaustive_optimal`'s joint enumeration).
fn random_problem(n: usize, m: usize, seed: u64, with_updates: bool) -> PlacementProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dist_ss = vec![0u32; n * n];
    for i in 0..n {
        for k in (i + 1)..n {
            let d = rng.gen_range(1u32..=6);
            dist_ss[i * n + k] = d;
            dist_ss[k * n + i] = d;
        }
    }
    let dist_sp: Vec<u32> = (0..n * m).map(|_| rng.gen_range(3u32..15)).collect();
    let site_bytes: Vec<u64> = (0..m).map(|_| 100 * rng.gen_range(1u64..=4)).collect();
    let total_bytes: u64 = site_bytes.iter().sum();
    let capacities: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=total_bytes)).collect();
    let demand: Vec<u64> = (0..n * m).map(|_| rng.gen_range(0u64..20)).collect();
    let mut problem = PlacementProblem::new(
        n,
        m,
        dist_ss,
        dist_sp,
        site_bytes,
        capacities,
        demand,
        vec![0.0; m],
        10.0,
        50,
        0.8,
    );
    if with_updates {
        problem.set_update_rates((0..m).map(|_| rng.gen_range(0u64..5)).collect());
    }
    problem
}

proptest! {
    #[test]
    fn greedy_never_beats_the_exhaustive_optimum(
        n in 2usize..=3,
        m in 3usize..=4,
        seed in any::<u64>(),
        with_updates in any::<bool>(),
    ) {
        let problem = random_problem(n, m, seed, with_updates);
        let optimal = exhaustive_optimal(&problem);
        optimal.placement.validate(&problem);

        let greedy = greedy_global(&problem);
        greedy.placement.validate(&problem);
        let greedy_cost = replication_only_cost(&problem, &greedy.placement)
            + update_cost(&problem, &greedy.placement);

        // The heuristic can never beat brute force on its own objective.
        prop_assert!(greedy_cost + 1e-9 >= optimal.cost,
            "greedy {greedy_cost} below exhaustive optimum {}", optimal.cost);
        // ... and the analytical lower bound can never exceed it.
        let lb = replication_cost_lower_bound(&problem);
        prop_assert!(lb <= optimal.cost + 1e-9,
            "lower bound {lb} above exhaustive optimum {}", optimal.cost);
        // Greedy accepts the best remaining candidate each round, and
        // placing a replica only shrinks other candidates' benefits, so
        // the accepted-benefit sequence is non-increasing.
        for w in greedy.benefits.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9,
                "greedy benefits not monotone: {:?}", greedy.benefits);
        }

        // The hybrid planner optimises a different objective (it credits
        // the leftover cache space), but its output is still a feasible
        // placement, so the same replication-only floor applies.
        let hybrid = hybrid_greedy_paper(&problem, &HybridConfig::default());
        hybrid.placement.validate(&problem);
        let hybrid_cost = replication_only_cost(&problem, &hybrid.placement)
            + update_cost(&problem, &hybrid.placement);
        prop_assert!(hybrid_cost + 1e-9 >= optimal.cost,
            "hybrid {hybrid_cost} below exhaustive optimum {}", optimal.cost);
    }
}

// ---------------------------------------------------------------------------
// Oracle 2b: the incremental lazy-greedy hybrid planner vs. the dense
// Figure-2 rescan — same problem, same oracle, two independently written
// inner loops. The contract is bit-identicality of the full greedy trace,
// not approximate agreement: the lazy planner re-evaluates exactly the
// candidates whose inputs changed, so any divergence means its stale-set
// bookkeeping missed an invalidation.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn lazy_hybrid_matches_dense_hybrid_bit_for_bit(
        n in 2usize..=4,
        m in 3usize..=6,
        seed in any::<u64>(),
        with_updates in any::<bool>(),
    ) {
        let problem = random_problem(n, m, seed, with_updates);
        let lazy = hybrid_greedy_paper(&problem, &HybridConfig::default());
        let dense = hybrid_greedy_paper(&problem, &HybridConfig {
            dense_scan: true,
            ..HybridConfig::default()
        });
        prop_assert_eq!(&lazy.replicas, &dense.replicas);
        let (a, b): (Vec<u64>, Vec<u64>) = (
            lazy.benefits.iter().map(|x| x.to_bits()).collect(),
            dense.benefits.iter().map(|x| x.to_bits()).collect(),
        );
        prop_assert_eq!(a, b, "benefit traces diverge");
        prop_assert_eq!(lazy.initial_cost.to_bits(), dense.initial_cost.to_bits());
        prop_assert_eq!(lazy.final_cost.to_bits(), dense.final_cost.to_bits());
        for (ra, rb) in lazy.hit_ratios.iter().zip(&dense.hit_ratios) {
            for (ha, hb) in ra.iter().zip(rb) {
                prop_assert_eq!(ha.to_bits(), hb.to_bits(), "hit rows diverge");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 3: a generated MTTF = ∞ fault schedule is bit-identical to the
// fault-free code path.
// ---------------------------------------------------------------------------

const FAULT_N_SERVERS: usize = 3;

/// A random single-server plan: per-site holder chains over 3 servers plus
/// the primary, with a random byte budget for the cache.
fn random_server_plan(m: usize, rng: &mut StdRng) -> ServerPlan {
    let mut replicated = Vec::with_capacity(m);
    let mut holders = Vec::with_capacity(m);
    for _ in 0..m {
        let local = rng.gen_bool(0.3);
        let mut chain = Vec::new();
        if local {
            chain.push(Holder {
                server: Some(0),
                hops: 0,
            });
        }
        if rng.gen_bool(0.5) {
            chain.push(Holder {
                server: Some(rng.gen_range(1u32..FAULT_N_SERVERS as u32)),
                hops: rng.gen_range(1u32..=4),
            });
        }
        chain.push(Holder {
            server: None,
            hops: rng.gen_range(4u32..=9),
        });
        replicated.push(local);
        holders.push(chain);
    }
    ServerPlan::from_chains(0, replicated, holders, rng.gen_range(0u64..=4096))
}

fn random_requests(m: usize, count: usize, rng: &mut StdRng) -> Vec<Request> {
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            Request {
                site: rng.gen_range(0u32..m as u32),
                object: rng.gen_range(0u32..50),
                flavor: if u < 0.7 {
                    Flavor::Normal
                } else if u < 0.85 {
                    Flavor::Expired
                } else {
                    Flavor::Uncacheable
                },
            }
        })
        .collect()
}

fn assert_server_reports_identical(a: &ServerReport, b: &ServerReport) {
    assert_eq!(a.histogram.count(), b.histogram.count());
    assert_eq!(a.histogram.mean().to_bits(), b.histogram.mean().to_bits());
    assert_eq!(a.histogram.cdf(), b.histogram.cdf());
    assert_eq!(a.cost_hops, b.cost_hops);
    assert_eq!(a.total_requests, b.total_requests);
    assert_eq!(a.measured_requests, b.measured_requests);
    assert_eq!(a.local_requests, b.local_requests);
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(a.replica_hits, b.replica_hits);
    assert_eq!(a.origin_fetches, b.origin_fetches);
    assert_eq!(a.peer_fetches, b.peer_fetches);
    assert_eq!(a.failover_fetches, b.failover_fetches);
    assert_eq!(a.failed_requests, b.failed_requests);
    assert_eq!(a.failover_histogram.count(), b.failover_histogram.count());
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.origin_bytes, b.origin_bytes);
    assert_eq!(a.cause, b.cause);
    assert_eq!(a.samples, b.samples);
}

proptest! {
    #[test]
    fn infinite_mttf_schedule_is_bit_identical_to_fault_free(
        m in 2usize..=4,
        seed in any::<u64>(),
    ) {
        const REQUESTS: usize = 1_000;
        const WARMUP: u64 = 200;
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = random_server_plan(m, &mut rng);
        let requests = random_requests(m, REQUESTS, &mut rng);
        let object_bytes = |site: u32, object: u32| 1 + (site as u64 * 131 + object as u64 * 17) % 64;
        let config = SimConfig::default();

        // MTTF defaults to ∞ with no origin outages: nothing can ever fire.
        let params = FaultParams::default();
        prop_assert!(params.is_zero_fault());
        let schedule = FaultSchedule::generate(&params, FAULT_N_SERVERS, REQUESTS as u64);

        let plain = simulate_server(
            &plan,
            &config,
            requests.iter().copied(),
            WARMUP,
            object_bytes,
            Box::new(LruCache::new(plan.cache_bytes)),
        );
        let faulted = simulate_server_faulted(
            &plan,
            &config,
            requests.iter().copied(),
            WARMUP,
            object_bytes,
            Box::new(LruCache::new(plan.cache_bytes)),
            Some(&schedule),
        );
        assert_server_reports_identical(&plain, &faulted);
    }
}

// ---------------------------------------------------------------------------
// Oracle 3a: a server plan's on-demand failover ranking vs. the placement's
// own `ranked_holders`, and the placement's cached replicator index vs. a
// fresh column scan, across random add/remove sequences. Hop distances are
// drawn from a tiny range so that replica/replica and replica/primary ties
// are the common case — ties are where the SN-pointer pinning and the
// primary-last rule decide the order.
// ---------------------------------------------------------------------------

/// A random instance whose hop distances all lie in `1..=max_hop` (the
/// primary in `1..=max_hop + 1`), with room for every replica everywhere.
fn tied_problem(n: usize, m: usize, max_hop: u32, rng: &mut StdRng) -> PlacementProblem {
    let mut dist_ss = vec![0u32; n * n];
    for i in 0..n {
        for k in (i + 1)..n {
            let d = rng.gen_range(1..=max_hop);
            dist_ss[i * n + k] = d;
            dist_ss[k * n + i] = d;
        }
    }
    let dist_sp: Vec<u32> = (0..n * m).map(|_| rng.gen_range(1..=max_hop + 1)).collect();
    PlacementProblem::new(
        n,
        m,
        dist_ss,
        dist_sp,
        vec![100; m],
        vec![100 * m as u64; n],
        vec![1; n * m],
        vec![0.0; m],
        10.0,
        50,
        0.8,
    )
}

fn assert_routing_matches_placement(problem: &PlacementProblem, placement: &Placement) {
    let (n, m) = (problem.n_servers(), problem.m_sites());
    let index = placement.replicator_index();
    for j in 0..m {
        let scanned: Vec<usize> = (0..n).filter(|&i| placement.is_replicated(i, j)).collect();
        let indexed: Vec<usize> = index.site(j).iter().map(|&i| i as usize).collect();
        assert_eq!(indexed, scanned, "stale replicator index for site {j}");
        assert_eq!(placement.replicators_of(j), scanned);
    }
    for i in 0..n {
        let plan = ServerPlan::from_placement(problem, placement, i);
        for j in 0..m {
            let expected: Vec<Holder> = placement
                .ranked_holders(problem, i, j)
                .into_iter()
                .map(|h| Holder {
                    server: match h.holder {
                        Nearest::Primary => None,
                        Nearest::Server(k) => Some(k),
                    },
                    hops: h.dist,
                })
                .collect();
            assert_eq!(plan.holder_count(j), expected.len(), "count ({i},{j})");
            assert_eq!(plan.nearest_holder(j), expected[0], "head ({i},{j})");
            assert_eq!(plan.holders(j), expected, "ranking ({i},{j})");
        }
    }
}

proptest! {
    #[test]
    fn lazy_failover_ranking_matches_ranked_holders(
        n in 2usize..=6,
        m in 1usize..=4,
        max_hop in 1u32..=4,
        ops in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = tied_problem(n, m, max_hop, &mut rng);
        let mut placement = Placement::primaries_only(&problem);
        assert_routing_matches_placement(&problem, &placement);
        for _ in 0..ops {
            // The index is built now, so the mutation below must reset it.
            let _ = placement.replicator_index();
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..m));
            if placement.is_replicated(i, j) {
                placement.remove_replica(&problem, i, j);
            } else {
                placement.add_replica(&problem, i, j);
            }
            placement.validate(&problem);
            assert_routing_matches_placement(&problem, &placement);
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 2d: the bulk placement constructor vs. one `add_replica` per
// replica in server-major order, and the heuristics built on it vs. their
// original sequential loops (kept here as test-local oracles). Hop
// distances are tiny so peer/peer and peer/primary ties are the common
// case, and 0-hop pairs (a server co-located with a peer or with a site's
// primary) make the "a replicator is its own SN" override observable.
// ---------------------------------------------------------------------------

/// Hop distances in `0..=max_hop` (primary in `0..=max_hop + 1`), random
/// site sizes, capacities and (partly zero) demands.
fn tied_knapsack_problem(n: usize, m: usize, max_hop: u32, rng: &mut StdRng) -> PlacementProblem {
    let mut dist_ss = vec![0u32; n * n];
    for i in 0..n {
        for k in (i + 1)..n {
            let d = rng.gen_range(0..=max_hop);
            dist_ss[i * n + k] = d;
            dist_ss[k * n + i] = d;
        }
    }
    let dist_sp: Vec<u32> = (0..n * m).map(|_| rng.gen_range(0..=max_hop + 1)).collect();
    let site_bytes: Vec<u64> = (0..m).map(|_| 100 * rng.gen_range(1u64..=4)).collect();
    let total_bytes: u64 = site_bytes.iter().sum();
    let capacities: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=total_bytes)).collect();
    let demand: Vec<u64> = (0..n * m).map(|_| rng.gen_range(0u64..6)).collect();
    PlacementProblem::new(
        n,
        m,
        dist_ss,
        dist_sp,
        site_bytes,
        capacities,
        demand,
        vec![0.0; m],
        10.0,
        50,
        0.8,
    )
}

/// `sites[i]` added to server `i` one `add_replica` at a time, servers in
/// ascending order.
fn server_major_add_replica(problem: &PlacementProblem, sites: &[Vec<usize>]) -> Placement {
    let mut placement = Placement::primaries_only(problem);
    for (i, row) in sites.iter().enumerate() {
        for &j in row {
            placement.add_replica(problem, i, j);
        }
    }
    placement
}

fn assert_placements_identical(problem: &PlacementProblem, a: &Placement, b: &Placement) {
    let (n, m) = (problem.n_servers(), problem.m_sites());
    assert_eq!(a.replica_count(), b.replica_count(), "replica_count");
    for i in 0..n {
        assert_eq!(a.free_bytes(i), b.free_bytes(i), "free bytes of server {i}");
        for j in 0..m {
            assert_eq!(a.is_replicated(i, j), b.is_replicated(i, j), "x ({i},{j})");
            assert_eq!(a.nearest(i, j), b.nearest(i, j), "SN ({i},{j})");
        }
    }
    assert_eq!(*a.replicator_index(), *b.replicator_index(), "index");
}

/// `greedy_local`'s original loop: each server sorts by density and fills
/// with `fits` + `add_replica`.
fn greedy_local_sequential(problem: &PlacementProblem) -> Placement {
    let (n, m) = (problem.n_servers(), problem.m_sites());
    let mut placement = Placement::primaries_only(problem);
    for i in 0..n {
        let mut order: Vec<usize> = (0..m).collect();
        let density = |j: usize| {
            problem.requests(i, j) as f64 * problem.dist_primary(i, j) as f64
                / problem.site_bytes[j].max(1) as f64
        };
        order.sort_by(|&a, &b| {
            density(b)
                .partial_cmp(&density(a))
                .expect("densities are finite")
                .then(a.cmp(&b))
        });
        for j in order {
            if problem.requests(i, j) > 0 && placement.fits(problem, i, j) {
                placement.add_replica(problem, i, j);
            }
        }
    }
    placement
}

/// `popularity_placement`'s original loop: sites by total demand, each at
/// every server where it fits, via `add_replica`.
fn popularity_sequential(problem: &PlacementProblem) -> Placement {
    let (n, m) = (problem.n_servers(), problem.m_sites());
    let mut placement = Placement::primaries_only(problem);
    let mut sites: Vec<usize> = (0..m).collect();
    let demand_of = |j: usize| -> u64 { (0..n).map(|i| problem.requests(i, j)).sum() };
    sites.sort_by_key(|&j| std::cmp::Reverse(demand_of(j)));
    for j in sites {
        for i in 0..n {
            if placement.fits(problem, i, j) {
                placement.add_replica(problem, i, j);
            }
        }
    }
    placement
}

/// `adhoc_split`'s original replay: greedy-global on shrunk capacities,
/// then one `add_replica` per replica against the full problem.
fn adhoc_sequential(problem: &PlacementProblem, cache_fraction: f64) -> Placement {
    let mut shrunk = problem.clone();
    shrunk.capacities = problem
        .capacities
        .iter()
        .map(|&c| ((c as f64) * (1.0 - cache_fraction)).floor() as u64)
        .collect();
    let outcome = greedy_global(&shrunk);
    let sites: Vec<Vec<usize>> = (0..problem.n_servers())
        .map(|i| outcome.placement.sites_at(i))
        .collect();
    server_major_add_replica(problem, &sites)
}

proptest! {
    #[test]
    fn bulk_placement_matches_server_major_add_replica(
        n in 1usize..=8,
        m in 1usize..=5,
        max_hop in 1u32..=4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = tied_knapsack_problem(n, m, max_hop, &mut rng);
        // A random subset of sites per server that fits its capacity, in
        // random order (the order within a server must not matter).
        let sites: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut free = problem.capacities[i];
                let mut row: Vec<usize> = (0..m).collect();
                row.shuffle(&mut rng);
                row.retain(|&j| {
                    let take = rng.gen_bool(0.6) && problem.site_bytes[j] <= free;
                    if take {
                        free -= problem.site_bytes[j];
                    }
                    take
                });
                row
            })
            .collect();
        let bulk = Placement::from_server_sites(&problem, &sites);
        bulk.validate(&problem);
        assert_placements_identical(&problem, &bulk, &server_major_add_replica(&problem, &sites));
        let mut rebuilt = bulk.clone();
        rebuilt.rebuild_nearest(&problem);
        assert_placements_identical(&problem, &bulk, &rebuilt);
    }

    #[test]
    fn bulk_built_heuristics_match_their_sequential_loops(
        n in 1usize..=8,
        m in 1usize..=6,
        max_hop in 1u32..=4,
        cache_fraction in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let problem = tied_knapsack_problem(n, m, max_hop, &mut rng);
        let local = greedy_local(&problem);
        local.validate(&problem);
        assert_placements_identical(&problem, &local, &greedy_local_sequential(&problem));
        let popular = popularity_placement(&problem);
        popular.validate(&problem);
        assert_placements_identical(&problem, &popular, &popularity_sequential(&problem));
        let adhoc = adhoc_split(&problem, cache_fraction);
        adhoc.validate(&problem);
        assert_placements_identical(
            &problem,
            &adhoc,
            &adhoc_sequential(&problem, cache_fraction),
        );
    }
}

// ---------------------------------------------------------------------------
// Oracle 3b: the windowed timeline vs. the run-level counters — the same
// stream tallied by two independent accumulators (per-window grid vs. flat
// report fields). Summing every window must reproduce the run totals
// exactly, whatever eviction policy backs the cache.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn windowed_counters_sum_to_run_level_for_every_policy(
        m in 2usize..=4,
        width in 1u64..=64,
        seed in any::<u64>(),
    ) {
        const REQUESTS: usize = 1_000;
        const WARMUP: u64 = 200;
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = random_server_plan(m, &mut rng);
        let requests = random_requests(m, REQUESTS, &mut rng);
        let object_bytes = |site: u32, object: u32| 1 + (site as u64 * 131 + object as u64 * 17) % 64;
        let config = SimConfig {
            window: Some(width),
            ..Default::default()
        };
        for name in cdn_cache::POLICY_NAMES {
            let cache = cdn_cache::by_name(name, plan.cache_bytes)
                .unwrap_or_else(|e| panic!("{e}"));
            let r = simulate_server_faulted(
                &plan,
                &config,
                requests.iter().copied(),
                WARMUP,
                object_bytes,
                cache,
                None,
            );
            let tl = r.timeline.as_ref().expect("timeline enabled");
            let sum = |f: fn(&cdn_sim::WindowStats) -> u64| -> u64 {
                tl.windows.iter().map(|(_, w)| f(w)).sum()
            };
            prop_assert_eq!(sum(|w| w.requests), r.measured_requests, "{}", name);
            prop_assert_eq!(sum(|w| w.local_requests), r.local_requests, "{}", name);
            prop_assert_eq!(sum(|w| w.cache_hits), r.cache_hits, "{}", name);
            prop_assert_eq!(sum(|w| w.replica_hits), r.replica_hits, "{}", name);
            prop_assert_eq!(sum(|w| w.origin_fetches), r.origin_fetches, "{}", name);
            prop_assert_eq!(sum(|w| w.peer_fetches), r.peer_fetches, "{}", name);
            prop_assert_eq!(sum(|w| w.failover_fetches), r.failover_fetches, "{}", name);
            prop_assert_eq!(sum(|w| w.failed_requests), r.failed_requests, "{}", name);
            prop_assert_eq!(sum(|w| w.cost_hops), r.cost_hops, "{}", name);
            prop_assert_eq!(sum(|w| w.total_bytes), r.total_bytes, "{}", name);
            prop_assert_eq!(sum(|w| w.origin_bytes), r.origin_bytes, "{}", name);
            // Every served (non-failed) request records exactly one latency
            // sample in its window's sketch.
            prop_assert_eq!(
                tl.windows.iter().map(|(_, w)| w.sketch.count()).sum::<u64>(),
                r.measured_requests - r.failed_requests,
                "{}", name
            );
            // Window ids are strictly increasing and keyed on stream ticks.
            for w in tl.windows.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "{}: window ids not increasing", name);
            }
        }
    }
}

/// System-level twin of the oracle above, at the thread counts CI exercises:
/// the full parallel runner, each eviction policy, 1 vs. 4 rayon threads.
/// The timeline must be identical at both thread counts and still sum to
/// the run-level counters.
#[test]
fn windowed_counters_survive_the_parallel_runner_at_1_and_4_threads() {
    use cdn_core::{Scenario, ScenarioConfig, Strategy};

    let mut cfg = ScenarioConfig::small();
    cfg.sim.window = Some(256);
    let scenario = Scenario::generate(&cfg);
    let plan = scenario.plan(Strategy::Hybrid);
    for name in cdn_cache::POLICY_NAMES {
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    scenario.simulate_with_cache(&plan.placement, &|bytes| {
                        cdn_cache::by_name(name, bytes).unwrap_or_else(|e| panic!("{e}"))
                    })
                })
        };
        let (t1, t4) = (run(1), run(4));
        let tl = t1
            .timeline
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: no timeline"));
        assert_eq!(
            Some(tl),
            t4.timeline.as_ref(),
            "{name}: thread-dependent timeline"
        );
        let sum = |f: fn(&cdn_sim::WindowStats) -> u64| -> u64 {
            tl.windows.iter().map(|(_, w)| f(w)).sum()
        };
        assert_eq!(sum(|w| w.requests), t1.measured_requests, "{name}");
        assert_eq!(sum(|w| w.cache_hits), t1.cache_hits, "{name}");
        assert_eq!(sum(|w| w.failed_requests), t1.failed_requests, "{name}");
        assert_eq!(sum(|w| w.total_bytes), t1.total_bytes, "{name}");
    }
}

// ---------------------------------------------------------------------------
// Oracle 3c: the deterministic quantile sketch vs. exact order statistics —
// every reported percentile must sit within the advertised relative error
// bound of the true (sorted) value, under the same rank convention.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn quantile_sketch_stays_within_relative_error_of_exact(
        raw in proptest::collection::vec(0.05f64..50_000.0, 1..400),
        qs in proptest::collection::vec(0.0f64..=1.0, 1..8),
    ) {
        let mut sketch = cdn_telemetry::QuantileSketch::default();
        for &v in &raw {
            sketch.record(v);
        }
        let mut sorted = raw.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as u64;
        for &q in &qs {
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let exact = sorted[(rank - 1) as usize];
            let got = sketch.percentile(q).expect("non-empty sketch");
            prop_assert!(
                (got - exact).abs() <= exact * cdn_telemetry::RELATIVE_ERROR,
                "q={q}: sketch {got} vs exact {exact} (n={n})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Oracle 4: metamorphic eviction-policy invariants over random op sequences.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn eviction_policies_respect_capacity_and_keep_the_latest_access(
        ops in proptest::collection::vec((0u32..24, 1u64..80), 1..40),
    ) {
        const CAPACITY: u64 = 64;
        // delayed-lru filters first-touch admissions, so the residency
        // half of the invariant only applies to the other five policies;
        // the byte-accounting half applies to all six.
        for name in cdn_cache::POLICY_NAMES {
            let mut cache = cdn_cache::by_name(name, CAPACITY)
                .unwrap_or_else(|e| panic!("{e}"));
            for &(key, bytes) in &ops {
                let key = ObjectKey::new(key % 3, key);
                cache.access(key, bytes);
                prop_assert!(cache.used_bytes() <= cache.capacity_bytes(),
                    "{name}: {} bytes used of {}", cache.used_bytes(), cache.capacity_bytes());
                if bytes <= CAPACITY && name != "delayed-lru" {
                    prop_assert!(cache.contains(key),
                        "{name} evicted the object it just admitted ({key:?}, {bytes} bytes)");
                }
            }
        }
        // delayed-lru's own contract: an admissible object touched twice
        // in a row is resident.
        let mut dlru = cdn_cache::by_name("delayed-lru", CAPACITY).unwrap();
        let key = ObjectKey::new(0, 999);
        dlru.access(key, 8);
        dlru.access(key, 8);
        prop_assert!(dlru.contains(key), "delayed-lru dropped a twice-touched object");
    }
}

// ---------------------------------------------------------------------------
// Oracle 5: the CSR replay partition (counting scatter into packed slots)
// vs. the straightforward push-based partition it replaced.
// ---------------------------------------------------------------------------

/// Reference partition: stable sort by timestamp, then push each clamped
/// request onto its server's growing stream.
fn push_partition(
    mut events: Vec<TraceEvent>,
    n_servers: usize,
    m_sites: usize,
    objects_per_site: usize,
) -> Vec<Vec<Request>> {
    // splitmix64 finaliser: the documented key -> server hash.
    fn mix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
    events.sort_by_key(|e| e.timestamp_us);
    let mut streams = vec![Vec::new(); n_servers];
    for e in &events {
        let (site, object) = unpack_key(e.key);
        streams[(mix64(e.key) % n_servers as u64) as usize].push(Request {
            site: site % m_sites as u32,
            object: object % objects_per_site as u32,
            flavor: Flavor::Normal,
        });
    }
    streams
}

/// A catalog side: small (1 and non-powers of two included) or wide
/// enough that site and object bits together fill most of a 32-bit slot.
fn catalog_side() -> impl Strategy<Value = usize> {
    prop_oneof![3 => 1usize..=40, 1 => 1_000usize..=65_535]
}

proptest! {
    #[test]
    fn csr_replay_partition_matches_push_partition(
        n_servers in 1usize..=7,
        m_sites in catalog_side(),
        objects_per_site in catalog_side(),
        len in 0usize..600,
        ts_span in 1u64..50,
        sorted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events: Vec<TraceEvent> = (0..len)
            .map(|_| {
                // Half the keys name catalog entries (and repeat), half are
                // arbitrary 64-bit keys far outside the catalog.
                let key = if rng.gen_bool(0.5) {
                    pack_key(rng.gen_range(0..m_sites as u32), rng.gen_range(0..8))
                } else {
                    rng.gen()
                };
                // A narrow timestamp range forces many ties.
                TraceEvent { key, timestamp_us: rng.gen_range(0..ts_span) }
            })
            .collect();
        if sorted {
            events.sort_by_key(|e| e.timestamp_us);
        }
        let expect = push_partition(events.clone(), n_servers, m_sites, objects_per_site);
        let csr = ReplayStreams::from_events(events, n_servers, m_sites, objects_per_site);
        let lengths: Vec<u64> = expect.iter().map(|s| s.len() as u64).collect();
        prop_assert_eq!(csr.lengths(), lengths);
        prop_assert_eq!(csr.total_events(), len as u64);
        for (server, stream) in expect.iter().enumerate() {
            let got: Vec<Request> = csr.stream_for_server(server).collect();
            prop_assert_eq!(&got, stream, "server {}", server);
        }
    }
}
