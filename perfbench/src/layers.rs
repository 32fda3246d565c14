//! The traced run: per-layer numbers, timed around calls into each crate's
//! public functions from here, plus the `cdn-telemetry` registry counters
//! the crates already keep. Nothing inside the crates is instrumented for
//! the benchmark.

use crate::experiment::{self, check_outputs, EventsFile, Experiment, Quality};
use crate::report::Metric;
use crate::sys::{median, proc_status_mib, timed};
use crate::workloads::Workload;
use cdn_core::cache::{Cache, LruCache, ObjectKey};
use cdn_core::placement::hybrid::pure_caching;
use cdn_core::placement::{greedy_local, hybrid_greedy, HybridConfig, Placement};
use cdn_core::sim::{simulate_system_streams, ServerPlan};
use cdn_core::topology::{DistanceMatrix, HostPlacement, TransitStubTopology};
use cdn_core::workload::{read_events_file, DemandMatrix, Flavor, Request, SiteCatalog};
use cdn_core::{PlanResult, ReplayStreams, Scenario, Strategy};
use cdn_telemetry as telemetry;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seed offsets `Scenario::generate` derives its generators with. The
/// stand-alone layer calls below must reproduce the scenario's own inputs;
/// [`time_setup_layers`] checks that they do.
const HOSTS_SEED: u64 = 0x517c_c1b7_2722_0a95;
const CATALOG_SEED: u64 = 0x2545_f491_4f6c_dd1d;
const DEMAND_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Output of the traced run.
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// The simulated outcome, identical in every experiment of the run.
    pub quality: Quality,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Alternate untraced and traced experiments for about `seconds` (at least
/// one pair), then time each layer once on the same inputs. `events` is
/// the workload's exported trace: the replay workload's input, and on
/// every workload the input of the replay layers.
pub fn run(w: &Workload, events: &EventsFile, seconds: f64) -> Result<Traced, String> {
    let replay_input = w.replay.then_some(events);
    let mut failures = Vec::new();
    let mut untraced: Vec<Experiment> = Vec::new();
    let mut traced: Vec<Experiment> = Vec::new();
    let mut counters: Option<BTreeMap<String, u64>> = None;
    let start = Instant::now();
    loop {
        telemetry::set_enabled(false);
        untraced.push(experiment::run(w, replay_input, untraced.is_empty())?);
        telemetry::reset_metrics();
        telemetry::set_enabled(true);
        traced.push(experiment::run(w, replay_input, false)?);
        telemetry::set_enabled(false);
        let snapshot: BTreeMap<String, u64> =
            telemetry::registry().counter_values().into_iter().collect();
        match &counters {
            None => counters = Some(snapshot),
            Some(first) if *first != snapshot => {
                failures.push("registry counters differ between traced experiments".into())
            }
            Some(_) => {}
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / untraced.len() as f64 > seconds {
            break;
        }
    }
    for e in untraced.iter().chain(&traced) {
        failures.extend(e.failures.iter().cloned());
        if e.quality != untraced[0].quality {
            failures.push("simulated results differ between experiments".into());
        }
    }
    let attempted = (untraced.len() + traced.len() + 1) as u64;
    let total = |v: &[Experiment]| median(&v.iter().map(Experiment::total_s).collect::<Vec<_>>());
    let (untraced_s, traced_s) = (total(&untraced), total(&traced));

    let mut metrics = time_setup_layers(w, &mut failures);
    let scenario = Scenario::generate(&w.config);
    metrics.extend(time_planner_and_sim_layers(
        w,
        &scenario,
        events,
        &mut failures,
    ));
    metrics.extend(counter_metrics(&counters.unwrap_or_default()));
    metrics.push(Metric::real(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
        "%",
        format!(
            "traced {traced_s:.3} s vs untraced {untraced_s:.3} s total_s, {} pair(s)",
            traced.len()
        ),
    ));
    Ok(Traced {
        metrics,
        quality: untraced.swap_remove(0).quality,
        attempted,
        failures,
    })
}

/// `cdn-topology` and `cdn-workload` generation, called the way
/// `Scenario::generate` calls them.
fn time_setup_layers(w: &Workload, failures: &mut Vec<String>) -> Vec<Metric> {
    let cfg = &w.config;
    let (topology, generate_s) = timed(|| TransitStubTopology::generate(&cfg.topology, cfg.seed));
    let hosts = HostPlacement::place(&topology, &cfg.hosts, cfg.seed ^ HOSTS_SEED);
    let rows = hosts.host_rows();
    let (distances, distances_s) = timed(|| DistanceMatrix::compute(&topology.graph, &rows));
    let (catalog, catalog_s) =
        timed(|| SiteCatalog::generate(&cfg.workload, cfg.seed ^ CATALOG_SEED));
    let (demand, demand_s) =
        timed(|| DemandMatrix::generate(&catalog, cfg.hosts.n_servers, cfg.seed ^ DEMAND_SEED));
    let nodes = topology.graph.n_nodes() as u64;
    let host_dist_sum: u64 = (0..rows.len())
        .map(|h| u64::from(distances.host_dist(0, h)))
        .sum();
    drop((topology, distances));

    let scenario = Scenario::generate(cfg);
    let scenario_dist_sum: u64 = (0..cfg.hosts.n_servers)
        .map(|k| u64::from(scenario.problem.dist_servers(0, k)))
        .chain(
            (0..scenario.problem.m_sites()).map(|j| u64::from(scenario.problem.dist_primary(0, j))),
        )
        .sum();
    if nodes != scenario.topology.graph.n_nodes() as u64
        || rows != scenario.hosts.host_rows()
        || host_dist_sum != scenario_dist_sum
        || catalog.total_bytes() != scenario.catalog.total_bytes()
        || demand.grand_total() != scenario.demand.grand_total()
    {
        failures.push("stand-alone layer calls do not reproduce the scenario's inputs".into());
    }
    vec![
        Metric::real(
            "topology.generate_s",
            generate_s,
            "s",
            "-> setup_s (large-cold)",
        ),
        Metric::real(
            "topology.distances_s",
            distances_s,
            "s",
            "-> setup_s (large-cold)",
        ),
        Metric::count("topology.nodes", nodes, "count", ""),
        Metric::real("workload.catalog_s", catalog_s, "s", "-> setup_s"),
        Metric::real("workload.demand_s", demand_s, "s", "-> setup_s"),
    ]
}

/// Request generation, the planner, cache and simulator layers, and on a
/// replay workload the trace codec and partition.
fn time_planner_and_sim_layers(
    w: &Workload,
    scenario: &Scenario,
    events: &EventsFile,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let problem = &scenario.problem;
    let trace = &scenario.trace;
    let n = problem.n_servers();
    let mut metrics = Vec::new();

    // cdn-workload: drain every server's request stream on this thread.
    let trace_len: u64 = (0..n).map(|i| trace.len_for_server(i)).sum();
    let (_, stream_s) = timed(|| {
        (0..n)
            .flat_map(|i| trace.stream_for_server(i))
            .fold(0u64, |acc, r| acc.wrapping_add(u64::from(r.object)))
    });
    metrics.push(Metric::real(
        "workload.stream_mreq_per_s",
        trace_len as f64 / stream_s / 1e6,
        "Mreq/s",
        format!("{trace_len} requests, 1 thread -> sim_mreq_per_s (paper-hybrid)"),
    ));

    // cdn-lru-model + cdn-placement: build the oracle, then search with it.
    let (oracle, oracle_build_s) = timed(|| w.model.oracle_for(problem));
    let (placement, search_s): (Placement, f64) = timed(|| match w.strategy {
        Strategy::Hybrid => {
            hybrid_greedy(problem, oracle.as_ref(), &HybridConfig::default()).placement
        }
        Strategy::Caching => pure_caching(problem, oracle.as_ref()).placement,
        Strategy::GreedyLocal => greedy_local(problem),
        other => unreachable!("no workload plans {}", other.name()),
    });
    drop(oracle);
    let plan = PlanResult {
        strategy: w.strategy,
        placement,
        predicted_cost: 0.0,
        hit_ratios: None,
    };
    metrics.push(Metric::real(
        "lru_model.oracle_build_s",
        oracle_build_s,
        "s",
        format!("{} model -> plan_s", w.model.name()),
    ));
    metrics.push(Metric::real(
        "placement.search_s",
        search_s,
        "s",
        format!("{} -> plan_s", w.strategy.name()),
    ));

    // cdn-sim: per-server plans; cdn-cache: construction at the runner's
    // size hint for every server.
    let (cache_bytes, server_plans_s) = timed(|| {
        (0..n)
            .map(|i| ServerPlan::from_placement(problem, &plan.placement, i).cache_bytes)
            .collect::<Vec<u64>>()
    });
    metrics.push(Metric::real(
        "sim.server_plans_s",
        server_plans_s,
        "s",
        "1 thread -> sim_mreq_per_s (large-cold)",
    ));
    let total_objects: usize = scenario
        .catalog
        .sites
        .iter()
        .map(|s| s.object_sizes.len())
        .sum();
    let mean_object_bytes = scenario.catalog.total_bytes() as f64 / total_objects as f64;
    let expected = |bytes: u64| (bytes as f64 / mean_object_bytes).ceil() as usize;
    let (_, construct_s) = timed(|| {
        for &bytes in &cache_bytes {
            black_box(LruCache::with_expected_objects(bytes, expected(bytes)));
        }
    });
    metrics.push(Metric::real(
        "cache.construct_s",
        construct_s,
        "s",
        format!("{n} caches -> sim_mreq_per_s"),
    ));

    // Replay layers: decode, partition, simulate the partitioned streams.
    let (streams, replay_metrics) = time_replay_layers(w, scenario, &plan, events, failures);
    metrics.extend(replay_metrics);

    // cdn-cache: one server's cacheable key stream through a stand-alone
    // LRU (keys collected first, so only cache operations are timed).
    let size =
        |r: &Request| scenario.catalog.sites[r.site as usize].object_sizes[r.object as usize];
    let (server, keys) = (0..n)
        .map(|i| {
            let replicated = |site: u32| plan.placement.is_replicated(i, site as usize);
            let stream: Box<dyn Iterator<Item = Request>> = if w.replay {
                Box::new(streams.stream_for_server(i))
            } else {
                Box::new(trace.stream_for_server(i))
            };
            let keys: Vec<(ObjectKey, u64)> = stream
                .filter(|r| r.flavor != Flavor::Uncacheable && !replicated(r.site))
                .map(|r| (ObjectKey::new(r.site, r.object), size(&r)))
                .collect();
            (i, keys)
        })
        .find(|(_, keys)| !keys.is_empty())
        .unwrap_or_default();
    let mut cache =
        LruCache::with_expected_objects(cache_bytes[server], expected(cache_bytes[server]));
    let (hits, op_s) = timed(|| keys.iter().filter(|&&(k, b)| cache.access(k, b)).count());
    let ops = keys.len().max(1) as f64;
    metrics.push(Metric::real(
        "cache.op_ns",
        op_s / ops * 1e9,
        "ns",
        format!("server {server}, {} lookups -> sim_mreq_per_s", keys.len()),
    ));
    metrics.push(Metric::real(
        "cache.hit_ratio",
        hits as f64 / ops,
        "ratio",
        format!("server {server}"),
    ));
    metrics
}

/// `cdn-workload` trace codec and `cdn-core` replay partition, then the
/// simulator over the partitioned streams (what `replay_events` runs).
fn time_replay_layers(
    w: &Workload,
    scenario: &Scenario,
    plan: &PlanResult,
    file: &EventsFile,
    failures: &mut Vec<String>,
) -> (ReplayStreams, Vec<Metric>) {
    let problem = &scenario.problem;
    let (decoded, decode_s) = timed(|| read_events_file(&file.path));
    let rss_after_decode = proc_status_mib("VmRSS").unwrap_or(0.0);
    let events = decoded.unwrap_or_else(|e| {
        failures.push(format!("{}: {e}", file.path.display()));
        Vec::new()
    });
    let n_events = events.len() as u64;
    if n_events != file.declared {
        failures.push(format!(
            "decoded {n_events} events, header declares {}",
            file.declared
        ));
    }
    let (streams, partition_s) = timed(|| {
        ReplayStreams::from_events(
            events,
            problem.n_servers(),
            problem.m_sites(),
            w.config.workload.objects_per_site,
        )
    });
    let lengths = streams.lengths();
    let (report, simulate_s) = timed(|| {
        simulate_system_streams(
            problem,
            &plan.placement,
            &scenario.catalog,
            &w.config.sim,
            None,
            &lengths,
            |server| streams.stream_for_server(server),
        )
    });
    failures.extend(check_outputs(&report, file.declared));
    let metrics = vec![
        Metric::real(
            "replay.decode_s",
            decode_s,
            "s",
            "read_events_file -> sim_mreq_per_s",
        ),
        Metric::real("replay.partition_s", partition_s, "s", "-> sim_mreq_per_s"),
        Metric::real("replay.simulate_s", simulate_s, "s", "-> sim_mreq_per_s"),
        Metric::count("replay.events", n_events, "count", ""),
        Metric::count("replay.file_bytes", file.bytes, "bytes", ""),
        Metric::real(
            "replay.rss_after_decode_mib",
            rss_after_decode,
            "MiB",
            "-> peak_rss_mib",
        ),
    ];
    (streams, metrics)
}

/// The registry counters a traced experiment leaves, reported exactly.
fn counter_metrics(counters: &BTreeMap<String, u64>) -> Vec<Metric> {
    let get = |name: &str| counters.get(name).copied().unwrap_or(0);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut metrics: Vec<Metric> = [
        ("lru_model.evaluations", "lru_model.evaluations"),
        ("lru_model.series_terms", "lru_model.series_terms"),
        ("lru_model.tail_cutoffs", "lru_model.tail_cutoffs"),
        ("placement.iterations", "placement.iterations"),
        (
            "placement.candidates_evaluated",
            "placement.candidates_evaluated",
        ),
        (
            "placement.candidates_skipped_lazy",
            "placement.candidates_skipped_lazy",
        ),
        (
            "placement.remote_gain_reused",
            "placement.remote_gain_reused",
        ),
        ("placement.hit_rows_reused", "placement.hit_rows_reused"),
        ("placement.replicas_placed", "placement.replicas_placed"),
        ("sim.cache_evictions", "sim.cache_evictions"),
        ("sim.cache_rejections", "sim.cache_rejections"),
        ("sim.requests_total", "sim.requests_total"),
        ("sim.local_requests", "sim.local_requests"),
        ("sim.peer_fetches", "sim.peer_fetches"),
        ("sim.origin_fetches", "sim.origin_fetches"),
        ("sim.failover_fetches", "sim.failover_fetches"),
        ("sim.delayed_hits", "sim.cause.delayed_hit"),
        ("fault.server_down_windows", "fault.server_down_windows"),
    ]
    .iter()
    .map(|&(name, counter)| Metric::count(name, get(counter), "count", "registry"))
    .collect();
    let evaluated = get("placement.candidates_evaluated");
    let skipped = get("placement.candidates_skipped_lazy");
    metrics.push(Metric::real(
        "placement.lazy_skip_ratio",
        ratio(skipped, evaluated + skipped),
        "ratio",
        "skipped / (evaluated + skipped)",
    ));
    metrics.push(Metric::real(
        "sim.failover_share",
        ratio(get("sim.failover_fetches"), get("sim.requests_measured")),
        "ratio",
        "failover / measured",
    ));
    metrics
}
