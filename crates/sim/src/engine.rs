//! The per-server request loop.

use crate::fault::FaultSchedule;
use crate::metrics::{Cause, CauseBreakdown, LatencyHistogram, RequestSample};
use crate::plan::{ConsistencyMode, Holder, ServerPlan, SimConfig};
use crate::timeline::{ServerTimeline, TimelineAcc};
use cdn_cache::{Cache, CacheStats, ObjectKey};
use cdn_telemetry as telemetry;
use cdn_workload::{Flavor, Request};
use std::collections::HashMap;

/// In-flight fetch state for delayed-hit coalescing: the configured fetch
/// latency plus a map of object -> (tick the fetch completes, fetch hops).
type InflightTable = (u64, HashMap<ObjectKey, (u64, u32)>);

/// Per-site tallies over one server's *measured* requests, gathered only
/// when telemetry is enabled. Everything here is deterministic: the
/// request stream, routing, and fault schedule are all seed-derived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteObs {
    /// Served locally (replica hit, fresh cache hit, or a delayed hit
    /// riding a pending fetch that lands at this server).
    pub local_hits: u64,
    /// Travelled to a holder with no dead copies skipped.
    pub remote_fetches: u64,
    /// Travelled to a holder after skipping at least one dead copy.
    pub failovers: u64,
    /// No live copy existed anywhere.
    pub failed: u64,
}

/// Deterministic per-server observability: per-site tallies plus a
/// whole-stream (warm-up included) snapshot of the cache's own counters —
/// the eviction/insertion/rejection totals the trace reports.
#[derive(Debug, Clone)]
pub struct EngineObs {
    pub per_site: Vec<SiteObs>,
    pub cache: CacheStats,
}

/// Per-server simulation outcome.
#[derive(Debug)]
pub struct ServerReport {
    pub server: usize,
    pub histogram: LatencyHistogram,
    /// Hops travelled beyond the first hop, summed over measured requests.
    pub cost_hops: u64,
    pub total_requests: u64,
    pub measured_requests: u64,
    pub local_requests: u64,
    pub cache_hits: u64,
    pub replica_hits: u64,
    /// Measured requests coalesced onto an in-flight fetch of the same
    /// object (delayed hits; zero unless [`SimConfig::fetch_latency`] is
    /// positive). Disjoint from every other bucket.
    pub delayed_hits: u64,
    /// Measured requests that travelled to a primary (origin) site.
    pub origin_fetches: u64,
    /// Measured requests served by another CDN server's replica.
    pub peer_fetches: u64,
    /// Measured remote fetches that skipped at least one dead holder
    /// before finding a live copy (disjoint from `origin_fetches` and
    /// `peer_fetches`).
    pub failover_fetches: u64,
    /// Measured requests for which no live copy existed anywhere.
    pub failed_requests: u64,
    /// Latency distribution of the failover fetches alone — the degraded
    /// tail that fault injection creates.
    pub failover_histogram: LatencyHistogram,
    /// Bytes of measured responses, total and the share fetched from
    /// origin — CDNs bill on egress, so byte-weighted offload matters as
    /// much as request-weighted.
    pub total_bytes: u64,
    pub origin_bytes: u64,
    /// Telemetry tallies; `None` when telemetry is disabled.
    pub obs: Option<EngineObs>,
    /// Per-cause latency attribution over this server's measured requests
    /// (always collected — a handful of adds per request).
    pub cause: CauseBreakdown,
    /// 1-in-N sampled request paths (empty unless
    /// [`SimConfig::sample_every`] is set), in stream order.
    pub samples: Vec<RequestSample>,
    /// Windowed timeline of this server's measured requests (`None` unless
    /// [`SimConfig::window`] is a positive width). Purely observational:
    /// enabling it never perturbs any other report field.
    pub timeline: Option<ServerTimeline>,
}

/// Attribution label for a routed request — mirrors exactly the disjoint
/// bucket accounting below, so per-cause counts sum to report totals.
#[inline]
fn cause_of(routed: &Routed) -> Cause {
    match routed.resolution {
        Resolution::Failed => Cause::Failed,
        Resolution::Replica => Cause::ReplicaHit,
        Resolution::CacheHit => Cause::CacheHit,
        _ if routed.dead_skipped > 0 => Cause::Failover,
        _ if routed.from_origin => Cause::OriginFetch,
        _ => Cause::RemoteReplica,
    }
}

/// How a single request was resolved (exposed for fine-grained tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Site replicated at the first-hop server.
    Replica,
    /// Fresh cache hit at the first-hop server.
    CacheHit,
    /// Cache hit on an expired object: refresh from the nearest copy.
    CacheRefresh,
    /// Cache miss: fetch from the nearest copy (and admit).
    CacheMiss,
    /// Uncacheable: fetch from the nearest copy, bypassing the cache.
    Bypass,
    /// No live copy anywhere: the request was dropped.
    Failed,
}

/// Outcome of fault-aware resolution (see [`resolve_faulted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Routed {
    pub resolution: Resolution,
    /// Hops to the holder that served the request (0 for local service or
    /// failure).
    pub hops: u32,
    /// Dead holders (and/or a dead first-hop server) skipped before the
    /// request completed — each one costs a retry penalty.
    pub dead_skipped: u32,
    /// The serving holder was the primary (origin) site. Only meaningful
    /// for remote resolutions.
    pub from_origin: bool,
}

/// Resolve one request against a server's plan and cache; returns the
/// resolution and the hops travelled beyond the first-hop server.
#[inline]
pub fn resolve(
    plan: &ServerPlan,
    cache: &mut dyn Cache,
    req: Request,
    object_bytes: u64,
    consistency: ConsistencyMode,
) -> (Resolution, u32) {
    let site = req.site as usize;
    if plan.replicated[site] {
        // Replicas are kept consistent by the CDN; even expired-flagged
        // requests are served locally.
        return (Resolution::Replica, 0);
    }
    let hops = plan.nearest_hops[site];
    match req.flavor {
        Flavor::Uncacheable => (Resolution::Bypass, hops),
        Flavor::Normal => {
            let key = ObjectKey::new(req.site, req.object);
            if cache.access(key, object_bytes) {
                (Resolution::CacheHit, 0)
            } else {
                (Resolution::CacheMiss, hops)
            }
        }
        Flavor::Expired => {
            let key = ObjectKey::new(req.site, req.object);
            if cache.access(key, object_bytes) {
                match consistency {
                    // Strong: the stale copy must be refreshed from the
                    // nearest replica before being served.
                    ConsistencyMode::Strong => (Resolution::CacheRefresh, hops),
                    // Weak: serve the (possibly stale) copy locally.
                    ConsistencyMode::Weak => (Resolution::CacheHit, 0),
                }
            } else {
                (Resolution::CacheMiss, hops)
            }
        }
    }
}

/// Walk `plan.holders(site)` from `start_rank`, skipping dead holders.
/// Returns `(hops, from_origin, dead_skipped)` of the first live copy, or
/// `None` when every holder is down. Rank 0 is read from the plan's
/// nearest-copy fields; the ranked list is only built when the walk has to
/// look past it.
#[inline]
fn first_live_holder(
    plan: &ServerPlan,
    site: usize,
    schedule: &FaultSchedule,
    tick: u64,
    mut start_rank: usize,
    mut dead: u32,
) -> Option<(u32, bool, u32)> {
    let alive = |h: &Holder| match h.server {
        None => !schedule.is_origin_down(tick),
        Some(k) => !schedule.is_server_down(k as usize, tick),
    };
    if start_rank == 0 {
        let head = plan.nearest_holder(site);
        if alive(&head) {
            return Some((head.hops, head.server.is_none(), dead));
        }
        dead += 1;
        start_rank = 1;
    }
    for h in &plan.holders(site)[start_rank..] {
        if alive(h) {
            return Some((h.hops, h.server.is_none(), dead));
        }
        dead += 1;
    }
    None
}

/// Fault-aware [`resolve`]: requests fail over along the distance-ranked
/// holder list to the next-nearest *live* copy, skipping crashed servers
/// (and, possibly, an unreachable origin).
///
/// Semantics:
/// * A down first-hop server serves nothing locally and its cache is not
///   touched (the contents survive the crash); the client retries against
///   the holder list directly, paying one skip for the dead first hop.
/// * A cache miss admits the object only if some live copy supplied it —
///   a [`Resolution::Failed`] request leaves the cache unchanged.
/// * Under [`ConsistencyMode::Strong`] an expired cache hit whose refresh
///   finds no live copy fails; under weak consistency the stale copy is
///   served locally without needing any holder.
///
/// With an all-alive schedule this is behaviourally identical to
/// [`resolve`]: rank 0 of `plan.holders(site)` is the nearest copy.
pub fn resolve_faulted(
    plan: &ServerPlan,
    cache: &mut dyn Cache,
    req: Request,
    object_bytes: u64,
    consistency: ConsistencyMode,
    schedule: &FaultSchedule,
    tick: u64,
) -> Routed {
    let site = req.site as usize;
    let local = |resolution| Routed {
        resolution,
        hops: 0,
        dead_skipped: 0,
        from_origin: false,
    };
    let remote = |resolution, (hops, from_origin, dead_skipped)| Routed {
        resolution,
        hops,
        dead_skipped,
        from_origin,
    };
    let failed = |dead_skipped| Routed {
        resolution: Resolution::Failed,
        hops: 0,
        dead_skipped,
        from_origin: false,
    };

    if schedule.is_server_down(plan.server, tick) {
        // First-hop down: no replica, no cache. If this server replicates
        // the site it heads its own holder list — skip that dead entry;
        // otherwise the failed first-hop attempt itself costs one skip.
        let start_rank = usize::from(plan.replicated[site]);
        return match first_live_holder(plan, site, schedule, tick, start_rank, 1) {
            Some(found) => remote(Resolution::Bypass, found),
            None => failed(1 + (plan.holder_count(site) - start_rank) as u32),
        };
    }
    if plan.replicated[site] {
        return local(Resolution::Replica);
    }
    let fetch = |dead0| first_live_holder(plan, site, schedule, tick, 0, dead0);
    let all_dead = plan.holder_count(site) as u32;
    match req.flavor {
        Flavor::Uncacheable => match fetch(0) {
            Some(found) => remote(Resolution::Bypass, found),
            None => failed(all_dead),
        },
        Flavor::Normal => {
            let key = ObjectKey::new(req.site, req.object);
            if cache.lookup(key) {
                local(Resolution::CacheHit)
            } else {
                match fetch(0) {
                    Some(found) => {
                        cache.insert(key, object_bytes);
                        remote(Resolution::CacheMiss, found)
                    }
                    None => failed(all_dead),
                }
            }
        }
        Flavor::Expired => {
            let key = ObjectKey::new(req.site, req.object);
            if cache.lookup(key) {
                match consistency {
                    ConsistencyMode::Strong => match fetch(0) {
                        Some(found) => remote(Resolution::CacheRefresh, found),
                        None => failed(all_dead),
                    },
                    ConsistencyMode::Weak => local(Resolution::CacheHit),
                }
            } else {
                match fetch(0) {
                    Some(found) => {
                        cache.insert(key, object_bytes);
                        remote(Resolution::CacheMiss, found)
                    }
                    None => failed(all_dead),
                }
            }
        }
    }
}

/// Run one server's full stream. `object_bytes(site, object)` supplies
/// sizes; `warmup` requests are processed but not measured. The cache is
/// used exactly as given — size it from `plan.cache_bytes` (as
/// [`crate::runner::simulate_system`] does) unless deliberately diverging,
/// e.g. to model a cache-less server.
pub fn simulate_server<I>(
    plan: &ServerPlan,
    config: &SimConfig,
    requests: I,
    warmup: u64,
    object_bytes: impl Fn(u32, u32) -> u64,
    cache: Box<dyn Cache>,
) -> ServerReport
where
    I: Iterator<Item = Request>,
{
    simulate_server_faulted(plan, config, requests, warmup, object_bytes, cache, None)
}

/// [`simulate_server`] with an optional fault schedule. `None` takes the
/// exact fault-free code path; a schedule with no down-windows produces
/// bit-identical reports to `None` (regression-guarded in the runner
/// tests). The tick passed to the schedule is the request's index in this
/// server's stream, counted from the stream start (warm-up included).
pub fn simulate_server_faulted<I>(
    plan: &ServerPlan,
    config: &SimConfig,
    requests: I,
    warmup: u64,
    object_bytes: impl Fn(u32, u32) -> u64,
    mut cache: Box<dyn Cache>,
    schedule: Option<&FaultSchedule>,
) -> ServerReport
where
    I: Iterator<Item = Request>,
{
    config.validate();
    let retry_penalty_ms = config
        .faults
        .map(|f| f.retry_penalty_ms)
        .unwrap_or_default();
    // The histograms live directly in the report: the two bin vectors are
    // the only heap state this loop needs, allocated once per server.
    let mut report = ServerReport {
        server: plan.server,
        histogram: LatencyHistogram::new(config.bin_ms, config.n_bins),
        cost_hops: 0,
        total_requests: 0,
        measured_requests: 0,
        local_requests: 0,
        cache_hits: 0,
        replica_hits: 0,
        delayed_hits: 0,
        origin_fetches: 0,
        peer_fetches: 0,
        failover_fetches: 0,
        failed_requests: 0,
        failover_histogram: LatencyHistogram::new(config.bin_ms, config.n_bins),
        total_bytes: 0,
        origin_bytes: 0,
        obs: None,
        cause: CauseBreakdown::default(),
        samples: Vec::new(),
        timeline: None,
    };
    let sample_every = config.sample_every.unwrap_or(0);
    // `None` and `Some(0)` both disable the timeline (`--window 0` is the
    // CLI's off switch); the disabled path is bit-identical to a build
    // without the feature.
    let window_width = config.window.unwrap_or(0);
    let mut timeline: Option<TimelineAcc> =
        (window_width > 0).then(|| TimelineAcc::new(window_width));
    // Per-site tallies: local to this server's loop, so plain (non-atomic)
    // counts; gated once per run on the global telemetry flag.
    let mut site_obs: Option<Vec<SiteObs>> =
        telemetry::enabled().then(|| vec![SiteObs::default(); plan.replicated.len()]);
    // In-flight fetch table for delayed-hit coalescing: object -> (tick
    // the pending fetch completes, hops that fetch travels). Allocated
    // only for a positive fetch latency; `None` and `Some(0)` take the
    // exact instant-fetch code path, bit for bit. The table is keyed on
    // the deterministic per-server stream tick, so it is byte-identical
    // at any thread or shard count, and entries are retired lazily when
    // the object is next touched.
    let mut inflight: Option<InflightTable> = config
        .fetch_latency
        .filter(|&l| l > 0)
        .map(|l| (l, HashMap::new()));

    for req in requests {
        let tick = report.total_requests;
        if let Some(tl) = timeline.as_mut() {
            // Roll windows *before* resolution mutates the cache, so a
            // closing window's occupancy/eviction snapshots exclude this
            // request. Only measured ticks open windows: they form a
            // contiguous suffix of the stream, so the lazy close is exact.
            if tick >= warmup {
                tl.roll(tick, cache.as_ref());
            }
        }
        let bytes = object_bytes(req.site, req.object);
        let routed = match schedule {
            None => {
                let (resolution, hops) =
                    resolve(plan, cache.as_mut(), req, bytes, config.consistency);
                Routed {
                    resolution,
                    hops,
                    dead_skipped: 0,
                    from_origin: plan.nearest_is_primary[req.site as usize],
                }
            }
            Some(schedule) => resolve_faulted(
                plan,
                cache.as_mut(),
                req,
                bytes,
                config.consistency,
                schedule,
                tick,
            ),
        };
        // Delayed-hit coalescing: any request for an object whose fetch is
        // still in flight rides that fetch — whether the cache already
        // admitted the object (a hit before the fetch landed) or declined
        // or evicted it (a miss re-requesting a pending object). A miss on
        // a non-pending object starts a new fetch; touching an object whose
        // fetch completed retires the table entry.
        let delayed_fetch = match inflight.as_mut() {
            Some((fetch_ticks, table))
                if matches!(
                    routed.resolution,
                    Resolution::CacheHit | Resolution::CacheMiss
                ) =>
            {
                let key = ObjectKey::new(req.site, req.object);
                match table.get(&key) {
                    Some(&(ready, fetch_hops)) if tick < ready => Some(fetch_hops),
                    _ => {
                        if routed.resolution == Resolution::CacheMiss {
                            table.insert(key, (tick + *fetch_ticks, routed.hops));
                        } else {
                            table.remove(&key);
                        }
                        None
                    }
                }
            }
            _ => None,
        };
        report.total_requests += 1;
        if report.total_requests <= warmup {
            continue;
        }
        report.measured_requests += 1;
        if let Some(obs) = site_obs.as_mut() {
            let o = &mut obs[req.site as usize];
            match routed.resolution {
                Resolution::Failed => o.failed += 1,
                _ if delayed_fetch.is_some() => o.local_hits += 1,
                Resolution::Replica | Resolution::CacheHit => o.local_hits += 1,
                _ if routed.dead_skipped > 0 => o.failovers += 1,
                _ => o.remote_fetches += 1,
            }
        }
        let failed = routed.resolution == Resolution::Failed;
        // With zero faults `dead_skipped` is 0 and the penalty term adds an
        // exact +0.0, keeping fault-free latencies bit-identical. A failed
        // request delivers nothing, so it is attributed zero latency.
        let penalty_ms = if failed || delayed_fetch.is_some() {
            0.0
        } else {
            retry_penalty_ms * routed.dead_skipped as f64
        };
        let latency = if failed {
            0.0
        } else if let Some(fetch_hops) = delayed_fetch {
            // The coalesced request rides the pending fetch: it pays that
            // fetch's transfer delay and no retry penalty of its own.
            config.hop_delay_ms * (1.0 + fetch_hops as f64)
        } else {
            config.hop_delay_ms * (1.0 + routed.hops as f64)
                + retry_penalty_ms * routed.dead_skipped as f64
        };
        let cause = if delayed_fetch.is_some() {
            Cause::DelayedHit
        } else {
            cause_of(&routed)
        };
        report.cause.record(cause, latency);
        if cause == Cause::Failover {
            report.cause.failover_surcharge_ms += penalty_ms;
        }
        if sample_every > 0 && tick % sample_every == 0 {
            report.samples.push(RequestSample {
                server: plan.server,
                index: tick,
                site: req.site,
                object: req.object,
                flavor: req.flavor,
                resolution: routed.resolution,
                cause,
                hops: routed.hops,
                dead_skipped: routed.dead_skipped,
                // `Routed::from_origin` is only meaningful for remote
                // resolutions; mask it for local/coalesced/failed ones.
                from_origin: routed.from_origin
                    && !matches!(
                        cause,
                        Cause::ReplicaHit | Cause::CacheHit | Cause::DelayedHit | Cause::Failed
                    ),
                latency_ms: latency,
                penalty_ms,
            });
        }
        if let Some(tl) = timeline.as_mut() {
            // Mirror the run-level accounting below, bucket by window, on
            // the identical code path — windowed counters summed over all
            // windows therefore equal the run-level counters exactly.
            tl.tally_site(req.site);
            let win = tl.current();
            win.requests += 1;
            if failed {
                win.failed_requests += 1;
            } else if delayed_fetch.is_some() {
                // Coalesced: bytes reach the client, but no hops or origin
                // traffic of this request's own.
                win.latency_sum_ms += latency;
                win.sketch.record(latency);
                win.total_bytes += bytes;
                win.delayed_hits += 1;
            } else {
                win.latency_sum_ms += latency;
                win.sketch.record(latency);
                win.cost_hops += routed.hops as u64;
                win.total_bytes += bytes;
                match routed.resolution {
                    Resolution::Replica => {
                        win.replica_hits += 1;
                        win.local_requests += 1;
                    }
                    Resolution::CacheHit => {
                        win.cache_hits += 1;
                        win.local_requests += 1;
                    }
                    _ => {
                        if routed.dead_skipped > 0 {
                            win.failover_fetches += 1;
                        } else if routed.from_origin {
                            win.origin_fetches += 1;
                        } else {
                            win.peer_fetches += 1;
                        }
                        if routed.from_origin {
                            win.origin_bytes += bytes;
                        }
                    }
                }
            }
        }
        if failed {
            // Nothing was delivered: no bytes, no hops, no latency sample.
            report.failed_requests += 1;
            continue;
        }
        if delayed_fetch.is_some() {
            // Coalesced onto the pending fetch: the bytes are delivered to
            // the client, but the request adds no network traffic (hops)
            // and no origin bytes of its own — that is the whole point of
            // delayed hits.
            report.total_bytes += bytes;
            report.histogram.record(latency);
            report.delayed_hits += 1;
            continue;
        }
        report.cost_hops += routed.hops as u64;
        report.total_bytes += bytes;
        report.histogram.record(latency);
        if routed.dead_skipped > 0 {
            report.failover_histogram.record(latency);
        }
        match routed.resolution {
            Resolution::Replica => {
                report.replica_hits += 1;
                report.local_requests += 1;
            }
            Resolution::CacheHit => {
                report.cache_hits += 1;
                report.local_requests += 1;
            }
            Resolution::CacheRefresh | Resolution::CacheMiss | Resolution::Bypass => {
                // The request travelled to a holder: a failover fetch if it
                // had to skip dead copies, otherwise origin or peer by who
                // answered. Byte accounting tracks the actual source either
                // way.
                if routed.dead_skipped > 0 {
                    report.failover_fetches += 1;
                } else if routed.from_origin {
                    report.origin_fetches += 1;
                } else {
                    report.peer_fetches += 1;
                }
                if routed.from_origin {
                    report.origin_bytes += bytes;
                }
            }
            Resolution::Failed => unreachable!("failed requests handled above"),
        }
    }
    report.timeline = timeline.map(|tl| tl.finish(plan.server, cache.as_ref()));
    report.obs = site_obs.map(|per_site| EngineObs {
        per_site,
        cache: *cache.stats(),
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultParams;
    use crate::plan::ConsistencyMode as CM;
    use cdn_cache::LruCache as Lru;

    fn plan(replicated: Vec<bool>, nearest: Vec<u32>, cache_bytes: u64) -> ServerPlan {
        // Minimal holder chains: the local replica when replicated, the
        // primary `nearest` hops away otherwise.
        let chains = replicated
            .iter()
            .zip(&nearest)
            .map(|(&r, &h)| {
                if r {
                    vec![Holder {
                        server: Some(0),
                        hops: 0,
                    }]
                } else {
                    vec![Holder {
                        server: None,
                        hops: h,
                    }]
                }
            })
            .collect();
        ServerPlan::from_chains(0, replicated, chains, cache_bytes)
    }

    fn req(site: u32, object: u32, flavor: Flavor) -> Request {
        Request {
            site,
            object,
            flavor,
        }
    }

    #[test]
    fn replica_requests_are_free() {
        let p = plan(vec![true], vec![0], 100);
        let mut cache = Lru::new(100);
        let (res, hops) = resolve(&p, &mut cache, req(0, 5, Flavor::Normal), 10, CM::Strong);
        assert_eq!(res, Resolution::Replica);
        assert_eq!(hops, 0);
        // Even expired requests are local on replicas.
        let (res, hops) = resolve(&p, &mut cache, req(0, 5, Flavor::Expired), 10, CM::Strong);
        assert_eq!(res, Resolution::Replica);
        assert_eq!(hops, 0);
    }

    #[test]
    fn miss_then_hit_sequence() {
        let p = plan(vec![false], vec![7], 100);
        let mut cache = Lru::new(100);
        let (res, hops) = resolve(&p, &mut cache, req(0, 1, Flavor::Normal), 10, CM::Strong);
        assert_eq!((res, hops), (Resolution::CacheMiss, 7));
        let (res, hops) = resolve(&p, &mut cache, req(0, 1, Flavor::Normal), 10, CM::Strong);
        assert_eq!((res, hops), (Resolution::CacheHit, 0));
    }

    #[test]
    fn expired_hit_pays_refresh() {
        let p = plan(vec![false], vec![4], 100);
        let mut cache = Lru::new(100);
        resolve(&p, &mut cache, req(0, 1, Flavor::Normal), 10, CM::Strong);
        let (res, hops) = resolve(&p, &mut cache, req(0, 1, Flavor::Expired), 10, CM::Strong);
        assert_eq!((res, hops), (Resolution::CacheRefresh, 4));
        // Refresh keeps the object cached: the next normal access hits.
        let (res, _) = resolve(&p, &mut cache, req(0, 1, Flavor::Normal), 10, CM::Strong);
        assert_eq!(res, Resolution::CacheHit);
    }

    #[test]
    fn weak_consistency_serves_stale_locally() {
        let p = plan(vec![false], vec![4], 100);
        let mut cache = Lru::new(100);
        resolve(&p, &mut cache, req(0, 1, Flavor::Normal), 10, CM::Weak);
        let (res, hops) = resolve(&p, &mut cache, req(0, 1, Flavor::Expired), 10, CM::Weak);
        assert_eq!((res, hops), (Resolution::CacheHit, 0));
    }

    #[test]
    fn uncacheable_bypasses_cache() {
        let p = plan(vec![false], vec![5], 100);
        let mut cache = Lru::new(100);
        let (res, hops) = resolve(
            &p,
            &mut cache,
            req(0, 1, Flavor::Uncacheable),
            10,
            CM::Strong,
        );
        assert_eq!((res, hops), (Resolution::Bypass, 5));
        // Not admitted: a subsequent normal request misses.
        let (res, _) = resolve(&p, &mut cache, req(0, 1, Flavor::Normal), 10, CM::Strong);
        assert_eq!(res, Resolution::CacheMiss);
    }

    #[test]
    fn simulate_server_counts_and_latencies() {
        let p = plan(vec![true, false], vec![0, 3], 1000);
        let cfg = SimConfig::default();
        let stream = vec![
            req(0, 1, Flavor::Normal),      // replica: 20 ms
            req(1, 1, Flavor::Normal),      // miss: 80 ms
            req(1, 1, Flavor::Normal),      // hit: 20 ms
            req(1, 2, Flavor::Uncacheable), // bypass: 80 ms
        ];
        let report = simulate_server(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
        );
        assert_eq!(report.total_requests, 4);
        assert_eq!(report.measured_requests, 4);
        assert_eq!(report.replica_hits, 1);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.local_requests, 2);
        assert_eq!(report.cost_hops, 6);
        assert!((report.histogram.mean() - (20.0 + 80.0 + 20.0 + 80.0) / 4.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_excluded_from_measurement() {
        let p = plan(vec![false], vec![3], 1000);
        let cfg = SimConfig::default();
        let stream = vec![req(0, 1, Flavor::Normal), req(0, 1, Flavor::Normal)];
        let report = simulate_server(
            &p,
            &cfg,
            stream.into_iter(),
            1,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
        );
        assert_eq!(report.total_requests, 2);
        assert_eq!(report.measured_requests, 1);
        // The warm-up miss populated the cache; the measured request hits.
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.cost_hops, 0);
    }

    #[test]
    fn windowed_timeline_mirrors_run_level_accounting() {
        let p = plan(vec![true, false], vec![0, 3], 1000);
        let cfg = SimConfig {
            window: Some(2),
            ..Default::default()
        };
        let stream = vec![
            req(0, 1, Flavor::Normal),      // tick 0: replica
            req(1, 1, Flavor::Normal),      // tick 1: miss
            req(1, 1, Flavor::Normal),      // tick 2: hit
            req(1, 2, Flavor::Uncacheable), // tick 3: bypass
            req(0, 2, Flavor::Normal),      // tick 4: replica
        ];
        let report = simulate_server(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
        );
        let tl = report
            .timeline
            .as_ref()
            .expect("window>0 builds a timeline");
        assert_eq!(tl.server, 0);
        let ids: Vec<u64> = tl.windows.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // Windowed counters sum to the run-level ones exactly.
        let sum = |f: fn(&crate::timeline::WindowStats) -> u64| {
            tl.windows.iter().map(|(_, w)| f(w)).sum::<u64>()
        };
        assert_eq!(sum(|w| w.requests), report.measured_requests);
        assert_eq!(sum(|w| w.cache_hits), report.cache_hits);
        assert_eq!(sum(|w| w.replica_hits), report.replica_hits);
        assert_eq!(sum(|w| w.cost_hops), report.cost_hops);
        assert_eq!(sum(|w| w.total_bytes), report.total_bytes);
        // Hot-site attribution: ties break toward the lower site id.
        assert_eq!(tl.windows[0].1.top_site, Some((0, 1)));
        assert_eq!(tl.windows[1].1.top_site, Some((1, 2)));
        assert_eq!(tl.windows[2].1.top_site, Some((0, 1)));
        // The cached object (10 bytes) is resident at every window close.
        assert!(tl.windows.iter().all(|(_, w)| w.cache_used_bytes == 10));
        // Disabled (None and Some(0) alike) leaves the field empty.
        for window in [None, Some(0)] {
            let cfg = SimConfig {
                window,
                ..Default::default()
            };
            let stream = vec![req(0, 1, Flavor::Normal)];
            let r = simulate_server(
                &p,
                &cfg,
                stream.into_iter(),
                0,
                |_, _| 10,
                Box::new(Lru::new(p.cache_bytes)),
            );
            assert!(r.timeline.is_none());
        }
    }

    #[test]
    fn timeline_windows_are_keyed_on_stream_ticks_not_measured_index() {
        // Warm-up ticks advance the window clock without recording: with
        // warmup 3 and width 2, the first measured tick (3) lands in
        // window 1, and window 0 never materialises.
        let p = plan(vec![false], vec![3], 1000);
        let cfg = SimConfig {
            window: Some(2),
            ..Default::default()
        };
        let stream: Vec<_> = (0..6).map(|o| req(0, o, Flavor::Normal)).collect();
        let report = simulate_server(
            &p,
            &cfg,
            stream.into_iter(),
            3,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
        );
        let tl = report.timeline.as_ref().unwrap();
        let ids: Vec<u64> = tl.windows.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(tl.windows[0].1.requests, 1); // tick 3
        assert_eq!(tl.windows[1].1.requests, 2); // ticks 4, 5
        assert_eq!(report.measured_requests, 3);
    }

    /// One server (0), one site with three holders: peer 1 at 2 hops, peer
    /// 2 at 5 hops, the primary at 9 hops.
    fn failover_plan() -> ServerPlan {
        ServerPlan::from_chains(
            0,
            vec![false],
            vec![vec![
                Holder {
                    server: Some(1),
                    hops: 2,
                },
                Holder {
                    server: Some(2),
                    hops: 5,
                },
                Holder {
                    server: None,
                    hops: 9,
                },
            ]],
            100,
        )
    }

    /// Schedule where server `s` is down for ticks `[0, 100)`.
    fn down(servers: &[usize], origin: bool) -> crate::fault::FaultSchedule {
        let mut windows = vec![Vec::new(); 3];
        for &s in servers {
            windows[s] = vec![(0, 100)];
        }
        let origin_down = if origin { vec![(0, 100)] } else { Vec::new() };
        crate::fault::FaultSchedule::from_windows(windows, origin_down)
    }

    #[test]
    fn all_alive_matches_plain_resolve() {
        let p = failover_plan();
        let schedule = down(&[], false);
        let mut c1 = Lru::new(100);
        let mut c2 = Lru::new(100);
        for flavor in [
            Flavor::Normal,
            Flavor::Normal,
            Flavor::Expired,
            Flavor::Uncacheable,
        ] {
            let (res, hops) = resolve(&p, &mut c1, req(0, 1, flavor), 10, CM::Strong);
            let routed =
                resolve_faulted(&p, &mut c2, req(0, 1, flavor), 10, CM::Strong, &schedule, 0);
            assert_eq!((res, hops), (routed.resolution, routed.hops));
            assert_eq!(routed.dead_skipped, 0);
            assert!(!routed.from_origin);
        }
    }

    #[test]
    fn dead_nearest_holder_fails_over_to_next() {
        let p = failover_plan();
        let mut cache = Lru::new(100);
        let schedule = down(&[1], false);
        let routed = resolve_faulted(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            5,
        );
        assert_eq!(routed.resolution, Resolution::CacheMiss);
        assert_eq!(routed.hops, 5, "should reach the second-nearest copy");
        assert_eq!(routed.dead_skipped, 1);
        assert!(!routed.from_origin);
        // Past the recovery window the nearest holder serves again.
        let routed = resolve_faulted(
            &p,
            &mut cache,
            req(0, 2, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            100,
        );
        assert_eq!((routed.hops, routed.dead_skipped), (2, 0));
    }

    #[test]
    fn both_peers_dead_falls_back_to_origin() {
        let p = failover_plan();
        let mut cache = Lru::new(100);
        let schedule = down(&[1, 2], false);
        let routed = resolve_faulted(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            0,
        );
        assert_eq!(routed.resolution, Resolution::CacheMiss);
        assert_eq!(routed.hops, 9);
        assert_eq!(routed.dead_skipped, 2);
        assert!(routed.from_origin);
    }

    #[test]
    fn no_live_copy_fails_without_polluting_cache() {
        let p = failover_plan();
        let mut cache = Lru::new(100);
        let schedule = down(&[1, 2], true);
        let routed = resolve_faulted(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            0,
        );
        assert_eq!(routed.resolution, Resolution::Failed);
        assert_eq!(routed.dead_skipped, 3);
        assert!(cache.is_empty(), "failed fetch must not admit the object");
        // A cached copy still serves locally during the blackout.
        cache.insert(cdn_cache::ObjectKey::new(0, 1), 10);
        let routed = resolve_faulted(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            1,
        );
        assert_eq!(routed.resolution, Resolution::CacheHit);
    }

    #[test]
    fn strong_refresh_fails_but_weak_serves_stale_during_blackout() {
        let p = failover_plan();
        let schedule = down(&[1, 2], true);
        let mut cache = Lru::new(100);
        cache.insert(cdn_cache::ObjectKey::new(0, 1), 10);
        let strong = resolve_faulted(
            &p,
            &mut cache,
            req(0, 1, Flavor::Expired),
            10,
            CM::Strong,
            &schedule,
            0,
        );
        assert_eq!(strong.resolution, Resolution::Failed);
        let weak = resolve_faulted(
            &p,
            &mut cache,
            req(0, 1, Flavor::Expired),
            10,
            CM::Weak,
            &schedule,
            0,
        );
        assert_eq!(weak.resolution, Resolution::CacheHit);
        assert_eq!(weak.dead_skipped, 0);
    }

    #[test]
    fn down_first_hop_skips_local_service_and_cache() {
        let p = failover_plan();
        let mut cache = Lru::new(100);
        cache.insert(cdn_cache::ObjectKey::new(0, 1), 10);
        let schedule = down(&[0], false);
        let routed = resolve_faulted(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            0,
        );
        // The cached copy is unreachable: the client retries to the nearest
        // live holder, paying one skip for the dead first hop.
        assert_eq!(routed.resolution, Resolution::Bypass);
        assert_eq!(routed.hops, 2);
        assert_eq!(routed.dead_skipped, 1);
        assert_eq!(cache.len(), 1, "crashed server's cache must not change");
    }

    #[test]
    fn down_replicator_fails_over_off_its_own_replica() {
        // Server 0 replicates the site (it heads its own holder list) but
        // is down: the request must reach the next holder.
        let p = ServerPlan::from_chains(
            0,
            vec![true],
            vec![vec![
                Holder {
                    server: Some(0),
                    hops: 0,
                },
                Holder {
                    server: None,
                    hops: 9,
                },
            ]],
            0,
        );
        let mut cache = Lru::new(0);
        let schedule = down(&[0], false);
        let routed = resolve_faulted(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            0,
        );
        assert_eq!(routed.resolution, Resolution::Bypass);
        assert_eq!(routed.hops, 9);
        assert_eq!(routed.dead_skipped, 1);
        assert!(routed.from_origin);
        // Up again: served from the local replica.
        let routed = resolve_faulted(
            &p,
            &mut cache,
            req(0, 1, Flavor::Normal),
            10,
            CM::Strong,
            &schedule,
            200,
        );
        assert_eq!(routed.resolution, Resolution::Replica);
    }

    #[test]
    fn simulate_server_faulted_accounts_failures_and_failovers() {
        let p = failover_plan();
        let cfg = SimConfig {
            faults: Some(FaultParams {
                retry_penalty_ms: 100.0,
                ..Default::default()
            }),
            ..Default::default()
        };
        // Holder 1 down for ticks [0,2); everything down at tick 3.
        let schedule = crate::fault::FaultSchedule::from_windows(
            vec![Vec::new(), vec![(0, 2), (3, 4)], vec![(3, 4)]],
            vec![(3, 4)],
        );
        let stream = vec![
            req(0, 1, Flavor::Normal), // tick 0: failover to holder 2 (5 hops + 1 retry)
            req(0, 1, Flavor::Normal), // tick 1: cache hit
            req(0, 2, Flavor::Normal), // tick 2: miss to holder 1 (2 hops)
            req(0, 3, Flavor::Normal), // tick 3: everything down -> failed
        ];
        let report = simulate_server_faulted(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
            Some(&schedule),
        );
        assert_eq!(report.measured_requests, 4);
        assert_eq!(report.failed_requests, 1);
        assert_eq!(report.failover_fetches, 1);
        assert_eq!(report.peer_fetches, 1);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(
            report.histogram.count(),
            3,
            "failed requests record no latency"
        );
        assert_eq!(report.failover_histogram.count(), 1);
        // Failover latency: 20 * (1 + 5) + 100 * 1 = 220 ms.
        assert!((report.failover_histogram.mean() - 220.0).abs() < 1e-9);
        // Failed request delivered nothing.
        assert_eq!(report.total_bytes, 30);
        assert_eq!(report.cost_hops, 5 + 2);
    }

    #[test]
    fn delayed_hits_coalesce_onto_pending_fetch() {
        // Non-replicated site 3 hops away, fetch takes 2 ticks: the miss at
        // tick 0 puts the fetch in flight until tick 2, so the hit at
        // tick 1 is a delayed hit and the hit at tick 2 is a plain one.
        let p = plan(vec![false], vec![3], 1000);
        let cfg = SimConfig {
            fetch_latency: Some(2),
            ..Default::default()
        };
        let stream = vec![
            req(0, 1, Flavor::Normal), // tick 0: miss, fetch ready at 2
            req(0, 1, Flavor::Normal), // tick 1: delayed hit (rides fetch)
            req(0, 1, Flavor::Normal), // tick 2: fetch landed -> cache hit
        ];
        let report = simulate_server(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
        );
        assert_eq!(report.origin_fetches, 1);
        assert_eq!(report.delayed_hits, 1);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.local_requests, 1, "delayed hits are not local");
        // The delayed hit pays the pending fetch's transfer delay but adds
        // no hops of its own.
        assert_eq!(report.cost_hops, 3);
        assert_eq!(report.total_bytes, 30, "all three requests deliver");
        assert!((report.cause.delayed_hit.latency_ms - 80.0).abs() < 1e-9);
        // Causes stay disjoint and sum to measured.
        assert_eq!(report.cause.total_requests(), report.measured_requests);
        assert_eq!(
            report.delayed_hits + report.local_requests + report.origin_fetches,
            report.measured_requests
        );
    }

    #[test]
    fn zero_capacity_cache_still_coalesces_pending_fetches() {
        // With no cache at all, back-to-back requests for the same object
        // are all misses under instant fetch — but with a fetch in flight
        // the later ones coalesce, which is exactly the miss-reduction
        // delayed hits exist to model.
        let p = plan(vec![false], vec![2], 0);
        let cfg = SimConfig {
            fetch_latency: Some(3),
            ..Default::default()
        };
        let stream = vec![
            req(0, 1, Flavor::Normal), // tick 0: miss, ready at 3
            req(0, 1, Flavor::Normal), // tick 1: miss, but pending -> delayed
            req(0, 1, Flavor::Normal), // tick 2: delayed again
            req(0, 1, Flavor::Normal), // tick 3: fetch done -> fresh miss
        ];
        let report = simulate_server(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
        );
        assert_eq!(report.origin_fetches, 2);
        assert_eq!(report.delayed_hits, 2);
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.cost_hops, 4, "only the two real fetches travel");
        assert_eq!(report.origin_bytes, 20, "coalesced bytes skip the origin");
    }

    #[test]
    fn fetch_latency_off_switches_are_equivalent() {
        // `None` and `Some(0)` must both run the instant-fetch path.
        let p = plan(vec![false], vec![3], 1000);
        let stream: Vec<_> = (0..20).map(|i| req(0, i % 4, Flavor::Normal)).collect();
        let run = |fetch_latency| {
            let cfg = SimConfig {
                fetch_latency,
                ..Default::default()
            };
            simulate_server(
                &p,
                &cfg,
                stream.clone().into_iter(),
                4,
                |_, _| 10,
                Box::new(Lru::new(p.cache_bytes)),
            )
        };
        let off = run(None);
        let zero = run(Some(0));
        assert_eq!(off.delayed_hits, 0);
        assert_eq!(zero.delayed_hits, 0);
        assert_eq!(off.cache_hits, zero.cache_hits);
        assert_eq!(off.cost_hops, zero.cost_hops);
        assert_eq!(off.histogram.bin_counts(), zero.histogram.bin_counts());
        assert_eq!(off.cause, zero.cause);
    }

    #[test]
    fn delayed_hits_appear_in_timeline_windows() {
        let p = plan(vec![false], vec![3], 1000);
        let cfg = SimConfig {
            fetch_latency: Some(2),
            window: Some(2),
            ..Default::default()
        };
        let stream = vec![
            req(0, 1, Flavor::Normal), // tick 0: miss
            req(0, 1, Flavor::Normal), // tick 1: delayed hit
            req(0, 1, Flavor::Normal), // tick 2: cache hit
            req(0, 2, Flavor::Normal), // tick 3: miss
        ];
        let report = simulate_server(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
        );
        let tl = report.timeline.as_ref().unwrap();
        let sum: u64 = tl.windows.iter().map(|(_, w)| w.delayed_hits).sum();
        assert_eq!(sum, report.delayed_hits);
        assert_eq!(tl.windows[0].1.delayed_hits, 1);
        assert_eq!(tl.windows[1].1.delayed_hits, 0);
    }

    #[test]
    fn zero_capacity_cache_never_hits() {
        let p = plan(vec![false], vec![2], 0);
        let cfg = SimConfig::default();
        let stream = vec![req(0, 1, Flavor::Normal), req(0, 1, Flavor::Normal)];
        let report = simulate_server(
            &p,
            &cfg,
            stream.into_iter(),
            0,
            |_, _| 10,
            Box::new(Lru::new(p.cache_bytes)),
        );
        assert_eq!(report.cache_hits, 0);
        assert_eq!(report.cost_hops, 4);
    }
}
