//! The per-server operational view of a placement, plus simulation
//! configuration.

use crate::fault::FaultParams;
use cdn_placement::{Nearest, Placement, PlacementProblem, ReplicatorIndex};
use std::sync::{Arc, OnceLock};

/// One copy holder of a site as seen from a plan's server — the failover
/// targets of [`crate::engine::resolve_faulted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Holder {
    /// The CDN server holding the copy, or `None` for the primary (origin)
    /// site.
    pub server: Option<u32>,
    /// Hops from the plan's server to this holder.
    pub hops: u32,
}

/// What one CDN server needs to serve requests: which sites it replicates,
/// where the nearest copy of every site is, and how many bytes its cache
/// gets (the capacity left over after replicas).
///
/// The full distance-ranked holder list of a site — the failover order
/// when holders are down — is not stored up front: [`holders`](Self::holders)
/// ranks it on first use from the placement's shared
/// [`ReplicatorIndex`] and this server's distance rows, and memoises it.
/// Only fault-injected runs that look past the nearest copy ever rank one.
#[derive(Debug, Clone)]
pub struct ServerPlan {
    pub server: usize,
    /// `replicated[j]` — site j is fully replicated here.
    pub replicated: Vec<bool>,
    /// `nearest_hops[j]` — hops to the nearest copy of site j (0 when
    /// replicated locally).
    pub nearest_hops: Vec<u32>,
    /// `nearest_is_primary[j]` — the nearest copy of site j is the primary
    /// (origin) site rather than a CDN replica.
    pub nearest_is_primary: Vec<bool>,
    /// `nearest_server[j]` — the CDN server holding the nearest copy of
    /// site j (the `SN` pointer); unused when `nearest_is_primary[j]`.
    pub nearest_server: Vec<u32>,
    /// Bytes available to the LRU cache.
    pub cache_bytes: u64,
    /// Inputs of the on-demand ranking; `None` when every list was supplied
    /// up front by [`from_chains`](Self::from_chains).
    ranking: Option<Ranking>,
    /// `ranked[j]` — site j's memoised holder list.
    ranked: Box<[OnceLock<Box<[Holder]>>]>,
}

/// What [`ServerPlan::holders`] ranks from: the placement's replicator
/// lists plus this server's rows of the distance matrices.
#[derive(Debug, Clone)]
struct Ranking {
    replicators: Arc<ReplicatorIndex>,
    /// `peer_hops[k]` — hops from this server to server k.
    peer_hops: Box<[u32]>,
    /// `primary_hops[j]` — hops from this server to site j's primary.
    primary_hops: Box<[u32]>,
}

const CHAINS_UP_FRONT: &str = "a plan built from chains has every list up front";

impl ServerPlan {
    /// Extract server `i`'s plan from a placement: O(N + M) rows plus a
    /// shared handle on the placement's replicator index.
    pub fn from_placement(problem: &PlacementProblem, placement: &Placement, i: usize) -> Self {
        let m = problem.m_sites();
        let replicated = (0..m).map(|j| placement.is_replicated(i, j)).collect();
        let nearest_hops = (0..m)
            .map(|j| placement.nearest_dist(problem, i, j))
            .collect();
        let (nearest_is_primary, nearest_server) = (0..m)
            .map(|j| match placement.nearest(i, j) {
                Nearest::Primary => (true, 0),
                Nearest::Server(k) => (false, k),
            })
            .unzip();
        let ranking = Ranking {
            replicators: placement.replicator_index(),
            peer_hops: (0..problem.n_servers())
                .map(|k| problem.dist_servers(i, k))
                .collect(),
            primary_hops: (0..m).map(|j| problem.dist_primary(i, j)).collect(),
        };
        Self {
            server: i,
            replicated,
            nearest_hops,
            nearest_is_primary,
            nearest_server,
            cache_bytes: placement.free_bytes(i),
            ranking: Some(ranking),
            ranked: (0..m).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Plans for every server.
    pub fn all_from_placement(problem: &PlacementProblem, placement: &Placement) -> Vec<Self> {
        (0..problem.n_servers())
            .map(|i| Self::from_placement(problem, placement, i))
            .collect()
    }

    /// A plan from explicit holder chains, for tests and hand-built
    /// scenarios: `chains[j]` is site j's failover order, taken as given
    /// (it is not re-sorted), and its head is the nearest copy.
    ///
    /// # Panics
    /// Panics if a chain is empty or the two lengths differ.
    pub fn from_chains(
        server: usize,
        replicated: Vec<bool>,
        chains: Vec<Vec<Holder>>,
        cache_bytes: u64,
    ) -> Self {
        assert_eq!(replicated.len(), chains.len(), "one chain per site");
        let head = |c: &Vec<Holder>| *c.first().expect("a chain needs at least one holder");
        let nearest_hops = chains.iter().map(|c| head(c).hops).collect();
        let nearest_is_primary = chains.iter().map(|c| head(c).server.is_none()).collect();
        let nearest_server = chains.iter().map(|c| head(c).server.unwrap_or(0)).collect();
        let ranked = chains
            .into_iter()
            .map(|c| OnceLock::from(c.into_boxed_slice()))
            .collect();
        Self {
            server,
            replicated,
            nearest_hops,
            nearest_is_primary,
            nearest_server,
            cache_bytes,
            ranking: None,
            ranked,
        }
    }

    /// The nearest copy of `site` — rank 0 of [`holders`](Self::holders),
    /// read without ranking.
    #[inline]
    pub fn nearest_holder(&self, site: usize) -> Holder {
        Holder {
            server: (!self.nearest_is_primary[site]).then_some(self.nearest_server[site]),
            hops: self.nearest_hops[site],
        }
    }

    /// How many copies of `site` exist (replicas plus the primary) — the
    /// length of [`holders`](Self::holders), read without ranking.
    #[inline]
    pub fn holder_count(&self, site: usize) -> usize {
        match &self.ranking {
            Some(r) => r.replicators.site(site).len() + 1,
            None => self.ranked[site].get().expect(CHAINS_UP_FRONT).len(),
        }
    }

    /// Every copy holder of `site` (replicators plus the primary) ranked by
    /// distance: the same order as [`Placement::ranked_holders`] — sorted
    /// by `(hops, server id)` with the primary last among equals, and the
    /// head pinned to the nearest copy. Ranked on first call, then
    /// memoised.
    pub fn holders(&self, site: usize) -> &[Holder] {
        self.ranked[site].get_or_init(|| {
            let ranking = self.ranking.as_ref().expect(CHAINS_UP_FRONT);
            ranking.rank(site, self.nearest_holder(site))
        })
    }
}

impl Ranking {
    fn rank(&self, site: usize, head: Holder) -> Box<[Holder]> {
        let mut holders: Vec<Holder> = self
            .replicators
            .site(site)
            .iter()
            .map(|&k| Holder {
                server: Some(k),
                hops: self.peer_hops[k as usize],
            })
            .chain(std::iter::once(Holder {
                server: None,
                hops: self.primary_hops[site],
            }))
            .collect();
        holders.sort_by_key(|h| (h.hops, h.server.unwrap_or(u32::MAX)));
        let pos = holders
            .iter()
            .position(|&h| h == head)
            .expect("SN pointer must be a holder");
        // The head is at minimal distance, so this only reorders
        // equal-distance entries (see `Placement::ranked_holders`).
        holders[..=pos].rotate_right(1);
        holders.into_boxed_slice()
    }
}

/// How stale cached copies are handled (paper §3.3). Replicas are always
/// push-invalidated by the CDN; this governs the *cache*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsistencyMode {
    /// Accessed copies are always up to date: a cache hit on an expired
    /// object pays a refresh round to the nearest replica (the paper's
    /// second experiment).
    #[default]
    Strong,
    /// Accessed copies might be stale: expired objects are served from the
    /// cache at local latency (the client may see old content).
    Weak,
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Per-hop network delay, ms. The paper sets 20 ms/hop (propagation +
    /// queueing + processing).
    pub hop_delay_ms: f64,
    /// Fraction of each server's stream used to warm the cache before
    /// measurement starts ("we allowed an appropriate warm-up period").
    pub warmup_fraction: f64,
    /// Latency-histogram bin width (ms) and bin count.
    pub bin_ms: f64,
    pub n_bins: usize,
    /// Cache-consistency regime for expired objects.
    pub consistency: ConsistencyMode,
    /// Fault injection: `None` runs the exact fault-free code path (and is
    /// guaranteed bit-identical to `Some` of zero-fault parameters).
    pub faults: Option<FaultParams>,
    /// Sample every Nth request of each server's stream into
    /// [`crate::RequestSample`]s (`None` disables sampling). Keyed on the
    /// request's deterministic per-stream index, so the sampled set is
    /// identical at any thread count. Sampling never perturbs the
    /// simulation or its deterministic outputs.
    pub sample_every: Option<u64>,
    /// Virtual-time window width, in per-server stream ticks, for the
    /// windowed timeline ([`crate::timeline::Timeline`]). `None` *and*
    /// `Some(0)` both disable the timeline entirely — `--window 0` on the
    /// CLI is the documented off switch, and the disabled path is
    /// bit-identical to a build without the feature. Windows are keyed by
    /// `tick / width` on the same deterministic per-stream index the
    /// sampler uses, so timelines are byte-identical at any thread or
    /// shard count.
    pub window: Option<u64>,
    /// Remote-fetch completion latency, in per-server stream ticks, for
    /// delayed-hit coalescing. With a positive value, a cache miss puts the
    /// object's fetch *in flight* for that many ticks; requests for the
    /// same object arriving before it completes coalesce onto the pending
    /// fetch as [`crate::Cause::DelayedHit`]s instead of counting as
    /// independent hits/misses. `None` *and* `Some(0)` both run the exact
    /// instant-fetch code path (bit-identical to a build without the
    /// feature) — `--fetch-latency 0` is the documented off switch. The
    /// table is per server and keyed on the deterministic stream tick, so
    /// results stay byte-identical at any thread or shard count.
    pub fetch_latency: Option<u64>,
    /// Number of engine shards (contiguous server ranges run as parallel
    /// units). `None` picks `min(n_servers, 64)`. The shard count is part
    /// of the configuration, never derived from the thread count, so
    /// results are bit-identical at any parallelism — and, because all
    /// order-sensitive float folds happen per server at the final merge,
    /// at any shard count too.
    pub shards: Option<usize>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            hop_delay_ms: 20.0,
            warmup_fraction: 0.2,
            bin_ms: 1.0,
            n_bins: 4096,
            consistency: ConsistencyMode::Strong,
            faults: None,
            sample_every: None,
            window: None,
            fetch_latency: None,
            shards: None,
        }
    }
}

impl SimConfig {
    pub(crate) fn validate(&self) {
        assert!(
            self.hop_delay_ms > 0.0 && self.hop_delay_ms.is_finite(),
            "hop delay must be positive"
        );
        assert!(
            (0.0..1.0).contains(&self.warmup_fraction),
            "warm-up fraction must be in [0, 1)"
        );
        assert!(
            self.sample_every != Some(0),
            "sample_every must be at least 1 (or None to disable)"
        );
        assert!(
            self.shards != Some(0),
            "shards must be at least 1 (or None for the default)"
        );
        if let Some(faults) = &self.faults {
            faults.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdn_placement::PlacementProblem;

    fn tiny_problem() -> PlacementProblem {
        // 2 servers 3 hops apart, 2 sites with primaries 10/12 hops away.
        PlacementProblem::new(
            2,
            2,
            vec![0, 3, 3, 0],
            vec![10, 12, 11, 13],
            vec![1000, 1000],
            vec![1500, 1500],
            vec![5, 5, 5, 5],
            vec![0.0, 0.0],
            100.0,
            10,
            1.0,
        )
    }

    #[test]
    fn plan_reflects_placement() {
        let p = tiny_problem();
        let mut pl = Placement::primaries_only(&p);
        pl.add_replica(&p, 0, 1);
        let plans = ServerPlan::all_from_placement(&p, &pl);
        assert_eq!(plans.len(), 2);
        assert!(plans[0].replicated[1]);
        assert_eq!(plans[0].nearest_hops[1], 0);
        assert_eq!(plans[0].cache_bytes, 500);
        assert!(!plans[0].nearest_is_primary[1]);
        assert!(!plans[1].replicated[1]);
        assert_eq!(plans[1].nearest_hops[1], 3); // via server 0, closer than primary (13)
        assert!(!plans[1].nearest_is_primary[1]);
        assert_eq!(plans[1].nearest_hops[0], 11); // primary
        assert!(plans[1].nearest_is_primary[0]);
        assert_eq!(plans[1].cache_bytes, 1500);

        // Holder lists: rank 0 mirrors the scalar nearest fields, and every
        // copy (replicas + primary) appears in distance order.
        for plan in &plans {
            for j in 0..2 {
                let h = plan.holders(j);
                assert_eq!(h[0].hops, plan.nearest_hops[j]);
                assert_eq!(h[0].server.is_none(), plan.nearest_is_primary[j]);
                for w in h.windows(2) {
                    assert!(w[0].hops <= w[1].hops);
                }
            }
        }
        // Site 1 is replicated at server 0: server 1 can fail over from the
        // replica (3 hops) to the primary (13 hops).
        assert_eq!(
            plans[1].holders(1),
            vec![
                Holder {
                    server: Some(0),
                    hops: 3
                },
                Holder {
                    server: None,
                    hops: 13
                },
            ]
        );
        // Site 0 has no replicas: the primary is the only holder.
        assert_eq!(
            plans[1].holders(0),
            vec![Holder {
                server: None,
                hops: 11
            }]
        );
    }

    #[test]
    fn default_config_is_papers() {
        let c = SimConfig::default();
        assert_eq!(c.hop_delay_ms, 20.0);
        c.validate();
    }

    #[test]
    fn zero_window_is_a_valid_off_switch() {
        // Unlike sample_every/shards, `window: Some(0)` is the documented
        // way to force the timeline off and must validate cleanly.
        let c = SimConfig {
            window: Some(0),
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn zero_fetch_latency_is_a_valid_off_switch() {
        // `fetch_latency: Some(0)` disables delayed-hit coalescing exactly
        // like `None` — `--fetch-latency 0` must validate cleanly.
        let c = SimConfig {
            fetch_latency: Some(0),
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "sample_every")]
    fn zero_sample_every_rejected() {
        let c = SimConfig {
            sample_every: Some(0),
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic]
    fn full_warmup_rejected() {
        let c = SimConfig {
            warmup_fraction: 1.0,
            ..Default::default()
        };
        c.validate();
    }
}
