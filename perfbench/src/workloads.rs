//! The benchmark's workloads: which scenario, strategy and hit-ratio model
//! each one runs. See `perfbench/README.md` for why each was chosen.

use cdn_core::sim::FaultParams;
use cdn_core::workload::LambdaMode;
use cdn_core::{ModelBackend, ScenarioConfig, Strategy};

/// The workload seed when none is given (`ScenarioConfig::paper`'s own).
pub const DEFAULT_SEED: u64 = 20050404;

/// A seed kept out of tuning, for confirming later performance claims.
pub const HELD_OUT_SEED: u64 = 31415926;

/// Every workload name, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["paper-hybrid", "large-cold", "replay-faults"];

/// One benchmark workload, fully resolved for a seed.
pub struct Workload {
    pub name: &'static str,
    pub config: ScenarioConfig,
    pub strategy: Strategy,
    pub model: ModelBackend,
    /// The simulate step reads an exported `.events` file and replays it,
    /// instead of simulating the scenario's own request streams.
    pub replay: bool,
}

impl Workload {
    pub fn by_name(name: &str, seed: u64) -> Result<Self, String> {
        let (name, mut config, strategy, model, replay) = match name {
            // The paper's experiment: N=50, M=200 sites, 12.5M requests,
            // planned by the hybrid algorithm on the paper's model.
            "paper-hybrid" => (
                NAMES[0],
                ScenarioConfig::paper(0.10, 0.0, LambdaMode::Uncacheable),
                Strategy::Hybrid,
                ModelBackend::Paper,
                false,
            ),
            // The internet-scale fleet (2000 servers, 2M objects, 10M
            // requests) with cold caches, planned per server.
            "large-cold" => (
                NAMES[1],
                ScenarioConfig::large_ci(0.10, 0.0, LambdaMode::Uncacheable),
                Strategy::GreedyLocal,
                ModelBackend::ClosedForm,
                false,
            ),
            // Trace-file ingestion and replay with server crashes, origin
            // outages and delayed-hit fetches on; pure caching, so the
            // planner is nearly free.
            "replay-faults" => {
                let mut config = ScenarioConfig::paper(0.10, 0.2, LambdaMode::Uncacheable);
                config.sim.faults = Some(FaultParams {
                    mttf: 2000.0,
                    mttr: 200.0,
                    origin_outage: 0.05,
                    retry_penalty_ms: 200.0,
                    seed,
                });
                config.sim.fetch_latency = Some(256);
                (
                    NAMES[2],
                    config,
                    Strategy::Caching,
                    ModelBackend::Paper,
                    true,
                )
            }
            other => {
                return Err(format!(
                    "unknown workload '{other}' (known: {})",
                    NAMES.join(", ")
                ))
            }
        };
        config.seed = seed;
        Ok(Self {
            name,
            config,
            strategy,
            model,
            replay,
        })
    }
}
