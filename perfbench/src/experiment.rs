//! One experiment — set up, plan, simulate — timed from the outside, with
//! the output checks every run must pass.

use crate::sys::{proc_status_mib, process_cpu_s, timed};
use crate::workloads::Workload;
use cdn_core::sim::SimReport;
use cdn_core::workload::{open_events_file, read_events_file};
use cdn_core::{replay_events, PlanResult, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Fewest experiments an untraced run makes, however short `--seconds` is:
/// two, so every run can check that simulated results repeat exactly.
const MIN_EXPERIMENTS: usize = 2;

/// Fewest simulate calls behind `sim_mreq_per_s`, and the simulate time to
/// top up to, where simulating is quick.
const MIN_SIMS: usize = 9;
const SIM_TOPUP_S: f64 = 8.0;

/// Fewest `Scenario::generate` calls behind the reported `setup_s` median,
/// and the set-up time to top up to when set-up is quick.
const MIN_SETUPS: usize = 7;
const SETUP_TOPUP_S: f64 = 1.0;
const MAX_SETUPS: usize = 200;

/// The exported `.events` trace a replay workload reads.
pub struct EventsFile {
    pub path: PathBuf,
    /// Record count from the file header.
    pub declared: u64,
    pub bytes: u64,
}

impl EventsFile {
    pub fn inspect(path: PathBuf) -> Result<Self, String> {
        let declared = open_events_file(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .declared_len();
        let bytes = std::fs::metadata(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
        Ok(Self {
            path,
            declared,
            bytes,
        })
    }
}

/// What the simulated CDN delivered. Deterministic for a seed, so every
/// experiment of a run must produce exactly the same value.
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    pub mean_latency_ms: f64,
    pub p99_latency_ms: f64,
    pub total_requests: u64,
    pub measured_requests: u64,
    pub origin_ratio: f64,
    pub failed_ratio: f64,
    pub predicted_hops: f64,
    pub simulated_hops: f64,
    pub model_error_pct: f64,
    pub failover_fetches: u64,
    pub delayed_hits: u64,
}

impl Quality {
    fn new(scenario: &Scenario, plan: &PlanResult, report: &SimReport) -> Self {
        let measured = report.measured_requests as f64;
        let predicted_hops = plan.predicted_mean_hops(&scenario.problem);
        let simulated_hops = report.mean_cost_hops;
        Self {
            mean_latency_ms: report.mean_latency_ms,
            p99_latency_ms: report.histogram.percentile(0.99),
            total_requests: report.total_requests,
            measured_requests: report.measured_requests,
            origin_ratio: report.origin_fetches as f64 / measured,
            failed_ratio: report.failed_requests as f64 / measured,
            predicted_hops,
            simulated_hops,
            model_error_pct: (predicted_hops - simulated_hops).abs() / simulated_hops * 100.0,
            failover_fetches: report.failover_fetches,
            delayed_hits: report.delayed_hits,
        }
    }

    fn finite(&self) -> bool {
        [
            self.mean_latency_ms,
            self.p99_latency_ms,
            self.origin_ratio,
            self.failed_ratio,
            self.predicted_hops,
            self.simulated_hops,
            self.model_error_pct,
        ]
        .iter()
        .all(|v| v.is_finite())
    }
}

/// One timed experiment and the checks it failed (empty when correct).
pub struct Experiment {
    pub setup_s: f64,
    pub plan_s: f64,
    /// The simulate step: `Scenario::simulate`, or on a replay workload
    /// `read_events_file` + `replay_events`.
    pub sim_s: f64,
    /// Process CPU seconds (all threads) of the plan step and of the whole
    /// experiment: the time busy behind the wall-clock figures.
    pub plan_cpu_s: f64,
    pub cpu_s: f64,
    pub quality: Quality,
    pub failures: Vec<String>,
}

impl Experiment {
    pub fn total_s(&self) -> f64 {
        self.setup_s + self.plan_s + self.sim_s
    }
}

/// The first two steps of an experiment: a generated scenario and its plan.
struct Planned {
    scenario: Scenario,
    plan: PlanResult,
    setup_s: f64,
    plan_s: f64,
    plan_cpu_s: f64,
    cpu_start: f64,
}

impl Planned {
    fn new(w: &Workload) -> Self {
        let cpu_start = process_cpu_s();
        let (scenario, setup_s) = timed(|| Scenario::generate(&w.config));
        let plan_cpu_start = process_cpu_s();
        let (plan, plan_s) = timed(|| scenario.plan_with_model(w.strategy, w.model));
        Self {
            plan_cpu_s: process_cpu_s() - plan_cpu_start,
            scenario,
            plan,
            setup_s,
            plan_s,
            cpu_start,
        }
    }

    /// The timed simulate step, with its simulated outcome and failed
    /// checks. `Err` means the replay input could not be read at all.
    fn simulate(&self, events: Option<&EventsFile>) -> Result<(f64, Quality, Vec<String>), String> {
        let (scenario, plan) = (&self.scenario, &self.plan);
        let mut failures = Vec::new();
        let start = Instant::now();
        let (report, expected_requests) = match events {
            Some(file) => {
                let events = read_events_file(&file.path)
                    .map_err(|e| format!("{}: {e}", file.path.display()))?;
                if events.len() as u64 != file.declared {
                    failures.push(format!(
                        "decoded {} events, header declares {}",
                        events.len(),
                        file.declared
                    ));
                }
                (replay_events(scenario, plan, events), file.declared)
            }
            None => {
                let trace_len = (0..scenario.trace.n_servers())
                    .map(|i| scenario.trace.len_for_server(i))
                    .sum();
                (scenario.simulate(plan), trace_len)
            }
        };
        let sim_s = start.elapsed().as_secs_f64();
        failures.extend(check_outputs(&report, expected_requests));
        let quality = Quality::new(scenario, plan, &report);
        if !quality.finite() {
            failures.push(format!("non-finite simulated statistic: {quality:?}"));
        }
        Ok((sim_s, quality, failures))
    }

    /// Simulate once and complete the experiment. `Placement::validate` is
    /// O(servers² · sites) — seconds on `large-cold` — so callers validate
    /// the first experiment of a run; later ones must then reproduce its
    /// simulated results exactly.
    fn experiment(
        &self,
        events: Option<&EventsFile>,
        validate: bool,
    ) -> Result<Experiment, String> {
        let (sim_s, quality, mut failures) = self.simulate(events)?;
        let cpu_s = process_cpu_s() - self.cpu_start;
        if validate {
            failures.extend(validate_placement(&self.scenario, &self.plan));
        }
        Ok(Experiment {
            setup_s: self.setup_s,
            plan_s: self.plan_s,
            sim_s,
            plan_cpu_s: self.plan_cpu_s,
            cpu_s,
            quality,
            failures,
        })
    }
}

/// Run one experiment. `Err` means the inputs could not be read at all.
pub fn run(
    w: &Workload,
    events: Option<&EventsFile>,
    validate: bool,
) -> Result<Experiment, String> {
    Planned::new(w).experiment(events, validate)
}

/// The checks on a simulation report.
pub fn check_outputs(report: &SimReport, expected_requests: u64) -> Vec<String> {
    let mut failures = Vec::new();
    let cause_total = report.cause.total_requests();
    if cause_total != report.measured_requests {
        failures.push(format!(
            "cause buckets sum to {cause_total}, measured requests are {}",
            report.measured_requests
        ));
    }
    if report.total_requests != expected_requests {
        failures.push(format!(
            "simulated {} requests, input holds {expected_requests}",
            report.total_requests
        ));
    }
    if report.measured_requests == 0 {
        failures.push("no measured requests".into());
    }
    failures
}

/// `Placement::validate`, which panics on a broken invariant.
fn validate_placement(scenario: &Scenario, plan: &PlanResult) -> Option<String> {
    catch_unwind(AssertUnwindSafe(|| {
        plan.placement.validate(&scenario.problem)
    }))
    .err()
    .map(|_| "Placement::validate failed".into())
}

/// The experiments of an untraced run plus every `setup_s` and simulate
/// step sample.
pub struct Measured {
    pub experiments: Vec<Experiment>,
    pub setup_samples: Vec<f64>,
    pub sim_samples: Vec<f64>,
    /// `VmHWM` after the first experiment: the peak memory of one
    /// experiment, before repeats add allocator retention.
    pub peak_rss_mib: f64,
    /// Checks failed by the extra simulate calls.
    pub failures: Vec<String>,
}

/// Repeat the experiment for about `seconds` (at least
/// [`MIN_EXPERIMENTS`] times). Where simulating is quick, simulate the last
/// plan again up to [`MIN_SIMS`] samples or [`SIM_TOPUP_S`] of simulate
/// time. Then top the set-up samples up with extra `Scenario::generate`
/// calls to [`MIN_SETUPS`] and, where set-up is quick, to
/// [`SETUP_TOPUP_S`] of set-up time.
pub fn measure(
    w: &Workload,
    events: Option<&EventsFile>,
    seconds: f64,
) -> Result<Measured, String> {
    let start = Instant::now();
    let mut experiments: Vec<Experiment> = Vec::new();
    let mut sim_samples = Vec::new();
    let mut failures = Vec::new();
    let mut peak_rss_mib = 0.0;
    loop {
        let planned = Planned::new(w);
        let experiment = planned.experiment(events, experiments.is_empty())?;
        if experiments.is_empty() {
            peak_rss_mib = proc_status_mib("VmHWM").unwrap_or(0.0);
        }
        sim_samples.push(experiment.sim_s);
        experiments.push(experiment);
        let elapsed = start.elapsed().as_secs_f64();
        let per_experiment = elapsed / experiments.len() as f64;
        if experiments.len() >= MIN_EXPERIMENTS && elapsed + per_experiment > seconds {
            while sim_samples.len() < MIN_SIMS && sim_samples.iter().sum::<f64>() < SIM_TOPUP_S {
                let (sim_s, quality, failed) = planned.simulate(events)?;
                failures.extend(failed);
                if quality != experiments[0].quality {
                    failures.push("simulated results differ between simulate calls".into());
                }
                sim_samples.push(sim_s);
            }
            break;
        }
    }
    let mut setup_samples: Vec<f64> = experiments.iter().map(|e| e.setup_s).collect();
    while setup_samples.len() < MIN_SETUPS
        || (setup_samples.iter().sum::<f64>() < SETUP_TOPUP_S && setup_samples.len() < MAX_SETUPS)
    {
        setup_samples.push(timed(|| Scenario::generate(&w.config)).1);
    }
    Ok(Measured {
        experiments,
        setup_samples,
        sim_samples,
        peak_rss_mib,
        failures,
    })
}
