//! `perfbench` — the repository benchmark's measuring binary.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Runs one workload in this process on a rayon pool of `nproc` threads.
//! With `--trace 0` it repeats whole experiments (set up, plan, simulate)
//! for about `--seconds` and reports the end-to-end metrics as medians;
//! with `--trace 1` it reports per-layer timings and registry counters.
//! Either way it checks every output, prints a table, and ends stdout
//! with one JSON result line. `perfbench/run.py` builds and drives it;
//! see `perfbench/README.md`.

mod experiment;
mod layers;
mod report;
mod sys;
mod workloads;

use experiment::{EventsFile, Experiment, Measured, Quality};
use report::{print_table, result_json, Metric};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use sys::median;
use workloads::{Workload, DEFAULT_SEED, HELD_OUT_SEED, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    /// Internal: write the workload's exported trace here and exit.
    export_events: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        export_events: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--export-events" => args.export_events = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of {})",
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let w = Workload::by_name(&args.workload, args.seed)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads(nproc)
        .build_global()
        .map_err(|e| e.to_string())?;

    if let Some(path) = &args.export_events {
        let scenario = cdn_core::Scenario::generate(&w.config);
        let events = cdn_core::export_events(&scenario);
        return cdn_core::workload::write_events_file(path, &events)
            .map(|()| ExitCode::SUCCESS)
            .map_err(|e| format!("{}: {e}", path.display()));
    }

    println!(
        "perfbench workload={} seed={} seconds={} trace={} (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host nproc={nproc} pool_threads={}",
        rayon::current_num_threads()
    );

    // The exported trace is the replay workload's input, and on every
    // workload the traced run times the replay layers on it. A child
    // process writes it, so this process's peak memory covers only the
    // measured work.
    let events = if w.replay || args.trace {
        std::fs::create_dir_all(&args.work_dir)
            .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
        let path = args
            .work_dir
            .join(format!("{}-{}.events", w.name, args.seed));
        export_in_child(&args, &path)?;
        Some(EventsFile::inspect(path)?)
    } else {
        None
    };

    let outcome = if args.trace {
        traced(&w, events.as_ref(), args.seconds)
    } else {
        untraced(&w, events.as_ref(), args.seconds)
    };
    if let Some(file) = &events {
        let _ = std::fs::remove_file(&file.path);
    }
    let (metrics, attempted, mut failures) = outcome?;
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        failures.push(format!("metric {} is not finite", m.name));
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let failed = (failures.len() as u64).min(attempted);
    println!(
        "{}",
        result_json(failures.is_empty(), attempted, failed, &metrics)
    );
    Ok(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn export_in_child(args: &Args, path: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--export-events")
        .arg(path)
        .status()
        .map_err(|e| format!("spawning the trace export: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("trace export failed: {status}"))
    }
}

type Outcome = Result<(Vec<Metric>, u64, Vec<String>), String>;

/// The end-to-end metrics an untraced run's result line carries (the gated
/// ones in `BENCHMARK.json`). The table also shows the simulated statistics
/// that are zero on some workloads or move with the seed alone; the traced
/// run reports those in its result line.
const GATED: [&str; 6] = [
    "setup_s",
    "plan_s",
    "sim_mreq_per_s",
    "total_s",
    "peak_rss_mib",
    "mean_latency_ms",
];

/// What the simulated CDN delivered, in metric form.
fn quality_metrics(q: &Quality) -> Vec<Metric> {
    vec![
        Metric::real(
            "mean_latency_ms",
            q.mean_latency_ms,
            "ms",
            format!("simulated, {} measured requests", q.measured_requests),
        ),
        Metric::real(
            "p99_latency_ms",
            q.p99_latency_ms,
            "ms",
            format!("simulated, {} samples", q.measured_requests),
        ),
        Metric::real(
            "origin_ratio",
            q.origin_ratio,
            "ratio",
            "origin fetches / measured",
        ),
        Metric::real(
            "model_error_pct",
            q.model_error_pct,
            "%",
            format!(
                "predicted {:.4} vs simulated {:.4} mean hops",
                q.predicted_hops, q.simulated_hops
            ),
        ),
        Metric::real(
            "failed_ratio",
            q.failed_ratio,
            "ratio",
            format!(
                "{} failover fetches, {} delayed hits",
                q.failover_fetches, q.delayed_hits
            ),
        ),
    ]
}

/// End-to-end metrics over repeated untraced experiments.
fn untraced(w: &Workload, events: Option<&EventsFile>, seconds: f64) -> Outcome {
    let Measured {
        experiments,
        setup_samples,
        sim_samples,
        peak_rss_mib,
        mut failures,
    } = experiment::measure(w, events, seconds)?;
    failures.extend(experiments.iter().flat_map(|e| e.failures.iter().cloned()));
    let q = &experiments[0].quality;
    if experiments.iter().any(|e| e.quality != *q) {
        failures.push("simulated results differ between experiments of one seed".into());
    }
    let k = experiments.len();
    let host = |name: &str, unit: &'static str, values: Vec<f64>, extra: String| {
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        let note = format!("median of {}, range {lo:.4}-{hi:.4}{extra}", values.len());
        Metric::real(name, median(&values), unit, note)
    };
    let each = |f: fn(&Experiment) -> f64| experiments.iter().map(f).collect::<Vec<f64>>();
    let cpu = |f: fn(&Experiment) -> f64| format!(", cpu {:.3} s", median(&each(f)));
    let mut metrics = vec![
        host("setup_s", "s", setup_samples, String::new()),
        host("plan_s", "s", each(|e| e.plan_s), cpu(|e| e.plan_cpu_s)),
        host(
            "sim_mreq_per_s",
            "Mreq/s",
            sim_samples
                .iter()
                .map(|s| q.total_requests as f64 / s / 1e6)
                .collect(),
            format!(", {} requests", q.total_requests),
        ),
        host("total_s", "s", each(Experiment::total_s), cpu(|e| e.cpu_s)),
        Metric::real(
            "peak_rss_mib",
            peak_rss_mib,
            "MiB",
            "VmHWM after one experiment",
        ),
    ];
    metrics.extend(quality_metrics(q));
    print_table(&format!("end-to-end ({k} experiments)"), &metrics);
    metrics.retain(|m| GATED.contains(&m.name.as_str()));
    Ok((metrics, k as u64, failures))
}

/// Per-layer metrics from the traced run, plus the simulated statistics
/// that have no bound.
fn traced(w: &Workload, events: Option<&EventsFile>, seconds: f64) -> Outcome {
    let events = events.ok_or("the traced run needs the exported trace")?;
    let mut t = layers::run(w, events, seconds)?;
    t.metrics.extend(
        quality_metrics(&t.quality)
            .into_iter()
            .filter(|m| !GATED.contains(&m.name.as_str())),
    );
    print_table("per-layer (traced run)", &t.metrics);
    Ok((t.metrics, t.attempted, t.failures))
}
