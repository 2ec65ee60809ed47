//! `fppn-perfbench`: times whole requests through the FPPN tool chain —
//! compile (derive → reduce → schedule → tables) and run (bind → rounds →
//! canonicalize → behaviors → render) — end to end, and per layer in a
//! traced run. See `README.md` for the workloads, metrics and figures.
//!
//! ```text
//! perfbench --workload <fms-cold|fms-sporadic-warm|serve-mix> \
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the result, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod checks;
mod fms;
mod gen;
mod measure;
mod serve;
mod speed;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use checks::Checks;
use measure::{median, percentile};
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <fms-cold|fms-sporadic-warm|serve-mix> [--seed N] [--seconds S] [--trace 0|1]";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Removes every `FPPN_*` variable: they switch backends, the frame memo
/// and the run cache behind the program's defaults.
fn clear_fppn_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FPPN_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub checks: Checks,
}

impl Report {
    pub fn new(attempted: u64, failed: u64, metrics: Vec<Metric>) -> Self {
        Report {
            attempted,
            failed,
            metrics,
            checks: Checks::default(),
        }
    }

    /// The six end-to-end metrics of a closed loop. Peak RSS is read here,
    /// when the measured phase ends and before the output checks run.
    pub fn end_to_end(setup_s: f64, lp: &fms::Loop) -> Self {
        let completed = lp.latencies.len() as f64;
        println!(
            "closed loop: {} requests, {} samples; raw wall clock: p50 {:.3} ms, p90 {:.3} ms, busy {:.3} s, cpu {:.0} ms; \
             speed-scaled busy {:.3} s",
            lp.attempted,
            lp.latencies.len(),
            median(&lp.raw_latencies),
            percentile(&lp.raw_latencies, 0.9),
            lp.raw_busy_s,
            lp.raw_cpu_ms,
            lp.busy_s
        );
        Report::new(
            lp.attempted,
            lp.failed,
            end_to_end_metrics(
                setup_s,
                median(&lp.latencies),
                percentile(&lp.latencies, 0.9),
                completed / lp.busy_s,
                lp.cpu_ms / completed,
            ),
        )
    }

    pub fn with_checks(mut self, checks: Checks) -> Self {
        self.checks = checks;
        self
    }

    fn print(&self) {
        for f in &self.checks.failures {
            println!("CHECK FAILED {f}");
        }
        println!(
            "checks: {} passed, {} failed",
            self.checks.passed,
            self.checks.failures.len()
        );
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.checks.ok() && finite && self.checks.passed > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

pub fn end_to_end_metrics(
    setup_s: f64,
    latency_p50_ms: f64,
    latency_p90_ms: f64,
    requests_per_s: f64,
    cpu_ms_per_request: f64,
) -> Vec<Metric> {
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", setup_s, "s"),
        m("latency_p50_ms", latency_p50_ms, "ms"),
        m("latency_p90_ms", latency_p90_ms, "ms"),
        m("requests_per_s", requests_per_s, "1/s"),
        m("cpu_ms_per_request", cpu_ms_per_request, "ms"),
        m("peak_rss_mib", measure::peak_rss_mib(), "MiB"),
    ]
}

/// What a traced run hands to [`layer_metrics`] besides its spans.
pub struct LayerFigures {
    /// Request latencies of the untraced requests interleaved with the
    /// traced ones, and of the traced requests themselves (ms).
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    /// How late the load generator sent: in the open loop, send time minus
    /// due time; in a closed loop, the client's time from one reply to its
    /// next call (ms).
    pub lag_ms: Vec<f64>,
    pub memo_hits: Vec<f64>,
    pub run_cache_hit_ratio: f64,
    pub artifact_misses: f64,
    /// The layers whose per-request sum should match the untraced median
    /// latency; empty where no such sum is taken.
    pub path_layers: &'static [&'static str],
}

/// Per request, `total` minus the named parts, for requests that have
/// every span.
fn residual(tracer: &Tracer, total: &str, parts: &[&str]) -> Vec<f64> {
    let total = tracer.per_request_ms(total);
    let parts: Vec<BTreeMap<u64, f64>> = parts.iter().map(|p| tracer.per_request_ms(p)).collect();
    total
        .iter()
        .filter_map(|(req, t)| {
            parts
                .iter()
                .map(|p| p.get(req))
                .sum::<Option<f64>>()
                .map(|s| t - s)
        })
        .collect()
}

/// Every per-layer metric from a traced run's spans: the median duration
/// of each timed call, plus the counts and ratios the run hands over.
pub fn layer_metrics(tracer: &Tracer, f: &LayerFigures) -> Vec<Metric> {
    let untraced_p50 = median(&f.untraced_ms);
    let traced_p50 = median(&f.traced_ms);
    println!(
        "traced run: {} untraced and {} traced requests, p50 {untraced_p50:.3} / {traced_p50:.3} ms",
        f.untraced_ms.len(),
        f.traced_ms.len()
    );
    if !f.path_layers.is_empty() {
        let sums: Vec<f64> = {
            let per: Vec<BTreeMap<u64, f64>> = f
                .path_layers
                .iter()
                .map(|l| tracer.per_request_ms(l))
                .collect();
            per[0]
                .keys()
                .filter_map(|r| per.iter().map(|p| p.get(r)).sum::<Option<f64>>())
                .collect()
        };
        let sum = median(&sums);
        println!(
            "layer sum ({}): median {sum:.3} ms over {} requests; untraced p50 {untraced_p50:.3} ms; gap {:+.1}%",
            f.path_layers.join(" + "),
            sums.len(),
            (sum - untraced_p50) / untraced_p50 * 100.0
        );
    }
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "taskgraph.derive_ms",
            tracer.median_ms("taskgraph.derive"),
            "ms",
        ),
        m(
            "sched.schedule_ms",
            tracer.median_ms("sched.schedule"),
            "ms",
        ),
        m("sim.tables_ms", tracer.median_ms("sim.tables"), "ms"),
        m("sim.bind_ms", tracer.median_ms("sim.bind"), "ms"),
        m("sim.rounds_ms", tracer.median_ms("sim.rounds"), "ms"),
        m("sim.memo_hits", median(&f.memo_hits), "count"),
        m(
            "core.behaviors_ms",
            tracer.median_ms("core.behaviors"),
            "ms",
        ),
        m(
            "sim.finalize_rest_ms",
            median(&residual(
                tracer,
                "sim.run",
                &["sim.bind", "sim.rounds", "core.behaviors"],
            )),
            "ms",
        ),
        m("sim.run_ms", tracer.median_ms("sim.run"), "ms"),
        m(
            "serve.artifact_lookup_us",
            tracer.median_ms("serve.artifact_lookup") * 1e3,
            "us",
        ),
        m(
            "serve.run_key_us",
            tracer.median_ms("serve.run_key") * 1e3,
            "us",
        ),
        m("serve.service_ms", tracer.median_ms("serve.service"), "ms"),
        m(
            "serve.queue_wait_ms",
            median(&residual(tracer, "request", &["serve.service"])),
            "ms",
        ),
        m("serve.run_cache_hit_ratio", f.run_cache_hit_ratio, "ratio"),
        m("serve.artifact_misses", f.artifact_misses, "count"),
        m("serve.generator_lag_ms", percentile(&f.lag_ms, 0.9), "ms"),
        m(
            "trace.overhead_pct",
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
            "%",
        ),
    ]
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let cleared = clear_fppn_env();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("perfbench: --workload is required\n{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} cleared_env=[{}]",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measure::nproc(),
        cleared.join(",")
    );
    let report = match args.workload.as_str() {
        "fms-cold" => fms::cold(&args, process_start),
        "fms-sporadic-warm" => fms::sporadic_warm(&args, process_start),
        "serve-mix" => serve::mix(&args, process_start),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report.print();
    ExitCode::SUCCESS
}
