//! The two FMS workloads, closed loops with one client.
//!
//! * `fms-cold`: every request compiles the FMS case study (H = 40 s,
//!   2 798 jobs, 4 processors) from scratch and runs 32 frames of steady
//!   periodic operation with the configurators idle.
//! * `fms-sporadic-warm`: the artifact is compiled once during set-up;
//!   every request fetches it from an `ArtifactCache` (a hit) and runs 32
//!   frames against fresh dense arrival traces for all seven sporadic
//!   configurators.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fppn_apps::{fms_network, fms_wcet, FmsVariant};
use fppn_core::{BehaviorBank, Fppn, Stimuli};
use fppn_sched::list_schedule;
use fppn_serve::{run_key, ArtifactCache};
use fppn_sim::hotpath::SeqRounds;
use fppn_sim::{
    CompileConfig, CompiledNetwork, ExecTimeModel, OverheadModel, RunScratch, SimConfig, SimRun,
    StaticTables,
};
use fppn_taskgraph::{derive_task_graph, derive_task_graph_unreduced};

use crate::checks::{self, Check, Checks};
use crate::gen;
use crate::measure::process_cpu_ms;
use crate::speed;
use crate::trace::{Tracer, SETUP};
use crate::{layer_metrics, Args, LayerFigures, Report};

pub const FRAMES: u64 = 32;
pub const PROCESSORS: usize = 4;
/// Mean gap of the dense sporadic traces, in thousandths of the tightest
/// mean gap `T/m` that the `(m, T)` window allows.
pub const DENSE_GAP_PERMILLE: i64 = 1300;
/// Requests served during set-up, before timing starts.
const WARMUP: u64 = 2;

pub struct Fms {
    pub net: Fppn,
    pub bank: BehaviorBank,
    pub compile: CompileConfig,
}

pub fn fms(variant: FmsVariant) -> Fms {
    let (net, bank, ids) = fms_network(variant);
    let compile = CompileConfig::new(fms_wcet(&ids), PROCESSORS);
    Fms { net, bank, compile }
}

/// The semantic fields only: backend fields keep their defaults, so a
/// change to how backends are selected does not change the benchmark.
pub fn sim_config(frames: u64) -> SimConfig {
    SimConfig {
        frames,
        exec_time: ExecTimeModel::Wcet,
        overhead: OverheadModel::NONE,
        ..SimConfig::default()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a closed loop measured. Latencies, busy time and CPU time are
/// scaled to the reference host speed (see `speed`); the raw wall-clock
/// figures are kept next to them.
#[derive(Debug, Default)]
pub struct Loop {
    pub attempted: u64,
    pub failed: u64,
    /// Latencies of completed requests, call to return (reference ms).
    pub latencies: Vec<f64>,
    pub raw_latencies: Vec<f64>,
    /// Client time from one reply to the next call (wall ms).
    pub gaps: Vec<f64>,
    /// Wall-clock and process CPU of the phase, less the client's input
    /// generation and calibration: scaled, and raw.
    pub busy_s: f64,
    pub cpu_ms: f64,
    pub raw_busy_s: f64,
    pub raw_cpu_ms: f64,
}

/// Drives `request` back to back for `seconds`. `input` makes request
/// `i`'s stimuli (the client's own work, left out of the phase's wall and
/// CPU time, like the speed calibration run before each request); `keep`
/// receives each completed output.
pub fn closed_loop<O>(
    seconds: f64,
    first: u64,
    mut input: impl FnMut(u64) -> Stimuli,
    mut request: impl FnMut(u64, &Stimuli) -> Result<O, String>,
    mut keep: impl FnMut(u64, O),
) -> Loop {
    let mut out = Loop::default();
    let start = Instant::now();
    let cpu0 = process_cpu_ms();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut own = Duration::ZERO;
    let mut prev_reply = start;
    // Per request: busy time from its call to the next iteration, its
    // latency if it completed, and the speed factor read before it.
    let mut busy: Vec<f64> = Vec::new();
    let mut latency: Vec<Option<f64>> = Vec::new();
    let mut factors: Vec<f64> = Vec::new();
    let mut prev_call: Option<Instant> = None;
    let mut i = first;
    loop {
        let g0 = Instant::now();
        if let Some(t0) = prev_call {
            busy.push((g0 - t0).as_secs_f64());
        }
        if g0 >= deadline && out.attempted > 0 {
            break;
        }
        let stimuli = input(i);
        factors.push(speed::factor(i));
        let t0 = Instant::now();
        own += t0 - g0;
        prev_call = Some(t0);
        out.gaps.push(ms(t0 - prev_reply));
        let result = request(i, &stimuli);
        let t1 = Instant::now();
        prev_reply = t1;
        out.attempted += 1;
        match result {
            Ok(o) => {
                latency.push(Some(ms(t1 - t0)));
                keep(i, o);
            }
            Err(e) => {
                latency.push(None);
                out.failed += 1;
                eprintln!("request {i} failed: {e}");
            }
        }
        i += 1;
    }
    let factors = speed::smooth(&factors);
    for ((lat, f), b) in latency.iter().zip(&factors).zip(&busy) {
        if let Some(l) = lat {
            out.raw_latencies.push(*l);
            out.latencies.push(l * f);
        }
        out.busy_s += b * f;
    }
    out.raw_busy_s = (start.elapsed() - own).as_secs_f64();
    out.raw_cpu_ms = process_cpu_ms() - cpu0 - ms(own);
    out.cpu_ms = out.raw_cpu_ms * out.busy_s / out.raw_busy_s;
    out
}

fn cold_request(
    fms: &Fms,
    stimuli: &Stimuli,
    config: &SimConfig,
) -> Result<(CompiledNetwork, SimRun), String> {
    let artifact =
        CompiledNetwork::compile(fms.net.clone(), &fms.compile).map_err(|e| e.to_string())?;
    let run = artifact
        .simulate(&fms.bank, stimuli, config)
        .map_err(|e| e.to_string())?;
    Ok((artifact, run))
}

fn warm_request(
    fms: &Fms,
    cache: &ArtifactCache,
    stimuli: &Stimuli,
    config: &SimConfig,
) -> Result<SimRun, String> {
    let artifact = cache
        .get_or_compile(&fms.net, &fms.compile)
        .map_err(|e| e.to_string())?;
    artifact
        .simulate(&fms.bank, stimuli, config)
        .map_err(|e| e.to_string())
}

/// The run-half layer calls on one request's inputs, after the request
/// returned: bind, rounds, the behavior replay (which must reproduce the
/// run's observables), the run key, and the scratch-reusing service run.
#[allow(clippy::too_many_arguments)]
pub fn probe_run(
    t: &mut Tracer,
    parent: usize,
    req: u64,
    artifact: &CompiledNetwork,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    config: &SimConfig,
    run: &SimRun,
    scratch: &mut RunScratch,
    memo_hits: &mut Vec<f64>,
) -> Check {
    let mut rounds = t
        .time("sim.bind", Some(parent), req, || {
            SeqRounds::new(
                artifact.net(),
                stimuli,
                artifact.derived(),
                artifact.tables(),
                config,
            )
        })
        .map_err(|e| e.to_string())?;
    let n = t
        .time("sim.rounds", Some(parent), req, || rounds.compute())
        .map_err(|e| e.to_string())?;
    if n != run.records.len() {
        return Err(format!(
            "SeqRounds computed {n} rounds, the run recorded {}",
            run.records.len()
        ));
    }
    memo_hits.push(rounds.memo_stats().0 as f64);
    drop(rounds);
    let replayed = t
        .time("core.behaviors", Some(parent), req, || {
            checks::replay_behaviors(artifact.net(), bank, stimuli, &run.records)
        })
        .map_err(|e| e.to_string())?;
    checks::observables_match(&replayed, &run.observables)
        .map_err(|e| format!("behavior replay: {e}"))?;
    std::hint::black_box(t.time("serve.run_key", Some(parent), req, || {
        run_key(artifact, stimuli, config)
    }));
    let direct = t
        .time("serve.service", Some(parent), req, || {
            artifact.simulate_with_scratch(bank, stimuli, config, scratch)
        })
        .map_err(|e| e.to_string())?;
    if direct.stats != run.stats {
        return Err(format!(
            "service run stats {:?} vs {:?}",
            direct.stats, run.stats
        ));
    }
    Ok(())
}

/// Times the three compile layers of `fms` once each, as set-up spans.
fn trace_compile_layers(t: &mut Tracer, fms: &Fms, parent: usize, req: u64) -> Result<(), String> {
    let derived = t
        .time("taskgraph.derive", Some(parent), req, || {
            derive_task_graph(&fms.net, &fms.compile.wcet)
        })
        .map_err(|e| e.to_string())?;
    let schedule = t.time("sched.schedule", Some(parent), req, || {
        list_schedule(
            &derived.graph,
            fms.compile.processors,
            fms.compile.heuristic,
        )
    });
    std::hint::black_box(t.time("sim.tables", Some(parent), req, || {
        StaticTables::build(&fms.net, &derived, &schedule)
    }));
    Ok(())
}

/// Figures of one traced closed loop.
#[derive(Default)]
struct Traced {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    gaps: Vec<f64>,
    memo_hits: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// The traced run of a closed loop, for `seconds`. Each round serves one
/// request untraced, exactly as the untraced run does (for the tracing
/// overhead and the layer-sum comparison), then one traced request:
/// `traced` makes its calls in spans under the request's root span and
/// returns the artifact and run, whose layer calls `probe` and
/// [`probe_run`] then time one by one.
#[allow(clippy::too_many_arguments)]
fn traced_loop(
    seconds: f64,
    first: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    fms: &Fms,
    config: &SimConfig,
    input: impl Fn(u64) -> Stimuli,
    mut untraced: impl FnMut(u64) -> Loop,
    mut traced: impl FnMut(
        &mut Tracer,
        usize,
        u64,
        &Stimuli,
    ) -> Result<(Arc<CompiledNetwork>, SimRun), String>,
    mut probe: impl FnMut(&mut Tracer, usize, u64) -> Check,
) -> Traced {
    let mut t = Traced::default();
    let mut scratch = RunScratch::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = first;
    while Instant::now() < deadline || t.attempted == 0 {
        let lp = untraced(i);
        t.untraced.extend(&lp.raw_latencies);
        t.gaps.extend(&lp.gaps);
        t.attempted += lp.attempted;
        t.failed += lp.failed;
        i += 1;

        let stimuli = input(i);
        let root = tracer.open("request", None, i);
        let result = traced(tracer, root, i, &stimuli);
        tracer.close(root);
        t.attempted += 1;
        match result {
            Ok((artifact, run)) => {
                t.traced.push(tracer.spans()[root].ms());
                let parent = tracer.open("probe", None, i);
                let verdict = probe(tracer, parent, i);
                checks.record("traced request: probe calls", verdict);
                let verdict = probe_run(
                    tracer,
                    parent,
                    i,
                    &artifact,
                    &fms.bank,
                    &stimuli,
                    config,
                    &run,
                    &mut scratch,
                    &mut t.memo_hits,
                );
                tracer.close(parent);
                checks.record("traced request: layer calls agree with the run", verdict);
            }
            Err(e) => {
                t.failed += 1;
                eprintln!("traced request {i} failed: {e}");
            }
        }
        i += 1;
    }
    t
}

impl Traced {
    fn report(
        self,
        tracer: &Tracer,
        artifact_misses: u64,
        path_layers: &'static [&'static str],
    ) -> Report {
        let figures = LayerFigures {
            untraced_ms: self.untraced,
            traced_ms: self.traced,
            lag_ms: self.gaps,
            memo_hits: self.memo_hits,
            run_cache_hit_ratio: 0.0,
            artifact_misses: artifact_misses as f64,
            path_layers,
        };
        Report::new(self.attempted, self.failed, layer_metrics(tracer, &figures))
    }
}

pub fn cold(args: &Args, process_start: Instant) -> Report {
    let fms = fms(FmsVariant::Original);
    let config = sim_config(FRAMES);
    let idle = Stimuli::new();
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(process_start);
    // A cache used only by the traced run, to time a hit on this network.
    let cache = ArtifactCache::new();
    for _ in 0..WARMUP {
        cold_request(&fms, &idle, &config).expect("warm-up request");
    }
    if args.trace {
        let setup = tracer.open("setup", None, SETUP);
        trace_compile_layers(&mut tracer, &fms, setup, SETUP).expect("compile layers");
        tracer
            .time("sim.compile", Some(setup), SETUP, || {
                cache.get_or_compile(&fms.net, &fms.compile)
            })
            .expect("probe cache fill");
        tracer.close(setup);
    }
    let setup_s = process_start.elapsed().as_secs_f64() * speed::factor3(0);

    let mut first: Option<(CompiledNetwork, SimRun)> = None;
    let mut last: Option<SimRun> = None;
    let mut stats_mismatches = 0u64;
    let mut keep = |_: u64, (artifact, run): (CompiledNetwork, SimRun)| match &first {
        None => first = Some((artifact, run)),
        Some((_, f)) => {
            if run.stats != f.stats || run.records.len() != f.records.len() {
                stats_mismatches += 1;
            }
            last = Some(run);
        }
    };

    let report = if args.trace {
        let t = traced_loop(
            args.seconds,
            0,
            &mut tracer,
            &mut checks,
            &fms,
            &config,
            |_| Stimuli::new(),
            |i| {
                closed_loop(
                    0.0,
                    i,
                    |_| Stimuli::new(),
                    |_, s| cold_request(&fms, s, &config),
                    &mut keep,
                )
            },
            |t, root, i, s| {
                let artifact = t
                    .time("sim.compile", Some(root), i, || {
                        CompiledNetwork::compile(fms.net.clone(), &fms.compile)
                    })
                    .map_err(|e| e.to_string())?;
                let run = t
                    .time("sim.run", Some(root), i, || {
                        artifact.simulate(&fms.bank, s, &config)
                    })
                    .map_err(|e| e.to_string())?;
                Ok((Arc::new(artifact), run))
            },
            |t, parent, i| {
                trace_compile_layers(t, &fms, parent, i)?;
                t.time("serve.artifact_lookup", Some(parent), i, || {
                    cache.get_or_compile(&fms.net, &fms.compile)
                })
                .map(drop)
                .map_err(|e| e.to_string())
            },
        );
        t.report(
            &tracer,
            cache.misses(),
            &[
                "taskgraph.derive",
                "sched.schedule",
                "sim.tables",
                "sim.run",
            ],
        )
    } else {
        let lp = closed_loop(
            args.seconds,
            0,
            |_| Stimuli::new(),
            |_, s| cold_request(&fms, s, &config),
            &mut keep,
        );
        Report::end_to_end(setup_s, &lp)
    };

    let Some((artifact, first_run)) = first else {
        return report.with_checks(checks);
    };
    println!("{}", checks::stats_line("first request", &first_run));
    checks.record(
        "every request's stats equal the first's",
        if stats_mismatches == 0 {
            Ok(())
        } else {
            Err(format!("{stats_mismatches} requests differ"))
        },
    );
    for (label, run) in [
        ("first request", Some(&first_run)),
        ("last request", last.as_ref()),
    ] {
        if let Some(run) = run {
            checks::check_run(
                &mut checks,
                label,
                &fms.net,
                &fms.bank,
                &idle,
                artifact.derived(),
                FRAMES,
                run,
            );
        }
    }
    let graph = &artifact.derived().graph;
    checks.record(
        "schedule respects edges, processors, arrivals, deadlines",
        checks::schedule_valid(graph, artifact.schedule()),
    );
    checks.record(
        "job census = burst·H/T′",
        checks::census_matches(&fms.net, artifact.derived()),
    );
    checks.record(
        "re-reducing the derived graph removes no edge",
        checks::reduction_is_minimal(graph),
    );
    let reduced = self::fms(FmsVariant::Reduced);
    let derived = derive_task_graph(&reduced.net, &reduced.compile.wcet);
    let unreduced = derive_task_graph_unreduced(&reduced.net, &reduced.compile.wcet);
    match (derived, unreduced) {
        (Ok(d), Ok(u)) => {
            checks.record(
                "reduced-hyperperiod FMS derives 812 jobs",
                if d.graph.job_count() == 812 {
                    Ok(())
                } else {
                    Err(format!("{} jobs", d.graph.job_count()))
                },
            );
            checks.record(
                "reduced FMS reachability = unreduced",
                checks::same_reachability(&d.graph, &u.graph),
            );
        }
        (d, u) => checks.record(
            "reduced FMS derivation",
            Err(format!("{:?} / {:?}", d.err(), u.err())),
        ),
    }
    finish_trace(args, &tracer);
    report.with_checks(checks)
}

pub fn sporadic_warm(args: &Args, process_start: Instant) -> Report {
    let fms = fms(FmsVariant::Original);
    let config = sim_config(FRAMES);
    let seed = args.seed;
    let input = |i: u64| gen::sporadic_stimuli(&fms.net, FRAMES, seed, i, DENSE_GAP_PERMILLE);
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(process_start);
    let cache = ArtifactCache::new();
    if args.trace {
        let setup = tracer.open("setup", None, SETUP);
        trace_compile_layers(&mut tracer, &fms, setup, SETUP).expect("compile layers");
        tracer.close(setup);
    }
    cache
        .get_or_compile(&fms.net, &fms.compile)
        .expect("FMS compiles");
    for i in 0..WARMUP {
        warm_request(&fms, &cache, &input(i), &config).expect("warm-up request");
    }
    let setup_s = process_start.elapsed().as_secs_f64() * speed::factor3(0);

    let mut first: Option<(u64, SimRun)> = None;
    let mut last: Option<(u64, SimRun)> = None;
    let mut short_runs = 0u64;
    let rounds = FRAMES as usize
        * cache
            .get_or_compile(&fms.net, &fms.compile)
            .expect("cached")
            .derived()
            .graph
            .job_count();
    let lookups_before = cache.hits() + cache.misses();
    let mut keep = |i: u64, run: SimRun| {
        if run.records.len() != rounds {
            short_runs += 1;
        }
        if first.is_none() {
            first = Some((i, run));
        } else {
            last = Some((i, run));
        }
    };

    let report = if args.trace {
        let t = traced_loop(
            args.seconds,
            WARMUP,
            &mut tracer,
            &mut checks,
            &fms,
            &config,
            input,
            |i| {
                closed_loop(
                    0.0,
                    i,
                    input,
                    |_, s| warm_request(&fms, &cache, s, &config),
                    &mut keep,
                )
            },
            |t, root, i, s| {
                let artifact = t
                    .time("serve.artifact_lookup", Some(root), i, || {
                        cache.get_or_compile(&fms.net, &fms.compile)
                    })
                    .map_err(|e| e.to_string())?;
                let run = t
                    .time("sim.run", Some(root), i, || {
                        artifact.simulate(&fms.bank, s, &config)
                    })
                    .map_err(|e| e.to_string())?;
                Ok((artifact, run))
            },
            |_, _, _| Ok(()),
        );
        t.report(
            &tracer,
            cache.misses(),
            &["serve.artifact_lookup", "sim.run"],
        )
    } else {
        let lp = closed_loop(
            args.seconds,
            WARMUP,
            input,
            |_, s| warm_request(&fms, &cache, s, &config),
            &mut keep,
        );
        Report::end_to_end(setup_s, &lp)
    };

    checks.record(
        "every request ran every round",
        if short_runs == 0 {
            Ok(())
        } else {
            Err(format!("{short_runs} runs are short"))
        },
    );
    let lookups = cache.hits() + cache.misses() - lookups_before;
    checks.record(
        "the artifact was compiled once",
        if cache.misses() == 1 && lookups > 0 {
            Ok(())
        } else {
            Err(format!("{} misses", cache.misses()))
        },
    );
    let artifact = cache
        .get_or_compile(&fms.net, &fms.compile)
        .expect("cached");
    for (label, kept) in [
        ("first request", first.as_ref()),
        ("last request", last.as_ref()),
    ] {
        let Some((i, run)) = kept else { continue };
        let stimuli = input(*i);
        if label == "first request" {
            println!("{}", checks::stats_line(&format!("request {i}"), run));
        }
        for pid in fms.net.process_ids() {
            let ev = fms.net.process(pid).event();
            if ev.is_sporadic() {
                checks.record(
                    &format!(
                        "{label}: arrivals of {} respect (m, T)",
                        fms.net.process(pid).name()
                    ),
                    checks::arrivals_respect_window(
                        stimuli.arrival_times(pid),
                        ev.burst(),
                        ev.period(),
                    ),
                );
            }
        }
        checks::check_run(
            &mut checks,
            label,
            &fms.net,
            &fms.bank,
            &stimuli,
            artifact.derived(),
            FRAMES,
            run,
        );
    }
    finish_trace(args, &tracer);
    report.with_checks(checks)
}

/// Writes the traced run's spans next to the benchmark.
pub fn finish_trace(args: &Args, tracer: &Tracer) {
    if !args.trace {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}
