//! `serve-mix`: an open loop through `fppn_serve::Server` with the run
//! cache on, followed by a saturation phase.
//!
//! Three tenants share one server: FMS with sporadic stimuli over a few
//! frames, the Fig. 5 FFT pipeline fed with the benchmark's own sample
//! frames, and a behavior-heavy `synthetic_fppn` network fed with integer
//! input samples. Every request fetches its artifact through
//! `ArtifactCache::get_or_compile`. A fixed share of requests repeats one
//! of the last few fresh requests exactly (same stimuli, same bank `Arc`),
//! so it can hit the run cache.
//!
//! The pool has one worker: its queue completes in submission order, so a
//! collector waiting on the tickets in that order stamps every reply when
//! it arrives, with no head-of-line delay of its own.
//!
//! A fourth tenant measures the host speed where the requests run: its
//! one-job network times the benchmark's two speed kernels inside the
//! pool worker, every few requests (see `speed`). Synthetic requests,
//! made of register arithmetic, are scaled by the arithmetic kernel;
//! every other request by the memory kernel.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use fppn_apps::{
    fft_network, fft_wcet, fms_network, fms_wcet, synthetic_fppn, FmsVariant, SyntheticFppnConfig,
    SyntheticGraphConfig,
};
use fppn_core::{
    BehaviorBank, EventSpec, Fppn, FppnBuilder, JobCtx, PortId, ProcessId, ProcessSpec, Stimuli,
    Value,
};
use fppn_sched::list_schedule;
use fppn_serve::{run_key, RunRequest, RunTicket, Server, ServerConfig};
use fppn_sim::{CompileConfig, CompiledNetwork, RunScratch, SimConfig, SimRun, StaticTables};
use fppn_taskgraph::{derive_task_graph, WcetModel};
use fppn_time::TimeQ;

use crate::checks::{self, Checks, ServeTotals};
use crate::fms::{finish_trace, probe_run, sim_config, DENSE_GAP_PERMILLE, PROCESSORS};
use crate::gen::{self, Rng};
use crate::measure::{median_of_percentiles, percentile, process_cpu_ms};
use crate::speed::{self, Readings};
use crate::trace::{Tracer, SETUP};
use crate::{end_to_end_metrics, layer_metrics, Args, LayerFigures, Report};

/// Offered load of the open loop, in requests per reference-speed second:
/// a little over a third of what the one-worker pool serves of this mix
/// (~85/s), so that a slow spell of the host does not queue requests up
/// before the speed readings stretch the schedule.
const RATE_PER_S: f64 = 32.0;
/// Requests between two speed calibrations.
const CALIBRATE_EVERY: u64 = 5;
/// Share of `--seconds` spent in the open loop; the rest saturates.
const OPEN_SHARE: f64 = 0.85;
/// Run-cache capacity; repeats target the last `RECENT` fresh requests.
/// Between a fresh request's insert and its repeat's lookup at most
/// `RECENT - 1` fresh requests and three calibrations insert, so every
/// repeat is still cached when it arrives.
const RUN_CACHE_ENTRIES: usize = 7;
const RECENT: usize = 4;
/// Saturation submits the next block once at most this many requests
/// are still unanswered: the queue never drains, and stays short.
const SATURATION_AHEAD: u64 = 5;
/// Open-loop blocks per window of the tail percentile: 100 requests, so
/// each window's 90th percentile leaves ten samples beyond it.
/// `latency_p90_ms` is the median of the windows' 90th percentiles.
const TAIL_WINDOW_BLOCKS: u64 = 5;
/// Replies kept for the reply-equals-direct-run and reference checks: the
/// first `SAMPLED` open-loop replies of each class (fresh FMS, FFT,
/// synthetic; repeats), so what they hold is the same in every run. Every
/// FFT reply's spectra are kept for the spectrum check.
const SAMPLED: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Fresh(usize),
    Repeat,
}

const FMS: usize = 0;
const FFT: usize = 1;
const SYNTH: usize = 2;
/// The speed-calibration tenant.
const CAL: usize = 3;

/// One block of the mix: the open loop and the saturation phase run
/// whole blocks, each shuffled under the seed. Sorted by service time
/// (run-cache hits and FFT well under 1 ms, FMS ~11 ms, synthetic ~24 ms)
/// the shares are 30 %, 50 % and 20 %: the median falls at the 40th
/// percentile of the FMS class and the 90th percentile at the median of
/// the synthetic class, away from the gaps between classes, where a
/// percentile would jump from run to run.
const BLOCK: [(Class, usize); 4] = [
    (Class::Fresh(FMS), 10),
    (Class::Fresh(FFT), 3),
    (Class::Fresh(SYNTH), 4),
    (Class::Repeat, 3),
];
const BLOCK_LEN: u64 = 20;

enum Kind {
    Fms,
    Fft {
        generator: ProcessId,
        consumer: ProcessId,
    },
    Synth,
    Calibrate {
        process: ProcessId,
    },
}

struct Tenant {
    name: &'static str,
    net: Fppn,
    bank: Arc<BehaviorBank>,
    compile: CompileConfig,
    frames: u64,
    kind: Kind,
}

impl Tenant {
    /// Whether the tenant is one of the mix's request classes (not the
    /// calibration tenant).
    fn tenant_class(&self) -> bool {
        !matches!(self.kind, Kind::Calibrate { .. })
    }

    fn inputs(&self, seed: u64, request: u64) -> Stimuli {
        match self.kind {
            Kind::Fms => {
                gen::sporadic_stimuli(&self.net, self.frames, seed, request, DENSE_GAP_PERMILLE)
            }
            Kind::Fft { generator, .. } => {
                gen::fft_stimuli(generator, &gen::fft_frames(self.frames, seed, request))
            }
            Kind::Synth => gen::input_stimuli(&self.net, self.frames, seed, request),
            // A fresh nonce keeps every calibration out of the run cache.
            Kind::Calibrate { process } => {
                let mut stimuli = Stimuli::new();
                stimuli.input(
                    process,
                    PortId::from_index(0),
                    vec![Value::Int(request as i64)],
                );
                stimuli
            }
        }
    }

    fn config(&self) -> SimConfig {
        sim_config(self.frames)
    }
}

/// The synthetic requests' share of the mix's service time: the part
/// of the mix made of register arithmetic.
const ALU_SHARE: f64 = 0.45;

/// Speed factors read inside the pool worker, one pair per calibration.
#[derive(Debug, Clone, Default)]
struct Speeds {
    /// The memory kernel's: scales every request but the synthetic ones.
    memory: Readings,
    /// The arithmetic kernel's: scales fresh synthetic requests.
    alu: Readings,
}

impl Speeds {
    /// The whole mix's factor from the two kernels' factors: each kernel
    /// slows its share of the mix's service time.
    fn blend(memory: f64, alu: f64) -> f64 {
        1.0 / ((1.0 - ALU_SHARE) / memory + ALU_SHARE / alu)
    }

    /// The mix's factor at `t`: it lays out the open-loop schedule.
    fn mix_at(&self, t: Instant) -> f64 {
        Self::blend(self.memory.at(t), self.alu.at(t))
    }

    /// The mix's mean factor over `[from, to]`: it scales throughput and
    /// CPU time.
    fn mix_mean(&self, from: Instant, to: Instant) -> f64 {
        Self::blend(self.memory.mean(from, to), self.alu.mean(from, to))
    }
}

/// A one-process network whose job runs both speed kernels on the pool
/// worker and records their factors in `speeds`.
fn calibrator(speeds: &Speeds) -> Tenant {
    let mut b = FppnBuilder::new();
    let process = b.process(
        ProcessSpec::new("calibrate", EventSpec::periodic(TimeQ::from_ms(100))).with_input("nonce"),
    );
    let speeds = speeds.clone();
    b.behavior(process, move || {
        let speeds = speeds.clone();
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let nonce = ctx
                .read_input(PortId::from_index(0))
                .and_then(|v| v.as_int())
                .unwrap_or(0) as u64;
            speeds.memory.push(speed::factor(nonce));
            speeds.alu.push(speed::alu_factor(nonce));
        })
    });
    let (net, bank) = b.build().expect("the calibration network is well-formed");
    Tenant {
        name: "calibrate",
        net,
        bank: Arc::new(bank),
        compile: CompileConfig::new(WcetModel::uniform(TimeQ::from_ms(1)), 1),
        frames: 1,
        kind: Kind::Calibrate { process },
    }
}

fn tenants(speeds: &Speeds) -> Vec<Tenant> {
    let (net, bank, ids) = fms_network(FmsVariant::Original);
    let fms = Tenant {
        name: "fms",
        compile: CompileConfig::new(fms_wcet(&ids), PROCESSORS),
        net,
        bank: Arc::new(bank),
        frames: 2,
        kind: Kind::Fms,
    };
    let (net, bank, ids) = fft_network();
    let fft = Tenant {
        name: "fft",
        net,
        bank: Arc::new(bank),
        compile: CompileConfig::new(fft_wcet(), PROCESSORS),
        frames: 8,
        kind: Kind::Fft {
            generator: ids.generator,
            consumer: ids.consumer,
        },
    };
    // The 48-process heavy shape of the scalability sweep, with input
    // ports so that every fresh request carries new samples.
    let w = synthetic_fppn(&SyntheticFppnConfig {
        shape: SyntheticGraphConfig {
            jobs: 48,
            depth: 6,
            seed: 48,
            ..SyntheticGraphConfig::default()
        },
        compute_iters: (10_000, 40_000),
        input_permille: 300,
        ..SyntheticFppnConfig::default()
    });
    let synth = Tenant {
        name: "synth",
        net: w.net,
        bank: Arc::new(w.bank),
        compile: CompileConfig::new(w.wcet, PROCESSORS),
        frames: 4,
        kind: Kind::Synth,
    };
    vec![fms, fft, synth, calibrator(speeds)]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Open { traced: bool },
    Saturation,
    Calibration,
}

/// A submitted request, as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    index: u64,
    tenant: usize,
    /// The fresh request whose inputs this one carries (itself, unless a
    /// repeat).
    input: u64,
    repeat: bool,
    phase: Phase,
    due: Instant,
    /// How late the generator sent it (ms).
    lag_ms: f64,
    /// The traced run's root span of this request.
    span: Option<usize>,
}

struct Reply {
    sent: Sent,
    at: Instant,
    deadline_misses: usize,
    ok: bool,
    /// The whole reply, for sampled requests.
    run: Option<Arc<SimRun>>,
    /// The FFT consumer's output, for FFT requests.
    spectra: Option<Vec<(u64, Value)>>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The request generator: class sequence, repeat targets and inputs, all
/// from the seed.
struct Generator<'a> {
    seed: u64,
    tenants: &'a [Tenant],
    artifacts: Vec<Arc<CompiledNetwork>>,
    next: u64,
    calibrations: u64,
    block: Vec<Class>,
    recent: VecDeque<(usize, u64, Stimuli)>,
    /// `get_or_compile` calls made, counted by the generator itself.
    lookups: u64,
    /// Time spent making inputs (the benchmark's work, not the program's).
    own_time: Duration,
}

impl<'a> Generator<'a> {
    fn new(seed: u64, tenants: &'a [Tenant], server: &Server) -> Self {
        let artifacts = tenants
            .iter()
            .map(|t| {
                server
                    .cache()
                    .get_or_compile(&t.net, &t.compile)
                    .expect("tenant network compiles")
            })
            .collect();
        Generator {
            seed,
            tenants,
            artifacts,
            next: 0,
            calibrations: 0,
            block: Vec::new(),
            recent: VecDeque::new(),
            lookups: tenants.len() as u64,
            own_time: Duration::ZERO,
        }
    }

    /// The next request's index, tenant, input index, repeat flag and
    /// stimuli.
    fn plan(&mut self) -> (u64, usize, u64, bool, Stimuli) {
        let t0 = Instant::now();
        let index = self.next;
        self.next += 1;
        let pos = index % BLOCK_LEN;
        if pos == 0 {
            self.block = BLOCK
                .iter()
                .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
                .collect();
            Rng::stream(self.seed, gen::MIX, index / BLOCK_LEN).shuffle(&mut self.block);
        }
        let planned = match self.block[pos as usize] {
            Class::Repeat if !self.recent.is_empty() => {
                let pick =
                    Rng::stream(self.seed, gen::REPEATS, index).below(self.recent.len() as u64);
                let (tenant, input, stimuli) = &self.recent[pick as usize];
                (index, *tenant, *input, true, stimuli.clone())
            }
            // The first requests of a run have nothing to repeat yet.
            Class::Repeat => self.fresh(index, FFT),
            Class::Fresh(tenant) => self.fresh(index, tenant),
        };
        self.own_time += t0.elapsed();
        planned
    }

    fn fresh(&mut self, index: u64, tenant: usize) -> (u64, usize, u64, bool, Stimuli) {
        let stimuli = self.tenants[tenant].inputs(self.seed, index);
        if self.recent.len() == RECENT {
            self.recent.pop_front();
        }
        self.recent.push_back((tenant, index, stimuli.clone()));
        (index, tenant, index, false, stimuli)
    }

    /// Plans and submits the next request (or a calibration), due at
    /// `due`, waiting for that time first.
    fn send(
        &mut self,
        server: &Server,
        phase: Phase,
        due: Instant,
        tracer: Option<&mut Tracer>,
    ) -> Result<(Sent, RunTicket), String> {
        let (index, tenant, input, repeat, stimuli) = if phase == Phase::Calibration {
            self.calibrations += 1;
            let k = self.calibrations;
            (k, CAL, k, false, self.tenants[CAL].inputs(self.seed, k))
        } else {
            self.plan()
        };
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let lag_ms = ms(Instant::now().saturating_duration_since(due));
        let t = &self.tenants[tenant];
        let config = t.config();
        self.lookups += 1;
        let (artifact, span) = match tracer {
            None => (server.cache().get_or_compile(&t.net, &t.compile), None),
            Some(tr) => {
                let due_ns = tr.ns(due);
                let root = tr.push("request", due_ns, due_ns, None, index);
                let artifact = tr.time("serve.artifact_lookup", Some(root), index, || {
                    server.cache().get_or_compile(&t.net, &t.compile)
                });
                if let Ok(a) = &artifact {
                    std::hint::black_box(tr.time("serve.run_key", Some(root), index, || {
                        run_key(a, &stimuli, &config)
                    }));
                }
                (artifact, Some(root))
            }
        };
        let artifact = artifact.map_err(|e| e.to_string())?;
        let ticket = server
            .submit(
                t.name,
                RunRequest::new(artifact, Arc::clone(&t.bank), stimuli, config),
            )
            .map_err(|e| e.to_string())?;
        let sent = Sent {
            index,
            tenant,
            input,
            repeat,
            phase,
            due,
            lag_ms,
            span,
        };
        Ok((sent, ticket))
    }
}

/// Waits on every ticket in submission order, stamps its reply and
/// signals `done` once per reply.
fn collect(
    rx: mpsc::Receiver<(Sent, RunTicket)>,
    done: mpsc::Sender<()>,
    fft_consumer: ProcessId,
) -> Vec<Reply> {
    let mut replies = Vec::new();
    // Sampled replies so far per class: fresh FMS, FFT, synthetic; repeats.
    let mut sampled = [0usize; 4];
    for (sent, ticket) in rx {
        let result = ticket.wait();
        let at = Instant::now();
        let class = if sent.repeat { 3 } else { sent.tenant.min(3) };
        let sample = matches!(sent.phase, Phase::Open { .. }) && sampled[class] < SAMPLED;
        replies.push(match result {
            Ok(report) => {
                sampled[class] += usize::from(sample);
                let spectra = (sent.tenant == FFT)
                    .then(|| checks::output_of(&report.run.observables, fft_consumer).to_vec());
                Reply {
                    sent,
                    at,
                    deadline_misses: report.deadline_misses,
                    ok: true,
                    run: sample.then_some(report.run),
                    spectra,
                }
            }
            Err(e) => {
                eprintln!("request {} failed: {e}", sent.index);
                Reply {
                    sent,
                    at,
                    deadline_misses: 0,
                    ok: false,
                    run: None,
                    spectra: None,
                }
            }
        });
        let _ = done.send(());
    }
    replies
}

/// An open-loop schedule of whole blocks: the gaps between sends in
/// reference-speed seconds, each `U[0.75, 1.25]` times the mean gap.
fn open_schedule(seed: u64, seconds: f64) -> Vec<f64> {
    let blocks = ((seconds * RATE_PER_S / BLOCK_LEN as f64).round() as u64).max(1);
    let mut rng = Rng::stream(seed, gen::SCHEDULE, 0);
    (0..blocks * BLOCK_LEN)
        .map(|_| (0.75 + rng.unit() / 2.0) / RATE_PER_S)
        .collect()
}

/// The load generator's side of a run: submissions and what it counted.
struct Load<'a> {
    gen: Generator<'a>,
    server: &'a Server,
    tx: mpsc::Sender<(Sent, RunTicket)>,
    done: mpsc::Receiver<()>,
    submitted: u64,
    replied: u64,
    failed_sends: u64,
}

impl Load<'_> {
    fn submit(&mut self, phase: Phase, due: Instant, tracer: Option<&mut Tracer>) {
        match self.gen.send(self.server, phase, due, tracer) {
            Ok(pair) => {
                self.submitted += 1;
                self.tx.send(pair).expect("collector is alive");
            }
            Err(e) => {
                self.failed_sends += 1;
                eprintln!("send failed: {e}");
            }
        }
    }

    /// Queues a speed calibration behind the requests already sent.
    fn calibrate(&mut self) {
        self.submit(Phase::Calibration, Instant::now(), None);
    }

    /// Waits until at most `n` submitted requests lack a reply.
    fn wait_outstanding(&mut self, n: u64) {
        while self.submitted - self.replied > n {
            self.done.recv().expect("collector is alive");
            self.replied += 1;
        }
    }
}

/// What the measured phases left behind.
struct Outcome {
    replies: Vec<Reply>,
    /// Process start to the first timed request, wall clock (s).
    setup_s: f64,
    open_start: Instant,
    /// Saturation start and end, and the measured phases' process CPU
    /// (ms) less input generation; `None` in the traced run.
    measured: Option<(Instant, Instant, f64)>,
    artifacts: Vec<Arc<CompiledNetwork>>,
    lookups: u64,
    submitted: u64,
    failed_sends: u64,
}

fn drive(
    args: &Args,
    tenants: &[Tenant],
    server: &Server,
    speeds: &Speeds,
    tracer: &mut Tracer,
    process_start: Instant,
) -> Outcome {
    let (tx, rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let Kind::Fft { consumer, .. } = tenants[FFT].kind else {
            unreachable!("tenant {FFT} is the FFT pipeline")
        };
        let collector = s.spawn(move || collect(rx, done_tx, consumer));
        let mut d = Load {
            gen: Generator::new(args.seed, tenants, server),
            server,
            tx,
            done: done_rx,
            submitted: 0,
            replied: 0,
            failed_sends: 0,
        };
        // Set-up: one block, one request at a time, fills the repeat
        // history and warms the worker; calibrations interleave.
        for k in 0..BLOCK_LEN {
            if k % 4 == 0 {
                d.calibrate();
            }
            d.submit(Phase::Warmup, Instant::now(), None);
            d.wait_outstanding(0);
        }
        let setup_s = process_start.elapsed().as_secs_f64();

        let open_secs = if args.trace {
            args.seconds
        } else {
            args.seconds * OPEN_SHARE
        };
        let schedule = open_schedule(args.seed, open_secs);
        let own0 = d.gen.own_time;
        let cpu0 = process_cpu_ms();
        let open_start = Instant::now();
        let mut due = open_start;
        for (k, gap) in schedule.iter().enumerate() {
            if (k as u64).is_multiple_of(CALIBRATE_EVERY) {
                d.calibrate();
            }
            // The schedule is in reference-speed time: a slower host gets
            // proportionally longer gaps, so the pool stays as busy.
            due += Duration::from_secs_f64(gap / speeds.mix_at(Instant::now()));
            // The traced run alternates untraced and traced blocks, so the
            // tracing overhead is measured under the same load.
            let traced = args.trace && (k as u64 / BLOCK_LEN) % 2 == 1;
            let tracer = if traced { Some(&mut *tracer) } else { None };
            d.submit(Phase::Open { traced }, due, tracer);
        }
        d.wait_outstanding(0);

        let mut measured = None;
        if !args.trace {
            let sat_start = Instant::now();
            let sat_end = open_start + Duration::from_secs_f64(args.seconds);
            loop {
                for k in 0..BLOCK_LEN {
                    if k.is_multiple_of(CALIBRATE_EVERY) {
                        d.calibrate();
                    }
                    d.submit(Phase::Saturation, Instant::now(), None);
                }
                d.wait_outstanding(SATURATION_AHEAD);
                if Instant::now() >= sat_end {
                    break;
                }
            }
            d.wait_outstanding(0);
            let cpu = process_cpu_ms() - cpu0 - ms(d.gen.own_time - own0);
            measured = Some((sat_start, Instant::now(), cpu));
        }
        let Load {
            gen,
            tx,
            submitted,
            failed_sends,
            ..
        } = d;
        drop(tx);
        Outcome {
            replies: collector.join().expect("collector thread"),
            setup_s,
            open_start,
            measured,
            artifacts: gen.artifacts,
            lookups: gen.lookups,
            submitted,
            failed_sends,
        }
    })
}

pub fn mix(args: &Args, process_start: Instant) -> Report {
    let speeds = Speeds::default();
    let readings = &speeds.memory;
    let tenants = tenants(&speeds);
    let mut tracer = Tracer::new(process_start);
    let mut checks = Checks::default();
    let server = Server::with_config(&ServerConfig {
        workers: 1,
        run_cache_entries: Some(RUN_CACHE_ENTRIES),
        ..ServerConfig::default()
    });
    for t in &tenants {
        server.register_tenant(t.name, u64::MAX);
        if args.trace && t.tenant_class() {
            trace_compile_layers(&mut tracer, t);
        }
    }
    let out = drive(args, &tenants, &server, &speeds, &mut tracer, process_start);

    let measured: Vec<&Reply> = out
        .replies
        .iter()
        .filter(|r| !matches!(r.sent.phase, Phase::Warmup | Phase::Calibration))
        .collect();
    let open: Vec<&Reply> = measured
        .iter()
        .copied()
        .filter(|r| matches!(r.sent.phase, Phase::Open { .. }))
        .collect();
    let calibrations = out
        .replies
        .iter()
        .filter(|r| r.sent.phase == Phase::Calibration);
    let attempted = measured.len() as u64 + out.failed_sends;
    let failed = out.failed_sends + out.replies.iter().filter(|r| !r.ok).count() as u64;
    let latency = |r: &&Reply| ms(r.at.saturating_duration_since(r.sent.due));
    let lag: Vec<f64> = open.iter().map(|r| r.sent.lag_ms).collect();
    let span_s = open
        .last()
        .map_or(0.0, |r| (r.sent.due - out.open_start).as_secs_f64());
    println!(
        "open loop: {} requests at {RATE_PER_S}/s reference over {span_s:.3} s wall, generator lag p90 {:.3} ms, \
         {} speed readings (mean factor: memory {:.3}, arithmetic {:.3})",
        open.len(),
        percentile(&lag, 0.9),
        calibrations.count(),
        readings.mean(process_start, Instant::now()),
        speeds.alu.mean(process_start, Instant::now())
    );
    for (name, pick) in [
        ("fms", Class::Fresh(FMS)),
        ("fft", Class::Fresh(FFT)),
        ("synth", Class::Fresh(SYNTH)),
        ("repeat", Class::Repeat),
    ] {
        let lat: Vec<f64> = open
            .iter()
            .filter(|r| {
                r.ok && if r.sent.repeat {
                    pick == Class::Repeat
                } else {
                    pick == Class::Fresh(r.sent.tenant)
                }
            })
            .map(latency)
            .collect();
        println!(
            "  class {name}: {} replies, raw latency p50 {:.3} ms, p90 {:.3} ms",
            lat.len(),
            percentile(&lat, 0.5),
            percentile(&lat, 0.9)
        );
    }

    let report = match out.measured {
        Some((sat_start, sat_end, cpu_ms)) => {
            let ok_open: Vec<&Reply> = open.iter().copied().filter(|r| r.ok).collect();
            // Each latency in reference milliseconds, by the kernel that
            // reads the speed of the work the request is made of.
            let scaled = |r: &Reply| {
                let speed = if r.sent.tenant == SYNTH && !r.sent.repeat {
                    &speeds.alu
                } else {
                    readings
                };
                latency(&r) * speed.at(r.at)
            };
            let lat: Vec<f64> = ok_open.iter().map(|r| scaled(r)).collect();
            let raw: Vec<f64> = ok_open.iter().map(latency).collect();
            // The tail per window of whole blocks, the last window taking
            // the odd blocks.
            let block = |r: &Reply| r.sent.index / BLOCK_LEN;
            let first = ok_open.iter().map(|r| block(r)).min().unwrap_or(0);
            let blocks = ok_open
                .iter()
                .map(|r| block(r) - first + 1)
                .max()
                .unwrap_or(0);
            let windows = (blocks / TAIL_WINDOW_BLOCKS).max(1);
            let mut tail = vec![Vec::new(); windows as usize];
            for r in &ok_open {
                let w = ((block(r) - first) / TAIL_WINDOW_BLOCKS).min(windows - 1);
                tail[w as usize].push(scaled(r));
            }
            let tail_p90: Vec<String> = tail
                .iter()
                .map(|w| format!("{:.2}", percentile(w, 0.9)))
                .collect();
            let sat_done = measured
                .iter()
                .filter(|r| r.ok && r.sent.phase == Phase::Saturation)
                .count();
            let completed = measured.iter().filter(|r| r.ok).count() as f64;
            let sat_s = (sat_end - sat_start).as_secs_f64() * speeds.mix_mean(sat_start, sat_end);
            let cpu_scaled = cpu_ms * speeds.mix_mean(out.open_start, sat_end);
            println!(
                "saturation: {sat_done} requests in {sat_s:.3} reference s; {} latency samples, \
                 raw wall clock p50 {:.3} ms, p90 {:.3} ms; scaled p90 of {windows} windows of \
                 {} or more samples: [{}]",
                lat.len(),
                percentile(&raw, 0.5),
                percentile(&raw, 0.9),
                TAIL_WINDOW_BLOCKS * BLOCK_LEN,
                tail_p90.join(", ")
            );
            let setup_s = out.setup_s * readings.at(out.open_start);
            Report::new(
                attempted,
                failed,
                end_to_end_metrics(
                    setup_s,
                    percentile(&lat, 0.5),
                    median_of_percentiles(&tail, 0.9),
                    sat_done as f64 / sat_s,
                    cpu_scaled / completed,
                ),
            )
        }
        None => {
            let of = |traced: bool| -> Vec<f64> {
                open.iter()
                    .filter(|r| r.ok && r.sent.phase == Phase::Open { traced })
                    .map(latency)
                    .collect()
            };
            for r in &open {
                if let Some(span) = r.sent.span {
                    let at = tracer.ns(r.at);
                    tracer.set_end(span, at);
                }
            }
            post_pass(
                args,
                &tenants,
                &out.artifacts,
                &open,
                &mut tracer,
                &mut checks,
            );
            let cache = server.run_cache().expect("the run cache is on");
            let figures = LayerFigures {
                untraced_ms: of(false),
                traced_ms: of(true),
                lag_ms: lag,
                memo_hits: Vec::new(),
                run_cache_hit_ratio: cache.hits() as f64
                    / (cache.hits() + cache.misses()).max(1) as f64,
                artifact_misses: server.cache().misses() as f64,
                path_layers: &[],
            };
            Report::new(attempted, failed, layer_metrics(&tracer, &figures))
        }
    };

    // Totals reached by independent paths.
    let stats: Vec<_> = tenants
        .iter()
        .map(|t| server.tenant_stats(t.name).expect("registered tenant"))
        .collect();
    let totals = ServeTotals {
        sent: out.submitted,
        replies: out.replies.len() as u64,
        tenant_completed: stats.iter().map(|s| s.completed).sum(),
        lookups: out.lookups,
        artifact_hits: server.cache().hits(),
        artifact_misses: server.cache().misses(),
        distinct_networks: tenants.len() as u64,
        reply_deadline_misses: out.replies.iter().map(|r| r.deadline_misses as u64).sum(),
        tenant_deadline_misses: stats.iter().map(|s| s.deadline_misses).sum(),
    };
    println!("totals: {totals:?}");
    checks.record("serve totals agree", checks::serve_totals_agree(&totals));
    let repeats = out.replies.iter().filter(|r| r.sent.repeat).count() as u64;
    let hits: u64 = stats.iter().map(|s| s.run_cache_hits).sum();
    checks.record(
        "every repeat hit the run cache",
        if hits == repeats {
            Ok(())
        } else {
            Err(format!("{hits} run-cache hits for {repeats} repeats"))
        },
    );

    // Sampled replies against a direct run and the zero-delay reference;
    // every FFT reply against the DFT of the frames sent.
    let mut printed = [false; 3];
    let mut spectra = (0, Ok(()));
    for r in &out.replies {
        let t = &tenants[r.sent.tenant];
        if let Some(out) = &r.spectra {
            spectra.0 += 1;
            if spectra.1.is_ok() {
                let frames = gen::fft_frames(t.frames, args.seed, r.sent.input);
                spectra.1 = checks::spectra_match(out, &frames)
                    .map_err(|e| format!("request {}: {e}", r.sent.index));
            }
        }
        let Some(run) = &r.run else { continue };
        let label = format!("request {} ({})", r.sent.index, t.name);
        let stimuli = t.inputs(args.seed, r.sent.input);
        let artifact = &out.artifacts[r.sent.tenant];
        match artifact.simulate(&t.bank, &stimuli, &t.config()) {
            Ok(direct) => checks.record(
                &format!("{label}: reply = direct run"),
                checks::run_equals(run, &direct),
            ),
            Err(e) => checks.record(&format!("{label}: direct run"), Err(e.to_string())),
        }
        checks::check_run(
            &mut checks,
            &label,
            &t.net,
            &t.bank,
            &stimuli,
            artifact.derived(),
            t.frames,
            run,
        );
        if !std::mem::replace(&mut printed[r.sent.tenant], true) {
            println!("{}", checks::stats_line(&label, run));
        }
    }
    checks.record(
        &format!(
            "FFT spectra = DFT of the frames sent ({} replies)",
            spectra.0
        ),
        spectra.1,
    );
    finish_trace(args, &tracer);
    report.with_checks(checks)
}

/// Times the three compile layers of one tenant's network, as set-up
/// spans.
fn trace_compile_layers(t: &mut Tracer, tenant: &Tenant) {
    let setup = t.open("setup", None, SETUP);
    if let Ok(derived) = t.time("taskgraph.derive", Some(setup), SETUP, || {
        derive_task_graph(&tenant.net, &tenant.compile.wcet)
    }) {
        let schedule = t.time("sched.schedule", Some(setup), SETUP, || {
            list_schedule(
                &derived.graph,
                tenant.compile.processors,
                tenant.compile.heuristic,
            )
        });
        std::hint::black_box(t.time("sim.tables", Some(setup), SETUP, || {
            StaticTables::build(&tenant.net, &derived, &schedule)
        }));
    }
    t.close(setup);
}

/// After the traced open loop: the service time of every traced fresh
/// request, run directly with `simulate_with_scratch`, and its run-half
/// layer calls.
fn post_pass(
    args: &Args,
    tenants: &[Tenant],
    artifacts: &[Arc<CompiledNetwork>],
    open: &[&Reply],
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    let mut scratch = RunScratch::new();
    let mut memo = Vec::new();
    let mut service: Vec<Vec<f64>> = vec![Vec::new(); tenants.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 4.0);
    for r in open
        .iter()
        .filter(|r| r.ok && !r.sent.repeat && r.sent.span.is_some())
    {
        if Instant::now() > deadline {
            break;
        }
        let t = &tenants[r.sent.tenant];
        let artifact = &artifacts[r.sent.tenant];
        let stimuli = t.inputs(args.seed, r.sent.input);
        let config = t.config();
        let index = r.sent.index;
        let post = tracer.open("post", None, index);
        match tracer.time("sim.run", Some(post), index, || {
            artifact.simulate(&t.bank, &stimuli, &config)
        }) {
            Ok(run) => {
                let verdict = probe_run(
                    tracer,
                    post,
                    index,
                    artifact,
                    &t.bank,
                    &stimuli,
                    &config,
                    &run,
                    &mut scratch,
                    &mut memo,
                );
                checks.record("traced request: layer calls agree with the run", verdict);
                if let Some(span) = tracer
                    .spans()
                    .iter()
                    .rev()
                    .find(|s| s.name == "serve.service")
                {
                    service[r.sent.tenant].push(span.ms());
                }
            }
            Err(e) => checks.record("traced request: direct run", Err(e.to_string())),
        }
        tracer.close(post);
    }
    for (t, v) in tenants
        .iter()
        .zip(&service)
        .filter(|(t, _)| t.tenant_class())
    {
        println!(
            "  service {}: p50 {:.3} ms over {} requests",
            t.name,
            percentile(v, 0.5),
            v.len()
        );
    }
}
