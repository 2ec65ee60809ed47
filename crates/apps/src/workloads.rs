//! Random FPPN workload generation for stress, property and scalability
//! testing.
//!
//! Networks are generated from a seed: layered periodic processes with
//! FIFO/blackboard channels along a total functional-priority order, plus
//! sporadic configurators attached to random periodic users (satisfying the
//! §III-A subclass restriction by construction). Behaviors are integer
//! state machines, so observables are exactly comparable across execution
//! backends.

use fppn_core::{
    BehaviorBank, ChannelId, ChannelKind, EventSpec, Fppn, FppnBuilder, JobCtx, PortId,
    ProcessId, ProcessSpec, Value,
};
use fppn_taskgraph::{Job, JobId, TaskGraph, WcetModel};
use fppn_time::TimeQ;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a random workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of periodic processes.
    pub periodic: usize,
    /// Number of sporadic processes (each attached to a periodic user).
    pub sporadic: usize,
    /// Candidate periods (ms). Defaults are harmonic-ish multirate.
    pub periods_ms: Vec<i64>,
    /// Probability (‰) of a channel between each FP-ordered process pair.
    /// Values above 1000 are clamped to 1000 (a channel everywhere).
    pub channel_density_permille: u32,
    /// WCET range (ms), sampled per process; must be ordered `lo <= hi`
    /// (values below 1 ms are raised to 1 ms).
    pub wcet_range_ms: (i64, i64),
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            periodic: 6,
            sporadic: 2,
            periods_ms: vec![100, 200, 400, 800],
            channel_density_permille: 350,
            wcet_range_ms: (1, 10),
            seed: 0,
        }
    }
}

/// A generated workload: network, behaviors and WCET table.
pub struct Workload {
    /// The generated network.
    pub net: Fppn,
    /// Behavior factories.
    pub bank: BehaviorBank,
    /// Per-process WCETs.
    pub wcet: WcetModel,
}

/// Generates a random, always-valid FPPN workload.
///
/// # Panics
///
/// Panics if `periodic == 0`, `periods_ms` is empty, or
/// `wcet_range_ms.0 > wcet_range_ms.1` — each with a message naming the
/// offending field, instead of an opaque `gen_range` failure mid-build.
pub fn random_workload(cfg: &WorkloadConfig) -> Workload {
    assert!(cfg.periodic > 0, "need at least one periodic process");
    assert!(!cfg.periods_ms.is_empty(), "need candidate periods");
    assert!(
        cfg.wcet_range_ms.0 <= cfg.wcet_range_ms.1,
        "wcet_range_ms must be ordered (lo, hi), got ({}, {})",
        cfg.wcet_range_ms.0,
        cfg.wcet_range_ms.1
    );
    let density = cfg.channel_density_permille.min(1000);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ms = TimeQ::from_ms;
    let mut b = FppnBuilder::new();

    // Periodic layer: FP follows the index order.
    let mut periodic = Vec::with_capacity(cfg.periodic);
    let mut periods = Vec::with_capacity(cfg.periodic);
    for i in 0..cfg.periodic {
        let t = cfg.periods_ms[rng.gen_range(0..cfg.periods_ms.len())];
        periods.push(t);
        let spec = ProcessSpec::new(format!("p{i}"), EventSpec::periodic(ms(t)));
        periodic.push(b.process(spec));
    }
    // Channels between ordered pairs.
    let mut in_channels: Vec<Vec<(ChannelId, ChannelKind)>> = vec![Vec::new(); cfg.periodic];
    let mut out_channels: Vec<Vec<ChannelId>> = vec![Vec::new(); cfg.periodic];
    for i in 0..cfg.periodic {
        for j in (i + 1)..cfg.periodic {
            if rng.gen_range(0u32..1000) < density {
                let kind = if rng.gen_bool(0.5) {
                    ChannelKind::Fifo
                } else {
                    ChannelKind::Blackboard
                };
                let ch = b.channel(format!("c{i}_{j}"), periodic[i], periodic[j], kind);
                b.priority(periodic[i], periodic[j]);
                out_channels[i].push(ch);
                in_channels[j].push((ch, kind));
            }
        }
    }

    // Sporadic configurators.
    let mut sporadic = Vec::with_capacity(cfg.sporadic);
    for s in 0..cfg.sporadic {
        let user_idx = rng.gen_range(0..cfg.periodic);
        let user = periodic[user_idx];
        let mult = rng.gen_range(1i64..=3);
        let burst = rng.gen_range(1..=3u32);
        let t_sp = periods[user_idx] * mult;
        let spec = ProcessSpec::new(format!("s{s}"), EventSpec::sporadic(burst, ms(t_sp)));
        let sp = b.process(spec);
        let ch = b.channel(format!("cs{s}"), sp, user, ChannelKind::Blackboard);
        if rng.gen_bool(0.5) {
            b.priority(sp, user);
        } else {
            b.priority(user, sp);
        }
        in_channels[user_idx].push((ch, ChannelKind::Blackboard));
        sporadic.push((sp, ch));
        let salt = 7919 * (s as i64 + 1);
        b.behavior(sp, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                ctx.write(ch, Value::Int(salt.wrapping_mul(ctx.k() as i64)))
            })
        });
    }

    // Behaviors: integer folds over everything read. All state flows into
    // channel writes, which `Observables` logs completely, so every
    // process is observable without dedicated output ports.
    for i in 0..cfg.periodic {
        let ins = in_channels[i].clone();
        let outs = out_channels[i].clone();
        let salt = 31 * (i as i64 + 1);
        b.behavior(periodic[i], move || {
            let ins = ins.clone();
            let outs = outs.clone();
            let mut acc: i64 = salt;
            Box::new(move |ctx: &mut JobCtx<'_>| {
                for &(ch, kind) in &ins {
                    match kind {
                        ChannelKind::Blackboard => {
                            if let Some(Value::Int(x)) = ctx.read(ch) {
                                acc = acc.wrapping_mul(31).wrapping_add(x);
                            }
                        }
                        ChannelKind::Fifo => {
                            while let Some(v) = ctx.read(ch) {
                                if let Value::Int(x) = v {
                                    acc = acc.wrapping_mul(31).wrapping_add(x);
                                }
                            }
                        }
                    }
                }
                acc = acc.wrapping_add(ctx.k() as i64);
                for &ch in &outs {
                    ctx.write(ch, Value::Int(acc));
                }
            })
        });
    }

    let mut wcet = WcetModel::uniform(ms(cfg.wcet_range_ms.0.max(1)));
    let (net, bank) = b.build().expect("generated workload is well-formed");
    for pid in net.process_ids() {
        let c = rng.gen_range(cfg.wcet_range_ms.0.max(1)..=cfg.wcet_range_ms.1.max(1));
        wcet.set(pid, ms(c));
    }
    Workload { net, bank, wcet }
}

/// Parameters of a synthetic layered task graph, built directly as a
/// [`TaskGraph`] (no FPPN derivation) so scalability experiments can reach
/// 10k–100k jobs cheaply.
///
/// The two shape knobs map to the structures that stress a list scheduler:
/// `depth` builds deep pipelines (long precedence chains through many
/// layers), `fan_skew_permille` concentrates edges on one *hub* job per
/// layer (heavy fan-out from hubs, heavy fan-in onto the next layer's
/// hub), with `max_fan_in` bounding per-job in-degree.
#[derive(Debug, Clone)]
pub struct SyntheticGraphConfig {
    /// Total number of jobs.
    pub jobs: usize,
    /// Number of pipeline layers; edges only go from layer `l` to `l + 1`.
    pub depth: usize,
    /// Maximum predecessors drawn per non-source job (≥ 1; capped by the
    /// previous layer's size).
    pub max_fan_in: usize,
    /// Probability (‰) that a predecessor pick lands on the previous
    /// layer's hub (its first job) instead of a uniform choice. 0 = uniform
    /// wiring, 1000 = a pure hub-and-spoke cascade. Values above 1000 are
    /// clamped.
    pub fan_skew_permille: u32,
    /// WCET range (ms) per job; must be ordered `lo <= hi` (values below
    /// 1 ms are raised to 1 ms).
    pub wcet_range_ms: (i64, i64),
    /// Source-layer arrivals are drawn uniformly from `[0, spread]` ms,
    /// exercising the scheduler's arrival queue; deeper layers arrive at 0
    /// (enabled purely by precedence).
    pub arrival_spread_ms: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticGraphConfig {
    fn default() -> Self {
        SyntheticGraphConfig {
            jobs: 1_000,
            depth: 50,
            max_fan_in: 3,
            fan_skew_permille: 250,
            wcet_range_ms: (1, 10),
            arrival_spread_ms: 50,
            seed: 0,
        }
    }
}

impl SyntheticGraphConfig {
    /// A deep-pipeline shape: many layers, narrow fan.
    pub fn deep_pipeline(jobs: usize, seed: u64) -> Self {
        SyntheticGraphConfig {
            jobs,
            depth: (jobs / 4).max(1),
            max_fan_in: 2,
            fan_skew_permille: 0,
            seed,
            ..SyntheticGraphConfig::default()
        }
    }

    /// A hub-and-spoke shape: few layers, edges concentrated on hubs.
    pub fn fan_skewed(jobs: usize, seed: u64) -> Self {
        SyntheticGraphConfig {
            jobs,
            depth: 8,
            max_fan_in: 4,
            fan_skew_permille: 850,
            seed,
            ..SyntheticGraphConfig::default()
        }
    }
}

/// Generates a layered DAG of jobs for scheduler scalability experiments.
///
/// The graph is acyclic by construction (edges only cross consecutive
/// layers), every job's deadline is the frame length, and generation is
/// reproducible from the seed.
///
/// # Panics
///
/// Panics with a message naming the offending field if `jobs == 0`,
/// `depth == 0`, `depth > jobs`, `max_fan_in == 0`,
/// `wcet_range_ms.0 > wcet_range_ms.1`, or `arrival_spread_ms < 0`.
pub fn synthetic_task_graph(cfg: &SyntheticGraphConfig) -> TaskGraph {
    assert!(cfg.jobs > 0, "need at least one job");
    assert!(cfg.depth > 0, "depth must be at least one layer");
    assert!(
        cfg.depth <= cfg.jobs,
        "depth ({}) cannot exceed jobs ({}): every layer needs a job",
        cfg.depth,
        cfg.jobs
    );
    assert!(cfg.max_fan_in > 0, "max_fan_in must be at least 1");
    assert!(
        cfg.wcet_range_ms.0 <= cfg.wcet_range_ms.1,
        "wcet_range_ms must be ordered (lo, hi), got ({}, {})",
        cfg.wcet_range_ms.0,
        cfg.wcet_range_ms.1
    );
    assert!(
        cfg.arrival_spread_ms >= 0,
        "arrival_spread_ms must be non-negative, got {}",
        cfg.arrival_spread_ms
    );
    let skew = cfg.fan_skew_permille.min(1000);
    let ms = TimeQ::from_ms;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Layer l covers jobs [bounds[l], bounds[l + 1]): one job guaranteed
    // per layer, the remainder spread evenly from the front.
    let base = cfg.jobs / cfg.depth;
    let extra = cfg.jobs % cfg.depth;
    let mut bounds = Vec::with_capacity(cfg.depth + 1);
    let mut acc = 0usize;
    bounds.push(0);
    for l in 0..cfg.depth {
        acc += base + usize::from(l < extra);
        bounds.push(acc);
    }

    let (wcet_lo, wcet_hi) = (cfg.wcet_range_ms.0.max(1), cfg.wcet_range_ms.1.max(1));
    let wcets: Vec<i64> = (0..cfg.jobs)
        .map(|_| rng.gen_range(wcet_lo..=wcet_hi))
        .collect();
    // Frame length: generous enough that any work-conserving schedule of
    // the whole graph fits on one processor.
    let horizon = ms(wcets.iter().sum::<i64>() + cfg.arrival_spread_ms);
    let jobs: Vec<Job> = (0..cfg.jobs)
        .map(|i| {
            let in_source_layer = i < bounds[1];
            let arrival = if in_source_layer && cfg.arrival_spread_ms > 0 {
                ms(rng.gen_range(0..=cfg.arrival_spread_ms))
            } else {
                TimeQ::ZERO
            };
            Job {
                process: ProcessId::from_index(i),
                k: 1,
                arrival,
                deadline: horizon,
                wcet: ms(wcets[i]),
                is_server: false,
            }
        })
        .collect();

    let mut g = TaskGraph::new(jobs, horizon);
    for l in 1..cfg.depth {
        let (prev_lo, prev_hi) = (bounds[l - 1], bounds[l]);
        let prev_len = prev_hi - prev_lo;
        for i in bounds[l]..bounds[l + 1] {
            let fan_in = rng.gen_range(1..=cfg.max_fan_in.min(prev_len));
            for _ in 0..fan_in {
                let pred = if skew > 0 && rng.gen_range(0u32..1000) < skew {
                    prev_lo // the layer hub
                } else {
                    rng.gen_range(prev_lo..prev_hi)
                };
                g.add_edge(JobId::from_index(pred), JobId::from_index(i));
            }
        }
    }
    g
}

/// Parameters of a behavior-heavy synthetic FPPN: the layered shape of
/// [`synthetic_task_graph`] realized as an actual network whose processes
/// run **generated compute kernels** — deterministic, seed-derived integer
/// mixers — and stream their results through real channels.
///
/// This is the behavior-heavy substrate of the differential suite: unlike
/// the FMS/random multirate networks (whose behaviors are a handful of
/// integer folds), each job here burns a tunable amount of CPU before
/// writing, so the behavior replay, not the round loop, dominates the
/// simulation.
#[derive(Debug, Clone)]
pub struct SyntheticFppnConfig {
    /// The layered shape: `jobs` becomes the process count, `depth`,
    /// `max_fan_in` and `fan_skew_permille` wire the channel topology, and
    /// `wcet_range_ms` feeds the WCET table exactly as in
    /// [`synthetic_task_graph`]. (`arrival_spread_ms` is ignored: all
    /// processes share one period.)
    pub shape: SyntheticGraphConfig,
    /// Kernel iterations per job, sampled per process from this inclusive
    /// range with the shape's seed. Each iteration is one round of a
    /// 64-bit avalanche mixer; ~1000 iterations ≈ a few microseconds.
    pub compute_iters: (u32, u32),
    /// Probability (‰) that a generated channel is a FIFO (the rest are
    /// blackboards). Values above 1000 are clamped.
    pub fifo_permille: u32,
    /// The common period (ms) of every process — one frame per period, so
    /// every process contributes exactly one job per hyperperiod.
    pub period_ms: i64,
    /// Number of **sporadic configurator** processes: each is attached to
    /// a random layer process through a blackboard (scaling that target's
    /// kernel state), with a random burst/period drawn from the two ranges
    /// below — so behavior-heavy sweeps also exercise the sporadic→server
    /// transformation, slot windows and false-slot skipping. Configurators
    /// carry an external input port: each executed slot folds one stimulus
    /// sample into its write. `0` (the default) generates the exact same
    /// network as before the knob existed.
    pub sporadic: usize,
    /// Burst (`m` of the sporadic `(m, T)` constraint) range, inclusive,
    /// sampled per configurator.
    pub sporadic_burst: (u32, u32),
    /// Server-period multiplier range, inclusive: a configurator's period
    /// is `period_ms · mult` (the hyperperiod grows to `period_ms ·
    /// lcm(mults)`, so layer processes run several jobs per frame).
    pub sporadic_period_mult: (i64, i64),
    /// Probability (‰) that a layer process declares an **external input
    /// port** whose per-job samples fold into its kernel state — the
    /// streaming-stimuli analogue of the sporadic knob. Values above 1000
    /// are clamped. `0` (the default) changes nothing.
    pub input_permille: u32,
}

impl Default for SyntheticFppnConfig {
    fn default() -> Self {
        SyntheticFppnConfig {
            shape: SyntheticGraphConfig {
                jobs: 64,
                depth: 8,
                ..SyntheticGraphConfig::default()
            },
            compute_iters: (500, 4000),
            fifo_permille: 500,
            period_ms: 100,
            sporadic: 0,
            sporadic_burst: (1, 3),
            sporadic_period_mult: (2, 4),
            input_permille: 0,
        }
    }
}

/// One round of SplitMix64's finalizer — the per-iteration unit of the
/// generated compute kernels. Public so benchmarks/tests can predict
/// kernel outputs without re-running a network.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates a behavior-heavy layered FPPN (see [`SyntheticFppnConfig`]).
///
/// Processes `p0..pN` are laid out in layers exactly like
/// [`synthetic_task_graph`]; every inter-layer edge becomes a channel
/// (duplicate picks collapse) with functional priority along the layer
/// order, so the network is well-formed by construction. Each process
/// folds everything it reads into an accumulator, runs its seed-derived
/// mixer kernel, and writes the result to all its output channels — all
/// state flows into channel writes, so `Observables` captures every
/// process exactly.
///
/// # Panics
///
/// Panics (with the offending field named) on the same shape violations as
/// [`synthetic_task_graph`], or if `compute_iters`, `sporadic_burst` or
/// `sporadic_period_mult` is inverted (or the latter's lower bound < 1).
pub fn synthetic_fppn(cfg: &SyntheticFppnConfig) -> Workload {
    let shape = &cfg.shape;
    assert!(shape.jobs > 0, "need at least one process");
    assert!(shape.depth > 0, "depth must be at least one layer");
    assert!(
        shape.depth <= shape.jobs,
        "depth ({}) cannot exceed jobs ({}): every layer needs a process",
        shape.depth,
        shape.jobs
    );
    assert!(shape.max_fan_in > 0, "max_fan_in must be at least 1");
    assert!(
        cfg.compute_iters.0 <= cfg.compute_iters.1,
        "compute_iters must be ordered (lo, hi), got ({}, {})",
        cfg.compute_iters.0,
        cfg.compute_iters.1
    );
    assert!(
        shape.wcet_range_ms.0 <= shape.wcet_range_ms.1,
        "wcet_range_ms must be ordered (lo, hi), got ({}, {})",
        shape.wcet_range_ms.0,
        shape.wcet_range_ms.1
    );
    assert!(
        cfg.sporadic_burst.0 >= 1 && cfg.sporadic_burst.0 <= cfg.sporadic_burst.1,
        "sporadic_burst must be ordered with lo >= 1, got ({}, {})",
        cfg.sporadic_burst.0,
        cfg.sporadic_burst.1
    );
    assert!(
        cfg.sporadic_period_mult.0 >= 1
            && cfg.sporadic_period_mult.0 <= cfg.sporadic_period_mult.1,
        "sporadic_period_mult must be ordered with lo >= 1, got ({}, {})",
        cfg.sporadic_period_mult.0,
        cfg.sporadic_period_mult.1
    );
    let skew = shape.fan_skew_permille.min(1000);
    let fifo = cfg.fifo_permille.min(1000);
    let input_permille = cfg.input_permille.min(1000);
    let ms = TimeQ::from_ms;
    let mut rng = StdRng::seed_from_u64(shape.seed);
    // The stimulus features (inputs, sporadic configurators) draw from an
    // independently derived stream, so enabling them never reshuffles the
    // base topology — a seed's layered network is stable across the knobs.
    let mut stim_rng = StdRng::seed_from_u64(mix64(shape.seed ^ 0x5710_CF6E_57A7_5EED));
    let mut b = FppnBuilder::new();

    let n = shape.jobs;
    let has_input: Vec<bool> = (0..n)
        .map(|_| input_permille > 0 && stim_rng.gen_range(0u32..1000) < input_permille)
        .collect();
    let processes: Vec<ProcessId> = (0..n)
        .map(|i| {
            let mut spec = ProcessSpec::new(
                format!("p{i}"),
                EventSpec::periodic(ms(cfg.period_ms)),
            );
            if has_input[i] {
                spec = spec.with_input("in");
            }
            b.process(spec)
        })
        .collect();

    // Same layer bounds as synthetic_task_graph.
    let base = n / shape.depth;
    let extra = n % shape.depth;
    let mut bounds = Vec::with_capacity(shape.depth + 1);
    let mut acc = 0usize;
    bounds.push(0);
    for l in 0..shape.depth {
        acc += base + usize::from(l < extra);
        bounds.push(acc);
    }

    // Wire inter-layer channels with the graph generator's edge logic;
    // duplicate predecessor picks collapse into one channel.
    let mut in_channels: Vec<Vec<(ChannelId, ChannelKind)>> = vec![Vec::new(); n];
    let mut out_channels: Vec<Vec<ChannelId>> = vec![Vec::new(); n];
    for l in 1..shape.depth {
        let (prev_lo, prev_hi) = (bounds[l - 1], bounds[l]);
        let prev_len = prev_hi - prev_lo;
        for i in bounds[l]..bounds[l + 1] {
            let fan_in = rng.gen_range(1..=shape.max_fan_in.min(prev_len));
            let mut preds: Vec<usize> = (0..fan_in)
                .map(|_| {
                    if skew > 0 && rng.gen_range(0u32..1000) < skew {
                        prev_lo // the layer hub
                    } else {
                        rng.gen_range(prev_lo..prev_hi)
                    }
                })
                .collect();
            preds.sort_unstable();
            preds.dedup();
            for pred in preds {
                let kind = if rng.gen_range(0u32..1000) < fifo {
                    ChannelKind::Fifo
                } else {
                    ChannelKind::Blackboard
                };
                let ch = b.channel(format!("c{pred}_{i}"), processes[pred], processes[i], kind);
                b.priority(processes[pred], processes[i]);
                out_channels[pred].push(ch);
                in_channels[i].push((ch, kind));
            }
        }
    }

    // Sporadic configurators: one blackboard into a random layer process,
    // burst/period from the stimulus ranges, an external input port whose
    // sample folds into every executed slot's write — the server-slot
    // machinery (windows, false slots, input consumption) under a
    // behavior-heavy load.
    for s in 0..cfg.sporadic {
        let target = stim_rng.gen_range(0..n);
        let burst = stim_rng.gen_range(cfg.sporadic_burst.0..=cfg.sporadic_burst.1);
        let mult =
            stim_rng.gen_range(cfg.sporadic_period_mult.0..=cfg.sporadic_period_mult.1);
        let sp = b.process(
            ProcessSpec::new(
                format!("cfg{s}"),
                EventSpec::sporadic(burst, ms(cfg.period_ms * mult)),
            )
            .with_input("cmd"),
        );
        let ch = b.channel(
            format!("ccfg{s}_{target}"),
            sp,
            processes[target],
            ChannelKind::Blackboard,
        );
        // Either priority direction is admissible (the §III-A subclass
        // only needs *a* total order per channel); both slot-window
        // boundary rules get exercised across a sweep.
        if stim_rng.gen_bool(0.5) {
            b.priority(sp, processes[target]);
        } else {
            b.priority(processes[target], sp);
        }
        in_channels[target].push((ch, ChannelKind::Blackboard));
        let salt = mix64(shape.seed ^ 0xCF61_0000 ^ (s as u64).wrapping_mul(0x94D0_49BB));
        b.behavior(sp, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                let x = match ctx.read_input(PortId::from_index(0)) {
                    Some(Value::Int(v)) => v as u64,
                    _ => 0,
                };
                ctx.write(ch, Value::Int(mix64(salt ^ ctx.k() ^ x) as i64));
            })
        });
    }

    // Generated behaviors: fold stimuli and reads, burn the kernel, write
    // everywhere.
    let (it_lo, it_hi) = cfg.compute_iters;
    for i in 0..n {
        let ins = in_channels[i].clone();
        let outs = out_channels[i].clone();
        let iters = rng.gen_range(it_lo..=it_hi);
        let salt = mix64(shape.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let with_input = has_input[i];
        b.behavior(processes[i], move || {
            let ins = ins.clone();
            let outs = outs.clone();
            let mut state: u64 = salt;
            Box::new(move |ctx: &mut JobCtx<'_>| {
                if with_input {
                    if let Some(Value::Int(x)) = ctx.read_input(PortId::from_index(0)) {
                        state = mix64(state ^ x as u64);
                    }
                }
                for &(ch, kind) in &ins {
                    match kind {
                        ChannelKind::Blackboard => {
                            if let Some(Value::Int(x)) = ctx.read(ch) {
                                state = mix64(state ^ x as u64);
                            }
                        }
                        ChannelKind::Fifo => {
                            while let Some(v) = ctx.read(ch) {
                                if let Value::Int(x) = v {
                                    state = mix64(state ^ x as u64);
                                }
                            }
                        }
                    }
                }
                state = mix64(state ^ ctx.k());
                // The kernel: `iters` dependent mixer rounds (cannot be
                // reordered or elided — the result feeds the writes).
                for _ in 0..iters {
                    state = mix64(state);
                }
                for &ch in &outs {
                    ctx.write(ch, Value::Int(state as i64));
                }
            })
        });
    }

    let (wcet_lo, wcet_hi) = (
        shape.wcet_range_ms.0.max(1),
        shape.wcet_range_ms.1.max(1),
    );
    let mut wcet = WcetModel::uniform(ms(wcet_lo));
    let (net, bank) = b.build().expect("generated synthetic FPPN is well-formed");
    for pid in net.process_ids() {
        wcet.set(pid, ms(rng.gen_range(wcet_lo..=wcet_hi)));
    }
    Workload { net, bank, wcet }
}

/// Named `synthetic_fppn` presets for the adversarial-stimulus campaign:
/// sporadic-rich shapes where window boundaries, arrival ties and
/// external-input streams all exist to be attacked. Every preset turns on
/// both stimulus knobs (`sporadic` and `input_permille`), since the
/// adversarial classes target exactly the server-slot and input-stream
/// machinery; they differ in how crowded the window structure is.
///
/// The `&'static str` is a stable label for test/golden-trace names.
pub fn adversarial_presets() -> Vec<(&'static str, SyntheticFppnConfig)> {
    vec![
        // Many configurators on a small frame: subsets collide, bursts
        // overlap, and tie storms find several processes to align.
        (
            "crowded-windows",
            SyntheticFppnConfig {
                shape: SyntheticGraphConfig {
                    jobs: 14,
                    depth: 3,
                    seed: 0xADA1,
                    ..SyntheticGraphConfig::default()
                },
                compute_iters: (10, 80),
                sporadic: 4,
                sporadic_burst: (2, 3),
                sporadic_period_mult: (2, 3),
                input_permille: 400,
                ..SyntheticFppnConfig::default()
            },
        ),
        // Long server periods (big windows): boundary-aligned arrivals
        // are maximally distant from the uniform sampler's typical draw.
        (
            "wide-windows",
            SyntheticFppnConfig {
                shape: SyntheticGraphConfig {
                    jobs: 12,
                    depth: 4,
                    seed: 0xADA2,
                    ..SyntheticGraphConfig::default()
                },
                compute_iters: (10, 80),
                sporadic: 2,
                sporadic_burst: (1, 2),
                sporadic_period_mult: (4, 6),
                input_permille: 700,
                ..SyntheticFppnConfig::default()
            },
        ),
        // Deep layered data plane fed by saturating configurators: flood
        // stimuli keep every server slot executable while the layer
        // processes contend for processors.
        (
            "flood-fodder",
            SyntheticFppnConfig {
                shape: SyntheticGraphConfig {
                    jobs: 18,
                    depth: 5,
                    max_fan_in: 4,
                    seed: 0xADA3,
                    ..SyntheticGraphConfig::default()
                },
                compute_iters: (10, 60),
                sporadic: 3,
                sporadic_burst: (1, 3),
                sporadic_period_mult: (2, 4),
                input_permille: 500,
                ..SyntheticFppnConfig::default()
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{run_zero_delay, JobOrdering, Stimuli};
    use fppn_taskgraph::derive_task_graph;

    #[test]
    fn workloads_build_and_derive_for_many_seeds() {
        for seed in 0..30 {
            let cfg = WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            };
            let w = random_workload(&cfg);
            assert_eq!(w.net.process_count(), cfg.periodic + cfg.sporadic);
            let derived = derive_task_graph(&w.net, &w.wcet)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(derived.graph.job_count() > 0);
            assert!(derived.graph.topological_order().is_some());
        }
    }

    #[test]
    fn workloads_execute_deterministically() {
        for seed in 0..10 {
            let w = random_workload(&WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            });
            let horizon = TimeQ::from_ms(1600);
            let mut b1 = w.bank.instantiate();
            let r1 = run_zero_delay(&w.net, &mut b1, &Stimuli::new(), horizon, JobOrdering::MinRankFirst)
                .unwrap();
            let mut b2 = w.bank.instantiate();
            let r2 = run_zero_delay(&w.net, &mut b2, &Stimuli::new(), horizon, JobOrdering::MaxRankFirst)
                .unwrap();
            assert_eq!(r1.observables.diff(&r2.observables), None, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "wcet_range_ms must be ordered")]
    fn inverted_wcet_range_panics_up_front() {
        let _ = random_workload(&WorkloadConfig {
            wcet_range_ms: (10, 1),
            ..WorkloadConfig::default()
        });
    }

    #[test]
    fn oversaturated_channel_density_is_clamped() {
        // > 1000‰ must behave exactly like 1000‰ (a channel everywhere),
        // not panic or skew the RNG stream differently.
        let mk = |density| {
            random_workload(&WorkloadConfig {
                channel_density_permille: density,
                seed: 7,
                ..WorkloadConfig::default()
            })
        };
        let saturated = mk(1000);
        let clamped = mk(u32::MAX);
        assert_eq!(saturated.net.channels().len(), clamped.net.channels().len());
        let n = WorkloadConfig::default().periodic;
        // Every FP-ordered periodic pair plus one channel per sporadic.
        assert_eq!(
            saturated.net.channels().len(),
            n * (n - 1) / 2 + WorkloadConfig::default().sporadic
        );
    }

    #[test]
    fn synthetic_graph_honors_job_count_depth_and_acyclicity() {
        for cfg in [
            SyntheticGraphConfig::default(),
            SyntheticGraphConfig::deep_pipeline(600, 3),
            SyntheticGraphConfig::fan_skewed(600, 4),
        ] {
            let g = synthetic_task_graph(&cfg);
            assert_eq!(g.job_count(), cfg.jobs);
            assert!(g.topological_order().is_some());
            // Every non-source layer job has at least one predecessor, so
            // a longest chain threads all `depth` layers.
            let depth = longest_path_len(&g);
            assert_eq!(depth, cfg.depth, "{cfg:?}");
        }
    }

    fn longest_path_len(g: &TaskGraph) -> usize {
        let order = g.topological_order().unwrap();
        let mut len = vec![1usize; g.job_count()];
        for id in order {
            for s in g.successors(id) {
                len[s.index()] = len[s.index()].max(len[id.index()] + 1);
            }
        }
        len.into_iter().max().unwrap_or(0)
    }

    #[test]
    fn synthetic_graph_fan_skew_concentrates_on_hubs() {
        let uniform = synthetic_task_graph(&SyntheticGraphConfig {
            fan_skew_permille: 0,
            ..SyntheticGraphConfig::default()
        });
        let skewed = synthetic_task_graph(&SyntheticGraphConfig {
            fan_skew_permille: 1000,
            ..SyntheticGraphConfig::default()
        });
        let max_out = |g: &TaskGraph| g.succ_counts().into_iter().max().unwrap();
        assert!(
            max_out(&skewed) > max_out(&uniform),
            "hub wiring should concentrate out-degree: skewed {} vs uniform {}",
            max_out(&skewed),
            max_out(&uniform)
        );
    }

    #[test]
    fn synthetic_graph_is_reproducible() {
        let cfg = SyntheticGraphConfig::default();
        assert_eq!(synthetic_task_graph(&cfg), synthetic_task_graph(&cfg));
    }

    #[test]
    #[should_panic(expected = "depth (9) cannot exceed jobs (3)")]
    fn synthetic_graph_rejects_more_layers_than_jobs() {
        let _ = synthetic_task_graph(&SyntheticGraphConfig {
            jobs: 3,
            depth: 9,
            ..SyntheticGraphConfig::default()
        });
    }

    #[test]
    fn synthetic_fppn_builds_derives_and_runs_deterministically() {
        for seed in 0..6 {
            let cfg = SyntheticFppnConfig {
                shape: SyntheticGraphConfig {
                    jobs: 24,
                    depth: 4,
                    seed,
                    ..SyntheticGraphConfig::default()
                },
                compute_iters: (10, 50),
                ..SyntheticFppnConfig::default()
            };
            let w = synthetic_fppn(&cfg);
            assert_eq!(w.net.process_count(), 24);
            assert!(
                w.net.channels().len() >= 24 - cfg.shape.depth,
                "every non-source-layer process has at least one input"
            );
            let derived = derive_task_graph(&w.net, &w.wcet)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // Single-rate: one job per process per frame.
            assert_eq!(derived.graph.job_count(), 24);
            // Execution-order independence (Prop. 2.1) holds for the
            // generated kernels.
            let horizon = TimeQ::from_ms(300);
            let mut b1 = w.bank.instantiate();
            let r1 = run_zero_delay(&w.net, &mut b1, &Stimuli::new(), horizon, JobOrdering::MinRankFirst)
                .unwrap();
            let mut b2 = w.bank.instantiate();
            let r2 = run_zero_delay(&w.net, &mut b2, &Stimuli::new(), horizon, JobOrdering::MaxRankFirst)
                .unwrap();
            assert_eq!(r1.observables.diff(&r2.observables), None, "seed {seed}");
            // Behaviors actually write: at least one channel log is
            // non-empty after three frames.
            assert!(r1.observables.channels.iter().any(|c| !c.is_empty()));
        }
    }

    #[test]
    fn synthetic_fppn_kernel_iterations_scale_work() {
        // Not a timing assertion (CI noise), but the kernel must at least
        // be wired through: different compute ranges change no topology.
        let mk = |iters| {
            synthetic_fppn(&SyntheticFppnConfig {
                compute_iters: iters,
                ..SyntheticFppnConfig::default()
            })
        };
        let light = mk((1, 1));
        let heavy = mk((5000, 5000));
        assert_eq!(light.net.channels().len(), heavy.net.channels().len());
        assert_eq!(light.net.process_count(), heavy.net.process_count());
    }

    #[test]
    #[should_panic(expected = "compute_iters must be ordered")]
    fn synthetic_fppn_rejects_inverted_compute_range() {
        let _ = synthetic_fppn(&SyntheticFppnConfig {
            compute_iters: (100, 1),
            ..SyntheticFppnConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "sporadic_period_mult must be ordered")]
    fn synthetic_fppn_rejects_zero_period_mult() {
        let _ = synthetic_fppn(&SyntheticFppnConfig {
            sporadic_period_mult: (0, 2),
            ..SyntheticFppnConfig::default()
        });
    }

    #[test]
    fn synthetic_fppn_stimulus_knobs_add_sporadics_and_inputs() {
        let base_shape = SyntheticGraphConfig {
            jobs: 20,
            depth: 4,
            seed: 9,
            ..SyntheticGraphConfig::default()
        };
        let plain = synthetic_fppn(&SyntheticFppnConfig {
            shape: base_shape.clone(),
            compute_iters: (5, 20),
            ..SyntheticFppnConfig::default()
        });
        let rich = synthetic_fppn(&SyntheticFppnConfig {
            shape: base_shape,
            compute_iters: (5, 20),
            sporadic: 3,
            input_permille: 600,
            ..SyntheticFppnConfig::default()
        });
        // The knobs add processes/channels without reshuffling the base
        // layered topology (separate stimulus RNG stream).
        assert_eq!(plain.net.process_count(), 20);
        assert_eq!(rich.net.process_count(), 23);
        assert_eq!(
            rich.net.channels().len(),
            plain.net.channels().len() + 3,
            "one blackboard per configurator on top of the same layer wiring"
        );
        for i in 0..3 {
            let sp = rich.net.process_by_name(&format!("cfg{i}")).unwrap();
            let spec = rich.net.process(sp);
            assert_eq!(spec.event().kind(), fppn_core::EventKind::Sporadic);
            assert_eq!(spec.input_ports().len(), 1, "configurators take commands");
        }
        let with_inputs = rich
            .net
            .process_ids()
            .filter(|&p| !rich.net.process(p).input_ports().is_empty())
            .count();
        assert!(
            with_inputs > 3,
            "input_permille=600 should give several layer processes input ports"
        );

        // The richer network still derives, and zero-delay execution under
        // random stimuli is order-independent (Prop. 2.1 with servers +
        // external inputs in play).
        let derived = derive_task_graph(&rich.net, &rich.wcet).unwrap();
        assert!(derived.graph.job_count() > rich.net.process_count());
        let horizon = derived.hyperperiod;
        let stimuli = fppn_sim_free_random_stimuli(&rich.net, horizon, 700, 42);
        let mut b1 = rich.bank.instantiate();
        let r1 = run_zero_delay(&rich.net, &mut b1, &stimuli, horizon, JobOrdering::MinRankFirst)
            .unwrap();
        let mut b2 = rich.bank.instantiate();
        let r2 = run_zero_delay(&rich.net, &mut b2, &stimuli, horizon, JobOrdering::MaxRankFirst)
            .unwrap();
        assert_eq!(r1.observables.diff(&r2.observables), None);
        // The sporadic slots actually executed and wrote.
        assert!(r1
            .observables
            .channels
            .iter()
            .enumerate()
            .filter(|(i, _)| rich.net.channels()[*i].name().starts_with("ccfg"))
            .any(|(_, log)| !log.is_empty()));
    }

    /// A dependency-free stand-in for `fppn_sim::random_stimuli` (fppn-apps
    /// cannot depend on fppn-sim): arrival traces at the maximal admissible
    /// rate plus constant-ish input streams for every declared port.
    fn fppn_sim_free_random_stimuli(
        net: &Fppn,
        horizon: TimeQ,
        _density: u32,
        seed: u64,
    ) -> Stimuli {
        let mut stimuli = Stimuli::new();
        for pid in net.process_ids() {
            let spec = net.process(pid);
            let ev = spec.event();
            let max_jobs = if ev.kind() == fppn_core::EventKind::Sporadic {
                // Max-rate trace: bursts of m at multiples of T.
                let mut arrivals = Vec::new();
                let mut t = TimeQ::ZERO;
                while t < horizon {
                    for _ in 0..ev.burst() {
                        arrivals.push(t);
                    }
                    t += ev.period();
                }
                let count = arrivals.len() as u64;
                stimuli.arrivals(pid, fppn_core::SporadicTrace::new(arrivals));
                count
            } else {
                ((horizon / ev.period()).ceil() as u64 + 2) * ev.burst() as u64
            };
            for (port_idx, _) in spec.input_ports().iter().enumerate() {
                let samples: Vec<Value> = (0..max_jobs)
                    .map(|j| {
                        Value::Int(
                            (mix64(seed ^ (pid.index() as u64) << 16 ^ port_idx as u64 ^ j)
                                % 1000) as i64,
                        )
                    })
                    .collect();
                stimuli.input(pid, PortId::from_index(port_idx), samples);
            }
        }
        stimuli
    }

    #[test]
    fn generation_is_reproducible() {
        let cfg = WorkloadConfig::default();
        let a = random_workload(&cfg);
        let b = random_workload(&cfg);
        assert_eq!(a.net.process_count(), b.net.process_count());
        assert_eq!(a.net.channels().len(), b.net.channels().len());
        for pid in a.net.process_ids() {
            assert_eq!(a.wcet.get(pid), b.wcet.get(pid));
        }
    }
}
