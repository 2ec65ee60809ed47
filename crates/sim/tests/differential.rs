//! Differential test-suite: every execution configuration against the
//! sequential oracle (the same pattern that proves the event-driven
//! scheduler against `list_schedule_naive`).
//!
//! The oracle is [`simulate`] with the default config: one round engine,
//! the sequential behavior store, frame memo off. Every other setting —
//! the sharded data plane at 1, 2, 4 and 8 threads
//! (`SimConfig::behavior_workers`) and the frame memo (`SimConfig::memo`),
//! crossed — must be bit-identical to it on every component of a
//! [`SimRun`]: the per-round [`fppn_sim::JobRecord`]s (exact rational
//! times, processors, ranks), the Gantt segments, the statistics and the
//! observables — across random workloads, sporadic densities, overhead
//! models, exec-time models and processor counts.

use fppn_apps::{
    adversarial_presets, fms_network, fms_wcet, random_workload, synthetic_fppn, FmsVariant,
    SyntheticFppnConfig, SyntheticGraphConfig, WorkloadConfig,
};
use fppn_core::{BehaviorBank, Fppn, Stimuli};
use fppn_sched::{list_schedule, Heuristic, StaticSchedule};
use fppn_sim::hotpath::SeqRounds;
use fppn_sim::{
    adversarial_stimuli, clip_stimuli, compile_key, random_stimuli, simulate, AdversarialClass,
    CancelToken, CompileConfig, CompiledNetwork, ExecTimeModel, OverheadModel, RunScratch,
    SimConfig, SimRun, StaticTables,
};
use fppn_taskgraph::{derive_task_graph, DerivedTaskGraph};
use fppn_time::TimeQ;
use proptest::prelude::*;

fn assert_bit_identical(seq: &SimRun, par: &SimRun, label: &str) {
    assert_eq!(seq.records, par.records, "{label}: records diverged");
    assert_eq!(
        seq.observables.diff(&par.observables),
        None,
        "{label}: observables diverged"
    );
    assert_eq!(seq.observables, par.observables, "{label}: observables !=");
    assert_eq!(seq.gantt, par.gantt, "{label}: gantt diverged");
    assert_eq!(seq.stats, par.stats, "{label}: stats diverged");
}

/// The data-plane thread budgets the suite sweeps: `0` is the sequential
/// store, the rest the sharded plane.
const BEHAVIOR_WORKERS: [usize; 5] = [0, 1, 2, 4, 8];

/// `base` with the oracle's execution settings: sequential store, memo off.
fn oracle_config(base: SimConfig) -> SimConfig {
    SimConfig {
        behavior_workers: 0,
        memo: false,
        ..base
    }
}

/// Every non-oracle execution setting over `base`'s semantic fields:
/// [`BEHAVIOR_WORKERS`] × memo {off, on}, minus the oracle itself.
fn sweep_configs(base: SimConfig) -> impl Iterator<Item = SimConfig> {
    BEHAVIOR_WORKERS
        .into_iter()
        .flat_map(move |behavior_workers| {
            [false, true].into_iter().map(move |memo| SimConfig {
                behavior_workers,
                memo,
                ..base
            })
        })
        .filter(|c| c.behavior_workers != 0 || c.memo)
}

/// Runs the oracle and every [`sweep_configs`] setting of one simulation
/// and asserts each bit-identical to the oracle. Returns the oracle run.
fn assert_sweep_matches_oracle(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    derived: &DerivedTaskGraph,
    schedule: &StaticSchedule,
    base: SimConfig,
    label: &str,
) -> SimRun {
    let oracle = simulate(net, bank, stimuli, derived, schedule, &oracle_config(base))
        .expect("sequential oracle");
    for config in sweep_configs(base) {
        let run = simulate(net, bank, stimuli, derived, schedule, &config)
            .unwrap_or_else(|e| panic!("{label} {config:?}: {e}"));
        assert_bit_identical(
            &oracle,
            &run,
            &format!(
                "{label} behavior_workers {} memo {}",
                config.behavior_workers, config.memo
            ),
        );
    }
    oracle
}

/// One workload, every axis: processors × exec-time models × overheads ×
/// execution settings, over several frames with random stimuli.
fn check_workload(cfg: &WorkloadConfig, density: u32, frames: u64) {
    let w = random_workload(cfg);
    let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
    let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
    let stimuli = random_stimuli(&w.net, horizon, density, cfg.seed ^ 0x00C0_FFEE);
    let stimuli = clip_stimuli(&w.net, &derived, &stimuli, frames);
    for m in [1usize, 2, 4] {
        let schedule = list_schedule(&derived.graph, m, Heuristic::AlapEdf);
        for (exec, overhead) in [
            (ExecTimeModel::Wcet, OverheadModel::NONE),
            (
                ExecTimeModel::typical_jitter(cfg.seed ^ 0xA5),
                OverheadModel::NONE,
            ),
            (ExecTimeModel::Wcet, OverheadModel::constant(TimeQ::from_ms(9))),
        ] {
            let config = SimConfig {
                frames,
                overhead,
                exec_time: exec,
                ..SimConfig::default()
            };
            assert_sweep_matches_oracle(
                &w.net,
                &w.bank,
                &stimuli,
                &derived,
                &schedule,
                config,
                &format!(
                    "seed {} density {density} m {m} {exec:?} {overhead:?}",
                    cfg.seed
                ),
            );
        }
    }
}

#[test]
fn parallel_matches_seq_on_pinned_workloads() {
    for seed in 0..4u64 {
        let cfg = WorkloadConfig {
            periodic: 5,
            sporadic: 2,
            seed,
            ..WorkloadConfig::default()
        };
        check_workload(&cfg, 500, 3);
    }
}

#[test]
fn parallel_matches_seq_at_extreme_densities() {
    // Density 0 (all server slots false) and 1000 (maximal admissible
    // sporadic rate) stress the skipped-slot and invocation-wait paths.
    for density in [0u32, 1000] {
        let cfg = WorkloadConfig {
            periodic: 4,
            sporadic: 3,
            seed: 7 + density as u64,
            ..WorkloadConfig::default()
        };
        check_workload(&cfg, density, 2);
    }
}

/// The behavior-heavy synthetic FPPN — where the data plane dominates —
/// across thread budgets and shapes. The third shape turns on the stimulus
/// knobs (sporadic configurators + external input streams), so the
/// server-slot machinery (windows, false slots, input consumption) runs
/// under every setting too.
#[test]
fn sharded_behaviors_match_seq_on_behavior_heavy_workloads() {
    for (label, fppn_cfg) in [
        (
            "layered",
            SyntheticFppnConfig {
                shape: SyntheticGraphConfig {
                    jobs: 30,
                    depth: 5,
                    seed: 11,
                    ..SyntheticGraphConfig::default()
                },
                compute_iters: (20, 200),
                ..SyntheticFppnConfig::default()
            },
        ),
        (
            "fan-skewed",
            SyntheticFppnConfig {
                shape: SyntheticGraphConfig {
                    jobs: 24,
                    depth: 4,
                    max_fan_in: 4,
                    fan_skew_permille: 850,
                    seed: 12,
                    ..SyntheticGraphConfig::default()
                },
                compute_iters: (20, 200),
                ..SyntheticFppnConfig::default()
            },
        ),
        (
            "sporadic+inputs",
            SyntheticFppnConfig {
                shape: SyntheticGraphConfig {
                    jobs: 18,
                    depth: 4,
                    seed: 13,
                    ..SyntheticGraphConfig::default()
                },
                compute_iters: (20, 200),
                sporadic: 3,
                input_permille: 500,
                ..SyntheticFppnConfig::default()
            },
        ),
    ] {
        let w = synthetic_fppn(&fppn_cfg);
        let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
        let frames = 3u64;
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let stimuli = random_stimuli(&w.net, horizon, 700, 0xBEEF ^ fppn_cfg.shape.seed);
        let stimuli = clip_stimuli(&w.net, &derived, &stimuli, frames);
        let config = SimConfig {
            frames,
            ..SimConfig::default()
        };
        for m in [1usize, 2, 4] {
            let schedule = list_schedule(&derived.graph, m, Heuristic::AlapEdf);
            assert_sweep_matches_oracle(
                &w.net,
                &w.bank,
                &stimuli,
                &derived,
                &schedule,
                config,
                &format!("{label} m {m}"),
            );
        }
    }
}

/// Every adversarial stimulus class (boundary-aligned bursts,
/// maximal-density floods, arrival-tie storms, late/extreme inputs)
/// under every execution setting, *with a runtime-overhead model active* —
/// the axis the property campaign (`tests/properties.rs`) leaves to this
/// suite. Window-edge arrivals under overhead-shifted completions are
/// exactly where a subset-mapping or visibility bug would surface.
#[test]
fn backends_agree_on_adversarial_stimuli_with_overheads() {
    for (label, fppn_cfg) in adversarial_presets() {
        let w = synthetic_fppn(&fppn_cfg);
        let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
        let frames = 2u64;
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        for class in AdversarialClass::ALL {
            let raw = adversarial_stimuli(&w.net, &derived, horizon, class, 0xD1FF);
            let stimuli = clip_stimuli(&w.net, &derived, &raw, frames);
            for (exec, overhead) in [
                (ExecTimeModel::Wcet, OverheadModel::constant(TimeQ::from_ms(9))),
                (ExecTimeModel::typical_jitter(0xD1FF), OverheadModel::NONE),
            ] {
                let config = SimConfig {
                    frames,
                    overhead,
                    exec_time: exec,
                    ..SimConfig::default()
                };
                assert_sweep_matches_oracle(
                    &w.net,
                    &w.bank,
                    &stimuli,
                    &derived,
                    &schedule,
                    config,
                    &format!("{label} {} {exec:?} {overhead:?}", class.name()),
                );
            }
        }
    }
}

/// Bounded-capacity cross-process FIFOs cannot shard: every thread budget
/// must fall back to the sequential store (and the memo must disengage),
/// not panic or diverge.
#[test]
fn sharded_behaviors_fall_back_on_bounded_fifos() {
    use fppn_core::{ChannelKind, ChannelSpec, EventSpec, FppnBuilder, JobCtx, ProcessSpec, Value};
    let ms = TimeQ::from_ms;
    let mut b = FppnBuilder::new();
    let src = b.process(ProcessSpec::new("src", EventSpec::periodic(ms(100))));
    let mid = b.process(ProcessSpec::new("mid", EventSpec::periodic(ms(200))));
    let dst = b.process(ProcessSpec::new("dst", EventSpec::periodic(ms(100))));
    let ch = b.channel_spec(
        ChannelSpec::new("bounded", src, mid, ChannelKind::Fifo)
            .with_capacity(std::num::NonZeroUsize::new(4).unwrap()),
    );
    let c2 = b.channel("c2", mid, dst, ChannelKind::Blackboard);
    b.priority(src, mid);
    b.priority(mid, dst);
    b.behavior(src, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| ctx.write(ch, Value::Int(ctx.k() as i64)))
    });
    b.behavior(mid, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let mut acc = 0i64;
            while let Some(Value::Int(v)) = ctx.read(ch) {
                acc = acc.wrapping_mul(31).wrapping_add(v);
            }
            ctx.write(c2, Value::Int(acc));
        })
    });
    b.behavior(dst, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let _ = ctx.read(c2);
        })
    });
    let (net, bank) = b.build().unwrap();
    let derived = derive_task_graph(&net, &fppn_taskgraph::WcetModel::uniform(ms(10))).unwrap();
    let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let config = SimConfig {
        frames: 4,
        ..SimConfig::default()
    };
    assert_sweep_matches_oracle(
        &net,
        &bank,
        &Stimuli::new(),
        &derived,
        &schedule,
        config,
        "bounded-fifo fallback",
    );
}

/// A late upstream writer: one process with an enormous WCET feeds every
/// consumer, and the consumers tick 8x faster, so on the sharded plane
/// their jobs queue behind the writer's progress gate (the canonical order
/// puts most consumer jobs after the writer's late completion). The gates
/// must hold those jobs back without diverging from the oracle.
#[test]
fn sharded_plane_waits_on_late_upstream_writer_without_diverging() {
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, JobCtx, PortId, ProcessSpec, Value};
    let ms = TimeQ::from_ms;
    let mut b = FppnBuilder::new();
    let slow = b.process(ProcessSpec::new("slow", EventSpec::periodic(ms(800))));
    let fast: Vec<_> = (0..3)
        .map(|i| {
            b.process(
                ProcessSpec::new(format!("fast{i}"), EventSpec::periodic(ms(100)))
                    .with_output("o"),
            )
        })
        .collect();
    let mut chans = Vec::new();
    for (i, &f) in fast.iter().enumerate() {
        let ch = b.channel(format!("c{i}"), slow, f, ChannelKind::Blackboard);
        chans.push(ch);
        b.priority(slow, f);
        b.behavior(f, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                let v = ctx.read_value(ch);
                ctx.write_output(PortId::from_index(0), v);
            })
        });
    }
    b.behavior(slow, move || {
        let chans = chans.clone();
        Box::new(move |ctx: &mut JobCtx<'_>| {
            for (i, &ch) in chans.iter().enumerate() {
                ctx.write(ch, Value::Int(1000 * ctx.k() as i64 + i as i64));
            }
        })
    });
    let (net, bank) = b.build().unwrap();
    // slow's WCET fills most of the hyperperiod.
    let mut wcet = fppn_taskgraph::WcetModel::uniform(ms(5));
    wcet.set(net.process_by_name("slow").unwrap(), ms(700));
    let derived = derive_task_graph(&net, &wcet).unwrap();
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let config = SimConfig {
        frames: 5,
        ..SimConfig::default()
    };
    assert_sweep_matches_oracle(
        &net,
        &bank,
        &Stimuli::new(),
        &derived,
        &schedule,
        config,
        "late-writer",
    );
}

#[test]
fn dispatcher_routes_on_config_workers() {
    // The compiled artifact's three entry points (plain, reused scratch,
    // armed-but-untripped cancel token) must route every
    // `behavior_workers` setting to the same result as the one-shot
    // `simulate` oracle.
    let cfg = WorkloadConfig {
        periodic: 5,
        sporadic: 1,
        seed: 23,
        ..WorkloadConfig::default()
    };
    let w = random_workload(&cfg);
    let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
    let frames = 2u64;
    let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
    let stimuli = random_stimuli(&w.net, horizon, 600, 99);
    let stimuli = clip_stimuli(&w.net, &derived, &stimuli, frames);
    let compile = CompileConfig {
        heuristic: Heuristic::BLevel,
        ..CompileConfig::new(w.wcet.clone(), 3)
    };
    let artifact = CompiledNetwork::compile(w.net.clone(), &compile).expect("compiles");
    let base = SimConfig {
        frames,
        ..SimConfig::default()
    };
    let oracle = simulate(
        &w.net,
        &w.bank,
        &stimuli,
        artifact.derived(),
        artifact.schedule(),
        &base,
    )
    .expect("oracle via simulate");
    let mut scratch = RunScratch::new();
    let token = CancelToken::new();
    for config in sweep_configs(base) {
        let tag = format!("behavior_workers {} memo {}", config.behavior_workers, config.memo);
        let plain = artifact.simulate(&w.bank, &stimuli, &config).expect("simulate");
        assert_bit_identical(&oracle, &plain, &format!("{tag} simulate"));
        let scratched = artifact
            .simulate_with_scratch(&w.bank, &stimuli, &config, &mut scratch)
            .expect("simulate_with_scratch");
        assert_bit_identical(&oracle, &scratched, &format!("{tag} scratch"));
        let armed = artifact
            .simulate_cancellable(&w.bank, &stimuli, &config, &mut scratch, &token)
            .expect("simulate_cancellable");
        assert_bit_identical(&oracle, &armed, &format!("{tag} cancellable"));
    }
}

/// The compile-once artifact against fresh per-call compiles, under every
/// execution setting and every adversarial stimulus class: a cached
/// [`CompiledNetwork`] reused for many runs (with a reused [`RunScratch`])
/// must be bit-identical to [`simulate`], which re-derives the round
/// tables on every call. This is the cache-identity half of the serve
/// control plane's correctness argument (CI's test-name filter is
/// `compile`).
#[test]
fn compiled_artifact_matches_fresh_compile_across_backends() {
    for (label, fppn_cfg) in adversarial_presets() {
        let w = synthetic_fppn(&fppn_cfg);
        let cfg = CompileConfig::new(w.wcet.clone(), 2);
        // Two independent compiles of the same inputs: same key, and the
        // first one stands in for "the cached artifact" below.
        let artifact = CompiledNetwork::compile(w.net.clone(), &cfg).expect("compiles");
        let recompiled = CompiledNetwork::compile(w.net.clone(), &cfg).expect("compiles");
        assert_eq!(
            artifact.content_hash(),
            recompiled.content_hash(),
            "{label}: equal inputs must produce equal compile keys"
        );
        assert_eq!(artifact.content_hash(), compile_key(&w.net, &cfg));

        let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let frames = 2u64;
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let mut scratch = RunScratch::new();
        for class in AdversarialClass::ALL {
            let raw = adversarial_stimuli(&w.net, &derived, horizon, class, 0xCAFE);
            let stimuli = clip_stimuli(&w.net, &derived, &raw, frames);
            let config = SimConfig {
                frames,
                exec_time: ExecTimeModel::typical_jitter(0xCAFE),
                overhead: OverheadModel::constant(TimeQ::from_ms(7)),
                ..SimConfig::default()
            };
            let tag = format!("{label} {}", class.name());
            // Fresh compile path: the one-shot entry point.
            let fresh = simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &config)
                .expect("fresh sequential");
            // Cache-hit path, every setting against the one artifact.
            for run_cfg in std::iter::once(config).chain(sweep_configs(config)) {
                let setting = format!(
                    "behavior_workers {} memo {}",
                    run_cfg.behavior_workers, run_cfg.memo
                );
                let cached = artifact
                    .simulate(&w.bank, &stimuli, &run_cfg)
                    .expect("cached artifact run");
                assert_bit_identical(&fresh, &cached, &format!("{tag} cached {setting}"));
                // The serve worker path: scratch reused across runs & classes.
                let scratched = artifact
                    .simulate_with_scratch(&w.bank, &stimuli, &run_cfg, &mut scratch)
                    .expect("scratch run");
                assert_bit_identical(&fresh, &scratched, &format!("{tag} scratch {setting}"));
            }
        }
    }
}

/// Single-field mutations of the compile inputs must each move the
/// content hash: the cache can never serve a stale artifact for a changed
/// network, WCET table, processor count or heuristic.
#[test]
fn compile_key_changes_under_any_single_mutation() {
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};
    use fppn_taskgraph::WcetModel;
    let ms = TimeQ::from_ms;

    // One knob per variant; index 0 is the baseline.
    let build = |period_a: i64, burst: u32, kind: ChannelKind, name_b: &str, extra_edge: bool| {
        let mut b = FppnBuilder::new();
        let a = b.process(ProcessSpec::new("a", EventSpec::periodic(ms(period_a))));
        let s = b.process(ProcessSpec::new("s", EventSpec::sporadic(burst, ms(400))));
        let p_b = b.process(ProcessSpec::new(name_b, EventSpec::periodic(ms(200))));
        b.channel("ab", a, p_b, kind);
        b.channel("sb", s, p_b, ChannelKind::Blackboard);
        b.priority(a, p_b);
        b.priority(s, p_b);
        if extra_edge {
            b.priority(a, s);
        }
        b.build().unwrap().0
    };
    let base_net = build(100, 2, ChannelKind::Fifo, "b", false);
    let base_wcet = WcetModel::uniform(ms(10));
    let base = CompileConfig::new(base_wcet.clone(), 2);

    let mut keys = vec![("baseline", compile_key(&base_net, &base))];
    for (what, net) in [
        ("process period", build(50, 2, ChannelKind::Fifo, "b", false)),
        ("sporadic burst", build(100, 3, ChannelKind::Fifo, "b", false)),
        ("channel kind", build(100, 2, ChannelKind::Blackboard, "b", false)),
        ("process name", build(100, 2, ChannelKind::Fifo, "b2", false)),
        ("priority edge", build(100, 2, ChannelKind::Fifo, "b", true)),
    ] {
        keys.push((what, compile_key(&net, &base)));
    }
    let mut wcet_override = base_wcet.clone();
    wcet_override.set(base_net.process_by_name("a").unwrap(), ms(11));
    keys.push((
        "wcet override",
        compile_key(&base_net, &CompileConfig::new(wcet_override, 2)),
    ));
    keys.push((
        "wcet default",
        compile_key(&base_net, &CompileConfig::new(WcetModel::uniform(ms(12)), 2)),
    ));
    keys.push((
        "processor count",
        compile_key(&base_net, &CompileConfig::new(base_wcet.clone(), 3)),
    ));
    keys.push((
        "heuristic",
        compile_key(
            &base_net,
            &CompileConfig {
                wcet: base_wcet,
                processors: 2,
                heuristic: Heuristic::BLevel,
            },
        ),
    ));

    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            assert_ne!(
                keys[i].1, keys[j].1,
                "mutations {:?} and {:?} collided",
                keys[i].0, keys[j].0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Seed-pinned differential property: random workload shapes, random
    /// sporadic densities, random exec-time seeds, every execution
    /// setting against the oracle.
    #[test]
    fn sharded_plane_equals_sequential_store(
        periodic in 2usize..6,
        sporadic in 0usize..3,
        density in 0u32..=1000,
        seed in any::<u64>(),
        exec_seed in any::<u64>(),
        m in 1usize..4,
        frames in 1u64..4,
    ) {
        let cfg = WorkloadConfig {
            periodic,
            sporadic,
            seed,
            ..WorkloadConfig::default()
        };
        let w = random_workload(&cfg);
        let derived = derive_task_graph(&w.net, &w.wcet).unwrap();
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let stimuli = random_stimuli(&w.net, horizon, density, seed ^ 0x5a5a);
        let stimuli = clip_stimuli(&w.net, &derived, &stimuli, frames);
        let schedule = list_schedule(&derived.graph, m, Heuristic::AlapEdf);
        let config = SimConfig {
            frames,
            exec_time: ExecTimeModel::typical_jitter(exec_seed),
            ..SimConfig::default()
        };
        let seq = simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &config).unwrap();
        for run_cfg in sweep_configs(config) {
            let run = simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &run_cfg).unwrap();
            prop_assert_eq!(&seq.records, &run.records);
            prop_assert_eq!(&seq.observables, &run.observables);
            prop_assert_eq!(&seq.gantt, &run.gantt);
            prop_assert_eq!(&seq.stats, &run.stats);
        }
    }

    /// Content-hash stability: rebuilding the same random workload from
    /// the same seed always produces the same compile key (so a cache
    /// keyed on it hits across processes and sessions), the compiled
    /// artifact records exactly that key, and changing the processor
    /// count alone moves it.
    #[test]
    fn compile_key_is_stable_across_rebuilds(
        periodic in 2usize..6,
        sporadic in 0usize..3,
        seed in any::<u64>(),
        m in 1usize..4,
    ) {
        let cfg = WorkloadConfig {
            periodic,
            sporadic,
            seed,
            ..WorkloadConfig::default()
        };
        let w1 = random_workload(&cfg);
        let w2 = random_workload(&cfg);
        let c1 = CompileConfig::new(w1.wcet.clone(), m);
        let c2 = CompileConfig::new(w2.wcet.clone(), m);
        prop_assert_eq!(compile_key(&w1.net, &c1), compile_key(&w2.net, &c2));
        let artifact = CompiledNetwork::compile(w1.net.clone(), &c1).unwrap();
        prop_assert_eq!(artifact.content_hash(), compile_key(&w2.net, &c2));
        prop_assert_ne!(
            compile_key(&w1.net, &CompileConfig::new(w1.wcet.clone(), m + 1)),
            artifact.content_hash()
        );
    }
}

/// Frame memoization differential sweep: with `memo: true`, both data
/// planes must stay bit-identical to the memo-off sequential oracle —
/// across the adversarial stimulus classes (sporadic bursts, floods, tie
/// storms, external inputs), frame counts spanning no-reuse (1) through
/// heavy reuse (32), and both the memoizing exec model (`Wcet`) and a
/// stochastic one that must fall back to the live loop. The one round
/// loop feeds every data plane, so the memo is consulted whatever
/// `behavior_workers` says.
#[test]
fn memo_on_is_bit_identical_to_memo_off_across_backends() {
    for (label, fppn_cfg) in adversarial_presets() {
        let w = synthetic_fppn(&fppn_cfg);
        let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        for frames in [1u64, 8, 32] {
            let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
            // At 32 frames only the memoizing model is interesting (the
            // stochastic fallback is already pinned at 1 and 8).
            let execs: &[ExecTimeModel] = if frames == 32 {
                &[ExecTimeModel::Wcet]
            } else {
                &[ExecTimeModel::Wcet, ExecTimeModel::typical_jitter(0x3E30)]
            };
            for class in AdversarialClass::ALL {
                let raw = adversarial_stimuli(&w.net, &derived, horizon, class, 0x3E30);
                let stimuli = clip_stimuli(&w.net, &derived, &raw, frames);
                for &exec in execs {
                    let base = SimConfig {
                        frames,
                        exec_time: exec,
                        ..SimConfig::default()
                    };
                    let tag = format!("{label} {} f{frames} {exec:?}", class.name());
                    let oracle = simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &base)
                        .expect("memo-off oracle");
                    for behavior_workers in [0usize, 4] {
                        let on = SimConfig {
                            behavior_workers,
                            memo: true,
                            ..base
                        };
                        let run = simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &on)
                            .expect("memo-on run");
                        assert_bit_identical(
                            &oracle,
                            &run,
                            &format!("{tag} behavior_workers {behavior_workers}"),
                        );
                    }
                }
            }
        }
    }
}

/// On a pure-periodic production workload (FMS) every hyperperiod after
/// the transient settles carries the same relative state, so the frame
/// memo must actually engage — frames replay as hits, not recompute as
/// misses — and the replayed run must equal the memo-off oracle bit for
/// bit.
#[test]
fn memo_replays_settled_periodic_frames_as_hits() {
    let (net, bank, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let stimuli = Stimuli::new();
    let config = SimConfig {
        frames: 32,
        memo: true,
        ..SimConfig::default()
    };
    let mut rounds =
        SeqRounds::new(&net, &stimuli, &derived, &tables, &config).expect("round engine");
    rounds.compute().expect("rounds");
    let (hits, misses) = rounds.memo_stats();
    assert_eq!(hits + misses, 32, "memo must be consulted for every frame");
    assert!(
        hits >= 24,
        "periodic frames must replay as hits once settled (hits={hits}, misses={misses})"
    );

    let frames = 8u64;
    let off = simulate(
        &net,
        &bank,
        &stimuli,
        &derived,
        &schedule,
        &SimConfig {
            frames,
            ..SimConfig::default()
        },
    )
    .expect("memo-off oracle");
    let on = simulate(
        &net,
        &bank,
        &stimuli,
        &derived,
        &schedule,
        &SimConfig {
            frames,
            memo: true,
            ..SimConfig::default()
        },
    )
    .expect("memo-on run");
    assert_bit_identical(&off, &on, "fms periodic memo replay");
}

/// The memo's soundness gate: bounded-capacity FIFOs and stochastic
/// exec-time models disqualify the network/config from memoization
/// entirely — the engine must fall back to the live loop (zero lookups,
/// zero hits) and still produce the memo-off result bit for bit.
#[test]
fn memo_disengages_on_bounded_fifos_and_stochastic_exec() {
    use fppn_core::{ChannelKind, ChannelSpec, EventSpec, FppnBuilder, JobCtx, ProcessSpec, Value};
    let ms = TimeQ::from_ms;
    let mut b = FppnBuilder::new();
    let src = b.process(ProcessSpec::new("src", EventSpec::periodic(ms(100))));
    let dst = b.process(ProcessSpec::new("dst", EventSpec::periodic(ms(100))));
    let ch = b.channel_spec(
        ChannelSpec::new("bounded", src, dst, ChannelKind::Fifo)
            .with_capacity(std::num::NonZeroUsize::new(2).unwrap()),
    );
    b.priority(src, dst);
    b.behavior(src, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| ctx.write(ch, Value::Int(ctx.k() as i64)))
    });
    b.behavior(dst, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| while ctx.read(ch).is_some() {})
    });
    let (net, bank) = b.build().unwrap();
    let derived = derive_task_graph(&net, &fppn_taskgraph::WcetModel::uniform(ms(10))).unwrap();
    let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let config = SimConfig {
        frames: 8,
        memo: true,
        ..SimConfig::default()
    };

    let mut rounds =
        SeqRounds::new(&net, &Stimuli::new(), &derived, &tables, &config).expect("round engine");
    rounds.compute().expect("rounds");
    assert_eq!(
        rounds.memo_stats(),
        (0, 0),
        "bounded FIFOs must disable the memo entirely"
    );

    let off = simulate(
        &net,
        &bank,
        &Stimuli::new(),
        &derived,
        &schedule,
        &SimConfig {
            memo: false,
            ..config
        },
    )
    .expect("memo-off oracle");
    let on = simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config)
        .expect("memo-on run");
    assert_bit_identical(&off, &on, "bounded-fifo memo fallback");

    // Stochastic exec times: the memo flag stays on but the engine must
    // never consult the table (replay would freeze one sampled timeline).
    let w = random_workload(&WorkloadConfig {
        periodic: 4,
        sporadic: 1,
        seed: 0x3E31,
        ..WorkloadConfig::default()
    });
    let derived = derive_task_graph(&w.net, &w.wcet).unwrap();
    let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let tables = StaticTables::build(&w.net, &derived, &schedule);
    let jitter = SimConfig {
        frames: 8,
        memo: true,
        exec_time: ExecTimeModel::typical_jitter(0x3E32),
        ..SimConfig::default()
    };
    let mut rounds =
        SeqRounds::new(&w.net, &Stimuli::new(), &derived, &tables, &jitter).expect("round engine");
    rounds.compute().expect("rounds");
    assert_eq!(
        rounds.memo_stats(),
        (0, 0),
        "stochastic exec models must disable the memo entirely"
    );
    let off = simulate(
        &w.net,
        &w.bank,
        &Stimuli::new(),
        &derived,
        &schedule,
        &SimConfig {
            memo: false,
            ..jitter
        },
    )
    .expect("memo-off oracle");
    let on = simulate(&w.net, &w.bank, &Stimuli::new(), &derived, &schedule, &jitter)
        .expect("memo-on run");
    assert_bit_identical(&off, &on, "stochastic memo fallback");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Collision audit for the frame fingerprint: over random workload
    /// shapes and sporadic densities, any two frames that hash to the
    /// same fingerprint must have produced round tables that are exact
    /// time-translates of each other (same jobs, processors, miss/skip
    /// flags; all four timestamps shifted by a whole number of
    /// hyperperiods). A fingerprint collision between genuinely different
    /// carry-in states would surface here as a non-translate pair.
    #[test]
    fn fingerprint_equal_frames_are_time_translates(
        periodic in 2usize..6,
        sporadic in 0usize..3,
        density in 0u32..=1000,
        seed in any::<u64>(),
        m in 1usize..4,
        frames in 2u64..7,
    ) {
        let cfg = WorkloadConfig {
            periodic,
            sporadic,
            seed,
            ..WorkloadConfig::default()
        };
        let w = random_workload(&cfg);
        let derived = derive_task_graph(&w.net, &w.wcet).unwrap();
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let stimuli = random_stimuli(&w.net, horizon, density, seed ^ 0x3E33);
        let stimuli = clip_stimuli(&w.net, &derived, &stimuli, frames);
        let schedule = list_schedule(&derived.graph, m, Heuristic::AlapEdf);
        let tables = StaticTables::build(&w.net, &derived, &schedule);
        let config = SimConfig {
            frames,
            memo: true,
            exec_time: ExecTimeModel::Wcet,
            ..SimConfig::default()
        };
        let mut rounds = SeqRounds::new(&w.net, &stimuli, &derived, &tables, &config).unwrap();
        let mut fps = Vec::new();
        let records = rounds.compute_fingerprinted(&mut fps).unwrap();
        prop_assert_eq!(fps.len() as u64, frames);

        let mut by_frame: Vec<Vec<&fppn_sim::JobRecord>> = vec![Vec::new(); frames as usize];
        for rec in &records {
            by_frame[rec.frame as usize].push(rec);
        }
        for block in &mut by_frame {
            block.sort_by_key(|r| r.job.index());
        }
        for i in 0..frames as usize {
            for j in (i + 1)..frames as usize {
                if fps[i] != fps[j] {
                    continue;
                }
                let di = TimeQ::from_int(i as i64) * derived.hyperperiod;
                let dj = TimeQ::from_int(j as i64) * derived.hyperperiod;
                prop_assert_eq!(
                    by_frame[i].len(),
                    by_frame[j].len(),
                    "fingerprint-equal frames {} and {} differ in record count",
                    i,
                    j
                );
                for (a, b) in by_frame[i].iter().zip(by_frame[j].iter()) {
                    prop_assert_eq!(a.job, b.job, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.process, b.process, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.processor, b.processor, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.missed, b.missed, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.skipped, b.skipped, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.invoked_at - di, b.invoked_at - dj, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.start - di, b.start - dj, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.completion - di, b.completion - dj, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.deadline - di, b.deadline - dj, "frames {} vs {}", i, j);
                }
            }
        }
    }
}
