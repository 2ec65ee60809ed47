//! Differential test-suite: the default run against the sequential
//! oracle (the same pattern that proves the event-driven scheduler against
//! `list_schedule_naive`).
//!
//! The oracle is [`simulate_oracle`]: the plain free-interleave round
//! loop, which never replays a frame. The default [`simulate`], with its
//! frame memo, and the compiled artifact's entry points must be
//! bit-identical to it on every component of a [`SimRun`]: the per-round
//! [`fppn_sim::JobRecord`]s (exact rational times, processors, ranks), the
//! Gantt segments, the statistics and the observables — across random
//! workloads, sporadic densities, overhead models, exec-time models and
//! processor counts.

use fppn_apps::{
    adversarial_presets, fms_network, fms_wcet, random_workload, synthetic_fppn, FmsVariant,
    SyntheticFppnConfig, SyntheticGraphConfig, WorkloadConfig,
};
use fppn_core::{BehaviorBank, Fppn, Stimuli};
use fppn_sched::{list_schedule, Heuristic, StaticSchedule};
use fppn_sim::hotpath::{simulate_oracle, SeqRounds, MEMO_MISS_BUDGET};
use fppn_sim::{
    adversarial_stimuli, clip_stimuli, compile_key, random_stimuli, simulate, sporadic_processes,
    tiled_sporadic_trace, AdversarialClass, CancelToken, CompileConfig, CompiledNetwork,
    ExecTimeModel, OverheadModel, RunScratch, SimConfig, SimError, SimRun, StaticTables,
};
use fppn_taskgraph::{derive_task_graph, DerivedTaskGraph};
use fppn_time::TimeQ;
use proptest::prelude::*;

/// Asserts `run` bit-identical to `oracle`, the reference run: the oracle
/// seam, or a fresh compile when a cached artifact is under test.
fn assert_bit_identical(oracle: &SimRun, run: &SimRun, label: &str) {
    assert_eq!(oracle.records, run.records, "{label}: records diverged");
    assert_eq!(
        oracle.observables.diff(&run.observables),
        None,
        "{label}: observables diverged"
    );
    assert_eq!(
        oracle.observables, run.observables,
        "{label}: observables !="
    );
    assert_eq!(oracle.gantt, run.gantt, "{label}: gantt diverged");
    assert_eq!(oracle.stats, run.stats, "{label}: stats diverged");
}

/// Runs the oracle seam and the default [`simulate`] on one simulation
/// and asserts them bit-identical.
fn assert_default_matches_oracle(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    derived: &DerivedTaskGraph,
    schedule: &StaticSchedule,
    config: SimConfig,
    label: &str,
) {
    let oracle =
        simulate_oracle(net, bank, stimuli, derived, schedule, &config).expect("sequential oracle");
    let run = simulate(net, bank, stimuli, derived, schedule, &config)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_bit_identical(&oracle, &run, label);
}

/// One workload, every axis: processors × exec-time models × overheads,
/// over several frames with random stimuli.
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
            };
            assert_default_matches_oracle(
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
fn default_matches_oracle_on_pinned_workloads() {
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
fn default_matches_oracle_at_extreme_densities() {
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

/// The behavior-heavy synthetic FPPN — where the behavior replay
/// dominates — across shapes. The third shape turns on the stimulus knobs
/// (sporadic configurators + external input streams), so the server-slot
/// machinery (windows, false slots, input consumption) runs too.
#[test]
fn default_matches_oracle_on_behavior_heavy_workloads() {
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
            assert_default_matches_oracle(
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
/// through the default run, *with a runtime-overhead model active* —
/// the axis the property campaign (`tests/properties.rs`) leaves to this
/// suite. Window-edge arrivals under overhead-shifted completions are
/// exactly where a subset-mapping or visibility bug would surface.
#[test]
fn default_matches_oracle_on_adversarial_stimuli_with_overheads() {
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
                };
                assert_default_matches_oracle(
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

/// A bounded-capacity cross-process FIFO drained by a multirate reader:
/// the default run must match the oracle, not panic or diverge.
#[test]
fn bounded_fifo_workload_matches_oracle() {
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
    assert_default_matches_oracle(
        &net,
        &bank,
        &Stimuli::new(),
        &derived,
        &schedule,
        config,
        "bounded fifo",
    );
}

/// A late upstream writer: one process with an enormous WCET feeds every
/// consumer, and the consumers tick 8x faster, so the canonical order
/// puts most consumer jobs after the writer's late completion. The
/// default run must replay them there without diverging from the oracle.
#[test]
fn late_upstream_writer_matches_oracle() {
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
    assert_default_matches_oracle(
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
fn compiled_entry_points_match_oracle() {
    // The compiled artifact's three entry points (plain, scratch, and
    // armed-but-untripped cancel token on the same, now warm, scratch)
    // must give the oracle seam's result.
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
    let oracle = simulate_oracle(
        &w.net,
        &w.bank,
        &stimuli,
        artifact.derived(),
        artifact.schedule(),
        &base,
    )
    .expect("oracle seam");
    let mut scratch = RunScratch::new();
    let token = CancelToken::new();
    let plain = artifact
        .simulate(&w.bank, &stimuli, &base)
        .expect("simulate");
    assert_bit_identical(&oracle, &plain, "simulate");
    let scratched = artifact
        .simulate_with_scratch(&w.bank, &stimuli, &base, &mut scratch)
        .expect("simulate_with_scratch");
    assert_bit_identical(&oracle, &scratched, "scratch");
    let armed = artifact
        .simulate_cancellable(&w.bank, &stimuli, &base, &mut scratch, &token)
        .expect("simulate_cancellable");
    assert_bit_identical(&oracle, &armed, "cancellable");
}

/// The compile-once artifact against fresh per-call compiles, under every
/// adversarial stimulus class: a cached
/// [`CompiledNetwork`] reused for many runs (with a reused [`RunScratch`])
/// must be bit-identical to [`simulate`], which re-derives the round
/// tables on every call. This is the cache-identity half of the serve
/// control plane's correctness argument (CI's test-name filter is
/// `compile`).
#[test]
fn compiled_artifact_matches_fresh_compile_on_adversarial_stimuli() {
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
            };
            let tag = format!("{label} {}", class.name());
            // Fresh compile path: the one-shot entry point.
            let fresh = simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &config)
                .expect("fresh sequential");
            // Cache-hit path against the one artifact.
            let cached = artifact
                .simulate(&w.bank, &stimuli, &config)
                .expect("cached artifact run");
            assert_bit_identical(&fresh, &cached, &format!("{tag} cached"));
            // The serve worker path: scratch reused across runs & classes.
            let scratched = artifact
                .simulate_with_scratch(&w.bank, &stimuli, &config, &mut scratch)
                .expect("scratch run");
            assert_bit_identical(&fresh, &scratched, &format!("{tag} scratch"));
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
    /// sporadic densities, random exec-time seeds, the default run against
    /// the oracle.
    #[test]
    fn default_run_equals_oracle(
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
        let seq = simulate_oracle(&w.net, &w.bank, &stimuli, &derived, &schedule, &config).unwrap();
        let run = simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &config).unwrap();
        prop_assert_eq!(&seq.records, &run.records);
        prop_assert_eq!(&seq.observables, &run.observables);
        prop_assert_eq!(&seq.gantt, &run.gantt);
        prop_assert_eq!(&seq.stats, &run.stats);
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

/// Frame memoization differential sweep: the default run, which replays
/// repeated frames from the memo, must stay bit-identical to the oracle
/// seam, which never replays — across the adversarial
/// stimulus classes (sporadic bursts, floods, tie storms, external inputs),
/// frame counts spanning no reuse (1) through heavy reuse (32), and both
/// the replaying exec model (`Wcet`) and a stochastic one that computes
/// every frame live.
#[test]
fn memo_replaying_run_matches_oracle_across_frame_counts() {
    for (label, fppn_cfg) in adversarial_presets() {
        let w = synthetic_fppn(&fppn_cfg);
        let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        for frames in [1u64, 8, 32] {
            let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
            // At 32 frames only the replaying model is interesting (the
            // stochastic model is already pinned at 1 and 8).
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
                    let oracle =
                        simulate_oracle(&w.net, &w.bank, &stimuli, &derived, &schedule, &base)
                            .expect("oracle seam");
                    let run = simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &base)
                        .expect("default run");
                    assert_bit_identical(&oracle, &run, &tag);
                }
            }
        }
    }
}

/// On a pure-periodic production workload (FMS) every hyperperiod after
/// the transient settles carries the same relative state, so the default
/// run must replay: frames 0 and 1 miss, and frame 1 seeds a hit for every
/// later frame. The replayed run must equal the oracle bit for bit.
#[test]
fn memo_replays_settled_periodic_frames_as_hits() {
    let (net, bank, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let stimuli = Stimuli::new();
    let config = SimConfig {
        frames: 32,
        ..SimConfig::default()
    };
    let mut rounds =
        SeqRounds::new(&net, &stimuli, &derived, &tables, &config).expect("round engine");
    rounds.compute().expect("rounds");
    assert_eq!(
        rounds.memo_stats(),
        (30, 2),
        "periodic frames must replay as hits once settled"
    );

    let config = SimConfig {
        frames: 8,
        ..SimConfig::default()
    };
    let oracle =
        simulate_oracle(&net, &bank, &stimuli, &derived, &schedule, &config).expect("oracle seam");
    let replayed =
        simulate(&net, &bank, &stimuli, &derived, &schedule, &config).expect("default run");
    assert_bit_identical(&oracle, &replayed, "fms periodic memo replay");
}

/// Frames whose sporadic arrivals never repeat cannot replay: the memo
/// must stop looking up after [`MEMO_MISS_BUDGET`] consecutive misses, with
/// no hit, and the run must still equal the oracle bit for bit.
#[test]
fn memo_disengages_after_miss_budget_on_dense_sporadic_frames() {
    let (net, bank, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let frames = 8u64;
    let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
    // Density 900 keeps random slack between arrivals; at 1000 there is
    // none, and the maximal-rate pattern repeats every frame.
    let stimuli = random_stimuli(&net, horizon, 900, 0x3E34);
    let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);
    let config = SimConfig {
        frames,
        ..SimConfig::default()
    };
    let mut rounds =
        SeqRounds::new(&net, &stimuli, &derived, &tables, &config).expect("round engine");
    rounds.compute().expect("rounds");
    assert_eq!(
        rounds.memo_stats(),
        (0, MEMO_MISS_BUDGET),
        "non-repeating frames must disengage the memo after the miss budget"
    );
    let oracle =
        simulate_oracle(&net, &bank, &stimuli, &derived, &schedule, &config).expect("oracle seam");
    let run = simulate(&net, &bank, &stimuli, &derived, &schedule, &config).expect("default run");
    assert_bit_identical(&oracle, &run, "dense sporadic fms");
}

/// The memo's soundness gate is the execution-time model alone. Round
/// times never read a channel capacity, so a network with bounded FIFOs
/// replays like any other; a stochastic model samples different durations
/// per frame, so it must never consult the table (zero lookups, zero
/// hits). Both must produce the oracle's result bit for bit.
#[test]
fn memo_replays_on_bounded_fifos_and_disengages_on_stochastic_exec() {
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
        ..SimConfig::default()
    };

    let mut rounds =
        SeqRounds::new(&net, &Stimuli::new(), &derived, &tables, &config).expect("round engine");
    rounds.compute().expect("rounds");
    let (hits, _) = rounds.memo_stats();
    assert!(
        hits > 0,
        "bounded FIFOs must not keep periodic frames from replaying"
    );
    let oracle = simulate_oracle(&net, &bank, &Stimuli::new(), &derived, &schedule, &config)
        .expect("oracle seam");
    let replayed =
        simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config).expect("default run");
    assert_bit_identical(&oracle, &replayed, "bounded-fifo memo replay");

    // Stochastic exec times: replay would freeze one sampled timeline.
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
    let stimuli = Stimuli::new();
    let oracle = simulate_oracle(&w.net, &w.bank, &stimuli, &derived, &schedule, &jitter)
        .expect("oracle seam");
    let live =
        simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &jitter).expect("default run");
    assert_bit_identical(&oracle, &live, "stochastic memo fallback");
}

/// A schedule that puts a successor before its predecessor on one
/// processor deadlocks. Both round loops must report it as
/// [`SimError::Stalled`]; their counts differ by design. The default loop
/// is frame-major and stops in frame 0, after processor 1's one round. The
/// oracle's free interleave lets processor 1 finish its round in every
/// frame first.
#[test]
fn stalled_schedule_is_reported_by_default_and_oracle() {
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};
    use fppn_sched::Placement;
    let ms = TimeQ::from_ms;
    let mut b = FppnBuilder::new();
    let pred = b.process(ProcessSpec::new("pred", EventSpec::periodic(ms(100))));
    let succ = b.process(ProcessSpec::new("succ", EventSpec::periodic(ms(100))));
    b.process(ProcessSpec::new("free", EventSpec::periodic(ms(100))));
    b.channel("c", pred, succ, ChannelKind::Fifo);
    b.priority(pred, succ);
    let (net, bank) = b.build().unwrap();
    let derived = derive_task_graph(&net, &fppn_taskgraph::WcetModel::uniform(ms(10))).unwrap();
    // Processor 0 runs `succ` before `pred`; processor 1 runs `free`.
    let placements = derived
        .graph
        .jobs()
        .iter()
        .enumerate()
        .map(|(i, job)| Placement {
            job: fppn_taskgraph::JobId::from_index(i),
            processor: usize::from(job.process != pred && job.process != succ),
            start: if job.process == pred { ms(50) } else { ms(0) },
        })
        .collect();
    let schedule = StaticSchedule::new(placements, 2, derived.hyperperiod);
    let config = SimConfig {
        frames: 4,
        ..SimConfig::default()
    };
    let stalled = |result: Result<SimRun, SimError>| match result {
        Err(SimError::Stalled { completed_rounds }) => completed_rounds,
        other => panic!("expected Stalled, got {:?}", other.map(|r| r.stats)),
    };
    let default = simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config);
    assert_eq!(stalled(default), 1, "frame-major count: `free` in frame 0");
    let oracle = simulate_oracle(&net, &bank, &Stimuli::new(), &derived, &schedule, &config);
    assert_eq!(
        stalled(oracle),
        4,
        "dataflow fixed point: `free` in every frame"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Audit of the memo's exact key: over random workload shapes and
    /// sporadic densities, with arrivals drawn over the whole horizon or
    /// tiled per hyperperiod (so that frames can repeat), the default run,
    /// which replays every frame the memo matches as a time-translate of
    /// its source frame, must be bit-identical to the oracle seam, which
    /// computes every frame live. A key that missed one of a frame's
    /// inputs would surface here as a replayed frame that is not the
    /// translate the live computation gives.
    #[test]
    fn memo_key_equal_frames_are_time_translates(
        periodic in 2usize..6,
        sporadic in 0usize..3,
        density in 0u32..=1000,
        seed in any::<u64>(),
        m in 1usize..4,
        frames in 2u64..7,
        tiled in any::<bool>(),
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
        let mut stimuli = random_stimuli(&w.net, horizon, density, seed ^ 0x3E33);
        if tiled {
            for (i, pid) in sporadic_processes(&w.net).into_iter().enumerate() {
                let ev = w.net.process(pid).event();
                let trace = tiled_sporadic_trace(
                    ev.burst(),
                    ev.period(),
                    derived.hyperperiod,
                    frames,
                    density,
                    seed ^ i as u64,
                );
                stimuli.arrivals(pid, trace);
            }
        }
        let stimuli = clip_stimuli(&w.net, &derived, &stimuli, frames);
        let schedule = list_schedule(&derived.graph, m, Heuristic::AlapEdf);
        let config = SimConfig {
            frames,
            exec_time: ExecTimeModel::Wcet,
            ..SimConfig::default()
        };
        let oracle =
            simulate_oracle(&w.net, &w.bank, &stimuli, &derived, &schedule, &config).unwrap();
        let run = simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &config).unwrap();
        prop_assert_eq!(run.records.len(), frames as usize * derived.graph.job_count());
        prop_assert_eq!(&oracle.records, &run.records);
        prop_assert_eq!(&oracle.observables, &run.observables);
        prop_assert_eq!(&oracle.gantt, &run.gantt);
        prop_assert_eq!(&oracle.stats, &run.stats);
    }
}
