//! The flagship determinism test (Prop. 2.1 / Prop. 4.1): for the paper's
//! applications and random workloads, every execution backend — zero-delay
//! reference (both FP linearizations), the discrete-event simulator (any
//! processor count, any execution-time draw, with and without overhead,
//! through the oracle round loop and the default memoized one) and the
//! multi-threaded runtime — produces identical
//! observable value sequences for identical stimuli. The simulator and
//! the runtime run the same compiled artifact, and all three executors
//! (the timed-automata translation too) reject the same invalid stimuli.

use fppn::apps::{
    fft_network, fft_wcet, fig1_network, fig1_wcet, fms_network, fms_wcet, random_workload,
    FmsVariant, WorkloadConfig,
};
use fppn::core::{run_zero_delay, Fppn, JobOrdering, Observables, SporadicTrace, Stimuli};
use fppn::runtime::{run_threaded, RuntimeConfig, RuntimeError};
use fppn::sched::Heuristic;
use fppn::sim::hotpath::simulate_oracle;
use fppn::sim::{
    clip_stimuli, random_stimuli, CompileConfig, CompiledNetwork, ExecTimeModel, OverheadModel,
    SimConfig, SimError,
};
use fppn::ta::translate;
use fppn::taskgraph::{derive_task_graph, BindError, WcetModel};
use fppn::time::TimeQ;

/// Compiles `net` onto `processors` processors under `heuristic`.
fn compile(
    net: &Fppn,
    wcet: &WcetModel,
    processors: usize,
    heuristic: Heuristic,
) -> CompiledNetwork {
    let config = CompileConfig {
        heuristic,
        ..CompileConfig::new(wcet.clone(), processors)
    };
    CompiledNetwork::compile(net.clone(), &config).expect("compiles")
}

/// Runs every backend over `frames` frames and asserts equal observables.
/// Each `(processors, heuristic)` pair gets one compiled artifact, which
/// every executor runs.
fn assert_all_backends_agree(
    net: &Fppn,
    bank: &fppn::core::BehaviorBank,
    wcet: &WcetModel,
    raw_stimuli: &Stimuli,
    frames: u64,
    label: &str,
) {
    let artifacts: Vec<(usize, Heuristic, CompiledNetwork)> = (1..=3usize)
        .flat_map(|processors| {
            [Heuristic::AlapEdf, Heuristic::BLevel].map(|heuristic| {
                let artifact = compile(net, wcet, processors, heuristic);
                (processors, heuristic, artifact)
            })
        })
        .collect();
    let derived = artifacts[0].2.derived();
    let stimuli = clip_stimuli(net, derived, raw_stimuli, frames);
    let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;

    let reference: Observables = {
        let mut behaviors = bank.instantiate();
        run_zero_delay(net, &mut behaviors, &stimuli, horizon, JobOrdering::MinRankFirst)
            .expect("reference run")
            .observables
    };
    // Alternative linearization (Prop. 2.1).
    {
        let mut behaviors = bank.instantiate();
        let alt =
            run_zero_delay(net, &mut behaviors, &stimuli, horizon, JobOrdering::MaxRankFirst)
                .expect("alt run");
        assert_eq!(
            alt.observables.diff(&reference),
            None,
            "{label}: zero-delay linearization changed outputs"
        );
    }
    for (processors, heuristic, artifact) in &artifacts {
        // Simulator across exec-time models and overheads.
        for (exec, overhead) in [
            (ExecTimeModel::Wcet, OverheadModel::NONE),
            (ExecTimeModel::typical_jitter(7), OverheadModel::NONE),
            (
                ExecTimeModel::Wcet,
                OverheadModel::constant(TimeQ::from_ms(5)),
            ),
        ] {
            // The oracle seam and the default memoized loop.
            for oracle in [true, false] {
                let config = SimConfig {
                    frames,
                    overhead,
                    exec_time: exec,
                };
                let run = if oracle {
                    simulate_oracle(
                        artifact.net(),
                        bank,
                        &stimuli,
                        artifact.derived(),
                        artifact.schedule(),
                        &config,
                    )
                } else {
                    artifact.simulate(bank, &stimuli, &config)
                }
                .expect("simulate");
                assert_eq!(
                    run.observables.diff(&reference),
                    None,
                    "{label}: sim diverged ({processors} procs, {heuristic}, {exec:?}, \
                     {overhead:?}, oracle {oracle})"
                );
            }
        }
        // Threaded runtime, repeated to vary OS interleavings.
        for rep in 0..2 {
            let run = run_threaded(
                artifact,
                bank,
                &stimuli,
                &RuntimeConfig {
                    frames,
                    us_per_ms: 0,
                },
            )
            .expect("threaded");
            assert_eq!(
                run.observables.diff(&reference),
                None,
                "{label}: threaded diverged ({processors} procs, {heuristic}, rep {rep})"
            );
        }
    }
}

#[test]
fn fig1_is_deterministic_across_backends() {
    let (net, bank, ids) = fig1_network();
    let mut stimuli = Stimuli::new();
    stimuli.arrivals(
        ids.coef_b,
        SporadicTrace::new(vec![TimeQ::from_ms(120), TimeQ::from_ms(390)]),
    );
    assert_all_backends_agree(&net, &bank, &fig1_wcet(), &stimuli, 4, "fig1");
}

/// Three CoefB arrivals within 20 ms break its `(2, 700 ms)` constraint.
/// The simulator, the threaded runtime and the timed-automata translation
/// bind stimuli through one routine, so each returns a typed error.
#[test]
fn every_executor_rejects_a_trace_that_breaks_its_sporadic_constraint() {
    let (net, bank, ids) = fig1_network();
    let mut stimuli = Stimuli::new();
    stimuli.arrivals(
        ids.coef_b,
        SporadicTrace::new([50, 60, 70].map(TimeQ::from_ms).to_vec()),
    );
    let artifact = compile(&net, &fig1_wcet(), 2, Heuristic::AlapEdf);
    let frames = 2;
    let sim = artifact.simulate(
        &bank,
        &stimuli,
        &SimConfig {
            frames,
            ..SimConfig::default()
        },
    );
    assert!(
        matches!(sim, Err(SimError::Network(_))),
        "simulator: {:?}",
        sim.map(|run| run.stats)
    );
    let threaded = run_threaded(
        &artifact,
        &bank,
        &stimuli,
        &RuntimeConfig {
            frames,
            us_per_ms: 0,
        },
    );
    assert!(
        matches!(threaded, Err(RuntimeError::Network(_))),
        "runtime: {:?}",
        threaded.map(|run| run.executed)
    );
    let translated = translate(&artifact, &stimuli, frames);
    assert!(
        matches!(translated, Err(BindError::Stimuli(_))),
        "translation: {:?}",
        translated.map(|t| t.rounds)
    );
}

#[test]
fn fft_is_deterministic_across_backends() {
    let (net, bank, _) = fft_network();
    assert_all_backends_agree(&net, &bank, &fft_wcet(), &Stimuli::new(), 3, "fft");
}

/// The §V-B case study, both variants, over one frame with dense
/// sporadic pilot commands.
#[test]
fn fms_is_deterministic_across_backends() {
    for variant in [FmsVariant::Original, FmsVariant::Reduced] {
        let (net, bank, ids) = fms_network(variant);
        let wcet = fms_wcet(&ids);
        let derived = derive_task_graph(&net, &wcet).expect("derivable");
        let stimuli = random_stimuli(&net, derived.hyperperiod, 900, 5);
        assert_all_backends_agree(&net, &bank, &wcet, &stimuli, 1, &format!("fms {variant:?}"));
    }
}

#[test]
fn random_workloads_are_deterministic_across_backends() {
    for seed in 0..6 {
        let w = random_workload(&WorkloadConfig {
            periodic: 5,
            sporadic: 2,
            seed,
            ..WorkloadConfig::default()
        });
        let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
        let horizon = TimeQ::from_int(2) * derived.hyperperiod;
        let stimuli = random_stimuli(&w.net, horizon, 500, seed * 31 + 1);
        assert_all_backends_agree(
            &w.net,
            &w.bank,
            &w.wcet,
            &stimuli,
            2,
            &format!("workload seed {seed}"),
        );
    }
}
