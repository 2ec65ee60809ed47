//! The flagship determinism test (Prop. 2.1 / Prop. 4.1): for the paper's
//! applications and random workloads, every execution backend — zero-delay
//! reference (both FP linearizations), the discrete-event simulator (any
//! processor count, any execution-time draw, with and without overhead,
//! on either data plane, with and without the frame memo) and the
//! multi-threaded runtime — produces identical observable value
//! sequences for identical stimuli.

use fppn::apps::{fft_network, fft_wcet, fig1_network, fig1_wcet, random_workload, WorkloadConfig};
use fppn::core::{run_zero_delay, Fppn, JobOrdering, Observables, Stimuli};
use fppn::runtime::{run_threaded, RuntimeConfig};
use fppn::sched::{list_schedule, Heuristic};
use fppn::sim::{clip_stimuli, random_stimuli, simulate, ExecTimeModel, OverheadModel, SimConfig};
use fppn::taskgraph::{derive_task_graph, DerivedTaskGraph, WcetModel};
use fppn::time::TimeQ;

/// Runs every backend over `frames` frames and asserts equal observables.
fn assert_all_backends_agree(
    net: &Fppn,
    bank: &fppn::core::BehaviorBank,
    wcet: &WcetModel,
    raw_stimuli: &Stimuli,
    frames: u64,
    label: &str,
) {
    let derived: DerivedTaskGraph = derive_task_graph(net, wcet).expect("derivable");
    let stimuli = clip_stimuli(net, &derived, raw_stimuli, frames);
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
    // Simulator across processor counts, exec-time models, overheads.
    for processors in 1..=3usize {
        for heuristic in [Heuristic::AlapEdf, Heuristic::BLevel] {
            let schedule = list_schedule(&derived.graph, processors, heuristic);
            for (exec, overhead) in [
                (ExecTimeModel::Wcet, OverheadModel::NONE),
                (ExecTimeModel::typical_jitter(7), OverheadModel::NONE),
                (ExecTimeModel::Wcet, OverheadModel::constant(TimeQ::from_ms(5))),
            ] {
                // The default (sequential store, memo off) and everything
                // on (sharded data plane, frame memo).
                for (behavior_workers, memo) in [(0usize, false), (2, true)] {
                    let run = simulate(
                        net,
                        bank,
                        &stimuli,
                        &derived,
                        &schedule,
                        &SimConfig {
                            frames,
                            overhead,
                            exec_time: exec,
                            behavior_workers,
                            memo,
                        },
                    )
                    .expect("simulate");
                    assert_eq!(
                        run.observables.diff(&reference),
                        None,
                        "{label}: sim diverged ({processors} procs, {heuristic}, {exec:?}, \
                         {overhead:?}, behavior_workers {behavior_workers}, memo {memo})"
                    );
                }
            }
        }
    }
    // Threaded runtime, repeated to vary OS interleavings.
    let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    for rep in 0..3 {
        let run = run_threaded(
            net,
            bank,
            &stimuli,
            &derived,
            &schedule,
            &RuntimeConfig {
                frames,
                us_per_ms: 0,
            },
        )
        .expect("threaded");
        assert_eq!(
            run.observables.diff(&reference),
            None,
            "{label}: threaded rep {rep} diverged"
        );
    }
}

#[test]
fn fig1_is_deterministic_across_backends() {
    let (net, bank, ids) = fig1_network();
    let mut stimuli = Stimuli::new();
    stimuli.arrivals(
        ids.coef_b,
        fppn::core::SporadicTrace::new(vec![TimeQ::from_ms(120), TimeQ::from_ms(390)]),
    );
    assert_all_backends_agree(&net, &bank, &fig1_wcet(), &stimuli, 4, "fig1");
}

#[test]
fn fft_is_deterministic_across_backends() {
    let (net, bank, _) = fft_network();
    assert_all_backends_agree(&net, &bank, &fft_wcet(), &Stimuli::new(), 3, "fft");
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
