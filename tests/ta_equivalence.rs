//! Equivalence of the timed-automata translation (the paper's
//! code-generation pipeline) with the discrete-event simulator: for the
//! same compiled artifact and stimuli under WCET execution, the TA network
//! must reproduce the §IV policy timeline step for step.

use fppn::apps::{
    fig1_network, fig1_wcet, fms_network, fms_wcet, random_workload, FmsVariant, WorkloadConfig,
};
use fppn::core::{SporadicTrace, Stimuli};
use fppn::sim::{clip_stimuli, random_stimuli, CompileConfig, CompiledNetwork, SimConfig};
use fppn::ta::{extract_timings, simulate_network, translate, StopReason};
use fppn::taskgraph::derive_task_graph;
use fppn::time::TimeQ;

fn assert_ta_matches_sim(
    net: &fppn::core::Fppn,
    bank: &fppn::core::BehaviorBank,
    wcet: &fppn::taskgraph::WcetModel,
    raw_stimuli: &Stimuli,
    processors: usize,
    frames: u64,
    label: &str,
) {
    let config = CompileConfig::new(wcet.clone(), processors);
    let artifact = CompiledNetwork::compile(net.clone(), &config).unwrap();
    let derived = artifact.derived();
    let stimuli = clip_stimuli(net, derived, raw_stimuli, frames);

    let run = artifact
        .simulate(
            bank,
            &stimuli,
            &SimConfig {
                frames,
                ..SimConfig::default()
            },
        )
        .unwrap();

    let translation = translate(&artifact, &stimuli, frames).expect("translates");
    let horizon = TimeQ::from_int(frames as i64 + 1) * derived.hyperperiod;
    let trace = simulate_network(&translation.network, horizon, translation.step_bound());
    assert_eq!(trace.stopped, StopReason::Quiescent, "{label}: TA must finish");
    let timings = extract_timings(&trace);

    assert_eq!(
        timings.len(),
        run.records.len(),
        "{label}: round counts differ"
    );
    for t in &timings {
        let rec = run
            .records
            .iter()
            .find(|r| r.frame == t.frame && r.job == t.job)
            .unwrap_or_else(|| panic!("{label}: no sim record for frame {} {:?}", t.frame, t.job));
        assert_eq!(rec.skipped, t.skipped, "{label}: skip mismatch for {t:?}");
        if !t.skipped {
            assert_eq!(rec.start, t.start, "{label}: start mismatch for {t:?}");
            assert_eq!(
                rec.completion, t.completion,
                "{label}: completion mismatch for {t:?}"
            );
        }
    }
}

#[test]
fn fig1_ta_translation_matches_simulator() {
    let (net, bank, ids) = fig1_network();
    let mut stimuli = Stimuli::new();
    stimuli.arrivals(
        ids.coef_b,
        SporadicTrace::new(vec![TimeQ::from_ms(50), TimeQ::from_ms(250)]),
    );
    for processors in 1..=2 {
        assert_ta_matches_sim(
            &net,
            &bank,
            &fig1_wcet(),
            &stimuli,
            processors,
            3,
            &format!("fig1 x{processors}"),
        );
    }
}

/// The §V-B case study, both variants, over one frame with dense
/// sporadic pilot commands.
#[test]
fn fms_ta_translation_matches_simulator() {
    for variant in [FmsVariant::Original, FmsVariant::Reduced] {
        let (net, bank, ids) = fms_network(variant);
        let wcet = fms_wcet(&ids);
        let derived = derive_task_graph(&net, &wcet).unwrap();
        let stimuli = random_stimuli(&net, derived.hyperperiod, 900, 5);
        assert_ta_matches_sim(
            &net,
            &bank,
            &wcet,
            &stimuli,
            4,
            1,
            &format!("fms {variant:?}"),
        );
    }
}

#[test]
fn random_workload_ta_translation_matches_simulator() {
    for seed in 0..5 {
        let w = random_workload(&WorkloadConfig {
            periodic: 4,
            sporadic: 1,
            seed,
            ..WorkloadConfig::default()
        });
        let derived = derive_task_graph(&w.net, &w.wcet).unwrap();
        let horizon = TimeQ::from_int(2) * derived.hyperperiod;
        let stimuli = random_stimuli(&w.net, horizon, 400, seed + 99);
        assert_ta_matches_sim(
            &w.net,
            &w.bank,
            &w.wcet,
            &stimuli,
            2,
            2,
            &format!("workload {seed}"),
        );
    }
}
