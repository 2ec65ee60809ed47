//! Golden-trace snapshot tests.
//!
//! The observable sequences of the paper's two fully-specified
//! applications (Fig. 1 example network, §V-A FFT) under the zero-delay
//! reference semantics are pinned to checked-in snapshots
//! (`tests/golden/*.txt`). The determinism suite proves the simulator agrees
//! with the zero-delay reference; this suite pins what the reference
//! *itself* computes, so a refactor cannot silently change semantics while
//! remaining self-consistent.
//!
//! To regenerate after an *intentional* semantics change, run with
//! `GOLDEN_PRINT=1 cargo test -q --test golden_traces -- --nocapture` and
//! copy the printed blocks into the snapshot files.

use std::fmt::Write as _;

use fppn::apps::{fft_network, fft_wcet, fig1_network, fig1_wcet};
use fppn::core::{
    run_zero_delay, BehaviorBank, Fppn, JobOrdering, Observables, SporadicTrace, Stimuli,
};
use fppn::sched::{list_schedule, Heuristic, StaticSchedule};
use fppn::sim::hotpath::simulate_oracle;
use fppn::sim::{adversarial_stimuli, clip_stimuli, simulate, AdversarialClass, SimConfig, SimRun};
use fppn::taskgraph::{derive_task_graph, DerivedTaskGraph};
use fppn::time::TimeQ;

/// Renders observables into a stable, human-auditable text form:
/// one line per channel (named) and one per external output port.
fn render(net: &Fppn, obs: &Observables) -> String {
    let mut out = String::new();
    for (c, log) in obs.channels.iter().enumerate() {
        let name = net.channels()[c].name();
        write!(out, "channel {name}:").unwrap();
        for v in log {
            write!(out, " {v}").unwrap();
        }
        out.push('\n');
    }
    for ((pid, port), samples) in &obs.outputs {
        let pname = net.process(*pid).name();
        write!(out, "output {pname}[{}]:", port.index()).unwrap();
        for (k, v) in samples {
            write!(out, " ({k}, {v})").unwrap();
        }
        out.push('\n');
    }
    out
}

/// Runs one simulation under every execution setting a golden trace must
/// reproduce under: the oracle seam's plain round loop and the default
/// memoized one.
fn simulate_every_setting(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    derived: &DerivedTaskGraph,
    schedule: &StaticSchedule,
    config: SimConfig,
) -> [SimRun; 2] {
    [
        simulate_oracle(net, bank, stimuli, derived, schedule, &config),
        simulate(net, bank, stimuli, derived, schedule, &config),
    ]
    .map(|run| run.expect("simulation"))
}

fn check(label: &str, net: &Fppn, obs: &Observables, expected: &str) {
    let actual = render(net, obs);
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("=== {label} ===\n{actual}=== end {label} ===");
    }
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "{label}: observable trace diverged from tests/golden/{label}.txt \
         (set GOLDEN_PRINT=1 to print the new trace)"
    );
}

#[test]
fn fig1_zero_delay_trace_is_pinned() {
    let (net, bank, ids) = fig1_network();
    // Same stimulus as the determinism suite: CoefB fires at 120 and 390 ms.
    let mut stimuli = Stimuli::new();
    stimuli.arrivals(
        ids.coef_b,
        SporadicTrace::new(vec![TimeQ::from_ms(120), TimeQ::from_ms(390)]),
    );
    // 4 hyperperiods of 200 ms.
    let horizon = TimeQ::from_ms(800);
    let mut behaviors = bank.instantiate();
    let run = run_zero_delay(&net, &mut behaviors, &stimuli, horizon, JobOrdering::MinRankFirst)
        .expect("fig1 reference run");
    check("fig1", &net, &run.observables, include_str!("golden/fig1.txt"));
}

/// The simulator must reproduce the *pinned* traces — not merely agree
/// with the reference of the same build — under every execution setting,
/// so a semantics drift in the rounds or the behavior replay cannot hide
/// behind a matching drift in the zero-delay executor.
#[test]
fn default_and_oracle_reproduce_golden_traces() {
    // Fig. 1, same stimulus as the pinned reference, 4 frames.
    {
        let (net, bank, ids) = fig1_network();
        let mut stimuli = Stimuli::new();
        stimuli.arrivals(
            ids.coef_b,
            SporadicTrace::new(vec![TimeQ::from_ms(120), TimeQ::from_ms(390)]),
        );
        let derived = derive_task_graph(&net, &fig1_wcet()).expect("derivable");
        let frames = 4;
        let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let base = SimConfig {
            frames,
            ..SimConfig::default()
        };
        for run in simulate_every_setting(&net, &bank, &stimuli, &derived, &schedule, base) {
            check("fig1", &net, &run.observables, include_str!("golden/fig1.txt"));
        }
    }
    // FFT pipeline, 3 frames.
    {
        let (net, bank, _) = fft_network();
        let derived = derive_task_graph(&net, &fft_wcet()).expect("derivable");
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let base = SimConfig {
            frames: 3,
            ..SimConfig::default()
        };
        let stimuli = Stimuli::new();
        for run in simulate_every_setting(&net, &bank, &stimuli, &derived, &schedule, base) {
            check("fft", &net, &run.observables, include_str!("golden/fft.txt"));
        }
    }
}

/// Adversarial-stimulus golden traces on the paper's Fig. 1 network: the
/// observable sequences under a boundary-aligned burst, a maximal-density
/// flood and an arrival-tie storm (seed-pinned) are snapshot-pinned, and
/// both execution settings — oracle seam and default memoized loop — must
/// reproduce them exactly. This extends the
/// uniform-stimulus snapshots above to the stimuli that actually sit on
/// the server-window edge cases.
#[test]
fn adversarial_traces_are_pinned_across_backends() {
    for (class, expected) in [
        (
            AdversarialClass::BoundaryBurst,
            include_str!("golden/fig1_boundary_burst.txt"),
        ),
        (
            AdversarialClass::MaxDensityFlood,
            include_str!("golden/fig1_max_density_flood.txt"),
        ),
        (
            AdversarialClass::ArrivalTieStorm,
            include_str!("golden/fig1_arrival_tie_storm.txt"),
        ),
    ] {
        let (net, bank, _) = fig1_network();
        let derived = derive_task_graph(&net, &fig1_wcet()).expect("derivable");
        let frames = 4u64;
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let stimuli = adversarial_stimuli(&net, &derived, horizon, class, 0x601D);
        let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let label = format!("fig1_{}", class.name());
        let base = SimConfig {
            frames,
            ..SimConfig::default()
        };
        for run in simulate_every_setting(&net, &bank, &stimuli, &derived, &schedule, base) {
            check(&label, &net, &run.observables, expected);
        }
    }
}

#[test]
fn fft_zero_delay_trace_is_pinned() {
    let (net, bank, _) = fft_network();
    // 3 hyperperiods (all FFT processes share the 200 ms period) of the
    // closed pipeline on its built-in test signal.
    let horizon = TimeQ::from_int(3) * TimeQ::from_ms(200);
    let mut behaviors = bank.instantiate();
    let run = run_zero_delay(
        &net,
        &mut behaviors,
        &Stimuli::new(),
        horizon,
        JobOrdering::MinRankFirst,
    )
    .expect("fft reference run");
    check("fft", &net, &run.observables, include_str!("golden/fft.txt"));
}
