//! The §V-B avionics experiment (Fig. 7): derive, analyze, schedule and
//! simulate the Flight Management System subsystem with random pilot
//! commands, then run it on the real multi-threaded runtime.
//!
//! Run with: `cargo run --example fms_avionics`

use fppn::apps::{fms_network, fms_sporadics, fms_wcet, FmsVariant};
use fppn::core::{run_zero_delay, JobOrdering};
use fppn::runtime::{run_threaded, RuntimeConfig};
use fppn::sched::{list_schedule, min_processors, Heuristic};
use fppn::sim::{
    clip_stimuli, random_sporadic_trace, simulate, CompileConfig, CompiledNetwork, SimConfig,
};
use fppn::taskgraph::{derive_task_graph, load};
use fppn::time::TimeQ;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (net, bank, ids) = fms_network(FmsVariant::Reduced);
    let wcet = fms_wcet(&ids);
    let derived = derive_task_graph(&net, &wcet)?;
    let l = load(&derived.graph);
    println!(
        "FMS: {} processes; H = {} s; {} jobs, {} edges (unreduced {}); load = {:.4}",
        net.process_count(),
        (derived.hyperperiod / TimeQ::from_secs(1)).to_f64(),
        derived.graph.job_count(),
        derived.graph.edge_count(),
        derived.graph.edge_count() + derived.reduced_edges,
        l.load.to_f64()
    );

    // Pilot commands: random sporadic arrivals over two hyperperiods.
    let frames = 2;
    let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
    let mut stimuli = fppn::core::Stimuli::new();
    for (i, sp) in fms_sporadics(&ids).into_iter().enumerate() {
        let ev = net.process(sp).event();
        stimuli.arrivals(
            sp,
            random_sporadic_trace(ev.burst(), ev.period(), horizon, 300, 42 + i as u64),
        );
    }
    let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);

    // "a single-processor mapping encountered no deadline misses."
    let schedule1 = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
    let run1 = simulate(
        &net,
        &bank,
        &stimuli,
        &derived,
        &schedule1,
        &SimConfig {
            frames,
            ..SimConfig::default()
        },
    )?;
    println!(
        "1 processor: {} jobs executed, {} slots skipped, {} deadline misses",
        run1.stats.executed, run1.stats.skipped, run1.stats.deadline_misses
    );

    // "we still generated schedules for different number of processors."
    for m in 2..=4usize {
        let s = list_schedule(&derived.graph, m, Heuristic::AlapEdf);
        let feasible = s.check_feasible(&derived.graph).is_ok();
        println!(
            "{m} processors: makespan {} ms, feasible = {feasible}",
            s.makespan(&derived.graph)
        );
    }

    // Determinism across platforms: zero-delay vs simulator vs threads.
    let mut behaviors = bank.instantiate();
    let reference = run_zero_delay(&net, &mut behaviors, &stimuli, horizon, JobOrdering::default())?;
    assert_eq!(run1.observables.diff(&reference.observables), None);
    let artifact2 = CompiledNetwork::compile(net, &CompileConfig::new(wcet, 2))?;
    let threaded = run_threaded(
        &artifact2,
        &bank,
        &stimuli,
        &RuntimeConfig {
            frames,
            us_per_ms: 0,
        },
    )?;
    assert_eq!(threaded.observables.diff(&reference.observables), None);
    println!("determinism: zero-delay == simulator(1 proc) == threads(2 procs) ✓");

    // Minimal processor count per Prop. 3.1 + the heuristic portfolio.
    if let Some((m, _, h)) = min_processors(&derived.graph, &Heuristic::ALL, 4) {
        println!("minimum processors for a feasible static schedule: {m} (via {h})");
    }

    // A glimpse of the flight outputs.
    let fuel = reference
        .observables
        .outputs
        .iter()
        .find(|((p, _), _)| *p == ids.performance)
        .map(|(_, v)| v)
        .expect("fuel output");
    println!(
        "fuel prediction over {} s: {:.1} kg -> {:.1} kg",
        (horizon / TimeQ::from_secs(1)).to_f64(),
        fuel.first().and_then(|(_, v)| v.as_float()).unwrap_or(0.0),
        fuel.last().and_then(|(_, v)| v.as_float()).unwrap_or(0.0),
    );
    Ok(())
}
