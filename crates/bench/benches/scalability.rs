//! Scalability of the compile-time tool-chain vs hyperperiod and network
//! size — the §V-B code-generation-cost motivation, measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fppn_apps::{
    fms_network, fms_wcet, random_workload, synthetic_fppn, synthetic_task_graph, FmsVariant,
    SyntheticFppnConfig, SyntheticGraphConfig, WorkloadConfig,
};
use fppn_sched::{list_schedule, Heuristic};
use fppn_sim::hotpath::simulate_oracle;
use fppn_sim::{simulate, SimConfig};
use fppn_taskgraph::derive_task_graph;

fn fms_hyperperiod_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("fms_hyperperiod");
    g.sample_size(10);
    for (label, variant) in [("H40s", FmsVariant::Original), ("H10s", FmsVariant::Reduced)] {
        let (net, _, ids) = fms_network(variant);
        let wcet = fms_wcet(&ids);
        g.bench_with_input(BenchmarkId::new("derive", label), &net, |b, net| {
            b.iter(|| derive_task_graph(net, &wcet).unwrap().graph.job_count())
        });
        let derived = derive_task_graph(&net, &wcet).unwrap();
        g.bench_with_input(
            BenchmarkId::new("schedule_2procs", label),
            &derived,
            |b, d| b.iter(|| list_schedule(&d.graph, 2, Heuristic::AlapEdf)),
        );
    }
    g.finish();
}

fn random_network_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("random_networks");
    g.sample_size(10);
    for &n in &[8usize, 16, 32] {
        let w = random_workload(&WorkloadConfig {
            periodic: n,
            sporadic: n / 4,
            seed: n as u64,
            ..WorkloadConfig::default()
        });
        g.bench_with_input(BenchmarkId::new("derive", n), &w, |b, w| {
            b.iter(|| derive_task_graph(&w.net, &w.wcet).unwrap().graph.job_count())
        });
        let derived = derive_task_graph(&w.net, &w.wcet).unwrap();
        g.bench_with_input(BenchmarkId::new("schedule_4procs", n), &derived, |b, d| {
            b.iter(|| list_schedule(&d.graph, 4, Heuristic::AlapEdf))
        });
    }
    g.finish();
}

fn synthetic_graph_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("synthetic_graphs");
    g.sample_size(10);
    for &jobs in &[1_000usize, 10_000] {
        for (shape, cfg) in [
            ("pipeline", SyntheticGraphConfig::deep_pipeline(jobs, jobs as u64)),
            ("fanskew", SyntheticGraphConfig::fan_skewed(jobs, jobs as u64 + 1)),
        ] {
            let graph = synthetic_task_graph(&cfg);
            for h in Heuristic::ALL {
                let id = BenchmarkId::new(format!("{shape}_{h}"), jobs);
                g.bench_with_input(id, &graph, |b, graph| {
                    b.iter(|| list_schedule(graph, 4, h))
                });
            }
        }
    }
    g.finish();
}

/// The round loop on the FMS policy table: `seq` is the oracle seam's
/// plain loop, `memo` the default run, which replays repeated frames.
fn simulation_backend_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulation_backends");
    g.sample_size(10);
    let (net, bank, ids) = fms_network(FmsVariant::Reduced);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).unwrap();
    let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let stimuli = fppn_core::Stimuli::new();
    for frames in [2u64, 8] {
        let cfg = SimConfig {
            frames,
            ..SimConfig::default()
        };
        g.bench_with_input(BenchmarkId::new("seq", frames), &cfg, |b, cfg| {
            b.iter(|| {
                simulate_oracle(&net, &bank, &stimuli, &derived, &schedule, cfg)
                    .unwrap()
                    .records
                    .len()
            })
        });
        g.bench_with_input(BenchmarkId::new("memo", frames), &cfg, |b, cfg| {
            b.iter(|| {
                simulate(&net, &bank, &stimuli, &derived, &schedule, cfg)
                    .unwrap()
                    .records
                    .len()
            })
        });
    }
    g.finish();
}

/// The sharded data plane on the workload it exists for: behavior-heavy
/// synthetic FPPNs whose generated kernels dominate the simulation.
fn behavior_plane_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("behavior_plane");
    g.sample_size(10);
    let w = synthetic_fppn(&SyntheticFppnConfig {
        shape: SyntheticGraphConfig {
            jobs: 48,
            depth: 6,
            seed: 48,
            ..SyntheticGraphConfig::default()
        },
        compute_iters: (5_000, 20_000),
        ..SyntheticFppnConfig::default()
    });
    let derived = derive_task_graph(&w.net, &w.wcet).unwrap();
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let stimuli = fppn_core::Stimuli::new();
    let seq = SimConfig {
        frames: 4,
        ..SimConfig::default()
    };
    let sharded = SimConfig {
        behavior_workers: 4,
        ..seq
    };
    for (label, cfg) in [("seq", seq), ("sharded4", sharded)] {
        g.bench_with_input(BenchmarkId::new(label, 48), &cfg, |b, cfg| {
            b.iter(|| {
                simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, cfg)
                    .unwrap()
                    .records
                    .len()
            })
        });
    }
    g.finish();
}

criterion_group!(
    scalability,
    fms_hyperperiod_sweep,
    random_network_sweep,
    synthetic_graph_sweep,
    simulation_backend_sweep,
    behavior_plane_sweep
);
criterion_main!(scalability);
