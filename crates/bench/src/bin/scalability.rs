//! The §V-B scalability motivation: "we encountered a too high code
//! generation overhead due to a long hyperperiod (40 s) (an online policy
//! subroutine handling a few thousands jobs explicitly)". This harness
//! sweeps the MagnDeclin period and random multirate networks, measures the
//! event-driven scheduler against the retained naive reference on the FMS
//! graph, and pushes synthetic layered DAGs to 100k jobs across every
//! heuristic. Its simulation sweeps time the oracle seam against the
//! default memoized run on FMS, and the sequential store against the
//! sharded data plane on behavior-heavy synthetic networks, checking
//! bit-identity on every run; their medians go to `BENCH_sim.json`, the
//! file CI's `bench_diff` gate compares with the committed baseline.
//!
//! Flags (all optional):
//!
//! * `--synthetic-jobs N` — cap the synthetic sweep at `N` jobs
//!   (default 100000; CI smoke passes a small budget),
//! * `--budget-ms MS` — wall-clock guard: exit non-zero if the whole run
//!   exceeds `MS` milliseconds (default 0 = unlimited). An accidental
//!   O(n²) regression blows straight through any sane budget.
//! * `--workers N` — threads for the sharded data plane in the
//!   behavior sweep (`SimConfig::behavior_workers`; default 4, `0` skips
//!   the simulation sweeps entirely),
//! * `--sim-frames N` — schedule frames per simulation measurement
//!   (default 8; the ~100k-round tier scales this ×4),
//! * `--bench-reps N` — repetitions per simulation measurement; the
//!   **median** is reported (default 3 — single draws on a shared box are
//!   too noisy for the `bench_diff` regression gate),
//! * `--bench-json PATH` — where to write the machine-readable simulation
//!   measurements (default `BENCH_sim.json`; CI diffs this against the
//!   committed baseline with `bench_diff --relative-to seq_ms`).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use fppn_apps::{
    fms_network, fms_sporadics, fms_wcet, random_workload, synthetic_fppn, synthetic_task_graph,
    FmsVariant, SyntheticFppnConfig, SyntheticGraphConfig, WorkloadConfig,
};
use fppn_sched::{list_schedule, list_schedule_naive, Heuristic};
use fppn_sim::hotpath::simulate_oracle;
use fppn_sim::{clip_stimuli, simulate, tiled_sporadic_trace, SimConfig};
use fppn_taskgraph::derive_task_graph;

/// One simulation measurement destined for `BENCH_sim.json`.
struct BenchRecord {
    name: String,
    rounds: usize,
    workers: usize,
    /// The reference wall-clock `bench_diff` scores every column against:
    /// the oracle seam's free-interleave loop in the round-loop sweep, the
    /// sequential store in the behavior sweep.
    seq: Duration,
    /// Wall-clock on the sharded data plane (`SimConfig::behavior_workers`);
    /// `None` where the sweep does not measure it.
    sharded: Option<Duration>,
    /// Wall-clock of the default run, frame memo included; `None` where
    /// the sweep does not measure it against the oracle seam.
    memo: Option<Duration>,
    memo_hits: u64,
    memo_misses: u64,
}

/// Hand-rolled JSON (no serde in the offline container): a stable shape
/// `bench_diff` parses to track the perf trajectory across commits
/// (schema `fppn-bench-sim/2` added `pipeline_ms`; `/3` added
/// `rounds_per_sec`, the sequential round-computation throughput; `/4`
/// adds the `serve` records — pool throughput, cache hit/miss counts and
/// the compile-vs-cache-hit timing split, all informational; `/5` adds
/// `memo_ms` (gated, like every `_ms` column) plus the informational
/// `memo_hits`/`memo_misses` frame-memo counters and the serve
/// `run_cache_hits` cross-run result-cache counter; `/6` drops `par_ms`
/// and `pipeline_ms` with the parallel round plane and the streaming
/// pipeline they measured; `/7` drops the ungated `serve` array, whose
/// requests perfbench's `serve-mix` measures end to end).
fn write_bench_json(path: &str, records: &[BenchRecord]) {
    let opt_ms = |d: Option<Duration>| {
        d.map_or("null".to_owned(), |d| format!("{:.6}", d.as_secs_f64() * 1e3))
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"fppn-bench-sim/7\",");
    let _ = writeln!(
        out,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(out, "  \"benches\": [");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"rounds\": {}, \"workers\": {}, \
             \"seq_ms\": {:.6}, \"sharded_ms\": {}, \
             \"memo_ms\": {}, \"memo_hits\": {}, \"memo_misses\": {}, \
             \"rounds_per_sec\": {:.1}}}",
            r.name,
            r.rounds,
            r.workers,
            r.seq.as_secs_f64() * 1e3,
            opt_ms(r.sharded),
            opt_ms(r.memo),
            r.memo_hits,
            r.memo_misses,
            r.rounds as f64 / r.seq.as_secs_f64().max(1e-9),
        );
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    match std::fs::write(path, &out) {
        Ok(()) => println!(
            "\nwrote {} simulation measurements to {path}",
            records.len()
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Runs `f` `reps` times and returns the last result with the **median**
/// wall time, so the `bench_diff` gate compares stable numbers instead of
/// single draws.
fn median_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed());
    }
    times.sort_unstable();
    (last.expect("reps >= 1"), times[times.len() / 2])
}

fn measure(label: &str, net: &fppn_core::Fppn, wcet: &fppn_taskgraph::WcetModel) {
    let t0 = Instant::now();
    let derived = derive_task_graph(net, wcet).expect("derivable");
    let t_derive = t0.elapsed();
    let t1 = Instant::now();
    let _schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let t_sched = t1.elapsed();
    // The online policy table: one round per (processor, job), i.e. every
    // job exactly once across the per-processor orders.
    let policy_rounds = derived.graph.job_count();
    println!(
        "{label:<28} H = {:>6} ms | {:>5} jobs {:>6} edges | derive {:>8.2?} schedule {:>8.2?} | policy table {:>5} rounds",
        derived.hyperperiod.to_f64(),
        derived.graph.job_count(),
        derived.graph.edge_count(),
        t_derive,
        t_sched,
        policy_rounds
    );
}

/// The event-driven scheduler vs the retained naive oracle on the FMS
/// H = 40 s graph: prints the measured speedup and cross-checks that both
/// paths emit bit-identical schedules.
fn fms_speedup_check() {
    let (net, _, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let t0 = Instant::now();
    let fast = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let t_fast = t0.elapsed();
    let t1 = Instant::now();
    let naive = list_schedule_naive(&derived.graph, 2, Heuristic::AlapEdf);
    let t_naive = t1.elapsed();
    assert_eq!(fast, naive, "event-driven and naive schedules diverged");
    println!(
        "\nFMS H=40s ({} jobs): event-driven {:.2?} vs naive {:.2?} — {:.1}x, schedules bit-identical",
        derived.graph.job_count(),
        t_fast,
        t_naive,
        t_naive.as_secs_f64() / t_fast.as_secs_f64().max(1e-9),
    );
}

/// The oracle seam's plain round loop vs the default memoized one on
/// multi-frame policy tables, with a bit-identity cross-check on every run
/// (the memo is only interesting if its output is *exactly* the plain
/// loop's).
///
/// Where sporadic stimuli are driven, they are **hyperperiod-tiled**
/// ([`tiled_sporadic_trace`]): every frame carries the same arrival
/// pattern relative to its own base, so frames are exact time-translates
/// and the `memo_ms` column measures real replay (hits), not a
/// sweep-specific fallback.
fn simulation_sweep(workers: usize, frames: u64, reps: usize, records: &mut Vec<BenchRecord>) {
    println!(
        "\nround loop (oracle seam vs default memoized run, median of {reps}, \
         bit-identity checked):"
    );
    let (net, bank, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    // Two frame tiers (the base count and 4x — at the default
    // --sim-frames 8 the large tier is ~100k rounds), each in two
    // stimulus regimes: `fms/` is the paper's steady periodic operation
    // (the sporadic configurators idle — every hyperperiod repeats, the
    // regime the frame memo targets), `fms-sporadic/` drives the seven
    // configurators with hyperperiod-tiled traces at density 400, so the
    // arrival-gate machinery is measured at full table scale too.
    for (label, prefix, density, frames) in [
        ("FMS H=40s", "fms", 0u32, frames),
        ("FMS H=40s (4x frames)", "fms", 0, frames * 4),
        ("FMS H=40s sporadic", "fms-sporadic", 400, frames),
        ("FMS H=40s sporadic 4x", "fms-sporadic", 400, frames * 4),
    ] {
        let mut stimuli = fppn_core::Stimuli::new();
        if density > 0 {
            for (i, sp) in fms_sporadics(&ids).into_iter().enumerate() {
                let ev = net.process(sp).event();
                stimuli.arrivals(
                    sp,
                    tiled_sporadic_trace(
                        ev.burst(),
                        ev.period(),
                        derived.hyperperiod,
                        frames,
                        density,
                        7 + i as u64,
                    ),
                );
            }
        }
        let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);
        for m in [2usize, 4] {
            let schedule = list_schedule(&derived.graph, m, Heuristic::AlapEdf);
            let cfg = SimConfig {
                frames,
                ..SimConfig::default()
            };
            let (seq, t_seq) = median_timed(reps, || {
                simulate_oracle(&net, &bank, &stimuli, &derived, &schedule, &cfg)
                    .expect("oracle simulation")
            });
            let (memo_run, t_memo) = median_timed(reps, || {
                simulate(&net, &bank, &stimuli, &derived, &schedule, &cfg)
                    .expect("default simulation")
            });
            assert_eq!(seq.records, memo_run.records, "memo records diverged");
            assert_eq!(
                seq.observables, memo_run.observables,
                "memo observables diverged"
            );
            // Hit/miss accounting comes from one extra rounds-only pass
            // (the full-run path keeps its scratch private).
            let tables = fppn_sim::StaticTables::build(&net, &derived, &schedule);
            let mut rounds =
                fppn_sim::hotpath::SeqRounds::new(&net, &stimuli, &derived, &tables, &cfg)
                    .expect("round tables");
            rounds.compute().expect("memo stats pass");
            let (memo_hits, memo_misses) = rounds.memo_stats();
            println!(
                "{label:<22} frames={frames:>3} procs={m} | {:>6} rounds | oracle {:>9.2?} | memo {:>9.2?} ({memo_hits}h/{memo_misses}m) | memo vs oracle {:.2}x",
                seq.records.len(),
                t_seq,
                t_memo,
                t_seq.as_secs_f64() / t_memo.as_secs_f64().max(1e-9),
            );
            records.push(BenchRecord {
                name: format!("{prefix}/frames{frames}/procs{m}"),
                rounds: seq.records.len(),
                workers,
                seq: t_seq,
                sharded: None,
                memo: Some(t_memo),
                memo_hits,
                memo_misses,
            });
        }
    }
}

/// The data-plane sweep: the behavior-heavy synthetic FPPN (generated
/// compute kernels) on the sequential store vs the sharded data plane at
/// `behavior_workers = workers` — bit-identity checked on every run. On
/// the FMS-style workloads above, behaviors are a few integer folds and
/// the data plane is noise; here it dominates. The sporadic entry turns on
/// the stimulus knobs so the server-slot machinery is in the hot loop too.
/// Both sides are default runs, so both include the frame memo.
fn behavior_sweep(workers: usize, frames: u64, reps: usize, records: &mut Vec<BenchRecord>) {
    println!(
        "\nbehavior-heavy data plane (seq vs sharded on {workers} threads, median of {reps}, \
         bit-identity checked):"
    );
    let shape = |jobs: usize, depth: usize| SyntheticGraphConfig {
        jobs,
        depth,
        seed: jobs as u64,
        ..SyntheticGraphConfig::default()
    };
    for (label, fppn_cfg) in [
        (
            "synthetic 48p light",
            SyntheticFppnConfig {
                shape: shape(48, 6),
                compute_iters: (500, 2_000),
                ..SyntheticFppnConfig::default()
            },
        ),
        (
            "synthetic 48p heavy",
            SyntheticFppnConfig {
                shape: shape(48, 6),
                compute_iters: (10_000, 40_000),
                ..SyntheticFppnConfig::default()
            },
        ),
        (
            "synthetic 120p heavy",
            SyntheticFppnConfig {
                shape: shape(120, 10),
                compute_iters: (10_000, 40_000),
                ..SyntheticFppnConfig::default()
            },
        ),
        (
            "synthetic 48p sporadic",
            SyntheticFppnConfig {
                shape: shape(48, 6),
                compute_iters: (5_000, 20_000),
                sporadic: 6,
                input_permille: 400,
                ..SyntheticFppnConfig::default()
            },
        ),
    ] {
        let w = synthetic_fppn(&fppn_cfg);
        let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
        let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
        let horizon = fppn_time::TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let stimuli = if fppn_cfg.sporadic > 0 {
            clip_stimuli(
                &w.net,
                &derived,
                &fppn_sim::random_stimuli(&w.net, horizon, 600, 99),
                frames,
            )
        } else {
            fppn_core::Stimuli::new()
        };
        let cfg = SimConfig {
            frames,
            ..SimConfig::default()
        };
        let (seq, t_seq) = median_timed(reps, || {
            simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &cfg)
                .expect("sequential simulation")
        });
        let (sharded, t_sharded) = median_timed(reps, || {
            simulate(
                &w.net,
                &w.bank,
                &stimuli,
                &derived,
                &schedule,
                &SimConfig {
                    behavior_workers: workers,
                    ..cfg
                },
            )
            .expect("sharded simulation")
        });
        assert_eq!(seq.records, sharded.records, "sharded records diverged");
        assert_eq!(
            seq.observables, sharded.observables,
            "sharded observables diverged"
        );
        println!(
            "{label:<22} frames={frames:>3} | {:>6} rounds | seq {:>9.2?} | sharded {:>9.2?} | sharded vs seq {:.2}x",
            seq.records.len(),
            t_seq,
            t_sharded,
            t_seq.as_secs_f64() / t_sharded.as_secs_f64().max(1e-9),
        );
        records.push(BenchRecord {
            name: format!("behavior-heavy/{}", label.replace(' ', "_")),
            rounds: seq.records.len(),
            workers,
            seq: t_seq,
            sharded: Some(t_sharded),
            memo: None,
            memo_hits: 0,
            memo_misses: 0,
        });
    }
}

fn synthetic_sweep(max_jobs: usize) {
    println!("\nsynthetic layered DAGs (jobs x shape x heuristic, 4 processors):");
    for &jobs in &[1_000usize, 10_000, 100_000] {
        if jobs > max_jobs {
            println!("  (skipping {jobs}-job tier: over --synthetic-jobs cap {max_jobs})");
            continue;
        }
        for (shape, cfg) in [
            ("deep-pipeline", SyntheticGraphConfig::deep_pipeline(jobs, jobs as u64)),
            ("fan-skewed", SyntheticGraphConfig::fan_skewed(jobs, jobs as u64 + 1)),
        ] {
            let t0 = Instant::now();
            let g = synthetic_task_graph(&cfg);
            let t_gen = t0.elapsed();
            for h in Heuristic::ALL {
                let t1 = Instant::now();
                let s = list_schedule(&g, 4, h);
                let t_sched = t1.elapsed();
                let busiest = s.processor_orders().iter().map(Vec::len).max().unwrap_or(0);
                println!(
                    "{:>7} jobs {:<13} {:<19} | gen {:>8.2?} | schedule {:>9.2?} | makespan {:>9} ms | busiest proc {:>6} jobs",
                    jobs,
                    shape,
                    h.to_string(),
                    t_gen,
                    t_sched,
                    s.makespan(&g).to_f64(),
                    busiest,
                );
            }
        }
    }
}

fn main() {
    let mut synthetic_jobs = 100_000usize;
    let mut budget_ms = 0u64;
    let mut workers = 4usize;
    let mut sim_frames = 8u64;
    let mut bench_reps = 3usize;
    let mut bench_json = "BENCH_sim.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--bench-json" {
            bench_json = args.next().expect("--bench-json needs a path argument");
            continue;
        }
        let mut grab = |name: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--synthetic-jobs" => synthetic_jobs = grab("--synthetic-jobs") as usize,
            "--budget-ms" => budget_ms = grab("--budget-ms"),
            "--workers" => workers = grab("--workers") as usize,
            "--sim-frames" => sim_frames = grab("--sim-frames").max(1),
            "--bench-reps" => bench_reps = grab("--bench-reps").max(1) as usize,
            other => panic!(
                "unknown flag {other}; known: --synthetic-jobs N, --budget-ms MS, \
                 --workers N, --sim-frames N, --bench-reps N, --bench-json PATH"
            ),
        }
    }
    let wall = Instant::now();

    println!("FMS hyperperiod sweep (the paper's 40 s -> 10 s reduction):");
    for (label, variant) in [
        ("FMS MagnDeclin 1600 ms", FmsVariant::Original),
        ("FMS MagnDeclin 400 ms", FmsVariant::Reduced),
    ] {
        let (net, _, ids) = fms_network(variant);
        measure(label, &net, &fms_wcet(&ids));
    }
    fms_speedup_check();

    println!("\nrandom multirate networks (periods x processes sweep):");
    for &periodic in &[5usize, 10, 20, 40] {
        for &max_period in &[400i64, 1600, 6400] {
            let cfg = WorkloadConfig {
                periodic,
                sporadic: periodic / 3,
                periods_ms: vec![100, 200, max_period / 2, max_period],
                seed: periodic as u64 * 1000 + max_period as u64,
                ..WorkloadConfig::default()
            };
            let w = random_workload(&cfg);
            let label = format!("random n={periodic} Tmax={max_period}");
            measure(&label, &w.net, &w.wcet);
        }
    }

    synthetic_sweep(synthetic_jobs);

    let mut records = Vec::new();
    if workers > 0 {
        simulation_sweep(workers, sim_frames, bench_reps, &mut records);
        behavior_sweep(workers, sim_frames.min(4), bench_reps, &mut records);
    }
    write_bench_json(&bench_json, &records);

    let elapsed = wall.elapsed();
    println!("\ntotal wall time: {elapsed:.2?}");
    if budget_ms > 0 && elapsed.as_millis() > budget_ms as u128 {
        eprintln!(
            "wall-clock budget exceeded: {elapsed:.2?} > {budget_ms} ms — \
             likely a scheduler complexity regression"
        );
        std::process::exit(1);
    }
}
