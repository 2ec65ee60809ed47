//! The §V-B scalability motivation: "we encountered a too high code
//! generation overhead due to a long hyperperiod (40 s) (an online policy
//! subroutine handling a few thousands jobs explicitly)". This harness
//! sweeps the MagnDeclin period and random multirate networks, measures the
//! event-driven scheduler against the retained naive reference on the FMS
//! graph, and pushes synthetic layered DAGs to 100k jobs across every
//! heuristic.
//!
//! Flags (all optional):
//!
//! * `--synthetic-jobs N` — cap the synthetic sweep at `N` jobs
//!   (default 100000; CI smoke passes a small budget),
//! * `--budget-ms MS` — wall-clock guard: exit non-zero if the whole run
//!   exceeds `MS` milliseconds (default 0 = unlimited). An accidental
//!   O(n²) regression blows straight through any sane budget.
//! * `--workers N` — threads for the sharded data plane in the
//!   behavior sweep (`SimConfig::behavior_workers`) and the serve pool size
//!   (default 4; `0` skips the simulation sweeps entirely),
//! * `--sim-frames N` — schedule frames per simulation measurement
//!   (default 8; the ~100k-round tier scales this ×4),
//! * `--bench-reps N` — repetitions per simulation measurement; the
//!   **median** is reported (default 3 — single draws on a shared box are
//!   too noisy for the `bench_diff` regression gate),
//! * `--bench-json PATH` — where to write the machine-readable simulation
//!   measurements (default `BENCH_sim.json`; CI diffs this against the
//!   committed baseline with `bench_diff --relative-to seq_ms`).
//!
//! With `FPPN_ALLOC_STATS=1` and the `alloc-stats` feature, the bin also
//! reports heap-allocation counts for the steady-state round loop (the
//! zero-alloc claim of the SoA round engine), via a counting global
//! allocator — kept off by default so normal runs measure the real one.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fppn_apps::{
    fft_network, fft_wcet, fms_network, fms_sporadics, fms_wcet, random_workload,
    synthetic_fppn, synthetic_task_graph, FmsVariant, SyntheticFppnConfig,
    SyntheticGraphConfig, WorkloadConfig,
};
use fppn_sched::{list_schedule, list_schedule_naive, Heuristic};
use fppn_serve::{RunRequest, Server};
use fppn_sim::hotpath::simulate_oracle;
use fppn_sim::{
    clip_stimuli, simulate, tiled_sporadic_trace, CompileConfig, CompiledNetwork, SimConfig,
};
use fppn_taskgraph::derive_task_graph;

#[cfg(feature = "alloc-stats")]
#[global_allocator]
static ALLOC: fppn_bench::alloc_stats::CountingAlloc = fppn_bench::alloc_stats::CountingAlloc;

/// `FPPN_ALLOC_STATS=1`: count heap traffic of the steady-state round loop
/// on the FMS workload. After one warm-up compute the SoA `RoundEngine`
/// reuses its scratch buffers, so the per-iteration delta should be zero —
/// the same invariant the `alloc_zero` regression test pins.
#[cfg(feature = "alloc-stats")]
fn alloc_stats_report(frames: u64) {
    use fppn_bench::alloc_stats::{allocations, bytes_allocated};
    let (net, _, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let tables = fppn_sim::StaticTables::build(&net, &derived, &schedule);
    let stimuli = fppn_core::Stimuli::new();
    let cfg = SimConfig {
        frames,
        ..SimConfig::default()
    };
    let mut rounds = fppn_sim::hotpath::SeqRounds::new(&net, &stimuli, &derived, &tables, &cfg)
        .expect("round tables");
    let n = rounds.compute().expect("warm-up compute");
    let (a0, b0) = (allocations(), bytes_allocated());
    let iters = 10;
    for _ in 0..iters {
        rounds.compute().expect("steady-state compute");
    }
    let (da, db) = (allocations() - a0, bytes_allocated() - b0);
    println!(
        "\nalloc stats (FMS frames={frames}, {n} rounds/iter, {iters} steady-state iters): \
         {da} allocations, {db} bytes — expected 0/0"
    );
}

#[cfg(not(feature = "alloc-stats"))]
fn alloc_stats_report(_frames: u64) {
    println!(
        "\nFPPN_ALLOC_STATS=1 set, but the counting allocator is compiled out; \
         rebuild with `--features alloc-stats` to measure heap traffic"
    );
}

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

/// One serve control-plane measurement (schema 4): repeated runs through
/// the worker pool over one cached artifact. All metrics are
/// informational in `bench_diff` — none carry the gated `_ms` suffix.
struct ServeRecord {
    name: String,
    runs: usize,
    workers: usize,
    runs_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
    run_cache_hits: u64,
    compile: Duration,
    hit_lookup: Duration,
    cold_run: Duration,
    hit_run: Duration,
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
/// pipeline they measured).
fn write_bench_json(path: &str, records: &[BenchRecord], serve: &[ServeRecord]) {
    let opt_ms = |d: Option<Duration>| {
        d.map_or("null".to_owned(), |d| format!("{:.6}", d.as_secs_f64() * 1e3))
    };
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"fppn-bench-sim/6\",");
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
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"serve\": [");
    for (i, r) in serve.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"runs\": {}, \"workers\": {}, \
             \"serve_runs_per_sec\": {:.1}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"run_cache_hits\": {}, \
             \"compile_us\": {:.1}, \"hit_lookup_us\": {:.1}, \"cold_run_us\": {:.1}, \
             \"hit_run_us\": {:.1}}}",
            r.name,
            r.runs,
            r.workers,
            r.runs_per_sec,
            r.cache_hits,
            r.cache_misses,
            r.run_cache_hits,
            us(r.compile),
            us(r.hit_lookup),
            us(r.cold_run),
            us(r.hit_run),
        );
        out.push_str(if i + 1 < serve.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    match std::fs::write(path, &out) {
        Ok(()) => println!(
            "\nwrote {} simulation + {} serve measurements to {path}",
            records.len(),
            serve.len()
        ),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Runs `f` `reps` times and returns the last result with the **median**
/// wall time — the same outlier defense as the criterion shim, so the
/// `bench_diff` gate compares stable numbers instead of single draws.
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

/// The compile-once/run-many measurement: repeated runs through the
/// `fppn-serve` pool over one cached artifact, against the FMS and FFT
/// applications. The compile/hit-lookup/cold-run/hit-run timing split is
/// the point — a cache hit must skip the compile phase entirely (the
/// `compile_us` vs `hit_lookup_us` delta), and a run against the cached
/// artifact must cost run-phase work only (`cold_run_us` vs `hit_run_us`).
fn serve_sweep(workers: usize, reps: usize, records: &mut Vec<ServeRecord>) {
    println!("\nserve control plane (pool of {workers}, repeated runs over one cached artifact):");
    let (fms_net, fms_bank, fms_ids) = fms_network(FmsVariant::Original);
    let (fft_net, fft_bank, _) = fft_network();
    for (label, net, bank, ccfg, frames) in [
        (
            "serve/fms",
            fms_net,
            fms_bank,
            CompileConfig::new(fms_wcet(&fms_ids), 2),
            4u64,
        ),
        ("serve/fft", fft_net, fft_bank, CompileConfig::new(fft_wcet(), 2), 8),
    ] {
        let bank = Arc::new(bank);
        // Run cache on: the pool throughput batch below submits identical
        // requests, so all but the first resolve from the cross-run result
        // cache — the `run_cache_hits` column records exactly that.
        let server = Server::with_config(&fppn_serve::ServerConfig {
            workers,
            run_cache_entries: Some(64),
            ..fppn_serve::ServerConfig::default()
        });
        server.register_tenant("bench", 1_000_000);

        // The one compile (a cache miss), then pure-lookup hits.
        let (_, t_compile) =
            median_timed(reps, || CompiledNetwork::compile(net.clone(), &ccfg).expect("compiles"));
        let (artifact, t_hit_lookup) = median_timed(reps.max(3), || {
            server.cache().get_or_compile(&net, &ccfg).expect("compiles")
        });
        let cfg = SimConfig {
            frames,
            ..SimConfig::default()
        };
        // Cold run = compile + run; hit run = run against the artifact.
        let (_, t_cold_run) = median_timed(reps, || {
            CompiledNetwork::compile(net.clone(), &ccfg)
                .expect("compiles")
                .simulate(&bank, &fppn_core::Stimuli::new(), &cfg)
                .expect("cold run")
        });
        let (_, t_hit_run) = median_timed(reps, || {
            artifact
                .simulate(&bank, &fppn_core::Stimuli::new(), &cfg)
                .expect("hit run")
        });

        // Pool throughput: queue a batch, wait for all tickets.
        let runs = 8 * reps.max(2);
        let t0 = Instant::now();
        let tickets: Vec<_> = (0..runs)
            .map(|_| {
                let artifact = server.cache().get_or_compile(&net, &ccfg).expect("cache hit");
                server
                    .submit(
                        "bench",
                        RunRequest::new(
                            artifact,
                            Arc::clone(&bank),
                            fppn_core::Stimuli::new(),
                            cfg,
                        ),
                    )
                    .expect("within budget")
            })
            .collect();
        for t in tickets {
            t.wait().expect("pool run");
        }
        let wall = t0.elapsed();
        let runs_per_sec = runs as f64 / wall.as_secs_f64().max(1e-9);
        let run_cache_hits = server.run_cache().map_or(0, |c| c.hits());
        println!(
            "{label:<22} {runs:>3} runs | {runs_per_sec:>8.1} runs/s | compile {t_compile:>9.2?} vs hit lookup {t_hit_lookup:>9.2?} | cold run {t_cold_run:>9.2?} vs hit run {t_hit_run:>9.2?} | cache {}h/{}m | run-cache {run_cache_hits}h",
            server.cache().hits(),
            server.cache().misses(),
        );
        records.push(ServeRecord {
            name: label.to_owned(),
            runs,
            workers,
            runs_per_sec,
            cache_hits: server.cache().hits(),
            cache_misses: server.cache().misses(),
            run_cache_hits,
            compile: t_compile,
            hit_lookup: t_hit_lookup,
            cold_run: t_cold_run,
            hit_run: t_hit_run,
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
    let mut serve_records = Vec::new();
    if workers > 0 {
        simulation_sweep(workers, sim_frames, bench_reps, &mut records);
        behavior_sweep(workers, sim_frames.min(4), bench_reps, &mut records);
        serve_sweep(workers, bench_reps, &mut serve_records);
    }
    write_bench_json(&bench_json, &records, &serve_records);

    if std::env::var("FPPN_ALLOC_STATS").is_ok_and(|v| v == "1") {
        alloc_stats_report(sim_frames);
    }

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
