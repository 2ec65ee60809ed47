//! Deterministic chaos: a seed-pinned [`FaultPlan`] injects behavior
//! panics, artificial stalls and compile sabotage into a stream of runs
//! against a live [`Server`], and the suite asserts the containment
//! contract end to end:
//!
//! * every **non**-faulted run is bit-identical to a direct oracle run of
//!   the same artifact — faults in neighboring runs (even on the same
//!   worker's reused scratch) leak nothing;
//! * every injected fault surfaces as its matching typed error
//!   ([`RunError::Panicked`] / [`RunError::TimedOut`] / `CompileError`)
//!   and is counted in [`TenantStats`];
//! * the pool never shrinks ([`Server::workers_alive`]) and keeps serving
//!   clean runs after arbitrary fault sequences;
//! * backpressure ([`AdmissionError::QueueFull`]), shedding
//!   ([`RunError::Shed`]) and bounded retry behave as specified.
//!
//! The tentpole sweep crosses the pool sizes 1, 2 and 4 with both data
//! planes (`behavior_workers` 0 and 2) and with the run cache off and on,
//! so the containment contract is checked on the threaded plane and
//! through the cache, not just on the sequential store.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};

use fppn_core::{
    BehaviorBank, ChannelKind, EventSpec, Fppn, FppnBuilder, JobCtx, ProcessSpec, Stimuli, Value,
};
use fppn_serve::{
    AdmissionError, FaultKind, FaultPlan, FaultRates, RetryError, RetryPolicy, RunError,
    RunRequest, Server, ServerConfig,
};
use fppn_sim::{CompileConfig, SimConfig, SimRun};
use fppn_taskgraph::WcetModel;
use fppn_time::TimeQ;

/// What the victim process ("mid") does, beyond its clean function.
#[derive(Clone)]
enum MidMode {
    /// Normal deterministic transform.
    Clean,
    /// Panics on its third job — mid-run, after producing real state.
    Panic,
    /// Sleeps `millis` wall-clock milliseconds per job.
    Slow(u64),
    /// Spins until the gate opens (holds a pool worker hostage).
    Gated(Arc<AtomicBool>),
}

/// A 3-process FIFO chain src(50ms) → mid(50ms) → sink(100ms). The
/// network structure is identical for every [`MidMode`] — behaviors are
/// not part of the compile key, so all modes share one cached artifact.
fn chain(mode: &MidMode) -> (Fppn, BehaviorBank) {
    let ms = TimeQ::from_ms;
    let mut b = FppnBuilder::new();
    let src = b.process(ProcessSpec::new("src", EventSpec::periodic(ms(50))));
    let mid = b.process(ProcessSpec::new("mid", EventSpec::periodic(ms(50))));
    let sink = b.process(
        ProcessSpec::new("sink", EventSpec::periodic(ms(100))).with_output("out"),
    );
    let a = b.channel("a", src, mid, ChannelKind::Fifo);
    let c = b.channel("c", mid, sink, ChannelKind::Fifo);
    b.priority(src, mid);
    b.priority(mid, sink);
    b.behavior(src, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            ctx.write(a, Value::Int(ctx.k() as i64 * 13 % 97));
        })
    });
    let mode = mode.clone();
    b.behavior(mid, move || {
        let mode = mode.clone();
        Box::new(move |ctx: &mut JobCtx<'_>| {
            match &mode {
                MidMode::Clean => {}
                MidMode::Panic => {
                    if ctx.k() >= 3 {
                        panic!("injected fault (chaos)");
                    }
                }
                MidMode::Slow(millis) => std::thread::sleep(Duration::from_millis(*millis)),
                MidMode::Gated(gate) => {
                    // Bail out after ~5s so a buggy test can't deadlock
                    // the whole binary inside `Server::drop`.
                    for _ in 0..5000 {
                        if gate.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            let x = ctx.read(a).and_then(|v| v.as_int()).unwrap_or(0);
            ctx.write(c, Value::Int(2 * x + 1));
        })
    });
    b.behavior(sink, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            // 100 ms period vs 50 ms producer: drain both samples.
            let p = ctx.read(c).and_then(|v| v.as_int()).unwrap_or(-1);
            let q = ctx.read(c).and_then(|v| v.as_int()).unwrap_or(-1);
            ctx.write_output(fppn_core::PortId::from_index(0), Value::Int(p ^ (q << 1)));
        })
    });
    b.build().expect("chaos chain builds")
}

fn compile_cfg() -> CompileConfig {
    CompileConfig::new(WcetModel::uniform(TimeQ::from_ms(10)), 2)
}

fn sim_cfg() -> SimConfig {
    SimConfig {
        frames: 4,
        ..SimConfig::default()
    }
}

/// The data planes the tentpole sweep crosses with every pool size and
/// run-cache setting: the sequential store and the sharded plane.
const BEHAVIOR_WORKERS: [usize; 2] = [0, 2];

/// Run-cache settings of the sweep: off, and large enough to hold every
/// clean result. Hits must never mask an injected fault.
const RUN_CACHE_ENTRIES: [Option<usize>; 2] = [Some(0), Some(64)];

/// Worker-pool sizes of the sweep: one worker, and pools that run faulted
/// and clean runs side by side.
const POOL_SIZES: [usize; 3] = [1, 2, 4];

/// Suppress the default "thread panicked" stderr noise for *injected*
/// panics only; real panics still print. Installed once per test binary.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("injected"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains("injected"))
                })
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

fn assert_identical(expected: &SimRun, got: &SimRun, what: &str) {
    assert_eq!(expected.records, got.records, "{what}: records diverged");
    assert_eq!(expected.observables, got.observables, "{what}: observables diverged");
    assert_eq!(expected.stats, got.stats, "{what}: stats diverged");
}

/// The tentpole chaos sweep: a pinned fault schedule over a stream of
/// runs, per pool size × data plane × run-cache setting. Clean runs must
/// stay oracle-identical, every fault must surface typed and counted, and
/// the pool must survive all of it.
#[test]
fn injected_faults_are_contained_and_clean_runs_stay_bit_identical() {
    quiet_injected_panics();
    const RUNS: u64 = 30;
    let plan = FaultPlan::new(
        0xC0FFEE,
        FaultRates {
            panic_per_mille: 250,
            slow_per_mille: 150,
            compile_per_mille: 100,
            slow_min_ms: 20,
            slow_max_ms: 60,
        },
    );

    let (net, clean_bank) = chain(&MidMode::Clean);
    let (_, panic_bank) = chain(&MidMode::Panic);
    let clean_bank = Arc::new(clean_bank);
    let panic_bank = Arc::new(panic_bank);

    let sweep = POOL_SIZES.into_iter().flat_map(|pool| {
        BEHAVIOR_WORKERS.into_iter().flat_map(move |behavior_workers| {
            RUN_CACHE_ENTRIES
                .into_iter()
                .map(move |run_cache_entries| (pool, behavior_workers, run_cache_entries))
        })
    });
    for (pool, behavior_workers, run_cache_entries) in sweep {
        let server = Server::with_config(&ServerConfig {
            workers: pool,
            run_cache_entries,
            ..ServerConfig::default()
        });
        server.register_tenant("chaos", RUNS + 1);
        let artifact = server
            .cache()
            .get_or_compile(&net, &compile_cfg())
            .expect("clean compile");
        // The oracle: the same artifact run directly on the sequential
        // store, no pool involved.
        let oracle = artifact
            .simulate(&clean_bank, &Stimuli::new(), &sim_cfg())
            .expect("oracle run");
        let cfg = SimConfig {
            behavior_workers,
            ..sim_cfg()
        };
        let setup = format!(
            "pool {pool} behavior_workers {behavior_workers} run cache {run_cache_entries:?}"
        );

        let mut tickets = Vec::new();
        let (mut panics, mut slows, mut compile_faults, mut cleans) = (0u64, 0u64, 0u64, 0u64);
        for run in 0..RUNS {
            match plan.fault_for(run) {
                FaultKind::FailCompile => {
                    // Sabotaged compile: zero processors is structurally
                    // invalid. Typed error, nothing cached.
                    compile_faults += 1;
                    let before = server.cache().len();
                    let bad = CompileConfig::new(WcetModel::uniform(TimeQ::from_ms(10)), 0);
                    assert!(
                        server.cache().get_or_compile(&net, &bad).is_err(),
                        "run {run}: sabotaged compile must fail typed"
                    );
                    assert_eq!(
                        server.cache().len(),
                        before,
                        "run {run}: failed compile polluted the cache"
                    );
                }
                FaultKind::Panic => {
                    panics += 1;
                    let req = RunRequest::new(
                        Arc::clone(&artifact),
                        Arc::clone(&panic_bank),
                        Stimuli::new(),
                        cfg,
                    );
                    tickets.push((run, FaultKind::Panic, server.submit("chaos", req).unwrap()));
                }
                FaultKind::Slow { millis } => {
                    slows += 1;
                    // 8 mid jobs x >=20ms stall always overruns 100ms.
                    let (_, slow_bank) = chain(&MidMode::Slow(millis));
                    let req = RunRequest::new(
                        Arc::clone(&artifact),
                        Arc::new(slow_bank),
                        Stimuli::new(),
                        cfg,
                    )
                    .with_deadline(Duration::from_millis(100));
                    tickets.push((
                        run,
                        FaultKind::Slow { millis },
                        server.submit("chaos", req).unwrap(),
                    ));
                }
                FaultKind::None => {
                    cleans += 1;
                    let req = RunRequest::new(
                        Arc::clone(&artifact),
                        Arc::clone(&clean_bank),
                        Stimuli::new(),
                        cfg,
                    );
                    tickets.push((run, FaultKind::None, server.submit("chaos", req).unwrap()));
                }
            }
        }
        assert!(panics > 0 && slows > 0 && compile_faults > 0, "seed too tame");

        for (run, kind, ticket) in tickets {
            let what = format!("{setup} run {run} (seed {:#x})", plan.seed());
            match (kind, ticket.wait()) {
                (FaultKind::None, Ok(report)) => {
                    assert_identical(&oracle, &report.run, &what);
                }
                (FaultKind::Panic, Err(RunError::Panicked { message })) => {
                    assert!(message.contains("injected"), "{what}: payload lost: {message}");
                }
                (FaultKind::Slow { .. }, Err(RunError::TimedOut { budget, .. })) => {
                    assert_eq!(budget, Duration::from_millis(100), "{what}");
                }
                (kind, outcome) => {
                    panic!("{what}: fault {kind:?} produced {:?}", outcome.map(|r| r.deadline_misses))
                }
            }
            // Containment invariant, checked continuously: no fault ever
            // costs a worker.
            assert_eq!(server.workers_alive(), pool, "{what}: pool shrank");
        }

        let stats = server.tenant_stats("chaos").unwrap();
        assert_eq!(stats.admitted, RUNS - compile_faults, "{setup}");
        assert_eq!(stats.completed, stats.admitted, "{setup}: drain incomplete");
        assert_eq!(stats.panicked, panics, "{setup}");
        assert_eq!(stats.timed_out, slows, "{setup}");
        assert_eq!((stats.shed, stats.retried), (0, 0), "{setup}");
        // Every clean run shares one key. When clean run j is looked up, at
        // most `pool - 1` earlier ones are still in flight, so all but the
        // first `pool` clean runs must hit.
        if run_cache_entries == Some(0) {
            assert_eq!(stats.run_cache_hits, 0, "{setup}");
        } else {
            assert!(
                stats.run_cache_hits >= cleans.saturating_sub(pool as u64),
                "{setup}: {} hits over {cleans} clean runs",
                stats.run_cache_hits
            );
        }

        // Recoverability: the pool serves a pristine run after the storm.
        let req = RunRequest::new(
            Arc::clone(&artifact),
            Arc::clone(&clean_bank),
            Stimuli::new(),
            cfg,
        );
        let report = server.submit("chaos", req).unwrap().wait().expect("post-chaos run");
        assert_identical(&oracle, &report.run, &format!("{setup} post-chaos"));
        assert_eq!(server.workers_alive(), pool);
    }
}

/// Acceptance bound: a deadline-exceeding run must come back as
/// `TimedOut` within 2x its budget (pool of one, empty queue, so the
/// measurement is the run itself, not queueing).
#[test]
fn deadline_exceeding_run_times_out_within_twice_budget() {
    let (net, _) = chain(&MidMode::Clean);
    let (_, slow_bank) = chain(&MidMode::Slow(50));
    let server = Server::new(1);
    server.register_tenant("t", 4);
    let artifact = server.cache().get_or_compile(&net, &compile_cfg()).unwrap();
    let budget = Duration::from_millis(200);
    // 8 mid jobs x 50ms = 400ms of stalls against a 200ms budget.
    let req = RunRequest::new(artifact, Arc::new(slow_bank), Stimuli::new(), sim_cfg())
        .with_deadline(budget);
    let started = Instant::now();
    let outcome = server.submit("t", req).unwrap().wait();
    let wall = started.elapsed();
    match outcome {
        Err(RunError::TimedOut {
            budget: b,
            elapsed,
            completed_rounds,
        }) => {
            assert_eq!(b, budget);
            assert!(elapsed >= budget, "reported elapsed {elapsed:?} below budget");
            assert!(
                wall <= 2 * budget,
                "cancellation took {wall:?}, over 2x the {budget:?} budget"
            );
            assert!(completed_rounds > 0, "no progress before cancellation");
        }
        other => panic!("expected TimedOut, got {other:?}"),
    }
    assert_eq!(server.tenant_stats("t").unwrap().timed_out, 1);
}

/// Bounded queue: with the single worker held hostage and the queue at
/// capacity, the next submission is rejected with typed backpressure —
/// and consumes neither budget nor a slot.
#[test]
fn full_queue_rejects_with_typed_backpressure() {
    let gate = Arc::new(AtomicBool::new(false));
    let (net, _) = chain(&MidMode::Clean);
    let (_, gated_bank) = chain(&MidMode::Gated(Arc::clone(&gate)));
    let gated_bank = Arc::new(gated_bank);
    let server = Server::with_config(&ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    });
    server.register_tenant("t", 16);
    let artifact = server.cache().get_or_compile(&net, &compile_cfg()).unwrap();
    let req = || {
        RunRequest::new(
            Arc::clone(&artifact),
            Arc::clone(&gated_bank),
            Stimuli::new(),
            sim_cfg(),
        )
    };
    // First run is dequeued by the lone worker and blocks on the gate.
    let hostage = server.submit("t", req()).unwrap();
    while server.queued() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Two more fill the queue; the third bounces.
    let queued: Vec<_> = (0..2).map(|_| server.submit("t", req()).unwrap()).collect();
    let admitted_before = server.tenant_stats("t").unwrap().admitted;
    match server.submit("t", req()) {
        Err(AdmissionError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {:?}", other.map(|_| ())),
    }
    assert_eq!(
        server.tenant_stats("t").unwrap().admitted,
        admitted_before,
        "rejected submission consumed budget"
    );
    // Release the gate: everything drains clean.
    gate.store(true, Ordering::Release);
    assert!(hostage.wait().is_ok());
    for t in queued {
        assert!(t.wait().is_ok());
    }
}

/// Shed policy: a queued run whose deadline expires while waiting is
/// dropped without burning a worker on it.
#[test]
fn expired_queued_runs_are_shed() {
    let gate = Arc::new(AtomicBool::new(false));
    let (net, _) = chain(&MidMode::Clean);
    let (_, gated_bank) = chain(&MidMode::Gated(Arc::clone(&gate)));
    let server = Server::with_config(&ServerConfig {
        workers: 1,
        shed_expired: true,
        ..ServerConfig::default()
    });
    server.register_tenant("t", 4);
    let artifact = server.cache().get_or_compile(&net, &compile_cfg()).unwrap();
    let hostage = server
        .submit(
            "t",
            RunRequest::new(
                Arc::clone(&artifact),
                Arc::new(gated_bank),
                Stimuli::new(),
                sim_cfg(),
            ),
        )
        .unwrap();
    while server.queued() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Queue a run with a 1ms deadline, let it expire behind the hostage.
    let (_, clean_bank) = chain(&MidMode::Clean);
    let doomed = server
        .submit(
            "t",
            RunRequest::new(artifact, Arc::new(clean_bank), Stimuli::new(), sim_cfg())
                .with_deadline(Duration::from_millis(1)),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    gate.store(true, Ordering::Release);
    match doomed.wait() {
        Err(RunError::Shed { waited }) => {
            assert!(waited >= Duration::from_millis(1), "waited {waited:?}");
        }
        other => panic!("expected Shed, got {other:?}"),
    }
    assert!(hostage.wait().is_ok());
    assert_eq!(server.tenant_stats("t").unwrap().shed, 1);
}

/// Transient failures recover under bounded retry; the re-submissions are
/// visible in the tenant's `retried` counter.
#[test]
fn retry_recovers_from_transient_backpressure() {
    let gate = Arc::new(AtomicBool::new(false));
    let (net, _) = chain(&MidMode::Clean);
    let (_, gated_bank) = chain(&MidMode::Gated(Arc::clone(&gate)));
    let (_, clean_bank) = chain(&MidMode::Clean);
    let server = Server::with_config(&ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    server.register_tenant("t", 16);
    let artifact = server.cache().get_or_compile(&net, &compile_cfg()).unwrap();
    // Hostage occupies the worker; one more fills the 1-slot queue.
    let hostage = server
        .submit(
            "t",
            RunRequest::new(
                Arc::clone(&artifact),
                Arc::new(gated_bank),
                Stimuli::new(),
                sim_cfg(),
            ),
        )
        .unwrap();
    while server.queued() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let filler = server
        .submit(
            "t",
            RunRequest::new(
                Arc::clone(&artifact),
                Arc::new(clean_bank),
                Stimuli::new(),
                sim_cfg(),
            ),
        )
        .unwrap();
    // Release the gate shortly; until then, submissions bounce QueueFull.
    let opener = std::thread::spawn({
        let gate = Arc::clone(&gate);
        move || {
            std::thread::sleep(Duration::from_millis(20));
            gate.store(true, Ordering::Release);
        }
    });
    let (_, retry_bank) = chain(&MidMode::Clean);
    let req = RunRequest::new(artifact, Arc::new(retry_bank), Stimuli::new(), sim_cfg());
    let policy = RetryPolicy {
        max_retries: 8,
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(40),
    };
    let report = server
        .run_with_retry("t", &req, &policy)
        .expect("retry rides out the transient full queue");
    assert_eq!(report.deadline_misses, report.run.stats.deadline_misses);
    assert!(hostage.wait().is_ok());
    assert!(filler.wait().is_ok());
    opener.join().unwrap();
    let stats = server.tenant_stats("t").unwrap();
    assert!(stats.retried >= 1, "recovery involved no visible retry");
}

/// Fatal failures are not retried: a panicking behavior and an exhausted
/// budget both return immediately without drawing more budget.
#[test]
fn fatal_failures_are_not_retried() {
    quiet_injected_panics();
    let (net, _) = chain(&MidMode::Clean);
    let (_, panic_bank) = chain(&MidMode::Panic);
    let (_, clean_bank) = chain(&MidMode::Clean);
    let server = Server::new(1);
    server.register_tenant("t", 2);
    let artifact = server.cache().get_or_compile(&net, &compile_cfg()).unwrap();
    let policy = RetryPolicy::default();

    // A deterministic panic is fatal on the first attempt.
    let req = RunRequest::new(
        Arc::clone(&artifact),
        Arc::new(panic_bank),
        Stimuli::new(),
        sim_cfg(),
    );
    match server.run_with_retry("t", &req, &policy) {
        Err(RetryError::Fatal(failure)) => {
            assert!(!failure.is_transient());
            assert!(failure.to_string().contains("panicked"), "{failure}");
        }
        other => panic!("expected Fatal, got {:?}", other.map(|_| ()).map_err(|e| e.to_string())),
    }

    // Budget: 1 of 2 spent above; spend the second, then retry must fail
    // fatally (BudgetExhausted) after exactly one attempt.
    let clean = RunRequest::new(artifact, Arc::new(clean_bank), Stimuli::new(), sim_cfg());
    server.submit("t", clean.clone()).unwrap().wait().unwrap();
    match server.run_with_retry("t", &clean, &policy) {
        Err(RetryError::Fatal(failure)) => {
            assert!(failure.to_string().contains("budget"), "{failure}");
        }
        other => panic!("expected Fatal, got {:?}", other.map(|_| ()).map_err(|e| e.to_string())),
    }
    let stats = server.tenant_stats("t").unwrap();
    assert_eq!(stats.retried, 0, "fatal failures must not be retried");
    assert_eq!(stats.admitted, 2);
}
