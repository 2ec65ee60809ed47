//! The multi-threaded shared-memory runtime (the §V "runtime environment
//! for shared-memory multiprocessors", deployed by the paper to Linux and
//! MPPA).
//!
//! One OS thread per (virtual) processor executes its static-order round
//! list; rounds synchronize on real condition variables — *Synchronize
//! Invocation* (optionally paced by a scaled wall clock) and *Synchronize
//! Precedence* (waiting for predecessor completion flags), then *Execute*.
//! Unlike the discrete-event simulator, interleavings here are decided by
//! the OS scheduler: running the same application many times under load
//! and observing identical outputs is a genuine end-to-end test of the
//! FPPN determinism claim on true concurrency.

use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fppn_core::{
    BehaviorBank, ExecError, Fppn, JobCtx, NetworkError, Observables, Stimuli,
};
use fppn_sched::StaticSchedule;
use fppn_taskgraph::{wrap_predecessors, DerivedTaskGraph, RoundResolution};
use parking_lot::{Condvar, Mutex};

use crate::store::{ConcurrentStore, StoreAccess};

/// Threaded-runtime parameters.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Number of schedule frames to execute.
    pub frames: u64,
    /// Wall-clock pacing: microseconds of real time per model millisecond.
    /// `0` runs as fast as synchronization allows (pure protocol check);
    /// a positive value makes workers sleep until each job's scaled
    /// invocation time, exercising realistic interleavings.
    pub us_per_ms: u32,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            frames: 1,
            us_per_ms: 0,
        }
    }
}

/// The result of a threaded execution.
#[derive(Debug)]
pub struct RuntimeRun {
    /// Observable value sequences; must equal the zero-delay reference.
    pub observables: Observables,
    /// Jobs executed.
    pub executed: usize,
    /// Server slots skipped as false.
    pub skipped: usize,
}

/// Errors from the threaded runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The stimuli are inconsistent with the network.
    Network(NetworkError),
    /// A behavior failed on some worker.
    Exec(ExecError),
    /// A behavior or a worker thread panicked.
    WorkerPanicked,
    /// The [`RuntimeConfig`] is unusable, e.g. a frame count whose round
    /// table cannot be held. Raised before any worker starts.
    InvalidConfig(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Network(e) => write!(f, "invalid stimuli: {e}"),
            RuntimeError::Exec(e) => write!(f, "behavior failed: {e}"),
            RuntimeError::WorkerPanicked => write!(f, "a behavior or worker thread panicked"),
            RuntimeError::InvalidConfig(msg) => write!(f, "invalid runtime config: {msg}"),
        }
    }
}

impl Error for RuntimeError {}

impl From<NetworkError> for RuntimeError {
    fn from(e: NetworkError) -> Self {
        RuntimeError::Network(e)
    }
}

/// Completion flags for every round, shared across workers.
struct DoneTable {
    flags: Mutex<Vec<bool>>,
    cv: Condvar,
}

impl DoneTable {
    fn new(len: usize) -> Self {
        DoneTable {
            flags: Mutex::new(vec![false; len]),
            cv: Condvar::new(),
        }
    }

    fn mark(&self, idx: usize) {
        let mut flags = self.flags.lock();
        flags[idx] = true;
        self.cv.notify_all();
    }

    fn wait_all(&self, idxs: &[usize]) {
        let mut flags = self.flags.lock();
        while !idxs.iter().all(|&i| flags[i]) {
            self.cv.wait(&mut flags);
        }
    }
}

/// Executes `config.frames` frames of the static-order policy on real
/// threads (one per processor of the schedule).
///
/// # Errors
///
/// Returns [`RuntimeError`] on invalid stimuli, an unholdable frame
/// count, behavior failures, or a panicking behavior or worker. A failed
/// or panicking job stops every later job from executing, but each worker
/// still marks its rounds done, so no peer waits forever.
pub fn run_threaded(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    derived: &DerivedTaskGraph,
    schedule: &StaticSchedule,
    config: &RuntimeConfig,
) -> Result<RuntimeRun, RuntimeError> {
    stimuli.validate(net)?;
    let graph = &derived.graph;
    let n_jobs = graph.job_count();
    let frames = config.frames;
    let m_procs = schedule.processors();
    let resolution = RoundResolution::resolve(net, derived, stimuli, frames)
        .map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
    let wraps = wrap_predecessors(net, derived);
    let proc_orders: Vec<Vec<fppn_taskgraph::JobId>> =
        (0..m_procs).map(|m| schedule.processor_order(m)).collect();

    let store = ConcurrentStore::new(net, stimuli.clone());
    let done = DoneTable::new(frames as usize * n_jobs);
    let behaviors: Vec<Mutex<fppn_core::BoxedBehavior>> =
        bank.instantiate().into_iter().map(Mutex::new).collect();
    let first_error: Mutex<Option<ExecError>> = Mutex::new(None);
    let panicked = AtomicBool::new(false);
    let executed = Mutex::new(0usize);
    let skipped = Mutex::new(0usize);
    let epoch = Instant::now();

    let round_idx = |frame: u64, job: fppn_taskgraph::JobId| -> usize {
        frame as usize * n_jobs + job.index()
    };

    let worker = |m: usize| {
        for frame in 0..frames {
            for &job_id in &proc_orders[m] {
                let res = resolution.get(frame, job_id);
                // Synchronize Precedence: same-frame predecessors plus
                // wrap-around predecessors from the previous frame.
                let mut deps: Vec<usize> = graph
                    .predecessors(job_id)
                    .map(|p| round_idx(frame, p))
                    .collect();
                if frame > 0 {
                    deps.extend(wraps[job_id.index()].iter().map(|&p| round_idx(frame - 1, p)));
                }
                done.wait_all(&deps);

                let failed = panicked.load(Ordering::SeqCst) || first_error.lock().is_some();
                if res.executable && !failed {
                    // Synchronize Invocation: pace by the scaled clock.
                    if config.us_per_ms > 0 {
                        let target_us =
                            res.invoked_at * fppn_time::TimeQ::from_int(config.us_per_ms as i64);
                        let target = Duration::from_micros(target_us.to_f64().max(0.0) as u64);
                        let now = epoch.elapsed();
                        if target > now {
                            std::thread::sleep(target - now);
                        }
                    }
                    // Execute.
                    let pid = graph.job(job_id).process;
                    let k = store.next_k(pid);
                    let mut access = StoreAccess::new(&store);
                    let mut ctx = JobCtx::new(&mut access, pid, k, res.invoked_at);
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        behaviors[pid.index()].lock().on_job(&mut ctx)
                    }));
                    match result {
                        Ok(Ok(())) => *executed.lock() += 1,
                        Ok(Err(e)) => {
                            let mut slot = first_error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                        }
                        Err(_) => panicked.store(true, Ordering::SeqCst),
                    }
                } else if !res.executable {
                    *skipped.lock() += 1;
                }
                done.mark(round_idx(frame, job_id));
            }
        }
    };

    let worker_died = std::thread::scope(|s| {
        let handles: Vec<_> = (0..m_procs).map(|m| s.spawn(move || worker(m))).collect();
        // Join every handle: `any` would stop at the first dead worker.
        handles
            .into_iter()
            .fold(false, |died, h| h.join().is_err() | died)
    });

    if worker_died || panicked.into_inner() {
        return Err(RuntimeError::WorkerPanicked);
    }
    if let Some(e) = first_error.into_inner() {
        return Err(RuntimeError::Exec(e));
    }
    Ok(RuntimeRun {
        observables: store.observables(),
        executed: executed.into_inner(),
        skipped: skipped.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{
        run_zero_delay, ChannelKind, EventSpec, FppnBuilder, JobOrdering, PortId, ProcessSpec,
        SporadicTrace, Value,
    };
    use fppn_sched::{list_schedule, Heuristic};
    use fppn_taskgraph::{derive_task_graph, WcetModel};
    use fppn_time::TimeQ;

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    /// Three-stage pipeline with a side sporadic configurator.
    fn app() -> (Fppn, BehaviorBank, fppn_core::ProcessId) {
        let mut b = FppnBuilder::new();
        let src = b.process(ProcessSpec::new("src", EventSpec::periodic(ms(100))));
        let mid = b.process(ProcessSpec::new("mid", EventSpec::periodic(ms(100))));
        let dst = b.process(ProcessSpec::new("dst", EventSpec::periodic(ms(200))).with_output("o"));
        let cfg = b.process(ProcessSpec::new("cfg", EventSpec::sporadic(2, ms(400))));
        let c1 = b.channel("c1", src, mid, ChannelKind::Fifo);
        let c2 = b.channel("c2", mid, dst, ChannelKind::Fifo);
        let cc = b.channel("cc", cfg, mid, ChannelKind::Blackboard);
        b.priority(src, mid);
        b.priority(mid, dst);
        b.priority(cfg, mid);
        b.behavior(src, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| ctx.write(c1, Value::Int(ctx.k() as i64)))
        });
        b.behavior(cfg, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| ctx.write(cc, Value::Int(1000 * ctx.k() as i64)))
        });
        b.behavior(mid, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                let gain = ctx.read_value(cc).as_int().unwrap_or(1);
                if let Some(Value::Int(v)) = ctx.read(c1) {
                    ctx.write(c2, Value::Int(v * gain));
                }
            })
        });
        b.behavior(dst, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                let a = ctx.read_value(c2);
                let b = ctx.read_value(c2);
                ctx.write_output(PortId::from_index(0), Value::List(vec![a, b]));
            })
        });
        let (net, bank) = b.build().unwrap();
        (net, bank, cfg)
    }

    #[test]
    fn threaded_matches_zero_delay_on_multiple_processors() {
        let (net, bank, cfg) = app();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let frames = 4;
        let mut stimuli = Stimuli::new();
        stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(30), ms(450)]));
        let stimuli = fppn_sim_clip(&net, &derived, &stimuli, frames);

        let mut behaviors = bank.instantiate();
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let reference =
            run_zero_delay(&net, &mut behaviors, &stimuli, horizon, JobOrdering::default())
                .unwrap();

        for m in 1..=3 {
            let schedule = list_schedule(&derived.graph, m, Heuristic::AlapEdf);
            // Repeat several times: OS interleavings vary, outputs must not.
            for rep in 0..10 {
                let run = run_threaded(
                    &net,
                    &bank,
                    &stimuli,
                    &derived,
                    &schedule,
                    &RuntimeConfig {
                        frames,
                        us_per_ms: 0,
                    },
                )
                .unwrap();
                assert_eq!(
                    run.observables.diff(&reference.observables),
                    None,
                    "procs {m} rep {rep}"
                );
            }
        }
    }

    #[test]
    fn paced_execution_also_matches() {
        let (net, bank, cfg) = app();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let frames = 2;
        let mut stimuli = Stimuli::new();
        stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(30)]));
        let stimuli = fppn_sim_clip(&net, &derived, &stimuli, frames);
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let run = run_threaded(
            &net,
            &bank,
            &stimuli,
            &derived,
            &schedule,
            &RuntimeConfig {
                frames,
                us_per_ms: 20, // 400 model-ms ≈ 8 real ms
            },
        )
        .unwrap();
        let mut behaviors = bank.instantiate();
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let reference =
            run_zero_delay(&net, &mut behaviors, &stimuli, horizon, JobOrdering::default())
                .unwrap();
        assert_eq!(run.observables.diff(&reference.observables), None);
        assert!(run.executed > 0);
    }

    /// Local re-implementation of `fppn_sim::clip_stimuli` to avoid a dev
    /// dependency cycle: drops sporadic arrivals not covered by the
    /// simulated frames.
    fn fppn_sim_clip(
        net: &Fppn,
        derived: &fppn_taskgraph::DerivedTaskGraph,
        stimuli: &Stimuli,
        frames: u64,
    ) -> Stimuli {
        let mut clipped = stimuli.clone();
        let end = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        for pid in net.process_ids() {
            if let Some(server) = derived.server(pid) {
                let last = end - server.period;
                let keep: Vec<TimeQ> = stimuli
                    .arrival_times(pid)
                    .iter()
                    .copied()
                    .filter(|&t| if server.priority_over_user { t <= last } else { t < last })
                    .collect();
                clipped.arrivals(pid, keep.into_iter().collect());
            }
        }
        clipped
    }

    #[test]
    fn behavior_error_is_propagated() {
        let mut b = FppnBuilder::new();
        let p = b.process(ProcessSpec::new("p", EventSpec::periodic(ms(100))));
        // An automaton that is stuck immediately.
        let a = std::sync::Arc::new(
            fppn_core::automaton::Automaton::builder("stuck")
                .location("l0")
                .location("dead")
                .transition(0, None, vec![], 1)
                .build(),
        );
        b.behavior(p, move || {
            Box::new(fppn_core::automaton::AutomatonBehavior::new(a.clone()))
        });
        let (net, bank) = b.build().unwrap();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
        let err = run_threaded(
            &net,
            &bank,
            &Stimuli::new(),
            &derived,
            &schedule,
            &RuntimeConfig::default(),
        );
        assert!(matches!(err, Err(RuntimeError::Exec(_))));
    }

    /// A network whose `writer` panics from its second job on, feeding a
    /// `reader` over a FIFO.
    fn panicking_writer() -> (Fppn, BehaviorBank) {
        let mut b = FppnBuilder::new();
        let writer = b.process(ProcessSpec::new("writer", EventSpec::periodic(ms(100))));
        let reader = b.process(ProcessSpec::new("reader", EventSpec::periodic(ms(100))));
        let c = b.channel("c", writer, reader, ChannelKind::Fifo);
        b.priority(writer, reader);
        b.behavior(writer, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                assert!(ctx.k() < 2, "writer test panic");
                ctx.write(c, Value::Int(ctx.k() as i64));
            })
        });
        b.behavior(reader, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                let _ = ctx.read(c);
            })
        });
        b.build().unwrap()
    }

    #[test]
    fn behavior_panic_on_one_processor_is_reported() {
        let (net, bank) = panicking_writer();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
        let config = RuntimeConfig {
            frames: 4,
            us_per_ms: 0,
        };
        let outcome = run_threaded(&net, &bank, &Stimuli::new(), &derived, &schedule, &config);
        assert!(
            matches!(outcome, Err(RuntimeError::WorkerPanicked)),
            "{:?}",
            outcome.map(|run| run.executed)
        );
    }

    /// The panicking writer on processor 0 and its reader on processor 1:
    /// the reader's next round waits on the writer's done flag, which a
    /// panicking job must still set. Run on a separate thread so that a
    /// hang fails the test instead of stalling the suite.
    #[test]
    fn behavior_panic_does_not_strand_a_reader_on_another_processor() {
        use fppn_sched::Placement;
        let (net, bank) = panicking_writer();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let writer = net.process_by_name("writer").unwrap();
        let placements = derived
            .graph
            .job_ids()
            .map(|job| {
                let on_writer = derived.graph.job(job).process == writer;
                Placement {
                    job,
                    processor: usize::from(!on_writer),
                    start: if on_writer { ms(0) } else { ms(10) },
                }
            })
            .collect();
        let schedule = StaticSchedule::new(placements, 2, derived.hyperperiod);
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let config = RuntimeConfig {
                frames: 4,
                us_per_ms: 0,
            };
            let outcome = run_threaded(&net, &bank, &Stimuli::new(), &derived, &schedule, &config);
            let _ = tx.send(outcome.map(|run| run.executed));
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("run_threaded hung after a behavior panic");
        runner
            .join()
            .expect("the runner thread returned its outcome");
        assert!(
            matches!(outcome, Err(RuntimeError::WorkerPanicked)),
            "{outcome:?}"
        );
    }

    #[test]
    fn unholdable_frame_count_is_a_typed_error() {
        // One job per frame: 2^60 resolved slots are past `isize::MAX`
        // bytes, so the reservation is refused on any host without asking
        // the allocator.
        let mut b = FppnBuilder::new();
        b.process(ProcessSpec::new("p", EventSpec::periodic(ms(100))));
        let (net, bank) = b.build().unwrap();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
        let config = RuntimeConfig {
            frames: 1 << 60,
            us_per_ms: 0,
        };
        match run_threaded(&net, &bank, &Stimuli::new(), &derived, &schedule, &config) {
            Err(RuntimeError::InvalidConfig(msg)) => assert!(msg.contains("frames"), "{msg}"),
            other => panic!(
                "expected InvalidConfig, got {:?}",
                other.map(|run| run.executed)
            ),
        }
    }
}
