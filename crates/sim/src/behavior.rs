//! Sharded behavior execution: the data plane on the worker pool.
//!
//! # Why the data plane shards
//!
//! A round costs well under a microsecond, so the §IV round *timing* runs
//! on one thread (a cross-thread rendezvous per round cannot pay for
//! itself). Behaviors are different: the moment they do real work, one
//! sequential [`ExecState`](fppn_core::ExecState) replay serializes the
//! whole simulation. The model itself licenses sharding it: each channel
//! has one writer and one reader (Def. 2.1), so job `p[k]` at canonical
//! position `i` depends on exactly the jobs of its channel writers at
//! positions `< i`. Those are a *prefix* of each writer's job sequence,
//! because every process's jobs are canonically ordered among themselves.
//!
//! # Protocol
//!
//! The canonical record order — `(completion, frame, topo)`, already fixed
//! before any behavior runs — is scanned once to build a static plan: per
//! executed job, its `global_k`, the per-read-channel count of writer jobs
//! canonically before it (the *visibility*), and the distinct
//! `(writer, count)` rendezvous gates. Workers own whole processes
//! (clustered by the [`ChannelDependencyMap`]'s weakly-connected
//! components, so disjoint clusters never exchange wake-ups) and advance
//! each process's job sequence in order:
//!
//! 1. **gate** — spin/sleep until `progress[w] ≥ J` for every gate, where
//!    `progress[w]` counts the jobs process `w` has *committed*;
//! 2. **execute** — run the behavior against the process's
//!    [`ProcessShard`], which resolves reads from the committed prefixes;
//! 3. **publish** — after the shard commits the job's writes, bump
//!    `progress[p]` and wake sleepers.
//!
//! Every gate points strictly backwards in the canonical total order, so
//! the wait graph is acyclic: the globally-least unexecuted job is always
//! runnable and its owner always reaches it on the next scan, so the
//! plane cannot deadlock.
//!
//! Determinism does not rest on the scheduler: each read is a pure function
//! of `(visibility, reader cursor, committed prefix)`, all derived from the
//! canonical order — so the merged [`Observables`] are bit-identical to the
//! sequential replay, which the differential suite asserts across worker
//! counts, workloads and models.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use fppn_core::{
    BehaviorBank, BoxedBehavior, ExecError, Fppn, Observables, ProcessShard, ShardedExec,
    Stimuli,
};
use fppn_taskgraph::ChannelDependencyMap;
use fppn_time::TimeQ;
use parking_lot::{Condvar, Mutex};

use crate::cancel::CancelToken;
use crate::policy::{JobRecord, SimError};

/// Per-process committed-job counters plus the sleep/wake monitor.
struct ProgressBoard {
    /// `progress[p]` = jobs process `p` has committed. Only `p`'s owning
    /// worker stores; gates load.
    progress: Vec<AtomicU64>,
    /// Total committed jobs; doubles as the wake-up generation.
    generation: AtomicU64,
    waiters: AtomicUsize,
    /// Set on behavior error or worker panic: everyone must wake and exit.
    aborted: AtomicBool,
    monitor: Mutex<()>,
    cond: Condvar,
}

impl ProgressBoard {
    fn new(n: usize) -> Self {
        ProgressBoard {
            progress: (0..n).map(|_| AtomicU64::new(0)).collect(),
            generation: AtomicU64::new(0),
            waiters: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            monitor: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// Publishes one committed job of process `p` and wakes sleepers. The
    /// progress store precedes the `SeqCst` generation bump, so a waiter
    /// observing the new generation re-scans against fresh counters.
    fn publish(&self, p: usize, committed: u64) {
        self.progress[p].store(committed, Ordering::SeqCst);
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            let _guard = self.monitor.lock();
            self.cond.notify_all();
        }
    }

    fn snapshot(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Blocks until the generation moves past `seen` (the waiter registers
    /// before re-checking under the lock; publishers bump before checking
    /// `waiters` — no lost wake-ups).
    fn wait_for_progress(&self, seen: u64) {
        let mut guard = self.monitor.lock();
        self.waiters.fetch_add(1, Ordering::SeqCst);
        if self.generation.load(Ordering::SeqCst) == seen
            && !self.aborted.load(Ordering::SeqCst)
        {
            self.cond.wait(&mut guard);
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
        let _guard = self.monitor.lock();
        self.cond.notify_all();
    }
}

/// Flags the board aborted if its worker unwinds before disarming, so a
/// panicking behavior cannot strand peers on the monitor.
struct AbortOnUnwind<'a> {
    board: &'a ProgressBoard,
    armed: bool,
}

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.board.abort();
        }
    }
}

/// A tiny inline-first buffer for `Copy` plan entries: up to `N` elements
/// live in the struct itself and only a (rare) overflow spills to the heap.
/// `PlannedJob` is built once per executed round, and a process's read /
/// writer fan-in is almost always small, so inlining removes two heap
/// allocations per round from the planning hot path.
#[derive(Debug, Clone)]
struct SmallBuf<T: Copy + Default, const N: usize> {
    inline: [T; N],
    len: usize,
    /// Holds *all* elements once `len > N`; empty while inline.
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> SmallBuf<T, N> {
    fn new() -> Self {
        SmallBuf {
            inline: [T::default(); N],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, v: T) {
        if self.len < N {
            self.inline[self.len] = v;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline);
            }
            self.spill.push(v);
        }
        self.len += 1;
    }

    fn as_slice(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallBuf<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut buf = Self::new();
        for v in iter {
            buf.push(v);
        }
        buf
    }
}

/// The static plan of one executed job.
struct PlannedJob {
    k: u64,
    invoked_at: TimeQ,
    /// Committed-writer-job counts visible per read channel, aligned with
    /// [`ProcessShard::read_channels`].
    visible: SmallBuf<u64, 4>,
    /// Distinct rendezvous gates: `(writer process index, required
    /// committed count)`. Zero-count gates are dropped at plan time.
    gates: SmallBuf<(usize, u64), 4>,
}

/// One process timeline owned by a worker.
struct Timeline<'s> {
    p: usize,
    shard: ProcessShard<'s>,
    behavior: BoxedBehavior,
    jobs: Vec<PlannedJob>,
    next: usize,
}

/// Scans the canonical record order once into per-process job plans: each
/// executed job's `global_k`, the per-read-channel count of writer jobs
/// canonically before it, and its distinct rendezvous gates.
fn build_plan(
    net: &Fppn,
    deps: &ChannelDependencyMap,
    records: &[JobRecord],
) -> Vec<Vec<PlannedJob>> {
    let mut committed = vec![0u64; net.process_count()];
    let mut plan: Vec<Vec<PlannedJob>> = (0..net.process_count()).map(|_| Vec::new()).collect();
    for rec in records.iter().filter(|r| !r.skipped) {
        let p = rec.process;
        let visible: SmallBuf<u64, 4> = deps
            .reads(p)
            .iter()
            .map(|&ch| committed[net.channel(ch).writer().index()])
            .collect();
        let gates: SmallBuf<(usize, u64), 4> = deps
            .direct_writers(p)
            .iter()
            .map(|w| (w.index(), committed[w.index()]))
            .filter(|&(_, j)| j > 0)
            .collect();
        committed[p.index()] += 1;
        debug_assert_eq!(rec.global_k, committed[p.index()], "canonical k drifted");
        plan[p.index()].push(PlannedJob {
            k: rec.global_k,
            invoked_at: rec.invoked_at,
            visible,
            gates,
        });
    }
    plan
}

/// Partitions processes into `workers` chunks, keeping each dependency
/// component contiguous and balancing by per-process job weight (the
/// exact planned job counts), so cross-worker rendezvous only happens where
/// the data actually flows.
fn partition(
    deps: &ChannelDependencyMap,
    weights: &[usize],
    workers: usize,
) -> Vec<Vec<usize>> {
    let order: Vec<usize> = deps
        .components()
        .iter()
        .flat_map(|c| c.iter().map(|p| p.index()))
        .collect();
    let total: usize = weights.iter().sum();
    let workers = workers.clamp(1, order.len().max(1));
    let target = total.div_ceil(workers).max(1);
    let mut chunks: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let (mut w, mut filled) = (0usize, 0usize);
    for p in order {
        if filled >= target && w + 1 < workers {
            w += 1;
            filled = 0;
        }
        chunks[w].push(p);
        filled += weights[p];
    }
    chunks
}

/// Advances every timeline owned by one worker until all are exhausted,
/// publishing progress after each committed job.
fn run_worker(
    board: &ProgressBoard,
    timelines: &mut [Timeline<'_>],
    error: &Mutex<Option<ExecError>>,
    cancel: Option<&CancelToken>,
) {
    let mut guard = AbortOnUnwind { board, armed: true };
    let mut remaining = timelines
        .iter()
        .filter(|t| t.next < t.jobs.len())
        .count();
    let mut idle_scans = 0u32;
    while remaining > 0 && !board.aborted.load(Ordering::SeqCst) {
        let seen = board.snapshot();
        let mut progressed = false;
        for tl in timelines.iter_mut() {
            while tl.next < tl.jobs.len() {
                // Re-check the abort flag per job, not just per scan: a
                // peer's error must not leave this worker burning through
                // a long runnable backlog whose results will be discarded.
                if board.aborted.load(Ordering::SeqCst) {
                    guard.armed = false;
                    return;
                }
                // Behaviors are where wall-clock time goes, so cancellation
                // polls per job: one slow behavior cannot pin the run past
                // its deadline by more than its own duration.
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    board.abort();
                    guard.armed = false;
                    return;
                }
                let job = &tl.jobs[tl.next];
                if !job
                    .gates
                    .as_slice()
                    .iter()
                    .all(|&(w, j)| board.progress[w].load(Ordering::SeqCst) >= j)
                {
                    break;
                }
                let result =
                    tl.shard
                        .run_job(&mut tl.behavior, job.k, job.invoked_at, job.visible.as_slice());
                tl.next += 1;
                // Publish even a failed job: its writes committed, exactly
                // as the sequential store logs a failed job's actions.
                board.publish(tl.p, tl.shard.executed());
                progressed = true;
                if let Err(e) = result {
                    error.lock().get_or_insert(e);
                    board.abort();
                    guard.armed = false;
                    return;
                }
                if tl.next == tl.jobs.len() {
                    remaining -= 1;
                }
            }
        }
        if remaining > 0 && !progressed {
            idle_scans += 1;
            if idle_scans < 4 {
                std::thread::yield_now();
            } else {
                board.wait_for_progress(seen);
            }
        } else {
            idle_scans = 0;
        }
    }
    guard.armed = false;
}

/// Executes the behaviors of canonically-sorted `records` (with `global_k`
/// already assigned) on `workers` threads over per-process shards, and
/// merges the shard-local observables back into sequential shape.
///
/// Callers must gate on [`fppn_core::SharedChannels::supports`].
///
/// # Errors
///
/// Returns [`SimError::Exec`] when a behavior fails. When several
/// behaviors fail in one run, which failure is reported depends on
/// execution interleaving (the run is aborted at the first observed one);
/// a single failure — the overwhelmingly common case — is reported exactly
/// like the sequential replay.
pub(crate) fn run_behaviors_sharded(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    records: &[JobRecord],
    workers: usize,
    cancel: Option<&CancelToken>,
) -> Result<Observables, SimError> {
    let deps = ChannelDependencyMap::analyze(net);
    let plan = build_plan(net, &deps, records);
    let weights: Vec<usize> = plan.iter().map(Vec::len).collect();
    let chunks = partition(&deps, &weights, workers);

    let exec = ShardedExec::new(net);
    let shards = exec.shards(stimuli);
    let behaviors = bank.instantiate();

    // Deal shards/behaviors/plans out to their owning worker's timelines.
    let mut slots: Vec<Option<(ProcessShard<'_>, BoxedBehavior, Vec<PlannedJob>)>> = shards
        .into_iter()
        .zip(behaviors)
        .zip(plan)
        .map(|((s, b), j)| Some((s, b, j)))
        .collect();
    let mut worker_timelines: Vec<Vec<Timeline<'_>>> = chunks
        .iter()
        .map(|chunk| {
            chunk
                .iter()
                .map(|&p| {
                    let (shard, behavior, jobs) =
                        slots[p].take().expect("process assigned to one worker");
                    debug_assert!(
                        shard.read_channels().eq(deps.reads(shard.process()).iter().copied()),
                        "shard and dependency-map read orders must agree"
                    );
                    Timeline {
                        p,
                        shard,
                        behavior,
                        jobs,
                        next: 0,
                    }
                })
                .collect()
        })
        .collect();

    let board = ProgressBoard::new(net.process_count());
    let error: Mutex<Option<ExecError>> = Mutex::new(None);

    let scope_result = crossbeam::thread::scope(|s| {
        let mut handles = Vec::new();
        for timelines in worker_timelines.iter_mut() {
            let board = &board;
            let error = &error;
            handles.push(s.spawn(move |_| run_worker(board, &mut timelines[..], error, cancel)));
        }
        // An explicitly joined child's panic does NOT re-raise through the
        // scope result (only unjoined panics do) — collect the first
        // payload here so a panicking behavior surfaces instead of
        // tripping the completeness assert below as a phantom abort.
        let mut first_panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    });
    match scope_result {
        Err(payload) | Ok(Some(payload)) => std::panic::resume_unwind(payload),
        Ok(None) => {}
    }
    if let Some(e) = error.into_inner() {
        return Err(SimError::Exec(e));
    }
    // A cancelled run aborted the board with jobs outstanding; report it
    // before the drained-feed assertion below. The per-timeline cursors
    // count exactly the behaviors that committed.
    if cancel.is_some_and(CancelToken::is_cancelled) {
        let completed_rounds = worker_timelines
            .iter()
            .flatten()
            .map(|tl| tl.next)
            .sum();
        return Err(SimError::Cancelled { completed_rounds });
    }

    let shards: Vec<ProcessShard<'_>> = worker_timelines
        .into_iter()
        .flatten()
        .map(|tl| {
            assert_eq!(
                tl.next,
                tl.jobs.len(),
                "worker exited with unexecuted jobs but no error"
            );
            tl.shard
        })
        .collect();
    Ok(exec.merge(shards))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::ProcessId;

    #[test]
    fn partition_keeps_components_contiguous_and_covers_all() {
        use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};
        let ms = TimeQ::from_ms;
        let mut b = FppnBuilder::new();
        let ids: Vec<ProcessId> = (0..6)
            .map(|i| b.process(ProcessSpec::new(format!("p{i}"), EventSpec::periodic(ms(10)))))
            .collect();
        // Two independent chains: 0->1->2 and 3->4, plus isolated 5.
        for (a, c) in [(0, 1), (1, 2), (3, 4)] {
            b.channel(format!("c{a}_{c}"), ids[a], ids[c], ChannelKind::Fifo);
            b.priority(ids[a], ids[c]);
        }
        let (net, _) = b.build().unwrap();
        let deps = ChannelDependencyMap::analyze(&net);
        for weights in [vec![0usize; 6], vec![5, 1, 4, 2, 3, 6]] {
            for workers in 1..=8 {
                let chunks = partition(&deps, &weights, workers);
                let mut seen: Vec<usize> = chunks.iter().flatten().copied().collect();
                seen.sort_unstable();
                assert_eq!(seen, vec![0, 1, 2, 3, 4, 5], "workers {workers}");
            }
        }
    }

    #[test]
    fn abort_wakes_blocked_waiters() {
        let board = ProgressBoard::new(1);
        std::thread::scope(|s| {
            let h = s.spawn(|| board.wait_for_progress(board.snapshot()));
            std::thread::sleep(std::time::Duration::from_millis(20));
            board.abort();
            h.join().unwrap();
        });
        assert!(board.aborted.load(Ordering::SeqCst));
    }

    /// The three ways a sharded run ends early. A behavior panic on a
    /// worker thread must reach the caller with its original payload (the
    /// serve layer reports that payload as the tenant's fault), a behavior
    /// error must come back as `SimError::Exec` exactly as from the
    /// sequential store, and a tripped token must end the plane with
    /// `Cancelled`, not a phantom abort.
    #[test]
    fn sharded_plane_ends_early_on_panic_error_or_cancel() {
        use fppn_core::{
            Behavior, ChannelKind, EventSpec, FppnBuilder, JobCtx, ProcessSpec, Value,
        };
        use fppn_sched::{list_schedule, Heuristic};
        use fppn_taskgraph::{derive_task_graph, WcetModel};

        use crate::{simulate, SimConfig};

        #[derive(Clone, Copy)]
        enum Mid {
            Clean,
            Panic,
            Fail,
        }
        /// Returns a behavior error from its third job on.
        struct FailFromThird;
        impl Behavior for FailFromThird {
            fn on_job(&mut self, ctx: &mut JobCtx<'_>) -> Result<(), ExecError> {
                if ctx.k() < 3 {
                    return Ok(());
                }
                Err(ExecError::Eval {
                    process: "mid".into(),
                    detail: "sharded-plane test error".into(),
                })
            }
        }
        let ms = TimeQ::from_ms;
        let chain = |mode: Mid| {
            let mut b = FppnBuilder::new();
            let src = b.process(ProcessSpec::new("src", EventSpec::periodic(ms(50))));
            let mid = b.process(ProcessSpec::new("mid", EventSpec::periodic(ms(50))));
            let a = b.channel("a", src, mid, ChannelKind::Fifo);
            b.priority(src, mid);
            b.behavior(src, move || {
                Box::new(move |ctx: &mut JobCtx<'_>| ctx.write(a, Value::Int(ctx.k() as i64)))
            });
            b.behavior(mid, move || match mode {
                Mid::Clean => Box::new(move |ctx: &mut JobCtx<'_>| {
                    let _ = ctx.read(a);
                }),
                Mid::Panic => Box::new(move |ctx: &mut JobCtx<'_>| {
                    if ctx.k() >= 3 {
                        panic!("sharded-plane test panic");
                    }
                }),
                Mid::Fail => Box::new(FailFromThird),
            });
            b.build().unwrap()
        };
        let (net, bank) = chain(Mid::Panic);
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let config = SimConfig {
            frames: 4,
            behavior_workers: 2,
            ..SimConfig::default()
        };
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config)
        }))
        .expect_err("the behavior panic must propagate");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"sharded-plane test panic"),
            "payload replaced on the way out"
        );

        let (net, bank) = chain(Mid::Fail);
        for behavior_workers in [0, 2] {
            let outcome = simulate(
                &net,
                &bank,
                &Stimuli::new(),
                &derived,
                &schedule,
                &SimConfig {
                    behavior_workers,
                    ..config
                },
            );
            assert!(
                matches!(&outcome, Err(SimError::Exec(ExecError::Eval { detail, .. }))
                    if detail == "sharded-plane test error"),
                "behavior_workers {behavior_workers}: {:?}",
                outcome.map(|r| r.stats)
            );
        }

        let (net, bank) = chain(Mid::Clean);
        let run = simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let stimuli = Stimuli::new();
        let outcome = run_behaviors_sharded(&net, &bank, &stimuli, &run.records, 2, Some(&token));
        assert!(
            matches!(outcome, Err(SimError::Cancelled { completed_rounds: 0 })),
            "a pre-tripped token must cancel the sharded plane before any job"
        );
    }
}
