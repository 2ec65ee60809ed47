//! The online static-order scheduling policy (§IV), simulated on a
//! discrete-event multiprocessor platform.
//!
//! The policy repeats the static schedule frame with period `H`. On each
//! processor independently, the scheduler picks jobs in static start-time
//! order and runs a *round* per job:
//!
//! 1. **Synchronize Invocation** — wait for the invocation corresponding to
//!    the job. Periodic (and server) jobs are invoked at `f·H + A_i`;
//!    a sporadic server slot is invoked when its matching real event
//!    arrives (possibly before `A_i`), or is marked **false** at `A_i` if
//!    fewer events arrived in its window.
//! 2. **Synchronize Precedence** — wait until all task-graph predecessors
//!    (and, across frames, the wrap-around predecessors of conflicting
//!    processes) have completed.
//! 3. **Execute** the job, unless marked false.
//!
//! A sporadic slot's window is `(b − T′, b]` when the sporadic process has
//! functional priority over its user and `[b − T′, b)` otherwise (Fig. 2's
//! boundary rule).
//!
//! The simulation is *deterministic*: given the network, stimuli, schedule
//! and execution-time model it computes exact rational start/completion
//! times, runs the process behaviors in a precedence-consistent order, and
//! yields [`Observables`] that must equal the zero-delay reference
//! (Prop. 4.1 — asserted by the integration test-suite).
//!
//! One sequential round engine computes the rounds of every run, frame by
//! frame. Under the [`ExecTimeModel::Wcet`] model a frame whose exact
//! carry-in matches an earlier frame's is replayed from the frame memo,
//! shifted by the whole hyperperiods between them, instead of recomputed
//! (see `FrameMemo`). The configuration only chooses how the behaviors
//! replay afterwards: through the sequential store, or sharded over
//! [`SimConfig::behavior_workers`] threads (`crate::behavior`). Both
//! consume the same canonical record order, so both yield the same
//! [`SimRun`].

use std::error::Error;
use std::fmt;

use fppn_core::{
    BehaviorBank, ExecError, ExecState, Fppn, NetworkError, Observables, ProcessId,
    SharedChannels, Stimuli,
};
use fppn_taskgraph::{DerivedTaskGraph, JobId, TaskGraph};
use fppn_sched::StaticSchedule;
use fppn_time::TimeQ;

use crate::cancel::CancelToken;
use crate::compile::StaticTables;
use crate::exectime::ExecTimeModel;
use crate::gantt::{Gantt, Segment, SegmentKind};
use crate::overhead::OverheadModel;

/// Simulation parameters. The frame memo is not among them: every run
/// replays repeated frames where it is sound (the `Wcet` model) and
/// computes them live elsewhere, bit-identically either way.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of schedule frames (hyperperiods) to simulate.
    pub frames: u64,
    /// Runtime frame-management overhead model.
    pub overhead: OverheadModel,
    /// Actual-execution-time model.
    pub exec_time: ExecTimeModel,
    /// Behavior-execution threads. `0` (the default) replays every
    /// behavior through one sequential store. `n ≥ 1` runs the *sharded
    /// data plane*: processes are dealt to `n` threads, each executing its
    /// jobs against a per-process shard and rendezvousing on per-process
    /// progress counters derived from the static channel-dependency map.
    /// Networks the sharded store cannot express (bounded-capacity
    /// cross-process FIFOs) fall back to the sequential store. Every
    /// setting is bit-identical (Prop. 4.1: observables do not depend on
    /// execution order).
    pub behavior_workers: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            frames: 1,
            overhead: OverheadModel::NONE,
            exec_time: ExecTimeModel::Wcet,
            behavior_workers: 0,
        }
    }
}

/// The fate of one scheduled job instance (one round).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobRecord {
    /// The process.
    pub process: ProcessId,
    /// Frame index.
    pub frame: u64,
    /// Job id within the task graph (per-frame).
    pub job: JobId,
    /// Global invocation count actually executed (0 for skipped slots).
    pub global_k: u64,
    /// Processor that ran (or resolved) the round.
    pub processor: usize,
    /// Real invocation time: `f·H + A_i` for periodic jobs, the matching
    /// event arrival for sporadic slots, the window close for false slots.
    pub invoked_at: TimeQ,
    /// Execution start (equals `invoked_at`-resolution for skipped slots).
    pub start: TimeQ,
    /// Completion (resolution time for skipped slots).
    pub completion: TimeQ,
    /// Absolute deadline (untruncated: invocation + relative deadline).
    pub deadline: TimeQ,
    /// Whether the deadline was missed.
    pub missed: bool,
    /// Whether this was a false-marked (skipped) server slot.
    pub skipped: bool,
}

/// Aggregate statistics of one simulation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Jobs actually executed.
    pub executed: usize,
    /// Server slots skipped as false.
    pub skipped: usize,
    /// Deadline misses among executed jobs.
    pub deadline_misses: usize,
    /// Largest `completion − deadline` over missing jobs (zero if none).
    pub max_lateness: TimeQ,
    /// Latest completion time observed.
    pub makespan: TimeQ,
}

/// The result of a simulation run.
#[derive(Debug)]
pub struct SimRun {
    /// Per-channel / per-output observable value sequences; must equal the
    /// zero-delay reference for the same stimuli (Prop. 4.1).
    pub observables: Observables,
    /// Execution timeline (application rows first, runtime-overhead row
    /// last when the overhead model is active).
    pub gantt: Gantt,
    /// Every round, in behavior-execution order.
    pub records: Vec<JobRecord>,
    /// Aggregate statistics.
    pub stats: SimStats,
}

/// Errors from the simulator.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// The stimuli are inconsistent with the network.
    Network(NetworkError),
    /// A behavior failed while executing.
    Exec(ExecError),
    /// The per-processor static orders deadlocked against the precedence
    /// constraints (the schedule was not produced by a correct scheduler).
    Stalled {
        /// Rounds completed before the stall, frame-major: every round of
        /// the frames before the stalled one, plus those of the stalled
        /// frame that could complete.
        completed_rounds: usize,
    },
    /// The run's [`CancelToken`](crate::CancelToken) tripped (explicit
    /// cancel, expired deadline, or cancelled parent) and the backend
    /// abandoned the run at a frame/round boundary.
    Cancelled {
        /// Rounds fully computed before the run observed the cancellation.
        completed_rounds: usize,
    },
    /// The [`SimConfig`] is unusable, e.g. an [`ExecTimeModel`] that fails
    /// [`ExecTimeModel::validate`]. Raised when the run is bound, before
    /// any round is computed.
    InvalidConfig(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Network(e) => write!(f, "invalid stimuli: {e}"),
            SimError::Exec(e) => write!(f, "behavior failed: {e}"),
            SimError::Stalled { completed_rounds } => write!(
                f,
                "static-order policy deadlocked after {completed_rounds} rounds \
                 (schedule inconsistent with precedence constraints)"
            ),
            SimError::Cancelled { completed_rounds } => write!(
                f,
                "run cancelled after {completed_rounds} completed rounds"
            ),
            SimError::InvalidConfig(msg) => write!(f, "invalid simulation config: {msg}"),
        }
    }
}

impl Error for SimError {}

impl From<NetworkError> for SimError {
    fn from(e: NetworkError) -> Self {
        SimError::Network(e)
    }
}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e)
    }
}

/// Clips sporadic arrivals to the window range covered by `frames` frames
/// of server slots, so that a zero-delay reference over the same horizon
/// observes exactly the jobs the simulation will execute.
///
/// A sporadic process with server period `T′` has its last simulated slot
/// subset at `frames·H − T′`; arrivals beyond that subset's window would
/// only be handled by the (unsimulated) next frame.
pub fn clip_stimuli(
    net: &Fppn,
    derived: &DerivedTaskGraph,
    stimuli: &Stimuli,
    frames: u64,
) -> Stimuli {
    let mut clipped = stimuli.clone();
    let h = derived.hyperperiod;
    let end = TimeQ::from_int(frames as i64) * h;
    for pid in net.process_ids() {
        if let Some(server) = derived.server(pid) {
            let last_subset = end - server.period;
            let keep: Vec<TimeQ> = stimuli
                .arrival_times(pid)
                .iter()
                .copied()
                .filter(|&t| {
                    if server.priority_over_user {
                        // Window (b − T', b]: covered iff t <= last_subset.
                        t <= last_subset
                    } else {
                        // Window [b − T', b): covered iff t < last_subset.
                        t < last_subset
                    }
                })
                .collect();
            clipped.arrivals(pid, keep.into_iter().collect());
        }
    }
    clipped
}

/// Reusable buffers for [`RoundEngine::compute_rounds_into`]: the flat
/// completion table (`[frame * n_jobs + job]`), per-processor availability,
/// the per-processor cursors, the output records and the frame memo. Owned
/// by the caller so a steady-state loop recomputing rounds over the same
/// engine shape reuses every buffer instead of reallocating per pass.
#[derive(Debug, Default)]
pub(crate) struct RoundScratch {
    completion: Vec<Option<TimeQ>>,
    proc_avail: Vec<TimeQ>,
    cursors: Vec<(u64, usize)>,
    pub(crate) records: Vec<JobRecord>,
    /// Living in the scratch (hence in `RunScratch`) lets a serve worker's
    /// steady state reuse the memo's entry buffers run after run.
    memo: FrameMemo,
}

impl RoundScratch {
    /// Empty scratch; the first compute pass sizes the buffers.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Empties the buffers for a compute of `total` rounds on `m_procs`
    /// processors: the completion table all `None`, every processor free
    /// at zero, and room for `total` records. Allocation-free once the
    /// buffers have grown to that shape.
    fn reset(&mut self, total: usize, m_procs: usize) -> Result<(), SimError> {
        self.completion.clear();
        try_reserve(&mut self.completion, total)?;
        self.completion.resize(total, None);
        self.proc_avail.clear();
        self.proc_avail.resize(m_procs, TimeQ::ZERO);
        self.records.clear();
        try_reserve(&mut self.records, total)
    }

    /// Cumulative frame-memo `(hits, misses)` over every compute into this
    /// scratch. Both stay zero when the memo never engages: a non-`Wcet`
    /// execution-time model, or the oracle loop.
    pub(crate) fn memo_stats(&self) -> (u64, u64) {
        (self.memo.hits, self.memo.misses)
    }
}

/// Consecutive misses after which the frame memo disengages for the rest
/// of the run. Periodic FMS settles after two misses (frame 1 seeds every
/// later hit), so this leaves room for a longer transient, while a run
/// whose frames never repeat pays for at most this many lookups and
/// inserts.
pub const MEMO_MISS_BUDGET: u64 = 4;

/// A bounded table of computed frames, keyed by their **exact** inputs.
///
/// A frame's round table is built from `max` and `+` over its inputs, so it
/// is translation-equivariant: shift every input time by `Δ` and every
/// output time shifts by `Δ`. Under `Wcet` the execution times and every
/// periodic slot are frame-invariant relative to the frame base, so two
/// frames whose remaining inputs agree relative to their own bases produce
/// round tables that are exact `+k·H` translates. Those inputs are the key:
///
/// * the carry-in, stored in the entry: per-processor availability and the
///   previous frame's wrap-predecessor completions, relative to the base;
/// * the server-slot resolutions and the release gate, compared against
///   the source frame's slabs by [`RoundEngine::same_frame_inputs`].
///
/// An entry keeps the availability its frame left and its
/// wrap-predecessor completions, both absolute. Its records need no copy:
/// every frame appends exactly `n_jobs` records, so the source frame's
/// block is `records[src * n_jobs..]` of the run being computed. Replay
/// shifts all of it by `base − src_base`. The table is reset at the start
/// of every compute (entries forgotten, buffers kept), so nothing leaks
/// across runs and the steady-state hit and insert paths allocate nothing.
/// Lookup scans at most [`FrameMemo::CAPACITY`] entries, each rejected at
/// its first differing word; eviction is a ring.
#[derive(Debug, Default)]
struct FrameMemo {
    /// `entries[..len]` are live; spares past `len` keep their capacity.
    entries: Vec<MemoEntry>,
    len: usize,
    next_evict: usize,
    /// The current frame's carry-in, relative to its base.
    carry_in: Vec<TimeQ>,
    /// Whether the memo still looks up and inserts in this compute.
    engaged: bool,
    /// Whether the blocks computed so far are sorted into the canonical
    /// per-frame order. Set by the first hit, so a run that never replays
    /// never pays for a sort.
    sorted: bool,
    /// Consecutive misses; the memo disengages at [`MEMO_MISS_BUDGET`].
    streak: u64,
    hits: u64,
    misses: u64,
}

/// One memoized frame: its key's carry-in half, and what replaying it
/// needs besides its block of records.
#[derive(Debug, Default)]
struct MemoEntry {
    src_frame: usize,
    src_base: TimeQ,
    carry_in: Vec<TimeQ>,
    avail_out: Vec<TimeQ>,
    /// The frame's completions at the wrap-predecessor jobs: the only
    /// completion slots a later frame reads (its carry-in and its wrap
    /// waits), so a replay fills just these.
    wrap_out: Vec<(u32, TimeQ)>,
}

impl FrameMemo {
    const CAPACITY: usize = 16;

    /// Forgets every entry, keeping all buffer capacity and the cumulative
    /// counters. `engage` says whether this compute may replay at all.
    fn reset(&mut self, engage: bool) {
        self.len = 0;
        self.next_evict = 0;
        self.streak = 0;
        self.engaged = engage;
        self.sorted = false;
    }

    /// Finds an entry whose carry-in equals `self.carry_in` and whose
    /// source frame `same_inputs` accepts, counting the hit or miss. The
    /// miss that completes [`MEMO_MISS_BUDGET`] consecutive misses
    /// disengages the memo.
    fn lookup(&mut self, same_inputs: impl Fn(&MemoEntry) -> bool) -> Option<usize> {
        let found = self.entries[..self.len]
            .iter()
            .position(|e| e.carry_in == self.carry_in && same_inputs(e));
        if found.is_some() {
            self.hits += 1;
            self.streak = 0;
        } else {
            self.misses += 1;
            self.streak += 1;
            self.engaged = self.streak < MEMO_MISS_BUDGET;
        }
        found
    }

    /// Memoizes one computed frame under the current carry-in, evicting
    /// round-robin when full. Every copy is `clear` + `extend` into
    /// retained buffers: allocation-free once they have warmed up.
    fn insert(
        &mut self,
        src_frame: usize,
        src_base: TimeQ,
        avail: &[TimeQ],
        wrap_preds: &[JobId],
        frame_completion: &[Option<TimeQ>],
    ) {
        let slot = if self.len < Self::CAPACITY {
            if self.entries.len() == self.len {
                self.entries.push(MemoEntry::default());
            }
            self.len += 1;
            self.len - 1
        } else {
            let slot = self.next_evict;
            self.next_evict = (slot + 1) % Self::CAPACITY;
            slot
        };
        let entry = &mut self.entries[slot];
        entry.src_frame = src_frame;
        entry.src_base = src_base;
        entry.carry_in.clear();
        entry.carry_in.extend_from_slice(&self.carry_in);
        entry.avail_out.clear();
        entry.avail_out.extend_from_slice(avail);
        entry.wrap_out.clear();
        entry.wrap_out.extend(wrap_preds.iter().map(|p| {
            let done = frame_completion[p.index()].expect("memoized frames are complete");
            (p.index() as u32, done)
        }));
    }
}

/// Reserves room for `len` more entries of a buffer sized by the run's
/// round count. A count the host cannot hold is
/// [`SimError::InvalidConfig`]: an unchecked reservation would abort the
/// whole process, which no `catch_unwind` around a run can contain, or
/// panic on capacity overflow.
fn try_reserve<T>(buf: &mut Vec<T>, len: usize) -> Result<(), SimError> {
    buf.try_reserve_exact(len)
        .map_err(|e| SimError::InvalidConfig(format!("{len} round-table entries: {e}")))
}

/// The frame-repeated policy table plus everything the round loop needs:
/// static per-processor orders, wrap-around predecessors, per-instance
/// slot resolutions, pre-drawn execution times and per-frame release
/// gates.
///
/// The compile-phase tables (CSR orders, wrap predecessors, topological
/// positions, slot templates) are **borrowed** from a
/// [`StaticTables`] — built once per compiled network and shared by any
/// number of runs. Only the per-run slabs (slot resolutions bound to this
/// run's stimuli, pre-drawn execution times, frame gates) are owned here,
/// still flat struct-of-arrays indexed by `frame * n_jobs + job` so the
/// steady-state loop does contiguous indexed loads.
pub(crate) struct RoundEngine<'a> {
    graph: &'a TaskGraph,
    frames: u64,
    n_jobs: usize,
    m_procs: usize,
    /// Borrowed compile-phase tables (CSR orders, wrap preds, topo, …).
    tables: &'a StaticTables,
    /// Slot-resolution slabs, `[frame * n_jobs + job]`.
    slot_invoked: Vec<TimeQ>,
    slot_deadline: Vec<TimeQ>,
    slot_executable: Vec<bool>,
    /// Pre-drawn execution times, `[frame * n_jobs + job]`.
    exec_times: Vec<TimeQ>,
    /// `f·H + frame_overhead(f)` per frame: no executed job starts earlier.
    frame_gates: Vec<TimeQ>,
    h: TimeQ,
    overhead: OverheadModel,
    /// Whether frames may replay from the memo: only under the
    /// [`ExecTimeModel::Wcet`] model, whose execution times are a pure
    /// function of the job. Every other model computes every frame live.
    replay: bool,
    /// Job indices of the server (sporadic) slots: the only slots whose
    /// resolution can differ between frames relative to the frame base,
    /// hence the only ones a memo lookup compares.
    server_slots: Vec<usize>,
    /// Cooperative cancellation, polled at round/frame boundaries and per
    /// behavior job. `None` (the default) compiles the checks down to a
    /// branch on a constant — classic runs pay nothing.
    cancel: Option<&'a CancelToken>,
}

impl<'a> RoundEngine<'a> {
    /// Validates the configuration and the stimuli and binds the per-run
    /// slabs to the borrowed compile-phase tables.
    pub(crate) fn new(
        net: &Fppn,
        stimuli: &Stimuli,
        derived: &'a DerivedTaskGraph,
        tables: &'a StaticTables,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        config.exec_time.validate().map_err(SimError::InvalidConfig)?;
        stimuli.validate(net)?;
        let graph = &derived.graph;
        let h = derived.hyperperiod;
        let frames = config.frames;
        let n_jobs = graph.job_count();
        let m_procs = tables.processors();
        debug_assert_eq!(tables.templates.job_count(), n_jobs);

        // Every slab is reserved before any is filled, so a frame count the
        // host cannot hold fails here, before any per-slot work.
        let overflow =
            || SimError::InvalidConfig(format!("{frames} frames of {n_jobs} jobs overflow usize"));
        let frame_count = usize::try_from(frames).map_err(|_| overflow())?;
        let total = frame_count.checked_mul(n_jobs).ok_or_else(overflow)?;
        let mut slot_invoked = Vec::new();
        let mut slot_deadline = Vec::new();
        let mut slot_executable = Vec::new();
        let mut exec_times = Vec::new();
        let mut frame_gates = Vec::new();
        try_reserve(&mut slot_invoked, total)?;
        try_reserve(&mut slot_deadline, total)?;
        try_reserve(&mut slot_executable, total)?;
        try_reserve(&mut exec_times, total)?;
        try_reserve(&mut frame_gates, frame_count)?;

        // Per-instance slot resolution, streamed straight into SoA slabs
        // in canonical (frame, job-id) order.
        tables.templates.for_each_slot(stimuli, frames, |res| {
            slot_invoked.push(res.invoked_at);
            slot_deadline.push(res.deadline);
            slot_executable.push(res.executable);
        });

        // Pre-drawn execution times in canonical (frame, job-id) order, so
        // the random draws do not depend on simulation internals.
        let mut sampler = config.exec_time.sampler();
        for _ in 0..frames {
            exec_times.extend(graph.jobs().iter().map(|j| sampler.sample(j)));
        }

        frame_gates.extend(
            (0..frames).map(|f| TimeQ::from_int(f as i64) * h + config.overhead.frame_overhead(f)),
        );

        let replay = matches!(config.exec_time, ExecTimeModel::Wcet);
        let server_slots: Vec<usize> = graph
            .jobs()
            .iter()
            .enumerate()
            .filter(|(_, j)| j.is_server)
            .map(|(i, _)| i)
            .collect();
        #[cfg(debug_assertions)]
        if replay {
            // A memo lookup compares only server slots because periodic
            // slots are frame-invariant relative to the frame base
            // (`Template::Periodic`: invoked = base + A_i, deadline =
            // invoked + D_i, always executable). Pin that template contract
            // here so a future resolver change cannot silently unsound the
            // memo.
            for f in 1..frames as usize {
                let base = TimeQ::from_int(f as i64) * h;
                for (j, job) in graph.jobs().iter().enumerate() {
                    if job.is_server {
                        continue;
                    }
                    let s = f * n_jobs + j;
                    debug_assert_eq!(slot_invoked[s] - base, slot_invoked[j]);
                    debug_assert_eq!(slot_deadline[s] - base, slot_deadline[j]);
                    debug_assert!(slot_executable[s] && slot_executable[j]);
                }
            }
        }

        Ok(RoundEngine {
            graph,
            frames,
            n_jobs,
            m_procs,
            tables,
            slot_invoked,
            slot_deadline,
            slot_executable,
            exec_times,
            frame_gates,
            h,
            overhead: config.overhead,
            replay,
            server_slots,
            cancel: None,
        })
    }

    /// Arms cooperative cancellation: the round loop polls `token` at
    /// round-scan / frame boundaries, the data plane per behavior job, and
    /// both return [`SimError::Cancelled`] once it trips.
    pub(crate) fn set_cancel(&mut self, token: &'a CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether the armed token (if any) has tripped. Allocation-free.
    fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Total number of rounds over all frames; [`Self::new`] checked that
    /// the product fits.
    fn total_rounds(&self) -> usize {
        self.frames as usize * self.n_jobs
    }

    /// Processor `m`'s static round order.
    fn proc_order(&self, m: usize) -> &[JobId] {
        let t = self.tables;
        &t.proc_order_data[t.proc_order_bounds[m]..t.proc_order_bounds[m + 1]]
    }

    /// The previous-frame (wrap-around) predecessors of a job.
    fn wrap_preds_of(&self, id: JobId) -> &[JobId] {
        let t = self.tables;
        &t.wrap_pred_data[t.wrap_pred_bounds[id.index()]..t.wrap_pred_bounds[id.index() + 1]]
    }

    /// Attempts the round `(frame, id)` on processor `m` whose timeline is
    /// free at `proc_avail`. `completion_of` reports the completion time of
    /// an already-finished round (`None` = not finished yet).
    ///
    /// Returns `None` when a predecessor has not completed (the round
    /// blocks), otherwise the finished [`JobRecord`]; the caller publishes
    /// `record.completion` as this round's completion and advances the
    /// processor's availability to it.
    fn try_round(
        &self,
        frame: u64,
        id: JobId,
        m: usize,
        proc_avail: TimeQ,
        completion_of: impl Fn(u64, JobId) -> Option<TimeQ>,
    ) -> Option<JobRecord> {
        let job = self.graph.job(id);
        let mut ready_at = proc_avail;
        for p in self.graph.predecessors(id) {
            ready_at = ready_at.max(completion_of(frame, p)?);
        }
        if frame > 0 {
            for &p in self.wrap_preds_of(id) {
                ready_at = ready_at.max(completion_of(frame - 1, p)?);
            }
        }
        let slot = frame as usize * self.n_jobs + id.index();
        let (invoked_at, deadline) = (self.slot_invoked[slot], self.slot_deadline[slot]);
        Some(if !self.slot_executable[slot] {
            // False slot: resolved (and "completed") at the window close;
            // consumes no processor time.
            let t = ready_at.max(invoked_at);
            JobRecord {
                process: job.process,
                frame,
                job: id,
                global_k: 0,
                processor: m,
                invoked_at,
                start: t,
                completion: t,
                deadline,
                missed: false,
                skipped: true,
            }
        } else {
            let start = ready_at
                .max(invoked_at)
                .max(self.frame_gates[frame as usize]);
            let end = start + self.exec_times[slot];
            JobRecord {
                process: job.process,
                frame,
                job: id,
                global_k: 0, // assigned during behavior execution
                processor: m,
                invoked_at,
                start,
                completion: end,
                deadline,
                missed: end > deadline,
                skipped: false,
            }
        })
    }

    /// Computes every round on one thread into caller-owned scratch
    /// buffers, frame by frame: sound because no round depends on a later
    /// frame, and `canonicalize` makes production order irrelevant. The
    /// records are left in `scratch.records`.
    ///
    /// While the memo is engaged, each frame first looks up its exact
    /// inputs, and a computed frame is memoized. A hit replays the source
    /// frame's block shifted by the hyperperiods between them. The first
    /// hit also sorts every block so far into the canonical per-frame order
    /// `(completion, topological position)`, and each later computed block
    /// is sorted as it is made. Replay preserves that order, so a replayed
    /// run streams out already canonical and `canonicalize` takes its
    /// linear fast path, while a run that never replays sorts nothing here.
    ///
    /// With `audit`, a hit is computed live instead of replayed and logged
    /// as `(frame, source frame)`: the seam that checks key-equal frames
    /// really are translates. After one warm-up pass over the same engine
    /// shape, repeated calls perform **zero heap allocations** (asserted by
    /// the `alloc_zero` gates in `fppn-bench`).
    pub(crate) fn compute_rounds_into(
        &self,
        scratch: &mut RoundScratch,
        mut audit: Option<&mut Vec<(u64, u64)>>,
    ) -> Result<(), SimError> {
        scratch.reset(self.total_rounds(), self.m_procs)?;
        let RoundScratch {
            completion,
            proc_avail,
            cursors,
            records,
            memo,
        } = scratch;
        memo.reset(self.replay);
        let n_jobs = self.n_jobs;
        let wrap_preds = &self.tables.wrap_pred_data;
        for frame in 0..self.frames {
            if self.cancelled() {
                return Err(SimError::Cancelled {
                    completed_rounds: records.len(),
                });
            }
            let f = frame as usize;
            let base = TimeQ::from_int(frame as i64) * self.h;
            let mut hit = false;
            if memo.engaged {
                let carry_in = &mut memo.carry_in;
                carry_in.clear();
                carry_in.extend(proc_avail.iter().map(|&avail| avail - base));
                if f > 0 {
                    let prev = &completion[(f - 1) * n_jobs..f * n_jobs];
                    let done = |p: &JobId| prev[p.index()].expect("the previous frame is complete");
                    carry_in.extend(wrap_preds.iter().map(|p| done(p) - base));
                }
                if let Some(slot) = memo.lookup(|e| self.same_frame_inputs(f, base, e)) {
                    if !memo.sorted {
                        for g in 0..f {
                            self.sort_block(&mut records[g * n_jobs..(g + 1) * n_jobs]);
                        }
                        memo.sorted = true;
                    }
                    let entry = &memo.entries[slot];
                    if let Some(log) = audit.as_deref_mut() {
                        log.push((frame, entry.src_frame as u64));
                        hit = true;
                    } else {
                        let delta = base - entry.src_base;
                        // One fused copy+shift pass over the source block.
                        for i in entry.src_frame * n_jobs..(entry.src_frame + 1) * n_jobs {
                            let rec = records[i];
                            records.push(JobRecord {
                                frame,
                                invoked_at: rec.invoked_at + delta,
                                start: rec.start + delta,
                                completion: rec.completion + delta,
                                deadline: rec.deadline + delta,
                                ..rec
                            });
                        }
                        for &(j, done) in &entry.wrap_out {
                            completion[f * n_jobs + j as usize] = Some(done + delta);
                        }
                        for (avail, &src) in proc_avail.iter_mut().zip(&entry.avail_out) {
                            *avail = src + delta;
                        }
                        continue;
                    }
                }
            }
            self.compute_frame(frame, completion, proc_avail, cursors, records)?;
            if !memo.engaged {
                continue;
            }
            if memo.sorted {
                self.sort_block(&mut records[f * n_jobs..]);
            }
            // No later frame can match the last frame, nor frame 0 on a
            // network with wrap predecessors: its carry-in has no wrap part.
            if !hit && frame + 1 < self.frames && (f > 0 || wrap_preds.is_empty()) {
                memo.insert(
                    f,
                    base,
                    proc_avail,
                    wrap_preds,
                    &completion[f * n_jobs..(f + 1) * n_jobs],
                );
            }
        }
        Ok(())
    }

    /// Sorts one frame's block into the canonical per-frame order
    /// `(completion, topological position)`.
    fn sort_block(&self, block: &mut [JobRecord]) {
        let topo_pos = &self.tables.topo_pos;
        block.sort_unstable_by(|a, b| {
            (a.completion, topo_pos[a.job.index()]).cmp(&(b.completion, topo_pos[b.job.index()]))
        });
    }

    /// Whether frame `frame` sees the same server-slot resolutions and
    /// release gate as `entry`'s source frame, each relative to its own
    /// base: with equal carry-ins, the rest of a memo key. Periodic slots
    /// and `Wcet` execution times need no check; they are frame-invariant
    /// relative to the base (pinned by a `debug_assert` in
    /// [`RoundEngine::new`]).
    fn same_frame_inputs(&self, frame: usize, base: TimeQ, entry: &MemoEntry) -> bool {
        let delta = base - entry.src_base;
        let (cur, src) = (frame * self.n_jobs, entry.src_frame * self.n_jobs);
        self.frame_gates[frame] == self.frame_gates[entry.src_frame] + delta
            && self.server_slots.iter().all(|&j| {
                self.slot_executable[cur + j] == self.slot_executable[src + j]
                    && self.slot_invoked[cur + j] == self.slot_invoked[src + j] + delta
                    && self.slot_deadline[cur + j] == self.slot_deadline[src + j] + delta
            })
    }

    /// Drives every processor's cursor through exactly one frame (free
    /// interleaving *within* the frame — sound because no round depends on
    /// a later frame), appending the frame's `n_jobs` records.
    fn compute_frame(
        &self,
        frame: u64,
        completion: &mut [Option<TimeQ>],
        proc_avail: &mut [TimeQ],
        cursors: &mut Vec<(u64, usize)>,
        records: &mut Vec<JobRecord>,
    ) -> Result<(), SimError> {
        cursors.clear();
        cursors.resize(self.m_procs, (frame, 0));
        let n_jobs = self.n_jobs;
        let mut done = 0usize;
        while done < n_jobs {
            if self.cancelled() {
                return Err(SimError::Cancelled {
                    completed_rounds: records.len(),
                });
            }
            let mut progressed = false;
            for (m, cursor) in cursors.iter_mut().enumerate() {
                let order = self.proc_order(m);
                while cursor.1 < order.len() {
                    let id = order[cursor.1];
                    let lookup =
                        |f: u64, p: JobId| completion[f as usize * n_jobs + p.index()];
                    let Some(rec) = self.try_round(frame, id, m, proc_avail[m], lookup)
                    else {
                        break;
                    };
                    completion[frame as usize * n_jobs + id.index()] = Some(rec.completion);
                    proc_avail[m] = rec.completion;
                    records.push(rec);
                    cursor.1 += 1;
                    done += 1;
                    progressed = true;
                }
            }
            if !progressed && done < n_jobs {
                return Err(SimError::Stalled {
                    completed_rounds: records.len(),
                });
            }
        }
        Ok(())
    }

    /// The free-interleave loop: every processor's cursor runs as far as
    /// its predecessors allow, across frame boundaries, with no memo. Kept
    /// only as the differential oracle behind
    /// [`crate::hotpath::simulate_oracle`], the way `list_schedule_naive`
    /// is kept for the scheduler. Its `Stalled` count is the dataflow fixed
    /// point, which can exceed the frame-major count of
    /// [`Self::compute_rounds_into`]: other processors may finish rounds of
    /// later frames after one frame stalls.
    pub(crate) fn compute_rounds_oracle_into(
        &self,
        scratch: &mut RoundScratch,
    ) -> Result<(), SimError> {
        let total_rounds = self.total_rounds();
        scratch.reset(total_rounds, self.m_procs)?;
        let RoundScratch {
            completion,
            proc_avail,
            cursors,
            records,
            memo: _,
        } = scratch;
        cursors.clear();
        cursors.resize(self.m_procs, (0u64, 0usize));
        let n_jobs = self.n_jobs;
        while records.len() < total_rounds {
            if self.cancelled() {
                return Err(SimError::Cancelled {
                    completed_rounds: records.len(),
                });
            }
            let before = records.len();
            for (m, cursor) in cursors.iter_mut().enumerate() {
                let order = self.proc_order(m);
                loop {
                    let (frame, idx) = *cursor;
                    if frame >= self.frames {
                        break;
                    }
                    if idx >= order.len() {
                        *cursor = (frame + 1, 0);
                        continue;
                    }
                    let id = order[idx];
                    let lookup =
                        |f: u64, p: JobId| completion[f as usize * n_jobs + p.index()];
                    let Some(rec) = self.try_round(frame, id, m, proc_avail[m], lookup) else {
                        break;
                    };
                    completion[frame as usize * n_jobs + id.index()] = Some(rec.completion);
                    proc_avail[m] = rec.completion;
                    records.push(rec);
                    *cursor = (frame, idx + 1);
                }
            }
            if records.len() == before {
                return Err(SimError::Stalled {
                    completed_rounds: records.len(),
                });
            }
        }
        Ok(())
    }

    /// Sorts `records` into the canonical total order `(completion, frame,
    /// topological position)` and assigns each executed round its global
    /// invocation count — a pure function of that order, so both data
    /// planes see identical job identities. The topological positions are
    /// borrowed from the compile-phase tables.
    fn canonicalize(&self, net: &Fppn, records: &mut [JobRecord]) {
        let topo_pos = &self.tables.topo_pos;
        let key = |r: &JobRecord| (r.completion, r.frame, topo_pos[r.job.index()] as u32);
        // Sorted fast path: while the memo is engaged the round loop emits
        // each frame block pre-sorted, so a replayed run on a schedulable
        // workload (no frame overruns its hyperperiod) is already canonical
        // and one linear scan replaces the sort + permutation entirely.
        if !records.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
            // Decorate-sort-permute with an *unstable* sort: the canonical
            // key is already a total order (the topological position is
            // unique per job within a frame), so stability buys nothing and
            // pdqsort over compact `(key, index)` pairs avoids the stable
            // sort's merge scratch. The trailing index is a tie-breaker in
            // theory only.
            let mut keyed: Vec<(TimeQ, u64, u32, u32)> = records
                .iter()
                .enumerate()
                .map(|(i, r)| (r.completion, r.frame, topo_pos[r.job.index()] as u32, i as u32))
                .collect();
            keyed.sort_unstable();
            for i in 0..keyed.len() {
                let mut index = keyed[i].3 as usize;
                while index < i {
                    index = keyed[index].3 as usize;
                }
                keyed[i].3 = index as u32;
                records.swap(i, index);
            }
        }

        // Global invocation counts are a pure function of the canonical
        // order; assigning them up front lets the sharded executor know
        // every job's identity before any behavior runs.
        let mut counts = vec![0u64; net.process_count()];
        for rec in records.iter_mut() {
            if rec.skipped {
                continue;
            }
            let c = &mut counts[rec.process.index()];
            *c += 1;
            rec.global_k = *c;
        }
    }

    /// Sorts the records canonically, runs the behaviors (sequentially, or
    /// sharded across `behavior_workers` threads when non-zero), renders
    /// the Gantt and accumulates the statistics.
    ///
    /// The canonical order `(completion, frame, topological position)` is a
    /// *total* order on rounds (the topological position is unique per job
    /// within a frame), so the result is independent of the order in which
    /// a round loop produced the records (computed, replayed, or the
    /// oracle's) — the keystone of the bit-identity contract. Every record
    /// exists before the first behavior fires.
    pub(crate) fn finalize(
        &self,
        net: &Fppn,
        bank: &BehaviorBank,
        stimuli: &Stimuli,
        mut records: Vec<JobRecord>,
        behavior_workers: usize,
    ) -> Result<SimRun, SimError> {
        self.canonicalize(net, &mut records);

        // Execute behaviors in the precedence-consistent canonical order:
        // sharded over the worker pool when requested and expressible,
        // else through the sequential store.
        let observables = if behavior_workers > 0 && SharedChannels::supports(net) {
            crate::behavior::run_behaviors_sharded(
                net,
                bank,
                stimuli,
                &records,
                behavior_workers,
                self.cancel,
            )?
        } else {
            let mut behaviors = bank.instantiate();
            let mut state = ExecState::new(net, stimuli);
            for (done, rec) in records.iter().enumerate() {
                // Behaviors are where wall-clock time actually goes, so the
                // data plane polls per job — the round loop's per-scan check
                // alone would never interrupt a slow behavior.
                if self.cancelled() {
                    return Err(SimError::Cancelled {
                        completed_rounds: done,
                    });
                }
                if rec.skipped {
                    continue;
                }
                state.run_job(&mut behaviors, rec.process, rec.global_k, rec.invoked_at)?;
            }
            state.into_observables()
        };
        Ok(self.render(net, records, observables))
    }

    /// Renders the [`SimRun`] from canonically-ordered records (with
    /// `global_k` assigned) and already-computed observables: the Gantt,
    /// then the aggregate statistics.
    fn render(
        &self,
        net: &Fppn,
        records: Vec<JobRecord>,
        observables: Observables,
    ) -> SimRun {
        // Gantt: application rows + a runtime row when overhead is modeled.
        let overhead_row = (!self.overhead.is_none()) as usize;
        let mut gantt = Gantt::new(self.m_procs + overhead_row);
        // `name[k]@frame`, assembled by hand: one `format!` per segment is
        // measurable at hundreds of thousands of rounds.
        fn push_u64(out: &mut String, mut v: u64) {
            let mut buf = [0u8; 20];
            let mut i = buf.len();
            loop {
                i -= 1;
                buf[i] = b'0' + (v % 10) as u8;
                v /= 10;
                if v == 0 {
                    break;
                }
            }
            out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
        }
        for rec in &records {
            if rec.skipped {
                continue;
            }
            let name = net.process(rec.process).name();
            let mut label = String::with_capacity(name.len() + 24);
            label.push_str(name);
            label.push('[');
            push_u64(&mut label, rec.global_k);
            label.push_str("]@");
            push_u64(&mut label, rec.frame);
            gantt.push(Segment {
                processor: rec.processor,
                label,
                start: rec.start,
                end: rec.completion,
                kind: SegmentKind::Job,
            });
        }
        if overhead_row == 1 {
            for f in 0..self.frames {
                let base = TimeQ::from_int(f as i64) * self.h;
                gantt.push(Segment {
                    processor: self.m_procs,
                    label: format!("runtime@{f}"),
                    start: base,
                    end: base + self.overhead.frame_overhead(f),
                    kind: SegmentKind::Overhead,
                });
            }
        }

        let mut stats = SimStats::default();
        for rec in &records {
            if rec.skipped {
                stats.skipped += 1;
                continue;
            }
            stats.executed += 1;
            stats.makespan = stats.makespan.max(rec.completion);
            if rec.missed {
                stats.deadline_misses += 1;
                stats.max_lateness =
                    stats.max_lateness.max(rec.completion - rec.deadline);
            }
        }

        SimRun {
            observables,
            gantt,
            records,
            stats,
        }
    }
}

/// Simulates `config.frames` frames of the static-order policy: compiles
/// the round tables for `schedule`, then runs them (the one-shot form of
/// [`CompiledNetwork::simulate`](crate::CompiledNetwork::simulate)).
///
/// # Errors
///
/// Returns [`SimError`] on an invalid config or stimuli, behavior
/// failures, or a deadlocked (structurally invalid) schedule.
pub fn simulate(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    derived: &DerivedTaskGraph,
    schedule: &StaticSchedule,
    config: &SimConfig,
) -> Result<SimRun, SimError> {
    let tables = StaticTables::build(net, derived, schedule);
    run(net, bank, stimuli, derived, &tables, config, None, None)
}

/// One run against borrowed compile-phase tables: bind the round engine,
/// compute every round, then canonicalize, run the behaviors on the data
/// plane `config.behavior_workers` selects, and render. Every public entry
/// point is a wrapper over this.
///
/// With a caller-owned `scratch` the round buffers and memo entries stay
/// warm for the next run (the records move into the returned [`SimRun`]);
/// without one they are freed before the behaviors run, so a one-shot run
/// holds no round table it no longer needs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    derived: &DerivedTaskGraph,
    tables: &StaticTables,
    config: &SimConfig,
    scratch: Option<&mut RoundScratch>,
    cancel: Option<&CancelToken>,
) -> Result<SimRun, SimError> {
    let mut engine = RoundEngine::new(net, stimuli, derived, tables, config)?;
    if let Some(token) = cancel {
        engine.set_cancel(token);
    }
    let records = match scratch {
        Some(scratch) => {
            engine.compute_rounds_into(scratch, None)?;
            std::mem::take(&mut scratch.records)
        }
        None => {
            let mut scratch = RoundScratch::new();
            engine.compute_rounds_into(&mut scratch, None)?;
            scratch.records
        }
    };
    engine.finalize(net, bank, stimuli, records, config.behavior_workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{
        run_zero_delay, ChannelKind, EventSpec, FppnBuilder, JobCtx, JobOrdering, PortId,
        ProcessSpec, SporadicTrace, Value,
    };
    use fppn_sched::{list_schedule, Heuristic};
    use fppn_taskgraph::{derive_task_graph, WcetModel};

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    /// input(200ms) -> filter(100ms) -> output(200ms), FIFO chain.
    fn chain_app() -> (Fppn, BehaviorBank) {
        let mut b = FppnBuilder::new();
        let input = b.process(ProcessSpec::new("input", EventSpec::periodic(ms(200))));
        let filter = b.process(ProcessSpec::new("filter", EventSpec::periodic(ms(100))));
        let output =
            b.process(ProcessSpec::new("output", EventSpec::periodic(ms(200))).with_output("o"));
        let c1 = b.channel("c1", input, filter, ChannelKind::Fifo);
        let c2 = b.channel("c2", filter, output, ChannelKind::Fifo);
        b.priority(input, filter);
        b.priority(filter, output);
        b.behavior(input, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| ctx.write(c1, Value::Int(ctx.k() as i64)))
        });
        b.behavior(filter, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                if let Some(Value::Int(v)) = ctx.read(c1) {
                    ctx.write(c2, Value::Int(v * 10));
                }
            })
        });
        b.behavior(output, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                let v = ctx.read_value(c2);
                ctx.write_output(PortId::from_index(0), v);
            })
        });
        let (net, bank) = b.build().unwrap();
        (net, bank)
    }

    #[test]
    fn simulation_matches_zero_delay_reference() {
        let (net, bank) = chain_app();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let frames = 3;
        let config = SimConfig {
            frames,
            ..SimConfig::default()
        };
        let run = simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config).unwrap();

        let mut behaviors = bank.instantiate();
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let reference = run_zero_delay(
            &net,
            &mut behaviors,
            &Stimuli::new(),
            horizon,
            JobOrdering::default(),
        )
        .unwrap();
        assert_eq!(run.observables.diff(&reference.observables), None);
        assert_eq!(run.stats.deadline_misses, 0);
        assert_eq!(run.stats.executed, 3 * 4); // 4 jobs per 200ms frame
    }

    #[test]
    fn jitter_execution_still_meets_deadlines_and_is_deterministic() {
        // Prop. 4.1: with a feasible schedule and exec times <= WCET,
        // deadlines hold and observables match the reference.
        let (net, bank) = chain_app();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(30))).unwrap();
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        assert!(schedule.check_feasible(&derived.graph).is_ok());
        for seed in 0..5 {
            let config = SimConfig {
                frames: 4,
                exec_time: ExecTimeModel::typical_jitter(seed),
                ..SimConfig::default()
            };
            let run =
                simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config).unwrap();
            assert_eq!(run.stats.deadline_misses, 0, "seed {seed}");
            let mut behaviors = bank.instantiate();
            let horizon = TimeQ::from_int(4) * derived.hyperperiod;
            let reference = run_zero_delay(
                &net,
                &mut behaviors,
                &Stimuli::new(),
                horizon,
                JobOrdering::default(),
            )
            .unwrap();
            assert_eq!(run.observables.diff(&reference.observables), None);
        }
    }

    /// user(200ms) with sporadic cfg (2 per 700ms) writing a blackboard.
    fn sporadic_app(cfg_priority: bool) -> (Fppn, BehaviorBank, ProcessId) {
        let mut b = FppnBuilder::new();
        let user =
            b.process(ProcessSpec::new("user", EventSpec::periodic(ms(200))).with_output("o"));
        let cfg = b.process(ProcessSpec::new("cfg", EventSpec::sporadic(2, ms(700))));
        let ch = b.channel("c", cfg, user, ChannelKind::Blackboard);
        if cfg_priority {
            b.priority(cfg, user);
        } else {
            b.priority(user, cfg);
        }
        b.behavior(cfg, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| ctx.write(ch, Value::Int(100 * ctx.k() as i64)))
        });
        b.behavior(user, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                let v = ctx.read_value(ch);
                ctx.write_output(PortId::from_index(0), v);
            })
        });
        let (net, bank) = b.build().unwrap();
        (net, bank, cfg)
    }

    #[test]
    fn sporadic_slots_execute_and_match_reference() {
        for cfg_priority in [true, false] {
            let (net, bank, cfg) = sporadic_app(cfg_priority);
            let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
            let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
            let frames = 5;
            let mut stimuli = Stimuli::new();
            stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(50), ms(400), ms(750)]));
            let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);
            let config = SimConfig {
                frames,
                ..SimConfig::default()
            };
            let run = simulate(&net, &bank, &stimuli, &derived, &schedule, &config).unwrap();
            // 3 arrivals executed; 2 slots per frame x 5 frames = 10 slots,
            // so 7 were skipped as false.
            assert_eq!(run.stats.skipped, 7, "priority {cfg_priority}");
            let mut behaviors = bank.instantiate();
            let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
            let reference =
                run_zero_delay(&net, &mut behaviors, &stimuli, horizon, JobOrdering::default())
                    .unwrap();
            assert_eq!(
                run.observables.diff(&reference.observables),
                None,
                "priority {cfg_priority}"
            );
        }
    }

    #[test]
    fn boundary_rule_differs_at_exact_window_close() {
        // An arrival exactly at a window boundary b = 200 is handled by the
        // subset at 200 when cfg -> user, but postponed when user -> cfg.
        // In both cases the observables match the zero-delay reference
        // (where the same tie is broken by FP at execution time).
        for cfg_priority in [true, false] {
            let (net, bank, cfg) = sporadic_app(cfg_priority);
            let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
            let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
            let frames = 4;
            let mut stimuli = Stimuli::new();
            stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(200)]));
            let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);
            let config = SimConfig {
                frames,
                ..SimConfig::default()
            };
            let run = simulate(&net, &bank, &stimuli, &derived, &schedule, &config).unwrap();
            let mut behaviors = bank.instantiate();
            let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
            let reference =
                run_zero_delay(&net, &mut behaviors, &stimuli, horizon, JobOrdering::default())
                    .unwrap();
            assert_eq!(
                run.observables.diff(&reference.observables),
                None,
                "priority {cfg_priority}"
            );
            // The user job at 200 sees the config value iff cfg has
            // priority.
            let out = &run.observables.outputs[0].1;
            let user_job_2 = &out[1].1; // user[2] invoked at 200
            if cfg_priority {
                assert_eq!(user_job_2, &Value::Int(100));
            } else {
                assert_eq!(user_job_2, &Value::Absent);
            }
        }
    }

    #[test]
    fn overhead_delays_starts_and_causes_misses_on_tight_load() {
        let (net, bank) = chain_app();
        // filter: 100ms period & deadline; WCET 45ms x2 + others on one
        // processor with 30ms overhead => frame jobs squeezed.
        let mut wcet = WcetModel::uniform(ms(45));
        let _ = &mut wcet;
        let derived = derive_task_graph(&net, &wcet).unwrap();
        let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
        let base = SimConfig {
            frames: 3,
            ..SimConfig::default()
        };
        let no_overhead = simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &base)
            .unwrap();
        let with_overhead = simulate(
            &net,
            &bank,
            &Stimuli::new(),
            &derived,
            &schedule,
            &SimConfig {
                overhead: OverheadModel::constant(ms(30)),
                ..base
            },
        )
        .unwrap();
        assert!(no_overhead.stats.deadline_misses < with_overhead.stats.deadline_misses);
        // Overhead row appears in the Gantt.
        assert_eq!(with_overhead.gantt.processors(), 2);
        assert_eq!(no_overhead.gantt.processors(), 1);
        // Determinism holds even under overload.
        let mut behaviors = bank.instantiate();
        let horizon = TimeQ::from_int(3) * derived.hyperperiod;
        let reference = run_zero_delay(
            &net,
            &mut behaviors,
            &Stimuli::new(),
            horizon,
            JobOrdering::default(),
        )
        .unwrap();
        assert_eq!(with_overhead.observables.diff(&reference.observables), None);
    }

    #[test]
    fn stats_accumulate() {
        let (net, bank) = chain_app();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
        let run = simulate(
            &net,
            &bank,
            &Stimuli::new(),
            &derived,
            &schedule,
            &SimConfig {
                frames: 2,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert_eq!(run.stats.executed, 8);
        assert_eq!(run.stats.skipped, 0);
        assert!(run.stats.makespan <= TimeQ::from_int(2) * derived.hyperperiod);
        assert_eq!(run.records.len(), 8);
    }

    #[test]
    fn workers_field_resolution() {
        // The default is the sequential store; any thread budget routes to
        // the sharded data plane and must change nothing observable.
        assert_eq!(SimConfig::default().behavior_workers, 0);
        let (net, bank) = chain_app();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let base = SimConfig {
            frames: 3,
            ..SimConfig::default()
        };
        let seq = simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &base).unwrap();
        for behavior_workers in [1usize, 3] {
            let sharded = simulate(
                &net,
                &bank,
                &Stimuli::new(),
                &derived,
                &schedule,
                &SimConfig {
                    behavior_workers,
                    ..base
                },
            )
            .unwrap();
            assert_eq!(seq.records, sharded.records, "{behavior_workers} workers");
            assert_eq!(seq.observables, sharded.observables, "{behavior_workers} workers");
            assert_eq!(seq.gantt, sharded.gantt, "{behavior_workers} workers");
        }
    }

    #[test]
    fn invalid_exec_time_model_is_a_typed_error() {
        let (net, bank) = chain_app();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
        let config = SimConfig {
            exec_time: ExecTimeModel::Scaled { num: 1, den: 0 },
            ..SimConfig::default()
        };
        match simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config) {
            Err(SimError::InvalidConfig(msg)) => assert!(msg.contains("den > 0"), "{msg}"),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|r| r.stats)),
        }
    }

    #[test]
    fn unholdable_frame_count_is_a_typed_error() {
        // One job per frame: 2^60 frames need 2^65 bytes for one time slab,
        // past `isize::MAX`, so the reservation is refused on any host
        // without asking the allocator.
        let mut b = FppnBuilder::new();
        b.process(ProcessSpec::new("p", EventSpec::periodic(ms(100))));
        let (net, bank) = b.build().unwrap();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let schedule = list_schedule(&derived.graph, 1, Heuristic::AlapEdf);
        let config = SimConfig {
            frames: 1 << 60,
            ..SimConfig::default()
        };
        match simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config) {
            Err(SimError::InvalidConfig(msg)) => assert!(msg.contains("round-table"), "{msg}"),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|r| r.stats)),
        }
    }
}
