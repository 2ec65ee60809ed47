//! Sharded data-plane stores for parallel behavior execution.
//!
//! [`ExecState`](crate::ExecState) funnels every job's data effects through
//! one `&mut` store, which serializes behavior execution no matter how the
//! surrounding scheduler/simulator parallelizes. The paper's own model makes
//! the data plane shardable: Def. 2.1 gives every channel **exactly one
//! writer and one reader**, so the channel graph is a Kahn-style ownership
//! structure in which jobs touching disjoint channel sets commute.
//!
//! This module splits the store along process boundaries:
//!
//! * each [`ProcessShard`] owns its process's job counter, external-output
//!   log, the full [`ChannelState`] of every **self-loop** channel of the
//!   process, and a private staging buffer for the channels it writes;
//! * each cross-process channel lives in the [`SharedChannels`] table as an
//!   append-only write log, segmented by writer job: the writer commits its
//!   staged writes at job end and records the cumulative write count, so a
//!   reader that knows *how many writer jobs precede it* in the canonical
//!   execution order can reconstruct exactly the FIFO/blackboard contents
//!   the sequential executor would have observed — independent of how far
//!   the writer has raced ahead physically.
//!
//! The synchronization protocol (who may read when) is the executor's
//! business — `fppn-sim` rendezvouses on per-process progress counters —
//! but the *determinism* argument lives here: every read depends only on
//! `(visible writer-job count, reader-local cursor, committed log prefix)`,
//! all of which are functions of the canonical order, not of thread timing.
//!
//! Bounded-capacity FIFOs between distinct processes are the one construct
//! that cannot shard: the full-queue panic depends on how many samples the
//! reader has already popped, which a decoupled writer cannot know. Use
//! [`SharedChannels::supports`] to detect such networks and fall back to the
//! sequential store (self-loop capacities are fine — they stay shard-local).

use std::collections::BTreeMap;
use std::sync::Mutex;

use fppn_time::TimeQ;

use crate::channel::{ChannelKind, ChannelState};
use crate::error::ExecError;
use crate::exec::Stimuli;
use crate::ids::{ChannelId, PortId, ProcessId};
use crate::network::Fppn;
use crate::process::{BoxedBehavior, DataAccess, JobCtx};
use crate::trace::Observables;
use crate::value::Value;

/// Append-only write log of one cross-process channel, segmented by
/// committed writer job.
#[derive(Debug, Default)]
struct ChannelLog {
    /// Every write, in writer-job order (within a job: program order).
    values: Vec<Value>,
    /// `job_end[j]` = total writes after the writer's `(j+1)`-th executed
    /// job committed. One entry per executed writer job, even write-free
    /// ones, so a reader can translate "first `J` writer jobs" into a
    /// value-prefix length.
    job_end: Vec<usize>,
}

impl ChannelLog {
    /// Writes visible to a reader once the writer's first `visible_jobs`
    /// executed jobs have committed.
    fn visible_writes(&self, visible_jobs: u64) -> usize {
        if visible_jobs == 0 {
            0
        } else {
            self.job_end[visible_jobs as usize - 1]
        }
    }
}

/// The shared half of the sharded store: one lock-protected append-only
/// log per cross-process channel (self-loop channels stay shard-local).
///
/// Lock contention is per channel and involves exactly two parties — the
/// unique writer (one short batch append per job) and the unique reader.
pub struct SharedChannels {
    /// Indexed by [`ChannelId`]; `None` for self-loop channels.
    logs: Vec<Option<Mutex<ChannelLog>>>,
}

impl SharedChannels {
    /// Whether a network's data plane can shard: every bounded-capacity
    /// FIFO must be a self-loop (see the module docs for why). Capacity
    /// bounds on blackboards are irrelevant — [`ChannelState`] documents
    /// and implements them as ignored — so they do not block sharding.
    pub fn supports(net: &Fppn) -> bool {
        net.channels().iter().all(|c| {
            c.kind() != ChannelKind::Fifo || c.capacity().is_none() || c.is_self_loop()
        })
    }

    /// Creates the shared channel table for a network.
    ///
    /// # Panics
    ///
    /// Panics if [`SharedChannels::supports`] is false for `net`; callers
    /// gate on it and fall back to the sequential store.
    pub fn new(net: &Fppn) -> Self {
        assert!(
            Self::supports(net),
            "bounded-capacity cross-process FIFOs cannot shard; \
             check SharedChannels::supports before constructing"
        );
        SharedChannels {
            logs: net
                .channels()
                .iter()
                .map(|c| (!c.is_self_loop()).then(|| Mutex::new(ChannelLog::default())))
                .collect(),
        }
    }

    fn log(&self, ch: ChannelId) -> &Mutex<ChannelLog> {
        self.logs[ch.index()]
            .as_ref()
            .expect("self-loop channels are shard-local, not shared")
    }

    /// Drains the per-channel write logs (self-loops `None`). Called once
    /// at merge time, after every writer committed its last job.
    fn drain_logs(&self) -> Vec<Option<Vec<Value>>> {
        self.logs
            .iter()
            .map(|l| {
                l.as_ref().map(|m| {
                    std::mem::take(&mut m.lock().expect("channel log lock poisoned").values)
                })
            })
            .collect()
    }
}

/// A shard's relationship to one channel.
#[derive(Debug, Clone, Copy)]
enum ChannelRole {
    /// Self-loop: full sequential semantics, shard-local state + log.
    Local(usize),
    /// Cross-process channel this shard reads: index into the cursor table.
    ReadShared(usize),
    /// Cross-process channel this shard writes: index into the staging table.
    WriteShared(usize),
}

/// One entry of a shard's read table.
#[derive(Debug)]
struct ReadEntry {
    ch: ChannelId,
    kind: ChannelKind,
    initial: Option<Value>,
    /// FIFO pop cursor over `[initial…] ++ shared log` (unused for
    /// blackboards).
    cursor: usize,
    /// Executed writer jobs visible to the *current* job of this shard
    /// (set by [`ProcessShard::begin_job`]).
    visible_jobs: u64,
}

/// The per-process half of the sharded store.
///
/// Implements [`DataAccess`] for exactly one process: behaviors run against
/// it unchanged. Jobs are bracketed by [`ProcessShard::begin_job`] /
/// commit inside [`ProcessShard::run_job`]; the executor must not begin a
/// job before the visibility contract holds (every channel's writer has
/// *committed* at least the job's `visible_jobs`).
pub struct ProcessShard<'n> {
    net: &'n Fppn,
    stimuli: &'n Stimuli,
    shared: &'n SharedChannels,
    pid: ProcessId,
    /// Per-channel roles, indexed by `ChannelId` (only this process's
    /// channels are populated).
    roles: BTreeMap<u32, ChannelRole>,
    /// Cross-process channels this process reads, `ChannelId`-ascending.
    reads: Vec<ReadEntry>,
    /// Cross-process channels this process writes, `ChannelId`-ascending,
    /// with the staged (uncommitted) writes of the current job.
    writes: Vec<(ChannelId, Vec<Value>)>,
    /// Self-loop channels: live state plus the shard-local write log.
    local: Vec<(ChannelId, ChannelState, Vec<Value>)>,
    outputs: BTreeMap<(ProcessId, PortId), Vec<(u64, Value)>>,
    executed: u64,
    current_k: u64,
}

impl<'n> ProcessShard<'n> {
    fn new(net: &'n Fppn, stimuli: &'n Stimuli, shared: &'n SharedChannels, pid: ProcessId) -> Self {
        let mut roles = BTreeMap::new();
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        let mut local = Vec::new();
        // Channel ids ascend, so each role table is ChannelId-sorted.
        for (i, spec) in net.channels().iter().enumerate() {
            let ch = ChannelId::from_index(i);
            if spec.is_self_loop() {
                if spec.writer() == pid {
                    roles.insert(ch.index() as u32, ChannelRole::Local(local.len()));
                    local.push((ch, ChannelState::new(spec), Vec::new()));
                }
                continue;
            }
            if spec.reader() == pid {
                roles.insert(ch.index() as u32, ChannelRole::ReadShared(reads.len()));
                reads.push(ReadEntry {
                    ch,
                    kind: spec.kind(),
                    initial: spec.initial().cloned(),
                    cursor: 0,
                    visible_jobs: 0,
                });
            }
            if spec.writer() == pid {
                roles.insert(ch.index() as u32, ChannelRole::WriteShared(writes.len()));
                writes.push((ch, Vec::new()));
            }
        }
        ProcessShard {
            net,
            stimuli,
            shared,
            pid,
            roles,
            reads,
            writes,
            local,
            outputs: BTreeMap::new(),
            executed: 0,
            current_k: 0,
        }
    }

    /// The process this shard owns.
    pub fn process(&self) -> ProcessId {
        self.pid
    }

    /// Jobs executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The cross-process channels this shard reads, `ChannelId`-ascending —
    /// the order in which [`ProcessShard::run_job`] expects per-channel
    /// visibility counts.
    pub fn read_channels(&self) -> impl Iterator<Item = ChannelId> + '_ {
        self.reads.iter().map(|r| r.ch)
    }

    fn begin_job(&mut self, k: u64, visible_jobs: &[u64]) {
        assert_eq!(
            k,
            self.executed + 1,
            "job {}[{k}] executed out of order (expected k = {})",
            self.net.process(self.pid).name(),
            self.executed + 1
        );
        assert_eq!(
            visible_jobs.len(),
            self.reads.len(),
            "visibility counts must align with read_channels()"
        );
        for (entry, &v) in self.reads.iter_mut().zip(visible_jobs) {
            debug_assert!(v >= entry.visible_jobs, "visibility is monotone");
            entry.visible_jobs = v;
        }
        self.current_k = k;
    }

    /// Commits the current job: staged cross-process writes are appended to
    /// the shared logs (one `job_end` mark per written channel), and the
    /// job counter advances. After this returns — and only after — the
    /// executor may publish this shard's progress to readers.
    fn commit_job(&mut self) {
        for (ch, staged) in self.writes.iter_mut() {
            let mut log = self
                .shared
                .log(*ch)
                .lock()
                .expect("channel log lock poisoned");
            log.values.append(staged);
            let end = log.values.len();
            log.job_end.push(end);
        }
        self.executed = self.current_k;
    }

    /// Runs job `p[k]` at timestamp `now`, with `visible_jobs[i]` committed
    /// writer jobs visible on the `i`-th channel of
    /// [`ProcessShard::read_channels`].
    ///
    /// `k` must be exactly one past the jobs already executed (same-process
    /// precedence), and the executor must guarantee each read channel's
    /// writer has committed at least `visible_jobs[i]` jobs before calling.
    ///
    /// # Errors
    ///
    /// Propagates behavior failures; the job is still committed (matching
    /// the sequential executor, which logs the partial actions of a failed
    /// job before surfacing the error).
    ///
    /// # Panics
    ///
    /// Panics on out-of-order `k` or endpoint-ownership violations — caller
    /// logic bugs, not recoverable conditions.
    pub fn run_job(
        &mut self,
        behavior: &mut BoxedBehavior,
        k: u64,
        now: TimeQ,
        visible_jobs: &[u64],
    ) -> Result<(), ExecError> {
        self.begin_job(k, visible_jobs);
        let pid = self.pid;
        let result = {
            let mut ctx = JobCtx::new(self, pid, k, now);
            behavior.on_job(&mut ctx)
        };
        self.commit_job();
        result
    }

    fn role(&self, ch: ChannelId) -> Option<ChannelRole> {
        self.roles.get(&(ch.index() as u32)).copied()
    }
}

impl DataAccess for ProcessShard<'_> {
    fn read_channel(&mut self, pid: ProcessId, ch: ChannelId) -> Option<Value> {
        let spec = self.net.channel(ch);
        assert!(
            spec.reader() == pid && pid == self.pid,
            "process {} read from channel {:?} whose reader is {}",
            self.net.process(pid).name(),
            spec.name(),
            self.net.process(spec.reader()).name()
        );
        match self.role(ch) {
            Some(ChannelRole::Local(i)) => self.local[i].1.read(),
            Some(ChannelRole::ReadShared(i)) => {
                let entry = &mut self.reads[i];
                let log = self
                    .shared
                    .log(ch)
                    .lock()
                    .expect("channel log lock poisoned");
                let visible = log.visible_writes(entry.visible_jobs);
                match entry.kind {
                    ChannelKind::Fifo => {
                        // Conceptual queue = [initial…] ++ visible log
                        // prefix; the cursor counts this reader's pops.
                        let init = usize::from(entry.initial.is_some());
                        if entry.cursor < init {
                            entry.cursor += 1;
                            entry.initial.clone()
                        } else if entry.cursor - init < visible {
                            let v = log.values[entry.cursor - init].clone();
                            entry.cursor += 1;
                            Some(v)
                        } else {
                            None
                        }
                    }
                    ChannelKind::Blackboard => {
                        if visible > 0 {
                            Some(log.values[visible - 1].clone())
                        } else {
                            entry.initial.clone()
                        }
                    }
                }
            }
            _ => unreachable!("reader role exists for every read endpoint"),
        }
    }

    fn write_channel(&mut self, pid: ProcessId, ch: ChannelId, value: Value) {
        let spec = self.net.channel(ch);
        assert!(
            spec.writer() == pid && pid == self.pid,
            "process {} wrote to channel {:?} whose writer is {}",
            self.net.process(pid).name(),
            spec.name(),
            self.net.process(spec.writer()).name()
        );
        match self.role(ch) {
            Some(ChannelRole::Local(i)) => {
                let (_, state, local_log) = &mut self.local[i];
                state.write(value.clone());
                local_log.push(value);
            }
            Some(ChannelRole::WriteShared(i)) => self.writes[i].1.push(value),
            _ => unreachable!("writer role exists for every write endpoint"),
        }
    }

    fn read_external(&mut self, pid: ProcessId, port: PortId, k: u64) -> Option<Value> {
        assert!(
            port.index() < self.net.process(pid).input_ports().len(),
            "process {} read from undeclared input {port}",
            self.net.process(pid).name()
        );
        self.stimuli.input_sample_ref(pid, port, k).cloned()
    }

    fn write_external(&mut self, pid: ProcessId, port: PortId, k: u64, value: Value) {
        assert!(
            port.index() < self.net.process(pid).output_ports().len(),
            "process {} wrote to undeclared output {port}",
            self.net.process(pid).name()
        );
        self.outputs.entry((pid, port)).or_default().push((k, value));
    }
}

/// Coordinator for one sharded execution: builds the shard set and merges
/// the shard-local results back into the canonical [`Observables`] shape
/// the sequential executor produces.
pub struct ShardedExec<'n> {
    net: &'n Fppn,
    shared: SharedChannels,
}

impl<'n> ShardedExec<'n> {
    /// Creates the coordinator (panics if [`SharedChannels::supports`] is
    /// false for `net`; gate on it first).
    pub fn new(net: &'n Fppn) -> Self {
        ShardedExec {
            shared: SharedChannels::new(net),
            net,
        }
    }

    /// Builds one shard per process. Shards borrow the coordinator's shared
    /// channel table; each is `Send` and meant to move to a worker.
    pub fn shards<'s>(&'s self, stimuli: &'s Stimuli) -> Vec<ProcessShard<'s>> {
        self.net
            .process_ids()
            .map(|pid| ProcessShard::new(self.net, stimuli, &self.shared, pid))
            .collect()
    }

    /// Merges the shards back into sequential-shaped observables.
    ///
    /// # Panics
    ///
    /// Panics if a shard is missing or duplicated.
    pub fn merge(&self, shards: Vec<ProcessShard<'_>>) -> Observables {
        let n = self.net.process_count();
        assert_eq!(shards.len(), n, "one shard per process required");
        let mut by_pid: Vec<Option<ProcessShard<'_>>> = (0..n).map(|_| None).collect();
        for s in shards {
            let slot = &mut by_pid[s.pid.index()];
            assert!(slot.replace(s).is_none(), "duplicate shard");
        }
        let mut shards: Vec<ProcessShard<'_>> =
            by_pid.into_iter().map(|s| s.expect("missing shard")).collect();

        // Channels: shared logs are already in writer-job (= canonical
        // write) order; self-loop logs come from the owning shard.
        let mut channels: Vec<Vec<Value>> = self
            .shared
            .drain_logs()
            .into_iter()
            .map(|l| l.unwrap_or_default())
            .collect();
        for shard in &mut shards {
            for (ch, _, local_log) in shard.local.iter_mut() {
                channels[ch.index()] = std::mem::take(local_log);
            }
        }

        // Outputs: per-process maps have disjoint keys; a BTreeMap union
        // yields the canonical sorted OutputLog.
        let mut outputs: BTreeMap<(ProcessId, PortId), Vec<(u64, Value)>> = BTreeMap::new();
        for shard in &mut shards {
            outputs.append(&mut shard.outputs);
        }

        Observables {
            channels,
            outputs: outputs.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelKind;
    use crate::event::EventSpec;
    use crate::exec::ExecState;
    use crate::network::{BehaviorBank, FppnBuilder};
    use crate::process::ProcessSpec;

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    /// src --fifo--> mid --blackboard--> dst, plus a self-loop accumulator
    /// on mid and an external output on dst.
    fn app() -> (Fppn, BehaviorBank, [ChannelId; 3]) {
        let mut b = FppnBuilder::new();
        let src = b.process(ProcessSpec::new("src", EventSpec::periodic(ms(100))));
        let mid = b.process(ProcessSpec::new("mid", EventSpec::periodic(ms(100))));
        let dst =
            b.process(ProcessSpec::new("dst", EventSpec::periodic(ms(100))).with_output("o"));
        let c1 = b.channel("c1", src, mid, ChannelKind::Fifo);
        let state = b.channel_spec(
            crate::channel::ChannelSpec::new("state", mid, mid, ChannelKind::Blackboard)
                .with_initial(Value::Int(100)),
        );
        let c2 = b.channel("c2", mid, dst, ChannelKind::Blackboard);
        b.priority(src, mid);
        b.priority(mid, dst);
        b.behavior(src, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                ctx.write(c1, Value::Int(ctx.k() as i64));
                ctx.write(c1, Value::Int(-(ctx.k() as i64)));
            })
        });
        b.behavior(mid, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                let mut acc = match ctx.read(state) {
                    Some(Value::Int(a)) => a,
                    _ => 0,
                };
                while let Some(Value::Int(v)) = ctx.read(c1) {
                    acc += v * 3;
                }
                ctx.write(state, Value::Int(acc + 1));
                ctx.write(c2, Value::Int(acc));
            })
        });
        b.behavior(dst, move || {
            Box::new(move |ctx: &mut JobCtx<'_>| {
                let v = ctx.read_value(c2);
                ctx.write_output(PortId::from_index(0), v);
            })
        });
        let (net, bank) = b.build().unwrap();
        (net, bank, [c1, state, c2])
    }

    /// Runs the same job sequence through ExecState and through shards with
    /// the sequentially-exact visibility counts, and compares everything.
    #[test]
    fn shards_replay_the_sequential_execution_bit_identically() {
        let (net, bank, _) = app();
        let src = net.process_by_name("src").unwrap();
        let mid = net.process_by_name("mid").unwrap();
        let dst = net.process_by_name("dst").unwrap();
        // Canonical order with interleavings that exercise FIFO backlog
        // (src runs twice before mid) and blackboard staleness.
        let order = [src, src, mid, dst, src, mid, mid, dst, dst];

        let mut behaviors = bank.instantiate();
        let stimuli = Stimuli::new();
        let mut seq = ExecState::new(&net, &stimuli);
        for (i, &pid) in order.iter().enumerate() {
            seq.run_next_job(&mut behaviors, pid, ms(i as i64))
                .unwrap_or_else(|e| panic!("sequential job {i} ({:?}) failed: {e}", pid));
        }

        let stimuli = Stimuli::new();
        let exec = ShardedExec::new(&net);
        let mut shards = exec.shards(&stimuli);
        let mut behaviors = bank.instantiate();
        let mut executed = vec![0u64; net.process_count()];
        for (i, &pid) in order.iter().enumerate() {
            // Visibility = executed jobs of each read channel's writer so
            // far in the canonical prefix — exactly the rendezvous target.
            let visible: Vec<u64> = shards[pid.index()]
                .read_channels()
                .map(|ch| executed[net.channel(ch).writer().index()])
                .collect();
            executed[pid.index()] += 1;
            let k = executed[pid.index()];
            shards[pid.index()]
                .run_job(&mut behaviors[pid.index()], k, ms(i as i64), &visible)
                .unwrap();
        }
        let obs = exec.merge(shards);
        assert_eq!(seq.observables().diff(&obs), None);
        assert_eq!(seq.observables(), obs);
    }

    /// A reader whose writer raced ahead must still see only its visible
    /// prefix — the crux of out-of-(wall-clock-)order determinism.
    #[test]
    fn visibility_prefix_hides_raced_ahead_writes() {
        let (net, bank, _) = app();
        let src = net.process_by_name("src").unwrap();
        let mid = net.process_by_name("mid").unwrap();
        let stimuli = Stimuli::new();
        let exec = ShardedExec::new(&net);
        let mut shards = exec.shards(&stimuli);
        let mut behaviors = bank.instantiate();
        // src races 3 jobs ahead.
        for k in 1..=3 {
            shards[src.index()]
                .run_job(&mut behaviors[src.index()], k, ms(0), &[])
                .unwrap();
        }
        // mid's first job is canonically ordered after only src[1]: it must
        // drain exactly src[1]'s two samples (1, -1), not all six.
        // acc = 100 + 1*3 + (-1)*3 = 100; state := 101; c2 := 100.
        shards[mid.index()]
            .run_job(&mut behaviors[mid.index()], 1, ms(0), &[1])
            .unwrap();
        let obs = exec.merge(shards);
        let c2 = net.channel_by_name("c2").unwrap();
        assert_eq!(obs.channels[c2.index()], vec![Value::Int(100)]);
    }

    #[test]
    fn supports_rejects_bounded_cross_process_fifos_only() {
        let mut b = FppnBuilder::new();
        let a = b.process(ProcessSpec::new("a", EventSpec::periodic(ms(1))));
        let c = b.process(ProcessSpec::new("c", EventSpec::periodic(ms(1))));
        b.channel_spec(
            crate::channel::ChannelSpec::new("x", a, c, ChannelKind::Fifo)
                .with_capacity(std::num::NonZeroUsize::new(2).unwrap()),
        );
        b.priority(a, c);
        let (net, _) = b.build().unwrap();
        assert!(!SharedChannels::supports(&net));

        let mut b = FppnBuilder::new();
        let a = b.process(ProcessSpec::new("a", EventSpec::periodic(ms(1))));
        b.channel_spec(
            crate::channel::ChannelSpec::new("loop", a, a, ChannelKind::Fifo)
                .with_capacity(std::num::NonZeroUsize::new(2).unwrap()),
        );
        let (net, _) = b.build().unwrap();
        assert!(SharedChannels::supports(&net));

        // A capacity on a cross-process *blackboard* is ignored by
        // ChannelState and must not disable sharding.
        let mut b = FppnBuilder::new();
        let a = b.process(ProcessSpec::new("a", EventSpec::periodic(ms(1))));
        let c = b.process(ProcessSpec::new("c", EventSpec::periodic(ms(1))));
        b.channel_spec(
            crate::channel::ChannelSpec::new("bb", a, c, ChannelKind::Blackboard)
                .with_capacity(std::num::NonZeroUsize::new(2).unwrap()),
        );
        b.priority(a, c);
        let (net, _) = b.build().unwrap();
        assert!(SharedChannels::supports(&net));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_job_panics() {
        let (net, bank, _) = app();
        let src = net.process_by_name("src").unwrap();
        let stimuli = Stimuli::new();
        let exec = ShardedExec::new(&net);
        let mut shards = exec.shards(&stimuli);
        let mut behaviors = bank.instantiate();
        let _ = shards[src.index()].run_job(&mut behaviors[src.index()], 2, ms(0), &[]);
    }
}
