//! Automatic translation of a compiled FPPN into a network of timed
//! automata — the code-generation pipeline of the paper's tools (ref. \[10\]).
//!
//! Each processor of the artifact's schedule becomes one timed automaton
//! that walks its static-order round list: a `wait` location per round
//! (guarded by the job's invocation time and its predecessors' completion
//! flags), an `exec` location held exactly `C_i` time units by an
//! invariant/guard pair, and a completion edge setting the job's `done`
//! variable. False sporadic slots translate to guarded skip edges.
//! Simulating the resulting network with [`crate::simulate_network`]
//! reproduces the §IV policy timeline exactly — cross-checked against
//! `fppn-sim` by the integration test-suite.

use fppn_core::Stimuli;
use fppn_sim::CompiledNetwork;
use fppn_taskgraph::{BindError, JobId};
use fppn_time::TimeQ;

use crate::model::{Guard, TaEdge, TaNetwork, TimedAutomaton};
use crate::sim::TaTrace;

/// The product of a translation.
#[derive(Debug)]
pub struct Translation {
    /// The generated network (one automaton per processor).
    pub network: TaNetwork,
    /// Total number of rounds encoded (frames × jobs).
    pub rounds: usize,
}

impl Translation {
    /// A safe discrete-step bound for simulating this translation:
    /// each round fires at most two edges.
    pub fn step_bound(&self) -> usize {
        self.rounds * 2 + 16
    }
}

/// The timing of one job instance recovered from a TA simulation trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobTiming {
    /// Frame index.
    pub frame: u64,
    /// Task-graph job.
    pub job: JobId,
    /// Execution start (resolution time for skipped slots).
    pub start: TimeQ,
    /// Completion (equal to `start` for skipped slots).
    pub completion: TimeQ,
    /// Whether the slot was skipped as false.
    pub skipped: bool,
}

/// Translates the compiled network with its stimuli bound over `frames`
/// frames into a TA network.
///
/// Like the paper's generator, the translation bakes the schedule and the
/// event timestamps into guard constants; execution times are the WCETs.
///
/// # Errors
///
/// Returns [`BindError`] on invalid stimuli, or when `frames` rounds of the
/// task graph cannot be held in memory, before any automaton is built.
pub fn translate(
    artifact: &CompiledNetwork,
    stimuli: &Stimuli,
    frames: u64,
) -> Result<Translation, BindError> {
    let (derived, tables) = (artifact.derived(), artifact.tables());
    let graph = &derived.graph;
    let n_jobs = graph.job_count();
    let slots = tables.templates().bind(artifact.net(), stimuli, frames)?;

    let mut network = TaNetwork::new();
    // One done variable per (frame, job), in a fallibly allocated table.
    let mut done = slots.slot_table(0)?;
    for (i, var) in done.iter_mut().enumerate() {
        *var = network.variable(format!("done_{}_{}", i / n_jobs, i % n_jobs));
    }
    let done_of = |frame: u64, job: JobId| done[frame as usize * n_jobs + job.index()];

    for m in 0..tables.processors() {
        let mut b = TimedAutomaton::builder(format!("sched_M{m}"));
        let x = b.clock("x"); // absolute time, never reset
        let c = b.clock("c"); // per-execution timer
        let mut cur = b.location(format!("start_M{m}"));
        for f in 0..frames {
            for &job_id in tables.proc_order(m) {
                let job = graph.job(job_id);
                let res = slots.slot(f, job_id);
                // Precedence guards: same-frame predecessors + wraps.
                let mut guards: Vec<Guard> = graph
                    .predecessors(job_id)
                    .map(|p| Guard::VarIs(done_of(f, p), true))
                    .collect();
                if f > 0 {
                    let wraps = tables.wrap_preds(job_id);
                    guards.extend(wraps.iter().map(|&p| Guard::VarIs(done_of(f - 1, p), true)));
                }
                // Executable rounds are additionally gated at the frame
                // start f·H: the policy dispatches a frame's rounds only
                // once the frame has begun (§IV), even when a sporadic
                // invocation arrived earlier.
                let frame_base = derived.hyperperiod * fppn_time::TimeQ::from_int(f as i64);
                if res.executable {
                    guards.push(Guard::ClockGe(x, res.invoked_at.max(frame_base)));
                } else {
                    guards.push(Guard::ClockGe(x, res.invoked_at));
                }
                let next = b.location(format!("after_{f}_{}", job_id.index()));
                if res.executable {
                    let dur = job.wcet;
                    let exec =
                        b.location_inv(format!("exec_{f}_{}", job_id.index()), vec![(c, dur)]);
                    b.edge(TaEdge {
                        from: cur,
                        guard: guards,
                        resets: vec![c],
                        sets: vec![],
                        to: exec,
                        label: format!("start:{f}:{}", job_id.index()),
                    });
                    b.edge(TaEdge {
                        from: exec,
                        guard: vec![Guard::ClockGe(c, dur)],
                        resets: vec![],
                        sets: vec![(done_of(f, job_id), true)],
                        to: next,
                        label: format!("done:{f}:{}", job_id.index()),
                    });
                } else {
                    b.edge(TaEdge {
                        from: cur,
                        guard: guards,
                        resets: vec![],
                        sets: vec![(done_of(f, job_id), true)],
                        to: next,
                        label: format!("skip:{f}:{}", job_id.index()),
                    });
                }
                cur = next;
            }
        }
        network.add(b.build());
    }
    let rounds = done.len();
    Ok(Translation { network, rounds })
}

/// Recovers per-job-instance timings from a simulation trace of a
/// translated network.
pub fn extract_timings(trace: &TaTrace) -> Vec<JobTiming> {
    let mut open: std::collections::BTreeMap<(u64, usize), TimeQ> = std::collections::BTreeMap::new();
    let mut out = Vec::new();
    for e in &trace.events {
        let mut parts = e.label.splitn(3, ':');
        let kind = parts.next().unwrap_or("");
        let (Some(f), Some(j)) = (parts.next(), parts.next()) else {
            continue;
        };
        let (Ok(f), Ok(j)) = (f.parse::<u64>(), j.parse::<usize>()) else {
            continue;
        };
        match kind {
            "start" => {
                open.insert((f, j), e.time);
            }
            "done" => {
                let start = open.remove(&(f, j)).unwrap_or(e.time);
                out.push(JobTiming {
                    frame: f,
                    job: JobId::from_index(j),
                    start,
                    completion: e.time,
                    skipped: false,
                });
            }
            "skip" => out.push(JobTiming {
                frame: f,
                job: JobId::from_index(j),
                start: e.time,
                completion: e.time,
                skipped: true,
            }),
            _ => {}
        }
    }
    out.sort_by_key(|t| (t.frame, t.start, t.job));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate_network;
    use fppn_core::{ChannelKind, EventSpec, Fppn, FppnBuilder, ProcessSpec, SporadicTrace};
    use fppn_sim::CompileConfig;
    use fppn_taskgraph::WcetModel;

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    /// Compiles `net` with a uniform `wcet` onto `processors` processors.
    fn compile(net: Fppn, wcet: TimeQ, processors: usize) -> CompiledNetwork {
        let config = CompileConfig::new(WcetModel::uniform(wcet), processors);
        CompiledNetwork::compile(net, &config).unwrap()
    }

    fn pipeline() -> Fppn {
        let mut b = FppnBuilder::new();
        let a = b.process(ProcessSpec::new("a", EventSpec::periodic(ms(100))));
        let c = b.process(ProcessSpec::new("c", EventSpec::periodic(ms(100))));
        b.channel("x", a, c, ChannelKind::Fifo);
        b.priority(a, c);
        b.build().unwrap().0
    }

    #[test]
    fn two_jobs_on_one_processor_serialize() {
        let artifact = compile(pipeline(), ms(30), 1);
        let t = translate(&artifact, &Stimuli::new(), 2).unwrap();
        let trace = simulate_network(&t.network, ms(1000), t.step_bound());
        let timings = extract_timings(&trace);
        assert_eq!(timings.len(), 4); // 2 jobs x 2 frames
        // Frame 0: a at [0, 30), c at [30, 60). Frame 1 shifted by 100.
        assert_eq!(timings[0].start, ms(0));
        assert_eq!(timings[0].completion, ms(30));
        assert_eq!(timings[1].start, ms(30));
        assert_eq!(timings[1].completion, ms(60));
        assert_eq!(timings[2].start, ms(100));
        assert_eq!(timings[3].completion, ms(160));
    }

    #[test]
    fn cross_processor_precedence_honored() {
        let artifact = compile(pipeline(), ms(30), 2);
        let t = translate(&artifact, &Stimuli::new(), 1).unwrap();
        let trace = simulate_network(&t.network, ms(1000), t.step_bound());
        let timings = extract_timings(&trace);
        // Even on 2 processors, c must wait for a.
        let a_done = timings.iter().find(|t| t.job.index() == 0).unwrap().completion;
        let c_start = timings.iter().find(|t| t.job.index() == 1).unwrap().start;
        assert!(c_start >= a_done);
    }

    #[test]
    fn sporadic_slots_translate_to_skips() {
        let mut b = FppnBuilder::new();
        let user = b.process(ProcessSpec::new("user", EventSpec::periodic(ms(200))));
        let cfg = b.process(ProcessSpec::new("cfg", EventSpec::sporadic(1, ms(400))));
        b.channel("c", cfg, user, ChannelKind::Blackboard);
        b.priority(cfg, user);
        let (net, _) = b.build().unwrap();
        let artifact = compile(net, ms(10), 1);
        let mut stimuli = Stimuli::new();
        stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(150)]));
        let t = translate(&artifact, &stimuli, 2).unwrap();
        let trace = simulate_network(&t.network, ms(1000), t.step_bound());
        let timings = extract_timings(&trace);
        let skips: Vec<_> = timings.iter().filter(|t| t.skipped).collect();
        let execs: Vec<_> = timings.iter().filter(|t| !t.skipped).collect();
        // cfg slot of frame 0 skipped; frame 1 slot runs (arrival 150).
        assert_eq!(skips.len(), 1);
        assert_eq!(execs.len(), 3); // user x2 + cfg x1
        assert_eq!(trace.stopped, crate::sim::StopReason::Quiescent);
    }

    #[test]
    fn unholdable_frame_count_is_a_typed_error() {
        // One job per frame: 2^60 done variables are past `isize::MAX`
        // bytes, so the reservation is refused on any host without asking
        // the allocator.
        let mut b = FppnBuilder::new();
        b.process(ProcessSpec::new("p", EventSpec::periodic(ms(100))));
        let (net, _) = b.build().unwrap();
        let artifact = compile(net, ms(10), 1);
        match translate(&artifact, &Stimuli::new(), 1 << 60) {
            Err(BindError::FrameCount { frames, jobs, .. }) => {
                assert_eq!((frames, jobs), (1 << 60, 1))
            }
            other => panic!("expected a frame-count error, got {other:?}"),
        }
    }
}
