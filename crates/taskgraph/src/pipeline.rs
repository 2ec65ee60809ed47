//! Pipelined (multi-frame) scheduling support — the paper's declared
//! future work ("In future work we plan to support buffering and
//! pipelining", §VI).
//!
//! The §III-B algorithm is deliberately *non-pipelined*: deadlines are
//! truncated to the hyperperiod so consecutive frame executions never
//! overlap. That conservatively rejects networks whose relative deadlines
//! exceed their periods even when plenty of parallelism is available.
//! [`unroll_for_pipelining`] lifts the restriction: it unrolls `factor`
//! frames into one task graph, restores the *untruncated* deadlines
//! (`A_i + d_p`), and links consecutive
//! frames with the same wrap-around conflict edges the online policy uses.
//! List-scheduling the unrolled graph yields an overlapped (software
//! pipelined) static schedule; steady-state behaviour is approximated by
//! increasing `factor`.

use fppn_core::Fppn;
use fppn_time::TimeQ;

use crate::derive::DerivedTaskGraph;
use crate::graph::TaskGraph;
use crate::job::{Job, JobId};
use crate::slots::wrap_predecessors;

/// Unrolls `factor` frames of a derived task graph into a single graph
/// with untruncated deadlines, enabling pipelined static scheduling: the
/// [`unrolled_conflict_graph`], transitively reduced.
///
/// # Panics
///
/// Panics if `factor == 0`.
pub fn unroll_for_pipelining(net: &Fppn, derived: &DerivedTaskGraph, factor: u64) -> TaskGraph {
    let mut graph = unrolled_conflict_graph(net, derived, factor);
    graph.transitive_reduction();
    graph
}

/// The unrolled graph of [`unroll_for_pipelining`] before transitive
/// reduction: `factor` copies of the derived graph's edges, plus the
/// wrap-around conflict edges from each frame into the next.
///
/// # Panics
///
/// Panics if `factor == 0`.
pub fn unrolled_conflict_graph(net: &Fppn, derived: &DerivedTaskGraph, factor: u64) -> TaskGraph {
    assert!(factor > 0, "need at least one frame");
    let base = &derived.graph;
    let h = derived.hyperperiod;
    // The graph spans `factor` frames; deadlines are NOT truncated, so the
    // schedule of the last wave may legitimately spill past the horizon —
    // that is exactly what pipelining permits.
    let horizon = TimeQ::from_int(factor as i64) * h;
    let n = base.job_count();

    // Per-process relative deadline (server-corrected for sporadics).
    let relative_deadline = |job: &Job| -> TimeQ {
        match derived.server(job.process) {
            Some(server) => server.job_deadline,
            None => net.process(job.process).event().deadline(),
        }
    };
    let jobs_of_process = |p| base.jobs().iter().filter(|j| j.process == p).count() as u64;

    let mut jobs = Vec::with_capacity(n * factor as usize);
    for f in 0..factor {
        let shift = TimeQ::from_int(f as i64) * h;
        for j in base.jobs() {
            let arrival = j.arrival + shift;
            jobs.push(Job {
                process: j.process,
                k: j.k + f * jobs_of_process(j.process),
                arrival,
                deadline: arrival + relative_deadline(j),
                wcet: j.wcet,
                is_server: j.is_server,
            });
        }
    }
    let mut graph = TaskGraph::new(jobs, horizon);
    let idx = |f: u64, id: JobId| JobId::from_index(f as usize * n + id.index());
    for f in 0..factor {
        for (a, b) in base.edges() {
            graph.add_edge(idx(f, a), idx(f, b));
        }
    }
    let wraps = wrap_predecessors(net, derived);
    for f in 1..factor {
        for id in base.job_ids() {
            for &p in &wraps[id.index()] {
                graph.add_edge(idx(f - 1, p), idx(f, id));
            }
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::necessary_condition;
    use crate::derive::derive_task_graph;
    use crate::wcet::WcetModel;
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    /// Three-stage chain, T = 100 ms, d = 200 ms, C = 40 ms each:
    /// per-wave latency 120 ms exceeds the period but not the deadline.
    fn deep_chain() -> Fppn {
        let mut b = FppnBuilder::new();
        let spec = |n: &str| {
            ProcessSpec::new(n, EventSpec::periodic(ms(100)).with_deadline(ms(200)))
        };
        let a = b.process(spec("a"));
        let m = b.process(spec("m"));
        let z = b.process(spec("z"));
        b.channel("c1", a, m, ChannelKind::Fifo);
        b.channel("c2", m, z, ChannelKind::Fifo);
        b.priority(a, m);
        b.priority(m, z);
        b.build().unwrap().0
    }

    #[test]
    fn non_pipelined_truncation_rejects_deep_chain() {
        let net = deep_chain();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(40))).unwrap();
        // Truncated deadlines (H = 100 ms) make the 120 ms chain
        // infeasible on any processor count.
        assert!(necessary_condition(&derived.graph, 64).is_err());
    }

    #[test]
    fn unrolled_graph_restores_true_deadlines_and_becomes_feasible() {
        let net = deep_chain();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(40))).unwrap();
        let unrolled = unroll_for_pipelining(&net, &derived, 4);
        assert_eq!(unrolled.job_count(), 12);
        assert_eq!(unrolled.hyperperiod(), ms(400));
        // Frame-1 job of `a` keeps its real 200 ms relative deadline.
        let a = net.process_by_name("a").unwrap();
        let a2 = unrolled.find(a, 2).unwrap();
        assert_eq!(unrolled.job(a2).arrival, ms(100));
        assert_eq!(unrolled.job(a2).deadline, ms(300));
        // With overlap permitted, the necessary condition now admits the
        // graph on 2 processors (per-frame work 120 ms per 100 ms period).
        assert!(necessary_condition(&unrolled, 2).is_ok());
    }

    #[test]
    fn pipelined_schedule_overlaps_frames() {
        use fppn_core::ProcessId;
        let net = deep_chain();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(40))).unwrap();
        let unrolled = unroll_for_pipelining(&net, &derived, 4);
        // Hand list-scheduling via the sched crate would be a dependency
        // cycle; emulate greedy 2-processor EDF here to show overlap: we
        // only check the *structure* allows a frame-1 job to start before
        // frame-0's chain completes.
        let a = net.process_by_name("a").unwrap();
        let z = net.process_by_name("z").unwrap();
        let a2 = unrolled.find(a, 2).unwrap();
        let z1 = unrolled.find(z, 1).unwrap();
        // a[2] (frame 1) is not a successor of z[1] (frame 0 chain end):
        // the pipeline may start wave 2 while wave 1 is finishing.
        assert!(!unrolled.is_reachable(z1, a2));
        // But conflicting jobs stay ordered: a[1] -> a[2].
        let a1 = unrolled.find(a, 1).unwrap();
        assert!(unrolled.is_reachable(a1, a2));
        let _ = ProcessId::from_index(0);
    }

    #[test]
    fn wrap_edges_preserve_sporadic_user_ordering_across_frames() {
        let mut b = FppnBuilder::new();
        let user = b.process(ProcessSpec::new("user", EventSpec::periodic(ms(200))));
        let cfg = b.process(ProcessSpec::new(
            "cfg",
            EventSpec::sporadic(1, ms(400)).with_deadline(ms(600)),
        ));
        b.channel("c", cfg, user, ChannelKind::Blackboard);
        b.priority(cfg, user);
        let (net, _) = b.build().unwrap();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let unrolled = unroll_for_pipelining(&net, &derived, 3);
        let user_id = net.process_by_name("user").unwrap();
        let cfg_id = net.process_by_name("cfg").unwrap();
        // cfg[1] (frame 0) must precede user[2] (frame 1): conflict pair.
        let c1 = unrolled.find(cfg_id, 1).unwrap();
        let u2 = unrolled.find(user_id, 2).unwrap();
        assert!(unrolled.is_reachable(c1, u2));
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_factor_panics() {
        let net = deep_chain();
        let derived = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        let _ = unroll_for_pipelining(&net, &derived, 0);
    }
}
