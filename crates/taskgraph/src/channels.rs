//! Static channel-dependency analysis of an FPPN's data plane.
//!
//! Def. 2.1 gives every channel exactly one writer and one reader, so the
//! channels induce a *process-level* dataflow graph: `w → r` whenever some
//! channel is written by `w` and read by `r`. The sharded behavior executor
//! (`fppn-sim`) uses this map three ways:
//!
//! * the **read channels** of a process fix the order in which its jobs
//!   receive per-channel visibility counts;
//! * the **direct writers** of a process are the rendezvous partners of its
//!   jobs (a job may read a channel once the writer has committed every job
//!   canonically ordered before it);
//! * the **weakly-connected components** are fully independent clusters —
//!   processes in different components never exchange data, so an executor
//!   can partition them across workers without any cross-worker rendezvous.
//!
//! Self-loop channels (`writer == reader`) are excluded everywhere: jobs of
//! one process are already totally ordered by the model's same-process
//! precedence, so a self-loop needs no synchronization.

use fppn_core::{ChannelId, Fppn, ProcessId};

/// The channel-dependency map of a network (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelDependencyMap {
    /// Per process: cross-process channels it reads, `ChannelId`-ascending.
    reads: Vec<Vec<ChannelId>>,
    /// Per process: distinct writer processes of its read channels,
    /// `ProcessId`-ascending (never contains the process itself).
    direct_writers: Vec<Vec<ProcessId>>,
    /// Weakly-connected components of the writer→reader graph, each
    /// `ProcessId`-ascending; singleton components are isolated processes.
    components: Vec<Vec<ProcessId>>,
}

impl ChannelDependencyMap {
    /// Computes the map for a network.
    pub fn analyze(net: &Fppn) -> Self {
        let n = net.process_count();
        let mut reads = vec![Vec::new(); n];
        let mut direct_writers: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
        // Channel ids ascend, so the read lists end up sorted.
        for (i, spec) in net.channels().iter().enumerate() {
            if spec.is_self_loop() {
                continue;
            }
            reads[spec.reader().index()].push(ChannelId::from_index(i));
            direct_writers[spec.reader().index()].push(spec.writer());
        }
        for list in &mut direct_writers {
            list.sort();
            list.dedup();
        }

        // Weakly-connected components via union-find over channel edges.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for spec in net.channels() {
            if spec.is_self_loop() {
                continue;
            }
            let (a, b) = (
                find(&mut parent, spec.writer().index()),
                find(&mut parent, spec.reader().index()),
            );
            if a != b {
                // Root at the smaller index so component order is stable.
                parent[a.max(b)] = a.min(b);
            }
        }
        let mut by_root: Vec<Vec<ProcessId>> = vec![Vec::new(); n];
        for p in 0..n {
            let r = find(&mut parent, p);
            by_root[r].push(ProcessId::from_index(p));
        }
        let components: Vec<Vec<ProcessId>> =
            by_root.into_iter().filter(|c| !c.is_empty()).collect();

        ChannelDependencyMap {
            reads,
            direct_writers,
            components,
        }
    }

    /// Cross-process channels `pid` reads, `ChannelId`-ascending — the
    /// exact order in which the sharded executor supplies per-channel
    /// visibility counts.
    pub fn reads(&self, pid: ProcessId) -> &[ChannelId] {
        &self.reads[pid.index()]
    }

    /// Distinct writer processes feeding `pid`'s read ports (never `pid`
    /// itself), `ProcessId`-ascending.
    pub fn direct_writers(&self, pid: ProcessId) -> &[ProcessId] {
        &self.direct_writers[pid.index()]
    }

    /// Weakly-connected components of the writer→reader graph, each sorted
    /// `ProcessId`-ascending, ordered by their smallest member.
    pub fn components(&self) -> &[Vec<ProcessId>] {
        &self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};
    use fppn_time::TimeQ;

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    fn pid(i: usize) -> ProcessId {
        ProcessId::from_index(i)
    }

    #[test]
    fn self_loops_are_local_not_dependencies() {
        let mut b = FppnBuilder::new();
        let a = b.process(ProcessSpec::new("a", EventSpec::periodic(ms(10))));
        let c = b.process(ProcessSpec::new("c", EventSpec::periodic(ms(10))));
        b.channel("state", a, a, ChannelKind::Blackboard);
        let x = b.channel("x", a, c, ChannelKind::Fifo);
        b.priority(a, c);
        let (net, _) = b.build().unwrap();
        let m = ChannelDependencyMap::analyze(&net);
        assert_eq!(m.reads(a), &[] as &[ChannelId]);
        assert_eq!(m.direct_writers(a), &[] as &[ProcessId]);
        assert_eq!(m.reads(c), &[x]);
        assert_eq!(m.direct_writers(c), &[a]);
    }

    #[test]
    fn diamond_fan_in_closure_and_writers() {
        // src -> {l, r} -> sink, plus a second src->sink channel: sink's
        // direct writers dedupe to {src, l, r}, and the component closure
        // holds all four.
        let mut b = FppnBuilder::new();
        let src = b.process(ProcessSpec::new("src", EventSpec::periodic(ms(10))));
        let l = b.process(ProcessSpec::new("l", EventSpec::periodic(ms(10))));
        let r = b.process(ProcessSpec::new("r", EventSpec::periodic(ms(10))));
        let sink = b.process(ProcessSpec::new("sink", EventSpec::periodic(ms(10))));
        b.channel("sl", src, l, ChannelKind::Fifo);
        b.channel("sr", src, r, ChannelKind::Fifo);
        b.channel("ls", l, sink, ChannelKind::Fifo);
        b.channel("rs", r, sink, ChannelKind::Blackboard);
        b.channel("ss1", src, sink, ChannelKind::Fifo);
        b.channel("ss2", src, sink, ChannelKind::Blackboard);
        b.priority(src, l);
        b.priority(src, r);
        b.priority(l, sink);
        b.priority(r, sink);
        b.priority(src, sink);
        let (net, _) = b.build().unwrap();
        let m = ChannelDependencyMap::analyze(&net);
        assert_eq!(m.direct_writers(sink), &[src, l, r]);
        assert_eq!(m.reads(sink).len(), 4);
        assert_eq!(m.components(), &[vec![src, l, r, sink]]);
    }

    #[test]
    fn multirate_period_ratios_do_not_change_the_map() {
        // The map is purely structural: a 100ms writer feeding a 400ms
        // reader (4:1) and the same wiring at 1:1 yield identical maps.
        let build = |t_reader: i64| {
            let mut b = FppnBuilder::new();
            let w = b.process(ProcessSpec::new("w", EventSpec::periodic(ms(100))));
            let r = b.process(ProcessSpec::new("r", EventSpec::periodic(ms(t_reader))));
            b.channel("c", w, r, ChannelKind::Fifo);
            b.priority(w, r);
            b.build().unwrap().0
        };
        let fast = ChannelDependencyMap::analyze(&build(100));
        let slow = ChannelDependencyMap::analyze(&build(400));
        assert_eq!(fast, slow);
        assert_eq!(fast.direct_writers(pid(1)), &[pid(0)]);
    }

    #[test]
    fn disconnected_processes_form_singleton_components() {
        let mut b = FppnBuilder::new();
        let a = b.process(ProcessSpec::new("a", EventSpec::periodic(ms(10))));
        let c = b.process(ProcessSpec::new("c", EventSpec::periodic(ms(10))));
        let d = b.process(ProcessSpec::new("d", EventSpec::periodic(ms(10))));
        b.channel("x", a, c, ChannelKind::Fifo);
        b.priority(a, c);
        // `d` only has a self-loop: data-independent of everything.
        b.channel("dd", d, d, ChannelKind::Blackboard);
        let (net, _) = b.build().unwrap();
        let m = ChannelDependencyMap::analyze(&net);
        assert_eq!(m.components(), &[vec![a, c], vec![d]]);
        assert_eq!(m.direct_writers(d), &[] as &[ProcessId]);
    }

    #[test]
    fn chain_closure_is_transitive() {
        let mut b = FppnBuilder::new();
        let ids: Vec<ProcessId> = (0..5)
            .map(|i| b.process(ProcessSpec::new(format!("p{i}"), EventSpec::periodic(ms(10)))))
            .collect();
        for w in ids.windows(2) {
            b.channel(format!("c{}", w[0]), w[0], w[1], ChannelKind::Fifo);
            b.priority(w[0], w[1]);
        }
        let (net, _) = b.build().unwrap();
        let m = ChannelDependencyMap::analyze(&net);
        assert_eq!(m.direct_writers(ids[4]), &[ids[3]]);
        // Writers are direct only; the component closes over the chain.
        assert_eq!(m.components(), &[ids]);
    }
}
