//! Task-graph derivation from an FPPN (§III-A).
//!
//! For the schedulable subclass — every sporadic process `p` has exactly
//! one periodic *user* `u(p)` connected by a channel, with
//! `T_u(p) ≤ T_p` — the derivation:
//!
//! 1. replaces each sporadic `p` by an `m`-periodic **server** process `p′`
//!    with period `T_u(p)` and priority `FP′: p′ → u(p)`;
//! 2. simulates one hyperperiod `H = lcm(T)` of job invocations, giving the
//!    total order `<J` (invocation time, then FP′ linearization);
//! 3. adds precedence edges between every `<J`-ordered pair of jobs of the
//!    same process or of FP′-related processes;
//! 4. truncates deadlines to `H` (non-pipelined scheduling);
//! 5. removes redundant edges by transitive reduction. Step 3 makes each
//!    process's jobs a chain, so one reverse-topological sweep over the
//!    lowest position each job reaches on each chain decides every edge,
//!    in O((n + E)·P) for `P` processes; the sweep takes the chains 64 at
//!    a time, so its table stays O(n) on any graph (see
//!    [`TaskGraph::transitive_reduction`]).
//!
//! Server job deadlines are shortened to `d_p − T′` to compensate the
//! worst-case one-period postponement of a deferred sporadic arrival; when
//! `d_p ≤ T_u(p)` the server period becomes the fraction `T_u(p)/f`
//! (footnote 3 of the paper) so that the corrected deadline stays positive.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use fppn_core::{EventKind, Fppn, ProcessId};
use fppn_time::{hyperperiod, TimeQ};

use crate::graph::TaskGraph;
use crate::job::{Job, JobId};
use crate::wcet::WcetModel;

/// How a sporadic process is represented by a periodic server (§III-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerSpec {
    /// The sporadic process.
    pub process: ProcessId,
    /// Its unique periodic user `u(p)`.
    pub user: ProcessId,
    /// The server period `T′` (the user period, or a fraction of it when
    /// `d_p ≤ T_u(p)`).
    pub period: TimeQ,
    /// Server burst size (= the sporadic burst `m_p`).
    pub burst: u32,
    /// Relative deadline of server jobs: `d_p − T′`.
    pub job_deadline: TimeQ,
    /// Whether the *real* functional priority is `p → u(p)`; decides the
    /// window boundary rule of the online policy (§IV): `(a, b]` if true,
    /// `[a, b)` otherwise.
    pub priority_over_user: bool,
}

/// The output of [`derive_task_graph`]: the job DAG plus the server
/// transformation metadata needed by the online policy.
#[derive(Debug, Clone)]
pub struct DerivedTaskGraph {
    /// The derived task graph: transitively reduced, except from
    /// [`derive_conflict_graph`] and [`derive_task_graph_unreduced`].
    pub graph: TaskGraph,
    /// Server specs, keyed by sporadic process.
    pub servers: BTreeMap<ProcessId, ServerSpec>,
    /// The hyperperiod `H` (also the graph's frame length).
    pub hyperperiod: TimeQ,
    /// Number of redundant edges removed by transitive reduction (step 5);
    /// exposed because Fig. 3 of the paper calls the removal out.
    pub reduced_edges: usize,
}

impl DerivedTaskGraph {
    /// The server spec of a sporadic process, if any.
    pub fn server(&self, pid: ProcessId) -> Option<&ServerSpec> {
        self.servers.get(&pid)
    }
}

/// Errors rejecting networks outside the schedulable subclass of §III-A.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeriveError {
    /// The network has no processes.
    EmptyNetwork,
    /// A sporadic process has no *unique periodic* channel neighbor.
    SporadicWithoutUser {
        /// The sporadic process name.
        process: String,
    },
    /// `T_u(p) > T_p`: the user is slower than the sporadic bound, which
    /// the server transform cannot represent conservatively.
    UserPeriodTooLong {
        /// The sporadic process name.
        process: String,
        /// The user process name.
        user: String,
    },
}

impl fmt::Display for DeriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeriveError::EmptyNetwork => write!(f, "cannot derive a task graph from an empty network"),
            DeriveError::SporadicWithoutUser { process } => write!(
                f,
                "sporadic process {process:?} has no unique periodic user \
                 (required by the schedulable subclass of the paper, §III-A)"
            ),
            DeriveError::UserPeriodTooLong { process, user } => write!(
                f,
                "sporadic process {process:?} has user {user:?} with a longer period \
                 (T_u must be ≤ T_p)"
            ),
        }
    }
}

impl Error for DeriveError {}

/// Effective (post-server-transform) generator of one process.
#[derive(Debug, Clone)]
struct Effective {
    period: TimeQ,
    burst: u32,
    phase: TimeQ,
    /// Relative job deadline (already corrected for servers).
    deadline: TimeQ,
    is_server: bool,
}

/// Derives the task graph of §III-A for one hyperperiod: the
/// [`derive_conflict_graph`] of steps 1–4, transitively reduced (step 5).
///
/// # Errors
///
/// Returns a [`DeriveError`] if the network is empty or some sporadic
/// process violates the subclass restriction.
///
/// # Examples
///
/// See `fppn-apps`' Fig. 1 network, whose derived graph reproduces Fig. 3
/// of the paper (10 jobs, `H = 200 ms`, three redundant edges removed,
/// among them the figure's `InputA[1] → NormA[1]`).
pub fn derive_task_graph(net: &Fppn, wcet: &WcetModel) -> Result<DerivedTaskGraph, DeriveError> {
    let mut derived = derive_conflict_graph(net, wcet)?;
    derived.reduced_edges = derived.graph.transitive_reduction();
    Ok(derived)
}

/// Steps 1–4 of the derivation: the jobs of one hyperperiod and the
/// conflict edges of step 3 before transitive reduction, with
/// `reduced_edges == 0`. Each job gets an edge to the next job of its own
/// process and to the first `<J`-later job of each FP′-related process;
/// transitivity covers every other conflicting pair.
///
/// # Errors
///
/// As [`derive_task_graph`].
pub fn derive_conflict_graph(
    net: &Fppn,
    wcet: &WcetModel,
) -> Result<DerivedTaskGraph, DeriveError> {
    if net.process_count() == 0 {
        return Err(DeriveError::EmptyNetwork);
    }

    // Step 1: server transform.
    let mut effective: Vec<Effective> = Vec::with_capacity(net.process_count());
    let mut servers = BTreeMap::new();
    for pid in net.process_ids() {
        let spec = net.process(pid);
        let ev = spec.event();
        match ev.kind() {
            EventKind::Periodic => effective.push(Effective {
                period: ev.period(),
                burst: ev.burst(),
                phase: ev.phase(),
                deadline: ev.deadline(),
                is_server: false,
            }),
            EventKind::Sporadic => {
                let user = net.user_of(pid).ok_or_else(|| DeriveError::SporadicWithoutUser {
                    process: spec.name().to_owned(),
                })?;
                let user_period = net.process(user).event().period();
                if user_period > ev.period() {
                    return Err(DeriveError::UserPeriodTooLong {
                        process: spec.name().to_owned(),
                        user: net.process(user).name().to_owned(),
                    });
                }
                // Footnote 3: shrink the server period to T_u/f until the
                // corrected deadline d_p - T' is positive.
                let mut server_period = user_period;
                if ev.deadline() <= server_period {
                    let f = (user_period / ev.deadline()).floor() + 1;
                    server_period = user_period / TimeQ::from_int_i128(f);
                    debug_assert!(ev.deadline() > server_period);
                }
                let job_deadline = ev.deadline() - server_period;
                servers.insert(
                    pid,
                    ServerSpec {
                        process: pid,
                        user,
                        period: server_period,
                        burst: ev.burst(),
                        job_deadline,
                        priority_over_user: net.has_priority(pid, user),
                    },
                );
                effective.push(Effective {
                    period: server_period,
                    burst: ev.burst(),
                    phase: TimeQ::ZERO,
                    deadline: job_deadline,
                    is_server: true,
                });
            }
        }
    }

    // FP′: edges among periodic processes, plus p′ → u(p) per server.
    let sporadic = |pid: ProcessId| servers.contains_key(&pid);
    let mut fp_prime: Vec<(ProcessId, ProcessId)> = net
        .priority_edges()
        .filter(|(a, b)| !sporadic(*a) && !sporadic(*b))
        .collect();
    for s in servers.values() {
        fp_prime.push((s.process, s.user));
    }
    let related = |a: ProcessId, b: ProcessId| {
        fp_prime.contains(&(a, b)) || fp_prime.contains(&(b, a))
    };

    // Hyperperiod over effective periods.
    let h = hyperperiod(effective.iter().map(|e| e.period)).expect("non-empty network");

    // FP′ linearization ranks (Kahn, smallest process id first).
    let ranks = fp_prime_ranks(net.process_count(), &fp_prime);

    // Step 2: simulate job invocations over [0, H).
    let mut jobs: Vec<Job> = Vec::new();
    let mut jobs_of: Vec<Vec<JobId>> = vec![Vec::new(); net.process_count()];
    for pid in net.process_ids() {
        let e = &effective[pid.index()];
        let mut k = 0u64;
        let mut t = e.phase;
        while t < h {
            for _ in 0..e.burst {
                k += 1;
                let arrival = t;
                // Step 4: truncate required times to the hyperperiod.
                let deadline = (arrival + e.deadline).min(h);
                let id = JobId::from_index(jobs.len());
                jobs.push(Job {
                    process: pid,
                    k,
                    arrival,
                    deadline,
                    wcet: wcet.get(pid),
                    is_server: e.is_server,
                });
                jobs_of[pid.index()].push(id);
            }
            t += e.period;
        }
    }

    let mut graph = TaskGraph::new(jobs, h);

    // The total order <J: (arrival, FP′ rank, k). Within one process this
    // coincides with the k order.
    let before = |g: &TaskGraph, a: JobId, b: JobId| -> bool {
        let (ja, jb) = (g.job(a), g.job(b));
        (
            ja.arrival,
            ranks[ja.process.index()],
            ja.k,
        ) < (jb.arrival, ranks[jb.process.index()], jb.k)
    };

    // Step 3: precedence edges.
    // Same process: consecutive jobs (transitivity covers the rest).
    for list in &jobs_of {
        for w in list.windows(2) {
            graph.add_edge(w[0], w[1]);
        }
    }
    // Related processes: from each job, an edge to the first <J-later job
    // of the other process; the same-process chains complete the closure.
    for a_pid in net.process_ids() {
        for b_pid in net.process_ids() {
            if a_pid == b_pid || !related(a_pid, b_pid) {
                continue;
            }
            let a_jobs = &jobs_of[a_pid.index()];
            let b_jobs = &jobs_of[b_pid.index()];
            let mut bi = 0usize;
            for &a in a_jobs {
                while bi < b_jobs.len() && !before(&graph, a, b_jobs[bi]) {
                    bi += 1;
                }
                if bi == b_jobs.len() {
                    break;
                }
                graph.add_edge(a, b_jobs[bi]);
            }
        }
    }

    Ok(DerivedTaskGraph {
        graph,
        servers,
        hyperperiod: h,
        reduced_edges: 0,
    })
}

/// Builds the *full* conflict-edge set of step 3 without reduction —
/// every `<J`-ordered pair of same-process or FP′-related jobs gets a
/// direct edge. Quadratic; used to demonstrate step 5 on small examples
/// (Fig. 3 shows the redundant `InputA[1] → NormA[1]` edge explicitly).
pub fn derive_task_graph_unreduced(
    net: &Fppn,
    wcet: &WcetModel,
) -> Result<DerivedTaskGraph, DeriveError> {
    let derived = derive_conflict_graph(net, wcet)?;
    // Rebuild all edges from the closure relation implied by <J.
    let mut graph = TaskGraph::new(derived.graph.jobs().to_vec(), derived.hyperperiod);
    let ranks: BTreeMap<ProcessId, u64> = {
        // Recover ranks from the derived graph's job order: jobs are stored
        // per process in k order, and <J uses (arrival, rank, k); recompute
        // the same FP′ ranks.
        let sporadic: Vec<ProcessId> = derived.servers.keys().copied().collect();
        let mut fp_prime: Vec<(ProcessId, ProcessId)> = net
            .priority_edges()
            .filter(|(a, b)| !sporadic.contains(a) && !sporadic.contains(b))
            .collect();
        for s in derived.servers.values() {
            fp_prime.push((s.process, s.user));
        }
        fp_prime_ranks(net.process_count(), &fp_prime)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (ProcessId::from_index(i), r as u64))
            .collect()
    };
    let related_or_same = |a: ProcessId, b: ProcessId| {
        a == b || {
            let sporadic = |p: ProcessId| derived.servers.contains_key(&p);
            let user = |p: ProcessId| derived.servers.get(&p).map(|s| s.user);
            // Reconstruct FP′-relatedness.
            if sporadic(a) {
                user(a) == Some(b)
            } else if sporadic(b) {
                user(b) == Some(a)
            } else {
                net.related(a, b)
            }
        }
    };
    let n = graph.job_count();
    for ai in 0..n {
        for bi in 0..n {
            if ai == bi {
                continue;
            }
            let (a, b) = (JobId::from_index(ai), JobId::from_index(bi));
            let (ja, jb) = (graph.job(a).clone(), graph.job(b).clone());
            if !related_or_same(ja.process, jb.process) {
                continue;
            }
            let key = |j: &Job| (j.arrival, ranks[&j.process], j.k);
            if key(&ja) < key(&jb) {
                graph.add_edge(a, b);
            }
        }
    }
    Ok(DerivedTaskGraph {
        graph,
        servers: derived.servers,
        hyperperiod: derived.hyperperiod,
        reduced_edges: 0,
    })
}

fn fp_prime_ranks(n: usize, edges: &[(ProcessId, ProcessId)]) -> Vec<u32> {
    let mut indegree = vec![0usize; n];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in edges {
        indegree[b.index()] += 1;
        succ[a.index()].push(b.index());
    }
    let mut ready: std::collections::BTreeSet<usize> =
        (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut rank = vec![0u32; n];
    let mut next = 0u32;
    while let Some(&node) = ready.iter().next() {
        ready.remove(&node);
        rank[node] = next;
        next += 1;
        for &s in &succ[node] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready.insert(s);
            }
        }
    }
    assert_eq!(next as usize, n, "FP′ must be acyclic");
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    /// user (periodic 200) <- cfg (sporadic 2 per 700).
    fn sporadic_pair(cfg_priority: bool) -> (Fppn, ProcessId, ProcessId) {
        let mut b = FppnBuilder::new();
        let user = b.process(ProcessSpec::new("user", EventSpec::periodic(ms(200))));
        let cfg = b.process(ProcessSpec::new("cfg", EventSpec::sporadic(2, ms(700))));
        b.channel("c", cfg, user, ChannelKind::Blackboard);
        if cfg_priority {
            b.priority(cfg, user);
        } else {
            b.priority(user, cfg);
        }
        let (net, _) = b.build().unwrap();
        (net, user, cfg)
    }

    #[test]
    fn server_transform_basics() {
        let (net, user, cfg) = sporadic_pair(true);
        let d = derive_task_graph(&net, &WcetModel::uniform(ms(25))).unwrap();
        assert_eq!(d.hyperperiod, ms(200));
        let s = d.server(cfg).unwrap();
        assert_eq!(s.user, user);
        assert_eq!(s.period, ms(200));
        assert_eq!(s.burst, 2);
        assert_eq!(s.job_deadline, ms(500)); // 700 - 200
        assert!(s.priority_over_user);
        // Jobs: user[1], cfg[1], cfg[2].
        assert_eq!(d.graph.job_count(), 3);
        let u1 = d.graph.find(user, 1).unwrap();
        let c1 = d.graph.find(cfg, 1).unwrap();
        let c2 = d.graph.find(cfg, 2).unwrap();
        // Server jobs precede the user job arriving at the same time.
        assert!(d.graph.is_reachable(c1, u1));
        assert!(d.graph.is_reachable(c2, u1));
        assert!(d.graph.has_edge(c1, c2));
        // Deadlines truncated to H.
        assert_eq!(d.graph.job(c1).deadline, ms(200));
        assert!(d.graph.job(c1).is_server);
        assert!(!d.graph.job(u1).is_server);
    }

    #[test]
    fn boundary_rule_follows_real_priority() {
        let (net, _, cfg) = sporadic_pair(false);
        let d = derive_task_graph(&net, &WcetModel::default()).unwrap();
        assert!(!d.server(cfg).unwrap().priority_over_user);
        // Even with user-priority, *server* jobs still precede the user job
        // in the graph (FP′: p′ → u(p)).
        let user = net.process_by_name("user").unwrap();
        let u1 = d.graph.find(user, 1).unwrap();
        let c1 = d.graph.find(cfg, 1).unwrap();
        assert!(d.graph.is_reachable(c1, u1));
    }

    #[test]
    fn fractional_server_period_when_deadline_short() {
        // d_p = 150 <= T_u = 200 => T' = 200/2 = 100 < 150.
        let mut b = FppnBuilder::new();
        let user = b.process(ProcessSpec::new("user", EventSpec::periodic(ms(200))));
        let cfg = b.process(ProcessSpec::new(
            "cfg",
            EventSpec::sporadic(1, ms(700)).with_deadline(ms(150)),
        ));
        b.channel("c", cfg, user, ChannelKind::Blackboard);
        b.priority(cfg, user);
        let (net, _) = b.build().unwrap();
        let d = derive_task_graph(&net, &WcetModel::default()).unwrap();
        let s = d.server(cfg).unwrap();
        assert_eq!(s.period, ms(100));
        assert_eq!(s.job_deadline, ms(50));
        // Two server bursts per user period now.
        assert_eq!(d.graph.job_count(), 1 + 2);
    }

    #[test]
    fn multirate_periodic_chain() {
        let mut b = FppnBuilder::new();
        let fast = b.process(ProcessSpec::new("fast", EventSpec::periodic(ms(100))));
        let slow = b.process(ProcessSpec::new("slow", EventSpec::periodic(ms(200))));
        b.channel("c", fast, slow, ChannelKind::Fifo);
        b.priority(fast, slow);
        let (net, _) = b.build().unwrap();
        let d = derive_task_graph(&net, &WcetModel::uniform(ms(10))).unwrap();
        assert_eq!(d.hyperperiod, ms(200));
        assert_eq!(d.graph.job_count(), 3); // fast[1], fast[2], slow[1]
        let f1 = d.graph.find(fast, 1).unwrap();
        let f2 = d.graph.find(fast, 2).unwrap();
        let s1 = d.graph.find(slow, 1).unwrap();
        assert_eq!(d.graph.job(f2).arrival, ms(100));
        assert_eq!(d.graph.job(f2).deadline, ms(200));
        // fast[1] -> slow[1] (same arrival, fast has priority);
        // slow[1] -> fast[2]? NO: slow[1] <J fast[2] (arrival 0 < 100), so
        // edge slow[1] -> fast[2] exists because they are related.
        assert!(d.graph.has_edge(f1, s1));
        assert!(d.graph.is_reachable(s1, f2));
        // fast[1] -> fast[2] via chain; direct edge redundant after the
        // path f1 -> s1 -> f2? f1->f2 is same-process consecutive edge; it
        // is redundant iff f1 -> s1 -> f2 exists, which it does, so the
        // reduction may remove the direct edge while preserving closure.
        assert!(d.graph.is_reachable(f1, f2));
    }

    #[test]
    fn unrelated_processes_get_no_edges() {
        let mut b = FppnBuilder::new();
        let a = b.process(ProcessSpec::new("a", EventSpec::periodic(ms(100))));
        let c = b.process(ProcessSpec::new("c", EventSpec::periodic(ms(100))));
        let (net, _) = b.build().unwrap();
        let d = derive_task_graph(&net, &WcetModel::default()).unwrap();
        let a1 = d.graph.find(a, 1).unwrap();
        let c1 = d.graph.find(c, 1).unwrap();
        assert!(!d.graph.is_reachable(a1, c1));
        assert!(!d.graph.is_reachable(c1, a1));
    }

    #[test]
    fn sporadic_without_user_rejected() {
        let mut b = FppnBuilder::new();
        b.process(ProcessSpec::new("lonely", EventSpec::sporadic(1, ms(100))));
        let (net, _) = b.build().unwrap();
        assert!(matches!(
            derive_task_graph(&net, &WcetModel::default()),
            Err(DeriveError::SporadicWithoutUser { .. })
        ));
    }

    #[test]
    fn user_period_longer_than_sporadic_rejected() {
        let mut b = FppnBuilder::new();
        let user = b.process(ProcessSpec::new("user", EventSpec::periodic(ms(1000))));
        let cfg = b.process(ProcessSpec::new("cfg", EventSpec::sporadic(1, ms(500))));
        b.channel("c", cfg, user, ChannelKind::Blackboard);
        b.priority(cfg, user);
        let (net, _) = b.build().unwrap();
        assert!(matches!(
            derive_task_graph(&net, &WcetModel::default()),
            Err(DeriveError::UserPeriodTooLong { .. })
        ));
    }

    #[test]
    fn empty_network_rejected() {
        let (net, _) = FppnBuilder::new().build().unwrap();
        assert!(matches!(
            derive_task_graph(&net, &WcetModel::default()),
            Err(DeriveError::EmptyNetwork)
        ));
    }

    #[test]
    fn unreduced_graph_has_same_closure() {
        let (net, _, _) = sporadic_pair(true);
        let reduced = derive_task_graph(&net, &WcetModel::default()).unwrap();
        let full = derive_task_graph_unreduced(&net, &WcetModel::default()).unwrap();
        assert_eq!(
            reduced.graph.transitive_closure(),
            full.graph.transitive_closure()
        );
        assert!(full.graph.edge_count() >= reduced.graph.edge_count());
    }
}
