//! Property tests on task-graph derivation over randomly generated FPPNs.

use fppn_core::{ChannelKind, EventSpec, Fppn, FppnBuilder, ProcessSpec};
use fppn_taskgraph::{
    derive_conflict_graph, derive_task_graph, load, necessary_condition, unroll_for_pipelining,
    unrolled_conflict_graph, AsapAlap, TaskGraph, WcetModel,
};
use fppn_time::TimeQ;
use proptest::prelude::*;

/// Strategy: a layered network of 2–6 periodic processes with harmonic
/// periods and 0–2 sporadic configurators.
fn network_strategy() -> impl Strategy<Value = Fppn> {
    (
        2usize..=6,
        prop::collection::vec(0usize..4, 2..=6), // period choices
        prop::collection::vec(any::<bool>(), 0..=15), // channel coin flips
        0usize..=2,
        prop::collection::vec((0usize..6, 1u32..=3, 1i64..=3), 0..=2),
    )
        .prop_map(|(n, period_idx, coins, n_sporadic, sporadic_params)| {
            let periods = [100i64, 200, 400, 800];
            let ms = TimeQ::from_ms;
            let mut b = FppnBuilder::new();
            let mut pids = Vec::new();
            for i in 0..n {
                let t = periods[period_idx[i % period_idx.len()]];
                pids.push(b.process(ProcessSpec::new(
                    format!("p{i}"),
                    EventSpec::periodic(ms(t)),
                )));
            }
            let mut coin = coins.into_iter().chain(std::iter::repeat(false));
            for i in 0..n {
                for j in (i + 1)..n {
                    if coin.next().unwrap() {
                        b.channel(format!("c{i}_{j}"), pids[i], pids[j], ChannelKind::Fifo);
                        b.priority(pids[i], pids[j]);
                    }
                }
            }
            for (s, (user_sel, burst, mult)) in
                sporadic_params.into_iter().take(n_sporadic).enumerate()
            {
                let user = pids[user_sel % n];
                let user_t = periods[period_idx[(user_sel % n) % period_idx.len()]];
                let sp = b.process(ProcessSpec::new(
                    format!("s{s}"),
                    EventSpec::sporadic(burst, ms(user_t * mult))
                        .with_deadline(ms(user_t * mult + user_t)),
                ));
                b.channel(format!("cs{s}"), sp, user, ChannelKind::Blackboard);
                b.priority(sp, user);
            }
            b.build().expect("generated network is valid").0
        })
}

/// `graph` after `reduce`, and the number of edges `reduce` removed.
fn reduced(graph: &TaskGraph, reduce: fn(&mut TaskGraph) -> usize) -> (TaskGraph, usize) {
    let mut graph = graph.clone();
    let removed = reduce(&mut graph);
    (graph, removed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chain-indexed reduction equals the DFS oracle edge for edge and
    /// in the removed count, on the derived graph and on its unrollings.
    #[test]
    fn reduction_matches_naive_oracle(net in network_strategy(), wcet_ms in 1i64..20) {
        let wcet = WcetModel::uniform(TimeQ::from_ms(wcet_ms));
        let conflict = derive_conflict_graph(&net, &wcet).unwrap().graph;
        let fast = reduced(&conflict, TaskGraph::transitive_reduction);
        prop_assert_eq!(&fast, &reduced(&conflict, TaskGraph::transitive_reduction_naive));
        let d = derive_task_graph(&net, &wcet).unwrap();
        prop_assert_eq!((&d.graph, d.reduced_edges), (&fast.0, fast.1));
        for factor in 1..=3 {
            let unrolled = unrolled_conflict_graph(&net, &d, factor);
            let fast = reduced(&unrolled, TaskGraph::transitive_reduction);
            let naive = reduced(&unrolled, TaskGraph::transitive_reduction_naive);
            prop_assert_eq!(&fast, &naive, "factor {}", factor);
            prop_assert_eq!(&unroll_for_pipelining(&net, &d, factor), &fast.0);
        }
    }

    /// Structural invariants of the derived graph.
    #[test]
    fn derivation_invariants(net in network_strategy(), wcet_ms in 1i64..20) {
        let wcet = WcetModel::uniform(TimeQ::from_ms(wcet_ms));
        let d = derive_task_graph(&net, &wcet).unwrap();
        let g = &d.graph;

        // Acyclic.
        prop_assert!(g.topological_order().is_some());

        // Every edge respects arrival order and connects conflicting jobs.
        for (a, b) in g.edges() {
            let (ja, jb) = (g.job(a), g.job(b));
            prop_assert!(ja.arrival <= jb.arrival, "{ja} -> {jb}");
            let conflicting = ja.process == jb.process
                || net.related(ja.process, jb.process)
                || d.server(ja.process).map(|s| s.user) == Some(jb.process)
                || d.server(jb.process).map(|s| s.user) == Some(ja.process);
            prop_assert!(conflicting, "{ja} -> {jb} are not conflicting");
        }

        // Same-process jobs form a chain in k order.
        for pid in net.process_ids() {
            let mut jobs: Vec<_> = g.job_ids().filter(|&i| g.job(i).process == pid).collect();
            jobs.sort_by_key(|&i| g.job(i).k);
            for w in jobs.windows(2) {
                prop_assert!(g.is_reachable(w[0], w[1]));
            }
        }

        // Deadlines truncated to the hyperperiod; arrivals inside it.
        for i in g.job_ids() {
            prop_assert!(g.job(i).deadline <= d.hyperperiod);
            prop_assert!(g.job(i).arrival < d.hyperperiod);
        }

        // Server jobs precede their user's job with the same arrival.
        for (sp, server) in &d.servers {
            for i in g.job_ids().filter(|&i| g.job(i).process == *sp) {
                let arrival = g.job(i).arrival;
                if let Some(u) = g
                    .job_ids()
                    .find(|&u| g.job(u).process == server.user && g.job(u).arrival == arrival)
                {
                    prop_assert!(g.is_reachable(i, u), "server job must precede user job");
                }
            }
        }

        // Transitive reduction is idempotent.
        let mut g2 = g.clone();
        prop_assert_eq!(g2.transitive_reduction(), 0);
    }

    /// ASAP/ALAP and load consistency.
    #[test]
    fn analysis_invariants(net in network_strategy(), wcet_ms in 1i64..20) {
        let wcet = WcetModel::uniform(TimeQ::from_ms(wcet_ms));
        let d = derive_task_graph(&net, &wcet).unwrap();
        let times = AsapAlap::compute(&d.graph);
        for i in d.graph.job_ids() {
            let j = d.graph.job(i);
            prop_assert!(times.asap(i) >= j.arrival);
            prop_assert!(times.alap(i) <= j.deadline);
            // Precedence monotonicity.
            for s in d.graph.successors(i) {
                prop_assert!(times.asap(s) >= times.asap(i) + j.wcet);
                prop_assert!(times.alap(i) <= times.alap(s) - d.graph.job(s).wcet);
            }
        }
        // Load dominates plain utilization and is positive for non-empty.
        let l = load(&d.graph);
        prop_assert!(l.load >= d.graph.utilization());
        // Monotone necessary condition: admitted on M => admitted on M+1.
        for m in 1..4usize {
            if necessary_condition(&d.graph, m).is_ok() {
                prop_assert!(necessary_condition(&d.graph, m + 1).is_ok());
            }
        }
    }
}
