//! Differential tests of step 5 of the §III-A derivation: the chain-indexed
//! [`TaskGraph::transitive_reduction`] against the DFS oracle
//! [`TaskGraph::transitive_reduction_naive`] on the paper's graphs, their
//! pipelined unrollings and a synthetic graph with one chain per job.

use fppn_apps::{
    fft_network, fft_wcet, fig1_network, fig1_wcet, fms_network, fms_wcet, synthetic_task_graph,
    FmsVariant, SyntheticGraphConfig,
};
use fppn_core::Fppn;
use fppn_taskgraph::{
    derive_conflict_graph, derive_task_graph, unroll_for_pipelining, unrolled_conflict_graph,
    JobId, TaskGraph, WcetModel,
};

/// Reduces `graph` with both algorithms and asserts that they agree edge
/// for edge and in the removed count. Returns the fast result and count.
fn reduce_both(graph: &TaskGraph, label: &str) -> (TaskGraph, usize) {
    let (mut fast, mut naive) = (graph.clone(), graph.clone());
    let removed = fast.transitive_reduction();
    assert_eq!(
        removed,
        naive.transitive_reduction_naive(),
        "{label}: removed-edge count"
    );
    assert_eq!(fast, naive, "{label}: edge sets");
    (fast, removed)
}

fn paper_networks() -> Vec<(&'static str, Fppn, WcetModel)> {
    let (fig1, _, _) = fig1_network();
    let (fft, _, _) = fft_network();
    let mut nets = vec![("fig1", fig1, fig1_wcet()), ("fft", fft, fft_wcet())];
    for (label, variant) in [
        ("fms-reduced", FmsVariant::Reduced),
        ("fms-original", FmsVariant::Original),
    ] {
        let (net, _, ids) = fms_network(variant);
        let wcet = fms_wcet(&ids);
        nets.push((label, net, wcet));
    }
    nets
}

#[test]
fn reduction_matches_oracle_on_the_paper_graphs() {
    for (label, net, wcet) in paper_networks() {
        let conflict = derive_conflict_graph(&net, &wcet).expect("derivable");
        let (reduced, removed) = reduce_both(&conflict.graph, label);
        let derived = derive_task_graph(&net, &wcet).expect("derivable");
        assert_eq!(derived.graph, reduced, "{label}: derive_task_graph");
        assert_eq!(derived.reduced_edges, removed, "{label}: reduced_edges");
    }
}

/// The unrolled graph links frames through the *reduced* base graph, so a
/// process whose consecutive edge the base reduction removed splits into
/// several chains. The 40 s FMS is left out: unrolled, its oracle takes
/// seconds in a debug build.
#[test]
fn reduction_matches_oracle_on_unrolled_paper_graphs() {
    for (label, net, wcet) in paper_networks() {
        if label == "fms-original" {
            continue;
        }
        let derived = derive_task_graph(&net, &wcet).expect("derivable");
        for factor in 1..=3 {
            let tag = format!("{label} unrolled x{factor}");
            let conflict = unrolled_conflict_graph(&net, &derived, factor);
            let (reduced, _) = reduce_both(&conflict, &tag);
            assert_eq!(
                unroll_for_pipelining(&net, &derived, factor),
                reduced,
                "{tag}: unroll_for_pipelining"
            );
        }
    }
}

/// `synthetic_task_graph` gives every job a process of its own, so nearly
/// every job is a chain of its own (393 of 400) and the sweep spans 7
/// blocks. Its edges only join consecutive layers, which leaves nothing
/// redundant; the test adds shortcuts two layers deep, some of them
/// redundant.
#[test]
fn reduction_matches_oracle_across_chain_blocks() {
    let mut graph = synthetic_task_graph(&SyntheticGraphConfig {
        jobs: 400,
        depth: 40,
        seed: 7,
        ..SyntheticGraphConfig::default()
    });
    let two_hops: Vec<(JobId, JobId)> = graph
        .job_ids()
        .filter_map(|a| {
            let b = graph.successors(a).next()?;
            Some((a, graph.successors(b).last()?))
        })
        .collect();
    for (i, &(a, c)) in two_hops.iter().enumerate() {
        graph.add_edge(a, c);
        // A shortcut to a neighbour of `c`, which `a` may not reach.
        let d = JobId::from_index((c.index() + i % 3 + 1) % graph.job_count());
        if d.index() > c.index() {
            graph.add_edge(a, d);
        }
    }
    let (_, removed) = reduce_both(&graph, "synthetic, a chain per job");
    assert!(removed >= two_hops.len(), "{removed} < {}", two_hops.len());
}
