//! Property tests for the channel-dependency analysis: on random layered
//! networks, direct writers must match a naive scan of the channel table,
//! and the components must be exactly the undirected connectivity classes.

use fppn_core::{ChannelKind, EventSpec, Fppn, FppnBuilder, ProcessId, ProcessSpec};
use fppn_taskgraph::ChannelDependencyMap;
use fppn_time::TimeQ;
use proptest::prelude::*;

/// Builds a deterministic network from a compact recipe: `n` processes,
/// channels decoded from `edge_bits` over the ordered pairs `(i, j)`,
/// `i < j` (kept acyclic in FP by construction), plus one self-loop per
/// process whose bit is set in `loop_bits`.
fn network(n: usize, edge_bits: u64, loop_bits: u64) -> Fppn {
    let ms = TimeQ::from_ms;
    let mut b = FppnBuilder::new();
    let ids: Vec<ProcessId> = (0..n)
        .map(|i| b.process(ProcessSpec::new(format!("p{i}"), EventSpec::periodic(ms(100)))))
        .collect();
    let mut bit = 0u32;
    for i in 0..n {
        if loop_bits & (1 << i) != 0 {
            b.channel(format!("loop{i}"), ids[i], ids[i], ChannelKind::Blackboard);
        }
        for j in (i + 1)..n {
            // Two bits per pair: channel present? which direction?
            let present = edge_bits & (1u64 << (bit % 64)) != 0;
            let forward = edge_bits & (1u64 << ((bit + 1) % 64)) != 0;
            bit += 2;
            if !present {
                continue;
            }
            let (w, r) = if forward { (i, j) } else { (j, i) };
            b.channel(format!("c{w}_{r}"), ids[w], ids[r], ChannelKind::Fifo);
            // FP must relate channel endpoints; orient along the index
            // order so the priority DAG stays acyclic regardless of the
            // data-flow direction.
            b.priority(ids[i], ids[j]);
        }
    }
    b.build().expect("recipe networks are well-formed").0
}

/// Brute force: direct writers by scanning every channel.
fn brute_force(net: &Fppn) -> Vec<Vec<ProcessId>> {
    let n = net.process_count();
    let mut direct = vec![vec![false; n]; n]; // direct[r][w]
    for c in net.channels() {
        if c.writer() != c.reader() {
            direct[c.reader().index()][c.writer().index()] = true;
        }
    }
    direct
        .iter()
        .map(|row| {
            row.iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .map(|(i, _)| ProcessId::from_index(i))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn writers_and_components_equal_brute_force(
        n in 1usize..8,
        edge_bits in any::<u64>(),
        loop_bits in any::<u64>(),
    ) {
        let net = network(n, edge_bits, loop_bits);
        let map = ChannelDependencyMap::analyze(&net);
        let direct = brute_force(&net);
        for p in net.process_ids() {
            prop_assert_eq!(
                map.direct_writers(p), &direct[p.index()][..],
                "direct writers of {}", p
            );
            // Self-loops never contribute direct dependencies.
            prop_assert!(!map.direct_writers(p).contains(&p));
        }
        // Components partition the processes.
        let mut seen: Vec<ProcessId> = map.components().iter().flatten().copied().collect();
        seen.sort();
        let all: Vec<ProcessId> = net.process_ids().collect();
        prop_assert_eq!(seen, all);
        // Two processes share a component iff connected ignoring direction:
        // check via symmetric closure of direct edges.
        for a in net.process_ids() {
            for b_ in net.process_ids() {
                let same = map.components().iter().any(|c| c.contains(&a) && c.contains(&b_));
                let connected = undirected_connected(&direct, a, b_);
                prop_assert_eq!(same, connected, "{} vs {}", a, b_);
            }
        }
    }
}

fn undirected_connected(direct: &[Vec<ProcessId>], a: ProcessId, b: ProcessId) -> bool {
    if a == b {
        return true;
    }
    let n = direct.len();
    let mut adj = vec![vec![false; n]; n];
    for (r, ws) in direct.iter().enumerate() {
        for w in ws {
            adj[r][w.index()] = true;
            adj[w.index()][r] = true;
        }
    }
    let mut visited = vec![false; n];
    let mut stack = vec![a.index()];
    visited[a.index()] = true;
    while let Some(x) = stack.pop() {
        if x == b.index() {
            return true;
        }
        for (y, &e) in adj[x].iter().enumerate() {
            if e && !visited[y] {
                visited[y] = true;
                stack.push(y);
            }
        }
    }
    false
}
