//! Regression test for the SoA round engine's zero-alloc steady state:
//! after one warm-up pass, recomputing every round of a pinned FMS
//! workload into the reused [`fppn_sim::hotpath::SeqRounds`] scratch
//! buffers must perform **zero** heap allocations. Periodic FMS replays
//! almost every frame from the frame memo, so one gate drives dense,
//! non-repeating sporadic arrivals instead: there the memo disengages and
//! the measured path is the live round loop.
//!
//! The test binary installs its own counting `#[global_allocator]`
//! (`common/mod.rs`) and therefore runs under a plain `cargo test -q`,
//! with no feature flags and with any `--test-threads`. The allocator
//! counts **per thread**, so one gate's window never counts the set-up
//! allocations of the sibling gates that libtest runs beside it. That is
//! sound because the measured path runs entirely on the calling thread:
//! `compute_rounds_into` drives its per-processor cursors on one
//! thread, and an armed `CancelToken` check is a relaxed load plus
//! `Instant::now()`. A change that moves round computation onto other
//! threads must change these gates too, or its allocations go uncounted.

mod common;

use common::{allocations, assert_counted_since};

/// The live round loop: dense sporadic arrivals drawn over the whole
/// horizon (not tiled per hyperperiod), so no two frames see the same
/// server-slot resolutions. The memo must spend its miss budget, hit
/// nothing, and leave the remaining frames to the live loop.
#[test]
fn steady_state_round_computation_allocates_nothing() {
    use fppn_apps::{fms_network, fms_wcet, FmsVariant};
    use fppn_sched::{list_schedule, Heuristic};
    use fppn_sim::hotpath::{SeqRounds, MEMO_MISS_BUDGET};
    use fppn_sim::{clip_stimuli, random_stimuli, SimConfig, StaticTables};
    use fppn_taskgraph::derive_task_graph;
    use fppn_time::TimeQ;

    let (net, _, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let frames = 8;
    let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
    // Density 900 keeps random slack between arrivals; at 1000 there is
    // none, and the maximal-rate pattern repeats every frame.
    let stimuli = random_stimuli(&net, horizon, 900, 0xA110C);
    let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);
    let cfg = SimConfig {
        frames,
        ..SimConfig::default()
    };
    let mut rounds =
        SeqRounds::new(&net, &stimuli, &derived, &tables, &cfg).expect("round tables");

    // Warm-up: grows every scratch buffer to its final capacity.
    let warm_up = allocations();
    let n = rounds.compute().expect("warm-up compute");
    assert_counted_since(warm_up, "the warm-up compute");
    assert!(n > 1_000, "pinned workload should be non-trivial, got {n} rounds");

    let before = allocations();
    for _ in 0..3 {
        let again = rounds.compute().expect("steady-state compute");
        assert_eq!(again, n, "round count must be stable across recomputes");
    }
    let delta = allocations() - before;
    // Cumulative over the warm-up and the three steady-state computes.
    assert_eq!(
        rounds.memo_stats(),
        (0, 4 * MEMO_MISS_BUDGET),
        "each compute must spend exactly the miss budget and never replay"
    );
    assert_eq!(
        delta, 0,
        "steady-state round loop allocated {delta} times; the RoundScratch \
         buffers are supposed to be fully reused after warm-up"
    );
}

/// Same gate with cooperative cancellation armed: a live (never-tripping)
/// deadline token's per-boundary checks — a relaxed atomic load plus an
/// occasional `Instant::now()` — must not cost the round loop its
/// zero-alloc steady state. This is what lets `fppn-serve` put a deadline
/// on every pooled run for free.
#[test]
fn steady_state_with_armed_cancel_token_allocates_nothing() {
    use fppn_apps::{fms_network, fms_wcet, FmsVariant};
    use fppn_sched::{list_schedule, Heuristic};
    use fppn_sim::hotpath::SeqRounds;
    use fppn_sim::{CancelToken, SimConfig, StaticTables};
    use fppn_taskgraph::derive_task_graph;
    use std::time::Duration;

    let (net, _, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let stimuli = fppn_core::Stimuli::new();
    let cfg = SimConfig {
        frames: 8,
        ..SimConfig::default()
    };
    // A deadline far enough out that the token never trips mid-test, so
    // every compute exercises the armed checks end to end.
    let token = CancelToken::with_deadline(Duration::from_secs(3600));
    let mut rounds =
        SeqRounds::new(&net, &stimuli, &derived, &tables, &cfg).expect("round tables");
    rounds.set_cancel(&token);

    let warm_up = allocations();
    let n = rounds.compute().expect("warm-up compute");
    assert_counted_since(warm_up, "the warm-up compute");
    let before = allocations();
    for _ in 0..3 {
        let again = rounds.compute().expect("steady-state compute");
        assert_eq!(again, n, "round count must be stable across recomputes");
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "armed cancellation checks allocated {delta} times on the \
         steady-state round path; they must stay allocation-free"
    );
    assert!(!token.is_cancelled(), "the far deadline tripped mid-test");
}

/// Same gate on periodic FMS, where the frame memo replays: after the
/// warm-up compute has populated the memo and grown every entry buffer,
/// steady-state recomputes must replay hit frames — carry-in key, table
/// scan, record copy — without a single heap allocation. A memo that
/// allocates per hit would trade the zero-alloc steady state for its
/// speedup; this pins that it does neither.
#[test]
fn steady_state_with_frame_memo_allocates_nothing() {
    use fppn_apps::{fms_network, fms_wcet, FmsVariant};
    use fppn_sched::{list_schedule, Heuristic};
    use fppn_sim::hotpath::SeqRounds;
    use fppn_sim::{SimConfig, StaticTables};
    use fppn_taskgraph::derive_task_graph;

    let (net, _, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let stimuli = fppn_core::Stimuli::new();
    let cfg = SimConfig {
        frames: 8,
        ..SimConfig::default()
    };
    let mut rounds =
        SeqRounds::new(&net, &stimuli, &derived, &tables, &cfg).expect("round tables");

    // Warm-up: grows the scratch buffers *and* the memo entry buffers.
    let warm_up = allocations();
    let n = rounds.compute().expect("warm-up compute");
    assert_counted_since(warm_up, "the warm-up compute");
    let (warm_hits, warm_misses) = rounds.memo_stats();
    assert!(
        warm_hits > 0,
        "the pinned periodic workload must replay frames ({warm_hits}h/{warm_misses}m)"
    );

    let before = allocations();
    for _ in 0..3 {
        let again = rounds.compute().expect("steady-state compute");
        assert_eq!(again, n, "round count must be stable across recomputes");
    }
    let delta = allocations() - before;
    let (hits, _) = rounds.memo_stats();
    assert!(hits > warm_hits, "steady-state computes must keep hitting");
    assert_eq!(
        delta, 0,
        "memoized steady-state round loop allocated {delta} times; hit \
         replay must reuse the memo entry buffers, not the allocator"
    );
}
