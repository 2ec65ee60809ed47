//! Regression test for the artifact cache's zero-alloc hit path: once an
//! artifact is cached, `get_or_compile` for an equal `(network, config)`
//! pair must hash the key, look it up and clone the `Arc` without a
//! single heap allocation — the compile phase is provably skipped.
//!
//! Same per-thread counting `#[global_allocator]` as `alloc_zero.rs`
//! (`common/mod.rs`; an integration test is its own crate root, so the
//! allocator is local to this binary). Counting per thread keeps one
//! gate's window clear of the set-up allocations (FMS compiles and runs)
//! of the sibling gate that libtest runs beside it. That is sound because
//! the measured hit paths — `ArtifactCache::get_or_compile`, `run_key` and
//! `RunCache::lookup` — run synchronously on the calling thread. A change
//! that moves that work onto other threads must change these gates too,
//! or its allocations go uncounted.

mod common;

use common::{allocations, assert_counted_since};

#[test]
fn cache_hits_allocate_nothing() {
    use fppn_apps::{fms_network, fms_wcet, FmsVariant};
    use fppn_serve::ArtifactCache;
    use fppn_sim::CompileConfig;

    let (net, _, ids) = fms_network(FmsVariant::Original);
    let cfg = CompileConfig::new(fms_wcet(&ids), 4);
    let cache = ArtifactCache::new();

    // Warm-up: the one and only compile.
    let warm_up = allocations();
    let warm = cache.get_or_compile(&net, &cfg).expect("FMS compiles");
    assert_counted_since(warm_up, "the warm-up compile");
    assert_eq!((cache.hits(), cache.misses()), (0, 1));

    let before = allocations();
    for _ in 0..10 {
        let hit = cache.get_or_compile(&net, &cfg).expect("cache hit");
        assert_eq!(hit.content_hash(), warm.content_hash());
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "cache-hit get_or_compile allocated {delta} times; the hit path \
         must be hash + lookup + Arc::clone, no compile-phase work"
    );
    assert_eq!((cache.hits(), cache.misses()), (10, 1));
}

/// The cross-run result cache's hit path, held to the same standard: once
/// a `(artifact, stimuli, config)` result is cached, re-keying the same
/// request and looking it up must be hash + lookup + `Arc::clone` — zero
/// heap allocations, no simulation work.
#[test]
fn run_cache_hits_allocate_nothing() {
    use std::sync::Arc;

    use fppn_apps::{fms_network, fms_wcet, FmsVariant};
    use fppn_serve::{run_key, RunCache};
    use fppn_sim::{CompileConfig, CompiledNetwork, SimConfig};

    let (net, bank, ids) = fms_network(FmsVariant::Original);
    let bank = Arc::new(bank);
    let warm_up = allocations();
    let artifact = CompiledNetwork::compile(net, &CompileConfig::new(fms_wcet(&ids), 4))
        .expect("FMS compiles");
    assert_counted_since(warm_up, "the warm-up compile");
    let stimuli = fppn_core::Stimuli::new();
    let config = SimConfig {
        frames: 2,
        ..SimConfig::default()
    };
    let run = Arc::new(
        artifact
            .simulate(&bank, &stimuli, &config)
            .expect("FMS run"),
    );

    let cache = RunCache::new(4);
    cache.insert(
        run_key(&artifact, &stimuli, &config),
        Arc::clone(&bank),
        Arc::clone(&run),
    );

    let before = allocations();
    for _ in 0..10 {
        let key = run_key(&artifact, &stimuli, &config);
        let hit = cache.lookup(key, &bank).expect("warm cache hit");
        assert!(Arc::ptr_eq(&hit, &run), "hit must share the cached run");
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "run-cache hit path allocated {delta} times; keying and lookup \
         must be hash + lookup + Arc::clone"
    );
    assert_eq!((cache.hits(), cache.misses()), (10, 0));
}
