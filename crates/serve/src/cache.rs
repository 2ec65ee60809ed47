//! The content-hash-keyed artifact cache and the cross-run result cache.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use fppn_core::{BehaviorBank, Fppn, Stimuli};
use fppn_sim::{compile_key, CompileConfig, CompileError, CompiledNetwork, SimConfig, SimRun};
use fppn_time::ContentHasher;

/// A thread-safe cache of [`CompiledNetwork`] artifacts keyed by
/// [`compile_key`]: the first request for a `(network, compile config)`
/// pair pays the compile phase, every later request for an equal pair gets
/// the shared artifact back without deriving, scheduling or allocating.
///
/// Invariants:
///
/// * one artifact per key — concurrent misses race to insert, but every
///   caller observes the same `Arc` once the entry exists;
/// * a hit never mutates the artifact (runs borrow it), so cached and
///   freshly compiled artifacts are interchangeable — the differential
///   suite asserts the resulting runs bit-identical;
/// * hit/miss counters are monotone and observable for benchmarks.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    map: Mutex<HashMap<u64, Arc<CompiledNetwork>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the artifact for `(net, cfg)`, compiling and inserting it
    /// on the first request. The hit path clones an `Arc` and touches no
    /// allocator (asserted by the `cache_alloc` regression test).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if the miss-path compile fails; failures
    /// are not cached, so a later corrected request recompiles.
    pub fn get_or_compile(
        &self,
        net: &Fppn,
        cfg: &CompileConfig,
    ) -> Result<Arc<CompiledNetwork>, CompileError> {
        let key = compile_key(net, cfg);
        if let Some(artifact) = self.map.lock().unwrap_or_else(PoisonError::into_inner).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(artifact));
        }
        // Compile outside the lock: misses on distinct keys proceed in
        // parallel, and a poisoned-by-panic compile can't wedge the cache.
        let artifact = Arc::new(CompiledNetwork::compile(net.clone(), cfg)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        // Two threads may have compiled the same key concurrently; keep
        // the first insert so every caller shares one artifact from then on.
        Ok(Arc::clone(map.entry(key).or_insert(artifact)))
    }

    /// The artifact already cached under `key`, if any (no compile).
    pub fn lookup(&self, key: u64) -> Option<Arc<CompiledNetwork>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner).get(&key).map(Arc::clone)
    }

    /// Requests answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct artifacts currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The cross-run result key: one stable 64-bit hash over everything a
/// run's output is a function of — the compiled artifact's content hash
/// (network + WCET model + schedule), the complete [`Stimuli`]
/// (Prop. 2.1: the run-specific input in its entirety), and every
/// [`SimConfig`] field (frames, overhead model, exec-time model).
///
/// Deliberately **not** part of the key: the behavior bank. Behaviors are
/// arbitrary code and cannot be content-hashed, so [`RunCache`] guards
/// each hit with a bank identity check instead — see
/// [`RunCache::lookup`].
pub fn run_key(artifact: &CompiledNetwork, stimuli: &Stimuli, config: &SimConfig) -> u64 {
    let mut h = ContentHasher::new();
    h.write_u64(artifact.content_hash());
    stimuli.content_hash_into(&mut h);
    config.content_hash_into(&mut h);
    h.finish()
}

/// One cached run result: the shared output plus the identity of the
/// behavior bank that produced it.
struct RunEntry {
    run: Arc<SimRun>,
    bank: Arc<BehaviorBank>,
}

/// A bounded, thread-safe cache of completed [`SimRun`]s keyed by
/// [`run_key`]: a warm identical run returns the cached result via
/// `Arc::clone` instead of simulating, collapsing `hit_run_us` from
/// simulation scale to lookup scale.
///
/// Soundness rests on determinism end to end: the simulator is a pure
/// function of `(artifact, stimuli, config)` (Prop. 2.1), so equal keys
/// denote equal outputs. Two guards keep the pure-function claim honest:
///
/// * behavior code is not hashable, so a hit additionally requires the
///   request's bank to be the **same `Arc`** that produced the entry
///   (`Arc::ptr_eq`) — a different bank (e.g. a fault-injecting chaos
///   bank over the same network) can never be answered with another
///   bank's result;
/// * only successful runs are cached — faults, timeouts and cancellations
///   always re-execute.
///
/// Eviction is FIFO under a fixed entry budget: round-robin workloads at
/// most one entry over budget simply churn, and nothing is pinned forever.
#[derive(Debug)]
pub struct RunCache {
    inner: Mutex<RunCacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct RunCacheInner {
    map: HashMap<u64, RunEntry>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
}

impl std::fmt::Debug for RunEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunEntry").finish_non_exhaustive()
    }
}

impl RunCache {
    /// An empty cache bounded to `capacity` entries (clamped to at least
    /// one — a zero-entry cache is expressed by not constructing one).
    pub fn new(capacity: usize) -> Self {
        RunCache {
            inner: Mutex::new(RunCacheInner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached result for `key` if present **and** produced by
    /// this exact behavior bank (`Arc::ptr_eq` — see the type docs). The
    /// hit path is one lock, one `HashMap` probe and one `Arc::clone`:
    /// allocation-free (asserted by the `cache_alloc` regression test).
    pub fn lookup(&self, key: u64, bank: &Arc<BehaviorBank>) -> Option<Arc<SimRun>> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.map.get(&key) {
            Some(entry) if Arc::ptr_eq(&entry.bank, bank) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.run))
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Caches one successful run, evicting the oldest entry once the
    /// budget is exceeded. Re-inserting an existing key replaces the entry
    /// in place (its FIFO position is kept — replacement is not renewal).
    pub fn insert(&self, key: u64, bank: Arc<BehaviorBank>, run: Arc<SimRun>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let entry = RunEntry { run, bank };
        if inner.map.insert(key, entry).is_none() {
            inner.order.push_back(key);
            while inner.order.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                }
            }
        }
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed (absent key or different behavior bank).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of results currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).map.len()
    }

    /// Whether the cache holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};
    use fppn_sched::Heuristic;
    use fppn_taskgraph::WcetModel;
    use fppn_time::TimeQ;

    fn net() -> Fppn {
        let ms = TimeQ::from_ms;
        let mut b = FppnBuilder::new();
        let a = b.process(ProcessSpec::new("a", EventSpec::periodic(ms(100))));
        let c = b.process(ProcessSpec::new("c", EventSpec::periodic(ms(200))));
        b.channel("ch", a, c, ChannelKind::Fifo);
        b.priority(a, c);
        b.build().unwrap().0
    }

    #[test]
    fn hit_returns_the_same_artifact() {
        let cache = ArtifactCache::new();
        let cfg = CompileConfig::new(WcetModel::uniform(TimeQ::from_ms(10)), 2);
        let first = cache.get_or_compile(&net(), &cfg).unwrap();
        let second = cache.get_or_compile(&net(), &cfg).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "hit must share the artifact");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert_eq!(cache.lookup(first.content_hash()).unwrap().content_hash(), first.content_hash());
    }

    #[test]
    fn distinct_configs_get_distinct_entries() {
        let cache = ArtifactCache::new();
        let wcet = WcetModel::uniform(TimeQ::from_ms(10));
        let a = cache.get_or_compile(&net(), &CompileConfig::new(wcet.clone(), 2)).unwrap();
        let b = cache
            .get_or_compile(
                &net(),
                &CompileConfig {
                    wcet,
                    processors: 2,
                    heuristic: Heuristic::BLevel,
                },
            )
            .unwrap();
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 2));
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let cache = ArtifactCache::new();
        let cfg = CompileConfig::new(WcetModel::uniform(TimeQ::from_ms(10)), 0);
        assert!(cache.get_or_compile(&net(), &cfg).is_err());
        assert!(cache.is_empty());
    }

    fn run_fixture() -> (Arc<SimRun>, Arc<BehaviorBank>, u64) {
        let ms = TimeQ::from_ms;
        let mut b = FppnBuilder::new();
        b.process(ProcessSpec::new("p", EventSpec::periodic(ms(100))));
        let (network, bank) = b.build().unwrap();
        let cfg = CompileConfig::new(WcetModel::uniform(ms(10)), 1);
        let artifact = CompiledNetwork::compile(network, &cfg).unwrap();
        let sim_cfg = SimConfig {
            frames: 2,
            ..SimConfig::default()
        };
        let bank = Arc::new(bank);
        let run = artifact.simulate(&bank, &Stimuli::new(), &sim_cfg).unwrap();
        let key = run_key(&artifact, &Stimuli::new(), &sim_cfg);
        (Arc::new(run), bank, key)
    }

    #[test]
    fn run_cache_hits_require_the_same_bank() {
        let (run, bank, key) = run_fixture();
        let cache = RunCache::new(4);
        assert!(cache.lookup(key, &bank).is_none());
        cache.insert(key, Arc::clone(&bank), Arc::clone(&run));
        let hit = cache.lookup(key, &bank).expect("same bank must hit");
        assert!(Arc::ptr_eq(&hit, &run), "hit must share the result");
        // A different bank over the same key must miss: behavior code is
        // not part of the key, so identity is the guard.
        let ms = TimeQ::from_ms;
        let mut b2 = FppnBuilder::new();
        b2.process(ProcessSpec::new("p", EventSpec::periodic(ms(100))));
        let other_bank = Arc::new(b2.build().unwrap().1);
        assert!(cache.lookup(key, &other_bank).is_none());
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 1));
    }

    #[test]
    fn run_cache_evicts_fifo_under_budget() {
        let (run, bank, key) = run_fixture();
        let cache = RunCache::new(2);
        cache.insert(key, Arc::clone(&bank), Arc::clone(&run));
        cache.insert(key ^ 1, Arc::clone(&bank), Arc::clone(&run));
        cache.insert(key ^ 2, Arc::clone(&bank), Arc::clone(&run));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.lookup(key, &bank).is_none(),
            "oldest entry must be evicted first"
        );
        assert!(cache.lookup(key ^ 2, &bank).is_some());
        // Re-inserting an existing key replaces in place, no duplicate
        // FIFO slot and no eviction.
        cache.insert(key ^ 2, Arc::clone(&bank), run);
        assert_eq!(cache.len(), 2);
    }
}
