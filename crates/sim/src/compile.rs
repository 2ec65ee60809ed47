//! Compile-once/run-many: the cacheable compile phase of the simulator.
//!
//! Every artifact the online policy needs — the derived task graph, the
//! static schedule, the per-processor round orders, the wrap-around
//! predecessors, the topological positions and the stimuli-independent
//! slot templates — is a *deterministic function* of the network and the
//! compile parameters (WCET model, processor count, heuristic). This
//! module reifies that function as an immutable [`CompiledNetwork`]
//! artifact, keyed by a stable content hash ([`compile_key`]), so the
//! expensive compile phase runs once and arbitrarily many simulations
//! execute against a *borrowed* artifact.
//!
//! [`crate::simulate`] is the one-shot compile+run wrapper over this
//! module; `fppn-serve` builds a content-hash-keyed artifact cache and a
//! multi-tenant run pool on top of it.

use std::error::Error;
use std::fmt;

use fppn_core::{BehaviorBank, Fppn, Stimuli};
use fppn_sched::{list_schedule, Heuristic, StaticSchedule};
use fppn_taskgraph::{
    derive_task_graph, wrap_predecessors, DeriveError, DerivedTaskGraph, JobId, SlotTemplates,
    WcetModel,
};
use fppn_time::ContentHasher;

use crate::cancel::CancelToken;
use crate::policy::{run, RoundScratch, SimConfig, SimError, SimRun};

/// The stimuli-independent round tables shared by every run: CSR
/// per-processor static orders, CSR wrap-around predecessors, topological
/// positions and the per-job slot templates. A pure function of
/// `(network, derived graph, schedule)`, built once per compile.
#[derive(Debug, Clone)]
pub struct StaticTables {
    /// CSR over processors: `proc_order_data[bounds[m]..bounds[m + 1]]`
    /// is processor `m`'s static round order.
    pub(crate) proc_order_data: Vec<JobId>,
    pub(crate) proc_order_bounds: Vec<usize>,
    /// CSR over jobs: the previous-frame (wrap-around) predecessors.
    pub(crate) wrap_pred_data: Vec<JobId>,
    pub(crate) wrap_pred_bounds: Vec<usize>,
    /// Topological position of every job — the third component of the
    /// canonical record key `(completion, frame, topo)`.
    pub(crate) topo_pos: Vec<usize>,
    /// Stimuli-independent half of slot resolution.
    pub(crate) templates: SlotTemplates,
}

impl StaticTables {
    /// Assembles the tables from an already-derived graph and schedule.
    pub fn build(net: &Fppn, derived: &DerivedTaskGraph, schedule: &StaticSchedule) -> Self {
        let graph = &derived.graph;
        let (proc_order_data, proc_order_bounds) = schedule.processor_order_csr();

        // Cross-frame wrap edges (shared with the threaded runtime; see
        // fppn-taskgraph), flattened to CSR over job ids.
        let wrap_preds = wrap_predecessors(net, derived);
        let mut wrap_pred_data = Vec::new();
        let mut wrap_pred_bounds = Vec::with_capacity(graph.job_count() + 1);
        wrap_pred_bounds.push(0);
        for preds in &wrap_preds {
            wrap_pred_data.extend_from_slice(preds);
            wrap_pred_bounds.push(wrap_pred_data.len());
        }

        let order = graph
            .topological_order()
            .expect("derived task graphs are acyclic");
        let mut topo_pos = vec![0usize; graph.job_count()];
        for (i, id) in order.iter().enumerate() {
            topo_pos[id.index()] = i;
        }

        StaticTables {
            proc_order_data,
            proc_order_bounds,
            wrap_pred_data,
            wrap_pred_bounds,
            topo_pos,
            templates: SlotTemplates::build(net, derived),
        }
    }

    /// The number of processors covered by the per-processor orders.
    pub fn processors(&self) -> usize {
        self.proc_order_bounds.len() - 1
    }
}

/// The compile-phase parameters: everything besides the network itself
/// that determines the derived graph, the schedule and the round tables.
/// Part of the [`compile_key`] cache key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileConfig {
    /// Per-process WCET table driving task-graph derivation.
    pub wcet: WcetModel,
    /// Number of processors `M` to schedule onto.
    pub processors: usize,
    /// The list-scheduling `SP` heuristic.
    pub heuristic: Heuristic,
}

impl CompileConfig {
    /// A config with the default ([`Heuristic::AlapEdf`]) heuristic.
    pub fn new(wcet: WcetModel, processors: usize) -> Self {
        CompileConfig {
            wcet,
            processors,
            heuristic: Heuristic::default(),
        }
    }
}

/// Errors from [`CompiledNetwork::compile`].
#[derive(Debug)]
#[non_exhaustive]
pub enum CompileError {
    /// Task-graph derivation failed (network outside the schedulable
    /// subclass of §III-A).
    Derive(DeriveError),
    /// `CompileConfig::processors` was zero.
    NoProcessors,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Derive(e) => write!(f, "task-graph derivation failed: {e}"),
            CompileError::NoProcessors => write!(f, "compile requires at least one processor"),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Derive(e) => Some(e),
            CompileError::NoProcessors => None,
        }
    }
}

impl From<DeriveError> for CompileError {
    fn from(e: DeriveError) -> Self {
        CompileError::Derive(e)
    }
}

/// The stable content hash keying a compiled artifact: the network's
/// static structure (processes, channels, FP edges — behaviors excluded)
/// plus every compile parameter (WCET table, processor count, heuristic).
///
/// Equal inputs always produce equal keys across processes and runs;
/// mutating any single input changes the key (asserted by the
/// differential suite). The hash is FNV-1a-64 over a field-tagged stream —
/// collision-resistant enough for cache keying, not cryptographic.
pub fn compile_key(net: &Fppn, cfg: &CompileConfig) -> u64 {
    let mut h = ContentHasher::new();
    net.content_hash_into(&mut h);
    cfg.wcet.content_hash_into(&mut h);
    h.write_usize(cfg.processors);
    h.write_u8(match cfg.heuristic {
        Heuristic::AlapEdf => 0,
        Heuristic::Edf => 1,
        Heuristic::BLevel => 2,
        Heuristic::DeadlineMonotonic => 3,
        Heuristic::Asap => 4,
        // `Heuristic` is non-exhaustive upstream; a new variant must get
        // its own tag before it can be cached.
        _ => unreachable!("unhashed heuristic variant"),
    });
    h.finish()
}

/// An immutable compile artifact: the validated network plus every
/// stimuli-independent table the simulator needs, keyed by
/// [`compile_key`]. Runs borrow the artifact; nothing in it is mutated by
/// (or specific to) a run, so one artifact can serve any number of
/// concurrent simulations.
#[derive(Debug)]
pub struct CompiledNetwork {
    net: Fppn,
    derived: DerivedTaskGraph,
    schedule: StaticSchedule,
    tables: StaticTables,
    content_hash: u64,
}

impl CompiledNetwork {
    /// Runs the full compile phase: task-graph derivation, list
    /// scheduling, round-table construction, content hashing.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] if derivation fails or `cfg.processors`
    /// is zero.
    pub fn compile(net: Fppn, cfg: &CompileConfig) -> Result<Self, CompileError> {
        if cfg.processors == 0 {
            return Err(CompileError::NoProcessors);
        }
        let derived = derive_task_graph(&net, &cfg.wcet)?;
        let schedule = list_schedule(&derived.graph, cfg.processors, cfg.heuristic);
        let tables = StaticTables::build(&net, &derived, &schedule);
        let content_hash = compile_key(&net, cfg);
        Ok(CompiledNetwork {
            net,
            derived,
            schedule,
            tables,
            content_hash,
        })
    }

    /// The validated network.
    pub fn net(&self) -> &Fppn {
        &self.net
    }

    /// The derived task graph (one hyperperiod of jobs).
    pub fn derived(&self) -> &DerivedTaskGraph {
        &self.derived
    }

    /// The static schedule the online policy repeats every frame.
    pub fn schedule(&self) -> &StaticSchedule {
        &self.schedule
    }

    /// The precomputed round tables.
    pub fn tables(&self) -> &StaticTables {
        &self.tables
    }

    /// The [`compile_key`] this artifact was built under.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Simulates against this artifact with zero recompilation: the
    /// compile-phase tables are borrowed, whatever [`SimConfig`] says.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on an invalid config or stimuli, behavior
    /// failures, or a deadlocked (structurally invalid) schedule.
    pub fn simulate(
        &self,
        bank: &BehaviorBank,
        stimuli: &Stimuli,
        config: &SimConfig,
    ) -> Result<SimRun, SimError> {
        self.run(bank, stimuli, config, None, None)
    }

    /// Like [`CompiledNetwork::simulate`], but reusing caller-owned
    /// scratch buffers: a worker running many simulations back to back
    /// keeps its round buffers (and frame-memo entries) warm across runs —
    /// the `fppn-serve` pool gives every worker one [`RunScratch`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on an invalid config or stimuli, behavior
    /// failures, or a deadlocked (structurally invalid) schedule.
    pub fn simulate_with_scratch(
        &self,
        bank: &BehaviorBank,
        stimuli: &Stimuli,
        config: &SimConfig,
        scratch: &mut RunScratch,
    ) -> Result<SimRun, SimError> {
        self.run(bank, stimuli, config, Some(scratch), None)
    }

    /// Like [`CompiledNetwork::simulate_with_scratch`], but with
    /// cooperative cancellation armed: the round loop polls `cancel` at
    /// round/frame boundaries (and the data plane per behavior job) and
    /// abandons the run with [`SimError::Cancelled`] once it trips — the
    /// mechanism behind `fppn-serve`'s per-run deadlines and server
    /// shutdown. A run whose token never trips is bit-identical to
    /// [`CompiledNetwork::simulate`] (the polls read a flag and touch no
    /// computed value), and the steady-state round loop still allocates
    /// nothing (asserted by the `alloc_zero` gate).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Cancelled`] when the token trips mid-run, and
    /// every [`CompiledNetwork::simulate`] error otherwise.
    pub fn simulate_cancellable(
        &self,
        bank: &BehaviorBank,
        stimuli: &Stimuli,
        config: &SimConfig,
        scratch: &mut RunScratch,
        cancel: &CancelToken,
    ) -> Result<SimRun, SimError> {
        self.run(bank, stimuli, config, Some(scratch), Some(cancel))
    }

    fn run(
        &self,
        bank: &BehaviorBank,
        stimuli: &Stimuli,
        config: &SimConfig,
        scratch: Option<&mut RunScratch>,
        cancel: Option<&CancelToken>,
    ) -> Result<SimRun, SimError> {
        run(
            &self.net,
            bank,
            stimuli,
            &self.derived,
            &self.tables,
            config,
            scratch.map(|s| &mut s.inner),
            cancel,
        )
    }
}

/// Caller-owned scratch buffers for [`CompiledNetwork::simulate_with_scratch`]:
/// the completion table, per-processor availability, cursor state and
/// frame-memo entries of the round loop, reused across runs (records are
/// handed to each [`SimRun`] and therefore reallocated per run).
#[derive(Debug, Default)]
pub struct RunScratch {
    pub(crate) inner: RoundScratch,
}

impl RunScratch {
    /// Empty scratch; the first run sizes the buffers.
    pub fn new() -> Self {
        Self::default()
    }
}
