//! A deliberately narrow public window onto the round-computation hot
//! path, for allocation instrumentation and differential testing.
//!
//! The `RoundEngine` and its scratch buffers are crate-private; this module
//! re-exposes exactly the "build once, recompute rounds into reused
//! buffers" loop so `fppn-bench` can assert the steady-state round loop
//! performs zero heap allocations (the `alloc_zero` regression test) and
//! report the frame memo's hits and misses from the scalability bin; the
//! request-level benchmark (`perfbench/`) also times the round layer alone
//! through it. The round loop behind it is the same one every run uses,
//! frame memo included, whatever the data plane, so the seam measures the
//! real thing.
//!
//! [`simulate_oracle`] is the other seam: the whole run through the plain
//! free-interleave round loop, which never replays a frame. It is the
//! reference the differential suite proves the default loop against, kept
//! the way `list_schedule_naive` is kept for the scheduler.
//!
//! The module is `#[doc(hidden)]`: not a supported API, only a
//! measurement and test seam.

use fppn_core::{BehaviorBank, Fppn, Stimuli};
use fppn_sched::StaticSchedule;
use fppn_taskgraph::DerivedTaskGraph;

use crate::cancel::CancelToken;
use crate::compile::StaticTables;
use crate::policy::{RoundEngine, RoundScratch, SimConfig, SimError, SimRun};
use crate::JobRecord;

pub use crate::policy::MEMO_MISS_BUDGET;

/// Owns a [`RoundEngine`] plus its reusable [`RoundScratch`]: after one
/// warm-up [`SeqRounds::compute`], further computes allocate nothing.
pub struct SeqRounds<'a> {
    engine: RoundEngine<'a>,
    scratch: RoundScratch,
}

impl<'a> SeqRounds<'a> {
    /// Builds the round tables for one simulation shape.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on an invalid config or on stimuli inconsistent
    /// with the network.
    pub fn new(
        net: &Fppn,
        stimuli: &Stimuli,
        derived: &'a DerivedTaskGraph,
        tables: &'a StaticTables,
        config: &SimConfig,
    ) -> Result<Self, SimError> {
        Ok(SeqRounds {
            engine: RoundEngine::new(net, stimuli, derived, tables, config)?,
            scratch: RoundScratch::new(),
        })
    }

    /// Arms cooperative cancellation on the engine, so the `alloc_zero`
    /// gate can assert the round loop stays allocation-free with a live
    /// (never-tripping) token's deadline checks on the hot path.
    pub fn set_cancel(&mut self, token: &'a CancelToken) {
        self.engine.set_cancel(token);
    }

    /// Recomputes every round into the reused scratch buffers and returns
    /// the number of rounds computed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] on a structurally invalid schedule.
    pub fn compute(&mut self) -> Result<usize, SimError> {
        self.engine.compute_rounds_into(&mut self.scratch, None)?;
        Ok(self.scratch.records.len())
    }

    /// Cumulative frame-memo `(hits, misses)` across every [`Self::compute`]
    /// so far. Both zero unless the memo engaged (the `Wcet` execution-time
    /// model); misses stop at [`MEMO_MISS_BUDGET`] per compute once the
    /// memo disengages.
    pub fn memo_stats(&self) -> (u64, u64) {
        self.scratch.memo_stats()
    }

    /// Computes every round like [`Self::compute`], except that a memo hit
    /// is computed live instead of replayed and pushed into `matches` as
    /// `(frame, source frame)`; returns the records. The exact-key audit
    /// seam: the frames of each pair must be `+k·H` translates.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] on a structurally invalid schedule.
    pub fn compute_memo_audit(
        &mut self,
        matches: &mut Vec<(u64, u64)>,
    ) -> Result<Vec<JobRecord>, SimError> {
        matches.clear();
        self.engine
            .compute_rounds_into(&mut self.scratch, Some(matches))?;
        Ok(self.scratch.records.clone())
    }
}

/// The differential oracle: [`crate::simulate`] with the default round
/// loop swapped for the free-interleave loop, which computes every round
/// and never consults the frame memo. Everything else — binding,
/// canonical order, the data plane `config.behavior_workers` selects,
/// rendering — is shared, so a divergence from [`crate::simulate`] can
/// only come from the round loop. On a stalled schedule its
/// `completed_rounds` is the dataflow fixed point, not the default loop's
/// frame-major count.
///
/// # Errors
///
/// Returns [`SimError`] on an invalid config or stimuli, behavior
/// failures, or a deadlocked (structurally invalid) schedule.
pub fn simulate_oracle(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    derived: &DerivedTaskGraph,
    schedule: &StaticSchedule,
    config: &SimConfig,
) -> Result<SimRun, SimError> {
    let tables = StaticTables::build(net, derived, schedule);
    let engine = RoundEngine::new(net, stimuli, derived, &tables, config)?;
    let mut scratch = RoundScratch::new();
    engine.compute_rounds_oracle_into(&mut scratch)?;
    engine.finalize(net, bank, stimuli, scratch.records, config.behavior_workers)
}
