//! # fppn-sim — discrete-event platform simulator and online policy (§IV)
//!
//! This crate substitutes for the paper's hardware testbeds (Kalray MPPA
//! many-core, Linux/i7): a deterministic discrete-event simulation of `M`
//! identical processors executing an FPPN under the **static-order online
//! policy**, with a calibratable runtime-overhead model (the 41 ms / 20 ms
//! frame-management costs measured in §V-A) and configurable actual
//! execution times.
//!
//! The simulator runs the *real* process behaviors, so its observable
//! outputs can be compared bit-for-bit against the zero-delay reference of
//! `fppn-core` — the workspace's mechanized check of Prop. 4.1.
//!
//! One sequential round engine computes every run: it walks the
//! per-processor static orders frame by frame and, under the WCET
//! execution-time model, replays a frame whose exact inputs match the
//! last memoized frame's from a one-entry frame memo; a run whose frames
//! do not repeat disengages the memo after a few misses. The records are
//! then sorted into the canonical order and the behaviors replay in it
//! through one sequential store, on the caller's thread: the crate spawns
//! none. The differential suite proves every run, and every replayed
//! frame, bit-identical to the oracle: the plain round loop that never
//! replays (`hotpath::simulate_oracle`).
//!
//! One module per decision of a run: `policy` binds it and runs the round
//! loops, `memo` is the frame memo, `order` the canonical record order and
//! `gantt` renders the chart and statistics.
//!
//! The compile phase (task-graph derivation, list scheduling, round
//! tables) is split from the run phase: [`CompiledNetwork`] reifies it as
//! an immutable, content-hash-keyed artifact ([`compile_key`]) so many
//! runs — any configuration, any stimuli — execute against one borrowed
//! compile. [`simulate`] is the one-shot compile+run wrapper over the same
//! run function; `fppn-serve` adds an artifact cache and a multi-tenant
//! run pool on top.
//!
//! See [`simulate`] for the entry point and `fppn-apps`/`fppn-bench` for
//! full reproductions of the paper's Figures 4 and 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cancel;
mod compile;
mod exectime;
mod gantt;
#[doc(hidden)]
pub mod hotpath;
mod memo;
mod metrics;
mod order;
mod overhead;
mod policy;
mod stimgen;

pub use cancel::CancelToken;
pub use compile::{
    compile_key, CompileConfig, CompileError, CompiledNetwork, RunScratch, StaticTables,
};
pub use exectime::{ExecTimeModel, ExecTimeSampler};
pub use gantt::{Gantt, Segment, SegmentKind};
pub use metrics::{
    completion_table, end_to_end_latency, missed_jobs, response_stats, response_table,
    ResponseStats,
};
pub use overhead::OverheadModel;
pub use policy::{simulate, JobRecord, SimConfig, SimError, SimRun, SimStats};
pub use stimgen::adversarial::{adversarial_stimuli, max_density_flood_trace, AdversarialClass};
pub use stimgen::{
    clip_stimuli, random_sporadic_trace, random_stimuli, sporadic_processes, tiled_sporadic_trace,
    validate_stimuli,
};
