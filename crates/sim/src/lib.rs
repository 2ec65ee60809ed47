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
//! per-processor static orders frame by frame and (with
//! [`SimConfig::memo`]) replays repeated frames from a fingerprint-keyed
//! memo. The only parallel mode is the *data plane*: with
//! [`SimConfig::behavior_workers`] `≥ 1` the process behaviors execute on
//! that many threads against per-process shards, rendezvousing on the
//! canonical record order the round engine already fixed. Prop. 4.1 makes
//! the observables independent of that choice, and the differential suite
//! proves every setting bit-identical to the sequential store.
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

mod behavior;
mod cancel;
mod compile;
mod exectime;
mod gantt;
#[doc(hidden)]
pub mod hotpath;
mod metrics;
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
pub use policy::{clip_stimuli, simulate, JobRecord, SimConfig, SimError, SimRun, SimStats};
pub use stimgen::adversarial::{adversarial_stimuli, max_density_flood_trace, AdversarialClass};
pub use stimgen::{
    random_sporadic_trace, random_stimuli, sporadic_processes, tiled_sporadic_trace,
    validate_stimuli,
};
