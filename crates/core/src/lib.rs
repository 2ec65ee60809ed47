//! # fppn-core — Fixed-Priority Process Networks
//!
//! The model of computation from *"Models for Deterministic Execution of
//! Real-Time Multiprocessor Applications"* (Poplavko, Socci, Bourgos,
//! Bensalem, Bozga — DATE 2015), §II.
//!
//! An **FPPN** is a network of processes invoked by *event generators*
//! (multi-periodic or sporadic), communicating over **FIFO** and
//! **blackboard** channels with *non-blocking* data access, plus an acyclic
//! **functional-priority** relation `FP` that must order every pair of
//! processes sharing a channel. The functional priority determines the
//! relative execution order of simultaneously invoked jobs, which makes the
//! whole network's observable behaviour a *function* of input data and
//! event timestamps (Prop. 2.1) — on any number of processors.
//!
//! This crate contains the static model ([`Fppn`], [`FppnBuilder`]), the
//! data/channel semantics ([`ChannelState`]), process behaviors (native
//! Rust [`Behavior`]s or interpreted [`automaton`]s per Def. 2.2), the
//! sequential execution substrate ([`ExecState`]) and the **zero-delay
//! reference semantics** ([`run_zero_delay`]). Scheduling lives in
//! `fppn-taskgraph`/`fppn-sched`; real-time execution backends in
//! `fppn-sim` and `fppn-runtime`.
//!
//! # Examples
//!
//! ```
//! use fppn_core::{run_zero_delay, ChannelKind, EventSpec, FppnBuilder, JobOrdering,
//!                 ProcessSpec, Stimuli, Value};
//! use fppn_time::TimeQ;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = FppnBuilder::new();
//! let ms = TimeQ::from_ms;
//! let input = b.process(ProcessSpec::new("input", EventSpec::periodic(ms(200))));
//! let filter = b.process(ProcessSpec::new("filter", EventSpec::periodic(ms(100))));
//! let data = b.channel("data", input, filter, ChannelKind::Fifo);
//! b.priority(input, filter);
//! b.behavior(input, move || Box::new(move |ctx: &mut fppn_core::JobCtx<'_>| {
//!     ctx.write(data, Value::Int(ctx.k() as i64));
//! }));
//! let (net, bank) = b.build()?;
//! let mut behaviors = bank.instantiate();
//! let run = run_zero_delay(&net, &mut behaviors, &Stimuli::new(), ms(400),
//!                          JobOrdering::default())?;
//! assert_eq!(run.observables.channels[0], vec![Value::Int(1), Value::Int(2)]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod automaton;
mod channel;
mod error;
mod event;
mod exec;
mod ids;
mod intern;
pub mod lang;
mod network;
mod process;
mod semantics;
mod trace;
mod value;

pub use channel::{ChannelKind, ChannelSpec, ChannelState};
pub use error::{ExecError, NetworkError};
pub use event::{EventKind, EventSpec, SporadicTrace};
pub use exec::{ExecState, Stimuli};
pub use ids::{ChannelId, PortId, ProcessId};
pub use intern::{ValueId, ValuePool};
pub use network::{BehaviorBank, Fppn, FppnBuilder};
pub use process::{Behavior, BehaviorFactory, BoxedBehavior, DataAccess, JobCtx, ProcessSpec};
pub use semantics::{
    invocations_by_time, linearization_ranks, run_zero_delay, Invocation, JobOrdering,
    SemanticsError, ZeroDelayRun,
};
pub use trace::{Action, JobRun, Observables, OutputLog, Trace};
pub use value::Value;
