//! # fppn-taskgraph — task-graph derivation and analysis (§III-A/B)
//!
//! From the schedulable subclass of FPPNs (every sporadic process has one
//! periodic user with a shorter-or-equal period) this crate statically
//! derives the **task graph**: the DAG of jobs over one hyperperiod, with
//! arrival times, deadlines, WCETs and precedence edges between conflicting
//! jobs — the input to the compile-time scheduler in `fppn-sched`.
//!
//! It also provides the analysis toolkit of §III-B: ASAP/ALAP times, the
//! precedence-aware **load** metric and the necessary schedulability
//! condition of Prop. 3.1.
//!
//! # Examples
//!
//! ```
//! use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};
//! use fppn_taskgraph::{derive_task_graph, load, WcetModel};
//! use fppn_time::TimeQ;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ms = TimeQ::from_ms;
//! let mut b = FppnBuilder::new();
//! let fast = b.process(ProcessSpec::new("fast", EventSpec::periodic(ms(100))));
//! let slow = b.process(ProcessSpec::new("slow", EventSpec::periodic(ms(200))));
//! b.channel("c", fast, slow, ChannelKind::Fifo);
//! b.priority(fast, slow);
//! let (net, _) = b.build()?;
//!
//! let derived = derive_task_graph(&net, &WcetModel::uniform(ms(20)))?;
//! assert_eq!(derived.hyperperiod, ms(200));
//! assert_eq!(derived.graph.job_count(), 3);
//! let l = load(&derived.graph);
//! assert!(l.load <= TimeQ::ONE);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod derive;
mod graph;
mod job;
mod pipeline;
mod slots;
mod wcet;

pub use analysis::{load, load_with, necessary_condition, AsapAlap, Infeasibility, LoadResult};
pub use derive::{
    derive_task_graph, derive_task_graph_unreduced, DeriveError, DerivedTaskGraph, ServerSpec,
};
pub use graph::TaskGraph;
pub use job::{Job, JobId};
pub use pipeline::unroll_for_pipelining;
pub use slots::{
    wrap_predecessors, FrameCountError, RoundResolution, SlotResolution, SlotTemplates,
};
pub use wcet::WcetModel;
