//! # fppn-ta — timed automata and the FPPN→TA translation (§V tooling)
//!
//! The paper's code-generation tools are "based on automatic translation of
//! the FPPN network and the schedule to a network of timed automata" (ref. \[10\] of the paper).
//! This crate reproduces that pipeline:
//!
//! * model types: extended timed automata — clocks, invariants, guarded
//!   edges, shared boolean variables (re-exported at the crate root).
//! * [`simulate_network`]: a deterministic simulator for such networks.
//! * [`translate`]: compiles the simulator's `CompiledNetwork` and its
//!   sporadic arrivals, bound by the simulator's `SlotTemplates::bind`,
//!   into one scheduler automaton per processor; simulating the result
//!   reproduces the §IV policy timeline, which the integration suite
//!   cross-checks against `fppn-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod sim;
mod translate;

pub use model::{Guard, TaBuilder, TaEdge, TaLocId, TaLocation, TaNetwork, TimedAutomaton, VarId, ClockId};
pub use sim::{simulate_network, StopReason, TaEvent, TaTrace};
pub use translate::{extract_timings, translate, JobTiming, Translation};
