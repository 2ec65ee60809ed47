//! Adversarial stimulus generation: the arrival patterns and input-stream
//! shapes a uniform random sampler essentially never produces, aimed at
//! the engine's boundary logic rather than its average-case paths.
//!
//! Four classes (see [`AdversarialClass`]):
//!
//! - **BoundaryBurst** — arrivals placed *exactly on* server-window
//!   boundaries `b = j·T′`, and at `b ± ε`, to exercise the half-open
//!   subset-mapping rule of `SlotTemplates::bind` (the subset at `b`
//!   covers `(b − T′, b]` when the sporadic has priority over its user,
//!   `[b − T′, b)` otherwise) from both sides of every boundary.
//! - **MaxDensityFlood** — the densest trace the `(m, T)` constraint
//!   admits: bursts of `m` arrivals at every multiple of `T`. Saturates
//!   every server slot; also the top of the sustainability chain (see
//!   [`max_density_flood_trace`] with `period_mult > 1` for its
//!   pointwise-sparser relatives).
//! - **ArrivalTieStorm** — arrivals of *different* sporadic processes
//!   aligned on shared tie instants (plus occasional `±ε` near-ties), so
//!   cross-process simultaneity and its tie-breaking are exercised.
//! - **LateExternalInput** — input streams that run dry before the last
//!   executed job (exercising the `Absent` read path) and carry extreme
//!   sample values (`i64::MAX/MIN/0`), combined with arrivals at the last
//!   admissible instant of each window.
//!
//! All randomness is seed-pinned through the same [`stream_seed`]
//! discipline as [`random_stimuli`](super::random_stimuli): each
//! `(class, process, port)` stream is independent, so adding a process
//! never reshuffles another's stimuli.

use fppn_core::{EventKind, Fppn, PortId, ProcessId, SporadicTrace, Stimuli, Value};
use fppn_taskgraph::DerivedTaskGraph;
use fppn_time::TimeQ;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{splitmix64, stream_seed, TRACE_STREAM};

/// One family of adversarial stimuli; see the module docs for what each
/// class aims at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdversarialClass {
    /// Bursts aligned exactly to server-window boundaries (and `±ε`).
    BoundaryBurst,
    /// Maximal-rate sporadic floods (bursts of `m` every `T`).
    MaxDensityFlood,
    /// Near-simultaneous arrival ties across sporadic processes.
    ArrivalTieStorm,
    /// Truncated and extreme-valued input streams with latest-instant
    /// arrivals.
    LateExternalInput,
}

impl AdversarialClass {
    /// Every class, in a fixed order (for exhaustive sweeps).
    pub const ALL: [AdversarialClass; 4] = [
        AdversarialClass::BoundaryBurst,
        AdversarialClass::MaxDensityFlood,
        AdversarialClass::ArrivalTieStorm,
        AdversarialClass::LateExternalInput,
    ];

    /// Stable human-readable name (used in test labels and golden-trace
    /// file names).
    pub fn name(self) -> &'static str {
        match self {
            AdversarialClass::BoundaryBurst => "boundary_burst",
            AdversarialClass::MaxDensityFlood => "max_density_flood",
            AdversarialClass::ArrivalTieStorm => "arrival_tie_storm",
            AdversarialClass::LateExternalInput => "late_external_input",
        }
    }

    /// A class-specific tag mixed into every derived stream seed so the
    /// same `(seed, pid, port)` triple yields unrelated streams across
    /// classes.
    fn seed_tag(self) -> u64 {
        match self {
            AdversarialClass::BoundaryBurst => 0xB0B0_0001,
            AdversarialClass::MaxDensityFlood => 0xF10D_0002,
            AdversarialClass::ArrivalTieStorm => 0x71E5_0003,
            AdversarialClass::LateExternalInput => 0x1A7E_0004,
        }
    }
}

/// Appends `t` to a sorted arrival list iff the `(m, T)` constraint (any
/// `m+1` consecutive arrivals span ≥ `T`) still holds afterwards. Returns
/// whether the arrival was admitted.
fn try_push(arrivals: &mut Vec<TimeQ>, t: TimeQ, burst: u32, period: TimeQ) -> bool {
    if t < TimeQ::ZERO {
        return false;
    }
    if let Some(&last) = arrivals.last() {
        if t < last {
            return false;
        }
    }
    let m = burst as usize;
    if arrivals.len() >= m && t - arrivals[arrivals.len() - m] < period {
        return false;
    }
    arrivals.push(t);
    true
}

/// The maximal-rate admissible trace for an `(m, T·period_mult)`
/// constraint over `[0, horizon)`: a burst of `m` simultaneous arrivals
/// at every multiple of the (multiplied) period.
///
/// For `period_mult = 1` this is the densest trace the process's own
/// constraint admits. Larger multipliers give *pointwise sparser* traces
/// whose arrival sets are subsets of the `period_mult = 1` flood — the
/// comparison chain the sustainability property sweeps.
pub fn max_density_flood_trace(
    burst: u32,
    period: TimeQ,
    horizon: TimeQ,
    period_mult: u32,
) -> SporadicTrace {
    let step = period * TimeQ::from_int(period_mult.max(1) as i64);
    let mut arrivals = Vec::new();
    let mut t = TimeQ::ZERO;
    while t < horizon {
        for _ in 0..burst {
            arrivals.push(t);
        }
        t += step;
    }
    SporadicTrace::new(arrivals)
}

/// The server period used to place window-aligned arrivals for `pid`:
/// the derived server's `T′` when one exists, the process's own event
/// period otherwise (a sporadic process always gets a server during
/// derivation, so the fallback is defensive).
fn window_period(net: &Fppn, derived: &DerivedTaskGraph, pid: ProcessId) -> TimeQ {
    derived
        .server(pid)
        .map(|s| s.period)
        .unwrap_or_else(|| net.process(pid).event().period())
}

fn boundary_burst_trace(
    burst: u32,
    period: TimeQ,
    window: TimeQ,
    horizon: TimeQ,
    seed: u64,
) -> SporadicTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    // ε far below any period granularity in use, so `b ± ε` stays inside
    // the neighbouring windows without reaching the next boundary.
    let eps = window * TimeQ::new(1, 1_000_003);
    let mut arrivals = Vec::new();
    // Boundary 0 is a genuine edge (subset 0 exists only under the
    // priority-over-user rule); hit it sometimes.
    if rng.gen_bool(0.5) {
        try_push(&mut arrivals, TimeQ::ZERO, burst, period);
    }
    let mut j: i64 = 1;
    loop {
        let b = window * TimeQ::from_int(j);
        if b >= horizon {
            break;
        }
        let placements: &[TimeQ] = match rng.gen_range(0..4u32) {
            0 => &[b],
            1 => &[b - eps],
            2 => &[b + eps],
            _ => &[b - eps, b], // straddling pair
        };
        for &t in placements {
            // Greedy: stuff as many arrivals onto the chosen instant as
            // the constraint admits (at most the burst size).
            for _ in 0..burst {
                if !try_push(&mut arrivals, t, burst, period) {
                    break;
                }
            }
        }
        j += 1;
    }
    SporadicTrace::new(arrivals)
}

fn tie_storm_traces(
    net: &Fppn,
    sporadics: &[ProcessId],
    horizon: TimeQ,
    seed: u64,
) -> Vec<(ProcessId, SporadicTrace)> {
    // Shared tie grid: a third of the smallest sporadic period, so tie
    // instants land both inside windows and (periodically) on their
    // boundaries.
    let min_period = sporadics
        .iter()
        .map(|&p| net.process(p).event().period())
        .min()
        .unwrap_or(horizon);
    let grid = min_period * TimeQ::new(1, 3);
    let eps = grid * TimeQ::new(1, 1_000_003);
    let mut per_proc: Vec<(ProcessId, Vec<TimeQ>)> =
        sporadics.iter().map(|&p| (p, Vec::new())).collect();
    let mut rngs: Vec<StdRng> = sporadics
        .iter()
        .map(|&p| StdRng::seed_from_u64(stream_seed(seed, p.index() as u64, TRACE_STREAM)))
        .collect();
    let mut j: i64 = 0;
    loop {
        let tie = grid * TimeQ::from_int(j);
        if tie >= horizon {
            break;
        }
        for (idx, (pid, arrivals)) in per_proc.iter_mut().enumerate() {
            let ev = net.process(*pid).event();
            // Mostly exact ties; occasionally an ε-offset near-tie.
            let t = match rngs[idx].gen_range(0..6u32) {
                0 => tie + eps,
                1 => tie - eps,
                _ => tie,
            };
            try_push(arrivals, t, ev.burst(), ev.period());
        }
        j += 1;
    }
    per_proc
        .into_iter()
        .map(|(p, a)| (p, SporadicTrace::new(a)))
        .collect()
}

fn late_arrival_trace(
    burst: u32,
    period: TimeQ,
    window: TimeQ,
    horizon: TimeQ,
    seed: u64,
) -> SporadicTrace {
    let mut rng = StdRng::seed_from_u64(seed);
    let eps = window * TimeQ::new(1, 1_000_003);
    let mut arrivals = Vec::new();
    let mut j: i64 = 1;
    loop {
        let b = window * TimeQ::from_int(j);
        if b >= horizon {
            break;
        }
        // The last admissible instant of the window ending at b: exactly b
        // under the priority-over-user rule, b − ε otherwise; alternate so
        // both rules get their own edge.
        let t = if rng.gen_bool(0.5) { b } else { b - eps };
        try_push(&mut arrivals, t, burst, period);
        j += 1;
    }
    SporadicTrace::new(arrivals)
}

/// Input-sample count discipline shared with `random_stimuli`: one per
/// arrival for sporadics, a frame-covering bound for periodics.
fn sample_budget(net: &Fppn, pid: ProcessId, horizon: TimeQ, trace_len: u64) -> u64 {
    let ev = net.process(pid).event();
    if ev.kind() == EventKind::Sporadic {
        trace_len
    } else {
        ((horizon / ev.period()).ceil() as u64 + 2) * ev.burst() as u64
    }
}

/// Generates one adversarial [`Stimuli`] of the given `class` for `net`
/// over `[0, horizon)`, seed-pinned: the same `(net, horizon, class,
/// seed)` always yields the same stimuli, and every per-process stream is
/// independently seeded.
///
/// The result always satisfies every sporadic `(m, T)` constraint
/// (checked by construction via greedy admissible placement); callers
/// can still assert [`Stimuli::validate`].
pub fn adversarial_stimuli(
    net: &Fppn,
    derived: &DerivedTaskGraph,
    horizon: TimeQ,
    class: AdversarialClass,
    seed: u64,
) -> Stimuli {
    let class_seed = splitmix64(seed ^ class.seed_tag());
    let mut stimuli = Stimuli::new();
    let sporadics = super::sporadic_processes(net);

    // Arrival traces.
    match class {
        AdversarialClass::ArrivalTieStorm => {
            for (pid, trace) in tie_storm_traces(net, &sporadics, horizon, class_seed) {
                stimuli.arrivals(pid, trace);
            }
        }
        _ => {
            for &pid in &sporadics {
                let ev = net.process(pid).event();
                let window = window_period(net, derived, pid);
                let tseed = stream_seed(class_seed, pid.index() as u64, TRACE_STREAM);
                let trace = match class {
                    AdversarialClass::BoundaryBurst => {
                        boundary_burst_trace(ev.burst(), ev.period(), window, horizon, tseed)
                    }
                    AdversarialClass::MaxDensityFlood => {
                        max_density_flood_trace(ev.burst(), ev.period(), horizon, 1)
                    }
                    AdversarialClass::LateExternalInput => {
                        late_arrival_trace(ev.burst(), ev.period(), window, horizon, tseed)
                    }
                    AdversarialClass::ArrivalTieStorm => unreachable!(),
                };
                stimuli.arrivals(pid, trace);
            }
        }
    }

    // Input streams.
    for pid in net.process_ids() {
        let spec = net.process(pid);
        let trace_len = stimuli.arrival_trace(pid).len() as u64;
        let budget = sample_budget(net, pid, horizon, trace_len);
        for (port_idx, _) in spec.input_ports().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(stream_seed(
                class_seed,
                pid.index() as u64,
                port_idx as u64,
            ));
            let samples: Vec<Value> = if class == AdversarialClass::LateExternalInput {
                // Run the stream dry before the last executed job (the
                // `Absent`-read path) and hit extreme magnitudes while it
                // lasts.
                let keep = if budget == 0 {
                    0
                } else {
                    rng.gen_range(0..=budget / 2)
                };
                (0..keep)
                    .map(|_| match rng.gen_range(0..5u32) {
                        0 => Value::Int(i64::MAX),
                        1 => Value::Int(i64::MIN),
                        2 => Value::Int(0),
                        _ => Value::Int(rng.gen_range(-1000..1000)),
                    })
                    .collect()
            } else {
                (0..budget)
                    .map(|_| Value::Int(rng.gen_range(-1000..1000)))
                    .collect()
            };
            stimuli.input(pid, PortId::from_index(port_idx), samples);
        }
    }
    stimuli
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};
    use fppn_taskgraph::{derive_task_graph, WcetModel};

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    /// Two sporadic processes (one with priority over its user, one
    /// without) plus a periodic user with an input port.
    fn test_net() -> (Fppn, DerivedTaskGraph, ProcessId, ProcessId) {
        let mut b = FppnBuilder::new();
        let user = b.process(ProcessSpec::new("user", EventSpec::periodic(ms(200))).with_input("in"));
        let hi = b.process(
            ProcessSpec::new("hi", EventSpec::sporadic(2, ms(700))).with_input("cmd"),
        );
        let lo = b.process(ProcessSpec::new("lo", EventSpec::sporadic(1, ms(500))));
        b.channel("c1", hi, user, ChannelKind::Blackboard);
        b.channel("c2", lo, user, ChannelKind::Blackboard);
        b.priority(hi, user);
        b.priority(user, lo);
        let (net, _) = b.build().unwrap();
        let derived = derive_task_graph(&net, &WcetModel::default()).unwrap();
        (net, derived, hi, lo)
    }

    #[test]
    fn every_class_yields_admissible_stimuli() {
        let (net, derived, _, _) = test_net();
        for class in AdversarialClass::ALL {
            for seed in 0..25u64 {
                let s = adversarial_stimuli(&net, &derived, ms(10_000), class, seed);
                assert!(
                    s.validate(&net).is_ok(),
                    "{} seed {seed}: inadmissible stimuli",
                    class.name()
                );
            }
        }
    }

    #[test]
    fn stimuli_are_seed_reproducible_and_class_distinct() {
        let (net, derived, hi, _) = test_net();
        let a = adversarial_stimuli(&net, &derived, ms(8000), AdversarialClass::BoundaryBurst, 7);
        let b = adversarial_stimuli(&net, &derived, ms(8000), AdversarialClass::BoundaryBurst, 7);
        assert_eq!(a.arrival_trace(hi), b.arrival_trace(hi));
        let c = adversarial_stimuli(&net, &derived, ms(8000), AdversarialClass::MaxDensityFlood, 7);
        assert_ne!(a.arrival_trace(hi), c.arrival_trace(hi));
    }

    #[test]
    fn boundary_burst_hits_exact_window_boundaries() {
        let (net, derived, hi, _) = test_net();
        let window = window_period(&net, &derived, hi);
        let mut on_boundary = 0usize;
        for seed in 0..10u64 {
            let s =
                adversarial_stimuli(&net, &derived, ms(20_000), AdversarialClass::BoundaryBurst, seed);
            for &t in s.arrival_times(hi) {
                if (t / window).is_integer() {
                    on_boundary += 1;
                }
            }
        }
        assert!(on_boundary > 0, "no arrival ever landed exactly on a boundary");
    }

    #[test]
    fn flood_is_maximal_and_sparsification_is_a_subset() {
        let dense = max_density_flood_trace(2, ms(500), ms(5000), 1);
        // Bursts of 2 at 0, 500, …, 4500: 10 bursts.
        assert_eq!(dense.arrivals().len(), 20);
        let spec = EventSpec::sporadic(2, ms(500));
        assert!(dense.validate_against(&spec, "flood").is_ok());
        // One more arrival anywhere would break the constraint: appending
        // at the last instant fails.
        let mut v = dense.arrivals().to_vec();
        assert!(!try_push(&mut v, ms(4999), 2, ms(500)));
        // period_mult = 2 arrivals are a subset of the dense arrivals.
        let sparse = max_density_flood_trace(2, ms(500), ms(5000), 2);
        let dense_set: Vec<_> = dense.arrivals().to_vec();
        assert!(sparse.arrivals().iter().all(|t| dense_set.contains(t)));
        assert!(sparse.arrivals().len() < dense.arrivals().len());
    }

    #[test]
    fn tie_storm_produces_cross_process_ties() {
        let (net, derived, hi, lo) = test_net();
        let mut ties = 0usize;
        for seed in 0..10u64 {
            let s =
                adversarial_stimuli(&net, &derived, ms(20_000), AdversarialClass::ArrivalTieStorm, seed);
            let hi_times = s.arrival_times(hi);
            for t in s.arrival_times(lo) {
                if hi_times.contains(t) {
                    ties += 1;
                }
            }
        }
        assert!(ties > 0, "tie storm never tied two processes' arrivals");
    }

    #[test]
    fn late_external_input_truncates_streams() {
        let (net, derived, hi, _) = test_net();
        let mut truncated = false;
        for seed in 0..20u64 {
            let s = adversarial_stimuli(
                &net,
                &derived,
                ms(20_000),
                AdversarialClass::LateExternalInput,
                seed,
            );
            let arrivals = s.arrival_trace(hi).len() as u64;
            if arrivals == 0 {
                continue;
            }
            // The stream must be shorter than the executed-job budget for
            // at least one seed (it is drawn from 0..=budget/2).
            if s.input_sample(hi, PortId::from_index(0), arrivals).is_none() {
                truncated = true;
            }
        }
        assert!(truncated, "late-input class never truncated a stream");
    }
}
