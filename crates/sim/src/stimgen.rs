//! Random stimulus generation: sporadic arrival traces and input streams,
//! and the clipping of a trace to the frames a run simulates.
//!
//! The paper's sporadic events come from pilots and reconfiguration
//! commands; here they are drawn from seeded RNGs under the exact `(m, T)`
//! constraint, so experiments are reproducible and strictly cover the
//! admissible arrival space.

use fppn_core::{EventKind, Fppn, ProcessId, SporadicTrace, Stimuli, Value};
use fppn_taskgraph::DerivedTaskGraph;
use fppn_time::TimeQ;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod adversarial;

/// SplitMix64's finalizer: a full-avalanche 64-bit mixer.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent stream seed for `(seed, pid, port)` by chaining
/// the SplitMix64 finalizer over each component.
///
/// The previous scheme (`seed ^ (pid << 16) ^ port`) was collision-prone:
/// any process index ≥ 2¹⁶ aliased back onto the port bits, `(pid=p,
/// port=q)` collided with `(pid=q·2¹⁶ ⊕ …)` cross-pairs, and the whole
/// expression silently depended on `<<` binding tighter than `^`. Full
/// avalanche after every component makes any two distinct `(seed, pid,
/// port)` triples yield (with overwhelming probability) unrelated
/// xoshiro256++ seedings.
pub(crate) fn stream_seed(seed: u64, pid: u64, port: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ pid) ^ port)
}

/// Port index used for a process's *arrival-trace* stream, distinct from
/// every real input-port index.
pub(crate) const TRACE_STREAM: u64 = u64::MAX;

/// Generates a random arrival trace for a sporadic `(m, T)` generator over
/// `[0, horizon)`, respecting the half-open-window constraint.
///
/// `density_permille` scales how aggressively the admissible rate is used:
/// 1000 ≈ as many events as the constraint allows, 0 = none.
pub fn random_sporadic_trace(
    burst: u32,
    period: TimeQ,
    horizon: TimeQ,
    density_permille: u32,
    seed: u64,
) -> SporadicTrace {
    let density = density_permille.min(1000);
    if density == 0 {
        return SporadicTrace::empty();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals: Vec<TimeQ> = Vec::new();
    // Enforce the constraint directly: arrival i+m >= arrival i + T.
    // Density controls the random inter-arrival slack on top of that bound
    // (density 1000 => no slack => maximal admissible rate).
    let slack_cap = (period * TimeQ::new(2 * (1000 - density) as i128, 1000))
        .ceil()
        .max(0);
    let mut t = TimeQ::ZERO;
    loop {
        let gap = if slack_cap == 0 {
            TimeQ::ZERO
        } else {
            TimeQ::from_int_i128(rng.gen_range(0..=slack_cap))
        };
        let mut next = t + gap;
        if arrivals.len() >= burst as usize {
            let bound = arrivals[arrivals.len() - burst as usize] + period;
            next = next.max(bound);
        }
        if next >= horizon {
            break;
        }
        arrivals.push(next);
        t = next;
    }
    SporadicTrace::new(arrivals)
}

/// Generates a random sporadic trace that is **periodic in the
/// hyperperiod**: one random base pattern is drawn over a single
/// hyperperiod and tiled across `frames` copies, each shifted by a whole
/// hyperperiod.
///
/// Every frame then carries the *same* arrival pattern relative to its
/// own base, which is exactly the shape the round engine's frame memo
/// exploits: once the carry-in state settles, every later frame's exact
/// key equals an earlier one's and it replays instead of recomputing.
/// Ordinary [`random_sporadic_trace`] draws over the whole horizon, so two
/// frames match only by accident (or at density 1000, whose maximal-rate
/// pattern has no random slack).
///
/// The base pattern is drawn over `[0, hyperperiod − burst·period)`, so
/// tiling cannot violate the `(m, T)` constraint across a frame
/// boundary: any window of `burst` consecutive arrivals that spans the
/// boundary stretches over the excluded tail and is at least one period
/// wide.
pub fn tiled_sporadic_trace(
    burst: u32,
    period: TimeQ,
    hyperperiod: TimeQ,
    frames: u64,
    density_permille: u32,
    seed: u64,
) -> SporadicTrace {
    let margin = period * TimeQ::from_int(burst.max(1) as i64);
    let base_horizon = (hyperperiod - margin).max(TimeQ::ZERO);
    let base = random_sporadic_trace(burst, period, base_horizon, density_permille, seed);
    let mut arrivals = Vec::with_capacity(base.arrivals().len() * frames as usize);
    for f in 0..frames {
        let offset = TimeQ::from_int(f as i64) * hyperperiod;
        arrivals.extend(base.arrivals().iter().map(|&t| t + offset));
    }
    SporadicTrace::new(arrivals)
}

/// Fills a [`Stimuli`] with random arrival traces for every sporadic
/// process of a network, plus integer input streams for every declared
/// external input port.
///
/// Every stream — each port's samples and each process's arrival trace —
/// draws from an independently seeded RNG ([`stream_seed`]), so adding a
/// process or port never reshuffles the others and distinct `(pid, port)`
/// pairs get distinct streams.
///
/// A process consumes one input sample per *executed* job, so a sporadic
/// process needs exactly one sample per generated arrival (a slot only
/// executes against a matching arrival); the sample count is derived from
/// the actual trace length rather than a closed-form bound, which a
/// maximal-rate (density 1000, burst > 1) trace rendered fragile.
pub fn random_stimuli(net: &Fppn, horizon: TimeQ, density_permille: u32, seed: u64) -> Stimuli {
    let mut stimuli = Stimuli::new();
    for pid in net.process_ids() {
        let spec = net.process(pid);
        let ev = spec.event();
        let max_jobs = if ev.kind() == EventKind::Sporadic {
            let trace = random_sporadic_trace(
                ev.burst(),
                ev.period(),
                horizon,
                density_permille,
                stream_seed(seed, pid.index() as u64, TRACE_STREAM),
            );
            let arrivals = trace.arrivals().len() as u64;
            stimuli.arrivals(pid, trace);
            arrivals
        } else {
            // Periodic: exactly horizon / T jobs; keep a small margin for
            // callers rounding the horizon up to whole frames.
            ((horizon / ev.period()).ceil() as u64 + 2) * ev.burst() as u64
        };
        for (port_idx, _) in spec.input_ports().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(stream_seed(
                seed,
                pid.index() as u64,
                port_idx as u64,
            ));
            let samples: Vec<Value> = (0..max_jobs)
                .map(|_| Value::Int(rng.gen_range(-1000..1000)))
                .collect();
            stimuli.input(pid, fppn_core::PortId::from_index(port_idx), samples);
        }
    }
    stimuli
}

/// Validates that every generated sporadic trace satisfies its generator's
/// constraint (used by the property test-suite; generation should always
/// pass this by construction).
pub fn validate_stimuli(net: &Fppn, stimuli: &Stimuli) -> bool {
    stimuli.validate(net).is_ok()
}

/// Convenience: the process ids of all sporadic processes of a network.
pub fn sporadic_processes(net: &Fppn) -> Vec<ProcessId> {
    net.process_ids()
        .filter(|&p| net.process(p).event().kind() == EventKind::Sporadic)
        .collect()
}

/// Clips sporadic arrivals to the window range covered by `frames` frames
/// of server slots, so that a zero-delay reference over the same horizon
/// observes exactly the jobs the simulation will execute.
///
/// A sporadic process with server period `T′` has its last simulated slot
/// subset at `frames·H − T′`; arrivals beyond that subset's window would
/// only be handled by the (unsimulated) next frame.
pub fn clip_stimuli(
    net: &Fppn,
    derived: &DerivedTaskGraph,
    stimuli: &Stimuli,
    frames: u64,
) -> Stimuli {
    let mut clipped = stimuli.clone();
    let h = derived.hyperperiod;
    let end = TimeQ::from_int(frames as i64) * h;
    for pid in net.process_ids() {
        if let Some(server) = derived.server(pid) {
            let last_subset = end - server.period;
            let keep: Vec<TimeQ> = stimuli
                .arrival_times(pid)
                .iter()
                .copied()
                .filter(|&t| {
                    if server.priority_over_user {
                        // Window (b − T', b]: covered iff t <= last_subset.
                        t <= last_subset
                    } else {
                        // Window [b − T', b): covered iff t < last_subset.
                        t < last_subset
                    }
                })
                .collect();
            clipped.arrivals(pid, keep.into_iter().collect());
        }
    }
    clipped
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    #[test]
    fn generated_traces_respect_constraint() {
        for seed in 0..50 {
            let spec = EventSpec::sporadic(3, ms(500));
            let t = random_sporadic_trace(3, ms(500), ms(10_000), 800, seed);
            assert!(
                t.validate_against(&spec, "gen").is_ok(),
                "seed {seed}: {:?}",
                t.arrivals()
            );
        }
    }

    #[test]
    fn tiled_traces_respect_constraint_and_repeat_per_frame() {
        let hyper = ms(2_000);
        for seed in 0..50 {
            let spec = EventSpec::sporadic(3, ms(500));
            let t = tiled_sporadic_trace(3, ms(500), hyper, 4, 1000, seed);
            assert!(
                t.validate_against(&spec, "tiled").is_ok(),
                "seed {seed}: {:?}",
                t.arrivals()
            );
            // Every frame's block is the base pattern shifted by f·H.
            let n = t.arrivals().len() / 4;
            for f in 1..4usize {
                let off = TimeQ::from_int(f as i64) * hyper;
                for i in 0..n {
                    assert_eq!(t.arrivals()[f * n + i], t.arrivals()[i] + off, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn zero_density_gives_empty_trace() {
        let t = random_sporadic_trace(2, ms(100), ms(1000), 0, 7);
        assert!(t.is_empty());
    }

    #[test]
    fn trace_is_reproducible() {
        let a = random_sporadic_trace(2, ms(300), ms(5000), 700, 11);
        let b = random_sporadic_trace(2, ms(300), ms(5000), 700, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn stream_seeds_do_not_alias() {
        // The old xor/shift scheme collided exactly on these pairs:
        // (pid=1, port=0) vs (pid=0, port=1<<16) both gave seed ^ (1<<16).
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            assert_ne!(
                stream_seed(seed, 1, 0),
                stream_seed(seed, 0, 1 << 16),
                "seed {seed}: pid/port cross-collision"
            );
            // pid and port must not be interchangeable either.
            assert_ne!(stream_seed(seed, 2, 5), stream_seed(seed, 5, 2));
            // The trace stream is distinct from every real port stream.
            assert_ne!(stream_seed(seed, 3, TRACE_STREAM), stream_seed(seed, 3, 0));
        }
        // Pairwise-distinct over a dense grid (a collision here would be a
        // mixer regression, not bad luck: 900 values of 2^64).
        let mut seen = std::collections::BTreeSet::new();
        for pid in 0..30u64 {
            for port in 0..30u64 {
                assert!(
                    seen.insert(stream_seed(42, pid, port)),
                    "collision at ({pid}, {port})"
                );
            }
        }
    }

    #[test]
    fn distinct_ports_get_distinct_streams() {
        let mut b = FppnBuilder::new();
        let u = b.process(
            ProcessSpec::new("u", EventSpec::periodic(ms(100)))
                .with_input("a")
                .with_input("b"),
        );
        let v = b.process(ProcessSpec::new("v", EventSpec::periodic(ms(100))).with_input("a"));
        b.channel("c", u, v, ChannelKind::Blackboard);
        b.priority(u, v);
        let (net, _) = b.build().unwrap();
        let stimuli = random_stimuli(&net, ms(10_000), 500, 99);
        let port = fppn_core::PortId::from_index;
        let stream = |pid, p| -> Vec<_> {
            (1..=100)
                .map(|k| stimuli.input_sample(pid, port(p), k).unwrap())
                .collect()
        };
        let ua = stream(u, 0);
        let ub = stream(u, 1);
        let va = stream(v, 0);
        assert_ne!(ua, ub, "two ports of one process share a stream");
        assert_ne!(ua, va, "same port index of two processes share a stream");
        assert_ne!(ub, va);
    }

    #[test]
    fn max_density_run_never_exhausts_input_samples() {
        // A sporadic process at the maximal admissible rate (density 1000,
        // burst > 1) consumes one input sample per arrival; the stream must
        // cover every executed job even in the densest windows.
        let mut b = FppnBuilder::new();
        let u = b.process(ProcessSpec::new("u", EventSpec::periodic(ms(100))));
        let s = b.process(
            ProcessSpec::new("s", EventSpec::sporadic(3, ms(250))).with_input("cmd"),
        );
        b.channel("c", s, u, ChannelKind::Blackboard);
        b.priority(s, u);
        let (net, _) = b.build().unwrap();
        for seed in 0..20 {
            let stimuli = random_stimuli(&net, ms(20_000), 1000, seed);
            assert!(validate_stimuli(&net, &stimuli));
            let arrivals = stimuli.arrival_trace(s).len() as u64;
            assert!(arrivals > 0, "seed {seed}: max density generated no events");
            // One sample per executed job k = 1..=arrivals.
            for k in 1..=arrivals {
                assert!(
                    stimuli
                        .input_sample(s, fppn_core::PortId::from_index(0), k)
                        .is_some(),
                    "seed {seed}: sample {k}/{arrivals} missing"
                );
            }
        }
    }

    #[test]
    fn random_stimuli_cover_all_sporadics() {
        let mut b = FppnBuilder::new();
        let u = b.process(ProcessSpec::new("u", EventSpec::periodic(ms(100))).with_input("in"));
        let s1 = b.process(ProcessSpec::new("s1", EventSpec::sporadic(1, ms(400))));
        let s2 = b.process(ProcessSpec::new("s2", EventSpec::sporadic(2, ms(800))));
        b.channel("c1", s1, u, ChannelKind::Blackboard);
        b.channel("c2", s2, u, ChannelKind::Blackboard);
        b.priority(s1, u);
        b.priority(s2, u);
        let (net, _) = b.build().unwrap();
        let stimuli = random_stimuli(&net, ms(4000), 900, 3);
        assert!(validate_stimuli(&net, &stimuli));
        assert_eq!(sporadic_processes(&net), vec![s1, s2]);
        // Input stream present for the user's port.
        assert!(stimuli
            .input_sample(u, fppn_core::PortId::from_index(0), 1)
            .is_some());
    }
}
