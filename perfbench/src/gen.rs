//! The benchmark's own seeded input generator.
//!
//! Every workload input — sporadic arrival traces, FFT sample frames,
//! external input samples, the serve-mix class sequence and its arrival
//! schedule — is drawn here from `--seed`, never from the program's own
//! stimulus generators, so a change to the program cannot change what a
//! workload feeds it.

use fppn_core::{Fppn, PortId, ProcessId, SporadicTrace, Stimuli, Value};
use fppn_time::TimeQ;

/// Stream tags: each purpose draws from its own stream under one seed.
pub const ARRIVALS: u64 = 1;
pub const SAMPLES: u64 = 2;
pub const MIX: u64 = 3;
pub const SCHEDULE: u64 = 4;
pub const REPEATS: u64 = 5;

/// SplitMix64, written out here so the sequence cannot change under the
/// benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one `purpose` and `index` under `seed`.
    pub fn stream(seed: u64, purpose: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        let a = r.next_u64();
        let mut r = Rng(a ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// A time in whole microseconds; panics on a time that is not one (every
/// network the benchmark builds has millisecond periods).
pub fn to_us(t: TimeQ) -> i64 {
    let n = t.numer() * 1000;
    assert_eq!(
        n % t.denom(),
        0,
        "{t} is not a whole number of microseconds"
    );
    i64::try_from(n / t.denom()).expect("time fits in i64 microseconds")
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The server period `T′` of a sporadic process in µs, as §III-A derives
/// it: the user's period, divided by `f = ⌊T_u/d⌋ + 1` when the deadline
/// `d ≤ T_u` (footnote 3). `None` for periodic processes.
pub fn server_period_us(net: &Fppn, pid: ProcessId) -> Option<i64> {
    let ev = net.process(pid).event();
    if !ev.is_sporadic() {
        return None;
    }
    let user = net.user_of(pid)?;
    let tu = to_us(net.process(user).event().period());
    let d = to_us(ev.deadline());
    if d > tu {
        return Some(tu);
    }
    let f = tu / d + 1;
    assert_eq!(
        tu % f,
        0,
        "fractional server period of {}",
        net.process(pid).name()
    );
    Some(tu / f)
}

/// The period every job of `pid` repeats with after the server
/// transform: `T` for periodic processes, `T′` for sporadic ones.
pub fn effective_period_us(net: &Fppn, pid: ProcessId) -> i64 {
    server_period_us(net, pid).unwrap_or_else(|| to_us(net.process(pid).event().period()))
}

/// The hyperperiod `H = lcm(T)` over the effective periods, in µs.
pub fn hyperperiod_us(net: &Fppn) -> i64 {
    net.process_ids()
        .map(|p| effective_period_us(net, p))
        .fold(1, |h, t| h / gcd(h, t) * t)
}

/// Arrival times of one sporadic `(m, T)` generator over `[0, end_us)`:
/// successive gaps are uniform in `[0, 2g]` µs with mean
/// `g = gap_permille/1000 · T/m`, and an arrival that would put `m + 1`
/// arrivals inside one half-closed window of length `T` is pushed to the
/// window's end. The trace is drawn over the whole span, never tiled.
pub fn sporadic_arrivals(
    rng: &mut Rng,
    burst: u32,
    period_us: i64,
    end_us: i64,
    gap_permille: i64,
) -> Vec<TimeQ> {
    let m = burst as usize;
    let mean_gap = (period_us * gap_permille / 1000 / i64::from(burst)).max(1);
    let mut times: Vec<i64> = Vec::new();
    let mut t = rng.below(2 * mean_gap as u64 + 1) as i64;
    loop {
        if times.len() >= m {
            t = t.max(times[times.len() - m] + period_us);
        }
        if t >= end_us {
            break;
        }
        times.push(t);
        t += rng.below(2 * mean_gap as u64 + 1) as i64;
    }
    times.into_iter().map(TimeQ::from_micros).collect()
}

/// Arrival traces for every sporadic process of `net` over `frames`
/// hyperperiods. Each trace ends before the last server-slot subset
/// (`frames·H − T′`), so the simulator and the zero-delay reference see
/// the same arrivals.
pub fn sporadic_stimuli(
    net: &Fppn,
    frames: u64,
    seed: u64,
    request: u64,
    gap_permille: i64,
) -> Stimuli {
    let end = frames as i64 * hyperperiod_us(net);
    let mut stimuli = Stimuli::new();
    for pid in net.process_ids() {
        let Some(server_period) = server_period_us(net, pid) else {
            continue;
        };
        let ev = net.process(pid).event();
        let mut rng = Rng::stream(seed, ARRIVALS, request << 8 | pid.index() as u64);
        let arrivals = sporadic_arrivals(
            &mut rng,
            ev.burst(),
            to_us(ev.period()),
            end - server_period,
            gap_permille,
        );
        stimuli.arrivals(pid, SporadicTrace::new(arrivals));
    }
    stimuli
}

/// Number of jobs `pid` runs over `frames` hyperperiods.
fn jobs_over(net: &Fppn, pid: ProcessId, frames: u64) -> usize {
    let h = hyperperiod_us(net);
    let burst = net.process(pid).event().burst() as i64;
    (frames as i64 * burst * h / effective_period_us(net, pid)) as usize
}

/// FFT sample frames: four reals per frame, each a multiple of 1/4 in
/// `[-4, 4]`, so the spectra are exact in binary floating point.
pub fn fft_frames(frames: u64, seed: u64, request: u64) -> Vec<[f64; 4]> {
    let mut rng = Rng::stream(seed, SAMPLES, request);
    (0..frames)
        .map(|_| std::array::from_fn(|_| (rng.below(33) as i64 - 16) as f64 / 4.0))
        .collect()
}

/// The FFT generator's input stream built from [`fft_frames`].
pub fn fft_stimuli(generator: ProcessId, frames: &[[f64; 4]]) -> Stimuli {
    let samples = frames
        .iter()
        .map(|x| Value::List(x.iter().map(|&v| Value::Float(v)).collect()))
        .collect();
    let mut stimuli = Stimuli::new();
    stimuli.input(generator, PortId::from_index(0), samples);
    stimuli
}

/// Integer samples for every external input port of `net`, one per job
/// over `frames` hyperperiods.
pub fn input_stimuli(net: &Fppn, frames: u64, seed: u64, request: u64) -> Stimuli {
    let mut stimuli = Stimuli::new();
    for pid in net.process_ids() {
        for port in 0..net.process(pid).input_ports().len() {
            let mut rng = Rng::stream(
                seed,
                SAMPLES,
                request << 16 | (pid.index() as u64) << 4 | port as u64,
            );
            let samples = (0..jobs_over(net, pid, frames))
                .map(|_| Value::Int((rng.next_u64() >> 1) as i64))
                .collect();
            stimuli.input(pid, PortId::from_index(port), samples);
        }
    }
    stimuli
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_apps::{fms_network, FmsVariant};

    #[test]
    fn same_seed_same_inputs_and_traces_respect_their_windows() {
        let (net, _, _) = fms_network(FmsVariant::Original);
        let a = sporadic_stimuli(&net, 2, 7, 3, 1300);
        let b = sporadic_stimuli(&net, 2, 7, 3, 1300);
        let c = sporadic_stimuli(&net, 2, 8, 3, 1300);
        let mut any_diff = false;
        for pid in net.process_ids() {
            assert_eq!(a.arrival_times(pid), b.arrival_times(pid));
            any_diff |= a.arrival_times(pid) != c.arrival_times(pid);
        }
        assert!(any_diff, "another seed gives other arrivals");
        assert!(a.validate(&net).is_ok());
    }

    #[test]
    fn fms_hyperperiod_is_forty_seconds() {
        let (net, _, _) = fms_network(FmsVariant::Original);
        assert_eq!(hyperperiod_us(&net), 40_000_000);
        let (net, _, _) = fms_network(FmsVariant::Reduced);
        assert_eq!(hyperperiod_us(&net), 10_000_000);
    }
}
