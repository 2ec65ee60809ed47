//! Host-speed calibration.
//!
//! On a shared host the same code runs up to ~1.65× slower for tens of
//! seconds at a time while other tenants load the memory system; pure
//! register arithmetic barely moves. A fixed kernel owned by the
//! benchmark — sort 64 Ki random words, then index every eighth in a
//! `BTreeMap` — slows down with the program's allocation- and
//! memory-bound work. The benchmark times it next to every request and
//! scales each wall-clock figure by `K_REF_MS / kernel time`, reporting
//! it in reference-host milliseconds. A second kernel, a dependent chain
//! of 64-bit mixer rounds, reads the speed of register arithmetic; it
//! scales the requests made of such arithmetic (the synthetic behavior
//! kernels of `serve-mix`), which the memory kernel's slow spells do not
//! reach. Neither kernel depends on the program, so a change to the
//! program moves the scaled figures exactly as it moves the raw ones.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::gen::Rng;
use crate::measure::median;

/// The kernel's time on a quiet reference host (ms). Scaled figures are
/// "milliseconds at that speed".
pub const K_REF_MS: f64 = 2.0;

/// Runs the kernel once and returns `K_REF_MS / its time`: below 1 while
/// the host is slower than the reference.
pub fn factor(i: u64) -> f64 {
    let t0 = Instant::now();
    let mut rng = Rng::stream(0x5EED, 0xCA1, i);
    let mut words: Vec<u64> = (0..65_536).map(|_| rng.next_u64()).collect();
    words.sort_unstable();
    let index: BTreeMap<u64, u64> = words.iter().step_by(8).map(|&w| (w >> 7, w)).collect();
    std::hint::black_box(index.len());
    K_REF_MS / (t0.elapsed().as_secs_f64() * 1e3)
}

/// The arithmetic kernel's time on the same reference host (ms): on a
/// quiet host the two kernels give the same factor.
pub const K_REF_ALU_MS: f64 = 1.2;

/// Runs the arithmetic kernel once — `ALU_ROUNDS` dependent SplitMix64
/// finalizer rounds, the shape of the synthetic behavior kernels — and
/// returns `K_REF_ALU_MS / its time`.
pub fn alu_factor(i: u64) -> f64 {
    const ALU_ROUNDS: u32 = 200_000;
    let t0 = Instant::now();
    let mut z = std::hint::black_box(i);
    for _ in 0..ALU_ROUNDS {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    std::hint::black_box(z);
    K_REF_ALU_MS / (t0.elapsed().as_secs_f64() * 1e3)
}

/// Readings per smoothing window: one kernel run is a noisy reading, and
/// the host's slow spells last far longer than a window.
pub const WINDOW: usize = 5;

/// Each factor replaced by the median of the `WINDOW` factors centred on
/// it (a sequence of per-request readings).
pub fn smooth(factors: &[f64]) -> Vec<f64> {
    (0..factors.len())
        .map(|i| {
            let lo = i
                .saturating_sub(WINDOW / 2)
                .min(factors.len().saturating_sub(WINDOW));
            median(&factors[lo..(lo + WINDOW).min(factors.len())])
        })
        .collect()
}

/// The median of three kernel runs, for one-off scalings such as set-up.
pub fn factor3(i: u64) -> f64 {
    let mut f = [factor(i), factor(i + 1), factor(i + 2)];
    f.sort_by(f64::total_cmp);
    f[1]
}

/// Speed factors measured over a run, in time order.
#[derive(Debug, Clone, Default)]
pub struct Readings(Arc<Mutex<Vec<(Instant, f64)>>>);

impl Readings {
    pub fn push(&self, factor: f64) {
        self.lock().push((Instant::now(), factor));
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<(Instant, f64)>> {
        self.0
            .lock()
            .expect("no reader panics while holding the readings")
    }

    /// The median of the `WINDOW` readings nearest to `t`; 1 before any
    /// reading.
    pub fn at(&self, t: Instant) -> f64 {
        let v = self.lock();
        let i = v.partition_point(|(at, _)| *at <= t);
        let lo = i
            .saturating_sub(WINDOW / 2)
            .min(v.len().saturating_sub(WINDOW));
        let factors: Vec<f64> = v[lo..(lo + WINDOW).min(v.len())]
            .iter()
            .map(|r| r.1)
            .collect();
        if factors.is_empty() {
            1.0
        } else {
            median(&factors)
        }
    }

    /// The mean factor of the readings taken in `[from, to]`, or
    /// [`Readings::at`] `to` if there were none.
    pub fn mean(&self, from: Instant, to: Instant) -> f64 {
        let within: Vec<f64> = self
            .lock()
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|r| r.1)
            .collect();
        if within.is_empty() {
            self.at(to)
        } else {
            within.iter().sum::<f64>() / within.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothing_takes_the_median_of_a_centred_window() {
        assert_eq!(smooth(&[1.0, 9.0, 1.0, 1.0, 1.0, 1.0, 0.5]), vec![1.0; 7]);
        assert_eq!(smooth(&[2.0, 4.0]), vec![3.0, 3.0]);
    }

    #[test]
    fn readings_default_to_one_and_follow_the_median() {
        let r = Readings::default();
        assert_eq!(r.at(Instant::now()), 1.0);
        for f in [0.9, 0.5, 0.9] {
            r.push(f);
        }
        assert_eq!(r.at(Instant::now()), 0.9);
        assert!(factor(0) > 0.0);
        assert!(alu_factor(0) > 0.0);
    }
}
