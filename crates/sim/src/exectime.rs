//! Actual-execution-time models.
//!
//! The static-order policy of §IV exists precisely because "statically
//! computed start times are not robust against inaccuracies in estimations
//! of WCET" — so the simulator lets actual execution times deviate from the
//! WCET `C_i`. Prop. 4.1 is validated by showing that any execution-time
//! draw `≤ C_i` still meets all deadlines under a feasible schedule.

use fppn_taskgraph::Job;
use fppn_time::TimeQ;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How actual job execution times relate to the WCET `C_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTimeModel {
    /// Every job runs for exactly its WCET (worst case, deterministic).
    #[default]
    Wcet,
    /// Every job runs for `C_i · num/den` (deterministic scaling;
    /// `num/den > 1` models WCET *underestimation*).
    Scaled {
        /// Scale numerator.
        num: u32,
        /// Scale denominator.
        den: u32,
    },
    /// Uniformly random in `[C_i · lo‰, C_i · hi‰]` (per-mille bounds),
    /// reproducible from the seed.
    Jitter {
        /// Lower bound in per-mille of WCET.
        lo_permille: u32,
        /// Upper bound in per-mille of WCET.
        hi_permille: u32,
        /// RNG seed.
        seed: u64,
    },
}

impl ExecTimeModel {
    /// Jitter uniform over `[50%, 100%]` of WCET — a typical
    /// measurement-based profile.
    pub fn typical_jitter(seed: u64) -> Self {
        ExecTimeModel::Jitter {
            lo_permille: 500,
            hi_permille: 1000,
            seed,
        }
    }

    /// Checks the model parameters, returning a human-readable description
    /// of the first problem found: a zero `Scaled` denominator (would
    /// divide by zero), a zero `Scaled` numerator (every job would run for
    /// zero time, collapsing completion ties and making Prop. 4.1 and the
    /// predictability property ill-posed), inverted `Jitter` bounds (would
    /// make the uniform range empty), a zero `Jitter` lower bound (zero
    /// durations again), or a `Jitter` upper bound above 1000 ‰ (jitter is
    /// *by definition* a fraction of the declared WCET; overrun modeling is
    /// `Scaled`'s explicit job).
    ///
    /// Together these enforce the sampling invariant `0 < sampled ≤ C_i`
    /// for every model except a deliberately overrunning `Scaled` with
    /// `num > den` (see [`Self::wcet_bounded`]).
    ///
    /// The simulator checks this when it binds a run and returns a failure
    /// as [`SimError::InvalidConfig`](crate::SimError::InvalidConfig), so a
    /// bad model never reaches [`Self::sampler`]'s panic through a run.
    ///
    /// # Errors
    ///
    /// Returns the actionable message that [`Self::sampler`] panics with.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ExecTimeModel::Wcet => Ok(()),
            ExecTimeModel::Scaled { den: 0, .. } => Err(
                "ExecTimeModel::Scaled requires den > 0 (den = 0 would divide by zero); \
                 use num/den like 3/2 for a 1.5x WCET overrun"
                    .into(),
            ),
            ExecTimeModel::Scaled { num: 0, .. } => Err(
                "ExecTimeModel::Scaled requires num > 0 (num = 0 would give every job a \
                 zero execution time, violating the sampling invariant 0 < sampled <= wcet)"
                    .into(),
            ),
            ExecTimeModel::Scaled { .. } => Ok(()),
            ExecTimeModel::Jitter {
                lo_permille,
                hi_permille,
                ..
            } if lo_permille > hi_permille => Err(format!(
                "ExecTimeModel::Jitter requires lo_permille <= hi_permille \
                 (got lo = {lo_permille} > hi = {hi_permille})"
            )),
            ExecTimeModel::Jitter { lo_permille: 0, .. } => Err(
                "ExecTimeModel::Jitter requires lo_permille >= 1 (lo = 0 could sample a \
                 zero execution time, violating the sampling invariant 0 < sampled <= wcet)"
                    .into(),
            ),
            ExecTimeModel::Jitter { hi_permille, .. } if hi_permille > 1000 => Err(format!(
                "ExecTimeModel::Jitter requires hi_permille <= 1000 (got hi = {hi_permille}): \
                 jitter samples a fraction of the declared WCET; to model WCET overruns use \
                 ExecTimeModel::Scaled with num > den"
            )),
            ExecTimeModel::Jitter { .. } => Ok(()),
        }
    }

    /// Whether every sample of this model is bounded by the declared WCET
    /// (`sampled ≤ C_i`). True for every valid model except `Scaled` with
    /// `num > den`, which deliberately models WCET underestimation. The
    /// predictability/sustainability property campaign only admits
    /// WCET-bounded models — shrinking an overrunning model is not a
    /// pointwise shrink of execution times.
    pub fn wcet_bounded(&self) -> bool {
        match *self {
            ExecTimeModel::Scaled { num, den } => num <= den,
            ExecTimeModel::Wcet | ExecTimeModel::Jitter { .. } => true,
        }
    }

    /// Creates the stateful sampler for one simulation run.
    ///
    /// # Panics
    ///
    /// Panics with the message of [`Self::validate`] on invalid parameters
    /// (`Scaled` with `den == 0`, `Jitter` with `lo_permille >
    /// hi_permille`), so misconfigurations fail here instead of deep
    /// inside a division or `gen_range` during sampling.
    pub fn sampler(&self) -> ExecTimeSampler {
        if let Err(msg) = self.validate() {
            panic!("{msg}");
        }
        ExecTimeSampler {
            model: *self,
            rng: match self {
                ExecTimeModel::Jitter { seed, .. } => Some(StdRng::seed_from_u64(*seed)),
                _ => None,
            },
        }
    }
}

/// Stateful execution-time source for one run (owns the RNG).
#[derive(Debug)]
pub struct ExecTimeSampler {
    model: ExecTimeModel,
    rng: Option<StdRng>,
}

impl ExecTimeSampler {
    /// Draws the actual execution time of one job instance.
    ///
    /// The returned duration satisfies `0 < sampled`, and `sampled ≤
    /// job.wcet` whenever the model is [`ExecTimeModel::wcet_bounded`]: the
    /// scale factors are validated at construction and a final clamp guards
    /// the bound against any arithmetic drift, so the predictability
    /// property's premise holds by construction.
    ///
    /// # Panics
    ///
    /// Panics if `job.wcet` is not positive — a zero-or-negative WCET makes
    /// every execution-time model degenerate, and catching it here names
    /// the offending job instead of collapsing completion ties downstream.
    pub fn sample(&mut self, job: &Job) -> TimeQ {
        assert!(
            job.wcet > TimeQ::ZERO,
            "job {:?} (process {}) has non-positive WCET {}; execution-time sampling \
             requires 0 < wcet",
            job.k,
            job.process.index(),
            job.wcet
        );
        match self.model {
            ExecTimeModel::Wcet => job.wcet,
            ExecTimeModel::Scaled { num, den } => {
                let sampled = job.wcet * TimeQ::new(num as i128, den as i128);
                if num <= den {
                    sampled.min(job.wcet)
                } else {
                    sampled
                }
            }
            ExecTimeModel::Jitter {
                lo_permille,
                hi_permille,
                ..
            } => {
                let rng = self.rng.as_mut().expect("jitter model has an RNG");
                let permille = rng.gen_range(lo_permille..=hi_permille);
                (job.wcet * TimeQ::new(permille as i128, 1000)).min(job.wcet)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::ProcessId;

    fn job(c: i64) -> Job {
        Job {
            process: ProcessId::from_index(0),
            k: 1,
            arrival: TimeQ::ZERO,
            deadline: TimeQ::from_ms(100),
            wcet: TimeQ::from_ms(c),
            is_server: false,
        }
    }

    #[test]
    fn wcet_model_is_identity() {
        let mut s = ExecTimeModel::Wcet.sampler();
        assert_eq!(s.sample(&job(25)), TimeQ::from_ms(25));
    }

    #[test]
    fn scaled_model() {
        let mut s = ExecTimeModel::Scaled { num: 1, den: 2 }.sampler();
        assert_eq!(s.sample(&job(25)), TimeQ::new(25, 2));
        let mut over = ExecTimeModel::Scaled { num: 3, den: 2 }.sampler();
        assert_eq!(over.sample(&job(10)), TimeQ::from_ms(15));
    }

    #[test]
    fn jitter_stays_in_bounds_and_reproduces() {
        let model = ExecTimeModel::typical_jitter(42);
        let mut a = model.sampler();
        let mut b = model.sampler();
        for _ in 0..100 {
            let va = a.sample(&job(20));
            assert_eq!(va, b.sample(&job(20)));
            assert!(va >= TimeQ::from_ms(10) && va <= TimeQ::from_ms(20));
        }
    }

    #[test]
    #[should_panic(expected = "Scaled requires den > 0")]
    fn scaled_zero_denominator_panics_at_sampler_construction() {
        let _ = ExecTimeModel::Scaled { num: 1, den: 0 }.sampler();
    }

    #[test]
    #[should_panic(expected = "lo_permille <= hi_permille")]
    fn inverted_jitter_bounds_panic_at_sampler_construction() {
        let _ = ExecTimeModel::Jitter {
            lo_permille: 900,
            hi_permille: 500,
            seed: 1,
        }
        .sampler();
    }

    #[test]
    fn validate_flags_bad_models_and_passes_good_ones() {
        assert!(ExecTimeModel::Wcet.validate().is_ok());
        assert!(ExecTimeModel::Scaled { num: 3, den: 2 }.validate().is_ok());
        assert!(ExecTimeModel::typical_jitter(0).validate().is_ok());
        assert!(ExecTimeModel::Scaled { num: 1, den: 0 }
            .validate()
            .unwrap_err()
            .contains("divide by zero"));
        let bad = ExecTimeModel::Jitter {
            lo_permille: 2,
            hi_permille: 1,
            seed: 0,
        };
        assert!(bad.validate().unwrap_err().contains("lo = 2 > hi = 1"));
    }

    #[test]
    #[should_panic(expected = "Scaled requires num > 0")]
    fn scaled_zero_numerator_panics_at_sampler_construction() {
        let _ = ExecTimeModel::Scaled { num: 0, den: 2 }.sampler();
    }

    #[test]
    #[should_panic(expected = "lo_permille >= 1")]
    fn jitter_zero_lower_bound_panics_at_sampler_construction() {
        let _ = ExecTimeModel::Jitter {
            lo_permille: 0,
            hi_permille: 500,
            seed: 1,
        }
        .sampler();
    }

    #[test]
    #[should_panic(expected = "hi_permille <= 1000")]
    fn jitter_above_wcet_panics_at_sampler_construction() {
        let _ = ExecTimeModel::Jitter {
            lo_permille: 500,
            hi_permille: 1500,
            seed: 1,
        }
        .sampler();
    }

    #[test]
    fn degenerate_jitter_bounds_are_deterministic_and_in_bounds() {
        // lo == hi is legal: a deterministic fraction of WCET.
        let mut s = ExecTimeModel::Jitter {
            lo_permille: 700,
            hi_permille: 700,
            seed: 9,
        }
        .sampler();
        for _ in 0..20 {
            assert_eq!(s.sample(&job(10)), TimeQ::from_ms(7));
        }
        // The full-range boundary case hi == 1000 never exceeds the WCET.
        let mut full = ExecTimeModel::Jitter {
            lo_permille: 1,
            hi_permille: 1000,
            seed: 9,
        }
        .sampler();
        for _ in 0..200 {
            let v = full.sample(&job(10));
            assert!(v > TimeQ::ZERO && v <= TimeQ::from_ms(10), "{v} out of (0, wcet]");
        }
    }

    #[test]
    fn shrinking_scaled_stays_positive_and_bounded() {
        // den >> num: the sample shrinks towards zero but never reaches it
        // (exact rational arithmetic), and never exceeds the WCET.
        let mut s = ExecTimeModel::Scaled {
            num: 1,
            den: 1_000_000,
        }
        .sampler();
        let v = s.sample(&job(1));
        assert!(v > TimeQ::ZERO, "shrunk sample hit zero");
        assert!(v <= TimeQ::from_ms(1), "shrunk sample exceeds wcet");
        assert_eq!(v, TimeQ::new(1, 1_000_000));
    }

    #[test]
    fn wcet_bounded_classifies_models() {
        assert!(ExecTimeModel::Wcet.wcet_bounded());
        assert!(ExecTimeModel::Scaled { num: 1, den: 2 }.wcet_bounded());
        assert!(ExecTimeModel::Scaled { num: 2, den: 2 }.wcet_bounded());
        assert!(!ExecTimeModel::Scaled { num: 3, den: 2 }.wcet_bounded());
        assert!(ExecTimeModel::typical_jitter(0).wcet_bounded());
    }

    #[test]
    #[should_panic(expected = "non-positive WCET")]
    fn zero_wcet_job_is_rejected_at_sampling() {
        let _ = ExecTimeModel::Wcet.sampler().sample(&job(0));
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ExecTimeModel::typical_jitter(1).sampler();
        let mut b = ExecTimeModel::typical_jitter(2).sampler();
        let draws_a: Vec<TimeQ> = (0..20).map(|_| a.sample(&job(1000))).collect();
        let draws_b: Vec<TimeQ> = (0..20).map(|_| b.sample(&job(1000))).collect();
        assert_ne!(draws_a, draws_b);
    }
}
