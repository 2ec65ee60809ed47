//! The semantic property campaign: predictability, sustainability and
//! robustness (Prop. 4.1) under adversarial stimuli.
//!
//! The differential suite proves every execution setting *internally*
//! consistent; this suite checks the properties a deterministic
//! multiprocessor execution model must satisfy *semantically*:
//!
//! 1. **Predictability** (Cucu-Grosjean & Goossens, arXiv:0908.3519):
//!    for a fixed network, schedule and stimuli, pointwise-shrinking the
//!    actual execution times must never *delay* any job's completion —
//!    per process and per round. The static-order policy computes every
//!    completion as a composition of `max` and `+` over the execution
//!    time vector (invocations are exec-time independent), so a
//!    violation here is an engine bug, not a semantic finding.
//! 2. **Sustainability** (Cucu & Goossens, arXiv:0801.4292): sparser
//!    sporadic arrivals (period multipliers ≥ 1 on a maximal-density
//!    flood) must never increase the response time of a job present in
//!    both runs, nor introduce a deadline miss on such a job.
//! 3. **Robustness (Prop. 4.1)**: the observable traces are invariant
//!    across the execution settings (oracle round loop or default memoized
//!    one) under every adversarial stimulus class, and invariant under the
//!    execution-time variation of the shrink chain.
//!
//! All stimuli come from `stimgen::adversarial` — seed-pinned SplitMix64
//! streams aimed at window boundaries, maximal densities, cross-process
//! arrival ties and late/extreme external inputs. Case counts obey
//! `PROPTEST_CASES` (CI's opt-in long run raises it).

use std::collections::{BTreeMap, BTreeSet};

use fppn_apps::{adversarial_presets, random_workload, synthetic_fppn, Workload, WorkloadConfig};
use fppn_sched::{list_schedule, Heuristic};
use fppn_sim::hotpath::simulate_oracle;
use fppn_sim::{
    adversarial_stimuli, clip_stimuli, completion_table, max_density_flood_trace, missed_jobs,
    response_table, simulate, AdversarialClass, ExecTimeModel, SimConfig, SimRun,
};
use fppn_taskgraph::{derive_task_graph, DerivedTaskGraph, JobId};
use fppn_time::TimeQ;
use proptest::prelude::*;

/// Completion table as produced by [`completion_table`]: `(frame, job)` →
/// completion time.
type Completions = BTreeMap<(u64, JobId), TimeQ>;

/// A pointwise non-increasing chain of execution-time models: every model
/// samples, for every job, a duration ≤ the previous model's sample.
/// Consecutive `Jitter` ranges only touch at their endpoints, so the
/// ordering holds regardless of the (deliberately different) seeds; the
/// chain ends in a near-zero `Scaled` floor below every jitter band.
fn shrink_chain(seed: u64) -> Vec<ExecTimeModel> {
    vec![
        ExecTimeModel::Wcet,
        ExecTimeModel::Jitter {
            lo_permille: 667,
            hi_permille: 1000,
            seed,
        },
        ExecTimeModel::Jitter {
            lo_permille: 333,
            hi_permille: 667,
            seed: seed ^ 0x1,
        },
        ExecTimeModel::Jitter {
            lo_permille: 1,
            hi_permille: 333,
            seed: seed ^ 0x2,
        },
        ExecTimeModel::Scaled { num: 1, den: 1000 },
    ]
}

/// The `Scaled` sweep of the same property (`num/den` stepping down).
fn scaled_chain() -> Vec<ExecTimeModel> {
    vec![
        ExecTimeModel::Wcet,
        ExecTimeModel::Scaled { num: 3, den: 4 },
        ExecTimeModel::Scaled { num: 2, den: 4 },
        ExecTimeModel::Scaled { num: 1, den: 4 },
    ]
}

struct Prepared {
    w: Workload,
    derived: DerivedTaskGraph,
    horizon: TimeQ,
    frames: u64,
}

fn prepare(w: Workload, frames: u64) -> Prepared {
    let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
    let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
    Prepared {
        w,
        derived,
        horizon,
        frames,
    }
}

fn run_seq(p: &Prepared, stimuli: &fppn_core::Stimuli, m: usize, exec: ExecTimeModel) -> SimRun {
    let schedule = list_schedule(&p.derived.graph, m, Heuristic::AlapEdf);
    simulate(
        &p.w.net,
        &p.w.bank,
        stimuli,
        &p.derived,
        &schedule,
        &SimConfig {
            frames: p.frames,
            exec_time: exec,
            ..SimConfig::default()
        },
    )
    .expect("sequential oracle")
}

/// Property 1: along a pointwise-shrinking exec-time chain, every
/// `(frame, job)` completion is monotonically non-increasing, and the
/// observables never change (robustness under timing variation).
fn assert_predictable(p: &Prepared, stimuli: &fppn_core::Stimuli, m: usize, chain: &[ExecTimeModel], label: &str) {
    let mut prev: Option<(ExecTimeModel, Completions, SimRun)> = None;
    for &exec in chain {
        let run = run_seq(p, stimuli, m, exec);
        let table = completion_table(&run.records);
        if let Some((pexec, ptable, prun)) = &prev {
            assert_eq!(
                table.len(),
                ptable.len(),
                "{label}: shrink {pexec:?} -> {exec:?} changed the slot set"
            );
            for (key, &c) in &table {
                let pc = ptable[key];
                assert!(
                    c <= pc,
                    "{label}: predictability violated at (frame, job) = {key:?}: \
                     completion {pc:?} -> {c:?} after shrinking {pexec:?} -> {exec:?}"
                );
            }
            assert_eq!(
                run.observables, prun.observables,
                "{label}: observables changed under exec-time shrink {pexec:?} -> {exec:?} \
                 (Prop. 4.1 robustness violated)"
            );
        }
        prev = Some((exec, table, run));
    }
}

/// Property 2: replacing every sporadic flood by its `period_mult`-sparser
/// subset never increases the response time of a job executed in both
/// runs (rank-by-rank within simultaneous-arrival groups) and never
/// introduces a deadline miss on such a job.
///
/// **Known semantic finding (documented in the README):** the online
/// policy (§IV) is *not* sustainable in this sense. A server slot whose
/// arrival was removed resolves as **false only at its window close** —
/// the earliest instant the non-clairvoyant scheduler can know no event
/// came — and holds its processor until then, while the executed slot
/// (arrival `a`, execution time `e`) would have released it at `a + e`,
/// possibly much earlier. Removing an arrival can therefore *delay*
/// static-order successors. `sustainability_counterexample_pinned`
/// asserts a minimized instance of exactly this mechanism.
///
/// The campaign therefore accepts a violation **iff it is explained by
/// that mechanism**: some slot executed in the dense run is skipped in
/// the sparse run with a later (window-close) completion. A violation
/// with no such slot would be a real engine bug and still fails.
fn assert_sustainable(p: &Prepared, m: usize, exec: ExecTimeModel, label: &str) {
    let sporadics = fppn_sim::sporadic_processes(&p.w.net);
    if sporadics.is_empty() {
        return;
    }
    let dense_raw = adversarial_stimuli(
        &p.w.net,
        &p.derived,
        p.horizon,
        AdversarialClass::MaxDensityFlood,
        0xD05E,
    );
    let dense_stim = clip_stimuli(&p.w.net, &p.derived, &dense_raw, p.frames);
    let dense = run_seq(p, &dense_stim, m, exec);
    let dense_resp = response_table(&dense.records);
    let dense_miss: BTreeSet<_> = missed_jobs(&dense.records).into_iter().collect();

    for mult in [2u32, 4] {
        let mut sparse_raw = dense_raw.clone();
        for &pid in &sporadics {
            let ev = p.w.net.process(pid).event();
            sparse_raw.arrivals(
                pid,
                max_density_flood_trace(ev.burst(), ev.period(), p.horizon, mult),
            );
        }
        let sparse_stim = clip_stimuli(&p.w.net, &p.derived, &sparse_raw, p.frames);
        let sparse = run_seq(p, &sparse_stim, m, exec);
        let sparse_resp = response_table(&sparse.records);

        // The window-close explanation: slots executed under the dense
        // arrivals but skipped (false) under the sparse ones, resolving
        // later than the dense execution completed. Only these can push
        // completions of other jobs *up*.
        let dense_compl = completion_table(&dense.records);
        let explaining_slots: Vec<_> = sparse
            .records
            .iter()
            .filter(|r| r.skipped && r.completion > dense_compl[&(r.frame, r.job)])
            .map(|r| (r.frame, r.job))
            .collect();

        let mut explained = 0usize;
        for (key, sresp) in &sparse_resp {
            let Some(dresp) = dense_resp.get(key) else {
                // This arrival executed only in the sparse run (in the
                // dense run its subset overflowed its server slots); no
                // dense counterpart to compare against.
                continue;
            };
            for i in 0..sresp.len().min(dresp.len()) {
                if sresp[i] > dresp[i] {
                    assert!(
                        !explaining_slots.is_empty(),
                        "{label}: UNEXPLAINED sustainability violation (engine bug): \
                         (process, invoked_at) = {key:?} rank {i}: response {:?} (dense) \
                         -> {:?} (mult {mult}), but no executed->false slot resolved late",
                        dresp[i],
                        sresp[i]
                    );
                    explained += 1;
                }
            }
        }
        for key in missed_jobs(&sparse.records) {
            if dense_resp.contains_key(&key) && !dense_miss.contains(&key) {
                assert!(
                    !explaining_slots.is_empty(),
                    "{label}: UNEXPLAINED new deadline miss (engine bug) at \
                     (process, invoked_at) = {key:?} under sparsification (mult {mult})"
                );
                explained += 1;
            }
        }
        if explained > 0 {
            eprintln!(
                "{label}: mult {mult}: {explained} sustainability violation(s), all \
                 explained by false-slot window-close gating ({} late-resolving slot(s)) \
                 — the documented semantic finding",
                explaining_slots.len()
            );
        }
    }
}

/// Property 3: the default memoized loop produces a run bit-identical to
/// the oracle seam under an adversarial stimulus.
fn assert_default_matches_oracle(
    p: &Prepared,
    stimuli: &fppn_core::Stimuli,
    m: usize,
    exec: ExecTimeModel,
    label: &str,
) {
    let schedule = list_schedule(&p.derived.graph, m, Heuristic::AlapEdf);
    let config = SimConfig {
        frames: p.frames,
        exec_time: exec,
        ..SimConfig::default()
    };
    let oracle = simulate_oracle(&p.w.net, &p.w.bank, stimuli, &p.derived, &schedule, &config)
        .expect("sequential oracle");
    let run = simulate(&p.w.net, &p.w.bank, stimuli, &p.derived, &schedule, &config)
        .expect("default run");
    assert_eq!(oracle.records, run.records, "{label}: records diverged");
    assert_eq!(
        oracle.observables, run.observables,
        "{label}: observables diverged"
    );
    assert_eq!(oracle.gantt, run.gantt, "{label}: gantt diverged");
    assert_eq!(oracle.stats, run.stats, "{label}: stats diverged");
}

fn campaign_workloads() -> Vec<(String, Prepared)> {
    let mut out = Vec::new();
    for seed in [3u64, 19] {
        let w = random_workload(&WorkloadConfig {
            periodic: 4,
            sporadic: 2,
            seed,
            ..WorkloadConfig::default()
        });
        out.push((format!("random-{seed}"), prepare(w, 3)));
    }
    for (label, cfg) in adversarial_presets() {
        out.push((label.to_string(), prepare(synthetic_fppn(&cfg), 2)));
    }
    out
}

#[test]
fn predictability_on_adversarial_stimuli() {
    for (label, p) in campaign_workloads() {
        for class in AdversarialClass::ALL {
            let raw = adversarial_stimuli(&p.w.net, &p.derived, p.horizon, class, 0xCA11);
            let stimuli = clip_stimuli(&p.w.net, &p.derived, &raw, p.frames);
            for m in [1usize, 3] {
                let tag = format!("{label}/{}/m{m}", class.name());
                assert_predictable(&p, &stimuli, m, &shrink_chain(0xEC0 ^ m as u64), &tag);
                assert_predictable(&p, &stimuli, m, &scaled_chain(), &tag);
            }
        }
    }
}

/// The minimized sustainability counterexample, pinned with exact
/// rational times — the mechanized form of the README's "semantic
/// finding" entry.
///
/// Seed-pinned workload (`WorkloadConfig { periodic: 4, sporadic: 2,
/// seed: 3 }`, 3 processors, WCET exec times, frame 0 of the dense vs
/// mult-2 flood pair): sporadic `s1` (burst 3, period 200, server period
/// `T′ = 100`) and sporadic `s0` (burst 2, period 800, `T′ = 400`) share
/// processor 1.
///
/// *Dense* flood (arrivals every 200): `s1`'s window-(200, 300] slots
/// execute 207–222, so `s0`'s first slot (invoked at 0, statically
/// ordered after them) runs 222–226.
/// *Sparse* flood (every 400 — the 200-arrivals removed, trivially
/// admissible): those same slots are known **false only at their window
/// close 300** and hold the processor until then, so `s0`'s slot runs
/// 300–304. Removing arrivals raised a response time from 226 to 304 —
/// sustainability fails by the policy's own non-clairvoyance (it cannot
/// know before the window closes that no event will come), not by an
/// engine defect.
#[test]
fn sustainability_counterexample_pinned() {
    let ms = TimeQ::from_ms;
    let w = random_workload(&WorkloadConfig {
        periodic: 4,
        sporadic: 2,
        seed: 3,
        ..WorkloadConfig::default()
    });
    let p = prepare(w, 3);
    let s0 = p.w.net.process_by_name("s0").expect("sporadic s0");
    let s1 = p.w.net.process_by_name("s1").expect("sporadic s1");
    assert_eq!(
        p.derived.server(s1).map(|s| (s.period, s.burst)),
        Some((ms(100), 3))
    );

    let dense_raw = adversarial_stimuli(
        &p.w.net,
        &p.derived,
        p.horizon,
        AdversarialClass::MaxDensityFlood,
        0xD05E,
    );
    let mut sparse_raw = dense_raw.clone();
    for &pid in &[s0, s1] {
        let ev = p.w.net.process(pid).event();
        sparse_raw.arrivals(pid, max_density_flood_trace(ev.burst(), ev.period(), p.horizon, 2));
    }

    // The gating slots: s1's jobs of the (200, 300] window in frame 0,
    // and the gated job: s0's first slot (invoked at 0).
    // `skipped` disambiguates: at `invoked_at == 200` the dense run also
    // has the *previous* window's false slots (resolved at their close,
    // 200), and in the sparse run the window's slots are false with
    // `invoked_at` equal to the close, 300.
    let frame0_window_slots = |run: &SimRun, invoked: TimeQ, skipped: bool| {
        run.records
            .iter()
            .filter(|r| {
                r.frame == 0 && r.process == s1 && r.invoked_at == invoked && r.skipped == skipped
            })
            .map(|r| r.completion)
            .collect::<Vec<_>>()
    };
    let gated = |run: &SimRun| {
        run.records
            .iter()
            .filter(|r| r.frame == 0 && r.process == s0 && !r.skipped)
            .map(|r| (r.start, r.completion))
            .min()
            .expect("s0 executes in frame 0")
    };

    let dense_stim = clip_stimuli(&p.w.net, &p.derived, &dense_raw, p.frames);
    let dense = run_seq(&p, &dense_stim, 3, ExecTimeModel::Wcet);
    // Dense: the window's three arrivals (at 200) execute well before the
    // close at 300…
    assert_eq!(
        frame0_window_slots(&dense, ms(200), false),
        vec![ms(212), ms(217), ms(222)]
    );
    // …so s0's slot starts as soon as they are done.
    assert_eq!(gated(&dense), (ms(222), ms(226)));

    let sparse_stim = clip_stimuli(&p.w.net, &p.derived, &sparse_raw, p.frames);
    let sparse = run_seq(&p, &sparse_stim, 3, ExecTimeModel::Wcet);
    // Sparse: the same slots are false, resolved only at the window close…
    assert_eq!(
        frame0_window_slots(&sparse, ms(300), true),
        vec![ms(300), ms(300), ms(300)]
    );
    // …and s0's job — identical stimuli as far as s0 is concerned at t=0 —
    // is delayed from 226 to 304: the pinned sustainability violation.
    assert_eq!(gated(&sparse), (ms(300), ms(304)));
}

#[test]
fn sustainability_under_sparser_floods() {
    for (label, p) in campaign_workloads() {
        for m in [1usize, 3] {
            assert_sustainable(&p, m, ExecTimeModel::Wcet, &format!("{label}/m{m}/wcet"));
            assert_sustainable(
                &p,
                m,
                ExecTimeModel::Scaled { num: 1, den: 2 },
                &format!("{label}/m{m}/half"),
            );
        }
    }
}

#[test]
fn robustness_default_matches_oracle_on_adversarial_stimuli() {
    for (label, p) in campaign_workloads() {
        for class in AdversarialClass::ALL {
            let raw = adversarial_stimuli(&p.w.net, &p.derived, p.horizon, class, 0x0B57);
            let stimuli = clip_stimuli(&p.w.net, &p.derived, &raw, p.frames);
            for m in [1usize, 3] {
                // `Wcet` is the model the frame memo replays under; the
                // jitter model computes every frame live.
                for exec in [ExecTimeModel::Wcet, ExecTimeModel::typical_jitter(0x0B57 ^ m as u64)] {
                    assert_default_matches_oracle(
                        &p,
                        &stimuli,
                        m,
                        exec,
                        &format!("{label}/{}/m{m}/{exec:?}", class.name()),
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Predictability over random workload shapes × adversarial classes ×
    /// stimulus seeds: a single shrink step (Wcet -> Jitter band -> Scaled
    /// floor) must never delay a completion.
    #[test]
    fn predictability_holds_for_random_shapes(
        periodic in 2usize..5,
        sporadic in 1usize..3,
        class_idx in 0usize..4,
        seed in any::<u64>(),
        m in 1usize..4,
    ) {
        let w = random_workload(&WorkloadConfig {
            periodic,
            sporadic,
            seed,
            ..WorkloadConfig::default()
        });
        let p = prepare(w, 2);
        let class = AdversarialClass::ALL[class_idx];
        let raw = adversarial_stimuli(&p.w.net, &p.derived, p.horizon, class, seed ^ 0xAD);
        let stimuli = clip_stimuli(&p.w.net, &p.derived, &raw, p.frames);
        let chain = shrink_chain(seed ^ 0x5EED);
        let mut prev: Option<(ExecTimeModel, Completions)> = None;
        for &exec in &chain {
            let run = run_seq(&p, &stimuli, m, exec);
            let table = completion_table(&run.records);
            if let Some((pexec, ptable)) = &prev {
                for (key, &c) in &table {
                    prop_assert!(
                        c <= ptable[key],
                        "{}/{}: completion at {:?} rose {:?} -> {:?} shrinking {:?} -> {:?}",
                        seed, class.name(), key, ptable[key], c, pexec, exec
                    );
                }
            }
            prev = Some((exec, table));
        }
    }

    /// Robustness over random shapes: every execution setting agrees under
    /// every adversarial class (seed-pinned by proptest's own RNG).
    #[test]
    fn default_matches_oracle_for_random_shapes(
        periodic in 2usize..5,
        sporadic in 0usize..3,
        class_idx in 0usize..4,
        seed in any::<u64>(),
        m in 1usize..4,
    ) {
        let w = random_workload(&WorkloadConfig {
            periodic,
            sporadic,
            seed,
            ..WorkloadConfig::default()
        });
        let p = prepare(w, 2);
        let class = AdversarialClass::ALL[class_idx];
        let raw = adversarial_stimuli(&p.w.net, &p.derived, p.horizon, class, seed ^ 0xB0B);
        let stimuli = clip_stimuli(&p.w.net, &p.derived, &raw, p.frames);
        assert_default_matches_oracle(
            &p,
            &stimuli,
            m,
            ExecTimeModel::typical_jitter(seed),
            &format!("prop/{}/{}", seed, class.name()),
        );
    }
}

/// Deterministic SplitMix64 expander for the interning round-trip
/// properties below: the vendored proptest shim has no recursive/oneof
/// combinators, so a seed drawn by `any::<u64>()` is expanded into
/// structured `Value`s and trace actions here. Coverage is deliberate:
/// small ints (the inline-tagged id path), huge ints and structured
/// values (the hash-consed pool path), floats (compared by bits,
/// including NaN patterns), rationals, strings and nested lists.
struct ValueGen(u64);

impl ValueGen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn value(&mut self, depth: u32) -> fppn_core::Value {
        use fppn_core::Value;
        let variants = if depth == 0 { 8 } else { 9 };
        match self.next() % variants {
            0 => Value::Absent,
            1 => Value::Unit,
            2 => Value::Bool(self.next() & 1 == 1),
            // Small int: exercises the inline-tagged id fast path.
            3 => Value::Int((self.next() % 4096) as i64 - 2048),
            // Full-range int: i64::MIN/MAX land in the pooled path.
            4 => Value::Int(self.next() as i64),
            // Raw bit pattern: covers NaNs, infinities, -0.0.
            5 => Value::Float(f64::from_bits(self.next())),
            6 => Value::Time(TimeQ::new(
                (self.next() as i64 >> 16).into(),
                (self.next() % 999 + 1) as i128,
            )),
            7 => {
                let len = (self.next() % 12) as usize;
                Value::Str((0..len).map(|_| (b'a' + (self.next() % 26) as u8) as char).collect())
            }
            _ => {
                let len = (self.next() % 4) as usize;
                Value::List((0..len).map(|_| self.value(depth - 1)).collect())
            }
        }
    }

    fn opt_value(&mut self, depth: u32) -> Option<fppn_core::Value> {
        (self.next() & 1 == 1).then(|| self.value(depth))
    }

    fn action(&mut self) -> fppn_core::Action {
        use fppn_core::{Action, ChannelId, PortId};
        match self.next() % 4 {
            0 => Action::Read {
                channel: ChannelId::from_index((self.next() % 8) as usize),
                value: self.opt_value(2),
            },
            1 => Action::Write {
                channel: ChannelId::from_index((self.next() % 8) as usize),
                value: self.value(2),
            },
            2 => Action::ReadInput {
                port: PortId::from_index((self.next() % 8) as usize),
                k: self.next() % 100 + 1,
                value: self.opt_value(2),
            },
            _ => Action::WriteOutput {
                port: PortId::from_index((self.next() % 8) as usize),
                k: self.next() % 100 + 1,
                value: self.value(2),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hash-consed value pool is lossless and idempotent: resolving an
    /// interned value reproduces it exactly (floats by bits), and
    /// re-interning yields the *same* id — the invariant that makes id
    /// equality a sound fast path for value equality.
    #[test]
    fn value_interning_round_trips(seed in any::<u64>()) {
        let mut gen = ValueGen(seed);
        let mut pool = fppn_core::ValuePool::new();
        for _ in 0..32 {
            let v = gen.value(3);
            let id = pool.intern(&v);
            prop_assert_eq!(pool.resolve(id), v.clone());
            prop_assert_eq!(pool.intern(&v), id);
        }
    }

    /// Pushing job runs through the arena-backed `Trace` and reading them
    /// back materializes identical runs, in order — the interned
    /// representation is an invisible compression, not a lossy one.
    #[test]
    fn trace_round_trips_through_the_arena(seed in any::<u64>()) {
        use fppn_core::{JobRun, ProcessId, Trace};
        let mut gen = ValueGen(seed ^ 0xA11C);
        let n_runs = (gen.next() % 8) as usize;
        let runs: Vec<JobRun> = (0..n_runs)
            .map(|_| {
                let k = gen.next() % 50 + 1;
                JobRun {
                    process: ProcessId::from_index((gen.next() % 4) as usize),
                    k,
                    invoked_at: TimeQ::from_int(k as i64),
                    actions: (0..(gen.next() % 6) as usize).map(|_| gen.action()).collect(),
                }
            })
            .collect();
        let mut trace = Trace::new();
        for r in &runs {
            trace.push(r.clone());
        }
        prop_assert_eq!(trace.len(), runs.len());
        let back: Vec<JobRun> = trace.runs().collect();
        prop_assert_eq!(back, runs);
    }
}
