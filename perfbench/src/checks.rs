//! Output checks made apart from the program: each recomputes a property
//! of a run, a compile or the serve layer's totals from first principles
//! (the paper's definitions) and compares. They run outside the timed
//! phase. A failure marks the run's outputs incorrect.

use std::collections::BTreeMap;

use fppn_core::{
    run_zero_delay, BehaviorBank, ExecError, ExecState, Fppn, JobOrdering, Observables, PortId,
    ProcessId, Stimuli, Value,
};
use fppn_sched::StaticSchedule;
use fppn_sim::{JobRecord, SimRun, SimStats};
use fppn_taskgraph::{DerivedTaskGraph, JobId, TaskGraph};
use fppn_time::TimeQ;

use crate::gen;

pub type Check = Result<(), String>;

/// The verdicts of one run's checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub passed: usize,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, what: &str, verdict: Check) {
        match verdict {
            Ok(()) => self.passed += 1,
            Err(e) => self.failures.push(format!("{what}: {e}")),
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Prop. 4.1: the run's observables equal the zero-delay reference's.
pub fn observables_match(run: &Observables, reference: &Observables) -> Check {
    match run.diff(reference) {
        None if run == reference => Ok(()),
        None => Err("observables differ".to_owned()),
        Some(d) => Err(format!(
            "observables differ from the zero-delay reference: {}",
            d.trim()
        )),
    }
}

/// At most `m` arrivals in any half-closed window of length `T`: arrivals
/// `i` and `i + m` are at least `T` apart.
pub fn arrivals_respect_window(arrivals: &[TimeQ], burst: u32, period: TimeQ) -> Check {
    let m = burst as usize;
    if arrivals.windows(2).any(|w| w[0] > w[1]) {
        return Err("arrivals are not sorted".to_owned());
    }
    match arrivals.windows(m + 1).find(|w| w[m] - w[0] < period) {
        None => Ok(()),
        Some(w) => Err(format!(
            "{} arrivals within [{}, {}], shorter than T = {period}",
            m + 1,
            w[0],
            w[m]
        )),
    }
}

/// The run executed exactly as many jobs as the reference invoked.
pub fn executed_matches_reference(records: &[JobRecord], reference_executed: usize) -> Check {
    let executed = records.iter().filter(|r| !r.skipped).count();
    if executed == reference_executed {
        Ok(())
    } else {
        Err(format!(
            "{executed} executed records, reference executed {reference_executed}"
        ))
    }
}

/// Every `(frame, job)` round appears exactly once.
pub fn rounds_complete(records: &[JobRecord], n_jobs: usize, frames: u64) -> Check {
    let mut seen = vec![false; n_jobs * frames as usize];
    for r in records {
        let slot = r.frame as usize * n_jobs + r.job.index();
        if r.frame >= frames || r.job.index() >= n_jobs {
            return Err(format!(
                "round ({}, {}) out of range",
                r.frame,
                r.job.index()
            ));
        }
        if std::mem::replace(&mut seen[slot], true) {
            return Err(format!(
                "round ({}, {}) recorded twice",
                r.frame,
                r.job.index()
            ));
        }
    }
    match seen.iter().position(|s| !s) {
        None => Ok(()),
        Some(slot) => Err(format!(
            "round ({}, {}) missing",
            slot / n_jobs,
            slot % n_jobs
        )),
    }
}

/// On every processor, executed rounds never overlap.
pub fn rounds_disjoint(records: &[JobRecord]) -> Check {
    let mut by_proc: BTreeMap<usize, Vec<(TimeQ, TimeQ)>> = BTreeMap::new();
    for r in records.iter().filter(|r| !r.skipped) {
        by_proc
            .entry(r.processor)
            .or_default()
            .push((r.start, r.completion));
    }
    for (m, mut spans) in by_proc {
        spans.sort();
        if let Some(w) = spans.windows(2).find(|w| w[0].1 > w[1].0) {
            return Err(format!(
                "processor {m}: round [{}, {}] overlaps round [{}, {}]",
                w[0].0, w[0].1, w[1].0, w[1].1
            ));
        }
    }
    Ok(())
}

/// Each executed round starts no earlier than its invocation and no
/// earlier than the completion of each same-frame graph predecessor.
pub fn rounds_respect_precedence(records: &[JobRecord], graph: &TaskGraph) -> Check {
    let n = graph.job_count();
    let frames = records
        .iter()
        .map(|r| r.frame as usize + 1)
        .max()
        .unwrap_or(0);
    let mut completion: Vec<Option<TimeQ>> = vec![None; frames * n];
    for r in records {
        completion[r.frame as usize * n + r.job.index()] = Some(r.completion);
    }
    for r in records.iter().filter(|r| !r.skipped) {
        if r.start < r.invoked_at {
            return Err(format!(
                "round ({}, {}) starts at {} before its invocation at {}",
                r.frame,
                r.job.index(),
                r.start,
                r.invoked_at
            ));
        }
        for p in graph.predecessors(r.job) {
            let done = completion[r.frame as usize * n + p.index()]
                .ok_or_else(|| format!("predecessor ({}, {}) has no round", r.frame, p.index()))?;
            if r.start < done {
                return Err(format!(
                    "round ({}, {}) starts at {} before predecessor {} completes at {done}",
                    r.frame,
                    r.job.index(),
                    r.start,
                    p.index()
                ));
            }
        }
    }
    Ok(())
}

/// Under the WCET model every executed round lasts exactly its job's WCET.
pub fn rounds_last_wcet(records: &[JobRecord], graph: &TaskGraph) -> Check {
    for r in records.iter().filter(|r| !r.skipped) {
        let wcet = graph.job(r.job).wcet;
        if r.completion - r.start != wcet {
            return Err(format!(
                "round ({}, {}) lasts {}, its WCET is {wcet}",
                r.frame,
                r.job.index(),
                r.completion - r.start
            ));
        }
    }
    Ok(())
}

/// The benchmark's recount of the run's statistics from its records.
pub fn recount(records: &[JobRecord]) -> SimStats {
    let mut s = SimStats::default();
    for r in records {
        if r.skipped {
            s.skipped += 1;
            continue;
        }
        s.executed += 1;
        s.makespan = s.makespan.max(r.completion);
        if r.completion > r.deadline {
            s.deadline_misses += 1;
        }
    }
    s
}

/// `SimStats` (executed, skipped, deadline misses, makespan) equals the
/// recount.
pub fn stats_match_recount(records: &[JobRecord], stats: &SimStats) -> Check {
    let own = recount(records);
    let same = (own.executed, own.skipped, own.deadline_misses, own.makespan)
        == (
            stats.executed,
            stats.skipped,
            stats.deadline_misses,
            stats.makespan,
        );
    if same {
        Ok(())
    } else {
        Err(format!("stats {stats:?} but the records count {own:?}"))
    }
}

/// The static schedule respects every edge, never overlaps on a
/// processor, starts no job before its arrival and ends none after its
/// deadline.
pub fn schedule_valid(graph: &TaskGraph, schedule: &StaticSchedule) -> Check {
    let placements = schedule.placements();
    if placements.len() != graph.job_count() {
        return Err(format!(
            "{} placements for {} jobs",
            placements.len(),
            graph.job_count()
        ));
    }
    let mut by_proc: BTreeMap<usize, Vec<(TimeQ, TimeQ, usize)>> = BTreeMap::new();
    for (i, p) in placements.iter().enumerate() {
        let job = graph.job(JobId::from_index(i));
        if p.job.index() != i || p.processor >= schedule.processors() {
            return Err(format!("placement {i} is malformed: {p:?}"));
        }
        if p.start < job.arrival {
            return Err(format!(
                "job {i} starts at {} before its arrival {}",
                p.start, job.arrival
            ));
        }
        if p.start + job.wcet > job.deadline {
            return Err(format!(
                "job {i} ends at {} after its deadline {}",
                p.start + job.wcet,
                job.deadline
            ));
        }
        by_proc
            .entry(p.processor)
            .or_default()
            .push((p.start, p.start + job.wcet, i));
    }
    for (a, b) in graph.edges() {
        let end_a = placements[a.index()].start + graph.job(a).wcet;
        if placements[b.index()].start < end_a {
            return Err(format!("edge {} -> {} violated", a.index(), b.index()));
        }
    }
    for (m, mut spans) in by_proc {
        spans.sort();
        if let Some(w) = spans.windows(2).find(|w| w[0].1 > w[1].0) {
            return Err(format!(
                "processor {m}: jobs {} and {} overlap",
                w[0].2, w[1].2
            ));
        }
    }
    Ok(())
}

/// The job census: `burst · H / T′` jobs per process, with `H` and `T′`
/// computed from the network's periods as in §III-A.
pub fn census_matches(net: &Fppn, derived: &DerivedTaskGraph) -> Check {
    let h = gen::hyperperiod_us(net);
    if gen::to_us(derived.hyperperiod) != h {
        return Err(format!(
            "hyperperiod {} but the periods give {h} µs",
            derived.hyperperiod
        ));
    }
    let mut counts = vec![0i64; net.process_count()];
    for job in derived.graph.jobs() {
        counts[job.process.index()] += 1;
    }
    for pid in net.process_ids() {
        let expected =
            i64::from(net.process(pid).event().burst()) * h / gen::effective_period_us(net, pid);
        if counts[pid.index()] != expected {
            return Err(format!(
                "{} has {} jobs, burst·H/T′ = {expected}",
                net.process(pid).name(),
                counts[pid.index()]
            ));
        }
    }
    Ok(())
}

/// A topological order of `graph` (Kahn), or `None` on a cycle.
fn topological_order(graph: &TaskGraph) -> Option<Vec<usize>> {
    let n = graph.job_count();
    let mut indegree: Vec<usize> = (0..n)
        .map(|i| graph.predecessors(JobId::from_index(i)).count())
        .collect();
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(a) = ready.pop() {
        order.push(a);
        for b in graph.successors(JobId::from_index(a)) {
            indegree[b.index()] -= 1;
            if indegree[b.index()] == 0 {
                ready.push(b.index());
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Reachability bitsets: bit `b` of row `a` is set iff `b` is reachable
/// from `a` by a path of at least one edge.
fn reachability(graph: &TaskGraph) -> Result<Vec<Vec<u64>>, String> {
    let n = graph.job_count();
    let words = n.div_ceil(64);
    let order = topological_order(graph).ok_or("the graph has a cycle")?;
    let mut reach = vec![vec![0u64; words]; n];
    for &a in order.iter().rev() {
        let mut row = vec![0u64; words];
        for s in graph.successors(JobId::from_index(a)) {
            row[s.index() / 64] |= 1 << (s.index() % 64);
            for (w, r) in row.iter_mut().zip(&reach[s.index()]) {
                *w |= r;
            }
        }
        reach[a] = row;
    }
    Ok(reach)
}

/// Re-reducing the graph removes no edge: no edge `a → b` has `b`
/// reachable from another successor of `a`.
pub fn reduction_is_minimal(graph: &TaskGraph) -> Check {
    let reach = reachability(graph)?;
    for (a, b) in graph.edges() {
        for c in graph.successors(a) {
            if c != b && reach[c.index()][b.index() / 64] >> (b.index() % 64) & 1 == 1 {
                return Err(format!(
                    "edge {} -> {} is redundant (reachable through {})",
                    a.index(),
                    b.index(),
                    c.index()
                ));
            }
        }
    }
    Ok(())
}

/// Two graphs over the same jobs have the same reachability relation.
pub fn same_reachability(a: &TaskGraph, b: &TaskGraph) -> Check {
    if a.job_count() != b.job_count() {
        return Err(format!("{} jobs vs {}", a.job_count(), b.job_count()));
    }
    let (ra, rb) = (reachability(a)?, reachability(b)?);
    match (0..ra.len()).find(|&i| ra[i] != rb[i]) {
        None => Ok(()),
        Some(i) => Err(format!("jobs reachable from job {i} differ")),
    }
}

/// The 4-point DFT, computed by the benchmark itself.
pub fn dft4(x: [f64; 4]) -> [(f64, f64); 4] {
    std::array::from_fn(|k| {
        x.iter().enumerate().fold((0.0, 0.0), |(re, im), (n, &xn)| {
            let angle = -std::f64::consts::FRAC_PI_2 * (k * n) as f64;
            (re + xn * angle.cos(), im + xn * angle.sin())
        })
    })
}

/// The samples `pid` wrote to its first external output port.
pub fn output_of(observables: &Observables, pid: ProcessId) -> &[(u64, Value)] {
    observables
        .outputs
        .iter()
        .find(|(key, _)| *key == (pid, PortId::from_index(0)))
        .map_or(&[], |(_, v)| v.as_slice())
}

/// The FFT consumer's spectra equal the DFT of the frames that were sent,
/// one spectrum per frame, within `1e-9`.
pub fn spectra_match(out: &[(u64, Value)], frames: &[[f64; 4]]) -> Check {
    if out.len() != frames.len() {
        return Err(format!("{} spectra for {} frames", out.len(), frames.len()));
    }
    for (k, value) in out {
        let x = frames
            .get((*k as usize).wrapping_sub(1))
            .ok_or_else(|| format!("spectrum for unknown frame {k}"))?;
        let bins = value
            .as_list()
            .ok_or_else(|| format!("frame {k}: spectrum is not a list"))?;
        let expected = dft4(*x);
        if bins.len() != 4 {
            return Err(format!("frame {k}: {} bins", bins.len()));
        }
        for (i, (bin, (re, im))) in bins.iter().zip(expected).enumerate() {
            let (got_re, got_im) = bin
                .as_complex()
                .ok_or_else(|| format!("frame {k} bin {i} is not complex"))?;
            if (got_re - re).abs() > 1e-9 || (got_im - im).abs() > 1e-9 {
                return Err(format!(
                    "frame {k} bin {i}: ({got_re}, {got_im}), DFT gives ({re}, {im})"
                ));
            }
        }
    }
    Ok(())
}

/// A served reply equals a direct simulation of the same request.
pub fn run_equals(reply: &SimRun, direct: &SimRun) -> Check {
    if reply.observables != direct.observables {
        return Err("observables differ from a direct run".to_owned());
    }
    if reply.records != direct.records {
        return Err("records differ from a direct run".to_owned());
    }
    if reply.stats != direct.stats {
        return Err(format!(
            "stats {:?} vs direct {:?}",
            reply.stats, direct.stats
        ));
    }
    if reply.gantt != direct.gantt {
        return Err("Gantt chart differs from a direct run".to_owned());
    }
    Ok(())
}

/// Serve-layer totals reached by independent paths.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeTotals {
    pub sent: u64,
    pub replies: u64,
    pub tenant_completed: u64,
    pub lookups: u64,
    pub artifact_hits: u64,
    pub artifact_misses: u64,
    pub distinct_networks: u64,
    pub reply_deadline_misses: u64,
    pub tenant_deadline_misses: u64,
}

pub fn serve_totals_agree(t: &ServeTotals) -> Check {
    let mut bad = Vec::new();
    if !(t.replies == t.sent && t.sent == t.tenant_completed) {
        bad.push(format!(
            "replies {} / sent {} / tenant completed {}",
            t.replies, t.sent, t.tenant_completed
        ));
    }
    if t.lookups != t.artifact_hits + t.artifact_misses {
        bad.push(format!(
            "{} lookups but {} hits + {} misses",
            t.lookups, t.artifact_hits, t.artifact_misses
        ));
    }
    if t.artifact_misses != t.distinct_networks {
        bad.push(format!(
            "{} misses for {} networks",
            t.artifact_misses, t.distinct_networks
        ));
    }
    if t.reply_deadline_misses != t.tenant_deadline_misses {
        bad.push(format!(
            "replies report {} deadline misses, tenants {}",
            t.reply_deadline_misses, t.tenant_deadline_misses
        ));
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}

/// The run's records replayed in order through `ExecState::run_job`: the
/// behaviors of the run, apart from the simulator.
pub fn replay_behaviors(
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    records: &[JobRecord],
) -> Result<Observables, ExecError> {
    let mut behaviors = bank.instantiate();
    let mut state = ExecState::new(net, stimuli);
    for r in records.iter().filter(|r| !r.skipped) {
        state.run_job(&mut behaviors, r.process, r.global_k, r.invoked_at)?;
    }
    Ok(state.into_observables())
}

/// Every check of one simulated run: the zero-delay reference over the
/// same horizon, round completeness, processor exclusivity, invocation
/// and precedence, WCET durations and the statistics recount.
#[allow(clippy::too_many_arguments)]
pub fn check_run(
    checks: &mut Checks,
    label: &str,
    net: &Fppn,
    bank: &BehaviorBank,
    stimuli: &Stimuli,
    derived: &DerivedTaskGraph,
    frames: u64,
    run: &SimRun,
) {
    let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
    let mut behaviors = bank.instantiate();
    match run_zero_delay(
        net,
        &mut behaviors,
        stimuli,
        horizon,
        JobOrdering::default(),
    ) {
        Ok(reference) => {
            checks.record(
                &format!("{label}: observables = zero-delay reference"),
                observables_match(&run.observables, &reference.observables),
            );
            checks.record(
                &format!("{label}: executed = reference invocations"),
                executed_matches_reference(&run.records, reference.executed.len()),
            );
        }
        Err(e) => checks.record(
            &format!("{label}: zero-delay reference"),
            Err(e.to_string()),
        ),
    }
    let graph = &derived.graph;
    checks.record(
        &format!("{label}: rounds complete"),
        rounds_complete(&run.records, graph.job_count(), frames),
    );
    checks.record(
        &format!("{label}: rounds disjoint per processor"),
        rounds_disjoint(&run.records),
    );
    checks.record(
        &format!("{label}: rounds after invocation and predecessors"),
        rounds_respect_precedence(&run.records, graph),
    );
    checks.record(
        &format!("{label}: rounds last their WCET"),
        rounds_last_wcet(&run.records, graph),
    );
    checks.record(
        &format!("{label}: stats = recount"),
        stats_match_recount(&run.records, &run.stats),
    );
}

/// One line of the simulated statistics a speed-only change must leave
/// identical.
pub fn stats_line(label: &str, run: &SimRun) -> String {
    format!(
        "stats {label}: rounds={} executed={} skipped={} deadline_misses={} makespan_ms={}",
        run.records.len(),
        run.stats.executed,
        run.stats.skipped,
        run.stats.deadline_misses,
        run.stats.makespan
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_apps::{fft_network, fft_wcet, fms_network, fms_wcet, FmsVariant};
    use fppn_sched::Placement;
    use fppn_sim::{CompileConfig, CompiledNetwork, SimConfig};
    use fppn_taskgraph::derive_task_graph_unreduced;

    const FRAMES: u64 = 4;

    struct Fixture {
        net: Fppn,
        bank: BehaviorBank,
        artifact: CompiledNetwork,
        stimuli: Stimuli,
        run: SimRun,
        frames: Vec<[f64; 4]>,
        consumer: ProcessId,
    }

    fn fft_fixture() -> Fixture {
        let (net, bank, ids) = fft_network();
        let artifact =
            CompiledNetwork::compile(net.clone(), &CompileConfig::new(fft_wcet(), 4)).unwrap();
        let frames = gen::fft_frames(FRAMES, 3, 0);
        let stimuli = gen::fft_stimuli(ids.generator, &frames);
        let config = SimConfig {
            frames: FRAMES,
            ..SimConfig::default()
        };
        let run = artifact.simulate(&bank, &stimuli, &config).unwrap();
        Fixture {
            net,
            bank,
            artifact,
            stimuli,
            run,
            frames,
            consumer: ids.consumer,
        }
    }

    fn all_checks(f: &Fixture, run: &SimRun) -> Checks {
        let mut checks = Checks::default();
        check_run(
            &mut checks,
            "t",
            &f.net,
            &f.bank,
            &f.stimuli,
            f.artifact.derived(),
            FRAMES,
            run,
        );
        checks
    }

    fn clone_run(run: &SimRun) -> SimRun {
        SimRun {
            observables: run.observables.clone(),
            gantt: run.gantt.clone(),
            records: run.records.clone(),
            stats: run.stats.clone(),
        }
    }

    /// An executed record with a same-frame predecessor.
    fn record_with_pred(f: &Fixture) -> usize {
        let graph = &f.artifact.derived().graph;
        f.run
            .records
            .iter()
            .position(|r| !r.skipped && graph.predecessors(r.job).count() > 0)
            .unwrap()
    }

    #[test]
    fn a_correct_run_passes_every_check() {
        let f = fft_fixture();
        let checks = all_checks(&f, &f.run);
        assert!(checks.ok(), "{:?}", checks.failures);
        assert!(spectra_match(output_of(&f.run.observables, f.consumer), &f.frames).is_ok());
        assert!(run_equals(&f.run, &clone_run(&f.run)).is_ok());
    }

    #[test]
    fn a_dropped_observable_value_fails() {
        let f = fft_fixture();
        let mut run = clone_run(&f.run);
        run.observables.channels[0].pop();
        assert!(observables_match(&run.observables, &f.run.observables).is_err());
        assert!(!all_checks(&f, &run).ok());
    }

    #[test]
    fn an_executed_count_off_by_one_fails() {
        let f = fft_fixture();
        let executed = f.run.stats.executed;
        assert!(executed_matches_reference(&f.run.records, executed).is_ok());
        assert!(executed_matches_reference(&f.run.records, executed + 1).is_err());
    }

    #[test]
    fn a_duplicated_or_missing_round_fails() {
        let f = fft_fixture();
        let n = f.artifact.derived().graph.job_count();
        let mut records = f.run.records.clone();
        let last = records.pop().unwrap();
        assert!(rounds_complete(&records, n, FRAMES).is_err());
        records.push(records[0]);
        assert!(rounds_complete(&records, n, FRAMES).is_err());
        records.pop();
        records.push(last);
        assert!(rounds_complete(&records, n, FRAMES).is_ok());
    }

    #[test]
    fn a_moved_record_fails() {
        let f = fft_fixture();
        let graph = &f.artifact.derived().graph;
        let i = record_with_pred(&f);
        // Start the round one millisecond before its predecessors finish.
        let mut run = clone_run(&f.run);
        let r = &mut run.records[i];
        let shift = TimeQ::from_ms(1);
        r.start -= shift;
        r.completion -= shift;
        assert!(rounds_respect_precedence(&run.records, graph).is_err());
        assert!(!all_checks(&f, &run).ok());
        // Start it before its invocation.
        let mut records = f.run.records.clone();
        records[i].invoked_at = records[i].start + shift;
        assert!(rounds_respect_precedence(&records, graph).is_err());
    }

    #[test]
    fn overlapping_rounds_fail() {
        let f = fft_fixture();
        let mut records = f.run.records.clone();
        let (a, b) = {
            let first = records.iter().position(|r| !r.skipped).unwrap();
            let m = records[first].processor;
            let second = records
                .iter()
                .enumerate()
                .position(|(i, r)| i != first && !r.skipped && r.processor == m)
                .unwrap();
            (first, second)
        };
        records[b].start = records[a].start;
        records[b].completion = records[a].completion;
        assert!(rounds_disjoint(&records).is_err());
    }

    #[test]
    fn a_round_longer_than_its_wcet_fails() {
        let f = fft_fixture();
        let mut records = f.run.records.clone();
        records[0].completion += TimeQ::from_ms(1);
        assert!(rounds_last_wcet(&records, &f.artifact.derived().graph).is_err());
    }

    #[test]
    fn stats_off_by_one_fail() {
        let f = fft_fixture();
        for field in 0..4 {
            let mut stats = f.run.stats.clone();
            match field {
                0 => stats.executed += 1,
                1 => stats.skipped += 1,
                2 => stats.deadline_misses += 1,
                _ => stats.makespan += TimeQ::from_ms(1),
            }
            assert!(
                stats_match_recount(&f.run.records, &stats).is_err(),
                "field {field}"
            );
        }
    }

    #[test]
    fn a_wrong_spectrum_bin_fails() {
        let f = fft_fixture();
        let mut obs = f.run.observables.clone();
        let out = obs
            .outputs
            .iter_mut()
            .find(|(key, _)| key.0 == f.consumer)
            .map(|(_, v)| v)
            .unwrap();
        if let Value::List(bins) = &mut out[1].1 {
            bins[2] = Value::complex(0.25, 0.0);
        }
        assert!(spectra_match(output_of(&obs, f.consumer), &f.frames).is_err());
        let mut short = f.frames.clone();
        short.pop();
        assert!(spectra_match(output_of(&f.run.observables, f.consumer), &short).is_err());
    }

    #[test]
    fn a_reply_unlike_the_direct_run_fails() {
        let f = fft_fixture();
        let mut reply = clone_run(&f.run);
        reply.records[3].processor ^= 1;
        assert!(run_equals(&reply, &f.run).is_err());
        let mut reply = clone_run(&f.run);
        reply.stats.executed -= 1;
        assert!(run_equals(&reply, &f.run).is_err());
    }

    #[test]
    fn a_replay_reproduces_the_run_and_a_truncated_one_does_not() {
        let f = fft_fixture();
        let obs = replay_behaviors(&f.net, &f.bank, &f.stimuli, &f.run.records).unwrap();
        assert!(observables_match(&obs, &f.run.observables).is_ok());
        let short = &f.run.records[..f.run.records.len() - 1];
        let obs = replay_behaviors(&f.net, &f.bank, &f.stimuli, short).unwrap();
        assert!(observables_match(&obs, &f.run.observables).is_err());
    }

    #[test]
    fn an_overfull_arrival_window_fails() {
        let ms = TimeQ::from_ms;
        let ok = [ms(0), ms(0), ms(200), ms(250), ms(400)];
        assert!(arrivals_respect_window(&ok, 2, ms(200)).is_ok());
        let crowded = [ms(0), ms(0), ms(199)];
        assert!(arrivals_respect_window(&crowded, 2, ms(200)).is_err());
        assert!(arrivals_respect_window(&[ms(5), ms(1)], 2, ms(200)).is_err());
    }

    #[test]
    fn an_invalid_schedule_fails() {
        let f = fft_fixture();
        let graph = &f.artifact.derived().graph;
        let schedule = f.artifact.schedule();
        assert!(schedule_valid(graph, schedule).is_ok());
        let (a, b) = graph.edges().next().unwrap();
        let mut placements: Vec<Placement> = schedule.placements().to_vec();
        placements[b.index()].start = placements[a.index()].start;
        let broken = StaticSchedule::new(placements, schedule.processors(), schedule.hyperperiod());
        assert!(schedule_valid(graph, &broken).is_err());
        // Everything on one processor at time 0 overlaps.
        let stacked = (0..graph.job_count())
            .map(|i| Placement {
                job: JobId::from_index(i),
                processor: 0,
                start: TimeQ::ZERO,
            })
            .collect();
        let stacked = StaticSchedule::new(stacked, 1, schedule.hyperperiod());
        assert!(schedule_valid(graph, &stacked).is_err());
    }

    #[test]
    fn census_reduction_and_reachability_catch_changed_graphs() {
        let (net, _, ids) = fms_network(FmsVariant::Reduced);
        let wcet = fms_wcet(&ids);
        let derived = fppn_taskgraph::derive_task_graph(&net, &wcet).unwrap();
        assert_eq!(derived.graph.job_count(), 812);
        assert!(census_matches(&net, &derived).is_ok());
        assert!(reduction_is_minimal(&derived.graph).is_ok());
        let unreduced = derive_task_graph_unreduced(&net, &wcet).unwrap();
        assert!(same_reachability(&derived.graph, &unreduced.graph).is_ok());

        // One job fewer breaks the census.
        let mut short = derived.clone();
        let jobs = &derived.graph.jobs()[..derived.graph.job_count() - 1];
        short.graph = TaskGraph::new(jobs.to_vec(), derived.hyperperiod);
        assert!(census_matches(&net, &short).is_err());

        // A transitive edge is redundant; a removed edge changes
        // reachability.
        let (a, b) = derived.graph.edges().next().unwrap();
        let c = derived.graph.successors(b).next().unwrap();
        let mut redundant = derived.graph.clone();
        redundant.add_edge(a, c);
        assert!(reduction_is_minimal(&redundant).is_err());
        let mut cut = derived.graph.clone();
        cut.remove_edge(a, b);
        assert!(same_reachability(&cut, &unreduced.graph).is_err());
    }

    #[test]
    fn serve_totals_off_by_one_fail() {
        let good = ServeTotals {
            sent: 10,
            replies: 10,
            tenant_completed: 10,
            lookups: 10,
            artifact_hits: 7,
            artifact_misses: 3,
            distinct_networks: 3,
            reply_deadline_misses: 2,
            tenant_deadline_misses: 2,
        };
        assert!(serve_totals_agree(&good).is_ok());
        let bumps: [fn(&mut ServeTotals); 9] = [
            |t| t.sent += 1,
            |t| t.replies += 1,
            |t| t.tenant_completed += 1,
            |t| t.lookups += 1,
            |t| t.artifact_hits += 1,
            |t| t.artifact_misses += 1,
            |t| t.distinct_networks += 1,
            |t| t.reply_deadline_misses += 1,
            |t| t.tenant_deadline_misses += 1,
        ];
        for (i, bump) in bumps.iter().enumerate() {
            let mut t = good.clone();
            bump(&mut t);
            assert!(serve_totals_agree(&t).is_err(), "field {i}");
        }
    }
}
