//! The canonical record order `(completion, frame, topological position)`:
//! a total order on a run's rounds, since the topological position is
//! unique per job within a frame. A run's result is therefore independent
//! of the order in which a round loop produced its records (computed,
//! replayed, or the oracle's) — the keystone of the bit-identity contract.
//! The whole-run sort, the memo's block sort and the `global_k` numbering
//! all order by [`key`], written once.

use fppn_time::TimeQ;

use crate::policy::JobRecord;

/// A record's canonical key. `topo_pos` is the compile-phase table of each
/// job's topological position.
fn key(topo_pos: &[usize], r: &JobRecord) -> (TimeQ, u64, u32) {
    (r.completion, r.frame, topo_pos[r.job.index()] as u32)
}

/// Sorts one frame's block into the canonical per-frame order: the frame
/// is common to the block, so this is `(completion, topological
/// position)`. Allocation-free, so the round loop may call it.
pub(crate) fn sort_block(topo_pos: &[usize], block: &mut [JobRecord]) {
    block.sort_unstable_by_key(|r| key(topo_pos, r));
}

/// Sorts `records` into the canonical total order and assigns each
/// executed round its global invocation count, a pure function of that
/// order. `process_count` bounds the records' process indices.
pub(crate) fn canonicalize(topo_pos: &[usize], process_count: usize, records: &mut [JobRecord]) {
    // Sorted fast path: while the memo is engaged the round loop emits
    // each frame block pre-sorted, so a replayed run on a schedulable
    // workload (no frame overruns its hyperperiod) is already canonical
    // and one linear scan replaces the sort + permutation entirely.
    if !records
        .windows(2)
        .all(|w| key(topo_pos, &w[0]) <= key(topo_pos, &w[1]))
    {
        // Decorate-sort-permute with an *unstable* sort: the canonical
        // key is already a total order (the topological position is
        // unique per job within a frame), so stability buys nothing and
        // pdqsort over compact `(key, index)` pairs avoids the stable
        // sort's merge scratch. The trailing index is a tie-breaker in
        // theory only.
        let mut keyed: Vec<(TimeQ, u64, u32, u32)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let (completion, frame, topo) = key(topo_pos, r);
                (completion, frame, topo, i as u32)
            })
            .collect();
        keyed.sort_unstable();
        for i in 0..keyed.len() {
            let mut index = keyed[i].3 as usize;
            while index < i {
                index = keyed[index].3 as usize;
            }
            keyed[i].3 = index as u32;
            records.swap(i, index);
        }
    }

    // Global invocation counts are a pure function of the canonical
    // order, assigned before any behavior runs.
    let mut counts = vec![0u64; process_count];
    for rec in records.iter_mut() {
        if rec.skipped {
            continue;
        }
        let c = &mut counts[rec.process.index()];
        *c += 1;
        rec.global_k = *c;
    }
}

/// An oracle for the canonical order that shares no code with it: the
/// records of real runs, shuffled, must come back in the order of a naive
/// stable sort by the spelled-out key, with the same `global_k`. The
/// differential suites cannot catch a fault here that orders every run the
/// same wrong way, since both of the runs they compare go through
/// [`canonicalize`].
#[cfg(test)]
mod tests {
    use super::*;
    use fppn_apps::{fft_network, fft_wcet, fms_network, fms_wcet, FmsVariant};
    use fppn_core::Stimuli;
    use fppn_sched::{list_schedule, Heuristic};
    use fppn_taskgraph::derive_task_graph;

    use crate::stimgen::splitmix64;
    use crate::{simulate, OverheadModel, SimConfig, StaticTables};

    /// The records of one real run, as the simulator returned them, with
    /// the topological positions and process count they are ordered by.
    struct RealRun {
        label: &'static str,
        records: Vec<JobRecord>,
        topo_pos: Vec<usize>,
        process_count: usize,
        hyperperiod: TimeQ,
    }

    /// Two runs that stress the key:
    ///
    /// * Fig. 6's FFT on one processor with the MPPA overhead: frames
    ///   overrun their hyperperiod, so a frame's records complete inside
    ///   the next frame's window;
    /// * FMS on four processors with its configurators idle: every server
    ///   slot is false and resolves at its window close, so false slots
    ///   on different processors complete at equal times in one frame.
    fn real_runs() -> Vec<RealRun> {
        let (fft, fft_bank, _) = fft_network();
        let (fms, fms_bank, ids) = fms_network(FmsVariant::Original);
        [
            (
                "fft-1proc-overhead",
                fft,
                fft_bank,
                fft_wcet(),
                1,
                6,
                OverheadModel::mppa_fft(),
            ),
            (
                "fms-idle",
                fms,
                fms_bank,
                fms_wcet(&ids),
                4,
                2,
                OverheadModel::NONE,
            ),
        ]
        .into_iter()
        .map(|(label, net, bank, wcet, m, frames, overhead)| {
            let derived = derive_task_graph(&net, &wcet).expect("derivable");
            let schedule = list_schedule(&derived.graph, m, Heuristic::AlapEdf);
            let config = SimConfig {
                frames,
                overhead,
                ..SimConfig::default()
            };
            let run = simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config)
                .expect("simulates");
            RealRun {
                label,
                records: run.records,
                topo_pos: StaticTables::build(&net, &derived, &schedule).topo_pos,
                process_count: net.process_count(),
                hyperperiod: derived.hyperperiod,
            }
        })
        .collect()
    }

    /// Fisher–Yates over a SplitMix64 stream.
    fn shuffle<T>(items: &mut [T], seed: u64) {
        let mut state = seed;
        for i in (1..items.len()).rev() {
            state = splitmix64(state);
            items.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }

    /// The naive reference: a stable sort by the spelled-out key, then
    /// per-process counts over the executed records.
    fn naive_canonical(
        topo_pos: &[usize],
        process_count: usize,
        records: &[JobRecord],
    ) -> Vec<JobRecord> {
        let mut out = records.to_vec();
        out.sort_by_key(|r| (r.completion, r.frame, topo_pos[r.job.index()]));
        let mut counts = vec![0u64; process_count];
        for r in &mut out {
            r.global_k = 0;
            if !r.skipped {
                counts[r.process.index()] += 1;
                r.global_k = counts[r.process.index()];
            }
        }
        out
    }

    #[test]
    fn canonical_order_matches_a_naive_sort_of_shuffled_real_records() {
        let (mut overrun, mut tied_false_slots) = (false, false);
        for run in real_runs() {
            let label = run.label;
            let (topo_pos, process_count) = (&run.topo_pos, run.process_count);
            // A frame completes past its hyperperiod; false slots of one
            // frame complete together on two processors.
            overrun |= run
                .records
                .iter()
                .any(|r| r.completion > TimeQ::from_int(r.frame as i64 + 1) * run.hyperperiod);
            tied_false_slots |= run.records.windows(2).any(|w| {
                w[0].skipped
                    && w[1].skipped
                    && (w[0].completion, w[0].frame) == (w[1].completion, w[1].frame)
                    && w[0].processor != w[1].processor
            });

            // The whole-run order and the `global_k` numbering.
            let expected = naive_canonical(topo_pos, process_count, &run.records);
            assert!(expected == run.records, "{label}: the run's own order");
            for seed in 0..3u64 {
                let mut records = run.records.clone();
                shuffle(&mut records, seed);
                for r in &mut records {
                    r.global_k = 0;
                }
                canonicalize(topo_pos, process_count, &mut records);
                assert!(records == expected, "{label}: shuffle {seed}");
            }

            // The memo's block sort, frame by frame.
            let frames = run
                .records
                .iter()
                .map(|r| r.frame)
                .max()
                .map_or(0, |f| f + 1);
            for frame in 0..frames {
                let mut block: Vec<JobRecord> = run
                    .records
                    .iter()
                    .copied()
                    .filter(|r| r.frame == frame)
                    .collect();
                let mut expected = block.clone();
                expected.sort_by_key(|r| (r.completion, topo_pos[r.job.index()]));
                shuffle(&mut block, frame);
                sort_block(topo_pos, &mut block);
                assert!(block == expected, "{label}: block of frame {frame}");
            }
        }
        assert!(overrun, "no run overruns a frame");
        assert!(
            tied_false_slots,
            "no run reaches the topological tie-breaker"
        );
    }
}
