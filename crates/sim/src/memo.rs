//! The frame memo: the last computed frame, keyed by its exact inputs.
//! Under the `Wcet` execution-time model the round loop replays a frame
//! whose inputs match it, shifted by whole hyperperiods, instead of
//! computing the frame (see [`FrameMemo`]).

use fppn_taskgraph::JobId;
use fppn_time::TimeQ;

use crate::policy::JobRecord;

/// Consecutive misses after which the frame memo disengages for the rest
/// of the run. Periodic FMS settles after two misses (frame 1 seeds every
/// later hit), so this leaves room for a longer transient, while a run
/// whose frames never repeat pays for at most this many lookups and
/// inserts.
pub const MEMO_MISS_BUDGET: u64 = 4;

/// The last memoized frame, keyed by its **exact** inputs; each memoized
/// miss overwrites it.
///
/// A frame's round table is built from `max` and `+` over its inputs, so it
/// is translation-equivariant: shift every input time by `Δ` and every
/// output time shifts by `Δ`. Under `Wcet` the execution times and every
/// periodic slot are frame-invariant relative to the frame base, so two
/// frames whose remaining inputs agree relative to their own bases produce
/// round tables that are exact `+k·H` translates. Those inputs are the key:
///
/// * the carry-in, stored in the entry: per-processor availability and the
///   previous frame's wrap-predecessor completions, relative to the base;
/// * the server-slot resolutions and the release gate, compared against
///   the source frame's slabs by the round engine's `same_frame_inputs`.
///
/// The entry keeps the availability its frame left and its
/// wrap-predecessor completions, both absolute. Its records need no copy:
/// every frame appends exactly `n_jobs` records, so the source frame's
/// block is `records[src * n_jobs..]` of the run being computed. Replay
/// shifts all of it by `base − src_base`. The memo is reset at the start
/// of every compute (entry forgotten, buffers kept), so nothing leaks
/// across runs and the steady-state hit and insert paths allocate nothing.
/// A lookup rejects the entry at its first differing word.
#[derive(Debug, Default)]
pub(crate) struct FrameMemo {
    /// The last memoized frame; meaningful only while `filled`.
    entry: MemoEntry,
    filled: bool,
    /// The current frame's carry-in, relative to its base.
    pub(crate) carry_in: Vec<TimeQ>,
    /// Whether the memo still looks up and inserts in this compute.
    pub(crate) engaged: bool,
    /// Whether the blocks computed so far are sorted into the canonical
    /// per-frame order. Set by the first hit, so a run that never replays
    /// never pays for a sort.
    pub(crate) sorted: bool,
    /// Consecutive misses; the memo disengages at [`MEMO_MISS_BUDGET`].
    streak: u64,
    pub(crate) hits: u64,
    pub(crate) misses: u64,
}

/// One memoized frame: its key's carry-in half, and what replaying it
/// needs besides its block of records.
#[derive(Debug, Default)]
struct MemoEntry {
    src_frame: usize,
    src_base: TimeQ,
    carry_in: Vec<TimeQ>,
    avail_out: Vec<TimeQ>,
    /// The frame's completions at the wrap-predecessor jobs: the only
    /// completion slots a later frame reads (its carry-in and its wrap
    /// waits), so a replay fills just these.
    wrap_out: Vec<(u32, TimeQ)>,
}

impl FrameMemo {
    /// Forgets the entry, keeping all buffer capacity and the cumulative
    /// counters. `engage` says whether this compute may replay at all.
    pub(crate) fn reset(&mut self, engage: bool) {
        self.filled = false;
        self.streak = 0;
        self.engaged = engage;
        self.sorted = false;
    }

    /// Whether the entry's carry-in equals `self.carry_in` and
    /// `same_inputs` accepts its source frame and base, counting the hit or
    /// miss. The miss that completes [`MEMO_MISS_BUDGET`] consecutive
    /// misses disengages the memo.
    pub(crate) fn lookup(&mut self, same_inputs: impl Fn(usize, TimeQ) -> bool) -> bool {
        let e = &self.entry;
        let found =
            self.filled && e.carry_in == self.carry_in && same_inputs(e.src_frame, e.src_base);
        if found {
            self.hits += 1;
            self.streak = 0;
        } else {
            self.misses += 1;
            self.streak += 1;
            self.engaged = self.streak < MEMO_MISS_BUDGET;
        }
        found
    }

    /// Memoizes one computed frame under the current carry-in, overwriting
    /// the entry. Every copy is `clear` + `extend` into retained buffers:
    /// allocation-free once they have warmed up.
    pub(crate) fn insert(
        &mut self,
        src_frame: usize,
        src_base: TimeQ,
        avail: &[TimeQ],
        wrap_preds: &[JobId],
        frame_completion: &[Option<TimeQ>],
    ) {
        self.filled = true;
        let entry = &mut self.entry;
        entry.src_frame = src_frame;
        entry.src_base = src_base;
        entry.carry_in.clear();
        entry.carry_in.extend_from_slice(&self.carry_in);
        entry.avail_out.clear();
        entry.avail_out.extend_from_slice(avail);
        entry.wrap_out.clear();
        entry.wrap_out.extend(wrap_preds.iter().map(|p| {
            let done = frame_completion[p.index()].expect("memoized frames are complete");
            (p.index() as u32, done)
        }));
    }

    /// Replays the entry as frame `frame` at `base`: appends the source
    /// frame's block of `n_jobs` records, and sets the wrap-predecessor
    /// completions and processor availability it left, all shifted by the
    /// hyperperiods between the two frames.
    pub(crate) fn replay(
        &self,
        frame: u64,
        base: TimeQ,
        n_jobs: usize,
        records: &mut Vec<JobRecord>,
        completion: &mut [Option<TimeQ>],
        proc_avail: &mut [TimeQ],
    ) {
        let entry = &self.entry;
        let f = frame as usize;
        let delta = base - entry.src_base;
        // One fused copy+shift pass over the source block.
        for i in entry.src_frame * n_jobs..(entry.src_frame + 1) * n_jobs {
            let rec = records[i];
            records.push(JobRecord {
                frame,
                invoked_at: rec.invoked_at + delta,
                start: rec.start + delta,
                completion: rec.completion + delta,
                deadline: rec.deadline + delta,
                ..rec
            });
        }
        for &(j, done) in &entry.wrap_out {
            completion[f * n_jobs + j as usize] = Some(done + delta);
        }
        for (avail, &src) in proc_avail.iter_mut().zip(&entry.avail_out) {
            *avail = src + delta;
        }
    }
}
