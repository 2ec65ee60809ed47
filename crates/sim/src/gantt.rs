//! Gantt charts of simulated executions (Fig. 6's presentation): one busy
//! interval per executed job or frame overhead, on its processor row; and
//! [`render`], which builds a finished run's chart and statistics from its
//! canonically ordered records.

use std::fmt;

use fppn_core::Observables;
use fppn_time::TimeQ;

use crate::overhead::OverheadModel;
use crate::policy::{JobRecord, SimRun, SimStats};

/// What a Gantt segment represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// An application job executing.
    Job,
    /// Runtime frame-management overhead (on the runtime processor).
    Overhead,
}

/// One busy interval on one processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Processor row (application processors first; the runtime overhead
    /// row, if any, comes last).
    pub processor: usize,
    /// Segment start (absolute simulation time).
    pub start: TimeQ,
    /// Segment end.
    pub end: TimeQ,
    /// Job or overhead.
    pub kind: SegmentKind,
}

/// A multi-processor execution timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Gantt {
    segments: Vec<Segment>,
    processors: usize,
}

impl Gantt {
    /// An empty chart over `processors` rows.
    pub fn new(processors: usize) -> Self {
        Gantt {
            segments: Vec::new(),
            processors,
        }
    }

    /// Appends a segment.
    ///
    /// # Panics
    ///
    /// Panics if the processor row is out of range or `end < start`.
    pub fn push(&mut self, segment: Segment) {
        assert!(segment.processor < self.processors, "row out of range");
        assert!(segment.end >= segment.start, "segment ends before it starts");
        self.segments.push(segment);
    }

    /// All segments in insertion order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The number of processor rows.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Segments of one processor, sorted by start.
    pub fn row(&self, processor: usize) -> Vec<&Segment> {
        let mut v: Vec<&Segment> = self
            .segments
            .iter()
            .filter(|s| s.processor == processor)
            .collect();
        v.sort_by_key(|s| s.start);
        v
    }

    /// Renders an ASCII chart: `width` character columns spanning
    /// `[0, horizon]`.
    pub fn render_ascii(&self, horizon: TimeQ, width: usize) -> String {
        let mut out = String::new();
        if horizon.is_zero() || width == 0 {
            return out;
        }
        let col_of = |t: TimeQ| -> usize {
            let frac = t / horizon;
            let c = (frac * TimeQ::from_int(width as i64)).floor();
            (c.max(0) as usize).min(width)
        };
        for m in 0..self.processors {
            let mut line = vec![b'.'; width];
            for seg in self.row(m) {
                let (a, b) = (col_of(seg.start), col_of(seg.end));
                let glyph = match seg.kind {
                    SegmentKind::Job => b'#',
                    SegmentKind::Overhead => b'%',
                };
                for cell in line.iter_mut().take(b.max(a + 1).min(width)).skip(a) {
                    *cell = glyph;
                }
            }
            out.push_str(&format!("M{m} |"));
            out.push_str(std::str::from_utf8(&line).expect("ascii"));
            out.push_str("|\n");
        }
        out
    }
}

impl fmt::Display for Gantt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let horizon = self
            .segments
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(TimeQ::ZERO);
        write!(f, "{}", self.render_ascii(horizon, 80))
    }
}

/// Renders the [`SimRun`] of `frames` frames of hyperperiod `h` on
/// `processors` processors from canonically-ordered records (with
/// `global_k` assigned) and already-computed observables: the Gantt, then
/// the aggregate statistics.
pub(crate) fn render(
    records: Vec<JobRecord>,
    observables: Observables,
    processors: usize,
    overhead: OverheadModel,
    frames: u64,
    h: TimeQ,
) -> SimRun {
    // Gantt: application rows + a runtime row when overhead is modeled.
    let overhead_row = (!overhead.is_none()) as usize;
    let mut gantt = Gantt::new(processors + overhead_row);
    for rec in &records {
        if rec.skipped {
            continue;
        }
        gantt.push(Segment {
            processor: rec.processor,
            start: rec.start,
            end: rec.completion,
            kind: SegmentKind::Job,
        });
    }
    if overhead_row == 1 {
        for f in 0..frames {
            let base = TimeQ::from_int(f as i64) * h;
            gantt.push(Segment {
                processor: processors,
                start: base,
                end: base + overhead.frame_overhead(f),
                kind: SegmentKind::Overhead,
            });
        }
    }

    let mut stats = SimStats::default();
    for rec in &records {
        if rec.skipped {
            stats.skipped += 1;
            continue;
        }
        stats.executed += 1;
        stats.makespan = stats.makespan.max(rec.completion);
        if rec.missed {
            stats.deadline_misses += 1;
            stats.max_lateness = stats.max_lateness.max(rec.completion - rec.deadline);
        }
    }

    SimRun {
        observables,
        gantt,
        records,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(m: usize, s: i64, e: i64, kind: SegmentKind) -> Segment {
        Segment {
            processor: m,
            start: TimeQ::from_ms(s),
            end: TimeQ::from_ms(e),
            kind,
        }
    }

    #[test]
    fn rows_sorted_by_start() {
        let mut g = Gantt::new(2);
        g.push(seg(0, 50, 60, SegmentKind::Job));
        g.push(seg(0, 0, 10, SegmentKind::Job));
        g.push(seg(1, 5, 15, SegmentKind::Overhead));
        let row0 = g.row(0);
        assert_eq!(row0.len(), 2);
        assert!(row0[0].start < row0[1].start);
        assert_eq!(g.row(1).len(), 1);
    }

    #[test]
    fn ascii_render_marks_busy_cells() {
        let mut g = Gantt::new(1);
        g.push(seg(0, 0, 50, SegmentKind::Job));
        let art = g.render_ascii(TimeQ::from_ms(100), 10);
        assert!(art.starts_with("M0 |#####"));
        assert!(art.contains('.'));
    }

    #[test]
    #[should_panic(expected = "row out of range")]
    fn bad_row_panics() {
        let mut g = Gantt::new(1);
        g.push(seg(1, 0, 1, SegmentKind::Job));
    }
}
