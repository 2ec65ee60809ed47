//! Slot binding: the run-time resolution of task-graph job instances
//! across frames.
//!
//! The static task graph covers one hyperperiod; at run time the frame is
//! repeated, and every *server* job slot must be matched against the real
//! sporadic arrivals of its window — or marked **false** (§IV).
//! [`SlotTemplates::bind`] is the one routine that validates a run's
//! stimuli and binds them to slots, for every executor: the simulator
//! (`fppn-sim`) streams the bound slots into its round tables, and the
//! threaded runtime and the timed-automata translation look them up.

use std::collections::{BTreeMap, TryReserveError};
use std::error::Error;
use std::fmt;

use fppn_core::{Fppn, NetworkError, ProcessId, Stimuli};
use fppn_time::TimeQ;

use crate::derive::DerivedTaskGraph;
use crate::job::JobId;

/// The resolved identity of one job instance (one frame × one graph job).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotResolution {
    /// When the instance was invoked: `f·H + A_i` for periodic jobs, the
    /// matching event arrival for executable sporadic slots, the window
    /// close for false slots.
    pub invoked_at: TimeQ,
    /// Whether the instance executes (false = skipped server slot).
    pub executable: bool,
    /// Absolute (untruncated) deadline: invocation + the process's own
    /// relative deadline; for false slots, the resolution time.
    pub deadline: TimeQ,
}

/// Why [`SlotTemplates::bind`] refused a run's stimuli or frame count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// The stimuli are inconsistent with the network, e.g. a sporadic
    /// trace that breaks its `(m, T)` constraint.
    Stimuli(NetworkError),
    /// A table of `frames × jobs` slots cannot be held: the count
    /// overflows `usize`, or the allocator refuses a reservation.
    FrameCount {
        /// The requested frame count.
        frames: u64,
        /// Jobs per frame.
        jobs: usize,
        /// Why the table cannot be held.
        reason: String,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::Stimuli(e) => write!(f, "invalid stimuli: {e}"),
            BindError::FrameCount {
                frames,
                jobs,
                reason,
            } => write!(f, "{frames} frames of {jobs} jobs: {reason}"),
        }
    }
}

impl Error for BindError {}

/// The stimuli-*independent* half of slot resolution: per-job templates
/// and per-server window parameters, a pure function of the network and
/// the derived task graph.
///
/// Splitting resolution this way is what makes the compile/run boundary
/// cacheable: [`SlotTemplates::build`] runs once per compiled network,
/// while [`SlotTemplates::bind`] binds a concrete arrival trace per run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotTemplates {
    hyperperiod: TimeQ,
    servers: Vec<ServerWindow>,
    templates: Vec<Template>,
}

/// Window parameters of one server (transformed sporadic process).
#[derive(Debug, Clone, PartialEq, Eq)]
struct ServerWindow {
    pid: ProcessId,
    period: TimeQ,
    priority_over_user: bool,
    subsets_per_frame: i128,
}

/// Everything about one graph job that does not depend on the frame or the
/// stimuli, so the per-run loop is pure arithmetic (this is the hot path
/// for long multi-frame simulations).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Template {
    Periodic {
        arrival: TimeQ,
        deadline_rel: TimeQ,
    },
    Server {
        server: usize, // index into SlotTemplates::servers
        subset_in_frame: i128,
        slot: usize,
        deadline_rel: TimeQ,
    },
}

/// Sporadic arrivals of one server grouped by global subset index.
/// Subsets queried by the frame loop are dense integers in
/// `[0, frames * subsets_per_frame)`, so a flat CSR table (counting sort)
/// beats any map: the per-slot lookup becomes two array indexes with no
/// hashing or tree walk.
#[derive(Debug)]
struct ServerArrivals {
    /// `starts[s]..starts[s + 1]` is the slice of `times` for subset `s`.
    starts: Vec<u32>,
    times: Vec<TimeQ>,
}

/// The slot templates bound to one run's stimuli over `frames` frames,
/// whose `frames × jobs` slots [`SlotTemplates::bind`] checked to fit
/// `usize`: the validated arrivals, binned per server subset. Answers
/// [`BoundSlots::slot`] in O(1) and streams every slot in canonical
/// order through [`BoundSlots::for_each_slot`].
#[derive(Debug)]
pub struct BoundSlots<'a> {
    templates: &'a SlotTemplates,
    frames: u64,
    arrivals: Vec<ServerArrivals>,
}

impl SlotTemplates {
    /// Precomputes the per-job templates and server windows.
    pub fn build(net: &Fppn, derived: &DerivedTaskGraph) -> Self {
        let graph = &derived.graph;
        let h = derived.hyperperiod;

        let servers: Vec<ServerWindow> = derived
            .servers
            .iter()
            .map(|(pid, s)| ServerWindow {
                pid: *pid,
                period: s.period,
                priority_over_user: s.priority_over_user,
                subsets_per_frame: (h / s.period).floor(),
            })
            .collect();
        let server_index = |pid: ProcessId| servers.iter().position(|w| w.pid == pid);

        let templates = graph
            .job_ids()
            .map(|id| {
                let job = graph.job(id);
                let pid = job.process;
                let deadline_rel = net.process(pid).event().deadline();
                match derived.server(pid) {
                    None => Template::Periodic {
                        arrival: job.arrival,
                        deadline_rel,
                    },
                    Some(server) => Template::Server {
                        server: server_index(pid).expect("server window exists"),
                        subset_in_frame: (job.arrival / server.period).floor(),
                        slot: ((job.k - 1) % server.burst as u64) as usize,
                        deadline_rel,
                    },
                }
            })
            .collect();

        SlotTemplates {
            hyperperiod: h,
            servers,
            templates,
        }
    }

    /// The number of graph jobs covered per frame.
    pub fn job_count(&self) -> usize {
        self.templates.len()
    }

    /// Binds one run's stimuli over `frames` frames: validates the stimuli
    /// against `net`, checks that `frames × job_count` fits `usize`, and
    /// bins every sporadic arrival into its server subset.
    ///
    /// # Errors
    ///
    /// Returns [`BindError::Stimuli`] when the stimuli break the network's
    /// event specs, and [`BindError::FrameCount`] when `frames × job_count`
    /// overflows `usize` or a `frames`-sized subset table cannot be
    /// reserved: an unchecked reservation would panic on capacity overflow
    /// or abort the process.
    pub fn bind(
        &self,
        net: &Fppn,
        stimuli: &Stimuli,
        frames: u64,
    ) -> Result<BoundSlots<'_>, BindError> {
        stimuli.validate(net).map_err(BindError::Stimuli)?;
        usize::try_from(frames)
            .ok()
            .and_then(|f| f.checked_mul(self.job_count()))
            .ok_or_else(|| self.frame_count_error(frames, "overflows usize".to_owned()))?;
        let arrivals = self
            .servers
            .iter()
            .map(|w| self.bin_arrivals(w, stimuli, frames))
            .collect::<Result<_, _>>()?;
        Ok(BoundSlots {
            templates: self,
            frames,
            arrivals,
        })
    }

    fn frame_count_error(&self, frames: u64, reason: String) -> BindError {
        BindError::FrameCount {
            frames,
            jobs: self.job_count(),
            reason,
        }
    }

    /// Bins one server's sporadic arrival trace into a subset CSR table,
    /// applying the window boundary rule: the subset arriving at `b`
    /// covers `(b − T′, b]` when the sporadic process has priority over
    /// its user, `[b − T′, b)` otherwise.
    fn bin_arrivals(
        &self,
        w: &ServerWindow,
        stimuli: &Stimuli,
        frames: u64,
    ) -> Result<ServerArrivals, BindError> {
        let error = |reason: String| self.frame_count_error(frames, reason);
        let total = usize::try_from((frames as i128 * w.subsets_per_frame).max(0))
            .map_err(|_| error("subset table overflows usize".to_owned()))?;
        let subset_of = |t: TimeQ| -> Option<usize> {
            let q = t / w.period;
            let s = if w.priority_over_user {
                q.ceil()
            } else {
                q.floor() + 1
            };
            // Arrivals past the simulated horizon land in subsets the
            // frame loop never queries; drop them here.
            (0..total as i128).contains(&s).then_some(s as usize)
        };
        let mut starts = try_filled(total + 1, 0u32).map_err(|e| error(e.to_string()))?;
        for &t in stimuli.arrival_times(w.pid) {
            if let Some(s) = subset_of(t) {
                starts[s + 1] += 1;
            }
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut times = vec![TimeQ::from_int(0); starts[total] as usize];
        for &t in stimuli.arrival_times(w.pid) {
            if let Some(s) = subset_of(t) {
                times[starts[s] as usize] = t;
                starts[s] += 1;
            }
        }
        // Placing advanced every subset's start to the next one's (the last
        // entry, the total, never moved): shift them back into place.
        starts.rotate_right(1);
        starts[0] = 0;
        for s in 0..total {
            times[starts[s] as usize..starts[s + 1] as usize].sort();
        }
        Ok(ServerArrivals { starts, times })
    }
}

impl BoundSlots<'_> {
    /// The resolution of job `job` in `frame`, in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `frame` or `job` is out of range.
    pub fn slot(&self, frame: u64, job: JobId) -> SlotResolution {
        assert!(frame < self.frames, "frame {frame} out of range");
        let frame_base = TimeQ::from_int(frame as i64) * self.templates.hyperperiod;
        self.resolve(frame, frame_base, &self.templates.templates[job.index()])
    }

    /// Streams every slot resolution in canonical `(frame, job-id)` order
    /// — the simulator copies them straight into its structure-of-arrays
    /// round tables.
    pub fn for_each_slot(&self, mut f: impl FnMut(SlotResolution)) {
        for frame in 0..self.frames {
            let frame_base = TimeQ::from_int(frame as i64) * self.templates.hyperperiod;
            for tpl in &self.templates.templates {
                f(self.resolve(frame, frame_base, tpl));
            }
        }
    }

    /// A table of one `fill` per slot, indexed `frame × jobs + job` and
    /// allocated fallibly, so an executor's own per-slot table that the
    /// host cannot hold is a typed error, not a capacity-overflow panic or
    /// an allocation abort.
    ///
    /// # Errors
    ///
    /// Returns [`BindError::FrameCount`] when the allocator refuses the
    /// table.
    pub fn slot_table<T: Clone>(&self, fill: T) -> Result<Vec<T>, BindError> {
        let t = self.templates;
        try_filled(self.frames as usize * t.job_count(), fill)
            .map_err(|e| t.frame_count_error(self.frames, e.to_string()))
    }

    /// Resolves one slot against the binned arrivals.
    fn resolve(&self, frame: u64, frame_base: TimeQ, tpl: &Template) -> SlotResolution {
        match tpl {
            Template::Periodic {
                arrival,
                deadline_rel,
            } => {
                let inv = frame_base + *arrival;
                SlotResolution {
                    invoked_at: inv,
                    executable: true,
                    deadline: inv + *deadline_rel,
                }
            }
            Template::Server {
                server,
                subset_in_frame,
                slot,
                deadline_rel,
            } => {
                let w = &self.templates.servers[*server];
                let global_subset = frame as i128 * w.subsets_per_frame + subset_in_frame;
                let a = &self.arrivals[*server];
                let arrival = usize::try_from(global_subset)
                    .ok()
                    .and_then(|s| {
                        let lo = *a.starts.get(s)? as usize;
                        let hi = *a.starts.get(s + 1)? as usize;
                        a.times[lo..hi].get(*slot)
                    })
                    .copied();
                match arrival {
                    Some(t) => SlotResolution {
                        invoked_at: t,
                        executable: true,
                        deadline: t + *deadline_rel,
                    },
                    None => {
                        let close = TimeQ::from_int_i128(global_subset) * w.period;
                        SlotResolution {
                            invoked_at: close,
                            executable: false,
                            deadline: close,
                        }
                    }
                }
            }
        }
    }
}

/// `len` copies of `fill`, allocated fallibly.
fn try_filled<T: Clone>(len: usize, fill: T) -> Result<Vec<T>, TryReserveError> {
    let mut v = Vec::new();
    v.try_reserve_exact(len)?;
    v.resize(len, fill);
    Ok(v)
}

/// The cross-frame "wrap" predecessors extending the real-time-semantics
/// ordering over frame boundaries: for every pair of conflicting processes
/// `(p, q)` (same process, FP-related periodic processes, or a sporadic
/// with its user), the *last* job of `p` in frame `f` precedes the *first*
/// job of `q` in frame `f+1`.
///
/// Returns, for each job, the jobs of the **previous** frame it must wait
/// for. Only relevant under overload (a frame overrunning `H`), but
/// necessary to preserve determinism there.
pub fn wrap_predecessors(net: &Fppn, derived: &DerivedTaskGraph) -> Vec<Vec<JobId>> {
    let graph = &derived.graph;
    let mut jobs_of: BTreeMap<ProcessId, Vec<JobId>> = BTreeMap::new();
    for id in graph.job_ids() {
        jobs_of.entry(graph.job(id).process).or_default().push(id);
    }
    for list in jobs_of.values_mut() {
        list.sort_by_key(|&id| graph.job(id).k);
    }
    let related_prime = |a: ProcessId, b: ProcessId| -> bool {
        if a == b {
            return true;
        }
        match (derived.server(a), derived.server(b)) {
            (Some(sa), None) => sa.user == b,
            (None, Some(sb)) => sb.user == a,
            (Some(_), Some(_)) => false,
            (None, None) => net.related(a, b),
        }
    };
    let mut wrap: Vec<Vec<JobId>> = vec![Vec::new(); graph.job_count()];
    for (p, p_jobs) in &jobs_of {
        for (q, q_jobs) in &jobs_of {
            if related_prime(*p, *q) {
                let last_p = *p_jobs.last().expect("non-empty");
                let first_q = *q_jobs.first().expect("non-empty");
                wrap[first_q.index()].push(last_p);
            }
        }
    }
    wrap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::derive_task_graph;
    use crate::wcet::WcetModel;
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec, SporadicTrace};

    fn ms(v: i64) -> TimeQ {
        TimeQ::from_ms(v)
    }

    fn sporadic_net(cfg_priority: bool) -> (Fppn, ProcessId, ProcessId) {
        let mut b = FppnBuilder::new();
        let user = b.process(ProcessSpec::new("user", EventSpec::periodic(ms(200))));
        let cfg = b.process(ProcessSpec::new("cfg", EventSpec::sporadic(2, ms(700))));
        b.channel("c", cfg, user, ChannelKind::Blackboard);
        if cfg_priority {
            b.priority(cfg, user);
        } else {
            b.priority(user, cfg);
        }
        let (net, _) = b.build().unwrap();
        (net, user, cfg)
    }

    /// Builds the templates and binds `stimuli` over `frames` frames.
    fn with_bound<R>(
        net: &Fppn,
        derived: &DerivedTaskGraph,
        stimuli: &Stimuli,
        frames: u64,
        f: impl FnOnce(&BoundSlots<'_>) -> R,
    ) -> R {
        let templates = SlotTemplates::build(net, derived);
        f(&templates.bind(net, stimuli, frames).unwrap())
    }

    #[test]
    fn periodic_instances_always_executable() {
        let (net, user, _) = sporadic_net(true);
        let derived = derive_task_graph(&net, &WcetModel::default()).unwrap();
        let u1 = derived.graph.find(user, 1).unwrap();
        with_bound(&net, &derived, &Stimuli::new(), 3, |res| {
            for f in 0..3 {
                let r = res.slot(f, u1);
                assert!(r.executable);
                assert_eq!(r.invoked_at, ms(200 * f as i64));
                assert_eq!(r.deadline, ms(200 * f as i64 + 200));
            }
            let mut streamed = 0;
            res.for_each_slot(|_| streamed += 1);
            assert_eq!(streamed, 3 * derived.graph.job_count());
        });
    }

    #[test]
    fn arrival_maps_to_slot_and_rest_are_false() {
        let (net, _, cfg) = sporadic_net(true);
        let derived = derive_task_graph(&net, &WcetModel::default()).unwrap();
        let mut stimuli = Stimuli::new();
        stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(150)]));
        let c1 = derived.graph.find(cfg, 1).unwrap();
        let c2 = derived.graph.find(cfg, 2).unwrap();
        with_bound(&net, &derived, &stimuli, 2, |res| {
            // Arrival 150 -> subset at b = 200 (frame 1, subset 0).
            assert!(!res.slot(0, c1).executable); // window (-200, 0]: empty
            assert!(!res.slot(0, c2).executable);
            let r = res.slot(1, c1);
            assert!(r.executable);
            assert_eq!(r.invoked_at, ms(150));
            assert_eq!(r.deadline, ms(150 + 700));
            assert!(!res.slot(1, c2).executable);
            assert_eq!(res.slot(1, c2).invoked_at, ms(200)); // marked false at b
            let mut executable = 0;
            res.for_each_slot(|r| executable += usize::from(r.executable));
            assert_eq!(executable, 2 /* user */ + 1);
        });
    }

    #[test]
    fn boundary_arrival_respects_rule() {
        for (cfg_priority, expect_frame) in [(true, 1u64), (false, 2u64)] {
            let (net, _, cfg) = sporadic_net(cfg_priority);
            let derived = derive_task_graph(&net, &WcetModel::default()).unwrap();
            let mut stimuli = Stimuli::new();
            stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(200)]));
            let c1 = derived.graph.find(cfg, 1).unwrap();
            with_bound(&net, &derived, &stimuli, 3, |res| {
                for f in 0..3 {
                    assert_eq!(
                        res.slot(f, c1).executable,
                        f == expect_frame,
                        "priority {cfg_priority}, frame {f}"
                    );
                }
            });
        }
    }

    #[test]
    fn unholdable_subset_table_is_a_typed_error() {
        // 2^62 frames of one subset each: the subset table needs 2^64
        // bytes, past `isize::MAX`, so the reservation is refused on any
        // host without asking the allocator, while 2^62 × 3 slots still
        // fit `usize`.
        let (net, _, _) = sporadic_net(true);
        let derived = derive_task_graph(&net, &WcetModel::default()).unwrap();
        let templates = SlotTemplates::build(&net, &derived);
        match templates.bind(&net, &Stimuli::new(), 1 << 62) {
            Err(BindError::FrameCount { frames, jobs, .. }) => {
                assert_eq!((frames, jobs), (1 << 62, 3))
            }
            other => panic!("expected a frame-count error, got {other:?}"),
        }
    }

    #[test]
    fn wrap_predecessors_link_conflicting_processes() {
        let (net, user, cfg) = sporadic_net(true);
        let derived = derive_task_graph(&net, &WcetModel::default()).unwrap();
        let wrap = wrap_predecessors(&net, &derived);
        let u1 = derived.graph.find(user, 1).unwrap();
        let c1 = derived.graph.find(cfg, 1).unwrap();
        let c2 = derived.graph.find(cfg, 2).unwrap();
        // user[1] (first of next frame) waits for last user job and last
        // cfg job of the previous frame.
        assert!(wrap[u1.index()].contains(&u1));
        assert!(wrap[u1.index()].contains(&c2));
        // cfg[1] likewise waits for user[1] and cfg[2] of previous frame.
        assert!(wrap[c1.index()].contains(&u1));
        assert!(wrap[c1.index()].contains(&c2));
    }
}
