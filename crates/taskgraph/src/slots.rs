//! Run-time resolution of task-graph job instances across frames.
//!
//! The static task graph covers one hyperperiod; at run time the frame is
//! repeated, and every *server* job slot must be matched against the real
//! sporadic arrivals of its window — or marked **false** (§IV). This
//! module computes that resolution from the arrival traces, shared by the
//! discrete-event simulator (`fppn-sim`) and the threaded runtime
//! (`fppn-runtime`).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use fppn_core::{Fppn, ProcessId, Stimuli};
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

/// Per-frame, per-job instance resolutions for `frames` repetitions of the
/// schedule frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundResolution {
    frames: u64,
    jobs: usize,
    slots: Vec<SlotResolution>, // [frame * jobs + job]
}

/// A frame count whose resolution table cannot be held: `frames × jobs`
/// overflows `usize`, or the allocator refuses the reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameCountError {
    /// The requested frame count.
    pub frames: u64,
    /// Jobs per frame.
    pub jobs: usize,
    /// Why the table cannot be held.
    pub reason: String,
}

impl fmt::Display for FrameCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} frames of {} jobs: {}",
            self.frames, self.jobs, self.reason
        )
    }
}

impl Error for FrameCountError {}

/// The stimuli-*independent* half of slot resolution: per-job templates
/// and per-server window parameters, a pure function of the network and
/// the derived task graph.
///
/// Splitting resolution this way is what makes the compile/run boundary
/// cacheable: [`SlotTemplates::build`] runs once per compiled network,
/// while [`SlotTemplates::resolve`] (or the allocation-light
/// [`SlotTemplates::for_each_slot`]) binds a concrete arrival trace per
/// run. [`RoundResolution::resolve`] remains as the one-shot convenience
/// composing the two.
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
struct ServerArrivals {
    /// `starts[s]..starts[s + 1]` is the slice of `times` for subset `s`.
    starts: Vec<u32>,
    times: Vec<TimeQ>,
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

    /// Bins the sporadic arrival traces into per-server subset CSR tables,
    /// applying the window boundary rule: the subset arriving at `b`
    /// covers `(b − T′, b]` when the sporadic process has priority over
    /// its user, `[b − T′, b)` otherwise.
    fn bin_arrivals(&self, stimuli: &Stimuli, frames: u64) -> Vec<ServerArrivals> {
        self.servers
            .iter()
            .map(|w| {
                let total = (frames as i128 * w.subsets_per_frame).max(0) as usize;
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
                let mut counts = vec![0u32; total + 1];
                for &t in stimuli.arrival_times(w.pid) {
                    if let Some(s) = subset_of(t) {
                        counts[s + 1] += 1;
                    }
                }
                for i in 1..counts.len() {
                    counts[i] += counts[i - 1];
                }
                let starts = counts.clone();
                let mut times = vec![TimeQ::from_int(0); *starts.last().unwrap_or(&0) as usize];
                let mut cursor = counts;
                for &t in stimuli.arrival_times(w.pid) {
                    if let Some(s) = subset_of(t) {
                        times[cursor[s] as usize] = t;
                        cursor[s] += 1;
                    }
                }
                for s in 0..total {
                    times[starts[s] as usize..starts[s + 1] as usize].sort();
                }
                ServerArrivals { starts, times }
            })
            .collect()
    }

    /// Resolves one slot against the binned arrivals.
    fn resolve_slot(
        &self,
        frame: u64,
        frame_base: TimeQ,
        tpl: &Template,
        arrivals: &[ServerArrivals],
    ) -> SlotResolution {
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
                let w = &self.servers[*server];
                let global_subset = frame as i128 * w.subsets_per_frame + subset_in_frame;
                let a = &arrivals[*server];
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

    /// Streams every slot resolution in canonical `(frame, job-id)` order
    /// without materializing a [`RoundResolution`] — the simulator copies
    /// directly into its structure-of-arrays round tables.
    pub fn for_each_slot(
        &self,
        stimuli: &Stimuli,
        frames: u64,
        mut f: impl FnMut(SlotResolution),
    ) {
        let arrivals = self.bin_arrivals(stimuli, frames);
        for frame in 0..frames {
            let frame_base = TimeQ::from_int(frame as i64) * self.hyperperiod;
            for tpl in &self.templates {
                f(self.resolve_slot(frame, frame_base, tpl, &arrivals));
            }
        }
    }

    /// Materializes the full per-frame resolution table for one run.
    ///
    /// # Errors
    ///
    /// Returns [`FrameCountError`] when `frames × job_count` overflows
    /// `usize` or the table cannot be reserved, checked before any arrival
    /// is binned: an unchecked reservation would panic on capacity
    /// overflow or abort the process.
    pub fn resolve(
        &self,
        stimuli: &Stimuli,
        frames: u64,
    ) -> Result<RoundResolution, FrameCountError> {
        let jobs = self.job_count();
        let error = |reason: String| FrameCountError {
            frames,
            jobs,
            reason,
        };
        let total = usize::try_from(frames)
            .ok()
            .and_then(|f| f.checked_mul(jobs))
            .ok_or_else(|| error("overflows usize".to_owned()))?;
        let mut slots = Vec::new();
        slots
            .try_reserve_exact(total)
            .map_err(|e| error(e.to_string()))?;
        self.for_each_slot(stimuli, frames, |res| slots.push(res));
        Ok(RoundResolution {
            frames,
            jobs,
            slots,
        })
    }
}

impl RoundResolution {
    /// Resolves every instance from the sporadic arrival traces.
    ///
    /// One-shot convenience composing [`SlotTemplates::build`] and
    /// [`SlotTemplates::resolve`]; callers that resolve the same network
    /// repeatedly should build the templates once and reuse them.
    ///
    /// # Errors
    ///
    /// Returns [`FrameCountError`] for a frame count whose table cannot
    /// be held (see [`SlotTemplates::resolve`]).
    pub fn resolve(
        net: &Fppn,
        derived: &DerivedTaskGraph,
        stimuli: &Stimuli,
        frames: u64,
    ) -> Result<Self, FrameCountError> {
        SlotTemplates::build(net, derived).resolve(stimuli, frames)
    }

    /// The resolution of job `id` in `frame`.
    ///
    /// # Panics
    ///
    /// Panics if `frame` or `id` is out of range.
    pub fn get(&self, frame: u64, id: JobId) -> SlotResolution {
        assert!(
            frame < self.frames && id.index() < self.jobs,
            "slot ({frame}, {}) out of range",
            id.index()
        );
        self.slots[frame as usize * self.jobs + id.index()]
    }

    /// The number of resolved frames.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Count of executable instances.
    pub fn executable_count(&self) -> usize {
        self.slots.iter().filter(|s| s.executable).count()
    }
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

    #[test]
    fn periodic_instances_always_executable() {
        let (net, user, _) = sporadic_net(true);
        let derived = derive_task_graph(&net, &WcetModel::default()).unwrap();
        let res = RoundResolution::resolve(&net, &derived, &Stimuli::new(), 3).unwrap();
        let u1 = derived.graph.find(user, 1).unwrap();
        for f in 0..3 {
            let r = res.get(f, u1);
            assert!(r.executable);
            assert_eq!(r.invoked_at, ms(200 * f as i64));
            assert_eq!(r.deadline, ms(200 * f as i64 + 200));
        }
        assert_eq!(res.frames(), 3);
    }

    #[test]
    fn arrival_maps_to_slot_and_rest_are_false() {
        let (net, _, cfg) = sporadic_net(true);
        let derived = derive_task_graph(&net, &WcetModel::default()).unwrap();
        let mut stimuli = Stimuli::new();
        stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(150)]));
        let res = RoundResolution::resolve(&net, &derived, &stimuli, 2).unwrap();
        let c1 = derived.graph.find(cfg, 1).unwrap();
        let c2 = derived.graph.find(cfg, 2).unwrap();
        // Arrival 150 -> subset at b = 200 (frame 1, subset 0).
        assert!(!res.get(0, c1).executable); // window (-200, 0]: empty
        assert!(!res.get(0, c2).executable);
        let r = res.get(1, c1);
        assert!(r.executable);
        assert_eq!(r.invoked_at, ms(150));
        assert_eq!(r.deadline, ms(150 + 700));
        assert!(!res.get(1, c2).executable);
        assert_eq!(res.get(1, c2).invoked_at, ms(200)); // marked false at b
        assert_eq!(res.executable_count(), 2 /* user */ + 1);
    }

    #[test]
    fn boundary_arrival_respects_rule() {
        for (cfg_priority, expect_frame) in [(true, 1u64), (false, 2u64)] {
            let (net, _, cfg) = sporadic_net(cfg_priority);
            let derived = derive_task_graph(&net, &WcetModel::default()).unwrap();
            let mut stimuli = Stimuli::new();
            stimuli.arrivals(cfg, SporadicTrace::new(vec![ms(200)]));
            let res = RoundResolution::resolve(&net, &derived, &stimuli, 3).unwrap();
            let c1 = derived.graph.find(cfg, 1).unwrap();
            for f in 0..3 {
                assert_eq!(
                    res.get(f, c1).executable,
                    f == expect_frame,
                    "priority {cfg_priority}, frame {f}"
                );
            }
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
