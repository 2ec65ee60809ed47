//! The multi-tenant run pool: admission control, shared workers, per-run
//! reports — and the fault-containment layer around them.
//!
//! # Containment contract
//!
//! Every way a run can fail is a *typed*, *observable*, *recoverable*
//! outcome; nothing a tenant submits can take the service down:
//!
//! * a panicking behavior is caught per run ([`RunError::Panicked`]) — the
//!   pool worker survives and the pool never shrinks
//!   ([`Server::workers_alive`]);
//! * a run exceeding its wall-clock deadline is cooperatively cancelled at
//!   the next frame/behavior boundary ([`RunError::TimedOut`], with partial
//!   progress);
//! * a full queue rejects at admission ([`AdmissionError::QueueFull`])
//!   instead of buffering without bound, and an optional shed policy drops
//!   already-expired queued runs before wasting a worker on them
//!   ([`RunError::Shed`]);
//! * shutdown resolves every queued and in-flight run
//!   ([`RunError::Cancelled`]) rather than stranding tickets.
//!
//! `catch_unwind` over `AssertUnwindSafe` is sound here for the same
//! reason the pool is sound at all (Prop. 4.1): runs share only immutable
//! compile artifacts, and each worker's [`RunScratch`] is fully
//! cleared/re-sized at the start of the next run, so no broken invariant
//! can leak from a panicked run into a later one. Failures are counted
//! per tenant in [`TenantStats`]; the deterministic fault-injection
//! harness (`crate::FaultPlan` + the chaos suite) proves non-faulted runs
//! stay bit-identical while every injected fault is contained.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use fppn_core::{BehaviorBank, Stimuli};
use fppn_sim::{CancelToken, CompiledNetwork, RunScratch, SimConfig, SimError, SimRun};

use crate::cache::{run_key, ArtifactCache, RunCache};

/// One queued simulation: which artifact to run, against what stimuli,
/// under what run configuration. The artifact and behavior bank are
/// shared (`Arc`) — many queued runs typically point at one compile.
#[derive(Clone)]
pub struct RunRequest {
    /// The compiled artifact to execute against (borrowed by the run).
    pub artifact: Arc<CompiledNetwork>,
    /// Behavior factories; instantiated fresh per run.
    pub bank: Arc<BehaviorBank>,
    /// Sporadic arrivals and external inputs for this run.
    pub stimuli: Stimuli,
    /// Run-phase configuration (frames, overhead and exec-time models).
    pub config: SimConfig,
    /// Optional wall-clock budget, measured from submission: a run still
    /// executing past it is cancelled at the next frame/behavior boundary
    /// and reported as [`RunError::TimedOut`]. `None` = no deadline.
    pub deadline: Option<Duration>,
}

impl RunRequest {
    /// A request with no deadline.
    pub fn new(
        artifact: Arc<CompiledNetwork>,
        bank: Arc<BehaviorBank>,
        stimuli: Stimuli,
        config: SimConfig,
    ) -> Self {
        RunRequest {
            artifact,
            bank,
            stimuli,
            config,
            deadline: None,
        }
    }

    /// Sets the wall-clock budget (measured from submission).
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }
}

/// The result of one completed run.
#[derive(Debug)]
pub struct RunReport {
    /// Deadline misses observed in this run (also accumulated into the
    /// tenant's counters).
    pub deadline_misses: usize,
    /// The full deterministic simulation output. Shared (`Arc`) so the
    /// run-cache hit path can hand the identical result to any number of
    /// requests with one pointer bump; a freshly simulated run is the
    /// `Arc`'s sole owner.
    pub run: Arc<SimRun>,
}

/// Why an admitted run did not produce a [`RunReport`]. Every variant is
/// contained: the worker that observed it survives, the tenant's counters
/// record it, and the next run proceeds normally.
#[derive(Debug)]
#[non_exhaustive]
pub enum RunError {
    /// The simulation itself failed (invalid stimuli, behavior error,
    /// structurally invalid schedule).
    Sim(SimError),
    /// The behavior (tenant code!) panicked. The panic was caught at the
    /// run boundary; the worker survives and the pool does not shrink.
    Panicked {
        /// The panic payload, rendered to a string when possible.
        message: String,
    },
    /// The run exceeded its wall-clock deadline and was cooperatively
    /// cancelled at a frame/behavior boundary.
    TimedOut {
        /// The configured budget ([`RunRequest::deadline`]).
        budget: Duration,
        /// Wall-clock time from submission to cancellation.
        elapsed: Duration,
        /// Rounds fully computed before the cancellation was observed.
        completed_rounds: usize,
    },
    /// The run's deadline had already expired while it sat in the queue,
    /// and the server's shed policy dropped it without executing
    /// ([`ServerConfig::shed_expired`]).
    Shed {
        /// How long the run waited in the queue before being shed.
        waited: Duration,
    },
    /// The server shut down before (or while) this run executed.
    Cancelled,
    /// The worker executing this run disappeared without a reply — the
    /// containment layer's own last line of defense (it should not happen;
    /// behavior panics are caught per run).
    WorkerLost,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::Panicked { message } => {
                write!(f, "behavior panicked (contained): {message}")
            }
            RunError::TimedOut {
                budget,
                elapsed,
                completed_rounds,
            } => write!(
                f,
                "run exceeded its {budget:?} deadline (cancelled after {elapsed:?}, \
                 {completed_rounds} rounds completed)"
            ),
            RunError::Shed { waited } => {
                write!(f, "run shed after waiting {waited:?} past its deadline")
            }
            RunError::Cancelled => f.write_str("run cancelled by server shutdown"),
            RunError::WorkerLost => f.write_str("run worker dropped the reply channel"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// A handle to one admitted run; [`RunTicket::wait`] blocks until a pool
/// worker finishes it.
pub struct RunTicket {
    rx: Receiver<Result<RunReport, RunError>>,
}

impl RunTicket {
    /// Blocks until the run completes and returns its report.
    ///
    /// # Errors
    ///
    /// Returns the run's typed [`RunError`]; a reply channel that
    /// disconnects without a report maps to [`RunError::WorkerLost`]
    /// instead of panicking.
    pub fn wait(self) -> Result<RunReport, RunError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(RunError::WorkerLost),
        }
    }
}

/// Why a submission was rejected *before* any work was queued. Admission
/// errors are typed and recoverable — an over-budget tenant is told so,
/// nothing panics, and no budget or queue slot is consumed by a rejected
/// submission.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionError {
    /// The tenant has exhausted its run budget.
    BudgetExhausted {
        /// The rejected tenant.
        tenant: String,
        /// Its configured budget.
        budget: u64,
    },
    /// No tenant with this name was registered.
    UnknownTenant(String),
    /// The server is shutting down; no new runs are accepted.
    ShuttingDown,
    /// The shared run queue is at capacity
    /// ([`ServerConfig::queue_capacity`]); typed backpressure instead of
    /// unbounded buffering. Transient: retry after the pool drains.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::BudgetExhausted { tenant, budget } => {
                write!(f, "tenant {tenant:?} exhausted its budget of {budget} runs")
            }
            AdmissionError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            AdmissionError::ShuttingDown => f.write_str("server is shutting down"),
            AdmissionError::QueueFull { capacity } => {
                write!(f, "run queue is at its capacity of {capacity}")
            }
        }
    }
}

impl Error for AdmissionError {}

/// A point-in-time snapshot of one tenant's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStats {
    /// Maximum number of runs this tenant may submit.
    pub budget: u64,
    /// Runs admitted so far (monotone; never exceeds `budget`).
    pub admitted: u64,
    /// Runs finished — successfully, with a run error, or contained
    /// (panicked / timed out / shed / cancelled). After a drain,
    /// `completed == admitted`.
    pub completed: u64,
    /// Total deadline misses across all completed runs.
    pub deadline_misses: u64,
    /// Runs whose behavior panicked (contained as [`RunError::Panicked`]).
    pub panicked: u64,
    /// Runs cancelled by their wall-clock deadline
    /// ([`RunError::TimedOut`]).
    pub timed_out: u64,
    /// Queued runs dropped by the shed policy ([`RunError::Shed`]).
    pub shed: u64,
    /// Re-submissions performed by [`Server::run_with_retry`] after a
    /// transient failure.
    pub retried: u64,
    /// Runs answered from the server's cross-run result cache
    /// ([`crate::RunCache`]) instead of simulating. Always zero when the
    /// cache is disabled. Cache hits still count into `completed` and
    /// `deadline_misses` — the report is identical to a simulated one.
    pub run_cache_hits: u64,
}

pub(crate) struct TenantState {
    name: String,
    /// Atomic so [`Server::register_tenant`] can re-register in place (a
    /// fresh budget) without splitting stats across two state objects.
    budget: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    deadline_misses: AtomicU64,
    panicked: AtomicU64,
    timed_out: AtomicU64,
    shed: AtomicU64,
    pub(crate) retried: AtomicU64,
    run_cache_hits: AtomicU64,
}

struct Job {
    tenant: Arc<TenantState>,
    req: RunRequest,
    /// When the job was admitted — the zero point of its deadline.
    submitted: Instant,
    /// Absolute deadline, precomputed at admission.
    deadline_at: Option<Instant>,
    reply: Sender<Result<RunReport, RunError>>,
}

/// State shared between the server handle and its pool workers.
struct Shared {
    /// Tripped by [`Server::shutdown_now`] (and never by graceful drop):
    /// parents every in-flight run's cancel token and short-circuits
    /// queued jobs.
    shutdown: CancelToken,
    /// Jobs admitted but not yet dequeued by a worker.
    queued: AtomicUsize,
    queue_capacity: usize,
    shed_expired: bool,
    /// Live pool workers. The containment invariant — panics never shrink
    /// the pool — is observable here ([`Server::workers_alive`]).
    workers_alive: AtomicUsize,
    /// The cross-run result cache, when enabled
    /// ([`ServerConfig::run_cache_entries`]).
    run_cache: Option<RunCache>,
}

/// Server construction parameters beyond the worker count.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pool worker threads (clamped to at least one).
    pub workers: usize,
    /// Maximum number of admitted-but-not-yet-running jobs; submissions
    /// beyond it get [`AdmissionError::QueueFull`]. `usize::MAX` (the
    /// default) keeps the queue unbounded.
    pub queue_capacity: usize,
    /// When true, a dequeued job whose deadline already expired is dropped
    /// as [`RunError::Shed`] instead of wasting a worker on a run that
    /// would only time out.
    pub shed_expired: bool,
    /// Entry budget of the cross-run result cache ([`crate::RunCache`]):
    /// `Some(n)` caches up to `n` results; `None` (the default) and
    /// `Some(0)` disable it.
    pub run_cache_entries: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            queue_capacity: usize::MAX,
            shed_expired: false,
            run_cache_entries: None,
        }
    }
}

/// The serve control plane: a content-hash-keyed [`ArtifactCache`], a
/// fixed pool of worker threads draining one shared (optionally bounded)
/// queue, and per-tenant budget accounting. Submissions from any number of
/// threads are admitted (or rejected with a typed [`AdmissionError`]) and
/// executed by whichever worker frees up first; each run's result is
/// deterministic regardless of which worker runs it or in what order
/// (Prop. 4.1 — runs share only immutable artifacts).
///
/// Faults are contained per run (see the module docs): behavior panics,
/// deadline overruns and shutdown all surface as typed [`RunError`]s on
/// the ticket and as counters in [`TenantStats`], and the pool never
/// shrinks.
///
/// Dropping the server stops intake, drains the queue and joins the
/// workers; [`Server::shutdown_now`] instead cancels queued and in-flight
/// runs.
pub struct Server {
    cache: ArtifactCache,
    tenants: Mutex<HashMap<String, Arc<TenantState>>>,
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Server {
    /// Starts a pool of `workers` threads (clamped to at least one) with
    /// an unbounded queue and no shed policy. Each worker owns a
    /// [`RunScratch`], so back-to-back sequential runs reuse their round
    /// buffers instead of reallocating.
    pub fn new(workers: usize) -> Self {
        Self::with_config(&ServerConfig {
            workers,
            ..ServerConfig::default()
        })
    }

    /// Starts a server with an explicit [`ServerConfig`] (bounded queue,
    /// shed policy).
    pub fn with_config(config: &ServerConfig) -> Self {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            shutdown: CancelToken::new(),
            queued: AtomicUsize::new(0),
            queue_capacity: config.queue_capacity,
            shed_expired: config.shed_expired,
            // Counted up front, not by the spawned threads: an immediate
            // `workers_alive()` call must already see the full pool.
            workers_alive: AtomicUsize::new(workers),
            run_cache: config
                .run_cache_entries
                .filter(|&n| n > 0)
                .map(RunCache::new),
        });
        let (tx, rx) = unbounded::<Job>();
        let handles = (0..workers)
            .map(|_| {
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&rx, &shared))
            })
            .collect();
        Server {
            cache: ArtifactCache::new(),
            tenants: Mutex::new(HashMap::new()),
            tx: Some(tx),
            handles,
            shared,
        }
    }

    /// The server's artifact cache (compile here, then submit runs).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Registers a tenant allowed to submit up to `budget` runs.
    /// Re-registering an existing tenant updates the budget and resets the
    /// counters **in place**, on the same shared state object — jobs
    /// already queued under the old registration keep counting into the
    /// stats the new registration observes, instead of splitting across
    /// two orphaned copies.
    pub fn register_tenant(&self, name: &str, budget: u64) {
        let mut tenants = self
            .tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(state) = tenants.get(name) {
            state.budget.store(budget, Ordering::Relaxed);
            state.admitted.store(0, Ordering::Relaxed);
            state.completed.store(0, Ordering::Relaxed);
            state.deadline_misses.store(0, Ordering::Relaxed);
            state.panicked.store(0, Ordering::Relaxed);
            state.timed_out.store(0, Ordering::Relaxed);
            state.shed.store(0, Ordering::Relaxed);
            state.retried.store(0, Ordering::Relaxed);
            state.run_cache_hits.store(0, Ordering::Relaxed);
            return;
        }
        let state = Arc::new(TenantState {
            name: name.to_owned(),
            budget: AtomicU64::new(budget),
            admitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            run_cache_hits: AtomicU64::new(0),
        });
        tenants.insert(name.to_owned(), state);
    }

    pub(crate) fn tenant_state(&self, tenant: &str) -> Option<Arc<TenantState>> {
        self.tenants
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(tenant)
            .map(Arc::clone)
    }

    /// Admits one run for `tenant` and queues it on the shared pool.
    ///
    /// # Errors
    ///
    /// Returns a typed [`AdmissionError`] — unknown tenant, exhausted
    /// budget, full queue, or a shutting-down server — without queueing
    /// anything *and without consuming budget or a queue slot* (every
    /// rejection path rolls its reservation back).
    pub fn submit(&self, tenant: &str, req: RunRequest) -> Result<RunTicket, AdmissionError> {
        let state = self
            .tenant_state(tenant)
            .ok_or_else(|| AdmissionError::UnknownTenant(tenant.to_owned()))?;
        // Fail the cheap, side-effect-free checks before reserving
        // anything: a shutting-down server must not consume budget.
        let tx = self.tx.as_ref().ok_or(AdmissionError::ShuttingDown)?;
        if self.shared.shutdown.is_cancelled() {
            return Err(AdmissionError::ShuttingDown);
        }
        // Reserve a queue slot (typed backpressure), then budget; each
        // CAS-guarded counter can never overshoot under racing submitters.
        if self
            .shared
            .queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.shared.queue_capacity).then_some(n + 1)
            })
            .is_err()
        {
            return Err(AdmissionError::QueueFull {
                capacity: self.shared.queue_capacity,
            });
        }
        let budget = state.budget.load(Ordering::Relaxed);
        if state
            .admitted
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < budget).then_some(n + 1)
            })
            .is_err()
        {
            self.shared.queued.fetch_sub(1, Ordering::Relaxed);
            return Err(AdmissionError::BudgetExhausted {
                tenant: state.name.clone(),
                budget,
            });
        }
        let (reply, rx) = unbounded();
        let submitted = Instant::now();
        let deadline_at = req.deadline.map(|budget| submitted + budget);
        let job = Job {
            tenant: state,
            req,
            submitted,
            deadline_at,
            reply,
        };
        if let Err(send_err) = tx.send(job) {
            // The channel closed between the checks above and the send (a
            // racing drop). The job comes back in the error; roll both
            // reservations back so the rejected submission is free.
            let job = send_err.0;
            job.tenant.admitted.fetch_sub(1, Ordering::Relaxed);
            self.shared.queued.fetch_sub(1, Ordering::Relaxed);
            return Err(AdmissionError::ShuttingDown);
        }
        Ok(RunTicket { rx })
    }

    /// The current accounting snapshot for `tenant`, if registered.
    pub fn tenant_stats(&self, tenant: &str) -> Option<TenantStats> {
        let state = self.tenant_state(tenant)?;
        Some(TenantStats {
            budget: state.budget.load(Ordering::Relaxed),
            admitted: state.admitted.load(Ordering::Relaxed),
            completed: state.completed.load(Ordering::Relaxed),
            deadline_misses: state.deadline_misses.load(Ordering::Relaxed),
            panicked: state.panicked.load(Ordering::Relaxed),
            timed_out: state.timed_out.load(Ordering::Relaxed),
            shed: state.shed.load(Ordering::Relaxed),
            retried: state.retried.load(Ordering::Relaxed),
            run_cache_hits: state.run_cache_hits.load(Ordering::Relaxed),
        })
    }

    /// The cross-run result cache, when enabled at construction
    /// ([`ServerConfig::run_cache_entries`]).
    /// Exposes the typed hit/miss counters and the current entry count.
    pub fn run_cache(&self) -> Option<&RunCache> {
        self.shared.run_cache.as_ref()
    }

    /// Live pool workers. Stays equal to the configured pool size whatever
    /// tenants' behaviors do — panics are contained per run, never fatal
    /// to a worker (the chaos suite asserts this under injected faults).
    pub fn workers_alive(&self) -> usize {
        self.shared.workers_alive.load(Ordering::SeqCst)
    }

    /// Jobs admitted but not yet picked up by a worker.
    pub fn queued(&self) -> usize {
        self.shared.queued.load(Ordering::SeqCst)
    }

    /// Cancels every queued and in-flight run and rejects every future
    /// submission with [`AdmissionError::ShuttingDown`]. Queued jobs
    /// resolve their tickets with [`RunError::Cancelled`] without
    /// executing; in-flight runs observe the cancellation at their next
    /// frame/behavior boundary. Idempotent; the eventual `Drop` still
    /// joins the workers.
    pub fn shutdown_now(&self) {
        self.shared.shutdown.cancel();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Dropping the intake sender disconnects the queue once drained;
        // workers exit their recv loop and are joined. (After
        // `shutdown_now`, "drained" means every queued job resolved as
        // cancelled.)
        self.tx = None;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Decrements `workers_alive` when a pool worker exits, however it exits.
struct WorkerAliveGuard<'a>(&'a Shared);

impl Drop for WorkerAliveGuard<'_> {
    fn drop(&mut self) {
        self.0.workers_alive.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(rx: &Receiver<Job>, shared: &Shared) {
    let _alive = WorkerAliveGuard(shared);
    let mut scratch = RunScratch::new();
    while let Ok(job) = rx.recv() {
        shared.queued.fetch_sub(1, Ordering::SeqCst);
        let result = run_job(&job, shared, &mut scratch);
        // Every outcome — success, error, containment — counts as
        // completed, so `completed == admitted` after a drain.
        job.tenant.completed.fetch_add(1, Ordering::Relaxed);
        // A dropped ticket just discards the report; fire-and-forget
        // submissions are fine.
        let _ = job.reply.send(result);
    }
}

/// Executes (or sheds/cancels) one dequeued job with full containment.
fn run_job(job: &Job, shared: &Shared, scratch: &mut RunScratch) -> Result<RunReport, RunError> {
    // Shutdown short-circuit: queued work is resolved, not executed.
    if shared.shutdown.is_cancelled() {
        return Err(RunError::Cancelled);
    }
    // Deadline-aware shedding: an already-expired job would only burn a
    // worker to report TimedOut; drop it up front when the policy says so.
    let now = Instant::now();
    if shared.shed_expired {
        if let Some(at) = job.deadline_at {
            if now >= at {
                job.tenant.shed.fetch_add(1, Ordering::Relaxed);
                return Err(RunError::Shed {
                    waited: now.duration_since(job.submitted),
                });
            }
        }
    }
    // Cross-run result cache: a warm identical request — same artifact
    // content, same stimuli, same semantic config, same behavior-bank
    // `Arc` — returns the shared cached result without simulating. The
    // lookup sits after the shed check (an expired job stays shed: its
    // tenant asked for deadline semantics, not stale-fast answers) and
    // performs the tenant's full accounting, so a hit's report and
    // counters are indistinguishable from a fresh simulation's.
    let key = shared
        .run_cache
        .as_ref()
        .map(|_| run_key(&job.req.artifact, &job.req.stimuli, &job.req.config));
    if let (Some(cache), Some(key)) = (&shared.run_cache, key) {
        if let Some(run) = cache.lookup(key, &job.req.bank) {
            job.tenant.run_cache_hits.fetch_add(1, Ordering::Relaxed);
            let deadline_misses = run.stats.deadline_misses;
            job.tenant
                .deadline_misses
                .fetch_add(deadline_misses as u64, Ordering::Relaxed);
            return Ok(RunReport {
                deadline_misses,
                run,
            });
        }
    }
    // Each run's token chains off the server-wide shutdown token, so one
    // `shutdown_now` fans out to every in-flight run while each run keeps
    // its private deadline.
    let token = match job.deadline_at {
        Some(at) => shared.shutdown.child_with_deadline_at(at),
        None => shared.shutdown.child(),
    };
    // Contain panics at the run boundary. `AssertUnwindSafe` is justified
    // because the closure only touches (a) the immutable shared artifact
    // (Prop. 4.1 — runs cannot mutate it), and (b) this worker's scratch,
    // whose every buffer is cleared/re-sized at the start of the next run.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        job.req.artifact.simulate_cancellable(
            &job.req.bank,
            &job.req.stimuli,
            &job.req.config,
            scratch,
            &token,
        )
    }));
    match caught {
        Ok(Ok(run)) => {
            let deadline_misses = run.stats.deadline_misses;
            job.tenant
                .deadline_misses
                .fetch_add(deadline_misses as u64, Ordering::Relaxed);
            let run = Arc::new(run);
            // Only successful runs are cached; every fault path below
            // re-executes on the next identical request.
            if let (Some(cache), Some(key)) = (&shared.run_cache, key) {
                cache.insert(key, Arc::clone(&job.req.bank), Arc::clone(&run));
            }
            Ok(RunReport {
                deadline_misses,
                run,
            })
        }
        Ok(Err(SimError::Cancelled { completed_rounds })) => {
            // Which trip wire fired? A per-run deadline in the past means
            // TimedOut; otherwise the server shut down mid-run.
            match job.deadline_at {
                Some(at) if Instant::now() >= at => {
                    job.tenant.timed_out.fetch_add(1, Ordering::Relaxed);
                    Err(RunError::TimedOut {
                        budget: job.req.deadline.expect("deadline_at implies deadline"),
                        elapsed: job.submitted.elapsed(),
                        completed_rounds,
                    })
                }
                _ => Err(RunError::Cancelled),
            }
        }
        Ok(Err(e)) => Err(RunError::Sim(e)),
        Err(payload) => {
            job.tenant.panicked.fetch_add(1, Ordering::Relaxed);
            let message = match payload.downcast_ref::<&'static str>() {
                Some(s) => (*s).to_owned(),
                None => match payload.downcast_ref::<String>() {
                    Some(s) => s.clone(),
                    None => "non-string panic payload".to_owned(),
                },
            };
            Err(RunError::Panicked { message })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{EventSpec, FppnBuilder, ProcessSpec};
    use fppn_sim::CompileConfig;
    use fppn_taskgraph::WcetModel;
    use fppn_time::TimeQ;

    fn one_process_server() -> (Server, Arc<CompiledNetwork>, Arc<BehaviorBank>) {
        let mut b = FppnBuilder::new();
        b.process(ProcessSpec::new("p", EventSpec::periodic(TimeQ::from_ms(100))));
        let (net, bank) = b.build().unwrap();
        let server = Server::new(1);
        let artifact = server
            .cache()
            .get_or_compile(&net, &CompileConfig::new(WcetModel::uniform(TimeQ::from_ms(10)), 1))
            .unwrap();
        (server, artifact, Arc::new(bank))
    }

    #[test]
    fn wait_on_a_lost_worker_is_a_typed_error() {
        // Construct a ticket whose sender is already gone: the legacy
        // behavior was a panic inside `wait`.
        let (tx, rx) = unbounded::<Result<RunReport, RunError>>();
        drop(tx);
        let ticket = RunTicket { rx };
        assert!(matches!(ticket.wait(), Err(RunError::WorkerLost)));
    }

    #[test]
    fn rejected_submissions_consume_no_budget() {
        let (server, artifact, bank) = one_process_server();
        server.register_tenant("t", 2);
        // Shutdown rejections must not leak admitted counts (the old code
        // CAS-incremented before the ShuttingDown checks).
        server.shutdown_now();
        let req = RunRequest::new(artifact, bank, Stimuli::new(), SimConfig::default());
        assert!(matches!(
            server.submit("t", req),
            Err(AdmissionError::ShuttingDown)
        ));
        let stats = server.tenant_stats("t").unwrap();
        assert_eq!(stats.admitted, 0, "rejected submission consumed budget");
    }

    #[test]
    fn poisoned_tenant_lock_recovers() {
        let (server, artifact, bank) = one_process_server();
        server.register_tenant("t", 4);
        // Poison the tenants mutex by panicking while holding it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = server.tenants.lock().unwrap();
            panic!("poison");
        }));
        // Every lock user must recover instead of propagating the poison.
        server.register_tenant("u", 1);
        assert!(server.tenant_stats("t").is_some());
        assert!(server.tenant_stats("u").is_some());
        let req = RunRequest::new(artifact, bank, Stimuli::new(), SimConfig::default());
        let ticket = server.submit("t", req).unwrap();
        assert!(ticket.wait().is_ok());
    }

    #[test]
    fn run_cache_serves_warm_identical_runs() {
        let mut b = FppnBuilder::new();
        b.process(ProcessSpec::new("p", EventSpec::periodic(TimeQ::from_ms(100))));
        let (net, bank) = b.build().unwrap();
        let bank = Arc::new(bank);
        let server = Server::with_config(&ServerConfig {
            workers: 1,
            run_cache_entries: Some(8),
            ..ServerConfig::default()
        });
        server.register_tenant("t", 4);
        let artifact = server
            .cache()
            .get_or_compile(&net, &CompileConfig::new(WcetModel::uniform(TimeQ::from_ms(10)), 1))
            .unwrap();
        let req = RunRequest::new(
            Arc::clone(&artifact),
            Arc::clone(&bank),
            Stimuli::new(),
            SimConfig {
                frames: 2,
                ..SimConfig::default()
            },
        );
        let cold = server.submit("t", req.clone()).unwrap().wait().unwrap();
        let warm = server.submit("t", req).unwrap().wait().unwrap();
        assert!(
            Arc::ptr_eq(&cold.run, &warm.run),
            "warm identical run must share the cached result"
        );
        assert_eq!(cold.deadline_misses, warm.deadline_misses);
        // A different (semantic) config is a different key: no false hit.
        let other = RunRequest::new(
            artifact,
            bank,
            Stimuli::new(),
            SimConfig {
                frames: 3,
                ..SimConfig::default()
            },
        );
        let third = server.submit("t", other).unwrap().wait().unwrap();
        assert!(!Arc::ptr_eq(&cold.run, &third.run));
        let stats = server.tenant_stats("t").unwrap();
        assert_eq!(stats.run_cache_hits, 1);
        assert_eq!(stats.completed, 3);
        let cache = server.run_cache().expect("cache enabled");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
    }

    #[test]
    fn run_cache_is_off_by_default() {
        let (server, artifact, bank) = one_process_server();
        assert!(server.run_cache().is_none());
        server.register_tenant("t", 2);
        let req = RunRequest::new(artifact, bank, Stimuli::new(), SimConfig::default());
        let a = server.submit("t", req.clone()).unwrap().wait().unwrap();
        let b = server.submit("t", req).unwrap().wait().unwrap();
        assert!(!Arc::ptr_eq(&a.run, &b.run), "no cache, no sharing");
        assert_eq!(server.tenant_stats("t").unwrap().run_cache_hits, 0);
    }

    #[test]
    fn invalid_exec_time_model_is_a_typed_sim_error_not_a_panic() {
        let (server, artifact, bank) = one_process_server();
        server.register_tenant("t", 2);
        let alive = server.workers_alive();
        let bad = SimConfig {
            exec_time: fppn_sim::ExecTimeModel::Scaled { num: 1, den: 0 },
            ..SimConfig::default()
        };
        let req = RunRequest::new(artifact, bank, Stimuli::new(), bad);
        let outcome = server.submit("t", req).unwrap().wait();
        assert!(
            matches!(outcome, Err(RunError::Sim(SimError::InvalidConfig(_)))),
            "got {:?}",
            outcome.map(|r| r.deadline_misses)
        );
        let stats = server.tenant_stats("t").unwrap();
        assert_eq!(stats.panicked, 0, "a config error is not a behavior panic");
        assert_eq!(stats.completed, 1);
        assert_eq!(server.workers_alive(), alive);
    }

    #[test]
    fn unholdable_frame_count_is_a_typed_sim_error_not_an_abort() {
        // 2^60 frames of the one job: its round slabs exceed `isize::MAX`
        // bytes, so bind refuses them without asking the allocator.
        let (server, artifact, bank) = one_process_server();
        server.register_tenant("t", 2);
        let huge = SimConfig {
            frames: 1 << 60,
            ..SimConfig::default()
        };
        let req = RunRequest::new(
            Arc::clone(&artifact),
            Arc::clone(&bank),
            Stimuli::new(),
            huge,
        );
        let outcome = server.submit("t", req).unwrap().wait();
        assert!(
            matches!(outcome, Err(RunError::Sim(SimError::InvalidConfig(_)))),
            "got {:?}",
            outcome.map(|r| r.deadline_misses)
        );
        let stats = server.tenant_stats("t").unwrap();
        assert_eq!(stats.panicked, 0, "a config error is not a behavior panic");
        assert_eq!(server.workers_alive(), 1);
        // The worker keeps serving.
        let req = RunRequest::new(artifact, bank, Stimuli::new(), SimConfig::default());
        server.submit("t", req).unwrap().wait().unwrap();
    }

    #[test]
    fn reregistration_updates_in_place() {
        let (server, artifact, bank) = one_process_server();
        server.register_tenant("t", 1);
        let first = server.tenant_state("t").unwrap();
        let req = RunRequest::new(artifact, bank, Stimuli::new(), SimConfig::default());
        server.submit("t", req).unwrap().wait().unwrap();
        server.register_tenant("t", 9);
        let second = server.tenant_state("t").unwrap();
        assert!(Arc::ptr_eq(&first, &second), "re-registration split state");
        let stats = server.tenant_stats("t").unwrap();
        assert_eq!((stats.budget, stats.admitted, stats.completed), (9, 0, 0));
    }
}
