//! The multi-session scheduler: admission, fair-share dispatch,
//! budgets, and crash-safe job state.
//!
//! # Invariants
//!
//! * **Fairness is batch-granular.** Every active job must take a
//!   [`FairGate`] turn before dispatching one candidate batch to the
//!   worker pool, and turns rotate strictly round-robin across jobs.
//!   Candidate *generation* stays serial inside each job — that is what
//!   keeps each session RNG-faithful and bit-identical to a standalone
//!   `cirfix repair` — so the batch is the finest grain at which the
//!   pool can be shared without breaking determinism.
//! * **Every state transition is durable.** Jobs append a full snapshot
//!   record to the store's registry on admission, start, and
//!   completion; the last record per id wins. A SIGKILLed daemon
//!   restarted over the same store re-enqueues every non-terminal job,
//!   which then resumes from its session checkpoint.
//! * **Budgets clamp, never reshape.** Daemon-wide per-job caps
//!   (`max_evals_per_job`, `max_seconds_per_job`) only lower the
//!   submitted config's own limits, and are applied identically when
//!   computing the admission digest and when running — a job's identity
//!   never depends on *when* it ran.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cirfix::{
    apply_patch, problem_digest, repair_session, result_to_canonical_json, session_digest,
    BatchGate, Observer, RepairConfig, RepairProblem, RepairStatus, SearchControl,
};
use cirfix_store::{Lease, Store};
use cirfix_telemetry::{Event, FanoutSink, HeartbeatEvent, TaggedJsonLinesSink, TelemetrySink};

use crate::conf::{self, Config, ConfigError};
use crate::job::{fold_jobs, JobRecord, JobSpec, JobState};
use crate::protocol::WireError;

// ---------------------------------------------------------------------------
// Fair-share batch gate

/// How many recent turns the gate remembers for [`FairGate::turns`].
const TURN_LOG_CAP: usize = 4096;

#[derive(Default)]
struct GateState {
    /// Registered tickets in rotation order; the front holds the next
    /// turn.
    rotation: VecDeque<u64>,
    /// The ticket currently dispatching a batch, if any.
    busy: Option<u64>,
    /// Recent turn grants, oldest first (bounded by [`TURN_LOG_CAP`]).
    turns: Vec<u64>,
    next_ticket: u64,
}

/// Strict round-robin arbiter for the shared worker pool.
///
/// Jobs register a ticket; `acquire` blocks until the ticket is at the
/// front of the rotation and no batch is in flight, then `release`
/// moves it to the back. With every job acquiring once per candidate
/// batch, the pool time-slices across jobs at batch granularity in
/// registration order — deterministic given the arrival order, and
/// starvation-free by construction.
pub struct FairGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Default for FairGate {
    fn default() -> FairGate {
        FairGate::new()
    }
}

impl FairGate {
    /// An empty gate with no registered jobs.
    pub fn new() -> FairGate {
        FairGate {
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    /// Joins the rotation (at the back) and returns the new ticket.
    pub fn register(&self) -> u64 {
        let mut s = self.state.lock().expect("gate poisoned");
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        s.rotation.push_back(ticket);
        self.cv.notify_all();
        ticket
    }

    /// Leaves the rotation; pending waiters are re-examined so the
    /// rotation never stalls on a departed job.
    pub fn deregister(&self, ticket: u64) {
        let mut s = self.state.lock().expect("gate poisoned");
        s.rotation.retain(|&t| t != ticket);
        if s.busy == Some(ticket) {
            s.busy = None;
        }
        self.cv.notify_all();
    }

    /// Blocks until it is `ticket`'s turn, or until `cancelled` trips.
    /// Returns whether the turn was actually taken — a cancelled
    /// acquire returns `false` without holding the slot, letting the
    /// engine reach its next cancellation check unimpeded.
    fn acquire(&self, ticket: u64, cancelled: &AtomicBool) -> bool {
        let mut s = self.state.lock().expect("gate poisoned");
        loop {
            if cancelled.load(Ordering::SeqCst) {
                return false;
            }
            if s.busy.is_none() && s.rotation.front() == Some(&ticket) {
                s.busy = Some(ticket);
                if s.turns.len() == TURN_LOG_CAP {
                    s.turns.remove(0);
                }
                s.turns.push(ticket);
                return true;
            }
            // The timeout is a backstop for a cancel that raced the
            // wait; [`FairGate::poke`] delivers the prompt wake-up.
            let (guard, _) = self
                .cv
                .wait_timeout(s, Duration::from_millis(100))
                .expect("gate poisoned");
            s = guard;
        }
    }

    /// Releases the in-flight slot and rotates the ticket to the back.
    fn release(&self, ticket: u64) {
        let mut s = self.state.lock().expect("gate poisoned");
        if s.busy == Some(ticket) {
            s.busy = None;
            if s.rotation.front() == Some(&ticket) {
                s.rotation.rotate_left(1);
            }
        }
        self.cv.notify_all();
    }

    /// Wakes all waiters (used after tripping a cancel flag).
    pub fn poke(&self) {
        self.cv.notify_all();
    }

    /// The recent turn-grant sequence, oldest first. Fairness tests
    /// assert strict alternation on this log.
    pub fn turns(&self) -> Vec<u64> {
        self.state.lock().expect("gate poisoned").turns.clone()
    }
}

/// One job's handle on the shared [`FairGate`], in the shape the
/// engine's [`BatchGate`] hook expects.
struct JobGate {
    gate: Arc<FairGate>,
    ticket: u64,
    cancelled: Arc<AtomicBool>,
    /// Whether the last `acquire` actually took the slot (a cancelled
    /// acquire does not, and its paired `release` must be a no-op).
    holding: AtomicBool,
}

impl BatchGate for JobGate {
    fn acquire(&self) {
        let got = self.gate.acquire(self.ticket, &self.cancelled);
        self.holding.store(got, Ordering::SeqCst);
    }

    fn release(&self) {
        if self.holding.swap(false, Ordering::SeqCst) {
            self.gate.release(self.ticket);
        }
    }
}

// ---------------------------------------------------------------------------
// Watch progress

#[derive(Default)]
struct ProgressState {
    version: u64,
    heartbeat: Option<HeartbeatEvent>,
    done: bool,
}

/// The latest heartbeat snapshot for one job, with change
/// notification — what a `watch` connection streams from.
#[derive(Default)]
pub struct Progress {
    state: Mutex<ProgressState>,
    cv: Condvar,
}

/// One observed progress snapshot: a change counter (for
/// [`Progress::wait_newer`]), the latest heartbeat if any arrived yet,
/// and whether the job has finished.
pub type ProgressSnapshot = (u64, Option<HeartbeatEvent>, bool);

impl Progress {
    fn publish(&self, heartbeat: HeartbeatEvent) {
        let mut s = self.state.lock().expect("progress poisoned");
        s.version += 1;
        s.heartbeat = Some(heartbeat);
        self.cv.notify_all();
    }

    fn finish(&self) {
        let mut s = self.state.lock().expect("progress poisoned");
        s.version += 1;
        s.done = true;
        self.cv.notify_all();
    }

    /// The current snapshot.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let s = self.state.lock().expect("progress poisoned");
        (s.version, s.heartbeat.clone(), s.done)
    }

    /// Blocks until the version advances past `seen` (or the timeout
    /// elapses) and returns the then-current snapshot.
    pub fn wait_newer(&self, seen: u64, timeout: Duration) -> ProgressSnapshot {
        let s = self.state.lock().expect("progress poisoned");
        let (s, _) = self
            .cv
            .wait_timeout_while(s, timeout, |s| s.version == seen && !s.done)
            .expect("progress poisoned");
        (s.version, s.heartbeat.clone(), s.done)
    }
}

/// Telemetry sink that folds a job's heartbeat stream into its
/// [`Progress`] snapshot. Attaching it changes only what is *observed*,
/// never what the search does — daemon jobs stay bit-identical to
/// batch runs.
struct ProgressSink {
    progress: Arc<Progress>,
}

impl TelemetrySink for ProgressSink {
    fn record(&self, event: &Event) {
        if let Event::Heartbeat(h) = event {
            self.progress.publish(h.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler

/// Daemon-wide scheduler settings.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// The shared persistent store: evaluations, session checkpoints,
    /// and the job registry all live here.
    pub store_dir: PathBuf,
    /// Concurrent running jobs (default 4).
    pub max_active: usize,
    /// Queued (admitted but not yet running) jobs beyond which new
    /// submissions are rejected with `queue_full` (default 16).
    pub max_queue: usize,
    /// Per-job cap on fitness evaluations; clamps (never raises) the
    /// submitted config's own `max_evals`.
    pub max_evals_per_job: Option<u64>,
    /// Per-job wall-clock cap in seconds; clamps the submitted
    /// config's own `timeout_s`.
    pub max_seconds_per_job: Option<u64>,
    /// Aggregate daemon trace: every job's telemetry, tagged with its
    /// job id, appended to this file. Per-job traces (the config's own
    /// `trace_out`) stay untagged and byte-identical to batch runs.
    pub trace_out: Option<PathBuf>,
    /// Background store-compaction cadence; `None` disables the sweep.
    pub gc_interval: Option<Duration>,
}

impl ServeOpts {
    /// Defaults for `store_dir`: 4 active jobs, a 16-deep queue, no
    /// budget caps, no aggregate trace, no background gc.
    pub fn new(store_dir: impl Into<PathBuf>) -> ServeOpts {
        ServeOpts {
            store_dir: store_dir.into(),
            max_active: 4,
            max_queue: 16,
            max_evals_per_job: None,
            max_seconds_per_job: None,
            trace_out: None,
            gc_interval: None,
        }
    }
}

struct JobEntry {
    record: JobRecord,
    /// Live control handle while running; `None` otherwise.
    control: Option<SearchControl>,
    /// The gate-side cancel flag paired with `control`.
    gate_cancel: Option<Arc<AtomicBool>>,
    progress: Arc<Progress>,
    /// Recovered jobs drop any `halt_after` override on re-run — the
    /// deterministic-kill rehearsal must not re-trip after the restart
    /// it rehearsed.
    strip_halt: bool,
}

struct SchedState {
    jobs: HashMap<String, JobEntry>,
    /// Admitted job ids waiting for a slot, in admission order.
    queue: VecDeque<String>,
    /// Currently running jobs.
    active: usize,
    next_seq: u64,
    /// Ticket → job id, for translating the gate's turn log.
    tickets: HashMap<u64, String>,
    workers: Vec<JoinHandle<()>>,
}

struct Inner {
    opts: ServeOpts,
    store: Store,
    /// Held for the daemon's lifetime so a concurrent gc never folds
    /// the registry out from under an append.
    _jobs_lease: Lease,
    /// Serializes registry appends across job threads.
    registry_lock: Mutex<()>,
    gate: Arc<FairGate>,
    aggregate: Option<Arc<Mutex<BufWriter<File>>>>,
    state: Mutex<SchedState>,
    /// Wakes the dispatcher (new work, freed slot, shutdown).
    work_cv: Condvar,
    /// Wakes `wait_idle` / `shutdown` (job finished).
    idle_cv: Condvar,
    shutting_down: AtomicBool,
}

impl Inner {
    fn append_registry(&self, record: &JobRecord) {
        let _guard = self.registry_lock.lock().expect("registry poisoned");
        // A failed append loses durability, not correctness: the
        // in-memory state machine stays right, and a restart simply
        // sees the previous snapshot.
        let _ = self.store.append_job(&record.to_json());
    }
}

/// The multi-session scheduler behind `cirfix serve`.
///
/// Owns the job table, the admission queue, the fair-share gate, and
/// the worker threads that drive [`repair_session`] — one per active
/// job, multiplexed over the evaluation pool at batch granularity.
pub struct Scheduler {
    inner: Arc<Inner>,
    dispatcher: Mutex<Option<JoinHandle<()>>>,
    gc: Mutex<Option<JoinHandle<()>>>,
}

impl Scheduler {
    /// Opens (or creates) the store, recovers every non-terminal job
    /// from the registry back into the queue, and starts the
    /// dispatcher (plus the background gc sweep, if configured).
    ///
    /// # Errors
    ///
    /// Store open/lease/registry I/O failures.
    pub fn new(opts: ServeOpts) -> io::Result<Scheduler> {
        let store = Store::open(&opts.store_dir)?;
        let jobs_lease = store.jobs_lease()?;
        let (raw, _health) = store.load_jobs()?;

        let mut state = SchedState {
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            active: 0,
            next_seq: 0,
            tickets: HashMap::new(),
            workers: Vec::new(),
        };
        let mut requeued: Vec<JobRecord> = Vec::new();
        for mut record in fold_jobs(&raw) {
            state.next_seq = state.next_seq.max(record.seq + 1);
            let strip_halt = !record.state.is_terminal();
            if strip_halt {
                // Whatever the job was doing when the last daemon
                // died (queued, running, cancelled, interrupted), its
                // checkpoint is intact: queue it and let the session
                // layer resume it bit-identically.
                record.state = JobState::Queued;
                record.detail = "recovered after daemon restart".into();
                state.queue.push_back(record.id.clone());
                requeued.push(record.clone());
            }
            state.jobs.insert(
                record.id.clone(),
                JobEntry {
                    record,
                    control: None,
                    gate_cancel: None,
                    progress: Arc::new(Progress::default()),
                    strip_halt,
                },
            );
        }

        let aggregate = match &opts.trace_out {
            None => None,
            Some(path) => {
                // Append across daemon restarts: one continuous,
                // job-tagged history per store.
                let file = OpenOptions::new().create(true).append(true).open(path)?;
                Some(Arc::new(Mutex::new(BufWriter::new(file))))
            }
        };

        let inner = Arc::new(Inner {
            opts,
            store,
            _jobs_lease: jobs_lease,
            registry_lock: Mutex::new(()),
            gate: Arc::new(FairGate::new()),
            aggregate,
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
        });
        for record in requeued {
            inner.append_registry(&record);
        }

        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || dispatch_loop(&inner))
        };
        let gc = inner.opts.gc_interval.map(|interval| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || gc_loop(&inner, interval))
        });
        Ok(Scheduler {
            inner,
            dispatcher: Mutex::new(Some(dispatcher)),
            gc: Mutex::new(gc),
        })
    }

    /// Admits a job: loads and digests its configuration, dedups it
    /// against in-flight work, checks the queue bound, persists the
    /// admission, and wakes the dispatcher.
    ///
    /// Resubmitting an active job is idempotent (the existing record
    /// comes back); resubmitting a finished one re-enqueues it, which
    /// re-runs the session warm from the evaluation store.
    ///
    /// # Errors
    ///
    /// `shutting_down`, config errors as `bad_request`, or
    /// `queue_full`.
    pub fn submit(&self, spec: &JobSpec) -> Result<JobRecord, WireError> {
        if self.inner.shutting_down.load(Ordering::SeqCst) {
            return Err(WireError::new("shutting_down", "daemon is shutting down"));
        }
        let built = build_job(spec, &self.inner.opts, false)
            .map_err(|e| WireError::new("bad_request", e.to_string()))?;
        let session = built.session_hex;
        let id = session[..12].to_string();

        let mut s = self.inner.state.lock().expect("scheduler poisoned");
        if let Some(entry) = s.jobs.get(&id) {
            if !entry.record.state.is_terminal() {
                return Ok(entry.record.clone());
            }
        }
        if s.queue.len() >= self.inner.opts.max_queue {
            return Err(WireError::new(
                "queue_full",
                format!("queue limit {} reached", self.inner.opts.max_queue),
            ));
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        let record = JobRecord {
            id: id.clone(),
            session,
            spec: spec.clone(),
            state: JobState::Queued,
            seq,
            detail: String::new(),
        };
        s.jobs.insert(
            id.clone(),
            JobEntry {
                record: record.clone(),
                control: None,
                gate_cancel: None,
                progress: Arc::new(Progress::default()),
                strip_halt: false,
            },
        );
        s.queue.push_back(id);
        drop(s);
        self.inner.append_registry(&record);
        self.inner.work_cv.notify_all();
        Ok(record)
    }

    /// All known jobs in admission order, or one by id.
    pub fn status(&self, id: Option<&str>) -> Vec<JobRecord> {
        let s = self.inner.state.lock().expect("scheduler poisoned");
        let mut records: Vec<JobRecord> = match id {
            Some(id) => s
                .jobs
                .get(id)
                .map(|e| e.record.clone())
                .into_iter()
                .collect(),
            None => s.jobs.values().map(|e| e.record.clone()).collect(),
        };
        records.sort_by_key(|r| r.seq);
        records
    }

    /// The progress stream for a job, if the job exists.
    pub fn progress(&self, id: &str) -> Option<(JobRecord, Arc<Progress>)> {
        let s = self.inner.state.lock().expect("scheduler poisoned");
        s.jobs
            .get(id)
            .map(|e| (e.record.clone(), Arc::clone(&e.progress)))
    }

    /// Cancels a job: dequeues it if still queued, or trips its cancel
    /// flag if running (the engine stops at the next candidate-batch
    /// boundary, leaving a resumable checkpoint). Idempotent on
    /// already-cancelled jobs.
    ///
    /// # Errors
    ///
    /// `unknown_job`, or `bad_request` for jobs already finished.
    pub fn cancel(&self, id: &str) -> Result<JobRecord, WireError> {
        let mut s = self.inner.state.lock().expect("scheduler poisoned");
        let entry = s
            .jobs
            .get_mut(id)
            .ok_or_else(|| WireError::new("unknown_job", format!("no job `{id}`")))?;
        match entry.record.state {
            JobState::Queued => {
                entry.record.state = JobState::Cancelled;
                entry.record.detail = "cancelled before start".into();
                entry.progress.finish();
                let record = entry.record.clone();
                s.queue.retain(|q| q != id);
                drop(s);
                self.inner.append_registry(&record);
                Ok(record)
            }
            JobState::Running => {
                if let Some(control) = &entry.control {
                    control.cancel();
                }
                if let Some(flag) = &entry.gate_cancel {
                    flag.store(true, Ordering::SeqCst);
                }
                // Report the requested state; the worker records the
                // durable transition when the engine actually stops.
                entry.record.state = JobState::Cancelled;
                entry.record.detail = "cancel requested".into();
                let record = entry.record.clone();
                drop(s);
                self.inner.gate.poke();
                Ok(record)
            }
            JobState::Cancelled => Ok(entry.record.clone()),
            state => Err(WireError::new(
                "bad_request",
                format!("job `{id}` already finished ({})", state.as_str()),
            )),
        }
    }

    /// Blocks until no job is queued or running. Test and bench
    /// convenience; the daemon itself never goes idle this way.
    pub fn wait_idle(&self) {
        let mut s = self.inner.state.lock().expect("scheduler poisoned");
        while s.active > 0 || !s.queue.is_empty() {
            let (guard, _) = self
                .inner
                .idle_cv
                .wait_timeout(s, Duration::from_millis(200))
                .expect("scheduler poisoned");
            s = guard;
        }
    }

    /// Recent batch turns as job ids, oldest first — the fairness
    /// tests assert strict alternation on this.
    pub fn turns(&self) -> Vec<String> {
        let tickets = self.inner.gate.turns();
        let s = self.inner.state.lock().expect("scheduler poisoned");
        tickets
            .into_iter()
            .filter_map(|t| s.tickets.get(&t).cloned())
            .collect()
    }

    /// Stops the daemon: refuses new work, interrupts every running
    /// job at its next batch boundary (leaving resumable checkpoints),
    /// and joins all worker threads. Queued jobs stay queued in the
    /// registry for the next daemon over this store.
    pub fn shutdown(&self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.work_cv.notify_all();
        {
            let s = self.inner.state.lock().expect("scheduler poisoned");
            for entry in s.jobs.values() {
                if let Some(control) = &entry.control {
                    control.cancel();
                }
                if let Some(flag) = &entry.gate_cancel {
                    flag.store(true, Ordering::SeqCst);
                }
            }
        }
        self.inner.gate.poke();
        if let Some(handle) = self.dispatcher.lock().expect("scheduler poisoned").take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.gc.lock().expect("scheduler poisoned").take() {
            let _ = handle.join();
        }
        loop {
            let worker = {
                let mut s = self.inner.state.lock().expect("scheduler poisoned");
                s.workers.pop()
            };
            match worker {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
        if let Some(aggregate) = &self.inner.aggregate {
            use std::io::Write;
            let _ = aggregate.lock().expect("sink poisoned").flush();
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::SeqCst)
    }
}

fn dispatch_loop(inner: &Arc<Inner>) {
    loop {
        let id = {
            let mut s = inner.state.lock().expect("scheduler poisoned");
            loop {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                if s.active < inner.opts.max_active {
                    if let Some(id) = s.queue.pop_front() {
                        s.active += 1;
                        break id;
                    }
                }
                let (guard, _) = inner
                    .work_cv
                    .wait_timeout(s, Duration::from_millis(200))
                    .expect("scheduler poisoned");
                s = guard;
            }
        };
        let worker = {
            let inner = Arc::clone(inner);
            std::thread::spawn(move || run_job(&inner, &id))
        };
        inner
            .state
            .lock()
            .expect("scheduler poisoned")
            .workers
            .push(worker);
    }
}

fn gc_loop(inner: &Arc<Inner>, interval: Duration) {
    let tick = Duration::from_millis(50);
    loop {
        // Sleep in short ticks so shutdown stays responsive.
        let mut waited = Duration::ZERO;
        while waited < interval {
            if inner.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(tick.min(interval - waited));
            waited += tick;
        }
        if inner.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        // Live writers are protected by their leases; everything else
        // compacts underneath the running jobs.
        let _ = inner.store.gc();
    }
}

/// Everything derived from one job spec: the problem, the clamped
/// repair config, the trial count, and the session identity.
struct BuiltJob {
    config: Config,
    problem: RepairProblem,
    repair: RepairConfig,
    trials: u32,
    session_hex: String,
}

fn build_job(spec: &JobSpec, opts: &ServeOpts, strip_halt: bool) -> Result<BuiltJob, ConfigError> {
    let mut config = Config::load(std::path::Path::new(&spec.conf))?;
    for (key, value) in &spec.overrides {
        config.set(key, value)?;
    }
    if strip_halt {
        config.unset("halt_after");
    }
    let problem = conf::build_problem(&config)?;
    let mut repair = conf::repair_config(&config)?;
    if let Some(cap) = opts.max_evals_per_job {
        repair.max_fitness_evals = repair.max_fitness_evals.min(cap);
    }
    if let Some(cap) = opts.max_seconds_per_job {
        repair.timeout = repair.timeout.min(Duration::from_secs(cap));
    }
    let trials: u32 = config.num_or("trials", 3u32)?;
    let scenario = problem_digest(&problem, &repair);
    let session_hex = session_digest(scenario, &repair, trials).to_hex();
    Ok(BuiltJob {
        config,
        problem,
        repair,
        trials,
        session_hex,
    })
}

/// Builds the job's observer: its config's own (untagged, batch-
/// identical) trace, the daemon's job-tagged aggregate trace, and the
/// in-memory progress snapshot for `watch`.
fn job_observer(
    built: &BuiltJob,
    job_id: &str,
    aggregate: Option<&Arc<Mutex<BufWriter<File>>>>,
    progress: &Arc<Progress>,
) -> Result<Observer, ConfigError> {
    let mut sinks: Vec<Box<dyn TelemetrySink>> = Vec::new();
    sinks.extend(conf::trace_sink(&built.config)?);
    if let Some(writer) = aggregate {
        sinks.push(Box::new(TaggedJsonLinesSink::new(
            "job",
            job_id,
            Arc::clone(writer),
        )));
    }
    sinks.push(Box::new(ProgressSink {
        progress: Arc::clone(progress),
    }));
    Ok(Observer::new(Arc::new(FanoutSink::new(sinks))))
}

fn run_job(inner: &Arc<Inner>, id: &str) {
    // Mark running and fish out the job's spec under the lock.
    let (spec, strip_halt, progress) = {
        let mut s = inner.state.lock().expect("scheduler poisoned");
        let Some(entry) = s.jobs.get_mut(id) else {
            s.active -= 1;
            inner.idle_cv.notify_all();
            return;
        };
        entry.record.state = JobState::Running;
        entry.record.detail = String::new();
        let out = (
            entry.record.spec.clone(),
            entry.strip_halt,
            Arc::clone(&entry.progress),
        );
        let record = entry.record.clone();
        drop(s);
        inner.append_registry(&record);
        out
    };

    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute_job(inner, id, &spec, strip_halt, &progress)
    }));
    let (state, detail) = match outcome {
        Ok((state, detail)) => (state, detail),
        Err(_) => (JobState::Failed, "job thread panicked".to_string()),
    };

    let record = {
        let mut s = inner.state.lock().expect("scheduler poisoned");
        s.active -= 1;
        let Some(entry) = s.jobs.get_mut(id) else {
            inner.idle_cv.notify_all();
            return;
        };
        entry.record.state = state;
        entry.record.detail = detail;
        entry.control = None;
        entry.gate_cancel = None;
        entry.progress.finish();
        entry.record.clone()
    };
    inner.append_registry(&record);
    inner.work_cv.notify_all();
    inner.idle_cv.notify_all();
}

/// The job body: build, register with the gate, run the session, map
/// the result onto the job state machine, and write the artifacts.
fn execute_job(
    inner: &Arc<Inner>,
    id: &str,
    spec: &JobSpec,
    strip_halt: bool,
    progress: &Arc<Progress>,
) -> (JobState, String) {
    let built = match build_job(spec, &inner.opts, strip_halt) {
        Ok(b) => b,
        Err(e) => return (JobState::Failed, e.to_string()),
    };
    let observer = match job_observer(&built, id, inner.aggregate.as_ref(), progress) {
        Ok(o) => o,
        Err(e) => return (JobState::Failed, e.to_string()),
    };

    let gate_cancel = Arc::new(AtomicBool::new(false));
    let ticket = inner.gate.register();
    let control = SearchControl::with_gate(Arc::new(JobGate {
        gate: Arc::clone(&inner.gate),
        ticket,
        cancelled: Arc::clone(&gate_cancel),
        holding: AtomicBool::new(false),
    }));
    {
        let mut s = inner.state.lock().expect("scheduler poisoned");
        s.tickets.insert(ticket, id.to_string());
        if let Some(entry) = s.jobs.get_mut(id) {
            entry.control = Some(control.clone());
            entry.gate_cancel = Some(Arc::clone(&gate_cancel));
            // A cancel (or shutdown) that raced the startup applies now.
            if inner.shutting_down.load(Ordering::SeqCst)
                || entry.record.state == JobState::Cancelled
            {
                control.cancel();
                gate_cancel.store(true, Ordering::SeqCst);
            }
        }
    }

    let mut repair = built.repair.clone();
    repair.observer = observer.clone();
    repair.control = control.clone();
    let result = repair_session(
        &built.problem,
        &repair,
        built.trials,
        &inner.opts.store_dir,
        true,
    );
    observer.flush();
    inner.gate.deregister(ticket);

    let (state, detail) = match &result {
        Err(e) => (JobState::Failed, e.to_string()),
        Ok(r) if r.status == RepairStatus::Interrupted => {
            if control.is_cancelled() {
                if inner.shutting_down.load(Ordering::SeqCst) {
                    (
                        JobState::Interrupted,
                        format!(
                            "interrupted by shutdown at generation {} — resumable",
                            r.generations
                        ),
                    )
                } else {
                    (
                        JobState::Cancelled,
                        format!("cancelled at generation {} — resumable", r.generations),
                    )
                }
            } else {
                // A configured halt_after tripped: the deterministic
                // stand-in for a crash. Resumable, like the real thing.
                (
                    JobState::Interrupted,
                    format!("halted at generation {} — resumable", r.generations),
                )
            }
        }
        Ok(r) if r.is_plausible() => (JobState::Plausible, "plausible repair found".into()),
        Ok(r) => (JobState::Failed, format!("{:?}", r.status)),
    };

    // Artifacts mirror `cirfix repair`: the canonical result JSON and,
    // on success, the repaired design.
    if let Ok(r) = &result {
        if state == JobState::Plausible || state == JobState::Failed {
            if let Ok(path) = built.config.required("result_out") {
                let json = result_to_canonical_json(r).to_json();
                let _ = std::fs::write(path, format!("{json}\n"));
            }
        }
        if state == JobState::Plausible {
            let out_path = built.config.string_or("output", "repaired.v");
            match &r.repaired_source {
                Some(source) => {
                    let _ = std::fs::write(&out_path, source);
                }
                None => {
                    let (repaired, _) = apply_patch(
                        &built.problem.source,
                        &built.problem.design_modules,
                        &r.patch,
                    );
                    let _ =
                        std::fs::write(&out_path, cirfix_ast::print::source_to_string(&repaired));
                }
            }
        }
    }
    (state, detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_gate_rotates_strictly_round_robin() {
        let gate = Arc::new(FairGate::new());
        let a = gate.register();
        let b = gate.register();
        let mut handles = Vec::new();
        for ticket in [a, b] {
            let gate = Arc::clone(&gate);
            handles.push(std::thread::spawn(move || {
                let cancel = AtomicBool::new(false);
                for _ in 0..8 {
                    assert!(gate.acquire(ticket, &cancel));
                    gate.release(ticket);
                }
                gate.deregister(ticket);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let turns = gate.turns();
        assert_eq!(turns.len(), 16);
        // Registration order fixes who goes first; after that the
        // rotation alternates strictly.
        for pair in turns.chunks(2) {
            assert_eq!(pair, [a, b], "log was {turns:?}");
        }
    }

    #[test]
    fn cancelled_acquire_returns_without_holding() {
        let gate = Arc::new(FairGate::new());
        let a = gate.register();
        let b = gate.register();
        let cancel_a = AtomicBool::new(false);
        // `b` is registered but never acquires, so after `a`'s first
        // turn the rotation fronts `b` and `a` must wait — until its
        // cancel flag trips.
        assert!(gate.acquire(a, &cancel_a));
        gate.release(a);
        cancel_a.store(true, Ordering::SeqCst);
        gate.poke();
        assert!(!gate.acquire(a, &cancel_a));
        // A release paired with a failed acquire must not disturb the
        // rotation: `b` still acquires instantly.
        let job_gate = JobGate {
            gate: Arc::clone(&gate),
            ticket: a,
            cancelled: Arc::new(AtomicBool::new(true)),
            holding: AtomicBool::new(false),
        };
        BatchGate::acquire(&job_gate);
        BatchGate::release(&job_gate);
        let cancel_b = AtomicBool::new(false);
        assert!(gate.acquire(b, &cancel_b));
        gate.release(b);
    }

    #[test]
    fn departed_jobs_unblock_the_rotation() {
        let gate = Arc::new(FairGate::new());
        let a = gate.register();
        let b = gate.register();
        // `a` leaves without ever taking a turn; `b` must proceed.
        gate.deregister(a);
        let cancel = AtomicBool::new(false);
        assert!(gate.acquire(b, &cancel));
        gate.release(b);
    }

    #[test]
    fn progress_versions_and_terminates() {
        let p = Progress::default();
        let (v0, hb, done) = p.snapshot();
        assert!(hb.is_none() && !done);
        p.publish(HeartbeatEvent {
            status: "search".into(),
            generation: 3,
            ..HeartbeatEvent::default()
        });
        let (v1, hb, done) = p.wait_newer(v0, Duration::from_secs(1));
        assert!(v1 > v0 && !done);
        assert_eq!(hb.unwrap().generation, 3);
        p.finish();
        let (_, _, done) = p.wait_newer(v1, Duration::from_secs(1));
        assert!(done);
    }

    #[test]
    fn progress_sink_captures_heartbeats_only() {
        let progress = Arc::new(Progress::default());
        let sink = ProgressSink {
            progress: Arc::clone(&progress),
        };
        sink.record(&Event::Heartbeat(HeartbeatEvent {
            status: "search".into(),
            generation: 7,
            ..HeartbeatEvent::default()
        }));
        sink.record(&Event::Phase(cirfix_telemetry::PhaseEvent {
            name: "parse".into(),
            count: 1,
            nanos: 1,
        }));
        let (_, hb, _) = progress.snapshot();
        assert_eq!(hb.unwrap().generation, 7);
    }

    #[test]
    fn serve_opts_defaults_admit_documented_limits() {
        let opts = ServeOpts::new("/tmp/x");
        assert_eq!((opts.max_active, opts.max_queue), (4, 16));
        assert!(opts.max_evals_per_job.is_none() && opts.max_seconds_per_job.is_none());
    }
}
