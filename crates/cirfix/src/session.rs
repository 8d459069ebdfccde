//! Resumable repair sessions over a persistent store.
//!
//! A *session* is one [`repair_session`] invocation: up to `trials`
//! seeded GP trials over one scenario, identified by the
//! [`crate::persist::session_digest`] of everything that shapes the
//! search trajectory. The session writes three kinds of durable state
//! into a [`Store`]:
//!
//! * **evaluations** — every simulated (or statically rejected)
//!   variant, keyed by its content fingerprint, shared across trials,
//!   sessions, and hosts;
//! * **a session log** — a checkpoint at every generation boundary
//!   (RNG state, counters, population, best-so-far) interleaved with
//!   cache-delta records naming the trial-cache entries, so a killed
//!   run resumes *bit-identically* from the last boundary;
//! * **a corpus** — every plausible repair found, with its scenario,
//!   seed, patch, and repaired source.
//!
//! Damaged records (torn tails, checksum mismatches) are detected,
//! reported through telemetry, and skipped — a corrupted store degrades
//! into extra simulations, never into a wrong cached fitness or a
//! crash.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::time::Duration;

use cirfix_store::{field, field_str, field_u64, Digest, EvalWriter, SegmentWriter, Store};
use cirfix_telemetry::{Event, JsonValue, StoreEvent};

use crate::counters::{Counter, Counters};
use crate::evaluator::{resolve_logged, Evaluation};
use crate::faults::FaultInjector;
use crate::oracle::RepairProblem;
use crate::patch::Patch;
use crate::persist::{
    evaluation_from_json, evaluation_to_json, f64_array_bits, patch_from_json, patch_to_json,
    problem_digest, session_digest, totals_from_json, totals_to_json,
};
use crate::repair::{RepairConfig, RepairResult, RepairStatus, Repairer, RunTotals};

// ---------------------------------------------------------------------------
// Errors

/// Why a session could not run or resume.
#[derive(Debug)]
pub enum SessionError {
    /// The store could not be read or written.
    Io(io::Error),
    /// The session log (or the evaluations it references) is too
    /// damaged to resume from. Re-running without `--resume` starts the
    /// session over, still reusing every intact cached evaluation.
    Corrupt(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "store I/O error: {e}"),
            SessionError::Corrupt(msg) => write!(f, "session log unusable: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<io::Error> for SessionError {
    fn from(e: io::Error) -> SessionError {
        SessionError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Shared evaluation cache (L2)

/// How many write attempts (1 initial + retries) a store write gets
/// before the cache degrades to memory-only.
const STORE_WRITE_ATTEMPTS: u32 = 4;

/// Backoff before each retry of a failed store write.
const STORE_WRITE_BACKOFF: [Duration; 3] = [
    Duration::from_millis(1),
    Duration::from_millis(4),
    Duration::from_millis(16),
];

struct CacheInner {
    mem: std::sync::Mutex<HashMap<u128, Evaluation>>,
    writer: Option<std::sync::Mutex<EvalWriter>>,
    // Set once the disk backing has failed past its retry budget: the
    // cache keeps serving (and absorbing) evaluations from memory, but
    // stops attempting writes.
    degraded: std::sync::atomic::AtomicBool,
    // One-shot flag for the caller to notice (and report) the
    // degradation exactly once.
    degraded_unreported: std::sync::atomic::AtomicBool,
    // Chaos-testing hook: scheduled store-write failures.
    faults: std::sync::Mutex<Option<FaultInjector>>,
}

/// A fingerprint-keyed evaluation cache shared across trials — and,
/// when opened over a [`Store`], across processes: lookups answer from
/// memory, inserts write through to an append-only on-disk segment.
///
/// Cloning is cheap (an `Arc`); all clones share one cache.
#[derive(Clone)]
pub struct SharedEvalCache {
    inner: std::sync::Arc<CacheInner>,
}

impl SharedEvalCache {
    /// An in-memory cache with no disk backing (cross-trial reuse
    /// within one process).
    pub fn memory() -> SharedEvalCache {
        SharedEvalCache {
            inner: std::sync::Arc::new(CacheInner {
                mem: std::sync::Mutex::new(HashMap::new()),
                writer: None,
                degraded: std::sync::atomic::AtomicBool::new(false),
                degraded_unreported: std::sync::atomic::AtomicBool::new(false),
                faults: std::sync::Mutex::new(None),
            }),
        }
    }

    /// Opens the persistent cache of `store`, loading every intact
    /// evaluation record. Returns the cache and the number of damaged
    /// or undecodable records that were skipped.
    pub fn open(store: &Store) -> io::Result<(SharedEvalCache, u64)> {
        let (entries, health) = store.load_evals()?;
        let mut damaged = (health.corrupt + health.torn) as u64;
        let mut mem = HashMap::new();
        for (key, body) in entries {
            match field(&body, "eval").map(evaluation_from_json) {
                Some(Ok(eval)) => {
                    // Evaluations are deterministic in their key, so
                    // duplicate records (e.g. two writer processes) are
                    // interchangeable; first record wins.
                    mem.entry(key.0).or_insert(eval);
                }
                _ => damaged += 1,
            }
        }
        Ok((
            SharedEvalCache {
                inner: std::sync::Arc::new(CacheInner {
                    mem: std::sync::Mutex::new(mem),
                    writer: Some(std::sync::Mutex::new(store.eval_writer())),
                    degraded: std::sync::atomic::AtomicBool::new(false),
                    degraded_unreported: std::sync::atomic::AtomicBool::new(false),
                    faults: std::sync::Mutex::new(None),
                }),
            },
            damaged,
        ))
    }

    /// Installs a chaos-testing fault injector whose scheduled
    /// store-write failures this cache will honour. Shared by every
    /// clone.
    pub fn set_faults(&self, faults: Option<FaultInjector>) {
        *self.inner.faults.lock().expect("cache poisoned") = faults;
    }

    /// `true` once the disk backing has failed past its retry budget
    /// and the cache is running memory-only.
    pub fn is_degraded(&self) -> bool {
        self.inner
            .degraded
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// One-shot: `true` the first time it is called after the cache
    /// degraded, so the caller can report the degradation exactly once.
    pub fn take_degraded_event(&self) -> bool {
        self.inner
            .degraded_unreported
            .swap(false, std::sync::atomic::Ordering::Relaxed)
    }

    /// Looks up an evaluation by fingerprint.
    pub fn peek(&self, key: Digest) -> Option<Evaluation> {
        self.inner
            .mem
            .lock()
            .expect("cache poisoned")
            .get(&key.0)
            .cloned()
    }

    /// Number of cached evaluations.
    pub fn len(&self) -> usize {
        self.inner.mem.lock().expect("cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an evaluation, writing it through to disk when the
    /// cache is store-backed. Returns `true` only when a record was
    /// persisted (a new key on a disk-backed cache); repeat inserts
    /// and memory-only caches return `false`.
    ///
    /// Transient I/O failures are retried with a bounded backoff
    /// ([`STORE_WRITE_ATTEMPTS`] attempts). A write that fails every
    /// attempt degrades the whole cache to memory-only — the search
    /// continues, only durability is lost — rather than aborting the
    /// run.
    pub fn insert(&self, key: Digest, eval: &Evaluation) -> bool {
        let newly = self
            .inner
            .mem
            .lock()
            .expect("cache poisoned")
            .insert(key.0, eval.clone())
            .is_none();
        if !newly {
            return false;
        }
        let Some(writer) = &self.inner.writer else {
            return false;
        };
        if self.is_degraded() {
            return false;
        }
        let body = JsonValue::obj(vec![
            ("key", JsonValue::Str(key.to_hex())),
            ("eval", evaluation_to_json(eval)),
        ]);
        // The injector decides once per *write* (not per attempt)
        // whether this write is scheduled to fail; its transience flag
        // then governs whether retries clear.
        let fault = self.inner.faults.lock().expect("cache poisoned").clone();
        let injected = fault.as_ref().is_some_and(|f| f.next_store_write_fails());
        let mut last_error: Option<io::Error> = None;
        for attempt in 0..STORE_WRITE_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(STORE_WRITE_BACKOFF[(attempt - 1) as usize]);
            }
            let inject_now =
                injected && (attempt == 0 || fault.as_ref().is_some_and(|f| f.retry_should_fail()));
            let result = if inject_now {
                Err(io::Error::other("injected fault: store write failure"))
            } else {
                writer.lock().expect("cache poisoned").write(&body)
            };
            match result {
                Ok(()) => return true,
                Err(e) => last_error = Some(e),
            }
        }
        // Out of retries: degrade to memory-only with a warning. The
        // evaluation itself is already correct in memory; only
        // durability is lost.
        self.inner
            .degraded
            .store(true, std::sync::atomic::Ordering::Relaxed);
        self.inner
            .degraded_unreported
            .store(true, std::sync::atomic::Ordering::Relaxed);
        let e = last_error.expect("a failed write leaves an error");
        eprintln!(
            "warning: evaluation store write failed {STORE_WRITE_ATTEMPTS} times ({e}); \
             continuing with the in-memory cache only"
        );
        false
    }
}

// ---------------------------------------------------------------------------
// Session log records

/// Everything the engine snapshots at a generation boundary.
pub struct Checkpoint {
    /// Generation index (0 = the seed population).
    pub generation: u32,
    /// RNG state *after* producing this generation.
    pub rng: [u64; 4],
    /// Fitness probes so far.
    pub evals: u64,
    /// Every other counter so far.
    pub counters: Counters,
    /// Wall clock consumed so far.
    pub elapsed: Duration,
    /// Cumulative evaluation-worker busy time so far.
    pub busy: Duration,
    /// Best patch so far.
    pub best_patch: Patch,
    /// Best fitness so far.
    pub best_score: f64,
    /// Best fitness at the end of each completed generation.
    pub history: Vec<f64>,
    /// Strictly increasing best-fitness trajectory.
    pub improvement_steps: Vec<f64>,
    /// The population's patches (evaluations are restored through the
    /// cache-delta records).
    pub population: Vec<Patch>,
    /// The plausible patch, when one was found this generation.
    pub found: Option<Patch>,
}

fn f64_bits_array_from(v: &JsonValue, key: &str) -> Result<Vec<f64>, SessionError> {
    match field(v, key) {
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|i| match i {
                JsonValue::Uint(b) => Ok(f64::from_bits(*b)),
                other => Err(SessionError::Corrupt(format!(
                    "bad float bits in {key:?}: {other:?}"
                ))),
            })
            .collect(),
        other => Err(SessionError::Corrupt(format!(
            "missing array {key:?}: {other:?}"
        ))),
    }
}

/// The counters a checkpoint must carry: every log since checkpoints
/// existed has them. Later counters read as zero when absent.
const CHECKPOINT_REQUIRED: &[Counter] = &[
    Counter::CacheHits,
    Counter::StoreHits,
    Counter::StoreWrites,
    Counter::RejectedStatic,
    Counter::PatchApplies,
];

fn need_u64(v: &JsonValue, key: &str) -> Result<u64, SessionError> {
    field_u64(v, key).ok_or_else(|| SessionError::Corrupt(format!("missing field {key:?}")))
}

fn opt_patch(v: &JsonValue, key: &str) -> Result<Option<Patch>, SessionError> {
    match field(v, key) {
        Some(JsonValue::Null) => Ok(None),
        Some(p) => Ok(Some(patch_from_json(p).map_err(SessionError::Corrupt)?)),
        None => Err(SessionError::Corrupt(format!("missing patch {key:?}"))),
    }
}

/// Appends typed records to one session's log file.
pub struct SessionRecorder {
    writer: SegmentWriter,
    trial: u32,
}

impl SessionRecorder {
    /// Wraps an opened session log.
    pub fn new(writer: SegmentWriter) -> SessionRecorder {
        SessionRecorder { writer, trial: 0 }
    }

    fn write(&mut self, body: &JsonValue) {
        // Durability failures must not take down the search; the log
        // simply ends earlier, and a resume restarts further back.
        let _ = self.writer.write_record(body);
    }

    /// Writes the session header.
    pub fn meta(&mut self, scenario: Digest, session: Digest, trials: u32, config: &RepairConfig) {
        let body = JsonValue::obj(vec![
            ("type", JsonValue::Str("meta".into())),
            ("scenario", JsonValue::Str(scenario.to_hex())),
            ("session", JsonValue::Str(session.to_hex())),
            ("trials", JsonValue::Uint(u64::from(trials))),
            ("seed", JsonValue::Uint(config.seed)),
            ("popn_size", JsonValue::Uint(config.popn_size as u64)),
            (
                "max_generations",
                JsonValue::Uint(u64::from(config.max_generations)),
            ),
        ]);
        self.write(&body);
    }

    /// Marks the start of trial `trial`, recording the totals
    /// accumulated by the trials before it.
    pub fn trial_start(&mut self, trial: u32, totals: &RunTotals) {
        self.trial = trial;
        let body = JsonValue::obj(vec![
            ("type", JsonValue::Str("trial".into())),
            ("trial", JsonValue::Uint(u64::from(trial))),
            ("totals", totals_to_json(totals)),
        ]);
        self.write(&body);
    }

    /// Continues an already-logged trial after a resume (no record is
    /// written — the trial record is already in the log).
    pub fn resume_trial(&mut self, trial: u32) {
        self.trial = trial;
    }

    /// Logs trial-cache inserts since the last checkpoint. Empty deltas
    /// write nothing.
    pub fn cache_delta(&mut self, entries: &[(Patch, Digest)]) {
        if entries.is_empty() {
            return;
        }
        let body = JsonValue::obj(vec![
            ("type", JsonValue::Str("cache".into())),
            ("trial", JsonValue::Uint(u64::from(self.trial))),
            (
                "entries",
                JsonValue::Array(
                    entries
                        .iter()
                        .map(|(p, k)| {
                            JsonValue::obj(vec![
                                ("patch", patch_to_json(p)),
                                ("key", JsonValue::Str(k.to_hex())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        self.write(&body);
    }

    /// Logs a generation-boundary checkpoint.
    pub fn checkpoint(&mut self, cp: &Checkpoint) {
        let mut pairs = vec![
            ("type", JsonValue::Str("checkpoint".into())),
            ("trial", JsonValue::Uint(u64::from(self.trial))),
            ("generation", JsonValue::Uint(u64::from(cp.generation))),
            (
                "rng",
                JsonValue::Array(cp.rng.iter().map(|&w| JsonValue::Uint(w)).collect()),
            ),
            ("evals", JsonValue::Uint(cp.evals)),
        ];
        pairs.extend(cp.counters.json_pairs());
        pairs.extend([
            (
                "elapsed_nanos",
                JsonValue::Uint(cp.elapsed.as_nanos() as u64),
            ),
            ("busy_nanos", JsonValue::Uint(cp.busy.as_nanos() as u64)),
            ("best_patch", patch_to_json(&cp.best_patch)),
            ("best_bits", JsonValue::Uint(cp.best_score.to_bits())),
            ("history_bits", f64_array_bits(&cp.history)),
            ("improvement_bits", f64_array_bits(&cp.improvement_steps)),
            (
                "population",
                JsonValue::Array(cp.population.iter().map(patch_to_json).collect()),
            ),
            (
                "found",
                match &cp.found {
                    Some(p) => patch_to_json(p),
                    None => JsonValue::Null,
                },
            ),
        ]);
        self.write(&JsonValue::obj(pairs));
    }

    /// Logs session completion; a log ending in this record is never
    /// resumed (and is reaped by `store gc`).
    pub fn complete(&mut self, status: RepairStatus) {
        let body = JsonValue::obj(vec![
            ("type", JsonValue::Str("complete".into())),
            (
                "status",
                JsonValue::Str(
                    match status {
                        RepairStatus::Plausible => "plausible",
                        RepairStatus::Exhausted => "exhausted",
                        RepairStatus::Interrupted => "interrupted",
                    }
                    .into(),
                ),
            ),
        ]);
        self.write(&body);
    }

    /// Forces the log to stable storage.
    pub fn sync(&mut self) {
        let _ = self.writer.sync();
    }
}

// ---------------------------------------------------------------------------
// Resume state

/// A fully materialized checkpoint, ready to hand to
/// [`Repairer::with_resume`]: every digest has been resolved to its
/// evaluation, so restoring inside the engine is infallible.
pub struct ResumeState {
    /// Trial index being resumed.
    pub trial: u32,
    /// Generation to continue from.
    pub generation: u32,
    /// RNG state at the boundary.
    pub rng: [u64; 4],
    /// Fitness probes at the boundary.
    pub evals: u64,
    /// Every other counter at the boundary.
    pub counters: Counters,
    /// Wall clock consumed before the interruption.
    pub elapsed: Duration,
    /// Worker busy time before the interruption.
    pub busy: Duration,
    /// Best (patch, fitness) so far.
    pub best: (Patch, f64),
    /// Best fitness at the end of each completed generation.
    pub history: Vec<f64>,
    /// Strictly increasing best-fitness trajectory.
    pub improvement_steps: Vec<f64>,
    /// The population with evaluations restored.
    pub population: Vec<(Patch, Evaluation)>,
    /// The plausible patch, when found before the interruption.
    pub found: Option<Patch>,
    /// Every trial-cache entry at the boundary (already logged — the
    /// engine must not re-log them).
    pub l1: Vec<(Patch, Evaluation, Digest)>,
    /// Totals accumulated by completed earlier trials.
    pub totals: RunTotals,
}

/// What a session log folds down to.
enum Folded {
    /// No usable checkpoint: run from scratch (still warm through the
    /// evaluation cache).
    Fresh,
    /// The session already ran to completion.
    Complete,
    /// Resume from this materialized checkpoint.
    Resume(Box<ResumeState>),
}

/// Replays a session log into the state at its last checkpoint.
fn fold_session(
    records: &[JsonValue],
    session: Digest,
    shared: &SharedEvalCache,
) -> Result<Folded, SessionError> {
    // Cache deltas accumulate per trial; a checkpoint commits the
    // prefix seen so far (a torn tail can leave a delta record without
    // its checkpoint — those entries must not be restored, or the
    // restored cache would disagree with the checkpoint's counters).
    let mut deltas: HashMap<u32, Vec<(Patch, Digest)>> = HashMap::new();
    let mut trial_totals: HashMap<u32, RunTotals> = HashMap::new();
    let mut last: Option<(JsonValue, u32, usize)> = None; // checkpoint, trial, delta prefix
    let mut complete = false;
    for record in records {
        match field_str(record, "type") {
            Some("meta") => {
                if let Some(s) = field_str(record, "session") {
                    if Digest::from_hex(s) != Some(session) {
                        return Err(SessionError::Corrupt(
                            "session log belongs to a different configuration".into(),
                        ));
                    }
                }
            }
            Some("trial") => {
                let t = need_u64(record, "trial")? as u32;
                let totals = field(record, "totals")
                    .ok_or_else(|| SessionError::Corrupt("trial record missing totals".into()))
                    .and_then(|v| totals_from_json(v).map_err(SessionError::Corrupt))?;
                trial_totals.insert(t, totals);
            }
            Some("cache") => {
                let t = need_u64(record, "trial")? as u32;
                let entries = match field(record, "entries") {
                    Some(JsonValue::Array(items)) => items,
                    other => {
                        return Err(SessionError::Corrupt(format!(
                            "cache record has no entries: {other:?}"
                        )))
                    }
                };
                let bucket = deltas.entry(t).or_default();
                for e in entries {
                    let patch = field(e, "patch")
                        .ok_or_else(|| SessionError::Corrupt("cache entry missing patch".into()))
                        .and_then(|p| patch_from_json(p).map_err(SessionError::Corrupt))?;
                    let key = field_str(e, "key")
                        .and_then(Digest::from_hex)
                        .ok_or_else(|| SessionError::Corrupt("cache entry missing key".into()))?;
                    bucket.push((patch, key));
                }
            }
            Some("checkpoint") => {
                let t = need_u64(record, "trial")? as u32;
                let prefix = deltas.get(&t).map_or(0, Vec::len);
                last = Some((record.clone(), t, prefix));
            }
            Some("complete") => complete = true,
            // Unknown record types are skipped: a newer writer may add
            // kinds this reader does not know.
            _ => {}
        }
    }
    if complete {
        return Ok(Folded::Complete);
    }
    let Some((cp, trial, prefix)) = last else {
        return Ok(Folded::Fresh);
    };

    // Materialize the trial cache: resolve each logged fingerprint
    // against the evaluation store. A missing evaluation is an honest
    // failure — resuming with a guessed fitness would poison the run.
    let l1 = resolve_logged(
        shared,
        deltas.remove(&trial).unwrap_or_default().drain(..prefix),
    )
    .map_err(|key| {
        SessionError::Corrupt(format!(
            "evaluation {} referenced by the session log is missing from the store",
            key.to_hex()
        ))
    })?;
    let by_patch: HashMap<&Patch, &Evaluation> = l1.iter().map(|(p, e, _)| (p, e)).collect();

    let rng: [u64; 4] = match field(&cp, "rng") {
        Some(JsonValue::Array(words)) if words.len() == 4 => {
            let mut out = [0u64; 4];
            for (i, w) in words.iter().enumerate() {
                match w {
                    JsonValue::Uint(v) => out[i] = *v,
                    other => return Err(SessionError::Corrupt(format!("bad rng word: {other:?}"))),
                }
            }
            out
        }
        other => return Err(SessionError::Corrupt(format!("bad rng state: {other:?}"))),
    };

    let population = match field(&cp, "population") {
        Some(JsonValue::Array(items)) => {
            let mut popn = Vec::with_capacity(items.len());
            for item in items {
                let patch = patch_from_json(item).map_err(SessionError::Corrupt)?;
                let eval = by_patch.get(&patch).map(|&e| e.clone()).ok_or_else(|| {
                    SessionError::Corrupt(
                        "population member missing from the checkpointed cache".into(),
                    )
                })?;
                popn.push((patch, eval));
            }
            popn
        }
        other => return Err(SessionError::Corrupt(format!("bad population: {other:?}"))),
    };

    let best_patch = opt_patch(&cp, "best_patch")?
        .ok_or_else(|| SessionError::Corrupt("checkpoint missing best patch".into()))?;
    let state = ResumeState {
        trial,
        generation: need_u64(&cp, "generation")? as u32,
        rng,
        evals: need_u64(&cp, "evals")?,
        counters: Counters::from_json(&cp, CHECKPOINT_REQUIRED).map_err(SessionError::Corrupt)?,
        elapsed: Duration::from_nanos(need_u64(&cp, "elapsed_nanos")?),
        busy: Duration::from_nanos(need_u64(&cp, "busy_nanos")?),
        best: (best_patch, f64::from_bits(need_u64(&cp, "best_bits")?)),
        history: f64_bits_array_from(&cp, "history_bits")?,
        improvement_steps: f64_bits_array_from(&cp, "improvement_bits")?,
        population,
        found: opt_patch(&cp, "found")?,
        l1,
        totals: trial_totals.remove(&trial).unwrap_or_default(),
    };
    Ok(Folded::Resume(Box::new(state)))
}

// ---------------------------------------------------------------------------
// Session driver

/// Runs (or resumes) a persistent repair session: like
/// [`crate::repair_with_trials`], but every evaluation is written
/// through to `store_dir`, a checkpoint lands at every generation
/// boundary, and plausible repairs are appended to the store's corpus.
///
/// With `resume` set, a session log left by an interrupted run
/// continues from its last checkpoint, reproducing the uninterrupted
/// run's result bit-for-bit; a log that already completed is discarded
/// and the session re-runs warm (answered from the evaluation cache).
/// Without `resume`, any existing log for this configuration is
/// replaced.
pub fn repair_session(
    problem: &RepairProblem,
    base: &RepairConfig,
    trials: u32,
    store_dir: &Path,
    resume: bool,
) -> Result<RepairResult, SessionError> {
    let store = Store::open(store_dir)?;
    let scenario = problem_digest(problem, base);
    let session = session_digest(scenario, base, trials);
    let (shared, damaged) = SharedEvalCache::open(&store)?;
    shared.set_faults(base.faults.clone());
    if damaged > 0 {
        base.observer.emit(|| {
            Event::Store(StoreEvent {
                op: "damage".into(),
                key: String::new(),
                records: damaged,
            })
        });
    }

    let log_path = store.session_path(&session.to_hex());
    let mut resume_state: Option<Box<ResumeState>> = None;
    if resume && log_path.exists() {
        let (records, health) = store.load_session(&session.to_hex())?;
        if !health.is_clean() {
            base.observer.emit(|| {
                Event::Store(StoreEvent {
                    op: "damage".into(),
                    key: String::new(),
                    records: (health.corrupt.len() + usize::from(health.torn_tail.is_some()))
                        as u64,
                })
            });
        }
        match fold_session(&records, session, &shared)? {
            Folded::Complete => std::fs::remove_file(&log_path)?,
            Folded::Resume(state) => resume_state = Some(state),
            Folded::Fresh => std::fs::remove_file(&log_path)?,
        }
    } else if log_path.exists() {
        std::fs::remove_file(&log_path)?;
    }

    // Lease the log for the whole run: a concurrent `Store::gc` (the
    // daemon's background sweep, or an operator's `cirfix store gc`)
    // must neither reap this session nor truncate an append in flight.
    let _session_lease = store.session_lease(&session.to_hex())?;
    let mut recorder = SessionRecorder::new(store.session_writer(&session.to_hex())?);
    if resume_state.is_none() {
        recorder.meta(scenario, session, trials, base);
    }

    let start_trial = resume_state.as_ref().map_or(0, |s| s.trial);
    let mut totals = resume_state
        .as_ref()
        .map_or_else(RunTotals::default, |s| s.totals);
    let mut last: Option<RepairResult> = None;
    for t in start_trial..trials.max(1) {
        let config = RepairConfig {
            seed: base.seed.wrapping_add(u64::from(t)),
            ..base.clone()
        };
        let mut repairer = Repairer::new(problem, config).with_store(shared.clone(), scenario);
        match resume_state.take() {
            Some(state) => {
                recorder.resume_trial(t);
                repairer = repairer.with_resume(*state);
            }
            None => recorder.trial_start(t, &totals),
        }
        let mut repairer = repairer.with_session(recorder);
        let mut result = repairer.run();
        recorder = repairer
            .take_session()
            .expect("the recorder survives the trial");

        totals += result.totals;
        result.totals = totals;
        if result.status == RepairStatus::Interrupted {
            // Deterministic halt (halt_after): the log stays open —
            // ending exactly at the last checkpoint — so a resumed run
            // picks up from here.
            recorder.sync();
            return Ok(result);
        }

        if result.is_plausible() {
            // Corpus hygiene: an identical (scenario, patch) pair —
            // e.g. the same session re-run without `--resume` — is
            // recorded once, not once per run.
            let patch_json = patch_to_json(&result.patch);
            let patch_text = patch_json.to_json();
            let scenario_hex = scenario.to_hex();
            let (existing, _) = store.load_corpus()?;
            let duplicate = existing.iter().any(|r| {
                field_str(r, "scenario") == Some(scenario_hex.as_str())
                    && field(r, "patch").is_some_and(|p| p.to_json() == patch_text)
            });
            if duplicate {
                totals.counters[Counter::CorpusSkipped] += 1;
                result.totals = totals;
                base.observer.emit(|| {
                    Event::Store(StoreEvent {
                        op: "corpus_skip".into(),
                        key: scenario_hex.clone(),
                        records: 1,
                    })
                });
            } else {
                // The faulty design, printed with the same
                // design-modules-only convention as `repaired_source`,
                // so `cirfix mine` can replay the pair.
                let faulty_source: Vec<String> = problem
                    .source
                    .modules
                    .iter()
                    .filter(|m| problem.design_modules.contains(&m.name))
                    .map(cirfix_ast::print::module_to_string)
                    .collect();
                let corpus = JsonValue::obj(vec![
                    ("scenario", JsonValue::Str(scenario_hex)),
                    ("session", JsonValue::Str(session.to_hex())),
                    ("trial", JsonValue::Uint(u64::from(t))),
                    (
                        "seed",
                        JsonValue::Uint(base.seed.wrapping_add(u64::from(t))),
                    ),
                    ("patch", patch_json),
                    (
                        "fitness_bits",
                        JsonValue::Uint(result.best_fitness.to_bits()),
                    ),
                    (
                        "unminimized_len",
                        JsonValue::Uint(result.unminimized_len as u64),
                    ),
                    (
                        "generations",
                        JsonValue::Uint(u64::from(result.generations)),
                    ),
                    ("faulty_source", JsonValue::Str(faulty_source.join("\n"))),
                    (
                        "repaired_source",
                        match &result.repaired_source {
                            Some(s) => JsonValue::Str(s.clone()),
                            None => JsonValue::Null,
                        },
                    ),
                ]);
                store.append_corpus(&corpus)?;
            }
            recorder.complete(RepairStatus::Plausible);
            recorder.sync();
            return Ok(result);
        }
        last = Some(result);
    }
    recorder.complete(RepairStatus::Exhausted);
    recorder.sync();
    Ok(last.expect("at least one trial ran"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::COUNTERS;
    use crate::report::RunReport;
    use cirfix_store::parse_json;

    /// A distinct non-zero value for every counter, offset by `base`.
    fn distinct(base: u64) -> Counters {
        let mut c = Counters::default();
        for (i, spec) in COUNTERS.iter().enumerate() {
            c[spec.counter] = base + i as u64;
        }
        c
    }

    #[test]
    fn every_counter_survives_checkpoint_resume_and_report() {
        let dir = std::env::temp_dir().join(format!("cirfix-counters-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).expect("store opens");
        let session = Digest(7);
        let counters = distinct(101);
        let totals = RunTotals {
            trials: 1,
            fitness_evals: 40,
            wall_time: Duration::from_nanos(5_000),
            generations: 3,
            jobs: 2,
            eval_busy: Duration::from_nanos(9_000),
            counters: distinct(201),
        };
        let mut recorder = SessionRecorder::new(store.session_writer(&session.to_hex()).unwrap());
        recorder.trial_start(1, &totals);
        recorder.checkpoint(&Checkpoint {
            generation: 2,
            rng: [1, 2, 3, 4],
            evals: 50,
            counters,
            elapsed: Duration::from_nanos(7_000),
            busy: Duration::from_nanos(8_000),
            best_patch: Patch::empty(),
            best_score: 0.5,
            history: vec![0.25, 0.5],
            improvement_steps: vec![0.5],
            population: Vec::new(),
            found: None,
        });
        recorder.sync();
        let (records, _) = store.load_session(&session.to_hex()).unwrap();

        let Ok(Folded::Resume(state)) = fold_session(&records, session, &SharedEvalCache::memory())
        else {
            panic!("the checkpoint folds into a resume state");
        };
        assert_eq!(state.counters, counters);
        assert_eq!(state.totals, totals);

        let report = RunReport::from_session(&records);
        assert_eq!(report.trials.len(), 1);
        assert_eq!(report.trials[0].counters, counters);
        let json = parse_json(&report.to_json()).expect("report JSON parses");
        let Some(JsonValue::Array(rows)) = field(&json, "trials") else {
            panic!("report JSON has trial rows");
        };
        for spec in COUNTERS {
            assert_eq!(
                field_u64(&rows[0], spec.key),
                Some(counters[spec.counter]),
                "{}",
                spec.key
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_totals_add_every_slot() {
        let one = RunTotals {
            trials: 1,
            fitness_evals: 10,
            wall_time: Duration::from_nanos(3),
            generations: 4,
            jobs: 2,
            eval_busy: Duration::from_nanos(5),
            counters: distinct(1),
        };
        let mut sum = one;
        sum += one;
        let mut doubled = Counters::default();
        for spec in COUNTERS {
            doubled[spec.counter] = 2 * one.counters[spec.counter];
        }
        assert_eq!(
            sum,
            RunTotals {
                trials: 2,
                fitness_evals: 20,
                wall_time: Duration::from_nanos(6),
                generations: 8,
                jobs: 2,
                eval_busy: Duration::from_nanos(10),
                counters: doubled,
            }
        );
    }
}
