//! The parallel fitness-evaluation engine: one contained dispatch.
//!
//! Fitness evaluation — one full instrumented-testbench simulation per
//! candidate — is the dominant cost of Algorithm 1 (the paper budgets
//! 12 wall-clock hours per trial, §3.5). Scoring a candidate is a pure
//! function of `(&RepairProblem, variant, FitnessParams)`, so a batch
//! of candidates can be scored concurrently.
//!
//! [`Dispatch::run`] is the only place a candidate is simulated. It
//! fans a batch of [`Probe`]s out over a `std::thread::scope` worker
//! pool under an optional wall-clock deadline, contains every panic,
//! and returns the results **in submission order**. Everything
//! order-sensitive — cache inserts, budget accounting, telemetry,
//! best/`found` tracking — stays with the caller (the
//! [`Evaluator`](crate::evaluator::Evaluator) or the brute-force
//! baseline), which merges on the coordinating thread, so `jobs = 1`
//! and `jobs = 8` produce identical results for the same seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cirfix_ast::SourceFile;
use cirfix_telemetry::{Phase, Profiler};

use crate::evaluator::{evaluate_variant, node_count, Evaluation, Evaluator};
use crate::faults::FaultKind;
use crate::fitness::FitnessParams;
use crate::oracle::RepairProblem;
use crate::outcome::EvalOutcome;
use crate::patch::{apply_patch, Patch};
use crate::repair::RepairConfig;

/// Renders a panic payload (whatever was passed to `panic!`) as text
/// for the contained candidate's error message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolves a requested worker count: `0` means "auto" — the
/// `CIRFIX_JOBS` environment variable when set, otherwise
/// [`std::thread::available_parallelism`].
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("CIRFIX_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `patch` to the problem's source under the profiler's patch
/// phase.
pub(crate) fn apply(
    problem: &RepairProblem,
    patch: &Patch,
    profiler: Option<&Profiler>,
) -> SourceFile {
    let _span = profiler.map(|p| p.span(Phase::Parse));
    apply_patch(&problem.source, &problem.design_modules, patch).0
}

/// One candidate for the worker pool.
pub(crate) enum Probe<'a> {
    /// A variant the coordinating thread already applied, with its
    /// growth factor and the fault (if any) scheduled for it.
    Variant {
        variant: &'a SourceFile,
        growth: f64,
        fault: Option<FaultKind>,
    },
    /// A patch the worker applies itself (the brute-force baseline
    /// keeps patch application on the pool).
    Patch(&'a Patch),
}

/// What every probe of one dispatch shares.
pub(crate) struct Dispatch<'a> {
    pub problem: &'a RepairProblem,
    pub params: FitnessParams,
    /// Worker threads (already resolved; at least one).
    pub jobs: usize,
    /// Probes whose turn comes after this instant are skipped.
    pub deadline: Option<Instant>,
    /// Per-candidate wall-clock budget.
    pub eval_timeout: Option<Duration>,
    pub profiler: Option<&'a Profiler>,
}

impl Dispatch<'_> {
    /// Scores `probes` and returns the results in submission order,
    /// together with the summed worker busy time.
    ///
    /// A probe whose turn comes after the deadline is *skipped*: its
    /// slot stays `None` and no work runs for it. Every other slot is
    /// `Some`, whatever the worker count — the property the determinism
    /// suite pins down.
    ///
    /// Each probe runs under [`catch_unwind`], so a panicking candidate
    /// never tears down its worker or poisons the pool: it is scored
    /// worst-fitness as [`EvalOutcome::Panicked`] and the worker keeps
    /// draining the queue.
    pub(crate) fn run(&self, probes: &[Probe]) -> (Vec<Option<Evaluation>>, Duration) {
        run_pool(self.jobs, self.deadline, probes, |probe| {
            // The closure borrows only shared state, so observing it
            // after an unwind is safe.
            catch_unwind(AssertUnwindSafe(|| self.score(probe))).unwrap_or_else(|payload| {
                let growth = match probe {
                    Probe::Variant { growth, .. } => *growth,
                    Probe::Patch(_) => 1.0,
                };
                let msg = format!("candidate evaluation panicked: {}", panic_message(payload));
                Evaluation::worst(self.problem, EvalOutcome::Panicked, msg, growth)
            })
        })
    }

    fn score(&self, probe: &Probe) -> Evaluation {
        let applied;
        let (variant, growth, fault) = match probe {
            Probe::Variant {
                variant,
                growth,
                fault,
            } => (*variant, *growth, *fault),
            Probe::Patch(patch) => {
                applied = apply(self.problem, patch, self.profiler);
                let growth =
                    node_count(&applied) as f64 / node_count(&self.problem.source).max(1) as f64;
                (&applied, growth, None)
            }
        };
        let t0 = self.profiler.map(|_| Instant::now());
        let eval = evaluate_variant(
            self.problem,
            variant,
            growth,
            self.params,
            self.eval_timeout,
            fault,
            self.profiler,
        );
        // One whole-evaluation latency sample per simulated probe.
        if let (Some(p), Some(t0)) = (self.profiler, t0) {
            p.record_eval(t0.elapsed().as_nanos() as u64);
        }
        eval
    }
}

/// Runs `work` over `items` on a pool of `jobs` scoped worker threads
/// and returns the results in submission order plus the summed busy
/// time. When one worker suffices (a single probe, or `jobs = 1`) the
/// items run inline on the calling thread: no thread is spawned, and
/// the simulator's thread-local compile cache stays warm from one
/// dispatch to the next.
///
/// Workers pull items from a shared queue in submission order, so one
/// slow simulation never blocks the others. An item whose turn comes
/// after `deadline` is skipped and its slot stays `None`.
fn run_pool<T, R, F>(
    jobs: usize,
    deadline: Option<Instant>,
    items: &[T],
    work: F,
) -> (Vec<Option<R>>, Duration)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    let workers = jobs.max(1).min(items.len());
    if workers <= 1 {
        let mut busy = Duration::ZERO;
        let results = items
            .iter()
            .map(|item| {
                if expired() {
                    return None;
                }
                let t0 = Instant::now();
                let r = work(item);
                busy += t0.elapsed();
                Some(r)
            })
            .collect();
        return (results, busy);
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let busy_total = Mutex::new(Duration::ZERO);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut busy = Duration::ZERO;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    // Prompt cancellation: once the wall-clock budget is
                    // gone, drain the queue without simulating anything.
                    if expired() {
                        continue;
                    }
                    let t0 = Instant::now();
                    let r = work(&items[i]);
                    busy += t0.elapsed();
                    *slots[i].lock().expect("worker slot poisoned") = Some(r);
                }
                *busy_total.lock().expect("busy counter poisoned") += busy;
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|m| m.into_inner().expect("worker slot poisoned"))
        .collect();
    (
        results,
        busy_total.into_inner().expect("busy counter poisoned"),
    )
}

/// Evaluates many patches concurrently — the parallel counterpart of
/// calling [`evaluate`](crate::evaluate) in a loop. Results come back
/// in submission order; no budget is involved.
///
/// The patches go through a fresh store-free [`Evaluator`] with no
/// bloat or lint gate, so identical patches within one call are
/// simulated once and share the result.
///
/// `jobs = 0` resolves via [`resolve_jobs`].
pub fn evaluate_many(
    problem: &RepairProblem,
    patches: &[Patch],
    params: FitnessParams,
    jobs: usize,
) -> Vec<Evaluation> {
    let config = RepairConfig {
        fitness: params,
        jobs,
        max_growth: f64::MAX,
        ..RepairConfig::paper()
    };
    Evaluator::new(problem, &config)
        .evaluate(patches, &[], false)
        .into_iter()
        .map(|e| e.expect("an unbudgeted evaluation always resolves"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_pool_preserves_submission_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 3, 8] {
            let (out, _) = run_pool(jobs, None, &items, |&x| x * 2);
            let got: Vec<u64> = out.into_iter().map(Option::unwrap).collect();
            assert_eq!(got, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn run_pool_skips_items_past_the_deadline() {
        let items: Vec<u64> = (0..64).collect();
        let deadline = Instant::now(); // already expired
        for jobs in [1, 4] {
            let (out, busy) = run_pool(jobs, Some(deadline), &items, |&x| x);
            assert!(out.iter().all(Option::is_none), "all items skipped");
            assert_eq!(busy, Duration::ZERO);
        }
    }

    #[test]
    fn run_pool_handles_empty_input() {
        let (out, busy) = run_pool::<u64, u64, _>(4, None, &[], |&x| x);
        assert!(out.is_empty());
        assert_eq!(busy, Duration::ZERO);
    }

    #[test]
    fn resolve_jobs_honours_explicit_requests() {
        assert_eq!(resolve_jobs(3), 3);
        assert_eq!(resolve_jobs(1), 1);
        assert!(resolve_jobs(0) >= 1);
    }
}
