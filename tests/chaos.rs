//! Chaos tests: deterministic fault injection against the evaluation
//! pipeline.
//!
//! The contract under test is fault *containment*: a candidate that
//! panics, hangs, or fails its simulation is classified and scored
//! worst-fitness — the run never aborts, no worker is poisoned, and
//! wherever the engine promises bit-determinism the promise survives
//! the injected faults. Store-write failures are retried with backoff;
//! transient ones are invisible in the results, persistent ones degrade
//! the cache to memory-only and the search completes anyway.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cirfix::{
    repair_session, repair_with_trials, result_to_canonical_json, Counter, EvalOutcome,
    FaultInjector, FaultPlan, Observer, Patch, RepairConfig, Repairer,
};
use cirfix_telemetry::{Event, TelemetrySink};

fn scenario_problem() -> cirfix::RepairProblem {
    cirfix_benchmarks::scenario("flip_flop_cond")
        .expect("known scenario")
        .problem()
        .expect("scenario builds")
}

/// A chaos-run configuration: the wall clock pushed out of reach (the
/// evaluation budget bounds the run), a per-candidate budget so hangs
/// resolve, and a fresh injector for `plan`.
fn config(jobs: usize, plan: &str) -> RepairConfig {
    let plan = FaultPlan::parse(plan).expect("valid fault plan");
    RepairConfig {
        jobs,
        timeout: Duration::from_secs(3600),
        popn_size: 60,
        max_generations: 3,
        max_fitness_evals: 400,
        eval_timeout: Some(Duration::from_millis(300)),
        faults: (!plan.is_empty()).then(|| FaultInjector::new(plan)),
        ..RepairConfig::fast(5)
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cirfix-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Collects the `kind` of every `eval_outcome` event.
#[derive(Default)]
struct OutcomeSink(Mutex<Vec<String>>);

impl TelemetrySink for OutcomeSink {
    fn record(&self, event: &Event) {
        if let Event::EvalOutcome(o) = event {
            self.0.lock().expect("sink poisoned").push(o.kind.clone());
        }
    }
}

/// Counts `store` events with op `"degraded"`.
#[derive(Default)]
struct DegradedSink(AtomicU64);

impl TelemetrySink for DegradedSink {
    fn record(&self, event: &Event) {
        if let Event::Store(st) = event {
            if st.op == "degraded" {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Panicking, hanging, and sim-failing candidates are all contained —
/// and because fault ordinals are claimed at dispatch on the
/// coordinating thread, the whole injected run stays bit-identical for
/// any worker count.
#[test]
fn injected_faults_are_contained_and_bit_identical_across_worker_counts() {
    let problem = scenario_problem();
    const PLAN: &str = "panic@2,hang@4,simerr@6";

    let mut canonical = Vec::new();
    for jobs in [1usize, 4] {
        let result = repair_with_trials(&problem, &config(jobs, PLAN), 2);
        assert!(
            result.totals.counters[Counter::Panics] >= 1,
            "jobs={jobs}: the injected panic must be contained and counted"
        );
        assert!(
            result.totals.counters[Counter::Timeouts] >= 1,
            "jobs={jobs}: the injected hang must be cancelled and counted"
        );
        canonical.push(result_to_canonical_json(&result).to_json());
    }
    assert_eq!(
        canonical[0], canonical[1],
        "an injected run must stay byte-identical across worker counts"
    );
}

/// Each fault kind lands in its own outcome class, is visible in the
/// telemetry stream, and bumps exactly its own run-total counter.
#[test]
fn each_fault_kind_is_classified_and_counted() {
    let problem = scenario_problem();
    let cases = [
        ("panic@1", "panicked"),
        ("hang@1", "timeout"),
        ("simerr@1", "runtime"),
    ];
    for (plan, expected) in cases {
        let sink = Arc::new(OutcomeSink::default());
        let mut rc = config(1, plan);
        rc.observer = Observer::new(sink.clone());
        let result = repair_with_trials(&problem, &rc, 1);
        let kinds = sink.0.lock().expect("sink poisoned").clone();
        assert!(
            kinds.iter().any(|k| k == expected),
            "plan {plan}: expected an `{expected}` outcome event, got {kinds:?}"
        );
        assert_eq!(
            result.totals.counters[Counter::Panics],
            u64::from(expected == "panicked"),
            "plan {plan}: panic counter"
        );
        assert_eq!(
            result.totals.counters[Counter::Timeouts],
            u64::from(expected == "timeout"),
            "plan {plan}: timeout counter"
        );
    }
}

/// Collects every `eval_outcome` kind and minimization candidate in
/// emission order.
#[derive(Default)]
struct ProbeLog(Mutex<Vec<String>>);

impl TelemetrySink for ProbeLog {
    fn record(&self, event: &Event) {
        let entry = match event {
            Event::EvalOutcome(o) => o.kind.clone(),
            Event::Candidate(c) if c.op == "minimize" && !c.cached => "minimize".to_string(),
            _ => return,
        };
        self.0.lock().expect("sink poisoned").push(entry);
    }
}

/// Fault ordinals are claimed by minimization probes too: a panic
/// scheduled for the first simulated probe of the minimizer is
/// contained, counted, and leaves the run byte-identical across worker
/// counts.
#[test]
fn panic_inside_minimization_is_contained_and_counted() {
    let problem = cirfix_benchmarks::scenario("counter_reset")
        .expect("known scenario")
        .problem()
        .expect("scenario builds");
    let rc = |jobs: usize, plan: &str| {
        let plan = FaultPlan::parse(plan).expect("valid fault plan");
        RepairConfig {
            jobs,
            faults: (!plan.is_empty()).then(|| FaultInjector::new(plan)),
            ..RepairConfig::fast(2)
        }
    };

    // A clean run locates the first simulated minimization probe: its
    // ordinal is the number of simulations claimed before it (rejected
    // candidates claim none).
    let log = Arc::new(ProbeLog::default());
    let mut clean = rc(1, "");
    clean.observer = Observer::new(log.clone());
    let clean = cirfix::repair(&problem, clean);
    assert!(clean.is_plausible() && clean.minimize_evals >= 1);
    let entries = log.0.lock().expect("sink poisoned").clone();
    let first_probe = entries
        .iter()
        .position(|e| e == "minimize")
        .expect("minimization simulated a probe");
    let ordinal = entries[..first_probe]
        .iter()
        .filter(|e| *e != "minimize" && *e != "rejected")
        .count()
        - 1;

    let plan = format!("panic@{ordinal}");
    let mut canonical = Vec::new();
    for jobs in [1usize, 4] {
        let log = Arc::new(ProbeLog::default());
        let mut injected = rc(jobs, &plan);
        injected.observer = Observer::new(log.clone());
        let result = cirfix::repair(&problem, injected);
        assert!(
            result.is_plausible(),
            "jobs={jobs}: the search result stands"
        );
        assert_eq!(
            result.totals.counters[Counter::Panics],
            1,
            "jobs={jobs}: the panic is counted"
        );
        let entries = log.0.lock().expect("sink poisoned").clone();
        let first_probe = entries.iter().position(|e| e == "minimize");
        assert_eq!(
            first_probe.map(|i| entries[i - 1].as_str()),
            Some("panicked"),
            "jobs={jobs}: the panic lands on the first minimization probe"
        );
        canonical.push(result_to_canonical_json(&result).to_json());
    }
    assert_eq!(canonical[0], canonical[1]);
}

/// A hanging candidate is cancelled cooperatively: the synchronous
/// evaluation path returns a worst-fitness `timeout` classification
/// within twice the per-candidate budget.
#[test]
fn hanging_candidate_is_cancelled_within_twice_its_budget() {
    let problem = scenario_problem();
    let budget = Duration::from_millis(300);
    let mut rc = config(1, "hang@0");
    rc.eval_timeout = Some(budget);
    let mut repairer = Repairer::new(&problem, rc);

    let started = Instant::now();
    let eval = repairer.evaluate_patch(&Patch::empty());
    let elapsed = started.elapsed();

    assert_eq!(eval.outcome, EvalOutcome::Timeout);
    assert_eq!(eval.score.to_bits(), 0f64.to_bits(), "worst fitness");
    assert!(
        elapsed < budget * 2,
        "hang must be cancelled within 2x its budget, took {elapsed:?}"
    );
}

/// Under the batch path, a hang stalls neither worker count: the run
/// completes, counts exactly one timeout, and both runs agree.
#[test]
fn batch_hang_is_contained_for_every_worker_count() {
    let problem = scenario_problem();
    for jobs in [1usize, 4] {
        let mut rc = config(jobs, "hang@3");
        rc.popn_size = 8;
        rc.max_generations = 1;
        rc.max_fitness_evals = 12;
        let started = Instant::now();
        let result = repair_with_trials(&problem, &rc, 1);
        let elapsed = started.elapsed();
        assert_eq!(
            result.totals.counters[Counter::Timeouts],
            1,
            "jobs={jobs}: exactly the injected hang times out"
        );
        // One 300 ms budget plus generous slack for the real (fast)
        // simulations around it — nowhere near a stall.
        assert!(
            elapsed < Duration::from_secs(2),
            "jobs={jobs}: run must not stall on the hang, took {elapsed:?}"
        );
    }
}

/// Transient store-write failures are absorbed by the retry/backoff
/// path: the run's canonical result is byte-identical to an uninjected
/// run, durability included (`store_writes` match because every retried
/// write eventually lands).
#[test]
fn transient_store_faults_leave_results_byte_identical() {
    let problem = scenario_problem();

    let clean_dir = fresh_dir("clean");
    let clean = repair_session(&problem, &config(1, ""), 2, &clean_dir, false)
        .expect("uninjected session runs");

    let faulty_dir = fresh_dir("transient");
    let injected = repair_session(
        &problem,
        &config(1, "storefail@0,storefail@2,transient"),
        2,
        &faulty_dir,
        false,
    )
    .expect("injected session runs");

    assert_eq!(
        result_to_canonical_json(&clean).to_json(),
        result_to_canonical_json(&injected).to_json(),
        "transient store faults must be invisible in the canonical result"
    );

    let _ = std::fs::remove_dir_all(clean_dir);
    let _ = std::fs::remove_dir_all(faulty_dir);
}

/// A store write that fails every retry degrades the cache to
/// memory-only — reported once via telemetry — and the search completes
/// with the same repair as an uninjected run; only durability is lost.
#[test]
fn persistent_store_failure_degrades_to_memory_and_completes() {
    let problem = scenario_problem();

    let clean_dir = fresh_dir("clean-hard");
    let clean = repair_session(&problem, &config(1, ""), 2, &clean_dir, false)
        .expect("uninjected session runs");

    let degraded = Arc::new(DegradedSink::default());
    let faulty_dir = fresh_dir("hard");
    let mut rc = config(1, "storefail@1");
    rc.observer = Observer::new(degraded.clone());
    let injected =
        repair_session(&problem, &rc, 2, &faulty_dir, false).expect("degraded session completes");

    assert_eq!(
        degraded.0.load(Ordering::Relaxed),
        1,
        "degradation must be reported exactly once"
    );
    assert_eq!(injected.patch, clean.patch, "same repair either way");
    assert_eq!(
        injected.best_fitness.to_bits(),
        clean.best_fitness.to_bits()
    );
    assert_eq!(injected.fitness_evals, clean.fitness_evals);
    assert!(
        injected.totals.counters[Counter::StoreWrites]
            < clean.totals.counters[Counter::StoreWrites],
        "a degraded run persists fewer records than a healthy one"
    );

    let _ = std::fs::remove_dir_all(clean_dir);
    let _ = std::fs::remove_dir_all(faulty_dir);
}
