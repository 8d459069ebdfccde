//! Acceptance tests for the persistent store: resumable sessions and
//! the warm evaluation cache.
//!
//! The contract under test is the strongest one the subsystem makes:
//! a run killed at a generation boundary and continued with `resume`
//! produces a `RepairResult` *byte-identical* (canonical JSON) to the
//! same-seed run that was never interrupted, for any worker count, and
//! the concatenated telemetry of the two halves matches the
//! uninterrupted trace event-for-event. A warm rerun of a completed
//! scenario must answer every candidate from the store — zero
//! simulations, verified by a counting sink.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cirfix::{repair_session, result_to_canonical_json, Counter, Observer, RepairConfig};
use cirfix_telemetry::{Event, TelemetrySink};

/// Collects every event's JSON rendering, tagged with its kind.
#[derive(Default)]
struct CollectingSink(Mutex<Vec<(String, String)>>);

impl TelemetrySink for CollectingSink {
    fn record(&self, event: &Event) {
        self.0
            .lock()
            .expect("sink poisoned")
            .push((event.kind().to_string(), event.to_json()));
    }
}

/// The deterministic portion of a trace: everything except timing spans
/// and phase/histogram profiles (wall-clock), store operations, and
/// heartbeats — all of which are scoped to one process lifetime, so
/// they legitimately differ between an interrupted-and-resumed pair and
/// one uninterrupted run (the halted half ends with a terminal
/// `interrupted` heartbeat and its own segment's phase totals).
fn deterministic_events(sink: &CollectingSink) -> Vec<String> {
    sink.0
        .lock()
        .expect("sink poisoned")
        .iter()
        .filter(|(kind, _)| {
            !matches!(
                kind.as_str(),
                "span" | "store" | "phase" | "heartbeat" | "histogram"
            )
        })
        .map(|(_, json)| json.clone())
        .collect()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cirfix-resume-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(jobs: usize, observer: Observer) -> RepairConfig {
    RepairConfig {
        jobs,
        // The wall clock is the one legitimately nondeterministic stop
        // condition; push it out of reach so the budget bounds the run.
        timeout: Duration::from_secs(3600),
        popn_size: 60,
        max_generations: 3,
        max_fitness_evals: 400,
        observer,
        ..RepairConfig::fast(5)
    }
}

#[test]
fn interrupted_and_resumed_run_is_byte_identical_to_uninterrupted() {
    let scenario = cirfix_benchmarks::scenario("flip_flop_cond").expect("known scenario");
    let problem = scenario.problem().expect("scenario builds");

    for jobs in [1usize, 4] {
        // Reference: the same seed, never interrupted.
        let full_sink = Arc::new(CollectingSink::default());
        let full_dir = fresh_dir(&format!("full-{jobs}"));
        let full = repair_session(
            &problem,
            &config(jobs, Observer::new(full_sink.clone())),
            2,
            &full_dir,
            false,
        )
        .expect("uninterrupted session runs");

        // The same run "killed" right after the generation-0 checkpoint
        // (halt_after is the deterministic stand-in for kill -9: it
        // stops at exactly the state a checkpoint recovery would see).
        let halt_sink = Arc::new(CollectingSink::default());
        let halt_dir = fresh_dir(&format!("halt-{jobs}"));
        let mut halted_config = config(jobs, Observer::new(halt_sink.clone()));
        halted_config.halt_after = Some(0);
        let halted = repair_session(&problem, &halted_config, 2, &halt_dir, false)
            .expect("halted session runs");
        assert_eq!(
            halted.status,
            cirfix::RepairStatus::Interrupted,
            "jobs={jobs}: halt_after must interrupt the run"
        );

        // ... and continued from its checkpoint.
        let resume_sink = Arc::new(CollectingSink::default());
        let resumed = repair_session(
            &problem,
            &config(jobs, Observer::new(resume_sink.clone())),
            2,
            &halt_dir,
            true,
        )
        .expect("resumed session runs");

        assert_eq!(
            result_to_canonical_json(&full).to_json(),
            result_to_canonical_json(&resumed).to_json(),
            "jobs={jobs}: resumed result must be byte-identical to the uninterrupted one"
        );

        // The two halves of the interrupted run tell the same story as
        // the uninterrupted trace, event for event.
        let mut spliced = deterministic_events(&halt_sink);
        spliced.extend(deterministic_events(&resume_sink));
        assert_eq!(
            deterministic_events(&full_sink),
            spliced,
            "jobs={jobs}: halted + resumed telemetry must equal the uninterrupted trace"
        );

        let _ = std::fs::remove_dir_all(full_dir);
        let _ = std::fs::remove_dir_all(halt_dir);
    }
}

/// The resume contract holds under injected transient store-write
/// failures: a run killed at a checkpoint and resumed — with writes
/// failing (then clearing on retry) in *both* halves — still matches
/// the uninjected, uninterrupted run byte for byte. Only transient
/// faults are meaningful here: injector ordinals restart on resume, so
/// a persistent schedule would hit different writes than an
/// uninterrupted run, by design.
#[test]
fn resume_survives_transient_store_faults_byte_identically() {
    let scenario = cirfix_benchmarks::scenario("flip_flop_cond").expect("known scenario");
    let problem = scenario.problem().expect("scenario builds");
    let faults = || {
        Some(cirfix::FaultInjector::new(
            cirfix::FaultPlan::parse("storefail@0,storefail@3,transient").expect("valid plan"),
        ))
    };

    let full_dir = fresh_dir("clean-full");
    let full = repair_session(&problem, &config(1, Observer::none()), 2, &full_dir, false)
        .expect("uninjected session runs");

    let halt_dir = fresh_dir("faulty-halt");
    let mut halted_config = config(1, Observer::none());
    halted_config.halt_after = Some(0);
    halted_config.faults = faults();
    let halted =
        repair_session(&problem, &halted_config, 2, &halt_dir, false).expect("halted session runs");
    assert_eq!(halted.status, cirfix::RepairStatus::Interrupted);

    let mut resume_config = config(1, Observer::none());
    resume_config.faults = faults();
    let resumed =
        repair_session(&problem, &resume_config, 2, &halt_dir, true).expect("resumed session runs");

    assert_eq!(
        result_to_canonical_json(&full).to_json(),
        result_to_canonical_json(&resumed).to_json(),
        "transient store faults must not perturb the resumed result"
    );

    let _ = std::fs::remove_dir_all(full_dir);
    let _ = std::fs::remove_dir_all(halt_dir);
}

/// Counts simulation events — the ground truth for "was anything
/// actually re-simulated", independent of the totals bookkeeping.
#[derive(Default)]
struct SimCounter(AtomicU64);

impl TelemetrySink for SimCounter {
    fn record(&self, event: &Event) {
        if matches!(event, Event::Sim(_)) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn warm_store_rerun_performs_zero_simulations() {
    let scenario = cirfix_benchmarks::scenario("flip_flop_cond").expect("known scenario");
    let problem = scenario.problem().expect("scenario builds");
    let dir = fresh_dir("warm");

    let cold = repair_session(&problem, &config(1, Observer::none()), 2, &dir, false)
        .expect("cold session runs");
    assert!(
        cold.totals.counters[Counter::StoreWrites] > 0,
        "cold run must populate the store"
    );

    // Same seed, same config, warmed store: every candidate the search
    // generates was already evaluated, so nothing may simulate.
    let sims = Arc::new(SimCounter::default());
    let warm = repair_session(
        &problem,
        &config(1, Observer::new(sims.clone())),
        2,
        &dir,
        false,
    )
    .expect("warm session runs");

    assert_eq!(
        sims.0.load(Ordering::Relaxed),
        0,
        "a warm rerun must answer every evaluation from the store"
    );
    assert_eq!(
        warm.totals.fitness_evals, 0,
        "no fitness simulations on a warm store"
    );
    assert!(
        warm.totals.counters[Counter::StoreHits] > 0,
        "warm run must report its store hits"
    );
    assert_eq!(
        warm.totals.counters[Counter::StoreWrites],
        0,
        "nothing new to persist on a warm rerun"
    );
    assert_eq!(
        warm.patch, cold.patch,
        "the warm trajectory must find the same repair"
    );
    assert_eq!(warm.best_fitness.to_bits(), cold.best_fitness.to_bits());

    let _ = std::fs::remove_dir_all(dir);
}
