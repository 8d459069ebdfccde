//! The `table3-large` and `table3-small` workloads: Table 3's repair
//! loop at the `table3` bin's configuration, one pass over the
//! workload's scenarios after another.
//!
//! Each scenario runs up to three trials, stopping at the first
//! plausible one, and a plausible repair is checked against the
//! held-out verification bench — exactly as the `table3` bin does.

use std::time::Instant;

use cirfix::{apply_patch, repair, verify_repair, RepairResult, RepairStatus};

use crate::expected;
use crate::harness::{self, guarded, mismatch, Opts, Prepared, Tally};
use crate::metrics::Report;
use crate::stats::group_medians;
use crate::trace::Tracer;

/// One scenario's run in one pass.
pub struct ScenarioRun {
    /// Scenario id.
    pub id: &'static str,
    /// First trial start to last trial end (verification excluded).
    pub latency_s: f64,
    /// Whether a trial found a plausible repair.
    pub plausible: bool,
    /// Whether that repair passed the held-out bench.
    pub correct: bool,
    /// Every trial's result, in order.
    pub trials: Vec<RepairResult>,
}

impl ScenarioRun {
    /// Distinct simulations across every trial.
    pub fn evals(&self) -> u64 {
        self.trials.iter().map(|r| r.fitness_evals).sum()
    }

    /// The deciding trial: the plausible one, else the last.
    pub fn last(&self) -> &RepairResult {
        self.trials.last().expect("at least one trial")
    }
}

fn status_name(s: RepairStatus) -> &'static str {
    match s {
        RepairStatus::Plausible => "plausible",
        RepairStatus::Exhausted => "exhausted",
        RepairStatus::Interrupted => "interrupted",
    }
}

/// Runs one scenario's trials and verifies a plausible repair.
fn run_scenario(
    p: &Prepared,
    opts: &Opts,
    jobs: usize,
    tracer: &Tracer,
) -> Result<ScenarioRun, String> {
    let id = p.scenario.id;
    let _span = tracer.span("scenario", Some(id));
    let t0 = Instant::now();
    let mut trials = Vec::new();
    for t in 0..opts.scale.trials.max(1) {
        let config = opts.scale.repair_config(t, jobs);
        let result = guarded(id, || {
            tracer.time("repair", Some(id), || repair(&p.problem, config))
        })?;
        let plausible = result.is_plausible();
        trials.push(result);
        if plausible {
            break;
        }
    }
    let latency_s = t0.elapsed().as_secs_f64();
    let last = trials.last().expect("at least one trial");
    let plausible = last.is_plausible();
    let correct = if plausible {
        let (full, _) = apply_patch(&p.problem.source, &p.problem.design_modules, &last.patch);
        let _v = tracer.span("verify", Some(id));
        guarded(id, || {
            verify_repair(&full, &p.problem.design_modules, &p.golden, &p.verification)
        })?
        .map_err(|e| format!("{id}: verification failed to run: {e}"))?
    } else {
        false
    };
    Ok(ScenarioRun {
        id,
        latency_s,
        plausible,
        correct,
        trials,
    })
}

/// Checks a scenario's outputs against the values pinned from the seed
/// tree: status, simulations, minimized patch length, plausible and
/// correct.
fn check(run: &ScenarioRun, opts: &Opts) -> Option<String> {
    if !opts.scale.pinned {
        return (run.last().status == RepairStatus::Interrupted)
            .then(|| format!("{}: interrupted", run.id));
    }
    let Some(pin) = expected::table3(run.id) else {
        return Some(format!("{}: no pinned outputs", run.id));
    };
    let last = run.last();
    let problems: Vec<String> = [
        mismatch("status", status_name(last.status), pin.status),
        mismatch("fitness_evals", run.evals(), pin.evals),
        mismatch("patch_len", last.patch.len(), pin.patch_len),
        mismatch("plausible", run.plausible, pin.plausible),
        mismatch("correct", run.correct, pin.correct),
    ]
    .into_iter()
    .flatten()
    .collect();
    (!problems.is_empty()).then(|| format!("{}: {}", run.id, problems.join("; ")))
}

/// What one pass left behind.
pub struct Pass {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// Whether spans were recorded during it.
    pub traced: bool,
    /// One run per scenario that completed.
    pub runs: Vec<ScenarioRun>,
}

/// Everything a table3 workload run measured.
pub struct Table3Run {
    /// Problem-build durations, one per set-up repetition.
    pub setup_s: Vec<f64>,
    /// The built problems, in Table 3 order.
    pub prepared: Vec<Prepared>,
    /// The passes.
    pub passes: Vec<Pass>,
    /// Worker threads per search.
    pub jobs: usize,
}

/// Set-up repetitions: the median of nine builds is reported.
const SETUP_REPS: usize = 9;

/// Runs the workload: set-up, then passes until the time budget.
pub fn run(
    large: bool,
    opts: &Opts,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Table3Run, String> {
    // Scenarios run in Table 3 order whatever the seed: the order decides
    // which scenario runs after which in a warm process, and a seeded
    // order spread the small-design latency medians by 16% across seeds
    // against 9% across repeats of one seed.
    let scenarios = harness::table3_scenarios(large, &opts.scale);
    let (prepared, setup_s) = harness::prepare_timed(&scenarios, SETUP_REPS, tracer)?;
    let jobs = crate::sys::nproc();
    let mut passes: Vec<Pass> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    while harness::another_pass(&walls, opts.seconds) {
        // Traced runs alternate untraced and traced passes, so the
        // tracing overhead is measured on the same work.
        let traced = opts.traced && passes.len() % 2 == 1;
        tracer.set_enabled(traced);
        let t0 = Instant::now();
        let mut runs = Vec::new();
        {
            let _pass = tracer.span("pass", None);
            for p in &prepared {
                match run_scenario(p, opts, jobs, tracer) {
                    Ok(r) => {
                        tally.record(check(&r, opts));
                        runs.push(r);
                    }
                    Err(e) => tally.record(Some(e)),
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        walls.push(wall_s);
        passes.push(Pass {
            wall_s,
            traced,
            runs,
        });
    }
    tracer.set_enabled(opts.traced);
    Ok(Table3Run {
        setup_s,
        prepared,
        passes,
        jobs,
    })
}

/// One line per scenario run, with its checked outputs, on stderr.
pub fn log(run: &Table3Run) {
    for (i, pass) in run.passes.iter().enumerate() {
        for r in &pass.runs {
            let last = r.last();
            eprintln!(
                "[pass {i}] {} status={} evals={} patch_len={} plausible={} correct={} \
                 latency_s={:.3} jobs={}",
                r.id,
                status_name(last.status),
                r.evals(),
                last.patch.len(),
                r.plausible,
                r.correct,
                r.latency_s,
                run.jobs,
            );
        }
    }
}

/// The end-to-end metrics of a table3 run.
pub fn end_to_end(run: &Table3Run, report: &mut Report) {
    let passes = &run.passes;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let sims_rate: Vec<f64> = passes
        .iter()
        .map(|p| p.runs.iter().map(ScenarioRun::evals).sum::<u64>() as f64 / p.wall_s)
        .collect();
    let jobs_rate: Vec<f64> = passes
        .iter()
        .map(|p| p.runs.len() as f64 / p.wall_s)
        .collect();
    // Latency medians are taken over scenarios, each at its median
    // across passes: per-pass samples spread the small-design medians by
    // 18% between identical runs.
    let per_job = |passes: &[Pass], plausible_only: bool| {
        group_medians(
            passes
                .iter()
                .flat_map(|p| &p.runs)
                .filter(|r| r.plausible || !plausible_only)
                .map(|r| (r.id, r.latency_s)),
        )
    };
    // Without a store every Table 3 job is cold, so the cold median
    // takes every pass; the warm one takes the passes after the first,
    // where only the process itself is warm.
    let ttp = per_job(passes, true);
    let cold = per_job(passes, false);
    let warm = per_job(&passes[1..], false);
    report.set_median("setup_s", &run.setup_s);
    report.set_median("wall_s", &walls);
    report.set_median("sims_per_s", &sims_rate);
    report.set_median("ttp_p50_s", &ttp);
    let first = &passes[0].runs;
    report.set(
        "plausible",
        first.iter().filter(|r| r.plausible).count() as f64,
        first.len(),
    );
    report.set(
        "correct",
        first.iter().filter(|r| r.correct).count() as f64,
        first.len(),
    );
    report.set_median("cold_job_p50_s", &cold);
    report.set_median("warm_job_p50_s", &warm);
    report.set_median("jobs_per_s", &jobs_rate);
    report.set("peak_rss_mb", crate::sys::peak_rss_mb(), 1);
}

/// The per-layer metrics the search itself exposes: verification time,
/// cache hits, minimization effort, worker utilization, and the replay
/// coverage of the search's evaluation time.
pub fn search_layers(
    run: &Table3Run,
    tracer: &Tracer,
    replay_busy_s: &dyn Fn(&str) -> Option<f64>,
    report: &mut Report,
) {
    let trials = || {
        run.passes
            .iter()
            .flat_map(|p| &p.runs)
            .flat_map(|r| &r.trials)
    };
    let hits: u64 = trials().map(|t| t.cache_hits).sum();
    let sims: u64 = trials().map(|t| t.fitness_evals).sum();
    report.set(
        "repair.cache_hit_ratio",
        hits as f64 / (hits + sims).max(1) as f64,
        trials().count(),
    );
    let minimize: Vec<f64> = run
        .passes
        .iter()
        .map(|p| p.runs.iter().map(|r| r.last().minimize_evals).sum::<u64>() as f64)
        .collect();
    report.set_median("repair.minimize_evals", &minimize);
    let busy: f64 = trials().map(|t| t.totals.eval_busy.as_secs_f64()).sum();
    let capacity: f64 = trials()
        .map(|t| t.wall_time.as_secs_f64() * f64::from(t.totals.jobs.max(1)))
        .sum();
    report.set(
        "engine.worker_util",
        busy / capacity.max(1e-12),
        trials().count(),
    );
    report.set_median("verify.verify_s", &tracer.durations_s("verify"));
    // Replayed per-candidate time × simulations ÷ the search's own
    // evaluation busy time: near 1 when the replay is representative.
    let mut replayed = 0.0;
    let mut counted_busy = 0.0;
    for r in run.passes.iter().flat_map(|p| &p.runs) {
        if let Some(per_candidate) = replay_busy_s(r.id) {
            replayed += per_candidate * r.evals() as f64;
            counted_busy += r
                .trials
                .iter()
                .map(|t| t.totals.eval_busy.as_secs_f64())
                .sum::<f64>();
        }
    }
    report.set(
        "replay.coverage",
        replayed / counted_busy.max(1e-12),
        trials().count(),
    );
    tracing_overhead(
        &run.passes
            .iter()
            .map(|p| (p.traced, p.wall_s))
            .collect::<Vec<_>>(),
        report,
    );
}

/// Traced minus untraced pass wall time (medians); with a single pass
/// of either kind the difference is of single passes.
pub fn tracing_overhead(passes: &[(bool, f64)], report: &mut Report) {
    let of = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.0 == traced)
            .map(|p| p.1)
            .collect()
    };
    let (on, off) = (of(true), of(false));
    let value = crate::stats::median(&on) - crate::stats::median(&off);
    report.set("trace.overhead_s", value, on.len() + off.len());
}
