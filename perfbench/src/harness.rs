//! What every workload shares: run options, search scale, the seeded
//! input order, problem set-up and failure accounting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use cirfix::{RepairConfig, RepairProblem, Verification};
use cirfix_ast::SourceFile;
use cirfix_benchmarks::Scenario;

use crate::trace::Tracer;

/// Options of one workload run.
pub struct Opts {
    /// Input seed: draws the replay sample.
    pub seed: u64,
    /// Time budget of the measured section: whole passes run while the
    /// next one is expected to fit, and at least two always run.
    pub seconds: f64,
    /// Traced run: spans, the per-candidate replay and the per-layer
    /// metrics instead of the end-to-end ones.
    pub traced: bool,
    /// Search scale and scenario count.
    pub scale: Scale,
    /// Where stores, fixtures, traces and records go.
    pub out_dir: PathBuf,
}

/// How much search each scenario gets. [`Scale::TABLE3`] is the `table3`
/// bin's configuration, the only one whose outputs are pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Population size.
    pub popn: usize,
    /// Generations per trial.
    pub gens: u32,
    /// Fitness-evaluation budget per trial.
    pub evals: u64,
    /// Independent trials per scenario.
    pub trials: u32,
    /// Candidates replayed per scenario in the traced run.
    pub replay_cap: usize,
    /// Use only these scenarios of a workload (smoke tests).
    pub only: Option<&'static [&'static str]>,
    /// Compare outputs against the values pinned from the seed tree.
    pub pinned: bool,
}

impl Scale {
    /// `RepairConfig::fast`, three trials, every scenario: Table 3.
    pub const TABLE3: Scale = Scale {
        popn: 300,
        gens: 8,
        evals: 6_000,
        trials: 3,
        replay_cap: 32,
        only: None,
        pinned: true,
    };

    /// A few seconds of everything, for the smoke test: two quickly
    /// repaired scenarios per workload.
    pub const TINY: Scale = Scale {
        popn: 100,
        gens: 8,
        evals: 1_000,
        trials: 1,
        replay_cap: 3,
        only: Some(&[
            "flip_flop_cond",
            "lshift_blocking",
            "sha3_overflow_check",
            "tate_instantiation",
        ]),
        pinned: false,
    };

    /// The repair configuration of trial `t`: the `table3` bin's seeds.
    pub fn repair_config(&self, t: u32, jobs: usize) -> RepairConfig {
        RepairConfig {
            seed: 42u64.wrapping_add(u64::from(t) * 1001),
            popn_size: self.popn,
            max_generations: self.gens,
            max_fitness_evals: self.evals,
            jobs,
            ..RepairConfig::fast(42)
        }
    }
}

/// Counts attempted operations and the ones that failed: a wrong
/// output, an error, a panic or a rejected request.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation, failed when `problem` is `Some`.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            eprintln!("FAILED: {p}");
            self.failures.push(p);
        }
    }
}

/// Compares one checked field, naming it on mismatch.
pub fn mismatch<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Option<String> {
    (got != want).then(|| format!("{what}: got {got:?}, want {want:?}"))
}

/// Runs `f`, turning a panic into an error message.
pub fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{what} panicked: {msg}")
    })
}

/// The large designs of Table 3; every other project is small.
pub const LARGE_PROJECTS: [&str; 3] = ["sha3", "tate_pairing", "sdram_controller"];

/// The Table 3 scenarios on large (`true`) or small designs, cut to the
/// scale's selection.
pub fn table3_scenarios(large: bool, scale: &Scale) -> Vec<&'static Scenario> {
    cirfix_benchmarks::scenarios()
        .iter()
        .filter(|s| LARGE_PROJECTS.contains(&s.project) == large)
        .filter(|s| scale.only.is_none_or(|ids| ids.contains(&s.id)))
        .collect()
}

/// Everything a scenario needs besides the search: the problem (parsed
/// sources plus the golden oracle simulation) and the held-out bench.
pub struct Prepared {
    /// The scenario.
    pub scenario: &'static Scenario,
    /// The repair problem.
    pub problem: RepairProblem,
    /// Golden design, for held-out verification.
    pub golden: SourceFile,
    /// Held-out verification bench.
    pub verification: Verification,
}

/// Builds every problem of `scenarios`.
pub fn prepare(scenarios: &[&'static Scenario]) -> Result<Vec<Prepared>, String> {
    scenarios
        .iter()
        .map(|&s| {
            let project = cirfix_benchmarks::project(s.project)
                .ok_or_else(|| format!("{}: unknown project", s.id))?;
            Ok(Prepared {
                scenario: s,
                problem: s.problem().map_err(|e| format!("{}: {e}", s.id))?,
                golden: project
                    .golden_design()
                    .map_err(|e| format!("{}: {e}", s.id))?,
                verification: project
                    .verification()
                    .map_err(|e| format!("{}: {e}", s.id))?,
            })
        })
        .collect()
}

/// Builds every problem `reps` times, returning the last build and the
/// duration of each.
pub fn prepare_timed(
    scenarios: &[&'static Scenario],
    reps: usize,
    tracer: &Tracer,
) -> Result<(Vec<Prepared>, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let built = tracer.time("setup.problems", None, || prepare(scenarios))?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one build"), secs))
}

/// Whether another pass fits: two always run; after that, passes
/// continue while the median pass so far still fits in the budget.
pub fn another_pass(passes: &[f64], budget_s: f64) -> bool {
    if passes.len() < 2 {
        return true;
    }
    let elapsed: f64 = passes.iter().sum();
    elapsed + crate::stats::median(passes) <= budget_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_splits_into_ten_large_and_twenty_two_small() {
        assert_eq!(table3_scenarios(true, &Scale::TABLE3).len(), 10);
        assert_eq!(table3_scenarios(false, &Scale::TABLE3).len(), 22);
        assert_eq!(table3_scenarios(true, &Scale::TINY).len(), 2);
    }

    #[test]
    fn at_least_two_passes_then_the_budget_decides() {
        assert!(another_pass(&[], 0.0));
        assert!(another_pass(&[50.0], 1.0));
        assert!(!another_pass(&[50.0, 50.0], 20.0));
        assert!(another_pass(&[3.0, 3.0, 3.0], 20.0));
        assert!(!another_pass(&[3.0; 6], 20.0));
    }
}
