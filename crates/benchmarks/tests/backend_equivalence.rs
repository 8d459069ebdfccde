//! Full-pipeline equivalence across the two expression executors.
//!
//! The simulator runs compiled postfix bytecode (production) or the
//! original tree walker, as chosen by `SimConfig::exec`. The choice
//! changes *how* simulation computes but must never change *what* it
//! computes.
//!
//! For every benchmark scenario this suite builds the repair problem
//! under each executor, recording the oracle trace by simulating the
//! golden design under that executor, then evaluates the faulty design,
//! and requires byte-identical problem digests, fitness scores,
//! mismatch sets and outcome classifications. The digest covers the
//! serialized oracle trace, so a single differing bit anywhere in
//! either simulation shows up here; equal digests also pin that `exec`
//! itself is not hashed. The word-packed logic operators have their
//! own per-operator oracle in `cirfix-logic`'s `tests/differential.rs`.

use cirfix::{
    all_stmt_ids, evaluate, evaluate_many, oracle_from_golden, problem_digest, Edit, FitnessParams,
    Patch, RepairConfig, RepairProblem,
};
use cirfix_benchmarks::{scenarios, Scenario};
use cirfix_sim::ExecMode;

/// The scenario's repair problem with every simulation, the golden
/// oracle run included, under `exec`.
fn problem_under(scenario: &Scenario, exec: ExecMode) -> RepairProblem {
    let project = cirfix_benchmarks::project(scenario.project).expect("project exists");
    let mut problem = scenario.problem().expect("problem builds");
    problem.sim.exec = exec;
    let golden = project.golden_full().expect("golden parses");
    problem.oracle = oracle_from_golden(&golden, &problem.top, &problem.probe, &problem.sim)
        .expect("golden simulates");
    problem
}

/// Everything deterministic about one scenario under one executor.
fn fingerprint(scenario: &Scenario, exec: ExecMode) -> String {
    let problem = problem_under(scenario, exec);
    let digest = problem_digest(&problem, &RepairConfig::fast(1));
    let eval = evaluate(&problem, &Patch::empty(), FitnessParams::default());
    format!(
        "digest={digest:?} score={:x} compiled={} mismatched={:?} outcome={:?} error={:?}",
        eval.score.to_bits(),
        eval.compiled,
        eval.mismatched,
        eval.outcome,
        eval.error,
    )
}

#[test]
fn all_scenarios_identical_across_exec_modes() {
    assert_eq!(scenarios().len(), 32, "the full suite must be covered");
    for scenario in scenarios() {
        assert_eq!(
            fingerprint(scenario, ExecMode::TreeWalk),
            fingerprint(scenario, ExecMode::Bytecode),
            "[{}] bytecode vs tree-walk diverged",
            scenario.id
        );
    }
}

/// The worker-thread path must agree with itself across worker counts
/// *and* with the tree walker: each worker thread compiles into its own
/// thread-local cache, so this also exercises cold-cache compilation
/// under concurrency.
#[test]
fn batch_evaluation_matches_across_jobs_and_exec_modes() {
    let scenario = cirfix_benchmarks::scenario("counter_reset").expect("scenario exists");
    let problem = problem_under(scenario, ExecMode::Bytecode);
    let tree_walk = problem_under(scenario, ExecMode::TreeWalk);
    // A deterministic patch set: the empty patch plus a delete-statement
    // sweep over the design.
    let mut patches = vec![Patch::empty()];
    patches.extend(
        all_stmt_ids(&problem.source, &problem.design_modules)
            .into_iter()
            .take(15)
            .map(|id| Patch::single(Edit::DeleteStmt { target: id })),
    );

    let summarize = |evals: &[cirfix::Evaluation]| -> Vec<String> {
        evals
            .iter()
            .map(|e| {
                format!(
                    "score={:x} compiled={} outcome={:?}",
                    e.score.to_bits(),
                    e.compiled,
                    e.outcome
                )
            })
            .collect()
    };

    let j1 = summarize(&evaluate_many(
        &problem,
        &patches,
        FitnessParams::default(),
        1,
    ));
    let j4 = summarize(&evaluate_many(
        &problem,
        &patches,
        FitnessParams::default(),
        4,
    ));
    let tw = summarize(&evaluate_many(
        &tree_walk,
        &patches,
        FitnessParams::default(),
        4,
    ));

    assert_eq!(j1, j4, "jobs=1 vs jobs=4 diverged under bytecode");
    assert_eq!(j4, tw, "bytecode vs tree-walk diverged in batch evaluation");
}
