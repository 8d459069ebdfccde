//! `cirfix-fuzz`: seeded defect-transplantation fuzzer and frontend
//! robustness harness.
//!
//! Three planes (see DESIGN.md):
//!
//! 1. **Generator** ([`gen`]) — runs the Table-1 repair-template
//!    catalog *forward* over the golden benchmark designs, keeping
//!    variants whose testbench catches the transplanted defect.
//! 2. **Harness** ([`harness`]) — drives generated variants plus
//!    byte/token mutations of valid sources through the whole
//!    frontend with panics contained and a differential oracle
//!    cross-checking the bytecode and tree-walk executors.
//! 3. **Triage** ([`shrink`], [`corpus`]) — delta-debugs each finding
//!    to a minimal reproducer and persists it as a checksummed store
//!    record, replayed afterwards as a gating regression test.
//!
//! Everything is seed-deterministic: for a fixed `(seed, budget)` the
//! manifest is byte-identical across reruns and worker counts.

pub mod corpus;
pub mod gen;
pub mod harness;
pub mod mutate;
pub mod shrink;

pub use corpus::{load_store_corpus, replay, CrashRecord, ReplayReport};
pub use gen::{generate_scenarios, Difficulty, GenConfig, GenScenario};
pub use harness::{
    run_harness, run_one, Finding, FuzzInput, HarnessConfig, HarnessReport, InputOrigin, RunStatus,
};
pub use mutate::mutated_inputs;
pub use shrink::shrink;

use cirfix_sim::ProbeSpec;
use cirfix_telemetry::JsonValue;
use std::time::Duration;

/// Top-level fuzz run configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed: drives generator sampling and input mutation.
    pub seed: u64,
    /// Total inputs through the harness (generated scenarios first,
    /// mutated inputs fill the remainder).
    pub budget: usize,
    /// Worker threads (`0` = auto). Output is identical for any value.
    pub jobs: usize,
    /// Generator knobs (`classify` stays off during fuzzing — it is a
    /// tranche-building concern).
    pub generator: GenConfig,
    /// Per-input wall-clock backstop.
    pub per_input_timeout: Duration,
    /// Shrink findings to minimal reproducers (slow when findings
    /// exist; free when there are none).
    pub shrink: bool,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            seed: 1,
            budget: 200,
            jobs: 0,
            generator: GenConfig::default(),
            per_input_timeout: Duration::from_secs(10),
            shrink: true,
        }
    }
}

/// Aggregated outcome counts over the bytecode runs, in input order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzStats {
    /// Inputs driven through the harness.
    pub inputs: usize,
    /// Generated defect scenarios among them.
    pub generated: usize,
    /// Inputs the frontend rejected.
    pub parse_errors: usize,
    /// Inputs that simulated to completion.
    pub sim_ok: usize,
    /// Inputs that hit a deterministic simulator error.
    pub sim_errors: usize,
}

/// The result of [`run_fuzz`].
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Seed the run used.
    pub seed: u64,
    /// Outcome counts.
    pub stats: FuzzStats,
    /// Findings, shrunk (when configured) and deduped by content id.
    pub findings: Vec<CrashRecord>,
    /// The generated scenarios that fed the run.
    pub scenarios: Vec<GenScenario>,
}

impl FuzzReport {
    /// Deterministic single-line JSON manifest. Byte-identical across
    /// reruns and worker counts for the same `(seed, budget)`.
    pub fn manifest_json(&self) -> String {
        let findings: Vec<JsonValue> = self
            .findings
            .iter()
            .map(|f| {
                JsonValue::obj(vec![
                    ("id", JsonValue::Str(f.id.clone())),
                    ("class", JsonValue::Str(f.class.clone())),
                    ("source", JsonValue::Str(f.source.clone())),
                    ("detail", JsonValue::Str(f.detail.clone())),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("seed", JsonValue::Uint(self.seed)),
            ("inputs", JsonValue::Uint(self.stats.inputs as u64)),
            ("generated", JsonValue::Uint(self.stats.generated as u64)),
            (
                "parse_errors",
                JsonValue::Uint(self.stats.parse_errors as u64),
            ),
            ("sim_ok", JsonValue::Uint(self.stats.sim_ok as u64)),
            ("sim_errors", JsonValue::Uint(self.stats.sim_errors as u64)),
            ("findings", JsonValue::Array(findings)),
        ])
        .to_json()
    }
}

/// Builds the harness input for one generated scenario.
fn scenario_input(index: usize, s: &GenScenario) -> FuzzInput {
    let project = cirfix_benchmarks::project(s.project).expect("generated from a known project");
    FuzzInput {
        id: format!("generated-{index}"),
        source: s.source.clone(),
        top: project.top.to_string(),
        probe: ProbeSpec::periodic(
            project
                .probe_signals
                .iter()
                .map(|sig| sig.to_string())
                .collect(),
            project.probe_start,
            project.probe_period,
        ),
        sim: project.sim_config(),
        origin: InputOrigin::Generated,
    }
}

/// One full fuzz run: generate, mutate, drive, triage.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let generator = GenConfig {
        seed: config.seed,
        jobs: config.jobs,
        classify: false,
        ..config.generator.clone()
    };
    let scenarios = generate_scenarios(&generator);

    // Generated scenarios take at most half the budget, so grammar
    // mutation always gets its share of frontend coverage.
    let mut inputs: Vec<FuzzInput> = scenarios
        .iter()
        .take(config.budget.div_ceil(2))
        .enumerate()
        .map(|(i, s)| scenario_input(i, s))
        .collect();
    let remainder = config.budget.saturating_sub(inputs.len());
    inputs.extend(mutated_inputs(config.seed, remainder));

    let harness_config = HarnessConfig {
        jobs: config.jobs,
        per_input_timeout: config.per_input_timeout,
    };
    let report = run_harness(&inputs, &harness_config);

    let mut stats = FuzzStats {
        inputs: inputs.len(),
        generated: inputs.len() - remainder,
        ..FuzzStats::default()
    };
    for status in &report.statuses {
        match status {
            RunStatus::ParseError => stats.parse_errors += 1,
            RunStatus::SimOk(_) => stats.sim_ok += 1,
            RunStatus::SimError(_) => stats.sim_errors += 1,
            RunStatus::Cancelled | RunStatus::Panic(_) => {}
        }
    }

    let mut findings = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for finding in &report.findings {
        let input = inputs
            .iter()
            .find(|i| i.id == finding.input_id)
            .expect("finding references its input");
        let source = if config.shrink {
            shrink_finding(input, finding, &harness_config)
        } else {
            finding.source.clone()
        };
        let record = CrashRecord::new(
            finding.class,
            config.seed,
            &source,
            &input.top,
            &finding.detail,
        );
        if seen.insert(record.id.clone()) {
            findings.push(record);
        }
    }
    findings.sort_by(|a, b| a.id.cmp(&b.id));

    FuzzReport {
        seed: config.seed,
        stats,
        findings,
        scenarios,
    }
}

/// Shrinks one finding with a class-preserving predicate: a candidate
/// reduction is interesting iff replaying it through the (single-input)
/// differential harness still yields a finding of the same class.
fn shrink_finding(input: &FuzzInput, finding: &Finding, config: &HarnessConfig) -> String {
    let probe_config = HarnessConfig {
        jobs: 1,
        ..config.clone()
    };
    let reproduces = |source: &str| -> bool {
        let candidate = FuzzInput {
            source: source.to_string(),
            ..input.clone()
        };
        run_harness(std::slice::from_ref(&candidate), &probe_config)
            .findings
            .iter()
            .any(|f| f.class == finding.class)
    };
    if !reproduces(&finding.source) {
        // Flaky finding (e.g. a wall-clock hang that does not recur):
        // keep the original text rather than shrinking against noise.
        return finding.source.clone();
    }
    shrink::shrink(&finding.source, &reproduces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(jobs: usize) -> FuzzConfig {
        FuzzConfig {
            seed: 11,
            budget: 24,
            jobs,
            generator: GenConfig {
                max_candidates: 6,
                max_per_project: 2,
                ..GenConfig::default()
            },
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn manifest_is_byte_identical_across_jobs_and_reruns() {
        let a = run_fuzz(&quick_config(1)).manifest_json();
        let b = run_fuzz(&quick_config(4)).manifest_json();
        let c = run_fuzz(&quick_config(1)).manifest_json();
        assert_eq!(a, b, "jobs=1 vs jobs=4");
        assert_eq!(a, c, "rerun");
    }

    #[test]
    fn run_covers_generated_and_mutated_inputs() {
        let report = run_fuzz(&quick_config(0));
        assert_eq!(report.stats.inputs, 24);
        assert!(report.stats.generated > 0, "some generated scenarios");
        assert!(report.stats.generated < 24, "mutated inputs fill the rest");
        assert!(
            report.stats.parse_errors + report.stats.sim_ok + report.stats.sim_errors > 0,
            "statuses are tallied"
        );
        assert!(
            report.findings.is_empty(),
            "findings: {:?}",
            report.findings
        );
    }
}
