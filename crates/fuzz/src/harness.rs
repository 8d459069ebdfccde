//! Robustness harness: drives inputs through the full frontend
//! (parse → lint → elaborate → compile → simulate) with every panic
//! contained, then cross-checks the two expression executors against
//! each other.
//!
//! The executor is a [`SimConfig`] field, so the oracle is one pass
//! over one worker pool: a worker simulates an input under its own
//! config (bytecode), and if the input reached the simulator, runs it
//! again under the same config with [`ExecMode::TreeWalk`] and compares
//! the two outcomes. The word-packed logic operators are checked
//! separately, operator by operator, against `cirfix_logic::reference`.

use cirfix::simulate_with_probe_cancellable;
use cirfix_sim::{CancelToken, ExecMode, ProbeSpec, SimConfig, SimError};
use cirfix_store::Fnv128;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Where a fuzz input came from (recorded in findings for triage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputOrigin {
    /// A generated defect scenario (valid Verilog by construction).
    Generated,
    /// A byte/token-level mutation of a valid benchmark source.
    Mutated,
    /// A replayed corpus record.
    Corpus,
}

impl InputOrigin {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            InputOrigin::Generated => "generated",
            InputOrigin::Mutated => "mutated",
            InputOrigin::Corpus => "corpus",
        }
    }
}

/// One input to the harness: a source text plus the elaboration and
/// instrumentation context it should be driven under.
#[derive(Debug, Clone)]
pub struct FuzzInput {
    /// Stable id (`<origin>-<n>` or a corpus digest).
    pub id: String,
    /// Verilog source text.
    pub source: String,
    /// Module to elaborate as top.
    pub top: String,
    /// Instrumentation to attach.
    pub probe: ProbeSpec,
    /// Simulation resource limits (these, not wall clock, are what
    /// normally bound a run — keeping outcomes machine-independent).
    pub sim: SimConfig,
    /// Provenance.
    pub origin: InputOrigin,
}

/// Outcome of running one input through the pipeline under one
/// executor. Everything in here is a pure function of the input
/// (wall-clock cancellation aside), so two executors can be compared
/// field by field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// The frontend rejected the source (expected for mutated inputs).
    ParseError,
    /// Simulated to completion; carries the trace/log digest.
    SimOk(String),
    /// A deterministic simulator error (elaboration, oscillation,
    /// runaway, step-limit, runtime), by stable kind label.
    SimError(&'static str),
    /// The wall-clock backstop fired. Excluded from the executor
    /// comparison (machine-dependent) but reported as a hang finding.
    Cancelled,
    /// A contained panic; carries the (truncated) panic message.
    Panic(String),
}

/// A confirmed robustness finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Id of the offending input.
    pub input_id: String,
    /// Provenance of the offending input.
    pub origin: InputOrigin,
    /// Finding class: `panic`, `hang`, or `divergence`.
    pub class: &'static str,
    /// Offending source text (pre-shrink).
    pub source: String,
    /// Human-readable detail (panic message, diverging statuses).
    pub detail: String,
}

/// Harness knobs.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Worker threads (`0` = auto).
    pub jobs: usize,
    /// Wall-clock backstop per input. The simulator's own operation
    /// budgets are expected to bind long before this does; if this
    /// fires it *is* a finding (class `hang`).
    pub per_input_timeout: Duration,
}

impl Default for HarnessConfig {
    fn default() -> HarnessConfig {
        HarnessConfig {
            jobs: 0,
            per_input_timeout: Duration::from_secs(10),
        }
    }
}

/// Result of a harness run: per-input statuses (bytecode run, input
/// order) plus the findings distilled from both executors.
#[derive(Debug, Clone)]
pub struct HarnessReport {
    /// Bytecode status per input, in input order.
    pub statuses: Vec<RunStatus>,
    /// Confirmed findings, in input order.
    pub findings: Vec<Finding>,
}

/// Runs every input under both executors on one worker pool and
/// distills findings. Statuses and findings are in input order,
/// independent of worker scheduling.
pub fn run_harness(inputs: &[FuzzInput], config: &HarnessConfig) -> HarnessReport {
    let workers = cirfix::resolve_jobs(config.jobs).min(inputs.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<_>> = inputs.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= inputs.len() {
                    break;
                }
                let _ = slots[i].set(run_both(&inputs[i], config.per_input_timeout));
            });
        }
    });

    let mut statuses = Vec::with_capacity(inputs.len());
    let mut findings = Vec::new();
    for (input, slot) in inputs.iter().zip(slots) {
        let (bytecode, tree_walk) = slot.into_inner().expect("every input was run");
        collect_findings(input, &bytecode, tree_walk.as_ref(), &mut findings);
        statuses.push(bytecode);
    }
    HarnessReport { statuses, findings }
}

/// Runs `input` under its own config, then, if it reached the
/// simulator, again under the tree walker. Parsing and linting do not
/// depend on the executor, so a parse error is not rerun.
fn run_both(input: &FuzzInput, timeout: Duration) -> (RunStatus, Option<RunStatus>) {
    let bytecode = run_one(input, timeout);
    let tree_walk = (bytecode != RunStatus::ParseError).then(|| {
        let tree_walk = FuzzInput {
            sim: SimConfig {
                exec: ExecMode::TreeWalk,
                ..input.sim.clone()
            },
            ..input.clone()
        };
        run_one(&tree_walk, timeout)
    });
    (bytecode, tree_walk)
}

/// Distills findings for one input from its two executor outcomes.
fn collect_findings(
    input: &FuzzInput,
    a: &RunStatus,
    b: Option<&RunStatus>,
    findings: &mut Vec<Finding>,
) {
    let mut push = |class, detail: String| {
        findings.push(Finding {
            input_id: input.id.clone(),
            origin: input.origin,
            class,
            source: input.source.clone(),
            detail,
        });
    };
    for (executor, status) in [("bytecode", Some(a)), ("tree-walk", b)] {
        match status {
            Some(RunStatus::Panic(msg)) => push("panic", format!("{executor}: {msg}")),
            Some(RunStatus::Cancelled) => {
                push("hang", format!("{executor}: wall-clock backstop fired"));
            }
            _ => {}
        }
    }
    if let Some(b) = b {
        let comparable = |s: &RunStatus| {
            !matches!(
                s,
                RunStatus::Cancelled | RunStatus::Panic(_) | RunStatus::ParseError
            )
        };
        if comparable(a) && comparable(b) && a != b {
            push("divergence", format!("bytecode: {a:?} vs tree-walk: {b:?}"));
        }
    }
}

/// Longest panic message kept in findings and corpus records.
const PANIC_MSG_LIMIT: usize = 200;

/// Drives one input through parse → lint → simulate with the panic
/// contained. This is *the* pipeline the fuzzer hardens; the corpus
/// replayer calls it too.
pub fn run_one(input: &FuzzInput, timeout: Duration) -> RunStatus {
    let result = catch_unwind(AssertUnwindSafe(|| run_one_inner(input, timeout)));
    match result {
        Ok(status) => status,
        Err(payload) => RunStatus::Panic(truncate(&panic_message(payload), PANIC_MSG_LIMIT)),
    }
}

fn run_one_inner(input: &FuzzInput, timeout: Duration) -> RunStatus {
    let Ok(file) = cirfix_parser::parse(&input.source) else {
        return RunStatus::ParseError;
    };
    // Lint must never panic, whatever the tree shape; its findings are
    // irrelevant here.
    let _ = cirfix_lint::lint_file(&file);
    let cancel = CancelToken::with_deadline(Instant::now() + timeout);
    match simulate_with_probe_cancellable(&file, &input.top, &input.probe, &input.sim, Some(cancel))
    {
        Ok((outcome, trace, log)) => {
            let mut h = Fnv128::new();
            h.write_str("cirfix-fuzz-trace-v1");
            h.write_str(&trace.to_csv());
            for line in &log {
                h.write_str(line);
                h.write_str("\n");
            }
            h.write(&outcome.end_time.to_le_bytes());
            h.write(&[u8::from(outcome.finished)]);
            RunStatus::SimOk(h.finish().to_hex())
        }
        Err(SimError::Cancelled { .. }) => RunStatus::Cancelled,
        Err(SimError::Elaboration(_)) => RunStatus::SimError("elaboration"),
        Err(SimError::Oscillation { .. }) => RunStatus::SimError("oscillation"),
        Err(SimError::RunawayProcess { .. }) => RunStatus::SimError("runaway"),
        Err(SimError::StepLimit { .. }) => RunStatus::SimError("step-limit"),
        Err(_) => RunStatus::SimError("runtime"),
    }
}

/// Extracts the human-readable part of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn truncate(s: &str, limit: usize) -> String {
    if s.len() <= limit {
        return s.to_string();
    }
    let mut end = limit;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    s[..end].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(source: &str) -> FuzzInput {
        FuzzInput {
            id: "t-0".to_string(),
            source: source.to_string(),
            top: "tb".to_string(),
            probe: ProbeSpec::periodic(vec!["q".to_string()], 0, 1),
            sim: SimConfig {
                max_time: 20,
                max_deltas: 100,
                max_ops_per_resume: 10_000,
                max_total_ops: 50_000,
                ..SimConfig::default()
            },
            origin: InputOrigin::Mutated,
        }
    }

    const TB: &str = "module tb; reg q; initial begin q = 0; #1 q = 1; #1 $finish; end endmodule";

    #[test]
    fn valid_source_simulates_identically_under_both_executors() {
        let inputs = vec![input(TB)];
        let report = run_harness(&inputs, &HarnessConfig::default());
        assert!(matches!(report.statuses[0], RunStatus::SimOk(_)));
        assert!(
            report.findings.is_empty(),
            "no findings: {:?}",
            report.findings
        );
    }

    #[test]
    fn garbage_is_a_parse_error_not_a_finding() {
        let inputs = vec![input("]]]] module garbage \u{7f}")];
        let report = run_harness(&inputs, &HarnessConfig::default());
        assert_eq!(report.statuses[0], RunStatus::ParseError);
        assert!(report.findings.is_empty());
    }

    #[test]
    fn statuses_are_identical_across_jobs() {
        let sources = [
            TB,
            "module tb; endmodule",
            "garbage",
            "module tb; reg q; endmodule",
        ];
        let inputs: Vec<FuzzInput> = sources.iter().map(|s| input(s)).collect();
        let runs: Vec<HarnessReport> = [1usize, 4]
            .iter()
            .map(|&jobs| {
                run_harness(
                    &inputs,
                    &HarnessConfig {
                        jobs,
                        ..HarnessConfig::default()
                    },
                )
            })
            .collect();
        assert_eq!(runs[0].statuses, runs[1].statuses);
    }
}
