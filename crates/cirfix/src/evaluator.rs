//! The one evaluation path: every candidate the GP search, the
//! minimizer, or [`evaluate_many`](crate::evaluate_many) scores goes
//! through an [`Evaluator`].
//!
//! The probe itself — apply the patch, simulate the instrumented
//! testbench, score against the oracle (Algorithm 1) — runs on the
//! contained dispatch in [`crate::engine`]. Around it the evaluator
//! keeps, on the coordinating thread and in submission order, all the
//! bookkeeping: the trial cache and in-flight dedup, the shared store
//! keyed by variant fingerprint, the bloat and static-lint gates,
//! budget reservation, fault-injection ordinals, profiler spans,
//! telemetry, and every evaluation counter.

use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

use cirfix_ast::SourceFile;
use cirfix_sim::{CancelToken, SimError, SimMetrics};
use cirfix_store::Digest;
use cirfix_telemetry::{EvalOutcomeEvent, Event, Observer, Phase, Profiler, SimStats, StoreEvent};

use crate::control::SearchControl;
use crate::counters::{Counter, Counters};
use crate::engine::{apply, evaluate_many, resolve_jobs, Dispatch, Probe};
use crate::faults::{FaultInjector, FaultKind};
use crate::fitness::{failure_report, fitness, FitnessParams, FitnessReport};
use crate::oracle::{simulate_with_probe_profiled, RepairProblem};
use crate::outcome::EvalOutcome;
use crate::patch::Patch;
use crate::persist::variant_fingerprint;
use crate::repair::RepairConfig;
use crate::session::SharedEvalCache;
use crate::staticfilter::StaticFilter;

/// The cached outcome of evaluating one patch.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Normalized fitness in `[0, 1]`.
    pub score: f64,
    /// `false` when the variant failed to elaborate or crashed.
    pub compiled: bool,
    /// Mismatched variables (leaf names) for fault localization.
    pub mismatched: BTreeSet<String>,
    /// The detailed report, when simulation succeeded.
    pub report: Option<FitnessReport>,
    /// Error text, when it did not.
    pub error: Option<String>,
    /// Variant AST size relative to the original (1.0 = unchanged).
    pub growth: f64,
    /// Simulator effort counters, when a simulation ran to completion.
    pub sim_metrics: Option<SimMetrics>,
    /// How the evaluation concluded — every candidate gets exactly one
    /// classification from the unified taxonomy.
    pub outcome: EvalOutcome,
}

impl Evaluation {
    /// The worst-fitness evaluation of a candidate that did not score
    /// cleanly: a failed simulation, a contained panic, or a rejection
    /// before simulation. Every oracle variable counts as mismatched;
    /// rejected candidates carry no fitness report, and only
    /// elaboration failures and rejections count as not compiled.
    pub(crate) fn worst(
        problem: &RepairProblem,
        outcome: EvalOutcome,
        error: String,
        growth: f64,
    ) -> Evaluation {
        let rejected = outcome == EvalOutcome::Rejected;
        Evaluation {
            score: 0.0,
            compiled: !rejected && outcome != EvalOutcome::Elaboration,
            mismatched: problem
                .oracle
                .vars()
                .iter()
                .map(|v| strip_hierarchy(v))
                .collect(),
            report: (!rejected).then(|| failure_report(&problem.oracle)),
            error: Some(error),
            growth,
            sim_metrics: None,
            outcome,
        }
    }

    /// The telemetry payload describing this evaluation of a
    /// `patch_len`-edit candidate proposed by operator `op`
    /// (`"original"`, `"template"`, `"mutation"`, `"crossover"`,
    /// `"minimize"`, or `""` when unknown).
    pub fn candidate_event(
        &self,
        patch_len: usize,
        cached: bool,
        op: &str,
    ) -> cirfix_telemetry::CandidateEvent {
        cirfix_telemetry::CandidateEvent {
            patch_len: patch_len as u64,
            growth_factor: self.growth,
            fitness: self.score,
            cached,
            op: op.to_string(),
        }
    }
}

/// The fixed error text for a candidate whose per-candidate wall-clock
/// budget expired. Deliberately free of wall-clock or simulation-time
/// detail so persisted timeout evaluations are byte-identical across
/// runs.
const TIMEOUT_ERROR: &str = "evaluation exceeded its wall-clock budget";

/// Evaluates one patch against a repair problem: apply → simulate →
/// fitness. Compile failures and runtime errors score 0.
pub fn evaluate(problem: &RepairProblem, patch: &Patch, params: FitnessParams) -> Evaluation {
    evaluate_many(problem, std::slice::from_ref(patch), params, 1)
        .pop()
        .expect("one evaluation per patch")
}

/// Scores an already-applied variant: simulate → fitness. Pure in its
/// inputs, so worker threads run it concurrently; the contained
/// dispatch ([`crate::engine::Dispatch`]) is its only caller.
///
/// `budget` is the per-candidate wall-clock budget: when set, the
/// simulation runs under a deadline [`CancelToken`]. `fault` is the
/// chaos-testing hook — an injected fault scheduled for this evaluation
/// by a [`FaultInjector`]. `profiler`, when present, receives
/// elaborate/simulate/score busy attribution (atomics only, so worker
/// threads record concurrently).
///
/// A failed simulation scores worst-fitness under its
/// [`EvalOutcome`]. A cancellation (budget expiry) is classified
/// [`EvalOutcome::Timeout`] with the fixed [`TIMEOUT_ERROR`] text, so
/// its persisted form does not depend on how far the simulation got
/// before the deadline fired.
pub(crate) fn evaluate_variant(
    problem: &RepairProblem,
    variant: &SourceFile,
    growth: f64,
    params: FitnessParams,
    budget: Option<Duration>,
    fault: Option<FaultKind>,
    profiler: Option<&Profiler>,
) -> Evaluation {
    simulate_and_score(problem, variant, growth, params, budget, fault, profiler).unwrap_or_else(
        |e| {
            let outcome = EvalOutcome::from_sim_error(&e);
            let error = if outcome == EvalOutcome::Timeout {
                TIMEOUT_ERROR.to_string()
            } else {
                e.to_string()
            };
            Evaluation::worst(problem, outcome, error, growth)
        },
    )
}

fn simulate_and_score(
    problem: &RepairProblem,
    variant: &SourceFile,
    growth: f64,
    params: FitnessParams,
    budget: Option<Duration>,
    fault: Option<FaultKind>,
    profiler: Option<&Profiler>,
) -> Result<Evaluation, SimError> {
    let deadline = budget.map(|b| Instant::now() + b);
    match fault {
        Some(FaultKind::Panic) => panic!("injected fault: worker panic"),
        Some(FaultKind::Hang) => {
            // A deterministic stand-in for a candidate that wedges its
            // worker: spin until the candidate budget (or a short
            // fallback when budgets are off) cancels it, then classify
            // exactly like a real cancelled simulation.
            let until = deadline.unwrap_or_else(|| Instant::now() + Duration::from_millis(50));
            let token = CancelToken::with_deadline(until);
            while !token.is_cancelled() {
                std::thread::yield_now();
            }
            return Err(SimError::Cancelled { time: 0 });
        }
        Some(FaultKind::SimError) => {
            return Err(SimError::Runtime {
                message: "injected fault: simulated failure".into(),
                time: 0,
            });
        }
        None => {}
    }
    let token = deadline.map(CancelToken::with_deadline);
    let (outcome, trace, _) = simulate_with_probe_profiled(
        variant,
        &problem.top,
        &problem.probe,
        &problem.sim,
        token,
        profiler,
    )?;
    let report = {
        let _score = profiler.map(|p| p.span(Phase::Score));
        fitness(&trace, &problem.oracle, params)
    };
    Ok(Evaluation {
        score: report.score,
        compiled: true,
        mismatched: report
            .mismatched_vars
            .iter()
            .map(|v| strip_hierarchy(v))
            .collect(),
        report: Some(report),
        error: None,
        growth,
        sim_metrics: Some(outcome.metrics),
        outcome: EvalOutcome::Ok,
    })
}

/// Strips instance hierarchy from a probed signal name
/// (`dut.counter_out` → `counter_out`).
pub fn strip_hierarchy(name: &str) -> String {
    name.rsplit('.').next().unwrap_or(name).to_string()
}

/// Total AST node count of a source file (for bloat control).
pub(crate) fn node_count(file: &SourceFile) -> usize {
    let mut n = 0;
    cirfix_ast::visit::walk_source(file, &mut |_| n += 1);
    n
}

/// Translates simulator effort counters into the telemetry payload.
fn sim_stats(m: &SimMetrics) -> SimStats {
    SimStats {
        active_events: m.active_events,
        inactive_events: m.inactive_events,
        nba_flushes: m.nba_flushes,
        timesteps: m.timesteps,
        process_resumptions: m.process_resumptions,
        peak_queue_depth: m.peak_queue_depth,
    }
}

/// Every evaluation counter of one trial. Checkpointed at generation
/// boundaries and restored on resume.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EvalCounts {
    /// Fitness probes (design simulations and bloat rejections).
    pub evals: u64,
    /// The counter table.
    pub counters: Counters,
    /// Cumulative worker busy time.
    pub busy: Duration,
}

/// What the coordinating thread decided about one batch item before
/// dispatch. Only `Sim` items occupy a worker; everything else is
/// settled without simulation.
enum Prepared {
    /// Answered from the trial cache.
    Hit(Evaluation),
    /// Duplicate of an earlier item in the same batch (an in-flight
    /// dedup: it becomes a cache hit once that item merges).
    Alias(usize),
    /// Answered from the fingerprint-keyed shared cache (persistent
    /// store or cross-trial memory): budget-free, like a cache hit, but
    /// counted separately.
    StoreHit { eval: Evaluation, key: Digest },
    /// Rejected pre-simulation (bloat or static lint gate). Bloat
    /// rejections consume a fitness evaluation (`costs_eval`); lint
    /// rejections are free.
    Reject {
        eval: Evaluation,
        lint: Option<(String, cirfix_lint::Diagnostic)>,
        costs_eval: bool,
        key: Option<Digest>,
    },
    /// Needs a simulation: the applied variant and its growth factor.
    Sim {
        variant: SourceFile,
        growth: f64,
        key: Option<Digest>,
    },
}

/// Scores patches for one trial, owning everything around the probe.
pub(crate) struct Evaluator<'a> {
    problem: &'a RepairProblem,
    params: FitnessParams,
    jobs: usize,
    max_evals: u64,
    timeout: Duration,
    eval_timeout: Option<Duration>,
    faults: Option<FaultInjector>,
    control: SearchControl,
    observer: Observer,
    filter: Option<StaticFilter>,
    // AST node count of the original source (growth denominator) and
    // the bloat gate's node budget.
    original_nodes: usize,
    node_budget: usize,
    cache: HashMap<Patch, Evaluation>,
    // Second-level, fingerprint-keyed evaluation cache (cross-trial
    // memory, or write-through persistent store) and the scenario
    // digest mixed into every variant fingerprint. `None` keeps the
    // evaluator store-free with zero fingerprinting overhead.
    shared: Option<(SharedEvalCache, Digest)>,
    // Per-phase busy attribution and eval-latency histogram. Only
    // allocated when the observer is live, so a disabled observer pays
    // neither the atomics nor the Instant reads.
    profiler: Option<Box<Profiler>>,
    /// When the trial's wall clock started (moved back on resume).
    pub started: Instant,
    /// Every evaluation counter so far.
    pub counts: EvalCounts,
    /// Trial-cache inserts since the last checkpoint, as (patch,
    /// fingerprint): logged as a cache-delta record so a resumed run
    /// can restore the trial cache exactly.
    pub pending_delta: Vec<(Patch, Digest)>,
}

impl<'a> Evaluator<'a> {
    /// An evaluator for one trial of `config` over `problem`.
    pub fn new(problem: &'a RepairProblem, config: &RepairConfig) -> Evaluator<'a> {
        let original_nodes = node_count(&problem.source);
        Evaluator {
            problem,
            params: config.fitness,
            jobs: resolve_jobs(config.jobs),
            max_evals: config.max_fitness_evals,
            timeout: config.timeout,
            eval_timeout: config.eval_timeout,
            faults: config.faults.clone(),
            control: config.control.clone(),
            observer: config.observer.clone(),
            filter: config
                .static_filter
                .then(|| StaticFilter::new(&problem.source, &problem.design_modules)),
            original_nodes,
            node_budget: ((original_nodes as f64) * config.max_growth.max(1.0)).ceil() as usize,
            cache: HashMap::new(),
            shared: None,
            profiler: config.observer.enabled().then(|| Box::new(Profiler::new())),
            started: Instant::now(),
            counts: EvalCounts::default(),
            pending_delta: Vec::new(),
        }
    }

    /// Attaches a fingerprint-keyed shared evaluation cache; `scenario`
    /// is mixed into every variant fingerprint.
    pub fn attach_store(&mut self, shared: SharedEvalCache, scenario: Digest) {
        self.shared = Some((shared, scenario));
    }

    /// The resolved evaluation worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The profiler, when the observer is live.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_deref()
    }

    /// The evaluation of `patch` in the trial cache, if any.
    pub fn cached(&self, patch: &Patch) -> Option<&Evaluation> {
        self.cache.get(patch)
    }

    /// Restores a trial-cache entry from a checkpoint. The entry is
    /// already in the session log, so it is not queued for the next
    /// cache-delta record.
    pub fn restore(&mut self, patch: Patch, eval: Evaluation) {
        self.cache.insert(patch, eval);
    }

    /// Whether the evaluation or wall-clock budget is spent.
    pub fn out_of_budget(&self) -> bool {
        self.counts.evals >= self.max_evals || self.started.elapsed() >= self.timeout
    }

    /// Whether `variant` exceeds the bloat gate's node budget.
    pub fn is_bloated(&self, variant: &SourceFile) -> bool {
        node_count(variant) > self.node_budget
    }

    /// Evaluates one patch outside the budget (the original design and
    /// minimization probes), labelled `op` in telemetry.
    pub fn evaluate_one(&mut self, patch: &Patch, op: &'static str) -> Evaluation {
        self.evaluate(std::slice::from_ref(patch), &[op], false)
            .pop()
            .flatten()
            .expect("an unbudgeted evaluation always resolves")
    }

    /// Evaluates a batch of patches and merges the results back in
    /// submission order. `ops[i]` labels `patches[i]` in telemetry
    /// (missing entries label as `""`) and does not influence
    /// evaluation.
    ///
    /// A `budgeted` batch reserves evaluation-budget slots in
    /// submission order and runs under the trial's wall-clock deadline:
    /// the returned vector aligns with `patches`, `Some` entries form a
    /// prefix, and a `None` tail means the budget or the deadline cut
    /// the batch short (`max_fitness_evals` is never exceeded). An
    /// unbudgeted batch always resolves every patch. Everything
    /// order-sensitive (cache inserts, counters, telemetry) happens
    /// here, identically for every worker count.
    pub fn evaluate(
        &mut self,
        patches: &[Patch],
        ops: &[&'static str],
        budgeted: bool,
    ) -> Vec<Option<Evaluation>> {
        // Classify in submission order, deduplicating identical
        // in-flight patches against the first occurrence.
        let mut first_seen: HashMap<&Patch, usize> = HashMap::new();
        let mut prepared: Vec<Prepared> = Vec::with_capacity(patches.len());
        for (i, patch) in patches.iter().enumerate() {
            match first_seen.get(patch) {
                Some(&j) => prepared.push(Prepared::Alias(j)),
                None => {
                    first_seen.insert(patch, i);
                    let p = self.prepare(patch);
                    prepared.push(p);
                }
            }
        }
        // Reserve budget slots in submission order; the first item that
        // cannot reserve truncates the batch deterministically.
        let mut admitted = patches.len();
        if budgeted {
            let mut budget = self.max_evals.saturating_sub(self.counts.evals);
            for (i, p) in prepared.iter().enumerate() {
                let costs = matches!(
                    p,
                    Prepared::Sim { .. }
                        | Prepared::Reject {
                            costs_eval: true,
                            ..
                        }
                );
                if costs {
                    if budget == 0 {
                        admitted = i;
                        break;
                    }
                    budget -= 1;
                }
            }
        }
        // Fan the simulations out; everything else never leaves the
        // coordinating thread. Fault-injection ordinals are claimed
        // here, serially, in submission order — so a chaos plan hits
        // the same candidates for every worker count.
        let mut sim_at: Vec<usize> = Vec::new();
        let mut probes: Vec<Probe> = Vec::new();
        for (i, p) in prepared[..admitted].iter().enumerate() {
            if let Prepared::Sim {
                variant, growth, ..
            } = p
            {
                let fault = self.faults.as_ref().and_then(|f| f.next_eval_fault());
                sim_at.push(i);
                probes.push(Probe::Variant {
                    variant,
                    growth: *growth,
                    fault,
                });
            }
        }
        let mut sims: Vec<Option<Evaluation>> = (0..patches.len()).map(|_| None).collect();
        // In service mode the worker pool is shared between sessions
        // through a strict round-robin gate: hold a scheduling turn for
        // exactly the span of the dispatch, so concurrent jobs
        // interleave at batch granularity. Every search batch takes its
        // turn, even one answered entirely from the caches, so the
        // rotation keeps moving; a single unbudgeted probe takes one
        // only to simulate. The guard is inert (and free) for batch
        // runs.
        if budgeted || !probes.is_empty() {
            let dispatch = Dispatch {
                problem: self.problem,
                params: self.params,
                jobs: self.jobs,
                deadline: if budgeted {
                    self.started.checked_add(self.timeout)
                } else {
                    None
                },
                eval_timeout: self.eval_timeout,
                profiler: self.profiler.as_deref(),
            };
            let turn = self.control.turn();
            let (results, busy) = dispatch.run(&probes);
            drop(turn);
            self.counts.busy += busy;
            for (i, r) in sim_at.into_iter().zip(results) {
                sims[i] = r;
            }
        }
        drop(probes);
        // Merge in submission order. The first unresolved item (budget
        // or deadline) ends the merge; later items are dropped rather
        // than committed out of order.
        let mut out: Vec<Option<Evaluation>> = Vec::with_capacity(patches.len());
        for (i, p) in prepared.into_iter().enumerate() {
            if i >= admitted || out.last().is_some_and(Option::is_none) {
                out.push(None);
                continue;
            }
            let op = ops.get(i).copied().unwrap_or("");
            let merged = match p {
                Prepared::Alias(j) => out[j].clone().inspect(|eval| {
                    self.counts.counters[Counter::CacheHits] += 1;
                    self.observer.emit(|| {
                        Event::Candidate(eval.candidate_event(patches[i].len(), true, op))
                    });
                }),
                p => self.commit(&patches[i], p, sims[i].take(), op),
            };
            out.push(merged);
        }
        out
    }

    /// Classifies one patch before dispatch (coordinating thread only):
    /// cache lookup, patch application, shared-cache lookup, bloat
    /// check, and the static lint gate. Cache hits do zero AST work.
    fn prepare(&mut self, patch: &Patch) -> Prepared {
        if let Some(e) = self.cache.get(patch) {
            return Prepared::Hit(e.clone());
        }
        let variant = apply(self.problem, patch, self.profiler());
        self.counts.counters[Counter::PatchApplies] += 1;
        // Content-addressed lookup in the shared cache: keyed by the
        // canonical print of the patched design, so it survives node
        // renumbering, process restarts, and different edit lists that
        // produce the same variant. Fingerprinting only happens when a
        // store is attached.
        let key = self
            .shared
            .as_ref()
            .map(|(_, s)| variant_fingerprint(*s, &variant, &self.problem.design_modules));
        if let (Some((shared, _)), Some(key)) = (&self.shared, key) {
            let _store = self.profiler().map(|p| p.span(Phase::Store));
            if let Some(eval) = shared.peek(key) {
                return Prepared::StoreHit { eval, key };
            }
        }
        let variant_nodes = node_count(&variant);
        let growth = variant_nodes as f64 / self.original_nodes.max(1) as f64;
        let reject =
            |error: String| Evaluation::worst(self.problem, EvalOutcome::Rejected, error, growth);
        if variant_nodes > self.node_budget {
            // Bloat rejection: treated like a compile failure, and
            // charged against the evaluation budget.
            return Prepared::Reject {
                eval: reject("variant exceeds the AST growth budget".to_string()),
                lint: None,
                costs_eval: true,
                key,
            };
        }
        if let Some((module, diag)) = self.filter.as_ref().and_then(|f| f.check(&variant)) {
            // Lint gate: the mutation introduced a new error-severity
            // static finding; score 0 without occupying a worker. Free
            // (no simulation ran), so no budget is consumed.
            let error = format!("rejected by static filter: {}", diag.render(&module));
            return Prepared::Reject {
                eval: reject(error),
                lint: Some((module, diag)),
                costs_eval: false,
                key,
            };
        }
        Prepared::Sim {
            variant,
            growth,
            key,
        }
    }

    /// Settles one prepared item (coordinating thread, submission
    /// order): counts budgets, emits telemetry, and inserts into the
    /// cache. `sim` carries the worker's result for `Prepared::Sim`
    /// items; `None` there means the deadline cancelled the simulation.
    fn commit(
        &mut self,
        patch: &Patch,
        prepared: Prepared,
        sim: Option<Evaluation>,
        op: &str,
    ) -> Option<Evaluation> {
        let (eval, key) = match prepared {
            Prepared::Hit(eval) => {
                self.counts.counters[Counter::CacheHits] += 1;
                self.observer
                    .emit(|| Event::Candidate(eval.candidate_event(patch.len(), true, op)));
                return Some(eval);
            }
            Prepared::StoreHit { eval, key } => {
                // Answered from the shared cache: budget-free, no
                // simulation, no Sim event — the warm-store tests count
                // on exactly that.
                self.counts.counters[Counter::StoreHits] += 1;
                self.emit_store("hit", Some(key));
                self.observer
                    .emit(|| Event::Candidate(eval.candidate_event(patch.len(), true, op)));
                self.insert(patch, &eval, Some(key));
                return Some(eval);
            }
            Prepared::Alias(_) => unreachable!("aliases are resolved by the batch merge"),
            Prepared::Reject {
                eval,
                lint,
                costs_eval,
                key,
            } => {
                if costs_eval {
                    self.counts.evals += 1;
                }
                if let Some((module, diag)) = lint {
                    self.counts.counters[Counter::RejectedStatic] += 1;
                    self.observer
                        .emit(|| cirfix_lint::diagnostic_event(&module, &diag));
                }
                (eval, key)
            }
            Prepared::Sim { key, .. } => {
                let eval = sim?;
                self.counts.evals += 1;
                // Fault-containment accounting: only fresh simulations
                // count, so cached answers never double-count and the
                // totals are identical across resumes.
                match eval.outcome {
                    EvalOutcome::Timeout => self.counts.counters[Counter::Timeouts] += 1,
                    EvalOutcome::Panicked => self.counts.counters[Counter::Panics] += 1,
                    EvalOutcome::ResourceExhausted => self.counts.counters[Counter::Exhausted] += 1,
                    _ => {}
                }
                (eval, key)
            }
        };
        if self.observer.enabled() {
            if let Some(m) = &eval.sim_metrics {
                self.observer.record(&Event::Sim(sim_stats(m)));
            }
            self.observer.record(&Event::EvalOutcome(EvalOutcomeEvent {
                kind: eval.outcome.as_str().into(),
                error: eval.error.clone().unwrap_or_default(),
            }));
            self.observer.record(&Event::Candidate(eval.candidate_event(
                patch.len(),
                false,
                op,
            )));
        }
        self.insert(patch, &eval, key);
        Some(eval)
    }

    /// Inserts a settled evaluation into the trial cache and, when a
    /// key is known, queues the (patch, fingerprint) pair for the next
    /// cache-delta record and writes the evaluation through to the
    /// shared cache.
    fn insert(&mut self, patch: &Patch, eval: &Evaluation, key: Option<Digest>) {
        self.cache.insert(patch.clone(), eval.clone());
        let (Some(key), Some((shared, _))) = (key, &self.shared) else {
            return;
        };
        self.pending_delta.push((patch.clone(), key));
        let _store = self.profiler.as_deref().map(|p| p.span(Phase::Store));
        if shared.insert(key, eval) {
            self.counts.counters[Counter::StoreWrites] += 1;
            self.emit_store("write", Some(key));
        } else if shared.take_degraded_event() {
            // The store just gave up after exhausting its write
            // retries; record the degradation once.
            self.emit_store("degraded", None);
        }
    }

    fn emit_store(&self, op: &str, key: Option<Digest>) {
        self.observer.emit(|| {
            Event::Store(StoreEvent {
                op: op.into(),
                key: key.map_or_else(String::new, |k| k.to_hex()),
                records: 1,
            })
        });
    }
}

/// Materializes logged trial-cache entries against the shared cache
/// for a resume. Fails with the first fingerprint the cache does not
/// hold.
pub(crate) fn resolve_logged(
    shared: &SharedEvalCache,
    entries: impl IntoIterator<Item = (Patch, Digest)>,
) -> Result<Vec<(Patch, Evaluation, Digest)>, Digest> {
    entries
        .into_iter()
        .map(|(patch, key)| Ok((patch, shared.peek(key).ok_or(key)?, key)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mutation::all_stmt_ids;
    use crate::oracle::oracle_from_golden;
    use crate::patch::Edit;
    use cirfix_parser::parse;
    use cirfix_sim::{ProbeSpec, SimConfig};

    const GOLDEN: &str = "
module cnt (c, r, q); input c, r; output reg [1:0] q;
  always @(posedge c) if (r) q <= 0; else q <= q + 1;
endmodule";

    const FAULTY: &str = "
module cnt (c, r, q); input c, r; output reg [1:0] q;
  always @(posedge c) if (!r) q <= 0; else q <= q + 1;
endmodule";

    const TB: &str = "
module tb; reg c, r; wire [1:0] q; cnt dut (c, r, q);
  initial begin c = 0; r = 1; #12 r = 0; end
  always #5 c = !c;
  initial #120 $finish;
endmodule";

    fn problem() -> RepairProblem {
        let probe = ProbeSpec::periodic(vec!["q".into()], 5, 10);
        let sim = SimConfig {
            max_time: 200,
            max_total_ops: 100_000,
            max_deltas: 1000,
            ..SimConfig::default()
        };
        let mut golden = parse(GOLDEN).unwrap();
        golden.extend_from(parse(TB).unwrap());
        let oracle = oracle_from_golden(&golden, "tb", &probe, &sim).unwrap();
        let mut source = parse(FAULTY).unwrap();
        source.extend_from(parse(TB).unwrap());
        RepairProblem {
            source,
            top: "tb".into(),
            design_modules: vec!["cnt".into()],
            probe,
            oracle,
            sim,
        }
    }

    fn delete_patches(problem: &RepairProblem, n: usize) -> Vec<Patch> {
        all_stmt_ids(&problem.source, &problem.design_modules)
            .into_iter()
            .take(n)
            .map(|target| Patch::single(Edit::DeleteStmt { target }))
            .collect()
    }

    #[test]
    fn batch_dedups_in_flight_duplicate_patches() {
        let problem = problem();
        let mut r = Evaluator::new(&problem, &RepairConfig::fast(1));
        let patch = delete_patches(&problem, 1).pop().unwrap();
        let batch = vec![patch.clone(), patch.clone(), patch];
        let out = r.evaluate(&batch, &[], true);
        assert!(out.iter().all(Option::is_some));
        let bits: Vec<u64> = out
            .iter()
            .map(|e| e.as_ref().unwrap().score.to_bits())
            .collect();
        assert_eq!(bits[0], bits[1]);
        assert_eq!(bits[0], bits[2]);
        assert_eq!(r.counts.evals, 1, "duplicates simulate once");
        assert_eq!(
            r.counts.counters[Counter::CacheHits],
            2,
            "aliases count as cache hits"
        );
        assert_eq!(
            r.counts.counters[Counter::PatchApplies],
            1,
            "aliases do zero AST work"
        );
    }

    #[test]
    fn batch_truncates_at_budget_exhaustion() {
        let problem = problem();
        let mut config = RepairConfig::fast(1);
        config.max_fitness_evals = 2;
        let mut r = Evaluator::new(&problem, &config);
        let batch = delete_patches(&problem, 4);
        assert_eq!(batch.len(), 4);
        let out = r.evaluate(&batch, &[], true);
        assert!(out[0].is_some());
        assert!(out[1].is_some());
        assert!(out[2].is_none(), "third item exceeds the budget");
        assert!(out[3].is_none());
        assert_eq!(r.counts.evals, 2);
    }

    #[test]
    fn batch_cache_hits_are_free_of_budget() {
        let problem = problem();
        let mut config = RepairConfig::fast(1);
        config.max_fitness_evals = 1;
        let mut r = Evaluator::new(&problem, &config);
        let patch = delete_patches(&problem, 1).pop().unwrap();
        assert!(r.evaluate(std::slice::from_ref(&patch), &[], true)[0].is_some());
        assert_eq!(r.counts.evals, 1);
        // Budget is spent, but a cached patch still resolves.
        let out = r.evaluate(std::slice::from_ref(&patch), &[], true);
        assert!(out[0].is_some(), "cache hits bypass the exhausted budget");
        assert_eq!(r.counts.evals, 1);
        assert_eq!(r.counts.counters[Counter::CacheHits], 1);
    }

    #[test]
    fn dispatch_contains_panics_without_poisoning_workers() {
        let problem = problem();
        let original = problem.source.clone();
        let probes: Vec<Probe> = (0..12)
            .map(|i| Probe::Variant {
                variant: &original,
                growth: 1.0,
                fault: (i % 5 == 3).then_some(FaultKind::Panic),
            })
            .collect();
        for jobs in [1, 4] {
            let dispatch = Dispatch {
                problem: &problem,
                params: FitnessParams::default(),
                jobs,
                deadline: None,
                eval_timeout: None,
                profiler: None,
            };
            let (out, _) = dispatch.run(&probes);
            // Every probe resolves: the workers survived their
            // neighbours' panics, which are classified worst-fitness.
            for (i, eval) in out.iter().enumerate() {
                let eval = eval.as_ref().expect("no deadline, so every probe resolves");
                if i % 5 == 3 {
                    assert_eq!(eval.outcome, EvalOutcome::Panicked, "jobs={jobs}");
                    assert_eq!(eval.score, 0.0);
                    let msg = eval.error.as_deref().unwrap_or_default();
                    assert!(msg.contains("injected fault: worker panic"), "{msg}");
                } else {
                    assert_eq!(eval.outcome, EvalOutcome::Ok, "jobs={jobs}");
                }
            }
        }
    }
}
