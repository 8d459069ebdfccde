//! The main CirFix loop (Algorithm 1 of the paper).
//!
//! Genetic programming over repair patches: tournament-selected parents
//! reproduce through repair templates, mutation, or crossover; children
//! are scored by the hardware fitness function; fault localization is
//! recomputed for every parent (supporting multi-edit repairs); the
//! search stops at the first plausible repair (fitness 1.0) or when
//! resources are exhausted, and the winning patch is minimized.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cirfix_ast::print;
use cirfix_ast::NodeId;
use cirfix_store::Digest;
use cirfix_telemetry::{Event, GenerationStats, HeartbeatEvent, Observer, Span, StoreEvent};
use rand::Rng;
use rand::SeedableRng;

use crate::control::SearchControl;
use crate::counters::{Counter, Counters};
use crate::crossover::crossover;
use crate::evaluator::{EvalCounts, Evaluation, Evaluator};
use crate::faultloc::{fault_loc_event, fault_localization, FaultLoc};
use crate::faults::FaultInjector;
use crate::fitness::{population_stats, FitnessParams};
use crate::mined::{compose_priors, mined_prior, mined_random_template};
use crate::minimize::minimize;
use crate::mutation::{mutate_with_prior, MutationParams};
use crate::oracle::RepairProblem;
use crate::patch::{apply_patch, Patch};
use crate::select::{elite_indices, tournament_select};
use crate::session::{Checkpoint, ResumeState, SessionRecorder, SharedEvalCache};
use crate::staticfilter::lint_prior;
use crate::templates::random_template;

/// Tunable parameters of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairConfig {
    /// Population size (`popnSize`). The paper uses 5000.
    pub popn_size: usize,
    /// Maximum generations. The paper uses 8.
    pub max_generations: u32,
    /// Probability of applying a repair template (`rtThreshold`, 0.2).
    pub rt_threshold: f64,
    /// Probability of mutation over crossover (`mutThreshold`, 0.7).
    pub mut_threshold: f64,
    /// Mutation sub-type thresholds and fix localization (§3.4, §3.6).
    pub mutation: MutationParams,
    /// Tournament size `t` (5).
    pub tournament_size: usize,
    /// Elitism fraction `e` (0.05).
    pub elitism_pct: f64,
    /// Fitness weighting (`φ = 2`).
    pub fitness: FitnessParams,
    /// Wall-clock budget (the paper uses 12 hours per trial).
    pub timeout: Duration,
    /// Budget of fitness evaluations (design simulations).
    pub max_fitness_evals: u64,
    /// Random seed; every trial in the paper is seeded distinctly.
    pub seed: u64,
    /// Recompute fault localization per parent (the paper's choice).
    /// When `false`, localization runs once on the original design.
    pub relocalize: bool,
    /// Bloat control: variants whose AST grows beyond this factor of the
    /// original are scored 0 without simulation, and their lineages are
    /// not extended (GenProg-style resource rejection; insert edits copy
    /// subtrees, so unchecked lineages can grow without bound).
    pub max_growth: f64,
    /// Bloat control for edit lists: crossover concatenates patch
    /// fragments, so lineages can accumulate thousands of (mostly stale)
    /// edits; parents longer than this reproduce from the original
    /// design instead.
    pub max_patch_len: usize,
    /// Lint-gate candidate mutants: variants that introduce new
    /// error-severity static findings (relative to the original faulty
    /// design) score 0 without being simulated, and are not counted as
    /// fitness evaluations.
    pub static_filter: bool,
    /// Weight mutation targets by lint findings on the original
    /// design: implicated nodes are sampled more often.
    pub lint_prior: bool,
    /// Fix patterns mined from the repair corpus (`cirfix mine`,
    /// loaded via `--mined-patterns`). When non-empty, the template
    /// operator draws support-weighted instances of the endorsed
    /// Table 1 classes, and a learned mutation prior composes
    /// multiplicatively with [`RepairConfig::lint_prior`]. Empty (the
    /// default) leaves the search byte-identical to the unmined
    /// engine.
    pub mined_patterns: Vec<cirfix_mine::FixPattern>,
    /// Worker threads for fitness evaluation. `0` means auto: the
    /// `CIRFIX_JOBS` environment variable when set, otherwise
    /// [`std::thread::available_parallelism`]. The search result is
    /// bit-identical for every value — only wall-clock time changes.
    pub jobs: usize,
    /// Scheduling quantum: how many children accumulate before a batch
    /// is dispatched to the worker pool. Deliberately *independent* of
    /// [`RepairConfig::jobs`] so batch composition (and therefore the
    /// result) does not depend on the worker count.
    pub batch_size: usize,
    /// Stop right after writing the checkpoint for this generation
    /// (0 = the seed population), returning
    /// [`RepairStatus::Interrupted`]. A deterministic stand-in for
    /// `kill -9` used by the resume tests and CI: the session log ends
    /// exactly at a generation boundary, the worst-case place a real
    /// crash can land.
    pub halt_after: Option<u32>,
    /// Per-candidate wall-clock budget. A simulation still running when
    /// its budget expires is cancelled cooperatively and the candidate
    /// scored worst-fitness with [`EvalOutcome::Timeout`](crate::EvalOutcome::Timeout) instead of
    /// stalling its worker. `None` (the default) disables the budget —
    /// the fully deterministic mode.
    pub eval_timeout: Option<Duration>,
    /// Deterministic fault injection for chaos testing: scheduled
    /// panics, hangs, simulator errors, and store-write failures keyed
    /// by evaluation ordinal. `None` (the default) injects nothing;
    /// production runs never set this.
    pub faults: Option<FaultInjector>,
    /// Telemetry destination. Defaults to a disabled observer, in which
    /// case no events are constructed.
    pub observer: Observer,
    /// External control for service mode: client-initiated cancellation
    /// (checked at candidate-batch boundaries, returning a resumable
    /// [`RepairStatus::Interrupted`]) and an optional fair-share batch
    /// gate through which every worker-pool dispatch takes a turn. The
    /// inert default adds no overhead and no behaviour change.
    pub control: SearchControl,
}

impl RepairConfig {
    /// The paper's parameters (§4.2): population 5000, 8 generations,
    /// rt 0.2, mut 0.7, del/ins/rep 0.3/0.3/0.4, t = 5, e = 5%, φ = 2,
    /// 12-hour timeout.
    pub fn paper() -> RepairConfig {
        RepairConfig {
            popn_size: 5000,
            max_generations: 8,
            rt_threshold: 0.2,
            mut_threshold: 0.7,
            mutation: MutationParams::default(),
            tournament_size: 5,
            elitism_pct: 0.05,
            fitness: FitnessParams { phi: 2.0 },
            timeout: Duration::from_secs(12 * 3600),
            max_fitness_evals: u64::MAX,
            seed: 1,
            relocalize: true,
            max_growth: 3.0,
            max_patch_len: 32,
            static_filter: false,
            lint_prior: false,
            mined_patterns: Vec::new(),
            jobs: 0,
            batch_size: 32,
            halt_after: None,
            eval_timeout: None,
            faults: None,
            observer: Observer::none(),
            control: SearchControl::none(),
        }
    }

    /// A scaled-down configuration for tests and CI-time experiments:
    /// same ratios as [`RepairConfig::paper`], smaller population.
    pub fn fast(seed: u64) -> RepairConfig {
        RepairConfig {
            popn_size: 300,
            max_generations: 8,
            timeout: Duration::from_secs(120),
            max_fitness_evals: 6_000,
            seed,
            ..RepairConfig::paper()
        }
    }
}

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStatus {
    /// A fitness-1.0 candidate was found.
    Plausible,
    /// Generations, evaluations, or wall clock ran out.
    Exhausted,
    /// The run stopped at a checkpoint ([`RepairConfig::halt_after`])
    /// with the search unfinished; resume it with
    /// [`crate::session::repair_session`].
    Interrupted,
}

/// Aggregate resource totals for a whole run. For a single trial these
/// repeat the per-trial numbers; [`repair_with_trials`] accumulates
/// across every trial (`+=`), including failed ones whose results are
/// otherwise discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTotals {
    /// Trials executed.
    pub trials: u32,
    /// Fitness probes (design simulations) across all trials.
    pub fitness_evals: u64,
    /// Wall clock across all trials.
    pub wall_time: Duration,
    /// Generations completed across all trials.
    pub generations: u32,
    /// Resolved evaluation worker count ([`RepairConfig::jobs`] after
    /// auto-detection).
    pub jobs: u32,
    /// Cumulative busy time across all evaluation workers. Worker
    /// utilization is `eval_busy / (wall_time * jobs)`.
    pub eval_busy: Duration,
    /// Every other counter ([`crate::COUNTERS`]) across all trials.
    pub counters: Counters,
}

impl std::ops::AddAssign for RunTotals {
    /// Adds another trial's (or run's) totals. Every trial of a run
    /// resolves the same worker count, so `jobs` takes the larger.
    fn add_assign(&mut self, rhs: RunTotals) {
        self.trials += rhs.trials;
        self.fitness_evals += rhs.fitness_evals;
        self.wall_time += rhs.wall_time;
        self.generations += rhs.generations;
        self.jobs = self.jobs.max(rhs.jobs);
        self.eval_busy += rhs.eval_busy;
        self.counters += rhs.counters;
    }
}

/// The outcome of one repair trial.
#[derive(Debug, Clone)]
pub struct RepairResult {
    /// Terminal status.
    pub status: RepairStatus,
    /// Best fitness reached.
    pub best_fitness: f64,
    /// The best patch (minimized when plausible).
    pub patch: Patch,
    /// Length of the winning patch before minimization.
    pub unminimized_len: usize,
    /// Completed generations.
    pub generations: u32,
    /// Fitness probes (distinct design simulations).
    pub fitness_evals: u64,
    /// Wall time spent.
    pub wall_time: Duration,
    /// Best fitness at the end of each generation.
    pub history: Vec<f64>,
    /// Strictly increasing best-fitness trajectory (the paper's RQ3,
    /// e.g. 0 → 0.58 → 0.77 → 1.0 for the triple-edit counter defect).
    pub improvement_steps: Vec<f64>,
    /// Regenerated source of the repaired design, when plausible.
    pub repaired_source: Option<String>,
    /// Evaluations answered from the patch cache (no simulation).
    pub cache_hits: u64,
    /// Extra fitness probes spent minimizing the winning patch
    /// (included in [`RepairResult::fitness_evals`]).
    pub minimize_evals: u64,
    /// Candidates rejected by the static lint filter without being
    /// simulated (zero unless [`RepairConfig::static_filter`] is on).
    pub rejected_static: u64,
    /// Resource totals across the whole run, including failed trials.
    pub totals: RunTotals,
}

impl RepairResult {
    /// `true` when a plausible (testbench-adequate) repair was found.
    pub fn is_plausible(&self) -> bool {
        self.status == RepairStatus::Plausible
    }
}

/// The repair engine: the search state of one trial (configuration,
/// RNG, priors, operator mix, session). Every candidate is scored
/// through its [`Evaluator`].
pub struct Repairer<'a> {
    problem: &'a RepairProblem,
    config: RepairConfig,
    rng: rand::rngs::StdRng,
    eval: Evaluator<'a>,
    prior: BTreeMap<NodeId, u32>,
    // Children per operator since the last GenerationStats emission.
    mix: OperatorMix,
    // Session log writer; checkpoints are written at every generation
    // boundary when present.
    session: Option<SessionRecorder>,
    // Checkpoint to restore instead of running the seed phase.
    resume: Option<ResumeState>,
}

#[derive(Debug, Clone, Copy, Default)]
struct OperatorMix {
    template: u64,
    mutation: u64,
    crossover: u64,
}

impl<'a> Repairer<'a> {
    /// Creates a repair engine for one trial.
    pub fn new(problem: &'a RepairProblem, config: RepairConfig) -> Repairer<'a> {
        let rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let lint = if config.lint_prior {
            lint_prior(&problem.source, &problem.design_modules)
        } else {
            BTreeMap::new()
        };
        // The learned prior composes multiplicatively with the lint
        // prior; with no mined patterns the lint prior passes through
        // untouched (including the all-empty case).
        let prior = if config.mined_patterns.is_empty() {
            lint
        } else {
            let mined = mined_prior(
                &problem.source,
                &problem.design_modules,
                &config.mined_patterns,
            );
            compose_priors(&lint, &mined)
        };
        Repairer {
            problem,
            eval: Evaluator::new(problem, &config),
            config,
            rng,
            prior,
            mix: OperatorMix::default(),
            session: None,
            resume: None,
        }
    }

    /// Attaches a fingerprint-keyed shared evaluation cache (a
    /// persistent store or a cross-trial in-memory cache). `scenario`
    /// is the [`crate::persist::problem_digest`] mixed into every
    /// variant fingerprint.
    pub fn with_store(mut self, shared: SharedEvalCache, scenario: Digest) -> Repairer<'a> {
        self.eval.attach_store(shared, scenario);
        self
    }

    /// Attaches a session log: a checkpoint is written at every
    /// generation boundary. Retrieve the recorder back with
    /// [`Repairer::take_session`] after the run.
    pub fn with_session(mut self, recorder: SessionRecorder) -> Repairer<'a> {
        self.session = Some(recorder);
        self
    }

    /// Restores a checkpoint instead of running the seed phase:
    /// [`Repairer::run`] continues from the recorded generation
    /// boundary with the RNG, counters, trial cache, and population
    /// exactly as they were.
    pub fn with_resume(mut self, state: ResumeState) -> Repairer<'a> {
        self.resume = Some(state);
        self
    }

    /// Hands the session recorder back to the caller (the recorder
    /// outlives one trial: a session spans several).
    pub fn take_session(&mut self) -> Option<SessionRecorder> {
        self.session.take()
    }

    /// Number of fitness probes so far (cache misses — each is one
    /// design simulation, the paper's dominant cost).
    pub fn fitness_evals(&self) -> u64 {
        self.eval.counts.evals
    }

    /// Evaluations answered from the trial cache so far.
    pub fn cache_hits(&self) -> u64 {
        self.eval.counts.counters[Counter::CacheHits]
    }

    /// Patch applications performed so far — the AST work of the trial.
    /// A cache hit performs none (see the cache test suite).
    pub fn patch_applies(&self) -> u64 {
        self.eval.counts.counters[Counter::PatchApplies]
    }

    /// The resolved evaluation worker count for this trial.
    pub fn jobs(&self) -> usize {
        self.eval.jobs()
    }

    /// Evaluates one patch through the trial cache without consulting
    /// the evaluation budget — how the original design is scored.
    /// Panics are contained and classified, exactly as for search
    /// candidates.
    pub fn evaluate_patch(&mut self, patch: &Patch) -> Evaluation {
        self.eval.evaluate_one(patch, "original")
    }

    /// The run totals of this trial so far.
    fn totals(&self, generations: u32, wall_time: Duration) -> RunTotals {
        let c = &self.eval.counts;
        RunTotals {
            trials: 1,
            fitness_evals: c.evals,
            wall_time,
            generations,
            jobs: self.eval.jobs() as u32,
            eval_busy: c.busy,
            counters: c.counters,
        }
    }

    /// Emits one search-progress snapshot. Called at generation
    /// boundaries and at run end — a deterministic cadence, so the
    /// heartbeat stream is identical for every worker count.
    fn emit_heartbeat(&self, status: &str, generation: u64, best_fitness: f64) {
        self.config.observer.emit(|| {
            let (evals, c) = (self.eval.counts.evals, &self.eval.counts.counters);
            let secs = self.eval.started.elapsed().as_secs_f64();
            Event::Heartbeat(HeartbeatEvent {
                status: status.to_string(),
                generation,
                best_fitness,
                fitness_evals: evals,
                cache_hits: c[Counter::CacheHits],
                store_hits: c[Counter::StoreHits],
                rejected_static: c[Counter::RejectedStatic],
                timeouts: c[Counter::Timeouts],
                panics: c[Counter::Panics],
                exhausted: c[Counter::Exhausted],
                evals_per_s: if secs > 0.0 { evals as f64 / secs } else { 0.0 },
            })
        });
    }

    /// Emits the profiler's per-phase busy totals and the eval-latency
    /// histogram (run end only: the totals are cumulative).
    fn emit_profile(&self) {
        let Some(p) = self.eval.profiler() else {
            return;
        };
        for phase in p.phase_events() {
            self.config.observer.record(&Event::Phase(phase));
        }
        if let Some(hist) = p.eval_histogram() {
            self.config.observer.record(&Event::Histogram(hist));
        }
    }

    fn localize_variant(&self, variant: &cirfix_ast::SourceFile, eval: &Evaluation) -> FaultLoc {
        let modules: Vec<&cirfix_ast::Module> = variant
            .modules
            .iter()
            .filter(|m| self.problem.design_modules.contains(&m.name))
            .collect();
        fault_localization(&modules, &eval.mismatched)
    }

    fn localize(&mut self, patch: &Patch, eval: &Evaluation) -> FaultLoc {
        let (variant, _) = apply_patch(&self.problem.source, &self.problem.design_modules, patch);
        let fl = self.localize_variant(&variant, eval);
        self.config.observer.emit(|| {
            let modules: Vec<&cirfix_ast::Module> = variant
                .modules
                .iter()
                .filter(|m| self.problem.design_modules.contains(&m.name))
                .collect();
            Event::FaultLoc(fault_loc_event(&fl, &modules))
        });
        fl
    }

    /// Produces one or two children from the population (lines 5–17 of
    /// Algorithm 1), each labeled with the operator that proposed it.
    fn reproduce(
        &mut self,
        popn: &[(Patch, Evaluation)],
        original_fl: &FaultLoc,
    ) -> Vec<(Patch, &'static str)> {
        let fitnesses: Vec<f64> = popn.iter().map(|(_, e)| e.score).collect();
        let pi = tournament_select(&fitnesses, self.config.tournament_size, &mut self.rng);
        let (mut parent, mut parent_eval) = (popn[pi].0.clone(), popn[pi].1.clone());
        // Bloat control: over-long lineages reproduce from the original.
        // (The empty patch is always cached — the original is evaluated
        // before any reproduction — so these lookups do no AST work and
        // stay on the coordinating thread.)
        if parent.len() > self.config.max_patch_len {
            parent = Patch::empty();
            parent_eval = self.evaluate_patch(&parent);
        }
        let (mut variant, _) =
            apply_patch(&self.problem.source, &self.problem.design_modules, &parent);
        if self.eval.is_bloated(&variant) {
            parent = Patch::empty();
            parent_eval = self.evaluate_patch(&parent);
            variant = self.problem.source.clone();
        }
        let fl = if self.config.relocalize {
            self.localize_variant(&variant, &parent_eval)
        } else {
            original_fl.clone()
        };
        let parent = &parent;

        let roll: f64 = self.rng.gen();
        if roll <= self.config.rt_threshold {
            // Repair templates. Without mined patterns this is the
            // paper's uniform draw; with them, endorsed Table 1
            // instances are over-weighted by support.
            self.mix.template += 1;
            if self.config.mined_patterns.is_empty() {
                match random_template(&variant, &self.problem.design_modules, &fl, &mut self.rng) {
                    Some(edit) => vec![(parent.with(edit), "template")],
                    None => vec![(parent.clone(), "template")],
                }
            } else {
                match mined_random_template(
                    &variant,
                    &self.problem.design_modules,
                    &fl,
                    &self.config.mined_patterns,
                    &mut self.rng,
                ) {
                    Some((edit, weight)) => {
                        if weight > 1 {
                            self.eval.counts.counters[Counter::PatternHits] += 1;
                            self.config.observer.emit(|| {
                                Event::Mine(cirfix_telemetry::MineEvent {
                                    op: "pattern_hit".to_string(),
                                    pattern: String::new(),
                                    support: weight - 1,
                                    count: 1,
                                })
                            });
                        }
                        vec![(parent.with(edit), "template")]
                    }
                    None => vec![(parent.clone(), "template")],
                }
            }
        } else if self.rng.gen::<f64>() <= self.config.mut_threshold {
            self.mix.mutation += 1;
            match mutate_with_prior(
                &variant,
                &self.problem.design_modules,
                &fl,
                self.config.mutation,
                &mut self.rng,
                &self.prior,
            ) {
                Some(edit) => vec![(parent.with(edit), "mutation")],
                None => vec![(parent.clone(), "mutation")],
            }
        } else {
            self.mix.crossover += 2;
            let pj = tournament_select(&fitnesses, self.config.tournament_size, &mut self.rng);
            let parent2 = &popn[pj].0;
            let (c1, c2) = crossover(parent, parent2, &mut self.rng);
            vec![(c1, "crossover"), (c2, "crossover")]
        }
    }

    /// Emits per-generation population statistics and resets the
    /// operator-mix counters.
    fn emit_generation(&mut self, generation: u64, popn: &[(Patch, Evaluation)], elites: u64) {
        if self.config.observer.enabled() {
            let scores: Vec<f64> = popn.iter().map(|(_, e)| e.score).collect();
            let (best, median, mean, distinct) = population_stats(&scores);
            self.config
                .observer
                .record(&Event::Generation(GenerationStats {
                    generation,
                    best_fitness: best,
                    median_fitness: median,
                    mean_fitness: mean,
                    distinct_fitness: distinct,
                    elites,
                    template_children: self.mix.template,
                    mutation_children: self.mix.mutation,
                    crossover_children: self.mix.crossover,
                }));
            self.emit_heartbeat("search", generation, best);
        }
        self.mix = OperatorMix::default();
    }

    /// Writes a cache-delta record plus a checkpoint at a generation
    /// boundary and syncs the log. A no-op without a session.
    #[allow(clippy::too_many_arguments)]
    fn write_checkpoint(
        &mut self,
        generation: u32,
        popn: &[(Patch, Evaluation)],
        best: &(Patch, f64),
        history: &[f64],
        improvement_steps: &[f64],
        found: &Option<Patch>,
    ) {
        if self.session.is_none() {
            return;
        }
        let delta = std::mem::take(&mut self.eval.pending_delta);
        let c = self.eval.counts;
        let checkpoint = Checkpoint {
            generation,
            rng: self.rng.state(),
            evals: c.evals,
            counters: c.counters,
            elapsed: self.eval.started.elapsed(),
            busy: c.busy,
            best_patch: best.0.clone(),
            best_score: best.1,
            history: history.to_vec(),
            improvement_steps: improvement_steps.to_vec(),
            population: popn.iter().map(|(p, _)| p.clone()).collect(),
            found: found.clone(),
        };
        let recorder = self.session.as_mut().expect("session checked above");
        recorder.cache_delta(&delta);
        recorder.checkpoint(&checkpoint);
        recorder.sync();
        self.config.observer.emit(|| {
            Event::Store(StoreEvent {
                op: "checkpoint".into(),
                key: String::new(),
                records: popn.len() as u64,
            })
        });
    }

    /// Builds the terminal result for a [`RepairConfig::halt_after`]
    /// stop or an external [`SearchControl`] cancellation: the search
    /// state is on disk, not in the result.
    fn interrupted_result(
        &self,
        best: &(Patch, f64),
        history: &[f64],
        improvement_steps: &[f64],
        generations: u32,
    ) -> RepairResult {
        self.emit_heartbeat("interrupted", u64::from(generations), best.1);
        self.emit_profile();
        let wall_time = self.eval.started.elapsed();
        RepairResult {
            status: RepairStatus::Interrupted,
            best_fitness: best.1,
            patch: best.0.clone(),
            unminimized_len: best.0.len(),
            generations,
            fitness_evals: self.eval.counts.evals,
            wall_time,
            history: history.to_vec(),
            improvement_steps: improvement_steps.to_vec(),
            repaired_source: None,
            cache_hits: self.eval.counts.counters[Counter::CacheHits],
            minimize_evals: 0,
            rejected_static: self.eval.counts.counters[Counter::RejectedStatic],
            totals: self.totals(generations, wall_time),
        }
    }

    /// Runs the trial to completion.
    pub fn run(&mut self) -> RepairResult {
        let obs = self.config.observer.clone();
        let _span = Span::enter("repair", obs.sink());
        let batch_size = self.config.batch_size.max(1);
        let original = Patch::empty();

        let mut best: (Patch, f64);
        let mut improvement_steps: Vec<f64>;
        let mut history: Vec<f64>;
        let mut found: Option<Patch>;
        let mut popn: Vec<(Patch, Evaluation)>;
        let mut generations: u32;
        let original_fl: FaultLoc;

        if let Some(state) = self.resume.take() {
            // Restore the checkpoint: RNG, counters, clock, the trial
            // cache, and the population — exactly as they were at the
            // generation boundary. The restored cache entries are
            // already in the session log, so they are *not* pushed to
            // `pending_delta` again.
            self.rng = rand::rngs::StdRng::from_state(state.rng);
            self.eval.counts = EvalCounts {
                evals: state.evals,
                counters: state.counters,
                busy: state.busy,
            };
            self.eval.started = Instant::now()
                .checked_sub(state.elapsed)
                .unwrap_or_else(Instant::now);
            for (patch, eval, _) in state.l1 {
                self.eval.restore(patch, eval);
            }
            best = state.best;
            improvement_steps = state.improvement_steps;
            history = state.history;
            found = state.found;
            popn = state.population;
            generations = state.generation;
            // Fault localization of the original is derived state:
            // recompute it silently (the FaultLoc event is already in
            // the pre-interruption trace).
            let original_eval = self
                .eval
                .cached(&original)
                .expect("checkpointed cache always holds the original")
                .clone();
            original_fl = self.localize_variant(&self.problem.source, &original_eval);
            let restored = u64::from(generations);
            obs.emit(|| {
                Event::Store(StoreEvent {
                    op: "resume".into(),
                    key: String::new(),
                    records: restored,
                })
            });
        } else {
            let original_eval = self.evaluate_patch(&original);
            original_fl = self.localize(&original, &original_eval);

            best = (original.clone(), original_eval.score);
            improvement_steps = vec![original_eval.score];
            history = Vec::new();
            // The original is part of the population: if it already
            // meets the oracle, there is nothing to repair.
            found = (original_eval.score >= 1.0).then(|| original.clone());

            // Seed population (`seed_popn(C, popnSize)`): the original
            // plus single-edit variants *of the original* — matching
            // GenProg's convention of seeding from the input program.
            // Children are generated serially (every RNG draw as
            // before) into batches of `batch_size`, scored across the
            // worker pool, and merged back in submission order; the
            // first plausible child ends the phase without paying for
            // anything beyond its own batch.
            popn = vec![(original.clone(), original_eval)];
            'seed: while popn.len() < self.config.popn_size
                && !self.eval.out_of_budget()
                && found.is_none()
            {
                // External cancellation lands at batch boundaries. No
                // checkpoint has been written yet in the seed phase, so
                // return without one: a partial-population checkpoint
                // would desynchronize the RNG replay on resume, while a
                // checkpoint-free log restarts the trial from scratch
                // with every already-persisted evaluation answered from
                // the store.
                if self.config.control.is_cancelled() {
                    return self.interrupted_result(&best, &history, &improvement_steps, 0);
                }
                let mut pending: Vec<(Patch, &'static str)> = Vec::new();
                while popn.len() + pending.len() < self.config.popn_size
                    && pending.len() < batch_size
                {
                    pending.extend(self.reproduce(&popn[..1], &original_fl));
                }
                let (batch, ops): (Vec<Patch>, Vec<&'static str>) = pending.into_iter().unzip();
                let evals = self.eval.evaluate(&batch, &ops, true);
                for (child, eval) in batch.into_iter().zip(evals) {
                    // A missing evaluation means the batch was cut
                    // short by the budget or the deadline.
                    let Some(eval) = eval else { break 'seed };
                    if eval.score > best.1 {
                        best = (child.clone(), eval.score);
                        improvement_steps.push(eval.score);
                    }
                    let plausible = eval.score >= 1.0;
                    popn.push((child.clone(), eval));
                    if plausible {
                        found = Some(child);
                        break 'seed;
                    }
                }
            }
            // The seed population is "generation 0": every trace
            // contains at least one GenerationStats event.
            self.emit_generation(0, &popn, 0);
            self.write_checkpoint(0, &popn, &best, &history, &improvement_steps, &found);
            generations = 0;
            if self.config.halt_after == Some(0) {
                return self.interrupted_result(&best, &history, &improvement_steps, 0);
            }
        }

        'outer: while found.is_none()
            && generations < self.config.max_generations
            && !self.eval.out_of_budget()
        {
            let mut children: Vec<(Patch, Evaluation)> = Vec::new();
            while children.len() < self.config.popn_size && found.is_none() {
                if self.eval.out_of_budget() {
                    break 'outer;
                }
                // Cancellation takes effect within one batch boundary,
                // abandoning the partial generation; resume replays it
                // deterministically from the last checkpoint.
                if self.config.control.is_cancelled() {
                    return self.interrupted_result(
                        &best,
                        &history,
                        &improvement_steps,
                        generations,
                    );
                }
                let mut pending: Vec<(Patch, &'static str)> = Vec::new();
                while children.len() + pending.len() < self.config.popn_size
                    && pending.len() < batch_size
                {
                    pending.extend(self.reproduce(&popn, &original_fl));
                }
                let (batch, ops): (Vec<Patch>, Vec<&'static str>) = pending.into_iter().unzip();
                let evals = self.eval.evaluate(&batch, &ops, true);
                for (child, eval) in batch.into_iter().zip(evals) {
                    let Some(eval) = eval else { break 'outer };
                    if eval.score > best.1 {
                        best = (child.clone(), eval.score);
                        improvement_steps.push(eval.score);
                    }
                    let plausible = eval.score >= 1.0;
                    children.push((child.clone(), eval));
                    if plausible {
                        found = Some(child);
                        break;
                    }
                }
            }
            // Elitism: the top e% of the current population survive.
            let fitnesses: Vec<f64> = popn.iter().map(|(_, e)| e.score).collect();
            let elite = elite_indices(&fitnesses, self.config.elitism_pct);
            let elites = elite.len() as u64;
            let mut next: Vec<(Patch, Evaluation)> =
                elite.into_iter().map(|i| popn[i].clone()).collect();
            next.extend(children);
            popn = next;
            generations += 1;
            history.push(best.1);
            self.emit_generation(u64::from(generations), &popn, elites);
            self.write_checkpoint(
                generations,
                &popn,
                &best,
                &history,
                &improvement_steps,
                &found,
            );
            if self.config.halt_after == Some(generations) {
                return self.interrupted_result(&best, &history, &improvement_steps, generations);
            }
        }

        let (status, patch, unminimized_len, repaired_source) = match found {
            Some(winning) => {
                let unmin = winning.len();
                // Minimization probes go through the same evaluator as
                // the search (cache, store, gates, containment,
                // telemetry), outside the budget.
                let evals_before_minimize = self.eval.counts.evals;
                let minimized = {
                    let _span = Span::enter("minimize", obs.sink());
                    minimize(&winning, |p| {
                        self.eval.evaluate_one(p, "minimize").score >= 1.0
                    })
                };
                self.eval.counts.counters[Counter::MinimizeEvals] +=
                    self.eval.counts.evals - evals_before_minimize;
                let (repaired, _) = apply_patch(
                    &self.problem.source,
                    &self.problem.design_modules,
                    &minimized,
                );
                let design_only: Vec<String> = repaired
                    .modules
                    .iter()
                    .filter(|m| self.problem.design_modules.contains(&m.name))
                    .map(print::module_to_string)
                    .collect();
                (
                    RepairStatus::Plausible,
                    minimized,
                    unmin,
                    Some(design_only.join("\n")),
                )
            }
            None => (RepairStatus::Exhausted, best.0.clone(), best.0.len(), None),
        };

        let final_best = if status == RepairStatus::Plausible {
            1.0
        } else {
            best.1
        };
        self.emit_heartbeat("done", u64::from(generations), final_best);
        self.emit_profile();

        let wall_time = self.eval.started.elapsed();
        RepairResult {
            status,
            best_fitness: final_best,
            patch,
            unminimized_len,
            generations,
            fitness_evals: self.eval.counts.evals,
            wall_time,
            history,
            improvement_steps,
            repaired_source,
            cache_hits: self.eval.counts.counters[Counter::CacheHits],
            minimize_evals: self.eval.counts.counters[Counter::MinimizeEvals],
            rejected_static: self.eval.counts.counters[Counter::RejectedStatic],
            totals: self.totals(generations, wall_time),
        }
    }
}

/// Convenience wrapper: one repair trial.
pub fn repair(problem: &RepairProblem, config: RepairConfig) -> RepairResult {
    Repairer::new(problem, config).run()
}

/// Runs up to `trials` independent trials with distinct seeds, stopping
/// at the first plausible repair — the paper's experimental protocol
/// (5 trials per defect scenario).
///
/// Trials share a fingerprint-keyed in-memory evaluation cache: a
/// mutant already simulated by an earlier trial (or a different edit
/// list producing the same design) is answered without re-simulation
/// and counted as a store hit in [`RunTotals::counters`].
pub fn repair_with_trials(
    problem: &RepairProblem,
    base: &RepairConfig,
    trials: u32,
) -> RepairResult {
    let scenario = crate::persist::problem_digest(problem, base);
    let shared = SharedEvalCache::memory();
    let mut last = None;
    // Failed trials used to vanish entirely; their resource consumption
    // now accumulates into the returned result's totals.
    let mut totals = RunTotals::default();
    for t in 0..trials.max(1) {
        let config = RepairConfig {
            seed: base.seed.wrapping_add(u64::from(t)),
            ..base.clone()
        };
        let mut result = Repairer::new(problem, config)
            .with_store(shared.clone(), scenario)
            .run();
        totals += result.totals;
        result.totals = totals;
        if result.is_plausible() {
            return result;
        }
        last = Some(result);
    }
    last.expect("at least one trial ran")
}
