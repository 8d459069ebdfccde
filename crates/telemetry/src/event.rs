//! The typed event model: one variant per pipeline stage worth
//! observing, mapped to the paper's Algorithm 1 / §3.2 structure.

use crate::json::JsonValue;

/// Per-generation population statistics (Algorithm 1's outer loop).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GenerationStats {
    /// Generation index; 0 is the seed population.
    pub generation: u64,
    /// Best fitness in the population after evaluation.
    pub best_fitness: f64,
    /// Median fitness of the population.
    pub median_fitness: f64,
    /// Mean fitness of the population.
    pub mean_fitness: f64,
    /// Number of distinct fitness values — a diversity proxy.
    pub distinct_fitness: u64,
    /// Individuals carried over by elitism.
    pub elites: u64,
    /// Children produced by a repair template this generation.
    pub template_children: u64,
    /// Children produced by a random mutation this generation.
    pub mutation_children: u64,
    /// Children produced by crossover this generation.
    pub crossover_children: u64,
}

/// One candidate patch evaluation (Algorithm 1's `fitness` call).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CandidateEvent {
    /// Number of edits in the candidate patch.
    pub patch_len: u64,
    /// Variant AST size relative to the original (1.0 = unchanged).
    pub growth_factor: f64,
    /// The fitness score in [0, 1].
    pub fitness: f64,
    /// Whether the score came from the evaluation cache rather than a
    /// fresh simulation.
    pub cached: bool,
    /// The operator that proposed the candidate: `"original"`,
    /// `"template"`, `"mutation"`, `"crossover"`, `"minimize"`, or
    /// `""` when unknown.
    pub op: String,
}

/// One fault-localization pass (Algorithm 2).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultLocEvent {
    /// Number of implicated AST nodes.
    pub implicated_nodes: u64,
    /// Number of mismatched output variables that seeded the pass.
    pub mismatched_vars: u64,
    /// Implicated nodes as a fraction of the design's nodes, in [0, 1].
    pub node_fraction: f64,
}

/// Simulator effort counters for one run (the stratified event queue of
/// §3.2's instrumented testbench evaluation).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimStats {
    /// Events processed from the active region.
    pub active_events: u64,
    /// Events promoted from the inactive region.
    pub inactive_events: u64,
    /// Non-blocking assignments flushed from the NBA region.
    pub nba_flushes: u64,
    /// Simulation timesteps advanced.
    pub timesteps: u64,
    /// Behavioral process resumptions.
    pub process_resumptions: u64,
    /// Largest queue depth observed across all regions.
    pub peak_queue_depth: u64,
}

/// One static-analysis diagnostic (a lint finding, or a mutant rejected
/// by the repair loop's static filter before simulation).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LintEvent {
    /// Module the diagnostic is anchored in.
    pub module: String,
    /// Stable diagnostic code, e.g. `"multiple-drivers"`.
    pub code: String,
    /// `"error"` or `"warning"`.
    pub severity: String,
    /// AST node id the diagnostic points at.
    pub node_id: u64,
    /// Human-readable explanation.
    pub message: String,
}

/// One persistent-store operation (PR 4's `cirfix-store`): cache hits
/// and write-throughs, session checkpoints and resumes, and detected
/// damage.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoreEvent {
    /// What happened: `"hit"` (evaluation answered from the persistent
    /// cache), `"write"` (evaluation persisted), `"checkpoint"`
    /// (session state saved at a generation boundary), `"resume"`
    /// (session state restored), or `"damage"` (corrupt or torn
    /// records detected and skipped).
    pub op: String,
    /// Content digest of the record involved (empty when the operation
    /// is not about one record).
    pub key: String,
    /// Records involved: 1 for hit/write, the restored generation for
    /// resume, population size for checkpoint, damaged-record count for
    /// damage.
    pub records: u64,
}

/// The classified conclusion of one fresh candidate evaluation — the
/// fault-containment taxonomy (clean run, simulator guard trip,
/// per-candidate budget expiry, contained panic, resource cap, static
/// rejection).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvalOutcomeEvent {
    /// Stable outcome name: `"ok"`, `"elaboration"`, `"oscillation"`,
    /// `"runaway"`, `"step_limit"`, `"runtime"`, `"timeout"`,
    /// `"panicked"`, `"resource_exhausted"`, or `"rejected"`.
    pub kind: String,
    /// The evaluation's error text (empty for `"ok"`).
    pub error: String,
}

/// A closed span: a named phase and its wall-clock duration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanEvent {
    /// Phase name, e.g. `"repair"` or `"minimize"`.
    pub name: String,
    /// Elapsed wall-clock time in nanoseconds.
    pub nanos: u64,
}

/// Aggregated busy time attributed to one pipeline phase by the
/// [`Profiler`](crate::Profiler): exclusive time (child spans deducted)
/// summed across all worker threads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseEvent {
    /// Phase name: `"parse"`, `"elaborate"`, `"simulate"`, `"score"`,
    /// or `"store"`.
    pub name: String,
    /// How many spans closed against this phase.
    pub count: u64,
    /// Total exclusive busy nanoseconds across all threads.
    pub nanos: u64,
}

/// A periodic snapshot of search progress, emitted at generation
/// boundaries (a deterministic cadence) and once more when the run
/// ends.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HeartbeatEvent {
    /// `"search"` while the run is live, `"done"` or `"interrupted"`
    /// for the final snapshot.
    pub status: String,
    /// Last completed generation.
    pub generation: u64,
    /// Best fitness seen so far.
    pub best_fitness: f64,
    /// Fresh fitness evaluations so far.
    pub fitness_evals: u64,
    /// In-memory cache hits so far.
    pub cache_hits: u64,
    /// Persistent-store cache hits so far.
    pub store_hits: u64,
    /// Mutants rejected by the static filter before simulation.
    pub rejected_static: u64,
    /// Evaluations that expired their per-candidate budget.
    pub timeouts: u64,
    /// Evaluations that panicked and were contained.
    pub panics: u64,
    /// Evaluations stopped by a simulator resource guard.
    pub exhausted: u64,
    /// Fresh-evaluation throughput since the run started (0 in
    /// timing-free traces).
    pub evals_per_s: f64,
}

/// A log-bucketed latency histogram: bucket `i` counts samples whose
/// duration in nanoseconds satisfies `2^i <= nanos < 2^(i+1)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramEvent {
    /// What was measured, e.g. `"eval_latency"`.
    pub name: String,
    /// Total number of samples.
    pub total: u64,
    /// Non-empty buckets as `(bucket index, count)` pairs, ascending.
    pub buckets: Vec<(u32, u64)>,
}

/// One fix-pattern mining operation or pattern usage in the search.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MineEvent {
    /// What happened: `"mined"` (patterns written), `"loaded"`
    /// (patterns fed into a repair run), or `"pattern_hit"` (a mined
    /// template produced the candidate being reported).
    pub op: String,
    /// Shape digest of the pattern involved (empty for aggregates).
    pub pattern: String,
    /// The pattern's corpus support (0 for aggregates).
    pub support: u64,
    /// Operation-specific count: patterns written/loaded, or 1 per hit.
    pub count: u64,
}

/// Any telemetry event the pipeline can emit.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Per-generation population statistics.
    Generation(GenerationStats),
    /// One candidate evaluation.
    Candidate(CandidateEvent),
    /// One fault-localization pass.
    FaultLoc(FaultLocEvent),
    /// One simulation run's effort counters.
    Sim(SimStats),
    /// One static-analysis diagnostic.
    Lint(LintEvent),
    /// One persistent-store operation.
    Store(StoreEvent),
    /// The classified conclusion of one fresh candidate evaluation.
    EvalOutcome(EvalOutcomeEvent),
    /// A completed timing span.
    Span(SpanEvent),
    /// Aggregated per-phase busy time from the profiler.
    Phase(PhaseEvent),
    /// A periodic search-progress snapshot.
    Heartbeat(HeartbeatEvent),
    /// A log-bucketed latency histogram.
    Histogram(HistogramEvent),
    /// A fix-pattern mining operation or mined-pattern usage.
    Mine(MineEvent),
}

impl Event {
    /// The event's type tag, as written to the JSON stream.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Generation(_) => "generation",
            Event::Candidate(_) => "candidate",
            Event::FaultLoc(_) => "fault_loc",
            Event::Sim(_) => "sim",
            Event::Lint(_) => "lint",
            Event::Store(_) => "store",
            Event::EvalOutcome(_) => "eval_outcome",
            Event::Span(_) => "span",
            Event::Phase(_) => "phase",
            Event::Heartbeat(_) => "heartbeat",
            Event::Histogram(_) => "histogram",
            Event::Mine(_) => "mine",
        }
    }

    /// Serializes the event as a single-line JSON object with a
    /// `"type"` tag followed by the variant's fields.
    pub fn to_json(&self) -> String {
        self.to_json_tagged(&[])
    }

    /// [`Event::to_json`] with extra string fields appended after the
    /// variant's own — used by the daemon to scope events to a job
    /// (`{"type":"heartbeat",...,"job":"4f09a1d2e6b3"}`) in an
    /// aggregate trace shared by every session. Tag keys must not
    /// collide with event fields; callers pick reserved names.
    pub fn to_json_tagged(&self, tags: &[(&str, &str)]) -> String {
        let mut pairs = vec![("type", JsonValue::Str(self.kind().into()))];
        match self {
            Event::Generation(g) => {
                pairs.push(("generation", JsonValue::Uint(g.generation)));
                pairs.push(("best_fitness", JsonValue::Float(g.best_fitness)));
                pairs.push(("median_fitness", JsonValue::Float(g.median_fitness)));
                pairs.push(("mean_fitness", JsonValue::Float(g.mean_fitness)));
                pairs.push(("distinct_fitness", JsonValue::Uint(g.distinct_fitness)));
                pairs.push(("elites", JsonValue::Uint(g.elites)));
                pairs.push(("template_children", JsonValue::Uint(g.template_children)));
                pairs.push(("mutation_children", JsonValue::Uint(g.mutation_children)));
                pairs.push(("crossover_children", JsonValue::Uint(g.crossover_children)));
            }
            Event::Candidate(c) => {
                pairs.push(("patch_len", JsonValue::Uint(c.patch_len)));
                pairs.push(("growth_factor", JsonValue::Float(c.growth_factor)));
                pairs.push(("fitness", JsonValue::Float(c.fitness)));
                pairs.push(("cached", JsonValue::Bool(c.cached)));
                pairs.push(("op", JsonValue::Str(c.op.clone())));
            }
            Event::FaultLoc(f) => {
                pairs.push(("implicated_nodes", JsonValue::Uint(f.implicated_nodes)));
                pairs.push(("mismatched_vars", JsonValue::Uint(f.mismatched_vars)));
                pairs.push(("node_fraction", JsonValue::Float(f.node_fraction)));
            }
            Event::Sim(s) => {
                pairs.push(("active_events", JsonValue::Uint(s.active_events)));
                pairs.push(("inactive_events", JsonValue::Uint(s.inactive_events)));
                pairs.push(("nba_flushes", JsonValue::Uint(s.nba_flushes)));
                pairs.push(("timesteps", JsonValue::Uint(s.timesteps)));
                pairs.push((
                    "process_resumptions",
                    JsonValue::Uint(s.process_resumptions),
                ));
                pairs.push(("peak_queue_depth", JsonValue::Uint(s.peak_queue_depth)));
            }
            Event::Lint(l) => {
                pairs.push(("module", JsonValue::Str(l.module.clone())));
                pairs.push(("code", JsonValue::Str(l.code.clone())));
                pairs.push(("severity", JsonValue::Str(l.severity.clone())));
                pairs.push(("node_id", JsonValue::Uint(l.node_id)));
                pairs.push(("message", JsonValue::Str(l.message.clone())));
            }
            Event::Store(st) => {
                pairs.push(("op", JsonValue::Str(st.op.clone())));
                pairs.push(("key", JsonValue::Str(st.key.clone())));
                pairs.push(("records", JsonValue::Uint(st.records)));
            }
            Event::EvalOutcome(o) => {
                pairs.push(("kind", JsonValue::Str(o.kind.clone())));
                pairs.push(("error", JsonValue::Str(o.error.clone())));
            }
            Event::Span(sp) => {
                pairs.push(("name", JsonValue::Str(sp.name.clone())));
                pairs.push(("nanos", JsonValue::Uint(sp.nanos)));
            }
            Event::Phase(p) => {
                pairs.push(("name", JsonValue::Str(p.name.clone())));
                pairs.push(("count", JsonValue::Uint(p.count)));
                pairs.push(("nanos", JsonValue::Uint(p.nanos)));
            }
            Event::Heartbeat(h) => {
                pairs.push(("status", JsonValue::Str(h.status.clone())));
                pairs.push(("generation", JsonValue::Uint(h.generation)));
                pairs.push(("best_fitness", JsonValue::Float(h.best_fitness)));
                pairs.push(("fitness_evals", JsonValue::Uint(h.fitness_evals)));
                pairs.push(("cache_hits", JsonValue::Uint(h.cache_hits)));
                pairs.push(("store_hits", JsonValue::Uint(h.store_hits)));
                pairs.push(("rejected_static", JsonValue::Uint(h.rejected_static)));
                pairs.push(("timeouts", JsonValue::Uint(h.timeouts)));
                pairs.push(("panics", JsonValue::Uint(h.panics)));
                pairs.push(("exhausted", JsonValue::Uint(h.exhausted)));
                pairs.push(("evals_per_s", JsonValue::Float(h.evals_per_s)));
            }
            Event::Histogram(h) => {
                pairs.push(("name", JsonValue::Str(h.name.clone())));
                pairs.push(("total", JsonValue::Uint(h.total)));
                pairs.push((
                    "buckets",
                    JsonValue::Array(
                        h.buckets
                            .iter()
                            .map(|&(bucket, count)| {
                                JsonValue::Array(vec![
                                    JsonValue::Uint(u64::from(bucket)),
                                    JsonValue::Uint(count),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            Event::Mine(m) => {
                pairs.push(("op", JsonValue::Str(m.op.clone())));
                pairs.push(("pattern", JsonValue::Str(m.pattern.clone())));
                pairs.push(("support", JsonValue::Uint(m.support)));
                pairs.push(("count", JsonValue::Uint(m.count)));
            }
        }
        for &(key, value) in tags {
            pairs.push((key, JsonValue::Str(value.into())));
        }
        JsonValue::obj(pairs).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn every_variant_serializes_to_valid_json() {
        let events = [
            Event::Generation(GenerationStats {
                generation: 3,
                best_fitness: 0.99,
                ..GenerationStats::default()
            }),
            Event::Candidate(CandidateEvent {
                patch_len: 2,
                growth_factor: 1.5,
                fitness: 0.75,
                cached: true,
                op: "mutation".into(),
            }),
            Event::FaultLoc(FaultLocEvent::default()),
            Event::Sim(SimStats::default()),
            Event::Lint(LintEvent {
                module: "cnt".into(),
                code: "multiple-drivers".into(),
                severity: "error".into(),
                node_id: 42,
                message: "`q` is driven from 2 places".into(),
            }),
            Event::Store(StoreEvent {
                op: "hit".into(),
                key: "6c62272e07bb014262b821756295c58d".into(),
                records: 1,
            }),
            Event::EvalOutcome(EvalOutcomeEvent {
                kind: "timeout".into(),
                error: "evaluation exceeded its wall-clock budget".into(),
            }),
            Event::Span(SpanEvent {
                name: "repair \"quoted\"".into(),
                nanos: 12345,
            }),
            Event::Phase(PhaseEvent {
                name: "simulate".into(),
                count: 40,
                nanos: 7_000_000,
            }),
            Event::Heartbeat(HeartbeatEvent {
                status: "search".into(),
                generation: 2,
                best_fitness: 0.875,
                fitness_evals: 123,
                cache_hits: 9,
                evals_per_s: 4200.5,
                ..HeartbeatEvent::default()
            }),
            Event::Histogram(HistogramEvent {
                name: "eval_latency".into(),
                total: 5,
                buckets: vec![(14, 3), (17, 2)],
            }),
            Event::Mine(MineEvent {
                op: "pattern_hit".into(),
                pattern: "6c62272e07bb014262b821756295c58d".into(),
                support: 3,
                count: 1,
            }),
        ];
        for e in &events {
            let line = e.to_json();
            parse_json(&line).expect("valid JSON");
            assert!(line.contains(&format!("\"type\":\"{}\"", e.kind())));
        }
    }
}
