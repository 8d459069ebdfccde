//! Run reports: folding a telemetry trace or a persisted session log
//! into one post-hoc summary of a repair run.
//!
//! The GP search emits a JSON-lines trace (PR 1's observer) and a
//! crash-safe session log (PR 4's store). Both describe the same run
//! from different angles — the trace is event-by-event, the log is
//! checkpoint-by-checkpoint — and neither is pleasant to read raw.
//! [`RunReport`] folds either into the questions §5 of the paper
//! actually asks of a run: did fitness converge and how fast
//! (convergence curve per generation), where did the time go (per-phase
//! busy breakdown), what happened to the candidates (outcome table),
//! did the caches help (cache/store effectiveness), and which operators
//! earned their keep (proposed vs. survived vs. plausible).
//!
//! Folding is pure and deterministic: the same trace bytes produce the
//! same report bytes, so reports on timing-free traces are themselves
//! byte-identical across worker counts.

use cirfix_store::{field, field_f64, field_str, field_u64, parse_json};
use cirfix_telemetry::{HeartbeatEvent, JsonValue};

use crate::counters::{Counter, Counters};

/// One generation of the convergence curve.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationRow {
    /// Generation index (0 = seed population).
    pub generation: u64,
    /// Best fitness in the population.
    pub best: f64,
    /// Median fitness.
    pub median: f64,
    /// Mean fitness.
    pub mean: f64,
    /// Distinct fitness values (diversity proxy).
    pub distinct: u64,
}

/// Aggregated busy time for one pipeline phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase name (`"parse"`, `"elaborate"`, ...).
    pub name: String,
    /// Spans closed against the phase.
    pub count: u64,
    /// Exclusive busy nanoseconds across all workers.
    pub nanos: u64,
}

/// Efficacy of one candidate-producing operator.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorRow {
    /// Operator label (`"template"`, `"mutation"`, `"crossover"`, ...).
    pub op: String,
    /// Candidates the operator proposed.
    pub proposed: u64,
    /// Proposals with fitness > 0 (NaN counts as not surviving).
    pub survived: u64,
    /// Proposals reaching fitness 1.0 — plausible repairs.
    pub plausible: u64,
}

/// One trial folded from a session log's final checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRow {
    /// Trial index.
    pub trial: u64,
    /// Last checkpointed generation.
    pub generation: u64,
    /// Fresh fitness evaluations.
    pub evals: u64,
    /// Every other counter at the checkpoint.
    pub counters: Counters,
    /// Wall-clock nanoseconds at the checkpoint.
    pub elapsed_nanos: u64,
    /// Summed worker busy nanoseconds.
    pub busy_nanos: u64,
    /// Best fitness reached.
    pub best: f64,
    /// Best-fitness-so-far per generation (the convergence curve).
    pub history: Vec<f64>,
    /// Whether the trial found a plausible repair.
    pub found: bool,
}

/// A folded run report; build with [`RunReport::from_trace`] or
/// [`RunReport::from_session`], consume with [`RunReport::render`] or
/// [`RunReport::to_json`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// `"trace"` or `"session"`.
    pub source: String,
    /// Events (trace) or records (session) consumed.
    pub events: u64,
    /// Session header fields, in log order (sessions only).
    pub meta: Vec<(String, String)>,
    /// Convergence curve (traces only; sessions put it per trial).
    pub generations: Vec<GenerationRow>,
    /// Per-trial summaries (sessions only).
    pub trials: Vec<TrialRow>,
    /// Per-phase busy breakdown, in first-seen order.
    pub phases: Vec<PhaseRow>,
    /// Evaluation outcome counts, in first-seen order.
    pub outcomes: Vec<(String, u64)>,
    /// Operator efficacy, in first-seen order.
    pub operators: Vec<OperatorRow>,
    /// Candidate evaluations observed.
    pub candidates: u64,
    /// Candidates answered from a cache.
    pub cached: u64,
    /// Store operation counts (`hit`, `write`, ...), in first-seen order.
    pub store_ops: Vec<(String, u64)>,
    /// The last heartbeat seen (the terminal snapshot, normally).
    pub heartbeat: Option<HeartbeatEvent>,
    /// Eval-latency histogram: total samples and `(bucket, count)`
    /// pairs, merged across trials.
    pub eval_latency: Option<(u64, Vec<(u32, u64)>)>,
    /// Terminal status (`"plausible"`, `"exhausted"`, `"interrupted"`,
    /// or a heartbeat status), when one was recorded.
    pub status: Option<String>,
    /// Non-empty trace lines that were not valid JSON (truncated tails,
    /// interleaved garbage). They are skipped, not fatal: a report over
    /// a torn trace still folds everything that did survive.
    pub malformed_lines: u64,
}

fn bump(table: &mut Vec<(String, u64)>, key: &str, by: u64) {
    match table.iter_mut().find(|(k, _)| k == key) {
        Some((_, n)) => *n += by,
        None => table.push((key.to_string(), by)),
    }
}

fn heartbeat_from(v: &JsonValue) -> HeartbeatEvent {
    HeartbeatEvent {
        status: field_str(v, "status").unwrap_or("").to_string(),
        generation: field_u64(v, "generation").unwrap_or(0),
        best_fitness: field_f64(v, "best_fitness").unwrap_or(0.0),
        fitness_evals: field_u64(v, "fitness_evals").unwrap_or(0),
        cache_hits: field_u64(v, "cache_hits").unwrap_or(0),
        store_hits: field_u64(v, "store_hits").unwrap_or(0),
        rejected_static: field_u64(v, "rejected_static").unwrap_or(0),
        timeouts: field_u64(v, "timeouts").unwrap_or(0),
        panics: field_u64(v, "panics").unwrap_or(0),
        exhausted: field_u64(v, "exhausted").unwrap_or(0),
        evals_per_s: field_f64(v, "evals_per_s").unwrap_or(0.0),
    }
}

/// Parses one trace line and returns its heartbeat, if it is one.
/// Shared with `cirfix watch`, which redraws on every heartbeat.
pub fn heartbeat_line(line: &str) -> Option<HeartbeatEvent> {
    let v = parse_json(line.trim()).ok()?;
    (field_str(&v, "type") == Some("heartbeat")).then(|| heartbeat_from(&v))
}

impl RunReport {
    /// Folds a JSON-lines telemetry trace into a report.
    ///
    /// Non-empty lines that are not valid JSON — truncated tails from a
    /// killed writer, interleaved garbage — are skipped and counted in
    /// [`RunReport::malformed_lines`] rather than aborting the fold.
    /// Unknown event types are ignored (traces are allowed to grow new
    /// event kinds).
    pub fn from_trace(text: &str) -> RunReport {
        let mut r = RunReport {
            source: "trace".to_string(),
            ..RunReport::default()
        };
        let mut hist: Vec<(u32, u64)> = Vec::new();
        let mut hist_total = 0u64;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            let Ok(v) = parse_json(line.trim()) else {
                r.malformed_lines += 1;
                continue;
            };
            r.events += 1;
            match field_str(&v, "type").unwrap_or("") {
                "generation" => r.generations.push(GenerationRow {
                    generation: field_u64(&v, "generation").unwrap_or(0),
                    best: field_f64(&v, "best_fitness").unwrap_or(0.0),
                    median: field_f64(&v, "median_fitness").unwrap_or(0.0),
                    mean: field_f64(&v, "mean_fitness").unwrap_or(0.0),
                    distinct: field_u64(&v, "distinct_fitness").unwrap_or(0),
                }),
                "candidate" => {
                    r.candidates += 1;
                    if matches!(field(&v, "cached"), Some(JsonValue::Bool(true))) {
                        r.cached += 1;
                    }
                    let op = field_str(&v, "op").unwrap_or("");
                    let fitness = field_f64(&v, "fitness").unwrap_or(f64::NAN);
                    let row = match r.operators.iter_mut().find(|o| o.op == op) {
                        Some(row) => row,
                        None => {
                            r.operators.push(OperatorRow {
                                op: op.to_string(),
                                proposed: 0,
                                survived: 0,
                                plausible: 0,
                            });
                            r.operators.last_mut().expect("just pushed")
                        }
                    };
                    row.proposed += 1;
                    // NaN fails both comparisons: a poisoned fitness
                    // neither survives nor counts as plausible.
                    if fitness > 0.0 {
                        row.survived += 1;
                    }
                    if fitness >= 1.0 {
                        row.plausible += 1;
                    }
                }
                "eval_outcome" => {
                    bump(&mut r.outcomes, field_str(&v, "kind").unwrap_or(""), 1);
                }
                "phase" => {
                    let name = field_str(&v, "name").unwrap_or("");
                    let count = field_u64(&v, "count").unwrap_or(0);
                    let nanos = field_u64(&v, "nanos").unwrap_or(0);
                    match r.phases.iter_mut().find(|p| p.name == name) {
                        Some(p) => {
                            p.count += count;
                            p.nanos += nanos;
                        }
                        None => r.phases.push(PhaseRow {
                            name: name.to_string(),
                            count,
                            nanos,
                        }),
                    }
                }
                "heartbeat" => {
                    let h = heartbeat_from(&v);
                    r.status = Some(h.status.clone());
                    r.heartbeat = Some(h);
                }
                "histogram" => {
                    hist_total += field_u64(&v, "total").unwrap_or(0);
                    if let Some(JsonValue::Array(buckets)) = field(&v, "buckets") {
                        for b in buckets {
                            if let JsonValue::Array(pair) = b {
                                if let (Some(JsonValue::Uint(i)), Some(JsonValue::Uint(c))) =
                                    (pair.first(), pair.get(1))
                                {
                                    let idx = *i as u32;
                                    match hist.iter_mut().find(|(j, _)| *j == idx) {
                                        Some((_, n)) => *n += c,
                                        None => hist.push((idx, *c)),
                                    }
                                }
                            }
                        }
                    }
                }
                "store" => {
                    bump(&mut r.store_ops, field_str(&v, "op").unwrap_or(""), 1);
                }
                _ => {}
            }
        }
        if hist_total > 0 {
            hist.sort_unstable();
            r.eval_latency = Some((hist_total, hist));
        }
        r
    }

    /// Folds a persisted session log (as loaded by
    /// `Store::load_session`) into a report: the last checkpoint per
    /// trial wins, its `history_bits` becomes that trial's convergence
    /// curve, and a `complete` record sets the terminal status.
    pub fn from_session(records: &[JsonValue]) -> RunReport {
        let mut r = RunReport {
            source: "session".to_string(),
            ..RunReport::default()
        };
        let mut trial = 0u64;
        for v in records {
            r.events += 1;
            match field_str(v, "type").unwrap_or("") {
                "meta" => {
                    if let JsonValue::Object(pairs) = v {
                        for (k, val) in pairs {
                            if k == "type" {
                                continue;
                            }
                            let text = match val {
                                JsonValue::Str(s) => s.clone(),
                                other => other.to_json(),
                            };
                            r.meta.push((k.clone(), text));
                        }
                    }
                }
                "trial" => trial = field_u64(v, "trial").unwrap_or(trial),
                "checkpoint" => {
                    let t = field_u64(v, "trial").unwrap_or(trial);
                    let history = match field(v, "history_bits") {
                        Some(JsonValue::Array(bits)) => bits
                            .iter()
                            .filter_map(|b| match b {
                                JsonValue::Uint(u) => Some(f64::from_bits(*u)),
                                _ => None,
                            })
                            .collect(),
                        _ => Vec::new(),
                    };
                    let row = TrialRow {
                        trial: t,
                        generation: field_u64(v, "generation").unwrap_or(0),
                        evals: field_u64(v, "evals").unwrap_or(0),
                        // Nothing is required, so this cannot fail.
                        counters: Counters::from_json(v, &[]).unwrap_or_default(),
                        elapsed_nanos: field_u64(v, "elapsed_nanos").unwrap_or(0),
                        busy_nanos: field_u64(v, "busy_nanos").unwrap_or(0),
                        best: f64::from_bits(field_u64(v, "best_bits").unwrap_or(0)),
                        history,
                        found: !matches!(field(v, "found"), None | Some(JsonValue::Null)),
                    };
                    match r.trials.iter_mut().find(|existing| existing.trial == t) {
                        Some(existing) => *existing = row,
                        None => r.trials.push(row),
                    }
                }
                "complete" => {
                    r.status = field_str(v, "status").map(str::to_string);
                }
                _ => {}
            }
        }
        // Roll trial counters up so the totals sections render for
        // sessions too.
        for t in &r.trials {
            let c = &t.counters;
            r.candidates += t.evals + c[Counter::CacheHits] + c[Counter::StoreHits];
            r.cached += c[Counter::CacheHits];
            for (op, counter) in [("hit", Counter::StoreHits), ("write", Counter::StoreWrites)] {
                if c[counter] > 0 {
                    bump(&mut r.store_ops, op, c[counter]);
                }
            }
        }
        r
    }

    /// Renders the report as human-readable text, ending in a newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, s: &str| {
            out.push_str(s);
            out.push('\n');
        };
        push(
            &mut out,
            &format!(
                "run report ({}, {} {})",
                self.source,
                self.events,
                if self.source == "session" {
                    "records"
                } else {
                    "events"
                }
            ),
        );
        if let Some(status) = &self.status {
            push(&mut out, &format!("status: {status}"));
        }
        if self.malformed_lines > 0 {
            push(
                &mut out,
                &format!("malformed lines skipped: {}", self.malformed_lines),
            );
        }
        if !self.meta.is_empty() {
            push(&mut out, "");
            push(&mut out, "session:");
            for (k, v) in &self.meta {
                push(&mut out, &format!("  {k}: {v}"));
            }
        }
        if !self.generations.is_empty() {
            push(&mut out, "");
            push(&mut out, "convergence:");
            push(&mut out, "  gen       best     median       mean  distinct");
            for g in &self.generations {
                push(
                    &mut out,
                    &format!(
                        "  {:<4} {:>9} {:>10} {:>10} {:>9}",
                        g.generation,
                        fmt_f4(g.best),
                        fmt_f4(g.median),
                        fmt_f4(g.mean),
                        g.distinct
                    ),
                );
            }
        }
        for t in &self.trials {
            push(&mut out, "");
            push(
                &mut out,
                &format!(
                    "trial {} (generation {}, best {}{}):",
                    t.trial,
                    t.generation,
                    fmt_f(t.best),
                    if t.found { ", plausible" } else { "" }
                ),
            );
            push(
                &mut out,
                &format!(
                    "  evals {} | wall {} | busy {}",
                    t.evals,
                    fmt_nanos(t.elapsed_nanos),
                    fmt_nanos(t.busy_nanos)
                ),
            );
            let cells: Vec<String> = t
                .counters
                .iter()
                .map(|(spec, n)| format!("{} {n}", spec.label))
                .collect();
            for line in cells.chunks(4) {
                push(&mut out, &format!("  {}", line.join(" | ")));
            }
            if !t.history.is_empty() {
                let curve: Vec<String> = t.history.iter().map(|&f| fmt_f4(f)).collect();
                push(&mut out, &format!("  best by gen: {}", curve.join(" ")));
            }
        }
        if !self.phases.is_empty() {
            push(&mut out, "");
            push(&mut out, "phase breakdown (busy):");
            for p in &self.phases {
                push(
                    &mut out,
                    &format!("  {:<10} {:>8} x {}", p.name, p.count, fmt_nanos(p.nanos)),
                );
            }
        }
        if !self.outcomes.is_empty() {
            push(&mut out, "");
            push(&mut out, "evaluation outcomes:");
            for (kind, n) in &self.outcomes {
                push(&mut out, &format!("  {kind:<20} {n:>8}"));
            }
        }
        if !self.operators.is_empty() {
            push(&mut out, "");
            push(&mut out, "operator efficacy:");
            push(&mut out, "  op          proposed  survived  plausible");
            for o in &self.operators {
                let label = if o.op.is_empty() { "(unknown)" } else { &o.op };
                push(
                    &mut out,
                    &format!(
                        "  {:<10} {:>9} {:>9} {:>10}",
                        label, o.proposed, o.survived, o.plausible
                    ),
                );
            }
        }
        if self.candidates > 0 || !self.store_ops.is_empty() {
            push(&mut out, "");
            push(&mut out, "cache & store:");
            if self.candidates > 0 {
                push(
                    &mut out,
                    &format!(
                        "  candidate evaluations {} (cached {})",
                        self.candidates, self.cached
                    ),
                );
            }
            for (op, n) in &self.store_ops {
                push(&mut out, &format!("  store {op:<10} {n:>8}"));
            }
        }
        if let Some((total, buckets)) = &self.eval_latency {
            push(&mut out, "");
            push(&mut out, &format!("eval latency ({total} samples):"));
            for (bucket, count) in buckets {
                push(
                    &mut out,
                    &format!("  ~{:<10} {:>8}", fmt_nanos(1u64 << bucket), count),
                );
            }
        }
        if let Some(h) = &self.heartbeat {
            push(&mut out, "");
            push(&mut out, "final heartbeat:");
            push(&mut out, &render_heartbeat(h, "  "));
        }
        out
    }

    /// The report as one JSON object (the `--json` output).
    pub fn to_json(&self) -> String {
        let mut pairs = vec![
            ("source", JsonValue::Str(self.source.clone())),
            ("events", JsonValue::Uint(self.events)),
            ("malformed_lines", JsonValue::Uint(self.malformed_lines)),
            (
                "status",
                match &self.status {
                    Some(s) => JsonValue::Str(s.clone()),
                    None => JsonValue::Null,
                },
            ),
        ];
        if !self.meta.is_empty() {
            pairs.push((
                "meta",
                JsonValue::Object(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
                        .collect(),
                ),
            ));
        }
        pairs.push((
            "generations",
            JsonValue::Array(
                self.generations
                    .iter()
                    .map(|g| {
                        JsonValue::obj(vec![
                            ("generation", JsonValue::Uint(g.generation)),
                            ("best", JsonValue::Float(g.best)),
                            ("median", JsonValue::Float(g.median)),
                            ("mean", JsonValue::Float(g.mean)),
                            ("distinct", JsonValue::Uint(g.distinct)),
                        ])
                    })
                    .collect(),
            ),
        ));
        if !self.trials.is_empty() {
            pairs.push((
                "trials",
                JsonValue::Array(
                    self.trials
                        .iter()
                        .map(|t| {
                            let mut row = vec![
                                ("trial", JsonValue::Uint(t.trial)),
                                ("generation", JsonValue::Uint(t.generation)),
                                ("evals", JsonValue::Uint(t.evals)),
                            ];
                            row.extend(t.counters.json_pairs());
                            row.extend([
                                ("elapsed_nanos", JsonValue::Uint(t.elapsed_nanos)),
                                ("busy_nanos", JsonValue::Uint(t.busy_nanos)),
                                ("best", JsonValue::Float(t.best)),
                                (
                                    "history",
                                    JsonValue::Array(
                                        t.history.iter().map(|&f| JsonValue::Float(f)).collect(),
                                    ),
                                ),
                                ("found", JsonValue::Bool(t.found)),
                            ]);
                            JsonValue::obj(row)
                        })
                        .collect(),
                ),
            ));
        }
        pairs.push((
            "phases",
            JsonValue::Array(
                self.phases
                    .iter()
                    .map(|p| {
                        JsonValue::obj(vec![
                            ("name", JsonValue::Str(p.name.clone())),
                            ("count", JsonValue::Uint(p.count)),
                            ("nanos", JsonValue::Uint(p.nanos)),
                        ])
                    })
                    .collect(),
            ),
        ));
        pairs.push((
            "outcomes",
            JsonValue::Object(
                self.outcomes
                    .iter()
                    .map(|(k, n)| (k.clone(), JsonValue::Uint(*n)))
                    .collect(),
            ),
        ));
        pairs.push((
            "operators",
            JsonValue::Array(
                self.operators
                    .iter()
                    .map(|o| {
                        JsonValue::obj(vec![
                            ("op", JsonValue::Str(o.op.clone())),
                            ("proposed", JsonValue::Uint(o.proposed)),
                            ("survived", JsonValue::Uint(o.survived)),
                            ("plausible", JsonValue::Uint(o.plausible)),
                        ])
                    })
                    .collect(),
            ),
        ));
        pairs.push(("candidates", JsonValue::Uint(self.candidates)));
        pairs.push(("cached", JsonValue::Uint(self.cached)));
        pairs.push((
            "store_ops",
            JsonValue::Object(
                self.store_ops
                    .iter()
                    .map(|(k, n)| (k.clone(), JsonValue::Uint(*n)))
                    .collect(),
            ),
        ));
        if let Some(h) = &self.heartbeat {
            pairs.push((
                "heartbeat",
                JsonValue::obj(vec![
                    ("status", JsonValue::Str(h.status.clone())),
                    ("generation", JsonValue::Uint(h.generation)),
                    ("best_fitness", JsonValue::Float(h.best_fitness)),
                    ("fitness_evals", JsonValue::Uint(h.fitness_evals)),
                    ("cache_hits", JsonValue::Uint(h.cache_hits)),
                    ("store_hits", JsonValue::Uint(h.store_hits)),
                    ("rejected_static", JsonValue::Uint(h.rejected_static)),
                    ("timeouts", JsonValue::Uint(h.timeouts)),
                    ("panics", JsonValue::Uint(h.panics)),
                    ("exhausted", JsonValue::Uint(h.exhausted)),
                    ("evals_per_s", JsonValue::Float(h.evals_per_s)),
                ]),
            ));
        }
        if let Some((total, buckets)) = &self.eval_latency {
            pairs.push((
                "eval_latency",
                JsonValue::obj(vec![
                    ("total", JsonValue::Uint(*total)),
                    (
                        "buckets",
                        JsonValue::Array(
                            buckets
                                .iter()
                                .map(|&(b, c)| {
                                    JsonValue::Array(vec![
                                        JsonValue::Uint(u64::from(b)),
                                        JsonValue::Uint(c),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        JsonValue::obj(pairs).to_json()
    }
}

/// Renders one heartbeat as indented lines (shared with `cirfix watch`).
pub fn render_heartbeat(h: &HeartbeatEvent, indent: &str) -> String {
    let throughput = if h.evals_per_s > 0.0 {
        format!(" ({} evals/s)", fmt_f(h.evals_per_s))
    } else {
        String::new()
    };
    format!(
        "{indent}status {} | generation {} | best {}\n\
         {indent}evals {}{} | cache hits {} | store hits {}\n\
         {indent}rejected {} | timeouts {} | panics {} | exhausted {}",
        h.status,
        h.generation,
        fmt_f(h.best_fitness),
        h.fitness_evals,
        throughput,
        h.cache_hits,
        h.store_hits,
        h.rejected_static,
        h.timeouts,
        h.panics,
        h.exhausted,
    )
}

/// Table-cell float rendering: four decimals (full precision lives in
/// the JSON output), non-finite values spelled like the trace writer's.
fn fmt_f4(f: f64) -> String {
    if f.is_finite() {
        format!("{f:.4}")
    } else {
        fmt_f(f)
    }
}

/// Deterministic float rendering: shortest round-trip form, with the
/// same non-finite spellings the trace writer uses.
fn fmt_f(f: f64) -> String {
    if f.is_nan() {
        "NaN".to_string()
    } else if f.is_infinite() {
        if f > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
    } else {
        format!("{f:?}")
    }
}

/// Renders nanoseconds with a readable unit; exact below 1 µs, three
/// significant decimals above.
fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.3}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        r#"{"type":"generation","generation":0,"best_fitness":0.5,"median_fitness":0.25,"mean_fitness":0.3,"distinct_fitness":4,"elites":0,"template_children":0,"mutation_children":0,"crossover_children":0}"#,
        "\n",
        r#"{"type":"candidate","patch_len":1,"growth_factor":1.0,"fitness":0.5,"cached":false,"op":"template"}"#,
        "\n",
        r#"{"type":"candidate","patch_len":2,"growth_factor":1.0,"fitness":1.0,"cached":false,"op":"mutation"}"#,
        "\n",
        r#"{"type":"candidate","patch_len":2,"growth_factor":1.0,"fitness":"NaN","cached":true,"op":"mutation"}"#,
        "\n",
        r#"{"type":"eval_outcome","kind":"ok","error":""}"#,
        "\n",
        r#"{"type":"eval_outcome","kind":"timeout","error":"budget"}"#,
        "\n",
        r#"{"type":"phase","name":"simulate","count":2,"nanos":2000}"#,
        "\n",
        r#"{"type":"phase","name":"simulate","count":1,"nanos":1000}"#,
        "\n",
        r#"{"type":"histogram","name":"eval_latency","total":3,"buckets":[[10,2],[12,1]]}"#,
        "\n",
        r#"{"type":"store","op":"hit","key":"","records":1}"#,
        "\n",
        r#"{"type":"heartbeat","status":"done","generation":1,"best_fitness":1.0,"fitness_evals":3,"cache_hits":1,"store_hits":1,"rejected_static":0,"timeouts":1,"panics":0,"exhausted":0,"evals_per_s":0.0}"#,
        "\n",
    );

    #[test]
    fn folds_a_trace() {
        let r = RunReport::from_trace(TRACE);
        assert_eq!(r.events, 11);
        assert_eq!(r.generations.len(), 1);
        assert_eq!(r.candidates, 3);
        assert_eq!(r.cached, 1);
        assert_eq!(r.outcomes, vec![("ok".into(), 1), ("timeout".into(), 1)]);
        let sim = &r.phases[0];
        assert_eq!(
            (sim.name.as_str(), sim.count, sim.nanos),
            ("simulate", 3, 3000)
        );
        let mutation = r.operators.iter().find(|o| o.op == "mutation").unwrap();
        // The NaN candidate is proposed but neither survives nor is
        // plausible.
        assert_eq!(
            (mutation.proposed, mutation.survived, mutation.plausible),
            (2, 1, 1)
        );
        assert_eq!(r.eval_latency, Some((3, vec![(10, 2), (12, 1)])));
        assert_eq!(r.status.as_deref(), Some("done"));
        assert_eq!(r.heartbeat.as_ref().unwrap().fitness_evals, 3);
    }

    #[test]
    fn report_is_deterministic_and_json_parses() {
        let r = RunReport::from_trace(TRACE);
        assert_eq!(r.render(), RunReport::from_trace(TRACE).render());
        let json = r.to_json();
        let parsed = parse_json(&json).expect("report JSON parses");
        assert_eq!(field_u64(&parsed, "candidates"), Some(3));
        assert!(json.contains("\"generations\""));
    }

    #[test]
    fn bad_lines_are_skipped_and_counted() {
        let torn = concat!(
            r#"{"type":"phase","name":"simulate","count":1,"nanos":500}"#,
            "\n",
            "not json\n",
            r#"{"type":"heartbeat","status":"done","generation":0,"best_fitness":1.0,"fitness_evals":1,"cache_hits":0,"store_hits":0,"rejected_static":0,"timeouts":0,"panics":0,"exhausted":0,"evals_per_s":0.0}"#,
            "\n",
            // A truncated tail, as left by a writer killed mid-line.
            r#"{"type":"heartbeat","status":"don"#,
            "\n",
        );
        let r = RunReport::from_trace(torn);
        assert_eq!(r.malformed_lines, 2);
        assert_eq!(r.events, 2, "valid lines still counted");
        assert_eq!(r.status.as_deref(), Some("done"));
        let rendered = r.render();
        assert!(
            rendered.contains("malformed lines skipped: 2"),
            "{rendered}"
        );
        let json = r.to_json();
        let parsed = parse_json(&json).expect("report JSON parses");
        assert_eq!(field_u64(&parsed, "malformed_lines"), Some(2));
        // A clean trace reports zero and stays quiet in the rendering.
        let clean = RunReport::from_trace(TRACE);
        assert_eq!(clean.malformed_lines, 0);
        assert!(!clean.render().contains("malformed"));
    }

    #[test]
    fn unknown_event_types_are_ignored() {
        let r = RunReport::from_trace("{\"type\":\"future_thing\",\"x\":1}\n");
        assert_eq!(r.events, 1);
        assert_eq!(r.candidates, 0);
    }

    #[test]
    fn folds_a_session() {
        let records: Vec<JsonValue> = [
            r#"{"type":"meta","scenario":"ab","session":"cd","trials":2,"seed":7,"popn_size":20,"max_generations":4}"#,
            r#"{"type":"trial","trial":0,"totals":{}}"#,
            r#"{"type":"checkpoint","trial":0,"generation":1,"evals":10,"cache_hits":2,"store_hits":1,"store_writes":9,"minimize_evals":0,"rejected_static":3,"timeouts":0,"panics":0,"exhausted":0,"patch_applies":12,"elapsed_nanos":5000,"busy_nanos":9000,"best_bits":4602678819172646912,"history_bits":[4602678819172646912],"improvement_bits":[],"population":[],"found":null}"#,
            r#"{"type":"checkpoint","trial":0,"generation":2,"evals":20,"cache_hits":4,"store_hits":1,"store_writes":18,"minimize_evals":2,"rejected_static":5,"timeouts":1,"panics":0,"exhausted":0,"patch_applies":25,"elapsed_nanos":9000,"busy_nanos":17000,"best_bits":4607182418800017408,"history_bits":[4602678819172646912,4607182418800017408],"improvement_bits":[],"population":[],"found":[]}"#,
            r#"{"type":"complete","status":"plausible"}"#,
        ]
        .iter()
        .map(|s| parse_json(s).expect("record parses"))
        .collect();
        let r = RunReport::from_session(&records);
        assert_eq!(r.source, "session");
        assert_eq!(r.status.as_deref(), Some("plausible"));
        assert_eq!(r.trials.len(), 1, "last checkpoint per trial wins");
        let t = &r.trials[0];
        assert_eq!(t.generation, 2);
        assert_eq!(t.evals, 20);
        assert_eq!(t.best, 1.0);
        assert_eq!(t.history, vec![0.5, 1.0]);
        assert!(t.found);
        assert!(r.meta.iter().any(|(k, v)| k == "seed" && v == "7"));
        assert_eq!(r.candidates, 20 + 4 + 1);
        let rendered = r.render();
        assert!(rendered.contains("trial 0"), "{rendered}");
        assert!(
            rendered.contains("best by gen: 0.5000 1.0000"),
            "{rendered}"
        );
    }

    #[test]
    fn heartbeat_line_filters_other_events() {
        assert!(heartbeat_line(r#"{"type":"span","name":"x","nanos":1}"#).is_none());
        assert!(heartbeat_line("garbage").is_none());
        let h = heartbeat_line(
            r#"{"type":"heartbeat","status":"search","generation":3,"best_fitness":0.75,"fitness_evals":60,"cache_hits":0,"store_hits":0,"rejected_static":0,"timeouts":0,"panics":0,"exhausted":0,"evals_per_s":12.5}"#,
        )
        .expect("heartbeat parses");
        assert_eq!(h.generation, 3);
        assert_eq!(h.evals_per_s, 12.5);
    }
}
