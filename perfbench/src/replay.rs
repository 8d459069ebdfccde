//! The traced run's per-candidate replay.
//!
//! A GP search cannot be timed layer by layer from outside, so for each
//! scenario the traced run replays a seeded sample of candidates — drawn
//! from the brute-force systematic single-edit set, `applicable_templates`
//! plus `DeleteStmt` over `all_stmt_ids` — one at a time through the
//! public calls: `apply_patch`, `variant_fingerprint`, `elaborate`,
//! `Simulator::from_design` + `add_probe`, `Simulator::run`, `fitness`
//! and `fault_localization`. Each candidate's score is checked against
//! `evaluate`. The evaluations are then written to a fresh store through
//! `SharedEvalCache::insert`, the store is reopened, and every key is
//! read back with `peek`.

use std::collections::BTreeSet;

use cirfix::{
    all_stmt_ids, applicable_templates, apply_patch, evaluate, fault_localization, fitness,
    problem_digest, strip_hierarchy, variant_fingerprint, Edit, FaultLoc, FitnessParams, Patch,
    RepairConfig, RepairProblem, SharedEvalCache,
};
use cirfix_benchmarks::Scenario;
use cirfix_sim::{elaborate, Simulator};
use cirfix_store::{Digest, Store};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::harness::{guarded, mismatch, Opts, Prepared, Tally};
use crate::metrics::Report;
use crate::trace::Tracer;

/// Span names of the per-candidate evaluation layers: the work a search
/// worker does per simulated candidate (patch application stays on the
/// search's coordinating thread, outside its busy time).
pub const EVAL_LAYERS: [&str; 4] = [
    "elab.elaborate",
    "compile.lower",
    "sim.run",
    "fitness.score",
];

/// Parses of each source text per scenario.
const PARSE_REPS: usize = 5;

/// The systematic single-edit set of a problem.
pub fn single_edits(problem: &RepairProblem) -> Vec<Patch> {
    let all = FaultLoc::default();
    let mut edits = applicable_templates(&problem.source, &problem.design_modules, &all);
    edits.extend(
        all_stmt_ids(&problem.source, &problem.design_modules)
            .into_iter()
            .map(|target| Edit::DeleteStmt { target }),
    );
    edits.into_iter().map(Patch::single).collect()
}

/// A seeded sample of at most `cap` single edits, its seed mixed with
/// the scenario id so scenarios draw independently.
pub fn sample(problem: &RepairProblem, id: &str, seed: u64, cap: usize) -> Vec<Patch> {
    let mut edits = single_edits(problem);
    let mix = cirfix_store::fnv64(id.as_bytes());
    edits.shuffle(&mut StdRng::seed_from_u64(seed ^ mix));
    edits.truncate(cap);
    edits
}

/// What the replay measured beyond its spans.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Candidates replayed.
    pub candidates: usize,
    /// Simulator events per simulated candidate.
    pub events: Vec<f64>,
    /// Store reads that found their key.
    pub hits: usize,
    /// Store reads.
    pub peeks: usize,
    /// Bytes the inserts wrote to the fresh store.
    pub bytes_written: u64,
    /// Source bytes parsed.
    pub parse_bytes: usize,
}

impl Replayed {
    /// Mean per-candidate evaluation time of one scenario, in seconds.
    pub fn busy_s(tracer: &Tracer, id: &str) -> Option<f64> {
        let spans = tracer.spans();
        let candidates = spans
            .iter()
            .filter(|s| s.name == "replay.candidate" && s.request.as_deref() == Some(id))
            .count();
        let nanos: u64 = spans
            .iter()
            .filter(|s| EVAL_LAYERS.contains(&s.name) && s.request.as_deref() == Some(id))
            .map(|s| s.nanos())
            .sum();
        (candidates > 0).then(|| nanos as f64 * 1e-9 / candidates as f64)
    }
}

/// Replays a seeded sample of every scenario's candidates, then the
/// store calls against a fresh store under the run's output directory.
pub fn replay(prepared: &[Prepared], opts: &Opts, tracer: &Tracer, tally: &mut Tally) -> Replayed {
    let store_dir = &opts.out_dir.join("replay-store");
    let mut out = Replayed::default();
    let _ = std::fs::remove_dir_all(store_dir);
    let cache = Store::open(store_dir).and_then(|s| SharedEvalCache::open(&s).map(|c| c.0));
    let cache = match cache {
        Ok(c) => c,
        Err(e) => {
            tally.record(Some(format!("replay store: {e}")));
            return out;
        }
    };
    let mut written: Vec<(Digest, f64)> = Vec::new();
    for p in prepared {
        let (scenario, problem) = (p.scenario, &p.problem);
        let id = scenario.id;
        let _s = tracer.span("replay.scenario", Some(id));
        out.parse_bytes += parse_sources(scenario, tracer, tally);
        let digest = problem_digest(problem, &RepairConfig::fast(42));
        for patch in sample(problem, id, opts.seed, opts.scale.replay_cap) {
            let outcome = guarded(id, || {
                replay_one(problem, id, digest, &patch, tracer, &mut out)
            });
            match outcome {
                Ok((key, score)) => {
                    let eval = evaluate(problem, &patch, FitnessParams::default());
                    let check = mismatch(
                        &format!("{id}: replayed score of {patch:?}"),
                        score.to_bits(),
                        eval.score.to_bits(),
                    );
                    tracer.time("store.append", Some(id), || cache.insert(key, &eval));
                    written.push((key, eval.score));
                    tally.record(check);
                }
                Err(e) => tally.record(Some(e)),
            }
            out.candidates += 1;
        }
    }
    drop(cache);
    out.bytes_written = crate::sys::dir_bytes(store_dir);
    let reopened = tracer.time("store.open", None, || {
        Store::open(store_dir).and_then(|s| SharedEvalCache::open(&s).map(|c| c.0))
    });
    match reopened {
        Ok(cache) => {
            for (key, score) in &written {
                let got = tracer.time("store.lookup", None, || cache.peek(*key));
                out.peeks += 1;
                let problem = match got {
                    Some(e) if e.score.to_bits() == score.to_bits() => {
                        out.hits += 1;
                        None
                    }
                    Some(e) => Some(format!("store returned score {} for {}", e.score, score)),
                    None => Some(format!("store lost key {}", key.to_hex())),
                };
                tally.record(problem);
            }
        }
        Err(e) => tally.record(Some(format!("replay store reopen: {e}"))),
    }
    out
}

/// Parses the scenario's faulty design and testbench, timed per call;
/// returns the bytes parsed.
fn parse_sources(scenario: &Scenario, tracer: &Tracer, tally: &mut Tally) -> usize {
    let Some(project) = cirfix_benchmarks::project(scenario.project) else {
        tally.record(Some(format!("{}: unknown project", scenario.id)));
        return 0;
    };
    let mut bytes = 0;
    for _ in 0..PARSE_REPS {
        for text in [scenario.faulty_design, project.testbench] {
            let parsed = tracer.time("parser.parse", Some(scenario.id), || {
                cirfix_parser::parse(text)
            });
            if let Err(e) = parsed {
                tally.record(Some(format!("{}: parse: {e}", scenario.id)));
            }
            bytes += text.len();
        }
    }
    bytes
}

/// One candidate through every layer; returns its store key and score.
fn replay_one(
    problem: &RepairProblem,
    id: &str,
    digest: Digest,
    patch: &Patch,
    tracer: &Tracer,
    out: &mut Replayed,
) -> (Digest, f64) {
    let _c = tracer.span("replay.candidate", Some(id));
    let req = Some(id);
    let (variant, _) = tracer.time("patch.apply", req, || {
        apply_patch(&problem.source, &problem.design_modules, patch)
    });
    let key = tracer.time("persist.fingerprint", req, || {
        variant_fingerprint(digest, &variant, &problem.design_modules)
    });
    // A candidate that fails to elaborate or to run scores 0, as in the
    // search.
    let Ok(design) = tracer.time("elab.elaborate", req, || elaborate(&variant, &problem.top))
    else {
        return (key, 0.0);
    };
    let lowered = tracer.time("compile.lower", req, || {
        let mut sim = Simulator::from_design(design, problem.sim.clone());
        sim.add_probe(&problem.probe).map(|idx| (sim, idx))
    });
    let Ok((mut sim, idx)) = lowered else {
        return (key, 0.0);
    };
    let Ok(outcome) = tracer.time("sim.run", req, || sim.run()) else {
        return (key, 0.0);
    };
    let m = &outcome.metrics;
    out.events
        .push((m.active_events + m.inactive_events + m.nba_flushes) as f64);
    let trace = sim.take_probe_trace(idx);
    let report = tracer.time("fitness.score", req, || {
        fitness(&trace, &problem.oracle, FitnessParams::default())
    });
    let mismatched: BTreeSet<String> = report
        .mismatched_vars
        .iter()
        .map(|v| strip_hierarchy(v))
        .collect();
    let modules: Vec<_> = variant
        .modules
        .iter()
        .filter(|m| problem.design_modules.contains(&m.name))
        .collect();
    tracer.time("faultloc.localize", req, || {
        fault_localization(&modules, &mismatched)
    });
    (key, report.score)
}

/// The replay's per-layer metrics: medians of the per-call spans.
pub fn layers(tracer: &Tracer, replayed: &Replayed, report: &mut Report) {
    let us =
        |name: &str| -> Vec<f64> { tracer.durations_s(name).iter().map(|s| s * 1e6).collect() };
    report.set_median("parser.parse_us", &us("parser.parse"));
    let parse_s: f64 = tracer.durations_s("parser.parse").iter().sum();
    report.set(
        "parser.mb_per_s",
        replayed.parse_bytes as f64 / 1e6 / parse_s.max(1e-12),
        tracer.durations_s("parser.parse").len(),
    );
    for (metric, span) in [
        ("patch.apply_us", "patch.apply"),
        ("elab.elaborate_us", "elab.elaborate"),
        ("compile.lower_us", "compile.lower"),
        ("sim.run_us", "sim.run"),
        ("fitness.score_us", "fitness.score"),
        ("faultloc.localize_us", "faultloc.localize"),
        ("persist.fingerprint_us", "persist.fingerprint"),
        ("store.append_us", "store.append"),
        ("store.lookup_us", "store.lookup"),
    ] {
        report.set_median(metric, &us(span));
    }
    report.set_median("sim.events", &replayed.events);
    let run_s: f64 = tracer.durations_s("sim.run").iter().sum();
    report.set(
        "sim.events_per_s",
        replayed.events.iter().sum::<f64>() / run_s.max(1e-12),
        replayed.events.len(),
    );
}

/// The store metrics of the replay's fresh store, for workloads that
/// run without a store of their own.
pub fn store_layers(tracer: &Tracer, replayed: &Replayed, report: &mut Report) {
    report.set(
        "store.hit_ratio",
        replayed.hits as f64 / replayed.peeks.max(1) as f64,
        replayed.peeks,
    );
    report.set("store.bytes_written", replayed.bytes_written as f64, 1);
    report.set_median("store.open_s", &tracer.durations_s("store.open"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_replay_sample_is_seeded_and_capped() {
        let s = cirfix_benchmarks::scenario("sdram_case").unwrap();
        let problem = s.problem().unwrap();
        let all = single_edits(&problem);
        assert!(
            all.len() > 256,
            "sdram_case has more single edits than the old bins allowed"
        );
        let a = sample(&problem, s.id, 11, 32);
        assert_eq!(a.len(), 32);
        assert_eq!(a, sample(&problem, s.id, 11, 32));
        assert_ne!(a, sample(&problem, s.id, 12, 32));
        assert_ne!(a, sample(&problem, "another_id", 11, 32));
        assert!(a.iter().all(|p| all.contains(p)));
        let small = cirfix_benchmarks::scenario("flip_flop_cond").unwrap();
        let small_problem = small.problem().unwrap();
        let n = single_edits(&small_problem).len();
        assert_eq!(sample(&small_problem, small.id, 1, 10_000).len(), n);
    }
}
