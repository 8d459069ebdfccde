//! End-to-end check of the observability pipeline: a real repair run
//! streamed through [`JsonLinesSink`] must produce a machine-readable
//! trace — every line valid JSON, with all four pipeline event kinds
//! represented (the paper's Alg. 1 loop, its fitness evaluations
//! (§3.2), fault localization (Alg. 2), and the simulator underneath).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use cirfix::{repair, Observer, RepairConfig};
use cirfix_benchmarks::scenario;
use cirfix_telemetry::{parse_json, JsonLinesSink, TimingFreeSink};

/// A `Write` target that can be read back after the sink takes
/// ownership of it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every simulation that runs to completion is reported twice: once as
/// a `sim` event with the simulator's effort counters and once as an
/// `ok` evaluation outcome — minimization probes included, since they
/// go through the same evaluator as search candidates.
#[test]
fn every_ok_outcome_has_a_sim_event_including_minimization_probes() {
    let problem = scenario("counter_reset")
        .expect("benchmark exists")
        .problem()
        .expect("sources parse");
    let buf = SharedBuf::default();
    let mut config = RepairConfig::fast(2);
    config.observer = Observer::new(Arc::new(TimingFreeSink::new(JsonLinesSink::new(
        buf.clone(),
    ))));
    let result = repair(&problem, config);
    assert!(result.is_plausible(), "the seeded run repairs the defect");
    assert!(
        result.minimize_evals >= 1,
        "minimization must simulate at least one probe for this check to bite"
    );

    let bytes = buf.0.lock().expect("buffer poisoned").clone();
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    let sims = text
        .lines()
        .filter(|l| l.contains("\"type\":\"sim\""))
        .count();
    let ok = text
        .lines()
        .filter(|l| l.contains("\"type\":\"eval_outcome\"") && l.contains("\"kind\":\"ok\""))
        .count();
    assert!(ok > 0);
    assert_eq!(sims, ok, "one `sim` event per `ok` outcome");
}

#[test]
fn repair_trace_is_valid_json_with_all_event_kinds() {
    let s = scenario("counter_sens_list").expect("benchmark exists");
    let problem = s.problem().expect("sources parse");

    let buf = SharedBuf::default();
    let mut config = RepairConfig::fast(1);
    config.observer = Observer::new(Arc::new(JsonLinesSink::new(buf.clone())));
    let result = repair(&problem, config);
    config_independent_checks(&result);

    let bytes = buf.0.lock().expect("buffer poisoned").clone();
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    assert!(!text.is_empty(), "the trace must not be empty");

    let mut tally: BTreeMap<&str, u64> = BTreeMap::new();
    for line in text.lines() {
        parse_json(line).unwrap_or_else(|e| panic!("invalid JSON line: {e}\n{line}"));
        let tag = line
            .split_once("\"type\":\"")
            .and_then(|(_, rest)| rest.split('"').next())
            .expect("every event carries a type tag");
        let kind = match tag {
            "generation" | "candidate" | "fault_loc" | "sim" | "eval_outcome" | "span"
            | "phase" | "heartbeat" | "histogram" => tag,
            other => panic!("unexpected event type `{other}`"),
        };
        *tally.entry(kind).or_insert(0) += 1;
    }

    for kind in [
        "generation",
        "candidate",
        "fault_loc",
        "sim",
        "eval_outcome",
        "phase",
        "heartbeat",
        "histogram",
    ] {
        assert!(
            tally.get(kind).copied().unwrap_or(0) >= 1,
            "trace must contain at least one `{kind}` event; tally: {tally:?}"
        );
    }
}

fn config_independent_checks(result: &cirfix::RepairResult) {
    // Run totals are populated whether or not the trial succeeded.
    assert!(result.totals.fitness_evals > 0);
    assert_eq!(result.totals.trials, 1);
    assert!(result.totals.wall_time.as_nanos() > 0);
}

#[test]
fn disabled_observer_emits_nothing_and_totals_still_populate() {
    let s = scenario("counter_sens_list").expect("benchmark exists");
    let problem = s.problem().expect("sources parse");
    let result = repair(&problem, RepairConfig::fast(1));
    assert!(result.totals.fitness_evals >= result.cache_hits);
    assert_eq!(result.totals.fitness_evals, result.fitness_evals);
    assert!(result.totals.generations as u64 >= 1);
}
