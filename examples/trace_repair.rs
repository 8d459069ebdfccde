//! A repair run with a JSON-lines telemetry trace attached.
//!
//! Repairs the counter sensitivity-list benchmark while streaming every
//! telemetry event (generation statistics, candidate evaluations, fault
//! localization, simulator effort, spans) to `trace_repair.jsonl`, then
//! prints a per-event-type tally plus the aggregate summary report.
//!
//! ```sh
//! cargo run --release --example trace_repair
//! jq 'select(.type == "generation")' trace_repair.jsonl
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use cirfix::{repair, Observer, RepairConfig};
use cirfix_benchmarks::scenario;
use cirfix_telemetry::{parse_json, FanoutSink, JsonLinesSink, SummarySink, TelemetrySink};

fn main() {
    let scenario = scenario("counter_sens_list").expect("benchmark exists");
    let problem = scenario.problem().expect("sources parse");

    let trace_path = std::path::Path::new("trace_repair.jsonl");
    let trace = JsonLinesSink::create(trace_path).expect("trace file opens");
    let summary = Arc::new(SummarySink::new());
    let sinks: Vec<Box<dyn TelemetrySink>> = vec![Box::new(trace), Box::new(Arc::clone(&summary))];
    let observer = Observer::new(Arc::new(FanoutSink::new(sinks)));

    // The search is stochastic; retry a few seeds under the fast budget.
    let mut plausible = false;
    for seed in 1..=5 {
        let mut config = RepairConfig::fast(seed);
        config.observer = observer.clone();
        let result = repair(&problem, config);
        println!(
            "trial {seed}: plausible={} best={:.3} evals={} wall={:.1?}",
            result.is_plausible(),
            result.best_fitness,
            result.totals.fitness_evals,
            result.totals.wall_time
        );
        if result.is_plausible() {
            plausible = true;
            break;
        }
    }
    observer.flush();

    // Read the trace back: every line must be valid JSON with a type tag.
    let text = std::fs::read_to_string(trace_path).expect("trace readable");
    let mut tally: BTreeMap<String, u64> = BTreeMap::new();
    for line in text.lines() {
        parse_json(line).expect("trace lines are valid JSON");
        let tag = line
            .split_once("\"type\":\"")
            .and_then(|(_, rest)| rest.split('"').next())
            .unwrap_or("?");
        *tally.entry(tag.to_string()).or_insert(0) += 1;
    }
    println!(
        "\ntrace written to {} ({} events):",
        trace_path.display(),
        text.lines().count()
    );
    for (tag, count) in &tally {
        println!("  {tag:<12} {count:>8}");
    }
    println!();
    print!("{}", summary.report());
    if !plausible {
        println!("no repair under the fast budget; the trace still shows the search");
    }
}
