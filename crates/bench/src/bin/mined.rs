//! Mined-pattern A/B benchmark: does feeding `cirfix mine` output back
//! into the search change the cost of finding a repair?
//!
//! Trains on three counter-family scenarios (repairing each through a
//! persistent store populates the corpus), mines the corpus into fix
//! patterns, then repairs held-out scenarios twice with the same seed
//! and budget — once baseline, once with `mined_patterns` loaded — and
//! reports evaluations, wall time, and the evaluation ratio. The ratio
//! is reported as measured; a value near 1.0 means the patterns did
//! not help on that scenario.
//!
//! Emits JSON lines (one per arm per scenario) to stdout and to
//! `BENCH_mined.json` (override with `CIRFIX_BENCH_OUT`).

use std::time::{Duration, Instant};

use cirfix::{repair_session, repair_with_trials, RepairConfig};
use cirfix_benchmarks::scenario;
use cirfix_mine::mine_corpus;
use cirfix_store::Store;

const TRAIN: &[&str] = &["counter_sens_list", "counter_increment", "counter_reset"];
const EVAL: &[&str] = &["flip_flop_cond", "lshift_sens"];

fn bench_config() -> RepairConfig {
    RepairConfig {
        timeout: Duration::from_secs(3600),
        popn_size: 60,
        max_generations: 3,
        max_fitness_evals: 400,
        ..RepairConfig::fast(5)
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("cirfix-bench-mined-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Training phase: repair the corpus scenarios through one store.
    for id in TRAIN {
        let s = scenario(id).expect("scenario");
        let problem = s.problem().expect("problem builds");
        let result =
            repair_session(&problem, &bench_config(), 2, &dir, false).expect("session runs");
        if !result.is_plausible() {
            eprintln!("mined: warning: training scenario {id} did not repair");
        }
    }
    let store = Store::open(&dir).expect("store opens");
    let (records_json, _) = store.load_corpus().expect("corpus loads");
    let report = mine_corpus(&records_json, 0);
    eprintln!(
        "mined: {} pattern(s) from {} corpus record(s)",
        report.patterns.len(),
        report.records
    );

    let mut records: Vec<String> = Vec::new();
    for id in EVAL {
        let s = scenario(id).expect("scenario");
        let problem = s.problem().expect("problem builds");
        let mut baseline_evals = 0u64;
        for arm in ["baseline", "mined"] {
            let mut config = bench_config();
            if arm == "mined" {
                config.mined_patterns = report.patterns.clone();
            }
            let t0 = Instant::now();
            let result = repair_with_trials(&problem, &config, 2);
            let wall = t0.elapsed().as_secs_f64();
            if arm == "baseline" {
                baseline_evals = result.totals.fitness_evals;
            }
            let ratio = if result.totals.fitness_evals == 0 {
                0.0
            } else {
                baseline_evals as f64 / result.totals.fitness_evals as f64
            };
            let record = format!(
                "{{\"bench\":\"mined\",\"arm\":\"{arm}\",\"scenario\":\"{}\",\
                 \"patterns\":{},\"plausible\":{},\"wall_s\":{wall:.4},\
                 \"simulations\":{},\"pattern_hits\":{},\"eval_ratio\":{ratio:.3}}}",
                s.id,
                report.patterns.len(),
                result.is_plausible(),
                result.totals.fitness_evals,
                result.totals.counters[cirfix::Counter::PatternHits],
            );
            println!("{record}");
            records.push(record);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let out = std::env::var("CIRFIX_BENCH_OUT").unwrap_or_else(|_| "BENCH_mined.json".into());
    let body = records.join("\n") + "\n";
    if let Err(e) = std::fs::write(&out, body) {
        eprintln!("mined: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("mined: wrote {out}");
}
