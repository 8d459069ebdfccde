//! Fuzzer throughput bench: how fast do we mint defect scenarios, and
//! how fast does the robustness harness, with its bytecode vs
//! tree-walk oracle, chew through inputs?
//!
//! Three measurements:
//!
//! 1. **Generation** — a full `generate_scenarios` sweep over all 11
//!    projects (no classification), reporting `scenarios_per_s` and
//!    the candidate-evaluation rate behind it.
//! 2. **Fuzzing** — a complete `run_fuzz` pass (generated scenarios +
//!    grammar mutations, each simulated input run under both executors,
//!    shrinking armed),
//!    reporting `inputs_per_s` and the finding count — which must be
//!    zero on a healthy tree, and the committed artifact records that.
//! 3. **Replay** — the committed crash corpus re-driven through the
//!    harness, the same gate CI runs.
//!
//! Emits JSON lines to stdout and `BENCH_fuzz.json` (override with
//! `CIRFIX_BENCH_OUT`).

use cirfix_fuzz::{replay, run_fuzz, FuzzConfig, GenConfig};
use std::time::Instant;

fn main() {
    // The harness contains panics; keep the default hook from spraying
    // backtraces into the bench output.
    std::panic::set_hook(Box::new(|_| {}));

    let host_cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut records: Vec<String> = Vec::new();

    // 1. Scenario generation over every project. Warm once (parser and
    //    elaboration caches), then keep the fastest of three passes —
    //    the host is a shared container.
    let gen_config = GenConfig::default();
    let _ = cirfix_fuzz::generate_scenarios(&gen_config);
    let mut gen_wall = f64::MAX;
    let mut generated = 0usize;
    for _ in 0..3 {
        let t0 = Instant::now();
        let scenarios = cirfix_fuzz::generate_scenarios(&gen_config);
        gen_wall = gen_wall.min(t0.elapsed().as_secs_f64());
        generated = scenarios.len();
    }
    records.push(format!(
        "{{\"bench\":\"fuzz_gen\",\"scenarios\":{generated},\"wall_s\":{gen_wall:.4},\
         \"scenarios_per_s\":{:.2},\"host_cores\":{host_cores}}}",
        generated as f64 / gen_wall,
    ));

    // 2. A full fuzz pass: half generated scenarios, half grammar
    //    mutations, executor oracle on, shrinking armed (free when
    //    the tree is healthy). One pass — run_fuzz amortizes nothing
    //    across reruns, so repeating only burns CI minutes.
    let fuzz_config = FuzzConfig {
        seed: 1,
        budget: 400,
        ..FuzzConfig::default()
    };
    let t0 = Instant::now();
    let report = run_fuzz(&fuzz_config);
    let fuzz_wall = t0.elapsed().as_secs_f64();
    records.push(format!(
        "{{\"bench\":\"fuzz_run\",\"seed\":{},\"inputs\":{},\"generated\":{},\
         \"parse_errors\":{},\"sim_ok\":{},\"sim_errors\":{},\"findings\":{},\
         \"wall_s\":{fuzz_wall:.4},\"inputs_per_s\":{:.2}}}",
        report.seed,
        report.stats.inputs,
        report.stats.generated,
        report.stats.parse_errors,
        report.stats.sim_ok,
        report.stats.sim_errors,
        report.findings.len(),
        report.stats.inputs as f64 / fuzz_wall,
    ));

    // 3. The committed regression corpus, replayed exactly as CI gates
    //    on it.
    let corpus_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../fuzz/corpus/crashes.jsonl");
    let (bodies, health) = cirfix_store::read_segment(&corpus_path).expect("corpus reads");
    assert!(health.is_clean(), "committed corpus must be undamaged");
    let corpus: Vec<cirfix_fuzz::CrashRecord> = bodies
        .iter()
        .filter_map(cirfix_fuzz::CrashRecord::from_json)
        .collect();
    let t0 = Instant::now();
    let replay_report = replay(&corpus, 0);
    let replay_wall = t0.elapsed().as_secs_f64();
    records.push(format!(
        "{{\"bench\":\"fuzz_replay\",\"records\":{},\"regressions\":{},\"wall_s\":{replay_wall:.4}}}",
        replay_report.replayed,
        replay_report.regressions.len(),
    ));

    let _ = std::panic::take_hook();
    for record in &records {
        println!("{record}");
    }
    let out = std::env::var("CIRFIX_BENCH_OUT").unwrap_or_else(|_| "BENCH_fuzz.json".into());
    let body = records.join("\n") + "\n";
    if let Err(e) = std::fs::write(&out, body) {
        eprintln!("fuzz: cannot write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("fuzz: wrote {out}");
}
