//! Corruption handling: a store damaged on disk — a record whose
//! checksum no longer matches and a segment ending in a torn,
//! half-written record — must be *detected* (`Store::verify` reports
//! both), *survived* (a repair run over the damaged store neither
//! panics nor trusts the bad bytes), and *recovered from* (the damaged
//! records simply degrade to re-simulation, so results stay correct).

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cirfix::{repair_session, Counter, RepairConfig};
use cirfix_store::Store;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cirfix-corrupt-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config() -> RepairConfig {
    RepairConfig {
        timeout: Duration::from_secs(3600),
        popn_size: 60,
        max_generations: 3,
        max_fitness_evals: 400,
        ..RepairConfig::fast(5)
    }
}

/// Flips one checksum hex digit on the first record and appends a torn
/// (newline-less, incomplete) record to the same segment. Returns the
/// segment path.
fn damage_first_eval_segment(store_dir: &Path) -> PathBuf {
    // Evaluations live in per-key-prefix shard directories under
    // `evals/`; ask the store itself rather than assuming the layout.
    let mut segments = Store::open(store_dir)
        .expect("store opens")
        .eval_segments()
        .expect("evals listable");
    segments.sort();
    // Pick a shard with at least two records so exactly one can be
    // damaged while a sibling stays intact.
    let segment = segments
        .iter()
        .find(|p| fs::read_to_string(p).is_ok_and(|text| text.lines().count() >= 2))
        .expect("cold run wrote a multi-record segment")
        .clone();

    let text = fs::read_to_string(&segment).expect("segment is UTF-8");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert!(lines.len() >= 2, "need at least two records to damage one");
    // Record framing is `{"sum":"<16 hex>","body":...}` — flip the
    // first checksum digit so the sum can no longer match the body.
    let first = &lines[0];
    let digit = first.as_bytes()[8] as char;
    let flipped = if digit == '0' { '1' } else { '0' };
    lines[0].replace_range(8..9, &flipped.to_string());
    let mut damaged = lines.join("\n");
    damaged.push('\n');
    // And a torn tail: a write that died mid-record.
    damaged.push_str("{\"sum\":\"deadbeefdeadbeef\",\"body\":{\"key\":\"trunc");
    fs::write(&segment, damaged).expect("rewrite segment");
    segment
}

#[test]
fn damaged_records_are_reported_skipped_and_resimulated() {
    let scenario = cirfix_benchmarks::scenario("flip_flop_cond").expect("known scenario");
    let problem = scenario.problem().expect("scenario builds");
    let dir = fresh_dir("evals");

    let cold = repair_session(&problem, &config(), 2, &dir, false).expect("cold session runs");
    assert!(
        cold.totals.counters[Counter::StoreWrites] >= 2,
        "cold run persists evaluations"
    );

    damage_first_eval_segment(&dir);

    // Detection: verify is read-only and names both kinds of damage.
    let report = Store::open(&dir)
        .expect("store opens")
        .verify()
        .expect("verify reads");
    assert!(!report.is_clean());
    assert_eq!(report.corrupt(), 1, "exactly the flipped record is corrupt");
    assert_eq!(report.torn(), 1, "exactly one torn tail");

    // Survival: rerunning over the damaged store must not panic and
    // must not trust the damaged record — it re-simulates it instead,
    // landing on the same repair as the undamaged run.
    let warm = repair_session(&problem, &config(), 2, &dir, false).expect("damaged store survives");
    assert_eq!(warm.patch, cold.patch, "damage must not change the outcome");
    assert_eq!(warm.best_fitness.to_bits(), cold.best_fitness.to_bits());
    assert!(
        warm.totals.fitness_evals >= 1,
        "the record behind the flipped checksum must be re-simulated, not trusted"
    );
    assert!(
        warm.totals.counters[Counter::StoreHits] > 0,
        "undamaged records still serve hits"
    );

    // Recovery: gc drops the damage; the compacted store verifies clean.
    let store = Store::open(&dir).expect("store reopens");
    let gc = store.gc().expect("gc runs");
    assert!(gc.records_dropped >= 1);
    assert!(store.verify().expect("verify reads").is_clean());

    let _ = fs::remove_dir_all(dir);
}
