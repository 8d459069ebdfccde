//! End-to-end pattern mining: repair several seeded scenarios through
//! a persistent store, mine the accumulated corpus into fix patterns,
//! and check that the mined patterns (a) come out byte-identical for
//! any `jobs` value and (b) re-instantiate to boosted template edits
//! that still repair the scenarios they were learned from.

use std::path::PathBuf;

use cirfix::{
    evaluate, mined_template_candidates, oracle_from_golden, repair_session, Counter, FaultLoc,
    FitnessParams, Patch, RepairConfig, RepairProblem,
};
use cirfix_mine::{mine_corpus, write_patterns_file};
use cirfix_parser::parse;
use cirfix_sim::{ProbeSpec, SimConfig};
use cirfix_store::Store;

const GOLDEN: &str = r#"
module cnt (c, r, q);
    input c, r;
    output reg [1:0] q;
    always @(posedge c)
        if (r) q <= 0;
        else q <= q + 1;
endmodule
"#;

const TB: &str = r#"
module tb;
    reg c, r;
    wire [1:0] q;
    cnt dut (c, r, q);
    initial begin c = 0; r = 1; #12 r = 0; end
    always #5 c = !c;
    initial #120 $finish;
endmodule
"#;

/// Three distinct single-defect variants of the golden counter, each
/// fixable by one Table 1 template (negated reset, wrong clock edge,
/// off-by-one increment).
const SCENARIOS: &[(&str, &str)] = &[
    (
        "negated_reset",
        r#"
module cnt (c, r, q);
    input c, r;
    output reg [1:0] q;
    always @(posedge c)
        if (!r) q <= 0;
        else q <= q + 1;
endmodule
"#,
    ),
    (
        "wrong_edge",
        r#"
module cnt (c, r, q);
    input c, r;
    output reg [1:0] q;
    always @(negedge c)
        if (r) q <= 0;
        else q <= q + 1;
endmodule
"#,
    ),
    (
        "off_by_one",
        r#"
module cnt (c, r, q);
    input c, r;
    output reg [1:0] q;
    always @(posedge c)
        if (r) q <= 0;
        else q <= q + 2;
endmodule
"#,
    ),
];

fn problem_for(faulty: &str) -> RepairProblem {
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
    let mut source = parse(faulty).unwrap();
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

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cirfix-mine-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn mined_patterns_close_the_loop() {
    let dir = temp_store("loop");

    // Repair every scenario through the same store so the corpus
    // accumulates one faulty/repaired pair per defect.
    for (name, faulty) in SCENARIOS {
        let problem = problem_for(faulty);
        let result = repair_session(&problem, &RepairConfig::fast(1), 1, &dir, false).unwrap();
        assert!(result.is_plausible(), "{name} must repair");
    }

    let store = Store::open(&dir).unwrap();
    let (records, health) = store.load_corpus().unwrap();
    assert!(health.is_clean());
    assert_eq!(records.len(), SCENARIOS.len(), "one corpus entry each");

    // Mining is a pure function of the corpus: the report and the
    // persisted patterns file are identical for any worker count.
    let report = mine_corpus(&records, 1);
    assert_eq!(report, mine_corpus(&records, 4), "jobs must not matter");
    assert_eq!(report.records, SCENARIOS.len() as u64);
    assert!(
        !report.patterns.is_empty(),
        "three repaired defects must yield at least one pattern"
    );
    let p1 = dir.join("patterns-jobs1.jsonl");
    let p4 = dir.join("patterns-jobs4.jsonl");
    write_patterns_file(&p1, &report.patterns).unwrap();
    write_patterns_file(&p4, &mine_corpus(&records, 4).patterns).unwrap();
    assert_eq!(
        std::fs::read(&p1).unwrap(),
        std::fs::read(&p4).unwrap(),
        "patterns file must be byte-identical across jobs"
    );

    // Feedback: for every source scenario, some template instance
    // boosted by the mined patterns (weight > 1) repairs it outright.
    for (name, faulty) in SCENARIOS {
        let problem = problem_for(faulty);
        let candidates = mined_template_candidates(
            &problem.source,
            &problem.design_modules,
            &FaultLoc::default(),
            &report.patterns,
        );
        assert!(
            candidates.iter().any(|(_, w)| *w > 1),
            "{name}: mined patterns must boost at least one template"
        );
        let repaired = candidates.iter().filter(|(_, w)| *w > 1).any(|(edit, _)| {
            let patch = Patch::single(edit.clone());
            evaluate(&problem, &patch, FitnessParams::default()).score >= 1.0
        });
        assert!(
            repaired,
            "{name}: no boosted mined template repairs its source scenario"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corpus_appends_are_deduplicated() {
    let dir = temp_store("dedupe");
    let (_, faulty) = SCENARIOS[0];
    let problem = problem_for(faulty);

    let first = repair_session(&problem, &RepairConfig::fast(1), 1, &dir, false).unwrap();
    assert!(first.is_plausible());
    assert_eq!(first.totals.counters[Counter::CorpusSkipped], 0);

    // The same scenario repaired again lands on the same (scenario,
    // patch) pair: the corpus keeps one record and the rerun reports
    // the skip.
    let second = repair_session(&problem, &RepairConfig::fast(1), 1, &dir, false).unwrap();
    assert!(second.is_plausible());
    assert_eq!(second.totals.counters[Counter::CorpusSkipped], 1);

    let store = Store::open(&dir).unwrap();
    let (records, _) = store.load_corpus().unwrap();
    assert_eq!(records.len(), 1, "duplicate append must be skipped");

    let _ = std::fs::remove_dir_all(&dir);
}
