#![warn(missing_docs)]

//! The CirFix benchmark suite: 11 Verilog projects and 32
//! expert-transplanted defect scenarios (Tables 2 and 3 of the paper).
//!
//! Each [`Project`] bundles a golden design, an instrumented search
//! testbench, and a *held-out* verification testbench used to classify
//! plausible repairs as correct. Each [`Scenario`] is one defect: a
//! faulty variant of the design, its Table 3 description and category,
//! and the outcome the paper reports (so the experiment harness can
//! compare shapes).
//!
//! Beyond the paper tables, the crate carries a fuzzer-generated
//! scenario tranche ([`generated_scenarios`], committed under
//! `src/generated/`) that repair tests opt into with
//! `CIRFIX_GENERATED=1` — see [`active_generated_scenarios`].
//!
//! # Examples
//!
//! ```
//! use cirfix_benchmarks::{projects, scenarios, scenario};
//!
//! assert_eq!(projects().len(), 11);
//! assert_eq!(scenarios().len(), 32);
//! let s = scenario("counter_reset").expect("motivating example");
//! let problem = s.problem()?;
//! assert_eq!(problem.design_modules, vec!["counter".to_string()]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod generated;
mod registry;
mod types;

pub use generated::{
    active_generated_scenarios, generated_enabled, generated_scenario, generated_scenarios,
    GeneratedScenario,
};
pub use registry::{project, projects, scenario, scenarios};
pub use types::{PaperOutcome, Project, Scenario};

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix::{evaluate, FitnessParams, Patch};

    #[test]
    fn eleven_projects_and_32_scenarios() {
        assert_eq!(projects().len(), 11);
        assert_eq!(scenarios().len(), 32);
        // Table 3 category split: 19 easy, 13 hard.
        let easy = scenarios().iter().filter(|s| s.category == 1).count();
        let hard = scenarios().iter().filter(|s| s.category == 2).count();
        assert_eq!(easy, 19);
        assert_eq!(hard, 13);
    }

    #[test]
    fn scenario_ids_are_unique_and_resolvable() {
        let mut ids: Vec<&str> = scenarios().iter().map(|s| s.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        for s in scenarios() {
            assert!(project(s.project).is_some(), "{} has a project", s.id);
            assert!(scenario(s.id).is_some());
        }
    }

    #[test]
    fn all_golden_designs_parse_and_simulate() {
        for p in projects() {
            let problem = p
                .golden_problem()
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            // The golden design scores a perfect fitness against its own
            // oracle.
            let eval = evaluate(&problem, &Patch::empty(), FitnessParams::default());
            assert_eq!(eval.score, 1.0, "{} golden fitness", p.name);
        }
    }

    #[test]
    fn all_golden_designs_pass_verification_benches() {
        for p in projects() {
            let golden = p.golden_design().unwrap();
            let verification = p.verification().unwrap();
            let ok =
                cirfix::verify_repair(&golden, &p.design_module_names(), &golden, &verification)
                    .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(ok, "{} golden verification", p.name);
        }
    }

    #[test]
    fn every_defect_is_visible_to_the_instrumented_testbench() {
        // The paper requires transplanted defects to compile and to
        // change externally visible behaviour (§4.1.3).
        for s in scenarios() {
            let problem = s.problem().unwrap_or_else(|e| panic!("{}: {e}", s.id));
            let eval = evaluate(&problem, &Patch::empty(), FitnessParams::default());
            assert!(
                eval.score < 1.0,
                "{}: defect must be visible (fitness {})",
                s.id,
                eval.score
            );
            assert!(
                !eval.mismatched.is_empty(),
                "{}: mismatch set must seed fault localization",
                s.id
            );
        }
    }

    #[test]
    fn defects_fail_verification_too() {
        for s in scenarios() {
            let p = project(s.project).unwrap();
            let faulty = s.faulty_design_file().unwrap();
            let golden = p.golden_design().unwrap();
            let verification = p.verification().unwrap();
            let ok =
                cirfix::verify_repair(&faulty, &p.design_module_names(), &golden, &verification)
                    .unwrap_or_else(|e| panic!("{}: {e}", s.id));
            assert!(!ok, "{}: faulty design must fail verification", s.id);
        }
    }

    #[test]
    fn paper_outcomes_match_table_3_counts() {
        use PaperOutcome::*;
        let plausible = scenarios()
            .iter()
            .filter(|s| matches!(s.paper, Correct(_) | Plausible(_)))
            .count();
        let correct = scenarios()
            .iter()
            .filter(|s| matches!(s.paper, Correct(_)))
            .count();
        assert_eq!(plausible, 21, "Table 3 reports 21 plausible repairs");
        assert_eq!(correct, 16, "Table 3 reports 16 correct repairs");
    }

    #[test]
    fn loc_counts_are_positive() {
        for p in projects() {
            assert!(p.design_loc() > 10, "{}", p.name);
            assert!(p.testbench_loc() > 10, "{}", p.name);
        }
    }

    #[test]
    fn generated_tranche_is_deduped_and_classified() {
        let tranche = generated_scenarios();
        assert!(tranche.len() >= 16, "tranche holds at least 16 scenarios");
        let mut fingerprints: Vec<&str> = tranche.iter().map(|s| s.fingerprint).collect();
        let n = fingerprints.len();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), n, "fingerprints are unique");
        for class in ["easy", "medium", "hard"] {
            assert!(
                tranche.iter().any(|s| s.class == class),
                "tranche covers the {class} class"
            );
        }
        for s in tranche {
            assert!(project(s.project).is_some(), "{} has a project", s.id);
            assert_eq!(generated_scenario(s.id).map(|g| g.id), Some(s.id));
            cirfix_parser::parse(s.source).unwrap_or_else(|e| panic!("{}: {e}", s.id));
        }
        // The paper surfaces never absorb generated scenarios.
        assert_eq!(scenarios().len(), 32);
    }

    #[test]
    fn generated_tranche_matches_manifest() {
        let manifest = cirfix_telemetry::parse_json(include_str!("generated/manifest.json").trim())
            .expect("manifest parses");
        let entries = match cirfix_telemetry::field(&manifest, "scenarios") {
            Some(cirfix_telemetry::JsonValue::Array(a)) => a,
            other => panic!("manifest scenarios: {other:?}"),
        };
        let tranche = generated_scenarios();
        assert_eq!(entries.len(), tranche.len(), "manifest covers the table");
        for (entry, s) in entries.iter().zip(tranche) {
            let field = |key: &str| {
                cirfix_telemetry::field_str(entry, key)
                    .unwrap_or_else(|| panic!("manifest {key} for {}", s.id))
            };
            assert_eq!(field("project"), s.project, "{}", s.id);
            assert_eq!(field("class"), s.class, "{}", s.id);
            assert_eq!(field("fingerprint"), s.fingerprint, "{}", s.id);
            assert_eq!(field("file"), format!("{}.v", s.id), "{}", s.id);
        }
    }

    #[test]
    fn generated_tranche_is_opt_in() {
        let expected = if generated_enabled() {
            generated_scenarios().len()
        } else {
            0
        };
        assert_eq!(active_generated_scenarios().len(), expected);
    }

    #[test]
    fn generated_defects_are_caught_when_enabled() {
        // Opt-in (CIRFIX_GENERATED=1, run by CI): every generated
        // defect must still compile and be visible to its search
        // testbench, exactly like the paper scenarios.
        for s in active_generated_scenarios() {
            let problem = s.problem().unwrap_or_else(|e| panic!("{}: {e}", s.id));
            let eval = evaluate(&problem, &Patch::empty(), FitnessParams::default());
            assert!(
                eval.score < 1.0,
                "{}: defect must be visible (fitness {})",
                s.id,
                eval.score
            );
            assert!(
                !eval.mismatched.is_empty(),
                "{}: mismatch set must seed fault localization",
                s.id
            );
        }
    }
}
