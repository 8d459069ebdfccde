#![warn(missing_docs)]

//! CirFix: automated program repair for Verilog hardware designs.
//!
//! A from-scratch Rust implementation of *CirFix: Automatically Repairing
//! Defects in Hardware Design Code* (Ahmad, Huang & Weimer, ASPLOS 2022).
//! CirFix repairs defects in hardware description code with genetic
//! programming, guided by two HDL-specific components:
//!
//! * a **fitness function** ([`fitness`]) performing a bit-level,
//!   φ-weighted comparison of instrumented-testbench output against
//!   expected behaviour (§3.2);
//! * a **dataflow-based fault localization** ([`fault_localization`])
//!   implicating assignments to mismatched wires/registers and the
//!   conditionals around them in a fixed-point analysis (§3.1, Alg. 2).
//!
//! The search (Algorithm 1, [`repair`]) evolves [`Patch`]es — edit lists
//! over a numbered AST — through [repair templates](applicable_templates),
//! three [mutation](mutate) sub-types with [fix localization](MutationParams),
//! and single-point [crossover]; parents are picked by
//! [tournament selection](tournament_select) with elitism, and winning
//! patches are [minimized](minimize) by delta debugging (§3.7).
//!
//! # Quickstart
//!
//! ```
//! use cirfix::{oracle_from_golden, repair, RepairConfig, RepairProblem};
//! use cirfix_sim::{ProbeSpec, SimConfig};
//!
//! // A 2-bit counter whose reset condition was negated by a defect.
//! let golden = cirfix_parser::parse(DESIGN_OK)?;
//! let faulty = cirfix_parser::parse(DESIGN_BAD)?;
//! let probe = ProbeSpec::periodic(vec!["q".into()], 5, 10);
//! let sim = SimConfig::default();
//! let oracle = oracle_from_golden(&golden, "tb", &probe, &sim)?;
//! let problem = RepairProblem {
//!     source: faulty,
//!     top: "tb".into(),
//!     design_modules: vec!["cnt".into()],
//!     probe,
//!     oracle,
//!     sim,
//! };
//! let result = repair(&problem, RepairConfig::fast(1));
//! assert!(result.is_plausible());
//! # const DESIGN_OK: &str = "
//! # module cnt (c, r, q); input c, r; output reg [1:0] q;
//! #   always @(posedge c) if (r) q <= 0; else q <= q + 1;
//! # endmodule
//! # module tb; reg c, r; wire [1:0] q; cnt dut (c, r, q);
//! #   initial begin c = 0; r = 1; #12 r = 0; end
//! #   always #5 c = !c;
//! #   initial #120 $finish;
//! # endmodule";
//! # const DESIGN_BAD: &str = "
//! # module cnt (c, r, q); input c, r; output reg [1:0] q;
//! #   always @(posedge c) if (!r) q <= 0; else q <= q + 1;
//! # endmodule
//! # module tb; reg c, r; wire [1:0] q; cnt dut (c, r, q);
//! #   initial begin c = 0; r = 1; #12 r = 0; end
//! #   always #5 c = !c;
//! #   initial #120 $finish;
//! # endmodule";
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod brute;
mod control;
mod counters;
mod crossover;
mod engine;
mod evaluator;
pub mod explain;
mod faultloc;
mod faults;
mod fitness;
mod mined;
mod minimize;
mod mutation;
mod oracle;
mod outcome;
mod patch;
pub mod persist;
mod repair;
pub mod report;
mod select;
pub mod session;
mod staticfilter;
mod templates;
mod verify;

pub use brute::{brute_force_repair, BruteConfig};
pub use cirfix_telemetry::Observer;
pub use control::{BatchGate, SearchControl};
pub use counters::{Counter, CounterSpec, Counters, COUNTERS};
pub use crossover::crossover;
pub use engine::{evaluate_many, resolve_jobs};
pub use evaluator::{evaluate, strip_hierarchy, Evaluation};
pub use faultloc::{fault_loc_event, fault_localization, FaultLoc};
pub use faults::{FaultInjector, FaultKind, FaultPlan};
pub use fitness::{failure_report, fitness, population_stats, FitnessParams, FitnessReport};
pub use mined::{
    compose_priors, load_mined_patterns, mined_prior, mined_template_candidates, MINED_BOOST_CAP,
};
pub use minimize::minimize;
pub use mutation::{all_stmt_ids, mutate, mutate_with_prior, MutationParams};
pub use oracle::{
    degrade_oracle, oracle_from_golden, simulate_with_probe, simulate_with_probe_cancellable,
    RepairProblem,
};
pub use outcome::EvalOutcome;
pub use patch::{apply_patch, ApplyStats, Edit, Patch, SensTemplate};
pub use persist::{
    patch_from_json, patch_to_json, problem_digest, result_to_canonical_json, session_digest,
    variant_fingerprint,
};
pub use repair::{
    repair, repair_with_trials, RepairConfig, RepairResult, RepairStatus, Repairer, RunTotals,
};
pub use report::RunReport;
pub use select::{elite_indices, tournament_select};
pub use session::{repair_session, SessionError, SharedEvalCache};
pub use staticfilter::{lint_prior, StaticFilter, LINT_BOOST};
pub use templates::{applicable_templates, random_template};
pub use verify::{combine, extract_modules, verify_repair, Verification};
