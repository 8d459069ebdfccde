//! Fingerprint stability over the real benchmark suite, and a golden
//! of patch application.
//!
//! The persistent store keys evaluations by a content digest of the
//! patched design, so two properties carry the whole cache's
//! correctness: the digest must be *stable* — hashing the design you
//! get back from printing and re-parsing a variant yields the same
//! digest (otherwise a cache written by one run would be unreadable by
//! the next) — and it must be *discriminating* — variants that print
//! differently never collide (a collision would serve one mutant the
//! other's fitness). Both are checked against every registered
//! benchmark scenario, over the space of single-edit patches.
//!
//! The golden pins the bytes `apply_patch` produces: every node id the
//! patched design modules carry (fresh ids included) and the
//! applied/skipped counts, per scenario, over the same single edits and
//! over seeded multi-edit patches. `UPDATE_GOLDEN=1 cargo test --test
//! fingerprint` rewrites `tests/apply_patch.golden`.

use std::collections::HashMap;
use std::fmt::Write as _;

use cirfix::{apply_patch, variant_fingerprint, Edit, Patch, SensTemplate};
use cirfix_ast::{print, visit, Module, NodeId, SourceFile, Stmt};
use cirfix_store::{Digest, Fnv128};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SENS_TEMPLATES: [SensTemplate; 4] = [
    SensTemplate::Posedge,
    SensTemplate::Negedge,
    SensTemplate::Level,
    SensTemplate::AnyChange,
];

fn design<'a>(file: &'a SourceFile, design_modules: &[String]) -> Vec<&'a Module> {
    file.modules
        .iter()
        .filter(|m| design_modules.contains(&m.name))
        .collect()
}

/// The signal the sensitivity templates name: the module's first port.
fn template_signal(module: &Module) -> Option<String> {
    module.ports.first().cloned()
}

/// Every single-edit patch this harness can enumerate deterministically,
/// one or more of each `Edit` variant per design-module node. Per
/// statement: a delete, a negation, both assignment-kind swaps, a
/// replacement by the next statement and an insertion of it after the
/// next one. Per event control: all four sensitivity templates and a
/// sensitivity swap with the next control. Per expression: an increment,
/// a decrement and a replacement by the next expression of its kind.
fn single_edit_patches(file: &SourceFile, design_modules: &[String]) -> Vec<Patch> {
    let mut patches = Vec::new();
    for module in design(file, design_modules) {
        let stmts = visit::stmts_of_module(module);
        for (i, stmt) in stmts.iter().enumerate() {
            let id = stmt.id();
            let next = stmts[(i + 1) % stmts.len()].id();
            patches.push(Patch::single(Edit::DeleteStmt { target: id }));
            patches.push(Patch::single(Edit::NegateCond { target: id }));
            patches.push(Patch::single(Edit::BlockingToNonBlocking { target: id }));
            patches.push(Patch::single(Edit::NonBlockingToBlocking { target: id }));
            patches.push(Patch::single(Edit::ReplaceStmt {
                target: id,
                donor: next,
            }));
            patches.push(Patch::single(Edit::InsertStmt {
                donor: id,
                after: next,
            }));
        }
        let controls: Vec<NodeId> = stmts
            .iter()
            .filter(|s| matches!(s, Stmt::EventControl { .. }))
            .map(|s| s.id())
            .collect();
        for (i, &control) in controls.iter().enumerate() {
            for kind in SENS_TEMPLATES {
                patches.push(Patch::single(Edit::SetSensitivity {
                    control,
                    kind,
                    signal: template_signal(module),
                }));
            }
            patches.push(Patch::single(Edit::ReplaceSensitivity {
                target: control,
                donor: controls[(i + 1) % controls.len()],
            }));
        }
        let exprs = visit::exprs_of_module(module);
        for (i, expr) in exprs.iter().enumerate() {
            let id = expr.id();
            patches.push(Patch::single(Edit::IncrementExpr { target: id }));
            patches.push(Patch::single(Edit::DecrementExpr { target: id }));
            let same_kind = exprs[i + 1..]
                .iter()
                .chain(&exprs[..i])
                .find(|e| std::mem::discriminant(**e) == std::mem::discriminant(*expr));
            if let Some(donor) = same_kind {
                patches.push(Patch::single(Edit::ReplaceExpr {
                    target: id,
                    donor: donor.id(),
                }));
            }
        }
    }
    patches
}

/// Seeded multi-edit patches of every `Edit` kind. Their ids come from
/// the whole file, testbench included: mostly statement and expression
/// ids, sometimes any id up to a little past the file's maximum, which
/// hits nodes an earlier edit of the same patch created.
fn random_patches(file: &SourceFile, design_modules: &[String], seed: u64) -> Vec<Patch> {
    let mut stmt_ids = Vec::new();
    let mut expr_ids = Vec::new();
    for module in &file.modules {
        stmt_ids.extend(visit::stmts_of_module(module).iter().map(|s| s.id()));
        expr_ids.extend(visit::exprs_of_module(module).iter().map(|e| e.id()));
    }
    let span = visit::max_id(file) + 32;
    let signal = design(file, design_modules)
        .first()
        .and_then(|m| template_signal(m));
    let mut rng = StdRng::seed_from_u64(seed);
    let pick = |rng: &mut StdRng, pool: &[NodeId]| -> NodeId {
        if pool.is_empty() || rng.gen_bool(0.25) {
            rng.gen_range(1..=span)
        } else {
            pool[rng.gen_range(0..pool.len())]
        }
    };
    (0..16)
        .map(|_| {
            let len = rng.gen_range(1..=6usize);
            let edits = (0..len)
                .map(|_| {
                    let s = pick(&mut rng, &stmt_ids);
                    let t = pick(&mut rng, &stmt_ids);
                    let e = pick(&mut rng, &expr_ids);
                    let f = pick(&mut rng, &expr_ids);
                    match rng.gen_range(0..12u32) {
                        0 => Edit::ReplaceStmt {
                            target: s,
                            donor: t,
                        },
                        1 => Edit::ReplaceExpr {
                            target: e,
                            donor: f,
                        },
                        2 => Edit::InsertStmt { donor: s, after: t },
                        3 => Edit::DeleteStmt { target: s },
                        4 => Edit::NegateCond { target: s },
                        5 => Edit::SetSensitivity {
                            control: s,
                            kind: SENS_TEMPLATES[rng.gen_range(0..4usize)].clone(),
                            signal: signal.clone().filter(|_| rng.gen_bool(0.8)),
                        },
                        6 => Edit::BlockingToNonBlocking { target: s },
                        7 => Edit::NonBlockingToBlocking { target: s },
                        8 => Edit::ReplaceSensitivity {
                            target: s,
                            donor: t,
                        },
                        9 => Edit::IncrementExpr { target: e },
                        10 => Edit::DecrementExpr { target: e },
                        _ => Edit::DeleteStmt {
                            target: rng.gen_range(1..=span),
                        },
                    }
                })
                .collect();
            Patch { edits }
        })
        .collect()
}

/// The canonical text the fingerprint hashes: the design modules'
/// pretty-print (testbench modules are covered by the scenario digest).
fn design_text(file: &SourceFile, design_modules: &[String]) -> String {
    design(file, design_modules)
        .into_iter()
        .map(print::module_to_string)
        .collect()
}

#[test]
fn fingerprints_survive_a_print_parse_round_trip() {
    for scenario in cirfix_benchmarks::scenarios() {
        let problem = scenario.problem().expect("scenario builds");
        let key = Digest(0x5eed);
        for patch in single_edit_patches(&problem.source, &problem.design_modules) {
            let (variant, stats) = apply_patch(&problem.source, &problem.design_modules, &patch);
            if stats.applied == 0 {
                continue;
            }
            let direct = variant_fingerprint(key, &variant, &problem.design_modules);
            let reparsed = cirfix_parser::parse(&design_text(&variant, &problem.design_modules))
                .unwrap_or_else(|e| panic!("{}: printed variant must re-parse: {e}", scenario.id));
            let round_tripped = variant_fingerprint(key, &reparsed, &problem.design_modules);
            assert_eq!(
                direct, round_tripped,
                "{}: fingerprint changed across print -> parse for {patch:?}",
                scenario.id
            );
        }
    }
}

#[test]
fn distinct_variants_never_collide_on_any_benchmark() {
    for scenario in cirfix_benchmarks::scenarios() {
        let problem = scenario.problem().expect("scenario builds");
        let key = Digest(0x5eed);
        // Patches that *print identically* must share a fingerprint —
        // that is the cache's dedup working as intended — so bucket by
        // canonical text first and require exactly one digest per text
        // and one text per digest.
        let mut by_digest: HashMap<u128, String> = HashMap::new();
        let mut by_text: HashMap<String, Digest> = HashMap::new();
        for patch in single_edit_patches(&problem.source, &problem.design_modules) {
            let (variant, _) = apply_patch(&problem.source, &problem.design_modules, &patch);
            let text = design_text(&variant, &problem.design_modules);
            let digest = variant_fingerprint(key, &variant, &problem.design_modules);
            if let Some(previous) = by_text.get(&text) {
                assert_eq!(
                    *previous, digest,
                    "{}: equal prints must fingerprint equally",
                    scenario.id
                );
                continue;
            }
            by_text.insert(text.clone(), digest);
            if let Some(other) = by_digest.insert(digest.0, text.clone()) {
                panic!(
                    "{}: fingerprint collision between distinct variants:\n--- a ---\n{other}\n--- b ---\n{text}",
                    scenario.id
                );
            }
        }
        assert!(
            by_digest.len() > 1,
            "{}: the harness must exercise more than one distinct variant",
            scenario.id
        );
    }
}

/// One digest per scenario over every patch of the harness: the
/// `Debug` rendering of each patched design module (every node id,
/// sensitivity events included) and the patch's `ApplyStats`. A module
/// item equal to the original's is hashed by its index alone; that
/// keeps the large designs cheap without weakening the check.
fn apply_patch_digests() -> String {
    let mut out = String::new();
    for (n, scenario) in cirfix_benchmarks::scenarios().iter().enumerate() {
        let problem = scenario.problem().expect("scenario builds");
        let (source, modules) = (&problem.source, &problem.design_modules);
        let originals = design(source, modules);
        let mut patches = single_edit_patches(source, modules);
        patches.extend(random_patches(source, modules, n as u64));
        let mut h = Fnv128::new();
        for patch in &patches {
            let (variant, stats) = apply_patch(source, modules, patch);
            h.write_u64(stats.applied as u64);
            h.write_u64(stats.skipped as u64);
            for (module, original) in design(&variant, modules).into_iter().zip(&originals) {
                h.write_u64(module.items.len() as u64);
                for (i, item) in module.items.iter().enumerate() {
                    if original.items.get(i) == Some(item) {
                        h.write_u64(i as u64);
                    } else {
                        h.write_str(&format!("{item:?}"));
                    }
                }
            }
        }
        writeln!(
            out,
            "{} {} {}",
            scenario.id,
            patches.len(),
            h.finish().to_hex()
        )
        .unwrap();
    }
    out
}

#[test]
fn patch_application_matches_the_golden() {
    let digests = apply_patch_digests();
    // `UPDATE_GOLDEN=1 cargo test --test fingerprint` rewrites the fixture.
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/apply_patch.golden"),
            &digests,
        )
        .expect("fixture writes");
    }
    let expected = include_str!("apply_patch.golden");
    for (got, want) in digests.lines().zip(expected.lines()) {
        assert_eq!(
            got, want,
            "apply_patch output drifted (scenario patches digest)"
        );
    }
    assert_eq!(
        digests.lines().count(),
        expected.lines().count(),
        "scenario count drifted from tests/apply_patch.golden"
    );
}
