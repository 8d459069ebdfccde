//! Repair patches: sequences of AST edits parameterized by node numbers.
//!
//! Following GenProg-style repair (and §3 of the paper), a candidate
//! repair is not a program but a *patch*: an ordered list of [`Edit`]s
//! applied to the original design. Edits reference nodes by id; an edit
//! whose target no longer exists (because an earlier edit removed it) is
//! a no-op. Copies inserted by edits receive fresh, deterministic ids so
//! that replaying the same patch always produces the same variant.

use cirfix_ast::{
    visit, BinaryOp, EventExpr, Expr, Module, NodeId, NodeIdGen, Sensitivity, SourceFile, Stmt,
    UnaryOp,
};
use cirfix_logic::{EdgeKind, LiteralBase, LogicVec};

/// The sensitivity-list repair templates of Table 1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SensTemplate {
    /// Trigger on a signal's rising edge.
    Posedge,
    /// Trigger on a signal's falling edge.
    Negedge,
    /// Trigger on any change to a variable within the block (`@*`).
    AnyChange,
    /// Trigger when a signal is level (any change of that signal).
    Level,
}

/// One AST edit. `Replace`/`Insert` donors are looked up *in the current
/// variant* (the AST after all earlier edits), matching GenProg's patch
/// semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Edit {
    /// Replace the statement `target` with a copy of statement `donor`.
    ReplaceStmt {
        /// Statement to overwrite.
        target: NodeId,
        /// Statement to copy.
        donor: NodeId,
    },
    /// Replace the expression `target` with a copy of expression `donor`.
    ReplaceExpr {
        /// Expression to overwrite.
        target: NodeId,
        /// Expression to copy.
        donor: NodeId,
    },
    /// Insert a copy of statement `donor` after statement `after`
    /// (which must be a direct child of a `begin…end` block).
    InsertStmt {
        /// Statement to copy.
        donor: NodeId,
        /// Insertion anchor.
        after: NodeId,
    },
    /// Delete statement `target` (replace it with `;`).
    DeleteStmt {
        /// Statement to delete.
        target: NodeId,
    },
    /// Template: negate the condition of an `if`/`while` (Table 1).
    NegateCond {
        /// The conditional statement.
        target: NodeId,
    },
    /// Template: rewrite the sensitivity of an event control (Table 1).
    SetSensitivity {
        /// The event-control statement.
        control: NodeId,
        /// New sensitivity shape.
        kind: SensTemplate,
        /// Signal for `Posedge`/`Negedge`/`Level` (ignored for
        /// `AnyChange`).
        signal: Option<String>,
    },
    /// Template: change a blocking assignment to non-blocking (Table 1).
    BlockingToNonBlocking {
        /// The assignment statement.
        target: NodeId,
    },
    /// Template: change a non-blocking assignment to blocking (Table 1).
    NonBlockingToBlocking {
        /// The assignment statement.
        target: NodeId,
    },
    /// Replace the sensitivity list of the event control `target` with a
    /// copy of the event control `donor`'s sensitivity. PyVerilog
    /// represents sensitivity lists as their own node type, so CirFix's
    /// replace operator can swap lists between always blocks (§3.6:
    /// "an item of the same type").
    ReplaceSensitivity {
        /// Event control whose sensitivity is overwritten.
        target: NodeId,
        /// Event control whose sensitivity is copied.
        donor: NodeId,
    },
    /// Template: increment the value of an identifier or literal by 1
    /// (Table 1, numeric).
    IncrementExpr {
        /// The expression to increment.
        target: NodeId,
    },
    /// Template: decrement the value of an identifier or literal by 1
    /// (Table 1, numeric).
    DecrementExpr {
        /// The expression to decrement.
        target: NodeId,
    },
}

/// An ordered list of edits — one candidate repair.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Patch {
    /// Edits, applied first to last.
    pub edits: Vec<Edit>,
}

impl Patch {
    /// The empty patch (the original design).
    pub fn empty() -> Patch {
        Patch { edits: Vec::new() }
    }

    /// A patch with one edit.
    pub fn single(edit: Edit) -> Patch {
        Patch { edits: vec![edit] }
    }

    /// Returns this patch extended by one edit.
    pub fn with(&self, edit: Edit) -> Patch {
        let mut edits = self.edits.clone();
        edits.push(edit);
        Patch { edits }
    }

    /// Number of edits.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// `true` for the empty patch.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }
}

/// Statistics from applying a patch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApplyStats {
    /// Edits whose target was found and rewritten.
    pub applied: usize,
    /// Edits that were no-ops (stale node references).
    pub skipped: usize,
}

/// Applies `patch` to a copy of `original`, editing only the named
/// design modules. Returns the variant and per-edit statistics.
///
/// Edit application is deterministic: inserted copies are renumbered
/// from a generator starting past the original's maximum node id, in
/// edit order.
pub fn apply_patch(
    original: &SourceFile,
    design_modules: &[String],
    patch: &Patch,
) -> (SourceFile, ApplyStats) {
    let mut file = original.clone();
    let mut ids = NodeIdGen::starting_at(visit::max_id(original) + 1);
    let mut stats = ApplyStats::default();
    for edit in &patch.edits {
        if apply_edit(&mut file, design_modules, edit, &mut ids) {
            stats.applied += 1;
        } else {
            stats.skipped += 1;
        }
    }
    (file, stats)
}

fn apply_edit(
    file: &mut SourceFile,
    design_modules: &[String],
    edit: &Edit,
    ids: &mut NodeIdGen,
) -> bool {
    match edit {
        Edit::ReplaceStmt { target, donor } => {
            let Some(mut donor) = find_stmt_anywhere(file, design_modules, *donor) else {
                return false;
            };
            visit::renumber_stmt(&mut donor, ids);
            edit_stmt(file, design_modules, *target, |s| {
                *s = donor;
                true
            })
        }
        Edit::ReplaceExpr { target, donor } => {
            let Some(mut donor) = find_expr_anywhere(file, design_modules, *donor) else {
                return false;
            };
            visit::renumber_expr(&mut donor, ids);
            edit_expr(file, design_modules, *target, |e| {
                *e = donor;
                true
            })
        }
        Edit::InsertStmt { donor, after } => {
            let Some(mut donor) = find_stmt_anywhere(file, design_modules, *donor) else {
                return false;
            };
            visit::renumber_stmt(&mut donor, ids);
            design_modules.iter().any(|name| {
                file.module_mut(name)
                    .is_some_and(|m| visit::insert_stmt_after(m, *after, &donor))
            })
        }
        Edit::DeleteStmt { target } => {
            let null = Stmt::Null { id: ids.fresh() };
            edit_stmt(file, design_modules, *target, |s| {
                *s = null;
                true
            })
        }
        Edit::NegateCond { target } => edit_stmt(file, design_modules, *target, |s| match s {
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => {
                let id = ids.fresh();
                wrap(cond, |arg| Expr::Unary {
                    id,
                    op: UnaryOp::LogicNot,
                    arg,
                });
                true
            }
            _ => false,
        }),
        Edit::SetSensitivity {
            control,
            kind,
            signal,
        } => edit_stmt(file, design_modules, *control, |s| {
            let Stmt::EventControl { sensitivity, .. } = s else {
                return false;
            };
            let edge = match kind {
                SensTemplate::AnyChange => {
                    *sensitivity = Sensitivity::Star;
                    return true;
                }
                SensTemplate::Posedge => EdgeKind::Pos,
                SensTemplate::Negedge => EdgeKind::Neg,
                SensTemplate::Level => EdgeKind::Any,
            };
            let Some(name) = signal else { return false };
            *sensitivity = Sensitivity::List(vec![EventExpr {
                id: ids.fresh(),
                edge,
                expr: Expr::Ident {
                    id: ids.fresh(),
                    name: name.clone(),
                },
            }]);
            true
        }),
        Edit::BlockingToNonBlocking { target } => {
            edit_stmt(file, design_modules, *target, |s| set_blocking(s, false))
        }
        Edit::NonBlockingToBlocking { target } => {
            edit_stmt(file, design_modules, *target, |s| set_blocking(s, true))
        }
        Edit::ReplaceSensitivity { target, donor } => {
            let Some(Stmt::EventControl { sensitivity, .. }) =
                lookup(file, design_modules, |m| visit::find_stmt(m, *donor))
            else {
                return false;
            };
            let mut donor = sensitivity.clone();
            edit_stmt(file, design_modules, *target, |s| {
                let Stmt::EventControl { sensitivity, .. } = s else {
                    return false;
                };
                if let Sensitivity::List(events) = &mut donor {
                    for ev in events.iter_mut() {
                        ev.id = ids.fresh();
                        visit::renumber_expr(&mut ev.expr, ids);
                    }
                }
                *sensitivity = donor;
                true
            })
        }
        Edit::IncrementExpr { target } => {
            edit_expr(file, design_modules, *target, |e| adjust_expr(e, ids, true))
        }
        Edit::DecrementExpr { target } => edit_expr(file, design_modules, *target, |e| {
            adjust_expr(e, ids, false)
        }),
    }
}

/// Replaces `expr` by `wrap` of the old expression.
fn wrap(expr: &mut Expr, wrap: impl FnOnce(Box<Expr>) -> Expr) {
    let placeholder = Expr::Str {
        id: 0,
        value: String::new(),
    };
    let old = std::mem::replace(expr, placeholder);
    *expr = wrap(Box::new(old));
}

/// Turns an assignment into a blocking (`true`) or non-blocking one;
/// `false` unless `stmt` is an assignment of the other kind.
fn set_blocking(stmt: &mut Stmt, blocking: bool) -> bool {
    let (swapped, new) = match std::mem::replace(stmt, Stmt::Null { id: 0 }) {
        Stmt::NonBlocking {
            id,
            lhs,
            delay,
            rhs,
        } if blocking => (
            true,
            Stmt::Blocking {
                id,
                lhs,
                delay,
                rhs,
            },
        ),
        Stmt::Blocking {
            id,
            lhs,
            delay,
            rhs,
        } if !blocking => (
            true,
            Stmt::NonBlocking {
                id,
                lhs,
                delay,
                rhs,
            },
        ),
        other => (false, other),
    };
    *stmt = new;
    swapped
}

/// Increments or decrements an expression: literals are folded in place
/// (keeping their width and id), other expressions are wrapped in `± 1`.
fn adjust_expr(expr: &mut Expr, ids: &mut NodeIdGen, increment: bool) -> bool {
    if let Expr::Literal { value, .. } = expr {
        let one = LogicVec::from_u64(1, value.width());
        let adjusted = if increment {
            value.add(&one)
        } else {
            value.sub(&one)
        };
        *value = adjusted.resized(value.width());
        return true;
    }
    let one = Expr::Literal {
        id: ids.fresh(),
        value: LogicVec::from_u64(1, 32),
        base: LiteralBase::Decimal,
        sized: false,
    };
    let id = ids.fresh();
    let op = if increment {
        BinaryOp::Add
    } else {
        BinaryOp::Sub
    };
    wrap(expr, |lhs| Expr::Binary {
        id,
        op,
        lhs,
        rhs: Box::new(one),
    });
    true
}

/// Runs `edit` on statement `target` where it sits in the design modules
/// and returns its verdict. A target that exists only outside them (the
/// testbench) is edited on a throwaway copy: the edit draws the fresh
/// ids it would draw in place, changes nothing, and counts as skipped.
fn edit_stmt(
    file: &mut SourceFile,
    design_modules: &[String],
    target: NodeId,
    edit: impl FnOnce(&mut Stmt) -> bool,
) -> bool {
    let mut edit = Some(edit);
    for name in design_modules {
        let Some(m) = file.module_mut(name) else {
            continue;
        };
        if let Some(applied) = visit::edit_stmt(m, target, |s| edit.take().is_some_and(|e| e(s))) {
            return applied;
        }
    }
    if let (Some(edit), Some(mut copy)) = (edit, find_stmt_anywhere(file, design_modules, target)) {
        edit(&mut copy);
    }
    false
}

/// [`edit_stmt`] for expressions.
fn edit_expr(
    file: &mut SourceFile,
    design_modules: &[String],
    target: NodeId,
    edit: impl FnOnce(&mut Expr) -> bool,
) -> bool {
    let mut edit = Some(edit);
    for name in design_modules {
        let Some(m) = file.module_mut(name) else {
            continue;
        };
        if let Some(applied) = visit::edit_expr(m, target, |e| edit.take().is_some_and(|f| f(e))) {
            return applied;
        }
    }
    if let (Some(edit), Some(mut copy)) = (edit, find_expr_anywhere(file, design_modules, target)) {
        edit(&mut copy);
    }
    false
}

/// The first node `find` returns, searching the design modules first and
/// then the rest of the file, each in file order.
fn lookup<'a, T>(
    file: &'a SourceFile,
    design_modules: &[String],
    find: impl Fn(&'a Module) -> Option<&'a T>,
) -> Option<&'a T> {
    let in_design = |m: &&Module| design_modules.contains(&m.name);
    let rest = file.modules.iter().filter(|m| !in_design(m));
    file.modules
        .iter()
        .filter(in_design)
        .chain(rest)
        .find_map(find)
}

/// Finds and clones a statement by id, searching the design modules
/// first and then the rest of the file (donor code may come from any
/// module — including the testbench when fix localization is disabled).
pub fn find_stmt_anywhere(
    file: &SourceFile,
    design_modules: &[String],
    id: NodeId,
) -> Option<Stmt> {
    lookup(file, design_modules, |m| visit::find_stmt(m, id)).cloned()
}

/// Finds and clones an expression by id; search order as in
/// [`find_stmt_anywhere`].
pub fn find_expr_anywhere(
    file: &SourceFile,
    design_modules: &[String],
    id: NodeId,
) -> Option<Expr> {
    lookup(file, design_modules, |m| visit::find_expr(m, id)).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cirfix_ast::print;
    use cirfix_parser::parse;

    const SRC: &str = r#"
        module m (c, q);
            input c;
            output reg [3:0] q;
            always @(posedge c)
            begin
                if (c == 1'b1) begin
                    q <= q + 4'd1;
                end
                q <= 4'd0;
            end
        endmodule
        module tb;
            reg c;
            wire [3:0] q;
            m dut (c, q);
            initial c = 0;
        endmodule
    "#;

    fn setup() -> (SourceFile, Vec<String>) {
        (parse(SRC).unwrap(), vec!["m".to_string()])
    }

    fn find_stmt_id(file: &SourceFile, pred: impl Fn(&Stmt) -> bool) -> NodeId {
        for m in &file.modules {
            for s in visit::stmts_of_module(m) {
                if pred(s) {
                    return s.id();
                }
            }
        }
        panic!("statement not found");
    }

    #[test]
    fn empty_patch_is_identity() {
        let (file, mods) = setup();
        let (variant, stats) = apply_patch(&file, &mods, &Patch::empty());
        assert_eq!(
            print::source_to_string(&variant),
            print::source_to_string(&file)
        );
        assert_eq!(stats.applied, 0);
    }

    #[test]
    fn delete_replaces_with_null() {
        let (file, mods) = setup();
        let target = find_stmt_id(&file, |s| matches!(s, Stmt::If { .. }));
        let patch = Patch::single(Edit::DeleteStmt { target });
        let (variant, stats) = apply_patch(&file, &mods, &patch);
        assert_eq!(stats.applied, 1);
        assert!(!print::source_to_string(&variant).contains("if (c == 1'b1)"));
    }

    #[test]
    fn stale_edits_are_noops() {
        let (file, mods) = setup();
        let target = find_stmt_id(&file, |s| matches!(s, Stmt::If { .. }));
        let patch = Patch {
            edits: vec![
                Edit::DeleteStmt { target },
                Edit::NegateCond { target }, // now stale
            ],
        };
        let (_, stats) = apply_patch(&file, &mods, &patch);
        assert_eq!(stats.applied, 1);
        assert_eq!(stats.skipped, 1);
    }

    #[test]
    fn negate_cond_wraps_condition() {
        let (file, mods) = setup();
        let target = find_stmt_id(&file, |s| matches!(s, Stmt::If { .. }));
        let patch = Patch::single(Edit::NegateCond { target });
        let (variant, _) = apply_patch(&file, &mods, &patch);
        assert!(print::source_to_string(&variant).contains("!(c == 1'b1)"));
    }

    #[test]
    fn sensitivity_templates_rewrite_event_control() {
        let (file, mods) = setup();
        let control = find_stmt_id(&file, |s| matches!(s, Stmt::EventControl { .. }));
        for (kind, signal, needle) in [
            (SensTemplate::Negedge, Some("c"), "@(negedge c)"),
            (SensTemplate::Posedge, Some("c"), "@(posedge c)"),
            (SensTemplate::Level, Some("c"), "@(c)"),
            (SensTemplate::AnyChange, None, "@*"),
        ] {
            let patch = Patch::single(Edit::SetSensitivity {
                control,
                kind: kind.clone(),
                signal: signal.map(str::to_string),
            });
            let (variant, stats) = apply_patch(&file, &mods, &patch);
            assert_eq!(stats.applied, 1, "{kind:?}");
            assert!(
                print::source_to_string(&variant).contains(needle),
                "{kind:?} should produce {needle}"
            );
        }
    }

    #[test]
    fn assignment_kind_templates_swap() {
        let (file, mods) = setup();
        let nba = find_stmt_id(&file, |s| {
            matches!(
                s,
                Stmt::NonBlocking {
                    rhs: Expr::Binary { .. },
                    ..
                }
            )
        });
        let patch = Patch::single(Edit::NonBlockingToBlocking { target: nba });
        let (variant, _) = apply_patch(&file, &mods, &patch);
        assert!(print::source_to_string(&variant).contains("q = q + 4'd1"));
        // And back.
        let (file2, _) = apply_patch(&file, &mods, &patch);
        let blocking = find_stmt_id(&file2, |s| {
            matches!(
                s,
                Stmt::Blocking {
                    rhs: Expr::Binary { .. },
                    ..
                }
            )
        });
        let patch2 = Patch::single(Edit::BlockingToNonBlocking { target: blocking });
        let (variant2, _) = apply_patch(&file2, &mods, &patch2);
        assert!(print::source_to_string(&variant2).contains("q <= q + 4'd1"));
    }

    #[test]
    fn numeric_templates_fold_literals() {
        let (file, mods) = setup();
        let lit = {
            let m = file.module("m").unwrap();
            visit::exprs_of_module(m)
                .into_iter()
                .find(|e| matches!(e, Expr::Literal { value, .. } if value.to_u64() == Some(1) && value.width() == 4))
                .map(|e| e.id())
                .unwrap()
        };
        let (variant, _) = apply_patch(
            &file,
            &mods,
            &Patch::single(Edit::IncrementExpr { target: lit }),
        );
        assert!(print::source_to_string(&variant).contains("q + 4'd2"));
        let (variant, _) = apply_patch(
            &file,
            &mods,
            &Patch::single(Edit::DecrementExpr { target: lit }),
        );
        assert!(print::source_to_string(&variant).contains("q + 4'd0"));
    }

    #[test]
    fn numeric_templates_wrap_identifiers() {
        let (file, mods) = setup();
        let ident = {
            let m = file.module("m").unwrap();
            visit::exprs_of_module(m)
                .into_iter()
                .find(|e| matches!(e, Expr::Ident { name, .. } if name == "q"))
                .map(|e| e.id())
                .unwrap()
        };
        let (variant, stats) = apply_patch(
            &file,
            &mods,
            &Patch::single(Edit::IncrementExpr { target: ident }),
        );
        assert_eq!(stats.applied, 1);
        let printed = print::source_to_string(&variant);
        assert!(printed.contains("q + 1"), "{printed}");
    }

    #[test]
    fn insert_copies_and_renumbers() {
        let (file, mods) = setup();
        let donor = find_stmt_id(&file, |s| {
            matches!(
                s,
                Stmt::NonBlocking {
                    rhs: Expr::Literal { .. },
                    ..
                }
            )
        });
        let anchor = donor; // insert after itself (it is a block child)
        let patch = Patch::single(Edit::InsertStmt {
            donor,
            after: anchor,
        });
        let (variant, stats) = apply_patch(&file, &mods, &patch);
        assert_eq!(stats.applied, 1);
        // Two copies of `q <= 4'd0;` now, with unique ids everywhere.
        let printed = print::source_to_string(&variant);
        assert_eq!(printed.matches("q <= 4'd0;").count(), 2);
        let mut ids = Vec::new();
        visit::walk_source(&variant, &mut |n| ids.push(n.id()));
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "ids stay unique after insertion");
    }

    #[test]
    fn replace_is_deterministic() {
        let (file, mods) = setup();
        let target = find_stmt_id(&file, |s| {
            matches!(
                s,
                Stmt::NonBlocking {
                    rhs: Expr::Literal { .. },
                    ..
                }
            )
        });
        let donor = find_stmt_id(&file, |s| matches!(s, Stmt::If { .. }));
        let patch = Patch::single(Edit::ReplaceStmt { target, donor });
        let (v1, _) = apply_patch(&file, &mods, &patch);
        let (v2, _) = apply_patch(&file, &mods, &patch);
        assert_eq!(v1, v2, "patch replay must be deterministic");
    }

    #[test]
    fn testbench_is_never_modified() {
        let (file, mods) = setup();
        // Target a statement inside the testbench: must be a no-op.
        let tb_stmt = {
            let tb = file.module("tb").unwrap();
            visit::stmts_of_module(tb)[0].id()
        };
        let patch = Patch::single(Edit::DeleteStmt { target: tb_stmt });
        let (variant, stats) = apply_patch(&file, &mods, &patch);
        assert_eq!(stats.applied, 0);
        assert_eq!(
            print::source_to_string(&variant),
            print::source_to_string(&file)
        );
    }
}
