//! Traversal, lookup and in-place mutation of the AST by node id.
//!
//! CirFix patches are sequences of edits addressed by node number. Every
//! edit primitive here is a short closure over one of two pre-order
//! walks:
//!
//! - The read-only walk ([`walk_source`], [`walk_module`], [`walk_item`],
//!   [`walk_stmt`], [`walk_expr`], [`walk_lvalue`]) yields a [`NodeRef`]
//!   for every addressable node: modules, items, statements,
//!   expressions, lvalues, case arms, declared variables and
//!   connections. It serves id collection ([`ids_in_stmt`], [`max_id`])
//!   and lookup ([`find_stmt`], [`find_expr`]).
//! - The mutable walk ([`walk_module_mut`], [`walk_stmt_mut`],
//!   [`walk_expr_mut`], [`walk_lvalue_mut`]) yields a [`NodeMut`] for
//!   every node below a module item that carries an id: statements,
//!   expressions, lvalues, case arms and sensitivity events. It serves
//!   in-place edits ([`edit_stmt`], [`edit_expr`]), statement insertion
//!   ([`insert_stmt_after`]) and fresh renumbering of inserted copies
//!   ([`renumber_stmt`], [`renumber_expr`]).
//!
//! Only the mutable walk yields sensitivity events ([`EventExpr`]): a
//! renumbered copy must not share their ids with the original, but they
//! are not addressable on their own, and the read-only walk's node
//! counts feed the growth factor and fault localization.
//!
//! A walk callback returns `()` to visit everything or a
//! [`ControlFlow`] to stop early; each walk returns `true` when it was
//! stopped. Lookups and edits stop at the first match in pre-order.

use std::ops::ControlFlow;

use crate::expr::Expr;
use crate::module::{Connection, DeclVar, Item, Module, SourceFile};
use crate::node::{NodeId, NodeIdGen};
use crate::stmt::{CaseArm, EventExpr, LValue, Sensitivity, Stmt};

/// A borrowed reference to any AST node, yielded by the read-only walk.
#[derive(Debug, Clone, Copy)]
pub enum NodeRef<'a> {
    /// A module.
    Module(&'a Module),
    /// A module item.
    Item(&'a Item),
    /// A statement.
    Stmt(&'a Stmt),
    /// An expression.
    Expr(&'a Expr),
    /// An assignment target.
    LValue(&'a LValue),
    /// A case arm.
    CaseArm(&'a CaseArm),
    /// A declaration variable.
    DeclVar(&'a DeclVar),
    /// An instantiation connection.
    Connection(&'a Connection),
}

impl NodeRef<'_> {
    /// The node id.
    pub fn id(&self) -> NodeId {
        match self {
            NodeRef::Module(m) => m.id,
            NodeRef::Item(i) => i.id(),
            NodeRef::Stmt(s) => s.id(),
            NodeRef::Expr(e) => e.id(),
            NodeRef::LValue(l) => l.id(),
            NodeRef::CaseArm(a) => a.id,
            NodeRef::DeclVar(v) => v.id,
            NodeRef::Connection(c) => c.id,
        }
    }
}

/// A mutable reference to a node below a module item, yielded by the
/// mutable walk.
#[derive(Debug)]
pub enum NodeMut<'a> {
    /// A statement.
    Stmt(&'a mut Stmt),
    /// An expression.
    Expr(&'a mut Expr),
    /// An assignment target.
    LValue(&'a mut LValue),
    /// A case arm.
    CaseArm(&'a mut CaseArm),
    /// A sensitivity event (the read-only walk skips these).
    Event(&'a mut EventExpr),
}

impl NodeMut<'_> {
    /// The node id, writable.
    pub fn id_mut(&mut self) -> &mut NodeId {
        match self {
            NodeMut::Stmt(s) => s.id_mut(),
            NodeMut::Expr(e) => e.id_mut(),
            NodeMut::LValue(l) => l.id_mut(),
            NodeMut::CaseArm(a) => &mut a.id,
            NodeMut::Event(e) => &mut e.id,
        }
    }
}

/// What a walk callback returns: `()` never stops the walk,
/// `ControlFlow::Break(())` stops it.
pub trait Flow {
    /// `true` to stop the walk.
    fn stop(self) -> bool;
}

impl Flow for () {
    fn stop(self) -> bool {
        false
    }
}

impl Flow for ControlFlow<()> {
    fn stop(self) -> bool {
        self.is_break()
    }
}

// ---------------------------------------------------------------------------
// The read-only walk (pre-order).
// ---------------------------------------------------------------------------

/// Walks every node of every module in pre-order.
pub fn walk_source<'a, R: Flow>(
    file: &'a SourceFile,
    f: &mut impl FnMut(NodeRef<'a>) -> R,
) -> bool {
    file.modules.iter().any(|m| walk_module(m, f))
}

/// Walks every node of a module in pre-order.
pub fn walk_module<'a, R: Flow>(module: &'a Module, f: &mut impl FnMut(NodeRef<'a>) -> R) -> bool {
    f(NodeRef::Module(module)).stop() || module.items.iter().any(|item| walk_item(item, f))
}

/// Walks an item subtree in pre-order.
pub fn walk_item<'a, R: Flow>(item: &'a Item, f: &mut impl FnMut(NodeRef<'a>) -> R) -> bool {
    if f(NodeRef::Item(item)).stop() {
        return true;
    }
    match item {
        Item::Decl(d) => {
            d.range
                .iter()
                .any(|(msb, lsb)| walk_expr(msb, f) || walk_expr(lsb, f))
                || d.vars.iter().any(|v| {
                    f(NodeRef::DeclVar(v)).stop()
                        || v.array
                            .iter()
                            .any(|(hi, lo)| walk_expr(hi, f) || walk_expr(lo, f))
                        || v.init.iter().any(|init| walk_expr(init, f))
                })
        }
        Item::Param(p) => walk_expr(&p.value, f),
        Item::Assign { lhs, rhs, .. } => walk_lvalue(lhs, f) || walk_expr(rhs, f),
        Item::Always { body, .. } | Item::Initial { body, .. } => walk_stmt(body, f),
        Item::Instance(inst) => inst
            .params
            .iter()
            .chain(&inst.ports)
            .any(|c| f(NodeRef::Connection(c)).stop() || c.expr.iter().any(|e| walk_expr(e, f))),
    }
}

/// Walks a statement subtree in pre-order.
pub fn walk_stmt<'a, R: Flow>(stmt: &'a Stmt, f: &mut impl FnMut(NodeRef<'a>) -> R) -> bool {
    if f(NodeRef::Stmt(stmt)).stop() {
        return true;
    }
    match stmt {
        Stmt::Block { stmts, .. } => stmts.iter().any(|s| walk_stmt(s, f)),
        Stmt::If {
            cond,
            then_s,
            else_s,
            ..
        } => walk_expr(cond, f) || walk_stmt(then_s, f) || else_s.iter().any(|e| walk_stmt(e, f)),
        Stmt::Case {
            subject,
            arms,
            default,
            ..
        } => {
            walk_expr(subject, f)
                || arms.iter().any(|arm| {
                    f(NodeRef::CaseArm(arm)).stop()
                        || arm.labels.iter().any(|l| walk_expr(l, f))
                        || walk_stmt(&arm.body, f)
                })
                || default.iter().any(|d| walk_stmt(d, f))
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => walk_stmt(init, f) || walk_expr(cond, f) || walk_stmt(step, f) || walk_stmt(body, f),
        Stmt::While { cond, body, .. } => walk_expr(cond, f) || walk_stmt(body, f),
        Stmt::Repeat { count, body, .. } => walk_expr(count, f) || walk_stmt(body, f),
        Stmt::Forever { body, .. } => walk_stmt(body, f),
        Stmt::Blocking {
            lhs, delay, rhs, ..
        }
        | Stmt::NonBlocking {
            lhs, delay, rhs, ..
        } => walk_lvalue(lhs, f) || delay.iter().any(|d| walk_expr(d, f)) || walk_expr(rhs, f),
        Stmt::Delay { amount, body, .. } => {
            walk_expr(amount, f) || body.iter().any(|b| walk_stmt(b, f))
        }
        Stmt::EventControl {
            sensitivity, body, ..
        } => {
            let events: &[EventExpr] = match sensitivity {
                Sensitivity::List(events) => events,
                Sensitivity::Star => &[],
            };
            events.iter().any(|ev| walk_expr(&ev.expr, f)) || body.iter().any(|b| walk_stmt(b, f))
        }
        Stmt::Wait { cond, body, .. } => walk_expr(cond, f) || body.iter().any(|b| walk_stmt(b, f)),
        Stmt::SysCall { args, .. } => args.iter().any(|a| walk_expr(a, f)),
        Stmt::EventTrigger { .. } | Stmt::Null { .. } => false,
    }
}

/// Walks an expression subtree in pre-order.
pub fn walk_expr<'a, R: Flow>(expr: &'a Expr, f: &mut impl FnMut(NodeRef<'a>) -> R) -> bool {
    if f(NodeRef::Expr(expr)).stop() {
        return true;
    }
    match expr {
        Expr::Literal { .. } | Expr::Ident { .. } | Expr::Str { .. } => false,
        Expr::Unary { arg, .. } => walk_expr(arg, f),
        Expr::Binary { lhs, rhs, .. } => walk_expr(lhs, f) || walk_expr(rhs, f),
        Expr::Cond {
            cond,
            then_e,
            else_e,
            ..
        } => walk_expr(cond, f) || walk_expr(then_e, f) || walk_expr(else_e, f),
        Expr::Index { index, .. } => walk_expr(index, f),
        Expr::Range { msb, lsb, .. } => walk_expr(msb, f) || walk_expr(lsb, f),
        Expr::Concat { parts, .. } => parts.iter().any(|p| walk_expr(p, f)),
        Expr::Repeat { count, parts, .. } => {
            walk_expr(count, f) || parts.iter().any(|p| walk_expr(p, f))
        }
        Expr::SysCall { args, .. } => args.iter().any(|a| walk_expr(a, f)),
    }
}

/// Walks an lvalue subtree in pre-order.
pub fn walk_lvalue<'a, R: Flow>(lv: &'a LValue, f: &mut impl FnMut(NodeRef<'a>) -> R) -> bool {
    if f(NodeRef::LValue(lv)).stop() {
        return true;
    }
    match lv {
        LValue::Ident { .. } => false,
        LValue::Index { index, .. } => walk_expr(index, f),
        LValue::Range { msb, lsb, .. } => walk_expr(msb, f) || walk_expr(lsb, f),
        LValue::Concat { parts, .. } => parts.iter().any(|p| walk_lvalue(p, f)),
    }
}

// ---------------------------------------------------------------------------
// The mutable walk (pre-order). A callback may rewrite the node it is
// given; the walk then descends into what the node holds afterwards.
// ---------------------------------------------------------------------------

/// Walks every statement, expression, lvalue, case arm and sensitivity
/// event of a module's items in pre-order.
pub fn walk_module_mut<R: Flow>(module: &mut Module, f: &mut impl FnMut(NodeMut<'_>) -> R) -> bool {
    module.items.iter_mut().any(|item| match item {
        Item::Decl(d) => {
            d.range
                .iter_mut()
                .any(|(msb, lsb)| walk_expr_mut(msb, f) || walk_expr_mut(lsb, f))
                || d.vars.iter_mut().any(|v| {
                    v.array
                        .iter_mut()
                        .any(|(hi, lo)| walk_expr_mut(hi, f) || walk_expr_mut(lo, f))
                        || v.init.iter_mut().any(|init| walk_expr_mut(init, f))
                })
        }
        Item::Param(p) => walk_expr_mut(&mut p.value, f),
        Item::Assign { lhs, rhs, .. } => walk_lvalue_mut(lhs, f) || walk_expr_mut(rhs, f),
        Item::Always { body, .. } | Item::Initial { body, .. } => walk_stmt_mut(body, f),
        Item::Instance(inst) => inst
            .params
            .iter_mut()
            .chain(&mut inst.ports)
            .any(|c| c.expr.iter_mut().any(|e| walk_expr_mut(e, f))),
    })
}

/// Walks a statement subtree in pre-order, sensitivity events included.
pub fn walk_stmt_mut<R: Flow>(stmt: &mut Stmt, f: &mut impl FnMut(NodeMut<'_>) -> R) -> bool {
    if f(NodeMut::Stmt(stmt)).stop() {
        return true;
    }
    match stmt {
        Stmt::Block { stmts, .. } => stmts.iter_mut().any(|s| walk_stmt_mut(s, f)),
        Stmt::If {
            cond,
            then_s,
            else_s,
            ..
        } => {
            walk_expr_mut(cond, f)
                || walk_stmt_mut(then_s, f)
                || else_s.iter_mut().any(|e| walk_stmt_mut(e, f))
        }
        Stmt::Case {
            subject,
            arms,
            default,
            ..
        } => {
            walk_expr_mut(subject, f)
                || arms.iter_mut().any(|arm| {
                    f(NodeMut::CaseArm(arm)).stop()
                        || arm.labels.iter_mut().any(|l| walk_expr_mut(l, f))
                        || walk_stmt_mut(&mut arm.body, f)
                })
                || default.iter_mut().any(|d| walk_stmt_mut(d, f))
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            walk_stmt_mut(init, f)
                || walk_expr_mut(cond, f)
                || walk_stmt_mut(step, f)
                || walk_stmt_mut(body, f)
        }
        Stmt::While { cond, body, .. } => walk_expr_mut(cond, f) || walk_stmt_mut(body, f),
        Stmt::Repeat { count, body, .. } => walk_expr_mut(count, f) || walk_stmt_mut(body, f),
        Stmt::Forever { body, .. } => walk_stmt_mut(body, f),
        Stmt::Blocking {
            lhs, delay, rhs, ..
        }
        | Stmt::NonBlocking {
            lhs, delay, rhs, ..
        } => {
            walk_lvalue_mut(lhs, f)
                || delay.iter_mut().any(|d| walk_expr_mut(d, f))
                || walk_expr_mut(rhs, f)
        }
        Stmt::Delay { amount, body, .. } => {
            walk_expr_mut(amount, f) || body.iter_mut().any(|b| walk_stmt_mut(b, f))
        }
        Stmt::EventControl {
            sensitivity, body, ..
        } => {
            let events: &mut [EventExpr] = match sensitivity {
                Sensitivity::List(events) => events,
                Sensitivity::Star => &mut [],
            };
            events
                .iter_mut()
                .any(|ev| f(NodeMut::Event(ev)).stop() || walk_expr_mut(&mut ev.expr, f))
                || body.iter_mut().any(|b| walk_stmt_mut(b, f))
        }
        Stmt::Wait { cond, body, .. } => {
            walk_expr_mut(cond, f) || body.iter_mut().any(|b| walk_stmt_mut(b, f))
        }
        Stmt::SysCall { args, .. } => args.iter_mut().any(|a| walk_expr_mut(a, f)),
        Stmt::EventTrigger { .. } | Stmt::Null { .. } => false,
    }
}

/// Walks an expression subtree in pre-order.
pub fn walk_expr_mut<R: Flow>(expr: &mut Expr, f: &mut impl FnMut(NodeMut<'_>) -> R) -> bool {
    if f(NodeMut::Expr(expr)).stop() {
        return true;
    }
    match expr {
        Expr::Literal { .. } | Expr::Ident { .. } | Expr::Str { .. } => false,
        Expr::Unary { arg, .. } => walk_expr_mut(arg, f),
        Expr::Binary { lhs, rhs, .. } => walk_expr_mut(lhs, f) || walk_expr_mut(rhs, f),
        Expr::Cond {
            cond,
            then_e,
            else_e,
            ..
        } => walk_expr_mut(cond, f) || walk_expr_mut(then_e, f) || walk_expr_mut(else_e, f),
        Expr::Index { index, .. } => walk_expr_mut(index, f),
        Expr::Range { msb, lsb, .. } => walk_expr_mut(msb, f) || walk_expr_mut(lsb, f),
        Expr::Concat { parts, .. } => parts.iter_mut().any(|p| walk_expr_mut(p, f)),
        Expr::Repeat { count, parts, .. } => {
            walk_expr_mut(count, f) || parts.iter_mut().any(|p| walk_expr_mut(p, f))
        }
        Expr::SysCall { args, .. } => args.iter_mut().any(|a| walk_expr_mut(a, f)),
    }
}

/// Walks an lvalue subtree in pre-order.
pub fn walk_lvalue_mut<R: Flow>(lv: &mut LValue, f: &mut impl FnMut(NodeMut<'_>) -> R) -> bool {
    if f(NodeMut::LValue(lv)).stop() {
        return true;
    }
    match lv {
        LValue::Ident { .. } => false,
        LValue::Index { index, .. } => walk_expr_mut(index, f),
        LValue::Range { msb, lsb, .. } => walk_expr_mut(msb, f) || walk_expr_mut(lsb, f),
        LValue::Concat { parts, .. } => parts.iter_mut().any(|p| walk_lvalue_mut(p, f)),
    }
}

// ---------------------------------------------------------------------------
// Id queries and lookup.
// ---------------------------------------------------------------------------

/// All node ids in a statement subtree.
pub fn ids_in_stmt(stmt: &Stmt) -> Vec<NodeId> {
    let mut ids = Vec::new();
    walk_stmt(stmt, &mut |n| ids.push(n.id()));
    ids
}

/// All node ids in an expression subtree.
pub fn ids_in_expr(expr: &Expr) -> Vec<NodeId> {
    let mut ids = Vec::new();
    walk_expr(expr, &mut |n| ids.push(n.id()));
    ids
}

/// The maximum node id used anywhere in the file (0 if empty).
pub fn max_id(file: &SourceFile) -> NodeId {
    let mut max = 0;
    walk_source(file, &mut |n| max = max.max(n.id()));
    max
}

/// All identifier names read in an expression subtree (including
/// index/range bases), with duplicates.
pub fn idents_in_expr(expr: &Expr) -> Vec<String> {
    expr.identifiers().iter().map(|s| s.to_string()).collect()
}

/// The first statement with id `target` in the module, in pre-order.
pub fn find_stmt(module: &Module, target: NodeId) -> Option<&Stmt> {
    let mut found = None;
    walk_module(module, &mut |n| match n {
        NodeRef::Stmt(s) if s.id() == target => {
            found = Some(s);
            ControlFlow::Break(())
        }
        _ => ControlFlow::Continue(()),
    });
    found
}

/// The first expression with id `target` in the module, in pre-order.
pub fn find_expr(module: &Module, target: NodeId) -> Option<&Expr> {
    let mut found = None;
    walk_module(module, &mut |n| match n {
        NodeRef::Expr(e) if e.id() == target => {
            found = Some(e);
            ControlFlow::Break(())
        }
        _ => ControlFlow::Continue(()),
    });
    found
}

/// All statements of the module, pre-order.
pub fn stmts_of_module(module: &Module) -> Vec<&Stmt> {
    let mut out = Vec::new();
    walk_module(module, &mut |n| {
        if let NodeRef::Stmt(s) = n {
            out.push(s);
        }
    });
    out
}

/// All expressions of the module, pre-order.
pub fn exprs_of_module(module: &Module) -> Vec<&Expr> {
    let mut out = Vec::new();
    walk_module(module, &mut |n| {
        if let NodeRef::Expr(e) = n {
            out.push(e);
        }
    });
    out
}

// ---------------------------------------------------------------------------
// In-place edits.
// ---------------------------------------------------------------------------

/// Runs `edit` on the first statement with id `target` in pre-order and
/// returns its result, or `None` when the module has no such statement.
/// Replacing a statement is `edit_stmt(m, id, |s| *s = new)`.
pub fn edit_stmt<R>(
    module: &mut Module,
    target: NodeId,
    edit: impl FnOnce(&mut Stmt) -> R,
) -> Option<R> {
    let mut edit = Some(edit);
    let mut out = None;
    walk_module_mut(module, &mut |n| match n {
        NodeMut::Stmt(s) if s.id() == target => {
            out = edit.take().map(|edit| edit(s));
            ControlFlow::Break(())
        }
        _ => ControlFlow::Continue(()),
    });
    out
}

/// Runs `edit` on the first expression with id `target` in pre-order
/// (statements, continuous assigns, parameters, declarations,
/// connections) and returns its result, or `None` when there is none.
pub fn edit_expr<R>(
    module: &mut Module,
    target: NodeId,
    edit: impl FnOnce(&mut Expr) -> R,
) -> Option<R> {
    let mut edit = Some(edit);
    let mut out = None;
    walk_module_mut(module, &mut |n| match n {
        NodeMut::Expr(e) if e.id() == target => {
            out = edit.take().map(|edit| edit(e));
            ControlFlow::Break(())
        }
        _ => ControlFlow::Continue(()),
    });
    out
}

/// Inserts `new` immediately after the statement with id `anchor`, which
/// must be a direct child of a `begin…end` block. Returns `true` on
/// success.
///
/// Statements only occur inside `always`/`initial` processes, so a
/// successful insertion is always into procedural code — the constraint
/// CirFix's fix localization imposes (§3.6). A block that an edit put
/// into a `for` header is not an insertion site.
pub fn insert_stmt_after(module: &mut Module, anchor: NodeId, new: &Stmt) -> bool {
    let mut for_headers = Vec::new();
    walk_module_mut(module, &mut |n| {
        match n {
            NodeMut::Stmt(Stmt::For { init, step, .. }) => {
                for_headers.extend(ids_in_stmt(init));
                for_headers.extend(ids_in_stmt(step));
            }
            NodeMut::Stmt(Stmt::Block { id, stmts, .. }) if !for_headers.contains(id) => {
                if let Some(pos) = stmts.iter().position(|s| s.id() == anchor) {
                    stmts.insert(pos + 1, new.clone());
                    return ControlFlow::Break(());
                }
            }
            _ => {}
        }
        ControlFlow::Continue(())
    })
}

/// Gives every node in a statement subtree a fresh id, in pre-order,
/// sensitivity events included.
pub fn renumber_stmt(stmt: &mut Stmt, ids: &mut NodeIdGen) {
    walk_stmt_mut(stmt, &mut |mut n| *n.id_mut() = ids.fresh());
}

/// Gives every node in an expression subtree a fresh id, in pre-order.
pub fn renumber_expr(expr: &mut Expr, ids: &mut NodeIdGen) {
    walk_expr_mut(expr, &mut |mut n| *n.id_mut() = ids.fresh());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinaryOp;
    use crate::module::{Item, Module};

    fn sample_module() -> (Module, NodeIdGen) {
        let mut g = NodeIdGen::new();
        let body = Stmt::Block {
            id: g.fresh(),
            name: None,
            stmts: vec![
                Stmt::Blocking {
                    id: g.fresh(),
                    lhs: LValue::Ident {
                        id: g.fresh(),
                        name: "a".into(),
                    },
                    delay: None,
                    rhs: {
                        let b = Expr::ident(&mut g, "b");
                        let one = Expr::literal_u64(&mut g, 1, 4);
                        Expr::binary(&mut g, BinaryOp::Add, b, one)
                    },
                },
                Stmt::If {
                    id: g.fresh(),
                    cond: Expr::ident(&mut g, "c"),
                    then_s: Box::new(Stmt::Null { id: g.fresh() }),
                    else_s: None,
                },
            ],
        };
        let m = Module {
            id: g.fresh(),
            name: "m".into(),
            ports: vec![],
            items: vec![Item::Always {
                id: g.fresh(),
                body,
            }],
        };
        (m, g)
    }

    #[test]
    fn walk_visits_every_id_once() {
        let (m, g) = sample_module();
        let mut ids = Vec::new();
        walk_module(&m, &mut |n| ids.push(n.id()));
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids must be unique");
        // Every allocated id below the generator's watermark that belongs
        // to the module must be visited.
        assert_eq!(ids.len() as u32, g.peek() - 1);
    }

    #[test]
    fn find_and_edit_stmt() {
        let (mut m, mut g) = sample_module();
        let all: Vec<NodeId> = stmts_of_module(&m).iter().map(|s| s.id()).collect();
        // Find the If statement.
        let if_id = *all
            .iter()
            .find(|id| matches!(find_stmt(&m, **id), Some(Stmt::If { .. })))
            .expect("module has an if");
        let replacement = Stmt::Null { id: g.fresh() };
        assert!(edit_stmt(&mut m, if_id, |s| *s = replacement.clone()).is_some());
        assert!(find_stmt(&m, if_id).is_none());
        assert!(find_stmt(&m, replacement.id()).is_some());
        // Editing a missing id does not run the edit.
        assert_eq!(edit_stmt(&mut m, 9999, |_| unreachable!()), None::<()>);
    }

    #[test]
    fn edit_expr_in_rhs() {
        let (mut m, mut g) = sample_module();
        // Find the literal 1.
        let lit_id = exprs_of_module(&m)
            .iter()
            .find(|e| matches!(e, Expr::Literal { .. }))
            .map(|e| e.id())
            .expect("has literal");
        let two = Expr::literal_u64(&mut g, 2, 4);
        let new_id = two.id();
        assert!(edit_expr(&mut m, lit_id, |e| *e = two).is_some());
        let found = find_expr(&m, new_id).expect("replaced");
        match found {
            Expr::Literal { value, .. } => assert_eq!(value.to_u64(), Some(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_after_block_child() {
        let (mut m, mut g) = sample_module();
        let first = stmts_of_module(&m)
            .iter()
            .find(|s| s.is_assignment())
            .map(|s| s.id())
            .expect("has assignment");
        let new_stmt = Stmt::Null { id: g.fresh() };
        assert!(insert_stmt_after(&mut m, first, &new_stmt));
        // Anchor must be a direct block child: the module id is not.
        let module_id = m.id;
        assert!(!insert_stmt_after(&mut m, module_id, &new_stmt));
        // The block now has three statements.
        if let Item::Always { body, .. } = &m.items[0] {
            if let Stmt::Block { stmts, .. } = body {
                assert_eq!(stmts.len(), 3);
                assert_eq!(stmts[1].id(), new_stmt.id());
            } else {
                panic!("expected block");
            }
        } else {
            panic!("expected always");
        }
    }

    #[test]
    fn a_block_in_a_for_header_is_no_insertion_site() {
        let mut g = NodeIdGen::new();
        let block_of_null = |g: &mut NodeIdGen| {
            let (block, null) = (g.fresh(), g.fresh());
            let stmt = Stmt::Block {
                id: block,
                name: None,
                stmts: vec![Stmt::Null { id: null }],
            };
            (stmt, null)
        };
        let (init, in_header) = block_of_null(&mut g);
        let (body, in_body) = block_of_null(&mut g);
        let body = Stmt::For {
            id: g.fresh(),
            init: Box::new(init),
            cond: Expr::ident(&mut g, "c"),
            step: Box::new(Stmt::Null { id: g.fresh() }),
            body: Box::new(body),
        };
        let mut m = Module {
            id: g.fresh(),
            name: "m".into(),
            ports: vec![],
            items: vec![Item::Initial {
                id: g.fresh(),
                body,
            }],
        };
        let new_stmt = Stmt::Null { id: g.fresh() };
        assert!(!insert_stmt_after(&mut m, in_header, &new_stmt));
        assert!(insert_stmt_after(&mut m, in_body, &new_stmt));
    }

    #[test]
    fn renumbering_gives_unique_fresh_ids() {
        let (m, g) = sample_module();
        let mut body = match &m.items[0] {
            Item::Always { body, .. } => body.clone(),
            _ => unreachable!(),
        };
        let old_ids = ids_in_stmt(&body);
        let mut gen = NodeIdGen::starting_at(g.peek());
        renumber_stmt(&mut body, &mut gen);
        let new_ids = ids_in_stmt(&body);
        assert_eq!(old_ids.len(), new_ids.len());
        for id in &new_ids {
            assert!(!old_ids.contains(id), "fresh ids must not collide");
        }
    }

    /// A block holding every `Stmt`, `Expr` and `LValue` variant, all
    /// numbered 0.
    fn every_variant_stmt() -> Stmt {
        use crate::expr::UnaryOp;
        use crate::stmt::{CaseKind, EventExpr};
        use cirfix_logic::{EdgeKind, LiteralBase, LogicVec};
        let ident = |name: &str| Expr::Ident {
            id: 0,
            name: name.into(),
        };
        let lit = |v| Expr::Literal {
            id: 0,
            value: LogicVec::from_u64(v, 4),
            base: LiteralBase::Decimal,
            sized: true,
        };
        let var = |name: &str| LValue::Ident {
            id: 0,
            name: name.into(),
        };
        let blocking = |lhs, rhs| Stmt::Blocking {
            id: 0,
            lhs,
            delay: None,
            rhs,
        };
        let binary = |op, l, r| Expr::Binary {
            id: 0,
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        };
        let event = |edge, name| EventExpr {
            id: 0,
            edge,
            expr: ident(name),
        };
        Stmt::Block {
            id: 0,
            name: None,
            stmts: vec![
                Stmt::If {
                    id: 0,
                    cond: Expr::Unary {
                        id: 0,
                        op: UnaryOp::LogicNot,
                        arg: Box::new(ident("a")),
                    },
                    then_s: Box::new(blocking(
                        var("x"),
                        binary(BinaryOp::Add, ident("a"), lit(1)),
                    )),
                    else_s: Some(Box::new(Stmt::Null { id: 0 })),
                },
                Stmt::Case {
                    id: 0,
                    kind: CaseKind::Case,
                    subject: ident("s"),
                    arms: vec![CaseArm {
                        id: 0,
                        labels: vec![lit(1), lit(2)],
                        body: blocking(
                            LValue::Index {
                                id: 0,
                                base: "q".into(),
                                index: ident("i"),
                            },
                            Expr::Cond {
                                id: 0,
                                cond: Box::new(ident("c")),
                                then_e: Box::new(ident("a")),
                                else_e: Box::new(ident("b")),
                            },
                        ),
                    }],
                    default: Some(Box::new(Stmt::Null { id: 0 })),
                },
                Stmt::For {
                    id: 0,
                    init: Box::new(blocking(var("i"), lit(0))),
                    cond: binary(BinaryOp::Lt, ident("i"), lit(4)),
                    step: Box::new(blocking(
                        var("i"),
                        binary(BinaryOp::Add, ident("i"), lit(1)),
                    )),
                    body: Box::new(Stmt::NonBlocking {
                        id: 0,
                        lhs: LValue::Range {
                            id: 0,
                            base: "r".into(),
                            msb: lit(3),
                            lsb: lit(0),
                        },
                        delay: Some(lit(2)),
                        rhs: Expr::Index {
                            id: 0,
                            base: "w".into(),
                            index: Box::new(ident("i")),
                        },
                    }),
                },
                Stmt::While {
                    id: 0,
                    cond: Expr::Range {
                        id: 0,
                        base: "w".into(),
                        msb: Box::new(lit(1)),
                        lsb: Box::new(lit(0)),
                    },
                    body: Box::new(blocking(
                        LValue::Concat {
                            id: 0,
                            parts: vec![var("c1"), var("c2")],
                        },
                        Expr::Concat {
                            id: 0,
                            parts: vec![ident("a"), ident("b")],
                        },
                    )),
                },
                Stmt::Repeat {
                    id: 0,
                    count: lit(2),
                    body: Box::new(blocking(
                        var("y"),
                        Expr::Repeat {
                            id: 0,
                            count: Box::new(lit(2)),
                            parts: vec![ident("a")],
                        },
                    )),
                },
                Stmt::Forever {
                    id: 0,
                    body: Box::new(Stmt::Delay {
                        id: 0,
                        amount: lit(5),
                        body: Some(Box::new(Stmt::Wait {
                            id: 0,
                            cond: ident("c"),
                            body: None,
                        })),
                    }),
                },
                Stmt::EventControl {
                    id: 0,
                    sensitivity: Sensitivity::List(vec![
                        event(EdgeKind::Pos, "clk"),
                        event(EdgeKind::Neg, "rst"),
                    ]),
                    body: Some(Box::new(Stmt::SysCall {
                        id: 0,
                        name: "display".into(),
                        args: vec![
                            Expr::Str {
                                id: 0,
                                value: "t=%d".into(),
                            },
                            Expr::SysCall {
                                id: 0,
                                name: "time".into(),
                                args: vec![],
                            },
                        ],
                    })),
                },
                Stmt::EventTrigger {
                    id: 0,
                    name: "ev".into(),
                },
            ],
        }
    }

    #[test]
    fn renumbering_draws_ids_in_pre_order_including_events() {
        let mut stmt = every_variant_stmt();
        renumber_stmt(&mut stmt, &mut NodeIdGen::starting_at(100));
        // The read-only walk skips sensitivity events; their ids are the
        // gaps (166, 168) in this otherwise unbroken pre-order run.
        let walked: Vec<NodeId> = (100..166).chain([167]).chain(169..174).collect();
        assert_eq!(ids_in_stmt(&stmt), walked);
        let Stmt::Block { stmts, .. } = &stmt else {
            unreachable!()
        };
        let Stmt::EventControl {
            sensitivity: Sensitivity::List(events),
            ..
        } = &stmts[6]
        else {
            unreachable!()
        };
        let event_ids: Vec<NodeId> = events.iter().map(|e| e.id).collect();
        assert_eq!(event_ids, [166, 168]);
    }

    #[test]
    fn max_id_spans_all_modules() {
        let (m, g) = sample_module();
        let file = SourceFile { modules: vec![m] };
        assert_eq!(max_id(&file), g.peek() - 1);
    }
}
