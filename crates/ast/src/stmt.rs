//! Statement and procedural-control nodes.

use cirfix_logic::EdgeKind;

use crate::expr::Expr;
use crate::node::NodeId;

/// The target of an assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Whole-signal assignment, `q = …`.
    Ident {
        /// Unique node id.
        id: NodeId,
        /// Signal name.
        name: String,
    },
    /// Bit-select or memory-word assignment, `q[i] = …`.
    Index {
        /// Unique node id.
        id: NodeId,
        /// Signal or memory name.
        base: String,
        /// Index expression.
        index: Expr,
    },
    /// Part-select assignment, `q[7:4] = …`.
    Range {
        /// Unique node id.
        id: NodeId,
        /// Signal name.
        base: String,
        /// Most significant bit (constant expression).
        msb: Expr,
        /// Least significant bit (constant expression).
        lsb: Expr,
    },
    /// Concatenated assignment, `{c, s} = …` (first part gets the MSBs).
    Concat {
        /// Unique node id.
        id: NodeId,
        /// Parts, MSB first.
        parts: Vec<LValue>,
    },
}

impl LValue {
    /// The node id.
    pub fn id(&self) -> NodeId {
        match self {
            LValue::Ident { id, .. }
            | LValue::Index { id, .. }
            | LValue::Range { id, .. }
            | LValue::Concat { id, .. } => *id,
        }
    }

    /// The node id, writable.
    pub fn id_mut(&mut self) -> &mut NodeId {
        match self {
            LValue::Ident { id, .. }
            | LValue::Index { id, .. }
            | LValue::Range { id, .. }
            | LValue::Concat { id, .. } => id,
        }
    }

    /// The names of all signals this lvalue writes.
    pub fn target_names(&self) -> Vec<&str> {
        match self {
            LValue::Ident { name, .. } => vec![name],
            LValue::Index { base, .. } | LValue::Range { base, .. } => vec![base],
            LValue::Concat { parts, .. } => parts.iter().flat_map(|p| p.target_names()).collect(),
        }
    }
}

/// One term of a sensitivity list, e.g. `posedge clk` or `reset`.
#[derive(Debug, Clone, PartialEq)]
pub struct EventExpr {
    /// Unique node id.
    pub id: NodeId,
    /// Which transition to wait for.
    pub edge: EdgeKind,
    /// The watched expression (an identifier in well-formed designs).
    pub expr: Expr,
}

/// The sensitivity of an event control.
#[derive(Debug, Clone, PartialEq)]
pub enum Sensitivity {
    /// `@*` / `@(*)` — sensitive to every signal read in the body.
    Star,
    /// `@(a or posedge b, …)`.
    List(Vec<EventExpr>),
}

/// The flavor of a `case` statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    /// Four-state exact matching.
    Case,
    /// `z`/`?` bits are wildcards.
    Casez,
    /// `x` and `z` bits are wildcards.
    Casex,
}

impl CaseKind {
    /// Source keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            CaseKind::Case => "case",
            CaseKind::Casez => "casez",
            CaseKind::Casex => "casex",
        }
    }
}

/// One labelled arm of a `case` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseArm {
    /// Unique node id.
    pub id: NodeId,
    /// Comma-separated labels.
    pub labels: Vec<Expr>,
    /// Arm body.
    pub body: Stmt,
}

/// A procedural statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `begin … end`, optionally named (`begin : COUNTER`).
    Block {
        /// Unique node id.
        id: NodeId,
        /// Optional block label.
        name: Option<String>,
        /// Statements in order.
        stmts: Vec<Stmt>,
    },
    /// `if (cond) then_s [else else_s]`.
    If {
        /// Unique node id.
        id: NodeId,
        /// Condition.
        cond: Expr,
        /// True branch.
        then_s: Box<Stmt>,
        /// Optional false branch.
        else_s: Option<Box<Stmt>>,
    },
    /// `case`/`casez`/`casex`.
    Case {
        /// Unique node id.
        id: NodeId,
        /// Flavor of matching.
        kind: CaseKind,
        /// Scrutinee.
        subject: Expr,
        /// Labelled arms in order.
        arms: Vec<CaseArm>,
        /// Optional `default:` arm.
        default: Option<Box<Stmt>>,
    },
    /// `for (init; cond; step) body`.
    For {
        /// Unique node id.
        id: NodeId,
        /// Initialization assignment.
        init: Box<Stmt>,
        /// Loop condition.
        cond: Expr,
        /// Step assignment.
        step: Box<Stmt>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `while (cond) body`.
    While {
        /// Unique node id.
        id: NodeId,
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `repeat (count) body`.
    Repeat {
        /// Unique node id.
        id: NodeId,
        /// Iteration count, evaluated once on entry.
        count: Expr,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `forever body`.
    Forever {
        /// Unique node id.
        id: NodeId,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// Blocking assignment `lhs = [#delay] rhs;`.
    Blocking {
        /// Unique node id.
        id: NodeId,
        /// Target.
        lhs: LValue,
        /// Optional intra-assignment delay.
        delay: Option<Expr>,
        /// Source expression.
        rhs: Expr,
    },
    /// Non-blocking assignment `lhs <= [#delay] rhs;`.
    NonBlocking {
        /// Unique node id.
        id: NodeId,
        /// Target.
        lhs: LValue,
        /// Optional intra-assignment delay.
        delay: Option<Expr>,
        /// Source expression.
        rhs: Expr,
    },
    /// Delay control `#amount [stmt]`.
    Delay {
        /// Unique node id.
        id: NodeId,
        /// Delay amount (constant or parameter expression).
        amount: Expr,
        /// Optional controlled statement.
        body: Option<Box<Stmt>>,
    },
    /// Event control `@(…) [stmt]`.
    EventControl {
        /// Unique node id.
        id: NodeId,
        /// What to wait for.
        sensitivity: Sensitivity,
        /// Optional controlled statement.
        body: Option<Box<Stmt>>,
    },
    /// Named-event trigger `-> ev;`.
    EventTrigger {
        /// Unique node id.
        id: NodeId,
        /// Event name.
        name: String,
    },
    /// `wait (cond) [stmt]`.
    Wait {
        /// Unique node id.
        id: NodeId,
        /// Condition to wait for (level-sensitive).
        cond: Expr,
        /// Optional controlled statement.
        body: Option<Box<Stmt>>,
    },
    /// A system task call such as `$display(…)` or `$finish;`.
    SysCall {
        /// Unique node id.
        id: NodeId,
        /// Task name without the `$`.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// The empty statement `;` — also the result of the delete operator.
    Null {
        /// Unique node id.
        id: NodeId,
    },
}

impl Stmt {
    /// The node id.
    pub fn id(&self) -> NodeId {
        match self {
            Stmt::Block { id, .. }
            | Stmt::If { id, .. }
            | Stmt::Case { id, .. }
            | Stmt::For { id, .. }
            | Stmt::While { id, .. }
            | Stmt::Repeat { id, .. }
            | Stmt::Forever { id, .. }
            | Stmt::Blocking { id, .. }
            | Stmt::NonBlocking { id, .. }
            | Stmt::Delay { id, .. }
            | Stmt::EventControl { id, .. }
            | Stmt::EventTrigger { id, .. }
            | Stmt::Wait { id, .. }
            | Stmt::SysCall { id, .. }
            | Stmt::Null { id } => *id,
        }
    }

    /// The node id, writable.
    pub fn id_mut(&mut self) -> &mut NodeId {
        match self {
            Stmt::Block { id, .. }
            | Stmt::If { id, .. }
            | Stmt::Case { id, .. }
            | Stmt::For { id, .. }
            | Stmt::While { id, .. }
            | Stmt::Repeat { id, .. }
            | Stmt::Forever { id, .. }
            | Stmt::Blocking { id, .. }
            | Stmt::NonBlocking { id, .. }
            | Stmt::Delay { id, .. }
            | Stmt::EventControl { id, .. }
            | Stmt::EventTrigger { id, .. }
            | Stmt::Wait { id, .. }
            | Stmt::SysCall { id, .. }
            | Stmt::Null { id } => id,
        }
    }

    /// `true` for assignment statements (blocking or non-blocking).
    pub fn is_assignment(&self) -> bool {
        matches!(self, Stmt::Blocking { .. } | Stmt::NonBlocking { .. })
    }

    /// `true` for statements that branch on a condition (`if`, `case`,
    /// `while`, `for`) — the targets of the paper's Impl-Ctrl rule.
    pub fn is_conditional(&self) -> bool {
        matches!(
            self,
            Stmt::If { .. } | Stmt::Case { .. } | Stmt::While { .. } | Stmt::For { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeIdGen;

    #[test]
    fn lvalue_target_names() {
        let mut g = NodeIdGen::new();
        let lv = LValue::Concat {
            id: g.fresh(),
            parts: vec![
                LValue::Ident {
                    id: g.fresh(),
                    name: "carry".into(),
                },
                LValue::Index {
                    id: g.fresh(),
                    base: "sum".into(),
                    index: Expr::literal_u64(&mut g, 0, 1),
                },
            ],
        };
        assert_eq!(lv.target_names(), vec!["carry", "sum"]);
    }

    #[test]
    fn classification_helpers() {
        let mut g = NodeIdGen::new();
        let assign = Stmt::Blocking {
            id: g.fresh(),
            lhs: LValue::Ident {
                id: g.fresh(),
                name: "a".into(),
            },
            delay: None,
            rhs: Expr::literal_u64(&mut g, 0, 1),
        };
        assert!(assign.is_assignment());
        assert!(!assign.is_conditional());
        let iff = Stmt::If {
            id: g.fresh(),
            cond: Expr::ident(&mut g, "c"),
            then_s: Box::new(Stmt::Null { id: g.fresh() }),
            else_s: None,
        };
        assert!(iff.is_conditional());
        assert!(!iff.is_assignment());
    }

    #[test]
    fn case_kind_keywords() {
        assert_eq!(CaseKind::Case.keyword(), "case");
        assert_eq!(CaseKind::Casez.keyword(), "casez");
        assert_eq!(CaseKind::Casex.keyword(), "casex");
    }
}
