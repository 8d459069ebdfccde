//! Compiled expression bytecode and the process-code cache.
//!
//! The [`Op`]s produced by `compile.rs` still embed [`Expr`] trees; the
//! tree-walking evaluator re-dispatches on every node, every time a
//! process resumes. This module compiles each expression site into a
//! flat postfix [`ExprCode`] once per elaboration: identifier slots are
//! resolved to signal/memory ids, parameters and static part-selects
//! are folded to constants, and execution becomes a tight dispatch loop
//! over [`Inst`]s with a reused value stack.
//!
//! Semantics are bit-identical to [`crate::eval::eval_expr`] by
//! construction: both paths share `apply_unary`/`apply_binary`, postfix
//! order preserves the tree-walker's left-to-right evaluation (there is
//! no short-circuiting in the four-state operators), and every runtime
//! fault keeps its exact message. An expression that uses a construct
//! the compiler does not handle is left uncompiled and falls back to
//! the tree walker at that site — all-or-nothing per expression.
//!
//! # Cache and per-process invalidation
//!
//! CirFix builds a fresh [`crate::Simulator`] for every candidate
//! evaluation, but a mutant differs from its parent in exactly one
//! process; the testbench processes are structurally identical across
//! thousands of evaluations. [`compiled_program`] therefore caches
//! compiled programs in a thread-local table keyed by a 128-bit
//! structural hash of the program *and* the scope bindings it compiles
//! against (node ids are excluded — renumbered clones hash the same).
//! Only the edited process misses and recompiles.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use cirfix_ast::{BinaryOp, Expr, UnaryOp};
use cirfix_logic::{Logic, LogicVec};

use crate::compile::{Op, Program};
use crate::design::{MemId, Scope, ScopeEntry, SignalId};
use crate::eval::{apply_binary, apply_unary, EvalCtx, EvalFault, MAX_SELECT_WIDTH};

// ---------------------------------------------------------------------
// Bytecode
// ---------------------------------------------------------------------

/// One postfix instruction. Values flow through an external stack;
/// `counts` is a small auxiliary stack for replication counts so the
/// bound check can fault *before* the replicated parts are evaluated,
/// exactly like the tree walker.
#[derive(Debug, Clone)]
pub enum Inst {
    /// Push `consts[i]` (literals, folded parameters and part-selects).
    Const(u32),
    /// Push the current value of a signal.
    Sig(SignalId),
    /// Pop one value, apply a unary operator.
    Unary(UnaryOp),
    /// Pop two values, apply a binary operator.
    Binary(BinaryOp),
    /// Pop else/then/cond, push `cond ? then : else`.
    Select,
    /// Pop an index, push one bit of a signal (`x` when out of range).
    IndexSig(SignalId),
    /// Pop an index, push one word of a memory (`x` when out of range).
    IndexMem(MemId),
    /// Pop an index, push one bit of `consts[i]` (a parameter).
    IndexConst(u32),
    /// Push a static part-select of a signal (bounds pre-resolved to
    /// raw bit offsets at compile time).
    SliceSig {
        /// Source signal.
        sig: SignalId,
        /// Raw (lsb-relative) most significant bit.
        msb: u32,
        /// Raw least significant bit.
        lsb: u32,
    },
    /// Pop `n` values, push their MSB-first concatenation.
    ConcatN(u32),
    /// Pop a replication count, validate it, push it on `counts`.
    RepeatCount,
    /// Pop a value and a pending count, push the replication.
    Replicate,
    /// Push `$time`.
    Time,
    /// Push `$random`.
    Random,
    /// Raise a fault diagnosed at compile time (undeclared identifier,
    /// out-of-range part select, …) with its exact runtime message.
    Fault(Box<str>),
}

/// A compiled expression: postfix instructions plus a constant pool.
#[derive(Debug, Clone, Default)]
pub struct ExprCode {
    /// Postfix program.
    pub insts: Vec<Inst>,
    /// Literal and folded-constant pool.
    pub consts: Vec<LogicVec>,
}

/// Compiled expressions for one [`Op`] (slots are `None` where the
/// expression could not be compiled and the engine tree-walks).
#[derive(Debug, Clone, Default)]
pub struct OpCode {
    /// Primary expression: rhs, condition, delay amount, case subject
    /// or repeat count, depending on the op.
    pub a: Option<ExprCode>,
    /// Secondary expression (the intra-assignment delay of a
    /// non-blocking assign).
    pub b: Option<ExprCode>,
    /// Case labels, parallel to [`Op::CaseJump`] arms.
    pub labels: Vec<Vec<Option<ExprCode>>>,
}

/// Compiled code for a whole process, parallel to [`Program::ops`].
#[derive(Debug, Clone, Default)]
pub struct ProcCode {
    /// One entry per program op.
    pub ops: Vec<OpCode>,
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

struct ExprCompiler<'a> {
    scope: &'a Scope,
    sig_lsb: &'a [usize],
    insts: Vec<Inst>,
    consts: Vec<LogicVec>,
}

impl ExprCompiler<'_> {
    fn push_const(&mut self, v: LogicVec) -> u32 {
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn fault(&mut self, msg: impl Into<String>) {
        self.insts.push(Inst::Fault(msg.into().into_boxed_str()));
    }

    /// Compiles `expr` in postfix order; `Err(())` means "uncompilable,
    /// fall back to the tree walker" (not a user-visible fault).
    fn compile(&mut self, expr: &Expr) -> Result<(), ()> {
        match expr {
            Expr::Literal { value, .. } => {
                let i = self.push_const(value.clone());
                self.insts.push(Inst::Const(i));
                Ok(())
            }
            Expr::Str { .. } => {
                self.fault("string used as a value");
                Ok(())
            }
            Expr::Ident { name, .. } => {
                match self.scope.lookup(name) {
                    Some(ScopeEntry::Sig(id)) => self.insts.push(Inst::Sig(*id)),
                    Some(ScopeEntry::Param(v)) => {
                        let i = self.push_const(v.clone());
                        self.insts.push(Inst::Const(i));
                    }
                    Some(ScopeEntry::Mem(_)) => {
                        self.fault(format!("cannot read whole memory `{name}`"));
                    }
                    None => self.fault(format!("undeclared identifier `{name}`")),
                }
                Ok(())
            }
            Expr::Unary { op, arg, .. } => {
                self.compile(arg)?;
                self.insts.push(Inst::Unary(*op));
                Ok(())
            }
            Expr::Binary { op, lhs, rhs, .. } => {
                self.compile(lhs)?;
                self.compile(rhs)?;
                self.insts.push(Inst::Binary(*op));
                Ok(())
            }
            Expr::Cond {
                cond,
                then_e,
                else_e,
                ..
            } => {
                self.compile(cond)?;
                self.compile(then_e)?;
                self.compile(else_e)?;
                self.insts.push(Inst::Select);
                Ok(())
            }
            Expr::Index { base, index, .. } => {
                // The tree walker evaluates the index before resolving
                // the base, so index side effects precede base faults.
                self.compile(index)?;
                match self.scope.lookup(base) {
                    Some(ScopeEntry::Sig(id)) => self.insts.push(Inst::IndexSig(*id)),
                    Some(ScopeEntry::Mem(mid)) => self.insts.push(Inst::IndexMem(*mid)),
                    Some(ScopeEntry::Param(v)) => {
                        let i = self.push_const(v.clone());
                        self.insts.push(Inst::IndexConst(i));
                    }
                    None => self.fault(format!("undeclared identifier `{base}`")),
                }
                Ok(())
            }
            Expr::Range { base, msb, lsb, .. } => self.compile_range(base, msb, lsb),
            Expr::Concat { parts, .. } => {
                if parts.is_empty() {
                    self.fault("empty concatenation");
                    return Ok(());
                }
                for p in parts {
                    self.compile(p)?;
                }
                self.insts.push(Inst::ConcatN(parts.len() as u32));
                Ok(())
            }
            Expr::Repeat { count, parts, .. } => {
                self.compile(count)?;
                self.insts.push(Inst::RepeatCount);
                if parts.is_empty() {
                    self.fault("empty replication");
                    return Ok(());
                }
                for p in parts {
                    self.compile(p)?;
                }
                self.insts.push(Inst::ConcatN(parts.len() as u32));
                self.insts.push(Inst::Replicate);
                Ok(())
            }
            Expr::SysCall { name, .. } => {
                match name.as_str() {
                    "time" => self.insts.push(Inst::Time),
                    "random" => self.insts.push(Inst::Random),
                    other => self.fault(format!("unsupported system function ${other}")),
                }
                Ok(())
            }
        }
    }

    /// A part-select compiles only when both bounds fold to constants
    /// at elaboration (the overwhelmingly common case); the raw offsets
    /// and every bound check are then resolved once, here.
    fn compile_range(&mut self, base: &str, msb: &Expr, lsb: &Expr) -> Result<(), ()> {
        let params: HashMap<String, LogicVec> = self
            .scope
            .entries
            .iter()
            .filter_map(|(k, v)| match v {
                ScopeEntry::Param(value) => Some((k.clone(), value.clone())),
                _ => None,
            })
            .collect();
        // Bounds that reference signals are dynamic: tree-walk those.
        let Ok(hi_v) = crate::eval::eval_const(msb, &params) else {
            return Err(());
        };
        let Ok(lo_v) = crate::eval::eval_const(lsb, &params) else {
            return Err(());
        };
        // From here on, every failure is the fault the tree walker
        // raises at runtime — bake it in (constant bounds are
        // side-effect free, so eval order cannot be observed).
        let Some(hi) = hi_v.to_u64() else {
            self.fault("part-select bound is unknown");
            return Ok(());
        };
        let Some(lo) = lo_v.to_u64() else {
            self.fault("part-select bound is unknown");
            return Ok(());
        };
        let Some(width) = crate::width::part_select_width(hi, lo) else {
            self.fault("part-select msb < lsb");
            return Ok(());
        };
        if width > MAX_SELECT_WIDTH {
            self.fault(format!("part-select [{hi}:{lo}] exceeds the width limit"));
            return Ok(());
        }
        match self.scope.lookup(base) {
            Some(ScopeEntry::Sig(id)) => {
                let Some(raw_lo) = lo.checked_sub(self.sig_lsb[*id] as u64) else {
                    self.fault("part-select below the declared range");
                    return Ok(());
                };
                self.insts.push(Inst::SliceSig {
                    sig: *id,
                    msb: (raw_lo + width - 1) as u32,
                    lsb: raw_lo as u32,
                });
            }
            Some(ScopeEntry::Param(v)) => {
                let folded = v.slice(lo as usize + (width - 1) as usize, lo as usize);
                let i = self.push_const(folded);
                self.insts.push(Inst::Const(i));
            }
            Some(ScopeEntry::Mem(_)) => self.fault(format!("part-select of memory `{base}`")),
            None => self.fault(format!("undeclared identifier `{base}`")),
        }
        Ok(())
    }
}

/// Compiles one expression against a scope; `None` means the engine
/// must tree-walk this site.
pub fn compile_expr(expr: &Expr, scope: &Scope, sig_lsb: &[usize]) -> Option<ExprCode> {
    let mut c = ExprCompiler {
        scope,
        sig_lsb,
        insts: Vec::new(),
        consts: Vec::new(),
    };
    c.compile(expr).ok()?;
    Some(ExprCode {
        insts: c.insts,
        consts: c.consts,
    })
}

/// Compiles every expression site of a program.
pub fn compile_program(prog: &Program, scope: &Scope, sig_lsb: &[usize]) -> ProcCode {
    let ce = |e: &Expr| compile_expr(e, scope, sig_lsb);
    let ops = prog
        .ops
        .iter()
        .map(|op| match op {
            Op::Assign { rhs, .. } | Op::EvalPending { rhs } => OpCode {
                a: ce(rhs),
                ..OpCode::default()
            },
            Op::NonBlocking { rhs, delay, .. } => OpCode {
                a: ce(rhs),
                b: delay.as_ref().and_then(&ce),
                ..OpCode::default()
            },
            Op::WaitDelay { amount } => OpCode {
                a: ce(amount),
                ..OpCode::default()
            },
            Op::WaitCond { cond, .. } | Op::JumpIfFalse { cond, .. } => OpCode {
                a: ce(cond),
                ..OpCode::default()
            },
            Op::RepeatInit { count } => OpCode {
                a: ce(count),
                ..OpCode::default()
            },
            Op::CaseJump { subject, arms, .. } => OpCode {
                a: ce(subject),
                labels: arms
                    .iter()
                    .map(|(labels, _)| labels.iter().map(ce).collect())
                    .collect(),
                ..OpCode::default()
            },
            // Targets, sys-task arguments and control-only ops keep the
            // tree walker (their expressions are cold).
            Op::CommitPending { .. }
            | Op::WaitEvent { .. }
            | Op::Trigger { .. }
            | Op::SysTask { .. }
            | Op::Jump { .. }
            | Op::RepeatTest { .. }
            | Op::End => OpCode::default(),
        })
        .collect();
    ProcCode { ops }
}

// ---------------------------------------------------------------------
// Dispatch loop
// ---------------------------------------------------------------------

/// Executes compiled code against the store. `stack` and `counts` are
/// caller-owned scratch (cleared on entry) so the hot path never
/// allocates for stack frames.
///
/// # Errors
///
/// Exactly the [`EvalFault`]s the tree walker raises for the same
/// expression and state.
pub fn exec_code(
    code: &ExprCode,
    ctx: &mut EvalCtx<'_>,
    stack: &mut Vec<LogicVec>,
    counts: &mut Vec<u64>,
) -> Result<LogicVec, EvalFault> {
    stack.clear();
    counts.clear();
    for inst in &code.insts {
        match inst {
            Inst::Const(i) => stack.push(code.consts[*i as usize].clone()),
            Inst::Sig(id) => stack.push(ctx.store.signals[*id].clone()),
            Inst::Unary(op) => {
                let v = stack.pop().expect("unary operand");
                stack.push(apply_unary(*op, v));
            }
            Inst::Binary(op) => {
                let b = stack.pop().expect("binary rhs");
                let a = stack.pop().expect("binary lhs");
                stack.push(apply_binary(*op, &a, &b));
            }
            Inst::Select => {
                let e = stack.pop().expect("else value");
                let t = stack.pop().expect("then value");
                let c = stack.pop().expect("condition");
                stack.push(c.select(&t, &e));
            }
            Inst::IndexSig(id) => {
                let idx = stack.pop().expect("index");
                let sig = &ctx.store.signals[*id];
                let bit = match idx.to_u64() {
                    Some(i) => {
                        let raw = i.wrapping_sub(ctx.sig_lsb[*id] as u64);
                        sig.bit(raw as usize)
                    }
                    None => Logic::X,
                };
                stack.push(LogicVec::scalar(bit));
            }
            Inst::IndexMem(mid) => {
                let idx = stack.pop().expect("index");
                let words = &ctx.store.memories[*mid];
                let width = words.first().map_or(1, LogicVec::width);
                let v = match idx.to_u64() {
                    Some(i) => {
                        let raw = i.wrapping_sub(ctx.mem_offset[*mid]) as usize;
                        words
                            .get(raw)
                            .cloned()
                            .unwrap_or_else(|| LogicVec::unknown(width))
                    }
                    None => LogicVec::unknown(width),
                };
                stack.push(v);
            }
            Inst::IndexConst(i) => {
                let idx = stack.pop().expect("index");
                let v = &code.consts[*i as usize];
                let bit = match idx.to_u64() {
                    Some(n) => v.bit(n as usize),
                    None => Logic::X,
                };
                stack.push(LogicVec::scalar(bit));
            }
            Inst::SliceSig { sig, msb, lsb } => {
                stack.push(ctx.store.signals[*sig].slice(*msb as usize, *lsb as usize));
            }
            Inst::ConcatN(n) => {
                let n = *n as usize;
                let at = stack.len() - n;
                let v = LogicVec::concat(&stack[at..]);
                stack.truncate(at);
                stack.push(v);
            }
            Inst::RepeatCount => {
                let c = stack.pop().expect("replication count");
                let n = c
                    .to_u64()
                    .ok_or_else(|| EvalFault::new("replication count is unknown"))?;
                if n == 0 || n > 4096 {
                    return Err(EvalFault::new(format!("bad replication count {n}")));
                }
                counts.push(n);
            }
            Inst::Replicate => {
                let v = stack.pop().expect("replicated value");
                let n = counts.pop().expect("pending count");
                stack.push(v.replicate(n as usize));
            }
            Inst::Time => stack.push(LogicVec::from_u64(
                ctx.time,
                crate::width::SYSCALL_TIME_WIDTH,
            )),
            Inst::Random => stack.push(LogicVec::from_u64(
                u64::from(ctx.rng.next_u32()),
                crate::width::SYSCALL_RANDOM_WIDTH,
            )),
            Inst::Fault(msg) => return Err(EvalFault::new(msg.to_string())),
        }
    }
    Ok(stack.pop().expect("result value"))
}

// ---------------------------------------------------------------------
// Structural hashing and the per-process compile cache
// ---------------------------------------------------------------------

/// FNV-1a over 128 bits — the same construction the store digests use,
/// wide enough that cross-process collisions are not a practical
/// concern.
struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013B;

    fn new() -> Fnv128 {
        Fnv128(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u128::from(b)).wrapping_mul(Self::PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for b in bs {
            self.byte(*b);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Hashes everything [`compile_expr`] depends on: the expression
/// structure (node ids excluded — apply-patch renumbering must not
/// defeat the cache) and the resolution of every name it mentions,
/// including parameter *values* and the declared LSB of sliced signals.
fn hash_expr(h: &mut Fnv128, e: &Expr, scope: &Scope, sig_lsb: &[usize]) {
    let name_res = |h: &mut Fnv128, name: &str| match scope.lookup(name) {
        Some(ScopeEntry::Sig(id)) => {
            h.byte(1);
            h.u64(*id as u64);
            h.u64(sig_lsb[*id] as u64);
        }
        Some(ScopeEntry::Mem(mid)) => {
            h.byte(2);
            h.u64(*mid as u64);
            // Fault messages embed the source name.
            h.str(name);
        }
        Some(ScopeEntry::Param(v)) => {
            h.byte(3);
            hash_value(h, v);
        }
        None => {
            h.byte(4);
            h.str(name);
        }
    };
    match e {
        Expr::Literal { value, .. } => {
            h.byte(10);
            hash_value(h, value);
        }
        Expr::Str { .. } => h.byte(11),
        Expr::Ident { name, .. } => {
            h.byte(12);
            name_res(h, name);
        }
        Expr::Unary { op, arg, .. } => {
            h.byte(13);
            h.byte(*op as u8);
            hash_expr(h, arg, scope, sig_lsb);
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            h.byte(14);
            h.byte(*op as u8);
            hash_expr(h, lhs, scope, sig_lsb);
            hash_expr(h, rhs, scope, sig_lsb);
        }
        Expr::Cond {
            cond,
            then_e,
            else_e,
            ..
        } => {
            h.byte(15);
            hash_expr(h, cond, scope, sig_lsb);
            hash_expr(h, then_e, scope, sig_lsb);
            hash_expr(h, else_e, scope, sig_lsb);
        }
        Expr::Index { base, index, .. } => {
            h.byte(16);
            name_res(h, base);
            hash_expr(h, index, scope, sig_lsb);
        }
        Expr::Range { base, msb, lsb, .. } => {
            h.byte(17);
            name_res(h, base);
            hash_expr(h, msb, scope, sig_lsb);
            hash_expr(h, lsb, scope, sig_lsb);
        }
        Expr::Concat { parts, .. } => {
            h.byte(18);
            h.u64(parts.len() as u64);
            for p in parts {
                hash_expr(h, p, scope, sig_lsb);
            }
        }
        Expr::Repeat { count, parts, .. } => {
            h.byte(19);
            hash_expr(h, count, scope, sig_lsb);
            h.u64(parts.len() as u64);
            for p in parts {
                hash_expr(h, p, scope, sig_lsb);
            }
        }
        Expr::SysCall { name, .. } => {
            h.byte(20);
            h.str(name);
        }
    }
}

fn hash_value(h: &mut Fnv128, v: &LogicVec) {
    h.u64(v.width() as u64);
    for b in v.bits_lsb() {
        h.byte(b as u8);
    }
}

/// Hashes the parts of a program that determine its [`ProcCode`]: op
/// kinds, arities and expressions. Targets and wait lists are *not*
/// compiled, so two programs differing only there may legitimately
/// share compiled code.
fn hash_program(prog: &Program, scope: &Scope, sig_lsb: &[usize]) -> u128 {
    let mut h = Fnv128::new();
    h.u64(prog.ops.len() as u64);
    for op in &prog.ops {
        match op {
            Op::Assign { rhs, .. } => {
                h.byte(30);
                hash_expr(&mut h, rhs, scope, sig_lsb);
            }
            Op::EvalPending { rhs } => {
                h.byte(31);
                hash_expr(&mut h, rhs, scope, sig_lsb);
            }
            Op::NonBlocking { rhs, delay, .. } => {
                h.byte(32);
                hash_expr(&mut h, rhs, scope, sig_lsb);
                match delay {
                    Some(d) => {
                        h.byte(1);
                        hash_expr(&mut h, d, scope, sig_lsb);
                    }
                    None => h.byte(0),
                }
            }
            Op::WaitDelay { amount } => {
                h.byte(33);
                hash_expr(&mut h, amount, scope, sig_lsb);
            }
            Op::WaitCond { cond, .. } => {
                h.byte(34);
                hash_expr(&mut h, cond, scope, sig_lsb);
            }
            Op::JumpIfFalse { cond, .. } => {
                h.byte(35);
                hash_expr(&mut h, cond, scope, sig_lsb);
            }
            Op::RepeatInit { count } => {
                h.byte(36);
                hash_expr(&mut h, count, scope, sig_lsb);
            }
            Op::CaseJump { subject, arms, .. } => {
                h.byte(37);
                hash_expr(&mut h, subject, scope, sig_lsb);
                h.u64(arms.len() as u64);
                for (labels, _) in arms {
                    h.u64(labels.len() as u64);
                    for l in labels {
                        hash_expr(&mut h, l, scope, sig_lsb);
                    }
                }
            }
            Op::CommitPending { .. } => h.byte(38),
            Op::WaitEvent { .. } => h.byte(39),
            Op::Trigger { .. } => h.byte(40),
            Op::SysTask { .. } => h.byte(41),
            Op::Jump { .. } => h.byte(42),
            Op::RepeatTest { .. } => h.byte(43),
            Op::End => h.byte(44),
        }
    }
    h.0
}

thread_local! {
    static PROC_CACHE: RefCell<HashMap<u128, Rc<ProcCode>>> = RefCell::new(HashMap::new());
}

/// Entries kept before the cache is flushed wholesale — a backstop
/// against unbounded growth over very long repair sessions, far above
/// the working set of one search (a handful of processes per variant).
const PROC_CACHE_LIMIT: usize = 16_384;

/// Returns compiled code for a process, reusing the thread-local cache
/// when a structurally identical (program, bindings) pair was compiled
/// before. In a repair loop this means only the mutated process
/// recompiles between candidate evaluations.
pub fn compiled_program(prog: &Program, scope: &Scope, sig_lsb: &[usize]) -> Rc<ProcCode> {
    let key = hash_program(prog, scope, sig_lsb);
    PROC_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.len() >= PROC_CACHE_LIMIT {
            cache.clear();
        }
        Rc::clone(
            cache
                .entry(key)
                .or_insert_with(|| Rc::new(compile_program(prog, scope, sig_lsb))),
        )
    })
}

/// Test hook: entries currently cached on this thread.
#[cfg(test)]
pub fn proc_cache_len() -> usize {
    PROC_CACHE.with(|c| c.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Store;
    use crate::eval::{eval_expr, Lcg};
    use cirfix_ast::NodeIdGen;

    fn scope_with_sig(name: &str, id: SignalId) -> Scope {
        let mut scope = Scope::default();
        scope.entries.insert(name.into(), ScopeEntry::Sig(id));
        scope
    }

    fn run(code: &ExprCode, scope: &Scope, store: &Store) -> Result<LogicVec, EvalFault> {
        let mut rng = Lcg::new(1);
        let mut ctx = EvalCtx {
            scope,
            store,
            sig_lsb: &[0, 0],
            mem_offset: &[0],
            time: 7,
            rng: &mut rng,
        };
        exec_code(code, &mut ctx, &mut Vec::new(), &mut Vec::new())
    }

    #[test]
    fn compiled_matches_tree_walk() {
        let mut g = NodeIdGen::new();
        let scope = scope_with_sig("a", 0);
        let store = Store {
            signals: vec![LogicVec::from_u64(5, 4)],
            memories: vec![],
        };
        let a = Expr::ident(&mut g, "a");
        let one = Expr::literal_u64(&mut g, 3, 4);
        let e = Expr::binary(&mut g, BinaryOp::Add, a, one);
        let code = compile_expr(&e, &scope, &[0]).expect("compiles");
        let via_code = run(&code, &scope, &store).unwrap();
        let mut rng = Lcg::new(1);
        let mut ctx = EvalCtx {
            scope: &scope,
            store: &store,
            sig_lsb: &[0],
            mem_offset: &[],
            time: 7,
            rng: &mut rng,
        };
        assert_eq!(via_code, eval_expr(&e, &mut ctx).unwrap());
    }

    #[test]
    fn undeclared_identifier_faults_with_exact_message() {
        let mut g = NodeIdGen::new();
        let scope = Scope::default();
        let store = Store {
            signals: vec![],
            memories: vec![],
        };
        let e = Expr::ident(&mut g, "ghost");
        let code = compile_expr(&e, &scope, &[]).expect("compiles to a fault");
        let err = run(&code, &scope, &store).unwrap_err();
        assert_eq!(err.0, "undeclared identifier `ghost`");
    }

    #[test]
    fn replication_bounds_fault_before_parts() {
        let mut g = NodeIdGen::new();
        let scope = scope_with_sig("a", 0);
        let store = Store {
            signals: vec![LogicVec::from_u64(1, 1)],
            memories: vec![],
        };
        let count = Expr::literal_u64(&mut g, 5000, 32);
        let part = Expr::ident(&mut g, "a");
        let e = Expr::Repeat {
            id: g.fresh(),
            count: Box::new(count),
            parts: vec![part],
        };
        let code = compile_expr(&e, &scope, &[0]).expect("compiles");
        let err = run(&code, &scope, &store).unwrap_err();
        assert_eq!(err.0, "bad replication count 5000");
    }

    #[test]
    fn node_renumbering_hits_the_cache() {
        let mk = |g: &mut NodeIdGen| {
            let a = Expr::ident(g, "a");
            let one = Expr::literal_u64(g, 1, 4);
            let rhs = Expr::binary(g, BinaryOp::Add, a, one);
            Program {
                ops: vec![
                    Op::Assign {
                        target: crate::design::Target::Sig(0),
                        rhs,
                    },
                    Op::End,
                ],
            }
        };
        let scope = scope_with_sig("a", 0);
        let mut g1 = NodeIdGen::new();
        let p1 = mk(&mut g1);
        // Different node ids, same structure.
        let mut g2 = NodeIdGen::starting_at(1000);
        let p2 = mk(&mut g2);
        let c1 = compiled_program(&p1, &scope, &[0]);
        let c2 = compiled_program(&p2, &scope, &[0]);
        assert!(Rc::ptr_eq(&c1, &c2), "renumbered clone must hit the cache");
        // A structural change misses.
        let mut g3 = NodeIdGen::new();
        let a = Expr::ident(&mut g3, "a");
        let two = Expr::literal_u64(&mut g3, 2, 4);
        let rhs = Expr::binary(&mut g3, BinaryOp::Add, a, two);
        let p3 = Program {
            ops: vec![
                Op::Assign {
                    target: crate::design::Target::Sig(0),
                    rhs,
                },
                Op::End,
            ],
        };
        let c3 = compiled_program(&p3, &scope, &[0]);
        assert!(!Rc::ptr_eq(&c1, &c3), "edited process must recompile");
    }
}
