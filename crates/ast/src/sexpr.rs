//! Exact s-expression text for programs.
//!
//! One compact line per [`Program`], covering exactly the AST the generator
//! can produce. Floating-point payloads are written as `f64::to_bits`, so
//! two programs print the same text only if they are identical down to
//! every float bit (`0.0` and `-0.0`, or NaNs with different payloads, stay
//! distinct — unlike `PartialEq`). The writer is fully deterministic (no
//! maps, no addresses): the trigger catalog saves programs with it, and
//! the reducer keys its per-reduction verdict memo on it.

use crate::{
    AssignOp, BinOp, Block, BlockItem, BoolOp, Expr, ForLoop, FpType, IndexExpr, LValue, LoopBound,
    MathFunc, ParamType, Program, ReductionOp, Stmt, Term, VarRef,
};

/// Serialize a program to one s-expression line.
pub fn write_program(p: &Program) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("(program ");
    write_str(&p.name, &mut out);
    out.push_str(&format!(" {} {} (params", p.seed, p.array_size));
    for param in &p.params {
        out.push(' ');
        match param.ty {
            ParamType::Int => {
                out.push_str("(int ");
                write_str(&param.name, &mut out);
                out.push(')');
            }
            ParamType::Fp(t) => {
                out.push_str(&format!("(fp {} ", fpty(t)));
                write_str(&param.name, &mut out);
                out.push(')');
            }
            ParamType::FpArray(t) => {
                out.push_str(&format!("(arr {} ", fpty(t)));
                write_str(&param.name, &mut out);
                out.push(')');
            }
        }
    }
    out.push_str(") ");
    write_block(&p.body, &mut out);
    out.push(')');
    out
}

fn fpty(t: FpType) -> &'static str {
    match t {
        FpType::F32 => "f32",
        FpType::F64 => "f64",
    }
}

fn write_str(s: &str, out: &mut String) {
    debug_assert!(
        !s.contains(['"', '\\', '\n']),
        "identifiers never contain quotes"
    );
    out.push('"');
    out.push_str(s);
    out.push('"');
}

fn write_block(b: &Block, out: &mut String) {
    out.push_str("(block");
    for item in b.iter() {
        out.push(' ');
        match item {
            BlockItem::Stmt(s) => write_stmt(s, out),
            BlockItem::Critical(c) => {
                out.push_str("(crit ");
                write_block(&c.body, out);
                out.push(')');
            }
        }
    }
    out.push(')');
}

fn write_stmt(s: &Stmt, out: &mut String) {
    match s {
        Stmt::Assign(a) => {
            out.push_str(&format!("(asgn {} ", aop(a.op)));
            match &a.target {
                LValue::Comp => out.push_str("comp"),
                LValue::Var(v) => write_varref(v, out),
            }
            out.push(' ');
            write_expr(&a.value, out);
            out.push(')');
        }
        Stmt::DeclAssign { ty, name, value } => {
            out.push_str(&format!("(decl {} ", fpty(*ty)));
            write_str(name, out);
            out.push(' ');
            write_expr(value, out);
            out.push(')');
        }
        Stmt::If(ifb) => {
            out.push_str("(if (cond ");
            write_varref(&ifb.cond.lhs, out);
            out.push_str(&format!(" {} ", bop(ifb.cond.op)));
            write_expr(&ifb.cond.rhs, out);
            out.push_str(") ");
            write_block(&ifb.body, out);
            out.push(')');
        }
        Stmt::For(fl) => write_for(fl, out),
        Stmt::OmpParallel(par) => {
            out.push_str("(par (clauses (priv");
            for v in &par.clauses.private {
                out.push(' ');
                write_str(v, out);
            }
            out.push_str(") (fpriv");
            for v in &par.clauses.firstprivate {
                out.push(' ');
                write_str(v, out);
            }
            out.push_str(") (red ");
            match par.clauses.reduction {
                None => out.push_str("none"),
                Some(ReductionOp::Add) => out.push_str("add"),
                Some(ReductionOp::Mul) => out.push_str("mul"),
            }
            out.push_str(") (nt ");
            match par.clauses.num_threads {
                None => out.push_str("none"),
                Some(n) => out.push_str(&n.to_string()),
            }
            out.push_str(")) (prelude");
            for s in &par.prelude {
                out.push(' ');
                write_stmt(s, out);
            }
            out.push_str(") ");
            write_for(&par.body_loop, out);
            out.push(')');
        }
    }
}

fn write_for(fl: &ForLoop, out: &mut String) {
    out.push_str(if fl.omp_for { "(ompfor " } else { "(for " });
    write_str(&fl.var, out);
    out.push(' ');
    match &fl.bound {
        LoopBound::Const(n) => out.push_str(&format!("(c {n})")),
        LoopBound::Param(p) => {
            out.push_str("(p ");
            write_str(p, out);
            out.push(')');
        }
    }
    out.push(' ');
    write_block(&fl.body, out);
    out.push(')');
}

fn write_varref(v: &VarRef, out: &mut String) {
    match v {
        VarRef::Scalar(n) => {
            out.push_str("(s ");
            write_str(n, out);
            out.push(')');
        }
        VarRef::Element(n, idx) => {
            out.push_str("(e ");
            write_str(n, out);
            out.push(' ');
            match idx {
                IndexExpr::Const(k) => out.push_str(&format!("(ic {k})")),
                IndexExpr::LoopVarMod(var, m) => {
                    out.push_str("(lm ");
                    write_str(var, out);
                    out.push_str(&format!(" {m})"));
                }
                IndexExpr::ThreadId => out.push_str("tid"),
            }
            out.push(')');
        }
    }
}

fn write_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Term(Term::Var(v)) => write_varref(v, out),
        Expr::Term(Term::FpConst(x, ty)) => {
            out.push_str(&format!("(fc {} {})", x.to_bits(), fpty(*ty)))
        }
        Expr::Term(Term::IntConst(i)) => out.push_str(&format!("(i {i})")),
        Expr::Paren(inner) => {
            out.push_str("(grp ");
            write_expr(inner, out);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs } => {
            out.push_str(&format!("(b {} ", binop(*op)));
            write_expr(lhs, out);
            out.push(' ');
            write_expr(rhs, out);
            out.push(')');
        }
        Expr::MathCall { func, arg } => {
            out.push_str(&format!("(m {} ", mathfunc(*func)));
            write_expr(arg, out);
            out.push(')');
        }
    }
}

fn aop(op: AssignOp) -> &'static str {
    match op {
        AssignOp::Assign => "set",
        AssignOp::AddAssign => "add",
        AssignOp::SubAssign => "sub",
        AssignOp::MulAssign => "mul",
        AssignOp::DivAssign => "div",
    }
}

fn binop(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
    }
}

fn bop(op: BoolOp) -> &'static str {
    match op {
        BoolOp::Lt => "lt",
        BoolOp::Gt => "gt",
        BoolOp::Eq => "eq",
        BoolOp::Ne => "ne",
        BoolOp::Ge => "ge",
        BoolOp::Le => "le",
    }
}

fn mathfunc(f: MathFunc) -> &'static str {
    match f {
        MathFunc::Sin => "sin",
        MathFunc::Cos => "cos",
        MathFunc::Tan => "tan",
        MathFunc::Asin => "asin",
        MathFunc::Acos => "acos",
        MathFunc::Atan => "atan",
        MathFunc::Sinh => "sinh",
        MathFunc::Cosh => "cosh",
        MathFunc::Tanh => "tanh",
        MathFunc::Exp => "exp",
        MathFunc::Log => "log",
        MathFunc::Sqrt => "sqrt",
        MathFunc::Fabs => "fabs",
        MathFunc::Floor => "floor",
        MathFunc::Ceil => "ceil",
    }
}
