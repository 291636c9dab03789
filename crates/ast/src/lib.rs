//! # ompfuzz-ast
//!
//! Abstract syntax tree for the restricted C++/OpenMP language that the
//! `ompfuzz` random program generator emits, together with:
//!
//! * the formal **grammar** of the language as a data artifact
//!   ([`grammar`]), mirroring Listing 2 of the paper *"Testing the Unknown: A
//!   Framework for OpenMP Testing via Random Program Generation"* (SC 2024);
//! * a **C++ printer** ([`printer`]) that turns a [`Program`] into a
//!   self-contained, compilable `-fopenmp` translation unit with timing
//!   instrumentation, exactly as the paper's framework writes test files;
//! * a **visitor** ([`visit`]) for structural traversals;
//! * a **mutation/rebuild API** ([`rewrite`]) for clone-and-replace
//!   transformations — the substrate of the `ompfuzz-reduce` delta debugger;
//! * an **exact s-expression writer** ([`sexpr`]) with bit-exact floats —
//!   the catalog's on-disk program form and the reducer's memo key;
//! * **static feature extraction** ([`features`]) used by the simulated
//!   OpenMP backends and by the campaign reports.
//!
//! The language is deliberately a subset of C++: one kernel function
//! `void compute(<params>)` whose body is a block of assignments, `if`
//! blocks, `for` loops, OpenMP parallel regions, worksharing loops, critical
//! sections, and reductions over the single accumulator variable `comp`.
//!
//! ```
//! use ompfuzz_ast::*;
//!
//! // comp += var_1 * 2.0;
//! let stmt = Stmt::Assign(Assignment {
//!     target: LValue::Comp,
//!     op: AssignOp::AddAssign,
//!     value: Expr::binary(
//!         Expr::var("var_1"),
//!         BinOp::Mul,
//!         Expr::fp_const(2.0),
//!     ),
//! });
//! let program = Program::new(
//!     vec![Param::fp(FpType::F64, "var_1")],
//!     Block(vec![BlockItem::Stmt(stmt)]),
//! );
//! let cpp = printer::emit_translation_unit(&program, &printer::PrintOptions::default());
//! assert!(cpp.contains("void compute("));
//! assert!(cpp.contains("comp += var_1 * 2.0"));
//! ```

pub mod expr;
pub mod features;
pub mod grammar;
pub mod omp;
pub mod ops;
pub mod printer;
pub mod program;
pub mod rewrite;
pub mod sexpr;
pub mod stmt;
pub mod types;
pub mod visit;

pub use expr::{BoolExpr, Expr, IndexExpr, Term, VarRef};
pub use features::ProgramFeatures;
pub use omp::{OmpClauses, OmpCritical, OmpParallel};
pub use ops::{AssignOp, BinOp, BoolOp, MathFunc, ReductionOp};
pub use program::{Param, ParamType, Program};
pub use stmt::{Assignment, Block, BlockItem, ForLoop, IfBlock, LValue, LoopBound, Stmt};
pub use types::{FpType, Ident};
