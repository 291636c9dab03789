//! Exact on-disk form for programs and inputs.
//!
//! The catalog must round-trip *programs*, not just their C++ rendering —
//! there is no C++ parser in the workspace, and the evolutionary loop needs
//! the AST back to mutate it. This module is a compact s-expression
//! serializer/parser covering exactly the AST the generator can produce.
//! Floating-point payloads are stored as `f64::to_bits` so a save/load
//! cycle is bit-exact, and the writer is fully deterministic (no maps, no
//! addresses), which is what makes a saved catalog byte-comparable across
//! runs and worker counts. The writers live below this crate
//! ([`ompfuzz_ast::sexpr`], [`ompfuzz_inputs::write_input`]) so the
//! reducer keys its verdict memo on exactly the bytes the catalog stores;
//! this module re-exports them next to the parser.

use ompfuzz_ast::{
    AssignOp, Assignment, BinOp, Block, BlockItem, BoolExpr, BoolOp, Expr, ForLoop, FpType,
    IfBlock, IndexExpr, LValue, LoopBound, MathFunc, OmpClauses, OmpCritical, OmpParallel, Param,
    Program, ReductionOp, Stmt, Term, VarRef,
};
use ompfuzz_inputs::{InputValue, TestInput};
use std::fmt;

pub use ompfuzz_ast::sexpr::write_program;
pub use ompfuzz_inputs::write_input;

/// Parse failure with a short human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError(pub String);

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "catalog store error: {}", self.0)
    }
}

impl std::error::Error for StoreError {}

fn err<T>(msg: impl Into<String>) -> Result<T, StoreError> {
    Err(StoreError(msg.into()))
}

// ---------------------------------------------------------------------------
// Tokenizer + node tree
// ---------------------------------------------------------------------------

/// A parsed s-expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Bare atom (`comp`, `tid`, numbers, keywords).
    Atom(String),
    /// Quoted identifier.
    Str(String),
    /// Parenthesized list.
    List(Vec<Node>),
}

impl Node {
    fn describe(&self) -> String {
        match self {
            Node::Atom(a) => format!("atom `{a}`"),
            Node::Str(s) => format!("string \"{s}\""),
            Node::List(items) => format!("list of {}", items.len()),
        }
    }

    pub fn as_atom(&self) -> Result<&str, StoreError> {
        match self {
            Node::Atom(a) => Ok(a),
            other => err(format!("expected atom, got {}", other.describe())),
        }
    }

    pub fn as_str(&self) -> Result<&str, StoreError> {
        match self {
            Node::Str(s) => Ok(s),
            other => err(format!("expected string, got {}", other.describe())),
        }
    }

    pub fn as_list(&self) -> Result<&[Node], StoreError> {
        match self {
            Node::List(items) => Ok(items),
            other => err(format!("expected list, got {}", other.describe())),
        }
    }

    pub fn parse_atom<T: std::str::FromStr>(&self, what: &str) -> Result<T, StoreError> {
        self.as_atom()?
            .parse()
            .map_err(|_| StoreError(format!("invalid {what}: {}", self.describe())))
    }

    /// Checks the list head is `tag` and returns the tail.
    pub fn tagged(&self, tag: &str) -> Result<&[Node], StoreError> {
        let items = self.as_list()?;
        match items.first() {
            Some(Node::Atom(a)) if a == tag => Ok(&items[1..]),
            _ => err(format!("expected ({tag} ...), got {}", self.describe())),
        }
    }
}

/// Deepest list nesting [`parse_nodes`] accepts. Catalogs and checkpoints
/// nest a program's statements and expressions a few dozen levels at
/// most; the reader recurses once per level, so a damaged or hostile file
/// nested without limit would overflow the stack and abort the process.
pub const MAX_DEPTH: usize = 512;

/// Parse every top-level s-expression in `text`. Lines starting with `;`
/// are comments; lists nested deeper than [`MAX_DEPTH`] are an error.
pub fn parse_nodes(text: &str) -> Result<Vec<Node>, StoreError> {
    let mut tokens = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with(';') {
            continue;
        }
        tokenize_line(line, &mut tokens)?;
    }
    let mut nodes = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        nodes.push(parse_node(&tokens, &mut pos, 0)?);
    }
    Ok(nodes)
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Open,
    Close,
    Atom(String),
    Str(String),
}

fn tokenize_line(line: &str, out: &mut Vec<Token>) -> Result<(), StoreError> {
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '(' => out.push(Token::Open),
            ')' => out.push(Token::Close),
            '"' => {
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(c) => s.push(c),
                        None => return err("unterminated string"),
                    }
                }
                out.push(Token::Str(s));
            }
            c if c.is_whitespace() => {}
            c => {
                let mut a = String::new();
                a.push(c);
                while let Some(&n) = chars.peek() {
                    if n == '(' || n == ')' || n == '"' || n.is_whitespace() {
                        break;
                    }
                    a.push(n);
                    chars.next();
                }
                out.push(Token::Atom(a));
            }
        }
    }
    Ok(())
}

/// `depth` counts the lists enclosing this node.
fn parse_node(tokens: &[Token], pos: &mut usize, depth: usize) -> Result<Node, StoreError> {
    match tokens.get(*pos) {
        None => err("unexpected end of input"),
        Some(Token::Close) => err("unbalanced `)`"),
        Some(Token::Atom(a)) => {
            *pos += 1;
            Ok(Node::Atom(a.clone()))
        }
        Some(Token::Str(s)) => {
            *pos += 1;
            Ok(Node::Str(s.clone()))
        }
        Some(Token::Open) if depth >= MAX_DEPTH => {
            err(format!("lists nested deeper than {MAX_DEPTH} levels"))
        }
        Some(Token::Open) => {
            *pos += 1;
            let mut items = Vec::new();
            loop {
                match tokens.get(*pos) {
                    None => return err("unclosed `(`"),
                    Some(Token::Close) => {
                        *pos += 1;
                        return Ok(Node::List(items));
                    }
                    _ => items.push(parse_node(tokens, pos, depth + 1)?),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Rebuild a program from a node produced by [`parse_nodes`].
pub fn read_program(node: &Node) -> Result<Program, StoreError> {
    let rest = node.tagged("program")?;
    let [name, seed, array_size, params, body] = rest else {
        return err("program needs (program name seed array-size (params ...) (block ...))");
    };
    let mut program = Program::new(read_params(params)?, read_block(body)?);
    program.name = name.as_str()?.to_string();
    program.seed = seed.parse_atom("seed")?;
    program.array_size = array_size.parse_atom("array size")?;
    Ok(program)
}

/// Rebuild an input vector.
pub fn read_input(node: &Node) -> Result<TestInput, StoreError> {
    let rest = node.tagged("input")?;
    let [comp, vals @ ..] = rest else {
        return err("input needs (input comp-bits values...)");
    };
    let comp_init = f64::from_bits(comp.parse_atom("comp bits")?);
    let mut values = Vec::with_capacity(vals.len());
    for v in vals {
        let items = v.as_list()?;
        let [tag, payload] = items else {
            return err("input value needs (kind payload)");
        };
        values.push(match tag.as_atom()? {
            "i" => InputValue::Int(payload.parse_atom("int value")?),
            "f" => InputValue::Fp(f64::from_bits(payload.parse_atom("fp bits")?)),
            "a" => InputValue::ArrayFill(f64::from_bits(payload.parse_atom("fill bits")?)),
            other => return err(format!("unknown input value kind `{other}`")),
        });
    }
    Ok(TestInput { comp_init, values })
}

fn read_params(node: &Node) -> Result<Vec<Param>, StoreError> {
    let mut params = Vec::new();
    for p in node.tagged("params")? {
        let items = p.as_list()?;
        params.push(match items {
            [Node::Atom(k), name] if k == "int" => Param::int(name.as_str()?),
            [Node::Atom(k), ty, name] if k == "fp" => Param::fp(read_fpty(ty)?, name.as_str()?),
            [Node::Atom(k), ty, name] if k == "arr" => {
                Param::fp_array(read_fpty(ty)?, name.as_str()?)
            }
            _ => return err(format!("bad param {}", p.describe())),
        });
    }
    Ok(params)
}

fn read_fpty(node: &Node) -> Result<FpType, StoreError> {
    match node.as_atom()? {
        "f32" => Ok(FpType::F32),
        "f64" => Ok(FpType::F64),
        other => err(format!("unknown fp type `{other}`")),
    }
}

fn read_block(node: &Node) -> Result<Block, StoreError> {
    let mut items = Vec::new();
    for item in node.tagged("block")? {
        if let Ok(rest) = item.tagged("crit") {
            let [body] = rest else {
                return err("crit needs one block");
            };
            items.push(BlockItem::Critical(OmpCritical {
                body: read_block(body)?,
            }));
        } else {
            items.push(BlockItem::Stmt(read_stmt(item)?));
        }
    }
    Ok(Block(items))
}

fn read_stmt(node: &Node) -> Result<Stmt, StoreError> {
    let items = node.as_list()?;
    let tag = items
        .first()
        .ok_or_else(|| StoreError("empty statement".into()))?
        .as_atom()?;
    match tag {
        "asgn" => {
            let [_, op, target, value] = items else {
                return err("asgn needs (asgn op target value)");
            };
            let target = match target {
                Node::Atom(a) if a == "comp" => LValue::Comp,
                other => LValue::Var(read_varref(other)?),
            };
            Ok(Stmt::Assign(Assignment {
                target,
                op: read_aop(op)?,
                value: read_expr(value)?,
            }))
        }
        "decl" => {
            let [_, ty, name, value] = items else {
                return err("decl needs (decl ty name value)");
            };
            Ok(Stmt::DeclAssign {
                ty: read_fpty(ty)?,
                name: name.as_str()?.to_string(),
                value: read_expr(value)?,
            })
        }
        "if" => {
            let [_, cond, body] = items else {
                return err("if needs (if (cond ...) block)");
            };
            let [lhs, op, rhs] = cond.tagged("cond")? else {
                return err("cond needs (cond lhs op rhs)");
            };
            Ok(Stmt::If(IfBlock {
                cond: BoolExpr {
                    lhs: read_varref(lhs)?,
                    op: read_bop(op)?,
                    rhs: read_expr(rhs)?,
                },
                body: read_block(body)?,
            }))
        }
        "for" | "ompfor" => Ok(Stmt::For(read_for(node)?)),
        "par" => {
            let [_, clauses, prelude, body_loop] = items else {
                return err("par needs (par (clauses ...) (prelude ...) (for ...))");
            };
            Ok(Stmt::OmpParallel(OmpParallel {
                clauses: read_clauses(clauses)?,
                prelude: prelude
                    .tagged("prelude")?
                    .iter()
                    .map(read_stmt)
                    .collect::<Result<_, _>>()?,
                body_loop: read_for(body_loop)?,
            }))
        }
        other => err(format!("unknown statement tag `{other}`")),
    }
}

fn read_for(node: &Node) -> Result<ForLoop, StoreError> {
    let items = node.as_list()?;
    let [tag, var, bound, body] = items else {
        return err("for needs (for var bound block)");
    };
    let omp_for = match tag.as_atom()? {
        "for" => false,
        "ompfor" => true,
        other => return err(format!("unknown loop tag `{other}`")),
    };
    let bound_items = bound.as_list()?;
    let bound = match bound_items {
        [Node::Atom(k), n] if k == "c" => LoopBound::Const(n.parse_atom("trip count")?),
        [Node::Atom(k), p] if k == "p" => LoopBound::Param(p.as_str()?.to_string()),
        _ => return err(format!("bad loop bound {}", bound.describe())),
    };
    Ok(ForLoop {
        omp_for,
        var: var.as_str()?.to_string(),
        bound,
        body: read_block(body)?,
    })
}

fn read_clauses(node: &Node) -> Result<OmpClauses, StoreError> {
    let [private, firstprivate, reduction, num_threads] = node.tagged("clauses")? else {
        return err("clauses needs (clauses (priv ...) (fpriv ...) (red ...) (nt ...))");
    };
    let names = |node: &Node, tag: &str| -> Result<Vec<String>, StoreError> {
        node.tagged(tag)?
            .iter()
            .map(|n| n.as_str().map(str::to_string))
            .collect()
    };
    let [red] = reduction.tagged("red")? else {
        return err("red needs one atom");
    };
    let reduction = match red.as_atom()? {
        "none" => None,
        "add" => Some(ReductionOp::Add),
        "mul" => Some(ReductionOp::Mul),
        other => return err(format!("unknown reduction `{other}`")),
    };
    let [nt] = num_threads.tagged("nt")? else {
        return err("nt needs one atom");
    };
    let num_threads = match nt.as_atom()? {
        "none" => None,
        n => Some(
            n.parse()
                .map_err(|_| StoreError(format!("invalid num_threads `{n}`")))?,
        ),
    };
    Ok(OmpClauses {
        private: names(private, "priv")?,
        firstprivate: names(firstprivate, "fpriv")?,
        reduction,
        num_threads,
    })
}

fn read_varref(node: &Node) -> Result<VarRef, StoreError> {
    let items = node.as_list()?;
    match items {
        [Node::Atom(k), name] if k == "s" => Ok(VarRef::Scalar(name.as_str()?.to_string())),
        [Node::Atom(k), name, idx] if k == "e" => Ok(VarRef::Element(
            name.as_str()?.to_string(),
            read_index(idx)?,
        )),
        _ => err(format!("bad varref {}", node.describe())),
    }
}

fn read_index(node: &Node) -> Result<IndexExpr, StoreError> {
    if let Node::Atom(a) = node {
        return match a.as_str() {
            "tid" => Ok(IndexExpr::ThreadId),
            other => err(format!("unknown index atom `{other}`")),
        };
    }
    let items = node.as_list()?;
    match items {
        [Node::Atom(k), n] if k == "ic" => Ok(IndexExpr::Const(n.parse_atom("index")?)),
        [Node::Atom(k), var, m] if k == "lm" => Ok(IndexExpr::LoopVarMod(
            var.as_str()?.to_string(),
            m.parse_atom("modulus")?,
        )),
        _ => err(format!("bad index {}", node.describe())),
    }
}

fn read_expr(node: &Node) -> Result<Expr, StoreError> {
    let items = node.as_list()?;
    let tag = items
        .first()
        .ok_or_else(|| StoreError("empty expression".into()))?
        .as_atom()?;
    match tag {
        "s" | "e" => Ok(Expr::Term(Term::Var(read_varref(node)?))),
        "fc" => {
            let [_, bits, ty] = items else {
                return err("fc needs (fc bits ty)");
            };
            Ok(Expr::Term(Term::FpConst(
                f64::from_bits(bits.parse_atom("fp bits")?),
                read_fpty(ty)?,
            )))
        }
        "i" => {
            let [_, v] = items else {
                return err("i needs (i value)");
            };
            Ok(Expr::Term(Term::IntConst(v.parse_atom("int const")?)))
        }
        "grp" => {
            let [_, inner] = items else {
                return err("grp needs one expr");
            };
            Ok(Expr::Paren(Box::new(read_expr(inner)?)))
        }
        "b" => {
            let [_, op, lhs, rhs] = items else {
                return err("b needs (b op lhs rhs)");
            };
            Ok(Expr::Binary {
                op: read_binop(op)?,
                lhs: Box::new(read_expr(lhs)?),
                rhs: Box::new(read_expr(rhs)?),
            })
        }
        "m" => {
            let [_, func, arg] = items else {
                return err("m needs (m func arg)");
            };
            Ok(Expr::MathCall {
                func: read_mathfunc(func)?,
                arg: Box::new(read_expr(arg)?),
            })
        }
        other => err(format!("unknown expression tag `{other}`")),
    }
}

fn read_aop(node: &Node) -> Result<AssignOp, StoreError> {
    match node.as_atom()? {
        "set" => Ok(AssignOp::Assign),
        "add" => Ok(AssignOp::AddAssign),
        "sub" => Ok(AssignOp::SubAssign),
        "mul" => Ok(AssignOp::MulAssign),
        "div" => Ok(AssignOp::DivAssign),
        other => err(format!("unknown assign op `{other}`")),
    }
}

fn read_binop(node: &Node) -> Result<BinOp, StoreError> {
    match node.as_atom()? {
        "add" => Ok(BinOp::Add),
        "sub" => Ok(BinOp::Sub),
        "mul" => Ok(BinOp::Mul),
        "div" => Ok(BinOp::Div),
        other => err(format!("unknown binary op `{other}`")),
    }
}

fn read_bop(node: &Node) -> Result<BoolOp, StoreError> {
    match node.as_atom()? {
        "lt" => Ok(BoolOp::Lt),
        "gt" => Ok(BoolOp::Gt),
        "eq" => Ok(BoolOp::Eq),
        "ne" => Ok(BoolOp::Ne),
        "ge" => Ok(BoolOp::Ge),
        "le" => Ok(BoolOp::Le),
        other => err(format!("unknown bool op `{other}`")),
    }
}

fn read_mathfunc(node: &Node) -> Result<MathFunc, StoreError> {
    Ok(match node.as_atom()? {
        "sin" => MathFunc::Sin,
        "cos" => MathFunc::Cos,
        "tan" => MathFunc::Tan,
        "asin" => MathFunc::Asin,
        "acos" => MathFunc::Acos,
        "atan" => MathFunc::Atan,
        "sinh" => MathFunc::Sinh,
        "cosh" => MathFunc::Cosh,
        "tanh" => MathFunc::Tanh,
        "exp" => MathFunc::Exp,
        "log" => MathFunc::Log,
        "sqrt" => MathFunc::Sqrt,
        "fabs" => MathFunc::Fabs,
        "floor" => MathFunc::Floor,
        "ceil" => MathFunc::Ceil,
        other => return err(format!("unknown math function `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompfuzz_gen::{GeneratorConfig, ProgramGenerator};
    use ompfuzz_inputs::InputGenerator;

    #[test]
    fn generated_programs_round_trip_exactly() {
        let mut g = ProgramGenerator::new(GeneratorConfig::paper(), 1234);
        let mut ig = InputGenerator::new(77);
        for p in g.generate_batch(60) {
            let text = write_program(&p);
            let nodes = parse_nodes(&text).expect("parses");
            assert_eq!(nodes.len(), 1, "{text}");
            let back = read_program(&nodes[0]).expect("reads");
            assert_eq!(back, p, "{text}");
            let input = ig.generate_for(&p);
            let itext = write_input(&input);
            let inodes = parse_nodes(&itext).unwrap();
            assert_eq!(read_input(&inodes[0]).unwrap(), input, "{itext}");
        }
    }

    #[test]
    fn special_floats_round_trip_bit_exactly() {
        let input = TestInput {
            comp_init: f64::NAN,
            values: vec![
                InputValue::Fp(f64::INFINITY),
                InputValue::Fp(-0.0),
                InputValue::ArrayFill(f64::MIN_POSITIVE / 2.0), // subnormal
                InputValue::Int(-42),
            ],
        };
        let text = write_input(&input);
        let back = read_input(&parse_nodes(&text).unwrap()[0]).unwrap();
        assert_eq!(back.comp_init.to_bits(), input.comp_init.to_bits());
        for (a, b) in input.values.iter().zip(&back.values) {
            match (a, b) {
                (InputValue::Int(x), InputValue::Int(y)) => assert_eq!(x, y),
                (InputValue::Fp(x), InputValue::Fp(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits())
                }
                (InputValue::ArrayFill(x), InputValue::ArrayFill(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits())
                }
                other => panic!("kind changed: {other:?}"),
            }
        }
    }

    #[test]
    fn comments_and_whitespace_are_ignored() {
        let text = "; a comment\n  (input 0 (i 3))  \n; trailing\n";
        let nodes = parse_nodes(text).unwrap();
        assert_eq!(nodes.len(), 1);
        assert_eq!(read_input(&nodes[0]).unwrap().values.len(), 1);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |n: usize| format!("{}x{}", "(".repeat(n), ")".repeat(n));
        assert!(parse_nodes(&nest(MAX_DEPTH)).is_ok());
        let err = parse_nodes(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("nested deeper"), "{err}");
    }

    /// Child half of [`deep_nesting_fails_cleanly_in_a_child_process`]:
    /// a stack overflow here aborts the process, so it only ever runs
    /// re-executed on its own.
    #[test]
    #[ignore = "run in a child process by deep_nesting_fails_cleanly_in_a_child_process"]
    fn deep_nesting_child() {
        let depth = 100_000;
        let text = format!("(program {}x{})", "(".repeat(depth), ")".repeat(depth));
        assert!(parse_nodes(&text).is_err());
    }

    #[test]
    fn deep_nesting_fails_cleanly_in_a_child_process() {
        let name = format!(
            "{}::deep_nesting_child",
            module_path!().split_once("::").unwrap().1
        );
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--ignored", "--exact", &name, "--test-threads", "1"])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "child failed ({}): {stdout}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "(",
            ")",
            "(program)",
            "(input notanumber)",
            "(input 0 (x 1))",
            "\"unterminated",
            "(block (asgn set comp))",
        ] {
            let result = parse_nodes(bad).and_then(|nodes| {
                nodes
                    .iter()
                    .map(|n| read_program(n).map(|_| ()).or(read_input(n).map(|_| ())))
                    .collect::<Result<Vec<_>, _>>()
            });
            assert!(result.is_err(), "`{bad}` should fail");
        }
    }
}
