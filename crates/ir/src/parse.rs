//! A recursive-descent parser for the C-like surface syntax produced by
//! [`crate::render`].
//!
//! The parser accepts the full rendered program (operators, graph function,
//! hardware parameter lines) and reconstructs a [`Program`], enabling
//! round-trip property tests and letting examples load textual workloads.
//!
//! Nesting is capped at [`MAX_DEPTH`] levels, so hostile input (say, a
//! serving request of 100 000 `(`) is a parse error rather than a stack
//! overflow.

use crate::error::IrError;
use crate::expr::{BinOp, Expr, Intrinsic, UnOp};
use crate::graph::{Arg, BufferDecl, DataflowGraph, Dim, Invocation};
use crate::hw::HardwareParams;
use crate::op::{Operator, ParamDecl, ParamKind};
use crate::program::Program;
use crate::stmt::{ForLoop, LValue, LoopPragma, Stmt};

/// Parses a full rendered program.
///
/// The *last* `void` function is treated as the dataflow graph (matching the
/// renderer, which emits operators first and the graph last); all earlier
/// functions become operator definitions.
///
/// # Errors
///
/// Returns [`IrError::Parse`] describing the first syntax error.
pub fn parse_program(text: &str) -> Result<Program, IrError> {
    let mut parser = Parser::new(text)?;
    let mut functions = Vec::new();
    while parser.peek_is_keyword("void") {
        functions.push(parser.function()?);
    }
    let hw = parser.hardware_params()?;
    parser.expect_eof()?;
    let Some(graph_fn) = functions.pop() else {
        return Err(IrError::Parse {
            offset: 0,
            message: "expected at least one `void` function".into(),
        });
    };
    let graph = lower_graph(graph_fn)?;
    Ok(Program::new(graph, functions, hw))
}

/// Parses a single operator definition (no graph, no hardware lines).
///
/// # Errors
///
/// Returns [`IrError::Parse`] on malformed input.
pub fn parse_operator(text: &str) -> Result<Operator, IrError> {
    let mut parser = Parser::new(text)?;
    let op = parser.function()?;
    parser.expect_eof()?;
    Ok(op)
}

/// Converts the parsed graph *function* into a [`DataflowGraph`]: local array
/// declarations become buffers and call statements become invocations.
fn lower_graph(f: Operator) -> Result<DataflowGraph, IrError> {
    let mut graph = DataflowGraph::new(f.name.clone());
    for p in &f.params {
        match &p.kind {
            ParamKind::Scalar => graph.params.push(p.name.clone()),
            ParamKind::Array { dims } => graph.buffers.push(BufferDecl {
                name: p.name.clone(),
                dims: dims.clone(),
            }),
        }
    }
    for stmt in f.body {
        match stmt {
            // Buffer declarations were lowered by the parser into
            // `__decl` pseudo-assignments; see `Parser::local_decl`.
            Stmt::Assign {
                dest: LValue::Store { array, indices },
                value: Expr::Var(marker),
            } if marker.as_str() == "__decl" => {
                let dims = indices
                    .iter()
                    .map(|e| match e {
                        Expr::IntConst(n) => Ok(Dim::Const(*n as usize)),
                        Expr::Var(name) => Ok(Dim::Sym(name.clone())),
                        other => Err(IrError::Invalid(format!(
                            "unsupported buffer dimension expression {other:?}"
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                graph.buffers.push(BufferDecl { name: array, dims });
            }
            Stmt::If { .. } | Stmt::For(_) => {
                return Err(IrError::Invalid(
                    "control flow in graph bodies is not supported".into(),
                ))
            }
            Stmt::Assign { dest, value } => {
                // Invocation statements `opname(args);` were lowered by the
                // parser to an assignment of a pseudo-load to the reserved
                // `__invoke` variable; reconstruct the invocation here.
                if let (LValue::Var(marker), Expr::Load { array, indices }) = (&dest, &value) {
                    if marker.as_str() == "__invoke" {
                        let args = indices
                            .iter()
                            .map(|e| match e {
                                Expr::Var(name) => Arg::Buffer(name.clone()),
                                other => Arg::Scalar(other.clone()),
                            })
                            .collect();
                        graph.invocations.push(Invocation {
                            op: array.clone(),
                            args,
                        });
                        continue;
                    }
                }
                return Err(IrError::Invalid(format!(
                    "unsupported statement in graph body: {dest:?} = {value:?}"
                )));
            }
        }
    }
    // Buffer args that name scalar graph params are really scalar args.
    let scalar_params: std::collections::HashSet<_> = graph.params.iter().cloned().collect();
    for inv in &mut graph.invocations {
        for arg in &mut inv.args {
            if let Arg::Buffer(name) = arg {
                if scalar_params.contains(name) {
                    *arg = Arg::Scalar(Expr::Var(name.clone()));
                }
            }
        }
    }
    Ok(graph)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Punct(&'static str),
    Pragma(String),
    HwLine(String, f64),
    Eof,
}

/// Deepest nesting the parser accepts (the same cap `serde_json` puts on
/// JSON arrays and objects). Each parenthesised group, unary operand,
/// intrinsic argument list, index and `for`/`if` body is one level.
pub const MAX_DEPTH: usize = 128;

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    /// Nesting levels currently open (see [`MAX_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn new(text: &str) -> Result<Parser, IrError> {
        Ok(Parser {
            toks: lex(text)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, IrError>,
    ) -> Result<T, IrError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let result = f(self);
        self.depth -= 1;
        result
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos.min(self.toks.len() - 1)].1
    }

    fn offset(&self) -> usize {
        self.toks[self.pos.min(self.toks.len() - 1)].0
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].1.clone();
        if self.pos < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> IrError {
        IrError::Parse {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), IrError> {
        match self.bump() {
            Tok::Punct(q) if q == p => Ok(()),
            other => Err(self.err(format!("expected `{p}`, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, IrError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), IrError> {
        match self.bump() {
            Tok::Ident(s) if s == kw => Ok(()),
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    fn peek_is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn expect_eof(&mut self) -> Result<(), IrError> {
        match self.peek() {
            Tok::Eof => Ok(()),
            other => Err(self.err(format!("expected end of input, found {other:?}"))),
        }
    }

    fn function(&mut self) -> Result<Operator, IrError> {
        self.expect_keyword("void")?;
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                params.push(self.param()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        self.expect_punct("{")?;
        let body = self.block()?;
        Ok(Operator::new(name, params, body))
    }

    fn param(&mut self) -> Result<ParamDecl, IrError> {
        let ty = self.expect_ident()?;
        let name = self.expect_ident()?;
        match ty.as_str() {
            "int" => Ok(ParamDecl::scalar(name)),
            "float" => {
                let mut dims = Vec::new();
                while self.eat_punct("[") {
                    dims.push(self.dim()?);
                    self.expect_punct("]")?;
                }
                if dims.is_empty() {
                    // `float x` scalar parameters degrade to Scalar kind.
                    Ok(ParamDecl::scalar(name))
                } else {
                    Ok(ParamDecl {
                        name: name.into(),
                        kind: ParamKind::Array { dims },
                    })
                }
            }
            other => Err(self.err(format!("unknown parameter type `{other}`"))),
        }
    }

    fn dim(&mut self) -> Result<Dim, IrError> {
        match self.bump() {
            Tok::Int(n) if n >= 0 => Ok(Dim::Const(n as usize)),
            Tok::Ident(s) => Ok(Dim::Sym(s.into())),
            other => Err(self.err(format!("expected dimension, found {other:?}"))),
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, IrError> {
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, IrError> {
        let pragma = if let Tok::Pragma(text) = self.peek() {
            let p = parse_pragma(text);
            self.pos += 1;
            p
        } else {
            LoopPragma::None
        };
        if self.peek_is_keyword("for") {
            return self.for_loop(pragma);
        }
        if pragma != LoopPragma::None {
            return Err(self.err("pragma must be followed by a `for` loop"));
        }
        if self.peek_is_keyword("if") {
            return self.if_stmt();
        }
        if self.peek_is_keyword("float") || self.peek_is_keyword("int") {
            return self.local_decl();
        }
        // assignment or invocation
        let first = self.expect_ident()?;
        if self.eat_punct("(") {
            // invocation: `op(args);` — lowered to a pseudo-assignment so the
            // graph lowering can recover it.
            let mut args = Vec::new();
            if !self.eat_punct(")") {
                loop {
                    args.push(self.expr()?);
                    if self.eat_punct(")") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            self.expect_punct(";")?;
            return Ok(Stmt::Assign {
                dest: LValue::var("__invoke"),
                value: Expr::Load {
                    array: first.into(),
                    indices: args,
                },
            });
        }
        let mut indices = Vec::new();
        while self.eat_punct("[") {
            indices.push(self.expr()?);
            self.expect_punct("]")?;
        }
        self.expect_punct("=")?;
        let value = self.expr()?;
        self.expect_punct(";")?;
        let dest = if indices.is_empty() {
            LValue::var(first)
        } else {
            LValue::store(first, indices)
        };
        Ok(Stmt::Assign { dest, value })
    }

    fn local_decl(&mut self) -> Result<Stmt, IrError> {
        // `float name[dims];` inside the graph body — recorded via the
        // reserved `__decl` marker for graph lowering.
        let _ty = self.expect_ident()?;
        let name = self.expect_ident()?;
        let mut indices = Vec::new();
        while self.eat_punct("[") {
            let d = self.dim()?;
            indices.push(match d {
                Dim::Const(n) => Expr::int(n as i64),
                Dim::Sym(s) => Expr::Var(s),
            });
            self.expect_punct("]")?;
        }
        self.expect_punct(";")?;
        Ok(Stmt::Assign {
            dest: LValue::store(name, indices),
            value: Expr::var("__decl"),
        })
    }

    fn for_loop(&mut self, pragma: LoopPragma) -> Result<Stmt, IrError> {
        self.expect_keyword("for")?;
        self.expect_punct("(")?;
        self.expect_keyword("int")?;
        let var = self.expect_ident()?;
        self.expect_punct("=")?;
        let lo = self.expr()?;
        self.expect_punct(";")?;
        let v2 = self.expect_ident()?;
        if v2 != var {
            return Err(self.err("loop condition must test the induction variable"));
        }
        self.expect_punct("<")?;
        let hi = self.expr()?;
        self.expect_punct(";")?;
        let v3 = self.expect_ident()?;
        if v3 != var {
            return Err(self.err("loop increment must update the induction variable"));
        }
        self.expect_punct("+=")?;
        let step = self.expr()?;
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        let body = self.nested(Parser::block)?;
        Ok(Stmt::For(ForLoop {
            var: var.into(),
            lo,
            hi,
            step,
            pragma,
            body,
        }))
    }

    fn if_stmt(&mut self) -> Result<Stmt, IrError> {
        self.expect_keyword("if")?;
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        let then_body = self.nested(Parser::block)?;
        let else_body = if self.peek_is_keyword("else") {
            self.pos += 1;
            self.expect_punct("{")?;
            self.nested(Parser::block)?
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn expr(&mut self) -> Result<Expr, IrError> {
        self.expr_bp(0)
    }

    // Precedence-climbing expression parser.
    fn expr_bp(&mut self, min_bp: u8) -> Result<Expr, IrError> {
        let mut lhs = self.primary()?;
        loop {
            let (op, bp) = match self.peek() {
                Tok::Punct("||") => (BinOp::Or, 1),
                Tok::Punct("&&") => (BinOp::And, 2),
                Tok::Punct("==") => (BinOp::Eq, 3),
                Tok::Punct("!=") => (BinOp::Ne, 3),
                Tok::Punct("<") => (BinOp::Lt, 4),
                Tok::Punct("<=") => (BinOp::Le, 4),
                Tok::Punct(">") => (BinOp::Gt, 4),
                Tok::Punct(">=") => (BinOp::Ge, 4),
                Tok::Punct("+") => (BinOp::Add, 5),
                Tok::Punct("-") => (BinOp::Sub, 5),
                Tok::Punct("*") => (BinOp::Mul, 6),
                Tok::Punct("/") => (BinOp::Div, 6),
                Tok::Punct("%") => (BinOp::Mod, 6),
                _ => break,
            };
            if bp < min_bp {
                break;
            }
            self.pos += 1;
            let rhs = self.expr_bp(bp + 1)?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> Result<Expr, IrError> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::IntConst(v)),
            Tok::Float(v) => Ok(Expr::FloatConst(v)),
            Tok::Punct("(") => self.nested(|p| {
                let e = p.expr()?;
                p.expect_punct(")")?;
                Ok(e)
            }),
            Tok::Punct("-") => {
                let operand = self.nested(Parser::primary)?;
                Ok(match operand {
                    Expr::IntConst(v) => Expr::IntConst(-v),
                    Expr::FloatConst(v) => Expr::FloatConst(-v),
                    other => Expr::Unary {
                        op: UnOp::Neg,
                        operand: Box::new(other),
                    },
                })
            }
            Tok::Punct("!") => {
                let operand = self.nested(Parser::primary)?;
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    operand: Box::new(operand),
                })
            }
            Tok::Ident(name) => {
                if self.eat_punct("(") {
                    let func = Intrinsic::from_name(&name)
                        .ok_or_else(|| self.err(format!("unknown intrinsic `{name}`")))?;
                    let args = self.nested(|p| {
                        let mut args = Vec::new();
                        if !p.eat_punct(")") {
                            loop {
                                args.push(p.expr()?);
                                if p.eat_punct(")") {
                                    break;
                                }
                                p.expect_punct(",")?;
                            }
                        }
                        Ok(args)
                    })?;
                    if args.len() != func.arity() {
                        return Err(self.err(format!(
                            "intrinsic `{name}` expects {} args, found {}",
                            func.arity(),
                            args.len()
                        )));
                    }
                    return Ok(Expr::Call { func, args });
                }
                let mut indices = Vec::new();
                while self.eat_punct("[") {
                    indices.push(self.nested(Parser::expr)?);
                    self.expect_punct("]")?;
                }
                if indices.is_empty() {
                    Ok(Expr::var(name))
                } else {
                    Ok(Expr::load(name, indices))
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    fn hardware_params(&mut self) -> Result<HardwareParams, IrError> {
        let mut hw = HardwareParams::default();
        let mut saw_any = false;
        while let Tok::HwLine(key, value) = self.peek().clone() {
            self.pos += 1;
            saw_any = true;
            match key.as_str() {
                "Mem-Read-delay" => hw.mem_read_delay = value as u32,
                "Mem-Write-delay" => hw.mem_write_delay = value as u32,
                "Parallel-lanes" => hw.parallel_lanes = (value as u32).max(1),
                "Clock-period-ns" => hw.clock_period_ns = value,
                _ => {
                    return Err(self.err(format!("unknown hardware parameter `{key}`")));
                }
            }
        }
        let _ = saw_any; // absent lines fall back to defaults
        Ok(hw)
    }
}

fn parse_pragma(text: &str) -> LoopPragma {
    if text.contains("unroll(full)") {
        LoopPragma::UnrollFull
    } else if let Some(rest) = text.split("unroll_count(").nth(1) {
        rest.split(')')
            .next()
            .and_then(|n| n.trim().parse().ok())
            .map(LoopPragma::Unroll)
            .unwrap_or(LoopPragma::None)
    } else if text.contains("parallel for") {
        LoopPragma::ParallelFor
    } else {
        LoopPragma::None
    }
}

fn lex(text: &str) -> Result<Vec<(usize, Tok)>, IrError> {
    let bytes = text.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '#' {
            let start = i;
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            toks.push((start, Tok::Pragma(text[start..i].to_string())));
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric()
                    || bytes[i] == b'_'
                    || bytes[i] == b'-')
            {
                i += 1;
            }
            let word = &text[start..i];
            // Hardware-parameter lines look like `Mem-Read-delay = 10`.
            if word.contains('-') {
                let key = word.to_string();
                // expect `= number`
                let mut j = i;
                while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                    j += 1;
                }
                if j < bytes.len() && bytes[j] == b'=' {
                    j += 1;
                    while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                        j += 1;
                    }
                    let num_start = j;
                    while j < bytes.len()
                        && ((bytes[j] as char).is_ascii_digit() || bytes[j] == b'.')
                    {
                        j += 1;
                    }
                    let value: f64 = text[num_start..j].parse().map_err(|_| IrError::Parse {
                        offset: num_start,
                        message: "invalid hardware parameter value".into(),
                    })?;
                    toks.push((start, Tok::HwLine(key, value)));
                    i = j;
                    continue;
                }
                return Err(IrError::Parse {
                    offset: start,
                    message: format!("dashed identifier `{word}` outside hardware block"),
                });
            }
            toks.push((start, Tok::Ident(word.to_string())));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < bytes.len() && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.') {
                if bytes[i] == b'.' {
                    is_float = true;
                }
                i += 1;
            }
            let lit = &text[start..i];
            if is_float {
                let v: f64 = lit.parse().map_err(|_| IrError::Parse {
                    offset: start,
                    message: format!("invalid float literal `{lit}`"),
                })?;
                toks.push((start, Tok::Float(v)));
            } else {
                let v: i64 = lit.parse().map_err(|_| IrError::Parse {
                    offset: start,
                    message: format!("invalid int literal `{lit}`"),
                })?;
                toks.push((start, Tok::Int(v)));
            }
            continue;
        }
        // Punctuation (two-char first).
        let two = if i + 1 < bytes.len() {
            &text[i..i + 2]
        } else {
            ""
        };
        let punct2: Option<&'static str> = match two {
            "<=" => Some("<="),
            ">=" => Some(">="),
            "==" => Some("=="),
            "!=" => Some("!="),
            "&&" => Some("&&"),
            "||" => Some("||"),
            "+=" => Some("+="),
            _ => None,
        };
        if let Some(p) = punct2 {
            toks.push((i, Tok::Punct(p)));
            i += 2;
            continue;
        }
        let punct1: Option<&'static str> = match c {
            '(' => Some("("),
            ')' => Some(")"),
            '{' => Some("{"),
            '}' => Some("}"),
            '[' => Some("["),
            ']' => Some("]"),
            ';' => Some(";"),
            ',' => Some(","),
            '=' => Some("="),
            '+' => Some("+"),
            '-' => Some("-"),
            '*' => Some("*"),
            '/' => Some("/"),
            '%' => Some("%"),
            '<' => Some("<"),
            '>' => Some(">"),
            '!' => Some("!"),
            _ => None,
        };
        match punct1 {
            Some(p) => {
                toks.push((i, Tok::Punct(p)));
                i += 1;
            }
            None => {
                return Err(IrError::Parse {
                    offset: i,
                    message: format!("unexpected character `{c}`"),
                })
            }
        }
    }
    toks.push((text.len(), Tok::Eof));
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OperatorBuilder;

    #[test]
    fn parses_simple_operator() {
        let src = "void f(float a[4], int n) {\n  for (int i = 0; i < n; i += 1) {\n    a[i] = (a[i] * 2);\n  }\n}\n";
        let op = parse_operator(src).expect("parses");
        assert_eq!(op.name.as_str(), "f");
        assert_eq!(op.params.len(), 2);
        assert_eq!(op.loop_depth(), 1);
    }

    #[test]
    fn round_trips_rendered_operator() {
        let op = OperatorBuilder::new("gemm")
            .array_param("a", [8, 8])
            .array_param("b", [8, 8])
            .array_param("c", [8, 8])
            .loop_nest(&[("i", 8), ("j", 8), ("k", 8)], |idx| {
                vec![Stmt::accumulate(
                    "c",
                    vec![idx[0].clone(), idx[1].clone()],
                    Expr::load("a", vec![idx[0].clone(), idx[2].clone()])
                        * Expr::load("b", vec![idx[2].clone(), idx[1].clone()]),
                )]
            })
            .build();
        let text = crate::render::render_operator(&op);
        let parsed = parse_operator(&text).expect("round trip");
        assert_eq!(parsed, op);
    }

    #[test]
    fn round_trips_full_program() {
        let op = OperatorBuilder::new("relu")
            .array_param("x", [16])
            .array_param("y", [16])
            .loop_nest(&[("i", 16)], |idx| {
                vec![Stmt::assign(
                    LValue::store("y", vec![idx[0].clone()]),
                    Expr::call(Intrinsic::Relu, vec![Expr::load("x", vec![idx[0].clone()])]),
                )]
            })
            .build();
        let program = Program::single_op(op);
        let text = program.render();
        let parsed = parse_program(&text).expect("round trip");
        assert_eq!(parsed, program);
    }

    #[test]
    fn parses_pragmas() {
        let src = "void f(float a[4]) {\n#pragma clang loop unroll(full)\n  for (int i = 0; i < 4; i += 1) {\n    a[i] = 0;\n  }\n}\n";
        let op = parse_operator(src).expect("parses");
        match &op.body[0] {
            Stmt::For(l) => assert_eq!(l.pragma, LoopPragma::UnrollFull),
            other => panic!("expected loop, got {other:?}"),
        }
    }

    #[test]
    fn precedence_without_parens() {
        let src = "void f(float a[4]) {\n  a[0] = 1 + 2 * 3;\n}\n";
        let op = parse_operator(src).expect("parses");
        match &op.body[0] {
            Stmt::Assign { value, .. } => assert_eq!(value.const_eval(), Some(7)),
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn reports_offset_on_error() {
        let err = parse_operator("void f( {").unwrap_err();
        match err {
            IrError::Parse { .. } => {}
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_intrinsic() {
        let src = "void f(float a[4]) {\n  a[0] = mystery(1);\n}\n";
        assert!(parse_operator(src).is_err());
    }

    /// Each nesting form parses at exactly [`MAX_DEPTH`] levels and is a
    /// parse error one level deeper.
    #[test]
    fn nesting_is_capped_at_max_depth() {
        for form in ["parens", "negation", "not", "indices", "blocks"] {
            parse_operator(&nested(form, MAX_DEPTH)).unwrap_or_else(|e| panic!("{form}: {e}"));
            match parse_operator(&nested(form, MAX_DEPTH + 1)) {
                Err(IrError::Parse { message, .. }) => {
                    assert!(message.contains("nesting"), "{form}: {message}")
                }
                other => panic!("{form}: expected a depth error, got {other:?}"),
            }
        }
        // Far past the cap it is still an error, not a stack overflow.
        assert!(matches!(
            parse_operator(&nested("parens", 100_000)),
            Err(IrError::Parse { .. })
        ));
    }

    /// An operator whose body nests one `form` `n` levels deep.
    fn nested(form: &str, n: usize) -> String {
        let body = if form == "blocks" {
            format!(
                "{}a[0] = 1;\n{}",
                "if (n > 0) {\n".repeat(n),
                "}\n".repeat(n)
            )
        } else {
            let (open, core, close) = match form {
                "parens" => ("(", "1", ")"),
                "negation" => ("- ", "1", ""),
                "not" => ("!", "n", ""),
                _ => ("a[", "0", "]"),
            };
            format!("a[0] = {}{core}{};", open.repeat(n), close.repeat(n))
        };
        format!("void f(float a[4], int n) {{\n{body}\n}}\n")
    }

    #[test]
    fn parses_if_else() {
        let src = "void f(float a[4], int n) {\n  if (n > 2) {\n    a[0] = 1;\n  } else {\n    a[0] = 2;\n  }\n}\n";
        let op = parse_operator(src).expect("parses");
        match &op.body[0] {
            Stmt::If { else_body, .. } => assert_eq!(else_body.len(), 1),
            other => panic!("expected if, got {other:?}"),
        }
    }
}
