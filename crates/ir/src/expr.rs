//! Scalar expressions appearing in loop bounds, conditions and assignments.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// An interned-style identifier (variable, array, operator or buffer name).
///
/// Newtype over `String` so names cannot be confused with rendered source
/// text or arbitrary labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ident(String);

impl Ident {
    /// Creates an identifier from anything string-like.
    pub fn new(name: impl Into<String>) -> Self {
        Ident(name.into())
    }

    /// Borrows the raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident::new(s)
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Self {
        Ident::new(s)
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// Binary operators usable inside expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer semantics when both sides are integral)
    Div,
    /// `%`
    Mod,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Returns the C-like surface syntax for this operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// All binary operators, in a stable order (used by generators).
    pub fn all() -> &'static [BinOp] {
        &[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::And,
            BinOp::Or,
        ]
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical negation `!x`.
    Not,
}

/// Built-in math intrinsics (map to dedicated functional units in HLS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Intrinsic {
    /// `exp(x)`
    Exp,
    /// `sqrt(x)`
    Sqrt,
    /// `fabs(x)`
    Abs,
    /// `relu(x) = max(x, 0)`
    Relu,
    /// `sigmoid(x)`
    Sigmoid,
    /// `tanh(x)`
    Tanh,
    /// `log(x)`
    Log,
    /// `max(a, b)`
    Max,
    /// `min(a, b)`
    Min,
}

impl Intrinsic {
    /// Surface name used by the renderer/parser.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Exp => "exp",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Abs => "fabs",
            Intrinsic::Relu => "relu",
            Intrinsic::Sigmoid => "sigmoid",
            Intrinsic::Tanh => "tanh",
            Intrinsic::Log => "log",
            Intrinsic::Max => "max",
            Intrinsic::Min => "min",
        }
    }

    /// Number of arguments the intrinsic takes.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Max | Intrinsic::Min => 2,
            _ => 1,
        }
    }

    /// Looks an intrinsic up by surface name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "exp" => Intrinsic::Exp,
            "sqrt" => Intrinsic::Sqrt,
            "fabs" => Intrinsic::Abs,
            "relu" => Intrinsic::Relu,
            "sigmoid" => Intrinsic::Sigmoid,
            "tanh" => Intrinsic::Tanh,
            "log" => Intrinsic::Log,
            "max" => Intrinsic::Max,
            "min" => Intrinsic::Min,
            _ => return None,
        })
    }

    /// All intrinsics, in a stable order (used by generators).
    pub fn all() -> &'static [Intrinsic] {
        &[
            Intrinsic::Exp,
            Intrinsic::Sqrt,
            Intrinsic::Abs,
            Intrinsic::Relu,
            Intrinsic::Sigmoid,
            Intrinsic::Tanh,
            Intrinsic::Log,
            Intrinsic::Max,
            Intrinsic::Min,
        ]
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal.
    IntConst(i64),
    /// Floating-point literal.
    FloatConst(f64),
    /// Scalar variable or parameter reference.
    Var(Ident),
    /// Array element read `a[i][j]`.
    Load {
        /// Array being read.
        array: Ident,
        /// One index expression per dimension.
        indices: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Intrinsic call.
    Call {
        /// Which intrinsic.
        func: Intrinsic,
        /// Arguments (length must equal [`Intrinsic::arity`]).
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Integer constant helper.
    pub fn int(v: i64) -> Expr {
        Expr::IntConst(v)
    }

    /// Variable reference helper.
    pub fn var(name: impl Into<Ident>) -> Expr {
        Expr::Var(name.into())
    }

    /// Array load helper.
    pub fn load(array: impl Into<Ident>, indices: Vec<Expr>) -> Expr {
        Expr::Load {
            array: array.into(),
            indices,
        }
    }

    /// Binary operation helper.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Intrinsic call helper.
    ///
    /// # Panics
    ///
    /// Panics if the number of arguments does not match the intrinsic arity.
    pub fn call(func: Intrinsic, args: Vec<Expr>) -> Expr {
        assert_eq!(
            args.len(),
            func.arity(),
            "intrinsic {} expects {} args",
            func.name(),
            func.arity()
        );
        Expr::Call { func, args }
    }

    /// `lhs < rhs` helper (the most common loop condition).
    pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Lt, lhs, rhs)
    }

    /// Collects every variable mentioned by the expression into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Ident>) {
        match self {
            Expr::IntConst(_) | Expr::FloatConst(_) => {}
            Expr::Var(name) => out.push(name.clone()),
            Expr::Load { indices, .. } => {
                for idx in indices {
                    idx.collect_vars(out);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
            Expr::Unary { operand, .. } => operand.collect_vars(out),
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// True if the expression reads any array element.
    pub fn reads_memory(&self) -> bool {
        match self {
            Expr::IntConst(_) | Expr::FloatConst(_) | Expr::Var(_) => false,
            Expr::Load { .. } => true,
            Expr::Binary { lhs, rhs, .. } => lhs.reads_memory() || rhs.reads_memory(),
            Expr::Unary { operand, .. } => operand.reads_memory(),
            Expr::Call { args, .. } => args.iter().any(Expr::reads_memory),
        }
    }

    /// Number of nodes in the expression tree (used as a size metric).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::IntConst(_) | Expr::FloatConst(_) | Expr::Var(_) => 1,
            Expr::Load { indices, .. } => 1 + indices.iter().map(Expr::node_count).sum::<usize>(),
            Expr::Binary { lhs, rhs, .. } => 1 + lhs.node_count() + rhs.node_count(),
            Expr::Unary { operand, .. } => 1 + operand.node_count(),
            Expr::Call { args, .. } => 1 + args.iter().map(Expr::node_count).sum::<usize>(),
        }
    }

    /// Evaluates the expression when it only involves integer constants.
    ///
    /// Returns `None` if any variable, load, float or division-by-zero is
    /// encountered. Used by the analyses for static trip-count estimation.
    pub fn const_eval(&self) -> Option<i64> {
        match self {
            Expr::IntConst(v) => Some(*v),
            Expr::FloatConst(_) | Expr::Var(_) | Expr::Load { .. } => None,
            Expr::Binary { op, lhs, rhs } => {
                let l = lhs.const_eval()?;
                let r = rhs.const_eval()?;
                Some(match op {
                    BinOp::Add => l.wrapping_add(r),
                    BinOp::Sub => l.wrapping_sub(r),
                    BinOp::Mul => l.wrapping_mul(r),
                    BinOp::Div => {
                        if r == 0 {
                            return None;
                        }
                        l / r
                    }
                    BinOp::Mod => {
                        if r == 0 {
                            return None;
                        }
                        l % r
                    }
                    BinOp::Lt => (l < r) as i64,
                    BinOp::Le => (l <= r) as i64,
                    BinOp::Gt => (l > r) as i64,
                    BinOp::Ge => (l >= r) as i64,
                    BinOp::Eq => (l == r) as i64,
                    BinOp::Ne => (l != r) as i64,
                    BinOp::And => ((l != 0) && (r != 0)) as i64,
                    BinOp::Or => ((l != 0) || (r != 0)) as i64,
                })
            }
            Expr::Unary { op, operand } => {
                let v = operand.const_eval()?;
                Some(match op {
                    UnOp::Neg => -v,
                    UnOp::Not => (v == 0) as i64,
                })
            }
            Expr::Call { .. } => None,
        }
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Add, self, rhs)
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Sub, self, rhs)
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Mul, self, rhs)
    }
}

impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Div, self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_sugar_builds_binary_nodes() {
        let e = Expr::var("i") + Expr::int(1);
        match e {
            Expr::Binary { op: BinOp::Add, .. } => {}
            other => panic!("expected Add, got {other:?}"),
        }
    }

    #[test]
    fn const_eval_folds_arithmetic() {
        let e = (Expr::int(6) * Expr::int(7)) - Expr::int(2);
        assert_eq!(e.const_eval(), Some(40));
    }

    #[test]
    fn const_eval_rejects_variables_and_div_by_zero() {
        assert_eq!(Expr::var("n").const_eval(), None);
        assert_eq!((Expr::int(1) / Expr::int(0)).const_eval(), None);
    }

    #[test]
    fn collect_vars_walks_nested_structure() {
        let e = Expr::load("a", vec![Expr::var("i"), Expr::var("j") + Expr::int(1)]);
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec![Ident::new("i"), Ident::new("j")]);
    }

    #[test]
    fn reads_memory_detects_loads_under_calls() {
        let e = Expr::call(Intrinsic::Exp, vec![Expr::load("a", vec![Expr::int(0)])]);
        assert!(e.reads_memory());
        assert!(!Expr::var("x").reads_memory());
    }

    #[test]
    fn intrinsic_names_round_trip() {
        for &i in Intrinsic::all() {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn call_checks_arity() {
        let _ = Expr::call(Intrinsic::Max, vec![Expr::int(1)]);
    }

    #[test]
    fn node_count_counts_all_nodes() {
        let e = Expr::var("x") + Expr::int(2) * Expr::var("y");
        assert_eq!(e.node_count(), 5);
    }
}
