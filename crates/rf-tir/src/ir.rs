//! Core data types of the scalar loop-nest IR.
//!
//! The IR is deliberately small: loop nests over named integer loop variables,
//! loads/stores of named buffers indexed by loop variables, and the scalar
//! expression vocabulary of `rf-expr`. This is the subset of TVM's TensorIR
//! that the paper's Figures 11–13 exercise.

use std::fmt;

use rf_algebra::BinaryOp;
use rf_expr::UnaryFn;

/// A scalar expression in the loop-nest IR.
#[derive(Debug, Clone, PartialEq)]
pub enum TirExpr {
    /// A floating-point literal.
    Const(f64),
    /// A loop variable used as a value (rare; kept for completeness).
    Var(String),
    /// A load of `buffer[indices...]`; indices are loop-variable names.
    /// Scalar (0-dimensional) buffers use an empty index list.
    Load {
        /// Buffer name.
        buffer: String,
        /// Loop variables indexing each dimension.
        indices: Vec<String>,
    },
    /// A unary function application.
    Unary(UnaryFn, Box<TirExpr>),
    /// A commutative binary operator application.
    Binary(BinaryOp, Box<TirExpr>, Box<TirExpr>),
    /// Subtraction.
    Sub(Box<TirExpr>, Box<TirExpr>),
    /// Division.
    Div(Box<TirExpr>, Box<TirExpr>),
}

impl TirExpr {
    /// A load of a scalar (0-dimensional) buffer.
    pub fn load0(buffer: impl Into<String>) -> TirExpr {
        TirExpr::Load {
            buffer: buffer.into(),
            indices: vec![],
        }
    }

    /// A load of a 1-dimensional buffer at index `var`.
    pub fn load1(buffer: impl Into<String>, var: impl Into<String>) -> TirExpr {
        TirExpr::Load {
            buffer: buffer.into(),
            indices: vec![var.into()],
        }
    }

    /// Whether any load of `buffer` in this expression uses `axis` among its
    /// indices.
    pub fn load_uses_axis(&self, buffer: &str, axis: &str) -> bool {
        match self {
            TirExpr::Const(_) | TirExpr::Var(_) => false,
            TirExpr::Load { buffer: b, indices } => {
                b == buffer && indices.iter().any(|i| i == axis)
            }
            TirExpr::Unary(_, a) => a.load_uses_axis(buffer, axis),
            TirExpr::Binary(_, a, b) | TirExpr::Sub(a, b) | TirExpr::Div(a, b) => {
                a.load_uses_axis(buffer, axis) || b.load_uses_axis(buffer, axis)
            }
        }
    }
}

impl fmt::Display for TirExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TirExpr::Const(c) => write!(f, "{c}"),
            TirExpr::Var(v) => write!(f, "{v}"),
            TirExpr::Load { buffer, indices } => {
                if indices.is_empty() {
                    write!(f, "{buffer}[0]")
                } else {
                    write!(f, "{buffer}[{}]", indices.join(", "))
                }
            }
            TirExpr::Unary(func, a) => write!(f, "{}({a})", func.name()),
            TirExpr::Binary(BinaryOp::Add, a, b) => write!(f, "({a} + {b})"),
            TirExpr::Binary(BinaryOp::Mul, a, b) => write!(f, "({a} * {b})"),
            TirExpr::Binary(BinaryOp::Max, a, b) => write!(f, "max({a}, {b})"),
            TirExpr::Binary(BinaryOp::Min, a, b) => write!(f, "min({a}, {b})"),
            TirExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            TirExpr::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

/// A statement of the loop-nest IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `for var in range(start, extent) { body }`; `start` is 0 for ordinary
    /// loops and non-zero for peeled loops produced by the fusion pass.
    For {
        /// Loop variable name.
        var: String,
        /// First iteration value (inclusive).
        start: usize,
        /// End of the iteration range (exclusive).
        extent: usize,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `buffer[indices...] = value`
    Store {
        /// Destination buffer.
        buffer: String,
        /// Loop variables indexing each dimension.
        indices: Vec<String>,
        /// Value to store.
        value: TirExpr,
    },
    /// `buffer[indices...] = op(buffer[indices...], value)` — the reduction
    /// update form (`+=`, `max=`, …).
    Update {
        /// Destination buffer.
        buffer: String,
        /// Loop variables indexing each dimension.
        indices: Vec<String>,
        /// Reduction operator.
        op: BinaryOp,
        /// Value combined into the destination.
        value: TirExpr,
    },
}

impl Stmt {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "    ".repeat(indent);
        match self {
            Stmt::For {
                var,
                start,
                extent,
                body,
            } => {
                if *start == 0 {
                    writeln!(f, "{pad}for {var} in range({extent}):")?;
                } else {
                    writeln!(f, "{pad}for {var} in range({start}, {extent}):")?;
                }
                for stmt in body {
                    stmt.fmt_indented(f, indent + 1)?;
                }
                Ok(())
            }
            Stmt::Store {
                buffer,
                indices,
                value,
            } => {
                writeln!(f, "{pad}{buffer}[{}] = {value}", format_indices(indices))
            }
            Stmt::Update {
                buffer,
                indices,
                op,
                value,
            } => match op {
                BinaryOp::Add => {
                    writeln!(f, "{pad}{buffer}[{}] += {value}", format_indices(indices))
                }
                BinaryOp::Mul => {
                    writeln!(f, "{pad}{buffer}[{}] *= {value}", format_indices(indices))
                }
                _ => writeln!(
                    f,
                    "{pad}{buffer}[{idx}] = {op}({buffer}[{idx}], {value})",
                    idx = format_indices(indices),
                ),
            },
        }
    }
}

fn format_indices(indices: &[String]) -> String {
    if indices.is_empty() {
        "0".to_string()
    } else {
        indices.join(", ")
    }
}

/// The role of a buffer in a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferKind {
    /// Provided by the caller.
    Input,
    /// Produced by the function and returned to the caller.
    Output,
    /// Internal temporary.
    Temp,
}

/// A buffer declaration: name, shape (empty for scalars) and initial value for
/// non-input buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferDecl {
    /// Buffer name.
    pub name: String,
    /// Extent of each dimension; empty for a scalar buffer.
    pub shape: Vec<usize>,
    /// Role of the buffer.
    pub kind: BufferKind,
    /// Initial value of every element (ignored for inputs).
    pub init: f64,
}

impl BufferDecl {
    /// An input buffer.
    pub fn input(name: impl Into<String>, shape: Vec<usize>) -> Self {
        BufferDecl {
            name: name.into(),
            shape,
            kind: BufferKind::Input,
            init: 0.0,
        }
    }

    /// An output buffer initialised to `init`.
    pub fn output(name: impl Into<String>, shape: Vec<usize>, init: f64) -> Self {
        BufferDecl {
            name: name.into(),
            shape,
            kind: BufferKind::Output,
            init,
        }
    }

    /// A temporary buffer initialised to `init`.
    pub fn temp(name: impl Into<String>, shape: Vec<usize>, init: f64) -> Self {
        BufferDecl {
            name: name.into(),
            shape,
            kind: BufferKind::Temp,
            init,
        }
    }

    /// Total number of elements (1 for scalars).
    ///
    /// Always at least 1 — scalars occupy one slot — so an `is_empty`
    /// counterpart would be vacuously false.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.shape.iter().product::<usize>().max(1)
    }

    /// Whether the buffer is 0-dimensional.
    pub fn is_scalar(&self) -> bool {
        self.shape.is_empty()
    }
}

/// A function of the loop-nest IR: buffer declarations plus a statement list.
#[derive(Debug, Clone, PartialEq)]
pub struct TirFunction {
    /// Function name.
    pub name: String,
    /// All buffers used by the body.
    pub buffers: Vec<BufferDecl>,
    /// The statements, executed in order.
    pub body: Vec<Stmt>,
}

impl TirFunction {
    /// Looks up a buffer declaration by name.
    pub fn buffer(&self, name: &str) -> Option<&BufferDecl> {
        self.buffers.iter().find(|b| b.name == name)
    }

    /// Names of the input buffers, in declaration order.
    pub fn input_names(&self) -> Vec<String> {
        self.buffers
            .iter()
            .filter(|b| b.kind == BufferKind::Input)
            .map(|b| b.name.clone())
            .collect()
    }

    /// Names of the output buffers, in declaration order.
    pub fn output_names(&self) -> Vec<String> {
        self.buffers
            .iter()
            .filter(|b| b.kind == BufferKind::Output)
            .map(|b| b.name.clone())
            .collect()
    }

    /// Counts the statements of the body, recursing into loops. Used as a
    /// rough size metric in tests and reports.
    pub fn stmt_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::For { body, .. } => 1 + count(body),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }
}

impl fmt::Display for TirFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "def {}({}):", self.name, self.input_names().join(", "))?;
        for stmt in &self.body {
            stmt.fmt_indented(f, 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expression_display_and_loads() {
        let e = TirExpr::Binary(
            BinaryOp::Mul,
            Box::new(TirExpr::load1("x", "l")),
            Box::new(TirExpr::load0("m")),
        );
        assert_eq!(e.to_string(), "(x[l] * m[0])");
        assert!(e.load_uses_axis("x", "l"));
        assert!(!e.load_uses_axis("m", "l"));
    }

    #[test]
    fn function_display_matches_figure_style() {
        let f = TirFunction {
            name: "softmax_stats".into(),
            buffers: vec![
                BufferDecl::input("x", vec![8]),
                BufferDecl::output("m", vec![], f64::NEG_INFINITY),
            ],
            body: vec![Stmt::For {
                var: "l".into(),
                start: 0,
                extent: 8,
                body: vec![Stmt::Update {
                    buffer: "m".into(),
                    indices: vec![],
                    op: BinaryOp::Max,
                    value: TirExpr::load1("x", "l"),
                }],
            }],
        };
        let text = f.to_string();
        assert!(text.contains("for l in range(8):"));
        assert!(text.contains("m[0] = max(m[0], x[l])"));
        assert_eq!(f.stmt_count(), 2);
        assert_eq!(f.input_names(), vec!["x"]);
        assert_eq!(f.output_names(), vec!["m"]);
        assert!(f.buffer("m").unwrap().is_scalar());
        assert_eq!(f.buffer("x").unwrap().len(), 8);
    }

    #[test]
    fn update_display_for_add_and_mul() {
        let add = Stmt::Update {
            buffer: "s".into(),
            indices: vec![],
            op: BinaryOp::Add,
            value: TirExpr::Const(1.0),
        };
        let f = TirFunction {
            name: "t".into(),
            buffers: vec![],
            body: vec![add],
        };
        assert!(f.to_string().contains("s[0] += 1"));
    }
}
