//! The formal model of cascaded reductions (§3.1, Eq. 1).
//!
//! A cascade operates on `M` input vectors `X_1..X_M`, each of length `L0`.
//! The `i`-th reduction produces a scalar
//!
//! ```text
//! d_i = R_i_{l=1..L0} F_i(X[l], D_i)            (Eq. 1)
//! ```
//!
//! where `X[l]` is the tuple of the `M` input elements at position `l` and
//! `D_i = {d_1, …, d_{i-1}}` are the results of the preceding reductions.
//! Vector-valued outputs (e.g. the attention output row) are modelled as one
//! scalar reduction per output component sharing the same dependencies; the
//! tile VM's kernels (`rf_tile::exec`) handle the vectorised layouts.

use std::collections::BTreeSet;
use std::fmt;

use rf_algebra::ReduceOp;
use rf_expr::{Env, Expr};

/// One reduction in a cascade: the reduction operator `R_i` and the symbolic
/// map function `F_i(X[l], D_i)`.
///
/// The map function is an [`Expr`] over the cascade's input variables and the
/// *names* of earlier reductions (its dependency variables).
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionSpec {
    /// Name of the reduction result; later reductions refer to it by this name.
    pub name: String,
    /// The reduction operator `R_i`.
    pub reduce: ReduceOp,
    /// The map function `F_i` as a symbolic expression.
    pub map: Expr,
}

impl ReductionSpec {
    /// Creates a new reduction specification.
    pub fn new(name: impl Into<String>, reduce: ReduceOp, map: Expr) -> Self {
        ReductionSpec {
            name: name.into(),
            reduce,
            map,
        }
    }
}

/// A full cascaded-reduction specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeSpec {
    /// Human-readable name of the pattern (e.g. `"safe_softmax"`).
    pub name: String,
    /// Names of the `M` per-position input variables (e.g. `["x"]`, `["p", "v"]`).
    pub inputs: Vec<String>,
    /// The reductions, in dependency order.
    pub reductions: Vec<ReductionSpec>,
}

/// Errors reported by [`CascadeSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CascadeError {
    /// Two reductions (or a reduction and an input) share a name.
    DuplicateName(String),
    /// A map function references a variable that is neither an input nor an
    /// earlier reduction result.
    UnknownVariable {
        /// The reduction whose map function is invalid.
        reduction: String,
        /// The offending variable.
        variable: String,
    },
    /// The cascade has no reductions.
    Empty,
    /// The cascade has no inputs.
    NoInputs,
}

impl fmt::Display for CascadeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CascadeError::DuplicateName(n) => write!(f, "duplicate name `{n}` in cascade"),
            CascadeError::UnknownVariable { reduction, variable } => write!(
                f,
                "reduction `{reduction}` references unknown variable `{variable}` (forward dependencies are not allowed)"
            ),
            CascadeError::Empty => write!(f, "cascade has no reductions"),
            CascadeError::NoInputs => write!(f, "cascade has no input variables"),
        }
    }
}

impl std::error::Error for CascadeError {}

impl CascadeSpec {
    /// Creates a cascade and validates it.
    ///
    /// # Errors
    ///
    /// Returns a [`CascadeError`] if names collide, a map function references
    /// an unknown or forward variable, or the cascade is empty.
    pub fn new(
        name: impl Into<String>,
        inputs: Vec<String>,
        reductions: Vec<ReductionSpec>,
    ) -> Result<Self, CascadeError> {
        let spec = CascadeSpec {
            name: name.into(),
            inputs,
            reductions,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Validates naming and dependency structure.
    pub fn validate(&self) -> Result<(), CascadeError> {
        if self.reductions.is_empty() {
            return Err(CascadeError::Empty);
        }
        if self.inputs.is_empty() {
            return Err(CascadeError::NoInputs);
        }
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for input in &self.inputs {
            if !seen.insert(input.as_str()) {
                return Err(CascadeError::DuplicateName(input.clone()));
            }
        }
        let mut available: BTreeSet<&str> = self.inputs.iter().map(|s| s.as_str()).collect();
        for reduction in &self.reductions {
            for var in reduction.map.free_vars() {
                if !available.contains(var.as_str()) {
                    return Err(CascadeError::UnknownVariable {
                        reduction: reduction.name.clone(),
                        variable: var,
                    });
                }
            }
            if !seen.insert(reduction.name.as_str()) {
                return Err(CascadeError::DuplicateName(reduction.name.clone()));
            }
            available.insert(reduction.name.as_str());
        }
        Ok(())
    }

    /// Number of reductions `I` in the cascade.
    pub fn len(&self) -> usize {
        self.reductions.len()
    }

    /// Whether the cascade has no reductions (never true for validated specs).
    pub fn is_empty(&self) -> bool {
        self.reductions.is_empty()
    }

    /// The dependency variables (names of earlier reductions) actually used by
    /// the `i`-th reduction's map function.
    pub fn dependencies_of(&self, i: usize) -> Vec<String> {
        let map = &self.reductions[i].map;
        self.reductions[..i]
            .iter()
            .filter(|r| map.depends_on(&r.name))
            .map(|r| r.name.clone())
            .collect()
    }

    /// Names of all reduction results, in order.
    pub fn result_names(&self) -> Vec<String> {
        self.reductions.iter().map(|r| r.name.clone()).collect()
    }
}

impl fmt::Display for CascadeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cascade {}({}):", self.name, self.inputs.join(", "))?;
        for r in &self.reductions {
            writeln!(f, "  {} = {} over l of {}", r.name, r.reduce, r.map)?;
        }
        Ok(())
    }
}

/// Column-major numeric input to a cascade: one column per input variable,
/// all of the same length `L0`.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeInput {
    columns: Vec<Vec<f64>>,
    names: Vec<String>,
}

impl CascadeInput {
    /// Builds an input from `(name, column)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the columns have different lengths or no columns are given.
    pub fn new<I, S>(columns: I) -> Self
    where
        I: IntoIterator<Item = (S, Vec<f64>)>,
        S: Into<String>,
    {
        let mut names = Vec::new();
        let mut cols = Vec::new();
        for (name, col) in columns {
            names.push(name.into());
            cols.push(col);
        }
        assert!(
            !cols.is_empty(),
            "cascade input must have at least one column"
        );
        let len = cols[0].len();
        assert!(
            cols.iter().all(|c| c.len() == len),
            "all cascade input columns must have the same length"
        );
        CascadeInput {
            columns: cols,
            names,
        }
    }

    /// Convenience constructor for a single-input cascade.
    pub fn single(name: impl Into<String>, column: Vec<f64>) -> Self {
        CascadeInput::new([(name.into(), column)])
    }

    /// Sequence length `L0`.
    pub fn len(&self) -> usize {
        self.columns[0].len()
    }

    /// Whether the input has zero positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The input variable names, in column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The column for a given input variable, if present.
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|idx| self.columns[idx].as_slice())
    }

    /// Writes the input values at position `l` into `out`, one per column in
    /// [`CascadeInput::names`] order — the per-element step of an evaluator
    /// that compiled its expressions against that order.
    pub fn write_position(&self, l: usize, out: &mut [f64]) {
        for (value, col) in out.iter_mut().zip(&self.columns) {
            *value = col[l];
        }
    }

    /// Binds the input variables at position `l` into an environment.
    pub fn bind_position(&self, l: usize, env: &mut Env) {
        for (name, col) in self.names.iter().zip(&self.columns) {
            env.set(name.as_str(), col[l]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_algebra::ReduceOp;

    fn softmax_spec() -> CascadeSpec {
        let x = Expr::var("x");
        CascadeSpec::new(
            "softmax",
            vec!["x".to_string()],
            vec![
                ReductionSpec::new("m", ReduceOp::Max, x.clone()),
                ReductionSpec::new("t", ReduceOp::Sum, (x - Expr::var("m")).exp()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn valid_cascade_passes_validation() {
        let spec = softmax_spec();
        assert_eq!(spec.len(), 2);
        assert_eq!(spec.dependencies_of(0), Vec::<String>::new());
        assert_eq!(spec.dependencies_of(1), vec!["m".to_string()]);
        assert_eq!(spec.result_names(), vec!["m".to_string(), "t".to_string()]);
    }

    #[test]
    fn forward_dependency_is_rejected() {
        let err = CascadeSpec::new(
            "bad",
            vec!["x".to_string()],
            vec![
                ReductionSpec::new("a", ReduceOp::Sum, Expr::var("x") * Expr::var("b")),
                ReductionSpec::new("b", ReduceOp::Sum, Expr::var("x")),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, CascadeError::UnknownVariable { .. }));
        assert!(err.to_string().contains("forward dependencies"));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let err = CascadeSpec::new(
            "bad",
            vec!["x".to_string()],
            vec![ReductionSpec::new("x", ReduceOp::Sum, Expr::var("x"))],
        )
        .unwrap_err();
        assert_eq!(err, CascadeError::DuplicateName("x".to_string()));
    }

    #[test]
    fn empty_cascade_is_rejected() {
        let err = CascadeSpec::new("bad", vec!["x".to_string()], vec![]).unwrap_err();
        assert_eq!(err, CascadeError::Empty);
        let err = CascadeSpec::new(
            "bad",
            vec![],
            vec![ReductionSpec::new("a", ReduceOp::Sum, Expr::constant(1.0))],
        )
        .unwrap_err();
        assert_eq!(err, CascadeError::NoInputs);
    }

    #[test]
    fn display_lists_reductions() {
        let s = softmax_spec().to_string();
        assert!(s.contains("m = max over l of x"));
        assert!(s.contains("t = sum over l of exp((x - m))"));
    }

    #[test]
    fn cascade_input_accessors() {
        let input = CascadeInput::new([("x", vec![1.0, 2.0]), ("y", vec![3.0, 4.0])]);
        assert_eq!(input.len(), 2);
        assert!(!input.is_empty());
        assert_eq!(input.column("y"), Some(&[3.0, 4.0][..]));
        assert_eq!(input.column("z"), None);
        let mut env = Env::new();
        input.bind_position(1, &mut env);
        assert_eq!(env.get("x"), Some(2.0));
        assert_eq!(env.get("y"), Some(4.0));
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_column_lengths_panic() {
        CascadeInput::new([("x", vec![1.0]), ("y", vec![1.0, 2.0])]);
    }
}
