//! The tensor-level operator graph IR and its unfused reference evaluator.
//!
//! An [`OpGraph`] is a DAG of tensor-valued nodes: named inputs, elementwise
//! glue ops, matrix multiplies, transposes, reshapes, column slices and
//! row-wise reductions. Every tensor is a 2-D [`Matrix`] with a static
//! [`Shape`]; broadcasting follows the single rule the cascade model needs —
//! a `[rows, 1]` per-row column (a reduction result) combines elementwise
//! with a `[rows, cols]` operand.
//!
//! Nodes are appended through the builder methods, which infer and check
//! shapes eagerly, so a constructed graph is always topologically ordered by
//! node id and shape-consistent. [`OpGraph::evaluate`] executes the graph
//! node by node with naive unfused kernels — the whole-graph correctness
//! oracle everything fused is verified against.

use std::fmt;

use rf_algebra::ReduceOp;
use rf_workloads::{exp, fp8_round, Matrix};

/// Index of a node inside its [`OpGraph`]. Ids are dense and topologically
/// ordered: every node's arguments have smaller ids.
pub type NodeId = usize;

/// The static `[rows, cols]` shape of a node's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl Shape {
    /// Creates a shape; both extents must be positive.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "shapes must be non-empty");
        Shape { rows, cols }
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the shape holds no elements (never true for built nodes).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}x{}]", self.rows, self.cols)
    }
}

/// Elementwise unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapOp {
    /// `exp(x)`.
    Exp,
    /// `|x|`.
    Abs,
    /// `sqrt(x)`.
    Sqrt,
    /// `-x`.
    Neg,
    /// `1 / x`.
    Recip,
    /// `max(x, 0)`.
    Relu,
    /// `x * x`.
    Square,
    /// Rounding to the FP8 E4M3 grid (`rf_workloads::fp8_round`). Has no
    /// closed-form scalar expression, so the detector treats any reduction
    /// map containing it as unliftable.
    Fp8Round,
}

impl MapOp {
    /// Applies the operation to one element.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            MapOp::Exp => exp(x),
            MapOp::Abs => x.abs(),
            MapOp::Sqrt => x.sqrt(),
            MapOp::Neg => -x,
            MapOp::Recip => 1.0 / x,
            MapOp::Relu => x.max(0.0),
            MapOp::Square => x * x,
            MapOp::Fp8Round => fp8_round(x),
        }
    }
}

/// Elementwise binary operations (with `[rows, 1]` broadcast).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZipOp {
    /// `a + b`.
    Add,
    /// `a - b`.
    Sub,
    /// `a * b`.
    Mul,
    /// `a / b`.
    Div,
    /// `max(a, b)`.
    Max,
    /// `min(a, b)`.
    Min,
}

impl ZipOp {
    /// Applies the operation to one element pair.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ZipOp::Add => a + b,
            ZipOp::Sub => a - b,
            ZipOp::Mul => a * b,
            ZipOp::Div => a / b,
            ZipOp::Max => a.max(b),
            ZipOp::Min => a.min(b),
        }
    }
}

/// One tensor operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A named graph input; its value is bound at execution time.
    Input {
        /// The binding name.
        name: String,
    },
    /// Elementwise unary op over one argument.
    Map(MapOp),
    /// Elementwise binary op over two arguments, broadcasting a `[rows, 1]`
    /// operand across the other operand's columns.
    Zip(ZipOp),
    /// Multiplication by a compile-time constant.
    Scale(f64),
    /// Addition of a compile-time constant.
    Shift(f64),
    /// Matrix multiply `[m, k] @ [k, n] -> [m, n]`.
    MatMul,
    /// Matrix transpose.
    Transpose,
    /// Row-wise reduction along the column axis: `[m, n] -> [m, 1]`.
    RowReduce(ReduceOp),
    /// Row-major reshape to a new `[rows, cols]` with the same element count.
    Reshape,
    /// Extraction of one column as a `[rows, 1]` tensor.
    ColSlice(usize),
}

impl Op {
    /// Whether the op computes each output element from the aligned input
    /// element(s) only — the ops the cascade detector walks through when it
    /// lifts a reduction's map function.
    pub fn is_elementwise(&self) -> bool {
        matches!(self, Op::Map(_) | Op::Zip(_) | Op::Scale(_) | Op::Shift(_))
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Map(MapOp::Exp) => "exp",
            Op::Map(MapOp::Abs) => "abs",
            Op::Map(MapOp::Sqrt) => "sqrt",
            Op::Map(MapOp::Neg) => "neg",
            Op::Map(MapOp::Recip) => "recip",
            Op::Map(MapOp::Relu) => "relu",
            Op::Map(MapOp::Square) => "square",
            Op::Map(MapOp::Fp8Round) => "fp8_round",
            Op::Zip(ZipOp::Add) => "add",
            Op::Zip(ZipOp::Sub) => "sub",
            Op::Zip(ZipOp::Mul) => "mul",
            Op::Zip(ZipOp::Div) => "div",
            Op::Zip(ZipOp::Max) => "max",
            Op::Zip(ZipOp::Min) => "min",
            Op::Scale(_) => "scale",
            Op::Shift(_) => "shift",
            Op::MatMul => "matmul",
            Op::Transpose => "transpose",
            Op::RowReduce(_) => "row_reduce",
            Op::Reshape => "reshape",
            Op::ColSlice(_) => "col_slice",
        }
    }
}

/// One node of an [`OpGraph`].
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The operation.
    pub op: Op,
    /// Argument node ids (all smaller than this node's id).
    pub args: Vec<NodeId>,
    /// The inferred output shape.
    pub shape: Shape,
}

/// Errors reported when evaluating a graph over concrete tensors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A graph input has no binding of the required name.
    MissingInput(String),
    /// A bound tensor's shape disagrees with the input node's declared shape.
    InputShape {
        /// The input name.
        name: String,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A node was executed before one of its arguments (never happens for
    /// plans produced by the partitioner).
    UnboundValue {
        /// The node whose value is missing.
        node: NodeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::MissingInput(name) => write!(f, "graph input `{name}` is not bound"),
            GraphError::InputShape { name, detail } => {
                write!(f, "graph input `{name}`: {detail}")
            }
            GraphError::UnboundValue { node } => {
                write!(f, "node {node} was executed before its arguments")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A shape-checked DAG of tensor operations, built through the builder
/// methods and therefore always topologically ordered by node id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpGraph {
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
}

impl OpGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        OpGraph::default()
    }

    /// All nodes, in topological (id) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The declared output node ids, in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Ids of every consumer of `id`, in topological order.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.args.contains(&id))
            .map(|(i, _)| i)
            .collect()
    }

    /// Ids and names of the graph's input nodes, in id order.
    pub fn input_names(&self) -> Vec<(NodeId, &str)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match &n.op {
                Op::Input { name } => Some((i, name.as_str())),
                _ => None,
            })
            .collect()
    }

    fn push(&mut self, op: Op, args: Vec<NodeId>, shape: Shape) -> NodeId {
        for &a in &args {
            assert!(a < self.nodes.len(), "argument {a} does not exist yet");
        }
        self.nodes.push(Node { op, args, shape });
        self.nodes.len() - 1
    }

    /// Adds a named input of the given shape.
    ///
    /// # Panics
    ///
    /// Panics on an empty shape or a duplicate input name.
    pub fn input(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> NodeId {
        let name = name.into();
        assert!(
            !self.input_names().iter().any(|(_, n)| *n == name),
            "duplicate graph input `{name}`"
        );
        let shape = Shape::new(rows, cols);
        self.push(Op::Input { name }, vec![], shape)
    }

    /// Adds an elementwise unary op.
    pub fn map(&mut self, op: MapOp, a: NodeId) -> NodeId {
        let shape = self.nodes[a].shape;
        self.push(Op::Map(op), vec![a], shape)
    }

    /// Adds an elementwise binary op; one operand may be a `[rows, 1]` column
    /// broadcast across the other operand's columns.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are incompatible.
    pub fn zip(&mut self, op: ZipOp, a: NodeId, b: NodeId) -> NodeId {
        let (sa, sb) = (self.nodes[a].shape, self.nodes[b].shape);
        assert_eq!(sa.rows, sb.rows, "zip operands must agree on rows");
        assert!(
            sa.cols == sb.cols || sa.cols == 1 || sb.cols == 1,
            "zip operands must agree on columns or broadcast a [rows, 1] column ({sa} vs {sb})"
        );
        let shape = Shape::new(sa.rows, sa.cols.max(sb.cols));
        self.push(Op::Zip(op), vec![a, b], shape)
    }

    /// Adds multiplication by a constant.
    pub fn scale(&mut self, factor: f64, a: NodeId) -> NodeId {
        let shape = self.nodes[a].shape;
        self.push(Op::Scale(factor), vec![a], shape)
    }

    /// Adds addition of a constant.
    pub fn shift(&mut self, offset: f64, a: NodeId) -> NodeId {
        let shape = self.nodes[a].shape;
        self.push(Op::Shift(offset), vec![a], shape)
    }

    /// Adds a matrix multiply.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (sa, sb) = (self.nodes[a].shape, self.nodes[b].shape);
        assert_eq!(
            sa.cols, sb.rows,
            "matmul inner dimensions must agree ({sa} @ {sb})"
        );
        let shape = Shape::new(sa.rows, sb.cols);
        self.push(Op::MatMul, vec![a, b], shape)
    }

    /// Adds a transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let sa = self.nodes[a].shape;
        self.push(Op::Transpose, vec![a], Shape::new(sa.cols, sa.rows))
    }

    /// Adds a row-wise reduction along the column axis.
    pub fn row_reduce(&mut self, op: ReduceOp, a: NodeId) -> NodeId {
        let sa = self.nodes[a].shape;
        self.push(Op::RowReduce(op), vec![a], Shape::new(sa.rows, 1))
    }

    /// Adds a row-major reshape.
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    pub fn reshape(&mut self, a: NodeId, rows: usize, cols: usize) -> NodeId {
        let sa = self.nodes[a].shape;
        let shape = Shape::new(rows, cols);
        assert_eq!(sa.len(), shape.len(), "reshape must preserve element count");
        self.push(Op::Reshape, vec![a], shape)
    }

    /// Adds extraction of column `col` as a `[rows, 1]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn col_slice(&mut self, a: NodeId, col: usize) -> NodeId {
        let sa = self.nodes[a].shape;
        assert!(col < sa.cols, "column {col} out of range for {sa}");
        self.push(Op::ColSlice(col), vec![a], Shape::new(sa.rows, 1))
    }

    /// Declares a node as a graph output.
    pub fn mark_output(&mut self, id: NodeId) {
        assert!(id < self.nodes.len(), "output {id} does not exist");
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Binds `bindings` to the graph's inputs, checking names and shapes.
    /// Accepts both borrowed (`&[(&str, Matrix)]`) and owned
    /// (`&[(String, Matrix)]`) binding name pairs, so a serving queue that
    /// owns its bindings can bind without re-borrowing.
    ///
    /// # Errors
    ///
    /// [`GraphError::MissingInput`] / [`GraphError::InputShape`] when a
    /// binding is absent or the wrong shape.
    pub fn bind<S: AsRef<str>>(
        &self,
        bindings: &[(S, Matrix)],
    ) -> Result<Vec<Option<Matrix>>, GraphError> {
        let mut values: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        for (id, name) in self.input_names() {
            let shape = self.nodes[id].shape;
            let bound = bindings
                .iter()
                .find(|(n, _)| n.as_ref() == name)
                .map(|(_, m)| m)
                .ok_or_else(|| GraphError::MissingInput(name.to_string()))?;
            if bound.rows() != shape.rows || bound.cols() != shape.cols {
                return Err(GraphError::InputShape {
                    name: name.to_string(),
                    detail: format!("expected {shape}, got [{}x{}]", bound.rows(), bound.cols()),
                });
            }
            values[id] = Some(bound.clone());
        }
        Ok(values)
    }

    /// Evaluates one non-input node from the already-computed values of its
    /// arguments — the unfused reference kernel for that op.
    ///
    /// # Errors
    ///
    /// [`GraphError::UnboundValue`] if an argument has not been computed yet.
    ///
    /// # Panics
    ///
    /// Panics if called on an [`Op::Input`] node (inputs are bound, not
    /// computed).
    pub fn eval_node(&self, id: NodeId, values: &[Option<Matrix>]) -> Result<Matrix, GraphError> {
        let node = &self.nodes[id];
        let arg = |i: usize| -> Result<&Matrix, GraphError> {
            values[node.args[i]]
                .as_ref()
                .ok_or(GraphError::UnboundValue { node: id })
        };
        Ok(match &node.op {
            Op::Input { .. } => unreachable!("inputs are bound, not evaluated"),
            Op::Map(op) => {
                let a = arg(0)?;
                let mut out = Matrix::zeros(a.rows(), a.cols());
                for r in 0..a.rows() {
                    for c in 0..a.cols() {
                        out.set(r, c, op.apply(a.get(r, c)));
                    }
                }
                out
            }
            Op::Zip(op) => {
                let (a, b) = (arg(0)?, arg(1)?);
                let shape = node.shape;
                let mut out = Matrix::zeros(shape.rows, shape.cols);
                for r in 0..shape.rows {
                    for c in 0..shape.cols {
                        let av = a.get(r, if a.cols() == 1 { 0 } else { c });
                        let bv = b.get(r, if b.cols() == 1 { 0 } else { c });
                        out.set(r, c, op.apply(av, bv));
                    }
                }
                out
            }
            Op::Scale(factor) => {
                let a = arg(0)?;
                let mut out = a.clone();
                for r in 0..out.rows() {
                    for v in out.row_mut(r) {
                        *v *= factor;
                    }
                }
                out
            }
            Op::Shift(offset) => {
                let a = arg(0)?;
                let mut out = a.clone();
                for r in 0..out.rows() {
                    for v in out.row_mut(r) {
                        *v += offset;
                    }
                }
                out
            }
            Op::MatMul => arg(0)?.matmul(arg(1)?),
            Op::Transpose => arg(0)?.transpose(),
            Op::RowReduce(op) => {
                let a = arg(0)?;
                let mut out = Matrix::zeros(a.rows(), 1);
                for r in 0..a.rows() {
                    let row = a.row(r);
                    let mut acc = row[0];
                    for &v in &row[1..] {
                        acc = match op {
                            ReduceOp::Sum => acc + v,
                            ReduceOp::Prod => acc * v,
                            ReduceOp::Max => acc.max(v),
                            ReduceOp::Min => acc.min(v),
                        };
                    }
                    out.set(r, 0, acc);
                }
                out
            }
            Op::Reshape => {
                let a = arg(0)?;
                Matrix::from_vec(node.shape.rows, node.shape.cols, a.as_slice().to_vec())
            }
            Op::ColSlice(col) => {
                let a = arg(0)?;
                let mut out = Matrix::zeros(a.rows(), 1);
                for r in 0..a.rows() {
                    out.set(r, 0, a.get(r, *col));
                }
                out
            }
        })
    }

    /// Evaluates every node with the unfused reference kernels, returning all
    /// node values. This is the whole-graph correctness oracle for the fused
    /// [`GraphPlan`](crate::partition::GraphPlan) execution.
    ///
    /// # Errors
    ///
    /// See [`OpGraph::bind`].
    pub fn evaluate_all(&self, bindings: &[(&str, Matrix)]) -> Result<Vec<Matrix>, GraphError> {
        let mut values = self.bind(bindings)?;
        for id in 0..self.nodes.len() {
            if values[id].is_none() {
                values[id] = Some(self.eval_node(id, &values)?);
            }
        }
        Ok(values
            .into_iter()
            .map(|v| v.expect("all computed"))
            .collect())
    }

    /// Evaluates the graph and returns the declared outputs, in declaration
    /// order.
    ///
    /// # Errors
    ///
    /// See [`OpGraph::bind`].
    pub fn evaluate(&self, bindings: &[(&str, Matrix)]) -> Result<Vec<Matrix>, GraphError> {
        let values = self.evaluate_all(bindings)?;
        Ok(self.outputs.iter().map(|&id| values[id].clone()).collect())
    }
}

impl fmt::Display for OpGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, node) in self.nodes.iter().enumerate() {
            let args: Vec<String> = node.args.iter().map(|a| format!("%{a}")).collect();
            writeln!(
                f,
                "%{id} = {}({}) : {}",
                node.op.name(),
                args.join(", "),
                node.shape
            )?;
        }
        write!(f, "outputs: {:?}", self.outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_workloads::random_matrix;

    #[test]
    fn builder_infers_shapes_and_orders_topologically() {
        let mut g = OpGraph::new();
        let x = g.input("x", 4, 8);
        let m = g.row_reduce(ReduceOp::Max, x);
        let sub = g.zip(ZipOp::Sub, x, m);
        let e = g.map(MapOp::Exp, sub);
        let t = g.row_reduce(ReduceOp::Sum, e);
        let p = g.zip(ZipOp::Div, e, t);
        g.mark_output(p);
        assert_eq!(g.node(m).shape, Shape::new(4, 1));
        assert_eq!(g.node(p).shape, Shape::new(4, 8));
        for (id, node) in g.nodes().iter().enumerate() {
            assert!(node.args.iter().all(|&a| a < id));
        }
        assert_eq!(g.consumers(e), vec![t, p]);
        assert_eq!(g.input_names(), vec![(x, "x")]);
        assert!(g.to_string().contains("row_reduce"));
    }

    #[test]
    fn evaluate_computes_softmax_rows() {
        let mut g = OpGraph::new();
        let x = g.input("x", 3, 16);
        let m = g.row_reduce(ReduceOp::Max, x);
        let sub = g.zip(ZipOp::Sub, x, m);
        let e = g.map(MapOp::Exp, sub);
        let t = g.row_reduce(ReduceOp::Sum, e);
        let p = g.zip(ZipOp::Div, e, t);
        g.mark_output(p);
        let input = random_matrix(3, 16, 7, -3.0, 3.0);
        let out = g.evaluate(&[("x", input.clone())]).unwrap();
        let oracle = rf_kernels_free_softmax(&input);
        assert!(out[0].max_abs_diff(&oracle) < 1e-12);
    }

    // A tiny local softmax so this module does not depend on rf-kernels.
    fn rf_kernels_free_softmax(x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            let row = x.row(r);
            let m = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let t: f64 = row.iter().map(|v| exp(v - m)).sum();
            for (c, v) in row.iter().enumerate() {
                out.set(r, c, exp(v - m) / t);
            }
        }
        out
    }

    #[test]
    fn broadcast_scale_shift_reshape_and_slice_evaluate() {
        let mut g = OpGraph::new();
        let x = g.input("x", 2, 4);
        let s = g.scale(2.0, x);
        let sh = g.shift(1.0, s);
        let rs = g.reshape(sh, 4, 2);
        let col = g.col_slice(rs, 1);
        let t = g.transpose(rs);
        g.mark_output(col);
        g.mark_output(t);
        let input = Matrix::from_vec(2, 4, (0..8).map(|v| v as f64).collect());
        let out = g.evaluate(&[("x", input)]).unwrap();
        // 2x + 1 row-major reshaped to [4, 2]: second column is 3, 7, 11, 15.
        assert_eq!(out[0].as_slice(), &[3.0, 7.0, 11.0, 15.0]);
        assert_eq!(out[1].rows(), 2);
        assert_eq!(out[1].cols(), 4);
        assert_eq!(out[1].get(0, 2), 9.0);
    }

    #[test]
    fn missing_and_misshapen_bindings_are_rejected() {
        let mut g = OpGraph::new();
        let x = g.input("x", 2, 4);
        g.mark_output(x);
        assert_eq!(
            g.evaluate(&[]).unwrap_err(),
            GraphError::MissingInput("x".to_string())
        );
        let err = g.evaluate(&[("x", Matrix::zeros(3, 4))]).unwrap_err();
        assert!(matches!(err, GraphError::InputShape { .. }));
        assert!(err.to_string().contains("expected [2x4]"));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics_at_build_time() {
        let mut g = OpGraph::new();
        let a = g.input("a", 2, 3);
        let b = g.input("b", 4, 2);
        g.matmul(a, b);
    }

    #[test]
    #[should_panic(expected = "duplicate graph input")]
    fn duplicate_input_names_panic() {
        let mut g = OpGraph::new();
        g.input("x", 2, 2);
        g.input("x", 2, 2);
    }
}
