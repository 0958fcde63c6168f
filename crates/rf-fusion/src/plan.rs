//! Fusion plans: the output of the ACRF analysis.
//!
//! For each reduction of a cascade, a [`FusedReduction`] records the extracted
//! decomposition `F_i(x, d) = G_i(x) ⊗_i H_i(d)` together with the operators
//! involved. A [`FusionPlan`] bundles these for the whole cascade and can
//! render the fused (Eq. 11) and incremental (Eq. 15–16) computation forms.

use std::fmt;

use rf_algebra::{BinaryOp, ReduceOp};
use rf_expr::Expr;

use crate::cascade::CascadeSpec;

/// The fused decomposition of a single reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedReduction {
    /// Position of the reduction within the cascade (0-based).
    pub index: usize,
    /// Name of the reduction result (`d_i`).
    pub name: String,
    /// The reduction operator `R_i`.
    pub reduce: ReduceOp,
    /// The `⊕_i` used for fusion (Table 1's `⊕`, i.e. [`ReduceOp::fusion_plus`]).
    pub plus: BinaryOp,
    /// The combine operator `⊗_i` from Table 1.
    pub combine: BinaryOp,
    /// The original map function `F_i(X[l], D_i)`.
    pub map: Expr,
    /// The input-only factor `G_i(X[l])`.
    pub g: Expr,
    /// The dependency-only factor `H_i(D_i)`.
    pub h: Expr,
    /// Dependency variable names (earlier reduction results used by `F_i`).
    pub deps: Vec<String>,
    /// Input variable names used by `F_i`.
    pub input_vars: Vec<String>,
}

impl FusedReduction {
    /// Whether this reduction has no dependencies (so no correction is needed;
    /// cf. the dataflow-based step elimination of Appendix A.4).
    pub fn is_independent(&self) -> bool {
        self.deps.is_empty()
    }

    /// Renders the fused level-`k` expression (Eq. 11 instantiated).
    pub fn fused_level_expression(&self) -> String {
        if self.is_independent() {
            format!(
                "{name}^k_j = {plus} over j' in segment of {name}^(k-1)_j'",
                name = self.name,
                plus = self.plus,
            )
        } else {
            format!(
                "{name}^k_j = {plus} over j' in segment of [{name}^(k-1)_j' {c} inv({h_prev}) {c} {h_cur}]",
                name = self.name,
                plus = self.plus,
                c = self.combine,
                h_prev = render_h(&self.h, &self.deps, "^(k-1)"),
                h_cur = render_h(&self.h, &self.deps, "^k"),
            )
        }
    }

    /// Renders the incremental update rule (Eq. 15 for level `k > 1`,
    /// Eq. 16 with `G_i(X[L])` for level 1).
    pub fn incremental_update_rule(&self, first_level: bool) -> String {
        let incoming = if first_level {
            format!("{}", self.g)
        } else {
            format!("{}^(k-1)", self.name)
        };
        if self.is_independent() {
            format!(
                "{name}[L] = {name}[L-1] {plus} {incoming}",
                name = self.name,
                plus = self.plus,
            )
        } else {
            format!(
                "{name}[L] = ({name}[L-1] {c} inv({h_prev}) {c} {h_cur}) {plus} ({incoming} {c} {h_cur})",
                name = self.name,
                plus = self.plus,
                c = self.combine,
                h_prev = render_h(&self.h, &self.deps, "[L-1]"),
                h_cur = render_h(&self.h, &self.deps, "[L]"),
            )
        }
    }
}

fn render_h(h: &Expr, deps: &[String], suffix: &str) -> String {
    let mut out = h.clone();
    for dep in deps {
        out = out.substitute(dep, &Expr::var(format!("{dep}{suffix}")));
    }
    format!("H({out})")
}

/// The complete fusion plan for a cascade.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionPlan {
    /// Name of the originating cascade.
    pub cascade_name: String,
    /// Input variable names of the cascade.
    pub inputs: Vec<String>,
    /// One fused reduction per cascade reduction, in order.
    pub reductions: Vec<FusedReduction>,
}

impl FusionPlan {
    /// Number of reductions in the plan.
    pub fn len(&self) -> usize {
        self.reductions.len()
    }

    /// Whether the plan is empty (never the case for plans produced by ACRF).
    pub fn is_empty(&self) -> bool {
        self.reductions.is_empty()
    }

    /// Looks up a fused reduction by result name.
    pub fn reduction(&self, name: &str) -> Option<&FusedReduction> {
        self.reductions.iter().find(|r| r.name == name)
    }

    /// Total number of dependency corrections applied per processed element in
    /// incremental mode (one per dependent reduction). This drives the
    /// correction-overhead terms of the performance model (§5.3).
    pub fn corrections_per_element(&self) -> usize {
        self.reductions
            .iter()
            .filter(|r| !r.is_independent())
            .count()
    }

    /// An upper bound on the scalar operations evaluated per element in the
    /// fused single-pass form (map + correction + reduction work), used by the
    /// auto-tuner's analytic cost heuristics.
    pub fn flops_per_element(&self) -> usize {
        self.reductions
            .iter()
            .map(|r| {
                r.g.node_count()
                    + if r.is_independent() {
                        1
                    } else {
                        2 * r.h.node_count() + 3
                    }
            })
            .sum()
    }

    /// Renders a human-readable report of the plan, mirroring the structure of
    /// the paper's §3.4 case study.
    pub fn report(&self) -> String {
        format!("{self}")
    }

    /// Checks that the plan's reductions correspond one-to-one (by name and
    /// order) to the reductions of `spec`.
    pub fn matches_spec(&self, spec: &CascadeSpec) -> bool {
        self.reductions.len() == spec.reductions.len()
            && self
                .reductions
                .iter()
                .zip(&spec.reductions)
                .all(|(a, b)| a.name == b.name && a.reduce == b.reduce)
    }
}

impl fmt::Display for FusionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FusionPlan for `{}` (inputs: {})",
            self.cascade_name,
            self.inputs.join(", ")
        )?;
        for r in &self.reductions {
            writeln!(
                f,
                "reduction {} `{}` (R = {}, ⊕ = {}, ⊗ = {}):",
                r.index + 1,
                r.name,
                r.reduce,
                r.plus,
                r.combine
            )?;
            writeln!(f, "  F = {}", r.map)?;
            writeln!(f, "  G = {}", r.g)?;
            writeln!(f, "  H = {}", r.h)?;
            writeln!(f, "  fused:       {}", r.fused_level_expression())?;
            writeln!(f, "  incremental: {}", r.incremental_update_rule(true))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::acrf::analyze_cascade;
    use crate::patterns;

    #[test]
    fn softmax_plan_reports_both_forms() {
        let plan = analyze_cascade(&patterns::safe_softmax()).unwrap();
        let report = plan.report();
        assert!(report.contains("G = exp(x)"));
        assert!(report.contains("incremental:"));
        assert!(report.contains("fused:"));
    }

    #[test]
    fn independent_reduction_needs_no_correction() {
        let plan = analyze_cascade(&patterns::safe_softmax()).unwrap();
        assert!(plan.reductions[0].is_independent());
        assert!(!plan.reductions[1].is_independent());
        assert_eq!(plan.corrections_per_element(), 1);
    }

    #[test]
    fn lookup_by_name() {
        let plan = analyze_cascade(&patterns::safe_softmax()).unwrap();
        assert!(plan.reduction("t").is_some());
        assert!(plan.reduction("nope").is_none());
        assert!(plan.matches_spec(&patterns::safe_softmax()));
    }

    #[test]
    fn flops_per_element_positive() {
        let plan = analyze_cascade(&patterns::fp8_quant_gemm()).unwrap();
        assert!(plan.flops_per_element() > 0);
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 2);
    }
}
