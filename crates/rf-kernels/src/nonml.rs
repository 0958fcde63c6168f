//! Unfused non-ML cascaded reductions: variance and moment of inertia
//! (Appendix A.6).
//!
//! Both workloads are chains of dependent reductions, evaluated here with one
//! pass per reduction:
//!
//! * **Variance** (Eq. 44): a mean reduction followed by a sum of squared
//!   deviations that depends on the mean.
//! * **Moment of inertia** (Eq. 45): total mass, center of mass (which depends
//!   on the total mass), and the mass-weighted squared distances to the center.

use rf_workloads::Matrix;

/// Two-pass (unfused) population variance.
///
/// # Panics
///
/// Panics if the input is empty.
pub fn variance_naive(x: &[f64]) -> f64 {
    assert!(!x.is_empty(), "variance input must not be empty");
    let n = x.len() as f64;
    let mean = x.iter().sum::<f64>() / n;
    x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / n
}

/// [`variance_naive`] of every row of a batch matrix.
pub fn variance_rows(batch: &Matrix) -> Vec<f64> {
    (0..batch.rows())
        .map(|r| variance_naive(batch.row(r)))
        .collect()
}

/// Three-pass (unfused) moment of inertia about the center of mass.
///
/// `masses` has length `n`; `positions` is an `[n, dim]` matrix.
///
/// # Panics
///
/// Panics if the lengths disagree or the system is empty or massless.
pub fn inertia_naive(masses: &[f64], positions: &Matrix) -> f64 {
    assert_eq!(
        masses.len(),
        positions.rows(),
        "one mass per particle is required"
    );
    assert!(!masses.is_empty(), "inertia input must not be empty");
    let dim = positions.cols();
    let total_mass: f64 = masses.iter().sum();
    assert!(total_mass > 0.0, "total mass must be positive");
    let mut center = vec![0.0; dim];
    for (i, &m) in masses.iter().enumerate() {
        for (d, c) in center.iter_mut().enumerate() {
            *c += m * positions.get(i, d);
        }
    }
    for c in center.iter_mut() {
        *c /= total_mass;
    }
    let mut inertia = 0.0;
    for (i, &m) in masses.iter().enumerate() {
        let mut dist_sq = 0.0;
        for (d, &c) in center.iter().enumerate() {
            let delta = positions.get(i, d) - c;
            dist_sq += delta * delta;
        }
        inertia += m * dist_sq;
    }
    inertia
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_workloads::random_vec;

    #[test]
    fn variance_of_constant_is_zero() {
        assert!(variance_naive(&[2.5; 64]).abs() < 1e-12);
        let rows = variance_rows(&Matrix::from_vec(
            2,
            3,
            vec![1.0, 1.0, 1.0, -4.0, -4.0, -4.0],
        ));
        assert_eq!(rows, vec![0.0, 0.0]);
    }

    #[test]
    fn inertia_is_translation_invariant() {
        let masses = random_vec(64, 31, 0.1, 2.0);
        let positions = Matrix::random(64, 3, 32, -2.0, 2.0);
        let mut shifted = positions.clone();
        for i in 0..shifted.rows() {
            for d in 0..3 {
                let v = shifted.get(i, d) + 10.0;
                shifted.set(i, d, v);
            }
        }
        let a = inertia_naive(&masses, &positions);
        let b = inertia_naive(&masses, &shifted);
        assert!((a - b).abs() < 1e-6 * (1.0 + a));
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_variance_panics() {
        variance_naive(&[]);
    }

    #[test]
    #[should_panic(expected = "total mass must be positive")]
    fn massless_system_panics() {
        inertia_naive(&[0.0, 0.0], &Matrix::zeros(2, 3));
    }
}
