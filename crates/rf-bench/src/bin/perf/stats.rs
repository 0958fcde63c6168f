//! The benchmark's own order statistics (independent of the crates under
//! test, so an edit to their percentile code cannot move a reported number).

/// A set of timing samples, sorted once.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Linear-interpolated percentile (`p` in 0..=100); 0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        let Some(last) = self.0.len().checked_sub(1) else {
            return 0.0;
        };
        let rank = p.clamp(0.0, 100.0) / 100.0 * last as f64;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        self.0[lo] + (self.0[hi] - self.0[lo]) * (rank - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn max(&self) -> f64 {
        self.0.last().copied().unwrap_or(0.0)
    }
}

/// Median of a few values (timed set-ups, the runs of a `check=repeat` set).
pub fn median_of(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Geomean over classes (configs, families) of each class's
/// `p`-th percentile — the one definition behind `op_us_p50` / `op_us_p95`,
/// so every class weighs the same however long its operations take.
pub fn class_geomean(classes: &[Samples], p: f64) -> f64 {
    let per_class: Vec<f64> = classes
        .iter()
        .filter(|c| c.len() > 0)
        .map(|c| c.percentile(p))
        .collect();
    geomean(&per_class)
}

/// `(a - b) / b`, the relative overhead of `a` over baseline `b`.
pub fn rel_over(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        (a - b) / b
    } else {
        0.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_and_state_their_sample_count() {
        let s = Samples::new((1..=101).rev().map(f64::from).collect());
        assert_eq!(s.len(), 101);
        assert_eq!(s.median(), 51.0);
        assert_eq!(s.percentile(95.0), 96.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 101.0);
        assert_eq!(s.max(), 101.0);
        // Between ranks: 4 samples, p50 sits halfway between the middle two.
        let s = Samples::new(vec![10.0, 40.0, 20.0, 30.0]);
        assert_eq!(s.median(), 25.0);
        assert_eq!(s.percentile(25.0), 17.5);
        assert_eq!(Samples::default().median(), 0.0);
        assert_eq!(Samples::new(vec![7.0]).percentile(99.0), 7.0);
    }

    #[test]
    fn median_of_three_picks_the_middle_repetition() {
        assert_eq!(median_of(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median_of(&[2.0, 2.0, 100.0]), 2.0);
        assert_eq!(median_of(&[4.0]), 4.0);
    }

    #[test]
    fn class_geomean_weighs_classes_equally() {
        let fast = Samples::new(vec![1.0; 1000]);
        let slow = Samples::new(vec![100.0; 3]);
        assert!((class_geomean(&[fast, slow, Samples::default()], 50.0) - 10.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn ratios_guard_empty_denominators() {
        assert_eq!(rel_over(110.0, 100.0), 0.1);
        assert_eq!(rel_over(1.0, 0.0), 0.0);
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(0.0, 0.0), 0.0);
    }
}
