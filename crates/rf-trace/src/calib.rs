//! Cost-model calibration ledger: predicted vs. measured latency, reconciled.
//!
//! The serving engine routes and accounts by `ExecBackend::estimate_us` —
//! the cost model's *predicted* latency — while the tile-VM's *measured*
//! wall time goes unchecked. The [`CalibrationLedger`] closes that loop:
//! every executed batch records the pair `(predicted µs, measured µs)` under
//! `(workload class, arch, arch fingerprint, backend)`, and the snapshot
//! surfaces MAPE plus p50/p95 relative error so estimate drift is auditable
//! per class and architecture.
//!
//! A **drift flag** raises when the measured/predicted ratio leaves a wide
//! band (0.02–50): the cost model is simulating a GPU while the VM runs on
//! a host CPU, so the interesting signal is the ratio *moving*, not its
//! absolute value.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use crate::hist::quantile_sorted;

/// Measured/predicted ratio band outside which an entry is flagged as
/// drifting. Wide on purpose: predicted latency simulates the target GPU
/// while measured latency is host CPU interpretation, so only large shifts
/// are meaningful.
const DRIFT_BAND: (f64, f64) = (0.02, 50.0);

/// Most recent relative-error samples kept per entry for the p50/p95
/// estimates (MAPE and the mean ratio use lifetime sums).
const REL_ERR_WINDOW: usize = 2048;

/// Every caller names its class, arch and backend with a `&'static str`
/// (`Workload::class()`, `GpuArch::name`, `ExecBackend::name()`), so a
/// recorded batch allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct CalibKey {
    class: &'static str,
    arch: &'static str,
    backend: &'static str,
    fingerprint: u64,
}

#[derive(Debug, Default)]
struct CalibTrack {
    samples: u64,
    predicted_sum: f64,
    measured_sum: f64,
    abs_pct_err_sum: f64,
    ratio_sum: f64,
    /// The last [`REL_ERR_WINDOW`] relative errors, oldest first.
    rel_errs: VecDeque<f64>,
    last_ratio: f64,
    drift_count: u64,
}

impl CalibTrack {
    fn push_rel_err(&mut self, rel_err: f64) {
        if self.rel_errs.len() == REL_ERR_WINDOW {
            self.rel_errs.pop_front();
        }
        self.rel_errs.push_back(rel_err);
    }

    fn record(&mut self, predicted_us: f64, measured_us: f64) {
        let ratio = measured_us / predicted_us;
        let rel_err = (measured_us - predicted_us).abs() / predicted_us;
        self.samples += 1;
        self.predicted_sum += predicted_us;
        self.measured_sum += measured_us;
        self.abs_pct_err_sum += rel_err * 100.0;
        self.ratio_sum += ratio;
        self.push_rel_err(rel_err);
        self.last_ratio = ratio;
        if ratio < DRIFT_BAND.0 || ratio > DRIFT_BAND.1 {
            self.drift_count += 1;
        }
    }

    fn merge_from(&mut self, other: &CalibTrack) {
        self.samples += other.samples;
        self.predicted_sum += other.predicted_sum;
        self.measured_sum += other.measured_sum;
        self.abs_pct_err_sum += other.abs_pct_err_sum;
        self.ratio_sum += other.ratio_sum;
        for &rel_err in &other.rel_errs {
            self.push_rel_err(rel_err);
        }
        if other.samples > 0 {
            self.last_ratio = other.last_ratio;
        }
        self.drift_count += other.drift_count;
    }
}

/// Concurrent predicted-vs-measured latency ledger, keyed by
/// `(workload class, arch, arch fingerprint, backend)`.
#[derive(Debug, Default)]
pub struct CalibrationLedger {
    entries: Mutex<BTreeMap<CalibKey, CalibTrack>>,
}

impl CalibrationLedger {
    /// An empty ledger.
    pub fn new() -> CalibrationLedger {
        CalibrationLedger::default()
    }

    /// Records one executed batch: the cost model's predicted latency and
    /// the measured wall time, both in microseconds. Non-finite or
    /// non-positive pairs are discarded (a prediction of zero cannot be
    /// expressed as a ratio).
    pub fn record(
        &self,
        class: &'static str,
        arch: &'static str,
        fingerprint: u64,
        backend: &'static str,
        predicted_us: f64,
        measured_us: f64,
    ) {
        if !predicted_us.is_finite() || !measured_us.is_finite() {
            return;
        }
        if predicted_us <= 0.0 || measured_us <= 0.0 {
            return;
        }
        let key = CalibKey {
            class,
            arch,
            backend,
            fingerprint,
        };
        let mut entries = self.entries.lock().expect("calibration ledger poisoned");
        entries
            .entry(key)
            .or_default()
            .record(predicted_us, measured_us);
    }

    /// Folds another ledger's entries into this one (fleet-level merge).
    pub fn merge_from(&self, other: &CalibrationLedger) {
        let theirs = other.entries.lock().expect("calibration ledger poisoned");
        let mut ours = self.entries.lock().expect("calibration ledger poisoned");
        for (key, track) in theirs.iter() {
            ours.entry(*key).or_default().merge_from(track);
        }
    }

    /// The calibrated (measured) mean latency in µs for `class`, averaged
    /// over every arch/backend entry weighted by sample count. `None` until
    /// the class has at least one sample — callers fall back to an
    /// uncalibrated policy.
    pub fn calibrated_us(&self, class: &str) -> Option<f64> {
        let entries = self.entries.lock().expect("calibration ledger poisoned");
        let (mut measured, mut samples) = (0.0f64, 0u64);
        for (key, track) in entries.iter() {
            if key.class == class {
                measured += track.measured_sum;
                samples += track.samples;
            }
        }
        (samples > 0).then(|| measured / samples as f64)
    }

    /// A point-in-time summary of every entry, sorted by key.
    pub fn snapshot(&self) -> Vec<CalibrationSnapshot> {
        let entries = self.entries.lock().expect("calibration ledger poisoned");
        entries
            .iter()
            .map(|(key, track)| {
                let mut sorted = Vec::from_iter(track.rel_errs.iter().copied());
                sorted.sort_by(f64::total_cmp);
                let n = track.samples as f64;
                let mean_ratio = track.ratio_sum / n.max(1.0);
                CalibrationSnapshot {
                    class: key.class.to_string(),
                    arch: key.arch.to_string(),
                    backend: key.backend.to_string(),
                    fingerprint: key.fingerprint,
                    samples: track.samples,
                    predicted_mean_us: track.predicted_sum / n.max(1.0),
                    measured_mean_us: track.measured_sum / n.max(1.0),
                    mape_pct: track.abs_pct_err_sum / n.max(1.0),
                    rel_err_p50: quantile_sorted(&sorted, 0.50),
                    rel_err_p95: quantile_sorted(&sorted, 0.95),
                    mean_ratio,
                    last_ratio: track.last_ratio,
                    drift_count: track.drift_count,
                    drifting: mean_ratio < DRIFT_BAND.0 || mean_ratio > DRIFT_BAND.1,
                }
            })
            .collect()
    }
}

/// Calibration summary of one `(class, arch, backend)` entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSnapshot {
    /// Workload class (e.g. `softmax`, `mha`, `graph`).
    pub class: String,
    /// Architecture display name (e.g. `NVIDIA A10`).
    pub arch: String,
    /// Backend name (`tile-vm` or `cost-model`).
    pub backend: String,
    /// The architecture's latency-relevant fingerprint.
    pub fingerprint: u64,
    /// Recorded (predicted, measured) pairs.
    pub samples: u64,
    /// Mean predicted latency, µs.
    pub predicted_mean_us: f64,
    /// Mean measured wall latency, µs.
    pub measured_mean_us: f64,
    /// Mean absolute percentage error of the predictions.
    pub mape_pct: f64,
    /// Median relative error over the entry's most recent 2048 samples.
    pub rel_err_p50: f64,
    /// 95th-percentile relative error over the same window.
    pub rel_err_p95: f64,
    /// Lifetime mean measured/predicted ratio.
    pub mean_ratio: f64,
    /// Ratio of the most recent sample.
    pub last_ratio: f64,
    /// Samples whose ratio left the drift band.
    pub drift_count: u64,
    /// True when the mean ratio itself sits outside the band — the estimate
    /// for this entry can no longer be trusted without recalibration.
    pub drifting: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_reports_mape_and_percentiles_per_key() {
        let ledger = CalibrationLedger::new();
        // 10% over-prediction on every sample: MAPE 10, all ratios 0.9.
        for _ in 0..8 {
            ledger.record("softmax", "NVIDIA A10", 42, "tile-vm", 100.0, 90.0);
        }
        ledger.record("mha", "NVIDIA A10", 42, "tile-vm", 50.0, 100.0);
        let snapshot = ledger.snapshot();
        assert_eq!(snapshot.len(), 2);
        let mha = &snapshot[0];
        assert_eq!((mha.class.as_str(), mha.samples), ("mha", 1));
        assert!((mha.mape_pct - 100.0).abs() < 1e-9);
        let softmax = &snapshot[1];
        assert!((softmax.mape_pct - 10.0).abs() < 1e-9);
        assert!((softmax.rel_err_p50 - 0.1).abs() < 1e-12);
        assert!((softmax.rel_err_p95 - 0.1).abs() < 1e-12);
        assert!((softmax.mean_ratio - 0.9).abs() < 1e-12);
        assert!(!softmax.drifting);
        assert_eq!(softmax.drift_count, 0);
    }

    #[test]
    fn ratios_outside_the_band_raise_the_drift_flag() {
        let ledger = CalibrationLedger::new();
        ledger.record("softmax", "a", 1, "tile-vm", 1.0, 64.0);
        ledger.record("softmax", "a", 1, "tile-vm", 1.0, 58.0);
        // Inside the band: measured 40× the prediction is still "a host CPU
        // interpreting a GPU kernel".
        ledger.record("mha", "a", 1, "tile-vm", 1.0, 40.0);
        ledger.record("quant", "a", 1, "tile-vm", 1000.0, 10.0);
        let snapshot = ledger.snapshot();
        let (mha, quant, softmax) = (&snapshot[0], &snapshot[1], &snapshot[2]);
        assert_eq!(softmax.drift_count, 2);
        assert!(softmax.drifting);
        assert!(softmax.mean_ratio > 50.0);
        assert_eq!((mha.drift_count, mha.drifting), (0, false));
        assert_eq!((quant.drift_count, quant.drifting), (1, true));
    }

    #[test]
    fn relative_error_percentiles_cover_only_the_latest_window() {
        let ledger = CalibrationLedger::new();
        let fleet = CalibrationLedger::new();
        // Three eras of REL_ERR_WINDOW samples each: 10 %, 50 %, then 20 %
        // relative error.
        for measured_us in [110.0, 150.0, 120.0] {
            for _ in 0..REL_ERR_WINDOW {
                ledger.record("softmax", "a", 1, "tile-vm", 100.0, measured_us);
            }
        }
        let entry = &ledger.snapshot()[0];
        assert_eq!(entry.samples as usize, 3 * REL_ERR_WINDOW);
        assert!(
            (entry.rel_err_p50 - 0.2).abs() < 1e-12,
            "{}",
            entry.rel_err_p50
        );
        assert!(
            (entry.rel_err_p95 - 0.2).abs() < 1e-12,
            "{}",
            entry.rel_err_p95
        );
        // Lifetime figures still see all three eras.
        assert!((entry.mape_pct - 80.0 / 3.0).abs() < 1e-9);
        // A merge appends the other ledger's window behind this one's: after
        // one more sample here and a merge, the newest samples are theirs.
        fleet.record("softmax", "a", 1, "tile-vm", 100.0, 190.0);
        fleet.merge_from(&ledger);
        let merged = &fleet.snapshot()[0];
        assert_eq!(merged.samples as usize, 3 * REL_ERR_WINDOW + 1);
        assert!((merged.rel_err_p95 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn degenerate_pairs_are_discarded() {
        let ledger = CalibrationLedger::new();
        ledger.record("softmax", "a", 1, "tile-vm", 0.0, 10.0);
        ledger.record("softmax", "a", 1, "tile-vm", 10.0, f64::NAN);
        ledger.record("softmax", "a", 1, "tile-vm", -5.0, 10.0);
        assert!(ledger.snapshot().is_empty());
        assert_eq!(ledger.calibrated_us("softmax"), None);
    }

    #[test]
    fn merge_and_calibrated_estimates_pool_across_arches() {
        let a = CalibrationLedger::new();
        let b = CalibrationLedger::new();
        a.record("softmax", "a10", 1, "tile-vm", 100.0, 80.0);
        b.record("softmax", "h800", 2, "tile-vm", 100.0, 120.0);
        b.record("mha", "h800", 2, "tile-vm", 10.0, 10.0);
        a.merge_from(&b);
        assert_eq!(a.snapshot().len(), 3);
        let softmax = a.calibrated_us("softmax").unwrap();
        assert!((softmax - 100.0).abs() < 1e-9);
        assert_eq!(a.calibrated_us("missing"), None);
    }
}
