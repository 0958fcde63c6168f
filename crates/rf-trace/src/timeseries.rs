//! Rolling time-windowed telemetry: the bench trajectory, not just its
//! endpoints.
//!
//! A [`RollingTelemetry`] keeps a ring of fixed-width time windows (the
//! engine's is [`DEFAULT_WINDOWS`] × [`DEFAULT_WINDOW_MS`], 64 × 250 ms).
//! Each completed batch, shed decision and admission lands in the window
//! that contains its wall-clock instant; windows older than the ring rolls
//! off. The snapshot derives per-window throughput, p99 simulated latency,
//! shed rate, mean batch occupancy and busy fraction — read through the
//! engine's `metrics().timeseries` and exported as Prometheus gauges for the
//! most recent active window. The newest window is still
//! open: its throughput and busy fraction are taken over the time it has
//! covered so far, not over the full width.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::hist::{bucket_of_us, quantile_us};

/// Window width of the engine's telemetry, milliseconds.
pub const DEFAULT_WINDOW_MS: u64 = 250;

/// Number of windows the engine's telemetry ring retains.
pub const DEFAULT_WINDOWS: usize = 64;

/// Shortest time, milliseconds, the open window is taken to cover: window
/// indices have millisecond resolution, and a snapshot taken in the instant a
/// window opens must not divide by ~0.
const MIN_COVERED_MS: f64 = 1.0;

#[derive(Debug, Default)]
struct Slot {
    index: u64,
    submitted: u64,
    completed: u64,
    failed: u64,
    shed: u64,
    batches: u64,
    batched_requests: u64,
    busy_us: f64,
    /// The window's batch latencies as sparse [`crate::LogHistogram`]
    /// buckets, `(bucket, count)` in ascending bucket order: simulated
    /// latencies in one window take a handful of distinct values.
    latencies: Vec<(usize, u64)>,
}

impl Slot {
    fn new(index: u64) -> Slot {
        Slot {
            index,
            ..Slot::default()
        }
    }

    fn add_latency(&mut self, bucket: usize) {
        match self.latencies.binary_search_by_key(&bucket, |&(b, _)| b) {
            Ok(at) => self.latencies[at].1 += 1,
            Err(at) => self.latencies.insert(at, (bucket, 1)),
        }
    }
}

/// A ring of fixed-width telemetry windows shared by the engine's workers.
#[derive(Debug)]
pub struct RollingTelemetry {
    width_ms: u64,
    slots: usize,
    /// The instant window indices count from.
    epoch: Instant,
    ring: Mutex<VecDeque<Slot>>,
}

impl Default for RollingTelemetry {
    fn default() -> Self {
        RollingTelemetry::new(DEFAULT_WINDOW_MS, DEFAULT_WINDOWS)
    }
}

impl RollingTelemetry {
    /// A ring of `slots` windows, each `width_ms` wide (both clamped ≥ 1).
    pub fn new(width_ms: u64, slots: usize) -> RollingTelemetry {
        RollingTelemetry {
            width_ms: width_ms.max(1),
            slots: slots.max(1),
            epoch: Instant::now(),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Window width in milliseconds.
    pub fn width_ms(&self) -> u64 {
        self.width_ms
    }

    /// Ring capacity in windows.
    pub fn slots(&self) -> usize {
        self.slots
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Slot>> {
        self.ring.lock().expect("telemetry ring poisoned")
    }

    fn with_slot<R>(&self, f: impl FnOnce(&mut Slot) -> R) -> R {
        let mut ring = self.lock();
        let index = (self.epoch.elapsed().as_millis() as u64) / self.width_ms;
        if ring.back().is_none_or(|slot| slot.index < index) {
            ring.push_back(Slot::new(index));
        }
        while ring.len() > self.slots {
            ring.pop_front();
        }
        let slot = ring.back_mut().expect("ring holds the current slot");
        f(slot)
    }

    /// Counts one accepted submission in the current window.
    pub fn record_submit(&self) {
        self.with_slot(|slot| slot.submitted += 1);
    }

    /// Rolls back one [`RollingTelemetry::record_submit`] whose submission
    /// was rejected after counting (saturating: the submit may have landed
    /// in a window that already rotated out).
    pub fn cancel_submit(&self) {
        self.with_slot(|slot| slot.submitted = slot.submitted.saturating_sub(1));
    }

    /// Counts one shed submission in the current window.
    pub fn record_shed(&self) {
        self.with_slot(|slot| slot.shed += 1);
    }

    /// Records one executed batch in the current window: completed/failed
    /// request counts, the batch's simulated latency (one p99 sample) and
    /// its occupancy. `busy_us` accumulates into the window's busy fraction.
    pub fn record_batch(&self, completed: u64, failed: u64, latency_us: f64, batch_size: u64) {
        self.with_slot(|slot| {
            slot.completed += completed;
            slot.failed += failed;
            slot.batches += 1;
            slot.batched_requests += batch_size;
            if let Some((bucket, _)) = bucket_of_us(latency_us) {
                slot.busy_us += latency_us;
                slot.add_latency(bucket);
            }
        });
    }

    /// A point-in-time per-window summary, oldest window first.
    pub fn snapshot(&self) -> TimeSeriesSnapshot {
        self.snapshot_at(self.epoch.elapsed())
    }

    /// [`RollingTelemetry::snapshot`] taken `now` after the epoch; the tests
    /// fix the instant through it.
    fn snapshot_at(&self, now: Duration) -> TimeSeriesSnapshot {
        let ring = self.lock();
        let now_ms = now.as_secs_f64() * 1000.0;
        let width_ms = self.width_ms as f64;
        let newest = ring.back().map(|slot| slot.index);
        let windows = ring
            .iter()
            .map(|slot| {
                let samples = slot.latencies.iter().map(|&(_, n)| n).sum();
                let arrivals = slot.completed + slot.failed + slot.shed;
                let start_ms = slot.index * self.width_ms;
                // Closed windows cover their full width; the newest one has
                // covered only the time since it opened.
                let covered_ms = if Some(slot.index) == newest {
                    (now_ms - start_ms as f64).clamp(MIN_COVERED_MS, width_ms)
                } else {
                    width_ms
                };
                WindowSnapshot {
                    start_ms,
                    submitted: slot.submitted,
                    completed: slot.completed,
                    failed: slot.failed,
                    shed: slot.shed,
                    batches: slot.batches,
                    throughput_rps: slot.completed as f64 / (covered_ms / 1000.0),
                    p99_us: quantile_us(slot.latencies.iter().copied(), samples, 0.99),
                    shed_rate: if arrivals > 0 {
                        slot.shed as f64 / arrivals as f64
                    } else {
                        0.0
                    },
                    mean_batch: if slot.batches > 0 {
                        slot.batched_requests as f64 / slot.batches as f64
                    } else {
                        0.0
                    },
                    busy_frac: (slot.busy_us / (covered_ms * 1000.0)).min(1.0),
                }
            })
            .collect();
        TimeSeriesSnapshot {
            window_ms: self.width_ms,
            windows,
        }
    }
}

/// Exportable per-window time series, oldest window first.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeriesSnapshot {
    /// Window width, milliseconds.
    pub window_ms: u64,
    /// One summary per retained window.
    pub windows: Vec<WindowSnapshot>,
}

impl TimeSeriesSnapshot {
    /// True when no window recorded any traffic.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The most recent window with any completions — the scrape target for
    /// the Prometheus gauges.
    pub fn latest_active(&self) -> Option<&WindowSnapshot> {
        self.windows.iter().rev().find(|w| w.completed > 0)
    }
}

/// Derived telemetry of one time window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowSnapshot {
    /// Window start, milliseconds since the telemetry epoch.
    pub start_ms: u64,
    /// Submissions accepted in the window.
    pub submitted: u64,
    /// Requests completed in the window.
    pub completed: u64,
    /// Requests failed in the window.
    pub failed: u64,
    /// Submissions shed in the window.
    pub shed: u64,
    /// Batches executed in the window.
    pub batches: u64,
    /// Completions per second over the time the window covers: its width,
    /// or for the newest window the time since it opened.
    pub throughput_rps: f64,
    /// p99 of the simulated batch latencies landing in the window, µs
    /// (bucket-quantised like every [`crate::LogHistogram`] quantile, ≤ 1/16
    /// relative; no sample is dropped).
    pub p99_us: f64,
    /// Shed submissions over all arrivals resolved in the window.
    pub shed_rate: f64,
    /// Mean batch occupancy (requests per executed batch).
    pub mean_batch: f64,
    /// Fraction of the time the window covers (as for `throughput_rps`) that
    /// the device spent busy (simulated), 0..=1.
    pub busy_frac: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{quantile_sorted, SUB_BUCKETS};

    #[test]
    fn batches_land_in_the_current_window_with_derived_rates() {
        let telemetry = RollingTelemetry::new(60_000, 4);
        telemetry.record_submit();
        telemetry.record_submit();
        telemetry.record_batch(2, 0, 1000.0, 2);
        telemetry.record_shed();
        // Taken as the window closes, so its rate is over the full width.
        let snapshot = telemetry.snapshot_at(Duration::from_secs(60));
        assert_eq!(snapshot.window_ms, 60_000);
        assert_eq!(snapshot.windows.len(), 1);
        let w = &snapshot.windows[0];
        assert_eq!((w.submitted, w.completed, w.shed), (2, 2, 1));
        assert!((w.throughput_rps - 2.0 / 60.0).abs() < 1e-12);
        assert!((w.shed_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!((w.mean_batch - 2.0).abs() < 1e-12);
        assert!((w.p99_us - 1000.0).abs() <= 1000.0 / SUB_BUCKETS as f64);
        assert!(w.busy_frac > 0.0);
        assert_eq!(snapshot.latest_active().unwrap().completed, 2);
    }

    #[test]
    fn ring_drops_the_oldest_window_beyond_capacity() {
        // 1 ms windows: force distinct indices by spinning past boundaries.
        let telemetry = RollingTelemetry::new(1, 2);
        let mut seen = std::collections::BTreeSet::new();
        let start = Instant::now();
        while seen.len() < 4 && start.elapsed().as_millis() < 500 {
            telemetry.record_batch(1, 0, 1.0, 1);
            seen.extend(telemetry.snapshot().windows.last().map(|w| w.start_ms));
        }
        assert!(telemetry.snapshot().windows.len() <= 2);
    }

    #[test]
    fn the_open_window_is_normalised_by_the_time_it_covers() {
        // The raw events: (completed, failed) per batch, all inside the first
        // 60 s window.
        let batches = [(8u64, 0u64), (8, 1), (5, 0), (8, 0), (3, 2)];
        let telemetry = RollingTelemetry::new(60_000, 4);
        for (completed, failed) in batches {
            telemetry.record_batch(completed, failed, 250.0, completed + failed);
        }
        let completed: u64 = batches.iter().map(|&(completed, _)| completed).sum();
        let rate_at = |ms: u64| {
            let snapshot = telemetry.snapshot_at(Duration::from_millis(ms));
            assert_eq!(snapshot.windows.len(), 1);
            assert_eq!(snapshot.windows[0].completed, completed);
            snapshot.windows[0].throughput_rps
        };
        // A 44 ms run: 32 completions are 727 /s, not 32 / 60 s.
        assert!((rate_at(44) - completed as f64 / 0.044).abs() < 1e-9);
        // An empty instant is floored at 1 ms; a window that has closed (or a
        // reader that comes back late) never counts more than the width.
        assert!((rate_at(0) - completed as f64 / 0.001).abs() < 1e-9);
        assert!((rate_at(60_000) - completed as f64 / 60.0).abs() < 1e-9);
        assert!((rate_at(600_000) - completed as f64 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn the_open_windows_busy_fraction_is_over_the_time_it_covers() {
        // The raw events: simulated busy µs per batch, all inside the first
        // 60 s window; 22 ms of work in all.
        let batches_us = [4_000.0, 6_500.0, 1_500.0, 10_000.0];
        let busy_us: f64 = batches_us.iter().sum();
        let single = RollingTelemetry::new(60_000, 4);
        for latency_us in batches_us {
            single.record_batch(1, 0, latency_us, 1);
        }
        let busy_at = |telemetry: &RollingTelemetry, ms: u64| {
            let snapshot = telemetry.snapshot_at(Duration::from_millis(ms));
            assert_eq!(snapshot.windows.len(), 1);
            snapshot.windows[0].busy_frac
        };
        // 44 ms into the window the device has been busy for half of them,
        // not for 22 ms of 60 s.
        assert!((busy_at(&single, 44) - busy_us / 44_000.0).abs() < 1e-12);
        assert!((busy_at(&single, 44) - 0.5).abs() < 1e-12);
        // More work than time covered saturates; a closed window (or a late
        // reader) keeps the full width.
        assert_eq!(busy_at(&single, 11), 1.0);
        assert!((busy_at(&single, 60_000) - busy_us / 60e6).abs() < 1e-15);
        assert!((busy_at(&single, 600_000) - busy_us / 60e6).abs() < 1e-15);
        // Closed windows keep the full width whatever `now` is.
        let closed = RollingTelemetry::new(250, 4);
        for (index, busy_us) in [(0, 125_000.0), (1, 11_000.0)] {
            let slot = Slot {
                busy_us,
                ..Slot::new(index)
            };
            closed.lock().push_back(slot);
        }
        let snapshot = closed.snapshot_at(Duration::from_millis(294));
        let busy: Vec<f64> = snapshot.windows.iter().map(|w| w.busy_frac).collect();
        assert_eq!(busy, [0.5, 0.25]);
    }

    #[test]
    fn snapshot_reads_the_clock_for_the_open_window() {
        let before_epoch = Instant::now();
        let telemetry = RollingTelemetry::new(60_000, 4);
        let after_epoch = Instant::now();
        telemetry.record_batch(500, 0, 100.0, 500);
        std::thread::sleep(Duration::from_millis(5));
        let shortest = after_epoch.elapsed().as_secs_f64();
        let rate = telemetry.snapshot().windows[0].throughput_rps;
        let longest = before_epoch.elapsed().as_secs_f64();
        assert!(
            rate <= 500.0 / shortest && rate >= 500.0 / longest,
            "{rate}"
        );
    }

    #[test]
    fn closed_windows_keep_the_full_width() {
        let telemetry = RollingTelemetry::new(250, 4);
        for (index, completed) in [(0, 100), (1, 11)] {
            let slot = Slot {
                completed,
                ..Slot::new(index)
            };
            telemetry.lock().push_back(slot);
        }
        let snapshot = telemetry.snapshot_at(Duration::from_millis(294));
        let rates: Vec<f64> = snapshot.windows.iter().map(|w| w.throughput_rps).collect();
        assert_eq!(rates, [100.0 / 0.25, 11.0 / 0.044]);
    }

    #[test]
    fn a_windows_p99_is_within_one_bucket_of_the_raw_samples_and_loses_none() {
        // 2 000 batches in one window (four times what the old 512-sample
        // store kept), latencies spread over three octaves.
        let latency = |i: u64| 40.0 + (i * 7919 % 2000) as f64 * 0.37;
        let telemetry = RollingTelemetry::new(60_000, 4);
        let mut raw: Vec<f64> = Vec::new();
        for i in 0..2000 {
            telemetry.record_batch(1, 0, latency(i), 1);
            raw.push(latency(i));
        }
        raw.sort_by(f64::total_cmp);
        let exact = quantile_sorted(&raw, 0.99);
        let at = Duration::from_secs(30);
        let window = telemetry.snapshot_at(at).windows[0];
        assert!(
            (window.p99_us - exact).abs() <= exact / SUB_BUCKETS as f64,
            "p99 {} vs exact {exact}",
            window.p99_us
        );
        let kept: u64 = telemetry.lock()[0].latencies.iter().map(|&(_, n)| n).sum();
        assert_eq!(kept, 2000);
    }

    #[test]
    fn non_finite_latencies_keep_counters_but_add_no_samples() {
        let telemetry = RollingTelemetry::new(60_000, 4);
        telemetry.record_batch(1, 0, f64::NAN, 1);
        let w = telemetry.snapshot().windows[0];
        assert_eq!(w.completed, 1);
        assert_eq!(w.p99_us, 0.0);
        assert_eq!(w.busy_frac, 0.0);
    }
}
