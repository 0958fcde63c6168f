//! The fleet: N running devices behind one front door, and the one rule
//! that places a submission on them.
//!
//! The fleet owns the devices (each with its own scheduler, caches, metrics
//! and workers — see [`super::device`]), the shared [`TraceCollector`] and
//! the shared [`OpProfiler`]. Placement is least-loaded: the device with the
//! shallowest queue at submission time, ties to the lowest device id.

use std::sync::Arc;

use rf_trace::{OpProfiler, TraceCollector, TraceConfig};

use crate::config::FleetConfig;

use super::device::Device;

/// N devices behind one front door.
pub(crate) struct Fleet {
    pub devices: Vec<Device>,
    pub trace: Arc<TraceCollector>,
    /// The trace configuration every device started with (the merged
    /// fleet-wide snapshot re-uses its window geometry).
    pub trace_config: TraceConfig,
    /// The fleet-wide tile-VM op profiler; a no-op unless
    /// [`TraceConfig::profile`] is set.
    pub profiler: Arc<OpProfiler>,
}

impl Fleet {
    /// Starts every device of `config` (already validated).
    pub fn start(config: &FleetConfig) -> Fleet {
        let trace = Arc::new(TraceCollector::new(config.runtime.trace));
        let profiler = Arc::new(OpProfiler::new(config.runtime.trace.profile));
        let devices = config
            .devices
            .iter()
            .enumerate()
            .map(|(id, spec)| {
                Device::start(
                    id,
                    spec,
                    &config.runtime,
                    Arc::clone(&trace),
                    Arc::clone(&profiler),
                )
            })
            .collect();
        Fleet {
            devices,
            trace,
            trace_config: config.runtime.trace,
            profiler,
        }
    }

    /// The device a submission goes to: the shallowest queue, ties to the
    /// lowest id. A one-device fleet skips the sample — `depth()` takes the
    /// scheduler lock.
    pub fn least_loaded(&self) -> &Device {
        match self.devices.as_slice() {
            [only] => only,
            devices => &devices[least_loaded(devices.iter().map(|d| d.shared.scheduler.depth()))],
        }
    }

    /// Submissions queued or executing, summed over the devices.
    pub fn depth(&self) -> usize {
        self.devices
            .iter()
            .map(|d| d.shared.scheduler.depth())
            .sum()
    }

    /// Blocks until every device queue is empty.
    pub fn wait_drained(&self) {
        for device in &self.devices {
            device.shared.scheduler.wait_drained();
        }
    }

    /// Shuts the fleet down: fails every queued submission, then joins every
    /// device worker.
    pub fn shutdown(&mut self) {
        for device in &self.devices {
            device.shared.scheduler.shutdown();
        }
        for device in &mut self.devices {
            device.join_workers();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The position of the smallest depth; ties break to the lowest position,
/// so the chosen device's depth is the minimum at decision time.
fn least_loaded(depths: impl Iterator<Item = usize>) -> usize {
    depths
        .enumerate()
        .min_by_key(|&(_, depth)| depth)
        .map_or(0, |(id, _)| id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn least_loaded_picks_the_minimum_and_ties_to_the_lowest_id() {
        let pick = |depths: &[usize]| least_loaded(depths.iter().copied());
        assert_eq!(pick(&[3, 1, 2, 1]), 1);
        assert_eq!(pick(&[0, 0, 0]), 0);
        assert_eq!(pick(&[5]), 0);
        // The invariant the fleet relies on: the chosen depth is the minimum.
        let depths = [7usize, 2, 9, 2, 4];
        assert_eq!(depths[pick(&depths)], *depths.iter().min().unwrap());
    }
}
