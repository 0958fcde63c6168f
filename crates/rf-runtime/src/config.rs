//! Engine configuration: tunables plus a validating builder.
//!
//! [`RuntimeConfig`] is constructed through [`RuntimeConfig::builder`],
//! which rejects configurations that would deadlock or misbehave at runtime
//! (zero worker counts, zero in-flight budgets) with typed
//! [`RuntimeError::InvalidConfig`] errors instead of letting the engine
//! panic later.

use crate::request::RuntimeError;
use crate::submit::LANES;
use rf_trace::{TraceConfig, TraceLevel};

/// Deficit-round-robin weights of the three priority lanes. Each iteration
/// boundary, every backlogged lane's credit grows by its weight and the lane
/// with the most credit seeds the batch, so a lane with weight `w` gets
/// roughly `w / (sum of backlogged weights)` of the iterations — and even
/// the lightest lane is served at a bounded interval (no starvation). The
/// engine schedules with the [`Default`] weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneWeights {
    /// Weight of the [`crate::Priority::High`] lane.
    pub high: u32,
    /// Weight of the [`crate::Priority::Normal`] lane.
    pub normal: u32,
    /// Weight of the [`crate::Priority::Low`] lane.
    pub low: u32,
}

impl Default for LaneWeights {
    fn default() -> Self {
        LaneWeights {
            high: 4,
            normal: 2,
            low: 1,
        }
    }
}

impl LaneWeights {
    /// The weights as a lane-indexed array (see [`crate::Priority::lane`]).
    pub fn as_array(&self) -> [u64; LANES] {
        [self.high as u64, self.normal as u64, self.low as u64]
    }
}

/// Tunables of one [`crate::Engine`].
///
/// Build through [`RuntimeConfig::builder`] — the builder validates, so an
/// impossible configuration is a typed error at construction instead of a
/// panic inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Worker threads executing iterations.
    pub workers: usize,
    /// Maximum requests grouped into one iteration's batch.
    pub max_batch: usize,
    /// Maximum resident compiled plans.
    pub cache_capacity: usize,
    /// Bounded in-flight budget: the maximum number of submissions queued or
    /// executing at once. Submissions beyond it are shed with
    /// [`RuntimeError::Overloaded`] instead of queuing without bound.
    pub max_in_flight: usize,
    /// Tracing/telemetry level and span-buffer bound (see
    /// [`TraceConfig`]). Defaults to headline histograms only;
    /// [`TraceLevel::Full`] additionally buffers per-request spans for
    /// Chrome-trace export, [`TraceLevel::Off`] makes tracing zero-cost.
    pub trace: TraceConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8);
        RuntimeConfig {
            workers,
            max_batch: 16,
            cache_capacity: 64,
            max_in_flight: 1024,
            trace: TraceConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder {
            config: RuntimeConfig::default(),
        }
    }

    /// Checks the configuration's invariants.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] describing the first violated
    /// invariant: zero workers / batch bound / cache capacity / in-flight
    /// budget, an in-flight budget smaller than one batch, or a zero span
    /// buffer at [`TraceLevel::Full`].
    pub fn validate(&self) -> Result<(), RuntimeError> {
        let invalid = |detail: String| Err(RuntimeError::InvalidConfig { detail });
        if self.workers == 0 {
            return invalid("workers must be at least 1 (the pool could never serve)".into());
        }
        if self.max_batch == 0 {
            return invalid("max_batch must be at least 1".into());
        }
        if self.cache_capacity == 0 {
            return invalid("cache_capacity must be at least 1".into());
        }
        if self.max_in_flight == 0 {
            return invalid(
                "max_in_flight must be at least 1 (a zero budget sheds everything)".into(),
            );
        }
        if self.max_in_flight < self.max_batch {
            return invalid(format!(
                "max_in_flight ({}) must be >= max_batch ({}): a full batch must fit the budget",
                self.max_in_flight, self.max_batch
            ));
        }
        if self.trace.level == TraceLevel::Full && self.trace.capacity == 0 {
            return invalid(
                "trace capacity must be at least 1 at TraceLevel::Full \
                 (a zero buffer drops every span)"
                    .into(),
            );
        }
        Ok(())
    }
}

/// Builder for [`RuntimeConfig`]; see [`RuntimeConfig::builder`].
#[derive(Debug, Clone)]
pub struct RuntimeConfigBuilder {
    config: RuntimeConfig,
}

impl RuntimeConfigBuilder {
    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the per-iteration batch bound.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Sets the compiled-plan cache capacity.
    pub fn cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.config.cache_capacity = cache_capacity;
        self
    }

    /// Sets the bounded in-flight budget.
    pub fn max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.config.max_in_flight = max_in_flight;
        self
    }

    /// Sets the full tracing configuration (level + span-buffer bound).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.config.trace = trace;
        self
    }

    /// Sets just the tracing level, keeping the buffer bound.
    pub fn trace_level(mut self, level: TraceLevel) -> Self {
        self.config.trace.level = level;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`RuntimeConfig::validate`].
    pub fn build(self) -> Result<RuntimeConfig, RuntimeError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(RuntimeConfig::default().validate().is_ok());
        let built = RuntimeConfig::builder().build().unwrap();
        assert_eq!(built, RuntimeConfig::default());
    }

    #[test]
    fn builder_rejects_zero_counts_with_typed_errors() {
        for (builder, needle) in [
            (RuntimeConfig::builder().workers(0), "workers"),
            (RuntimeConfig::builder().max_batch(0), "max_batch"),
            (RuntimeConfig::builder().cache_capacity(0), "cache_capacity"),
            (RuntimeConfig::builder().max_in_flight(0), "max_in_flight"),
        ] {
            let err = builder.build().unwrap_err();
            assert_eq!(err.code(), "invalid_config");
            assert!(
                err.to_string().contains(needle),
                "error `{err}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn builder_sets_trace_levels_and_rejects_zero_full_buffers() {
        let config = RuntimeConfig::builder()
            .trace_level(TraceLevel::Full)
            .build()
            .unwrap();
        assert_eq!(config.trace.level, TraceLevel::Full);
        assert!(config.trace.capacity > 0, "default capacity survives");
        let config = RuntimeConfig::builder()
            .trace(TraceConfig::off())
            .build()
            .unwrap();
        assert_eq!(config.trace.level, TraceLevel::Off);
        let err = RuntimeConfig::builder()
            .trace(TraceConfig::full().with_capacity(0))
            .build()
            .unwrap_err();
        assert_eq!(err.code(), "invalid_config");
        assert!(err.to_string().contains("trace capacity"));
        // A zero buffer is fine when spans are not recorded anyway.
        assert!(RuntimeConfig::builder()
            .trace(TraceConfig::off().with_capacity(0))
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_budget_smaller_than_a_batch() {
        let err = RuntimeConfig::builder()
            .max_batch(16)
            .max_in_flight(8)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("max_in_flight"));
        assert!(RuntimeConfig::builder()
            .max_batch(16)
            .max_in_flight(16)
            .build()
            .is_ok());
    }
}
