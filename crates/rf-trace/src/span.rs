//! The ring-buffer span collector and its event model.
//!
//! Workers record [`TraceEvent`]s — spans with a start timestamp and a
//! duration, or zero-length instants — into a bounded ring owned by a
//! [`TraceCollector`]. The ring is a single mutex around a `VecDeque`: each
//! record is one short critical section (push + possibly pop), never held
//! across compilation or execution, and when tracing is off the collector is
//! a branch on an immutable field — no lock, no allocation, no timestamp.
//! When the ring is full the *oldest* event is dropped and counted, so the
//! collector can never grow without bound or stall a worker.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How much the engine records about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// No tracing: no spans, no stage histograms. The hot path pays a single
    /// predictable branch.
    Off,
    /// Stage/lane/class latency histograms only (lifetime-accurate
    /// percentiles in `MetricsSnapshot`), no per-event span buffer.
    #[default]
    Histograms,
    /// Histograms plus the full per-request span timeline, exportable as
    /// Chrome trace-event JSON.
    Full,
}

impl TraceLevel {
    /// Whether per-event spans are recorded.
    pub fn spans_enabled(self) -> bool {
        matches!(self, TraceLevel::Full)
    }

    /// Whether stage/lane/class histograms are recorded.
    pub fn histograms_enabled(self) -> bool {
        !matches!(self, TraceLevel::Off)
    }

    /// The level's name (`"off"`, `"histograms"`, `"full"`).
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Histograms => "histograms",
            TraceLevel::Full => "full",
        }
    }
}

/// Tracing configuration carried by the engine's `RuntimeConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// How much to record.
    pub level: TraceLevel,
    /// Bound on buffered span events at [`TraceLevel::Full`]. When the ring
    /// is full the oldest event is dropped (and counted) — the collector
    /// keeps the most recent window of activity.
    pub capacity: usize,
    /// Whether the tile-VM op profiler is live (see
    /// [`crate::profile::OpProfiler`]). Off by default: the serving path
    /// only takes the profiled interpreter entry point when this is set, so
    /// the plain path stays bit-identical and overhead-free.
    pub profile: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            level: TraceLevel::default(),
            capacity: 65_536,
            profile: false,
        }
    }
}

impl TraceConfig {
    /// Tracing fully off.
    pub fn off() -> Self {
        TraceConfig {
            level: TraceLevel::Off,
            ..TraceConfig::default()
        }
    }

    /// Headline histograms only (the default).
    pub fn histograms() -> Self {
        TraceConfig {
            level: TraceLevel::Histograms,
            ..TraceConfig::default()
        }
    }

    /// Full span recording with the default buffer bound.
    pub fn full() -> Self {
        TraceConfig {
            level: TraceLevel::Full,
            ..TraceConfig::default()
        }
    }

    /// Returns the configuration with `capacity` buffered events.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Returns the configuration with the tile-VM op profiler switched
    /// on/off. Independent of `level`: a profile can be captured even with
    /// span tracing off.
    pub fn with_profile(mut self, profile: bool) -> Self {
        self.profile = profile;
        self
    }
}

/// Whether an event covers a time range or marks a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventPhase {
    /// A complete span: `ts_us .. ts_us + dur_us`.
    Span,
    /// A zero-length marker.
    Instant,
}

/// One extra key/value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned counter.
    U64(u64),
    /// A float (microseconds, rates).
    F64(f64),
}

/// One recorded event. Timestamps are microseconds since the collector's
/// epoch (engine construction), monotonic.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span/stage name (e.g. `"queue"`, `"compile"`, `"execute"`).
    pub name: &'static str,
    /// Span or instant.
    pub phase: EventPhase,
    /// Start, µs since the collector epoch.
    pub ts_us: f64,
    /// Duration in µs (0 for instants).
    pub dur_us: f64,
    /// The track the event renders on: request id for request-lifecycle
    /// spans, worker index for engine events (see [`TraceEvent::track_id`]).
    pub track: Track,
    /// The request this event belongs to, if any.
    pub request: Option<u64>,
    /// The priority lane name, if known.
    pub lane: Option<&'static str>,
    /// The workload class, if known.
    pub class: Option<&'static str>,
    /// The engine iteration, if known.
    pub iteration: Option<u64>,
    /// Extra key/values exported into the trace viewer's args pane.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// The timeline a [`TraceEvent`] renders on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// A per-request lifecycle track.
    Request(u64),
    /// A worker thread's engine track (iterations, batch formation).
    Worker(usize),
    /// The submission front door (sheds, admission).
    FrontDoor,
}

impl TraceEvent {
    /// A new span covering `ts_us .. ts_us + dur_us`.
    pub fn span(name: &'static str, ts_us: f64, dur_us: f64, track: Track) -> Self {
        TraceEvent {
            name,
            phase: EventPhase::Span,
            ts_us,
            dur_us: dur_us.max(0.0),
            track,
            request: None,
            lane: None,
            class: None,
            iteration: None,
            args: Vec::new(),
        }
    }

    /// A new instant marker at `ts_us`.
    pub fn instant(name: &'static str, ts_us: f64, track: Track) -> Self {
        TraceEvent {
            phase: EventPhase::Instant,
            dur_us: 0.0,
            ..TraceEvent::span(name, ts_us, 0.0, track)
        }
    }

    /// Attaches the request id.
    pub fn with_request(mut self, id: u64) -> Self {
        self.request = Some(id);
        self
    }

    /// Attaches the lane name.
    pub fn with_lane(mut self, lane: &'static str) -> Self {
        self.lane = Some(lane);
        self
    }

    /// Attaches the workload class.
    pub fn with_class(mut self, class: &'static str) -> Self {
        self.class = Some(class);
        self
    }

    /// Attaches the engine iteration.
    pub fn with_iteration(mut self, iteration: u64) -> Self {
        self.iteration = Some(iteration);
        self
    }

    /// Attaches one extra key/value.
    pub fn with_arg(mut self, key: &'static str, value: ArgValue) -> Self {
        self.args.push((key, value));
        self
    }

    /// The numeric track (Chrome `tid`) this event renders on. Request
    /// tracks are offset so they never collide with worker tracks.
    pub fn track_id(&self) -> u64 {
        match self.track {
            Track::FrontDoor => 0,
            Track::Worker(i) => 1 + i as u64,
            Track::Request(id) => REQUEST_TRACK_BASE + id,
        }
    }
}

/// First Chrome `tid` used for per-request tracks; worker tracks sit below.
pub const REQUEST_TRACK_BASE: u64 = 1_000;

/// The drained contents of a collector.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSnapshot {
    /// Buffered events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events overwritten because the ring was full.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// Renders the snapshot as Chrome trace-event JSON (see
    /// [`crate::chrome_trace_json`]).
    pub fn chrome_trace(&self) -> String {
        crate::chrome::chrome_trace_json(self)
    }
}

/// The bounded, lock-minimal span collector. See the module docs.
#[derive(Debug)]
pub struct TraceCollector {
    level: TraceLevel,
    capacity: usize,
    epoch: Instant,
    ring: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl TraceCollector {
    /// Creates a collector for `config`, with its epoch at "now".
    pub fn new(config: TraceConfig) -> Self {
        TraceCollector {
            level: config.level,
            capacity: config.capacity.max(1),
            epoch: Instant::now(),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// The configured level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Whether span recording is on — callers should branch on this before
    /// assembling an event, so the off path does no work at all.
    pub fn enabled(&self) -> bool {
        self.level.spans_enabled()
    }

    /// Microseconds since the collector's epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Microseconds from the epoch to `at` (0 for instants before the
    /// epoch).
    pub fn ts_us_of(&self, at: Instant) -> f64 {
        at.checked_duration_since(self.epoch)
            .map(|d| d.as_secs_f64() * 1e6)
            .unwrap_or(0.0)
    }

    /// Buffers one event; drops (and counts) the oldest when full. No-op
    /// below [`TraceLevel::Full`].
    pub fn record(&self, event: TraceEvent) {
        if !self.enabled() {
            return;
        }
        let mut ring = self.ring.lock().expect("trace ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Events overwritten so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies the buffered events out (oldest first) without clearing them.
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = self.ring.lock().expect("trace ring poisoned");
        TraceSnapshot {
            events: ring.iter().cloned().collect(),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Exports the buffered events as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        self.snapshot().chrome_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_gate_spans_and_histograms() {
        assert!(!TraceLevel::Off.histograms_enabled());
        assert!(!TraceLevel::Off.spans_enabled());
        assert!(TraceLevel::Histograms.histograms_enabled());
        assert!(!TraceLevel::Histograms.spans_enabled());
        assert!(TraceLevel::Full.spans_enabled());
        assert_eq!(TraceLevel::default(), TraceLevel::Histograms);
        assert_eq!(TraceConfig::default().level, TraceLevel::Histograms);
        assert_eq!(TraceConfig::full().level.name(), "full");
    }

    #[test]
    fn collector_below_full_records_nothing() {
        let c = TraceCollector::new(TraceConfig::histograms());
        c.record(TraceEvent::instant("submit", c.now_us(), Track::FrontDoor));
        assert!(c.snapshot().events.is_empty());
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let c = TraceCollector::new(TraceConfig::full().with_capacity(4));
        for i in 0..10u64 {
            c.record(TraceEvent::span("execute", i as f64, 1.0, Track::Request(i)).with_request(i));
        }
        let snap = c.snapshot();
        assert_eq!(snap.events.len(), 4, "ring holds the most recent window");
        assert_eq!(snap.dropped, 6);
        // The survivors are the newest events, oldest first.
        let ids: Vec<u64> = snap.events.iter().filter_map(|e| e.request).collect();
        assert_eq!(ids, [6, 7, 8, 9]);
    }

    #[test]
    fn timestamps_are_monotonic_from_the_epoch() {
        let c = TraceCollector::new(TraceConfig::full());
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a && a >= 0.0);
        if let Some(before_epoch) = Instant::now().checked_sub(std::time::Duration::from_secs(60)) {
            assert_eq!(c.ts_us_of(before_epoch), 0.0, "pre-epoch clamps to zero");
        }
        assert!(c.ts_us_of(Instant::now()) >= a);
    }

    #[test]
    fn tracks_never_collide() {
        let front = TraceEvent::instant("shed", 0.0, Track::FrontDoor);
        let worker = TraceEvent::span("iteration", 0.0, 1.0, Track::Worker(3));
        let request = TraceEvent::span("queue", 0.0, 1.0, Track::Request(3));
        assert_eq!(front.track_id(), 0);
        assert_eq!(worker.track_id(), 4);
        assert_eq!(request.track_id(), REQUEST_TRACK_BASE + 3);
    }
}
