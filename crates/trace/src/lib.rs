//! Observability for the DTSVLIW simulator: a typed, cycle-stamped
//! event stream, a bounded flight-recorder ring buffer, a metrics
//! registry (counters + histograms folded into `RunStats`), and
//! pluggable sinks — human-readable text, JSONL, and Chrome trace-event
//! JSON loadable in [Perfetto](https://ui.perfetto.dev).
//!
//! The machine owns an optional [`Tracer`]; every emission site costs a
//! single branch when tracing is disabled. When enabled, each event is
//! stamped with the machine cycle, pushed into the ring buffer (so the
//! last N events survive for postmortems — e.g. on a test-mode
//! divergence), and streamed to the configured sink.
//!
//! ```
//! use dtsvliw_trace::{EngineKind, Stamped, TraceEvent, Tracer};
//!
//! let mut t = Tracer::new(128);
//! t.emit(0, TraceEvent::ModeSwap { to: EngineKind::Primary, pc: 0x2000 });
//! t.emit(17, TraceEvent::Mispredict { pc: 0x2010, target: 0x2040 });
//! assert_eq!(t.tail(10).len(), 2);
//! assert!(matches!(t.tail(1)[0], Stamped { cycle: 17, .. }));
//! ```

mod event;
mod metrics;
mod profile;
mod ring;
mod sink;
mod span;
mod telemetry;

pub use event::{CacheKind, EngineKind, EvictReason, Stamped, TraceEvent};
pub use metrics::{BucketScale, Histogram, Metrics, HIST_BUCKETS};
pub use profile::{
    BlockProfile, BlockProfiler, ExitKind, DEFAULT_HOT_WINDOW, DEFAULT_SAMPLE_PERIOD,
};
pub use ring::FlightRecorder;
pub use sink::{sink_to_writer, EventSink, JsonlSink, PerfettoSink, TextSink, TraceFormat};
pub use span::{merge_perfetto, validate_perfetto, SpanEvent, SpanKind, SpanLog, SpanPhase};
pub use telemetry::{BurstDelta, Heartbeat, HeartbeatRecord, Telemetry};

use std::io;

/// The recording front-end the machine owns: a flight-recorder ring
/// buffer plus an optional streaming sink.
pub struct Tracer {
    ring: FlightRecorder,
    sink: Option<Box<dyn EventSink + Send>>,
    /// First sink I/O error, kept until [`Tracer::finish`]; recording
    /// into the ring continues (an unwritable disk must not kill a
    /// multi-minute simulation that the ring can still explain).
    sink_error: Option<io::Error>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("recorded", &self.ring.recorded())
            .field("has_sink", &self.sink.is_some())
            .finish()
    }
}

impl Tracer {
    /// A tracer recording the last `ring_capacity` events, no sink.
    pub fn new(ring_capacity: usize) -> Self {
        Tracer {
            ring: FlightRecorder::new(ring_capacity),
            sink: None,
            sink_error: None,
        }
    }

    /// A tracer that additionally streams every event to `sink`.
    pub fn with_sink(ring_capacity: usize, sink: Box<dyn EventSink + Send>) -> Self {
        Tracer {
            ring: FlightRecorder::new(ring_capacity),
            sink: Some(sink),
            sink_error: None,
        }
    }

    /// Record one event at `cycle`.
    pub fn emit(&mut self, cycle: u64, event: TraceEvent) {
        let ev = Stamped { cycle, event };
        self.ring.push(ev);
        if let Some(sink) = &mut self.sink {
            if let Err(e) = sink.record(&ev) {
                self.sink_error.get_or_insert(e);
                self.sink = None;
            }
        }
    }

    /// The last `n` recorded events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Stamped> {
        self.ring.tail(n)
    }

    /// Total events emitted (including ones the ring has overwritten).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Events overwritten by ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Close the sink: flush buffered output and terminate the document
    /// (the Perfetto sink closes the open engine-mode span at
    /// `final_cycle` so span durations sum to total cycles). Returns the
    /// first error the sink hit, if any.
    pub fn finish(&mut self, final_cycle: u64) -> io::Result<()> {
        if let Some(mut sink) = self.sink.take() {
            sink.finish(final_cycle)?;
        }
        match self.sink_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Render the last `n` events as a text postmortem dump.
    pub fn dump_tail(&self, n: usize) -> String {
        use std::fmt::Write;
        let tail = self.tail(n);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "--- flight recorder: last {} of {} events ({} dropped) ---",
            tail.len(),
            self.recorded(),
            self.dropped()
        );
        for ev in &tail {
            let _ = writeln!(s, "{ev}");
        }
        s
    }
}
