//! Trace sinks and the shared tracer handle.
//!
//! A [`TraceSink`] decides what happens to each emitted record. The
//! tracer always feeds the [`Timeline`](crate::timeline::Timeline)
//! aggregator regardless of sink, so per-kernel summaries exist even
//! when the raw stream is discarded.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::event::{TraceEvent, TraceRecord};
use crate::report::TraceReport;
use crate::timeline::Timeline;

/// Destination for trace records.
pub trait TraceSink {
    /// Accepts one record. Must not panic and must not touch wall
    /// clocks or ambient randomness: sinks run on the simulation's
    /// deterministic hot path.
    fn record(&mut self, record: TraceRecord);

    /// Records dropped so far (ring overflow). Non-zero is the explicit
    /// "this stream is truncated" marker.
    fn dropped(&self) -> u64 {
        0
    }

    /// Retained records in emission order. Sinks that keep nothing
    /// return an empty slice.
    fn records(&self) -> &[TraceRecord] {
        &[]
    }
}

/// Discards every record. The default when tracing is requested only
/// for the timeline roll-up; one virtual call per event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _record: TraceRecord) {}
}

/// Keeps the last `capacity` records for post-mortem attachment; older
/// records are dropped and counted, never silently lost.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
    /// Scratch for returning the ring in chronological order.
    ordered: Vec<TraceRecord>,
    stale: bool,
    head: usize,
}

impl RingSink {
    /// A ring holding at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buf: Vec::new(),
            capacity: capacity.max(1),
            dropped: 0,
            ordered: Vec::new(),
            stale: false,
            head: 0,
        }
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, record: TraceRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(record);
        } else {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
        self.stale = true;
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn records(&self) -> &[TraceRecord] {
        // Interior mutability is not available through `&self`; the
        // tracer calls `refresh` before reading. Unrefreshed reads see
        // the last ordered view.
        &self.ordered
    }
}

impl RingSink {
    fn refresh(&mut self) {
        if !self.stale {
            return;
        }
        self.ordered.clear();
        self.ordered.extend_from_slice(&self.buf[self.head..]);
        self.ordered.extend_from_slice(&self.buf[..self.head]);
        self.stale = false;
    }
}

/// Keeps every record for export (JSONL / Chrome trace). Unbounded:
/// intended for tests and small diagnostic runs.
#[derive(Debug, Default, Clone)]
pub struct ExportSink {
    records: Vec<TraceRecord>,
}

impl TraceSink for ExportSink {
    fn record(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    fn records(&self) -> &[TraceRecord] {
        &self.records
    }
}

enum SinkImpl {
    Null(NullSink),
    Ring(RingSink),
    Export(ExportSink),
}

impl SinkImpl {
    fn as_sink(&self) -> &dyn TraceSink {
        match self {
            SinkImpl::Null(s) => s,
            SinkImpl::Ring(s) => s,
            SinkImpl::Export(s) => s,
        }
    }

    fn as_sink_mut(&mut self) -> &mut dyn TraceSink {
        match self {
            SinkImpl::Null(s) => s,
            SinkImpl::Ring(s) => s,
            SinkImpl::Export(s) => s,
        }
    }
}

/// The tracer: one sink plus the always-on timeline aggregator.
///
/// Install a shared handle (see [`shared`]) into the engine, the UM
/// backend, and the run configuration; every layer then emits into the
/// same stream with a single `Option` branch when tracing is off.
pub struct Tracer {
    sink: SinkImpl,
    timeline: Timeline,
    emitted: u64,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("emitted", &self.emitted)
            .field("dropped", &self.sink.as_sink().dropped())
            .finish()
    }
}

impl Tracer {
    /// Tracer that keeps only the timeline roll-up.
    pub fn null() -> Self {
        Tracer {
            sink: SinkImpl::Null(NullSink),
            timeline: Timeline::default(),
            emitted: 0,
        }
    }

    /// Tracer keeping the last `capacity` raw records.
    pub fn ring(capacity: usize) -> Self {
        Tracer {
            sink: SinkImpl::Ring(RingSink::new(capacity)),
            timeline: Timeline::default(),
            emitted: 0,
        }
    }

    /// Tracer keeping every raw record for export.
    pub fn export() -> Self {
        Tracer {
            sink: SinkImpl::Export(ExportSink::default()),
            timeline: Timeline::default(),
            emitted: 0,
        }
    }

    /// Emits one event at virtual time `t` nanoseconds.
    pub fn emit(&mut self, t: u64, event: TraceEvent) {
        self.emitted += 1;
        self.timeline.observe(&event);
        self.sink.as_sink_mut().record(TraceRecord { t, event });
    }

    /// Events emitted over the tracer's lifetime.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records dropped by the sink (ring overflow).
    pub fn dropped(&self) -> u64 {
        self.sink.as_sink().dropped()
    }

    /// Retained records in chronological order.
    pub fn records(&mut self) -> &[TraceRecord] {
        if let SinkImpl::Ring(ring) = &mut self.sink {
            ring.refresh();
        }
        self.sink.as_sink().records()
    }

    /// The per-kernel aggregation.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Rolls the run up into the report section attached to
    /// `RunReport` (tail comes from ring sinks only — export sinks
    /// expose the full stream via [`Tracer::records`] instead).
    pub fn report(&mut self) -> TraceReport {
        let tail = match &mut self.sink {
            SinkImpl::Ring(ring) => {
                ring.refresh();
                ring.records().to_vec()
            }
            _ => Vec::new(),
        };
        TraceReport {
            events_emitted: self.emitted,
            events_dropped: self.sink.as_sink().dropped(),
            kernels: self.timeline.kernels().to_vec(),
            outside: self.timeline.outside().clone(),
            tail,
        }
    }

    /// Rendered JSONL, one record per line (see [`crate::export`]).
    pub fn jsonl(&mut self) -> String {
        let records = if let SinkImpl::Ring(ring) = &mut self.sink {
            ring.refresh();
            ring.records()
        } else {
            self.sink.as_sink().records()
        };
        crate::export::render_jsonl(records)
    }

    /// Rendered Chrome `trace_event` JSON (see [`crate::export`]).
    pub fn chrome_trace(&mut self) -> String {
        let records = if let SinkImpl::Ring(ring) = &mut self.sink {
            ring.refresh();
            ring.records()
        } else {
            self.sink.as_sink().records()
        };
        crate::export::render_chrome_trace(records)
    }
}

/// Shared tracer handle threaded through the simulation layers, the
/// same shape as `deepum_sim::faultinject::SharedInjector`.
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Wraps a tracer for installation into multiple layers.
pub fn shared(tracer: Tracer) -> SharedTracer {
    Rc::new(RefCell::new(tracer))
}

/// Emits `event` at virtual time `t` nanoseconds when a tracer is
/// installed; an untraced layer pays one `None` branch. A free function
/// over the field (not a method) so emit sites that hold other field
/// borrows, such as the chain walk, can still reach the tracer.
#[inline]
pub fn emit(tracer: &Option<SharedTracer>, t: u64, event: TraceEvent) {
    if let Some(tr) = tracer {
        tr.borrow_mut().emit(t, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent::TlbStall { ns: n }
    }

    #[test]
    fn null_sink_keeps_only_the_timeline() {
        let mut t = Tracer::null();
        t.emit(1, ev(10));
        assert_eq!(t.emitted(), 1);
        assert_eq!(t.dropped(), 0);
        assert!(t.records().is_empty());
        assert_eq!(t.timeline().outside().stall_ns, 0); // TlbStall not rolled up
    }

    #[test]
    fn ring_sink_overflow_sets_dropped_and_keeps_tail() {
        let mut t = Tracer::ring(3);
        for i in 0..5 {
            t.emit(i, ev(i));
        }
        assert_eq!(t.dropped(), 2);
        let ts: Vec<u64> = t.records().iter().map(|r| r.t).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        let report = t.report();
        assert_eq!(report.events_dropped, 2);
        assert_eq!(report.tail.len(), 3);
    }

    #[test]
    fn export_sink_keeps_everything_in_order() {
        let mut t = Tracer::export();
        for i in 0..10 {
            t.emit(i, ev(i));
        }
        assert_eq!(t.records().len(), 10);
        assert!(t.records().windows(2).all(|w| w[0].t <= w[1].t));
        assert!(t.report().tail.is_empty());
    }
}
