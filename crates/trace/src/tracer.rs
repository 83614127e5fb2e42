//! The tracer and its shared handle.
//!
//! A [`Tracer`] keeps raw records under one of three retentions —
//! nothing, the last *N*, or everything — and always feeds the
//! [`Timeline`](crate::timeline::Timeline) aggregator, so per-kernel
//! summaries exist even when the raw stream is discarded.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::event::{TraceEvent, TraceRecord};
use crate::report::TraceReport;
use crate::timeline::Timeline;

/// Which raw records a tracer keeps.
#[derive(Debug, Clone, Copy)]
enum Retention {
    /// None: the timeline roll-up only.
    Nothing,
    /// The last `n` records, for post-mortem attachment; older records
    /// are dropped and counted, never silently lost.
    Last(usize),
    /// Every record, for export (JSONL / Chrome trace). Unbounded:
    /// intended for tests and small diagnostic runs.
    Everything,
}

/// The tracer: retained raw records plus the always-on timeline
/// aggregator.
///
/// Install a shared handle (see [`shared`]) into the engine, the UM
/// backend, and the run configuration; every layer then emits into the
/// same stream with a single `Option` branch when tracing is off.
pub struct Tracer {
    retention: Retention,
    records: VecDeque<TraceRecord>,
    dropped: u64,
    timeline: Timeline,
    emitted: u64,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("emitted", &self.emitted)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl Tracer {
    fn with_retention(retention: Retention) -> Self {
        Tracer {
            retention,
            records: VecDeque::new(),
            dropped: 0,
            timeline: Timeline::default(),
            emitted: 0,
        }
    }

    /// Tracer that keeps only the timeline roll-up.
    pub fn null() -> Self {
        Self::with_retention(Retention::Nothing)
    }

    /// Tracer keeping the last `capacity` raw records (at least 1).
    pub fn ring(capacity: usize) -> Self {
        Self::with_retention(Retention::Last(capacity.max(1)))
    }

    /// Tracer keeping every raw record for export.
    pub fn export() -> Self {
        Self::with_retention(Retention::Everything)
    }

    /// Emits one event at virtual time `t` nanoseconds. Must not panic
    /// and must not touch wall clocks or ambient randomness: it runs on
    /// the simulation's deterministic hot path.
    pub fn emit(&mut self, t: u64, event: TraceEvent) {
        self.emitted += 1;
        self.timeline.observe(&event);
        match self.retention {
            Retention::Nothing => return,
            Retention::Last(n) if self.records.len() == n => {
                self.records.pop_front();
                self.dropped += 1;
            }
            Retention::Last(_) | Retention::Everything => {}
        }
        self.records.push_back(TraceRecord { t, event });
    }

    /// Events emitted over the tracer's lifetime.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records dropped so far (ring overflow). Non-zero is the explicit
    /// "this stream is truncated" marker.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained records in chronological order.
    pub fn records(&mut self) -> &[TraceRecord] {
        self.records.make_contiguous()
    }

    /// The per-kernel aggregation.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Rolls the run up into the report section attached to
    /// `RunReport` (tail comes from ring tracers only — export tracers
    /// expose the full stream via [`Tracer::records`] instead).
    pub fn report(&mut self) -> TraceReport {
        let tail = match self.retention {
            Retention::Last(_) => self.records().to_vec(),
            Retention::Nothing | Retention::Everything => Vec::new(),
        };
        TraceReport {
            events_emitted: self.emitted,
            events_dropped: self.dropped,
            kernels: self.timeline.kernels().to_vec(),
            outside: self.timeline.outside().clone(),
            tail,
        }
    }

    /// Rendered JSONL, one record per line (see [`crate::export`]).
    pub fn jsonl(&mut self) -> String {
        crate::export::render_jsonl(self.records())
    }

    /// Rendered Chrome `trace_event` JSON (see [`crate::export`]).
    pub fn chrome_trace(&mut self) -> String {
        crate::export::render_chrome_trace(self.records())
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
    fn null_tracer_keeps_only_the_timeline() {
        let mut t = Tracer::null();
        t.emit(1, ev(10));
        assert_eq!(t.emitted(), 1);
        assert_eq!(t.dropped(), 0);
        assert!(t.records().is_empty());
        assert_eq!(t.timeline().outside().stall_ns, 0); // TlbStall not rolled up
    }

    #[test]
    fn ring_tracer_overflow_sets_dropped_and_keeps_tail() {
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
    fn export_tracer_keeps_everything_in_order() {
        let mut t = Tracer::export();
        for i in 0..10 {
            t.emit(i, ev(i));
        }
        assert_eq!(t.records().len(), 10);
        assert!(t.records().windows(2).all(|w| w[0].t <= w[1].t));
        assert!(t.report().tail.is_empty());
    }
}
