//! The trace section attached to a run report when tracing is on.

use serde::{Deserialize, Serialize};

use crate::event::TraceRecord;
use crate::timeline::KernelTraceSummary;

/// Roll-up of one traced run: per-kernel summaries, stream accounting,
/// and (for ring tracers) the retained tail of raw records.
///
/// Attached to `deepum_baselines::report::RunReport` as an optional
/// member that is omitted entirely when tracing is off, so untraced
/// reports stay byte-identical to pre-tracing builds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    /// Events emitted across the run.
    pub events_emitted: u64,
    /// Events dropped by a ring tracer's overflow. Non-zero marks the
    /// `tail` as truncated.
    pub events_dropped: u64,
    /// One summary per kernel launch, in launch order.
    pub kernels: Vec<KernelTraceSummary>,
    /// Events outside any kernel (allocation, checkpoints, drains).
    pub outside: KernelTraceSummary,
    /// Last retained raw records (ring tracers only; empty otherwise).
    pub tail: Vec<TraceRecord>,
}

impl TraceReport {
    /// Whole-run prefetch hit ratio; 1.0 when nothing was prefetched.
    pub fn prefetch_hit_ratio(&self) -> f64 {
        let prefetched: u64 = self.kernels.iter().map(|k| k.pages_prefetched).sum::<u64>()
            + self.outside.pages_prefetched;
        if prefetched == 0 {
            return 1.0;
        }
        let hits: u64 =
            self.kernels.iter().map(|k| k.prefetch_hits).sum::<u64>() + self.outside.prefetch_hits;
        hits as f64 / prefetched as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::tracer::Tracer;

    #[test]
    fn report_round_trips_through_serde() {
        let mut t = Tracer::ring(2);
        t.emit(
            0,
            TraceEvent::KernelBegin {
                seq: 0,
                name: "gemm".to_string(),
            },
        );
        t.emit(
            3,
            TraceEvent::PageMigration {
                block: 1,
                pages: 2,
                prefetch: true,
                bytes: 8192,
            },
        );
        t.emit(4, TraceEvent::PrefetchHit { block: 1, pages: 2 });
        t.emit(
            5,
            TraceEvent::KernelEnd {
                seq: 0,
                faults: 1,
                stall_ns: 10,
            },
        );
        let report = t.report();
        assert_eq!(report.events_emitted, 4);
        assert_eq!(report.events_dropped, 2);
        assert_eq!(report.kernels[0].faults, 1);
        assert!((report.prefetch_hit_ratio() - 1.0).abs() < f64::EPSILON);
        let v = serde::Serialize::to_value(&report);
        let back = TraceReport::from_value(&v).expect("round trip");
        assert_eq!(back, report);
    }
}
