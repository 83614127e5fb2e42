//! Per-kernel timeline aggregation.
//!
//! The aggregator folds the raw event stream into one summary per
//! kernel launch as events arrive, so a roll-up is available even when
//! the tracer keeps no raw records (`Tracer::null`) or only a tail
//! (`Tracer::ring`).
//! All counters are integers; the prefetch hit *ratio* is derived on
//! demand and never serialized, keeping reports byte-stable.

use serde::{Deserialize, Serialize};

use crate::event::TraceEvent;

/// Number of chain-depth histogram buckets; the last bucket saturates
/// (depth `>= CHAIN_DEPTH_BUCKETS - 1`).
pub const CHAIN_DEPTH_BUCKETS: usize = 9;

/// Roll-up of every traced event attributed to one kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelTraceSummary {
    /// Launch ordinal (`u64::MAX` for the out-of-kernel bucket).
    pub seq: u64,
    /// Kernel name (empty for the out-of-kernel bucket).
    pub name: String,
    /// Page faults (from `KernelEnd`).
    pub faults: u64,
    /// Fault-buffer drains.
    pub fault_batches: u64,
    /// Pages migrated in on the demand path.
    pub pages_faulted_in: u64,
    /// Pages migrated in by the prefetcher.
    pub pages_prefetched: u64,
    /// Prefetched pages the GPU actually used.
    pub prefetch_hits: u64,
    /// Pages moved or dropped device → host.
    pub pages_out: u64,
    /// Eviction victims selected.
    pub evictions: u64,
    /// Fault-handling stall, virtual ns.
    pub stall_ns: u64,
    /// Chain-follow depth histogram; bucket `i` counts follows at
    /// `kernels_ahead == i`, last bucket saturating.
    pub chain_depth_hist: Vec<u64>,
}

impl KernelTraceSummary {
    fn new(seq: u64, name: String) -> Self {
        KernelTraceSummary {
            seq,
            name,
            faults: 0,
            fault_batches: 0,
            pages_faulted_in: 0,
            pages_prefetched: 0,
            prefetch_hits: 0,
            pages_out: 0,
            evictions: 0,
            stall_ns: 0,
            chain_depth_hist: vec![0; CHAIN_DEPTH_BUCKETS],
        }
    }

    /// True when no traced activity was attributed to this bucket.
    pub fn is_empty(&self) -> bool {
        self.faults == 0
            && self.fault_batches == 0
            && self.pages_faulted_in == 0
            && self.pages_prefetched == 0
            && self.prefetch_hits == 0
            && self.pages_out == 0
            && self.evictions == 0
            && self.stall_ns == 0
            && self.chain_depth_hist.iter().all(|&n| n == 0)
    }

    /// Fraction of prefetched pages the GPU used; 1.0 when nothing was
    /// prefetched (no prefetch is vacuously accurate).
    pub fn prefetch_hit_ratio(&self) -> f64 {
        if self.pages_prefetched == 0 {
            return 1.0;
        }
        self.prefetch_hits as f64 / self.pages_prefetched as f64
    }

    fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::KernelEnd {
                faults, stall_ns, ..
            } => {
                self.faults += faults;
                self.stall_ns += stall_ns;
            }
            TraceEvent::FaultBufferDrain { .. } => self.fault_batches += 1,
            TraceEvent::PageMigration {
                pages, prefetch, ..
            } => {
                if *prefetch {
                    self.pages_prefetched += pages;
                } else {
                    self.pages_faulted_in += pages;
                }
            }
            TraceEvent::PrefetchHit { pages, .. } => self.prefetch_hits += pages,
            TraceEvent::EvictVictim { .. } => self.evictions += 1,
            TraceEvent::Invalidate { pages, .. } | TraceEvent::WriteBack { pages, .. } => {
                self.pages_out += pages;
            }
            TraceEvent::ChainFollow { depth, .. } => {
                let bucket = (*depth as usize).min(CHAIN_DEPTH_BUCKETS - 1);
                self.chain_depth_hist[bucket] += 1;
            }
            _ => {}
        }
    }
}

/// Streaming aggregator: attributes each event to the currently open
/// kernel launch, or to a catch-all bucket between launches (tensor
/// allocation, checkpointing, out-of-kernel prefetch drains).
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    kernels: Vec<KernelTraceSummary>,
    outside: KernelTraceSummary,
    open: bool,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline {
            kernels: Vec::new(),
            outside: KernelTraceSummary::new(u64::MAX, String::new()),
            open: false,
        }
    }
}

impl Timeline {
    /// Folds one event into the aggregation.
    pub fn observe(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::KernelBegin { seq, name } => {
                self.kernels
                    .push(KernelTraceSummary::new(*seq, name.clone()));
                self.open = true;
            }
            TraceEvent::KernelEnd { .. } => {
                if let Some(cur) = self.kernels.last_mut() {
                    cur.observe(event);
                }
                self.open = false;
            }
            other => {
                let target = if self.open {
                    // `open` is only set right after a push, so
                    // last_mut() cannot miss; fall back defensively.
                    self.kernels.last_mut().unwrap_or(&mut self.outside)
                } else {
                    &mut self.outside
                };
                target.observe(other);
            }
        }
    }

    /// Per-launch summaries in launch order.
    pub fn kernels(&self) -> &[KernelTraceSummary] {
        &self.kernels
    }

    /// The catch-all bucket for events outside any kernel.
    pub fn outside(&self) -> &KernelTraceSummary {
        &self.outside
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(seq: u64) -> TraceEvent {
        TraceEvent::KernelBegin {
            seq,
            name: "k".to_string(),
        }
    }

    #[test]
    fn events_attribute_to_open_kernel() {
        let mut tl = Timeline::default();
        tl.observe(&TraceEvent::PageMigration {
            block: 0,
            pages: 4,
            prefetch: false,
            bytes: 1,
        });
        tl.observe(&begin(0));
        tl.observe(&TraceEvent::PageMigration {
            block: 1,
            pages: 8,
            prefetch: true,
            bytes: 1,
        });
        tl.observe(&TraceEvent::ChainFollow { block: 1, depth: 2 });
        tl.observe(&TraceEvent::ChainFollow {
            block: 1,
            depth: 100,
        });
        tl.observe(&TraceEvent::KernelEnd {
            seq: 0,
            faults: 3,
            stall_ns: 7,
        });
        tl.observe(&TraceEvent::Checkpoint { bytes: 10 });

        assert_eq!(tl.outside().pages_faulted_in, 4);
        let k = &tl.kernels()[0];
        assert_eq!(k.pages_prefetched, 8);
        assert_eq!(k.faults, 3);
        assert_eq!(k.stall_ns, 7);
        assert_eq!(k.chain_depth_hist[2], 1);
        assert_eq!(k.chain_depth_hist[CHAIN_DEPTH_BUCKETS - 1], 1);
    }

    #[test]
    fn hit_ratio_is_vacuously_one() {
        let s = KernelTraceSummary::new(0, String::new());
        assert!((s.prefetch_hit_ratio() - 1.0).abs() < f64::EPSILON);
        assert!(s.is_empty());
    }
}
