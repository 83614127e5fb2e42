//! Event counters shared by every layer of the simulation.
//!
//! The paper's key quantitative instrument is the *number of GPU page
//! faults per training iteration* (Table 5), because the V100 exposes no
//! prefetch-accuracy counter. `Counters` records that and the surrounding
//! traffic (migrations, evictions, invalidations, prefetches) so each
//! experiment can report exactly what the paper reports.

use serde::{Deserialize, Serialize};

/// Declares [`Counters`] from one field list and derives from the same
/// list everything that must name every field: [`Counters::merge`],
/// [`Counters::delta_since`], and the declaration-order array view
/// ([`Counters::to_array`] / [`Counters::from_array`]) the snapshot
/// codec serializes. Adding a counter is one line in the invocation
/// below.
macro_rules! counters {
    ($($(#[$meta:meta])* $field:ident,)*) => {
        /// Passive bag of monotonically increasing event counters.
        ///
        /// Fields are public on purpose: this is compound, passive data written by
        /// the simulator's hot paths and read by the reporting layer.
        ///
        /// # Example
        ///
        /// ```
        /// use deepum_sim::metrics::Counters;
        ///
        /// let mut a = Counters::default();
        /// a.gpu_page_faults += 10;
        /// let mut b = Counters::default();
        /// b.gpu_page_faults += 5;
        /// a.merge(&b);
        /// assert_eq!(a.gpu_page_faults, 15);
        /// ```
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
        pub struct Counters {
            $($(#[$meta])* pub $field: u64,)*
        }

        impl Counters {
            /// Number of counters.
            pub const LEN: usize = [$(stringify!($field)),*].len();

            /// Adds every counter of `other` into `self`.
            pub fn merge(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
            }

            /// Difference `self - earlier`, for per-interval (e.g. per-iteration)
            /// reporting.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if any counter of `earlier` exceeds the
            /// corresponding counter of `self` (counters are monotonic).
            pub fn delta_since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - earlier.$field,)*
                }
            }

            /// Every counter in declaration order — the order of the serde
            /// output and of the snapshot codec.
            pub fn to_array(&self) -> [u64; Counters::LEN] {
                [$(self.$field),*]
            }

            /// Rebuilds counters from [`Counters::to_array`] output.
            pub fn from_array(values: [u64; Counters::LEN]) -> Counters {
                let [$($field),*] = values;
                Counters { $($field),* }
            }
        }
    };
}

counters! {
    /// GPU page faults observed by the fault handler (post fault-buffer,
    /// pre deduplication) — the quantity in Table 5.
    gpu_page_faults,
    /// Fault-handler invocations (one per fault-buffer drain).
    fault_batches,
    /// Faulted UM blocks processed by the handler loop (after grouping).
    faulted_blocks,
    /// Pages migrated host → device on demand (fault path).
    pages_faulted_in,
    /// Pages migrated host → device by the prefetcher.
    pages_prefetched,
    /// Prefetch commands consumed by the migration thread.
    prefetch_commands,
    /// Prefetched pages later touched by the GPU before eviction.
    prefetch_hits,
    /// Prefetched pages evicted (or invalidated) untouched.
    prefetch_wasted,
    /// Prefetch commands dropped because no device space was free and
    /// pre-eviction was disabled.
    prefetch_dropped,
    /// Pages evicted device → host on the fault-handling critical path.
    pages_evicted_demand,
    /// Pages evicted device → host by DeepUM's pre-eviction (off-path).
    pages_preevicted,
    /// Pages dropped without write-back because their PT block was
    /// inactive (Section 5.2).
    pages_invalidated,
    /// Bytes moved host → device.
    bytes_h2d,
    /// Bytes moved device → host.
    bytes_d2h,
    /// Kernel launches intercepted by the runtime.
    kernels_launched,
    /// Next-kernel predictions made from the execution-ID table.
    exec_predictions,
    /// Next-kernel predictions that turned out wrong.
    exec_mispredictions,
    /// Chaining walks started by the prefetching thread.
    chain_walks,
    /// UM-block correlation-table lookups.
    block_table_lookups,
    /// UM-block correlation-table insertions/updates.
    block_table_updates,
}

impl Counters {
    /// Creates a zeroed counter bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total pages moved host → device (fault path + prefetch path).
    pub fn pages_migrated_in(&self) -> u64 {
        self.pages_faulted_in + self.pages_prefetched
    }

    /// Total pages moved or dropped device → host.
    pub fn pages_evicted(&self) -> u64 {
        self.pages_evicted_demand + self.pages_preevicted + self.pages_invalidated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = Counters::new();
        a.gpu_page_faults = 3;
        a.bytes_h2d = 100;
        let mut b = Counters::new();
        b.gpu_page_faults = 4;
        b.pages_prefetched = 7;
        a.merge(&b);
        assert_eq!(a.gpu_page_faults, 7);
        assert_eq!(a.pages_prefetched, 7);
        assert_eq!(a.bytes_h2d, 100);
    }

    #[test]
    fn delta_since_subtracts() {
        let mut early = Counters::new();
        early.kernels_launched = 10;
        let mut late = early;
        late.kernels_launched = 25;
        late.gpu_page_faults = 5;
        let d = late.delta_since(&early);
        assert_eq!(d.kernels_launched, 15);
        assert_eq!(d.gpu_page_faults, 5);
    }

    #[test]
    fn array_view_round_trips_in_declaration_order() {
        let mut c = Counters::new();
        c.gpu_page_faults = 1;
        c.block_table_updates = 20;
        let a = c.to_array();
        assert_eq!(a.len(), 20);
        assert_eq!((a[0], a[19]), (1, 20));
        assert_eq!(Counters::from_array(a), c);
    }

    #[test]
    fn aggregates() {
        let c = Counters {
            pages_faulted_in: 2,
            pages_prefetched: 3,
            pages_evicted_demand: 1,
            pages_preevicted: 4,
            pages_invalidated: 5,
            ..Counters::default()
        };
        assert_eq!(c.pages_migrated_in(), 5);
        assert_eq!(c.pages_evicted(), 10);
    }
}
