//! Calibrated virtual-time cost model for the simulated platform.
//!
//! The paper's evaluation machine (Table 1) is a dual-socket EPYC host with
//! an NVIDIA Tesla V100 PCIe card (32 GB for Section 6.2, 16 GB for the
//! TensorFlow-based comparison in Section 6.4). The constants below are
//! derived from that platform and from public UM measurements:
//!
//! * PCIe 3.0 ×16 sustains ~12 GB/s effective for page migration traffic.
//! * Handling one GPU page-fault *batch* (interrupt, fault-buffer fetch,
//!   preprocessing, replay) costs tens of microseconds, which is exactly
//!   the overhead DeepUM's prefetching is designed to hide.
//! * Eviction work sits on the fault-handling critical path (Section 5.1),
//!   so evicted bytes are charged inside the handler unless pre-eviction
//!   moved them off-path.
//!
//! Absolute seconds are not the reproduction target (the substrate is a
//! simulator, not the authors' testbed); the model is calibrated so the
//! *ratios* the paper reports — UM vs DeepUM vs Ideal — fall in the
//! observed ranges.

use serde::{Deserialize, Serialize};

use crate::time::Ns;

/// Latency and bandwidth constants of the simulated GPU + host platform.
///
/// Construct via a preset such as [`CostModel::v100_32gb`] and tweak fields
/// through the builder-style `with_*` methods where an experiment needs a
/// variation.
///
/// # Example
///
/// ```
/// use deepum_sim::costs::CostModel;
///
/// let costs = CostModel::v100_16gb().with_pcie_bandwidth(16.0e9);
/// assert_eq!(costs.device_memory_bytes, 16 * (1 << 30));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// GPU device (global) memory capacity in bytes.
    pub device_memory_bytes: u64,
    /// Host (CPU) memory capacity in bytes, the UM backing store.
    pub host_memory_bytes: u64,
    /// Effective PCIe bandwidth for page migration, bytes per second.
    pub pcie_bandwidth_bps: f64,
    /// Fixed per-transfer PCIe/DMA setup latency.
    pub pcie_latency: Ns,
    /// Fixed cost of one fault-handler invocation: interrupt delivery,
    /// fault-buffer fetch, and the replay signal (steps 1 and 9 of Fig. 3).
    pub fault_batch_overhead: Ns,
    /// Per-faulted-page preprocessing: the deduplication and UM-block
    /// grouping of step 2 of Fig. 3, charged per page of a fault batch.
    pub fault_entry_cost: Ns,
    /// Per-faulted-UM-block bookkeeping in the handler loop (steps 3-8).
    pub fault_block_overhead: Ns,
    /// Per-page device memory population (step 5).
    pub populate_page_cost: Ns,
    /// Per-page GPU page-table mapping (step 7).
    pub map_page_cost: Ns,
    /// Per-page unmap + victim bookkeeping during eviction (step 4),
    /// excluding the PCIe write-back which is charged via
    /// [`CostModel::transfer_time`].
    pub evict_page_cost: Ns,
    /// Driver-side cost to process a single prefetch command off the queue.
    pub prefetch_cmd_cost: Ns,
    /// Cost for the correlator thread to record one fault in the tables.
    pub table_update_cost: Ns,
    /// Cost of the runtime's kernel-launch interception: hashing the kernel
    /// name + arguments and the ioctl callback into the driver.
    pub launch_intercept_cost: Ns,
    /// Extra stall charged per fault batch for the faulting SM's locked TLB
    /// (no new translations until all its faults resolve).
    pub tlb_lock_stall: Ns,
}

impl CostModel {
    /// Preset for the paper's primary device: Tesla V100 PCIe 32 GB on a
    /// 512 GB host (Table 1, Sections 6.2-6.3).
    pub fn v100_32gb() -> Self {
        Self {
            device_memory_bytes: 32 * (1 << 30),
            host_memory_bytes: 512 * (1 << 30),
            pcie_bandwidth_bps: 12.0e9,
            pcie_latency: Ns::from_micros(8),
            fault_batch_overhead: Ns::from_micros(20),
            fault_entry_cost: Ns::from_nanos(150),
            fault_block_overhead: Ns::from_micros(4),
            populate_page_cost: Ns::from_nanos(120),
            map_page_cost: Ns::from_nanos(90),
            evict_page_cost: Ns::from_nanos(140),
            prefetch_cmd_cost: Ns::from_nanos(600),
            table_update_cost: Ns::from_nanos(250),
            launch_intercept_cost: Ns::from_micros(2),
            tlb_lock_stall: Ns::from_micros(10),
        }
    }

    /// Preset for the TensorFlow-comparison device: Tesla V100 PCIe 16 GB
    /// (Section 6.4); DeepUM's host memory is capped at 128 GB there to
    /// match Ren et al.'s configuration.
    pub fn v100_16gb() -> Self {
        Self {
            device_memory_bytes: 16 * (1 << 30),
            host_memory_bytes: 128 * (1 << 30),
            ..Self::v100_32gb()
        }
    }

    /// Returns the model with a different device memory capacity.
    pub fn with_device_memory(mut self, bytes: u64) -> Self {
        self.device_memory_bytes = bytes;
        self
    }

    /// Returns the model with a different host memory capacity.
    pub fn with_host_memory(mut self, bytes: u64) -> Self {
        self.host_memory_bytes = bytes;
        self
    }

    /// Returns the model with a different effective PCIe bandwidth.
    pub fn with_pcie_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.pcie_bandwidth_bps = bytes_per_sec;
        self
    }

    /// Time to move `bytes` once over PCIe, including setup latency.
    ///
    /// Zero-byte transfers are free: the driver never issues them.
    pub fn transfer_time(&self, bytes: u64) -> Ns {
        if bytes == 0 {
            return Ns::ZERO;
        }
        self.pcie_latency + Ns::from_secs_f64(bytes as f64 / self.pcie_bandwidth_bps)
    }

    /// Time to stream `bytes` over PCIe as part of an already-running batch
    /// (no per-transfer setup latency). Used when the migration engine
    /// coalesces consecutive blocks.
    pub fn streaming_transfer_time(&self, bytes: u64) -> Ns {
        Ns::from_secs_f64(bytes as f64 / self.pcie_bandwidth_bps)
    }
}

impl Default for CostModel {
    /// Defaults to the paper's primary platform, [`CostModel::v100_32gb`].
    fn default() -> Self {
        Self::v100_32gb()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_only_in_memory() {
        let a = CostModel::v100_32gb();
        let b = CostModel::v100_16gb();
        assert_eq!(a.device_memory_bytes, 2 * b.device_memory_bytes);
        assert!(b.host_memory_bytes < a.host_memory_bytes);
        assert_eq!(a.pcie_bandwidth_bps, b.pcie_bandwidth_bps);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let c = CostModel::v100_32gb();
        let one = c.transfer_time(1 << 20);
        let two = c.transfer_time(2 << 20);
        assert!(two > one);
        // Latency is charged once per transfer.
        assert!(two - c.pcie_latency > (one - c.pcie_latency) * 2 - Ns::from_nanos(2));
    }

    #[test]
    fn zero_transfer_is_free() {
        let c = CostModel::v100_32gb();
        assert_eq!(c.transfer_time(0), Ns::ZERO);
        assert_eq!(c.streaming_transfer_time(0), Ns::ZERO);
    }

    #[test]
    fn streaming_skips_latency() {
        let c = CostModel::v100_32gb();
        let bytes = 4 << 20;
        assert_eq!(
            c.transfer_time(bytes),
            c.pcie_latency + c.streaming_transfer_time(bytes)
        );
    }

    #[test]
    fn builder_overrides() {
        let c = CostModel::v100_32gb()
            .with_device_memory(1 << 30)
            .with_host_memory(2 << 30)
            .with_pcie_bandwidth(1.0e9);
        assert_eq!(c.device_memory_bytes, 1 << 30);
        assert_eq!(c.host_memory_bytes, 2 << 30);
        // 1 GiB at 1 GB/s is just over a second.
        assert!(c.transfer_time(1 << 30) > Ns::from_secs(1));
    }
}
