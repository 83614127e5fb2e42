//! Simulated NVIDIA Unified Memory driver.
//!
//! This crate reproduces the driver-side machinery DeepUM builds on
//! (paper Sections 2.2-2.3):
//!
//! * [`space::UmSpace`] — the unified virtual address space allocator,
//!   backed by host memory (the backing store for oversubscription);
//! * [`block::BlockState`] — per-UM-block bookkeeping: page residency,
//!   last-migration time, prefetch provenance, invalidatable pages;
//! * [`driver::UmDriver`] — the fault-handling pipeline of Figure 3
//!   (fetch → preprocess → space check → evict → populate → transfer →
//!   map → replay), the least-recently-*migrated* eviction policy, and
//!   the migration engine with its PCIe cost model.
//!
//! Used directly, `UmDriver` *is* the paper's "naive UM" baseline:
//! on-demand page migration with no prefetching. DeepUM
//! (`deepum-core`) wraps it, feeding the fault stream into correlation
//! tables and issuing prefetch/pre-evict/invalidate commands through the
//! hook points this crate exposes ([`driver::UmDriver::protected_mut`],
//! [`driver::UmDriver::prefetch_into_gpu`],
//! [`driver::UmDriver::preevict`], and
//! [`driver::UmDriver::mark_invalidatable`]).

#![forbid(unsafe_code)]

pub mod block;
pub mod driver;
pub mod evict;
pub mod hints;
mod invariants;
pub mod pressure;
pub mod scratch;
pub mod snapshot;
pub mod space;
pub mod table;
pub mod tenancy;
pub mod wear;

#[cfg(test)]
mod scan_floor_tests;

pub use block::BlockState;
pub use driver::{EvictCost, MigratePath, UmDriver};
pub use hints::{Advice, HintTable};
pub use pressure::{PressureConfig, PressureGovernor};
pub use scratch::DrainScratch;
pub use snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
pub use space::{UmAllocError, UmSpace};
pub use table::BlockTable;
pub use tenancy::{Tenancy, TenantLedger};
pub use wear::DeviceWear;
