//! DeepUM — the paper's primary contribution.
//!
//! This crate implements the DeepUM *driver* (the Linux kernel module of
//! the paper, Section 3) on top of the simulated NVIDIA UM driver from
//! `deepum-um`:
//!
//! * [`correlation::ExecCorrelationTable`] — the single execution-ID
//!   correlation table recording kernel-launch history as variable sets
//!   of `(prev3, next)` records (Fig. 6);
//! * [`correlation::BlockCorrelationTable`] — one set-associative UM-block
//!   correlation table per execution ID, with `NumRows × Assoc` ways of
//!   `NumSuccs` MRU-ordered successors plus the *start*/*end* block
//!   pointers used for chaining (Fig. 7);
//! * [`chain`] — the prefetching thread's chaining walk: successor
//!   expansion within the current kernel's table, then hopping to the
//!   predicted next kernel's table at its *end* block (Section 4.2),
//!   emitting [`chain::PrefetchCommand`]s;
//! * [`driver::DeepumDriver`] — the four kernel threads (fault handling,
//!   correlator, prefetching, migration) folded into one deterministic
//!   component that implements the GPU engine's
//!   [`deepum_gpu::engine::UmBackend`] and the runtime's
//!   [`deepum_runtime::interpose::LaunchObserver`]. With the threads
//!   folded together, the paper's single-producer/single-consumer
//!   prefetch queue (Section 3.1) is a bounded `VecDeque`;
//! * the two fault-handling optimizations: **pre-eviction** guided by the
//!   correlation tables (Section 5.1) and **invalidation of UM blocks of
//!   inactive PT blocks** (Section 5.2), toggled via
//!   [`config::DeepumConfig`].

#![forbid(unsafe_code)]

pub mod chain;
pub mod ckpt;
pub mod config;
pub mod correlation;
pub mod driver;
pub mod footprint;
pub mod recovery;
pub mod watchdog;

pub use chain::PrefetchCommand;
pub use config::DeepumConfig;
pub use correlation::{BlockCorrelationTable, ExecCorrelationTable};
pub use driver::DeepumDriver;
pub use footprint::FootprintMap;
pub use recovery::RecoveryReport;
pub use watchdog::{PrefetchWatchdog, WatchdogConfig};
