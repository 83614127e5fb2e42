//! Fault records: what the GPU hands the driver per handler pass.
//!
//! "A fault buffer is a circular queue in the NVIDIA GPU. It stores
//! faulted access information. The GPU can generate multiple faults
//! concurrently, and there can be multiple fault entries for the same page
//! in the fault buffer." (Section 2.3.) The driver drains this buffer,
//! deduplicates entries, and groups them by UM block; DeepUM only ever
//! consumes that per-block result. The simulated device delivers the
//! grouped form directly: one [`FaultEntry`] is one block's batch of
//! distinct missing pages, so there is no per-page queue to drain and
//! regroup.

use deepum_mem::{BlockNum, PageMask};
use serde::{Deserialize, Serialize};

/// How a faulted access intended to use the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Load from the page.
    Read,
    /// Store to the page.
    Write,
}

/// One block's fault batch: the pages of `block` whose translation
/// failed, already deduplicated.
///
/// # Example
///
/// ```
/// use deepum_gpu::fault::{AccessKind, FaultEntry};
/// use deepum_mem::{BlockNum, PageMask};
///
/// let batch = FaultEntry {
///     block: BlockNum::new(3),
///     pages: PageMask::first_n(4),
///     kind: AccessKind::Read,
/// };
/// assert_eq!(batch.pages.count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultEntry {
    /// The faulted UM block.
    pub block: BlockNum,
    /// The faulted pages within `block`.
    pub pages: PageMask,
    /// Read or write intent of the access.
    pub kind: AccessKind,
}
