//! Unified Memory address-space primitives.
//!
//! CUDA Unified Memory manages a single virtual address space shared by
//! host and device. The NVIDIA driver (and therefore DeepUM) manages that
//! space at two granularities:
//!
//! * a **page** — 4 KiB, the fault granularity, and
//! * a **UM block** — up to 512 contiguous pages (2 MiB), the driver's unit
//!   of fault grouping, migration bookkeeping, and DeepUM's prefetching
//!   granularity (Sections 2.3 and 4.2 of the paper).
//!
//! This crate provides the strongly typed addresses ([`UmAddr`],
//! [`PageNum`], [`BlockNum`]), byte/page/block ranges, the 512-bit
//! [`PageMask`] used for per-block residency and access footprints, and
//! the VA-stripe layout ([`stripe`]) every per-block table keys on.
//!
//! # Example
//!
//! ```
//! use deepum_mem::{ByteRange, UmAddr, PAGE_BYTES, PAGES_PER_BLOCK};
//!
//! let range = ByteRange::new(UmAddr::new(0), 3 * PAGE_BYTES + 1);
//! assert_eq!(range.pages().count(), 4); // partial pages round up
//! assert_eq!(PAGES_PER_BLOCK, 512);
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod bitmap;
pub mod range;
pub mod stripe;

pub use addr::{BlockNum, PageNum, UmAddr};
pub use bitmap::{DenseBlockSet, PageMask};
pub use range::{BlockFootprints, BlockRange, ByteRange, PageRange};

/// Size of a UM page in bytes (4 KiB).
pub const PAGE_SIZE: usize = 4096;

/// Maximum number of contiguous pages grouped into one UM block.
pub const PAGES_PER_BLOCK: usize = 512;

/// Size of a full UM block in bytes (2 MiB).
pub const BLOCK_SIZE: usize = PAGE_SIZE * PAGES_PER_BLOCK;

// The three `u64` mirrors below and `u64_from_usize` are the blessed
// widening sites for the whole workspace: address math is done in u64,
// sizes are configured in usize, and every other file goes through these
// instead of scattering `as` casts (see DESIGN.md §10, lint cast-safety).

/// [`PAGE_SIZE`] as `u64`, for byte-address arithmetic.
// deepum-tidy: allow(cast-safety) -- widening a 4096 literal; definition site of the typed constant
pub const PAGE_BYTES: u64 = PAGE_SIZE as u64;

/// [`PAGES_PER_BLOCK`] as `u64`, for page-index arithmetic.
// deepum-tidy: allow(cast-safety) -- widening a 512 literal; definition site of the typed constant
pub const PAGES_PER_BLOCK_U64: u64 = PAGES_PER_BLOCK as u64;

/// [`BLOCK_SIZE`] as `u64`, for byte-address arithmetic.
// deepum-tidy: allow(cast-safety) -- widening a 2 MiB literal; definition site of the typed constant
pub const BLOCK_BYTES: u64 = BLOCK_SIZE as u64;

/// Widens a host `usize` (page counts, indices) into the `u64` address
/// domain. Lossless on every supported target (`usize` ≤ 64 bits).
#[inline]
pub const fn u64_from_usize(n: usize) -> u64 {
    // deepum-tidy: allow(cast-safety) -- usize -> u64 is a widening cast on all supported targets
    n as u64
}

/// Identity of one tenant sharing a UM address space.
///
/// Defined here — the workspace's dependency root — so block ownership
/// tags (`deepum_um`), per-tenant ledgers, and the scheduler can all
/// name tenants without new cross-crate edges. The raw `u32` doubles as
/// the wire form in trace events and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The raw index.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl core::fmt::Display for TenantId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t{}", self.0)
    }
}
