//! Correlation tables (paper Section 4).
//!
//! DeepUM adapts pair-based correlation prefetching to UM blocks using
//! two table kinds:
//!
//! * [`ExecCorrelationTable`] — one global table over kernel execution
//!   IDs. Each entry holds a *variable* number of `(prev₃, next)`
//!   records, so the next-kernel prediction can use full context: kernel
//!   misprediction is expensive, block misprediction is cheap (Fig. 6).
//! * [`BlockCorrelationTable`] — one per execution ID, set-associative
//!   (`NumRows × Assoc`), each way holding `NumSuccs` MRU-ordered
//!   successor blocks, plus the *start*/*end* block pointers that anchor
//!   chaining (Fig. 7). `NumLevels = 1` because chaining substitutes for
//!   multi-level successor storage.

pub mod block;
pub mod exec;

pub use block::BlockCorrelationTable;
pub use exec::{ExecCorrelationTable, ExecRecord};
