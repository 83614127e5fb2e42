//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 6).
//!
//! [`suite::suite_cells`] is the grid of every simulation the evaluation
//! needs; [`experiments`] renders EXPERIMENTS.md from its reports. The
//! binaries:
//!
//! * `deepum_suite` runs the grid serially and (without `--serial-only`)
//!   on the rayon pool, asserts byte-identity, gates digests and wall
//!   time against `--baseline`, and with `--experiments FILE` renders
//!   EXPERIMENTS.md.
//! * `deepum_mtbench` measures multi-tenant and serving throughput.
//! * `deepum_chaos` runs the chaos soak: every row of [`chaos::SOAK`],
//!   or only the rows named as arguments.
//!
//! The standalone `examples/benchmark` package splits a cell's wall time
//! across the layers of the stack.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod experiments;
pub mod grids;
pub mod meta;
pub mod suite;
pub mod table;

pub use table::Table;
