//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section 6).
//!
//! Each experiment has a binary in `src/bin/` that prints the same rows
//! or series the paper reports and writes a machine-readable JSON copy
//! next to it (under `results/`):
//!
//! | Binary                 | Paper artifact                             |
//! |------------------------|--------------------------------------------|
//! | `fig09_speedup`        | Fig. 9(a) speedups, 9(b) elapsed times, 9(c) energy |
//! | `table03_max_batch`    | Table 3 maximum batch sizes (LMS vs DeepUM) |
//! | `table04_table_size`   | Table 4 correlation-table memory            |
//! | `table05_faults`       | Table 5 page faults per iteration           |
//! | `fig10_ablation`       | Fig. 10 optimization ablation               |
//! | `fig11_degree`         | Fig. 11 prefetch-degree sensitivity         |
//! | `fig12_table_params`   | Table 6 + Fig. 12 block-table geometry      |
//! | `fig13_tf_compare`     | Fig. 13 TensorFlow-based comparison         |
//! | `table07_tf_max_batch` | Table 7 max batches vs TF-based systems     |
//! | `table08_qualitative`  | Table 8 qualitative capability matrix       |
//!
//! Common options on every binary above: `--iters N` (default 3; the
//! first iteration is cold/warm-up), `--scale F` (scales batch sizes
//! *and* device/host memory together, preserving oversubscription
//! ratios when a faster run is wanted; default 1.0 = the paper's
//! configuration), and `--out DIR` (default `results`).
//!
//! Three binaries reproduce no paper artifact: `deepum_suite` (the full
//! cell grid, serial vs parallel), `deepum_mtbench` (multi-tenant and
//! serving throughput), and `deepum_chaos` (the chaos soak: every row of
//! [`chaos::SOAK`], or only the rows named as arguments).
//!
//! Performance is measured end to end, not per data structure:
//! `deepum_suite` times the full cell grid against the digest ratchet,
//! and the standalone `examples/benchmark` package splits a cell's wall
//! time across the layers of the stack.

#![forbid(unsafe_code)]

pub mod cache;
pub mod chaos;
pub mod experiments;
pub mod grids;
pub mod opts;
pub mod suite;
pub mod table;

pub use opts::Opts;
pub use table::Table;
