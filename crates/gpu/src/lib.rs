//! Simulated GPU device.
//!
//! The paper's platform is an NVIDIA Tesla V100. DeepUM interacts with the
//! GPU through exactly three hardware mechanisms, all reproduced here:
//!
//! * **fault batches** — the faulted accesses the driver drains from the
//!   GPU's fault buffer, delivered already grouped by UM block
//!   ([`fault::FaultEntry`], Section 2.3);
//! * the **page-fault / replay protocol** — a faulting access stalls until
//!   the driver migrates the page and sends a replay signal, charged as a
//!   flat per-batch stall ([`engine::GpuEngine`], Section 2.2);
//! * **kernel launches** — the unit of work whose page-access pattern
//!   DeepUM's correlation tables memorize ([`kernel::KernelLaunch`]).
//!
//! The engine is generic over a [`engine::UmBackend`], the interface the
//! UM driver implements. This keeps the device model free of driver
//! policy, mirroring the hardware/driver split of the real system.

#![forbid(unsafe_code)]

pub mod engine;
pub mod fault;
pub mod kernel;

pub use engine::{BackendError, EngineError, GpuEngine, KernelRunStats, UmBackend};
pub use fault::{AccessKind, FaultEntry};
pub use kernel::{BlockAccess, ExecSignature, KernelLaunch};
