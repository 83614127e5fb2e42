//! Deterministic structured-event tracing for the DeepUM reproduction.
//!
//! The paper's only quantitative window into UM behaviour is the page
//! fault counter (Table 5); this crate records *why*: fault-buffer
//! drains, page migrations with their path, eviction victim choices
//! with their reason, chain follows with depth, watchdog transitions,
//! injected faults — each stamped with the virtual-time nanosecond at
//! which it happened.
//!
//! Design constraints:
//!
//! * **Zero wallclock.** Timestamps come from the simulation clock;
//!   the crate never reads host time (enforced by `deepum-tidy`).
//! * **Byte-stable.** Event payloads are integers, booleans, and small
//!   enums; renderings never contain floats or hash-ordered maps, so a
//!   trace of a given run is always the same bytes.
//! * **Near-zero cost when off.** Layers hold an
//!   `Option<SharedTracer>`; untraced runs pay one `None` branch per
//!   emit site and produce reports byte-identical to pre-tracing
//!   builds.
//!
//! A [`Tracer`] keeps raw records under one of three retentions:
//! nothing ([`Tracer::null`]), the last *N* ([`Tracer::ring`], counting
//! what it drops), or everything ([`Tracer::export`]). All three feed
//! the per-kernel [`Timeline`].
//!
//! # Example
//!
//! ```
//! use deepum_trace::{shared, TraceEvent, Tracer};
//!
//! let tracer = shared(Tracer::export());
//! tracer.borrow_mut().emit(0, TraceEvent::KernelBegin { seq: 0, name: "gemm".into() });
//! tracer.borrow_mut().emit(42, TraceEvent::KernelEnd { seq: 0, faults: 0, stall_ns: 0 });
//! let jsonl = tracer.borrow_mut().jsonl();
//! assert_eq!(jsonl.lines().count(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod export;
pub mod report;
pub mod timeline;
pub mod tracer;

pub use event::{
    AdviceKind, EvictReason, InjectKind, PressureLevel, ServeLevel, ShedReason, TraceEvent,
    TraceRecord, WatchdogMode,
};
pub use report::TraceReport;
pub use timeline::{KernelTraceSummary, Timeline, CHAIN_DEPTH_BUCKETS};
pub use tracer::{emit, shared, SharedTracer, Tracer};
