//! Multi-tenant UM scheduler.
//!
//! N concurrent tenants — a mix of training and inference jobs — time-
//! share one simulated device through a single shared
//! [`deepum_um::driver::UmDriver`]. Each tenant owns a full private
//! stack (DeepUM driver with its own correlation tables, CUDA runtime
//! at a disjoint VA base, caching allocator, GPU engine, virtual clock,
//! tracer, and fault-injection plan); the scheduler swaps the shared UM
//! driver into a tenant's DeepUM driver for that tenant's kernel slot
//! and back out at the slot end.
//!
//! The scheduler provides four guarantees on top of the slot protocol:
//!
//! * **Fault isolation** — a tenant's injected fault storms, ECC
//!   poisonings, and hard crashes (checkpoint/restore is scoped to the
//!   tenant's own blocks) never perturb a co-tenant's trace: a tenant
//!   running within its guaranteed floor produces a byte-identical
//!   trace to a solo run at the same interleaving.
//! * **Fair-share eviction** — under pressure, victims are charged
//!   against the tenant most over its priority-weighted fair share; no
//!   tenant is evicted below its guaranteed floor while another is over
//!   quota (a `validate()` invariant of the UM driver).
//! * **Pressure signaling and load shedding** — the scheduler
//!   broadcasts the worst per-tenant governor level as a typed
//!   [`deepum_trace::TraceEvent::PressureSignal`]; tenants respond
//!   deterministically by shrinking their prefetch look-ahead, and new
//!   arrivals are deferred while the system thrashes.
//! * **Admission control** — a tenant whose requested floor cannot be
//!   met without breaking already-granted floors is refused with a
//!   typed [`deepum_baselines::report::RunError::AdmissionDenied`]
//!   before it runs a single kernel.
//!
//! # Example
//!
//! ```
//! use deepum_sched::{JobKind, MultiTenant, TenantSpec};
//! use deepum_sim::costs::CostModel;
//! use deepum_torch::models::ModelKind;
//! use deepum_torch::perf::PerfModel;
//!
//! let costs = CostModel::v100_32gb()
//!     .with_device_memory(96 << 20)
//!     .with_host_memory(8 << 30);
//! let outcome = MultiTenant::new(costs, PerfModel::v100())
//!     .tenant(TenantSpec::new(
//!         "trainer",
//!         JobKind::Training { model: ModelKind::MobileNet, batch: 16, iterations: 2 },
//!     ))
//!     .tenant(TenantSpec::new(
//!         "serving",
//!         JobKind::Inference { model: ModelKind::MobileNet, batch: 4, requests: 2 },
//!     ))
//!     .run();
//! let tenants = outcome.report.tenants.as_deref().unwrap_or_default();
//! assert!(tenants.iter().all(|t| t.admitted && t.completed));
//! outcome.validation.expect("shared driver invariants hold");
//! ```

#![forbid(unsafe_code)]

pub mod scheduler;
pub mod slot;
pub mod spec;
pub mod tenant;

pub use scheduler::{MultiTenant, ScheduleOutcome};
pub use slot::{admit, close_slot, open_slot, quota_slot};
pub use spec::{seeded_arrivals, JobKind, TenantSpec};
pub use tenant::{StepOutcome, TenantRun};
