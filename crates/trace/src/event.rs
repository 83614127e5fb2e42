//! The structured event vocabulary of the tracing layer.
//!
//! Every variant carries only integers, booleans, small enums, and (for
//! kernel names) pre-existing strings — no floats, so rendered traces
//! are byte-stable across platforms, and no `format!` on the emit path.
//! Timestamps are *virtual* nanoseconds ([`deepum_sim::time::Ns`]
//! values passed as raw `u64`), never wall clock.

use serde::{Deserialize, Serialize};

/// Why an eviction victim was selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictReason {
    /// Oldest-epoch LRU block on the demand fault path.
    LruDemand,
    /// Oldest-epoch LRU block chosen by off-path pre-eviction.
    LruPre,
    /// Host OOM on write-back: a fully invalidatable victim was
    /// preferred so no backing-store copy is needed.
    HostOomInvalidatable,
    /// Second pass: the protected (predicted-window) set had to be
    /// overridden because nothing unprotected was left to evict.
    ProtectedOverride,
}

/// Degradation level of the prefetch watchdog, mirrored from
/// `deepum_sim::faultinject::DegradationState` so this crate stays
/// dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WatchdogMode {
    /// Prefetching at full configured degree.
    Normal,
    /// Prefetch degree halved.
    Throttled,
    /// Correlation prefetching off until cooldown.
    Disabled,
}

/// Steady-state memory-pressure classification of the pressure
/// governor. Defined here (rather than in `deepum_um::pressure`) so
/// trace events can carry it while this crate stays dependency-free;
/// the governor uses the type directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PressureLevel {
    /// Refault ratio below the elevated threshold; no mitigation.
    Normal,
    /// Refault ratio elevated; victim cooldown active, window held.
    Elevated,
    /// Sustained ping-pong; prefetch window shrunk until pressure drops.
    Thrashing,
}

/// Kind of an injected (chaos) fault observed by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectKind {
    /// Host-to-device DMA failure.
    DmaH2d,
    /// Device-to-host DMA failure.
    DmaD2h,
    /// Host backing store refused a write-back.
    HostOom,
    /// Fault-buffer storm (batch limit shrunk).
    FaultStorm,
    /// Correlation-table record dropped.
    CorrDrop,
    /// Kernel launch delayed.
    LaunchDelay,
    /// Device reset (hard fault).
    DeviceReset,
    /// UM driver crash (hard fault).
    DriverCrash,
    /// Uncorrectable ECC error poisoning correlation state.
    EccError,
}

/// `cudaMemAdvise`-modeled placement hint applied to a UM block.
/// Mirrored from `deepum_um::hints::Advice` so this crate stays
/// dependency-free; the hint table uses the type directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AdviceKind {
    /// Data is mostly read: keep a host copy valid so eviction never
    /// needs a write-back (duplicated read-mostly weight).
    ReadMostly,
    /// Preferred residency is the device: evict only as a last resort.
    PreferredLocation,
    /// Device accesses the range but need not keep it resident; re-fault
    /// cost is reduced (mapping kept).
    AccessedBy,
}

/// Degradation-ladder level of the SLO-aware serving layer. `Ord`
/// follows severity: `Full < ReducedWindow < DemandOnly < Shed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ServeLevel {
    /// Correlation prefetching at full configured degree.
    Full,
    /// Prefetch window pressure-shrunk (`shed_load`).
    ReducedWindow,
    /// Correlation prefetching off; demand paging only.
    DemandOnly,
    /// New requests are refused with a typed `RequestShed`.
    Shed,
}

/// Why a serving request was shed instead of executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The degradation ladder is at [`ServeLevel::Shed`]: the endpoint
    /// refuses new work until pressure and miss-rate recover.
    Overload,
    /// Injected soft faults exhausted the per-request retry budget.
    RetriesExhausted,
}

/// One structured trace event.
///
/// Block numbers are raw `u64` indices (`BlockNum::index()`), page and
/// byte quantities are totals for the event, and `*_ns` durations are
/// virtual nanoseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A kernel launch entered the GPU engine.
    KernelBegin {
        /// Per-run launch ordinal.
        seq: u64,
        /// Kernel name from the launch spec.
        name: String,
    },
    /// The launch finished (all fault rounds drained, compute retired).
    KernelEnd {
        /// Per-run launch ordinal (matches the open `KernelBegin`).
        seq: u64,
        /// Page faults the launch generated.
        faults: u64,
        /// Fault-handling stall within the launch.
        stall_ns: u64,
    },
    /// One fault batch was drained into the UM driver.
    FaultBufferDrain {
        /// Faulted pages handed to the fault handler (the batch's
        /// page count).
        entries: u64,
    },
    /// Faulting accesses stalled on address translation while the batch
    /// was serviced.
    TlbStall {
        /// Stall duration charged to the clock.
        ns: u64,
    },
    /// Pages of one UM block migrated host → device.
    PageMigration {
        /// UM block index.
        block: u64,
        /// Pages moved.
        pages: u64,
        /// True when moved by the prefetcher, false on the fault path.
        prefetch: bool,
        /// Bytes transferred over the interconnect.
        bytes: u64,
    },
    /// One DMA transfer completed (either direction).
    DmaTransfer {
        /// Bytes moved.
        bytes: u64,
        /// Direction: true = host → device.
        to_device: bool,
        /// Injected failures retried before success.
        retries: u64,
    },
    /// An eviction victim was chosen.
    EvictVictim {
        /// UM block index of the victim.
        block: u64,
        /// Why this block.
        reason: EvictReason,
    },
    /// Pages dropped without write-back (inactive PT block).
    Invalidate {
        /// UM block index.
        block: u64,
        /// Pages invalidated.
        pages: u64,
    },
    /// Dirty pages written back device → host.
    WriteBack {
        /// UM block index.
        block: u64,
        /// Pages written back.
        pages: u64,
        /// Bytes transferred.
        bytes: u64,
    },
    /// The GPU touched pages that the prefetcher had staged.
    PrefetchHit {
        /// UM block index.
        block: u64,
        /// Previously-untouched prefetched pages now used.
        pages: u64,
    },
    /// The execution-ID table predicted the next kernel.
    CorrelationPredict {
        /// True when the prediction matched the actual launch.
        hit: bool,
    },
    /// The chain walk followed a correlation edge.
    ChainFollow {
        /// UM block the walk emitted a command for.
        block: u64,
        /// Kernels ahead of execution the walk currently is.
        depth: u64,
    },
    /// A prefetch command entered the migration queue.
    PrefetchEnqueue {
        /// UM block index.
        block: u64,
        /// Pages the command covers.
        pages: u64,
    },
    /// A prefetch command was dropped (queue full / no space).
    PrefetchDrop {
        /// UM block index.
        block: u64,
    },
    /// The prefetch watchdog changed state.
    WatchdogTransition {
        /// State before.
        from: WatchdogMode,
        /// State after.
        to: WatchdogMode,
    },
    /// ECC poisoning degraded DeepUM to pure demand paging.
    TablesPoisoned {
        /// UM block whose correlation state was poisoned.
        block: u64,
    },
    /// The chaos layer injected a fault here.
    InjectedFault {
        /// What was injected.
        kind: InjectKind,
    },
    /// The memory-pressure governor reclassified steady-state pressure.
    PressureLevelChanged {
        /// Level before.
        from: PressureLevel,
        /// Level after.
        to: PressureLevel,
        /// EWMA refault score (percent) that drove the transition.
        score_pct: u64,
    },
    /// Victim selection passed over a block in refault cooldown.
    VictimCooldownSkip {
        /// UM block index that was spared.
        block: u64,
        /// Kernel launches left until its cooldown expires.
        remaining_kernels: u64,
    },
    /// The governor resized the effective prefetch window.
    PredictedWindowResized {
        /// Effective prefetch degree before.
        from_degree: u64,
        /// Effective prefetch degree after.
        to_degree: u64,
        /// Pressure level that drove the resize.
        level: PressureLevel,
    },
    /// The executor captured a checkpoint.
    Checkpoint {
        /// Snapshot size in bytes.
        bytes: u64,
    },
    /// A hard fault was recovered by restoring a checkpoint. The sim
    /// clock rewinds here, so timestamps are monotone only *between*
    /// `Restored` markers.
    Restored {
        /// Journaled kernels replayed after the restore.
        replayed: u64,
    },
    /// The scheduler admitted a tenant onto the shared device.
    TenantAdmitted {
        /// Raw tenant index.
        tenant: u32,
        /// Guaranteed resident floor granted, in pages.
        floor_pages: u64,
        /// Scheduling priority (higher = more kernel slots per cycle).
        priority: u32,
    },
    /// Admission control refused a tenant whose floor cannot be met.
    TenantDenied {
        /// Raw tenant index.
        tenant: u32,
        /// Pages the tenant's guaranteed floor requires.
        need: u64,
        /// Pages of floor headroom actually available.
        avail: u64,
    },
    /// Fair-share eviction charged a victim block against a tenant.
    TenantEvictionCharged {
        /// Raw tenant index the eviction was charged to.
        tenant: u32,
        /// UM block index of the victim.
        block: u64,
        /// Resident pages the victim gave up.
        pages: u64,
    },
    /// The scheduler broadcast the system-wide pressure level to a
    /// tenant so it can shed load (shrink prefetch, defer admission).
    PressureSignal {
        /// The broadcast level.
        level: PressureLevel,
    },
    /// A serving request entered an endpoint's queue.
    RequestArrived {
        /// Serving endpoint index.
        endpoint: u32,
        /// Per-run request ordinal.
        request: u64,
        /// Absolute virtual-time deadline (nanoseconds).
        deadline_ns: u64,
    },
    /// A serving request finished all its decode kernels.
    RequestCompleted {
        /// Serving endpoint index.
        endpoint: u32,
        /// Per-run request ordinal.
        request: u64,
        /// Virtual latency from arrival to completion.
        latency_ns: u64,
        /// True when the request beat its deadline.
        on_time: bool,
    },
    /// A completed request overran its virtual-time deadline.
    DeadlineMissed {
        /// Serving endpoint index.
        endpoint: u32,
        /// Per-run request ordinal.
        request: u64,
        /// Nanoseconds past the deadline at completion.
        over_ns: u64,
    },
    /// A request was refused with a typed reason — never a panic.
    RequestShed {
        /// Serving endpoint index.
        endpoint: u32,
        /// Per-run request ordinal.
        request: u64,
        /// Why it was shed.
        reason: ShedReason,
    },
    /// The degradation ladder moved between levels.
    DegradationTransition {
        /// Serving endpoint index.
        endpoint: u32,
        /// Level before.
        from: ServeLevel,
        /// Level after.
        to: ServeLevel,
        /// Deadline-miss EWMA (percent) that drove the transition.
        miss_pct: u64,
    },
    /// A `cudaMemAdvise`-modeled hint was applied to a UM block.
    HintApplied {
        /// UM block index.
        block: u64,
        /// The advice.
        advice: AdviceKind,
    },
    /// An uncorrectable ECC error retired a device page frame: the frame
    /// joins the blacklist permanently and effective capacity shrinks.
    PageRetired {
        /// Retired device frame number.
        frame: u64,
        /// Effective device capacity (pages) after the retirement.
        capacity_pages: u64,
    },
    /// A resident block was live-migrated off the device because a frame
    /// retirement shrank capacity below the resident set. The write-back
    /// DMA is out-of-band: traced, but charged to no drain or slot.
    BlockRemigrated {
        /// UM block index of the remigrated block.
        block: u64,
        /// Resident pages moved back to the host.
        pages: u64,
    },
    /// A stored checkpoint generation failed its integrity check at
    /// restore (torn write, truncation, or bit flip).
    CheckpointCorrupt {
        /// Generation index, 0 = newest stored.
        generation: u64,
    },
    /// Recovery restored from an older generation after newer ones
    /// failed verification, replaying a correspondingly longer journal.
    RecoveryFellBack {
        /// Generations skipped before one verified (≥ 1).
        generations: u64,
        /// Journaled kernels replayed after the restore.
        replayed: u64,
    },
    /// A capacity shrink revoked a tenant's floor guarantee: the floor
    /// no longer fits the worn device and the scheduler surfaces a typed
    /// floor-lost error instead of livelocking on it.
    FloorLost {
        /// Raw tenant index.
        tenant: u32,
        /// Floor pages the tenant had been guaranteed.
        floor_pages: u64,
        /// Effective device capacity (pages) at revocation.
        capacity_pages: u64,
    },
}

/// An event stamped with its virtual-time nanosecond timestamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Virtual time of emission, nanoseconds.
    pub t: u64,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_serde() {
        let records = vec![
            TraceRecord {
                t: 0,
                event: TraceEvent::KernelBegin {
                    seq: 1,
                    name: "conv".to_string(),
                },
            },
            TraceRecord {
                t: 5,
                event: TraceEvent::EvictVictim {
                    block: 3,
                    reason: EvictReason::HostOomInvalidatable,
                },
            },
            TraceRecord {
                t: 9,
                event: TraceEvent::WatchdogTransition {
                    from: WatchdogMode::Normal,
                    to: WatchdogMode::Throttled,
                },
            },
        ];
        let v = serde::Serialize::to_value(&records);
        let back: Vec<TraceRecord> = serde::Deserialize::from_value(&v).expect("round trip");
        assert_eq!(back, records);
    }
}
