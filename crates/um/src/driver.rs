//! The UM driver: fault handling, migration, and eviction.
//!
//! [`UmDriver`] implements the NVIDIA fault-handling pipeline of paper
//! Figure 3. On its own it reproduces the **naive UM baseline** (every
//! experiment's denominator): pages migrate on demand, evictions use the
//! least-recently-migrated policy and sit on the fault-handling critical
//! path. The hook points used by DeepUM are:
//!
//! * [`UmDriver::protected_mut`] — blocks the eviction scan must avoid
//!   (the pre-eviction victim filter, Section 5.1), and
//!   [`UmDriver::protect`], its insert-only form;
//! * [`UmDriver::prefetch_into_gpu`] — block migration off the fault
//!   path, charged to the compute-overlap budget;
//! * [`UmDriver::preevict`] — eviction off the fault path (Section 5.1);
//! * [`UmDriver::mark_invalidatable`] — pages of inactive PT blocks that
//!   may be dropped without write-back (Section 5.2).
//!
//! Demand eviction and pre-eviction go through one victim scan and one
//! per-block eviction. A multi-tenant driver runs the scan over
//! fair-share charge scopes; an untenanted driver is the one-scope case.

use deepum_gpu::engine::{BackendError, PressureStats};
use deepum_gpu::fault::{AccessKind, FaultEntry};
use deepum_mem::{
    u64_from_usize, BlockNum, ByteRange, DenseBlockSet, PageMask, TenantId, PAGE_BYTES,
};
use deepum_sim::costs::CostModel;
use deepum_sim::faultinject::SharedInjector;
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;
use deepum_trace::{EvictReason, InjectKind, PressureLevel, SharedTracer, TraceEvent};

use crate::evict::{victim_scan, LruMigrated, VictimPolicy};
use crate::hints::{Advice, HintTable};
use crate::pressure::{PressureConfig, PressureGovernor};
use crate::scratch::{DrainScratch, Victim};
use crate::table::BlockTable;
use crate::tenancy::{charge_order, Tenancy, TenantLedger};
use crate::wear::DeviceWear;

/// Which path a host→device migration took; determines counter
/// attribution and prefetch-provenance tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigratePath {
    /// On-demand, inside the fault handler (critical path).
    Demand,
    /// Issued by a prefetcher, overlapped with compute.
    Prefetch,
}

/// Which path an eviction took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvictPath {
    /// Inside the fault handler (step 4 of Fig. 3) — critical path.
    Demand,
    /// DeepUM pre-eviction — off the critical path.
    Pre,
}

/// The passes of one victim scan, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Injected host OOM only: victims whose whole residency is
    /// invalidatable (Section 5.2) free device pages without touching
    /// host memory at all.
    HostOom,
    /// Least-recently-migrated order honouring the protected set and —
    /// under the governor — in-flight pins and refault cooldowns, with
    /// ReadMostly-duplicated blocks last.
    Lru,
    /// Correctness over prediction: if protected or cooling blocks are
    /// all that remain, evict them anyway (LRU order). Only the in-flight
    /// kernel's pins keep their immunity — evicting those would refault
    /// the kernel's own working set and livelock the replay loop.
    Override,
}

/// Cost of an eviction, split by resource.
///
/// Demand eviction runs synchronously inside the fault handler, so both
/// components land on the GPU's critical path. Pre-eviction runs on the
/// migration thread: the write-back rides the device→host DMA channel,
/// which is full duplex with host→device prefetch traffic — the split
/// lets DeepUM charge the two against separate budgets.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvictCost {
    /// Driver bookkeeping (unmap, victim selection).
    pub bookkeeping: Ns,
    /// Device→host write-back transfer time.
    pub writeback: Ns,
}

impl EvictCost {
    /// Total serialized cost (critical-path view).
    pub fn total(&self) -> Ns {
        self.bookkeeping + self.writeback
    }
}

/// The simulated NVIDIA UM driver for one GPU.
///
/// # Example
///
/// ```
/// use deepum_sim::costs::CostModel;
/// use deepum_um::driver::UmDriver;
///
/// let driver = UmDriver::new(CostModel::v100_32gb());
/// assert_eq!(driver.free_pages(), driver.capacity_pages());
/// ```
#[derive(Debug)]
pub struct UmDriver {
    costs: CostModel,
    pub(crate) capacity_pages: u64,
    pub(crate) resident_pages: u64,
    pub(crate) blocks: BlockTable,
    pub(crate) lru: LruMigrated,
    /// Reusable buffers for the fault-drain and eviction hot paths.
    scratch: DrainScratch,
    /// Blocks the eviction scan passes over while anything else fits:
    /// DeepUM's predicted window. In tenancy mode this is the active
    /// tenant's set, parked in its ledger between slots like the
    /// governor, so it is empty while no slot is open.
    pub(crate) protected: DenseBlockSet,
    pub(crate) counters: Counters,
    injector: Option<SharedInjector>,
    tracer: Option<SharedTracer>,
    /// Monotone drain-batch epoch; bumps whenever a migration happens at
    /// a different virtual time than the previous one.
    pub(crate) migrate_epoch: u64,
    /// Virtual time of the current epoch's migrations.
    pub(crate) epoch_now: Ns,
    /// Memory-pressure governor; `None` (the default) means the thrash
    /// detection and mitigation code paths are absent entirely, keeping
    /// ungoverned runs byte-identical to pre-governor builds.
    pub(crate) pressure: Option<PressureGovernor>,
    /// Multi-tenant ledgers; `None` (the default) keeps the tenancy
    /// machinery absent entirely, so single-tenant runs stay
    /// byte-identical to pre-tenancy builds.
    pub(crate) tenancy: Option<Tenancy>,
    /// `cudaMemAdvise`-modeled hint table. Empty (the default) means
    /// every hint query is one branch, keeping unhinted runs
    /// byte-identical to pre-hint builds.
    pub(crate) hints: HintTable,
    /// ECC page-retirement blacklist and usable-frame map. Pristine (the
    /// default) means the wear machinery is absence-of-code: capacity
    /// never shrinks and no wear section is written to snapshots.
    pub(crate) wear: DeviceWear,
}

impl UmDriver {
    /// Creates a driver for a device whose capacity comes from `costs`.
    pub fn new(costs: CostModel) -> Self {
        let capacity_pages = costs.device_memory_bytes / PAGE_BYTES;
        UmDriver {
            costs,
            capacity_pages,
            resident_pages: 0,
            blocks: BlockTable::new(),
            lru: LruMigrated::new(),
            scratch: DrainScratch::default(),
            protected: DenseBlockSet::new(),
            counters: Counters::new(),
            injector: None,
            tracer: None,
            migrate_epoch: 0,
            epoch_now: Ns::ZERO,
            pressure: None,
            tenancy: None,
            hints: HintTable::new(),
            wear: DeviceWear::new(capacity_pages),
        }
    }

    /// Installs the memory-pressure governor: refault tracking, victim
    /// cooldown, in-flight pinning. Off by default — an ungoverned
    /// driver runs exactly the pre-governor code.
    pub fn install_pressure_governor(&mut self, cfg: PressureConfig) {
        self.pressure = Some(PressureGovernor::new(cfg));
        self.lru.clear_floor();
    }

    /// Current pressure classification; `Normal` when no governor is
    /// installed.
    pub fn pressure_level(&self) -> PressureLevel {
        self.pressure
            .as_ref()
            .map_or(PressureLevel::Normal, PressureGovernor::level)
    }

    /// Governor statistics, `None` when no governor is installed.
    pub fn pressure_stats(&self) -> Option<PressureStats> {
        self.pressure.as_ref().map(PressureGovernor::stats)
    }

    /// Retires the in-flight kernel in the governor: folds the kernel's
    /// refault ratio into the thrash score, advances the kernel clock,
    /// and releases the in-flight pins. Emits `PressureLevelChanged`
    /// when the classification moved. No-op without a governor.
    pub fn pressure_kernel_tick(&mut self, now: Ns) {
        let change = match self.pressure.as_mut() {
            Some(g) => g.end_kernel(),
            None => return,
        };
        // The retired kernel's pins are released.
        self.lru.clear_floor();
        if let Some(c) = change {
            self.trace(
                now,
                TraceEvent::PressureLevelChanged {
                    from: c.from,
                    to: c.to,
                    score_pct: c.score_pct,
                },
            );
        }
    }

    /// Installs a shared fault injector. Migrations then roll transient
    /// DMA failures (retried with exponential backoff) and evictions
    /// roll transient host OOMs (victim selection prefers blocks that
    /// need no write-back).
    pub fn install_injector(&mut self, injector: SharedInjector) {
        self.injector = Some(injector);
    }

    /// Installs a shared tracer. Migrations, eviction victim choices,
    /// invalidations, write-backs, DMA transfers, and prefetch hits are
    /// then emitted as structured events stamped with the fault drain's
    /// virtual time.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// Emits one event when a tracer is installed: a single branch
    /// otherwise, keeping untraced runs at pre-tracing cost.
    fn trace(&self, now: Ns, event: TraceEvent) {
        if let Some(tr) = &self.tracer {
            tr.borrow_mut().emit(now.as_nanos(), event);
        }
    }

    /// Device capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Pages currently resident on the device.
    pub fn resident_pages(&self) -> u64 {
        self.resident_pages
    }

    /// Pages of device memory still free.
    pub fn free_pages(&self) -> u64 {
        self.capacity_pages - self.resident_pages
    }

    /// The cost model in effect.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Snapshot of the driver's event counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The eviction-protected block set.
    pub fn protected(&self) -> &DenseBlockSet {
        &self.protected
    }

    /// The eviction-protected block set, for DeepUM to update as its
    /// predictions change. Clears the scan floor: the caller may
    /// unprotect a block the scan passed over.
    pub fn protected_mut(&mut self) -> &mut DenseBlockSet {
        self.lru.clear_floor();
        &mut self.protected
    }

    /// Protects `block` from the first eviction pass. Insert-only, so
    /// the scan floor stays valid.
    pub fn protect(&mut self, block: BlockNum) {
        self.protected.insert(block);
    }

    /// Subset of `pages` in `block` not resident on the device.
    pub fn resident_miss(&self, block: BlockNum, pages: &PageMask) -> PageMask {
        match self.blocks.get(block) {
            Some(state) => pages.subtract(&state.resident),
            None => *pages,
        }
    }

    /// Subset of `pages` whose valid copy is on the host (these — and
    /// only these — cost a PCIe transfer to migrate in; the rest of a
    /// miss is unpopulated and populates on device for free).
    pub fn host_valid(&self, block: BlockNum, pages: &PageMask) -> PageMask {
        match self.blocks.get(block) {
            Some(state) => pages.intersect(&state.host_valid),
            None => PageMask::empty(),
        }
    }

    /// Resident-page mask of `block` (empty if never migrated).
    pub fn resident_mask(&self, block: BlockNum) -> PageMask {
        self.blocks
            .get(block)
            .map(|s| s.resident)
            .unwrap_or_else(PageMask::empty)
    }

    /// Records a successful device access: clears prefetch provenance
    /// (those prefetches were useful).
    pub fn touch(&mut self, now: Ns, block: BlockNum, pages: &PageMask) {
        if let Some(g) = self.pressure.as_mut() {
            // Minimum-resident guarantee: the in-flight kernel's blocks
            // stay pinned until it retires.
            g.pin_inflight(block);
        }
        if let Some(state) = self.blocks.get_mut(block) {
            let hits = state.prefetched_untouched.intersect(pages);
            if !hits.is_empty() {
                state.prefetched_untouched.subtract_with(&hits);
                self.counters.prefetch_hits += hits.count_u64();
                self.trace(
                    now,
                    TraceEvent::PrefetchHit {
                        block: block.index(),
                        pages: hits.count_u64(),
                    },
                );
            }
        }
    }

    /// Applies a `cudaMemAdvise`-modeled hint to every UM block the
    /// byte range touches (hints are block-granular). Emits one
    /// `HintApplied` event per block whose flag was newly set and
    /// returns that count. ReadMostly affects *future* migrations:
    /// pages already resident when the hint lands were migrated
    /// exclusively and stay so until re-migrated.
    pub fn advise(&mut self, now: Ns, range: ByteRange, advice: Advice) -> u64 {
        self.lru.clear_floor();
        let mut applied = 0u64;
        for block in range.blocks() {
            if self.hints.advise(block, advice) {
                applied += 1;
                self.trace(
                    now,
                    TraceEvent::HintApplied {
                        block: block.index(),
                        advice,
                    },
                );
            }
        }
        applied
    }

    /// Read access to the hint table (report material).
    pub fn hints(&self) -> &HintTable {
        &self.hints
    }

    /// Marks (`invalid = true`) or unmarks the pages of `range` as
    /// belonging to an inactive PT block. Marked pages are dropped
    /// without write-back when evicted (Section 5.2).
    pub fn mark_invalidatable(&mut self, range: ByteRange, invalid: bool) {
        for (block, mask) in range.block_footprints() {
            let state = self.blocks.ensure(block);
            if invalid {
                state.invalidatable.union_with(&mask);
            } else {
                state.invalidatable.subtract_with(&mask);
            }
        }
    }

    /// Forgets all driver state for `range`: its UM space was freed back
    /// to the system (e.g. a cached PyTorch segment was released), so any
    /// device residency is meaningless and is dropped without write-back.
    pub fn release_range(&mut self, range: ByteRange) {
        let mut owner_drops = std::mem::take(&mut self.scratch.owner_drops);
        owner_drops.clear();
        for (block, mask) in range.block_footprints() {
            if let Some(state) = self.blocks.get_mut(block) {
                let dropped = state.resident.intersect(&mask);
                if !dropped.is_empty() {
                    let untouched = state.prefetched_untouched.intersect(&dropped);
                    self.counters.prefetch_wasted += untouched.count_u64();
                    state.prefetched_untouched.subtract_with(&dropped);
                    state.resident.subtract_with(&dropped);
                    self.resident_pages -= dropped.count_u64();
                    if let Some(tid) = state.owner {
                        owner_drops.push((tid, dropped.count_u64()));
                    }
                    if state.resident.is_empty() {
                        self.lru.remove(block, state.last_migrated);
                    }
                }
                state.invalidatable.subtract_with(&mask);
                state.host_valid.subtract_with(&mask);
            }
            // Hints are block-granular; a freed range drops every hint
            // on the blocks it touches (the advice described memory
            // that no longer exists).
            if !self.hints.is_empty() {
                // Pages of the block that stay resident lose their
                // duplicate: the device copy becomes the only one, as
                // when a write collapses the hint.
                if self.hints.is_read_mostly(block) {
                    if let Some(state) = self.blocks.get_mut(block) {
                        let duplicated = state.host_valid.intersect(&state.resident);
                        state.host_valid.subtract_with(&duplicated);
                    }
                }
                self.hints.clear(block);
                self.lru.clear_floor();
            }
        }
        // Owners are only ever tagged while tenancy is active, so this
        // stays a no-op (and allocation-free) for single-tenant runs.
        if !owner_drops.is_empty() {
            if let Some(t) = self.tenancy.as_mut() {
                for &(tid, n) in &owner_drops {
                    if let Some(l) = t.tenants.get_mut(&tid) {
                        l.resident_pages = l.resident_pages.saturating_sub(n);
                    }
                }
            }
        }
        owner_drops.clear();
        self.scratch.owner_drops = owner_drops;
    }

    /// The Figure-3 fault-handling pipeline. Returns the GPU-visible
    /// stall time. All faulted pages are resident afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::CapacityExceeded`] when a faulted batch
    /// cannot fit on the device even after evicting everything
    /// evictable, and [`BackendError::MissingBlock`] if driver
    /// bookkeeping turns out inconsistent mid-drain. Both mean the
    /// replay could never succeed; the engine aborts the kernel.
    pub fn handle_faults(&mut self, now: Ns, faults: &[FaultEntry]) -> Result<Ns, BackendError> {
        if faults.is_empty() {
            return Ok(Ns::ZERO);
        }
        // Injected hard faults. Retirement and crash schedules share the
        // drain ordinal (each advances its own counter once per drain);
        // a crash scheduled at the same ordinal wins, consuming the
        // retirement un-applied — the crash fires before any driver
        // state is touched, so the snapshot/replay recovery sees a
        // consistent (pre-drain) world.
        // deepum-tidy: allow(hot-path-alloc) -- Rc handle clone (refcount
        // bump), needed to end the injector borrow before retirement
        // mutates the driver.
        if let Some(handle) = self.injector.clone() {
            let retire = {
                let mut inj = handle.borrow_mut();
                let scheduled = inj.take_scheduled_retirement();
                if inj.take_scheduled_driver_crash() {
                    return Err(BackendError::DriverCrash);
                }
                let sampled = inj.roll_page_retirement();
                if sampled {
                    // Sampled ECC hit: uniform over *usable* frames, so
                    // the distribution stays flat as the blacklist grows.
                    Some(inj.roll_retired_frame(self.wear.usable_pages()))
                } else if scheduled {
                    // Scheduled retirements draw nothing from the hard
                    // stream; the mid-device frame keeps them
                    // deterministic regardless of sampling rates.
                    Some(self.wear.usable_pages() / 2)
                } else {
                    None
                }
            };
            if let Some(rank) = retire {
                self.retire_device_page(now, rank)?;
            }
        }
        let pages: u64 = faults.iter().map(|f| f.pages.count_u64()).sum();
        self.counters.gpu_page_faults += pages;
        self.counters.fault_batches += 1;

        // A write fault to a ReadMostly block collapses the hint: the
        // host copy is stale, the device copy becomes authoritative,
        // and the overlap the duplication allowed is dropped
        // (`cudaMemAdviseSetReadMostly` semantics). One branch when the
        // table is empty.
        if !self.hints.is_empty() {
            for f in faults {
                if f.kind == AccessKind::Write && self.hints.collapse_read_mostly(f.block) {
                    self.lru.clear_floor();
                    if let Some(state) = self.blocks.get_mut(f.block) {
                        let stale = state.host_valid.intersect(&state.resident);
                        state.host_valid.subtract_with(&stale);
                    }
                }
            }
        }

        // (1) fetch from the fault buffer + (9) replay signal.
        let mut cost = self.costs.fault_batch_overhead + self.costs.tlb_lock_stall;
        // (2) preprocess: dedup + group by UM block, charged per faulted
        // page; the batch arrives already in that per-block form.
        cost += self.costs.fault_entry_cost * pages;
        self.counters.faulted_blocks += u64_from_usize(faults.len());

        // (3)-(8) per faulted UM block.
        for f in faults {
            cost += self.costs.fault_block_overhead;
            cost += self.migrate_into_gpu(now, f.block, &f.pages, MigratePath::Demand)?;
        }
        Ok(cost)
    }

    // ----- device wear ---------------------------------------------------

    /// Wear state of the device: the ECC blacklist and remigration tally.
    pub fn wear(&self) -> &DeviceWear {
        &self.wear
    }

    /// Retires the usable frame with rank `rank` (0-based over usable
    /// frames): blacklists it, shrinks effective capacity, live-migrates
    /// any overflowing residency off the device, and re-fits tenant
    /// floor guarantees against the shrunk device. The last usable frame
    /// is never retired — a zero-capacity device could neither compute
    /// nor absorb the migration.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::MissingBlock`] when the overflow
    /// remigration hits inconsistent residency bookkeeping.
    fn retire_device_page(&mut self, now: Ns, rank: u64) -> Result<(), BackendError> {
        let usable = self.wear.usable_pages();
        if usable <= 1 {
            return Ok(());
        }
        let Some(frame) = self.wear.frame_at_rank(rank.min(usable - 1)) else {
            return Ok(());
        };
        if !self.wear.retire_frame(frame) {
            return Ok(());
        }
        self.capacity_pages = self.wear.usable_pages();
        self.trace(
            now,
            TraceEvent::PageRetired {
                frame,
                capacity_pages: self.capacity_pages,
            },
        );
        self.remigrate_overflow(now)?;
        self.refit_tenant_floors(now);
        Ok(())
    }

    /// Live-migrates blocks off the device until residency fits the
    /// shrunk capacity. Victims go in least-recently-migrated order; the
    /// write-back DMA is out-of-band (traced and counted, but charged to
    /// no tenant slot and to no drain's critical path — the hardware
    /// moves the data, not the faulting kernel).
    fn remigrate_overflow(&mut self, now: Ns) -> Result<(), BackendError> {
        while self.resident_pages > self.capacity_pages {
            let Some((key, block)) = self.lru.iter().next() else {
                // Resident pages with an empty LRU is a bookkeeping
                // inconsistency; leave it for `validate()` to report
                // rather than spin here.
                break;
            };
            let pages = self.blocks.get(block).map_or(0, |s| s.resident.count_u64());
            if pages == 0 {
                return Err(BackendError::MissingBlock(block));
            }
            let c_before = self.counters;
            self.evict_block(now, block, key, EvictPath::Demand, None, false)?;
            self.wear.note_remigrated(pages);
            self.trace(
                now,
                TraceEvent::BlockRemigrated {
                    block: block.index(),
                    pages,
                },
            );
            // An active slot's counter delta stays clean of the
            // out-of-band eviction (same mechanism as foreign charges).
            if let Some(t) = self.tenancy.as_mut().filter(|t| t.active.is_some()) {
                t.slot_foreign.merge(&self.counters.delta_since(&c_before));
            }
        }
        Ok(())
    }

    /// Re-fits tenant floor guarantees after a capacity shrink: while
    /// the committed floors exceed the shrunk device, the lowest-priority
    /// tenant (ties broken against the higher id — the later arrival)
    /// loses its floor entirely. Its ledger keeps running — zeroing the
    /// floor rather than deregistering keeps residency accounting intact
    /// — but the `floor_lost` flag is set for the scheduler to surface
    /// as a typed error instead of a livelock.
    fn refit_tenant_floors(&mut self, now: Ns) {
        let capacity = self.capacity_pages;
        loop {
            let Some(t) = self.tenancy.as_mut() else {
                return;
            };
            let committed: u64 = t.tenants.values().map(|l| l.floor_pages).sum();
            if committed <= capacity {
                return;
            }
            let victim = t
                .tenants
                .iter()
                .filter(|(_, l)| l.floor_pages > 0)
                .min_by_key(|(id, l)| (l.priority, std::cmp::Reverse(**id)))
                .map(|(id, _)| *id);
            let Some(tid) = victim else {
                return;
            };
            let Some(l) = t.tenants.get_mut(&tid) else {
                return;
            };
            let floor_pages = std::mem::replace(&mut l.floor_pages, 0);
            l.floor_lost = true;
            self.trace_for(
                Some(tid),
                now,
                TraceEvent::FloorLost {
                    tenant: tid.raw(),
                    floor_pages,
                    capacity_pages: capacity,
                },
            );
        }
    }

    /// True when `tid`'s floor guarantee was revoked by a capacity
    /// shrink. The scheduler surfaces this as a typed floor-lost error
    /// at the tenant's next slot.
    pub fn floor_lost(&self, tid: TenantId) -> bool {
        self.tenancy
            .as_ref()
            .and_then(|t| t.tenants.get(&tid))
            .is_some_and(|l| l.floor_lost)
    }

    /// Migrates `pages` of `block` to the device via `path`. Returns the
    /// time the migration cost (the caller decides whether that time is
    /// critical-path stall or overlapped).
    ///
    /// # Errors
    ///
    /// On the demand path, fails with [`BackendError::CapacityExceeded`]
    /// when the pages cannot fit even after eviction. The prefetch path
    /// never fails: it abandons the prefetch instead (the pages fault on
    /// demand later).
    pub fn migrate_into_gpu(
        &mut self,
        now: Ns,
        block: BlockNum,
        pages: &PageMask,
        path: MigratePath,
    ) -> Result<Ns, BackendError> {
        let missing = self.resident_miss(block, pages);
        let count = missing.count_u64();
        if count == 0 {
            return Ok(Ns::ZERO);
        }

        let mut cost = Ns::ZERO;
        // (4) evict if no space (demand) — or make room for a prefetch.
        if self.free_pages() < count {
            let needed = count - self.free_pages();
            let evict_path = match path {
                MigratePath::Demand => EvictPath::Demand,
                MigratePath::Prefetch => EvictPath::Pre,
            };
            cost += self
                .evict_to_free(now, needed, evict_path, Some(block))?
                .total();
        }
        if self.free_pages() < count {
            match path {
                MigratePath::Demand => {
                    return Err(BackendError::CapacityExceeded {
                        needed_pages: count,
                        capacity_pages: self.capacity_pages,
                    });
                }
                // Best-effort: everything evictable is predicted-in-use,
                // so the prefetch is abandoned (the page will fault on
                // demand instead).
                MigratePath::Prefetch => {
                    self.counters.prefetch_dropped += 1;
                    self.trace(
                        now,
                        TraceEvent::PrefetchDrop {
                            block: block.index(),
                        },
                    );
                    return Ok(cost);
                }
            }
        }

        // (5) populate + (6) transfer + (7) map. Only pages whose valid
        // copy lives on the host move over PCIe; unpopulated pages are
        // allocated device-side on first touch (no transfer).
        let transferable = self
            .blocks
            .get(block)
            .map(|s| missing.intersect(&s.host_valid))
            .unwrap_or_else(PageMask::empty);
        let bytes = transferable.count_u64() * PAGE_BYTES;

        // Injected transient DMA failures: retry with exponential backoff
        // (simulated time). When retries run out, a demand migration is
        // forced through — the replay loop cannot abandon a faulted page —
        // while a prefetch is abandoned and left to the demand path.
        let mut dma_retries = 0u64;
        if bytes > 0 {
            // deepum-tidy: allow(hot-path-alloc) -- Rc handle clone (refcount bump) to release the borrow of self, no heap allocation
            if let Some(handle) = self.injector.clone() {
                let mut inj = handle.borrow_mut();
                let max_retries = inj.plan().max_retries;
                let mut backoff = inj.plan().backoff_base;
                let mut failures = 0u32;
                while inj.roll_h2d_failure() {
                    inj.note_retry(backoff);
                    cost += backoff;
                    backoff = inj.next_backoff(backoff);
                    failures += 1;
                    dma_retries += 1;
                    if failures > max_retries {
                        match path {
                            MigratePath::Demand => break,
                            MigratePath::Prefetch => {
                                inj.note_prefetch_abandoned();
                                drop(inj);
                                self.counters.prefetch_dropped += 1;
                                self.trace(
                                    now,
                                    TraceEvent::InjectedFault {
                                        kind: InjectKind::DmaH2d,
                                    },
                                );
                                self.trace(
                                    now,
                                    TraceEvent::PrefetchDrop {
                                        block: block.index(),
                                    },
                                );
                                return Ok(cost);
                            }
                        }
                    }
                }
            }
        }
        if dma_retries > 0 {
            self.trace(
                now,
                TraceEvent::InjectedFault {
                    kind: InjectKind::DmaH2d,
                },
            );
        }

        cost += self.costs.populate_page_cost * count;
        cost += self.costs.transfer_time(bytes);
        // AccessedBy keeps the device mapping across eviction, so
        // re-migration skips the page-map step.
        if !self.hints.is_accessed_by(block) {
            cost += self.costs.map_page_cost * count;
        }

        // Migrations drained at the same virtual instant share an epoch;
        // a new `now` opens a new one. `validate()` leans on this to
        // reject equal LRU timestamps that came from different drains.
        if self.migrate_epoch == 0 || now != self.epoch_now {
            self.migrate_epoch += 1;
            self.epoch_now = now;
        }
        let epoch = self.migrate_epoch;
        let active_owner = self.tenancy.as_ref().and_then(|t| t.active);
        let read_mostly = self.hints.is_read_mostly(block);
        let state = self.blocks.ensure(block);
        if state.owner.is_none() {
            state.owner = active_owner;
        }
        let block_owner = state.owner;
        let was_resident = !state.resident.is_empty();
        let prev_key = if was_resident || !state.prefetched_untouched.is_empty() {
            Some(state.last_migrated)
        } else {
            None
        };
        state.resident.union_with(&missing);
        // ReadMostly duplication: the host copy stays valid alongside
        // the device copy, so a later eviction needs no write-back.
        if !read_mostly {
            state.host_valid.subtract_with(&missing);
        }
        match path {
            MigratePath::Demand => {
                self.counters.pages_faulted_in += count;
            }
            MigratePath::Prefetch => {
                state.prefetched_untouched.union_with(&missing);
                self.counters.pages_prefetched += count;
            }
        }
        if let Some(g) = self.pressure.as_mut() {
            match path {
                MigratePath::Demand => {
                    if was_resident {
                        // Partial arrival of an already-resident block:
                        // no fresh arrival to classify, but the kernel
                        // is touching it — pin it.
                        g.pin_inflight(block);
                    } else {
                        g.note_demand_arrival(block);
                    }
                }
                MigratePath::Prefetch => {
                    if !was_resident {
                        g.note_prefetch_arrival(block);
                    }
                }
            }
        }
        let prev_key = if was_resident { prev_key } else { None };
        state.last_migrated = now;
        state.last_epoch = epoch;
        self.lru.record_migration(block, prev_key, now);
        self.resident_pages += count;
        if let Some(tid) = block_owner {
            if let Some(t) = self.tenancy.as_mut() {
                if let Some(l) = t.tenants.get_mut(&tid) {
                    l.resident_pages += count;
                }
            }
        }
        self.counters.bytes_h2d += bytes;
        self.trace(
            now,
            TraceEvent::PageMigration {
                block: block.index(),
                pages: count,
                prefetch: path == MigratePath::Prefetch,
                bytes,
            },
        );
        if bytes > 0 {
            self.trace(
                now,
                TraceEvent::DmaTransfer {
                    bytes,
                    to_device: true,
                    retries: dma_retries,
                },
            );
        }
        Ok(cost)
    }

    /// DeepUM prefetch entry point: migrate a whole-block page mask off
    /// the fault path. Returns the migration cost to charge against the
    /// compute-overlap budget.
    pub fn prefetch_into_gpu(&mut self, now: Ns, block: BlockNum, pages: &PageMask) -> Ns {
        // The prefetch path is best-effort by construction — capacity
        // shortfalls and DMA-retry exhaustion abandon the prefetch with
        // Ok — so an error here is unreachable; cost Ns::ZERO keeps the
        // signature infallible for the overlap budget accounting.
        self.migrate_into_gpu(now, block, pages, MigratePath::Prefetch)
            .unwrap_or(Ns::ZERO)
    }

    /// DeepUM pre-eviction: evict least-recently-migrated unprotected
    /// blocks until at least `target_free` pages are free. Returns the
    /// split eviction cost: bookkeeping belongs on the migration
    /// thread's CPU budget and the write-back on the device→host DMA
    /// channel.
    // The workspace result-discard lint bans `.unwrap_or_default()` in
    // this crate; the explicit match keeps the swallowed error visible.
    #[allow(clippy::manual_unwrap_or_default)]
    pub fn preevict(&mut self, now: Ns, target_free: u64) -> EvictCost {
        let target_free = target_free.min(self.capacity_pages);
        if self.free_pages() >= target_free {
            return EvictCost::default();
        }
        let needed = target_free - self.free_pages();
        // Pre-eviction is best-effort and runs off the fault path, so a
        // bookkeeping inconsistency (the only failure mode of the Pre
        // path) degrades to "freed nothing"; the next enabled
        // `validate()` pass reports the corruption itself.
        match self.evict_to_free(now, needed, EvictPath::Pre, None) {
            Ok(cost) => cost,
            Err(_) => EvictCost::default(),
        }
    }

    /// The victim scan: frees at least `needed` device pages, or as many
    /// as the policy allows. An untenanted driver is the one-scope case
    /// of the fair-share scan described below.
    ///
    /// Victims are picked per *scope*: an owner filter, a page budget,
    /// and the protected set and governor that judge eligibility. An
    /// untenanted driver has one scope — every block, no budget, its own
    /// protected set and governor. With a tenant slot active, the scopes
    /// are the tenants over their priority-weighted fair share
    /// ([`charge_order`]), each limited to its own blocks and to its
    /// overage (so a charged tenant never goes below its guaranteed
    /// floor) under its parked protected set and governor, followed by
    /// the active tenant if it is not among them. The active tenant
    /// scans with the driver's installed protected set and governor
    /// (they are its own) and no budget: its demand may take it below
    /// its own floor, but only after every over-quota tenant has been
    /// drained through the override pass, so hint- or cooldown-deferred
    /// over-quota blocks go before a within-floor tenant loses a page.
    ///
    /// Each group of scopes runs up to three passes: [`Pass::HostOom`]
    /// (only under an injected host OOM), [`Pass::Lru`], and
    /// [`Pass::Override`]. The override pass runs on the demand path, and
    /// also for pre-eviction while a tenant slot is active: a tenant's
    /// prefetch is sized against its floor, so abandoning it would leak
    /// a `PrefetchDrop` into the tenant's trace that a solo run would not
    /// have. The scan walks the LRU lazily, once per scope and pass, into
    /// the driver's scratch buffers. The one-scope LRU pass starts just
    /// past the LRU's scan floor and moves it forward over the prefix it
    /// passes over (see [`LruMigrated`]).
    fn evict_to_free(
        &mut self,
        now: Ns,
        needed: u64,
        path: EvictPath,
        exclude: Option<BlockNum>,
    ) -> Result<EvictCost, BackendError> {
        let active = self.active_tenant();
        // Injected transient host OOM: the host cannot take write-back
        // pages right now. The roll uses the installed injector — the
        // shortfall is the active tenant's demand, so its chaos plan
        // owns the roll.
        let host_oom = match &self.injector {
            Some(inj) => inj.borrow_mut().roll_host_oom(),
            None => false,
        };
        if host_oom {
            self.trace(
                now,
                TraceEvent::InjectedFault {
                    kind: InjectKind::HostOom,
                },
            );
        }

        let mut victims = std::mem::take(&mut self.scratch.victims);
        let mut cooldown_skips = std::mem::take(&mut self.scratch.cooldown_skips);
        let mut scopes = std::mem::take(&mut self.scratch.scopes);
        victims.clear();
        cooldown_skips.clear();
        scopes.clear();
        // Over-quota tenants first, then the active tenant (`None`, the
        // whole device, when untenanted) unless it is already charged.
        if let (Some(_), Some(t)) = (active, &self.tenancy) {
            scopes.extend(charge_order(&t.tenants).into_iter().map(Some));
        }
        let over_quota = scopes.len();
        if !scopes.contains(&active) {
            scopes.push(active);
        }
        let override_gate = path == EvictPath::Demand || active.is_some();
        // Only the untenanted, unpartitioned LRU pass resumes at the
        // scan floor; every other scan walks from the front.
        let may_resume = self.untenanted() && self.hints.no_read_mostly();
        let mut freed = 0u64;
        for (first, end) in [(0, over_quota), (over_quota, scopes.len())] {
            for pass in [Pass::HostOom, Pass::Lru, Pass::Override] {
                if (pass == Pass::HostOom && !host_oom)
                    || (pass == Pass::Override && !override_gate)
                {
                    continue;
                }
                for &scope in &scopes[first..end] {
                    if freed >= needed {
                        break;
                    }
                    // A foreign tenant is judged by its parked protected
                    // set and governor and may lose only its overage.
                    let (protected, governor, mut budget) = match self.foreign(scope) {
                        None => (&self.protected, self.pressure.as_ref(), u64::MAX),
                        Some(tid) => {
                            let Some(l) = self.tenant_ledger(tid) else {
                                continue;
                            };
                            let picked: u64 = victims
                                .iter()
                                .filter(|v| v.charge == scope)
                                .map(|v| v.pages)
                                .sum();
                            let budget = l.overage().saturating_sub(picked);
                            (&l.protected, l.governor.as_ref(), budget)
                        }
                    };
                    if budget == 0 {
                        continue;
                    }
                    let policy = VictimPolicy {
                        protected,
                        governor,
                        hints: Some(&self.hints),
                    };
                    // The floor moves past each entry passed over at the
                    // policy probe, up to the first that does anything
                    // else.
                    let floored = may_resume && pass == Pass::Lru;
                    let start = if floored { self.lru.floor() } else { None };
                    let mut floor = start;
                    let mut advancing = floored;
                    // Only the LRU pass defers ReadMostly-duplicated
                    // blocks; host OOM wants the cheapest victims and
                    // the override wants correctness, in plain LRU order.
                    for (key, block) in
                        victim_scan(&self.lru, &self.hints, pass == Pass::Lru, start)
                    {
                        if freed >= needed || budget == 0 {
                            break;
                        }
                        if Some(block) == exclude || victims.iter().any(|v| v.block == block) {
                            advancing = false;
                            continue;
                        }
                        // Policy first: it is a bitset probe, and most
                        // candidates of a long scan are protected.
                        let eligible = match pass {
                            Pass::HostOom | Pass::Lru => policy.first_pass_eligible(block),
                            Pass::Override => policy.override_eligible(block),
                        };
                        // A block passed over purely for its cooldown is
                        // recorded for tracing.
                        let cooling =
                            !eligible && pass == Pass::Lru && policy.skipped_for_cooldown(block);
                        if !eligible && !cooling {
                            if advancing {
                                floor = Some((key, block));
                            }
                            continue;
                        }
                        advancing = false;
                        let Some(state) = self.blocks.get(block) else {
                            return Err(BackendError::MissingBlock(block));
                        };
                        if scope.is_some() && state.owner != scope {
                            continue;
                        }
                        let pages = state.resident.count_u64();
                        // `pages > budget` would take the charged tenant
                        // below its floor: block-granular floors are
                        // exact, not advisory, so the scan moves on.
                        if pages == 0 || pages > budget {
                            continue;
                        }
                        if cooling {
                            let remaining = governor.map_or(0, |g| g.cooldown_remaining(block));
                            cooldown_skips.push((scope, block, remaining));
                            continue;
                        }
                        let reason = match pass {
                            Pass::HostOom => {
                                if !state.resident.subtract(&state.invalidatable).is_empty() {
                                    continue;
                                }
                                EvictReason::HostOomInvalidatable
                            }
                            Pass::Lru => match path {
                                EvictPath::Demand => EvictReason::LruDemand,
                                EvictPath::Pre => EvictReason::LruPre,
                            },
                            Pass::Override => EvictReason::ProtectedOverride,
                        };
                        victims.push(Victim {
                            key,
                            block,
                            reason,
                            charge: scope,
                            pages,
                        });
                        freed += pages;
                        budget -= pages;
                    }
                    if floored {
                        self.lru.set_floor(floor);
                    }
                }
                if freed >= needed {
                    break;
                }
            }
        }
        scopes.clear();
        self.scratch.scopes = scopes;

        if host_oom {
            let fallbacks = victims
                .iter()
                .filter(|v| v.reason == EvictReason::HostOomInvalidatable)
                .count();
            if fallbacks > 0 {
                if let Some(inj) = &self.injector {
                    inj.borrow_mut()
                        .note_writeback_fallbacks(u64_from_usize(fallbacks));
                }
            }
        }

        // Cooldown feedback and traces go to the scope whose governor
        // spared the block.
        for &(scope, block, remaining) in &cooldown_skips {
            if let Some(g) = self.governor_for(scope) {
                g.note_cooldown_skip();
            }
            self.trace_for(
                scope,
                now,
                TraceEvent::VictimCooldownSkip {
                    block: block.index(),
                    remaining_kernels: remaining,
                },
            );
        }
        cooldown_skips.clear();
        self.scratch.cooldown_skips = cooldown_skips;

        let mut cost = EvictCost::default();
        for v in &victims {
            self.trace_for(
                v.charge,
                now,
                TraceEvent::EvictVictim {
                    block: v.block.index(),
                    reason: v.reason,
                },
            );
            if let Some(tid) = v.charge {
                self.trace_for(
                    v.charge,
                    now,
                    TraceEvent::TenantEvictionCharged {
                        tenant: tid.raw(),
                        block: v.block.index(),
                        pages: v.pages,
                    },
                );
            }
            let c = self.evict_block(now, v.block, v.key, path, v.charge, host_oom)?;
            cost.bookkeeping += c.bookkeeping;
            cost.writeback += c.writeback;
        }
        victims.clear();
        self.scratch.victims = victims;
        Ok(cost)
    }

    /// True when no tenant is registered: the victim scan then has one
    /// scope, judged by the driver's own protected set and governor.
    fn untenanted(&self) -> bool {
        self.tenancy.as_ref().is_none_or(|t| t.tenants.is_empty())
    }

    /// The tenant `charge` names when it is not the active one; `None`
    /// for the active tenant, for no charge, and whenever no slot is
    /// active. A foreign tenant's tracer, injector, governor and
    /// protected set are parked in its ledger.
    fn foreign(&self, charge: Option<TenantId>) -> Option<TenantId> {
        let active = self.active_tenant()?;
        charge.filter(|&c| c != active)
    }

    /// The governor that judges `charge`'s blocks: a foreign tenant's
    /// parked one, otherwise the installed one.
    fn governor_for(&mut self, charge: Option<TenantId>) -> Option<&mut PressureGovernor> {
        match self.foreign(charge) {
            None => self.pressure.as_mut(),
            Some(tid) => self
                .tenancy
                .as_mut()
                .and_then(|t| t.tenants.get_mut(&tid))
                .and_then(|l| l.governor.as_mut()),
        }
    }

    /// Routes one event to the tenant it is charged to: everything but a
    /// foreign charge goes through the installed tracer at `now`; a
    /// foreign tenant's events land in its own parked tracer, stamped
    /// with the end of its last slot (its clock has not advanced since).
    fn trace_for(&self, charge: Option<TenantId>, now: Ns, event: TraceEvent) {
        let Some(tid) = self.foreign(charge) else {
            return self.trace(now, event);
        };
        if let Some(l) = self.tenant_ledger(tid) {
            if let Some(tr) = &l.tracer {
                tr.borrow_mut().emit(l.last_active_now.as_nanos(), event);
            }
        }
    }

    /// Evicts one victim on behalf of `charge` (`None`: no tenant is
    /// charged). The owner's ledger loses the residency whatever the
    /// path. A foreign charge gets the governor feedback, traces,
    /// injected DMA faults and counters, accrues the eviction cost as
    /// reclaim debt on its own ledger, and costs the active tenant
    /// nothing — a solo run of the active tenant would not have
    /// performed that write-back.
    fn evict_block(
        &mut self,
        now: Ns,
        block: BlockNum,
        lru_key: Ns,
        path: EvictPath,
        charge: Option<TenantId>,
        host_oom: bool,
    ) -> Result<EvictCost, BackendError> {
        let foreign = self.foreign(charge);
        let c_before = foreign.map(|_| self.counters);
        let read_mostly = self.hints.is_read_mostly(block);
        let Some(state) = self.blocks.get_mut(block) else {
            return Err(BackendError::MissingBlock(block));
        };
        let owner = state.owner;
        let resident = state.resident;
        let count = resident.count_u64();
        debug_assert!(count > 0, "evicting empty block");

        let wasted = state.prefetched_untouched.intersect(&resident);
        self.counters.prefetch_wasted += wasted.count_u64();

        // Pages of inactive PT blocks are invalidated: no write-back.
        let invalidated = resident.intersect(&state.invalidatable);
        let mut writeback = resident.subtract(&invalidated);
        // ReadMostly duplication: pages whose host copy is still valid
        // drop off the device for free — the duplicate is the backing
        // copy, so no transfer is owed.
        if read_mostly {
            writeback.subtract_with(&state.host_valid);
        }
        let writeback_bytes = writeback.count_u64() * PAGE_BYTES;

        state.resident = PageMask::empty();
        state.prefetched_untouched = PageMask::empty();
        state.host_valid.union_with(&writeback);
        self.lru.remove(block, lru_key);
        self.resident_pages -= count;
        if let Some(l) = owner.and_then(|o| self.tenancy.as_mut()?.tenants.get_mut(&o)) {
            l.resident_pages = l.resident_pages.saturating_sub(count);
        }
        if let Some(g) = self.governor_for(charge) {
            g.note_eviction(block);
        }

        self.counters.pages_invalidated += invalidated.count_u64();
        match path {
            EvictPath::Demand => self.counters.pages_evicted_demand += writeback.count_u64(),
            EvictPath::Pre => self.counters.pages_preevicted += writeback.count_u64(),
        }
        self.counters.bytes_d2h += writeback_bytes;

        if !invalidated.is_empty() {
            self.trace_for(
                charge,
                now,
                TraceEvent::Invalidate {
                    block: block.index(),
                    pages: invalidated.count_u64(),
                },
            );
        }

        let mut dma_retries = 0u64;
        let mut writeback_cost = self.costs.transfer_time(writeback_bytes);
        if writeback_bytes > 0 {
            // Write-back DMA faults roll on the charged tenant's chaos
            // plan — a foreign tenant's flaky link cannot slow the
            // active tenant's slot (or perturb its injector's stream).
            let injector = match foreign {
                None => self.injector.as_ref(),
                Some(tid) => self.tenant_ledger(tid).and_then(|l| l.injector.as_ref()),
            };
            if let Some(handle) = injector {
                let mut inj = handle.borrow_mut();
                // A write-back can never be abandoned — that would lose
                // the only valid copy — so DMA failures retry with
                // exponential backoff until they run out of budget, then
                // force through.
                let max_retries = inj.plan().max_retries;
                let mut backoff = inj.plan().backoff_base;
                let mut failures = 0u32;
                while failures < max_retries && inj.roll_d2h_failure() {
                    inj.note_retry(backoff);
                    writeback_cost += backoff;
                    backoff = inj.next_backoff(backoff);
                    failures += 1;
                    dma_retries += 1;
                }
                if host_oom {
                    // Host page reclaim stalls this write-back once.
                    writeback_cost += inj.plan().backoff_base;
                }
            }
            if dma_retries > 0 {
                self.trace_for(
                    charge,
                    now,
                    TraceEvent::InjectedFault {
                        kind: InjectKind::DmaD2h,
                    },
                );
            }
            self.trace_for(
                charge,
                now,
                TraceEvent::WriteBack {
                    block: block.index(),
                    pages: writeback.count_u64(),
                    bytes: writeback_bytes,
                },
            );
            self.trace_for(
                charge,
                now,
                TraceEvent::DmaTransfer {
                    bytes: writeback_bytes,
                    to_device: false,
                    retries: dma_retries,
                },
            );
        }

        let cost = EvictCost {
            bookkeeping: self.costs.evict_page_cost * count,
            writeback: writeback_cost,
        };
        let Some(t) = self.tenancy.as_mut() else {
            return Ok(cost);
        };
        if let Some(l) = charge.and_then(|tid| t.tenants.get_mut(&tid)) {
            l.evictions_charged += 1;
        }
        let Some((tid, c0)) = foreign.zip(c_before) else {
            return Ok(cost);
        };
        // A foreign charge's counters move from the active tenant's slot
        // delta to its own ledger, so both stay solo-clean.
        let delta = self.counters.delta_since(&c0);
        t.slot_foreign.merge(&delta);
        let over_elsewhere = t
            .tenants
            .iter()
            .any(|(id, l)| *id != tid && l.overage() > 0);
        if let Some(l) = t.tenants.get_mut(&tid) {
            l.counters.merge(&delta);
            l.reclaim_debt += cost.total();
            l.reclaim_debt_total += cost.total();
            if l.resident_pages < l.floor_pages && over_elsewhere {
                l.floor_violations += 1;
            }
        }
        Ok(EvictCost::default())
    }

    // ----- multi-tenancy -------------------------------------------------

    /// Registers a tenant on the shared driver, reserving `floor_pages`
    /// of guaranteed residency. The tenant's governor, tracer, and
    /// injector are parked in its ledger next to an empty protected set,
    /// and all four are installed on the driver for the duration of each
    /// of its slots.
    ///
    /// # Errors
    ///
    /// Admission control: returns `Err((need, avail))` when the
    /// requested floor exceeds the capacity left after the floors of
    /// already-registered tenants — granting it could force another
    /// tenant below its guarantee.
    pub fn register_tenant(
        &mut self,
        tid: TenantId,
        floor_pages: u64,
        priority: u32,
        governor: Option<PressureGovernor>,
        tracer: Option<SharedTracer>,
        injector: Option<SharedInjector>,
    ) -> Result<(), (u64, u64)> {
        let committed: u64 = self
            .tenancy
            .as_ref()
            .map_or(0, |t| t.tenants.values().map(|l| l.floor_pages).sum());
        let avail = self.capacity_pages.saturating_sub(committed);
        if floor_pages > avail {
            return Err((floor_pages, avail));
        }
        // Tenant scopes scan from the LRU front.
        self.lru.clear_floor();
        let t = self.tenancy.get_or_insert_with(Tenancy::default);
        t.tenants.insert(
            tid,
            TenantLedger {
                floor_pages,
                priority: priority.max(1),
                resident_pages: 0,
                protected: DenseBlockSet::new(),
                governor,
                tracer,
                injector,
                counters: Counters::new(),
                evictions_charged: 0,
                reclaim_debt: Ns::ZERO,
                reclaim_debt_total: Ns::ZERO,
                last_active_now: Ns::ZERO,
                floor_violations: 0,
                floor_lost: false,
            },
        );
        Ok(())
    }

    /// Removes a tenant: any device residency it still holds is dropped
    /// without write-back (the job is gone, its pages are meaningless)
    /// and its floor reservation is released for later arrivals.
    pub fn deregister_tenant(&mut self, now: Ns, tid: TenantId) {
        if self.active_tenant() == Some(tid) {
            self.end_tenant_slot(now);
        }
        let mut owned = std::mem::take(&mut self.scratch.owned_blocks);
        owned.clear();
        owned.extend(
            self.blocks
                .iter()
                .filter(|(_, s)| s.owner == Some(tid))
                .map(|(b, _)| b),
        );
        for &block in &owned {
            if let Some(state) = self.blocks.remove(block) {
                let count = state.resident.count_u64();
                if count > 0 {
                    self.lru.remove(block, state.last_migrated);
                    self.resident_pages -= count;
                }
            }
        }
        owned.clear();
        self.scratch.owned_blocks = owned;
        if let Some(t) = self.tenancy.as_mut() {
            t.tenants.remove(&tid);
        }
        self.lru.clear_floor();
    }

    /// Opens `tid`'s kernel slot: installs the tenant's governor,
    /// tracer, injector, and protected set on the driver (so every
    /// existing emission and injection path routes to this tenant with
    /// no per-site dispatch) and snapshots the counter baseline for
    /// slot-delta accounting. Any slot still open is ended first.
    pub fn set_active_tenant(&mut self, tid: TenantId, now: Ns) {
        self.end_tenant_slot(now);
        let c0 = self.counters;
        let Some(t) = self.tenancy.as_mut() else {
            return;
        };
        let Some(ledger) = t.tenants.get_mut(&tid) else {
            return;
        };
        t.active = Some(tid);
        self.lru.clear_floor();
        t.slot_c0 = c0;
        t.slot_foreign = Counters::new();
        std::mem::swap(&mut self.pressure, &mut ledger.governor);
        std::mem::swap(&mut self.protected, &mut ledger.protected);
        // deepum-tidy: allow(hot-path-alloc) -- Rc handle clone (refcount bump) once per tenant slot switch, no heap allocation
        self.tracer = ledger.tracer.clone();
        // deepum-tidy: allow(hot-path-alloc) -- Rc handle clone (refcount bump) once per tenant slot switch, no heap allocation
        self.injector = ledger.injector.clone();
    }

    /// Closes the active tenant's slot: folds the slot's counter delta
    /// (minus foreign-charged activity) into its ledger and parks its
    /// governor, protected set, tracer, and injector.
    pub fn end_tenant_slot(&mut self, now: Ns) {
        let counters = self.counters;
        let Some(t) = self.tenancy.as_mut() else {
            return;
        };
        let Some(prev) = t.active.take() else {
            return;
        };
        self.lru.clear_floor();
        if let Some(ledger) = t.tenants.get_mut(&prev) {
            std::mem::swap(&mut self.pressure, &mut ledger.governor);
            std::mem::swap(&mut self.protected, &mut ledger.protected);
            let own = counters
                .delta_since(&t.slot_c0)
                .delta_since(&t.slot_foreign);
            ledger.counters.merge(&own);
            ledger.last_active_now = now;
            ledger.tracer = self.tracer.take();
            ledger.injector = self.injector.take();
        }
    }

    /// Tenant whose slot is currently active, if any.
    pub fn active_tenant(&self) -> Option<TenantId> {
        self.tenancy.as_ref().and_then(|t| t.active)
    }

    /// Read access to a tenant's ledger.
    pub fn tenant_ledger(&self, tid: TenantId) -> Option<&TenantLedger> {
        self.tenancy.as_ref().and_then(|t| t.tenants.get(&tid))
    }

    /// Counters scoped to the active tenant: its ledger plus the live
    /// slot delta (minus foreign-charged activity). Falls back to the
    /// global counters when no slot is active, so single-tenant callers
    /// see exactly the pre-tenancy values.
    pub fn active_counters(&self) -> Counters {
        let Some(t) = self.tenancy.as_ref() else {
            return self.counters;
        };
        let Some(tid) = t.active else {
            return self.counters;
        };
        let Some(ledger) = t.tenants.get(&tid) else {
            return self.counters;
        };
        let mut c = ledger.counters;
        let own = self
            .counters
            .delta_since(&t.slot_c0)
            .delta_since(&t.slot_foreign);
        c.merge(&own);
        c
    }

    /// Free pages from the active tenant's point of view: headroom under
    /// its guaranteed floor. Sizing prefetch against this (instead of
    /// device-wide free space, which depends on the co-tenants) keeps a
    /// tenant's prefetch decisions identical to a solo run at the same
    /// interleaving. Falls back to the device-wide count when no slot is
    /// active.
    pub fn effective_free_pages(&self) -> u64 {
        match self
            .tenancy
            .as_ref()
            .and_then(|t| t.active.and_then(|tid| t.tenants.get(&tid)))
        {
            Some(l) => l.floor_pages.saturating_sub(l.resident_pages),
            None => self.free_pages(),
        }
    }

    /// Drains the write-back debt accrued against `tid` by evictions
    /// performed during other tenants' slots. The scheduler advances the
    /// tenant's clock by the returned amount at its next slot start, so
    /// the reclaim work is paid by its cause, not by whoever was active.
    pub fn take_reclaim_debt(&mut self, tid: TenantId) -> Ns {
        match self.tenancy.as_mut().and_then(|t| t.tenants.get_mut(&tid)) {
            Some(l) => std::mem::replace(&mut l.reclaim_debt, Ns::ZERO),
            None => Ns::ZERO,
        }
    }

    /// Removes and returns the installed pressure governor. Used at
    /// tenant registration: a governor configured on the tenant's
    /// per-job driver moves into its ledger, and the slot swap installs
    /// it on the shared driver whenever the tenant runs.
    pub fn take_pressure_governor(&mut self) -> Option<PressureGovernor> {
        self.lru.clear_floor();
        self.pressure.take()
    }

    /// Checks the driver's internal invariants, returning the first
    /// violation found. The GPU engine asserts this after every fault
    /// drain when validation is enabled; injection tests use it to show
    /// injected faults never corrupt residency accounting.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        crate::invariants::validate(self)
    }
}

/// The naive UM baseline: the bare driver as a GPU memory backend.
/// Pages migrate on demand, nothing is prefetched, nothing overlaps —
/// the denominator of every speedup in the paper's evaluation.
impl deepum_gpu::engine::UmBackend for UmDriver {
    fn resident_miss(&self, block: BlockNum, pages: &PageMask) -> PageMask {
        UmDriver::resident_miss(self, block, pages)
    }

    fn handle_faults(&mut self, now: Ns, faults: &[FaultEntry]) -> Result<Ns, BackendError> {
        UmDriver::handle_faults(self, now, faults)
    }

    fn touch(&mut self, now: Ns, block: BlockNum, pages: &PageMask) {
        UmDriver::touch(self, now, block, pages)
    }

    fn overlap_compute(&mut self, _now: Ns, _dur: Ns) -> Ns {
        Ns::ZERO
    }

    fn kernel_finished(&mut self, now: Ns) {
        UmDriver::pressure_kernel_tick(self, now)
    }

    fn install_injector(&mut self, injector: SharedInjector) {
        UmDriver::install_injector(self, injector)
    }

    fn install_tracer(&mut self, tracer: SharedTracer) {
        UmDriver::set_tracer(self, tracer)
    }

    fn validate(&self) -> Result<(), String> {
        UmDriver::validate(self)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(crate::snapshot::snapshot_driver(self))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        crate::snapshot::restore_driver(self, bytes).map_err(|e| e.to_string())
    }

    fn resident_pages(&self) -> u64 {
        UmDriver::resident_pages(self)
    }

    fn pressure(&self) -> Option<PressureStats> {
        UmDriver::pressure_stats(self)
    }

    fn wear(&self) -> Option<deepum_gpu::engine::WearStats> {
        if self.wear.is_pristine() {
            return None;
        }
        Some(deepum_gpu::engine::WearStats {
            retired_pages: self.wear.retired_pages(),
            remigrated_pages: self.wear.remigrated_pages(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_gpu::fault::AccessKind;
    use deepum_mem::{UmAddr, BLOCK_SIZE, PAGE_SIZE};

    fn small_driver(capacity_blocks: u64) -> UmDriver {
        let costs = CostModel::v100_32gb().with_device_memory(capacity_blocks * BLOCK_SIZE as u64);
        UmDriver::new(costs)
    }

    fn faults_for(block: u64, pages: core::ops::Range<usize>) -> Vec<FaultEntry> {
        vec![FaultEntry {
            block: BlockNum::new(block),
            pages: PageMask::from_range(pages),
            kind: AccessKind::Read,
        }]
    }

    #[test]
    fn faults_make_pages_resident() {
        let mut d = small_driver(4);
        let cost = d
            .handle_faults(Ns::ZERO, &faults_for(0, 0..100))
            .expect("faults handled");
        assert!(cost > Ns::ZERO);
        assert_eq!(d.resident_pages(), 100);
        assert!(d
            .resident_miss(BlockNum::new(0), &PageMask::first_n(100))
            .is_empty());
        let c = d.counters();
        assert_eq!(c.gpu_page_faults, 100);
        assert_eq!(c.pages_faulted_in, 100);
        assert_eq!(c.fault_batches, 1);
        assert_eq!(c.faulted_blocks, 1);
    }

    #[test]
    fn oversubscription_evicts_lru_migrated() {
        let mut d = small_driver(2); // 2 blocks of device memory
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        assert_eq!(d.free_pages(), 0);
        // Block 2 needs space: block 0 (least recently migrated) goes.
        d.handle_faults(Ns::from_nanos(3), &faults_for(2, 0..512))
            .expect("faults handled");
        assert!(d.resident_mask(BlockNum::new(0)).is_empty());
        assert_eq!(d.resident_mask(BlockNum::new(1)).count(), 512);
        assert_eq!(d.resident_mask(BlockNum::new(2)).count(), 512);
        let c = d.counters();
        assert_eq!(c.pages_evicted_demand, 512);
        assert_eq!(c.bytes_d2h, 512 * PAGE_SIZE as u64);
    }

    #[test]
    fn protected_blocks_survive_eviction_when_possible() {
        let mut d = small_driver(2);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        d.protected_mut().insert(BlockNum::new(0)); // oldest, but protected
        d.handle_faults(Ns::from_nanos(3), &faults_for(2, 0..512))
            .expect("faults handled");
        // Block 1 was evicted instead of the protected block 0.
        assert_eq!(d.resident_mask(BlockNum::new(0)).count(), 512);
        assert!(d.resident_mask(BlockNum::new(1)).is_empty());
    }

    #[test]
    fn protection_yields_when_nothing_else_fits() {
        let mut d = small_driver(1);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.protected_mut().insert(BlockNum::new(0));
        // Only the protected block is resident; it must still be evicted.
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        assert!(d.resident_mask(BlockNum::new(0)).is_empty());
        assert_eq!(d.resident_mask(BlockNum::new(1)).count(), 512);
    }

    #[test]
    fn invalidatable_pages_skip_writeback() {
        let mut d = small_driver(1);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        // Mark the whole block as belonging to an inactive PT block.
        d.mark_invalidatable(ByteRange::new(UmAddr::new(0), BLOCK_SIZE as u64), true);
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        let c = d.counters();
        assert_eq!(c.pages_invalidated, 512);
        assert_eq!(c.pages_evicted_demand, 0);
        assert_eq!(c.bytes_d2h, 0);
    }

    #[test]
    fn invalidation_can_be_cleared() {
        let mut d = small_driver(1);
        let range = ByteRange::new(UmAddr::new(0), BLOCK_SIZE as u64);
        d.mark_invalidatable(range, true);
        d.mark_invalidatable(range, false);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        assert_eq!(d.counters().pages_invalidated, 0);
        assert_eq!(d.counters().pages_evicted_demand, 512);
    }

    #[test]
    fn prefetch_tracks_hits_and_waste() {
        let mut d = small_driver(2);
        let mask = PageMask::first_n(512);
        d.prefetch_into_gpu(Ns::from_nanos(1), BlockNum::new(0), &mask);
        d.prefetch_into_gpu(Ns::from_nanos(2), BlockNum::new(1), &mask);
        assert_eq!(d.counters().pages_prefetched, 1024);

        // Block 0 gets touched (hit); block 1 never is.
        d.touch(Ns::from_nanos(3), BlockNum::new(0), &mask);
        assert_eq!(d.counters().prefetch_hits, 512);
        // Evict both: block 0 first (LRU, already touched → no waste),
        // then block 1 (untouched prefetch → counted as waste).
        d.handle_faults(Ns::from_nanos(4), &faults_for(2, 0..512))
            .expect("faults handled");
        assert_eq!(d.counters().prefetch_wasted, 0);
        d.handle_faults(Ns::from_nanos(5), &faults_for(3, 0..512))
            .expect("faults handled");
        assert_eq!(d.counters().prefetch_wasted, 512);
    }

    #[test]
    fn preevict_frees_ahead_of_time() {
        let mut d = small_driver(2);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        let cost = d.preevict(Ns::from_nanos(3), 512);
        assert!(cost.total() > Ns::ZERO);
        assert!(cost.writeback > Ns::ZERO);
        assert_eq!(d.free_pages(), 512);
        assert_eq!(d.counters().pages_preevicted, 512);
        // Demand fault for a new block now needs no critical-path evict.
        let before = d.counters().pages_evicted_demand;
        d.handle_faults(Ns::from_nanos(4), &faults_for(2, 0..512))
            .expect("faults handled");
        assert_eq!(d.counters().pages_evicted_demand, before);
    }

    #[test]
    fn preevict_noop_when_enough_free() {
        let mut d = small_driver(2);
        assert_eq!(d.preevict(Ns::ZERO, 512), EvictCost::default());
    }

    #[test]
    fn touch_of_nonresident_block_is_harmless() {
        let mut d = small_driver(2);
        d.touch(Ns::ZERO, BlockNum::new(9), &PageMask::first_n(5));
        assert_eq!(d.counters().prefetch_hits, 0);
    }

    #[test]
    fn empty_fault_batch_is_free() {
        let mut d = small_driver(2);
        assert_eq!(d.handle_faults(Ns::ZERO, &[]), Ok(Ns::ZERO));
        assert_eq!(d.counters().fault_batches, 0);
    }

    #[test]
    fn remigration_updates_lru_position() {
        let mut d = small_driver(2);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        // Remigrate part of block 0 is impossible (it's resident), but a
        // new fault after eviction re-keys it. Instead, fault more pages
        // of block 1? Both full. Re-fault block 0's pages after evicting:
        // simplest check: migrate new pages into block 1 via prefetch.
        // Block 1 currently full; migrating zero pages should not re-key.
        let cost = d.prefetch_into_gpu(Ns::from_nanos(3), BlockNum::new(1), &PageMask::first_n(10));
        assert_eq!(cost, Ns::ZERO);
        // Block 0 still the LRU victim.
        d.handle_faults(Ns::from_nanos(4), &faults_for(2, 0..512))
            .expect("faults handled");
        assert!(d.resident_mask(BlockNum::new(0)).is_empty());
    }

    #[test]
    fn partial_block_faults() {
        let mut d = small_driver(4);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 100..200))
            .expect("faults handled");
        assert_eq!(d.resident_mask(BlockNum::new(0)).count(), 100);
        let miss = d.resident_miss(BlockNum::new(0), &PageMask::first_n(512));
        assert_eq!(miss.count(), 412);
    }

    #[test]
    fn validate_passes_through_fault_evict_churn() {
        let mut d = small_driver(2);
        for b in 0..6 {
            d.handle_faults(Ns::from_nanos(b + 1), &faults_for(b, 0..512))
                .expect("faults handled");
            d.validate().expect("healthy driver");
        }
        d.prefetch_into_gpu(
            Ns::from_nanos(10),
            BlockNum::new(9),
            &PageMask::first_n(100),
        );
        d.preevict(Ns::from_nanos(11), 256);
        d.validate().expect("healthy after prefetch + preevict");
    }

    #[test]
    fn validate_detects_corrupt_residency_counter() {
        let mut d = small_driver(2);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..10))
            .expect("faults handled");
        d.resident_pages += 1;
        assert!(d.validate().is_err());
    }

    fn always_fail_plan() -> deepum_sim::faultinject::InjectionPlan {
        deepum_sim::faultinject::InjectionPlan {
            dma_h2d_fail_rate: 1.0,
            max_retries: 3,
            backoff_base: Ns::from_micros(2),
            ..Default::default()
        }
    }

    #[test]
    fn demand_migration_retries_then_forces_through() {
        // Fault block 0 in, push it out with block 1 (now block 0 has a
        // host-valid copy), then re-fault it so the migration needs a
        // real DMA — first-touch faults populate device-side for free.
        let setup = |d: &mut UmDriver| {
            d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
                .expect("faults handled");
            d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
                .expect("faults handled");
        };
        let mut clean = small_driver(1);
        setup(&mut clean);
        let base_cost = clean
            .handle_faults(Ns::from_nanos(3), &faults_for(0, 0..512))
            .expect("faults handled");

        let mut d = small_driver(1);
        setup(&mut d);
        let inj = always_fail_plan().build_shared();
        d.install_injector(inj.clone());
        let cost = d
            .handle_faults(Ns::from_nanos(3), &faults_for(0, 0..512))
            .expect("faults handled");

        // Pages end up resident regardless (the replay loop cannot give
        // up), but the retries cost extra simulated time.
        assert_eq!(d.resident_mask(BlockNum::new(0)).count(), 512);
        assert!(cost > base_cost);
        let stats = *inj.borrow().stats();
        assert_eq!(stats.migration_retries, 4); // max_retries + 1 failures
        assert!(stats.backoff_time > Ns::ZERO);
        d.validate().expect("retries leave state consistent");
    }

    #[test]
    fn prefetch_abandons_after_retry_exhaustion() {
        let mut d = small_driver(4);
        // Give the block a host-valid copy so the prefetch needs a DMA.
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(3), &faults_for(2, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(4), &faults_for(3, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(5), &faults_for(4, 0..512))
            .expect("faults handled"); // evicts 0
        assert!(d.resident_mask(BlockNum::new(0)).is_empty());

        let inj = always_fail_plan().build_shared();
        d.install_injector(inj.clone());
        let dropped_before = d.counters().prefetch_dropped;
        d.prefetch_into_gpu(Ns::from_nanos(6), BlockNum::new(0), &PageMask::first_n(512));

        // The prefetch was abandoned: nothing became resident, and the
        // pages are left to fault on demand.
        assert!(d.resident_mask(BlockNum::new(0)).is_empty());
        assert_eq!(inj.borrow().stats().prefetches_abandoned, 1);
        assert_eq!(d.counters().prefetch_dropped, dropped_before + 1);
        d.validate()
            .expect("abandoned prefetch leaves state consistent");
    }

    #[test]
    fn host_oom_prefers_invalidatable_victims() {
        let mut d = small_driver(2);
        // Block 1 is the LRU victim; block 0 is newer but invalidatable.
        d.handle_faults(Ns::from_nanos(1), &faults_for(1, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(0, 0..512))
            .expect("faults handled");
        d.mark_invalidatable(ByteRange::new(UmAddr::new(0), BLOCK_SIZE as u64), true);

        let inj = deepum_sim::faultinject::InjectionPlan {
            host_oom_rate: 1.0,
            ..Default::default()
        }
        .build_shared();
        d.install_injector(inj.clone());

        let d2h_before = d.counters().bytes_d2h;
        d.handle_faults(Ns::from_nanos(3), &faults_for(2, 0..512))
            .expect("faults handled");

        // The invalidatable block went first despite being newer, so the
        // eviction touched no host memory.
        assert!(d.resident_mask(BlockNum::new(0)).is_empty());
        assert_eq!(d.resident_mask(BlockNum::new(1)).count(), 512);
        assert_eq!(d.counters().bytes_d2h, d2h_before);
        assert_eq!(inj.borrow().stats().writeback_fallbacks, 1);
        d.validate()
            .expect("fallback eviction leaves state consistent");
    }

    #[test]
    fn d2h_failures_stretch_writeback_cost() {
        let plan = deepum_sim::faultinject::InjectionPlan {
            dma_d2h_fail_rate: 1.0,
            max_retries: 3,
            backoff_base: Ns::from_micros(2),
            ..Default::default()
        };
        let mut clean = small_driver(1);
        clean
            .handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        let base = clean.preevict(Ns::from_nanos(2), 512);

        let mut d = small_driver(1);
        let inj = plan.build_shared();
        d.install_injector(inj.clone());
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        let cost = d.preevict(Ns::from_nanos(2), 512);

        assert_eq!(d.free_pages(), d.capacity_pages());
        assert!(cost.writeback > base.writeback);
        assert_eq!(inj.borrow().stats().dma_d2h_failures, 3);
        d.validate()
            .expect("write-back retries leave state consistent");
    }

    #[test]
    fn demand_overflow_is_a_backend_error() {
        // 100 pages of device memory cannot hold a 512-page demand batch
        // no matter what gets evicted.
        let costs = CostModel::v100_32gb().with_device_memory(100 * PAGE_SIZE as u64);
        let mut d = UmDriver::new(costs);
        let err = d
            .handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect_err("batch larger than the device must fail");
        assert_eq!(
            err,
            BackendError::CapacityExceeded {
                needed_pages: 512,
                capacity_pages: 100,
            }
        );
    }

    #[test]
    fn same_drain_batch_may_share_a_timestamp() {
        let mut d = small_driver(4);
        let mut faults = faults_for(0, 0..512);
        faults.extend(faults_for(1, 0..512));
        d.handle_faults(Ns::from_nanos(5), &faults)
            .expect("faults handled");
        let b0 = &d.blocks[&BlockNum::new(0)];
        let b1 = &d.blocks[&BlockNum::new(1)];
        assert_eq!(b0.last_migrated, b1.last_migrated);
        assert_eq!(b0.last_epoch, b1.last_epoch);
        d.validate()
            .expect("equal stamps from one drain batch are legal");
    }

    #[test]
    fn clock_regression_fails_validate() {
        let mut d = small_driver(4);
        d.handle_faults(Ns::from_nanos(5), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(7), &faults_for(1, 0..512))
            .expect("faults handled");
        // Virtual time runs backwards: a third drain reuses stamp 5.
        // Blocks 0 and 2 now share an LRU timestamp across different
        // drain batches, which validate() must reject.
        d.handle_faults(Ns::from_nanos(5), &faults_for(2, 0..512))
            .expect("faults handled");
        let err = d.validate().expect_err("regressed clock must be caught");
        assert!(err.contains("drain batches"), "unexpected message: {err}");
    }

    #[test]
    fn cooldown_shifts_eviction_to_colder_blocks() {
        // Device holds 2 blocks. Block 0 ping-pongs: evicted, then
        // demand-refaulted → enters cooldown. The next eviction must
        // pick block 1 (newer, but not cooling) instead of block 0.
        let mut d = small_driver(2);
        d.install_pressure_governor(PressureConfig::default());
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        d.pressure_kernel_tick(Ns::from_nanos(3)); // kernel 0 retires
        d.handle_faults(Ns::from_nanos(4), &faults_for(2, 0..512))
            .expect("faults handled"); // evicts block 0 (LRU)
        assert!(d.resident_mask(BlockNum::new(0)).is_empty());
        d.pressure_kernel_tick(Ns::from_nanos(5)); // kernel 1 retires
        d.handle_faults(Ns::from_nanos(6), &faults_for(0, 0..512))
            .expect("faults handled"); // refault of block 0 → cooldown
        d.pressure_kernel_tick(Ns::from_nanos(7)); // kernel 2 retires
        let stats = d.pressure_stats().expect("governor installed");
        assert_eq!(stats.refaults, 1);

        // Age block 0 back to LRU-oldest: a fresh block 3 evicts the
        // non-cooling block 2 first.
        d.handle_faults(Ns::from_nanos(8), &faults_for(3, 0..512))
            .expect("faults handled");
        assert_eq!(d.resident_mask(BlockNum::new(0)).count(), 512);
        d.pressure_kernel_tick(Ns::from_nanos(9)); // kernel 3 retires

        // Without the governor, block 0 (oldest stamp) would be the
        // victim now. Cooldown shifts the eviction to block 3.
        d.handle_faults(Ns::from_nanos(10), &faults_for(4, 0..512))
            .expect("faults handled");
        assert_eq!(d.resident_mask(BlockNum::new(0)).count(), 512);
        assert!(d.resident_mask(BlockNum::new(3)).is_empty());
        let stats = d.pressure_stats().expect("governor installed");
        assert!(stats.cooldown_skips >= 1);
        d.validate().expect("governed driver stays consistent");
    }

    #[test]
    fn pinned_working_set_overflow_is_capacity_exceeded() {
        // Device holds 2 blocks; one kernel touches 3. With the
        // governor's in-flight pins, the third demand migration cannot
        // evict the kernel's own blocks and must surface the typed
        // capacity error instead of thrashing.
        let mut d = small_driver(2);
        d.install_pressure_governor(PressureConfig::default());
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        let err = d
            .handle_faults(Ns::from_nanos(3), &faults_for(2, 0..512))
            .expect_err("working set exceeds the device");
        assert_eq!(
            err,
            BackendError::CapacityExceeded {
                needed_pages: 512,
                capacity_pages: 1024,
            }
        );
    }

    #[test]
    fn ungoverned_driver_reports_no_pressure() {
        let d = small_driver(2);
        assert_eq!(d.pressure_stats(), None);
        assert_eq!(d.pressure_level(), deepum_trace::PressureLevel::Normal);
    }

    #[test]
    fn kernel_tick_emits_level_change_trace() {
        use deepum_trace::{shared, Tracer};
        let mut d = small_driver(2);
        d.install_pressure_governor(PressureConfig {
            elevated_pct: 1,
            thrashing_pct: 2,
            ewma_shift: 1,
            ..PressureConfig::default()
        });
        let tracer = shared(Tracer::export());
        d.set_tracer(tracer.clone());
        // Ping-pong blocks 0 and 1 in a 2-block device by cycling a
        // third block through, retiring a kernel each round.
        for round in 0..4u64 {
            let t = Ns::from_nanos(10 * round + 1);
            d.handle_faults(t, &faults_for(round % 3, 0..512))
                .expect("faults handled");
            d.pressure_kernel_tick(Ns::from_nanos(10 * round + 5));
        }
        let jsonl = tracer.borrow_mut().jsonl();
        assert!(
            jsonl.contains("PressureLevelChanged"),
            "expected a level change in:\n{jsonl}"
        );
    }

    #[test]
    fn epochs_advance_with_virtual_time() {
        let mut d = small_driver(4);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        let e0 = d.blocks[&BlockNum::new(0)].last_epoch;
        let e1 = d.blocks[&BlockNum::new(1)].last_epoch;
        assert!(e1 > e0, "distinct drain times must get distinct epochs");
        d.validate().expect("distinct stamps validate");
    }

    fn block_range(block: u64) -> ByteRange {
        ByteRange::new(UmAddr::new(block * BLOCK_SIZE as u64), BLOCK_SIZE as u64)
    }

    /// Populates a block's host copy so a later demand migration has
    /// something to transfer (and hence something to duplicate).
    fn populate_host(d: &mut UmDriver, block: u64) {
        // Fault in, then evict by faulting another large block: the
        // write-back leaves the host copy valid.
        d.handle_faults(Ns::from_nanos(1), &faults_for(block, 0..512))
            .expect("faults handled");
    }

    #[test]
    fn read_mostly_eviction_skips_writeback() {
        let mut d = small_driver(1);
        // Evict block 0 once (the write-back makes its host copy
        // valid), then hint it ReadMostly and fault it back in: it is
        // now duplicated on host and device.
        populate_host(&mut d, 0);
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        assert!(d.resident_mask(BlockNum::new(0)).is_empty());
        assert_eq!(
            d.advise(Ns::from_nanos(3), block_range(0), Advice::ReadMostly),
            1
        );
        d.handle_faults(Ns::from_nanos(4), &faults_for(0, 0..512))
            .expect("faults handled");
        d.validate().expect("duplicated residency validates");
        // Evicting the duplicated block costs no device→host bytes.
        let d2h_before = d.counters().bytes_d2h;
        d.handle_faults(Ns::from_nanos(5), &faults_for(2, 0..512))
            .expect("faults handled");
        assert!(d.resident_mask(BlockNum::new(0)).is_empty());
        assert_eq!(
            d.counters().bytes_d2h,
            d2h_before,
            "ReadMostly eviction must not write back"
        );
        d.validate().expect("post-eviction state validates");
    }

    #[test]
    fn read_mostly_blocks_evict_after_cooler_victims() {
        let mut d = small_driver(2);
        // Block 0 is oldest and duplicated; block 1 newer, unhinted.
        d.advise(Ns::ZERO, block_range(0), Advice::ReadMostly);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(3), &faults_for(2, 0..512))
            .expect("faults handled");
        // Despite being least recently migrated, the duplicated block
        // survives; the cooler unhinted block 1 went instead.
        assert_eq!(d.resident_mask(BlockNum::new(0)).count(), 512);
        assert!(d.resident_mask(BlockNum::new(1)).is_empty());
        d.validate().expect("hint ordering validates");
    }

    #[test]
    fn preferred_location_yields_only_to_override() {
        let mut d = small_driver(2);
        d.advise(Ns::ZERO, block_range(0), Advice::PreferredLocation);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        // First pass skips the preferred block: block 1 goes.
        d.handle_faults(Ns::from_nanos(3), &faults_for(2, 0..512))
            .expect("faults handled");
        assert_eq!(d.resident_mask(BlockNum::new(0)).count(), 512);
        assert!(d.resident_mask(BlockNum::new(1)).is_empty());
        // Liveness: when preferred blocks are all that remain, demand
        // eviction still proceeds (override pass).
        d.advise(Ns::from_nanos(4), block_range(2), Advice::PreferredLocation);
        d.handle_faults(Ns::from_nanos(5), &faults_for(3, 0..512))
            .expect("faults handled despite preferred-only residency");
        assert_eq!(d.resident_mask(BlockNum::new(3)).count(), 512);
    }

    #[test]
    fn accessed_by_skips_map_cost_on_refault() {
        let costs = CostModel::v100_32gb().with_device_memory(BLOCK_SIZE as u64);
        let map_cost = costs.map_page_cost;
        assert!(map_cost > Ns::ZERO);
        let mut hinted = UmDriver::new(costs.clone());
        hinted.advise(Ns::ZERO, block_range(0), Advice::AccessedBy);
        let mut plain = UmDriver::new(costs);
        let c_h = hinted
            .handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        let c_p = plain
            .handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        assert_eq!(c_p - c_h, map_cost * 512, "AccessedBy skips the map step");
    }

    #[test]
    fn partial_release_drops_the_read_mostly_duplicate() {
        let mut d = small_driver(2);
        populate_host(&mut d, 0);
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(3), &faults_for(2, 0..512))
            .expect("faults handled");
        d.advise(Ns::from_nanos(4), block_range(0), Advice::ReadMostly);
        d.handle_faults(Ns::from_nanos(5), &faults_for(0, 0..512))
            .expect("faults handled");
        // Freeing half the block drops its hint; the other half stays
        // resident and loses its host duplicate.
        d.release_range(ByteRange::new(UmAddr::new(0), BLOCK_SIZE as u64 / 2));
        assert!(!d.hints().is_read_mostly(BlockNum::new(0)));
        assert_eq!(d.resident_mask(BlockNum::new(0)).count(), 256);
        assert!(d
            .host_valid(BlockNum::new(0), &PageMask::first_n(512))
            .is_empty());
        d.validate()
            .expect("no device page keeps a host copy unhinted");
    }

    #[test]
    fn write_fault_collapses_read_mostly() {
        let mut d = small_driver(2);
        populate_host(&mut d, 0);
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(3), &faults_for(2, 0..512))
            .expect("faults handled");
        d.advise(Ns::from_nanos(4), block_range(0), Advice::ReadMostly);
        d.handle_faults(Ns::from_nanos(5), &faults_for(0, 0..512))
            .expect("faults handled");
        // A write fault to the duplicated block collapses the hint and
        // drops the stale host copy.
        let write = vec![FaultEntry {
            block: BlockNum::new(0),
            pages: PageMask::first_n(1),
            kind: AccessKind::Write,
        }];
        d.handle_faults(Ns::from_nanos(6), &write)
            .expect("write fault handled");
        assert!(!d.hints().is_read_mostly(BlockNum::new(0)));
        assert_eq!(d.hints().collapsed, 1);
        d.validate()
            .expect("collapse restores the exclusive invariant");
        // The next eviction of block 0 pays the write-back again.
        let d2h_before = d.counters().bytes_d2h;
        d.handle_faults(Ns::from_nanos(7), &faults_for(3, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(8), &faults_for(4, 0..512))
            .expect("faults handled");
        assert!(d.counters().bytes_d2h > d2h_before);
    }

    #[test]
    fn advise_traces_hint_applied_once() {
        use deepum_trace::{shared, Tracer};
        let mut d = small_driver(2);
        let tracer = shared(Tracer::export());
        d.set_tracer(tracer.clone());
        assert_eq!(d.advise(Ns::ZERO, block_range(1), Advice::ReadMostly), 1);
        assert_eq!(d.advise(Ns::ZERO, block_range(1), Advice::ReadMostly), 0);
        let jsonl = tracer.borrow_mut().jsonl();
        assert_eq!(jsonl.matches("HintApplied").count(), 1, "{jsonl}");
    }

    /// Victim choices `(block, reason)` in the order a tracer saw them.
    fn traced_victims(tracer: &SharedTracer) -> Vec<(u64, EvictReason)> {
        tracer
            .borrow_mut()
            .records()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::EvictVictim { block, reason } => Some((block, reason)),
                _ => None,
            })
            .collect()
    }

    /// A lone tenant (floor 0, slot active) selects exactly the victims
    /// of a solo driver: its fair-share scan is the solo scan over the
    /// tenant's own blocks. The sequence runs every pass — host-OOM
    /// invalidatable victims, LRU with a protected block and a cooling
    /// block passed over, and the demand override. The tenant driver
    /// additionally holds one unowned bystander block, migrated before
    /// its slot opened on one extra block of capacity, which the owner
    /// filter must keep out of every pass. On the `Pre` path the one
    /// documented divergence shows: with every candidate protected the
    /// solo driver drops the prefetch, the tenant evicts through the
    /// override pass.
    #[test]
    fn lone_tenant_selects_the_solo_victims() {
        use deepum_sim::faultinject::InjectionPlan;
        use deepum_trace::{shared, Tracer};
        const BYSTANDER: u64 = 100;
        let plan = InjectionPlan {
            host_oom_rate: 1.0,
            ..Default::default()
        };

        let solo_tracer = shared(Tracer::export());
        let mut solo = small_driver(3);
        solo.install_pressure_governor(PressureConfig::default());
        solo.set_tracer(solo_tracer.clone());
        solo.install_injector(plan.build_shared());

        let tenant_tracer = shared(Tracer::export());
        let mut tenant = small_driver(4);
        tenant
            .handle_faults(Ns::ZERO, &faults_for(BYSTANDER, 0..512))
            .expect("faults handled");
        tenant
            .register_tenant(
                TenantId(0),
                0,
                1,
                Some(PressureGovernor::new(PressureConfig::default())),
                Some(tenant_tracer.clone()),
                Some(plan.build_shared()),
            )
            .expect("floor 0 is admitted");
        tenant.set_active_tenant(TenantId(0), Ns::ZERO);

        let kernel = |d: &mut UmDriver, t: u64, blocks: &[u64]| {
            let faults: Vec<FaultEntry> =
                blocks.iter().flat_map(|&b| faults_for(b, 0..512)).collect();
            d.handle_faults(Ns::from_nanos(t), &faults)
                .expect("faults handled");
            d.pressure_kernel_tick(Ns::from_nanos(t));
        };
        for d in [&mut solo, &mut tenant] {
            kernel(d, 1, &[0]);
            kernel(d, 2, &[1]);
            kernel(d, 3, &[2]);
            kernel(d, 4, &[3]); // evicts block 0
            kernel(d, 5, &[0]); // refault: block 0 cools down; evicts block 1
            d.protected_mut().insert(BlockNum::new(2));
            d.mark_invalidatable(block_range(3), true);
            // Block 5 takes the invalidatable block 3 (host OOM pass);
            // block 6 finds block 2 protected, block 0 cooling and block
            // 5 pinned, so the override takes block 2.
            kernel(d, 6, &[5, 6]);
        }

        let expected = vec![
            (0, EvictReason::LruDemand),
            (1, EvictReason::LruDemand),
            (3, EvictReason::HostOomInvalidatable),
            (2, EvictReason::ProtectedOverride),
        ];
        assert_eq!(traced_victims(&solo_tracer), expected);
        assert_eq!(traced_victims(&tenant_tracer), expected);
        assert_eq!(solo.counters(), tenant.active_counters());
        assert_eq!(solo.pressure_stats(), tenant.pressure_stats());
        assert_eq!(
            solo.pressure_stats().map(|s| s.cooldown_skips),
            Some(1),
            "block 0 is passed over for its cooldown"
        );
        for b in 0..8 {
            let block = BlockNum::new(b);
            assert_eq!(solo.resident_mask(block), tenant.resident_mask(block));
        }
        assert_eq!(
            tenant.resident_mask(BlockNum::new(BYSTANDER)).count(),
            512,
            "the unowned bystander is never a lone tenant's victim"
        );
        solo.validate().expect("solo driver validates");
        tenant.validate().expect("tenant driver validates");

        // Pre path, every candidate protected: the solo driver drops
        // the prefetch, the tenant overrides protection.
        for d in [&mut solo, &mut tenant] {
            for b in 0..8 {
                d.protected_mut().insert(BlockNum::new(b));
            }
            d.prefetch_into_gpu(Ns::from_nanos(7), BlockNum::new(7), &PageMask::full());
        }
        let drops = |tracer: &SharedTracer| {
            tracer
                .borrow_mut()
                .records()
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::PrefetchDrop { block: 7 }))
                .count()
        };
        assert_eq!(traced_victims(&solo_tracer), expected);
        assert_eq!(drops(&solo_tracer), 1);
        assert!(solo.resident_mask(BlockNum::new(7)).is_empty());
        let mut overridden = expected;
        overridden.push((0, EvictReason::ProtectedOverride));
        assert_eq!(traced_victims(&tenant_tracer), overridden);
        assert_eq!(drops(&tenant_tracer), 0);
        assert_eq!(tenant.resident_mask(BlockNum::new(7)).count(), 512);
        solo.validate().expect("solo driver validates");
        tenant.validate().expect("tenant driver validates");
    }

    /// A tenant's protected set is parked in its ledger between slots
    /// and still steers the scan charged to it from another tenant's
    /// slot: tenant A's oldest block is protected, so B's demand takes
    /// A's other block. A's set comes back intact when its slot reopens.
    #[test]
    fn parked_protected_set_steers_the_foreign_scan() {
        let (a, b) = (TenantId(0), TenantId(1));
        let mut d = small_driver(4);
        for tid in [a, b] {
            d.register_tenant(tid, 0, 1, None, None, None)
                .expect("floor 0 is admitted");
        }
        d.set_active_tenant(a, Ns::ZERO);
        d.handle_faults(Ns::from_nanos(1), &faults_for(0, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(2), &faults_for(1, 0..512))
            .expect("faults handled");
        d.protected_mut().insert(BlockNum::new(0)); // A's oldest block
        d.end_tenant_slot(Ns::from_nanos(2));
        assert!(
            d.protected().is_empty(),
            "A's set is parked, not left behind"
        );

        d.set_active_tenant(b, Ns::ZERO);
        assert!(d.protected().is_empty(), "B starts with its own empty set");
        d.handle_faults(Ns::from_nanos(3), &faults_for(10, 0..512))
            .expect("faults handled");
        d.handle_faults(Ns::from_nanos(4), &faults_for(11, 0..512))
            .expect("faults handled");
        assert_eq!(d.free_pages(), 0);
        // Both tenants are 1024 pages over a zero floor; the tie charges
        // A, whose parked set passes over block 0 for block 1.
        d.handle_faults(Ns::from_nanos(5), &faults_for(12, 0..512))
            .expect("faults handled");
        assert_eq!(d.resident_mask(BlockNum::new(0)).count(), 512);
        assert!(d.resident_mask(BlockNum::new(1)).is_empty());
        assert_eq!(d.tenant_ledger(a).map(|l| l.evictions_charged), Some(1));
        assert_eq!(d.tenant_ledger(b).map(|l| l.resident_pages), Some(1536));
        d.end_tenant_slot(Ns::from_nanos(5));
        d.validate().expect("driver validates between slots");

        d.set_active_tenant(a, Ns::from_nanos(6));
        assert_eq!(
            d.protected().iter().collect::<Vec<_>>(),
            vec![BlockNum::new(0)]
        );
        d.validate().expect("driver validates in A's slot");
    }

    /// Between slots every protected set is parked, so a write to the
    /// driver's own set reaches no tenant and fails `validate()`.
    #[test]
    fn protected_write_between_slots_fails_validate() {
        let mut d = small_driver(2);
        d.register_tenant(TenantId(0), 0, 1, None, None, None)
            .expect("floor 0 is admitted");
        d.set_active_tenant(TenantId(0), Ns::ZERO);
        d.protected_mut().insert(BlockNum::new(0));
        d.validate().expect("a slot's own protected set is fine");
        d.end_tenant_slot(Ns::ZERO);
        d.validate().expect("the set is parked at the slot end");
        d.protected_mut().insert(BlockNum::new(1));
        let err = d.validate().expect_err("write between slots");
        assert!(err.contains("no tenant slot is active"), "{err}");
    }
}
