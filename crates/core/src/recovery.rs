//! Checkpoint/restore of the DeepUM driver and the launch journal for
//! replay recovery (DESIGN.md §11).
//!
//! A hard fault — scheduled device reset, driver crash mid-drain — ends
//! the current simulated GPU epoch. The executor recovers by restoring
//! the last checkpoint and re-executing the journaled kernel launches.
//! This module provides the three pieces the protocol needs from the
//! DeepUM side:
//!
//! * [`snapshot_deepum`] / [`restore_deepum`] — a versioned, checksummed,
//!   serde-free binary image of the whole driver: the nested UM driver
//!   (residency, LRU, counters), the correlation tables, the learned
//!   footprints, and the ephemeral prefetch state (chain walk, prefetch
//!   queue, predicted window, watchdog);
//! * [`LaunchJournal`] — the bounded record of kernel boundaries since
//!   the last checkpoint, bounding how much work a restore replays;
//! * [`RecoveryReport`] — the metrics block the executor attaches to the
//!   run report when recovery machinery was active.
//!
//! ECC poisoning state ([`crate::DeepumDriver::is_poisoned`]) is
//! deliberately *not* part of the snapshot: a restore rewinds learned
//! state, not hardware faults that already happened.

use deepum_um::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use serde::{Deserialize, Serialize};

use crate::chain::ChainWalk;
use crate::correlation::{BlockCorrelationTable, ExecCorrelationTable};
use crate::driver::DeepumDriver;
use crate::footprint::FootprintMap;
use crate::queues::{PrefetchCommand, SpscQueue};
use crate::watchdog::PrefetchWatchdog;

/// Recovery metrics attached to a run report when the hard-fault
/// machinery was enabled (see `ISSUE` acceptance criteria: reports of
/// crash-free plans must not change, so this block is optional there).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Checkpoints taken over the run.
    pub checkpoints: u64,
    /// Size of the last full checkpoint image, in bytes.
    pub snapshot_bytes: u64,
    /// Journaled kernel launches re-executed across all restores.
    pub replay_kernels: u64,
    /// Simulated downtime charged to hard faults: reset penalty plus the
    /// demand-only refill of the restored resident set. Kept out of the
    /// simulation clock so recovered runs stay byte-comparable to
    /// uninterrupted ones.
    pub downtime_ns: u64,
    /// Uncorrectable ECC hits that poisoned the correlation tables.
    pub ecc_poisonings: u64,
    /// Hard faults recovered by a checkpoint restore.
    pub restores: u64,
}

/// One journaled kernel boundary: enough to name the launch for replay
/// accounting (`seq` is the global launch sequence number, `iter`/`step`
/// the workload position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// Global kernel-launch sequence number.
    pub seq: u64,
    /// Workload iteration index.
    pub iter: u64,
    /// Step index within the iteration.
    pub step: u64,
}

/// Bounded journal of kernel boundaries since the last checkpoint.
///
/// The bound is the recovery-time budget: a restore replays at most
/// `capacity` launches. When the journal fills, the executor must take
/// an early checkpoint (which clears it) before launching more work.
///
/// # Example
///
/// ```
/// use deepum_core::recovery::{JournalEntry, LaunchJournal};
///
/// let mut j = LaunchJournal::new(2);
/// assert!(j.record(JournalEntry { seq: 0, iter: 0, step: 0 }));
/// assert!(j.record(JournalEntry { seq: 1, iter: 0, step: 1 }));
/// assert!(j.is_full());
/// assert!(!j.record(JournalEntry { seq: 2, iter: 0, step: 2 }));
/// j.clear();
/// assert!(j.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LaunchJournal {
    entries: Vec<JournalEntry>,
    capacity: usize,
}

impl LaunchJournal {
    /// Creates a journal bounded at `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LaunchJournal {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Appends a kernel boundary; returns `false` (dropping the entry)
    /// when the journal is full and a checkpoint is overdue.
    pub fn record(&mut self, entry: JournalEntry) -> bool {
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Entries recorded since the last [`LaunchJournal::clear`].
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Number of journaled boundaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been journaled since the last checkpoint.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when the next [`LaunchJournal::record`] would be dropped.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Maximum journaled boundaries between checkpoints.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Forgets everything (a checkpoint was just taken).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Entries with launch sequence number `>= mark` — the launches a
    /// restore to the checkpoint generation stored at `mark` replays.
    pub fn since(&self, mark: u64) -> usize {
        self.entries.iter().filter(|e| e.seq >= mark).count()
    }

    /// Drops entries with `seq >= mark`: the run was rewound to `mark`
    /// and will re-journal those launches as it replays them.
    pub fn truncate_to(&mut self, mark: u64) {
        self.entries.retain(|e| e.seq < mark);
    }

    /// Drops entries with `seq < mark`: the oldest retained checkpoint
    /// generation was stored at `mark`, so no restore can need them.
    pub fn evict_before(&mut self, mark: u64) {
        self.entries.retain(|e| e.seq >= mark);
    }
}

fn write_opt_u32(w: &mut SnapshotWriter, v: Option<u32>) {
    w.bool(v.is_some());
    if let Some(v) = v {
        w.u32(v);
    }
}

fn read_opt_u32(r: &mut SnapshotReader<'_>) -> Result<Option<u32>, SnapshotError> {
    Ok(if r.bool()? { Some(r.u32()?) } else { None })
}

/// Serializes the full recoverable state of a [`DeepumDriver`] — nested
/// UM driver, correlation tables, footprints, execution context, and
/// every piece of prefetching-thread state — into one snapshot envelope.
pub fn snapshot_deepum(d: &DeepumDriver) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    deepum_um::snapshot::write_driver_state(&d.um, &mut w);
    d.exec_corr.encode_into(&mut w);

    w.u64(deepum_mem::u64_from_usize(d.block_tables.len()));
    for table in &d.block_tables {
        w.bool(table.is_some());
        if let Some(t) = table {
            t.encode_into(&mut w);
        }
    }
    d.footprints.encode_into(&mut w);

    write_opt_u32(&mut w, d.current_exec.map(|e| e.0));
    for h in d.history {
        w.u32(h.0);
    }
    w.bool(d.first_fault_pending);
    for opt in [d.prev_fault_block, d.last_fault_block] {
        w.bool(opt.is_some());
        if let Some(b) = opt {
            w.block(b);
        }
    }
    write_opt_u32(&mut w, d.pending_prediction.map(|e| e.0));

    w.bool(d.chain.is_some());
    if let Some(chain) = &d.chain {
        chain.encode_into(&mut w);
    }
    d.prefetch_q.encode_into(&mut w);
    w.u64(deepum_mem::u64_from_usize(d.enqueued.len()));
    for b in d.enqueued.iter() {
        w.block(b);
    }
    let protected = d.um.protected();
    w.u64(deepum_mem::u64_from_usize(protected.len()));
    for b in protected.iter() {
        w.block(b);
    }
    w.u64(deepum_mem::u64_from_usize(d.predicted_window.len()));
    for &(expires, block) in &d.predicted_window {
        w.u64(expires);
        w.block(block);
    }
    w.u64(d.kernel_seq);
    w.ns(d.h2d_debt);
    w.ns(d.d2h_debt);

    w.bool(d.watchdog.is_some());
    if let Some(wd) = &d.watchdog {
        wd.encode_into(&mut w);
    }
    w.u64(d.wd_last_prefetched);
    w.u64(d.wd_last_wasted);
    w.u64(d.window_dropped);
    w.u32(d.pressure_shrink);
    w.u64(d.window_resizes);
    deepum_um::snapshot::write_counters(&d.local, &mut w);
    w.finish()
}

/// Restores a [`DeepumDriver`] from an envelope built by
/// [`snapshot_deepum`]. The ECC poisoning flag and count are left
/// untouched: a fault that already happened is not rewound.
///
/// # Errors
///
/// Any [`SnapshotError`] from envelope validation or payload decode. On
/// error the driver may hold a partially restored state and must not be
/// used — the executor treats a failed restore as an unrecoverable run.
pub fn restore_deepum(d: &mut DeepumDriver, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = SnapshotReader::new(bytes)?;
    deepum_um::snapshot::read_driver_state(&mut d.um, &mut r)?;
    let exec_corr = ExecCorrelationTable::decode_from(&mut r)?;

    let num_tables = r.len_prefix(1)?;
    let mut block_tables = Vec::with_capacity(num_tables);
    for _ in 0..num_tables {
        block_tables.push(if r.bool()? {
            Some(BlockCorrelationTable::decode_from(&mut r)?)
        } else {
            None
        });
    }
    let footprints = FootprintMap::decode_from(&mut r)?;

    let current_exec = read_opt_u32(&mut r)?.map(deepum_runtime::exec_table::ExecId);
    let mut history = [deepum_runtime::exec_table::ExecId(0); 3];
    for h in &mut history {
        *h = deepum_runtime::exec_table::ExecId(r.u32()?);
    }
    let first_fault_pending = r.bool()?;
    let prev_fault_block = if r.bool()? { Some(r.block()?) } else { None };
    let last_fault_block = if r.bool()? { Some(r.block()?) } else { None };
    let pending_prediction = read_opt_u32(&mut r)?.map(deepum_runtime::exec_table::ExecId);

    let chain = if r.bool()? {
        Some(ChainWalk::decode_from(&mut r)?)
    } else {
        None
    };
    let prefetch_q: SpscQueue<PrefetchCommand> = SpscQueue::decode_from(&mut r)?;
    let mut enqueued = deepum_mem::DenseBlockSet::new();
    for _ in 0..r.len_prefix(8)? {
        enqueued.insert(r.block()?);
    }
    let mut protected = deepum_mem::DenseBlockSet::new();
    for _ in 0..r.len_prefix(8)? {
        protected.insert(r.block()?);
    }
    let mut predicted_window = std::collections::VecDeque::new();
    for _ in 0..r.len_prefix(16)? {
        let expires = r.u64()?;
        let block = r.block()?;
        predicted_window.push_back((expires, block));
    }
    let kernel_seq = r.u64()?;
    let h2d_debt = r.ns()?;
    let d2h_debt = r.ns()?;

    let watchdog = if r.bool()? {
        Some(PrefetchWatchdog::decode_from(&mut r)?)
    } else {
        None
    };
    let wd_last_prefetched = r.u64()?;
    let wd_last_wasted = r.u64()?;
    let window_dropped = r.u64()?;
    let pressure_shrink = r.u32()?;
    let window_resizes = r.u64()?;
    let local = deepum_um::snapshot::read_counters(&mut r)?;
    r.finish()?;

    d.exec_corr = exec_corr;
    d.block_tables = block_tables;
    d.footprints = footprints;
    d.current_exec = current_exec;
    d.history = history;
    d.first_fault_pending = first_fault_pending;
    d.prev_fault_block = prev_fault_block;
    d.last_fault_block = last_fault_block;
    d.pending_prediction = pending_prediction;
    d.chain = chain;
    d.prefetch_q = prefetch_q;
    d.enqueued = enqueued;
    *d.um.protected_mut() = protected;
    d.predicted_window = predicted_window;
    d.kernel_seq = kernel_seq;
    d.h2d_debt = h2d_debt;
    d.d2h_debt = d2h_debt;
    d.watchdog = watchdog;
    d.wd_last_prefetched = wd_last_prefetched;
    d.wd_last_wasted = wd_last_wasted;
    d.window_dropped = window_dropped;
    d.pressure_shrink = pressure_shrink;
    d.window_resizes = window_resizes;
    d.local = local;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_gpu::engine::UmBackend;
    use deepum_gpu::fault::{AccessKind, FaultEntry};
    use deepum_gpu::kernel::KernelLaunch;
    use deepum_mem::{BlockNum, PageMask, BLOCK_SIZE};
    use deepum_runtime::exec_table::ExecId;
    use deepum_runtime::interpose::LaunchObserver;
    use deepum_sim::costs::CostModel;
    use deepum_sim::time::Ns;

    use crate::config::DeepumConfig;

    fn driver(capacity_blocks: u64) -> DeepumDriver {
        let costs = CostModel::v100_32gb().with_device_memory(capacity_blocks * BLOCK_SIZE as u64);
        DeepumDriver::new(costs, DeepumConfig::default())
    }

    fn fault_block(d: &mut DeepumDriver, now: Ns, block: u64) {
        let entries: Vec<FaultEntry> = vec![FaultEntry {
            block: BlockNum::new(block),
            pages: PageMask::first_n(64),
            kind: AccessKind::Read,
        }];
        d.handle_faults(now, &entries).expect("faults handled");
    }

    /// Drives a 2-kernel loop for `iters` iterations so every piece of
    /// learned and ephemeral state is populated.
    fn train(d: &mut DeepumDriver, iters: usize) {
        let (ka, kb) = (
            KernelLaunch::new("A", &[], vec![], Ns::from_micros(10)),
            KernelLaunch::new("B", &[], vec![], Ns::from_micros(10)),
        );
        let mut now = Ns::ZERO;
        for _ in 0..iters {
            d.on_kernel_launch(now, ExecId(0), &ka);
            for b in [0u64, 1] {
                if !d
                    .resident_miss(BlockNum::new(b), &PageMask::first_n(64))
                    .is_empty()
                {
                    fault_block(d, now, b);
                }
                d.touch(now, BlockNum::new(b), &PageMask::first_n(64));
            }
            d.overlap_compute(now, Ns::from_millis(10));
            d.kernel_finished(now);
            d.on_kernel_launch(now, ExecId(1), &kb);
            for b in [2u64, 3] {
                if !d
                    .resident_miss(BlockNum::new(b), &PageMask::first_n(64))
                    .is_empty()
                {
                    fault_block(d, now, b);
                }
                d.touch(now, BlockNum::new(b), &PageMask::first_n(64));
            }
            d.overlap_compute(now, Ns::from_millis(10));
            d.kernel_finished(now);
            now += Ns::from_millis(25);
        }
    }

    #[test]
    fn round_trip_preserves_everything_observable() {
        let mut d = driver(16);
        train(&mut d, 3);
        let bytes = snapshot_deepum(&d);

        let mut restored = driver(16);
        restore_deepum(&mut restored, &bytes).expect("restore succeeds");
        restored.validate().expect("restored driver validates");
        assert_eq!(restored.counters(), d.counters());
        assert_eq!(restored.table_memory_bytes(), d.table_memory_bytes());
        assert_eq!(restored.block_table_count(), d.block_table_count());
        assert_eq!(restored.health(), d.health());
        assert_eq!(restored.um().resident_pages(), d.um().resident_pages());
        // Re-snapshot of the restored driver is byte-identical.
        assert_eq!(snapshot_deepum(&restored), bytes);
    }

    #[test]
    fn restored_driver_continues_identically() {
        let mut d = driver(16);
        train(&mut d, 2);
        let bytes = snapshot_deepum(&d);
        let mut restored = driver(16);
        restore_deepum(&mut restored, &bytes).expect("restore succeeds");

        // Advancing both by the same workload keeps them in lockstep.
        train(&mut d, 2);
        train(&mut restored, 2);
        assert_eq!(restored.counters(), d.counters());
        assert_eq!(snapshot_deepum(&restored), snapshot_deepum(&d));
    }

    #[test]
    fn bit_flip_is_rejected() {
        let mut d = driver(16);
        train(&mut d, 2);
        let mut bytes = snapshot_deepum(&d);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        let mut restored = driver(16);
        assert!(restore_deepum(&mut restored, &bytes).is_err());
    }

    #[test]
    fn snapshot_via_backend_trait() {
        let mut d = driver(16);
        train(&mut d, 2);
        let bytes = UmBackend::snapshot_state(&d).expect("deepum snapshots");
        let mut restored = driver(16);
        UmBackend::restore_state(&mut restored, &bytes).expect("trait restore");
        assert_eq!(
            UmBackend::resident_pages(&restored),
            UmBackend::resident_pages(&d)
        );
    }

    #[test]
    fn ecc_poisoning_survives_restore() {
        let plan = deepum_sim::faultinject::InjectionPlan {
            ecc_rate: 1.0,
            ..Default::default()
        };
        let mut d = driver(16);
        train(&mut d, 2);
        let bytes = snapshot_deepum(&d);

        UmBackend::install_injector(&mut d, plan.build_shared());
        fault_block(&mut d, Ns::from_millis(100), 9);
        assert!(d.is_poisoned());
        assert_eq!(d.ecc_poisonings(), 1);
        assert_eq!(
            d.health().watchdog_state,
            deepum_sim::faultinject::DegradationState::Disabled
        );

        // Restoring a pre-poisoning checkpoint rewinds the tables but
        // not the hardware fault.
        restore_deepum(&mut d, &bytes).expect("restore succeeds");
        assert!(d.is_poisoned());
        assert_eq!(d.ecc_poisonings(), 1);
    }

    #[test]
    fn poisoned_driver_stops_prefetching_but_keeps_paging() {
        let plan = deepum_sim::faultinject::InjectionPlan {
            ecc_rate: 1.0,
            ..Default::default()
        };
        let mut d = driver(16);
        UmBackend::install_injector(&mut d, plan.build_shared());
        train(&mut d, 1);
        assert!(d.is_poisoned());
        assert_eq!(d.block_table_count(), 0);
        let before = d.counters();
        train(&mut d, 2);
        let delta = d.counters().delta_since(&before);
        // Demand paging still works; no prefetch machinery runs.
        assert_eq!(delta.pages_prefetched, 0);
        assert_eq!(delta.chain_walks, 0);
        assert_eq!(delta.block_table_updates, 0);
        d.validate().expect("poisoned driver stays consistent");
    }

    #[test]
    fn governed_driver_round_trips_pressure_state() {
        // 3-block rotation on a 2-block device with a hair-trigger
        // governor: refaults, cooldowns, a non-Normal level, and at
        // least one look-ahead resize are all live state when the
        // snapshot is taken mid-churn.
        let costs = CostModel::v100_32gb().with_device_memory(2 * BLOCK_SIZE as u64);
        let cfg = DeepumConfig::default().with_pressure_governor(8, 4, 1, 2);
        let k = KernelLaunch::new("A", &[], vec![], Ns::from_micros(10));
        let mut d = DeepumDriver::new(costs.clone(), cfg.clone());
        let mut now = Ns::ZERO;
        for i in 0..8u64 {
            d.on_kernel_launch(now, ExecId(0), &k);
            let b = i % 3;
            let entries: Vec<FaultEntry> = vec![FaultEntry {
                block: BlockNum::new(b),
                pages: PageMask::first_n(512),
                kind: AccessKind::Read,
            }];
            d.handle_faults(now, &entries).expect("faults handled");
            d.touch(now, BlockNum::new(b), &PageMask::full());
            d.kernel_finished(now);
            now += Ns::from_millis(1);
        }
        let stats = UmBackend::pressure(&d).expect("governed driver reports pressure");
        assert!(stats.refaults > 0, "rotation must refault");
        assert!(stats.window_resizes > 0, "thrash must resize the window");

        let bytes = snapshot_deepum(&d);
        let mut restored = DeepumDriver::new(costs, cfg);
        restore_deepum(&mut restored, &bytes).expect("restore succeeds");
        restored.validate().expect("restored driver validates");
        assert_eq!(UmBackend::pressure(&restored), Some(stats));
        assert_eq!(restored.counters(), d.counters());
        assert_eq!(snapshot_deepum(&restored), bytes);
    }

    #[test]
    fn journal_bounds_replay() {
        let mut j = LaunchJournal::new(3);
        for seq in 0..3 {
            assert!(j.record(JournalEntry {
                seq,
                iter: 0,
                step: seq
            }));
        }
        assert!(j.is_full());
        assert!(!j.record(JournalEntry {
            seq: 3,
            iter: 0,
            step: 3
        }));
        assert_eq!(j.len(), 3);
        assert_eq!(j.entries()[2].seq, 2);
        j.clear();
        assert!(j.is_empty() && !j.is_full());
        assert_eq!(j.capacity(), 3);
    }

    #[test]
    fn zero_capacity_journal_clamps_to_one() {
        let mut j = LaunchJournal::new(0);
        assert_eq!(j.capacity(), 1);
        assert!(j.record(JournalEntry {
            seq: 0,
            iter: 0,
            step: 0
        }));
        assert!(j.is_full());
    }
}
