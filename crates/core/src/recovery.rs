//! Checkpoint/restore of the DeepUM driver for replay recovery
//! (DESIGN.md §11).
//!
//! A hard fault — scheduled device reset, driver crash mid-drain — ends
//! the current simulated GPU epoch. The executor recovers by restoring
//! the last checkpoint and re-executing the journaled kernel launches.
//! This module provides the two pieces the protocol needs from the
//! DeepUM side:
//!
//! * [`snapshot_deepum`] / [`restore_deepum`] — a versioned, checksummed,
//!   serde-free binary image of the whole driver: the nested UM driver
//!   (residency, LRU, counters), the correlation tables, the learned
//!   footprints, and the ephemeral prefetch state (chain walk, prefetch
//!   queue, predicted window, watchdog);
//! * [`RecoveryReport`] — the metrics block the executor attaches to the
//!   run report when recovery machinery was active.
//!
//! ECC poisoning state ([`crate::DeepumDriver::is_poisoned`]) is
//! deliberately *not* part of the snapshot: a restore rewinds learned
//! state, not hardware faults that already happened.

use std::collections::VecDeque;

use deepum_runtime::exec_table::ExecId;
use deepum_um::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use serde::{Deserialize, Serialize};

use crate::chain::{ChainWalk, PrefetchCommand};
use crate::correlation::{BlockCorrelationTable, ExecCorrelationTable};
use crate::driver::{DeepumDriver, PREFETCH_QUEUE_CAPACITY};
use crate::footprint::FootprintMap;
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

fn write_opt_u32(w: &mut SnapshotWriter, v: Option<u32>) {
    w.bool(v.is_some());
    if let Some(v) = v {
        w.u32(v);
    }
}

fn read_opt_u32(r: &mut SnapshotReader<'_>) -> Result<Option<u32>, SnapshotError> {
    Ok(if r.bool()? { Some(r.u32()?) } else { None })
}

/// Writes the prefetch queue: its capacity, a rejected-push count that
/// is always zero (the prefetching thread pushes only while the queue
/// has room), the lifetime push count, and the queued commands oldest
/// first.
fn write_prefetch_queue(w: &mut SnapshotWriter, queue: &VecDeque<PrefetchCommand>, pushed: u64) {
    w.u64(deepum_mem::u64_from_usize(PREFETCH_QUEUE_CAPACITY));
    w.u64(0);
    w.u64(pushed);
    w.u64(deepum_mem::u64_from_usize(queue.len()));
    for cmd in queue {
        w.block(cmd.block);
        w.u32(cmd.exec.0);
    }
}

/// Reads a queue written by [`write_prefetch_queue`] and its push count.
/// Any capacity but [`PREFETCH_QUEUE_CAPACITY`], a non-zero rejected
/// count, or more commands than the capacity is
/// [`SnapshotError::Corrupt`].
fn read_prefetch_queue(
    r: &mut SnapshotReader<'_>,
) -> Result<(VecDeque<PrefetchCommand>, u64), SnapshotError> {
    let capacity = r.u64()?;
    if capacity != deepum_mem::u64_from_usize(PREFETCH_QUEUE_CAPACITY) {
        return Err(SnapshotError::Corrupt(format!(
            "bad prefetch queue capacity {capacity}"
        )));
    }
    let rejected = r.u64()?;
    if rejected != 0 {
        return Err(SnapshotError::Corrupt(format!(
            "prefetch queue rejected {rejected} pushes"
        )));
    }
    let pushed = r.u64()?;
    let len = r.len_prefix(12)?;
    if len > PREFETCH_QUEUE_CAPACITY {
        return Err(SnapshotError::Corrupt(format!(
            "queue length {len} exceeds capacity {PREFETCH_QUEUE_CAPACITY}"
        )));
    }
    let mut queue = VecDeque::with_capacity(len);
    for _ in 0..len {
        queue.push_back(PrefetchCommand {
            block: r.block()?,
            exec: ExecId(r.u32()?),
        });
    }
    Ok((queue, pushed))
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
    write_prefetch_queue(&mut w, &d.prefetch_q, d.prefetch_pushed);
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
/// Any [`SnapshotError`] from envelope validation or payload decode; a
/// block table whose geometry is not `d`'s configured one is
/// [`SnapshotError::Corrupt`]. On
/// error the driver may hold a partially restored state and must not be
/// used — the executor treats a failed restore as an unrecoverable run.
pub fn restore_deepum(d: &mut DeepumDriver, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = SnapshotReader::new(bytes)?;
    deepum_um::snapshot::read_driver_state(&mut d.um, &mut r)?;
    let exec_corr = ExecCorrelationTable::decode_from(&mut r)?;

    let cfg = d.config();
    let geometry = (
        cfg.block_table_rows,
        cfg.block_table_assoc,
        cfg.block_table_succs,
    );
    let num_tables = r.len_prefix(1)?;
    let mut block_tables = Vec::with_capacity(num_tables);
    for _ in 0..num_tables {
        block_tables.push(if r.bool()? {
            Some(BlockCorrelationTable::decode_from(&mut r, geometry)?)
        } else {
            None
        });
    }
    let footprints = FootprintMap::decode_from(&mut r)?;

    let current_exec = read_opt_u32(&mut r)?.map(ExecId);
    let mut history = [ExecId(0); 3];
    for h in &mut history {
        *h = ExecId(r.u32()?);
    }
    let first_fault_pending = r.bool()?;
    let prev_fault_block = if r.bool()? { Some(r.block()?) } else { None };
    let last_fault_block = if r.bool()? { Some(r.block()?) } else { None };
    let pending_prediction = read_opt_u32(&mut r)?.map(ExecId);

    let chain = if r.bool()? {
        Some(ChainWalk::decode_from(&mut r)?)
    } else {
        None
    };
    let (prefetch_q, prefetch_pushed) = read_prefetch_queue(&mut r)?;
    let mut enqueued = deepum_mem::DenseBlockSet::new();
    for _ in 0..r.len_prefix(8)? {
        enqueued.insert(r.block()?);
    }
    let mut protected = deepum_mem::DenseBlockSet::new();
    for _ in 0..r.len_prefix(8)? {
        protected.insert(r.block()?);
    }
    let mut predicted_window = VecDeque::new();
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
    d.prefetch_pushed = prefetch_pushed;
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
    use deepum_runtime::interpose::LaunchObserver;
    use deepum_sim::costs::CostModel;
    use deepum_sim::time::Ns;

    use crate::config::DeepumConfig;

    fn driver(capacity_blocks: u64) -> DeepumDriver {
        let costs = CostModel::v100_32gb().with_device_memory(capacity_blocks * BLOCK_SIZE as u64);
        DeepumDriver::new(costs, DeepumConfig::default())
    }

    fn fault_block(d: &mut DeepumDriver, now: Ns, block: u64) {
        fault_pages(d, now, block, PageMask::first_n(64));
    }

    fn fault_pages(d: &mut DeepumDriver, now: Ns, block: u64, pages: PageMask) {
        let entries: Vec<FaultEntry> = vec![FaultEntry {
            block: BlockNum::new(block),
            pages,
            kind: AccessKind::Read,
        }];
        d.handle_faults(now, &entries).expect("faults handled");
    }

    /// Drives a 2-kernel loop for `iters` iterations so every piece of
    /// learned and ephemeral state is populated.
    fn train(d: &mut DeepumDriver, iters: usize) {
        train_pages(d, iters, &PageMask::first_n(64));
    }

    /// [`train`] touching `pages` of each block.
    fn train_pages(d: &mut DeepumDriver, iters: usize, pages: &PageMask) {
        let (ka, kb) = (
            KernelLaunch::new("A", &[], vec![], Ns::from_micros(10)),
            KernelLaunch::new("B", &[], vec![], Ns::from_micros(10)),
        );
        let mut now = Ns::ZERO;
        for _ in 0..iters {
            d.on_kernel_launch(now, ExecId(0), &ka);
            for b in [0u64, 1] {
                if !d.resident_miss(BlockNum::new(b), pages).is_empty() {
                    fault_pages(d, now, b, *pages);
                }
                d.touch(now, BlockNum::new(b), pages);
            }
            d.overlap_compute(now, Ns::from_millis(10));
            d.kernel_finished(now);
            d.on_kernel_launch(now, ExecId(1), &kb);
            for b in [2u64, 3] {
                if !d.resident_miss(BlockNum::new(b), pages).is_empty() {
                    fault_pages(d, now, b, *pages);
                }
                d.touch(now, BlockNum::new(b), pages);
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
    fn prefetch_queue_decode_rejects_foreign_capacity_and_rejections() {
        let decode = |capacity: usize, rejected: u64| {
            let mut w = SnapshotWriter::new();
            w.u64(deepum_mem::u64_from_usize(capacity));
            w.u64(rejected);
            w.u64(5);
            w.u64(1);
            w.block(BlockNum::new(3));
            w.u32(7);
            let bytes = w.finish();
            let mut r = SnapshotReader::new(&bytes).expect("envelope is valid");
            read_prefetch_queue(&mut r)
        };
        let (queue, pushed) = decode(PREFETCH_QUEUE_CAPACITY, 0).expect("own capacity decodes");
        assert_eq!(pushed, 5);
        assert_eq!(
            queue,
            [PrefetchCommand {
                block: BlockNum::new(3),
                exec: ExecId(7),
            }]
        );
        for (capacity, rejected) in [
            (PREFETCH_QUEUE_CAPACITY - 1, 0),
            (1, 0),
            (PREFETCH_QUEUE_CAPACITY, 1),
        ] {
            assert!(matches!(
                decode(capacity, rejected),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }

    /// Length and FNV-1a 64-bit digest of the checkpoint of a 2-block
    /// driver trained for three iterations on full blocks, then stopped
    /// after the next kernel's first fault batch: its prefetch queue,
    /// chain walk and predicted window are all non-empty. The goldens pin
    /// only checkpoint sizes; this pins the bytes.
    const PINNED_SNAPSHOT: (usize, u64) = (54_291, 0x270c_593d_5a34_0d86);

    #[test]
    fn snapshot_content_is_pinned() {
        let mut d = driver(2);
        train_pages(&mut d, 3, &PageMask::full());
        let now = Ns::from_millis(75);
        let ka = KernelLaunch::new("A", &[], vec![], Ns::from_micros(10));
        d.on_kernel_launch(now, ExecId(0), &ka);
        fault_pages(&mut d, now, 0, PageMask::full());
        assert!(!d.prefetch_q.is_empty());
        assert!(d.chain.is_some());
        assert!(!d.predicted_window.is_empty());

        let bytes = snapshot_deepum(&d);
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), digest), PINNED_SNAPSHOT);
    }
}
