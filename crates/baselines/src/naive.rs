//! The naive UM baseline: the bare NVIDIA UM driver, no prefetching.

use deepum_gpu::engine::{BackendError, UmBackend};
use deepum_gpu::fault::FaultEntry;
use deepum_gpu::kernel::KernelLaunch;
use deepum_mem::{BlockNum, ByteRange, PageMask};
use deepum_runtime::exec_table::ExecId;
use deepum_runtime::interpose::LaunchObserver;
use deepum_sim::costs::CostModel;
use deepum_sim::faultinject::SharedInjector;
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;
use deepum_trace::SharedTracer;
use deepum_um::driver::UmDriver;
use deepum_um::snapshot::{SnapshotReader, SnapshotWriter};

/// Newtype over [`UmDriver`] that also implements [`LaunchObserver`]
/// (ignoring runtime notifications), so the UM executor can drive naive
/// UM through the same interface as DeepUM.
///
/// This is the denominator of every speedup in the paper's evaluation:
/// "NVIDIA UM without prefetching".
#[derive(Debug)]
pub struct NaiveUm {
    um: UmDriver,
    kernels_launched: u64,
}

impl NaiveUm {
    /// Creates the baseline on the platform described by `costs`.
    pub fn new(costs: CostModel) -> Self {
        NaiveUm {
            um: UmDriver::new(costs),
            kernels_launched: 0,
        }
    }

    /// The wrapped UM driver.
    pub fn um(&self) -> &UmDriver {
        &self.um
    }

    /// Counter snapshot.
    pub fn counters(&self) -> Counters {
        let mut c = self.um.counters();
        c.kernels_launched = self.kernels_launched;
        c
    }
}

impl UmBackend for NaiveUm {
    fn resident_miss(&self, block: BlockNum, pages: &PageMask) -> PageMask {
        self.um.resident_miss(block, pages)
    }

    fn handle_faults(&mut self, now: Ns, faults: &[FaultEntry]) -> Result<Ns, BackendError> {
        self.um.handle_faults(now, faults)
    }

    fn touch(&mut self, now: Ns, block: BlockNum, pages: &PageMask) {
        self.um.touch(now, block, pages)
    }

    fn overlap_compute(&mut self, _now: Ns, _dur: Ns) -> Ns {
        Ns::ZERO
    }

    fn kernel_finished(&mut self, _now: Ns) {}

    fn install_injector(&mut self, injector: SharedInjector) {
        self.um.install_injector(injector);
    }

    fn install_tracer(&mut self, tracer: SharedTracer) {
        self.um.set_tracer(tracer);
    }

    fn validate(&self) -> Result<(), String> {
        self.um.validate()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut w = SnapshotWriter::new();
        w.u64(self.kernels_launched);
        deepum_um::snapshot::write_driver_state(&self.um, &mut w);
        Some(w.finish())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let restore = |um: &mut UmDriver| -> Result<u64, deepum_um::snapshot::SnapshotError> {
            let mut r = SnapshotReader::new(bytes)?;
            let kernels_launched = r.u64()?;
            deepum_um::snapshot::read_driver_state(um, &mut r)?;
            r.finish()?;
            Ok(kernels_launched)
        };
        self.kernels_launched = restore(&mut self.um).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn resident_pages(&self) -> u64 {
        self.um.resident_pages()
    }

    fn wear(&self) -> Option<deepum_gpu::engine::WearStats> {
        UmBackend::wear(&self.um)
    }
}

impl LaunchObserver for NaiveUm {
    fn on_kernel_launch(&mut self, _now: Ns, _exec: ExecId, _kernel: &KernelLaunch) {
        self.kernels_launched += 1;
    }

    fn on_pt_block_state(&mut self, _now: Ns, _range: ByteRange, _inactive: bool) {}

    fn on_um_range_released(&mut self, _now: Ns, range: ByteRange) {
        self.um.release_range(range);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_gpu::fault::AccessKind;

    #[test]
    fn naive_um_never_prefetches() {
        let mut b = NaiveUm::new(CostModel::v100_32gb());
        let faults: Vec<FaultEntry> = vec![FaultEntry {
            block: BlockNum::new(0),
            pages: PageMask::first_n(64),
            kind: AccessKind::Read,
        }];
        let stall = b.handle_faults(Ns::ZERO, &faults).expect("faults handled");
        assert!(stall > Ns::ZERO);
        assert_eq!(b.counters().pages_prefetched, 0);
        assert_eq!(b.overlap_compute(Ns::ZERO, Ns::from_millis(1)), Ns::ZERO);
    }

    #[test]
    fn release_clears_residency() {
        let mut b = NaiveUm::new(CostModel::v100_32gb());
        let faults: Vec<FaultEntry> = vec![FaultEntry {
            block: BlockNum::new(0),
            pages: PageMask::first_n(64),
            kind: AccessKind::Read,
        }];
        b.handle_faults(Ns::ZERO, &faults).expect("faults handled");
        assert_eq!(b.um().resident_pages(), 64);
        b.on_um_range_released(
            Ns::ZERO,
            ByteRange::new(deepum_mem::UmAddr::new(0), deepum_mem::BLOCK_SIZE as u64),
        );
        assert_eq!(b.um().resident_pages(), 0);
    }

    #[test]
    fn snapshot_round_trips() {
        let mut b = NaiveUm::new(CostModel::v100_32gb());
        b.on_kernel_launch(
            Ns::ZERO,
            ExecId(0),
            &KernelLaunch::new("k", &[], vec![], Ns::from_micros(1)),
        );
        let faults: Vec<FaultEntry> = vec![FaultEntry {
            block: BlockNum::new(3),
            pages: PageMask::first_n(64),
            kind: AccessKind::Read,
        }];
        b.handle_faults(Ns::ZERO, &faults).expect("faults handled");
        let bytes = b.snapshot_state().expect("naive um snapshots");

        let mut restored = NaiveUm::new(CostModel::v100_32gb());
        restored.restore_state(&bytes).expect("restore succeeds");
        restored.validate().expect("restored baseline validates");
        assert_eq!(restored.counters(), b.counters());
        assert_eq!(restored.um().resident_pages(), 64);
        assert_eq!(restored.snapshot_state().expect("re-snapshot"), bytes);

        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        assert!(restored.restore_state(&corrupt).is_err());
    }
}
