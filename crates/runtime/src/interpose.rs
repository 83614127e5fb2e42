//! CUDA API interposition.
//!
//! The real DeepUM runtime is loaded with `LD_PRELOAD` and wraps three
//! classes of CUDA calls; [`CudaRuntime`] models the same surface:
//!
//! * `cudaMalloc`/`cudaFree` → UM-space allocation
//!   ([`CudaRuntime::malloc_managed`], [`CudaRuntime::free_managed`]);
//! * kernel launches (direct or via cuDNN/cuBLAS) → execution-ID
//!   assignment plus the pre-launch callback that tells the driver which
//!   kernel is coming ([`CudaRuntime::launch`]);
//! * PyTorch allocator notifications → PT-block active/inactive state
//!   forwarded to the driver for the invalidation optimization
//!   ([`CudaRuntime::notify_pt_block`], Section 5.2).

use deepum_gpu::kernel::KernelLaunch;
use deepum_mem::ByteRange;
use deepum_sim::time::Ns;
use deepum_um::hints::Advice;
use deepum_um::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use deepum_um::space::{UmAllocError, UmSpace};

use crate::exec_table::{ExecId, ExecutionIdTable};

/// Receiver of runtime → driver notifications (the `ioctl` channel).
///
/// `deepum-core`'s DeepUM driver implements this; the naive UM baseline
/// uses [`NullObserver`].
pub trait LaunchObserver {
    /// A kernel with execution ID `exec` is about to be enqueued.
    /// Delivered by the CUDA callback the runtime registers just before
    /// the launch command (Section 3.1).
    fn on_kernel_launch(&mut self, now: Ns, exec: ExecId, kernel: &KernelLaunch);

    /// The PyTorch allocator changed a PT block's state; `inactive` pages
    /// may be invalidated instead of written back on eviction.
    fn on_pt_block_state(&mut self, now: Ns, range: ByteRange, inactive: bool);

    /// A cached segment was released back to the UM space (`cudaFree`):
    /// residency and learned state for `range` are stale and should be
    /// dropped. Default: ignore.
    fn on_um_range_released(&mut self, _now: Ns, _range: ByteRange) {}

    /// The application advised the driver about `range`'s access
    /// pattern (`cudaMemAdvise`). Default: ignore, so observers that
    /// predate hints (and the naive baseline) need no changes.
    fn on_mem_advise(&mut self, _now: Ns, _range: ByteRange, _advice: Advice) {}
}

/// Observer that ignores every notification (naive UM / baselines).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl LaunchObserver for NullObserver {
    fn on_kernel_launch(&mut self, _now: Ns, _exec: ExecId, _kernel: &KernelLaunch) {}
    fn on_pt_block_state(&mut self, _now: Ns, _range: ByteRange, _inactive: bool) {}
}

/// The interposed CUDA runtime: UM-space allocator + execution ID table.
///
/// # Example
///
/// ```
/// use deepum_runtime::interpose::CudaRuntime;
///
/// let mut rt = CudaRuntime::new(64 << 20);
/// let buf = rt.malloc_managed(1 << 20)?;
/// rt.free_managed(buf);
/// # Ok::<(), deepum_um::space::UmAllocError>(())
/// ```
#[derive(Debug)]
pub struct CudaRuntime {
    space: UmSpace,
    exec_table: ExecutionIdTable,
    launch_intercept_cost: Ns,
}

impl CudaRuntime {
    /// Creates a runtime whose UM space is backed by `host_capacity`
    /// bytes, with the default interception overhead.
    pub fn new(host_capacity: u64) -> Self {
        Self::with_va_base(host_capacity, 0, Ns::from_micros(2))
    }

    /// Creates a runtime whose UM space starts allocating at `va_base`
    /// (block-aligned) instead of address zero, with an explicit
    /// per-launch interception cost (hashing + callback + ioctl).
    /// Multi-tenant runs give each tenant a disjoint VA region of the
    /// shared driver's address space, so block numbers never collide
    /// across tenants.
    pub fn with_va_base(host_capacity: u64, va_base: u64, launch_intercept_cost: Ns) -> Self {
        CudaRuntime {
            space: UmSpace::with_base(host_capacity, va_base),
            exec_table: ExecutionIdTable::new(),
            launch_intercept_cost,
        }
    }

    /// Allocates managed (UM) memory.
    ///
    /// # Errors
    ///
    /// Propagates [`UmAllocError`] when the backing store is exhausted —
    /// the condition that bounds DeepUM's maximum batch size (Table 3).
    pub fn malloc_managed(&mut self, bytes: u64) -> Result<ByteRange, UmAllocError> {
        self.space.alloc(bytes)
    }

    /// Frees managed memory.
    ///
    /// # Panics
    ///
    /// Panics on double free (as the CUDA runtime would abort).
    pub fn free_managed(&mut self, range: ByteRange) {
        self.space.free(range);
    }

    /// Intercepts a kernel launch: assigns its execution ID, notifies the
    /// observer (the driver), and returns `(exec_id, interception_cost)`.
    /// The caller charges the cost to the launching CPU thread's
    /// timeline.
    pub fn launch<O: LaunchObserver + ?Sized>(
        &mut self,
        now: Ns,
        kernel: &KernelLaunch,
        observer: &mut O,
    ) -> (ExecId, Ns) {
        let (exec, _new) = self.exec_table.lookup_or_assign(kernel.signature);
        observer.on_kernel_launch(now, exec, kernel);
        (exec, self.launch_intercept_cost)
    }

    /// Forwards a PT-block state change from the PyTorch allocator to the
    /// driver (Section 5.2's "few lines of code" in the allocator).
    pub fn notify_pt_block<O: LaunchObserver + ?Sized>(
        &mut self,
        now: Ns,
        range: ByteRange,
        inactive: bool,
        observer: &mut O,
    ) {
        observer.on_pt_block_state(now, range, inactive);
    }

    /// Forwards a `cudaMemAdvise` call to the driver. The runtime
    /// itself keeps no hint state — advice is driver policy, so a
    /// restore never has to reconcile it.
    pub fn mem_advise<O: LaunchObserver + ?Sized>(
        &mut self,
        now: Ns,
        range: ByteRange,
        advice: Advice,
        observer: &mut O,
    ) {
        observer.on_mem_advise(now, range, advice);
    }

    /// The execution ID table (for table-size accounting, Table 4).
    pub fn exec_table(&self) -> &ExecutionIdTable {
        &self.exec_table
    }

    /// The UM space (for allocation accounting).
    pub fn space(&self) -> &UmSpace {
        &self.space
    }

    /// Serializes the runtime's recoverable state — the UM space and the
    /// execution ID table — into one snapshot envelope (DESIGN.md §11).
    /// `launch_intercept_cost` is configuration, not state, and is not
    /// written.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.space.encode_into(&mut w);
        self.exec_table.encode_into(&mut w);
        w.finish()
    }

    /// Restores state written by [`CudaRuntime::snapshot`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from envelope validation or payload decode;
    /// on error the runtime is left unchanged.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let space = UmSpace::decode_from(&mut r)?;
        let exec_table = ExecutionIdTable::decode_from(&mut r)?;
        r.finish()?;
        self.space = space;
        self.exec_table = exec_table;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_gpu::kernel::KernelLaunch;

    #[derive(Default)]
    struct Recorder {
        launches: Vec<ExecId>,
        pt_events: Vec<bool>,
        advice: Vec<Advice>,
    }

    impl LaunchObserver for Recorder {
        fn on_kernel_launch(&mut self, _now: Ns, exec: ExecId, _k: &KernelLaunch) {
            self.launches.push(exec);
        }
        fn on_pt_block_state(&mut self, _now: Ns, _range: ByteRange, inactive: bool) {
            self.pt_events.push(inactive);
        }
        fn on_mem_advise(&mut self, _now: Ns, _range: ByteRange, advice: Advice) {
            self.advice.push(advice);
        }
    }

    fn kernel(name: &str) -> KernelLaunch {
        KernelLaunch::new(name, &[], vec![], Ns::from_micros(1))
    }

    #[test]
    fn launch_assigns_stable_exec_ids() {
        let mut rt = CudaRuntime::new(1 << 30);
        let mut obs = Recorder::default();
        let (a, cost) = rt.launch(Ns::ZERO, &kernel("k1"), &mut obs);
        let (b, _) = rt.launch(Ns::ZERO, &kernel("k2"), &mut obs);
        let (a2, _) = rt.launch(Ns::ZERO, &kernel("k1"), &mut obs);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert!(cost > Ns::ZERO);
        assert_eq!(obs.launches, vec![a, b, a]);
        assert_eq!(rt.exec_table().len(), 2);
    }

    #[test]
    fn pt_block_notifications_reach_observer() {
        let mut rt = CudaRuntime::new(1 << 30);
        let mut obs = Recorder::default();
        let buf = rt.malloc_managed(1 << 20).unwrap();
        rt.notify_pt_block(Ns::ZERO, buf, true, &mut obs);
        rt.notify_pt_block(Ns::ZERO, buf, false, &mut obs);
        assert_eq!(obs.pt_events, vec![true, false]);
    }

    #[test]
    fn mem_advise_reaches_observer() {
        let mut rt = CudaRuntime::new(1 << 30);
        let mut obs = Recorder::default();
        let buf = rt.malloc_managed(1 << 20).unwrap();
        rt.mem_advise(Ns::ZERO, buf, Advice::ReadMostly, &mut obs);
        rt.mem_advise(Ns::ZERO, buf, Advice::AccessedBy, &mut obs);
        assert_eq!(obs.advice, vec![Advice::ReadMostly, Advice::AccessedBy]);
        // The default impl ignores advice — the naive baseline compiles
        // and behaves exactly as before.
        let mut null = NullObserver;
        rt.mem_advise(Ns::ZERO, buf, Advice::PreferredLocation, &mut null);
    }

    #[test]
    fn alloc_free_round_trip() {
        let mut rt = CudaRuntime::new(1 << 20);
        let buf = rt.malloc_managed(4096).unwrap();
        assert_eq!(rt.space().allocated_bytes(), 4096);
        rt.free_managed(buf);
        assert_eq!(rt.space().allocated_bytes(), 0);
    }

    #[test]
    fn oom_surfaces() {
        let mut rt = CudaRuntime::new(4096);
        assert!(rt.malloc_managed(8192).is_err());
    }

    #[test]
    fn snapshot_restores_space_and_exec_table() {
        let mut rt = CudaRuntime::new(1 << 24);
        let mut obs = NullObserver;
        let keep = rt.malloc_managed(1 << 20).unwrap();
        let drop_me = rt.malloc_managed(1 << 16).unwrap();
        rt.launch(Ns::ZERO, &kernel("k1"), &mut obs);
        rt.launch(Ns::ZERO, &kernel("k2"), &mut obs);
        let bytes = rt.snapshot();

        // Diverge, then restore.
        rt.free_managed(drop_me);
        rt.launch(Ns::ZERO, &kernel("k3"), &mut obs);
        rt.restore(&bytes).expect("restore succeeds");

        assert_eq!(rt.space().allocated_bytes(), (1 << 20) + (1 << 16));
        assert_eq!(rt.exec_table().len(), 2);
        let _ = keep;
        // Re-snapshot of restored state is byte-identical.
        assert_eq!(rt.snapshot(), bytes);
        // The restored space rejects a double free of the restored range
        // only after it is actually freed again.
        rt.free_managed(drop_me);
        assert_eq!(rt.space().allocated_bytes(), 1 << 20);
    }

    #[test]
    fn restore_rejects_corrupt_envelope() {
        let mut rt = CudaRuntime::new(1 << 20);
        let mut bytes = rt.snapshot();
        if let Some(b) = bytes.last_mut() {
            *b ^= 1;
        }
        assert!(rt.restore(&bytes).is_err());
    }

    #[test]
    fn null_observer_ignores_everything() {
        let mut rt = CudaRuntime::new(1 << 20);
        let mut obs = NullObserver;
        let (exec, _) = rt.launch(Ns::ZERO, &kernel("k"), &mut obs);
        assert_eq!(exec, ExecId(0));
    }
}
