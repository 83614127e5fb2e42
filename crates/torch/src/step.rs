//! Workload representation: tensors, steps, and training iterations.
//!
//! A model is compiled (by the [`crate::models`] builders) into a
//! [`Workload`]: a set of persistent tensors (parameters, gradients,
//! optimizer state) plus the step sequence of **one training iteration**
//! (forward, backward, optimizer). The executor replays the sequence per
//! iteration; because DNN training repeats the same kernels in the same
//! order with the same shapes, this is exactly the regularity DeepUM's
//! correlation tables exploit — and DLRM's [`GatherAccess`] is exactly
//! the data-dependent irregularity they cannot.

use std::collections::HashSet;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Identifier of a workload tensor, dense per workload.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TensorId(pub u32);

impl TensorId {
    /// Raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for TensorId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Size (and identity) of one tensor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TensorSpec {
    /// Dense workload-local identifier.
    pub id: TensorId,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// A sparse, data-dependent read of an embedding-style table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatherAccess {
    /// The table tensor being indexed.
    pub table: TensorId,
    /// Rows gathered per execution (≈ batch size × features).
    pub lookups: u32,
    /// Bytes per row.
    pub row_bytes: u32,
    /// Popularity skew of row indices (`zipf_like` exponent); 0 =
    /// uniform.
    pub skew: f64,
}

/// One kernel launch in the iteration program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelStep {
    /// Stable kernel name; repeated launches of the same (name, args)
    /// combination share an execution ID.
    pub name: Arc<str>,
    /// Scalar launch arguments (shapes, batch) hashed into the identity.
    pub args: Vec<u64>,
    /// Tensors read densely (full extent, ascending address order).
    pub reads: Vec<TensorId>,
    /// Tensors written densely.
    pub writes: Vec<TensorId>,
    /// Sparse reads (DLRM embedding lookups).
    pub gathers: Vec<GatherAccess>,
    /// Floating-point work, for the compute-time model.
    pub flops: f64,
}

/// One step of the per-iteration program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Step {
    /// Allocate a transient tensor (activation, gradient buffer).
    Alloc(TensorSpec),
    /// Release a transient tensor back to the caching allocator.
    Free(TensorId),
    /// Launch a kernel.
    Kernel(KernelStep),
}

/// A complete training workload: persistent state plus the program of one
/// iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Human-readable name, e.g. `"gpt2-xl/b7"`.
    pub name: String,
    /// Model family, e.g. `"gpt2-xl"`.
    pub model: String,
    /// Training batch size.
    pub batch: usize,
    /// Tensors allocated once before the first iteration (weights,
    /// gradients, optimizer state, embedding tables).
    pub persistent: Vec<TensorSpec>,
    /// The step program of one training iteration.
    pub steps: Vec<Step>,
}

impl Workload {
    /// Total bytes of persistent tensors.
    pub fn persistent_bytes(&self) -> u64 {
        self.persistent.iter().map(|t| t.bytes).sum()
    }

    /// Peak transient bytes live at any point of the iteration.
    pub fn peak_transient_bytes(&self) -> u64 {
        let mut live = 0u64;
        let mut peak = 0u64;
        let mut sizes = std::collections::HashMap::new();
        for step in &self.steps {
            match step {
                Step::Alloc(t) => {
                    sizes.insert(t.id, t.bytes);
                    live += t.bytes;
                    peak = peak.max(live);
                }
                Step::Free(id) => {
                    live -= sizes.get(id).copied().unwrap_or(0);
                }
                Step::Kernel(_) => {}
            }
        }
        peak
    }

    /// Peak total footprint (persistent + peak transient).
    pub fn peak_bytes(&self) -> u64 {
        self.persistent_bytes() + self.peak_transient_bytes()
    }

    /// Number of kernel launches per iteration.
    pub fn kernel_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Kernel(_)))
            .count()
    }

    /// Total FLOPs per iteration.
    pub fn total_flops(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Kernel(k) => k.flops,
                _ => 0.0,
            })
            .sum()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found: a kernel using
    /// a tensor that is not live, a double alloc/free, or a transient
    /// tensor leaked at iteration end (transients must be balanced so the
    /// program can repeat).
    pub fn validate(&self) -> Result<(), String> {
        let mut live: HashSet<TensorId> = self.persistent.iter().map(|t| t.id).collect();
        if live.len() != self.persistent.len() {
            return Err("duplicate persistent tensor id".into());
        }
        let persistent = live.clone();
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                Step::Alloc(t) => {
                    if !live.insert(t.id) {
                        return Err(format!("step {i}: alloc of live tensor {}", t.id));
                    }
                }
                Step::Free(id) => {
                    if persistent.contains(id) {
                        return Err(format!("step {i}: free of persistent tensor {id}"));
                    }
                    if !live.remove(id) {
                        return Err(format!("step {i}: free of dead tensor {id}"));
                    }
                }
                Step::Kernel(k) => {
                    for id in k.reads.iter().chain(&k.writes) {
                        if !live.contains(id) {
                            return Err(format!("step {i} ({}): uses dead tensor {id}", k.name));
                        }
                    }
                    for g in &k.gathers {
                        if !live.contains(&g.table) {
                            return Err(format!(
                                "step {i} ({}): gathers dead tensor {}",
                                k.name, g.table
                            ));
                        }
                    }
                }
            }
        }
        let leaked: Vec<_> = live.difference(&persistent).collect();
        if !leaked.is_empty() {
            return Err(format!("{} transient tensors leaked", leaked.len()));
        }
        Ok(())
    }
}

/// Incremental builder used by the model generators.
///
/// # Example
///
/// ```
/// use deepum_torch::step::WorkloadBuilder;
///
/// let mut b = WorkloadBuilder::new("toy", "toy", 4);
/// let w = b.persistent(1 << 20);
/// let act = b.alloc(1 << 16);
/// b.kernel("toy.fwd").reads(&[w]).writes(&[act]).flops(1e6).launch();
/// b.free(act);
/// let workload = b.build();
/// assert!(workload.validate().is_ok());
/// assert_eq!(workload.kernel_count(), 1);
/// ```
#[derive(Debug)]
pub struct WorkloadBuilder {
    name: String,
    model: String,
    batch: usize,
    next_id: u32,
    persistent: Vec<TensorSpec>,
    steps: Vec<Step>,
}

impl WorkloadBuilder {
    /// Starts a workload named `name` for `model` at `batch`.
    pub fn new(name: impl Into<String>, model: impl Into<String>, batch: usize) -> Self {
        WorkloadBuilder {
            name: name.into(),
            model: model.into(),
            batch,
            next_id: 0,
            persistent: Vec::new(),
            steps: Vec::new(),
        }
    }

    fn fresh(&mut self) -> TensorId {
        let id = TensorId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Declares a persistent tensor of `bytes`.
    pub fn persistent(&mut self, bytes: u64) -> TensorId {
        let id = self.fresh();
        self.persistent.push(TensorSpec { id, bytes });
        id
    }

    /// Emits an allocation of a transient tensor of `bytes`.
    pub fn alloc(&mut self, bytes: u64) -> TensorId {
        let id = self.fresh();
        self.steps.push(Step::Alloc(TensorSpec { id, bytes }));
        id
    }

    /// Emits a free of a transient tensor.
    pub fn free(&mut self, id: TensorId) {
        self.steps.push(Step::Free(id));
    }

    /// Starts a kernel step; finish with [`KernelStepBuilder::launch`].
    pub fn kernel(&mut self, name: impl Into<Arc<str>>) -> KernelStepBuilder<'_> {
        KernelStepBuilder {
            builder: self,
            step: KernelStep {
                name: name.into(),
                args: Vec::new(),
                reads: Vec::new(),
                writes: Vec::new(),
                gathers: Vec::new(),
                flops: 0.0,
            },
        }
    }

    /// Finishes the workload.
    pub fn build(self) -> Workload {
        Workload {
            name: self.name,
            model: self.model,
            batch: self.batch,
            persistent: self.persistent,
            steps: self.steps,
        }
    }
}

/// Builder for one kernel step; created by [`WorkloadBuilder::kernel`].
#[derive(Debug)]
pub struct KernelStepBuilder<'a> {
    builder: &'a mut WorkloadBuilder,
    step: KernelStep,
}

impl KernelStepBuilder<'_> {
    /// Adds scalar launch arguments (part of the kernel identity).
    pub fn args(mut self, args: &[u64]) -> Self {
        self.step.args.extend_from_slice(args);
        self
    }

    /// Adds dense read operands.
    pub fn reads(mut self, ids: &[TensorId]) -> Self {
        self.step.reads.extend_from_slice(ids);
        self
    }

    /// Adds dense write operands.
    pub fn writes(mut self, ids: &[TensorId]) -> Self {
        self.step.writes.extend_from_slice(ids);
        self
    }

    /// Adds a sparse gather over `table`.
    pub fn gather(mut self, table: TensorId, lookups: u32, row_bytes: u32, skew: f64) -> Self {
        self.step.gathers.push(GatherAccess {
            table,
            lookups,
            row_bytes,
            skew,
        });
        self
    }

    /// Sets the FLOP count.
    pub fn flops(mut self, flops: f64) -> Self {
        self.step.flops = flops;
        self
    }

    /// Emits the kernel step into the workload.
    pub fn launch(self) {
        self.builder.steps.push(Step::Kernel(self.step));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Workload {
        let mut b = WorkloadBuilder::new("toy/b2", "toy", 2);
        let w = b.persistent(10 << 20);
        let a1 = b.alloc(1 << 20);
        b.kernel("l1.fwd")
            .args(&[2])
            .reads(&[w])
            .writes(&[a1])
            .flops(1e9)
            .launch();
        let a2 = b.alloc(2 << 20);
        b.kernel("l2.fwd")
            .reads(&[a1])
            .writes(&[a2])
            .flops(2e9)
            .launch();
        b.free(a1);
        b.kernel("l2.bwd")
            .reads(&[a2])
            .writes(&[w])
            .flops(2e9)
            .launch();
        b.free(a2);
        b.build()
    }

    #[test]
    fn builder_produces_valid_workload() {
        let w = toy();
        assert!(w.validate().is_ok());
        assert_eq!(w.kernel_count(), 3);
        assert_eq!(w.persistent_bytes(), 10 << 20);
        assert!((w.total_flops() - 5e9).abs() < 1.0);
    }

    #[test]
    fn peak_accounts_for_overlap() {
        let w = toy();
        // a1 (1 MiB) and a2 (2 MiB) are simultaneously live.
        assert_eq!(w.peak_transient_bytes(), 3 << 20);
        assert_eq!(w.peak_bytes(), (10 << 20) + (3 << 20));
    }

    #[test]
    fn validate_catches_use_after_free() {
        let mut b = WorkloadBuilder::new("bad", "bad", 1);
        let a = b.alloc(1024);
        b.free(a);
        b.kernel("k").reads(&[a]).launch();
        let err = b.build().validate().unwrap_err();
        assert!(err.contains("dead tensor"), "{err}");
    }

    #[test]
    fn validate_catches_leak() {
        let mut b = WorkloadBuilder::new("bad", "bad", 1);
        let _ = b.alloc(1024);
        let err = b.build().validate().unwrap_err();
        assert!(err.contains("leaked"), "{err}");
    }

    #[test]
    fn validate_catches_double_free() {
        let mut b = WorkloadBuilder::new("bad", "bad", 1);
        let a = b.alloc(1024);
        b.free(a);
        b.free(a);
        assert!(b.build().validate().is_err());
    }

    #[test]
    fn validate_rejects_freeing_persistent() {
        let mut b = WorkloadBuilder::new("bad", "bad", 1);
        let w = b.persistent(1024);
        b.free(w);
        let err = b.build().validate().unwrap_err();
        assert!(err.contains("persistent"), "{err}");
    }

    #[test]
    fn gather_tables_must_be_live() {
        let mut b = WorkloadBuilder::new("bad", "bad", 1);
        b.kernel("k").gather(TensorId(99), 10, 512, 1.1).launch();
        assert!(b.build().validate().is_err());
    }
}
