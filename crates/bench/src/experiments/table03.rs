//! Table 3: maximum possible batch sizes, IBM LMS vs DeepUM.
//!
//! "DeepUM can run the models with the batch size that requires the peak
//! memory usage to be almost the same as the total CPU memory size."
//! DeepUM's bound is probed by replaying the workload's allocation
//! sequence through the caching allocator over UM space (host-memory
//! budget); LMS's bound is probed by actually executing iterations of
//! the swap path, where the device-memory pool (and its fragmentation)
//! decides.

use deepum_torch::alloc::CachingAllocator;
use deepum_torch::models::ModelKind;
use deepum_torch::step::Step;
use deepum_um::space::UmSpace;
use serde::{Deserialize, Serialize};

use crate::cache::RunCache;
use crate::opts::Opts;
use crate::table::Table;
use deepum_baselines::suite::{run_system, RunParams, System};

/// The Table 3 models with the paper's LMS-side starting points.
pub const MODELS: &[(ModelKind, usize)] = &[
    (ModelKind::Gpt2Xl, 3),
    (ModelKind::Gpt2L, 3),
    (ModelKind::BertLarge, 14),
    (ModelKind::BertBase, 29),
    (ModelKind::Dlrm, 128_000),
    (ModelKind::ResNet200, 1536),
    (ModelKind::ResNet152, 1536),
];

/// Result row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxBatchRow {
    /// Model label.
    pub model: String,
    /// Largest batch LMS completes.
    pub lms: usize,
    /// Largest batch DeepUM's allocation probe admits.
    pub deepum: usize,
}

/// True if every allocation of `workload(batch)` fits the UM space.
pub fn deepum_alloc_probe(model: ModelKind, batch: usize, host_bytes: u64) -> bool {
    let workload = model.build(batch);
    let mut space = UmSpace::new(host_bytes);
    let mut alloc = CachingAllocator::new();
    let mut events = Vec::new();
    let mut map = std::collections::HashMap::new();
    for t in &workload.persistent {
        match alloc.alloc(t.bytes, &mut space, &mut events) {
            Ok((id, _)) => {
                map.insert(t.id, id);
            }
            Err(_) => return false,
        }
        events.clear();
    }
    for step in &workload.steps {
        match step {
            Step::Alloc(t) => match alloc.alloc(t.bytes, &mut space, &mut events) {
                Ok((id, _)) => {
                    map.insert(t.id, id);
                }
                Err(_) => return false,
            },
            Step::Free(id) => {
                let block = map.remove(id).expect("free of unallocated tensor");
                alloc.free(block, &mut events);
            }
            Step::Kernel(_) => {}
        }
        events.clear();
    }
    true
}

/// Largest batch for which `ok` holds, searched by doubling then
/// bisection from `start`.
pub fn max_batch<F: FnMut(usize) -> bool>(start: usize, cap: usize, mut ok: F) -> usize {
    let mut lo = 0usize; // largest known-good
    let mut hi = start.max(1);
    // Grow until failure (or cap).
    loop {
        if hi > cap {
            hi = cap + 1;
            break;
        }
        if ok(hi) {
            lo = hi;
            hi *= 2;
        } else {
            break;
        }
    }
    // Bisect (lo good, hi bad).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Runs the Table 3 search.
pub fn run(opts: &Opts) -> Vec<MaxBatchRow> {
    let cache = RunCache::new(&opts.out);
    let mut rows = Vec::new();
    for &(model, start) in MODELS {
        if !opts.selected(model.label()) {
            continue;
        }
        let mut params = RunParams::v100_32gb(2, opts.seed);
        params.costs.device_memory_bytes = opts.memory(params.costs.device_memory_bytes);
        params.costs.host_memory_bytes = opts.memory(params.costs.host_memory_bytes);
        let host = params.costs.host_memory_bytes;
        let start = opts.batch(start);
        let cap = start.saturating_mul(512).max(1024);

        let lms = max_batch(start, cap, |b| {
            let key = format!("max-lms-{}-b{}-sc{}", model.label(), b, opts.scale);
            cache
                .run(&key, || run_system(&System::Lms, &model.build(b), &params))
                .is_ok()
        });
        let deepum = max_batch(start, cap, |b| deepum_alloc_probe(model, b, host));
        rows.push(MaxBatchRow {
            model: model.label().into(),
            lms,
            deepum,
        });
    }
    rows
}

/// Renders Table 3.
pub fn table(rows: &[MaxBatchRow]) -> Table {
    let mut t = Table::new(
        "Table 3: maximum possible batch sizes (V100 32GB, 512GB host)",
        &["model", "lms", "deepum"],
    );
    for r in rows {
        t.row([r.model.clone(), r.lms.to_string(), r.deepum.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_finds_threshold() {
        // ok(b) = b <= 37
        let got = max_batch(4, 10_000, |b| b <= 37);
        assert_eq!(got, 37);
        let got = max_batch(64, 10_000, |b| b <= 37);
        assert_eq!(got, 37);
    }

    #[test]
    fn search_respects_cap() {
        assert_eq!(max_batch(4, 100, |_| true), 100);
    }

    #[test]
    fn search_handles_immediate_failure() {
        assert_eq!(max_batch(4, 100, |_| false), 0);
    }

    #[test]
    fn alloc_probe_monotone_in_memory() {
        let small = deepum_alloc_probe(ModelKind::MobileNet, 64, 64 << 20);
        let big = deepum_alloc_probe(ModelKind::MobileNet, 64, 16 << 30);
        assert!(!small);
        assert!(big);
    }
}
