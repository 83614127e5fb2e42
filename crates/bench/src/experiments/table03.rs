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

use super::{section, Grid, Verdict};
use crate::suite::{SUITE_ITERS, SUITE_SEED};
use crate::table::num;
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

/// Paper, Table 3.
pub const PAPER: &str = "LMS: GPT-2 XL 3, GPT-2 L 3, BERT-L 14, BERT-B 29, DLRM 128k, ResNet-200 \
1536, ResNet-152 1536. DeepUM: 16, 24, 192, 256, 512k, 2304, 1792 (bounded by the 512 GB host).";

/// True if every allocation of `workload(batch)` fits the UM space.
pub fn deepum_alloc_probe(model: ModelKind, batch: usize, host_bytes: u64) -> bool {
    let workload = model.build(batch);
    let mut space = UmSpace::new(host_bytes);
    let mut alloc = CachingAllocator::new();
    let mut events = Vec::new();
    let mut map = std::collections::HashMap::new();
    let persistent: Vec<Step> = workload
        .persistent
        .iter()
        .cloned()
        .map(Step::Alloc)
        .collect();
    for step in persistent.iter().chain(&workload.steps) {
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

/// The search bound for a model whose paper starting point is `start`.
pub fn search_cap(start: usize) -> usize {
    start.saturating_mul(512).max(1024)
}

/// Runs the Table 3 search: the largest batch LMS completes two
/// iterations of, and the largest DeepUM's allocation probe admits.
pub fn search() -> Grid {
    let mut g = Grid::new(["lms", "deepum"]);
    let params = RunParams::v100_32gb(SUITE_ITERS, SUITE_SEED);
    let host = params.costs.host_memory_bytes;
    for &(model, start) in MODELS {
        let cap = search_cap(start);
        let lms = max_batch(start, cap, |b| {
            run_system(&System::Lms, &model.build(b), &params).is_ok()
        });
        let deepum = max_batch(start, cap, |b| deepum_alloc_probe(model, b, host));
        g.push(
            model.label(),
            None,
            vec![Some(lms as f64), Some(deepum as f64)],
        );
    }
    g
}

/// Table 3: maximum possible batch sizes.
pub fn render() -> String {
    let g = search();
    section(
        "Table 3 — maximum possible batch sizes",
        PAPER,
        &[g.table(
            "Table 3: maximum possible batch sizes (V100 32GB, 512GB host)",
            |_, v| format!("{v:.0}"),
        )],
        &[deepum_above_lms(&g)],
    )
}

/// DeepUM's maximum batch exceeds LMS's on every model.
pub fn deepum_above_lms(max_batches: &Grid) -> Verdict {
    Verdict::all(
        "deepum_above_lms",
        max_batches.rows.iter().map(|row| {
            let (l, d) = (max_batches.get(row, "lms"), max_batches.get(row, "deepum"));
            let above = matches!((l, d), (Some(l), Some(d)) if d > l);
            (
                above,
                format!("{} LMS {} vs DeepUM {}", row.model, num(l, 0), num(d, 0)),
            )
        }),
    )
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
    fn deepum_must_exceed_lms_everywhere() {
        let mut g = Grid::new(["lms", "deepum"]);
        g.push("bert-base", None, vec![Some(221.0), Some(694.0)]);
        let v = deepum_above_lms(&g);
        assert!(v.holds, "{}", v.detail);
        assert_eq!(v.detail, "bert-base LMS 221 vs DeepUM 694");
        g.push("gpt2-xl", None, vec![Some(30.0), Some(30.0)]);
        let v = deepum_above_lms(&g);
        assert!(!v.holds);
        assert_eq!(
            v.detail,
            "bert-base LMS 221 vs DeepUM 694; **gpt2-xl LMS 30 vs DeepUM 30**"
        );
    }

    #[test]
    fn alloc_probe_monotone_in_memory() {
        let small = deepum_alloc_probe(ModelKind::MobileNet, 64, 64 << 20);
        let big = deepum_alloc_probe(ModelKind::MobileNet, 64, 16 << 30);
        assert!(!small);
        assert!(big);
    }
}
