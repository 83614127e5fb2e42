//! Property-based integration tests: randomly generated workloads and
//! platform shapes must never break the stack's invariants.

use deepum::baselines::executor::um::{run_um, UmRunConfig};
use deepum::baselines::naive::NaiveUm;
use deepum::core::config::DeepumConfig;
use deepum::core::driver::DeepumDriver;
use deepum::gpu::engine::UmBackend as _;
use deepum::sim::costs::CostModel;
use deepum::torch::step::{TensorId, Workload, WorkloadBuilder};
use deepum::trace::{shared, TraceEvent, TraceRecord, Tracer};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Builds a random-but-valid layered workload: `layers` kernels, each
/// reading the previous activation and one weight, with sizes drawn from
/// `sizes_kb`.
fn build_workload(layers: usize, sizes_kb: &[u64]) -> Workload {
    let mut b = WorkloadBuilder::new("prop/b1", "prop", 1);
    let weights: Vec<TensorId> = sizes_kb
        .iter()
        .map(|&kb| b.persistent((kb + 1) << 10))
        .collect();
    let mut x = b.alloc(256 << 10);
    b.kernel("load").writes(&[x]).flops(1e6).launch();
    for i in 0..layers {
        let w = weights[i % weights.len()];
        let y = b.alloc(((sizes_kb[i % sizes_kb.len()] + 1) << 10).max(4096));
        b.kernel(format!("layer{i}"))
            .args(&[i as u64])
            .reads(&[x, w])
            .writes(&[y])
            .flops(1e8)
            .launch();
        b.free(x);
        x = y;
    }
    b.free(x);
    let w = b.build();
    w.validate().expect("generated workload is valid");
    w
}

fn platform(device_kb: u64) -> CostModel {
    CostModel::v100_32gb()
        .with_device_memory((device_kb << 10).max(8 << 20))
        .with_host_memory(1 << 30)
}

/// Runs DeepUM over a random workload with the given tracer installed
/// and hands back the tracer once the run completes.
fn traced_run(
    workload: &Workload,
    costs: CostModel,
    degree: usize,
    tracer: deepum::trace::SharedTracer,
) {
    let cfg = UmRunConfig {
        costs: costs.clone(),
        seed: 7,
        tracer: Some(tracer),
        ..UmRunConfig::new(2)
    };
    let dcfg = DeepumConfig::default().with_prefetch_degree(degree);
    let mut driver = DeepumDriver::new(costs, dcfg);
    run_um(workload, &mut driver, "deepum", &cfg, |d| d.counters()).unwrap();
}

/// Checks the structural invariants every trace must satisfy. Returns
/// an error string instead of panicking so proptest can shrink on it.
fn check_trace_invariants(records: &[TraceRecord]) -> Result<(), String> {
    // 1. Virtual timestamps are monotone non-decreasing, except across a
    //    `Restored` marker, where the sim clock legitimately rewinds.
    let mut last_t = 0u64;
    // 2. Kernel begin/end events balance: ends match the one open begin
    //    by seq, launches never nest, and nothing is left open.
    let mut open: Option<u64> = None;
    // 3. Every migration is matched by a residency change: pages leaving
    //    a block (write-back or invalidate) never exceed the pages that
    //    migrated in, at every prefix of the stream, per block.
    let mut resident: BTreeMap<u64, i64> = BTreeMap::new();

    for r in records {
        if r.t < last_t {
            return Err(format!("timestamp went backwards: {} after {last_t}", r.t));
        }
        last_t = r.t;
        match &r.event {
            TraceEvent::KernelBegin { seq, .. } => {
                if let Some(inner) = open {
                    return Err(format!("kernel {seq} began inside open kernel {inner}"));
                }
                open = Some(*seq);
            }
            TraceEvent::KernelEnd { seq, .. } => {
                if open != Some(*seq) {
                    return Err(format!("kernel {seq} ended but open was {open:?}"));
                }
                open = None;
            }
            TraceEvent::PageMigration { block, pages, .. } => {
                if *pages == 0 || *pages > 512 {
                    return Err(format!("migration of {pages} pages on block {block}"));
                }
                *resident.entry(*block).or_insert(0) += *pages as i64;
            }
            TraceEvent::Invalidate { block, pages }
            | TraceEvent::WriteBack { block, pages, .. } => {
                let r = resident.entry(*block).or_insert(0);
                *r -= *pages as i64;
                if *r < 0 {
                    return Err(format!(
                        "block {block}: {pages} pages left without ever migrating in"
                    ));
                }
            }
            TraceEvent::Restored { .. } => {
                // Clock rewinds to the checkpoint; later timestamps only
                // need to be monotone from here on.
                last_t = 0;
            }
            _ => {}
        }
    }
    if let Some(seq) = open {
        return Err(format!("kernel {seq} never ended"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// DeepUM completes any layered workload on any (sane) device size,
    /// and its counters stay internally consistent.
    #[test]
    fn deepum_never_breaks_on_random_workloads(
        layers in 2usize..12,
        sizes_kb in prop::collection::vec(64u64..4096, 1..5),
        device_mb in 8u64..64,
        degree in 1usize..64,
    ) {
        let workload = build_workload(layers, &sizes_kb);
        let costs = platform(device_mb << 10);
        let cfg = UmRunConfig {
            costs: costs.clone(),
            seed: 7,
            ..UmRunConfig::new(2)
        };
        let dcfg = DeepumConfig::default().with_prefetch_degree(degree);
        let mut driver = DeepumDriver::new(costs.clone(), dcfg);
        let report = run_um(&workload, &mut driver, "deepum", &cfg, |d| d.counters()).unwrap();

        // Residency never exceeds device capacity.
        prop_assert!(driver.um().resident_pages() <= driver.um().capacity_pages());
        let c = report.counters;
        // Hits + waste never exceed what was prefetched.
        prop_assert!(c.prefetch_hits + c.prefetch_wasted <= c.pages_prefetched);
        // PCIe traffic never exceeds the pages made resident (first-touch
        // populations are free).
        prop_assert!(c.bytes_h2d <= (c.pages_faulted_in + c.pages_prefetched) * 4096);
        // Mispredictions are a subset of predictions.
        prop_assert!(c.exec_mispredictions <= c.exec_predictions);
        // Virtual time advanced and is the sum of the iterations.
        let sum: deepum::sim::time::Ns = report.iters.iter().map(|i| i.elapsed).sum();
        prop_assert_eq!(sum, report.total);
    }

    /// Naive UM and DeepUM agree on what was computed (same kernels, same
    /// compute time) even though their memory traffic differs.
    #[test]
    fn um_and_deepum_compute_the_same_work(
        layers in 2usize..8,
        device_mb in 8u64..32,
    ) {
        let workload = build_workload(layers, &[512, 1024]);
        let costs = platform(device_mb << 10);
        let cfg = UmRunConfig { costs: costs.clone(), seed: 7, ..UmRunConfig::new(2) };

        let mut um = NaiveUm::new(costs.clone());
        let um_r = run_um(&workload, &mut um, "um", &cfg, |b| b.counters()).unwrap();
        let mut dm = DeepumDriver::new(costs, DeepumConfig::default());
        let dm_r = run_um(&workload, &mut dm, "deepum", &cfg, |d| d.counters()).unwrap();

        prop_assert_eq!(um_r.counters.kernels_launched, workload.kernel_count() as u64 * 2);
        for (a, b) in um_r.iters.iter().zip(&dm_r.iters) {
            prop_assert_eq!(a.compute, b.compute);
        }
        // DeepUM never loses to UM by more than scheduling noise.
        prop_assert!(dm_r.total <= um_r.total.scale(1.10));
    }

    /// Any traced DeepUM run yields a structurally well-formed event
    /// stream: monotone virtual timestamps, balanced kernel begin/end
    /// pairs, and no block losing pages it never gained.
    #[test]
    fn traces_are_well_formed(
        layers in 2usize..10,
        sizes_kb in prop::collection::vec(64u64..4096, 1..5),
        device_mb in 8u64..64,
        degree in 1usize..32,
    ) {
        let workload = build_workload(layers, &sizes_kb);
        let tracer = shared(Tracer::export());
        traced_run(&workload, platform(device_mb << 10), degree, tracer.clone());
        let mut t = tracer.borrow_mut();
        prop_assert_eq!(t.dropped(), 0, "export sink never drops");
        prop_assert!(t.emitted() > 0, "a traced run emits events");
        if let Err(e) = check_trace_invariants(t.records()) {
            return Err(proptest::test_runner::TestCaseError::fail(e));
        }
    }

    /// A ring sink smaller than the event stream must overflow loudly:
    /// the dropped counter rises and the report carries the marker,
    /// while the ring itself holds at most `capacity` records.
    #[test]
    fn ring_overflow_sets_the_dropped_marker(
        capacity in 1usize..32,
        layers in 3usize..8,
    ) {
        let workload = build_workload(layers, &[1024]);
        let tracer = shared(Tracer::ring(capacity));
        traced_run(&workload, platform(8 << 10), 8, tracer.clone());
        let mut t = tracer.borrow_mut();
        prop_assert!(
            t.emitted() > capacity as u64,
            "workload must outgrow the ring ({} events, capacity {capacity})",
            t.emitted()
        );
        prop_assert!(t.records().len() <= capacity);
        prop_assert_eq!(t.dropped(), t.emitted() - t.records().len() as u64);
        let report = t.report();
        prop_assert_eq!(report.events_dropped, t.dropped());
        prop_assert!(report.events_dropped > 0, "overflow must be marked");
    }

    /// After a run, the DeepUM driver's UM state is still sane enough to
    /// answer residency queries for arbitrary blocks.
    #[test]
    fn residency_queries_are_total(
        layers in 2usize..6,
        probe in 0u64..10_000,
    ) {
        let workload = build_workload(layers, &[256]);
        let costs = platform(16 << 10);
        let cfg = UmRunConfig { costs: costs.clone(), seed: 7, ..UmRunConfig::new(1) };
        let mut driver = DeepumDriver::new(costs, DeepumConfig::default());
        run_um(&workload, &mut driver, "deepum", &cfg, |d| d.counters()).unwrap();
        let mask = deepum::mem::PageMask::full();
        let miss = driver.resident_miss(deepum::mem::BlockNum::new(probe), &mask);
        prop_assert!(miss.count() <= 512);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The degradation ladder is monotone: it escalates one level per
    /// observation and only while overloaded (miss-EWMA at or above the
    /// threshold, or the governor elevated), and de-escalates one level
    /// only after a full hysteresis window of consecutive clean
    /// observations.
    #[test]
    fn ladder_is_monotone_under_arbitrary_observations(
        threshold in 1u64..80,
        hysteresis in 1u64..6,
        obs in prop::collection::vec((0u64..20, 0u64..20, prop::bool::ANY), 1..64),
    ) {
        use deepum::serve::{DegradationLadder, LadderConfig};
        use deepum::trace::ServeLevel;

        let cfg = LadderConfig {
            miss_pct_threshold: threshold,
            hysteresis_cycles: hysteresis,
            ..LadderConfig::default()
        };
        let mut ladder = DegradationLadder::new(cfg);
        // Severity rung, for the one-level-at-a-time checks.
        let rung = |l: ServeLevel| match l {
            ServeLevel::Full => 0u8,
            ServeLevel::ReducedWindow => 1,
            ServeLevel::DemandOnly => 2,
            ServeLevel::Shed => 3,
        };
        // Shadow clean-streak counter, mirroring the documented rule.
        let mut clean_streak = 0u64;
        let mut ups = 0u64;
        let mut downs = 0u64;
        for (misses, extra, pressured) in obs {
            let requests = misses + extra;
            let transition = ladder.observe_cycle(misses, requests, pressured);
            // Post-update overload signal, exactly what the breaker acts on.
            let overloaded = ladder.miss_ewma_pct() >= threshold || pressured;
            if overloaded {
                clean_streak = 0;
            } else {
                clean_streak += 1;
            }
            match transition {
                Some((from, to)) if to > from => {
                    ups += 1;
                    // Escalation only while overloaded, one level at a time.
                    prop_assert!(overloaded);
                    prop_assert_eq!(rung(to), rung(from) + 1);
                }
                Some((from, to)) => {
                    downs += 1;
                    // De-escalation only off the back of a full clean window.
                    prop_assert!(!overloaded);
                    prop_assert!(clean_streak >= hysteresis);
                    prop_assert_eq!(rung(from), rung(to) + 1);
                    clean_streak = 0;
                }
                None => {}
            }
            // The level is always a real rung and `worst` never trails it.
            prop_assert!(ladder.level() >= ServeLevel::Full);
            prop_assert!(ladder.level() <= ServeLevel::Shed);
            prop_assert!(ladder.worst >= ladder.level() || ladder.deescalations > 0);
        }
        prop_assert_eq!(ladder.escalations, ups);
        prop_assert_eq!(ladder.deescalations, downs);
    }

    /// Every request that arrives at a serving run terminates exactly
    /// once: as an on-time completion, a deadline miss, or a typed
    /// shed — never silently dropped, regardless of load, deadline
    /// tightness, or injected soft faults.
    #[test]
    fn every_arrived_request_terminates(
        endpoints in 1usize..4,
        base_rps in 1u64..6,
        deadline_us in 20u64..2_000,
        fail_pct in 0u64..30,
        device_mb in 24u64..64,
        seed in 0u64..1_000,
    ) {
        use deepum::serve::{EndpointSpec, LadderConfig, LoadCurve, ServeSim, ServeSpec};
        use deepum::sim::time::Ns;
        use deepum::InjectionPlan;
        use deepum::torch::perf::PerfModel;

        let mut spec = ServeSpec::new()
            .cycles(10)
            .load(LoadCurve::new(base_rps).period(5).burst(3, 7, 2))
            .seed(seed)
            .plan(InjectionPlan {
                seed: seed ^ 0xF00D,
                request_fail_rate: fail_pct as f64 / 100.0,
                max_retries: 2,
                ..InjectionPlan::default()
            })
            .ladder(Some(LadderConfig::default()));
        for idx in 0..endpoints {
            spec = spec.endpoint(
                EndpointSpec::new(format!("ep-{idx}"))
                    .weights(8 << 20)
                    .layers(3)
                    .kv_per_token(64 << 10)
                    .tokens(2, 8)
                    .deadline(Ns::from_nanos(deadline_us * 1_000)),
            );
        }
        let costs = CostModel::v100_32gb()
            .with_device_memory(device_mb << 20)
            .with_host_memory(1 << 30);
        let outcome = ServeSim::new(costs, PerfModel::v100(), spec).run();

        prop_assert!(outcome.validation.is_ok(), "{:?}", outcome.validation);
        prop_assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
        let serving = outcome.report.serving.as_ref();
        prop_assert!(serving.is_some());
        if let Some(s) = serving {
            for ep in &s.endpoints {
                // Terminates exactly once, at both bookkeeping levels.
                prop_assert_eq!(ep.completed + ep.shed, ep.requests, "{}", ep.name);
                prop_assert_eq!(ep.on_time + ep.missed, ep.completed, "{}", ep.name);
            }
            let requests: u64 = s.endpoints.iter().map(|e| e.requests).sum();
            let completed: u64 = s.endpoints.iter().map(|e| e.completed).sum();
            prop_assert_eq!(requests, s.total_requests);
            prop_assert_eq!(completed + s.total_shed, s.total_requests);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `PageMask` set algebra agrees with a naive `BTreeSet<usize>`
    /// shadow model under arbitrary op sequences: membership, counts,
    /// union/intersect/subtract, subset/overlap predicates, and the
    /// ascending `iter_ones` order the migration engine depends on.
    #[test]
    fn page_mask_matches_btreeset_shadow(
        ops in prop::collection::vec(
            (0u8..6, 0usize..deepum::mem::PAGES_PER_BLOCK, 0usize..deepum::mem::PAGES_PER_BLOCK),
            1..96,
        ),
    ) {
        use deepum::mem::{PageMask, PAGES_PER_BLOCK};
        use std::collections::BTreeSet;

        let mut mask = PageMask::empty();
        let mut shadow: BTreeSet<usize> = BTreeSet::new();
        // A second (mask, shadow) pair for the binary ops.
        let mut other = PageMask::empty();
        let mut other_shadow: BTreeSet<usize> = BTreeSet::new();

        for (op, a, b) in ops {
            match op {
                0 => {
                    mask.set(a);
                    shadow.insert(a);
                }
                1 => {
                    mask.clear(a);
                    shadow.remove(&a);
                }
                2 => {
                    other.set(b);
                    other_shadow.insert(b);
                }
                3 => {
                    mask.union_with(&other);
                    shadow.extend(other_shadow.iter().copied());
                }
                4 => {
                    mask.subtract_with(&other);
                    shadow = shadow.difference(&other_shadow).copied().collect();
                }
                5 => {
                    let lo = a.min(b);
                    let hi = a.max(b);
                    mask = PageMask::from_range(lo..hi);
                    shadow = (lo..hi).collect();
                }
                _ => unreachable!(),
            }
            prop_assert_eq!(mask.count(), shadow.len());
            prop_assert_eq!(mask.is_empty(), shadow.is_empty());
            prop_assert_eq!(mask.is_full(), shadow.len() == PAGES_PER_BLOCK);
            prop_assert_eq!(mask.get(a), shadow.contains(&a));
            prop_assert_eq!(
                mask.intersects(&other),
                !shadow.is_disjoint(&other_shadow)
            );
            prop_assert_eq!(
                mask.is_subset_of(&other),
                shadow.is_subset(&other_shadow)
            );
            let inter: BTreeSet<usize> =
                shadow.intersection(&other_shadow).copied().collect();
            prop_assert_eq!(mask.intersect(&other).count(), inter.len());
            // iter_ones yields exactly the shadow members, ascending.
            let ones: Vec<usize> = mask.iter_ones().collect();
            let want: Vec<usize> = shadow.iter().copied().collect();
            prop_assert_eq!(ones, want);
            // Word round-trip is lossless.
            prop_assert_eq!(PageMask::from_words(mask.to_words()), mask);
        }
    }

    /// `DenseBlockSet` agrees with a naive `BTreeSet<BlockNum>` shadow
    /// model under arbitrary insert/remove/clear sequences, including
    /// across VA-stripe boundaries, and iterates in the same ascending
    /// order `BTreeSet` did before the rewrite.
    #[test]
    fn dense_block_set_matches_btreeset_shadow(
        ops in prop::collection::vec(
            (0u8..3, 0u64..3, 0u64..600),
            1..128,
        ),
    ) {
        use deepum::mem::stripe::STRIPE_BLOCK_SHIFT;
        use deepum::mem::{BlockNum, DenseBlockSet};
        use std::collections::BTreeSet;

        let mut set = DenseBlockSet::new();
        let mut shadow: BTreeSet<BlockNum> = BTreeSet::new();
        for (op, stripe, offset) in ops {
            let block = BlockNum::new((stripe << STRIPE_BLOCK_SHIFT) + offset);
            match op {
                0 => {
                    prop_assert_eq!(set.insert(block), shadow.insert(block));
                }
                1 => {
                    prop_assert_eq!(set.remove(block), shadow.remove(&block));
                }
                2 => {
                    set.clear();
                    shadow.clear();
                }
                _ => unreachable!(),
            }
            prop_assert_eq!(set.len(), shadow.len());
            prop_assert_eq!(set.is_empty(), shadow.is_empty());
            prop_assert_eq!(set.contains(block), shadow.contains(&block));
            let got: Vec<BlockNum> = set.iter().collect();
            let want: Vec<BlockNum> = shadow.iter().copied().collect();
            prop_assert_eq!(got, want);
        }
    }

    /// `BlockTable` dense ids are first-touch-stable across arbitrary
    /// evict/re-fault churn: once a block gets an id it keeps it
    /// forever, ids are consecutive in first-touch order, live contents
    /// match a `BTreeMap` shadow, and iteration stays ascending.
    #[test]
    fn block_table_ids_stable_across_evict_refault(
        ops in prop::collection::vec(
            (0u8..3, 0u64..3, 0u64..200),
            1..128,
        ),
    ) {
        use deepum::mem::stripe::STRIPE_BLOCK_SHIFT;
        use deepum::mem::BlockNum;
        use deepum::um::BlockTable;
        use std::collections::BTreeMap;

        let mut table = BlockTable::new();
        // block → (first-touch id, live?) plus a touch counter for the
        // next id, mirroring the documented allocation rule.
        let mut ids: BTreeMap<BlockNum, u32> = BTreeMap::new();
        let mut live: BTreeMap<BlockNum, u64> = BTreeMap::new();
        let mut next_id = 0u32;

        for (op, stripe, offset) in ops {
            let block = BlockNum::new((stripe << STRIPE_BLOCK_SHIFT) + offset);
            match op {
                // Fault the block in (entry-or-default) and stamp it.
                0 => {
                    let epoch = u64::from(next_id) + 1;
                    table.ensure(block).last_epoch = epoch;
                    ids.entry(block).or_insert_with(|| {
                        let id = next_id;
                        next_id += 1;
                        id
                    });
                    live.insert(block, epoch);
                }
                // Evict: state goes away, the id must not.
                1 => {
                    prop_assert_eq!(table.remove(block).is_some(), live.remove(&block).is_some());
                }
                // Probe without mutating.
                2 => {
                    prop_assert_eq!(table.contains_key(block), live.contains_key(&block));
                }
                _ => unreachable!(),
            }
            // Ids: assigned first-touch, never recycled, never moved.
            for (&b, &id) in &ids {
                prop_assert_eq!(table.dense_id(b), Some(id), "{} lost its dense id", b);
            }
            prop_assert_eq!(table.len(), live.len());
            // Live contents and ascending iteration match the shadow.
            let got: Vec<(BlockNum, u64)> =
                table.iter().map(|(b, s)| (b, s.last_epoch)).collect();
            let want: Vec<(BlockNum, u64)> =
                live.iter().map(|(&b, &e)| (b, e)).collect();
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(u64::from(next_id), ids.len() as u64);
    }
}

/// A UM driver that records every fault batch the engine hands it,
/// checked against the residency probe that preceded it.
struct BatchRecorder {
    inner: deepum::um::UmDriver,
    injector: deepum::sim::faultinject::SharedInjector,
    /// The engine's last residency probe: (block, missing pages).
    last_miss: std::cell::Cell<Option<(deepum::mem::BlockNum, deepum::mem::PageMask)>>,
    storm_drains_seen: u64,
    storm_limit: usize,
    drained_pages: u64,
    broken: Vec<String>,
}

impl deepum::gpu::engine::UmBackend for BatchRecorder {
    fn resident_miss(
        &self,
        block: deepum::mem::BlockNum,
        pages: &deepum::mem::PageMask,
    ) -> deepum::mem::PageMask {
        let miss = self.inner.resident_miss(block, pages);
        self.last_miss.set(Some((block, miss)));
        miss
    }

    fn handle_faults(
        &mut self,
        now: deepum::sim::time::Ns,
        faults: &[deepum::gpu::fault::FaultEntry],
    ) -> Result<deepum::sim::time::Ns, deepum::gpu::engine::BackendError> {
        use deepum::gpu::engine::GpuEngine;
        use deepum::mem::PageMask;

        // Exactly one `effective_fault_batch` call precedes each drain,
        // so a moved storm-drain count means this batch was storm-limited.
        let storm_drains = self.injector.borrow().stats().storm_drains;
        let limit = if storm_drains > self.storm_drains_seen {
            self.storm_limit
        } else {
            GpuEngine::DEFAULT_DEMAND_BATCH
        };
        self.storm_drains_seen = storm_drains;
        match (faults, self.last_miss.get()) {
            ([batch], Some((block, miss))) => {
                let mut want = PageMask::empty();
                for idx in miss.iter_ones().take(limit) {
                    want.set(idx);
                }
                if batch.block != block || batch.pages != want {
                    self.broken.push(format!(
                        "batch {batch:?} is not the first {limit} pages of {block}'s miss {miss:?}"
                    ));
                }
            }
            _ => self.broken.push(format!(
                "{} entries after probe {:?}",
                faults.len(),
                self.last_miss.get()
            )),
        }
        self.drained_pages += faults.iter().map(|f| f.pages.count_u64()).sum::<u64>();
        self.inner.handle_faults(now, faults)
    }

    fn touch(
        &mut self,
        now: deepum::sim::time::Ns,
        block: deepum::mem::BlockNum,
        pages: &deepum::mem::PageMask,
    ) {
        self.inner.touch(now, block, pages);
    }

    fn overlap_compute(
        &mut self,
        _now: deepum::sim::time::Ns,
        _dur: deepum::sim::time::Ns,
    ) -> deepum::sim::time::Ns {
        deepum::sim::time::Ns::ZERO
    }

    fn kernel_finished(&mut self, now: deepum::sim::time::Ns) {
        self.inner.pressure_kernel_tick(now);
    }
}

/// A page mask drawn from `seed`: pages `start..start + len` kept with
/// probability `keep / 4`, never empty.
fn random_mask(seed: u64, start: usize, len: usize, keep: u64) -> deepum::mem::PageMask {
    use deepum::mem::{PageMask, PAGES_PER_BLOCK};

    let mut mask = PageMask::empty();
    for page in start..(start + len).min(PAGES_PER_BLOCK) {
        // splitmix64 finalizer over (seed, page).
        let mut z = seed ^ (page as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        if (z ^ (z >> 31)) % 4 < keep {
            mask.set(page);
        }
    }
    if mask.is_empty() {
        mask.set(start);
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine's fault-batch contract: every drain hands the backend
    /// one entry holding exactly the first `min(batch_limit, missing)`
    /// missing pages of the access's block, where `batch_limit` is the
    /// demand batch or, under a fault storm, its shrunk size. The drained
    /// popcounts sum to both the engine's `KernelRunStats::faults` and
    /// the UM driver's `gpu_page_faults`.
    #[test]
    fn engine_batches_are_the_missing_prefix_of_one_block(
        accesses in prop::collection::vec(
            // (block * 2 + is_write, first page, span, density, mask seed)
            (0u64..12, 0usize..512, 1usize..=512, 1u64..=4, 0u64..1_000_000),
            1..24,
        ),
        kernels in 1usize..4,
        capacity_blocks in 2u64..10,
        storm_pct in 0u64..=100,
        storm_frac_pct in 1u64..=100,
        storm_duration in 1u32..8,
        seed in 0u64..1_000,
    ) {
        use deepum::gpu::engine::GpuEngine;
        use deepum::gpu::fault::AccessKind;
        use deepum::gpu::kernel::{BlockAccess, KernelLaunch};
        use deepum::mem::{BlockNum, BLOCK_SIZE};
        use deepum::sim::clock::SimClock;
        use deepum::sim::energy::EnergyMeter;
        use deepum::sim::time::Ns;
        use deepum::InjectionPlan;

        let plan = InjectionPlan {
            seed,
            storm_rate: storm_pct as f64 / 100.0,
            storm_capacity_frac: storm_frac_pct as f64 / 100.0,
            storm_duration_drains: storm_duration,
            ..InjectionPlan::default()
        };
        let injector = plan.build_shared();
        let costs = CostModel::v100_32gb().with_device_memory(capacity_blocks * BLOCK_SIZE as u64);
        let mut driver = deepum::um::UmDriver::new(costs);
        driver.install_injector(injector.clone());
        let mut backend = BatchRecorder {
            inner: driver,
            injector: injector.clone(),
            last_miss: std::cell::Cell::new(None),
            storm_drains_seen: 0,
            storm_limit: ((GpuEngine::DEFAULT_DEMAND_BATCH as f64 * plan.storm_capacity_frac)
                as usize)
                .max(1),
            drained_pages: 0,
            broken: Vec::new(),
        };
        let mut engine = GpuEngine::new();
        engine.set_injector(injector);
        let mut clock = SimClock::new();
        let mut energy = EnergyMeter::new();

        let launch: Vec<BlockAccess> = accesses
            .iter()
            .map(|&(block_kind, start, len, keep, mask_seed)| {
                let kind = if block_kind % 2 == 1 { AccessKind::Write } else { AccessKind::Read };
                let mask = random_mask(mask_seed, start, len, keep);
                BlockAccess::new(BlockNum::new(block_kind / 2), mask, kind)
            })
            .collect();
        let kernel = KernelLaunch::new("prop", &[], launch, Ns::from_micros(10));
        let mut faults = 0;
        for _ in 0..kernels {
            let stats = engine.execute(&kernel, &mut clock, &mut backend, &mut energy);
            prop_assert!(stats.is_ok(), "{:?}", stats);
            faults += stats.map_or(0, |s| s.faults);
        }

        prop_assert!(backend.broken.is_empty(), "{:?}", backend.broken);
        prop_assert_eq!(backend.drained_pages, faults);
        prop_assert_eq!(backend.inner.counters().gpu_page_faults, faults);
    }
}
