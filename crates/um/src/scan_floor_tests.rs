//! Differential test of the pre-eviction scan floor.
//!
//! One seeded operation sequence drives two drivers. The shadow calls
//! [`UmDriver::protected_mut`] before every operation, which clears its
//! floor, so its protection-honouring scan always starts at the LRU
//! front; the other driver keeps its floor wherever the clear-the-floor
//! contract allows. Both must choose the same victims, skip the same
//! cooling blocks, count the same events and leave the same pages
//! resident.

use deepum_gpu::fault::{AccessKind, FaultEntry};
use deepum_mem::{u64_from_usize, BlockNum, ByteRange, PageMask, UmAddr, BLOCK_BYTES, PAGE_BYTES};
use deepum_sim::costs::CostModel;
use deepum_sim::rng::DetRng;
use deepum_sim::time::Ns;
use deepum_trace::{shared, SharedTracer, TraceEvent, Tracer};

use crate::driver::UmDriver;
use crate::hints::Advice;
use crate::pressure::PressureConfig;

const CAPACITY_BLOCKS: u64 = 8;
const UNIVERSE_BLOCKS: u64 = 20;

fn driver(governed: bool) -> (UmDriver, SharedTracer) {
    let costs = CostModel::v100_32gb().with_device_memory(CAPACITY_BLOCKS * BLOCK_BYTES);
    let mut d = UmDriver::new(costs);
    if governed {
        d.install_pressure_governor(PressureConfig {
            refault_window: 8,
            cooldown_kernels: 3,
            ..PressureConfig::default()
        });
    }
    let tracer = shared(Tracer::export());
    d.set_tracer(tracer.clone());
    (d, tracer)
}

/// The first `pages` pages of `block`.
fn block_range(block: u64, pages: usize) -> ByteRange {
    ByteRange::new(
        UmAddr::new(block * BLOCK_BYTES),
        u64_from_usize(pages) * PAGE_BYTES,
    )
}

/// Eviction victims and cooldown skips, with their timestamps, in the
/// order the tracer saw them.
fn victim_stream(tracer: &SharedTracer) -> Vec<(u64, TraceEvent)> {
    tracer
        .borrow_mut()
        .records()
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::EvictVictim { .. } | TraceEvent::VictimCooldownSkip { .. }
            )
        })
        .map(|r| (r.t, r.event.clone()))
        .collect()
}

/// One operation of the sequence, drawn before either driver runs it.
#[derive(Debug, Clone)]
enum Op {
    Faults(Vec<FaultEntry>),
    Prefetch(BlockNum, PageMask),
    Preevict(u64),
    Touch(BlockNum),
    Protect(BlockNum),
    Rebuild(Vec<BlockNum>),
    KernelTick,
    Advise(u64, Advice),
    Release(u64, usize),
}

fn pages(rng: &mut DetRng) -> usize {
    64 + 64 * usize::try_from(rng.below(8)).expect("below 8 fits usize")
}

fn draw(rng: &mut DetRng, advice: &[Advice]) -> Op {
    let block = |rng: &mut DetRng| BlockNum::new(rng.below(UNIVERSE_BLOCKS));
    match rng.below(100) {
        0..=29 => {
            let mut faults = Vec::new();
            for _ in 0..=rng.below(3) {
                let b = block(rng);
                let kind = if rng.below(4) == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let mask = PageMask::first_n(pages(rng));
                // A batch names each block once: a repeated draw merges.
                match faults.iter_mut().find(|f: &&mut FaultEntry| f.block == b) {
                    Some(f) => {
                        f.pages.union_with(&mask);
                        if kind == AccessKind::Write {
                            f.kind = kind;
                        }
                    }
                    None => faults.push(FaultEntry {
                        block: b,
                        pages: mask,
                        kind,
                    }),
                }
            }
            Op::Faults(faults)
        }
        30..=44 => Op::Prefetch(block(rng), PageMask::first_n(pages(rng))),
        45..=59 => Op::Preevict(rng.below(CAPACITY_BLOCKS * 512 / 2)),
        60..=67 => Op::Touch(block(rng)),
        68..=81 => Op::Protect(block(rng)),
        82..=86 => Op::Rebuild((0..rng.below(14)).map(|_| block(rng)).collect()),
        87..=93 => Op::KernelTick,
        94..=96 if !advice.is_empty() => {
            let i = rng.below(u64_from_usize(advice.len()));
            let a = advice[usize::try_from(i).expect("an index fits usize")];
            Op::Advise(rng.below(UNIVERSE_BLOCKS), a)
        }
        94..=96 => Op::Protect(block(rng)),
        _ => Op::Release(rng.below(UNIVERSE_BLOCKS), pages(rng)),
    }
}

/// Runs `op`; returns a comparable outcome (costs, typed errors).
fn apply(d: &mut UmDriver, now: Ns, op: &Op) -> String {
    match op {
        Op::Faults(faults) => format!("{:?}", d.handle_faults(now, faults)),
        Op::Prefetch(b, mask) => format!("{:?}", d.prefetch_into_gpu(now, *b, mask)),
        Op::Preevict(target) => format!("{:?}", d.preevict(now, *target)),
        Op::Touch(b) => {
            d.touch(now, *b, &PageMask::first_n(512));
            String::new()
        }
        Op::Protect(b) => {
            d.protect(*b);
            String::new()
        }
        Op::Rebuild(blocks) => {
            let protected = d.protected_mut();
            protected.clear();
            for &b in blocks {
                protected.insert(b);
            }
            String::new()
        }
        Op::KernelTick => {
            d.pressure_kernel_tick(now);
            String::new()
        }
        Op::Advise(b, advice) => format!("{}", d.advise(now, block_range(*b, 512), *advice)),
        // A partial release keeps the block resident but drops its
        // hints, so a PreferredLocation block below the floor turns
        // eligible.
        Op::Release(b, pages) => {
            d.release_range(block_range(*b, *pages));
            String::new()
        }
    }
}

/// Runs 600 seeded operations on both drivers and compares them
/// after each one. Returns how many operations started with a floor
/// set on the floored driver, and how many cooldown skips were traced.
fn run(seed: u64, governed: bool, advice: &[Advice]) -> (usize, usize) {
    let mut rng = DetRng::seed(seed);
    let (mut floored, floored_tracer) = driver(governed);
    let (mut shadow, shadow_tracer) = driver(governed);
    let mut now = Ns::from_nanos(1);
    let mut with_floor = 0;
    for step in 0..600 {
        // About a third of the operations share the previous timestamp,
        // so drain batches interleave keys below an advanced floor.
        if rng.below(3) != 0 {
            now += Ns::from_nanos(1 + rng.below(5));
        }
        let op = draw(&mut rng, advice);
        if floored.lru.floor().is_some() {
            with_floor += 1;
        }
        shadow.protected_mut();
        assert_eq!(shadow.lru.floor(), None);
        let got = apply(&mut floored, now, &op);
        let want = apply(&mut shadow, now, &op);
        let ctx = format!("seed {seed:#x} step {step} {op:?}");
        assert_eq!(got, want, "outcome differs at {ctx}");
        assert_eq!(floored.counters(), shadow.counters(), "counters at {ctx}");
        assert_eq!(
            floored.pressure_stats(),
            shadow.pressure_stats(),
            "governor at {ctx}"
        );
        for b in 0..UNIVERSE_BLOCKS {
            let b = BlockNum::new(b);
            assert_eq!(
                floored.resident_mask(b),
                shadow.resident_mask(b),
                "{b} residency at {ctx}"
            );
        }
        floored
            .validate()
            .unwrap_or_else(|e| panic!("floored driver at {ctx}: {e}"));
        shadow
            .validate()
            .unwrap_or_else(|e| panic!("shadow driver at {ctx}: {e}"));
    }
    let stream = victim_stream(&floored_tracer);
    assert_eq!(
        stream,
        victim_stream(&shadow_tracer),
        "seed {seed:#x}: victim streams differ"
    );
    let skips = stream
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::VictimCooldownSkip { .. }))
        .count();
    (with_floor, skips)
}

/// Sums `run` over four seeds.
fn run_seeds(base: u64, governed: bool, advice: &[Advice]) -> (usize, usize) {
    (0..4)
        .map(|i| run(base + i, governed, advice))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
}

#[test]
fn floored_scan_matches_the_front_scan_ungoverned() {
    let (with_floor, _) = run_seeds(0xf100, false, &[]);
    assert!(
        with_floor > 100,
        "the floor was set for {with_floor} operations"
    );
}

/// Governed sequences must also reach the cooldown path, or the
/// `VictimCooldownSkip` half of the comparison shows nothing.
#[test]
fn floored_scan_matches_the_front_scan_governed() {
    let (with_floor, skips) = run_seeds(0xf200, true, &[]);
    assert!(
        with_floor > 100,
        "the floor was set for {with_floor} operations"
    );
    assert!(skips > 0, "no cooldown skip was traced");
}

/// PreferredLocation blocks sit below the floor until a partial
/// release drops their hint and leaves them resident and eligible.
#[test]
fn floored_scan_matches_the_front_scan_preferred() {
    let (with_floor, _) = run_seeds(0xf300, true, &[Advice::PreferredLocation]);
    assert!(
        with_floor > 100,
        "the floor was set for {with_floor} operations"
    );
}

/// ReadMostly hints partition the scan, which then walks from the
/// front until write faults and releases collapse the last of them.
#[test]
fn floored_scan_matches_the_front_scan_read_mostly() {
    let (with_floor, _) = run_seeds(
        0xf400,
        true,
        &[Advice::PreferredLocation, Advice::ReadMostly],
    );
    assert!(with_floor > 0, "the floor was never set");
}

/// `validate()` rejects a floor left stale by a write that bypassed
/// `protected_mut`, and any floor while a tenant is registered.
#[test]
fn validate_rejects_a_stale_or_tenanted_floor() {
    let (mut d, _) = driver(false);
    for b in 0..2u64 {
        let faults: Vec<FaultEntry> = vec![FaultEntry {
            block: BlockNum::new(b),
            pages: PageMask::first_n(512),
            kind: AccessKind::Read,
        }];
        d.handle_faults(Ns::from_nanos(b + 1), &faults)
            .expect("faults handled");
    }
    d.protect(BlockNum::new(0));
    d.preevict(Ns::from_nanos(3), CAPACITY_BLOCKS * 512);
    let floor = Some((Ns::from_nanos(1), BlockNum::new(0)));
    assert_eq!(d.lru.floor(), floor, "the scan passed block 0 over");
    d.validate().expect("a maintained floor validates");

    d.protected.remove(BlockNum::new(0));
    let err = d
        .validate()
        .expect_err("block 0 is eligible below the floor");
    assert!(err.contains("scan floor"), "{err}");
    d.protected_mut();
    d.validate().expect("protected_mut clears the floor");

    d.register_tenant(deepum_mem::TenantId(0), 0, 1, None, None, None)
        .expect("floor 0 is admitted");
    d.lru.set_floor(floor);
    let err = d.validate().expect_err("tenant scopes scan from the front");
    assert!(err.contains("tenant is registered"), "{err}");
}
