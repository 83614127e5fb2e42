//! Inference-serving integration tests: the headline ladder
//! differential (under a seeded overload burst with a soft-fault
//! storm, the degradation ladder strictly reduces deadline misses
//! versus a no-ladder control), double-run byte-identity of both
//! configurations, and bystander isolation (the co-scheduled training
//! tenant's trace is byte-identical whether or not the ladder is
//! defending the endpoints).

use deepum::baselines::report::RunError;
use deepum::mem::PAGE_SIZE;
use deepum::sched::{JobKind, TenantSpec};
use deepum::serve::{EndpointSpec, LadderConfig, LoadCurve, ServeOutcome, ServeSim, ServeSpec};
use deepum::sim::costs::CostModel;
use deepum::sim::time::Ns;
use deepum::torch::models::ModelKind;
use deepum::torch::perf::PerfModel;
use deepum::InjectionPlan;

fn pages(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE as u64)
}

/// The overload scenario: two endpoints under a diurnal curve with a
/// 2× burst window mid-run, a soft-fault storm on the request path,
/// and a training bystander running within its guaranteed floor.
fn overload_spec(ladder: Option<LadderConfig>) -> (CostModel, ServeSpec) {
    let bystander_peak = pages(ModelKind::MobileNet.build(4).peak_bytes());
    let bystander_floor = bystander_peak + 1024;
    // Device: the bystander's whole floor plus a slice of the serving
    // working set, so the endpoints run under real memory pressure.
    let costs = CostModel::v100_32gb()
        .with_device_memory((bystander_floor + pages(16 << 20)) * PAGE_SIZE as u64)
        .with_host_memory(8 << 30);

    let endpoint = |name: &str| {
        EndpointSpec::new(name)
            .weights(24 << 20)
            .layers(6)
            .kv_per_token(256 << 10)
            .tokens(4, 16)
            .deadline(Ns::from_millis(12))
            .priority(1)
    };
    let spec = ServeSpec::new()
        .endpoint(endpoint("chat"))
        .endpoint(endpoint("code"))
        .cycles(48)
        .load(LoadCurve::new(4).period(16).burst(16, 32, 2))
        .seed(0x10ad)
        .plan(InjectionPlan {
            seed: 0xF00D,
            request_fail_rate: 0.10,
            max_retries: 3,
            ..InjectionPlan::default()
        })
        .ladder(ladder)
        .bystander(
            TenantSpec::new(
                "bystander",
                JobKind::Training {
                    model: ModelKind::MobileNet,
                    batch: 4,
                    iterations: 2,
                },
            )
            .floor_pages(bystander_floor)
            .traced(),
        );
    (costs, spec)
}

fn run(ladder: Option<LadderConfig>) -> ServeOutcome {
    let (costs, spec) = overload_spec(ladder);
    ServeSim::new(costs, PerfModel::v100(), spec).run()
}

fn bystander_trace(outcome: &ServeOutcome) -> String {
    outcome
        .tracers
        .iter()
        .find(|(tid, _)| *tid == 2)
        .map(|(_, tr)| tr.borrow_mut().jsonl())
        .expect("bystander tracer")
}

/// The headline differential: the ladder strictly reduces deadline
/// misses under the overload burst, sheds load in exchange, and both
/// configurations reproduce byte-identically on a second run.
#[test]
fn ladder_strictly_reduces_deadline_misses_under_overload() {
    let defended = run(Some(LadderConfig::default()));
    let control = run(None);

    defended.validation.clone().expect("defended invariants");
    control.validation.clone().expect("control invariants");
    assert!(
        defended.errors.is_empty(),
        "defended errors: {:?}",
        defended.errors
    );
    assert!(
        control.errors.is_empty(),
        "control errors: {:?}",
        control.errors
    );

    let d = defended.report.serving.as_ref().expect("serving section");
    let c = control.report.serving.as_ref().expect("serving section");

    // The overload actually bites in the control run...
    assert!(
        c.total_missed > 0,
        "control run never missed a deadline — the burst is not an overload"
    );
    // ...and the ladder strictly reduces the misses.
    assert!(
        d.total_missed < c.total_missed,
        "ladder did not reduce misses: defended {} vs control {}",
        d.total_missed,
        c.total_missed
    );
    // The ladder trades misses for typed sheds, not for silence: it
    // actually escalated, and the control never sheds on arrival.
    assert!(
        d.endpoints.iter().any(|e| e.escalations > 0),
        "ladder never escalated"
    );
    assert!(d.total_shed > c.total_shed);

    // Completed + shed accounts for every arrival in both runs — no
    // request vanishes.
    for section in [d, c] {
        let completed: u64 = section.endpoints.iter().map(|e| e.completed).sum();
        assert_eq!(completed + section.total_shed, section.total_requests);
    }
}

/// Both configurations are deterministic: a second run produces a
/// byte-identical report.
#[test]
fn serving_runs_reproduce_byte_identically() {
    for ladder in [Some(LadderConfig::default()), None] {
        let a = serde_json::to_string(&run(ladder.clone()).report).expect("serialize");
        let b = serde_json::to_string(&run(ladder).report).expect("serialize");
        assert_eq!(a, b, "serving report must be byte-stable across runs");
    }
}

/// The bystander training tenant runs within its floor, so its trace
/// is byte-identical whether the endpoints are defended by the ladder
/// or melting down without it — serving-side degradation never leaks
/// into a training tenant's execution.
#[test]
fn ladder_actions_never_perturb_the_bystander() {
    let defended = run(Some(LadderConfig::default()));
    let control = run(None);
    let a = bystander_trace(&defended);
    let b = bystander_trace(&control);
    assert!(a.contains("KernelEnd"), "bystander trace is empty");
    assert_eq!(
        a, b,
        "bystander trace differs between ladder and control runs"
    );
}

/// An endpoint whose guaranteed floor cannot fit is refused before it
/// serves anything, the same way a refused scheduler tenant is: a typed
/// `AdmissionDenied` error and a `TenantDenied` event in its own trace.
/// The admitted endpoint serves every request and the shared driver's
/// invariants hold.
#[test]
fn refused_endpoint_is_typed_and_traced_and_the_other_serves() {
    let device = 64 << 20;
    let capacity = pages(device);
    let costs = CostModel::v100_32gb()
        .with_device_memory(device)
        .with_host_memory(4 << 30);
    let endpoint = |name: &str| {
        EndpointSpec::new(name)
            .weights(4 << 20)
            .layers(2)
            .tokens(2, 4)
    };
    let spec = ServeSpec::new()
        .endpoint(endpoint("fits").floor_pages(capacity / 2))
        .endpoint(endpoint("too-big").floor_pages(capacity))
        .cycles(4)
        .load(LoadCurve::new(2))
        .ladder(None)
        .traced();
    let outcome = ServeSim::new(costs, PerfModel::v100(), spec).run();

    assert_eq!(outcome.errors.len(), 1, "errors: {:?}", outcome.errors);
    let (tid, err) = &outcome.errors[0];
    assert_eq!(*tid, 1);
    match err {
        RunError::AdmissionDenied {
            tenant,
            need,
            avail,
        } => {
            assert_eq!((*tenant, *need), (1, capacity));
            assert_eq!(*avail, capacity - capacity / 2);
        }
        other => panic!("expected AdmissionDenied, got {other:?}"),
    }

    let trace = outcome
        .tracers
        .iter()
        .find(|(tid, _)| *tid == 1)
        .map(|(_, tr)| tr.borrow_mut().jsonl())
        .expect("refused endpoint's tracer");
    assert!(trace.contains("TenantDenied"), "trace: {trace}");
    assert!(!trace.contains("TenantAdmitted"), "trace: {trace}");

    let serving = outcome.report.serving.as_ref().expect("serving section");
    assert_eq!(serving.endpoints.len(), 2);
    let fits = &serving.endpoints[0];
    assert_eq!(fits.name, "fits");
    assert!(fits.admitted && fits.error.is_none(), "{fits:?}");
    assert!(fits.requests > 0);
    assert_eq!(fits.completed, fits.requests, "{fits:?}");
    let refused = &serving.endpoints[1];
    assert_eq!(refused.name, "too-big");
    assert!(!refused.admitted, "{refused:?}");
    assert_eq!(refused.error, Some(err.to_string()));
    assert_eq!(refused.requests, 0);
    assert_eq!(serving.total_requests, fits.requests);
    outcome
        .validation
        .clone()
        .expect("shared driver invariants");
}
