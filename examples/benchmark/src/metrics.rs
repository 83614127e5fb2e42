//! What a run measured, and the metrics it reports.

use deepum_baselines::RunReport;
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;

use crate::compare::Metric;
use crate::stats::{median, quartiles};
use crate::timed::{Boundary, Span};
use crate::workloads::Layer;

/// Sums of one pass's reports over the workload's cells.
#[derive(Default)]
pub struct Totals {
    counters: Counters,
    table_bytes: u64,
    steady_faults: u64,
    sim_iter: Ns,
    sim_compute: Ns,
    sim_stall: Ns,
}

impl Totals {
    /// Adds one cell's report.
    pub fn add(&mut self, report: &RunReport) {
        self.counters.merge(&report.counters);
        self.table_bytes += report.table_bytes.unwrap_or(0);
        self.steady_faults += report.steady_faults_per_iter();
        if let Some(steady) = report.iters.last() {
            self.sim_iter += steady.elapsed;
            self.sim_compute += steady.compute;
            self.sim_stall += steady.stall;
        }
    }

    /// Simulated kernels launched.
    pub fn kernels(&self) -> u64 {
        self.counters.kernels_launched
    }
}

/// One traced pass: its wall time and the spans of each layer.
pub struct TracedPass {
    /// Host seconds of the pass's `run_um` calls.
    pub wall: f64,
    /// Spans indexed by `[layer][boundary]`.
    pub spans: [[Span; Boundary::ALL.len()]; 2],
}

impl TracedPass {
    fn secs(&self, layer: Layer, boundary: Boundary) -> f64 {
        self.spans[layer as usize][boundary as usize]
            .time
            .as_secs_f64()
    }

    fn calls(&self, layer: Layer, boundary: Boundary) -> f64 {
        self.spans[layer as usize][boundary as usize].calls as f64
    }

    /// Host seconds of the pass spent outside every span.
    fn executor_self(&self) -> f64 {
        let spans: f64 = self
            .spans
            .iter()
            .flatten()
            .map(|s| s.time.as_secs_f64())
            .sum();
        self.wall - spans
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Measured {
    /// Cell runs attempted.
    pub attempted: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Passes measured.
    pub passes: usize,
    /// Host seconds of each set-up round.
    pub setup: Vec<f64>,
    /// Host seconds of each round's model builds.
    pub build: Vec<f64>,
    /// Host seconds of each untraced pass.
    pub walls: Vec<f64>,
    /// Simulated kernels per host second of each untraced pass.
    pub kernel_rates: Vec<f64>,
    /// Peak resident set after set-up and the first pass, MiB.
    pub peak_rss_mb: f64,
    /// Totals of the last untraced pass.
    pub untraced: Totals,
    /// Every traced pass.
    pub traced: Vec<TracedPass>,
    /// Totals of the last traced pass.
    pub traced_totals: Totals,
}

impl Measured {
    /// Records a cell that could not run as an attempted, failed run.
    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failures.push(msg);
    }
}

/// Peak resident set of this process, MiB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &str, unit: &str, samples: &[f64]) -> Metric {
    let (q1, value, q3) = quartiles(samples);
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
        q1,
        q3,
        samples: samples.len() as u64,
    }
}

fn count(name: &str, n: u64) -> Metric {
    metric(name, "count", &[n as f64])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of untraced passes, in `BENCHMARK.json` order.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    vec![
        metric("wall_s", "s", &m.walls),
        metric("sim_kernels_per_s", "1/s", &m.kernel_rates),
        metric("setup_s", "s", &m.setup),
        metric("peak_rss_mb", "MiB", &[m.peak_rss_mb]),
        count("steady_faults", m.untraced.steady_faults),
    ]
}

/// The per-layer metrics of traced passes, in `BENCHMARK.json` order.
/// Span metrics are medians over traced passes; counts come from the
/// last traced pass, which every pass repeats exactly.
pub fn per_layer(m: &Measured) -> Vec<Metric> {
    use Boundary::{Fault, Launch, Migrate, Notify, Probe, Retire};
    use Layer::{Core, Um};
    let per_pass =
        |f: &dyn Fn(&TracedPass) -> f64| -> Vec<f64> { m.traced.iter().map(f).collect() };
    let t = &m.traced_totals;
    let c = &t.counters;
    let commands = c.prefetch_commands as f64;
    let traced_wall = median(&per_pass(&|p| p.wall));
    vec![
        metric("core.fault_s", "s", &per_pass(&|p| p.secs(Core, Fault))),
        metric(
            "core.fault_calls",
            "count",
            &per_pass(&|p| p.calls(Core, Fault)),
        ),
        metric(
            "core.fault_us_per_batch",
            "us",
            &per_pass(&|p| 1e6 * ratio(p.secs(Core, Fault), p.calls(Core, Fault))),
        ),
        metric(
            "core.fault_share",
            "fraction",
            &per_pass(&|p| ratio(p.secs(Core, Fault), p.wall)),
        ),
        metric("core.migrate_s", "s", &per_pass(&|p| p.secs(Core, Migrate))),
        metric(
            "core.migrate_calls",
            "count",
            &per_pass(&|p| p.calls(Core, Migrate)),
        ),
        metric(
            "core.migrate_us_per_cmd",
            "us",
            &per_pass(&|p| 1e6 * ratio(p.secs(Core, Migrate), commands)),
        ),
        metric(
            "core.migrate_share",
            "fraction",
            &per_pass(&|p| ratio(p.secs(Core, Migrate), p.wall)),
        ),
        metric("core.launch_s", "s", &per_pass(&|p| p.secs(Core, Launch))),
        metric(
            "core.launch_calls",
            "count",
            &per_pass(&|p| p.calls(Core, Launch)),
        ),
        metric("core.retire_s", "s", &per_pass(&|p| p.secs(Core, Retire))),
        metric("core.probe_s", "s", &per_pass(&|p| p.secs(Core, Probe))),
        metric(
            "core.probe_calls",
            "count",
            &per_pass(&|p| p.calls(Core, Probe)),
        ),
        metric("um.fault_s", "s", &per_pass(&|p| p.secs(Um, Fault))),
        metric(
            "um.fault_calls",
            "count",
            &per_pass(&|p| p.calls(Um, Fault)),
        ),
        metric(
            "um.fault_us_per_batch",
            "us",
            &per_pass(&|p| 1e6 * ratio(p.secs(Um, Fault), p.calls(Um, Fault))),
        ),
        metric(
            "um.fault_share",
            "fraction",
            &per_pass(&|p| ratio(p.secs(Um, Fault), p.wall)),
        ),
        metric("um.probe_s", "s", &per_pass(&|p| p.secs(Um, Probe))),
        metric(
            "um.probe_calls",
            "count",
            &per_pass(&|p| p.calls(Um, Probe)),
        ),
        metric(
            "runtime.notify_s",
            "s",
            &per_pass(&|p| p.secs(Core, Notify) + p.secs(Um, Notify)),
        ),
        metric(
            "runtime.notify_calls",
            "count",
            &per_pass(&|p| p.calls(Core, Notify) + p.calls(Um, Notify)),
        ),
        metric(
            "baselines.executor_self_s",
            "s",
            &per_pass(&|p| p.executor_self()),
        ),
        metric(
            "baselines.executor_share",
            "fraction",
            &per_pass(&|p| ratio(p.executor_self(), p.wall)),
        ),
        metric("torch.build_s", "s", &m.build),
        metric(
            "bench.trace_overhead_pct",
            "%",
            &[100.0 * (ratio(traced_wall, median(&m.walls)) - 1.0)],
        ),
        count("gpu.kernels", c.kernels_launched),
        metric("gpu.sim_iter_s", "sim_s", &[t.sim_iter.as_secs_f64()]),
        metric("gpu.sim_compute_s", "sim_s", &[t.sim_compute.as_secs_f64()]),
        metric("gpu.sim_stall_s", "sim_s", &[t.sim_stall.as_secs_f64()]),
        count("um.faults", c.gpu_page_faults),
        count("um.fault_batches", c.fault_batches),
        count("um.pages_evicted_demand", c.pages_evicted_demand),
        count("um.pages_preevicted", c.pages_preevicted),
        count("um.pages_invalidated", c.pages_invalidated),
        metric("um.bytes_h2d", "B", &[c.bytes_h2d as f64]),
        metric("um.bytes_d2h", "B", &[c.bytes_d2h as f64]),
        count("core.chain_walks", c.chain_walks),
        count("core.chain_lookups", c.block_table_lookups),
        metric(
            "core.lookups_per_cmd",
            "count",
            &[ratio(c.block_table_lookups as f64, commands)],
        ),
        count("core.prefetch_commands", c.prefetch_commands),
        count("core.pages_prefetched", c.pages_prefetched),
        count("core.prefetch_hits", c.prefetch_hits),
        count("core.prefetch_wasted", c.prefetch_wasted),
        metric(
            "core.prefetch_waste_ratio",
            "fraction",
            &[ratio(
                c.prefetch_wasted as f64,
                (c.prefetch_hits + c.prefetch_wasted) as f64,
            )],
        ),
        count("core.prefetch_dropped", c.prefetch_dropped),
        metric(
            "core.exec_mispredict_ratio",
            "fraction",
            &[ratio(
                c.exec_mispredictions as f64,
                c.exec_predictions as f64,
            )],
        ),
        count("core.table_updates", c.block_table_updates),
        metric("core.table_bytes", "B", &[t.table_bytes as f64]),
    ]
}
