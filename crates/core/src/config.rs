//! DeepUM configuration knobs.

use deepum_um::pressure::PressureConfig;
use serde::{Deserialize, Serialize};

use crate::watchdog::WatchdogConfig;

/// Tunable parameters of the DeepUM driver.
///
/// Defaults follow the paper's evaluation configuration: UM-block
/// correlation tables with 2048 rows, two-way associativity, and four
/// successors (Section 6.2 / Config9 of Table 6). The prefetch degree is
/// measured in *simulated* kernels, each standing for several real CUDA
/// launches, so its default (256) sits above the paper's N = 32 sweet
/// spot while playing the same role (Fig. 11). The three `enable_*`
/// toggles drive the Figure-10 ablation.
///
/// # Example
///
/// ```
/// use deepum_core::config::DeepumConfig;
///
/// let prefetch_only = DeepumConfig {
///     enable_preevict: false,
///     enable_invalidate: false,
///     ..DeepumConfig::default()
/// };
/// assert!(prefetch_only.enable_prefetch);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeepumConfig {
    /// `NumRows`: rows per UM-block correlation table.
    pub block_table_rows: usize,
    /// `Assoc`: ways per row.
    pub block_table_assoc: usize,
    /// `NumSuccs`: MRU-ordered successor slots per way.
    pub block_table_succs: usize,
    /// `N`: chaining looks ahead this many predicted kernels
    /// (Section 4.2's pause bound, swept in Fig. 11). One simulated
    /// kernel stands for several real CUDA launches (cuDNN/cuBLAS emit
    /// many kernels per operator), so the default is correspondingly
    /// larger than the paper's sweet spot of 32.
    pub prefetch_degree: usize,
    /// Correlation prefetching on/off (Fig. 10 ablation).
    pub enable_prefetch: bool,
    /// Page pre-eviction on/off (Section 5.1, Fig. 10 ablation).
    pub enable_preevict: bool,
    /// Inactive-PT-block invalidation on/off (Section 5.2, Fig. 10).
    pub enable_invalidate: bool,
    /// Prefetch-accuracy watchdog, off (`None`) by default: the
    /// watchdog only changes behaviour when mispredictions are rampant,
    /// which in this simulation means chaos-injection runs.
    pub watchdog: Option<WatchdogConfig>,
    /// Upper bound on the predicted-window (eviction-protection) queue;
    /// entries past it are dropped oldest-first (backpressure) and
    /// counted in the run's health report. The default is sized so
    /// normal runs never hit it — it is a safety valve against
    /// pathological chain churn, not a tuning knob.
    pub predicted_window_capacity: usize,
    /// Memory-pressure governor, off (`None`) by default: governed runs
    /// change eviction order, so leaving it off keeps untouched runs
    /// byte-identical to pre-governor builds.
    pub pressure: Option<PressureConfig>,
}

impl DeepumConfig {
    /// The paper's evaluation configuration.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Ablation step 1: correlation prefetching only (Fig. 10
    /// "Prefetching").
    pub fn prefetch_only() -> Self {
        DeepumConfig {
            enable_preevict: false,
            enable_invalidate: false,
            ..Self::default()
        }
    }

    /// Ablation step 2: prefetching + pre-eviction (Fig. 10
    /// "Prefetching+Preeviction").
    pub fn prefetch_preevict() -> Self {
        DeepumConfig {
            enable_invalidate: false,
            ..Self::default()
        }
    }

    /// Returns the configuration with a different prefetch degree `N`.
    pub fn with_prefetch_degree(mut self, n: usize) -> Self {
        self.prefetch_degree = n;
        self
    }

    /// Returns the configuration with different UM-block table geometry
    /// (Table 6's `Assoc`, `NumSuccs`, `NumRows`).
    pub fn with_block_table(mut self, assoc: usize, succs: usize, rows: usize) -> Self {
        self.block_table_assoc = assoc;
        self.block_table_succs = succs;
        self.block_table_rows = rows;
        self
    }

    /// Enables the prefetch-accuracy watchdog with explicit window,
    /// throttle/disable thresholds (integer percent of wasted prefetched
    /// pages), and cooldown.
    pub fn with_watchdog(
        mut self,
        window_kernels: u64,
        throttle_pct: u32,
        disable_pct: u32,
        cooldown_kernels: u64,
    ) -> Self {
        self.watchdog = Some(WatchdogConfig {
            window_kernels,
            throttle_pct,
            disable_pct,
            cooldown_kernels,
        });
        self
    }

    /// Enables the memory-pressure governor with explicit refault
    /// window, victim cooldown, and classification thresholds (integer
    /// percent of the EWMA refault score).
    pub fn with_pressure_governor(
        mut self,
        refault_window: u64,
        cooldown_kernels: u64,
        elevated_pct: u64,
        thrashing_pct: u64,
    ) -> Self {
        self.pressure = Some(PressureConfig {
            refault_window,
            cooldown_kernels,
            elevated_pct,
            thrashing_pct,
            ..PressureConfig::default()
        });
        self
    }
}

impl Default for DeepumConfig {
    fn default() -> Self {
        DeepumConfig {
            block_table_rows: 2048,
            block_table_assoc: 2,
            block_table_succs: 4,
            prefetch_degree: 256,
            enable_prefetch: true,
            enable_preevict: true,
            enable_invalidate: true,
            watchdog: None,
            predicted_window_capacity: 1 << 20,
            pressure: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_config9() {
        let c = DeepumConfig::default();
        assert_eq!(c.block_table_rows, 2048);
        assert_eq!(c.block_table_assoc, 2);
        assert_eq!(c.block_table_succs, 4);
        assert!(c.enable_prefetch && c.enable_preevict && c.enable_invalidate);
    }

    #[test]
    fn ablation_presets_disable_progressively() {
        let p = DeepumConfig::prefetch_only();
        assert!(p.enable_prefetch && !p.enable_preevict && !p.enable_invalidate);
        let pp = DeepumConfig::prefetch_preevict();
        assert!(pp.enable_prefetch && pp.enable_preevict && !pp.enable_invalidate);
    }

    #[test]
    fn builders_override() {
        let c = DeepumConfig::default()
            .with_prefetch_degree(8)
            .with_block_table(4, 8, 512);
        assert_eq!(c.prefetch_degree, 8);
        assert_eq!(
            (c.block_table_assoc, c.block_table_succs, c.block_table_rows),
            (4, 8, 512)
        );
    }

    #[test]
    fn pressure_governor_defaults_off_and_builder_enables() {
        assert!(DeepumConfig::default().pressure.is_none());
        let c = DeepumConfig::default().with_pressure_governor(4, 2, 10, 25);
        assert_eq!(
            c.pressure,
            Some(PressureConfig {
                refault_window: 4,
                cooldown_kernels: 2,
                ewma_shift: PressureConfig::default().ewma_shift,
                elevated_pct: 10,
                thrashing_pct: 25,
            })
        );
    }

    #[test]
    fn watchdog_defaults_off_and_builder_enables() {
        assert!(DeepumConfig::default().watchdog.is_none());
        let c = DeepumConfig::default().with_watchdog(4, 30, 60, 8);
        assert_eq!(
            c.watchdog,
            Some(WatchdogConfig {
                window_kernels: 4,
                throttle_pct: 30,
                disable_pct: 60,
                cooldown_kernels: 8,
            })
        );
    }
}
