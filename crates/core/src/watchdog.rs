//! Prefetch-accuracy watchdog: graceful degradation for the correlation
//! prefetcher.
//!
//! Correlation prefetching is a bet that the recorded fault order
//! repeats. When it does not — a workload phase change, a correlation
//! table thrashed by injected entry drops — every wrong prefetch steals
//! PCIe bandwidth from demand migrations and evicts pages the GPU still
//! needs. The watchdog watches the bet's hit rate over a sliding window
//! of kernels and degrades in two steps:
//!
//! 1. **Throttle** — waste crossed [`PrefetchWatchdog`]'s throttle
//!    threshold: the driver halves its effective prefetch degree (the
//!    chain looks less far ahead, so a wrong chain does less damage);
//! 2. **Disable** — waste crossed the disable threshold: correlation
//!    prefetching stops entirely; after a cooldown of quiet kernels the
//!    watchdog re-enables it and the tables get another chance (they
//!    kept learning from demand faults the whole time).
//!
//! Thresholds are integer percentages of wasted-to-issued prefetched
//! pages, keeping the config `Eq`-comparable and the state machine free
//! of float drift.

use deepum_sim::faultinject::{DegradationState, WatchdogTransition};
use deepum_um::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use serde::{Deserialize, Serialize};

fn state_tag(s: DegradationState) -> u8 {
    match s {
        DegradationState::Normal => 0,
        DegradationState::Throttled => 1,
        DegradationState::Disabled => 2,
    }
}

fn state_from_tag(tag: u8) -> Result<DegradationState, SnapshotError> {
    match tag {
        0 => Ok(DegradationState::Normal),
        1 => Ok(DegradationState::Throttled),
        2 => Ok(DegradationState::Disabled),
        other => Err(SnapshotError::Corrupt(format!(
            "unknown degradation state tag {other}"
        ))),
    }
}

fn pct_from(raw: u64) -> Result<u32, SnapshotError> {
    u32::try_from(raw)
        .map_err(|_| SnapshotError::Corrupt(format!("watchdog threshold {raw}% out of range")))
}

/// Tuning knobs of the [`PrefetchWatchdog`]. Thresholds are integer
/// percent of wasted-to-issued prefetched pages, keeping the config
/// `Eq`. They are `u32` so that `Option<WatchdogConfig>` leaves
/// `DeepumConfig` at the size its five former flat watchdog fields
/// gave it: the `demand-um` benchmark's peak RSS (glibc heap layout)
/// was measured to jump from 13.6 to 17.7 MiB when it grew by 8 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Kernel launches per evaluation window. Clamped to at least 1 at
    /// construction.
    pub window_kernels: u64,
    /// Waste percentage at which the watchdog halves the prefetch
    /// degree.
    pub throttle_pct: u32,
    /// Waste percentage at which the watchdog disables correlation
    /// prefetching until the cooldown elapses.
    pub disable_pct: u32,
    /// Kernel launches prefetching stays disabled before it is
    /// re-enabled. Clamped to at least 1 at construction.
    pub cooldown_kernels: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            window_kernels: 8,
            throttle_pct: 50,
            disable_pct: 90,
            cooldown_kernels: 16,
        }
    }
}

/// Sliding-window misprediction watchdog over the prefetcher.
///
/// Fed once per kernel launch with the *delta* of prefetched and wasted
/// page counts; evaluates the waste percentage every `window_kernels`
/// launches.
///
/// # Example
///
/// ```
/// use deepum_core::watchdog::{PrefetchWatchdog, WatchdogConfig};
/// use deepum_sim::faultinject::DegradationState;
///
/// let mut wd = PrefetchWatchdog::new(WatchdogConfig {
///     window_kernels: 2,
///     cooldown_kernels: 4,
///     ..WatchdogConfig::default()
/// });
/// wd.observe(1, 100, 95); // 95% waste
/// wd.observe(2, 100, 95);
/// assert_eq!(wd.state(), DegradationState::Disabled);
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchWatchdog {
    cfg: WatchdogConfig,
    state: DegradationState,
    kernels_in_window: u64,
    window_prefetched: u64,
    window_wasted: u64,
    cooldown_left: u64,
    transitions: Vec<WatchdogTransition>,
}

impl PrefetchWatchdog {
    /// Creates a watchdog evaluating every `window_kernels` launches,
    /// throttling at `throttle_pct`% waste, disabling at `disable_pct`%,
    /// and re-enabling `cooldown_kernels` launches after a disable.
    pub fn new(cfg: WatchdogConfig) -> Self {
        PrefetchWatchdog {
            cfg: WatchdogConfig {
                window_kernels: cfg.window_kernels.max(1),
                cooldown_kernels: cfg.cooldown_kernels.max(1),
                ..cfg
            },
            state: DegradationState::Normal,
            kernels_in_window: 0,
            window_prefetched: 0,
            window_wasted: 0,
            cooldown_left: 0,
            transitions: Vec::new(),
        }
    }

    /// Current degradation state.
    pub fn state(&self) -> DegradationState {
        self.state
    }

    /// Every state change so far, in order.
    pub fn transitions(&self) -> &[WatchdogTransition] {
        &self.transitions
    }

    /// Feeds one kernel launch: `prefetched` and `wasted` are the page
    /// counts accumulated since the previous call (deltas, not totals).
    /// Returns the state in effect for the upcoming kernel.
    pub fn observe(&mut self, kernel_seq: u64, prefetched: u64, wasted: u64) -> DegradationState {
        if self.state == DegradationState::Disabled {
            // Quiet period: prefetching is off, nothing to measure. Count
            // down the cooldown and give the prefetcher a fresh window.
            self.cooldown_left = self.cooldown_left.saturating_sub(1);
            if self.cooldown_left == 0 {
                self.transition(kernel_seq, DegradationState::Normal);
                self.reset_window();
            }
            return self.state;
        }

        self.kernels_in_window += 1;
        self.window_prefetched += prefetched;
        self.window_wasted += wasted;
        if self.kernels_in_window < self.cfg.window_kernels {
            return self.state;
        }

        // A window with no prefetch traffic carries no signal; keep the
        // current state rather than "recovering" on silence.
        if self.window_prefetched > 0 {
            let pct = self
                .window_wasted
                .saturating_mul(100)
                .checked_div(self.window_prefetched)
                .unwrap_or(0);
            let next = if pct >= u64::from(self.cfg.disable_pct) {
                DegradationState::Disabled
            } else if pct >= u64::from(self.cfg.throttle_pct) {
                DegradationState::Throttled
            } else {
                DegradationState::Normal
            };
            if next != self.state {
                self.transition(kernel_seq, next);
                if next == DegradationState::Disabled {
                    self.cooldown_left = self.cfg.cooldown_kernels;
                }
            }
        }
        self.reset_window();
        self.state
    }

    /// Writes the full watchdog — thresholds, window accumulators, and
    /// transition history — into a checkpoint payload.
    pub(crate) fn encode_into(&self, w: &mut SnapshotWriter) {
        w.u64(self.cfg.window_kernels);
        w.u64(u64::from(self.cfg.throttle_pct));
        w.u64(u64::from(self.cfg.disable_pct));
        w.u64(self.cfg.cooldown_kernels);
        w.u8(state_tag(self.state));
        w.u64(self.kernels_in_window);
        w.u64(self.window_prefetched);
        w.u64(self.window_wasted);
        w.u64(self.cooldown_left);
        w.u64(deepum_mem::u64_from_usize(self.transitions.len()));
        for t in &self.transitions {
            w.u64(t.kernel_seq);
            w.u8(state_tag(t.from));
            w.u8(state_tag(t.to));
        }
    }

    /// Reads a watchdog written by [`PrefetchWatchdog::encode_into`].
    pub(crate) fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let window_kernels = r.u64()?;
        let throttle_pct = pct_from(r.u64()?)?;
        let disable_pct = pct_from(r.u64()?)?;
        let cooldown_kernels = r.u64()?;
        let state = state_from_tag(r.u8()?)?;
        let kernels_in_window = r.u64()?;
        let window_prefetched = r.u64()?;
        let window_wasted = r.u64()?;
        let cooldown_left = r.u64()?;
        let mut transitions = Vec::new();
        for _ in 0..r.len_prefix(10)? {
            transitions.push(WatchdogTransition {
                kernel_seq: r.u64()?,
                from: state_from_tag(r.u8()?)?,
                to: state_from_tag(r.u8()?)?,
            });
        }
        Ok(PrefetchWatchdog {
            cfg: WatchdogConfig {
                window_kernels: window_kernels.max(1),
                throttle_pct,
                disable_pct,
                cooldown_kernels: cooldown_kernels.max(1),
            },
            state,
            kernels_in_window,
            window_prefetched,
            window_wasted,
            cooldown_left,
            transitions,
        })
    }

    fn transition(&mut self, kernel_seq: u64, to: DegradationState) {
        self.transitions.push(WatchdogTransition {
            kernel_seq,
            from: self.state,
            to,
        });
        self.state = to;
    }

    fn reset_window(&mut self) {
        self.kernels_in_window = 0;
        self.window_prefetched = 0;
        self.window_wasted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn watchdog(window_kernels: u64, cooldown_kernels: u64) -> PrefetchWatchdog {
        PrefetchWatchdog::new(WatchdogConfig {
            window_kernels,
            throttle_pct: 50,
            disable_pct: 90,
            cooldown_kernels,
        })
    }

    #[test]
    fn clean_windows_stay_normal() {
        let mut wd = watchdog(4, 8);
        for seq in 1..=16 {
            wd.observe(seq, 100, 5);
        }
        assert_eq!(wd.state(), DegradationState::Normal);
        assert!(wd.transitions().is_empty());
    }

    #[test]
    fn moderate_waste_throttles() {
        let mut wd = watchdog(4, 8);
        for seq in 1..=4 {
            wd.observe(seq, 100, 60);
        }
        assert_eq!(wd.state(), DegradationState::Throttled);
        assert_eq!(wd.transitions().len(), 1);
        assert_eq!(wd.transitions()[0].from, DegradationState::Normal);
    }

    #[test]
    fn throttled_recovers_when_waste_subsides() {
        let mut wd = watchdog(4, 8);
        for seq in 1..=4 {
            wd.observe(seq, 100, 60);
        }
        assert_eq!(wd.state(), DegradationState::Throttled);
        for seq in 5..=8 {
            wd.observe(seq, 100, 5);
        }
        assert_eq!(wd.state(), DegradationState::Normal);
        assert_eq!(wd.transitions().len(), 2);
    }

    #[test]
    fn sustained_storm_disables_then_cooldown_reenables() {
        let mut wd = watchdog(2, 3);
        let mut seq = 0;
        for _ in 0..2 {
            seq += 1;
            wd.observe(seq, 100, 95);
        }
        assert_eq!(wd.state(), DegradationState::Disabled);

        // Two quiet kernels: still disabled (cooldown is 3).
        for _ in 0..2 {
            seq += 1;
            assert_eq!(wd.observe(seq, 0, 0), DegradationState::Disabled);
        }
        // Third quiet kernel ends the cooldown.
        seq += 1;
        assert_eq!(wd.observe(seq, 0, 0), DegradationState::Normal);

        let t = wd.transitions();
        assert_eq!(t.len(), 2);
        assert_eq!(
            (t[0].from, t[0].to),
            (DegradationState::Normal, DegradationState::Disabled)
        );
        assert_eq!(
            (t[1].from, t[1].to),
            (DegradationState::Disabled, DegradationState::Normal)
        );
    }

    #[test]
    fn silent_window_carries_no_signal() {
        let mut wd = watchdog(2, 3);
        wd.observe(1, 100, 60);
        wd.observe(2, 100, 60);
        assert_eq!(wd.state(), DegradationState::Throttled);
        // No prefetch traffic at all: state holds rather than recovering.
        wd.observe(3, 0, 0);
        wd.observe(4, 0, 0);
        assert_eq!(wd.state(), DegradationState::Throttled);
    }
}
