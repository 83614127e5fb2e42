//! Memory-pressure governor: thrash detection and mitigation state.
//!
//! DeepUM's pre-eviction policy (paper Section 5.1) assumes predictions
//! are good enough that evicted pages are not immediately refaulted.
//! Under extreme oversubscription the simulator can ping-pong blocks
//! between device and host with nothing watching steady-state pressure.
//! [`PressureGovernor`] closes that gap:
//!
//! * **Refault distance.** Every eviction is stamped with the governor's
//!   kernel clock; a block that demand-migrates back within
//!   `refault_window` kernel launches is a *refault* (ping-pong).
//! * **Thrash score.** Each kernel folds its refault ratio into an
//!   integer EWMA; the score classifies pressure as
//!   [`PressureLevel::Normal`] / [`PressureLevel::Elevated`] /
//!   [`PressureLevel::Thrashing`] with hysteresis (the de-escalation
//!   threshold sits below the escalation threshold, so the level does
//!   not flap on a borderline score).
//! * **Victim cooldown.** A refaulted block is kept out of first-pass
//!   victim selection for `cooldown_kernels` launches, spreading
//!   eviction pressure to colder blocks instead of thrashing hot ones.
//! * **Minimum-resident guarantee.** Blocks the in-flight kernel has
//!   touched are pinned until the kernel retires, so demand paging
//!   always makes forward progress — and a kernel whose footprint
//!   genuinely exceeds device capacity surfaces a typed capacity error
//!   instead of silently thrashing its own working set.
//!
//! All state is integer-only and lives in BTree containers, so a
//! governed run is deterministic and the snapshot codec
//! ([`PressureGovernor::encode_into`]) round-trips byte-identically.
//! The governor is `Option`al in the driver: `None` (the default) means
//! the code path is absent and untouched runs stay byte-identical.

use std::collections::{BTreeMap, BTreeSet};

use deepum_gpu::engine::PressureStats;
use deepum_mem::{u64_from_usize, BlockNum};
use deepum_trace::PressureLevel;
use serde::{Deserialize, Serialize};

use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Fixed-point scale of the thrash score: 1% == 1000 score units.
const SCORE_MILLI_PER_PCT: u64 = 1000;

/// Tuning knobs of the [`PressureGovernor`]. All integers, so a config
/// is `Eq` and byte-stable through the report and snapshot layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PressureConfig {
    /// An eviction followed by a demand re-migration within this many
    /// kernel launches counts as a refault (ping-pong).
    pub refault_window: u64,
    /// Kernel launches a refaulted block stays off the first-pass
    /// victim list.
    pub cooldown_kernels: u64,
    /// EWMA weight: the per-kernel sample carries weight `1 / 2^shift`.
    /// Clamped to `1..=6` at construction.
    pub ewma_shift: u32,
    /// Score (percent) at which pressure escalates to `Elevated`.
    pub elevated_pct: u64,
    /// Score (percent) at which pressure escalates to `Thrashing`.
    pub thrashing_pct: u64,
}

impl Default for PressureConfig {
    fn default() -> Self {
        PressureConfig {
            refault_window: 8,
            cooldown_kernels: 4,
            ewma_shift: 2,
            elevated_pct: 15,
            thrashing_pct: 35,
        }
    }
}

/// A pressure reclassification produced by [`PressureGovernor::end_kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelChange {
    /// Level before.
    pub from: PressureLevel,
    /// Level after.
    pub to: PressureLevel,
    /// EWMA score (percent) that drove the transition.
    pub score_pct: u64,
}

/// Deterministic thrash detector and mitigation bookkeeping shared by
/// the eviction scan (victim cooldown, in-flight pins) and the DeepUM
/// prefetcher (adaptive window sizing).
///
/// # Example
///
/// ```
/// use deepum_mem::BlockNum;
/// use deepum_um::pressure::{PressureConfig, PressureGovernor};
///
/// let mut g = PressureGovernor::new(PressureConfig::default());
/// g.note_eviction(BlockNum::new(3));
/// assert!(g.note_demand_arrival(BlockNum::new(3)), "immediate refault");
/// assert!(g.in_cooldown(BlockNum::new(3)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PressureGovernor {
    cfg: PressureConfig,
    /// Kernel launches retired so far (the governor's clock).
    kernel_clock: u64,
    /// Eviction stamp per block, pruned once outside `refault_window`.
    evicted_at: BTreeMap<BlockNum, u64>,
    /// Kernel clock before which a refaulted block may not be a
    /// first-pass eviction victim.
    cooldown_until: BTreeMap<BlockNum, u64>,
    /// Blocks the in-flight kernel touched; cleared on kernel retire.
    inflight: BTreeSet<BlockNum>,
    /// Fresh demand block arrivals since the last kernel retired.
    window_demands: u64,
    /// Refaults among those arrivals.
    window_refaults: u64,
    /// EWMA thrash score, milli-percent (`100_000` == 100%).
    score_milli: u64,
    /// Highest score seen over the run.
    peak_score_milli: u64,
    level: PressureLevel,
    /// Lifetime refault count.
    refaults: u64,
    /// Lifetime victims passed over because of cooldown.
    cooldown_skips: u64,
    /// Lifetime level transitions.
    level_changes: u64,
}

impl PressureGovernor {
    /// Creates a governor at `Normal` pressure with a zero score.
    pub fn new(cfg: PressureConfig) -> Self {
        let cfg = PressureConfig {
            ewma_shift: cfg.ewma_shift.clamp(1, 6),
            ..cfg
        };
        PressureGovernor {
            cfg,
            kernel_clock: 0,
            evicted_at: BTreeMap::new(),
            cooldown_until: BTreeMap::new(),
            inflight: BTreeSet::new(),
            window_demands: 0,
            window_refaults: 0,
            score_milli: 0,
            peak_score_milli: 0,
            level: PressureLevel::Normal,
            refaults: 0,
            cooldown_skips: 0,
            level_changes: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PressureConfig {
        &self.cfg
    }

    /// Current pressure classification.
    pub fn level(&self) -> PressureLevel {
        self.level
    }

    /// Current EWMA score in whole percent.
    pub fn score_pct(&self) -> u64 {
        self.score_milli / SCORE_MILLI_PER_PCT
    }

    /// Stamps `block` as evicted at the current kernel clock.
    pub fn note_eviction(&mut self, block: BlockNum) {
        self.evicted_at.insert(block, self.kernel_clock);
    }

    /// Records a block arriving on device through the demand path
    /// (transition from non-resident to resident). Returns `true` when
    /// the arrival is a refault, in which case the block also enters
    /// victim cooldown. The block is pinned for the in-flight kernel.
    pub fn note_demand_arrival(&mut self, block: BlockNum) -> bool {
        self.window_demands += 1;
        self.inflight.insert(block);
        if let Some(evicted) = self.evicted_at.remove(&block) {
            if self.kernel_clock.saturating_sub(evicted) <= self.cfg.refault_window {
                self.window_refaults += 1;
                self.refaults += 1;
                self.cooldown_until
                    .insert(block, self.kernel_clock + self.cfg.cooldown_kernels);
                return true;
            }
        }
        false
    }

    /// Records a block arriving on device through the prefetch path:
    /// the prediction beat the demand fault, so no refault is charged
    /// and the eviction stamp is cleared.
    pub fn note_prefetch_arrival(&mut self, block: BlockNum) {
        self.evicted_at.remove(&block);
    }

    /// Pins `block` for the in-flight kernel (a successful access).
    pub fn pin_inflight(&mut self, block: BlockNum) {
        self.inflight.insert(block);
    }

    /// True when `block` is pinned by the in-flight kernel (the
    /// minimum-resident guarantee: never an eviction victim).
    pub fn is_pinned(&self, block: BlockNum) -> bool {
        self.inflight.contains(&block)
    }

    /// True when `block` is inside its victim-cooldown window.
    pub fn in_cooldown(&self, block: BlockNum) -> bool {
        self.cooldown_until
            .get(&block)
            .is_some_and(|&until| self.kernel_clock < until)
    }

    /// Kernel launches left until `block` leaves cooldown (zero when it
    /// is not cooling down).
    pub fn cooldown_remaining(&self, block: BlockNum) -> u64 {
        self.cooldown_until
            .get(&block)
            .map_or(0, |&until| until.saturating_sub(self.kernel_clock))
    }

    /// Counts one victim passed over because of cooldown.
    pub fn note_cooldown_skip(&mut self) {
        self.cooldown_skips += 1;
    }

    /// Retires the in-flight kernel: folds the window's refault ratio
    /// into the EWMA score, advances the kernel clock, releases pins,
    /// prunes expired bookkeeping, and reclassifies pressure. Returns
    /// the transition when the level changed.
    pub fn end_kernel(&mut self) -> Option<LevelChange> {
        let sample_milli = self
            .window_refaults
            .saturating_mul(100 * SCORE_MILLI_PER_PCT)
            .checked_div(self.window_demands)
            .unwrap_or(0);
        let weight = (1u64 << self.cfg.ewma_shift) - 1;
        self.score_milli = self
            .score_milli
            .saturating_mul(weight)
            .saturating_add(sample_milli)
            >> self.cfg.ewma_shift;
        self.peak_score_milli = self.peak_score_milli.max(self.score_milli);
        self.window_demands = 0;
        self.window_refaults = 0;
        self.kernel_clock += 1;
        self.inflight.clear();
        let clock = self.kernel_clock;
        self.cooldown_until.retain(|_, until| clock < *until);
        let horizon = self.cfg.refault_window;
        self.evicted_at
            .retain(|_, evicted| clock.saturating_sub(*evicted) <= horizon);

        let to = self.classify();
        if to == self.level {
            return None;
        }
        let from = self.level;
        self.level = to;
        self.level_changes += 1;
        Some(LevelChange {
            from,
            to,
            score_pct: self.score_pct(),
        })
    }

    /// Classifies the current score with hysteresis: escalation uses the
    /// configured thresholds, de-escalation requires the score to drop a
    /// quarter below them, so a borderline score cannot flap the level.
    fn classify(&self) -> PressureLevel {
        let s = self.score_milli;
        let up_thrash = self.cfg.thrashing_pct.saturating_mul(SCORE_MILLI_PER_PCT);
        let up_elev = self.cfg.elevated_pct.saturating_mul(SCORE_MILLI_PER_PCT);
        let down_thrash = up_thrash - up_thrash / 4;
        let down_elev = up_elev - up_elev / 4;
        match self.level {
            PressureLevel::Thrashing => {
                if s >= down_thrash {
                    PressureLevel::Thrashing
                } else if s >= down_elev {
                    PressureLevel::Elevated
                } else {
                    PressureLevel::Normal
                }
            }
            PressureLevel::Elevated => {
                if s >= up_thrash {
                    PressureLevel::Thrashing
                } else if s >= down_elev {
                    PressureLevel::Elevated
                } else {
                    PressureLevel::Normal
                }
            }
            PressureLevel::Normal => {
                if s >= up_thrash {
                    PressureLevel::Thrashing
                } else if s >= up_elev {
                    PressureLevel::Elevated
                } else {
                    PressureLevel::Normal
                }
            }
        }
    }

    /// Cumulative statistics for the run report. The prefetch-window
    /// resize count lives in the DeepUM driver and is merged there.
    pub fn stats(&self) -> PressureStats {
        PressureStats {
            level: self.level,
            refaults: self.refaults,
            cooldown_skips: self.cooldown_skips,
            level_changes: self.level_changes,
            window_resizes: 0,
            peak_score_pct: self.peak_score_milli / SCORE_MILLI_PER_PCT,
        }
    }

    /// Serializes the full governor state (config included) into `w`.
    pub fn encode_into(&self, w: &mut SnapshotWriter) {
        w.u64(self.cfg.refault_window);
        w.u64(self.cfg.cooldown_kernels);
        w.u32(self.cfg.ewma_shift);
        w.u64(self.cfg.elevated_pct);
        w.u64(self.cfg.thrashing_pct);
        w.u64(self.kernel_clock);
        w.u64(self.window_demands);
        w.u64(self.window_refaults);
        w.u64(self.score_milli);
        w.u64(self.peak_score_milli);
        w.u8(level_tag(self.level));
        w.u64(self.refaults);
        w.u64(self.cooldown_skips);
        w.u64(self.level_changes);
        w.u64(u64_from_usize(self.evicted_at.len()));
        for (block, stamp) in &self.evicted_at {
            w.block(*block);
            w.u64(*stamp);
        }
        w.u64(u64_from_usize(self.cooldown_until.len()));
        for (block, until) in &self.cooldown_until {
            w.block(*block);
            w.u64(*until);
        }
        w.u64(u64_from_usize(self.inflight.len()));
        for block in &self.inflight {
            w.block(*block);
        }
    }

    /// Reconstructs a governor encoded by [`PressureGovernor::encode_into`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from decoding, including
    /// [`SnapshotError::Corrupt`] for an unknown level tag.
    pub fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let cfg = PressureConfig {
            refault_window: r.u64()?,
            cooldown_kernels: r.u64()?,
            ewma_shift: r.u32()?,
            elevated_pct: r.u64()?,
            thrashing_pct: r.u64()?,
        };
        let mut g = PressureGovernor::new(cfg);
        g.kernel_clock = r.u64()?;
        g.window_demands = r.u64()?;
        g.window_refaults = r.u64()?;
        g.score_milli = r.u64()?;
        g.peak_score_milli = r.u64()?;
        g.level = level_from_tag(r.u8()?)?;
        g.refaults = r.u64()?;
        g.cooldown_skips = r.u64()?;
        g.level_changes = r.u64()?;
        let n = r.len_prefix(16)?;
        for _ in 0..n {
            let block = r.block()?;
            let stamp = r.u64()?;
            g.evicted_at.insert(block, stamp);
        }
        let n = r.len_prefix(16)?;
        for _ in 0..n {
            let block = r.block()?;
            let until = r.u64()?;
            g.cooldown_until.insert(block, until);
        }
        let n = r.len_prefix(8)?;
        for _ in 0..n {
            g.inflight.insert(r.block()?);
        }
        Ok(g)
    }
}

fn level_tag(level: PressureLevel) -> u8 {
    match level {
        PressureLevel::Normal => 0,
        PressureLevel::Elevated => 1,
        PressureLevel::Thrashing => 2,
    }
}

fn level_from_tag(tag: u8) -> Result<PressureLevel, SnapshotError> {
    match tag {
        0 => Ok(PressureLevel::Normal),
        1 => Ok(PressureLevel::Elevated),
        2 => Ok(PressureLevel::Thrashing),
        // deepum-tidy: allow(hot-path-alloc) -- error path: formats only on a malformed snapshot
        other => Err(SnapshotError::Corrupt(format!(
            "unknown pressure level tag {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(n: u64) -> BlockNum {
        BlockNum::new(n)
    }

    #[test]
    fn refault_requires_the_window() {
        let cfg = PressureConfig {
            refault_window: 2,
            ..PressureConfig::default()
        };
        let mut g = PressureGovernor::new(cfg);
        g.note_eviction(b(1));
        g.end_kernel();
        g.end_kernel();
        // Two kernels later: still inside the window of 2.
        assert!(g.note_demand_arrival(b(1)));

        g.note_eviction(b(2));
        g.end_kernel();
        g.end_kernel();
        g.end_kernel();
        // Three kernels later: outside the window.
        assert!(!g.note_demand_arrival(b(2)));
    }

    #[test]
    fn prefetch_arrival_clears_the_stamp() {
        let mut g = PressureGovernor::new(PressureConfig::default());
        g.note_eviction(b(1));
        g.note_prefetch_arrival(b(1));
        assert!(!g.note_demand_arrival(b(1)), "prefetch beat the fault");
    }

    #[test]
    fn cooldown_expires_after_configured_kernels() {
        let cfg = PressureConfig {
            cooldown_kernels: 2,
            ..PressureConfig::default()
        };
        let mut g = PressureGovernor::new(cfg);
        g.note_eviction(b(1));
        assert!(g.note_demand_arrival(b(1)));
        assert!(g.in_cooldown(b(1)));
        assert_eq!(g.cooldown_remaining(b(1)), 2);
        g.end_kernel();
        assert!(g.in_cooldown(b(1)));
        g.end_kernel();
        assert!(!g.in_cooldown(b(1)));
        assert_eq!(g.cooldown_remaining(b(1)), 0);
    }

    #[test]
    fn pins_release_on_kernel_retire() {
        let mut g = PressureGovernor::new(PressureConfig::default());
        g.pin_inflight(b(4));
        g.note_demand_arrival(b(5));
        assert!(g.is_pinned(b(4)));
        assert!(g.is_pinned(b(5)));
        g.end_kernel();
        assert!(!g.is_pinned(b(4)));
        assert!(!g.is_pinned(b(5)));
    }

    #[test]
    fn sustained_refaults_escalate_then_hysteresis_deescalates() {
        let cfg = PressureConfig {
            elevated_pct: 15,
            thrashing_pct: 35,
            ewma_shift: 2,
            ..PressureConfig::default()
        };
        let mut g = PressureGovernor::new(cfg);
        // Every kernel: two arrivals, both refaults (100% sample). With
        // shift 2 the score steps 0 → 25% → 43.75% → …, crossing the
        // Elevated band before Thrashing.
        let mut saw_elevated = false;
        for k in 0..8u64 {
            for i in 0..2u64 {
                let block = b(100 + 2 * k + i);
                g.note_eviction(block);
                assert!(g.note_demand_arrival(block));
            }
            if let Some(change) = g.end_kernel() {
                if change.to == PressureLevel::Elevated {
                    saw_elevated = true;
                }
            }
        }
        assert!(saw_elevated, "score must pass through Elevated");
        assert_eq!(g.level(), PressureLevel::Thrashing);
        assert!(g.score_pct() > 35);

        // Quiet kernels decay the score; hysteresis keeps Thrashing
        // until the score falls a quarter below the threshold.
        let mut transitions = Vec::new();
        for _ in 0..16 {
            if let Some(change) = g.end_kernel() {
                transitions.push((change.from, change.to));
            }
        }
        assert_eq!(g.level(), PressureLevel::Normal);
        assert!(transitions
            .iter()
            .any(|&(from, _)| from == PressureLevel::Thrashing));
        let stats = g.stats();
        assert_eq!(stats.refaults, 16);
        assert!(stats.level_changes >= 3);
        assert!(stats.peak_score_pct > 35);
    }

    #[test]
    fn quiet_kernels_keep_normal_level() {
        let mut g = PressureGovernor::new(PressureConfig::default());
        for n in 0..20u64 {
            g.note_demand_arrival(b(n));
            assert_eq!(g.end_kernel(), None);
        }
        assert_eq!(g.level(), PressureLevel::Normal);
        assert_eq!(g.stats().refaults, 0);
    }

    #[test]
    fn codec_round_trips_mid_thrash() {
        let cfg = PressureConfig {
            ewma_shift: 1,
            ..PressureConfig::default()
        };
        let mut g = PressureGovernor::new(cfg);
        for k in 0..6u64 {
            let block = b(k);
            g.note_eviction(block);
            g.note_demand_arrival(block);
            g.end_kernel();
        }
        g.note_eviction(b(40));
        g.note_demand_arrival(b(40));
        g.pin_inflight(b(41));

        let mut w = SnapshotWriter::new();
        g.encode_into(&mut w);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).expect("valid envelope");
        let back = PressureGovernor::decode_from(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        assert_eq!(back, g);

        // Re-encoding the decoded governor is byte-identical.
        let mut w2 = SnapshotWriter::new();
        back.encode_into(&mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn bad_level_tag_is_corrupt() {
        let g = PressureGovernor::new(PressureConfig::default());
        let mut w = SnapshotWriter::new();
        g.encode_into(&mut w);
        let mut bytes = w.finish();
        // The level tag is the byte right after five config fields
        // (8+8+4+8+8) and five state words (8*5) past the 12-byte
        // header. Corrupt it and re-seal.
        let tag_at = 12 + 36 + 40;
        bytes.truncate(bytes.len() - 8);
        bytes[tag_at] = 9;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in &bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        bytes.extend_from_slice(&hash.to_le_bytes());
        let mut r = SnapshotReader::new(&bytes).expect("valid envelope");
        assert!(matches!(
            PressureGovernor::decode_from(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
