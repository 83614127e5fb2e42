//! Device page-frame wear: the ECC-retirement blacklist and the usable
//! frame-extent map behind the driver's live capacity shrink.
//!
//! Production GPUs retire page frames on uncorrectable ECC errors: the
//! frame is blacklisted in the InfoROM and the device simply has less
//! memory from then on. [`DeviceWear`] models that as two disjoint
//! extent lists over the frame space `[0, initial_pages)`:
//!
//! * `usable` — frames the driver may still map; its page count *is*
//!   the driver's effective `capacity_pages`;
//! * `retired` — the blacklist; frames in it never come back, not even
//!   across checkpoint restores (recovery rewinds learned state, not
//!   hardware faults).
//!
//! Both lists are kept sorted, coalesced, and mutually disjoint; their
//! page counts always sum to `initial_pages`. [`DeviceWear::validate`]
//! re-proves those properties from scratch and is folded into
//! `UmDriver::validate`, so every fault-drain validation also proves
//! that no live extent overlaps the blacklist.

/// Extent map of a wearing device's page frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceWear {
    /// Frame count at construction, before any retirement.
    initial_pages: u64,
    /// Usable frame extents `[start, end)`, sorted and coalesced.
    usable: Vec<(u64, u64)>,
    /// Retired (blacklisted) frame extents, sorted and coalesced.
    retired: Vec<(u64, u64)>,
    /// Pages live-migrated off the device because a frame retired or
    /// the shrunk capacity no longer held them.
    remigrated_pages: u64,
}

impl DeviceWear {
    /// A pristine device of `pages` frames: one usable extent, an empty
    /// blacklist.
    pub fn new(pages: u64) -> Self {
        let usable = if pages > 0 {
            // deepum-tidy: allow(hot-path-alloc) -- constructor, runs once per run
            vec![(0, pages)]
        } else {
            // deepum-tidy: allow(hot-path-alloc) -- constructor, runs once per run; an empty Vec does not allocate
            Vec::new()
        };
        DeviceWear {
            initial_pages: pages,
            usable,
            // deepum-tidy: allow(hot-path-alloc) -- constructor, runs once per run; an empty Vec does not allocate
            retired: Vec::new(),
            remigrated_pages: 0,
        }
    }

    /// Rebuilds a wear map from snapshot parts: the initial frame count
    /// and the retired extents; the usable list is the complement.
    ///
    /// # Errors
    ///
    /// Returns a description when the retired extents are unsorted,
    /// overlapping, empty, or out of `[0, initial_pages)`.
    pub fn from_parts(
        initial_pages: u64,
        retired: Vec<(u64, u64)>,
        remigrated_pages: u64,
    ) -> Result<Self, String> {
        let mut usable = Vec::with_capacity(retired.len() + 1);
        let mut cursor = 0u64;
        for &(start, end) in &retired {
            if start >= end {
                // deepum-tidy: allow(hot-path-alloc) -- error path: formats only on a malformed snapshot
                return Err(format!("empty or inverted retired extent [{start}, {end})"));
            }
            if start < cursor {
                // deepum-tidy: allow(hot-path-alloc) -- error path: formats only on a malformed snapshot
                return Err(format!(
                    "retired extent [{start}, {end}) unsorted or overlapping at frame {cursor}"
                ));
            }
            if end > initial_pages {
                // deepum-tidy: allow(hot-path-alloc) -- error path: formats only on a malformed snapshot
                return Err(format!(
                    "retired extent [{start}, {end}) beyond device end {initial_pages}"
                ));
            }
            if cursor < start {
                usable.push((cursor, start));
            }
            cursor = end;
        }
        if cursor < initial_pages {
            usable.push((cursor, initial_pages));
        }
        let wear = DeviceWear {
            initial_pages,
            usable,
            retired,
            remigrated_pages,
        };
        wear.validate()?;
        Ok(wear)
    }

    /// Frame count at construction, before any retirement.
    pub fn initial_pages(&self) -> u64 {
        self.initial_pages
    }

    /// Frames still usable — the device's effective capacity in pages.
    pub fn usable_pages(&self) -> u64 {
        self.usable.iter().map(|&(s, e)| e - s).sum()
    }

    /// Frames on the blacklist.
    pub fn retired_pages(&self) -> u64 {
        self.retired.iter().map(|&(s, e)| e - s).sum()
    }

    /// True when no frame was ever retired: the wear machinery is then
    /// absence-of-code for reports and snapshots.
    pub fn is_pristine(&self) -> bool {
        self.retired.is_empty() && self.remigrated_pages == 0
    }

    /// The blacklisted extents, sorted and coalesced.
    pub fn retired_extents(&self) -> &[(u64, u64)] {
        &self.retired
    }

    /// Pages live-migrated off the device so far.
    pub fn remigrated_pages(&self) -> u64 {
        self.remigrated_pages
    }

    /// Records `n` pages live-migrated off the device.
    pub fn note_remigrated(&mut self, n: u64) {
        self.remigrated_pages = self.remigrated_pages.saturating_add(n);
    }

    /// The concrete frame number of the usable frame with rank `rank`
    /// (0-based, in frame order), or `None` when `rank` is out of
    /// range. Retirement sampling draws a rank so the distribution
    /// stays uniform over *usable* frames as the blacklist grows.
    pub fn frame_at_rank(&self, rank: u64) -> Option<u64> {
        let mut remaining = rank;
        for &(start, end) in &self.usable {
            let len = end - start;
            if remaining < len {
                return Some(start + remaining);
            }
            remaining -= len;
        }
        None
    }

    /// True when `frame` is on the blacklist.
    pub fn is_retired(&self, frame: u64) -> bool {
        self.retired.iter().any(|&(s, e)| frame >= s && frame < e)
    }

    /// True when `frame` is in the usable extent list.
    pub fn is_usable(&self, frame: u64) -> bool {
        self.usable.iter().any(|&(s, e)| frame >= s && frame < e)
    }

    /// Moves `frame` from the usable list to the blacklist. Returns
    /// `false` (and changes nothing) when the frame is not usable —
    /// already retired or out of range.
    pub fn retire_frame(&mut self, frame: u64) -> bool {
        let Some(idx) = self
            .usable
            .iter()
            .position(|&(s, e)| frame >= s && frame < e)
        else {
            return false;
        };
        let (start, end) = self.usable.remove(idx);
        // Split the usable extent around the retired frame.
        if frame + 1 < end {
            self.usable.insert(idx, (frame + 1, end));
        }
        if start < frame {
            self.usable.insert(idx, (start, frame));
        }
        // Insert into the blacklist, coalescing with neighbours.
        let pos = self
            .retired
            .iter()
            .position(|&(s, _)| s > frame)
            .unwrap_or(self.retired.len());
        self.retired.insert(pos, (frame, frame + 1));
        if pos + 1 < self.retired.len() {
            let merge = match (self.retired.get(pos), self.retired.get(pos + 1)) {
                (Some(&(_, e)), Some(&(ns, _))) => e == ns,
                _ => false,
            };
            if merge {
                let (_, next_end) = self.retired.remove(pos + 1);
                if let Some(cur) = self.retired.get_mut(pos) {
                    cur.1 = next_end;
                }
            }
        }
        if pos > 0 {
            let merge = match (self.retired.get(pos - 1), self.retired.get(pos)) {
                (Some(&(_, pe)), Some(&(cs, _))) => pe == cs,
                _ => false,
            };
            if merge {
                let (_, cur_end) = self.retired.remove(pos);
                if let Some(prev) = self.retired.get_mut(pos - 1) {
                    prev.1 = cur_end;
                }
            }
        }
        true
    }

    /// Re-proves the wear invariants from scratch: both extent lists
    /// sorted, coalesced, non-empty per extent, within the device,
    /// mutually disjoint, and jointly covering exactly `initial_pages`
    /// frames.
    ///
    /// # Errors
    ///
    /// Returns the first violation as a human-readable description.
    pub fn validate(&self) -> Result<(), String> {
        for (name, list) in [("usable", &self.usable), ("retired", &self.retired)] {
            let mut prev_end = None;
            for &(start, end) in list {
                if start >= end {
                    // deepum-tidy: allow(hot-path-alloc) -- error path of validate(): formats only once an invariant is broken
                    return Err(format!(
                        "{name} extent [{start}, {end}) is empty or inverted"
                    ));
                }
                if end > self.initial_pages {
                    // deepum-tidy: allow(hot-path-alloc) -- error path of validate(): formats only once an invariant is broken
                    return Err(format!(
                        "{name} extent [{start}, {end}) beyond device end {}",
                        self.initial_pages
                    ));
                }
                if let Some(pe) = prev_end {
                    if start < pe {
                        // deepum-tidy: allow(hot-path-alloc) -- error path of validate(): formats only once an invariant is broken
                        return Err(format!(
                            "{name} extent [{start}, {end}) overlaps or precedes previous end {pe}"
                        ));
                    }
                    if name == "retired" && start == pe {
                        // deepum-tidy: allow(hot-path-alloc) -- error path of validate(): formats only once an invariant is broken
                        return Err(format!("retired extents not coalesced at frame {start}"));
                    }
                }
                prev_end = Some(end);
            }
        }
        // Disjointness: every retired extent must be absent from the
        // usable list — the blacklist/extent-exclusion proof.
        for &(rs, re) in &self.retired {
            if self.usable.iter().any(|&(us, ue)| rs < ue && us < re) {
                // deepum-tidy: allow(hot-path-alloc) -- error path of validate(): formats only once an invariant is broken
                return Err(format!(
                    "retired extent [{rs}, {re}) overlaps a usable extent"
                ));
            }
        }
        let usable = self.usable_pages();
        let retired = self.retired_pages();
        if usable + retired != self.initial_pages {
            // deepum-tidy: allow(hot-path-alloc) -- error path of validate(): formats only once an invariant is broken
            return Err(format!(
                "usable {usable} + retired {retired} frames != initial {}",
                self.initial_pages
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_device_has_full_capacity() {
        let w = DeviceWear::new(100);
        assert!(w.is_pristine());
        assert_eq!(w.usable_pages(), 100);
        assert_eq!(w.retired_pages(), 0);
        assert_eq!(w.frame_at_rank(0), Some(0));
        assert_eq!(w.frame_at_rank(99), Some(99));
        assert_eq!(w.frame_at_rank(100), None);
        w.validate().unwrap();
    }

    #[test]
    fn retiring_splits_usable_and_coalesces_blacklist() {
        let mut w = DeviceWear::new(10);
        assert!(w.retire_frame(4));
        assert!(w.retire_frame(6));
        assert!(w.retire_frame(5));
        assert_eq!(w.retired_extents(), &[(4, 7)]);
        assert_eq!(w.usable_pages(), 7);
        assert!(!w.is_usable(5));
        assert!(w.is_retired(5));
        assert!(!w.retire_frame(5)); // already retired
        assert!(!w.retire_frame(10)); // out of range
        w.validate().unwrap();
        // Rank addressing skips the blacklisted hole.
        assert_eq!(w.frame_at_rank(3), Some(3));
        assert_eq!(w.frame_at_rank(4), Some(7));
        assert_eq!(w.frame_at_rank(6), Some(9));
        assert_eq!(w.frame_at_rank(7), None);
    }

    #[test]
    fn edge_frames_retire_cleanly() {
        let mut w = DeviceWear::new(4);
        assert!(w.retire_frame(0));
        assert!(w.retire_frame(3));
        assert_eq!(w.retired_extents(), &[(0, 1), (3, 4)]);
        assert_eq!(w.usable_pages(), 2);
        assert_eq!(w.frame_at_rank(0), Some(1));
        w.validate().unwrap();
        assert!(w.retire_frame(1));
        assert!(w.retire_frame(2));
        assert_eq!(w.retired_extents(), &[(0, 4)]);
        assert_eq!(w.usable_pages(), 0);
        w.validate().unwrap();
    }

    #[test]
    fn from_parts_rebuilds_the_complement() {
        let mut w = DeviceWear::new(32);
        for f in [3, 9, 10, 31] {
            assert!(w.retire_frame(f));
        }
        w.note_remigrated(5);
        let back = DeviceWear::from_parts(
            w.initial_pages(),
            w.retired_extents().to_vec(),
            w.remigrated_pages(),
        )
        .unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn from_parts_rejects_malformed_extents() {
        assert!(DeviceWear::from_parts(10, vec![(5, 5)], 0).is_err());
        assert!(DeviceWear::from_parts(10, vec![(6, 4)], 0).is_err());
        assert!(DeviceWear::from_parts(10, vec![(4, 6), (5, 7)], 0).is_err());
        assert!(DeviceWear::from_parts(10, vec![(8, 12)], 0).is_err());
        assert!(DeviceWear::from_parts(10, vec![(4, 6), (1, 2)], 0).is_err());
    }

    #[test]
    fn validate_catches_planted_overlap() {
        let mut w = DeviceWear::new(8);
        assert!(w.retire_frame(2));
        // Plant a violation directly.
        w.usable = vec![(0, 8)];
        assert!(w.validate().is_err());
    }
}
