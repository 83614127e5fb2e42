//! Multi-generation, corruption-tolerant checkpoint storage (DESIGN.md
//! §18).
//!
//! The single-checkpoint protocol of DESIGN.md §11 trusts its one stored
//! image completely: a torn write during the checkpoint store turns the
//! next hard fault into an unrecoverable run. This module replaces that
//! single trusted image with a bounded **generation ring**: every store
//! pushes a new [`Generation`] to the front and the oldest beyond the
//! ring depth falls off. Restore walks the ring newest-first; a
//! generation whose image fails validation (the snapshot envelope's
//! checksum is verified before a single field is decoded) is skipped and
//! the next-older one is tried, at the price of replaying a
//! correspondingly longer launch journal. Only when *every* generation
//! fails does recovery surface the typed
//! [`RecoveryError::AllCheckpointsCorrupt`].
//!
//! The ring stores images as opaque bytes — it does not know the codec —
//! so the same structure serves the UM executor's composite checkpoints
//! and any future snapshot producer. Corruption is injected at *store*
//! time (`deepum_sim::faultinject::CkptCorruption` models torn writes,
//! truncation, and bit flips of the persisted image) and detected at
//! *restore* time, exactly like real durable storage.

use core::fmt;

/// Default number of checkpoint generations retained.
pub const DEFAULT_RING_DEPTH: usize = 3;

/// One stored checkpoint generation.
///
/// `image` is the durable part — the serialized snapshot envelope, the
/// bytes a torn write would damage. `extra` carries state that is
/// deliberately *not* durable (e.g. the fault injector's transient
/// slice, which models in-flight hardware state rather than persisted
/// data). `journal_mark` is the kernel-launch sequence number at store
/// time: restoring this generation replays every journaled launch with
/// `seq >= journal_mark`.
#[derive(Debug, Clone)]
pub struct Generation<T> {
    /// Serialized snapshot image (possibly damaged in storage).
    pub image: Vec<u8>,
    /// Kernel-launch sequence number at store time.
    pub journal_mark: u64,
    /// Non-durable sidecar state restored alongside the image.
    pub extra: T,
}

/// Why a multi-generation restore could not produce a usable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// A hard fault fired before the first checkpoint was stored.
    NoCheckpoint,
    /// Every retained generation failed validation or decode.
    AllCheckpointsCorrupt {
        /// Generations tried (the ring's occupancy at restore time).
        generations: u64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NoCheckpoint => {
                write!(f, "hard fault before the first checkpoint")
            }
            RecoveryError::AllCheckpointsCorrupt { generations } => write!(
                f,
                "all {generations} retained checkpoint generation(s) are corrupt"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Bounded ring of checkpoint generations, newest first.
#[derive(Debug, Clone)]
pub struct CheckpointRing<T> {
    /// Newest generation at index 0.
    generations: Vec<Generation<T>>,
    depth: usize,
}

impl<T> CheckpointRing<T> {
    /// Creates a ring retaining up to `depth` generations (minimum 1).
    pub fn new(depth: usize) -> Self {
        CheckpointRing {
            // deepum-tidy: allow(hot-path-alloc) -- constructor, runs once per run; an empty Vec does not allocate
            generations: Vec::new(),
            depth: depth.max(1),
        }
    }

    /// Maximum generations retained.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Generations currently stored.
    pub fn len(&self) -> usize {
        self.generations.len()
    }

    /// True when no checkpoint has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.generations.is_empty()
    }

    /// Stores a new generation as the newest, dropping the oldest when
    /// the ring is full.
    pub fn store(&mut self, generation: Generation<T>) {
        self.generations.insert(0, generation);
        self.generations.truncate(self.depth);
    }

    /// The retained generations, newest first.
    pub fn iter(&self) -> impl Iterator<Item = &Generation<T>> {
        self.generations.iter()
    }

    /// The oldest retained generation's journal mark — the journal may
    /// evict every entry with a smaller launch sequence number, since no
    /// restore can ever need it again.
    pub fn oldest_mark(&self) -> Option<u64> {
        self.generations.last().map(|g| g.journal_mark)
    }

    /// Walks the ring newest-first, calling `attempt` on each generation
    /// until one restores. Returns the zero-based generation index that
    /// succeeded (0 = newest) and the closure's result;
    /// [`RecoveryError::NoCheckpoint`] on an empty ring;
    /// [`RecoveryError::AllCheckpointsCorrupt`] when every attempt
    /// returned an error. `on_corrupt` observes each failed generation
    /// index (for tracing) before the next-older one is tried.
    pub fn restore_with<R, E>(
        &self,
        mut attempt: impl FnMut(&Generation<T>) -> Result<R, E>,
        mut on_corrupt: impl FnMut(u64, &E),
    ) -> Result<(u64, R), RecoveryError> {
        if self.generations.is_empty() {
            return Err(RecoveryError::NoCheckpoint);
        }
        for (i, generation) in self.generations.iter().enumerate() {
            let index = deepum_mem::u64_from_usize(i);
            match attempt(generation) {
                Ok(r) => return Ok((index, r)),
                Err(e) => on_corrupt(index, &e),
            }
        }
        Err(RecoveryError::AllCheckpointsCorrupt {
            generations: deepum_mem::u64_from_usize(self.generations.len()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generation(tag: u8, mark: u64) -> Generation<u8> {
        Generation {
            image: vec![tag; 4],
            journal_mark: mark,
            extra: tag,
        }
    }

    #[test]
    fn ring_retains_newest_depth_generations() {
        let mut ring = CheckpointRing::new(3);
        for i in 0..5u8 {
            ring.store(generation(i, u64::from(i)));
        }
        assert_eq!(ring.len(), 3);
        let tags: Vec<u8> = ring.iter().map(|g| g.extra).collect();
        assert_eq!(tags, vec![4, 3, 2]);
        assert_eq!(ring.oldest_mark(), Some(2));
    }

    #[test]
    fn depth_is_clamped_to_one() {
        let mut ring = CheckpointRing::new(0);
        ring.store(generation(1, 0));
        ring.store(generation(2, 1));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.iter().next().map(|g| g.extra), Some(2));
    }

    #[test]
    fn restore_prefers_the_newest_generation() {
        let mut ring = CheckpointRing::new(3);
        ring.store(generation(1, 10));
        ring.store(generation(2, 20));
        let (index, tag) = ring
            .restore_with(|g| Ok::<u8, ()>(g.extra), |_, _| {})
            .expect("restores");
        assert_eq!((index, tag), (0, 2));
    }

    #[test]
    fn restore_falls_back_past_corrupt_generations() {
        let mut ring = CheckpointRing::new(3);
        ring.store(generation(1, 10));
        ring.store(generation(2, 20));
        ring.store(generation(3, 30));
        let mut corrupt_seen = Vec::new();
        let (index, tag) = ring
            .restore_with(
                |g| {
                    if g.extra == 3 || g.extra == 2 {
                        Err("checksum mismatch")
                    } else {
                        Ok(g.extra)
                    }
                },
                |i, _| corrupt_seen.push(i),
            )
            .expect("oldest generation restores");
        assert_eq!((index, tag), (2, 1));
        assert_eq!(corrupt_seen, vec![0, 1]);
    }

    #[test]
    fn all_corrupt_is_a_typed_error() {
        let mut ring = CheckpointRing::new(2);
        ring.store(generation(1, 0));
        ring.store(generation(2, 1));
        let err = ring
            .restore_with(|_| Err::<(), _>("damaged"), |_, _| {})
            .unwrap_err();
        assert_eq!(err, RecoveryError::AllCheckpointsCorrupt { generations: 2 });
    }

    #[test]
    fn empty_ring_reports_no_checkpoint() {
        let ring: CheckpointRing<()> = CheckpointRing::new(3);
        let err = ring
            .restore_with(|_| Ok::<(), ()>(()), |_, _| {})
            .unwrap_err();
        assert_eq!(err, RecoveryError::NoCheckpoint);
    }
}
