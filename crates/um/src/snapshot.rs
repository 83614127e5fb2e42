//! Versioned, checksummed, serde-free binary snapshots of driver state.
//!
//! The crash-recovery protocol (DESIGN.md §11) periodically checkpoints
//! the simulated UM stack so a hard fault — device reset, driver crash —
//! can restore the last consistent state and replay forward. Snapshots
//! use a hand-rolled binary codec rather than the serde shim because the
//! format must be (a) byte-stable across runs (the recovery proptests
//! compare snapshots byte-for-byte), (b) self-validating (a snapshot
//! that survived a crash may itself be damaged), and (c) versioned so a
//! snapshot from any other layout is rejected, not misparsed. Images
//! never leave the process, so there is exactly one layout: readers
//! accept [`SNAPSHOT_VERSION`] and nothing else.
//!
//! # Envelope layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"DUMSNAP\0"
//! 8       4     version (u32 LE)
//! 12      n     payload (codec-defined, all integers u64/u32 LE)
//! 12+n    8     FNV-1a-64 checksum (u64 LE) over bytes [0, 12+n)
//! ```
//!
//! [`SnapshotWriter`] builds the envelope; [`SnapshotReader`] verifies
//! magic, version, and checksum *before* any field is decoded, so a
//! corrupt snapshot fails loudly with [`SnapshotError`] instead of
//! reconstructing garbage state. Every decode path is panic-free: bad
//! input can only produce an error value.

use core::fmt;

use deepum_mem::{BlockNum, PageMask, TenantId};
use deepum_sim::metrics::Counters;
use deepum_sim::time::Ns;

use crate::block::BlockState;
use crate::driver::UmDriver;
use crate::evict::LruMigrated;

/// Leading magic of every snapshot envelope.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DUMSNAP\0";

/// The snapshot format version. Bump on any payload layout change;
/// readers reject every other version instead of misparsing it.
pub const SNAPSHOT_VERSION: u32 = 5;

const HEADER_LEN: usize = 12; // magic + version
const TRAILER_LEN: usize = 8; // checksum

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The snapshot was written by a different format version.
    BadVersion {
        /// Version found in the envelope.
        found: u32,
    },
    /// The checksum trailer does not match the envelope contents.
    ChecksumMismatch {
        /// Checksum recorded in the trailer.
        expected: u64,
        /// Checksum computed over the envelope.
        found: u64,
    },
    /// The payload ended before a field could be read.
    Truncated,
    /// Decoding finished with payload bytes left over.
    TrailingBytes(usize),
    /// A field decoded, but its value is inconsistent with the state
    /// being restored (e.g. a capacity mismatch).
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot has bad magic"),
            SnapshotError::BadVersion { found } => write!(
                f,
                "snapshot version {found} is not the supported {SNAPSHOT_VERSION}"
            ),
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch: trailer {expected:#018x}, computed {found:#018x}"
            ),
            SnapshotError::Truncated => write!(f, "snapshot truncated mid-field"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} trailing payload bytes")
            }
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit over `bytes`. Dependency-free and byte-order stable;
/// this guards against torn or bit-flipped snapshots, not adversaries.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Builds one snapshot envelope. Field writers are infallible; the
/// checksum trailer is appended by [`SnapshotWriter::finish`].
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts an envelope at [`SNAPSHOT_VERSION`]: magic and version are
    /// written immediately.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        SnapshotWriter { buf }
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends an [`Ns`] as raw nanoseconds.
    pub fn ns(&mut self, v: Ns) {
        self.u64(v.as_nanos());
    }

    /// Appends a [`BlockNum`] as its raw index.
    pub fn block(&mut self, b: BlockNum) {
        self.u64(b.index());
    }

    /// Appends a [`PageMask`] as its eight backing words.
    pub fn mask(&mut self, m: &PageMask) {
        for word in m.to_words() {
            self.u64(word);
        }
    }

    /// Appends a length-prefixed opaque byte blob (e.g. a nested
    /// snapshot envelope embedded in a composite checkpoint image).
    pub fn blob(&mut self, bytes: &[u8]) {
        self.u64(deepum_mem::u64_from_usize(bytes.len()));
        self.buf.extend_from_slice(bytes);
    }

    /// Seals the envelope: computes the checksum over everything written
    /// and appends it as the trailer.
    pub fn finish(mut self) -> Vec<u8> {
        let checksum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        SnapshotWriter::new()
    }
}

/// Decodes one snapshot envelope. Construction verifies magic, version,
/// and checksum up front; field readers then walk the payload.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    /// Envelope bytes with the checksum trailer stripped.
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the envelope of `bytes` and positions the reader at the
    /// first payload byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the buffer is shorter than an
    /// empty envelope, [`SnapshotError::ChecksumMismatch`] /
    /// [`SnapshotError::BadMagic`] / [`SnapshotError::BadVersion`] for a
    /// damaged or foreign envelope.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let split = bytes.len() - TRAILER_LEN;
        let body = bytes.get(..split).ok_or(SnapshotError::Truncated)?;
        let trailer = bytes.get(split..).ok_or(SnapshotError::Truncated)?;
        let expected = u64::from_le_bytes(to_array8(trailer)?);
        let found = fnv1a64(body);
        if expected != found {
            return Err(SnapshotError::ChecksumMismatch { expected, found });
        }
        let magic = body.get(..8).ok_or(SnapshotError::Truncated)?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version_bytes = body.get(8..HEADER_LEN).ok_or(SnapshotError::Truncated)?;
        let version = u32::from_le_bytes(to_array4(version_bytes)?);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        Ok(SnapshotReader {
            buf: body,
            pos: HEADER_LEN,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than eight bytes remain.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(to_array8(self.take(8)?)?))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than four bytes remain.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(to_array4(self.take(4)?)?))
    }

    /// Reads a `u8`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    /// Reads a bool; any nonzero byte decodes as `true`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        Ok(self.u8()? != 0)
    }

    /// Reads an [`Ns`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than eight bytes remain.
    pub fn ns(&mut self) -> Result<Ns, SnapshotError> {
        Ok(Ns::from_nanos(self.u64()?))
    }

    /// Reads a [`BlockNum`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than eight bytes remain.
    pub fn block(&mut self) -> Result<BlockNum, SnapshotError> {
        Ok(BlockNum::new(self.u64()?))
    }

    /// Reads a [`PageMask`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than 64 bytes remain.
    pub fn mask(&mut self) -> Result<PageMask, SnapshotError> {
        let mut words = [0u64; 8];
        for w in &mut words {
            *w = self.u64()?;
        }
        Ok(PageMask::from_words(words))
    }

    /// Reads a length-prefixed byte blob written by
    /// [`SnapshotWriter::blob`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the prefix is missing,
    /// [`SnapshotError::Corrupt`] if the length exceeds the remaining
    /// payload.
    pub fn blob(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.len_prefix(1)?;
        self.take(len)
    }

    /// Reads a length prefix for a collection, bounds-checked against
    /// the bytes that could possibly remain so a corrupt count cannot
    /// drive a huge allocation.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the prefix is missing,
    /// [`SnapshotError::Corrupt`] if the count exceeds the remaining
    /// payload at `min_item_bytes` per item.
    pub fn len_prefix(&mut self, min_item_bytes: usize) -> Result<usize, SnapshotError> {
        let raw = self.u64()?;
        let remaining = self.buf.len().saturating_sub(self.pos);
        let max_items = remaining / min_item_bytes.max(1);
        if raw > deepum_mem::u64_from_usize(max_items) {
            return Err(SnapshotError::Corrupt(format!(
                "length prefix {raw} exceeds remaining payload ({remaining} bytes)"
            )));
        }
        // deepum-tidy: allow(cast-safety) -- raw <= max_items, which is a usize
        Ok(raw as usize)
    }

    /// Asserts the payload is fully consumed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TrailingBytes`] if bytes remain.
    pub fn finish(self) -> Result<(), SnapshotError> {
        let left = self.buf.len().saturating_sub(self.pos);
        if left != 0 {
            return Err(SnapshotError::TrailingBytes(left));
        }
        Ok(())
    }
}

fn to_array8(slice: &[u8]) -> Result<[u8; 8], SnapshotError> {
    let mut a = [0u8; 8];
    if slice.len() != a.len() {
        return Err(SnapshotError::Truncated);
    }
    a.copy_from_slice(slice);
    Ok(a)
}

fn to_array4(slice: &[u8]) -> Result<[u8; 4], SnapshotError> {
    let mut a = [0u8; 4];
    if slice.len() != a.len() {
        return Err(SnapshotError::Truncated);
    }
    a.copy_from_slice(slice);
    Ok(a)
}

/// Writes every [`Counters`] field in declaration order.
pub fn write_counters(c: &Counters, w: &mut SnapshotWriter) {
    for v in c.to_array() {
        w.u64(v);
    }
}

/// Reads the [`Counters`] fields written by [`write_counters`].
///
/// # Errors
///
/// [`SnapshotError::Truncated`] if the payload ends early.
pub fn read_counters(r: &mut SnapshotReader<'_>) -> Result<Counters, SnapshotError> {
    let mut values = [0u64; Counters::LEN];
    for v in &mut values {
        *v = r.u64()?;
    }
    Ok(Counters::from_array(values))
}

/// Writes one block record: index, full [`BlockState`], and the tenant
/// owner tag. The exhaustive destructuring makes this fail to
/// compile when `BlockState` grows a field, forcing the codec (and a
/// [`SNAPSHOT_VERSION`] bump) to keep up.
fn write_block_record(block: BlockNum, state: &BlockState, w: &mut SnapshotWriter) {
    let BlockState {
        resident,
        last_migrated,
        last_epoch,
        prefetched_untouched,
        invalidatable,
        host_valid,
        owner,
    } = state;
    w.block(block);
    w.mask(resident);
    w.ns(*last_migrated);
    w.u64(*last_epoch);
    w.mask(prefetched_untouched);
    w.mask(invalidatable);
    w.mask(host_valid);
    match owner {
        Some(t) => {
            w.bool(true);
            w.u32(t.raw());
        }
        None => w.bool(false),
    }
}

/// Reads one block record written by [`write_block_record`].
fn read_block_record(r: &mut SnapshotReader<'_>) -> Result<(BlockNum, BlockState), SnapshotError> {
    let block = r.block()?;
    let resident = r.mask()?;
    let last_migrated = r.ns()?;
    let last_epoch = r.u64()?;
    let prefetched_untouched = r.mask()?;
    let invalidatable = r.mask()?;
    let host_valid = r.mask()?;
    let owner = if r.bool()? {
        Some(TenantId(r.u32()?))
    } else {
        None
    };
    Ok((
        block,
        BlockState {
            resident,
            last_migrated,
            last_epoch,
            prefetched_untouched,
            invalidatable,
            host_valid,
            owner,
        },
    ))
}

/// Writes the [`UmDriver`] residency/LRU payload into `w`:
/// capacity, resident-page count, drain epochs, counters, and every
/// block's full [`BlockState`] in ascending block order. The LRU order
/// is *not* written: it is a function of the block states (`validate()`
/// pins LRU keys to `last_migrated`) and is rebuilt on restore.
///
/// A leading scope marker picks the form. `false` — whole-driver
/// snapshot. `true` — tenant-scoped: the driver has an active tenant
/// slot, so the snapshot captures only that tenant's blocks, counters,
/// and governor. A mid-slot checkpoint on a shared driver must not
/// capture (and, on restore, must not rewind) the co-tenants' state.
///
/// Both forms end with the device-wear section (ECC blacklist +
/// remigration tally), empty on a pristine device.
pub fn write_driver_state(d: &UmDriver, w: &mut SnapshotWriter) {
    if let Some(tid) = d.active_tenant() {
        w.bool(true);
        w.u64(d.capacity_pages);
        w.u32(tid.raw());
        w.u64(d.tenant_ledger(tid).map_or(0, |l| l.resident_pages));
        write_counters(&d.active_counters(), w);
        let owned: Vec<(BlockNum, &BlockState)> = d
            .blocks
            .iter()
            .filter(|(_, s)| s.owner == Some(tid))
            .collect();
        w.u64(deepum_mem::u64_from_usize(owned.len()));
        for (block, state) in owned {
            write_block_record(block, state, w);
        }
        match &d.pressure {
            Some(g) => {
                w.bool(true);
                g.encode_into(w);
            }
            None => w.bool(false),
        }
        write_wear_section(d, w);
        return;
    }
    w.bool(false);
    w.u64(d.capacity_pages);
    w.u64(d.resident_pages);
    w.u64(d.migrate_epoch);
    w.ns(d.epoch_now);
    write_counters(&d.counters, w);
    w.u64(deepum_mem::u64_from_usize(d.blocks.len()));
    for (block, state) in d.blocks.iter() {
        write_block_record(block, state, w);
    }
    // Optional pressure-governor state (config + full bookkeeping), so a
    // restore resumes thrash detection exactly where it crashed.
    match &d.pressure {
        Some(g) => {
            w.bool(true);
            g.encode_into(w);
        }
        None => w.bool(false),
    }
    write_wear_section(d, w);
}

/// Writes the device-wear section: initial frame count, remigration
/// tally, and the retired (blacklisted) extents.
fn write_wear_section(d: &UmDriver, w: &mut SnapshotWriter) {
    let wear = d.wear();
    w.u64(wear.initial_pages());
    w.u64(wear.remigrated_pages());
    w.u64(deepum_mem::u64_from_usize(wear.retired_extents().len()));
    for &(start, end) in wear.retired_extents() {
        w.u64(start);
        w.u64(end);
    }
}

/// Reads the device-wear section and reconciles it against the
/// driver's live wear state. Retirement is monotone hardware truth and
/// is never rewound by a restore: the result is the *union* of the two
/// blacklists — frames retired after the checkpoint stay retired, and a
/// restore onto a fresh driver (tests, cold standby) adopts the
/// snapshot's blacklist. The device identity (initial frame count) must
/// match; effective capacity is recomputed from the merged map.
fn read_wear_section(d: &mut UmDriver, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
    let initial_pages = r.u64()?;
    let remigrated = r.u64()?;
    let extents = r.len_prefix(16)?;
    let mut retired = Vec::with_capacity(extents);
    for _ in 0..extents {
        let start = r.u64()?;
        let end = r.u64()?;
        retired.push((start, end));
    }
    let snap = crate::wear::DeviceWear::from_parts(initial_pages, retired, remigrated)
        .map_err(SnapshotError::Corrupt)?;
    if snap.initial_pages() != d.wear.initial_pages() {
        return Err(SnapshotError::Corrupt(format!(
            "snapshot device has {} initial frames, driver has {}",
            snap.initial_pages(),
            d.wear.initial_pages()
        )));
    }
    for &(start, end) in snap.retired_extents() {
        for frame in start..end {
            if d.wear.is_usable(frame) {
                d.wear.retire_frame(frame);
            }
        }
    }
    d.capacity_pages = d.wear.usable_pages();
    // The remigration tally is monotone too: keep whichever side has
    // seen more (the live driver on an in-place recovery, the snapshot
    // on a fresh-driver restore).
    let seen = d.wear.remigrated_pages();
    if seen < snap.remigrated_pages() {
        d.wear.note_remigrated(snap.remigrated_pages() - seen);
    }
    Ok(())
}

/// Spills least-recently-migrated blocks to the host until residency
/// fits the (possibly shrunk-since-checkpoint) device. Restore-time
/// analogue of the driver's live remigration: the host copy becomes the
/// valid one and the pages refault on demand after recovery.
fn spill_restore_overflow(d: &mut UmDriver) -> Result<(), SnapshotError> {
    while d.resident_pages > d.capacity_pages {
        let Some((key, block)) = d.lru.iter().next() else {
            return Err(SnapshotError::Corrupt(format!(
                "{} resident pages exceed worn capacity {} with an empty LRU",
                d.resident_pages, d.capacity_pages
            )));
        };
        let Some(state) = d.blocks.get_mut(block) else {
            return Err(SnapshotError::Corrupt(format!(
                "{block} in LRU but absent from the block table"
            )));
        };
        let pages = state.resident.count_u64();
        if pages == 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{block} in LRU with no resident pages"
            )));
        }
        let owner = state.owner;
        state.host_valid.union_with(&state.resident);
        state.resident = PageMask::empty();
        state.prefetched_untouched = PageMask::empty();
        d.lru.remove(block, key);
        d.resident_pages -= pages;
        d.wear.note_remigrated(pages);
        if let Some(t) = d.tenancy.as_mut() {
            if let Some(l) = owner.and_then(|o| t.tenants.get_mut(&o)) {
                l.resident_pages = l.resident_pages.saturating_sub(pages);
            }
        }
    }
    Ok(())
}

/// Minimum encoded size of one block record in the driver payload:
/// index, four masks, two stamps, plus the owner-tag byte.
const BLOCK_RECORD_BYTES: usize = 8 + 64 + 8 + 8 + 64 + 64 + 64 + 1;

/// Restores [`UmDriver`] state written by [`write_driver_state`],
/// replacing the block map, rebuilding the LRU order, and overwriting
/// the counters and epochs. The protected set is left untouched: DeepUM
/// restores it with its own state. So are the injector handles, which
/// are shared with the engine.
///
/// # Errors
///
/// Any [`SnapshotError`] from decoding, or
/// [`SnapshotError::Corrupt`] when the snapshot's device capacity does
/// not match the driver being restored.
pub fn read_driver_state(
    d: &mut UmDriver,
    r: &mut SnapshotReader<'_>,
) -> Result<(), SnapshotError> {
    if r.bool()? {
        read_tenant_scoped_state(d, r)?;
    } else {
        read_whole_state(d, r)?;
    }
    read_wear_section(d, r)?;
    // The snapshot may predate retirements that shrank the device
    // since: spill the overflow back to host (the pages refault on
    // demand after recovery).
    spill_restore_overflow(d)?;
    Ok(())
}

/// Sanity check on a payload's recorded capacity: the usable-frame
/// count at checkpoint time, which can be anything up to the device's
/// initial frame count. The wear section carries the exact device
/// identity check.
fn check_snapshot_capacity(d: &UmDriver, capacity_pages: u64) -> Result<(), SnapshotError> {
    if capacity_pages > d.wear.initial_pages() {
        return Err(SnapshotError::Corrupt(format!(
            "snapshot capacity {capacity_pages} pages exceeds device's {} initial frames",
            d.wear.initial_pages()
        )));
    }
    Ok(())
}

/// Restores a whole-driver (unscoped) payload.
fn read_whole_state(d: &mut UmDriver, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
    let capacity_pages = r.u64()?;
    check_snapshot_capacity(d, capacity_pages)?;
    let resident_pages = r.u64()?;
    let migrate_epoch = r.u64()?;
    let epoch_now = r.ns()?;
    let counters = read_counters(r)?;
    let num_blocks = r.len_prefix(BLOCK_RECORD_BYTES)?;

    let mut blocks = crate::table::BlockTable::new();
    let mut lru = LruMigrated::new();
    for _ in 0..num_blocks {
        let (block, state) = read_block_record(r)?;
        if !state.resident.is_empty() {
            lru.record_migration(block, None, state.last_migrated);
        }
        if blocks.insert(block, state).is_some() {
            return Err(SnapshotError::Corrupt(format!(
                "{block} appears twice in the snapshot"
            )));
        }
    }

    let pressure = if r.bool()? {
        Some(crate::pressure::PressureGovernor::decode_from(r)?)
    } else {
        None
    };

    d.resident_pages = resident_pages;
    d.migrate_epoch = migrate_epoch;
    d.epoch_now = epoch_now;
    d.counters = counters;
    d.blocks = blocks;
    d.lru = lru;
    d.pressure = pressure;
    Ok(())
}

/// Restores a tenant-scoped (mid-slot) snapshot: a *spill-to-host*
/// restore. Only the snapshotted tenant's state is touched — its
/// current blocks are removed, its snapshot blocks are reinserted with
/// nothing device-resident (the host copy is the valid one, so the
/// first post-restore touch refaults each page in-band), its ledger
/// counters rewind to the checkpoint, and its governor is reinstalled.
/// The co-tenants' blocks, ledgers, and the driver's global monotone
/// counters are untouched: global counters do not rewind on a scoped
/// restore, the tenant-scoped view does.
fn read_tenant_scoped_state(
    d: &mut UmDriver,
    r: &mut SnapshotReader<'_>,
) -> Result<(), SnapshotError> {
    let capacity_pages = r.u64()?;
    check_snapshot_capacity(d, capacity_pages)?;
    let tid = TenantId(r.u32()?);
    // Ledger residency at snapshot time; informational only — after a
    // spill-to-host restore the tenant has zero resident pages.
    let _resident_at_snapshot = r.u64()?;
    let counters = read_counters(r)?;
    let num_blocks = r.len_prefix(BLOCK_RECORD_BYTES)?;
    let mut snap_blocks = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        snap_blocks.push(read_block_record(r)?);
    }
    let pressure = if r.bool()? {
        Some(crate::pressure::PressureGovernor::decode_from(r)?)
    } else {
        None
    };

    // Drop the tenant's current device residency: the snapshot replaces
    // everything it owns.
    let current: Vec<BlockNum> = d
        .blocks
        .iter()
        .filter(|(_, s)| s.owner == Some(tid))
        .map(|(b, _)| b)
        .collect();
    let mut removed = 0u64;
    for b in current {
        if let Some(s) = d.blocks.remove(b) {
            let n = s.resident.count_u64();
            if n > 0 {
                d.lru.remove(b, s.last_migrated);
                removed += n;
            }
        }
    }
    d.resident_pages = d.resident_pages.checked_sub(removed).ok_or_else(|| {
        SnapshotError::Corrupt(format!(
            "tenant {tid} held more resident pages than the device total"
        ))
    })?;

    for (block, mut state) in snap_blocks {
        if state.owner != Some(tid) {
            return Err(SnapshotError::Corrupt(format!(
                "{block} in tenant {tid}'s scoped snapshot has a different owner"
            )));
        }
        state.host_valid.union_with(&state.resident);
        state.resident = PageMask::empty();
        state.prefetched_untouched = PageMask::empty();
        if d.blocks.insert(block, state).is_some() {
            return Err(SnapshotError::Corrupt(format!(
                "{block} collides with another tenant's block"
            )));
        }
    }
    d.pressure = pressure;
    let global = d.counters;
    if let Some(t) = d.tenancy.as_mut() {
        // Reset slot-delta accounting: everything before this instant is
        // already folded into (or rewound out of) the ledger.
        t.slot_c0 = global;
        t.slot_foreign = Counters::default();
        if let Some(l) = t.tenants.get_mut(&tid) {
            l.resident_pages = 0;
            l.counters = counters;
        }
    }
    Ok(())
}

/// Serializes a [`UmDriver`] into one standalone snapshot envelope.
pub fn snapshot_driver(d: &UmDriver) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    write_driver_state(d, &mut w);
    w.finish()
}

/// Restores a [`UmDriver`] from an envelope built by [`snapshot_driver`].
///
/// # Errors
///
/// Any [`SnapshotError`] from envelope validation or payload decode.
pub fn restore_driver(d: &mut UmDriver, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = SnapshotReader::new(bytes)?;
    read_driver_state(d, &mut r)?;
    r.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepum_gpu::fault::{AccessKind, FaultEntry};
    use deepum_mem::BLOCK_SIZE;
    use deepum_sim::costs::CostModel;

    fn driver_with_history(capacity_blocks: u64) -> UmDriver {
        let costs = CostModel::v100_32gb().with_device_memory(capacity_blocks * BLOCK_SIZE as u64);
        let mut d = UmDriver::new(costs);
        for b in 0..4u64 {
            let faults: Vec<FaultEntry> = vec![FaultEntry {
                block: BlockNum::new(b),
                pages: PageMask::first_n(200),
                kind: AccessKind::Read,
            }];
            d.handle_faults(Ns::from_nanos(b + 1), &faults)
                .expect("faults handled");
        }
        d.prefetch_into_gpu(Ns::from_nanos(9), BlockNum::new(7), &PageMask::first_n(64));
        d
    }

    #[test]
    fn writer_reader_round_trip_primitives() {
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX);
        w.u32(7);
        w.u8(255);
        w.bool(true);
        w.ns(Ns::from_micros(3));
        w.block(BlockNum::new(42));
        w.mask(&PageMask::first_n(100));
        let bytes = w.finish();

        let mut r = SnapshotReader::new(&bytes).expect("valid envelope");
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u8().unwrap(), 255);
        assert!(r.bool().unwrap());
        assert_eq!(r.ns().unwrap(), Ns::from_micros(3));
        assert_eq!(r.block().unwrap(), BlockNum::new(42));
        assert_eq!(r.mask().unwrap(), PageMask::first_n(100));
        r.finish().expect("fully consumed");
    }

    #[test]
    fn driver_round_trip_preserves_state_and_validates() {
        let d = driver_with_history(3);
        let bytes = snapshot_driver(&d);

        let costs = CostModel::v100_32gb().with_device_memory(3 * BLOCK_SIZE as u64);
        let mut restored = UmDriver::new(costs);
        restore_driver(&mut restored, &bytes).expect("restore succeeds");

        restored.validate().expect("restored driver validates");
        assert_eq!(restored.resident_pages(), d.resident_pages());
        assert_eq!(restored.counters(), d.counters());
        for b in 0..8u64 {
            let block = BlockNum::new(b);
            assert_eq!(restored.resident_mask(block), d.resident_mask(block));
        }
        // A second snapshot of the restored driver is byte-identical.
        assert_eq!(snapshot_driver(&restored), bytes);
    }

    #[test]
    fn bit_flip_is_detected() {
        let d = driver_with_history(3);
        let mut bytes = snapshot_driver(&d);
        let mid = bytes.len() / 2;
        if let Some(b) = bytes.get_mut(mid) {
            *b ^= 0x40;
        }
        assert!(matches!(
            SnapshotReader::new(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let d = driver_with_history(3);
        let bytes = snapshot_driver(&d);
        for cut in [0, 5, HEADER_LEN, bytes.len() - 1] {
            let sliced = &bytes[..cut];
            let err = SnapshotReader::new(sliced).expect_err("truncated envelope must fail");
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated | SnapshotError::ChecksumMismatch { .. }
                ),
                "unexpected error {err:?} at cut {cut}"
            );
        }
    }

    #[test]
    fn envelope_pins_magic_and_version() {
        // Decode-compat guard: the header layout is MAGIC (8 bytes)
        // then VERSION (LE u32). Pinning the literal values here means
        // a codec change cannot ship without touching this test — and
        // without migration thought for snapshots already on disk.
        assert_eq!(&SNAPSHOT_MAGIC, b"DUMSNAP\0");
        assert_eq!(SNAPSHOT_VERSION, 5);
        let bytes = SnapshotWriter::new().finish();
        assert_eq!(&bytes[..8], &SNAPSHOT_MAGIC);
        assert_eq!(
            bytes[8..HEADER_LEN],
            SNAPSHOT_VERSION.to_le_bytes(),
            "version field must follow the magic"
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.u64(1);
        let mut bytes = w.finish();
        // Rewrite the version field and re-seal the checksum.
        bytes.truncate(bytes.len() - TRAILER_LEN);
        bytes[8..HEADER_LEN].copy_from_slice(&99u32.to_le_bytes());
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            SnapshotReader::new(&bytes).err(),
            Some(SnapshotError::BadVersion { found: 99 })
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let w = SnapshotWriter::new();
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - TRAILER_LEN);
        bytes[0] = b'X';
        let checksum = fnv1a64(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            SnapshotReader::new(&bytes).err(),
            Some(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapshotWriter::new();
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).expect("valid envelope");
        assert_eq!(r.u64().unwrap(), 1);
        assert_eq!(r.finish(), Err(SnapshotError::TrailingBytes(8)));
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.u64(u64::MAX); // claims u64::MAX items follow
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).expect("valid envelope");
        assert!(matches!(
            r.len_prefix(BLOCK_RECORD_BYTES),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn capacity_mismatch_is_corrupt() {
        let d = driver_with_history(3);
        let bytes = snapshot_driver(&d);
        let costs = CostModel::v100_32gb().with_device_memory(5 * BLOCK_SIZE as u64);
        let mut other = UmDriver::new(costs);
        assert!(matches!(
            restore_driver(&mut other, &bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshots_are_deterministic() {
        let a = snapshot_driver(&driver_with_history(3));
        let b = snapshot_driver(&driver_with_history(3));
        assert_eq!(a, b);
    }

    fn governed_driver_with_churn() -> UmDriver {
        let costs = CostModel::v100_32gb().with_device_memory(2 * BLOCK_SIZE as u64);
        let mut d = UmDriver::new(costs);
        d.install_pressure_governor(crate::pressure::PressureConfig::default());
        // Ping-pong through a 2-block device to accumulate evictions,
        // refaults, cooldowns, and in-flight pins mid-kernel.
        for k in 0..6u64 {
            let block = k % 3;
            let faults: Vec<FaultEntry> = vec![FaultEntry {
                block: BlockNum::new(block),
                pages: PageMask::first_n(512),
                kind: AccessKind::Read,
            }];
            d.handle_faults(Ns::from_nanos(10 * k + 1), &faults)
                .expect("faults handled");
            if k < 5 {
                d.pressure_kernel_tick(Ns::from_nanos(10 * k + 5));
            }
            // k == 5 leaves a kernel in flight: pins and window samples
            // must survive the snapshot too.
        }
        d
    }

    #[test]
    fn governed_driver_round_trips_governor_state() {
        let d = governed_driver_with_churn();
        let stats = d.pressure_stats().expect("governor installed");
        assert!(stats.refaults > 0, "churn must produce refaults");
        let bytes = snapshot_driver(&d);

        let costs = CostModel::v100_32gb().with_device_memory(2 * BLOCK_SIZE as u64);
        let mut restored = UmDriver::new(costs);
        restore_driver(&mut restored, &bytes).expect("restore succeeds");
        restored.validate().expect("restored driver validates");
        assert_eq!(restored.pressure_stats(), Some(stats));
        assert_eq!(restored.pressure_level(), d.pressure_level());
        // Re-snapshot is byte-identical: the governor codec is stable.
        assert_eq!(snapshot_driver(&restored), bytes);
    }

    #[test]
    fn ungoverned_snapshot_restores_without_governor() {
        let d = driver_with_history(3);
        let bytes = snapshot_driver(&d);
        let costs = CostModel::v100_32gb().with_device_memory(3 * BLOCK_SIZE as u64);
        let mut restored = UmDriver::new(costs);
        // Restoring an ungoverned snapshot clears any installed governor:
        // the checkpoint is the source of truth.
        restored.install_pressure_governor(crate::pressure::PressureConfig::default());
        restore_driver(&mut restored, &bytes).expect("restore succeeds");
        assert_eq!(restored.pressure_stats(), None);
    }

    /// A driver whose injector schedules page retirements at the given
    /// drain ordinals, driven through `drains` fault drains.
    fn worn_driver(retire_at: &[u64], drains: u64) -> UmDriver {
        use deepum_sim::faultinject::{FaultInjector, InjectionPlan};
        let costs = CostModel::v100_32gb().with_device_memory(3 * BLOCK_SIZE as u64);
        let mut d = UmDriver::new(costs);
        let plan = InjectionPlan {
            retire_pages_at: retire_at.to_vec(),
            ..InjectionPlan::default()
        };
        d.install_injector(std::rc::Rc::new(std::cell::RefCell::new(
            FaultInjector::new(plan),
        )));
        for b in 0..drains {
            let faults: Vec<FaultEntry> = vec![FaultEntry {
                block: BlockNum::new(b % 4),
                pages: PageMask::first_n(200),
                kind: AccessKind::Read,
            }];
            d.handle_faults(Ns::from_nanos(b + 1), &faults)
                .expect("faults handled");
        }
        d
    }

    #[test]
    fn worn_driver_round_trips_wear_state() {
        let d = worn_driver(&[0, 2], 4);
        assert_eq!(d.wear().retired_pages(), 2);
        assert_eq!(d.capacity_pages(), d.wear().usable_pages());
        let bytes = snapshot_driver(&d);
        assert_eq!(bytes[8..HEADER_LEN], 5u32.to_le_bytes());

        // A fresh driver adopts the snapshot's blacklist wholesale.
        let costs = CostModel::v100_32gb().with_device_memory(3 * BLOCK_SIZE as u64);
        let mut restored = UmDriver::new(costs);
        restore_driver(&mut restored, &bytes).expect("restore succeeds");
        restored.validate().expect("restored driver validates");
        assert_eq!(
            restored.wear().retired_extents(),
            d.wear().retired_extents()
        );
        assert_eq!(restored.capacity_pages(), d.capacity_pages());
        assert_eq!(restored.resident_pages(), d.resident_pages());
        assert_eq!(snapshot_driver(&restored), bytes);
    }

    #[test]
    fn post_checkpoint_retirement_survives_restore() {
        // Snapshot after one retirement, retire again, then restore the
        // older image in place: the blacklist is the union — the later
        // retirement is hardware truth and never rewinds.
        let mut d = worn_driver(&[0, 4], 4);
        assert_eq!(d.wear().retired_pages(), 1);
        let bytes = snapshot_driver(&d);
        let faults: Vec<FaultEntry> = vec![FaultEntry {
            block: BlockNum::new(0),
            pages: PageMask::first_n(200),
            kind: AccessKind::Read,
        }];
        d.handle_faults(Ns::from_nanos(99), &faults)
            .expect("faults handled");
        assert_eq!(d.wear().retired_pages(), 2);
        restore_driver(&mut d, &bytes).expect("restore succeeds");
        d.validate().expect("restored driver validates");
        assert_eq!(d.wear().retired_pages(), 2);
        assert_eq!(d.capacity_pages(), d.wear().usable_pages());
    }

    #[test]
    fn pristine_era_snapshot_restores_onto_worn_driver() {
        use deepum_sim::faultinject::{FaultInjector, InjectionPlan};
        // Fill a one-block device completely, checkpoint while pristine,
        // then retire a frame. Restoring the pristine-era image must
        // succeed — identity is the initial frame count, not the shrunk
        // capacity — and the overflowing residency spills to host.
        let costs = CostModel::v100_32gb().with_device_memory(BLOCK_SIZE as u64);
        let mut d = UmDriver::new(costs);
        let plan = InjectionPlan {
            retire_pages_at: vec![1],
            ..InjectionPlan::default()
        };
        d.install_injector(std::rc::Rc::new(std::cell::RefCell::new(
            FaultInjector::new(plan),
        )));
        let faults: Vec<FaultEntry> = vec![FaultEntry {
            block: BlockNum::new(0),
            pages: PageMask::first_n(512),
            kind: AccessKind::Read,
        }];
        d.handle_faults(Ns::from_nanos(1), &faults)
            .expect("faults handled");
        assert_eq!(d.resident_pages(), 512);
        let bytes = snapshot_driver(&d);

        // Second drain fires the scheduled retirement: capacity shrinks
        // and the full block is live-migrated off the device.
        let one_page = FaultEntry {
            pages: PageMask::first_n(1),
            ..faults[0]
        };
        d.handle_faults(Ns::from_nanos(2), &[one_page])
            .expect("faults handled");
        assert_eq!(d.wear().retired_pages(), 1);
        assert!(d.capacity_pages() < 512);

        restore_driver(&mut d, &bytes).expect("pristine-era restore onto worn driver");
        d.validate().expect("restored driver validates");
        assert!(d.resident_pages() <= d.capacity_pages());
        assert_eq!(d.wear().retired_pages(), 1, "wear never rewinds");
    }

    #[test]
    fn wear_device_identity_mismatch_is_corrupt() {
        let d = worn_driver(&[0], 2);
        let bytes = snapshot_driver(&d);
        // A device with a different initial frame count is a different
        // device, worn or not.
        let costs = CostModel::v100_32gb().with_device_memory(5 * BLOCK_SIZE as u64);
        let mut other = UmDriver::new(costs);
        assert!(matches!(
            restore_driver(&mut other, &bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    mod decode_fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Decode-fuzz pin: arbitrary byte-level damage to a valid
            /// v5 snapshot — bit flips, truncation, extension with
            /// arbitrary bytes, zeroed spans — never panics the
            /// decoder. Restore returns `Ok` only when the mutation
            /// happened to be the identity (empty extension, truncate
            /// to full length, zeroing already-zero bytes); every
            /// actual change yields a typed [`SnapshotError`].
            #[test]
            fn mutated_v5_snapshots_never_panic(
                op in 0u8..4,
                at in 0usize..8192,
                span in 1usize..64,
                bit in 0u8..8,
                fill in prop::collection::vec(0u8..=255u8, 0..48),
            ) {
                let d = worn_driver(&[0, 2], 4);
                let original = snapshot_driver(&d);
                prop_assert_eq!(&original[8..HEADER_LEN], &5u32.to_le_bytes()[..]);

                let mut mutated = original.clone();
                match op {
                    0 => {
                        let i = at % mutated.len();
                        mutated[i] ^= 1 << bit;
                    }
                    1 => mutated.truncate(at % (mutated.len() + 1)),
                    2 => mutated.extend_from_slice(&fill),
                    _ => {
                        let start = at % mutated.len();
                        let end = (start + span).min(mutated.len());
                        for b in &mut mutated[start..end] {
                            *b = 0;
                        }
                    }
                }

                let costs =
                    CostModel::v100_32gb().with_device_memory(3 * BLOCK_SIZE as u64);
                let mut restored = UmDriver::new(costs);
                let res = restore_driver(&mut restored, &mutated);
                if mutated == original {
                    prop_assert!(res.is_ok(), "identity mutation must restore: {:?}", res);
                    prop_assert!(restored.validate().is_ok());
                    prop_assert_eq!(snapshot_driver(&restored), original);
                } else {
                    prop_assert!(
                        res.is_err(),
                        "damaged snapshot must be rejected, not silently accepted"
                    );
                }
            }
        }
    }
}
