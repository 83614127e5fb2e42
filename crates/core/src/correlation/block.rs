//! The UM block correlation table (paper Fig. 7).

use std::sync::atomic::{AtomicU64, Ordering};

use deepum_mem::BlockNum;
use deepum_um::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Fixed per-table bytes that Table 4 accounting charges on top of the
/// ways. It is the model's figure for the table header (the host size
/// of [`BlockCorrelationTable`] when the figure was fixed), not the
/// current host layout: `table_bytes` is in every DeepUM report, and a
/// field change must not move it.
pub const TABLE_HEADER_BYTES: usize = 88;

/// Slab slots per successor chunk. A chunk is allocated whole and never
/// moves, so the successor storage never reallocates; a full table of the
/// default geometry holds 128 KiB of successors, glibc's mmap threshold,
/// but in 1 KiB chunks.
const CHUNK_SLOTS: usize = 16;

/// Source of [`TableId`]s, shared by every table in the process.
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(0);

/// A process-unique table identity. A table built, decoded or cloned is
/// a new table and takes a new identity, so no two tables alive (or
/// dead) ever share a [`TableStamp`].
#[derive(Debug)]
struct TableId(u64);

impl TableId {
    fn fresh() -> Self {
        TableId(NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

impl Clone for TableId {
    fn clone(&self) -> Self {
        TableId::fresh()
    }
}

/// Names one state of one table's successor lists and anchors: two
/// equal stamps mean the same table with the same contents, so a walk
/// recorded under one stamp is still the walk of a table that shows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableStamp {
    table: u64,
    version: u64,
}

/// Per-execution-ID correlation table over UM blocks.
///
/// "A block table exists for each execution ID and records a history of
/// UM block accesses within the corresponding CUDA kernel." Rows are
/// selected by hashing the block number; each row holds `Assoc` ways to
/// reduce conflicts; each way stores up to `NumSuccs` MRU-ordered
/// successor blocks (`NumLevels = 1` — chaining replaces deeper levels).
/// The table also tracks the **start** block (first faulted after the
/// kernel transition) and **end** block (last faulted before the next
/// transition), the anchors for chaining.
///
/// The ways live in flat arrays. A row gets a slab slot of `Assoc` ways
/// (each a tag, a successor count and `NumSuccs` successor slots) the
/// first time it is written, so a table costs a 4-byte index per row
/// plus one slab slot per written row, not `NumRows` preallocated rows.
/// Successor slots come in fixed chunks of [`CHUNK_SLOTS`] slab slots.
///
/// # Example
///
/// ```
/// use deepum_core::correlation::BlockCorrelationTable;
/// use deepum_mem::BlockNum;
///
/// let mut t = BlockCorrelationTable::new(128, 2, 4);
/// t.record_pair(BlockNum::new(1), BlockNum::new(2));
/// t.record_pair(BlockNum::new(1), BlockNum::new(3));
/// // MRU first: the most recent successor leads.
/// assert_eq!(
///     t.successors(BlockNum::new(1)),
///     &[BlockNum::new(3), BlockNum::new(2)]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct BlockCorrelationTable {
    /// Per row: 1 + the row's slab slot, or 0 if it was never written.
    slot_of_row: Vec<u32>,
    /// Per slab slot: occupied ways. They lead the slot's `assoc` ways,
    /// MRU first.
    ways_used: Vec<u32>,
    /// Per way (`assoc` per slab slot): the tagged block.
    tags: Vec<BlockNum>,
    /// Per way: how many of its successor slots are used.
    succs_used: Vec<u32>,
    /// Per way: `num_succs` successor slots, MRU first, in chunks of
    /// `CHUNK_SLOTS` slab slots.
    succs: Vec<Box<[BlockNum]>>,
    assoc: usize,
    num_succs: usize,
    start: Option<BlockNum>,
    end: Option<BlockNum>,
    updates: u64,
    id: TableId,
    /// Bumped whenever the successor lists or the anchors change.
    version: u64,
}

impl BlockCorrelationTable {
    /// Creates a table with the given geometry (`NumRows`, `Assoc`,
    /// `NumSuccs` — Table 6's parameters).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or exceeds `u32::MAX`.
    pub fn new(num_rows: usize, assoc: usize, num_succs: usize) -> Self {
        assert!(num_rows > 0, "NumRows must be positive");
        assert!(assoc > 0, "Assoc must be positive");
        assert!(num_succs > 0, "NumSuccs must be positive");
        assert!(
            u32::try_from(num_rows.max(assoc).max(num_succs)).is_ok(),
            "table geometry must fit in u32"
        );
        BlockCorrelationTable {
            // deepum-tidy: allow(hot-path-alloc) -- the row index, allocated once when a kernel's table is created
            slot_of_row: vec![0; num_rows],
            ways_used: Vec::new(), // deepum-tidy: allow(hot-path-alloc) -- empty until a row is written; no heap allocation
            tags: Vec::new(), // deepum-tidy: allow(hot-path-alloc) -- empty until a row is written; no heap allocation
            succs_used: Vec::new(), // deepum-tidy: allow(hot-path-alloc) -- empty until a row is written; no heap allocation
            succs: Vec::new(), // deepum-tidy: allow(hot-path-alloc) -- empty until a row is written; no heap allocation
            assoc,
            num_succs,
            start: None,
            end: None,
            updates: 0,
            id: TableId::fresh(),
            version: 0,
        }
    }

    fn row_of(&self, block: BlockNum) -> usize {
        // Fibonacci multiplicative hash spreads consecutive block numbers
        // across rows.
        (block.index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.slot_of_row.len()
    }

    /// The slab slot of `row`, if the row was ever written.
    fn slot(&self, row: usize) -> Option<usize> {
        match self.slot_of_row[row] {
            0 => None,
            s => Some(s as usize - 1),
        }
    }

    /// The slab slot of `row`, giving it a fresh one (no ways) on its
    /// first write.
    fn slot_for_write(&mut self, row: usize) -> usize {
        if let Some(slot) = self.slot(row) {
            return slot;
        }
        let slot = self.ways_used.len();
        self.ways_used.push(0);
        let ways = (slot + 1) * self.assoc;
        self.tags.resize(ways, BlockNum::new(0));
        self.succs_used.resize(ways, 0);
        if slot.is_multiple_of(CHUNK_SLOTS) {
            // deepum-tidy: allow(hot-path-alloc) -- one fixed chunk per CHUNK_SLOTS newly written rows, never reallocated
            let chunk = vec![BlockNum::new(0); CHUNK_SLOTS * self.assoc * self.num_succs];
            self.succs.push(chunk.into_boxed_slice());
        }
        // `slot < num_rows`, which `new` bounds by `u32::MAX`.
        self.slot_of_row[row] = (slot + 1) as u32;
        slot
    }

    /// The successor slots of the `n` ways from way `first` on (all in
    /// one slab slot).
    fn way_succs(&self, first: usize, n: usize) -> &[BlockNum] {
        let per_chunk = CHUNK_SLOTS * self.assoc;
        let at = first % per_chunk * self.num_succs;
        &self.succs[first / per_chunk][at..at + n * self.num_succs]
    }

    /// Mutable [`Self::way_succs`].
    fn way_succs_mut(&mut self, first: usize, n: usize) -> &mut [BlockNum] {
        let per_chunk = CHUNK_SLOTS * self.assoc;
        let at = first % per_chunk * self.num_succs;
        &mut self.succs[first / per_chunk][at..at + n * self.num_succs]
    }

    /// Moves way `w` of the ways starting at `first` to the front,
    /// shifting the ways before it back by one.
    fn rotate_ways(&mut self, first: usize, w: usize) {
        let ns = self.num_succs;
        self.tags[first..=first + w].rotate_right(1);
        self.succs_used[first..=first + w].rotate_right(1);
        self.way_succs_mut(first, w + 1).rotate_right(ns);
    }

    /// Records that a fault on `succ` followed a fault on `prev` within
    /// this kernel. MRU-updates both the way and its successor list,
    /// evicting the LRU way when the set is full.
    pub fn record_pair(&mut self, prev: BlockNum, succ: BlockNum) {
        if prev == succ {
            return;
        }
        self.updates += 1;
        let slot = self.slot_for_write(self.row_of(prev));
        let first = slot * self.assoc;
        let used = self.ways_used[slot] as usize;
        let found = self.tags[first..first + used]
            .iter()
            .position(|&t| t == prev);
        match found {
            Some(w) => self.rotate_ways(first, w),
            None => {
                // A new way enters at the front; in a full set the LRU
                // way rotates to the front and is overwritten.
                let used = (used + 1).min(self.assoc);
                self.rotate_ways(first, used - 1);
                self.tags[first] = prev;
                self.succs_used[first] = 0;
                self.ways_used[slot] = used as u32;
            }
        }

        let count = self.succs_used[first] as usize;
        let list = self.way_succs_mut(first, 1);
        let (moved, count) = match list[..count].iter().position(|&s| s == succ) {
            Some(p) => {
                list[..=p].rotate_right(1);
                (p != 0, count)
            }
            None => {
                let count = (count + 1).min(list.len());
                list[..count].rotate_right(1);
                list[0] = succ;
                (true, count)
            }
        };
        self.succs_used[first] = count as u32;
        if moved || found != Some(0) {
            self.version += 1;
        }
    }

    /// Successors recorded for `block`, MRU first; empty if the block has
    /// no way in the table (never seen, or evicted by set conflict).
    pub fn successors(&self, block: BlockNum) -> &[BlockNum] {
        let Some(slot) = self.slot(self.row_of(block)) else {
            return &[];
        };
        let first = slot * self.assoc;
        let used = self.ways_used[slot] as usize;
        match self.tags[first..first + used]
            .iter()
            .position(|&t| t == block)
        {
            Some(w) => {
                let way = first + w;
                &self.way_succs(way, 1)[..self.succs_used[way] as usize]
            }
            None => &[],
        }
    }

    /// Sets the start block (first faulted block after the kernel
    /// transition into this execution ID).
    pub fn set_start(&mut self, block: BlockNum) {
        if self.start != Some(block) {
            self.start = Some(block);
            self.version += 1;
        }
    }

    /// Sets the end block (last faulted block before the transition out).
    pub fn set_end(&mut self, block: BlockNum) {
        if self.end != Some(block) {
            self.end = Some(block);
            self.version += 1;
        }
    }

    /// The chaining entry point for this kernel.
    pub fn start(&self) -> Option<BlockNum> {
        self.start
    }

    /// The chaining exit marker for this kernel.
    pub fn end(&self) -> Option<BlockNum> {
        self.end
    }

    /// The current contents' stamp: it changes whenever a successor list
    /// or an anchor changes, and never repeats across tables.
    pub(crate) fn stamp(&self) -> TableStamp {
        TableStamp {
            table: self.id.0,
            version: self.version,
        }
    }

    /// `(NumRows, Assoc, NumSuccs)` geometry.
    pub fn geometry(&self) -> (usize, usize, usize) {
        (self.slot_of_row.len(), self.assoc, self.num_succs)
    }

    /// Number of occupied ways (diagnostics).
    pub fn occupied_ways(&self) -> usize {
        self.ways_used.iter().map(|&n| n as usize).sum()
    }

    /// Lifetime pair-record updates.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Writes the table — geometry, anchors, counters, and every way's
    /// MRU-ordered successor list — into a checkpoint payload.
    pub(crate) fn encode_into(&self, w: &mut SnapshotWriter) {
        w.u64(deepum_mem::u64_from_usize(self.slot_of_row.len()));
        w.u64(deepum_mem::u64_from_usize(self.assoc));
        w.u64(deepum_mem::u64_from_usize(self.num_succs));
        for opt in [self.start, self.end] {
            w.bool(opt.is_some());
            if let Some(b) = opt {
                w.block(b);
            }
        }
        w.u64(self.updates);
        for row in 0..self.slot_of_row.len() {
            let Some(slot) = self.slot(row) else {
                w.u64(0);
                continue;
            };
            let first = slot * self.assoc;
            let used = self.ways_used[slot] as usize;
            w.u64(deepum_mem::u64_from_usize(used));
            for way in first..first + used {
                w.block(self.tags[way]);
                let count = self.succs_used[way] as usize;
                w.u64(deepum_mem::u64_from_usize(count));
                for &s in &self.way_succs(way, 1)[..count] {
                    w.block(s);
                }
            }
        }
    }

    /// Reads a table written by [`BlockCorrelationTable::encode_into`]
    /// for a driver whose tables have `geometry` (`NumRows`, `Assoc`,
    /// `NumSuccs`). The row count is bounded by the payload (each row
    /// encodes at least its 8-byte way count) before anything is
    /// allocated, and a geometry other than the driver's is corrupt:
    /// that driver never wrote it, and a forged one would size the
    /// slab.
    pub(crate) fn decode_from(
        r: &mut SnapshotReader<'_>,
        geometry: (usize, usize, usize),
    ) -> Result<Self, SnapshotError> {
        let num_rows = r.len_prefix(8)?;
        let (assoc, num_succs) = (r.u64()?, r.u64()?);
        let (rows, want_assoc, want_succs) = geometry;
        if num_rows != rows
            || assoc != deepum_mem::u64_from_usize(want_assoc)
            || num_succs != deepum_mem::u64_from_usize(want_succs)
        {
            // deepum-tidy: allow(hot-path-alloc) -- error path of a checkpoint restore, never taken by a healthy run
            return Err(SnapshotError::Corrupt(format!(
                "table geometry ({num_rows}, {assoc}, {num_succs}) is not the driver's {geometry:?}"
            )));
        }
        let mut table = BlockCorrelationTable::new(rows, want_assoc, want_succs);
        table.start = if r.bool()? { Some(r.block()?) } else { None };
        table.end = if r.bool()? { Some(r.block()?) } else { None };
        table.updates = r.u64()?;
        for row in 0..rows {
            let num_ways = r.len_prefix(16)?;
            if num_ways > want_assoc {
                // deepum-tidy: allow(hot-path-alloc) -- error path of a checkpoint restore, never taken by a healthy run
                return Err(SnapshotError::Corrupt(format!(
                    "row has {num_ways} ways, associativity is {want_assoc}"
                )));
            }
            if num_ways == 0 {
                continue;
            }
            let slot = table.slot_for_write(row);
            table.ways_used[slot] = num_ways as u32;
            let first = slot * want_assoc;
            for way in first..first + num_ways {
                table.tags[way] = r.block()?;
                let count = r.len_prefix(8)?;
                if count > want_succs {
                    // deepum-tidy: allow(hot-path-alloc) -- error path of a checkpoint restore, never taken by a healthy run
                    return Err(SnapshotError::Corrupt(format!(
                        "way has {count} successors, limit is {want_succs}"
                    )));
                }
                table.succs_used[way] = count as u32;
                for s in &mut table.way_succs_mut(way, 1)[..count] {
                    *s = r.block()?;
                }
            }
        }
        Ok(table)
    }

    /// Full-capacity memory footprint of the table, matching how the real
    /// kernel module would allocate it (Table 4 accounting):
    /// a fixed header plus `NumRows × Assoc` ways of one tag and
    /// `NumSuccs` successor slots.
    pub fn memory_bytes(&self) -> usize {
        let way_bytes = core::mem::size_of::<BlockNum>() * (1 + self.num_succs);
        TABLE_HEADER_BYTES + self.slot_of_row.len() * self.assoc * way_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockNum {
        BlockNum::new(i)
    }

    #[test]
    fn successors_mru_ordered_and_deduped() {
        let mut t = BlockCorrelationTable::new(64, 2, 4);
        t.record_pair(b(1), b(2));
        t.record_pair(b(1), b(3));
        t.record_pair(b(1), b(2)); // moves 2 back to front
        assert_eq!(t.successors(b(1)), &[b(2), b(3)]);
    }

    #[test]
    fn successor_list_truncates_to_num_succs() {
        let mut t = BlockCorrelationTable::new(64, 2, 2);
        t.record_pair(b(1), b(10));
        t.record_pair(b(1), b(11));
        t.record_pair(b(1), b(12));
        assert_eq!(t.successors(b(1)), &[b(12), b(11)]);
    }

    #[test]
    fn self_pair_is_ignored() {
        let mut t = BlockCorrelationTable::new(64, 2, 4);
        t.record_pair(b(1), b(1));
        assert!(t.successors(b(1)).is_empty());
        assert_eq!(t.updates(), 0);
    }

    #[test]
    fn set_conflicts_evict_lru_way() {
        // One row, one way: every distinct tag evicts the previous one.
        let mut t = BlockCorrelationTable::new(1, 1, 4);
        t.record_pair(b(1), b(2));
        t.record_pair(b(3), b(4));
        assert!(t.successors(b(1)).is_empty());
        assert_eq!(t.successors(b(3)), &[b(4)]);
    }

    #[test]
    fn assoc_keeps_conflicting_tags() {
        let mut t = BlockCorrelationTable::new(1, 2, 4);
        t.record_pair(b(1), b(2));
        t.record_pair(b(3), b(4));
        assert_eq!(t.successors(b(1)), &[b(2)]);
        assert_eq!(t.successors(b(3)), &[b(4)]);
        assert_eq!(t.occupied_ways(), 2);
    }

    #[test]
    fn start_end_pointers() {
        let mut t = BlockCorrelationTable::new(64, 2, 4);
        assert_eq!(t.start(), None);
        t.set_start(b(5));
        t.set_end(b(9));
        assert_eq!(t.start(), Some(b(5)));
        assert_eq!(t.end(), Some(b(9)));
    }

    #[test]
    fn memory_is_capacity_based() {
        let small = BlockCorrelationTable::new(128, 2, 4);
        let big = BlockCorrelationTable::new(2048, 2, 4);
        assert!(big.memory_bytes() > 10 * small.memory_bytes());
        // Recording does not change the footprint (preallocated).
        let mut t = BlockCorrelationTable::new(128, 2, 4);
        let before = t.memory_bytes();
        t.record_pair(b(1), b(2));
        assert_eq!(t.memory_bytes(), before);
    }

    #[test]
    #[should_panic(expected = "NumRows must be positive")]
    fn zero_rows_rejected() {
        let _ = BlockCorrelationTable::new(0, 2, 4);
    }

    #[test]
    fn stamp_moves_only_when_contents_change() {
        let mut t = BlockCorrelationTable::new(64, 2, 4);
        let s0 = t.stamp();
        t.record_pair(b(1), b(2));
        let s1 = t.stamp();
        assert_ne!(s0, s1);
        // Same MRU way, same MRU successor: nothing moves.
        t.record_pair(b(1), b(2));
        t.set_start(b(7));
        let s2 = t.stamp();
        assert_ne!(s1, s2);
        t.set_start(b(7));
        assert_eq!(t.stamp(), s2);
        t.record_pair(b(1), b(3));
        assert_ne!(t.stamp(), s2);
        // A clone is another table: its stamp never equals the original's.
        assert_ne!(t.clone().stamp(), t.stamp());
    }

    /// The pre-flat table: rows of MRU `Vec`s of ways, each an MRU `Vec`
    /// of successors.
    #[derive(Default)]
    struct VecTable {
        rows: Vec<Vec<(BlockNum, Vec<BlockNum>)>>,
        assoc: usize,
        num_succs: usize,
    }

    impl VecTable {
        fn record_pair(&mut self, row: usize, prev: BlockNum, succ: BlockNum) {
            if prev == succ {
                return;
            }
            let ways = &mut self.rows[row];
            let mut way = match ways.iter().position(|w| w.0 == prev) {
                Some(pos) => ways.remove(pos),
                None => (prev, Vec::new()),
            };
            if let Some(pos) = way.1.iter().position(|&s| s == succ) {
                way.1.remove(pos);
            }
            way.1.insert(0, succ);
            way.1.truncate(self.num_succs);
            ways.insert(0, way);
            ways.truncate(self.assoc);
        }
    }

    fn encoded(t: &BlockCorrelationTable) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        t.encode_into(&mut w);
        w.finish()
    }

    /// Random pairs (over few rows, so sets overflow and successor lists
    /// truncate, and over enough rows to fill several successor chunks)
    /// against the `Vec`-of-rows layout: same successors for every block,
    /// same encoding, and a decode that re-encodes identically.
    #[test]
    fn flat_layout_matches_vec_rows() {
        use deepum_sim::rng::DetRng;
        for (rows, assoc, succs) in [(1, 1, 1), (3, 2, 4), (8, 4, 2), (16, 2, 8), (300, 2, 3)] {
            let span = 4 * rows as u64 + 36;
            let mut rng = DetRng::seed(rows as u64);
            let mut flat = BlockCorrelationTable::new(rows, assoc, succs);
            let mut reference = VecTable {
                rows: vec![Vec::new(); rows],
                assoc,
                num_succs: succs,
            };
            for _ in 0..4000 {
                let (prev, succ) = (b(rng.below(span)), b(rng.below(span)));
                reference.record_pair(flat.row_of(prev), prev, succ);
                flat.record_pair(prev, succ);
            }
            for i in 0..span {
                let row = &reference.rows[flat.row_of(b(i))];
                let want = row
                    .iter()
                    .find(|w| w.0 == b(i))
                    .map_or(&[][..], |w| &w.1[..]);
                assert_eq!(flat.successors(b(i)), want, "block {i}");
            }
            let ways: usize = reference.rows.iter().map(Vec::len).sum();
            assert_eq!(flat.occupied_ways(), ways);
            if rows > CHUNK_SLOTS {
                assert!(flat.succs.len() > 1, "several successor chunks");
            }

            let mut w = SnapshotWriter::new();
            w.u64(rows as u64);
            w.u64(assoc as u64);
            w.u64(succs as u64);
            w.bool(false);
            w.bool(false);
            w.u64(flat.updates());
            for row in &reference.rows {
                w.u64(row.len() as u64);
                for (tag, list) in row {
                    w.block(*tag);
                    w.u64(list.len() as u64);
                    for &s in list {
                        w.block(s);
                    }
                }
            }
            let bytes = encoded(&flat);
            assert_eq!(bytes, w.finish());
            let mut r = SnapshotReader::new(&bytes).unwrap();
            let decoded = BlockCorrelationTable::decode_from(&mut r, (rows, assoc, succs)).unwrap();
            assert_eq!(encoded(&decoded), bytes);
        }
    }

    /// Re-seals `bytes` (a one-table envelope) with its leading row count
    /// replaced by `rows`, so the checksum holds.
    fn with_rows(bytes: &[u8], rows: u64) -> Vec<u8> {
        let body = &bytes[12..bytes.len() - 8];
        let mut w = SnapshotWriter::new();
        w.u64(rows);
        for &byte in &body[8..] {
            w.u8(byte);
        }
        w.finish()
    }

    #[test]
    fn forged_row_count_is_corrupt_not_a_panic() {
        let mut t = BlockCorrelationTable::new(64, 2, 4);
        t.record_pair(b(1), b(2));
        t.set_start(b(1));
        let bytes = encoded(&t);
        for rows in [1 << 61, 1 << 40, u64::MAX] {
            let forged = with_rows(&bytes, rows);
            let mut r = SnapshotReader::new(&forged).expect("resealed envelope is valid");
            // Even a driver claiming that geometry gets a typed error.
            let geometry = (usize::try_from(rows).unwrap_or(usize::MAX), 2, 4);
            assert!(matches!(
                BlockCorrelationTable::decode_from(&mut r, geometry),
                Err(SnapshotError::Corrupt(_))
            ));
        }
        // A geometry other than the driver's is refused too.
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert!(matches!(
            BlockCorrelationTable::decode_from(&mut r, (64, 4, 4)),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut r = SnapshotReader::new(&bytes).unwrap();
        let decoded = BlockCorrelationTable::decode_from(&mut r, (64, 2, 4)).unwrap();
        assert_eq!(decoded.successors(b(1)), &[b(2)]);
        assert_ne!(decoded.stamp(), t.stamp());
    }
}
