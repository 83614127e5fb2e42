//! The UM block correlation table (paper Fig. 7).

use deepum_mem::BlockNum;
use deepum_um::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Fixed per-table bytes that Table 4 accounting charges on top of the
/// ways. It is the model's figure for the table header (the host size
/// of [`BlockCorrelationTable`] when the figure was fixed), not the
/// current host layout: `table_bytes` is in every DeepUM report, and a
/// field change must not move it.
pub const TABLE_HEADER_BYTES: usize = 88;

/// One way of a set: a tagged block and its MRU-ordered successors.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Way {
    tag: BlockNum,
    /// MRU first; at most `NumSuccs` entries.
    succs: Vec<BlockNum>,
}

/// A row (set) of the table: at most `Assoc` ways, MRU first.
#[derive(Debug, Default, Clone)]
struct Row {
    ways: Vec<Way>,
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
    rows: Vec<Row>,
    assoc: usize,
    num_succs: usize,
    start: Option<BlockNum>,
    end: Option<BlockNum>,
    updates: u64,
}

impl BlockCorrelationTable {
    /// Creates a table with the given geometry (`NumRows`, `Assoc`,
    /// `NumSuccs` — Table 6's parameters).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(num_rows: usize, assoc: usize, num_succs: usize) -> Self {
        assert!(num_rows > 0, "NumRows must be positive");
        assert!(assoc > 0, "Assoc must be positive");
        assert!(num_succs > 0, "NumSuccs must be positive");
        BlockCorrelationTable {
            rows: vec![Row::default(); num_rows],
            assoc,
            num_succs,
            start: None,
            end: None,
            updates: 0,
        }
    }

    fn row_of(&self, block: BlockNum) -> usize {
        // Fibonacci multiplicative hash spreads consecutive block numbers
        // across rows.
        (block.index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.rows.len()
    }

    /// Records that a fault on `succ` followed a fault on `prev` within
    /// this kernel. MRU-updates both the way and its successor list,
    /// evicting the LRU way when the set is full.
    pub fn record_pair(&mut self, prev: BlockNum, succ: BlockNum) {
        if prev == succ {
            return;
        }
        self.updates += 1;
        let assoc = self.assoc;
        let num_succs = self.num_succs;
        let row_idx = self.row_of(prev);
        let row = &mut self.rows[row_idx];

        let way_pos = row.ways.iter().position(|w| w.tag == prev);
        let mut way = match way_pos {
            Some(pos) => row.ways.remove(pos),
            None => Way {
                tag: prev,
                succs: Vec::with_capacity(num_succs),
            },
        };

        if let Some(pos) = way.succs.iter().position(|&s| s == succ) {
            way.succs.remove(pos);
        }
        way.succs.insert(0, succ);
        way.succs.truncate(num_succs);

        row.ways.insert(0, way);
        row.ways.truncate(assoc);
    }

    /// Successors recorded for `block`, MRU first; empty if the block has
    /// no way in the table (never seen, or evicted by set conflict).
    pub fn successors(&self, block: BlockNum) -> &[BlockNum] {
        let row = &self.rows[self.row_of(block)];
        row.ways
            .iter()
            .find(|w| w.tag == block)
            .map(|w| w.succs.as_slice())
            .unwrap_or(&[])
    }

    /// Sets the start block (first faulted block after the kernel
    /// transition into this execution ID).
    pub fn set_start(&mut self, block: BlockNum) {
        self.start = Some(block);
    }

    /// Sets the end block (last faulted block before the transition out).
    pub fn set_end(&mut self, block: BlockNum) {
        self.end = Some(block);
    }

    /// The chaining entry point for this kernel.
    pub fn start(&self) -> Option<BlockNum> {
        self.start
    }

    /// The chaining exit marker for this kernel.
    pub fn end(&self) -> Option<BlockNum> {
        self.end
    }

    /// `(NumRows, Assoc, NumSuccs)` geometry.
    pub fn geometry(&self) -> (usize, usize, usize) {
        (self.rows.len(), self.assoc, self.num_succs)
    }

    /// Number of occupied ways (diagnostics).
    pub fn occupied_ways(&self) -> usize {
        self.rows.iter().map(|r| r.ways.len()).sum()
    }

    /// Lifetime pair-record updates.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Writes the table — geometry, anchors, counters, and every way's
    /// MRU-ordered successor list — into a checkpoint payload.
    pub(crate) fn encode_into(&self, w: &mut SnapshotWriter) {
        w.u64(deepum_mem::u64_from_usize(self.rows.len()));
        w.u64(deepum_mem::u64_from_usize(self.assoc));
        w.u64(deepum_mem::u64_from_usize(self.num_succs));
        for opt in [self.start, self.end] {
            w.bool(opt.is_some());
            if let Some(b) = opt {
                w.block(b);
            }
        }
        w.u64(self.updates);
        for row in &self.rows {
            w.u64(deepum_mem::u64_from_usize(row.ways.len()));
            for way in &row.ways {
                w.block(way.tag);
                w.u64(deepum_mem::u64_from_usize(way.succs.len()));
                for &s in &way.succs {
                    w.block(s);
                }
            }
        }
    }

    /// Reads a table written by [`BlockCorrelationTable::encode_into`].
    pub(crate) fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let geometry: Vec<usize> = (0..3)
            .map(|_| {
                r.u64().and_then(|v| {
                    usize::try_from(v).map_err(|_| {
                        SnapshotError::Corrupt(format!("table geometry {v} overflows usize"))
                    })
                })
            })
            .collect::<Result<_, _>>()?;
        let (num_rows, assoc, num_succs) = (geometry[0], geometry[1], geometry[2]);
        if num_rows == 0 || assoc == 0 || num_succs == 0 {
            return Err(SnapshotError::Corrupt(format!(
                "degenerate table geometry ({num_rows}, {assoc}, {num_succs})"
            )));
        }
        let start = if r.bool()? { Some(r.block()?) } else { None };
        let end = if r.bool()? { Some(r.block()?) } else { None };
        let updates = r.u64()?;
        let mut rows = Vec::with_capacity(num_rows);
        for _ in 0..num_rows {
            let num_ways = r.len_prefix(16)?;
            if num_ways > assoc {
                return Err(SnapshotError::Corrupt(format!(
                    "row has {num_ways} ways, associativity is {assoc}"
                )));
            }
            let mut ways = Vec::with_capacity(num_ways);
            for _ in 0..num_ways {
                let tag = r.block()?;
                let count = r.len_prefix(8)?;
                if count > num_succs {
                    return Err(SnapshotError::Corrupt(format!(
                        "way has {count} successors, limit is {num_succs}"
                    )));
                }
                let mut succs = Vec::with_capacity(num_succs);
                for _ in 0..count {
                    succs.push(r.block()?);
                }
                ways.push(Way { tag, succs });
            }
            rows.push(Row { ways });
        }
        Ok(BlockCorrelationTable {
            rows,
            assoc,
            num_succs,
            start,
            end,
            updates,
        })
    }

    /// Full-capacity memory footprint of the table, matching how the real
    /// kernel module would allocate it (Table 4 accounting):
    /// a fixed header plus `NumRows × Assoc` ways of one tag and
    /// `NumSuccs` successor slots.
    pub fn memory_bytes(&self) -> usize {
        let way_bytes = core::mem::size_of::<BlockNum>() * (1 + self.num_succs);
        TABLE_HEADER_BYTES + self.rows.len() * self.assoc * way_bytes
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
}
