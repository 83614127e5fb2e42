//! Chaining — the prefetching thread's table walk (paper Section 4.2).
//!
//! "When a page fault occurs, the DeepUM driver prefetches all pages in
//! the UM blocks correlated to the faulted UM block by looking up the UM
//! block correlation table of the currently executing kernel. When the
//! prefetching thread meets the UM block that is the same as the end
//! block [...], it ends prefetching for the kernel and predicts the
//! kernel that will execute next by looking up the execution ID table.
//! Then, it starts prefetching for the predicted kernel, beginning with
//! the start UM block [...]. The chaining ends when a new page fault
//! interrupt signal is raised, or the prefetching thread fails to predict
//! the next kernel to execute. The chaining pauses when the prefetching
//! thread has enqueued all prefetch commands for the next N kernels. The
//! prefetching thread resumes after the currently executing kernel
//! finishes."

use std::collections::VecDeque;

use deepum_mem::stripe::{join, split, StripeMap};
use deepum_mem::BlockNum;
use deepum_runtime::exec_table::ExecId;
use deepum_um::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use serde::{Deserialize, Serialize};

use crate::correlation::block::TableStamp;
use crate::correlation::{BlockCorrelationTable, ExecCorrelationTable};

/// One prefetch command: which block to bring in, and for which predicted
/// kernel execution.
///
/// "A prefetch command consists of a UM block address to prefetch and
/// the execution ID for which the corresponding UM block is predicted to
/// be used." (Section 3.1.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrefetchCommand {
    /// UM block to prefetch.
    pub block: BlockNum,
    /// Execution ID of the kernel predicted to use the block.
    pub exec: ExecId,
}

/// Outcome of one chaining step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStep {
    /// A block to enqueue on the prefetch queue.
    Emit(PrefetchCommand),
    /// The walk crossed a kernel boundary: it predicted `predicted` as
    /// the `ahead`-th kernel after the currently executing one.
    Transition {
        /// The execution ID predicted to run next.
        predicted: ExecId,
        /// Look-ahead depth after this transition (1 = the very next
        /// kernel).
        ahead: usize,
    },
    /// Look-ahead window exhausted (`N` kernels ahead); the walk resumes
    /// when the window slides.
    Paused,
    /// The walk cannot continue (frontier exhausted, no end-block match,
    /// or next-kernel prediction failed).
    Ended,
}

/// The blocks one kernel's walk has met, as epoch stamps on dense
/// per-stripe offset arrays: a block is in the set iff its stamp equals
/// the current epoch. The walk clears the set at every kernel
/// transition and every restart, so [`VisitedSet::clear`] only bumps
/// the epoch and keeps the arrays.
#[derive(Debug, Clone)]
struct VisitedSet {
    stamps: StripeMap<Vec<u32>>,
    /// Stamp of the current contents; never 0, the stamp of an offset
    /// no walk has met.
    epoch: u32,
    len: usize,
}

impl VisitedSet {
    fn new() -> Self {
        VisitedSet {
            stamps: StripeMap::default(),
            epoch: 1,
            len: 0,
        }
    }

    /// Inserts `block`; true if it was not already present.
    #[inline]
    fn insert(&mut self, block: BlockNum) -> bool {
        let (id, offset) = split(block);
        let stamps = self.stamps.entry(id);
        if stamps.len() <= offset {
            stamps.resize(offset + 1, 0);
        }
        if stamps[offset] == self.epoch {
            return false;
        }
        stamps[offset] = self.epoch;
        self.len += 1;
        true
    }

    /// Empties the set. Re-zeroes the arrays only when the epoch wraps.
    fn clear(&mut self) {
        self.len = 0;
        if self.epoch == u32::MAX {
            for stamps in self.stamps.values_mut() {
                stamps.iter_mut().for_each(|s| *s = 0);
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The blocks in the set, ascending.
    fn iter(&self) -> impl Iterator<Item = BlockNum> + '_ {
        let epoch = self.epoch;
        self.stamps.iter().flat_map(move |(id, stamps)| {
            stamps
                .iter()
                .enumerate()
                .filter(move |(_, s)| **s == epoch)
                .map(move |(offset, _)| join(id, offset))
        })
    }
}

/// One kernel's recorded chaining segment: what a walk that enters the
/// kernel at its start block does, until it meets the end block or runs
/// out of frontier. After a transition the walk's state is a pure
/// function of the kernel's table, so the segment is recorded once per
/// table state and replayed at every transition into the kernel while
/// the table still shows the same stamp.
#[derive(Debug, Clone, Default)]
struct Segment {
    /// Stamp of the table the segment was recorded from; `None` before
    /// the first recording.
    stamp: Option<TableStamp>,
    /// The table's end block at recording. Every discovered block but
    /// this one entered the frontier (the start block always did).
    end: Option<BlockNum>,
    /// Discovered blocks in discovery order, which is emission order;
    /// the start block leads.
    order: Vec<BlockNum>,
    /// `order.len()` after each expansion, in expansion order.
    discovered: Vec<usize>,
    /// True if the last expansion met the end block; false if the
    /// frontier ran dry.
    met_end: bool,
}

impl Segment {
    /// Records the walk of `table` from `start`, using `visited` and
    /// `frontier` as scratch: `frontier` is left empty and `visited`
    /// holds the segment's blocks.
    fn record(
        &mut self,
        table: &BlockCorrelationTable,
        start: BlockNum,
        visited: &mut VisitedSet,
        frontier: &mut VecDeque<BlockNum>,
    ) {
        self.stamp = Some(table.stamp());
        self.end = table.end();
        self.order.clear();
        self.discovered.clear();
        self.met_end = false;
        visited.clear();
        visited.insert(start);
        self.order.push(start);
        frontier.clear();
        frontier.push_back(start);
        while let Some(block) = frontier.pop_front() {
            let order = &mut self.order;
            let met_end = expand(table, block, visited, frontier, |b| order.push(b));
            self.discovered.push(self.order.len());
            if met_end {
                self.met_end = true;
                frontier.clear();
            }
        }
    }

    /// Blocks discovered once `expanded` expansions are done; the
    /// transition itself discovers the start block.
    fn known(&self, expanded: usize) -> usize {
        match expanded {
            0 => 1,
            e => self.discovered[e - 1],
        }
    }

    /// The frontier once `expanded` expansions are done: the discovered
    /// blocks that entered it, less the `expanded` already taken. Empty
    /// once a transition is pending (meeting the end block clears it).
    fn frontier(
        &self,
        expanded: usize,
        pending_transition: bool,
    ) -> impl Iterator<Item = BlockNum> + '_ {
        let end = self.end;
        let live = if pending_transition { 0 } else { usize::MAX };
        self.order[..self.known(expanded)]
            .iter()
            .enumerate()
            .filter(move |&(i, &b)| i == 0 || Some(b) != end)
            .map(|(_, &b)| b)
            .skip(expanded)
            .take(live)
    }
}

/// How far the replay of the current kernel's segment has got: the
/// blocks emitted and the expansions the live walk would have made.
#[derive(Debug, Clone, Copy, Default)]
struct Replay {
    emitted: usize,
    expanded: usize,
}

/// Expands `block`: each successor not yet visited is discovered (handed
/// to `discover`) and, unless it is the end block, queued for expansion.
/// Returns true if the end block is among the successors. Meeting it
/// stops expansion for this kernel — but the successors met so far
/// (including the end block itself) are still prefetched, as in the
/// paper's Fig. 7 walk-through.
fn expand(
    table: &BlockCorrelationTable,
    block: BlockNum,
    visited: &mut VisitedSet,
    frontier: &mut VecDeque<BlockNum>,
    mut discover: impl FnMut(BlockNum),
) -> bool {
    let end = table.end();
    let mut met_end = false;
    for &succ in table.successors(block) {
        let is_end = end == Some(succ);
        met_end |= is_end;
        if visited.insert(succ) {
            discover(succ);
            if !is_end {
                frontier.push_back(succ);
            }
        }
    }
    met_end
}

/// Writes a block list of `len` blocks, length first.
fn write_blocks(w: &mut SnapshotWriter, len: usize, blocks: impl Iterator<Item = BlockNum>) {
    w.u64(deepum_mem::u64_from_usize(len));
    for b in blocks {
        w.block(b);
    }
}

/// State of one chaining walk, (re)started at every page-fault batch.
///
/// The driver keeps one walk and [`ChainWalk::restart`]s it in place, so
/// its queues, visited set and recorded segments keep their storage
/// across fault batches. The segment from the faulted block is walked
/// live; every segment after a kernel transition is replayed from the
/// predicted kernel's recorded [`Segment`] and walked live again only
/// from the point where that kernel's table changes under the replay.
#[derive(Debug, Clone)]
pub struct ChainWalk {
    exec: ExecId,
    history: [ExecId; 3],
    origin: BlockNum,
    seeded: bool,
    pending_transition: bool,
    paused: bool,
    ended: bool,
    kernels_ahead: usize,
    /// Blocks discovered but not yet handed to the prefetch queue.
    emit_q: VecDeque<BlockNum>,
    /// Blocks whose successors have not been expanded yet.
    frontier: VecDeque<BlockNum>,
    visited: VisitedSet,
    /// Recorded segments, indexed by execution ID.
    segments: Vec<Segment>,
    /// Set while `segments[exec]` is replayed. `emit_q` and `frontier`
    /// are then empty and `visited` is scratch: the live walk's state is
    /// a function of this position and the segment.
    replay: Option<Replay>,
}

impl ChainWalk {
    /// Starts a walk at `fault_block`, the most recently faulted block of
    /// the kernel with execution ID `exec`; `history` is the three
    /// kernels that ran before `exec` (oldest first).
    pub fn new(exec: ExecId, history: [ExecId; 3], fault_block: BlockNum) -> Self {
        let mut walk = ChainWalk {
            exec,
            history,
            origin: fault_block,
            seeded: false,
            pending_transition: false,
            paused: false,
            ended: false,
            kernels_ahead: 0,
            emit_q: VecDeque::new(),
            frontier: VecDeque::new(),
            visited: VisitedSet::new(),
            segments: Vec::new(), // deepum-tidy: allow(hot-path-alloc) -- empty until a transition records a segment; no heap allocation
            replay: None,
        };
        walk.visited.insert(fault_block);
        walk
    }

    /// Restarts the walk in place at `fault_block`, exactly as
    /// [`ChainWalk::new`] would start it, but keeping the storage of its
    /// queues and visited set and the recorded segments.
    pub fn restart(&mut self, exec: ExecId, history: [ExecId; 3], fault_block: BlockNum) {
        self.exec = exec;
        self.history = history;
        self.origin = fault_block;
        self.seeded = false;
        self.pending_transition = false;
        self.paused = false;
        self.ended = false;
        self.kernels_ahead = 0;
        self.emit_q.clear();
        self.frontier.clear();
        self.visited.clear();
        self.visited.insert(fault_block);
        self.replay = None;
    }

    /// How many kernel transitions the walk has made beyond the currently
    /// executing kernel.
    pub fn kernels_ahead(&self) -> usize {
        self.kernels_ahead
    }

    /// True if the walk hit the look-ahead bound.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// True if the walk can never produce more commands.
    pub fn is_ended(&self) -> bool {
        self.ended
    }

    /// Slides the look-ahead window after a kernel transition on the GPU:
    /// un-pauses the walk and decrements the ahead count.
    pub fn on_kernel_advanced(&mut self) {
        self.kernels_ahead = self.kernels_ahead.saturating_sub(1);
        self.paused = false;
    }

    /// Advances the walk by one step.
    ///
    /// `block_tables` is indexed by execution ID (`None` = table not yet
    /// allocated); `max_ahead` is the prefetch degree `N`.
    pub fn step(
        &mut self,
        block_tables: &[Option<BlockCorrelationTable>],
        exec_table: &ExecCorrelationTable,
        max_ahead: usize,
    ) -> ChainStep {
        if self.ended {
            return ChainStep::Ended;
        }
        if self.paused {
            return ChainStep::Paused;
        }
        if let Some(step) = self.replay_step(block_tables, exec_table, max_ahead) {
            return step;
        }
        loop {
            // Discovered blocks go out first.
            if let Some(block) = self.emit_q.pop_front() {
                return ChainStep::Emit(PrefetchCommand {
                    block,
                    exec: self.exec,
                });
            }
            if self.pending_transition {
                return self.transition(block_tables, exec_table, max_ahead);
            }

            let Some(table) = table_of(block_tables, self.exec) else {
                self.ended = true;
                return ChainStep::Ended;
            };

            // Pick the next block whose successors to expand.
            let block = if !self.seeded {
                self.seeded = true;
                self.origin
            } else {
                match self.frontier.pop_front() {
                    Some(b) => b,
                    None => {
                        // This kernel's recorded pattern is walked out
                        // without meeting the end block (its start/end
                        // anchors were rewritten by a residual-fault
                        // execution). Hop to the predicted next kernel —
                        // the chain only truly ends on prediction failure.
                        self.pending_transition = true;
                        continue;
                    }
                }
            };

            let emit_q = &mut self.emit_q;
            if expand(table, block, &mut self.visited, &mut self.frontier, |b| {
                emit_q.push_back(b);
            }) {
                self.pending_transition = true;
                self.frontier.clear();
            }
        }
    }

    /// Steps a replayed segment exactly as the live walk would step it.
    /// The table is read only where the live walk would expand a block,
    /// to check the segment's stamp; if the table has changed, the live
    /// state is rebuilt there and `None` hands the step to the live
    /// walk. `None` too when no segment is being replayed.
    fn replay_step(
        &mut self,
        block_tables: &[Option<BlockCorrelationTable>],
        exec_table: &ExecCorrelationTable,
        max_ahead: usize,
    ) -> Option<ChainStep> {
        loop {
            let replay = self.replay.as_mut()?;
            let seg = &self.segments[self.exec.index()];
            if replay.emitted < seg.known(replay.expanded) {
                let block = seg.order[replay.emitted];
                replay.emitted += 1;
                return Some(ChainStep::Emit(PrefetchCommand {
                    block,
                    exec: self.exec,
                }));
            }
            if self.pending_transition {
                return Some(self.transition(block_tables, exec_table, max_ahead));
            }
            if table_of(block_tables, self.exec).map(BlockCorrelationTable::stamp) != seg.stamp {
                self.rebuild();
                return None;
            }
            if replay.expanded < seg.discovered.len() {
                replay.expanded += 1;
                self.pending_transition = seg.met_end && replay.expanded == seg.discovered.len();
            } else {
                self.pending_transition = true;
            }
        }
    }

    /// Ends the replay, rebuilding `visited`, `emit_q` and `frontier` as
    /// the live walk would hold them at this point of the segment.
    fn rebuild(&mut self) {
        let Some(replay) = self.replay.take() else {
            return;
        };
        let seg = &self.segments[self.exec.index()];
        let known = seg.known(replay.expanded);
        self.visited.clear();
        for &b in &seg.order[..known] {
            self.visited.insert(b);
        }
        self.emit_q.extend(&seg.order[replay.emitted..known]);
        self.frontier
            .extend(seg.frontier(replay.expanded, self.pending_transition));
    }

    /// Writes the whole walk state into a checkpoint payload; block lists
    /// keep their queue order so a restored walk resumes identically. A
    /// replayed walk writes the live state its replay stands for, so the
    /// bytes never show whether a segment was replayed.
    pub(crate) fn encode_into(&self, w: &mut SnapshotWriter) {
        w.u32(self.exec.0);
        for h in self.history {
            w.u32(h.0);
        }
        w.block(self.origin);
        w.bool(self.seeded);
        w.bool(self.pending_transition);
        w.bool(self.paused);
        w.bool(self.ended);
        w.u64(deepum_mem::u64_from_usize(self.kernels_ahead));
        let Some(replay) = self.replay else {
            for list in [&self.emit_q, &self.frontier] {
                write_blocks(w, list.len(), list.iter().copied());
            }
            write_blocks(w, self.visited.len(), self.visited.iter());
            return;
        };
        let seg = &self.segments[self.exec.index()];
        let known = seg.known(replay.expanded);
        let emit_q = &seg.order[replay.emitted..known];
        write_blocks(w, emit_q.len(), emit_q.iter().copied());
        let frontier = || seg.frontier(replay.expanded, self.pending_transition);
        write_blocks(w, frontier().count(), frontier());
        // The visited set iterates in ascending block order. Only a
        // checkpoint of a replayed walk pays for this copy.
        let mut visited = seg.order[..known].to_vec();
        visited.sort_unstable();
        write_blocks(w, visited.len(), visited.into_iter());
    }

    /// Reads a walk written by [`ChainWalk::encode_into`]; it resumes
    /// live, with no recorded segments.
    pub(crate) fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let exec = ExecId(r.u32()?);
        let mut history = [ExecId(0); 3];
        for h in &mut history {
            *h = ExecId(r.u32()?);
        }
        let origin = r.block()?;
        let seeded = r.bool()?;
        let pending_transition = r.bool()?;
        let paused = r.bool()?;
        let ended = r.bool()?;
        let kernels_ahead = usize::try_from(r.u64()?)
            .map_err(|_| SnapshotError::Corrupt("kernels_ahead overflows usize".to_string()))?;
        let mut emit_q = VecDeque::new();
        for _ in 0..r.len_prefix(8)? {
            emit_q.push_back(r.block()?);
        }
        let mut frontier = VecDeque::new();
        for _ in 0..r.len_prefix(8)? {
            frontier.push_back(r.block()?);
        }
        let mut visited = VisitedSet::new();
        for _ in 0..r.len_prefix(8)? {
            visited.insert(r.block()?);
        }
        Ok(ChainWalk {
            exec,
            history,
            origin,
            seeded,
            pending_transition,
            paused,
            ended,
            kernels_ahead,
            emit_q,
            frontier,
            visited,
            segments: Vec::new(), // deepum-tidy: allow(hot-path-alloc) -- empty until a transition records a segment; no heap allocation
            replay: None,
        })
    }

    fn transition(
        &mut self,
        block_tables: &[Option<BlockCorrelationTable>],
        exec_table: &ExecCorrelationTable,
        max_ahead: usize,
    ) -> ChainStep {
        if self.kernels_ahead >= max_ahead {
            self.paused = true;
            return ChainStep::Paused;
        }
        let Some(predicted) = exec_table.predict(self.exec, self.history) else {
            self.ended = true;
            return ChainStep::Ended;
        };
        self.history = [self.history[1], self.history[2], self.exec];
        self.exec = predicted;
        self.kernels_ahead += 1;
        self.pending_transition = false;
        self.seeded = true;
        self.frontier.clear();
        self.emit_q.clear();
        self.visited.clear();
        self.replay = None;

        match table_of(block_tables, predicted).and_then(|t| Some((t, t.start()?))) {
            Some((table, start)) => {
                let idx = predicted.index();
                if self.segments.len() <= idx {
                    self.segments.resize_with(idx + 1, Segment::default);
                }
                let seg = &mut self.segments[idx];
                if seg.stamp != Some(table.stamp()) {
                    seg.record(table, start, &mut self.visited, &mut self.frontier);
                }
                self.replay = Some(Replay::default());
            }
            None => {
                // The predicted kernel has never faulted (its working
                // set is always resident): nothing to prefetch for it —
                // hop onwards at the next step instead of ending.
                self.pending_transition = true;
            }
        }
        ChainStep::Transition {
            predicted,
            ahead: self.kernels_ahead,
        }
    }
}

fn table_of(
    tables: &[Option<BlockCorrelationTable>],
    exec: ExecId,
) -> Option<&BlockCorrelationTable> {
    tables.get(exec.index()).and_then(Option::as_ref)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u64) -> BlockNum {
        BlockNum::new(i)
    }
    const fn e(i: u32) -> ExecId {
        ExecId(i)
    }

    /// Builds the Fig. 7 tables: exec 0 over blocks a..q, exec 1 starting
    /// at k.
    pub(super) fn fig7() -> (Vec<Option<BlockCorrelationTable>>, ExecCorrelationTable) {
        let (a, bb, c, d, ee, p, q) = (1, 2, 3, 4, 5, 16, 17);
        let mut t0 = BlockCorrelationTable::new(64, 2, 4);
        t0.record_pair(b(a), b(bb));
        t0.record_pair(b(a), b(p));
        t0.record_pair(b(bb), b(ee));
        t0.record_pair(b(bb), b(q));
        t0.record_pair(b(c), b(d));
        t0.set_start(b(a));
        t0.set_end(b(q));

        let (f, g, k, n, tt, u, i) = (6, 7, 11, 14, 20, 21, 9);
        let mut t1 = BlockCorrelationTable::new(64, 2, 4);
        t1.record_pair(b(f), b(ee));
        t1.record_pair(b(f), b(u));
        t1.record_pair(b(g), b(tt));
        t1.record_pair(b(g), b(i));
        t1.record_pair(b(k), b(g));
        t1.record_pair(b(k), b(n));
        t1.set_start(b(k));
        t1.set_end(b(u));

        let mut exec = ExecCorrelationTable::new();
        // After context [10,11,12], exec 0 is followed by exec 1.
        exec.record(e(0), [e(10), e(11), e(12)], e(1));
        (vec![Some(t0), Some(t1)], exec)
    }

    fn drain(
        walk: &mut ChainWalk,
        tables: &[Option<BlockCorrelationTable>],
        exec: &ExecCorrelationTable,
        max_ahead: usize,
        max_steps: usize,
    ) -> Vec<ChainStep> {
        let mut out = Vec::new();
        for _ in 0..max_steps {
            let s = walk.step(tables, exec, max_ahead);
            let stop = matches!(s, ChainStep::Paused | ChainStep::Ended);
            out.push(s);
            if stop {
                break;
            }
        }
        out
    }

    #[test]
    fn walks_successors_then_chains_to_next_kernel() {
        let (tables, exec) = fig7();
        // Fault on block b (=2) while exec 0 runs after [10,11,12].
        let mut walk = ChainWalk::new(e(0), [e(10), e(11), e(12)], b(2));
        let steps = drain(&mut walk, &tables, &exec, 8, 32);

        // Successors of b are e and q; q is exec 0's end block, so after
        // emitting q the walk hops to exec 1 and starts at k.
        let emitted: Vec<u64> = steps
            .iter()
            .filter_map(|s| match s {
                ChainStep::Emit(cmd) => Some(cmd.block.index()),
                _ => None,
            })
            .collect();
        // Successors of b in MRU order: q (most recent), then e; both are
        // prefetched even though q is the end block.
        assert!(emitted.starts_with(&[17, 5, 11]), "emitted: {emitted:?}");
        assert!(
            steps.contains(&ChainStep::Transition {
                predicted: e(1),
                ahead: 1
            }),
            "steps: {steps:?}"
        );
        // After the hop, k then its successors g, n, then g's (t, i).
        assert!(emitted.contains(&11), "k prefetched: {emitted:?}");
        assert!(emitted.contains(&7) && emitted.contains(&14));
    }

    #[test]
    fn prediction_failure_ends_chain() {
        let (tables, exec) = fig7();
        // Unknown context: exec prediction fails at the transition.
        let mut walk = ChainWalk::new(e(0), [e(1), e(2), e(3)], b(2));
        let steps = drain(&mut walk, &tables, &exec, 8, 32);
        assert_eq!(*steps.last().unwrap(), ChainStep::Ended);
        assert!(walk.is_ended());
        assert!(!steps
            .iter()
            .any(|s| matches!(s, ChainStep::Transition { .. })));
    }

    #[test]
    fn pauses_at_look_ahead_bound_and_resumes() {
        let (tables, exec) = fig7();
        let mut walk = ChainWalk::new(e(0), [e(10), e(11), e(12)], b(2));
        // max_ahead = 0: the walk may emit within the current kernel but
        // must pause at the first transition.
        let steps = drain(&mut walk, &tables, &exec, 0, 32);
        assert_eq!(*steps.last().unwrap(), ChainStep::Paused);
        assert!(walk.is_paused());
        assert_eq!(walk.kernels_ahead(), 0);

        // The GPU finishes the kernel: window slides, walk resumes and
        // performs the transition.
        walk.on_kernel_advanced();
        let step = walk.step(&tables, &exec, 1);
        assert!(matches!(step, ChainStep::Transition { predicted, .. } if predicted == e(1)));
    }

    #[test]
    fn missing_table_ends_immediately() {
        let exec = ExecCorrelationTable::new();
        let tables: Vec<Option<BlockCorrelationTable>> = vec![None];
        let mut walk = ChainWalk::new(e(0), [e(0); 3], b(1));
        assert_eq!(walk.step(&tables, &exec, 8), ChainStep::Ended);
    }

    #[test]
    fn origin_is_never_emitted() {
        let (tables, exec) = fig7();
        let mut walk = ChainWalk::new(e(0), [e(10), e(11), e(12)], b(2));
        let steps = drain(&mut walk, &tables, &exec, 8, 64);
        assert!(steps.iter().all(|s| !matches!(
            s,
            ChainStep::Emit(cmd) if cmd.block == b(2) && cmd.exec == e(0)
        )));
    }

    #[test]
    fn fault_on_end_block_transitions_without_emitting() {
        let (tables, exec) = fig7();
        // Fault directly on q, exec 0's end block.
        let mut walk = ChainWalk::new(e(0), [e(10), e(11), e(12)], b(17));
        let first = walk.step(&tables, &exec, 8);
        assert!(matches!(first, ChainStep::Transition { predicted, .. } if predicted == e(1)));
    }

    #[test]
    fn commands_carry_predicted_exec_id() {
        let (tables, exec) = fig7();
        let mut walk = ChainWalk::new(e(0), [e(10), e(11), e(12)], b(2));
        let steps = drain(&mut walk, &tables, &exec, 8, 64);
        let k_cmd = steps
            .iter()
            .find_map(|s| match s {
                ChainStep::Emit(cmd) if cmd.block == b(11) => Some(*cmd),
                _ => None,
            })
            .expect("k prefetched");
        assert_eq!(k_cmd.exec, e(1));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    fn b(i: u64) -> BlockNum {
        BlockNum::new(i)
    }
    const fn e(i: u32) -> ExecId {
        ExecId(i)
    }

    /// A two-kernel ring: exec 0 walks blocks 0->1->2, exec 1 walks
    /// 10->11, and each predicts the other.
    pub(super) fn ring() -> (Vec<Option<BlockCorrelationTable>>, ExecCorrelationTable) {
        let mut t0 = BlockCorrelationTable::new(64, 2, 4);
        t0.record_pair(b(0), b(1));
        t0.record_pair(b(1), b(2));
        t0.set_start(b(0));
        t0.set_end(b(2));
        let mut t1 = BlockCorrelationTable::new(64, 2, 4);
        t1.record_pair(b(10), b(11));
        t1.set_start(b(10));
        t1.set_end(b(11));
        let mut exec = ExecCorrelationTable::new();
        exec.record(e(0), [e(1), e(0), e(1)], e(1));
        exec.record(e(1), [e(0), e(1), e(0)], e(0));
        (vec![Some(t0), Some(t1)], exec)
    }

    #[test]
    fn ring_walk_is_bounded_by_max_ahead() {
        let (tables, exec) = ring();
        let mut walk = ChainWalk::new(e(0), [e(1), e(0), e(1)], b(0));
        let mut transitions = 0;
        for _ in 0..10_000 {
            match walk.step(&tables, &exec, 6) {
                ChainStep::Transition { .. } => transitions += 1,
                ChainStep::Paused => break,
                ChainStep::Ended => panic!("ring should pause, not end"),
                ChainStep::Emit(_) => {}
            }
        }
        assert_eq!(transitions, 6);
        assert_eq!(walk.kernels_ahead(), 6);
    }

    #[test]
    fn window_slide_resumes_a_paused_ring() {
        let (tables, exec) = ring();
        let mut walk = ChainWalk::new(e(0), [e(1), e(0), e(1)], b(0));
        while !matches!(walk.step(&tables, &exec, 2), ChainStep::Paused) {}
        assert!(walk.is_paused());
        walk.on_kernel_advanced();
        assert!(!walk.is_paused());
        // Progress continues: the next steps transition again.
        let mut advanced = false;
        for _ in 0..100 {
            match walk.step(&tables, &exec, 2) {
                ChainStep::Transition { .. } => {
                    advanced = true;
                    break;
                }
                ChainStep::Paused => break,
                ChainStep::Ended => panic!("ring ended"),
                ChainStep::Emit(_) => {}
            }
        }
        assert!(advanced);
    }

    #[test]
    fn steps_after_end_stay_ended() {
        let exec = ExecCorrelationTable::new();
        let tables: Vec<Option<BlockCorrelationTable>> = vec![None];
        let mut walk = ChainWalk::new(e(0), [e(0); 3], b(1));
        assert_eq!(walk.step(&tables, &exec, 4), ChainStep::Ended);
        assert_eq!(walk.step(&tables, &exec, 4), ChainStep::Ended);
        assert!(walk.is_ended());
    }

    #[test]
    fn zero_max_ahead_stays_within_current_kernel() {
        let (tables, exec) = ring();
        let mut walk = ChainWalk::new(e(0), [e(1), e(0), e(1)], b(0));
        let mut emitted = Vec::new();
        loop {
            match walk.step(&tables, &exec, 0) {
                ChainStep::Emit(cmd) => emitted.push(cmd.block.index()),
                ChainStep::Transition { .. } => panic!("must not cross kernels"),
                ChainStep::Paused | ChainStep::Ended => break,
            }
        }
        assert_eq!(emitted, vec![1, 2]);
    }
}

/// `ChainWalk::restart` against a fresh `ChainWalk::new`: one reused
/// walk, restarted mid-walk over and over, must step and encode exactly
/// like a walk built from scratch at every restart.
#[cfg(test)]
mod restart_tests {
    use deepum_mem::stripe::STRIPE_BLOCK_SHIFT;
    use deepum_sim::rng::DetRng;

    use super::*;

    pub(super) type Tables = (Vec<Option<BlockCorrelationTable>>, ExecCorrelationTable);

    pub(super) fn encoded(walk: &ChainWalk) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        walk.encode_into(&mut w);
        w.finish()
    }

    /// A block in one of two VA stripes.
    pub(super) fn block(rng: &mut DetRng) -> BlockNum {
        let stripe = rng.below(2) * 5;
        BlockNum::new((stripe << STRIPE_BLOCK_SHIFT) + rng.below(48))
    }

    pub(super) fn pick<T: Copy>(rng: &mut DetRng, items: &[T]) -> T {
        items[usize::try_from(rng.below(items.len() as u64)).unwrap()]
    }

    /// Seeded random tables over four kernels: a random launch sequence
    /// fills the execution table, and each kernel's block table (one is
    /// sometimes missing) gets random pairs and anchors. Returns the
    /// tables and the (exec, history) contexts the sequence visited.
    pub(super) fn random_tables(rng: &mut DetRng) -> (Tables, Vec<(ExecId, [ExecId; 3])>) {
        const KERNELS: u32 = 4;
        let mut seq: Vec<ExecId> = (0..3).map(ExecId).collect();
        for _ in 0..40 {
            seq.push(ExecId(
                u32::try_from(rng.below(u64::from(KERNELS))).unwrap(),
            ));
        }
        let mut exec = ExecCorrelationTable::new();
        let mut contexts = Vec::new();
        for w in seq.windows(5) {
            let history = [w[0], w[1], w[2]];
            exec.record(w[3], history, w[4]);
            contexts.push((w[3], history));
        }
        let missing = rng.below(u64::from(KERNELS) + 1);
        let tables = (0..u64::from(KERNELS))
            .map(|k| {
                if k == missing {
                    return None;
                }
                let mut t = BlockCorrelationTable::new(16, 2, 3);
                for _ in 0..60 {
                    let (from, to) = (block(rng), block(rng));
                    t.record_pair(from, to);
                }
                if rng.below(4) != 0 {
                    t.set_start(block(rng));
                }
                if rng.below(4) != 0 {
                    t.set_end(block(rng));
                }
                Some(t)
            })
            .collect();
        ((tables, exec), contexts)
    }

    /// Restarts one walk `restarts` times at random contexts and fault
    /// blocks, stepping it in lockstep with a fresh walk for a random
    /// number of steps (so most restarts land mid-walk) and comparing
    /// every step and, at random points, the encoded state. Returns how
    /// many emits and kernel transitions the walks made.
    fn check_restart_matches_new(
        (tables, exec): &Tables,
        contexts: &[(ExecId, [ExecId; 3])],
        blocks: &[BlockNum],
        rng: &mut DetRng,
        restarts: usize,
    ) -> (usize, usize) {
        let (mut emits, mut transitions) = (0, 0);
        let (exec0, history0) = contexts[0];
        let mut reused = ChainWalk::new(exec0, history0, blocks[0]);
        for _ in 0..restarts {
            let (cur, history) = pick(rng, contexts);
            let fault = pick(rng, blocks);
            let mut fresh = ChainWalk::new(cur, history, fault);
            reused.restart(cur, history, fault);
            assert_eq!(encoded(&reused), encoded(&fresh));
            let max_ahead = usize::try_from(rng.below(4)).unwrap();
            for _ in 0..rng.below(80) {
                if rng.below(10) == 0 {
                    fresh.on_kernel_advanced();
                    reused.on_kernel_advanced();
                }
                let step = fresh.step(tables, exec, max_ahead);
                assert_eq!(reused.step(tables, exec, max_ahead), step);
                match step {
                    ChainStep::Emit(_) => emits += 1,
                    ChainStep::Transition { .. } => transitions += 1,
                    ChainStep::Paused | ChainStep::Ended => {}
                }
                if rng.below(8) == 0 {
                    assert_eq!(encoded(&reused), encoded(&fresh));
                }
            }
            assert_eq!(encoded(&reused), encoded(&fresh));
        }
        (emits, transitions)
    }

    #[test]
    fn restart_matches_new_on_fig7() {
        let (tables, exec) = super::tests::fig7();
        let contexts = [
            (ExecId(0), [ExecId(10), ExecId(11), ExecId(12)]),
            (ExecId(1), [ExecId(11), ExecId(12), ExecId(0)]),
            (ExecId(0), [ExecId(1), ExecId(2), ExecId(3)]),
        ];
        let blocks: Vec<BlockNum> = (0..24).map(BlockNum::new).collect();
        let mut rng = DetRng::seed(7);
        let (emits, transitions) =
            check_restart_matches_new(&(tables, exec), &contexts, &blocks, &mut rng, 200);
        assert!(
            emits > 200 && transitions > 20,
            "{emits} emits, {transitions} transitions"
        );
    }

    #[test]
    fn restart_matches_new_on_ring() {
        let (tables, exec) = super::more_tests::ring();
        let contexts = [
            (ExecId(0), [ExecId(1), ExecId(0), ExecId(1)]),
            (ExecId(1), [ExecId(0), ExecId(1), ExecId(0)]),
        ];
        let blocks: Vec<BlockNum> = [0, 1, 2, 10, 11, 12].map(BlockNum::new).to_vec();
        let mut rng = DetRng::seed(11);
        let (emits, transitions) =
            check_restart_matches_new(&(tables, exec), &contexts, &blocks, &mut rng, 200);
        assert!(
            emits > 200 && transitions > 20,
            "{emits} emits, {transitions} transitions"
        );
    }

    #[test]
    fn restart_matches_new_on_random_tables() {
        let (mut emits, mut transitions) = (0, 0);
        for seed in 0..24 {
            let mut rng = DetRng::seed(seed);
            let (tables, contexts) = random_tables(&mut rng);
            let blocks: Vec<BlockNum> = (0..16).map(|_| block(&mut rng)).collect();
            let (e, t) = check_restart_matches_new(&tables, &contexts, &blocks, &mut rng, 60);
            emits += e;
            transitions += t;
        }
        assert!(
            emits > 2000 && transitions > 200,
            "{emits} emits, {transitions} transitions"
        );
    }

    #[test]
    fn visited_set_survives_epoch_wrap() {
        let mut set = VisitedSet::new();
        set.epoch = u32::MAX - 1;
        let (a, b) = (
            BlockNum::new(3),
            BlockNum::new((1 << STRIPE_BLOCK_SHIFT) + 9),
        );
        assert!(set.insert(a));
        set.clear();
        assert_eq!(set.epoch, u32::MAX);
        assert!(set.insert(b));
        assert!(!set.insert(b));
        set.clear();
        assert_eq!(set.epoch, 1);
        assert_eq!(set.len(), 0);
        assert_eq!(set.iter().count(), 0);
        assert!(set.insert(a) && set.insert(b));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![a, b]);
    }
}

/// The walk as it was before segments were recorded: the reference the
/// replaying walk must match step for step and byte for byte.
#[cfg(test)]
mod reference {
    use super::*;

    /// The walk without recorded segments: every segment is walked live,
    /// breadth first, at every step.
    #[derive(Debug, Clone)]
    pub struct ReferenceWalk {
        exec: ExecId,
        history: [ExecId; 3],
        origin: BlockNum,
        seeded: bool,
        pending_transition: bool,
        paused: bool,
        ended: bool,
        kernels_ahead: usize,
        /// Blocks discovered but not yet handed to the prefetch queue.
        emit_q: VecDeque<BlockNum>,
        /// Blocks whose successors have not been expanded yet.
        frontier: VecDeque<BlockNum>,
        visited: VisitedSet,
    }

    impl ReferenceWalk {
        /// Starts a walk at `fault_block`, the most recently faulted block of
        /// the kernel with execution ID `exec`; `history` is the three
        /// kernels that ran before `exec` (oldest first).
        pub fn new(exec: ExecId, history: [ExecId; 3], fault_block: BlockNum) -> Self {
            let mut walk = ReferenceWalk {
                exec,
                history,
                origin: fault_block,
                seeded: false,
                pending_transition: false,
                paused: false,
                ended: false,
                kernels_ahead: 0,
                emit_q: VecDeque::new(),
                frontier: VecDeque::new(),
                visited: VisitedSet::new(),
            };
            walk.visited.insert(fault_block);
            walk
        }

        /// Slides the look-ahead window after a kernel transition on the GPU:
        /// un-pauses the walk and decrements the ahead count.
        pub fn on_kernel_advanced(&mut self) {
            self.kernels_ahead = self.kernels_ahead.saturating_sub(1);
            self.paused = false;
        }

        /// Advances the walk by one step.
        ///
        /// `block_tables` is indexed by execution ID (`None` = table not yet
        /// allocated); `max_ahead` is the prefetch degree `N`.
        pub fn step(
            &mut self,
            block_tables: &[Option<BlockCorrelationTable>],
            exec_table: &ExecCorrelationTable,
            max_ahead: usize,
        ) -> ChainStep {
            if self.ended {
                return ChainStep::Ended;
            }
            if self.paused {
                return ChainStep::Paused;
            }
            loop {
                // Discovered blocks go out first.
                if let Some(block) = self.emit_q.pop_front() {
                    return ChainStep::Emit(PrefetchCommand {
                        block,
                        exec: self.exec,
                    });
                }
                if self.pending_transition {
                    return self.transition(block_tables, exec_table, max_ahead);
                }

                let Some(table) = table_of(block_tables, self.exec) else {
                    self.ended = true;
                    return ChainStep::Ended;
                };

                // Pick the next block whose successors to expand.
                let block = if !self.seeded {
                    self.seeded = true;
                    self.origin
                } else {
                    match self.frontier.pop_front() {
                        Some(b) => b,
                        None => {
                            // This kernel's recorded pattern is walked out
                            // without meeting the end block (its start/end
                            // anchors were rewritten by a residual-fault
                            // execution). Hop to the predicted next kernel —
                            // the chain only truly ends on prediction failure.
                            self.pending_transition = true;
                            continue;
                        }
                    }
                };

                // Expand: every newly met successor is a prefetch candidate.
                // Meeting the end block stops expansion for this kernel — but
                // the successors met so far (including the end block itself)
                // are still prefetched, as in the paper's Fig. 7 walk-through.
                let mut met_end = false;
                for &succ in table.successors(block) {
                    if self.visited.insert(succ) {
                        self.emit_q.push_back(succ);
                        if table.end() == Some(succ) {
                            met_end = true;
                        } else {
                            self.frontier.push_back(succ);
                        }
                    } else if table.end() == Some(succ) {
                        met_end = true;
                    }
                }
                if met_end {
                    self.pending_transition = true;
                    self.frontier.clear();
                }
            }
        }

        /// Writes the whole walk state into a checkpoint payload; block lists
        /// keep their queue order so a restored walk resumes identically.
        pub(super) fn encode_into(&self, w: &mut SnapshotWriter) {
            w.u32(self.exec.0);
            for h in self.history {
                w.u32(h.0);
            }
            w.block(self.origin);
            w.bool(self.seeded);
            w.bool(self.pending_transition);
            w.bool(self.paused);
            w.bool(self.ended);
            w.u64(deepum_mem::u64_from_usize(self.kernels_ahead));
            for list in [&self.emit_q, &self.frontier] {
                w.u64(deepum_mem::u64_from_usize(list.len()));
                for &b in list {
                    w.block(b);
                }
            }
            w.u64(deepum_mem::u64_from_usize(self.visited.len()));
            for b in self.visited.iter() {
                w.block(b);
            }
        }

        fn transition(
            &mut self,
            block_tables: &[Option<BlockCorrelationTable>],
            exec_table: &ExecCorrelationTable,
            max_ahead: usize,
        ) -> ChainStep {
            if self.kernels_ahead >= max_ahead {
                self.paused = true;
                return ChainStep::Paused;
            }
            let Some(predicted) = exec_table.predict(self.exec, self.history) else {
                self.ended = true;
                return ChainStep::Ended;
            };
            self.history = [self.history[1], self.history[2], self.exec];
            self.exec = predicted;
            self.kernels_ahead += 1;
            self.pending_transition = false;
            self.seeded = true;
            self.frontier.clear();
            self.emit_q.clear();
            self.visited.clear();

            match table_of(block_tables, predicted).and_then(|t| t.start()) {
                Some(start) => {
                    self.visited.insert(start);
                    self.emit_q.push_back(start);
                    self.frontier.push_back(start);
                }
                None => {
                    // The predicted kernel has never faulted (its working
                    // set is always resident): nothing to prefetch for it —
                    // hop onwards at the next step instead of ending.
                    self.pending_transition = true;
                }
            }
            ChainStep::Transition {
                predicted,
                ahead: self.kernels_ahead,
            }
        }
    }
}

/// The segment-replaying walk against the live breadth-first reference,
/// while the tables change under it between steps.
#[cfg(test)]
mod replay_tests {
    use deepum_sim::rng::DetRng;

    use super::reference::ReferenceWalk;
    use super::restart_tests::{block, encoded, pick, random_tables, Tables};
    use super::*;

    fn reference_encoded(walk: &ReferenceWalk) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        walk.encode_into(&mut w);
        w.finish()
    }

    /// What the replaying walk did while it matched the reference.
    #[derive(Debug, Default)]
    struct Seen {
        /// Transitions that replayed a segment recorded earlier.
        hits: usize,
        /// Transitions that recorded their segment.
        records: usize,
        /// Steps that left a replay because its table had changed.
        rebuilds: usize,
        /// Encodings taken while a segment was being replayed.
        replay_encodes: usize,
    }

    /// Runs `ops` random operations on a replaying walk and a reference
    /// walk in lockstep: steps (compared), table updates (`record_pair`,
    /// `set_start`, `set_end`; half of them on the kernel being walked),
    /// restarts, window slides, look-ahead changes (0 to 4) and encodings
    /// (compared).
    fn differential(
        (tables, exec): &mut Tables,
        contexts: &[(ExecId, [ExecId; 3])],
        blocks: &[BlockNum],
        rng: &mut DetRng,
        ops: usize,
        seen: &mut Seen,
    ) {
        let (exec0, history0) = contexts[0];
        let mut walk = ChainWalk::new(exec0, history0, blocks[0]);
        let mut reference = ReferenceWalk::new(exec0, history0, blocks[0]);
        let mut max_ahead = 2;
        for _ in 0..ops {
            match rng.below(100) {
                0..=67 => {
                    let recorded: Vec<_> = walk.segments.iter().map(|s| s.stamp).collect();
                    let replaying = walk.replay.is_some();
                    let step = reference.step(tables, exec, max_ahead);
                    assert_eq!(walk.step(tables, exec, max_ahead), step);
                    match step {
                        ChainStep::Transition { predicted, .. } if walk.replay.is_some() => {
                            let idx = predicted.index();
                            if recorded.get(idx).copied().flatten() == walk.segments[idx].stamp {
                                seen.hits += 1;
                            } else {
                                seen.records += 1;
                            }
                        }
                        ChainStep::Transition { .. } => {}
                        _ if replaying && walk.replay.is_none() => seen.rebuilds += 1,
                        _ => {}
                    }
                }
                68..=74 => {
                    let target = if rng.below(2) == 0 {
                        walk.exec
                    } else {
                        ExecId(u32::try_from(rng.below(tables.len() as u64)).unwrap())
                    };
                    if let Some(t) = tables.get_mut(target.index()).and_then(Option::as_mut) {
                        match rng.below(6) {
                            0 => t.set_start(pick(rng, blocks)),
                            1 => t.set_end(pick(rng, blocks)),
                            _ => t.record_pair(pick(rng, blocks), pick(rng, blocks)),
                        }
                    }
                }
                75..=82 => {
                    let (cur, history) = pick(rng, contexts);
                    let fault = pick(rng, blocks);
                    walk.restart(cur, history, fault);
                    reference = ReferenceWalk::new(cur, history, fault);
                }
                83..=90 => {
                    walk.on_kernel_advanced();
                    reference.on_kernel_advanced();
                }
                91..=94 => max_ahead = usize::try_from(rng.below(5)).unwrap(),
                _ => {
                    if walk.replay.is_some() {
                        seen.replay_encodes += 1;
                    }
                    assert_eq!(encoded(&walk), reference_encoded(&reference));
                }
            }
        }
        assert_eq!(encoded(&walk), reference_encoded(&reference));
    }

    fn assert_all_paths(seen: &Seen) {
        assert!(
            seen.hits > 20 && seen.records > 20 && seen.rebuilds > 5 && seen.replay_encodes > 5,
            "{seen:?}"
        );
    }

    #[test]
    fn replay_matches_reference_on_fig7() {
        let mut tables = super::tests::fig7();
        let contexts = [
            (ExecId(0), [ExecId(10), ExecId(11), ExecId(12)]),
            (ExecId(1), [ExecId(11), ExecId(12), ExecId(0)]),
            (ExecId(0), [ExecId(1), ExecId(2), ExecId(3)]),
        ];
        let blocks: Vec<BlockNum> = (0..24).map(BlockNum::new).collect();
        let mut rng = DetRng::seed(3);
        let mut seen = Seen::default();
        differential(&mut tables, &contexts, &blocks, &mut rng, 50_000, &mut seen);
        assert_all_paths(&seen);
    }

    #[test]
    fn replay_matches_reference_on_ring() {
        let mut tables = super::more_tests::ring();
        let contexts = [
            (ExecId(0), [ExecId(1), ExecId(0), ExecId(1)]),
            (ExecId(1), [ExecId(0), ExecId(1), ExecId(0)]),
        ];
        let blocks: Vec<BlockNum> = [0, 1, 2, 3, 10, 11, 12, 13].map(BlockNum::new).to_vec();
        let mut rng = DetRng::seed(5);
        let mut seen = Seen::default();
        differential(&mut tables, &contexts, &blocks, &mut rng, 20_000, &mut seen);
        assert_all_paths(&seen);
    }

    #[test]
    fn replay_matches_reference_on_random_tables() {
        let mut seen = Seen::default();
        for seed in 0..24 {
            let mut rng = DetRng::seed(100 + seed);
            let (mut tables, contexts) = random_tables(&mut rng);
            let blocks: Vec<BlockNum> = (0..16).map(|_| block(&mut rng)).collect();
            differential(&mut tables, &contexts, &blocks, &mut rng, 3_000, &mut seen);
        }
        assert_all_paths(&seen);
    }
}
