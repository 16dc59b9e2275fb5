//! [`EdgeStore`]: the single edge store behind a [`GridGraph`](crate::GridGraph).
//!
//! The layout is the paper's §3.4 edge memory taken literally — block
//! headers plus one contiguous edge array — with the headers kept *sparse*:
//!
//! * **Columns.** `src`/`dst`/`weight` in destination-major block order
//!   (destination interval, then source interval) — the order Algorithm 2's
//!   processing units walk them, so a PU's blocks are mostly one contiguous
//!   stream; inside a block, edges keep edge-list order. Built by a stable
//!   two-pass counting sort (by source interval, then by destination
//!   interval) in O(E + P).
//! * **Block index.** One offset per destination interval (its column of
//!   blocks), then one (source interval, column start) pair per *non-empty*
//!   block. Empty blocks cost nothing, so memory is O(E + P) for any `P` —
//!   including the pathological `P = |V|`.
//! * **In-place updates.** §5 writes land where the edge lives: an added
//!   edge fills its block's next dead column slot, and a deleted edge is
//!   overwritten by the block's last edge, directly in the columns. A small
//!   overlay keeps, per *touched* block, its live length, the edges
//!   appended past its column slots (its tail) and its reserved capacity —
//!   in a slot per indexed block (allocated on the first update) or, for
//!   blocks the index does not list, in a map. Reads see a block as its
//!   live column slots followed by its tail, and
//!   [`compacted`](EdgeStore::compacted) folds the tails into fresh columns.

use crate::edgelist::EdgeList;
use crate::partition::{BlockId, IntervalPartition};
use crate::types::{Edge, VertexId};
use std::collections::HashMap;
use std::ops::Range;

/// Fraction of extra capacity reserved per block for future insertions
/// (§5: "e.g., 30% of a block size").
pub const DEFAULT_RESERVE_FRACTION: f64 = 0.30;

/// The edge columns, destination-major by block, in one buffer: `src` in
/// `[0, n)`, `dst` in `[n, 2n)` and the weights' bits in `[2n, 3n)`.
#[derive(Debug, Clone, Default)]
struct Columns {
    data: Vec<u32>,
    n: usize,
}

/// The edge a column slot holds.
fn edge(src: u32, dst: u32, weight: u32) -> Edge {
    Edge::with_weight(src, dst, f32::from_bits(weight))
}

/// An edge as a `(src, dst, weight bits)` triple.
fn triple(e: &Edge) -> [u32; 3] {
    [e.src.raw(), e.dst.raw(), e.weight.to_bits()]
}

impl Columns {
    /// Transposes edge triples into columns, in `buffer`'s memory.
    fn transpose(triples: &[[u32; 3]], mut buffer: Vec<u32>) -> Self {
        let n = triples.len();
        buffer.resize(3 * n, 0);
        let (src, rest) = buffer.split_at_mut(n);
        let (dst, weight) = rest.split_at_mut(n);
        let columns = src.iter_mut().zip(dst.iter_mut()).zip(weight.iter_mut());
        for (((s, d), w), t) in columns.zip(triples) {
            (*s, *d, *w) = (t[0], t[1], t[2]);
        }
        Columns { data: buffer, n }
    }

    fn src(&self) -> &[u32] {
        &self.data[..self.n]
    }

    fn dst(&self) -> &[u32] {
        &self.data[self.n..2 * self.n]
    }

    /// The edge in slot `i`.
    fn get(&self, i: usize) -> Edge {
        let n = self.n;
        edge(self.data[i], self.data[n + i], self.data[2 * n + i])
    }

    /// Overwrites slot `i` with `e`.
    fn set(&mut self, i: usize, e: &Edge) {
        let n = self.n;
        [self.data[i], self.data[n + i], self.data[2 * n + i]] = triple(e);
    }

    /// The edges in slots `range`, by value.
    fn edges(&self, range: Range<usize>) -> impl Iterator<Item = Edge> + '_ {
        let n = self.n;
        let at = |k: usize| &self.data[k * n + range.start..k * n + range.end];
        at(0)
            .iter()
            .zip(at(1))
            .zip(at(2))
            .map(|((&s, &d), &w)| edge(s, d, w))
    }

    /// A block's edges: the first `len` of its column slots `base`, then
    /// `tail`.
    fn view<'a>(&'a self, base: Range<usize>, touched: Option<&'a TouchedBlock>) -> BlockEdges<'a> {
        let (len, tail) = touched.map_or((base.len(), &[][..]), |t| {
            (t.len.min(base.len()), &t.tail[..])
        });
        BlockEdges {
            cols: self,
            slots: base.start..base.start + len,
            tail: tail.iter(),
        }
    }
}

/// §5 state of a block written since its columns were laid out. Writes to
/// the block's own column slots go straight into the columns; only what
/// does not fit there lives here.
#[derive(Debug, Clone)]
struct TouchedBlock {
    /// Current edge count; column slots at `len..` are dead.
    len: usize,
    /// The edges appended past the block's column slots.
    tail: Vec<Edge>,
    /// Capacity laid out for the block (edges + slack).
    reserved: usize,
}

impl TouchedBlock {
    /// A block laid out with `len` column slots.
    fn new(len: usize) -> Self {
        let slack = (len as f64 * DEFAULT_RESERVE_FRACTION).ceil() as usize;
        TouchedBlock {
            len,
            tail: Vec::new(),
            // Even empty blocks get a minimal slot so additions stay O(1).
            reserved: (len + slack).max(4),
        }
    }

    /// Appends an edge into the block's next dead column slot, else its
    /// tail: `true` if it fit the reserved space, `false` if an overflow
    /// segment had to be linked (§5).
    fn push(&mut self, cols: &mut Columns, base: Range<usize>, e: Edge) -> bool {
        if self.len < base.len() {
            cols.set(base.start + self.len, &e);
        } else {
            self.tail.push(e);
        }
        self.len += 1;
        if self.len <= self.reserved {
            return true;
        }
        self.reserved =
            self.len + ((self.len as f64 * DEFAULT_RESERVE_FRACTION).ceil() as usize).max(4);
        false
    }

    /// Removes the edge at position `pos < len` by moving the block's last
    /// edge into its slot (§5 deletion).
    fn remove(&mut self, cols: &mut Columns, base: Range<usize>, pos: usize) -> Edge {
        self.len -= 1;
        let last = match self.tail.pop() {
            Some(e) => e,
            None => cols.get(base.start + self.len),
        };
        if pos == self.len {
            return last;
        }
        match pos.checked_sub(base.len()) {
            Some(j) => std::mem::replace(&mut self.tail[j], last),
            None => {
                let removed = cols.get(base.start + pos);
                cols.set(base.start + pos, &last);
                removed
            }
        }
    }
}

/// One block's edges, in order: its live column slots, then its tail.
#[derive(Clone)]
pub struct BlockEdges<'a> {
    cols: &'a Columns,
    /// The block's live column slots still ahead.
    slots: Range<usize>,
    /// Edges appended past the column slots.
    tail: std::slice::Iter<'a, Edge>,
}

impl Iterator for BlockEdges<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        match self.slots.next() {
            Some(i) => Some(self.cols.get(i)),
            None => self.tail.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.slots.len() + self.tail.len();
        (left, Some(left))
    }

    /// Internal iteration streams the column slices, then the tail.
    fn fold<B, F: FnMut(B, Edge) -> B>(self, init: B, mut f: F) -> B {
        let acc = self.cols.edges(self.slots).fold(init, &mut f);
        self.tail.fold(acc, |acc, &e| f(acc, e))
    }
}

impl ExactSizeIterator for BlockEdges<'_> {}

/// Lists the edges still ahead, not the whole store's columns.
impl std::fmt::Debug for BlockEdges<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// Where a block's overlay state lives.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Position in the sparse index.
    Indexed(usize),
    /// Destination-major linear id (`dst·P + src`) of a block the index
    /// does not list.
    Fresh(u64),
}

/// The §5 overlay: the blocks dynamic updates touched.
#[derive(Debug, Clone, Default)]
struct Overlay {
    /// State of each indexed block once touched; sized on the first update.
    indexed: Vec<Option<TouchedBlock>>,
    /// Touched blocks the index does not list.
    fresh: HashMap<u64, TouchedBlock>,
}

impl Overlay {
    fn is_empty(&self) -> bool {
        self.indexed.is_empty() && self.fresh.is_empty()
    }

    fn get(&self, slot: Slot) -> Option<&TouchedBlock> {
        match slot {
            Slot::Indexed(k) => self.indexed.get(k)?.as_ref(),
            Slot::Fresh(key) => self.fresh.get(&key),
        }
    }

    /// The block's state, created on first touch from the `base_len`
    /// column slots of a block in an index listing `listed` blocks.
    fn touch(&mut self, slot: Slot, listed: usize, base_len: usize) -> &mut TouchedBlock {
        let new = || TouchedBlock::new(base_len);
        match slot {
            Slot::Indexed(k) => {
                if self.indexed.is_empty() {
                    self.indexed.resize_with(listed, || None);
                }
                self.indexed[k].get_or_insert_with(new)
            }
            Slot::Fresh(key) => self.fresh.entry(key).or_insert_with(new),
        }
    }
}

/// The sparse block index: the non-empty blocks, destination-major.
#[derive(Debug, Clone, Default)]
struct BlockIndex {
    /// `cols[j]..cols[j + 1]` are the blocks of destination interval `j`.
    cols: Vec<usize>,
    /// Source interval of each listed block.
    src: Vec<u32>,
    /// Column start of each listed block, then the column length.
    start: Vec<usize>,
}

impl BlockIndex {
    /// Position of block (src, dst) in the index, if listed — a binary
    /// search in the destination interval's column of blocks.
    fn position(&self, src: u32, dst: u32) -> Option<usize> {
        let col = self.cols[dst as usize]..self.cols[dst as usize + 1];
        let i = self.src[col.clone()].binary_search(&src).ok()?;
        Some(col.start + i)
    }

    /// Opens a block of source interval `src` at column slot `start` in
    /// destination interval `dst`, after every block listed so far.
    fn push(&mut self, src: u32, dst: u32, start: usize) {
        while self.cols.len() <= dst as usize {
            self.cols.push(self.src.len());
        }
        self.src.push(src);
        self.start.push(start);
    }

    /// Closes the index of a `p`-interval grid whose columns hold `len`
    /// slots.
    fn finish(&mut self, p: u32, len: usize) {
        self.cols.resize(p as usize + 1, self.src.len());
        self.start.push(len);
    }

    /// Column range of the listed block at `k`.
    fn range_at(&self, k: usize) -> Range<usize> {
        self.start[k]..self.start[k + 1]
    }
}

/// The columns + sparse block index + dynamic overlay of one grid.
///
/// ```
/// use hyve_graph::{Edge, EdgeList, GridGraph};
///
/// # fn main() -> Result<(), hyve_graph::GraphError> {
/// let g = EdgeList::from_edges(8, [Edge::new(2, 4), Edge::new(0, 7)])?;
/// let grid = GridGraph::partition(&g, 4)?;
/// let store = grid.flat();
/// assert_eq!(store.block_len(1, 2), 1); // e2.4 in B1.2, as in Fig. 1
/// assert_eq!(store.non_empty_blocks(), 2); // the other 14 blocks cost nothing
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EdgeStore {
    p: u32,
    num_vertices: u32,
    cols: Columns,
    index: BlockIndex,
    overlay: Overlay,
    num_edges: u64,
}

impl EdgeStore {
    /// Lays `g`'s edges out under `partition` in O(E + P): a stable
    /// counting sort by source interval, then one by destination interval.
    pub(crate) fn build(g: &EdgeList, partition: &IntervalPartition) -> Self {
        let p = partition.num_intervals() as usize;
        let interval = |v: u32| partition.interval_of(VertexId::new(v)) as usize;
        let ne = g.len();
        // Both passes' bucket bounds, from one scan.
        let (mut src_next, mut col_next) = (vec![0usize; p + 1], vec![0usize; p + 1]);
        for e in g.iter() {
            src_next[interval(e.src.raw()) + 1] += 1;
            col_next[interval(e.dst.raw()) + 1] += 1;
        }
        for i in 0..p {
            src_next[i + 1] += src_next[i];
            col_next[i + 1] += col_next[i];
        }
        let col_bounds = col_next.clone();
        // Pass 1: by source interval.
        let mut by_src = vec![[0u32; 3]; ne];
        for e in g.iter() {
            let s = interval(e.src.raw());
            by_src[src_next[s]] = triple(e);
            src_next[s] += 1;
        }
        // Pass 2: by destination interval. Stability keeps each column in
        // ascending source interval and each block in edge-list order.
        let mut sorted = vec![[0u32; 3]; ne];
        for t in &by_src {
            let c = interval(t[1]);
            sorted[col_next[c]] = *t;
            col_next[c] += 1;
        }
        // The pass-1 buffer is dead: the columns reuse its memory.
        let cols = Columns::transpose(&sorted, by_src.into_flattened());
        drop(sorted);
        // The sparse index: a block opens wherever a column meets a new
        // source interval.
        let mut index = BlockIndex::default();
        for (dst, col) in (0..).zip(col_bounds.windows(2)) {
            let mut open = None;
            for (k, &v) in (col[0]..).zip(&cols.src()[col[0]..col[1]]) {
                let s = interval(v) as u32;
                if open != Some(s) {
                    index.push(s, dst, k);
                    open = Some(s);
                }
            }
        }
        index.finish(p as u32, ne);
        EdgeStore {
            p: p as u32,
            num_vertices: partition.num_vertices(),
            cols,
            index,
            overlay: Overlay::default(),
            num_edges: ne as u64,
        }
    }

    /// Number of intervals `P`.
    pub fn num_intervals(&self) -> u32 {
        self.p
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges, overlay included.
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Number of blocks holding at least one edge.
    pub fn non_empty_blocks(&self) -> usize {
        if self.is_compact() {
            self.index.src.len()
        } else {
            self.blocks().count()
        }
    }

    /// True when no block was written since the columns were laid out, so
    /// the columns and [`block_ranges`](Self::block_ranges) are the whole
    /// graph.
    pub fn is_compact(&self) -> bool {
        self.overlay.is_empty()
    }

    fn slot(&self, src: u32, dst: u32) -> Slot {
        let p = self.p;
        assert!(
            src < p && dst < p,
            "block ({src},{dst}) out of a {p}x{p} grid"
        );
        let key = u64::from(dst) * u64::from(p) + u64::from(src);
        self.index
            .position(src, dst)
            .map_or(Slot::Fresh(key), Slot::Indexed)
    }

    /// The block's column slots: its index range, if listed.
    fn base(&self, slot: Slot) -> Range<usize> {
        match slot {
            Slot::Indexed(k) => self.index.range_at(k),
            Slot::Fresh(_) => 0..0,
        }
    }

    fn view_at(&self, slot: Slot) -> BlockEdges<'_> {
        self.cols.view(self.base(slot), self.overlay.get(slot))
    }

    /// The block's overlay state (created on first touch), the columns it
    /// writes into and its column slots.
    fn touch(&mut self, slot: Slot) -> (&mut TouchedBlock, &mut Columns, Range<usize>) {
        let base = self.base(slot);
        let block = self.overlay.touch(slot, self.index.src.len(), base.len());
        (block, &mut self.cols, base)
    }

    /// The edges of block (src interval, dst interval), overlay included —
    /// an O(log) lookup in the sparse index.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is ≥ P.
    pub fn block_edges(&self, src: u32, dst: u32) -> BlockEdges<'_> {
        self.view_at(self.slot(src, dst))
    }

    /// Number of edges in block (src interval, dst interval).
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is ≥ P.
    pub fn block_len(&self, src: u32, dst: u32) -> usize {
        self.block_edges(src, dst).len()
    }

    /// The indexed non-empty blocks of destination interval `dst`: their
    /// source intervals, ascending, and their column starts followed by
    /// the end of the last, so block `k` holds the column slots
    /// `starts[k]..starts[k + 1]` and the blocks tile one contiguous range.
    /// Like [`block_ranges`](Self::block_ranges), call it on a
    /// [compact](Self::is_compact) store.
    ///
    /// # Panics
    ///
    /// Panics if `dst` ≥ P.
    pub fn column(&self, dst: u32) -> (&[u32], &[usize]) {
        let index = &self.index;
        let blocks = index.cols[dst as usize]..index.cols[dst as usize + 1];
        (
            &index.src[blocks.clone()],
            &index.start[blocks.start..=blocks.end],
        )
    }

    /// The indexed non-empty blocks and their column ranges,
    /// destination-major. The ranges know nothing of blocks' live lengths
    /// or tails, so call it on a [compact](Self::is_compact) store.
    pub fn block_ranges(&self) -> impl Iterator<Item = (BlockId, Range<usize>)> + '_ {
        (0..self.p).flat_map(move |dst| {
            let (srcs, starts) = self.column(dst);
            let ranges = starts.windows(2).map(|w| w[0]..w[1]);
            srcs.iter()
                .zip(ranges)
                .map(move |(&src, range)| (BlockId::new(src, dst), range))
        })
    }

    /// Every non-empty block with its edges, destination-major, overlay
    /// included.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, BlockEdges<'_>)> + '_ {
        let p = u64::from(self.p);
        let key = move |id: BlockId| u64::from(id.dst) * p + u64::from(id.src);
        let mut fresh: Vec<(u64, &TouchedBlock)> =
            self.overlay.fresh.iter().map(|(&k, t)| (k, t)).collect();
        fresh.sort_unstable_by_key(|&(k, _)| k);
        let mut fresh = fresh.into_iter().peekable();
        let mut indexed = self.block_ranges().enumerate().peekable();
        std::iter::from_fn(move || loop {
            let next_indexed = indexed.peek().map(|&(_, (id, _))| key(id));
            let (id, edges) = match (next_indexed, fresh.peek()) {
                (None, None) => return None,
                (Some(i), f) if f.is_none_or(|&(f, _)| i < f) => {
                    let (k, (id, range)) = indexed.next()?;
                    (
                        id,
                        self.cols.view(range, self.overlay.get(Slot::Indexed(k))),
                    )
                }
                _ => {
                    let (k, t) = fresh.next()?;
                    let id = BlockId::new((k % p) as u32, (k / p) as u32);
                    (id, self.cols.view(0..0, Some(t)))
                }
            };
            if edges.len() > 0 {
                return Some((id, edges));
            }
        })
    }

    /// Every edge in destination-major block order, overlay included.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.blocks().flat_map(|(_, edges)| edges)
    }

    /// The edges in a column `range` (as produced by
    /// [`block_ranges`](Self::block_ranges)), materialised by value.
    pub fn edges_in(&self, range: Range<usize>) -> impl Iterator<Item = Edge> + '_ {
        self.cols.edges(range)
    }

    /// Out-degree of every vertex: one pass over the `src` and `dst`
    /// columns (a store with pending updates is compacted first). An edge
    /// with either endpoint in a reserved padding slot beyond the vertex
    /// count (dynamic updates) grows the vector to cover that slot rather
    /// than panic, so a result longer than
    /// [`num_vertices`](Self::num_vertices) flags such edges.
    pub fn out_degrees(&self) -> Vec<u32> {
        if !self.is_compact() {
            return self.compacted().out_degrees();
        }
        let (src, dst) = (self.cols.src(), self.cols.dst());
        let top = src.iter().chain(dst).max().map_or(0, |&v| v as usize + 1);
        let mut deg = vec![0u32; top.max(self.num_vertices as usize)];
        for &s in src {
            deg[s as usize] += 1;
        }
        deg
    }

    /// Lays the live edges out in fresh columns and index — dead slots
    /// dropped, tails folded in: the same blocks and edge order, with
    /// nothing pending. O(E + P + touched blocks).
    pub fn compacted(&self) -> EdgeStore {
        let mut index = BlockIndex::default();
        let mut triples = Vec::with_capacity(self.num_edges as usize);
        for (id, edges) in self.blocks() {
            index.push(id.src, id.dst, triples.len());
            triples.extend(edges.map(|e| triple(&e)));
        }
        index.finish(self.p, triples.len());
        EdgeStore {
            cols: Columns::transpose(&triples, Vec::new()),
            index,
            overlay: Overlay::default(),
            ..*self
        }
    }

    /// Appends `e` to block (src, dst): into a dead column slot of the
    /// block if it has one, else onto its tail. Returns `true` if it fit the
    /// block's reserved space, `false` if an overflow segment had to be
    /// linked.
    pub(crate) fn push_edge(&mut self, src: u32, dst: u32, e: Edge) -> bool {
        self.num_edges += 1;
        let (block, cols, base) = self.touch(self.slot(src, dst));
        block.push(cols, base, e)
    }

    /// Removes the first edge `s → d` from block (src, dst) by moving the
    /// block's last edge into its slot (§5 deletion). A block that does not
    /// hold the edge is left untouched.
    pub(crate) fn remove_edge(&mut self, src: u32, dst: u32, s: u32, d: u32) -> Option<Edge> {
        let slot = self.slot(src, dst);
        let pos = self
            .view_at(slot)
            .position(|e| e.src.raw() == s && e.dst.raw() == d)?;
        self.num_edges -= 1;
        let (block, cols, base) = self.touch(slot);
        Some(block.remove(cols, base, pos))
    }
}

/// Equality is over content — `P`, the vertex count and every block's edge
/// sequence — so a store with pending overlay updates equals its
/// [`compacted`](EdgeStore::compacted) form.
impl PartialEq for EdgeStore {
    fn eq(&self, other: &Self) -> bool {
        self.p == other.p
            && self.num_vertices == other.num_vertices
            && self.num_edges == other.num_edges
            && self
                .blocks()
                .map(|(id, edges)| (id, edges.collect::<Vec<_>>()))
                .eq(other
                    .blocks()
                    .map(|(id, edges)| (id, edges.collect::<Vec<_>>())))
    }
}
