//! The [`GridGraph`]: edges materialised into the P×P interval-block grid
//! (paper Fig. 1 right, §3.4 data organisation).
//!
//! The grid is a vertex partition plus one [`EdgeStore`]: contiguous edge
//! columns in destination-major block order behind a sparse index of the
//! non-empty blocks, so partitioning, storage and every walk over the grid
//! cost O(E + P), never O(P²). Dynamic updates (§5) go through
//! [`DynamicGrid`](crate::DynamicGrid) and write the store's columns in
//! place; a touched block's edges past its column slots, and its reserved
//! slack (default 30%), sit in a small per-block overlay.

use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::partition::{IntervalPartition, PartitionScheme};
use crate::store::EdgeStore;
use crate::types::Edge;

/// A graph partitioned into a P×P grid of edge blocks.
///
/// ```
/// use hyve_graph::{Edge, EdgeList, GridGraph};
///
/// # fn main() -> Result<(), hyve_graph::GraphError> {
/// let g = EdgeList::from_edges(8, [Edge::new(2, 4), Edge::new(0, 7)])?;
/// let grid = GridGraph::partition(&g, 4)?;
/// // e2.4 lands in B1.2 exactly as the paper's Fig. 1 shows.
/// assert_eq!(grid.flat().block_len(1, 2), 1);
/// assert_eq!((grid.num_blocks(), grid.non_empty_blocks()), (16, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridGraph {
    partition: IntervalPartition,
    /// Written in place by [`DynamicGrid`](crate::DynamicGrid) (§5).
    pub(crate) store: EdgeStore,
}

/// Bits of a §3.4 edge memory holding `p²` block headers (3 × 32 bits) and
/// `edges` 64-bit edges, or `None` if that overflows `u64`.
fn edge_storage_bits(p: u32, edges: u64) -> Option<u64> {
    let blocks = u64::from(p) * u64::from(p);
    96u64
        .checked_mul(blocks)?
        .checked_add(Edge::BITS.checked_mul(edges)?)
}

impl GridGraph {
    /// Partitions an edge list into a P×P grid using contiguous intervals.
    ///
    /// # Errors
    ///
    /// See [`partition_with_scheme`](Self::partition_with_scheme).
    pub fn partition(g: &EdgeList, p: u32) -> Result<Self, GraphError> {
        Self::partition_with_scheme(g, p, PartitionScheme::Contiguous)
    }

    /// Partitions with an explicit interval scheme, in O(E + P) time and
    /// memory.
    ///
    /// # Errors
    ///
    /// Propagates [`IntervalPartition::new`] errors;
    /// [`GraphError::InvalidPartition`] when the grid's edge-memory size
    /// (`96·P² + 64·E` bits) does not fit in a `u64`.
    pub fn partition_with_scheme(
        g: &EdgeList,
        p: u32,
        scheme: PartitionScheme,
    ) -> Result<Self, GraphError> {
        let partition = IntervalPartition::new(g.num_vertices(), p, scheme)?;
        if edge_storage_bits(p, g.len() as u64).is_none() {
            return Err(GraphError::InvalidPartition {
                intervals: p,
                reason: "edge storage of 96·P² + 64·E bits overflows u64",
            });
        }
        let store = EdgeStore::build(g, &partition);
        Ok(GridGraph { partition, store })
    }

    /// The vertex partition underlying the grid.
    pub fn partition_info(&self) -> &IntervalPartition {
        &self.partition
    }

    /// Number of intervals `P`.
    pub fn num_intervals(&self) -> u32 {
        self.partition.num_intervals()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.partition.num_vertices()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> u64 {
        self.store.num_edges()
    }

    /// Total number of blocks (P²), empty ones included.
    pub fn num_blocks(&self) -> usize {
        let p = self.num_intervals() as usize;
        p * p
    }

    /// Number of blocks holding at least one edge.
    pub fn non_empty_blocks(&self) -> usize {
        self.store.non_empty_blocks()
    }

    /// Iterates over every edge of the grid, block by block
    /// (destination-major: destination interval, then source interval;
    /// edge-list order inside a block).
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.store.iter_edges()
    }

    /// Total edge-memory footprint in bits (§3.4 layout): a 96-bit header
    /// for each of the P² blocks plus 64 bits per edge, computed
    /// arithmetically (saturating at `u64::MAX`).
    pub fn edge_storage_bits(&self) -> u64 {
        edge_storage_bits(self.num_intervals(), self.num_edges()).unwrap_or(u64::MAX)
    }

    /// Vertex-memory footprint in bits for `value_bits`-wide vertex values:
    /// per interval, a 2 × 32-bit header plus one value per vertex (§3.4).
    pub fn vertex_storage_bits(&self, value_bits: u64) -> u64 {
        u64::from(self.num_intervals()) * 64 + u64::from(self.num_vertices()) * value_bits
    }

    /// An owned copy of the store with pending dynamic updates folded into
    /// its columns. O(E); prefer [`GridGraph::flat`] on hot paths.
    pub fn flatten(&self) -> EdgeStore {
        self.store.compacted()
    }

    /// The grid's edge store — the columns and sparse block index the
    /// simulator's hot loop walks. Zero-cost.
    pub fn flat(&self) -> &EdgeStore {
        &self.store
    }

    /// Flattens the grid back into an edge list (inverse of partitioning,
    /// up to edge order).
    pub fn to_edge_list(&self) -> EdgeList {
        let mut list = EdgeList::new(self.num_vertices());
        list.extend(self.iter_edges());
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::BlockId;

    /// The paper's Fig. 1 graph.
    pub(crate) fn fig1() -> EdgeList {
        EdgeList::from_edges(
            8,
            [
                (1, 0),
                (0, 7),
                (2, 3),
                (2, 4),
                (3, 4),
                (3, 7),
                (4, 1),
                (4, 5),
                (6, 2),
                (6, 0),
                (7, 1),
            ]
            .into_iter()
            .map(|(s, d)| Edge::new(s, d)),
        )
        .unwrap()
    }

    #[test]
    fn fig1_block_assignment() {
        let grid = GridGraph::partition(&fig1(), 4).unwrap();
        assert_eq!(grid.num_blocks(), 16);
        assert_eq!(grid.num_edges(), 11);
        // Paper Fig. 1: B0.0 = {1->0}, B0.3 = {0->7}, B1.1 = {2->3},
        // B1.2 = {2->4, 3->4}, B1.3 = {3->7}, B2.0 = {4->1}, B2.2 = {4->5},
        // B3.0 = {6->0, 7->1}, B3.1 = {6->2}; listed destination-major.
        let expect = [
            ((0, 0), 1),
            ((2, 0), 1),
            ((3, 0), 2),
            ((1, 1), 1),
            ((3, 1), 1),
            ((1, 2), 2),
            ((2, 2), 1),
            ((0, 3), 1),
            ((1, 3), 1),
        ];
        let blocks: Vec<_> = grid
            .flat()
            .blocks()
            .map(|(id, edges)| ((id.src, id.dst), edges.len()))
            .collect();
        assert_eq!(blocks, expect);
        assert_eq!(grid.non_empty_blocks(), 9);
        assert_eq!(grid.flat().block_len(2, 1), 0);
    }

    #[test]
    fn every_edge_lands_in_its_block_in_edge_list_order() {
        let grid = GridGraph::partition(&fig1(), 4).unwrap();
        for (id, edges) in grid.flat().blocks() {
            for e in edges {
                assert_eq!(grid.partition_info().block_of(&e), id);
            }
        }
        let b30: Vec<Edge> = grid.flat().block_edges(3, 0).collect();
        assert_eq!(b30, [Edge::new(6, 0), Edge::new(7, 1)]);
    }

    #[test]
    fn round_trip_to_edge_list() {
        let g = fig1();
        let grid = GridGraph::partition(&g, 4).unwrap();
        let mut back = grid.to_edge_list();
        let mut orig = g.clone();
        back.sort_by_src();
        orig.sort_by_src();
        assert_eq!(back, orig);
    }

    #[test]
    fn storage_accounting() {
        let grid = GridGraph::partition(&fig1(), 4).unwrap();
        // 16 block headers of 96 bits + 11 edges of 64 bits.
        assert_eq!(grid.edge_storage_bits(), 16 * 96 + 11 * 64);
        assert_eq!(grid.vertex_storage_bits(32), 4 * 64 + 8 * 32);
    }

    #[test]
    fn single_interval_grid() {
        let grid = GridGraph::partition(&fig1(), 1).unwrap();
        assert_eq!(grid.num_blocks(), 1);
        assert_eq!(grid.flat().block_len(0, 0), 11);
    }

    #[test]
    #[should_panic(expected = "out of a")]
    fn block_lookup_out_of_range_panics() {
        let grid = GridGraph::partition(&fig1(), 2).unwrap();
        let _ = grid.flat().block_len(2, 0);
    }

    #[test]
    fn empty_edge_list_still_partitions() {
        let g = EdgeList::new(8);
        let grid = GridGraph::partition(&g, 4).unwrap();
        assert_eq!(grid.num_edges(), 0);
        assert_eq!(grid.non_empty_blocks(), 0);
        assert_eq!(grid.flat().blocks().count(), 0);
        assert_eq!(grid.flat().out_degrees(), vec![0; 8]);
    }

    #[test]
    fn pathological_p_costs_e_plus_p_not_p_squared() {
        // P = |V| = 2^20: 2^40 blocks, which no dense layout could allocate.
        let nv = 1u32 << 20;
        let g = EdgeList::from_edges(
            nv,
            (0..100u32).map(|i| Edge::new(i * 10_007 % nv, i * 7_919 % nv)),
        )
        .unwrap();
        let grid = GridGraph::partition(&g, nv).unwrap();
        assert_eq!(grid.num_blocks(), 1usize << 40);
        assert_eq!(grid.edge_storage_bits(), 96 * (1u64 << 40) + 64 * 100);
        assert!(grid.non_empty_blocks() <= 100);
        assert_eq!(grid.iter_edges().count(), 100);
        for (id, edges) in grid.flat().blocks() {
            assert!(edges
                .map(|e| grid.partition_info().block_of(&e))
                .all(|b| b == id));
        }
    }

    #[test]
    fn edge_storage_overflow_is_a_typed_error() {
        // 96·P² alone exceeds u64 here; the check runs before any
        // allocation, so this costs nothing.
        let g = EdgeList::new(u32::MAX);
        let err = GridGraph::partition(&g, u32::MAX).unwrap_err();
        assert!(matches!(err, GraphError::InvalidPartition { .. }), "{err}");
        assert!(err.to_string().contains("overflows u64"));
        // The largest P whose block headers still fit.
        assert_eq!(
            edge_storage_bits(438_353_264, 0),
            Some(96 * 438_353_264u64.pow(2))
        );
        assert_eq!(edge_storage_bits(438_353_265, 0), None);
    }

    #[test]
    fn overlay_keeps_slack_overflow_and_swap_remove_semantics() {
        let mut grid = GridGraph::partition(&fig1(), 4).unwrap();
        // A failed removal leaves an untouched block untouched.
        assert_eq!(grid.store.remove_edge(0, 0, 0, 1), None);
        assert!(grid.flat().is_compact());
        // B1.2 = {2->4, 3->4}: capacity ceil(2·1.3) = 3, at least 4.
        assert!(grid.store.push_edge(1, 2, Edge::new(2, 5)));
        assert!(grid.store.push_edge(1, 2, Edge::new(3, 5)));
        assert!(
            !grid.store.push_edge(1, 2, Edge::new(2, 4)),
            "5th edge overflows"
        );
        assert_eq!(grid.num_edges(), 14);
        // Removing the first 2->4 moves the block's last edge into its slot.
        assert_eq!(grid.store.remove_edge(1, 2, 2, 4), Some(Edge::new(2, 4)));
        let b12: Vec<Edge> = grid.flat().block_edges(1, 2).collect();
        let expect = [
            Edge::new(2, 4),
            Edge::new(3, 4),
            Edge::new(2, 5),
            Edge::new(3, 5),
        ];
        assert_eq!(b12, expect);
        assert_eq!(grid.store.remove_edge(1, 2, 9, 9), None);
        // B3.0 = {6->0, 7->1}: shrunk below its two column slots, the next
        // push reuses the dead slot in the columns.
        assert_eq!(grid.store.remove_edge(3, 0, 6, 0), Some(Edge::new(6, 0)));
        assert!(grid.store.push_edge(3, 0, Edge::new(6, 1)));
        let b30 = [Edge::new(7, 1), Edge::new(6, 1)];
        assert_eq!(grid.flat().block_edges(3, 0).collect::<Vec<_>>(), b30);
        let slots = grid
            .flat()
            .block_ranges()
            .find(|(id, _)| *id == BlockId::new(3, 0));
        let in_columns = grid.flat().edges_in(slots.unwrap().1);
        assert_eq!(in_columns.collect::<Vec<_>>(), b30);
        // A block the columns never held fills through the overlay alone.
        assert!(grid.store.push_edge(2, 1, Edge::new(4, 2)));
        assert_eq!(grid.non_empty_blocks(), 10);
        assert!(!grid.flat().is_compact());
        let compact = grid.flatten();
        assert!(compact.is_compact());
        assert_eq!(&compact, grid.flat());
        assert_eq!(compact.out_degrees(), grid.flat().out_degrees());
        let ranges: Vec<_> = compact
            .block_ranges()
            .map(|(id, r)| (id, r.len()))
            .collect();
        assert_eq!(ranges[6], (BlockId::new(1, 2), 4));
        assert_eq!(ranges[4], (BlockId::new(2, 1), 1));
        assert_eq!(ranges[2], (BlockId::new(3, 0), 2));
    }

    #[test]
    fn out_degrees_count_every_edge_and_cover_padding_slots() {
        let mut grid = GridGraph::partition(&fig1(), 4).unwrap();
        // Endpoints in padding slots 8 and 9 (≥ |V|), in the blocks a grown
        // `DynamicGrid` assigns them (slot − |V| mod P).
        grid.store.push_edge(0, 3, Edge::new(8, 7));
        grid.store.push_edge(0, 1, Edge::new(1, 9));
        let mut expect = vec![0u32; 10];
        for e in grid.iter_edges() {
            expect[e.src.index()] += 1;
        }
        let compact = grid.flatten();
        assert_eq!(compact.out_degrees(), expect);
        assert_eq!(grid.flat().out_degrees(), expect, "pending updates");
        let plain = GridGraph::partition(&fig1(), 4).unwrap();
        assert_eq!(plain.flat().out_degrees(), fig1().out_degrees());
    }

    #[test]
    fn clones_and_equality_follow_content() {
        let grid = GridGraph::partition(&fig1(), 4).unwrap();
        let mut other = grid.clone();
        assert_eq!(grid, other);
        other.store.push_edge(0, 0, Edge::new(0, 1));
        assert_ne!(grid, other);
        other.store.remove_edge(0, 0, 0, 1);
        assert_eq!(grid, other, "an add then its removal restores the content");
        other.store.remove_edge(0, 0, 1, 0);
        other.store.push_edge(0, 0, Edge::new(0, 0));
        assert_ne!(grid, other);
        // The clone's in-place writes never reach the original's columns.
        assert_eq!(grid, GridGraph::partition(&fig1(), 4).unwrap());
    }
}
