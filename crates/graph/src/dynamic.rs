//! Dynamic-graph working flow (paper §5).
//!
//! HyVE supports evolving graphs through *incremental preprocessing*: rather
//! than re-partitioning on every change, mutations are applied in place:
//!
//! * **Add edge** — appended at the end of its block's memory space; reserved
//!   slack (30%) makes this O(1), overflowing into linked segments.
//! * **Delete edge** — replaced by the last edge of its block, O(1) beyond
//!   the scan that finds it.
//! * **Add vertex** — consumes a reserved vertex slot; when the reserve is
//!   exhausted a full re-preprocessing is flagged (vertex access must stay
//!   sequential, so linking is not an option for vertices).
//! * **Delete vertex** — O(1): the value is marked invalid (tombstoned, §5:
//!   "set to invalid, e.g. −1 for PageRank"); incident edges become inert
//!   and are counted as changed via the maintained degree.
//!
//! Edge updates write the grid's [`EdgeStore`](crate::EdgeStore) columns in
//! place. Only touched blocks carry extra state — live length, edges
//! appended past their column slots, reserved slack — so the structure never
//! holds a second copy of the edge set, and every read sees the updated
//! blocks.

use crate::error::GraphError;
use crate::grid::GridGraph;
use crate::types::{Edge, VertexId};

/// A single dynamic-graph request (§5's four situations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation {
    /// Insert an edge.
    AddEdge(Edge),
    /// Remove the edge (src, dst).
    RemoveEdge {
        /// Source vertex index.
        src: u32,
        /// Destination vertex index.
        dst: u32,
    },
    /// Append a new vertex (takes a reserved slot).
    AddVertex,
    /// Tombstone a vertex and drop its incident edges.
    RemoveVertex(VertexId),
}

/// What applying a mutation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationOutcome {
    /// The mutation fit in reserved space (pure O(1) path).
    InPlace,
    /// An edge append had to link a new overflow segment.
    LinkedOverflow,
    /// A vertex append exhausted the reserve; the grid was re-preprocessed.
    Repartitioned,
    /// Edges changed as a side effect of a vertex removal (count of removed
    /// edges is tracked separately).
    VertexTombstoned,
}

/// A [`GridGraph`] plus the bookkeeping needed for O(1) dynamic updates.
///
/// ```
/// use hyve_graph::{DynamicGrid, Edge, EdgeList, GridGraph, Mutation};
///
/// # fn main() -> Result<(), hyve_graph::GraphError> {
/// let g = EdgeList::from_edges(8, [Edge::new(0, 1), Edge::new(2, 3)])?;
/// let grid = GridGraph::partition(&g, 4)?;
/// let mut dynamic = DynamicGrid::new(grid, 0.25);
/// dynamic.apply(Mutation::AddEdge(Edge::new(5, 6)))?;
/// assert_eq!(dynamic.grid().num_edges(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGrid {
    grid: GridGraph,
    /// Vertices logically present: the grid's materialised count plus
    /// vertices occupying reserved padding slots.
    logical_vertices: u32,
    /// Reserved vertex slots remaining before a repartition is required.
    vertex_slots_remaining: u32,
    /// Fraction of vertices reserved on (re)build.
    vertex_reserve_fraction: f64,
    /// Tombstoned vertices (deleted; value treated as invalid, e.g. −1 in PR).
    tombstones: Vec<bool>,
    /// Combined in+out degree per vertex, maintained incrementally so that
    /// vertex deletion can count its incident edges in O(1).
    degrees: Vec<u32>,
    /// Number of full repartitions triggered by vertex-space exhaustion.
    repartitions: u64,
    /// Total edges added/removed through mutations.
    edges_changed: u64,
}

impl DynamicGrid {
    /// Wraps a grid, reserving `vertex_reserve_fraction` extra vertex slots.
    ///
    /// # Panics
    ///
    /// Panics if `vertex_reserve_fraction` is negative or not finite.
    pub fn new(grid: GridGraph, vertex_reserve_fraction: f64) -> Self {
        assert!(
            vertex_reserve_fraction.is_finite() && vertex_reserve_fraction >= 0.0,
            "reserve fraction must be finite and non-negative"
        );
        let slots = (f64::from(grid.num_vertices()) * vertex_reserve_fraction).ceil() as u32;
        let tombstones = vec![false; grid.num_vertices() as usize];
        let mut degrees = vec![0u32; grid.num_vertices() as usize];
        grid.iter_edges().for_each(|e| {
            degrees[e.src.index()] += 1;
            degrees[e.dst.index()] += 1;
        });
        DynamicGrid {
            logical_vertices: grid.num_vertices(),
            grid,
            vertex_slots_remaining: slots,
            vertex_reserve_fraction,
            tombstones,
            degrees,
            repartitions: 0,
            edges_changed: 0,
        }
    }

    /// Combined in+out degree of a vertex (0 after tombstoning).
    pub fn degree(&self, v: VertexId) -> u32 {
        self.degrees.get(v.index()).copied().unwrap_or(0)
    }

    /// Flattens the grid to an edge list, excluding edges incident to
    /// tombstoned vertices. Edges come in the grid's destination-major
    /// block order ([`GridGraph::iter_edges`]).
    pub fn live_edge_list(&self) -> crate::edgelist::EdgeList {
        let capacity = self.grid.num_edges() as usize;
        let mut list = crate::edgelist::EdgeList::with_capacity(self.logical_vertices, capacity);
        list.extend(
            self.grid
                .iter_edges()
                .filter(|e| !self.tombstones[e.src.index()] && !self.tombstones[e.dst.index()]),
        );
        list
    }

    /// The current grid.
    pub fn grid(&self) -> &GridGraph {
        &self.grid
    }

    /// Vertices logically present (materialised + padding slots in use).
    pub fn num_vertices(&self) -> u32 {
        self.logical_vertices
    }

    /// Interval owning a vertex; vertices living in reserved padding are
    /// assigned round-robin across intervals (the paper reserves extra
    /// space inside each interval, §5).
    fn interval_of(&self, v: u32) -> u32 {
        if v < self.grid.num_vertices() {
            self.grid.partition_info().interval_of(VertexId::new(v))
        } else {
            (v - self.grid.num_vertices()) % self.grid.num_intervals()
        }
    }

    /// Reserved vertex slots still available.
    pub fn vertex_slots_remaining(&self) -> u32 {
        self.vertex_slots_remaining
    }

    /// How many full repartitions vertex growth has forced.
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Total edges changed by mutations so far (adds + removes, including
    /// edges dropped by vertex removals) — the unit of Fig. 20's throughput.
    pub fn edges_changed(&self) -> u64 {
        self.edges_changed
    }

    /// True if the vertex is currently tombstoned.
    pub fn is_tombstoned(&self, v: VertexId) -> bool {
        self.tombstones.get(v.index()).copied().unwrap_or(false)
    }

    /// Applies one mutation.
    ///
    /// # Errors
    ///
    /// [`GraphError::MutationFailed`] when removing a nonexistent edge or
    /// referencing an out-of-range vertex.
    pub fn apply(&mut self, m: Mutation) -> Result<MutationOutcome, GraphError> {
        match m {
            Mutation::AddEdge(e) => self.add_edge(e),
            Mutation::RemoveEdge { src, dst } => self.remove_edge(src, dst),
            Mutation::AddVertex => self.add_vertex(),
            Mutation::RemoveVertex(v) => self.remove_vertex(v),
        }
    }

    fn check_vertex(&self, v: u32) -> Result<(), GraphError> {
        if v >= self.logical_vertices {
            return Err(GraphError::MutationFailed {
                message: format!(
                    "vertex {v} out of range ({} vertices)",
                    self.logical_vertices
                ),
            });
        }
        Ok(())
    }

    fn add_edge(&mut self, e: Edge) -> Result<MutationOutcome, GraphError> {
        self.check_vertex(e.src.raw())?;
        self.check_vertex(e.dst.raw())?;
        // A tombstoned endpoint would silently resurrect: the edge lands in a
        // block and the degree counter ticks up, but the vertex's value stays
        // invalid — breaking the "tombstoned ⇒ degree 0" bookkeeping that
        // vertex deletion relies on. Reject instead.
        for v in [e.src, e.dst] {
            if self.is_tombstoned(v) {
                return Err(GraphError::MutationFailed {
                    message: format!("vertex {} is deleted", v.raw()),
                });
            }
        }
        let (bs, bd) = (self.interval_of(e.src.raw()), self.interval_of(e.dst.raw()));
        let fit = self.grid.store.push_edge(bs, bd, e);
        self.degrees[e.src.index()] += 1;
        self.degrees[e.dst.index()] += 1;
        self.edges_changed += 1;
        Ok(if fit {
            MutationOutcome::InPlace
        } else {
            MutationOutcome::LinkedOverflow
        })
    }

    fn remove_edge(&mut self, src: u32, dst: u32) -> Result<MutationOutcome, GraphError> {
        self.check_vertex(src)?;
        self.check_vertex(dst)?;
        let (bs, bd) = (self.interval_of(src), self.interval_of(dst));
        match self.grid.store.remove_edge(bs, bd, src, dst) {
            Some(_) => {
                self.degrees[src as usize] = self.degrees[src as usize].saturating_sub(1);
                self.degrees[dst as usize] = self.degrees[dst as usize].saturating_sub(1);
                self.edges_changed += 1;
                Ok(MutationOutcome::InPlace)
            }
            None => Err(GraphError::MutationFailed {
                message: format!("edge {src}->{dst} not present"),
            }),
        }
    }

    fn add_vertex(&mut self) -> Result<MutationOutcome, GraphError> {
        self.logical_vertices += 1;
        self.tombstones.push(false);
        self.degrees.push(0);
        if self.vertex_slots_remaining > 0 {
            self.vertex_slots_remaining -= 1;
            // The new vertex occupies a reserved padding slot inside an
            // interval; no edges move.
            Ok(MutationOutcome::InPlace)
        } else {
            // §5: out of reserved space ⇒ full re-preprocessing, now with
            // every logical vertex materialised.
            let mut list = crate::edgelist::EdgeList::new(self.logical_vertices);
            list.extend(self.grid.iter_edges());
            let p = self.grid.num_intervals();
            let scheme = self.grid.partition_info().scheme();
            self.grid = GridGraph::partition_with_scheme(&list, p, scheme)?;
            self.vertex_slots_remaining =
                (f64::from(self.grid.num_vertices()) * self.vertex_reserve_fraction).ceil() as u32;
            let mut tombstones = vec![false; self.grid.num_vertices() as usize];
            for (v, &dead) in self.tombstones.iter().enumerate() {
                if dead && v < tombstones.len() {
                    tombstones[v] = true;
                }
            }
            self.tombstones = tombstones;
            self.degrees = {
                let mut d = vec![0u32; self.grid.num_vertices() as usize];
                for e in self.grid.iter_edges() {
                    d[e.src.index()] += 1;
                    d[e.dst.index()] += 1;
                }
                for (v, &dead) in self.tombstones.iter().enumerate() {
                    if dead {
                        d[v] = 0;
                    }
                }
                d
            };
            self.repartitions += 1;
            Ok(MutationOutcome::Repartitioned)
        }
    }

    /// Checks the structure's internal bookkeeping invariants:
    ///
    /// * `tombstones` and `degrees` cover exactly the logical vertex range;
    /// * the grid never materialises more vertices than are logically present;
    /// * per-block edge counts sum to the grid's edge count;
    /// * every tombstoned vertex has degree 0;
    /// * every live vertex's maintained degree equals its endpoint count over
    ///   the grid's stored edges (inert edges to tombstoned neighbours
    ///   included — they stay in their blocks, §5).
    ///
    /// # Errors
    ///
    /// [`GraphError::MutationFailed`] describing the first violation found.
    pub fn validate(&self) -> Result<(), GraphError> {
        let fail = |message: String| Err(GraphError::MutationFailed { message });
        let n = self.logical_vertices as usize;
        if self.tombstones.len() != n || self.degrees.len() != n {
            return fail(format!(
                "bookkeeping length mismatch: {} tombstones / {} degrees for {n} vertices",
                self.tombstones.len(),
                self.degrees.len()
            ));
        }
        if self.grid.num_vertices() > self.logical_vertices {
            return fail(format!(
                "grid materialises {} vertices but only {} are logical",
                self.grid.num_vertices(),
                self.logical_vertices
            ));
        }
        let stored: u64 = self.grid.flat().blocks().map(|(_, b)| b.len() as u64).sum();
        if stored != self.grid.num_edges() {
            return fail(format!(
                "blocks hold {stored} edges but the grid counts {}",
                self.grid.num_edges()
            ));
        }
        let mut hits = vec![0u32; n];
        for e in self.grid.iter_edges() {
            hits[e.src.index()] += 1;
            hits[e.dst.index()] += 1;
        }
        for (v, &hit) in hits.iter().enumerate() {
            if self.tombstones[v] {
                if self.degrees[v] != 0 {
                    return fail(format!(
                        "tombstoned vertex {v} has nonzero degree {}",
                        self.degrees[v]
                    ));
                }
            } else if self.degrees[v] != hit {
                return fail(format!(
                    "vertex {v} degree {} disagrees with {hit} stored endpoints",
                    self.degrees[v]
                ));
            }
        }
        Ok(())
    }

    fn remove_vertex(&mut self, v: VertexId) -> Result<MutationOutcome, GraphError> {
        self.check_vertex(v.raw())?;
        self.tombstones[v.index()] = true;
        // §5: O(1) — the stored value becomes invalid; incident edges stay
        // in their blocks but are inert, and count as changed edges.
        self.edges_changed += u64::from(self.degrees[v.index()]);
        self.degrees[v.index()] = 0;
        Ok(MutationOutcome::VertexTombstoned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;

    fn make(p: u32) -> DynamicGrid {
        let g = EdgeList::from_edges(
            8,
            [
                Edge::new(1, 0),
                Edge::new(0, 7),
                Edge::new(2, 3),
                Edge::new(2, 4),
                Edge::new(3, 4),
                Edge::new(4, 1),
            ],
        )
        .unwrap();
        DynamicGrid::new(GridGraph::partition(&g, p).unwrap(), 0.25)
    }

    #[test]
    fn add_edge_goes_to_right_block() {
        let mut d = make(4);
        let out = d.apply(Mutation::AddEdge(Edge::new(6, 1))).unwrap();
        assert_eq!(out, MutationOutcome::InPlace);
        assert_eq!(d.grid().num_edges(), 7);
        assert_eq!(d.grid().flat().block_len(3, 0), 1);
        assert_eq!(d.edges_changed(), 1);
    }

    #[test]
    fn remove_edge_present_and_absent() {
        let mut d = make(4);
        assert_eq!(
            d.apply(Mutation::RemoveEdge { src: 2, dst: 3 }).unwrap(),
            MutationOutcome::InPlace
        );
        assert_eq!(d.grid().num_edges(), 5);
        assert!(d.apply(Mutation::RemoveEdge { src: 2, dst: 3 }).is_err());
    }

    #[test]
    fn add_vertex_consumes_reserve_then_repartitions() {
        let mut d = make(4);
        let initial_slots = d.vertex_slots_remaining();
        assert_eq!(initial_slots, 2); // ceil(8 * 0.25)
        for _ in 0..initial_slots {
            assert_eq!(
                d.apply(Mutation::AddVertex).unwrap(),
                MutationOutcome::InPlace
            );
        }
        assert_eq!(d.vertex_slots_remaining(), 0);
        let out = d.apply(Mutation::AddVertex).unwrap();
        assert_eq!(out, MutationOutcome::Repartitioned);
        assert_eq!(d.repartitions(), 1);
        assert!(d.vertex_slots_remaining() > 0);
        // All edges survived the repartition.
        assert_eq!(d.grid().num_edges(), 6);
    }

    #[test]
    fn remove_vertex_tombstones_in_constant_time() {
        let mut d = make(4);
        assert_eq!(d.degree(VertexId::new(4)), 3); // 2->4, 3->4, 4->1
        let out = d.apply(Mutation::RemoveVertex(VertexId::new(4))).unwrap();
        assert_eq!(out, MutationOutcome::VertexTombstoned);
        assert!(d.is_tombstoned(VertexId::new(4)));
        // §5: edges stay in place (inert) but count as changed.
        assert_eq!(d.edges_changed(), 3);
        assert_eq!(d.degree(VertexId::new(4)), 0);
        // The live view excludes them.
        let live = d.live_edge_list();
        assert_eq!(live.len(), 3);
        for e in live.iter() {
            assert_ne!(e.src.raw(), 4);
            assert_ne!(e.dst.raw(), 4);
        }
    }

    #[test]
    fn add_edge_to_tombstoned_vertex_is_rejected() {
        let mut d = make(4);
        d.apply(Mutation::RemoveVertex(VertexId::new(4))).unwrap();
        let before = d.grid().num_edges();
        // Either endpoint being dead must reject the add…
        assert!(d.apply(Mutation::AddEdge(Edge::new(4, 0))).is_err());
        assert!(d.apply(Mutation::AddEdge(Edge::new(0, 4))).is_err());
        // …without touching the grid or the degree bookkeeping.
        assert_eq!(d.grid().num_edges(), before);
        assert_eq!(d.degree(VertexId::new(4)), 0);
        d.validate().unwrap();
    }

    #[test]
    fn validate_accepts_every_mutation_outcome() {
        let mut d = make(4);
        d.validate().unwrap();
        d.apply(Mutation::AddEdge(Edge::new(6, 1))).unwrap();
        d.apply(Mutation::RemoveVertex(VertexId::new(2))).unwrap();
        d.apply(Mutation::RemoveEdge { src: 3, dst: 4 }).unwrap();
        for _ in 0..3 {
            d.apply(Mutation::AddVertex).unwrap();
        }
        assert_eq!(d.repartitions(), 1);
        d.validate().unwrap();
    }

    #[test]
    fn out_of_range_mutations_fail() {
        let mut d = make(4);
        assert!(d.apply(Mutation::AddEdge(Edge::new(0, 99))).is_err());
        assert!(d.apply(Mutation::RemoveVertex(VertexId::new(99))).is_err());
    }

    #[test]
    fn overflow_after_many_adds() {
        let mut d = make(2);
        let mut overflows = 0;
        for i in 0..100 {
            let out = d
                .apply(Mutation::AddEdge(Edge::new(i % 8, (i + 1) % 8)))
                .unwrap();
            if out == MutationOutcome::LinkedOverflow {
                overflows += 1;
            }
        }
        assert!(overflows > 0, "100 adds into small blocks must overflow");
        assert_eq!(d.grid().num_edges(), 106);
    }

    #[test]
    fn mixed_workload_conserves_counts() {
        let mut d = make(4);
        let before = d.grid().num_edges();
        d.apply(Mutation::AddEdge(Edge::new(0, 1))).unwrap();
        d.apply(Mutation::AddEdge(Edge::new(5, 5))).unwrap();
        d.apply(Mutation::RemoveEdge { src: 0, dst: 1 }).unwrap();
        assert_eq!(d.grid().num_edges(), before + 1);
        let actual: u64 = d.grid().flat().blocks().map(|(_, b)| b.len() as u64).sum();
        assert_eq!(actual, d.grid().num_edges());
    }
}
