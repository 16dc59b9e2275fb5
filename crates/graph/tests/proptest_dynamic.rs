//! Property-based tests of [`DynamicGrid`] bookkeeping and the edge store's
//! in-place updates: across arbitrary mutation sequences the maintained
//! `degrees`/`tombstones`/`logical_vertices` stay mutually consistent
//! ([`DynamicGrid::validate`]), and reading the store through its overlay of
//! touched blocks ([`GridGraph::flat`]) always equals its compacted form
//! ([`GridGraph::flatten`]).

use hyve_graph::{DynamicGrid, Edge, EdgeList, GridGraph, Mutation, MutationOutcome, VertexId};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (8u32..48).prop_flat_map(|nv| {
        proptest::collection::vec((0..nv, 0..nv), 1..120).prop_map(move |pairs| {
            let mut g = EdgeList::new(nv);
            g.extend(pairs.into_iter().map(|(s, d)| Edge::new(s, d)));
            g
        })
    })
}

/// One mutation request: kind selector plus two vertex operands.
type OpSpec = (u8, u32, u32);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All four mutation kinds, applied in arbitrary order: the bookkeeping
    /// invariants hold and the overlay's reads match a fresh compaction
    /// after every single step.
    #[test]
    fn invariants_hold_and_flat_cache_never_goes_stale(
        g in arb_graph(),
        ops in proptest::collection::vec(any::<OpSpec>(), 0..50),
    ) {
        let grid = GridGraph::partition(&g, 4).unwrap();
        // Small reserve so long AddVertex runs exhaust it and exercise the
        // Repartitioned path too.
        let mut d = DynamicGrid::new(grid, 0.05);
        for (kind, a, b) in ops {
            let nv = d.num_vertices();
            // Read the store between writes: it keeps no derived state a
            // write could leave behind.
            let _ = d.grid().flat();
            let _ = match kind % 4 {
                0 => d.apply(Mutation::AddEdge(Edge::new(a % nv, b % nv))),
                1 => d.apply(Mutation::RemoveEdge { src: a % nv, dst: b % nv }),
                2 => d.apply(Mutation::AddVertex),
                _ => d.apply(Mutation::RemoveVertex(VertexId::new(a % nv))),
            };
            let check = d.validate();
            prop_assert!(check.is_ok(), "invariants broken: {check:?}");
            prop_assert_eq!(d.grid().flat(), &d.grid().flatten());
        }
    }

    /// With a zero vertex reserve every append exhausts the (empty) reserve
    /// immediately: each AddVertex takes the full re-preprocessing path, and
    /// the rebuilt grid keeps the invariants and reads equal to its
    /// compaction.
    #[test]
    fn vertex_growth_forces_repartition_and_stays_consistent(
        g in arb_graph(),
        extra in 1u32..12,
    ) {
        let grid = GridGraph::partition(&g, 4).unwrap();
        let mut d = DynamicGrid::new(grid, 0.0);
        for _ in 0..extra {
            let _ = d.grid().flat();
            let out = d.apply(Mutation::AddVertex).unwrap();
            prop_assert_eq!(out, MutationOutcome::Repartitioned);
            let check = d.validate();
            prop_assert!(check.is_ok(), "invariants broken: {check:?}");
            prop_assert_eq!(d.grid().flat(), &d.grid().flatten());
        }
        prop_assert_eq!(d.repartitions(), u64::from(extra));
        prop_assert_eq!(d.grid().num_vertices(), g.num_vertices() + extra);
    }
}
