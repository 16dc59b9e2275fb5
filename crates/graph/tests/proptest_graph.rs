//! Property-based tests for the graph substrate: partitioning is a
//! lossless, well-formed reshaping of the edge list, and dynamic mutation
//! sequences agree with a naive multiset model.

use hyve_graph::{
    block_sparsity, DynamicGrid, Edge, EdgeList, GridGraph, IntervalPartition, Mutation,
    MutationOutcome, PartitionScheme, VertexId,
};
use proptest::prelude::*;

/// Random (num_vertices, edges) pair with valid endpoints.
fn arb_graph() -> impl Strategy<Value = EdgeList> {
    (2u32..200).prop_flat_map(|nv| {
        proptest::collection::vec((0..nv, 0..nv), 0..400).prop_map(move |pairs| {
            let mut g = EdgeList::new(nv);
            g.extend(pairs.into_iter().map(|(s, d)| Edge::new(s, d)));
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Partitioning then flattening returns exactly the original multiset
    /// of edges, for any legal interval count and either scheme.
    #[test]
    fn partition_round_trips(g in arb_graph(), p in 1u32..32,
                             round_robin in proptest::bool::ANY) {
        let p = p.min(g.num_vertices());
        let scheme = if round_robin {
            PartitionScheme::RoundRobin
        } else {
            PartitionScheme::Contiguous
        };
        let grid = GridGraph::partition_with_scheme(&g, p, scheme).unwrap();
        prop_assert_eq!(grid.num_edges(), g.len() as u64);
        prop_assert_eq!(grid.num_blocks(), (p as usize).pow(2));

        let mut back: Vec<(u32, u32)> = grid
            .iter_edges()
            .map(|e| (e.src.raw(), e.dst.raw()))
            .collect();
        let mut orig: Vec<(u32, u32)> = g
            .iter()
            .map(|e| (e.src.raw(), e.dst.raw()))
            .collect();
        back.sort_unstable();
        orig.sort_unstable();
        prop_assert_eq!(back, orig);
    }

    /// Every edge lands in the block its endpoints' intervals dictate.
    #[test]
    fn edges_land_in_correct_blocks(g in arb_graph(), p in 1u32..16) {
        let p = p.min(g.num_vertices());
        let grid = GridGraph::partition(&g, p).unwrap();
        for (id, edges) in grid.flat().blocks() {
            for e in edges {
                prop_assert_eq!(grid.partition_info().block_of(&e), id);
            }
        }
    }

    /// The sparse store holds exactly a naive dense bucketing: every one of
    /// the P² blocks has the same edge sequence (edge-list order kept), the
    /// index lists precisely the non-empty blocks destination-major, and
    /// their column ranges tile the columns. P runs up to |V|; the empty graph
    /// and both schemes are covered.
    #[test]
    fn store_matches_dense_bucketing(g in arb_graph(), p in 1u32..200,
                                     round_robin in proptest::bool::ANY) {
        let p = p.min(g.num_vertices());
        let scheme = if round_robin {
            PartitionScheme::RoundRobin
        } else {
            PartitionScheme::Contiguous
        };
        let grid = GridGraph::partition_with_scheme(&g, p, scheme).unwrap();
        let mut dense = vec![Vec::new(); (p as usize).pow(2)];
        for e in g.iter() {
            dense[grid.partition_info().block_of(e).linear(p)].push(*e);
        }
        let store = grid.flat();
        for (i, expect) in dense.iter().enumerate() {
            let (s, d) = ((i / p as usize) as u32, (i % p as usize) as u32);
            let got: Vec<Edge> = store.block_edges(s, d).collect();
            prop_assert_eq!(&got, expect, "block ({}, {})", s, d);
        }
        let listed: Vec<usize> = store.blocks().map(|(id, _)| id.linear(p)).collect();
        let p_us = p as usize;
        let non_empty: Vec<usize> = (0..dense.len())
            .map(|i| (i % p_us) * p_us + i / p_us)
            .filter(|&i| !dense[i].is_empty())
            .collect();
        prop_assert_eq!(&listed, &non_empty);
        prop_assert_eq!(grid.non_empty_blocks(), non_empty.len());
        let mut end = 0;
        for (_, range) in store.block_ranges() {
            prop_assert_eq!(range.start, end);
            prop_assert!(!range.is_empty());
            end = range.end;
        }
        prop_assert_eq!(end, g.len());
        prop_assert_eq!(
            grid.edge_storage_bits(),
            96 * u64::from(p).pow(2) + 64 * g.len() as u64
        );
    }

    /// The columns are destination-major: each destination interval's
    /// non-empty blocks, sources strictly ascending, tile one contiguous
    /// column range holding exactly the edges into that interval, and the
    /// ranges follow one another in destination order.
    #[test]
    fn destination_columns_tile_contiguous_ranges(g in arb_graph(), p in 1u32..64,
                                                  round_robin in proptest::bool::ANY) {
        let p = p.min(g.num_vertices());
        let scheme = if round_robin {
            PartitionScheme::RoundRobin
        } else {
            PartitionScheme::Contiguous
        };
        let grid = GridGraph::partition_with_scheme(&g, p, scheme).unwrap();
        let part = grid.partition_info();
        let store = grid.flat();
        let mut end = 0;
        for dst in 0..p {
            let (srcs, starts) = store.column(dst);
            prop_assert_eq!(starts.len(), srcs.len() + 1);
            prop_assert_eq!(starts[0], end, "column {} starts where the last ended", dst);
            prop_assert!(srcs.windows(2).all(|w| w[0] < w[1]), "sources ascend in {}", dst);
            for (k, &src) in srcs.iter().enumerate() {
                let slots: Vec<Edge> = store.edges_in(starts[k]..starts[k + 1]).collect();
                let block: Vec<Edge> = store.block_edges(src, dst).collect();
                prop_assert!(!slots.is_empty());
                prop_assert_eq!(slots, block);
            }
            end = starts[srcs.len()];
            let into = g.iter().filter(|e| part.interval_of(e.dst) == dst).count();
            prop_assert_eq!(end - starts[0], into);
        }
        prop_assert_eq!(end, g.len());
    }

    /// The store's overlay keeps the §5 block semantics exactly: replaying
    /// adds and removes on a naive per-block `Vec` (push with 30% slack,
    /// at least 4 slots, and a linked overflow segment when that runs out;
    /// swap-remove of the first match) gives every block the same edge
    /// sequence and every add the same in-place/overflow outcome.
    #[test]
    fn overlay_matches_per_block_vec_model(
        g in arb_graph(),
        p in 1u32..12,
        ops in proptest::collection::vec((proptest::bool::ANY, 0u32..200, 0u32..200), 0..150),
    ) {
        let p = p.min(g.num_vertices());
        let grid = GridGraph::partition(&g, p).unwrap();
        let part = grid.partition_info().clone();
        let mut dynamic = DynamicGrid::new(grid, 0.3);
        let slack = |len: usize| (len as f64 * 0.3).ceil() as usize;
        // Per block: (edges, reserved capacity), laid out like partition.
        let mut model: Vec<(Vec<Edge>, usize)> = vec![(Vec::new(), 0); (p as usize).pow(2)];
        for e in g.iter() {
            model[part.block_of(e).linear(p)].0.push(*e);
        }
        for (edges, reserved) in &mut model {
            *reserved = (edges.len() + slack(edges.len())).max(4);
        }
        let nv = g.num_vertices();
        for (add, a, b) in ops {
            let e = Edge::new(a % nv, b % nv);
            let (edges, reserved) = &mut model[part.block_of(&e).linear(p)];
            if add {
                edges.push(e);
                let fit = edges.len() <= *reserved;
                if !fit {
                    *reserved = edges.len() + slack(edges.len()).max(4);
                }
                let expect = if fit { MutationOutcome::InPlace } else { MutationOutcome::LinkedOverflow };
                prop_assert_eq!(dynamic.apply(Mutation::AddEdge(e)).unwrap(), expect);
            } else {
                let hit = edges.iter().position(|x| (x.src, x.dst) == (e.src, e.dst));
                if let Some(i) = hit {
                    edges.swap_remove(i);
                }
                let removed = dynamic.apply(Mutation::RemoveEdge { src: e.src.raw(), dst: e.dst.raw() });
                prop_assert_eq!(removed.is_ok(), hit.is_some());
            }
        }
        let store = dynamic.grid().flat();
        for (i, (edges, _)) in model.iter().enumerate() {
            let (s, d) = ((i / p as usize) as u32, (i % p as usize) as u32);
            let got: Vec<Edge> = store.block_edges(s, d).collect();
            prop_assert_eq!(&got, edges, "block ({}, {})", s, d);
        }
        prop_assert_eq!(&store.compacted(), store);
    }

    /// interval_of / local_index / global_index form a bijection.
    #[test]
    fn interval_mapping_is_bijective(nv in 1u32..5000, p in 1u32..64,
                                     round_robin in proptest::bool::ANY) {
        let p = p.min(nv);
        let scheme = if round_robin {
            PartitionScheme::RoundRobin
        } else {
            PartitionScheme::Contiguous
        };
        let part = IntervalPartition::new(nv, p, scheme).unwrap();
        let mut sizes = 0u32;
        for i in 0..p {
            sizes += part.interval_len(i);
        }
        prop_assert_eq!(sizes, nv, "interval sizes must cover all vertices");
        for v in (0..nv).step_by(1 + nv as usize / 257) {
            let v = VertexId::new(v);
            let i = part.interval_of(v);
            prop_assert!(i < p);
            prop_assert_eq!(part.global_index(i, part.local_index(v)), v);
        }
    }

    /// Block sparsity accounting is conserved: edge counts across non-empty
    /// blocks sum to the total, and Navg is consistent.
    #[test]
    fn sparsity_conservation(g in arb_graph(), dim in 1u32..16) {
        let stats = block_sparsity(&g, dim);
        prop_assert_eq!(stats.edges, g.len() as u64);
        if g.is_empty() {
            prop_assert_eq!(stats.non_empty_blocks, 0);
        } else {
            prop_assert!(stats.non_empty_blocks >= 1);
            prop_assert!(stats.max_edges_per_block as f64 >= stats.avg_edges_per_block);
            let reconstructed = stats.avg_edges_per_block * stats.non_empty_blocks as f64;
            prop_assert!((reconstructed - stats.edges as f64).abs() < 1e-6);
        }
    }

    /// A random mutation sequence applied to the grid matches a naive
    /// multiset model of the live edge set.
    #[test]
    fn dynamic_grid_matches_multiset_model(
        g in arb_graph(),
        ops in proptest::collection::vec((0u8..4, 0u32..200, 0u32..200), 0..100),
    ) {
        let p = 4u32.min(g.num_vertices());
        let grid = GridGraph::partition(&g, p).unwrap();
        let mut dynamic = DynamicGrid::new(grid, 0.3);
        // Model: multiset of edges + tombstone set.
        let mut model: Vec<(u32, u32)> =
            g.iter().map(|e| (e.src.raw(), e.dst.raw())).collect();
        let mut model_nv = g.num_vertices();
        let mut dead = std::collections::HashSet::new();

        for (kind, a, b) in ops {
            match kind {
                0 => {
                    let (src, dst) = (a % model_nv, b % model_nv);
                    let got = dynamic.apply(Mutation::AddEdge(Edge::new(src, dst)));
                    if dead.contains(&src) || dead.contains(&dst) {
                        // Deleted endpoints reject the add, leaving the
                        // stored edge set untouched.
                        prop_assert!(got.is_err());
                    } else {
                        prop_assert!(got.is_ok());
                        model.push((src, dst));
                    }
                }
                1 => {
                    let (src, dst) = (a % model_nv, b % model_nv);
                    let expect = model.iter().position(|&e| e == (src, dst));
                    let got = dynamic.apply(Mutation::RemoveEdge { src, dst });
                    match expect {
                        Some(i) => {
                            prop_assert!(got.is_ok());
                            model.swap_remove(i);
                        }
                        None => prop_assert!(got.is_err()),
                    }
                }
                2 => {
                    prop_assert!(dynamic.apply(Mutation::AddVertex).is_ok());
                    model_nv += 1;
                }
                _ => {
                    let v = a % model_nv;
                    // Tombstoning only marks; edges stay in the multiset.
                    if v < dynamic.grid().num_vertices() {
                        prop_assert!(dynamic
                            .apply(Mutation::RemoveVertex(VertexId::new(v)))
                            .is_ok());
                        dead.insert(v);
                    }
                }
            }
            prop_assert_eq!(dynamic.grid().num_edges(), model.len() as u64);
        }
    }

    /// Degrees stay consistent with the live structure under mutations.
    #[test]
    fn dynamic_degrees_consistent(g in arb_graph(),
                                  adds in proptest::collection::vec((0u32..100, 0u32..100), 0..50)) {
        let p = 4u32.min(g.num_vertices());
        let grid = GridGraph::partition(&g, p).unwrap();
        let mut dynamic = DynamicGrid::new(grid, 0.3);
        for (a, b) in adds {
            let (src, dst) = (a % g.num_vertices(), b % g.num_vertices());
            dynamic.apply(Mutation::AddEdge(Edge::new(src, dst))).unwrap();
        }
        // Recompute degrees from the grid and compare.
        let mut expect = vec![0u32; dynamic.grid().num_vertices() as usize];
        for e in dynamic.grid().iter_edges() {
            expect[e.src.index()] += 1;
            expect[e.dst.index()] += 1;
        }
        for (v, &d) in expect.iter().enumerate() {
            prop_assert_eq!(dynamic.degree(VertexId::new(v as u32)), d);
        }
    }
}
