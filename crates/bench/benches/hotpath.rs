//! Hot-path microbenchmarks for the flat-SoA / scratch-reuse / skip work:
//!
//! * `edge_walk` — streaming all P² block slots through the edge store's
//!   per-block iterator (a sparse-index lookup per slot) vs walking only the
//!   non-empty blocks' column ranges, as the engine's block plan does,
//! * `plan_order` — one PU's non-empty blocks walked in Algorithm 2's
//!   schedule order (sy → sx → step), the access pattern of every
//!   accumulate iteration, at PageRank's planned P,
//! * `scratch` — a fresh per-iteration accumulator allocation vs refilling
//!   a reused buffer (the accumulate-mode change),
//! * `monotone_skip` — full BFS/SSSP/CC runs with dirty-interval skipping
//!   on vs off.
//!
//! `scripts/bench_report.sh` records the headline legacy-vs-new speedup on
//! the largest dataset into `BENCH_hotpath.json`; these benches are the
//! finer-grained view.

use criterion::{criterion_group, criterion_main, Criterion};
use hyve_algorithms::{Bfs, ConnectedComponents, EdgeProgram, PageRank, Sssp};
use hyve_core::{SimulationSession, SuperBlockSchedule, SystemConfig};
use hyve_graph::{DatasetProfile, GridGraph, VertexId};
use std::collections::HashMap;
use std::hint::black_box;
use std::ops::Range;

const P: u32 = 64;

fn bench_edge_walk(c: &mut Criterion) {
    let graph = DatasetProfile::youtube_scaled().generate(2018);
    let grid = GridGraph::partition(&graph, P).unwrap();
    let flat = grid.flatten();
    let mut group = c.benchmark_group("hotpath_edge_walk_yt_p64");
    group.sample_size(20);
    group.bench_function("flat_soa", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for s in 0..P {
                for d in 0..P {
                    for e in flat.block_edges(s, d) {
                        acc += u64::from(e.src.raw()) + u64::from(e.dst.raw());
                    }
                }
            }
            black_box(acc)
        });
    });
    group.bench_function("non_empty_ranges", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for (_, range) in flat.block_ranges() {
                for e in flat.edges_in(range) {
                    acc += u64::from(e.src.raw()) + u64::from(e.dst.raw());
                }
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_plan_order(c: &mut Criterion) {
    let graph = DatasetProfile::youtube_scaled().generate(2018);
    let config = SystemConfig::hyve_opt();
    let n = config.num_pus;
    let session = SimulationSession::builder(config)
        .build()
        .expect("valid config");
    let p = session.plan_intervals(&PageRank::new(10), graph.num_vertices());
    let grid = GridGraph::partition(&graph, p).unwrap();
    let store = grid.flat();
    // PU 0's non-empty blocks in schedule order, as column ranges.
    let ranges: HashMap<(u32, u32), Range<usize>> = store
        .block_ranges()
        .map(|(id, range)| ((id.src, id.dst), range))
        .collect();
    let schedule = SuperBlockSchedule::new(p, n).unwrap();
    let walk: Vec<Range<usize>> = schedule
        .iter()
        .flat_map(|(_, assignments)| assignments)
        .filter(|a| a.pu == 0)
        .filter_map(|a| ranges.get(&(a.src_interval, a.dst_interval)).cloned())
        .collect();
    let mut group = c.benchmark_group(&format!("hotpath_plan_order_yt_p{p}"));
    group.sample_size(20);
    group.bench_function("pu0_blocks", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for range in &walk {
                for e in store.edges_in(range.clone()) {
                    acc += u64::from(e.src.raw()) + u64::from(e.dst.raw());
                }
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_scratch_reuse(c: &mut Criterion) {
    const NV: usize = 75_781; // LJ-sized vertex array
                              // SSSP's identity (∞) is non-zero, so the allocating arm cannot be
                              // served by an untouched calloc page — both arms really write NV lanes,
                              // isolating the allocator + page-fault cost the reused buffer avoids.
    let mut group = c.benchmark_group("hotpath_scratch_75k");
    group.sample_size(40);
    group.bench_function("alloc_per_iteration", |b| {
        b.iter(|| {
            let acc = vec![f32::INFINITY; NV];
            black_box(acc.len())
        });
    });
    let mut reused = vec![f32::INFINITY; NV];
    group.bench_function("fill_reused", |b| {
        b.iter(|| {
            reused.fill(f32::INFINITY);
            black_box(reused.len())
        });
    });
    group.finish();
}

fn run_skip_pair<P2: EdgeProgram>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    program: &P2,
    grid: &GridGraph,
) {
    for (label, skipping) in [("full_rescan", false), ("skip_clean", true)] {
        let session = SimulationSession::builder(SystemConfig::hyve_opt())
            .dirty_interval_skipping(skipping)
            .build()
            .expect("valid config");
        group.bench_function(format!("{name}/{label}"), |b| {
            b.iter(|| {
                let (report, values) = session
                    .run_with_values(program, black_box(grid))
                    .expect("run");
                black_box((report.iterations, values.len()))
            });
        });
    }
}

fn bench_monotone_skip(c: &mut Criterion) {
    let graph = DatasetProfile::youtube_scaled().generate(2018);
    let grid = GridGraph::partition(&graph, P).unwrap();
    let mut group = c.benchmark_group("hotpath_monotone_yt_p64");
    group.sample_size(10);
    run_skip_pair(&mut group, "bfs", &Bfs::new(VertexId::new(0)), &grid);
    run_skip_pair(&mut group, "sssp", &Sssp::new(VertexId::new(0)), &grid);
    run_skip_pair(&mut group, "cc", &ConnectedComponents::new(), &grid);
    group.finish();
}

criterion_group!(
    benches,
    bench_edge_walk,
    bench_plan_order,
    bench_scratch_reuse,
    bench_monotone_skip
);
criterion_main!(benches);
