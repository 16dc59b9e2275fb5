//! Criterion benchmarks of the simulators themselves: one full PR run on
//! the scaled YouTube graph per memory hierarchy, and the GraphR engine.

use criterion::{criterion_group, criterion_main, Criterion};
use hyve_algorithms::PageRank;
use hyve_core::{SimulationSession, SystemConfig};
use hyve_graph::DatasetProfile;
use hyve_graphr::GraphrEngine;
use std::hint::black_box;

fn bench_hyve_engine(c: &mut Criterion) {
    let graph = DatasetProfile::youtube_scaled().generate(2018);
    let mut group = c.benchmark_group("engine_pr2_yt");
    group.sample_size(10);
    for cfg in [
        SystemConfig::acc_dram(),
        SystemConfig::acc_sram_dram(),
        SystemConfig::hyve_opt(),
    ] {
        let name = cfg.name;
        let session = SimulationSession::builder(cfg).build().expect("valid");
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = session
                    .run_on_edge_list(&PageRank::new(2), black_box(&graph))
                    .expect("run");
                black_box(report.mteps_per_watt())
            });
        });
    }
    group.finish();
}

fn bench_graphr_engine(c: &mut Criterion) {
    let graph = DatasetProfile::youtube_scaled().generate(2018);
    let engine = GraphrEngine::new();
    let mut group = c.benchmark_group("engine_pr2_yt");
    group.sample_size(10);
    group.bench_function("GraphR", |b| {
        b.iter(|| {
            let report = engine
                .run(&PageRank::new(2), black_box(&graph))
                .expect("run");
            black_box(report.mteps_per_watt())
        });
    });
    group.finish();
}

criterion_group!(benches, bench_hyve_engine, bench_graphr_engine);
criterion_main!(benches);
