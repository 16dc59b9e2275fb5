//! Hot-path speedup report: times the pre-optimisation engine loop (a dense
//! walk over all P² block slots, one per-block edge lookup each, per-PU
//! snapshot clone, per-iteration accumulator allocation, per-run out-degree
//! rescan — kept here as the baseline) against the current engine (plan of
//! non-empty blocks over the edge store, reused scratch, dirty-interval
//! skipping) on the monotone algorithms, and appends one
//! JSON line per invocation to `BENCH_hotpath.json` so the performance
//! trajectory accumulates across commits.
//!
//! Run through `scripts/bench_report.sh`, which builds in release mode and
//! stamps the git revision. `HYVE_BENCH_SMALL=1` switches from the largest
//! dataset (TW) to YT for quick CI runs.

use hyve_algorithms::{
    Bfs, ConnectedComponents, EdgeProgram, ExecutionMode, GraphMeta, IterationBound, Sssp,
};
use hyve_bench::workloads;
use hyve_core::{SimulationSession, SystemConfig};
use hyve_graph::{DatasetProfile, GridGraph, VertexId};
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// The engine hot path as it stood before the flat-SoA/scratch/skip work —
/// the measured baseline. Functionally identical to the current engine
/// (asserted below), just slower. Blocks are read through the edge store's
/// per-block iterator, so the dense P² walk is the only layout cost kept.
fn legacy_run<P: EdgeProgram>(program: &P, grid: &GridGraph, n: u32) -> (Vec<P::Value>, u32) {
    let meta = GraphMeta {
        num_vertices: grid.num_vertices(),
        num_edges: grid.num_edges(),
        out_degrees: {
            let mut deg = vec![0u32; grid.num_vertices() as usize];
            for e in grid.iter_edges() {
                deg[e.src.index()] += 1;
            }
            deg
        },
    };
    let nv = meta.num_vertices as usize;
    let p = grid.num_intervals();
    let s = p / n;
    // Algorithm 2's closed-form schedule: at (sy, sx, step) PU `pu` owns
    // block (sx·N + (pu+step) mod N, sy·N + pu).
    let pu_blocks: Vec<Vec<(u32, u32)>> = (0..n)
        .map(|pu| {
            let mut blocks = Vec::new();
            for sy in 0..s {
                for sx in 0..s {
                    for step in 0..n {
                        blocks.push((sx * n + (pu + step) % n, sy * n + pu));
                    }
                }
            }
            blocks
        })
        .collect();

    let mut values: Vec<P::Value> = (0..meta.num_vertices)
        .map(|v| program.init(VertexId::new(v), &meta))
        .collect();
    let bound = program.bound();
    let mut iterations = 0;
    for _ in 0..bound.max_iterations() {
        iterations += 1;
        let snapshot = &values;
        let per_pu: Vec<Vec<P::Value>> = pu_blocks
            .iter()
            .map(|blocks| match program.mode() {
                ExecutionMode::Accumulate => {
                    let mut acc = vec![program.identity(); nv];
                    for &(src, dst) in blocks {
                        for e in grid.flat().block_edges(src, dst) {
                            let msg = program.scatter(snapshot[e.src.index()], &e, &meta);
                            acc[e.dst.index()] = program.merge(acc[e.dst.index()], msg);
                            if program.undirected() {
                                let msg =
                                    program.scatter(snapshot[e.dst.index()], &e.reversed(), &meta);
                                acc[e.src.index()] = program.merge(acc[e.src.index()], msg);
                            }
                        }
                    }
                    acc
                }
                ExecutionMode::Monotone => {
                    let mut local = snapshot.clone();
                    for &(src, dst) in blocks {
                        for e in grid.flat().block_edges(src, dst) {
                            let msg = program.scatter(local[e.src.index()], &e, &meta);
                            local[e.dst.index()] = program.merge(local[e.dst.index()], msg);
                            if program.undirected() {
                                let msg =
                                    program.scatter(local[e.dst.index()], &e.reversed(), &meta);
                                local[e.src.index()] = program.merge(local[e.src.index()], msg);
                            }
                        }
                    }
                    local
                }
            })
            .collect();

        let mut changed = false;
        match program.mode() {
            ExecutionMode::Accumulate => {
                let mut outcomes = per_pu.into_iter();
                let mut total = outcomes
                    .next()
                    .unwrap_or_else(|| vec![program.identity(); nv]);
                for acc in outcomes {
                    for (t, a) in total.iter_mut().zip(acc) {
                        *t = program.merge(*t, a);
                    }
                }
                for v in 0..nv {
                    let new = program.apply(VertexId::new(v as u32), total[v], values[v], &meta);
                    if new != values[v] {
                        changed = true;
                    }
                    values[v] = new;
                }
            }
            ExecutionMode::Monotone => {
                for local in per_pu {
                    for (v, l) in values.iter_mut().zip(local) {
                        let merged = program.merge(*v, l);
                        if merged != *v {
                            *v = merged;
                            changed = true;
                        }
                    }
                }
            }
        }
        if matches!(bound, IterationBound::Converge { .. }) && !changed {
            break;
        }
    }
    (values, iterations)
}

/// Best-of-`reps` wall-clock time of `f`, in nanoseconds.
fn time_ns<R>(reps: u32, mut f: impl FnMut() -> R) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_nanos());
    }
    best
}

struct Measurement {
    tag: &'static str,
    legacy_ns: u128,
    new_ns: u128,
}

fn measure<P: EdgeProgram>(
    tag: &'static str,
    program: &P,
    session: &SimulationSession,
    grid: &GridGraph,
    reps: u32,
) -> Measurement {
    // Equivalence first: the baseline must agree with the engine exactly,
    // otherwise the timing comparison is meaningless.
    let (new_values, new_iters) = {
        let (report, values) = session.run_with_values(program, grid).expect("engine run");
        (values, report.iterations)
    };
    let (legacy_values, legacy_iters) = legacy_run(program, grid, session.config().num_pus);
    assert_eq!(legacy_iters, new_iters, "{tag}: iteration count drifted");
    assert_eq!(
        format!("{legacy_values:?}"),
        format!("{new_values:?}"),
        "{tag}: values drifted"
    );

    let legacy_ns = time_ns(reps, || {
        legacy_run(program, grid, session.config().num_pus).1
    });
    // The new path is timed through the public session API, so it also
    // carries flattening, plan construction and the accounting pass the
    // legacy loop omits — the comparison is conservative.
    let new_ns = time_ns(reps, || {
        session
            .run_with_values(program, grid)
            .expect("engine run")
            .0
            .iterations
    });
    eprintln!(
        "  {tag:<5} legacy {:>12} ns   new {:>12} ns   speedup {:.2}x",
        legacy_ns,
        new_ns,
        legacy_ns as f64 / new_ns as f64
    );
    Measurement {
        tag,
        legacy_ns,
        new_ns,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".into());
    let small = std::env::var_os("HYVE_BENCH_SMALL").is_some();
    let profile = if small {
        DatasetProfile::youtube_scaled()
    } else {
        DatasetProfile::twitter_scaled()
    };
    let reps = 3;

    eprintln!(
        "hotpath report: dataset {} (seed {})",
        profile.tag,
        workloads::SEED
    );
    let graph = profile.generate(workloads::SEED);
    let cfg = workloads::configure(SystemConfig::hyve_opt(), &profile);
    let session = SimulationSession::builder(cfg)
        .build()
        .expect("preset configuration is valid");
    let bfs = Bfs::new(VertexId::new(0));
    let p = session.plan_intervals(&bfs, graph.num_vertices());
    let grid = GridGraph::partition(&graph, p).expect("benchmark grid partitions");
    eprintln!(
        "  P = {p}, N = {}, |V| = {}, |E| = {}",
        session.config().num_pus,
        graph.num_vertices(),
        graph.len()
    );

    let results = [
        measure("bfs", &bfs, &session, &grid, reps),
        measure("sssp", &Sssp::new(VertexId::new(0)), &session, &grid, reps),
        measure("cc", &ConnectedComponents::new(), &session, &grid, reps),
    ];

    // Hand-rolled JSON line (no serde in the offline dependency set).
    let mut line = String::new();
    write!(
        line,
        "{{\"schema\":\"hyve-hotpath/v1\",\"rev\":\"{}\",\"utc\":\"{}\",\"dataset\":\"{}\",\"p\":{},\"pus\":{},\"reps\":{},\"entries\":{{",
        std::env::var("HOTPATH_REV").unwrap_or_else(|_| "unknown".into()),
        std::env::var("HOTPATH_UTC").unwrap_or_else(|_| "unknown".into()),
        profile.tag,
        p,
        session.config().num_pus,
        reps,
    )
    .expect("write to String cannot fail");
    let mut log_speedup_sum = 0.0f64;
    for (i, m) in results.iter().enumerate() {
        let speedup = m.legacy_ns as f64 / m.new_ns as f64;
        log_speedup_sum += speedup.ln();
        write!(
            line,
            "{}\"{}\":{{\"legacy_ns\":{},\"new_ns\":{},\"speedup\":{:.4}}}",
            if i > 0 { "," } else { "" },
            m.tag,
            m.legacy_ns,
            m.new_ns,
            speedup,
        )
        .expect("write to String cannot fail");
    }
    let geomean = (log_speedup_sum / results.len() as f64).exp();
    write!(line, "}},\"geomean_speedup\":{geomean:.4}}}").expect("write to String cannot fail");

    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .expect("open trajectory file");
    writeln!(file, "{line}").expect("append trajectory line");
    eprintln!("  geomean speedup {geomean:.2}x -> appended to {out_path}");

    // With HYVE_TRACE_DIR set, also emit a per-iteration trace artifact of
    // the measured workload so `scripts/bench_report.sh` can attach it next
    // to the trajectory (tracing is observation-only, so this re-run's
    // report is bit-identical to the timed ones).
    if let Some(dir) = std::env::var_os("HYVE_TRACE_DIR") {
        let (traced, recorder) =
            workloads::traced_session(workloads::configure(SystemConfig::hyve_opt(), &profile));
        traced.run(&bfs, &grid).expect("engine run");
        let path = std::path::Path::new(&dir).join(hyve_bench::report::artifact_name(
            traced.config().name,
            "BFS",
            profile.tag,
        ));
        std::fs::write(&path, recorder.artifact().to_jsonl()).expect("write trace artifact");
        eprintln!("  trace artifact -> {}", path.display());
    }
}
