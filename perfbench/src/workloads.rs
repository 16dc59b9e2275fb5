//! The three workloads. Each one generates its input from the seed, sets up
//! sessions, runs one operation at a time through the public API and checks
//! every output against an independent reference.

use crate::mem::{self, RssMethod};
use crate::spans::Recorder;
use crate::verify::{compare, report_bits, Tolerance, Values};
use hyve_algorithms::{reference, Bfs, ConnectedComponents, EdgeProgram, PageRank, SpMv, Sssp};
use hyve_bench::experiments::fig20::request_mix;
use hyve_core::{
    RunReport, SharedRecorder, SimulationSession, SystemConfig, TraceArtifact, WorkingFlow,
};
use hyve_graph::{
    Csr, DatasetProfile, Edge, EdgeList, GridGraph, Mutation, MutationOutcome, VertexId,
};
use std::collections::HashMap;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// PageRank (10 iterations) then SpMV, each at its planned `P`.
    AccumulateTw,
    /// BFS, SSSP and CC from vertex 0, each at its planned `P`.
    MonotoneTw,
    /// A `WorkingFlow` that applies a §7.4.2 request mix, then runs CC.
    DynamicLj,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::AccumulateTw, Kind::MonotoneTw, Kind::DynamicLj];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::AccumulateTw => "accumulate-tw",
            Kind::MonotoneTw => "monotone-tw",
            Kind::DynamicLj => "dynamic-lj",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The algorithms one operation runs, in order.
    pub fn algs(self) -> &'static [Alg] {
        match self {
            Kind::AccumulateTw => &[Alg::Pr, Alg::Spmv],
            Kind::MonotoneTw => &[Alg::Bfs, Alg::Sssp, Alg::Cc],
            Kind::DynamicLj => &[Alg::Cc],
        }
    }

    /// The full-size input: dataset profile, `dataset_scale`, and the
    /// number of mutation requests per operation (dynamic workload only).
    pub fn full_size(self) -> Size {
        match self {
            Kind::AccumulateTw | Kind::MonotoneTw => Size {
                profile: DatasetProfile::twitter_scaled(),
                dataset_scale: 512,
                requests: 0,
            },
            Kind::DynamicLj => Size {
                profile: DatasetProfile::live_journal_scaled(),
                dataset_scale: 64,
                requests: 200_000,
            },
        }
    }
}

/// Input size of a workload.
#[derive(Debug, Clone)]
pub struct Size {
    /// Dataset profile the graph is generated from.
    pub profile: DatasetProfile,
    /// `SystemConfig::with_dataset_scale` factor for the profile.
    pub dataset_scale: u32,
    /// Mutation requests applied per dynamic operation.
    pub requests: usize,
}

/// One graph algorithm of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    /// PageRank, 10 iterations.
    Pr,
    /// Sparse matrix-vector product with the id-derived input vector.
    Spmv,
    /// Breadth-first search from vertex 0.
    Bfs,
    /// Single-source shortest paths from vertex 0.
    Sssp,
    /// Connected components.
    Cc,
}

impl Alg {
    /// Suffix used in per-algorithm metric names.
    pub fn tag(self) -> &'static str {
        match self {
            Alg::Pr => "pr",
            Alg::Spmv => "spmv",
            Alg::Bfs => "bfs",
            Alg::Sssp => "sssp",
            Alg::Cc => "cc",
        }
    }

    /// How the engine's values must agree with the reference: exactly for
    /// the monotone programs, within the facade tests' 1e-5 otherwise.
    fn tolerance(self) -> Tolerance {
        match self {
            Alg::Pr | Alg::Spmv => Tolerance::Relative(1e-5),
            Alg::Bfs | Alg::Sssp | Alg::Cc => Tolerance::Exact,
        }
    }

    fn reference(self, graph: &EdgeList, csr: &Csr) -> Values {
        let src = VertexId::new(0);
        match self {
            Alg::Pr => Values::F32(reference::pagerank(csr, 10, PageRank::new(10).damping())),
            Alg::Spmv => {
                let spmv = SpMv::new();
                let x: Vec<f32> = (0..graph.num_vertices())
                    .map(|v| spmv.input(VertexId::new(v)))
                    .collect();
                Values::F32(reference::spmv(graph, &x))
            }
            Alg::Bfs => Values::U32(reference::bfs_levels(csr, src)),
            Alg::Sssp => Values::F32(reference::sssp_distances(csr, src)),
            Alg::Cc => Values::U32(reference::connected_components(graph)),
        }
    }
}

/// What one algorithm of an operation produced.
#[derive(Debug, Clone)]
pub struct AlgOutcome {
    /// The algorithm.
    pub alg: Alg,
    /// Its run report.
    pub report: RunReport,
    /// Its final vertex values.
    pub values: Values,
}

/// What one operation produced.
#[derive(Debug, Clone)]
pub struct OpOutput {
    /// One entry per algorithm, in [`Kind::algs`] order.
    pub runs: Vec<AlgOutcome>,
    /// Indices of the mutation requests the flow rejected (dynamic only).
    pub rejected: Vec<u32>,
    /// The flow after the operation (dynamic only). It is dropped after
    /// the operation's timing ends, as the graph workloads' inputs are.
    pub flow: Option<WorkingFlow>,
    /// Problems found by checks made while tracing (round trips, probes).
    pub trace_faults: Vec<String>,
}

/// A set-up workload: input, sessions, and the references it is checked
/// against.
pub struct Workload {
    kind: Kind,
    config: SystemConfig,
    graph: EdgeList,
    mix: Vec<Mutation>,
    session: SimulationSession,
    traced: Option<(SimulationSession, SharedRecorder)>,
    expected: Option<Expected>,
    first_bits: Vec<Vec<u64>>,
    /// Self-test hook: perturb an output value before it is checked.
    pub corrupt: bool,
}

struct Expected {
    values: Vec<Values>,
    rejected: Vec<u32>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Workload {
    /// Generates the input from `seed` and builds the sessions (a traced one
    /// too when `traced`). This is the work `setup_s` measures.
    ///
    /// # Errors
    ///
    /// A description of the failing step.
    pub fn setup(
        kind: Kind,
        size: &Size,
        seed: u64,
        traced: bool,
        rec: &mut Recorder,
    ) -> Result<Workload, String> {
        let ((graph, mix), _) = rec.span("graph.generate", None, |_| {
            let graph = size.profile.generate(seed);
            let mix = if size.requests > 0 {
                request_mix(&graph, size.requests, seed ^ 0x20)
            } else {
                Vec::new()
            };
            (graph, mix)
        });
        let config = SystemConfig::hyve_opt().with_dataset_scale(size.dataset_scale);
        let (sessions, _) = rec.span("core.session_build", None, |_| {
            let session = SimulationSession::builder(config.clone())
                .sequential()
                .build()?;
            let traced = if traced {
                let recorder = SharedRecorder::new();
                let s = SimulationSession::builder(config.clone())
                    .sequential()
                    .with_trace(recorder.clone())
                    .build()?;
                Some((s, recorder))
            } else {
                None
            };
            Ok::<_, hyve_core::CoreError>((session, traced))
        });
        let (session, traced) = sessions.map_err(err)?;
        Ok(Workload {
            kind,
            config,
            graph,
            mix,
            session,
            traced,
            expected: None,
            first_bits: Vec::new(),
            corrupt: false,
        })
    }

    /// Computes the reference outputs once, outside any operation's timing.
    pub fn prepare_references(&mut self, rec: &mut Recorder) {
        let ((), _) = rec.span("algorithms.reference", None, |_| {
            self.expected = Some(match self.kind {
                Kind::DynamicLj => expected_dynamic(&self.graph, &self.mix),
                _ => {
                    let csr = Csr::from_edge_list(&self.graph);
                    Expected {
                        values: self
                            .kind
                            .algs()
                            .iter()
                            .map(|a| a.reference(&self.graph, &csr))
                            .collect(),
                        rejected: Vec::new(),
                    }
                }
            });
        });
    }

    /// Runs one operation. When `rec` is enabled the operation runs on the
    /// traced session and records spans and counters; the timed runs pass a
    /// disabled recorder.
    ///
    /// # Errors
    ///
    /// The first engine or flow error.
    pub fn op(&mut self, rec: &mut Recorder) -> Result<OpOutput, String> {
        let (out, _) = rec.span("bench.op", None, |rec| match self.kind {
            Kind::DynamicLj => self.dynamic_op(rec),
            _ => {
                let mut out = OpOutput {
                    runs: Vec::new(),
                    rejected: Vec::new(),
                    flow: None,
                    trace_faults: Vec::new(),
                };
                for &alg in self.kind.algs() {
                    let run = self.graph_run(alg, &self.graph, rec, &mut out.trace_faults)?;
                    out.runs.push(run);
                }
                Ok(out)
            }
        });
        let mut out = out?;
        if rec.enabled() && self.kind == Kind::DynamicLj {
            self.probe_dynamic(rec, &mut out)?;
        }
        Ok(out)
    }

    /// Runs `alg` the way `hyve run` does: plan `P`, partition, flatten,
    /// run.
    fn graph_run(
        &self,
        alg: Alg,
        graph: &EdgeList,
        rec: &mut Recorder,
        faults: &mut Vec<String>,
    ) -> Result<AlgOutcome, String> {
        match alg {
            Alg::Pr => self.run_program(alg, &PageRank::new(10), graph, Values::F32, rec, faults),
            Alg::Spmv => self.run_program(alg, &SpMv::new(), graph, Values::F32, rec, faults),
            Alg::Bfs => {
                let bfs = Bfs::new(VertexId::new(0));
                self.run_program(alg, &bfs, graph, Values::U32, rec, faults)
            }
            Alg::Sssp => {
                let sssp = Sssp::new(VertexId::new(0));
                self.run_program(alg, &sssp, graph, Values::F32, rec, faults)
            }
            Alg::Cc => {
                let cc = ConnectedComponents::new();
                self.run_program(alg, &cc, graph, Values::U32, rec, faults)
            }
        }
    }

    fn run_program<P: EdgeProgram>(
        &self,
        alg: Alg,
        program: &P,
        graph: &EdgeList,
        values: fn(Vec<P::Value>) -> Values,
        rec: &mut Recorder,
        faults: &mut Vec<String>,
    ) -> Result<AlgOutcome, String> {
        let tag = Some(alg.tag());
        let traced = rec.enabled();
        let session = match (&self.traced, traced) {
            (Some((s, _)), true) => s,
            _ => &self.session,
        };
        let (p, id) = rec.span("core.plan", tag, |_| {
            session.plan_intervals(program, graph.num_vertices())
        });
        rec.count(id, "core.plan.p", f64::from(p));

        let ((grid, rss), id) = rec.span("graph.partition", tag, |_| {
            if traced {
                let (grid, mb, method) = mem::measure_rss(|| GridGraph::partition(graph, p));
                (grid, Some((mb, method)))
            } else {
                (GridGraph::partition(graph, p), None)
            }
        });
        let grid = grid.map_err(err)?;
        if let Some((mb, method)) = rss {
            rec.count(id, "graph.partition.rss_mb", mb);
            let via_reset = f64::from(u8::from(method == RssMethod::HwmReset));
            rec.count(id, "graph.partition.rss_via_hwm_reset", via_reset);
        }
        rec.count(id, "graph.grid.blocks", grid.num_blocks() as f64);
        rec.count(
            id,
            "graph.grid.nonempty_blocks",
            grid.non_empty_blocks() as f64,
        );

        rec.span("graph.flatten", tag, |_| {
            std::hint::black_box(grid.flat());
        });

        let (result, id) = rec.span("core.run", tag, |_| session.run_with_values(program, &grid));
        let (report, vals) = result.map_err(err)?;
        drop(grid);
        rec.count(id, "core.run.iterations", f64::from(report.iterations));
        rec.count(
            id,
            "core.run.edges_processed",
            report.edges_processed as f64,
        );
        record_sim(rec, id, &report);
        if traced {
            if let Some((_, recorder)) = &self.traced {
                check_artifact(rec, id, tag, &recorder.artifact(), &report, faults);
            }
        }
        Ok(AlgOutcome {
            alg,
            report,
            values: values(vals),
        })
    }

    fn dynamic_op(&self, rec: &mut Recorder) -> Result<OpOutput, String> {
        let (flow, _) = rec.span("core.workflow.new", None, |_| {
            WorkingFlow::new(self.config.clone(), &self.graph)
        });
        let mut flow = flow.map_err(err)?;

        let ((counts, rejected), id) = rec.span("core.workflow.apply", None, |_| {
            let mut counts = [0u64; 4];
            let mut rejected = Vec::new();
            for (i, m) in self.mix.iter().enumerate() {
                match flow.apply(*m) {
                    Ok(MutationOutcome::InPlace) => counts[0] += 1,
                    Ok(MutationOutcome::LinkedOverflow) => counts[1] += 1,
                    Ok(MutationOutcome::Repartitioned) => counts[2] += 1,
                    Ok(MutationOutcome::VertexTombstoned) => counts[3] += 1,
                    Err(_) => rejected.push(u32::try_from(i).expect("request index fits u32")),
                }
            }
            (counts, rejected)
        });
        let names = [
            "core.workflow.apply.in_place",
            "core.workflow.apply.linked_overflow",
            "core.workflow.apply.repartitioned",
            "core.workflow.apply.tombstoned",
        ];
        for (name, n) in names.into_iter().zip(counts) {
            rec.count(id, name, n as f64);
        }
        rec.count(id, "core.workflow.apply.rejected", rejected.len() as f64);
        rec.count(id, "core.workflow.apply.mutations", self.mix.len() as f64);

        let (result, _) = rec.span("core.workflow.analyze", None, |_| {
            flow.analyze_with_values(&ConnectedComponents::new())
        });
        let (report, labels) = result.map_err(err)?;
        Ok(OpOutput {
            runs: vec![AlgOutcome {
                alg: Alg::Cc,
                report,
                values: Values::U32(labels),
            }],
            rejected,
            flow: Some(flow),
            trace_faults: Vec::new(),
        })
    }

    /// Traced runs only, outside the operation's span: repeats the analysis
    /// of the flow's live snapshot one layer at a time on the traced
    /// session, so that the layers `analyze` hides get spans and counters.
    /// The probe's report must equal the flow's, bit for bit.
    fn probe_dynamic(&self, rec: &mut Recorder, out: &mut OpOutput) -> Result<(), String> {
        let flow = out.flow.as_ref().ok_or("dynamic operation kept no flow")?;
        let (live, _) = rec.span("graph.dynamic.live_edge_list", None, |_| {
            flow.dynamic().live_edge_list()
        });
        let mut faults = Vec::new();
        let probe = self.graph_run(Alg::Cc, &live, rec, &mut faults)?;
        out.trace_faults.extend(faults);
        if report_bits(&probe.report) != report_bits(&out.runs[0].report) {
            out.trace_faults
                .push("layer-by-layer probe disagrees with WorkingFlow::analyze".into());
        }
        Ok(())
    }
}

impl Workload {
    /// Checks one operation's outputs; `Err` lists every problem found.
    /// Rejections the request mix makes inevitable (removing an edge a vertex
    /// removal or a rejected add left absent, adding an edge to a deleted
    /// endpoint) are expected and not problems; any other difference from
    /// the reference model is.
    ///
    /// # Panics
    ///
    /// If [`prepare_references`](Self::prepare_references) was not called.
    pub fn verify(&mut self, out: &mut OpOutput) -> Result<(), Vec<String>> {
        let expected = self
            .expected
            .as_ref()
            .expect("references are prepared before the first operation");
        let mut problems = std::mem::take(&mut out.trace_faults);
        if self.corrupt {
            out.runs[0].values.corrupt();
        }
        if out.runs.len() != expected.values.len() {
            problems.push(format!(
                "{} runs, expected {}",
                out.runs.len(),
                expected.values.len()
            ));
        }
        for (i, (run, want)) in out.runs.iter().zip(&expected.values).enumerate() {
            let alg = run.alg.tag();
            if let Err(e) = compare(&run.values, want, run.alg.tolerance()) {
                problems.push(format!("{alg}: {e}"));
            }
            let bits = report_bits(&run.report);
            match self.first_bits.get(i) {
                Some(first) if *first != bits => {
                    problems.push(format!(
                        "{alg}: run report differs from the first operation's"
                    ));
                }
                Some(_) => {}
                None => self.first_bits.push(bits),
            }
        }
        if out.rejected != expected.rejected {
            problems.push(format!(
                "{} requests rejected, the reference model rejects {}",
                out.rejected.len(),
                expected.rejected.len()
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems)
        }
    }
}

/// Per-channel energy and per-phase modelled time of a report.
fn record_sim(rec: &mut Recorder, span: u32, r: &RunReport) {
    let b = &r.breakdown;
    let channels = [
        ("sim.energy.edge_uj", &b.edge_memory),
        ("sim.energy.offchip_vertex_uj", &b.offchip_vertex),
        ("sim.energy.onchip_vertex_uj", &b.onchip_vertex),
        ("sim.energy.logic_uj", &b.logic),
    ];
    for (name, stats) in channels {
        rec.count(span, name, stats.total_energy().as_uj());
    }
    let phases = [
        ("sim.phase.loading_ms", r.phases.loading),
        ("sim.phase.processing_ms", r.phases.processing),
        ("sim.phase.updating_ms", r.phases.updating),
        ("sim.phase.overhead_ms", r.phases.overhead),
    ];
    for (name, t) in phases {
        rec.count(span, name, t.as_ms());
    }
}

/// Reads the engine's trace artifact for the run that just ended: skip
/// counters, gating transitions and router words, and the JSONL round trip,
/// which must reproduce the artifact exactly.
fn check_artifact(
    rec: &mut Recorder,
    run_span: u32,
    tag: Option<&'static str>,
    artifact: &TraceArtifact,
    report: &RunReport,
    faults: &mut Vec<String>,
) {
    let processed: u64 = artifact.iterations.iter().map(|s| s.blocks_processed).sum();
    let skipped: u64 = artifact.iterations.iter().map(|s| s.blocks_skipped).sum();
    rec.count(run_span, "core.run.blocks_processed", processed as f64);
    rec.count(run_span, "core.run.blocks_skipped", skipped as f64);
    let gating = artifact.gating_transitions.unwrap_or(0);
    rec.count(run_span, "sim.gating_transitions", gating as f64);
    let words = artifact.router.map_or(0, |r| r.words);
    rec.count(run_span, "sim.router_words", words as f64);
    if artifact.edges_processed != report.edges_processed
        || artifact.iterations_total != report.iterations
    {
        faults.push(format!(
            "{tag:?}: trace artifact disagrees with the run report"
        ));
    }

    let (text, id) = rec.span("core.trace.serialize", tag, |_| artifact.to_jsonl());
    rec.count(id, "core.trace.bytes", text.len() as f64);
    let (parsed, _) = rec.span("core.trace.parse", tag, |_| {
        TraceArtifact::from_jsonl(&text)
    });
    match parsed {
        Ok(back) if back == *artifact => {}
        Ok(_) => faults.push(format!(
            "{tag:?}: trace JSONL round trip changed the artifact"
        )),
        Err(e) => faults.push(format!("{tag:?}: trace JSONL does not parse: {e}")),
    }
}

/// Replays the request mix on a plain edge multiset, independently of
/// `DynamicGrid`, to predict which requests the flow must reject and the
/// components of the final live graph.
fn expected_dynamic(graph: &EdgeList, mix: &[Mutation]) -> Expected {
    let mut edges: HashMap<(u32, u32), u32> = HashMap::new();
    for e in graph.iter() {
        *edges.entry((e.src.raw(), e.dst.raw())).or_insert(0) += 1;
    }
    let mut deleted = vec![false; graph.num_vertices() as usize];
    let mut rejected = Vec::new();
    for (i, m) in mix.iter().enumerate() {
        let n = deleted.len() as u32;
        let ok = match *m {
            Mutation::AddEdge(e) => {
                let (s, d) = (e.src.raw(), e.dst.raw());
                let ok = s < n && d < n && !deleted[s as usize] && !deleted[d as usize];
                if ok {
                    *edges.entry((s, d)).or_insert(0) += 1;
                }
                ok
            }
            Mutation::RemoveEdge { src, dst } => match edges.get_mut(&(src, dst)) {
                Some(count) if *count > 0 => {
                    *count -= 1;
                    true
                }
                _ => false,
            },
            Mutation::AddVertex => {
                deleted.push(false);
                true
            }
            Mutation::RemoveVertex(v) => {
                let ok = v.raw() < n;
                if ok {
                    deleted[v.index()] = true;
                }
                ok
            }
        };
        if !ok {
            rejected.push(u32::try_from(i).expect("request index fits u32"));
        }
    }
    let live = edges
        .iter()
        .filter(|(&(s, d), _)| !deleted[s as usize] && !deleted[d as usize])
        .flat_map(|(&(s, d), &count)| (0..count).map(move |_| Edge::new(s, d)));
    let live = EdgeList::from_edges(deleted.len() as u32, live)
        .expect("replayed edges stay within the vertex range");
    Expected {
        values: vec![Values::U32(reference::connected_components(&live))],
        rejected,
    }
}
