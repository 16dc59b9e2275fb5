//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <accumulate-tw|monotone-tw|dynamic-lj> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client runs operations back to back (a closed loop) for `--seconds`,
//! checks every output, and prints as its last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! See `perfbench/README.md` for the workloads and metrics.

mod calibrate;
mod mem;
mod metrics;
#[cfg(test)]
mod selftest;
mod spans;
mod verify;
mod workloads;

use metrics::{derive, median, median_by_key, END_TO_END, MAX_KEYS, PER_LAYER};
use spans::{json_num, Recorder};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Kind, Size, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const USAGE: &str = "usage: hyve-perfbench --workload <accumulate-tw|monotone-tw|dynamic-lj> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "--seconds must be a non-negative number, got {value}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result of one benchmark run.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// The reported metrics, in catalogue order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Traced runs only: every span, and every per-layer metric including
    /// the `.<alg>` breakdowns.
    recorder: Recorder,
    breakdown: BTreeMap<String, f64>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload: set up `SETUP_REPS` times, compute references, then
/// operate in a closed loop until `seconds` have passed (at least one
/// operation; in traced runs at least one untraced and one traced).
///
/// `calibrate` times one calibration sweep. It runs before and after every
/// timed interval, and the interval is scaled by the sweeps around it (see
/// `calibrate`).
fn run(
    kind: Kind,
    size: &Size,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: bool,
    calibrate: &mut dyn FnMut() -> Result<f64, String>,
) -> Result<Outcome, String> {
    let mut rec = Recorder::new(trace);
    let mut cal = vec![calibrate()?];
    let mut scaled = |secs: f64| -> Result<f64, String> {
        cal.push(calibrate()?);
        Ok(calibrate::scale(
            secs,
            cal[cal.len() - 2],
            cal[cal.len() - 1],
        ))
    };
    let mut setup_secs = Vec::new();
    let mut setup_samples = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        // Free the previous repetition's input before generating again.
        drop(workload.take());
        setup_samples.push(rec.begin_sample());
        let t = Instant::now();
        workload = Some(Workload::setup(kind, size, seed, trace, &mut rec)?);
        setup_secs.push(scaled(t.elapsed().as_secs_f64())?);
    }
    let mut w = workload.expect("at least one set-up repetition");
    w.corrupt = corrupt;
    let reference_sample = rec.begin_sample();
    w.prepare_references(&mut rec);
    // A fresh sweep, so the first operation is not scaled by one taken
    // before the references were computed.
    scaled(0.0)?;

    let mut untraced = Recorder::new(false);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut op_secs, mut raw_op_secs) = (Vec::new(), Vec::new());
    let mut traced_samples = Vec::new();
    let (mut edges, mut total_s, mut energy_uj) = (0u64, 0.0f64, 0.0f64);
    let mut sim_ms = Vec::new();
    let start = Instant::now();
    loop {
        for traced in [false, true] {
            if traced && !trace {
                continue;
            }
            let r = if traced {
                traced_samples.push(rec.begin_sample());
                &mut rec
            } else {
                &mut untraced
            };
            let t = Instant::now();
            let out = w.op(r);
            let raw_secs = t.elapsed().as_secs_f64();
            let secs = scaled(raw_secs)?;
            attempted += 1;
            let done = match out {
                Ok(mut out) => {
                    let e: u64 = out.runs.iter().map(|r| r.report.edges_processed).sum();
                    let uj: f64 = out.runs.iter().map(|r| r.report.energy().as_uj()).sum();
                    let ms: f64 = out.runs.iter().map(|r| r.report.elapsed().as_ms()).sum();
                    if let Err(problems) = w.verify(&mut out) {
                        failed += 1;
                        for p in problems {
                            eprintln!("operation {attempted}: {p}");
                        }
                    }
                    Some((e, uj, ms))
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("operation {attempted} failed: {e}");
                    None
                }
            };
            if let (false, Some((e, uj, ms))) = (traced, done) {
                op_secs.push(secs);
                raw_op_secs.push(raw_secs);
                total_s += secs;
                edges += e;
                energy_uj += uj;
                sim_ms.push(ms);
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    eprintln!(
        "{}: {} operations, unscaled op median {:.6} s, calibration median {:.6} s (reference {} s)",
        kind.name(),
        raw_op_secs.len(),
        median(&raw_op_secs),
        median(&cal),
        calibrate::REFERENCE_S
    );

    let mut breakdown = BTreeMap::new();
    let metrics = if trace {
        breakdown = layer_breakdown(
            kind,
            &rec,
            &setup_samples,
            reference_sample,
            &traced_samples,
            median(&raw_op_secs),
            median(&cal),
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, breakdown.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let peak = mem::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        let values = [
            median(&op_secs),
            if total_s > 0.0 {
                edges as f64 / total_s
            } else {
                0.0
            },
            peak,
            median(&setup_secs),
            if energy_uj > 0.0 {
                edges as f64 / energy_uj
            } else {
                0.0
            },
            median(&sim_ms),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        recorder: rec,
        breakdown,
    })
}

/// Per-layer metrics of a traced run: medians over the set-up repetitions
/// and over the traced operations, with ratios derived per operation.
fn layer_breakdown(
    kind: Kind,
    rec: &Recorder,
    setup_samples: &[u32],
    reference_sample: u32,
    traced_samples: &[u32],
    untraced_op_s: f64,
    calibration_s: f64,
) -> BTreeMap<String, f64> {
    let per_sample = rec.sample_metrics(&MAX_KEYS);
    let pick = |ids: &[u32]| -> Vec<BTreeMap<String, f64>> {
        ids.iter()
            .map(|id| per_sample.get(id).cloned().unwrap_or_default())
            .collect()
    };
    let mut out = median_by_key(&pick(setup_samples));

    let suffixes: Vec<String> = kind
        .algs()
        .iter()
        .map(|a| format!(".{}", a.tag()))
        .collect();
    let mut ops = pick(traced_samples);
    for (m, &sample) in ops.iter_mut().zip(traced_samples) {
        derive(m, &suffixes);
        m.insert("bench.unattributed_frac".into(), unattributed(rec, sample));
    }
    let ops = median_by_key(&ops);
    let traced_op_s = ops.get("bench.op.s").copied().unwrap_or(0.0);
    out.extend(ops);
    if let Some(m) = per_sample.get(&reference_sample) {
        out.extend(m.clone());
    }
    let overhead = if untraced_op_s > 0.0 {
        (traced_op_s - untraced_op_s) / untraced_op_s
    } else {
        0.0
    };
    out.insert("core.trace.overhead_frac".into(), overhead);
    out.insert("bench.untraced_op.s".into(), untraced_op_s);
    out.insert("bench.calibration.s".into(), calibration_s);
    out
}

/// Share of an operation's span not covered by the spans directly inside
/// it.
fn unattributed(rec: &Recorder, sample: u32) -> f64 {
    let spans: Vec<_> = rec.spans().iter().filter(|s| s.sample == sample).collect();
    let Some(op) = spans.iter().find(|s| s.name == "bench.op") else {
        return 0.0;
    };
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(op.id))
        .map(|s| s.secs())
        .sum();
    if op.secs() > 0.0 {
        1.0 - covered / op.secs()
    } else {
        0.0
    }
}

/// Writes a traced run's spans, then one line with every per-layer metric
/// (the `.<alg>` breakdowns included), under `perfbench/out/`.
fn write_trace(args: &Args, outcome: &Outcome) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-seed{}.jsonl", args.kind.name(), args.seed);
    let summary: Vec<String> = outcome
        .breakdown
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
        .collect();
    let text = format!(
        "{}{{\"summary\":{{{}}}}}\n",
        outcome.recorder.to_jsonl(),
        summary.join(",")
    );
    std::fs::write(&path, text)?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == [calibrate::CHILD_FLAG] {
        return calibrate::child_main();
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let size = args.kind.full_size();
    let outcome = match calibrate::Calibrator::start().and_then(|mut cal| {
        run(
            args.kind,
            &size,
            args.seed,
            args.seconds,
            args.trace,
            false,
            &mut || cal.sample(),
        )
    }) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: {e}", args.kind.name());
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        for (k, v) in &outcome.breakdown {
            eprintln!("{k:<44} {v}");
        }
        match write_trace(&args, &outcome) {
            Ok(path) => eprintln!("spans: {path}"),
            Err(e) => {
                eprintln!("cannot write the span log: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
