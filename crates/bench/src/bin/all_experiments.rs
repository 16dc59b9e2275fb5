//! Regenerates every table and figure of the paper in sequence, or only the
//! ones named by `--only <name>[,<name>…]`.
//!
//! Set `HYVE_BENCH_SMALL=1` to restrict to the three smaller datasets.

use hyve_bench::experiments as e;
use std::process::ExitCode;

/// Every experiment, in the order a full regeneration prints them.
const EXPERIMENTS: [(&str, fn()); 17] = [
    ("table1", e::table1::print),
    ("table3", e::table3::print),
    ("fig09", e::fig09::print),
    ("fig10", e::fig10::print),
    ("fig11", e::fig11::print),
    ("fig12", e::fig12::print),
    ("fig13", e::fig13::print),
    ("fig14", e::fig14::print),
    ("fig15", e::fig15::print),
    ("fig16", e::fig16::print),
    ("fig17", e::fig17::print),
    ("fig18", e::fig18::print),
    ("fig19", e::fig19::print),
    ("fig20", e::fig20::print),
    ("fig21", e::fig21::print),
    ("table4", e::table4::print),
    ("ablation", e::ablation::print),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {
            let t = std::time::Instant::now();
            for (_, print) in EXPERIMENTS {
                print();
            }
            println!(
                "\nall experiments regenerated in {:.1}s",
                t.elapsed().as_secs_f64()
            );
            ExitCode::SUCCESS
        }
        [flag, list] if flag == "--only" => {
            let names: Vec<&str> = list.split(',').collect();
            if let Some(unknown) = names
                .iter()
                .find(|n| !EXPERIMENTS.iter().any(|(name, _)| name == *n))
            {
                return usage(&format!("unknown experiment '{unknown}'"));
            }
            for (name, print) in EXPERIMENTS {
                if names.contains(&name) {
                    print();
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage("expected no arguments or `--only <name>[,<name>...]`"),
    }
}

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!("all_experiments: {problem}");
    eprintln!("valid names: {}", names.join(", "));
    ExitCode::from(2)
}
