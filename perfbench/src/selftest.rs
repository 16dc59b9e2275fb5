//! Reduced-size runs of every workload: each emits every catalogued metric
//! with its unit, and a corrupted output value is counted as a failure.

use crate::calibrate::REFERENCE_S;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run;
use crate::workloads::{Kind, Size};
use hyve_graph::DatasetProfile;

fn small(kind: Kind) -> Size {
    match kind {
        Kind::DynamicLj => Size {
            profile: DatasetProfile::wiki_talk_scaled(),
            dataset_scale: 64,
            requests: 5_000,
        },
        Kind::AccumulateTw | Kind::MonotoneTw => Size {
            profile: DatasetProfile::youtube_scaled(),
            dataset_scale: 64,
            requests: 0,
        },
    }
}

/// Runs one operation (two when traced) and returns the result line.
fn result_line(kind: Kind, trace: bool, corrupt: bool) -> (String, u64, u64) {
    // A constant sweep time: every interval is scaled by 1.
    let mut calibrate = || Ok(REFERENCE_S);
    let outcome =
        run(kind, &small(kind), 11, 0.0, trace, corrupt, &mut calibrate).expect("set-up succeeds");
    (outcome.to_json(), outcome.attempted, outcome.failed)
}

fn assert_emits(line: &str, catalogue: &[(&str, &str)], kind: Kind) {
    for (name, unit) in catalogue {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{}: {name} missing from {line}", kind.name()));
        let rest = &line[at + key.len()..];
        let (value, tail) = rest.split_once(',').expect("value then unit");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{name}: value {value}"));
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
            "{}: {name} has the wrong unit: {tail}",
            kind.name()
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric_with_its_unit() {
    for kind in Kind::ALL {
        let (line, attempted, failed) = result_line(kind, false, false);
        assert_emits(&line, &END_TO_END, kind);
        assert!(line.starts_with("{\"correct\": true,"), "{line}");
        assert_eq!((attempted, failed), (1, 0), "{}", kind.name());
        for (name, _) in END_TO_END {
            assert!(
                !line.contains(&format!("\"{name}\": {{\"value\": 0,")),
                "{name} is 0"
            );
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric_with_its_unit() {
    for kind in Kind::ALL {
        let (line, attempted, failed) = result_line(kind, true, false);
        assert_emits(&line, &PER_LAYER, kind);
        assert_eq!((attempted, failed), (2, 0), "{}", kind.name());
    }
}

#[test]
fn a_corrupted_output_value_counts_as_failed() {
    for kind in Kind::ALL {
        let (line, attempted, failed) = result_line(kind, false, true);
        assert_eq!((attempted, failed), (1, 1), "{}", kind.name());
        assert!(line.starts_with("{\"correct\": false,"), "{line}");
    }
}
