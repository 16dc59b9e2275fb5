//! The metric catalogue (mirrored by `BENCHMARK.json`) and the ratios
//! derived from raw span sums.

use std::collections::BTreeMap;

/// End-to-end metrics of a timed (untraced) run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("op_p50_s", "s"),
    ("host_edges_per_s", "edges/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("sim_mteps_per_w", "MTEPS/W"),
    ("sim_time_ms", "ms"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. Every workload
/// reports every one; a layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("graph.generate.s", "s"),
    ("core.session_build.s", "s"),
    ("core.plan.p", "count"),
    ("graph.partition.s", "s"),
    ("graph.partition.rss_mb", "MB"),
    ("graph.partition.rss_via_hwm_reset", "flag"),
    ("graph.grid.blocks", "count"),
    ("graph.grid.nonempty_blocks", "count"),
    ("graph.grid.nonempty_frac", "frac"),
    ("graph.flatten.s", "s"),
    ("core.run.s", "s"),
    ("core.run.iterations", "count"),
    ("core.run.edges_processed", "count"),
    ("core.run.s_per_iter", "s"),
    ("core.run.ns_per_edge", "ns"),
    ("core.run.blocks_processed", "count"),
    ("core.run.blocks_skipped", "count"),
    ("core.run.skip_frac", "frac"),
    ("core.workflow.new.s", "s"),
    ("core.workflow.apply.s", "s"),
    ("core.workflow.apply.ns_per_mutation", "ns"),
    ("core.workflow.apply.in_place", "count"),
    ("core.workflow.apply.linked_overflow", "count"),
    ("core.workflow.apply.repartitioned", "count"),
    ("core.workflow.apply.tombstoned", "count"),
    ("core.workflow.apply.rejected", "count"),
    ("core.workflow.apply.rejected_frac", "frac"),
    ("core.workflow.analyze.s", "s"),
    ("graph.dynamic.live_edge_list.s", "s"),
    ("sim.energy.edge_uj", "uJ"),
    ("sim.energy.offchip_vertex_uj", "uJ"),
    ("sim.energy.onchip_vertex_uj", "uJ"),
    ("sim.energy.logic_uj", "uJ"),
    ("sim.phase.loading_ms", "ms"),
    ("sim.phase.processing_ms", "ms"),
    ("sim.phase.updating_ms", "ms"),
    ("sim.phase.overhead_ms", "ms"),
    ("sim.gating_transitions", "count"),
    ("sim.router_words", "count"),
    ("core.trace.serialize.s", "s"),
    ("core.trace.parse.s", "s"),
    ("core.trace.bytes", "bytes"),
    ("core.trace.overhead_frac", "frac"),
    ("algorithms.reference.s", "s"),
    ("bench.unattributed_frac", "frac"),
    ("bench.calibration.s", "s"),
];

/// Counters aggregated over an operation's algorithms by maximum, not sum.
pub const MAX_KEYS: [&str; 3] = [
    "core.plan.p",
    "graph.partition.rss_mb",
    "graph.partition.rss_via_hwm_reset",
];

/// Adds the ratio metrics to one sample's sums, for the plain names and for
/// each `.<alg>` suffix in `suffixes`. A ratio whose denominator the sample
/// never recorded is left out.
pub fn derive(m: &mut BTreeMap<String, f64>, suffixes: &[String]) {
    const RATIOS: [(&str, &str, f64, &[&str]); 6] = [
        (
            "graph.grid.nonempty_frac",
            "graph.grid.nonempty_blocks",
            1.0,
            &["graph.grid.blocks"],
        ),
        (
            "core.run.s_per_iter",
            "core.run.s",
            1.0,
            &["core.run.iterations"],
        ),
        (
            "core.run.ns_per_edge",
            "core.run.s",
            1e9,
            &["core.run.edges_processed"],
        ),
        (
            "core.run.skip_frac",
            "core.run.blocks_skipped",
            1.0,
            &["core.run.blocks_skipped", "core.run.blocks_processed"],
        ),
        (
            "core.workflow.apply.rejected_frac",
            "core.workflow.apply.rejected",
            1.0,
            &["core.workflow.apply.mutations"],
        ),
        (
            "core.workflow.apply.ns_per_mutation",
            "core.workflow.apply.s",
            1e9,
            &["core.workflow.apply.mutations"],
        ),
    ];
    for sfx in std::iter::once(&String::new()).chain(suffixes) {
        for (name, num, scale, den) in RATIOS {
            let get = |k: &str| m.get(&format!("{k}{sfx}")).copied();
            let Some(den) = den.iter().map(|k| get(k)).sum::<Option<f64>>() else {
                continue;
            };
            let num = get(num).unwrap_or(0.0) * scale;
            let v = if den == 0.0 { 0.0 } else { num / den };
            m.insert(format!("{name}{sfx}"), v);
        }
    }
}

/// Median of a sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Per-key median over samples; a key missing from a sample counts as 0.
pub fn median_by_key(samples: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let mut keys: Vec<&String> = samples.iter().flat_map(|m| m.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let values: Vec<f64> = samples
                .iter()
                .map(|m| m.get(k).copied().unwrap_or(0.0))
                .collect();
            (k.clone(), median(&values))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn derived_ratios_for_plain_and_suffixed_names() {
        let mut m = BTreeMap::new();
        m.insert("graph.grid.blocks".to_string(), 100.0);
        m.insert("graph.grid.nonempty_blocks".to_string(), 4.0);
        m.insert("graph.grid.blocks.pr".to_string(), 50.0);
        m.insert("graph.grid.nonempty_blocks.pr".to_string(), 1.0);
        derive(&mut m, &[".pr".to_string()]);
        assert_eq!(m["graph.grid.nonempty_frac"], 0.04);
        assert_eq!(m["graph.grid.nonempty_frac.pr"], 0.02);
        assert!(
            !m.contains_key("core.run.skip_frac"),
            "nothing to divide by"
        );
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
