//! Output checks: vertex values against `hyve_algorithms::reference`, and
//! run reports against the first operation's, bit for bit.

use hyve_core::RunReport;

/// An algorithm's final vertex values.
#[derive(Debug, Clone, PartialEq)]
pub enum Values {
    /// Integer-valued programs (BFS levels, CC labels).
    U32(Vec<u32>),
    /// Real-valued programs (SSSP distances, PageRank, SpMV).
    F32(Vec<f32>),
}

impl Values {
    /// Perturbs one value, for the self-test that shows a wrong output is
    /// caught.
    pub fn corrupt(&mut self) {
        match self {
            Values::U32(v) => v[0] = v[0].wrapping_add(1),
            Values::F32(v) => v[0] = v[0] * 2.0 + 1.0,
        }
    }
}

/// How values must agree with the reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Every value equal.
    Exact,
    /// Every value within this relative error (floored at 1e-6 absolute
    /// scale, as the facade's end-to-end tests compare PageRank).
    Relative(f32),
}

/// Checks `got` against `want`; `Err` describes the first mismatch.
pub fn compare(got: &Values, want: &Values, tol: Tolerance) -> Result<(), String> {
    let mismatch = |i: usize, g: &dyn std::fmt::Debug, w: &dyn std::fmt::Debug| {
        Err(format!("value {i}: got {g:?}, reference {w:?}"))
    };
    match (got, want) {
        (Values::U32(g), Values::U32(w)) => {
            if g.len() != w.len() {
                return Err(format!("{} values, reference has {}", g.len(), w.len()));
            }
            match g.iter().zip(w).position(|(a, b)| a != b) {
                Some(i) => mismatch(i, &g[i], &w[i]),
                None => Ok(()),
            }
        }
        (Values::F32(g), Values::F32(w)) => {
            if g.len() != w.len() {
                return Err(format!("{} values, reference has {}", g.len(), w.len()));
            }
            let ok = |a: f32, b: f32| match tol {
                Tolerance::Exact => a == b,
                Tolerance::Relative(r) => (a - b).abs() <= r * b.abs().max(1e-6),
            };
            match g.iter().zip(w).position(|(&a, &b)| !ok(a, b)) {
                Some(i) => mismatch(i, &g[i], &w[i]),
                None => Ok(()),
            }
        }
        _ => Err("value types differ from the reference".into()),
    }
}

/// Every number in a report as raw bits, so that two reports compare
/// exactly (`f64::to_bits`: distinguishes `-0.0` and NaN payloads).
pub fn report_bits(r: &RunReport) -> Vec<u64> {
    let mut bits = vec![
        u64::from(r.iterations),
        r.edges_processed,
        u64::from(r.intervals),
    ];
    for (_, t) in r.phases.named() {
        bits.push(t.as_ns().to_bits());
    }
    let b = &r.breakdown;
    for s in [
        &b.edge_memory,
        &b.offchip_vertex,
        &b.onchip_vertex,
        &b.logic,
    ] {
        bits.extend([
            s.reads,
            s.writes,
            s.bits_read,
            s.bits_written,
            s.dynamic_energy.as_pj().to_bits(),
            s.background_energy.as_pj().to_bits(),
            s.busy_time.as_ns().to_bits(),
        ]);
    }
    if let Some(rel) = &r.reliability {
        bits.extend([
            rel.corrected,
            rel.uncorrectable,
            rel.retries,
            rel.degraded_fraction.to_bits(),
        ]);
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_relative_comparisons() {
        let a = Values::F32(vec![1.0, f32::INFINITY]);
        assert!(compare(&a, &a.clone(), Tolerance::Exact).is_ok());
        let b = Values::F32(vec![1.0 + 1e-7, f32::INFINITY]);
        assert!(compare(&b, &a, Tolerance::Exact).is_err());
        let pr = Values::F32(vec![1.0 + 1e-7]);
        assert!(compare(&pr, &Values::F32(vec![1.0]), Tolerance::Relative(1e-5)).is_ok());
        let mut c = Values::U32(vec![3, 4]);
        assert!(compare(&c, &Values::U32(vec![3, 4]), Tolerance::Exact).is_ok());
        c.corrupt();
        assert!(compare(&c, &Values::U32(vec![3, 4]), Tolerance::Exact).is_err());
    }
}
