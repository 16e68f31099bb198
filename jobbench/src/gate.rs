//! The correctness gate. A job that breaches any check counts as failed.

use std::collections::BTreeMap;

/// One job's measurements, by metric name.
pub type Metrics = BTreeMap<String, f64>;

/// Largest L1 distance PageRank may end from `reference::pagerank` at the
/// same ε. The engine reaches ~1.3e-3 at ε = 1e-9; stopping early at
/// ε = 1e-4 lands at ~0.22.
pub const PR_L1_TOLERANCE: f64 = 5e-3;

/// Counts that repeat exactly for a given workload and seed; every job of a
/// run must report the same value for each.
pub const DETERMINISTIC: [&str; 5] = [
    "messages",
    "wire_bytes",
    "engine.supersteps",
    "plan.replicas",
    "engine.computed",
];

/// PageRank ranks against the sequential reference. Returns the L1 distance.
pub fn check_pagerank(values: &[f64], reference: &[f64]) -> Result<f64, String> {
    if values.len() != reference.len() {
        return Err(format!(
            "pagerank: {} ranks, reference has {}",
            values.len(),
            reference.len()
        ));
    }
    let l1: f64 = values
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b).abs())
        .sum();
    if l1.is_nan() || l1 > PR_L1_TOLERANCE {
        return Err(format!(
            "pagerank: L1 distance {l1:e} to the reference exceeds {PR_L1_TOLERANCE:e}"
        ));
    }
    Ok(l1)
}

/// SSSP distances must equal Dijkstra's bit for bit.
pub fn check_sssp(values: &[f64], reference: &[f64]) -> Result<(), String> {
    if values.len() != reference.len() {
        return Err(format!(
            "sssp: {} distances, reference has {}",
            values.len(),
            reference.len()
        ));
    }
    let mut bad = values
        .iter()
        .zip(reference)
        .enumerate()
        .filter(|(_, (a, b))| a.to_bits() != b.to_bits());
    match bad.next() {
        None => Ok(()),
        Some((v, (a, b))) => Err(format!(
            "sssp: {} distances differ from Dijkstra, first at vertex {v}: {a} vs {b}",
            1 + bad.count()
        )),
    }
}

/// Compares a job's deterministic counts with the run's first good job.
pub fn check_counts(expected: &Metrics, got: &Metrics) -> Result<(), String> {
    for key in DETERMINISTIC {
        let (e, g) = (expected.get(key), got.get(key));
        if e != g {
            return Err(format!("{key} = {g:?}, first job of the run had {e:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks() -> Vec<f64> {
        (0..1000).map(|i| 1.0 / (1000.0 + i as f64)).collect()
    }

    #[test]
    fn perturbed_pagerank_values_fail() {
        let reference = ranks();
        let mut close = reference.clone();
        close[7] += 1e-4;
        assert!(check_pagerank(&close, &reference).is_ok());
        let mut far = reference.clone();
        far[7] += 1e-2;
        assert!(check_pagerank(&far, &reference).is_err());
        let mut nan = reference.clone();
        nan[3] = f64::NAN;
        assert!(check_pagerank(&nan, &reference).is_err());
        assert!(check_pagerank(&reference[1..], &reference).is_err());
    }

    #[test]
    fn perturbed_sssp_distances_fail() {
        let reference = vec![0.0, 1.5, f64::INFINITY, 2.25];
        assert!(check_sssp(&reference, &reference).is_ok());
        let mut one_ulp = reference.clone();
        one_ulp[3] = f64::from_bits(one_ulp[3].to_bits() + 1);
        assert!(check_sssp(&one_ulp, &reference).is_err());
        let mut reached = reference.clone();
        reached[2] = 9.0;
        assert!(check_sssp(&reached, &reference).is_err());
    }

    #[test]
    fn perturbed_count_fails() {
        let first: Metrics = DETERMINISTIC
            .iter()
            .enumerate()
            .map(|(i, k)| (k.to_string(), 100.0 + i as f64))
            .collect();
        let mut same = first.clone();
        same.insert("run_s".into(), 1.23);
        assert!(check_counts(&first, &same).is_ok());
        for key in DETERMINISTIC {
            let mut off = first.clone();
            *off.get_mut(key).unwrap() += 1.0;
            assert!(check_counts(&first, &off).is_err(), "{key} not checked");
            let mut missing = first.clone();
            missing.remove(key);
            assert!(
                check_counts(&first, &missing).is_err(),
                "{key} may be absent"
            );
        }
    }
}
