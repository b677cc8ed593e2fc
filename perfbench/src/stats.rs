//! Exact order statistics over raw samples, the output digest, and the
//! metric list the benchmark prints.

use std::fmt::Write as _;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, computed exactly from the
/// raw values by linear interpolation between the two nearest ranks (the
/// same rule as numpy's default and Python's `statistics.quantiles(...,
/// method="inclusive")`). No histogram buckets are involved.
///
/// # Panics
///
/// Panics on an empty slice, a NaN sample, or `q` outside `[0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples` (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a 64 over `bytes`, printed as 16 hex digits: the digest recorded
/// for a workload's first output at the default seed.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Compares the digest of `bytes` with `expected`.
///
/// # Errors
///
/// Names both digests when they differ.
pub fn check_digest(what: &str, bytes: &[u8], expected: &str) -> Result<(), String> {
    let got = digest(bytes);
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: output digest {got} differs from the recorded {expected}"
        ))
    }
}

/// An ordered list of named metrics with units.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Appends one metric.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value or a repeated name.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.entries.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.entries.push((name, value, unit));
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_on_known_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        // Rank 0.99 · 99 = 98.01 → 99 + 0.01 · (100 − 99).
        assert!((quantile(&xs, 0.99) - 99.01).abs() < 1e-12);
        assert!((quantile(&xs, 0.9) - 90.1).abs() < 1e-12);
        // Unsorted input and a single sample.
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[7.5], 0.99), 7.5);
        // A value between two buckets of a log histogram stays exact.
        assert_eq!(median(&[1.03, 1.07]), 1.05);
    }

    #[test]
    fn digest_rejects_a_perturbed_row() {
        let rows = r#"[{"deadline":60.0,"analysis":0.1,"sim":0.2}]"#;
        let recorded = digest(rows.as_bytes());
        assert!(check_digest("rows", rows.as_bytes(), &recorded).is_ok());
        let perturbed = rows.replace("0.2}", "0.20000000000000004}");
        let err = check_digest("rows", perturbed.as_bytes(), &recorded).unwrap_err();
        assert!(err.contains(&recorded), "{err}");
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("a_ms", 1.234_567_890_123, "ms");
        m.push("n", 3.0, "count");
        assert_eq!(
            m.result_line(4, 0),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\
             \"a_ms\": {\"value\": 1.234567890123, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
