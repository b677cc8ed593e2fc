//! # bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section V). Each `benches/figNN_*.rs` target is a
//! `harness = false` binary invoked by `cargo bench`; it runs the paired
//! analysis/simulation sweep and prints the same series the paper plots,
//! so the *shape* of each figure (who wins, trends, crossovers) can be
//! checked directly from the bench output.
//!
//! This library holds the shared table renderer and the default
//! experiment sizes, so every figure uses consistent settings.
//!
//! Benches opt into telemetry through the environment: set
//! `ONION_DTN_METRICS=target/metrics.jsonl` to capture per-point
//! counters and timing histograms while figures regenerate, and
//! `ONION_DTN_PROGRESS=1` for a live trials/s line. Neither affects
//! figure values.

use onion_routing::ExperimentOptions;

/// Worker-thread count for figure regeneration, read from the
/// `ONION_DTN_THREADS` environment variable (`0` or unset = auto-detect).
/// Thread count never changes figure values — only wall-clock time — so
/// an env knob is safe for published numbers.
pub fn threads_from_env() -> usize {
    std::env::var("ONION_DTN_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Default experiment sizes for figure regeneration: large enough for
/// stable trends, small enough that `cargo bench` finishes in minutes.
pub fn default_opts() -> ExperimentOptions {
    ExperimentOptions::builder()
        .messages(30)
        .realizations(6)
        .seed(0x5EED_2016)
        .intercontact_range((1.0, 36.0))
        .threads(threads_from_env())
        .build()
}

/// Smaller settings for the heavier sweeps (per-x re-simulation).
pub fn sweep_opts() -> ExperimentOptions {
    ExperimentOptions::builder()
        .messages(20)
        .realizations(4)
        .seed(0x5EED_2016)
        .intercontact_range((1.0, 36.0))
        .threads(threads_from_env())
        .build()
}

/// A printable figure: x column plus named series.
#[derive(Debug, Clone)]
pub struct FigureTable {
    title: String,
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(f64, Vec<Option<f64>>)>,
}

impl FigureTable {
    /// Starts a table for `title` with the given x-axis label and series
    /// names.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, columns: Vec<String>) -> Self {
        FigureTable {
            title: title.into(),
            x_label: x_label.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends one row; `values` must match the column count
    /// (`None` prints as `-`).
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub fn push_row(&mut self, x: f64, values: Vec<Option<f64>>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push((x, values));
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n=== {} ===\n", self.title));
        let width = 16usize;
        out.push_str(&format!("{:<width$}", self.x_label, width = width));
        for c in &self.columns {
            out.push_str(&format!("{c:>width$}", width = width));
        }
        out.push('\n');
        for (x, values) in &self.rows {
            out.push_str(&format!("{:<width$.4}", x, width = width));
            for v in values {
                match v {
                    Some(v) => out.push_str(&format!("{v:>width$.4}", width = width)),
                    None => out.push_str(&format!("{:>width$}", "-", width = width)),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Renders the table as CSV (header row + data rows; `None` cells are
    /// empty).
    fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for c in &self.columns {
            out.push(',');
            out.push_str(&c.replace(',', ";"));
        }
        out.push('\n');
        for (x, values) in &self.rows {
            out.push_str(&format!("{x}"));
            for v in values {
                out.push(',');
                if let Some(v) = v {
                    out.push_str(&format!("{v}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes the CSV under the workspace's `target/figures/<name>.csv`
    /// (benches run with the crate directory as cwd, so the path is
    /// anchored at the workspace root), creating the directory as needed;
    /// reports the path as an info event. Errors are reported, not
    /// fatal — a read-only filesystem must not kill a bench run.
    pub fn save_csv(&self, name: &str) {
        let dir =
            std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/figures"));
        let path = dir.join(format!("{name}.csv"));
        let result =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, self.to_csv()));
        match result {
            Ok(()) => obs::info!("bench", "csv written to {}", path.display()),
            Err(e) => obs::warn!("bench", "csv not written: {e}"),
        }
    }
}

/// Checks that a series is (weakly) monotone, with `slack` tolerance for
/// simulation noise; emits a warning event rather than panicking so a
/// noisy bench run still produces its full output.
pub fn check_trend(name: &str, values: &[f64], increasing: bool, slack: f64) {
    for (i, pair) in values.windows(2).enumerate() {
        let ok = if increasing {
            pair[1] >= pair[0] - slack
        } else {
            pair[1] <= pair[0] + slack
        };
        if !ok {
            obs::warn!(
                "bench",
                "series {name} violates expected {} trend at index {i}: {} -> {}",
                if increasing {
                    "increasing"
                } else {
                    "decreasing"
                },
                pair[0],
                pair[1]
            );
        }
    }
}

/// The deadline sweep of the random-graph delivery figures: 60 to 1080
/// minutes (Table II).
pub fn deadline_sweep_minutes() -> Vec<f64> {
    vec![
        60.0, 120.0, 240.0, 360.0, 480.0, 600.0, 720.0, 840.0, 960.0, 1080.0,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_rows() {
        let mut t = FigureTable::new("Test figure", "x", vec!["a".into(), "b".into()]);
        t.push_row(1.0, vec![Some(0.5), None]);
        t.push_row(2.0, vec![Some(0.75), Some(0.1)]);
        let s = t.render();
        assert!(s.contains("Test figure"));
        assert!(s.contains("0.7500"));
        assert!(s.contains('-'));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn csv_rendering() {
        let mut t = FigureTable::new("t", "x,axis", vec!["a".into(), "b,2".into()]);
        t.push_row(1.5, vec![Some(0.25), None]);
        let csv = t.to_csv();
        assert_eq!(csv, "x;axis,a,b;2\n1.5,0.25,\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = FigureTable::new("t", "x", vec!["a".into()]);
        t.push_row(0.0, vec![]);
    }

    #[test]
    fn sweeps_are_sane() {
        let ds = deadline_sweep_minutes();
        assert_eq!(ds.first(), Some(&60.0));
        assert_eq!(ds.last(), Some(&1080.0));
    }

    #[test]
    fn trend_check_warns_not_panics() {
        check_trend("demo", &[0.5, 0.4], true, 0.0);
        check_trend("demo2", &[0.4, 0.5], false, 0.0);
    }
}
