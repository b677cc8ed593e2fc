//! # bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (Section V): Figs. 4–19, Table II and the ablations
//! of DESIGN.md §5, listed once in `figures::FIGURES` and run by the
//! `figures` bench target (`cargo bench -p bench --bench figures [--
//! <name prefix>...]`). Each figure prints analysis beside simulation
//! under a heading that states its sample size, writes
//! `target/figures/<name>.csv` (pinned by `tests/golden/figures/`), and
//! checks the shape the paper reports; a failed check prints a `WARN`
//! line and makes the run exit 1.
//!
//! Benches opt into telemetry through the environment: set
//! `ONION_DTN_METRICS=target/metrics.jsonl` to capture per-point
//! counters and timing histograms while figures regenerate, and
//! `ONION_DTN_PROGRESS=1` for a live trials/s line. Neither affects
//! figure values.

use std::process::ExitCode;

use figures::{Figure, FIGURES};
use onion_routing::ExperimentOptions;
use sweep::Memo;

mod figures;
mod own;
mod sweep;

/// The Monte-Carlo sizes a figure runs: base seed, realizations, and
/// messages per realization.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Sample {
    seed: u64,
    realizations: usize,
    messages: usize,
}

/// The figure default: large enough for stable trends, small enough that
/// all figures regenerate in well under a minute.
pub(crate) const FIGURE_SAMPLE: Sample = Sample::new(0x5EED_2016, 6, 30);

/// The lighter sample of the figures that re-simulate per x value.
pub(crate) const SWEEP_SAMPLE: Sample = Sample::new(0x5EED_2016, 4, 20);

impl Sample {
    pub(crate) const fn new(seed: u64, realizations: usize, messages: usize) -> Sample {
        Sample {
            seed,
            realizations,
            messages,
        }
    }

    /// These sizes as experiment options (Table II's 1–36 min mean
    /// inter-contact range) on the worker count `ONION_DTN_THREADS`
    /// names (`0` or unset = auto-detect). Thread count never changes a
    /// value, only wall-clock time.
    pub(crate) fn options(self) -> ExperimentOptions {
        let threads = std::env::var("ONION_DTN_THREADS").ok();
        ExperimentOptions::builder()
            .messages(self.messages)
            .realizations(self.realizations)
            .seed(self.seed)
            .threads(threads.and_then(|v| v.parse().ok()).unwrap_or(0))
            .build()
    }
}

/// The sample size a heading states, read from the options a figure ran
/// with.
pub(crate) fn sample_size(opts: &ExperimentOptions) -> String {
    format!(
        "{} realizations × {} messages",
        opts.realizations, opts.messages
    )
}

/// A printable figure: x column plus named series.
#[derive(Debug, Clone)]
pub(crate) struct FigureTable {
    title: String,
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(f64, Vec<Option<f64>>)>,
}

impl FigureTable {
    pub(crate) fn new(title: &str, x_label: &str, columns: &[impl AsRef<str>]) -> Self {
        FigureTable {
            title: title.into(),
            x_label: x_label.into(),
            columns: columns.iter().map(|c| c.as_ref().into()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row, one value per column (`None` prints as `-`).
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub(crate) fn push_row(&mut self, x: f64, values: impl IntoIterator<Item: Into<Option<f64>>>) {
        let values: Vec<Option<f64>> = values.into_iter().map(Into::into).collect();
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push((x, values));
    }

    /// Renders the table under a heading that states the `sample` size.
    fn render(&self, sample: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n=== {} [{sample}] ===\n", self.title));
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

    /// Prints the table, its heading stating the `sample` size, then
    /// writes the CSV to the workspace's `target/figures/<name>.csv`
    /// (benches run in the crate directory). A write error is reported,
    /// not fatal: a read-only filesystem must not kill a bench run.
    pub(crate) fn publish(&self, name: &str, sample: &str) {
        print!("{}", self.render(sample));
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

/// The direction a checked series must move in.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Trend {
    Up,
    Down,
}

/// Where one figure reports its checks: every failed check prints one
/// `WARN` line naming the figure, and makes [`run_figures`] exit 1.
#[derive(Debug)]
pub(crate) struct Report {
    figure: &'static str,
    failures: usize,
}

impl Report {
    pub(crate) fn new(figure: &'static str) -> Report {
        Report {
            figure,
            failures: 0,
        }
    }

    /// Records a failed check, described by `what`, unless `ok`.
    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            obs::warn!("bench", "{}: {}", self.figure, what());
            self.failures += 1;
        }
    }

    /// Checks that `values` move step by step in `trend`, each step
    /// allowed to go back by `slack` (simulation noise), and records
    /// every step that does not.
    pub(crate) fn trend(&mut self, name: &str, values: &[f64], trend: Trend, slack: f64) {
        for (i, pair) in values.windows(2).enumerate() {
            let (ok, verb) = match trend {
                Trend::Up => (pair[1] >= pair[0] - slack, "rise"),
                Trend::Down => (pair[1] <= pair[0] + slack, "fall"),
            };
            let (a, b) = (pair[0], pair[1]);
            self.check(ok, || {
                format!("{name} should {verb} (slack {slack}): {a} -> {b} at {i}")
            });
        }
    }
}

/// Runs, in list order, every figure whose name starts with one of
/// `filter` (all of them when it is empty). Exits 2 when a filter matches
/// no figure, 1 when any check failed (after every selected figure ran),
/// and 0 otherwise.
pub fn run_figures(filter: &[String]) -> ExitCode {
    let names: Vec<&str> = FIGURES.iter().map(Figure::name).collect();
    if let Some(f) = filter
        .iter()
        .find(|f| !names.iter().any(|n| n.starts_with(*f)))
    {
        eprintln!(
            "no figure name starts with {f:?}; figures: {}",
            names.join(" ")
        );
        return ExitCode::from(2);
    }
    let mut memo = Memo::default();
    let mut failed = Vec::new();
    for fig in FIGURES {
        if filter.is_empty() || filter.iter().any(|f| fig.name().starts_with(f)) {
            let mut report = Report::new(fig.name());
            match fig {
                Figure::Sweep(sweep) => sweep.run(&mut memo, &mut report),
                Figure::Own(_, run) => run(&mut memo, &mut report),
            }
            if report.failures > 0 {
                failed.push(format!("{} ({})", fig.name(), report.failures));
            }
        }
    }
    if failed.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("figure checks failed: {}", failed.join(", "));
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_rows() {
        let mut t = FigureTable::new("Test figure", "x", &["a", "b"]);
        t.push_row(1.0, [Some(0.5), None]);
        t.push_row(2.0, [0.75, 0.1]);
        let s = t.render("2 realizations × 3 messages");
        assert!(s.contains("=== Test figure [2 realizations × 3 messages] ==="));
        assert!(s.contains("0.7500"));
        assert!(s.contains('-'));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn csv_rendering() {
        let mut t = FigureTable::new("t", "x,axis", &["a", "b,2"]);
        t.push_row(1.5, [Some(0.25), None]);
        let csv = t.to_csv();
        assert_eq!(csv, "x;axis,a,b;2\n1.5,0.25,\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = FigureTable::new("t", "x", &["a"]);
        t.push_row(0.0, [0.0; 0]);
    }
}
