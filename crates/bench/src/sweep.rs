//! The sweep-figure driver: a [`SweepFigure`] row describes a figure, and
//! [`SweepFigure::run`] runs one sweep per distinct config, tabulates
//! analysis beside simulation, publishes the CSV and checks the shape.

use std::cell::OnceCell;
use std::collections::HashMap;

use contact_graph::{ContactGraph, ContactSchedule, TimeDelta};
use onion_routing::{ExperimentOptions, PointSummary, ProtocolConfig, SweepReport, SweepSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use traces::{estimate_active_rates, ActivityPattern, SyntheticTraceBuilder};

use crate::{sample_size, FigureTable, Report, Sample, Trend};

/// One sweep figure: the analysis and simulated series of one metric over
/// the grid a [`SweepSpec`] sweeps, with a config field varied across the
/// series or along x.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SweepFigure {
    /// The CSV's name under `target/figures/` and `tests/golden/figures/`.
    pub(crate) name: &'static str,
    pub(crate) title: &'static str,
    pub(crate) x_label: &'static str,
    pub(crate) world: World,
    pub(crate) sample: Sample,
    pub(crate) grid: Grid,
    /// What x walks: the grid or a field.
    pub(crate) x: Dim,
    /// What the series walk. If neither x nor the series walk the grid, it
    /// holds one value.
    pub(crate) series: Dim,
    pub(crate) checks: &'static [Check],
}

/// Where a figure's contacts come from, each with its base config.
#[derive(Clone, Copy, Debug)]
pub(crate) enum World {
    /// A fresh random graph per realization, on Table II's config.
    RandomGraph,
    /// The Cambridge-like trace (12 iMotes; K = 3, g = 1, L = 1, c = 1,
    /// T = 3600 s). `trained` gives the analysis the rates trained on
    /// business-hours active time (Section V-A); otherwise it estimates
    /// them from the schedule.
    Cambridge { trained: bool },
    /// The Infocom'05-like trace (41 iMotes; K = 3, g = 5, L = 1, c = 4,
    /// T = 3 days).
    Infocom,
}

impl World {
    fn config(self) -> ProtocolConfig {
        let (nodes, group_size, compromised, deadline) = match self {
            World::RandomGraph => return ProtocolConfig::table2_defaults(),
            World::Cambridge { .. } => (12, 1, 1, 3600.0),
            World::Infocom => (41, 5, 4, 259_200.0),
        };
        ProtocolConfig {
            nodes,
            group_size,
            onions: 3,
            copies: 1,
            compromised,
            deadline: TimeDelta::new(deadline),
            ..ProtocolConfig::table2_defaults()
        }
    }

    fn spec(self, config: ProtocolConfig, memo: &Memo) -> SweepSpec {
        match self {
            World::RandomGraph => SweepSpec::random_graph(config),
            World::Cambridge { trained } => {
                let (trace, rates) = memo.cambridge.get_or_init(|| {
                    let trace =
                        build_trace("Cambridge", SyntheticTraceBuilder::cambridge_like(), 0xCA3B);
                    let rates = estimate_active_rates(&trace, &ActivityPattern::business_hours());
                    (trace, rates)
                });
                match trained {
                    true => SweepSpec::trace(config, trace.clone(), rates.clone()),
                    false => SweepSpec::schedule(config, trace.clone()),
                }
            }
            World::Infocom => {
                let infocom = SyntheticTraceBuilder::infocom05_like();
                let trace = memo
                    .infocom
                    .get_or_init(|| build_trace("Infocom'05", infocom, 0x1F0C));
                SweepSpec::schedule(config, trace.clone())
            }
        }
    }
}

/// What a figures run builds once and every figure shares: the synthetic
/// traces (with Cambridge's trained rates), and each sweep or point, run
/// once per [`SweepSpec::identity`] (Table II, say, is Fig. 11 at L = 1).
#[derive(Default)]
pub(crate) struct Memo {
    cambridge: OnceCell<(ContactSchedule, ContactGraph)>,
    infocom: OnceCell<ContactSchedule>,
    reports: HashMap<String, SweepReport>,
}

impl Memo {
    /// `spec`'s report under `opts`, run on first use.
    pub(crate) fn run(&mut self, spec: &SweepSpec, opts: &ExperimentOptions) -> SweepReport {
        let key = spec.identity(opts).key();
        let report = self.reports.entry(key).or_insert_with(|| spec.run(opts));
        report.clone()
    }

    /// The point `run_random_graph_point(cfg, opts)` runs.
    pub(crate) fn point(&mut self, cfg: &ProtocolConfig, opts: &ExperimentOptions) -> PointSummary {
        let report = self.run(&SweepSpec::random_graph(cfg.clone()), opts);
        report.into_point().expect("a point spec")
    }
}

fn build_trace(name: &str, builder: SyntheticTraceBuilder, seed: u64) -> ContactSchedule {
    let trace = builder.build(&mut ChaCha8Rng::seed_from_u64(seed));
    println!(
        "{name}-like trace: {} nodes, {} contacts over {:.1} days",
        trace.node_count(),
        trace.len(),
        trace.horizon().as_f64() / 86_400.0
    );
    trace
}

/// The grid a [`SweepSpec`] sweeps, and the metric read off its rows.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Grid {
    /// Delivery rate over these deadlines.
    Delivery(&'static [f64]),
    /// Traceable rate over these compromised-node counts, averaging this
    /// many adversary draws per count.
    Traceable(&'static [usize], usize),
    /// Path anonymity, as [`Grid::Traceable`].
    Anonymity(&'static [usize], usize),
}

impl Grid {
    fn values(self) -> Vec<f64> {
        match self {
            Grid::Delivery(ts) => ts.to_vec(),
            Grid::Traceable(cs, _) | Grid::Anonymity(cs, _) => {
                cs.iter().map(|&c| c as f64).collect()
            }
        }
    }

    fn over(self, spec: SweepSpec) -> SweepSpec {
        match self {
            Grid::Delivery(ts) => spec.over_deadlines(ts),
            Grid::Traceable(cs, draws) | Grid::Anonymity(cs, draws) => {
                spec.over_security(cs, draws)
            }
        }
    }

    fn cells(self, report: SweepReport) -> Vec<Cell> {
        let cell = |analysis, sim| Cell { analysis, sim };
        let cells = match self {
            Grid::Delivery(_) => report
                .into_delivery()
                .map(|rows| rows.iter().map(|r| cell(r.analysis, Some(r.sim))).collect()),
            Grid::Traceable(..) => report.into_security().map(|rows| {
                rows.iter()
                    .map(|r| cell(r.analysis_traceable, r.sim_traceable))
                    .collect()
            }),
            Grid::Anonymity(..) => report.into_security().map(|rows| {
                rows.iter()
                    .map(|r| cell(r.analysis_anonymity, r.sim_anonymity))
                    .collect()
            }),
        };
        cells.expect("the grid's axis yields its rows")
    }
}

/// What a figure's x axis or its series walk.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Dim {
    /// The grid's values, all from one sweep.
    Grid,
    /// A config field over these values, one sweep per value.
    Field(Field, &'static [usize]),
    /// One series under this label (series only).
    One(&'static str),
}

/// A [`ProtocolConfig`] field a figure varies: its setter and its symbol
/// in series labels.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Field(fn(&mut ProtocolConfig, usize), &'static str);

pub(crate) const G: Field = Field(|config, g| config.group_size = g, "g");
pub(crate) const K: Field = Field(|config, k| config.onions = k, "K");
pub(crate) const L: Field = Field(|config, l| config.copies = l as u32, "L");

/// A shape the paper reports, checked on a figure's values.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Check {
    /// Each series read along x moves this way within the slack: its
    /// analysis values, or its simulated ones (skipping cells without).
    Along(Side, Trend, f64),
    /// At these x positions, the analysis values read across the series
    /// in order move this way within the slack.
    Across(At, Trend, f64),
    /// Each series' simulated value at the last x is at least this.
    FinalSimAtLeast(f64),
    /// Simulation is within this of analysis wherever it has a value.
    GapAtMost(f64),
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum Side {
    Analysis,
    Sim,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum At {
    First,
    Mid,
    Last,
    Every,
}

/// One point of one series.
#[derive(Clone, Copy, Debug)]
struct Cell {
    analysis: f64,
    sim: Option<f64>,
}

/// A figure's values: `values[s][i]` is series `labels[s]` at `xs[i]`.
struct Curves {
    x_label: &'static str,
    xs: Vec<f64>,
    labels: Vec<String>,
    values: Vec<Vec<Cell>>,
}

impl Check {
    fn apply(self, curves: &Curves, report: &mut Report) {
        let (xs, x_label) = (&curves.xs, curves.x_label);
        let series = curves.labels.iter().zip(&curves.values);
        match self {
            Check::Along(side, trend, slack) => {
                for (label, cells) in series {
                    let along: Vec<f64> = cells
                        .iter()
                        .filter_map(|c| match side {
                            Side::Analysis => Some(c.analysis),
                            Side::Sim => c.sim,
                        })
                        .collect();
                    let name = format!("{side:?} {label} along {x_label}");
                    report.trend(&name, &along, trend, slack);
                }
            }
            Check::Across(at, trend, slack) => {
                let n = xs.len();
                let positions = match at {
                    At::First => 0..1,
                    At::Mid => n / 2..n / 2 + 1,
                    At::Last => n - 1..n,
                    At::Every => 0..n,
                };
                for i in positions {
                    let across: Vec<f64> = curves.values.iter().map(|s| s[i].analysis).collect();
                    let name = format!("analysis across series at {x_label} {}", xs[i]);
                    report.trend(&name, &across, trend, slack);
                }
            }
            Check::FinalSimAtLeast(min) => {
                for (label, cells) in series {
                    if let Some(sim) = cells.last().and_then(|c| c.sim) {
                        report.check(sim >= min, || format!("sim {label} ends at {sim} < {min}"));
                    }
                }
            }
            Check::GapAtMost(max) => {
                for (label, cells) in series {
                    for (x, c) in xs.iter().zip(cells) {
                        let gap = c.sim.map_or(0.0, |sim| (sim - c.analysis).abs());
                        report.check(gap <= max, || {
                            format!("{label} at {x_label} {x}: |sim - analysis| = {gap:.3} > {max}")
                        });
                    }
                }
            }
        }
    }
}

impl SweepFigure {
    /// Runs the figure: one sweep per distinct config, then the table,
    /// its CSV and the checks.
    pub(crate) fn run(&self, memo: &mut Memo, report: &mut Report) {
        let opts = self.sample.options();
        let grid = self.grid.values();
        let walks_grid = matches!(self.x, Dim::Grid) || matches!(self.series, Dim::Grid);
        assert!(
            walks_grid || grid.len() == 1,
            "{}: an unwalked grid holds one value",
            self.name
        );
        let xs: Vec<f64> = match self.x {
            Dim::Grid => grid.clone(),
            Dim::Field(_, vals) => vals.iter().map(|&v| v as f64).collect(),
            Dim::One(_) => panic!("{}: x walks the grid or a field", self.name),
        };
        let labels: Vec<String> = match self.series {
            Dim::Grid => match self.grid {
                Grid::Delivery(_) => grid.iter().map(|t| format!("T={t}")).collect(),
                _ => grid.iter().map(|c| format!("c={c}%")).collect(),
            },
            Dim::Field(field, vals) => vals.iter().map(|v| format!("{}={v}", field.1)).collect(),
            Dim::One(label) => vec![label.to_string()],
        };

        // One sweep per pair of field values, in x order: its cells extend
        // every series when the series walk the grid, else its own.
        let series_walk_grid = matches!(self.series, Dim::Grid);
        let fields = |dim| match dim {
            Dim::Field(field, vals) => vals.iter().map(|&v| Some((field, v))).collect(),
            Dim::Grid | Dim::One(_) => vec![None],
        };
        let mut values = vec![Vec::with_capacity(xs.len()); labels.len()];
        for x in fields(self.x) {
            for (j, series) in fields(self.series).into_iter().enumerate() {
                let mut config = self.world.config();
                for (field, v) in [x, series].into_iter().flatten() {
                    (field.0)(&mut config, v);
                }
                let spec = self.grid.over(self.world.spec(config, memo));
                let cells = self.grid.cells(memo.run(&spec, &opts));
                for (k, cell) in cells.into_iter().enumerate() {
                    values[if series_walk_grid { k } else { j }].push(cell);
                }
            }
        }

        let columns: Vec<String> = labels
            .iter()
            .flat_map(|l| [format!("analysis:{l}"), format!("sim:{l}")])
            .collect();
        let mut table = FigureTable::new(self.title, self.x_label, &columns);
        for (i, &x) in xs.iter().enumerate() {
            table.push_row(
                x,
                values.iter().flat_map(|s| [Some(s[i].analysis), s[i].sim]),
            );
        }
        let draws = match self.grid {
            Grid::Traceable(_, d) | Grid::Anonymity(_, d) => format!(" × {d} adversary draws"),
            Grid::Delivery(_) => String::new(),
        };
        table.publish(self.name, &format!("{}{draws}", sample_size(&opts)));

        let curves = Curves {
            x_label: self.x_label,
            xs,
            labels,
            values,
        };
        for check in self.checks {
            check.apply(&curves, report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use At::*;
    use Check::*;
    use Side::*;
    use Trend::*;

    /// Series `a` and `b` over x = 1, 2, 3 with the given analysis values,
    /// simulated at `analysis + offset`.
    fn curves(a: [f64; 3], b: [f64; 3], offset: f64) -> Curves {
        let cells = |s: [f64; 3]| {
            s.map(|a| Cell {
                analysis: a,
                sim: Some(a + offset),
            })
            .to_vec()
        };
        Curves {
            x_label: "x",
            xs: vec![1.0, 2.0, 3.0],
            labels: vec!["a".into(), "b".into()],
            values: vec![cells(a), cells(b)],
        }
    }

    /// `curves` without series b's simulated value at x = 2.
    fn without_sim(mut curves: Curves) -> Curves {
        curves.values[1][1].sim = None;
        curves
    }

    #[test]
    fn each_check_kind_flags_a_violating_series_and_passes_a_conforming_one() {
        let rising = curves([0.1, 0.2, 0.3], [0.2, 0.3, 0.4], 0.0);
        let a_nan = curves([0.1, f64::NAN, 0.3], [0.0; 3], 0.0);
        // b dips at x = 2, where it also falls below a.
        let b_dips = || curves([0.1, 0.2, 0.9], [0.2, 0.1, 0.95], 0.0);
        let far = || curves([0.1, 0.2, 0.3], [0.2, 0.3, 0.4], 0.2);
        for (check, curves, failures) in [
            (Along(Analysis, Up, 1e-12), &rising, 0),
            (Along(Analysis, Up, 1e-12), &b_dips(), 1),
            (Along(Sim, Up, 0.2), &b_dips(), 0),
            (Along(Sim, Up, 0.0), &without_sim(b_dips()), 0),
            (Along(Analysis, Up, 0.0), &without_sim(b_dips()), 1),
            (Along(Analysis, Down, 0.0), &rising, 4),
            (Along(Analysis, Up, 1.0), &a_nan, 2),
            (Across(First, Up, 1e-9), &b_dips(), 0),
            (Across(Mid, Up, 1e-9), &b_dips(), 1),
            (Across(Last, Up, 1e-9), &b_dips(), 0),
            (Across(Every, Up, 1e-9), &b_dips(), 1),
            (Across(Every, Down, 1e-9), &rising, 3),
            (FinalSimAtLeast(0.3), &rising, 0),
            (FinalSimAtLeast(0.35), &rising, 1),
            (GapAtMost(0.12), &rising, 0),
            (GapAtMost(0.12), &far(), 6),
            (GapAtMost(0.12), &without_sim(far()), 5),
        ] {
            let mut report = Report::new("test");
            check.apply(curves, &mut report);
            assert_eq!(report.failures, failures, "{check:?}");
        }
    }

    /// The memo computes each identity once: its point equals the
    /// library's, and a second request for the same spec and options,
    /// at another thread count, replays the stored report (here a
    /// planted one) instead of running.
    #[test]
    fn the_memo_computes_each_identity_once() {
        let cfg = ProtocolConfig {
            nodes: 20,
            group_size: 2,
            onions: 2,
            compromised: 2,
            deadline: contact_graph::TimeDelta::new(120.0),
            ..ProtocolConfig::table2_defaults()
        };
        let opts = |threads| {
            Sample::new(7, 2, 3)
                .options()
                .into_builder()
                .threads(threads)
                .build()
        };
        let mut memo = Memo::default();
        let point = memo.point(&cfg, &opts(1));
        assert_eq!(point, onion_routing::run_random_graph_point(&cfg, &opts(1)));
        let planted = PointSummary {
            delivered: point.delivered + 1,
            ..point
        };
        let key = SweepSpec::random_graph(cfg.clone())
            .identity(&opts(1))
            .key();
        memo.reports
            .insert(key, SweepReport::Point(Box::new(planted.clone())));
        assert_eq!(memo.point(&cfg, &opts(2)), planted);
        assert_eq!(memo.reports.len(), 1);
    }
}
