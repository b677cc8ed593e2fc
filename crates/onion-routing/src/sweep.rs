//! The unified sweep builder: one serde-able description of *what* to
//! run, one entry point that runs it.
//!
//! A sweep is a [`Scenario`] (where contacts come from) crossed with a
//! [`SweepAxis`] (which parameter varies, if any — a spec built without
//! an `over_*` call runs one point):
//!
//! | | `Point` | `Deadline` | `Security` | `Fault`, `Code` |
//! |---|---|---|---|---|
//! | [`Scenario::RandomGraph`] | Fig. 11, Table II, ablations | Figs. 4, 5, 10 | Figs. 6–9, 12, 13 | fault / code sweep |
//! | [`Scenario::Schedule`] | `onion-dtn trace` | Fig. 17 | Figs. 15–19 | fault / code sweep |
//! | [`Scenario::Trace`] | trained-rate point | Fig. 14 (trained rates) | Figs. 15–19 | fault / code sweep |
//! | [`Scenario::Sparse`] | scale points (`n = 10⁵⁺`) | scale runs | scale runs | fault / code sweep |
//!
//! ```
//! use onion_routing::sweep::SweepSpec;
//! use onion_routing::{ExperimentOptions, ProtocolConfig};
//!
//! let opts = ExperimentOptions::builder().messages(5).realizations(2).build();
//! let rows = SweepSpec::random_graph(ProtocolConfig::table2_defaults())
//!     .over_deadlines(&[180.0, 1080.0])
//!     .run(&opts)
//!     .into_delivery()
//!     .expect("deadline axis yields delivery rows");
//! assert_eq!(rows.len(), 2);
//! ```
//!
//! Every cell runs the one trial pipeline behind the `run_*_point`
//! entry points: the scenario picks the world, the axis picks how trials
//! are scored. The point, deadline and security axes score a single pass
//! of trials; each fault and code row runs a full point under an options
//! override. Seed domains, RNG draw order and f64 summation order are
//! frozen, and committed goldens pin every cell.
//! [`SweepSpec::validate`] checks a spec before any trial runs, and
//! [`SweepSpec::run_controlled`] is the one entry point: its
//! [`SweepControls`] carry a cancel hook and the [`RowCache`] that
//! persists finished rows (the CLI's `--resume` checkpoint, the serving
//! daemon's disk store), and returns every way a run stops short as one
//! [`SweepRunError`]. `SweepSpec` itself is serde-able, so a sweep
//! description can be shipped over the serving API, and
//! [`SweepSpec::identity`] names its results: one key for the
//! checkpoint that resumes it and the cache entry that serves it.

use contact_graph::{ContactGraph, ContactSchedule, TimeDelta};
use dtn_sim::{check_code_shape, ChurnConfig, ChurnMemory, FaultPlan};
use onion_crypto::sha256::Sha256;
use serde::{Deserialize, DeserializeOwned, Serialize, Value};

use crate::config::ProtocolConfig;
use crate::experiment::{
    point, CodeSweepRow, DeadlineScorer, DeliverySweepRow, ExperimentOptions, FaultSweepRow,
    PointSummary, SecurityScorer, SecuritySweepRow,
};
use crate::runner::TrialFailure;
use crate::trial::{self, World, SWEEP_SPAN};

/// Where a sweep's contacts (and analysis-side rates) come from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Scenario {
    /// Sample a fresh Table II random graph per realization; the
    /// analysis series evaluates Eq. 4 on the realized graph.
    RandomGraph,
    /// Replay a fixed contact schedule (synthetic or parsed trace);
    /// analysis rates are estimated from the schedule itself.
    Schedule(ContactSchedule),
    /// Replay a fixed schedule with caller-trained analysis rates (e.g.
    /// active-time rates from `traces::estimate_active_rates` — the
    /// paper's Fig. 14 training step).
    Trace(TraceScenario),
    /// Sample a sparse Poisson proximity world per realization
    /// ([`contact_graph::SparseContacts::poisson_proximity`]) and stream
    /// its contacts lazily through a [`dtn_sim::CalendarQueue`] — memory
    /// is `O(nodes + active pairs)`, so `n = 10⁵–10⁶` points fit where a
    /// dense Table II graph would need `O(n²)`. Uses the dedicated
    /// `SeedDomain::SparseRealization` / `SeedDomain::SparseContacts`
    /// streams; dense scenarios are bit-identical with or without this
    /// variant compiled in.
    Sparse(SparseScenario),
}

/// Payload of [`Scenario::Sparse`]: generator parameters for the
/// Poisson proximity world sampled per realization.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SparseScenario {
    /// Expected number of proximity neighbors per node. The generator
    /// places nodes uniformly on the unit square and connects pairs
    /// within radius `sqrt(avg_degree / (π·n))`, so the pair count grows
    /// as `n·avg_degree/2` instead of `n²`.
    pub avg_degree: f64,
}

/// Payload of [`Scenario::Trace`]: the schedule to replay plus the
/// trained rate graph the analysis series should use.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceScenario {
    /// The contact schedule the simulation replays.
    pub schedule: ContactSchedule,
    /// Caller-provided per-pair rates for the analysis side.
    pub rates: ContactGraph,
}

/// Which parameter a sweep varies, with its grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Nothing varies: one [`PointSummary`] at the spec's config, the
    /// axis of a spec built without an `over_*` call.
    Point,
    /// Delivery rate vs deadline `T` (one simulation per realization at
    /// the maximum deadline covers the whole curve).
    Deadline(Vec<f64>),
    /// Traceable rate and anonymity vs compromised-node count `c`.
    Security(SecurityAxis),
    /// Full point summaries vs fault-plan intensity.
    Fault(FaultAxis),
    /// Full point summaries vs erasure-code rate `(k, m)`.
    Code(CodeAxis),
}

/// Payload of [`SweepAxis::Security`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SecurityAxis {
    /// Compromised-node counts to sweep.
    pub compromised: Vec<usize>,
    /// Independent compromise sets averaged per `c` per realization.
    pub adversary_draws: usize,
}

/// The compromised-node grid a security sweep over `nodes` runs when the
/// caller names none: 1, 5, 10, 20, 30, 40 and 50 % of the nodes, rounded,
/// at least one, each count once (below 30 nodes several round alike).
pub fn default_security_grid(nodes: usize) -> Vec<usize> {
    let mut grid: Vec<usize> = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
        .iter()
        .map(|f| ((nodes as f64 * f).round() as usize).max(1))
        .collect();
    grid.dedup();
    grid
}

/// Payload of [`SweepAxis::Fault`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultAxis {
    /// The plan scaled by each intensity (probabilities clamped to
    /// `[0, 1]`, churn rate scaled linearly).
    pub base_plan: FaultPlan,
    /// Intensity multipliers (0.0 = fault-free).
    pub intensities: Vec<f64>,
}

/// The base plan a fault sweep scales when the caller names none: a
/// representative mix of every fault class.
pub fn default_fault_plan() -> FaultPlan {
    FaultPlan {
        churn: Some(ChurnConfig {
            crash_rate: 0.002,
            mean_downtime: 120.0,
            memory: ChurnMemory::Persist,
        }),
        contact_failure: 0.2,
        transfer_truncation: 0.1,
        message_loss: 0.05,
    }
}

/// The intensities a fault sweep scales its base plan by when the caller
/// names none.
pub const DEFAULT_FAULT_INTENSITIES: &[f64] = &[0.0, 0.25, 0.5, 0.75, 1.0];

/// Payload of [`SweepAxis::Code`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CodeAxis {
    /// `(k, m)` code rates to sweep: each row runs a full coded point
    /// requiring any `k` of `m` Reed-Solomon fragments for delivery.
    pub rates: Vec<(u32, u32)>,
}

/// One sweep, fully described: protocol parameters, contact source, and
/// the swept axis. Construct with [`SweepSpec::random_graph`],
/// [`SweepSpec::schedule`], [`SweepSpec::trace`] or [`SweepSpec::sparse`],
/// pick an axis with an `over_*` method (or none, for one point), then
/// call [`SweepSpec::run`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Protocol parameters (for deadline sweeps, `config.deadline` is
    /// overridden by the maximum swept deadline).
    pub config: ProtocolConfig,
    /// Contact source.
    pub scenario: Scenario,
    /// Swept parameter and grid.
    pub axis: SweepAxis,
}

/// The version of what joins an [`Identity`]; changing what joins it
/// means bumping this, which moves every key at once.
const IDENTITY_VERSION: u32 = 1;

/// What names a run's results: the canonical JSON `{"version", "spec",
/// "opts"}` that [`SweepSpec::identity`] builds. Its [`key`](Self::key)
/// is every `--resume` checkpoint fingerprint and every serve cache and
/// store key, so two runs share a key exactly when they run the same
/// spec under the same options, the run policies `threads` and
/// `keep_going` aside.
#[derive(Clone, Debug, PartialEq)]
pub struct Identity(Value);

impl Identity {
    /// The canonical JSON text.
    pub fn json(&self) -> String {
        serde_json::to_string(&self.0).expect("a validated spec serializes")
    }

    /// Hex SHA-256 of [`Identity::json`].
    pub fn key(&self) -> String {
        sha256_hex(&self.json())
    }
}

impl Serialize for Identity {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Lowercase hex SHA-256 of `text`.
fn sha256_hex(text: &str) -> String {
    onion_crypto::hex::encode(&Sha256::digest(text.as_bytes()))
}

/// The rows a sweep produced, tagged by axis kind.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepReport {
    /// The summary of a [`SweepAxis::Point`] run.
    Point(Box<PointSummary>),
    /// Rows of a [`SweepAxis::Deadline`] sweep.
    Delivery(Vec<DeliverySweepRow>),
    /// Rows of a [`SweepAxis::Security`] sweep.
    Security(Vec<SecuritySweepRow>),
    /// Rows of a [`SweepAxis::Fault`] sweep.
    Fault(Vec<FaultSweepRow>),
    /// Rows of a [`SweepAxis::Code`] sweep.
    Code(Vec<CodeSweepRow>),
}

/// Why [`SweepSpec::run_controlled`] stopped without a full report.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepRunError {
    /// [`SweepSpec::validate`] rejected the spec; no trial ran.
    Invalid(SweepError),
    /// The cancel hook fired between rows; `completed` rows were
    /// finished (and persisted to any installed [`RowCache`]) before
    /// the sweep stopped.
    Cancelled {
        /// Rows finished before cancellation.
        completed: usize,
        /// Rows the sweep would have produced.
        total: usize,
    },
    /// A trial panicked on its seed and on its retry, and
    /// [`ExperimentOptions::keep_going`] was unset.
    Quarantined {
        /// The run that lost them: `<world>_point`, `<axis>_sweep_<world>`.
        label: String,
        /// The quarantined trials, in trial order.
        failures: Vec<TrialFailure>,
    },
}

impl std::fmt::Display for SweepRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepRunError::Invalid(e) => write!(f, "{e}"),
            SweepRunError::Cancelled { completed, total } => {
                write!(f, "cancelled after {completed} of {total} row(s)")
            }
            SweepRunError::Quarantined { label, failures } => {
                let TrialFailure { trial, message, .. } = &failures[0];
                write!(f, "{label}: {} trial(s) failed twice", failures.len())?;
                write!(f, ", first trial {trial}: {message}")
            }
        }
    }
}

impl std::error::Error for SweepRunError {}

/// Where [`SweepSpec::run_controlled`] persists finished rows: the CLI's
/// `--resume` [`Checkpoint`](crate::Checkpoint) and the serving daemon's
/// disk store. A stored row is replayed instead of computed, and each
/// newly computed row is offered as it completes. Fault and code sweeps
/// store one row per grid entry (`intensity=<v>`, `code=<k>/<m>`), so a
/// cancelled sweep keeps the rows it finished; a point, deadline or
/// security run stores its whole result as one row, under a key naming
/// its grid (`point`, `deadlines=<grid>`, `compromised=<grid>;draws=<n>`).
/// Row JSON round-trips exactly (the vendored serde guarantees exact f64
/// round-trips), so replayed rows are byte-identical to computed ones; a
/// stored row that does not parse as the row type is computed again. A
/// row is offered only when none of its trials was quarantined, so a
/// replayed row is never missing trials.
pub trait RowCache {
    /// Returns the stored JSON for `key`, if any.
    fn load(&self, key: &str) -> Option<String>;
    /// Persists one finished row's JSON under `key`; best-effort.
    fn save(&self, key: &str, row_json: &str);
}

/// External control hooks for [`SweepSpec::run_controlled`].
#[derive(Clone, Copy, Default)]
pub struct SweepControls<'a> {
    /// Polled between rows; returning `true` stops the sweep with
    /// [`SweepRunError::Cancelled`]. One-pass axes (`Point`, `Deadline`,
    /// `Security`) compute every row from a single realization pass, so
    /// they only poll once, before the pass starts.
    pub cancel: Option<&'a (dyn Fn() -> bool + Sync)>,
    /// Replays stored rows and persists new ones, under the keys
    /// [`RowCache`] documents.
    pub rows: Option<&'a (dyn RowCache + Sync)>,
}

/// A computed row and the count of quarantined trials it tolerated.
type Counted<R> = Result<(R, u64), SweepRunError>;

impl SweepControls<'_> {
    /// Polls the cancel hook, stopping the sweep after `completed` of
    /// `total` rows when it fires; then the row stored under `key`, or
    /// else `compute`'s, offered to the row cache only when it tolerated
    /// no quarantined trial.
    fn row<R: Serialize + DeserializeOwned>(
        &self,
        (completed, total): (usize, usize),
        key: &str,
        compute: impl FnOnce() -> Counted<R>,
    ) -> Result<R, SweepRunError> {
        if self.cancel.is_some_and(|hook| hook()) {
            return Err(SweepRunError::Cancelled { completed, total });
        }
        let Some(cache) = self.rows else {
            return compute().map(|(row, _)| row);
        };
        if let Some(row) = cache
            .load(key)
            .and_then(|json| serde_json::from_str(&json).ok())
        {
            return Ok(row);
        }
        let (row, tolerated) = compute()?;
        if tolerated == 0 {
            if let Ok(json) = serde_json::to_string(&row) {
                cache.save(key, &json);
            }
        }
        Ok(row)
    }
}

impl SweepReport {
    /// The point summary, if this was a point run.
    pub fn into_point(self) -> Option<PointSummary> {
        match self {
            SweepReport::Point(summary) => Some(*summary),
            _ => None,
        }
    }

    /// The delivery rows, if this was a deadline sweep.
    pub fn into_delivery(self) -> Option<Vec<DeliverySweepRow>> {
        match self {
            SweepReport::Delivery(rows) => Some(rows),
            _ => None,
        }
    }

    /// The security rows, if this was a security sweep.
    pub fn into_security(self) -> Option<Vec<SecuritySweepRow>> {
        match self {
            SweepReport::Security(rows) => Some(rows),
            _ => None,
        }
    }

    /// The fault rows, if this was a fault sweep.
    pub fn into_fault(self) -> Option<Vec<FaultSweepRow>> {
        match self {
            SweepReport::Fault(rows) => Some(rows),
            _ => None,
        }
    }

    /// The code-rate rows, if this was a (k, m) sweep.
    pub fn into_code(self) -> Option<Vec<CodeSweepRow>> {
        match self {
            SweepReport::Code(rows) => Some(rows),
            _ => None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            SweepReport::Point(_) => 1,
            SweepReport::Delivery(rows) => rows.len(),
            SweepReport::Security(rows) => rows.len(),
            SweepReport::Fault(rows) => rows.len(),
            SweepReport::Code(rows) => rows.len(),
        }
    }

    /// Whether the sweep produced no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SweepSpec {
    /// A random-graph sweep. Without an `over_*` call it runs one point
    /// ([`SweepAxis::Point`]).
    pub fn random_graph(config: ProtocolConfig) -> SweepSpec {
        SweepSpec::with_scenario(config, Scenario::RandomGraph)
    }

    /// A sweep replaying `schedule`, with analysis rates estimated from
    /// the schedule itself.
    pub fn schedule(config: ProtocolConfig, schedule: ContactSchedule) -> SweepSpec {
        SweepSpec::with_scenario(config, Scenario::Schedule(schedule))
    }

    /// A sweep replaying `schedule` with caller-trained analysis
    /// `rates`.
    pub fn trace(
        config: ProtocolConfig,
        schedule: ContactSchedule,
        rates: ContactGraph,
    ) -> SweepSpec {
        SweepSpec::with_scenario(config, Scenario::Trace(TraceScenario { schedule, rates }))
    }

    /// A sweep over sparse Poisson proximity worlds with `avg_degree`
    /// expected neighbors per node (see [`Scenario::Sparse`]).
    pub fn sparse(config: ProtocolConfig, avg_degree: f64) -> SweepSpec {
        SweepSpec::with_scenario(config, Scenario::Sparse(SparseScenario { avg_degree }))
    }

    /// One point of `scenario`.
    fn with_scenario(config: ProtocolConfig, scenario: Scenario) -> SweepSpec {
        SweepSpec {
            config,
            scenario,
            axis: SweepAxis::Point,
        }
    }

    /// Sweeps delivery rate over `deadlines`.
    pub fn over_deadlines(mut self, deadlines: &[f64]) -> SweepSpec {
        self.axis = SweepAxis::Deadline(deadlines.to_vec());
        self
    }

    /// Sweeps security metrics over `compromised` counts, averaging
    /// `adversary_draws` compromise sets per count per realization.
    pub fn over_security(mut self, compromised: &[usize], adversary_draws: usize) -> SweepSpec {
        self.axis = SweepAxis::Security(SecurityAxis {
            compromised: compromised.to_vec(),
            adversary_draws,
        });
        self
    }

    /// Sweeps full point summaries over fault `intensities` applied to
    /// `base_plan`.
    pub fn over_faults(mut self, base_plan: FaultPlan, intensities: &[f64]) -> SweepSpec {
        self.axis = SweepAxis::Fault(FaultAxis {
            base_plan,
            intensities: intensities.to_vec(),
        });
        self
    }

    /// Sweeps full point summaries over erasure-code `rates`: each
    /// `(k, m)` row runs a coded point where every message becomes `m`
    /// independently routed Reed-Solomon fragments, any `k` of which
    /// reconstruct it.
    pub fn over_code_rates(mut self, rates: &[(u32, u32)]) -> SweepSpec {
        self.axis = SweepAxis::Code(CodeAxis {
            rates: rates.to_vec(),
        });
        self
    }

    /// Checks the spec against `opts` before any trial runs: the config
    /// (for a deadline sweep, at the grid's maximum deadline), the
    /// options, the scenario's own parameters and the axis grid.
    ///
    /// # Errors
    ///
    /// The first offending field, named as in a `/v1/sweep/*` request
    /// body.
    pub fn validate(&self, opts: &ExperimentOptions) -> Result<(), SweepError> {
        let invalid = |field, reason: String| Err(SweepError { field, reason });
        match &self.axis {
            SweepAxis::Point => {}
            SweepAxis::Deadline(deadlines) => {
                if deadlines.is_empty() || deadlines.iter().any(|&t| !(t.is_finite() && t > 0.0)) {
                    return invalid(
                        "deadlines",
                        "need at least one positive deadline, every one finite".into(),
                    );
                }
            }
            SweepAxis::Security(axis) => {
                let n = self.config.nodes;
                if axis.compromised.is_empty() || axis.compromised.iter().any(|&c| c > n) {
                    return invalid("compromised", format!("values must be within 0..={n}"));
                }
            }
            SweepAxis::Fault(axis) => {
                if let Err(e) = axis.base_plan.validate() {
                    return invalid("plan", e);
                }
                if axis.intensities.is_empty()
                    || axis.intensities.iter().any(|i| !(0.0..=10.0).contains(i))
                {
                    return invalid("intensities", "must be within 0..=10".into());
                }
            }
            SweepAxis::Code(axis) => {
                if axis.rates.is_empty() {
                    return invalid("rates", "need at least one rate".into());
                }
                if let Some(e) = axis.rates.iter().find_map(|&r| check_code_shape(r).err()) {
                    return invalid("rates", e);
                }
            }
        }
        check_world(self.world(), &self.run_config(), opts)
    }

    /// The identity of this spec's results under `opts`: the spec and the
    /// options with `threads` and `keep_going` zeroed, since results are
    /// bit-identical for every thread count and one that tolerated a
    /// quarantine is never stored. A scenario that carries a contact schedule
    /// (`Schedule`, `Trace`) enters as the SHA-256 of its JSON with the
    /// schedule's node and contact counts, not inline, so an edited trace
    /// file gets a new key; the other scenarios enter as themselves.
    ///
    /// # Panics
    ///
    /// If the spec or options hold a non-finite float, which
    /// [`SweepSpec::validate`] rejects.
    pub fn identity(&self, opts: &ExperimentOptions) -> Identity {
        let SweepSpec {
            config,
            scenario,
            axis,
        } = self;
        let scenario = match scenario {
            Scenario::Schedule(schedule) => digested("Schedule", schedule, schedule),
            Scenario::Trace(trace) => digested("Trace", trace, &trace.schedule),
            inline => inline.to_value(),
        };
        let spec = Value::Object(vec![
            ("config".into(), config.to_value()),
            ("scenario".into(), scenario),
            ("axis".into(), axis.to_value()),
        ]);
        let opts = ExperimentOptions {
            threads: 0,
            keep_going: false,
            ..opts.clone()
        };
        Identity(Value::Object(vec![
            ("version".into(), IDENTITY_VERSION.to_value()),
            ("spec".into(), spec),
            ("opts".into(), opts.to_value()),
        ]))
    }

    /// Runs the sweep: [`SweepSpec::run_controlled`] with no hooks.
    ///
    /// # Panics
    ///
    /// With the [`SweepRunError`]'s text: when [`SweepSpec::validate`]
    /// rejects the spec or, with `keep_going` unset, when a realization is
    /// quarantined.
    pub fn run(&self, opts: &ExperimentOptions) -> SweepReport {
        self.run_controlled(opts, &SweepControls::default())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the sweep under [`SweepControls`]: an optional cancel hook
    /// polled between rows (the serving daemon's request deadline, the
    /// CLI's failed checkpoint append) and an optional [`RowCache`] that
    /// replays finished rows and persists new ones as they complete.
    ///
    /// # Errors
    ///
    /// [`SweepRunError::Invalid`] when [`SweepSpec::validate`] rejects
    /// the spec, [`SweepRunError::Cancelled`] when the cancel hook fires,
    /// and [`SweepRunError::Quarantined`] when a realization is
    /// quarantined with `keep_going` unset. Rows completed before either
    /// of the last two have already been offered to the `RowCache`.
    pub fn run_controlled(
        &self,
        opts: &ExperimentOptions,
        controls: &SweepControls<'_>,
    ) -> Result<SweepReport, SweepRunError> {
        self.validate(opts).map_err(SweepRunError::Invalid)?;
        let (world, cfg) = (self.world(), self.run_config());
        let label = |axis: &str| format!("{axis}_sweep_{}", world.label());
        let point_row = |opts: &ExperimentOptions| {
            point(world, &cfg, opts).map(|summary| {
                let tolerated = summary.trial_failures;
                (summary, tolerated)
            })
        };
        match &self.axis {
            SweepAxis::Point => controls
                .row((0, 1), "point", || point_row(opts))
                .map(|summary| SweepReport::Point(Box::new(summary))),
            SweepAxis::Deadline(deadlines) => {
                let key = format!("deadlines={}", joined(deadlines));
                controls
                    .row((0, deadlines.len()), &key, || {
                        let (sums, tolerated) =
                            trial::run(world, &cfg, opts, &DeadlineScorer(deadlines))?;
                        Ok((sums.rows(deadlines), tolerated))
                    })
                    .map(SweepReport::Delivery)
            }
            SweepAxis::Security(axis) => {
                let (cs, draws) = (&axis.compromised, axis.adversary_draws);
                let key = format!("compromised={};draws={draws}", joined(cs));
                controls
                    .row((0, cs.len()), &key, || {
                        let (sums, tolerated) =
                            trial::run(world, &cfg, opts, &SecurityScorer(axis))?;
                        Ok((sums.rows(&cfg, cs), tolerated))
                    })
                    .map(SweepReport::Security)
            }
            SweepAxis::Fault(axis) => row_sweep(
                &label("fault"),
                &axis.intensities,
                |intensity| format!("intensity={intensity}"),
                |&intensity| {
                    let plan = axis.base_plan.scaled(intensity);
                    let (summary, tolerated) =
                        point_row(&opts.clone().into_builder().faults(plan).build())?;
                    let row = FaultSweepRow {
                        intensity,
                        plan,
                        summary,
                    };
                    Ok((row, tolerated))
                },
                controls,
            )
            .map(SweepReport::Fault),
            SweepAxis::Code(axis) => row_sweep(
                &label("code"),
                &axis.rates,
                |(k, m)| format!("code={k}/{m}"),
                |&(k, m)| {
                    let (summary, tolerated) =
                        point_row(&opts.clone().into_builder().code(Some((k, m))).build())?;
                    Ok((CodeSweepRow { k, m, summary }, tolerated))
                },
                controls,
            )
            .map(SweepReport::Code),
        }
    }

    /// The world this spec's trials run in.
    fn world(&self) -> World<'_> {
        match &self.scenario {
            Scenario::RandomGraph => World::RandomGraph,
            Scenario::Schedule(schedule) => World::Schedule(schedule, None),
            Scenario::Trace(t) => World::Schedule(&t.schedule, Some(&t.rates)),
            Scenario::Sparse(sparse) => World::Sparse(sparse),
        }
    }

    /// The config the trials run with: a deadline sweep simulates once,
    /// at its grid's maximum deadline, and reads every row off that run.
    fn run_config(&self) -> ProtocolConfig {
        match &self.axis {
            SweepAxis::Deadline(deadlines) => ProtocolConfig {
                deadline: TimeDelta::new(deadlines.iter().cloned().fold(0.0f64, f64::max)),
                ..self.config.clone()
            },
            _ => self.config.clone(),
        }
    }
}

/// Why [`SweepSpec::validate`] rejected a spec.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct SweepError {
    /// The offending field, named as in a `/v1/sweep/*` request body
    /// (`config`, `opts.faults`, `sparse.avg_degree`, `deadlines`, …).
    pub field: &'static str,
    /// What is wrong with it.
    pub reason: String,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for SweepError {}

/// A schedule-carrying scenario as its identity names it:
/// `{variant: {"sha256", "nodes", "contacts"}}`, the digest over the
/// payload's JSON.
fn digested(variant: &str, payload: &impl Serialize, schedule: &ContactSchedule) -> Value {
    let json = serde_json::to_string(payload).expect("a contact schedule serializes");
    let digest = Value::Object(vec![
        ("sha256".into(), sha256_hex(&json).to_value()),
        ("nodes".into(), schedule.node_count().to_value()),
        ("contacts".into(), schedule.len().to_value()),
    ]);
    Value::Object(vec![(variant.into(), digest)])
}

/// A grid as its row keys name it: the values' `Display`, comma-joined.
fn joined<T: std::fmt::Display>(grid: &[T]) -> String {
    grid.iter().map(T::to_string).collect::<Vec<_>>().join(",")
}

/// Checks what every run needs besides its axis: the config, the
/// options, and the world's own parameters.
pub(crate) fn check_world(
    world: World<'_>,
    cfg: &ProtocolConfig,
    opts: &ExperimentOptions,
) -> Result<(), SweepError> {
    let invalid = |field, reason: String| Err(SweepError { field, reason });
    if let Err(e) = cfg.validate() {
        return invalid("config", e);
    }
    if opts.messages == 0 {
        return invalid("opts.messages", "must be at least 1".into());
    }
    if opts.realizations == 0 {
        return invalid("opts.realizations", "must be at least 1".into());
    }
    if let Err(e) = opts.faults.validate() {
        return invalid("opts.faults", e);
    }
    if let Some(Err(e)) = opts.code.map(check_code_shape) {
        return invalid("opts.code", e);
    }
    let (lo, hi) = opts.intercontact_range;
    match world {
        World::Schedule(schedule, _) if cfg.nodes != schedule.node_count() => invalid(
            "config.nodes",
            format!(
                "config nodes must match the trace ({} vs {})",
                cfg.nodes,
                schedule.node_count()
            ),
        ),
        World::Schedule(..) => Ok(()),
        World::Sparse(s) if !(s.avg_degree.is_finite() && s.avg_degree > 0.0) => {
            invalid("sparse.avg_degree", "must be finite and positive".into())
        }
        _ if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo <= hi) => invalid(
            "opts.intercontact_range",
            "must be finite with 0 < lo <= hi".into(),
        ),
        _ => Ok(()),
    }
}

/// The fault and code axes' row loop: one full point per grid entry,
/// stored under `key(entry)`. The cancel hook is polled before each row,
/// so a cancelled or quarantined sweep keeps the rows it paid for.
fn row_sweep<T, R: Serialize + DeserializeOwned>(
    label: &str,
    grid: &[T],
    key: impl Fn(&T) -> String,
    compute: impl Fn(&T) -> Counted<R>,
    controls: &SweepControls<'_>,
) -> Result<Vec<R>, SweepRunError> {
    let span = obs::span(SWEEP_SPAN);
    let mut rows = Vec::with_capacity(grid.len());
    for entry in grid {
        let done = (rows.len(), grid.len());
        rows.push(controls.row(done, &key(entry), || compute(entry))?);
    }
    drop(span);
    obs::flush_point(label);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use contact_graph::{Time, UniformGraphBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn quick_opts() -> ExperimentOptions {
        ExperimentOptions {
            messages: 8,
            realizations: 2,
            seed: 19,
            ..Default::default()
        }
    }

    #[test]
    fn spec_roundtrips_through_serde() {
        let spec =
            SweepSpec::random_graph(ProtocolConfig::table2_defaults()).over_security(&[5, 10], 3);
        let json = serde_json::to_string(&spec).unwrap();
        let back: SweepSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    /// The identity names the results, not the run: the run policies
    /// `threads` and `keep_going` leave the key alone (a result that
    /// tolerated a quarantine is never stored), any other option or the
    /// grid moves it, and a generated
    /// world's identity holds its spec verbatim. A schedule enters as a
    /// digest, so an edited schedule moves the key.
    #[test]
    fn identity_names_the_results_not_the_run() {
        let cfg = ProtocolConfig {
            nodes: 24,
            group_size: 3,
            onions: 2,
            compromised: 2,
            ..ProtocolConfig::table2_defaults()
        };
        let opts = quick_opts();
        let with = |b: fn(crate::ExperimentOptionsBuilder) -> crate::ExperimentOptionsBuilder| {
            b(opts.clone().into_builder()).build()
        };
        let spec = SweepSpec::random_graph(cfg.clone()).over_deadlines(&[50.0, 200.0]);
        let key = spec.identity(&opts).key();
        assert_eq!(key.len(), 64);
        assert_eq!(spec.identity(&with(|b| b.threads(7))).key(), key);
        assert_ne!(spec.identity(&with(|b| b.seed(20))).key(), key);
        assert_eq!(spec.identity(&with(|b| b.keep_going(true))).key(), key);
        let shorter = spec.clone().over_deadlines(&[50.0]);
        assert_ne!(shorter.identity(&opts).key(), key);
        let value = serde_json::parse_value(&spec.identity(&opts).json()).unwrap();
        assert_eq!(value.get("version"), Some(&Value::UInt(1)));
        assert_eq!(SweepSpec::from_value(value.get("spec").unwrap()), Ok(spec));

        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let graph = UniformGraphBuilder::new(24).build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(300.0), &mut rng);
        let edited = ContactSchedule::sample(&graph, Time::new(300.0), &mut rng);
        let keyed =
            |s: &ContactSchedule| SweepSpec::schedule(cfg.clone(), s.clone()).identity(&opts);
        let json = keyed(&schedule).json();
        let counts = format!("\"nodes\":24,\"contacts\":{}}}", schedule.len());
        assert!(json.contains(&counts), "{json}");
        assert!(json.len() < 1024, "{json}");
        assert_eq!(keyed(&schedule), keyed(&schedule.clone()));
        assert_ne!(keyed(&schedule).key(), keyed(&edited).key());
        let trained = SweepSpec::trace(cfg.clone(), schedule.clone(), schedule.estimate_rates());
        assert_ne!(trained.identity(&opts).key(), keyed(&schedule).key());
    }

    #[test]
    fn axis_selects_the_report_kind() {
        let cfg = ProtocolConfig {
            nodes: 30,
            group_size: 3,
            onions: 2,
            compromised: 3,
            deadline: contact_graph::TimeDelta::new(240.0),
            ..ProtocolConfig::table2_defaults()
        };
        let opts = quick_opts();
        let delivery = SweepSpec::random_graph(cfg.clone())
            .over_deadlines(&[120.0, 240.0])
            .run(&opts);
        assert!(matches!(delivery, SweepReport::Delivery(ref rows) if rows.len() == 2));
        assert_eq!(delivery.len(), 2);
        assert!(!delivery.is_empty());
        assert!(delivery.into_security().is_none());

        let security = SweepSpec::random_graph(cfg)
            .over_security(&[0, 3], 2)
            .run(&opts);
        assert_eq!(security.len(), 2);
        assert!(security.into_security().is_some());
    }

    #[test]
    fn an_endless_deadline_is_a_config_error() {
        let cfg = ProtocolConfig {
            deadline: contact_graph::TimeDelta::new(f64::INFINITY),
            ..ProtocolConfig::table2_defaults()
        };
        let spec = SweepSpec::random_graph(cfg).over_security(&[5], 3);
        let err = spec.validate(&quick_opts()).unwrap_err();
        assert_eq!(err.field, "config", "{err}");
    }

    #[test]
    fn an_invalid_spec_is_a_typed_error_and_run_panics_with_its_text() {
        let spec = SweepSpec::random_graph(ProtocolConfig::table2_defaults()).over_deadlines(&[]);
        let err = spec
            .run_controlled(&quick_opts(), &SweepControls::default())
            .unwrap_err();
        let SweepRunError::Invalid(invalid) = &err else {
            panic!("{err}");
        };
        assert_eq!(invalid.field, "deadlines");
        assert_eq!(err.to_string(), invalid.to_string());
        let panic = std::panic::catch_unwind(|| spec.run(&quick_opts())).unwrap_err();
        assert_eq!(panic.downcast_ref::<String>(), Some(&invalid.to_string()));
    }

    #[test]
    fn schedule_fault_sweep_runs_per_intensity_points() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let graph = UniformGraphBuilder::new(24).build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(300.0), &mut rng);
        let cfg = ProtocolConfig {
            nodes: 24,
            group_size: 3,
            onions: 2,
            compromised: 2,
            deadline: contact_graph::TimeDelta::new(200.0),
            ..ProtocolConfig::table2_defaults()
        };
        let plan = FaultPlan {
            contact_failure: 0.5,
            ..FaultPlan::default()
        };
        let rows = SweepSpec::schedule(cfg, schedule)
            .over_faults(plan, &[0.0, 1.0])
            .run(&quick_opts())
            .into_fault()
            .expect("fault axis yields fault rows");
        assert_eq!(rows.len(), 2);
        // Intensity 0 injects nothing; intensity 1 drops ~half the
        // contacts, so the faulted point must not deliver more.
        assert_eq!(rows[0].summary.sim_counters.fault_contacts_dropped, 0);
        assert!(rows[1].summary.sim_counters.fault_contacts_dropped > 0);
        assert!(rows[1].summary.sim_delivery <= rows[0].summary.sim_delivery + 1e-9);
    }

    /// Trace fault and code rows score the caller's trained rates: only
    /// `analysis_delivery` differs from the schedule-estimated rows, and
    /// at intensity 0 it equals the trace deadline sweep's analysis.
    #[test]
    fn trace_fault_and_code_rows_score_the_trained_rates() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let graph = UniformGraphBuilder::new(24).build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(300.0), &mut rng);
        // Trained rates twice the schedule's own estimate.
        let mut trained = schedule.estimate_rates();
        for a in 0..24 {
            for b in a + 1..24 {
                let (a, b) = (contact_graph::NodeId(a), contact_graph::NodeId(b));
                let rate = trained.rate(a, b).as_f64();
                trained.set_rate(a, b, contact_graph::Rate::new(2.0 * rate));
            }
        }
        let cfg = ProtocolConfig {
            nodes: 24,
            group_size: 3,
            onions: 2,
            compromised: 2,
            deadline: contact_graph::TimeDelta::new(200.0),
            ..ProtocolConfig::table2_defaults()
        };
        let plan = FaultPlan {
            contact_failure: 0.5,
            ..FaultPlan::default()
        };
        let specs = [
            SweepSpec::schedule(cfg.clone(), schedule.clone()),
            SweepSpec::trace(cfg.clone(), schedule.clone(), trained.clone()),
        ];
        let [schedule_rows, trace_rows] = specs.map(|spec| {
            let faults = spec
                .clone()
                .over_faults(plan, &[0.0, 1.0])
                .run(&quick_opts());
            let code = spec.over_code_rates(&[(1, 2), (2, 3)]).run(&quick_opts());
            let faults = faults.into_fault().unwrap().into_iter().map(|r| r.summary);
            faults
                .chain(code.into_code().unwrap().into_iter().map(|r| r.summary))
                .collect::<Vec<_>>()
        });
        for (s, t) in schedule_rows.iter().zip(&trace_rows) {
            assert_ne!(s.analysis_delivery, t.analysis_delivery);
            let sim = |p: &PointSummary| PointSummary {
                analysis_delivery: 0.0,
                ..p.clone()
            };
            assert_eq!(sim(s), sim(t));
        }
        let deadline = SweepSpec::trace(cfg, schedule, trained)
            .over_deadlines(&[100.0, 200.0])
            .run(&quick_opts())
            .into_delivery()
            .unwrap();
        assert!((trace_rows[0].analysis_delivery - deadline[1].analysis).abs() < 1e-12);
    }

    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// In-memory [`RowCache`] for the control-hook tests.
    #[derive(Default)]
    struct MemRows(Mutex<HashMap<String, String>>);

    impl RowCache for MemRows {
        fn load(&self, key: &str) -> Option<String> {
            self.0.lock().unwrap().get(key).cloned()
        }
        fn save(&self, key: &str, row_json: &str) {
            self.0
                .lock()
                .unwrap()
                .insert(key.to_string(), row_json.to_string());
        }
    }

    fn tiny_fault_spec() -> SweepSpec {
        let cfg = ProtocolConfig {
            nodes: 24,
            group_size: 3,
            onions: 2,
            compromised: 2,
            deadline: contact_graph::TimeDelta::new(200.0),
            ..ProtocolConfig::table2_defaults()
        };
        let plan = FaultPlan {
            contact_failure: 0.3,
            ..FaultPlan::default()
        };
        SweepSpec::random_graph(cfg).over_faults(plan, &[0.0, 1.0])
    }

    #[test]
    fn cancelled_fault_sweep_keeps_completed_rows_in_the_row_cache() {
        let spec = tiny_fault_spec();
        let opts = ExperimentOptions {
            messages: 4,
            realizations: 2,
            seed: 7,
            ..Default::default()
        };
        // The cancel hook is polled once before each row: let the first
        // row through, stop before the second.
        let polls = AtomicUsize::new(0);
        let cancel = || polls.fetch_add(1, Ordering::SeqCst) >= 1;
        let cache = MemRows::default();
        let err = spec
            .run_controlled(
                &opts,
                &SweepControls {
                    cancel: Some(&cancel),
                    rows: Some(&cache),
                },
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                SweepRunError::Cancelled {
                    completed: 1,
                    total: 2
                }
            ),
            "{err}"
        );
        assert!(cache.load("intensity=0").is_some());
        assert!(cache.load("intensity=1").is_none());

        // A retry with the same cache replays the finished row and only
        // computes the missing one; the report is bit-identical to an
        // uncontrolled batch run.
        let report = spec
            .run_controlled(
                &opts,
                &SweepControls {
                    cancel: None,
                    rows: Some(&cache),
                },
            )
            .unwrap();
        assert_eq!(report, spec.run(&opts));
        assert_eq!(cache.0.lock().unwrap().len(), 2);
    }

    /// A point, deadline or security result is one stored row under a
    /// key naming its grid; a stored row replays, and one that does not
    /// parse as the row type is computed again.
    #[test]
    fn one_pass_results_are_one_row_keyed_by_their_grid() {
        let cfg = ProtocolConfig {
            nodes: 24,
            group_size: 3,
            onions: 2,
            compromised: 2,
            deadline: contact_graph::TimeDelta::new(200.0),
            ..ProtocolConfig::table2_defaults()
        };
        let spec = SweepSpec::random_graph(cfg);
        let opts = quick_opts();
        for (spec, key) in [
            (spec.clone(), "point"),
            (
                spec.clone().over_deadlines(&[50.0, 200.0]),
                "deadlines=50,200",
            ),
            (spec.over_security(&[0, 2], 3), "compromised=0,2;draws=3"),
        ] {
            let cache = MemRows::default();
            let controls = SweepControls {
                cancel: None,
                rows: Some(&cache),
            };
            let computed = spec.run_controlled(&opts, &controls).unwrap();
            assert_eq!(computed, spec.run(&opts), "{key}");
            let keys: Vec<String> = cache.0.lock().unwrap().keys().cloned().collect();
            assert_eq!(keys, [key]);
            // A stored row replays: here, another seed's result.
            let other = spec.run(&opts.clone().into_builder().seed(20).build());
            assert_ne!(other, computed, "{key}");
            cache.save(key, &report_json(&other));
            assert_eq!(spec.run_controlled(&opts, &controls).unwrap(), other);
            // Valid JSON of another type is computed again, stored anew.
            cache.save(key, "{\"x\":1}");
            assert_eq!(spec.run_controlled(&opts, &controls).unwrap(), computed);
            assert_eq!(cache.load(key), Some(report_json(&computed)), "{key}");
        }
    }

    /// A row that tolerated a quarantined trial is returned but never
    /// offered to the row cache, and one stopped by a quarantine saves
    /// nothing: only a complete row is ever replayed.
    #[test]
    fn only_a_row_without_quarantined_trials_is_saved() {
        let cache = MemRows::default();
        let controls = SweepControls {
            cancel: None,
            rows: Some(&cache),
        };
        assert_eq!(
            controls.row((0, 1), "tolerated", || Ok((0.25, 1))),
            Ok(0.25)
        );
        assert_eq!(cache.load("tolerated"), None);
        let failures = vec![TrialFailure {
            trial: 0,
            attempts: 2,
            message: "boom".into(),
        }];
        let stopped = SweepRunError::Quarantined {
            label: "random_graph_point".into(),
            failures,
        };
        let row = controls.row::<f64>((0, 1), "stopped", || Err(stopped.clone()));
        assert_eq!(row, Err(stopped));
        assert_eq!(cache.load("stopped"), None);
        assert_eq!(controls.row((0, 1), "complete", || Ok((0.5, 0))), Ok(0.5));
        assert_eq!(cache.load("complete"), Some("0.5".into()));
        // A saved row replays instead of computing.
        assert_eq!(controls.row((0, 1), "complete", || Ok((0.75, 1))), Ok(0.5));
    }

    /// A one-pass report's stored row: its result's JSON.
    fn report_json(report: &SweepReport) -> String {
        match report {
            SweepReport::Point(p) => serde_json::to_string(&**p),
            SweepReport::Delivery(rows) => serde_json::to_string(rows),
            SweepReport::Security(rows) => serde_json::to_string(rows),
            other => panic!("not one-pass: {other:?}"),
        }
        .unwrap()
    }

    #[test]
    fn one_pass_axes_cancel_before_the_pass() {
        let spec = SweepSpec::random_graph(ProtocolConfig::table2_defaults())
            .over_deadlines(&[120.0, 240.0]);
        let cancel = || true;
        let err = spec
            .run_controlled(
                &quick_opts(),
                &SweepControls {
                    cancel: Some(&cancel),
                    rows: None,
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SweepRunError::Cancelled {
                completed: 0,
                total: 2
            }
        ));
    }
}
