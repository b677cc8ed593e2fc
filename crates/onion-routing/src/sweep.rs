//! The unified sweep builder: one serde-able description of *what* to
//! sweep, one entry point that runs it.
//!
//! A sweep is a [`Scenario`] (where contacts come from) crossed with a
//! [`SweepAxis`] (which parameter varies):
//!
//! | | `Deadline` | `Security` | `Fault`, `Code` |
//! |---|---|---|---|
//! | [`Scenario::RandomGraph`] | Figs. 4, 5, 10 | Figs. 6–9, 12, 13 | fault / code sweep |
//! | [`Scenario::Schedule`] | Fig. 17 | Figs. 15–19 | fault / code sweep |
//! | [`Scenario::Trace`] | Fig. 14 (trained rates) | Figs. 15–19 | fault / code sweep |
//! | [`Scenario::Sparse`] | scale runs (`n = 10⁵⁺`) | scale runs | fault / code sweep |
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
//! are scored. The deadline and security axes score a single pass of
//! trials; each fault and code row runs a full point under an options
//! override. Seed domains, RNG draw order and f64 summation order are
//! frozen, and committed goldens pin every cell.
//! [`SweepSpec::validate`] checks a spec before any trial runs.
//! `SweepSpec` itself is serde-able, so a sweep description can be
//! shipped over the serving API, checkpointed, or stored next to its
//! results.

use contact_graph::{ContactGraph, ContactSchedule, TimeDelta};
use dtn_sim::{ChurnConfig, ChurnMemory, FaultPlan, MAX_CODE_FRAGMENTS};
use serde::{Deserialize, DeserializeOwned, Serialize};

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::config::ProtocolConfig;
use crate::experiment::{
    point, CodeSweepRow, DeadlineScorer, DeliverySweepRow, ExperimentOptions, FaultSweepRow,
    SecurityScorer, SecuritySweepRow,
};
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
/// at least one.
pub fn default_security_grid(nodes: usize) -> Vec<usize> {
    [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5]
        .iter()
        .map(|f| ((nodes as f64 * f).round() as usize).max(1))
        .collect()
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
/// [`SweepSpec::schedule`], or [`SweepSpec::trace`], pick an axis with
/// an `over_*` method, then call [`SweepSpec::run`].
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

/// The rows a sweep produced, tagged by axis kind.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SweepReport {
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
#[derive(Debug)]
pub enum SweepRunError {
    /// Checkpoint I/O failed (only with a checkpoint installed).
    Checkpoint(CheckpointError),
    /// The cancel hook fired between rows; `completed` rows were
    /// finished (and persisted to any installed [`RowCache`]) before
    /// the sweep stopped.
    Cancelled {
        /// Rows finished before cancellation.
        completed: usize,
        /// Rows the sweep would have produced.
        total: usize,
    },
}

impl std::fmt::Display for SweepRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepRunError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            SweepRunError::Cancelled { completed, total } => {
                write!(f, "cancelled after {completed} of {total} row(s)")
            }
        }
    }
}

impl std::error::Error for SweepRunError {}

impl From<CheckpointError> for SweepRunError {
    fn from(e: CheckpointError) -> Self {
        SweepRunError::Checkpoint(e)
    }
}

/// Per-row persistence hooks for [`SweepSpec::run_controlled`]: lets a
/// caller (the serving daemon's disk store) replay finished rows and
/// persist new ones as they complete, so a cancelled sweep's partial
/// work survives. Row JSON round-trips exactly (the vendored serde
/// guarantees exact f64 round-trips — the same property checkpoint
/// replay relies on), so replayed rows are byte-identical to computed
/// ones.
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
    /// [`SweepRunError::Cancelled`]. One-pass axes (`Deadline`,
    /// `Security`) compute every row from a single realization pass, so
    /// they only poll once, before the pass starts.
    pub cancel: Option<&'a (dyn Fn() -> bool + Sync)>,
    /// Row replay/persistence hooks; only the fault and code axes have
    /// per-row granularity. Keys match the checkpoint row keys
    /// (`intensity=<value>`, `code=<k>/<m>`). Ignored when a checkpoint
    /// is installed (the checkpoint already provides replay).
    pub rows: Option<&'a (dyn RowCache + Sync)>,
}

impl SweepControls<'_> {
    /// Polls the cancel hook, stopping the sweep after `completed` of
    /// `total` rows when it fires.
    fn poll(&self, completed: usize, total: usize) -> Result<(), SweepRunError> {
        match self.cancel.is_some_and(|hook| hook()) {
            true => Err(SweepRunError::Cancelled { completed, total }),
            false => Ok(()),
        }
    }
}

impl SweepReport {
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
    /// A random-graph sweep. Pick an axis with an `over_*` method before
    /// running; the default axis is an empty deadline grid, which
    /// [`SweepSpec::run`] rejects.
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

    /// A sweep of `scenario` with the default, empty deadline axis.
    fn with_scenario(config: ProtocolConfig, scenario: Scenario) -> SweepSpec {
        SweepSpec {
            config,
            scenario,
            axis: SweepAxis::Deadline(Vec::new()),
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
                if axis.rates.is_empty() || !axis.rates.iter().all(|&r| code_is_valid(r)) {
                    return invalid("rates", code_rule());
                }
            }
        }
        check_world(self.world(), &self.run_config(), opts)
    }

    /// Runs the sweep.
    ///
    /// # Panics
    ///
    /// Panics with the error's text if [`SweepSpec::validate`] rejects
    /// the spec, or — with `keep_going` unset — when a realization is
    /// quarantined.
    pub fn run(&self, opts: &ExperimentOptions) -> SweepReport {
        self.run_with_checkpoint(opts, None)
            .expect("checkpoint errors are impossible without a checkpoint")
    }

    /// Runs the sweep, resuming finished rows from `checkpoint` when one
    /// is given. Only fault and code sweeps checkpoint per row (keyed
    /// `intensity=<value>` and `code=<k>/<m>`); the other axes compute
    /// all rows in one pass and ignore the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] only when `checkpoint` is `Some`
    /// and the file cannot be read or written.
    ///
    /// # Panics
    ///
    /// As [`SweepSpec::run`].
    pub fn run_with_checkpoint(
        &self,
        opts: &ExperimentOptions,
        checkpoint: Option<&mut Checkpoint>,
    ) -> Result<SweepReport, CheckpointError> {
        self.run_controlled(opts, checkpoint, &SweepControls::default())
            .map_err(|e| match e {
                SweepRunError::Checkpoint(c) => c,
                SweepRunError::Cancelled { .. } => {
                    unreachable!("no cancel hook was installed")
                }
            })
    }

    /// Runs the sweep under external [`SweepControls`]: an optional
    /// cancel hook polled between rows (the serving daemon's request
    /// deadline) and an optional [`RowCache`] that replays finished
    /// rows and persists new ones as they complete. Checkpoint resume
    /// composes as in [`SweepSpec::run_with_checkpoint`].
    ///
    /// # Errors
    ///
    /// [`SweepRunError::Checkpoint`] on checkpoint I/O failure,
    /// [`SweepRunError::Cancelled`] when the cancel hook fires — rows
    /// completed up to that point have already been offered to the
    /// `RowCache`.
    ///
    /// # Panics
    ///
    /// As [`SweepSpec::run`].
    pub fn run_controlled(
        &self,
        opts: &ExperimentOptions,
        checkpoint: Option<&mut Checkpoint>,
        controls: &SweepControls<'_>,
    ) -> Result<SweepReport, SweepRunError> {
        if let Err(e) = self.validate(opts) {
            panic!("{e}");
        }
        let (world, cfg) = (self.world(), self.run_config());
        let label = |axis: &str| format!("{axis}_sweep_{}", world.label());
        // One-pass axes compute every row at once, so they poll the
        // cancel hook only before the pass.
        match &self.axis {
            SweepAxis::Deadline(deadlines) => {
                controls.poll(0, deadlines.len())?;
                let (sums, _) = trial::run(world, &cfg, opts, &DeadlineScorer(deadlines));
                Ok(SweepReport::Delivery(sums.rows(deadlines)))
            }
            SweepAxis::Security(axis) => {
                controls.poll(0, axis.compromised.len())?;
                let (sums, _) = trial::run(world, &cfg, opts, &SecurityScorer(axis));
                Ok(SweepReport::Security(sums.rows(&cfg, &axis.compromised)))
            }
            SweepAxis::Fault(axis) => row_sweep(
                &label("fault"),
                &axis.intensities,
                |intensity| format!("intensity={intensity}"),
                |&intensity| {
                    let plan = axis.base_plan.scaled(intensity);
                    let opts = opts.clone().into_builder().faults(plan).build();
                    let summary = point(world, &cfg, &opts);
                    FaultSweepRow {
                        intensity,
                        plan,
                        summary,
                    }
                },
                checkpoint,
                controls,
            )
            .map(SweepReport::Fault),
            SweepAxis::Code(axis) => row_sweep(
                &label("code"),
                &axis.rates,
                |(k, m)| format!("code={k}/{m}"),
                |&(k, m)| {
                    let opts = opts.clone().into_builder().code(Some((k, m))).build();
                    let summary = point(world, &cfg, &opts);
                    CodeSweepRow { k, m, summary }
                },
                checkpoint,
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

fn code_is_valid((k, m): (u32, u32)) -> bool {
    k >= 1 && k <= m && m <= MAX_CODE_FRAGMENTS
}

fn code_rule() -> String {
    format!("must satisfy 1 <= k <= m <= {MAX_CODE_FRAGMENTS}")
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
    if opts.code.is_some_and(|code| !code_is_valid(code)) {
        return invalid("opts.code", code_rule());
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

/// The fault and code axes' row loop: one full point per grid entry.
/// With a checkpoint, finished rows (keyed `key(entry)`) replay
/// byte-identically. The cancel hook is polled before each row, and a
/// [`RowCache`] (when no checkpoint is installed) replays finished rows
/// and persists new ones one at a time — so a cancelled sweep keeps the
/// rows it paid for.
fn row_sweep<T, R: Serialize + DeserializeOwned>(
    label: &str,
    grid: &[T],
    key: impl Fn(&T) -> String,
    compute: impl Fn(&T) -> R,
    mut checkpoint: Option<&mut Checkpoint>,
    controls: &SweepControls<'_>,
) -> Result<Vec<R>, SweepRunError> {
    let span = obs::span(SWEEP_SPAN);
    let mut rows = Vec::with_capacity(grid.len());
    for entry in grid {
        controls.poll(rows.len(), grid.len())?;
        let key = key(entry);
        let row = match (checkpoint.as_deref_mut(), controls.rows) {
            (Some(cp), _) => cp.run_point(&key, || compute(entry))?,
            (None, Some(cache)) => {
                match cache
                    .load(&key)
                    .and_then(|json| serde_json::from_str(&json).ok())
                {
                    Some(row) => row,
                    None => {
                        let row = compute(entry);
                        if let Ok(json) = serde_json::to_string(&row) {
                            cache.save(&key, &json);
                        }
                        row
                    }
                }
            }
            (None, None) => compute(entry),
        };
        rows.push(row);
    }
    drop(span);
    obs::flush_point(label);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::PointSummary;
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
    #[should_panic(expected = "positive deadline")]
    fn default_axis_is_rejected() {
        let _ = SweepSpec::random_graph(ProtocolConfig::table2_defaults()).run(&quick_opts());
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
                None,
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
                None,
                &SweepControls {
                    cancel: None,
                    rows: Some(&cache),
                },
            )
            .unwrap();
        assert_eq!(report, spec.run(&opts));
        assert_eq!(cache.0.lock().unwrap().len(), 2);
    }

    #[test]
    fn one_pass_axes_cancel_before_the_pass() {
        let spec = SweepSpec::random_graph(ProtocolConfig::table2_defaults())
            .over_deadlines(&[120.0, 240.0]);
        let cancel = || true;
        let err = spec
            .run_controlled(
                &quick_opts(),
                None,
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
