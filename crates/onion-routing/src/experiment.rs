//! High-level experiment harness: one call per figure data point.
//!
//! Reproduces the paper's evaluation methodology (Section V-A):
//!
//! * **Random graphs** — sample a Table II contact graph, partition nodes
//!   into onion groups, inject messages between random source/destination
//!   pairs, and simulate; the *numerical* (analysis) series evaluates the
//!   models on the **same realization** (per-message Eq. 4 rates from the
//!   realized graph and route), exactly as the paper computes its
//!   numerical results "for each contact graph realization with a given
//!   source and destination pair".
//! * **Traces** — replay a (synthetic or real) contact schedule; message
//!   transmissions start at a random contact of the source ("business
//!   hours"); rates for the analysis side are estimated ("trained") from
//!   the trace.
//!
//! Every point and sweep runs the same trial (`crate::trial`): realize
//! the world, route the messages, score the run. Its realizations fan
//! across the deterministic parallel runner ([`crate::runner`]): trial
//! `i` derives all of its randomness from
//! [`crate::runner::trial_rng`]`(opts.seed, domain, i)` and produces a
//! mergeable partial, and partials are folded in ascending trial order —
//! so reports are bit-identical for any [`ExperimentOptions::threads`]
//! setting. Realizations run panic-isolated
//! ([`crate::runner::run_trials_resilient`]): a panicking trial is
//! retried once on a deterministic disambiguated sub-seed and quarantined
//! if it fails again, which stops the run with a typed
//! [`SweepRunError::Quarantined`] unless `keep_going` tolerates it.

use contact_graph::{ContactModel, ContactSchedule, NodeId};
use dtn_sim::{fragment_id, FaultPlan, Message, MessageId, SimCounters, StreamingStats};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::adversary::Adversary;
use crate::config::ProtocolConfig;
use crate::metrics;
use crate::runner::RunnerConfig;
use crate::sweep::{check_world, SecurityAxis, SparseScenario, SweepRunError};
use crate::trial::{self, Scorer, Trial, World};

/// Knobs that are about the experiment, not the protocol.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`ExperimentOptions::builder`] (or start from an existing value with
/// [`ExperimentOptions::into_builder`]) so adding future knobs is not a
/// breaking change for downstream crates.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub struct ExperimentOptions {
    /// Messages injected per realization.
    pub messages: usize,
    /// Independent realizations (graph + groups + adversary draws)
    /// averaged per point.
    pub realizations: usize,
    /// Base RNG seed; every realization derives its own stream via
    /// [`crate::runner::trial_rng`] (domain-separated SplitMix64 →
    /// ChaCha8).
    pub seed: u64,
    /// Mean inter-contact range of the random graphs (Table II: 1–36
    /// minutes).
    pub intercontact_range: (f64, f64),
    /// Worker threads for the realization fan-out; `0` auto-detects.
    /// Results never depend on this value, only wall-clock time does.
    pub threads: usize,
    /// Faults injected into every realization's simulation. The default
    /// (no-op) plan is bit-identical to running without fault support.
    pub faults: FaultPlan,
    /// Whether quarantined trial failures (a trial panicking on both its
    /// original seed and its deterministic retry) are tolerated: `true`
    /// records them in the summary and continues, `false` (the default)
    /// stops the run with [`SweepRunError::Quarantined`]. A run policy,
    /// like `threads`: the identity zeroes it.
    pub keep_going: bool,
    /// Wire mode: move (and peel) real constant-size ciphertext on every
    /// forward, tallying bytes and AEAD operations into the summary's
    /// `sim_counters`. All crypto randomness comes from the dedicated
    /// [`SeedDomain::Wire`](crate::SeedDomain::Wire) stream, so the
    /// abstract results are bit-identical with this flag on or off.
    pub wire: bool,
    /// Erasure-coded k-of-m forwarding: `Some((k, m))` expands every
    /// message into `m` independently routed single-copy Reed-Solomon
    /// fragments, delivered when any `k` arrive
    /// ([`dtn_sim::CopyMode::Coded`]). Codec randomness comes from the
    /// dedicated [`SeedDomain::Codec`](crate::SeedDomain::Codec) stream,
    /// and the analysis side switches to the k-of-m order-statistic model
    /// ([`analysis::coded_delivery_rate`] /
    /// [`analysis::coded_cost_bound`]). `None` (the default) is the
    /// paper's replica discipline, bit-identical to builds that predate
    /// this knob.
    pub code: Option<(u32, u32)>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            messages: 20,
            realizations: 10,
            seed: 0x0D10_57E5,
            intercontact_range: (1.0, 36.0),
            threads: 0,
            faults: FaultPlan::default(),
            keep_going: false,
            wire: false,
            code: None,
        }
    }
}

// Hand-written serde: the derived layout would emit `"code": null` on
// every replica-mode options object, silently changing all committed
// checkpoint fingerprints and result-cache keys. Emitting the field only
// when set keeps the replica-mode byte layout identical to builds that
// predate the knob, while deserialization accepts missing, `null`, or
// `[k, m]`.
impl Serialize for ExperimentOptions {
    fn to_value(&self) -> serde::Value {
        let mut fields: Vec<(String, serde::Value)> = vec![
            ("messages".into(), self.messages.to_value()),
            ("realizations".into(), self.realizations.to_value()),
            ("seed".into(), self.seed.to_value()),
            (
                "intercontact_range".into(),
                self.intercontact_range.to_value(),
            ),
            ("threads".into(), self.threads.to_value()),
            ("faults".into(), self.faults.to_value()),
            ("keep_going".into(), self.keep_going.to_value()),
            ("wire".into(), self.wire.to_value()),
        ];
        if let Some(code) = self.code {
            fields.push(("code".into(), code.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl<'de> Deserialize<'de> for ExperimentOptions {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        fn field<'a>(
            value: &'a serde::Value,
            name: &str,
        ) -> Result<&'a serde::Value, serde::DeError> {
            value.get(name).ok_or_else(|| {
                serde::DeError::new(format!("ExperimentOptions: missing field {name}"))
            })
        }
        let code = match value.get("code") {
            None | Some(serde::Value::Null) => None,
            Some(v) => Some(<(u32, u32)>::from_value(v)?),
        };
        Ok(ExperimentOptions {
            messages: usize::from_value(field(value, "messages")?)?,
            realizations: usize::from_value(field(value, "realizations")?)?,
            seed: u64::from_value(field(value, "seed")?)?,
            intercontact_range: <(f64, f64)>::from_value(field(value, "intercontact_range")?)?,
            threads: usize::from_value(field(value, "threads")?)?,
            faults: FaultPlan::from_value(field(value, "faults")?)?,
            keep_going: bool::from_value(field(value, "keep_going")?)?,
            wire: bool::from_value(field(value, "wire")?)?,
            code,
        })
    }
}

impl ExperimentOptions {
    /// A builder starting from [`ExperimentOptions::default`] (Table II
    /// workload: 20 messages, 10 realizations).
    pub fn builder() -> ExperimentOptionsBuilder {
        ExperimentOptionsBuilder {
            opts: ExperimentOptions::default(),
        }
    }

    /// A builder starting from this value — the `#[non_exhaustive]`
    /// replacement for struct-update syntax in downstream crates.
    pub fn into_builder(self) -> ExperimentOptionsBuilder {
        ExperimentOptionsBuilder { opts: self }
    }

    /// The runner configuration these options imply.
    pub fn runner(&self) -> RunnerConfig {
        RunnerConfig::new(self.threads)
    }
}

/// Builder for [`ExperimentOptions`]. Every setter defaults to the
/// [`ExperimentOptions::default`] value, so callers only spell the knobs
/// they change:
///
/// ```
/// use onion_routing::ExperimentOptions;
///
/// let opts = ExperimentOptions::builder().messages(5).realizations(3).build();
/// assert_eq!(opts.messages, 5);
/// assert_eq!(opts, ExperimentOptions::default().into_builder().messages(5).realizations(3).build());
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExperimentOptionsBuilder {
    opts: ExperimentOptions,
}

impl ExperimentOptionsBuilder {
    /// Messages injected per realization.
    pub fn messages(mut self, messages: usize) -> Self {
        self.opts.messages = messages;
        self
    }

    /// Independent realizations averaged per point.
    pub fn realizations(mut self, realizations: usize) -> Self {
        self.opts.realizations = realizations;
        self
    }

    /// Base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Mean inter-contact range of the random graphs.
    pub fn intercontact_range(mut self, range: (f64, f64)) -> Self {
        self.opts.intercontact_range = range;
        self
    }

    /// Worker threads for the realization fan-out; `0` auto-detects.
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Faults injected into every realization's simulation.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.opts.faults = faults;
        self
    }

    /// Tolerate quarantined trial failures instead of aborting.
    pub fn keep_going(mut self, keep_going: bool) -> Self {
        self.opts.keep_going = keep_going;
        self
    }

    /// Wire mode: move real constant-size ciphertext on every forward.
    pub fn wire(mut self, wire: bool) -> Self {
        self.opts.wire = wire;
        self
    }

    /// Erasure-coded k-of-m forwarding (`None` = replica discipline).
    pub fn code(mut self, code: Option<(u32, u32)>) -> Self {
        self.opts.code = code;
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> ExperimentOptions {
        self.opts
    }
}

/// Aggregated analysis-vs-simulation values for one parameter point.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PointSummary {
    /// Mean model-predicted delivery rate (Eqs. 6–7 on realized rates).
    pub analysis_delivery: f64,
    /// Simulated delivery rate.
    pub sim_delivery: f64,
    /// Expected traceable rate (exact run-length model).
    pub analysis_traceable: f64,
    /// Mean realized traceable rate over delivered paths (`None` if
    /// nothing was delivered).
    pub sim_traceable: Option<f64>,
    /// Model path anonymity (Eq. 19 with Eq. 15/20).
    pub analysis_anonymity: f64,
    /// Mean realized path anonymity.
    pub sim_anonymity: Option<f64>,
    /// Mean simulated transmissions per message.
    pub sim_transmissions: f64,
    /// The paper's transmission bound for these parameters.
    pub analysis_cost_bound: f64,
    /// Total messages injected across realizations.
    pub injected: usize,
    /// Total messages delivered across realizations.
    pub delivered: usize,
    /// Per-realization simulated delivery-rate distribution (streaming
    /// mean/variance/min/max across realizations) — error bars for
    /// `sim_delivery`.
    pub delivery_stats: StreamingStats,
    /// Engine event tallies summed over every realization. Deterministic
    /// integers (bit-identical across thread counts and telemetry
    /// settings), so they are safe inside the determinism-compared
    /// summary.
    pub sim_counters: SimCounters,
    /// Realizations quarantined after panicking on both attempts (only
    /// non-zero under [`ExperimentOptions::keep_going`]).
    pub trial_failures: u64,
}

/// Runs one random-graph data point.
///
/// # Panics
///
/// With the [`SweepRunError`]'s text if `cfg` or `opts` fail validation
/// (see [`SweepSpec::validate`](crate::SweepSpec::validate)) or, with
/// `keep_going` unset, when a realization is quarantined.
pub fn run_random_graph_point(cfg: &ProtocolConfig, opts: &ExperimentOptions) -> PointSummary {
    point(World::RandomGraph, cfg, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one trace-driven data point over `schedule` (synthetic or parsed
/// from a real Haggle file). Message transmissions start at a random
/// contact of the source; analysis rates are estimated from the trace.
///
/// # Panics
///
/// As [`run_random_graph_point`], and if `cfg.nodes` does not match the
/// schedule's node count.
pub fn run_schedule_point(
    schedule: &ContactSchedule,
    cfg: &ProtocolConfig,
    opts: &ExperimentOptions,
) -> PointSummary {
    point(World::Schedule(schedule, None), cfg, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one data point on sparse proximity worlds: each realization
/// samples a Poisson proximity graph
/// ([`contact_graph::SparseContacts::poisson_proximity`]) with
/// `sparse.avg_degree` expected neighbors per node, streams its contacts
/// lazily through a [`dtn_sim::CalendarQueue`], and simulates via
/// [`dtn_sim::run_stream`] — so memory is `O(nodes + active pairs)`
/// instead of the dense `O(nodes²)`, and `n = 10⁵–10⁶` points fit in a
/// CI container.
///
/// The analysis series evaluates Eq. 4 on the same sparse realization
/// (the model's rates *are* the world's rates). Randomness comes from
/// the dedicated `SeedDomain::SparseRealization` (world, workload,
/// groups, adversary) and `SeedDomain::SparseContacts` (calendar
/// arrivals) streams, so dense-mode results are untouched and sparse
/// results are bit-identical for every thread count.
///
/// # Panics
///
/// As [`run_random_graph_point`], and if `sparse.avg_degree` is not
/// positive and finite.
pub fn run_sparse_point(
    cfg: &ProtocolConfig,
    sparse: &SparseScenario,
    opts: &ExperimentOptions,
) -> PointSummary {
    point(World::Sparse(sparse), cfg, opts).unwrap_or_else(|e| panic!("{e}"))
}

/// One point on `world`: the body of every `run_*_point`, of the point
/// axis and of every fault and code sweep row.
pub(crate) fn point(
    world: World<'_>,
    cfg: &ProtocolConfig,
    opts: &ExperimentOptions,
) -> Result<PointSummary, SweepRunError> {
    check_world(world, cfg, opts).map_err(SweepRunError::Invalid)?;
    let (acc, failures) = trial::run(world, cfg, opts, &PointScorer)?;
    Ok(PointSummary {
        trial_failures: failures,
        ..acc.finish(cfg, opts.code)
    })
}

/// The point scorer: every series of a [`PointSummary`], with one
/// adversary draw per trial.
pub(crate) struct PointScorer;

/// Accumulates per-realization results. Mergeable: the parallel runner
/// folds one `Accumulator` per realization into the final one in trial
/// order.
#[derive(Default)]
pub(crate) struct Accumulator {
    /// Per-message model-predicted delivery probability (Eq. 6/7).
    analysis_delivery: StreamingStats,
    /// Per-realization simulated delivery rate.
    realization_delivery: StreamingStats,
    injected: usize,
    delivered: usize,
    trace_sum: f64,
    trace_count: usize,
    anon_sum: f64,
    anon_count: usize,
    tx_sum: f64,
    tx_count: usize,
    counters: SimCounters,
}

impl Scorer for PointScorer {
    type Partial = Accumulator;

    fn empty(&self) -> Accumulator {
        Accumulator::default()
    }

    /// The analysis series on the trial's own rate model (per-message
    /// Eq. 4 rates; in coded mode the k-of-m order statistic averaged
    /// over the `m` fragment routes, a routeless or degenerate fragment
    /// scoring zero), the simulation series, and one adversary draw.
    fn score<M: ContactModel + ?Sized>(
        &self,
        t: &Trial<'_, M>,
        rng: &mut ChaCha8Rng,
    ) -> Accumulator {
        let (cfg, report, deadline) = (t.cfg, t.report, t.cfg.deadline.as_f64());
        let mut acc = Accumulator::default();
        for msg in t.messages {
            match t.code {
                Some((k, m)) => {
                    let mut sum = 0.0;
                    for idx in 0..m {
                        let fid = fragment_id(msg.id, idx);
                        if let Some(Some(rates)) = path_rates(t, fid, msg) {
                            sum += analysis::coded_delivery_rate(&rates, k, m, deadline)
                                .unwrap_or(0.0);
                        }
                    }
                    acc.analysis_delivery.push(sum / m as f64);
                }
                None => {
                    if let Some(rates) = path_rates(t, msg.id, msg) {
                        acc.analysis_delivery.push(rates.map_or(0.0, |rates| {
                            analysis::delivery_rate_multicopy(&rates, cfg.copies, deadline)
                                .unwrap_or(0.0)
                        }));
                    }
                }
            }
        }

        if let Some(c) = report.counters() {
            acc.counters.merge(c);
        }
        acc.injected += report.injected_count();
        acc.delivered += report.delivered_count();
        acc.realization_delivery.push(report.delivery_rate());
        acc.tx_sum += report.mean_transmissions() * report.injected_count() as f64;
        acc.tx_count += report.injected_count();

        let adversary = Adversary::random(cfg.nodes, cfg.compromised, rng);
        if let Some(t) = metrics::mean_traceable_rate(report, &adversary) {
            acc.trace_sum += t * report.delivered_count() as f64;
            acc.trace_count += report.delivered_count();
        }
        if let Some(a) =
            metrics::mean_path_anonymity(report, &adversary, cfg.nodes, cfg.group_size, cfg.eta())
        {
            acc.anon_sum += a * report.injected_count() as f64;
            acc.anon_count += report.injected_count();
        }
        acc
    }

    fn merge(total: &mut Accumulator, other: &Accumulator) {
        total.analysis_delivery.merge(&other.analysis_delivery);
        total
            .realization_delivery
            .merge(&other.realization_delivery);
        total.injected += other.injected;
        total.delivered += other.delivered;
        total.trace_sum += other.trace_sum;
        total.trace_count += other.trace_count;
        total.anon_sum += other.anon_sum;
        total.anon_count += other.anon_count;
        total.tx_sum += other.tx_sum;
        total.tx_count += other.tx_count;
        total.counters.merge(&other.counters);
    }
}

impl Accumulator {
    fn finish(self, cfg: &ProtocolConfig, code: Option<(u32, u32)>) -> PointSummary {
        let analysis_traceable =
            analysis::expected_traceable_rate(cfg.eta(), cfg.compromise_probability())
                .expect("validated parameters");
        // Coded mode moves `m` independently routed single-copy fragments
        // per message, so the Eq. 19 model is evaluated at `L = m` (at
        // `k = 1, m = L` this is exactly the replica column) and the cost
        // bound switches to the per-delivered-equivalent `(K + 2)·m/k`.
        let analysis_anonymity = analysis::path_anonymity(
            cfg.nodes,
            cfg.group_size,
            cfg.onions,
            cfg.compromised,
            code.map_or(cfg.copies, |(_, m)| m),
        )
        .expect("validated parameters");
        let analysis_cost_bound = match code {
            Some((k, m)) => {
                analysis::coded_cost_bound(cfg.onions, k, m).expect("engine-validated k <= m")
            }
            None if cfg.copies == 1 => analysis::single_copy_cost(cfg.onions) as f64,
            None => analysis::multi_copy_bound(cfg.onions, cfg.copies).expect("L > 0") as f64,
        };
        PointSummary {
            analysis_delivery: self.analysis_delivery.mean().unwrap_or(0.0),
            sim_delivery: ratio(self.delivered as f64, self.injected).unwrap_or(0.0),
            analysis_traceable,
            sim_traceable: ratio(self.trace_sum, self.trace_count),
            analysis_anonymity,
            sim_anonymity: ratio(self.anon_sum, self.anon_count),
            sim_transmissions: ratio(self.tx_sum, self.tx_count).unwrap_or(0.0),
            analysis_cost_bound,
            injected: self.injected,
            delivered: self.delivered,
            delivery_stats: self.realization_delivery,
            sim_counters: self.counters,
            trial_failures: 0,
        }
    }
}

/// The Eq. 4 rates of the route the trial's protocol drew for `id`
/// (`msg` itself or one of its fragments) on the trial's rate model (any
/// [`ContactModel`] — dense or sparse): `None` when `id` has no route,
/// `Some(None)` for a degenerate path — an endpoint-filtered group with
/// no members left, a rate-computation error, or a non-positive hop
/// rate — which both scorers count as a flat zero.
fn path_rates<M: ContactModel + ?Sized>(
    t: &Trial<'_, M>,
    id: MessageId,
    msg: &Message,
) -> Option<Option<Vec<f64>>> {
    let route = t.protocol.route_of(id)?;
    let (source, destination) = (msg.source, msg.destination);
    let members: Vec<Vec<NodeId>> = t
        .protocol
        .groups()
        .route_members(route)
        .into_iter()
        .map(|g| {
            g.into_iter()
                .filter(|&v| v != source && v != destination)
                .collect::<Vec<_>>()
        })
        .collect();
    if members.iter().any(|g| g.is_empty()) {
        return Some(None);
    }
    match analysis::onion_path_rates(t.rates, source, &members, destination) {
        Ok(rates) if rates.iter().all(|&r| r > 0.0) => Some(Some(rates)),
        _ => Some(None),
    }
}

/// One row of a delivery-rate-vs-deadline sweep (Figs. 4, 5, 10, 14, 17).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeliverySweepRow {
    /// Deadline `T`.
    pub deadline: f64,
    /// Model value (Eq. 6/7 averaged over realizations).
    pub analysis: f64,
    /// Simulated delivery rate.
    pub sim: f64,
}

/// One row of a security sweep over the compromised-node count
/// (Figs. 6, 8, 12, 15, 16, 18, 19).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SecuritySweepRow {
    /// Number of compromised nodes `c`.
    pub compromised: usize,
    /// Expected traceable rate (run-length model).
    pub analysis_traceable: f64,
    /// Mean realized traceable rate over delivered paths.
    pub sim_traceable: Option<f64>,
    /// Model path anonymity (Eq. 19).
    pub analysis_anonymity: f64,
    /// Mean realized path anonymity.
    pub sim_anonymity: Option<f64>,
}

/// The deadline-axis scorer: delivery within every deadline of the grid
/// from one run at its maximum.
pub(crate) struct DeadlineScorer<'a>(pub(crate) &'a [f64]);

/// Per-realization partial of a delivery sweep; merged index-wise in
/// trial order.
pub(crate) struct DeliveryPartial {
    sim_hits: Vec<usize>,
    analysis_sum: Vec<f64>,
    injected: usize,
    analysis_count: usize,
}

impl Scorer for DeadlineScorer<'_> {
    type Partial = DeliveryPartial;
    const AXIS: Option<&'static str> = Some("delivery");

    fn empty(&self) -> DeliveryPartial {
        DeliveryPartial {
            sim_hits: vec![0; self.0.len()],
            analysis_sum: vec![0.0; self.0.len()],
            injected: 0,
            analysis_count: 0,
        }
    }

    /// Scores one realization's simulation + analysis series against
    /// every deadline of the sweep. In coded mode the analysis value at
    /// each deadline is the k-of-m order statistic averaged over the
    /// message's `m` fragment routes.
    fn score<M: ContactModel + ?Sized>(
        &self,
        t: &Trial<'_, M>,
        _rng: &mut ChaCha8Rng,
    ) -> DeliveryPartial {
        let deadlines = self.0;
        let mut p = self.empty();
        p.injected = t.messages.len();
        for msg in t.messages {
            // Simulation: delivery within each deadline (coded reports
            // key delivery by the parent message, so this is mode-blind).
            if let Some(delay) = t.report.delivery_delay(msg.id) {
                for (i, &deadline) in deadlines.iter().enumerate() {
                    if delay.as_f64() <= deadline {
                        p.sim_hits[i] += 1;
                    }
                }
            }
            match t.code {
                Some((k, m)) => {
                    p.analysis_count += 1;
                    for idx in 0..m {
                        if let Some(Some(rates)) = path_rates(t, fragment_id(msg.id, idx), msg) {
                            for (i, &deadline) in deadlines.iter().enumerate() {
                                p.analysis_sum[i] +=
                                    analysis::coded_delivery_rate(&rates, k, m, deadline)
                                        .unwrap_or(0.0)
                                        / m as f64;
                            }
                        }
                    }
                }
                // Analysis: Eq. 4 rates → hypoexponential CDF at each T.
                None => {
                    if let Some(rates) = path_rates(t, msg.id, msg) {
                        p.analysis_count += 1;
                        if let Some(rates) = rates {
                            let boosted: Vec<f64> =
                                rates.iter().map(|&r| r * t.cfg.copies as f64).collect();
                            if let Ok(h) = analysis::HypoExp::new(boosted) {
                                for (i, &deadline) in deadlines.iter().enumerate() {
                                    p.analysis_sum[i] += h.cdf(deadline);
                                }
                            }
                        }
                    }
                }
            }
        }
        p
    }

    fn merge(total: &mut DeliveryPartial, other: &DeliveryPartial) {
        add_into(&mut total.sim_hits, &other.sim_hits);
        add_into(&mut total.analysis_sum, &other.analysis_sum);
        total.injected += other.injected;
        total.analysis_count += other.analysis_count;
    }
}

impl DeliveryPartial {
    pub(crate) fn rows(&self, deadlines: &[f64]) -> Vec<DeliverySweepRow> {
        deadlines
            .iter()
            .enumerate()
            .map(|(i, &t)| DeliverySweepRow {
                deadline: t,
                analysis: ratio(self.analysis_sum[i], self.analysis_count).unwrap_or(0.0),
                sim: ratio(self.sim_hits[i] as f64, self.injected).unwrap_or(0.0),
            })
            .collect()
    }
}

/// The security-axis scorer: `adversary_draws` compromise sets per `c`
/// against each realization's report.
pub(crate) struct SecurityScorer<'a>(pub(crate) &'a SecurityAxis);

/// Per-realization partial of a security sweep: per-`c` weighted sums.
pub(crate) struct SecurityPartial {
    trace_sum: Vec<f64>,
    trace_count: Vec<usize>,
    anon_sum: Vec<f64>,
    anon_count: Vec<usize>,
}

impl Scorer for SecurityScorer<'_> {
    type Partial = SecurityPartial;
    const AXIS: Option<&'static str> = Some("security");

    fn empty(&self) -> SecurityPartial {
        let points = self.0.compromised.len();
        SecurityPartial {
            trace_sum: vec![0.0; points],
            trace_count: vec![0; points],
            anon_sum: vec![0.0; points],
            anon_count: vec![0; points],
        }
    }

    fn score<M: ContactModel + ?Sized>(
        &self,
        t: &Trial<'_, M>,
        rng: &mut ChaCha8Rng,
    ) -> SecurityPartial {
        let (cfg, report) = (t.cfg, t.report);
        let mut p = self.empty();
        for (i, &c) in self.0.compromised.iter().enumerate() {
            for _ in 0..self.0.adversary_draws.max(1) {
                let adversary = Adversary::random(cfg.nodes, c, rng);
                if let Some(t) = metrics::mean_traceable_rate(report, &adversary) {
                    p.trace_sum[i] += t;
                    p.trace_count[i] += 1;
                }
                if let Some(a) = metrics::mean_path_anonymity(
                    report,
                    &adversary,
                    cfg.nodes,
                    cfg.group_size,
                    cfg.eta(),
                ) {
                    p.anon_sum[i] += a;
                    p.anon_count[i] += 1;
                }
            }
        }
        p
    }

    fn merge(total: &mut SecurityPartial, other: &SecurityPartial) {
        add_into(&mut total.trace_sum, &other.trace_sum);
        add_into(&mut total.trace_count, &other.trace_count);
        add_into(&mut total.anon_sum, &other.anon_sum);
        add_into(&mut total.anon_count, &other.anon_count);
    }
}

impl SecurityPartial {
    pub(crate) fn rows(&self, cfg: &ProtocolConfig, cs: &[usize]) -> Vec<SecuritySweepRow> {
        cs.iter()
            .enumerate()
            .map(|(i, &c)| SecuritySweepRow {
                compromised: c,
                analysis_traceable: analysis::expected_traceable_rate(
                    cfg.eta(),
                    c as f64 / cfg.nodes as f64,
                )
                .expect("validated"),
                sim_traceable: ratio(self.trace_sum[i], self.trace_count[i]),
                analysis_anonymity: analysis::path_anonymity(
                    cfg.nodes,
                    cfg.group_size,
                    cfg.onions,
                    c,
                    cfg.copies,
                )
                .expect("validated"),
                sim_anonymity: ratio(self.anon_sum[i], self.anon_count[i]),
            })
            .collect()
    }
}

/// `sum / count`, or `None` when nothing was counted.
fn ratio(sum: f64, count: usize) -> Option<f64> {
    (count > 0).then(|| sum / count as f64)
}

/// Adds `other` into `total` index-wise.
fn add_into<T: Copy + std::ops::AddAssign>(total: &mut [T], other: &[T]) {
    for (a, &b) in total.iter_mut().zip(other) {
        *a += b;
    }
}

/// One row of a fault-intensity sweep: the full paired analysis/simulation
/// point summary observed at a given scaling of the base fault plan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepRow {
    /// Multiplier applied to the base [`FaultPlan`] (0.0 = fault-free).
    pub intensity: f64,
    /// The fault plan actually injected at this intensity.
    pub plan: FaultPlan,
    /// Full point summary under that plan.
    pub summary: PointSummary,
}

/// One row of a (k, m) code-rate sweep: the full paired
/// analysis/simulation point summary observed under erasure-coded
/// k-of-m forwarding.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CodeSweepRow {
    /// Fragments required to reconstruct the message.
    pub k: u32,
    /// Fragments injected per message.
    pub m: u32,
    /// Full point summary under the `(k, m)` code.
    pub summary: PointSummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepSpec;
    use contact_graph::{Time, TimeDelta, UniformGraphBuilder};
    use rand::SeedableRng;

    fn quick_opts() -> ExperimentOptions {
        ExperimentOptions {
            messages: 10,
            realizations: 3,
            seed: 7,
            intercontact_range: (1.0, 36.0),
            threads: 0,
            faults: FaultPlan::default(),
            keep_going: false,
            wire: false,
            code: None,
        }
    }

    #[test]
    fn table2_point_runs_and_is_consistent() {
        let cfg = ProtocolConfig {
            deadline: TimeDelta::new(360.0),
            ..ProtocolConfig::table2_defaults()
        };
        let point = run_random_graph_point(&cfg, &quick_opts());
        assert_eq!(point.injected, 30);
        assert!(point.sim_delivery > 0.3, "sim {}", point.sim_delivery);
        assert!(point.analysis_delivery > 0.3);
        // Analysis and simulation agree to first order (paper's headline
        // claim); allow generous slack at this tiny sample size.
        assert!(
            (point.analysis_delivery - point.sim_delivery).abs() < 0.3,
            "analysis {} vs sim {}",
            point.analysis_delivery,
            point.sim_delivery
        );
        assert!((0.0..=1.0).contains(&point.analysis_anonymity));
        assert!(point.sim_anonymity.is_some());
        // Single-copy cost is at most K + 1.
        assert!(point.sim_transmissions <= point.analysis_cost_bound + 1e-9);
        // Per-realization stats cover every realization and bracket the
        // pooled rate.
        assert_eq!(point.delivery_stats.count(), 3);
        let (lo, hi) = (
            point.delivery_stats.min().unwrap(),
            point.delivery_stats.max().unwrap(),
        );
        assert!(lo <= point.sim_delivery && point.sim_delivery <= hi);
    }

    #[test]
    fn delivery_increases_with_deadline() {
        let opts = quick_opts();
        let mut last_sim = -1.0;
        let mut last_analysis = -1.0;
        for t in [60.0, 360.0, 1080.0] {
            let cfg = ProtocolConfig {
                deadline: TimeDelta::new(t),
                ..ProtocolConfig::table2_defaults()
            };
            let p = run_random_graph_point(&cfg, &opts);
            assert!(p.sim_delivery >= last_sim - 0.05, "T = {t}");
            assert!(p.analysis_delivery >= last_analysis - 1e-9, "T = {t}");
            last_sim = p.sim_delivery;
            last_analysis = p.analysis_delivery;
        }
    }

    #[test]
    fn multicopy_point_respects_cost_bound() {
        let cfg = ProtocolConfig {
            copies: 3,
            deadline: TimeDelta::new(360.0),
            ..ProtocolConfig::table2_defaults()
        };
        let p = run_random_graph_point(&cfg, &quick_opts());
        assert!(p.sim_transmissions <= p.analysis_cost_bound);
        assert!(p.sim_delivery > 0.0);
    }

    #[test]
    fn schedule_point_on_synthetic_trace() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let graph = UniformGraphBuilder::new(30).build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(600.0), &mut rng);
        let cfg = ProtocolConfig {
            nodes: 30,
            group_size: 3,
            onions: 2,
            deadline: TimeDelta::new(300.0),
            compromised: 3,
            ..ProtocolConfig::table2_defaults()
        };
        let p = run_schedule_point(&schedule, &cfg, &quick_opts());
        assert!(p.injected > 0);
        assert!(p.sim_delivery > 0.0);
        assert!((0.0..=1.0).contains(&p.analysis_delivery));
    }

    #[test]
    #[should_panic(expected = "match the trace")]
    fn schedule_point_validates_node_count() {
        let schedule = ContactSchedule::from_events(vec![], 5, Time::new(1.0));
        let cfg = ProtocolConfig::table2_defaults();
        let _ = run_schedule_point(&schedule, &cfg, &quick_opts());
    }

    #[test]
    fn delivery_sweep_is_monotone_and_consistent() {
        let cfg = ProtocolConfig::table2_defaults();
        let deadlines = [60.0, 180.0, 360.0, 720.0, 1080.0];
        let rows = SweepSpec::random_graph(cfg)
            .over_deadlines(&deadlines)
            .run(&quick_opts())
            .into_delivery()
            .expect("deadline axis yields delivery rows");
        assert_eq!(rows.len(), deadlines.len());
        for pair in rows.windows(2) {
            assert!(pair[1].sim >= pair[0].sim - 1e-12);
            assert!(pair[1].analysis >= pair[0].analysis - 1e-12);
        }
        // The sweep at max deadline matches a direct point run closely in
        // the analysis series (same model, same realizations).
        assert!(rows.last().unwrap().analysis > 0.5);
        assert!(rows.last().unwrap().sim > 0.5);
    }

    #[test]
    fn security_sweep_trends() {
        let cfg = ProtocolConfig {
            deadline: TimeDelta::new(1080.0),
            ..ProtocolConfig::table2_defaults()
        };
        let cs = [0usize, 10, 30, 50];
        let rows = SweepSpec::random_graph(cfg)
            .over_security(&cs, 2)
            .run(&quick_opts())
            .into_security()
            .expect("security axis yields security rows");
        assert_eq!(rows.len(), 4);
        // Traceable rate rises with c; anonymity falls.
        for pair in rows.windows(2) {
            assert!(pair[1].analysis_traceable >= pair[0].analysis_traceable);
            assert!(pair[1].analysis_anonymity <= pair[0].analysis_anonymity);
            if let (Some(a), Some(b)) = (pair[0].sim_traceable, pair[1].sim_traceable) {
                assert!(b >= a - 0.1, "sim traceable should trend up: {a} -> {b}");
            }
            if let (Some(a), Some(b)) = (pair[0].sim_anonymity, pair[1].sim_anonymity) {
                assert!(b <= a + 0.1, "sim anonymity should trend down: {a} -> {b}");
            }
        }
        // c = 0: nothing traceable, full anonymity.
        assert_eq!(rows[0].sim_traceable, Some(0.0));
        assert_eq!(rows[0].sim_anonymity, Some(1.0));
    }

    #[test]
    fn schedule_sweeps_run_on_synthetic_trace() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let graph = UniformGraphBuilder::new(24).build(&mut rng);
        let schedule = ContactSchedule::sample(&graph, Time::new(400.0), &mut rng);
        let cfg = ProtocolConfig {
            nodes: 24,
            group_size: 3,
            onions: 2,
            compromised: 2,
            deadline: TimeDelta::new(200.0),
            ..ProtocolConfig::table2_defaults()
        };
        let rows = SweepSpec::schedule(cfg.clone(), schedule.clone())
            .over_deadlines(&[50.0, 200.0])
            .run(&quick_opts())
            .into_delivery()
            .expect("deadline axis yields delivery rows");
        assert!(rows[1].sim >= rows[0].sim);
        let sec = SweepSpec::schedule(cfg, schedule)
            .over_security(&[0, 6], 2)
            .run(&quick_opts())
            .into_security()
            .expect("security axis yields security rows");
        assert!(sec[1].analysis_anonymity < sec[0].analysis_anonymity);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cfg = ProtocolConfig {
            deadline: TimeDelta::new(360.0),
            ..ProtocolConfig::table2_defaults()
        };
        let base = quick_opts();
        let serial = run_random_graph_point(
            &cfg,
            &ExperimentOptions {
                threads: 1,
                ..base.clone()
            },
        );
        for threads in [2, 8] {
            let parallel = run_random_graph_point(
                &cfg,
                &ExperimentOptions {
                    threads,
                    ..base.clone()
                },
            );
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn sparse_point_runs_and_is_consistent() {
        // Sparse worlds only ever connect sampled neighbor pairs, so a
        // robust delivery floor needs short routes, large groups, and a
        // few copies: P(hop possible) stays near 1 at degree ~30.
        let cfg = ProtocolConfig {
            nodes: 200,
            group_size: 10,
            onions: 1,
            copies: 3,
            compromised: 10,
            deadline: TimeDelta::new(1080.0),
            ..ProtocolConfig::table2_defaults()
        };
        let sparse = SparseScenario { avg_degree: 30.0 };
        let p = run_sparse_point(&cfg, &sparse, &quick_opts());
        assert_eq!(p.injected, 30);
        assert!(p.delivered > 0, "sparse world should deliver something");
        assert!((0.0..=1.0).contains(&p.analysis_delivery));
        assert!((0.0..=1.0).contains(&p.analysis_anonymity));
        assert!(p.sim_transmissions >= 0.0);
        assert_eq!(p.delivery_stats.count(), 3);
    }

    #[test]
    fn sparse_point_thread_count_does_not_change_results() {
        let cfg = ProtocolConfig {
            nodes: 200,
            group_size: 4,
            onions: 2,
            compromised: 10,
            deadline: TimeDelta::new(720.0),
            ..ProtocolConfig::table2_defaults()
        };
        let sparse = SparseScenario { avg_degree: 10.0 };
        let base = quick_opts();
        let serial = run_sparse_point(
            &cfg,
            &sparse,
            &ExperimentOptions {
                threads: 1,
                ..base.clone()
            },
        );
        for threads in [2, 8] {
            let parallel = run_sparse_point(
                &cfg,
                &sparse,
                &ExperimentOptions {
                    threads,
                    ..base.clone()
                },
            );
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn options_builder_matches_literal_and_default() {
        assert_eq!(
            ExperimentOptions::builder().build(),
            ExperimentOptions::default()
        );
        let built = ExperimentOptions::builder()
            .messages(10)
            .realizations(3)
            .seed(7)
            .intercontact_range((1.0, 36.0))
            .threads(0)
            .faults(FaultPlan::default())
            .keep_going(false)
            .wire(false)
            .code(None)
            .build();
        assert_eq!(built, quick_opts());
        let rebuilt = quick_opts().into_builder().seed(9).build();
        assert_eq!(rebuilt.seed, 9);
        assert_eq!(rebuilt.messages, 10);
    }
}
