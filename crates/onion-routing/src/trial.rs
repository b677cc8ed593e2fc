//! The one Monte-Carlo trial behind every point and sweep.
//!
//! A trial realizes a contact [`World`], routes onion messages through
//! the engine, and hands the finished run to a [`Scorer`]: the point
//! accumulator, the deadline axis's per-deadline sums, or the security
//! axis's per-`c` adversary draws. [`run`] fans the trials across the
//! resilient runner and folds them in trial order; a trial quarantined
//! after its retry stops the run with [`SweepRunError::Quarantined`]
//! unless the options keep going.
//!
//! Each trial's main stream comes from one [`SeedDomain`] per world and
//! scorer, fixed forever because every published number depends on it:
//!
//! | world | point and deadline axis | security axis |
//! |---|---|---|
//! | random graph | `GraphRealization` | `SecurityGraph` |
//! | schedule, trace | `ScheduleRealization` + `ScheduleStarts` | `SecuritySchedule` + `SecurityStarts` |
//! | sparse | `SparseRealization` + `SparseContacts` | same as point |
//!
//! Every trial also derives `Faults`, and `Wire` / `Codec` when the
//! options ask for them. The main stream draws, in order: the world,
//! the messages, the group partition, the engine run, and then the
//! scorer's adversaries. The horizon is `cfg.deadline`; a schedule
//! replays over its own horizon.

use std::time::Instant;

use contact_graph::{
    ContactEvent, ContactGraph, ContactModel, ContactSchedule, SampledContacts, SparseContacts,
    Time, TimeDelta, UniformGraphBuilder,
};
use dtn_sim::{
    random_contact_time, run_stream, CalendarQueue, CopyMode, Message, SimConfig, SimReport,
    WorkloadBuilder,
};
use rand_chacha::ChaCha8Rng;

use crate::config::ProtocolConfig;
use crate::experiment::ExperimentOptions;
use crate::groups::OnionGroups;
use crate::protocol::{ForwardingMode, OnionRouting};
use crate::runner::{run_trials_resilient, trial_rng_attempt, SeedDomain};
use crate::sweep::{SparseScenario, SweepRunError};

/// Where a run's contacts come from, borrowed for the run.
#[derive(Clone, Copy)]
pub(crate) enum World<'a> {
    /// A Table II random graph and its sampled contacts, fresh per
    /// trial, streamed in time order through [`SampledContacts::events`].
    RandomGraph,
    /// A fixed schedule replayed by every trial, scored against trained
    /// rates, or (`None`) rates estimated from the schedule once per run.
    Schedule(&'a ContactSchedule, Option<&'a ContactGraph>),
    /// A sparse proximity world per trial, streamed through a
    /// [`CalendarQueue`].
    Sparse(&'a SparseScenario),
}

impl World<'_> {
    /// The world's part of a point or sweep label.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            World::RandomGraph => "random_graph",
            World::Schedule(..) => "schedule",
            World::Sparse(_) => "sparse",
        }
    }

    /// The trial's main stream and its second one: message starts on a
    /// schedule, calendar arrivals in a sparse world.
    fn domains(&self, security: bool) -> (SeedDomain, SeedDomain) {
        use SeedDomain::*;
        match (self, security) {
            (World::RandomGraph, false) => (GraphRealization, GraphRealization),
            (World::RandomGraph, true) => (SecurityGraph, SecurityGraph),
            (World::Schedule(..), false) => (ScheduleRealization, ScheduleStarts),
            (World::Schedule(..), true) => (SecuritySchedule, SecurityStarts),
            (World::Sparse(_), _) => (SparseRealization, SparseContacts),
        }
    }
}

/// What one finished trial leaves for its scorer.
pub(crate) struct Trial<'a, M: ?Sized> {
    /// The run's config (a deadline sweep's carries the grid maximum).
    pub(crate) cfg: &'a ProtocolConfig,
    /// The analysis rate model: the realized world or the schedule's rates.
    pub(crate) rates: &'a M,
    /// The injected messages.
    pub(crate) messages: &'a [Message],
    /// The protocol after the run (routes, groups).
    pub(crate) protocol: &'a OnionRouting,
    /// The engine's report.
    pub(crate) report: &'a SimReport,
    /// The erasure code, when coded forwarding is on.
    pub(crate) code: Option<(u32, u32)>,
}

/// Folds finished trials into one axis's result.
pub(crate) trait Scorer: Sync {
    /// One trial's contribution, folded in trial order.
    type Partial: Send;
    /// The sweep axis scored, naming the metrics point
    /// `<axis>_sweep_<world>`; `None` scores a point (`<world>_point`).
    /// The `security` axis draws from the security seed domains.
    const AXIS: Option<&'static str> = None;
    /// The empty fold.
    fn empty(&self) -> Self::Partial;
    /// Scores one trial; adversaries are drawn from `rng`, the trial's
    /// main stream, after the engine run.
    fn score<M: ContactModel + ?Sized>(
        &self,
        trial: &Trial<'_, M>,
        rng: &mut ChaCha8Rng,
    ) -> Self::Partial;
    /// Folds one trial's partial into the total.
    fn merge(total: &mut Self::Partial, partial: &Self::Partial);
}

/// The timer every sweep runs under.
pub(crate) const SWEEP_SPAN: &str = "experiment.sweep_secs";

/// Runs `opts.realizations` trials of `world` under `scorer`, timed and
/// flushed as one metrics point, and returns the folded total with the
/// count of tolerated quarantined trials. Each quarantined trial is
/// logged once, under the run's label.
///
/// # Errors
///
/// [`SweepRunError::Quarantined`] when a trial is quarantined and
/// `keep_going` is unset.
pub(crate) fn run<S: Scorer>(
    world: World<'_>,
    cfg: &ProtocolConfig,
    opts: &ExperimentOptions,
    scorer: &S,
) -> Result<(S::Partial, u64), SweepRunError> {
    let (label, span) = match S::AXIS {
        None => (format!("{}_point", world.label()), "experiment.point_secs"),
        Some(axis) => (format!("{axis}_sweep_{}", world.label()), SWEEP_SPAN),
    };
    let span = obs::span(span);
    let estimated = match world {
        World::Schedule(schedule, None) => Some(schedule.estimate_rates()),
        _ => None,
    };
    let mut total = scorer.empty();
    let failures = run_trials_resilient(
        &opts.runner(),
        opts.realizations,
        |trial, attempt| {
            let trial = trial as u64;
            let ctx = Ctx {
                cfg,
                opts,
                scorer,
                trial,
                attempt,
            };
            ctx.realize(world, estimated.as_ref())
        },
        &mut total,
        |total, _realization, partial| S::merge(total, &partial),
    );
    drop(span);
    obs::flush_point(&label);
    for f in &failures {
        obs::error!(
            "onion_routing::experiment",
            "{label}: trial {} quarantined after {} attempts: {}",
            f.trial,
            f.attempts,
            f.message,
        );
    }
    if failures.is_empty() || opts.keep_going {
        return Ok((total, failures.len() as u64));
    }
    Err(SweepRunError::Quarantined { label, failures })
}

/// One `(trial, attempt)` of a run.
struct Ctx<'a, S> {
    cfg: &'a ProtocolConfig,
    opts: &'a ExperimentOptions,
    scorer: &'a S,
    trial: u64,
    attempt: u32,
}

impl<S: Scorer> Ctx<'_, S> {
    fn rng(&self, domain: SeedDomain) -> ChaCha8Rng {
        trial_rng_attempt(self.opts.seed, domain, self.trial, self.attempt)
    }

    /// Realizes the world and the messages, then drives the engine.
    fn realize(&self, world: World<'_>, estimated: Option<&ContactGraph>) -> S::Partial {
        let (cfg, opts) = (self.cfg, self.opts);
        let horizon = Time::ZERO + cfg.deadline;
        let (lo, hi) = opts.intercontact_range;
        let range = (TimeDelta::new(lo), TimeDelta::new(hi));
        let (main, aux) = world.domains(S::AXIS == Some("security"));
        let mut rng = self.rng(main);
        let workload = WorkloadBuilder::new(opts.messages, cfg.deadline).copies(cfg.copies);
        // Timing is gated so disabled telemetry skips the clock.
        let clock = obs::metrics_enabled().then(Instant::now);
        let partial = match world {
            World::RandomGraph => {
                let graph = UniformGraphBuilder::new(cfg.nodes)
                    .mean_intercontact_range(range.0, range.1)
                    .build(&mut rng);
                let clock = lap(clock, "trial.world_secs");
                let contacts = SampledContacts::sample(&graph, horizon, &mut rng);
                let clock = lap(clock, "trial.draw_secs");
                if clock.is_some() {
                    obs::gauge_max("dense.contacts_bytes_hwm", contacts.approx_bytes() as i64);
                }
                let messages = workload.build(cfg.nodes, &mut rng);
                let events = || contacts.events();
                self.drive(&graph, horizon, events, messages, clock, &mut rng)
            }
            World::Schedule(schedule, trained) => {
                // The paper's "business hours": each message starts at a
                // random contact of its source, drawn from the aux stream.
                let mut start_rng = self.rng(aux);
                let start = |source| random_contact_time(schedule, source, &mut start_rng);
                let messages = workload.build_with_starts(cfg.nodes, start, &mut rng);
                let rates = trained
                    .or(estimated)
                    .expect("run estimates untrained rates");
                let events = || schedule.iter().copied();
                self.drive(rates, schedule.horizon(), events, messages, clock, &mut rng)
            }
            World::Sparse(sparse) => {
                let contacts = SparseContacts::poisson_proximity(
                    cfg.nodes,
                    sparse.avg_degree,
                    range,
                    &mut rng,
                );
                let clock = lap(clock, "trial.world_secs");
                let messages = workload.build(cfg.nodes, &mut rng);
                let queue = || {
                    let queue = CalendarQueue::from_sparse(&contacts, horizon, self.rng(aux));
                    obs::gauge_max("sparse.world_bytes_hwm", contacts.approx_bytes() as i64);
                    obs::gauge_max("sparse.calendar_bytes_hwm", queue.approx_bytes() as i64);
                    queue
                };
                self.drive(&contacts, horizon, queue, messages, clock, &mut rng)
            }
        };
        maybe_forced_panic(self.trial);
        partial
    }

    /// Partitions the groups, builds the protocol, then the contact
    /// events, runs the engine over them and scores the run against
    /// `rates`. `setup` started when the trial's messages did.
    fn drive<M: ContactModel + ?Sized, I: IntoIterator<Item = ContactEvent>>(
        &self,
        rates: &M,
        horizon: Time,
        events: impl FnOnce() -> I,
        messages: Vec<Message>,
        setup: Option<Instant>,
        rng: &mut ChaCha8Rng,
    ) -> S::Partial {
        let (cfg, opts) = (self.cfg, self.opts);
        let groups = OnionGroups::random_partition(cfg.nodes, cfg.group_size, rng);
        // Coded fragments are single-copy by construction (the engine
        // expands each message into `m` one-copy fragments), whatever
        // `cfg.copies` says.
        let mode = if opts.code.is_some() || cfg.copies == 1 {
            ForwardingMode::SingleCopy
        } else {
            ForwardingMode::MultiCopy
        };
        let mut protocol =
            OnionRouting::new(groups, cfg.onions, mode).with_selection(cfg.selection);
        if opts.wire {
            protocol = protocol.with_wire(self.rng(SeedDomain::Wire));
        }
        let copy_mode = match opts.code {
            Some((k, m)) => {
                protocol = protocol.with_code(k, m, self.rng(SeedDomain::Codec));
                CopyMode::Coded { k, m }
            }
            None => CopyMode::default(),
        };
        let sim_config = SimConfig::builder()
            .wire_mode(opts.wire)
            .copy_mode(copy_mode)
            .build();
        let clock = lap(setup, "trial.setup_secs");
        let events = events();
        lap(clock, "trial.events_secs");
        // The engine times itself (`sim.run_secs`).
        let report = run_stream(
            cfg.nodes,
            horizon,
            events,
            &mut protocol,
            messages.clone(),
            &sim_config,
            &opts.faults,
            &mut self.rng(SeedDomain::Faults),
            rng,
        )
        .expect("validated run");
        let clock = obs::metrics_enabled().then(Instant::now);
        let trial = Trial {
            cfg,
            rates,
            messages: &messages,
            protocol: &protocol,
            report: &report,
            code: opts.code,
        };
        let partial = self.scorer.score(&trial, rng);
        lap(clock, "trial.score_secs");
        partial
    }
}

/// Records the seconds since `since` under `name` and restarts the
/// clock; `None`, with telemetry off, reads no clock.
fn lap(since: Option<Instant>, name: &str) -> Option<Instant> {
    since.map(|since| {
        let now = Instant::now();
        obs::record(name, (now - since).as_secs_f64());
        now
    })
}

/// Panics (on every attempt) when `trial` is the one
/// `ONION_DTN_PANIC_TRIAL` names (parsed once per process) — a CI/test
/// hook for exercising quarantine deterministically. Called after the
/// realization ran, so the quarantined trial's trace block holds real
/// lifecycle events before its closing `quarantine` event.
fn maybe_forced_panic(trial: u64) {
    static FORCED: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    let forced = FORCED.get_or_init(|| {
        let var = std::env::var("ONION_DTN_PANIC_TRIAL");
        var.ok().and_then(|v| v.trim().parse().ok())
    });
    assert!(
        *forced != Some(trial),
        "forced panic for trial {trial} (ONION_DTN_PANIC_TRIAL)"
    );
}
