//! Layer-by-layer replay of one trial.
//!
//! Each function re-runs a trial of the experiment layer exactly as the
//! library does it — the same `trial_rng_attempt` domains drawn in the same
//! order — but through the crates' public functions, with a clock around
//! every call. The replay therefore does the same simulated work as the
//! untimed run of the same seed, which `sim::traced` checks by comparing
//! the engine counters.

use std::time::{Duration, Instant};

use contact_graph::{
    ContactModel, ContactSchedule, NodeId, SparseContacts, Time, TimeDelta, UniformGraphBuilder,
};
use dtn_sim::{
    fragment_id, run_stream, run_with_faults, CalendarQueue, CopyMode, Message, MessageId,
    SimConfig, SimCounters, SimReport,
};
use onion_routing::runner::trial_rng_attempt;
use onion_routing::{
    metrics, Adversary, DeliverySweepRow, ExperimentOptions, ForwardingMode, GroupId, OnionGroups,
    OnionRouting, ProtocolConfig, SeedDomain,
};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Time spent in, and work done by, each layer, summed over replayed
/// trials.
#[derive(Default)]
pub struct LayerTimes {
    pub trials: u64,
    /// Contact-graph realization (dense graph or sparse world).
    pub world: Duration,
    /// Dense contact-event generation (`ContactSchedule::sample`).
    pub schedule: Duration,
    /// Contact events generated (schedule length, or calendar drain count).
    pub events: u64,
    /// Workload, group partition and protocol construction.
    pub setup: Duration,
    /// Engine event loop (calendar drain excluded on sparse trials).
    pub engine: Duration,
    pub calendar_build: Duration,
    pub calendar_drain: Duration,
    /// Engine time of the same trials with wire mode off (wire workloads).
    pub engine_no_wire: Duration,
    pub path_rates: Duration,
    pub delivery_eval: Duration,
    /// Adversary draw plus the security metrics.
    pub score: Duration,
    pub counters: SimCounters,
    pub world_bytes: u64,
    pub calendar_bytes: u64,
}

impl LayerTimes {
    /// Summed time of every layer.
    pub fn total(&self) -> Duration {
        self.world
            + self.schedule
            + self.setup
            + self.engine
            + self.calendar_build
            + self.calendar_drain
            + self.path_rates
            + self.delivery_eval
            + self.score
    }
}

/// Runs `f`, adding its wall time to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

/// The library's per-trial workload draw: `count` messages between
/// distinct uniform endpoints, all created at time zero.
fn random_messages(cfg: &ProtocolConfig, count: usize, rng: &mut ChaCha8Rng) -> Vec<Message> {
    (0..count as u64)
        .map(|i| {
            let source = NodeId(rng.gen_range(0..cfg.nodes as u32));
            let mut destination = NodeId(rng.gen_range(0..cfg.nodes as u32));
            while destination == source {
                destination = NodeId(rng.gen_range(0..cfg.nodes as u32));
            }
            Message {
                id: MessageId(i),
                source,
                destination,
                created: Time::ZERO,
                deadline: cfg.deadline,
                copies: cfg.copies,
            }
        })
        .collect()
}

/// Protocol plus engine config for one trial, decorated with the wire and
/// codec streams the options ask for.
fn protocol_for(
    cfg: &ProtocolConfig,
    opts: &ExperimentOptions,
    trial: u64,
    groups: OnionGroups,
) -> (OnionRouting, SimConfig) {
    let mode = if opts.code.is_some() || cfg.copies == 1 {
        ForwardingMode::SingleCopy
    } else {
        ForwardingMode::MultiCopy
    };
    let mut protocol = OnionRouting::new(groups, cfg.onions, mode).with_selection(cfg.selection);
    if opts.wire {
        protocol = protocol.with_wire(trial_rng_attempt(opts.seed, SeedDomain::Wire, trial, 0));
    }
    if let Some((k, m)) = opts.code {
        protocol = protocol.with_code(
            k,
            m,
            trial_rng_attempt(opts.seed, SeedDomain::Codec, trial, 0),
        );
    }
    let sim_config = SimConfig::builder()
        .wire_mode(opts.wire)
        .copy_mode(match opts.code {
            Some((k, m)) => CopyMode::Coded { k, m },
            None => CopyMode::default(),
        })
        .build();
    (protocol, sim_config)
}

/// Per-trial memo of Eq. 4 rate vectors keyed by `(route, source,
/// destination)`, as the library keeps it: a repeated path reuses the
/// exact values of its first computation.
#[derive(Default)]
struct RateCache {
    entries: Vec<RateEntry>,
}

/// A memoized path: route, source, destination, and its per-hop rates
/// (`None` for a degenerate path).
type RateEntry = (Vec<GroupId>, NodeId, NodeId, Option<Vec<f64>>);

impl RateCache {
    fn rates_for<M: ContactModel + ?Sized>(
        &mut self,
        graph: &M,
        groups: &OnionGroups,
        route: &[GroupId],
        source: NodeId,
        destination: NodeId,
    ) -> Option<&[f64]> {
        if let Some(pos) = self
            .entries
            .iter()
            .position(|(r, s, d, _)| r.as_slice() == route && *s == source && *d == destination)
        {
            return self.entries[pos].3.as_deref();
        }
        let members: Vec<Vec<NodeId>> = groups
            .route_members(route)
            .into_iter()
            .map(|g| {
                g.into_iter()
                    .filter(|&v| v != source && v != destination)
                    .collect()
            })
            .collect();
        let rates = if members.iter().any(Vec::is_empty) {
            None
        } else {
            match analysis::onion_path_rates(graph, source, &members, destination) {
                Ok(rates) if rates.iter().all(|&r| r > 0.0) => Some(rates),
                _ => None,
            }
        };
        self.entries
            .push((route.to_vec(), source, destination, rates));
        self.entries.last().expect("entry just pushed").3.as_deref()
    }
}

/// Delivery-sweep sums of one or more replayed trials, folded exactly as
/// the library folds them so the rows they give are bit-identical.
pub struct SweepSums {
    sim_hits: Vec<usize>,
    analysis_sum: Vec<f64>,
    injected: usize,
    analysis_count: usize,
}

impl SweepSums {
    pub fn new(points: usize) -> Self {
        SweepSums {
            sim_hits: vec![0; points],
            analysis_sum: vec![0.0; points],
            injected: 0,
            analysis_count: 0,
        }
    }

    fn merge(&mut self, other: &SweepSums) {
        for (a, b) in self.sim_hits.iter_mut().zip(&other.sim_hits) {
            *a += b;
        }
        for (a, b) in self.analysis_sum.iter_mut().zip(&other.analysis_sum) {
            *a += b;
        }
        self.injected += other.injected;
        self.analysis_count += other.analysis_count;
    }

    /// One row per deadline, computed as the library computes its rows.
    pub fn rows(&self, deadlines: &[f64]) -> Vec<DeliverySweepRow> {
        deadlines
            .iter()
            .enumerate()
            .map(|(i, &deadline)| DeliverySweepRow {
                deadline,
                analysis: if self.analysis_count > 0 {
                    self.analysis_sum[i] / self.analysis_count as f64
                } else {
                    0.0
                },
                sim: if self.injected > 0 {
                    self.sim_hits[i] as f64 / self.injected as f64
                } else {
                    0.0
                },
            })
            .collect()
    }
}

/// What a dense trial is scored for.
pub enum DenseScoring<'a> {
    /// A delivery-vs-deadline sweep (replica mode) into `sums`.
    Sweep {
        deadlines: &'a [f64],
        sums: &'a mut SweepSums,
    },
    /// A single point: model delivery per message plus one adversary draw.
    Point,
}

/// Replays trial `trial` of a dense random-graph run (`cfg.deadline` is the
/// simulated horizon: the sweep's largest deadline, or the point's `T`).
pub fn dense_trial(
    cfg: &ProtocolConfig,
    opts: &ExperimentOptions,
    trial: u64,
    scoring: DenseScoring<'_>,
    lt: &mut LayerTimes,
) {
    let mut rng = trial_rng_attempt(opts.seed, SeedDomain::GraphRealization, trial, 0);
    let mut fault_rng = trial_rng_attempt(opts.seed, SeedDomain::Faults, trial, 0);
    let graph = timed(&mut lt.world, || {
        UniformGraphBuilder::new(cfg.nodes)
            .mean_intercontact_range(
                TimeDelta::new(opts.intercontact_range.0),
                TimeDelta::new(opts.intercontact_range.1),
            )
            .build(&mut rng)
    });
    let horizon = Time::ZERO + cfg.deadline;
    let schedule = timed(&mut lt.schedule, || {
        ContactSchedule::sample(&graph, horizon, &mut rng)
    });
    lt.events += schedule.len() as u64;
    let (messages, mut protocol, sim_config) = timed(&mut lt.setup, || {
        let messages = random_messages(cfg, opts.messages, &mut rng);
        let groups = OnionGroups::random_partition(cfg.nodes, cfg.group_size, &mut rng);
        let (protocol, sim_config) = protocol_for(cfg, opts, trial, groups);
        (messages, protocol, sim_config)
    });
    let report = timed(&mut lt.engine, || {
        run_with_faults(
            &schedule,
            &mut protocol,
            messages.clone(),
            &sim_config,
            &opts.faults,
            &mut fault_rng,
            &mut rng,
        )
        .expect("replayed messages are valid")
    });
    lt.trials += 1;
    if let Some(c) = report.counters() {
        lt.counters.merge(c);
    }
    match scoring {
        DenseScoring::Sweep { deadlines, sums } => {
            let mut partial = SweepSums::new(deadlines.len());
            score_sweep(
                cfg,
                &graph,
                deadlines,
                &messages,
                &protocol,
                &report,
                &mut partial,
                lt,
            );
            sums.merge(&partial);
        }
        DenseScoring::Point => {
            score_point(
                cfg, &graph, &messages, opts.code, &protocol, &report, &mut rng, lt,
            );
        }
    }
}

/// Replays only the engine of trial `trial` with wire mode off, adding its
/// time to `lt.engine_no_wire` and returning its counters. Wire mode moves
/// real ciphertext but never changes results, so the difference to the
/// wire-on engine time is the wire layer's cost.
pub fn dense_engine_without_wire(
    cfg: &ProtocolConfig,
    opts: &ExperimentOptions,
    trial: u64,
    lt: &mut LayerTimes,
) -> SimCounters {
    let plain = opts.clone().into_builder().wire(false).build();
    let mut rng = trial_rng_attempt(plain.seed, SeedDomain::GraphRealization, trial, 0);
    let mut fault_rng = trial_rng_attempt(plain.seed, SeedDomain::Faults, trial, 0);
    let graph = UniformGraphBuilder::new(cfg.nodes)
        .mean_intercontact_range(
            TimeDelta::new(plain.intercontact_range.0),
            TimeDelta::new(plain.intercontact_range.1),
        )
        .build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::ZERO + cfg.deadline, &mut rng);
    let messages = random_messages(cfg, plain.messages, &mut rng);
    let groups = OnionGroups::random_partition(cfg.nodes, cfg.group_size, &mut rng);
    let (mut protocol, sim_config) = protocol_for(cfg, &plain, trial, groups);
    let report = timed(&mut lt.engine_no_wire, || {
        run_with_faults(
            &schedule,
            &mut protocol,
            messages,
            &sim_config,
            &plain.faults,
            &mut fault_rng,
            &mut rng,
        )
        .expect("replayed messages are valid")
    });
    report.counters().cloned().unwrap_or_default()
}

/// Replays trial `trial` of a sparse run: PPP world, calendar queue and the
/// streaming engine. The calendar's own cost is measured by draining an
/// identically seeded queue alone; the rest of `run_stream` is the engine.
pub fn sparse_trial(
    cfg: &ProtocolConfig,
    avg_degree: f64,
    opts: &ExperimentOptions,
    trial: u64,
    lt: &mut LayerTimes,
) {
    let mut rng = trial_rng_attempt(opts.seed, SeedDomain::SparseRealization, trial, 0);
    let mut fault_rng = trial_rng_attempt(opts.seed, SeedDomain::Faults, trial, 0);
    let calendar_seed = || trial_rng_attempt(opts.seed, SeedDomain::SparseContacts, trial, 0);
    let world = timed(&mut lt.world, || {
        SparseContacts::poisson_proximity(
            cfg.nodes,
            avg_degree,
            (
                TimeDelta::new(opts.intercontact_range.0),
                TimeDelta::new(opts.intercontact_range.1),
            ),
            &mut rng,
        )
    });
    lt.world_bytes = lt.world_bytes.max(world.approx_bytes() as u64);
    let horizon = Time::ZERO + cfg.deadline;
    let (messages, mut protocol, sim_config) = timed(&mut lt.setup, || {
        let messages = random_messages(cfg, opts.messages, &mut rng);
        let groups = OnionGroups::random_partition(cfg.nodes, cfg.group_size, &mut rng);
        let (protocol, sim_config) = protocol_for(cfg, opts, trial, groups);
        (messages, protocol, sim_config)
    });
    let queue = timed(&mut lt.calendar_build, || {
        CalendarQueue::from_sparse(&world, horizon, calendar_seed())
    });
    lt.calendar_bytes = lt.calendar_bytes.max(queue.approx_bytes() as u64);
    let mut stream = Duration::ZERO;
    let report = timed(&mut stream, || {
        run_stream(
            cfg.nodes,
            horizon,
            queue,
            &mut protocol,
            messages.clone(),
            &sim_config,
            &opts.faults,
            &mut fault_rng,
            &mut rng,
        )
        .expect("replayed messages are valid")
    });
    let drain_queue = CalendarQueue::from_sparse(&world, horizon, calendar_seed());
    let mut drain = Duration::ZERO;
    let drained = timed(&mut drain, || drain_queue.count());
    lt.calendar_drain += drain;
    lt.engine += stream.saturating_sub(drain);
    lt.events += drained as u64;
    lt.trials += 1;
    if let Some(c) = report.counters() {
        lt.counters.merge(c);
    }
    score_point(
        cfg, &world, &messages, opts.code, &protocol, &report, &mut rng, lt,
    );
}

/// The delivery sweep's per-trial scoring: simulated hits per deadline and
/// the Eq. 4 hypoexponential CDF of each message's route.
#[allow(clippy::too_many_arguments)]
fn score_sweep<M: ContactModel + ?Sized>(
    cfg: &ProtocolConfig,
    graph: &M,
    deadlines: &[f64],
    messages: &[Message],
    protocol: &OnionRouting,
    report: &SimReport,
    sums: &mut SweepSums,
    lt: &mut LayerTimes,
) {
    sums.injected += messages.len();
    let mut cache = RateCache::default();
    for msg in messages {
        if let Some(delay) = report.delivery_delay(msg.id) {
            for (i, &t) in deadlines.iter().enumerate() {
                if delay.as_f64() <= t {
                    sums.sim_hits[i] += 1;
                }
            }
        }
        if let Some(route) = protocol.route_of(msg.id) {
            sums.analysis_count += 1;
            let rates = timed(&mut lt.path_rates, || {
                cache
                    .rates_for(graph, protocol.groups(), route, msg.source, msg.destination)
                    .map(<[f64]>::to_vec)
            });
            if let Some(rates) = rates {
                timed(&mut lt.delivery_eval, || {
                    let boosted: Vec<f64> = rates.iter().map(|&r| r * cfg.copies as f64).collect();
                    if let Ok(h) = analysis::HypoExp::new(boosted) {
                        for (i, &t) in deadlines.iter().enumerate() {
                            sums.analysis_sum[i] += h.cdf(t);
                        }
                    }
                });
            }
        }
    }
}

/// A point's per-trial scoring: the model delivery of every message (the
/// k-of-m order statistic per fragment route in coded mode), then one
/// adversary draw and the security metrics.
#[allow(clippy::too_many_arguments)]
fn score_point<M: ContactModel + ?Sized>(
    cfg: &ProtocolConfig,
    graph: &M,
    messages: &[Message],
    code: Option<(u32, u32)>,
    protocol: &OnionRouting,
    report: &SimReport,
    rng: &mut ChaCha8Rng,
    lt: &mut LayerTimes,
) {
    let mut cache = RateCache::default();
    let t = cfg.deadline.as_f64();
    for msg in messages {
        let routes: Vec<MessageId> = match code {
            Some((_, m)) => (0..m).map(|idx| fragment_id(msg.id, idx)).collect(),
            None => vec![msg.id],
        };
        for id in routes {
            let Some(route) = protocol.route_of(id) else {
                continue;
            };
            let rates = timed(&mut lt.path_rates, || {
                cache
                    .rates_for(graph, protocol.groups(), route, msg.source, msg.destination)
                    .map(<[f64]>::to_vec)
            });
            if let Some(rates) = rates {
                let p = timed(&mut lt.delivery_eval, || match code {
                    Some((k, m)) => analysis::coded_delivery_rate(&rates, k, m, t),
                    None => analysis::delivery_rate_multicopy(&rates, cfg.copies, t),
                });
                std::hint::black_box(p.ok());
            }
        }
    }
    timed(&mut lt.score, || {
        let adversary = Adversary::random(cfg.nodes, cfg.compromised, rng);
        std::hint::black_box(metrics::mean_traceable_rate(report, &adversary));
        std::hint::black_box(metrics::mean_path_anonymity(
            report,
            &adversary,
            cfg.nodes,
            cfg.group_size,
            cfg.eta(),
        ));
    });
}
