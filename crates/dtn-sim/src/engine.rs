//! The discrete-event simulation engine.
//!
//! The engine replays a [`ContactSchedule`], owns every node's buffer and
//! per-copy ticket state, enforces message deadlines, and records the
//! statistics the experiments need (delivery times, transmission counts,
//! and the full forwarding log from which realized routing paths are
//! reconstructed for the security analyses).
//!
//! # Hot-path layout
//!
//! Monte-Carlo sweeps run this engine hundreds of thousands of times, so
//! per-trial state lives in a dense, reusable [`SimState`] arena rather
//! than per-run maps:
//!
//! * every message id is assigned a *rank* (its position in the sorted id
//!   list) and all per-message state — metadata, precomputed expiry,
//!   delivery time, transmission count — is a `Vec` indexed by rank;
//! * per-node buffers are id-sorted `Vec`s, which iterate in exactly the
//!   ascending-id order the previous `BTreeMap` representation did;
//! * the per-node "seen" summary vectors are one flat bitset.
//!
//! A thread-local arena keeps these allocations alive between trials on
//! the same worker thread. None of this changes observable behaviour: the
//! engine draws the same RNG sequence, applies forwards in the same order,
//! and reports are assembled in the same ascending-id order, so results
//! are bit-identical to the map-based implementation.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::time::Instant;

use contact_graph::{
    sample_intercontact, ContactEvent, ContactSchedule, NodeId, Rate, SparseContacts, Time,
};
use rand::RngCore;
use serde::{Deserialize, Serialize};

use obs::TraceEvent;

use crate::faults::{ChurnMemory, FaultPlan, FaultState};
use crate::message::{
    check_code_shape, fragment_id, fragment_parent, CopyState, Message, MessageId, FRAG_BASE,
};
use crate::protocol::{ContactView, Forward, ForwardKind, RoutingProtocol};
use crate::report::{CodedOutcome, ForwardRecord, SimCounters, SimReport};

/// Stable trace label for a forward kind.
#[inline]
fn kind_label(kind: ForwardKind) -> &'static str {
    match kind {
        ForwardKind::Handoff => "handoff",
        ForwardKind::Split { .. } => "split",
        ForwardKind::Replicate => "replicate",
    }
}

/// What to do when a transfer arrives at a full buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DropPolicy {
    /// Refuse the incoming copy (the transfer never happens).
    #[default]
    DropIncoming,
    /// Evict the oldest buffered copy (by creation time) to make room.
    DropOldest,
}

/// How a message's redundancy budget is spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopyMode {
    /// The paper's replica discipline: up to `L` identical copies race
    /// along one route under Algorithm 2's ticket splitting. The value is
    /// descriptive — [`Message::copies`] stays authoritative per message.
    Replica(u32),
    /// Erasure-coded k-of-m forwarding: the engine expands every injected
    /// message into `m` single-copy Reed-Solomon fragments (each routed
    /// independently by the protocol) and counts the message delivered at
    /// the instant its `k`-th distinct fragment reaches the destination.
    Coded {
        /// Fragments required to reconstruct the message (`1 <= k <= m`).
        k: u32,
        /// Fragments generated per message (`m <=`
        /// [`MAX_CODE_FRAGMENTS`](crate::message::MAX_CODE_FRAGMENTS)).
        m: u32,
    },
}

impl Default for CopyMode {
    fn default() -> Self {
        CopyMode::Replica(1)
    }
}

// Hand-written serde: the vendored derive does not support struct
// variants, and the externally-tagged layout here
// (`{"Replica": L}` / `{"Coded": {"k": …, "m": …}}`) matches what real
// serde would derive for this enum.
impl Serialize for CopyMode {
    fn to_value(&self) -> serde::Value {
        match self {
            CopyMode::Replica(l) => {
                serde::Value::Object(vec![("Replica".into(), serde::Value::UInt(*l as u64))])
            }
            CopyMode::Coded { k, m } => serde::Value::Object(vec![(
                "Coded".into(),
                serde::Value::Object(vec![
                    ("k".into(), serde::Value::UInt(*k as u64)),
                    ("m".into(), serde::Value::UInt(*m as u64)),
                ]),
            )]),
        }
    }
}

impl<'de> Deserialize<'de> for CopyMode {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        if let Some(inner) = value.get("Replica") {
            return Ok(CopyMode::Replica(u32::from_value(inner)?));
        }
        if let Some(inner) = value.get("Coded") {
            let field = |name: &str| -> Result<u32, serde::DeError> {
                match inner.get(name) {
                    Some(v) => u32::from_value(v),
                    None => Err(serde::DeError::new(format!(
                        "CopyMode::Coded: missing field {name}"
                    ))),
                }
            };
            return Ok(CopyMode::Coded {
                k: field("k")?,
                m: field("m")?,
            });
        }
        Err(serde::DeError::new(format!(
            "cannot deserialize CopyMode from {value:?}"
        )))
    }
}

/// Engine configuration.
///
/// Construct with [`SimConfig::builder`] (or start from an existing
/// value with [`SimConfig::into_builder`]): the struct is
/// `#[non_exhaustive]`, so new engine knobs can be added without
/// breaking downstream construction sites.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct SimConfig {
    /// Per-node buffer capacity in messages; `None` models the paper's
    /// unlimited buffers.
    pub buffer_capacity: Option<usize>,
    /// Behaviour at a full buffer (only relevant with a capacity).
    pub drop_policy: DropPolicy,
    /// Wire mode (default off): every injection builds, and every
    /// committed transfer moves/peels, a real constant-size ciphertext
    /// packet via the protocol's wire hooks, tallying actual bytes and
    /// AEAD operations into the `wire_*` counters. Requires a
    /// [`RoutingProtocol::wire_capable`] protocol; the abstract
    /// simulation results are bit-identical either way.
    pub wire_mode: bool,
    /// Redundancy discipline (default: replica). `CopyMode::Coded` turns
    /// on fragment-level custody: every injected message becomes `m`
    /// single-copy fragments and delivery means "k distinct fragments
    /// arrived". Replica-mode results are bit-identical to builds that
    /// predate this knob.
    pub copy_mode: CopyMode,
}

impl SimConfig {
    /// Starts a builder at the defaults (the paper's Table II engine
    /// settings: unlimited buffers, abstract transfers, replica
    /// redundancy).
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Re-opens this configuration as a builder, for deriving a variant
    /// of an existing value.
    pub fn into_builder(self) -> SimConfigBuilder {
        SimConfigBuilder { cfg: self }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            buffer_capacity: None,
            drop_policy: DropPolicy::DropIncoming,
            wire_mode: false,
            copy_mode: CopyMode::default(),
        }
    }
}

/// Builder for [`SimConfig`]; every setter defaults to
/// [`SimConfig::default`].
#[derive(Clone, Debug, Default)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Sets [`SimConfig::buffer_capacity`].
    pub fn buffer_capacity(mut self, v: Option<usize>) -> Self {
        self.cfg.buffer_capacity = v;
        self
    }

    /// Sets [`SimConfig::drop_policy`].
    pub fn drop_policy(mut self, v: DropPolicy) -> Self {
        self.cfg.drop_policy = v;
        self
    }

    /// Sets [`SimConfig::wire_mode`].
    pub fn wire_mode(mut self, v: bool) -> Self {
        self.cfg.wire_mode = v;
        self
    }

    /// Sets [`SimConfig::copy_mode`].
    pub fn copy_mode(mut self, v: CopyMode) -> Self {
        self.cfg.copy_mode = v;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SimConfig {
        self.cfg
    }
}

/// Errors detected while setting up a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A message's source or destination is outside the schedule's node
    /// range.
    NodeOutOfRange(MessageId),
    /// A message's source equals its destination.
    SelfAddressed(MessageId),
    /// Two injected messages share an id.
    DuplicateId(MessageId),
    /// A message allows zero copies.
    ZeroCopies(MessageId),
    /// The fault plan has an out-of-range probability or churn
    /// parameter.
    InvalidFaultPlan(String),
    /// Wire mode was requested but the protocol cannot move real
    /// ciphertext (`RoutingProtocol::wire_capable` returned false).
    /// Carries the protocol name.
    WireUnsupported(String),
    /// Coded mode was requested with unusable parameters (k/m out of
    /// range, or a message id inside the reserved fragment band).
    InvalidCodeParameters(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NodeOutOfRange(id) => {
                write!(f, "message {id} references a node outside the schedule")
            }
            SimError::SelfAddressed(id) => {
                write!(f, "message {id} has source equal to destination")
            }
            SimError::DuplicateId(id) => write!(f, "duplicate message id {id}"),
            SimError::ZeroCopies(id) => write!(f, "message {id} allows zero copies"),
            SimError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            SimError::WireUnsupported(name) => {
                write!(f, "protocol {name} does not support wire mode")
            }
            SimError::InvalidCodeParameters(why) => {
                write!(f, "invalid coded-mode parameters: {why}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Coded-mode bookkeeping for one run.
///
/// In coded mode every simulated message is a fragment; parents only
/// exist here. Fragment ids are dense per parent
/// (`fragment_id(parent, 0..m)`), so with all fragments id-sorted the
/// parent of the fragment at rank `r` is `parents[r / m]`.
struct CodedRun {
    k: u32,
    m: u32,
    /// Parent messages sorted by id (parallel to fragment-rank / m).
    parents: Vec<Message>,
    /// Distinct fragments delivered so far, per parent.
    frag_delivered: Vec<u32>,
    /// When the k-th distinct fragment arrived, per parent.
    parent_delivered: Vec<Option<Time>>,
}

/// Dense per-trial simulation state.
///
/// Per-message state is keyed by the message id's rank in the sorted id
/// list; per-node buffers are id-sorted vectors. `reset` clears everything
/// while keeping allocations, so a thread-local instance serves as a trial
/// arena across an entire sweep.
#[derive(Default)]
struct SimState {
    /// All validated message ids, ascending; the index into this list is
    /// the rank used by every per-message vector below.
    ids: Vec<MessageId>,
    /// Message metadata, sorted by id (parallel to `ids`).
    msgs: Vec<Message>,
    /// Precomputed `created + deadline` per message.
    expires: Vec<Time>,
    /// Whether the message has been injected (messages created after the
    /// horizon never are, and stay out of the report's message list).
    materialized: Vec<bool>,
    delivered: Vec<Option<Time>>,
    transmissions: Vec<u64>,
    /// Per-node buffer: id-sorted `(message, copy state)` pairs.
    buffers: Vec<Vec<(MessageId, CopyState)>>,
    /// Copies buffered across all nodes: the run is idle once this is
    /// zero and every message is injected.
    buffered: usize,
    /// Flat per-node seen bitsets, `seen_words` words per node.
    seen: Vec<u64>,
    seen_words: usize,
    /// Per-node arrival time of each buffered copy (id-sorted) — only
    /// maintained when churn faults are active (crash wipes destroy
    /// copies that arrived at or before the crash instant).
    arrivals: Vec<Vec<(MessageId, Time)>>,
    forward_log: Vec<ForwardRecord>,
    counters: SimCounters,
}

thread_local! {
    /// Per-thread trial arena: buffers, bitsets, and logs keep their
    /// allocations across the thousands of trials a sweep runs on each
    /// worker thread.
    static ARENA: RefCell<SimState> = RefCell::new(SimState::default());
}

impl SimState {
    /// Clears and resizes for a fresh run, keeping prior allocations.
    fn reset(&mut self, n: usize, messages: &[Message], track_arrivals: bool) {
        self.msgs.clear();
        self.msgs.extend_from_slice(messages);
        // Ids are unique (validated by the caller), so unstable is fine.
        self.msgs.sort_unstable_by_key(|m| m.id);
        self.ids.clear();
        self.ids.extend(self.msgs.iter().map(|m| m.id));
        self.expires.clear();
        self.expires
            .extend(self.msgs.iter().map(Message::expires_at));
        let m = self.msgs.len();
        self.materialized.clear();
        self.materialized.resize(m, false);
        self.delivered.clear();
        self.delivered.resize(m, None);
        self.transmissions.clear();
        self.transmissions.resize(m, 0);
        for buf in &mut self.buffers {
            buf.clear();
        }
        self.buffers.resize_with(n, Vec::new);
        self.buffered = 0;
        self.seen_words = m.div_ceil(64);
        self.seen.clear();
        self.seen.resize(n * self.seen_words, 0);
        for a in &mut self.arrivals {
            a.clear();
        }
        self.arrivals
            .resize_with(if track_arrivals { n } else { 0 }, Vec::new);
        self.forward_log.clear();
        self.counters = SimCounters::default();
    }

    /// Approximate heap footprint of the arena in bytes, by capacity —
    /// the byte budget a sweep's per-trial state actually holds, fed to
    /// the `sim.state_bytes` / `sim.state_bytes_hwm` obs gauges.
    fn approx_bytes(&self) -> usize {
        self.ids.capacity() * size_of::<MessageId>()
            + self.msgs.capacity() * size_of::<Message>()
            + self.expires.capacity() * size_of::<Time>()
            + self.materialized.capacity() * size_of::<bool>()
            + self.delivered.capacity() * size_of::<Option<Time>>()
            + self.transmissions.capacity() * size_of::<u64>()
            + self.buffers.capacity() * size_of::<Vec<(MessageId, CopyState)>>()
            + self
                .buffers
                .iter()
                .map(|b| b.capacity() * size_of::<(MessageId, CopyState)>())
                .sum::<usize>()
            + self.seen.capacity() * size_of::<u64>()
            + self.arrivals.capacity() * size_of::<Vec<(MessageId, Time)>>()
            + self
                .arrivals
                .iter()
                .map(|a| a.capacity() * size_of::<(MessageId, Time)>())
                .sum::<usize>()
            + self.forward_log.capacity() * size_of::<ForwardRecord>()
    }

    /// Rank of `id` in the sorted id list.
    ///
    /// # Panics
    ///
    /// Panics on an id that was never part of this run (mirroring the map
    /// indexing of the previous representation).
    #[inline]
    fn rank(&self, id: MessageId) -> usize {
        self.ids.binary_search(&id).expect("unknown message id")
    }

    #[inline]
    fn seen_contains(&self, node: NodeId, rank: usize) -> bool {
        (self.seen[node.index() * self.seen_words + rank / 64] >> (rank % 64)) & 1 == 1
    }

    #[inline]
    fn seen_insert(&mut self, node: NodeId, rank: usize) {
        self.seen[node.index() * self.seen_words + rank / 64] |= 1 << (rank % 64);
    }

    /// Inserts or replaces `id`'s copy state at `node`, keeping the
    /// buffer id-sorted.
    #[inline]
    fn buf_insert(&mut self, node: NodeId, id: MessageId, cs: CopyState) {
        let buf = &mut self.buffers[node.index()];
        match buf_find(buf, id) {
            Ok(pos) => buf[pos].1 = cs,
            Err(pos) => {
                buf.insert(pos, (id, cs));
                self.buffered += 1;
            }
        }
    }

    #[inline]
    fn buf_remove(&mut self, node: NodeId, id: MessageId) {
        let buf = &mut self.buffers[node.index()];
        if let Ok(pos) = buf_find(buf, id) {
            buf.remove(pos);
            self.buffered -= 1;
        }
    }
}

/// Position of `id` in an id-sorted buffer.
#[inline]
fn buf_find(buf: &[(MessageId, CopyState)], id: MessageId) -> Result<usize, usize> {
    buf.binary_search_by_key(&id, |&(bid, _)| bid)
}

/// Inserts or updates an id-sorted `(message, arrival time)` list.
#[inline]
fn arrival_insert(arrivals: &mut Vec<(MessageId, Time)>, id: MessageId, t: Time) {
    match arrivals.binary_search_by_key(&id, |&(aid, _)| aid) {
        Ok(pos) => arrivals[pos].1 = t,
        Err(pos) => arrivals.insert(pos, (id, t)),
    }
}

/// Makes room at `node` for one more copy, per the drop policy. Returns
/// false if the incoming copy should be refused instead. `now` only
/// labels the trace event for an evicted victim.
fn make_room(state: &mut SimState, config: &SimConfig, node: NodeId, now: Time) -> bool {
    let Some(capacity) = config.buffer_capacity else {
        return true;
    };
    if state.buffers[node.index()].len() < capacity {
        return true;
    }
    match config.drop_policy {
        DropPolicy::DropIncoming => {
            state.counters.buffer_drops += 1;
            false
        }
        DropPolicy::DropOldest => {
            // First strict minimum by creation time in ascending-id order —
            // the same victim `BTreeMap::keys().min_by_key()` selected.
            let mut oldest: Option<(MessageId, Time)> = None;
            for &(id, _) in &state.buffers[node.index()] {
                let created = state.msgs[state.rank(id)].created;
                if oldest.is_none() || created < oldest.expect("checked").1 {
                    oldest = Some((id, created));
                }
            }
            if let Some((victim, _)) = oldest {
                state.buf_remove(node, victim);
                state.counters.buffer_drops += 1;
                state.counters.buffer_evictions += 1;
                obs::trace_event(|| TraceEvent::Drop {
                    time: now.as_f64(),
                    message: victim.0,
                    node: node.0 as u64,
                });
                true
            } else {
                // Capacity is zero.
                state.counters.buffer_drops += 1;
                false
            }
        }
    }
}

struct View<'a> {
    now: Time,
    carrier: NodeId,
    peer: NodeId,
    state: &'a SimState,
}

impl ContactView for View<'_> {
    fn now(&self) -> Time {
        self.now
    }
    fn carrier(&self) -> NodeId {
        self.carrier
    }
    fn peer(&self) -> NodeId {
        self.peer
    }
    fn carried(&self) -> &[(MessageId, CopyState)] {
        &self.state.buffers[self.carrier.index()]
    }
    fn peer_has(&self, message: MessageId) -> bool {
        self.state
            .ids
            .binary_search(&message)
            .is_ok_and(|r| self.state.seen_contains(self.peer, r))
    }
    fn is_delivered(&self, message: MessageId) -> bool {
        self.state
            .ids
            .binary_search(&message)
            .is_ok_and(|r| self.state.delivered[r].is_some())
    }
    fn message(&self, id: MessageId) -> &Message {
        &self.state.msgs[self.state.rank(id)]
    }
}

/// Runs `protocol` over `schedule`, injecting `messages` at their creation
/// times.
///
/// Equivalent to [`run_with_faults`] with the no-op [`FaultPlan`] — and
/// bit-identical to it, since a no-op plan never touches the fault RNG.
///
/// # Errors
///
/// Returns a [`SimError`] if any message is malformed for this schedule.
pub fn run<P, R>(
    schedule: &ContactSchedule,
    protocol: &mut P,
    messages: Vec<Message>,
    config: &SimConfig,
    rng: &mut R,
) -> Result<SimReport, SimError>
where
    P: RoutingProtocol + ?Sized,
    R: RngCore,
{
    // The no-op plan draws nothing, so any stand-in RNG works.
    let mut unused = rand::rngs::mock::StepRng::new(0, 0);
    run_with_faults(
        schedule,
        protocol,
        messages,
        config,
        &FaultPlan::default(),
        &mut unused,
        rng,
    )
}

/// Runs `protocol` over `schedule` while injecting the faults described
/// by `plan`.
///
/// Fault decisions are drawn exclusively from `fault_rng`, never from
/// the protocol RNG, so a plan with all rates zero is bit-identical to
/// [`run`] and a faulted run is a pure function of
/// `(plan, fault seed, schedule, protocol seed)`. See [`crate::faults`]
/// for the fault semantics.
///
/// # Errors
///
/// Returns a [`SimError`] if any message is malformed for this schedule
/// or the plan fails [`FaultPlan::validate`].
pub fn run_with_faults<P, R, F>(
    schedule: &ContactSchedule,
    protocol: &mut P,
    messages: Vec<Message>,
    config: &SimConfig,
    plan: &FaultPlan,
    fault_rng: &mut F,
    rng: &mut R,
) -> Result<SimReport, SimError>
where
    P: RoutingProtocol + ?Sized,
    R: RngCore,
    F: RngCore,
{
    run_stream(
        schedule.node_count(),
        schedule.horizon(),
        schedule.iter().copied(),
        protocol,
        messages,
        config,
        plan,
        fault_rng,
        rng,
    )
}

/// Runs `protocol` over an *event stream* instead of a materialized
/// [`ContactSchedule`].
///
/// This is the engine entry point for sparse scenarios: a generator like
/// [`CalendarQueue`] yields contacts lazily, so a run over `n = 10⁵–10⁶`
/// nodes never holds the full schedule in memory — per-step work is
/// `O(active contacts)`, and per-node state stays in the dense
/// [`SimState`] arena. [`run_with_faults`] is exactly this function
/// applied to `schedule.iter().copied()`, so dense-mode behaviour is
/// bit-identical to previous builds.
///
/// The stream contract matches what a schedule provides: events sorted
/// ascending by `(time, a, b)`, endpoints distinct and `< n`, times
/// within `[0, horizon]`. The engine does not re-validate the stream.
///
/// A stream whose `size_hint` is exact (`(k, Some(k))`, as for a slice
/// iterator or [`contact_graph::SampledEvents`]) may not be read to its
/// end. Once the run is idle — every message injected, no copy
/// buffered, no fault plan, and a protocol that does not
/// [observe contacts](RoutingProtocol::observes_contacts) — no later
/// contact can change the report, so the engine stops pulling and adds
/// the `k` unread contacts to [`SimCounters::contacts`]. A stream must
/// therefore never report an exact size it does not have. A stream with
/// an inexact hint, such as [`CalendarQueue`], is read to its end.
///
/// # Errors
///
/// Returns a [`SimError`] if any message is malformed for `n` nodes or
/// the plan fails [`FaultPlan::validate`].
#[allow(clippy::too_many_arguments)]
pub fn run_stream<P, R, F, I>(
    n: usize,
    horizon: Time,
    events: I,
    protocol: &mut P,
    messages: Vec<Message>,
    config: &SimConfig,
    plan: &FaultPlan,
    fault_rng: &mut F,
    rng: &mut R,
) -> Result<SimReport, SimError>
where
    P: RoutingProtocol + ?Sized,
    R: RngCore,
    F: RngCore,
    I: IntoIterator<Item = ContactEvent>,
{
    plan.validate().map_err(SimError::InvalidFaultPlan)?;
    if config.wire_mode && !protocol.wire_capable() {
        return Err(SimError::WireUnsupported(protocol.name().to_string()));
    }
    let (messages, injected, coded) = validate_and_expand(messages, n, config)?;

    ARENA.with(|arena| match arena.try_borrow_mut() {
        Ok(mut state) => run_inner(
            n, horizon, events, protocol, messages, injected, coded, config, plan, fault_rng, rng,
            &mut state,
        ),
        // Reentrant call (a protocol running a nested simulation): fall
        // back to fresh state rather than aliasing the arena.
        Err(_) => run_inner(
            n,
            horizon,
            events,
            protocol,
            messages,
            injected,
            coded,
            config,
            plan,
            fault_rng,
            rng,
            &mut SimState::default(),
        ),
    })
}

/// Expanded workload: per-fragment messages, original ids, coded-run state.
type ExpandedWorkload = (Vec<Message>, Vec<MessageId>, Option<CodedRun>);

/// Validates the caller's messages against an `n`-node world and, in
/// coded mode, expands them into per-fragment messages.
fn validate_and_expand(
    messages: Vec<Message>,
    n: usize,
    config: &SimConfig,
) -> Result<ExpandedWorkload, SimError> {
    let mut ids = HashSet::new();
    for m in &messages {
        if m.source.index() >= n || m.destination.index() >= n {
            return Err(SimError::NodeOutOfRange(m.id));
        }
        if m.source == m.destination {
            return Err(SimError::SelfAddressed(m.id));
        }
        if m.copies == 0 {
            return Err(SimError::ZeroCopies(m.id));
        }
        if !ids.insert(m.id) {
            return Err(SimError::DuplicateId(m.id));
        }
    }

    // The report's injected list stays keyed by the caller's messages in
    // their original order, whether or not they get expanded into coded
    // fragments below (metrics iterate it, so its order is load-bearing).
    let injected: Vec<MessageId> = messages.iter().map(|m| m.id).collect();

    // Coded mode: expand every message into `m` single-copy fragments.
    // Fragments are pushed in original message order (index ascending),
    // so injection-time RNG draws line up with the caller's ordering the
    // same way replica-mode injections do.
    let (messages, coded) = match config.copy_mode {
        CopyMode::Replica(_) => (messages, None),
        CopyMode::Coded { k, m } => {
            check_code_shape((k, m)).map_err(SimError::InvalidCodeParameters)?;
            if let Some(bad) = messages.iter().find(|msg| msg.id.0 >= FRAG_BASE) {
                return Err(SimError::InvalidCodeParameters(format!(
                    "message {} lies inside the reserved fragment id band (>= {FRAG_BASE})",
                    bad.id
                )));
            }
            let mut fragments = Vec::with_capacity(messages.len() * m as usize);
            for parent in &messages {
                for idx in 0..m {
                    fragments.push(Message {
                        id: fragment_id(parent.id, idx),
                        copies: 1,
                        ..parent.clone()
                    });
                }
            }
            let mut parents = messages;
            parents.sort_unstable_by_key(|p| p.id);
            let count = parents.len();
            (
                fragments,
                Some(CodedRun {
                    k,
                    m,
                    parents,
                    frag_delivered: vec![0; count],
                    parent_delivered: vec![None; count],
                }),
            )
        }
    };
    Ok((messages, injected, coded))
}

/// A calendar event queue (Brown, CACM 1988): lazily generates the
/// Poisson contact stream of a sparse pair set, in exactly ascending
/// `(time, a, b)` order, without ever materializing the full schedule.
///
/// Every active pair has at most one pending arrival, keyed by
/// `(time bits, pair index)` — for the non-negative times exponential
/// sampling produces, IEEE-754 bit patterns order like the floats, and
/// pair indices ascend in `(a, b)` order, so the key order is the derived
/// `Ord` on [`ContactEvent`] that [`ContactSchedule`] sorting uses. The
/// time axis is cut into buckets sized from the total rate `Σλ`, so a
/// bucket holds a handful of arrivals whatever the pair count. Buckets
/// live on a power-of-two ring (about one slot per pair) that is reused
/// as time advances; a bucket's pending arrivals are threaded through
/// per-pair links, so the ring needs no per-bucket storage. Arrivals
/// beyond the ring's window wait in a small min-heap. The current bucket
/// is sorted on entry, and each pop draws that pair's *next* exponential
/// arrival from the queue's own RNG and re-files it.
///
/// Memory is `O(active pairs)` and fixed at construction (see
/// [`CalendarQueue::approx_bytes`]); per-event work is `O(1)` expected
/// plus a sort of a handful of keys per bucket, independent of `n`.
///
/// Feed it to [`run_stream`]:
///
/// ```
/// use contact_graph::{NodeId, Rate, SparseContacts, Time};
/// use dtn_sim::engine::CalendarQueue;
/// use rand::SeedableRng;
///
/// let pairs = vec![(NodeId(0), NodeId(1), Rate::new(0.5))];
/// let sparse = SparseContacts::from_pairs(2, pairs);
/// let rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let events: Vec<_> = CalendarQueue::from_sparse(&sparse, Time::new(100.0), rng).collect();
/// assert!(events.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub struct CalendarQueue<R: RngCore> {
    /// Per-pair state, ascending by `(a, b)` — the index into this list
    /// is the key's tie-break.
    pairs: Vec<PairSlot>,
    horizon: f64,
    /// Buckets per time unit: arrival `t` lies in absolute bucket
    /// `(t * inv_width) as u64`.
    inv_width: f64,
    /// List head (a pair index, or [`NIL`]) of each ring slot; absolute
    /// bucket `k` uses slot `k & (ring.len() - 1)`. The ring covers
    /// buckets `cur + 1 .. cur + ring.len()`, so a slot holds one bucket.
    ring: Vec<u32>,
    /// Arrivals threaded through the ring.
    in_ring: usize,
    /// Absolute bucket whose arrivals are in `current`.
    cur: u64,
    /// Bucket `cur`'s arrivals, sorted descending so the minimum pops off
    /// the end.
    current: Vec<(u64, u32)>,
    /// Arrivals filed at or past bucket `cur + ring.len()`; each joins
    /// `current` when its bucket is entered.
    overflow: BinaryHeap<Reverse<(u64, u32)>>,
    rng: R,
}

/// Ring link terminator.
const NIL: u32 = u32::MAX;

/// Mean arrivals per bucket the width is sized for: enough to amortize a
/// bucket's entry, few enough that sorting it is a short insertion sort.
const ARRIVALS_PER_BUCKET: f64 = 8.0;

/// One active pair: its endpoints and rate, plus its pending arrival
/// while that arrival is threaded on the ring.
struct PairSlot {
    a: NodeId,
    b: NodeId,
    rate: f64,
    /// Time bits of the pending arrival (valid while on the ring).
    bits: u64,
    /// Next pair in the same ring slot, or [`NIL`].
    next: u32,
}

impl<R: RngCore> CalendarQueue<R> {
    /// Builds the queue over a sparse model's active pairs, seeding every
    /// pair's first arrival (drawn in `(a, b)` pair order) on
    /// `[0, horizon]`.
    ///
    /// The queue owns `rng`: re-arrival draws interleave with event
    /// consumption, so the stream must not share a generator with the
    /// protocol.
    pub fn from_sparse(model: &SparseContacts, horizon: Time, rng: R) -> Self {
        Self::new(model.iter_pairs().collect(), horizon, rng)
    }

    /// Builds the queue from an explicit pair list (normalized and
    /// sorted internally; zero-rate pairs never fire and are dropped).
    ///
    /// # Panics
    ///
    /// Panics on a self-loop pair.
    pub fn new(pairs: Vec<(NodeId, NodeId, Rate)>, horizon: Time, rng: R) -> Self {
        let mut norm: Vec<PairSlot> = pairs
            .into_iter()
            .filter(|(_, _, r)| !r.is_zero())
            .map(|(a, b, r)| {
                assert!(a != b, "a node has no contact process with itself");
                PairSlot {
                    a: a.min(b),
                    b: a.max(b),
                    rate: r.as_f64(),
                    bits: 0,
                    next: NIL,
                }
            })
            .collect();
        norm.sort_unstable_by_key(|p| (p.a, p.b));
        assert!(
            norm.len() < NIL as usize,
            "calendar queue supports fewer than 2^32 - 1 pairs"
        );

        // Size buckets by event rate: the stream runs at `Σλ` arrivals
        // per time unit.
        let total_rate: f64 = norm.iter().map(|p| p.rate).sum();
        let inv_width = total_rate / ARRIVALS_PER_BUCKET;
        let n = norm.len();
        let mut queue = CalendarQueue {
            pairs: norm,
            horizon: horizon.as_f64().max(0.0),
            inv_width,
            ring: vec![NIL; n.next_power_of_two()],
            in_ring: 0,
            cur: 0,
            // At most one arrival per pair is pending, so neither buffer
            // ever grows past this: the footprint is fixed from here on.
            current: Vec::with_capacity(n),
            overflow: BinaryHeap::with_capacity(n),
            rng,
        };
        for i in 0..n {
            let rate = queue.pairs[i].rate;
            if let Some(d) = sample_intercontact(Rate::new(rate), &mut queue.rng) {
                // `0.0 + d` turns the `-0.0` a zero uniform draw yields
                // into `+0.0`, so every key's bits order like its time.
                queue.file(0.0 + d.as_f64(), i as u32);
            }
        }
        queue
    }

    /// Absolute bucket of time `t` (monotone in `t`).
    #[inline]
    fn bucket_of(&self, t: f64) -> u64 {
        (t * self.inv_width) as u64
    }

    /// Files the arrival `(t, pair)`, discarding times past the horizon.
    #[inline]
    fn file(&mut self, t: f64, pair: u32) {
        if t > self.horizon {
            return;
        }
        let key = (t.to_bits(), pair);
        let k = self.bucket_of(t);
        // Arrivals are filed at or after the time just popped (or during
        // construction, at bucket 0), so `k >= cur`.
        let ahead = k - self.cur;
        if ahead == 0 {
            let at = self.current.partition_point(|&e| e > key);
            self.current.insert(at, key);
        } else if ahead < self.ring.len() as u64 {
            let slot = k as usize & (self.ring.len() - 1);
            let p = &mut self.pairs[pair as usize];
            p.bits = key.0;
            p.next = self.ring[slot];
            self.ring[slot] = pair;
            self.in_ring += 1;
        } else {
            self.overflow.push(Reverse(key));
        }
    }

    /// Makes bucket `k` current: collects its ring slot and the overflow
    /// arrivals now due, sorted for popping.
    fn enter(&mut self, k: u64) {
        self.cur = k;
        let slot = k as usize & (self.ring.len() - 1);
        let mut p = std::mem::replace(&mut self.ring[slot], NIL);
        while p != NIL {
            let s = &self.pairs[p as usize];
            self.current.push((s.bits, p));
            p = s.next;
            self.in_ring -= 1;
        }
        while let Some(&Reverse(key)) = self.overflow.peek() {
            if self.bucket_of(f64::from_bits(key.0)) != k {
                break;
            }
            self.overflow.pop();
            self.current.push(key);
        }
        self.current.sort_unstable_by(|x, y| y.cmp(x));
    }

    /// Heap footprint in bytes, by capacity. Every buffer is sized for
    /// its worst case at construction and never grows, so the figure a
    /// fresh queue reports bounds the queue for its whole drain.
    pub fn approx_bytes(&self) -> usize {
        self.pairs.capacity() * size_of::<PairSlot>()
            + self.ring.capacity() * size_of::<u32>()
            + self.current.capacity() * size_of::<(u64, u32)>()
            + self.overflow.capacity() * size_of::<Reverse<(u64, u32)>>()
    }
}

impl<R: RngCore> Iterator for CalendarQueue<R> {
    type Item = ContactEvent;

    fn next(&mut self) -> Option<ContactEvent> {
        let (bits, pair) = loop {
            if let Some(key) = self.current.pop() {
                break key;
            }
            // Step to the next bucket, or jump straight to the overflow's
            // earliest one when the ring is empty.
            let k = if self.in_ring > 0 {
                self.cur + 1
            } else {
                let &Reverse((bits, _)) = self.overflow.peek()?;
                self.bucket_of(f64::from_bits(bits))
            };
            self.enter(k);
        };
        let t = f64::from_bits(bits);
        let p = &self.pairs[pair as usize];
        let (a, b, rate) = (p.a, p.b, p.rate);
        if let Some(d) = sample_intercontact(Rate::new(rate), &mut self.rng) {
            self.file(t + d.as_f64(), pair);
        }
        Some(ContactEvent {
            time: Time::new(t),
            a,
            b,
        })
    }
}

/// The simulation proper, over pre-validated messages and a reset arena.
#[allow(clippy::too_many_arguments)]
fn run_inner<P, R, F, I>(
    n: usize,
    horizon: Time,
    events: I,
    protocol: &mut P,
    messages: Vec<Message>,
    injected: Vec<MessageId>,
    mut coded: Option<CodedRun>,
    config: &SimConfig,
    plan: &FaultPlan,
    fault_rng: &mut F,
    rng: &mut R,
    state: &mut SimState,
) -> Result<SimReport, SimError>
where
    P: RoutingProtocol + ?Sized,
    R: RngCore,
    F: RngCore,
    I: IntoIterator<Item = ContactEvent>,
{
    // Timing is gated so disabled telemetry skips even the clock reads.
    let started = obs::metrics_enabled().then(Instant::now);

    // Churn timelines are pre-drawn here (node order), so the fault RNG
    // layout is independent of the contact pattern.
    let mut faults = (!plan.is_noop()).then(|| FaultState::new(plan, n, horizon, fault_rng));
    let track_arrivals = faults.as_ref().is_some_and(FaultState::has_churn);

    state.reset(n, &messages, track_arrivals);

    let mut pending: Vec<Message> = messages;
    // Inject latest-first so we can pop from the back as time advances.
    pending.sort_by_key(|m| std::cmp::Reverse(m.created));

    let inject_due = |state: &mut SimState,
                      pending: &mut Vec<Message>,
                      protocol: &mut P,
                      rng: &mut R,
                      faults: &Option<FaultState>,
                      coded: &Option<CodedRun>,
                      now: Time| {
        while pending.last().is_some_and(|m| m.created <= now) {
            let m = pending.pop().expect("checked non-empty");
            let cs = protocol.on_inject(&m, rng);
            obs::trace_event(|| TraceEvent::Inject {
                time: m.created.as_f64(),
                message: m.id.0,
                source: m.source.0 as u64,
                destination: m.destination.0 as u64,
            });
            // Wire mode: the source builds the real packet at injection
            // time (from its own RNG stream, so abstract draws are
            // untouched).
            if config.wire_mode {
                let seals_before = state.counters.wire_aead_seals;
                protocol.wire_on_inject(&m, &mut state.counters);
                obs::trace_event(|| TraceEvent::Seal {
                    time: m.created.as_f64(),
                    message: m.id.0,
                    node: m.source.0 as u64,
                    layers: state.counters.wire_aead_seals - seals_before,
                });
            }
            // Coded mode: the source Reed-Solomon-encodes the real payload
            // once per parent, at its first fragment's injection.
            if let Some(cr) = coded.as_ref() {
                state.counters.fragments_injected += 1;
                if let Some((pid, idx)) = fragment_parent(m.id) {
                    if idx == 0 {
                        let p = cr
                            .parents
                            .binary_search_by_key(&pid, |p| p.id)
                            .expect("fragment has a parent");
                        protocol.coded_on_encode(&cr.parents[p], cr.k, cr.m, &mut state.counters);
                    }
                }
            }
            let rank = state.rank(m.id);
            state.seen_insert(m.source, rank);
            state.materialized[rank] = true;
            let source = m.source;
            let id = m.id;
            let created = m.created;
            // A source that is crashed at the creation instant loses the
            // copy outright (the message still counts as injected).
            if faults
                .as_ref()
                .is_some_and(|f| f.node_down(source, created))
            {
                state.counters.fault_buffer_wipes += 1;
                obs::trace_event(|| TraceEvent::FaultBufferWipe {
                    time: created.as_f64(),
                    node: source.0 as u64,
                    message: id.0,
                });
                continue;
            }
            // A full source buffer refuses (or evicts for) the new
            // message, per the drop policy.
            if make_room(state, config, source, created) {
                state.buf_insert(source, id, cs);
                if track_arrivals {
                    arrival_insert(&mut state.arrivals[source.index()], id, created);
                }
            } else {
                obs::trace_event(|| TraceEvent::Drop {
                    time: created.as_f64(),
                    message: id.0,
                    node: source.0 as u64,
                });
            }
        }
    };

    // Once every message is injected and no copy is buffered, a contact
    // can change nothing but the contact count — unless faults or the
    // protocol watch it. An exact-size stream then stops early and counts
    // its tail instead of replaying it.
    let may_idle = faults.is_none() && !protocol.observes_contacts();
    let mut idle_tail = 0;
    let mut events = events.into_iter();
    while let Some(event) = events.next() {
        state.counters.contacts += 1;
        inject_due(
            state,
            &mut pending,
            protocol,
            rng,
            &faults,
            &coded,
            event.time,
        );
        if may_idle && pending.is_empty() && state.buffered == 0 {
            if let (tail, Some(upper)) = events.size_hint() {
                if tail == upper {
                    idle_tail = tail;
                    state.counters.contacts += tail as u64;
                    break;
                }
            }
        }

        if let Some(f) = faults.as_mut() {
            // Apply pending crash wipes at the endpoints before anything
            // can observe their buffers.
            apply_crashes(state, f, event.a, event.time);
            apply_crashes(state, f, event.b, event.time);
            // A contact with a crashed endpoint never happens; a live
            // contact can still fail i.i.d. (radio fault, missed
            // beacon). Neither is observed by the protocol.
            if f.node_down(event.a, event.time) || f.node_down(event.b, event.time) {
                state.counters.fault_contacts_dropped += 1;
                obs::trace_event(|| TraceEvent::FaultContactDrop {
                    time: event.time.as_f64(),
                    a: event.a.0 as u64,
                    b: event.b.0 as u64,
                });
                continue;
            }
            if f.contact_dropped(fault_rng) {
                state.counters.fault_contacts_dropped += 1;
                obs::trace_event(|| TraceEvent::FaultContactDrop {
                    time: event.time.as_f64(),
                    a: event.a.0 as u64,
                    b: event.b.0 as u64,
                });
                continue;
            }
        }

        // Let utility-based protocols observe every encounter.
        protocol.on_contact_observed(event.a, event.b, event.time);

        // Enforce deadlines lazily at the two endpoints.
        for node in [event.a, event.b] {
            let ids = &state.ids;
            let expires = &state.expires;
            let buf = &mut state.buffers[node.index()];
            if buf.is_empty() {
                continue;
            }
            let before = buf.len();
            buf.retain(|&(id, _)| {
                let r = ids.binary_search(&id).expect("buffered id is known");
                let live = event.time <= expires[r];
                if !live {
                    obs::trace_event(|| TraceEvent::Expire {
                        time: event.time.as_f64(),
                        message: id.0,
                        node: node.0 as u64,
                    });
                }
                live
            });
            let expired = before - buf.len();
            state.buffered -= expired;
            state.counters.deadline_expiries += expired as u64;
        }

        if state.buffers[event.a.index()].is_empty() && state.buffers[event.b.index()].is_empty() {
            continue;
        }

        // Decisions for both directions are computed on the pre-transfer
        // state, then applied, so a message cannot hop twice in one
        // contact. The protocol is only consulted for a non-empty carrier.
        let decisions_ab = if state.buffers[event.a.index()].is_empty() {
            Vec::new()
        } else {
            let view = View {
                now: event.time,
                carrier: event.a,
                peer: event.b,
                state,
            };
            protocol.on_contact(&view, rng)
        };
        let decisions_ba = if state.buffers[event.b.index()].is_empty() {
            Vec::new()
        } else {
            let view = View {
                now: event.time,
                carrier: event.b,
                peer: event.a,
                state,
            };
            protocol.on_contact(&view, rng)
        };

        // Mid-transfer truncation: the contact window may close early,
        // completing only a prefix of the planned transfers (both
        // directions combined, in apply order).
        let total = decisions_ab.len() + decisions_ba.len();
        let (keep_ab, keep_ba) = match faults
            .as_ref()
            .and_then(|f| f.truncation_point(total, fault_rng))
        {
            Some(keep) => {
                state.counters.fault_transfers_truncated += (total - keep) as u64;
                obs::trace_event(|| TraceEvent::FaultTransferTruncated {
                    time: event.time.as_f64(),
                    from: event.a.0 as u64,
                    to: event.b.0 as u64,
                });
                let keep_ab = keep.min(decisions_ab.len());
                (keep_ab, keep - keep_ab)
            }
            None => (decisions_ab.len(), decisions_ba.len()),
        };

        apply(
            state,
            config,
            protocol,
            event.time,
            event.a,
            event.b,
            &decisions_ab[..keep_ab],
            faults.as_ref(),
            fault_rng,
            &mut coded,
        );
        apply(
            state,
            config,
            protocol,
            event.time,
            event.b,
            event.a,
            &decisions_ba[..keep_ba],
            faults.as_ref(),
            fault_rng,
            &mut coded,
        );
    }

    // Inject anything scheduled after the last contact so the report's
    // injected set is complete (they can never be delivered).
    inject_due(state, &mut pending, protocol, rng, &faults, &coded, horizon);

    // Account for crashes no contact ever surfaced, so `faults.crashes`
    // counts every crash up to the horizon regardless of the contact
    // pattern.
    if let Some(f) = faults.as_mut() {
        for node in 0..n {
            apply_crashes(state, f, NodeId(node as u32), horizon);
        }
    }

    state.counters.injected = injected.len() as u64;
    state.counters.delivered = match coded.as_ref() {
        // Coded mode: `injected`/`delivered` stay message-level (the
        // fragment-level tallies live in the `fragments_*` counters).
        Some(cr) => cr.parent_delivered.iter().flatten().count() as u64,
        None => state.delivered.iter().flatten().count() as u64,
    };
    state.counters.expired = state.counters.injected - state.counters.delivered;

    if let Some(started) = started {
        let elapsed = started.elapsed().as_secs_f64();
        obs::record("sim.run_secs", elapsed);
        state.counters.for_each_named("sim", obs::counter_add);
        obs::counter_add("sim.idle_tail_contacts", idle_tail as u64);
        // Byte-budget accounting: the arena's current footprint plus a
        // high-water mark across the whole process. Gauges survive
        // `flush_point`, so both land in every `--metrics-out` line.
        let bytes = state.approx_bytes() as i64;
        obs::gauge_set("sim.state_bytes", bytes);
        obs::gauge_max("sim.state_bytes_hwm", bytes);
        obs::trace!(
            "dtn_sim::engine",
            "run: {} contacts, {} forwards, {}/{} delivered in {:.3}ms",
            state.counters.contacts,
            state.counters.total_forwards(),
            state.counters.delivered,
            state.counters.injected,
            elapsed * 1e3,
        );
    }

    // Assemble the report from the dense state in ascending-id order —
    // exactly the iteration order of the previous map representation.
    // Coded mode re-aggregates fragments back to their parents so the
    // report stays message-keyed (a parent's transmissions are the sum
    // over its fragments; delivery time is the k-th fragment's arrival),
    // with per-fragment delivery times preserved in `CodedOutcome`.
    let mut messages_out = Vec::with_capacity(state.msgs.len());
    let mut delivered_out = BTreeMap::new();
    let mut transmissions_out = BTreeMap::new();
    let mut coded_out = None;
    match coded.as_ref() {
        Some(cr) => {
            let per = cr.m as usize;
            let mut fragment_delivered = BTreeMap::new();
            for (p, parent) in cr.parents.iter().enumerate() {
                let base = p * per;
                if !state.materialized[base] {
                    continue;
                }
                messages_out.push(parent.clone());
                transmissions_out.insert(
                    parent.id,
                    state.transmissions[base..base + per].iter().sum::<u64>(),
                );
                if let Some(t) = cr.parent_delivered[p] {
                    delivered_out.insert(parent.id, t);
                }
                for i in 0..per {
                    if let Some(t) = state.delivered[base + i] {
                        fragment_delivered.insert(state.ids[base + i], t);
                    }
                }
            }
            coded_out = Some(CodedOutcome {
                k: cr.k,
                m: cr.m,
                fragment_delivered,
            });
        }
        None => {
            for r in 0..state.msgs.len() {
                if !state.materialized[r] {
                    continue;
                }
                messages_out.push(state.msgs[r].clone());
                transmissions_out.insert(state.ids[r], state.transmissions[r]);
                if let Some(t) = state.delivered[r] {
                    delivered_out.insert(state.ids[r], t);
                }
            }
        }
    }

    let mut report = SimReport::new(
        protocol.name().to_string(),
        messages_out,
        injected,
        delivered_out,
        transmissions_out,
        std::mem::take(&mut state.forward_log),
        Some(state.counters),
    );
    if let Some(outcome) = coded_out {
        report = report.with_coded(outcome);
    }
    Ok(report)
}

/// Applies every crash of `node` at or before `now` whose wipe is still
/// pending: destroys buffered copies that had arrived by the crash
/// instant and, with [`ChurnMemory::Forget`], resets the summary vector
/// to the surviving copies.
fn apply_crashes(state: &mut SimState, faults: &mut FaultState, node: NodeId, now: Time) {
    for crash in faults.take_crashes(node, now) {
        state.counters.fault_crashes += 1;
        obs::trace_event(|| TraceEvent::FaultCrash {
            time: crash.as_f64(),
            node: node.0 as u64,
        });
        let arrivals = &state.arrivals[node.index()];
        let buf = &mut state.buffers[node.index()];
        let before = buf.len();
        buf.retain(|&(id, _)| {
            let survives = arrivals
                .binary_search_by_key(&id, |&(aid, _)| aid)
                .is_ok_and(|p| arrivals[p].1 > crash);
            if !survives {
                obs::trace_event(|| TraceEvent::FaultBufferWipe {
                    time: crash.as_f64(),
                    node: node.0 as u64,
                    message: id.0,
                });
            }
            survives
        });
        let wiped = before - buf.len();
        state.buffered -= wiped;
        state.counters.fault_buffer_wipes += wiped as u64;
        if faults.churn_memory() == Some(ChurnMemory::Forget) {
            // RAM-only summary vector: only copies that arrived after
            // the crash are still known.
            let words = state.seen_words;
            let base = node.index() * words;
            state.seen[base..base + words].fill(0);
            let (seen, buffers, ids) = (&mut state.seen, &state.buffers, &state.ids);
            for &(id, _) in &buffers[node.index()] {
                let r = ids.binary_search(&id).expect("buffered id is known");
                seen[base + r / 64] |= 1 << (r % 64);
            }
        }
    }
}

/// Removes the transferred tickets from the carrier's copy per the
/// forward kind and returns the ticket count travelling to the
/// receiver. The split ticket range must already be validated.
#[inline]
fn take_from_carrier(state: &mut SimState, carrier: NodeId, fwd: &Forward, copy: CopyState) -> u32 {
    match fwd.kind {
        ForwardKind::Handoff => {
            state.buf_remove(carrier, fwd.message);
            copy.tickets
        }
        ForwardKind::Split {
            tickets_to_receiver,
        } => {
            let remaining = copy.tickets - tickets_to_receiver;
            if remaining == 0 {
                state.buf_remove(carrier, fwd.message);
            } else {
                state.buf_insert(
                    carrier,
                    fwd.message,
                    CopyState {
                        tickets: remaining,
                        tag: copy.tag,
                    },
                );
            }
            tickets_to_receiver
        }
        ForwardKind::Replicate => copy.tickets,
    }
}

#[allow(clippy::too_many_arguments)]
fn apply<P>(
    state: &mut SimState,
    config: &SimConfig,
    protocol: &mut P,
    now: Time,
    carrier: NodeId,
    peer: NodeId,
    decisions: &[Forward],
    faults: Option<&FaultState>,
    fault_rng: &mut dyn RngCore,
    coded: &mut Option<CodedRun>,
) where
    P: RoutingProtocol + ?Sized,
{
    let track_arrivals = faults.is_some_and(FaultState::has_churn);
    for fwd in decisions {
        let Ok(pos) = buf_find(&state.buffers[carrier.index()], fwd.message) else {
            // The protocol referenced a message the carrier no longer
            // holds; ignore but count.
            state.counters.rejected_forwards += 1;
            continue;
        };
        let copy = state.buffers[carrier.index()][pos].1;
        // Buffered ids are always known, so the rank lookup cannot fail.
        let rank = state.rank(fwd.message);
        let destination = state.msgs[rank].destination;

        // Never forward to a node already holding or having held the copy.
        let peer_holds = buf_find(&state.buffers[peer.index()], fwd.message).is_ok();
        let peer_seen = state.seen_contains(peer, rank);
        if peer_holds || (peer_seen && peer != destination) {
            state.counters.rejected_forwards += 1;
            continue;
        }
        // Suppress transfers of already-delivered messages to the
        // destination (it has the message).
        if peer == destination && state.delivered[rank].is_some() {
            state.counters.rejected_forwards += 1;
            continue;
        }
        // Sender-side ticket validation: an invalid split never goes on
        // air.
        if let ForwardKind::Split {
            tickets_to_receiver,
        } = fwd.kind
        {
            if tickets_to_receiver == 0 || tickets_to_receiver > copy.tickets {
                state.counters.rejected_forwards += 1;
                continue;
            }
        }
        // In-flight loss: the sender pays the transmission (and, for
        // handoff/split, the tickets), the receiver gets nothing — so
        // no admission is attempted and no forward is logged.
        if faults.is_some_and(|f| f.transfer_lost(fault_rng)) {
            take_from_carrier(state, carrier, fwd, copy);
            state.transmissions[rank] += 1;
            state.counters.fault_messages_lost += 1;
            obs::trace_event(|| TraceEvent::FaultMessageLost {
                time: now.as_f64(),
                message: fwd.message.0,
                from: carrier.0 as u64,
                to: peer.0 as u64,
            });
            if config.wire_mode {
                protocol.wire_on_transfer(fwd.message, fwd.receiver_tag, true, &mut state.counters);
            }
            continue;
        }
        // Buffer admission at the receiver (destinations consume without
        // buffering). Must happen before any carrier-side mutation.
        if peer != destination && !make_room(state, config, peer, now) {
            obs::trace_event(|| TraceEvent::Drop {
                time: now.as_f64(),
                message: fwd.message.0,
                node: peer.0 as u64,
            });
            continue;
        }

        // Ticket accounting on the carrier side.
        let receiver_tickets = take_from_carrier(state, carrier, fwd, copy);

        // The transmission happens.
        match fwd.kind {
            ForwardKind::Handoff => state.counters.forwards_handoff += 1,
            ForwardKind::Split { .. } => state.counters.forwards_split += 1,
            ForwardKind::Replicate => state.counters.forwards_replicate += 1,
        }
        state.transmissions[rank] += 1;
        obs::trace_event(|| TraceEvent::Forward {
            time: now.as_f64(),
            message: fwd.message.0,
            from: carrier.0 as u64,
            to: peer.0 as u64,
            kind: kind_label(fwd.kind).to_string(),
            route_group: fwd.receiver_tag,
        });
        if config.wire_mode {
            protocol.wire_on_transfer(fwd.message, fwd.receiver_tag, false, &mut state.counters);
            obs::trace_event(|| TraceEvent::Peel {
                time: now.as_f64(),
                message: fwd.message.0,
                node: peer.0 as u64,
            });
        }
        state.forward_log.push(ForwardRecord {
            time: now,
            message: fwd.message,
            from: carrier,
            to: peer,
            receiver_tag: fwd.receiver_tag,
        });
        state.seen_insert(peer, rank);

        if peer == destination {
            // Delivery: the destination consumes the copy.
            if state.delivered[rank].is_none() {
                state.delivered[rank] = Some(now);
                obs::trace_event(|| TraceEvent::Deliver {
                    time: now.as_f64(),
                    message: fwd.message.0,
                    node: peer.0 as u64,
                });
                // Coded mode: the parent completes the instant its k-th
                // distinct fragment arrives. Fragments beyond the k-th
                // keep flowing (sources are unaware of completion) and
                // still land in the fragment tallies above.
                if let Some(cr) = coded.as_mut() {
                    state.counters.fragments_delivered += 1;
                    let per = cr.m as usize;
                    let p = rank / per;
                    cr.frag_delivered[p] += 1;
                    if cr.frag_delivered[p] == cr.k {
                        cr.parent_delivered[p] = Some(now);
                        let base = p * per;
                        let delivered_idxs: Vec<u32> = (0..per)
                            .filter(|&i| state.delivered[base + i].is_some())
                            .map(|i| i as u32)
                            .collect();
                        let parent = cr.parents[p].id;
                        protocol.coded_on_decode(parent, &delivered_idxs, &mut state.counters);
                        obs::trace_event(|| TraceEvent::Deliver {
                            time: now.as_f64(),
                            message: parent.0,
                            node: peer.0 as u64,
                        });
                    }
                }
            }
        } else {
            state.buf_insert(
                peer,
                fwd.message,
                CopyState {
                    tickets: receiver_tickets,
                    tag: fwd.receiver_tag,
                },
            );
            if track_arrivals {
                arrival_insert(&mut state.arrivals[peer.index()], fwd.message, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MAX_CODE_FRAGMENTS;
    use contact_graph::{ContactEvent, TimeDelta};
    use rand::rngs::mock::StepRng;

    /// Forwards everything to anyone who hasn't seen it (epidemic-like).
    struct Flood;
    impl RoutingProtocol for Flood {
        fn name(&self) -> &str {
            "flood"
        }
        fn on_contact(&mut self, view: &dyn ContactView, _: &mut dyn RngCore) -> Vec<Forward> {
            view.carried()
                .iter()
                .copied()
                .filter(|(id, _)| !view.peer_has(*id) && !view.is_delivered(*id))
                .map(|(id, _)| Forward {
                    message: id,
                    kind: ForwardKind::Replicate,
                    receiver_tag: 0,
                })
                .collect()
        }
    }

    fn schedule(events: Vec<(f64, u32, u32)>, n: usize, horizon: f64) -> ContactSchedule {
        let evs = events
            .into_iter()
            .map(|(t, a, b)| ContactEvent::new(Time::new(t), NodeId(a), NodeId(b)))
            .collect();
        ContactSchedule::from_events(evs, n, Time::new(horizon))
    }

    fn msg(id: u64, src: u32, dst: u32, created: f64, deadline: f64) -> Message {
        Message {
            id: MessageId(id),
            source: NodeId(src),
            destination: NodeId(dst),
            created: Time::new(created),
            deadline: TimeDelta::new(deadline),
            copies: 1,
        }
    }

    fn rng() -> StepRng {
        StepRng::new(0, 1)
    }

    #[test]
    fn two_hop_delivery() {
        // 0 meets 1 at t=1, 1 meets 2 at t=2: flood delivers 0→2 via 1.
        let s = schedule(vec![(1.0, 0, 1), (2.0, 1, 2)], 3, 10.0);
        let report = run(
            &s,
            &mut Flood,
            vec![msg(1, 0, 2, 0.0, 10.0)],
            &SimConfig::default(),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(report.delivery_time(MessageId(1)), Some(Time::new(2.0)));
        assert_eq!(report.transmissions_for(MessageId(1)), 2);
        assert_eq!(report.delivery_rate(), 1.0);
        assert_eq!(
            report.delivered_path(MessageId(1)),
            Some(vec![NodeId(0), NodeId(1), NodeId(2)])
        );
    }

    #[test]
    fn deadline_enforced() {
        // The only path takes until t=5 but the deadline is 3.
        let s = schedule(vec![(1.0, 0, 1), (5.0, 1, 2)], 3, 10.0);
        let report = run(
            &s,
            &mut Flood,
            vec![msg(1, 0, 2, 0.0, 3.0)],
            &SimConfig::default(),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(report.delivery_rate(), 0.0);
        assert!(report.delivery_time(MessageId(1)).is_none());
    }

    #[test]
    fn delivery_exactly_at_deadline_counts() {
        let s = schedule(vec![(3.0, 0, 2)], 3, 10.0);
        let report = run(
            &s,
            &mut Flood,
            vec![msg(1, 0, 2, 0.0, 3.0)],
            &SimConfig::default(),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(report.delivery_rate(), 1.0);
    }

    #[test]
    fn no_double_hop_in_one_contact() {
        // 0 meets 1 at t=1; 1 meets 2 at t=1 as well, but the message
        // arrives at 1 during the same instant's first contact — it may
        // still move on the *second* contact event (distinct event), so
        // use a single event to check the in-contact barrier: 0-2 direct.
        let s = schedule(vec![(1.0, 0, 1)], 3, 10.0);
        let report = run(
            &s,
            &mut Flood,
            vec![msg(1, 0, 2, 0.0, 10.0)],
            &SimConfig::default(),
            &mut rng(),
        )
        .unwrap();
        // Message moved 0→1 only; not delivered.
        assert_eq!(report.delivery_rate(), 0.0);
        assert_eq!(report.transmissions_for(MessageId(1)), 1);
    }

    #[test]
    fn seen_rejection_prevents_pingpong() {
        // 0→1, then 1 meets 0 again: the message must not bounce back.
        let s = schedule(vec![(1.0, 0, 1), (2.0, 0, 1), (3.0, 1, 2)], 3, 10.0);
        let report = run(
            &s,
            &mut Flood,
            vec![msg(1, 0, 2, 0.0, 10.0)],
            &SimConfig::default(),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(report.transmissions_for(MessageId(1)), 2); // 0→1, 1→2
        assert_eq!(report.delivery_rate(), 1.0);
    }

    #[test]
    fn injection_after_contacts_is_counted_but_undelivered() {
        let s = schedule(vec![(1.0, 0, 1)], 3, 10.0);
        let report = run(
            &s,
            &mut Flood,
            vec![msg(1, 0, 2, 5.0, 4.0)],
            &SimConfig::default(),
            &mut rng(),
        )
        .unwrap();
        assert_eq!(report.injected_count(), 1);
        assert_eq!(report.delivery_rate(), 0.0);
    }

    #[test]
    fn validation_errors() {
        let s = schedule(vec![(1.0, 0, 1)], 2, 10.0);
        let e = run(
            &s,
            &mut Flood,
            vec![msg(1, 0, 5, 0.0, 1.0)],
            &SimConfig::default(),
            &mut rng(),
        )
        .unwrap_err();
        assert_eq!(e, SimError::NodeOutOfRange(MessageId(1)));

        let e = run(
            &s,
            &mut Flood,
            vec![msg(1, 0, 0, 0.0, 1.0)],
            &SimConfig::default(),
            &mut rng(),
        )
        .unwrap_err();
        assert_eq!(e, SimError::SelfAddressed(MessageId(1)));

        let e = run(
            &s,
            &mut Flood,
            vec![msg(1, 0, 1, 0.0, 1.0), msg(1, 1, 0, 0.0, 1.0)],
            &SimConfig::default(),
            &mut rng(),
        )
        .unwrap_err();
        assert_eq!(e, SimError::DuplicateId(MessageId(1)));

        let mut m = msg(1, 0, 1, 0.0, 1.0);
        m.copies = 0;
        let e = run(&s, &mut Flood, vec![m], &SimConfig::default(), &mut rng()).unwrap_err();
        assert_eq!(e, SimError::ZeroCopies(MessageId(1)));
    }

    /// Splits one ticket to any peer (source-spray-like) to test ticket
    /// accounting.
    struct Spray;
    impl RoutingProtocol for Spray {
        fn name(&self) -> &str {
            "spray-test"
        }
        fn on_contact(&mut self, view: &dyn ContactView, _: &mut dyn RngCore) -> Vec<Forward> {
            view.carried()
                .iter()
                .copied()
                .filter(|(id, _)| !view.peer_has(*id))
                .map(|(id, _)| Forward {
                    message: id,
                    kind: ForwardKind::Split {
                        tickets_to_receiver: 1,
                    },
                    receiver_tag: 0,
                })
                .collect()
        }
    }

    #[test]
    fn ticket_split_conserves_total() {
        // Source has 2 tickets; meets 1 then 2; after both forwards its
        // copy is gone, so the third contact transfers nothing.
        let s = schedule(vec![(1.0, 0, 1), (2.0, 0, 2), (3.0, 0, 3)], 5, 10.0);
        let mut m = msg(1, 0, 4, 0.0, 10.0);
        m.copies = 2;
        let report = run(&s, &mut Spray, vec![m], &SimConfig::default(), &mut rng()).unwrap();
        assert_eq!(report.transmissions_for(MessageId(1)), 2);
    }

    #[test]
    fn delivered_message_not_redelivered() {
        // Two relays each hold a copy; both meet the destination.
        let s = schedule(
            vec![(1.0, 0, 1), (2.0, 0, 2), (3.0, 1, 4), (4.0, 2, 4)],
            5,
            10.0,
        );
        let mut m = msg(1, 0, 4, 0.0, 10.0);
        m.copies = 3;
        let report = run(&s, &mut Flood, vec![m], &SimConfig::default(), &mut rng()).unwrap();
        assert_eq!(report.delivery_time(MessageId(1)), Some(Time::new(3.0)));
        // The t=4 transfer to the destination was suppressed.
        assert_eq!(report.transmissions_for(MessageId(1)), 3);
    }

    #[test]
    fn wire_mode_rejects_non_wire_protocols() {
        let s = schedule(vec![(1.0, 0, 1)], 2, 10.0);
        let cfg = SimConfig {
            wire_mode: true,
            ..SimConfig::default()
        };
        let err = run(
            &s,
            &mut Flood,
            vec![msg(1, 0, 1, 0.0, 10.0)],
            &cfg,
            &mut rng(),
        )
        .unwrap_err();
        assert_eq!(err, SimError::WireUnsupported("flood".to_string()));
    }

    /// Flood plus no-op-free wire hooks: counts hook invocations so the
    /// engine's call sites are pinned without any real crypto.
    struct WireFlood {
        injects: u64,
        transfers: u64,
        lost: u64,
    }
    impl RoutingProtocol for WireFlood {
        fn name(&self) -> &str {
            "wire-flood"
        }
        fn on_contact(&mut self, view: &dyn ContactView, rng: &mut dyn RngCore) -> Vec<Forward> {
            Flood.on_contact(view, rng)
        }
        fn wire_capable(&self) -> bool {
            true
        }
        fn wire_on_inject(&mut self, _message: &Message, counters: &mut SimCounters) {
            self.injects += 1;
            counters.wire_packets_built += 1;
        }
        fn wire_on_transfer(
            &mut self,
            _message: MessageId,
            _receiver_tag: u64,
            lost: bool,
            counters: &mut SimCounters,
        ) {
            self.transfers += 1;
            if lost {
                self.lost += 1;
            }
            counters.wire_bytes_sent += 1;
        }
    }

    #[test]
    fn wire_hooks_fire_per_injection_and_committed_transfer() {
        // 0→1 at t=1, 1→2 at t=2: one injection, two committed transfers.
        let s = schedule(vec![(1.0, 0, 1), (2.0, 1, 2)], 3, 10.0);
        let cfg = SimConfig {
            wire_mode: true,
            ..SimConfig::default()
        };
        let mut p = WireFlood {
            injects: 0,
            transfers: 0,
            lost: 0,
        };
        let report = run(&s, &mut p, vec![msg(1, 0, 2, 0.0, 10.0)], &cfg, &mut rng()).unwrap();
        assert_eq!((p.injects, p.transfers, p.lost), (1, 2, 0));
        let c = report.counters().unwrap();
        assert_eq!(c.wire_packets_built, 1);
        assert_eq!(c.wire_bytes_sent, 2);

        // Default mode never calls the hooks, even on a capable protocol.
        let mut p = WireFlood {
            injects: 0,
            transfers: 0,
            lost: 0,
        };
        run(
            &s,
            &mut p,
            vec![msg(1, 0, 2, 0.0, 10.0)],
            &SimConfig::default(),
            &mut rng(),
        )
        .unwrap();
        assert_eq!((p.injects, p.transfers), (0, 0));
    }

    #[test]
    fn wire_hook_sees_in_flight_loss() {
        let s = schedule(vec![(1.0, 0, 1)], 2, 10.0);
        let cfg = SimConfig {
            wire_mode: true,
            ..SimConfig::default()
        };
        let plan = FaultPlan {
            message_loss: 1.0,
            ..FaultPlan::default()
        };
        let mut p = WireFlood {
            injects: 0,
            transfers: 0,
            lost: 0,
        };
        let mut fault_rng = StepRng::new(0, 1);
        run_with_faults(
            &s,
            &mut p,
            vec![msg(1, 0, 1, 0.0, 10.0)],
            &cfg,
            &plan,
            &mut fault_rng,
            &mut rng(),
        )
        .unwrap();
        // The sender paid the bytes even though the copy died in flight.
        assert_eq!((p.injects, p.transfers, p.lost), (1, 1, 1));
    }

    /// Flood over fragments with index <= `max_index`, recording every
    /// coded hook invocation so the engine's call sites are pinned
    /// without any real Reed-Solomon work.
    struct CodedFlood {
        max_index: u32,
        encodes: Vec<(u64, u32, u32)>,
        decodes: Vec<(u64, Vec<u32>)>,
    }
    impl CodedFlood {
        fn new(max_index: u32) -> Self {
            CodedFlood {
                max_index,
                encodes: Vec::new(),
                decodes: Vec::new(),
            }
        }
    }
    impl RoutingProtocol for CodedFlood {
        fn name(&self) -> &str {
            "coded-flood"
        }
        fn on_contact(&mut self, view: &dyn ContactView, _: &mut dyn RngCore) -> Vec<Forward> {
            view.carried()
                .iter()
                .copied()
                .filter(|(id, _)| {
                    !view.peer_has(*id)
                        && !view.is_delivered(*id)
                        && fragment_parent(*id).is_none_or(|(_, idx)| idx <= self.max_index)
                })
                .map(|(id, _)| Forward {
                    message: id,
                    kind: ForwardKind::Replicate,
                    receiver_tag: 0,
                })
                .collect()
        }
        fn coded_on_encode(
            &mut self,
            parent: &Message,
            k: u32,
            m: u32,
            _counters: &mut SimCounters,
        ) {
            self.encodes.push((parent.id.0, k, m));
        }
        fn coded_on_decode(
            &mut self,
            parent: MessageId,
            delivered_fragments: &[u32],
            counters: &mut SimCounters,
        ) {
            self.decodes.push((parent.0, delivered_fragments.to_vec()));
            counters.decode_successes += 1;
        }
    }

    #[test]
    fn coded_mode_delivers_at_kth_fragment_and_reports_per_parent() {
        // 0→1 at t=1, 1→2 at t=2: all three fragments flood to the
        // destination, the parent completing at its 2nd fragment.
        let s = schedule(vec![(1.0, 0, 1), (2.0, 1, 2)], 3, 10.0);
        let cfg = SimConfig {
            copy_mode: CopyMode::Coded { k: 2, m: 3 },
            ..SimConfig::default()
        };
        let mut p = CodedFlood::new(u32::MAX);
        let report = run(&s, &mut p, vec![msg(7, 0, 2, 0.0, 10.0)], &cfg, &mut rng()).unwrap();

        // Hooks: one encode per parent, one decode at the k-th arrival
        // (fragments arrive in ascending id order within the contact).
        assert_eq!(p.encodes, vec![(7, 2, 3)]);
        assert_eq!(p.decodes, vec![(7, vec![0, 1])]);

        // The report stays parent-keyed: the parent's transmissions are
        // the sum over its three fragments (two hops each).
        assert_eq!(report.injected_count(), 1);
        assert_eq!(report.delivery_time(MessageId(7)), Some(Time::new(2.0)));
        assert_eq!(report.transmissions_for(MessageId(7)), 6);
        assert_eq!(report.delivery_rate(), 1.0);

        let c = report.counters().unwrap();
        assert_eq!((c.injected, c.delivered), (1, 1));
        assert_eq!((c.fragments_injected, c.fragments_delivered), (3, 3));
        assert_eq!(c.decode_successes, 1);

        // Per-fragment outcomes survive for the security analyses.
        let coded = report.coded().expect("coded outcome");
        assert_eq!((coded.k, coded.m), (2, 3));
        assert_eq!(coded.fragment_delivered.len(), 3);
        assert_eq!(
            report.fragment_path(fragment_id(MessageId(7), 0)),
            Some(vec![NodeId(0), NodeId(1), NodeId(2)])
        );
    }

    #[test]
    fn coded_mode_undelivered_below_k_fragments() {
        // Only fragment 0 is ever forwarded: one fragment reaches the
        // destination, which is below k=2, so the parent never delivers.
        let s = schedule(vec![(1.0, 0, 1), (2.0, 1, 2)], 3, 10.0);
        let cfg = SimConfig {
            copy_mode: CopyMode::Coded { k: 2, m: 3 },
            ..SimConfig::default()
        };
        let mut p = CodedFlood::new(0);
        let report = run(&s, &mut p, vec![msg(7, 0, 2, 0.0, 10.0)], &cfg, &mut rng()).unwrap();
        assert!(p.decodes.is_empty());
        assert_eq!(report.delivery_rate(), 0.0);
        let c = report.counters().unwrap();
        assert_eq!((c.fragments_injected, c.fragments_delivered), (3, 1));
        assert_eq!((c.delivered, c.expired), (0, 1));
        assert_eq!(report.coded().unwrap().fragment_delivered.len(), 1);
    }

    #[test]
    fn coded_mode_rejects_bad_parameters() {
        let s = schedule(vec![(1.0, 0, 1)], 2, 10.0);
        for (k, m) in [(0, 3), (4, 3), (1, MAX_CODE_FRAGMENTS + 1)] {
            let cfg = SimConfig {
                copy_mode: CopyMode::Coded { k, m },
                ..SimConfig::default()
            };
            let err = run(
                &s,
                &mut CodedFlood::new(u32::MAX),
                vec![msg(1, 0, 1, 0.0, 10.0)],
                &cfg,
                &mut rng(),
            )
            .unwrap_err();
            assert!(matches!(err, SimError::InvalidCodeParameters(_)), "{k}/{m}");
        }
        // Ids inside the fragment band would collide with fragment ids.
        let cfg = SimConfig {
            copy_mode: CopyMode::Coded { k: 1, m: 2 },
            ..SimConfig::default()
        };
        let err = run(
            &s,
            &mut CodedFlood::new(u32::MAX),
            vec![msg(FRAG_BASE, 0, 1, 0.0, 10.0)],
            &cfg,
            &mut rng(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidCodeParameters(_)));
    }

    #[test]
    fn replica_mode_never_calls_coded_hooks() {
        let s = schedule(vec![(1.0, 0, 1), (2.0, 1, 2)], 3, 10.0);
        let mut p = CodedFlood::new(u32::MAX);
        let report = run(
            &s,
            &mut p,
            vec![msg(1, 0, 2, 0.0, 10.0)],
            &SimConfig::default(),
            &mut rng(),
        )
        .unwrap();
        assert!(p.encodes.is_empty() && p.decodes.is_empty());
        assert!(report.coded().is_none());
        let c = report.counters().unwrap();
        assert_eq!(
            (
                c.fragments_injected,
                c.fragments_delivered,
                c.decode_successes,
                c.decode_failures
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn copy_mode_serde_roundtrip() {
        for mode in [
            CopyMode::Replica(4),
            CopyMode::Coded { k: 3, m: 5 },
            CopyMode::default(),
        ] {
            let json = serde_json::to_string(&mode).unwrap();
            let back: CopyMode = serde_json::from_str(&json).unwrap();
            assert_eq!(back, mode, "{json}");
        }
        assert_eq!(
            serde_json::to_string(&CopyMode::Coded { k: 2, m: 4 }).unwrap(),
            r#"{"Coded":{"k":2,"m":4}}"#
        );
        assert_eq!(
            serde_json::to_string(&CopyMode::Replica(1)).unwrap(),
            r#"{"Replica":1}"#
        );
    }
}

#[cfg(test)]
mod buffer_tests {
    use super::*;
    use crate::baselines::Epidemic;
    use contact_graph::{ContactEvent, ContactSchedule, TimeDelta};
    use rand::rngs::mock::StepRng;

    fn schedule(events: Vec<(f64, u32, u32)>, n: usize, horizon: f64) -> ContactSchedule {
        let evs = events
            .into_iter()
            .map(|(t, a, b)| ContactEvent::new(Time::new(t), NodeId(a), NodeId(b)))
            .collect();
        ContactSchedule::from_events(evs, n, Time::new(horizon))
    }

    fn msg(id: u64, src: u32, dst: u32, created: f64) -> Message {
        Message {
            id: MessageId(id),
            source: NodeId(src),
            destination: NodeId(dst),
            created: Time::new(created),
            deadline: TimeDelta::new(100.0),
            copies: 1,
        }
    }

    fn cfg(capacity: usize, policy: DropPolicy) -> SimConfig {
        SimConfig {
            buffer_capacity: Some(capacity),
            drop_policy: policy,
            ..SimConfig::default()
        }
    }

    #[test]
    fn drop_incoming_refuses_transfer_at_full_buffer() {
        // t=1: m1 hops 0→1. t=2 contact (1,2): the 1→2 direction applies
        // first (events normalize a < b): node 2 is full with m2 → drop;
        // then 2→1: node 1 is full with m1 → drop. t=3: m1 delivers.
        let s = schedule(vec![(1.0, 0, 1), (2.0, 2, 1), (3.0, 1, 4)], 5, 10.0);
        let report = run(
            &s,
            &mut Epidemic,
            vec![msg(1, 0, 4, 0.0), msg(2, 2, 4, 0.0)],
            &cfg(1, DropPolicy::DropIncoming),
            &mut StepRng::new(0, 1),
        )
        .unwrap();
        assert_eq!(report.buffer_drops(), 2);
        // m1 made it; m2 stayed at node 2 and never met node 4.
        assert!(report.delivery_time(MessageId(1)).is_some());
        assert!(report.delivery_time(MessageId(2)).is_none());
        // Refused transfers cost no transmissions.
        assert_eq!(report.transmissions_for(MessageId(2)), 0);
    }

    #[test]
    fn drop_oldest_evicts_and_accepts() {
        // Same scenario with DropOldest: at t=2 the 1→2 direction applies
        // first, evicting m2 from node 2 in favour of m1; the reverse
        // transfer then finds m2 gone (rejected, no transmission). m1
        // delivers; m2 is lost — eviction has victims, which is the point.
        let s = schedule(vec![(1.0, 0, 1), (2.0, 2, 1), (3.0, 1, 4)], 5, 10.0);
        let report = run(
            &s,
            &mut Epidemic,
            vec![msg(1, 0, 4, 0.0), msg(2, 2, 4, 0.5)],
            &cfg(1, DropPolicy::DropOldest),
            &mut StepRng::new(0, 1),
        )
        .unwrap();
        assert_eq!(report.buffer_drops(), 1);
        assert_eq!(report.rejected_forwards(), 1);
        assert!(report.delivery_time(MessageId(1)).is_some());
        assert!(report.delivery_time(MessageId(2)).is_none());
    }

    #[test]
    fn destination_never_blocked_by_buffer() {
        // Destination's buffer is full, but delivery consumes without
        // buffering and must succeed.
        let s = schedule(vec![(1.0, 0, 4), (2.0, 1, 4)], 5, 10.0);
        let report = run(
            &s,
            &mut Epidemic,
            vec![msg(1, 0, 4, 0.0), msg(2, 1, 4, 0.0)],
            &cfg(0, DropPolicy::DropIncoming),
            &mut StepRng::new(0, 1),
        )
        .unwrap();
        // Capacity 0 blocks the *source* buffers at injection instead.
        // Messages never even sit at their sources, so nothing delivers —
        // but no panic; and drops were counted.
        assert_eq!(report.buffer_drops(), 2);
        assert_eq!(report.delivered_count(), 0);
    }

    #[test]
    fn unlimited_buffers_never_drop() {
        let s = schedule(vec![(1.0, 0, 1), (2.0, 1, 2), (3.0, 2, 4)], 5, 10.0);
        let report = run(
            &s,
            &mut Epidemic,
            vec![msg(1, 0, 4, 0.0), msg(2, 0, 3, 0.0)],
            &SimConfig::default(),
            &mut StepRng::new(0, 1),
        )
        .unwrap();
        assert_eq!(report.buffer_drops(), 0);
    }

    #[test]
    fn capacity_one_destination_still_reached() {
        // With capacity 1 everywhere a single message still flows.
        let s = schedule(vec![(1.0, 0, 1), (2.0, 1, 4)], 5, 10.0);
        let report = run(
            &s,
            &mut Epidemic,
            vec![msg(1, 0, 4, 0.0)],
            &cfg(1, DropPolicy::DropIncoming),
            &mut StepRng::new(0, 1),
        )
        .unwrap();
        assert_eq!(report.delivery_rate(), 1.0);
        assert_eq!(report.buffer_drops(), 0);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::baselines::Epidemic;
    use crate::faults::ChurnConfig;
    use contact_graph::{ContactEvent, ContactSchedule, TimeDelta, UniformGraphBuilder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn schedule(events: Vec<(f64, u32, u32)>, n: usize, horizon: f64) -> ContactSchedule {
        let evs = events
            .into_iter()
            .map(|(t, a, b)| ContactEvent::new(Time::new(t), NodeId(a), NodeId(b)))
            .collect();
        ContactSchedule::from_events(evs, n, Time::new(horizon))
    }

    fn msg(id: u64, src: u32, dst: u32, created: f64) -> Message {
        Message {
            id: MessageId(id),
            source: NodeId(src),
            destination: NodeId(dst),
            created: Time::new(created),
            deadline: TimeDelta::new(100.0),
            copies: 1,
        }
    }

    /// A randomized scenario big enough that every fault class can fire.
    fn random_run(plan: &FaultPlan, fault_seed: u64) -> SimReport {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let graph = UniformGraphBuilder::new(20).build(&mut rng);
        let sched = ContactSchedule::sample(&graph, Time::new(200.0), &mut rng);
        let messages: Vec<Message> = (0..10)
            .map(|i| msg(i, i as u32, 19 - i as u32, 0.0))
            .collect();
        let mut fault_rng = ChaCha8Rng::seed_from_u64(fault_seed);
        run_with_faults(
            &sched,
            &mut Epidemic,
            messages,
            &SimConfig::default(),
            plan,
            &mut fault_rng,
            &mut ChaCha8Rng::seed_from_u64(11),
        )
        .unwrap()
    }

    #[test]
    fn noop_plan_is_bit_identical_to_run() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let graph = UniformGraphBuilder::new(20).build(&mut rng);
        let sched = ContactSchedule::sample(&graph, Time::new(200.0), &mut rng);
        let messages: Vec<Message> = (0..10)
            .map(|i| msg(i, i as u32, 19 - i as u32, 0.0))
            .collect();

        let baseline = run(
            &sched,
            &mut Epidemic,
            messages.clone(),
            &SimConfig::default(),
            &mut ChaCha8Rng::seed_from_u64(11),
        )
        .unwrap();
        let faulted = run_with_faults(
            &sched,
            &mut Epidemic,
            messages,
            &SimConfig::default(),
            &FaultPlan::none(),
            &mut ChaCha8Rng::seed_from_u64(999),
            &mut ChaCha8Rng::seed_from_u64(11),
        )
        .unwrap();
        assert_eq!(
            serde_json::to_string(&baseline).unwrap(),
            serde_json::to_string(&faulted).unwrap()
        );
    }

    #[test]
    fn faulted_runs_are_reproducible() {
        let plan = FaultPlan {
            contact_failure: 0.2,
            transfer_truncation: 0.2,
            message_loss: 0.2,
            churn: Some(ChurnConfig {
                crash_rate: 0.01,
                mean_downtime: 20.0,
                memory: ChurnMemory::Persist,
            }),
        };
        let a = random_run(&plan, 42);
        let b = random_run(&plan, 42);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // A different fault seed gives a different (but valid) outcome.
        let c = random_run(&plan, 43);
        assert_ne!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&c).unwrap()
        );
    }

    #[test]
    fn contact_failure_one_blocks_everything() {
        let s = schedule(vec![(1.0, 0, 1), (2.0, 1, 2)], 3, 10.0);
        let plan = FaultPlan {
            contact_failure: 1.0,
            ..FaultPlan::default()
        };
        let report = run_with_faults(
            &s,
            &mut Epidemic,
            vec![msg(1, 0, 2, 0.0)],
            &SimConfig::default(),
            &plan,
            &mut ChaCha8Rng::seed_from_u64(1),
            &mut ChaCha8Rng::seed_from_u64(2),
        )
        .unwrap();
        assert_eq!(report.delivered_count(), 0);
        assert_eq!(report.total_transmissions(), 0);
        let c = report.counters().unwrap();
        assert_eq!(c.fault_contacts_dropped, 2);
    }

    #[test]
    fn message_loss_one_transmits_but_never_delivers() {
        let s = schedule(vec![(1.0, 0, 1)], 2, 10.0);
        let plan = FaultPlan {
            message_loss: 1.0,
            ..FaultPlan::default()
        };
        let report = run_with_faults(
            &s,
            &mut Epidemic,
            vec![msg(1, 0, 1, 0.0)],
            &SimConfig::default(),
            &plan,
            &mut ChaCha8Rng::seed_from_u64(1),
            &mut ChaCha8Rng::seed_from_u64(2),
        )
        .unwrap();
        // The sender paid the transmission; the copy died in flight.
        assert_eq!(report.total_transmissions(), 1);
        assert_eq!(report.delivered_count(), 0);
        assert!(report.forward_log().is_empty());
        let c = report.counters().unwrap();
        assert_eq!(c.fault_messages_lost, 1);
        assert_eq!(c.total_forwards(), 0);
    }

    #[test]
    fn truncation_cancels_a_suffix_of_the_window() {
        // Node 0 carries two messages for distinct destinations; with
        // certain truncation only a strict prefix of the two planned
        // transfers completes.
        let s = schedule(vec![(1.0, 0, 1)], 4, 10.0);
        let plan = FaultPlan {
            transfer_truncation: 1.0,
            ..FaultPlan::default()
        };
        let report = run_with_faults(
            &s,
            &mut Epidemic,
            vec![msg(1, 0, 2, 0.0), msg(2, 0, 3, 0.0)],
            &SimConfig::default(),
            &plan,
            &mut ChaCha8Rng::seed_from_u64(1),
            &mut ChaCha8Rng::seed_from_u64(2),
        )
        .unwrap();
        let c = report.counters().unwrap();
        assert!(c.fault_transfers_truncated >= 1);
        assert_eq!(c.total_forwards() + c.fault_transfers_truncated, 2);
    }

    #[test]
    fn permanent_churn_kills_delivery_and_wipes_buffers() {
        // Crash almost immediately and never recover: nothing delivers
        // and the injected copies are wiped.
        let plan = FaultPlan {
            churn: Some(ChurnConfig {
                crash_rate: 100.0,
                mean_downtime: 1e12,
                memory: ChurnMemory::Persist,
            }),
            ..FaultPlan::default()
        };
        let report = random_run(&plan, 5);
        let c = report.counters().unwrap();
        assert_eq!(report.delivered_count(), 0);
        assert!(c.fault_crashes >= 20, "every node should crash");
        assert!(c.fault_buffer_wipes >= 1, "injected copies must be wiped");
    }

    #[test]
    fn invalid_plan_is_rejected() {
        let s = schedule(vec![(1.0, 0, 1)], 2, 10.0);
        let plan = FaultPlan {
            message_loss: 1.5,
            ..FaultPlan::default()
        };
        let err = run_with_faults(
            &s,
            &mut Epidemic,
            vec![msg(1, 0, 1, 0.0)],
            &SimConfig::default(),
            &plan,
            &mut ChaCha8Rng::seed_from_u64(1),
            &mut ChaCha8Rng::seed_from_u64(2),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::InvalidFaultPlan(_)));
    }

    #[test]
    fn moderate_faults_degrade_but_do_not_zero_delivery() {
        let baseline = random_run(&FaultPlan::none(), 1);
        let plan = FaultPlan {
            contact_failure: 0.3,
            message_loss: 0.2,
            ..FaultPlan::default()
        };
        let faulted = random_run(&plan, 1);
        assert!(baseline.delivered_count() > 0);
        assert!(faulted.delivered_count() <= baseline.delivered_count());
        let c = faulted.counters().unwrap();
        assert!(c.fault_contacts_dropped > 0);
    }
}

#[cfg(test)]
mod calendar_tests {
    use super::*;
    use crate::baselines::Epidemic;
    use contact_graph::{SparseContacts, TimeDelta, UniformGraphBuilder};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn sparse_world(seed: u64) -> SparseContacts {
        SparseContacts::poisson_proximity(
            300,
            5.0,
            (TimeDelta::new(1.0), TimeDelta::new(36.0)),
            &mut rng(seed),
        )
    }

    #[test]
    fn stream_is_time_ordered_and_bounded() {
        let sparse = sparse_world(3);
        let horizon = Time::new(200.0);
        let events: Vec<ContactEvent> =
            CalendarQueue::from_sparse(&sparse, horizon, rng(9)).collect();
        assert!(events.len() > 100, "expected a busy stream");
        // The emission order matches the derived Ord a ContactSchedule
        // sort would produce, and every event respects the invariants.
        assert!(events.windows(2).all(|w| w[0] <= w[1]));
        for e in &events {
            assert!(e.a < e.b);
            assert!(e.time >= Time::ZERO && e.time <= horizon);
        }
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let sparse = sparse_world(4);
        let horizon = Time::new(100.0);
        let run = |seed| -> Vec<ContactEvent> {
            CalendarQueue::from_sparse(&sparse, horizon, rng(seed)).collect()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn event_count_matches_poisson_expectation() {
        // One pair at rate 0.5 over horizon 4000: expect ~2000 events,
        // sd ~45, so a +-10% band is ~4.5 sigma.
        let q = CalendarQueue::new(
            vec![(NodeId(0), NodeId(1), Rate::new(0.5))],
            Time::new(4000.0),
            rng(11),
        );
        let count = q.count() as f64;
        assert!((1800.0..=2200.0).contains(&count), "count {count}");
    }

    #[test]
    fn build_time_footprint_bounds_the_whole_drain() {
        // The sparse drivers sample `approx_bytes` once, before the drain,
        // into `sparse.calendar_bytes_hwm`: that figure must cover every
        // buffer the drain later grows.
        let sparse = SparseContacts::poisson_proximity(
            2_000,
            10.0,
            (TimeDelta::new(1.0), TimeDelta::new(36.0)),
            &mut rng(41),
        );
        let mut q = CalendarQueue::from_sparse(&sparse, Time::new(720.0), rng(42));
        let built = q.approx_bytes();
        assert!(q.by_ref().count() > 100_000, "expected a busy stream");
        assert!(
            q.approx_bytes() <= built,
            "drained footprint {} exceeds build-time figure {built}",
            q.approx_bytes()
        );
    }

    /// An `RngCore` that returns one word forever: every draw for a given
    /// rate is the same gap, so equal-rate pairs arrive at identical times.
    struct ConstRng(u64);

    impl RngCore for ConstRng {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The reference queue: every pending arrival in one min-heap keyed by
    /// `(time bits, pair index)`, fed the same RNG draws in the same order
    /// (each pair's first arrival in pair order, then one per pop). Takes
    /// a normalized pair list: `a < b`, ascending, distinct, rates > 0.
    fn oracle_stream<R: RngCore>(
        pairs: &[(NodeId, NodeId, Rate)],
        horizon: f64,
        mut rng: R,
    ) -> Vec<ContactEvent> {
        let mut heap = BinaryHeap::new();
        for (i, &(_, _, rate)) in pairs.iter().enumerate() {
            let t = 0.0 + sample_intercontact(rate, &mut rng).unwrap().as_f64();
            if t <= horizon {
                heap.push(Reverse((t.to_bits(), i as u32)));
            }
        }
        let mut out = Vec::new();
        while let Some(Reverse((bits, i))) = heap.pop() {
            let t = f64::from_bits(bits);
            let (a, b, rate) = pairs[i as usize];
            let next = t + sample_intercontact(rate, &mut rng).unwrap().as_f64();
            if next <= horizon {
                heap.push(Reverse((next.to_bits(), i)));
            }
            out.push(ContactEvent {
                time: Time::new(t),
                a,
                b,
            });
        }
        out
    }

    /// Which filing paths a drain took.
    #[derive(Default)]
    struct Paths {
        overflow: bool,
        current_insert: bool,
    }

    /// Drains `q`, noting whether arrivals waited in the overflow heap and
    /// whether a re-arrival was inserted into the bucket being popped.
    fn filing_paths<R: RngCore>(mut q: CalendarQueue<R>) -> Paths {
        let mut paths = Paths::default();
        loop {
            paths.overflow |= !q.overflow.is_empty();
            let before = q.current.len();
            if q.next().is_none() {
                return paths;
            }
            // A pop shrinks a non-empty bucket by one; only an insert of
            // the re-arrival restores its length.
            paths.current_insert |= before > 0 && q.current.len() == before;
        }
    }

    /// `count` distinct normalized pairs over `nodes` nodes with
    /// log-uniform rates on `[1e-3, 1e-3 · 10^decades]`, ascending by `(a, b)`.
    fn random_pairs(
        seed: u64,
        nodes: u32,
        count: usize,
        decades: f64,
    ) -> Vec<(NodeId, NodeId, Rate)> {
        let mut r = rng(seed);
        let mut set = BTreeMap::new();
        while set.len() < count {
            let (a, b) = (r.gen_range(0..nodes), r.gen_range(0..nodes));
            if a != b {
                let rate = 10f64.powf(-3.0 + decades * r.gen::<f64>());
                set.insert((a.min(b), a.max(b)), rate);
            }
        }
        set.into_iter()
            .map(|((a, b), rate)| (NodeId(a), NodeId(b), Rate::new(rate)))
            .collect()
    }

    /// A horizon for `pairs` of the given kind: 0 → zero, 1 → inside the
    /// first bucket, otherwise `events` expected arrivals long.
    fn horizon_for(pairs: &[(NodeId, NodeId, Rate)], kind: u8, events: f64, frac: f64) -> f64 {
        let total: f64 = pairs.iter().map(|p| p.2.as_f64()).sum();
        match kind {
            0 => 0.0,
            1 => frac * ARRIVALS_PER_BUCKET / total,
            _ => events / total,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The calendar ring pops exactly the reference min-heap's stream
        /// over pair sets whose rates span 4–6 decades, at zero horizons,
        /// horizons inside the first bucket, and long horizons.
        #[test]
        fn calendar_matches_heap_oracle(
            seed in proptest::any::<u64>(),
            count in 1usize..80,
            decades in 4.0f64..6.0,
            kind in 0u8..4,
            events in 200.0f64..6_000.0,
            frac in 0.0f64..1.0,
        ) {
            let pairs = random_pairs(seed, 40, count, decades);
            let horizon = horizon_for(&pairs, kind, events, frac);
            let oracle = oracle_stream(&pairs, horizon, rng(seed ^ 1));
            let queue = CalendarQueue::new(pairs, Time::new(horizon), rng(seed ^ 1));
            let ring: Vec<ContactEvent> = queue.collect();
            proptest::prop_assert_eq!(ring, oracle);
        }

        /// With a constant RNG word, equal-rate pairs arrive at identical
        /// times: ties must break by pair index, as in the oracle.
        #[test]
        fn calendar_breaks_time_ties_by_pair_index(
            seed in proptest::any::<u64>(),
            count in 4usize..60,
            word in (1u64 << 60)..(15u64 << 60),
            horizon in 6.0f64..40.0,
        ) {
            // Pairs 0 and 3 share rate 0.5; the word's uniform lies in
            // [1/16, 15/16), so their shared first arrival is before 5.6.
            let pairs: Vec<_> = random_pairs(seed, 30, count, 4.0)
                .into_iter()
                .enumerate()
                .map(|(i, (a, b, _))| (a, b, Rate::new([0.5, 1.0, 2.0][i % 3])))
                .collect();
            let oracle = oracle_stream(&pairs, horizon, ConstRng(word));
            let queue = CalendarQueue::new(pairs, Time::new(horizon), ConstRng(word));
            let ring: Vec<ContactEvent> = queue.collect();
            proptest::prop_assert!(ring.windows(2).any(|w| w[0].time == w[1].time));
            proptest::prop_assert_eq!(ring, oracle);
        }
    }

    #[test]
    fn oracle_cases_reach_overflow_and_current_bucket_inserts() {
        // The proptest's long-horizon cases must exercise both filing
        // paths a plain ring walk would miss.
        let mut reached = Paths::default();
        for seed in 0..16 {
            let pairs = random_pairs(seed, 40, 60, 4.0);
            let horizon = horizon_for(&pairs, 2, 4_000.0, 0.0);
            let queue = CalendarQueue::new(pairs, Time::new(horizon), rng(seed));
            let paths = filing_paths(queue);
            reached.overflow |= paths.overflow;
            reached.current_insert |= paths.current_insert;
        }
        assert!(reached.overflow, "no arrival waited in the overflow heap");
        assert!(
            reached.current_insert,
            "no re-arrival landed in the current bucket"
        );
    }

    #[test]
    fn calendar_event_volume_tracks_dense_sampling() {
        // A sparse model converted from a dense graph must generate the
        // same expected contact volume as ContactSchedule::sample.
        let graph = UniformGraphBuilder::new(30).build(&mut rng(5));
        let horizon = Time::new(300.0);
        let dense = ContactSchedule::sample(&graph, horizon, &mut rng(21)).len() as f64;
        let sparse = SparseContacts::from_dense(&graph);
        let lazy = CalendarQueue::from_sparse(&sparse, horizon, rng(22)).count() as f64;
        let ratio = lazy / dense;
        assert!((0.9..=1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn run_stream_delivers_over_a_calendar_queue() {
        let sparse = sparse_world(6);
        let horizon = Time::new(500.0);
        let n = 300;
        let messages: Vec<Message> = (0..20)
            .map(|i| Message {
                id: MessageId(i),
                source: NodeId((i % 50) as u32),
                destination: NodeId((100 + i % 50) as u32),
                created: Time::ZERO,
                deadline: TimeDelta::new(500.0),
                copies: 1,
            })
            .collect();
        let queue = CalendarQueue::from_sparse(&sparse, horizon, rng(31));
        let mut unused = rand::rngs::mock::StepRng::new(0, 0);
        let report = run_stream(
            n,
            horizon,
            queue,
            &mut Epidemic,
            messages,
            &SimConfig::default(),
            &FaultPlan::default(),
            &mut unused,
            &mut rng(32),
        )
        .expect("valid stream run");
        assert_eq!(report.injected_count(), 20);
        // Epidemic flooding over a connected-ish PPP world with a long
        // deadline should deliver at least something.
        assert!(report.delivered_count() > 0);
    }

    #[test]
    fn run_stream_rejects_out_of_range_messages() {
        let mut unused = rand::rngs::mock::StepRng::new(0, 0);
        let err = run_stream(
            2,
            Time::new(10.0),
            std::iter::empty(),
            &mut Epidemic,
            vec![Message {
                id: MessageId(0),
                source: NodeId(0),
                destination: NodeId(5),
                created: Time::ZERO,
                deadline: TimeDelta::new(10.0),
                copies: 1,
            }],
            &SimConfig::default(),
            &FaultPlan::default(),
            &mut unused,
            &mut rng(1),
        )
        .unwrap_err();
        assert_eq!(err, SimError::NodeOutOfRange(MessageId(0)));
    }

    #[test]
    fn sim_config_builder_matches_literals() {
        let built = SimConfig::builder()
            .buffer_capacity(Some(8))
            .drop_policy(DropPolicy::DropOldest)
            .copy_mode(CopyMode::Coded { k: 2, m: 3 })
            .build();
        assert_eq!(built.buffer_capacity, Some(8));
        assert_eq!(built.drop_policy, DropPolicy::DropOldest);
        assert_eq!(built.copy_mode, CopyMode::Coded { k: 2, m: 3 });
        assert_eq!(SimConfig::builder().build(), SimConfig::default());
        let rebuilt = built.clone().into_builder().wire_mode(false).build();
        assert_eq!(rebuilt, built);
    }
}
