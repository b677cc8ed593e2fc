//! Contact events and schedules.
//!
//! A [`ContactSchedule`] is a time-ordered list of pairwise contact events
//! over a finite horizon. Schedules are either *sampled* from a
//! [`ContactGraph`] (exponential inter-contact times, the paper's random
//! graphs) or loaded from a trace (the Haggle datasets). The simulator in
//! `dtn-sim` replays schedules, which keeps random-graph and trace-driven
//! experiments on one code path.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::graph::ContactGraph;
use crate::node::NodeId;
use crate::time::{Rate, Time, TimeDelta};

/// A single contact: nodes `a` and `b` meet at `time` and can exchange one
/// message in each direction (the paper assumes link durations long enough
/// for a complete transfer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ContactEvent {
    /// When the contact occurs.
    pub time: Time,
    /// One endpoint (the smaller id by convention after normalization).
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
}

impl ContactEvent {
    /// Creates an event, normalizing endpoint order so `a <= b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn new(time: Time, a: NodeId, b: NodeId) -> Self {
        assert!(a != b, "a contact needs two distinct nodes");
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        ContactEvent { time, a, b }
    }

    /// Whether this contact involves `node`.
    pub fn involves(&self, node: NodeId) -> bool {
        self.a == node || self.b == node
    }
}

/// Samples an exponential inter-contact time for `rate`.
///
/// Returns `None` for a zero rate (the pair never meets).
#[inline]
pub fn sample_intercontact<R: Rng + ?Sized>(rate: Rate, rng: &mut R) -> Option<TimeDelta> {
    if rate.is_zero() {
        return None;
    }
    // Inverse-CDF sampling; `gen::<f64>()` is in [0, 1), so 1 - u is in
    // (0, 1] and the log is finite.
    let u: f64 = rng.gen();
    Some(TimeDelta::new(-(1.0 - u).ln() / rate.as_f64()))
}

/// Contacts per ordering window of [`SampledEvents`], or one per pair
/// when there are more pairs, so a window's gather pass over the pairs
/// never costs more than its contacts.
const WINDOW_CONTACTS: usize = 1 << 15;

/// Mean contacts per fine bucket of a window's counting scatter: few
/// enough that the stable insertion pass after it moves each contact a
/// step or two.
const CONTACTS_PER_BUCKET: usize = 2;

/// A pair with at least one sampled contact, and the end of its run of
/// times in [`SampledContacts`].
#[derive(Clone, Copy, Debug)]
struct Run {
    a: NodeId,
    b: NodeId,
    end: usize,
}

/// The contacts of one dense sample, stored as bare times and put in
/// time order only as they are read.
///
/// [`SampledContacts::sample`] makes the draws of a pair-major Poisson
/// sample: pairs in `(a, b)` order, each drawing exponential gaps until
/// its running time passes the horizon. It keeps each pair's ascending
/// times (8 bytes a contact) and where each pair's run ends.
/// [`SampledContacts::events`] yields the contacts in `(time, a, b)`
/// order — the derived `Ord` of [`ContactEvent`] — ordering one time
/// window at a time, so a reader that stops early never orders the rest.
/// [`ContactSchedule::sample`] is this stream, collected.
///
/// ```
/// use contact_graph::{SampledContacts, Time, UniformGraphBuilder};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let graph = UniformGraphBuilder::new(20).build(&mut rng);
/// let contacts = SampledContacts::sample(&graph, Time::new(100.0), &mut rng);
/// let events = contacts.events();
/// assert_eq!(events.len(), contacts.len());
/// let first_ten: Vec<_> = events.take(10).collect();
/// assert!(first_ten.windows(2).all(|w| w[0] <= w[1]));
/// ```
#[derive(Clone, Debug)]
pub struct SampledContacts {
    /// Every contact time, grouped by pair in `(a, b)` order; each
    /// pair's run ascends.
    times: Vec<Time>,
    /// The pairs that met, in `(a, b)` order.
    runs: Vec<Run>,
    horizon: Time,
}

impl SampledContacts {
    /// Bytes one stored contact costs: its time alone. Endpoints are
    /// kept once per pair, and [`SampledContacts::events`] orders a
    /// bounded window at a time.
    pub const BYTES_PER_CONTACT: usize = size_of::<Time>();

    /// Samples `graph` on `[0, horizon]`: each connected pair generates a
    /// Poisson process of contacts with its rate, drawn pair by pair in
    /// `(a, b)` order from `rng`.
    pub fn sample<R: Rng + ?Sized>(graph: &ContactGraph, horizon: Time, rng: &mut R) -> Self {
        let n = graph.len() as u32;
        // Room for the expected count `Σλ·T` and six standard deviations
        // more, so the times almost never move (or sit twice in memory)
        // while the draw grows them. A reservation the allocator refuses
        // is skipped: the vector then grows as it goes.
        let mut total_rate = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                total_rate += graph.rate(NodeId(i), NodeId(j)).as_f64();
            }
        }
        let expected = total_rate * horizon.as_f64().max(0.0);
        let mut times = Vec::new();
        let _ = times.try_reserve((expected + 6.0 * expected.sqrt()) as usize + 16);
        let mut runs = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let rate = graph.rate(NodeId(i), NodeId(j));
                if rate.is_zero() {
                    continue;
                }
                let start = times.len();
                let mut t = Time::ZERO;
                while let Some(gap) = sample_intercontact(rate, rng) {
                    t += gap;
                    if t > horizon {
                        break;
                    }
                    times.push(t);
                }
                if times.len() > start {
                    // `i < j` by loop construction: the normalized order
                    // `ContactEvent::new` would produce.
                    runs.push(Run {
                        a: NodeId(i),
                        b: NodeId(j),
                        end: times.len(),
                    });
                }
            }
        }
        SampledContacts {
            times,
            runs,
            horizon,
        }
    }

    /// The contacts in `(time, a, b)` order, with an exact `size_hint`.
    pub fn events(&self) -> SampledEvents<'_> {
        self.events_in_windows_of(WINDOW_CONTACTS)
    }

    /// [`SampledContacts::events`], ordered in windows of about
    /// `window_contacts` contacts (or of one per pair, if more).
    fn events_in_windows_of(&self, window_contacts: usize) -> SampledEvents<'_> {
        let total = self.times.len();
        let windows = total
            .div_ceil(window_contacts.max(self.runs.len()).max(1))
            .max(1);
        let mut start = 0;
        let cursor = self
            .runs
            .iter()
            .map(|r| std::mem::replace(&mut start, r.end))
            .collect();
        SampledEvents {
            contacts: self,
            cursor,
            width: self.horizon.as_f64() / windows as f64,
            windows,
            next_window: 0,
            gathered: Vec::new(),
            ordered: Vec::new(),
            counts: Vec::new(),
            pos: 0,
            remaining: total,
        }
    }

    /// Number of sampled contacts.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether no pair met before the horizon.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Heap footprint in bytes, by capacity: the stored times and the
    /// per-pair runs. A [`SampledEvents`] reader adds a cursor per pair
    /// and two window buffers of about 32 k contacts.
    pub fn approx_bytes(&self) -> usize {
        self.times.capacity() * Self::BYTES_PER_CONTACT + self.runs.capacity() * size_of::<Run>()
    }
}

/// The time-ordered stream of a [`SampledContacts`]; see
/// [`SampledContacts::events`].
///
/// Window `w` holds the contacts with times in `[w·width, (w+1)·width)`
/// (the last window everything after), about 32 k of them.
/// Entering a window orders it in three stable steps: gather each pair's
/// times in the window, in pair order; counting-scatter them on a fine
/// time key; finish with an insertion pass on the time bits. Windows
/// split the time axis, a pair's run ascends, and every step keeps ties
/// in pair order, so the stream is exactly `(time, a, b)` order.
#[derive(Debug)]
pub struct SampledEvents<'a> {
    contacts: &'a SampledContacts,
    /// Next unread time of each run.
    cursor: Vec<usize>,
    /// Time span of one window.
    width: f64,
    windows: usize,
    /// Windows ordered so far.
    next_window: usize,
    /// The window's contacts in pair order.
    gathered: Vec<ContactEvent>,
    /// The window's contacts in time order.
    ordered: Vec<ContactEvent>,
    /// Fine-bucket counts, then start offsets.
    counts: Vec<usize>,
    /// Next unread contact of `ordered`.
    pos: usize,
    remaining: usize,
}

impl SampledEvents<'_> {
    /// Gathers and orders the next window into `ordered`.
    fn order_next_window(&mut self) {
        let lo = self.next_window as f64 * self.width;
        self.next_window += 1;
        let limit = if self.next_window == self.windows {
            f64::INFINITY
        } else {
            self.next_window as f64 * self.width
        };

        // Gather: every pair's times below `limit`, in pair order. A run
        // ascends, so what is left of it starts at or after `lo`.
        let times = &self.contacts.times;
        self.gathered.clear();
        for (run, cursor) in self.contacts.runs.iter().zip(&mut self.cursor) {
            let mut k = *cursor;
            while k < run.end && times[k].as_f64() < limit {
                self.gathered.push(ContactEvent {
                    time: times[k],
                    a: run.a,
                    b: run.b,
                });
                k += 1;
            }
            *cursor = k;
        }
        self.pos = 0;
        let m = self.gathered.len();
        if m == 0 {
            self.ordered.clear();
            return;
        }

        // Counting scatter on a fine key, a function of the time alone
        // (monotone, so buckets come out in time order).
        let buckets = (m / CONTACTS_PER_BUCKET).max(1);
        let inv = buckets as f64 / self.width;
        let key = |e: &ContactEvent| (((e.time.as_f64() - lo) * inv) as usize).min(buckets - 1);
        self.counts.clear();
        self.counts.resize(buckets + 1, 0);
        for e in &self.gathered {
            self.counts[key(e) + 1] += 1;
        }
        for b in 0..buckets {
            self.counts[b + 1] += self.counts[b];
        }
        // Every slot is overwritten by the scatter.
        self.ordered.resize(m, self.gathered[0]);
        for e in &self.gathered {
            let slot = &mut self.counts[key(e)];
            self.ordered[*slot] = *e;
            *slot += 1;
        }

        // Stable insertion pass: contacts only move within their bucket.
        for i in 1..m {
            let e = self.ordered[i];
            let bits = e.time.as_f64().to_bits();
            let mut j = i;
            while j > 0 && self.ordered[j - 1].time.as_f64().to_bits() > bits {
                self.ordered[j] = self.ordered[j - 1];
                j -= 1;
            }
            self.ordered[j] = e;
        }
    }
}

impl Iterator for SampledEvents<'_> {
    type Item = ContactEvent;

    #[inline]
    fn next(&mut self) -> Option<ContactEvent> {
        while self.pos == self.ordered.len() {
            if self.next_window == self.windows {
                return None;
            }
            self.order_next_window();
        }
        let e = self.ordered[self.pos];
        self.pos += 1;
        self.remaining -= 1;
        Some(e)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for SampledEvents<'_> {}

/// A time-ordered contact schedule over `[0, horizon]`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ContactSchedule {
    events: Vec<ContactEvent>,
    horizon: Time,
    node_count: usize,
}

impl ContactSchedule {
    /// Builds a schedule from raw events (sorted internally).
    ///
    /// `node_count` must exceed every node id in `events`.
    ///
    /// # Panics
    ///
    /// Panics if an event references a node `>= node_count` or lies after
    /// `horizon`.
    pub fn from_events(mut events: Vec<ContactEvent>, node_count: usize, horizon: Time) -> Self {
        for e in &events {
            assert!(
                e.a.index() < node_count && e.b.index() < node_count,
                "event references node out of range"
            );
            assert!(e.time <= horizon, "event after horizon");
        }
        events.sort();
        ContactSchedule {
            events,
            horizon,
            node_count,
        }
    }

    /// Samples a schedule from `graph`: each connected pair generates a
    /// Poisson process of contacts with its rate, truncated at `horizon`.
    /// This is [`SampledContacts::events`], collected.
    pub fn sample<R: Rng + ?Sized>(graph: &ContactGraph, horizon: Time, rng: &mut R) -> Self {
        let contacts = SampledContacts::sample(graph, horizon, rng);
        ContactSchedule {
            events: contacts.events().collect(),
            horizon,
            node_count: graph.len(),
        }
    }

    /// The time-ordered events.
    pub fn events(&self) -> &[ContactEvent] {
        &self.events
    }

    /// Iterates over events in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, ContactEvent> {
        self.events.iter()
    }

    /// Number of contact events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// End of the covered time window.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Number of nodes the schedule is defined over.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Events in the half-open window `[from, to)`.
    pub fn window(&self, from: Time, to: Time) -> &[ContactEvent] {
        let lo = self.events.partition_point(|e| e.time < from);
        let hi = self.events.partition_point(|e| e.time < to);
        &self.events[lo..hi]
    }

    /// Estimates pairwise contact rates by event counting:
    /// `λ̂_{i,j} = count(i,j) / horizon`.
    ///
    /// This is the "training" step the paper applies to the Haggle traces
    /// before evaluating the analytical models on them.
    ///
    /// # Panics
    ///
    /// Panics if the horizon is zero.
    pub fn estimate_rates(&self) -> ContactGraph {
        assert!(
            self.horizon > Time::ZERO,
            "cannot estimate rates over an empty window"
        );
        let mut counts = std::collections::HashMap::new();
        for e in &self.events {
            *counts.entry((e.a, e.b)).or_insert(0u64) += 1;
        }
        let mut g = ContactGraph::new(self.node_count);
        for ((a, b), c) in counts {
            g.set_rate(a, b, Rate::new(c as f64 / self.horizon.as_f64()));
        }
        g
    }

    /// Total contacts per node, useful for trace statistics.
    pub fn contacts_per_node(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.node_count];
        for e in &self.events {
            counts[e.a.index()] += 1;
            counts[e.b.index()] += 1;
        }
        counts
    }
}

impl<'a> IntoIterator for &'a ContactSchedule {
    type Item = &'a ContactEvent;
    type IntoIter = std::slice::Iter<'a, ContactEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::UniformGraphBuilder;
    use rand::rngs::mock::StepRng;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn event_normalizes_order() {
        let e = ContactEvent::new(Time::new(5.0), NodeId(9), NodeId(2));
        assert_eq!((e.a, e.b), (NodeId(2), NodeId(9)));
        assert!(e.involves(NodeId(9)));
        assert!(!e.involves(NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn self_contact_rejected() {
        let _ = ContactEvent::new(Time::ZERO, NodeId(1), NodeId(1));
    }

    #[test]
    fn exponential_sampling_mean() {
        let mut r = rng(1);
        let rate = Rate::new(0.5);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| sample_intercontact(rate, &mut r).unwrap().as_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "sample mean {mean}");
        assert_eq!(sample_intercontact(Rate::ZERO, &mut r), None);
    }

    #[test]
    fn sampled_schedule_is_sorted_and_bounded() {
        let g = UniformGraphBuilder::new(10).build(&mut rng(2));
        let horizon = Time::new(100.0);
        let s = ContactSchedule::sample(&g, horizon, &mut rng(3));
        assert!(!s.is_empty());
        assert!(s.events().windows(2).all(|w| w[0].time <= w[1].time));
        assert!(s.events().iter().all(|e| e.time <= horizon));
        assert_eq!(s.node_count(), 10);
    }

    /// The pair-major draws of `SampledContacts::sample`, pushed as
    /// events and fully sorted: the order the stream must reproduce.
    fn sorted_draws<R: Rng>(graph: &ContactGraph, horizon: Time, rng: &mut R) -> Vec<ContactEvent> {
        let mut events = Vec::new();
        let n = graph.len() as u32;
        for i in 0..n {
            for j in (i + 1)..n {
                let rate = graph.rate(NodeId(i), NodeId(j));
                let mut t = Time::ZERO;
                while let Some(gap) = sample_intercontact(rate, rng) {
                    t += gap;
                    if t > horizon {
                        break;
                    }
                    events.push(ContactEvent::new(t, NodeId(i), NodeId(j)));
                }
            }
        }
        events.sort();
        events
    }

    /// Drains `events`, checking `size_hint` stays exact at every step.
    fn drain_exact(mut events: SampledEvents<'_>) -> Vec<ContactEvent> {
        let mut out = Vec::new();
        loop {
            let left = events.len();
            assert_eq!(events.size_hint(), (left, Some(left)));
            match events.next() {
                Some(e) => out.push(e),
                None => break,
            }
            assert_eq!(events.len(), left - 1);
        }
        assert_eq!(events.size_hint(), (0, Some(0)));
        out
    }

    /// A graph over `n` nodes; a pair is connected with probability
    /// `connectivity`, at one of three rates when `tied` (so a constant
    /// RNG word puts equal-rate pairs at identical times).
    fn test_graph(seed: u64, n: usize, connectivity: f64, tied: bool) -> ContactGraph {
        let mut r = rng(seed);
        let mut g = ContactGraph::new(n);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if r.gen::<f64>() >= connectivity {
                    continue;
                }
                let rate = if tied {
                    [0.5, 1.0, 2.0][r.gen_range(0..3usize)]
                } else {
                    1.0 / r.gen_range(1.0..36.0)
                };
                g.set_rate(NodeId(i), NodeId(j), Rate::new(rate));
            }
        }
        g
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The windowed stream is exactly the fully sorted draws, and its
        /// size is exact throughout: zero-rate pairs, one pair, zero
        /// horizons, horizons inside one window and across many, window
        /// sizes from one contact up, and a constant RNG word whose
        /// equal-rate pairs tie on time.
        #[test]
        fn sampled_events_equal_the_sorted_draws(
            seed in proptest::any::<u64>(),
            n in 2usize..14,
            sparse in proptest::any::<bool>(),
            tied in proptest::any::<bool>(),
            kind in 0u8..3,
            window in 1usize..400,
            word in (1u64 << 60)..(15u64 << 60),
        ) {
            let connectivity = if sparse { 0.4 } else { 1.0 };
            let graph = test_graph(seed, n, connectivity, tied);
            let horizon = Time::new(match kind {
                0 => 0.0,
                1 => 3.0,
                _ => 120.0,
            });
            let check = |contacts: &SampledContacts, oracle: &[ContactEvent]| {
                assert_eq!(drain_exact(contacts.events()), oracle);
                assert_eq!(drain_exact(contacts.events_in_windows_of(window)), oracle);
            };
            if tied {
                let mut constant = StepRng::new(word, 0);
                let oracle = sorted_draws(&graph, horizon, &mut StepRng::new(word, 0));
                let contacts = SampledContacts::sample(&graph, horizon, &mut constant);
                check(&contacts, &oracle);
            } else {
                let oracle = sorted_draws(&graph, horizon, &mut rng(seed ^ 1));
                let mut draws = rng(seed ^ 1);
                let contacts = SampledContacts::sample(&graph, horizon, &mut draws);
                check(&contacts, &oracle);
                // The sample made exactly the oracle's draws.
                let mut after_oracle = rng(seed ^ 1);
                sorted_draws(&graph, horizon, &mut after_oracle);
                proptest::prop_assert_eq!(draws.next_u64(), after_oracle.next_u64());
            }
        }
    }

    #[test]
    fn constant_words_tie_pairs_on_time() {
        // The tied proptest cases must actually produce equal times.
        let graph = test_graph(3, 8, 1.0, true);
        let horizon = Time::new(120.0);
        let contacts = SampledContacts::sample(&graph, horizon, &mut StepRng::new(1 << 62, 0));
        let events: Vec<_> = contacts.events().collect();
        assert!(events.windows(2).any(|w| w[0].time == w[1].time));
    }

    #[test]
    fn table2_sized_stream_equals_the_sorted_draws() {
        // n = 100, T = 1080: ~550 k contacts over ~17 windows. Debug
        // builds check a 20-node graph at the same horizon instead.
        let n = if cfg!(debug_assertions) { 20 } else { 100 };
        let graph = UniformGraphBuilder::new(n).build(&mut rng(9));
        let horizon = Time::new(1080.0);
        let oracle = sorted_draws(&graph, horizon, &mut rng(10));
        let contacts = SampledContacts::sample(&graph, horizon, &mut rng(10));
        assert_eq!(contacts.len(), oracle.len());
        assert_eq!(contacts.events().collect::<Vec<_>>(), oracle);
        let mut events = contacts.events();
        for left in (0..=oracle.len()).rev() {
            assert_eq!(events.size_hint(), (left, Some(left)));
            events.next();
        }
        let stored = contacts.len() * SampledContacts::BYTES_PER_CONTACT;
        assert!(contacts.approx_bytes() >= stored);
    }

    #[test]
    fn bucket_sort_matches_comparison_sort() {
        // The sampled order must be exactly what a full comparison sort
        // would produce, including around window and bucket boundaries.
        let g = UniformGraphBuilder::new(12).build(&mut rng(7));
        let s = ContactSchedule::sample(&g, Time::new(500.0), &mut rng(8));
        assert!(
            s.len() > 100,
            "want a non-trivial schedule, got {}",
            s.len()
        );
        let mut resorted = s.events().to_vec();
        resorted.sort();
        assert_eq!(s.events(), &resorted[..]);
    }

    #[test]
    fn event_count_matches_poisson_expectation() {
        // Single pair with rate 0.2 over horizon 10_000: expect ~2000.
        let mut g = ContactGraph::new(2);
        g.set_rate(NodeId(0), NodeId(1), Rate::new(0.2));
        let s = ContactSchedule::sample(&g, Time::new(10_000.0), &mut rng(4));
        let count = s.len() as f64;
        assert!((count - 2000.0).abs() < 150.0, "count {count}");
    }

    #[test]
    fn window_query() {
        let events = vec![
            ContactEvent::new(Time::new(1.0), NodeId(0), NodeId(1)),
            ContactEvent::new(Time::new(2.0), NodeId(0), NodeId(2)),
            ContactEvent::new(Time::new(3.0), NodeId(1), NodeId(2)),
        ];
        let s = ContactSchedule::from_events(events, 3, Time::new(10.0));
        assert_eq!(s.window(Time::new(1.5), Time::new(3.0)).len(), 1);
        assert_eq!(s.window(Time::ZERO, Time::new(10.0)).len(), 3);
    }

    #[test]
    fn rate_estimation_recovers_rates() {
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(1), Rate::new(0.5));
        g.set_rate(NodeId(1), NodeId(2), Rate::new(0.1));
        let s = ContactSchedule::sample(&g, Time::new(50_000.0), &mut rng(5));
        let est = s.estimate_rates();
        let e01 = est.rate(NodeId(0), NodeId(1)).as_f64();
        let e12 = est.rate(NodeId(1), NodeId(2)).as_f64();
        assert!((e01 - 0.5).abs() < 0.03, "estimated {e01}");
        assert!((e12 - 0.1).abs() < 0.015, "estimated {e12}");
        assert!(est.rate(NodeId(0), NodeId(2)).is_zero());
    }

    #[test]
    fn contacts_per_node_counts_both_endpoints() {
        let events = vec![
            ContactEvent::new(Time::new(1.0), NodeId(0), NodeId(1)),
            ContactEvent::new(Time::new(2.0), NodeId(0), NodeId(2)),
        ];
        let s = ContactSchedule::from_events(events, 3, Time::new(5.0));
        assert_eq!(s.contacts_per_node(), vec![2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_events_validates_ids() {
        let events = vec![ContactEvent::new(Time::new(1.0), NodeId(0), NodeId(9))];
        let _ = ContactSchedule::from_events(events, 3, Time::new(5.0));
    }

    #[test]
    #[should_panic(expected = "after horizon")]
    fn from_events_validates_horizon() {
        let events = vec![ContactEvent::new(Time::new(6.0), NodeId(0), NodeId(1))];
        let _ = ContactSchedule::from_events(events, 3, Time::new(5.0));
    }
}
