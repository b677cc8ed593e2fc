//! The engine's idle tail changes no output.
//!
//! Over an exact-size contact stream, `run_stream` stops pulling
//! contacts once every message is injected and no copy is buffered (with
//! no fault plan and a protocol that does not observe contacts), and
//! counts the unread ones instead. Each case here runs the same schedule
//! twice: once as `schedule.iter().copied()`, whose size is exact, and
//! once through an adapter whose `size_hint` is `(0, None)`, which is
//! always read to its end. Report, forward log and every `SimCounters`
//! field must be equal.

use dtn_sim::baselines::{DirectDelivery, Epidemic, FirstContact, SprayAndWait};
use dtn_sim::prophet::Prophet;
use dtn_sim::{ContactView, Forward, SimCounters};
use onion_dtn::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Hides an iterator's length: the engine must read it to the end.
struct Inexact<I>(I);

impl<I: Iterator> Iterator for Inexact<I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        self.0.next()
    }
}

/// Counts the contacts the engine pulls, keeping the exact size.
struct Pulled<'a, I> {
    inner: I,
    pulled: &'a mut usize,
}

impl<I: Iterator> Iterator for Pulled<'_, I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        let next = self.inner.next();
        *self.pulled += usize::from(next.is_some());
        next
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

struct World {
    nodes: usize,
    schedule: ContactSchedule,
    messages: Vec<Message>,
}

/// A Table II-like graph whose messages live for `ttl` of the `horizon`,
/// so most runs go idle well before the schedule ends. Messages start
/// at up to eight staggered times in the first half, so a run can hold
/// no copy while later messages still wait to be injected.
fn world(seed: u64, nodes: usize, horizon: f64, ttl: f64, copies: u32) -> World {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = UniformGraphBuilder::new(nodes).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(horizon), &mut rng);
    let start = |source: NodeId| Time::new(f64::from(source.0 % 8) * horizon / 16.0);
    let messages = WorkloadBuilder::new(12, TimeDelta::new(ttl))
        .copies(copies)
        .build_with_starts(nodes, start, &mut rng);
    World {
        nodes,
        schedule,
        messages,
    }
}

/// One run over `events`; returns the report and the fault RNG's next
/// word, which shows how far the run drew from it.
fn run_over<P, I>(
    w: &World,
    events: I,
    protocol: &mut P,
    config: &SimConfig,
    plan: &FaultPlan,
) -> (SimReport, u64)
where
    P: RoutingProtocol + ?Sized,
    I: IntoIterator<Item = ContactEvent>,
{
    let mut fault_rng = ChaCha8Rng::seed_from_u64(0xFA);
    let report = run_stream(
        w.nodes,
        w.schedule.horizon(),
        events,
        protocol,
        w.messages.clone(),
        config,
        plan,
        &mut fault_rng,
        &mut ChaCha8Rng::seed_from_u64(0x5EED),
    )
    .expect("valid run");
    (report, fault_rng.next_u64())
}

/// Runs a fresh protocol from `make` over the exact and the inexact
/// stream, asserts the outputs are equal, and returns how many contacts
/// the exact run pulled.
fn assert_tail_is_inert<P: RoutingProtocol>(
    label: &str,
    w: &World,
    make: impl Fn() -> P,
    config: &SimConfig,
    plan: &FaultPlan,
) -> usize {
    let mut pulled = 0;
    let events = Pulled {
        inner: w.schedule.iter().copied(),
        pulled: &mut pulled,
    };
    let (exact, exact_faults) = run_over(w, events, &mut make(), config, plan);
    let (full, full_faults) = run_over(
        w,
        Inexact(w.schedule.iter().copied()),
        &mut make(),
        config,
        plan,
    );
    let counters = |r: &SimReport| *r.counters().expect("engine reports counters");
    assert_eq!(counters(&exact), counters(&full), "{label}: counters");
    assert_eq!(
        counters(&exact).contacts,
        w.schedule.len() as u64,
        "{label}"
    );
    assert_eq!(exact.forward_log(), full.forward_log(), "{label}: forwards");
    let json = |r: &SimReport| serde_json::to_string(r).expect("reports serialize");
    assert_eq!(json(&exact), json(&full), "{label}: report");
    assert_eq!(exact_faults, full_faults, "{label}: fault RNG position");
    pulled
}

fn onion(w: &World, mode: ForwardingMode) -> OnionRouting {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0A10);
    let groups = OnionGroups::random_partition(w.nodes, 4, &mut rng);
    OnionRouting::new(groups, 3, mode)
}

fn logged() -> SimConfig {
    SimConfig::builder().build()
}

#[test]
fn baselines_match_with_and_without_the_idle_tail() {
    let w = world(1, 40, 600.0, 90.0, 4);
    let (config, plan) = (logged(), FaultPlan::none());
    let pulled = [
        assert_tail_is_inert("direct", &w, || DirectDelivery, &config, &plan),
        assert_tail_is_inert("epidemic", &w, || Epidemic, &config, &plan),
        assert_tail_is_inert("spray", &w, SprayAndWait::source, &config, &plan),
        assert_tail_is_inert("first-contact", &w, || FirstContact, &config, &plan),
    ];
    // The case must exercise the early stop, not just a full replay.
    assert!(pulled.iter().any(|&p| p < w.schedule.len()), "{pulled:?}");
}

#[test]
fn onion_routing_matches_in_every_mode() {
    let w = world(2, 40, 600.0, 150.0, 1);
    let plan = FaultPlan::none();
    let single = || onion(&w, ForwardingMode::SingleCopy);
    let pulled = assert_tail_is_inert("single", &w, single, &logged(), &plan);
    assert!(pulled < w.schedule.len(), "single-copy run never went idle");

    let multi_world = world(3, 40, 600.0, 150.0, 3);
    let multi = || onion(&multi_world, ForwardingMode::MultiCopy);
    assert_tail_is_inert("multi", &multi_world, multi, &logged(), &plan);

    let wire = SimConfig::builder().wire_mode(true).build();
    let wired = || single().with_wire(ChaCha8Rng::seed_from_u64(0x317E));
    assert_tail_is_inert("wire", &w, wired, &wire, &plan);

    let coded = SimConfig::builder()
        .copy_mode(CopyMode::Coded { k: 2, m: 3 })
        .build();
    let coder = || single().with_code(2, 3, ChaCha8Rng::seed_from_u64(0xC0DE));
    assert_tail_is_inert("coded", &w, coder, &coded, &plan);
}

/// PRoPHET with a tally of its contact observations.
struct Observed {
    inner: Prophet,
    observed: usize,
}

impl RoutingProtocol for Observed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn on_inject(&mut self, message: &Message, rng: &mut dyn RngCore) -> dtn_sim::CopyState {
        self.inner.on_inject(message, rng)
    }
    fn on_contact_observed(&mut self, a: NodeId, b: NodeId, time: Time) {
        self.observed += 1;
        self.inner.on_contact_observed(a, b, time);
    }
    fn observes_contacts(&self) -> bool {
        self.inner.observes_contacts()
    }
    fn on_contact(&mut self, view: &dyn ContactView, rng: &mut dyn RngCore) -> Vec<Forward> {
        self.inner.on_contact(view, rng)
    }
}

#[test]
fn an_observing_protocol_sees_every_contact() {
    let w = world(4, 30, 400.0, 60.0, 1);
    let make = || Observed {
        inner: Prophet::new(w.nodes),
        observed: 0,
    };
    let pulled = assert_tail_is_inert("prophet", &w, make, &logged(), &FaultPlan::none());
    assert_eq!(pulled, w.schedule.len());

    let mut observed = make();
    run_over(
        &w,
        w.schedule.iter().copied(),
        &mut observed,
        &logged(),
        &FaultPlan::none(),
    );
    assert_eq!(observed.observed, w.schedule.len());
}

#[test]
fn a_fault_plan_reads_the_whole_stream() {
    let w = world(5, 40, 600.0, 90.0, 1);
    let plan = FaultPlan {
        churn: Some(ChurnConfig {
            crash_rate: 0.002,
            mean_downtime: 30.0,
            memory: ChurnMemory::Forget,
        }),
        contact_failure: 0.1,
        transfer_truncation: 0.1,
        message_loss: 0.05,
    };
    let single = || onion(&w, ForwardingMode::SingleCopy);
    let pulled = assert_tail_is_inert("faulted", &w, single, &logged(), &plan);
    assert_eq!(pulled, w.schedule.len());
    let counters: SimCounters = *run_over(
        &w,
        w.schedule.iter().copied(),
        &mut single(),
        &logged(),
        &plan,
    )
    .0
    .counters()
    .expect("engine reports counters");
    assert!(counters.fault_contacts_dropped > 0, "the plan must bite");
}
