//! Serde round-trips for the public data structures (C-SERDE): contact
//! graphs, schedules, configs, and simulation reports survive
//! serialization, so experiments can be checkpointed and shipped.

use onion_dtn::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn json_roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let text = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&text).expect("deserialize")
}

#[test]
fn contact_graph_roundtrip() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let graph = UniformGraphBuilder::new(20).build(&mut rng);
    let back: ContactGraph = json_roundtrip(&graph);
    assert_eq!(back, graph);
    assert_eq!(
        back.rate(NodeId(0), NodeId(7)),
        graph.rate(NodeId(0), NodeId(7))
    );
}

#[test]
fn schedule_roundtrip() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let graph = UniformGraphBuilder::new(10).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(50.0), &mut rng);
    let back: ContactSchedule = json_roundtrip(&schedule);
    assert_eq!(back, schedule);
}

#[test]
fn message_and_config_roundtrip() {
    let m = Message {
        id: MessageId(42),
        source: NodeId(1),
        destination: NodeId(2),
        created: Time::new(10.0),
        deadline: TimeDelta::new(100.0),
        copies: 3,
    };
    assert_eq!(json_roundtrip(&m), m);

    let cfg = ProtocolConfig::table2_defaults();
    assert_eq!(json_roundtrip(&cfg), cfg);
}

#[test]
fn sim_config_roundtrip() {
    use dtn_sim::DropPolicy;

    // The paper's default (unlimited buffers) and a constrained
    // variant both survive checkpointing.
    let default = SimConfig::default();
    assert_eq!(json_roundtrip(&default), default);

    let constrained = SimConfig::builder()
        .buffer_capacity(Some(8))
        .drop_policy(DropPolicy::DropOldest)
        .wire_mode(true)
        .copy_mode(CopyMode::Coded { k: 2, m: 5 })
        .build();
    assert_eq!(json_roundtrip(&constrained), constrained);

    for policy in [DropPolicy::DropIncoming, DropPolicy::DropOldest] {
        assert_eq!(json_roundtrip(&policy), policy);
    }
}

#[test]
fn copy_mode_roundtrip() {
    for mode in [
        CopyMode::Replica(1),
        CopyMode::Replica(4),
        CopyMode::Coded { k: 1, m: 1 },
        CopyMode::Coded { k: 3, m: 5 },
        CopyMode::Coded {
            k: MAX_CODE_FRAGMENTS,
            m: MAX_CODE_FRAGMENTS,
        },
    ] {
        assert_eq!(json_roundtrip(&mode), mode);
    }
    assert_eq!(json_roundtrip(&CopyMode::default()), CopyMode::default());
}

#[test]
fn sim_counters_roundtrip() {
    use dtn_sim::SimCounters;

    let counters = SimCounters {
        contacts: 1000,
        forwards_handoff: 40,
        forwards_split: 7,
        forwards_replicate: 12,
        rejected_forwards: 3,
        buffer_drops: 2,
        buffer_evictions: 1,
        deadline_expiries: 5,
        injected: 25,
        delivered: 21,
        expired: 4,
        fault_crashes: 6,
        fault_contacts_dropped: 9,
        fault_transfers_truncated: 2,
        fault_buffer_wipes: 8,
        fault_messages_lost: 3,
        wire_packets_built: 25,
        wire_packets_peeled: 75,
        wire_bytes_sent: 819_800,
        wire_aead_seals: 75,
        wire_aead_opens: 75,
        fragments_injected: 15,
        fragments_delivered: 11,
        decode_successes: 5,
        decode_failures: 1,
    };
    assert_eq!(json_roundtrip(&counters), counters);

    // Abstract-mode counters serialize without the wire or coded fields
    // at all (the legacy shape), and still deserialize — gated fields
    // default to zero when absent, so old checkpoints load unchanged.
    let abstract_only = SimCounters {
        contacts: 7,
        injected: 2,
        delivered: 1,
        ..SimCounters::default()
    };
    let text = serde_json::to_string(&abstract_only).expect("serialize");
    assert!(
        !text.contains("wire_"),
        "abstract counters must keep the legacy serialization shape"
    );
    assert!(
        !text.contains("fragments_") && !text.contains("decode_"),
        "replica counters must not grow coded fields: {text}"
    );
    // Coded counters serialize only their nonzero tallies.
    let coded_only = SimCounters {
        fragments_injected: 9,
        decode_successes: 3,
        ..SimCounters::default()
    };
    assert_eq!(json_roundtrip(&coded_only), coded_only);
    assert_eq!(
        serde_json::from_str::<SimCounters>(&text).expect("deserialize"),
        abstract_only
    );
    assert_eq!(
        json_roundtrip(&SimCounters::default()),
        SimCounters::default()
    );
}

#[test]
fn groups_roundtrip() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let groups = OnionGroups::random_partition(30, 4, &mut rng);
    let back: OnionGroups = json_roundtrip(&groups);
    assert_eq!(back, groups);
    for node in (0..30).map(NodeId) {
        assert_eq!(back.group_of(node), groups.group_of(node));
    }
}

#[test]
fn streaming_stats_roundtrip_preserves_moments_exactly() {
    use dtn_sim::StreamingStats;

    let mut stats = StreamingStats::new();
    for i in 0..64 {
        stats.push((i as f64) * 0.37 - 5.5);
    }
    let back: StreamingStats = json_roundtrip(&stats);
    assert_eq!(back, stats);
    // Bit-exact moments: checkpoint/resume must not perturb a running
    // aggregation (serde_json float_roundtrip semantics).
    assert_eq!(
        back.mean().unwrap().to_bits(),
        stats.mean().unwrap().to_bits()
    );
    assert_eq!(
        back.variance().unwrap().to_bits(),
        stats.variance().unwrap().to_bits()
    );
    assert_eq!(back.min(), stats.min());
    assert_eq!(back.max(), stats.max());

    // Empty stats (None min/max) survive too.
    let empty = StreamingStats::new();
    assert_eq!(json_roundtrip(&empty), empty);
}

#[test]
fn runner_and_experiment_config_roundtrip() {
    use onion_routing::{RunnerConfig, SeedDomain};

    let runner = RunnerConfig::new(8);
    assert_eq!(json_roundtrip(&runner), runner);
    assert_eq!(
        json_roundtrip(&RunnerConfig::default()),
        RunnerConfig::default()
    );

    for domain in [
        SeedDomain::GraphRealization,
        SeedDomain::ScheduleRealization,
        SeedDomain::ScheduleStarts,
        SeedDomain::SecurityGraph,
        SeedDomain::SecuritySchedule,
        SeedDomain::SecurityStarts,
        SeedDomain::ModelValidation,
        SeedDomain::Faults,
        SeedDomain::Wire,
        SeedDomain::Codec,
    ] {
        assert_eq!(json_roundtrip(&domain), domain);
    }

    let opts = ExperimentOptions::builder()
        .messages(12)
        .realizations(7)
        .seed(0xDEAD_BEEF)
        .intercontact_range((1.0, 36.0))
        .threads(3)
        .build();
    assert_eq!(json_roundtrip(&opts), opts);

    // Coded options round-trip; replica options serialize without a
    // `code` key at all, so pre-coded checkpoint fingerprints (hashes of
    // the serialized options) are byte-identical and still load.
    let coded = opts.clone().into_builder().code(Some((3, 5))).build();
    assert_eq!(json_roundtrip(&coded), coded);
    let text = serde_json::to_string(&opts).expect("serialize");
    assert!(
        !text.contains("code"),
        "replica options must keep the legacy serialization shape: {text}"
    );
    // Explicit null also reads back as None (hand-rolled forward compat).
    let nulled = text.replace("\"wire\":false", "\"wire\":false,\"code\":null");
    assert_eq!(
        serde_json::from_str::<ExperimentOptions>(&nulled).expect("deserialize"),
        opts
    );
}

#[test]
fn point_summary_roundtrip() {
    let cfg = ProtocolConfig {
        nodes: 40,
        group_size: 4,
        onions: 2,
        compromised: 4,
        deadline: TimeDelta::new(240.0),
        ..ProtocolConfig::table2_defaults()
    };
    let opts = ExperimentOptions::builder()
        .messages(6)
        .realizations(2)
        .seed(5)
        .build();
    let point = run_random_graph_point(&cfg, &opts);
    let back: PointSummary = json_roundtrip(&point);
    assert_eq!(back, point);
    assert_eq!(
        back.delivery_stats.mean().map(f64::to_bits),
        point.delivery_stats.mean().map(f64::to_bits)
    );
}

#[test]
fn trace_event_roundtrip_covers_every_variant() {
    use obs::TraceEvent;

    let events = [
        TraceEvent::Inject {
            time: 0.5,
            message: 1,
            source: 2,
            destination: 3,
        },
        TraceEvent::Seal {
            time: 0.5,
            message: 1,
            node: 2,
            layers: 3,
        },
        TraceEvent::Forward {
            time: 1.25,
            message: 1,
            from: 2,
            to: 7,
            kind: "handoff".to_string(),
            route_group: 1,
        },
        TraceEvent::Peel {
            time: 1.25,
            message: 1,
            node: 7,
        },
        TraceEvent::Deliver {
            time: 9.0,
            message: 1,
            node: 3,
        },
        TraceEvent::Drop {
            time: 2.0,
            message: 4,
            node: 5,
        },
        TraceEvent::Expire {
            time: 3.0,
            message: 4,
            node: 5,
        },
        TraceEvent::FaultCrash { time: 4.0, node: 6 },
        TraceEvent::FaultBufferWipe {
            time: 4.0,
            node: 6,
            message: 4,
        },
        TraceEvent::FaultContactDrop {
            time: 5.0,
            a: 1,
            b: 2,
        },
        TraceEvent::FaultTransferTruncated {
            time: 6.0,
            from: 1,
            to: 2,
        },
        TraceEvent::FaultMessageLost {
            time: 7.0,
            message: 4,
            from: 1,
            to: 2,
        },
        TraceEvent::Quarantine {
            time: 7.0,
            attempts: 2,
            message: "boom".to_string(),
        },
    ];
    for event in &events {
        assert_eq!(&json_roundtrip(event), event);
    }
    // The wire tags are the stable JSONL vocabulary.
    let text = serde_json::to_string(&events[0]).unwrap();
    assert!(text.contains("\"inject\""), "{text}");
    let text = serde_json::to_string(&events[7]).unwrap();
    assert!(text.contains("\"fault_crash\""), "{text}");
}

#[test]
fn quarantine_event_roundtrip() {
    use obs::TraceEvent;

    // A panic message may carry quotes, backslashes and any Unicode.
    let event = TraceEvent::Quarantine {
        time: 239.983,
        attempts: 2,
        message: "forced \"panic\" in C:\\trial 3 — naïve 🚀".to_string(),
    };
    assert_eq!(json_roundtrip(&event), event);
    let text = serde_json::to_string(&event).unwrap();
    let head = "{\"event\":\"quarantine\",\"time\":";
    assert!(text.starts_with(head), "{text}");
    // A trace-file line decodes to the event: `trial` and `seq` are
    // ignored.
    let line = format!("{{\"trial\":0,\"seq\":6328,{}", &text[1..]);
    assert_eq!(serde_json::from_str::<TraceEvent>(&line).unwrap(), event);
}

#[test]
fn sim_report_roundtrip_preserves_metrics() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let graph = UniformGraphBuilder::new(20).build(&mut rng);
    let schedule = ContactSchedule::sample(&graph, Time::new(120.0), &mut rng);
    let groups = OnionGroups::random_partition(20, 2, &mut rng);
    let mut protocol = OnionRouting::new(groups, 2, ForwardingMode::SingleCopy);
    let m = Message {
        id: MessageId(0),
        source: NodeId(0),
        destination: NodeId(19),
        created: Time::ZERO,
        deadline: TimeDelta::new(120.0),
        copies: 1,
    };
    let report = run(
        &schedule,
        &mut protocol,
        vec![m],
        &SimConfig::default(),
        &mut rng,
    )
    .unwrap();
    let back: SimReport = json_roundtrip(&report);
    assert_eq!(back.delivery_rate(), report.delivery_rate());
    assert_eq!(back.total_transmissions(), report.total_transmissions());
    assert_eq!(
        back.delivered_path(MessageId(0)),
        report.delivered_path(MessageId(0))
    );
}
