//! Chaos battery: crash-safety, deadlines, and hostile clients over
//! real TCP sockets.
//!
//! What the durable store promises (DESIGN.md §4j) is proven here the
//! hard way:
//!
//! * a server restarted onto a tampered store directory — torn tail
//!   appended mid-record plus a bad-CRC record, exactly what a
//!   `kill -9` mid-write leaves behind — rebuilds byte-identical warm
//!   responses from its stored rows without recomputing one, and
//!   quarantines the damage;
//! * requests that out-wait their deadline in the queue are shed with
//!   `503` + `Retry-After` before any work starts;
//! * a fault sweep that runs out of deadline mid-way returns
//!   `504 deadline_exceeded`, persists the completed rows, and a retry
//!   resumes from them to a byte-identical final answer;
//! * slowloris tricklers are disconnected by the overall read budget
//!   and release their worker slot;
//! * deterministic socket-level garbage never kills the daemon.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

use onion_dtn::prelude::*;
use onion_dtn::serve::http::{read_response, write_request, ErrorBody, Response};
use onion_dtn::serve::store::{crc32, STORE_LOG};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Unique scratch dir per test, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("onion-dtn-chaos-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Binds port 0 and runs the server on a background thread.
fn start(cfg: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..cfg
    })
    .expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (handle, join)
}

/// One full request/response exchange on a fresh connection.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, method, path, body).expect("write request");
    read_response(&mut stream).expect("read response")
}

/// Asserts the unified error envelope and returns the `code` string.
fn assert_error_envelope(resp: &Response, want_status: u16) -> String {
    assert_eq!(resp.status, want_status, "{}", resp.body);
    let envelope: ErrorBody =
        serde_json::from_str(&resp.body).expect("error body matches the envelope shape");
    envelope.error.code
}

/// A cheap sweep: fast enough to compute during the warm-up phase of
/// the crash test, expensive enough that recomputing it would be
/// visible in `sweep_computes`.
fn small_point() -> (ProtocolConfig, ExperimentOptions) {
    let cfg = ProtocolConfig {
        nodes: 40,
        group_size: 3,
        onions: 2,
        deadline: TimeDelta::new(360.0),
        compromised: 4,
        ..ProtocolConfig::table2_defaults()
    };
    let opts = ExperimentOptions::builder()
        .messages(6)
        .realizations(3)
        .seed(0xC4A5)
        .build();
    (cfg, opts)
}

fn sweep_body(cfg: &ProtocolConfig, opts: &ExperimentOptions) -> String {
    format!(
        "{{\"config\":{},\"opts\":{}}}",
        serde_json::to_string(cfg).unwrap(),
        serde_json::to_string(opts).unwrap(),
    )
}

/// Frames one store record (`len ‖ crc32 ‖ fp_len ‖ fp ‖ body`) the
/// way `serve::store` does, optionally with a deliberately wrong CRC.
fn frame_record(fingerprint: &str, body: &str, corrupt_crc: bool) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(fingerprint.len() as u16).to_le_bytes());
    payload.extend_from_slice(fingerprint.as_bytes());
    payload.extend_from_slice(body.as_bytes());
    let crc = if corrupt_crc {
        0xDEAD_BEEFu32
    } else {
        crc32(&payload)
    };
    let mut record = Vec::new();
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc.to_le_bytes());
    record.extend_from_slice(&payload);
    record
}

#[test]
fn tampered_store_replays_byte_identical_warm_responses_after_restart() {
    let scratch = Scratch::new("restart");
    let (cfg, opts) = small_point();
    let body = sweep_body(&cfg, &opts);

    // Phase 1: warm the store.
    let warm_body = {
        let (handle, join) = start(ServeConfig {
            workers: 2,
            store_dir: Some(scratch.0.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        });
        let resp = exchange(handle.local_addr(), "POST", "/v1/sweep/point", &body);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(handle.stats().store_writes.load(Ordering::SeqCst), 1);
        handle.shutdown();
        join.join().unwrap();
        resp.body
    };

    // Phase 2: tamper with the log the way a kill -9 mid-write would —
    // a framed record whose CRC doesn't match its payload, then a torn
    // tail (a header promising more bytes than exist).
    let log = scratch.0.join(STORE_LOG);
    let mut bytes = std::fs::read(&log).unwrap();
    bytes.extend_from_slice(&frame_record("poisoned", "{\"bad\":true}", true));
    bytes.extend_from_slice(&500u32.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(b"only a few torn bytes");
    std::fs::write(&log, &bytes).unwrap();

    // Phase 3: restart onto the tampered directory. Recovery must keep
    // the good record, quarantine the bad-CRC one, truncate the tear —
    // and the warm response must come back byte-identical, rebuilt from
    // the stored row.
    let (handle, join) = start(ServeConfig {
        workers: 2,
        store_dir: Some(scratch.0.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();
    let stats = handle.stats();
    assert_eq!(
        stats.store_records_quarantined.load(Ordering::SeqCst),
        1,
        "the bad-CRC record is counted at recovery"
    );

    let warm = exchange(addr, "POST", "/v1/sweep/point", &body);
    assert_eq!(warm.status, 200, "{}", warm.body);
    assert_eq!(warm.body, warm_body, "store replay must be byte-identical");
    assert_eq!(
        stats.store_misses.load(Ordering::SeqCst),
        0,
        "no row of the warm response is recomputed"
    );
    assert!(stats.store_hits.load(Ordering::SeqCst) >= 1);

    // The rebuilt body is in the LRU and serves the next hit.
    let again = exchange(addr, "POST", "/v1/sweep/point", &body);
    assert_eq!(again.body, warm_body);
    assert!(stats.cache_hits.load(Ordering::SeqCst) >= 1);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn requests_expiring_in_the_queue_are_shed_with_503() {
    // One worker with a sub-second deadline: while a client holds it
    // mid-body for as long as this test chooses, a queued request
    // out-waits its deadline and must be shed at dequeue without ever
    // counting as in-flight. No machine speed enters: the worker waits
    // on the held body, which it reads within `read_timeout_secs`.
    const HOLD: Duration = Duration::from_millis(1500);
    let (handle, join) = start(ServeConfig {
        workers: 1,
        request_deadline_secs: 0.5,
        read_timeout_secs: 20.0 * HOLD.as_secs_f64(),
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();

    // Occupy the only worker (dequeued immediately, so its own deadline
    // check at dequeue passes) with a cheap model request whose last
    // body bytes arrive only after the hold...
    let mut request = Vec::new();
    write_request(&mut request, "POST", "/v1/model/cost", "{\"onions\":3}").unwrap();
    let (head, tail) = request.split_at(request.len() - 3);
    let mut busy = TcpStream::connect(addr).expect("connect busy");
    busy.write_all(head).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // ...then queue a request that expires while the worker is held.
    let mut expired = TcpStream::connect(addr).expect("connect expired");
    write_request(&mut expired, "GET", "/healthz", "").unwrap();
    std::thread::sleep(HOLD);
    busy.write_all(tail).unwrap();

    let shed = read_response(&mut expired).expect("read shed response");
    assert_eq!(assert_error_envelope(&shed, 503), "overloaded");
    assert_eq!(shed.retry_after, Some(1));
    assert_eq!(
        handle.stats().deadline_queue_expired.load(Ordering::SeqCst),
        1
    );

    // The held request itself still completes.
    assert_eq!(read_response(&mut busy).unwrap().status, 200);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn mid_sweep_deadline_returns_504_and_a_retry_resumes_from_persisted_rows() {
    let scratch = Scratch::new("deadline");
    // Rows take multiple seconds each (full Table II graph); the
    // deadline expires during row 0, so the sweep is cancelled at the
    // row boundary with row 0 already persisted. This stays
    // deterministic at any machine speed as long as one row outlasts
    // 400 ms, which this configuration does by a wide margin.
    let (handle, join) = start(ServeConfig {
        workers: 2,
        store_dir: Some(scratch.0.to_string_lossy().into_owned()),
        request_deadline_secs: 0.4,
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();
    let stats = handle.stats();

    let cfg = ProtocolConfig {
        deadline: TimeDelta::new(1080.0),
        ..ProtocolConfig::table2_defaults()
    };
    let opts = ExperimentOptions::builder()
        .messages(10)
        .realizations(12)
        .seed(0xFA01)
        .build();
    let plan = FaultPlan {
        churn: None,
        contact_failure: 0.3,
        transfer_truncation: 0.0,
        message_loss: 0.0,
    };
    // Both rows are faulted: a fault-free row's trials stop replaying
    // once their messages are done, so in a release build row 0 could
    // finish inside the 400 ms deadline.
    let intensities = [0.5, 1.0];
    let body = format!(
        "{{\"config\":{},\"opts\":{},\"plan\":{},\"intensities\":[0.5,1.0]}}",
        serde_json::to_string(&cfg).unwrap(),
        serde_json::to_string(&opts).unwrap(),
        serde_json::to_string(&plan).unwrap(),
    );

    // First attempt: row 0 completes (work started before the deadline
    // runs to the next row boundary), row 1 is cancelled → 504.
    let first = exchange(addr, "POST", "/v1/sweep/fault", &body);
    assert_eq!(assert_error_envelope(&first, 504), "deadline_exceeded");
    assert!(
        first.body.contains("1 of 2"),
        "the envelope reports partial progress: {}",
        first.body
    );
    assert_eq!(stats.deadline_exceeded.load(Ordering::SeqCst), 1);
    assert_eq!(
        stats.store_writes.load(Ordering::SeqCst),
        1,
        "the completed row is persisted before the 504"
    );

    // Retry: row 0 replays from the store instantly; row 1 starts well
    // within the deadline and — once started — runs to completion.
    let retry = exchange(addr, "POST", "/v1/sweep/fault", &body);
    assert_eq!(retry.status, 200, "{}", retry.body);
    assert!(stats.store_hits.load(Ordering::SeqCst) >= 1);

    // The resumed answer is byte-identical to an uninterrupted offline
    // run of the same sweep.
    let offline = SweepSpec::random_graph(cfg)
        .over_faults(plan, &intensities)
        .run(&opts)
        .into_fault()
        .expect("fault rows");
    assert_eq!(retry.body, serde_json::to_string(&offline).unwrap());

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn slowloris_trickler_is_disconnected_and_frees_its_worker() {
    // One worker, one-second read budget: a client trickling a byte at
    // a time arrives too fast for a per-read socket timeout but must be
    // cut off by the overall budget.
    let (handle, join) = start(ServeConfig {
        workers: 1,
        read_timeout_secs: 1.0,
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();

    let trickler = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect trickler");
        let head = b"GET /healthz HTTP/1.1\r\nHost: slow\r\n\r\n";
        for chunk in head.chunks(1) {
            if stream.write_all(chunk).is_err() {
                return true; // disconnected mid-trickle
            }
            let _ = stream.flush();
            std::thread::sleep(Duration::from_millis(250));
        }
        // Finished the whole head without being cut: the server never
        // enforced the budget (2.5 s of trickling >> the 1 s budget) —
        // unless the response below errors out, that's a failure.
        read_response(&mut stream).is_err()
    });

    // While the trickler holds (then loses) the only worker, a healthy
    // request queued behind it must still be served promptly.
    let resp = exchange(addr, "GET", "/healthz", "");
    assert_eq!(resp.status, 200);

    assert!(
        trickler.join().unwrap(),
        "the trickler must be disconnected by the read budget"
    );
    // The worker slot is free again: nothing in flight once the dust
    // settles.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(handle.stats().inflight.load(Ordering::SeqCst), 0);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn deterministic_socket_garbage_never_kills_the_server() {
    let (handle, join) = start(ServeConfig {
        workers: 2,
        read_timeout_secs: 1.0,
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();

    let mut rng = ChaCha8Rng::seed_from_u64(0xC4A0_5CAF);
    for round in 0..40 {
        let mut blob = vec![0u8; rng.gen_range(1..512usize)];
        for b in &mut blob {
            *b = rng.gen::<u8>();
        }
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let _ = stream.write_all(&blob);
        let _ = stream.flush();
        // Whatever comes back — a 4xx envelope or a straight close
        // (read error) — it must be a clean socket-level outcome, not a
        // hung worker.
        if let Ok(resp) = read_response(&mut stream) {
            assert!(
                (400..500).contains(&resp.status),
                "round {round}: garbage must map to 4xx, got {}",
                resp.status
            );
        }
    }

    // The daemon is still healthy after the barrage (a panicking worker
    // or acceptor would poison `run()` and fail the join below).
    let resp = exchange(addr, "GET", "/healthz", "");
    assert_eq!(resp.status, 200);
    handle.shutdown();
    join.join().unwrap();
}
