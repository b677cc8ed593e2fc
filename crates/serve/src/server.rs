//! The TCP accept loop, worker pool, and graceful shutdown plumbing.
//!
//! Architecture: one acceptor thread (the caller of [`Server::run`])
//! pushes accepted connections into a [`BoundedQueue`]; a fixed pool of
//! worker threads pops, parses, routes, and responds. When the queue is
//! full the acceptor writes a `503` + `Retry-After` *inline* and closes
//! — explicit backpressure instead of unbounded buffering.
//!
//! Shutdown is drain-and-exit: [`ServerHandle::shutdown`] (or the
//! `/v1/admin/shutdown` endpoint) flips an atomic flag and nudges the
//! acceptor with a loopback connection; the acceptor stops accepting,
//! closes the queue, and joins the workers — which finish every already
//! accepted request before exiting.
//!
//! Every connection is stamped with its accept time. That timestamp
//! anchors the request deadline: a connection that already waited past
//! the deadline in the queue is shed at dequeue with `503` +
//! `Retry-After` (cheaper than starting doomed work), and one that
//! expires mid-sweep gets `504 deadline_exceeded`; with `--store`, its
//! completed rows are persisted for the retry to resume from, and
//! without one the retry starts over.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{Api, ApiLimits};
use crate::http::{read_request_within, write_response, HttpError, Response};
use crate::queue::{BoundedQueue, PushError};
use crate::stats::{Counter, ServeStats};
use crate::store::ResponseStore;

/// Default per-connection read timeout (seconds): a client that stalls
/// or trickles mid-request cannot pin a worker forever. Overridable via
/// [`ServeConfig::read_timeout_secs`].
pub const DEFAULT_READ_TIMEOUT_SECS: f64 = 10.0;

/// Default wall-clock request deadline (seconds), measured from accept.
/// Generous on purpose: it exists to bound pathological queue waits and
/// runaway sweeps, not to race healthy requests.
pub const DEFAULT_REQUEST_DEADLINE_SECS: f64 = 300.0;

/// Default durable-store size budget: 256 MiB.
pub const DEFAULT_STORE_BUDGET_BYTES: u64 = 268_435_456;

/// Everything the daemon needs to come up.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Worker threads; `0` = available parallelism.
    pub workers: usize,
    /// Bounded connection-queue depth (backpressure threshold).
    pub queue_depth: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Threads each sweep computation may use.
    pub sweep_threads: usize,
    /// Largest accepted `opts.realizations` on sweep requests.
    pub max_realizations: usize,
    /// Largest accepted `opts.messages` on sweep requests.
    pub max_messages: usize,
    /// Durable response-store directory; `None` disables the store.
    pub store_dir: Option<String>,
    /// Durable-store size budget in bytes (oldest-first compaction).
    pub store_budget_bytes: u64,
    /// Wall-clock request deadline in seconds, measured from accept.
    pub request_deadline_secs: f64,
    /// Overall per-connection read budget in seconds.
    pub read_timeout_secs: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_depth: 128,
            cache_capacity: 512,
            cache_shards: 8,
            sweep_threads: 1,
            max_realizations: 64,
            max_messages: 200,
            store_dir: None,
            store_budget_bytes: DEFAULT_STORE_BUDGET_BYTES,
            request_deadline_secs: DEFAULT_REQUEST_DEADLINE_SECS,
            read_timeout_secs: DEFAULT_READ_TIMEOUT_SECS,
        }
    }
}

/// A failure bringing the daemon up or running it.
#[derive(Debug)]
pub enum ServeError {
    /// The listener could not bind (address in use, bad address, ...).
    Bind(String),
    /// An I/O failure on the listening socket itself.
    Io(std::io::Error),
    /// The durable response store could not be opened.
    Store(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(m) => write!(f, "bind: {m}"),
            ServeError::Io(e) => write!(f, "listener: {e}"),
            ServeError::Store(m) => write!(f, "store: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One accepted connection plus the moment it arrived; the accept time
/// anchors both queue-expiry shedding and the request deadline.
struct Conn {
    stream: TcpStream,
    accepted: Instant,
}

/// Shared state between the acceptor, the workers, and handles.
struct Shared {
    api: Api,
    stats: Arc<ServeStats>,
    queue: BoundedQueue<Conn>,
    stop: AtomicBool,
    local_addr: SocketAddr,
    request_deadline: Option<Duration>,
    read_timeout: Option<Duration>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
}

/// A cheap clone-able handle that can stop a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Requests a graceful drain-and-exit: stop accepting, finish every
    /// queued and in-flight request, then return from [`Server::run`].
    /// Idempotent; safe from any thread.
    pub fn shutdown(&self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Nudge the acceptor out of its blocking accept() with a
        // throwaway loopback connection; best-effort by design.
        let _ = TcpStream::connect_timeout(&self.shared.local_addr, Duration::from_secs(1));
    }

    /// The address the server is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The server's own statistics (what `/metricsz` reports).
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }
}

impl Server {
    /// Binds the listener and builds the shared state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] when the address cannot be bound.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ServeError::Bind(format!("{}: {e}", cfg.addr)))?;
        let local_addr = listener.local_addr().map_err(ServeError::Io)?;
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism().map_or(2, |n| n.get())
        } else {
            cfg.workers
        };
        let stats = Arc::new(ServeStats::new());
        let store = match &cfg.store_dir {
            Some(dir) => Some(Arc::new(
                ResponseStore::open(Path::new(dir), cfg.store_budget_bytes)
                    .map_err(|e| ServeError::Store(format!("{dir}: {e}")))?,
            )),
            None => None,
        };
        let api = Api::new(
            cfg.cache_capacity,
            cfg.cache_shards,
            store,
            Arc::clone(&stats),
            ApiLimits {
                sweep_threads: cfg.sweep_threads.max(1),
                max_realizations: cfg.max_realizations,
                max_messages: cfg.max_messages,
            },
        );
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                api,
                stats,
                queue: BoundedQueue::new(cfg.queue_depth),
                stop: AtomicBool::new(false),
                local_addr,
                request_deadline: positive_secs(cfg.request_deadline_secs),
                read_timeout: positive_secs(cfg.read_timeout_secs),
            }),
            workers,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// A handle for stopping the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`] fires, then
    /// drains and joins the workers. Consumes the server.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] only for listener-level failures; per-connection
    /// errors are answered on the wire and never abort the loop.
    pub fn run(self) -> Result<(), ServeError> {
        obs::info!(
            "serve",
            "listening on {} with {} worker(s)",
            self.shared.local_addr,
            self.workers
        );
        let handle = self.handle();
        let worker_threads: Vec<_> = (0..self.workers)
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &handle_of(&shared)))
                    .expect("spawn worker thread")
            })
            .collect();
        drop(handle);

        for stream in self.listener.incoming() {
            if self.shared.stop.load(Ordering::SeqCst) {
                // The nudge connection (or any racing client) lands here;
                // drop it and stop accepting.
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    obs::warn!("serve", "accept failed: {e}");
                    continue;
                }
            };
            let conn = Conn {
                stream,
                accepted: Instant::now(),
            };
            match self.shared.queue.try_push(conn) {
                Ok(_depth) => self.shared.stats.queue_depth.add(1),
                Err(PushError::Full(conn) | PushError::Closed(conn)) => {
                    shed(
                        &self.shared.stats.rejected,
                        conn.stream,
                        "queue full, retry shortly",
                    );
                }
            }
        }

        self.shared.queue.close();
        for t in worker_threads {
            let _ = t.join();
        }
        obs::info!("serve", "drained and stopped");
        Ok(())
    }
}

fn handle_of(shared: &Arc<Shared>) -> ServerHandle {
    ServerHandle {
        shared: Arc::clone(shared),
    }
}

/// `secs > 0` as a [`Duration`]; zero or negative disables the knob.
fn positive_secs(secs: f64) -> Option<Duration> {
    (secs > 0.0 && secs.is_finite()).then(|| Duration::from_secs_f64(secs))
}

/// Sheds one connection with `503 overloaded` + `Retry-After: 1`,
/// best-effort, counted under `counter`: a full queue and a deadline
/// that expired in the queue are told apart by the counter and the
/// message.
fn shed(counter: &Counter, mut stream: TcpStream, message: &str) {
    counter.bump();
    let resp = Response {
        retry_after: Some(1),
        ..Response::error(503, "overloaded", message)
    };
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = write_response(&mut stream, &resp);
    let _ = stream.flush();
}

fn worker_loop(shared: &Shared, handle: &ServerHandle) {
    while let Some(conn) = shared.queue.pop() {
        shared.stats.queue_depth.add(-1);
        // A connection whose deadline already expired while queued gets
        // shed here — answering is cheaper than starting doomed work,
        // and it never counts as in-flight.
        if let Some(deadline) = shared.request_deadline {
            if conn.accepted.elapsed() >= deadline {
                let expired = "deadline expired while queued, retry shortly";
                shed(&shared.stats.deadline_queue_expired, conn.stream, expired);
                continue;
            }
        }
        shared.stats.inflight.add(1);
        let shutdown_after = handle_connection(shared, conn);
        shared.stats.inflight.add(-1);
        if shutdown_after {
            handle.shutdown();
        }
    }
}

/// Serves one connection end to end; returns whether the response asked
/// for a server shutdown.
fn handle_connection(shared: &Shared, conn: Conn) -> bool {
    let Conn {
        mut stream,
        accepted,
    } = conn;
    let _ = stream.set_read_timeout(shared.read_timeout);
    let _ = stream.set_nodelay(true);
    let started = Instant::now();
    let deadline = shared.request_deadline.map(|d| accepted + d);
    let (response, class) = match read_request_within(&mut stream, shared.read_timeout) {
        Ok(req) => {
            let class = Api::class_of(&req.path);
            (shared.api.handle_at(&req, deadline), class)
        }
        Err(HttpError::TooLarge(m)) => (Response::error(413, "too_large", &m), "other"),
        Err(HttpError::Malformed(m)) => (Response::error(400, "malformed_request", &m), "other"),
        Err(HttpError::Io(e)) => {
            // Nothing parseable arrived; log and drop without a response.
            obs::debug!("serve", "read failed: {e}");
            return false;
        }
    };
    shared
        .stats
        .observe(class, response.status, started.elapsed().as_secs_f64());
    if let Err(e) = write_response(&mut stream, &response) {
        obs::debug!("serve", "write failed: {e}");
    }
    response.shutdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_response, write_request};

    fn roundtrip(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_request(&mut stream, method, path, body).unwrap();
        read_response(&mut stream).unwrap()
    }

    #[test]
    fn serves_health_and_shuts_down_gracefully() {
        let server = Server::bind(&ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let resp = roundtrip(addr, "GET", "/healthz", "");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"status\":\"ok\"}");

        handle.shutdown();
        runner.join().unwrap().unwrap();
        // After shutdown the port no longer accepts.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn admin_shutdown_endpoint_stops_the_server() {
        let server = Server::bind(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run());
        let resp = roundtrip(addr, "POST", "/v1/admin/shutdown", "");
        assert_eq!(resp.status, 200);
        runner.join().unwrap().unwrap();
    }

    #[test]
    fn bind_failure_is_reported() {
        let taken = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap();
        let err = Server::bind(&ServeConfig {
            addr: addr.to_string(),
            ..ServeConfig::default()
        });
        assert!(matches!(err, Err(ServeError::Bind(_))));
    }

    #[test]
    fn malformed_request_gets_400_and_server_survives() {
        let server = Server::bind(&ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NOT HTTP AT ALL\r\n\r\n").unwrap();
        let resp = read_response(&mut stream).unwrap();
        assert_eq!(resp.status, 400);

        // The server still serves after the bad client.
        let resp = roundtrip(addr, "GET", "/healthz", "");
        assert_eq!(resp.status, 200);
        handle.shutdown();
        runner.join().unwrap().unwrap();
    }
}
