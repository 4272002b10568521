//! The socket front end: a blocking worker-accept loop over
//! `std::net::TcpListener`.
//!
//! N worker threads share one listener (via `try_clone`) and each
//! serves one connection at a time through two per-connection buffers.
//! One `read` fills the connection's [`FrameReader`] with whatever the
//! socket holds, often a client's whole pipelined batch. For each
//! buffered frame in turn the worker decodes it, takes the one daemon
//! lock, runs [`FleetDaemon::handle`], releases the lock and appends the
//! reply to the connection's reply buffer: requests execute strictly
//! one at a time and in order per connection, and no lock hold spans a
//! batch. The buffered replies leave in one write as soon as no whole
//! frame is left to serve (so a lone request never waits), when they
//! reach `FLUSH_BYTES`, on `Bye`, and before the worker lets the
//! connection go for any reason; `fleet.request.batch` records the
//! frames each write carried.
//!
//! The caller of [`FleetServer::run`] keeps only the epoch clock: at
//! each wall-clock deadline it ticks the fleet under the same lock,
//! which moves only the fleet's epoch, and re-judges the latency
//! objectives. It then sweeps the lagging shards one short lock hold at
//! a time, yielding between holds; a request that reaches a lagging
//! shard first catches that shard up itself. The tick is the epoch's
//! linearization point, so every reply is the one an eager epoch would
//! have given. `fleet.epoch.us` records each clock hold,
//! `fleet.epoch.sweep.us` each tick-to-caught-up span.
//!
//! Shutdown is cooperative: a `shutdown` request (the SIGTERM
//! equivalent — the CLI sends one over loopback) raises a shared flag
//! under the lock and wakes the clock once. A request that takes the
//! lock after that is dropped unanswered and never runs, so the final
//! checkpoint, written under the lock, holds every answered mutation;
//! the replies its connection buffered for the requests that did run
//! are still sent. The clock thread then wakes every worker parked in
//! `accept` with a dummy connection and joins them; connections in
//! flight notice the flag at their next read timeout.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use selfheal_telemetry::{counter, emit_flow_end, emit_flow_start, flight, histogram, metrics};

use crate::daemon::FleetDaemon;
use crate::proto::{
    trace_span, ErrorCode, FrameError, FrameReader, FrameWriter, Request, Response, TraceContext,
};
use crate::slo;

/// How often a blocked connection read wakes up to poll the shutdown
/// flag (also bounds worker join latency).
const READ_POLL: Duration = Duration::from_millis(100);

/// A connection's buffered replies are sent once they reach this many
/// bytes, even while whole request frames are still buffered.
const FLUSH_BYTES: usize = 64 * 1024;

/// Transport-side configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker-accept threads (= concurrently served connections).
    pub workers: usize,
    /// Wall-clock cadence of fleet epochs; `None` disables timed epochs
    /// (requests are then answered against frozen state — what the
    /// protocol tests want).
    pub epoch_interval: Option<Duration>,
    /// Shut down automatically after this many epochs.
    pub max_epochs: Option<u64>,
}

impl Default for ServerConfig {
    /// Loopback on an ephemeral port, 4 workers, 1 s epochs.
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            epoch_interval: Some(Duration::from_secs(1)),
            max_epochs: None,
        }
    }
}

/// What a finished serve loop reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered (including error replies to parsed frames).
    pub requests: u64,
    /// Epochs advanced while serving.
    pub epochs: u64,
    /// The final [`state_digest`](crate::state::FleetState::state_digest).
    pub final_state_digest: u64,
    /// Whether the final checkpoint was written (false = cache disabled
    /// or the write failed).
    pub checkpointed: bool,
}

/// A bound-but-not-yet-running fleet server.
#[derive(Debug)]
pub struct FleetServer {
    daemon: FleetDaemon,
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
}

/// What the workers and the epoch clock share.
struct Shared {
    /// The one daemon lock: every request and every epoch runs under it.
    daemon: Mutex<FleetDaemon>,
    /// Raised under the daemon lock; a request that takes the lock
    /// after it is dropped unanswered.
    shutdown: AtomicBool,
    /// Wakes the epoch clock once a worker has executed `shutdown`.
    wake: Sender<()>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, FleetDaemon> {
        self.daemon.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

impl FleetServer {
    /// Binds the listener. Call [`addr`](Self::addr) to learn the
    /// ephemeral port, then [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(daemon: FleetDaemon, config: ServerConfig) -> std::io::Result<FleetServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        Ok(FleetServer {
            daemon,
            listener,
            addr,
            config,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until shutdown (request or epoch limit), then writes the
    /// final checkpoint and joins every worker. Blocking — spawn a
    /// thread to run it alongside test clients.
    #[allow(clippy::must_use_candidate)] // called for its side effect; the result is optional
    pub fn run(self) -> ServeSummary {
        // Exported from the start, so an operator reads 0, not nothing,
        // while no request has yet found its shard lagging.
        counter!("fleet.request.catch_ups", 0);
        let (wake, woken) = mpsc::channel();
        let shared = Arc::new(Shared {
            daemon: Mutex::new(self.daemon),
            shutdown: AtomicBool::new(false),
            wake,
        });
        let mut workers = Vec::with_capacity(self.config.workers.max(1));
        for index in 0..self.config.workers.max(1) {
            let listener = match self.listener.try_clone() {
                Ok(listener) => listener,
                Err(err) => panic!("cannot clone fleet listener: {err}"),
            };
            let shared = Arc::clone(&shared);
            let builder = std::thread::Builder::new().name(format!("fleet-worker-{index}"));
            match builder.spawn(move || worker_loop(&listener, &shared)) {
                Ok(handle) => workers.push(handle),
                Err(err) => panic!("cannot spawn fleet worker: {err}"),
            }
        }

        let epochs = epoch_clock(&shared, &self.config, &woken);

        let summary = {
            let mut daemon = shared.lock();
            shared.shutdown.store(true, Ordering::SeqCst);
            daemon.sweep(usize::MAX);
            ServeSummary {
                requests: daemon.requests_served(),
                epochs,
                final_state_digest: daemon.state().state_digest(),
                checkpointed: daemon.final_checkpoint(),
            }
        };
        // Wake workers parked in accept(); a worker mid-connection exits
        // at its next read poll instead.
        for _ in &workers {
            drop(TcpStream::connect(self.addr));
        }
        for worker in workers {
            drop(worker.join());
        }
        summary
    }
}

/// The epoch clock, run by the caller of [`FleetServer::run`]. At each
/// deadline it ticks the fleet under the daemon lock, which is O(1).
/// Until the next deadline it then sweeps the lagging shards, one per
/// pool worker per lock hold, and yields the CPU between holds so that
/// a request waiting for the lock runs between them. Each hold lands in
/// the `fleet.epoch.us` histogram, and the time from a tick until every
/// shard has caught up in `fleet.epoch.sweep.us`.
///
/// Returns the epochs ticked once `max_epochs` is reached or a worker
/// has executed `shutdown`, possibly mid-sweep; [`FleetServer::run`]
/// catches up the rest before the final digest and checkpoint.
fn epoch_clock(shared: &Shared, config: &ServerConfig, woken: &Receiver<()>) -> u64 {
    let per_hold = selfheal_runtime::global_pool().workers().max(1);
    let mut epochs = 0u64;
    let mut next_epoch = config.epoch_interval.map(|d| Instant::now() + d);
    // The oldest tick some shard has not caught up to.
    let mut sweeping: Option<Instant> = None;
    loop {
        if config.max_epochs.is_some_and(|max| epochs >= max) {
            return epochs;
        }
        let (Some(deadline), Some(interval)) = (next_epoch, config.epoch_interval) else {
            let _ = woken.recv();
            return epochs;
        };
        let now = Instant::now();
        if now < deadline {
            let Some(ticked) = sweeping else {
                match woken.recv_timeout(deadline - now) {
                    Err(RecvTimeoutError::Timeout) => continue,
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => return epochs,
                }
            };
            // On one CPU the clock would otherwise take the lock straight
            // back before a woken worker runs.
            std::thread::yield_now();
            let mut daemon = shared.lock();
            if shared.shutting_down() {
                return epochs;
            }
            let held = Instant::now();
            let left = daemon.sweep(per_hold);
            histogram!("fleet.epoch.us", held.elapsed().as_secs_f64() * 1e6);
            if left == 0 {
                histogram!("fleet.epoch.sweep.us", ticked.elapsed().as_secs_f64() * 1e6);
                sweeping = None;
            }
            continue;
        }
        let mut daemon = shared.lock();
        if shared.shutting_down() {
            return epochs;
        }
        // How long the tick holds the lock every request waits on.
        let held = Instant::now();
        daemon.tick();
        histogram!("fleet.epoch.us", held.elapsed().as_secs_f64() * 1e6);
        sweeping.get_or_insert(held);
        epochs += 1;
        // Re-judge the latency objectives once per epoch from the
        // histograms the workers have been feeding; pure reads,
        // published as slo.* gauges.
        let slos = &daemon.state().config().slos;
        if !slos.is_empty() && metrics::enabled() {
            drop(slo::evaluate_and_publish(slos, &metrics::snapshot()));
        }
        next_epoch = Some(now + interval);
    }
}

/// Executes one request under the daemon lock inside its
/// `fleet.execute` span, or returns `None` when shutdown took the lock
/// first: such a request is dropped unanswered and never runs, so the
/// final checkpoint holds every answered mutation. With metrics on, the
/// wait for the lock lands in `fleet.request.queue.us` and the time
/// under it in `fleet.request.exec.us` and, for plan, predict, report
/// and stats, `fleet.request.<kind>.exec.us`.
fn execute(shared: &Shared, request: &Request, trace: Option<TraceContext>) -> Option<Response> {
    let queued = metrics::enabled().then(Instant::now);
    let mut daemon = shared.lock();
    let locked = queued.map(|queued| {
        let locked = Instant::now();
        (locked - queued, locked)
    });
    if shared.shutting_down() {
        return None;
    }
    let response = {
        let _span = trace_span("fleet.execute", request.kind(), trace);
        daemon.handle(request)
    };
    if matches!(request, Request::Shutdown) {
        shared.shutdown.store(true, Ordering::SeqCst);
        let _ = shared.wake.send(());
    }
    let executed = locked.map(|(queue, locked)| (queue, locked.elapsed()));
    drop(daemon);
    if let Some((queue, exec)) = executed {
        histogram!("fleet.request.queue.us", queue.as_secs_f64() * 1e6);
        observe_exec(request.kind(), exec);
    }
    Some(response)
}

/// One worker: accept, serve the connection to completion, repeat.
fn worker_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        if shared.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutting_down() {
                    return;
                }
                counter!("fleet.connections", 1);
                serve_connection(stream, shared);
            }
            Err(_) => {
                if shared.shutting_down() {
                    return;
                }
            }
        }
    }
}

/// One connection's two buffers: the frames read but not yet served,
/// and the replies not yet sent.
struct Connection {
    stream: TcpStream,
    reader: FrameReader,
    replies: FrameWriter,
}

impl Connection {
    /// Appends one reply; `false` when it cannot be encoded or, at the
    /// byte cap, sent.
    fn reply(&mut self, response: &Response) -> bool {
        self.replies.push(&response.to_payload()).is_ok()
            && (self.replies.buffered() < FLUSH_BYTES || self.flush())
    }

    /// Sends every buffered reply in one write; `false` if the write
    /// failed. With metrics on, a non-empty batch's frame count lands
    /// in `fleet.request.batch`.
    fn flush(&mut self) -> bool {
        if self.replies.buffered() == 0 {
            return true;
        }
        match self.replies.send(&mut self.stream) {
            Ok(frames) => {
                #[allow(clippy::cast_precision_loss)]
                let frames = frames as f64;
                histogram!("fleet.request.batch", frames);
                true
            }
            Err(_) => false,
        }
    }
}

/// Serves one connection until it closes, errors fatally, or shutdown,
/// then sends the replies still buffered: every request that executed
/// is answered.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    drop(stream.set_read_timeout(Some(READ_POLL)));
    drop(stream.set_nodelay(true));
    let mut conn = Connection {
        stream,
        reader: FrameReader::new(),
        replies: FrameWriter::default(),
    };
    serve_frames(&mut conn, shared);
    conn.flush();
}

/// The frame loop of [`serve_connection`]. Replies batch up while the
/// reader holds whole frames and go out in one write as soon as it does
/// not, before the next read can block: a lone request never waits.
fn serve_frames(conn: &mut Connection, shared: &Shared) {
    loop {
        if shared.shutting_down() || (!conn.reader.ready() && !conn.flush()) {
            return;
        }
        match conn.reader.next_frame(&mut conn.stream) {
            Ok(payload) => {
                let started = Instant::now();
                let mut trace = None;
                let response = match Request::from_payload_traced(payload) {
                    Ok((request, request_trace)) => {
                        trace = request_trace;
                        let kind = request.kind();
                        let _span = trace_span("fleet.request", kind, trace);
                        if let Some(trace) = trace {
                            // Land the client's rpc arrow in this span.
                            emit_flow_end("fleet.rpc", trace.flow_id);
                        }
                        let Some(response) = execute(shared, &request, trace) else {
                            return;
                        };
                        let elapsed = started.elapsed();
                        observe_latency(kind, elapsed);
                        flight::record("request", kind, || {
                            format!("us={:.1}", elapsed.as_secs_f64() * 1e6)
                        });
                        response
                    }
                    Err((code, message)) => {
                        counter!("fleet.protocol_errors", 1);
                        flight::record("error", code.as_str(), || message.clone());
                        Response::Error { code, message }
                    }
                };
                if let Some(trace) = trace {
                    // Open the reply arrow; the client closes it after
                    // reading the frame.
                    emit_flow_start("fleet.reply", trace.reply_flow());
                }
                if !conn.reply(&response) || matches!(response, Response::Bye) {
                    return;
                }
            }
            Err(FrameError::TimedOut) => {} // poll the shutdown flag
            Err(FrameError::Closed) => return,
            Err(FrameError::Oversize(len)) => {
                // The oversized payload was never read; the stream is
                // desynchronized. Answer, then drop the connection.
                counter!("fleet.protocol_errors", 1);
                conn.reply(&Response::Error {
                    code: ErrorCode::Oversize,
                    message: FrameError::Oversize(len).to_string(),
                });
                return;
            }
            Err(FrameError::Truncated | FrameError::Io(_)) => {
                counter!("fleet.dropped_connections", 1);
                return;
            }
        }
    }
}

/// Time under the daemon lock, per kind as well, so a slow `stats`
/// shows apart from the lock wait and from the other kinds.
fn observe_exec(kind: &str, elapsed: Duration) {
    let us = elapsed.as_secs_f64() * 1e6;
    histogram!("fleet.request.exec.us", us);
    match kind {
        "plan" => histogram!("fleet.request.plan.exec.us", us),
        "predict" => histogram!("fleet.request.predict.exec.us", us),
        "report" => histogram!("fleet.request.report.exec.us", us),
        "stats" => histogram!("fleet.request.stats.exec.us", us),
        _ => {}
    }
}

/// Request latency into the mergeable histograms `selfheal-top` watches.
fn observe_latency(kind: &str, elapsed: Duration) {
    let us = elapsed.as_secs_f64() * 1e6;
    histogram!("fleet.request.us", us);
    match kind {
        "plan" => histogram!("fleet.request.plan.us", us),
        "predict" => histogram!("fleet.request.predict.us", us),
        "report" => histogram!("fleet.request.report.us", us),
        "stats" => histogram!("fleet.request.stats.us", us),
        _ => {}
    }
}
