//! The socket front end: a blocking worker-accept loop over
//! `std::net::TcpListener`.
//!
//! N worker threads share one listener (via `try_clone`) and each
//! serves one connection at a time; decoded requests travel over an
//! mpsc channel to the single *state thread* (the caller of
//! [`FleetServer::run`]), which owns the [`FleetDaemon`] outright — no
//! locks around fleet state, and request handling is serialized exactly
//! like the registry/message-server idiom this follows. The state
//! thread doubles as the epoch clock: between requests it waits with a
//! deadline and advances the fleet when the wall-clock epoch interval
//! elapses.
//!
//! Shutdown is cooperative: a `shutdown` request (the SIGTERM
//! equivalent — the CLI sends one over loopback) flips a shared flag,
//! the state thread writes a final checkpoint, wakes every worker with
//! a dummy connection, and joins them. Connections in flight notice the
//! flag at their next read timeout.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use selfheal_telemetry::{
    counter, emit_flow_end, emit_flow_start, flight, histogram, metrics, span,
};

use crate::daemon::FleetDaemon;
use crate::proto::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, TraceContext,
};
use crate::slo;

/// How often a blocked connection read wakes up to poll the shutdown
/// flag (also bounds worker join latency).
const READ_POLL: Duration = Duration::from_millis(100);

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
    /// Whether the final checkpoint was written (false = cache disabled).
    pub checkpointed: bool,
}

/// One decoded request in flight from a worker to the state thread.
#[derive(Debug)]
struct Job {
    request: Request,
    /// The client's trace context, if it sent one — carried across the
    /// mpsc hand-off so the state thread's execution span joins the same
    /// flow chain the worker and client are emitting into.
    trace: Option<TraceContext>,
    kind: &'static str,
    reply: Sender<Response>,
}

/// A bound-but-not-yet-running fleet server.
#[derive(Debug)]
pub struct FleetServer {
    daemon: FleetDaemon,
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
    /// The shutdown flag the state thread raises and the workers poll.
    shutdown: Arc<AtomicBool>,
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
            shutdown: Arc::new(AtomicBool::new(false)),
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
    pub fn run(mut self) -> ServeSummary {
        let (tx, rx) = mpsc::channel::<Job>();
        let mut workers = Vec::with_capacity(self.config.workers.max(1));
        for index in 0..self.config.workers.max(1) {
            let listener = match self.listener.try_clone() {
                Ok(listener) => listener,
                Err(err) => panic!("cannot clone fleet listener: {err}"),
            };
            let tx = tx.clone();
            let shutdown = Arc::clone(&self.shutdown);
            let builder = std::thread::Builder::new().name(format!("fleet-worker-{index}"));
            match builder.spawn(move || worker_loop(&listener, &tx, &shutdown)) {
                Ok(handle) => workers.push(handle),
                Err(err) => panic!("cannot spawn fleet worker: {err}"),
            }
        }
        drop(tx);

        let epochs = self.state_loop(&rx);

        self.shutdown.store(true, Ordering::SeqCst);
        let checkpointed = self.daemon.final_checkpoint();
        // Wake workers parked in accept(); a worker mid-connection exits
        // at its next read poll instead.
        for _ in &workers {
            drop(TcpStream::connect(self.addr));
        }
        for worker in workers {
            drop(worker.join());
        }
        ServeSummary {
            requests: self.daemon.requests_served(),
            epochs,
            final_state_digest: self.daemon.state().state_digest(),
            checkpointed,
        }
    }

    /// The state thread: single owner of the daemon. Returns the number
    /// of epochs advanced.
    fn state_loop(&mut self, rx: &Receiver<Job>) -> u64 {
        let mut epochs = 0u64;
        let mut next_epoch = self.config.epoch_interval.map(|d| Instant::now() + d);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return epochs;
            }
            if let Some(max) = self.config.max_epochs {
                if epochs >= max {
                    return epochs;
                }
            }
            let job = match (next_epoch, self.config.epoch_interval) {
                (Some(deadline), Some(interval)) => {
                    let now = Instant::now();
                    if now >= deadline {
                        self.daemon.advance_epoch();
                        epochs += 1;
                        // Re-judge the latency objectives once per epoch
                        // from the histograms the workers have been
                        // feeding; pure reads, published as slo.* gauges.
                        let slos = &self.daemon.state().config().slos;
                        if !slos.is_empty() && metrics::enabled() {
                            drop(slo::evaluate_and_publish(slos, &metrics::snapshot()));
                        }
                        next_epoch = Some(now + interval);
                        continue;
                    }
                    match rx.recv_timeout(deadline - now) {
                        Ok(job) => job,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => return epochs,
                    }
                }
                _ => match rx.recv() {
                    Ok(job) => job,
                    Err(_) => return epochs,
                },
            };
            let wants_shutdown = matches!(job.request, Request::Shutdown);
            let response = {
                let _span = match job.trace {
                    Some(trace) => span!(
                        "fleet.execute",
                        kind = job.kind,
                        trace_id = trace.trace_id,
                    ),
                    None => span!("fleet.execute", kind = job.kind),
                };
                // Close the mpsc hand-off arrow the worker opened.
                if let Some(trace) = job.trace {
                    emit_flow_end("fleet.queue", trace.queue_flow());
                }
                self.daemon.handle(&job.request)
            };
            drop(job.reply.send(response));
            if wants_shutdown {
                return epochs;
            }
        }
    }
}

/// One worker: accept, serve the connection to completion, repeat.
fn worker_loop(listener: &TcpListener, tx: &Sender<Job>, shutdown: &AtomicBool) {
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                counter!("fleet.connections", 1);
                serve_connection(stream, tx, shutdown);
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Serves one connection until it closes, errors fatally, or shutdown.
fn serve_connection(mut stream: TcpStream, tx: &Sender<Job>, shutdown: &AtomicBool) {
    drop(stream.set_read_timeout(Some(READ_POLL)));
    drop(stream.set_nodelay(true));
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_frame(&mut stream) {
            Ok(payload) => {
                let started = Instant::now();
                let mut trace = None;
                let response = match Request::from_payload_traced(&payload) {
                    Ok((request, request_trace)) => {
                        trace = request_trace;
                        let kind = request.kind();
                        let _span = match trace {
                            Some(trace) => span!(
                                "fleet.request",
                                kind = kind,
                                trace_id = trace.trace_id,
                            ),
                            None => span!("fleet.request", kind = kind),
                        };
                        if let Some(trace) = trace {
                            // Land the client's rpc arrow in this span,
                            // then open the mpsc hand-off arrow the state
                            // thread will close.
                            emit_flow_end("fleet.rpc", trace.flow_id);
                            emit_flow_start("fleet.queue", trace.queue_flow());
                        }
                        let (reply_tx, reply_rx) = mpsc::channel();
                        if tx
                            .send(Job {
                                request,
                                trace,
                                kind,
                                reply: reply_tx,
                            })
                            .is_err()
                        {
                            return; // state thread gone: shutting down
                        }
                        let Ok(response) = reply_rx.recv() else {
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
                let done = matches!(response, Response::Bye);
                if let Some(trace) = trace {
                    // Open the reply arrow; the client closes it after
                    // reading the frame.
                    emit_flow_start("fleet.reply", trace.reply_flow());
                }
                if write_frame(&mut stream, &response.to_payload()).is_err() || done {
                    return;
                }
            }
            Err(FrameError::TimedOut) => {} // poll the shutdown flag
            Err(FrameError::Closed) => return,
            Err(FrameError::Oversize(len)) => {
                // The oversized payload was never read; the stream is
                // desynchronized. Answer, then drop the connection.
                counter!("fleet.protocol_errors", 1);
                let reply = Response::Error {
                    code: ErrorCode::Oversize,
                    message: FrameError::Oversize(len).to_string(),
                };
                drop(write_frame(&mut stream, &reply.to_payload()));
                return;
            }
            Err(FrameError::Truncated | FrameError::Io(_)) => {
                counter!("fleet.dropped_connections", 1);
                return;
            }
        }
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
