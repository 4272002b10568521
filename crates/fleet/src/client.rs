//! A minimal blocking client for the fleet protocol.
//!
//! Used by `fleet_smoke` (the CI smoke) and the protocol tests — one
//! connection, synchronous request/response round trips, or one
//! pipelined batch sent in a single write. With
//! [`FleetClient::enable_trace`] the client stamps every request with a
//! deterministic [`TraceContext`] and emits its half of the
//! cross-process flow arrows, so a client trace file merged with the
//! daemon's (via `trace_merge`) renders each request as one connected
//! chain: client span → rpc arrow → daemon spans → reply arrow back.

use std::net::{SocketAddr, TcpStream};

use selfheal_runtime::SeedSequence;
use selfheal_telemetry::{emit_flow_end, emit_flow_start, span};

use crate::proto::{
    trace_span, write_frame, FrameError, FrameReader, FrameWriter, Request, Response, TraceContext,
};

/// One connection to a fleet daemon.
#[derive(Debug)]
pub struct FleetClient {
    stream: TcpStream,
    reader: FrameReader,
    tracer: Option<Tracer>,
}

/// Deterministic trace-context source: the `n`-th request of a client
/// seeded with `seeds` always carries the same ids.
#[derive(Debug)]
struct Tracer {
    seeds: SeedSequence,
    issued: u64,
}

impl Tracer {
    fn next(&mut self) -> TraceContext {
        let trace = TraceContext::derive(&self.seeds, self.issued);
        self.issued += 1;
        trace
    }
}

impl FleetClient {
    /// Connects over TCP (loopback in every in-tree use).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> std::io::Result<FleetClient> {
        let stream = TcpStream::connect(addr)?;
        drop(stream.set_nodelay(true));
        Ok(FleetClient {
            stream,
            reader: FrameReader::new(),
            tracer: None,
        })
    }

    /// Stamps every subsequent request with a [`TraceContext`] derived
    /// from `seeds`, and emits the client half of each request's flow
    /// arrows to any installed telemetry sink.
    pub fn enable_trace(&mut self, seeds: SeedSequence) {
        self.tracer = Some(Tracer { seeds, issued: 0 });
    }

    /// One synchronous round trip.
    ///
    /// # Errors
    ///
    /// Frame-level failures as [`FrameError`]; an unparseable reply
    /// surfaces as [`FrameError::Io`].
    pub fn call(&mut self, request: &Request) -> Result<Response, FrameError> {
        let trace = self.tracer.as_mut().map(Tracer::next);
        let _span = trace_span("fleet.client.request", request.kind(), trace);
        let payload = request.to_json_with_trace(trace).render().into_bytes();
        if let Some(trace) = trace {
            emit_flow_start("fleet.rpc", trace.flow_id);
        }
        write_frame(&mut self.stream, &payload)?;
        self.reply(trace)
    }

    /// Sends every request in one write, then reads their replies in
    /// order: a pipelined batch, which the daemon may answer with one
    /// write too.
    ///
    /// # Errors
    ///
    /// As [`call`](Self::call); the first failure ends the batch.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, FrameError> {
        let _span = span!("fleet.client.pipeline", frames = requests.len());
        let mut batch = FrameWriter::default();
        let mut traces = Vec::with_capacity(requests.len());
        for request in requests {
            let trace = self.tracer.as_mut().map(Tracer::next);
            batch.push(&request.to_json_with_trace(trace).render().into_bytes())?;
            if let Some(trace) = trace {
                emit_flow_start("fleet.rpc", trace.flow_id);
            }
            traces.push(trace);
        }
        batch.send(&mut self.stream)?;
        traces.into_iter().map(|trace| self.reply(trace)).collect()
    }

    /// Reads and parses the next reply, closing its flow arrow.
    fn reply(&mut self, trace: Option<TraceContext>) -> Result<Response, FrameError> {
        let reply = self.reader.next_frame(&mut self.stream)?;
        if let Some(trace) = trace {
            emit_flow_end("fleet.reply", trace.reply_flow());
        }
        Response::from_payload(reply)
            .ok_or_else(|| FrameError::Io("daemon reply did not parse".to_string()))
    }
}
