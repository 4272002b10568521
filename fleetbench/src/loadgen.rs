//! The load generator: one thread per connection, writing requests when
//! they are due and otherwise blocking on replies.
//!
//! A connection never waits for a reply before sending its next due
//! request (the paced phase is open loop), so a daemon stall shows up as
//! latency on every request that fell due during it: latency is timed
//! from the *due* time, not from the actual write. Replies are kept as
//! raw payloads and decoded only after the phase, so the generator spends
//! no time on the codec while it measures.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use selfheal_fleet::proto::MAX_FRAME;
use selfheal_fleet::{Request, TraceContext};

use crate::workload::Generator;

/// How long a phase waits for outstanding replies after it ends; a
/// request still unanswered then counts as failed.
pub const DRAIN: Duration = Duration::from_secs(1);

/// One request on the wire and what came back.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// The request sent.
    pub request: Request,
    /// When it was due (the send time in the closed-loop phase).
    pub due: Instant,
    /// When its last byte was handed to the socket.
    pub sent: Instant,
    /// When its reply was read, if it was.
    pub done: Option<Instant>,
    /// The raw reply payload (empty without a reply).
    pub reply: Vec<u8>,
}

impl Exchange {
    /// Latency charged from the due time; `None` without a reply.
    #[must_use]
    pub fn latency(&self) -> Option<Duration> {
        self.done
            .map(|done| done.saturating_duration_since(self.due))
    }
}

/// A request ready to go: its due time, the request and its frame bytes.
#[derive(Debug, Clone)]
pub struct Scheduled {
    /// Absolute due time.
    pub due: Instant,
    /// The request.
    pub request: Request,
    /// The encoded frame (length prefix included).
    pub frame: Vec<u8>,
}

/// Frames `request`, stamping `trace` into it when given.
#[must_use]
pub fn encode(request: &Request, trace: Option<TraceContext>) -> Vec<u8> {
    let payload = request.to_json_with_trace(trace).render().into_bytes();
    let len = u32::try_from(payload.len()).expect("a request frame is far below 4 GiB");
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// One client connection and the log of everything it exchanged.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
    buffer: Vec<u8>,
    pending: VecDeque<usize>,
    /// Every exchange, in send order.
    pub log: Vec<Exchange>,
}

impl Connection {
    /// Connects with Nagle off, as every fleet client does.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            buffer: Vec::new(),
            pending: VecDeque::new(),
            log: Vec::new(),
        })
    }

    fn send(&mut self, request: Request, frame: &[u8], due: Instant) -> std::io::Result<()> {
        self.stream.write_all(frame)?;
        self.pending.push_back(self.log.len());
        self.log.push(Exchange {
            request,
            due,
            sent: Instant::now(),
            done: None,
            reply: Vec::new(),
        });
        Ok(())
    }

    /// Reads whatever arrives before `deadline` and completes every whole
    /// frame in it.
    fn receive(&mut self, deadline: Instant) -> std::io::Result<()> {
        let wait = deadline.saturating_duration_since(Instant::now());
        if !crate::sys::readable(&self.stream, wait)? {
            return Ok(());
        }
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "the daemon closed the connection",
            )),
            Ok(n) => {
                let at = Instant::now();
                self.buffer.extend_from_slice(&chunk[..n]);
                self.complete_frames(at)
            }
            Err(err) if err.kind() == ErrorKind::Interrupted => Ok(()),
            Err(err) => Err(err),
        }
    }

    fn complete_frames(&mut self, at: Instant) -> std::io::Result<()> {
        let mut start = 0;
        while self.buffer.len() - start >= 4 {
            let mut header = [0u8; 4];
            header.copy_from_slice(&self.buffer[start..start + 4]);
            let len = u32::from_be_bytes(header) as usize;
            if len > MAX_FRAME {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    "oversize reply frame",
                ));
            }
            if self.buffer.len() - start < 4 + len {
                break;
            }
            let Some(index) = self.pending.pop_front() else {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    "reply without a request",
                ));
            };
            let exchange = &mut self.log[index];
            exchange.done = Some(at);
            exchange.reply = self.buffer[start + 4..start + 4 + len].to_vec();
            start += 4 + len;
        }
        self.buffer.drain(..start);
        Ok(())
    }

    /// One synchronous round trip, logged like any other; returns the
    /// reply payload.
    ///
    /// # Errors
    ///
    /// Transport failures, or no reply within [`DRAIN`].
    pub fn call(&mut self, request: &Request) -> std::io::Result<Vec<u8>> {
        let now = Instant::now();
        self.send(request.clone(), &encode(request, None), now)?;
        let deadline = now + DRAIN;
        while !self.pending.is_empty() {
            if Instant::now() >= deadline {
                return Err(std::io::Error::new(ErrorKind::TimedOut, "no reply"));
            }
            self.receive(deadline)?;
        }
        Ok(self.log.last().map(|e| e.reply.clone()).unwrap_or_default())
    }

    /// Closed loop until `end`: keeps `depth` requests in flight, then
    /// waits up to [`DRAIN`] for the rest.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn saturate(
        &mut self,
        generator: &mut Generator,
        depth: usize,
        end: Instant,
    ) -> std::io::Result<()> {
        loop {
            let now = Instant::now();
            if now < end {
                while self.pending.len() < depth {
                    let request = generator.next_request();
                    let frame = encode(&request, None);
                    self.send(request, &frame, Instant::now())?;
                }
            } else if self.pending.is_empty() || now >= end + DRAIN {
                return Ok(());
            }
            self.receive(if now < end { end } else { end + DRAIN })?;
        }
    }

    /// Open loop: writes each scheduled request once it is due, reading
    /// replies in between, then waits up to [`DRAIN`] past `end`.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn paced(&mut self, schedule: Vec<Scheduled>, end: Instant) -> std::io::Result<()> {
        let mut schedule = schedule.into_iter().peekable();
        loop {
            let now = Instant::now();
            while let Some(next) = schedule.next_if(|s| s.due <= now) {
                self.send(next.request, &next.frame, next.due)?;
            }
            match schedule.peek() {
                Some(next) => {
                    let due = next.due;
                    self.receive(due)?;
                }
                None if self.pending.is_empty() || now >= end + DRAIN => return Ok(()),
                None => self.receive(end + DRAIN)?,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// An echo server that stalls for `stall` once it has read `after`
    /// frames, then answers everything queued behind the stall.
    fn stalling_echo(after: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut seen = 0;
            loop {
                let mut header = [0u8; 4];
                if stream.read_exact(&mut header).is_err() {
                    return;
                }
                let mut payload = vec![0u8; u32::from_be_bytes(header) as usize];
                stream.read_exact(&mut payload).expect("payload");
                seen += 1;
                if seen == after {
                    std::thread::sleep(stall);
                }
                stream.write_all(&header).expect("echo header");
                stream.write_all(&payload).expect("echo payload");
            }
        });
        (addr, server)
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let stall = Duration::from_millis(50);
        let (addr, server) = stalling_echo(20, stall);
        let mut connection = Connection::open(addr).expect("connect");
        let start = Instant::now() + Duration::from_millis(5);
        let schedule: Vec<Scheduled> = (0..100u64)
            .map(|i| Scheduled {
                due: start + Duration::from_millis(i),
                request: Request::Stats,
                frame: encode(&Request::Stats, None),
            })
            .collect();
        connection
            .paced(schedule, start + Duration::from_millis(100))
            .expect("paced phase");
        drop(connection.stream.shutdown(std::net::Shutdown::Both));
        server.join().expect("echo server");

        let log = &connection.log;
        assert_eq!(log.len(), 100);
        // The stall starts when request 19 (due at 19 ms) is read, so it
        // ends no earlier than 69 ms; every request due before then waits
        // for its end, not just for its own service time.
        let stalled_until = log[19].due + stall;
        for exchange in &log[20..60] {
            let latency = exchange.latency().expect("every request is answered");
            let waited = stalled_until.saturating_duration_since(exchange.due);
            assert!(
                latency >= waited,
                "due {:?} after start: latency {latency:?} < stall wait {waited:?}",
                exchange.due - start
            );
            // Open loop: the stall never delayed a write.
            assert!(exchange.sent.duration_since(exchange.due) < Duration::from_millis(20));
        }
    }
}
