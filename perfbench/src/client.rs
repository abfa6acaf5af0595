//! The benchmark's own load client: one load connection, driven either
//! open-loop (a sender thread and a reader thread) or closed-loop (a
//! fixed window of requests in flight), plus a STATS connection used
//! only between phases.
//!
//! Open-loop, every request is timed from its *scheduled* send, so a
//! stall also charges the requests queued behind it (no coordinated
//! omission), and the sender records how late it ran against that
//! schedule. Closed-loop, the server's own pace sets the rate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

use exma_genome::SeededRng;
use exma_server::wire::{self, FrameHeader, HEADER_LEN};
use exma_server::{Opcode, StatsSnapshot};

/// BUSY answers retried per request before it counts as failed.
const BUSY_RETRIES: u32 = 10;
/// Backoff before retry `n` is `BUSY_BACKOFF << n`, jittered by
/// `[0.5, 1.5)` so retries do not arrive in lockstep.
const BUSY_BACKOFF: Duration = Duration::from_micros(500);
/// A phase with no response for this long has lost its remaining
/// requests (they count as unanswered) rather than hanging the run.
const STALL_LIMIT: Duration = Duration::from_secs(10);
/// Read-poll tick, so the reader notices a stall.
const POLL: Duration = Duration::from_millis(100);
/// Lead time between spawning a phase's threads and its first send.
const PHASE_LEAD: Duration = Duration::from_millis(5);

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// RESULTS byte-identical to the expected payload, received this
    /// long after the request was scheduled.
    Ok { latency: Duration },
    /// RESULTS that differ from the expected payload.
    Mismatch,
    /// Still BUSY after every retry.
    Refused,
    /// LATE, ERROR, GOAWAY or any other reply.
    Rejected,
    /// No reply before the connection closed or stalled.
    Unanswered,
}

/// A phase's failed requests by kind (see [`Outcome`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    pub mismatched: u64,
    pub refused: u64,
    pub rejected: u64,
    pub unanswered: u64,
}

/// Everything one phase measured. Vectors are indexed by the request's
/// position in the phase.
pub struct Phase {
    /// The instant the schedule counts from.
    pub start: Instant,
    pub outcomes: Vec<Outcome>,
    /// How late each first send left against its schedule.
    pub send_lag: Vec<Duration>,
    /// When each first send finished writing (spans only).
    pub sent_at: Vec<Option<Instant>>,
    /// Client-side `decode_results` time per answered request (traced
    /// runs only).
    pub decode: Vec<Option<(Instant, Instant)>>,
    /// BUSY retries sent.
    pub retries: u64,
}

impl Phase {
    pub fn failed(&self) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| !matches!(o, Outcome::Ok { .. }))
            .count() as u64
    }

    /// Failed requests by kind.
    pub fn failures(&self) -> Failures {
        let mut f = Failures::default();
        for outcome in &self.outcomes {
            match outcome {
                Outcome::Ok { .. } => {}
                Outcome::Mismatch => f.mismatched += 1,
                Outcome::Refused => f.refused += 1,
                Outcome::Rejected => f.rejected += 1,
                Outcome::Unanswered => f.unanswered += 1,
            }
        }
        f
    }

    pub fn latency(&self, i: usize) -> Option<Duration> {
        match self.outcomes[i] {
            Outcome::Ok { latency } => Some(latency),
            _ => None,
        }
    }
}

/// One phase of open-loop traffic on `stream`: request `i` of the phase
/// (wire id `first + i`, pre-framed in `frames[i]`, answered correctly
/// by exactly `expected[i]`) is due `schedule[i]` after the phase
/// starts. Returns once every request has an outcome. With `trace`, the
/// reader also decodes each RESULTS payload and times the decode.
pub fn run_phase(
    stream: &TcpStream,
    frames: &[Vec<u8>],
    expected: &[Vec<u8>],
    first: usize,
    schedule: &[Duration],
    trace: bool,
) -> io::Result<Phase> {
    let n = schedule.len();
    let mut sender = stream.try_clone()?;
    // A server that stops reading must fail the phase, not hang it.
    sender.set_write_timeout(Some(STALL_LIMIT))?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(POLL))?;
    let start = Instant::now() + PHASE_LEAD;
    let (retry_tx, retry_rx) = mpsc::channel::<(Instant, usize)>();
    let abort = AtomicBool::new(false);

    let (sent, read) = thread::scope(|scope| {
        let abort = &abort;
        let send = scope.spawn(move || {
            let mut lag = vec![Duration::ZERO; n];
            let mut sent_at = vec![None; n];
            let mut retries = 0u64;
            let mut due_retries: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
            let mut next = 0;
            while !abort.load(Ordering::Relaxed) {
                let scheduled = (next < n).then(|| start + schedule[next]);
                let retry = due_retries.peek().map(|Reverse((at, _))| *at);
                let due = match (scheduled, retry) {
                    (Some(s), Some(r)) => s.min(r),
                    (Some(s), None) => s,
                    (None, Some(r)) => r,
                    // Everything sent: wait for retries until the
                    // reader hangs up.
                    (None, None) => match retry_rx.recv() {
                        Ok(r) => {
                            due_retries.push(Reverse(r));
                            continue;
                        }
                        Err(_) => break,
                    },
                };
                // Sleep until the next send, waking early for a retry.
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    match retry_rx.recv_timeout(wait) {
                        Ok(r) => {
                            due_retries.push(Reverse(r));
                            continue;
                        }
                        Err(RecvTimeoutError::Timeout) => {}
                        // The reader is done or gave up.
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                let first_send = scheduled.is_some_and(|s| retry.map_or(true, |r| s <= r));
                let id = if first_send {
                    lag[next] = Instant::now().saturating_duration_since(start + schedule[next]);
                    next += 1;
                    next - 1
                } else {
                    retries += 1;
                    due_retries.pop().expect("a retry was due").0 .1
                };
                if sender.write_all(&frames[id]).is_err() {
                    break; // the reader sees the broken stream too
                }
                if first_send {
                    sent_at[id] = Some(Instant::now());
                }
            }
            (lag, sent_at, retries)
        });
        let read = read_phase(
            &mut reader,
            expected,
            first,
            schedule,
            start,
            trace,
            &retry_tx,
        );
        drop(retry_tx);
        abort.store(true, Ordering::Relaxed);
        (send.join().expect("sender thread"), read)
    });
    let (send_lag, sent_at, retries) = sent;
    let (outcomes, decode) = read;
    Ok(Phase {
        start,
        outcomes,
        send_lag,
        sent_at,
        decode,
        retries,
    })
}

type ReadResult = (Vec<Outcome>, Vec<Option<(Instant, Instant)>>);

/// The reader half: reads frames until every request of the phase has
/// an outcome, the peer closes, or the phase stalls.
fn read_phase(
    stream: &mut TcpStream,
    expected: &[Vec<u8>],
    first: usize,
    schedule: &[Duration],
    start: Instant,
    trace: bool,
    retry: &mpsc::Sender<(Instant, usize)>,
) -> ReadResult {
    let n = schedule.len();
    let mut outcomes = vec![Outcome::Unanswered; n];
    let mut decode = vec![None; n];
    let mut attempts = vec![0u32; n];
    let mut open = n;
    let mut jitter = SeededRng::new(first as u64);
    let mut payload = Vec::new();
    while open > 0 {
        let Ok(header) = read_frame(stream, &mut payload) else {
            break;
        };
        let at = Instant::now();
        let Some(i) = (header.request_id as usize)
            .checked_sub(first)
            .filter(|&i| i < n && outcomes[i] == Outcome::Unanswered)
        else {
            break; // a reply to no open request: the stream is off
        };
        let outcome = match Opcode::from_byte(header.opcode) {
            Ok(Opcode::Results) if payload == expected[i] => {
                if trace {
                    let t0 = Instant::now();
                    let decoded = wire::decode_results(&payload);
                    decode[i] = Some((t0, Instant::now()));
                    std::hint::black_box(decoded.ok());
                }
                Outcome::Ok {
                    latency: at.saturating_duration_since(start + schedule[i]),
                }
            }
            Ok(Opcode::Results) => Outcome::Mismatch,
            Ok(Opcode::Busy) if attempts[i] < BUSY_RETRIES => {
                let backoff = BUSY_BACKOFF.mul_f64(0.5 + jitter.f64()) * (1 << attempts[i]);
                attempts[i] += 1;
                if retry.send((at + backoff, i)).is_err() {
                    break;
                }
                continue;
            }
            Ok(Opcode::Busy) => Outcome::Refused,
            _ => Outcome::Rejected,
        };
        outcomes[i] = outcome;
        open -= 1;
    }
    (outcomes, decode)
}

/// Reads one whole frame into `payload`, tolerating read-poll timeouts
/// until [`STALL_LIMIT`] passes without a byte.
fn read_frame(stream: &mut TcpStream, payload: &mut Vec<u8>) -> io::Result<FrameHeader> {
    let mut header = [0u8; HEADER_LEN];
    read_full(stream, &mut header)?;
    // Responses to capped queries are small; the protocol's own frame
    // bound is the real limit a client should enforce.
    let header = wire::decode_header(&header, wire::DEFAULT_MAX_FRAME_LEN)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    payload.resize(header.payload_len as usize, 0);
    read_full(stream, payload)?;
    Ok(header)
}

fn read_full(stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<()> {
    let mut filled = 0;
    let mut progress = Instant::now();
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(got) => {
                filled += got;
                progress = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if progress.elapsed() > STALL_LIMIT {
                    return Err(e);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What a closed-loop phase measured.
pub struct Closed {
    /// Arrival of each correct reply, counted from the phase start, in
    /// arrival order.
    pub answered_at: Vec<Duration>,
    /// Send-to-reply time of each correct reply, in arrival order.
    pub round_trip: Vec<Duration>,
    pub failures: Failures,
    /// Requests sent (BUSY resends not counted).
    pub sent: u64,
}

impl Closed {
    pub fn failed(&self) -> u64 {
        let f = self.failures;
        f.mismatched + f.refused + f.rejected + f.unanswered
    }
}

/// One closed-loop phase on `stream`: `window` requests stay in flight
/// for `duration`, each reply sending the next request, so the rate is
/// whatever the server sustains. Request `i` carries wire id
/// `first_id + i` and payload `payloads[i % payloads.len()]`, which is
/// answered correctly by exactly `expected[i % payloads.len()]`. After
/// `duration` no new request is sent, and the replies still owed are
/// awaited.
pub fn run_closed(
    stream: &TcpStream,
    payloads: &[Vec<u8>],
    expected: &[Vec<u8>],
    first_id: u64,
    window: usize,
    duration: Duration,
) -> io::Result<Closed> {
    let mut writer = stream.try_clone()?;
    writer.set_write_timeout(Some(STALL_LIMIT))?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(POLL))?;
    let pool = payloads.len();
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut attempts: Vec<u32> = Vec::new();
    let mut open: Vec<bool> = Vec::new();
    let send = |i: usize, writer: &mut TcpStream| {
        writer.write_all(&wire::query_frame(
            first_id + i as u64,
            0,
            &payloads[i % pool],
        ))
    };
    let mut closed = Closed {
        answered_at: Vec::new(),
        round_trip: Vec::new(),
        failures: Failures::default(),
        sent: 0,
    };
    let start = Instant::now();
    let stop = start + duration;
    let mut in_flight = 0u64;
    for i in 0..window {
        sent_at.push(Instant::now());
        attempts.push(0);
        open.push(true);
        send(i, &mut writer)?;
        in_flight += 1;
    }
    let mut payload = Vec::new();
    while in_flight > 0 {
        let Ok(header) = read_frame(&mut reader, &mut payload) else {
            break;
        };
        let at = Instant::now();
        let Some(i) = header
            .request_id
            .checked_sub(first_id)
            .map(|i| i as usize)
            .filter(|&i| i < open.len() && open[i])
        else {
            break; // a reply to no open request: the stream is off
        };
        match Opcode::from_byte(header.opcode) {
            Ok(Opcode::Results) if payload == expected[i % pool] => {
                closed.answered_at.push(at - start);
                closed.round_trip.push(at - sent_at[i]);
            }
            Ok(Opcode::Results) => closed.failures.mismatched += 1,
            Ok(Opcode::Busy) if attempts[i] < BUSY_RETRIES => {
                thread::sleep(BUSY_BACKOFF * (1 << attempts[i]));
                attempts[i] += 1;
                send(i, &mut writer)?;
                continue;
            }
            Ok(Opcode::Busy) => closed.failures.refused += 1,
            _ => closed.failures.rejected += 1,
        }
        open[i] = false;
        in_flight -= 1;
        if at < stop {
            let next = open.len();
            sent_at.push(Instant::now());
            attempts.push(0);
            open.push(true);
            send(next, &mut writer)?;
            in_flight += 1;
        }
    }
    closed.failures.unanswered += in_flight;
    closed.sent = open.len() as u64;
    Ok(closed)
}

/// The STATS connection: sampled before and after each phase, never
/// during one, so it adds no traffic to what is measured.
pub struct Control {
    stream: TcpStream,
    next_id: u64,
}

impl Control {
    pub fn connect(addr: SocketAddr) -> io::Result<Control> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL))?;
        Ok(Control {
            stream,
            next_id: 1 << 62,
        })
    }

    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream
            .write_all(&wire::frame(Opcode::Stats, id, &[]))?;
        let mut payload = Vec::new();
        let header = read_frame(&mut self.stream, &mut payload)?;
        if header.request_id != id || Opcode::from_byte(header.opcode) != Ok(Opcode::StatsReply) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a STATS reply",
            ));
        }
        wire::decode_stats(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Opens the load connection. `TCP_NODELAY` is set so that the client
/// never holds a small request back waiting for an ACK: any Nagle ×
/// delayed-ACK stall left in the measurements is then the server's.
pub fn connect_load(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}
