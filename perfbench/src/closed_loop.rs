//! The closed-loop load generator: each connection keeps a fixed number
//! of requests in flight over loopback TCP and sends the next stream
//! request as soon as one completes.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wqrtq_engine::{Request, Response};
use wqrtq_server::{Client, ServerFrame};

/// What one window of requests produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Requests sent.
    pub attempted: usize,
    /// Requests answered with an error reply or refused with `Busy`.
    pub failed: usize,
    /// Wall time from the first send to the last reply.
    pub elapsed: Duration,
    /// Latency of every successful request, nanoseconds.
    pub latencies: Vec<u64>,
    /// Stream index of each entry of `latencies`.
    pub indices: Vec<usize>,
    /// Latency of every successful write, nanoseconds.
    pub write_latencies: Vec<u64>,
    /// Completion time of every successful request, nanoseconds after
    /// the window started.
    pub completed_at: Vec<u64>,
    /// `(stream index, reply)` of the requests `keep` selected.
    pub kept: Vec<(usize, Response)>,
    /// The first few error messages, for the report.
    pub errors: Vec<String>,
}

impl Window {
    /// Completed requests per second.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    fn absorb(&mut self, other: Window) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies.extend(other.latencies);
        self.indices.extend(other.indices);
        self.write_latencies.extend(other.write_latencies);
        self.completed_at.extend(other.completed_at);
        self.kept.extend(other.kept);
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// How a window is driven.
pub struct Load<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// The request stream.
    pub stream: &'a [Request],
    /// Stream indices this window may send, in order.
    pub range: std::ops::Range<usize>,
    /// Stop sending after this long (`None`: send the whole range).
    pub duration: Option<Duration>,
    /// With a duration, start over at the beginning of the range when
    /// it runs out instead of ending the window early.
    pub wrap: bool,
    /// Connections, each on its own thread.
    pub connections: usize,
    /// Requests each connection keeps in flight.
    pub depth: usize,
    /// Which replies to keep for the correctness checks.
    pub keep: &'a (dyn Fn(usize) -> bool + Sync),
}

/// Drives one window and returns what it produced.
pub fn run(load: &Load<'_>) -> Result<Window, String> {
    let cursor = AtomicUsize::new(load.range.start);
    let merged = Mutex::new(Window::default());
    let started = Instant::now();
    let deadline = load.duration.map(|d| started + d);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load.connections)
            .map(|_| scope.spawn(|| connection(load, &cursor, started, deadline)))
            .collect();
        let mut first_error = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok(window)) => merged.lock().expect("window lock").absorb(window),
                Ok(Err(e)) => first_error = first_error.or(Some(e)),
                Err(_) => first_error = first_error.or(Some("load thread panicked".into())),
            }
        }
        first_error.map_or(Ok(()), Err)
    })?;
    let mut window = merged.into_inner().expect("window lock");
    window.elapsed = started.elapsed();
    Ok(window)
}

/// One connection's closed loop.
fn connection(
    load: &Load<'_>,
    cursor: &AtomicUsize,
    started: Instant,
    deadline: Option<Instant>,
) -> Result<Window, String> {
    let mut client = Client::connect_v2(load.addr).map_err(|e| format!("connect: {e}"))?;
    let mut window = Window::default();
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let next = || {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return None;
        }
        // ordering: Relaxed — a ticket counter; each ticket is claimed once.
        let t = cursor.fetch_add(1, Ordering::Relaxed);
        let (start, end) = (load.range.start, load.range.end);
        if t < end {
            Some(t)
        } else if load.wrap && deadline.is_some() && end > start {
            Some(start + (t - start) % (end - start))
        } else {
            None
        }
    };
    let mut burst = Vec::new();
    while burst.len() < load.depth {
        match next() {
            Some(i) => burst.push(i),
            None => break,
        }
    }
    let requests: Vec<&Request> = burst.iter().map(|&i| &load.stream[i]).collect();
    let sent_at = Instant::now();
    let ids = client
        .send_request_batch(&requests)
        .map_err(|e| format!("send: {e}"))?;
    for (id, i) in ids.into_iter().zip(burst) {
        in_flight.insert(id, (i, sent_at));
        window.attempted += 1;
    }
    while !in_flight.is_empty() {
        let (id, frame) = client.recv().map_err(|e| format!("recv: {e}"))?;
        let reply = match frame {
            // Progressive plan parts; the final `Plan` reply follows.
            ServerFrame::ReplyPart(_) => continue,
            ServerFrame::Reply(response) => Some(response),
            ServerFrame::Busy => None,
            other => return Err(format!("unexpected frame {other:?}")),
        };
        let took = Instant::now();
        let (i, sent) = in_flight
            .remove(&id)
            .ok_or_else(|| format!("reply for unknown id {id}"))?;
        match reply {
            None => window.fail("busy".into()),
            Some(Response::Error(msg)) => window.fail(msg),
            Some(response) => {
                let nanos = u64::try_from((took - sent).as_nanos()).unwrap_or(u64::MAX);
                window.latencies.push(nanos);
                window.indices.push(i);
                window
                    .completed_at
                    .push(u64::try_from((took - started).as_nanos()).unwrap_or(u64::MAX));
                if load.stream[i].kind().is_mutation() {
                    window.write_latencies.push(nanos);
                }
                if (load.keep)(i) {
                    window.kept.push((i, response));
                }
            }
        }
        if let Some(j) = next() {
            let id = client
                .send_request(&load.stream[j])
                .map_err(|e| format!("send: {e}"))?;
            in_flight.insert(id, (j, Instant::now()));
            window.attempted += 1;
        }
    }
    Ok(window)
}
