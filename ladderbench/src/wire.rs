//! Load generators for the `unc/1` server: a closed loop that keeps a fixed
//! number of requests outstanding per connection, an open loop that sends
//! on a fixed schedule and times each request from its scheduled send, and
//! a closed loop of `APPLY` frames. Each returns its phase accounting.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use uncertain_bench::churn::ChurnStream;
use uncertain_engine::server::protocol::{Client, ErrorCode, Reply, Request};
use uncertain_engine::{QueryRequest, SiteId, Update};

use crate::oracle::Answer;
use crate::stats::WINDOWS;
use crate::trace::Tracer;

/// Every `SAMPLE_EVERY`-th request of a lane is kept for the answer check
/// (coprime with the 3-family mix, so the sample cycles through families).
pub const SAMPLE_EVERY: u64 = 97;
/// Answers kept per lane.
pub const SAMPLE_CAP: usize = 30;

/// What one phase sent and got back.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub name: String,
    pub sent: u64,
    pub answered: u64,
    pub shed: u64,
    /// Error replies other than sheds, and answers that failed the check.
    pub failed: u64,
    /// Requests that never got a reply.
    pub unreplied: u64,
    /// How late the open-loop sender ran, p99 (ms); `None` for closed loops.
    pub late_p99_ms: Option<f64>,
    pub wall_s: f64,
}

impl Phase {
    /// Adds another phase's counts (the longer wall wins).
    pub fn absorb(&mut self, o: &Phase) {
        self.sent += o.sent;
        self.answered += o.answered;
        self.shed += o.shed;
        self.failed += o.failed;
        self.unreplied += o.unreplied;
        self.wall_s = self.wall_s.max(o.wall_s);
    }

    /// Operations that did not end in an answer.
    pub fn not_answered(&self) -> u64 {
        self.shed + self.failed + self.unreplied
    }

    fn replies(&self) -> u64 {
        self.answered + self.shed + self.failed
    }

    /// Classifies one reply.
    fn count(&mut self, reply: &Reply) {
        match reply {
            Reply::Error {
                code: ErrorCode::Shed,
                ..
            } => self.shed += 1,
            Reply::Error { .. } => self.failed += 1,
            _ => self.answered += 1,
        }
    }

    /// The accounting line printed for every phase.
    pub fn line(&self) -> String {
        format!(
            "phase {:<14} sent {:>7}  answered {:>7}  shed {}  failed {}  unreplied {}  late_p99 {}  wall {:.3}s",
            self.name,
            self.sent,
            self.answered,
            self.shed,
            self.failed,
            self.unreplied,
            self.late_p99_ms
                .map_or("-".to_string(), |v| format!("{v:.3}ms")),
            self.wall_s
        )
    }
}

/// A phase's accounting plus what the answer check and the latency
/// metrics need.
#[derive(Default)]
pub struct LoadOut {
    pub phase: Phase,
    /// `(send time in seconds into the phase, latency in ms)` of every
    /// answered request, in no particular order. The open loop counts from
    /// the request's due time, the closed loop from its actual send.
    pub replies: Vec<(f64, f64)>,
    /// Open loop: how late each send ran behind its schedule (ms).
    pub late_ms: Vec<f64>,
    /// Closed loop: answers per second in each of the
    /// [`WINDOWS`](crate::stats::WINDOWS) equal windows of its duration.
    pub window_qps: Vec<f64>,
    pub sample: Vec<(QueryRequest, Answer)>,
}

/// Requests a closed-loop lane has sent and not yet seen answered, by id.
type InFlight = HashMap<u64, (QueryRequest, Instant)>;

/// Sends the source's next request unless it ran dry or `end` passed.
fn send_next(
    c: &mut Client,
    source: &mut dyn FnMut() -> Option<QueryRequest>,
    in_flight: &mut InFlight,
    end: Instant,
) -> io::Result<bool> {
    if Instant::now() >= end {
        return Ok(false);
    }
    let Some(req) = source() else {
        return Ok(false);
    };
    let at = Instant::now();
    in_flight.insert(c.send(&Request::Query(req))?, (req, at));
    Ok(true)
}

fn keep(i: u64, sample: &[(QueryRequest, Answer)]) -> bool {
    i.is_multiple_of(SAMPLE_EVERY) && sample.len() < SAMPLE_CAP
}

/// Where a closed-loop lane takes its requests from; `None` ends the lane.
pub type Source<'a> = Box<dyn FnMut() -> Option<QueryRequest> + Send + 'a>;

/// Closed loop: one connection per lane, each keeping `window` requests
/// outstanding; a lane stops sending when its source runs dry or
/// `duration` has passed, then drains. Every span is a child of `parent`.
pub fn closed_loop(
    addr: SocketAddr,
    name: &str,
    lanes: Vec<Source<'_>>,
    window: usize,
    duration: Duration,
    tracer: &Tracer,
    parent: u64,
) -> io::Result<LoadOut> {
    let start = Instant::now();
    let end = start + duration;
    let answered = AtomicU64::new(0);
    let mut window_qps = vec![];
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .into_iter()
            .enumerate()
            .map(|(lane, mut source)| {
                let answered = &answered;
                s.spawn(move || -> io::Result<LoadOut> {
                    let mut c = Client::connect(&addr.to_string())?;
                    let mut out = LoadOut::default();
                    let mut in_flight = InFlight::new();
                    while in_flight.len() < window
                        && send_next(&mut c, &mut *source, &mut in_flight, end)?
                    {
                        out.phase.sent += 1;
                    }
                    let mut last = Instant::now();
                    while !in_flight.is_empty() {
                        let Ok((id, reply)) = c.recv() else {
                            break;
                        };
                        last = Instant::now();
                        let (req, sent_at) = in_flight.remove(&id).ok_or_else(|| {
                            io::Error::other(format!("reply to unknown request {id}"))
                        })?;
                        out.phase.count(&reply);
                        if !matches!(reply, Reply::Error { .. }) {
                            answered.fetch_add(1, Ordering::Relaxed);
                            out.replies
                                .push(((sent_at - start).as_secs_f64(), ms(last - sent_at)));
                        }
                        tracer.record("wire.request", group(lane, id), parent, sent_at, last);
                        if keep(id - 1, &out.sample) {
                            out.sample.push((req, Answer::from_reply(&reply)));
                        }
                        if send_next(&mut c, &mut *source, &mut in_flight, end)? {
                            out.phase.sent += 1;
                        }
                    }
                    out.phase.unreplied = in_flight.len() as u64;
                    out.phase.wall_s = (last - start).as_secs_f64();
                    Ok(out)
                })
            })
            .collect();
        // Count answers at each window boundary (stopping early once every
        // lane is done, as a lane with a finite source may be).
        let window_s = duration.as_secs_f64() / WINDOWS as f64;
        let mut before = 0;
        for k in 1..=WINDOWS {
            let at = start + duration.mul_f64(k as f64 / WINDOWS as f64);
            while Instant::now() < at && !handles.iter().all(|h| h.is_finished()) {
                std::thread::sleep((at - Instant::now()).min(Duration::from_millis(5)));
            }
            let now = answered.load(Ordering::Relaxed);
            window_qps.push((now - before) as f64 / window_s);
            before = now;
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop lane panicked"))
            .collect::<io::Result<Vec<LoadOut>>>()
    })?;
    let mut total = LoadOut {
        phase: Phase {
            name: name.to_string(),
            ..Phase::default()
        },
        window_qps,
        ..LoadOut::default()
    };
    for o in outs {
        total.phase.absorb(&o.phase);
        total.replies.extend(o.replies);
        total.sample.extend(o.sample);
    }
    Ok(total)
}

/// Open loop: request `i` is due at `start + i / rate`, sent on one
/// connection by this thread while a second thread receives. Latency runs
/// from the due time, so a server stall is charged to every request
/// scheduled behind it.
pub fn open_loop(
    addr: SocketAddr,
    name: &str,
    requests: &[QueryRequest],
    rate: f64,
    tracer: &Tracer,
    parent: u64,
) -> io::Result<LoadOut> {
    let (mut tx, mut rx) = Client::connect(&addr.to_string())?.split()?;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: u64| start + interval.mul_f64(i as f64);
    let mut out = LoadOut::default();
    out.phase.name = name.to_string();
    std::thread::scope(|s| -> io::Result<()> {
        let receiver = s.spawn(|| {
            let mut got = LoadOut::default();
            let mut last = start;
            while let Ok((id, reply)) = rx.recv() {
                last = Instant::now();
                got.phase.count(&reply);
                let Some(i) = id.checked_sub(1) else {
                    continue; // a connection-level error reply (id 0)
                };
                if !matches!(reply, Reply::Error { .. }) {
                    let due_s = interval.mul_f64(i as f64).as_secs_f64();
                    got.replies
                        .push((due_s, ms(last.saturating_duration_since(due(i)))));
                }
                tracer.record("wire.request", group(0, id), parent, due(i), last);
                if let Some(&req) = requests.get(i as usize).filter(|_| keep(i, &got.sample)) {
                    got.sample.push((req, Answer::from_reply(&reply)));
                }
            }
            got.phase.wall_s = (last - start).as_secs_f64();
            got
        });
        let mut sent = 0u64;
        let mut result = Ok(());
        for (i, req) in requests.iter().enumerate() {
            let at = due(i as u64);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            out.late_ms.push(ms(Instant::now() - at));
            match tx
                .send(&Request::Query(*req))
                .and_then(|id| expect_id(id, i))
            {
                Ok(()) => sent += 1,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        // Half-close: the server answers what it admitted, then closes,
        // and the receiver drains to a clean end of stream.
        tx.finish();
        let got = receiver.join().expect("open-loop receiver panicked");
        out.phase.absorb(&got.phase);
        out.phase.sent = sent;
        out.phase.unreplied = sent.saturating_sub(got.phase.replies());
        out.replies = got.replies;
        out.sample = got.sample;
        result
    })?;
    out.phase.late_p99_ms = crate::stats::percentile(&out.late_ms, 0.99);
    Ok(out)
}

/// One timed `APPLY` frame.
pub struct ApplyRound {
    pub batch: Vec<Update>,
    pub inserted: Vec<SiteId>,
    pub wall: Duration,
}

/// Sends `frames` `APPLY` frames of
/// [`gen::CHURN_RATE`](crate::gen::CHURN_RATE) of the live sites, one at a
/// time, feeding assigned ids back into the update stream.
pub fn apply_loop(
    addr: SocketAddr,
    name: &str,
    stream: &mut ChurnStream,
    frames: usize,
    tracer: &Tracer,
    parent: u64,
) -> io::Result<(Phase, Vec<ApplyRound>)> {
    let mut c = Client::connect(&addr.to_string())?;
    let mut phase = Phase {
        name: name.to_string(),
        ..Phase::default()
    };
    let mut rounds = vec![];
    let start = Instant::now();
    for _ in 0..frames {
        let batch = stream.tick(crate::gen::CHURN_RATE);
        let t0 = Instant::now();
        phase.sent += 1;
        let reply = c.call(&Request::Apply(batch.clone()));
        let wall = t0.elapsed();
        tracer.record("wire.apply", rounds.len() as u64, parent, t0, t0 + wall);
        match reply {
            Ok(Reply::Apply {
                inserted, missed, ..
            }) => {
                // The stream never names a dead id, so a miss is a bug.
                if missed > 0 {
                    phase.failed += 1;
                } else {
                    phase.answered += 1;
                }
                let inserted: Vec<SiteId> = inserted.into_iter().map(|i| i as SiteId).collect();
                crate::gen::observe_inserted(stream, inserted.clone());
                rounds.push(ApplyRound {
                    batch,
                    inserted,
                    wall,
                });
            }
            Ok(_) => phase.failed += 1,
            Err(_) => {
                phase.unreplied += 1;
                break;
            }
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    Ok((phase, rounds))
}

/// A fresh `Client` numbers its requests 1, 2, …; the open loop finds a
/// reply's due time and request by that number.
fn expect_id(id: u64, index: usize) -> io::Result<()> {
    if id == index as u64 + 1 {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "request {index} got id {id}; expected sequential ids from 1"
        )))
    }
}

fn group(lane: usize, id: u64) -> u64 {
    ((lane as u64) << 40) | id
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
