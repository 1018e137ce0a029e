//! The length-prefixed binary wire protocol (`unc/1`), std-only.
//!
//! # Frame format
//!
//! Every message — request or reply — is one frame:
//!
//! ```text
//! [ len: u32 LE ][ req_id: u64 LE ][ opcode: u8 ][ body: len-9 bytes ]
//! ```
//!
//! `len` counts everything after the length field (so `len ≥ 9`), all
//! integers and floats are little-endian fixed width, and `req_id` is an
//! opaque client-chosen correlation id echoed verbatim on the reply —
//! clients may pipeline requests and match replies out of order.
//!
//! Request opcodes: [`op::REQ_NONZERO`] `(qx f64, qy f64)`,
//! [`op::REQ_THRESHOLD`] `(qx, qy, tau f64)`, [`op::REQ_TOPK`]
//! `(qx, qy, k u32)`, [`op::REQ_APPLY`] `(count u32, count × update)`
//! where an update is `kind u8` then `Insert = 0: k u32, k × (x, y, w)`,
//! `Remove = 1: id u64`, `Move = 2: id u64, k u32, k × (x, y, w)`, and
//! [`op::REQ_PING`] (empty body).
//!
//! Reply opcodes: [`op::REP_NONZERO`] `(count u32, count × id u64)`,
//! [`op::REP_RANKED`] `(gtag u8, g0 f64, g1 f64, count u32, count ×
//! (id u64, p f64))` with the guarantee encoded as `Exact = 0`,
//! `Additive(g0) = 1`, `Probabilistic{eps: g0, delta: g1} = 2`,
//! [`op::REP_APPLY`] `(epoch u64, live u64, tombstones u64, removed u32,
//! moved u32, missed u32, count u32, count × inserted-id u64)`,
//! [`op::REP_PONG`] (empty), and [`op::REP_ERROR`] `(code u8, len u32,
//! len × utf-8 detail)` with codes in [`ErrorCode`].
//!
//! # Hostile-input contract
//!
//! Decoding never panics and never allocates more than the declared frame
//! length (itself capped): a length prefix over the cap is
//! [`WireError::TooLarge`], a stream ending mid-frame is
//! [`WireError::Truncated`], an unknown opcode is
//! [`WireError::BadOpcode`], and any body that is too short, too long,
//! non-finite where a coordinate/weight is required, non-positive where a
//! weight or `tau` is required, or over a count cap is
//! [`WireError::Malformed`]. A clean close *between* frames is
//! [`WireError::Eof`]. The server maps these to typed
//! [`ErrorCode`] replies or a clean close — see [`super`] for which.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use uncertain_geom::Point;
use uncertain_nn::model::DiscreteUncertainPoint;
use uncertain_nn::queries::Guarantee;

use crate::{QueryRequest, Update};

/// Cap on *request* frames the server will read (length field, bytes
/// after the `u32`). Requests are small; anything larger is hostile or a
/// framing desync.
pub const REQUEST_FRAME_MAX: u32 = 1 << 20;
/// Cap on *reply* frames the client will read. Replies carry result sets
/// (up to one id + probability per live site), so the cap is generous.
pub const REPLY_FRAME_MAX: u32 = 1 << 26;
/// Cap on updates per `APPLY` frame.
pub const MAX_APPLY_UPDATES: u32 = 65_536;
/// Cap on locations per uncertain point on the wire.
pub const MAX_WIRE_LOCATIONS: u32 = 4_096;
/// Minimum frame length: `req_id` + `opcode`.
pub const FRAME_HEADER: u32 = 9;

/// Opcode bytes. Requests have the high bit clear, replies set.
pub mod op {
    pub const REQ_NONZERO: u8 = 0x01;
    pub const REQ_THRESHOLD: u8 = 0x02;
    pub const REQ_TOPK: u8 = 0x03;
    pub const REQ_APPLY: u8 = 0x04;
    pub const REQ_PING: u8 = 0x05;

    pub const REP_NONZERO: u8 = 0x81;
    pub const REP_RANKED: u8 = 0x82;
    pub const REP_APPLY: u8 = 0x84;
    pub const REP_PONG: u8 = 0x85;
    pub const REP_ERROR: u8 = 0xEE;
}

/// Typed error codes carried by [`op::REP_ERROR`] replies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control shed the request: the batch queue is at its
    /// depth bound. Retry with backoff; the connection stays open.
    Shed = 1,
    /// The frame's body did not decode for its opcode (wrong length,
    /// non-finite coordinate, count over cap). The connection stays open
    /// (framing is intact).
    Malformed = 2,
    /// The length prefix exceeded [`REQUEST_FRAME_MAX`]. The connection
    /// is closed after this reply (the stream cannot be resynced).
    TooLarge = 3,
    /// Unknown opcode — protocol mismatch. Connection closed after the
    /// reply.
    BadOpcode = 4,
    /// The request's evaluation failed server-side (panic-isolated; see
    /// `QueryResult::Failed`). The connection stays open.
    Failed = 5,
    /// The server is shutting down and will not serve this request.
    Shutdown = 6,
}

impl ErrorCode {
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::Shed,
            2 => ErrorCode::Malformed,
            3 => ErrorCode::TooLarge,
            4 => ErrorCode::BadOpcode,
            5 => ErrorCode::Failed,
            6 => ErrorCode::Shutdown,
            _ => return None,
        })
    }
}

/// One client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Query(QueryRequest),
    Apply(Vec<Update>),
    Ping,
}

/// One server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Nonzero(Vec<u64>),
    Ranked {
        items: Vec<(u64, f64)>,
        guarantee: Guarantee,
    },
    Apply {
        epoch: u64,
        live: u64,
        tombstones: u64,
        removed: u32,
        moved: u32,
        missed: u32,
        inserted: Vec<u64>,
    },
    Pong,
    Error {
        code: ErrorCode,
        detail: String,
    },
}

/// Decode-side failures. `Eof` is the one non-error: a clean close
/// between frames.
#[derive(Debug)]
pub enum WireError {
    /// Clean close between frames.
    Eof,
    Io(io::Error),
    /// Length prefix over the reader's cap (the offending length).
    TooLarge(u32),
    /// Stream ended mid-frame.
    Truncated,
    /// Unknown opcode.
    BadOpcode(u8),
    /// Body failed validation for its opcode.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "clean close"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::TooLarge(n) => write!(f, "frame length {n} over cap"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::BadOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            WireError::Malformed(why) => write!(f, "malformed body: {why}"),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

// --- encoding -------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_point_weights(buf: &mut Vec<u8>, p: &DiscreteUncertainPoint) {
    put_u32(buf, p.k() as u32);
    for (loc, w) in p.locations().iter().zip(p.weights()) {
        put_f64(buf, loc.x);
        put_f64(buf, loc.y);
        put_f64(buf, *w);
    }
}

/// Assembles one complete frame: length prefix, id, opcode, body.
pub fn frame(req_id: u64, opcode: u8, body: &[u8]) -> Vec<u8> {
    let len = FRAME_HEADER + body.len() as u32;
    let mut out = Vec::with_capacity(4 + len as usize);
    put_u32(&mut out, len);
    put_u64(&mut out, req_id);
    out.push(opcode);
    out.extend_from_slice(body);
    out
}

/// Encodes a request frame.
pub fn encode_request(req_id: u64, req: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    let opcode = match req {
        Request::Query(QueryRequest::Nonzero { q }) => {
            put_f64(&mut body, q.x);
            put_f64(&mut body, q.y);
            op::REQ_NONZERO
        }
        Request::Query(QueryRequest::Threshold { q, tau }) => {
            put_f64(&mut body, q.x);
            put_f64(&mut body, q.y);
            put_f64(&mut body, *tau);
            op::REQ_THRESHOLD
        }
        Request::Query(QueryRequest::TopK { q, k }) => {
            put_f64(&mut body, q.x);
            put_f64(&mut body, q.y);
            put_u32(&mut body, *k as u32);
            op::REQ_TOPK
        }
        Request::Apply(updates) => {
            put_u32(&mut body, updates.len() as u32);
            for u in updates {
                match u {
                    Update::Insert(p) => {
                        body.push(0);
                        put_point_weights(&mut body, p);
                    }
                    Update::Remove(id) => {
                        body.push(1);
                        put_u64(&mut body, *id as u64);
                    }
                    Update::Move { id, to } => {
                        body.push(2);
                        put_u64(&mut body, *id as u64);
                        put_point_weights(&mut body, to);
                    }
                }
            }
            op::REQ_APPLY
        }
        Request::Ping => op::REQ_PING,
    };
    frame(req_id, opcode, &body)
}

/// Encodes a reply frame.
pub fn encode_reply(req_id: u64, rep: &Reply) -> Vec<u8> {
    let mut body = Vec::new();
    let opcode = match rep {
        Reply::Nonzero(ids) => {
            put_u32(&mut body, ids.len() as u32);
            for id in ids {
                put_u64(&mut body, *id);
            }
            op::REP_NONZERO
        }
        Reply::Ranked { items, guarantee } => {
            let (tag, g0, g1) = match *guarantee {
                Guarantee::Exact => (0u8, 0.0, 0.0),
                Guarantee::Additive(e) => (1, e, 0.0),
                Guarantee::Probabilistic { eps, delta } => (2, eps, delta),
            };
            body.push(tag);
            put_f64(&mut body, g0);
            put_f64(&mut body, g1);
            put_u32(&mut body, items.len() as u32);
            for (id, p) in items {
                put_u64(&mut body, *id);
                put_f64(&mut body, *p);
            }
            op::REP_RANKED
        }
        Reply::Apply {
            epoch,
            live,
            tombstones,
            removed,
            moved,
            missed,
            inserted,
        } => {
            put_u64(&mut body, *epoch);
            put_u64(&mut body, *live);
            put_u64(&mut body, *tombstones);
            put_u32(&mut body, *removed);
            put_u32(&mut body, *moved);
            put_u32(&mut body, *missed);
            put_u32(&mut body, inserted.len() as u32);
            for id in inserted {
                put_u64(&mut body, *id);
            }
            op::REP_APPLY
        }
        Reply::Pong => op::REP_PONG,
        Reply::Error { code, detail } => {
            body.push(*code as u8);
            let bytes = detail.as_bytes();
            put_u32(&mut body, bytes.len() as u32);
            body.extend_from_slice(bytes);
            op::REP_ERROR
        }
    };
    frame(req_id, opcode, &body)
}

// --- decoding -------------------------------------------------------------

/// Bounds-checked little-endian cursor over a frame body.
struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.b.len())
            .ok_or(WireError::Malformed("body shorter than declared fields"))?;
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A coordinate/weight/threshold: any bit pattern decodes, but only
    /// finite values are admitted — NaN/∞ here would otherwise ride into
    /// kernels whose comparisons assume a total order.
    fn finite(&mut self, what: &'static str) -> Result<f64, WireError> {
        let v = self.f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(WireError::Malformed(what))
        }
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after body"))
        }
    }
}

fn read_point(c: &mut Cur) -> Result<Point, WireError> {
    let x = c.finite("x coordinate")?;
    let y = c.finite("y coordinate")?;
    Ok(Point::new(x, y))
}

fn read_uncertain_point(c: &mut Cur) -> Result<DiscreteUncertainPoint, WireError> {
    let k = c.u32()?;
    if k == 0 || k > MAX_WIRE_LOCATIONS {
        return Err(WireError::Malformed("location count out of range"));
    }
    let mut locations = Vec::with_capacity(k as usize);
    let mut weights = Vec::with_capacity(k as usize);
    for _ in 0..k {
        locations.push(read_point(c)?);
        let w = c.finite("weight")?;
        if w <= 0.0 {
            return Err(WireError::Malformed("non-positive weight"));
        }
        weights.push(w);
    }
    // Finite positive weights can still fail to normalize: their sum can
    // overflow, or a tiny weight can underflow to 0 against it.
    if DiscreteUncertainPoint::normalized_weights(&weights).is_none() {
        return Err(WireError::Malformed("weights do not normalize"));
    }
    Ok(DiscreteUncertainPoint::new(locations, weights))
}

/// Decodes a request body for `opcode`.
pub fn decode_request(opcode: u8, body: &[u8]) -> Result<Request, WireError> {
    let mut c = Cur::new(body);
    let req = match opcode {
        op::REQ_NONZERO => Request::Query(QueryRequest::Nonzero {
            q: read_point(&mut c)?,
        }),
        op::REQ_THRESHOLD => {
            let q = read_point(&mut c)?;
            let tau = c.finite("tau")?;
            // τ ≤ 0 would admit every live site, π = 0 included.
            if tau <= 0.0 {
                return Err(WireError::Malformed("non-positive tau"));
            }
            Request::Query(QueryRequest::Threshold { q, tau })
        }
        op::REQ_TOPK => {
            let q = read_point(&mut c)?;
            let k = c.u32()? as usize;
            Request::Query(QueryRequest::TopK { q, k })
        }
        op::REQ_APPLY => {
            let count = c.u32()?;
            if count > MAX_APPLY_UPDATES {
                return Err(WireError::Malformed("update count over cap"));
            }
            let mut updates = Vec::with_capacity(count.min(1024) as usize);
            for _ in 0..count {
                let u = match c.u8()? {
                    0 => Update::Insert(read_uncertain_point(&mut c)?),
                    1 => Update::Remove(c.u64()? as usize),
                    2 => {
                        let id = c.u64()? as usize;
                        Update::Move {
                            id,
                            to: read_uncertain_point(&mut c)?,
                        }
                    }
                    _ => return Err(WireError::Malformed("unknown update kind")),
                };
                updates.push(u);
            }
            Request::Apply(updates)
        }
        op::REQ_PING => Request::Ping,
        other => return Err(WireError::BadOpcode(other)),
    };
    c.done()?;
    Ok(req)
}

/// Decodes a reply body for `opcode` (the client side of the codec).
pub fn decode_reply(opcode: u8, body: &[u8]) -> Result<Reply, WireError> {
    let mut c = Cur::new(body);
    let rep = match opcode {
        op::REP_NONZERO => {
            let count = c.u32()? as usize;
            let mut ids = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                ids.push(c.u64()?);
            }
            Reply::Nonzero(ids)
        }
        op::REP_RANKED => {
            let tag = c.u8()?;
            let g0 = c.f64()?;
            let g1 = c.f64()?;
            let guarantee = match tag {
                0 => Guarantee::Exact,
                1 => Guarantee::Additive(g0),
                2 => Guarantee::Probabilistic { eps: g0, delta: g1 },
                _ => return Err(WireError::Malformed("unknown guarantee tag")),
            };
            let count = c.u32()? as usize;
            let mut items = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                let id = c.u64()?;
                let p = c.f64()?;
                items.push((id, p));
            }
            Reply::Ranked { items, guarantee }
        }
        op::REP_APPLY => {
            let epoch = c.u64()?;
            let live = c.u64()?;
            let tombstones = c.u64()?;
            let removed = c.u32()?;
            let moved = c.u32()?;
            let missed = c.u32()?;
            let count = c.u32()? as usize;
            let mut inserted = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                inserted.push(c.u64()?);
            }
            Reply::Apply {
                epoch,
                live,
                tombstones,
                removed,
                moved,
                missed,
                inserted,
            }
        }
        op::REP_PONG => Reply::Pong,
        op::REP_ERROR => {
            let code =
                ErrorCode::from_u8(c.u8()?).ok_or(WireError::Malformed("unknown error code"))?;
            let len = c.u32()? as usize;
            let bytes = c.take(len)?;
            let detail = String::from_utf8_lossy(bytes).into_owned();
            Reply::Error { code, detail }
        }
        other => return Err(WireError::BadOpcode(other)),
    };
    c.done()?;
    Ok(rep)
}

// --- framed reading -------------------------------------------------------

/// One decoded frame header + raw body.
pub struct RawFrame {
    pub req_id: u64,
    pub opcode: u8,
    pub body: Vec<u8>,
}

/// Reads exactly `buf.len()` bytes. `eof_is_clean` says whether an EOF on
/// the *first* byte is a clean close ([`WireError::Eof`]) or a truncation.
/// `io::ErrorKind::WouldBlock`/`TimedOut` (from a read timeout used to
/// poll shutdown flags) are surfaced as `Io` for the caller to retry.
fn read_full(r: &mut impl Read, buf: &mut [u8], eof_is_clean: bool) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if eof_is_clean && filled == 0 {
                    WireError::Eof
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if filled == 0
                    && eof_is_clean
                    && (e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut) =>
            {
                return Err(WireError::Io(e));
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Mid-frame timeout: keep waiting for the rest of the
                // frame (the caller's shutdown poll only applies between
                // frames; a mid-frame stall is resolved by the peer
                // sending, closing, or the OS tearing the socket down).
                continue;
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame, enforcing `max_len` on the length prefix. On
/// `TooLarge` the stream is desynced — callers must close after replying.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<RawFrame, WireError> {
    let mut len4 = [0u8; 4];
    read_full(r, &mut len4, true)?;
    let len = u32::from_le_bytes(len4);
    if len < FRAME_HEADER {
        return Err(WireError::Malformed("frame length below header size"));
    }
    if len > max_len {
        return Err(WireError::TooLarge(len));
    }
    let mut head = [0u8; FRAME_HEADER as usize];
    read_full(r, &mut head, false)?;
    let req_id = u64::from_le_bytes(head[..8].try_into().unwrap());
    let opcode = head[8];
    let mut body = vec![0u8; (len - FRAME_HEADER) as usize];
    read_full(r, &mut body, false)?;
    Ok(RawFrame {
        req_id,
        opcode,
        body,
    })
}

// --- client ---------------------------------------------------------------

/// A minimal synchronous client for the protocol. Also the building block
/// of the load generator's pipelined open-loop mode ([`Client::send`] +
/// [`Client::recv`] on the same connection from two threads via
/// [`Client::split`]).
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to `addr` (e.g. `"127.0.0.1:7401"`) with `TCP_NODELAY`
    /// (point queries are latency-bound, not bandwidth-bound).
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, next_id: 1 })
    }

    /// [`Client::connect`] with retry until `deadline` — the standard way
    /// to wait for a server that is still binding its listener.
    pub fn connect_retry(addr: &str, wait: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + wait;
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Splits into independently-owned reader and writer halves sharing
    /// the one connection (both are `try_clone`s of the socket).
    pub fn split(self) -> io::Result<(ClientSender, ClientReceiver)> {
        let w = self.stream.try_clone()?;
        Ok((
            ClientSender {
                stream: w,
                next_id: self.next_id,
            },
            ClientReceiver {
                stream: self.stream,
            },
        ))
    }

    /// Sends `req`, returning the request id to match the reply with.
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&encode_request(id, req))?;
        Ok(id)
    }

    /// Receives the next reply frame, whatever its id.
    pub fn recv(&mut self) -> Result<(u64, Reply), WireError> {
        let f = read_frame(&mut self.stream, REPLY_FRAME_MAX)?;
        Ok((f.req_id, decode_reply(f.opcode, &f.body)?))
    }

    /// Send + receive-until-matching-id (out-of-order replies to *other*
    /// ids are discarded; with one outstanding call there are none).
    pub fn call(&mut self, req: &Request) -> Result<Reply, WireError> {
        let id = self.send(req)?;
        loop {
            let (rid, rep) = self.recv()?;
            if rid == id {
                return Ok(rep);
            }
        }
    }
}

/// Write half of a split [`Client`].
pub struct ClientSender {
    stream: TcpStream,
    next_id: u64,
}

impl ClientSender {
    pub fn send(&mut self, req: &Request) -> io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        self.stream.write_all(&encode_request(id, req))?;
        Ok(id)
    }

    /// Half-closes the write direction (the server sees a clean EOF after
    /// serving what was sent).
    pub fn finish(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
    }
}

/// Read half of a split [`Client`].
pub struct ClientReceiver {
    stream: TcpStream,
}

impl ClientReceiver {
    pub fn recv(&mut self) -> Result<(u64, Reply), WireError> {
        let f = read_frame(&mut self.stream, REPLY_FRAME_MAX)?;
        Ok((f.req_id, decode_reply(f.opcode, &f.body)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = encode_request(7, &req);
        let f = read_frame(&mut &bytes[..], REQUEST_FRAME_MAX).unwrap();
        assert_eq!(f.req_id, 7);
        assert_eq!(decode_request(f.opcode, &f.body).unwrap(), req);
    }

    fn roundtrip_reply(rep: Reply) {
        let bytes = encode_reply(9, &rep);
        let f = read_frame(&mut &bytes[..], REPLY_FRAME_MAX).unwrap();
        assert_eq!(f.req_id, 9);
        assert_eq!(decode_reply(f.opcode, &f.body).unwrap(), rep);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Query(QueryRequest::Nonzero {
            q: Point::new(1.5, -2.25),
        }));
        roundtrip_request(Request::Query(QueryRequest::Threshold {
            q: Point::new(0.0, 4.0),
            tau: 0.25,
        }));
        roundtrip_request(Request::Query(QueryRequest::TopK {
            q: Point::new(-3.0, 8.0),
            k: 5,
        }));
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Apply(vec![
            Update::Insert(DiscreteUncertainPoint::uniform(vec![
                Point::new(0.0, 1.0),
                Point::new(2.0, 3.0),
            ])),
            Update::Remove(17),
            Update::Move {
                id: 4,
                to: DiscreteUncertainPoint::certain(Point::new(9.0, 9.0)),
            },
        ]));
    }

    #[test]
    fn replies_roundtrip() {
        roundtrip_reply(Reply::Nonzero(vec![1, 5, 9]));
        roundtrip_reply(Reply::Ranked {
            items: vec![(3, 0.5), (1, 0.25)],
            guarantee: Guarantee::Exact,
        });
        roundtrip_reply(Reply::Ranked {
            items: vec![],
            guarantee: Guarantee::Probabilistic {
                eps: 0.01,
                delta: 0.001,
            },
        });
        roundtrip_reply(Reply::Apply {
            epoch: 3,
            live: 100,
            tombstones: 7,
            removed: 2,
            moved: 1,
            missed: 0,
            inserted: vec![40, 41],
        });
        roundtrip_reply(Reply::Pong);
        roundtrip_reply(Reply::Error {
            code: ErrorCode::Shed,
            detail: "queue full".into(),
        });
    }

    #[test]
    fn hostile_bodies_are_typed_errors_not_panics() {
        // Truncated body for the opcode.
        assert!(matches!(
            decode_request(op::REQ_NONZERO, &[0u8; 3]),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage after a valid body.
        let mut body = Vec::new();
        put_f64(&mut body, 1.0);
        put_f64(&mut body, 2.0);
        body.push(0xAA);
        assert!(matches!(
            decode_request(op::REQ_NONZERO, &body),
            Err(WireError::Malformed(_))
        ));
        // NaN coordinate.
        let mut body = Vec::new();
        put_f64(&mut body, f64::NAN);
        put_f64(&mut body, 2.0);
        assert!(matches!(
            decode_request(op::REQ_NONZERO, &body),
            Err(WireError::Malformed(_))
        ));
        // Unknown opcode.
        assert!(matches!(
            decode_request(0x7F, &[]),
            Err(WireError::BadOpcode(0x7F))
        ));
        // Update count over cap: declares u32::MAX updates with an empty
        // tail — must fail fast, not try to allocate.
        let mut body = Vec::new();
        put_u32(&mut body, u32::MAX);
        assert!(matches!(
            decode_request(op::REQ_APPLY, &body),
            Err(WireError::Malformed(_))
        ));
        // Non-positive weight in an insert.
        let mut body = Vec::new();
        put_u32(&mut body, 1); // one update
        body.push(0); // insert
        put_u32(&mut body, 1); // one location
        put_f64(&mut body, 0.0);
        put_f64(&mut body, 0.0);
        put_f64(&mut body, -1.0); // weight
        assert!(matches!(
            decode_request(op::REQ_APPLY, &body),
            Err(WireError::Malformed(_))
        ));
        // Finite positive weights that do not normalize: the sum overflows
        // to ∞, or the small weight underflows to 0 against the sum.
        for weights in [[1e308, 1e308], [5e-324, 1e10]] {
            let mut body = Vec::new();
            put_u32(&mut body, 1); // one update
            body.push(0); // insert
            put_u32(&mut body, 2); // two locations
            for (i, w) in weights.into_iter().enumerate() {
                put_f64(&mut body, i as f64);
                put_f64(&mut body, 0.0);
                put_f64(&mut body, w);
            }
            assert!(
                matches!(
                    decode_request(op::REQ_APPLY, &body),
                    Err(WireError::Malformed(_))
                ),
                "weights {weights:?}"
            );
        }
    }

    #[test]
    fn framing_errors_are_classified() {
        // Oversized length prefix.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, REQUEST_FRAME_MAX + 1);
        assert!(matches!(
            read_frame(&mut &bytes[..], REQUEST_FRAME_MAX),
            Err(WireError::TooLarge(_))
        ));
        // Length below the fixed header.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 3);
        assert!(matches!(
            read_frame(&mut &bytes[..], REQUEST_FRAME_MAX),
            Err(WireError::Malformed(_))
        ));
        // Clean EOF between frames vs truncation mid-frame.
        assert!(matches!(
            read_frame(&mut &[][..], REQUEST_FRAME_MAX),
            Err(WireError::Eof)
        ));
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 100);
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame(&mut &bytes[..], REQUEST_FRAME_MAX),
            Err(WireError::Truncated)
        ));
    }
}
