//! The benchmark's own tracing: spans around its calls into each layer,
//! kept in memory and written out when the run ends. A span has a name, a
//! start and an end, the span that caused it, and a group id shared by all
//! spans of one request, batch or round. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub id: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder; a disabled tracer records nothing and hands out id 0.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span, recorded when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    group: u64,
    name: &'static str,
    start: Instant,
}

impl Guard<'_> {
    /// The id children of this span name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.tracer.push(
            self.id,
            self.name,
            self.group,
            self.parent,
            self.start,
            Instant::now(),
        );
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span that ends when the guard drops.
    pub fn enter(&self, name: &'static str, group: u64, parent: u64) -> Guard<'_> {
        Guard {
            tracer: self,
            id: if self.on {
                self.next_id.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            },
            parent,
            group,
            name,
            start: Instant::now(),
        }
    }

    /// Records a span whose start and end were taken elsewhere (a wire
    /// request is sent on one thread and answered on another).
    pub fn record(
        &self,
        name: &'static str,
        group: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, name, group, parent, start, end);
        }
    }

    fn push(&self, id: u64, name: &'static str, group: u64, parent: u64, s: Instant, e: Instant) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let rec = SpanRec {
            id,
            parent,
            group,
            name,
            start_ns: ns(s),
            end_ns: ns(e),
        };
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .push(rec);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
            .clone()
    }
}

/// Count, total and self time of every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name. Children that overlap each other (concurrent
/// requests under one phase) are merged before their cover is subtracted,
/// so self time is never negative.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |c| {
            c.sort_unstable();
            let (mut sum, mut cur) = (0u64, None::<(u64, u64)>);
            for &(a, b) in c.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        sum += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            sum + cur.map_or(0, |(a, b)| b - a)
        });
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered.min(dur);
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
