//! RAII span guards and the optional slowest-trace recorder.
//!
//! A [`Span`] times the region from construction to drop and records the
//! wall nanoseconds into a registry histogram (plus elapsed `rdtsc`
//! reference cycles into a `<name>.cycles` twin on x86_64). The
//! [`span!`](crate::span!) macro caches both histogram handles per
//! callsite, so a span costs two `Instant::now()` calls and two relaxed
//! histogram records.
//!
//! Tracing is off by default. When [`trace::set_capacity`] arms it, any
//! thread can open a trace with [`trace::start`]; spans dropped while that
//! thread's trace is open append `(name, start, duration)` events to it,
//! and a process-global recorder keeps the K slowest completed traces for
//! [`trace::dump_json_lines`].

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::Histogram;
use crate::registry::registry;

/// Reads the CPU reference-cycle counter (`rdtsc`); `None` off x86_64.
/// Duplicated from `uncertain_bench::measure::cycle_counter` because the
/// dependency arrow points the other way (bench builds on obs).
#[inline]
pub fn cycles_now() -> Option<u64> {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions; baseline x86_64 includes it.
        Some(unsafe { core::arch::x86_64::_rdtsc() })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// Whether [`cycles_now`] returns a real counter on this target.
#[inline]
pub fn has_cycle_counter() -> bool {
    cfg!(target_arch = "x86_64")
}

/// An in-flight timed region; records on drop. Construct via the
/// [`span!`](crate::span!) macro (static name, cached handles) or
/// [`span_dyn`] (any name, registry lookup per call).
pub struct Span {
    name: &'static str,
    ns: &'static Histogram,
    cycles: Option<&'static Histogram>,
    t0: Instant,
    c0: Option<u64>,
    /// Start offset within the thread's open trace, if one is active.
    trace_start_ns: Option<u64>,
}

impl Span {
    /// Starts a span over pre-resolved histogram handles (what the macro
    /// expands to).
    pub fn with(
        name: &'static str,
        ns: &'static Histogram,
        cycles: Option<&'static Histogram>,
    ) -> Span {
        Span {
            name,
            ns,
            cycles,
            t0: Instant::now(),
            c0: cycles.and(cycles_now()),
            trace_start_ns: trace::offset_in_open_trace(),
        }
    }

    /// Name this span records under.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur_ns = self.t0.elapsed().as_nanos() as u64;
        self.ns.record(dur_ns);
        if let (Some(h), Some(c0), Some(c1)) = (self.cycles, self.c0, cycles_now()) {
            h.record(c1.saturating_sub(c0));
        }
        if let Some(start_ns) = self.trace_start_ns {
            trace::record_span(self.name, start_ns, dur_ns);
        }
    }
}

/// Starts a span under a name resolved through the registry on every call
/// (one mutex round-trip). Fine at batch/experiment granularity; use the
/// [`span!`](crate::span!) macro on per-query paths.
pub fn span_dyn(name: &str) -> Span {
    let (interned, ns) = registry().histogram_named(name);
    let cycles = has_cycle_counter().then(|| registry().histogram(&format!("{name}.cycles")));
    Span::with(interned, ns, cycles)
}

pub mod trace {
    //! The K-slowest query-trace recorder.

    use super::*;

    /// How many slowest traces to keep; 0 = tracing disabled (default).
    static CAPACITY: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
    }

    struct Active {
        label: &'static str,
        t0: Instant,
        events: Vec<SpanEvent>,
    }

    /// One completed span inside a trace, offsets relative to trace start.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SpanEvent {
        pub name: &'static str,
        pub start_ns: u64,
        pub dur_ns: u64,
    }

    /// One completed query trace.
    #[derive(Clone, Debug)]
    pub struct QueryTrace {
        pub label: &'static str,
        pub total_ns: u64,
        pub spans: Vec<SpanEvent>,
    }

    fn sink() -> &'static Mutex<Vec<QueryTrace>> {
        static SINK: OnceLock<Mutex<Vec<QueryTrace>>> = OnceLock::new();
        SINK.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Arms the recorder to keep the `k` slowest traces (0 disables and
    /// clears). Typically set once at process start / experiment setup.
    pub fn set_capacity(k: usize) {
        CAPACITY.store(k, Ordering::Relaxed);
        if k == 0 {
            clear();
        }
    }

    /// Current capacity (0 = disabled).
    pub fn capacity() -> usize {
        CAPACITY.load(Ordering::Relaxed)
    }

    /// Opens a trace on this thread. Returns `None` (no overhead beyond
    /// one atomic load) when tracing is disabled or the thread already has
    /// an open trace — nested traces are not recorded, their spans fold
    /// into the outer trace.
    pub fn start(label: &'static str) -> Option<TraceGuard> {
        if capacity() == 0 {
            return None;
        }
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            if a.is_some() {
                return None;
            }
            *a = Some(Active {
                label,
                t0: Instant::now(),
                events: Vec::with_capacity(8),
            });
            Some(TraceGuard {
                _not_send: std::marker::PhantomData,
            })
        })
    }

    /// Nanoseconds since this thread's open trace started, if one is open.
    pub(super) fn offset_in_open_trace() -> Option<u64> {
        if capacity() == 0 {
            return None;
        }
        ACTIVE.with(|a| {
            a.borrow()
                .as_ref()
                .map(|t| t.t0.elapsed().as_nanos() as u64)
        })
    }

    /// Appends a completed span to this thread's open trace, if any.
    pub(super) fn record_span(name: &'static str, start_ns: u64, dur_ns: u64) {
        ACTIVE.with(|a| {
            if let Some(t) = a.borrow_mut().as_mut() {
                t.events.push(SpanEvent {
                    name,
                    start_ns,
                    dur_ns,
                });
            }
        });
    }

    /// Closes the trace when dropped and offers it to the K-slowest sink.
    pub struct TraceGuard {
        _not_send: std::marker::PhantomData<*const ()>,
    }

    impl Drop for TraceGuard {
        fn drop(&mut self) {
            let finished = ACTIVE.with(|a| a.borrow_mut().take());
            let Some(t) = finished else { return };
            let trace = QueryTrace {
                label: t.label,
                total_ns: t.t0.elapsed().as_nanos() as u64,
                spans: t.events,
            };
            let k = capacity();
            if k == 0 {
                return;
            }
            let mut sink = sink().lock().unwrap_or_else(|e| e.into_inner());
            if sink.len() < k {
                sink.push(trace);
            } else if let Some((i, min)) = sink
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.total_ns)
                .map(|(i, t)| (i, t.total_ns))
            {
                if trace.total_ns > min {
                    sink[i] = trace;
                }
            }
        }
    }

    /// The recorded slowest traces, slowest first.
    pub fn slowest() -> Vec<QueryTrace> {
        let mut out = sink().lock().unwrap_or_else(|e| e.into_inner()).clone();
        out.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
        out
    }

    /// Drops every recorded trace (capacity unchanged).
    pub fn clear() {
        sink().lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// The slowest traces as JSON lines, one trace per line:
    /// `{"schema":"obs-trace/v1","label":...,"total_ns":...,"spans":[...]}`.
    pub fn dump_json_lines() -> String {
        let mut out = String::new();
        for t in slowest() {
            out.push_str(&format!(
                "{{\"schema\":\"obs-trace/v1\",\"label\":\"{}\",\"total_ns\":{},\"spans\":[",
                t.label, t.total_ns
            ));
            for (i, e) in t.spans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                    e.name, e.start_ns, e.dur_ns
                ));
            }
            out.push_str("]}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_named_histogram() {
        let before = registry().histogram("test.span.basic").snapshot();
        {
            let _s = crate::span!("test.span.basic");
            std::hint::black_box(0u64);
        }
        let d = registry()
            .histogram("test.span.basic")
            .snapshot()
            .since(&before);
        assert_eq!(d.count(), 1);
        if has_cycle_counter() {
            assert!(
                registry()
                    .histogram("test.span.basic.cycles")
                    .snapshot()
                    .count()
                    >= 1
            );
        }
    }

    #[test]
    fn trace_recorder_keeps_slowest() {
        trace::set_capacity(2);
        for sleep_us in [1u64, 900, 400, 700] {
            let _g = trace::start("test.trace");
            let _s = crate::span!("test.trace.work");
            let t0 = Instant::now();
            while t0.elapsed().as_micros() < sleep_us as u128 {
                std::hint::black_box(0u64);
            }
        }
        let slow = trace::slowest();
        assert_eq!(slow.len(), 2);
        assert!(slow[0].total_ns >= slow[1].total_ns);
        // The two slowest of the four runs were kept (≥ ~700µs and ~400µs).
        assert!(slow[1].total_ns >= 300_000, "kept {} ns", slow[1].total_ns);
        assert!(slow[0].spans.iter().any(|e| e.name == "test.trace.work"));
        let json = trace::dump_json_lines();
        assert_eq!(json.lines().count(), 2);
        assert!(json.starts_with("{\"schema\":\"obs-trace/v1\""));
        trace::set_capacity(0);
        assert!(trace::slowest().is_empty());
    }
}
