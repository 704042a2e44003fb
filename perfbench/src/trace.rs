//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. They are kept in a preallocated buffer and written out as
//! Chrome trace-event JSON once the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// The request (or probe round) the span belongs to: the root span's
    /// sequence number.
    request: u32,
    start_us: f64,
    dur_us: f64,
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
            request: 0,
        }
    }

    /// Opens a span; close it with [`Trace::exit`]. A span opened with no
    /// other open starts a new request.
    pub fn enter(&mut self, name: &'static str) {
        if self.open.is_empty() {
            self.request += 1;
        }
        let idx = u32::try_from(self.spans.len()).expect("span count fits in u32");
        self.spans.push(Span {
            name,
            request: self.request,
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span and returns its duration in ms.
    pub fn exit(&mut self) -> f64 {
        let idx = self.open.pop().expect("exit without a matching enter") as usize;
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        let span = &mut self.spans[idx];
        span.dur_us = now - span.start_us;
        span.dur_us / 1e3
    }

    /// Durations in ms of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3)
            .collect()
    }

    /// The spans as Chrome trace-event JSON (complete events, one thread).
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(128 * self.spans.len() + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"request\":{}}}}}",
                s.name, s.start_us, s.dur_us, s.request
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Runs `f` inside a span named `name` when tracing is on, handing it the
/// trace for child spans, and returns its result and duration in ms.
pub fn span<T>(
    trace: &mut Option<&mut Trace>,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Trace>) -> T,
) -> (T, f64) {
    let start = Instant::now();
    if let Some(t) = trace.as_deref_mut() {
        t.enter(name);
    }
    let out = f(trace);
    let ms = match trace.as_deref_mut() {
        Some(t) => t.exit(),
        None => start.elapsed().as_secs_f64() * 1e3,
    };
    (out, ms)
}
