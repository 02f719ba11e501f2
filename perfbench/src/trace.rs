//! In-memory spans and the counting backend wrapper of the traced run.
//!
//! Spans are recorded only here, around the benchmark's own calls into
//! each layer; every span has a name, start, end, parent and request id.
//! They stay in per-thread buffers until the run ends and are then
//! written out as JSON lines.

use maddpipe_runtime::{BackendError, BatchResult, MacroBackend, TokenBatch};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Request id of spans that serve many requests at once (micro-batches).
pub const NO_REQUEST: u64 = u64::MAX;

struct Span {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start: Duration,
    end: Duration,
}

/// The span store of one traced run. Recording can be switched off for
/// stretches of the run, which is how the run measures its own overhead.
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn offset(&self, at: Instant) -> Duration {
        at.saturating_duration_since(self.epoch)
    }

    /// A per-thread buffer that hands its spans to the store on drop.
    pub fn buffer(self: &Arc<Tracer>) -> SpanBuf {
        SpanBuf {
            tracer: Arc::clone(self),
            spans: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store lock").len()
    }

    /// Writes the spans as JSON lines to `path`: all of them when there
    /// are at most `cap`, else the micro-batch spans and those of every
    /// n-th request, n chosen to bring the file near `cap` lines.
    pub fn write(&self, path: &Path, cap: usize) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span store lock");
        let sample = spans.len().div_ceil(cap.max(1)).max(1) as u64;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0;
        for s in spans
            .iter()
            .filter(|s| s.request == NO_REQUEST || s.request % sample == 0)
            .take(cap)
        {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = if s.request == NO_REQUEST {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{request},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
            written += 1;
        }
        out.flush()?;
        Ok(written)
    }
}

pub struct SpanBuf {
    tracer: Arc<Tracer>,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// Records a finished span while recording is enabled.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: u64,
    ) {
        if !self.tracer.enabled() {
            return;
        }
        self.spans.push(Span {
            id: self.reserve(),
            parent,
            request,
            name,
            start: self.tracer.offset(start),
            end: self.tracer.offset(end),
        });
    }

    /// Reserves an id for a parent span recorded after its children.
    pub fn reserve(&self) -> u64 {
        self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: u64,
    ) {
        if !self.tracer.enabled() {
            return;
        }
        self.spans.push(Span {
            id,
            parent: None,
            request,
            name,
            start: self.tracer.offset(start),
            end: self.tracer.offset(end),
        });
    }
}

impl Drop for SpanBuf {
    fn drop(&mut self) {
        if let Ok(mut store) = self.tracer.spans.lock() {
            store.append(&mut self.spans);
        }
    }
}

/// Counters a [`Tap`] adds to: backend calls, tokens and busy time.
#[derive(Default)]
pub struct TapCounters {
    pub calls: AtomicU64,
    pub tokens: AtomicU64,
    pub busy_ns: AtomicU64,
}

impl TapCounters {
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.tokens.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed),
        )
    }
}

/// A [`MacroBackend`] that forwards to `inner`, counting its calls and
/// busy time and, when traced, recording one span per call.
pub struct Tap {
    inner: Box<dyn MacroBackend>,
    counters: Arc<TapCounters>,
    spans: Option<SpanBuf>,
}

impl Tap {
    pub fn new(
        inner: Box<dyn MacroBackend>,
        counters: Arc<TapCounters>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Tap {
        Tap {
            inner,
            counters,
            spans: tracer.map(Tracer::buffer),
        }
    }
}

impl MacroBackend for Tap {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        let t0 = Instant::now();
        let result = self.inner.run_batch(batch);
        let t1 = Instant::now();
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .tokens
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.counters
            .busy_ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        if let Some(spans) = &mut self.spans {
            spans.record("functional.run_batch", t0, t1, None, NO_REQUEST);
        }
        result
    }

    fn cache_stats(&self) -> Option<maddpipe_runtime::CacheStats> {
        self.inner.cache_stats()
    }
}
