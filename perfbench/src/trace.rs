//! In-memory spans around the benchmark's calls into the program.
//!
//! Each workload thread owns one [`SpanLog`]; a disabled log records
//! nothing, so untraced runs pay one branch per call site. Logs are
//! merged when the threads are joined and written out at exit.

use std::io::Write;
use std::time::Instant;

/// One recorded span: a call into a layer of the program.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `net.Client::estimate`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start: u64,
    /// End, nanoseconds since the run's epoch.
    pub end: u64,
    /// 1-based index of the enclosing span in the same log, 0 for none.
    pub parent: u32,
    /// Request id shared by the spans of one request (0 for none).
    pub req: u64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    /// Thread label used when the spans are written out.
    pub thread: &'static str,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// A log for one thread; records only when `on`.
    pub fn new(on: bool, epoch: Instant, thread: &'static str) -> SpanLog {
        SpanLog {
            on,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    /// Opens a span; returns its handle (0 when tracing is off).
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, req: u64) -> u32 {
        if !self.on {
            return 0;
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.spans.len() as u32
    }

    /// Closes the span `id` returned by [`SpanLog::begin`].
    #[inline]
    pub fn end(&mut self, id: u32) {
        if id != 0 {
            self.spans[id as usize - 1].end = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Total time (ns) covered by root spans inside `[from, to]`.
    pub fn root_cover(&self, from: u64, to: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == 0 && s.start >= from && s.end <= to)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Nanoseconds since the epoch, now.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Writes every span of `logs` as tab-separated lines
/// (`thread name start_ns end_ns parent req`) to `path`.
pub fn write_spans(path: &std::path::Path, logs: &[&SpanLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tname\tstart_ns\tend_ns\tparent\treq")?;
    for log in logs {
        for s in &log.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                log.thread, s.name, s.start, s.end, s.parent, s.req
            )?;
        }
    }
    out.flush()
}
