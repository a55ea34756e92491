//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each workspace crate. Every span has a name (`<layer>.<what>`), a
//! track (the device pairing it ran on, or `host`), a parent and an
//! optional job id. Spans stay in memory until the run ends; then
//! [`Tracer::self_times`] derives each span's self time (its duration
//! minus the part of its interval covered by its children) and
//! [`Tracer::chrome_json`] writes them out as a Chrome trace.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub track: &'static str,
    /// Traced pass the span belongs to.
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the tracer.
    pub parent: Option<usize>,
    /// Run-global kernel job id, for spans inside a warp.
    pub job: Option<u64>,
    /// Small per-thread number, for the Chrome trace's thread lanes.
    pub thread: u32,
}

/// Collects spans from any thread.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

fn thread_no() -> u32 {
    THREAD.with(|t| match t.get() {
        Some(n) => n,
        None => {
            let n = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            t.set(Some(n));
            n
        }
    })
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`]. Returns its id.
    pub fn open(
        &self,
        name: &'static str,
        track: &'static str,
        pass: u32,
        parent: Option<usize>,
    ) -> usize {
        let start = self.now();
        self.push(Span {
            name,
            track,
            pass,
            start_ns: start,
            end_ns: start,
            parent,
            job: None,
            thread: thread_no(),
        })
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&self, id: usize) {
        let end = self.now();
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")[id]
            .end_ns = end;
    }

    /// Record a finished leaf span.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: &'static str,
        track: &'static str,
        pass: u32,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        job: Option<u64>,
    ) {
        self.push(Span {
            name,
            track,
            pass,
            start_ns,
            end_ns,
            parent,
            job,
            thread: thread_no(),
        });
    }

    fn push(&self, s: Span) -> usize {
        let mut v = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span");
        v.push(s);
        v.len() - 1
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        track: &'static str,
        pass: u32,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = self.open(name, track, pass, parent);
        let r = f(id);
        self.close(id);
        r
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Self time of every span, in nanoseconds, indexed like [`Tracer::spans`]:
    /// duration minus the union of the child intervals (children run on
    /// worker threads may overlap each other).
    pub fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(kids)
            .map(|(s, mut iv)| {
                iv.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for (a, b) in iv {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(spans: &[Span]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"pass\":{},\"parent\":{},\"job\":{}}}}}",
                s.name,
                s.track,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                s.pass,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job.map_or("null".to_string(), |j| j.to_string()),
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            track: "host",
            pass: 0,
            start_ns: start,
            end_ns: end,
            parent,
            job: None,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 50, Some(0)),  // overlaps the first child
            span(80, 120, Some(0)), // runs past the parent's end
        ];
        let st = Tracer::self_times(&spans);
        assert_eq!(st[0], 100 - 40 - 20);
        assert_eq!(&st[1..], &[30, 20, 40]);
    }
}
