//! Span recorder for the traced re-drives.
//!
//! Every span is recorded by the benchmark around a call into one of the
//! pipeline crates' public functions: nothing is instrumented inside the
//! crates. Busy and self time per span name are folded in as each span
//! closes, so they cover every job. The spans themselves are kept in memory
//! for the first `SAMPLE_JOBS` jobs only, which bounds memory on workloads
//! that record millions of spans, and are written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Jobs whose spans are kept and written out.
const SAMPLE_JOBS: u64 = 8;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that was open on this thread when this one started
    /// (`0` for a job's root span).
    pub parent: u64,
    /// The job (a campaign, an evolution or a daemon job) the span worked
    /// for.
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTotals {
    pub calls: u64,
    /// Summed span durations, seconds.
    pub busy_s: f64,
    /// Summed self times (duration minus the time of the span's children),
    /// seconds.
    pub self_s: f64,
}

/// A span open on this thread.
struct Frame {
    id: u64,
    job: u64,
    /// Summed durations of the children closed so far. Children of one
    /// span run one after another on its thread, so they never overlap.
    child_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Span and counter recorder shared by the client threads of one run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    totals: BTreeMap<&'static str, SpanTotals>,
    counts: BTreeMap<&'static str, f64>,
    sample: Vec<Span>,
    spans: u64,
    /// Summed time the direct children of job spans were busy.
    job_busy_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            state: Mutex::new(State::default()),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer state poisoned")
    }

    fn close(&self, span: Span, self_ns: u64, is_job_root: bool, child_ns: u64) {
        let dur = span.end_ns.saturating_sub(span.start_ns);
        let mut state = self.state();
        let t = state.totals.entry(span.name).or_default();
        t.calls += 1;
        t.busy_s += dur as f64 / 1e9;
        t.self_s += self_ns as f64 / 1e9;
        state.spans += 1;
        if is_job_root {
            state.job_busy_ns += child_ns;
        }
        if span.job < SAMPLE_JOBS {
            state.sample.push(span);
        }
    }

    /// Run `f` inside the root span of job `job` on this thread.
    pub fn job<R>(&self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, Some(job), f)
    }

    /// Run `f` inside a span named `name`, a child of the span open on this
    /// thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name, None, f)
    }

    fn open<R>(&self, name: &'static str, root_of: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, job) = OPEN.with(|open| {
            let open = open.borrow();
            match (root_of, open.last()) {
                (Some(job), _) => (0, job),
                (None, Some(top)) => (top.id, top.job),
                (None, None) => (0, 0),
            }
        });
        OPEN.with(|open| {
            open.borrow_mut().push(Frame {
                id,
                job,
                child_ns: 0,
            })
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let frame = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let frame = open.pop().expect("span frames nest");
            if let Some(parent) = open.last_mut() {
                parent.child_ns += (end - start).as_nanos() as u64;
            }
            frame
        });
        let span = Span {
            id,
            parent,
            job,
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
        };
        let dur = span.end_ns.saturating_sub(span.start_ns);
        self.close(
            span,
            dur.saturating_sub(frame.child_ns),
            root_of.is_some(),
            frame.child_ns,
        );
        out
    }

    /// Record a span whose interval was measured elsewhere, such as from
    /// timestamps on a daemon's event stream. It may overlap its siblings,
    /// so it is not subtracted from its parent's self time.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, job) =
            OPEN.with(|open| open.borrow().last().map_or((0, 0), |top| (top.id, top.job)));
        let span = Span {
            id,
            parent,
            job,
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
        };
        let dur = span.end_ns.saturating_sub(span.start_ns);
        self.close(span, dur, false, 0);
    }

    /// Add `n` to the layer counter `name`.
    pub fn count(&self, name: &'static str, n: f64) {
        *self.state().counts.entry(name).or_insert(0.0) += n;
    }

    pub fn counts(&self) -> BTreeMap<&'static str, f64> {
        self.state().counts.clone()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        self.state().totals.clone()
    }

    /// Seconds the spans directly below job roots were busy.
    pub fn job_busy_s(&self) -> f64 {
        self.state().job_busy_ns as f64 / 1e9
    }

    /// Spans recorded, all jobs.
    pub fn span_count(&self) -> u64 {
        self.state().spans
    }

    /// Write the kept spans as JSON lines.
    pub fn write_sample(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.state().sample {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_job_busy_counts_them() {
        let tracer = Tracer::new();
        tracer.job("job", 3, || {
            tracer.span("outer", || {
                tracer.span("inner", || {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                })
            })
        });
        let t = tracer.totals();
        assert_eq!(t["inner"].calls, 1);
        assert!(t["inner"].busy_s >= 0.005);
        // `outer` spent almost all of its time inside `inner`.
        assert!(t["outer"].self_s < t["inner"].busy_s);
        assert!((t["outer"].busy_s - t["outer"].self_s - t["inner"].busy_s).abs() < 1e-6);
        assert!((tracer.job_busy_s() - t["outer"].busy_s).abs() < 1e-6);
        assert_eq!(tracer.span_count(), 3);
    }

    #[test]
    fn spans_nest_through_the_thread_context() {
        let tracer = Tracer::new();
        tracer.job("job", 7, || tracer.span("inner", || ()));
        tracer.job("job", SAMPLE_JOBS, || ());
        let state = tracer.state();
        let inner = state.sample.iter().find(|s| s.name == "inner").unwrap();
        let job = state.sample.iter().find(|s| s.name == "job").unwrap();
        assert_eq!(inner.parent, job.id);
        assert_eq!(inner.job, 7);
        assert_eq!(job.parent, 0);
        // Only the sampled jobs' spans are kept.
        assert_eq!(state.sample.len(), 2);
        assert_eq!(state.spans, 3);
    }

    #[test]
    fn recorded_spans_leave_the_parent_self_time_alone() {
        let tracer = Tracer::new();
        tracer.job("job", 0, || {
            let start = Instant::now();
            tracer.record("stream", start, start + std::time::Duration::from_secs(1));
        });
        let t = tracer.totals();
        assert!((t["stream"].busy_s - 1.0).abs() < 1e-9);
        assert!(t["job"].self_s < 0.5);
        assert_eq!(tracer.job_busy_s(), 0.0);
    }
}
