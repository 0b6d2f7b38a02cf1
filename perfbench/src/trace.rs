//! Spans recorded from outside the program.
//!
//! Two sources feed one in-memory span list:
//!
//! * the benchmark wraps its own calls into the library's public
//!   functions ([`Tracer::span`], [`Tracer::begin_call`]);
//! * [`Tracer`] is an [`Observer`]: it timestamps events the pipeline
//!   already emits and turns them into spans — session phases from
//!   `PhaseStarted`/`PhaseFinished`, GA set-up, generation and
//!   refinement intervals from `GaGeneration`, the service's admission
//!   window from its `Request*` events and fleet epochs from
//!   `FleetEpoch`.
//!
//! A span whose thread has nothing open is parented to the open call
//! span, so work on pool threads counts as the call's children. Spans
//! stay in memory; [`write_chrome_trace`] writes them once at exit.

use npu_obs::{Event, Observer, Phase};
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::Instant;

/// Marks a span that has not ended yet.
const OPEN: u64 = u64::MAX;

/// Name of the span a pool thread's session gets (first phase start to
/// search end).
pub const SESSION: &str = "core.session";

/// One recorded interval, in nanoseconds since the tracer's creation.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (e.g. `core.session.search`).
    pub name: String,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any (possibly on another thread).
    pub parent: Option<usize>,
    /// Dense thread index, in order of first appearance.
    pub thread: usize,
    /// Call id: 0 for set-up, then one per traced call.
    pub call: u32,
    /// Event payload count (GA memo hits for generation spans).
    pub value: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct ThreadState {
    index: usize,
    stack: Vec<usize>,
    /// `(timestamp, memo hits)` of each `GaGeneration` since the open
    /// search phase started.
    gens: Vec<(u64, u64)>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    threads: HashMap<ThreadId, ThreadState>,
    call: u32,
    roots: Vec<usize>,
    root: Option<usize>,
    admission: Option<usize>,
    epoch_mark: Option<u64>,
}

impl State {
    fn thread(&mut self) -> &mut ThreadState {
        let next = self.threads.len();
        self.threads
            .entry(thread::current().id())
            .or_insert_with(|| ThreadState {
                index: next,
                ..ThreadState::default()
            })
    }

    /// Appends a closed-or-open span for the current thread (not pushed
    /// on its stack) and returns its index.
    fn record(&mut self, name: String, start_ns: u64, end_ns: u64, parent: Option<usize>) -> usize {
        let call = self.call;
        let thread = self.thread().index;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            thread,
            call,
            value: 0,
        });
        self.spans.len() - 1
    }

    /// The innermost open span of the current thread, else the call.
    fn current_parent(&mut self) -> Option<usize> {
        let root = self.root;
        self.thread().stack.last().copied().or(root)
    }

    fn open(&mut self, name: String, now: u64) -> usize {
        let parent = self.current_parent();
        let id = self.record(name, now, OPEN, parent);
        self.thread().stack.push(id);
        id
    }

    /// Closes `id` and anything opened above it on the current thread.
    fn close(&mut self, id: usize, now: u64) {
        let stack = &mut self.thread().stack;
        let Some(pos) = stack.iter().rposition(|&s| s == id) else {
            return;
        };
        let closed: Vec<usize> = stack.drain(pos..).collect();
        for s in closed {
            self.spans[s].end_ns = now;
        }
    }

    /// The current thread's innermost open span named `name`.
    fn find_open(&mut self, name: &str) -> Option<usize> {
        let stack = self.thread().stack.clone();
        stack
            .into_iter()
            .rev()
            .find(|&s| self.spans[s].name == name)
    }
}

/// In-memory span recorder; also the event [`Observer`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// The span name of a session phase.
pub fn phase_span(phase: Phase) -> &'static str {
    match phase {
        Phase::Calibrate => "core.session.calibrate",
        Phase::Profile => "core.session.profile",
        Phase::BuildModels => "core.session.build_models",
        Phase::Search => "core.session.search",
        Phase::Execute => "core.session.execute",
        Phase::Report => "core.session.report",
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("tracer state poisoned by a panic")
    }

    /// Opens a span on the current thread.
    pub fn begin(&self, name: &str) -> usize {
        let now = self.now();
        self.lock().open(name.to_owned(), now)
    }

    /// Closes a span opened by [`Self::begin`].
    pub fn end(&self, id: usize) {
        let now = self.now();
        self.lock().close(id, now);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Opens the next call's root span (call ids count from 1); spans on
    /// threads with nothing open become its children until
    /// [`Self::end_call`].
    pub fn begin_call(&self, name: &str) -> usize {
        let now = self.now();
        let mut st = self.lock();
        st.call = st.roots.len() as u32 + 1;
        let id = st.open(name.to_owned(), now);
        st.roots.push(id);
        st.root = Some(id);
        id
    }

    /// The root span of every call so far, in call order.
    pub fn roots(&self) -> Vec<usize> {
        self.lock().roots.clone()
    }

    /// Closes the call's root span and every span of the call still
    /// open (a phase whose finish event never came).
    pub fn end_call(&self, id: usize) {
        let now = self.now();
        let mut st = self.lock();
        let call = st.call;
        for s in st.spans.iter_mut().filter(|s| s.call == call) {
            if s.end_ns == OPEN {
                s.end_ns = now;
            }
        }
        for t in st.threads.values_mut() {
            t.stack.retain(|&s| s < id);
            t.gens.clear();
        }
        st.root = None;
        st.admission = None;
        st.epoch_mark = None;
        st.call = 0;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    fn phase_started(&self, phase: Phase) {
        let now = self.now();
        let mut st = self.lock();
        if st.thread().stack.is_empty() {
            // A session on a pool thread: no benchmark span wraps it.
            st.open(SESSION.to_owned(), now);
        }
        if phase == Phase::Search {
            st.thread().gens.clear();
        }
        st.open(phase_span(phase).to_owned(), now);
    }

    fn phase_finished(&self, phase: Phase) {
        let now = self.now();
        let mut st = self.lock();
        let Some(id) = st.find_open(phase_span(phase)) else {
            return;
        };
        if phase == Phase::Search {
            let gens = std::mem::take(&mut st.thread().gens);
            let start = st.spans[id].start_ns;
            if let (Some(&(first, hits0)), Some(&(last, _))) = (gens.first(), gens.last()) {
                let setup = st.record("dvfs.ga_setup".to_owned(), start, first, Some(id));
                st.spans[setup].value = hits0;
                for w in gens.windows(2) {
                    let g = st.record("dvfs.ga_gen".to_owned(), w[0].0, w[1].0, Some(id));
                    st.spans[g].value = w[1].1;
                }
                st.record("dvfs.ga_refine".to_owned(), last, now, Some(id));
            }
        }
        st.close(id, now);
        if phase == Phase::Search {
            if let Some(&top) = st.thread().stack.last() {
                if st.spans[top].name == SESSION {
                    st.close(top, now);
                }
            }
        }
    }

    fn ga_generation(&self, memo_hits: usize) {
        let now = self.now();
        self.lock().thread().gens.push((now, memo_hits as u64));
    }

    /// Stretches the admission span over the service's request events.
    fn admission_mark(&self) {
        let now = self.now();
        let mut st = self.lock();
        match st.admission {
            Some(id) => st.spans[id].end_ns = now,
            None => {
                let parent = st.current_parent();
                let id = st.record("core.service.admission".to_owned(), now, now, parent);
                st.admission = Some(id);
            }
        }
    }

    /// Closes one fleet epoch at its barrier event.
    fn epoch_mark(&self) {
        let now = self.now();
        let mut st = self.lock();
        let Some(root) = st.root else { return };
        let start = st.epoch_mark.unwrap_or(st.spans[root].start_ns);
        st.record("core.fleet.epoch".to_owned(), start, now, Some(root));
        st.epoch_mark = Some(now);
    }
}

impl Observer for Tracer {
    fn on_event(&self, event: &Event) {
        match event {
            Event::PhaseStarted { phase } => self.phase_started(*phase),
            Event::PhaseFinished { phase, .. } => self.phase_finished(*phase),
            Event::GaGeneration { memo_hits, .. } => self.ga_generation(*memo_hits),
            Event::RequestAdmitted { .. }
            | Event::RequestRejected { .. }
            | Event::RequestCoalesced { .. }
            | Event::RequestCompleted { .. } => self.admission_mark(),
            Event::FleetEpoch { .. } => self.epoch_mark(),
            _ => {}
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`, ns.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's duration minus the part of it its children cover (children
/// on any thread; overlapping children count once), ns.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let span = &spans[id];
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    span.dur_ns() - covered_ns(&children, span.start_ns, span.end_ns)
}

/// The share of a call span's wall time no child span covers.
pub fn unattributed_frac(spans: &[Span], call_root: usize) -> f64 {
    let dur = spans[call_root].dur_ns();
    if dur == 0 {
        return 0.0;
    }
    self_ns(spans, call_root) as f64 / dur as f64
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes `spans` as Chrome trace-event JSON (the format
/// `npu_sim::write_chrome_trace` produces), one track per thread, with
/// timestamps in µs relative to the earliest span.
pub fn write_chrome_trace<W: Write>(spans: &[&Span], mut out: W) -> io::Result<()> {
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut threads: Vec<usize> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    writeln!(out, "{{\"traceEvents\":[")?;
    let mut first = true;
    for t in &threads {
        if !first {
            writeln!(out, ",")?;
        }
        first = false;
        write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\
             \"args\":{{\"name\":\"thread {t}\"}}}}"
        )?;
    }
    for s in spans {
        if !first {
            writeln!(out, ",")?;
        }
        first = false;
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"call\":{},\"value\":{}}}}}",
            escape(&s.name),
            escape(s.name.split('.').next().unwrap_or("")),
            (s.start_ns - t0) as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.thread,
            s.call,
            s.value
        )?;
    }
    writeln!(out, "\n]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>, thread: usize) -> Span {
        Span {
            name: name.to_owned(),
            start_ns: start,
            end_ns: end,
            parent,
            thread,
            call: 1,
            value: 0,
        }
    }

    #[test]
    fn union_counts_overlap_once_and_clips() {
        assert_eq!(covered_ns(&[], 0, 10), 0);
        assert_eq!(covered_ns(&[(2, 5), (4, 8)], 0, 10), 6);
        assert_eq!(covered_ns(&[(0, 3), (5, 7)], 1, 6), 3);
        assert_eq!(covered_ns(&[(5, 7), (0, 20)], 2, 10), 8);
    }

    #[test]
    fn self_time_with_overlapping_children_on_two_threads() {
        // Parent [0,100) on thread 0; children [10,50) on thread 1 and
        // [30,70) on thread 2 overlap on [30,50); a grandchild inside
        // the first child must not count for the parent.
        let spans = vec![
            span("call", 0, 100, None, 0),
            span("a", 10, 50, Some(0), 1),
            span("b", 30, 70, Some(0), 2),
            span("a.inner", 20, 95, Some(1), 1),
        ];
        assert_eq!(self_ns(&spans, 0), 40);
        // The grandchild is clipped to its parent's [10,50).
        assert_eq!(self_ns(&spans, 1), 10);
        assert_eq!(self_ns(&spans, 2), 40);
        assert_eq!(self_ns(&spans, 3), 75);
        assert!((unattributed_frac(&spans, 0) - 0.40).abs() < 1e-12);
    }

    #[test]
    fn unattributed_frac_of_fully_covered_and_empty_calls() {
        let covered = vec![
            span("call", 100, 200, None, 0),
            span("x", 90, 150, Some(0), 0),
            span("y", 150, 260, Some(0), 1),
        ];
        assert_eq!(unattributed_frac(&covered, 0), 0.0);
        let bare = vec![span("call", 0, 50, None, 0)];
        assert_eq!(unattributed_frac(&bare, 0), 1.0);
    }

    #[test]
    fn events_become_nested_spans_and_pool_sessions_attach_to_the_call() {
        let tr = Tracer::new();
        let root = tr.begin_call("call");
        tr.on_event(&Event::PhaseStarted {
            phase: Phase::Search,
        });
        for iter in 0..3 {
            tr.on_event(&Event::GaGeneration {
                iter,
                best_score: 1.0,
                memo_hits: iter,
            });
        }
        tr.on_event(&Event::PhaseFinished {
            phase: Phase::Search,
            wall_us: 0.0,
        });
        thread::scope(|s| {
            s.spawn(|| {
                tr.on_event(&Event::PhaseStarted {
                    phase: Phase::Profile,
                });
                tr.on_event(&Event::PhaseFinished {
                    phase: Phase::Profile,
                    wall_us: 0.0,
                });
                tr.on_event(&Event::PhaseStarted {
                    phase: Phase::Search,
                });
                tr.on_event(&Event::PhaseFinished {
                    phase: Phase::Search,
                    wall_us: 0.0,
                });
            });
        });
        tr.end_call(root);
        assert_eq!(tr.roots(), [root]);
        let spans = tr.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "call",
                "core.session.search",
                "dvfs.ga_setup",
                "dvfs.ga_gen",
                "dvfs.ga_gen",
                "dvfs.ga_refine",
                SESSION,
                "core.session.profile",
                "core.session.search",
            ]
        );
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[2..6].iter().all(|s| s.parent == Some(1)));
        assert_eq!(spans.iter().map(|s| s.value).sum::<u64>(), 3);
        // The pool thread's session hangs off the call, on its own track.
        assert_eq!(spans[6].parent, Some(0));
        assert_ne!(spans[6].thread, spans[0].thread);
        assert_eq!(spans[7].parent, Some(6));
        assert!(spans.iter().all(|s| s.end_ns != OPEN && s.call == 1));
        // The GA sub-spans tile the search span exactly.
        assert_eq!(self_ns(&spans, 1), 0);
    }

    #[test]
    fn chrome_trace_has_one_track_per_thread() {
        let spans = [
            span("a", 1000, 3000, None, 0),
            span("b", 2000, 2500, Some(0), 3),
        ];
        let refs: Vec<&Span> = spans.iter().collect();
        let mut out = Vec::new();
        write_chrome_trace(&refs, &mut out).expect("write to memory");
        let text = String::from_utf8(out).expect("utf-8");
        assert!(text.starts_with("{\"traceEvents\":["));
        assert_eq!(text.matches("\"ph\":\"M\"").count(), 2);
        assert!(
            text.contains("\"name\":\"b\",\"cat\":\"b\",\"ph\":\"X\",\"ts\":1.000,\"dur\":0.500")
        );
    }
}
