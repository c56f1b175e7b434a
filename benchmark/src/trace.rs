//! In-memory spans recorded from the harness side, around the calls into
//! each layer's public functions.
//!
//! A span has a name, a start and an end, the span that caused it, and the
//! id of the repeat ("run") it belongs to. Inner loops that would produce
//! one span per simulated cycle record an *aggregated* span instead: one
//! record whose `busy_ns` is the summed time of `calls` calls. A span's
//! self time is its busy time minus the busy time of its children on the
//! same thread — a child on another thread is work the parent waits for,
//! not work the parent's thread does.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD_INDEX: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Repeat the span belongs to.
    pub run: u32,
    /// Process-wide index of the OS thread that recorded it.
    pub thread: u32,
    /// Index of the causing span in [`Trace::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time spent inside the spanned calls: `end - start` for an ordinary
    /// span, the summed call time for an aggregated one.
    pub busy_ns: u64,
    pub calls: u64,
}

/// A per-thread span recorder. Worker threads [`Trace::fork`] their own and
/// the owner [`Trace::join`]s them back.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    thread: u32,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            thread: THREAD_INDEX.with(|t| *t),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for the calling (worker) thread, on the same clock and
    /// repeat as `self`.
    pub fn fork(&self) -> Trace {
        Trace {
            epoch: self.epoch,
            run: self.run,
            ..Trace::new()
        }
    }

    /// Label the spans that follow with repeat `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            run: self.run,
            thread: self.thread,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
            busy_ns: 0,
            calls: 1,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Record `f` as a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Record `calls` calls made between `first` and `last`, which took
    /// `busy` in total, as one aggregated child of the innermost open span.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        first: Instant,
        last: Instant,
        busy: Duration,
        calls: u64,
    ) {
        self.spans.push(Span {
            name,
            run: self.run,
            thread: self.thread,
            parent: self.open.last().copied(),
            start_ns: self.ns(first),
            end_ns: self.ns(last),
            busy_ns: busy.as_nanos() as u64,
            calls,
        });
    }

    /// Append a worker's spans; its root spans become children of `adopt`.
    pub fn join(&mut self, worker: Trace, adopt: Option<usize>) {
        assert!(worker.open.is_empty(), "worker left a span open");
        let base = self.spans.len();
        self.spans.extend(worker.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base).or(adopt);
            span
        }));
    }

    /// Self time of every span, by index.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.busy_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                if self.spans[p].thread == span.thread {
                    own[p] = own[p].saturating_sub(span.busy_ns);
                }
            }
        }
        own
    }

    /// Summed busy seconds and calls of the spans named `name`.
    pub fn busy(&self, name: &str) -> (f64, u64) {
        let (mut ns, mut calls) = (0u64, 0u64);
        for span in self.spans.iter().filter(|s| s.name == name) {
            ns += span.busy_ns;
            calls += span.calls;
        }
        (ns as f64 / 1e9, calls)
    }

    /// The smallest, over (repeat, thread) pairs, share of that thread's
    /// traced wall (first span start to last span end) that its spans' self
    /// times account for. 1.0 when nothing was recorded.
    pub fn coverage(&self) -> f64 {
        use std::collections::BTreeMap;
        let own = self.self_ns();
        // (run, thread) -> (first start, last end, summed self time)
        let mut per: BTreeMap<(u32, u32), (u64, u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let e = per
                .entry((span.run, span.thread))
                .or_insert((u64::MAX, 0, 0));
            e.0 = e.0.min(span.start_ns);
            e.1 = e.1.max(span.end_ns);
            e.2 += own;
        }
        per.values()
            .filter(|(start, end, _)| end > start)
            .map(|(start, end, own)| *own as f64 / (end - start) as f64)
            .fold(1.0, f64::min)
    }

    /// Render the trace as JSON (one object, spans in recording order).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let own = self.self_ns();
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (id, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"run\":{},\"thread\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"calls\":{},\"self_ns\":{own}}}{}\n",
                s.name,
                s.run,
                s.thread,
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls,
                if id + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace with hand-set times: root [0,100] with children a [10,40]
    /// and an aggregated b (busy 20 over 5 calls); a has child c [15,25].
    fn sample() -> Trace {
        let mut t = Trace::new();
        let root = t.begin("root");
        let a = t.begin("a");
        let c = t.begin("c");
        t.end(c);
        t.end(a);
        let now = Instant::now();
        t.aggregate("b", now, now, Duration::from_nanos(20), 5);
        t.end(root);
        for (i, (start, end)) in [(0, 100), (10, 40), (15, 25)].into_iter().enumerate() {
            t.spans[i].start_ns = start;
            t.spans[i].end_ns = end;
            t.spans[i].busy_ns = end - start;
        }
        t
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = sample();
        assert_eq!(t.spans()[3].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
        // root: 100 - 30 (a) - 20 (b); a: 30 - 10 (c); leaves keep all.
        assert_eq!(t.self_ns(), vec![50, 20, 10, 20]);
        assert_eq!(t.self_ns().iter().sum::<u64>(), 100);
        assert_eq!(t.busy("b"), (20e-9, 5));
    }

    #[test]
    fn children_on_other_threads_do_not_reduce_self_time() {
        let mut main = Trace::new();
        let root = main.begin("root");
        let worker = std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = main.fork();
                w.span("work", || ());
                w
            })
            .join()
            .expect("worker")
        });
        main.join(worker, Some(root));
        main.end(root);
        let spans = main.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_ne!(spans[1].thread, spans[0].thread);
        assert_eq!(main.self_ns()[0], spans[0].busy_ns);
    }

    #[test]
    fn coverage_is_self_time_over_thread_wall() {
        let t = sample();
        // The aggregated span's start/end are real clock values far from
        // the hand-set ones; drop it so the wall is the root's [0,100].
        let mut t2 = Trace::new();
        t2.spans = t.spans[..3].to_vec();
        t2.spans.iter_mut().for_each(|s| s.thread = 0);
        assert!((t2.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(Trace::new().coverage(), 1.0);
    }

    #[test]
    fn json_lists_every_span_with_parent_and_self_time() {
        let json = sample().to_json("w", 7);
        let value = serde_json::parse(&json).expect("valid JSON");
        let spans = value.get("spans").and_then(|s| s.as_seq()).expect("spans");
        assert_eq!(spans.len(), 4);
        assert!(spans[0].get("parent").expect("parent").is_null());
        assert_eq!(spans[2].get("parent").and_then(|p| p.as_u64()), Some(1));
        assert_eq!(spans[0].get("self_ns").and_then(|p| p.as_u64()), Some(50));
    }
}
