//! Spans the benchmark records around its own calls into each layer of
//! the program, and the per-layer self-time rollup computed from them.
//!
//! A span is named `<layer>.<operation>`; the layer is the part before
//! the first dot. Spans named `bench.*` group the benchmark's own phases
//! (a cold campaign phase, a serve pass, one bring-up) and are the roots
//! the rollup is taken over. Spans are kept in memory and written once,
//! when the run ends.
//!
//! Some calls run several layers inside the program (a whole campaign is
//! one `session.run_campaign_on` call). Such a span carries a *split*:
//! the shares of its self time that the program's own phase counters
//! attribute to the inner layers. The rollup hands each share to its
//! layer and the rest to the span's own layer.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The program's layers, named after its modules.
pub const LAYERS: [&str; 10] = [
    "netlist",
    "timing",
    "atpg",
    "observe",
    "dictionary",
    "cache",
    "store",
    "rank",
    "session",
    "serve",
];

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    pub id: usize,
    pub name: String,
    pub parent: Option<usize>,
    /// Spans of one request share this id (0 outside requests).
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `(layer, share)` pairs; the shares sum to at most 1.
    pub split: Vec<(String, f64)>,
}

impl Span {
    /// The layer this span's own time belongs to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans from any thread. A disabled tracer runs the wrapped
/// closures and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    overhead_ns: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            overhead_ns: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` under `parent`. `f` receives
    /// the new span's id (`None` when tracing is off), to parent the
    /// spans it opens.
    pub fn span<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let opened = Instant::now();
        let id = {
            let mut spans = self.spans.lock().expect("span list lock");
            let id = spans.len();
            spans.push(Span {
                id,
                name: name.to_owned(),
                parent,
                request,
                start_ns: self.nanos_since_origin(opened),
                end_ns: 0,
                split: Vec::new(),
            });
            id
        };
        self.add_overhead(opened.elapsed());
        let result = f(Some(id));
        let closed = Instant::now();
        self.spans.lock().expect("span list lock")[id].end_ns = self.nanos_since_origin(closed);
        self.add_overhead(closed.elapsed());
        result
    }

    /// Attaches a counter-derived split to a recorded span.
    pub fn set_split(&self, id: Option<usize>, split: Vec<(String, f64)>) {
        if let Some(id) = id {
            self.spans.lock().expect("span list lock")[id].split = split;
        }
    }

    /// Books time the benchmark spent only because tracing is on (span
    /// bookkeeping, counter snapshots).
    pub fn add_overhead(&self, d: Duration) {
        self.overhead_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Wall time a traced run spends beyond an untraced one.
    pub fn overhead(&self) -> Duration {
        Duration::from_nanos(self.overhead_ns.load(Ordering::Relaxed))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    fn nanos_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }
}

/// Self time per layer, summed over the subtrees rooted at spans named
/// `root`. A span's self time is its duration minus the part of it that
/// its children cover (children on different threads may overlap).
pub fn self_times(spans: &[Span], root: &str) -> BTreeMap<String, u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push(s.id);
        }
    }
    let mut out = BTreeMap::new();
    let mut stack: Vec<usize> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.id)
        .collect();
    while let Some(id) = stack.pop() {
        let span = &spans[id];
        let covered = covered_nanos(span, children[id].iter().map(|&c| &spans[c]));
        let own = span.duration().saturating_sub(covered);
        let mut left = own as f64;
        for (layer, share) in &span.split {
            let part = own as f64 * share;
            *out.entry(layer.clone()).or_insert(0) += part.round() as u64;
            left -= part;
        }
        *out.entry(span.layer().to_owned()).or_insert(0) += left.max(0.0).round() as u64;
        stack.extend(&children[id]);
    }
    out
}

/// The layer of the program (not the benchmark's own `bench` spans) with
/// the largest self time, with its share of the program's self time.
pub fn dominant(self_times: &BTreeMap<String, u64>) -> Option<(String, f64)> {
    let program: Vec<(&String, &u64)> = self_times
        .iter()
        .filter(|(layer, _)| layer.as_str() != "bench")
        .collect();
    let total: u64 = program.iter().map(|(_, &n)| n).sum();
    program
        .into_iter()
        .max_by_key(|(_, &n)| n)
        .filter(|_| total > 0)
        .map(|(layer, &n)| (layer.clone(), n as f64 / total as f64))
}

/// Length of the union of the children's intervals, clipped to `span`.
fn covered_nanos<'a>(span: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, name: &str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            id,
            name: name.into(),
            parent,
            request: 0,
            start_ns: start,
            end_ns: end,
            split: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(0, "bench.pass", None, 0, 100),
            span(1, "serve.round_trip", Some(0), 10, 40),
            span(2, "serve.round_trip", Some(0), 30, 60),
            span(3, "netlist.build", Some(1), 15, 20),
        ];
        let st = self_times(&spans, "bench.pass");
        assert_eq!(st["bench"], 100 - 50);
        assert_eq!(st["serve"], (30 - 5) + 30);
        assert_eq!(st["netlist"], 5);
        let total: u64 = st.values().sum();
        assert_eq!(
            total,
            100 + 10,
            "parallel children each keep their 10 ns overlap"
        );
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(0, "bench.x", None, 10, 20),
            span(1, "timing.clk", Some(0), 5, 15),
        ];
        let st = self_times(&spans, "bench.x");
        assert_eq!(st["bench"], 5);
        assert_eq!(st["timing"], 10);
    }

    #[test]
    fn split_hands_shares_to_inner_layers() {
        let mut run = span(1, "session.run_campaign_on", Some(0), 0, 1000);
        run.split = vec![("atpg".into(), 0.75), ("dictionary".into(), 0.125)];
        let spans = vec![span(0, "bench.cold_phase", None, 0, 1000), run];
        let st = self_times(&spans, "bench.cold_phase");
        assert_eq!(st["atpg"], 750);
        assert_eq!(st["dictionary"], 125);
        assert_eq!(st["session"], 125);
        assert_eq!(st["bench"], 0);
        assert_eq!(dominant(&st), Some(("atpg".into(), 0.75)));
    }

    #[test]
    fn only_subtrees_of_the_named_root_count() {
        let spans = vec![
            span(0, "bench.setup", None, 0, 50),
            span(1, "netlist.build", Some(0), 0, 50),
            span(2, "bench.bringup", None, 50, 60),
            span(3, "timing.clk", Some(2), 50, 60),
        ];
        let st = self_times(&spans, "bench.bringup");
        assert_eq!(st.get("netlist"), None);
        assert_eq!(st["timing"], 10);
    }

    #[test]
    fn tracer_records_nesting_and_parents() {
        let tracer = Tracer::new(true);
        let value = tracer.span("bench.outer", None, 0, |outer| {
            tracer.span("netlist.build", outer, 7, |inner| {
                assert!(inner.is_some());
                42
            })
        });
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 7);
        assert_eq!(spans[1].layer(), "netlist");
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        tracer.span("bench.outer", None, 0, |id| assert_eq!(id, None));
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.overhead(), Duration::ZERO);
    }
}
