//! The benchmark's own spans. Each span names the layer whose public
//! function it timed, with a start, an end, its parent span, and the id of
//! the request or add it belongs to. Spans stay in memory and are written
//! out when the run ends; nothing here runs in an untraced run.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its children cover (the union of the children's intervals,
//! clipped to the parent), so overlapping children — parallel shard
//! scans — are not counted twice and self time is never negative.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u32,
    /// The span that caused this one; `None` for an end-to-end root.
    pub parent: Option<u32>,
    /// The request, add, or restart this span belongs to.
    pub group: u64,
    /// The layer, e.g. `index.base_scan`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin (`>= start`).
    pub end: u64,
    /// A work count measured at the same boundary (postings, distance
    /// evaluations, bytes); 0 when the layer has none.
    pub count: u64,
}

impl Span {
    /// The span's wall time in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// An in-memory span recorder, shared by the threads of one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// An id for a span that will be recorded later (with
    /// [`Tracer::record_as`]) but must parent spans recorded before it.
    pub fn reserve_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span from `start` to `end`; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> u32 {
        self.record_as(self.reserve_id(), name, group, parent, start, end, count)
    }

    /// [`Tracer::record`] under an id from [`Tracer::reserve_id`].
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &self,
        id: u32,
        name: &'static str,
        group: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
        count: u64,
    ) -> u32 {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.lock().expect("span lock poisoned").push(Span {
            id,
            parent,
            group,
            name,
            start,
            end: end.max(start),
            count,
        });
        id
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(
        &self,
        name: &'static str,
        group: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let out = f();
        self.record(name, group, parent, t0, Instant::now(), 0);
        out
    }

    /// A mark for [`Tracer::graft`] and [`Tracer::adopt`]: the number of
    /// spans recorded so far.
    pub fn mark(&self) -> usize {
        self.spans.lock().expect("span lock poisoned").len()
    }

    /// Moves the spans recorded since `mark` — an in-process replay of one
    /// request or add — under `parent`: the replay's roots become children
    /// of `parent`, every span joins `parent`'s group, and the replay's
    /// timeline is shifted so that it starts where `parent` starts.
    pub fn graft(&self, mark: usize, parent: u32) {
        let mut spans = self.spans.lock().expect("span lock poisoned");
        let Some(p) = spans.iter().rev().find(|s| s.id == parent).cloned() else {
            return;
        };
        let Some(replay_start) = spans[mark..].iter().map(|s| s.start).min() else {
            return;
        };
        for s in &mut spans[mark..] {
            s.start = s.start - replay_start + p.start;
            s.end = s.end - replay_start + p.start;
            s.group = p.group;
            if s.parent.is_none() {
                s.parent = Some(parent);
            }
        }
    }

    /// Makes `parent` the parent of every root recorded since `mark`
    /// (other than `parent` itself), without moving any span in time: the
    /// spans timed the parent's own work as it ran.
    pub fn adopt(&self, mark: usize, parent: u32) {
        let mut spans = self.spans.lock().expect("span lock poisoned");
        let Some(group) = spans.iter().rev().find(|s| s.id == parent).map(|s| s.group) else {
            return;
        };
        for s in &mut spans[mark..] {
            if s.parent.is_none() && s.id != parent {
                s.parent = Some(parent);
                s.group = group;
            }
        }
    }

    /// All spans recorded, in recording order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"))
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Self time of every span: the part of its interval, clipped to its
/// ancestors' intervals, that none of its children covers. Never
/// negative, and a root's subtree sums exactly to the root's duration
/// even when a replayed child runs longer than the call it explains.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent_of = |i: usize| spans[i].parent.and_then(|p| index.get(&p).copied());
    // Effective interval: clipped to every ancestor, resolved parents
    // first (memoized; span trees are shallow).
    let mut eff: Vec<Option<(u64, u64)>> = vec![None; spans.len()];
    for i in 0..spans.len() {
        let mut chain = vec![i];
        while let Some(p) = parent_of(*chain.last().expect("non-empty")) {
            if eff[p].is_some() || chain.contains(&p) {
                chain.push(p);
                break;
            }
            chain.push(p);
        }
        for &j in chain.iter().rev() {
            if eff[j].is_some() {
                continue;
            }
            let (mut a, mut b) = (spans[j].start, spans[j].end);
            if let Some((pa, pb)) = parent_of(j).and_then(|p| eff[p]) {
                a = a.max(pa);
                b = b.min(pb);
            }
            eff[j] = Some((a, b.max(a)));
        }
    }
    let eff: Vec<(u64, u64)> = eff.into_iter().map(|e| e.expect("resolved")).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, &(a, b)) in eff.iter().enumerate() {
        if let Some(p) = parent_of(i) {
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    eff.iter()
        .zip(children.iter_mut())
        .map(|(&(a, b), kids)| (b - a) - union_len(kids))
        .collect()
}

/// Total length of the union of `intervals`.
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Layers whose self time is not timed but inferred: the call's span minus
/// the replayed parts grafted under it (`serve.handler` self is request
/// parsing and JSON encoding, `ingest.apply_publish` self is the delta
/// insert and epoch publish). A replay that explains nothing leaves the
/// whole call here, so [`Accounting::timed`] counts these as unexplained.
pub const INFERRED: [&str; 2] = ["serve.handler", "ingest.apply_publish"];

/// Per-layer totals over a run's spans.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Spans of this name.
    pub spans: u64,
    /// Summed wall time, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Every span's wall time, ns (for percentiles).
    pub durs: Vec<f64>,
    /// Every span's self time, ns.
    pub selfs: Vec<f64>,
}

/// What the layers explain of the end-to-end time.
#[derive(Debug, Default, Clone)]
pub struct Accounting {
    /// Summed wall time of the end-to-end root spans, ns.
    pub end_to_end_ns: u64,
    /// Root time that some layer's span covers, ns.
    pub layers_ns: u64,
    /// Root time no layer covers (the roots' own self time), ns.
    pub residue_ns: u64,
    /// The part of `layers_ns` that is self time of an [`INFERRED`] layer.
    pub inferred_ns: u64,
}

impl Accounting {
    /// The share of end-to-end time the layers account for.
    pub fn coverage(&self) -> f64 {
        if self.end_to_end_ns == 0 {
            0.0
        } else {
            self.layers_ns as f64 / self.end_to_end_ns as f64
        }
    }

    /// The share of end-to-end time that spans around a layer's own call
    /// account for: [`Accounting::coverage`] without the [`INFERRED`]
    /// layers' self time.
    pub fn timed(&self) -> f64 {
        if self.end_to_end_ns == 0 {
            0.0
        } else {
            (self.layers_ns - self.inferred_ns) as f64 / self.end_to_end_ns as f64
        }
    }
}

/// Aggregates `spans` by layer name and accounts root time: each root's
/// time is either covered by its descendants or residue (the root's own
/// self time), so the residue is never negative and the two sum to the
/// end-to-end time. Layer self times can sum to more than that where
/// siblings ran in parallel (shard scans).
pub fn summarize(spans: &[Span]) -> (HashMap<&'static str, Layer>, Accounting) {
    let selfs = self_times(spans);
    let ids: std::collections::HashSet<u32> = spans.iter().map(|s| s.id).collect();
    let mut layers: HashMap<&'static str, Layer> = HashMap::new();
    let mut acc = Accounting::default();
    for (s, &own) in spans.iter().zip(&selfs) {
        let l = layers.entry(s.name).or_default();
        l.spans += 1;
        l.total_ns += s.dur();
        l.self_ns += own;
        l.durs.push(s.dur() as f64);
        l.selfs.push(own as f64);
        if s.parent.is_none_or(|p| !ids.contains(&p)) {
            acc.end_to_end_ns += s.dur();
            acc.residue_ns += own;
        } else if INFERRED.contains(&s.name) {
            acc.inferred_ns += own;
        }
    }
    acc.layers_ns = acc.end_to_end_ns - acc.residue_ns;
    (layers, acc)
}

/// Writes spans as JSON lines (`name`, `id`, `parent`, `group`, `start_ns`,
/// `end_ns`, `count`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"group\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.name, s.id, s.group, s.start, s.end, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name,
            start,
            end,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            // Two overlapping (parallel) children cover 10..60 once.
            span(1, Some(0), "scan", 10, 50),
            span(2, Some(0), "scan", 20, 60),
            // A child running past its parent is clipped.
            span(3, Some(0), "merge", 90, 130),
            span(4, Some(1), "inner", 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 50 - 10, 30, 40, 10, 10]);
    }

    #[test]
    fn clipping_reaches_grandchildren() {
        // A replay (child 1 with its own child 2) longer than the call it
        // explains: the grandchild is clipped to the root too.
        let spans = vec![
            span(0, None, "handler", 0, 10),
            span(1, Some(0), "fanout", 0, 30),
            span(2, Some(1), "scan", 5, 25),
        ];
        assert_eq!(self_times(&spans), vec![0, 5, 5]);
        let (_, acc) = summarize(&spans);
        assert_eq!(acc.layers_ns + acc.residue_ns, acc.end_to_end_ns);
        assert_eq!(acc.coverage(), 1.0);
    }

    #[test]
    fn residue_is_never_negative_and_closes_the_sum() {
        // Children that over-cover their parent (a replay slower than the
        // call it explains) are clipped: residue bottoms out at zero.
        let spans = vec![
            span(0, None, "add", 0, 10),
            span(1, Some(0), "parse", 0, 8),
            span(2, Some(0), "annotate", 5, 40),
            span(3, None, "add", 100, 200),
            span(4, Some(3), "parse", 100, 150),
        ];
        let (layers, acc) = summarize(&spans);
        assert_eq!(acc.end_to_end_ns, 110);
        assert_eq!(acc.residue_ns, 50);
        assert_eq!(acc.layers_ns + acc.residue_ns, acc.end_to_end_ns);
        assert!((acc.coverage() - 60.0 / 110.0).abs() < 1e-12);
        assert_eq!(layers["parse"].spans, 2);
        assert_eq!(layers["annotate"].self_ns, 5, "clipped to its root");
        assert_eq!(layers["add"].self_ns, 50);
    }

    #[test]
    fn an_empty_replay_lowers_the_timed_share() {
        // Client-side stamps cover the whole request; the handler's share
        // is explained only as far as its replay reaches.
        let stamps = |replay: Option<(u64, u64)>| {
            let mut spans = vec![
                span(0, None, "request", 0, 100),
                span(1, Some(0), "pool.accept_wait", 0, 20),
                span(2, Some(0), "serve.handler", 20, 80),
                span(3, Some(0), "pool.response", 80, 100),
            ];
            if let Some((a, b)) = replay {
                spans.push(span(4, Some(2), "index.base_scan", a, b));
            }
            summarize(&spans).1
        };
        let empty = stamps(None);
        assert_eq!(empty.coverage(), 1.0);
        assert!((empty.timed() - 0.4).abs() < 1e-12);
        let replayed = stamps(Some((20, 70)));
        assert_eq!(replayed.coverage(), 1.0);
        assert!((replayed.timed() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn graft_moves_a_replay_under_its_call() {
        let tracer = Tracer::new();
        let t0 = Instant::now();
        let call = tracer.record(
            "handler",
            7,
            None,
            t0,
            t0 + std::time::Duration::from_micros(50),
            0,
        );
        let mark = tracer.mark();
        let later = t0 + std::time::Duration::from_millis(5);
        let r = tracer.record(
            "replay",
            0,
            None,
            later,
            later + std::time::Duration::from_micros(20),
            0,
        );
        tracer.record(
            "scan",
            0,
            Some(r),
            later,
            later + std::time::Duration::from_micros(10),
            3,
        );
        tracer.graft(mark, call);
        let spans = tracer.take();
        assert_eq!(spans[1].parent, Some(call));
        assert_eq!(spans[1].start, spans[0].start);
        assert_eq!(spans[2].parent, Some(r));
        assert!(spans.iter().all(|s| s.group == 7));
        let (_, acc) = summarize(&spans);
        assert_eq!(acc.end_to_end_ns, 50_000);
        assert_eq!(acc.residue_ns, 30_000);
    }
}
