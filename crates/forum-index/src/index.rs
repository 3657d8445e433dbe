//! The inverted index over retrieval *units* (whole posts or segments).
//!
//! Section 7's indexing step builds one full-text index per intention
//! cluster plus a doc-id lookup (Fig. 6). [`SegmentIndex`] is that index:
//! postings lists over interned terms, per-unit statistics for the
//! length-normalized weighting of Eqs. 7/8, and accumulator-based top-n
//! retrieval implementing the scoring loop of Algorithm 1.

use crate::weighting::{length_normalization, log_tf, log_tf_cached, probabilistic_idf};
use forum_text::{TermId, Vocabulary};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Identifier of a retrieval unit within one index (a whole post for the
/// FullText baseline; a segment for per-cluster indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(pub u32);

impl UnitId {
    /// The id as a usize, for indexing per-unit arrays.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// A per-document visibility predicate threaded into the Algorithm 1
/// owner scans (per-tenant board/category filtering): `filter(owner)`
/// returns whether the document may surface in results. Filtered owners
/// never consume a top-n slot and never enter the early-termination floor
/// tracker, so a filtered scan returns exactly the top-n *visible* owners
/// with scores bit-identical to an unfiltered scan of a collection that
/// never contained the hidden documents' competition for slots.
pub type DocFilter<'a> = &'a (dyn Fn(u32) -> bool + Sync);

/// One posting: a unit and the term's frequency in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The unit containing the term.
    pub unit: UnitId,
    /// Term frequency within the unit.
    pub tf: u32,
}

/// One term's postings list, the only copy the index holds, in impact
/// order (WAND/Fagin-style early termination, specialized to the paper's
/// Eq. 8 weights).
///
/// Postings are sorted by descending *score cap* — a round-up of the
/// exact Eq. 8/9 contribution `w(t, unit) · idf(t)` for a unit query
/// frequency of 1 — and by ascending unit on equal caps. `caps[k]` is the
/// cap of `postings[k]`, so it bounds every posting at position ≥ `k`;
/// `ub == caps[0]` bounds the whole list. The order is fixed when the
/// index is built: a stored index is written in it and loading only
/// checks it (see [`SegmentIndex::from_parts`]).
///
/// Caps are *bounds*, not scores: scoring always recomputes the exact f64
/// contribution from the posting itself, so the walk order never changes
/// any floating-point result (each unit still receives exactly one add
/// per term, and terms stay in query order).
#[derive(Debug, Clone)]
struct TermImpacts {
    /// The term's postings in (cap desc, unit asc) order.
    postings: Vec<Posting>,
    /// `caps[k]` = upper bound on the contribution of `postings[k]`.
    caps: Vec<f32>,
    /// The largest cap (0 for an empty list).
    ub: f64,
}

/// The order in which [`SegmentIndex::from_parts`] receives postings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PostingOrder {
    /// Ascending unit id: the builder, the v1 `SIDX` stream and flat
    /// version 1. Each list is sorted into impact order once.
    Unit,
    /// Impact order, as flat version 2 stores it. Each list is checked,
    /// never sorted.
    Impact,
}

/// Multiplier applied to upper bounds before comparing against the top-n
/// floor. Caps are rounded *up* to f32, but the bound arithmetic
/// (`qf · cap + suffix`) itself rounds in f64; a relative slack of 1e-9
/// dwarfs the ~2⁻⁵² per-op error for any realistic query length, so a
/// posting is only ever skipped when its exact score provably cannot reach
/// the floor.
pub(crate) const BOUND_SLACK: f64 = 1.0 + 1e-9;

/// Granularity of the impact-ordered phase-1 bound test. One floor
/// comparison per block keeps the inner scoring loop branch-light; the
/// price is scoring (never skipping — scoring is always exact) at most
/// `IMPACT_BLOCK - 1` postings per term that a per-posting test would
/// have pruned.
const IMPACT_BLOCK: usize = 64;

/// Rounds an exact non-negative f64 up to the nearest f32, so the f32 cap
/// is always ≥ the f64 value it summarizes.
fn round_up_f32(x: f64) -> f32 {
    let c = x as f32;
    if f64::from(c) < x {
        c.next_up()
    } else {
        c
    }
}

/// The score cap of posting `p` in a list whose IDF is `idf`: the
/// round-up of its exact Eq. 8/9 contribution, 0 when it cannot score.
/// `unit_denoms` rejects NaN, so every cap is a number.
#[inline]
fn cap_of(denoms: &[f64], idf: f64, p: Posting) -> f32 {
    match eq8_weight(denoms, p.unit.0, p.tf) {
        Some(w) if idf > 0.0 => round_up_f32(w * idf),
        _ => 0.0,
    }
}

/// Whether a posting with cap `cap` on unit `unit` may follow one with
/// `(prev_cap, prev_unit)` in impact order: caps descend, and units
/// ascend on equal caps. A unit that repeats with a different cap passes
/// this test; [`SegmentIndex::audit`] looks for those.
#[inline]
fn follows_in_impact_order(prev_cap: f32, prev_unit: u32, cap: f32, unit: u32) -> bool {
    cap < prev_cap || (cap == prev_cap && unit > prev_unit)
}

/// Turns term `t`'s postings into its impact-ordered list, given the
/// per-unit Eq. 7/8 denominators (see [`unit_denoms`]). A list in
/// [`PostingOrder::Unit`] is sorted by (cap desc, unit asc); a list in
/// [`PostingOrder::Impact`] must already be strictly in that order and
/// is refused otherwise. Either way every unit must be in range.
fn impact_list(
    t: usize,
    mut postings: Vec<Posting>,
    denoms: &[f64],
    order: PostingOrder,
) -> Result<TermImpacts, crate::codec::DecodeError> {
    use crate::codec::DecodeError;
    let idf = probabilistic_idf(denoms.len(), postings.len());
    let mut caps: Vec<f32> = Vec::with_capacity(postings.len());
    for (k, p) in postings.iter().enumerate() {
        if p.unit.as_usize() >= denoms.len() {
            return Err(DecodeError::in_term("posting references unknown unit", t));
        }
        let cap = cap_of(denoms, idf, *p);
        if order == PostingOrder::Impact
            && k > 0
            && !follows_in_impact_order(caps[k - 1], postings[k - 1].unit.0, cap, p.unit.0)
        {
            return Err(DecodeError::in_term(
                "postings out of (cap desc, unit asc) order",
                t,
            ));
        }
        caps.push(cap);
    }
    if order == PostingOrder::Unit {
        let mut order: Vec<u32> = (0..postings.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            caps[b]
                .partial_cmp(&caps[a])
                .expect("caps are not NaN")
                .then(postings[a].unit.cmp(&postings[b].unit))
        });
        postings = order.iter().map(|&k| postings[k as usize]).collect();
        caps = order.iter().map(|&k| caps[k as usize]).collect();
    }
    let ub = caps.first().map_or(0.0, |&c| f64::from(c));
    Ok(TermImpacts { postings, caps, ub })
}

/// The Eq. 7/8 weight `(log tf + 1) / denom[unit]` of a posting with
/// frequency `tf`, or `None` when the unit's denominator is not positive
/// (the unit can never score). Every scoring path of the paper scheme —
/// the exhaustive walk, both phases of the pruned walk, [`SegmentIndex::score_owner`],
/// [`SegmentIndex::weight`] and the impact caps — goes through here, so
/// the expression exists once. It is bit-identical to computing
/// `log_tf(tf) / (log_tf_sum · NU)` from the raw [`UnitStats`], which is
/// what the oracles ([`SegmentIndex::top_n_reference`], [`SegmentIndex::audit`])
/// still do.
#[inline]
fn eq8_weight(denoms: &[f64], unit: u32, tf: u32) -> Option<f64> {
    let denom = denoms[unit as usize];
    if denom <= 0.0 {
        return None;
    }
    Some(log_tf_cached(tf) / denom)
}

/// Computes each unit's Eq. 7/8 denominator `log_tf_sum · NU(unique_terms,
/// avg_unique)` with the same expression, in the same order, as scoring
/// from the raw statistics. Statistics come from untrusted store bytes on
/// the decode paths, so a non-finite `avg_unique` or `log_tf_sum`, or a
/// denominator that is NaN, is refused here: a NaN would otherwise
/// surface as a panic in the first query that scores the unit. The error's
/// location is the offending unit (`units.len()` for
/// `avg_unique`).
fn unit_denoms(
    units: &[UnitStats],
    avg_unique: f64,
) -> Result<Vec<f64>, crate::codec::DecodeError> {
    use crate::codec::DecodeError;
    if !avg_unique.is_finite() {
        return Err(DecodeError::in_unit(
            "non-finite average unique-term count",
            units.len(),
        ));
    }
    units
        .iter()
        .enumerate()
        .map(|(u, stats)| {
            let denom =
                stats.log_tf_sum * length_normalization(stats.unique_terms as usize, avg_unique);
            if stats.log_tf_sum.is_finite() && !denom.is_nan() {
                Ok(denom)
            } else {
                Err(DecodeError::in_unit("non-finite unit log-tf sum", u))
            }
        })
        .collect()
}

/// Tracks a *lower bound* on the `n`-th best final score among distinct
/// keys (an index's owner slots) while a scan accumulates. Because every
/// Eq. 8/9 contribution is strictly positive, each key's accumulated score
/// only grows, so the minimum over any `n` distinct keys' current scores
/// is a valid floor: a candidate whose upper bound falls strictly below it
/// can never enter the final top-n.
///
/// Implementation: a key → best-offered-score map capped at `n` entries
/// plus a lazily-invalidated min-heap over its (score, key) states. The
/// floor stays `-∞` until `n` distinct keys have been offered, so scans
/// over corpora with fewer than `n` candidates never prune at all.
///
/// Owner slots are dense, so the map is a pair of generation-marked
/// arrays indexed by slot, not a hash map: an offer costs two array loads.
/// The tracker lives in [`ScoreScratch`] and is [`reset`](Self::reset) per
/// scan, so its arrays and heap are reused.
#[derive(Debug, Default)]
struct FloorTracker {
    n: usize,
    /// Tracked keys' best offered scores (valid where `mark == epoch`).
    best: Vec<f64>,
    /// Generation mark per key; an evicted key's mark is cleared to 0.
    mark: Vec<u64>,
    /// Current generation (starts at 1 after the first reset).
    epoch: u64,
    /// Number of tracked keys.
    len: usize,
    heap: BinaryHeap<Reverse<Candidate>>,
    floor: f64,
}

impl FloorTracker {
    /// Starts tracking the `n` best of keys `0..num_keys`.
    fn reset(&mut self, n: usize, num_keys: usize) {
        self.n = n;
        self.epoch += 1;
        self.len = 0;
        self.heap.clear();
        self.floor = f64::NEG_INFINITY;
        if self.best.len() < num_keys {
            self.best.resize(num_keys, 0.0);
            self.mark.resize(num_keys, 0);
        }
    }

    /// The current floor (`-∞` until `n` distinct keys are tracked).
    #[inline]
    fn floor(&self) -> f64 {
        self.floor
    }

    /// Whether `key` is tracked with exactly `score`.
    #[inline]
    fn holds(&self, key: u32, score: f64) -> bool {
        let k = key as usize;
        self.mark[k] == self.epoch && self.best[k] == score
    }

    /// Pops heap entries that no longer reflect the map (superseded scores
    /// or evicted keys), leaving the true minimum on top.
    fn drop_stale(&mut self) {
        while let Some(Reverse(top)) = self.heap.peek() {
            if self.holds(top.key, top.score) {
                break;
            }
            self.heap.pop();
        }
    }

    /// Offers a key's new accumulated score. Skipping an offer is always
    /// conservative (the floor just stays lower), so callers may gate on
    /// `score > floor()` first.
    ///
    /// Kept out of line: the scan loop calls it only past that gate, and
    /// inlining it would make the per-posting gate a function call.
    #[inline(never)]
    fn offer(&mut self, key: u32, score: f64) {
        if score <= self.floor {
            return;
        }
        let k = key as usize;
        if self.mark[k] == self.epoch {
            if score <= self.best[k] {
                return;
            }
        } else if self.len < self.n {
            self.mark[k] = self.epoch;
            self.len += 1;
        } else {
            // Full and strictly above the floor: evict the current minimum.
            self.drop_stale();
            let Some(Reverse(min)) = self.heap.pop() else {
                return;
            };
            self.mark[min.key as usize] = 0;
            self.mark[k] = self.epoch;
        }
        self.best[k] = score;
        self.heap.push(Reverse(Candidate { score, key }));
        if self.len == self.n {
            self.drop_stale();
            self.floor = self
                .heap
                .peek()
                .map_or(f64::NEG_INFINITY, |Reverse(e)| e.score);
        }
    }
}

/// Which owners a scan may return: not the query's own owner, no
/// tombstoned (deleted or superseded) owner, and only owners the
/// visibility filter admits. The pruned scan checks it before offering an
/// owner to the floor tracker and the owner fold checks it before a unit
/// counts, so an invisible owner never takes a result slot and never
/// raises the floor. One owner's score never depends on another's, so the
/// scan returns exactly the top-n visible owners, with the scores a scan
/// of all owners would give them.
#[derive(Clone, Copy)]
struct Visibility<'a> {
    exclude: Option<u32>,
    /// `None` when there are no tombstones, so the common case pays no
    /// hash lookup.
    tombstones: Option<&'a HashSet<u32>>,
    filter: Option<DocFilter<'a>>,
}

impl Visibility<'_> {
    #[inline]
    fn admits(&self, owner: u32) -> bool {
        self.exclude != Some(owner)
            && self.tombstones.is_none_or(|t| !t.contains(&owner))
            && self.filter.is_none_or(|f| f(owner))
    }
}

/// Which scoring formula a scan applies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WeightingScheme {
    /// The paper's scheme: Eq. 7/8 term weights × Eq. 9 probabilistic IDF.
    #[default]
    PaperTfIdf,
    /// Okapi BM25 (Robertson et al.), the classical alternative the paper
    /// positions its scheme against.
    Bm25 {
        /// Term-frequency saturation (typical 1.2).
        k1: f64,
        /// Length-normalization strength (typical 0.75).
        b: f64,
    },
}

impl WeightingScheme {
    /// BM25 with the customary parameters.
    pub fn bm25() -> Self {
        WeightingScheme::Bm25 { k1: 1.2, b: 0.75 }
    }
}

/// Per-scan work counters, accumulated while scoring so a request trace
/// can attribute latency to actual work. Counting is out-of-band — plain
/// integer adds next to already-executing branches — so it never changes
/// the order of any floating-point operation: rankings are bit-identical
/// with or without a consumer reading the counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScanCosts {
    /// Postings walked by Eq. 8/9 scoring (base postings lists plus delta
    /// term lookups).
    pub postings_scanned: u64,
    /// Work skipped before scoring finished: whole zero-IDF posting lists,
    /// zero-denominator units, excluded or tombstoned owners.
    pub candidates_pruned: u64,
    /// Bounded-heap evictions during top-n selection.
    pub heap_displacements: u64,
    /// Postings skipped by impact-ordered early termination: the term's
    /// remaining upper bound proved they could not displace the current
    /// top-n floor, so they were never scored.
    pub early_exits: u64,
}

impl ScanCosts {
    /// Adds `other`'s counters into `self`.
    pub fn merge(&mut self, other: &ScanCosts) {
        self.postings_scanned += other.postings_scanned;
        self.candidates_pruned += other.candidates_pruned;
        self.heap_displacements += other.heap_displacements;
        self.early_exits += other.early_exits;
    }

    /// Returns the accumulated counters and resets them to zero.
    pub fn take(&mut self) -> ScanCosts {
        std::mem::take(self)
    }
}

/// Reusable scoring scratch: dense per-unit accumulators, dense per-owner
/// maxima and the early-termination floor tracker, sized once and reused
/// query after query so the hot online path performs no postings-sized
/// allocations and no hashing.
///
/// The dense arrays are epoch-marked: `begin` bumps a generation counter
/// instead of zeroing, so resetting between queries is O(touched units),
/// not O(index units). Per-owner arrays are indexed by the scanned index's
/// owner *slot* (`0..distinct owners`), never by a raw owner id, so their
/// length follows the largest owner count scanned. One scratch per worker
/// thread; it never needs to cross threads.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// Per-unit accumulated scores (valid only where `mark == epoch`).
    scores: Vec<f64>,
    /// Generation mark per unit.
    mark: Vec<u64>,
    /// Current generation.
    epoch: u64,
    /// Units with accumulated score this query, in first-touch order.
    touched: Vec<u32>,
    /// Per-owner-slot best unit score (valid only where
    /// `owner_mark == epoch`), filled by [`Self::top_owners`].
    owner_best: Vec<f64>,
    /// Generation mark per owner slot.
    owner_mark: Vec<u64>,
    /// Owner slots folded this query, in first-touch order.
    owners_touched: Vec<u32>,
    /// The pruned walk's floor tracker.
    tracker: FloorTracker,
    /// Work counters, accumulated across scans until [`ScanCosts::take`]n
    /// (a multi-cluster query sums its per-cluster scans here).
    pub costs: ScanCosts,
}

impl ScoreScratch {
    /// An empty scratch; it grows to the largest index it scores.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new query over an index of `num_units` units.
    fn begin(&mut self, num_units: usize) {
        self.epoch += 1;
        self.touched.clear();
        if self.scores.len() < num_units {
            self.scores.resize(num_units, 0.0);
            self.mark.resize(num_units, 0);
        }
    }

    /// Adds `x` to `unit`'s accumulator.
    #[inline]
    fn add(&mut self, unit: u32, x: f64) {
        self.add_returning(unit, x);
    }

    /// Adds `x` to `unit`'s accumulator and returns the new score.
    #[inline]
    fn add_returning(&mut self, unit: u32, x: f64) -> f64 {
        let u = unit as usize;
        if self.mark[u] != self.epoch {
            self.mark[u] = self.epoch;
            self.scores[u] = 0.0;
            self.touched.push(unit);
        }
        self.scores[u] += x;
        self.scores[u]
    }

    /// Whether `unit` has accumulated anything this query.
    #[inline]
    fn is_touched(&self, unit: u32) -> bool {
        self.mark[unit as usize] == self.epoch
    }

    /// `unit`'s accumulated score (valid only when [`Self::is_touched`]).
    #[inline]
    fn score_of(&self, unit: u32) -> f64 {
        self.scores[unit as usize]
    }

    /// Folds the accumulated unit scores of `index` into per-owner maxima,
    /// skipping units of any owner `visible` does not admit, then selects
    /// the `n` best owners.
    fn top_owners(
        &mut self,
        index: &SegmentIndex,
        n: usize,
        visible: &Visibility,
    ) -> Vec<(u32, f64)> {
        let slots = &index.owner_slots;
        self.owners_touched.clear();
        if self.owner_best.len() < slots.owner.len() {
            self.owner_best.resize(slots.owner.len(), 0.0);
            self.owner_mark.resize(slots.owner.len(), 0);
        }
        for &u in &self.touched {
            let s = self.scores[u as usize];
            if s <= 0.0 {
                continue;
            }
            let slot = slots.of_unit[u as usize];
            let owner = slots.owner[slot as usize];
            if !visible.admits(owner) {
                self.costs.candidates_pruned += 1;
                continue;
            }
            let k = slot as usize;
            if self.owner_mark[k] != self.epoch {
                self.owner_mark[k] = self.epoch;
                self.owner_best[k] = s;
                self.owners_touched.push(slot);
            } else if s > self.owner_best[k] {
                self.owner_best[k] = s;
            }
        }
        let best = &self.owner_best;
        select_top_n_counted(
            self.owners_touched
                .iter()
                .map(|&k| (slots.owner[k as usize], best[k as usize])),
            n,
            &mut self.costs.heap_displacements,
        )
    }
}

/// A `(key, score)` candidate ordered by goodness: higher score first, then
/// lower key — the tie-break every ranking in this workspace uses.
#[derive(Debug, PartialEq)]
struct Candidate {
    score: f64,
    key: u32,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .expect("scores are finite")
            .then(other.key.cmp(&self.key))
    }
}

/// Selects the `n` best `(key, score)` pairs — by score descending, key
/// ascending on ties — with a bounded min-heap: O(c log n) instead of the
/// O(c log c) full sort, and O(n) transient memory. The ordering is total,
/// so the result is independent of the iteration order of `candidates` and
/// bit-identical to sorting everything and truncating.
/// `displaced` additionally counts heap evictions (how contested the
/// result list was) for cost attribution; callers that don't care pass
/// `&mut 0`. The counter is a plain integer add on a branch that already
/// executes, so it never affects the selection.
fn select_top_n_counted(
    candidates: impl Iterator<Item = (u32, f64)>,
    n: usize,
    displaced: &mut u64,
) -> Vec<(u32, f64)> {
    if n == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Reverse<Candidate>> = BinaryHeap::with_capacity(n.min(4096));
    for (key, score) in candidates {
        let cand = Candidate { score, key };
        if heap.len() < n {
            heap.push(Reverse(cand));
        } else if let Some(worst) = heap.peek() {
            if cand > worst.0 {
                *displaced += 1;
                heap.pop();
                heap.push(Reverse(cand));
            }
        }
    }
    // Ascending `Reverse<Candidate>` = descending goodness: best first.
    heap.into_sorted_vec()
        .into_iter()
        .map(|Reverse(c)| (c.key, c.score))
        .collect()
}

/// Findings of [`SegmentIndex::audit`]: distribution facts plus any
/// integrity failures (an empty `problems` list means healthy).
#[derive(Debug, Clone, Default)]
pub struct IndexAudit {
    /// Indexed units.
    pub units: usize,
    /// Distinct owners (documents) across the units.
    pub owners: usize,
    /// Vocabulary size.
    pub vocabulary: usize,
    /// Total postings across all lists.
    pub postings_total: usize,
    /// Longest postings list.
    pub postings_max: usize,
    /// Median postings-list length.
    pub postings_p50: usize,
    /// 99th-percentile postings-list length.
    pub postings_p99: usize,
    /// Human-readable integrity failures, empty when healthy.
    pub problems: Vec<String>,
}

/// Per-unit statistics needed by the weighting schemes.
///
/// Crate-visible so the flat store-v2 section codec ([`crate::flat`]) can
/// encode and rebuild the exact same records the heap decode path uses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UnitStats {
    /// The external owner (document id) of this unit.
    pub(crate) owner: u32,
    /// Number of unique terms.
    pub(crate) unique_terms: u32,
    /// Total number of term occurrences (BM25's unit length).
    pub(crate) total_terms: u32,
    /// `Σ_t (log tf(t) + 1)` — the weight denominator of Eqs. 7/8.
    pub(crate) log_tf_sum: f64,
}

/// Interns `terms` and appends one posting per distinct term for `unit`,
/// returning the unit's `(unique_terms, log_tf_sum)`. Frequencies are
/// counted in a `Vec` sorted by term id and `log_tf_sum` is summed in that
/// order, so the sum's bits depend only on the terms — not on their input
/// order or on any hash state — and two builds of one corpus are
/// byte-identical.
fn push_unit_postings(
    vocab: &mut Vocabulary,
    postings: &mut Vec<Vec<Posting>>,
    unit: UnitId,
    terms: &[String],
) -> (u32, f64) {
    let mut ids: Vec<TermId> = terms.iter().map(|t| vocab.intern(t)).collect();
    ids.sort_unstable();
    let mut freqs: Vec<(TermId, u32)> = Vec::with_capacity(ids.len());
    for id in ids {
        match freqs.last_mut() {
            Some((last, tf)) if *last == id => *tf += 1,
            _ => freqs.push((id, 1)),
        }
    }
    let mut log_tf_sum = 0.0;
    for &(term, tf) in &freqs {
        log_tf_sum += log_tf(tf);
        let idx = term.as_usize();
        if idx >= postings.len() {
            postings.resize_with(idx + 1, Vec::new);
        }
        postings[idx].push(Posting { unit, tf });
    }
    (freqs.len() as u32, log_tf_sum)
}

/// Builds a [`SegmentIndex`] incrementally.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    vocab: Vocabulary,
    postings: Vec<Vec<Posting>>,
    units: Vec<UnitStats>,
}

impl IndexBuilder {
    /// Creates an empty builder with its own vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a unit with the given (already normalized) terms, owned by
    /// external document `owner`. Returns the unit's id.
    pub fn add_unit(&mut self, owner: u32, terms: &[String]) -> UnitId {
        let unit = UnitId(u32::try_from(self.units.len()).expect("too many units"));
        let (unique_terms, log_tf_sum) =
            push_unit_postings(&mut self.vocab, &mut self.postings, unit, terms);
        self.units.push(UnitStats {
            owner,
            unique_terms,
            total_terms: terms.len() as u32,
            log_tf_sum,
        });
        unit
    }

    /// Finalizes the index.
    pub fn build(self) -> SegmentIndex {
        let avg_unique = if self.units.is_empty() {
            0.0
        } else {
            self.units
                .iter()
                .map(|u| f64::from(u.unique_terms))
                .sum::<f64>()
                / self.units.len() as f64
        };
        SegmentIndex::from_parts(
            self.vocab,
            self.postings,
            self.units,
            avg_unique,
            PostingOrder::Unit,
        )
        .expect("built unit statistics are finite")
    }
}

/// An immutable full-text index over retrieval units.
///
/// ```
/// use forum_index::{IndexBuilder, ScoreScratch, SegmentIndex, WeightingScheme};
/// use std::collections::HashSet;
/// let mut builder = IndexBuilder::new();
/// builder.add_unit(0, &["raid".into(), "disk".into()]);
/// builder.add_unit(1, &["printer".into(), "ink".into()]);
/// builder.add_unit(2, &["disk".into(), "boot".into()]);
/// let index = builder.build();
/// let query = SegmentIndex::query_from_terms(&["raid".into()]);
/// let hits = index.top_owners_excluding_filtered(
///     &query,
///     5,
///     WeightingScheme::PaperTfIdf,
///     None,
///     &HashSet::new(),
///     None,
///     &mut ScoreScratch::new(),
/// );
/// assert_eq!(hits[0].0, 0);
/// ```
#[derive(Debug)]
pub struct SegmentIndex {
    pub(crate) vocab: Vocabulary,
    pub(crate) units: Vec<UnitStats>,
    pub(crate) avg_unique: f64,
    /// BM25's average unit length (mean `total_terms`; 0 for an empty
    /// index), derived from `units`.
    avg_len: f64,
    /// Per-unit Eq. 7/8 denominators `log_tf_sum · NU` (see
    /// [`unit_denoms`]), derived from `units` and `avg_unique`.
    denoms: Vec<f64>,
    /// One impact-ordered postings list per term id.
    impacts: Vec<TermImpacts>,
    /// Dense owner numbering plus the owner → units map.
    owner_slots: OwnerSlots,
}

/// A dense numbering of an index's distinct owners, in first-appearance
/// order over the units. Owner ids come from the store and may be any
/// `u32`; per-owner scratch arrays are indexed by slot instead, so they
/// stay as long as the owner count.
#[derive(Debug, Default)]
struct OwnerSlots {
    /// The owner slot of each unit.
    of_unit: Vec<u32>,
    /// The owner id of each slot.
    owner: Vec<u32>,
    /// Owner id → slot, for exact random-access scoring
    /// ([`SegmentIndex::score_owner`]).
    slot_of: HashMap<u32, u32>,
    /// Slot `k`'s units are `units[start[k]..start[k + 1]]`, ascending
    /// (`start` has one entry per slot plus one).
    start: Vec<u32>,
    /// Every unit id, grouped by owner slot.
    units: Vec<u32>,
}

impl OwnerSlots {
    fn build(units: &[UnitStats]) -> Self {
        let mut slots = OwnerSlots {
            of_unit: Vec::with_capacity(units.len()),
            slot_of: HashMap::with_capacity(units.len()),
            ..OwnerSlots::default()
        };
        for stats in units {
            let next = slots.owner.len() as u32;
            let slot = *slots.slot_of.entry(stats.owner).or_insert(next);
            if slot == next {
                slots.owner.push(stats.owner);
            }
            slots.of_unit.push(slot);
        }
        // Counting sort of the units by slot: counts, then prefix sums,
        // then one ascending pass that drops each unit into place.
        slots.start = vec![0; slots.owner.len() + 1];
        for &k in &slots.of_unit {
            slots.start[k as usize + 1] += 1;
        }
        for k in 1..slots.start.len() {
            slots.start[k] += slots.start[k - 1];
        }
        let mut next = slots.start.clone();
        slots.units = vec![0; units.len()];
        for (u, &k) in slots.of_unit.iter().enumerate() {
            let at = &mut next[k as usize];
            slots.units[*at as usize] = u as u32;
            *at += 1;
        }
        slots
    }

    /// The units of `owner`, ascending; `None` for an owner with none.
    fn units_of(&self, owner: u32) -> Option<&[u32]> {
        let k = *self.slot_of.get(&owner)? as usize;
        Some(&self.units[self.start[k] as usize..self.start[k + 1] as usize])
    }
}

impl SegmentIndex {
    /// Number of indexed units (the paper's `|I|` for a cluster index).
    #[inline]
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// The owner (document id) of a unit.
    #[inline]
    pub fn owner(&self, unit: UnitId) -> u32 {
        self.units[unit.as_usize()].owner
    }

    /// Average number of unique terms per unit.
    #[inline]
    pub fn avg_unique_terms(&self) -> f64 {
        self.avg_unique
    }

    /// Total postings across all lists (the store's section metadata
    /// records this so header-only `stats` can report index sizes).
    pub fn num_postings(&self) -> usize {
        self.impacts.iter().map(|l| l.postings.len()).sum()
    }

    /// The index's vocabulary.
    #[inline]
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Number of units containing `term` (the paper's `|I^t|`).
    pub fn unit_frequency(&self, term: &str) -> usize {
        self.postings_of(term).len()
    }

    /// Term `id`'s postings in impact order (empty past the last list).
    pub(crate) fn postings(&self, id: TermId) -> &[Posting] {
        self.impacts.get(id.as_usize()).map_or(&[], |l| &l.postings)
    }

    /// The postings of term `term`, in impact order (empty when absent).
    fn postings_of(&self, term: &str) -> &[Posting] {
        self.vocab.get(term).map_or(&[], |id| self.postings(id))
    }

    /// The Eq. 7/8 weight of `term` in `unit`:
    /// `(log tf + 1) / (Σ_t' (log tf' + 1) · NU(unit))`.
    /// Zero when the term does not occur in the unit. A linear search of
    /// the term's impact-ordered list; no scan calls it.
    pub fn weight(&self, term: &str, unit: UnitId) -> f64 {
        self.postings_of(term)
            .iter()
            .find(|p| p.unit == unit)
            .and_then(|p| eq8_weight(&self.denoms, unit.0, p.tf))
            .unwrap_or(0.0)
    }

    /// The probabilistic IDF of `term` in this index (the Eq. 9 fraction).
    pub fn idf(&self, term: &str) -> f64 {
        probabilistic_idf(self.num_units(), self.unit_frequency(term))
    }

    /// Algorithm 1's owner scan: scores every unit against a query given
    /// as `(term, query frequency)` pairs, per Eq. 9
    /// `scr = Σ_t f_q(t) · w(t, unit) · idf(t)` (or BM25 under `scheme`),
    /// keeps each owner's best unit score, and returns the `n` best
    /// distinct owners by score descending, owner id ascending on ties.
    /// Owners scoring 0 are never returned.
    ///
    /// `exclude_owner` (the query's own document), every owner in
    /// `tombstones` (deleted or superseded documents) and every owner the
    /// visibility `filter` rejects are invisible: they never take a result
    /// slot and never count toward the early-termination floor, so the
    /// result is exactly the top `n` visible owners. Under the paper
    /// scheme the walk follows each term's impact order and stops once no
    /// unscored posting can reach the floor; every returned score is
    /// still bit-identical to [`Self::top_owners_exhaustive`].
    ///
    /// Per-owner aggregation is Algorithm 1's contract when one document
    /// holds several units in the same cluster index (e.g. under the
    /// `skip_refinement` ablation): a per-unit top-n could return one
    /// owner twice and come up short on distinct documents.
    #[allow(clippy::too_many_arguments)]
    pub fn top_owners_excluding_filtered(
        &self,
        query: &[(String, u32)],
        n: usize,
        scheme: WeightingScheme,
        exclude_owner: Option<u32>,
        tombstones: &HashSet<u32>,
        filter: Option<DocFilter>,
        scratch: &mut ScoreScratch,
    ) -> Vec<(u32, f64)> {
        let visible = Visibility {
            exclude: exclude_owner,
            tombstones: (!tombstones.is_empty()).then_some(tombstones),
            filter,
        };
        self.accumulate_scores(query, scheme, scratch, Some((n, &visible)));
        scratch.top_owners(self, n, &visible)
    }

    /// The owner scan forced down the exhaustive path: every posting of
    /// every query term is scored, and the owner fold applies the
    /// exclusion and the visibility filter. This is the oracle the pruned
    /// [`Self::top_owners_excluding_filtered`] is asserted bit-identical
    /// against.
    pub fn top_owners_exhaustive(
        &self,
        query: &[(String, u32)],
        n: usize,
        scheme: WeightingScheme,
        exclude_owner: Option<u32>,
        filter: Option<DocFilter>,
        scratch: &mut ScoreScratch,
    ) -> Vec<(u32, f64)> {
        self.accumulate_scores(query, scheme, scratch, None);
        let visible = Visibility {
            exclude: exclude_owner,
            tombstones: None,
            filter,
        };
        scratch.top_owners(self, n, &visible)
    }

    /// Random-access scoring for one owner: the exact per-owner score the
    /// full Algorithm 1 scan would assign — max over the owner's units of
    /// the Eq. 9 sum, computed term-by-term in query order so the result
    /// is bit-identical to the accumulator path. Returns `None` when no
    /// unit of the owner scores positively (such owners are never ranked).
    ///
    /// This gives Fagin's TA exact random access without materializing a
    /// full ranked list per intention. Each term's posting for a unit is
    /// found by a linear search of its impact-ordered list.
    pub fn score_owner(
        &self,
        query: &[(String, u32)],
        scheme: WeightingScheme,
        owner: u32,
    ) -> Option<f64> {
        let units = self.owner_slots.units_of(owner)?;
        let mut best: Option<f64> = None;
        for &u in units {
            let stats = &self.units[u as usize];
            let mut sum = 0.0f64;
            for (term, qf) in query {
                let plist = self.postings_of(term);
                let Some(p) = plist.iter().find(|p| p.unit.0 == u) else {
                    continue;
                };
                match scheme {
                    WeightingScheme::PaperTfIdf => {
                        let idf = probabilistic_idf(self.num_units(), plist.len());
                        if idf <= 0.0 {
                            continue;
                        }
                        let Some(w) = eq8_weight(&self.denoms, u, p.tf) else {
                            continue;
                        };
                        sum += f64::from(*qf) * w * idf;
                    }
                    WeightingScheme::Bm25 { k1, b } => {
                        let nq = plist.len() as f64;
                        let nn = self.num_units() as f64;
                        let idf = (((nn - nq + 0.5) / (nq + 0.5)) + 1.0).ln();
                        let tf = f64::from(p.tf);
                        let len_ratio = if self.avg_len > 0.0 {
                            f64::from(stats.total_terms) / self.avg_len
                        } else {
                            1.0
                        };
                        let w = (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * len_ratio));
                        sum += f64::from(*qf) * w * idf;
                    }
                }
            }
            if sum > 0.0 && best.is_none_or(|b| sum > b) {
                best = Some(sum);
            }
        }
        best
    }

    /// Scores every unit against the query into `scratch` (Eq. 9 or BM25),
    /// with optional impact-ordered early termination. When `prune` names
    /// the selection (`n` visible owners), the paper-scheme scan skips
    /// postings whose upper bound provably cannot displace the top-n
    /// floor; every score that is ever *returned* is still bit-identical
    /// to the exhaustive walk (each unit receives the same adds in the
    /// same order — skipped units are exactly those that cannot appear in
    /// the result).
    fn accumulate_scores(
        &self,
        query: &[(String, u32)],
        scheme: WeightingScheme,
        scratch: &mut ScoreScratch,
        prune: Option<(usize, &Visibility)>,
    ) {
        scratch.begin(self.units.len());
        // Early termination applies only to the paper scheme, for a
        // selection narrower than the index. A too-large `n` would never
        // fill the floor tracker (no pruning possible), so skip its
        // bookkeeping entirely.
        if let (WeightingScheme::PaperTfIdf, Some((n, visible))) = (scheme, prune) {
            if n > 0 && n < self.units.len() {
                self.accumulate_paper_pruned(query, n, visible, scratch);
                return;
            }
        }
        for (term, qf) in query {
            let plist = self.postings_of(term);
            match scheme {
                WeightingScheme::PaperTfIdf => {
                    let idf = probabilistic_idf(self.num_units(), plist.len());
                    if idf <= 0.0 {
                        // The whole list is skipped: a term in over half the
                        // units contributes nothing under the Eq. 9 IDF.
                        scratch.costs.candidates_pruned += plist.len() as u64;
                        continue;
                    }
                    scratch.costs.postings_scanned += plist.len() as u64;
                    for p in plist {
                        let Some(w) = eq8_weight(&self.denoms, p.unit.0, p.tf) else {
                            scratch.costs.candidates_pruned += 1;
                            continue;
                        };
                        scratch.add(p.unit.0, f64::from(*qf) * w * idf);
                    }
                }
                WeightingScheme::Bm25 { k1, b } => {
                    // Standard Okapi IDF with the +0.5 smoothing, floored at
                    // a small positive value.
                    let nq = plist.len() as f64;
                    let nn = self.num_units() as f64;
                    let idf = (((nn - nq + 0.5) / (nq + 0.5)) + 1.0).ln();
                    scratch.costs.postings_scanned += plist.len() as u64;
                    for p in plist {
                        let stats = &self.units[p.unit.as_usize()];
                        let tf = f64::from(p.tf);
                        let len_ratio = if self.avg_len > 0.0 {
                            f64::from(stats.total_terms) / self.avg_len
                        } else {
                            1.0
                        };
                        let w = (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * len_ratio));
                        scratch.add(p.unit.0, f64::from(*qf) * w * idf);
                    }
                }
            }
        }
    }

    /// The impact-ordered, early-terminating Eq. 8/9 scan (Algorithm 1's
    /// scoring loop with a WAND-style stopping rule).
    ///
    /// Terms stay in query order (so per-unit floating-point sums match
    /// the exhaustive walk bit for bit); only the walk *within* each
    /// term's list follows the impact order. For query position `i`,
    /// `rem[i+1]` bounds everything later terms can still add to any
    /// single unit; `qf · caps[k]` bounds everything this list holds at
    /// position ≥ `k`. Once their sum falls strictly below the floor —
    /// a lower bound on the n-th best final score among distinct visible
    /// owners — no untouched unit in the tail can reach the result, and a
    /// touched unit is skipped only when its own accumulated score plus
    /// the same bound still cannot reach it. A skipped unit's true final
    /// score is therefore strictly below at least `n` tracked keys, so it
    /// can never be selected, understated score or not.
    fn accumulate_paper_pruned(
        &self,
        query: &[(String, u32)],
        n: usize,
        visible: &Visibility,
        scratch: &mut ScoreScratch,
    ) {
        let impacts = &self.impacts;
        let ids: Vec<Option<forum_text::TermId>> =
            query.iter().map(|(t, _)| self.vocab.get(t)).collect();
        // Suffix bounds: rem[i] = Σ_{j ≥ i} qf_j · ub_j over resolved terms.
        let mut rem = vec![0.0f64; query.len() + 1];
        for i in (0..query.len()).rev() {
            let ub = ids[i].map_or(0.0, |id| impacts[id.as_usize()].ub);
            rem[i] = rem[i + 1] + f64::from(query[i].1) * ub;
        }
        scratch.tracker.reset(n, self.owner_slots.owner.len());
        for (i, (_, qf)) in query.iter().enumerate() {
            let Some(id) = ids[i] else {
                continue;
            };
            let imp = &impacts[id.as_usize()];
            let idf = probabilistic_idf(self.num_units(), imp.postings.len());
            if idf <= 0.0 {
                scratch.costs.candidates_pruned += imp.postings.len() as u64;
                continue;
            }
            let s_next = rem[i + 1];
            let qf64 = f64::from(*qf);
            let mut k = 0;
            // Phase 1: full scoring down the impact order until the
            // remaining cap proves no untouched unit can reach the floor.
            // The bound is tested once per block — `caps` descend, so the
            // block's first cap bounds every posting in it, and a block of
            // postings the per-posting rule would have skipped is merely
            // scored (always exact), trading at most `IMPACT_BLOCK - 1`
            // extra postings per term for a bound-free inner loop.
            // (`x < -∞` is false, so nothing breaks until the tracker has
            // n distinct keys and a finite floor.)
            while k < imp.postings.len() {
                let tail_bound = qf64 * f64::from(imp.caps[k]) + s_next;
                if tail_bound * BOUND_SLACK < scratch.tracker.floor() {
                    break;
                }
                let end = (k + IMPACT_BLOCK).min(imp.postings.len());
                scratch.costs.postings_scanned += (end - k) as u64;
                for p in &imp.postings[k..end] {
                    let Some(w) = eq8_weight(&self.denoms, p.unit.0, p.tf) else {
                        scratch.costs.candidates_pruned += 1;
                        continue;
                    };
                    let s = scratch.add_returning(p.unit.0, qf64 * w * idf);
                    self.offer_to_tracker(&mut scratch.tracker, visible, p.unit, s);
                }
                k = end;
            }
            // Phase 2 (skim): untouched tail units are provably dead; a
            // touched unit is scored only while its accumulated score plus
            // its remaining bound can still reach the (only-rising) floor.
            for j in k..imp.postings.len() {
                let p = imp.postings[j];
                if scratch.is_touched(p.unit.0) {
                    let bound = qf64 * f64::from(imp.caps[j]) + s_next;
                    if (scratch.score_of(p.unit.0) + bound) * BOUND_SLACK >= scratch.tracker.floor()
                    {
                        scratch.costs.postings_scanned += 1;
                        let Some(w) = eq8_weight(&self.denoms, p.unit.0, p.tf) else {
                            scratch.costs.candidates_pruned += 1;
                            continue;
                        };
                        let s = scratch.add_returning(p.unit.0, qf64 * w * idf);
                        self.offer_to_tracker(&mut scratch.tracker, visible, p.unit, s);
                        continue;
                    }
                }
                scratch.costs.early_exits += 1;
            }
        }
    }

    /// Feeds a freshly-updated unit score to the floor tracker, keyed by
    /// the unit's owner slot. An invisible owner is never offered: the
    /// floor remains a lower bound on the n-th best *visible* owner, so
    /// skipping is conservative and the selection stays exact.
    #[inline]
    fn offer_to_tracker(
        &self,
        tracker: &mut FloorTracker,
        visible: &Visibility,
        unit: UnitId,
        score: f64,
    ) {
        if score <= tracker.floor() {
            return;
        }
        let slot = self.owner_slots.of_unit[unit.as_usize()];
        if visible.admits(self.owner_slots.owner[slot as usize]) {
            tracker.offer(slot, score);
        }
    }

    /// The pre-optimization scoring path — hash-map accumulators, collect
    /// everything, full sort, truncate — kept as the unit-level oracle the
    /// owner scan is checked against (max-folded per owner). Term and
    /// posting traversal order match the optimized path, so the floating
    /// point sums (not just the ranking) are bit-identical.
    pub fn top_n_reference(
        &self,
        query: &[(String, u32)],
        n: usize,
        scheme: WeightingScheme,
    ) -> Vec<(UnitId, f64)> {
        let mut accumulators: HashMap<UnitId, f64> = HashMap::new();
        for (term, qf) in query {
            let plist = self.postings_of(term);
            match scheme {
                WeightingScheme::PaperTfIdf => {
                    let idf = probabilistic_idf(self.num_units(), plist.len());
                    if idf <= 0.0 {
                        continue;
                    }
                    for p in plist {
                        let stats = &self.units[p.unit.as_usize()];
                        let nu = length_normalization(stats.unique_terms as usize, self.avg_unique);
                        let denom = stats.log_tf_sum * nu;
                        if denom <= 0.0 {
                            continue;
                        }
                        let w = log_tf(p.tf) / denom;
                        *accumulators.entry(p.unit).or_insert(0.0) += f64::from(*qf) * w * idf;
                    }
                }
                WeightingScheme::Bm25 { k1, b } => {
                    let nq = plist.len() as f64;
                    let nn = self.num_units() as f64;
                    let idf = (((nn - nq + 0.5) / (nq + 0.5)) + 1.0).ln();
                    for p in plist {
                        let stats = &self.units[p.unit.as_usize()];
                        let tf = f64::from(p.tf);
                        let len_ratio = if self.avg_len > 0.0 {
                            f64::from(stats.total_terms) / self.avg_len
                        } else {
                            1.0
                        };
                        let w = (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * len_ratio));
                        *accumulators.entry(p.unit).or_insert(0.0) += f64::from(*qf) * w * idf;
                    }
                }
            }
        }
        let mut scored: Vec<(UnitId, f64)> =
            accumulators.into_iter().filter(|&(_, s)| s > 0.0).collect();
        scored.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("scores are finite")
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(n);
        scored
    }

    /// Serializes the index into `w` (see [`crate::codec`]). The inverse is
    /// [`SegmentIndex::decode`].
    pub fn encode(&self, w: &mut crate::codec::Writer) {
        w.magic(b"SIDX");
        w.u32(1); // format version
                  // Vocabulary, in id order so interning on decode reproduces ids.
        w.u32(self.vocab.len() as u32);
        for (_, term) in self.vocab.iter() {
            w.string(term);
        }
        // Units.
        w.u32(self.units.len() as u32);
        for u in &self.units {
            w.u32(u.owner);
            w.u32(u.unique_terms);
            w.u32(u.total_terms);
            w.f64(u.log_tf_sum);
        }
        w.f64(self.avg_unique);
        // Postings, per term in id order, each list in unit order (the
        // order v1 readers expect).
        w.u32(self.impacts.len() as u32);
        for list in &self.impacts {
            let mut plist = list.postings.clone();
            plist.sort_unstable_by_key(|p| p.unit);
            w.u32(plist.len() as u32);
            for p in plist {
                w.u32(p.unit.0);
                w.u32(p.tf);
            }
        }
    }

    /// Deserializes an index previously written by [`SegmentIndex::encode`].
    pub fn decode(r: &mut crate::codec::Reader<'_>) -> Result<Self, crate::codec::DecodeError> {
        use crate::codec::DecodeError;
        r.magic(b"SIDX")?;
        let version = r.u32("index version")?;
        if version != 1 {
            return Err(DecodeError::at("unsupported index version", r.position()));
        }
        let n_terms = r.u32("vocab size")? as usize;
        let mut vocab = Vocabulary::new();
        for _ in 0..n_terms {
            let term = r.string("vocab term")?;
            vocab.intern(&term);
        }
        let n_units = r.u32("unit count")? as usize;
        // Capacities are clamped by the remaining input so a corrupt length
        // field yields a DecodeError at end-of-input, never an allocation
        // abort (each unit occupies 20 encoded bytes, each posting 8).
        let mut units = Vec::with_capacity(r.capacity_hint(n_units, 20));
        for _ in 0..n_units {
            units.push(UnitStats {
                owner: r.u32("unit owner")?,
                unique_terms: r.u32("unit unique terms")?,
                total_terms: r.u32("unit total terms")?,
                log_tf_sum: r.f64("unit log-tf sum")?,
            });
        }
        let avg_unique = r.f64("avg unique")?;
        let n_plists = r.u32("postings lists")? as usize;
        if n_plists > n_terms {
            return Err(DecodeError::at(
                "more postings lists than terms",
                r.position(),
            ));
        }
        let mut postings = Vec::with_capacity(r.capacity_hint(n_plists, 4));
        for _ in 0..n_plists {
            let len = r.u32("postings length")? as usize;
            let mut plist = Vec::with_capacity(r.capacity_hint(len, 8));
            for _ in 0..len {
                let unit = r.u32("posting unit")?;
                let tf = r.u32("posting tf")?;
                plist.push(Posting {
                    unit: UnitId(unit),
                    tf,
                });
            }
            postings.push(plist);
        }
        // v1 lists are in unit order; `from_parts` checks their units and
        // sorts them into impact order.
        SegmentIndex::from_parts(vocab, postings, units, avg_unique, PostingOrder::Unit)
    }

    /// Assembles an index from its parts, deriving the per-unit
    /// denominators, BM25's average unit length, the owner slots and each
    /// list's caps. The builder, the v1 decode path and the flat
    /// materialization ([`crate::flat`]) all funnel through here, so a
    /// lazily materialized cluster is bit-identical to a heap-decoded or
    /// freshly built one by construction.
    ///
    /// Lists in [`PostingOrder::Unit`] are sorted into impact order here;
    /// lists in [`PostingOrder::Impact`] are only checked, in one linear
    /// pass that recomputes every cap from the unit statistics. Fails on
    /// non-finite unit statistics (see [`unit_denoms`]), on a posting of
    /// an unknown unit, and on an impact-order list that is not strictly
    /// in (cap desc, unit asc) order; the last two errors name the term.
    pub(crate) fn from_parts(
        vocab: Vocabulary,
        postings: Vec<Vec<Posting>>,
        units: Vec<UnitStats>,
        avg_unique: f64,
        order: PostingOrder,
    ) -> Result<SegmentIndex, crate::codec::DecodeError> {
        let denoms = unit_denoms(&units, avg_unique)?;
        let impacts = postings
            .into_iter()
            .enumerate()
            .map(|(t, plist)| impact_list(t, plist, &denoms, order))
            .collect::<Result<Vec<_>, _>>()?;
        let avg_len = if units.is_empty() {
            0.0
        } else {
            units.iter().map(|u| f64::from(u.total_terms)).sum::<f64>() / units.len() as f64
        };
        let owner_slots = OwnerSlots::build(&units);
        Ok(SegmentIndex {
            vocab,
            units,
            avg_unique,
            avg_len,
            denoms,
            impacts,
            owner_slots,
        })
    }

    /// Full integrity audit for `intentmatch doctor`. Verifies every
    /// invariant the query paths rely on without mutating anything:
    ///
    /// * every postings list is strictly in (cap desc, unit asc) order,
    ///   references only known units, names no unit twice and holds no
    ///   zero term frequency;
    /// * every cap is finite and equals the `round_up_f32` of the exact
    ///   Eq. 8/9 contribution, recomputed here from the raw unit
    ///   statistics, and each list's `ub` is its first cap;
    /// * stored per-unit statistics (`unique_terms`, `total_terms`, the
    ///   Eq. 7/8 denominator `log_tf_sum`) match a recomputation from the
    ///   postings themselves (float sums compared with a 1e-9 relative
    ///   tolerance — `HashMap` iteration order varies the summation);
    /// * `avg_unique` matches the mean of the stored unique counts (1e-6
    ///   relative tolerance — a store that an older `intentmatch add`
    ///   grew in place holds a running mean);
    /// * the owner → units map is a consistent inverse of the unit table.
    ///
    /// Returns distribution facts plus a list of human-readable problems;
    /// an empty list means the index is healthy.
    pub fn audit(&self) -> IndexAudit {
        let mut problems = Vec::new();
        let n_units = self.units.len();

        // Postings-length distribution (for skew reporting) and
        // structural checks.
        let mut lens: Vec<usize> = self.impacts.iter().map(|l| l.postings.len()).collect();
        let postings_total: usize = lens.iter().sum();
        let postings_max = lens.iter().copied().max().unwrap_or(0);
        lens.sort_unstable();
        let pct = |p: usize| -> usize {
            if lens.is_empty() {
                0
            } else {
                lens[(lens.len() - 1) * p / 100]
            }
        };
        if self.impacts.len() > self.vocab.len() {
            problems.push(format!(
                "{} postings lists but only {} vocabulary terms",
                self.impacts.len(),
                self.vocab.len()
            ));
        }
        // `listed_in[u]` = 1 + the last term whose list named unit `u`.
        let mut listed_in = vec![0u32; n_units];
        for (t, list) in self.impacts.iter().enumerate() {
            if let Some(problem) = self.audit_list(t, list, &mut listed_in) {
                problems.push(format!("term {t}: {problem}"));
            }
        }

        // Recompute the per-unit statistics from the postings and compare
        // with what is stored (what the weights actually use).
        let mut unique = vec![0u32; n_units];
        let mut total = vec![0u64; n_units];
        let mut log_tf_sum = vec![0.0f64; n_units];
        for list in &self.impacts {
            for p in &list.postings {
                let u = p.unit.as_usize();
                if u >= n_units {
                    continue;
                }
                unique[u] += 1;
                total[u] += u64::from(p.tf);
                log_tf_sum[u] += log_tf(p.tf);
            }
        }
        for (u, stats) in self.units.iter().enumerate() {
            if unique[u] != stats.unique_terms {
                problems.push(format!(
                    "unit {u}: stored unique_terms {} but postings say {}",
                    stats.unique_terms, unique[u]
                ));
            }
            if total[u] != u64::from(stats.total_terms) {
                problems.push(format!(
                    "unit {u}: stored total_terms {} but postings say {}",
                    stats.total_terms, total[u]
                ));
            }
            let rel = (log_tf_sum[u] - stats.log_tf_sum).abs()
                / stats.log_tf_sum.abs().max(f64::MIN_POSITIVE);
            if !stats.log_tf_sum.is_finite() || rel > 1e-9 {
                problems.push(format!(
                    "unit {u}: stored log_tf_sum {} but postings sum to {} \
                     (relative error {rel:.3e})",
                    stats.log_tf_sum, log_tf_sum[u]
                ));
            }
            // The scan kernel's cached copies of the unit's denominator
            // and owner must match the raw statistics exactly.
            let denom = stats.log_tf_sum
                * length_normalization(stats.unique_terms as usize, self.avg_unique);
            if self.denoms.get(u).map(|d| d.to_bits()) != Some(denom.to_bits()) {
                problems.push(format!(
                    "unit {u}: cached denominator {:?} but statistics give {denom}",
                    self.denoms.get(u)
                ));
            }
            let slot = self.owner_slots.of_unit.get(u);
            if slot.and_then(|&k| self.owner_slots.owner.get(k as usize)) != Some(&stats.owner) {
                problems.push(format!(
                    "unit {u}: owner slot {slot:?} does not name owner {}",
                    stats.owner
                ));
            }
        }
        if n_units > 0 {
            let mean = self
                .units
                .iter()
                .map(|s| f64::from(s.unique_terms))
                .sum::<f64>()
                / n_units as f64;
            let rel = (mean - self.avg_unique).abs() / mean.max(f64::MIN_POSITIVE);
            if !self.avg_unique.is_finite() || rel > 1e-6 {
                problems.push(format!(
                    "stored avg_unique {} but unit stats average {mean} \
                     (relative error {rel:.3e})",
                    self.avg_unique
                ));
            }
        }

        // The owner → units map must be an exact inverse of the unit
        // table: every unit listed once, under its own owner.
        let mut seen = vec![false; n_units];
        for &owner in &self.owner_slots.owner {
            for &u in self.owner_slots.units_of(owner).unwrap_or(&[]) {
                match self.units.get(u as usize) {
                    None => problems.push(format!(
                        "owner {owner}: owner map references unknown unit {u}"
                    )),
                    Some(stats) if stats.owner != owner => problems.push(format!(
                        "owner {owner}: owner map lists unit {u} owned by {}",
                        stats.owner
                    )),
                    Some(_) if seen[u as usize] => {
                        problems.push(format!("unit {u} appears twice in the owner map"))
                    }
                    Some(_) => seen[u as usize] = true,
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            problems.push(format!("unit {missing} is missing from the owner map"));
        }

        IndexAudit {
            units: n_units,
            owners: self.owner_slots.owner.len(),
            vocabulary: self.vocab.len(),
            postings_total,
            postings_max,
            postings_p50: pct(50),
            postings_p99: pct(99),
            problems,
        }
    }

    /// The first problem of one postings list: a posting of an unknown
    /// unit or with a zero frequency, a cap that is not the round-up of
    /// the exact Eq. 8/9 contribution (recomputed from the raw unit
    /// statistics, as [`Self::top_n_reference`] scores), a break in the
    /// strict (cap desc, unit asc) order, a unit named twice, or a `ub`
    /// that is not the first cap. `listed_in` is the caller's per-unit
    /// record of the last list (`t + 1`) that named each unit.
    fn audit_list(&self, t: usize, list: &TermImpacts, listed_in: &mut [u32]) -> Option<String> {
        if list.caps.len() != list.postings.len() {
            return Some(format!(
                "{} caps for {} postings",
                list.caps.len(),
                list.postings.len()
            ));
        }
        let expected_ub = list.caps.first().map_or(0.0, |&c| f64::from(c));
        if list.ub.to_bits() != expected_ub.to_bits() {
            return Some(format!("ub {} but first cap is {expected_ub}", list.ub));
        }
        let idf = probabilistic_idf(self.units.len(), list.postings.len());
        for (k, (p, &cap)) in list.postings.iter().zip(&list.caps).enumerate() {
            let Some(stats) = self.units.get(p.unit.as_usize()) else {
                return Some(format!("posting references unknown unit {}", p.unit.0));
            };
            if p.tf == 0 {
                return Some(format!("zero term frequency in unit {}", p.unit.0));
            }
            let denom = stats.log_tf_sum
                * length_normalization(stats.unique_terms as usize, self.avg_unique);
            let exact = if denom <= 0.0 || denom.is_nan() || idf <= 0.0 {
                0.0
            } else {
                log_tf(p.tf) / denom * idf
            };
            if !cap.is_finite() || cap != round_up_f32(exact) {
                return Some(format!(
                    "cap {cap} at position {k} is not the rounded-up Eq. 8 \
                     contribution {exact} of unit {}",
                    p.unit.0
                ));
            }
            if k > 0
                && !follows_in_impact_order(
                    list.caps[k - 1],
                    list.postings[k - 1].unit.0,
                    cap,
                    p.unit.0,
                )
            {
                return Some(format!(
                    "postings not strictly in (cap desc, unit asc) order at \
                     position {k} (unit {})",
                    p.unit.0
                ));
            }
            let seen = &mut listed_in[p.unit.as_usize()];
            if *seen == t as u32 + 1 {
                return Some(format!("unit {} is listed twice", p.unit.0));
            }
            *seen = t as u32 + 1;
        }
        None
    }

    /// Convenience: build the `(term, frequency)` query representation from
    /// a raw term sequence.
    pub fn query_from_terms(terms: &[String]) -> Vec<(String, u32)> {
        let mut freqs: HashMap<&str, u32> = HashMap::new();
        for t in terms {
            *freqs.entry(t.as_str()).or_insert(0) += 1;
        }
        let mut out: Vec<(String, u32)> =
            freqs.into_iter().map(|(t, f)| (t.to_string(), f)).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terms(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn log_tf_sum_bits_do_not_depend_on_term_order() {
        // Thirty distinct terms with tf 1..=30: about half of all orders
        // sum these log-tf values to different last bits, so a
        // hash-ordered sum differs between units (and between processes)
        // while an id-ordered one cannot.
        let mut words: Vec<String> = Vec::new();
        for tf in 1..=30 {
            words.extend(std::iter::repeat_n(format!("t{tf}"), tf));
        }
        // The first unit interns t1..t30 in tf order, so term-id order is
        // tf order for every unit.
        let mut b = IndexBuilder::new();
        b.add_unit(0, &words);
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for owner in 1..20u32 {
            let mut shuffled = words.clone();
            for i in (1..shuffled.len()).rev() {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                shuffled.swap(i, (rng % (i as u64 + 1)) as usize);
            }
            b.add_unit(owner, &shuffled);
        }
        let index = b.build();
        let expected: f64 = (1..=30u32).fold(0.0, |acc, tf| acc + log_tf(tf));
        for u in &index.units {
            assert_eq!(
                u.log_tf_sum.to_bits(),
                expected.to_bits(),
                "owner {}",
                u.owner
            );
        }
    }

    /// A small index: 5 units; "raid" is rare, "disk" is everywhere.
    fn sample_index() -> SegmentIndex {
        let mut b = IndexBuilder::new();
        b.add_unit(0, &terms(&["raid", "disk", "controller"]));
        b.add_unit(1, &terms(&["disk", "printer", "ink"]));
        b.add_unit(2, &terms(&["disk", "hotel", "room"]));
        b.add_unit(3, &terms(&["disk", "boot", "linux"]));
        b.add_unit(4, &terms(&["disk", "driver", "crash", "crash"]));
        b.build()
    }

    #[test]
    fn audit_reports_a_unit_listed_twice() {
        // The same unit at two frequencies has two caps, so the list is
        // still strictly in impact order; only the audit's per-unit record
        // catches the repeat.
        let mut idx = sample_index();
        let raid = idx.vocab.get("raid").unwrap().as_usize();
        let postings = vec![
            Posting {
                unit: UnitId(0),
                tf: 3,
            },
            Posting {
                unit: UnitId(0),
                tf: 1,
            },
        ];
        let idf = probabilistic_idf(idx.num_units(), postings.len());
        let caps: Vec<f32> = postings
            .iter()
            .map(|&p| cap_of(&idx.denoms, idf, p))
            .collect();
        assert!(caps[0] > caps[1], "{caps:?}");
        idx.impacts[raid] = TermImpacts {
            ub: f64::from(caps[0]),
            postings,
            caps,
        };
        let problems = idx.audit().problems;
        assert!(
            problems
                .iter()
                .any(|p| p == &format!("term {raid}: unit 0 is listed twice")),
            "{problems:?}"
        );
    }

    #[test]
    fn unit_frequency_counts() {
        let idx = sample_index();
        assert_eq!(idx.unit_frequency("disk"), 5);
        assert_eq!(idx.unit_frequency("raid"), 1);
        assert_eq!(idx.unit_frequency("missing"), 0);
    }

    #[test]
    fn idf_prefers_rare_terms() {
        let idx = sample_index();
        assert!(idx.idf("raid") > idx.idf("disk"));
        assert_eq!(idx.idf("disk"), 0.0); // in every unit
        assert_eq!(idx.idf("missing"), 0.0);
    }

    #[test]
    fn weight_zero_for_absent_term() {
        let idx = sample_index();
        assert_eq!(idx.weight("raid", UnitId(1)), 0.0);
        assert_eq!(idx.weight("missing", UnitId(0)), 0.0);
    }

    #[test]
    fn weight_positive_for_present_term() {
        let idx = sample_index();
        assert!(idx.weight("raid", UnitId(0)) > 0.0);
    }

    #[test]
    fn repeated_term_weighs_more_sublinearly() {
        // Unit 4 has "crash" twice.
        let idx = sample_index();
        let w_crash = idx.weight("crash", UnitId(4));
        let w_driver = idx.weight("driver", UnitId(4));
        assert!(w_crash > w_driver);
        assert!(w_crash < 2.0 * w_driver, "log scaling must be sublinear");
    }

    /// The pruned owner scan with no tombstones and no filter.
    fn scan(
        idx: &SegmentIndex,
        query: &[(String, u32)],
        n: usize,
        exclude: Option<u32>,
        scratch: &mut ScoreScratch,
    ) -> Vec<(u32, f64)> {
        idx.top_owners_excluding_filtered(
            query,
            n,
            WeightingScheme::PaperTfIdf,
            exclude,
            &HashSet::new(),
            None,
            scratch,
        )
    }

    /// The exhaustive oracle under the paper scheme.
    fn exhaustive(
        idx: &SegmentIndex,
        query: &[(String, u32)],
        n: usize,
        exclude: Option<u32>,
        filter: Option<DocFilter>,
    ) -> Vec<(u32, f64)> {
        idx.top_owners_exhaustive(
            query,
            n,
            WeightingScheme::PaperTfIdf,
            exclude,
            filter,
            &mut ScoreScratch::new(),
        )
    }

    #[test]
    fn scan_ranks_matching_owners_first() {
        let idx = sample_index();
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "controller"]));
        let hits = scan(&idx, &query, 3, None, &mut ScoreScratch::new());
        assert!(!hits.is_empty());
        assert_eq!(hits[0].0, 0);
    }

    #[test]
    fn scan_respects_n() {
        let idx = sample_index();
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "printer", "hotel", "boot"]));
        let hits = scan(&idx, &query, 2, None, &mut ScoreScratch::new());
        assert!(hits.len() <= 2);
    }

    #[test]
    fn ubiquitous_terms_score_zero() {
        let idx = sample_index();
        // "disk" appears in all units: idf 0, so a disk-only query matches
        // nothing.
        let query = SegmentIndex::query_from_terms(&terms(&["disk"]));
        assert!(scan(&idx, &query, 10, None, &mut ScoreScratch::new()).is_empty());
    }

    #[test]
    fn scores_sorted_descending() {
        let idx = sample_index();
        let query =
            SegmentIndex::query_from_terms(&terms(&["raid", "controller", "boot", "linux"]));
        let hits = scan(&idx, &query, 10, None, &mut ScoreScratch::new());
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn owner_roundtrip() {
        let mut b = IndexBuilder::new();
        let u = b.add_unit(42, &terms(&["x"]));
        let idx = b.build();
        assert_eq!(idx.owner(u), 42);
    }

    #[test]
    fn query_frequencies_multiply() {
        let mut b = IndexBuilder::new();
        b.add_unit(0, &terms(&["apple", "pear"]));
        b.add_unit(1, &terms(&["apple", "plum"]));
        b.add_unit(2, &terms(&["kiwi", "plum"]));
        b.add_unit(3, &terms(&["kiwi", "pear"]));
        let idx = b.build();
        let mut scratch = ScoreScratch::new();
        let q1 = scan(&idx, &[("apple".into(), 1)], 10, None, &mut scratch);
        let q2 = scan(&idx, &[("apple".into(), 2)], 10, None, &mut scratch);
        assert_eq!(q1.len(), q2.len());
        for (a, b) in q1.iter().zip(&q2) {
            assert!((b.1 - 2.0 * a.1).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_index_is_sane() {
        let idx = IndexBuilder::new().build();
        assert_eq!(idx.num_units(), 0);
        assert!(scan(&idx, &[("x".into(), 1)], 5, None, &mut ScoreScratch::new()).is_empty());
        assert_eq!(idx.avg_unique_terms(), 0.0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let idx = sample_index();
        let mut w = crate::codec::Writer::new();
        idx.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::codec::Reader::new(&bytes);
        let back = SegmentIndex::decode(&mut r).expect("decode");
        assert!(r.is_at_end());
        assert_eq!(back.num_units(), idx.num_units());
        assert!((back.avg_unique_terms() - idx.avg_unique_terms()).abs() < 1e-12);
        for term in ["raid", "disk", "crash", "missing"] {
            assert_eq!(
                back.unit_frequency(term),
                idx.unit_frequency(term),
                "{term}"
            );
            assert!((back.idf(term) - idx.idf(term)).abs() < 1e-12);
        }
        let q = SegmentIndex::query_from_terms(&terms(&["raid", "controller", "boot"]));
        let mut scratch = ScoreScratch::new();
        assert_eq!(
            scan(&back, &q, 5, None, &mut scratch),
            scan(&idx, &q, 5, None, &mut scratch)
        );
    }

    #[test]
    fn decode_rejects_corruption() {
        let idx = sample_index();
        let mut w = crate::codec::Writer::new();
        idx.encode(&mut w);
        let bytes = w.into_bytes();
        // Truncation fails cleanly at every prefix length.
        for cut in [0usize, 3, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut r = crate::codec::Reader::new(&bytes[..cut]);
            assert!(SegmentIndex::decode(&mut r).is_err(), "cut at {cut}");
        }
        // Wrong magic.
        let mut broken = bytes.clone();
        broken[0] = b'X';
        let mut r = crate::codec::Reader::new(&broken);
        assert!(SegmentIndex::decode(&mut r).is_err());
    }

    /// Deterministic synthetic corpus: a few hundred units mixing one
    /// rare high-impact term, a mid-frequency term, and unit-specific
    /// filler so impact ordering has real spread to exploit.
    fn skewed_index(units: usize) -> SegmentIndex {
        let mut b = IndexBuilder::new();
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..units {
            let mut t = Vec::new();
            // "alpha" is rare and repeated where present (high cap spread).
            if next() % 11 == 0 {
                let reps = 1 + (next() % 4) as usize;
                t.extend(std::iter::repeat_n("alpha".to_string(), reps));
            }
            if next() % 3 == 0 {
                t.push("beta".into());
            }
            // Filler controls length normalization variance.
            for f in 0..(1 + next() % 7) {
                t.push(format!("f{}_{f}", next() % 50));
            }
            if t.is_empty() {
                t.push("beta".into());
            }
            b.add_unit((i / 2) as u32, &t);
        }
        b.build()
    }

    #[test]
    fn pruned_top_owners_matches_exhaustive_bitwise() {
        let idx = skewed_index(400);
        let queries = [
            SegmentIndex::query_from_terms(&terms(&["alpha", "beta"])),
            SegmentIndex::query_from_terms(&terms(&["alpha", "beta", "alpha", "f3_0"])),
        ];
        for query in &queries {
            for n in [1, 3, 5, 7, 10, 40, 50] {
                for exclude in [None, Some(0), Some(3), Some(7)] {
                    let pruned = scan(&idx, query, n, exclude, &mut ScoreScratch::new());
                    let oracle = exhaustive(&idx, query, n, exclude, None);
                    assert_eq!(
                        bits(&pruned),
                        bits(&oracle),
                        "n={n} exclude={exclude:?} query={query:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn filtered_pruned_matches_filtered_exhaustive_bitwise() {
        // The visibility filter and the tombstones must compose with
        // impact-ordered early termination exactly: a hidden or tombstoned
        // owner never enters the floor tracker, so the bound stays valid
        // for the visible selection. The oracle hides the tombstones
        // through its filter.
        let idx = skewed_index(400);
        let query = SegmentIndex::query_from_terms(&terms(&["alpha", "beta", "f3_0"]));
        let all = exhaustive(&idx, &query, usize::MAX, None, None);
        let some_top: HashSet<u32> = all.iter().take(12).step_by(2).map(|&(o, _)| o).collect();
        let hide_odd = |owner: u32| owner.is_multiple_of(2);
        let hide_band = |owner: u32| !(40..120).contains(&owner);
        let filters: [Option<DocFilter>; 3] = [None, Some(&hide_odd), Some(&hide_band)];
        for tombstones in [HashSet::new(), some_top] {
            for filter in filters {
                let live =
                    |owner: u32| !tombstones.contains(&owner) && filter.is_none_or(|f| f(owner));
                for n in [1, 5, 40] {
                    for exclude in [None, Some(all[1].0)] {
                        let pruned = idx.top_owners_excluding_filtered(
                            &query,
                            n,
                            WeightingScheme::PaperTfIdf,
                            exclude,
                            &tombstones,
                            filter,
                            &mut ScoreScratch::new(),
                        );
                        let oracle = exhaustive(&idx, &query, n, exclude, Some(&live));
                        assert_eq!(bits(&pruned), bits(&oracle), "n={n} exclude={exclude:?}");
                        for &(owner, _) in &pruned {
                            assert!(live(owner), "hidden owner {owner} surfaced");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn invisible_owners_never_raise_the_floor() {
        // Owner u < 200 holds "a" and "b" once each plus u / 10 unique
        // fillers, so both terms' weights fall with u and both impact
        // orders follow owner order; 800 padding owners keep "a" and "b"
        // under the zero-IDF cutoff. Hiding owners 0..100 puts the visible
        // top 3 in the second 64-posting block of "b". Had a hidden owner
        // raised the floor, the pruned walk would stop "b" after its first
        // block and skim past the visible owners' "b" postings, understating
        // their scores.
        let mut b = IndexBuilder::new();
        for u in 0..200u32 {
            let mut t = terms(&["a", "b"]);
            t.extend((0..u / 10).map(|j| format!("f{u}_{j}")));
            b.add_unit(u, &t);
        }
        for u in 200..1000u32 {
            b.add_unit(u, &[format!("pad{u}")]);
        }
        let idx = b.build();
        let query = SegmentIndex::query_from_terms(&terms(&["a", "b"]));
        let hidden: HashSet<u32> = (0..100).collect();
        let visible = |owner: u32| !hidden.contains(&owner);
        let want = exhaustive(&idx, &query, 3, None, Some(&visible));
        assert_eq!(
            want.iter().map(|&(o, _)| o).collect::<Vec<_>>(),
            [100, 101, 102]
        );
        let by_tombstones = idx.top_owners_excluding_filtered(
            &query,
            3,
            WeightingScheme::PaperTfIdf,
            None,
            &hidden,
            None,
            &mut ScoreScratch::new(),
        );
        let by_filter = idx.top_owners_excluding_filtered(
            &query,
            3,
            WeightingScheme::PaperTfIdf,
            None,
            &HashSet::new(),
            Some(&visible),
            &mut ScoreScratch::new(),
        );
        assert_eq!(bits(&by_tombstones), bits(&want));
        assert_eq!(bits(&by_filter), bits(&want));
    }

    #[test]
    fn filtered_docs_do_not_consume_result_slots() {
        // Hiding the entire natural first page must surface the next n
        // visible owners with the exact scores an unfiltered wide scan
        // assigns them — a hidden owner may not occupy a slot.
        let idx = skewed_index(400);
        let query = SegmentIndex::query_from_terms(&terms(&["alpha", "beta"]));
        let all = scan(&idx, &query, 50, None, &mut ScoreScratch::new());
        assert!(all.len() >= 12, "need enough scored owners");
        let hidden: HashSet<u32> = all.iter().take(6).map(|&(o, _)| o).collect();
        let visible = move |owner: u32| !hidden.contains(&owner);
        let filtered = idx.top_owners_excluding_filtered(
            &query,
            4,
            WeightingScheme::PaperTfIdf,
            None,
            &HashSet::new(),
            Some(&visible),
            &mut ScoreScratch::new(),
        );
        let expected: Vec<(u32, f64)> = all
            .iter()
            .filter(|&&(o, _)| visible(o))
            .take(4)
            .copied()
            .collect();
        assert_eq!(filtered.len(), 4);
        assert_eq!(bits(&filtered), bits(&expected));
    }

    #[test]
    fn early_termination_skips_postings() {
        let idx = skewed_index(1000);
        let query = SegmentIndex::query_from_terms(&terms(&["alpha", "beta"]));
        let mut pruned_scratch = ScoreScratch::new();
        scan(&idx, &query, 3, None, &mut pruned_scratch);
        let pruned_costs = pruned_scratch.costs.take();
        let mut full_scratch = ScoreScratch::new();
        idx.top_owners_exhaustive(
            &query,
            3,
            WeightingScheme::PaperTfIdf,
            None,
            None,
            &mut full_scratch,
        );
        let full_costs = full_scratch.costs.take();
        assert!(
            pruned_costs.early_exits > 0,
            "a skewed 1000-unit corpus at n=3 must trigger early termination: {pruned_costs:?}"
        );
        assert!(
            pruned_costs.postings_scanned < full_costs.postings_scanned,
            "pruned {pruned_costs:?} vs exhaustive {full_costs:?}"
        );
        assert_eq!(
            pruned_costs.postings_scanned
                + pruned_costs.early_exits
                + pruned_costs.candidates_pruned,
            full_costs.postings_scanned + full_costs.candidates_pruned,
            "every posting is either scored, bound-skipped, or pruned"
        );
        assert_eq!(full_costs.early_exits, 0);
    }

    #[test]
    fn floor_tracker_lower_bounds_nth_best() {
        let mut t = FloorTracker::default();
        t.reset(3, 5);
        assert_eq!(t.floor(), f64::NEG_INFINITY);
        t.offer(1, 5.0);
        t.offer(2, 3.0);
        assert_eq!(t.floor(), f64::NEG_INFINITY, "not full yet");
        t.offer(3, 4.0);
        assert_eq!(t.floor(), 3.0);
        // Raising a tracked key's score moves the floor.
        t.offer(2, 6.0);
        assert_eq!(t.floor(), 4.0);
        // A new key below the floor is ignored...
        t.offer(4, 1.0);
        assert_eq!(t.floor(), 4.0);
        // ...and one above it evicts the minimum.
        t.offer(4, 4.5);
        assert_eq!(t.floor(), 4.5);
        // Keys stay distinct: re-offering the same key never double-counts.
        t.offer(4, 7.0);
        assert_eq!(t.floor(), 5.0);
    }

    #[test]
    fn score_owner_matches_scan_bitwise() {
        let idx = skewed_index(300);
        let query = SegmentIndex::query_from_terms(&terms(&["alpha", "beta", "f1_0"]));
        let full = exhaustive(&idx, &query, usize::MAX, None, None);
        assert!(!full.is_empty());
        for &(owner, s) in &full {
            let ra = idx
                .score_owner(&query, WeightingScheme::PaperTfIdf, owner)
                .expect("ranked owner must score");
            assert_eq!(ra.to_bits(), s.to_bits(), "owner {owner}");
        }
        // An owner with no positive score is absent from both views.
        let ranked: HashSet<u32> = full.iter().map(|&(o, _)| o).collect();
        for owner in 0..150 {
            if !ranked.contains(&owner) {
                assert!(idx
                    .score_owner(&query, WeightingScheme::PaperTfIdf, owner)
                    .is_none());
            }
        }
    }

    /// Owner-level answer from the uncached oracle: `top_n_reference` over
    /// every unit, max-folded per owner, `exclude` dropped, top `n`.
    fn reference_owners(
        idx: &SegmentIndex,
        query: &[(String, u32)],
        exclude: Option<u32>,
        n: usize,
    ) -> Vec<(u32, f64)> {
        let mut best: HashMap<u32, f64> = HashMap::new();
        for (unit, s) in idx.top_n_reference(query, usize::MAX, WeightingScheme::PaperTfIdf) {
            let owner = idx.owner(unit);
            if exclude != Some(owner) {
                let b = best.entry(owner).or_insert(f64::NEG_INFINITY);
                *b = b.max(s);
            }
        }
        let mut out: Vec<(u32, f64)> = best.into_iter().collect();
        out.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        out.truncate(n);
        out
    }

    fn bits(hits: &[(u32, f64)]) -> Vec<(u32, u64)> {
        hits.iter().map(|&(o, s)| (o, s.to_bits())).collect()
    }

    #[test]
    fn dense_fold_handles_sparse_owner_ids() {
        // Owner ids span the whole u32 range; per-owner scratch must be
        // indexed by slot, so it stays three entries long.
        let owners = [0u32, 7, 4_000_000_000];
        let mut b = IndexBuilder::new();
        for i in 0..60u32 {
            let mut t = terms(&["common", "filler"]);
            if i % 3 == 0 {
                t.push("rare".into());
            }
            if i % 4 == 1 {
                t.extend(terms(&["mid", "mid"]));
            }
            t.push(format!("own{}", i % 5));
            b.add_unit(owners[i as usize % 3], &t);
        }
        // Padding units (more than half the index) keep "common" and
        // "filler" out of the zero-IDF band for the query terms.
        for i in 0..70u32 {
            b.add_unit(owners[i as usize % 3], &[format!("pad{i}")]);
        }
        let idx = b.build();
        let query = SegmentIndex::query_from_terms(&terms(&["rare", "mid", "own1", "filler"]));
        let mut scratch = ScoreScratch::new();
        for n in [1, 2, 3, 10] {
            for exclude in [None, Some(7), Some(4_000_000_000)] {
                let got = scan(&idx, &query, n, exclude, &mut scratch);
                let want = reference_owners(&idx, &query, exclude, n);
                assert!(!got.is_empty());
                assert_eq!(bits(&got), bits(&want), "n={n} exclude={exclude:?}");
            }
        }
        assert_eq!(scratch.owner_best.len(), owners.len());
        assert_eq!(scratch.owner_mark.len(), owners.len());
        assert!(scratch.tracker.best.len() <= idx.num_units());
    }

    #[test]
    fn reused_scratch_is_bit_identical_across_index_sizes() {
        let large = skewed_index(1000);
        let small = skewed_index(40);
        let query = SegmentIndex::query_from_terms(&terms(&["alpha", "beta", "f3_0"]));
        let mut shared = ScoreScratch::new();
        for (idx, n) in [
            (&large, 5),
            (&small, 5),
            (&large, 5),
            (&small, 30),
            (&large, 3),
        ] {
            let reused = scan(idx, &query, n, None, &mut shared);
            assert!(!reused.is_empty());
            assert_eq!(
                bits(&reused),
                bits(&scan(idx, &query, n, None, &mut ScoreScratch::new())),
                "{} units",
                idx.num_units()
            );
            assert_eq!(bits(&reused), bits(&reference_owners(idx, &query, None, n)));
        }
    }

    #[test]
    fn tombstone_over_fetch_past_the_owner_count_returns_the_full_page() {
        let idx = skewed_index(200);
        let query = SegmentIndex::query_from_terms(&terms(&["alpha", "beta"]));
        let all = reference_owners(&idx, &query, None, usize::MAX);
        let tombstones: HashSet<u32> = all.iter().step_by(3).map(|&(o, _)| o).collect();
        let live: Vec<(u32, f64)> = all
            .iter()
            .filter(|(o, _)| !tombstones.contains(o))
            .copied()
            .collect();
        // n beyond the number of owners: every live scoring owner returns,
        // and no tombstoned one.
        let n = all.len() + 50;
        let got = idx.top_owners_excluding_filtered(
            &query,
            n,
            WeightingScheme::PaperTfIdf,
            None,
            &tombstones,
            None,
            &mut ScoreScratch::new(),
        );
        assert_eq!(bits(&got), bits(&live));
        assert!(got.iter().all(|(o, _)| !tombstones.contains(o)));
    }

    #[test]
    fn decode_rejects_non_finite_unit_statistics() {
        // Each edit reaches a v1 encoding the way a checksum-less store
        // section would carry it, on the query's first matching unit.
        let query = SegmentIndex::query_from_terms(&terms(&["raid", "controller"]));
        let first_match = sample_index().top_n_reference(&query, 1, WeightingScheme::PaperTfIdf)[0]
            .0
            .as_usize();
        type Corrupt = fn(&mut SegmentIndex, usize);
        let corruptions: [(&str, Corrupt); 4] = [
            ("NaN log-tf sum", |i, u| i.units[u].log_tf_sum = f64::NAN),
            ("infinite log-tf sum", |i, u| {
                i.units[u].log_tf_sum = f64::INFINITY
            }),
            ("NaN avg_unique", |i, _| i.avg_unique = f64::NAN),
            ("0 · ∞ denominator", |i, u| {
                i.avg_unique = 1e-320;
                i.units[u].log_tf_sum = 0.0;
            }),
        ];
        for (what, corrupt) in corruptions {
            let mut idx = sample_index();
            corrupt(&mut idx, first_match);
            let mut w = crate::codec::Writer::new();
            idx.encode(&mut w);
            let bytes = w.into_bytes();
            let got = SegmentIndex::decode(&mut crate::codec::Reader::new(&bytes));
            assert!(got.is_err(), "{what}: decode accepted it");
        }
    }

    #[test]
    fn round_up_f32_is_an_upper_bound() {
        for x in [0.0, 1e-30, 0.1, 1.0 / 3.0, 1.0, 123.456, 1e20] {
            let c = round_up_f32(x);
            assert!(f64::from(c) >= x, "{x}");
        }
    }

    #[test]
    fn length_normalization_penalizes_verbose_units() {
        let mut b = IndexBuilder::new();
        // Unit 0: "raid" among 2 terms; unit 1: "raid" among many terms.
        b.add_unit(0, &terms(&["raid", "disk"]));
        b.add_unit(
            1,
            &terms(&["raid", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"]),
        );
        let idx = b.build();
        assert!(idx.weight("raid", UnitId(0)) > idx.weight("raid", UnitId(1)));
    }
}
