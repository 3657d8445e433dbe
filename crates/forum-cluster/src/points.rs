//! Flat point storage and exact candidate pruning for the clustering
//! substrate.
//!
//! * [`PointMatrix`] — row-major SoA storage for n×d point sets: one
//!   contiguous `Vec<f64>` plus the dimension, so a region query walks
//!   memory linearly instead of chasing one heap allocation per point.
//! * [`sq_dist_bounded`] — squared Euclidean distance that bails out as
//!   soon as the partial sum exceeds a bound. Because every term `d·d` is
//!   non-negative and IEEE-754 round-to-nearest addition is monotone, the
//!   partial sums never decrease, so an early abort can only happen when
//!   the full sum would also exceed the bound: the `≤ bound` predicate is
//!   decided *exactly*, and the returned value (when within bound) equals
//!   [`crate::sq_dist`] bit-for-bit (same accumulation order).
//! * [`BandIndex`] — exact candidate pruning for eps-region queries by
//!   banding on a Lipschitz key. A key `f` with `|f(a) − f(b)| ≤ L·‖a − b‖`
//!   turns `‖a − b‖ ≤ eps` into the *necessary* condition
//!   `|f(a) − f(b)| ≤ L·eps`, so scanning only the points whose key lies
//!   in `f(q) ± L·eps` can never drop a true eps-neighbour. Two keys
//!   compete per input: the L2 norm (reverse triangle inequality, `L = 1`)
//!   and the projection onto the points' first principal axis `w`
//!   (Cauchy–Schwarz, `L = ‖w‖`). The index counts the band pairs each key
//!   lets through and keeps the smaller. The band is widened by a slack
//!   that covers floating-point rounding in the *computed* keys; since
//!   every candidate is still distance-checked exactly, widening affects
//!   cost, never correctness.
//! * `BlockedRows` (crate-internal) — a row copy split into an 8-coordinate
//!   head block, one cache line per row, and a tail block with the rest.
//!   Its distance kernel accumulates and checks in exactly the order of
//!   [`sq_dist_bounded`], so a pair that aborts at the first checkpoint —
//!   most band pairs on real CM vectors — reads 64 bytes, not a full row.

/// Absolute slack added to each side of a band. A computed key differs
/// from the real one by a few ulps; the band is a *necessary*-condition
/// filter, so erring wide is free (a handful of extra candidates) while
/// erring narrow would lose true neighbours.
const BAND_SLACK: f64 = 1e-7;

/// Power iterations toward the principal axis. Exactness needs only the
/// computed `‖w‖`, not convergence, so a partly converged axis costs band
/// width, never labels.
const POWER_ITERATIONS: usize = 32;

/// Rows the covariance behind the principal axis is summed over, at most
/// (an evenly strided subset beyond it). Any axis keeps the band exact;
/// the cap keeps its O(rows·dim²) cost under a millisecond or so, a few
/// percent of the smallest clustering runs it has to pay for itself on.
const AXIS_SAMPLE: usize = 2048;

/// Coordinates between two bound checks of [`sq_dist_bounded`]; also the
/// width of the head block of `BlockedRows`.
const CHUNK: usize = 8;

/// Row-major n×d point storage in one contiguous allocation.
///
/// All rows share one `Vec<f64>`; `row(i)` is a zero-copy slice. The
/// clustering kernels (DBSCAN region queries, k-means assignment,
/// silhouette, nearest-centroid) all iterate rows sequentially, so the
/// flat layout turns their inner loops into linear scans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointMatrix {
    data: Vec<f64>,
    dim: usize,
    rows: usize,
}

impl PointMatrix {
    /// An empty matrix whose rows will have `dim` entries.
    pub fn with_dim(dim: usize) -> Self {
        PointMatrix {
            data: Vec::new(),
            dim,
            rows: 0,
        }
    }

    /// Copies a `Vec<Vec<f64>>`-shaped point set into flat storage.
    ///
    /// Panics if rows disagree on length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dim = rows.first().map_or(0, |r| r.len());
        let mut m = PointMatrix {
            data: Vec::with_capacity(dim * rows.len()),
            dim,
            rows: 0,
        };
        for r in rows {
            m.push(r);
        }
        m
    }

    /// Appends one point. Panics if `row.len()` differs from the matrix
    /// dimension.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "ragged row pushed into PointMatrix");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the matrix holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Entries per point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th point as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..i * self.dim + self.dim]
    }

    /// Iterates the points in row order.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        (0..self.rows).map(move |i| self.row(i))
    }

    /// A new matrix holding `indices`' rows, in `indices` order.
    pub fn gather(&self, indices: &[usize]) -> PointMatrix {
        let mut out = PointMatrix {
            data: Vec::with_capacity(indices.len() * self.dim),
            dim: self.dim,
            rows: 0,
        };
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
            out.rows += 1;
        }
        out
    }

    /// Copies the matrix back into one `Vec<f64>` per point.
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        (0..self.rows).map(|i| self.row(i).to_vec()).collect()
    }
}

/// Squared Euclidean distance with an early abort: `Some(sq)` iff the full
/// squared distance is `≤ bound`, `None` otherwise (including when any
/// coordinate is NaN — NaN distances never satisfy `≤`, matching the
/// behaviour of `sq_dist(a, b) <= bound`).
///
/// The sum accumulates in the same left-to-right order as
/// [`crate::sq_dist`], checking the bound every 8 dimensions; the
/// returned value is therefore bit-identical to `sq_dist`. Partial sums of
/// non-negative terms are monotone non-decreasing under IEEE-754
/// round-to-nearest, so an intermediate abort is exact: the full sum could
/// only have been larger.
#[inline]
pub fn sq_dist_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    sq_dist_bounded_from(0.0, a, b, bound)
}

/// [`sq_dist_bounded`] continued from the partial sum `s` of the
/// coordinates before `a` and `b`, checking after every [`CHUNK`] more.
#[inline(always)]
fn sq_dist_bounded_from(mut s: f64, a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut i = 0;
    while i < n {
        let end = (i + CHUNK).min(n);
        while i < end {
            let d = a[i] - b[i];
            s += d * d;
            i += 1;
        }
        if s > bound {
            return None;
        }
    }
    // NaN sums fall through the `>` checks above; the final `<=` rejects
    // them, preserving `sq_dist(a, b) <= bound` exactly.
    if s <= bound {
        Some(s)
    } else {
        None
    }
}

/// L2 norm of `point`, summed left to right.
#[inline]
fn l2_norm(point: &[f64]) -> f64 {
    let mut s = 0.0;
    for &x in point {
        s += x * x;
    }
    s.sqrt()
}

/// An exact eps-region candidate filter: points sorted by a Lipschitz
/// key, so a region query only scans the band `|key(c) − key(q)| ≤ L·eps`
/// (plus slack) instead of the whole collection.
///
/// The key is the L2 norm or the projection onto the first principal axis
/// of the indexed points, whichever puts fewer pairs into one another's
/// bands (see the module docs). Points whose key is not finite (any NaN
/// or infinite coordinate) are keyed as `+∞`: they sort to the end, match
/// only bands around `+∞`, and the exact distance check rejects them
/// wherever they do not belong — mirroring the brute-force scan, where a
/// NaN point neighbours nothing, not even itself.
#[derive(Debug, Clone)]
pub struct BandIndex {
    /// Positions into the indexed rows, sorted ascending by key.
    order: Vec<u32>,
    /// Key of `order[k]` (ascending; non-finite keys mapped to `+∞`).
    sorted_keys: Vec<f64>,
    /// The unit projection axis, or `None` for the L2-norm key.
    axis: Option<Vec<f64>>,
    /// Half-width of every band: `eps` times the key's computed Lipschitz
    /// constant, plus the rounding slack.
    half_width: f64,
}

impl BandIndex {
    /// Builds the index for eps-region queries over every row of `points`.
    pub fn build(points: &PointMatrix, eps: f64) -> Self {
        assert!(
            points.len() <= u32::MAX as usize,
            "BandIndex supports up to u32::MAX points"
        );
        let rows: Vec<u32> = (0..points.len() as u32).collect();
        Self::build_over(points, &rows, eps)
    }

    /// Builds the index over the rows of `points` listed in `rows`;
    /// [`BandIndex::order`] then holds positions into `rows`.
    ///
    /// Both keys are computed and sorted, and the one whose bands hold
    /// fewer upper-half pairs (the pairs a half-band scan visits) is kept;
    /// ties keep the norm. Every step runs sequentially, so the choice
    /// depends on the rows alone, never on a thread count.
    pub fn build_over(points: &PointMatrix, rows: &[u32], eps: f64) -> Self {
        assert!(
            rows.len() <= u32::MAX as usize,
            "BandIndex supports up to u32::MAX points"
        );
        // Region queries test against eps², so only |eps| matters; a
        // non-negative half-width also keeps every band's end at or past
        // its start, which `band_ends` relies on.
        let eps = eps.abs();
        let row = |p: &u32| points.row(*p as usize);
        // A computed key is within about `dim` ulps of `L·‖point‖` of the
        // real one, and a pair within eps has both norms below
        // `reach + eps`. Folded into the slack, this keeps the band exact
        // at any magnitude; it outgrows `BAND_SLACK` only once row norms
        // reach the millions.
        let reach = rows
            .iter()
            .map(row)
            .filter(|r| r.iter().all(|x| x.is_finite()))
            .map(l2_norm)
            .fold(0.0, f64::max);
        let rounding = 2.0 * (points.dim() as f64 + 4.0) * f64::EPSILON * (2.0 * reach + eps);
        let norm = Self::sorted(rows.iter().map(row), None, eps + BAND_SLACK + rounding);
        let Some(axis) = principal_axis(rows.iter().map(row), points.dim()) else {
            return norm;
        };
        let lipschitz = l2_norm(&axis);
        let projected = Self::sorted(
            rows.iter().map(row),
            Some(axis),
            (eps + rounding) * lipschitz + BAND_SLACK,
        );
        if projected.upper_band_pairs() < norm.upper_band_pairs() {
            projected
        } else {
            norm
        }
    }

    /// Keys every row, sorts the positions by key (ties by position).
    fn sorted<'a>(
        rows: impl Iterator<Item = &'a [f64]>,
        axis: Option<Vec<f64>>,
        half_width: f64,
    ) -> Self {
        let mut index = BandIndex {
            order: Vec::new(),
            sorted_keys: Vec::new(),
            axis,
            half_width,
        };
        let keys: Vec<f64> = rows.map(|r| index.key_of(r)).collect();
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        // Keys are finite or +∞, so total_cmp agrees with `<` and
        // the binary searches below can use plain comparisons.
        order.sort_by(|&a, &b| {
            keys[a as usize]
                .total_cmp(&keys[b as usize])
                .then(a.cmp(&b))
        });
        index.sorted_keys = order.iter().map(|&i| keys[i as usize]).collect();
        index.order = order;
        index
    }

    /// Candidate pairs `(r, c)`, `r < c`, with `c` inside `r`'s band: the
    /// distance work of one half-band pass under this key.
    fn upper_band_pairs(&self) -> u64 {
        self.band_ends()
            .iter()
            .enumerate()
            .map(|(r, &end)| (end as usize).saturating_sub(r + 1) as u64)
            .sum()
    }

    /// `band_range(key_at(r)).end` for every rank `r`, in one two-pointer
    /// sweep: the band's upper edge `key + half_width` never decreases
    /// with the rank, so neither does its end.
    pub fn band_ends(&self) -> Vec<u32> {
        let mut end = 0;
        self.sorted_keys
            .iter()
            .map(|&key| {
                let hi = key + self.half_width;
                while end < self.sorted_keys.len() && self.sorted_keys[end] <= hi {
                    end += 1;
                }
                end as u32
            })
            .collect()
    }

    /// The band-search key for one point. Non-finite keys (a NaN or
    /// infinite coordinate) map to `+∞`, so comparisons stay total and
    /// such a point meets only bands that reach `+∞` — it neighbours
    /// nothing at finite eps, and at infinite eps every band reaches it. A
    /// point need not be indexed to be keyed.
    #[inline]
    pub fn key_of(&self, point: &[f64]) -> f64 {
        let key = match &self.axis {
            None => l2_norm(point),
            Some(axis) => {
                debug_assert_eq!(point.len(), axis.len());
                let mut s = 0.0;
                for (x, w) in point.iter().zip(axis) {
                    s += x * w;
                }
                s
            }
        };
        if key.is_finite() {
            key
        } else {
            f64::INFINITY
        }
    }

    /// Whether the index keys by projection onto the principal axis
    /// rather than by L2 norm.
    pub fn uses_axis(&self) -> bool {
        self.axis.is_some()
    }

    /// Positions of every indexed point whose key lies within the band
    /// half-width of `key` — a superset of the true eps-neighbourhood of
    /// any query point with that key. Returned in ascending-key order,
    /// *not* position order.
    pub fn band(&self, key: f64) -> &[u32] {
        &self.order[self.band_range(key)]
    }

    /// The same band as [`BandIndex::band`], but as a range of key *ranks*
    /// — positions into [`BandIndex::order`]. A caller that has permuted
    /// its point storage into key order can scan this range as contiguous
    /// rows instead of chasing `order[...]` indirections.
    pub fn band_range(&self, key: f64) -> std::ops::Range<usize> {
        let lo = key - self.half_width;
        let hi = key + self.half_width;
        let start = self.sorted_keys.partition_point(|&k| k < lo);
        let end = self.sorted_keys.partition_point(|&k| k <= hi);
        start..end.max(start)
    }

    /// The key-rank permutation: `order()[r]` is the position (among the
    /// indexed rows) of the point with key rank `r`.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Key of the point with rank `r` — exactly what
    /// [`BandIndex::key_of`] returns for that point.
    pub fn key_at(&self, rank: usize) -> f64 {
        self.sorted_keys[rank]
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// The first principal axis (unit length) of the rows with only finite
/// coordinates among every `⌈n / AXIS_SAMPLE⌉`-th row: their covariance,
/// then [`POWER_ITERATIONS`] steps of power iteration. `None` when fewer
/// than two such rows exist or the covariance is zero or not finite. The
/// sums run in row order on one thread, so the axis is a function of the
/// rows.
fn principal_axis<'a>(
    rows: impl ExactSizeIterator<Item = &'a [f64]> + Clone,
    dim: usize,
) -> Option<Vec<f64>> {
    let step = rows.len().div_ceil(AXIS_SAMPLE).max(1);
    let finite = rows
        .step_by(step)
        .filter(|r| r.iter().all(|x| x.is_finite()));
    let count = finite.clone().count();
    if count < 2 || dim == 0 {
        return None;
    }
    let mut mean = vec![0.0; dim];
    for r in finite.clone() {
        for (m, x) in mean.iter_mut().zip(r) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= count as f64;
    }
    // Upper triangle of the (unnormalised) covariance, then mirrored.
    let mut cov = vec![0.0; dim * dim];
    let mut centred = vec![0.0; dim];
    for r in finite {
        for ((c, x), m) in centred.iter_mut().zip(r).zip(&mean) {
            *c = x - m;
        }
        for a in 0..dim {
            let ca = centred[a];
            for (slot, cb) in cov[a * dim + a..(a + 1) * dim]
                .iter_mut()
                .zip(&centred[a..])
            {
                *slot += ca * cb;
            }
        }
    }
    for a in 0..dim {
        for b in 0..a {
            cov[a * dim + b] = cov[b * dim + a];
        }
    }
    let normalise = |v: &mut [f64]| {
        let norm = l2_norm(v);
        if !(norm > 0.0 && norm.is_finite()) {
            return false;
        }
        for x in v.iter_mut() {
            *x /= norm;
        }
        true
    };
    // Start on the coordinate axis of largest variance: unlike the vector
    // of variances, it is not orthogonal to the principal axis of a cloud
    // stretched along an anti-diagonal.
    let widest = (0..dim).fold(0, |best, a| {
        if cov[a * dim + a] > cov[best * dim + best] {
            a
        } else {
            best
        }
    });
    let mut axis = vec![0.0; dim];
    axis[widest] = 1.0;
    let mut next = vec![0.0; dim];
    for _ in 0..POWER_ITERATIONS {
        if !normalise(&mut axis) {
            return None;
        }
        for (slot, cov_row) in next.iter_mut().zip(cov.chunks_exact(dim)) {
            *slot = cov_row.iter().zip(&axis).map(|(c, x)| c * x).sum();
        }
        std::mem::swap(&mut axis, &mut next);
    }
    normalise(&mut axis).then_some(axis)
}

/// The first [`CHUNK`] coordinates of one row, on one cache line; zero
/// past the row's dimension (adding `0·0` leaves a sum's bits unchanged).
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
pub(crate) struct Head([f64; CHUNK]);

impl Head {
    fn of(row: &[f64]) -> Self {
        let mut head = [0.0; CHUNK];
        let k = row.len().min(CHUNK);
        head[..k].copy_from_slice(&row[..k]);
        Head(head)
    }
}

/// A query point in the split form [`BlockedRows::sq_dist_bounded`] reads.
#[derive(Clone, Copy)]
pub(crate) struct Query<'a> {
    head: Head,
    tail: &'a [f64],
}

impl<'a> Query<'a> {
    /// Splits `row` into its head and tail.
    pub(crate) fn of(row: &'a [f64]) -> Self {
        Query {
            head: Head::of(row),
            tail: row.get(CHUNK..).unwrap_or(&[]),
        }
    }
}

/// Rows stored as two blocks: the first [`CHUNK`] coordinates of every row
/// (64-byte aligned, one cache line each), then the remaining coordinates.
/// Same bytes as a row-major copy for `dim ≥ 8`, but a distance that
/// aborts at the first checkpoint touches only the head block, which for
/// tens of thousands of rows stays cache-resident.
#[derive(Debug, Clone)]
pub(crate) struct BlockedRows {
    head: Vec<Head>,
    tail: Vec<f64>,
    tail_dim: usize,
}

impl BlockedRows {
    /// Copies `rows` of `points`, in iteration order.
    pub(crate) fn gather(points: &PointMatrix, rows: impl ExactSizeIterator<Item = usize>) -> Self {
        let tail_dim = points.dim().saturating_sub(CHUNK);
        let mut blocked = BlockedRows {
            head: Vec::with_capacity(rows.len()),
            tail: Vec::with_capacity(rows.len() * tail_dim),
            tail_dim,
        };
        for i in rows {
            let row = points.row(i);
            blocked.head.push(Head::of(row));
            blocked
                .tail
                .extend_from_slice(row.get(CHUNK..).unwrap_or(&[]));
        }
        blocked
    }

    /// Stored row `r` as a query.
    #[inline]
    pub(crate) fn query(&self, r: usize) -> Query<'_> {
        Query {
            head: self.head[r],
            tail: &self.tail[r * self.tail_dim..(r + 1) * self.tail_dim],
        }
    }

    /// [`sq_dist_bounded`] between `q` and stored row `c`, bit for bit:
    /// the same left-to-right sum with the same checkpoints after every
    /// [`CHUNK`] coordinates. Only a pair that survives the first
    /// checkpoint reads the tail block.
    #[inline(always)]
    pub(crate) fn sq_dist_bounded(&self, q: &Query<'_>, c: usize, bound: f64) -> Option<f64> {
        let s = sq_dist_bounded_from(0.0, &q.head.0, &self.head[c].0, bound)?;
        let tail = &self.tail[c * self.tail_dim..(c + 1) * self.tail_dim];
        sq_dist_bounded_from(s, q.tail, tail, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sq_dist;

    #[test]
    fn matrix_round_trips_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = PointMatrix::from_rows(&rows);
        assert_eq!((m.len(), m.dim()), (3, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.to_rows(), rows);
        assert_eq!(m.iter_rows().count(), 3);
        let g = m.gather(&[2, 0]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
    }

    #[test]
    fn empty_and_zero_dim_matrices() {
        let m = PointMatrix::from_rows(&[]);
        assert!(m.is_empty());
        assert_eq!(m.iter_rows().count(), 0);
        let z = PointMatrix::from_rows(&[vec![], vec![]]);
        assert_eq!((z.len(), z.dim()), (2, 0));
        assert_eq!(z.row(1), &[] as &[f64]);
    }

    #[test]
    fn push_fixes_dimension() {
        let mut m = PointMatrix::with_dim(3);
        m.push(&[1.0, 2.0, 3.0]);
        assert_eq!((m.len(), m.dim()), (1, 3));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_push_panics() {
        let mut m = PointMatrix::with_dim(2);
        m.push(&[1.0]);
    }

    #[test]
    fn bounded_distance_matches_exact_within_bound() {
        let a: Vec<f64> = (0..28).map(|i| (i as f64) * 0.13).collect();
        let b: Vec<f64> = (0..28).map(|i| (i as f64) * 0.11 + 0.5).collect();
        let exact = sq_dist(&a, &b);
        // Within the bound: bit-identical value.
        assert_eq!(sq_dist_bounded(&a, &b, exact), Some(exact));
        assert_eq!(sq_dist_bounded(&a, &b, exact * 2.0), Some(exact));
        // Beyond the bound: pruned.
        assert_eq!(sq_dist_bounded(&a, &b, exact * 0.99), None);
        assert_eq!(sq_dist_bounded(&a, &b, 0.0), None);
    }

    #[test]
    fn bounded_distance_rejects_nan_like_the_predicate() {
        let a = [f64::NAN, 0.0];
        let b = [0.0, 0.0];
        assert_eq!(sq_dist_bounded(&a, &b, f64::INFINITY), None);
        assert_eq!(sq_dist_bounded(&a, &a, 1.0), None);
        // The predicate it mirrors: a NaN distance satisfies no bound.
        let nan_within_bound = sq_dist(&a, &b) <= f64::INFINITY;
        assert!(!nan_within_bound);
    }

    #[test]
    fn blocked_distance_matches_bounded_bit_for_bit() {
        // Dimensions below, at and across the head width; bounds that
        // abort at each checkpoint, pass, or meet the sum exactly.
        for dim in [0usize, 3, 8, 9, 16, 28] {
            let rows: Vec<Vec<f64>> = (0..6)
                .map(|k| {
                    (0..dim)
                        .map(|i| ((i * 7 + k * 13) % 11) as f64 * 0.17)
                        .collect()
                })
                .collect();
            let mut with_nan = rows[1].clone();
            if let Some(x) = with_nan.last_mut() {
                *x = f64::NAN;
            }
            let mut all = rows.clone();
            all.push(with_nan);
            let m = PointMatrix::from_rows(&all);
            let blocked = BlockedRows::gather(&m, 0..m.len());
            for a in 0..m.len() {
                for b in 0..m.len() {
                    let exact = sq_dist(m.row(a), m.row(b));
                    for bound in [0.0, 0.5, exact * 0.5, exact, exact * 2.0, f64::INFINITY] {
                        let want = sq_dist_bounded(m.row(a), m.row(b), bound);
                        let from_stored = blocked.sq_dist_bounded(&blocked.query(a), b, bound);
                        let from_point = blocked.sq_dist_bounded(&Query::of(m.row(a)), b, bound);
                        assert_eq!(from_stored.map(f64::to_bits), want.map(f64::to_bits));
                        assert_eq!(from_point.map(f64::to_bits), want.map(f64::to_bits));
                    }
                }
            }
        }
    }

    /// The two-pointer sweep agrees with the binary-searched band of every
    /// rank.
    fn assert_band_ends_match_ranges(idx: &BandIndex) {
        let ends: Vec<usize> = idx.band_ends().iter().map(|&e| e as usize).collect();
        let ranges: Vec<usize> = (0..idx.len())
            .map(|r| idx.band_range(idx.key_at(r)).end)
            .collect();
        assert_eq!(ends, ranges);
    }

    #[test]
    fn band_contains_all_true_neighbours() {
        // Brute-force cross-check on a small deterministic cloud.
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let x = ((i * 37) % 17) as f64 / 5.0;
                let y = ((i * 53) % 23) as f64 / 7.0;
                vec![x, y]
            })
            .collect();
        let m = PointMatrix::from_rows(&rows);
        let eps = 0.8;
        let idx = BandIndex::build(&m, eps);
        assert_band_ends_match_ranges(&idx);
        for q in 0..m.len() {
            let band = idx.band(idx.key_of(m.row(q)));
            for j in 0..m.len() {
                if sq_dist(m.row(q), m.row(j)) <= eps * eps {
                    assert!(
                        band.contains(&(j as u32)),
                        "band dropped true neighbour {j} of {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn band_is_exact_far_from_the_origin() {
        // Near 1e10 a computed key is off by microunits, far more than the
        // absolute slack; the magnitude term of the slack must cover it.
        // Each base point gets partners just inside eps along its own
        // radius and along a random direction.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1_000_001) as f64 / 1e6
        };
        let mut rows = Vec::new();
        for _ in 0..100 {
            let base: Vec<f64> = (0..28).map(|_| 1e10 * (0.5 + next())).collect();
            let dir: Vec<f64> = (0..28).map(|_| next() - 0.5).collect();
            let (base_norm, dir_norm) = (l2_norm(&base), l2_norm(&dir));
            for step in [1.0, -1.0, 0.999_999, -0.999_999] {
                rows.push(base.iter().map(|x| x + step * x / base_norm).collect());
                rows.push(
                    base.iter()
                        .zip(&dir)
                        .map(|(x, d)| x + step * d / dir_norm)
                        .collect(),
                );
            }
            rows.push(base);
        }
        let m = PointMatrix::from_rows(&rows);
        let eps = 1.0;
        let idx = BandIndex::build(&m, eps);
        assert_band_ends_match_ranges(&idx);
        let mut pairs = 0;
        for q in 0..m.len() {
            let band = idx.band(idx.key_of(m.row(q)));
            for j in 0..m.len() {
                if sq_dist(m.row(q), m.row(j)) <= eps * eps {
                    pairs += 1;
                    assert!(band.contains(&(j as u32)), "dropped {j} near {q}");
                }
            }
        }
        assert!(pairs > 2 * rows.len());
    }

    #[test]
    fn radially_spread_cloud_keeps_the_norm() {
        // Random directions in 28 dimensions at radii from 1 to 10: the
        // norms spread evenly, while every projection bunches near 0.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|i| {
                let dir: Vec<f64> = (0..28)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % 2001) as f64 / 1000.0 - 1.0
                    })
                    .collect();
                let scale = (1.0 + 9.0 * i as f64 / 300.0) / l2_norm(&dir);
                dir.iter().map(|x| x * scale).collect()
            })
            .collect();
        let m = PointMatrix::from_rows(&rows);
        assert!(!BandIndex::build(&m, 0.3).uses_axis());
    }

    #[test]
    fn elongated_cloud_keys_by_its_axis() {
        // Points along (1, −1) at constant distance from the origin's
        // direction: every norm is nearly the same, the projections spread.
        let rows: Vec<Vec<f64>> = (0..200)
            .map(|i| {
                let t = i as f64 * 0.05 - 5.0;
                vec![10.0 + t, 10.0 - t]
            })
            .collect();
        let m = PointMatrix::from_rows(&rows);
        let idx = BandIndex::build(&m, 0.3);
        assert!(idx.uses_axis());
        assert!(idx.upper_band_pairs() < 200 * 199 / 10);
    }

    #[test]
    fn degenerate_inputs_key_by_norm() {
        let same = PointMatrix::from_rows(&vec![vec![0.5, 1.5, 2.5]; 20]);
        assert!(!BandIndex::build(&same, 0.3).uses_axis());
        let one = PointMatrix::from_rows(&[vec![0.5, 1.5]]);
        assert!(!BandIndex::build(&one, 0.3).uses_axis());
        let empty = PointMatrix::with_dim(4);
        let idx = BandIndex::build(&empty, 0.3);
        assert!(idx.is_empty() && !idx.uses_axis());
        assert!(idx.band(0.0).is_empty());
    }

    #[test]
    fn nan_points_key_to_infinity_and_leave_finite_bands() {
        let rows = vec![vec![0.0, 0.0], vec![f64::NAN, 1.0], vec![0.1, 0.0]];
        let m = PointMatrix::from_rows(&rows);
        let idx = BandIndex::build(&m, 0.5);
        assert_band_ends_match_ranges(&idx);
        assert_eq!(idx.key_of(m.row(1)), f64::INFINITY);
        let band = idx.band(idx.key_of(m.row(0)));
        assert!(band.contains(&0) && band.contains(&2));
        assert!(!band.contains(&1));
    }
}
