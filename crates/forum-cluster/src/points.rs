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
//! * [`NormIndex`] — exact candidate pruning for eps-region queries via
//!   L2-norm banding. The reverse triangle inequality gives
//!   `|‖a‖ − ‖b‖| ≤ ‖a − b‖`, so `‖a − b‖ ≤ eps` *requires*
//!   `|‖a‖ − ‖b‖| ≤ eps`: scanning only the points whose norm falls in
//!   `[‖q‖ − eps, ‖q‖ + eps]` can never drop a true eps-neighbour. The
//!   band is widened by a small absolute slack to cover floating-point
//!   rounding in the *computed* norms; since every candidate is still
//!   distance-checked exactly, widening affects cost, never correctness.

/// Absolute slack added to each side of a norm band. The computed norm of
/// a point differs from the real one by a few ulps; the band is a
/// *necessary*-condition filter, so erring wide is free (a handful of
/// extra candidates) while erring narrow would lose true neighbours.
const NORM_BAND_SLACK: f64 = 1e-7;

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
/// [`crate::sq_dist`], checking the bound every 8 dimensions; the returned
/// value is therefore bit-identical to `sq_dist`. Partial sums of
/// non-negative terms are monotone non-decreasing under IEEE-754
/// round-to-nearest, so an intermediate abort is exact: the full sum could
/// only have been larger.
#[inline]
pub fn sq_dist_bounded(a: &[f64], b: &[f64], bound: f64) -> Option<f64> {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut s = 0.0;
    let mut i = 0;
    while i < n {
        let end = (i + 8).min(n);
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

/// An exact eps-region candidate filter: points sorted by L2 norm, so a
/// region query only scans the band `|‖candidate‖ − ‖query‖| ≤ eps`
/// (plus `NORM_BAND_SLACK`) instead of the whole collection.
///
/// Points whose norm is NaN (any NaN coordinate) are keyed as `+∞`: they
/// sort to the end, match only bands around `+∞`, and the exact distance
/// check rejects them wherever they do appear — mirroring the brute-force
/// scan, where a NaN point neighbours nothing, not even itself.
#[derive(Debug, Clone)]
pub struct NormIndex {
    /// Point indices sorted ascending by norm key.
    order: Vec<u32>,
    /// Norm key of `order[k]` (ascending; NaN norms mapped to `+∞`).
    sorted_keys: Vec<f64>,
}

impl NormIndex {
    /// The band-search key for one point: its L2 norm, with NaN mapped to
    /// `+∞` so comparisons stay total.
    #[inline]
    pub fn key_of(point: &[f64]) -> f64 {
        let mut s = 0.0;
        for &x in point {
            s += x * x;
        }
        let norm = s.sqrt();
        if norm.is_nan() {
            f64::INFINITY
        } else {
            norm
        }
    }

    /// Builds the index over every row of `points`.
    pub fn build(points: &PointMatrix) -> Self {
        assert!(
            points.len() <= u32::MAX as usize,
            "NormIndex supports up to u32::MAX points"
        );
        let keys: Vec<f64> = (0..points.len())
            .map(|i| Self::key_of(points.row(i)))
            .collect();
        let mut order: Vec<u32> = (0..points.len() as u32).collect();
        // Keys are NaN-free (NaN → +∞), so total_cmp agrees with `<` and
        // the binary searches below can use plain comparisons.
        order.sort_by(|&a, &b| {
            keys[a as usize]
                .total_cmp(&keys[b as usize])
                .then(a.cmp(&b))
        });
        let sorted_keys = order.iter().map(|&i| keys[i as usize]).collect();
        NormIndex { order, sorted_keys }
    }

    /// Indices of every point whose norm key lies within `eps` (+ slack)
    /// of `key` — a superset of the true eps-neighbourhood of any query
    /// point with that norm. Returned in ascending-norm order, *not*
    /// index order.
    pub fn band(&self, key: f64, eps: f64) -> &[u32] {
        &self.order[self.band_range(key, eps)]
    }

    /// The same band as [`NormIndex::band`], but as a range of norm
    /// *ranks* — positions into [`NormIndex::order`]. A caller that has
    /// permuted its point storage into norm order can scan this range as
    /// contiguous rows instead of chasing `order[...]` indirections.
    pub fn band_range(&self, key: f64, eps: f64) -> std::ops::Range<usize> {
        let lo = key - eps - NORM_BAND_SLACK;
        let hi = key + eps + NORM_BAND_SLACK;
        let start = self.sorted_keys.partition_point(|&k| k < lo);
        let end = self.sorted_keys.partition_point(|&k| k <= hi);
        start..end.max(start)
    }

    /// The norm-rank permutation: `order()[r]` is the original index of
    /// the point with norm rank `r`.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Norm key of the point with rank `r` — exactly what
    /// [`NormIndex::key_of`] returned for `order()[r]` at build time.
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
        let idx = NormIndex::build(&m);
        let eps = 0.8;
        for q in 0..m.len() {
            let band = idx.band(NormIndex::key_of(m.row(q)), eps);
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
    fn nan_points_key_to_infinity_and_leave_finite_bands() {
        let rows = vec![vec![0.0, 0.0], vec![f64::NAN, 1.0], vec![0.1, 0.0]];
        let m = PointMatrix::from_rows(&rows);
        let idx = NormIndex::build(&m);
        assert_eq!(NormIndex::key_of(m.row(1)), f64::INFINITY);
        let band = idx.band(NormIndex::key_of(m.row(0)), 0.5);
        assert!(band.contains(&0) && band.contains(&2));
        assert!(!band.contains(&1));
    }
}
