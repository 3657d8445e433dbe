//! Clustering substrate for segment grouping (Section 6 of the paper).
//!
//! * [`feature`] — the 28-dimensional segment weight vectors of Eqs. 5 & 6:
//!   14 within-segment relative weights plus 14 segment-vs-whole-post
//!   weights, one pair per CM feature of Table 1.
//! * [`dbscan`](mod@dbscan) — DBSCAN (Ester et al., 1996), the paper's clustering
//!   choice: no a-priori cluster count, arbitrary shapes, and a noise
//!   notion. Includes a sampled variant for collections whose segment count
//!   makes the exact O(n²) neighbourhood search impractical.
//! * [`kmeans`](mod@kmeans) — k-means with k-means++ seeding, used for the Content-MR
//!   ablation (clustering TF/IDF vectors needs a fixed k) and comparisons.
//! * [`silhouette`] — silhouette scores for cluster-quality reporting.
//! * [`assign`] — nearest-centroid assignment of new points to a frozen
//!   clustering, with an epsilon gate that preserves DBSCAN's noise notion
//!   (the live-ingestion path).
//! * [`points`] — flat row-major point storage ([`PointMatrix`]) shared by
//!   every kernel above, plus the exact region-query accelerators: the
//!   early-abort [`sq_dist_bounded`], the [`BandIndex`] that bands on the
//!   L2 norm or the principal-axis projection (whichever passes fewer
//!   pairs), and the two-block row copy DBSCAN scans. DBSCAN itself
//!   clusters each bit-distinct row once.

pub mod assign;
pub mod dbscan;
pub mod feature;
pub mod kmeans;
pub mod points;
pub mod silhouette;

pub use assign::{
    assign_nearest, assign_nearest_matrix, nearest_centroid, nearest_centroid_matrix,
};
pub use dbscan::{
    dbscan, dbscan_matrix, dbscan_reference, dbscan_sampled, dbscan_sampled_matrix, DbscanConfig,
    DbscanResult, DbscanStats,
};
pub use feature::{segment_features, SEGMENT_FEATURE_DIM};
pub use kmeans::{kmeans, kmeans_matrix, KMeansConfig, KMeansResult};
pub use points::{sq_dist_bounded, BandIndex, PointMatrix};
pub use silhouette::{mean_silhouette, mean_silhouette_matrix};

/// Squared Euclidean distance between two equal-length vectors.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s
}

/// Euclidean distance between two equal-length vectors.
#[inline]
pub fn dist(a: &[f64], b: &[f64]) -> f64 {
    sq_dist(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert!((dist(&a, &b) - 5.0).abs() < 1e-12);
        assert!((sq_dist(&a, &b) - 25.0).abs() < 1e-12);
        assert_eq!(dist(&a, &a), 0.0);
    }
}
