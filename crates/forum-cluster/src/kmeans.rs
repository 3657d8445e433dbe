//! k-means with k-means++ seeding.
//!
//! Used where a fixed cluster count is the right tool: the Content-MR
//! ablation clusters TF/IDF segment vectors (Section 9.2.3), and k-means is
//! the distance-based contrast the paper mentions when motivating DBSCAN.
//!
//! [`kmeans`](fn@kmeans) (row slices) and [`kmeans_matrix`] (flat [`PointMatrix`]
//! storage) run the same core — same RNG call sequence, same accumulation
//! order — so their outputs are bit-identical for identical point sets.

use crate::points::{sq_dist_bounded, PointMatrix};
use crate::sq_dist;
use rand::Rng;

/// k-means parameters.
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iterations: usize,
    /// Convergence threshold on total centroid movement (squared).
    pub tolerance: f64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 4,
            max_iterations: 100,
            tolerance: 1e-9,
        }
    }
}

/// k-means outcome.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Per-point cluster assignment (always `Some`-like — k-means has no
    /// noise — but kept as plain indices).
    pub labels: Vec<usize>,
    /// Final centroids, `k` rows.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of points to their centroids.
    pub inertia: f64,
    /// Iterations executed.
    pub iterations: usize,
}

/// k-means++ seeding: the first centroid is uniform, each next one is drawn
/// with probability proportional to squared distance from the nearest
/// chosen centroid.
fn seed_plus_plus<'a, R: Rng>(
    n: usize,
    row: &impl Fn(usize) -> &'a [f64],
    k: usize,
    rng: &mut R,
) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(row(rng.gen_range(0..n)).to_vec());
    let mut d2: Vec<f64> = (0..n).map(|i| sq_dist(row(i), &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with some centroid; pick uniformly.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.push(row(next).to_vec());
        for (i, d) in d2.iter_mut().enumerate() {
            let nd = sq_dist(row(i), centroids.last().expect("just pushed"));
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

fn kmeans_core<'a, R: Rng>(
    n: usize,
    dim: usize,
    row: impl Fn(usize) -> &'a [f64],
    cfg: &KMeansConfig,
    rng: &mut R,
) -> KMeansResult {
    assert!(n > 0, "k-means on empty input");
    let k = cfg.k.clamp(1, n);

    let mut centroids = seed_plus_plus(n, &row, k, rng);
    let mut labels = vec![0usize; n];
    let mut iterations = 0;

    for iter in 0..cfg.max_iterations {
        iterations = iter + 1;
        // Assignment step. The running-best bound lets most centroid
        // distances abort early; the winning label is unchanged because a
        // pruned candidate could never have satisfied `d < best_d`.
        for (i, label) in labels.iter_mut().enumerate() {
            let p = row(i);
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                if let Some(d) = sq_dist_bounded(p, centroid, best_d) {
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
            }
            *label = best;
        }
        // Update step.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, &l) in labels.iter().enumerate() {
            counts[l] += 1;
            for (s, v) in sums[l].iter_mut().zip(row(i)) {
                *s += v;
            }
        }
        let mut movement = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                continue; // keep the old centroid for empty clusters
            }
            for s in sums[c].iter_mut() {
                *s /= counts[c] as f64;
            }
            movement += sq_dist(&sums[c], &centroids[c]);
            centroids[c] = std::mem::take(&mut sums[c]);
        }
        if movement <= cfg.tolerance {
            break;
        }
    }

    let inertia = labels
        .iter()
        .enumerate()
        .map(|(i, &l)| sq_dist(row(i), &centroids[l]))
        .sum();
    KMeansResult {
        labels,
        centroids,
        inertia,
        iterations,
    }
}

/// Runs k-means over `points`. `k` is clamped to the number of points.
///
/// ```
/// use forum_cluster::{kmeans, KMeansConfig};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
/// let points = vec![vec![0.0], vec![0.2], vec![10.0], vec![10.2]];
/// let mut rng = StdRng::seed_from_u64(1);
/// let result = kmeans(&points, &KMeansConfig { k: 2, ..Default::default() }, &mut rng);
/// assert_eq!(result.labels[0], result.labels[1]);
/// assert_ne!(result.labels[0], result.labels[2]);
/// ```
///
/// Panics on empty input.
pub fn kmeans<R: Rng>(points: &[Vec<f64>], cfg: &KMeansConfig, rng: &mut R) -> KMeansResult {
    assert!(!points.is_empty(), "k-means on empty input");
    let dim = points[0].len();
    kmeans_core(points.len(), dim, |i| points[i].as_slice(), cfg, rng)
}

/// [`kmeans`](fn@kmeans) over flat storage; bit-identical output for the same points,
/// config and RNG state.
pub fn kmeans_matrix<R: Rng>(
    points: &PointMatrix,
    cfg: &KMeansConfig,
    rng: &mut R,
) -> KMeansResult {
    assert!(!points.is_empty(), "k-means on empty input");
    kmeans_core(points.len(), points.dim(), |i| points.row(i), cfg, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            pts.push(vec![0.0 + (i as f64) * 0.01, 0.0]);
            pts.push(vec![10.0 + (i as f64) * 0.01, 0.0]);
        }
        pts
    }

    #[test]
    fn separates_two_blobs() {
        let pts = two_blobs();
        let mut rng = StdRng::seed_from_u64(1);
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
            &mut rng,
        );
        // Points at even indices (left blob) share a label; odd share the
        // other.
        let left = res.labels[0];
        let right = res.labels[1];
        assert_ne!(left, right);
        for i in (0..pts.len()).step_by(2) {
            assert_eq!(res.labels[i], left);
        }
        for i in (1..pts.len()).step_by(2) {
            assert_eq!(res.labels[i], right);
        }
    }

    #[test]
    fn inertia_decreases_with_k() {
        let pts = two_blobs();
        let mut rng = StdRng::seed_from_u64(2);
        let i1 = kmeans(
            &pts,
            &KMeansConfig {
                k: 1,
                ..Default::default()
            },
            &mut rng,
        )
        .inertia;
        let i2 = kmeans(
            &pts,
            &KMeansConfig {
                k: 2,
                ..Default::default()
            },
            &mut rng,
        )
        .inertia;
        assert!(i2 < i1);
    }

    #[test]
    fn k_clamped_to_point_count() {
        let pts = vec![vec![0.0], vec![1.0]];
        let mut rng = StdRng::seed_from_u64(3);
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 10,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(res.centroids.len(), 2);
    }

    #[test]
    fn identical_points_converge_immediately() {
        let pts = vec![vec![5.0, 5.0]; 8];
        let mut rng = StdRng::seed_from_u64(4);
        let res = kmeans(
            &pts,
            &KMeansConfig {
                k: 3,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(res.inertia < 1e-12);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let pts = two_blobs();
        let r1 = kmeans(
            &pts,
            &KMeansConfig::default(),
            &mut StdRng::seed_from_u64(9),
        );
        let r2 = kmeans(
            &pts,
            &KMeansConfig::default(),
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(r1.labels, r2.labels);
    }

    #[test]
    fn matrix_variant_is_bit_identical() {
        let pts = two_blobs();
        let m = PointMatrix::from_rows(&pts);
        for seed in [1u64, 5, 9] {
            let a = kmeans(
                &pts,
                &KMeansConfig::default(),
                &mut StdRng::seed_from_u64(seed),
            );
            let b = kmeans_matrix(
                &m,
                &KMeansConfig::default(),
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(a.labels, b.labels, "seed {seed}");
            assert_eq!(a.centroids, b.centroids, "seed {seed}");
            assert_eq!(a.inertia.to_bits(), b.inertia.to_bits(), "seed {seed}");
            assert_eq!(a.iterations, b.iterations, "seed {seed}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_input_panics() {
        kmeans(&[], &KMeansConfig::default(), &mut StdRng::seed_from_u64(0));
    }
}
