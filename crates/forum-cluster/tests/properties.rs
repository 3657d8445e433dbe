//! Property-based tests for the clustering substrate.

use forum_cluster::{
    dbscan, dbscan_matrix, dbscan_reference, dbscan_sampled_matrix, kmeans, segment_features,
    sq_dist_bounded, BandIndex, DbscanConfig, DbscanResult, KMeansConfig, PointMatrix,
};
use forum_nlp::cm::DistTables;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_tables() -> impl Strategy<Value = DistTables> {
    (
        proptest::array::uniform3(0u32..8),
        proptest::array::uniform3(0u32..8),
        proptest::array::uniform3(0u32..8),
        proptest::array::uniform2(0u32..8),
        proptest::array::uniform3(0u32..8),
    )
        .prop_map(|(tense, subj, qneg, pasact, pos)| DistTables {
            tense,
            subj,
            qneg,
            pasact,
            pos,
        })
}

proptest! {
    /// Feature vectors are finite, 28-dimensional, type-1 blocks in [0, 1]
    /// summing to 1 per CM when the CM is present.
    #[test]
    fn segment_features_are_well_formed(seg in arb_tables(), extra in arb_tables()) {
        let mut whole = seg;
        whole.add_assign(&extra); // whole ⊇ segment
        let f = segment_features(&seg, &whole);
        prop_assert_eq!(f.len(), 28);
        for &x in &f {
            prop_assert!(x.is_finite());
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&x));
        }
        // Type-2 weights cannot exceed 1 because whole ⊇ segment.
        for &x in &f[14..] {
            prop_assert!(x <= 1.0 + 1e-12);
        }
    }

    /// DBSCAN labels are always within range and cluster ids are dense.
    #[test]
    fn dbscan_labels_are_valid(
        points in proptest::collection::vec(
            proptest::array::uniform2(0.0f64..10.0), 0..60),
        eps in 0.1f64..3.0,
        min_pts in 2usize..8,
    ) {
        let pts: Vec<Vec<f64>> = points.iter().map(|p| p.to_vec()).collect();
        let res = dbscan(&pts, &DbscanConfig { eps, min_pts });
        prop_assert_eq!(res.labels.len(), pts.len());
        let mut seen = vec![false; res.num_clusters];
        for l in res.labels.iter().flatten() {
            prop_assert!(*l < res.num_clusters);
            seen[*l] = true;
        }
        // Every cluster id is used.
        prop_assert!(seen.iter().all(|&s| s));
        // Centroid count matches.
        prop_assert_eq!(res.centroids(&pts).len(), res.num_clusters);
    }

    /// k-means assigns every point to its nearest centroid (Lloyd fixpoint
    /// property at convergence) and labels are within range.
    #[test]
    fn kmeans_labels_are_nearest_centroid(
        points in proptest::collection::vec(
            proptest::array::uniform2(0.0f64..10.0), 1..50),
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let pts: Vec<Vec<f64>> = points.iter().map(|p| p.to_vec()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let res = kmeans(&pts, &KMeansConfig { k, max_iterations: 200, tolerance: 0.0 }, &mut rng);
        for (p, &l) in pts.iter().zip(&res.labels) {
            prop_assert!(l < res.centroids.len());
            let own = forum_cluster::sq_dist(p, &res.centroids[l]);
            for c in &res.centroids {
                prop_assert!(own <= forum_cluster::sq_dist(p, c) + 1e-9);
            }
        }
        prop_assert!(res.inertia >= 0.0);
    }
}

proptest! {
    /// The parallel engine is bit-identical to the sequential reference on
    /// random 28-dimensional point clouds, at every thread count: same
    /// labels (including noise), same cluster numbering, same count.
    #[test]
    fn parallel_dbscan_is_bit_identical_to_reference(
        points in proptest::collection::vec(
            proptest::collection::vec(0.0f64..3.0, 28..29), 0..60),
        eps in 0.5f64..4.0,
        min_pts in 2usize..8,
    ) {
        let cfg = DbscanConfig { eps, min_pts };
        let expected = dbscan_reference(&points, &cfg);
        let matrix = PointMatrix::from_rows(&points);
        for threads in [1usize, 2, 4, 8] {
            let got = dbscan_matrix(&matrix, &cfg, threads);
            prop_assert_eq!(&got.labels, &expected.labels, "labels diverge at {} threads", threads);
            prop_assert_eq!(got.num_clusters, expected.num_clusters);
        }
    }

    /// Band pruning is exact: the band around a point's key contains every
    /// true eps-neighbour among the indexed points (reverse triangle
    /// inequality for the norm key, Cauchy–Schwarz for the axis key) —
    /// pruning can only skip points that are provably out of range. Holds
    /// for query points outside the indexed set too, as the sampled path's
    /// core and assignment passes query. `stretch` pulls the cloud along
    /// an anti-diagonal so that both keys get chosen across cases.
    #[test]
    fn band_index_never_drops_a_true_neighbor(
        points in proptest::collection::vec(
            proptest::collection::vec(0.0f64..3.0, 28..29), 1..50),
        outside in proptest::collection::vec(
            proptest::collection::vec(0.0f64..3.0, 28..29), 0..20),
        indexed in 0.0f64..1.0,
        stretch in 0.0f64..20.0,
        eps in 0.1f64..4.0,
    ) {
        let stretched = |p: &Vec<f64>| {
            let mut p = p.clone();
            let t = stretch * (p[0] - 1.5);
            p[1] += t;
            p[2] -= t;
            p
        };
        let points: Vec<Vec<f64>> = points.iter().chain(&outside).map(stretched).collect();
        let matrix = PointMatrix::from_rows(&points);
        let index = BandIndex::build(&matrix, eps);
        let subset: Vec<u32> = (0..points.len() as u32)
            .filter(|&i| (i as f64 + 0.5) / (points.len() as f64) <= indexed.max(0.05))
            .collect();
        let partial = BandIndex::build_over(&matrix, &subset, eps);
        let eps2 = eps * eps;
        for (i, a) in points.iter().enumerate() {
            let band: std::collections::HashSet<u32> =
                index.band(index.key_of(a)).iter().copied().collect();
            let partial_band: std::collections::HashSet<u32> =
                partial.band(partial.key_of(a)).iter().copied().collect();
            for (j, b) in points.iter().enumerate() {
                if forum_cluster::sq_dist(a, b) <= eps2 {
                    prop_assert!(
                        band.contains(&(j as u32)),
                        "band around point {} dropped true neighbour {}", i, j
                    );
                }
            }
            for (pos, &j) in subset.iter().enumerate() {
                if forum_cluster::sq_dist(a, &points[j as usize]) <= eps2 {
                    prop_assert!(
                        partial_band.contains(&(pos as u32)),
                        "band around point {} dropped indexed neighbour {}", i, j
                    );
                }
            }
        }
    }

    /// Duplicate-heavy clouds: a few distinct rows, each repeated many
    /// times, some copies with every `0.0` turned into `-0.0` (a different
    /// bit pattern at distance 0) and some with a NaN coordinate (a row
    /// that neighbours nothing, duplicated). The collapsed engine and the
    /// sampled entry point with a covering sample cap must match the
    /// reference at every thread count.
    #[test]
    fn duplicate_heavy_clouds_match_reference(
        palette in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 28..29), 1..6),
        picks in proptest::collection::vec((0usize..64, 0u8..4), 1..120),
        eps in 0.3f64..3.0,
        min_pts in 1usize..12,
    ) {
        let points: Vec<Vec<f64>> = picks
            .iter()
            .map(|&(i, variant)| {
                let mut row: Vec<f64> =
                    palette[i % palette.len()].iter().map(|&b| b as f64 * 0.4).collect();
                match variant {
                    1 => row.iter_mut().filter(|x| **x == 0.0).for_each(|x| *x = -0.0),
                    2 => row[i % 28] = f64::NAN,
                    _ => {}
                }
                row
            })
            .collect();
        assert_engines_match_reference(&points, &DbscanConfig { eps, min_pts })?;
    }

    /// Small grid clouds, where many points sit right at `min_pts`
    /// neighbours and one pair more or less flips a core flag.
    #[test]
    fn grid_clouds_match_reference(
        cells in proptest::collection::vec((0u8..7, 0u8..7), 1..60),
        eps in 0.9f64..2.2,
        min_pts in 1usize..9,
    ) {
        let points: Vec<Vec<f64>> =
            cells.iter().map(|&(x, y)| vec![x as f64, y as f64]).collect();
        assert_engines_match_reference(&points, &DbscanConfig { eps, min_pts })?;
    }

    /// The sampled path takes its sample's cores from the exact run's own
    /// neighbour counts; the two-walk pass that recounted them over a
    /// second band walk gives the same labels bit for bit, at every thread
    /// count, with duplicates, NaN rows and `min_pts` below, at and above
    /// the scaled threshold.
    #[test]
    fn sampled_cores_match_the_two_walk_pass(
        cells in proptest::collection::vec((0u8..6, 0u8..6, 0u8..5), 2..220),
        max_sample in 1usize..200,
        eps in 0.3f64..1.6,
        min_pts in 0usize..14,
        seed in 0u64..1000,
    ) {
        let points: Vec<Vec<f64>> = cells
            .iter()
            .map(|&(x, y, v)| match v {
                0 => vec![f64::NAN, y as f64 * 0.5],
                _ => vec![x as f64 * 0.5, y as f64 * 0.5],
            })
            .collect();
        let matrix = PointMatrix::from_rows(&points);
        let cfg = DbscanConfig { eps, min_pts };
        let expected = sampled_two_walk(&matrix, &cfg, max_sample, &mut StdRng::seed_from_u64(seed));
        for threads in [1usize, 2, 4] {
            let mut rng = StdRng::seed_from_u64(seed);
            let got = dbscan_sampled_matrix(&matrix, &cfg, max_sample, threads, &mut rng);
            prop_assert_eq!(&got.labels, &expected.labels, "{} threads", threads);
            prop_assert_eq!(got.num_clusters, expected.num_clusters);
        }
    }
}

/// The engine at 1/2/4/8 threads and the sampled entry point with a
/// sample cap covering every point, each against [`dbscan_reference`].
fn assert_engines_match_reference(
    points: &[Vec<f64>],
    cfg: &DbscanConfig,
) -> Result<(), TestCaseError> {
    let expected = dbscan_reference(points, cfg);
    let matrix = PointMatrix::from_rows(points);
    let same = |got: &DbscanResult, what: &str| -> Result<(), TestCaseError> {
        prop_assert_eq!(&got.labels, &expected.labels, "labels diverge: {}", what);
        prop_assert_eq!(got.num_clusters, expected.num_clusters);
        Ok(())
    };
    for threads in [1usize, 2, 4, 8] {
        same(
            &dbscan_matrix(&matrix, cfg, threads),
            &format!("{threads} threads"),
        )?;
        let mut rng = StdRng::seed_from_u64(3);
        let sampled = dbscan_sampled_matrix(&matrix, cfg, points.len(), threads, &mut rng);
        same(&sampled, &format!("sampled, {threads} threads"))?;
    }
    Ok(())
}

#[test]
fn all_identical_input_matches_reference() {
    // Zero covariance: the band index falls back to the norm key, and the
    // collapse leaves one distinct row.
    let points = vec![vec![0.25; 28]; 40];
    for min_pts in [1, 40, 41] {
        assert_engines_match_reference(&points, &DbscanConfig { eps: 0.5, min_pts }).unwrap();
    }
    let matrix = PointMatrix::from_rows(&points);
    assert!(!BandIndex::build(&matrix, 0.5).uses_axis());
}

/// The sampled path as it was before the exact run's counts gave the
/// sample's cores: cluster the sample, then recount every labelled sample
/// point's eps-neighbours over a full two-sided band walk of the sample,
/// then assign the rest to the nearest in-eps core (ties to the earlier
/// core). The oracle for [`dbscan_sampled_matrix`].
fn sampled_two_walk(
    points: &PointMatrix,
    cfg: &DbscanConfig,
    max_sample: usize,
    rng: &mut StdRng,
) -> DbscanResult {
    use rand::seq::SliceRandom;
    let n = points.len();
    if n <= max_sample {
        return dbscan_matrix(points, cfg, 1);
    }
    let mut indices: Vec<usize> = (0..n).collect();
    indices.shuffle(rng);
    indices.truncate(max_sample);
    let sample = points.gather(&indices);
    let sample_result = dbscan_matrix(&sample, cfg, 1);
    let eps2 = cfg.eps * cfg.eps;
    let scaled_min = ((cfg.min_pts * max_sample) as f64 / n as f64).ceil() as usize;
    let scaled_min = scaled_min.max(2);
    let sample_index = BandIndex::build(&sample, cfg.eps);
    let mut cores: Vec<(u32, usize)> = Vec::new();
    for si in 0..sample.len() {
        let Some(cluster) = sample_result.labels[si] else {
            continue;
        };
        let row = sample.row(si);
        let count = sample_index
            .band_range(sample_index.key_of(row))
            .filter(|&c| {
                let other = sample.row(sample_index.order()[c] as usize);
                sq_dist_bounded(row, other, eps2).is_some()
            })
            .count();
        if count >= scaled_min {
            cores.push((si as u32, cluster));
        }
    }
    let mut labels = vec![None; n];
    for (&orig, label) in indices.iter().zip(&sample_result.labels) {
        labels[orig] = *label;
    }
    let core_samples: Vec<u32> = cores.iter().map(|&(si, _)| si).collect();
    let core_index = BandIndex::build_over(&sample, &core_samples, cfg.eps);
    let mut in_sample = vec![false; n];
    for &i in &indices {
        in_sample[i] = true;
    }
    for i in (0..n).filter(|&i| !in_sample[i]) {
        let row = points.row(i);
        let mut best: Option<(f64, u32)> = None;
        for c in core_index.band_range(core_index.key_of(row)) {
            let p = core_index.order()[c];
            let core = sample.row(core_samples[p as usize] as usize);
            if let Some(d) = sq_dist_bounded(row, core, eps2) {
                if best.is_none_or(|(bd, bp)| d < bd || (d == bd && p < bp)) {
                    best = Some((d, p));
                }
            }
        }
        labels[i] = best.map(|(_, p)| cores[p as usize].1);
    }
    DbscanResult {
        labels,
        num_clusters: sample_result.num_clusters,
        stats: sample_result.stats,
    }
}

#[test]
fn single_point_matches_reference() {
    for row in [vec![0.5; 28], vec![f64::NAN; 28]] {
        for min_pts in [1, 2] {
            let points = vec![row.clone()];
            assert_engines_match_reference(&points, &DbscanConfig { eps: 0.5, min_pts }).unwrap();
        }
    }
}

#[test]
fn signed_zeros_and_duplicated_nan_rows_match_reference() {
    let mut points = Vec::new();
    for k in 0..30 {
        let mut row = vec![0.0; 28];
        row[k % 3] = 0.5;
        if k % 2 == 1 {
            row.iter_mut()
                .filter(|x| **x == 0.0)
                .for_each(|x| *x = -0.0);
        }
        points.push(row);
        if k % 5 == 0 {
            points.push(vec![f64::NAN; 28]);
        }
    }
    for min_pts in [1, 4, 11, 12] {
        assert_engines_match_reference(&points, &DbscanConfig { eps: 0.6, min_pts }).unwrap();
    }
}
