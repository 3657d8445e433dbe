//! The `offline/cluster_prune_pct` gauge reports the share of the full n²
//! distance matrix that DBSCAN never evaluated. It lives in its own test
//! binary because it enables the process-wide registry.

use forum_cluster::{dbscan_matrix, DbscanConfig, PointMatrix};

#[test]
fn prune_gauge_is_the_unevaluated_share_of_n_squared() {
    let obs = forum_obs::Registry::global();
    obs.set_enabled(true);
    // A spread-out line the band prunes hard, and a tight blob where every
    // pair is a candidate (the band prunes nothing, the half-band
    // symmetry still halves the work).
    let line: Vec<Vec<f64>> = (0..400).map(|i| vec![i as f64 * 0.1, 1.0]).collect();
    let blob: Vec<Vec<f64>> = (0..200)
        .map(|i| vec![(i % 7) as f64 * 0.01, (i % 11) as f64 * 0.01])
        .collect();
    for (rows, eps) in [(line, 0.25), (blob, 1.0)] {
        let cfg = DbscanConfig { eps, min_pts: 3 };
        let result = dbscan_matrix(&PointMatrix::from_rows(&rows), &cfg, 2);
        let n = rows.len() as f64;
        let expected = (100.0 * (1.0 - result.stats.dist_evals as f64 / (n * n))).round() as i64;
        assert_eq!(
            obs.gauge("offline/cluster_prune_pct").value(),
            expected,
            "{} points, {} distance evaluations",
            rows.len(),
            result.stats.dist_evals
        );
    }
}
