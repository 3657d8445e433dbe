//! A sampled DBSCAN run publishes its whole run to the registry: the
//! exact sample run, and the assignment of the points outside the sample.
//! It lives in its own test binary because it enables the process-wide
//! registry.

use forum_cluster::{dbscan_sampled_matrix, DbscanConfig, PointMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn sampled_run_publishes_its_own_stats() {
    let obs = forum_obs::Registry::global();
    obs.set_enabled(true);
    // Three blobs of 200 points each; a 150-point sample leaves 450
    // points for the assignment pass.
    let rows: Vec<Vec<f64>> = (0..600u64)
        .map(|k| {
            let cx = (k % 3) as f64 * 8.0;
            vec![
                cx + ((k * 131) % 97) as f64 / 60.0,
                ((k * 37) % 89) as f64 / 60.0,
            ]
        })
        .collect();
    let cfg = DbscanConfig {
        eps: 0.7,
        min_pts: 6,
    };
    let mut rng = StdRng::seed_from_u64(9);
    let result = dbscan_sampled_matrix(&PointMatrix::from_rows(&rows), &cfg, 150, 2, &mut rng);
    assert!(result.num_clusters > 0);
    assert_eq!(
        obs.counter("offline/dist_evals").value(),
        result.stats.dist_evals
    );
    assert_eq!(
        obs.counter("offline/region_queries").value(),
        result.stats.region_queries
    );
    let n = rows.len() as f64;
    let expected = (100.0 * (1.0 - result.stats.dist_evals as f64 / (n * n))).round() as i64;
    assert_eq!(obs.gauge("offline/cluster_prune_pct").value(), expected);
}
