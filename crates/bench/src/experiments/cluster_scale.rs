//! Offline clustering at scale: exact vs pruned vs parallel DBSCAN.
//!
//! The paper's offline stage clusters every segment vector once per
//! rebuild (Section 6); at StackOverflow scale that is hundreds of
//! thousands of 28-dimensional points, and the textbook O(n²) scan
//! dominates the build. This experiment times three engines on the same
//! synthetic segment vectors:
//!
//!   reference  the seed's sequential BFS DBSCAN (full n² distance scan)
//!   pruned     `dbscan_matrix` at 1 thread (duplicate collapse, band on
//!              the better of norm and principal-axis key, early abort
//!              over prefix-blocked rows)
//!   parallel   `dbscan_matrix` with auto threads (one worker per core)
//!
//! Labels are asserted bit-identical across all engines at every size,
//! and the speedups land in `BENCH_cluster.json`:
//!
//!   speedup_pruned    reference time / pruned x1 time — `null` when the
//!                     reference engine was skipped (no baseline ran, so
//!                     there is no number to report)
//!   speedup_parallel  pruned x1 time / parallel time — how much the fan
//!                     out buys over one thread of the *same* engine,
//!                     bounded by the core count reported alongside
//!
//! The reference engine is skipped above [`MAX_REFERENCE_POINTS`] points
//! where the quadratic scan stops being a reasonable thing to wait for;
//! its fields are `null` there, never a sentinel that could be mistaken
//! for a measurement.

use crate::util::{f3, header, print_table, Options};
use forum_cluster::{dbscan_matrix, dbscan_reference, DbscanConfig, DbscanResult, PointMatrix};
use forum_obs::json::Json;
use std::time::Instant;

/// Largest size at which the quadratic reference engine still runs.
const MAX_REFERENCE_POINTS: usize = 50_000;

/// Feature dimensionality of a segment vector (CM weights + structure).
const DIM: usize = forum_cluster::SEGMENT_FEATURE_DIM;

/// SplitMix64 — a tiny deterministic generator so the bench does not pull
/// a random-number dependency into the experiments binary.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Synthetic segment vectors: Gaussian-ish blobs around `centers` cluster
/// centres, each centre scaled by a factor in `[0.2, 2.6]` so the cloud
/// has genuine L2-norm spread for the band index to exploit — real
/// segment vectors vary in norm with segment length the same way. (On
/// these blobs the norm key beats the principal-axis key, so the index
/// keeps the norm.)
fn synthetic_segments(n: usize, centers: usize, seed: u64) -> PointMatrix {
    let mut rng = SplitMix64(seed);
    let mut centroids = Vec::with_capacity(centers);
    for _ in 0..centers {
        let scale = 0.2 + 2.4 * rng.next_f64();
        let c: Vec<f64> = (0..DIM).map(|_| scale * rng.next_f64()).collect();
        centroids.push(c);
    }
    let mut points = PointMatrix::with_dim(DIM);
    let mut row = vec![0.0; DIM];
    for i in 0..n {
        let c = &centroids[i % centers];
        for (d, slot) in row.iter_mut().enumerate() {
            // Sum of three uniforms, centred: cheap bell-shaped noise.
            let noise = rng.next_f64() + rng.next_f64() + rng.next_f64() - 1.5;
            *slot = c[d] + 0.05 * noise;
        }
        points.push(&row);
    }
    points
}

fn timed(f: impl FnOnce() -> DbscanResult) -> (DbscanResult, f64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_secs_f64())
}

pub fn run(opts: &Options) {
    header("cluster_scale: exact vs pruned vs parallel DBSCAN");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("hardware: {cores} core(s) available — parallel speedup is bounded by this");

    // `--posts N` caps the sweep (CI smoke passes `--posts 10000`); the
    // sweep always includes at least the 10k size.
    let cap = opts.posts.max(10_000);
    let sizes: Vec<usize> = [10_000usize, 50_000, 200_000]
        .into_iter()
        .filter(|&s| s <= cap)
        .collect();
    let cfg = DbscanConfig {
        eps: 0.30,
        min_pts: 8,
    };
    println!(
        "sweep: {sizes:?} points, dim {DIM}, eps {}, min_pts {}",
        cfg.eps, cfg.min_pts
    );

    let mut rows = Vec::new();
    let mut size_reports = Vec::new();
    for &n in &sizes {
        let points = synthetic_segments(n, 24, opts.seed);

        let reference = (n <= MAX_REFERENCE_POINTS).then(|| {
            let rows: Vec<Vec<f64>> = points.to_rows();
            timed(|| dbscan_reference(&rows, &cfg))
        });
        let (pruned, pruned_s) = timed(|| dbscan_matrix(&points, &cfg, 1));
        // `0` = auto: one worker per available core, however many this
        // machine actually has — a hard-coded worker count oversubscribes
        // small machines and undersells big ones.
        let (parallel, parallel_s) = timed(|| dbscan_matrix(&points, &cfg, 0));

        assert_eq!(
            pruned.labels, parallel.labels,
            "parallel labels diverge from single-thread at {n} points"
        );
        if let Some((ref reference, _)) = reference {
            assert_eq!(
                reference.labels, pruned.labels,
                "pruned labels diverge from the reference engine at {n} points"
            );
        }

        // Fraction of the full n² distance matrix the pruned engine
        // actually evaluated — the band and the half-band symmetry at work.
        let eval_ratio = pruned.stats.dist_evals as f64 / (n as f64 * n as f64);
        let speedup_pruned = reference
            .as_ref()
            .map(|&(_, reference_s)| reference_s / pruned_s.max(1e-9));
        let speedup_parallel = pruned_s / parallel_s.max(1e-9);
        rows.push(vec![
            n.to_string(),
            pruned.num_clusters.to_string(),
            reference
                .as_ref()
                .map_or_else(|| "skipped".to_string(), |&(_, s)| format!("{s:.2}s")),
            format!("{pruned_s:.2}s"),
            format!("{parallel_s:.2}s"),
            speedup_pruned.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
            format!("{:.2}x", speedup_parallel),
            f3(eval_ratio),
        ]);
        size_reports.push(
            Json::obj()
                .with("points", n)
                .with("clusters", pruned.num_clusters)
                .with("noise", pruned.num_noise())
                .with(
                    "reference_s",
                    reference
                        .as_ref()
                        .map_or(Json::Null, |&(_, s)| Json::from(s)),
                )
                .with("pruned_s", pruned_s)
                .with("parallel_s", parallel_s)
                .with(
                    "speedup_pruned",
                    speedup_pruned.map_or(Json::Null, Json::from),
                )
                .with("speedup_parallel", speedup_parallel)
                .with("dist_eval_ratio", eval_ratio)
                .with("labels_identical", true),
        );
    }

    print_table(
        &[
            "points",
            "clusters",
            "reference",
            "pruned x1",
            "parallel auto",
            "speedup vs ref",
            "speedup vs x1",
            "dist evals/n²",
        ],
        &rows,
    );
    println!("(speedup vs ref is '-' where the quadratic reference was skipped — no");
    println!(" baseline ran; speedup vs x1 compares the same engine at 1 vs {cores} worker(s);");
    println!(" labels asserted bit-identical across every engine and thread count)");

    let report = Json::obj()
        .with("experiment", "cluster_scale")
        .with("dim", DIM)
        .with("eps", cfg.eps)
        .with("min_pts", cfg.min_pts)
        .with("cores", cores)
        .with("seed", opts.seed)
        .with("sizes", size_reports);
    let path = "BENCH_cluster.json";
    match std::fs::write(path, format!("{report}\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("error: could not write {path}: {e}"),
    }
}
