//! End-to-end and per-layer benchmark of the related-posts system.
//!
//! Three workloads, each driven only through the product's public APIs:
//!
//! * `serve_zipf` — open-loop Poisson HTTP load of Zipf-popular
//!   related-post queries against `ShardServeApp` on a `PoolServer`,
//!   plus the app's in-process service capacity ([`serve_zipf`]).
//! * `live_ingest` — durable `LiveStore::add`s of new posts interleaved
//!   with queries and periodic compactions ([`live_ingest`]).
//! * `build_restart` — the offline index build (parse, segmentation,
//!   DBSCAN, indexing, save) and heap vs mapped restarts
//!   ([`build_restart`]).
//!
//! Every workload checks its answers, counts failed operations, and
//! reports the same end-to-end metric set (see `perfbench/README.md`);
//! a traced run (`--trace 1`) replays each operation through the layers'
//! public functions under the benchmark's own spans (module `trace`) and
//! reports the per-layer metrics instead.

pub mod build_restart;
mod http;
pub mod live_ingest;
pub mod serve_zipf;
mod trace;
pub mod util;

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_index::{ScanCosts, ScoreScratch, SegmentIndex};
use forum_ingest::LiveEpoch;
use forum_obs::json::Json;
use forum_shard::{scatter_gather, ShardSet, ShardStats};
use intentmatch::pipeline::cluster_weight_for_terms;
use intentmatch::{store, IntentPipeline, PipelineConfig, PostCollection};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use trace::Tracer;

/// The end-to-end metrics every workload reports, with their units. The
/// read tails (p90, p95, p99) are printed with every run but are not in
/// this set: on a host whose steal varies several-fold from run to run they
/// spread too widely between runs to bound a regression (see README).
pub(crate) const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("read_ms", "ms"),
    ("op_ms", "ms"),
    ("batch_s", "s"),
];

/// The per-layer metrics every traced run reports (0 where a workload
/// does not exercise the layer), with their units.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("pool.accept_wait_ms", "ms"),
    ("pool.response_ms", "ms"),
    ("serve.handler_ms", "ms"),
    ("serve.handler_p99_ms", "ms"),
    ("serve.app_self_us", "us"),
    ("live.query_groups_us", "us"),
    ("engine.weight_us", "us"),
    ("index.base_scan_ms", "ms"),
    ("index.postings_scanned", "count"),
    ("index.early_exits", "count"),
    ("index.delta_scan_ms", "ms"),
    ("index.delta_units", "count"),
    ("shard.fanout_us", "us"),
    ("engine.merge_us", "us"),
    ("text.parse_us", "us"),
    ("nlp.annotate_us", "us"),
    ("segment.borders_us", "us"),
    ("cluster.features_us", "us"),
    ("cluster.assign_us", "us"),
    ("wal.append_ms", "ms"),
    ("ingest.apply_publish_ms", "ms"),
    ("ingest.add_ms_per_100_pending", "ms"),
    ("ingest.compact_copy_s", "s"),
    ("cluster.dbscan_s", "s"),
    ("cluster.dist_evals", "count"),
    ("index.build_s", "s"),
    ("store.save_s", "s"),
    ("store.bytes_per_text_byte", "ratio"),
    ("store.load_ms", "ms"),
    ("view.open_us", "us"),
    ("view.cluster_decode_ms", "ms"),
    ("view.clusters_touched", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.timed_pct", "%"),
    ("trace.residue_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Input sizes: `Full` is what the benchmark measures; `Tiny` runs every
/// phase and check in about a second, for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// A metric value, or the reason it was refused (a tail percentile with
/// too few samples beyond it).
pub type Value = Result<f64, String>;

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// End-to-end metrics, by name.
    pub end_to_end: Vec<(&'static str, Value)>,
    /// Per-layer metrics, by name (traced runs only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: an error, a non-200 status, or a wrong
    /// answer.
    pub failed: u64,
    /// Answer checks that found a wrong answer (any fails the run).
    pub mismatches: u64,
}

impl Report {
    /// Adds a human-readable line.
    pub fn say(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Sets an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: Value) {
        self.end_to_end.push((name, value));
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.push((name, value));
    }

    /// Adds a line with the distribution of `samples` (ms): median, p90,
    /// p95, whole-run p99 and the windowed p99, with the sample count.
    pub fn distribution(&mut self, what: &str, samples: &[f64]) {
        let fmt = |v: Value| v.map_or("refused".to_string(), |v| format!("{v:.4}"));
        self.say(format!(
            "{what}: n={} p50={} p90={} p95={} p99={} windowed_p99={} ms",
            samples.len(),
            fmt(util::median(samples).ok_or_else(String::new)),
            fmt(util::tail_percentile(samples, 0.90)),
            fmt(util::tail_percentile(samples, 0.95)),
            fmt(util::tail_percentile(samples, 0.99)),
            fmt(util::windowed_tail(samples, serve_zipf::P99_WINDOW, 0.99)),
        ));
    }

    /// Whether every answer check passed.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
    }
}

/// Parses `--workload W --seed N --seconds S --trace 0|1 [--scale tiny]`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--scale" => {
                args.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err("--scale takes full or tiny".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.perfbench_work/<name>-<pid>` under the current directory.
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".perfbench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The seeded corpus of `posts` posts in `domain`.
pub fn corpus(domain: Domain, posts: usize, seed: u64) -> Corpus {
    Corpus::generate(&GenConfig {
        domain,
        num_posts: posts,
        seed,
    })
}

/// The pipeline configuration of the serving workloads' base store:
/// defaults, with DBSCAN run on a sample of `sample` segments.
pub fn sampled_config(sample: usize) -> PipelineConfig {
    PipelineConfig {
        max_cluster_sample: sample,
        ..PipelineConfig::default()
    }
}

/// Child-process entry: `build-store <posts> <seed> <sample> <path>`
/// indexes a TechSupport corpus the way `intentmatch index` does and
/// saves it, so the build's memory never counts toward the parent's
/// peak RSS.
pub fn build_store_child(argv: &[String]) -> Result<(), String> {
    let [posts, seed, sample, path] = argv else {
        return Err("usage: build-store <posts> <seed> <sample> <path>".into());
    };
    let posts: usize = posts.parse().map_err(|_| "bad posts")?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let sample: usize = sample.parse().map_err(|_| "bad sample")?;
    let corpus = corpus(Domain::TechSupport, posts, seed);
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, &sampled_config(sample));
    store::save(Path::new(path), &coll, &pipe).map_err(|e| format!("save: {e}"))
}

/// Builds the serving workloads' base store in a child process.
pub fn build_store_in_child(
    posts: usize,
    seed: u64,
    sample: usize,
    path: &Path,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "build-store",
            &posts.to_string(),
            &seed.to_string(),
            &sample.to_string(),
            path.to_str().ok_or("store path is not UTF-8")?,
        ])
        .output()
        .map_err(|e| format!("spawn build-store: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "build-store failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

/// The `(doc, score)` ranking in a `/query` response body.
pub fn parse_ranking(body: &[u8]) -> Result<Vec<(u32, f64)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let json = Json::parse(text.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    let results = json
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("no results array")?;
    results
        .iter()
        .map(|r| {
            let doc = r
                .get("doc")
                .and_then(Json::as_u64)
                .ok_or("result without doc")?;
            let score = r
                .get("score")
                .and_then(Json::as_f64)
                .ok_or("result without score")?;
            Ok((doc as u32, score))
        })
        .collect()
}

/// Whether two rankings agree bit for bit (ids and score bits).
pub fn same_ranking(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Work counters of a query replay.
#[derive(Debug, Default)]
pub struct ScanWork {
    /// Postings walked by the base scans.
    pub postings: AtomicU64,
    /// Early exits taken by the base scans.
    pub early_exits: AtomicU64,
}

/// Replays one related-posts query through the layers' public calls, each
/// under its own span: `LiveEpoch::query_groups`, the per-cluster weight
/// and Algorithm 1 scans (`SegmentIndex::top_owners_excluding_filtered`
/// on the base, `DeltaIndex::top_owners_frozen_filtered` on the delta)
/// fanned out by `forum_shard::scatter_gather`, and the Algorithm 2
/// merge (`engine::gather_weighted_scans`). The scan body mirrors
/// `LiveEpoch::scan_cluster_filtered` for an epoch without deletions, so
/// the ranking must equal the served one bit for bit.
pub fn replay_query(
    tr: &Tracer,
    epoch: &LiveEpoch,
    set: &ShardSet,
    stats: &ShardStats,
    doc: u32,
    k: usize,
    work: &ScanWork,
) -> Vec<(u32, f64)> {
    let groups = tr
        .time("live.query_groups", 0, None, || epoch.query_groups(doc))
        .unwrap_or_default();
    let route: Vec<usize> = groups.iter().map(|(c, _)| *c).collect();
    let n = 2 * k;
    let base = &*epoch.base;
    let no_tombstones = HashSet::new();
    // (route position, weight, hits) of every cluster that contributed.
    type Scan = (usize, f64, Vec<(u32, f64)>);
    let captured: Mutex<Vec<Scan>> = Mutex::new(Vec::new());
    let sg = tr.reserve_id();
    let sg_start = Instant::now();
    let fanned = scatter_gather(
        set,
        stats,
        &route,
        k,
        || (ScoreScratch::new(), ScanCosts::default()),
        |(scratch, delta_costs), cluster| {
            let pos = route.iter().position(|&c| c == cluster)?;
            let terms = &groups[pos].1;
            if terms.is_empty() {
                return None;
            }
            let index = &base.pipeline.clusters[cluster].index;
            let t0 = Instant::now();
            let weight = if base.pipeline.weighted_combination {
                cluster_weight_for_terms(index, terms)
            } else {
                1.0
            };
            let query = SegmentIndex::query_from_terms(terms);
            let t1 = Instant::now();
            tr.record("engine.weight", 0, Some(sg), t0, t1, 0);
            if weight <= 0.0 {
                return None;
            }
            let mut hits = index.top_owners_excluding_filtered(
                &query,
                n,
                base.pipeline.weighting,
                Some(doc),
                &no_tombstones,
                None,
                scratch,
            );
            let t2 = Instant::now();
            let costs = scratch.costs.take();
            work.postings
                .fetch_add(costs.postings_scanned, Ordering::Relaxed);
            work.early_exits
                .fetch_add(costs.early_exits, Ordering::Relaxed);
            tr.record(
                "index.base_scan",
                0,
                Some(sg),
                t1,
                t2,
                costs.postings_scanned,
            );
            let floor = (hits.len() == n).then(|| hits[n - 1].1);
            let delta_hits = epoch.delta.deltas[cluster].top_owners_frozen_filtered(
                index,
                &query,
                Some(doc),
                &no_tombstones,
                None,
                floor,
                delta_costs,
            );
            let t3 = Instant::now();
            let dcosts = delta_costs.take();
            tr.record(
                "index.delta_scan",
                0,
                Some(sg),
                t2,
                t3,
                dcosts.postings_scanned,
            );
            if !delta_hits.is_empty() {
                hits.extend(delta_hits);
                hits.sort_unstable_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .expect("scores are finite")
                        .then(a.0.cmp(&b.0))
                });
                hits.truncate(n);
            }
            captured
                .lock()
                .expect("capture lock poisoned")
                .push((pos, weight, hits));
            // The merge runs below under its own span; scatter_gather's
            // own gather sees nothing.
            None
        },
        None,
    );
    tr.record_as(
        sg,
        "shard.scatter_gather",
        0,
        None,
        sg_start,
        Instant::now(),
        0,
    );
    fanned.expect("replay scan worker panicked");
    let mut scans = captured.into_inner().expect("capture lock poisoned");
    scans.sort_by_key(|s| s.0);
    tr.time("engine.merge", 0, None, || {
        intentmatch::engine::gather_weighted_scans(
            scans.iter().map(|(_, w, h)| (*w, h.as_slice())),
            k,
        )
    })
}

/// Prints the report, then the result line; returns the exit code.
pub fn emit(args: &Args, host: &util::Host, report: &Report) -> i32 {
    println!(
        "== perfbench {} seed={} seconds={} trace={} ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} cpu=\"{}\" steal_ticks_during_run={} page_cache=warm \
         wal_flush=fdatasync-per-add registry=disabled",
        host.nproc,
        host.cpu,
        host.steal_since_start()
    );
    for line in &report.lines {
        println!("{line}");
    }
    let mut metrics = Json::obj();
    let mut missing = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let v = report
                .per_layer
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            println!("layer {name} = {v:.6} {unit}");
            metrics = metrics.with(name, Json::obj().with("value", v).with("unit", unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            match report.end_to_end.iter().find(|(n, _)| *n == name) {
                Some((_, Ok(v))) => {
                    println!("metric {name} = {v:.6} {unit}");
                    metrics = metrics.with(name, Json::obj().with("value", *v).with("unit", unit));
                }
                Some((_, Err(why))) => {
                    println!("metric {name} refused: {why}");
                    missing.push(name);
                }
                None => missing.push(name),
            }
        }
    }
    println!(
        "ops attempted={} failed={} answer_mismatches={}",
        report.attempted, report.failed, report.mismatches
    );
    let full_and_missing = args.scale == Scale::Full && !missing.is_empty();
    if full_and_missing {
        eprintln!("error: metrics not measured: {missing:?}");
    }
    let result = Json::obj()
        .with("correct", report.correct())
        .with("attempted", report.attempted)
        .with("failed", report.failed)
        .with("metrics", metrics);
    println!("{result}");
    if full_and_missing || report.attempted == 0 {
        1
    } else {
        0
    }
}

/// Records the traced run's accounting: what the layers explain of the
/// end-to-end spans, how much of that is timed rather than inferred by
/// subtraction, the residue, and the tracing overhead (the traced
/// minus the untraced mean of the workload's primary operation, as a
/// share of the untraced mean).
pub fn account(report: &mut Report, spans: &[trace::Span], untraced_ms: f64, traced_ms: f64) {
    let (layers, acc) = trace::summarize(spans);
    let mut names: Vec<_> = layers.keys().copied().collect();
    names.sort_unstable();
    report.say("layer self time (sum over the run):");
    for name in names {
        let l = &layers[name];
        report.say(format!(
            "  {name:<24} spans={:<7} self={:>10.3} ms  wall={:>10.3} ms",
            l.spans,
            l.self_ns as f64 / 1e6,
            l.total_ns as f64 / 1e6
        ));
    }
    let overhead = if untraced_ms > 0.0 {
        (traced_ms - untraced_ms) / untraced_ms * 100.0
    } else {
        0.0
    };
    report.say(format!(
        "accounting: end_to_end={:.3} ms layers={:.3} ms residue={:.3} ms coverage={:.2}% \
         (of which inferred by subtraction {:.3} ms; timed={:.2}%) \
         tracing_overhead={overhead:.2}% (untraced {untraced_ms:.4} ms vs traced {traced_ms:.4} ms per op)",
        acc.end_to_end_ns as f64 / 1e6,
        acc.layers_ns as f64 / 1e6,
        acc.residue_ns as f64 / 1e6,
        acc.coverage() * 100.0,
        acc.inferred_ns as f64 / 1e6,
        acc.timed() * 100.0
    ));
    report.layer("trace.coverage_pct", acc.coverage() * 100.0);
    report.layer("trace.timed_pct", acc.timed() * 100.0);
    report.layer(
        "trace.residue_pct",
        if acc.end_to_end_ns == 0 {
            0.0
        } else {
            acc.residue_ns as f64 / acc.end_to_end_ns as f64 * 100.0
        },
    );
    report.layer("trace.overhead_pct", overhead);
}

/// Mean self time of `name` spans in `unit_ns` units (0 when absent).
pub fn mean_self(
    layers: &std::collections::HashMap<&'static str, trace::Layer>,
    name: &str,
    unit_ns: f64,
) -> f64 {
    layers
        .get(name)
        .map_or(0.0, |l| util::mean(&l.selfs) / unit_ns)
}

/// Median wall time of `name` spans in `unit_ns` units (0 when absent).
pub fn median_wall(
    layers: &std::collections::HashMap<&'static str, trace::Layer>,
    name: &str,
    unit_ns: f64,
) -> f64 {
    layers
        .get(name)
        .and_then(|l| util::median(&l.durs))
        .map_or(0.0, |v| v / unit_ns)
}

/// Writes the run's spans to `.perfbench_out/<workload>-seed<N>.spans.jsonl`.
pub fn write_trace(args: &Args, spans: &[trace::Span], report: &mut Report) {
    let path = PathBuf::from(".perfbench_out")
        .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    match trace::write_spans(&path, spans) {
        Ok(()) => report.say(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => report.say(format!("spans: could not write {}: {e}", path.display())),
    }
}
