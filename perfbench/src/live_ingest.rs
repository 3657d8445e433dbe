//! `live_ingest`: durable writes beside reads.
//!
//! Same base store as `serve_zipf`. One thread runs a closed loop: one
//! durable `LiveStore::add` of a new post (from a corpus generated with a
//! different seed), then four queries through `ShardServeApp::handle` —
//! two for a post added in the last 50 adds (the paper's "new post"
//! case), two Zipf over the base. `LiveStore::compact` runs every 400
//! adds, at least four times, so the pending delta cycles 0 → 400; the
//! measured phase ends at a compaction.
//!
//! This exercises, per add, text parsing, POS/CM annotation, Greedy
//! segmentation, features and centroid assignment, the fdatasync'd WAL
//! and the epoch publish; per query, the delta scans beside the base
//! scans; and per compaction, the index rebuild and the snapshot save.

use crate::serve_zipf::{query_request, setup_base, K};
use crate::trace::{self, Tracer};
use crate::util::{self, Popularity, Rng};
use crate::{Args, Report, Scale, ScanWork, WorkDir};
use forum_cluster::{nearest_centroid_matrix, segment_features, PointMatrix};
use forum_corpus::Domain;
use forum_ingest::{ShardServeApp, ShardServeConfig, Wal, WalRecord};
use forum_segment::CmDoc;
use forum_shard::{ShardPlan, ShardSet, ShardStats};
use forum_text::document::DocId;
use forum_text::{Document, Segmentation};
use intentmatch::pipeline::{segment_terms, QueryScratch};
use intentmatch::{store, PipelineConfig, StoreView};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

struct Sizes {
    posts: usize,
    sample: usize,
    setup_reps: usize,
    new_posts: usize,
    compact_every: usize,
    min_compactions: usize,
    recent: usize,
    view_checks: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                posts: 6000,
                sample: 4000,
                setup_reps: 2,
                new_posts: 3000,
                compact_every: 400,
                min_compactions: 4,
                recent: 50,
                view_checks: 12,
            },
            Scale::Tiny => Sizes {
                posts: 300,
                sample: 300,
                setup_reps: 1,
                new_posts: 60,
                compact_every: 15,
                min_compactions: 2,
                recent: 10,
                view_checks: 4,
            },
        }
    }
}

const QUERIES_PER_ADD: usize = 4;
/// One in this many query answers is checked bit for bit against
/// `LiveEpoch::top_k` on the same epoch.
const CHECK_EVERY: u64 = 8;
/// In a traced run, operations in this first share of the measured phase
/// run untraced: the baseline of the tracing overhead.
const UNTRACED_SHARE: f64 = 0.3;
/// Hard cap on the measured phase, whatever `--seconds` and the minimum
/// compaction count ask for.
const MAX_PHASE: Duration = Duration::from_secs(150);

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let sz = Sizes::of(args.scale);
    let mut report = Report::default();
    let work = WorkDir::create("live_ingest").map_err(|e| format!("work dir: {e}"))?;

    let (mut live, path, build_open_s) =
        setup_base(&work, sz.posts, sz.sample, args.seed, sz.setup_reps)?;
    let t_rest = Instant::now();
    let app = ShardServeApp::new(
        live.handle(),
        forum_ingest::wal_path_for(&path),
        ShardServeConfig {
            shards: 2,
            ..ShardServeConfig::default()
        },
    );
    let new_posts: Vec<String> =
        crate::corpus(Domain::TechSupport, sz.new_posts, args.seed ^ 0x5EED_0FAE)
            .posts
            .into_iter()
            .map(|p| p.text)
            .collect();
    let base_docs = live.current().num_docs();
    let mut rng = Rng::new(args.seed, 0x11_6E57);
    let mut pop = Popularity::new(base_docs, 1.0, Rng::new(args.seed, 0x22_FF));
    for _ in 0..50 {
        app.handle(&query_request(pop.draw(), K));
    }
    let setup_s = build_open_s + t_rest.elapsed().as_secs_f64();

    // Traced runs only: the replay's own WAL beside the store, the shard
    // view, and the frozen centroids new posts are assigned against.
    let tr = Tracer::new();
    let set = ShardSet::build(
        ShardPlan::new(2),
        live.current().base.pipeline.clusters.len(),
    );
    let stats = ShardStats::new(2);
    let scan_work = ScanWork::default();
    let centroids = PointMatrix::from_rows(&live.current().base.pipeline.centroids);
    let mut bench_wal = if args.trace {
        Some(
            Wal::open(&work.path().join("replay.wal"), 0)
                .map_err(|e| format!("replay WAL: {e}"))?
                .0,
        )
    } else {
        None
    };

    let mut check_rng = Rng::new(args.seed, 0xC4EC);
    let mut add_ms = Vec::new();
    let mut pending_vs_add = Vec::new();
    let mut query_ms = Vec::new();
    let mut query_traced = Vec::new();
    let mut compact_s = Vec::new();
    // Peak RSS grows with the documents added, so it is read when the
    // minimum number of cycles is done: every run then reports it after
    // the same adds, however many more a fast host fits in.
    let mut rss_mb = None;
    let mut delta_units = Vec::new();
    let mut recent: Vec<u32> = Vec::new();
    let mut checked = 0u64;
    let mut since_compact = 0usize;
    let mut next_post = 0usize;
    let mut traced_queries = 0u64;
    let steal0 = util::steal_ticks();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let traced_from = start + Duration::from_secs_f64(args.seconds * UNTRACED_SHARE);
    // Adds and queries slow down as the pending delta grows, so the phase
    // ends only at a compaction: every run then samples whole 0 → 400
    // cycles, and a faster run does not also shift its mix toward small
    // deltas.
    while Instant::now() < deadline || compact_s.len() < sz.min_compactions || since_compact != 0 {
        if start.elapsed() > MAX_PHASE {
            return Err(format!(
                "only {} compactions in {MAX_PHASE:?}; the workload is too slow for its sizes",
                compact_s.len()
            ));
        }
        let tracing = args.trace && Instant::now() >= traced_from;
        let text = &new_posts[next_post % new_posts.len()];
        next_post += 1;

        // One durable add.
        let pending = live.current().delta.num_units();
        report.attempted += 1;
        let t0 = Instant::now();
        let added = live.add(text);
        let t1 = Instant::now();
        let id = match added {
            Ok(id) => id,
            Err(e) => {
                report.failed += 1;
                report.say(format!("add failed: {e}"));
                continue;
            }
        };
        let ms = (t1 - t0).as_secs_f64() * 1e3;
        add_ms.push(ms);
        pending_vs_add.push((pending as f64, ms));
        if tracing {
            // The add's own time beyond the replayed per-post layers is
            // the delta insert and epoch publish: `ingest.apply_publish`.
            let root = tr.record("add", u64::from(id), None, t0, t1, 0);
            let call = tr.record("ingest.apply_publish", u64::from(id), Some(root), t0, t1, 0);
            let mark = tr.mark();
            let clusters = replay_add(&tr, id, text, &centroids, bench_wal.as_mut());
            tr.graft(mark, call);
            let epoch = live.current();
            let served: BTreeSet<usize> = epoch
                .delta
                .doc(id)
                .map(|d| d.refined.iter().map(|s| s.cluster).collect())
                .unwrap_or_default();
            if served != clusters {
                report.mismatches += 1;
                report.failed += 1;
            }
        }
        recent.push(id);
        if recent.len() > sz.recent {
            recent.remove(0);
        }

        // Four queries: new posts and popular base posts.
        let epoch = live.current();
        for j in 0..QUERIES_PER_ADD {
            let doc = if j % 2 == 0 {
                recent[rng.below(recent.len())]
            } else {
                pop.draw()
            };
            report.attempted += 1;
            let t0 = Instant::now();
            let resp = app.handle(&query_request(doc, K));
            let t1 = Instant::now();
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            query_ms.push(ms);
            let ranking = if resp.status == 200 {
                crate::parse_ranking(&resp.body).ok()
            } else {
                None
            };
            let Some(ranking) = ranking else {
                report.failed += 1;
                continue;
            };
            let mut wrong = false;
            if check_rng.next_u64().is_multiple_of(CHECK_EVERY) {
                checked += 1;
                wrong |= !crate::same_ranking(&ranking, &epoch.top_k(doc, K));
            }
            if tracing {
                query_traced.push(ms);
                traced_queries += 1;
                delta_units.push(epoch.delta.num_units() as f64);
                // The handler's time beyond the replayed query layers is
                // request parsing and JSON encoding: `serve.handler` self.
                let root = tr.record("query", u64::from(doc), None, t0, t1, 0);
                let call = tr.record("serve.handler", u64::from(doc), Some(root), t0, t1, 0);
                let mark = tr.mark();
                let replayed = crate::replay_query(&tr, &epoch, &set, &stats, doc, K, &scan_work);
                tr.graft(mark, call);
                wrong |= !crate::same_ranking(&replayed, &ranking);
            }
            if wrong {
                report.mismatches += 1;
                report.failed += 1;
            }
        }

        // Periodic compaction, then mapped ≡ live on a sample.
        since_compact += 1;
        if since_compact == sz.compact_every {
            since_compact = 0;
            report.attempted += 1;
            let t0 = Instant::now();
            let compacted = live.compact();
            let t1 = Instant::now();
            if let Err(e) = compacted {
                report.failed += 1;
                report.say(format!("compact failed: {e}"));
                continue;
            }
            compact_s.push((t1 - t0).as_secs_f64());
            if compact_s.len() == sz.min_compactions {
                rss_mb = Some(util::peak_rss_mb());
            }
            if tracing {
                let root = tr.record("compact", compact_s.len() as u64, None, t0, t1, 0);
                let mark = tr.mark();
                let replay = work.path().join("replay.imp");
                let wal = bench_wal.as_mut().expect("a traced run has a replay WAL");
                replay_compact(&tr, &live.current().base, &replay, wal)
                    .map_err(|e| format!("replay WAL reset: {e}"))?;
                tr.graft(mark, root);
            }
            let epoch = live.current();
            let view = StoreView::open(&path).map_err(|e| format!("open compacted view: {e}"))?;
            let mut scratch = QueryScratch::new();
            for i in 0..sz.view_checks {
                let doc = if i % 2 == 0 {
                    recent[rng.below(recent.len())]
                } else {
                    pop.draw()
                };
                checked += 1;
                let mapped = view.top_k(doc as usize, K, &mut scratch);
                if !mapped.is_ok_and(|m| crate::same_ranking(&m, &epoch.top_k(doc, K))) {
                    report.mismatches += 1;
                    report.failed += 1;
                }
            }
        }
    }
    let steal = util::steal_ticks().saturating_sub(steal0);

    let add_p50 = util::median(&add_ms).ok_or("no adds")?;
    let slope_per_100 = util::slope(&pending_vs_add) * 100.0;
    report.say(format!(
        "load: closed loop, 1 durable add + {QUERIES_PER_ADD} queries (half on the last {} adds), \
         compaction every {} adds; base {base_docs} docs; {} adds, {} queries, {} compactions",
        sz.recent,
        sz.compact_every,
        add_ms.len(),
        query_ms.len(),
        compact_s.len()
    ));
    report.say(format!(
        "add latency slope {slope_per_100:.4} ms per 100 pending units"
    ));
    report.say(format!(
        "compact_s median {:.4} s over {}; answers: {checked} checked bit for bit \
         (live epoch and compacted mapped view); steal ticks in measured phase {steal}",
        util::median(&compact_s).unwrap_or(0.0),
        compact_s.len()
    ));
    report.distribution(
        "handle query latency (query_p50_ms, query_p99_ms)",
        &query_ms,
    );
    report.distribution("durable add latency (add_p50_ms, add_p99_ms)", &add_ms);
    report.metric("setup_s", Ok(setup_s));
    report.metric(
        "rss_mb",
        rss_mb.ok_or_else(|| "fewer compactions than the minimum".into()),
    );
    report.metric(
        "read_ms",
        util::median(&query_ms).ok_or_else(|| "no queries".into()),
    );
    report.metric("op_ms", Ok(add_p50));
    report.metric(
        "batch_s",
        util::median(&compact_s).ok_or_else(|| "no compactions".into()),
    );

    if args.trace {
        let spans = tr.take();
        let (layers, _) = trace::summarize(&spans);
        let adds = layers.get("add").map_or(1.0, |l| l.spans.max(1) as f64);
        let q = traced_queries.max(1) as f64;
        let per = |name: &str, n: f64, unit_ns: f64| {
            layers
                .get(name)
                .map_or(0.0, |l| l.total_ns as f64 / n / unit_ns)
        };
        report.layer(
            "serve.handler_ms",
            crate::median_wall(&layers, "serve.handler", 1e6),
        );
        report.layer(
            "serve.handler_p99_ms",
            layers
                .get("serve.handler")
                .and_then(|l| util::tail_percentile(&l.durs, 0.99).ok())
                .map_or(0.0, |v| v / 1e6),
        );
        report.layer(
            "serve.app_self_us",
            crate::mean_self(&layers, "serve.handler", 1e3),
        );
        report.layer("live.query_groups_us", per("live.query_groups", q, 1e3));
        report.layer("engine.weight_us", per("engine.weight", q, 1e3));
        report.layer("index.base_scan_ms", per("index.base_scan", q, 1e6));
        report.layer(
            "index.postings_scanned",
            scan_work.postings.load(Ordering::Relaxed) as f64 / q,
        );
        report.layer(
            "index.early_exits",
            scan_work.early_exits.load(Ordering::Relaxed) as f64 / q,
        );
        report.layer("index.delta_scan_ms", per("index.delta_scan", q, 1e6));
        report.layer("index.delta_units", util::mean(&delta_units));
        report.layer(
            "shard.fanout_us",
            crate::mean_self(&layers, "shard.scatter_gather", 1e3),
        );
        report.layer("engine.merge_us", per("engine.merge", q, 1e3));
        report.layer("text.parse_us", per("text.parse", adds, 1e3));
        report.layer("nlp.annotate_us", per("nlp.annotate", adds, 1e3));
        report.layer("segment.borders_us", per("segment.borders", adds, 1e3));
        report.layer("cluster.features_us", per("cluster.features", adds, 1e3));
        report.layer("cluster.assign_us", per("cluster.assign", adds, 1e3));
        report.layer(
            "wal.append_ms",
            crate::median_wall(&layers, "wal.append", 1e6),
        );
        report.layer(
            "ingest.apply_publish_ms",
            layers
                .get("ingest.apply_publish")
                .and_then(|l| util::median(&l.selfs))
                .map_or(0.0, |v| v / 1e6),
        );
        report.layer("ingest.add_ms_per_100_pending", slope_per_100);
        let compactions = layers.get("compact").map_or(1.0, |l| l.spans.max(1) as f64);
        report.layer(
            "ingest.compact_copy_s",
            per("ingest.compact_copy", compactions, 1e9),
        );
        report.layer("index.build_s", per("index.build", compactions, 1e9));
        report.layer("store.save_s", per("store.save", compactions, 1e9));
        let base = &live.current().base;
        let text_bytes: usize = base.collection.docs.iter().map(|d| d.doc.text.len()).sum();
        let store_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        report.layer(
            "store.bytes_per_text_byte",
            store_bytes as f64 / text_bytes.max(1) as f64,
        );
        let untraced = util::mean(&query_ms[..query_ms.len() - query_traced.len()]);
        crate::account(&mut report, &spans, untraced, util::mean(&query_traced));
        crate::write_trace(args, &spans, &mut report);
    }
    Ok(report)
}

/// Replays one add's per-post work through the layers' public calls —
/// `Document::parse_clean`, `CmDoc::new`, `Strategy::run`,
/// `segment_features`, `nearest_centroid_matrix` — plus a durable
/// `Wal::append` of the same record on the benchmark's own WAL. Returns
/// the clusters the post's segments were assigned to.
fn replay_add(
    tr: &Tracer,
    id: u32,
    text: &str,
    centroids: &PointMatrix,
    wal: Option<&mut Wal>,
) -> BTreeSet<usize> {
    let cfg = PipelineConfig::default();
    let doc = tr.time("text.parse", 0, None, || {
        Document::parse_clean(DocId(id), text)
    });
    let cm = tr.time("nlp.annotate", 0, None, || CmDoc::new(doc));
    let seg = tr.time("segment.borders", 0, None, || {
        if cm.num_units() == 0 {
            Segmentation::single(1)
        } else {
            cfg.strategy.run(&cm)
        }
    });
    let features: Vec<Vec<f64>> = tr.time("cluster.features", 0, None, || {
        if cm.num_units() == 0 {
            return Vec::new();
        }
        let whole = cm.whole();
        seg.segments()
            .into_iter()
            .map(|s| segment_features(&cm.segment_tables(s), &whole))
            .collect()
    });
    let clusters = tr.time("cluster.assign", 0, None, || {
        features
            .iter()
            .filter_map(|f| nearest_centroid_matrix(f, centroids).map(|(c, _)| c))
            .collect()
    });
    if let Some(wal) = wal {
        let rec = WalRecord::Add {
            text: text.to_string(),
        };
        tr.time("wal.append", 0, None, || wal.append(&rec))
            .expect("replay WAL append");
    }
    clusters
}

/// Replays a compaction on the state it produced: the copy of every
/// document and segmentation into the merged set, the index rebuild
/// (`IndexBuilder::build` per cluster), `store::save`, the reset of the
/// replay's own WAL (`Wal::reset`), and the drop of the copied state
/// (the compaction drops the base it replaced).
fn replay_compact(
    tr: &Tracer,
    base: &forum_ingest::BaseState,
    path: &std::path::Path,
    wal: &mut Wal,
) -> Result<(), forum_ingest::WalError> {
    let pipe = &base.pipeline;
    let copy = tr.time("ingest.compact_copy", 0, None, || {
        (
            base.collection.docs.clone(),
            pipe.raw_segmentations.clone(),
            pipe.doc_segments.clone(),
        )
    });
    tr.time("index.build", 0, None, || {
        let mut builders: Vec<forum_index::IndexBuilder> = (0..pipe.num_clusters())
            .map(|_| forum_index::IndexBuilder::new())
            .collect();
        for (d, segs) in pipe.doc_segments.iter().enumerate() {
            for seg in segs {
                builders[seg.cluster].add_unit(d as u32, &segment_terms(&base.collection, d, seg));
            }
        }
        builders.into_iter().map(|b| b.build()).collect::<Vec<_>>()
    });
    tr.time("store.save", 0, None, || {
        store::save(path, &base.collection, pipe)
    })
    .expect("replay save");
    tr.time("wal.reset", 0, None, || wal.reset(0))?;
    // The compaction drops the state it replaced.
    tr.time("ingest.base_drop", 0, None, || drop(copy));
    Ok(())
}
