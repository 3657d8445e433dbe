//! `build_restart`: the offline build, then heap and mapped restarts.
//!
//! The measured phase indexes a Programming-profile corpus the way
//! `intentmatch index` does — `PostCollection::from_corpus`, then
//! `IntentPipeline::build` with the default configuration (exact DBSCAN,
//! one thread), then `store::save` — and then alternates heap restarts
//! (`LiveStore::open` + first answer) with runs of mapped restarts
//! (`StoreView::open` + first answer), each on a seeded first document.
//! A mapped restart's time grows with the clusters its first query
//! touches (each is decoded on first touch), so `cold_query_ms` is the
//! mean over many mapped restarts, not a median that would jump between
//! touch counts. Every first answer of the two restarted stores, and a
//! burst of seeded queries after each heap restart, is compared bit for
//! bit. The store file was just written, so the page cache is warm for
//! every restart.
//!
//! DBSCAN and the store decode do most of the work here; the serving
//! workloads only cluster a sample during setup.

use crate::serve_zipf::K;
use crate::trace::{self, Tracer};
use crate::util::{self, Rng};
use crate::{Args, Report, Scale, WorkDir};
use forum_cluster::{dbscan_sampled_matrix, segment_features, PointMatrix};
use forum_corpus::{Corpus, Domain};
use forum_index::UnitId;
use forum_ingest::{IngestConfig, LiveStore};
use forum_segment::CmDoc;
use forum_text::document::DocId;
use forum_text::{Document, Segmentation};
use intentmatch::pipeline::{assemble_clusters, query_cluster_groups_of, QueryScratch};
use intentmatch::{store, IntentPipeline, PipelineConfig, PostCollection, StoreView};
use rand_chacha::rand_core::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

struct Sizes {
    posts: usize,
    setup_reps: usize,
    /// Heap restarts after each build.
    restarts_per_block: usize,
    /// Mapped restarts after each heap restart.
    mapped_per_heap: usize,
    /// Builds (each followed by a block of restarts) a run makes at least.
    min_builds: usize,
    queries_per_restart: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                posts: 6000,
                setup_reps: 5,
                restarts_per_block: 9,
                mapped_per_heap: 8,
                min_builds: 3,
                queries_per_restart: 60,
            },
            Scale::Tiny => Sizes {
                posts: 300,
                setup_reps: 1,
                restarts_per_block: 2,
                mapped_per_heap: 2,
                min_builds: 2,
                queries_per_restart: 20,
            },
        }
    }
}

const MAX_PHASE: Duration = Duration::from_secs(150);

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let sz = Sizes::of(args.scale);
    let mut report = Report::default();
    let work = WorkDir::create("build_restart").map_err(|e| format!("work dir: {e}"))?;
    let path = work.path().join("index.imp");

    // Setup: generate the corpus (repeated; setup_s is the median).
    let mut setup_times = Vec::new();
    let mut corpus = None;
    for _ in 0..sz.setup_reps {
        drop(corpus.take());
        let t0 = Instant::now();
        corpus = Some(crate::corpus(Domain::Programming, sz.posts, args.seed));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let corpus = corpus.expect("at least one setup repetition");
    let text_bytes: usize = corpus.posts.iter().map(|p| p.text.len()).sum();
    let setup_s = util::median(&setup_times).expect("setup timed");

    let tr = Tracer::new();
    let mut rng = Rng::new(args.seed, 0xB0_07);
    let mut build_s = Vec::new();
    let mut traced_build_s = Vec::new();
    let mut heap_ms = Vec::new();
    let mut mapped_ms = Vec::new();
    let mut heap_read_ms = Vec::new();
    let mut mapped_read_ms = Vec::new();
    let mut checked = 0u64;
    let mut dist_evals = 0u64;
    let mut clusters_touched = Vec::new();
    // A traced run checks every replayed build against the product's.
    let mut reference: Option<(BuildDigest, u64)> = None;
    let steal0 = util::steal_ticks();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    loop {
        if start.elapsed() > MAX_PHASE {
            return Err("build_restart exceeded its phase cap; the sizes are too large".into());
        }
        // Build. A traced run first builds once untraced (the overhead
        // baseline and the reference digest), then replays every
        // build through the layers.
        report.attempted += 1;
        if !args.trace || build_s.is_empty() {
            let t0 = Instant::now();
            let coll = PostCollection::from_corpus(&corpus);
            let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
            store::save(&path, &coll, &pipe).map_err(|e| format!("save: {e}"))?;
            build_s.push(t0.elapsed().as_secs_f64());
            if args.trace {
                reference = Some((BuildDigest::of(&pipe), store_len(&path)?));
            }
        }
        if args.trace {
            let mark = tr.mark();
            let t0 = Instant::now();
            let (evals, pipe) = replay_build(&tr, &corpus, &path);
            let t1 = Instant::now();
            let root = tr.record("build", traced_build_s.len() as u64, None, t0, t1, 0);
            tr.adopt(mark, root);
            traced_build_s.push((t1 - t0).as_secs_f64());
            dist_evals = evals;
            let replayed = (BuildDigest::of(&pipe), store_len(&path)?);
            drop(pipe);
            if reference.as_ref() != Some(&replayed) {
                report.mismatches += 1;
                report.failed += 1;
                report.say("replayed build differs from IntentPipeline::build");
            }
        }
        let num_docs = corpus.posts.len();

        // Restarts: each heap restart is followed by a run of mapped
        // restarts on the same file, each on its own seeded first post.
        for _ in 0..sz.restarts_per_block {
            let first = rng.below(num_docs);
            let mapped_firsts: Vec<usize> = (0..sz.mapped_per_heap)
                .map(|_| rng.below(num_docs))
                .collect();
            let docs: Vec<usize> = (0..sz.queries_per_restart)
                .map(|_| rng.below(num_docs))
                .collect();
            let _ = std::fs::remove_file(forum_ingest::wal_path_for(&path));

            report.attempted += 1 + docs.len() as u64;
            let t0 = Instant::now();
            let live = LiveStore::open(&path, PipelineConfig::default(), IngestConfig::default())
                .map_err(|e| format!("heap restart: {e}"))?;
            let epoch = live.current();
            let heap_first = epoch.top_k(first as u32, K);
            let t1 = Instant::now();
            heap_ms.push((t1 - t0).as_secs_f64() * 1e3);
            let mut heap_answers = Vec::with_capacity(docs.len());
            for &d in &docs {
                let q0 = Instant::now();
                let r = epoch.top_k(d as u32, K);
                heap_read_ms.push(q0.elapsed().as_secs_f64() * 1e3);
                heap_answers.push(r);
            }
            // The heap answers the mapped first queries are checked against.
            let heap_mapped_firsts: Vec<_> = mapped_firsts
                .iter()
                .map(|&d| epoch.top_k(d as u32, K))
                .collect();
            drop(epoch);
            drop(live);
            if args.trace {
                let root = tr.record("restart.heap", heap_ms.len() as u64, None, t0, t1, 0);
                let mark = tr.mark();
                tr.time("store.load", 0, None, || store::load(&path))
                    .map_err(|e| format!("replay load: {e}"))?;
                tr.graft(mark, root);
            }

            let mut answers = Vec::with_capacity(mapped_firsts.len() + docs.len() + 1);
            let mut view = None;
            for (&m, heap) in mapped_firsts.iter().zip(heap_mapped_firsts) {
                report.attempted += 1;
                drop(view.take());
                let mut scratch = QueryScratch::new();
                let t0 = Instant::now();
                let v = StoreView::open(&path).map_err(|e| format!("mapped restart: {e}"))?;
                let mapped_first = v.top_k(m, K, &mut scratch);
                let t1 = Instant::now();
                mapped_ms.push((t1 - t0).as_secs_f64() * 1e3);
                answers.push((m, mapped_first, heap));
                view = Some(v);
                if args.trace {
                    let root = tr.record("restart.mapped", mapped_ms.len() as u64, None, t0, t1, 0);
                    let mark = tr.mark();
                    let touched = replay_mapped(&tr, &path, m)?;
                    clusters_touched.push(touched as f64);
                    tr.graft(mark, root);
                }
            }
            // The last mapped store answers the heap restart's queries.
            let view = view.expect("at least one mapped restart per heap restart");
            let mut scratch = QueryScratch::new();
            answers.push((first, view.top_k(first, K, &mut scratch), heap_first));
            for (&d, heap) in docs.iter().zip(heap_answers) {
                let q0 = Instant::now();
                let r = view.top_k(d, K, &mut scratch);
                mapped_read_ms.push(q0.elapsed().as_secs_f64() * 1e3);
                answers.push((d, r, heap));
            }
            drop(view);
            for (doc, mapped, heap) in answers {
                checked += 1;
                if !mapped.as_ref().is_ok_and(|m| crate::same_ranking(m, &heap)) {
                    report.mismatches += 1;
                    report.failed += 1;
                    report.say(format!(
                        "mismatch on doc {doc} (restart {}): mapped {mapped:?} heap {heap:?}",
                        heap_ms.len()
                    ));
                }
            }
        }
        let builds = build_s.len().max(traced_build_s.len());
        if Instant::now() >= deadline && builds >= sz.min_builds {
            break;
        }
    }
    let steal = util::steal_ticks().saturating_sub(steal0);

    let open_ms = util::median(&heap_ms).expect("restarts ran");
    let cold_ms = util::mean(&mapped_ms);
    report.say(format!(
        "build: {} Programming posts, default config (exact DBSCAN, 1 thread), {} builds; \
         build_s median {:.4} s",
        sz.posts,
        build_s.len().max(traced_build_s.len()),
        util::median(&build_s).unwrap_or(0.0)
    ));
    report.say(format!(
        "restarts: {} heap, {} mapped, page cache warm; open_ms={open_ms:.4} ms (LiveStore::open + first answer, median) \
         cold_query_ms={cold_ms:.4} ms (StoreView::open + first answer, mean); mapped/heap = {:.3} (gate: mapped within 2x of heap)",
        heap_ms.len(),
        mapped_ms.len(),
        cold_ms / open_ms
    ));
    report.distribution("mapped restart to first answer", &mapped_ms);
    report.say(format!(
        "answers: {checked} heap == mapped checked bit for bit; steal ticks in measured phase {steal}"
    ));
    report.distribution("reads on the restarted heap store", &heap_read_ms);
    report.distribution(
        "reads on the last mapped store (first touches included)",
        &mapped_read_ms,
    );
    report.metric("setup_s", Ok(setup_s));
    report.metric("rss_mb", Ok(util::peak_rss_mb()));
    report.metric("read_ms", Ok(cold_ms));
    report.metric("op_ms", Ok(open_ms));
    report.metric(
        "batch_s",
        util::median(&build_s).ok_or_else(|| "no builds".into()),
    );

    if args.trace {
        let spans = tr.take();
        let (layers, _) = trace::summarize(&spans);
        let builds = layers.get("build").map_or(1.0, |l| l.spans.max(1) as f64);
        let per_post = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |l| l.total_ns as f64 / builds / sz.posts as f64 / 1e3)
        };
        let per_build = |name: &str| {
            layers
                .get(name)
                .map_or(0.0, |l| l.total_ns as f64 / builds / 1e9)
        };
        report.layer("text.parse_us", per_post("text.parse"));
        report.layer("nlp.annotate_us", per_post("nlp.annotate"));
        report.layer("segment.borders_us", per_post("segment.borders"));
        report.layer("cluster.features_us", per_post("cluster.features"));
        report.layer("cluster.assign_us", per_post("cluster.assign"));
        report.layer("cluster.dbscan_s", per_build("cluster.dbscan"));
        report.layer("cluster.dist_evals", dist_evals as f64);
        report.layer("index.build_s", per_build("index.build"));
        report.layer("store.save_s", per_build("store.save"));
        let store_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        report.layer(
            "store.bytes_per_text_byte",
            store_bytes as f64 / text_bytes.max(1) as f64,
        );
        report.layer(
            "store.load_ms",
            crate::median_wall(&layers, "store.load", 1e6),
        );
        report.layer(
            "view.open_us",
            crate::median_wall(&layers, "view.open", 1e3),
        );
        report.layer(
            "view.cluster_decode_ms",
            crate::median_wall(&layers, "view.cluster_decode", 1e6),
        );
        report.layer("view.clusters_touched", util::mean(&clusters_touched));
        let untraced = util::mean(&build_s) * 1e3;
        let traced = util::mean(&traced_build_s) * 1e3;
        crate::account(&mut report, &spans, untraced, traced);
        crate::write_trace(args, &spans, &mut report);
    }
    Ok(report)
}

/// What a build determines exactly: the raw segmentations, the refined
/// segments and their clusters, the centroids bit for bit, the noise
/// count, and each cluster index's unit owners, vocabulary, postings count
/// and mean unique terms. It leaves out the per-unit `log_tf_sum`:
/// `IndexBuilder::add_unit` sums it in `HashMap` order, so two product
/// builds of one corpus can differ in its last bit (4 of the 14,537 units
/// of one 6000-post corpus have an order-dependent sum).
#[derive(Debug, PartialEq)]
struct BuildDigest {
    raw: Vec<Segmentation>,
    refined: Vec<Vec<Refined>>,
    centroids: Vec<Vec<u64>>,
    num_noise: usize,
    clusters: Vec<ClusterShape>,
}

/// A refined segment: its cluster and its sentence ranges.
type Refined = (usize, Vec<(usize, usize)>);

#[derive(Debug, PartialEq)]
struct ClusterShape {
    owners: Vec<u32>,
    terms: Vec<String>,
    postings: usize,
    avg_unique_bits: u64,
}

impl BuildDigest {
    fn of(pipe: &IntentPipeline) -> BuildDigest {
        BuildDigest {
            raw: pipe.raw_segmentations.clone(),
            refined: pipe
                .doc_segments
                .iter()
                .map(|segs| segs.iter().map(|s| (s.cluster, s.ranges.clone())).collect())
                .collect(),
            centroids: pipe
                .centroids
                .iter()
                .map(|c| c.iter().map(|x| x.to_bits()).collect())
                .collect(),
            num_noise: pipe.num_noise,
            clusters: pipe
                .clusters
                .iter()
                .map(|c| {
                    let index = &c.index;
                    ClusterShape {
                        owners: (0..index.num_units())
                            .map(|u| index.owner(UnitId(u as u32)))
                            .collect(),
                        terms: index
                            .vocabulary()
                            .iter()
                            .map(|(_, t)| t.to_string())
                            .collect(),
                        postings: index.num_postings(),
                        avg_unique_bits: index.avg_unique_terms().to_bits(),
                    }
                })
                .collect(),
        }
    }
}

fn store_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat store: {e}"))
}

/// Replays `IntentPipeline::build` + `store::save` phase by phase through
/// the layers' public functions, each phase under its own span; returns
/// the DBSCAN distance evaluations and the replayed pipeline, whose
/// [`BuildDigest`] and store size must equal the product build's.
fn replay_build(tr: &Tracer, corpus: &Corpus, path: &Path) -> (u64, IntentPipeline) {
    let cfg = PipelineConfig::default();
    let parsed: Vec<Document> = tr.time("text.parse", 0, None, || {
        corpus
            .posts
            .iter()
            .enumerate()
            .map(|(i, p)| Document::parse_clean(DocId(i as u32), &p.text))
            .collect()
    });
    let docs: Vec<CmDoc> = tr.time("nlp.annotate", 0, None, || {
        parsed.into_iter().map(CmDoc::new).collect()
    });
    let coll = PostCollection { docs };
    let raw = tr.time("segment.borders", 0, None, || {
        coll.docs
            .iter()
            .map(|d| cfg.strategy.run(d))
            .collect::<Vec<_>>()
    });
    let (features, seg_owner) = tr.time("cluster.features", 0, None, || {
        let mut features = PointMatrix::with_dim(forum_cluster::SEGMENT_FEATURE_DIM);
        let mut seg_owner = Vec::new();
        for (d, seg) in raw.iter().enumerate() {
            let whole = coll.docs[d].whole();
            for s in seg.segments() {
                let f = segment_features(&coll.docs[d].segment_tables(s), &whole);
                seg_owner.push((d, s));
                features.push(&f);
            }
        }
        (features, seg_owner)
    });
    let t0 = Instant::now();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut dbscan = cfg.dbscan;
    if dbscan.min_pts == 0 {
        dbscan.min_pts = (features.len().min(cfg.max_cluster_sample) / 50).max(8);
    }
    let result = dbscan_sampled_matrix(
        &features,
        &dbscan,
        cfg.max_cluster_sample,
        cfg.threads,
        &mut rng,
    );
    let evals = result.stats.dist_evals;
    tr.record("cluster.dbscan", 0, None, t0, Instant::now(), evals);
    let (labels, centroids) = tr.time("cluster.assign", 0, None, || {
        let mut labels = result.labels.clone();
        let mut centroids = result.centroids_matrix(&features);
        if result.num_clusters == 0 {
            labels = vec![Some(0); features.len()];
            centroids = vec![mean_row(&features)];
        } else if cfg.assign_noise {
            for (i, l) in labels.iter_mut().enumerate() {
                if l.is_none() {
                    *l = forum_cluster::nearest_centroid(features.row(i), &centroids)
                        .map(|(c, _)| c);
                }
            }
        }
        (labels, centroids)
    });
    let num_noise = result.labels.iter().filter(|l| l.is_none()).count();
    let (doc_segments, clusters) = tr.time("index.build", 0, None, || {
        assemble_clusters(
            &coll,
            &seg_owner,
            &labels,
            centroids.len(),
            cfg.skip_refinement,
        )
    });
    let pipe = IntentPipeline {
        raw_segmentations: raw,
        doc_segments,
        clusters,
        centroids,
        num_noise,
        timings: Default::default(),
        weighted_combination: cfg.weighted_combination,
        weighting: cfg.weighting,
    };
    tr.time("store.save", 0, None, || store::save(path, &coll, &pipe))
        .expect("replay save");
    (evals, pipe)
}

/// The mean row, summed in row order then divided — the pipeline's
/// single-cluster fallback.
fn mean_row(m: &PointMatrix) -> Vec<f64> {
    let mut out = vec![0.0; m.dim()];
    for row in m.iter_rows() {
        for (o, x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
    for o in &mut out {
        *o /= m.len() as f64;
    }
    out
}

/// Replays a mapped restart: `StoreView::open`, the first touch of each
/// cluster the first query consults (`StoreView::cluster`), then the
/// query on the now-resident clusters. Returns the clusters touched.
fn replay_mapped(tr: &Tracer, path: &Path, first: usize) -> Result<usize, String> {
    let view = tr
        .time("view.open", 0, None, || StoreView::open(path))
        .map_err(|e| format!("replay open: {e}"))?;
    let segs = view
        .doc_segments(first)
        .map_err(|e| format!("replay segments: {e}"))?;
    let groups = query_cluster_groups_of(&segs);
    for g in &groups {
        tr.time("view.cluster_decode", 0, None, || view.cluster(g.cluster))
            .map_err(|e| format!("replay decode: {e}"))?;
    }
    let mut scratch = QueryScratch::new();
    tr.time("view.top_k", 0, None, || view.top_k(first, K, &mut scratch))
        .map_err(|e| format!("replay query: {e}"))?;
    Ok(groups.len())
}
