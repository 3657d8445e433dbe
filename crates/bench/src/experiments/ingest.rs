//! Ingest throughput: WAL-durable live adds against a frozen intention
//! model, compaction cost, and how both compare to the full offline
//! rebuild they replace.
//!
//! Three numbers matter for the live subsystem's pitch:
//!
//! * adds/second through [`forum_ingest::LiveStore::add`] — each one is
//!   segmented, centroid-assigned, fsync'd to the WAL, and published;
//! * compaction wall time — folding the accumulated delta into a fresh
//!   snapshot with recomputed TF/IDF statistics;
//! * the same growth done the pre-live way — a full pipeline rebuild over
//!   the union — which is what every single `add` subcommand invocation
//!   used to amortize.
//!
//! The run asserts the serving invariant along the way: after compaction
//! the epoch path answers bit-identically to the heap pipeline.

use crate::util::{header, print_table, Options};
use forum_corpus::{Domain, GenConfig};
use forum_ingest::{IngestConfig, LiveStore};
use intentmatch::{store, IntentPipeline, PipelineConfig};
use std::time::Instant;

pub fn run(opts: &Options) {
    header("ingest_throughput: live adds + compaction vs full rebuild");

    let base_posts = opts.posts.max(50);
    let added_posts = (base_posts / 5).max(20);
    let (_, coll) = opts.collection(Domain::TechSupport, base_posts);
    println!(
        "building base pipeline over {} posts ({} to ingest)…",
        coll.len(),
        added_posts
    );
    let build_started = Instant::now();
    let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
    let base_build = build_started.elapsed();

    let dir = std::env::temp_dir().join(format!("bench-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store_path = dir.join("bench.imp");
    store::save(&store_path, &coll, &pipe).expect("save base snapshot");

    let added = forum_corpus::Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts: added_posts,
        seed: opts.seed + 1,
    });

    let mut live = LiveStore::open(
        &store_path,
        PipelineConfig::default(),
        IngestConfig::default(),
    )
    .expect("open live store");
    let ingest_started = Instant::now();
    for p in &added.posts {
        live.add(&p.text).expect("ingest post");
    }
    let ingest_wall = ingest_started.elapsed();

    let compact_started = Instant::now();
    live.compact().expect("compact");
    let compact_wall = compact_started.elapsed();

    // The pre-live alternative: rebuild the whole pipeline over the union.
    let union_texts: Vec<String> = coll
        .docs
        .iter()
        .map(|d| d.doc.text.clone())
        .chain(added.posts.iter().map(|p| p.text.clone()))
        .collect();
    let union_coll = intentmatch::PostCollection::from_raw_texts(&union_texts);
    let rebuild_started = Instant::now();
    let union_pipe = IntentPipeline::build(&union_coll, &PipelineConfig::default());
    let rebuild_wall = rebuild_started.elapsed();
    drop(union_pipe);

    // Serving invariant: the compacted epoch answers exactly like the
    // heap pipeline over the reloaded snapshot.
    let (rcoll, rpipe) = store::load(&store_path).expect("reload compacted snapshot");
    let epoch = live.current();
    assert!(!epoch.has_pending());
    let sample: Vec<usize> = (0..rcoll.len()).step_by(7).collect();
    for &q in &sample {
        assert_eq!(
            epoch.top_k(q as u32, 5),
            rpipe.top_k(&rcoll, q, 5),
            "epoch vs heap pipeline diverged at query {q}"
        );
    }

    let per_add = ingest_wall / added_posts.max(1) as u32;
    let rate = added_posts as f64 / ingest_wall.as_secs_f64().max(1e-9);
    print_table(
        &["phase", "wall", "per post", "notes"],
        &[
            vec![
                "base build".into(),
                format!("{base_build:?}"),
                format!("{:?}", base_build / base_posts.max(1) as u32),
                format!("{base_posts} posts, offline"),
            ],
            vec![
                "ingest".into(),
                format!("{ingest_wall:?}"),
                format!("{per_add:?}"),
                format!("{rate:.0} adds/s, fsync per record"),
            ],
            vec![
                "compact".into(),
                format!("{compact_wall:?}"),
                "-".into(),
                format!("{} posts folded, TF/IDF recomputed", added_posts),
            ],
            vec![
                "full rebuild".into(),
                format!("{rebuild_wall:?}"),
                format!("{:?}", rebuild_wall / union_texts.len().max(1) as u32),
                format!("{} posts, what `add` re-ran each call", union_texts.len()),
            ],
        ],
    );
    println!(
        "(ingest+compact {:?} vs rebuild {rebuild_wall:?}; {} sample queries asserted \
         bit-identical epoch vs heap pipeline)",
        ingest_wall + compact_wall,
        sample.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
