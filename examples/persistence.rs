//! Persistence walk-through: build once, save, restart, query, grow.
//!
//! Run with: `cargo run --release --example persistence`

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_ingest::{IngestConfig, LiveStore};
use intentmatch::{store, IntentPipeline, PipelineConfig, PostCollection};
use std::time::Instant;

fn main() {
    // Offline phase: build and save.
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::Programming,
        num_posts: 600,
        seed: 7,
    });
    let collection = PostCollection::from_corpus(&corpus);
    let t = Instant::now();
    let pipeline = IntentPipeline::build(&collection, &PipelineConfig::default());
    println!("offline build: {:?}", t.elapsed());

    let path = std::env::temp_dir().join("intentmatch-example.imp");
    let _ = std::fs::remove_file(forum_ingest::wal_path_for(&path));
    store::save(&path, &collection, &pipeline).expect("save");
    println!(
        "saved {} posts / {} clusters to {} ({} bytes)",
        collection.len(),
        pipeline.num_clusters(),
        path.display(),
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );

    // "Restart": load and go straight to the online phase.
    let t = Instant::now();
    let (coll2, pipe2) = store::load(&path).expect("load");
    println!(
        "restore: {:?} (no re-segmentation, no re-clustering)",
        t.elapsed()
    );

    let hits = pipe2.top_k(&coll2, 0, 3);
    println!("\ntop-3 related to post 0 after restore:");
    for (d, score) in &hits {
        let preview: String = coll2.docs[*d as usize].doc.text.chars().take(70).collect();
        println!("  {score:.3}  #{d}: {preview}…");
    }
    assert_eq!(
        hits,
        pipeline.top_k(&collection, 0, 3),
        "restore is lossless"
    );

    // Growth: a new post arrives. `add` makes it durable in the write-ahead
    // log and serves it at once; `compact` folds it into a fresh snapshot
    // (the re-segmentation and re-clustering of the collection are not
    // repeated — the post joins the nearest existing intention clusters).
    let mut live = LiveStore::open(&path, PipelineConfig::default(), IngestConfig::default())
        .expect("open live store");
    let id = live
        .add(
            "My CI pipeline fails with undefined symbols from the linker. \
             I cleaned the build directory twice. \
             Is there a known fix for this linker behavior on GCC?",
        )
        .expect("add");
    live.compact().expect("compact");
    let epoch = live.current();
    println!("\nadded post #{id} without a rebuild; its related posts:");
    for (d, score) in epoch.top_k(id, 3) {
        let preview: String = epoch.base.collection.docs[d as usize]
            .doc
            .text
            .chars()
            .take(70)
            .collect();
        println!("  {score:.3}  #{d}: {preview}…");
    }
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(forum_ingest::wal_path_for(&path)).ok();
}
