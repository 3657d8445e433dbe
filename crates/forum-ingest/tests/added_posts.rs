//! A post added through `LiveStore::add` and folded in by `compact` is a
//! first-class document of the store: it gets the next id, finds related
//! posts without ever matching itself, and a second copy of it finds the
//! first copy before anything else.

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_ingest::{IngestConfig, LiveStore};
use intentmatch::{store, IntentPipeline, PipelineConfig, PostCollection};

#[test]
fn added_post_is_retrievable_and_its_duplicate_matches_it_first() {
    let dir = std::env::temp_dir().join(format!("forum-ingest-added-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.imp");
    let corpus = Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts: 120,
        seed: 13,
    });
    let coll = PostCollection::from_corpus(&corpus);
    let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
    store::save(&path, &coll, &pipe).unwrap();
    let _ = std::fs::remove_file(forum_ingest::wal_path_for(&path));
    let mut live =
        LiveStore::open(&path, PipelineConfig::default(), IngestConfig::default()).unwrap();

    let before = coll.len() as u32;
    let text = "My HP Pavilion runs Linux and has a wireless card. \
        The connection drops every hour. I reinstalled the wireless driver. \
        Is the wireless card compatible with Linux?";
    let id = live.add(text).unwrap();
    live.compact().unwrap();
    assert_eq!(id, before);
    let epoch = live.current();
    assert_eq!(epoch.num_docs(), before as usize + 1);
    assert!(!epoch.base.pipeline.doc_segments[id as usize].is_empty());
    let hits = epoch.top_k(id, 5);
    assert!(!hits.is_empty(), "the added post finds no related post");
    assert!(hits.iter().all(|&(d, _)| d != id), "{hits:?}");

    let copy = live.add(text).unwrap();
    live.compact().unwrap();
    let hits = live.current().top_k(copy, 5);
    assert_eq!(hits.first().map(|&(d, _)| d), Some(id), "{hits:?}");
    std::fs::remove_dir_all(&dir).ok();
}
