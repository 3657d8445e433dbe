//! Epoch sharing on the live path: a publish copies pointers, not pending
//! documents, and sharing never lets one epoch see another's writes.
//!
//! * An epoch held across later adds, updates, deletes and a compaction
//!   keeps answering bit-identically.
//! * The epoch a write sequence leaves behind equals, bit for bit, the
//!   epoch a fresh `LiveStore::open` recovers by WAL replay.
//! * Consecutive epochs share each pending document, delta unit and
//!   tombstone set by allocation.

use forum_corpus::{Corpus, Domain, GenConfig};
use forum_ingest::{IngestConfig, LiveEpoch, LiveStore};
use intentmatch::{store, IntentPipeline, PipelineConfig, PostCollection};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

const K: usize = 5;

/// A fresh copy of one small seeded store in its own directory (the
/// pipeline is built once per test binary).
fn store_copy(name: &str) -> PathBuf {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    let dir = std::env::temp_dir().join(format!("live-epochs-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bytes = BYTES.get_or_init(|| {
        let corpus = Corpus::generate(&GenConfig {
            domain: Domain::TechSupport,
            num_posts: 80,
            seed: 5301,
        });
        let coll = PostCollection::from_corpus(&corpus);
        let pipe = IntentPipeline::build(&coll, &PipelineConfig::default());
        let path = dir.join("build.imp");
        store::save(&path, &coll, &pipe).unwrap();
        std::fs::read(&path).unwrap()
    });
    let path = dir.join("store.imp");
    std::fs::write(&path, bytes).unwrap();
    let _ = std::fs::remove_file(forum_ingest::wal_path_for(&path));
    path
}

fn open(path: &std::path::Path) -> LiveStore {
    LiveStore::open(path, PipelineConfig::default(), IngestConfig::default()).unwrap()
}

fn new_posts(n: usize) -> Vec<String> {
    Corpus::generate(&GenConfig {
        domain: Domain::TechSupport,
        num_posts: n,
        seed: 5302,
    })
    .posts
    .into_iter()
    .map(|p| p.text)
    .collect()
}

/// Every live document's text and top-k ranking, scores as raw bits.
type Answers = Vec<(u32, Option<String>, Vec<(u32, u64)>)>;

fn answers(epoch: &LiveEpoch, docs: impl IntoIterator<Item = u32>) -> Answers {
    docs.into_iter()
        .map(|q| {
            let hits = epoch.top_k(q, K);
            let text = epoch.doc_text(q).map(str::to_string);
            (
                q,
                text,
                hits.iter().map(|&(d, s)| (d, s.to_bits())).collect(),
            )
        })
        .collect()
}

/// A delta unit's owner, term frequencies and `log_tf_sum` bits.
type UnitBits = (u32, Vec<(forum_text::TermId, u32)>, u64);

/// Base posts sampled across the id range, plus every pending one.
fn sampled(epoch: &LiveEpoch) -> Vec<u32> {
    let base = epoch.base.len() as u32;
    (0..base)
        .step_by(7)
        .chain(base..epoch.num_docs() as u32)
        .collect()
}

#[test]
fn held_epoch_answers_unchanged_across_later_writes() {
    let path = store_copy("held");
    let mut live = open(&path);
    let posts = new_posts(16);
    let ids = live.add_batch(&posts[..8]).unwrap();
    let held = live.current();
    let docs = sampled(&held);
    let before = answers(&held, docs.iter().copied());
    assert!(before.iter().any(|(_, _, hits)| !hits.is_empty()));

    for text in &posts[8..12] {
        live.add(text).unwrap();
    }
    live.update(ids[1], &posts[12]).unwrap(); // a pending doc rewritten
    live.delete(ids[2]).unwrap(); // a pending doc gone
    live.delete(3).unwrap(); // a base doc gone
    assert_eq!(answers(&held, docs.iter().copied()), before);
    live.compact().unwrap();
    live.add(&posts[13]).unwrap();

    assert_eq!(answers(&held, docs.iter().copied()), before);
    assert!(held.is_live(ids[2]) && held.is_live(3));
    // The writes are real: the current epoch no longer matches.
    assert_ne!(answers(&live.current(), docs.iter().copied()), before);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn live_epoch_equals_the_epoch_wal_replay_recovers() {
    let path = store_copy("replay");
    let mut live = open(&path);
    let posts = new_posts(16);
    let first = live.add_batch(&posts[..4]).unwrap();
    live.compact().unwrap();
    let ids = live.add_batch(&posts[4..10]).unwrap();
    live.update(ids[0], &posts[10]).unwrap(); // pending doc rewritten
    live.update(6, &posts[11]).unwrap(); // base doc rewritten
    live.delete(ids[3]).unwrap(); // pending doc gone
    live.delete(9).unwrap(); // base doc gone
    live.delete(6).unwrap(); // rewritten base doc gone
    live.delete(first[1]).unwrap(); // compacted doc gone
    live.add(&posts[12]).unwrap();
    let written = live.current();
    drop(live);

    let recovered = open(&path).current();
    let (w, r) = (&written.delta, &recovered.delta);
    assert_eq!(written.num_docs(), recovered.num_docs());
    assert_eq!(written.num_live_docs(), recovered.num_live_docs());
    assert_eq!(w.deleted(), r.deleted());
    assert_eq!(w.superseded(), r.superseded());
    assert_eq!(w.base_tombstones(), r.base_tombstones());
    assert_eq!(w.docs.len(), r.docs.len());
    for (a, b) in w.docs.iter().zip(&r.docs) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.doc.doc.text, b.doc.doc.text);
        assert_eq!(a.terms, b.terms);
        let segs = |d: &forum_ingest::DeltaDoc| -> Vec<(usize, Vec<(usize, usize)>)> {
            d.refined
                .iter()
                .map(|s| (s.cluster, s.ranges.clone()))
                .collect()
        };
        assert_eq!(segs(a), segs(b), "doc {}", a.id);
    }
    for (c, (a, b)) in w.deltas.iter().zip(&r.deltas).enumerate() {
        let units = |d: &forum_index::DeltaIndex| -> Vec<UnitBits> {
            d.units()
                .iter()
                .map(|u| (u.owner, u.freqs.clone(), u.log_tf_sum.to_bits()))
                .collect()
        };
        assert_eq!(units(a), units(b), "cluster {c}");
    }
    let all = 0..written.num_docs() as u32;
    assert_eq!(answers(&written, all.clone()), answers(&recovered, all));
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn consecutive_epochs_share_pending_allocations() {
    let path = store_copy("share");
    let mut live = open(&path);
    let posts = new_posts(4);
    let a = live.add(&posts[0]).unwrap();
    let e1 = live.current();
    live.add(&posts[1]).unwrap();
    let e2 = live.current();
    assert!(e1.epoch < e2.epoch);

    // The document added before e1 is the same allocation in both epochs.
    let pos = |e: &LiveEpoch| e.delta.docs.iter().position(|d| d.id == a).unwrap();
    assert!(Arc::ptr_eq(
        &e1.delta.docs[pos(&e1)],
        &e2.delta.docs[pos(&e2)]
    ));
    // So is each of its delta units.
    let mut shared_units = 0;
    for (d1, d2) in e1.delta.deltas.iter().zip(&e2.delta.deltas) {
        for u in d1.units().iter().filter(|u| u.owner == a) {
            assert!(d2.units().iter().any(|v| Arc::ptr_eq(u, v)));
            shared_units += 1;
        }
    }
    assert!(shared_units > 0, "the added post produced no units");
    // An add leaves the tombstone sets untouched and shared.
    assert!(std::ptr::eq(e1.delta.deleted(), e2.delta.deleted()));
    assert!(std::ptr::eq(e1.delta.superseded(), e2.delta.superseded()));
    assert!(std::ptr::eq(
        e1.delta.base_tombstones(),
        e2.delta.base_tombstones()
    ));

    // A delete copies the sets it changes, leaving the older epoch's alone.
    live.delete(2).unwrap();
    let e3 = live.current();
    assert!(!std::ptr::eq(e2.delta.deleted(), e3.delta.deleted()));
    assert!(!e2.delta.deleted().contains(&2) && e3.delta.deleted().contains(&2));
    assert!(!e2.delta.base_tombstones().contains(&2));
    assert!(Arc::ptr_eq(
        &e2.delta.docs[pos(&e2)],
        &e3.delta.docs[pos(&e3)]
    ));
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}
