//! Compatibility tests against the **checked-in** v2 store fixture at
//! `testdata/legacy-v2.imp`: a store written in the version-2 layout
//! (FNV-1a section checksums, postings in unit order) must keep loading
//! through both readers and must rank every post exactly as the v1
//! fixture it was migrated from.
//!
//! The fixture is `intentmatch migrate testdata/legacy-v1.imp
//! testdata/legacy-v2.imp` as run by a build that wrote version 2. It is
//! never regenerated: its whole purpose is to hold bytes that the
//! current writer no longer produces.

use intentmatch::pipeline::QueryScratch;
use intentmatch::{store, StoreView};
use std::path::PathBuf;

fn testdata() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../testdata")
}

type Bits = Vec<(u32, u64)>;

fn as_bits(r: &[(u32, f64)]) -> Bits {
    r.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// Every post's top-5 off a mapped view of `path`.
fn mapped_rankings(path: &std::path::Path) -> Vec<Bits> {
    let view = StoreView::open(path).expect("store opens mapped");
    let mut scratch = QueryScratch::new();
    (0..view.num_docs())
        .map(|q| as_bits(&view.top_k(q, 5, &mut scratch).expect("mapped query")))
        .collect()
}

#[test]
fn checked_in_v2_store_ranks_like_the_v1_fixture_on_every_reader() {
    let v2_path = testdata().join("legacy-v2.imp");
    let head = std::fs::read(&v2_path).expect("testdata/legacy-v2.imp is checked in");
    assert_eq!(&head[0..4], b"IMP2", "fixture must stay an IMP2 file");
    assert_eq!(
        u32::from_le_bytes(head[4..8].try_into().unwrap()),
        2,
        "fixture must stay a version-2 store"
    );

    // The reference: every post's top-5 off the hydrated v1 fixture.
    let (v1_collection, v1_pipeline) =
        store::load(&testdata().join("legacy-v1.imp")).expect("v1 store loads");
    let want: Vec<Bits> = (0..v1_collection.len())
        .map(|q| as_bits(&v1_pipeline.top_k(&v1_collection, q, 5)))
        .collect();
    assert!(
        want.iter().any(|r| !r.is_empty()),
        "fixture must rank something"
    );

    // Heap load of the version-2 file.
    let (collection, pipeline) = store::load(&v2_path).expect("v2 store loads");
    assert_eq!(collection.len(), v1_collection.len());
    for (q, want) in want.iter().enumerate() {
        assert_eq!(
            &as_bits(&pipeline.top_k(&collection, q, 5)),
            want,
            "heap query {q}"
        );
    }

    // Mapped view of the version-2 file.
    assert_eq!(mapped_rankings(&v2_path), want, "mapped v2 fixture");

    // Saving the loaded state writes the current format; its mapped
    // answers keep the same bits.
    let dir = std::env::temp_dir().join(format!("intentmatch-v2-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let resaved = dir.join("resaved.imp");
    store::save(&resaved, &collection, &pipeline).expect("save");
    assert_eq!(mapped_rankings(&resaved), want, "resaved store");
    std::fs::remove_dir_all(&dir).ok();
}
