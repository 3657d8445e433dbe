//! The restore path end to end: a collection loaded from a store holds
//! documents that CM-annotate on demand, and building over it (which
//! forces every annotation through border selection and the segment
//! features) reproduces the original build exactly.

use forum_index::UnitId;
use intentmatch::pipeline::PipelineConfig;
use intentmatch::{store, IntentPipeline, PostCollection};

/// A refined segment: its cluster and its sentence ranges.
type Refined = (usize, Vec<(usize, usize)>);

/// What a build determines exactly: raw segmentations, refined segments
/// with their clusters, centroid bits, the noise count, and every cluster
/// index's unit owners.
#[derive(Debug, PartialEq)]
struct Shape {
    raw: Vec<forum_text::Segmentation>,
    refined: Vec<Vec<Refined>>,
    centroids: Vec<Vec<u64>>,
    num_noise: usize,
    owners: Vec<Vec<u32>>,
}

fn shape(pipe: &IntentPipeline) -> Shape {
    Shape {
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
        owners: pipe
            .clusters
            .iter()
            .map(|c| {
                (0..c.index.num_units())
                    .map(|u| c.index.owner(UnitId(u as u32)))
                    .collect()
            })
            .collect(),
    }
}

#[test]
fn building_over_a_loaded_collection_reproduces_the_build() {
    let corpus = forum_corpus::Corpus::generate(&forum_corpus::GenConfig {
        domain: forum_corpus::Domain::TechSupport,
        num_posts: 160,
        seed: 29,
    });
    let cfg = PipelineConfig::default();
    let coll = PostCollection::from_corpus(&corpus);
    let built = IntentPipeline::build(&coll, &cfg);
    assert!(built.num_clusters() > 1, "the corpus must cluster");

    let dir =
        std::env::temp_dir().join(format!("intentmatch-restore-build-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("store.imp");
    // Both restore paths: the v2 hydrate and the legacy v1 decode.
    for layout in ["v2", "v1"] {
        let save = if layout == "v1" {
            store::save_v1
        } else {
            store::save
        };
        save(&path, &coll, &built).expect("save");
        let (loaded_coll, loaded) = store::load(&path).expect("load");
        assert_eq!(loaded_coll.len(), coll.len());
        for (l, o) in loaded_coll.docs.iter().zip(&coll.docs) {
            assert_eq!(l.doc.text, o.doc.text);
            assert_eq!(l.num_units(), o.num_units());
        }
        assert_eq!(
            shape(&loaded),
            shape(&built),
            "{layout}: the store restores the build"
        );
        let rebuilt = IntentPipeline::build(&loaded_coll, &cfg);
        assert_eq!(
            shape(&rebuilt),
            shape(&built),
            "{layout}: a build over the restored posts"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
