//! `intentmatch` — finding related forum posts through content similarity
//! over intention-based segmentation.
//!
//! This is the paper's primary contribution, assembled from the substrate
//! crates:
//!
//! 1. **Segmentation** (Section 5): each post is split at shifts of its
//!    communication means ([`forum_segment`]).
//! 2. **Segment grouping** (Section 6): all segments of the collection are
//!    clustered on their 28-dim weight vectors with DBSCAN
//!    ([`forum_cluster`]) into *intention clusters*; same-document segments
//!    that land in one cluster are concatenated (segmentation refinement).
//! 3. **Indexing** (Section 7): one full-text index per intention cluster
//!    ([`forum_index`]), so the same term weighs differently per intention.
//! 4. **Matching** (Algorithms 1 & 2): per-intention top-n lists are
//!    combined into the final top-k related posts.
//!
//! # Example
//!
//! ```
//! use intentmatch::{IntentPipeline, PipelineConfig, PostCollection};
//!
//! let posts = [
//!     "I have an HP system with a RAID array. Do you know whether the \
//!      RAID 0 controller would degrade performance?",
//!     "My printer jams on every page. How can I fix the paper tray?",
//!     "The RAID array shows as degraded. Will the RAID 0 controller \
//!      hurt performance when the disks are only partially used?",
//! ];
//! let collection = PostCollection::from_raw_texts(&posts);
//! let pipeline = IntentPipeline::build(&collection, &PipelineConfig::default());
//! let related = pipeline.top_k(&collection, 0, 2);
//! assert!(related.len() <= 2);
//! assert!(related.iter().all(|&(d, _)| d != 0));
//! ```
//!
//! Modules:
//! * [`collection`] — a parsed post collection, CM-annotated on demand.
//! * [`pipeline`] — the offline build (steps 1–3) and online matching
//!   (step 4), with per-phase timings. Algorithm 2 lives here once — a
//!   per-cluster step ([`pipeline::scan_cluster`]), a fold
//!   ([`pipeline::fold_weighted`]) and an inline runner
//!   ([`pipeline::run_algo2`]) — and every query backend calls it.
//! * [`methods`] — the five methods of the paper's evaluation behind one
//!   [`methods::Matcher`] trait: `FullText`, `LDA`, `Content-MR`,
//!   `SentIntent-MR` and `IntentIntent-MR`.
//! * [`eval`] — mean-precision evaluation against simulated user judgments
//!   (Tables 4 & 5, Fig. 10).
//! * [`store`] — persistence: save/load the entire offline build so a
//!   process can restart straight into the online matching phase.
//! * [`explain`] — per-query EXPLAIN traces: which intention clusters a
//!   query consulted, each cluster's candidates and combination weight,
//!   and why each result ranked where.
//! * [`view`] — the mapped store reader ([`StoreView`]), the heap backend
//!   ([`HeapStore`]) and the one batch runner ([`top_k_many`]), which
//!   spreads queries over workers with per-worker reusable scratch,
//!   bit-identical to the sequential [`IntentPipeline::top_k`] for every
//!   thread count.
//! * [`engine`] — the fold and cost mapping the shard-parallel serving
//!   tier shares with the heap path.
//! * [`par`] — scoped-thread parallel map for the per-document offline
//!   phases (the paper runs segmentation of its large collection in
//!   parallel parts).
//!
//! Observability: the offline phases and online algorithms record spans
//! and counters into the process-wide [`forum_obs::Registry`], which is
//! disabled (near-zero cost) unless a caller — e.g. `intentmatch
//! --metrics-out` — enables it.

pub mod collection;
pub mod engine;
pub mod eval;
pub mod explain;
pub mod methods;
pub mod pipeline;
pub mod store;
pub mod store_v2;
pub mod view;

// The parallel-map substrate moved to its own leaf crate so lower layers
// (forum-cluster's parallel DBSCAN) can fan out without depending on this
// crate; the re-export keeps every existing `intentmatch::par::` path.
pub use forum_par as par;

pub use collection::PostCollection;
pub use eval::{evaluate_method, EvalConfig, MethodEval};
pub use explain::{explain_top_k, QueryExplain};
pub use methods::{ContentMrMatcher, FullTextMatcher, LdaMatcher, Matcher, MethodKind, MrMatcher};
pub use pipeline::{BuildTimings, IntentPipeline, PipelineConfig};
pub use store::{load as load_pipeline, save as save_pipeline, StoreError};
pub use view::{top_k_many, BackingMode, HeapStore, QuerySource, StoreView};
