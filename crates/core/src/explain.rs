//! Per-query EXPLAIN: a faithful trace of Algorithms 1 & 2.
//!
//! [`explain_top_k`] runs the exact same code path as
//! [`IntentPipeline::top_k`] — the heap backend's step
//! ([`crate::pipeline::scan_cluster`]) and the one fold
//! ([`crate::pipeline::fold_weighted`]) under the one runner
//! ([`crate::pipeline::run_algo2`]) — while recording *why* each result
//! ranked where: which intention clusters were consulted, each cluster's
//! query terms and combination weight, the per-cluster top-n candidate
//! lists, and the per-cluster contribution to every final score. The step
//! records each cluster's trace itself, and the ranking is the runner's,
//! so [`QueryExplain::results`] equal the production ranking by
//! construction (and by test).

use crate::collection::PostCollection;
use crate::par::WorkerPanic;
use crate::pipeline::{
    default_list_len, query_cluster_groups, run_algo2, HeapMr, IntentPipeline, QueryScratch,
};
use forum_obs::json::Json;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// The trace of one intention cluster's part in a query.
#[derive(Debug, Clone, Default)]
pub struct ClusterTrace {
    /// The intention cluster id.
    pub cluster: usize,
    /// The query document's sentence ranges refined into this cluster.
    pub ranges: Vec<(usize, usize)>,
    /// Number of (non-distinct) query terms drawn from those ranges.
    pub num_terms: usize,
    /// Number of distinct query terms.
    pub num_distinct_terms: usize,
    /// The combination weight Algorithm 2 applies to this cluster's list
    /// (1.0 when the pipeline runs unweighted; the squared mean
    /// probabilistic IDF of the distinct query terms otherwise).
    pub weight: f64,
    /// Whether the cluster was skipped (zero/negative weight — e.g. an
    /// empty or entirely commonplace query segment contributes nothing).
    pub skipped: bool,
    /// Algorithm 1's top-n candidates for this cluster, `(doc, raw score)`
    /// in descending score order.
    pub candidates: Vec<(u32, f64)>,
}

impl ClusterTrace {
    /// Records what Algorithm 2's step saw and did in this cluster: the
    /// query terms, the combination weight, and the scan's candidates
    /// (empty when the step skipped the cluster).
    pub(crate) fn record_step(&mut self, terms: &[String], weight: f64, candidates: &[(u32, f64)]) {
        let mut distinct: Vec<&str> = terms.iter().map(String::as_str).collect();
        distinct.sort_unstable();
        distinct.dedup();
        self.num_terms = terms.len();
        self.num_distinct_terms = distinct.len();
        self.weight = weight;
        self.skipped = weight <= 0.0;
        self.candidates = candidates.to_vec();
    }
}

/// One cluster's contribution to a final result's score.
#[derive(Debug, Clone)]
pub struct Contribution {
    /// The contributing intention cluster.
    pub cluster: usize,
    /// The raw Algorithm 1 score in that cluster.
    pub score: f64,
    /// The cluster's combination weight.
    pub weight: f64,
}

impl Contribution {
    /// The amount added to the final score (`weight * score`).
    pub fn weighted(&self) -> f64 {
        self.weight * self.score
    }
}

/// One final ranked result with its provenance.
#[derive(Debug, Clone)]
pub struct ResultTrace {
    /// 1-based final rank.
    pub rank: usize,
    /// The related document.
    pub doc: u32,
    /// Its combined score (the sum of weighted contributions).
    pub score: f64,
    /// Per-cluster contributions, in cluster-consultation order.
    pub contributions: Vec<Contribution>,
}

/// A complete per-query EXPLAIN trace.
#[derive(Debug, Clone)]
pub struct QueryExplain {
    /// The query document id.
    pub query: usize,
    /// Requested result count.
    pub k: usize,
    /// Per-intention list length Algorithm 2 consumed.
    pub n: usize,
    /// Whether the weighted combination was used.
    pub weighted: bool,
    /// The clusters consulted (one entry per *distinct* cluster holding a
    /// refined segment of the query document, in first-appearance order —
    /// see [`query_cluster_groups`]).
    pub clusters: Vec<ClusterTrace>,
    /// The final ranking with provenance; identical (doc, score) pairs to
    /// [`IntentPipeline::top_k`].
    pub results: Vec<ResultTrace>,
}

impl QueryExplain {
    /// The final ranking as plain `(doc, score)` pairs — bit-identical to
    /// what [`IntentPipeline::top_k`] returns for the same inputs.
    pub fn ranking(&self) -> Vec<(u32, f64)> {
        self.results.iter().map(|r| (r.doc, r.score)).collect()
    }

    /// The trace as a JSON value (machine-readable EXPLAIN).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("query", self.query)
            .with("k", self.k)
            .with("n", self.n)
            .with("weighted", self.weighted)
            .with(
                "clusters",
                Json::Arr(
                    self.clusters
                        .iter()
                        .map(|c| {
                            Json::obj()
                                .with("cluster", c.cluster)
                                .with(
                                    "ranges",
                                    Json::Arr(
                                        c.ranges
                                            .iter()
                                            .map(|&(a, b)| {
                                                Json::Arr(vec![Json::from(a), Json::from(b)])
                                            })
                                            .collect(),
                                    ),
                                )
                                .with("num_terms", c.num_terms)
                                .with("num_distinct_terms", c.num_distinct_terms)
                                .with("weight", c.weight)
                                .with("skipped", c.skipped)
                                .with(
                                    "candidates",
                                    Json::Arr(
                                        c.candidates
                                            .iter()
                                            .map(|&(d, s)| {
                                                Json::obj().with("doc", d).with("score", s)
                                            })
                                            .collect(),
                                    ),
                                )
                        })
                        .collect(),
                ),
            )
            .with(
                "results",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| {
                            Json::obj()
                                .with("rank", r.rank)
                                .with("doc", r.doc)
                                .with("score", r.score)
                                .with(
                                    "contributions",
                                    Json::Arr(
                                        r.contributions
                                            .iter()
                                            .map(|c| {
                                                Json::obj()
                                                    .with("cluster", c.cluster)
                                                    .with("weight", c.weight)
                                                    .with("score", c.score)
                                                    .with("weighted", c.weighted())
                                            })
                                            .collect(),
                                    ),
                                )
                        })
                        .collect(),
                ),
            )
    }

    /// A human-readable EXPLAIN report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "EXPLAIN query doc #{} (k={}, n={}, {} combination)\n",
            self.query,
            self.k,
            self.n,
            if self.weighted { "weighted" } else { "plain" }
        ));
        out.push_str(&format!(
            "consulted {} intention cluster(s):\n",
            self.clusters.len()
        ));
        for c in &self.clusters {
            let ranges: Vec<String> = c.ranges.iter().map(|&(a, b)| format!("{a}..{b}")).collect();
            out.push_str(&format!(
                "  cluster {:<3} sentences [{}]  terms={} (distinct {})  weight={:.4}{}\n",
                c.cluster,
                ranges.join(", "),
                c.num_terms,
                c.num_distinct_terms,
                c.weight,
                if c.skipped {
                    "  SKIPPED (weight <= 0)"
                } else {
                    ""
                }
            ));
            for (rank, &(d, s)) in c.candidates.iter().enumerate() {
                out.push_str(&format!(
                    "      cand {:<2} doc #{:<6} raw score {s:.4}\n",
                    rank + 1,
                    d
                ));
            }
        }
        if self.results.is_empty() {
            out.push_str("no results\n");
        } else {
            out.push_str(&format!("final top-{}:\n", self.results.len()));
        }
        for r in &self.results {
            out.push_str(&format!(
                "  rank {:<2} doc #{:<6} score {:.4}\n",
                r.rank, r.doc, r.score
            ));
            for c in &r.contributions {
                out.push_str(&format!(
                    "      from cluster {:<3} {:.4} x {:.4} = {:.4}\n",
                    c.cluster,
                    c.weight,
                    c.score,
                    c.weighted()
                ));
            }
        }
        out
    }
}

/// EXPLAIN for [`IntentPipeline::top_k`] (which uses `n = 2k`): runs the
/// same steps and fold and returns the trace.
///
/// With `trace`, records an `explain/build` span: EXPLAIN re-runs the
/// query's scans, and on the slow-query path that rebuild cost should be
/// attributed, not hidden. The span counts consulted clusters as routed
/// and weight-skipped clusters as pruned candidates.
pub fn explain_top_k(
    pipeline: &IntentPipeline,
    collection: &PostCollection,
    q: usize,
    k: usize,
    trace: Option<&mut forum_obs::Trace>,
) -> QueryExplain {
    let start = std::time::Instant::now();
    let heap = HeapMr::of(collection, pipeline);
    let groups = query_cluster_groups(&pipeline.doc_segments, q);
    // The runner's step is `Fn + Sync` (it may run on workers); EXPLAIN
    // runs it inline, so this lock is never contended.
    let traces: Mutex<Vec<ClusterTrace>> = Mutex::new(Vec::with_capacity(groups.len()));
    let ranking = run_algo2(
        &groups,
        k,
        None,
        1,
        &mut QueryScratch::new(),
        |group, n, s| {
            let mut cluster = ClusterTrace {
                cluster: group.cluster,
                ranges: group.ranges.clone(),
                ..ClusterTrace::default()
            };
            let scan = heap.step(q, group, n, s, Some(&mut cluster));
            traces
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(cluster);
            Ok(scan)
        },
    )
    .unwrap_or_else(|e: WorkerPanic| panic!("{e}"));
    let clusters = traces.into_inner().unwrap_or_else(PoisonError::into_inner);

    // Provenance: each ranked document's weighted contributions, in
    // consultation order.
    let mut provenance: HashMap<u32, Vec<Contribution>> = HashMap::new();
    for c in &clusters {
        for &(owner, score) in &c.candidates {
            provenance.entry(owner).or_default().push(Contribution {
                cluster: c.cluster,
                score,
                weight: c.weight,
            });
        }
    }
    let results = ranking
        .into_iter()
        .enumerate()
        .map(|(i, (doc, score))| ResultTrace {
            rank: i + 1,
            doc,
            score,
            contributions: provenance.remove(&doc).unwrap_or_default(),
        })
        .collect();

    if let Some(t) = trace {
        t.push_span(
            "explain/build",
            start,
            forum_obs::TraceCosts {
                clusters_routed: clusters.len() as u64,
                candidates_pruned: clusters.iter().filter(|c| c.skipped).count() as u64,
                ..forum_obs::TraceCosts::default()
            },
        );
    }
    QueryExplain {
        query: q,
        k,
        n: default_list_len(k),
        weighted: pipeline.weighted_combination,
        clusters,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use forum_corpus::{Corpus, Domain, GenConfig};

    fn setup(threads: usize) -> (PostCollection, IntentPipeline) {
        let corpus = Corpus::generate(&GenConfig {
            domain: Domain::TechSupport,
            num_posts: 250,
            seed: 17,
        });
        let coll = PostCollection::from_corpus_parallel(&corpus, threads);
        let pipe = IntentPipeline::build(
            &coll,
            &PipelineConfig {
                threads,
                ..Default::default()
            },
        );
        (coll, pipe)
    }

    #[test]
    fn explain_ranking_matches_production_top_k() {
        let (coll, pipe) = setup(1);
        for q in [0usize, 9, 42, 120, 249] {
            let explain = explain_top_k(&pipe, &coll, q, 5, None);
            assert_eq!(
                explain.ranking(),
                pipe.top_k(&coll, q, 5),
                "EXPLAIN must reproduce production ranking for query {q}"
            );
        }
    }

    #[test]
    fn contributions_sum_to_final_scores() {
        let (coll, pipe) = setup(1);
        let explain = explain_top_k(&pipe, &coll, 3, 5, None);
        for r in &explain.results {
            let sum: f64 = r.contributions.iter().map(Contribution::weighted).sum();
            assert!(
                (sum - r.score).abs() < 1e-9,
                "doc {} contributions {sum} vs score {}",
                r.doc,
                r.score
            );
            assert!(!r.contributions.is_empty());
        }
    }

    #[test]
    fn cluster_traces_cover_query_segments() {
        let (coll, pipe) = setup(1);
        let q = 7;
        let explain = explain_top_k(&pipe, &coll, q, 5, None);
        let groups = query_cluster_groups(&pipe.doc_segments, q);
        assert_eq!(explain.clusters.len(), groups.len());
        for (trace, group) in explain.clusters.iter().zip(&groups) {
            assert_eq!(trace.cluster, group.cluster);
            assert_eq!(trace.ranges, group.ranges);
            assert!(trace.num_distinct_terms <= trace.num_terms);
            assert!(trace.candidates.len() <= explain.n);
            for w in trace.candidates.windows(2) {
                assert!(w[0].1 >= w[1].1, "candidates must descend");
            }
        }
    }

    #[test]
    fn explain_is_deterministic_across_thread_counts() {
        // threads = 1 (sequential) vs threads = 0 (one worker per core):
        // the parallel offline build is bit-identical, so EXPLAIN must be
        // too — same JSON, byte for byte.
        let (coll_seq, pipe_seq) = setup(1);
        let (coll_par, pipe_par) = setup(0);
        for q in [0usize, 11, 100] {
            let a = explain_top_k(&pipe_seq, &coll_seq, q, 5, None);
            let b = explain_top_k(&pipe_par, &coll_par, q, 5, None);
            assert_eq!(
                a.to_json().to_string(),
                b.to_json().to_string(),
                "query {q}"
            );
            assert_eq!(a.render(), b.render(), "query {q}");
        }
    }

    #[test]
    fn json_trace_is_valid_and_complete() {
        let (coll, pipe) = setup(1);
        let explain = explain_top_k(&pipe, &coll, 0, 5, None);
        let text = explain.to_json().to_string();
        let parsed = forum_obs::json::Json::parse(&text).expect("EXPLAIN JSON must parse");
        assert_eq!(parsed.get("query").unwrap().as_u64(), Some(0));
        assert_eq!(
            parsed.get("clusters").unwrap().as_arr().unwrap().len(),
            explain.clusters.len()
        );
        assert_eq!(
            parsed.get("results").unwrap().as_arr().unwrap().len(),
            explain.results.len()
        );
    }

    #[test]
    fn render_mentions_every_result() {
        let (coll, pipe) = setup(1);
        let explain = explain_top_k(&pipe, &coll, 0, 5, None);
        let text = explain.render();
        assert!(text.contains("EXPLAIN query doc #0"));
        for r in &explain.results {
            assert!(text.contains(&format!("doc #{}", r.doc)), "{text}");
        }
        for c in &explain.clusters {
            assert!(
                text.contains(&format!("cluster {:<3}", c.cluster)),
                "{text}"
            );
        }
    }
}
