//! Latent Dirichlet Allocation with collapsed Gibbs sampling, plus a
//! topic-similarity retrieval baseline.
//!
//! The paper's evaluation (Section 9.2) compares its segment-based matcher
//! against "matching based on LDA topics with Gibbs sampling" \[7\], \[35\].
//! This crate is that baseline, built from scratch:
//!
//! * [`lda`] — the model: collapsed Gibbs sampler over term-id documents,
//!   producing document-topic (θ) and topic-word (φ) distributions.
//! * [`retrieval`] — rank documents by topic-distribution similarity to a
//!   query document (cosine over θ, with Jensen–Shannon divergence as an
//!   alternative).

pub mod lda;
pub mod retrieval;

pub use lda::{Lda, LdaConfig};
pub use retrieval::{rank_by_topics, TopicSimilarity};
