//! A parsed post collection, CM-annotated on demand.

use forum_corpus::Corpus;
use forum_segment::CmDoc;
use forum_text::{document::DocId, Document};

/// A collection of posts, parsed once and shared by every method under
/// evaluation. The constructors here also CM-annotate every post
/// ([`CmDoc::new`]), since building segments them all; a collection
/// restored from a store holds [`CmDoc::parsed`] documents, annotated only
/// if a table is asked for.
#[derive(Debug)]
pub struct PostCollection {
    /// One document per post; index = document id.
    pub docs: Vec<CmDoc>,
}

impl PostCollection {
    /// Parses raw post texts (cleaning HTML if present).
    pub fn from_raw_texts<S: AsRef<str>>(texts: &[S]) -> Self {
        let _span = forum_obs::Registry::global().span("offline/parse_cm");
        let docs = texts
            .iter()
            .enumerate()
            .map(|(i, t)| CmDoc::new(Document::parse(DocId(i as u32), t.as_ref())))
            .collect();
        PostCollection { docs }
    }

    /// Parses raw post texts with up to `threads` workers (`0` = one per
    /// core). Parsing and CM annotation are per-document, so the result is
    /// identical to the sequential build.
    pub fn from_raw_texts_parallel<S: AsRef<str> + Sync>(texts: &[S], threads: usize) -> Self {
        let _span = forum_obs::Registry::global().span("offline/parse_cm");
        let indexed: Vec<(u32, &S)> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, t))
            .collect();
        let docs = crate::par::parallel_map(&indexed, threads, |(i, t)| {
            CmDoc::new(Document::parse(DocId(*i), t.as_ref()))
        });
        PostCollection { docs }
    }

    /// Parses the posts of a generated corpus (already clean text).
    pub fn from_corpus(corpus: &Corpus) -> Self {
        Self::from_corpus_parallel(corpus, 1)
    }

    /// Parallel variant of [`Self::from_corpus`].
    pub fn from_corpus_parallel(corpus: &Corpus, threads: usize) -> Self {
        let _span = forum_obs::Registry::global().span("offline/parse_cm");
        let indexed: Vec<(u32, &str)> = corpus
            .posts
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p.text.as_str()))
            .collect();
        let docs = crate::par::parallel_map(&indexed, threads, |(i, t)| {
            CmDoc::new(Document::parse_clean(DocId(*i), t))
        });
        PostCollection { docs }
    }

    /// Number of posts.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The normalized terms of a whole document.
    pub fn doc_terms(&self, doc: usize) -> Vec<String> {
        self.docs[doc].doc.terms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forum_corpus::{Domain, GenConfig};

    #[test]
    fn from_corpus_parses_all_posts() {
        let corpus = Corpus::generate(&GenConfig {
            domain: Domain::TechSupport,
            num_posts: 25,
            seed: 1,
        });
        let coll = PostCollection::from_corpus(&corpus);
        assert_eq!(coll.len(), 25);
        for (cm, post) in coll.docs.iter().zip(&corpus.posts) {
            assert_eq!(cm.num_units(), post.num_sentences);
        }
    }

    #[test]
    fn from_raw_texts_cleans_html() {
        let coll = PostCollection::from_raw_texts(&[
            "<p>My printer is broken.</p> Can you help?",
            "Plain text post.",
        ]);
        assert_eq!(coll.len(), 2);
        assert!(!coll.docs[0].doc.text.contains('<'));
        assert_eq!(coll.docs[0].num_units(), 2);
    }

    #[test]
    fn doc_terms_are_normalized() {
        let coll = PostCollection::from_raw_texts(&["The printers were installed."]);
        assert_eq!(coll.doc_terms(0), vec!["printer", "instal"]);
    }
}
