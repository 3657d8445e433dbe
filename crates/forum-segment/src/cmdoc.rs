//! A document viewed through its communication means.
//!
//! [`CmDoc`] pairs a parsed [`Document`] with per-sentence CM distribution
//! tables and their prefix sums, so the segmentation strategies can obtain
//! the table of *any* sentence range in O(1). This matters: the bottom-up
//! strategies re-score candidate segments many times per pass.
//!
//! The CM annotation is computed at most once per document, on first use.
//! [`CmDoc::new`] computes it up front (building and ingesting segment
//! every post); [`CmDoc::parsed`] leaves it until a table is asked for,
//! which a document restored from a store never does: retrieval reads
//! only its terms.

use forum_nlp::cm::{annotate_document, DistTables, SentenceCm};
use forum_text::{Document, Segment};
use std::sync::OnceLock;

/// A document plus its CM annotation, ready for segmentation.
#[derive(Debug, Clone)]
pub struct CmDoc {
    /// The underlying parsed document.
    pub doc: Document,
    /// The CM annotation, computed on first use.
    cm: OnceLock<Annotation>,
}

/// Per-sentence CM annotation and its prefix sums.
#[derive(Debug, Clone)]
struct Annotation {
    /// One entry per sentence.
    sentences: Vec<SentenceCm>,
    /// `prefix[i]` = sum of sentence tables `0..i`; `prefix.len() ==
    /// sentences.len() + 1`.
    prefix: Vec<DistTables>,
}

impl Annotation {
    fn of(doc: &Document) -> Self {
        let sentences = annotate_document(doc);
        let mut prefix = Vec::with_capacity(sentences.len() + 1);
        let mut acc = DistTables::default();
        prefix.push(acc);
        for s in &sentences {
            acc.add_assign(&s.tables);
            prefix.push(acc);
        }
        Annotation { sentences, prefix }
    }
}

impl CmDoc {
    /// Annotates `doc` and builds prefix sums.
    pub fn new(doc: Document) -> Self {
        let cmdoc = Self::parsed(doc);
        cmdoc.cm();
        cmdoc
    }

    /// Wraps `doc` without annotating it; the annotation is computed the
    /// first time a table or [`Self::sentences`] is asked for, and is then
    /// identical to the one [`Self::new`] computes.
    pub fn parsed(doc: Document) -> Self {
        CmDoc {
            doc,
            cm: OnceLock::new(),
        }
    }

    fn cm(&self) -> &Annotation {
        self.cm.get_or_init(|| Annotation::of(&self.doc))
    }

    /// Per-sentence CM annotation, one entry per sentence.
    pub fn sentences(&self) -> &[SentenceCm] {
        &self.cm().sentences
    }

    /// Number of text units (sentences). Never computes the annotation.
    #[inline]
    pub fn num_units(&self) -> usize {
        self.doc.sentences.len()
    }

    /// Distribution tables of the sentence range `[first, end)`.
    #[inline]
    pub fn tables(&self, first: usize, end: usize) -> DistTables {
        let prefix = &self.cm().prefix;
        debug_assert!(first <= end && end < prefix.len());
        prefix[end].sub(&prefix[first])
    }

    /// Distribution tables of a [`Segment`].
    #[inline]
    pub fn segment_tables(&self, seg: Segment) -> DistTables {
        self.tables(seg.first, seg.end)
    }

    /// Distribution tables of the whole document.
    #[inline]
    pub fn whole(&self) -> DistTables {
        self.tables(0, self.num_units())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forum_text::document::DocId;

    fn cmdoc(text: &str) -> CmDoc {
        CmDoc::new(Document::parse_clean(DocId(0), text))
    }

    #[test]
    fn prefix_sums_match_direct_sums() {
        let d = cmdoc("I have a disk. It failed. Will it work? I hope so.");
        assert_eq!(d.num_units(), 4);
        for first in 0..4 {
            for end in first..=4 {
                let direct = DistTables::sum(d.sentences()[first..end].iter().map(|s| &s.tables));
                assert_eq!(d.tables(first, end), direct, "range [{first}, {end})");
            }
        }
    }

    #[test]
    fn whole_equals_full_range() {
        let d = cmdoc("One sentence here. Another one there.");
        assert_eq!(d.whole(), d.tables(0, 2));
    }

    #[test]
    fn parsed_doc_annotates_on_first_table() {
        let d = CmDoc::parsed(Document::parse_clean(DocId(0), "One here. Two there."));
        assert_eq!(d.num_units(), 2);
        assert!(d.cm.get().is_none(), "counting units must not annotate");
        assert_eq!(d.whole(), cmdoc("One here. Two there.").whole());
        assert!(d.cm.get().is_some());
    }

    #[test]
    fn empty_range_is_zero() {
        let d = cmdoc("Just one sentence.");
        assert_eq!(d.tables(1, 1), DistTables::default());
    }
}
