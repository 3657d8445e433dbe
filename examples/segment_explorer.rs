//! Segment explorer: reproduces the spirit of the paper's Fig. 2 — the
//! per-sentence communication-means profile of the motivating Doc A, the
//! border scores, and the segmentations each strategy produces.
//!
//! Run with: `cargo run --example segment_explorer`

use forum_nlp::cm::{Cm, CMS};
use forum_segment::scoring::ScoreConfig;
use forum_segment::strategies::Strategy;
use forum_segment::CmDoc;
use forum_text::{document::DocId, Document, Segment};

const DOC_A: &str = "I have an HP system with a RAID 0 controller and 4 disks in form \
    of a JBOD. I would like to install Hadoop with a replication 4 HDFS and only 320GB \
    of disk space used from every disc. Do you know whether it would perform ok or \
    whether the partial use of the disk would degrade performance? Friends have \
    downloaded the Cloudera distribution but it didn't work. It stopped since the web \
    site was suggesting to have 1TB disks. I am asking because I do not want to install \
    Linux to find that my HW configuration is not right.";

fn main() {
    let doc = Document::parse_clean(DocId(0), DOC_A);
    let cmdoc = CmDoc::new(doc);
    let n = cmdoc.num_units();

    println!("Doc A has {n} sentences. Per-sentence CM profiles (Table 1 rows):\n");
    println!(
        "{:<4} {:<22} {:<12} {:<12} {:<12} {:<9} {:<12}",
        "sent", "text", "tense(p/pa/f)", "subj(1/2/3)", "qneg(i/n/a)", "voice(p/a)", "pos(v/n/aj)"
    );
    for (i, s) in cmdoc.sentences().iter().enumerate() {
        let span = cmdoc.doc.sentences[i].span;
        let text: String = span.slice(&cmdoc.doc.text).chars().take(20).collect();
        let t = &s.tables;
        println!(
            "{:<4} {:<22} {:<12} {:<12} {:<12} {:<9} {:<12}",
            i,
            format!("{text}…"),
            format!("{:?}", t.tense),
            format!("{:?}", t.subj),
            format!("{:?}", t.qneg),
            format!("{:?}", t.pasact),
            format!("{:?}", t.pos),
        );
    }

    // Border scores at every sentence gap (Eq. 4 over single sentences).
    let score = ScoreConfig::default();
    println!("\nBorder scores (Eq. 4) and depths (Eq. 3) at each sentence gap:");
    for b in 1..n {
        let left = Segment::new(b.saturating_sub(1), b);
        let right = Segment::new(b, (b + 1).min(n));
        println!(
            "  gap {b}: depth {:.3}  score {:.3}",
            score.depth(&cmdoc, left, right),
            score.border_score(&cmdoc, left, right),
        );
    }

    // Per-CM view: which single CM would place a border where (the paper's
    // Fig. 2 lines (a)-(c)).
    println!("\nSingle-CM segmentations (Fig. 2 lines a-c):");
    for cm in [Cm::Tense, Cm::Subj, Cm::Qneg] {
        let cfg = forum_segment::strategies::GreedyConfig {
            score: score.for_single_cm(cm),
            ..Default::default()
        };
        let seg = forum_segment::strategies::greedy(&cmdoc, &cfg);
        println!("  {:?}: borders at {:?}", cm, seg.borders());
    }
    let _ = CMS;

    // Full strategies (Fig. 2 lines d-e).
    println!("\nStrategy outputs:");
    for strat in [
        Strategy::GreedyVoting(Default::default()),
        Strategy::Tile(Default::default()),
        Strategy::StepByStep(score),
        Strategy::Sentences,
    ] {
        let seg = strat.run(&cmdoc);
        println!("  {:<16} borders at {:?}", strat.name(), seg.borders());
    }

    // The thematic baseline for contrast (Fig. 2 line e).
    let doc2 = Document::parse_clean(DocId(1), DOC_A);
    let tt = forum_segment::texttiling::texttiling(&doc2, &Default::default());
    println!("  {:<16} borders at {:?}", "TextTiling", tt.borders());
}
