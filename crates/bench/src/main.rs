//! `experiments` — regenerates every table and figure of the paper's
//! evaluation (Section 9) on the synthetic corpora.
//!
//! Usage: `cargo run --release -p bench --bin experiments -- <experiment>...`
//!
//! The experiments are the rows of [`EXPERIMENTS`]; running the binary
//! without one prints them with a line each. `all` runs every row marked
//! for it, in table order, at default scale.
//!
//! Optional flags: `--posts N` scales collection sizes, `--queries N` the
//! query sample, `--seed N` the corpus seed, `--metrics-out P` a JSON-lines
//! path for the run's phase breakdowns (e.g. `BENCH_table6.jsonl`).

mod experiments;
mod util;

use experiments::*;
use util::Options;

/// One experiment: its command-line name, its entry point, whether `all`
/// runs it, and its line in the usage text.
type Experiment = (&'static str, fn(&Options), bool, &'static str);

/// Every experiment, in the order `all` runs them.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    ("datasets", datasets::run, true, "corpus statistics (Section 9's dataset description)"),
    ("table2", table2::run, true, "annotator agreement on segmentation"),
    ("fig7", fig7::run, true, "annotator label categories"),
    ("exp_cm_vs_terms", cm_vs_terms::run, true, "CM-based Tile vs term-based TextTiling (multWinDiff)"),
    ("fig8", fig8::run, true, "border-selection mechanisms (borders/coherence/error)"),
    ("fig9", fig9::run, true, "coherence & depth functions"),
    ("fig3", fig3::run, true, "intention-cluster centroids"),
    ("table3", table3::run, true, "segment granularity before/after grouping"),
    ("table4", table4::run, true, "method comparison (mean precision) + Fig. 10 + Table 5"),
    ("table6", table6::run, true, "large-collection timings (StackOverflow profile)"),
    ("fig11", fig11::run, true, "timing sweep over collection sizes"),
    ("ablate_top_n", ablations::top_n, true, "Algorithm 2's n = 2k heuristic"),
    ("ablate_refinement", ablations::refinement, true, "segmentation refinement on/off"),
    ("ablate_weights", ablations::weights, true, "Eq. 6 weights on/off"),
    ("ablate_greedy", ablations::greedy_voting, true, "greedy voting vs single-pass greedy"),
    ("ablate_weighted_sum", ablations::weighted_sum, true, "weighted vs uniform list combination"),
    ("ablate_bm25", ablations::bm25, true, "Eq. 8 weighting vs Okapi BM25"),
    ("exp_drift", ablations::drift, true, "intention drift between two corpus batches"),
    ("ablate_combination", ablations::combination, true, "Algorithm 2's top-n vs exact top-k (threshold algorithm)"),
    ("cluster_scale", cluster_scale::run, false, "exact vs norm-pruned vs parallel DBSCAN at 10k-200k points"),
    ("store_scale", store_scale::run, false, "cold start, heap hydration vs mapped view, 10k-200k segments"),
    ("ingest_throughput", ingest::run, false, "live WAL-durable adds + compaction vs full rebuild"),
    ("calibrate_greedy", ablations::greedy_threshold_sweep, false, "Greedy threshold sweep against ground truth"),
    ("calibrate_dbscan", ablations::dbscan_sweep, false, "DBSCAN parameter sweep: clusters, noise, purity"),
    ("calibrate_tiling", ablations::tiling_sweep, false, "block size / threshold sweep for both tilings"),
    ("diag_intent", ablations::diag_intent, false, "is the request segment isolated; which clusters carry precision"),
    ("diag_borders", ablations::diag_borders, false, "does Greedy find the borders around the request segment"),
];

fn usage() -> String {
    let mut text = String::from(
        "usage: experiments [--posts N] [--queries N] [--seed N] \
         [--metrics-out P.jsonl] <experiment>...\n\nexperiments (* = run by `all`):\n",
    );
    for &(name, _, in_all, about) in EXPERIMENTS {
        let mark = if in_all { '*' } else { ' ' };
        text.push_str(&format!("  {name:<20}{mark} {about}\n"));
    }
    text.push_str("  all                   every experiment marked *, in this order\n");
    text
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden re-exec mode used by store_scale: its positional operands
    // (mode, path, doc, k) must not reach the experiment-name loop.
    if args.first().map(String::as_str) == Some("store_scale_child") {
        store_scale::child(&args[1..]);
    }
    let (cmds, opts) = Options::parse(&args);
    if cmds.is_empty() {
        eprint!("{}", usage());
        std::process::exit(2);
    }
    if opts.metrics_out.is_some() {
        forum_obs::Registry::global().set_enabled(true);
    }
    for cmd in &cmds {
        run(cmd, &opts);
    }
    if let Some(path) = &opts.metrics_out {
        let snapshot = forum_obs::Registry::global().snapshot();
        if let Err(e) = forum_obs::export::write_json_lines(std::path::Path::new(path), &snapshot) {
            eprintln!("error: could not write metrics to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} metrics to {path}", snapshot.metrics.len());
    }
}

fn run(cmd: &str, opts: &Options) {
    if cmd == "all" {
        for &(_, run, in_all, _) in EXPERIMENTS {
            if in_all {
                run(opts);
            }
        }
    } else if let Some(&(_, run, _, _)) = EXPERIMENTS.iter().find(|e| e.0 == cmd) {
        run(opts);
    } else {
        eprintln!("unknown experiment: {cmd}");
        std::process::exit(2);
    }
}
