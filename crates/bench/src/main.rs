//! `experiments` — regenerates every table and figure of the paper's
//! evaluation (Section 9) on the synthetic corpora.
//!
//! Usage: `cargo run --release -p bench --bin experiments -- <experiment>`
//!
//! Experiments (see DESIGN.md's experiment index):
//!   table2            annotator agreement on segmentation
//!   fig7              annotator label categories
//!   exp_cm_vs_terms   CM-based Tile vs term-based TextTiling (multWinDiff)
//!   fig8              border-selection mechanisms (borders/coherence/error)
//!   fig9              coherence & depth functions
//!   fig3              intention-cluster centroids
//!   table3            segment granularity before/after grouping
//!   table4            method comparison (mean precision) + Fig. 10 + Table 5
//!   table6            large-collection timings (StackOverflow profile)
//!   fig11             timing sweep over collection sizes
//!   qps               batch query throughput vs worker threads
//!   serve_scale       sharded pool under open-loop load: p50/p99 vs offered QPS
//!   cluster_scale     exact vs norm-pruned vs parallel DBSCAN at 10k-200k points
//!   store_scale       cold start, heap hydration vs mapped view, 10k-200k segments
//!   ingest_throughput live WAL-durable adds + compaction vs full rebuild
//!   ablate_top_n      Algorithm 2's n = 2k heuristic
//!   ablate_refinement segmentation refinement on/off
//!   ablate_weights    Eq. 6 weights on/off
//!   ablate_greedy     greedy voting vs single-pass greedy
//!   all               everything above at default scale
//!
//! Optional flags: `--posts N` scales collection sizes, `--queries N` the
//! query sample, `--seed N` the corpus seed, `--metrics-out P` a JSON-lines
//! path for the run's phase breakdowns (e.g. `BENCH_table6.jsonl`).

mod experiments;
mod util;

use util::Options;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden re-exec mode used by store_scale: its positional operands
    // (mode, path, doc, k) must not reach the experiment-name loop.
    if args.first().map(String::as_str) == Some("store_scale_child") {
        experiments::store_scale::child(&args[1..]);
    }
    let (cmds, opts) = Options::parse(&args);
    if cmds.is_empty() {
        eprintln!(
            "usage: experiments [--posts N] [--queries N] [--seed N] \
             [--metrics-out P.jsonl] <experiment>..."
        );
        eprintln!("experiments: table2 fig7 exp_cm_vs_terms fig8 fig9 fig3 table3 table4");
        eprintln!("             table6 fig11 qps serve_scale cluster_scale store_scale");
        eprintln!("             ingest_throughput");
        eprintln!("             ablate_top_n");
        eprintln!("             ablate_refinement");
        eprintln!("             ablate_weights");
        eprintln!("             ablate_greedy obs_overhead trace_overhead all");
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
    match cmd {
        "table2" => experiments::table2::run(opts),
        "datasets" => experiments::datasets::run(opts),
        "fig7" => experiments::fig7::run(opts),
        "exp_cm_vs_terms" => experiments::cm_vs_terms::run(opts),
        "fig8" => experiments::fig8::run(opts),
        "fig9" => experiments::fig9::run(opts),
        "fig3" => experiments::fig3::run(opts),
        "table3" => experiments::table3::run(opts),
        "table4" => experiments::table4::run(opts),
        "table6" => experiments::table6::run(opts),
        "fig11" => experiments::fig11::run(opts),
        "qps" => experiments::qps::run(opts),
        "serve_scale" => experiments::serve_scale::run(opts),
        "cluster_scale" => experiments::cluster_scale::run(opts),
        "store_scale" => experiments::store_scale::run(opts),
        "ingest_throughput" => experiments::ingest::run(opts),
        "ablate_top_n" => experiments::ablations::top_n(opts),
        "ablate_refinement" => experiments::ablations::refinement(opts),
        "ablate_weights" => experiments::ablations::weights(opts),
        "ablate_greedy" => experiments::ablations::greedy_voting(opts),
        "ablate_weighted_sum" => experiments::ablations::weighted_sum(opts),
        "ablate_bm25" => experiments::ablations::bm25(opts),
        "exp_drift" => experiments::ablations::drift(opts),
        "ablate_combination" => experiments::ablations::combination(opts),
        "obs_overhead" => experiments::ablations::obs_overhead(opts),
        "trace_overhead" => experiments::ablations::trace_overhead(opts),
        "calibrate_greedy" => experiments::ablations::greedy_threshold_sweep(opts),
        "calibrate_dbscan" => experiments::ablations::dbscan_sweep(opts),
        "calibrate_tiling" => experiments::ablations::tiling_sweep(opts),
        "diag_intent" => experiments::ablations::diag_intent(opts),
        "diag_borders" => experiments::ablations::diag_borders(opts),
        "all" => {
            for c in [
                "datasets",
                "table2",
                "fig7",
                "exp_cm_vs_terms",
                "fig8",
                "fig9",
                "fig3",
                "table3",
                "table4",
                "table6",
                "fig11",
                "ablate_top_n",
                "ablate_refinement",
                "ablate_weights",
                "ablate_greedy",
                "ablate_weighted_sum",
                "ablate_bm25",
                "exp_drift",
                "ablate_combination",
            ] {
                run(c, opts);
            }
        }
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    }
}
