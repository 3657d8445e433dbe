//! `intentmatch` — command-line interface to the intention-based
//! related-post engine.
//!
//! Post files are plain text, one post per line (tabs and literal text
//! only; HTML is cleaned automatically).
//!
//! ```text
//! intentmatch index   posts.txt store.imp     build the offline state
//! intentmatch query   store.imp --doc 17 -k 5 related posts for post 17
//! intentmatch query   store.imp --text "..."  related posts for new text
//! intentmatch query   store.imp --batch 0-99  many queries, in parallel
//! intentmatch ingest  store.imp posts.txt     WAL-durable live adds
//! intentmatch compact store.imp               fold the WAL into the snapshot
//! intentmatch add     store.imp posts.txt     ingest + compact in one step
//! intentmatch stats   store.imp               collection & cluster summary
//! intentmatch serve   store.imp --addr H:P    live HTTP queries + telemetry
//! intentmatch migrate store.imp               rewrite in the current mapped layout (v3)
//! ```
//!
//! `query --mapped` and `serve --mapped` answer straight off a v2 store
//! through a zero-copy mmap view (`intentmatch::StoreView`): startup
//! touches only the header, section directory, and cluster metadata, and
//! each query faults in exactly the cluster indexes it consults —
//! rankings stay bit-identical to the hydrated engine. `stats` on a
//! compacted v2 store likewise answers from the header alone.
//!
//! `--batch` takes comma-separated document ids and inclusive ranges
//! (`0,5,10-14`) and evaluates them concurrently with the batch runner
//! [`intentmatch::top_k_many`] — over the live store (pending WAL writes
//! included) or, with `--mapped`, the mapped view; `--threads T` bounds
//! the workers (`0`, the default, uses one per core). Results are
//! identical to issuing the same `--doc` queries one at a time.
//! `index --threads T` accepts the same spelling and parallelises the
//! offline build's clustering phase; labels are bit-identical for every
//! thread count.
//!
//! `ingest` appends fsync'd records to `<store>.wal` and serves them from
//! delta indices — `query` and `stats` replay the WAL automatically — and
//! `compact` folds the log into a fresh snapshot (recomputing per-cluster
//! TF/IDF statistics) and truncates it. `add` is `ingest` followed by
//! `compact`: writes already pending in the log are folded in too, and
//! the snapshot it writes is byte-identical to the one the two commands
//! write.
//!
//! Observability flags (every subcommand):
//!
//! * `--metrics-out <path>` enables the process-wide metrics registry and
//!   writes a JSON-lines snapshot (one metric per line — counters, gauges,
//!   per-phase latency histograms with p50/p90/p99) on completion.
//! * `--explain` (`query --doc` only) prints the full EXPLAIN trace:
//!   which intention clusters the query consulted, each cluster's
//!   combination weight and top-n candidates, and the per-cluster
//!   contributions behind every final rank. EXPLAIN traces the compacted
//!   snapshot, so it requires a store with no pending WAL writes.
//!
//! `serve` binds an HTTP listener (default `127.0.0.1:7878`; use port `0`
//! for an ephemeral port — the bound address is printed to stdout) and
//! answers `POST /query` (`?doc=N&k=K`, `?explain=1` for the EXPLAIN
//! trace as JSON; `k` over `--max-k` is a `400`) from one app over the
//! live store or, with `--mapped`, the snapshot file, plus the standard
//! telemetry endpoints: `GET /metrics`
//! (Prometheus text exposition with interpolated percentiles and windowed
//! rates), `GET /healthz`, `GET /readyz` (per-shard readiness plus the
//! store's: WAL writable, epoch, pending sizes), `GET /snapshot`
//! (JSON-lines metrics), `GET /events?tail=N` (the operational event log),
//! `GET /traces?tail=N` / `GET /traces/<id>` (sampled request traces with
//! per-phase spans and cost counters), `GET /slowlog` (queries over the
//! `--slow-ms` threshold, EXPLAIN attached), and `POST /shutdown`.
//! `--events-out <path>` streams every event to a JSONL file;
//! `--trace-out <path>` does the same for kept traces. `validate` checks
//! scraped `/metrics` and `/traces` artifacts offline, for CI.

use forum_ingest::{IngestConfig, LiveStore};
use intentmatch::{explain, store, IntentPipeline, PipelineConfig, PostCollection, QuerySource};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("index") => cmd_index(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("add") => cmd_add(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("migrate") => cmd_migrate(&args[1..]),
        Some("doctor") => cmd_doctor(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            print!("{}", usage_text());
            return ExitCode::SUCCESS;
        }
        _ => {
            eprint!("{}", usage_text());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage_text() -> String {
    [
        "usage: intentmatch <index|query|ingest|compact|add|stats|serve|migrate|doctor|validate> \
         ...",
        "  index    <posts.txt> <store.imp> [--threads T] [--metrics-out M.jsonl]",
        "  query    <store.imp> (--doc N | --text \"...\" | --batch 0,5,10-14) \
         [-k K] [--threads T] [--explain] [--mapped] [--metrics-out M.jsonl]",
        "  ingest   <store.imp> <posts.txt> [--metrics-out M.jsonl]",
        "  compact  <store.imp> [--metrics-out M.jsonl]",
        "  add      <store.imp> <posts.txt> [--metrics-out M.jsonl]",
        "  stats    <store.imp> [--metrics-out M.jsonl]",
        "  serve    <store.imp> [--addr HOST:PORT] [--mapped] [--shards S] [--workers W] \
         [--queue-depth N] [--deadline-ms D] [--max-k K] [--boards FILE] \
         [--sample-period MS] [--slo KEY=V,...] [--events-out E.jsonl] \
         [--metrics-out M.jsonl] [--slow-ms MS] [--trace-sample N] [--trace-out T.jsonl]",
        "  migrate  <store.imp> [<out.imp>] [--metrics-out M.jsonl]",
        "  doctor   <store.imp> [--json]",
        "  validate [--exposition metrics.txt] [--traces traces.json] \
         [--alerts alerts.json] [--dashboard page.html]",
        "",
        "serve answers POST /query?doc=N&k=K from one app over either \
         store: the live engine (WAL replayed, cluster scans fanned out over \
         --shards) or, with --mapped, the snapshot file itself. The same \
         guards hold on both: k over --max-k (default 100) is a 400 and k=0 \
         answers no results; threshold=T must be finite; board=B must name \
         a board of the --boards file (`doc_id board` lines); explain=1 \
         takes neither filter and needs the live, compacted store.",
        "",
        "serve samples the metrics registry every --sample-period ms \
         (default 5000, 0 disables) into in-process time-series (GET \
         /series, GET /dashboard) and evaluates SLO burn-rate alerts (GET \
         /alerts, slo_* metrics). --slo overrides objective targets: \
         availability=0.999, latency_ms=2000, delta_ratio=0.5, \
         noise_rate=0.5.",
        "",
        "--mapped serves (or queries) straight off the sectioned store file \
         through a zero-copy mmap view: startup touches only the header, \
         directory, and cluster metadata, and each query lazily faults in \
         exactly the sections it consults. Rankings are bit-identical to \
         the default heap engine. The mapped reader is snapshot-only: it \
         refuses to start while WAL writes are pending (run `intentmatch \
         compact` first), serves as one shard, and does not support --text \
         or --explain.",
        "",
        "migrate rewrites a store in the current sectioned layout, store \
         version 3 (XXH64 checksums, postings stored in impact order). \
         Legacy v1 and version-2 stores also load everywhere else; \
         migrating v1 makes the mmap fast path available, and migrating \
         version 2 makes each cluster load without a sort. With no \
         <out.imp> the store is rewritten in place (atomically).",
        "",
        "doctor audits a store offline: the sectioned byte layout (header, \
         directory, and per-section checksums; bounds; alignment), \
         per-cluster skew, postings integrity, term-impact caps vs \
         recomputed Eq. 8 weights, WAL fingerprint/checksums, tombstones \
         and orphans. Exits non-zero on hard failures; --json emits the \
         report as JSON.",
        "",
        "serve records a trace per request: queries slower than --slow-ms \
         (default 250) land in GET /slowlog with an EXPLAIN attached, a \
         1-in-N sample (--trace-sample, default 1 = all) lands in GET \
         /traces, and --trace-out streams kept traces to a JSONL file. \
         Callers may pin a trace id with an X-Intentmatch-Trace header.",
        "",
        "validate checks scraped artifacts offline (for CI smoke tests): \
         --exposition verifies a /metrics scrape parses as Prometheus text \
         exposition with # TYPE and # HELP for every family; --traces \
         verifies a /traces or /slowlog response is well-formed trace JSON.",
        "",
        "--threads T sets the worker count for the offline build (index: \
         segmentation and DBSCAN region queries) or for batch query \
         evaluation (query). T = 0 means auto: one worker per available \
         core. Results are bit-identical for every thread count.",
    ]
    .join("\n")
        + "\n"
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Enables the global metrics registry so the phases we're about to run
/// record themselves. Call before the instrumented work.
fn enable_metrics() {
    forum_obs::Registry::global().set_enabled(true);
}

/// Writes the global registry's snapshot as JSON-lines to `path`.
fn dump_metrics(path: &str) -> CliResult {
    let snapshot = forum_obs::Registry::global().snapshot();
    forum_obs::export::write_json_lines(Path::new(path), &snapshot)?;
    eprintln!("wrote {} metrics to {path}", snapshot.metrics.len());
    Ok(())
}

fn read_posts(path: &str) -> Result<Vec<String>, std::io::Error> {
    let file = std::fs::File::open(path)?;
    let mut posts = Vec::new();
    for line in BufReader::new(file).lines() {
        let line = line?;
        if !line.trim().is_empty() {
            posts.push(line);
        }
    }
    Ok(posts)
}

fn cmd_index(args: &[String]) -> CliResult {
    let usage =
        "usage: intentmatch index <posts.txt> <store.imp> [--threads T] [--metrics-out M.jsonl]";
    let mut positional: Vec<&String> = Vec::new();
    let mut metrics_out: Option<String> = None;
    let mut threads = 1usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics-out" => {
                metrics_out = Some(args.get(i + 1).ok_or("--metrics-out takes a path")?.clone());
                i += 2;
            }
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .ok_or("--threads takes a count (0 = one per core)")?
                    .parse()?;
                i += 2;
            }
            _ => {
                positional.push(&args[i]);
                i += 1;
            }
        }
    }
    let [posts_path, store_path] = positional[..] else {
        return Err(usage.into());
    };
    if metrics_out.is_some() {
        enable_metrics();
    }
    let posts = read_posts(posts_path)?;
    eprintln!("parsing {} posts…", posts.len());
    let collection = PostCollection::from_raw_texts(&posts);
    eprintln!("building pipeline…");
    let cfg = PipelineConfig {
        threads,
        ..PipelineConfig::default()
    };
    let pipeline = IntentPipeline::build(&collection, &cfg);
    eprintln!(
        "built {} intention clusters in {:?} (segmentation {:?}, clustering {:?})",
        pipeline.num_clusters(),
        pipeline.timings.total(),
        pipeline.timings.segmentation,
        pipeline.timings.clustering,
    );
    store::save(Path::new(store_path), &collection, &pipeline)?;
    eprintln!("saved to {store_path}");
    if let Some(path) = metrics_out {
        dump_metrics(&path)?;
    }
    Ok(())
}

/// Parses a `--batch` spec: comma-separated document ids and inclusive
/// `a-b` ranges, e.g. `0,5,10-14`.
fn parse_batch_spec(spec: &str) -> Result<Vec<usize>, Box<dyn std::error::Error>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((a, b)) = part.split_once('-') {
            let a: usize = a.trim().parse()?;
            let b: usize = b.trim().parse()?;
            if a > b {
                return Err(format!("bad range {part}: start after end").into());
            }
            out.extend(a..=b);
        } else {
            out.push(part.parse()?);
        }
    }
    if out.is_empty() {
        return Err("--batch spec selects no documents".into());
    }
    Ok(out)
}

fn cmd_query(args: &[String]) -> CliResult {
    let usage = "usage: intentmatch query <store.imp> (--doc N | --text \"...\" | \
                 --batch SPEC) [-k K] [--threads T] [--explain] [--mapped] \
                 [--metrics-out M.jsonl]";
    let Some(store_path) = args.first() else {
        return Err(usage.into());
    };
    let mut doc: Option<usize> = None;
    let mut text: Option<String> = None;
    let mut batch: Option<String> = None;
    let mut k = 5usize;
    let mut threads = 0usize;
    let mut explain_query = false;
    let mut mapped = false;
    let mut metrics_out: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--doc" => {
                doc = Some(args.get(i + 1).ok_or("--doc takes a number")?.parse()?);
                i += 2;
            }
            "--text" => {
                text = Some(args.get(i + 1).ok_or("--text takes a string")?.clone());
                i += 2;
            }
            "--batch" => {
                batch = Some(
                    args.get(i + 1)
                        .ok_or("--batch takes a doc list, e.g. 0,5,10-14")?
                        .clone(),
                );
                i += 2;
            }
            "-k" => {
                k = args.get(i + 1).ok_or("-k takes a number")?.parse()?;
                i += 2;
            }
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .ok_or("--threads takes a count (0 = one per core)")?
                    .parse()?;
                i += 2;
            }
            "--explain" => {
                explain_query = true;
                i += 1;
            }
            "--mapped" => {
                mapped = true;
                i += 1;
            }
            "--metrics-out" => {
                metrics_out = Some(args.get(i + 1).ok_or("--metrics-out takes a path")?.clone());
                i += 2;
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    if explain_query && doc.is_none() {
        return Err("--explain requires --doc (EXPLAIN traces a collection-resident query)".into());
    }
    if metrics_out.is_some() {
        enable_metrics();
    }
    if mapped {
        if text.is_some() {
            return Err("--mapped serves collection-resident queries only (no --text)".into());
        }
        if explain_query {
            return Err("--explain requires the hydrated engine (drop --mapped)".into());
        }
        return query_mapped(store_path, doc, batch.as_deref(), k, threads, metrics_out);
    }
    // Open as a live store: pending WAL writes (from `ingest`) replay into
    // delta indices so queries see them without waiting for a compaction.
    let live = LiveStore::open(
        Path::new(store_path),
        PipelineConfig::default(),
        IngestConfig::default(),
    )?;
    let epoch = live.current();
    let num_docs = epoch.num_docs();

    if let Some(spec) = batch {
        if doc.is_some() || text.is_some() {
            return Err("give exactly one of --doc, --text or --batch".into());
        }
        run_batch(&*epoch, &spec, k, threads)?;
        if let Some(path) = metrics_out {
            dump_metrics(&path)?;
        }
        return Ok(());
    }

    let base = &epoch.base;
    let hits = match (doc, text) {
        (Some(d), None) => {
            if d >= num_docs {
                return Err(format!("doc {d} out of range (collection has {num_docs})").into());
            }
            if explain_query {
                if epoch.has_pending() {
                    return Err("--explain traces the compacted snapshot; run \
                                `intentmatch compact` first"
                        .into());
                }
                let trace = explain::explain_top_k(&base.pipeline, &base.collection, d, k, None);
                print!("{}", trace.render());
                trace.ranking()
            } else {
                epoch.top_k(d as u32, k)
            }
        }
        (None, Some(t)) => base
            .pipeline
            .match_new_post(&PipelineConfig::default(), &t, k),
        _ => return Err("give exactly one of --doc, --text or --batch".into()),
    };
    if hits.is_empty() {
        println!("no related posts found");
    }
    for (d, score) in hits {
        let preview: String = epoch.doc_text(d).unwrap_or("").chars().take(90).collect();
        println!("{score:>8.4}  #{d:<6} {preview}…");
    }
    if let Some(path) = metrics_out {
        dump_metrics(&path)?;
    }
    Ok(())
}

/// `query --batch`: evaluates the doc list `spec` through the batch runner
/// ([`intentmatch::top_k_many`]) over `source` on `threads` workers (`0` =
/// one per core), prints one block per query, and reports the throughput
/// on stderr.
fn run_batch(source: &impl QuerySource, spec: &str, k: usize, threads: usize) -> CliResult {
    let queries = parse_batch_spec(spec)?;
    let num_docs = source.num_docs();
    if let Some(&bad) = queries.iter().find(|&&q| q >= num_docs) {
        return Err(format!("doc {bad} out of range (collection has {num_docs})").into());
    }
    let started = std::time::Instant::now();
    let results = intentmatch::top_k_many(source, &queries, k, threads)?;
    let elapsed = started.elapsed();
    for (q, hits) in queries.iter().zip(&results) {
        println!("query #{q}:");
        if hits.is_empty() {
            println!("  no related posts found");
        }
        for &(d, score) in hits {
            println!("  {score:>8.4}  #{d}");
        }
    }
    eprintln!(
        "{} queries in {elapsed:?} ({:.0} queries/s, {} thread(s))",
        queries.len(),
        queries.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        }
    );
    Ok(())
}

/// `query --mapped`: evaluates over a zero-copy [`intentmatch::StoreView`]
/// instead of hydrating the heap engine — O(touched pages) startup, lazy
/// per-cluster index materialization, rankings bit-identical to the
/// default path. Snapshot-only: refuses stores with pending WAL writes.
fn query_mapped(
    store_path: &str,
    doc: Option<usize>,
    batch: Option<&str>,
    k: usize,
    threads: usize,
    metrics_out: Option<String>,
) -> CliResult {
    let path = Path::new(store_path);
    let pending = forum_ingest::pending_wal_records(path)?;
    if pending > 0 {
        return Err(format!(
            "{pending} WAL record(s) pending on top of {store_path}: the mapped \
             reader serves the snapshot only — run `intentmatch compact` first"
        )
        .into());
    }
    let view = intentmatch::StoreView::open(path)?;
    let num_docs = view.num_docs();
    match (doc, batch) {
        (Some(d), None) => {
            if d >= num_docs {
                return Err(format!("doc {d} out of range (collection has {num_docs})").into());
            }
            let mut scratch = intentmatch::pipeline::QueryScratch::new();
            let hits = view.top_k(d, k, &mut scratch)?;
            if hits.is_empty() {
                println!("no related posts found");
            }
            for (d, score) in hits {
                let preview: String = view
                    .doc_text(d as usize)
                    .unwrap_or_default()
                    .chars()
                    .take(90)
                    .collect();
                println!("{score:>8.4}  #{d:<6} {preview}…");
            }
        }
        (None, Some(spec)) => {
            run_batch(&view, spec, k, threads)?;
            eprintln!(
                "{} backing, {}/{} clusters resident",
                view.backing_name(),
                view.num_resident_clusters(),
                view.num_clusters(),
            );
        }
        _ => return Err("give exactly one of --doc or --batch with --mapped".into()),
    }
    if let Some(path) = metrics_out {
        dump_metrics(&path)?;
    }
    Ok(())
}

fn cmd_ingest(args: &[String]) -> CliResult {
    let usage = "usage: intentmatch ingest <store.imp> <posts.txt> [--metrics-out M.jsonl]";
    let (positional, metrics_out) = split_metrics_flag(args)?;
    let [store_path, posts_path] = positional[..] else {
        return Err(usage.into());
    };
    if metrics_out.is_some() {
        enable_metrics();
    }
    let posts = read_posts(posts_path)?;
    let mut live = LiveStore::open(
        Path::new(store_path),
        PipelineConfig::default(),
        IngestConfig::default(),
    )?;
    let ids = live.add_batch(&posts)?;
    let epoch = live.current();
    match (ids.first(), ids.last()) {
        (Some(first), Some(last)) => eprintln!(
            "ingested {} posts (ids {first}..={last}), durable in {}; \
             {} units pending — run `intentmatch compact` to fold into the snapshot",
            ids.len(),
            forum_ingest::wal_path_for(Path::new(store_path)).display(),
            epoch.delta.num_units(),
        ),
        _ => eprintln!("no posts to ingest"),
    }
    if let Some(path) = metrics_out {
        dump_metrics(&path)?;
    }
    Ok(())
}

fn cmd_compact(args: &[String]) -> CliResult {
    let usage = "usage: intentmatch compact <store.imp> [--metrics-out M.jsonl]";
    let (positional, metrics_out) = split_metrics_flag(args)?;
    let [store_path] = positional[..] else {
        return Err(usage.into());
    };
    if metrics_out.is_some() {
        enable_metrics();
    }
    let mut live = LiveStore::open(
        Path::new(store_path),
        PipelineConfig::default(),
        IngestConfig::default(),
    )?;
    if !live.has_pending() {
        eprintln!("nothing to compact: no pending WAL writes");
    } else {
        let started = std::time::Instant::now();
        live.compact()?;
        let epoch = live.current();
        eprintln!(
            "compacted into {store_path} in {:?}; collection now {} posts",
            started.elapsed(),
            epoch.num_docs(),
        );
    }
    if let Some(path) = metrics_out {
        dump_metrics(&path)?;
    }
    Ok(())
}

/// Positional arguments plus an optional `--metrics-out` path.
type SplitArgs<'a> = (Vec<&'a String>, Option<String>);

/// Splits `args` into positional arguments and an optional `--metrics-out`
/// path (the flag every subcommand shares).
fn split_metrics_flag(args: &[String]) -> Result<SplitArgs<'_>, Box<dyn std::error::Error>> {
    let mut positional: Vec<&String> = Vec::new();
    let mut metrics_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics-out" => {
                metrics_out = Some(args.get(i + 1).ok_or("--metrics-out takes a path")?.clone());
                i += 2;
            }
            _ => {
                positional.push(&args[i]);
                i += 1;
            }
        }
    }
    Ok((positional, metrics_out))
}

fn cmd_add(args: &[String]) -> CliResult {
    let usage = "usage: intentmatch add <store.imp> <posts.txt> [--metrics-out M.jsonl]";
    let (positional, metrics_out) = split_metrics_flag(args)?;
    let [store_path, posts_path] = positional[..] else {
        return Err(usage.into());
    };
    if metrics_out.is_some() {
        enable_metrics();
    }
    // The same defaults `ingest` and `compact` open the store with, so the
    // snapshot written here is byte-identical to theirs.
    let posts = read_posts(posts_path)?;
    let mut live = LiveStore::open(
        Path::new(store_path),
        PipelineConfig::default(),
        IngestConfig::default(),
    )?;
    live.add_batch(&posts)?;
    live.compact()?;
    eprintln!(
        "added {} posts; collection now {} posts",
        posts.len(),
        live.current().num_docs()
    );
    if let Some(path) = metrics_out {
        dump_metrics(&path)?;
    }
    Ok(())
}

/// `stats` fast path: a v2 store with no pending WAL writes answers
/// entirely from the 64-byte header, the section directory, and the
/// cluster-metadata section — per-cluster unit counts, vocabulary sizes,
/// and average unique terms are recorded there at save time, so nothing
/// else is read and no index materializes. Returns `Ok(false)` when the
/// store needs the hydrated path (v1 layout, or WAL records pending).
fn stats_from_header(store_path: &Path) -> Result<bool, Box<dyn std::error::Error>> {
    let mut magic = [0u8; 4];
    {
        use std::io::Read as _;
        let mut f = std::fs::File::open(store_path)?;
        if f.read_exact(&mut magic).is_err() {
            return Ok(false); // too short — let the full loader report it
        }
    }
    if &magic != intentmatch::store_v2::V2_MAGIC {
        return Ok(false);
    }
    if forum_ingest::pending_wal_records(store_path)? > 0 {
        return Ok(false);
    }
    let view = intentmatch::StoreView::open(store_path)?;
    println!("posts:    {}", view.num_docs());
    println!("clusters: {}", view.num_clusters());
    let mut total_segments = 0usize;
    for (c, meta) in view.cluster_meta().iter().enumerate() {
        println!(
            "  cluster {c}: {} segments, {} vocabulary terms, avg {:.1} unique terms/segment",
            meta.units, meta.vocab, meta.avg_unique,
        );
        total_segments += meta.units as usize;
    }
    println!(
        "refined segments: {} ({:.2} per post)",
        total_segments,
        total_segments as f64 / view.num_docs().max(1) as f64
    );
    debug_assert_eq!(view.num_resident_clusters(), 0);
    eprintln!(
        "answered from the v2 header ({} sections; read header + directory + \
         cluster metadata of a {}-byte store)",
        view.sections().len(),
        view.file_len(),
    );
    Ok(true)
}

fn cmd_stats(args: &[String]) -> CliResult {
    let usage = "usage: intentmatch stats <store.imp> [--metrics-out M.jsonl]";
    let (positional, metrics_out) = split_metrics_flag(args)?;
    let [store_path] = positional[..] else {
        return Err(usage.into());
    };
    if metrics_out.is_some() {
        enable_metrics();
    }
    if stats_from_header(Path::new(store_path))? {
        if let Some(path) = metrics_out {
            dump_metrics(&path)?;
        }
        return Ok(());
    }
    let live = LiveStore::open(
        Path::new(store_path),
        PipelineConfig::default(),
        IngestConfig::default(),
    )?;
    let epoch = live.current();
    let (collection, pipeline) = (&epoch.base.collection, &epoch.base.pipeline);
    println!("posts:    {}", epoch.num_docs());
    println!("clusters: {}", pipeline.num_clusters());
    for (c, cluster) in pipeline.clusters.iter().enumerate() {
        println!(
            "  cluster {c}: {} segments, {} vocabulary terms, avg {:.1} unique terms/segment",
            cluster.index.num_units(),
            cluster.index.vocabulary().len(),
            cluster.index.avg_unique_terms(),
        );
    }
    let total_segments: usize = pipeline.doc_segments.iter().map(Vec::len).sum();
    println!(
        "refined segments: {} ({:.2} per post)",
        total_segments,
        total_segments as f64 / collection.len().max(1) as f64
    );
    if epoch.has_pending() {
        println!(
            "pending:  {} docs ({} units) in the WAL, {} deleted, {} updated — \
             run `intentmatch compact` to fold in",
            epoch.delta.docs.len(),
            epoch.delta.num_units(),
            epoch.delta.deleted().len(),
            epoch.delta.superseded().len(),
        );
    }
    if let Some(path) = metrics_out {
        dump_metrics(&path)?;
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let usage = "usage: intentmatch serve <store.imp> [--addr HOST:PORT] [--mapped] \
                 [--shards S] [--workers W] [--queue-depth N] [--deadline-ms D] \
                 [--max-k K] [--boards FILE] \
                 [--sample-period MS] [--slo KEY=V[,KEY=V...]] \
                 [--events-out E.jsonl] [--metrics-out M.jsonl] [--slow-ms MS] \
                 [--trace-sample N] [--trace-out T.jsonl]";
    let mut positional: Vec<&String> = Vec::new();
    let mut mapped = false;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut events_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut slow_ms = 250u64;
    let mut trace_sample = 1u64;
    let mut trace_out: Option<String> = None;
    let mut shards = 1usize;
    let mut workers = 0usize; // 0 = size the pool to the shard count
    let mut queue_depth = 64usize;
    let mut deadline_ms = 2_000u64;
    let mut max_k = 100usize;
    let mut boards_path: Option<String> = None;
    let mut sample_period_ms = 5_000u64; // 0 disables the sampler
    let mut slo_specs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                addr = args.get(i + 1).ok_or("--addr takes HOST:PORT")?.clone();
                i += 2;
            }
            "--mapped" => {
                mapped = true;
                i += 1;
            }
            "--shards" => {
                shards = args.get(i + 1).ok_or("--shards takes a count")?.parse()?;
                i += 2;
            }
            "--workers" => {
                workers = args
                    .get(i + 1)
                    .ok_or("--workers takes a thread count")?
                    .parse()?;
                i += 2;
            }
            "--queue-depth" => {
                queue_depth = args
                    .get(i + 1)
                    .ok_or("--queue-depth takes a capacity")?
                    .parse()?;
                i += 2;
            }
            "--deadline-ms" => {
                deadline_ms = args
                    .get(i + 1)
                    .ok_or("--deadline-ms takes an admission deadline in milliseconds")?
                    .parse()?;
                i += 2;
            }
            "--max-k" => {
                max_k = args
                    .get(i + 1)
                    .ok_or("--max-k takes a per-request k cap")?
                    .parse()?;
                i += 2;
            }
            "--boards" => {
                boards_path = Some(
                    args.get(i + 1)
                        .ok_or("--boards takes a file of `doc_id board` lines")?
                        .clone(),
                );
                i += 2;
            }
            "--sample-period" => {
                sample_period_ms = args
                    .get(i + 1)
                    .ok_or("--sample-period takes a period in milliseconds (0 disables)")?
                    .parse()?;
                i += 2;
            }
            "--slo" => {
                slo_specs.push(
                    args.get(i + 1)
                        .ok_or(
                            "--slo takes key=value items (availability, latency_ms, \
                                delta_ratio, noise_rate)",
                        )?
                        .clone(),
                );
                i += 2;
            }
            "--events-out" => {
                events_out = Some(args.get(i + 1).ok_or("--events-out takes a path")?.clone());
                i += 2;
            }
            "--metrics-out" => {
                metrics_out = Some(args.get(i + 1).ok_or("--metrics-out takes a path")?.clone());
                i += 2;
            }
            "--slow-ms" => {
                slow_ms = args
                    .get(i + 1)
                    .ok_or("--slow-ms takes a latency threshold in milliseconds")?
                    .parse()?;
                i += 2;
            }
            "--trace-sample" => {
                trace_sample = args
                    .get(i + 1)
                    .ok_or("--trace-sample takes a sampling divisor (1 = every request)")?
                    .parse()?;
                i += 2;
            }
            "--trace-out" => {
                trace_out = Some(args.get(i + 1).ok_or("--trace-out takes a path")?.clone());
                i += 2;
            }
            _ => {
                positional.push(&args[i]);
                i += 1;
            }
        }
    }
    let [store_path] = positional[..] else {
        return Err(usage.into());
    };
    // A telemetry server without telemetry would be pointless: serving
    // always records metrics, events, and request traces.
    enable_metrics();
    let events = forum_obs::EventLog::global();
    events.set_enabled(true);
    if let Some(path) = &events_out {
        events.set_sink(Path::new(path))?;
    }
    let traces = forum_obs::TraceStore::global();
    traces.set_enabled(true);
    traces.set_sample_every(trace_sample);
    traces.set_slow_threshold(std::time::Duration::from_millis(slow_ms));
    if let Some(path) = &trace_out {
        traces.set_sink(Path::new(path))?;
    }
    let boards = match &boards_path {
        Some(path) => Some(
            forum_ingest::parse_boards(&std::fs::read_to_string(path)?)
                .map_err(|e| format!("bad boards file {path}: {e}"))?,
        ),
        None => None,
    };
    // The live store stays open for the server's lifetime; the mapped
    // backend never opens the WAL.
    let mut live = None;
    let backend = if mapped {
        if shards != 1 {
            return Err("--mapped serves one zero-copy view (drop --shards)".into());
        }
        let pending = forum_ingest::pending_wal_records(Path::new(store_path))?;
        if pending > 0 {
            return Err(format!(
                "{pending} WAL record(s) pending on top of {store_path}: the mapped \
                 reader serves the snapshot only — run `intentmatch compact` first"
            )
            .into());
        }
        let view = intentmatch::StoreView::open(Path::new(store_path))?;
        forum_ingest::Backend::Mapped(std::sync::Arc::new(view))
    } else {
        let store = live.insert(LiveStore::open(
            Path::new(store_path),
            PipelineConfig::default(),
            IngestConfig::default(),
        )?);
        forum_ingest::Backend::Live {
            handle: store.handle(),
            wal_path: forum_ingest::wal_path_for(Path::new(store_path)),
        }
    };
    let objectives = forum_ingest::parse_slo_overrides(
        &slo_specs,
        std::time::Duration::from_millis(deadline_ms),
    )?;
    let app = forum_ingest::ServeApp::with_objectives(
        backend,
        forum_ingest::ServeConfig {
            shards,
            max_k,
            boards,
        },
        objectives,
    );
    // The live pool defaults to one worker per shard: under scatter, each
    // admitted query fans its cluster scans across the shards, so matching
    // the two keeps the pool saturated without oversubscribing. A mapped
    // query scans inline, so it gets one worker per core.
    let workers = match (workers, mapped) {
        (0, true) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        (0, false) => shards,
        (w, _) => w,
    };
    let server = forum_shard::PoolServer::bind(&addr)?
        .with_workers(workers)
        .with_queue_depth(queue_depth)
        .with_deadline(std::time::Duration::from_millis(deadline_ms));
    let bound = server.local_addr()?;
    app.set_stopper(server.stopper()?);
    // The sampler ties its shutdown to the stopper installed above, so a
    // `POST /shutdown` also stops the sampling thread.
    if sample_period_ms > 0 {
        app.start_sampler(std::time::Duration::from_millis(sample_period_ms));
    }
    // Stdout so scripts can discover an ephemeral port; flush before the
    // accept loop blocks.
    println!("listening on http://{bound}");
    use std::io::Write as _;
    std::io::stdout().flush()?;
    eprintln!(
        "serving {store_path} on http://{bound} — {shards} shard(s), {workers} worker(s), \
         queue {queue_depth}, deadline {deadline_ms}ms — POST /shutdown to stop"
    );
    let handler_app = app.clone();
    server.run(std::sync::Arc::new(
        move |req: &forum_obs::serve::Request| handler_app.handle(req),
    ));
    eprintln!("server stopped");
    if let Some(path) = metrics_out {
        dump_metrics(&path)?;
    }
    Ok(())
}

/// `migrate` — rewrites a store in the current sectioned layout (store
/// version 3). Loading handles every format (v1 decodes, versions 2 and
/// 3 hydrate), and `save` always writes version 3 atomically, so
/// migration is just load + save; with
/// no explicit destination the store is replaced in place. Refuses when
/// WAL records are pending (they bind to the old snapshot's fingerprint
/// and would be silently discarded after the rewrite).
fn cmd_migrate(args: &[String]) -> CliResult {
    let usage = "usage: intentmatch migrate <store.imp> [<out.imp>] [--metrics-out M.jsonl]";
    let (positional, metrics_out) = split_metrics_flag(args)?;
    let (store_path, out_path) = match positional[..] {
        [store] => (store, store),
        [store, out] => (store, out),
        _ => return Err(usage.into()),
    };
    if metrics_out.is_some() {
        enable_metrics();
    }
    let pending = forum_ingest::pending_wal_records(Path::new(store_path))?;
    if pending > 0 {
        return Err(format!(
            "{pending} WAL record(s) pending on top of {store_path} — run \
             `intentmatch compact` first, then migrate"
        )
        .into());
    }
    let mut head = [0u8; 8];
    {
        use std::io::Read as _;
        std::fs::File::open(store_path)?.read_exact(&mut head)?;
    }
    let from = if &head[0..4] == intentmatch::store_v2::V2_MAGIC {
        format!(
            "v{}",
            u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"))
        )
    } else {
        "v1".to_string()
    };
    let (collection, pipeline) = store::load(Path::new(store_path))?;
    store::save(Path::new(out_path), &collection, &pipeline)?;
    eprintln!(
        "migrated {store_path} ({from}) -> {out_path} (v{}): {} posts, {} clusters, {} bytes",
        intentmatch::store_v2::STORE_VERSION,
        collection.len(),
        pipeline.num_clusters(),
        std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0),
    );
    if let Some(path) = metrics_out {
        dump_metrics(&path)?;
    }
    Ok(())
}

/// One trace object from `/traces`, `/slowlog`, or `/traces/<id>`: the
/// fields every consumer relies on must be present and well-typed.
fn check_trace_json(t: &forum_obs::json::Json, ctx: &str) -> CliResult {
    use forum_obs::json::Json;
    let id = t
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: trace has no string \"id\""))?;
    if id.is_empty() {
        return Err(format!("{ctx}: trace id is empty").into());
    }
    t.get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: trace {id} has no string \"kind\""))?;
    t.get("total_ns")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{ctx}: trace {id} has no numeric \"total_ns\""))?;
    let spans = t
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: trace {id} has no \"spans\" array"))?;
    for (i, span) in spans.iter().enumerate() {
        span.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{ctx}: trace {id} span {i} has no string \"name\""))?;
        span.get("dur_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{ctx}: trace {id} span {i} has no numeric \"dur_ns\""))?;
    }
    Ok(())
}

/// Offline validation of scraped telemetry artifacts, for CI smoke tests:
/// a `/metrics` scrape must parse as Prometheus text exposition (with
/// `doctor <store.imp> [--json]` — offline, read-only store/index/WAL
/// health audit. Prints the report (human text by default, one JSON
/// object with `--json`) and exits non-zero when any hard failure was
/// found; warnings alone do not fail the run.
fn cmd_doctor(args: &[String]) -> CliResult {
    let usage = "usage: intentmatch doctor <store.imp> [--json]";
    let mut store: Option<String> = None;
    let mut json = false;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}\n{usage}").into());
            }
            other => {
                if store.replace(other.to_string()).is_some() {
                    return Err(usage.into());
                }
            }
        }
    }
    let store = store.ok_or(usage)?;
    let report = forum_ingest::diagnose(std::path::Path::new(&store));
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.healthy() {
        Ok(())
    } else {
        Err(format!("{} hard failure(s) in {store}", report.problems.len()).into())
    }
}

/// `# TYPE` and `# HELP` for every sample family), and a `/traces` or
/// `/slowlog` response must be structurally sound trace JSON.
fn cmd_validate(args: &[String]) -> CliResult {
    use forum_obs::json::Json;
    let usage = "usage: intentmatch validate [--exposition metrics.txt] [--traces traces.json] \
                 [--alerts alerts.json] [--dashboard page.html]";
    let mut exposition: Option<String> = None;
    let mut traces: Option<String> = None;
    let mut alerts: Option<String> = None;
    let mut dashboard: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exposition" => {
                exposition = Some(args.get(i + 1).ok_or("--exposition takes a path")?.clone());
                i += 2;
            }
            "--traces" => {
                traces = Some(args.get(i + 1).ok_or("--traces takes a path")?.clone());
                i += 2;
            }
            "--alerts" => {
                alerts = Some(args.get(i + 1).ok_or("--alerts takes a path")?.clone());
                i += 2;
            }
            "--dashboard" => {
                dashboard = Some(args.get(i + 1).ok_or("--dashboard takes a path")?.clone());
                i += 2;
            }
            _ => return Err(usage.into()),
        }
    }
    if exposition.is_none() && traces.is_none() && alerts.is_none() && dashboard.is_none() {
        return Err(usage.into());
    }
    if let Some(path) = exposition {
        let text = std::fs::read_to_string(&path)?;
        let samples = forum_obs::prometheus::validate_exposition(&text)
            .map_err(|e| format!("{path}: invalid exposition: {e}"))?;
        eprintln!("{path}: valid exposition, {samples} samples");
    }
    if let Some(path) = traces {
        let text = std::fs::read_to_string(&path)?;
        let parsed = Json::parse(text.trim()).map_err(|e| format!("{path}: bad JSON: {e}"))?;
        // Accept the three shapes the server produces: a `/traces` or
        // `/slowlog` envelope ({seen, kept, slow, traces: [...]}), a bare
        // array, or a single `/traces/<id>` trace object.
        let list: Vec<&Json> = if let Some(arr) = parsed.get("traces").and_then(Json::as_arr) {
            for key in ["seen", "kept", "slow"] {
                parsed
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("{path}: envelope has no numeric \"{key}\""))?;
            }
            arr.iter().collect()
        } else if let Some(arr) = parsed.as_arr() {
            arr.iter().collect()
        } else {
            vec![&parsed]
        };
        for (i, t) in list.iter().enumerate() {
            check_trace_json(t, &format!("{path} trace[{i}]"))?;
        }
        eprintln!("{path}: {} well-formed trace(s)", list.len());
    }
    if let Some(path) = alerts {
        let text = std::fs::read_to_string(&path)?;
        let parsed = Json::parse(text.trim()).map_err(|e| format!("{path}: bad JSON: {e}"))?;
        parsed
            .get("unix_ms")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{path}: envelope has no numeric \"unix_ms\""))?;
        let objectives = parsed
            .get("objectives")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: envelope has no \"objectives\" array"))?;
        if objectives.is_empty() {
            return Err(format!("{path}: no objectives configured").into());
        }
        for (i, o) in objectives.iter().enumerate() {
            let name = o
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: objective[{i}] has no string \"name\""))?;
            let state = o
                .get("state")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: objective {name} has no string \"state\""))?;
            if !["ok", "warning", "firing"].contains(&state) {
                return Err(format!("{path}: objective {name} has bad state {state:?}").into());
            }
            for key in ["burn_fast", "burn_slow", "warn_burn", "fire_burn"] {
                o.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: objective {name} has no numeric {key:?}"))?;
            }
        }
        eprintln!("{path}: {} well-formed objective(s)", objectives.len());
    }
    if let Some(path) = dashboard {
        let text = std::fs::read_to_string(&path)?;
        if !text.trim_start().starts_with("<!DOCTYPE html>") {
            return Err(format!("{path}: not an HTML document").into());
        }
        if !text.contains("<svg") {
            return Err(format!("{path}: no inline SVG sparklines").into());
        }
        // Self-containment: the page must reference nothing external (the
        // SVG xmlns declaration carries no fetch, and is the only URL).
        for needle in ["src=", "href=", "url(", "@import", "<script"] {
            if text.contains(needle) {
                return Err(
                    format!("{path}: dashboard is not self-contained: found {needle:?}").into(),
                );
            }
        }
        eprintln!("{path}: self-contained dashboard, {} bytes", text.len());
    }
    Ok(())
}
