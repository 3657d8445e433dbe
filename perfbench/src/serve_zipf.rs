//! `serve_zipf`: open-loop HTTP serving of Zipf-popular related-post
//! queries, then the app's in-process capacity.
//!
//! Setup builds a TechSupport store in a child process (DBSCAN on a
//! sample), opens it with `LiveStore::open`, and serves it with
//! `ShardServeApp` (2 shards) on a `PoolServer` (2 workers), as
//! `intentmatch serve --shards 2` does. The measured phase sends
//! `GET /query?doc=D&k=5` at Poisson arrivals, 250/s, with `D` drawn
//! Zipf(1.0) over one seeded permutation of the documents; latency runs
//! from each request's due time to its last response byte. It then calls
//! `ShardServeApp::handle` back to back from one thread — the service
//! time without sockets or the accept loop's 1 ms idle tick.
//!
//! The store is read-only, so the WAL, the delta, segmentation and decode
//! stay idle: this workload isolates HTTP, admission, shard fan-out, the
//! base scans and the merge.

use crate::http::{self, Planned};
use crate::trace::{self, Tracer};
use crate::util::{self, Popularity, Rng};
use crate::{Args, Report, Scale, ScanWork, WorkDir};
use forum_ingest::{IngestConfig, LiveStore, ShardServeApp, ShardServeConfig};
use forum_obs::serve::{Request, Response};
use forum_shard::{PoolServer, ShardPlan, ShardSet, ShardStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Input sizes of one scale.
pub(crate) struct Sizes {
    /// Posts in the base store.
    pub posts: usize,
    /// DBSCAN sample cap of the base build.
    pub sample: usize,
    /// Times setup is repeated (`setup_s` is the median).
    pub setup_reps: usize,
    /// Warm-up requests before measuring.
    pub warmup: usize,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Back-to-back `handle` calls per capacity batch.
    pub batch: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                posts: 6000,
                sample: 4000,
                setup_reps: 2,
                warmup: 200,
                rate: 250.0,
                batch: 500,
            },
            Scale::Tiny => Sizes {
                posts: 300,
                sample: 300,
                setup_reps: 1,
                warmup: 10,
                rate: 200.0,
                batch: 20,
            },
        }
    }
}

/// Share of the measured phase spent on open-loop HTTP; the rest measures
/// in-process capacity.
const HTTP_SHARE: f64 = 0.6;
/// The measured phase alternates this many HTTP and capacity slices.
const SLICES: usize = 3;
/// Results per query.
pub(crate) const K: usize = 5;
/// Samples per window of the windowed p99 (each window leaves exactly ten
/// samples beyond its p99).
pub(crate) const P99_WINDOW: usize = 1000;
/// One in this many answers is checked bit for bit against
/// `LiveEpoch::top_k` (every answer is parsed and status-checked).
const CHECK_EVERY: u64 = 8;

/// An in-process `/query` request.
pub(crate) fn query_request(doc: u32, k: usize) -> Request {
    Request {
        method: "GET".into(),
        path: "/query".into(),
        query: vec![("doc".into(), doc.to_string()), ("k".into(), k.to_string())],
        headers: Vec::new(),
        body: Vec::new(),
    }
}

/// Opens the base store `reps` times (each a fresh child build plus
/// `LiveStore::open`), returning the last store and the median time.
pub(crate) fn setup_base(
    work: &WorkDir,
    posts: usize,
    sample: usize,
    seed: u64,
    reps: usize,
) -> Result<(LiveStore, std::path::PathBuf, f64), String> {
    let mut times = Vec::new();
    let mut opened = None;
    for rep in 0..reps.max(1) {
        // The previous repetition's store is closed before the next opens.
        drop(opened.take());
        let t0 = Instant::now();
        let path = work.path().join(format!("base-{rep}.imp"));
        crate::build_store_in_child(posts, seed, sample, &path)?;
        let live = LiveStore::open(
            &path,
            crate::sampled_config(sample),
            IngestConfig::default(),
        )
        .map_err(|e| format!("open base store: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        opened = Some((live, path));
    }
    let (live, path) = opened.expect("at least one setup repetition");
    Ok((live, path, util::median(&times).expect("setup timed")))
}

/// Stops and joins the server thread on every exit path.
struct ServerGuard {
    stopper: forum_obs::serve::Stopper,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.stopper.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

type Stamps = Arc<Mutex<Vec<(usize, Instant, Instant)>>>;

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let sz = Sizes::of(args.scale);
    let mut report = Report::default();
    let work = WorkDir::create("serve_zipf").map_err(|e| format!("work dir: {e}"))?;

    let (live, path, build_open_s) =
        setup_base(&work, sz.posts, sz.sample, args.seed, sz.setup_reps)?;
    let serve_start = Instant::now();
    let app = ShardServeApp::new(
        live.handle(),
        forum_ingest::wal_path_for(&path),
        ShardServeConfig {
            shards: 2,
            ..ShardServeConfig::default()
        },
    );
    let server = PoolServer::bind("127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?
        .with_workers(2);
    let addr = server.local_addr().map_err(|e| format!("addr: {e}"))?;
    let stopper = server.stopper().map_err(|e| format!("stopper: {e}"))?;
    app.set_stopper(stopper.clone());
    // The handler closure stamps entry and exit of requests whose `rid`
    // is at least `stamp_from` (never, in an untraced run).
    let stamp_from = Arc::new(AtomicUsize::new(usize::MAX));
    let stamps: Stamps = Arc::new(Mutex::new(Vec::new()));
    let handler = {
        let app = app.clone();
        let stamp_from = stamp_from.clone();
        let stamps = stamps.clone();
        move |req: &Request| -> Response {
            let rid = req.query_param("rid").and_then(|r| r.parse::<usize>().ok());
            match rid {
                Some(rid) if rid >= stamp_from.load(Ordering::Relaxed) => {
                    let entry = Instant::now();
                    let resp = app.handle(req);
                    let exit = Instant::now();
                    stamps
                        .lock()
                        .expect("stamp lock poisoned")
                        .push((rid, entry, exit));
                    resp
                }
                _ => app.handle(req),
            }
        }
    };
    let _server = ServerGuard {
        stopper,
        thread: Some(std::thread::spawn(move || server.run(Arc::new(handler)))),
    };

    let epoch = live.current();
    let num_docs = epoch.num_docs();
    let mut rng = Rng::new(args.seed, 0x5E_87E);
    let mut pop = Popularity::new(num_docs, 1.0, Rng::new(args.seed, 0x21_FF));

    // Warm-up over HTTP (every status checked) and in process.
    let warm: Vec<Planned> = (0..sz.warmup)
        .map(|i| Planned {
            due: Duration::from_secs_f64(i as f64 / sz.rate),
            target: format!("/query?doc={}&k={K}", pop.draw()),
        })
        .collect();
    let warm_run =
        http::open_loop(addr, &warm, Instant::now()).map_err(|e| format!("warm-up: {e}"))?;
    if let Some(bad) = warm_run.outcomes.iter().find(|o| o.status != 200) {
        return Err(format!(
            "warm-up request failed: status {} {:?}",
            bad.status, bad.error
        ));
    }
    for _ in 0..sz.warmup {
        app.handle(&query_request(pop.draw(), K));
    }
    let setup_s = build_open_s + serve_start.elapsed().as_secs_f64();

    // The measured phase alternates open-loop HTTP slices with in-process
    // capacity slices, so both sample the host across the whole run.
    let http_secs = args.seconds * HTTP_SHARE;
    let slice_http = http_secs / SLICES as f64;
    let slice_cap = args.seconds * (1.0 - HTTP_SHARE) / SLICES as f64;
    // The span clock starts before the first stamped request.
    let tr = Tracer::new();
    let mut check_rng = Rng::new(args.seed, 0xC4EC);
    let mut checked = 0u64;
    let steal0 = util::steal_ticks();
    let mut outcomes: Vec<http::Outcome> = Vec::new();
    let mut docs = Vec::new();
    let mut peak_in_flight = 0;
    let mut first_traced = usize::MAX;
    let mut handle_ms = Vec::new();
    let mut batch_s = Vec::new();
    for slice in 0..SLICES {
        let mut plan = Vec::new();
        let mut due = Duration::ZERO;
        loop {
            due += rng.exp_gap(sz.rate);
            if due.as_secs_f64() >= slice_http {
                break;
            }
            let doc = pop.draw();
            docs.push(doc);
            plan.push(Planned {
                due,
                target: format!("/query?doc={doc}&k={K}&rid={}", outcomes.len() + plan.len()),
            });
        }
        // A traced run leaves its first slice unstamped: the untraced
        // baseline of the tracing overhead.
        if args.trace && slice == 1 {
            first_traced = outcomes.len();
            stamp_from.store(first_traced, Ordering::Relaxed);
        }
        let run = http::open_loop(addr, &plan, Instant::now() + Duration::from_millis(5))
            .map_err(|e| format!("load generator: {e}"))?;
        peak_in_flight = peak_in_flight.max(run.peak_in_flight);
        outcomes.extend(run.outcomes);

        let cap_deadline = Instant::now() + Duration::from_secs_f64(slice_cap);
        loop {
            let batch_start = Instant::now();
            for _ in 0..sz.batch {
                let doc = pop.draw();
                let t0 = Instant::now();
                let resp = app.handle(&query_request(doc, K));
                handle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                report.attempted += 1;
                if resp.status != 200 {
                    report.failed += 1;
                } else if check_rng.next_u64().is_multiple_of(4 * CHECK_EVERY) {
                    checked += 1;
                    let ok = crate::parse_ranking(&resp.body)
                        .is_ok_and(|r| crate::same_ranking(&r, &epoch.top_k(doc, K)));
                    if !ok {
                        report.mismatches += 1;
                        report.failed += 1;
                    }
                }
            }
            batch_s.push(batch_start.elapsed().as_secs_f64());
            if Instant::now() >= cap_deadline {
                break;
            }
        }
    }
    stamp_from.store(usize::MAX, Ordering::Relaxed);
    let steal = util::steal_ticks().saturating_sub(steal0);

    let mut latencies = Vec::with_capacity(outcomes.len());
    let mut lateness = Vec::with_capacity(outcomes.len());
    let mut rankings = Vec::with_capacity(outcomes.len());
    for o in &outcomes {
        report.attempted += 1;
        latencies.push(o.done.duration_since(o.due).as_secs_f64() * 1e3);
        lateness.push(o.sent.saturating_duration_since(o.due).as_secs_f64() * 1e3);
        let ranking = match (&o.error, o.status) {
            (None, 200) => crate::parse_ranking(&o.body).ok(),
            _ => None,
        };
        if ranking.is_none() {
            report.failed += 1;
        }
        rankings.push(ranking);
    }
    // Seeded sample of answers, checked bit for bit on the same epoch.
    for (i, r) in rankings.iter().enumerate() {
        if let Some(r) = r {
            if check_rng.next_u64().is_multiple_of(CHECK_EVERY) {
                checked += 1;
                if !crate::same_ranking(r, &epoch.top_k(docs[i], K)) {
                    report.mismatches += 1;
                    report.failed += 1;
                }
            }
        }
    }

    let read_p50 = util::median(&latencies).ok_or("no HTTP samples")?;
    let batch_med = util::median(&batch_s).expect("at least one batch");
    report.say(format!(
        "load: open loop, Poisson {:.0} req/s for {http_secs:.1} s in {SLICES} slices, Zipf(1.0) over {num_docs} docs, \
         k={K}, 2 shards, 2 pool workers; {} requests, peak {} connections in flight",
        sz.rate,
        outcomes.len(),
        peak_in_flight
    ));
    report.say(format!(
        "generator lateness: p99 {} ms, max {:.3} ms (send minus due; counted in latency)",
        util::tail_percentile(&lateness, 0.99).map_or("refused".into(), |v| format!("{v:.3}")),
        lateness.iter().copied().fold(0.0, f64::max)
    ));
    report.distribution(
        "HTTP query latency from due time (query_p50_ms, query_p99_ms)",
        &latencies,
    );
    report.distribution("in-process handle latency", &handle_ms);
    report.say(format!(
        "service_qps={:.1} req/s (in-process handle, {} per batch, {} batches)",
        sz.batch as f64 / batch_med,
        sz.batch,
        batch_s.len(),
    ));
    report.say(format!(
        "answers: {checked} checked bit for bit against LiveEpoch::top_k; steal ticks in measured phase {steal}"
    ));
    report.metric("setup_s", Ok(setup_s));
    report.metric("rss_mb", Ok(util::peak_rss_mb()));
    report.metric("read_ms", Ok(read_p50));
    report.metric(
        "op_ms",
        util::median(&handle_ms).ok_or_else(|| "no handle samples".into()),
    );
    report.metric("batch_s", Ok(batch_med));

    if args.trace {
        let stamps = std::mem::take(&mut *stamps.lock().expect("stamp lock poisoned"));
        trace_layers(
            &tr,
            &mut report,
            args,
            &outcomes,
            &stamps,
            &rankings,
            &docs,
            &epoch,
            first_traced,
            &latencies,
        );
    }
    Ok(report)
}

/// Builds the traced run's spans from the client and handler stamps,
/// replays every stamped request through the layers, and reports the
/// per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    tr: &Tracer,
    report: &mut Report,
    args: &Args,
    outcomes: &[http::Outcome],
    stamps: &[(usize, Instant, Instant)],
    rankings: &[Option<Vec<(u32, f64)>>],
    docs: &[u32],
    epoch: &forum_ingest::LiveEpoch,
    first_traced: usize,
    latencies: &[f64],
) {
    let set = ShardSet::build(ShardPlan::new(2), epoch.base.pipeline.clusters.len());
    let stats = ShardStats::new(2);
    let work = ScanWork::default();
    let mut replayed = 0u64;
    for &(rid, entry, exit) in stamps {
        let o = &outcomes[rid];
        let Some(served) = &rankings[rid] else {
            continue;
        };
        let g = rid as u64;
        let root = tr.record("request", g, None, o.due, o.done, 0);
        tr.record("gen.lateness", g, Some(root), o.due, o.sent, 0);
        tr.record("pool.accept_wait", g, Some(root), o.sent, entry, 0);
        let handler = tr.record("serve.handler", g, Some(root), entry, exit, 0);
        tr.record("pool.response", g, Some(root), exit, o.done, 0);
        let mark = tr.mark();
        let ranking = crate::replay_query(tr, epoch, &set, &stats, docs[rid], K, &work);
        tr.graft(mark, handler);
        replayed += 1;
        if !crate::same_ranking(&ranking, served) {
            report.mismatches += 1;
            report.failed += 1;
        }
    }
    let spans = tr.take();
    let (layers, _) = trace::summarize(&spans);
    let q = replayed.max(1) as f64;
    let per_query = |name: &str, unit_ns: f64| {
        layers
            .get(name)
            .map_or(0.0, |l| l.total_ns as f64 / q / unit_ns)
    };
    report.say(format!(
        "traced: {replayed} requests stamped and replayed, rankings identical to HTTP"
    ));
    report.layer(
        "pool.accept_wait_ms",
        crate::median_wall(&layers, "pool.accept_wait", 1e6),
    );
    report.layer(
        "pool.response_ms",
        crate::median_wall(&layers, "pool.response", 1e6),
    );
    report.layer(
        "serve.handler_ms",
        crate::median_wall(&layers, "serve.handler", 1e6),
    );
    report.layer(
        "serve.handler_p99_ms",
        layers
            .get("serve.handler")
            .and_then(|l| util::tail_percentile(&l.durs, 0.99).ok())
            .map_or(0.0, |v| v / 1e6),
    );
    report.layer(
        "serve.app_self_us",
        crate::mean_self(&layers, "serve.handler", 1e3),
    );
    report.layer("live.query_groups_us", per_query("live.query_groups", 1e3));
    report.layer("engine.weight_us", per_query("engine.weight", 1e3));
    report.layer("index.base_scan_ms", per_query("index.base_scan", 1e6));
    report.layer(
        "index.postings_scanned",
        work.postings.load(Ordering::Relaxed) as f64 / q,
    );
    report.layer(
        "index.early_exits",
        work.early_exits.load(Ordering::Relaxed) as f64 / q,
    );
    report.layer("index.delta_scan_ms", per_query("index.delta_scan", 1e6));
    report.layer("index.delta_units", epoch.delta.num_units() as f64);
    report.layer(
        "shard.fanout_us",
        crate::mean_self(&layers, "shard.scatter_gather", 1e3),
    );
    report.layer("engine.merge_us", per_query("engine.merge", 1e3));
    let untraced = util::mean(&latencies[..first_traced.min(latencies.len())]);
    let traced = util::mean(&latencies[first_traced.min(latencies.len())..]);
    crate::account(report, &spans, untraced, traced);
    crate::write_trace(args, &spans, report);
}
