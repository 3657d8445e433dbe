//! Retained in-process time-series over [`Registry`] snapshots.
//!
//! Every `/metrics` scrape and [`crate::rates::RateWindow`] diff forgets
//! the past; this module keeps bounded history so "is p99 degrading?" and
//! "is the delta/base ratio trending toward a re-cluster?" have answers.
//! A [`TimeSeries`] ingests registry snapshots (typically from the
//! background [`Sampler`] thread) and derives one bounded ring-buffer
//! series per signal:
//!
//! * counter `name` → per-second rate over the sampling interval (a
//!   negative delta — counter reset, epoch swap, [`Registry::reset`] —
//!   clamps to 0, exactly like [`crate::rates::RateWindow`]);
//! * gauge `name` → the sampled value;
//! * histogram `name` → three series: `name/rate` (observations per
//!   second), `name/p50` and `name/p99` (log-linear interpolated
//!   quantiles of the *interval* histogram, i.e. only observations that
//!   landed between consecutive samples).
//!
//! Each series keeps a fine ring (default 5 s × 720 ≈ one hour) and a
//! coarse ring downsampled by averaging (default 12 fine samples → one
//! 1 m point, × 1440 ≈ one day), so hours of history fit in bounded
//! memory regardless of uptime.
//!
//! The [`Sampler`] thread goes through the existing
//! [`Registry::snapshot`] path, integrates with the serving tier's
//! [`Stopper`] for graceful shutdown (a stop request mid-wait exits
//! *without* taking a partial sample), and records its own cost under
//! `obs/sample_ns`, so a scrape shows what sampling costs.

use crate::registry::{HistogramSnapshot, MetricValue, Registry, Snapshot};
use crate::serve::Stopper;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Default sampling period of the background [`Sampler`].
pub const DEFAULT_SAMPLE_PERIOD: Duration = Duration::from_secs(5);
/// Default fine-ring capacity (720 × 5 s = 1 hour).
pub const DEFAULT_FINE_CAPACITY: usize = 720;
/// Default number of fine samples averaged into one coarse point
/// (12 × 5 s = 1 minute).
pub const DEFAULT_COARSE_PER_FINE: u32 = 12;
/// Default coarse-ring capacity (1440 × 1 m = 1 day).
pub const DEFAULT_COARSE_CAPACITY: usize = 1440;

/// One timestamped point of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The derived value (rate, gauge reading, or quantile estimate).
    pub value: f64,
}

/// Which ring to read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// The fine ring (default 5 s resolution, ~1 hour retained).
    Fine,
    /// The coarse downsampled ring (default 1 m resolution, ~1 day).
    Coarse,
}

impl Window {
    /// Parses `"fine"` / `"coarse"` (the `/series?window=` values).
    pub fn parse(s: &str) -> Option<Window> {
        match s {
            "fine" => Some(Window::Fine),
            "coarse" => Some(Window::Coarse),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Ring {
    cap: usize,
    samples: VecDeque<Sample>,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            cap: cap.max(1),
            samples: VecDeque::new(),
        }
    }

    fn push(&mut self, s: Sample) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back(s);
    }
}

#[derive(Debug)]
struct Series {
    fine: Ring,
    coarse: Ring,
    /// Running mean accumulator for the coarse point under construction.
    acc_sum: f64,
    acc_n: u32,
}

impl Series {
    fn push(&mut self, s: Sample, coarse_per_fine: u32) {
        self.fine.push(s);
        self.acc_sum += s.value;
        self.acc_n += 1;
        if self.acc_n >= coarse_per_fine {
            self.coarse.push(Sample {
                unix_ms: s.unix_ms,
                value: self.acc_sum / self.acc_n as f64,
            });
            self.acc_sum = 0.0;
            self.acc_n = 0;
        }
    }
}

struct Prev {
    at: Instant,
    snapshot: Snapshot,
}

struct Inner {
    prev: Option<Prev>,
    series: BTreeMap<String, Series>,
}

/// Bounded retained history of derived registry signals; see the module
/// docs for the derivation rules and ring geometry.
pub struct TimeSeries {
    fine_capacity: usize,
    coarse_per_fine: u32,
    coarse_capacity: usize,
    inner: Mutex<Inner>,
}

impl Default for TimeSeries {
    fn default() -> TimeSeries {
        TimeSeries::new()
    }
}

impl TimeSeries {
    /// A store with the default ring geometry (5 s × 720 fine,
    /// 1 m × 1440 coarse).
    pub fn new() -> TimeSeries {
        TimeSeries::with_geometry(
            DEFAULT_FINE_CAPACITY,
            DEFAULT_COARSE_PER_FINE,
            DEFAULT_COARSE_CAPACITY,
        )
    }

    /// A store with explicit ring sizes (all clamped to at least 1).
    pub fn with_geometry(
        fine_capacity: usize,
        coarse_per_fine: u32,
        coarse_capacity: usize,
    ) -> TimeSeries {
        TimeSeries {
            fine_capacity: fine_capacity.max(1),
            coarse_per_fine: coarse_per_fine.max(1),
            coarse_capacity: coarse_capacity.max(1),
            inner: Mutex::new(Inner {
                prev: None,
                series: BTreeMap::new(),
            }),
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Ingests one registry snapshot taken at monotonic instant `at` /
    /// wall-clock `unix_ms`, plus derived gauges the registry does not
    /// hold (`extras`, e.g. drift ratios computed from the live store).
    ///
    /// The first observation seeds the diff base: gauge and extra series
    /// get a point immediately, counter and histogram series only from
    /// the second observation on (rates need an interval).
    pub fn observe(
        &self,
        at: Instant,
        unix_ms: u64,
        snapshot: &Snapshot,
        extras: &[(String, f64)],
    ) {
        let mut inner = self.locked();
        let dt = inner
            .prev
            .as_ref()
            .map(|p| at.saturating_duration_since(p.at).as_secs_f64());
        for m in &snapshot.metrics {
            match &m.value {
                MetricValue::Gauge(v) => {
                    self.push(&mut inner, &m.name, unix_ms, *v as f64);
                }
                MetricValue::Counter(v) => {
                    let Some(dt) = dt else { continue };
                    if dt <= 0.0 {
                        continue;
                    }
                    // Absent from the previous snapshot (registered
                    // mid-flight) counts from 0, like `RateWindow::rate_sum`.
                    let prev = inner
                        .prev
                        .as_ref()
                        .map_or(0, |p| p.snapshot.counter(&m.name));
                    let rate = ((*v as f64 - prev as f64) / dt).max(0.0);
                    self.push(&mut inner, &m.name, unix_ms, rate);
                }
                MetricValue::Histogram(h) => {
                    let Some(dt) = dt else { continue };
                    if dt <= 0.0 {
                        continue;
                    }
                    let prev = inner
                        .prev
                        .as_ref()
                        .and_then(|p| match p.snapshot.get(&m.name) {
                            Some(MetricValue::Histogram(ph)) => Some(ph.clone()),
                            _ => None,
                        });
                    let (rate, interval) = interval_histogram(h, prev.as_ref(), dt);
                    self.push(&mut inner, &format!("{}/rate", m.name), unix_ms, rate);
                    if let Some(iv) = interval {
                        self.push(
                            &mut inner,
                            &format!("{}/p50", m.name),
                            unix_ms,
                            iv.p50_est(),
                        );
                        self.push(
                            &mut inner,
                            &format!("{}/p99", m.name),
                            unix_ms,
                            iv.p99_est(),
                        );
                    }
                }
            }
        }
        for (name, value) in extras {
            self.push(&mut inner, name, unix_ms, *value);
        }
        inner.prev = Some(Prev {
            at,
            snapshot: snapshot.clone(),
        });
    }

    fn push(&self, inner: &mut Inner, name: &str, unix_ms: u64, value: f64) {
        if !value.is_finite() {
            return;
        }
        let (fine, cpf, coarse) = (
            self.fine_capacity,
            self.coarse_per_fine,
            self.coarse_capacity,
        );
        let series = inner
            .series
            .entry(name.to_string())
            .or_insert_with(|| Series {
                fine: Ring::new(fine),
                coarse: Ring::new(coarse),
                acc_sum: 0.0,
                acc_n: 0,
            });
        series.push(Sample { unix_ms, value }, cpf);
    }

    /// All retained series names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.locked().series.keys().cloned().collect()
    }

    /// The retained samples of `name` in `window` order (oldest first), or
    /// `None` for an unknown series.
    pub fn samples(&self, name: &str, window: Window) -> Option<Vec<Sample>> {
        let inner = self.locked();
        let series = inner.series.get(name)?;
        let ring = match window {
            Window::Fine => &series.fine,
            Window::Coarse => &series.coarse,
        };
        Some(ring.samples.iter().copied().collect())
    }

    /// The newest fine sample of `name`.
    pub fn latest(&self, name: &str) -> Option<Sample> {
        let inner = self.locked();
        inner.series.get(name)?.fine.samples.back().copied()
    }

    /// Mean of the samples of `name` within the trailing `window` ending
    /// at `now_unix_ms`. Reads the fine ring, falling back to the coarse
    /// ring when no fine sample is recent enough; `None` when the series
    /// is unknown or has no sample in range. Windows are "up to": with
    /// less history than `window`, whatever exists is averaged, so a
    /// freshly-started process can still evaluate its objectives.
    pub fn avg_over(&self, name: &str, window: Duration, now_unix_ms: u64) -> Option<f64> {
        let inner = self.locked();
        let series = inner.series.get(name)?;
        let cutoff = now_unix_ms.saturating_sub(window.as_millis().min(u64::MAX as u128) as u64);
        for ring in [&series.fine, &series.coarse] {
            let (mut sum, mut n) = (0.0, 0u64);
            for s in ring.samples.iter().rev() {
                if s.unix_ms > now_unix_ms {
                    continue;
                }
                if s.unix_ms < cutoff {
                    break;
                }
                sum += s.value;
                n += 1;
            }
            if n > 0 {
                return Some(sum / n as f64);
            }
        }
        None
    }
}

/// Observations-per-second plus the interval histogram between `prev` and
/// `cur`. A reset (count or any bucket went backwards) clamps the rate to
/// 0 and uses the *current* histogram as the interval (it holds exactly
/// the post-reset observations), mirroring `RateWindow`'s clamp.
fn interval_histogram(
    cur: &HistogramSnapshot,
    prev: Option<&HistogramSnapshot>,
    dt: f64,
) -> (f64, Option<HistogramSnapshot>) {
    let Some(prev) = prev else {
        let rate = (cur.count as f64 / dt).max(0.0);
        return (rate, (cur.count > 0).then(|| cur.clone()));
    };
    if cur.count < prev.count {
        return (0.0, (cur.count > 0).then(|| cur.clone()));
    }
    let mut buckets = Vec::with_capacity(cur.buckets.len());
    let mut prev_iter = prev.buckets.iter().peekable();
    for &(bound, n) in &cur.buckets {
        let mut prev_n = 0;
        while let Some(&&(pb, pn)) = prev_iter.peek() {
            if pb < bound {
                prev_iter.next();
            } else {
                if pb == bound {
                    prev_n = pn;
                    prev_iter.next();
                }
                break;
            }
        }
        if n < prev_n {
            // Bucket went backwards without the total count shrinking:
            // still a reset for our purposes.
            return (0.0, (cur.count > 0).then(|| cur.clone()));
        }
        if n > prev_n {
            buckets.push((bound, n - prev_n));
        }
    }
    let dc = cur.count - prev.count;
    let rate = (dc as f64 / dt).max(0.0);
    let interval = (dc > 0).then(|| HistogramSnapshot {
        count: dc,
        sum: cur.sum.saturating_sub(prev.sum),
        max: cur.max,
        buckets,
    });
    (rate, interval)
}

/// Scrape-time producer of gauge samples the registry does not hold.
pub type ExtraGauges = Arc<dyn Fn() -> Vec<(String, f64)> + Send + Sync>;
/// Post-sample hook (SLO evaluation) run on the sampler thread.
pub type OnSample = Arc<dyn Fn(&TimeSeries, u64) + Send + Sync>;

/// Configures and spawns a [`Sampler`].
pub struct SamplerBuilder {
    period: Duration,
    registry: &'static Registry,
    stopper: Option<Stopper>,
    extras: Option<ExtraGauges>,
    on_sample: Option<OnSample>,
}

impl SamplerBuilder {
    /// Overrides the sampled registry (tests; defaults to the global).
    pub fn with_registry(mut self, registry: &'static Registry) -> SamplerBuilder {
        self.registry = registry;
        self
    }

    /// Ties shutdown to the serving tier's [`Stopper`]: once
    /// [`Stopper::stop`] is called the sampler exits within one poll tick
    /// (≤ 200 ms) without taking a partial sample.
    pub fn with_stopper(mut self, stopper: Stopper) -> SamplerBuilder {
        self.stopper = Some(stopper);
        self
    }

    /// Installs a per-tick producer of derived gauges (drift ratios etc.)
    /// recorded alongside the registry snapshot.
    pub fn with_extras(mut self, extras: ExtraGauges) -> SamplerBuilder {
        self.extras = Some(extras);
        self
    }

    /// Installs a hook run after each sample (SLO evaluation).
    pub fn on_sample(mut self, hook: OnSample) -> SamplerBuilder {
        self.on_sample = Some(hook);
        self
    }

    /// Spawns the background thread feeding `timeseries`.
    pub fn spawn(self, timeseries: Arc<TimeSeries>) -> Sampler {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let taken = Arc::new(AtomicU64::new(0));
        let thread = {
            let stop = stop.clone();
            let taken = taken.clone();
            std::thread::Builder::new()
                .name("obs-sampler".into())
                .spawn(move || sampler_loop(self, &timeseries, &stop, &taken))
                .expect("spawn obs-sampler thread")
        };
        Sampler {
            stop,
            taken,
            thread: Some(thread),
        }
    }
}

/// Poll granularity for noticing an external [`Stopper`] stop request.
const STOP_POLL: Duration = Duration::from_millis(200);

fn sampler_loop(
    config: SamplerBuilder,
    timeseries: &TimeSeries,
    stop: &(Mutex<bool>, Condvar),
    taken: &AtomicU64,
) {
    let SamplerBuilder {
        period,
        registry,
        stopper,
        extras,
        on_sample,
    } = config;
    let stopper = stopper.as_ref();
    let period = period.max(Duration::from_millis(1));
    let mut next = Instant::now() + period;
    'outer: loop {
        // Wait until the next tick, checking for shutdown. A stop request
        // observed here exits the loop *before* sampling, so shutdown
        // never leaves a partial (mid-period) sample in the rings.
        loop {
            let externally_stopped = stopper.is_some_and(|s| s.is_stopped());
            let guard = stop.0.lock().unwrap_or_else(|p| p.into_inner());
            if *guard || externally_stopped {
                break 'outer;
            }
            let now = Instant::now();
            if now >= next {
                break;
            }
            let wait = (next - now).min(STOP_POLL);
            let _ = stop.1.wait_timeout(guard, wait);
        }
        let at = Instant::now();
        let unix_ms = unix_millis();
        let snapshot = registry.snapshot();
        let extra = extras.as_ref().map(|f| f()).unwrap_or_default();
        timeseries.observe(at, unix_ms, &snapshot, &extra);
        if let Some(hook) = &on_sample {
            hook(timeseries, unix_ms);
        }
        registry.record_duration("obs/sample_ns", at.elapsed());
        taken.fetch_add(1, Ordering::SeqCst);
        next += period;
        if next < Instant::now() {
            // Fell behind (debugger pause, suspend): realign instead of
            // bursting catch-up samples.
            next = Instant::now() + period;
        }
    }
}

/// Wall-clock milliseconds since the Unix epoch.
pub fn unix_millis() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Handle to the background sampling thread; see [`Sampler::builder`].
pub struct Sampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    taken: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    /// Starts configuring a sampler with the given period.
    pub fn builder(period: Duration) -> SamplerBuilder {
        SamplerBuilder {
            period,
            registry: Registry::global(),
            stopper: None,
            extras: None,
            on_sample: None,
        }
    }

    /// Number of completed samples so far.
    pub fn samples_taken(&self) -> u64 {
        self.taken.load(Ordering::SeqCst)
    }

    /// Signals the thread to stop and joins it. Idempotent; also run on
    /// drop.
    pub fn shutdown(&mut self) {
        {
            let mut guard = self.stop.0.lock().unwrap_or_else(|p| p.into_inner());
            *guard = true;
        }
        self.stop.1.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(counters: &[(&str, u64)], gauges: &[(&str, i64)], hist: &[(&str, &[u64])]) -> Snapshot {
        let r = Registry::new();
        for (name, v) in counters {
            r.incr(name, *v);
        }
        for (name, v) in gauges {
            r.gauge(name).set(*v);
        }
        for (name, values) in hist {
            for v in *values {
                r.record(name, *v);
            }
        }
        r.snapshot()
    }

    fn ms(s: u64) -> u64 {
        s * 1000
    }

    #[test]
    fn derives_counter_rates_gauges_and_interval_quantiles() {
        let ts = TimeSeries::new();
        let t0 = Instant::now();
        ts.observe(
            t0,
            ms(0),
            &snap(&[("c", 100)], &[("g", 7)], &[("h", &[100, 100])]),
            &[("extra/ratio".into(), 0.25)],
        );
        // First observation: gauges and extras only.
        assert_eq!(ts.latest("g").map(|s| s.value), Some(7.0));
        assert_eq!(ts.latest("extra/ratio").map(|s| s.value), Some(0.25));
        assert_eq!(ts.latest("c"), None);
        assert_eq!(ts.latest("h/rate"), None);

        ts.observe(
            t0 + Duration::from_secs(10),
            ms(10),
            &snap(
                &[("c", 300)],
                &[("g", 9)],
                &[("h", &[100, 100, 8000, 8000, 8000])],
            ),
            &[],
        );
        assert_eq!(ts.latest("c").map(|s| s.value), Some(20.0));
        assert_eq!(ts.latest("g").map(|s| s.value), Some(9.0));
        // 3 new observations over 10 s.
        assert_eq!(ts.latest("h/rate").map(|s| s.value), Some(0.3));
        // The interval histogram holds only the three 8000 ns points, so
        // its p50 lands in the 8000-ish bucket, not between 100 and 8000.
        let p50 = ts.latest("h/p50").unwrap().value;
        assert!((4096.0..=16384.0).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn counter_reset_clamps_to_zero() {
        let ts = TimeSeries::new();
        let t0 = Instant::now();
        ts.observe(
            t0,
            ms(0),
            &snap(&[("c", 500)], &[], &[("h", &[50, 50, 50])]),
            &[],
        );
        ts.observe(
            t0 + Duration::from_secs(5),
            ms(5),
            // Both the counter and the histogram went backwards (epoch
            // swap / Registry::reset): rates clamp to 0.
            &snap(&[("c", 10)], &[], &[("h", &[50])]),
            &[],
        );
        assert_eq!(ts.latest("c").map(|s| s.value), Some(0.0));
        assert_eq!(ts.latest("h/rate").map(|s| s.value), Some(0.0));
        // The post-reset histogram still yields quantiles of what it holds.
        assert!(ts.latest("h/p50").is_some());
    }

    #[test]
    fn fine_ring_wraps_and_coarse_downsamples_means() {
        let ts = TimeSeries::with_geometry(4, 3, 8);
        let t0 = Instant::now();
        for i in 0..10u64 {
            ts.observe(
                t0 + Duration::from_secs(i),
                ms(i),
                &snap(&[], &[("g", i as i64)], &[]),
                &[],
            );
        }
        let fine = ts.samples("g", Window::Fine).unwrap();
        assert_eq!(fine.len(), 4, "ring capacity");
        assert_eq!(
            fine[0],
            Sample {
                unix_ms: ms(6),
                value: 6.0
            }
        );
        assert_eq!(
            fine[3],
            Sample {
                unix_ms: ms(9),
                value: 9.0
            }
        );
        // Coarse points are means of 3 consecutive fine samples:
        // (0,1,2)→1, (3,4,5)→4, (6,7,8)→7; the 10th sample is still
        // accumulating.
        let coarse = ts.samples("g", Window::Coarse).unwrap();
        let values: Vec<f64> = coarse.iter().map(|s| s.value).collect();
        assert_eq!(values, vec![1.0, 4.0, 7.0]);
        assert_eq!(coarse[2].unix_ms, ms(8));
    }

    #[test]
    fn avg_over_respects_the_window_and_falls_back_to_coarse() {
        let ts = TimeSeries::with_geometry(4, 2, 8);
        let t0 = Instant::now();
        for i in 0..8u64 {
            ts.observe(
                t0 + Duration::from_secs(i * 10),
                ms(i * 10),
                &snap(&[], &[("g", (i * 10) as i64)], &[]),
                &[],
            );
        }
        // Fine ring holds seconds 40..=70. Trailing 15 s window at t=70:
        // samples at 60 and 70 (the cutoff is inclusive) → mean 65.
        let avg = ts.avg_over("g", Duration::from_secs(15), ms(70)).unwrap();
        assert!((avg - 65.0).abs() < 1e-9, "{avg}");
        // A window entirely before the fine ring's span (which holds
        // t=40..70) hits the coarse fallback: coarse points are means 5,
        // 25, 45, 65 stamped at t=10,30,50,70, and only the t=30 point
        // lands in the 10 s window ending at t=30.
        let avg = ts.avg_over("g", Duration::from_secs(10), ms(30)).unwrap();
        assert!((avg - 25.0).abs() < 1e-9, "{avg}");
        assert_eq!(
            ts.avg_over("missing", Duration::from_secs(60), ms(70)),
            None
        );
        // Huge window: averages everything in the fine ring.
        let avg = ts.avg_over("g", Duration::from_secs(3600), ms(70)).unwrap();
        assert!((avg - 55.0).abs() < 1e-9, "{avg}");
    }

    #[test]
    fn sampler_samples_then_stops_cleanly_without_partial_samples() {
        let registry: &'static Registry = Box::leak(Box::new(Registry::new()));
        registry.incr("sampler_test/ticks", 1);
        let ts = Arc::new(TimeSeries::new());
        let mut sampler = Sampler::builder(Duration::from_millis(5))
            .with_registry(registry)
            .spawn(ts.clone());
        let deadline = Instant::now() + Duration::from_secs(5);
        while sampler.samples_taken() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(sampler.samples_taken() >= 3, "sampler never ran");
        sampler.shutdown();
        let taken = sampler.samples_taken();
        // After shutdown the thread is joined: no further samples appear,
        // and every series length is consistent with the sample count (no
        // partial mid-period sample was taken during shutdown).
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(sampler.samples_taken(), taken);
        let fine = ts.samples("sampler_test/ticks", Window::Fine).unwrap();
        // Counter series: one point per sample after the first.
        assert_eq!(fine.len() as u64, taken - 1);
    }

    #[test]
    fn sampler_integrates_with_a_stopper() {
        let registry: &'static Registry = Box::leak(Box::new(Registry::new()));
        let server = crate::PoolServer::bind("127.0.0.1:0").unwrap();
        let stopper = server.stopper().unwrap();
        let ts = Arc::new(TimeSeries::new());
        let mut sampler = Sampler::builder(Duration::from_millis(5))
            .with_registry(registry)
            .with_stopper(stopper.clone())
            .spawn(ts);
        let deadline = Instant::now() + Duration::from_secs(5);
        while sampler.samples_taken() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        stopper.stop();
        // The sampler notices the external stop within one poll tick.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut settled = sampler.samples_taken();
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
            let now = sampler.samples_taken();
            if now == settled {
                break;
            }
            settled = now;
        }
        let at_stop = sampler.samples_taken();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(sampler.samples_taken(), at_stop, "kept sampling after stop");
        sampler.shutdown();
    }
}
