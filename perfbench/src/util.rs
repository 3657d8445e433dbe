//! Helpers shared by the workloads: a seeded PRNG, the Zipf and Poisson
//! generators that shape the load, percentile reporting, and the host
//! context every report carries.

use std::time::Duration;

/// SplitMix64: a small, fast, seedable generator. The benchmark's inputs
/// depend only on `--seed`, so it carries its own PRNG rather than a
/// dependency.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`; `salt` separates independent streams
    /// drawn from one benchmark seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) has no values");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }

    /// The gap to the next arrival of a Poisson process at `rate` per
    /// second (an exponential draw).
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.unit()).ln() / rate)
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Zipf popularity over `n` items: one seeded permutation ranks the items,
/// and each draw picks a rank from the Zipf distribution, so the same few
/// items stay popular for the whole run.
#[derive(Debug, Clone)]
pub struct Popularity {
    zipf: Zipf,
    perm: Vec<u32>,
    rng: Rng,
}

impl Popularity {
    /// Zipf(`s`) over items `0..n`, ranked by a permutation drawn from `rng`.
    pub fn new(n: usize, s: f64, mut rng: Rng) -> Popularity {
        Popularity {
            zipf: Zipf::new(n, s),
            perm: rng.permutation(n),
            rng,
        }
    }

    /// The next item.
    pub fn draw(&mut self) -> u32 {
        self.perm[self.zipf.sample(&mut self.rng)]
    }
}

/// The median of `samples` (the mean of the two middle values for an even
/// count). `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile of `samples`, refused unless at least
/// ten samples lie beyond it: a tail percentile read off fewer points is
/// one or two outliers, not a percentile.
pub fn tail_percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < 10 {
        return Err(format!(
            "p{} needs >= 10 samples beyond it; {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Ok(s[rank - 1])
}

/// The median over consecutive windows of `window` samples of each
/// window's `q`-quantile (a trailing partial window is dropped). One stall
/// inflates one window's tail, not the run's; each window must itself
/// leave ten samples beyond its quantile.
pub fn windowed_tail(samples: &[f64], window: usize, q: f64) -> Result<f64, String> {
    let tails = samples
        .chunks_exact(window)
        .map(|w| tail_percentile(w, q))
        .collect::<Result<Vec<f64>, String>>()?;
    median(&tails).ok_or_else(|| {
        format!(
            "no full window of {window} samples ({} samples)",
            samples.len()
        )
    })
}

/// The mean of `samples`, 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The least-squares slope of `y` against `x` (0 without spread in `x`).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB, 0 without
/// procfs.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") as f64 / 1024.0
}

fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| rest.trim().strip_suffix("kB"))
                .and_then(|n| n.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Cumulative steal ticks of all CPUs (`/proc/stat`), 0 without procfs.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The host facts a reader needs to recognise a slow run.
pub struct Host {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    steal_at_start: u64,
}

impl Host {
    /// Reads the host facts and the steal counter at the start of a run.
    pub fn probe() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            steal_at_start: steal_ticks(),
        }
    }

    /// Steal ticks accumulated since [`Host::probe`].
    pub fn steal_since_start(&self) -> u64 {
        steal_ticks().saturating_sub(self.steal_at_start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_frequencies_follow_the_power_law() {
        let n = 100;
        let zipf = Zipf::new(n, 1.0);
        let mut rng = Rng::new(7, 1);
        let draws = 200_000;
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let h: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        for r in [0usize, 1, 4, 9] {
            let expected = draws as f64 / ((r + 1) as f64 * h);
            let got = counts[r] as f64;
            assert!(
                (got - expected).abs() / expected < 0.05,
                "rank {r}: {got} draws, expected {expected:.0}"
            );
        }
        // Rank 0 is twice as popular as rank 1 under s = 1.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((ratio - 2.0).abs() < 0.1, "rank0/rank1 = {ratio}");
    }

    #[test]
    fn poisson_gaps_have_the_requested_mean_rate() {
        let mut rng = Rng::new(11, 2);
        let rate = 250.0;
        let n = 50_000;
        let total: f64 = (0..n).map(|_| rng.exp_gap(rate).as_secs_f64()).sum();
        let measured = n as f64 / total;
        assert!(
            (measured - rate).abs() / rate < 0.02,
            "measured {measured:.1}/s for requested {rate}/s"
        );
    }

    #[test]
    fn tail_percentile_refuses_thin_tails() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.99), Ok(990.0));
        assert!(tail_percentile(&samples[..999], 0.99).is_err());
        assert!(tail_percentile(&samples[..100], 0.99).is_err());
        assert!(tail_percentile(&[], 0.5).is_err());
        assert_eq!(tail_percentile(&samples[..20], 0.5), Ok(10.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // Three windows of 1000; one has a stall that fills its tail.
        let mut samples: Vec<f64> = Vec::new();
        for w in 0..3 {
            samples.extend((1..=1000).map(|i| f64::from(i) + if w == 1 { 1e6 } else { 0.0 }));
        }
        samples.extend([5e9; 10]); // partial window, dropped
        assert_eq!(windowed_tail(&samples, 1000, 0.99), Ok(990.0));
        assert!(windowed_tail(&samples[..999], 1000, 0.99).is_err());
        assert!(
            windowed_tail(&samples, 500, 0.99).is_err(),
            "500-sample windows are too thin for p99"
        );
    }

    #[test]
    fn popularity_keeps_one_ranking() {
        let mut pop = Popularity::new(1000, 1.0, Rng::new(5, 6));
        let head = pop.perm[0];
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(pop.draw()).or_insert(0usize) += 1;
        }
        let top = *counts.iter().max_by_key(|(d, c)| (**c, **d)).unwrap().0;
        assert_eq!(top, head, "the first-ranked item is drawn most");
        // Zipf(1) over 1000 ranks gives rank 0 about 1/H(1000) = 13% of
        // the draws, whenever they are made.
        let share = counts[&head] as f64 / 20_000.0;
        assert!((share - 0.134).abs() < 0.01, "head share {share}");
    }

    #[test]
    fn permutation_and_slope() {
        let mut rng = Rng::new(3, 4);
        let mut p = rng.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<u32>>());
        let line: Vec<(f64, f64)> = (0..10).map(|x| (x as f64, 3.0 * x as f64 + 1.0)).collect();
        assert!((slope(&line) - 3.0).abs() < 1e-12);
    }
}
