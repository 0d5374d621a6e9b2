//! Order statistics the benchmark reports: nearest-rank percentiles,
//! the "ten samples beyond" support rule, and per-slice medians.

/// Each timed phase is cut into this many equal slices; a rate or
/// percentile metric is the median of the per-slice values, so one
/// disturbed second moves the metric by at most one rank.
pub const SLICES: usize = 5;

/// A percentile is only as good as the tail behind it: the guide asks
/// for at least ten samples beyond the reported rank.
pub const SAMPLES_BEYOND: usize = 10;

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are finite"));
}

/// The nearest rank (1-based) of the `q`-quantile among `n` samples.
/// The small slack keeps `100 * 0.9` at rank 90, not 91.
fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `q`-quantile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// Whether `n` samples leave at least [`SAMPLES_BEYOND`] past the
/// `q`-quantile's rank.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= SAMPLES_BEYOND
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// One completed operation: when it finished (seconds from the phase
/// start) and how long it took.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub at_s: f64,
    pub latency_us: f64,
}

/// The samples of one timed phase of `duration_s` seconds.
pub struct Phase {
    pub duration_s: f64,
    pub samples: Vec<Sample>,
}

impl Phase {
    fn slices(&self) -> Vec<Vec<f64>> {
        let mut out = vec![Vec::new(); SLICES];
        let width = self.duration_s / SLICES as f64;
        for s in &self.samples {
            // Completions that land after the nominal end (a closed
            // loop finishing its last operation) belong to the last slice.
            let idx = ((s.at_s / width) as usize).min(SLICES - 1);
            out[idx].push(s.latency_us);
        }
        out
    }

    /// Completions per second: median of the per-slice rates. Each
    /// slice's clock runs from the last completion of the slice before
    /// to its own last completion, so an operation straddling a slice
    /// boundary does not quantise the rate of a slow closed loop.
    pub fn rate_per_s(&self) -> f64 {
        let width = self.duration_s / SLICES as f64;
        let mut count = [0usize; SLICES];
        let mut last = [0.0f64; SLICES];
        for s in &self.samples {
            let idx = ((s.at_s / width) as usize).min(SLICES - 1);
            count[idx] += 1;
            last[idx] = last[idx].max(s.at_s);
        }
        let mut rates = Vec::with_capacity(SLICES);
        let mut from = 0.0;
        for i in 0..SLICES {
            if count[i] == 0 {
                rates.push(0.0);
            } else {
                rates.push(count[i] as f64 / (last[i] - from));
                from = last[i];
            }
        }
        median(&rates)
    }

    /// Latency `q`-quantile and whether the support rule held. When
    /// every slice supports `q` the value is the median of the
    /// per-slice quantiles; otherwise the slices are too thin for that
    /// rank and the whole phase is one sample set.
    pub fn latency_us(&self, q: f64) -> (f64, bool) {
        let mut slices = self.slices();
        if slices.iter().all(|s| supported(s.len(), q)) {
            let per_slice: Vec<f64> = slices
                .iter_mut()
                .map(|s| {
                    sort(s);
                    percentile(s, q)
                })
                .collect();
            return (median(&per_slice), true);
        }
        let mut all: Vec<f64> = self.samples.iter().map(|s| s.latency_us).collect();
        sort(&mut all);
        (percentile(&all, q), supported(all.len(), q))
    }
}

/// Inter-quartile distance over the median: the spread the driver
/// compares with a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let (q1, q3) = (quartile(&v, 1), quartile(&v, 3));
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method) on
/// an ascending slice; `k` is 1 or 3.
fn quartile(sorted: &[f64], k: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = k as f64 * (n as f64 + 1.0) / 4.0;
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let frac = pos - j as f64;
    sorted[j - 1] + frac * (sorted[j] - sorted[j - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn support_needs_ten_samples_beyond_the_rank() {
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(100, 0.90));
        assert!(!supported(99, 0.90));
        assert!(supported(20, 0.50));
        assert!(!supported(19, 0.50));
    }

    #[test]
    fn medians_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn phase(per_slice: &[usize], latency: impl Fn(usize, usize) -> f64) -> Phase {
        let mut samples = Vec::new();
        for (slice, &n) in per_slice.iter().enumerate() {
            for i in 0..n {
                samples.push(Sample {
                    at_s: slice as f64 + (i as f64 + 0.5) / n as f64,
                    latency_us: latency(slice, i),
                });
            }
        }
        Phase {
            duration_s: per_slice.len() as f64,
            samples,
        }
    }

    #[test]
    fn one_disturbed_slice_does_not_move_the_slice_median() {
        // Slice 2 is stalled: a tenth of the completions, 50x latency.
        let p = phase(&[1000, 1000, 100, 1000, 1000], |slice, i| {
            if slice == 2 {
                5000.0
            } else {
                100.0 + (i % 10) as f64
            }
        });
        assert!((p.rate_per_s() - 1000.0).abs() < 1.0, "{}", p.rate_per_s());
        let (p50, ok) = p.latency_us(0.50);
        assert!(ok);
        assert!((100.0..110.0).contains(&p50), "{p50}");
    }

    #[test]
    fn thin_slices_fall_back_to_the_whole_phase() {
        // 400 per slice: p99 has 4 beyond per slice, 20 beyond overall.
        let p = phase(&[400; 5], |_, i| i as f64);
        let (p99, ok) = p.latency_us(0.99);
        assert!(ok);
        assert_eq!(p99, 395.0);
        // 100 per slice, 500 overall: p99 has only 5 beyond.
        let p = phase(&[100; 5], |_, i| i as f64);
        assert!(!p.latency_us(0.99).1);
        // A completion after the nominal end counts in the last slice.
        let mut p = phase(&[10; 5], |_, _| 1.0);
        p.samples.push(Sample {
            at_s: 5.2,
            latency_us: 1.0,
        });
        assert_eq!(p.slices()[4].len(), 11);
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
