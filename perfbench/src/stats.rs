//! The benchmark's own statistics: medians, quartiles, the tail-percentile
//! rule, derived ratios, and the metric-name check.

/// Median of `xs`: the middle value, or the mean of the middle two for an
/// even count. `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile of `xs`, computed like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so a spread printed here matches one computed from the same
/// values in Python. `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        // Python clamps `j` into 1..=n-1 so both neighbours exist.
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a bound in `BENCHMARK.json` has to cover.
pub fn spread_share(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let med = median(xs)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A uniform sample of a stream of values in constant memory: every
/// `stride`-th value is kept; when the buffer is full, every other kept
/// value is dropped and the stride doubles. The buffer is written in full
/// when it is made, so the memory it holds does not grow with the stream
/// and a faster program does not show a larger peak RSS.
pub struct Sample {
    buf: Vec<f64>,
    len: usize,
    stride: u64,
    seen: u64,
}

impl Sample {
    /// A sample keeping between `capacity / 2` and `capacity` values once
    /// that many have been seen; `capacity` must be even and positive.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0 && capacity.is_multiple_of(2),
            "capacity {capacity}"
        );
        Self {
            // Not zero: a zeroed allocation may stay unbacked until used.
            buf: vec![f64::NAN; capacity],
            len: 0,
            stride: 1,
            seen: 0,
        }
    }

    /// Offers the next value of the stream.
    pub fn push(&mut self, v: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.len == self.buf.len() {
                for i in 0..self.len / 2 {
                    self.buf[i] = self.buf[2 * i];
                }
                self.len /= 2;
                self.stride *= 2;
            }
            // With an even capacity, the value that fills the buffer's
            // last slot is followed by one at a multiple of the new stride.
            self.buf[self.len] = v;
            self.len += 1;
        }
        self.seen += 1;
    }

    /// The kept values, ascending.
    pub fn into_sorted(mut self) -> Vec<f64> {
        self.buf.truncate(self.len);
        self.buf.sort_by(f64::total_cmp);
        self.buf
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 1) of ascending `sorted`, with the
/// number of samples strictly beyond that rank.
pub fn percentile(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// Percentiles offered for a latency tail, lowest first.
const TAIL_PERCENTILES: [f64; 4] = [0.90, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// A reported tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction (0.99 for p99).
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Samples beyond it.
    pub beyond: usize,
}

/// `q`-th percentile of ascending `sorted` if at least [`MIN_BEYOND`]
/// samples lie beyond it; a percentile with fewer is noise, not a tail.
pub fn tail_at(sorted: &[f64], q: f64) -> Option<Tail> {
    percentile(sorted, q)
        .filter(|&(_, beyond)| beyond >= MIN_BEYOND)
        .map(|(value, beyond)| Tail { q, value, beyond })
}

/// The highest of [`TAIL_PERCENTILES`] that has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn highest_tail(sorted: &[f64]) -> Option<Tail> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .find_map(|&q| tail_at(sorted, q))
}

/// `num / den`, or 0 when nothing was attempted (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Hits over all lookups; 0 when there were none.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    ratio(hits as f64, (hits + misses) as f64)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&xs).unwrap();
        assert!(close(q1, 2.75) && close(q2, 5.5) && close(q3, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let [q1, q2, q3] = quartiles(&[2.0, 1.0]).unwrap();
        assert!(close(q1, 0.75) && close(q2, 1.5) && close(q3, 2.25));
        // statistics.quantiles([1, 3, 7, 15, 31], n=4) == [2.0, 7.0, 23.0]
        let [q1, q2, q3] = quartiles(&[31.0, 1.0, 7.0, 3.0, 15.0]).unwrap();
        assert!(close(q1, 2.0) && close(q2, 7.0) && close(q3, 23.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_share_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread_share(&xs).unwrap(), (8.25 - 2.75) / 5.5));
        assert_eq!(spread_share(&[7.0; 10]), Some(0.0));
        assert_eq!(spread_share(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank_with_count_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some((50.0, 50)));
        assert_eq!(percentile(&xs, 0.99), Some((99.0, 1)));
        assert_eq!(percentile(&xs, 1.0), Some((100.0, 0)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = highest_tail(&xs).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (0.99, 990.0, 10));
        assert_eq!(tail_at(&xs, 0.999), None);
        // 100 samples: only p90 qualifies.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = highest_tail(&xs).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (0.90, 90.0, 10));
        // 10 samples: nothing has ten beyond it.
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(highest_tail(&xs), None);
        // 100_000 samples: p99.99 has exactly ten beyond.
        let xs: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(highest_tail(&xs).unwrap().q, 0.9999);
    }

    #[test]
    fn ratios_guard_empty_denominators() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(hit_ratio(3, 1), 0.75);
        assert_eq!(hit_ratio(0, 0), 0.0);
    }

    #[test]
    fn sample_keeps_every_stride_th_value_in_constant_memory() {
        let mut s = Sample::new(8);
        for v in 0..8 {
            s.push(f64::from(v));
        }
        assert_eq!(s.stride, 1);
        s.push(8.0);
        assert_eq!((s.stride, s.len), (2, 5));
        for v in 9..100 {
            s.push(f64::from(v));
        }
        let stride = s.stride;
        assert_eq!(stride, 16);
        assert_eq!(s.buf.capacity(), 8);
        let kept = s.into_sorted();
        let want: Vec<f64> = (0..100).step_by(16).map(f64::from).collect();
        assert_eq!(kept, want);
    }

    #[test]
    fn metric_names() {
        for ok in [
            "setup_s",
            "cpu_ms_per_op",
            "subsume.theta_s",
            "a-b.c_9",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "with space",
            "ünï",
            "a/b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
