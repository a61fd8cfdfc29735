//! Order statistics, the latency histogram, the seeded shuffle and the
//! peak-RSS probe.

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `v` ascending and returns its median.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(v, 0.5)
}

/// Mantissa bits of the log-linear histogram: 64 buckets per power of two,
/// so a bucket spans at most 1/64 (1.6%) of its lower bound.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB as usize;

/// Fixed log-linear histogram of nanosecond latencies: recording is one
/// index computation and one increment, with no allocation after `new`.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < 2 * SUB {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        (((shift as u64 + 1) << SUB_BITS) + ((ns >> shift) & (SUB - 1))) as usize
    }

    /// `[lower, lower + width)` of bucket `idx`.
    fn bounds(idx: usize) -> (f64, f64) {
        let idx = idx as u64;
        if idx < 2 * SUB {
            return (idx as f64, 1.0);
        }
        let shift = (idx >> SUB_BITS) - 1;
        let mantissa = (idx & (SUB - 1)) | SUB;
        ((mantissa << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside the
    /// bucket that holds it.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!(self.total > 0, "quantile of an empty histogram");
        let target = q * self.total as f64;
        let mut below = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= target {
                let (lower, width) = Self::bounds(idx);
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return lower + frac * width;
            }
            below += c;
        }
        self.max_ns as f64
    }
}

/// splitmix64: the seeded generator behind every benchmark input that
/// depends on `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by [`splitmix64`].
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..v.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Restarts this process's peak-RSS mark at its current resident set
/// (`clear_refs` mode 5), so the next [`peak_rss_mb`] covers only what ran
/// in between.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset peak RSS via /proc/self/clear_refs");
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_tight() {
        let mut prev_end = 0.0;
        for idx in 0..BUCKETS - 1 {
            let (lower, width) = Histogram::bounds(idx);
            assert_eq!(lower, prev_end, "gap before bucket {idx}");
            assert!(
                width <= (lower / SUB as f64).max(1.0),
                "bucket {idx} too wide"
            );
            prev_end = lower + width;
        }
        for ns in [0u64, 1, 127, 128, 1_270, 10_300, 1 << 40] {
            let (lower, width) = Histogram::bounds(Histogram::index(ns));
            assert!(lower <= ns as f64 && (ns as f64) < lower + width);
        }
    }

    #[test]
    fn histogram_quantiles_track_exact_ones() {
        let mut h = Histogram::new();
        let mut exact = Vec::new();
        let mut s = 7u64;
        for _ in 0..100_000 {
            let ns = 500 + splitmix64(&mut s) % 20_000;
            h.record(ns);
            exact.push(ns as f64);
        }
        exact.sort_by(f64::total_cmp);
        for q in [0.5, 0.9, 0.99] {
            let want = quantile(&exact, q);
            let got = h.quantile_ns(q);
            assert!((got - want).abs() / want < 0.02, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn shuffle_is_seeded() {
        let base: Vec<u32> = (0..100).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        shuffle(&mut a, 1);
        shuffle(&mut b, 1);
        shuffle(&mut c, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, base);
    }
}
