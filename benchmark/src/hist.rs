//! A log-linear histogram of non-negative integer samples (nanoseconds).
//!
//! Values below 256 get a bucket each; above that every power of two is cut
//! into 128 equal buckets, so a bucket is never wider than 1/128 (0.8 %) of
//! the values it holds. Quantiles are interpolated inside the bucket they fall
//! into, so a reported percentile moves with the counts instead of jumping
//! between bucket edges.

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are their own bucket.
const LINEAR: u64 = 2 * SUB;
const BUCKETS: usize = (LINEAR + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

fn bucket_of(value: u64) -> usize {
    if value < LINEAR {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros();
    let shift = octave - SUB_BITS;
    let top = value >> shift; // in [SUB, 2 * SUB)
    (LINEAR + u64::from(octave - SUB_BITS - 1) * SUB + (top - SUB)) as usize
}

/// Lowest value and width of a bucket.
fn bucket_range(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < LINEAR {
        return (index, 1);
    }
    let octave = (index - LINEAR) / SUB + u64::from(SUB_BITS) + 1;
    let shift = octave - u64::from(SUB_BITS);
    let top = SUB + (index - LINEAR) % SUB;
    (top << shift, 1 << shift)
}

impl Histogram {
    pub fn new() -> Self {
        Histogram { counts: vec![0; BUCKETS], total: 0 }
    }

    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    pub fn record_n(&mut self, value: u64, n: u64) {
        self.counts[bucket_of(value)] += n;
        self.total += n;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of the recorded samples, with the
    /// rank convention of a sorted vector indexed at `q * (len - 1)`. Returns
    /// 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut before = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if rank < (before + count) as f64 {
                let (low, width) = bucket_range(index);
                let inside = (rank - before as f64 + 0.5) / count as f64;
                return low as f64 + (width - 1) as f64 * inside.min(1.0);
            }
            before += count;
        }
        let (low, width) = bucket_range(BUCKETS - 1);
        (low + width - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deterministic generator, so the test needs no crate.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn oracle(sorted: &[u64], q: f64) -> f64 {
        sorted[(q * (sorted.len() - 1) as f64) as usize] as f64
    }

    #[test]
    fn buckets_tile_the_value_range_without_gaps() {
        let mut expected_low = 0u64;
        for index in 0..BUCKETS {
            let (low, width) = bucket_range(index);
            assert_eq!(low, expected_low, "bucket {index}");
            assert_eq!(bucket_of(low), index);
            assert_eq!(bucket_of(low + (width - 1)), index);
            expected_low = low.wrapping_add(width);
        }
        assert_eq!(expected_low, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn percentiles_stay_within_one_percent_of_a_sorted_vector() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        // Latencies spread over six decades, as an overloaded run produces.
        let mut samples: Vec<u64> = (0..200_000)
            .map(|_| {
                let magnitude = xorshift(&mut state) % 6;
                1_000 * 10u64.pow(magnitude as u32) + xorshift(&mut state) % 1_000_000
            })
            .collect();
        let mut hist = Histogram::new();
        for &sample in &samples {
            hist.record(sample);
        }
        samples.sort_unstable();
        assert_eq!(hist.len(), samples.len() as u64);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = oracle(&samples, q);
            let got = hist.quantile(q);
            assert!((got - exact).abs() <= exact * 0.01 + 1.0, "q={q}: {got} against {exact}");
        }
    }

    #[test]
    fn events_never_released_count_as_samples_at_their_lower_bound() {
        // 900 events decided after 1..=900 us; 100 never released and still
        // waiting 1 s and more when the generator stopped, added in blocks.
        let mut hist = Histogram::new();
        let mut all = Vec::new();
        for i in 1..=900u64 {
            hist.record(i * 1_000);
            all.push(i * 1_000);
        }
        for block in 0..10u64 {
            let waited = 1_000_000_000 + block * 1_000_000;
            hist.record_n(waited, 10);
            all.extend(std::iter::repeat_n(waited, 10));
        }
        all.sort_unstable();
        assert_eq!(hist.len(), 1_000);
        for q in [0.5, 0.89, 0.95, 0.99] {
            let exact = oracle(&all, q);
            let got = hist.quantile(q);
            assert!((got - exact).abs() <= exact * 0.01, "q={q}: {got} against {exact}");
        }
        assert!(hist.quantile(0.99) >= 1_000_000_000.0 * 0.99);
    }

    #[test]
    fn merging_equals_recording_into_one_histogram() {
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for value in 0..5_000u64 {
            let target = if value % 3 == 0 { &mut a } else { &mut b };
            target.record(value * 977);
            both.record(value * 977);
        }
        a.merge(&b);
        assert_eq!(a.len(), both.len());
        assert_eq!(a.quantile(0.5), both.quantile(0.5));
        assert_eq!(a.quantile(0.99), both.quantile(0.99));
    }
}
