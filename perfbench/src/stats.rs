//! Order statistics over measured samples.

/// The median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `pct`
/// percent of the samples at or below it; `NaN` when empty.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The fastest of repeated timings; `NaN` when empty.
///
/// The 2-vCPU host this benchmark was sized on alternates between two
/// speeds about 35% apart, each lasting seconds, whatever runs on it. A
/// median over one run lands on whichever speed the run mostly saw; the
/// fastest repetition estimates the uncontended speed and repeats from
/// run to run.
pub fn best(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nanoseconds as seconds.
pub fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// A well-mixed 64-bit value derived from `(seed, i)` (splitmix64).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `0..n` in an order drawn from `seed` (Fisher-Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn best_is_the_minimum() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
        assert!(best(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn permutations_are_reproducible_and_complete() {
        let a = permutation(8, 3);
        assert_eq!(a, permutation(8, 3));
        assert_ne!(a, permutation(8, 4));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert_ne!(mix(1, 0), mix(1, 1));
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
