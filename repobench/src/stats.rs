//! Order statistics for the benchmark's samples.
//!
//! The quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (its default "exclusive" method), so a spread printed here is the one
//! an outside check computes from the same values.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sorts a copy of `values` ascending (NaN-free input assumed; NaNs sort
/// last so they never pose as a fast sample).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median as Python's `statistics.median` defines it: the middle
/// value, or the mean of the two middle values. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles as `statistics.quantiles(values, n=4)`
/// returns them. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0 or there are too few values).
pub fn relative_spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(med)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// A tail percentile that has at least [`TAIL_BEYOND`] samples strictly
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `(0, 100]`.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// The nearest-rank percentile `want` (e.g. 99.0) of `values` when at
/// least ten samples lie beyond it; otherwise the highest lower
/// percentile that still has ten beyond it. `None` when even the lowest
/// sample has fewer than ten beyond it (fewer than 11 samples).
pub fn tail(values: &[f64], want: f64) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    // Nearest rank (1-based): the smallest k with k / n >= want / 100.
    // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
    let wanted_rank = (want * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize;
    let rank = wanted_rank.min(n - TAIL_BEYOND);
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    })
}

/// Samples a block needs for its p99 to have ten samples beyond it.
pub const BLOCK_SAMPLES: usize = 1000;

/// The median over blocks of each block's [`tail`]. Consecutive rounds
/// are grouped into blocks of at least [`BLOCK_SAMPLES`] samples (a short
/// last group joins the block before it), so one slow stretch of a run
/// moves one block's tail instead of the whole run's. With fewer samples
/// than one block, this is the [`tail`] of all of them. The percentile
/// reported is the lowest any block used.
pub fn block_tail(rounds: &[&[f64]], want: f64) -> Option<Tail> {
    let mut blocks: Vec<Vec<f64>> = Vec::new();
    let mut current: Vec<f64> = Vec::new();
    for round in rounds {
        current.extend_from_slice(round);
        if current.len() >= BLOCK_SAMPLES {
            blocks.push(std::mem::take(&mut current));
        }
    }
    match blocks.last_mut() {
        Some(last) => last.extend(current),
        None => blocks.push(current),
    }
    let tails: Vec<Tail> = blocks.iter().filter_map(|b| tail(b, want)).collect();
    if tails.len() != blocks.len() {
        return None;
    }
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Tail {
        percentile: tails.iter().map(|t| t.percentile).fold(want, f64::min),
        value: median(&values)?,
        samples: blocks.iter().map(Vec::len).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_reports_p99_only_with_ten_samples_beyond() {
        // 1000 samples: rank 990 leaves exactly ten beyond.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand, 99.0).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(thousand.iter().filter(|&&x| x > t.value).count(), 10);

        // 500 samples: p99 would leave five beyond, so the tail steps
        // down to rank 490 (p98).
        let five_hundred: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&five_hundred, 99.0).unwrap();
        assert_eq!(t.value, 490.0);
        assert!((t.percentile - 98.0).abs() < 1e-12);
        assert_eq!(t.samples, 500);

        // Ten samples cannot have ten beyond any of them.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten, 99.0), None);
        assert_eq!(tail(&[], 99.0), None);
    }

    #[test]
    fn block_tail_takes_the_median_block() {
        // Three 1000-sample rounds whose p99s are 990, 1990 and 2990 (the
        // middle one shifted by 1000, the last by 2000).
        let rounds: Vec<Vec<f64>> = (0..3)
            .map(|k| (1..=1000).map(|x| f64::from(x + 1000 * k)).collect())
            .collect();
        let refs: Vec<&[f64]> = rounds.iter().map(Vec::as_slice).collect();
        let t = block_tail(&refs, 99.0).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (1990.0, 99.0, 3000));

        // Small rounds group into blocks; a short remainder joins the last
        // block, so 2500 samples make two blocks (1000 and 1500).
        let small: Vec<Vec<f64>> = (0..25)
            .map(|k| (0..100).map(|x| f64::from(k * 100 + x)).collect())
            .collect();
        let refs: Vec<&[f64]> = small.iter().map(Vec::as_slice).collect();
        let t = block_tail(&refs, 99.0).unwrap();
        assert_eq!(t.samples, 2500);
        // Block p99s: 989 (rank 990 of 0..=999) and 2484 (rank 1485 of
        // 1000..=2499); their median is the mean of the two.
        assert_eq!(t.value, (989.0 + 2484.0) / 2.0);

        // Fewer samples than a block: the single block's lower tail.
        let t = block_tail(&[&[1.0; 50]], 99.0).unwrap();
        assert!((t.percentile - 80.0).abs() < 1e-12);
        assert_eq!(block_tail(&[&[1.0; 5]], 99.0), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=2000).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v, 99.0).unwrap().value, 1980.0);
    }
}
