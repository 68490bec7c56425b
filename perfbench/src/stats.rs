//! How every timing is summarized: the median plus the highest ladder
//! percentile with at least ten samples beyond it. The end-to-end op
//! timings take both per window of the run and report the median window.

use jigsaw_prng::stats::quantile;

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// A latency distribution summarized the way every timing is reported: the
/// median plus the highest ladder percentile with at least ten samples
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile that was reported (e.g. 99.9).
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
    /// Windows the median was taken over (1 for [`summarize`]).
    pub p50_windows: usize,
    /// Windows the tail was taken over (1 for [`summarize`]).
    pub tail_windows: usize,
}

/// Summarize samples; `None` when there are none.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let n = xs.len();
    let tail_pct = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|p| n as f64 * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9)
        .unwrap_or(50.0);
    Some(Summary {
        n,
        p50: quantile(xs, 0.5),
        tail_pct,
        tail: quantile(xs, tail_pct / 100.0),
        p50_windows: 1,
        tail_windows: 1,
    })
}

/// Most windows [`summarize_windows`] splits a run into.
pub const MAX_WINDOWS: usize = 5;

/// Summarize samples taken in time order so that a slow spell of the host
/// covering less than half of the run does not move the result. For the
/// median and for the whole run's tail percentile alike: split the samples
/// into consecutive windows of equal count, as many (up to
/// [`MAX_WINDOWS`]) as leave ten samples beyond that percentile in each,
/// take the percentile per window, and report the median window.
pub fn summarize_windows(xs: &[f64]) -> Option<Summary> {
    let whole = summarize(xs)?;
    let n = whole.n;
    let median_window = |pct: f64| {
        let beyond = n as f64 * (100.0 - pct) / 100.0;
        let k = ((beyond / TAIL_MIN_BEYOND + 1e-9) as usize).clamp(1, MAX_WINDOWS);
        let per_window: Vec<f64> =
            (0..k).map(|i| quantile(&xs[i * n / k..(i + 1) * n / k], pct / 100.0)).collect();
        (quantile(&per_window, 0.5), k)
    };
    let (p50, p50_windows) = median_window(50.0);
    let (tail, tail_windows) = median_window(whole.tail_pct);
    Some(Summary { p50, tail, p50_windows, tail_windows, ..whole })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(summarize(&xs).unwrap().tail_pct, 90.0);
        let xs: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(summarize(&xs).unwrap().tail_pct, 50.0);
        let xs: Vec<f64> = (0..20_000).map(f64::from).collect();
        assert_eq!(summarize(&xs).unwrap().tail_pct, 99.9);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn windows_keep_ten_beyond_and_ride_out_a_slow_spell() {
        // 1000 samples: tail p99 (10 beyond) fits one window; p90 for 600.
        let flat: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        let s = summarize_windows(&flat).unwrap();
        assert_eq!((s.tail_pct, s.p50_windows, s.tail_windows), (99.0, 5, 1));
        let s = summarize_windows(&flat[..400]).unwrap();
        assert_eq!((s.tail_pct, s.p50_windows, s.tail_windows), (90.0, 5, 4));
        // A spell that doubles the last fifth of a run moves the whole-run
        // median but not the median window.
        let mut spell: Vec<f64> = (0..600).map(|i| 100.0 + f64::from(i % 10)).collect();
        spell[480..].iter_mut().for_each(|x| *x *= 2.0);
        let (whole, win) = (summarize(&spell).unwrap(), summarize_windows(&spell).unwrap());
        assert!(whole.tail > 200.0, "{whole:?}");
        assert!(win.tail < 110.0 && win.p50 < 110.0, "{win:?}");
        assert_eq!(win.n, 600);
        assert!(summarize_windows(&[]).is_none());
    }
}
