//! Output metrics: the *Estimator* component of the paper's Figure 3.
//!
//! "These latter samples are then aggregated by the Estimator to compute one
//! or more characteristics of interest (i.e., mean, standard deviation,
//! etc…) for the output distribution."
//!
//! [`OutputMetrics`] keeps both the closed-form moments and the raw sample
//! vector. Keeping samples buys arbitrary-threshold probabilities,
//! quantiles, exact histogram rebuilds, and — crucially for tests — the
//! ability to verify that the closed-form affine mapping of metrics equals
//! metrics of the mapped samples.
//!
//! ## Samples are shared, mapped views are lazy
//!
//! The sample buffer is reference-counted and copy-on-write. A reused point
//! costs a mapping, not a simulation (paper §3), and with shared samples it
//! costs no copy either: [`OutputMetrics::affine_image`] maps the moments in
//! closed form and returns a *view* holding the basis's buffer plus the map
//! `(a, b)`. The view's samples are `a * x + b`, computed on demand with the
//! same expression an eager map would use, so every sample, quantile,
//! probability and histogram is bit-identical to mapping eagerly. Only the
//! basis itself pays `n·8` bytes; each view pays a refcount.
//!
//! [`OutputMetrics::extend`] copies on write: a view (or a committed
//! sweep cell) stays pinned to the samples it was built from while its
//! basis is refined, and a mapped view is materialised before it grows.

use std::borrow::Cow;
use std::sync::Arc;

use jigsaw_prng::stats::{quantile, Histogram, Moments};

/// Summary of a query-output distribution at one parameter point.
///
/// Equality compares moments and element-wise samples, whether each side
/// holds its samples directly or as a mapped view.
#[derive(Debug, Clone)]
pub struct OutputMetrics {
    moments: Moments,
    /// The sample buffer, shared with every view built from it.
    samples: Arc<Vec<f64>>,
    /// `Some((a, b))`: this is the lazy image `a * x + b` of `samples`.
    map: Option<(f64, f64)>,
}

impl PartialEq for OutputMetrics {
    fn eq(&self, other: &Self) -> bool {
        self.moments == other.moments && self.n() == other.n() && self.iter().eq(other.iter())
    }
}

impl OutputMetrics {
    /// Build from i.i.d. samples of the output distribution.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        let moments = Moments::from_slice(&samples);
        OutputMetrics { moments, samples: Arc::new(samples), map: None }
    }

    /// Number of Monte Carlo samples summarized.
    pub fn n(&self) -> usize {
        self.samples.len()
    }

    /// The sample vector: borrowed when the samples are held directly,
    /// computed (one allocation) for a mapped view.
    pub fn samples(&self) -> Cow<'_, [f64]> {
        match self.map {
            None => Cow::Borrowed(self.samples.as_slice()),
            Some(_) => Cow::Owned(self.iter().collect()),
        }
    }

    /// The samples one by one, through the map of a view, without
    /// allocating.
    fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let map = self.map;
        self.samples.iter().map(move |x| match map {
            None => *x,
            Some((a, b)) => a * x + b,
        })
    }

    /// Streaming moments.
    pub fn moments(&self) -> &Moments {
        &self.moments
    }

    /// `EXPECT` — the sample mean.
    pub fn expectation(&self) -> f64 {
        self.moments.mean()
    }

    /// `EXPECT_STDDEV` — the sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.moments.sd()
    }

    /// Minimum observed value.
    pub fn min(&self) -> f64 {
        self.moments.min()
    }

    /// Maximum observed value.
    pub fn max(&self) -> f64 {
        self.moments.max()
    }

    /// Empirical `P(X > t)`.
    pub fn prob_over(&self, t: f64) -> f64 {
        if self.n() == 0 {
            return f64::NAN;
        }
        self.iter().filter(|&x| x > t).count() as f64 / self.n() as f64
    }

    /// Empirical `q`-quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.samples(), q)
    }

    /// Equi-width histogram of the samples.
    pub fn histogram(&self, bins: usize) -> Histogram {
        Histogram::from_data(&self.samples(), bins)
    }

    /// A CLT-style two-sided bound on the *true mean*: `mean ± z·sd/√n`.
    ///
    /// Returns `None` when no bound can be stated — zero samples (callers
    /// map this to a typed error; NaN must never cross the wire), or a NaN
    /// mean/sd. With exactly one sample the spread is unknowable, so the
    /// bound is the honest `(-∞, +∞)`. The interval is *not* clamped to the
    /// observed min/max: the sample range bounds the samples, not the mean.
    pub fn expectation_interval(&self, z: f64) -> Option<(f64, f64)> {
        let n = self.n();
        if n == 0 {
            return None;
        }
        let mean = self.moments.mean();
        if mean.is_nan() {
            return None;
        }
        if n == 1 {
            return Some((f64::NEG_INFINITY, f64::INFINITY));
        }
        let sd = self.moments.sd();
        if sd.is_nan() {
            return None;
        }
        let half = z * sd / (n as f64).sqrt();
        Some((mean - half, mean + half))
    }

    /// Add more samples (progressive refinement in the interactive mode).
    ///
    /// Copies on write: other holders of the sample buffer keep the samples
    /// they had. A mapped view is materialised first.
    pub fn extend(&mut self, more: &[f64]) {
        if self.map.is_some() {
            self.samples = Arc::new(self.iter().collect());
            self.map = None;
        }
        let samples = Arc::make_mut(&mut self.samples);
        for &x in more {
            self.moments.push(x);
            samples.push(x);
        }
    }

    /// The metrics of `a·X + b` — the paper's `M_est`, applied in closed
    /// form to the moments and lazily to the samples: the image shares this
    /// metrics' sample buffer and maps each sample when it is read. No model
    /// invocations and no sample copy are needed, which is the entire point
    /// of basis reuse. The image of a mapped view materialises the first map
    /// and maps the result, never composing the two maps (the composed form
    /// would round differently).
    pub fn affine_image(&self, a: f64, b: f64) -> OutputMetrics {
        let samples = match self.map {
            None => Arc::clone(&self.samples),
            Some(_) => Arc::new(self.iter().collect()),
        };
        OutputMetrics { moments: self.moments.affine_image(a, b), samples, map: Some((a, b)) }
    }
}

/// Which scalar metric of a column an optimization goal refers to
/// (`EXPECT overload`, `EXPECT_STDDEV demand`, …).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// Sample mean.
    Expect,
    /// Sample standard deviation.
    StdDev,
    /// `P(X > t)`.
    ProbOver(f64),
    /// Empirical quantile.
    Quantile(f64),
}

impl Metric {
    /// Extract the metric value.
    pub fn of(&self, m: &OutputMetrics) -> f64 {
        match self {
            Metric::Expect => m.expectation(),
            Metric::StdDev => m.std_dev(),
            Metric::ProbOver(t) => m.prob_over(*t),
            Metric::Quantile(q) => m.quantile(*q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> OutputMetrics {
        OutputMetrics::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0])
    }

    #[test]
    fn basic_metrics() {
        let m = metrics();
        assert_eq!(m.n(), 5);
        assert_eq!(m.expectation(), 3.0);
        assert!((m.std_dev() - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 5.0);
        assert_eq!(m.prob_over(3.0), 0.4);
        assert_eq!(m.quantile(0.5), 3.0);
    }

    #[test]
    fn affine_image_matches_recomputation() {
        let m = metrics();
        let t = m.affine_image(2.0, -1.0);
        let direct = OutputMetrics::from_samples(vec![1.0, 3.0, 5.0, 7.0, 9.0]);
        assert!((t.expectation() - direct.expectation()).abs() < 1e-12);
        assert!((t.std_dev() - direct.std_dev()).abs() < 1e-12);
        assert_eq!(t.samples(), direct.samples());
        assert_eq!(t.min(), direct.min());
    }

    #[test]
    fn affine_image_negative_scale() {
        let m = metrics();
        let t = m.affine_image(-1.0, 0.0);
        assert_eq!(t.min(), -5.0);
        assert_eq!(t.max(), -1.0);
        assert!((t.std_dev() - m.std_dev()).abs() < 1e-12);
    }

    #[test]
    fn extend_updates_all_views() {
        let mut m = metrics();
        m.extend(&[10.0]);
        assert_eq!(m.n(), 6);
        assert_eq!(m.max(), 10.0);
        assert!((m.expectation() - 25.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn metric_enum_dispatch() {
        let m = metrics();
        assert_eq!(Metric::Expect.of(&m), 3.0);
        assert_eq!(Metric::ProbOver(4.0).of(&m), 0.2);
        assert_eq!(Metric::Quantile(0.0).of(&m), 1.0);
        assert!((Metric::StdDev.of(&m) - m.std_dev()).abs() < 1e-12);
    }

    #[test]
    fn histogram_totals() {
        let m = metrics();
        let h = m.histogram(4);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn empty_prob_is_nan() {
        let m = OutputMetrics::from_samples(vec![]);
        assert!(m.prob_over(0.0).is_nan());
    }

    #[test]
    fn expectation_interval_empty_is_none() {
        let m = OutputMetrics::from_samples(vec![]);
        assert_eq!(m.expectation_interval(3.0), None);
    }

    #[test]
    fn expectation_interval_single_sample_is_unbounded() {
        let m = OutputMetrics::from_samples(vec![7.0]);
        let (lo, hi) = m.expectation_interval(3.0).unwrap();
        assert_eq!(lo, f64::NEG_INFINITY);
        assert_eq!(hi, f64::INFINITY);
    }

    #[test]
    fn expectation_interval_brackets_mean_and_shrinks() {
        let m = metrics();
        let (lo, hi) = m.expectation_interval(3.0).unwrap();
        assert!(lo < m.expectation() && m.expectation() < hi);
        let half = 3.0 * m.std_dev() / (m.n() as f64).sqrt();
        assert!((hi - lo - 2.0 * half).abs() < 1e-12);
        // More samples of the same distribution tighten the bound.
        let mut big = metrics();
        big.extend(&[1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let (blo, bhi) = big.expectation_interval(3.0).unwrap();
        assert!(bhi - blo < hi - lo);
    }

    #[test]
    fn expectation_interval_constant_samples_is_degenerate() {
        let m = OutputMetrics::from_samples(vec![4.0, 4.0, 4.0]);
        let (lo, hi) = m.expectation_interval(3.0).unwrap();
        assert_eq!(lo, 4.0);
        assert_eq!(hi, 4.0);
    }

    #[test]
    fn expectation_interval_nan_samples_is_none() {
        let m = OutputMetrics::from_samples(vec![1.0, f64::NAN]);
        assert_eq!(m.expectation_interval(3.0), None);
    }

    /// The image the lazy view replaces: closed-form moments, eagerly
    /// mapped samples.
    fn eager_image(m: &OutputMetrics, a: f64, b: f64) -> OutputMetrics {
        let samples = m.samples().iter().map(|x| a * x + b).collect();
        OutputMetrics {
            moments: m.moments.affine_image(a, b),
            samples: Arc::new(samples),
            map: None,
        }
    }

    /// Sample sets with signed zeros, NaN and ±∞, plus n = 0 and n = 1.
    fn sample_sets() -> Vec<Vec<f64>> {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        vec![
            vec![1.0, -2.5, 3.25, 0.0, -0.0, 1e300, -7.0, 0.1],
            vec![1.0, nan, -3.0, 2.0],
            vec![inf, 1.0, -inf, 2.5],
            vec![nan, inf, -inf, 0.5],
            vec![],
            vec![4.0],
        ]
    }

    /// α > 0, α < 0, α = 0, and the identity.
    const MAPS: [(f64, f64); 4] = [(2.0, -1.0), (-1.5, 0.25), (0.0, 3.0), (1.0, 0.0)];

    /// `f`'s result, or `None` where it panics (a quantile of NaN input, a
    /// histogram of an empty or unbounded range), so panics compare too.
    fn outcome<T>(f: impl FnOnce() -> T) -> Option<T> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn histogram_bits(h: &Histogram) -> Vec<u64> {
        let mut v = vec![h.bins() as u64, h.total(), h.underflow(), h.overflow()];
        for i in 0..h.bins() {
            let (lo, hi) = h.bin_bounds(i);
            v.extend([h.count(i), lo.to_bits(), hi.to_bits()]);
        }
        v
    }

    /// Every observable of `x` agrees with `y` bit for bit.
    fn assert_bit_identical(x: &OutputMetrics, y: &OutputMetrics, what: &str) {
        assert_eq!(x.n(), y.n(), "{what}: n");
        assert_eq!(bits(&x.samples()), bits(&y.samples()), "{what}: samples");
        for f in [
            OutputMetrics::expectation,
            OutputMetrics::std_dev,
            OutputMetrics::min,
            OutputMetrics::max,
        ] {
            assert_eq!(f(x).to_bits(), f(y).to_bits(), "{what}: moment");
        }
        let interval = |m: &OutputMetrics| {
            m.expectation_interval(3.0).map(|(l, h)| (l.to_bits(), h.to_bits()))
        };
        assert_eq!(interval(x), interval(y), "{what}: expectation_interval");
        for t in [f64::NEG_INFINITY, -1.0, 0.0, 2.0, f64::INFINITY, f64::NAN] {
            assert_eq!(
                x.prob_over(t).to_bits(),
                y.prob_over(t).to_bits(),
                "{what}: prob_over({t})"
            );
        }
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            let qx = outcome(|| x.quantile(q).to_bits());
            assert_eq!(qx, outcome(|| y.quantile(q).to_bits()), "{what}: quantile({q})");
        }
        for bins in [1, 3, 8] {
            let hx = outcome(|| histogram_bits(&x.histogram(bins)));
            assert_eq!(
                hx,
                outcome(|| histogram_bits(&y.histogram(bins))),
                "{what}: histogram({bins})"
            );
        }
    }

    #[test]
    fn view_is_bit_identical_to_the_eager_map() {
        for set in sample_sets() {
            let base = OutputMetrics::from_samples(set.clone());
            for (a, b) in MAPS {
                let view = base.affine_image(a, b);
                assert!(Arc::ptr_eq(&view.samples, &base.samples), "the view copies no samples");
                assert_bit_identical(
                    &view,
                    &eager_image(&base, a, b),
                    &format!("{set:?} ↦ {a}x+{b}"),
                );
            }
        }
    }

    #[test]
    fn view_equals_eager_map_without_nan() {
        let base = metrics();
        for (a, b) in MAPS {
            assert_eq!(base.affine_image(a, b), eager_image(&base, a, b));
        }
        assert_ne!(base.affine_image(2.0, 0.0), eager_image(&base, 2.0, 1.0));
    }

    #[test]
    fn image_of_a_view_equals_two_eager_maps() {
        for set in sample_sets() {
            let base = OutputMetrics::from_samples(set.clone());
            for (a1, b1) in MAPS {
                for (a2, b2) in MAPS {
                    let twice = base.affine_image(a1, b1).affine_image(a2, b2);
                    let eager = eager_image(&eager_image(&base, a1, b1), a2, b2);
                    let what = format!("{set:?} ↦ {a1}x+{b1} ↦ {a2}x+{b2}");
                    assert_bit_identical(&twice, &eager, &what);
                }
            }
        }
    }

    #[test]
    fn extend_on_a_view_equals_extend_on_its_eager_copy() {
        let more = [0.5, f64::NAN, -9.0];
        for set in sample_sets() {
            let base = OutputMetrics::from_samples(set.clone());
            for (a, b) in MAPS {
                let mut view = base.affine_image(a, b);
                let mut eager = eager_image(&base, a, b);
                view.extend(&more);
                eager.extend(&more);
                assert_bit_identical(&view, &eager, &format!("{set:?} ↦ {a}x+{b}, extended"));
                assert_eq!(base.n(), set.len(), "extending a view leaves its basis alone");
            }
        }
    }
}
