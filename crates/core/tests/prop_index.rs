//! Property tests for the candidate indexes: completeness over the affine
//! mapping family (the paper's requirement that "the set of fingerprints
//! returned by the index must contain all similar fingerprints").

use std::sync::Arc;

use jigsaw_core::basis::BasisStore;
use jigsaw_core::{AffineFamily, AffineMap, Fingerprint, IndexStrategy};
use jigsaw_pdb::OutputMetrics;
use proptest::prelude::*;

fn fp_strategy() -> impl Strategy<Value = Vec<f64>> {
    // At least two distinct entries so the fingerprint is non-degenerate;
    // magnitudes kept moderate so quantization effects stay representative.
    proptest::collection::vec(-1000.0f64..1000.0, 4..12)
        .prop_filter("needs distinct entries", |v| v.iter().any(|&x| (x - v[0]).abs() > 1e-6))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any affine image of a stored fingerprint must be found again by
    /// every index strategy (no false negatives within the family).
    #[test]
    fn affine_images_are_always_found(
        base in fp_strategy(),
        alpha in prop_oneof![-50.0f64..-0.01, 0.01f64..50.0],
        beta in -100.0f64..100.0,
        strat_pick in 0usize..3,
    ) {
        let strat = [IndexStrategy::Array, IndexStrategy::Normalization, IndexStrategy::SortedSid][strat_pick];
        let mut store = BasisStore::with_strategy(strat, 1e-9, Arc::new(AffineFamily));
        let fp = Fingerprint::new(base.clone());
        let id = store.insert(fp.clone(), OutputMetrics::from_samples(base.clone()));
        let image = AffineMap::new(alpha, beta).apply_fingerprint(&fp);
        let hit = store.find_match(&image);
        prop_assert!(hit.is_some(), "{strat:?} missed an affine image (α={alpha}, β={beta})");
        let (found, map) = hit.unwrap();
        prop_assert_eq!(found, id);
        // The recovered mapping must reproduce the image from the basis.
        for (&x, &y) in base.iter().zip(image.entries()) {
            prop_assert!((map.apply(x) - y).abs() <= 1e-6 * y.abs().max(1.0));
        }
    }

    /// The recovered mapping transports metrics exactly: resolving through
    /// the store equals computing metrics on the mapped samples directly.
    #[test]
    fn resolved_metrics_match_direct_computation(
        base in fp_strategy(),
        alpha in prop_oneof![-20.0f64..-0.1, 0.1f64..20.0],
        beta in -50.0f64..50.0,
    ) {
        let mut store =
            BasisStore::with_strategy(IndexStrategy::Normalization, 1e-9, Arc::new(AffineFamily));
        let samples: Vec<f64> = base.iter().map(|x| x * 1.5).collect();
        store.insert(Fingerprint::new(base.clone()), OutputMetrics::from_samples(samples.clone()));
        let image = AffineMap::new(alpha, beta).apply_fingerprint(&Fingerprint::new(base));
        let (id, map) = store.find_match(&image).expect("hit");
        let metrics = store.mapped(id, map);
        let direct = OutputMetrics::from_samples(
            samples.iter().map(|x| alpha * x + beta).collect(),
        );
        prop_assert!((metrics.expectation() - direct.expectation()).abs()
            <= 1e-6 * direct.expectation().abs().max(1.0));
        prop_assert!((metrics.std_dev() - direct.std_dev()).abs()
            <= 1e-6 * direct.std_dev().abs().max(1.0));
    }

    /// Identity round trip: a fingerprint always matches itself with the
    /// identity mapping, under every strategy.
    #[test]
    fn self_match_is_identity(base in fp_strategy(), strat_pick in 0usize..3) {
        let strat = [IndexStrategy::Array, IndexStrategy::Normalization, IndexStrategy::SortedSid][strat_pick];
        let mut store = BasisStore::with_strategy(strat, 1e-9, Arc::new(AffineFamily));
        let fp = Fingerprint::new(base.clone());
        store.insert(fp.clone(), OutputMetrics::from_samples(base));
        let (_, map) = store.find_match(&fp).expect("self match");
        prop_assert!(map.is_identity(1e-9));
    }
}
