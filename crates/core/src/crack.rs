//! Index cracking (§3.3).
//!
//! "When any query executes the target labeler on a data record, TASTI can
//! cache the target labeler result. The records over which the target
//! labeler are executed can then be added as new cluster representatives."
//!
//! [`crack_from_labeler`] sweeps a metered labeler's cache after a query and
//! registers every newly labeled record as a representative; the min-k
//! distance columns are extended incrementally (`O(N·d)` per new
//! representative — "computationally efficient and trivially
//! parallelizable").

use crate::index::{CrackReport, TastiIndex};
use tasti_labeler::MeteredLabeler;

/// Adds every record the labeler has annotated (typically during a query)
/// that is not yet a representative. Returns how many representatives were
/// added.
///
/// Only the meter's bookkeeping (cache sweep) is touched, so any wrapped
/// labeler qualifies — including fallible ones mid-incident: cracking after
/// a degraded query absorbs exactly the labels that were actually paid for.
pub fn crack_from_labeler<L>(index: &mut TastiIndex, labeler: &MeteredLabeler<L>) -> usize {
    crack_from_labeler_audited(index, labeler).added
}

/// [`crack_from_labeler`] with the maintenance decision made visible: the
/// returned [`CrackReport`] says whether the batch escalated from
/// incremental min-k appends to a full assignment rebuild (serving
/// metrics surface the split as `crack_incremental` / `crack_rebuilds`).
pub fn crack_from_labeler_audited<L>(
    index: &mut TastiIndex,
    labeler: &MeteredLabeler<L>,
) -> CrackReport {
    let mut records = labeler.labeled_records();
    records.sort_unstable(); // deterministic insertion order
    let items = records
        .into_iter()
        .filter(|&rec| !index.is_rep(rec))
        .map(|rec| {
            let output = labeler
                .cached(rec)
                .expect("labeled_records returned an uncached record");
            (rec, output)
        });
    // One batched maintenance step: large indexes whose ANN router was
    // invalidated by the rep-set growth get it rebuilt once at the end
    // instead of degrading to exact appends (see TastiIndex::crack_batch).
    let items: Vec<_> = items.collect();
    index.crack_batch_audited(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_index;
    use crate::config::TastiConfig;
    use crate::scoring::{CountClass, ScoringFunction};
    use tasti_data::video::night_street;
    use tasti_data::{OracleLabeler, PretrainedEmbedder};
    use tasti_labeler::{ObjectClass, VideoCloseness};
    use tasti_nn::metrics::{mae, rho_squared};
    use tasti_nn::TripletConfig;

    fn setup() -> (
        tasti_data::Dataset,
        MeteredLabeler<OracleLabeler>,
        TastiIndex,
    ) {
        let preset = night_street(1000, 17);
        let dataset = preset.dataset;
        let labeler = MeteredLabeler::new(OracleLabeler::mask_rcnn(dataset.truth_handle()));
        let config = TastiConfig {
            n_train: 50,
            n_reps: 80,
            embedding_dim: 8,
            triplet: TripletConfig {
                steps: 120,
                batch_size: 16,
                margin: 0.3,
            },
            ..TastiConfig::default()
        };
        let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 3);
        let pretrained = pt.embed_all(&dataset.features);
        let (index, _) = build_index(
            &dataset.features,
            &pretrained,
            &labeler,
            &VideoCloseness::default(),
            &config,
        )
        .unwrap();
        (dataset, labeler, index)
    }

    #[test]
    fn cracking_adds_only_new_records() {
        let (_dataset, labeler, mut index) = setup();
        // Construction leaves training-point annotations in the cache that
        // were not selected as representatives; the first crack absorbs them.
        let absorbed = crack_from_labeler(&mut index, &labeler);
        assert!(absorbed > 0, "training annotations should be crackable");
        let reps_before = index.reps().len();
        // Nothing new labeled since → no-op.
        assert_eq!(crack_from_labeler(&mut index, &labeler), 0);
        // Simulate a query touching 30 fresh records.
        let fresh: Vec<usize> = (0..1000).filter(|r| !index.is_rep(*r)).take(30).collect();
        for &r in &fresh {
            let _ = labeler.label(r);
        }
        assert_eq!(crack_from_labeler(&mut index, &labeler), 30);
        assert_eq!(index.reps().len(), reps_before + 30);
        // Idempotent.
        assert_eq!(crack_from_labeler(&mut index, &labeler), 0);
    }

    #[test]
    fn cracking_improves_proxy_quality() {
        let (dataset, labeler, mut index) = setup();
        let score_fn = CountClass(ObjectClass::Car);
        let truth = dataset.true_scores(|o| score_fn.score(o));
        let before_scores = index.propagate(&score_fn);
        let before_mae = mae(&before_scores, &truth);
        let before_rho = rho_squared(&before_scores, &truth);
        // A query labels 200 additional spread-out records.
        for r in (0..1000).step_by(5) {
            let _ = labeler.label(r);
        }
        let added = crack_from_labeler(&mut index, &labeler);
        assert!(added > 100);
        let after_scores = index.propagate(&score_fn);
        let after_mae = mae(&after_scores, &truth);
        let after_rho = rho_squared(&after_scores, &truth);
        assert!(
            after_mae <= before_mae * 1.02,
            "cracking should not hurt MAE: {before_mae} → {after_mae}"
        );
        assert!(
            after_rho >= before_rho - 0.02,
            "cracking should not hurt ρ²: {before_rho} → {after_rho}"
        );
        // Cracked records now score exactly.
        for r in (0..1000).step_by(5) {
            assert_eq!(
                after_scores[r], truth[r],
                "record {r} should be exact after cracking"
            );
        }
    }

    #[test]
    fn cover_radius_monotonically_shrinks_under_cracking() {
        let (_dataset, labeler, mut index) = setup();
        let mut prev = index.cover_radius();
        for r in [3usize, 77, 401, 888] {
            if index.is_rep(r) {
                continue;
            }
            let _ = labeler.label(r);
            crack_from_labeler(&mut index, &labeler);
            let now = index.cover_radius();
            assert!(now <= prev + 1e-7, "cover radius grew: {prev} → {now}");
            prev = now;
        }
    }
}
