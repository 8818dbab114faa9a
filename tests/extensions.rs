//! Integration tests for the beyond-the-paper features: persistence,
//! streaming ingest, diagnostics, predicate aggregation, precision-target
//! SUPG, and finite-population-corrected aggregation — all exercised
//! through the public facade on a real pipeline.

use tasti::index::{diagnostics, persist};
use tasti::prelude::*;
use tasti::query::{
    predicate_aggregate, supg_precision_target, PredicateAggConfig, SupgPrecisionConfig,
};
use tasti_nn::TripletConfig;

fn build_taipei(n: usize, seed: u64) -> (tasti::data::Dataset, TastiIndex) {
    let video = tasti::data::video::taipei(n, seed);
    let dataset = video.dataset;
    let labeler = MeteredLabeler::new(OracleLabeler::mask_rcnn(dataset.truth_handle()));
    let config = TastiConfig {
        n_train: 200,
        n_reps: 350,
        embedding_dim: 16,
        triplet: TripletConfig {
            steps: 200,
            batch_size: 24,
            margin: 0.3,
        },
        seed,
        ..TastiConfig::default()
    };
    let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, seed ^ 2);
    let pretrained = pt.embed_all(&dataset.features);
    let (index, _) = build_index(
        &dataset.features,
        &pretrained,
        &labeler,
        &VideoCloseness::default(),
        &config,
    )
    .unwrap();
    (dataset, index)
}

#[test]
fn persistence_round_trip_preserves_everything_observable() {
    let (_, index) = build_taipei(2_000, 61);
    let restored = persist::from_json(&persist::to_json(&index)).unwrap();
    let score = CountClass(ObjectClass::Car);
    assert_eq!(restored.propagate(&score), index.propagate(&score));
    assert_eq!(restored.limit_ranking(&score), index.limit_ranking(&score));
    assert_eq!(restored.cover_radius(), index.cover_radius());
    // The trained model survives, so the restored index can ingest.
    assert!(restored.model().is_some());
}

#[test]
fn predicate_aggregation_answers_conditional_queries() {
    // "Average cars per frame among frames containing a bus."
    let (dataset, index) = build_taipei(3_000, 62);
    let bus_proxy = index.propagate(&HasClass(ObjectClass::Bus));
    let res = predicate_aggregate(
        &bus_proxy,
        &mut |r| {
            let out = dataset.ground_truth(r);
            (out.count_class(ObjectClass::Bus) > 0)
                .then(|| out.count_class(ObjectClass::Car) as f64)
        },
        &PredicateAggConfig {
            budget: 600,
            ..Default::default()
        },
    );
    // Ground truth for comparison.
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..dataset.len() {
        let out = dataset.ground_truth(i);
        if out.count_class(ObjectClass::Bus) > 0 {
            sum += out.count_class(ObjectClass::Car) as f64;
            count += 1;
        }
    }
    let truth = sum / count.max(1) as f64;
    assert!(
        res.matches_sampled > 20,
        "importance sampling should hit bus frames"
    );
    assert!(
        (res.estimate - truth).abs() <= (3.0 * res.ci_half_width).max(0.4),
        "estimate {} vs truth {truth} (ci {})",
        res.estimate,
        res.ci_half_width
    );
}

#[test]
fn precision_target_supg_controls_false_positives() {
    let (dataset, index) = build_taipei(3_000, 63);
    let predicate = HasClass(ObjectClass::Bus);
    let proxy = index.propagate(&predicate);
    let truth: Vec<bool> = dataset
        .true_scores(|o| predicate.score(o))
        .iter()
        .map(|&v| v >= 0.5)
        .collect();
    let res = supg_precision_target(
        &proxy,
        &mut |r| truth[r],
        &SupgPrecisionConfig {
            precision_target: 0.8,
            budget: 500,
            ..Default::default()
        },
    );
    if !res.returned.is_empty() {
        let tp = res.returned.iter().filter(|&&i| truth[i]).count();
        let precision = tp as f64 / res.returned.len() as f64;
        assert!(
            precision >= 0.65,
            "achieved precision {precision} far below the 0.8 target"
        );
    }
    assert!(res.oracle_calls <= 500);
}

#[test]
fn diagnostics_work_through_the_facade() {
    let (_, index) = build_taipei(2_000, 64);
    let stats = diagnostics::index_stats(&index);
    assert_eq!(stats.n_records, 2_000);
    assert!(stats.active_rep_fraction > 0.3);
    let q = diagnostics::loo_quality(&index, &CountClass(ObjectClass::Car));
    assert!(
        q.rho_squared > 0.1,
        "LOO diagnostic uninformative: {}",
        q.rho_squared
    );
}

#[test]
fn fpc_aggregation_works_on_index_proxies() {
    let (dataset, index) = build_taipei(2_000, 65);
    let score = CountClass(ObjectClass::Car);
    let proxy = index.propagate(&score);
    let truth = dataset.true_scores(|o| score.score(o));
    let mu = truth.iter().sum::<f64>() / truth.len() as f64;
    let res = ebs_aggregate(
        &proxy,
        &mut |r| truth[r],
        &AggregationConfig {
            error_target: 0.1,
            stopping: StoppingRule::Clt,
            finite_population_correction: true,
            ..Default::default()
        },
    );
    assert!(
        (res.estimate - mu).abs() <= 0.12,
        "estimate {} vs {mu}",
        res.estimate
    );
}

#[test]
fn streaming_then_cracking_then_querying_composes() {
    // The full production loop: build on a prefix, stream the suffix in,
    // run a query, crack its labels, verify the cracked stream records
    // score exactly.
    let video = tasti::data::video::taipei(2_400, 66);
    let full = video.dataset;
    let prefix_rows: Vec<usize> = (0..2_000).collect();
    let prefix = tasti::data::Dataset::new(
        "taipei-prefix",
        full.features.select_rows(&prefix_rows),
        (0..2_000).map(|i| full.ground_truth(i).clone()).collect(),
        full.schema.clone(),
    );
    let labeler = MeteredLabeler::new(OracleLabeler::mask_rcnn(prefix.truth_handle()));
    let config = TastiConfig {
        n_train: 150,
        n_reps: 300,
        embedding_dim: 16,
        triplet: TripletConfig {
            steps: 150,
            batch_size: 24,
            margin: 0.3,
        },
        seed: 66,
        ..TastiConfig::default()
    };
    let mut pt = PretrainedEmbedder::new(prefix.feature_dim(), config.embedding_dim, 8);
    let pretrained = pt.embed_all(&prefix.features);
    let (mut index, _) = build_index(
        &prefix.features,
        &pretrained,
        &labeler,
        &VideoCloseness::default(),
        &config,
    )
    .unwrap();

    let stream_rows: Vec<usize> = (2_000..2_400).collect();
    let range = index.append_records(&full.features.select_rows(&stream_rows));
    assert_eq!(range, 2_000..2_400);

    // Crack three streamed records with their labeler outputs.
    for r in [2_005usize, 2_100, 2_399] {
        assert!(index.crack(r, full.ground_truth(r).clone()));
    }
    let score = CountClass(ObjectClass::Car);
    let proxy = index.propagate(&score);
    for r in [2_005usize, 2_100, 2_399] {
        assert_eq!(proxy[r], score.score(full.ground_truth(r)));
    }
}
