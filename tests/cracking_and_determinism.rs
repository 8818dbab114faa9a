//! Integration tests for cracking workflows and whole-stack determinism.

use tasti::prelude::*;
use tasti_nn::metrics::rho_squared;
use tasti_nn::TripletConfig;

fn build_night_street(
    n: usize,
    seed: u64,
) -> (
    tasti::data::Dataset,
    MeteredLabeler<OracleLabeler>,
    TastiIndex,
) {
    let video = tasti::data::video::night_street(n, seed);
    let dataset = video.dataset;
    let labeler = MeteredLabeler::new(OracleLabeler::mask_rcnn(dataset.truth_handle()));
    let config = TastiConfig {
        n_train: 150,
        n_reps: 250,
        embedding_dim: 16,
        triplet: TripletConfig {
            steps: 150,
            batch_size: 24,
            margin: 0.3,
        },
        seed,
        ..TastiConfig::default()
    };
    let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, seed ^ 1);
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
fn query_then_crack_then_query_improves_proxies() {
    let (dataset, labeler, mut index) = build_night_street(2_500, 81);
    let score = CountClass(ObjectClass::Car);
    let truth = dataset.true_scores(|o| score.score(o));

    // First query pays for some labels.
    let proxy1 = index.propagate(&score);
    let rho_before = rho_squared(&proxy1, &truth);
    let cfg = AggregationConfig {
        error_target: 0.08,
        stopping: StoppingRule::Clt,
        ..Default::default()
    };
    let _ = ebs_aggregate(&proxy1, &mut |r| score.score(&labeler.label(r)), &cfg);

    // Crack those labels in.
    let added = crack_from_labeler(&mut index, &labeler);
    assert!(added > 0, "the query should have labeled new records");

    // Second query sees better proxies.
    let proxy2 = index.propagate(&score);
    let rho_after = rho_squared(&proxy2, &truth);
    assert!(
        rho_after >= rho_before - 0.02,
        "cracking must not degrade proxy quality: {rho_before} → {rho_after}"
    );
    // Exactness on every cracked representative.
    for &rep in index.reps() {
        assert_eq!(
            proxy2[rep], truth[rep],
            "representative {rep} must score exactly"
        );
    }
}

#[test]
fn cracking_across_query_types_reuses_all_labels() {
    let (dataset, labeler, mut index) = build_night_street(2_500, 82);
    let sel = HasAtLeast(ObjectClass::Car, 2);
    let truth_sel: Vec<bool> = dataset
        .true_scores(|o| sel.score(o))
        .iter()
        .map(|&v| v >= 0.5)
        .collect();

    // A SUPG query labels a few hundred records...
    let proxy = index.propagate(&sel);
    let supg = supg_recall_target(
        &proxy,
        &mut |r| sel.score(&labeler.label(r)) >= 0.5,
        &SupgConfig {
            budget: 300,
            ..Default::default()
        },
    );
    assert!(supg.oracle_calls > 0);

    // ...and a *different* query type benefits after cracking.
    let added = crack_from_labeler(&mut index, &labeler);
    assert!(added > 0);
    let agg_score = CountClass(ObjectClass::Car);
    let proxy_agg = index.propagate(&agg_score);
    let truth_agg = dataset.true_scores(|o| agg_score.score(o));
    // Every record SUPG labeled now has an exact *count*, even though SUPG
    // only asked a boolean question — cracking stores the full labeler
    // output, not the query's view of it.
    let mut checked = 0;
    for r in labeler.labeled_records() {
        assert_eq!(proxy_agg[r], truth_agg[r]);
        checked += 1;
    }
    assert!(checked > 100);
    let _ = truth_sel;
}

#[test]
fn whole_stack_is_deterministic() {
    let (_, _, index_a) = build_night_street(1_500, 83);
    let (dataset, _, index_b) = build_night_street(1_500, 83);
    assert_eq!(index_a.reps(), index_b.reps());
    assert_eq!(index_a.embeddings(), index_b.embeddings());
    let score = CountClass(ObjectClass::Car);
    assert_eq!(index_a.propagate(&score), index_b.propagate(&score));

    // Downstream queries are deterministic too.
    let proxy = index_a.propagate(&score);
    let truth = dataset.true_scores(|o| score.score(o));
    let cfg = AggregationConfig {
        error_target: 0.1,
        stopping: StoppingRule::Clt,
        seed: 99,
        ..Default::default()
    };
    let r1 = ebs_aggregate(&proxy, &mut |r| truth[r], &cfg);
    let r2 = ebs_aggregate(&proxy, &mut |r| truth[r], &cfg);
    assert_eq!(r1.estimate, r2.estimate);
    assert_eq!(r1.samples, r2.samples);
}

#[test]
fn different_seeds_give_different_indexes() {
    let (_, _, index_a) = build_night_street(1_500, 84);
    let (_, _, index_b) = build_night_street(1_500, 85);
    assert_ne!(index_a.reps(), index_b.reps());
}
