//! End-to-end integration tests: dataset → index → query, per modality.

use tasti::prelude::*;
use tasti_labeler::{Schema, SqlOp};
use tasti_nn::metrics::{rho_squared, Confusion};
use tasti_nn::TripletConfig;

fn small_tasti_config(n_train: usize, n_reps: usize, seed: u64) -> TastiConfig {
    TastiConfig {
        n_train,
        n_reps,
        embedding_dim: 16,
        triplet: TripletConfig {
            steps: 200,
            batch_size: 24,
            margin: 0.3,
        },
        seed,
        ..TastiConfig::default()
    }
}

#[test]
fn video_pipeline_aggregation_with_guarantee() {
    let video = tasti::data::video::night_street(3_000, 71);
    let dataset = &video.dataset;
    let labeler = MeteredLabeler::new(OracleLabeler::mask_rcnn(dataset.truth_handle()));
    let config = small_tasti_config(150, 300, 71);
    let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 1);
    let pretrained = pt.embed_all(&dataset.features);
    let (index, report) = build_index(
        &dataset.features,
        &pretrained,
        &labeler,
        &VideoCloseness::default(),
        &config,
    )
    .unwrap();
    assert!(report.total_invocations <= 450);

    let score = CountClass(ObjectClass::Car);
    let proxy = index.propagate(&score);
    let truth = dataset.true_scores(|o| score.score(o));
    assert!(
        rho_squared(&proxy, &truth) > 0.5,
        "video proxy quality too low"
    );

    let cfg = AggregationConfig {
        error_target: 0.08,
        stopping: StoppingRule::Clt,
        ..Default::default()
    };
    let res = ebs_aggregate(&proxy, &mut |r| truth[r], &cfg);
    let mu = truth.iter().sum::<f64>() / truth.len() as f64;
    assert!(
        (res.estimate - mu).abs() <= 0.08,
        "estimate {} vs {}",
        res.estimate,
        mu
    );
    assert!(
        res.samples < dataset.len() as u64 / 2,
        "proxy should save most labeling"
    );
}

#[test]
fn text_pipeline_supg_meets_recall_target() {
    let text = tasti::data::text::wikisql(3_000, 72);
    let dataset = &text.dataset;
    let labeler = MeteredLabeler::new(OracleLabeler::human(
        dataset.truth_handle(),
        Schema::wikisql(),
    ));
    let config = small_tasti_config(300, 300, 72);
    let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 2);
    let pretrained = pt.embed_all(&dataset.features);
    let (index, _) = build_index(
        &dataset.features,
        &pretrained,
        &labeler,
        &SqlCloseness,
        &config,
    )
    .unwrap();

    let predicate = SqlOpIs(SqlOp::Count);
    let proxy = index.propagate(&predicate);
    let truth: Vec<bool> = dataset
        .true_scores(|o| predicate.score(o))
        .iter()
        .map(|&v| v >= 0.5)
        .collect();
    let res = supg_recall_target(
        &proxy,
        &mut |r| truth[r],
        &SupgConfig {
            budget: 400,
            recall_target: 0.9,
            ..Default::default()
        },
    );
    let mut predicted = vec![false; truth.len()];
    for &r in &res.returned {
        predicted[r] = true;
    }
    let c = Confusion::from_predictions(&predicted, &truth);
    assert!(c.recall() >= 0.9, "recall target missed: {}", c.recall());
    assert!(res.oracle_calls <= 400);
    // The returned set must be meaningfully smaller than the dataset.
    assert!(
        res.returned.len() < dataset.len(),
        "selection should exclude something"
    );
}

#[test]
fn speech_pipeline_limit_query_finds_rare_speakers() {
    let dataset = tasti::data::speech::common_voice(3_000, 73);
    let labeler = MeteredLabeler::new(OracleLabeler::human(
        dataset.truth_handle(),
        Schema::common_voice(),
    ));
    let config = small_tasti_config(300, 300, 73);
    let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 3);
    let pretrained = pt.embed_all(&dataset.features);
    let (index, _) = build_index(
        &dataset.features,
        &pretrained,
        &labeler,
        &SpeechCloseness,
        &config,
    )
    .unwrap();

    // Rare event: youngest-bucket speakers (~10%).
    let target = FnScore(|o: &LabelerOutput| match o {
        LabelerOutput::Speech(s) => (s.age_bucket == 0) as u8 as f64,
        _ => 0.0,
    });
    let ranking = index.limit_ranking(&target);
    let truth = dataset.true_scores(|o| target.score(o));
    let res = limit_query(&ranking, &mut |r| truth[r] >= 1.0, 10, dataset.len());
    assert!(res.satisfied, "limit query must find 10 young speakers");
    // A good ranking finds them far faster than a linear scan would
    // (expected scan for 10 hits at 10% prevalence ≈ 100).
    assert!(
        res.invocations <= 60,
        "ranking too weak: {} scans",
        res.invocations
    );
    for &r in &res.found {
        assert!(truth[r] >= 1.0, "returned record {r} does not match");
    }
}

#[test]
fn one_index_many_queries_without_retraining() {
    // The headline claim: a single index answers heterogeneous queries.
    let video = tasti::data::video::taipei(3_000, 74);
    let dataset = &video.dataset;
    let labeler = MeteredLabeler::new(OracleLabeler::mask_rcnn(dataset.truth_handle()));
    let config = small_tasti_config(200, 300, 74);
    let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 4);
    let pretrained = pt.embed_all(&dataset.features);
    let (index, _) = build_index(
        &dataset.features,
        &pretrained,
        &labeler,
        &VideoCloseness::default(),
        &config,
    )
    .unwrap();
    let after_build = labeler.invocations();

    // Five distinct queries, zero additional training, zero labeler calls
    // for proxy-score generation itself.
    let queries: Vec<(&str, Box<dyn ScoringFunction>)> = vec![
        ("count cars", Box::new(CountClass(ObjectClass::Car))),
        ("count buses", Box::new(CountClass(ObjectClass::Bus))),
        ("has bus", Box::new(HasClass(ObjectClass::Bus))),
        ("mean x", Box::new(MeanXPosition(ObjectClass::Car))),
        ("≥2 cars", Box::new(HasAtLeast(ObjectClass::Car, 2))),
    ];
    for (name, q) in &queries {
        let proxy = index.propagate(q.as_ref());
        let truth = dataset.true_scores(|o| q.score(o));
        let rho2 = rho_squared(&proxy, &truth);
        assert!(
            rho2 > 0.2,
            "query '{name}' got uncorrelated proxy scores: ρ² = {rho2}"
        );
    }
    assert_eq!(
        labeler.invocations(),
        after_build,
        "generating proxy scores must not touch the target labeler"
    );
}
