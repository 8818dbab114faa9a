//! Streaming ingest: new records appended to a live index get proxy scores
//! immediately and can be cracked like any original record. This extends
//! the paper's cracking story (§3.3) to growing datasets — the trained
//! embedding model is part of the persisted index, so frames captured after
//! construction are embedded with the same φ.

use tasti_core::build::build_index;
use tasti_core::persist;
use tasti_core::scoring::{CountClass, ScoringFunction};
use tasti_core::TastiConfig;
use tasti_data::video::night_street;
use tasti_data::{OracleLabeler, PretrainedEmbedder};
use tasti_labeler::{MeteredLabeler, ObjectClass, VideoCloseness};
use tasti_nn::metrics::rho_squared;
use tasti_nn::{Matrix, TripletConfig};

/// Simulates a live camera: one long video, whose prefix builds the index
/// and whose suffix arrives later as the stream. Returns (full dataset,
/// index over the first `n_index` frames, stream features, stream offset).
fn setup(
    n_index: usize,
    n_stream: usize,
    seed: u64,
) -> (tasti_data::Dataset, tasti_core::TastiIndex, Matrix) {
    let p = night_street(n_index + n_stream, seed);
    let full = p.dataset;
    // Index is built over the prefix only.
    let prefix_rows: Vec<usize> = (0..n_index).collect();
    let prefix_features = full.features.select_rows(&prefix_rows);
    let prefix_truth: Vec<_> = (0..n_index).map(|i| full.ground_truth(i).clone()).collect();
    let prefix = tasti_data::Dataset::new(
        "night-street-prefix",
        prefix_features,
        prefix_truth,
        full.schema.clone(),
    );
    let labeler = MeteredLabeler::new(OracleLabeler::mask_rcnn(prefix.truth_handle()));
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
    let mut pt = PretrainedEmbedder::new(prefix.feature_dim(), config.embedding_dim, 9);
    let pretrained = pt.embed_all(&prefix.features);
    let (index, _) = build_index(
        &prefix.features,
        &pretrained,
        &labeler,
        &VideoCloseness::default(),
        &config,
    )
    .unwrap();
    let stream_rows: Vec<usize> = (n_index..n_index + n_stream).collect();
    let stream_features = full.features.select_rows(&stream_rows);
    (full, index, stream_features)
}

#[test]
fn appended_records_get_meaningful_proxy_scores() {
    let (full, mut index, stream_features) = setup(2_000, 800, 91);
    assert!(
        index.model().is_some(),
        "TASTI-T build must carry its model"
    );

    let range = index.append_records(&stream_features);
    assert_eq!(range, 2_000..2_800);
    assert_eq!(index.n_records(), 2_800);

    let score = CountClass(ObjectClass::Car);
    let proxy = index.propagate(&score);
    assert_eq!(proxy.len(), 2_800);
    // The appended frames' scores must correlate with their ground truth —
    // they come from the same camera, so the index generalizes.
    let new_proxy = &proxy[2_000..];
    let new_truth: Vec<f64> = (2_000..2_800)
        .map(|i| score.score(full.ground_truth(i)))
        .collect();
    let rho2 = rho_squared(new_proxy, &new_truth);
    assert!(
        rho2 > 0.3,
        "streamed records should score meaningfully: ρ² = {rho2}"
    );
}

#[test]
fn appended_records_can_be_cracked() {
    let (full, mut index, stream_features) = setup(1_500, 300, 92);
    let range = index.append_records(&stream_features);

    // Crack a streamed record with its (query-time) labeler output.
    let rec = range.start + 7;
    let out = full.ground_truth(rec).clone();
    assert!(index.crack(rec, out.clone()));
    let score = CountClass(ObjectClass::Car);
    let proxy = index.propagate(&score);
    assert_eq!(
        proxy[rec],
        score.score(&out),
        "cracked streamed record scores exactly"
    );
}

#[test]
fn append_survives_persistence_round_trip() {
    let (_, index, stream_features) = setup(1_200, 100, 93);
    let json = persist::to_json(&index);
    let mut restored = persist::from_json(&json).unwrap();
    assert!(restored.model().is_some(), "model must persist");
    let range = restored.append_records(&stream_features);
    assert_eq!(range.len(), 100);
    assert_eq!(restored.n_records(), index.n_records() + 100);
}

#[test]
fn append_embedded_serves_the_pt_path() {
    let (_, mut index, _) = setup(1_200, 10, 94);
    // Build a PT-style append: external embeddings with the right dim.
    let dim = index.embedding_dim();
    let external = Matrix::from_fn(50, dim, |r, c| ((r * dim + c) as f32 * 0.1).sin());
    let range = index.append_embedded(&external);
    assert_eq!(range.len(), 50);
}

#[test]
#[should_panic(expected = "append_records requires an embedding model")]
fn append_without_model_panics() {
    let p = night_street(500, 95);
    let dataset = p.dataset;
    let labeler = MeteredLabeler::new(OracleLabeler::mask_rcnn(dataset.truth_handle()));
    let config = TastiConfig {
        n_train: 50,
        n_reps: 80,
        embedding_dim: 8,
        ..TastiConfig::default()
    }
    .pretrained_only();
    let mut pt = PretrainedEmbedder::new(dataset.feature_dim(), config.embedding_dim, 9);
    let pretrained = pt.embed_all(&dataset.features);
    let (mut index, _) = build_index(
        &dataset.features,
        &pretrained,
        &labeler,
        &VideoCloseness::default(),
        &config,
    )
    .unwrap();
    let _ = index.append_records(&dataset.features);
}

#[test]
#[should_panic(expected = "feature dimension mismatch")]
fn append_rejects_wrong_feature_dim() {
    let (_, mut index, _) = setup(600, 10, 96);
    let wrong = Matrix::zeros(5, 3);
    let _ = index.append_records(&wrong);
}
