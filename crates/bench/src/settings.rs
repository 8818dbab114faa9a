//! The six evaluation settings of §6.1, scaled to laptop size.

use std::sync::Arc;
use tasti_core::scoring::{
    CountClass, FnScore, HasAtLeast, HasClass, ScoringFunction, SpeechIsMale, SqlNumPredicates,
    SqlOpIs,
};
use tasti_core::TastiConfig;
use tasti_data::video::{amsterdam, night_street, taipei};
use tasti_data::{speech, text, Dataset};
use tasti_labeler::{
    ClosenessFn, LabelerOutput, ObjectClass, SpeechCloseness, SqlCloseness, SqlOp, VideoCloseness,
};
use tasti_nn::{Matrix, TripletConfig};

/// Default number of video frames per dataset.
pub const VIDEO_FRAMES: usize = 12_000;
/// Default number of text/speech records per dataset.
pub const RECORDS_SMALL: usize = 6_000;

/// One evaluation setting: a dataset plus the three queries run over it.
pub struct Setting {
    /// Display name (matches the paper's panel labels).
    pub name: &'static str,
    /// The dataset.
    pub dataset: Dataset,
    /// Features the per-query proxy baselines train on: the *degraded
    /// view* their cheap specialized models are constrained to (downsampled
    /// frames, FastText instead of BERT, reduced spectrograms — §6.1).
    pub proxy_features: Matrix,
    /// Aggregation query scoring function.
    pub agg_score: Arc<dyn ScoringFunction>,
    /// Selection predicate scoring function (0/1 valued).
    pub sel_score: Arc<dyn ScoringFunction>,
    /// Limit-query scoring function (record matches iff score ≥
    /// `limit_threshold`).
    pub limit_score: Arc<dyn ScoringFunction>,
    /// Match threshold for the limit query.
    pub limit_threshold: f64,
    /// Number of matches the limit query asks for.
    pub limit_k: usize,
    /// Closeness function for triplet mining.
    pub closeness: Arc<dyn ClosenessFn>,
    /// TASTI construction configuration.
    pub config: TastiConfig,
    /// TMAS size for the per-query proxy baselines.
    pub tmas_size: usize,
    /// Absolute error target for aggregation queries.
    pub agg_error: f64,
    /// Oracle budget for SUPG queries.
    pub supg_budget: usize,
    /// Master seed for this setting.
    pub seed: u64,
}

fn video_config(seed: u64) -> TastiConfig {
    TastiConfig {
        n_train: 400,
        n_reps: 1200,
        k: 5,
        embedding_dim: 32,
        triplet: TripletConfig {
            steps: 500,
            batch_size: 32,
            margin: 0.3,
        },
        seed,
        ..TastiConfig::default()
    }
}

fn small_config(seed: u64) -> TastiConfig {
    // Paper §6.3: 500 training examples and 500 cluster representatives for
    // the WikiSQL and Common Voice datasets.
    TastiConfig {
        n_train: 500,
        n_reps: 500,
        k: 5,
        embedding_dim: 32,
        triplet: TripletConfig {
            steps: 500,
            batch_size: 32,
            margin: 0.3,
        },
        seed,
        ..TastiConfig::default()
    }
}

/// Builds one of the six named settings. Valid names: `night-street`,
/// `taipei-car`, `taipei-bus`, `amsterdam`, `wikisql`, `common-voice`.
pub fn setting_by_name(name: &str) -> Setting {
    match name {
        "night-street" => {
            let p = night_street(VIDEO_FRAMES, 101);
            let proxy_features = tasti_data::degraded_view(&p.dataset.features, 10, 0.05, 101);
            Setting {
                name: "night-street",
                proxy_features,
                agg_score: Arc::new(CountClass(ObjectClass::Car)),
                // Count-boundary predicate: single visible cars are trivial
                // to detect in the synthetic render, so "≥ 2 cars" supplies
                // the ambiguity real night-street selection has.
                sel_score: Arc::new(HasAtLeast(ObjectClass::Car, 2)),
                limit_score: Arc::new(CountClass(ObjectClass::Car)),
                limit_threshold: 7.0,
                limit_k: 10,
                closeness: Arc::new(VideoCloseness::default()),
                config: video_config(101),
                tmas_size: VIDEO_FRAMES / 5,
                agg_error: 0.05,
                supg_budget: 500,
                seed: 101,
                dataset: p.dataset,
            }
        }
        "taipei-car" | "taipei-bus" => {
            // One dataset, one set of embeddings, two query classes (§6.3).
            let p = taipei(VIDEO_FRAMES, 202);
            let class = if name == "taipei-car" {
                ObjectClass::Car
            } else {
                ObjectClass::Bus
            };
            let proxy_features = tasti_data::degraded_view(&p.dataset.features, 10, 0.05, 202);
            Setting {
                name: if name == "taipei-car" {
                    "taipei (car)"
                } else {
                    "taipei (bus)"
                },
                proxy_features,
                agg_score: Arc::new(CountClass(class)),
                sel_score: if class == ObjectClass::Car {
                    Arc::new(HasAtLeast(class, 3))
                } else {
                    Arc::new(HasClass(class))
                },
                limit_score: Arc::new(CountClass(class)),
                limit_threshold: if class == ObjectClass::Car { 7.0 } else { 2.0 },
                limit_k: 10,
                closeness: Arc::new(VideoCloseness::default()),
                config: video_config(202),
                tmas_size: VIDEO_FRAMES / 5,
                agg_error: 0.05,
                supg_budget: 500,
                seed: 202,
                dataset: p.dataset,
            }
        }
        "amsterdam" => {
            let p = amsterdam(VIDEO_FRAMES, 303);
            let proxy_features = tasti_data::degraded_view(&p.dataset.features, 10, 0.05, 303);
            Setting {
                name: "amsterdam",
                proxy_features,
                agg_score: Arc::new(CountClass(ObjectClass::Car)),
                sel_score: Arc::new(HasAtLeast(ObjectClass::Car, 2)),
                limit_score: Arc::new(CountClass(ObjectClass::Car)),
                limit_threshold: 5.0,
                limit_k: 10,
                closeness: Arc::new(VideoCloseness::default()),
                config: video_config(303),
                tmas_size: VIDEO_FRAMES / 5,
                agg_error: 0.05,
                supg_budget: 500,
                seed: 303,
                dataset: p.dataset,
            }
        }
        "wikisql" => {
            let p = text::wikisql(RECORDS_SMALL, 404);
            Setting {
                name: "wikisql",
                proxy_features: p.fasttext.clone(),
                agg_score: Arc::new(SqlNumPredicates),
                sel_score: Arc::new(SqlOpIs(SqlOp::Select)),
                // Rare event: 4-predicate questions (~5% of the data).
                limit_score: Arc::new(FnScore(|o: &LabelerOutput| match o {
                    LabelerOutput::Sql(s) => s.num_predicates as f64,
                    _ => 0.0,
                })),
                limit_threshold: 4.0,
                limit_k: 10,
                closeness: Arc::new(SqlCloseness),
                config: small_config(404),
                tmas_size: RECORDS_SMALL / 10,
                agg_error: 0.05,
                supg_budget: 400,
                seed: 404,
                dataset: p.dataset,
            }
        }
        "common-voice" => {
            let d = speech::common_voice(RECORDS_SMALL, 505);
            let proxy_features = tasti_data::degraded_view(&d.features, 10, 0.05, 505);
            Setting {
                name: "common-voice",
                proxy_features,
                agg_score: Arc::new(SpeechIsMale),
                sel_score: Arc::new(SpeechIsMale),
                // Rare event: the youngest age bucket (<20, ~10%) female
                // speakers (~3.5% overall).
                limit_score: Arc::new(FnScore(|o: &LabelerOutput| match o {
                    LabelerOutput::Speech(s) => {
                        (s.age_bucket == 0 && s.gender == tasti_labeler::Gender::Female) as u8
                            as f64
                    }
                    _ => 0.0,
                })),
                limit_threshold: 1.0,
                limit_k: 10,
                closeness: Arc::new(SpeechCloseness),
                config: small_config(505),
                tmas_size: RECORDS_SMALL / 10,
                agg_error: 0.05,
                supg_budget: 400,
                seed: 505,
                dataset: d,
            }
        }
        other => panic!("unknown setting {other}"),
    }
}

/// All six settings in the paper's panel order.
pub fn all_settings() -> Vec<Setting> {
    [
        "night-street",
        "taipei-car",
        "taipei-bus",
        "amsterdam",
        "wikisql",
        "common-voice",
    ]
    .iter()
    .map(|n| setting_by_name(n))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_setting_builds_with_consistent_shapes() {
        for s in all_settings() {
            assert_eq!(s.dataset.len(), s.proxy_features.rows(), "{}", s.name);
            assert!(s.config.n_reps < s.dataset.len());
            assert!(s.tmas_size < s.dataset.len());
            // Selection predicates are 0/1-valued on ground truth.
            for i in (0..s.dataset.len()).step_by(997) {
                let v = s.sel_score.score(s.dataset.ground_truth(i));
                assert!(v == 0.0 || v == 1.0, "{}: sel score {v}", s.name);
            }
        }
    }

    #[test]
    fn limit_predicates_are_rare_but_present() {
        for s in all_settings() {
            let matches = (0..s.dataset.len())
                .filter(|&i| s.limit_score.score(s.dataset.ground_truth(i)) >= s.limit_threshold)
                .count();
            let rate = matches as f64 / s.dataset.len() as f64;
            assert!(
                matches >= s.limit_k,
                "{}: only {matches} limit matches for k={}",
                s.name,
                s.limit_k
            );
            assert!(
                rate < 0.2,
                "{}: limit predicate too common ({rate})",
                s.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown setting")]
    fn unknown_setting_panics() {
        let _ = setting_by_name("nope");
    }
}
